"""Monte-Carlo BER/FER estimation, analytic complexity comparison, attention
dumps, and per-position error tables.

Decoders are objects with decode_batch(BatchSample) -> (B, n) bits; a
single frame is a one-row batch.
Sampling streams are pure functions of (seed, snr index, chunk index) and
chunk results are merged in index order, so counts are bit-identical for any
thread count.
"""

from __future__ import annotations

import csv
import functools
import itertools
import logging
import time
from concurrent.futures import wait
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import erfc

from .bp import BpConfig, bp_decode_batch
from .channel import BatchSample, ChannelSample, NoiseSpec, sample_batch
from .codes import Code
from .ensemble import EnsembleConfig, coverage_report
from .masks import tanner_graph
from .models import FFN_EXPANSION, ModelConfig
from .parallel import keep_freed_heap, one_blas_thread, submit

__all__ = [
    "StopRule",
    "BerRow",
    "BerReport",
    "IdentityDecoder",
    "BpDecoder",
    "estimate_ber",
    "wilson_interval",
    "uncoded_bpsk_ber",
    "flops_estimate",
    "ComplexityRow",
    "complexity_report",
    "PUBLISHED_MASK_DENSITIES",
    "density_check",
    "dump_attention",
    "bitwise_ber",
]

_TAG_EVAL = 3
_log = logging.getLogger(__name__)
_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# Published mask densities (percent) for bundled codes, (cross, self) pairs,
# used by the analyzer to flag reconstruction discrepancies.
PUBLISHED_MASK_DENSITIES: dict[str, tuple[float, float]] = {
    "bch_63_45": (32.45, 53.09),
    "ldpc_121_70": (9.09, 24.01),
    "ldpc_121_80": (9.09, 21.94),
}


@dataclass(frozen=True)
class StopRule:
    """Stop an SNR point after min_errors bit errors or max_bits sent. Both
    bounds are at least 1, so every point decodes at least one chunk."""

    min_errors: int = 100
    max_bits: int = 10_000_000

    def __post_init__(self):
        if min(self.min_errors, self.max_bits) < 1:
            raise ValueError(
                f"min_errors and max_bits must be >= 1, got min_errors={self.min_errors}, "
                f"max_bits={self.max_bits}"
            )

    def reached(self, row: "BerRow") -> bool:
        return row.bit_errors >= self.min_errors or row.bits_sent >= self.max_bits


@dataclass
class BerRow:
    ebn0_db: float
    bits_sent: int
    bit_errors: int
    frames_sent: int
    frame_errors: int
    per_bit_errors: np.ndarray

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_sent if self.bits_sent else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames_sent if self.frames_sent else 0.0

    @property
    def neg_ln_ber(self) -> float:
        return float("inf") if self.ber == 0 else -float(np.log(self.ber))

    @property
    def wilson_ci_95(self) -> tuple[float, float]:
        return wilson_interval(self.bit_errors, self.bits_sent)


def _fmt(x) -> str:
    """Shortest exact decimal form of a float (stable across reruns)."""
    return repr(float(x))


@dataclass
class BerReport:
    code_name: str
    decoder_name: str
    rows: list[BerRow] = field(default_factory=list)

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "ebn0_db", "bits_sent", "bit_errors", "frames_sent", "frame_errors",
                    "ber", "fer", "neg_ln_ber", "wilson_low", "wilson_high",
                ]
            )
            for r in self.rows:
                lo, hi = r.wilson_ci_95
                neg = "censored" if r.ber == 0 else _fmt(r.neg_ln_ber)
                writer.writerow(
                    [
                        _fmt(r.ebn0_db), r.bits_sent, r.bit_errors, r.frames_sent,
                        r.frame_errors, _fmt(r.ber), _fmt(r.fer), neg, _fmt(lo), _fmt(hi),
                    ]
                )


def wilson_interval(errors: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return (0.0, 1.0)
    p = errors / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return (lo, hi)


def uncoded_bpsk_ber(ebn0_db: float, rate: float) -> float:
    """Closed-form hard-decision BPSK bit error rate, Q(sqrt(2 R 10^(x/10)))."""
    return 0.5 * erfc(np.sqrt(rate * 10.0 ** (ebn0_db / 10.0)))


class IdentityDecoder:
    """No decoding: the channel hard decision is the output."""

    name = "uncoded"

    def decode_batch(self, batch: BatchSample) -> np.ndarray:
        return batch.y_b


class BpDecoder:
    """Belief propagation over the code's Tanner graph with LLR = 2y/sigma^2."""

    def __init__(self, code: Code, cfg: BpConfig):
        self.graph = tanner_graph(code.pcm)
        self.cfg = cfg
        self.rate = code.rate
        self.name = f"bp_{cfg.algorithm}_{cfg.max_iters}"
        self.totals = np.zeros(3, dtype=np.int64)  # frames, BP iterations, converged frames

    def llr(self, batch: BatchSample) -> np.ndarray:
        sigma2 = 1.0 / (2.0 * self.rate * 10.0 ** (np.atleast_1d(batch.ebn0_db) / 10.0))
        return 2.0 * batch.y / sigma2[:, None]

    def decode_llr(self, llr: np.ndarray) -> np.ndarray:
        out, iters, converged = bp_decode_batch(llr, self.graph, self.cfg)
        self.totals += (len(iters), iters.sum(), converged.sum())
        return out

    def decode_batch(self, batch: BatchSample) -> np.ndarray:
        return self.decode_llr(self.llr(batch))


def _decoding(decoder, batch: BatchSample):
    """A chunk's codewords and a call that decodes it. BP reads only the
    chunk's LLRs, so a BP chunk is reduced to them here: the rest of it is
    freed before the next chunk is sampled, which then reuses its memory."""
    if isinstance(decoder, BpDecoder):
        return batch.x, functools.partial(decoder.decode_llr, decoder.llr(batch))
    return batch.x, functools.partial(decoder.decode_batch, batch)


def _add_chunk(row: BerRow, x: np.ndarray, decode) -> None:
    """Decode one chunk and add its frames and errors to `row`."""
    errs = (decode() ^ x).astype(np.int64)
    row.bit_errors += int(errs.sum())
    row.per_bit_errors += errs.sum(axis=0)
    row.frame_errors += int(errs.any(axis=1).sum())
    row.frames_sent += len(x)
    row.bits_sent += x.size


def _point_in_process(decoder, code: Code, policy: str, spec: NoiseSpec, si: int,
                      stop: StopRule, chunk_frames: int, row: BerRow) -> None:
    """Count chunks 0, 1, ... of point si into `row` until the stop rule
    holds. A helper thread samples the chunks, chunk k+1 while chunk k
    decodes on this thread if max_bits leaves room for it; a sampled chunk
    that min_errors makes unneeded is dropped undecoded. No sampling job is
    left running on return or raise."""
    def sampled(k):
        return submit(sample_batch, code, spec, chunk_frames, policy, (_TAG_EVAL, si, k))

    ahead = sampled(0)
    try:
        for k in itertools.count(1):
            x, decode = _decoding(decoder, ahead.result())
            ahead = None  # the future holds the chunk: free it before sampling the next
            if k * chunk_frames * code.n < stop.max_bits:
                ahead = sampled(k)
            _add_chunk(row, x, decode)
            if stop.reached(row):
                return
    finally:
        if ahead is not None and not ahead.cancel():
            wait([ahead])


@one_blas_thread()
def estimate_ber(
    decoder,
    code: Code,
    ebn0_list: list[float],
    stop: StopRule = StopRule(),
    seed: int = 0,
    policy: str = "random",
    chunk_frames: int = 512,
) -> BerReport:
    """Streaming Monte-Carlo BER/FER per SNR point.

    Random-codeword transmission is the default (valid for syndrome-based
    decoders by the codeword-invariance property); all_zero is available for
    cross-checks. Deterministic for a fixed seed regardless of the thread
    count. The next chunk is sampled on a helper thread while the current one
    decodes, and neural decoders split each chunk's rows over the cores;
    OpenBLAS runs on one thread for the duration of the call. Logs one line
    per finished point (for BP, with its iterations) to `crossmpt.evaluation`
    at INFO. Raises ValueError, before any sampling, on a bad Eb/N0 list.
    """
    if not ebn0_list:
        raise ValueError("the Eb/N0 list is empty: no point to evaluate")
    specs = [NoiseSpec.for_code(code, ebn0, seed=seed) for ebn0 in ebn0_list]
    keep_freed_heap()
    report = BerReport(code_name=code.name, decoder_name=getattr(decoder, "name", "decoder"))
    for si, (ebn0, spec) in enumerate(zip(ebn0_list, specs)):
        t0 = time.perf_counter()
        bp_before = decoder.totals.copy() if isinstance(decoder, BpDecoder) else None
        row = BerRow(
            ebn0_db=float(ebn0), bits_sent=0, bit_errors=0, frames_sent=0,
            frame_errors=0, per_bit_errors=np.zeros(code.n, dtype=np.int64),
        )
        _point_in_process(decoder, code, policy, spec, si, stop, chunk_frames, row)
        report.rows.append(row)
        seconds = time.perf_counter() - t0
        bp = ""
        if bp_before is not None:
            frames, iters, converged = decoder.totals - bp_before
            bp = f", BP {iters / frames:.2f} iterations per frame, {converged / frames:.1%} converged"
        _log.info(
            "%s %s eb/n0 %g dB: %d frames, %d bit errors, %.0f frames/s%s",
            report.decoder_name, code.name, row.ebn0_db, row.frames_sent, row.bit_errors,
            row.frames_sent / seconds, bp,
        )
    return report


# ---------------------------------------------------------------------------
# analytic complexity

LN_FLOPS_PER_ELEM = 8
ACT_FLOPS_PER_ELEM = 15
SOFTMAX_FLOPS_PER_ENTRY = 5


@dataclass
class ComplexityRow:
    decoder: str
    attention_map_area: int
    unmasked: int
    density: float
    flops: int


def flops_estimate(cfg: ModelConfig, code: Code, decoder_kind: str) -> int:
    """FLOPs for one forward pass with masked attention (MAC = 2 FLOPs).

    Only unmasked attention entries are charged for the score and the
    weighted sum; softmax costs SOFTMAX_FLOPS_PER_ENTRY per unmasked entry.
    """
    n, k = code.n, code.k
    d = cfg.embed_dim
    e = FFN_EXPANSION
    rows = 2 * n - k
    graph = tanner_graph(code.pcm)
    h_cross = graph.n_edges
    h_self = graph.ecct_mask.unmasked_count()

    embed = 2 * rows * d  # scalar * vector per position
    per_layer_common = (
        2 * 3 * d * d * rows  # Q/K/V projections
        + 2 * 2 * e * d * d * rows  # FFN matmuls
        + ACT_FLOPS_PER_ELEM * e * d * rows  # FFN activation
    )
    head = LN_FLOPS_PER_ELEM * rows * d + 2 * rows * d + 2 * rows * n

    if decoder_kind == "crossmpt":
        attn = 2 * (2 * h_cross * d * 2 + SOFTMAX_FLOPS_PER_ENTRY * h_cross)
        # each block norms its query and key/value streams, plus one FFN norm:
        # 3 full passes over the (n + m) positions per layer
        norms = LN_FLOPS_PER_ELEM * d * 3 * rows
        resid = 2 * rows * d
    elif decoder_kind == "ecct":
        attn = 2 * h_self * d * 2 + SOFTMAX_FLOPS_PER_ENTRY * h_self
        norms = LN_FLOPS_PER_ELEM * d * 2 * rows
        resid = 2 * rows * d
    else:
        raise ValueError(f"unknown decoder kind {decoder_kind!r}")
    return embed + cfg.n_layers * (per_layer_common + attn + norms + resid) + head


def complexity_report(cfg: ModelConfig, code: Code) -> list[ComplexityRow]:
    """Cross-attention vs self-attention masked-complexity comparison."""
    n, k = code.n, code.k
    m = n - k
    graph = tanner_graph(code.pcm)
    h_tilde = graph.n_edges
    h = graph.ecct_mask.unmasked_count()
    return [
        ComplexityRow(
            decoder="crossmpt",
            attention_map_area=2 * n * m,
            unmasked=h_tilde,
            density=h_tilde / (n * m),
            flops=flops_estimate(cfg, code, "crossmpt"),
        ),
        ComplexityRow(
            decoder="ecct",
            attention_map_area=(2 * n - k) ** 2,
            unmasked=h,
            density=h / (2 * n - k) ** 2,
            flops=flops_estimate(cfg, code, "ecct"),
        ),
    ]


def density_check(code: Code) -> dict | None:
    """Compare this code's mask densities to the published values, if any.

    Returns None when no reference exists; otherwise a dict with ours/published
    percentages, a match flag per decoder (`cross_matches` for crossmpt,
    `self_matches` for ecct; equal at the published precision) and `matches`
    when both hold.
    """
    if code.name not in PUBLISHED_MASK_DENSITIES:
        return None
    rows = complexity_report(ModelConfig(), code)
    ours = (100 * rows[0].density, 100 * rows[1].density)
    published = PUBLISHED_MASK_DENSITIES[code.name]
    cross_matches, self_matches = (abs(o - p) <= 0.005 for o, p in zip(ours, published))
    return {
        "code": code.name,
        "ours_cross_pct": ours[0],
        "ours_self_pct": ours[1],
        "published_cross_pct": published[0],
        "published_self_pct": published[1],
        "cross_matches": cross_matches,
        "self_matches": self_matches,
        "matches": cross_matches and self_matches,
    }


# ---------------------------------------------------------------------------
# attention dumps and per-position tables


def dump_attention(model, sample: ChannelSample, layer_range: tuple[int, int] | None = None):
    """Per-layer attention score matrices and their vertical (per-column) sums.

    Works for cross-attention models (two maps per layer) and self-attention
    models (one map per layer). Returns a list of dicts with the raw arrays,
    the 1-based `layer` and the 0-based ensemble `branch` (0 for a single
    model), branch by branch; layer_range selects the same layers of every
    branch. Masked positions are exact zeros.
    """
    capture: list = []
    model.logits(sample.mag[None, :], [s[None, :] for s in sample.syndromes], capture)
    n_layers = model.cfg.n_layers
    lo, hi = layer_range if layer_range is not None else (1, n_layers)
    dumps = []
    for idx, entry in enumerate(capture):
        branch, layer = divmod(idx, n_layers)
        if not lo <= layer + 1 <= hi:
            continue
        out: dict[str, np.ndarray] = {"branch": branch, "layer": layer + 1}
        for name, arr in entry.items():
            arr = np.asarray(arr)
            while arr.ndim > 3:
                arr = arr[0]  # drop the singleton batch axis
            out[name] = arr
            out[f"{name}_colsum"] = arr.sum(axis=(-3, -2))
        dumps.append(out)
    return dumps


def bitwise_ber(report: BerReport, ens: EnsembleConfig | None = None) -> list[dict]:
    """Per-position error table aggregated over the report's SNR rows, joined
    with the ensemble identity-coverage map when one is given."""
    n = len(report.rows[0].per_bit_errors)
    frames = sum(r.frames_sent for r in report.rows)
    errors = np.zeros(n, dtype=np.int64)
    for r in report.rows:
        errors += r.per_bit_errors
    cover = coverage_report(ens) if ens is not None else [[] for _ in range(n)]
    table = []
    for pos in range(n):
        table.append(
            {
                "position": pos,
                "frames": frames,
                "errors": int(errors[pos]),
                "ber": errors[pos] / frames if frames else 0.0,
                "covered": bool(cover[pos]),
                "branches": ";".join(str(b) for b in cover[pos]),
            }
        )
    return table


def write_bitwise_csv(path: str | Path, table: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["position", "frames", "errors", "ber", "covered", "branches"]
        )
        writer.writeheader()
        for row in table:
            row = dict(row)
            row["ber"] = _fmt(row["ber"])
            writer.writerow(row)
