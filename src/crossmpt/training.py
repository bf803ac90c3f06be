"""Training loop: all-zero-codeword sampling, flipped-placement binary
cross-entropy on the multiplicative-noise targets, Adam with cosine decay,
deterministic per-(epoch, batch) data streams, and exact interrupt/resume.

Each step runs its batch as fixed row halves in parallel: every half does its
own forward, loss and backward on leaves that share the parameter arrays, and
the halves' losses and gradients are added in half order. The halves depend
only on the batch size, so a step is bitwise the same for any core count.
"""

from __future__ import annotations

import csv
import functools
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .channel import NoiseSpec, sample_batch, stream_rng
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .codes import Code, get_code, list_codes
from .ensemble import EnsembleConfig, build_ensemble, crossed_forward
from .models import ModelConfig, Variant, forward_arrays, init_params
from .optim import CLIP_NORM, AdamState, adam_step, clip_global_norm, cosine_lr
from .parallel import keep_freed_heap, map_slices, one_blas_thread, row_slices

__all__ = [
    "TrainConfig",
    "TrainReport",
    "NumericFailure",
    "ConfigMismatchError",
    "loss",
    "train",
    "parse_config_file",
]

# rng stream tags (seed, tag, ...)
_TAG_DATA = 1
_TAG_CODESEL = 2

_HALVES = 2  # row groups of every step; a batch of one row is one group

# per-epoch gradient-norm columns of training_log.csv, kept in checkpoints
_NORM_COLUMNS = ("grad_norm_mean", "grad_norm_max", "clip_frac")


class NumericFailure(RuntimeError):
    """Loss or gradients left the finite range; aborts with diagnostics."""


class ConfigMismatchError(ValueError):
    """Resume was attempted with a config that changes the trajectory."""


@dataclass(frozen=True)
class TrainConfig:
    """Everything that pins a training trajectory.

    variant "crossed" trains the parallel-ensemble decoder (p branches,
    foundation base); all other variants name a DecoderModel architecture.
    Every code must be in the registry, and multi-code training requires a
    code-agnostic variant. Layers are pre-norm, Eb/N0 is drawn per sample, a
    mixture draws its code for each batch uniformly, and every step clips the
    global gradient norm to `CLIP_NORM`.
    """

    codes: tuple[str, ...] = ("bch_15_7",)
    variant: str = "crossmpt"
    n_layers: int = 2
    embed_dim: int = 32
    heads: int = 1
    p: int = 1
    epochs: int = 20
    batches_per_epoch: int = 200
    batch_size: int = 128
    lr0: float = 1e-4
    lr_min: float = 5e-7
    ebn0_lo: float = 3.0
    ebn0_hi: float = 7.0
    seed: int = 0
    checkpoint_every: int = 0  # epochs; 0 = only final
    dtype: str = "float64"

    def __post_init__(self):
        if min(self.epochs, self.batches_per_epoch, self.batch_size) < 1:
            raise ValueError("epochs, batches_per_epoch, batch_size must be >= 1")
        if not self.lr0 > self.lr_min > 0:
            raise ValueError("need lr0 > lr_min > 0")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be float64 or float32")
        if not -np.inf < self.ebn0_lo <= self.ebn0_hi < np.inf:
            raise ValueError(
                f"need finite ebn0_lo <= ebn0_hi, got ebn0_lo={self.ebn0_lo}, ebn0_hi={self.ebn0_hi}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.p != 1 and not self.is_ensemble:
            raise ValueError(f"p={self.p} applies only to variant 'crossed', not {self.variant!r}")
        model = self.model_config()  # raises on an invalid architecture
        if len(self.codes) > 1 and not model.code_agnostic:
            raise ValueError(
                f"variant {self.variant!r} has code-specific shapes; multi-code training "
                "needs a foundation variant (fcrossmpt or crossed)"
            )
        for name in self.codes:
            if name not in list_codes():
                raise ValueError(f"unknown code {name!r}")
            if self.is_ensemble:
                build_ensemble(get_code(name), self.p)  # raises on a p the code cannot take

    @property
    def is_ensemble(self) -> bool:
        return self.variant == "crossed"

    def model_config(self) -> ModelConfig:
        variant = Variant.FCROSSMPT if self.is_ensemble else Variant(self.variant)
        return ModelConfig(
            variant=variant,
            n_layers=self.n_layers,
            embed_dim=self.embed_dim,
            heads=self.heads,
        )


@dataclass
class TrainReport:
    """Per-epoch records; the gradient norms are the pre-clip global norms of
    the epoch's steps, and None for epochs of a checkpoint that predates them."""

    epoch_losses: list[float] = field(default_factory=list)
    lr_trace: list[float] = field(default_factory=list)
    grad_norm_mean: list[float | None] = field(default_factory=list)
    grad_norm_max: list[float | None] = field(default_factory=list)
    clip_frac: list[float | None] = field(default_factory=list)
    wall_time_s: float = 0.0
    checkpoint_path: str = ""


def loss(logits: Tensor, target: np.ndarray) -> Tensor:
    """Binary cross-entropy against the binarized multiplicative noise,
    with the flipped placement: target 1 penalizes sigma(f) near 1 through
    -log(1 - sigma(f)), target 0 penalizes through -log(sigma(f)).

    Evaluates as sum_i softplus((2 t_i - 1) f_i) over targets t_i in {0, 1}: one
    softplus of the sign-flipped logits, summed over positions, averaged over rows.
    """
    t = np.asarray(target, dtype=logits.dtype)
    if t.shape != logits.shape:
        raise ValueError(f"target shape {t.shape} != logits shape {logits.shape}")
    total = ad.reduce_sum(ad.softplus(ad.mul(ad.constant(2.0 * t - 1.0), logits)))
    rows = 1 if logits.data.ndim < 2 else int(np.prod(logits.data.shape[:-1]))
    return ad.scale(total, 1.0 / rows)


class _Lane:
    """Per-code forward closure: sampling code and logits function."""

    def __init__(self, train_cfg: TrainConfig, model_cfg: ModelConfig, code: Code):
        self.name = code.name
        self.model_cfg = model_cfg
        if train_cfg.is_ensemble:
            self.ens: EnsembleConfig | None = build_ensemble(code, train_cfg.p, base=model_cfg)
            self.sampling_code = self.ens.branch_code()
        else:
            self.ens = None
            self.sampling_code = code
        self.spec = NoiseSpec.for_code(
            self.sampling_code, train_cfg.ebn0_lo, train_cfg.ebn0_hi, seed=train_cfg.seed
        )

    def logits(self, params, mag: np.ndarray, syndromes: list[np.ndarray]) -> Tensor:
        if self.ens is not None:
            return crossed_forward(params, self.ens, mag, syndromes)
        return forward_arrays(params, self.model_cfg, self.sampling_code.pcm, mag, syndromes[0])


def _step_gradients(params: dict[str, Tensor], lane: _Lane, batch) -> float:
    """Set every parameter's gradient of the batch-mean loss; return that loss.

    Each fixed row half runs forward, loss and backward on its own leaves,
    which share the parameter arrays, and seeds its backward with its share
    of the batch mean; the halves run concurrently on the process's cores
    (`map_slices`) and their results are added in half order.
    """
    size = len(batch)

    def half(rows: slice):
        leaves = {name: ad.parameter(p.data, p.dtype) for name, p in params.items()}
        logits = lane.logits(leaves, batch.mag[rows], [s[rows] for s in batch.syndromes])
        loss_t = loss(logits, batch.target[rows])
        share = (rows.stop - rows.start) / size
        value = share * loss_t.item()
        loss_t.backward(np.asarray(share))
        return value, {name: leaf.grad for name, leaf in leaves.items()}

    values, grads = zip(*map_slices(half, row_slices(size, min(_HALVES, size))))
    for name, p in params.items():
        p.grad = functools.reduce(np.add, (g[name] for g in grads))
    return sum(values)


def _select_lane(lanes: list[_Lane], cfg: TrainConfig, epoch: int, batch: int) -> _Lane:
    if len(lanes) == 1:
        return lanes[0]
    return lanes[stream_rng(cfg.seed, _TAG_CODESEL, epoch, batch).integers(len(lanes))]


def _validate_resume(stored: dict, cfg: TrainConfig) -> None:
    current = asdict(cfg)
    current["codes"] = list(cfg.codes)
    for key, value in current.items():
        if stored.get(key) != value:
            raise ConfigMismatchError(
                f"cannot resume: config key {key!r} changed "
                f"(checkpoint {stored.get(key)!r}, requested {value!r})"
            )


@one_blas_thread()
def train(
    cfg: TrainConfig,
    out_dir: str | Path,
    interrupt_after: int | None = None,
    resume_from: str | Path | None = None,
) -> TrainReport:
    """Run (or continue) a training trajectory; its checkpoints and
    training_log.csv go into out_dir, which is created if needed.

    Data and code selection are pure functions of (seed, epoch, batch), so a
    run interrupted at any epoch boundary and resumed from its checkpoint
    reproduces the uninterrupted trajectory bitwise. Raises NumericFailure at
    the step where the loss or the pre-clip gradient norm leaves the finite
    range. Each step runs as fixed row halves on up to two cores
    (`_step_gradients`), OpenBLAS runs on one thread for the duration of the
    call, and freed heap memory stays in the process (`keep_freed_heap`).
    """
    keep_freed_heap()
    started = time.perf_counter()
    codes = [get_code(name) for name in cfg.codes]
    model_cfg = cfg.model_config()
    lanes = [_Lane(cfg, model_cfg, code) for code in codes]

    start_epoch = 0
    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        if ck.header.get("train_cfg") is None:
            raise CheckpointError("checkpoint carries no training config; cannot resume")
        if ck.adam is None:
            raise CheckpointError("checkpoint carries no optimizer state; cannot resume")
        _validate_resume(ck.header["train_cfg"], cfg)
        params = ck.params
        adam = ck.adam
        start_epoch = int(ck.header["epoch"])
        extra = ck.header["extra"]
        losses = list(extra.get("epoch_losses", []))
        report = TrainReport(
            epoch_losses=losses,
            lr_trace=list(extra.get("lr_trace", [])),
            **{key: list(extra.get(key, [None] * len(losses))) for key in _NORM_COLUMNS},
        )
    else:
        params = init_params(model_cfg, codes[0], seed=cfg.seed, dtype=np.dtype(cfg.dtype))
        adam = AdamState.for_params(params)
        report = TrainReport()

    total_steps = cfg.epochs * cfg.batches_per_epoch
    schedule_steps = max(total_steps - 1, 1)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    def save(epoch_done: int, tag: str) -> Path:
        return save_checkpoint(
            out_path / f"checkpoint_{tag}.npz",
            model_cfg=model_cfg,
            codes=codes,
            params=params,
            seed=cfg.seed,
            step=epoch_done * cfg.batches_per_epoch,
            epoch=epoch_done,
            adam=adam,
            branch_pcms=list(lanes[0].ens.pcms) if cfg.is_ensemble else None,
            train_cfg={**asdict(cfg), "codes": list(cfg.codes)},
            extra={
                "epoch_losses": report.epoch_losses,
                "lr_trace": report.lr_trace,
                **{key: getattr(report, key) for key in _NORM_COLUMNS},
            },
        )

    final_path: Path | None = None
    for epoch in range(start_epoch, cfg.epochs):
        batch_losses, norms = [], []
        for b in range(cfg.batches_per_epoch):
            step = epoch * cfg.batches_per_epoch + b
            lr = cosine_lr(step, schedule_steps, cfg.lr0, cfg.lr_min)
            if b == 0:
                report.lr_trace.append(lr)
            lane = _select_lane(lanes, cfg, epoch, b)
            batch = sample_batch(
                lane.sampling_code,
                lane.spec,
                cfg.batch_size,
                policy="all_zero",
                stream=(_TAG_DATA, epoch, b),
            )
            value = _step_gradients(params, lane, batch)
            if not np.isfinite(value):
                raise NumericFailure(
                    f"non-finite loss {value} at epoch {epoch} batch {b} "
                    f"(code {lane.name}, lr {lr:.3e})"
                )
            grad_norm = clip_global_norm(params)
            if not np.isfinite(grad_norm):
                raise NumericFailure(
                    f"non-finite gradient norm {grad_norm} at epoch {epoch} batch {b} "
                    f"(code {lane.name}, lr {lr:.3e}, loss {value:.6g})"
                )
            adam_step(params, adam, lr)
            batch_losses.append(value)
            norms.append(grad_norm)
        report.epoch_losses.append(float(np.mean(batch_losses)))
        report.grad_norm_mean.append(float(np.mean(norms)))
        report.grad_norm_max.append(max(norms))
        report.clip_frac.append(sum(n > CLIP_NORM for n in norms) / len(norms))
        done = epoch + 1
        stop = interrupt_after is not None and interrupt_after <= done < cfg.epochs
        if stop or (cfg.checkpoint_every and done % cfg.checkpoint_every == 0 and done < cfg.epochs):
            final_path = save(done, f"epoch{done:04d}")
        if stop:
            break
    else:
        report.lr_trace.append(cosine_lr(total_steps - 1, schedule_steps, cfg.lr0, cfg.lr_min))
        final_path = save(cfg.epochs, "final")

    report.wall_time_s = time.perf_counter() - started
    report.checkpoint_path = str(final_path)
    _write_log(out_path / "training_log.csv", report)
    return report


def _write_log(path: Path, report: TrainReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_loss", "lr", *_NORM_COLUMNS])
        columns = (report.epoch_losses, report.lr_trace, *(getattr(report, key) for key in _NORM_COLUMNS))
        for i, row in enumerate(zip(*columns), start=1):
            writer.writerow([i, *("" if v is None else repr(v) for v in row)])


def parse_config_file(path: str | Path) -> dict:
    """Flat key-value training config: one `key = value` per line, # comments.

    Values are coerced by the TrainConfig field types; `codes` is a
    comma-separated list.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    return coerce_config(raw)


def coerce_config(raw: dict[str, str]) -> dict:
    fields = TrainConfig.__dataclass_fields__
    out: dict = {}
    for key, value in raw.items():
        if key not in fields:
            raise ValueError(f"unknown training config key {key!r}")
        kind = fields[key].type
        if key == "codes":
            out[key] = tuple(v.strip() for v in value.split(",") if v.strip())
        elif kind == "int":
            out[key] = int(value)
        elif kind == "float":
            out[key] = float(value)
        else:
            out[key] = value
    return out
