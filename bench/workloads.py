"""The four benchmark workloads.

Each workload is built from the run's seed (set-up), then runs timed units:
`unit(k)` does one unit of work on inputs drawn from `sub_seed(seed, k)` and
returns a plain record. Records feed the end-to-end metrics, the correctness
gate and the reference file. Neural decoders use random-init weights from a
fixed init seed (MODEL_SEED), frozen with infer_only=True: decode cost does not
depend on weight values, and fixed weights make the BER reference a property
of one decoder. The run's seed drives the channel.

`frames_per_s`, the throughput the benchmark gates on, is the rate of the
fastest of many units that do equal work (training steps, decode calls): on a
shared machine other tenants only ever add time, and the fastest unit
estimates the program's own cost. The bp-eval units do unequal work (the
number of frames to 100 errors and of BP iterations varies), so there it is
the frames of all calls over their total time. The typical rates a user sees
(median unit, per decoder) are printed beside it.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

from crossmpt import checkpoint, evaluation, models, training
from crossmpt.bp import BpConfig
from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.codes import get_code
from crossmpt.ensemble import CrossEDModel, build_ensemble
from crossmpt.evaluation import BpDecoder, StopRule
from crossmpt.models import DecoderModel, ModelConfig, Variant

ROOT = Path(__file__).resolve().parent.parent
TRAIN_FIXTURE = ROOT / "configs" / "desk_bch_15_7.cfg"
MODEL_SEED = 0
DECODE_CODE = "ldpc_121_80"
DECODE_EBN0 = 4.0

# Stated tolerances of the correctness gate (see references.json).
TRAIN_LOSS_REL_TOL = 1e-6  # epoch loss vs the recorded reference, relative
BIT_ERR_TOL = 1e-3  # decode bit errors may differ by this share of bits sent
FRAME_ERR_TOL = 1e-2  # decode frame errors may differ by this share of frames


def sub_seed(seed: int, k: int) -> int:
    """Seed of unit k of a run with seed `seed`."""
    return int(np.random.SeedSequence([int(seed), int(k)]).generate_state(1)[0])


class Check:
    """One named correctness check."""

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = bool(ok)
        self.detail = detail


def check_band(name: str, value: float, band) -> Check:
    lo, hi = band
    return Check(f"band {name}", lo <= value <= hi, f"{value:.6g} in [{lo:.6g}, {hi:.6g}]")


class TrainDesk:
    """training.train on the desk fixture config, one epoch per unit."""

    name = "train-desk"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        raw = training.parse_config_file(TRAIN_FIXTURE)
        if smoke:
            raw.update(batches_per_epoch=4, batch_size=16)
        raw["seed"] = seed
        self.cfg = training.TrainConfig(**raw)
        self.workdir = workdir
        self.seed = seed

    def finish_setup(self) -> None:
        """Run train() from its entry to its first step, then abandon it."""

        class FirstStep(Exception):
            pass

        def stop(*_args, **_kwargs):
            raise FirstStep

        site = training.sample_batch
        training.sample_batch = stop
        try:
            training.train(self.cfg, out_dir=self.workdir / "setup")
        except FirstStep:
            pass
        finally:
            training.sample_batch = site

    def unit(self, k: int) -> dict:
        """One epoch from scratch. The step clock reads the start of each
        training.sample_batch call; the parameters handed to save_checkpoint
        are copied for the round-trip check."""
        stamps: list[float] = []
        saved: dict = {}
        site_sample, site_save = training.sample_batch, training.save_checkpoint

        def clock(*args, **kwargs):
            stamps.append(time.perf_counter())
            return site_sample(*args, **kwargs)

        def capture(path, **kwargs):
            saved.update({name: p.data.copy() for name, p in kwargs["params"].items()})
            return site_save(path, **kwargs)

        training.sample_batch, training.save_checkpoint = clock, capture
        try:
            t0 = time.perf_counter()
            report = training.train(self.cfg, out_dir=self.workdir / f"unit{k}", interrupt_after=1)
            seconds = time.perf_counter() - t0
        finally:
            training.sample_batch, training.save_checkpoint = site_sample, site_save
        return {
            "seconds": seconds,
            "steps": len(stamps),
            "step_s": list(np.diff(stamps)),
            "epoch_losses": list(report.epoch_losses),
            "checkpoint": report.checkpoint_path,
            "saved_params": saved,
        }

    @staticmethod
    def operations(record: dict) -> int:
        return record["steps"]

    def metrics(self, records: list[dict]) -> dict:
        steps = [s for r in records for s in r["step_s"]]
        p50 = statistics.median(steps)
        return {
            "frames_per_s": self.cfg.batch_size / min(steps),
            "train_samples_per_s": self.cfg.batch_size / p50,
            "train_step_p50_ms": 1e3 * p50,
            "train_step_p90_ms": 1e3 * statistics.quantiles(steps, n=10, method="inclusive")[-1],
            "train_steps": len(steps),
        }

    @staticmethod
    def reference(record: dict) -> dict:
        return {"epoch_loss": record["epoch_losses"][0]}

    @staticmethod
    def band_values(records: list[dict]) -> dict:
        return {"epoch_loss": statistics.fmean(r["epoch_losses"][0] for r in records)}

    def static_checks(self) -> list[Check]:
        return []

    def record_checks(self, record: dict) -> list[Check]:
        checks = [Check("epoch loss finite", all(math.isfinite(v) for v in record["epoch_losses"]))]
        ck = checkpoint.load_checkpoint(record["checkpoint"])
        code = get_code(self.cfg.codes[0])
        shapes = models.param_shapes(self.cfg.model_config(), code)
        same = set(ck.params) == set(record["saved_params"]) == set(shapes) and all(
            np.array_equal(ck.params[name].data, record["saved_params"][name])
            and ck.params[name].shape == shapes[name]
            for name in shapes
        )
        checks.append(Check("checkpoint round-trips through load_checkpoint", same))
        checks.append(Check(
            "checkpoint header",
            ck.header["epoch"] == 1
            and ck.header["step"] == self.cfg.batches_per_epoch
            and ck.adam is not None and ck.adam.t == self.cfg.batches_per_epoch
            and ck.header["extra"]["epoch_losses"] == record["epoch_losses"],
        ))
        return checks

    @staticmethod
    def compare(record: dict, ref: dict) -> list[Check]:
        got, want = record["epoch_losses"][0], ref["epoch_loss"]
        ok = abs(got - want) <= TRAIN_LOSS_REL_TOL * abs(want)
        return [Check("epoch loss vs reference", ok, f"{got!r} vs {want!r}")]

    @staticmethod
    def same_result(a: dict, b: dict) -> bool:
        return a["epoch_losses"] == b["epoch_losses"]


class Decode:
    """estimate_ber at 4 dB on ldpc_121_80 with a fixed frame budget per call,
    one call per decoder per unit."""

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.code = get_code(DECODE_CODE)
        self.frames = self.smoke_frames if smoke else self.unit_frames
        self.decoders: dict[str, tuple] = {}
        for variant in (Variant.CROSSMPT, Variant.ECCT):
            cfg = ModelConfig(variant=variant, n_layers=self.n_layers, embed_dim=self.embed_dim)
            model = DecoderModel(cfg, self.code, seed=MODEL_SEED, infer_only=True)
            self.decoders[variant.value] = (model, self.code)

    def finish_setup(self) -> None:
        pass

    def unit(self, k: int) -> dict:
        out = {"decoders": {}}
        budget = StopRule(min_errors=self.frames * self.code.n + 1, max_bits=self.frames * self.code.n)
        for name, (decoder, code) in self.decoders.items():
            t0 = time.perf_counter()
            report = evaluation.estimate_ber(
                decoder, code, [DECODE_EBN0], budget, seed=sub_seed(self.seed, k),
                chunk_frames=self.frames,
            )
            seconds = time.perf_counter() - t0
            row = report.rows[0]
            out["decoders"][name] = {
                "seconds": seconds,
                "frames": row.frames_sent,
                "bits": row.bits_sent,
                "bit_errors": row.bit_errors,
                "frame_errors": row.frame_errors,
            }
        out["seconds"] = sum(d["seconds"] for d in out["decoders"].values())
        return out

    @staticmethod
    def operations(record: dict) -> int:
        return len(record["decoders"])

    def metrics(self, records: list[dict]) -> dict:
        out = {}
        best = []
        for name in self.decoders:
            seconds = [r["decoders"][name]["seconds"] for r in records]
            out[f"{name}_frames_per_s"] = self.frames / statistics.median(seconds)
            best.append(self.frames / min(seconds))
        # every decoder decodes the same frames: the combined rate is harmonic
        out["frames_per_s"] = len(best) / sum(1.0 / rate for rate in best)
        out["decode_rounds"] = len(records)
        return out

    @staticmethod
    def reference(record: dict) -> dict:
        return {
            name: {"bit_errors": d["bit_errors"], "frame_errors": d["frame_errors"]}
            for name, d in record["decoders"].items()
        }

    def band_values(self, records: list[dict]) -> dict:
        out = {}
        for name in self.decoders:
            rows = [r["decoders"][name] for r in records]
            out[f"{name}.ber"] = sum(d["bit_errors"] for d in rows) / sum(d["bits"] for d in rows)
            out[f"{name}.fer"] = sum(d["frame_errors"] for d in rows) / sum(d["frames"] for d in rows)
        return out

    def static_checks(self) -> list[Check]:
        """Logits of every decoder are finite on a probe batch."""
        checks = []
        for name, (decoder, code) in self.decoders.items():
            # stream (0,) is disjoint from estimate_ber's (3, point, chunk) streams
            spec = NoiseSpec.for_code(code, DECODE_EBN0, seed=sub_seed(self.seed, 0))
            batch = sample_batch(code, spec, 8, policy="random", stream=(0,))
            syn = list(batch.syndromes) if name == "crossed" else batch.syndromes[0]
            logits = decoder.logits_batch(batch.mag, syn).data
            checks.append(Check(f"{name} logits finite", np.isfinite(logits).all()))
        return checks

    @staticmethod
    def record_checks(record: dict) -> list[Check]:
        return []

    @staticmethod
    def compare(record: dict, ref: dict) -> list[Check]:
        checks = []
        for name, want in ref.items():
            got = record["decoders"][name]
            bit_slack = max(1.0, BIT_ERR_TOL * got["bits"])
            frame_slack = max(1.0, FRAME_ERR_TOL * got["frames"])
            ok = (abs(got["bit_errors"] - want["bit_errors"]) <= bit_slack
                  and abs(got["frame_errors"] - want["frame_errors"]) <= frame_slack)
            checks.append(Check(
                f"{name} BER/FER counts vs reference", ok,
                f"bit errors {got['bit_errors']} vs {want['bit_errors']}, "
                f"frame errors {got['frame_errors']} vs {want['frame_errors']}",
            ))
        return checks

    @staticmethod
    def same_result(a: dict, b: dict) -> bool:
        return Decode.reference(a) == Decode.reference(b)


class DecodePaper(Decode):
    """CrossMPT and ECCT at paper shape (N=6, d=128)."""

    name = "decode-paper"
    n_layers, embed_dim = 6, 128
    unit_frames, smoke_frames = 8, 2


class DecodeDesk(Decode):
    """CrossMPT, ECCT and CrossED p=2 at desk shape (N=2, d=32)."""

    name = "decode-desk"
    n_layers, embed_dim = 2, 32
    unit_frames, smoke_frames = 64, 8

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        super().__init__(seed, smoke, workdir)
        base = ModelConfig(variant=Variant.FCROSSMPT, n_layers=self.n_layers, embed_dim=self.embed_dim)
        ens = build_ensemble(self.code, 2, base=base)
        model = CrossEDModel(ens, seed=MODEL_SEED, infer_only=True)
        self.decoders["crossed"] = (model, model.code)


class BpEval:
    """estimate_ber with sum-product BP (20 iterations) at 3, 4 and 5 dB, each
    point run to StopRule(min_errors=100); one call per unit."""

    name = "bp-eval"
    chunk_frames = 512  # estimate_ber's default

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.code = get_code(DECODE_CODE)
        self.decoder = BpDecoder(self.code, BpConfig(max_iters=20, algorithm="sum_product"))
        self.points = (3.0, 4.0) if smoke else (3.0, 4.0, 5.0)
        self.stop = StopRule(min_errors=20 if smoke else 100)

    def finish_setup(self) -> None:
        pass

    def unit(self, k: int) -> dict:
        """One estimate_ber call. A thin wrapper at evaluation's binding of
        bp_decode_batch keeps the iteration counts that BpDecoder drops."""
        stats = {"frames": 0, "frame_iters": 0, "converged": 0}
        site = evaluation.bp_decode_batch

        def counted(*args, **kwargs):
            out, iters, converged = site(*args, **kwargs)
            stats["frames"] += len(iters)
            stats["frame_iters"] += int(iters.sum())
            stats["converged"] += int(converged.sum())
            return out, iters, converged

        evaluation.bp_decode_batch = counted
        try:
            t0 = time.perf_counter()
            report = evaluation.estimate_ber(
                self.decoder, self.code, list(self.points), self.stop, seed=sub_seed(self.seed, k)
            )
            seconds = time.perf_counter() - t0
        finally:
            evaluation.bp_decode_batch = site
        rows = [
            {"ebn0_db": row.ebn0_db, "frames": row.frames_sent, "bits": row.bits_sent,
             "bit_errors": row.bit_errors, "frame_errors": row.frame_errors}
            for row in report.rows
        ]
        return {"seconds": seconds, "rows": rows, **stats}

    def operations(self, record: dict) -> int:
        return record["frames"] // self.chunk_frames

    def metrics(self, records: list[dict]) -> dict:
        bp_rate = sum(r["frames"] for r in records) / sum(r["seconds"] for r in records)
        return {
            "frames_per_s": bp_rate,
            "bp_frames_per_s": bp_rate,
            "ber_time_to_stop_s": statistics.median(r["seconds"] for r in records),
            "ber_calls": len(records),
        }

    @staticmethod
    def reference(record: dict) -> dict:
        return {
            "rows": [
                {key: row[key] for key in ("ebn0_db", "frames", "bit_errors", "frame_errors")}
                for row in record["rows"]
            ],
            "frames": record["frames"],
            "frame_iters": record["frame_iters"],
            "converged": record["converged"],
        }

    def band_values(self, records: list[dict]) -> dict:
        frames = sum(r["frames"] for r in records)
        out = {
            "iters_mean": sum(r["frame_iters"] for r in records) / frames,
            "converged_frac": sum(r["converged"] for r in records) / frames,
        }
        for p, ebn0 in enumerate(self.points):
            bits = sum(r["rows"][p]["bits"] for r in records)
            out[f"ber@{ebn0:g}dB"] = sum(r["rows"][p]["bit_errors"] for r in records) / bits
        return out

    def static_checks(self) -> list[Check]:
        return []

    @staticmethod
    def record_checks(record: dict) -> list[Check]:
        return []

    @staticmethod
    def compare(record: dict, ref: dict) -> list[Check]:
        got = BpEval.reference(record)
        return [
            Check("BER/FER counts vs reference (exact)", got["rows"] == ref["rows"]),
            Check(
                "bp.iters_mean and bp.converged_frac vs reference (exact)",
                all(got[key] == ref[key] for key in ("frames", "frame_iters", "converged")),
                f"iterations {got['frame_iters']}/{got['frames']} vs "
                f"{ref['frame_iters']}/{ref['frames']}, converged {got['converged']} vs "
                f"{ref['converged']}",
            ),
        ]

    @staticmethod
    def same_result(a: dict, b: dict) -> bool:
        return BpEval.reference(a) == BpEval.reference(b)


WORKLOADS = {w.name: w for w in (TrainDesk, DecodePaper, DecodeDesk, BpEval)}
