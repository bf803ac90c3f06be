#!/usr/bin/env python3
"""crossmpt benchmark: desk training, neural decoding at two shapes and BP
evaluation, with an in-command correctness gate and traced per-layer timings.

Usage (from the root of a checkout):

    python3 bench/run.py                      # every workload, each in its own process
    python3 bench/run.py --workload decode-desk --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload bp-eval --trace 1     # per-layer numbers
    python3 bench/run.py --workload train-desk --record-references 0-9

Workloads and metrics are declared in BENCHMARK.json. A run builds the
workload (set-up), runs timed units for about --seconds seconds, checks the
outputs against bench/references.json, and prints a table followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run repeats its units with
every layer traced and the metrics are the per-layer ones. The program under
test is imported from src/ of the checkout and is never modified; OpenBLAS is
pinned to one thread and evaluation runs with workers=1.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"
TMP_DIR = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
BAND_SD = 6.0  # band half-width in standard deviations across reference seeds
BAND_REL = 0.05  # ... and at least this share of the band centre
REFERENCES_ABOUT = (
    "Results of unit 0 of a run for each recorded seed, written by "
    "`bench/run.py --workload W --record-references SEEDS [--smoke]`. A run whose seed is "
    "recorded must reproduce them: train-desk epoch loss within a relative 1e-6; decode "
    "bit errors within 0.1% of the bits and frame errors within 1% of the frames (at "
    "least 1); bp-eval counts, iterations and convergence exactly. Every run's values, "
    "aggregated over its units, must also lie in 'band': the mean over the recorded seeds "
    "+/- max(6 standard deviations, 5% of the mean), clipped at 0."
)


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Put src/ first on the path and make sure crossmpt comes from there."""
    if not (SRC / "crossmpt" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {SRC}/crossmpt")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import crossmpt

    if Path(crossmpt.__file__).resolve().parent != SRC / "crossmpt":
        raise SystemExit(f"bench: crossmpt imported from {crossmpt.__file__}, not {SRC}")


# --------------------------------------------------------------------- environment


def _blas() -> dict:
    """numpy's BLAS and the number of threads it runs."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def environment(seed: int, units: int, smoke: bool) -> dict:
    import numpy as np
    import scipy

    from workloads import MODEL_SEED, sub_seed

    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "commit": _commit(),
        "seed": seed,
        "unit_seeds": [sub_seed(seed, k) for k in range(units)],
        "model_init_seed": MODEL_SEED,
        "workers": 1,
        "smoke": smoke,
    }


# --------------------------------------------------------------------- set-up


def setup_probe(workload: str, seed: int, smoke: bool) -> None:
    """Child process: imports, registry load, model/mask/graph build (and for
    train-desk train() up to its first step); prints the elapsed seconds."""
    _import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, smoke, Path.cwd())
    wl.finish_setup()
    print(repr(time.perf_counter() - _T0))


def setup_times(workload: str, seed: int, smoke: bool, probes: int) -> list[float]:
    """Set-up times of `probes` fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    times = []
    for _ in range(probes):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


# --------------------------------------------------------------------- timed units


def run_units(wl, budget_s: float):
    """Units k = 0, 1, ... while another one as long as the longest so far
    would end within the budget (at least one). Returns (records, errors)."""
    records, errors = [], []
    t0 = time.perf_counter()
    longest = 0.0
    while True:
        u0 = time.perf_counter()
        try:
            records.append(wl.unit(len(records)))
        except Exception:  # a failed unit is counted, reported and ends the loop
            errors.append(traceback.format_exc())
            break
        now = time.perf_counter()
        longest = max(longest, now - u0)
        if now - t0 + longest > budget_s:
            break
    return records, errors


# --------------------------------------------------------------------- references


def load_references(path: Path, workload: str, smoke: bool) -> dict:
    data = json.loads(path.read_text())
    return data["workloads"].get(workload, {}).get("smoke" if smoke else "full", {})


def band(values: list[float]) -> list[float]:
    centre = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    half = max(BAND_SD * sd, BAND_REL * abs(centre))
    return [max(0.0, centre - half), centre + half]


def record_references(workload: str, seeds: list[int], smoke: bool, path: Path) -> None:
    from workloads import WORKLOADS

    per_seed, values = {}, []
    for seed in seeds:
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
            wl = WORKLOADS[workload](seed, smoke, Path(tmp))
            rec = wl.unit(0)
        per_seed[str(seed)] = wl.reference(rec)
        values.append(wl.band_values([rec]))
        print(f"seed {seed}: {json.dumps(per_seed[str(seed)])}", flush=True)
    entry = {
        "seeds": per_seed,
        "band": {q: band([v[q] for v in values]) for q in values[0]},
    }
    data = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    data["about"] = REFERENCES_ABOUT
    data["workloads"].setdefault(workload, {})["smoke" if smoke else "full"] = entry
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def gate(wl, seed: int, records: list[dict], refs: dict):
    """Correctness checks on a run's records."""
    from workloads import Check, check_band

    checks = []
    for rec in records:
        checks += wl.record_checks(rec)
    if not refs:
        checks.append(Check("references recorded for this workload", False))
        return checks
    if records and str(seed) in refs["seeds"]:
        checks += wl.compare(records[0], refs["seeds"][str(seed)])
    if records:
        for name, value in wl.band_values(records).items():
            checks.append(check_band(name, value, refs["band"][name]))
    return checks


# --------------------------------------------------------------------- one workload


def merge_checks(checks: list) -> list:
    """One check per name: the first failing instance, else the first one."""
    merged = {}
    for c in checks:
        seen = merged.get(c.name)
        if seen is None or (seen.ok and not c.ok):
            merged[c.name] = c
    return list(merged.values())


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def run_workload(args) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    refs = load_references(Path(args.references), args.workload, args.smoke)
    TMP_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR))
    os.chdir(workdir)  # train() writes to the working directory when not given out_dir
    try:
        # set-up probes before and after the timed units, so that their median
        # samples the machine over the whole run
        probes = [] if args.trace else setup_times(
            args.workload, args.seed, args.smoke, SETUP_PROBES // 2 + 1)
        wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir)
        checks = wl.static_checks()
        layer = {}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                with tracer.root("bench.setup"):
                    traced_wl = WORKLOADS[args.workload](args.seed, args.smoke, workdir / "traced")
            finally:
                tracer.restore()
            pairs, errors = run_units(Paired(wl, traced_wl, tracer), budget_s=args.seconds)
            records = [p["untraced"] for p in pairs]
            traced = [p["traced"] for p in pairs]
        else:
            records, errors = run_units(wl, budget_s=args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(wl.operations(r) for r in records)
        if args.trace and pairs:
            attempted += sum(wl.operations(r) for r in traced)
            overhead = sum(p["traced_s"] for p in pairs) / sum(p["untraced_s"] for p in pairs) - 1
            checks += [_same(wl, a, b) for a, b in zip(records, traced)]
            layer = layer_metrics(tracer, wl, traced, overhead)
            checks.append(_accounted(layer))
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz")
        elif not args.trace:
            probes += setup_times(args.workload, args.seed, args.smoke, SETUP_PROBES // 2)
        checks += gate(wl, args.seed, records, refs) if records else []
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    checks = merge_checks(checks)
    failed = sum(not c.ok for c in checks) + len(errors)
    attempted += len(checks) + len(errors)
    measured = wl.metrics(records) if records else {}
    setup_s = statistics.median(probes) if probes else None
    measured.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb, failed_frac=failed / attempted)

    print(f"# crossmpt benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# env " + json.dumps(environment(args.seed, len(records), args.smoke)))
    for err in errors:
        print("# unit raised:\n" + err.rstrip(), file=sys.stderr)
    for c in checks:
        print(f"# check {'ok  ' if c.ok else 'FAIL'} {c.name}" + (f": {c.detail}" if c.detail else ""))
    for name, value in measured.items():
        if name not in units:  # sample counts behind the medians
            print(f"# {name} {value}")
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    shown = {**measured, **layer}
    for name in dict.fromkeys(wanted + [n for n in measured if n in units]):
        if name not in wanted and shown.get(name) is None:
            continue
        print(f"{name:34s} {_fmt(shown.get(name, 0.0)):>14s} {units[name]}")
    metrics = {
        name: {"value": shown.get(name, 0.0), "unit": units[name]} for name in wanted
    }
    correct = failed == 0 and bool(records)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


class Paired:
    """Runs each unit untraced and then traced, so that both halves of the
    tracing-overhead ratio see the same machine state."""

    def __init__(self, plain, traced, tracer):
        self.plain, self.traced, self.tracer = plain, traced, tracer

    def unit(self, k: int) -> dict:
        t0 = time.perf_counter()
        plain = self.plain.unit(k)
        untraced_s = time.perf_counter() - t0
        self.tracer.install()
        try:
            t1 = time.perf_counter()
            with self.tracer.root("bench.loop"):
                traced = self.traced.unit(k)
            traced_s = time.perf_counter() - t1
        finally:
            self.tracer.restore()
        return {"untraced": plain, "traced": traced, "untraced_s": untraced_s, "traced_s": traced_s}


def _same(wl, a, b):
    from workloads import Check

    return Check("traced units reproduce the untraced results", wl.same_result(a, b))


def _accounted(layer: dict):
    """The per-layer self times and the unattributed rest add up to the
    traced wall time, so no span escapes the metric table."""
    from tracing import SELF_TIME_METRICS
    from workloads import Check

    names = list(SELF_TIME_METRICS) + [
        "training.setup_self_s", "training.loop_self_s", "trace.unattributed_s"]
    total = sum(layer[n] for n in names)
    wall = layer["trace.wall_s"]
    return Check("per-layer self times account for the traced wall time",
                 abs(total - wall) <= 1e-6 * max(wall, 1.0), f"{total:.6f} s of {wall:.6f} s")


def layer_metrics(tracer, wl, traced: list[dict], overhead: float) -> dict:
    """Per-layer numbers from the traced units."""
    from crossmpt.codes import get_code
    from crossmpt.evaluation import flops_estimate

    out = tracer.layer_metrics()
    c = tracer.counters
    out["trace_overhead_frac"] = overhead
    # per step (training) or per decoded frame (neural decoding)
    per = 0
    gflop = 0.0
    if wl.name == "train-desk":
        per = sum(r["steps"] for r in traced)
        code = get_code(wl.cfg.codes[0])
        gflop = per * wl.cfg.batch_size * flops_estimate(wl.cfg.model_config(), code, "crossmpt") / 1e9
    elif wl.name.startswith("decode"):
        per = sum(d["frames"] for r in traced for d in r["decoders"].values())
        for name in ("crossmpt", "ecct"):
            model = wl.decoders[name][0]
            frames = sum(r["decoders"][name]["frames"] for r in traced)
            gflop += frames * flops_estimate(model.cfg, wl.code, name) / 1e9
    out["autodiff.calls"] = c["autodiff.calls"] / per if per else 0.0
    out["autodiff.nodes"] = c["autodiff.nodes"] / per if per else 0.0
    out["models.analytic_gflop"] = gflop
    forward_s = tracer.inclusive_time("models.forward_arrays")
    out["models.analytic_gflop_per_s"] = gflop / forward_s if forward_s else 0.0
    out["masks.build.calls"] = c["masks.build.calls"]
    out["channel.sample_batch.frames"] = c["channel.sample_batch.frames"]
    out["checkpoint.bytes"] = c["checkpoint.bytes"]
    out["evaluation.chunks"] = tracer.count("channel.sample_batch", "evaluation.estimate_ber")
    out["bp.loop_iters"] = c["bp.loop_iters"]
    if c["bp.frames"]:
        out["bp.useful_ratio"] = c["bp.frame_iters"] / c["bp.slot_iters"]
        out["bp.iters_mean"] = c["bp.frame_iters"] / c["bp.frames"]
        out["bp.converged_frac"] = c["bp.converged"] / c["bp.frames"]
    return out


# --------------------------------------------------------------------- all workloads


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics table."""
    status = 0
    for name in (w["name"] for w in _spec()["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--references", args.references] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
    return status


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny lengths, for tests")
    parser.add_argument("--references", default=str(REFERENCES))
    parser.add_argument("--record-references", metavar="SEEDS",
                        help="record reference results for seeds such as 0-9 and exit")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    _import_program()
    if args.record_references:
        TMP_DIR.mkdir(exist_ok=True)
        record_references(args.workload, _seeds(args.record_references), args.smoke,
                          Path(args.references))
        return 0
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
