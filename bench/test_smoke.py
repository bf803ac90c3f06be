"""Smoke test of the benchmark at tiny lengths.

Run from the root of a checkout:  python3 -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# metrics named after one workload's work, printed by that workload's runs
OWN_METRICS = {
    "train-desk": ["train_samples_per_s", "train_step_p50_ms", "train_step_p90_ms"],
    "decode-paper": ["crossmpt_frames_per_s", "ecct_frames_per_s"],
    "decode-desk": ["crossmpt_frames_per_s", "ecct_frames_per_s", "crossed_frames_per_s"],
    "bp-eval": ["bp_frames_per_s", "ber_time_to_stop_s"],
}


def bench(workload, trace=0, *extra, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def printed_units(stdout):
    table = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            table[parts[0]] = parts[2]
    return table


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    out = result(done)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in out["metrics"].items()
    }
    table = printed_units(done.stdout)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name in [m["name"] for m in declared] + OWN_METRICS[workload] + ["failed_frac"]:
        assert table.get(name) == units[name], name
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())
    else:
        assert out["metrics"]["trace.wall_s"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_trips_the_gate(workload, tmp_path):
    refs = json.loads((BENCH / "references.json").read_text())
    record = refs["workloads"][workload]["smoke"]["seeds"]["0"]

    def corrupt(node):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                node[key] = value * 1.5 + 1000
                return True
            if isinstance(value, (dict, list)) and corrupt(value):
                return True
        return False

    assert corrupt(record)
    path = tmp_path / "references.json"
    path.write_text(json.dumps(refs))
    done = bench(workload, 0, "--references", str(path))
    assert done.returncode != 0
    out = result(done)
    assert out["correct"] is False and out["failed"] >= 1
    assert "# check FAIL" in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("bp-eval", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_patches_every_import_site_and_restores_them():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    try:
        import crossmpt
        from crossmpt import autodiff, evaluation, training
        from tracing import Tracer

        originals = {
            (mod, attr): getattr(mod, attr)
            for mod in (crossmpt, autodiff, evaluation, training)
            for attr in dir(mod)
            if callable(getattr(mod, attr))
        }
        backward = autodiff.Tensor.backward
        tracer = Tracer()
        tracer.install()
        try:
            for site, attr in [(training, "sample_batch"), (evaluation, "sample_batch"),
                               (training, "forward_arrays"), (training, "crossed_forward"),
                               (evaluation, "bp_decode_batch"), (training, "save_checkpoint"),
                               (crossmpt, "train"), (autodiff, "gelu")]:
                assert getattr(site, attr) is not originals[(site, attr)], attr
            assert autodiff.Tensor.backward is not backward
        finally:
            tracer.restore()
        for (mod, attr), fn in originals.items():
            assert getattr(mod, attr) is fn, attr
        assert autodiff.Tensor.backward is backward
    finally:
        del sys.path[:2]
