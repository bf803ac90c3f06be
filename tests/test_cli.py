import hashlib
import io
import json
import logging
import pathlib
import re
import shutil
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import rewrite_checkpoint_header
from crossmpt import evaluation
from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.checkpoint import load_checkpoint
from crossmpt.cli import _decoder_from_checkpoint, main
from crossmpt.codes import dense_text_dumps, get_code, load_code, registry_hash
from crossmpt.ensemble import build_ensemble
from crossmpt.gf2 import BinaryMatrix
from test_checkpoint import _rewrite_arrays, _rewrite_header


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, [str(a) for a in args], catch_exceptions=False)


def same_and_reversed_pcm_files(tmp_path, name):
    """`<name>.txt` files holding the registry PCM and its column reversal."""
    pcm = get_code(name).pcm
    paths = {}
    for tag, bits in (("same", pcm.bits), ("rev", pcm.bits[:, ::-1])):
        paths[tag] = tmp_path / tag / f"{name}.txt"
        paths[tag].parent.mkdir()
        paths[tag].write_text(dense_text_dumps(BinaryMatrix(bits)))
    return paths


class TestCodesCommands:
    def test_list_shows_registry(self, runner):
        result = invoke(runner, "codes", "list")
        assert result.exit_code == 0
        assert "bch_63_45" in result.output
        assert "ldpc_121_80" in result.output

    def test_validate_all(self, runner):
        result = invoke(runner, "codes", "validate")
        assert result.exit_code == 0
        assert result.output.count(": ok") == 11


class TestTrainCommand:
    def test_smoke_train_writes_artifacts(self, runner, tmp_path):
        out = tmp_path / "run"
        result = invoke(
            runner, "train", "--code", "hamming_7_4", "--variant", "crossmpt",
            "--n-layers", 1, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 5,
            "--batch-size", 8, "--seed", 1, "--out", out,
        )
        assert result.exit_code == 0, result.output
        assert (out / "checkpoint_final.npz").exists()
        assert (out / "training_log.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["code_hashes"]["hamming_7_4"]
        assert manifest["config"]["epochs"] == 1

    def test_missing_code_is_usage_error(self, runner):
        result = runner.invoke(main, ["train", "--variant", "crossmpt"])
        assert result.exit_code == 2
        assert "missing code" in result.output

    def test_unknown_code_is_usage_error(self, runner):
        result = runner.invoke(main, ["train", "--code", "bch_9_9"])
        assert result.exit_code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_failure_exits_3(self, runner, tmp_path):
        result = runner.invoke(main, [
            "train", "--code", "hamming_7_4", "--variant", "crossmpt", "--n-layers", "1",
            "--dim", "8", "--epochs", "1", "--batches-per-epoch", "50", "--batch-size", "8",
            "--lr0", "1e200", "--lr-min", "1e198", "--out", str(tmp_path / "nan"),
        ])
        assert result.exit_code == 3
        assert "numeric failure" in result.output

    def test_config_file_keys_hold_unless_a_flag_overrides_them(self, runner, tmp_path):
        config = tmp_path / "mix.cfg"
        config.write_text(
            "codes = bch_15_7, hamming_7_4\nvariant = fcrossmpt\nn_layers = 1\n"
            "embed_dim = 8\nepochs = 1\nbatches_per_epoch = 2\nbatch_size = 4\n"
        )
        result = invoke(runner, "train", "--config", config, "--epochs", 2, "--out", tmp_path / "a")
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["config"]["variant"] == "fcrossmpt"
        assert manifest["config"]["epochs"] == 2
        result = runner.invoke(main, ["train", "--config", str(config), "--variant", "crossmpt",
                                      "--out", str(tmp_path / "b")])
        assert result.exit_code == 2 and "multi-code" in result.output

    def test_multicode_foundation_training(self, runner, tmp_path):
        out = tmp_path / "multi"
        result = invoke(
            runner, "train", "--codes", "bch_63_45,ldpc_49_24", "--variant", "fcrossmpt",
            "--n-layers", 1, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 4,
            "--batch-size", 8, "--out", out,
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["codes"] == ["bch_63_45", "ldpc_49_24"]


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ck")
    runner = CliRunner()
    result = runner.invoke(main, [
        "train", "--code", "bch_15_7", "--variant", "fcrossmpt", "--n-layers", "1",
        "--dim", "8", "--epochs", "1", "--batches-per-epoch", "5", "--batch-size", "8",
        "--seed", "2", "--out", str(out),
    ], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return out / "checkpoint_final.npz"


class TestEvalCommand:
    def test_bp_eval_writes_rows(self, runner, tmp_path):
        out = tmp_path / "bp"
        result = invoke(
            runner, "eval", "--code", "ldpc_121_80", "--decoder", "bp", "--iters", 20,
            "--ebn0", "3,4,5,6", "--min-errors", 5, "--max-bits", 40000, "--out", out,
        )
        assert result.exit_code == 0, result.output
        lines = (out / "ber_report.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 4 SNR rows

    def test_uncoded_eval_matches_closed_form(self, runner, tmp_path):
        out = tmp_path / "unc"
        result = invoke(
            runner, "eval", "--code", "ldpc_32_16", "--decoder", "uncoded",
            "--ebn0", "4", "--min-errors", 2000, "--max-bits", 300000, "--out", out,
        )
        assert result.exit_code == 0, result.output
        row = (out / "ber_report.csv").read_text().strip().splitlines()[1].split(",")
        ber, lo, hi = float(row[5]), float(row[8]), float(row[9])
        from crossmpt.evaluation import uncoded_bpsk_ber
        assert lo <= uncoded_bpsk_ber(4.0, 0.5) <= hi

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_ebn0_points_are_the_noiseless_and_pure_noise_limits(self, runner, tmp_path):
        out = tmp_path / "limits"
        result = invoke(
            runner, "eval", "--code", "hamming_7_4", "--decoder", "uncoded",
            "--ebn0", "inf,-inf", "--max-bits", 700, "--out", out,
        )
        assert result.exit_code == 0, result.output
        rows = [line.split(",") for line in (out / "ber_report.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["inf", "-inf"]
        assert rows[0][2] == "0" and int(rows[1][2]) > 0

    def test_foundation_checkpoint_decodes_unseen_code(self, runner, tmp_path, tiny_checkpoint):
        out = tmp_path / "xfer"
        result = invoke(
            runner, "eval", "--code", "hamming_7_4", "--checkpoint", tiny_checkpoint,
            "--ebn0", "4", "--min-errors", 5, "--max-bits", 3000, "--out", out,
        )
        assert result.exit_code == 0, result.output
        assert (out / "ber_report.csv").exists()

    def test_diverged_checkpoint_exits_3(self, runner, tmp_path, tiny_checkpoint):
        data = dict(np.load(tiny_checkpoint, allow_pickle=False))
        data["param:head.fc.b"] = np.full_like(data["param:head.fc.b"], np.nan)
        poisoned = tmp_path / "nan.npz"
        np.savez(poisoned, **data)
        result = runner.invoke(main, [
            "eval", "--code", "bch_15_7", "--checkpoint", str(poisoned), "--ebn0", "4",
            "--min-errors", "5", "--max-bits", "3000", "--out", str(tmp_path / "nan_eval"),
        ])
        assert result.exit_code == 3, result.output
        assert "numeric failure" in result.output
        assert not (tmp_path / "nan_eval" / "ber_report.csv").exists()

    def test_rerun_is_bitwise_identical(self, runner, tmp_path):
        # -v logs one progress line per point to stderr and changes no output
        outs, logs = [], []
        for tag, flags in (("a", []), ("b", ["-v"])):
            out = tmp_path / tag
            result = invoke(
                runner, *flags, "eval", "--code", "hamming_7_4", "--decoder", "uncoded",
                "--ebn0", "3,5", "--min-errors", 50, "--max-bits", 30000,
                "--seed", 9, "--out", out, "--bitwise",
            )
            outs.append(out)
            logs.append(result.stderr)
        for name in ("ber_report.csv", "bitwise.csv", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        assert logs[0] == ""
        rows = (outs[1] / "ber_report.csv").read_text().splitlines()[1:]
        lines = logs[1].splitlines()
        assert len(lines) == len(rows) == 2
        for line, row in zip(lines, rows):
            ebn0, _, bit_errors, frames = row.split(",")[:4]
            assert re.fullmatch(
                rf"crossmpt\.evaluation: uncoded hamming_7_4 eb/n0 {float(ebn0):g} dB: "
                rf"{frames} frames, {bit_errors} bit errors, \d+ frames/s", line
            ), line

    def test_verbose_prints_each_line_once_and_restores_the_logger(self, runner, tmp_path, caplog):
        # caplog's handler on the root logger stands for an embedding program's
        logger = logging.getLogger("crossmpt")
        logger.setLevel(logging.WARNING)
        try:
            result = invoke(
                runner, "-v", "eval", "--code", "hamming_7_4", "--decoder", "uncoded",
                "--ebn0", "3,5", "--min-errors", 50, "--max-bits", 30000, "--out", tmp_path,
            )
            assert len(result.stderr.splitlines()) == 2
            assert not [r for r in caplog.records if r.name.startswith("crossmpt")]
            assert logger.level == logging.WARNING and logger.propagate
            assert not logger.handlers
        finally:
            logger.setLevel(logging.NOTSET)

    def test_requires_exactly_one_decoder_source(self, runner):
        result = runner.invoke(main, ["eval", "--code", "hamming_7_4"])
        assert result.exit_code == 2

    def test_code_specific_checkpoint_refuses_other_code(self, runner, tmp_path):
        train_out = tmp_path / "t"
        invoke(
            runner, "train", "--code", "hamming_7_4", "--variant", "crossmpt",
            "--n-layers", 1, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 3,
            "--batch-size", 8, "--out", train_out,
        )
        result = runner.invoke(main, [
            "eval", "--code", "bch_15_7", "--checkpoint",
            str(train_out / "checkpoint_final.npz"), "--ebn0", "4",
            "--min-errors", "2", "--max-bits", "1000", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2
        assert "code-specific" in result.output

    def test_code_specific_checkpoint_refuses_pcm_file_with_other_matrix(self, runner, tmp_path):
        train_out = tmp_path / "t"
        invoke(
            runner, "train", "--code", "hamming_7_4", "--variant", "crossmpt",
            "--n-layers", 1, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 3,
            "--batch-size", 8, "--out", train_out,
        )
        files = same_and_reversed_pcm_files(tmp_path, "hamming_7_4")

        def run(tag):
            return runner.invoke(main, [
                "eval", "--pcm-file", str(files[tag]), "--checkpoint",
                str(train_out / "checkpoint_final.npz"), "--ebn0", "4",
                "--min-errors", "2", "--max-bits", "1000", "--out", str(tmp_path / f"eval_{tag}"),
            ])

        assert run("same").exit_code == 0
        result = run("rev")
        assert result.exit_code == 2, result.output
        assert "hamming_7_4" in result.output
        assert not (tmp_path / "eval_rev" / "ber_report.csv").exists()

    def test_ensemble_reuses_stored_branches_only_for_the_same_pcm(self, runner, tmp_path):
        train_out = tmp_path / "t"
        result = invoke(
            runner, "train", "--code", "hamming_7_4", "--variant", "crossed", "--p", 2,
            "--n-layers", 1, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 2,
            "--batch-size", 8, "--out", train_out,
        )
        assert result.exit_code == 0, result.output
        path = str(train_out / "checkpoint_final.npz")
        ck = load_checkpoint(path)
        codes = {tag: load_code(f) for tag, f in same_and_reversed_pcm_files(tmp_path, "hamming_7_4").items()}

        assert _decoder_from_checkpoint(path, codes["same"]).ens.pcms == tuple(ck.branch_pcms)
        rebuilt = _decoder_from_checkpoint(path, codes["rev"]).ens.pcms
        assert rebuilt != tuple(ck.branch_pcms)
        assert rebuilt == build_ensemble(codes["rev"], 2, base=ck.model_cfg).pcms


class TestAnalyzeCommand:
    def test_bch_63_45_reports_published_densities(self, runner, tmp_path):
        out = tmp_path / "an"
        result = invoke(runner, "analyze", "--code", "bch_63_45", "--out", out)
        assert result.exit_code == 0, result.output
        assert "32.45%" in result.output and "53.09%" in result.output
        assert "h > 2*h_tilde: True" in result.output
        assert "cross lower: True" in result.output
        csv_text = (out / "complexity.csv").read_text()
        assert "crossmpt" in csv_text and "ecct" in csv_text

    def test_ldpc_discrepancy_is_logged(self, runner, tmp_path):
        result = runner.invoke(
            main, ["analyze", "--code", "ldpc_121_70", "--out", str(tmp_path / "an2")],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        assert "density discrepancy" in result.output

    def test_toy_pcm_file_hand_count(self, runner, tmp_path):
        # 3x6 toy: hand-counted h_tilde = 9 ones; ecct mask counted by hand below
        h = BinaryMatrix([
            [1, 1, 0, 1, 0, 0],
            [0, 1, 1, 0, 1, 0],
            [1, 0, 0, 0, 1, 1],
        ])
        pcm = tmp_path / "toy.txt"
        pcm.write_text(dense_text_dumps(h))
        out = tmp_path / "toy_out"
        result = invoke(runner, "analyze", "--pcm-file", pcm, "--out", out)
        assert result.exit_code == 0, result.output
        rows = (out / "complexity.csv").read_text().strip().splitlines()[1:]
        cross_row = rows[0].split(",")
        assert cross_row[0] == "crossmpt"
        assert int(cross_row[2]) == 9  # popcount by hand
        assert int(cross_row[1]) == 2 * 6 * 3


class TestDumpAttentionCommand:
    def test_forced_single_bit_error_dump(self, runner, tmp_path, tiny_checkpoint):
        out = tmp_path / "dump"
        result = invoke(
            runner, "dump-attention", "--checkpoint", tiny_checkpoint, "--code", "ldpc_32_16",
            "--flip-bit", 0, "--out", out,
        )
        assert result.exit_code == 0, result.output
        files = sorted(p.name for p in out.glob("layer*.csv"))
        # 1 layer x (2 maps + 2 column sums)
        assert len(files) == 4
        arr = np.loadtxt(out / "layer01_mag_to_syn.csv", delimiter=",")
        assert arr.shape == (32, 16)

    def test_layer_filter_limits_files(self, runner, tmp_path):
        train_out = tmp_path / "t"
        invoke(
            runner, "train", "--code", "hamming_7_4", "--variant", "crossmpt",
            "--n-layers", 3, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 3,
            "--batch-size", 8, "--out", train_out,
        )
        out = tmp_path / "d"
        result = invoke(
            runner, "dump-attention", "--checkpoint", train_out / "checkpoint_final.npz",
            "--code", "hamming_7_4", "--layers", "1..2", "--out", out,
        )
        assert result.exit_code == 0, result.output
        mag_files = sorted(p.name for p in out.glob("layer*_mag_to_syn.csv"))
        assert len(mag_files) == 2

    def test_crossed_maps_are_named_by_branch_and_layer(self, runner, tmp_path):
        train_out = tmp_path / "t"
        invoke(
            runner, "train", "--code", "bch_15_7", "--variant", "crossed", "--p", 2,
            "--n-layers", 2, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 2,
            "--batch-size", 8, "--out", train_out,
        )
        out = tmp_path / "d"
        result = invoke(
            runner, "dump-attention", "--checkpoint", train_out / "checkpoint_final.npz",
            "--code", "bch_15_7", "--layers", "2..2", "--out", out,
        )
        assert result.exit_code == 0, result.output
        maps = ("mag_to_syn", "mag_to_syn_colsum", "syn_to_mag", "syn_to_mag_colsum")
        assert sorted(p.name for p in out.glob("*.csv")) == sorted(
            f"branch{j}_layer02_{name}.csv" for j in range(2) for name in maps
        )

    def test_no_error_mode_same_shapes(self, runner, tmp_path, tiny_checkpoint):
        out = tmp_path / "clean"
        result = invoke(
            runner, "dump-attention", "--checkpoint", tiny_checkpoint, "--code", "ldpc_32_16",
            "--ebn0", 6.0, "--out", out,
        )
        assert result.exit_code == 0, result.output
        arr = np.loadtxt(out / "layer01_mag_to_syn.csv", delimiter=",")
        assert arr.shape == (32, 16)
        assert len(list(out.glob("layer*.csv"))) == 4

    def test_noise_path_writes_the_dump_of_a_one_row_batch(self, runner, tmp_path, tiny_checkpoint):
        out = tmp_path / "noisy"
        result = invoke(
            runner, "dump-attention", "--checkpoint", tiny_checkpoint, "--code", "bch_15_7",
            "--ebn0", 5, "--seed", 2, "--out", out,
        )
        assert result.exit_code == 0, result.output
        code = get_code("bch_15_7")
        model = _decoder_from_checkpoint(str(tiny_checkpoint), code)
        expected = {}
        for stem, table in evaluation.dump_attention(model, sample_batch(code, NoiseSpec.for_code(code, 5.0, seed=2), 1)).items():
            text = io.BytesIO()
            np.savetxt(text, table, delimiter=",")
            expected[f"{stem}.csv"] = text.getvalue()
        assert len(expected) == 4
        assert {p.name: p.read_bytes() for p in out.glob("*.csv")} == expected

    def test_non_finite_logits_exit_3(self, runner, tmp_path, tiny_checkpoint):
        data = dict(np.load(tiny_checkpoint, allow_pickle=False))
        data["param:head.fc.b"] = np.full_like(data["param:head.fc.b"], np.nan)
        poisoned = tmp_path / "nan.npz"
        np.savez(poisoned, **data)
        out = tmp_path / "noise"
        result = runner.invoke(main, [
            "dump-attention", "--checkpoint", str(poisoned), "--code", "bch_15_7",
            "--ebn0", "4", "--out", str(out),
        ])
        assert result.exit_code == 3, result.output
        assert "numeric failure" in result.output
        assert not out.exists()

    def test_flip_position_out_of_range(self, runner, tmp_path, tiny_checkpoint):
        result = runner.invoke(main, [
            "dump-attention", "--checkpoint", str(tiny_checkpoint), "--code", "ldpc_32_16",
            "--flip-bit", "99", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2


class TestConfigurationErrorsExit2:
    """A configuration error exits 2 with one line naming the cause, not a
    traceback."""

    @staticmethod
    def assert_config_error(result, cause):
        assert result.exit_code == 2, (result.exit_code, result.output, result.exception)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and cause in errors[0], result.output
        assert "Traceback" not in result.output

    def test_validate_unknown_code(self, runner):
        result = runner.invoke(main, ["codes", "validate", "--code", "nope"])
        self.assert_config_error(result, "nope")

    def test_eval_missing_checkpoint(self, runner, tmp_path):
        result = runner.invoke(main, [
            "eval", "--checkpoint", str(tmp_path / "missing.npz"), "--code", "bch_15_7",
            "--ebn0", "4", "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "missing.npz")

    def test_dump_attention_missing_checkpoint(self, runner, tmp_path):
        result = runner.invoke(main, [
            "dump-attention", "--checkpoint", str(tmp_path / "missing.npz"),
            "--code", "bch_15_7", "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "missing.npz")

    def test_analyze_missing_pcm_file(self, runner, tmp_path):
        result = runner.invoke(main, [
            "analyze", "--pcm-file", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "o"),
        ])
        self.assert_config_error(result, "missing.txt")

    def test_train_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["train", "--config", str(tmp_path / "missing.cfg")])
        self.assert_config_error(result, "missing.cfg")

    def test_train_resume_from_missing_checkpoint(self, runner, tmp_path):
        result = runner.invoke(main, [
            "train", "--code", "hamming_7_4", "--n-layers", "1", "--dim", "8",
            "--resume", str(tmp_path / "missing.npz"), "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "missing.npz")

    def test_train_resume_with_changed_config(self, runner, tmp_path):
        args = ["train", "--code", "hamming_7_4", "--n-layers", "1", "--dim", "8",
                "--epochs", "1", "--batches-per-epoch", "1", "--batch-size", "4"]
        invoke(runner, *args, "--out", tmp_path / "first")
        result = runner.invoke(main, args[:-1] + [
            "8", "--resume", str(tmp_path / "first" / "checkpoint_final.npz"),
            "--out", str(tmp_path / "second"),
        ])
        self.assert_config_error(result, "batch_size")

    def test_eval_zero_bp_iterations(self, runner, tmp_path):
        result = runner.invoke(main, [
            "eval", "--code", "hamming_7_4", "--decoder", "bp", "--iters", "0",
            "--max-bits", "700", "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "--iters")

    def test_analyze_zero_layers(self, runner, tmp_path):
        result = runner.invoke(main, [
            "analyze", "--code", "hamming_7_4", "--n-layers", "0", "--out", str(tmp_path / "o"),
        ])
        self.assert_config_error(result, "--n-layers")

    @pytest.mark.parametrize("args,cause", [
        (["--code", "bch_15_7", "--heads", "3"], "heads"),
        (["--code", "bch_15_7", "--variant", "crossed", "--p", "9"], "p=9"),
        (["--codes", "bch_15_7,hamming_7_4", "--variant", "crossmpt"], "multi-code"),
        (["--code", "bch_9_9"], "bch_9_9"),
        (["--code", "hamming_7_4", "--ebn0-lo", "7", "--ebn0-hi", "3"], "ebn0_lo <= ebn0_hi"),
        (["--code", "hamming_7_4", "--ebn0-lo", "nan"], "ebn0_lo <= ebn0_hi"),
        (["--code", "hamming_7_4", "--ebn0-lo", "-inf"], "ebn0_lo <= ebn0_hi"),
        (["--code", "hamming_7_4", "--checkpoint-every", "-1"], "checkpoint_every"),
        (["--code", "hamming_7_4", "--codes", "bch_15_7", "--epochs", "1",
          "--batches-per-epoch", "1"], "--code or --codes"),
        (["--code", "hamming_7_4", "--variant", "crossmpt", "--p", "0"], "p=0"),
    ], ids=["heads", "crossed_p", "multi_code", "unknown_code", "ebn0_range", "ebn0_lo_nan",
            "ebn0_lo_minus_inf", "checkpoint_every", "code_and_codes", "p_outside_crossed"])
    def test_train_invalid_architecture(self, runner, tmp_path, args, cause):
        result = runner.invoke(main, ["train", *args, "--out", str(tmp_path / "out")])
        self.assert_config_error(result, cause)

    @pytest.mark.parametrize("command", [
        ["train", "--code", "hamming_7_4", "--seed", "-1"],
        ["train", "--config", "{config}"],
        ["eval", "--code", "hamming_7_4", "--decoder", "uncoded", "--ebn0", "3", "--seed", "-1"],
        ["dump-attention", "--checkpoint", "{checkpoint}", "--code", "ldpc_32_16", "--seed", "-1"],
    ], ids=["train", "train_config", "eval", "dump_attention"])
    def test_negative_seed(self, runner, tmp_path, tiny_checkpoint, command):
        # numpy seed sequences take no negative entries; refused before any output
        config = tmp_path / "seed.cfg"
        config.write_text("codes = hamming_7_4\nseed = -1\n")
        args = [a.format(config=config, checkpoint=tiny_checkpoint) for a in command]
        result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
        self.assert_config_error(result, "seed")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("norm_order", "post"), ("per_batch_ebn0", True), ("code_sampling", "proportional"),
        ("clip_norm", 1e300), ("ffn_expansion", 2),
    ])
    def test_removed_setting_in_checkpoint(self, runner, tmp_path, key, value):
        args = ["train", "--code", "hamming_7_4", "--n-layers", "1", "--dim", "8",
                "--epochs", "2", "--batches-per-epoch", "1", "--batch-size", "4"]
        invoke(runner, *args, "--out", tmp_path / "first")
        path = tmp_path / "old.npz"
        shutil.copy(tmp_path / "first" / "checkpoint_final.npz", path)
        rewrite_checkpoint_header(path, **{key: value})
        result = runner.invoke(main, [
            "eval", "--checkpoint", str(path), "--code", "hamming_7_4", "--ebn0", "4",
            "--max-bits", "700", "--out", str(tmp_path / "eval"),
        ])
        self.assert_config_error(result, key)
        result = runner.invoke(main, args + ["--resume", str(path), "--out", str(tmp_path / "second")])
        self.assert_config_error(result, key)

    @pytest.mark.parametrize("args,cause", [
        (["--ebn0", ""], "Eb/N0"),
        (["--ebn0", " , ", "--bitwise"], "Eb/N0"),
        (["--max-bits", "0"], "max_bits"),
        (["--min-errors", "-1"], "min_errors"),
        (["--min-errors", "0"], "min_errors"),
    ], ids=["ebn0_empty", "ebn0_empty_bitwise", "max_bits_0", "min_errors_negative",
            "min_errors_0"])
    def test_eval_empty_measurement(self, runner, tmp_path, args, cause):
        # a run that would send no bits is refused, not reported as error-free
        result = runner.invoke(main, [
            "eval", "--code", "hamming_7_4", "--decoder", "uncoded", *args,
            "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, cause)
        assert not (tmp_path / "out" / "ber_report.csv").exists()

    @pytest.mark.parametrize("decoder", ["uncoded", "bp"])
    def test_eval_nan_ebn0(self, runner, tmp_path, decoder):
        result = runner.invoke(main, [
            "eval", "--code", "hamming_7_4", "--decoder", decoder, "--ebn0", "nan",
            "--max-bits", "700", "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "--ebn0")

    def test_eval_nan_after_a_valid_point_is_refused_before_sampling(self, runner, tmp_path,
                                                                     monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a chunk was sampled before the Eb/N0 list was checked")

        monkeypatch.setattr(evaluation, "sample_batch", refuse)
        result = runner.invoke(main, [
            "eval", "--code", "hamming_7_4", "--decoder", "uncoded", "--ebn0", "3,nan",
            "--max-bits", "7000", "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "--ebn0")
        assert not (tmp_path / "out").exists()

    def test_eval_out_through_a_regular_file_is_refused_before_sampling(self, runner, tmp_path,
                                                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a chunk was sampled before --out was checked")

        monkeypatch.setattr(evaluation, "sample_batch", refuse)
        (tmp_path / "file").write_text("")
        result = runner.invoke(main, [
            "eval", "--code", "hamming_7_4", "--decoder", "uncoded", "--ebn0", "3",
            "--max-bits", "7000", "--out", str(tmp_path / "file" / "out"),
        ])
        self.assert_config_error(result, "cannot create output directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize("command", [
        ["analyze", "--code", "hamming_7_4"],
        ["build-ensemble", "--code", "hamming_7_4", "--p", "2"],
        ["train", "--code", "hamming_7_4", "--epochs", "1", "--batches-per-epoch", "1"],
    ], ids=["analyze", "build_ensemble", "train"])
    def test_out_through_a_regular_file(self, runner, tmp_path, command):
        (tmp_path / "file").write_text("")
        result = runner.invoke(main, [*command, "--out", str(tmp_path / "file" / "out")])
        self.assert_config_error(result, "cannot create output directory")

    def test_out_directory_that_cannot_be_made(self, runner, tmp_path, monkeypatch):
        def denied(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(pathlib.Path, "mkdir", denied)
        result = runner.invoke(main, ["analyze", "--code", "hamming_7_4", "--out", str(tmp_path / "out")])
        self.assert_config_error(result, "Permission denied")

    def test_eval_unseen_code_with_a_bit_in_no_check_is_refused_before_sampling(
        self, runner, tmp_path, tiny_checkpoint, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a chunk was sampled before the code was checked")

        monkeypatch.setattr(evaluation, "sample_batch", refuse)
        bits = np.array([[1, 1, 0, 1, 1, 0, 0, 0], [0, 1, 1, 0, 0, 1, 0, 0], [1, 0, 1, 0, 0, 0, 1, 0]])
        pcm_file = tmp_path / "zero_column.txt"
        pcm_file.write_text(dense_text_dumps(BinaryMatrix(bits)))
        result = runner.invoke(main, [
            "eval", "--pcm-file", str(pcm_file), "--checkpoint", str(tiny_checkpoint),
            "--ebn0", "4", "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "bit 7 of zero_column is in no parity check")

    def test_eval_bp_at_infinite_ebn0(self, runner, tmp_path):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, [
                "eval", "--code", "hamming_7_4", "--decoder", "bp", "--ebn0", "inf",
                "--max-bits", "700", "--out", str(tmp_path / "out"),
            ])
        self.assert_config_error(result, "BP needs a finite Eb/N0, got inf dB")
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("points", ["3,inf", "3,-inf", "-inf"])
    def test_eval_bp_refuses_an_infinite_point_before_decoding_any(
        self, runner, tmp_path, monkeypatch, points
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a chunk was sampled before the Eb/N0 list was checked")

        monkeypatch.setattr(evaluation, "sample_batch", refuse)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "eval", "--code", "hamming_7_4", "--decoder", "bp", "--ebn0", points, "--out", str(out),
        ])
        self.assert_config_error(result, "BP needs a finite Eb/N0")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["eval", "dump-attention"])
    def test_neural_decoder_refuses_minus_inf_before_sampling(
        self, runner, tmp_path, tiny_checkpoint, monkeypatch, command
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a chunk was sampled before the Eb/N0 was checked")

        monkeypatch.setattr(evaluation, "sample_batch", refuse)
        out = tmp_path / "out"
        ebn0 = "3,-inf" if command == "eval" else "-inf"
        result = runner.invoke(main, [
            command, "--checkpoint", str(tiny_checkpoint), "--code", "bch_15_7", "--ebn0", ebn0,
            "--out", str(out),
        ])
        self.assert_config_error(result, "a neural decoder needs Eb/N0 above -inf dB")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_neural_decoder_evaluates_the_noiseless_limit(self, runner, tmp_path, tiny_checkpoint):
        out = tmp_path / "out"
        result = invoke(
            runner, "eval", "--checkpoint", tiny_checkpoint, "--code", "bch_15_7", "--ebn0", "inf",
            "--max-bits", 1500, "--out", out,
        )
        assert result.exit_code == 0, result.output
        assert (out / "ber_report.csv").read_text().splitlines()[1].startswith("inf,")

    def test_dump_attention_nan_ebn0(self, runner, tmp_path, tiny_checkpoint):
        result = runner.invoke(main, [
            "dump-attention", "--checkpoint", str(tiny_checkpoint), "--code", "ldpc_32_16",
            "--ebn0", "nan", "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "--ebn0")

    @pytest.mark.parametrize("layers", ["one..two", "2..1", "0..1", "2..3"])
    def test_dump_attention_malformed_layers(self, runner, tmp_path, tiny_checkpoint, layers):
        result = runner.invoke(main, [
            "dump-attention", "--checkpoint", str(tiny_checkpoint), "--code", "ldpc_32_16",
            "--layers", layers, "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "--layers")

    @pytest.fixture(scope="class")
    def p3_checkpoint(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("p3")
        invoke(CliRunner(), "train", "--code", "bch_31_21", "--variant", "crossed", "--p", 3,
               "--n-layers", 1, "--dim", 8, "--epochs", 1, "--batches-per-epoch", 1,
               "--batch-size", 4, "--out", out)
        return out / "checkpoint_final.npz"

    @pytest.mark.parametrize("command", ["eval", "dump-attention"])
    def test_crossed_checkpoint_with_more_branches_than_the_code_takes(
        self, runner, tmp_path, p3_checkpoint, command
    ):
        # ldpc_32_16 takes at most ceil(32/16) = 2 branches
        extra = ["--ebn0", "4", "--max-bits", "640"] if command == "eval" else []
        result = runner.invoke(main, [
            command, "--checkpoint", str(p3_checkpoint), "--code", "ldpc_32_16", *extra,
            "--out", str(tmp_path / "out"),
        ])
        self.assert_config_error(result, "p=3 outside 1..2")

    # training args of `resumable_checkpoint`, which a resume must repeat
    RESUME_ARGS = ["train", "--code", "hamming_7_4", "--n-layers", "1", "--dim", "8", "--epochs", "2",
                   "--batches-per-epoch", "1", "--batch-size", "4", "--checkpoint-every", "1"]

    @pytest.fixture(scope="class")
    def resumable_checkpoint(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("resumable")
        invoke(CliRunner(), *self.RESUME_ARGS, "--out", out)
        return out / "checkpoint_epoch0001.npz"

    @staticmethod
    def _unreadable(kind, source, path):
        """Write at `path` a damaged copy of the checkpoint `source`."""
        if kind == "truncated":
            path.write_bytes(source.read_bytes()[:source.stat().st_size // 2])
        elif kind == "text":
            path.write_text("not an archive\n")
        elif kind == "npy":
            with path.open("wb") as fh:
                np.save(fh, np.ones(3))
        else:
            shutil.copy(source, path)
            if kind == "no_model":
                with np.load(path, allow_pickle=False) as archive:
                    header = json.loads(bytes(archive["__header__"]).decode())
                del header["model"]
                _rewrite_arrays(path, __header__=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8))
            elif kind == "unknown_variant":
                _rewrite_header(path, model={"variant": "transformer", "n_layers": 1, "embed_dim": 8, "heads": 1})
            else:
                _rewrite_arrays(path, **{"branch_pcm:x": np.eye(3, dtype=np.uint8)})
        return path

    @pytest.mark.parametrize("kind", ["truncated", "text", "npy", "no_model", "unknown_variant", "bad_member_name"])
    def test_unreadable_checkpoint(self, runner, tmp_path, resumable_checkpoint, kind):
        path = self._unreadable(kind, resumable_checkpoint, tmp_path / f"{kind}.npz")
        for command in (
            ["eval", "--checkpoint", str(path), "--code", "hamming_7_4", "--max-bits", "700"],
            ["dump-attention", "--checkpoint", str(path), "--code", "hamming_7_4"],
            [*self.RESUME_ARGS, "--resume", str(path)],
        ):
            result = runner.invoke(main, [*command, "--out", str(tmp_path / "out")])
            self.assert_config_error(result, path.name)
            assert not (tmp_path / "out").exists()

    def test_resume_without_optimizer_state(self, runner, tmp_path, resumable_checkpoint):
        path = tmp_path / "no_adam.npz"
        shutil.copy(resumable_checkpoint, path)
        _rewrite_header(path, adam_t=None)
        result = runner.invoke(main, [*self.RESUME_ARGS, "--resume", str(path), "--out", str(tmp_path / "out")])
        self.assert_config_error(result, "optimizer state")
        assert not (tmp_path / "out").exists()


class TestManifestIdentifiesInputs:
    @staticmethod
    def manifest(out):
        return json.loads((out / "manifest.json").read_text())

    def test_checkpoint_runs_record_the_checkpoint_hash(self, runner, tmp_path, tiny_checkpoint):
        # two different checkpoints under one file name
        other = tmp_path / "other" / tiny_checkpoint.name
        other.parent.mkdir()
        shutil.copy(tiny_checkpoint, other)
        _rewrite_arrays(other, **{"param:head.fc.b": np.ones(1)})
        hashes = set()
        for tag, path in (("a", tiny_checkpoint), ("b", other)):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            invoke(runner, "eval", "--checkpoint", path, "--code", "bch_15_7", "--max-bits", 1500,
                   "--out", tmp_path / f"eval_{tag}")
            invoke(runner, "dump-attention", "--checkpoint", path, "--code", "bch_15_7", "--out",
                   tmp_path / f"dump_{tag}")
            for run in ("eval", "dump"):
                assert self.manifest(tmp_path / f"{run}_{tag}")["config"]["checkpoint_sha256"] == digest
            hashes.add(digest)
        assert len(hashes) == 2

    def test_registry_runs_record_no_checkpoint(self, runner, tmp_path):
        invoke(runner, "eval", "--code", "hamming_7_4", "--decoder", "uncoded", "--max-bits", 700,
               "--out", tmp_path)
        manifest = self.manifest(tmp_path)
        assert "checkpoint_sha256" not in manifest["config"]
        assert manifest["code_hashes"] == {"hamming_7_4": registry_hash("hamming_7_4")}

    @pytest.mark.parametrize("name", ["bch_15_7", "my_hamming"])
    def test_pcm_file_code_is_identified_by_its_file(self, runner, tmp_path, name):
        # a file named after a registry code but holding another PCM, and one no registry code names
        pcm = tmp_path / f"{name}.txt"
        pcm.write_text(dense_text_dumps(get_code("hamming_7_4").pcm))
        digest = hashlib.sha256(pcm.read_bytes()).hexdigest()
        for command in (["eval", "--decoder", "uncoded", "--max-bits", "700"], ["analyze"]):
            out = tmp_path / command[0]
            invoke(runner, *command, "--pcm-file", pcm, "--out", out)
            assert self.manifest(out)["code_hashes"] == {name: digest}


class TestBuildEnsembleCommand:
    def test_bch_31_21_p3(self, runner, tmp_path):
        out = tmp_path / "ens"
        result = invoke(runner, "build-ensemble", "--code", "bch_31_21", "--p", 3, "--out", out)
        assert result.exit_code == 0, result.output
        assert "uncovered positions: [30]" in result.output
        assert len(list(out.glob("branch*.txt"))) == 3
        cov = (out / "coverage.csv").read_text().strip().splitlines()
        assert len(cov) == 32

    def test_p_too_large(self, runner, tmp_path):
        result = runner.invoke(main, [
            "build-ensemble", "--code", "bch_31_21", "--p", "9", "--out", str(tmp_path / "x"),
        ])
        assert result.exit_code == 2
