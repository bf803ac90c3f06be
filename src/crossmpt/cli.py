"""Batch experimentation CLI.

Every command writes its outputs plus a manifest.json capturing the fully
resolved configuration, code registry hashes, seed, and artifact list.
Reruns with an identical manifest produce bitwise-equal CSV outputs. Exit
codes: 0 success, 2 configuration error, 3 numeric failure.
"""

from __future__ import annotations

import csv
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import click
import numpy as np

from . import __version__
from .bp import BpConfig
from .channel import NoiseSpec, _derive, modulate, sample
from .checkpoint import CheckpointError, load_checkpoint
from .codes import get_code, list_codes, load_code, registry_hash
from .ensemble import CrossEDModel, EnsembleConfig, build_ensemble, coverage_report
from .evaluation import (
    BpDecoder,
    IdentityDecoder,
    StopRule,
    bitwise_ber,
    complexity_report,
    density_check,
    dump_attention,
    estimate_ber,
    write_bitwise_csv,
)
from .gf2 import is_cyclic_row_space
from .models import DecoderModel, ModelConfig, Variant
from .training import (
    ConfigMismatchError,
    NumericFailure,
    TrainConfig,
    parse_config_file,
    train,
)

DEFAULT_OUT_ROOT = os.environ.get("CROSSMPT_OUT", "runs")


class ConfigError(click.ClickException):
    """A configuration error: a one-line message and exit code 2."""

    exit_code = 2


def _out_path(out: str | None, tag: str) -> Path:
    """A command's output directory, refused unless it can be made: its
    nearest existing ancestor must be a directory it may write to."""
    path = Path(out) if out else Path(DEFAULT_OUT_ROOT) / tag
    try:
        existing = next(p for p in (path, *path.parents) if p.exists())
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    if not existing.is_dir() or (existing != path and not os.access(existing, os.W_OK | os.X_OK)):
        raise ConfigError(f"cannot create output directory {path}: {existing} is not a writable directory")
    return path


def _make_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc}") from exc
    return path


def _out_dir(out: str | None, tag: str) -> Path:
    return _make_dir(_out_path(out, tag))


def _write_manifest(out: Path, command: str, config: dict, codes: list[str], seed: int, artifacts: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "code_hashes": {name: registry_hash(name) for name in codes if name in list_codes()},
        "seed": seed,
        "artifacts": sorted(artifacts),
        "version": __version__,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _resolve_code(name: str | None, pcm_file: str | None):
    if pcm_file:
        try:
            return load_code(pcm_file)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --pcm-file {pcm_file}: {exc}") from exc
    if not name:
        raise click.UsageError("a code is required (--code NAME or --pcm-file PATH)")
    try:
        return get_code(name)
    except KeyError as exc:
        raise click.UsageError(str(exc)) from exc


@click.group()
@click.version_option(__version__)
@click.option("-v", "--verbose", is_flag=True, help="log progress to stderr")
@click.pass_context
def main(ctx, verbose) -> None:
    """Channel-coding laboratory: train, evaluate, and analyze decoders."""
    if verbose:
        # the handler prints each record once: records do not also reach a
        # handler of the embedding program while it is attached
        logger = logging.getLogger("crossmpt")
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        before = logger.level, logger.propagate
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False

        def detach():
            logger.removeHandler(handler)
            logger.setLevel(before[0])
            logger.propagate = before[1]

        ctx.call_on_close(detach)


@main.group()
def codes() -> None:
    """Inspect the bundled code registry."""


@codes.command("list")
def codes_list() -> None:
    click.echo(f"{'name':14s} {'n':>4s} {'k':>4s} {'class':8s} {'cyclic':6s} hash")
    for name in list_codes():
        code = get_code(name)
        click.echo(
            f"{name:14s} {code.n:4d} {code.k:4d} {code.code_class.value:8s} "
            f"{str(is_cyclic_row_space(code.pcm)):6s} {registry_hash(name)[:12]}"
        )


@codes.command("validate")
@click.option("--code", "name", default=None, help="validate one code (default: all)")
def codes_validate(name: str | None) -> None:
    names = [name] if name else list_codes()
    for nm in names:
        if nm not in list_codes():
            raise ConfigError(f"unknown code {nm!r}")
        code = get_code(nm)
        code.validate()
        click.echo(f"{nm}: ok (rank {code.n - code.k}, G H^T = 0)")


@main.command("train")
@click.option("--code", "code_name", default=None, help="single registry code")
@click.option("--codes", "codes_csv", default=None, help="comma-separated registry codes")
@click.option("--variant", default=None, help="decoder architecture (default crossmpt)",
              type=click.Choice(["crossmpt", "fcrossmpt", "ecct", "ecct_fully_masked", "crossed"]))
@click.option("--config", "config_file", default=None,
              help="flat key-value config file (configs/); flags override its keys")
@click.option("--n-layers", type=int, default=None)
@click.option("--dim", "embed_dim", type=int, default=None)
@click.option("--heads", type=int, default=None)
@click.option("--p", type=int, default=None, help="ensemble branch count (crossed)")
@click.option("--epochs", type=int, default=None)
@click.option("--batches-per-epoch", type=int, default=None)
@click.option("--batch-size", type=int, default=None)
@click.option("--lr0", type=float, default=None)
@click.option("--lr-min", type=float, default=None)
@click.option("--ebn0-lo", type=float, default=None)
@click.option("--ebn0-hi", type=float, default=None)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--checkpoint-every", type=int, default=None)
@click.option("--resume", "resume_from", default=None, help="checkpoint to continue from")
@click.option("--out", default=None, help="output directory")
def cmd_train(code_name, codes_csv, config_file, out, resume_from, **flags) -> None:
    """Train a decoder; writes checkpoint, training_log.csv, and manifest."""
    settings: dict = {}
    if config_file:
        try:
            settings.update(parse_config_file(config_file))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --config {config_file}: {exc}") from exc
    if codes_csv and code_name:
        raise click.UsageError("pass --code or --codes, not both")
    if codes_csv:
        settings["codes"] = tuple(c.strip() for c in codes_csv.split(",") if c.strip())
    elif code_name:
        settings["codes"] = (code_name,)
    elif "codes" not in settings:
        raise click.UsageError("missing code: pass --code or --codes")
    for key, value in flags.items():
        if value is not None:
            settings[key] = value
    try:
        cfg = TrainConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"invalid training config: {exc}") from exc
    if resume_from is not None and not Path(resume_from).is_file():
        raise ConfigError(f"cannot resume: no checkpoint file {resume_from}")

    out_path = _out_dir(out, f"train_{'_'.join(cfg.codes)}_{cfg.variant}")
    try:
        report = train(cfg, out_dir=out_path, resume_from=resume_from)
    except NumericFailure as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)
    except (CheckpointError, ConfigMismatchError) as exc:
        raise ConfigError(f"cannot resume from {resume_from}: {exc}") from exc
    report_payload = {
        "epoch_losses": report.epoch_losses,
        "lr_trace": report.lr_trace,
        "wall_time_s": report.wall_time_s,
        "checkpoint": report.checkpoint_path,
    }
    (out_path / "train_report.json").write_text(json.dumps(report_payload, indent=2) + "\n")
    _write_manifest(
        out_path, "train", {**asdict(cfg), "codes": list(cfg.codes)}, list(cfg.codes),
        cfg.seed, ["training_log.csv", "train_report.json", Path(report.checkpoint_path).name],
    )
    click.echo(f"final mean loss {report.epoch_losses[-1]:.6f}; checkpoint {report.checkpoint_path}")


def _decoder_from_checkpoint(path: str, code):
    """A decoder for `code` from a checkpoint. A stored code matches `code`
    only when both the name and the PCM are equal; a `--pcm-file` code whose
    file stem names a stored code but whose PCM differs is an unseen code."""
    try:
        ck = load_checkpoint(path)
    except (OSError, CheckpointError) as exc:
        raise ConfigError(f"cannot load --checkpoint {path}: {exc}") from exc
    cfg = ck.model_cfg
    trained = ck.codes.get(code.name)
    same_pcm = trained is not None and trained.pcm == code.pcm
    if ck.kind == "ensemble":
        try:
            if same_pcm and len(ck.codes) == 1:
                ens = EnsembleConfig(code=code, base=cfg, pcms=tuple(ck.branch_pcms))
            else:
                ens = build_ensemble(code, len(ck.branch_pcms), base=cfg)
            return CrossEDModel(ens, params=ck.params, infer_only=True)
        except ValueError as exc:
            raise ConfigError(f"cannot decode {code.name} with the checkpoint's branches: {exc}") from exc
    if not cfg.code_agnostic:
        if trained is None:
            raise click.UsageError(
                f"checkpoint was trained on {sorted(ck.codes)} with code-specific shapes; "
                f"cannot decode {code.name}"
            )
        if not same_pcm:
            raise click.UsageError(
                f"the PCM given for {code.name} differs from the {code.name} PCM the "
                "code-specific checkpoint was trained on; cannot decode it"
            )
    try:
        return DecoderModel(cfg, code, params=ck.params, infer_only=True)
    except ValueError as exc:
        raise ConfigError(f"cannot decode {code.name}: {exc}") from exc


@main.command("eval")
@click.option("--code", "code_name", default=None)
@click.option("--pcm-file", default=None, help="ingest a PCM file instead of a registry code")
@click.option("--checkpoint", default=None, help="neural decoder checkpoint")
@click.option("--decoder", "decoder_kind", default=None,
              type=click.Choice(["bp", "uncoded"]), help="non-neural baseline")
@click.option("--ebn0", default="4", help="comma-separated Eb/N0 list in dB")
@click.option("--iters", type=click.IntRange(min=1), default=BpConfig.max_iters, help="BP iterations")
@click.option("--bp-algorithm", type=click.Choice(["sum_product", "min_sum"]), default=BpConfig.algorithm)
@click.option("--min-errors", type=int, default=StopRule.min_errors)
@click.option("--max-bits", type=int, default=StopRule.max_bits)
@click.option("--policy", type=click.Choice(["random", "all_zero"]), default="random")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--bitwise/--no-bitwise", default=False, help="also write bitwise.csv")
@click.option("--out", default=None)
def cmd_eval(code_name, pcm_file, checkpoint, decoder_kind, ebn0, iters, bp_algorithm,
             min_errors, max_bits, policy, seed, bitwise, out) -> None:
    """Monte-Carlo BER/FER estimation; writes ber_report.csv."""
    code = _resolve_code(code_name, pcm_file)
    if (checkpoint is None) == (decoder_kind is None):
        raise click.UsageError("pass exactly one of --checkpoint or --decoder")
    if checkpoint:
        decoder = _decoder_from_checkpoint(checkpoint, code)
        decoder.name = f"checkpoint_{Path(checkpoint).stem}"
        code = decoder.code  # an ensemble's branch code samples every branch syndrome
    elif decoder_kind == "bp":
        decoder = BpDecoder(code, BpConfig(max_iters=iters, algorithm=bp_algorithm))
    else:
        decoder = IdentityDecoder()
    try:
        ebn0_list = [float(v) for v in ebn0.split(",") if v.strip()]
    except ValueError as exc:
        raise click.UsageError(f"bad --ebn0 list: {ebn0!r}") from exc
    try:
        stop = StopRule(min_errors, max_bits)
    except ValueError as exc:
        raise ConfigError(f"invalid --min-errors/--max-bits: {exc}") from exc

    out_path = _out_path(out, f"eval_{code.name}_{decoder.name}")
    try:
        report = estimate_ber(decoder, code, ebn0_list, stop, seed=seed, policy=policy)
    except FloatingPointError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)
    except ValueError as exc:
        raise ConfigError(f"cannot evaluate --ebn0 {ebn0!r}: {exc}") from exc
    _make_dir(out_path)
    report.to_csv(out_path / "ber_report.csv")
    artifacts = ["ber_report.csv"]
    if bitwise:
        ens = decoder.ens if hasattr(decoder, "ens") else None
        write_bitwise_csv(out_path / "bitwise.csv", bitwise_ber(report, ens))
        artifacts.append("bitwise.csv")
    config = {
        "code": code.name, "decoder": decoder.name, "ebn0": ebn0_list,
        "min_errors": min_errors, "max_bits": max_bits, "policy": policy,
        "iters": iters if decoder_kind == "bp" else None,
    }
    _write_manifest(out_path, "eval", config, [code.name], seed, artifacts)
    for row in report.rows:
        neg = "censored" if row.ber == 0 else f"{row.neg_ln_ber:.3f}"
        click.echo(
            f"eb/n0 {row.ebn0_db:5.2f} dB  ber {row.ber:.3e}  fer {row.fer:.3e}  "
            f"-ln(ber) {neg}  ({row.bit_errors} errors / {row.bits_sent} bits)"
        )


@main.command("analyze")
@click.option("--code", "code_name", default=None)
@click.option("--pcm-file", default=None)
@click.option("--n-layers", type=click.IntRange(min=1), default=ModelConfig.n_layers)
@click.option("--dim", "embed_dim", type=click.IntRange(min=1), default=ModelConfig.embed_dim)
@click.option("--out", default=None)
def cmd_analyze(code_name, pcm_file, n_layers, embed_dim, out) -> None:
    """Mask density / FLOPs comparison between the cross- and self-attention
    decoders; flags density discrepancies against published values."""
    code = _resolve_code(code_name, pcm_file)
    cfg = ModelConfig(variant=Variant.CROSSMPT, n_layers=n_layers, embed_dim=embed_dim)
    rows = complexity_report(cfg, code)
    out_path = _out_dir(out, f"analyze_{code.name}")
    check = density_check(code)
    with open(out_path / "complexity.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decoder", "attention_map_area", "unmasked", "density", "flops",
                         "published_density_pct", "matches_published"])
        for row in rows:
            published = ""
            matches = ""
            if check is not None:
                side = "cross" if row.decoder == "crossmpt" else "self"
                published = check[f"published_{side}_pct"]
                matches = str(check[f"{side}_matches"])
            writer.writerow([row.decoder, row.attention_map_area, row.unmasked,
                             repr(float(row.density)), row.flops, published, matches])
    cross, self_ = rows
    h, h_tilde = self_.unmasked, cross.unmasked
    click.echo(f"{code.name}: cross density {100*cross.density:.2f}%  self density {100*self_.density:.2f}%")
    click.echo(f"h = {h}, 2*h_tilde = {2*h_tilde}, h > 2*h_tilde: {h > 2*h_tilde}")
    click.echo(f"flops: cross {cross.flops:,} vs self {self_.flops:,} (cross lower: {cross.flops < self_.flops})")
    if check is not None and not check["matches"]:
        click.echo(
            "density discrepancy vs published table: "
            f"ours ({check['ours_cross_pct']:.2f}%, {check['ours_self_pct']:.2f}%) "
            f"vs published ({check['published_cross_pct']}%, {check['published_self_pct']}%) "
            "— bundled PCM reconstruction differs from the published source matrix",
            err=True,
        )
    _write_manifest(out_path, "analyze",
                    {"code": code.name, "n_layers": n_layers, "embed_dim": embed_dim},
                    [code.name], 0, ["complexity.csv"])


@main.command("dump-attention")
@click.option("--checkpoint", required=True)
@click.option("--code", "code_name", default=None)
@click.option("--flip-bit", type=int, default=None,
              help="force a single sign flip at this bit position (0-based) on a clean frame")
@click.option("--ebn0", type=float, default=5.0, help="noise level when not using --flip-bit")
@click.option("--layers", default=None, help="layer range lo..hi (1-based)")
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--out", default=None)
def cmd_dump_attention(checkpoint, code_name, flip_bit, ebn0, layers, seed, out) -> None:
    """Write per-layer attention maps and vertical sums as CSV files."""
    layer_range = None
    if layers:
        lo, _, hi = layers.partition("..")
        try:
            layer_range = (int(lo), int(hi or lo))
        except ValueError:
            pass
        if layer_range is None or not 1 <= layer_range[0] <= layer_range[1]:
            raise ConfigError(f"--layers {layers!r} is not a range lo..hi with 1 <= lo <= hi")
    code = _resolve_code(code_name, None)
    decoder = _decoder_from_checkpoint(checkpoint, code)
    if layer_range is not None and layer_range[1] > decoder.cfg.n_layers:
        raise ConfigError(f"--layers {layers!r} beyond the model's {decoder.cfg.n_layers} layers")
    if flip_bit is not None:
        if not 0 <= flip_bit < code.n:
            raise click.UsageError(f"--flip-bit {flip_bit} outside 0..{code.n - 1}")
        x_s = modulate(np.zeros((1, code.n), dtype=np.uint8))
        y = x_s.copy()
        y[0, flip_bit] *= -1.0
        smp = _derive(decoder.code, x_s, y, np.array([np.inf])).row(0)
    else:
        try:
            spec = NoiseSpec.for_code(decoder.code, ebn0, seed=seed)
            decoder.check_ebn0(ebn0)
        except ValueError as exc:
            raise ConfigError(f"invalid --ebn0 {ebn0}: {exc}") from exc
        smp = sample(decoder.code, spec, policy="all_zero")
    try:
        dumps = dump_attention(decoder, smp, layer_range)
    except FloatingPointError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(3)
    out_path = _out_dir(out, f"attention_{code.name}")
    branches = len(decoder.code.pcms)
    artifacts = []
    for entry in dumps:
        stem = f"layer{entry['layer']:02d}"
        if branches > 1:
            stem = f"branch{entry['branch']}_{stem}"
        for name, arr in entry.items():
            if name in ("branch", "layer"):
                continue
            fname = f"{stem}_{name}.csv"
            arr2 = np.asarray(arr)
            np.savetxt(out_path / fname, arr2.reshape(-1, arr2.shape[-1]), delimiter=",")
            artifacts.append(fname)
    _write_manifest(out_path, "dump-attention",
                    {"code": code.name, "flip_bit": flip_bit, "layers": layers, "ebn0": ebn0},
                    [code.name], seed, artifacts)
    click.echo(f"wrote {len(artifacts)} files to {out_path}")


@main.command("build-ensemble")
@click.option("--code", "code_name", required=True)
@click.option("--p", type=int, required=True)
@click.option("--out", default=None)
def cmd_build_ensemble(code_name, p, out) -> None:
    """Construct the branch PCM set and identity-coverage report."""
    code = _resolve_code(code_name, None)
    try:
        ens = build_ensemble(code, p)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    cover = coverage_report(ens)
    out_path = _out_dir(out, f"ensemble_{code.name}_p{p}")
    from .codes import dense_text_dumps
    artifacts = []
    for i, pcm in enumerate(ens.pcms):
        fname = f"branch{i}.txt"
        (out_path / fname).write_text(dense_text_dumps(pcm))
        artifacts.append(fname)
    with open(out_path / "coverage.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["position", "covered", "branches"])
        for pos, branches in enumerate(cover):
            writer.writerow([pos, bool(branches), ";".join(map(str, branches))])
    artifacts.append("coverage.csv")
    uncovered = [pos for pos, br in enumerate(cover) if not br]
    _write_manifest(out_path, "build-ensemble", {"code": code.name, "p": p}, [code.name], 0, artifacts)
    click.echo(f"{len(ens.pcms)} branch PCMs; uncovered positions: {uncovered if uncovered else 'none'}")


if __name__ == "__main__":
    main()
