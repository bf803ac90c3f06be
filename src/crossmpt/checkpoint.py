"""Self-describing checkpoint files.

A checkpoint is an .npz archive with a JSON header (format tag, version,
architecture config, code identities, seed, step/epoch counters) plus raw
float arrays for every parameter, optional Adam state, and the PCM of every
referenced code so decoding is possible without the registry. Round-trips
are exact. Writes go through a temporary file that replaces the target only
once it is complete, so an interrupted save never leaves a truncated archive.

Headers written before a setting was removed from the program still load
when they hold the one value the program still implements (`RETIRED_KEYS`);
any other value is refused, so a checkpoint never decodes or resumes under
behaviour it was not trained with.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codes import Code, CodeClass, CodeFormatError, _code_from_pcm, get_code, list_codes
from .gf2 import BinaryMatrix
from .models import FFN_EXPANSION, ModelConfig, Variant
from .optim import CLIP_NORM, AdamState

FORMAT = "crossmpt-checkpoint"
VERSION = 1

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "CheckpointError"]

# Removed settings, each with the one value the program still implements:
# layers are pre-norm, Eb/N0 is drawn per sample, mixtures draw codes
# uniformly, gradients are clipped to global norm CLIP_NORM, the FFN hidden
# width is FFN_EXPANSION d. Keys of the header's "model" and "train_cfg" sections.
RETIRED_KEYS = {
    "norm_order": "pre", "per_batch_ebn0": False, "code_sampling": "uniform", "clip_norm": CLIP_NORM,
    "ffn_expansion": FFN_EXPANSION,
}


class CheckpointError(ValueError):
    """Version/format problems or config mismatches on load."""


def config_to_dict(cfg: ModelConfig) -> dict:
    return {**asdict(cfg), "variant": cfg.variant.value}


def config_from_dict(d: dict) -> ModelConfig:
    values = {f.name: d[f.name] for f in fields(ModelConfig)}
    return ModelConfig(**{**values, "variant": Variant(d["variant"])})


def _drop_retired_keys(header: dict) -> None:
    """Remove retired settings from the header; raise on a value other than
    the one the program still implements."""
    for section in (header["model"], header.get("train_cfg") or {}):
        for key, allowed in RETIRED_KEYS.items():
            value = section.pop(key, allowed)
            if value != allowed:
                raise CheckpointError(
                    f"checkpoint sets the removed setting {key} = {value!r}; "
                    f"this version implements only {key} = {allowed!r}"
                )


@dataclass
class Checkpoint:
    header: dict
    params: dict[str, Tensor]
    adam: AdamState | None
    codes: dict[str, Code]
    branch_pcms: list[BinaryMatrix]

    @property
    def model_cfg(self) -> ModelConfig:
        return config_from_dict(self.header["model"])

    @property
    def kind(self) -> str:
        return self.header["kind"]


def save_checkpoint(
    path: str | Path,
    *,
    model_cfg: ModelConfig,
    codes: list[Code],
    params: dict[str, Tensor],
    seed: int,
    step: int,
    epoch: int,
    adam: AdamState | None = None,
    branch_pcms: list[BinaryMatrix] | None = None,
    train_cfg: dict | None = None,
    extra: dict | None = None,
) -> Path:
    """Write a checkpoint whose header kind is "ensemble" exactly when branch
    PCMs are given, and "model" otherwise."""
    path = Path(path)
    header = {
        "format": FORMAT,
        "version": VERSION,
        "kind": "ensemble" if branch_pcms else "model",
        "model": config_to_dict(model_cfg),
        "codes": [
            {"name": c.name, "n": c.n, "k": c.k, "class": c.code_class.value} for c in codes
        ],
        "seed": seed,
        "step": step,
        "epoch": epoch,
        "adam_t": adam.t if adam is not None else None,
        "train_cfg": train_cfg,
        "extra": extra or {},
    }
    arrays: dict[str, np.ndarray] = {"__header__": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)}
    for name, p in params.items():
        arrays[f"param:{name}"] = p.data
    if adam is not None:
        for name in params:
            arrays[f"adam_m:{name}"] = adam.m[name]
            arrays[f"adam_v:{name}"] = adam.v[name]
    for code in codes:
        arrays[f"code_pcm:{code.name}"] = code.pcm.bits
    for i, pcm in enumerate(branch_pcms or []):
        arrays[f"branch_pcm:{i}"] = pcm.bits
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(buf.getvalue())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint. Raises OSError when the file cannot be opened and
    CheckpointError for any file that is not a checkpoint this version can use."""
    try:
        return _read_checkpoint(Path(path))
    except CheckpointError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError, EOFError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"not a readable checkpoint archive ({type(exc).__name__}: {exc})") from exc


def _read_checkpoint(path: Path) -> Checkpoint:
    # np.load leaves a path it opened open when the archive is not a zip file
    with path.open("rb") as fh, np.load(fh, allow_pickle=False) as archive:
        if "__header__" not in archive:
            raise CheckpointError("not a checkpoint file (missing header)")
        header = json.loads(bytes(archive["__header__"]).decode())
        if header.get("format") != FORMAT:
            raise CheckpointError(f"unknown format {header.get('format')!r}")
        if header.get("version") != VERSION:
            raise CheckpointError(
                f"checkpoint version {header.get('version')} unsupported (expected {VERSION})"
            )
        _drop_retired_keys(header)
        config_from_dict(header["model"])  # refuse a model this version cannot build
        sections: dict[str, dict] = {k: {} for k in ("param", "adam_m", "adam_v", "code_pcm", "branch_pcm")}
        for key in archive.files:  # each member but the header, read once
            kind, _, name = key.partition(":")
            if kind in sections:
                sections[kind][name] = archive[key]

    params = {name: ad.parameter(value, dtype=value.dtype) for name, value in sections["param"].items()}
    pcm_by_name = {name: BinaryMatrix(bits) for name, bits in sections["code_pcm"].items()}
    adam_t = header.get("adam_t")
    adam = None if adam_t is None else AdamState(m=sections["adam_m"], v=sections["adam_v"], t=int(adam_t))

    codes: dict[str, Code] = {}
    for meta in header["codes"]:
        name = meta["name"]
        if name in list_codes():
            codes[name] = get_code(name)
            if codes[name].pcm != pcm_by_name[name]:
                raise CheckpointError(
                    f"stored PCM for {name} differs from the registry code {name}; "
                    "the checkpoint was trained on another matrix"
                )
        else:
            try:
                codes[name] = _code_from_pcm(pcm_by_name[name], name, CodeClass(meta["class"]))
            except CodeFormatError as exc:
                raise CheckpointError(f"stored PCM for {name}: {exc}") from exc

    branch_pcms = [BinaryMatrix(sections["branch_pcm"][i]) for i in sorted(sections["branch_pcm"], key=int)]
    if header["kind"] == "ensemble" and not branch_pcms:
        raise CheckpointError("ensemble checkpoint holds no branch PCMs")
    return Checkpoint(header=header, params=params, adam=adam, codes=codes, branch_pcms=branch_pcms)
