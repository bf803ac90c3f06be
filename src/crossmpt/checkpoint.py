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
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codes import Code, CodeClass, CodeFormatError, _code_from_pcm, get_code, list_codes
from .gf2 import BinaryMatrix
from .models import ModelConfig, Variant
from .optim import AdamState

FORMAT = "crossmpt-checkpoint"
VERSION = 1

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "CheckpointError"]

# Removed settings, each with the one value the program still implements:
# layers are pre-norm, Eb/N0 is drawn per sample, mixtures draw codes
# uniformly, gradients are clipped to global norm 1, the FFN hidden width is
# 4 d. Keys of the header's "model" and "train_cfg" sections.
RETIRED_KEYS = {
    "norm_order": "pre", "per_batch_ebn0": False, "code_sampling": "uniform", "clip_norm": 1.0,
    "ffn_expansion": 4,
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
    kind: str,
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
    path = Path(path)
    header = {
        "format": FORMAT,
        "version": VERSION,
        "kind": kind,
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
    with np.load(Path(path), allow_pickle=False) as archive:
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
        params: dict[str, Tensor] = {}
        adam_m: dict[str, np.ndarray] = {}
        adam_v: dict[str, np.ndarray] = {}
        pcm_by_name: dict[str, BinaryMatrix] = {}
        branch: dict[int, BinaryMatrix] = {}
        for key in archive.files:
            if key.startswith("param:"):
                params[key[6:]] = ad.parameter(archive[key], dtype=archive[key].dtype)
            elif key.startswith("adam_m:"):
                adam_m[key[7:]] = archive[key].copy()
            elif key.startswith("adam_v:"):
                adam_v[key[7:]] = archive[key].copy()
            elif key.startswith("code_pcm:"):
                pcm_by_name[key[9:]] = BinaryMatrix(archive[key])
            elif key.startswith("branch_pcm:"):
                branch[int(key[11:])] = BinaryMatrix(archive[key])

    adam = None
    if header.get("adam_t") is not None:
        adam = AdamState(m=adam_m, v=adam_v, t=int(header["adam_t"]))

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

    branch_pcms = [branch[i] for i in sorted(branch)]
    if header["kind"] == "ensemble" and not branch_pcms:
        raise CheckpointError("ensemble checkpoint holds no branch PCMs")
    return Checkpoint(header=header, params=params, adam=adam, codes=codes, branch_pcms=branch_pcms)
