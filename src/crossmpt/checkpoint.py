"""Self-describing checkpoint files.

A checkpoint is an .npz archive with a JSON header (format tag, version,
architecture config, code identities, seed, step/epoch counters) plus raw
float arrays for every parameter, optional Adam state, and the PCM of every
referenced code so decoding is possible without the registry. Round-trips
are exact. Writes go through a temporary file that replaces the target only
once it is complete, so an interrupted save never leaves a truncated archive.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .codes import Code, CodeClass
from .gf2 import BinaryMatrix
from .models import ModelConfig, Variant
from .optim import AdamState

FORMAT = "crossmpt-checkpoint"
VERSION = 1

__all__ = ["Checkpoint", "save_checkpoint", "load_checkpoint", "CheckpointError"]


class CheckpointError(ValueError):
    """Version/format problems or config mismatches on load."""


def config_to_dict(cfg: ModelConfig) -> dict:
    return {
        "variant": cfg.variant.value,
        "n_layers": cfg.n_layers,
        "embed_dim": cfg.embed_dim,
        "heads": cfg.heads,
        "ffn_expansion": cfg.ffn_expansion,
        "norm_order": cfg.norm_order,
    }


def config_from_dict(d: dict) -> ModelConfig:
    return ModelConfig(
        variant=Variant(d["variant"]),
        n_layers=int(d["n_layers"]),
        embed_dim=int(d["embed_dim"]),
        heads=int(d["heads"]),
        ffn_expansion=int(d["ffn_expansion"]),
        norm_order=d["norm_order"],
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
        "n_branches": len(branch_pcms) if branch_pcms else 0,
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
    from .gf2 import null_space, rank
    from .codes import get_code, list_codes

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
            h = pcm_by_name[name]
            codes[name] = Code(
                name=name,
                n=h.cols,
                k=h.cols - h.rows,
                generator=null_space(h),
                pcms=(h,),
                code_class=CodeClass(meta["class"]),
            )
        if rank(pcm_by_name[name]) != codes[name].n - codes[name].k:
            raise CheckpointError(f"stored PCM for {name} is rank-deficient")

    branch_pcms = [branch[i] for i in sorted(branch)]
    return Checkpoint(header=header, params=params, adam=adam, codes=codes, branch_pcms=branch_pcms)
