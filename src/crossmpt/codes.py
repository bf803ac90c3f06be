"""Linear block codes: construction from parity-check matrix files plus the
bundled code registry.

Two interchange formats are supported: the standard sparse alist format and a
dense-text format ("n-k n" header line followed by n-k rows of 0/1). The
generator matrix is always derived from the loaded PCM's null space, so
G H^T = 0 holds by construction and the file's column order is never touched.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from enum import Enum
from functools import cache
from importlib import resources
from pathlib import Path

import numpy as np

from .gf2 import (
    BinaryMatrix,
    gf2_matmul,
    mod2_product,
    null_space,
    rank,
    stack_rows,
)
from .masks import tanner_graph

__all__ = [
    "CodeClass",
    "Code",
    "CodeFormatError",
    "load_code",
    "parse_dense_text",
    "parse_alist",
    "dense_text_dumps",
    "list_codes",
    "get_code",
    "registry_hash",
]


class CodeClass(Enum):
    BCH = "bch"
    HAMMING = "hamming"
    LDPC = "ldpc"
    OTHER = "other"


class CodeFormatError(ValueError):
    """Raised when a PCM file fails to parse or is internally inconsistent."""


@dataclass(frozen=True)
class Code:
    """An (n, k) linear block code with one or more equivalent PCMs.

    Every PCM has full rank n-k and the same row space, so all of them define
    the same codeword set. The generator satisfies G H^T = 0 for each PCM.
    """

    name: str
    n: int
    k: int
    generator: BinaryMatrix
    pcms: tuple[BinaryMatrix, ...]
    code_class: CodeClass = CodeClass.OTHER

    @property
    def pcm(self) -> BinaryMatrix:
        return self.pcms[0]

    @property
    def rate(self) -> float:
        return self.k / self.n

    def encode(self, message: np.ndarray) -> np.ndarray:
        """message (k,) -> codeword (n,) over GF(2)."""
        message = np.asarray(message, dtype=np.uint8)
        if message.shape != (self.k,):
            raise ValueError(f"message length {message.shape} != k={self.k}")
        return mod2_product(message, self.generator.bits)

    def encode_batch(self, messages: np.ndarray) -> np.ndarray:
        return mod2_product(np.asarray(messages, dtype=np.uint8), self.generator.bits)

    def contains(self, word: np.ndarray) -> bool:
        word = np.asarray(word, dtype=np.uint8)
        return not tanner_graph(self.pcm).syndrome(word).any()

    def validate(self) -> None:
        """Check all structural invariants; raises AssertionError on failure,
        also under `python -O`."""
        if self.generator.shape != (self.k, self.n):
            raise AssertionError("generator shape mismatch")
        base_rank = rank(self.pcms[0])
        for h in self.pcms:
            if h.shape != (self.n - self.k, self.n):
                raise AssertionError("PCM shape mismatch")
            if rank(h) != self.n - self.k:
                raise AssertionError("rank-deficient PCM")
            if not gf2_matmul(self.generator, h.transpose()).is_zero():
                raise AssertionError("G H^T != 0")
            if rank(stack_rows(self.pcms[0], h)) != base_rank:
                raise AssertionError("PCM row spaces differ")

    def with_pcms(self, pcms: list[BinaryMatrix]) -> "Code":
        return replace(self, pcms=tuple(pcms))


def _code_from_pcm(h: BinaryMatrix, name: str, code_class: CodeClass = CodeClass.OTHER) -> Code:
    m, n = h.shape
    hrank = rank(h)
    if hrank < m:
        raise CodeFormatError(f"rank-deficient PCM: rank {hrank} < {m} rows")
    k = n - m
    generator = null_space(h)
    if generator.rows != k:
        raise AssertionError(f"null space has {generator.rows} rows, expected k={k}")
    return Code(
        name=name,
        n=n,
        k=k,
        generator=generator,
        pcms=(h,),
        code_class=code_class,
    )


def parse_dense_text(text: str) -> BinaryMatrix:
    """Parse the dense-text PCM format: "n-k n" then n-k rows of 0/1."""
    lines = [ln for ln in text.strip().splitlines()]
    if not lines:
        raise CodeFormatError("empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise CodeFormatError(f"line 1: expected 'rows cols', got {lines[0]!r}")
    try:
        m, n = int(head[0]), int(head[1])
    except ValueError as exc:
        raise CodeFormatError(f"line 1: non-integer dimensions {lines[0]!r}") from exc
    if m <= 0 or n <= 0 or m >= n:
        raise CodeFormatError(f"line 1: invalid dimensions {m}x{n}")
    if len(lines) - 1 != m:
        raise CodeFormatError(f"expected {m} matrix rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        vals = ln.split()
        if len(vals) != n:
            raise CodeFormatError(f"line {i}: expected {n} entries, found {len(vals)}")
        try:
            row = [int(v) for v in vals]
        except ValueError as exc:
            raise CodeFormatError(f"line {i}: non-integer entry") from exc
        if any(v not in (0, 1) for v in row):
            raise CodeFormatError(f"line {i}: entries must be 0 or 1")
        rows.append(row)
    return BinaryMatrix(rows)


def dense_text_dumps(h: BinaryMatrix) -> str:
    lines = [f"{h.rows} {h.cols}"]
    for row in h.bits:
        lines.append(" ".join(str(int(b)) for b in row))
    return "\n".join(lines) + "\n"


def parse_alist(text: str) -> BinaryMatrix:
    """Parse the standard alist sparse PCM format.

    Index lists may be zero-padded to the declared maximum degree. The
    per-row section, when present, is cross-checked against the matrix built
    from the per-column section; mismatches raise with the offending line.
    """
    lines = text.strip().splitlines()
    if len(lines) < 4:
        raise CodeFormatError("alist: fewer than 4 header lines")

    def ints(i: int) -> list[int]:
        try:
            return [int(v) for v in lines[i].split()]
        except ValueError as exc:
            raise CodeFormatError(f"line {i + 1}: non-integer value") from exc

    head = ints(0)
    if len(head) != 2:
        raise CodeFormatError("line 1: expected 'n m'")
    n, m = head
    if n <= 0 or m <= 0:
        raise CodeFormatError("line 1: non-positive dimensions")
    col_weights = ints(2)
    if len(col_weights) != n:
        raise CodeFormatError(f"line 3: expected {n} column weights, found {len(col_weights)}")
    row_weights = ints(3)
    if len(row_weights) != m:
        raise CodeFormatError(f"line 4: expected {m} row weights, found {len(row_weights)}")
    if len(lines) < 4 + n:
        raise CodeFormatError("alist: missing per-column index lines")

    h = np.zeros((m, n), dtype=np.uint8)
    for col in range(n):
        lineno = 5 + col
        entries = [v for v in ints(4 + col) if v != 0]
        if len(entries) != col_weights[col]:
            raise CodeFormatError(
                f"line {lineno}: column {col + 1} lists {len(entries)} rows, "
                f"declared weight {col_weights[col]}"
            )
        for v in entries:
            if not 1 <= v <= m:
                raise CodeFormatError(f"line {lineno}: row index {v} outside 1..{m}")
            h[v - 1, col] = 1

    # cross-check the per-row section when present
    if len(lines) >= 4 + n + m:
        for row in range(m):
            lineno = 5 + n + row
            entries = [v for v in ints(4 + n + row) if v != 0]
            if len(entries) != row_weights[row]:
                raise CodeFormatError(
                    f"line {lineno}: row {row + 1} lists {len(entries)} columns, "
                    f"declared weight {row_weights[row]}"
                )
            from_cols = set(np.nonzero(h[row])[0] + 1)
            if from_cols != set(entries):
                raise CodeFormatError(
                    f"line {lineno}: row {row + 1} disagrees with the column section"
                )
    else:
        for row in range(m):
            if int(h[row].sum()) != row_weights[row]:
                raise CodeFormatError(
                    f"line 4: row {row + 1} weight {int(h[row].sum())} != declared "
                    f"{row_weights[row]}"
                )
    return BinaryMatrix(h)


def load_code(path: str | Path) -> Code:
    """Load a Code named after the file stem from a PCM file: alist when the
    extension is .alist, dense text otherwise. The generator is derived from
    the PCM null space.
    """
    path = Path(path)
    parse = parse_alist if path.suffix == ".alist" else parse_dense_text
    return _code_from_pcm(parse(path.read_text()), name=path.stem)


# Bundled registry: name -> (file, class). Names follow "class_n_k".
_REGISTRY: dict[str, CodeClass] = {
    "hamming_7_4": CodeClass.HAMMING,
    "bch_15_7": CodeClass.BCH,
    "bch_31_16": CodeClass.BCH,
    "bch_31_21": CodeClass.BCH,
    "bch_63_30": CodeClass.BCH,
    "bch_63_45": CodeClass.BCH,
    "ldpc_32_16": CodeClass.LDPC,
    "ldpc_49_24": CodeClass.LDPC,
    "ldpc_121_60": CodeClass.LDPC,
    "ldpc_121_70": CodeClass.LDPC,
    "ldpc_121_80": CodeClass.LDPC,
}

def _registry_text(name: str) -> str:
    ref = resources.files("crossmpt").joinpath(f"data/{name}.txt")
    return ref.read_text()


def list_codes() -> list[str]:
    return list(_REGISTRY)


@cache
def get_code(name: str) -> Code:
    """Fetch a bundled code by registry name (e.g. "bch_31_16"), built once
    per process."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown code {name!r}; registry has {', '.join(_REGISTRY)}")
    return _code_from_pcm(parse_dense_text(_registry_text(name)), name, _REGISTRY[name])


def registry_hash(name: str) -> str:
    """sha256 of the bundled PCM file contents."""
    return hashlib.sha256(_registry_text(name).encode()).hexdigest()
