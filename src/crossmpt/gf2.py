"""Dense GF(2) linear algebra: binary matrices, row reduction, systematic forms."""

from __future__ import annotations

import numpy as np

__all__ = [
    "BinaryMatrix",
    "gf2_matmul",
    "mod2_product",
    "identity",
    "rank",
    "rref",
    "null_space",
    "stack_rows",
    "systematic_form",
    "complementary_pcm",
    "is_cyclic_row_space",
]


class BinaryMatrix:
    """Immutable dense matrix over GF(2), stored row-major as uint8.

    Entries are validated to lie in {0, 1} and the backing array is made
    read-only, so instances are safe to share across threads.
    """

    __slots__ = ("bits",)

    def __init__(self, bits) -> None:
        arr = np.array(bits, dtype=np.uint8, copy=True)
        if arr.ndim != 2:
            raise ValueError(f"BinaryMatrix requires a 2-D array, got ndim={arr.ndim}")
        if arr.size and arr.max() > 1:
            raise ValueError("BinaryMatrix entries must be 0 or 1")
        arr.setflags(write=False)
        self.bits = arr

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.bits.shape

    def popcount(self) -> int:
        """Number of ones."""
        return int(self.bits.sum())

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.bits.T)

    def is_zero(self) -> bool:
        return not self.bits.any()

    def tobytes(self) -> bytes:
        """Canonical byte serialization (shape header + row-major bits)."""
        header = f"{self.rows} {self.cols}\n".encode()
        return header + self.bits.tobytes()

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash(self.tobytes())

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.rows}x{self.cols}, ones={self.popcount()})"


def identity(n: int) -> BinaryMatrix:
    return BinaryMatrix(np.eye(n, dtype=np.uint8))


def mod2_product(a, b) -> np.ndarray:
    """a @ b mod 2 for arrays of 0/1 entries, as uint8.

    The product runs through float64 BLAS. Every entry of it is an integer
    count no larger than the inner dimension, so it is exact below 2**53.
    """
    prod = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def gf2_matmul(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    """Mod-2 matrix product.

    Raises ValueError on inner-dimension mismatch.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: ({a.rows}x{a.cols}) @ ({b.rows}x{b.cols})")
    return BinaryMatrix(mod2_product(a.bits, b.bits))


def rref(m: BinaryMatrix, start: int = 0) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2), scanning columns from `start`.

    Pivots are taken in the column order start, start + 1, ... (wrapping mod
    cols), so a nonzero start targets the identity block at the window
    [start, start + rows) as far as row operations allow. Returns (array,
    pivot_columns in scan order). Uses row operations only; column order is
    never changed.
    """
    a = m.bits.copy()
    nrows, ncols = a.shape
    pivots: list[int] = []
    row = 0
    for col in ((start + j) % ncols for j in range(ncols)):
        if row == nrows:
            break
        hit = np.nonzero(a[row:, col])[0]
        if hit.size == 0:
            continue
        piv = row + int(hit[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        others = np.nonzero(a[:, col])[0]
        for r in others:
            if r != row:
                a[r] ^= a[row]
        pivots.append(col)
        row += 1
    return a, pivots


def rank(m: BinaryMatrix) -> int:
    """GF(2) rank via Gaussian elimination."""
    _, pivots = rref(m)
    return len(pivots)


def stack_rows(a: BinaryMatrix, b: BinaryMatrix) -> BinaryMatrix:
    if a.cols != b.cols:
        raise ValueError("cannot stack matrices with different column counts")
    return BinaryMatrix(np.vstack([a.bits, b.bits]))


def null_space(m: BinaryMatrix) -> BinaryMatrix:
    """Basis of the right null space, one basis vector per row.

    For a full-rank (n-k) x n parity-check matrix the result is a k x n
    generator matrix with G H^T = 0.
    """
    reduced, pivots = rref(m)
    ncols = m.cols
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = np.zeros((len(free_cols), ncols), dtype=np.uint8)
    for i, free in enumerate(free_cols):
        basis[i, free] = 1
        for r, p in enumerate(pivots):
            basis[i, p] = reduced[r, free]
    return BinaryMatrix(basis)


def systematic_form(h: BinaryMatrix) -> BinaryMatrix:
    """Row-reduce a full-rank PCM toward [I | P] using row operations only.

    The row space is preserved exactly. If the leading (rows x rows) block is
    singular, the result is the best-effort reduced echelon form.

    Raises ValueError if h is rank-deficient.
    """
    reduced, pivots = rref(h)
    if len(pivots) < h.rows:
        raise ValueError(f"rank-deficient matrix: rank {len(pivots)} < {h.rows} rows")
    return BinaryMatrix(reduced)


def complementary_pcm(h_sys: BinaryMatrix, p: int) -> BinaryMatrix:
    """Cyclic column shift of a systematic PCM placing the identity block at p·(n-k).

    Output column j equals input column (j - p*(n-k)) mod n. Only valid as a
    PCM when the underlying code is cyclic; callers on non-cyclic codes must
    use rref() with a start column instead.
    """
    m, n = h_sys.shape
    limit = -(-n // m) - 1  # ceil(n/m) - 1
    if p == 0:
        return BinaryMatrix(h_sys.bits)
    if not 1 <= p <= limit:
        raise ValueError(f"shift index p={p} outside 1..{limit} for a {m}x{n} PCM")
    src = (np.arange(n) - p * m) % n
    return BinaryMatrix(h_sys.bits[:, src])


def is_cyclic_row_space(h: BinaryMatrix) -> bool:
    """True when a one-step cyclic column shift preserves the row space.

    Equivalent to the code (null space of h) being closed under cyclic shifts.
    """
    shifted = BinaryMatrix(np.roll(h.bits, 1, axis=1))
    r = rank(h)
    return rank(stack_rows(h, shifted)) == r
