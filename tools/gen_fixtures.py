"""Generate the bundled parity-check-matrix fixtures under src/crossmpt/data/.

BCH and Hamming codes are built from their generator polynomials (minimal
polynomials over GF(2^m)); the standard PCM rows are cyclic shifts of the
reversed parity polynomial. The (49,24) and (121,k) LDPC codes are array
codes over prime fields (circulant permutation blocks) with dependent rows
removed to reach full rank. The (32,16) LDPC code is a seeded (3,6)-regular
construction chosen for full rank and girth >= 6.

Run from the repository root:  PYTHONPATH=src python tools/gen_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossmpt.codes import dense_text_dumps
from crossmpt.gf2 import (
    BinaryMatrix,
    gf2_matmul,
    is_cyclic_row_space,
    null_space,
    rank,
    systematic_form,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "crossmpt" / "data"

PRIMITIVE_POLY = {3: 0b1011, 4: 0b10011, 5: 0b100101, 6: 0b1000011}


def gf_tables(m: int) -> tuple[list[int], dict[int, int]]:
    """exp/log tables for GF(2^m) with the standard primitive polynomial."""
    poly = PRIMITIVE_POLY[m]
    size = (1 << m) - 1
    exp = [0] * size
    log: dict[int, int] = {}
    x = 1
    for i in range(size):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x >> m:
            x ^= poly
    return exp, log


def poly_mul_gf(a: list[int], b: list[int], m: int) -> list[int]:
    """Product of polynomials with coefficients in GF(2^m)."""
    exp, log = gf_tables(m)
    size = (1 << m) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if cb == 0:
                continue
            out[i + j] ^= exp[(log[ca] + log[cb]) % size]
    return out

def minimal_polynomial(i: int, m: int) -> list[int]:
    """Minimal polynomial of alpha^i over GF(2), low-order coefficient first."""
    n = (1 << m) - 1
    exp, _ = gf_tables(m)
    cls = set()
    j = i % n
    while j not in cls:
        cls.add(j)
        j = (j * 2) % n
    poly = [1]
    for e in sorted(cls):
        poly = poly_mul_gf(poly, [exp[e], 1], m)  # (x - alpha^e)
    assert all(c in (0, 1) for c in poly), "minimal polynomial not binary"
    return poly


def poly_mul2(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] ^= ca & cb
    return out


def poly_div2(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    num = num[:]
    dden = len(den) - 1
    quot = [0] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        if num[i]:
            quot[i - dden] = 1
            for j, c in enumerate(den):
                num[i - dden + j] ^= c
    return quot, num[:dden]


def bch_generator_poly(m: int, t: int) -> list[int]:
    g = [1]
    seen: set[tuple[int, ...]] = set()
    for i in range(1, 2 * t, 2):
        mp = minimal_polynomial(i, m)
        key = tuple(mp)
        if key not in seen:
            seen.add(key)
            g = poly_mul2(g, mp)
    return g


def cyclic_pcm(n: int, gen_poly: list[int]) -> BinaryMatrix:
    """Standard (n-k) x n PCM: shifted copies of the reversed parity polynomial."""
    deg_g = len(gen_poly) - 1
    k = n - deg_g
    xn1 = [1] + [0] * (n - 1) + [1]
    h, rem = poly_div2(xn1, gen_poly)
    assert not any(rem), "generator polynomial does not divide x^n + 1"
    assert len(h) - 1 == k
    h_rev = h[::-1]
    rows = np.zeros((n - k, n), dtype=np.uint8)
    for i in range(n - k):
        rows[i, i : i + k + 1] = h_rev
    return BinaryMatrix(rows)


def array_ldpc(q: int, r: int) -> BinaryMatrix:
    """Array LDPC code: r x q grid of q x q circulant permutation blocks.

    Block (i, j) is the shift-by-(i*j) permutation. One dependent row is
    removed from each block row past the first, leaving full rank r(q-1)+1.
    """
    full = np.zeros((r * q, q * q), dtype=np.uint8)
    for i in range(r):
        for j in range(q):
            for a in range(q):
                full[i * q + a, j * q + (a + i * j) % q] = 1
    keep = [i * q + a for i in range(r) for a in range(q) if not (i > 0 and a == q - 1)]
    return BinaryMatrix(full[keep])


def qc_ldpc(circ: int, shift_sets: list[tuple[int, ...]]) -> BinaryMatrix:
    """Quasi-cyclic (w, w*len(sets))-regular PCM from circulant shift sets.

    Each block column is a sum of circulant permutations. Shift sets with
    pairwise-distinct differences mod circ (and disjoint across blocks) give
    girth >= 6.
    """
    diffs: set[int] = set()
    for shifts in shift_sets:
        for a in shifts:
            for b in shifts:
                if a != b:
                    d = (a - b) % circ
                    assert d not in diffs, "repeated circulant difference (4-cycle)"
                    diffs.add(d)
    blocks = []
    for shifts in shift_sets:
        block = np.zeros((circ, circ), dtype=np.uint8)
        for s in shifts:
            block ^= np.eye(circ, dtype=np.uint8)[:, (np.arange(circ) - s) % circ]
        blocks.append(block)
    return BinaryMatrix(np.hstack(blocks))


def validate(name: str, h: BinaryMatrix, n: int, k: int, expect_cyclic: bool) -> None:
    assert h.shape == (n - k, n), f"{name}: shape {h.shape} != {(n-k, n)}"
    assert rank(h) == n - k, f"{name}: rank deficient"
    g = null_space(h)
    assert g.rows == k
    assert gf2_matmul(g, h.transpose()).is_zero(), f"{name}: G H^T != 0"
    cyc = is_cyclic_row_space(h)
    assert cyc == expect_cyclic, f"{name}: cyclic={cyc}, expected {expect_cyclic}"
    density = h.popcount() / (n * (n - k))
    print(f"  {name}: ({n},{k}) ones={h.popcount()} cross-density={100*density:.2f}% cyclic={cyc}")


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    specs = []

    # Cyclic codes from generator polynomials, shipped in systematic form
    # [I | P]: this is the canonical reduced layout whose mask densities
    # reproduce the published reference values for the BCH family.
    def sys_pcm(n: int, gen: list[int]) -> BinaryMatrix:
        return systematic_form(cyclic_pcm(n, gen))

    specs.append(("hamming_7_4", sys_pcm(7, [1, 1, 0, 1]), 7, 4, True))
    specs.append(("bch_15_7", sys_pcm(15, bch_generator_poly(4, 2)), 15, 7, True))
    specs.append(("bch_31_16", sys_pcm(31, bch_generator_poly(5, 3)), 31, 16, True))
    specs.append(("bch_31_21", sys_pcm(31, bch_generator_poly(5, 2)), 31, 21, True))
    specs.append(("bch_63_30", sys_pcm(63, bch_generator_poly(6, 6)), 63, 30, True))
    specs.append(("bch_63_45", sys_pcm(63, bch_generator_poly(6, 3)), 63, 45, True))

    # LDPC codes
    specs.append(("ldpc_32_16", qc_ldpc(16, [(0, 1, 3), (0, 4, 9)]), 32, 16, False))
    specs.append(("ldpc_49_24", array_ldpc(7, 4), 49, 24, False))
    specs.append(("ldpc_121_60", array_ldpc(11, 6), 121, 60, False))
    specs.append(("ldpc_121_70", array_ldpc(11, 5), 121, 70, False))
    specs.append(("ldpc_121_80", array_ldpc(11, 4), 121, 80, False))

    print("validating and writing fixtures:")
    for name, h, n, k, cyc in specs:
        validate(name, h, n, k, cyc)
        (DATA_DIR / f"{name}.txt").write_text(dense_text_dumps(h))
    print(f"wrote {len(specs)} files to {DATA_DIR}")


if __name__ == "__main__":
    main()
