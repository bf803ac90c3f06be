import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmpt.codes import (
    CodeClass,
    CodeFormatError,
    dense_text_dumps,
    get_code,
    list_codes,
    load_code,
    parse_alist,
    parse_dense_text,
    registry_hash,
)
from crossmpt.gf2 import BinaryMatrix, gf2_matmul, is_cyclic_row_space, rank


def alist_dumps(h: BinaryMatrix) -> str:
    """The alist form of h: "n m", the maximum column and row weights, the
    weights, then 1-based index lists zero-padded to the maximum weight (at
    least one entry, so an all-zero column or row is a line of "0")."""
    bits = h.bits
    m, n = bits.shape
    col_w, row_w = bits.sum(axis=0), bits.sum(axis=1)

    def index_lines(rows, width):
        lines = []
        for row in rows:
            idx = [str(int(i) + 1) for i in np.nonzero(row)[0]]
            lines.append(" ".join(idx + ["0"] * (max(width, 1) - len(idx))))
        return lines

    lines = [f"{n} {m}", f"{col_w.max()} {row_w.max()}"]
    lines.append(" ".join(str(int(w)) for w in col_w))
    lines.append(" ".join(str(int(w)) for w in row_w))
    lines += index_lines(bits.T, int(col_w.max()))
    lines += index_lines(bits, int(row_w.max()))
    return "\n".join(lines) + "\n"


def hamming_alist_text() -> str:
    return alist_dumps(get_code("hamming_7_4").pcm)


class TestAlist:
    def test_hamming_roundtrip(self, tmp_path):
        path = tmp_path / "hamming.alist"
        path.write_text(hamming_alist_text())
        code = load_code(path)
        assert (code.n, code.k) == (7, 4)
        assert gf2_matmul(code.generator, code.pcm.transpose()).is_zero()

    def test_row_weight_mismatch_names_line(self):
        lines = hamming_alist_text().splitlines()
        head = lines[3].split()
        head[0] = str(int(head[0]) + 1)  # corrupt declared weight of row 1
        lines[3] = " ".join(head)
        with pytest.raises(CodeFormatError, match=r"line 12"):
            parse_alist("\n".join(lines))

    def test_bad_row_index(self):
        text = "2 1\n1 1\n1 1\n2\n9\n5\n"
        with pytest.raises(CodeFormatError, match="outside"):
            parse_alist(text)

    def test_column_section_only_variant(self):
        # some alist writers omit the per-row index section; declared row
        # weights are still validated against the reconstructed matrix
        lines = hamming_alist_text().splitlines()
        truncated = "\n".join(lines[: 4 + 7]) + "\n"
        h = parse_alist(truncated)
        assert h == get_code("hamming_7_4").pcm

    def test_column_section_only_weight_mismatch(self):
        lines = hamming_alist_text().splitlines()
        head = lines[3].split()
        head[1] = str(int(head[1]) + 2)
        lines[3] = " ".join(head)
        truncated = "\n".join(lines[: 4 + 7]) + "\n"
        with pytest.raises(CodeFormatError, match="row 2"):
            parse_alist(truncated)

    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 16),
        density=st.floats(0.0, 1.0),
        zero_rows=st.integers(0, 3),
        zero_cols=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_of_random_matrices(self, m, n, density, zero_rows, zero_cols, seed):
        # any binary matrix, including all-zero rows and columns, survives
        # the alist writer -> parse_alist unchanged
        rng = np.random.default_rng(seed)
        bits = (rng.random((m, n)) < density).astype(np.uint8)
        bits[rng.choice(m, size=min(zero_rows, m), replace=False)] = 0
        bits[:, rng.choice(n, size=min(zero_cols, n), replace=False)] = 0
        h = BinaryMatrix(bits)
        assert parse_alist(alist_dumps(h)) == h

    @pytest.mark.parametrize("name", list_codes())
    def test_alist_and_dense_text_of_bundled_codes_agree(self, name):
        h = get_code(name).pcm
        assert parse_alist(alist_dumps(h)) == parse_dense_text(dense_text_dumps(h)) == h


class TestDenseText:
    def test_bch_31_16_dimensions(self, tmp_path):
        code = get_code("bch_31_16")
        path = tmp_path / "bch.txt"
        path.write_text(dense_text_dumps(code.pcm))
        loaded = load_code(path)
        assert (loaded.n, loaded.k) == (31, 16)
        assert loaded.pcm == code.pcm

    def test_header_mismatch(self):
        with pytest.raises(CodeFormatError, match="expected 2 matrix rows"):
            parse_dense_text("2 4\n1 0 1 0\n")

    def test_bad_entry(self):
        with pytest.raises(CodeFormatError, match="0 or 1"):
            parse_dense_text("1 3\n1 2 0\n")

    def test_row_length_named(self):
        with pytest.raises(CodeFormatError, match="line 3"):
            parse_dense_text("2 3\n1 0 1\n1 0\n")

    @given(
        m=st.integers(1, 12),
        extra=st.integers(1, 12),
        density=st.floats(0.0, 1.0),
        zero_rows=st.integers(0, 3),
        zero_cols=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_of_random_matrices(self, m, extra, density, zero_rows, zero_cols, seed):
        # any binary m x n matrix with m < n, including all-zero rows and
        # columns, survives dumps -> parse unchanged
        rng = np.random.default_rng(seed)
        n = m + extra
        bits = (rng.random((m, n)) < density).astype(np.uint8)
        bits[rng.choice(m, size=min(zero_rows, m), replace=False)] = 0
        bits[:, rng.choice(n, size=min(zero_cols, n), replace=False)] = 0
        h = BinaryMatrix(bits)
        assert parse_dense_text(dense_text_dumps(h)) == h


class TestRegistry:
    @pytest.mark.parametrize("name", list_codes())
    def test_all_bundled_codes_satisfy_invariants(self, name):
        code = get_code(name)
        code.validate()
        assert rank(code.pcm) == code.n - code.k
        assert gf2_matmul(code.generator, code.pcm.transpose()).is_zero()

    def test_validate_checks_hold_under_python_O(self):
        # -O strips assert statements; validate's checks must not be asserts
        script = (
            "import dataclasses\n"
            "from crossmpt.codes import get_code\n"
            "from crossmpt.gf2 import BinaryMatrix\n"
            "code = get_code('hamming_7_4')\n"
            "e0 = [[1] + [0] * (code.n - 1)] * code.k\n"
            "bad = dataclasses.replace(code, generator=BinaryMatrix(e0))\n"
            "try:\n"
            "    bad.validate()\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "G H^T != 0"

    def test_expected_registry(self):
        assert set(list_codes()) == {
            "hamming_7_4", "bch_15_7", "bch_31_16", "bch_31_21", "bch_63_30",
            "bch_63_45", "ldpc_32_16", "ldpc_49_24", "ldpc_121_60",
            "ldpc_121_70", "ldpc_121_80",
        }

    def test_classes_and_cyclic_flags(self):
        assert get_code("bch_63_30").code_class is CodeClass.BCH
        assert is_cyclic_row_space(get_code("bch_63_30").pcm)
        assert get_code("ldpc_49_24").code_class is CodeClass.LDPC
        assert not is_cyclic_row_space(get_code("ldpc_49_24").pcm)

    def test_hash_is_stable(self):
        assert registry_hash("hamming_7_4") == registry_hash("hamming_7_4")
        assert registry_hash("hamming_7_4") != registry_hash("bch_15_7")

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown code"):
            get_code("bch_9_9")

    def test_encode_membership(self):
        code = get_code("bch_15_7")
        rng = np.random.default_rng(0)
        for _ in range(20):
            word = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
            assert code.contains(word)
