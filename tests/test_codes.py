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
from crossmpt.gf2 import BinaryMatrix, gf2_matmul, rank


def hamming_alist_text() -> str:
    h = get_code("hamming_7_4").pcm.bits
    m, n = h.shape
    lines = [f"{n} {m}"]
    col_w = h.sum(axis=0)
    row_w = h.sum(axis=1)
    lines.append(f"{col_w.max()} {row_w.max()}")
    lines.append(" ".join(str(int(w)) for w in col_w))
    lines.append(" ".join(str(int(w)) for w in row_w))
    for j in range(n):
        idx = [str(int(r) + 1) for r in np.nonzero(h[:, j])[0]]
        idx += ["0"] * (int(col_w.max()) - len(idx))
        lines.append(" ".join(idx))
    for i in range(m):
        idx = [str(int(c) + 1) for c in np.nonzero(h[i])[0]]
        idx += ["0"] * (int(row_w.max()) - len(idx))
        lines.append(" ".join(idx))
    return "\n".join(lines) + "\n"


class TestAlist:
    def test_hamming_roundtrip(self, tmp_path):
        path = tmp_path / "hamming.alist"
        path.write_text(hamming_alist_text())
        code = load_code(path, fmt="alist")
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


class TestDenseText:
    def test_bch_31_16_dimensions(self, tmp_path):
        code = get_code("bch_31_16")
        path = tmp_path / "bch.txt"
        path.write_text(dense_text_dumps(code.pcm))
        loaded = load_code(path, fmt="dense-text")
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

    def test_expected_registry(self):
        assert set(list_codes()) == {
            "hamming_7_4", "bch_15_7", "bch_31_16", "bch_31_21", "bch_63_30",
            "bch_63_45", "ldpc_32_16", "ldpc_49_24", "ldpc_121_60",
            "ldpc_121_70", "ldpc_121_80",
        }

    def test_classes_and_cyclic_flags(self):
        assert get_code("bch_63_30").code_class is CodeClass.BCH
        assert get_code("bch_63_30").cyclic
        assert get_code("ldpc_49_24").code_class is CodeClass.LDPC
        assert not get_code("ldpc_49_24").cyclic

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
