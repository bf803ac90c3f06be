import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmpt.codes import get_code
from crossmpt.gf2 import (
    BinaryMatrix,
    complementary_pcm,
    gf2_matmul,
    is_cyclic_row_space,
    mod2_product,
    null_space,
    rank,
    rref,
    stack_rows,
    systematic_form,
)


def identity(n):
    return BinaryMatrix(np.eye(n, dtype=np.uint8))


def bits(rng, m, n):
    return BinaryMatrix(rng.integers(0, 2, size=(m, n), dtype=np.uint8))


class TestMatmul:
    def test_identity_times_identity(self):
        i3 = identity(3)
        assert gf2_matmul(i3, i3) == i3

    def test_hamming_generator_times_pcm_transpose_is_zero(self):
        code = get_code("hamming_7_4")
        prod = gf2_matmul(code.generator, code.pcm.transpose())
        assert prod.shape == (4, 3)
        assert prod.is_zero()

    @given(st.integers(0, 2**25 - 1), st.integers(0, 2**25 - 1))
    @settings(max_examples=50, deadline=None)
    def test_matches_integer_matmul_mod2(self, seed_a, seed_b):
        # oracle: plain integer matrix product reduced mod 2
        a = BinaryMatrix(np.array([[(seed_a >> (5 * i + j)) & 1 for j in range(5)] for i in range(5)]))
        b = BinaryMatrix(np.array([[(seed_b >> (5 * i + j)) & 1 for j in range(5)] for i in range(5)]))
        expected = (a.bits.astype(int) @ b.bits.astype(int)) % 2
        assert np.array_equal(gf2_matmul(a, b).bits, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gf2_matmul(identity(3), identity(4))


def int64_mod2_product(a, b):
    return ((a.astype(np.int64) @ b.astype(np.int64)) & 1).astype(np.uint8)


class TestMod2Product:
    @given(
        lead=st.lists(st.integers(1, 6), min_size=0, max_size=2).map(tuple),
        k=st.integers(1, 80),
        n=st.one_of(st.none(), st.integers(1, 40)),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_int64_product(self, lead, k, n, density, seed):
        # a is (..., k); b is (k, n), or a (k,) vector when n is None
        rng = np.random.default_rng(seed)
        a = (rng.random(lead + (k,)) < density).astype(np.uint8)
        b = (rng.random((k,) if n is None else (k, n)) < density).astype(np.uint8)
        got = mod2_product(a, b)
        assert got.dtype == np.uint8
        assert np.array_equal(got, int64_mod2_product(a, b))

    @pytest.mark.parametrize("k", [4096, 4097, 65537])
    def test_all_ones_inner_dimension(self, k):
        # every dot product is the full count k, so the parity is k's
        a = np.ones((3, k), dtype=np.uint8)
        b = np.ones((k, 2), dtype=np.uint8)
        got = mod2_product(a, b)
        assert np.array_equal(got, int64_mod2_product(a, b))
        assert (got == k % 2).all()

    def test_accepts_bool_and_matches_for_pcm_products(self):
        code = get_code("ldpc_121_80")
        words = np.random.default_rng(3).random((50, code.n)) < 0.5
        expected = int64_mod2_product(words, code.pcm.bits.T)
        assert np.array_equal(mod2_product(words, code.pcm.bits.T), expected)


class TestSystematicForm:
    def test_already_systematic_is_fixed_point(self):
        h = BinaryMatrix([[1, 0, 1, 1], [0, 1, 0, 1]])
        assert systematic_form(h) == h

    def test_hamming_row_space_preserved(self):
        code = get_code("hamming_7_4")
        # scramble rows and column order so the input is not systematic
        rng = np.random.default_rng(7)
        perm = rng.permutation(7)
        scrambled = BinaryMatrix(code.pcm.bits[:, perm][::-1])
        sys = systematic_form(scrambled)
        assert np.array_equal(sys.bits[:, :3], np.eye(3, dtype=np.uint8))
        # row-space equality oracle: stacking adds no rank
        assert rank(stack_rows(sys, scrambled)) == rank(scrambled) == 3

    def test_bch_31_21_leading_identity(self):
        h = get_code("bch_31_21").pcm
        sys = systematic_form(h)
        assert np.array_equal(sys.bits[:, :10], np.eye(10, dtype=np.uint8))
        assert rank(stack_rows(sys, h)) == 10

    def test_rank_deficient_rejected(self):
        h = BinaryMatrix([[1, 0, 1], [1, 0, 1]])
        with pytest.raises(ValueError, match="rank"):
            systematic_form(h)


class TestComplementaryPcm:
    def test_zero_shift_returns_input(self):
        h_sys = systematic_form(get_code("bch_31_21").pcm)
        assert complementary_pcm(h_sys, 0) == h_sys

    def test_bch_31_21_shift_one(self):
        code = get_code("bch_31_21")
        h_sys = systematic_form(code.pcm)
        h_c = complementary_pcm(h_sys, 1)
        # identity block lands at columns 10..19
        assert np.array_equal(h_c.bits[:, 10:20], np.eye(10, dtype=np.uint8))
        # validity oracle: still a PCM for the same code
        assert gf2_matmul(code.generator, h_c.transpose()).is_zero()
        assert rank(h_c) == 10
        assert rank(stack_rows(h_sys, h_c)) == 10

    def test_shift_definition_unrolled(self):
        h_sys = systematic_form(get_code("bch_15_7").pcm)
        h_c = complementary_pcm(h_sys, 1)
        for j in range(15):
            assert np.array_equal(h_c.bits[:, j], h_sys.bits[:, (j - 8) % 15])

    def test_out_of_range_shift(self):
        h_sys = systematic_form(get_code("bch_31_21").pcm)
        with pytest.raises(ValueError, match="outside"):
            complementary_pcm(h_sys, 4)  # ceil(31/10) - 1 == 3


class TestNullSpaceAndRank:
    @given(st.integers(0, 2**30))
    @settings(max_examples=40, deadline=None)
    def test_null_space_annihilates(self, seed):
        rng = np.random.default_rng(seed)
        h = bits(rng, int(rng.integers(1, 5)), int(rng.integers(5, 10)))
        g = null_space(h)
        assert g.rows == h.cols - rank(h)
        if g.rows:
            assert gf2_matmul(g, h.transpose()).is_zero()

    def test_rank_of_identity(self):
        assert rank(identity(6)) == 6


class TestRrefWindow:
    def test_window_identity_on_cyclic_code(self):
        # any n-k cyclically consecutive columns of a cyclic code's PCM are
        # independent, so every window, wrapped or not, reaches the identity
        h = get_code("bch_31_21").pcm
        for start in (10, 25):
            reduced, pivots = rref(h, start=start)
            window = [(start + i) % h.cols for i in range(h.rows)]
            assert pivots == window
            assert np.array_equal(reduced[:, window], np.eye(h.rows, dtype=np.uint8))
            assert rank(stack_rows(BinaryMatrix(reduced), h)) == h.rows

    def test_systematic_form_has_leading_identity(self):
        h = systematic_form(get_code("bch_31_21").pcm)
        assert np.array_equal(h.bits[:, :10], np.eye(10, dtype=np.uint8))


class TestCyclicDetection:
    def test_bch_is_cyclic(self):
        assert is_cyclic_row_space(get_code("bch_63_45").pcm)

    def test_array_ldpc_is_not(self):
        assert not is_cyclic_row_space(get_code("ldpc_121_80").pcm)
