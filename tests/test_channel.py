from decimal import Decimal, getcontext

import numpy as np
import pytest

from crossmpt.channel import (
    NoiseSpec,
    ebn0_to_sigma,
    hard_decision,
    make_invariance_pair,
    modulate,
    sample,
    sample_batch,
)
from crossmpt.codes import get_code


class TestModulate:
    def test_all_zero_maps_to_plus_one(self):
        assert np.array_equal(modulate(np.zeros(5, dtype=np.uint8)), np.ones(5))

    def test_convention(self):
        assert np.array_equal(modulate(np.array([0, 1, 1, 0])), [1.0, -1.0, -1.0, 1.0])

    def test_noiseless_round_trip(self):
        bits = np.array([0, 1, 0, 0, 1, 1], dtype=np.uint8)
        assert np.array_equal(hard_decision(modulate(bits)), bits)

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            modulate(np.array([0, 2]))

    def test_sign_zero_counts_positive(self):
        assert hard_decision(np.array([0.0, -0.0, -1.0])).tolist() == [0, 0, 1]


class TestEbn0ToSigma:
    def test_zero_db_rate_half(self):
        assert ebn0_to_sigma(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    def test_three_db_rate_half(self):
        assert ebn0_to_sigma(3.010299957, 0.5) == pytest.approx(1 / np.sqrt(2), rel=1e-9)

    def test_high_precision_oracle(self):
        # oracle: the same closed form evaluated in 50-digit decimal arithmetic
        getcontext().prec = 50
        rate = Decimal(16) / Decimal(31)
        ebn0 = Decimal(10) ** (Decimal(4) / Decimal(10))
        expected = 1 / (2 * rate * ebn0).sqrt()
        assert ebn0_to_sigma(4.0, 16 / 31) == pytest.approx(float(expected), rel=1e-12)

    def test_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ebn0_to_sigma(4.0, 0.0)


class TestSampling:
    def test_noiseless_limit(self):
        code = get_code("bch_15_7")
        spec = NoiseSpec.for_code(code, 60.0, seed=1)
        smp = sample(code, spec, policy="random")
        assert np.array_equal(smp.y_b, smp.x)
        assert all(not s.any() for s in smp.syndromes)
        assert not smp.target.any()

    def test_fixed_seed_replay_is_bit_identical(self):
        code = get_code("bch_31_16")
        spec = NoiseSpec.for_code(code, 3.0, 7.0, seed=11)
        a = sample(code, spec, policy="all_zero", index=4)
        b = sample(code, spec, policy="all_zero", index=4)
        assert np.array_equal(a.y, b.y) and a.y.tobytes() == b.y.tobytes()
        assert a.ebn0_db == b.ebn0_db
        c = sample(code, spec, policy="all_zero", index=5)
        assert not np.array_equal(a.y, c.y)

    def test_noise_variance_within_one_percent(self):
        # Monte-Carlo oracle: empirical variance of y - x_s over 1e6 draws
        code = get_code("hamming_7_4")
        ebn0 = 4.0
        spec = NoiseSpec.for_code(code, ebn0, seed=2)
        batch = sample_batch(code, spec, 150_000, policy="all_zero")
        noise = batch.y - batch.x_s
        sigma2 = ebn0_to_sigma(ebn0, code.rate) ** 2
        assert abs(noise.var() - sigma2) / sigma2 < 0.01
        assert noise.size >= 1_000_000

    def test_sample_fields_consistent(self):
        code = get_code("ldpc_32_16")
        spec = NoiseSpec.for_code(code, 2.0, seed=3)
        smp = sample(code, spec, policy="random", index=7)
        assert np.array_equal(smp.x_s, modulate(smp.x))
        assert np.array_equal(smp.y_b, hard_decision(smp.y))
        assert np.array_equal(smp.mag, np.abs(smp.y))
        h = code.pcm.bits.astype(int)
        assert np.array_equal(smp.syndromes[0], (h @ smp.y_b) % 2)
        assert np.array_equal(smp.target, hard_decision(smp.y * smp.x_s))

    def test_target_is_hard_decision_for_all_zero(self):
        code = get_code("bch_15_7")
        spec = NoiseSpec.for_code(code, 2.0, seed=5)
        smp = sample(code, spec, policy="all_zero", index=1)
        assert np.array_equal(smp.target, smp.y_b)

    def test_error_free_hard_decision_has_zero_syndrome(self):
        code = get_code("bch_31_21")
        rng = np.random.default_rng(8)
        word = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
        h = code.pcm.bits.astype(int)
        assert not ((h @ word) % 2).any()

    def test_ebn0_drawn_per_sample(self):
        code = get_code("hamming_7_4")
        spec = NoiseSpec.for_code(code, 3.0, 7.0, seed=6)
        batch = sample_batch(code, spec, 64, policy="all_zero")
        assert len(np.unique(batch.ebn0_db)) > 32


class TestInvariancePair:
    def test_same_codeword_is_identity(self):
        code = get_code("bch_15_7")
        spec = NoiseSpec.for_code(code, 3.0, seed=9)
        smp = sample(code, spec, policy="random", index=2)
        clone = make_invariance_pair(code, smp, smp.x)
        assert np.array_equal(clone.y, smp.y)
        assert np.array_equal(clone.target, smp.target)

    def test_magnitude_and_syndrome_are_codeword_independent(self):
        code = get_code("bch_15_7")
        spec = NoiseSpec.for_code(code, 3.0, seed=10)
        base = sample(code, spec, policy="all_zero", index=0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            word = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
            other = make_invariance_pair(code, base, word)
            assert other.mag.tobytes() == base.mag.tobytes()
            for s_new, s_old in zip(other.syndromes, base.syndromes):
                assert s_new.tobytes() == s_old.tobytes()
            assert other.target.tobytes() == base.target.tobytes()

    def test_non_codeword_rejected(self):
        code = get_code("hamming_7_4")
        spec = NoiseSpec.for_code(code, 3.0, seed=12)
        smp = sample(code, spec, policy="all_zero")
        bad = np.zeros(7, dtype=np.uint8)
        bad[0] = 1
        with pytest.raises(ValueError, match="membership"):
            make_invariance_pair(code, smp, bad)


from hypothesis import given, settings
from hypothesis import strategies as st


class TestInvarianceProperty:
    @given(
        st.sampled_from(["hamming_7_4", "bch_15_7", "bch_31_21", "ldpc_32_16"]),
        st.integers(0, 2**20),
    )
    @settings(max_examples=30, deadline=None)
    def test_preprocessed_inputs_ignore_the_codeword(self, name, seed):
        code = get_code(name)
        rng = np.random.default_rng(seed)
        base = sample(code, NoiseSpec.for_code(code, 2.0, 8.0, seed=seed), policy="random")
        word = code.encode(rng.integers(0, 2, size=code.k, dtype=np.uint8))
        other = make_invariance_pair(code, base, word)
        assert other.mag.tobytes() == base.mag.tobytes()
        assert other.syndromes[0].tobytes() == base.syndromes[0].tobytes()
        assert other.target.tobytes() == base.target.tobytes()
