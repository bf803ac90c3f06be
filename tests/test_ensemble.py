import numpy as np
import pytest

from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.codes import get_code, list_codes
from crossmpt.ensemble import CrossEDModel, EnsembleConfig, build_ensemble, coverage_report
from crossmpt.gf2 import (
    complementary_pcm,
    gf2_matmul,
    is_cyclic_row_space,
    rank,
    stack_rows,
    systematic_form,
)
from crossmpt.models import DecoderModel, ModelConfig, Variant, init_params, param_count


def base_cfg(d=8, n_layers=1):
    return ModelConfig(variant=Variant.FCROSSMPT, n_layers=n_layers, embed_dim=d)


class TestBuildEnsemble:
    def test_p1_is_systematic_only(self):
        code = get_code("bch_31_21")
        ens = build_ensemble(code, 1, base=base_cfg())
        assert ens.p == 1
        assert ens.pcms[0] == systematic_form(code.pcm)

    def test_bch_31_21_p3_identity_blocks(self):
        code = get_code("bch_31_21")
        ens = build_ensemble(code, 3, base=base_cfg())
        for b, start in enumerate((0, 10, 20)):
            block = ens.pcms[b].bits[:, start:start + 10]
            assert np.array_equal(block, np.eye(10, dtype=np.uint8)), f"branch {b}"
        for pcm in ens.pcms:
            assert rank(pcm) == 10
            assert gf2_matmul(code.generator, pcm.transpose()).is_zero()
            assert rank(stack_rows(ens.pcms[0], pcm)) == 10
        ens.branch_code().validate()  # all branch PCMs share the null space

    def test_bch_63_30_p2_windows(self):
        code = get_code("bch_63_30")
        ens = build_ensemble(code, 2, base=base_cfg())
        assert np.array_equal(ens.pcms[0].bits[:, :33], np.eye(33, dtype=np.uint8))
        # second branch: identity block starts at column 33 and wraps
        cols = [(33 + i) % 63 for i in range(33)]
        block = ens.pcms[1].bits[:, cols]
        assert np.array_equal(block, np.eye(33, dtype=np.uint8))
        assert rank(stack_rows(ens.pcms[0], ens.pcms[1])) == 33
        cover = coverage_report(ens)
        assert all(cover[pos] for pos in range(63))

    def test_p_exceeding_limit_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_ensemble(get_code("bch_31_21"), 5, base=base_cfg())

    @pytest.mark.parametrize(
        "name", [nm for nm in list_codes() if is_cyclic_row_space(get_code(nm).pcm)]
    )
    def test_cyclic_branches_are_the_complementary_pcms(self, name):
        # the window RREF of a cyclic code is the paper's cyclic column shift
        # of [I | P], for every branch of every valid p
        code = get_code(name)
        h_sys = systematic_form(code.pcm)
        limit = -(-code.n // (code.n - code.k))
        for p in range(1, limit + 1):
            ens = build_ensemble(code, p, base=base_cfg())
            assert ens.pcms == tuple(complementary_pcm(h_sys, b) for b in range(p)), f"p={p}"

    def test_non_cyclic_fallback_diagonalizes(self):
        code = get_code("ldpc_32_16")
        ens = build_ensemble(code, 2, base=base_cfg())
        for pcm in ens.pcms:
            assert rank(pcm) == 16
            assert gf2_matmul(code.generator, pcm.transpose()).is_zero()

    def test_requires_foundation_base(self):
        code = get_code("bch_31_21")
        with pytest.raises(ValueError, match="code-agnostic"):
            EnsembleConfig(
                code=code,
                base=ModelConfig(variant=Variant.CROSSMPT, n_layers=1, embed_dim=8),
                pcms=(systematic_form(code.pcm),),
            )


class TestCoverage:
    def test_bch_31_21_p3_leaves_position_30_uncovered(self):
        ens = build_ensemble(get_code("bch_31_21"), 3, base=base_cfg())
        cover = coverage_report(ens)
        uncovered = [pos for pos, branches in enumerate(cover) if not branches]
        assert uncovered == [30]
        assert sum(1 for c in cover if c) == 30

    def test_full_shift_count_covers_everything(self):
        code = get_code("bch_15_7")  # ceil(15/8) = 2
        ens = build_ensemble(code, 2, base=base_cfg())
        assert all(coverage_report(ens))

    def test_p1_covers_exactly_n_minus_k(self):
        code = get_code("bch_31_21")
        ens = build_ensemble(code, 1, base=base_cfg())
        covered = [pos for pos, branches in enumerate(coverage_report(ens)) if branches]
        assert covered == list(range(10))


class TestCrossedForward:
    def test_branch_permutation_is_bitwise_invariant(self):
        code = get_code("bch_31_21")
        ens = build_ensemble(code, 3, base=base_cfg())
        model = CrossEDModel(ens, seed=30)
        batch = sample_batch(ens.branch_code(), NoiseSpec.for_code(code, 3.0, seed=31), 4, policy="random")
        ref = model.logits_batch(batch.mag, list(batch.syndromes)).data
        for perm in ([2, 0, 1], [1, 0, 2], [2, 1, 0]):
            permuted = EnsembleConfig(code=code, base=ens.base, pcms=tuple(ens.pcms[i] for i in perm))
            pm = CrossEDModel(permuted, params=model.params)
            out = pm.logits_batch(batch.mag, [batch.syndromes[i] for i in perm]).data
            assert out.tobytes() == ref.tobytes()

    def test_p1_matches_fcrossmpt_bitwise(self):
        code = get_code("bch_15_7")
        ens = build_ensemble(code, 1, base=base_cfg())
        params = init_params(ens.base, None, seed=32)
        em = CrossEDModel(ens, params=params)
        # plain foundation decoder over the same (systematic) PCM
        plain_code = code.with_pcms([ens.pcms[0]])
        dm = DecoderModel(ens.base, plain_code, params=params)
        batch = sample_batch(ens.branch_code(), NoiseSpec.for_code(code, 4.0, seed=33), 5, policy="random")
        a = em.logits_batch(batch.mag, list(batch.syndromes)).data
        b = dm.logits_batch(batch.mag, batch.syndromes[0]).data
        assert a.tobytes() == b.tobytes()

    def test_identical_branches_scale_prefc_embedding(self):
        code = get_code("bch_15_7")
        h_sys = systematic_form(code.pcm)
        base = base_cfg()
        params = init_params(base, None, seed=34)
        one = CrossEDModel(EnsembleConfig(code=code, base=base, pcms=(h_sys,)), params=params)
        two = CrossEDModel(EnsembleConfig(code=code, base=base, pcms=(h_sys, h_sys)), params=params)
        batch = sample_batch(one.code, NoiseSpec.for_code(code, 4.0, seed=35), 3, policy="random")
        lg1 = one.logits_batch(batch.mag, list(batch.syndromes)).data
        lg2 = two.logits_batch(batch.mag, [batch.syndromes[0], batch.syndromes[0]]).data
        # fusion is additive before the affine head: f(2E) = 2 f(E) - b
        bias = params["head.fc.b"].data[0]
        np.testing.assert_allclose(lg2, 2.0 * lg1 - bias, rtol=1e-9, atol=1e-9)

    def test_param_count_independent_of_p(self):
        code = get_code("bch_31_21")
        for p in (1, 2, 3):
            ens = build_ensemble(code, p, base=base_cfg())
            assert CrossEDModel(ens, seed=1).param_count() == param_count(base_cfg(), None)

    def test_syndrome_count_mismatch_rejected(self):
        code = get_code("bch_31_21")
        ens = build_ensemble(code, 2, base=base_cfg())
        model = CrossEDModel(ens, seed=36)
        batch = sample_batch(ens.branch_code(), NoiseSpec.for_code(code, 4.0, seed=37), 2)
        with pytest.raises(ValueError, match="branches"):
            model.logits_batch(batch.mag, [batch.syndromes[0]])

    def test_trained_ensemble_keeps_clean_frames_at_zero_noise(self, tmp_path):
        # all branches see a zero syndrome on a noiseless frame; a (briefly)
        # trained decoder leaves the hard decision alone
        from crossmpt.checkpoint import load_checkpoint
        from crossmpt.training import TrainConfig, train

        cfg = TrainConfig(codes=("bch_15_7",), variant="crossed", p=2, n_layers=1,
                          embed_dim=16, epochs=2, batches_per_epoch=50, batch_size=64, seed=21)
        report = train(cfg, out_dir=tmp_path)
        ck = load_checkpoint(report.checkpoint_path)
        code = get_code("bch_15_7")
        ens = EnsembleConfig(code=code, base=ck.model_cfg, pcms=tuple(ck.branch_pcms))
        model = CrossEDModel(ens, params=ck.params, infer_only=True)
        rng = np.random.default_rng(3)
        for t in range(25):
            batch = sample_batch(ens.branch_code(), NoiseSpec.for_code(code, 60.0, seed=100 + t),
                                 1, policy="random")
            assert all(not s.any() for s in batch.syndromes)
            assert np.array_equal(model.decode_batch(batch), batch.y_b)
