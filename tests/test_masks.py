import numpy as np
import pytest

from crossmpt.bp import BpConfig
from crossmpt.channel import NoiseSpec, sample_batch
from crossmpt.codes import get_code, list_codes
from crossmpt.ensemble import CrossEDModel, build_ensemble
from crossmpt.evaluation import BpDecoder, complexity_report
from crossmpt.gf2 import BinaryMatrix
from crossmpt.masks import (
    NEG_INF,
    TannerGraph,
    build_crossmpt_masks,
    build_ecct_mask,
    build_fully_masked_ecct_mask,
    tanner_graph,
)
from crossmpt.models import DecoderModel, ModelConfig, Variant


class TestCrossMasks:
    def test_entrywise_definition(self):
        h = BinaryMatrix([[1, 0], [0, 1]])
        m_ht, m_h = build_crossmpt_masks(h)
        assert np.array_equal(m_ht.additive, np.array([[0.0, NEG_INF], [NEG_INF, 0.0]]))
        assert np.array_equal(m_h.additive, np.array([[0.0, NEG_INF], [NEG_INF, 0.0]]))
        assert np.exp(NEG_INF) == 0.0  # the sentinel kills softmax weight exactly

    def test_densities_equal_and_match_popcount(self, toy_pcms):
        for h in toy_pcms:
            hm = BinaryMatrix(h)
            m_ht, m_h = build_crossmpt_masks(hm)
            assert m_ht.unmasked_count() == m_h.unmasked_count() == hm.popcount()
            assert m_ht.density == m_h.density
            assert np.array_equal(m_ht.support.T, m_h.support)

    def test_ldpc_121_70_density(self):
        # published value for this code: 9.09%
        h = get_code("ldpc_121_70").pcm
        m_ht, _ = build_crossmpt_masks(h)
        assert round(100 * m_ht.density, 2) == 9.09

    def test_shapes(self):
        code = get_code("bch_31_16")
        m_ht, m_h = build_crossmpt_masks(code.pcm)
        assert m_ht.shape == (31, 15)
        assert m_h.shape == (15, 31)


class TestEcctMask:
    def test_bch_63_45_densities(self):
        # published values: self-attention 53.09%, cross-attention 32.45%
        code = get_code("bch_63_45")
        ecct = build_ecct_mask(code.pcm)
        cross = build_crossmpt_masks(code.pcm)[0]
        assert round(100 * ecct.density, 2) == 53.09
        assert round(100 * cross.density, 2) == 32.45

    def test_single_all_ones_row_unmasks_mag_block(self):
        h = BinaryMatrix(np.ones((1, 5), dtype=np.uint8))
        mask = build_ecct_mask(h)
        assert mask.support[:5, :5].all()

    def test_toy_matches_bruteforce_pairwise(self):
        rng = np.random.default_rng(3)
        h = rng.integers(0, 2, size=(3, 6), dtype=np.uint8)
        mask = build_ecct_mask(BinaryMatrix(h))
        n, m = 6, 3
        # oracle: O(n^2 m) scan over all column pairs
        expected = np.zeros((n + m, n + m), dtype=bool)
        for i in range(n):
            for j in range(n):
                expected[i, j] = i == j or any(h[r, i] and h[r, j] for r in range(m))
        for i in range(n):
            for r in range(m):
                expected[i, n + r] = bool(h[r, i])
                expected[n + r, i] = bool(h[r, i])
        for r in range(m):
            expected[n + r, n + r] = True
        assert np.array_equal(mask.support, expected)

    def test_symmetric_diag_and_block_structure(self, toy_pcms):
        for h in toy_pcms:
            hm = BinaryMatrix(h)
            m, n = hm.shape
            mask = build_ecct_mask(hm)
            assert np.array_equal(mask.support, mask.support.T)
            assert mask.support.diagonal().all()
            gram = (hm.bits.astype(int).T @ hm.bits.astype(int)) > 0
            np.fill_diagonal(gram, True)
            assert np.array_equal(mask.support[:n, :n], gram)

    def test_fully_masked_variant_is_cross_blocks_plus_diagonal(self):
        code = get_code("bch_15_7")
        full = build_fully_masked_ecct_mask(code.pcm)
        m_ht, m_h = build_crossmpt_masks(code.pcm)
        n, m = 15, 8
        assert np.array_equal(full.support[:n, n:], m_ht.support)
        assert np.array_equal(full.support[n:, :n], m_h.support)
        off_diag_mag = full.support[:n, :n] ^ np.eye(n, dtype=bool)
        off_diag_syn = full.support[n:, n:] ^ np.eye(m, dtype=bool)
        assert not off_diag_mag.any() and not off_diag_syn.any()
        assert full.support.diagonal().all()


class TestDensityOrdering:
    @pytest.mark.parametrize("name", list_codes())
    def test_cross_density_below_self_density(self, name):
        code = get_code(name)
        cross = build_crossmpt_masks(code.pcm)[0]
        ecct = build_ecct_mask(code.pcm)
        assert cross.density < ecct.density

    def test_density_in_unit_interval(self, toy_pcms):
        for h in toy_pcms:
            for mask in build_crossmpt_masks(BinaryMatrix(h)):
                assert 0 < mask.density <= 1


class TestTannerGraphCache:
    def test_one_graph_per_distinct_pcm(self, monkeypatch):
        built = []
        init = TannerGraph.__init__

        def counted(self, h):
            built.append(h)
            init(self, h)

        monkeypatch.setattr(TannerGraph, "__init__", counted)
        tanner_graph.cache_clear()
        code = get_code("bch_31_21")
        small = dict(n_layers=1, embed_dim=8)
        models = [
            DecoderModel(ModelConfig(variant=Variant.CROSSMPT, **small), code, seed=1),
            DecoderModel(ModelConfig(variant=Variant.ECCT, **small), code, seed=2),
        ]
        ens = build_ensemble(code, 3, base=ModelConfig(variant=Variant.FCROSSMPT, **small))
        crossed = CrossEDModel(ens, seed=3)
        bp = BpDecoder(code, BpConfig(max_iters=5))
        complexity_report(ModelConfig(**small), code)
        spec = NoiseSpec.for_code(code, 4.0, seed=4)
        batch = sample_batch(ens.branch_code(), spec, 2)
        for _ in range(4):
            for model in models:
                model.logits_batch(batch.mag, batch.syndromes[0])
            crossed.logits_batch(batch.mag, list(batch.syndromes))
            bp.decode_batch(batch)

        distinct = {code.pcm, *ens.pcms}
        assert len(built) == len(set(built)) == len(distinct)
        assert set(built) == distinct
        for h in distinct:
            assert tanner_graph(BinaryMatrix(h.bits)) is tanner_graph(h)
        assert bp.graph is tanner_graph(code.pcm)
