import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc, ndtr

from conftest import backprop_grads, fd_grads, rel_err
from crossmpt import autodiff as ad
from crossmpt.codes import get_code, list_codes
from crossmpt.gf2 import BinaryMatrix
from crossmpt.masks import NEG_INF, TannerGraph, tanner_graph


def rand(rng, *shape):
    return rng.standard_normal(shape)


class TestMatmul:
    def test_times_identity(self):
        rng = np.random.default_rng(0)
        a = rand(rng, 3, 4)
        out = ad.matmul(ad.constant(a), ad.constant(np.eye(4)))
        assert np.array_equal(out.data, a)

    def test_hand_computed_2x2(self):
        a = ad.constant([[1.0, 2.0], [3.0, 4.0]])
        b = ad.constant([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        params = {"a": ad.parameter(rand(rng, 4, 3)), "b": ad.parameter(rand(rng, 3, 5))}
        w = rand(rng, 4, 5)

        def fn(build=False):
            out = ad.reduce_sum(ad.mul(ad.matmul(params["a"], params["b"]), ad.constant(w)))
            return out if build else out.item()

        bp = backprop_grads(params, fn)
        fd = fd_grads(params, fn)
        assert rel_err(bp["a"], fd["a"]) < 1e-6
        assert rel_err(bp["b"], fd["b"]) < 1e-6

    def test_batched_matmul_shared_weight_grad(self):
        rng = np.random.default_rng(2)
        params = {"w": ad.parameter(rand(rng, 3, 2))}
        x = rand(rng, 5, 4, 3)

        def fn(build=False):
            out = ad.reduce_sum(ad.matmul(ad.constant(x), params["w"]))
            return out if build else out.item()

        bp = backprop_grads(params, fn)
        fd = fd_grads(params, fn)
        assert rel_err(bp["w"], fd["w"]) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.constant(np.ones((2, 3))), ad.constant(np.ones((2, 3))))


class TestMaskedSoftmax:
    def test_uniform_logits_no_mask(self):
        out = ad.masked_softmax(ad.constant(np.zeros((1, 4))), np.zeros((1, 4)))
        assert np.array_equal(out.data, np.full((1, 4), 0.25))

    def test_single_masked_column_exact(self):
        out = ad.masked_softmax(ad.constant([[1.7, 0.3]]), np.array([[0.0, NEG_INF]]))
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_matches_dense_softmax_on_kept_columns(self):
        # oracle: delete masked columns, dense softmax, re-embed zeros
        rng = np.random.default_rng(3)
        logits = rand(rng, 6, 9)
        support = rng.integers(0, 2, size=(6, 9)).astype(bool)
        support[:, 0] = True  # no fully-masked rows
        additive = np.where(support, 0.0, NEG_INF)
        out = ad.masked_softmax(ad.constant(logits), additive).data
        for i in range(6):
            kept = logits[i, support[i]]
            dense = np.exp(kept - kept.max())
            dense /= dense.sum()
            expected = np.zeros(9)
            expected[support[i]] = dense
            np.testing.assert_allclose(out[i], expected, rtol=1e-12, atol=0)

    def test_masked_positions_weight_and_grad_exactly_zero(self):
        rng = np.random.default_rng(4)
        logits = ad.parameter(rand(rng, 5, 7))
        support = rng.integers(0, 2, size=(5, 7)).astype(bool)
        support[:, 3] = True
        additive = np.where(support, 0.0, NEG_INF)
        out = ad.masked_softmax(logits, additive)
        assert (out.data[~support] == 0.0).all()
        assert abs(out.data.sum(axis=-1) - 1.0).max() < 1e-12
        ad.reduce_sum(ad.mul(out, ad.constant(rand(rng, 5, 7)))).backward()
        assert (logits.grad[~support] == 0.0).all()

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        support = rng.integers(0, 2, size=(4, 6)).astype(bool)
        support[:, 1] = True
        additive = np.where(support, 0.0, NEG_INF)
        w = rand(rng, 4, 6)
        params = {"x": ad.parameter(rand(rng, 4, 6))}

        def fn(build=False):
            out = ad.reduce_sum(ad.mul(ad.masked_softmax(params["x"], additive), ad.constant(w)))
            return out if build else out.item()

        assert rel_err(backprop_grads(params, fn)["x"], fd_grads(params, fn)["x"]) < 1e-5

    def test_fully_masked_row_raises(self):
        with pytest.raises(ValueError, match="fully masked"):
            ad.masked_softmax(ad.constant(np.zeros((1, 3))), np.full((1, 3), NEG_INF))

    def test_no_masked_entry_is_exponentiated(self, monkeypatch):
        # numpy's SIMD exp leaves its fast path on -inf lanes
        class FiniteExp:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def exp(x, *args, **kwargs):
                assert np.isfinite(x).all(), "exp of a masked entry"
                return np.exp(x, *args, **kwargs)

        monkeypatch.setattr(ad, "np", FiniteExp())
        rng = np.random.default_rng(7)
        for name in list_codes():
            graph = tanner_graph(get_code(name).pcm)
            for mask in (*graph.cross_masks, graph.ecct_mask):
                logits = ad.parameter(rand(rng, 2, *mask.shape))
                ad.masked_softmax(logits, mask.additive).backward(rand(rng, 2, *mask.shape))
                assert (logits.grad[:, ~mask.support] == 0.0).all()


class TestLayerNorm:
    def test_constant_row_returns_bias(self):
        x = ad.constant(np.full((2, 8), 3.7))
        gain = ad.constant(np.full(8, 2.0))
        bias = ad.constant(np.arange(8.0))
        out = ad.layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, np.tile(np.arange(8.0), (2, 1)), atol=1e-12)

    def test_already_normalized_row_unchanged(self):
        row = np.array([1.0, -1.0, 1.0, -1.0])
        out = ad.layer_norm(ad.constant(row[None]), ad.constant(np.ones(4)), ad.constant(np.zeros(4)))
        np.testing.assert_allclose(out.data, row[None], atol=1e-5)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        params = {
            "x": ad.parameter(rand(rng, 3, 5)),
            "gain": ad.parameter(rand(rng, 5)),
            "bias": ad.parameter(rand(rng, 5)),
        }
        w = rand(rng, 3, 5)

        def fn(build=False):
            out = ad.reduce_sum(
                ad.mul(ad.layer_norm(params["x"], params["gain"], params["bias"]), ad.constant(w))
            )
            return out if build else out.item()

        bp, fd = backprop_grads(params, fn), fd_grads(params, fn)
        for key in params:
            assert rel_err(bp[key], fd[key]) < 1e-5


class TestFfn:
    def test_zero_input_zero_biases_gives_zero(self):
        z2 = ad.constant(np.zeros((3, 4)))
        out = ad.ffn(z2, ad.constant(np.ones((4, 8))), ad.constant(np.zeros(8)),
                     ad.constant(np.ones((8, 4))), ad.constant(np.zeros(4)))
        assert np.array_equal(out.data, np.zeros((3, 4)))

    def test_identity_second_layer_acts_as_activated_projection(self):
        rng = np.random.default_rng(7)
        x = rand(rng, 2, 3)
        w1 = rand(rng, 3, 3)
        out = ad.ffn(ad.constant(x), ad.constant(w1), ad.constant(np.zeros(3)),
                     ad.constant(np.eye(3)), ad.constant(np.zeros(3)))
        np.testing.assert_allclose(out.data, ad.gelu(ad.constant(x @ w1)).data, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        params = {
            "w1": ad.parameter(rand(rng, 4, 8)),
            "b1": ad.parameter(rand(rng, 8)),
            "w2": ad.parameter(rand(rng, 8, 4)),
            "b2": ad.parameter(rand(rng, 4)),
        }
        x = rand(rng, 3, 4)
        w = rand(rng, 3, 4)

        def fn(build=False):
            out = ad.reduce_sum(ad.mul(
                ad.ffn(ad.constant(x), params["w1"], params["b1"], params["w2"], params["b2"]),
                ad.constant(w)))
            return out if build else out.item()

        bp, fd = backprop_grads(params, fn), fd_grads(params, fn)
        for key in params:
            assert rel_err(bp[key], fd[key]) < 1e-5


class TestPrimitiveGradients:
    """Every differentiable primitive passes central finite differences."""

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_gelu_gradient(self, seed):
        rng = np.random.default_rng(seed)
        params = {"x": ad.parameter(rng.standard_normal((2, 5)) * 2)}
        w = rng.standard_normal((2, 5))

        def fn(build=False):
            out = ad.reduce_sum(ad.mul(ad.gelu(params["x"]), ad.constant(w)))
            return out if build else out.item()

        # floor keeps near-zero entries on an absolute scale (FD noise ~1e-10)
        assert rel_err(backprop_grads(params, fn)["x"], fd_grads(params, fn)["x"], floor=1e-4) < 1e-5

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_softplus_gradient(self, seed):
        rng = np.random.default_rng(seed)
        params = {"x": ad.parameter(rng.standard_normal((3, 4)) * 5)}
        w = rng.standard_normal((3, 4))

        def fn(build=False):
            out = ad.reduce_sum(ad.mul(ad.softplus(params["x"]), ad.constant(w)))
            return out if build else out.item()

        assert rel_err(backprop_grads(params, fn)["x"], fd_grads(params, fn)["x"], floor=1e-4) < 1e-5

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_composite_random_graph(self, seed):
        rng = np.random.default_rng(seed)
        params = {"x": ad.parameter(rand(rng, 3, 4))}
        w = rand(rng, 3, 4)

        def fn(build=False):
            t = params["x"]
            t = ad.add(t, ad.gelu(t))
            t = ad.mul(t, ad.softplus(ad.neg(t)))
            t = ad.add(ad.scale(t, 0.7), ad.transpose(ad.constant(w.T)))
            t = ad.concat([t, ad.narrow(t, 0, 2, axis=-2)], axis=-2)
            out = ad.reduce_sum(ad.mul(t, t))
            return out if build else out.item()

        # floor keeps near-zero entries on an absolute scale (FD noise ~1e-10)
        assert rel_err(backprop_grads(params, fn)["x"], fd_grads(params, fn)["x"], floor=1e-4) < 1e-5

    def test_reshape_and_narrow_grads(self):
        rng = np.random.default_rng(9)
        params = {"x": ad.parameter(rand(rng, 2, 3, 4))}

        def fn(build=False):
            t = ad.reshape(params["x"], (2, 12))
            t = ad.narrow(t, 2, 9, axis=-1)
            out = ad.reduce_sum(ad.mul(t, t))
            return out if build else out.item()

        assert rel_err(backprop_grads(params, fn)["x"], fd_grads(params, fn)["x"]) < 1e-6


class TestBackwardContract:
    def test_repeated_backward_raises(self):
        x = ad.parameter(np.ones((2, 2)))
        out = ad.reduce_sum(ad.mul(x, x))
        out.backward()
        with pytest.raises(RuntimeError, match="already"):
            out.backward()

    def test_shared_subgraph_second_backward_raises(self):
        x = ad.parameter(np.ones((2, 2)))
        shared = ad.mul(x, x)
        first = ad.reduce_sum(shared)
        second = ad.reduce_sum(ad.add(shared, shared))
        first.backward()
        with pytest.raises(RuntimeError):
            second.backward()

    def test_grad_accumulates_across_fresh_graphs(self):
        x = ad.parameter(np.ones(3))
        ad.reduce_sum(ad.mul(x, ad.constant(np.ones(3)))).backward()
        ad.reduce_sum(ad.mul(x, ad.constant(np.ones(3)))).backward()
        assert np.array_equal(x.grad, np.full(3, 2.0))

    def test_nonscalar_backward_needs_seed(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.mul(x, x).backward()


# Reference formulas: the straightforward per-axis versions of the primitives
# that autodiff computes with fused, in-place or one-GEMM arithmetic. The
# rewrites sum in another order, so float64 results must agree to rtol 1e-12,
# float32 to a tolerance set from its epsilon. Entries that cancel to near
# zero get an atol of the same relative size, taken of the largest term that
# was summed: the largest entry, or for the layer-norm input gradient, whose
# terms cancel exactly when d=2, the largest inv * g * gain.
_TOL = {np.float64: (1e-12, 1e-12), np.float32: (2e-4, 2e-5)}


def ref_unbroadcast(grad, shape):
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def ref_layer_norm(x, gain, bias, g, eps=1e-5):
    """Output, (dx, dgain, dbias) and the largest term of dx, of layer norm
    with means by `mean(axis=-1)`."""
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv
    gx = g * gain
    m1 = gx.mean(axis=-1, keepdims=True)
    m2 = (gx * xhat).mean(axis=-1, keepdims=True)
    grads = (
        inv * (gx - m1 - xhat * m2),
        ref_unbroadcast(g * xhat, gain.shape),
        ref_unbroadcast(g, bias.shape),
    )
    return gain * xhat + bias, grads, float(np.abs(inv * gx).max())


def ref_gelu(x, g):
    """GELU and its input gradient, computed in float64 and rounded to x's
    dtype. Phi is `0.5 * erfc(-x / sqrt(2))`, which keeps the negative tail
    that `0.5 * (1 + erf)` cancels, in float32 below about x = -5.9 and in
    float64 below about x = -7."""
    x64 = x.astype(np.float64)
    cdf = 0.5 * erfc(-x64 / np.sqrt(2.0))
    pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x64 * x64)
    return (x64 * cdf).astype(x.dtype), (g * (cdf + x64 * pdf)).astype(x.dtype)


def ref_matmul_grads(a, b, g):
    return (
        ref_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape),
        ref_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape),
    )


def ref_masked_softmax(x, support, g):
    """Masked softmax and its input gradient, row by row in float64 and
    rounded to x's dtype: delete the masked columns, take a dense softmax,
    put the zeros back."""
    out, grad = np.zeros(x.shape), np.zeros(x.shape)
    for idx in np.ndindex(x.shape[:-1]):
        keep = support[idx[-1]]
        z = x[idx][keep].astype(np.float64)
        p = np.exp(z - z.max())
        p /= p.sum()
        gk = g[idx][keep].astype(np.float64)
        out[idx][keep] = p
        grad[idx][keep] = (gk - (gk * p).sum()) * p
    return out.astype(x.dtype), grad.astype(x.dtype)


def assert_matches(got, ref, dtype, scale=None):
    rtol, atol = _TOL[dtype]
    assert got.dtype == ref.dtype
    assert got.shape == ref.shape
    if scale is None:
        scale = float(np.abs(ref).max()) if ref.size else 0.0
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=atol * scale)


lead_axes = st.lists(st.integers(1, 5), min_size=0, max_size=2).map(tuple)
dtypes = st.sampled_from([np.float64, np.float32])
seeds = st.integers(0, 2**32 - 1)


class TestReferenceFormulas:
    @given(lead=lead_axes, d=st.integers(1, 64), dtype=dtypes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_layer_norm_matches_reference(self, lead, d, dtype, seed):
        rng = np.random.default_rng(seed)
        x = (3.0 * rng.standard_normal(lead + (d,)) + rng.standard_normal()).astype(dtype)
        gain = (1.0 + rng.standard_normal(d)).astype(dtype)
        bias = rng.standard_normal(d).astype(dtype)
        g = rng.standard_normal(lead + (d,)).astype(dtype)
        ref_out, (ref_x, ref_gain, ref_bias), x_terms = ref_layer_norm(x, gain, bias, g)
        tx, tg, tb = ad.parameter(x, dtype), ad.parameter(gain, dtype), ad.parameter(bias, dtype)
        out = ad.layer_norm(tx, tg, tb)
        out.backward(g)
        assert_matches(out.data, ref_out, dtype)
        assert_matches(tx.grad, ref_x, dtype, scale=x_terms)
        assert_matches(tg.grad, ref_gain, dtype)
        assert_matches(tb.grad, ref_bias, dtype)

    @given(lead=lead_axes, d=st.integers(1, 64), dtype=dtypes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_gelu_matches_reference(self, lead, d, dtype, seed):
        rng = np.random.default_rng(seed)
        x = (3.0 * rng.standard_normal(lead + (d,))).astype(dtype)
        t = ad.parameter(x, dtype)
        out = ad.gelu(t)
        g = rng.standard_normal(out.shape).astype(out.dtype)
        ref_out, ref_grad = ref_gelu(x, g)
        out.backward(g)
        assert_matches(out.data, ref_out, dtype)
        assert_matches(t.grad, ref_grad, dtype)

    @given(
        lead=lead_axes, m=st.integers(1, 9), k=st.integers(1, 64), n=st.integers(1, 64),
        batched_b=st.booleans(), dtype=dtypes, seed=seeds,
    )
    @settings(max_examples=60, deadline=None)
    def test_matmul_gradients_match_reference(self, lead, m, k, n, batched_b, dtype, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(lead + (m, k)).astype(dtype)
        b = rng.standard_normal((lead if batched_b else ()) + (k, n)).astype(dtype)
        ta, tb = ad.parameter(a, dtype), ad.parameter(b, dtype)
        out = ad.matmul(ta, tb)
        g = rng.standard_normal(out.shape).astype(dtype)
        out.backward(g)
        ref_a, ref_b = ref_matmul_grads(a, b, g)
        assert_matches(ta.grad, ref_a, dtype)
        assert_matches(tb.grad, ref_b, dtype)

    @given(m=st.integers(1, 6), n=st.integers(1, 12), lead=lead_axes, dtype=dtypes, seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_masked_softmax_matches_reference(self, m, n, lead, dtype, seed):
        # sparse (edge list) against dense (per row) on random toy PCMs; a
        # PCM with an empty row or column gives a fully masked cross row
        rng = np.random.default_rng(seed)
        graph = TannerGraph(BinaryMatrix(rng.integers(0, 2, size=(m, n))))
        for mask in (*graph.cross_masks, graph.ecct_mask):
            x = (3.0 * rng.standard_normal(lead + mask.shape)).astype(dtype)
            t = ad.parameter(x, dtype)
            if not mask.support.any(axis=1).all():
                with pytest.raises(ValueError, match="fully masked"):
                    ad.masked_softmax(t, mask.additive)
                continue
            out = ad.masked_softmax(t, mask.additive)
            g = rng.standard_normal(out.shape).astype(dtype)
            out.backward(g)
            ref_out, ref_grad = ref_masked_softmax(x, mask.support, g)
            assert_matches(out.data, ref_out, dtype)
            assert_matches(t.grad, ref_grad, dtype, scale=float(np.abs(g).max()))
            assert (out.data[..., ~mask.support] == 0).all()
            assert (t.grad[..., ~mask.support] == 0).all()


class TestGradientAliasing:
    def test_add_hands_each_operand_its_own_gradient(self):
        p = ad.parameter(np.ones((3, 4)))
        q = ad.parameter(np.ones((3, 4)))
        ad.reduce_sum(ad.add(p, q)).backward()
        assert p.grad is not q.grad
        p.grad[0, 0] = 7.0
        assert np.array_equal(q.grad, np.ones((3, 4)))

    @staticmethod
    def _graph():
        """A small graph over every shape-only primitive; returns the output,
        the graph's nodes, the leaf tensors and an interior tensor."""
        rng = np.random.default_rng(11)
        x = ad.parameter(rand(rng, 2, 3, 4))
        w = ad.parameter(rand(rng, 4, 4))
        b = ad.parameter(rand(rng, 4))
        h = ad.add(ad.matmul(x, w), b)
        u = ad.concat([h, ad.narrow(x, 1, 3, axis=-1)], axis=-1)
        v = ad.reshape(ad.transpose(u), (2, 18))
        out = ad.reduce_sum(ad.mul(ad.gelu(v), ad.neg(v)))
        nodes, stack = [], [out._node]
        while stack:
            node = stack.pop()
            if all(node is not seen for seen in nodes):
                nodes.append(node)
                stack.extend(node.parents)
        return out, nodes, (x, w, b), h

    def test_no_two_tensors_share_gradient_memory(self):
        # interior gradients are freed after use, so record each one as
        # backward hands it to its node's closure
        out, nodes, _, _ = self._graph()
        grads = []

        def recording(closure):
            def backward(g):
                grads.append(g)
                closure(g)
            return backward

        for node in nodes:
            if node.backward is not None:
                node.backward = recording(node.backward)
        out.backward()
        grads += [n.grad for n in nodes if not n.parents and n.grad is not None]
        assert len(grads) >= 8
        for i, gi in enumerate(grads):
            for gj in grads[i + 1:]:
                assert not np.shares_memory(gi, gj)

    def test_backward_keeps_only_leaf_gradients(self):
        out, nodes, leaves, h = self._graph()
        out.backward()
        interior = [n for n in nodes if n.parents]
        assert len(interior) >= 8
        assert {id(n) for n in nodes if not n.parents} == {id(t._node) for t in leaves}
        assert all(n.grad is None and n.backward is None for n in interior)
        assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)
        assert h.grad is None
        with pytest.raises(RuntimeError, match="already consumed"):
            ad.reduce_sum(ad.scale(h, 2.0)).backward()

    def test_untracked_results_build_no_node(self):
        a = ad.constant(np.ones((2, 3)))
        out = ad.gelu(ad.matmul(a, ad.transpose(a)))
        assert out._node is None and out._backward is None and out.grad is None
        with pytest.raises(RuntimeError, match="records no computation"):
            ad.reduce_sum(out).backward()

    def test_full_axis_narrow_records_a_node(self):
        # a slice over the whole axis is a new tensor like any other slice:
        # it has its own node, and its input's gradient is the incoming one
        x = ad.parameter(np.arange(6.0).reshape(2, 3))
        g = np.arange(6.0).reshape(2, 3) + 1.0
        for axis, size in ((-1, 3), (0, 2)):
            out = ad.narrow(x, 0, size, axis=axis)
            assert out is not x and out._node is not x._node
            assert out.data.tobytes() == x.data.tobytes()
            x.zero_grad()
            out.backward(g)
            assert x.grad.tobytes() == g.tobytes()


def _primitive_graphs():
    """One small graph per primitive: (name, parameter shapes, builder)."""
    mask = np.where(np.eye(4, dtype=bool) | (np.arange(4) % 2 == 0), 0.0, NEG_INF)  # float64
    return [
        ("matmul", [(2, 3, 4), (4, 5)], lambda a, b: ad.matmul(a, b)),
        ("transpose", [(3, 4)], lambda a: ad.transpose(a)),
        ("add", [(3, 4), (4,)], lambda a, b: ad.add(a, b)),
        ("mul", [(3, 4), (3, 4)], lambda a, b: ad.mul(a, b)),
        ("neg", [(3, 4)], lambda a: ad.neg(a)),
        ("scale", [(3, 4)], lambda a: ad.scale(a, 0.3)),
        ("concat", [(3, 4), (2, 4)], lambda a, b: ad.concat([a, b])),
        ("narrow", [(3, 4)], lambda a: ad.narrow(a, 1, 3)),
        ("reshape", [(3, 4)], lambda a: ad.reshape(a, (12,))),
        ("reduce_sum", [(3, 4)], lambda a: ad.reduce_sum(a)),
        ("masked_softmax", [(2, 4, 4)], lambda a: ad.masked_softmax(a, mask)),
        ("layer_norm", [(3, 4), (4,), (4,)], lambda a, g, b: ad.layer_norm(a, g, b)),
        ("gelu", [(3, 4)], lambda a: ad.gelu(a)),
        ("softplus", [(3, 4)], lambda a: ad.softplus(a)),
        ("ffn", [(3, 4), (4, 6), (6,), (6, 4), (4,)], lambda *p: ad.ffn(*p)),
    ]


class TestDtypes:
    @pytest.mark.parametrize("name,shapes,build", [pytest.param(*g, id=g[0]) for g in _primitive_graphs()])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_primitive_keeps_its_input_dtype(self, name, shapes, build, dtype):
        # float32 in gives float32 out and float32 gradients, even against
        # float64 constants such as an attention mask
        rng = np.random.default_rng(0)
        params = [ad.parameter(rng.standard_normal(shape), dtype=dtype) for shape in shapes]
        out = build(*params)
        assert out.dtype == dtype, name
        out.backward(np.ones(out.shape, dtype=dtype))
        assert all(p.grad.dtype == dtype for p in params), name

    def test_float64_gelu_unchanged_by_the_typed_constants(self):
        # the constants are float64 scalars for a float64 input, so the
        # float64 results are the formula's bit for bit
        x = 3.0 * np.random.default_rng(1).standard_normal((5, 7))
        t = ad.parameter(x)
        out = ad.gelu(t)
        out.backward(np.ones_like(x))
        cdf = ndtr(x)
        gx = np.square(x)
        gx *= -0.5
        np.exp(gx, out=gx)
        gx *= 1.0 / np.sqrt(2.0 * np.pi)
        gx *= x
        gx += cdf
        assert np.array_equal(out.data, x * cdf)
        assert np.array_equal(t.grad, gx)

    def test_float64_gelu_keeps_the_negative_tail(self):
        # float64 `1 + erf` cancels below about x = -7 (-3.6126e-14 against
        # -3.6329e-14 at the x below) and rounds to -0 below about x = -8.3
        x = np.array([-7.7474136, -10.0])
        out = ad.gelu(ad.parameter(x)).data
        exact = x * 0.5 * erfc(-x / np.sqrt(2.0))
        np.testing.assert_allclose(out[0], exact[0], rtol=1e-12)
        assert out[1] < 0

    def test_float32_gelu_keeps_the_negative_tail(self):
        # float32 `1 + erf` rounds to 0 below about x = -5.9; the float32 path
        # must follow a float64 reference, rounded to float32, over [-40, 40]
        x = np.linspace(-40.0, 40.0, 80_001, dtype=np.float32)
        t = ad.parameter(x, np.float32)
        out = ad.gelu(t)
        out.backward(np.ones_like(x))
        x64 = x.astype(np.float64)
        cdf = 0.5 * erfc(-x64 / np.sqrt(2.0))
        ref = (x64 * cdf).astype(np.float32)
        ref_grad = (cdf + x64 * np.exp(-0.5 * x64 * x64) / np.sqrt(2.0 * np.pi)).astype(np.float32)
        # subnormal outputs keep only their absolute precision
        np.testing.assert_allclose(out.data, ref, rtol=3e-5, atol=1e-42)
        normal = np.abs(ref) >= np.finfo(np.float32).tiny
        assert (out.data[normal] != 0).all()
        assert out.data[x == -10.0][0] < 0
        # the gradient crosses zero near x = -0.75, where only an absolute
        # bound holds; in the negative tail it is relatively accurate
        np.testing.assert_allclose(t.grad, ref_grad, rtol=1e-5, atol=1e-6)
        tail = (x < -3.0) & (np.abs(ref_grad) >= np.finfo(np.float32).tiny)
        np.testing.assert_allclose(t.grad[tail], ref_grad[tail], rtol=1e-5)
