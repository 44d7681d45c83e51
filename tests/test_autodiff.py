import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbgae import autodiff as ad
from dbgae import kernels, runtime
from dbgae.errors import AutodiffError, DimensionError
from oracles import (
    attention_chain,
    bilinear_logits_chain,
    grad_check,
    head_mean_relu_chain,
    hidden_width_reference,
    label_block_reference,
    leaky_relu,
    mul,
    propagate_reference,
    row_sum,
    scale,
    segment_softmax,
    softmax_reference,
    swap_halves,
)


def finite_difference(loss_fn, param, coord, step=1e-6):
    flat = param.value.reshape(-1)
    original = flat[coord]
    flat[coord] = original + step
    up = float(loss_fn().value[0, 0])
    flat[coord] = original - step
    down = float(loss_fn().value[0, 0])
    flat[coord] = original
    return (up - down) / (2 * step)


def check_all_coords(loss_fn, params, tol=1e-6, step=1e-6):
    # Denominator floor 1e-4: central differences at the default step carry
    # ~1e-10 absolute noise, so coordinates with near-zero gradients are
    # compared absolutely.
    ad.zero_grads(params.values())
    loss = loss_fn()
    ad.backward(loss)
    for name, p in params.items():
        grad = ad.grad_or_zeros(p)
        for coord in range(p.value.size):
            numeric = finite_difference(loss_fn, p, coord, step)
            analytic = grad.reshape(-1)[coord]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4)
            assert rel < tol, f"{name}[{coord}]: analytic {analytic}, numeric {numeric}"
    ad.zero_grads(params.values())


class TestForwardBasics:
    def test_identity_matmul(self):
        x = ad.constant(np.arange(6.0).reshape(2, 3))
        out = ad.matmul(ad.constant(np.eye(2)), x)
        np.testing.assert_array_equal(out.value, x.value)

    def test_relu_zeroes_negative_tensor(self):
        out = ad.relu(ad.constant(-np.ones((2, 2))))
        np.testing.assert_array_equal(out.value, np.zeros((2, 2)))

    def test_forward_is_pure(self):
        rng = np.random.default_rng(1)
        a = ad.constant(rng.standard_normal((3, 3)))
        b = ad.constant(rng.standard_normal((3, 3)))
        first = ad.matmul(a, b).value
        second = ad.matmul(a, b).value
        np.testing.assert_array_equal(first, second)

    def test_shape_mismatch_names_op(self):
        with pytest.raises(DimensionError, match="matmul"):
            ad.matmul(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 3))))
        with pytest.raises(DimensionError, match="add"):
            ad.add(ad.constant(np.zeros((2, 3))), ad.constant(np.zeros((2, 2))))
        path = kernels.DenseBlockPath(ad.RowIndex([0, 1]), np.ones((1, 2)), np.array([0]), 1)
        with pytest.raises(DimensionError, match="propagate"):
            ad.propagate(ad.constant([[1.0, 2.0]]), path)
        with pytest.raises(DimensionError, match="slice_rows"):
            ad.slice_rows(ad.constant(np.ones((2, 3))), 1, 3)


class TestBackwardBasics:
    def test_sum_of_linear_map_gradient(self):
        rng = np.random.default_rng(2)
        W = ad.parameter(rng.standard_normal((3, 4)))
        x = ad.constant(rng.standard_normal((4, 1)))
        # the mean of the 3 outputs times 3 is their sum
        ad.backward(scale(ad.mean_all(ad.matmul(W, x)), 3.0))
        np.testing.assert_allclose(W.grad, np.ones((3, 1)) @ x.value.T)

    def test_unused_parameter_gets_zero_gradient(self):
        used = ad.parameter(np.ones((1, 1)))
        unused = ad.parameter(np.ones((2, 2)))
        ad.backward(scale(used, 3.0))
        np.testing.assert_array_equal(ad.grad_or_zeros(unused), np.zeros((2, 2)))

    def test_slice_rows_adds_into_its_rows_alone(self):
        rng = np.random.default_rng(3)
        a = ad.parameter(rng.standard_normal((5, 3)))
        g1, g2 = rng.standard_normal((2, 3)), rng.standard_normal((3, 3))
        top, bottom = ad.slice_rows(a, 1, 3), ad.slice_rows(a, 2, 5)
        np.testing.assert_array_equal(top.value, a.value[1:3])
        # Overlapping slices, and ``a`` itself: every gradient adds up.
        ad.backward(
            ad.add(
                ad.add(ad.mean_all(mul(top, ad.constant(g1))), ad.mean_all(a)),
                ad.mean_all(mul(bottom, ad.constant(g2))),
            )
        )
        expected = np.full((5, 3), 1 / 15)
        expected[1:3] += g1 / 6
        expected[2:5] += g2 / 9
        np.testing.assert_allclose(a.grad, expected, rtol=1e-14)

    def test_fanout_accumulates(self):
        w = ad.parameter(np.full((1, 1), 1.5))
        loss = ad.add(scale(w, 2.0), scale(w, 3.0))
        ad.backward(loss)
        assert w.grad[0, 0] == pytest.approx(5.0)

    def test_backward_requires_scalar(self):
        w = ad.parameter(np.ones((2, 2)))
        with pytest.raises(AutodiffError, match="scalar"):
            ad.backward(scale(w, 1.0))

    @staticmethod
    def _two_layer_loss():
        rng = np.random.default_rng(4)
        W1 = ad.parameter(rng.standard_normal((3, 4)))
        W2 = ad.parameter(rng.standard_normal((4, 2)))
        x = ad.constant(rng.standard_normal((5, 3)))
        hidden = ad.relu(ad.matmul(x, W1))
        loss = ad.mean_all(mul(ad.matmul(hidden, W2), ad.matmul(hidden, W2)))
        return loss, hidden, (W1, W2), x

    def test_backward_consumes_the_graph(self):
        loss, _, params, x = self._two_layer_loss()
        interior, stack = [], [loss]
        while stack:
            node = stack.pop()
            if node.parents:
                interior.append(node)
            stack.extend(node.parents)
        ad.backward(loss)
        assert interior and all(node.parents == () for node in interior)
        assert [node.grad for node in interior if node.grad is not None] == []
        assert [node for node in interior if getattr(node.backward_fn, "__closure__", None)] == []
        assert all(p.grad is not None and p.grad.shape == p.shape for p in params)
        assert x.grad is None

    def test_second_backward_raises_and_leaves_gradients_alone(self):
        loss, hidden, params, x = self._two_layer_loss()
        ad.backward(loss)
        grads = [p.grad.copy() for p in params]
        with pytest.raises(AutodiffError, match="consumed"):
            ad.backward(loss)
        # a new loss through a consumed node fails before its fresh branch
        # writes any gradient
        fresh = ad.mean_all(ad.matmul(x, params[0]))
        for loss in (ad.add(ad.mean_all(hidden), fresh), ad.add(fresh, ad.mean_all(hidden))):
            with pytest.raises(AutodiffError, match="consumed"):
                ad.backward(loss)
        for p, g in zip(params, grads):
            np.testing.assert_array_equal(p.grad, g)


class TestMatmulBackward:
    def test_skips_the_product_for_an_input_without_gradient(self):
        rng = np.random.default_rng(4)
        a = ad.constant(rng.standard_normal((1000, 1000)))
        b = ad.parameter(rng.standard_normal((1000, 1)))
        loss = ad.mean_all(ad.matmul(a, b))
        tracemalloc.start()
        try:
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a's product g @ b.T would be 1000 x 1000 floats: 8 MB.
        assert peak < 100_000
        assert a.grad is None
        np.testing.assert_allclose(b.grad, a.value.mean(axis=0).reshape(-1, 1))


def _bounded_array(rng, shape, low=-2.0, high=2.0, away_from_zero=0.0):
    arr = rng.uniform(low, high, size=shape)
    if away_from_zero:
        arr = np.where(np.abs(arr) < away_from_zero, away_from_zero * np.sign(arr) + (arr == 0) * away_from_zero, arr)
    return arr


class TestPrimitiveGradients:
    """Every primitive against central finite differences on random tensors."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    @example(seed=759)  # failed at step 1e-6: relative error 1.22e-6 on B[1]
    def test_matmul_add_mul(self, seed):
        rng = np.random.default_rng(seed)
        A = ad.parameter(rng.standard_normal((3, 4)))
        B = ad.parameter(rng.standard_normal((4, 2)))
        bias = ad.parameter(rng.standard_normal((1, 2)))
        scale_col = ad.parameter(rng.standard_normal((3, 1)))

        def loss():
            out = ad.add(ad.matmul(A, B), bias)
            return ad.mean_all(mul(out, scale_col))

        # The loss is linear in each single coordinate, so the central
        # difference is exact at any step, and a step of 1 divides the
        # rounding noise of the two losses by 1e6 against the default.
        check_all_coords(loss, {"A": A, "B": B, "bias": bias, "col": scale_col}, step=1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    @example(seed=4724)  # failed at step 1e-6: relative error 1.05e-6 on X[6]
    def test_relu_family_away_from_kinks(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(_bounded_array(rng, (4, 3), away_from_zero=0.2))
        weights = ad.constant(rng.standard_normal((4, 3)))

        def loss():
            return ad.mean_all(mul(ad.add(ad.relu(X), leaky_relu(X, 0.2)), weights))

        # Every |x| is at least 0.2, so a step of 0.1 stays on one side of the
        # kink, where the loss is linear in the coordinate: the difference is
        # exact, with 1e5 times less rounding noise than at the default step.
        check_all_coords(loss, {"X": X}, step=0.1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    @example(seed=4010)  # failed at step 1e-6: relative error 1.27e-6 on Y[3]
    def test_concat_rowsum(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(rng.uniform(0.5, 3.0, size=(3, 2)))
        Y = ad.parameter(rng.uniform(0.5, 3.0, size=(3, 3)))
        weights = ad.constant(rng.standard_normal((3, 5)))

        def loss():
            return ad.mean_all(row_sum(mul(ad.concat_cols([X, Y]), weights)))

        # linear in each single coordinate, as in test_matmul_add_mul
        check_all_coords(loss, {"X": X, "Y": Y}, step=1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gather_rows(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(rng.standard_normal((5, 3)))
        idx = ad.RowIndex(rng.integers(0, 5, size=8))
        weights = ad.constant(rng.standard_normal((8, 3)))

        def loss():
            return ad.mean_all(mul(ad.gather_rows(X, idx), weights))

        check_all_coords(loss, {"X": X})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_segment_softmax_grad(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(rng.standard_normal((8, 1)))
        seg = ad.RowIndex(np.sort(rng.integers(0, 3, size=8)))
        weights = ad.constant(rng.standard_normal((8, 1)))

        def loss():
            return ad.mean_all(mul(segment_softmax(X, seg), weights))

        check_all_coords(loss, {"X": X})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_cross_entropy_grad(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(rng.standard_normal((5, 4)))
        targets = rng.integers(0, 4, size=5)

        def loss():
            return ad.mean_all(ad.cross_entropy(X, targets))

        check_all_coords(loss, {"X": X})


class TestSegmentSoftmax:
    def test_single_member_segment_is_one(self):
        out = segment_softmax(ad.constant(np.array([[2.5]])), ad.RowIndex([0]))
        assert out.value[0, 0] == pytest.approx(1.0)

    def test_equal_logits_split_evenly(self):
        out = segment_softmax(
            ad.constant(np.array([[1.0], [1.0]])), ad.RowIndex([0, 0])
        )
        np.testing.assert_allclose(out.value[:, 0], [0.5, 0.5])

    def test_log3_example(self):
        out = segment_softmax(
            ad.constant(np.array([[0.0], [np.log(3.0)]])), ad.RowIndex([0, 0])
        )
        np.testing.assert_allclose(out.value[:, 0], [0.25, 0.75], atol=1e-12)

    def test_segments_sum_to_one(self):
        rng = np.random.default_rng(3)
        seg = rng.integers(0, 5, size=20)
        out = segment_softmax(ad.constant(rng.standard_normal((20, 1))), ad.RowIndex(seg))
        sums = np.zeros(5)
        np.add.at(sums, seg, out.value[:, 0])
        np.testing.assert_allclose(sums[np.unique(seg)], 1.0, atol=1e-12)

    def test_matches_reference_per_segment(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(9)
        seg = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        out = segment_softmax(ad.constant(values.reshape(-1, 1)), ad.RowIndex(seg))
        for s in np.unique(seg):
            members = seg == s
            np.testing.assert_allclose(
                out.value[members, 0], softmax_reference(values[members]), atol=1e-12
            )


class TestGradCheck:
    def test_linear_model_is_exact(self):
        rng = np.random.default_rng(5)
        W = ad.parameter(rng.standard_normal((4, 3)))
        x = ad.constant(rng.standard_normal((3, 2)))

        def loss():
            return ad.mean_all(ad.matmul(W, x))

        report = grad_check(loss, {"W": W}, samples_per_param=12)
        assert report.max_rel_error < 1e-9

    def test_kink_coordinate_excluded(self):
        # pre-activation exactly zero at the checked coordinate
        W = ad.parameter(np.zeros((1, 1)))

        def loss():
            return ad.mean_all(ad.relu(W))

        report = grad_check(loss, {"W": W}, samples_per_param=1)
        assert report.entries[0].skipped == 1
        assert report.entries[0].checked == 0

    def test_nonlinear_composite_within_tolerance(self):
        rng = np.random.default_rng(6)
        W1 = ad.parameter(rng.standard_normal((3, 5)) * 0.7)
        W2 = ad.parameter(rng.standard_normal((5, 2)) * 0.7)
        x = ad.constant(rng.standard_normal((4, 3)))
        targets = rng.integers(0, 2, size=4)

        def loss():
            hidden = ad.relu(ad.matmul(x, W1))
            return ad.mean_all(ad.cross_entropy(ad.matmul(hidden, W2), targets))

        report = grad_check(loss, {"W1": W1, "W2": W2}, samples_per_param=30)
        assert report.max_rel_error < 1e-6


KERNELS = (kernels.DenseBlockPath, kernels.SparsePath)


@st.composite
def bipartite_paths(draw):
    """(num_left, num_right, targets) of a path's directed list: its
    undirected pairs as targets ``[inst | lab + n]``, whose sources are the
    two halves swapped.  Duplicate pairs, isolated nodes, one-sided and
    empty paths all occur."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    pairs = (
        draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=12))
        if n and m
        else []
    )
    inst = np.array([i for i, _ in pairs], dtype=int)
    lab = np.array([j for _, j in pairs], dtype=int)
    return n, m, np.concatenate([inst, lab + n])


def path_index(n, inst, lab):
    """A path's target index ``[inst | lab + n]``, as ``prepare_graph`` builds it."""
    return ad.RowIndex(np.concatenate([inst, lab + n]))


def node_inputs(n, m, d, num_classes, seed):
    """Instance features (n x d) and label classes (m) of a path's nodes,
    and the zero-padded node table ``[x | 0]`` over ``[0 | onehot]`` they
    stand for, which the per-edge and hidden-width oracles take."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    classes = rng.integers(0, num_classes, size=m)
    feats = np.zeros((n + m, d + num_classes))
    feats[:n, :d] = x
    feats[n + np.arange(m), d + classes] = 1.0
    return x, classes, feats


def close(actual, expected, rel=1e-12):
    """Whether ``actual`` is within ``rel`` of ``expected``, relative to
    ``expected``'s largest magnitude (its entries may cancel to zero)."""
    if expected.size == 0:
        return actual.shape == expected.shape
    return np.abs(actual - expected).max() <= rel * max(np.abs(expected).max(), 1e-300)


class TestPropagate:
    @settings(max_examples=150, deadline=None)
    @given(
        path=bipartite_paths(),
        d=st.integers(1, 4),
        num_classes=st.integers(1, 3),
        seed=st.integers(0, 10_000),
    )
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernels_match_per_edge_oracle(self, kernel, path, d, num_classes, seed):
        n, m, dst = path
        src = swap_halves(dst)
        x, classes, feats = node_inputs(n, m, d, num_classes, seed)
        rng = np.random.default_rng(seed + 1)
        g = rng.standard_normal(feats.shape)
        coef = rng.standard_normal(len(src))
        out_ref, _, grad_coef_ref = propagate_reference(feats, coef, src, dst, g)
        p = kernel(ad.RowIndex(dst), x, classes, num_classes)
        half = len(dst) // 2
        # Each side is its block of the padded table's messages; the other
        # blocks are zero.
        sides = [
            (p.into_instances, p.instance_grad, slice(0, half), np.s_[:n, d:]),
            (p.into_labels, p.label_grad, slice(half, None), np.s_[n:, :d]),
        ]
        for messages, coef_grad, edges, block in sides:
            np.testing.assert_allclose(messages(coef[edges]), out_ref[block], rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                coef_grad(g[block]), grad_coef_ref[edges], rtol=0, atol=1e-12
            )
        assert not out_ref[:n, :d].any() and not out_ref[n:, d:].any()

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 14),
        m=st.integers(1, 14),
        data=st.data(),
        d=st.integers(1, 4),
        num_classes=st.integers(1, 3),  # few classes: labels repeat them
        width=st.integers(1, 5),
        chunk=st.one_of(st.none(), st.integers(8, 400)),
        seed=st.integers(0, 10_000),
    )
    @example(n=3, m=2, data=[], d=2, num_classes=1, width=3, chunk=None, seed=0)
    @example(n=1, m=2, data=[(0, 1)], d=2, num_classes=2, width=3, chunk=8, seed=1)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_matches_the_hidden_width_reference(
        self, kernel, n, m, data, d, num_classes, width, chunk, seed
    ):
        # The feature-width op and the transform after it against A·(X·W) at
        # the hidden width: output, and the gradients of the coefficients and
        # of W.  The examples give their pairs as ``data``: none, or one.
        if isinstance(data, list):
            pairs = data
        else:
            pairs = data.draw(
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), max_size=40)
            )
        inst = np.array([i for i, _ in pairs], dtype=int)
        lab = np.array([j for _, j in pairs], dtype=int)
        dst = np.concatenate([inst, lab + n])
        src = swap_halves(dst)
        x, classes, feats = node_inputs(n, m, d, num_classes, seed)
        rng = np.random.default_rng(seed + 1)
        W = rng.standard_normal((d + num_classes, width))
        coef, weight = rng.random((len(dst), 1)), rng.random((len(dst), 1))
        g = rng.standard_normal((n + m, width))
        ref_out, ref_coef, ref_W = hidden_width_reference(
            feats, W, (coef * weight)[:, 0], src, dst, n, m, g
        )
        with chunk_bytes(chunk or kernels.DENSE_CHUNK_BYTES):
            p = kernel(ad.RowIndex(dst), x, classes, num_classes)
            W_t, alpha = ad.parameter(W), ad.parameter(coef)
            into_inst, into_lab = ad.propagate(alpha, p, weight=weight)
            out_inst = ad.matmul(into_inst, ad.slice_rows(W_t, d, d + num_classes))
            out_lab = ad.matmul(into_lab, ad.slice_rows(W_t, 0, d))
            ad.backward(
                ad.add(
                    ad.mean_all(mul(out_inst, ad.constant(g[:n] * out_inst.value.size))),
                    ad.mean_all(mul(out_lab, ad.constant(g[n:] * out_lab.value.size))),
                )
            )
        assert close(np.concatenate([out_inst.value, out_lab.value]), ref_out)
        assert close(ad.grad_or_zeros(alpha)[:, 0], ref_coef * weight[:, 0])
        assert close(W_t.grad, ref_W)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_grad_check(self, kernel):
        n, m, d = 3, 4, 3
        inst = np.array([0, 0, 1, 2, 2, 2])
        lab = np.array([0, 3, 1, 1, 2, 2])  # (2, 2) twice
        x, classes, _ = node_inputs(n, m, d, 2, seed=7)
        rng = np.random.default_rng(8)
        p = kernel(path_index(n, inst, lab), x, classes, 2)
        W = ad.parameter(rng.standard_normal((d + 2, 5)))
        coef = ad.parameter(rng.standard_normal((len(p), 1)))
        weights = rng.standard_normal((n + m, 5))

        def loss():
            into_inst, into_lab = ad.propagate(coef, p)
            out_inst = ad.matmul(into_inst, ad.slice_rows(W, d, d + 2))
            out_lab = ad.matmul(into_lab, ad.slice_rows(W, 0, d))
            return ad.add(
                ad.mean_all(mul(out_inst, ad.constant(weights[:n]))),
                ad.mean_all(mul(out_lab, ad.constant(weights[n:]))),
            )

        report = grad_check(loss, {"W": W, "coef": coef}, samples_per_param=64)
        assert report.max_rel_error <= 1e-4
        assert all(e.checked == min(64, size) for e, size in zip(report.entries, (25, 12)))

    def test_constant_coefficients_get_no_gradient(self):
        # One pair: its edge into the instance carries the label's one-hot
        # (class 0 of 1) at coefficient 2, its edge into the label x at 0.
        p = kernels.SparsePath(ad.RowIndex([0, 1]), np.array([[1.0, -1.0]]), np.array([0]), 1)
        W = ad.parameter(np.ones((3, 3)))
        coef = ad.constant([[2.0], [0.0]])
        into_inst, into_lab = ad.propagate(coef, p)
        out_inst = ad.matmul(into_inst, ad.slice_rows(W, 2, 3))
        out_lab = ad.matmul(into_lab, ad.slice_rows(W, 0, 2))
        ad.backward(ad.mean_all(ad.concat_cols([out_inst, out_lab])))  # one row each
        assert coef.grad is None
        np.testing.assert_allclose(W.grad, [[0.0] * 3, [0.0] * 3, [2.0 / 6] * 3])

    def test_dense_kernel_holds_one_block_at_a_time(self):
        rng = np.random.default_rng(9)
        n, m, d = 200, 150, 4
        pairs = rng.choice(n * m, size=n * m // 10, replace=False)
        inst, lab = pairs // m, pairs % m
        x, classes, _ = node_inputs(n, m, d, 3, seed=9)
        p = kernels.DenseBlockPath(path_index(n, inst, lab), x, classes, 3)
        half = len(p) // 2
        coef = rng.standard_normal(half)
        g = rng.standard_normal((m, d))
        # One block, or its edge-dot product; the output, the labels' rows
        # or a coefficient per edge into a label; the edges into labels'
        # flat positions and their share, gathered for np.bincount or from
        # the product; and 8 KiB of the interpreter's objects.
        for call, arg, out in ((p.into_labels, coef, m * d), (p.label_grad, g, half)):
            bound = n * m * 8 + out * 8 + len(p) * 8 + 8 * 1024
            tracemalloc.start()
            try:
                call(arg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, f"{call.__name__}: peak {peak} bytes over {bound}"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_edge_within_one_side_is_rejected(self, kernel):
        with pytest.raises(DimensionError, match="an instance row and a label row"):
            kernel(ad.RowIndex([0, 1]), np.zeros((2, 1)), np.zeros(1, dtype=int), 1)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "targets, message",
        [([0, 2, 1], "two halves"), ([0, 3], "outside"), ([-1, 2], "outside")],
        ids=["odd-length", "row-above", "row-below"],
    )
    def test_a_list_that_is_not_a_path_is_rejected(self, kernel, targets, message):
        with pytest.raises(DimensionError, match=message):
            kernel(ad.RowIndex(targets), np.zeros((2, 1)), np.zeros(1, dtype=int), 1)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_weight_equals_a_mul_node_bit_for_bit(self, kernel):
        rng = np.random.default_rng(11)
        n, m, d = 5, 4, 3
        pairs = rng.choice(n * m, size=12, replace=False)
        inst, lab = pairs // m, pairs % m
        x, classes, _ = node_inputs(n, m, d, 2, seed=11)
        p = kernel(path_index(n, inst, lab), x, classes, 2)
        w = rng.standard_normal((d + 2, 3))
        coef, weight = rng.random((len(p), 1)), rng.random((len(p), 1))
        upstream = rng.standard_normal((n + m, 3))
        results = []
        for fused in (True, False):
            W, alpha = ad.parameter(w.copy()), ad.parameter(coef.copy())
            if fused:
                into_inst, into_lab = ad.propagate(alpha, p, weight=weight)
            else:
                into_inst, into_lab = ad.propagate(mul(alpha, ad.constant(weight)), p)
            out_inst = ad.matmul(into_inst, ad.slice_rows(W, d, d + 2))
            out_lab = ad.matmul(into_lab, ad.slice_rows(W, 0, d))
            ad.backward(
                ad.add(
                    ad.mean_all(mul(out_inst, ad.constant(upstream[:n]))),
                    ad.mean_all(mul(out_lab, ad.constant(upstream[n:]))),
                )
            )
            results.append((out_inst.value, out_lab.value, W.grad, alpha.grad))
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_weight_shape_is_checked(self):
        p = kernels.SparsePath(ad.RowIndex([0, 1]), np.ones((1, 2)), np.array([0]), 1)
        coef = ad.parameter(np.ones((2, 1)))
        with pytest.raises(DimensionError, match="weights"):
            ad.propagate(coef, p, weight=np.ones((1, 1)))


@contextmanager
def chunk_bytes(value):
    """Run the body with ``kernels.DENSE_CHUNK_BYTES`` set to ``value``."""
    saved, kernels.DENSE_CHUNK_BYTES = kernels.DENSE_CHUNK_BYTES, value
    try:
        yield
    finally:
        kernels.DENSE_CHUNK_BYTES = saved


def chunked(p) -> bool:
    """Whether dense kernel ``p`` applies its block in more than one row chunk."""
    return len(kernels.row_chunks(p.num_labels, p.num_instances)) > 2


def path_kernel(n, m, inst, lab, d=3, num_classes=3, seed=0):
    """A path's dense kernel as ``prepare_graph`` builds it, over random
    node features."""
    x, classes, _ = node_inputs(n, m, d, num_classes, seed)
    return kernels.DenseBlockPath(path_index(n, inst, lab), x, classes, num_classes)


def whole_block(p, coef, g=None):
    """``label_block_reference`` over the edges of kernel ``p``: ``R·x``, or
    with ``g`` (the labels' gradient, m x d) the edge dots into labels."""
    n, half = p.num_instances, len(p) // 2
    inst, lab = p.targets.idx[:half], p.targets.idx[half:] - n
    return label_block_reference(coef[half:], p.x, inst, lab, p.num_labels, g)


def label_side(p, coef, g):
    """The kernel's ``R·x`` and its edge dots into labels."""
    return p.into_labels(coef[len(p) // 2 :]), p.label_grad(g)


class TestDenseRowChunks:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 14),
        m=st.integers(1, 14),
        data=st.data(),
        chunk=st.integers(8, 400),
        d=st.integers(2, 5),  # one column is a matrix-vector product (see row_chunks)
        threads=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_chunks_of_small_blocks_agree_with_whole_blocks(
        self, n, m, data, chunk, d, threads, seed
    ):
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), min_size=1, max_size=40)
        )
        inst, lab = (np.array(side, dtype=int) for side in zip(*pairs))
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal(2 * len(pairs))
        g = rng.standard_normal((m, d))
        with chunk_bytes(chunk), runtime.sharing(threads):
            p = path_kernel(n, m, inst, lab, d=d, seed=seed)
            # Chunks hold at least 4 rows, so blocks of 4 rows or fewer are one chunk.
            assert chunked(p) == (8 * n * m > 2 * chunk and m > 4)
            forward, dots = label_side(p, coef, g)
            assert np.array_equal(forward, whole_block(p, coef))
            assert np.array_equal(dots, whole_block(p, coef, g))

    def test_ragged_and_empty_chunks_keep_the_floats(self):
        # Chunks of 50 rows: every product has over 10**6 multiply-adds.
        rng = np.random.default_rng(3)
        n, m, d = 700, 600, 32
        pairs = rng.choice(n * m, size=n * m // 15, replace=False)
        inst, lab = pairs // m, pairs % m
        keep = np.flatnonzero((lab < 100) | (lab >= 250))  # label rows 100-249 have no edges
        keep = np.concatenate([keep, keep[:50]])  # 50 pairs twice: they add up in their cell
        inst, lab = inst[keep], lab[keep]
        coef = rng.standard_normal(2 * len(inst))
        g = rng.standard_normal((m, d))
        with chunk_bytes(300_000):
            bounds = kernels.row_chunks(m, n)
            p = path_kernel(n, m, inst, lab, d=d)
            assert chunked(p)
            for threads in (False, True):
                with runtime.sharing(threads):
                    forward, dots = label_side(p, coef, g)
                    assert np.array_equal(forward, whole_block(p, coef))
                    assert np.array_equal(dots, whole_block(p, coef, g))
        assert set(np.diff(bounds)) == {50}
        empty = [not np.any((lab >= lo) & (lab < hi)) for lo, hi in zip(bounds, bounds[1:])]
        assert 0 < sum(empty) < len(empty)

    @pytest.mark.parametrize(
        "rows, cols",
        [(1, 5), (3, 100), (4, 1), (1210, 1168), (2427, 2392), (7, 0), (300, 290), (3, 50_000)],
    )
    def test_row_chunks_are_even_and_bounded(self, rows, cols):
        bounds = kernels.row_chunks(rows, cols)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == rows
        assert sizes.max() - sizes.min() <= 1
        if rows * cols * 8 <= 2 * kernels.DENSE_CHUNK_BYTES:
            assert len(sizes) == 1
        else:
            assert all(s * cols * 8 <= kernels.DENSE_CHUNK_BYTES or s <= 4 for s in sizes)
        assert sizes.min() >= min(rows, 2)

    def test_a_block_of_two_chunks_stays_whole(self):
        n, m = 6, 5
        inst, lab = np.arange(n), np.arange(n) % m
        rng = np.random.default_rng(5)
        coef, g = rng.standard_normal(2 * n), rng.standard_normal((m, 3))
        with chunk_bytes(8 * n * m // 2):
            p = path_kernel(n, m, inst, lab)
            assert not chunked(p)
            assert kernels.row_chunks(m, n) == [0, m]
            forward, dots = label_side(p, coef, g)
            assert np.array_equal(forward, whole_block(p, coef))
            assert np.array_equal(dots, whole_block(p, coef, g))
        with chunk_bytes(8 * n * m // 2 - 1):
            assert chunked(path_kernel(n, m, inst, lab))

    @pytest.mark.parametrize("groups", [200, 400, 800, 1600])
    def test_benchmark_cross_paths(self, groups):
        from dataclasses import replace

        from dbgae.benchmark import (
            benchmark_generator_config,
            benchmark_graph_config,
            benchmark_model_config,
        )
        from dbgae.data import generate_synthetic
        from dbgae.graph import build_dual_graph
        from dbgae.model import prepare_graph

        gc = benchmark_graph_config()
        generator = replace(benchmark_generator_config(0), num_groups=groups)
        graph = build_dual_graph(
            generate_synthetic(generator), eps=gc.eps, min_pts=gc.min_pts, threshold=gc.threshold
        )
        path = prepare_graph(graph, benchmark_model_config(0)).paths["cross"]
        p = path.edges
        assert chunked(p) == (groups > 200)
        rng = np.random.default_rng(groups)
        coef = rng.random(len(p))
        g = rng.standard_normal((p.num_labels, p.feature_dim))
        with runtime.sharing(True):
            forward, dots = label_side(p, coef, g)
        assert np.array_equal(forward, whole_block(p, coef))
        assert np.array_equal(dots, whole_block(p, coef, g))

    def test_a_chunked_apply_holds_two_chunks_and_its_output(self):
        rng = np.random.default_rng(9)
        n, m, d = 200, 150, 4
        pairs = rng.choice(n * m, size=n * m // 10, replace=False)
        inst, lab = pairs // m, pairs % m
        with chunk_bytes(16 * 1024), runtime.sharing(True):
            p = path_kernel(n, m, inst, lab, d=d)
            half = len(p) // 2
            coef = rng.standard_normal(half)
            g = rng.standard_normal((m, d))
            bounds = kernels.row_chunks(m, n)
            chunk = max(b - a for a, b in zip(bounds, bounds[1:])) * n * 8
            # Per chunk and thread: its edges, their block positions, shifted
            # positions and coefficients.
            edges = 4 * 8 * np.bincount(lab).max() * 16
            # The output: the labels' rows, or a coefficient per edge into a label.
            for call, arg, out in (
                (p.into_labels, coef, m * d * 8),
                (p.label_grad, g, half * 8),
            ):
                bound = 2 * (chunk + edges) + out + 8 * 1024
                assert bound < n * m * 8  # less than one whole block
                tracemalloc.start()
                try:
                    call(arg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= bound, f"{call.__name__}: peak {peak} bytes over {bound}"


class Boom(Exception):
    pass


class TestSecondCore:
    @settings(max_examples=60, deadline=None)
    @given(count=st.integers(0, 300), threads=st.booleans())
    def test_every_piece_runs_once_under_fast_thread_switching(self, count, threads):
        import sys

        done = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with runtime.sharing(threads):
                runtime.share(done.append, count)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(done) == list(range(count))
        assert threading.active_count() == 1

    def test_a_thread_is_started_only_when_allowed_and_for_two_pieces_or_more(self):
        def names(count):
            seen = []
            runtime.share(lambda k: seen.append(threading.enumerate()), count)
            return {t.name for alive in seen for t in alive}

        assert "dbgae-share" not in names(5)  # outside ``sharing``
        with runtime.sharing(False):
            assert "dbgae-share" not in names(5)
        with runtime.sharing(True):
            assert "dbgae-share" not in names(1)
            with runtime.sharing(False):
                assert "dbgae-share" not in names(5)
            ran = {}

            def piece(k):
                ran[k] = threading.current_thread().name
                deadline = time.monotonic() + 30  # each piece waits for the other
                while len(ran) < 2 and time.monotonic() < deadline:
                    time.sleep(0.001)

            runtime.share(piece, 2)
            assert sorted(ran.values()) == ["MainThread", "dbgae-share"]
        assert threading.active_count() == 1

    @pytest.mark.parametrize("on", ["caller", "thread"])
    def test_an_error_on_either_thread_reaches_the_caller_with_its_type(self, on):
        done = []

        def piece(k):
            here = "caller" if threading.current_thread() is threading.main_thread() else "thread"
            if here == on:
                raise Boom(f"piece {k} on the {here}")
            time.sleep(0.05)  # leave the next piece to the other thread
            done.append(k)

        with runtime.sharing(True):
            with pytest.raises(Boom, match=f"on the {on}"):
                runtime.share(piece, 8)
        # After the error no more pieces are handed out: the other thread
        # finishes the piece it holds, at most one, and stops.
        assert len(done) <= 1
        assert threading.active_count() == 1

    def test_an_error_without_a_thread_stops_the_pieces(self):
        done = []

        def piece(k):
            if k == 2:
                raise Boom("piece 2")
            done.append(k)

        with pytest.raises(Boom, match="piece 2"):
            runtime.share(piece, 5)
        assert done == [0, 1]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blas_threads_is_the_loaded_openblas_count(self, threads):
        import os
        import subprocess
        import sys
        from pathlib import Path

        with open("/proc/self/maps", encoding="utf-8") as fh:
            if not any("openblas" in line for line in fh):
                pytest.skip("numpy does not run on OpenBLAS here")
        code = "import numpy; from dbgae import runtime; print(runtime.blas_threads())"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = str(Path(runtime.__file__).parents[1])
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert run.stdout.strip() == threads, run.stderr

    @pytest.mark.parametrize("cores, threads, on", [(2, 1, True), (2, 2, False), (1, 1, False)])
    def test_the_second_core_is_free_only_beside_one_blas_thread(
        self, monkeypatch, cores, threads, on
    ):
        # ``model.train`` asks it once (``test_the_second_core_is_asked_once_a_train``).
        monkeypatch.setattr(runtime, "usable_cores", lambda: cores)
        monkeypatch.setattr(runtime, "blas_threads", lambda: threads)
        assert runtime.second_core() == on

    def test_the_blas_getter_is_looked_up_once_and_asked_every_call(self, monkeypatch):
        import builtins

        opened = []

        def recording_open(file, *args, **kwargs):
            opened.append(file)
            return builtins.open(file, *args, **kwargs)

        runtime._blas_thread_getter.cache_clear()
        monkeypatch.setattr(runtime, "open", recording_open, raising=False)
        try:
            first, second = runtime.blas_threads(), runtime.blas_threads()
        finally:
            runtime._blas_thread_getter.cache_clear()
        assert opened == ["/proc/self/maps"] and first == second >= 1
        # The count itself is asked on every call: it may change.
        calls = []
        monkeypatch.setattr(runtime, "_blas_thread_getter", lambda: lambda: calls.append(1) or 3)
        assert [runtime.blas_threads(), runtime.blas_threads()] == [3, 3] and len(calls) == 2


class TestWorker:
    def test_each_call_sees_the_arrays_as_sent(self):
        a, b = np.arange(6.0).reshape(2, 3), np.ones((1, 2))
        with runtime.Worker(lambda x, y: (x.sum(), y.tolist()), [(2, 3), (1, 2)]) as worker:
            worker.send([a, b])
            a += 100.0  # after send returns, the caller's arrays are its own
            assert worker.receive() == (15.0, [[1.0, 1.0]])
            worker.send([a, 2 * b])
            assert worker.receive() == (615.0, [[2.0, 2.0]])
            with pytest.raises(ValueError, match=r"shapes \[\(2, 3\), \(2, 1\)\]"):
                worker.send([a, b.T])

    def test_an_exception_pickle_cannot_carry_comes_back_naming_its_type(self):
        class Local(Exception):
            pass

        def fail(x):
            raise Local("in the worker")

        with runtime.Worker(fail, [(1, 1)]) as worker:
            worker.send([np.zeros((1, 1))])
            with pytest.raises(RuntimeError, match="Local: in the worker"):
                worker.receive()
            worker.send([np.zeros((1, 1))])  # it serves on after an error
            with pytest.raises(RuntimeError, match="Local"):
                worker.receive()

    def test_an_error_in_the_body_kills_a_busy_worker(self):
        start = time.monotonic()
        with pytest.raises(ValueError, match="in the body"):
            with runtime.Worker(lambda x: time.sleep(60), [(1, 1)]) as worker:
                worker.send([np.zeros((1, 1))])
                raise ValueError("in the body")
        assert time.monotonic() - start < 30


class TestEdgeAttention:
    @settings(max_examples=200, deadline=None)
    @given(path=bipartite_paths(), seed=st.integers(0, 10_000), on_grid=st.booleans())
    def test_equals_the_unfused_chain_bit_for_bit(self, path, seed, on_grid):
        n, m, dst = path
        rng = np.random.default_rng(seed)
        # On a half-integer grid, pre-activations hit 0 and segment maxima tie.
        scores = (
            rng.integers(-2, 3, size=(n + m, 2)) / 2.0
            if on_grid
            else rng.standard_normal((n + m, 2))
        )
        upstream = ad.constant(rng.standard_normal((1, len(dst))))
        # The fused op takes each side's two columns and the path's target
        # index; the chain, each column over both sides, and a fresh index
        # of the sources, whose scatter-add is the reference of the fused
        # op's sum with the halves swapped.
        s_inst, s_lab = ad.parameter(scores[:n].copy()), ad.parameter(scores[n:].copy())
        fused = ad.edge_attention(s_inst, s_lab, ad.RowIndex(dst), 0.2)
        ad.backward(ad.matmul(upstream, fused))  # alpha's gradient is upstream.T
        s_dst, s_src = ad.parameter(scores[:, :1].copy()), ad.parameter(scores[:, 1:].copy())
        chain = attention_chain(s_dst, s_src, ad.RowIndex(dst), ad.RowIndex(swap_halves(dst)), 0.2)
        ad.backward(ad.matmul(upstream, chain))
        assert fused.value.shape == (len(dst), 1)
        assert np.array_equal(fused.value, chain.value)
        fused_grad = np.concatenate([ad.grad_or_zeros(s_inst), ad.grad_or_zeros(s_lab)])
        chain_grad = np.hstack([ad.grad_or_zeros(s_dst), ad.grad_or_zeros(s_src)])
        assert np.array_equal(fused_grad, chain_grad)

    def test_grad_check_skips_the_kink(self):
        n, m = 2, 3
        inst = np.array([0, 0, 1, 1, 1])
        lab = np.array([0, 1, 0, 1, 2])
        targets = path_index(n, inst, lab)
        rng = np.random.default_rng(10)
        s_inst = ad.parameter(rng.uniform(0.5, 1.5, size=(n, 2)))
        s_lab = ad.parameter(rng.uniform(0.5, 1.5, size=(m, 2)))
        # Edge 0 (label node row n -> instance row 0) has pre-activation 0.
        s_inst.value[0, 0], s_lab.value[0, 1] = 0.25, -0.25
        weights = ad.constant(rng.standard_normal((len(targets), 1)))

        def loss():
            return ad.mean_all(mul(ad.edge_attention(s_inst, s_lab, targets, 0.2), weights))

        report = grad_check(loss, {"s_inst": s_inst, "s_lab": s_lab}, samples_per_param=2 * m)
        assert [e.skipped for e in report.entries] == [1, 1]
        assert [e.checked for e in report.entries] == [2 * n - 1, 2 * m - 1]
        assert report.max_rel_error <= 1e-6

    def test_score_columns_and_indices_are_checked(self):
        col, pair = ad.constant(np.zeros((3, 1))), ad.constant(np.zeros((2, 2)))
        with pytest.raises(DimensionError, match="two score columns"):
            ad.edge_attention(pair, col, [0, 2], 0.2)
        with pytest.raises(DimensionError, match="3 targets, not a path's two halves"):
            ad.edge_attention(pair, pair, [0, 2, 3], 0.2)
        with pytest.raises(DimensionError, match="one of 2 instance rows and one of 2 label"):
            ad.edge_attention(pair, pair, [0, 4], 0.2)

    # Two instances (rows 0, 1) and two labels (rows 2, 3): halves that
    # invert, share a side or leave the rows.
    @pytest.mark.parametrize("targets", [[2, 0], [0, 1], [2, 3], [0, 2, 3, 1], [-1, 2], [1, 4]])
    def test_halves_that_do_not_join_instances_to_labels_are_rejected(self, targets):
        pair = ad.constant(np.zeros((2, 2)))
        with pytest.raises(DimensionError, match="every edge must join"):
            ad.edge_attention(pair, pair, targets, 0.2)


def values_on(rng, shape, on_grid):
    """Normal values, or on a half-integer grid, where sums hit exact zeros
    (the ReLU kink) and ties."""
    return rng.integers(-2, 3, size=shape) / 2.0 if on_grid else rng.standard_normal(shape)


def fused_and_chain(build, inputs, upstream):
    """Each of ``build(chain)(fresh copies of inputs)`` for the fused op and
    its unfused chain, backward with ``upstream`` as the output's gradient,
    as (value, every input's gradient or None).  Summed by two products
    with ones, so an output without rows still gives a scalar loss."""
    results = []
    rows, cols = upstream.shape
    for chain in (False, True):
        tensors = [
            ad.parameter(value.copy()) if grad else ad.constant(value.copy())
            for value, grad in inputs
        ]
        out = build(chain)(tensors)
        weighted = mul(out, ad.constant(upstream))
        ones_row, ones_col = ad.constant(np.ones((1, rows))), ad.constant(np.ones((cols, 1)))
        ad.backward(ad.matmul(ad.matmul(ones_row, weighted), ones_col))
        results.append((out.value, [t.grad for t in tensors]))
    return results


def assert_same_bits(fused, chain):
    (value, grads), (chain_value, chain_grads) = fused, chain
    assert value.shape == chain_value.shape
    assert np.array_equal(value, chain_value)
    for g, cg in zip(grads, chain_grads, strict=True):
        assert (g is None) == (cg is None)
        assert g is None or np.array_equal(g, cg)


class TestHeadMeanRelu:
    @settings(max_examples=200, deadline=None)
    @given(
        heads=st.integers(1, 4),
        rows=st.integers(0, 5),
        inner=st.lists(st.integers(1, 4), min_size=4, max_size=4),
        cols=st.integers(1, 5),
        constant_A=st.lists(st.booleans(), min_size=4, max_size=4),
        seed=st.integers(0, 10_000),
        on_grid=st.booleans(),
    )
    def test_equals_the_unfused_chain_bit_for_bit(
        self, heads, rows, inner, cols, constant_A, seed, on_grid
    ):
        # Each head's A_h may be a constant (as a path's messages without
        # attention are) or carry a gradient; inner widths differ by head.
        rng = np.random.default_rng(seed)
        inputs = []
        for h in range(heads):
            inputs.append((values_on(rng, (rows, inner[h]), on_grid), not constant_A[h]))
            inputs.append((values_on(rng, (inner[h], cols), on_grid), True))
        upstream = rng.standard_normal((rows, cols))

        def build(chain):
            op = head_mean_relu_chain if chain else ad.head_mean_relu
            return lambda t: op(list(zip(t[::2], t[1::2])))

        fused, chain = fused_and_chain(build, inputs, upstream)
        assert_same_bits(fused, chain)

    def test_grad_check(self):
        rng = np.random.default_rng(12)
        A = [ad.parameter(rng.standard_normal((4, 3))) for _ in range(3)]
        W = [ad.parameter(rng.standard_normal((3, 5))) for _ in range(3)]
        weights = ad.constant(rng.standard_normal((4, 5)))

        def loss():
            return ad.mean_all(mul(ad.head_mean_relu(list(zip(A, W))), weights))

        params = {f"{kind}.{h}": t for h in range(3) for kind, t in (("A", A[h]), ("W", W[h]))}
        report = grad_check(loss, params, samples_per_param=64)
        assert report.max_rel_error <= 1e-4
        assert all(e.checked for e in report.entries)

    def test_grad_check_skips_the_kink(self):
        # One head: A·W is [0, 1], so a step in W[0, 0] crosses the kink and
        # is skipped; the recorder must see the fused op's mask for that.
        A = ad.parameter(np.array([[1.0]]))
        W = ad.parameter(np.array([[0.0, 1.0]]))

        def loss():
            return ad.mean_all(ad.head_mean_relu([(A, W)]))

        report = grad_check(loss, {"A": A, "W": W})
        assert [(e.checked, e.skipped) for e in report.entries] == [(1, 0), (1, 1)]
        assert report.max_rel_error <= 1e-9

    @pytest.mark.parametrize(
        "shapes, message",
        [
            ([], "needs at least one head"),
            ([((2, 3), (4, 5))], r"inner dims \(2, 3\) x \(4, 5\)"),
            ([((2, 3), (3, 5)), ((2, 4), (4, 6))], r"a head's product is \(2, 6\), another's \(2, 5\)"),
            ([((2, 3), (3, 5)), ((3, 3), (3, 5))], r"a head's product is \(3, 5\), another's \(2, 5\)"),
        ],
        ids=["no-heads", "inner-dims", "widths-differ", "rows-differ"],
    )
    def test_shape_mismatch_names_the_op(self, shapes, message):
        pairs = [(ad.constant(np.zeros(a)), ad.parameter(np.zeros(w))) for a, w in shapes]
        with pytest.raises(DimensionError, match="head_mean_relu: " + message):
            ad.head_mean_relu(pairs)


class TestBilinearLogits:
    @settings(max_examples=200, deadline=None)
    @given(
        levels=st.integers(2, 6),
        n=st.integers(1, 4),
        m=st.integers(1, 4),
        k=st.integers(1, 4),
        data=st.data(),
        seed=st.integers(0, 10_000),
        on_grid=st.booleans(),
    )
    def test_equals_the_unfused_chain_bit_for_bit(self, levels, n, m, k, data, seed, on_grid):
        # Up to 12 edges over at most 4 rows a side: rows repeat.
        edges = data.draw(st.integers(0, 12))
        src = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=edges, max_size=edges)))
        dst = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=edges, max_size=edges)))
        rng = np.random.default_rng(seed)
        inputs = [(values_on(rng, (n, k), on_grid), True), (values_on(rng, (m, k), on_grid), True)]
        inputs += [(values_on(rng, (k, k), on_grid), True) for _ in range(levels)]
        upstream = rng.standard_normal((edges, levels))

        def build(chain):
            op = bilinear_logits_chain if chain else ad.bilinear_logits
            return lambda t: op(t[0], t[1], t[2:], ad.RowIndex(src), ad.RowIndex(dst))

        fused, chain = fused_and_chain(build, inputs, upstream)
        assert_same_bits(fused, chain)

    def test_grad_check(self):
        rng = np.random.default_rng(13)
        U, V = ad.parameter(rng.standard_normal((4, 3))), ad.parameter(rng.standard_normal((5, 3)))
        Q = [ad.parameter(rng.standard_normal((3, 3))) for _ in range(4)]
        src, dst = ad.RowIndex([0, 1, 1, 3, 3, 2]), ad.RowIndex([4, 0, 4, 2, 2, 1])
        targets = rng.integers(0, 4, size=6)

        def loss():
            return ad.mean_all(ad.cross_entropy(ad.bilinear_logits(U, V, Q, src, dst), targets))

        params = {"U": U, "V": V, **{f"Q.{r}": q for r, q in enumerate(Q)}}
        report = grad_check(loss, params, samples_per_param=64)
        assert report.max_rel_error <= 1e-4
        assert all(e.checked for e in report.entries)

    @pytest.mark.parametrize(
        "q_shapes, src, dst, message",
        [
            ([], [0], [0], "needs at least one level"),
            ([(3, 2)] * 2, [0, 1], [0], "2 sources for 1 targets"),
            ([(3, 2), (2, 2)], [0], [0], r"level matrix \(2, 2\) between \(2, 3\) and \(3, 2\)"),
            ([(3, 2)] * 2, [2], [0], "source index out of range for 2 rows"),
            ([(3, 2)] * 2, [0], [-1], "target index out of range for 3 rows"),
        ],
        ids=["no-levels", "edge-counts", "level-shape", "source-range", "target-range"],
    )
    def test_shape_mismatch_names_the_op(self, q_shapes, src, dst, message):
        U, V = ad.parameter(np.zeros((2, 3))), ad.parameter(np.zeros((3, 2)))
        Q = [ad.parameter(np.zeros(shape)) for shape in q_shapes]
        with pytest.raises(DimensionError, match="bilinear_logits: " + message):
            ad.bilinear_logits(U, V, Q, src, dst)
