import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dbgae import autodiff as ad
from dbgae.errors import AutodiffError, DimensionError
from oracles import (
    attention_chain,
    dense_blocks_reference,
    leaky_relu,
    propagate_reference,
    segment_softmax,
    softmax_reference,
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
        path = ad.DenseBlockPath(ad.RowIndex([0, 1]), 1, 1)
        with pytest.raises(DimensionError, match="propagate"):
            ad.propagate(ad.constant(np.ones((3, 2))), ad.constant([[1.0], [1.0]]), path)
        with pytest.raises(DimensionError, match="propagate"):
            ad.propagate(ad.constant(np.ones((2, 2))), ad.constant([[1.0, 2.0]]), path)


class TestBackwardBasics:
    def test_sum_of_linear_map_gradient(self):
        rng = np.random.default_rng(2)
        W = ad.parameter(rng.standard_normal((3, 4)))
        x = ad.constant(rng.standard_normal((4, 1)))
        # the mean of the 3 outputs times 3 is their sum
        ad.backward(ad.scale(ad.mean_all(ad.matmul(W, x)), 3.0))
        np.testing.assert_allclose(W.grad, np.ones((3, 1)) @ x.value.T)

    def test_unused_parameter_gets_zero_gradient(self):
        used = ad.parameter(np.ones((1, 1)))
        unused = ad.parameter(np.ones((2, 2)))
        ad.backward(ad.scale(used, 3.0))
        np.testing.assert_array_equal(ad.grad_or_zeros(unused), np.zeros((2, 2)))

    def test_fanout_accumulates(self):
        w = ad.parameter(np.full((1, 1), 1.5))
        loss = ad.add(ad.scale(w, 2.0), ad.scale(w, 3.0))
        ad.backward(loss)
        assert w.grad[0, 0] == pytest.approx(5.0)

    def test_backward_requires_scalar(self):
        w = ad.parameter(np.ones((2, 2)))
        with pytest.raises(AutodiffError, match="scalar"):
            ad.backward(ad.scale(w, 1.0))

    @staticmethod
    def _two_layer_loss():
        rng = np.random.default_rng(4)
        W1 = ad.parameter(rng.standard_normal((3, 4)))
        W2 = ad.parameter(rng.standard_normal((4, 2)))
        x = ad.constant(rng.standard_normal((5, 3)))
        hidden = ad.relu(ad.matmul(x, W1))
        loss = ad.mean_all(ad.mul(ad.matmul(hidden, W2), ad.matmul(hidden, W2)))
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
            return ad.mean_all(ad.mul(out, scale_col))

        # The loss is linear in each single coordinate, so the central
        # difference is exact at any step, and a step of 1 divides the
        # rounding noise of the two losses by 1e6 against the default.
        check_all_coords(loss, {"A": A, "B": B, "bias": bias, "col": scale_col}, step=1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_relu_family_away_from_kinks(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(_bounded_array(rng, (4, 3), away_from_zero=0.2))
        weights = ad.constant(rng.standard_normal((4, 3)))

        def loss():
            return ad.mean_all(ad.mul(ad.add(ad.relu(X), leaky_relu(X, 0.2)), weights))

        check_all_coords(loss, {"X": X})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_concat_rowsum(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(rng.uniform(0.5, 3.0, size=(3, 2)))
        Y = ad.parameter(rng.uniform(0.5, 3.0, size=(3, 3)))
        weights = ad.constant(rng.standard_normal((3, 5)))

        def loss():
            return ad.mean_all(ad.row_sum(ad.mul(ad.concat_cols([X, Y]), weights)))

        check_all_coords(loss, {"X": X, "Y": Y})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gather_rows(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(rng.standard_normal((5, 3)))
        idx = ad.RowIndex(rng.integers(0, 5, size=8))
        weights = ad.constant(rng.standard_normal((8, 3)))

        def loss():
            return ad.mean_all(ad.mul(ad.gather_rows(X, idx), weights))

        check_all_coords(loss, {"X": X})

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_segment_softmax_grad(self, seed):
        rng = np.random.default_rng(seed)
        X = ad.parameter(rng.standard_normal((8, 1)))
        seg = ad.RowIndex(np.sort(rng.integers(0, 3, size=8)))
        weights = ad.constant(rng.standard_normal((8, 1)))

        def loss():
            return ad.mean_all(ad.mul(segment_softmax(X, seg), weights))

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

        report = ad.grad_check(loss, {"W": W}, samples_per_param=12)
        assert report.max_rel_error < 1e-9

    def test_kink_coordinate_excluded(self):
        # pre-activation exactly zero at the checked coordinate
        W = ad.parameter(np.zeros((1, 1)))

        def loss():
            return ad.mean_all(ad.relu(W))

        report = ad.grad_check(loss, {"W": W}, samples_per_param=1)
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

        report = ad.grad_check(loss, {"W1": W1, "W2": W2}, samples_per_param=30)
        assert report.max_rel_error < 1e-6


KERNELS = (ad.DenseBlockPath, ad.SparsePath)


@st.composite
def mirrored_lists(draw):
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


def swap_halves(targets):
    """A path's sources: its targets with the two halves swapped."""
    half = len(targets) // 2
    return np.concatenate([targets[half:], targets[:half]])


def path_index(n, inst, lab):
    """A path's target index ``[inst | lab + n]``, as ``prepare_graph`` builds it."""
    return ad.RowIndex(np.concatenate([inst, lab + n]))


@st.composite
def bipartite_paths(draw):
    """(num_left, num_right, src, dst) of a random bipartite path: duplicate
    edges, isolated nodes, one-sided and empty paths all occur."""
    n = draw(st.integers(0, 4))
    m = draw(st.integers(0, 4))
    edges = (
        draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), st.booleans()),
                max_size=14,
            )
        )
        if n and m
        else []
    )
    src = [n + j if into_left else i for i, j, into_left in edges]
    dst = [i if into_left else n + j for i, j, into_left in edges]
    return n, m, np.array(src, dtype=int), np.array(dst, dtype=int)


class TestPropagate:
    @settings(max_examples=150, deadline=None)
    @given(path=mirrored_lists(), width=st.integers(1, 4), seed=st.integers(0, 10_000))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_kernels_match_per_edge_oracle(self, kernel, path, width, seed):
        n, m, dst = path
        src = swap_halves(dst)
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((n + m, width))
        g = rng.standard_normal((n + m, width))
        coef = rng.standard_normal(len(src))
        out_ref, grad_t_ref, grad_coef_ref = propagate_reference(t, coef, src, dst, g)
        p = kernel(ad.RowIndex(dst), n, m)
        np.testing.assert_allclose(p.apply(coef, t), out_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p.apply_transpose(coef, g), grad_t_ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(p.edge_dot(g, t), grad_coef_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_grad_check(self, kernel):
        rng = np.random.default_rng(8)
        n, m = 3, 4
        inst = np.array([0, 0, 1, 2, 2, 2])
        lab = np.array([0, 3, 1, 1, 2, 2])  # (2, 2) twice
        p = kernel(path_index(n, inst, lab), n, m)
        T = ad.parameter(rng.standard_normal((n + m, 5)))
        coef = ad.parameter(rng.standard_normal((len(p), 1)))
        weights = ad.constant(rng.standard_normal((n + m, 5)))

        def loss():
            return ad.mean_all(ad.mul(ad.propagate(T, coef, p), weights))

        report = ad.grad_check(loss, {"T": T, "coef": coef}, samples_per_param=64)
        assert report.max_rel_error <= 1e-4
        assert all(e.checked == min(64, size) for e, size in zip(report.entries, (35, 12)))

    def test_constant_coefficients_get_no_gradient(self):
        p = ad.SparsePath(ad.RowIndex([0, 1]), 1, 1)
        T = ad.parameter(np.ones((2, 3)))
        coef = ad.constant([[2.0], [0.0]])
        ad.backward(ad.mean_all(ad.propagate(T, coef, p)))
        assert coef.grad is None
        np.testing.assert_allclose(T.grad, [[0.0] * 3, [2.0 / 6] * 3])

    def test_dense_kernel_holds_one_block_at_a_time(self):
        rng = np.random.default_rng(9)
        n, m, width = 200, 150, 4
        pairs = rng.choice(n * m, size=n * m // 10, replace=False)
        inst, lab = pairs // m, pairs % m
        p = ad.DenseBlockPath(path_index(n, inst, lab), n, m)
        coef = rng.standard_normal(len(p))
        t = rng.standard_normal((n + m, width))
        # One coefficient block, the output rows, and the block's share of
        # the coefficients gathered for its np.bincount.
        bound = n * m * 8 + (n + m) * width * 8 + len(p) * 8
        for apply in (p.apply, p.apply_transpose):
            tracemalloc.start()
            try:
                apply(coef, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, f"{apply.__name__}: peak {peak} bytes over {bound}"

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_edge_within_one_side_is_rejected(self, kernel):
        with pytest.raises(DimensionError, match="left row and a right row"):
            kernel(ad.RowIndex([0, 1]), 2, 1)

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize(
        "targets, message",
        [([0, 2, 1], "two halves"), ([0, 3], "outside"), ([-1, 2], "outside")],
        ids=["odd-length", "row-above", "row-below"],
    )
    def test_a_list_that_is_not_a_path_is_rejected(self, kernel, targets, message):
        with pytest.raises(DimensionError, match=message):
            kernel(ad.RowIndex(targets), 2, 1)


    @pytest.mark.parametrize("kernel", KERNELS)
    def test_weight_equals_a_mul_node_bit_for_bit(self, kernel):
        rng = np.random.default_rng(11)
        n, m = 5, 4
        pairs = rng.choice(n * m, size=12, replace=False)
        inst, lab = pairs // m, pairs % m
        p = kernel(path_index(n, inst, lab), n, m)
        t = rng.standard_normal((n + m, 3))
        coef, weight = rng.random((len(p), 1)), rng.random((len(p), 1))
        upstream = ad.constant(rng.standard_normal((n + m, 3)))
        results = []
        for fused in (True, False):
            T, alpha = ad.parameter(t.copy()), ad.parameter(coef.copy())
            if fused:
                out = ad.propagate(T, alpha, p, weight=weight)
            else:
                out = ad.propagate(T, ad.mul(alpha, ad.constant(weight)), p)
            ad.backward(ad.mean_all(ad.mul(out, upstream)))
            results.append((out.value, T.grad, alpha.grad))
        for a, b in zip(*results):
            assert np.array_equal(a, b)

    def test_weight_shape_is_checked(self):
        p = ad.SparsePath(ad.RowIndex([0, 1]), 1, 1)
        T, coef = ad.parameter(np.ones((2, 3))), ad.parameter(np.ones((2, 1)))
        with pytest.raises(DimensionError, match="weights"):
            ad.propagate(T, coef, p, weight=np.ones((1, 1)))


class TestMirroredRowIndex:
    @settings(max_examples=150, deadline=None)
    @given(case=mirrored_lists(), width=st.integers(1, 3), seed=st.integers(0, 10_000))
    def test_equals_a_fresh_index_of_the_swapped_list(self, case, width, seed):
        n, m, dst = case
        rows, src = n + m, swap_halves(dst)
        mirrored, fresh = ad.MirroredRowIndex(ad.RowIndex(dst)), ad.RowIndex(src)
        assert len(mirrored) == len(fresh)
        assert np.array_equal(mirrored.idx, fresh.idx)
        values = np.random.default_rng(seed).standard_normal((len(src), width))
        assert np.array_equal(mirrored.sum_into(values, rows), fresh.sum_into(values, rows))

    @pytest.mark.parametrize("dst", [[0, 1, 2], [0, 2, 2, 1], [3, 0]])
    def test_halves_sharing_or_inverting_rows_are_rejected(self, dst):
        with pytest.raises(DimensionError, match="mirrored index"):
            ad.MirroredRowIndex(ad.RowIndex(dst))


@contextmanager
def chunk_bytes(value):
    """Run the body with ``ad.DENSE_CHUNK_BYTES`` set to ``value``."""
    saved, ad.DENSE_CHUNK_BYTES = ad.DENSE_CHUNK_BYTES, value
    try:
        yield
    finally:
        ad.DENSE_CHUNK_BYTES = saved


def path_kernel(n, m, inst, lab):
    """A path's dense kernel as ``prepare_graph`` builds it."""
    return ad.DenseBlockPath(path_index(n, inst, lab), n, m)


def whole_blocks(p, coef, x, transpose=False):
    """``dense_blocks_reference`` over the edges of kernel ``p``."""
    dst = p.targets.idx
    return dense_blocks_reference(
        coef, x, swap_halves(dst), dst, p.num_left, p.num_right, transpose=transpose
    )


class TestDenseRowChunks:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 14),
        m=st.integers(1, 14),
        data=st.data(),
        chunk=st.integers(8, 400),
        width=st.integers(2, 5),  # one column is a matrix-vector product (see row_chunks)
        helper=st.booleans(),
        seed=st.integers(0, 10_000),
    )
    def test_chunks_of_small_blocks_agree_with_whole_blocks(
        self, n, m, data, chunk, width, helper, seed
    ):
        # Below 10**6 multiply-adds OpenBLAS takes a transposed whole block
        # and a chunk of rows by different small-matrix kernels, so the
        # transposed products agree to rounding; ``apply`` keeps the floats.
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)), min_size=1, max_size=40)
        )
        inst, lab = (np.array(side, dtype=int) for side in zip(*pairs))
        rng = np.random.default_rng(seed)
        coef = rng.standard_normal(2 * len(pairs))
        t = rng.standard_normal((n + m, width))
        with chunk_bytes(chunk), ad.helper_thread() if helper else nullcontext():
            p = path_kernel(n, m, inst, lab)
            # Chunks hold at least 4 rows, so blocks of 4 rows or fewer are one chunk.
            assert p.chunked == (8 * n * m > 2 * chunk and max(n, m) > 4)
            assert np.array_equal(p.apply(coef, t), whole_blocks(p, coef, t))
            np.testing.assert_allclose(
                p.apply_transpose(coef, t), whole_blocks(p, coef, t, True), rtol=0, atol=1e-12
            )

    def test_ragged_and_empty_chunks_keep_the_floats(self):
        # Chunks of 50-59 rows: every product has over 10**6 multiply-adds.
        rng = np.random.default_rng(3)
        n, m, width = 700, 600, 32
        pairs = rng.choice(n * m, size=n * m // 15, replace=False)
        inst, lab = pairs // m, pairs % m
        keep = np.flatnonzero((inst < 100) | (inst >= 250))  # rows 100-249 have no edges
        keep = np.concatenate([keep, keep[:50]])  # 50 pairs twice: they add up in their cell
        inst, lab = inst[keep], lab[keep]
        coef = rng.standard_normal(2 * len(inst))
        t = rng.standard_normal((n + m, width))
        with chunk_bytes(300_000):
            left, right = ad.row_chunks(n, m), ad.row_chunks(m, n)
            p = path_kernel(n, m, inst, lab)
            assert p.chunked
            for helper in (nullcontext(), ad.helper_thread()):
                with helper:
                    assert np.array_equal(p.apply(coef, t), whole_blocks(p, coef, t))
                    assert np.array_equal(p.apply_transpose(coef, t), whole_blocks(p, coef, t, True))
        assert set(np.diff(left)) == {58, 59} and set(np.diff(right)) == {50}
        empty = [not np.any((inst >= lo) & (inst < hi)) for lo, hi in zip(left, left[1:])]
        assert 0 < sum(empty) < len(empty)

    @pytest.mark.parametrize(
        "rows, cols",
        [(1, 5), (3, 100), (4, 1), (1210, 1168), (2427, 2392), (7, 0), (300, 290), (3, 50_000)],
    )
    def test_row_chunks_are_even_and_bounded(self, rows, cols):
        bounds = ad.row_chunks(rows, cols)
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == rows
        assert sizes.max() - sizes.min() <= 1
        if rows * cols * 8 <= 2 * ad.DENSE_CHUNK_BYTES:
            assert len(sizes) == 1
        else:
            assert all(s * cols * 8 <= ad.DENSE_CHUNK_BYTES or s <= 4 for s in sizes)
        assert sizes.min() >= min(rows, 2)

    def test_a_block_of_two_chunks_stays_whole(self):
        n, m = 6, 5
        inst, lab = np.arange(n), np.arange(n) % m
        rng = np.random.default_rng(5)
        coef, t = rng.standard_normal(2 * n), rng.standard_normal((n + m, 3))
        with chunk_bytes(8 * n * m // 2):
            p = path_kernel(n, m, inst, lab)
            assert not p.chunked and ad.row_chunks(n, m) == [0, n] and ad.row_chunks(m, n) == [0, m]
            assert np.array_equal(p.apply(coef, t), whole_blocks(p, coef, t))
            assert np.array_equal(p.apply_transpose(coef, t), whole_blocks(p, coef, t, True))
        with chunk_bytes(8 * n * m // 2 - 1):
            assert path_kernel(n, m, inst, lab).chunked

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
        model = benchmark_model_config(0)
        path = prepare_graph(graph, model).paths["cross"]
        p = path.edges
        assert p.chunked == (groups > 200)
        rng = np.random.default_rng(groups)
        coef = rng.random(len(p))
        t = rng.standard_normal((p.num_nodes, model.gcn_hidden))
        with ad.helper_thread():
            assert np.array_equal(p.apply(coef, t), whole_blocks(p, coef, t))
            assert np.array_equal(p.apply_transpose(coef, t), whole_blocks(p, coef, t, True))

    def test_a_chunked_apply_holds_two_chunks_and_its_output(self):
        rng = np.random.default_rng(9)
        n, m, width = 200, 150, 4
        pairs = rng.choice(n * m, size=n * m // 10, replace=False)
        inst, lab = pairs // m, pairs % m
        with chunk_bytes(16 * 1024), ad.helper_thread():
            p = path_kernel(n, m, inst, lab)
            coef = rng.standard_normal(len(p))
            t = rng.standard_normal((n + m, width))
            bounds = ad.row_chunks(n, m) + ad.row_chunks(m, n)
            chunk = max(b - a for a, b in zip(bounds, bounds[1:])) * max(n, m) * 8
            # Per chunk and thread: its edges, their block positions, shifted
            # positions and coefficients.
            edges = 4 * 8 * max(np.bincount(inst).max(), np.bincount(lab).max()) * 16
            bound = 2 * (chunk + edges) + (n + m) * width * 8 + 8 * 1024
            assert bound < n * m * 8  # less than one whole block
            tracemalloc.start()
            try:
                p.apply(coef, t)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= bound, f"peak {peak} bytes over {bound}"


class TestHelperThread:
    def test_share_runs_pieces_on_the_helper_while_meanwhile_runs(self):
        started, ran = threading.Event(), []

        def piece(k):
            ran.append((k, threading.current_thread().name))
            started.set()

        with ad.helper_thread():
            ad.share(piece, 1, meanwhile=lambda: started.wait(timeout=30))
        assert ran == [(0, "dbgae-helper")]
        order = []
        ad.share(lambda k: order.append(k), 3, meanwhile=lambda: order.append("meanwhile"))
        assert order == ["meanwhile", 0, 1, 2]

    def test_an_error_on_the_helper_reaches_the_caller_with_its_type(self):
        class Boom(Exception):
            pass

        started = threading.Event()

        def fail(k):
            started.set()
            raise Boom("on the helper")

        with ad.helper_thread():
            with pytest.raises(Boom, match="on the helper"):
                ad.share(fail, 1, meanwhile=lambda: started.wait(timeout=30))

    def test_an_error_in_a_helper_chunk_reaches_the_caller_with_its_type(self):
        class Boom(Exception):
            pass

        done = []

        def chunk(k):
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.05)  # leave the next chunk to the helper
                done.append(k)
            else:
                raise Boom(f"chunk {k}")

        with ad.helper_thread():
            with pytest.raises(Boom, match="chunk 1"):
                ad.share(chunk, 4)
        assert done and 1 not in done

    def test_every_chunk_runs_once_under_fast_thread_switching(self):
        import sys

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ad.helper_thread():
                for _ in range(50):
                    done = []
                    ad.share(lambda k: done.append((k, threading.current_thread().name)), 200)
                    assert sorted(k for k, _ in done) == list(range(200))
        finally:
            sys.setswitchinterval(interval)

    def test_the_thread_is_joined_on_error(self):
        with pytest.raises(ValueError):
            with ad.helper_thread():
                raise ValueError("in the body")
        assert threading.active_count() == 1


class TestEdgeAttention:
    @settings(max_examples=200, deadline=None)
    @given(path=bipartite_paths(), seed=st.integers(0, 10_000), on_grid=st.booleans())
    def test_equals_the_unfused_chain_bit_for_bit(self, path, seed, on_grid):
        n, m, src, dst = path
        rng = np.random.default_rng(seed)
        # On a half-integer grid, pre-activations hit 0 and segment maxima tie.
        scores = (
            rng.integers(-2, 3, size=(n + m, 2)) / 2.0
            if on_grid
            else rng.standard_normal((n + m, 2))
        )
        upstream = ad.constant(rng.standard_normal((1, len(src))))
        dst_rows, src_rows = ad.RowIndex(dst), ad.RowIndex(src)
        results = []
        for op in (ad.edge_attention, attention_chain):
            s_dst, s_src = ad.parameter(scores[:, :1].copy()), ad.parameter(scores[:, 1:].copy())
            alpha = op(s_dst, s_src, dst_rows, src_rows, 0.2)
            ad.backward(ad.matmul(upstream, alpha))  # alpha's gradient is upstream.T
            results.append((alpha.value, ad.grad_or_zeros(s_dst), ad.grad_or_zeros(s_src)))
        fused, chain = results
        assert fused[0].shape == (len(src), 1)
        for a, b in zip(fused, chain):
            assert np.array_equal(a, b)

    def test_grad_check_skips_the_kink(self):
        n, m = 2, 3
        inst = np.array([0, 0, 1, 1, 1])
        lab = np.array([0, 1, 0, 1, 2])
        dst = ad.RowIndex(np.concatenate([inst, lab + n]))
        src = ad.RowIndex(np.concatenate([lab + n, inst]))
        rng = np.random.default_rng(10)
        s_dst = ad.parameter(rng.uniform(0.5, 1.5, size=(n + m, 1)))
        s_src = ad.parameter(rng.uniform(0.5, 1.5, size=(n + m, 1)))
        # Edge 0 (label node row n -> instance row 0) has pre-activation 0.
        s_dst.value[0, 0], s_src.value[n, 0] = 0.25, -0.25
        weights = ad.constant(rng.standard_normal((len(dst), 1)))

        def loss():
            return ad.mean_all(ad.mul(ad.edge_attention(s_dst, s_src, dst, src, 0.2), weights))

        report = ad.grad_check(loss, {"s_dst": s_dst, "s_src": s_src}, samples_per_param=n + m)
        assert [e.skipped for e in report.entries] == [1, 1]
        assert [e.checked for e in report.entries] == [n + m - 1] * 2
        assert report.max_rel_error <= 1e-6

    def test_score_columns_and_indices_are_checked(self):
        col, wide = ad.constant(np.zeros((3, 1))), ad.constant(np.zeros((3, 2)))
        with pytest.raises(DimensionError, match="column vectors"):
            ad.edge_attention(col, wide, [0], [1], 0.2)
        with pytest.raises(DimensionError, match="2 targets for 1 sources"):
            ad.edge_attention(col, col, [0, 1], [1], 0.2)
        with pytest.raises(DimensionError, match="out of range"):
            ad.edge_attention(col, col, [3], [1], 0.2)
