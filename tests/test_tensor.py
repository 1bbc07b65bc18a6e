"""Tests for the tensor kernel and its reverse-mode gradients."""

import threading
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import project
from gradcheck import add, finite_difference_check, reshape
from volformer import tensor as T
from volformer.errors import (ConfigError, DataError, DimensionError,
                              NumericError, UsageError)


def leaf(data, dtype=np.float64):
    return T.Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def matmul(a, b):
    """The product a @ b, as T.linear with a zero bias."""
    return T.linear(a, b, T.Tensor(np.zeros(b.shape[1:], b.dtype)))


class TestForwardSemantics:
    def test_matmul_hand_case(self):
        out = matmul(leaf([[1, 2], [3, 4]]), leaf([[5, 6], [7, 8]]))
        np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])

    def test_matmul_identity(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((3, 5))
        out = matmul(leaf(a), leaf(np.eye(5)))
        np.testing.assert_array_equal(out.data, a)

    def test_matmul_zero(self):
        b = np.random.default_rng(0).standard_normal((4, 2))
        out = matmul(leaf(np.zeros((3, 4))), leaf(b))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_matmul_shape_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(leaf(np.ones((2, 3))), leaf(np.ones((4, 2))))

    def test_linear_hand_case(self):
        """Rows of any rank: [2, 1, 2] rows times [2, 2], plus the bias."""
        out = T.linear(leaf([[[1, 2]], [[3, 4]]]), leaf([[5, 6], [7, 8]]), leaf([1, -1]))
        np.testing.assert_array_equal(out.data, [[[20, 21]], [[44, 49]]])

    @pytest.mark.parametrize("x, w, b", [((2, 3), (3, 2), (3,)), ((2, 3), (3, 2), (1, 2)),
                                         ((2, 3), (3,), (3,)), ((), (1, 1), (1,))],
                             ids=["bias_extent", "bias_rank", "weight_rank", "scalar_x"])
    def test_linear_shape_mismatch(self, x, w, b):
        with pytest.raises(DimensionError):
            T.linear(leaf(np.ones(x)), leaf(np.ones(w)), leaf(np.ones(b)))

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(T.softmax(leaf([0.0, 0.0])).data, [0.5, 0.5])

    def test_softmax_hand_case(self):
        out = T.softmax(leaf([0.0, np.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_softmax_rejects_nonfinite(self):
        with pytest.raises(NumericError):
            T.softmax(leaf([0.0, np.inf]))

    def test_softmax_stable_at_large_magnitude(self):
        rng = np.random.default_rng(1)
        x = leaf(rng.uniform(-1e4, 1e4, size=(20, 7)))
        out = T.softmax(x, axis=-1).data
        assert np.isfinite(out).all() and (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-100, 100))
    def test_softmax_shift_invariance(self, row, c):
        base = T.softmax(leaf(row)).data
        shifted = T.softmax(leaf(np.asarray(row) + c)).data
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    def test_softmax_bit_identical_to_running_formula(self):
        """numpy's max, then a sum over the axis in order: the same bits."""
        x = np.random.default_rng(8).standard_normal((2, 3, 5)).astype(np.float32)
        for axis in (-1, 0, 1):
            e = np.exp(x - x.max(axis=axis, keepdims=True))
            slabs = np.moveaxis(e, axis, 0)
            total = slabs[0]
            for slab in slabs[1:]:
                total = total + slab
            expected = e / np.expand_dims(total, axis)
            np.testing.assert_array_equal(T.softmax(T.Tensor(x), axis).data, expected)

    def test_layer_norm_constant_input_gives_beta(self):
        gamma, beta = leaf([3.0, 3.0, 3.0]), leaf([1.0, 2.0, 3.0])
        out = T.layer_norm(leaf([[5.0, 5.0, 5.0]]), gamma, beta, eps=1e-6)
        np.testing.assert_allclose(out.data, [[1.0, 2.0, 3.0]], atol=1e-3)

    def test_layer_norm_standardizes(self):
        out = T.layer_norm(leaf([1.0, 3.0]), leaf([1.0, 1.0]), leaf([0.0, 0.0]),
                           eps=1e-6).data
        assert abs(out.mean()) < 1e-5
        assert abs(out.var() - 1.0) < 1e-5

    def test_layer_norm_rejects_bad_eps(self):
        with pytest.raises(ConfigError):
            T.layer_norm(leaf([1.0, 2.0]), leaf([1.0, 1.0]), leaf([0.0, 0.0]), eps=0.0)

    def test_linear_relu_definition_and_idempotence(self):
        def relu(t):
            return T.linear(t, leaf(np.eye(1)), leaf([0.0]), relu=True)

        out = relu(leaf([[-1.0], [0.0], [2.0]]))
        np.testing.assert_array_equal(out.data, [[0.0], [0.0], [2.0]])
        np.testing.assert_array_equal(relu(out).data, out.data)

    def test_linear_relu_gradient_mask(self):
        """The subgradient at 0 is taken as 0."""
        x = leaf([[-1.0], [0.0], [2.0]])
        with T.Tape() as tape:
            out = project(T.linear(x, leaf(np.eye(1)), leaf([0.0]), relu=True), np.ones(3))
        tape.backward(out, [x])
        np.testing.assert_array_equal(tape.grads[0], [[0.0], [0.0], [1.0]])

    def test_linear_addend_hand_case(self):
        """A same-shape addend, and a [2] row broadcast over [2, 1, 2]."""
        x, w, b = leaf([[[1, 2]], [[3, 4]]]), leaf([[5, 6], [7, 8]]), leaf([1, -1])
        out = T.linear(x, w, b, addend=leaf([[[1, 1]], [[2, 2]]]))
        np.testing.assert_array_equal(out.data, [[[21, 22]], [[46, 51]]])
        out = T.linear(x, w, b, addend=leaf([10, 20]))
        np.testing.assert_array_equal(out.data, [[[30, 41]], [[54, 69]]])

    def test_linear_epilogue_misuse(self):
        x, w, b = leaf(np.ones((2, 3))), leaf(np.ones((3, 2))), leaf(np.ones(2))
        with pytest.raises(UsageError):
            T.linear(x, w, b, relu=True, addend=leaf(np.ones(2)))
        with pytest.raises(DimensionError):  # the output cannot grow to the addend
            T.linear(x, w, b, addend=leaf(np.ones((4, 2, 2))))
        with pytest.raises(UsageError):
            T.linear(x, w, b, addend=leaf(np.ones(2), dtype=np.float32))

    def test_reduce_mean_value(self):
        assert float(T.reduce_mean(leaf([2.0, 4.0])).data) == 3.0

    def test_mixed_dtype_rejected(self):
        with pytest.raises(UsageError):
            add(leaf([1.0], dtype=np.float32), leaf([1.0], dtype=np.float64))

    @given(st.integers(2, 5), st.integers(2, 5))
    def test_reshape_round_trip_bit_exact(self, a, b):
        rng = np.random.default_rng(a * 10 + b)
        x = leaf(rng.standard_normal((a, b)))
        back = reshape(reshape(x, (b * a,)), (a, b))
        assert (back.data == x.data).all()

    def test_cross_entropy_values(self):
        # zero logits over 3 classes -> uniform -> ln 3
        loss = T.softmax_cross_entropy(leaf(np.zeros((2, 3))), [0, 2])
        np.testing.assert_allclose(float(loss.data), np.log(3.0), atol=1e-12)

    def test_cross_entropy_label_range(self):
        with pytest.raises(DataError):
            T.softmax_cross_entropy(leaf(np.zeros((1, 3))), [3])


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = leaf(np.random.default_rng(0).standard_normal((3, 4)))
        with T.Tape() as tape:
            out = project(x, np.ones((3, 4)))
        tape.backward(out, [x])
        [grad] = tape.grads
        np.testing.assert_array_equal(grad, np.ones((3, 4)))

    def test_mean_square_gradient(self):
        """d/dx sum(x^2) = 2x; at x=[1,2] that is [2, 4]."""
        x = leaf([1.0, 2.0])
        with T.Tape() as tape:
            squares = matmul(reshape(x, (1, 2)), reshape(x, (2, 1)))
            out = reshape(squares, ())
        tape.backward(out, [x])
        [grad] = tape.grads
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-12)

    def test_unused_leaf_gets_zeros(self):
        """One gradient per listed leaf, in the order of the list."""
        x, unused = leaf([1.0, 2.0]), leaf([[3.0]])
        for leaves, want in (([x, unused], [[1.0, 1.0], [[0.0]]]),
                             ([unused, x], [[[0.0]], [1.0, 1.0]]),
                             ([unused, x, unused], [[[0.0]], [1.0, 1.0], [[0.0]]])):
            with T.Tape() as tape:
                out = project(x, np.ones(2))
            tape.backward(out, leaves)
            assert len(tape.grads) == len(want)
            for got, expected in zip(tape.grads, want):
                np.testing.assert_array_equal(got, expected)

    def test_non_scalar_loss_rejected(self):
        x = leaf([1.0, 2.0])
        with T.Tape() as tape:
            out = add(x, x)
        with pytest.raises(UsageError):
            tape.backward(out, [x])

    def test_backward_deterministic_bit_identical(self):
        """Two tapes of the same forward give the same gradient bits."""
        rng = np.random.default_rng(7)
        x, w = leaf(rng.standard_normal((4, 5))), leaf(rng.standard_normal((5, 3)))

        def grads(leaves):
            with T.Tape() as tape:
                out = T.reduce_mean(T.softmax(matmul(x, w), axis=-1))
            tape.backward(out, leaves)
            return tape.grads

        dx, dw = grads([x, w])
        again = grads([w, x, w])
        assert len(again) == 3
        np.testing.assert_array_equal(again[0], dw)
        np.testing.assert_array_equal(again[1], dx)
        np.testing.assert_array_equal(again[2], dw)

    def test_backward_frees_each_node_and_consumes_the_tape(self):
        """The ReLU output that linear's VJP closes over dies during
        backward, while the tape itself lives on; a second backward on the
        spent tape is refused."""
        x = leaf([[-1.0], [2.0]])
        with T.Tape() as tape:
            hidden = T.linear(x, leaf(np.eye(1)), leaf([0.0]), relu=True)
            out = project(hidden, np.ones(2))
        node = tape.nodes[0]
        assert any(cell.cell_contents is hidden.data for cell in node.vjp.__closure__)
        freed = weakref.ref(hidden.data)
        del node, hidden
        assert freed() is not None
        tape.backward(out, [x])
        assert freed() is None and tape.nodes == []
        np.testing.assert_array_equal(tape.grads[0], [[0.0], [1.0]])
        with pytest.raises(UsageError):
            tape.backward(out, [x])

    def test_matmul_vjp_skips_operands_without_grad(self):
        """linear's VJP gives no gradient to an input that needs none."""
        rng = np.random.default_rng(5)
        constant = T.Tensor(rng.standard_normal((2, 3, 4)))
        weight = leaf(rng.standard_normal((4, 5)))
        with T.Tape() as tape:
            T.linear(constant, weight, T.Tensor(np.zeros(5)))
            T.linear(weight, T.Tensor(rng.standard_normal((5, 2))), leaf(np.zeros(2)))
        dx, dw, db = tape.nodes[0].vjp(np.ones((2, 3, 5)))
        assert dx is None and dw.shape == (4, 5) and db is None
        dx, dw, db = tape.nodes[1].vjp(np.ones((4, 2)))
        assert dx.shape == (4, 5) and dw is None and db.shape == (2,)

    def test_tensor_reused_twice_accumulates(self):
        x = leaf([3.0])
        with T.Tape() as tape:
            out = project(add(x, x), [1.0])
        tape.backward(out, [x, x])
        for grad in tape.grads:
            np.testing.assert_allclose(grad, [2.0])

    def test_no_recording_without_tape(self):
        x = leaf([1.0])
        out = add(x, x)
        assert not out.requires_grad

    def test_tapes_are_per_thread(self):
        """An op on another thread never records onto this thread's tape,
        and a tape that thread opens records only its own ops."""
        x = leaf([1.0])
        seen = []

        def other():
            seen.append(add(x, x).requires_grad)
            with T.Tape() as own:
                add(x, x)
            seen.append(len(own.nodes))

        with T.Tape() as tape:
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=60)
        assert not worker.is_alive()
        assert tape.nodes == [] and seen == [False, 1]

    def test_misnested_exit_is_refused_and_leaves_the_stack(self):
        """Exiting the outer tape while the inner one is open is a
        UsageError (not an assert, which python -O strips), raised before
        anything is popped: the inner tape still records."""
        outer, inner = T.Tape(), T.Tape()
        with outer:
            inner.__enter__()
            with pytest.raises(UsageError, match="innermost first"):
                outer.__exit__(None, None, None)
            assert T._active_tape() is inner
            add(leaf([1.0]), leaf([1.0]))
            inner.__exit__(None, None, None)
            assert T._active_tape() is outer
        assert T._active_tape() is None
        assert len(inner.nodes) == 1 and outer.nodes == []

    def test_exit_on_another_thread_is_refused(self):
        """A tape exited on a thread that did not enter it is a UsageError
        there, and the entering thread's stack keeps it."""
        raised = []

        def other():
            try:
                tape.__exit__(None, None, None)
            except UsageError as exc:
                raised.append(exc)

        with T.Tape() as tape:
            worker = threading.Thread(target=other)
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            assert len(raised) == 1 and T._active_tape() is tape
        assert T._active_tape() is None


def _away_from_kinks(arr, margin=0.05):
    """Shift values whose magnitude is below margin, so relu secants
    cannot straddle the kink during finite differencing."""
    out = arr.copy()
    small = np.abs(out) < margin
    out[small] += np.sign(out[small] + 0.5) * margin
    return out


def _attention_case(wrt, num_heads=2):
    """x [3, 4] as the q, k or v of num_heads heads of 4 / num_heads
    features over 3 tokens; the other two inputs are constants made from c."""
    def case(x, c):
        args = {"q": T.Tensor(c[None]), "k": T.Tensor(np.roll(c, 1, axis=1)[None]),
                "v": T.Tensor(c[None, ::-1])}
        args[wrt] = reshape(x, (1, 3, 4))
        return project(T.attention(args["q"], args["k"], args["v"], num_heads), c)
    return case


class TestFiniteDifferenceOracle:
    """Every differentiable op agrees with central differences < 1e-6."""

    CASES = {
        "add": lambda x, c: project(add(x, T.Tensor(c[0])), c),
        "linear_x": lambda x, c: project(
            T.linear(x, T.Tensor(c.T), T.Tensor(c[0, :3])), c @ c.T),
        # rank-3 constant rows: the weight gradient is one GEMM over the
        # flattened leading axes
        "linear_w": lambda x, c: project(
            T.linear(T.Tensor(np.stack([c.T, c.T[:, ::-1]])), x, T.Tensor(c[1])),
            np.stack([c.T, c.T[:, ::-1]]) @ c),
        # a positive projection keeps the bias gradient, a sum over the
        # rows, away from 0
        "linear_b": lambda x, c: project(
            T.linear(T.Tensor(c), T.Tensor(np.tile(c.T, 4)), reshape(x, (12,))),
            np.abs(np.tile(c, 3))),
        "reshape": lambda x, c: project(reshape(x, (x.size,)), c.reshape(-1)),
        "reduce_mean_axis": lambda x, c: project(T.reduce_mean(x, axis=0), c[0]),
        # the identity weight makes x the pre-activation, which
        # _away_from_kinks keeps off the ReLU's kink
        "linear_relu": lambda x, c: project(
            T.linear(x, T.Tensor(np.eye(4)), T.Tensor(np.zeros(4)), relu=True), c),
        "linear_addend": lambda x, c: project(
            T.linear(T.Tensor(c), T.Tensor(c.T @ c), T.Tensor(c[0]), addend=x), c),
        # x [3, 4] broadcast over a [2, 3, 4] output: its gradient is the
        # sum over the leading axis, 3c
        "linear_addend_broadcast": lambda x, c: project(
            T.linear(T.Tensor(np.stack([c, c[::-1]])), T.Tensor(c.T @ c), T.Tensor(c[1]),
                     addend=x), np.stack([c, 2 * c])),
        "softmax": lambda x, c: project(T.softmax(x, axis=-1), c),
        "attention_q": _attention_case("q"),
        "attention_k": _attention_case("k"),
        "attention_v": _attention_case("v"),
        **{f"attention_{wrt}_head_dim_{4 // heads}": _attention_case(wrt, heads)
           for wrt in "qkv" for heads in (4, 1)},
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_op_gradient(self, name):
        func = self.CASES[name]
        # crc32, unlike hash(), is not salted per process, so every run
        # checks the same points and a failure can be replayed
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for point in range(10):
            # multiplier constants bounded away from 0 keep every gradient
            # element well above central-difference roundoff
            c = _away_from_kinks(rng.standard_normal((3, 4)), margin=0.3)
            x0 = _away_from_kinks(rng.standard_normal((3, 4)))
            err = finite_difference_check(lambda t: func(t, c), T.Tensor(x0),
                                            step=1e-5)
            assert err < 1e-6, f"{name} point {point}: {err}"

    @pytest.mark.parametrize("shape, axis", [((3, 5), -1), ((4, 1), -1), ((3, 5), 0)],
                             ids=["odd_rows", "width_1_rows", "axis_0"])
    def test_softmax_gradient_row_widths(self, shape, axis):
        rng = np.random.default_rng(zlib.crc32(repr((shape, axis)).encode()))
        for point in range(10):
            c = _away_from_kinks(rng.standard_normal(shape), margin=0.3)
            x0 = rng.standard_normal(shape)
            err = finite_difference_check(
                lambda t: project(T.softmax(t, axis=axis), c), T.Tensor(x0), step=1e-5)
            assert err < 1e-6, f"point {point}: {err}"

    def test_layer_norm_gradients_all_arguments(self):
        rng = np.random.default_rng(99)
        for point in range(10):
            x0 = rng.standard_normal((3, 5))
            g0 = 1.0 + 0.3 * rng.standard_normal(5)
            b0 = 0.3 * rng.standard_normal(5)
            c = rng.standard_normal((3, 5))

            def wrt_x(t):
                return project(T.layer_norm(t, T.Tensor(g0), T.Tensor(b0), 1e-6), c)

            def wrt_gamma(t):
                return project(T.layer_norm(T.Tensor(x0), t, T.Tensor(b0), 1e-6), c)

            def wrt_beta(t):
                return project(T.layer_norm(T.Tensor(x0), T.Tensor(g0), t, 1e-6), c)

            assert finite_difference_check(wrt_x, T.Tensor(x0), 1e-5) < 1e-6
            assert finite_difference_check(wrt_gamma, T.Tensor(g0), 1e-5) < 1e-6
            assert finite_difference_check(wrt_beta, T.Tensor(b0), 1e-5) < 1e-6

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(123)
        for point in range(10):
            logits = rng.standard_normal((4, 3))
            labels = rng.integers(0, 3, size=4)
            err = finite_difference_check(
                lambda t: T.softmax_cross_entropy(t, labels), T.Tensor(logits), 1e-5)
            assert err < 1e-6

    def test_softmax_dot_composite(self):
        """The oracle's own smoke case: softmax of a projection, h=1e-5."""
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 4))
        c = rng.standard_normal((3, 4))

        def f(t):
            return project(T.softmax(matmul(t, T.Tensor(w)), -1), c)

        err = finite_difference_check(f, T.Tensor(rng.standard_normal((3, 4))), 1e-5)
        assert err < 1e-6

    def test_negative_control_detects_corrupted_vjp(self):
        """A deliberately wrong vjp must blow past 1e-2."""
        from volformer.tensor import _record

        def bad_square(a):
            return _record(a.data * a.data, (a,), lambda g: (g * 2.05 * a.data,))

        rng = np.random.default_rng(17)
        x0 = 1.0 + rng.random(5)
        err = finite_difference_check(lambda t: project(bad_square(t), np.ones(5)),
                                        T.Tensor(x0), 1e-5)
        assert err > 1e-2
