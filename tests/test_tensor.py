"""Autodiff core: forward values, error contracts, gradients vs finite
differences, tape bookkeeping and the op census."""

import weakref

import numpy as np
import pytest

import mgnt.tensor as T
from mgnt.errors import NumericError, ShapeError, ValidationError
from mgnt.tensor import Tape, Tensor, grad_check


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(Tensor(np.eye(2)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_projection(self):
        p = Tensor([[1.0, 0.0], [0.0, 0.0]])
        v = Tensor([[5.0], [7.0]])
        np.testing.assert_array_equal(T.matmul(p, v).data, [[5.0], [0.0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_random_3x3(self):
        rng = np.random.default_rng(0)
        a, b = Tensor(rng.standard_normal((3, 3))), Tensor(rng.standard_normal((3, 3)))
        err = grad_check(lambda u, w: T.sum_all(T.mul(T.matmul(u, w), T.matmul(u, w))),
                         [a, b], step=1e-5)
        assert err < 1e-6


class TestLeakyRelu:
    def test_positive_passthrough(self):
        assert T.leaky_relu(Tensor([2.0]), 0.01).data[0] == 2.0

    def test_negative_scaled(self):
        assert T.leaky_relu(Tensor([-1.0]), 0.01).data[0] == pytest.approx(-0.01)

    def test_gradient_at_negative_point(self):
        x = Tensor([-3.0])
        with Tape() as tape:
            y = T.sum_all(T.leaky_relu(x, 0.01))
            (g,) = tape.gradients(y, [x])
        assert g[0] == pytest.approx(0.01)
        assert grad_check(lambda u: T.sum_all(T.leaky_relu(u, 0.01)), [x]) < 1e-6

    def test_subgradient_at_zero_is_slope(self):
        x = Tensor([0.0])
        with Tape() as tape:
            y = T.sum_all(T.leaky_relu(x, 0.25))
            (g,) = tape.gradients(y, [x])
        assert g[0] == 0.25

    def test_slope_bounds(self):
        with pytest.raises(ValidationError):
            T.leaky_relu(Tensor([1.0]), 1.5)

    @pytest.mark.parametrize("slope", [0.01, 0.25])
    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_bits_equal_the_select(self, dtype, bits, slope):
        rng = np.random.default_rng(7)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-40, -1e-40,
                            np.finfo(dtype).smallest_subnormal,
                            -np.finfo(dtype).smallest_subnormal], dtype=dtype)
        x = rng.standard_normal((257, 113)).astype(dtype)
        g = rng.standard_normal((257, 113)).astype(dtype)
        x[0, :special.size] = special
        g[0, :special.size] = special[::-1]
        g[1, :special.size] = special
        with Tape() as tape:
            out = T.leaky_relu(Tensor(x), slope)
            (dx,) = tape.records[-1][2](g)
        np.testing.assert_array_equal(out.data.view(bits),
                                      np.where(x > 0, x, slope * x).view(bits))
        np.testing.assert_array_equal(dx.view(bits), np.where(x > 0, g, g * slope).view(bits))
        # Tape.gradients keeps a first contribution uncopied only when it is not g
        assert not np.shares_memory(dx, g)


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = T.layer_norm(Tensor([[1.0, 1.0, 1.0]]), Tensor(np.ones(3)),
                           Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_standardized_row_fixed_point(self):
        out = T.layer_norm(Tensor([[-1.0, 1.0]]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_gradient_random(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((4, 8)))
        g = Tensor(rng.standard_normal(8))
        b = Tensor(rng.standard_normal(8))
        err = grad_check(
            lambda u, gg, bb: T.sum_all(T.mul(T.layer_norm(u, gg, bb), u)), [x, g, b])
        assert err < 1e-6

    def test_eps_positive(self):
        with pytest.raises(ValidationError):
            T.layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]), eps=0.0)

    def test_gain_and_bias_in_x_dtype(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(ValidationError, match="dtype"):
            T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3, dtype=np.float32)))
        # plain arrays take x's dtype, as in the binary ops
        assert T.layer_norm(x, np.ones(3), np.zeros(3)).data.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_buffers_never_alias(self, dtype):
        rng = np.random.default_rng(4)
        x, gain, bias = (Tensor(rng.standard_normal(shape).astype(dtype))
                         for shape in ((6, 5), (5,), (5,)))
        x_before = x.data.copy()
        with Tape() as tape:
            out = T.layer_norm(x, gain, bias)
            backward = tape.records[-1][2]
        out_before = out.data.copy()
        g = rng.standard_normal(out.shape).astype(dtype)
        g_before = g.copy()
        first, second = backward(g), backward(g)
        assert not np.shares_memory(out.data, x.data)
        for arr, before in ((x.data, x_before), (out.data, out_before), (g, g_before)):
            assert _same_bits(arr, before)
        for a, b in zip(first, second):
            assert _same_bits(a, b) and a.dtype == dtype
            assert not np.shares_memory(a, g) and not np.shares_memory(a, b)
        # float32 differences need a wider step, and resolve ~eps32 / step
        err = grad_check(lambda u, gg, bb: T.sum_all(T.mul(T.layer_norm(u, gg, bb), u)),
                         [x, gain, bias], step=1e-5 if dtype == np.float64 else 1e-3)
        assert err < (1e-6 if dtype == np.float64 else 5e-3)


class TestSoftmax:
    def test_symmetric(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0]), axis=0).data, [0.5, 0.5])

    def test_large_logits_no_overflow(self):
        out = T.softmax(Tensor([1000.0, 0.0]), axis=0).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_gradient_random(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal(6))
        probe = Tensor(rng.standard_normal(6))
        err = grad_check(
            lambda u: T.sum_all(T.mul(T.softmax(u, axis=0), probe)), [x])
        assert err < 1e-6

    def test_rows_positive_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((5, 7)) * rng.uniform(0.1, 50)
            y = T.softmax(Tensor(x), axis=1).data
            assert (y >= 0).all()
            np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_bad_axis(self):
        with pytest.raises(ShapeError):
            T.softmax(Tensor([1.0]), axis=3)


class TestSegmentSum:
    def test_basic(self):
        # rows 0,1 land in segment 0 (1+2), row 2 in segment 1, segment 2 empty
        out = T.segment_sum(Tensor([[1.0], [2.0], [3.0]]), np.array([0, 0, 1]), 3)
        np.testing.assert_array_equal(out.data, [[3.0], [3.0], [0.0]])

    def test_empty_edges(self):
        out = T.segment_sum(Tensor(np.zeros((0, 4))), np.zeros(0, dtype=int), 5)
        np.testing.assert_array_equal(out.data, np.zeros((5, 4)))

    def test_gradient_scatters(self):
        rng = np.random.default_rng(4)
        vals = Tensor(rng.standard_normal((6, 2)))
        ids = np.array([0, 2, 2, 1, 0, 2])
        err = grad_check(
            lambda u: T.sum_all(T.mul(T.segment_sum(u, ids, 3),
                                      T.segment_sum(u, ids, 3))), [vals])
        assert err < 1e-6

    def test_out_of_range_id(self):
        with pytest.raises(ValidationError, match="out of range"):
            T.segment_sum(Tensor(np.ones((2, 1))), np.array([0, 5]), 3)

    def test_permuted_rows_bit_identical_for_exact_values(self):
        # integer-valued doubles add exactly, so reordering must not change bits
        rng = np.random.default_rng(5)
        vals = rng.integers(-50, 50, size=(40, 3)).astype(np.float64)
        ids = rng.integers(0, 7, size=40)
        base = T.segment_sum(Tensor(vals), ids, 7).data
        perm = rng.permutation(40)
        permuted = T.segment_sum(Tensor(vals[perm]), ids[perm], 7).data
        assert np.array_equal(base, permuted)

    def test_same_input_same_bits(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal((30, 2))
        ids = rng.integers(0, 4, size=30)
        a = T.segment_sum(Tensor(vals), ids, 4).data
        b = T.segment_sum(Tensor(vals), ids, 4).data
        assert np.array_equal(a, b)


def _add_at(rows, ids, n):
    """Reference scatter-add: numpy's unbuffered in-order ``np.add.at`` in
    float64, cast back to the rows' dtype."""
    out = np.zeros((n, rows.shape[1]))
    np.add.at(out, ids, rows.astype(np.float64))
    return out.astype(rows.dtype)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _scatter_cases():
    """Repeated and skipped ids, magnitudes from 1e-8 to 1e8, and gradients
    that are column slices of a wider array, as ``concat`` hands them out; in
    float64 and float32.  Then rows of -0.0, which sum to +0.0, and no ids."""
    rng = np.random.default_rng(31)
    for trial in range(80):
        n = int(rng.integers(1, 12))
        e = int(rng.integers(1, 60))
        d = int(rng.integers(1, 6))
        ids = rng.integers(0, n, size=e)
        ids[: e // 3] = ids[0]             # many rows into one bucket
        wide = rng.standard_normal((e, d + 3)) * 10.0 ** rng.integers(-8, 9, size=(e, 1))
        wide = wide.astype(np.float32 if trial >= 40 else np.float64)
        rows = wide[:, 1:1 + d] if trial % 2 else np.ascontiguousarray(wide[:, :d])
        yield rows, ids, n
    for dtype in (np.float64, np.float32):
        yield np.full((7, 3), -0.0, dtype=dtype), np.array([2, 0, 2, 2, 4, 0, 2]), 5
        yield np.zeros((0, 3), dtype=dtype), np.zeros(0, dtype=np.int64), 4


class TestScatterBits:
    def test_segment_sum_matches_add_at_bit_for_bit(self):
        for rows, ids, n in _scatter_cases():
            out = T.segment_sum(Tensor(rows), ids, n).data
            assert _same_bits(out, _add_at(rows, ids, n))

    def test_gather_rows_backward_matches_add_at_bit_for_bit(self):
        for g, ids, n in _scatter_cases():
            x = Tensor(np.zeros((n, g.shape[1]), dtype=g.dtype))
            with Tape() as tape:
                y = T.gather_rows(x, ids)
                (gx,) = tape.gradients(T.sum_all(T.mul(y, g)), [x])
            assert _same_bits(gx, _add_at(g, ids, n))

    def test_skipped_ids_stay_zero(self):
        out = T.segment_sum(Tensor([[1e8], [1e-8], [-1e8]]), np.array([3, 3, 3]), 5).data
        assert out[3, 0] == (1e8 + 1e-8) - 1e8
        assert not out[[0, 1, 2, 4]].any()

    def test_empty_gather_backward_gives_float64_zeros(self):
        x = Tensor(np.ones((4, 3)))
        with Tape() as tape:
            total = T.sum_all(x)
            y = T.gather_rows(x, np.zeros(0, dtype=np.int64))
            # the empty scatter is x's first contribution; the ones add into it
            (gx,) = tape.gradients(T.add(total, T.sum_all(y)), [x])
        assert gx.dtype == np.float64
        np.testing.assert_array_equal(gx, np.ones((4, 3)))


class TestGradCheck:
    def test_square_at_three(self):
        err = grad_check(lambda x: T.mul(x, x), [Tensor([3.0])])
        assert err < 1e-8

    def test_composed_mlp_softmax(self):
        rng = np.random.default_rng(7)
        w0, b0 = Tensor(rng.standard_normal((5, 8))), Tensor(rng.standard_normal(8))
        w1 = Tensor(rng.standard_normal((8, 4)))
        x = Tensor(rng.standard_normal((3, 5)))
        probe = Tensor(rng.standard_normal((3, 4)))

        def f(xx, ww0, bb0, ww1):
            h = T.leaky_relu(T.add(T.matmul(xx, ww0), bb0), 0.01)
            return T.sum_all(T.mul(T.softmax(T.matmul(h, ww1), axis=1), probe))

        assert grad_check(f, [x, w0, b0, w1]) < 1e-5

    def test_wrong_gradient_rule_detected(self):
        def bad_square(x):
            out = Tensor(x.data * x.data)
            tape = Tape._active
            if tape is not None:
                tape.record(out, (x,), lambda g: [g], "bad_square", x.size)
            return out

        err = grad_check(lambda x: T.sum_all(bad_square(x)), [Tensor([2.0, -1.5])])
        assert err > 1e-2

    def test_verify_negative_control_fails_by_its_rule(self):
        # the sabotaged square hands back g (= 1) where 2x is due; the error
        # grad_check reports is exactly that rule's, not a lost contribution
        from mgnt.verify import _sabotaged_square

        x = np.array([[2.0, -1.5], [0.25, 3.0]])
        err = grad_check(lambda u: T.sum_all(_sabotaged_square(u)), [Tensor(x)])
        expected = (np.abs(1.0 - 2.0 * x) / np.maximum(1.0, np.abs(2.0 * x))).max()
        assert err == pytest.approx(expected, rel=1e-6)

    def test_step_bounds(self):
        with pytest.raises(ValidationError):
            grad_check(lambda x: T.sum_all(x), [Tensor([1.0])], step=1e-2)

    @pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")  # x / 0 on purpose
    def test_nonfinite_detected(self):
        with pytest.raises(NumericError):
            grad_check(lambda x: T.sum_all(T.div(x, T.sub(x, x))), [Tensor([1.0])])


class TestItem:
    @pytest.mark.parametrize("value, expected", [(3.0, 3.0), ([2.5], 2.5), ([[2.5]], 2.5)],
                             ids=["0d", "1", "1x1"])
    def test_size_one_any_rank(self, value, expected):
        got = Tensor(value).item()
        assert type(got) is float
        assert got == expected

    def test_size_two_names_shape(self):
        with pytest.raises(ShapeError, match=r"\(2,\)"):
            Tensor([1.0, 2.0]).item()


class TestTapeMechanics:
    def test_backward_visits_each_record_once(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = T.mul(x, x)
            z = T.add(y, y)
            loss = T.sum_all(z)
            n_records = len(tape.records)
            tape.gradients(loss, [x])
        assert n_records == 3

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor([2.0])
        with Tape() as tape:
            y = T.add(T.mul(x, x), T.mul(x, x))
            (g,) = tape.gradients(T.sum_all(y), [x])
        assert g[0] == pytest.approx(8.0)

    def test_scalar_products_accumulate(self):
        # a product of 0-d arrays is a numpy scalar; it must not become the
        # accumulator as is, or the second term's sum is lost
        x = Tensor(3.0)
        with Tape() as tape:
            (g,) = tape.gradients(T.add(T.mul(x, x), T.mul(x, x)), [x])
        assert g == 12.0

    def test_add_same_tensor_twice(self):
        x = Tensor(np.array([1.5, -2.0]))
        with Tape() as tape:
            (g,) = tape.gradients(T.sum_all(T.add(x, x)), [x])
        np.testing.assert_array_equal(g, [2.0, 2.0])

    def test_add_operands_get_unaliased_gradients(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal((3, 2)))
        b = Tensor(rng.standard_normal((3, 2)))
        w = rng.standard_normal((3, 2))
        with Tape() as tape:
            ga, gb = tape.gradients(T.sum_all(T.mul(T.add(a, b), w)), [a, b])
        np.testing.assert_array_equal(ga, w)
        np.testing.assert_array_equal(gb, w)
        assert not np.may_share_memory(ga, gb)

    def test_concat_parts_get_unaliased_gradients(self):
        rng = np.random.default_rng(13)
        a = Tensor(rng.standard_normal((4, 2)))
        b = Tensor(rng.standard_normal((4, 3)))
        w = rng.standard_normal((4, 5))
        with Tape() as tape:
            c = T.concat([a, b], axis=1)
            ga, gb = tape.gradients(T.sum_all(T.mul(c, w)), [a, b])
        np.testing.assert_array_equal(ga, w[:, :2])
        np.testing.assert_array_equal(gb, w[:, 2:])
        assert not np.may_share_memory(ga, gb)

    def test_tape_holds_only_what_backward_reads(self):
        # an MLP layer, then an edge gather into a concat: the arrays no
        # backward reads must die with the caller's last reference
        rng = np.random.default_rng(16)
        x = Tensor(rng.standard_normal((5, 3)))
        w0, b0 = Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal(4))
        w1, b1 = Tensor(rng.standard_normal((4, 4))), Tensor(rng.standard_normal(4))
        gain, bias = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
        w = rng.standard_normal((12, 4))
        with Tape() as tape:
            m0 = T.matmul(x, w0)
            h0 = T.add(m0, b0)
            a0 = T.leaky_relu(h0)
            m1 = T.matmul(a0, w1)
            h1 = T.add(m1, b1)
            y = T.layer_norm(h1, gain, bias)
            e = T.gather_rows(y, np.array([0, 2, 2, 4, 1, 3, 0]))
            c = T.concat([e, y])
            loss = T.sum_all(T.mul(c, w))
            dropped = {name: weakref.ref(t.data) for name, t in
                       [("matmul 0", m0), ("bias add 0", h0), ("matmul 1", m1),
                        ("layer-norm input", h1), ("gathered rows", e)]}
            kept = weakref.ref(a0.data)
            del m0, h0, a0, m1, h1, y, e, c
            assert [name for name, ref in dropped.items() if ref() is not None] == []
            assert kept() is not None  # matmul's backward reads its left operand
            grads = tape.gradients(loss, [x, w0, b0, w1, b1, gain, bias])
            assert tape.records == []
            assert kept() is None

        def f(*args):
            u, v0, c0, v1, c1, gg, bb = args
            h = T.layer_norm(T.add(T.matmul(T.leaky_relu(T.add(T.matmul(u, v0), c0)), v1), c1),
                             gg, bb)
            return T.sum_all(T.mul(T.concat([T.gather_rows(h, np.array([0, 2, 2, 4, 1, 3, 0])),
                                             h]), w))

        with Tape() as tape:
            probes = [Tensor(t.data) for t in (x, w0, b0, w1, b1, gain, bias)]
            expected = tape.gradients(f(*probes), probes)
        for got, want in zip(grads, expected):
            np.testing.assert_array_equal(got, want)

    def test_closure_with_too_few_contributions_raises(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        with Tape() as tape:
            out = Tensor(a.data + b.data)
            tape.record(out, (a, b), lambda g: [g], "short_add", out.size)
            with pytest.raises(ValueError):
                tape.gradients(T.sum_all(out), [a, b])

    def test_tapes_do_not_nest(self):
        with Tape():
            with pytest.raises(ValidationError):
                with Tape():
                    pass

    def test_broadcast_bias_gradient(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((4, 3)))
        b = Tensor(rng.standard_normal(3))
        assert grad_check(lambda u, bb: T.sum_all(T.mul(T.add(u, bb), T.add(u, bb))),
                          [x, b]) < 1e-6

    def test_gather_slice_concat_grads(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((6, 3)))

        def f(u):
            g = T.gather_rows(u, np.array([0, 0, 4, 2]))
            s = T.slice_rows(u, 1, 4)
            c = T.concat([g, s], axis=0)
            return T.sum_all(T.mul(c, c))

        assert grad_check(f, [x]) < 1e-6

    def test_div_maximum_transpose_grads(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)))
        y = Tensor(rng.uniform(0.5, 2.0, size=(3, 1)))

        def f(u, w):
            z = T.div(u, w)
            z = T.maximum_scalar(z, 0.8)
            return T.sum_all(T.mul(T.transpose(z), T.transpose(z)))

        assert grad_check(f, [x, y]) < 1e-6


def _f32(rng, shape):
    return Tensor(rng.standard_normal(shape).astype(np.float32))


# each op on float32 operands, with the plain numbers and arrays it takes
_FLOAT32_OPS = {
    "add_scalar": lambda x, y, rng: T.add(x, 0.5),
    "sub_array": lambda x, y, rng: T.sub(x, rng.standard_normal((5, 3))),
    "mul": lambda x, y, rng: T.mul(x, y),
    "div_scalar": lambda x, y, rng: T.div(x, 3.0),
    "scale": lambda x, y, rng: T.scale(x, np.float64(0.25)),
    "maximum_scalar": lambda x, y, rng: T.maximum_scalar(x, 0.1),
    "matmul_array": lambda x, y, rng: T.matmul(rng.standard_normal((2, 5)), x),
    "transpose": lambda x, y, rng: T.transpose(x),
    "leaky_relu": lambda x, y, rng: T.leaky_relu(x, 0.01),
    "layer_norm": lambda x, y, rng: T.layer_norm(x, _f32(rng, 3), _f32(rng, 3)),
    "softmax": lambda x, y, rng: T.softmax(x, axis=1),
    "segment_sum": lambda x, y, rng: T.segment_sum(x, np.array([0, 2, 2, 0, 1]), 4),
    "segment_sum_empty": lambda x, y, rng: T.segment_sum(
        T.slice_rows(x, 0, 0), np.zeros(0, dtype=np.int64), 3),
    "gather_rows": lambda x, y, rng: T.gather_rows(x, np.array([4, 0, 4])),
    "slice_rows": lambda x, y, rng: T.slice_rows(x, 1, 3),
    "concat_array": lambda x, y, rng: T.concat([x, rng.standard_normal((5, 2))], axis=1),
    "reshape": lambda x, y, rng: T.reshape(x, (3, 5)),
    "sum_axis": lambda x, y, rng: T.sum_axis(x, axis=0),
}


class TestPrecision:
    def test_float32_kept_other_data_float64(self):
        assert Tensor(np.ones(2, dtype=np.float32)).data.dtype == np.float32
        for data in (np.ones(2, dtype=np.float16), np.arange(3), [1, 2], 2.5):
            assert Tensor(data).data.dtype == np.float64

    @pytest.mark.parametrize("name", sorted(_FLOAT32_OPS))
    def test_op_keeps_float32(self, name):
        rng = np.random.default_rng(5)
        x, y = _f32(rng, (5, 3)), _f32(rng, (5, 3))
        with Tape() as tape:
            out = _FLOAT32_OPS[name](x, y, rng)
            loss = T.sum_all(T.mul(out, out))
            grads = tape.gradients(loss, [x, y])
        assert out.data.dtype == loss.data.dtype == np.float32
        assert [g.dtype for g in grads] == [np.float32, np.float32]


class TestCensus:
    def test_counts_by_scope(self):
        x = Tensor(np.ones((4, 4)))
        with Tape() as tape:
            with tape.scope("stage_a"):
                T.matmul(x, x)
            with tape.scope("stage_b"):
                T.add(x, x)
                T.add(x, x)
        census = tape.census()
        assert census["stage_a"]["matmul"] == (1, 2 * 4 * 4 * 4)
        assert census["stage_b"]["add"] == (2, 32)

    def test_forward_deterministic_same_seed(self):
        def run():
            rng = np.random.default_rng(123)
            x = Tensor(rng.standard_normal((5, 5)))
            return T.softmax(T.matmul(x, x), axis=1).data

        assert np.array_equal(run(), run())


def test_many_random_gradient_checks():
    """Primitive gradients across random shapes and seeds (spec-level sweep)."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(30):
        m, k, n = rng.integers(1, 5, size=3)
        a = Tensor(rng.standard_normal((m, k)))
        b = Tensor(rng.standard_normal((k, n)))
        probe = Tensor(rng.standard_normal((m, n)))
        worst = max(worst, grad_check(
            lambda u, w: T.sum_all(T.mul(T.matmul(u, w), probe)), [a, b]))
        x = Tensor(rng.standard_normal((m, k)))
        probe2 = Tensor(rng.standard_normal((m, k)))
        worst = max(worst, grad_check(
            lambda u: T.sum_all(T.mul(T.softmax(u, axis=1), probe2)), [x]))
    assert worst < 1e-5
