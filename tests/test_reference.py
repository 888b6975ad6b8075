"""Reference attention: softmax, forward, analytic backward, finite differences."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from flashwin import (
    AttnParams,
    DenseTensor,
    InvalidRangeError,
    NumericsError,
    Rng,
    ScratchpadArena,
    ShapeError,
    TileConfig,
    fill_uniform,
    finite_diff_grad,
    flash_backward,
    flash_forward,
    max_abs_diff,
    naive_backward,
    naive_forward,
    softmax_backward,
    softmax_rows,
    zeros,
)
from flashwin import harness, reference

FD_STEP = 1e-5


def rand(rng, shape):
    return fill_uniform(rng, shape, -1.0, 1.0)


def loss_fn(do):
    """<dO, O> through the untiled forward pass, one value per stacked copy."""

    def of(q, k, v):
        return (do.array * naive_forward(q, k, v)[0].array).sum(axis=(-2, -1))

    return of


class TestSoftmaxRows:
    def test_all_zero_row_is_uniform(self):
        p = softmax_rows(zeros([3, 5]))
        assert np.allclose(p.array, 1.0 / 5.0, atol=1e-15)

    def test_handbook_row(self):
        p = softmax_rows(DenseTensor((1, 2), [0.0, math.log(3.0)]))
        assert np.allclose(p.array, [[0.25, 0.75]], atol=1e-15)

    def test_shift_invariance(self):
        rng = Rng(11)
        s = rand(rng, (6, 6))
        for c in (-500.0, 3.25, 701.0):
            shifted = DenseTensor(s.shape, s.array + c)
            assert max_abs_diff(softmax_rows(s), softmax_rows(shifted)) <= 1e-12

    def test_rows_are_stochastic(self):
        p = softmax_rows(rand(Rng(12), (16, 16)))
        assert np.all(p.array >= 0.0) and np.all(p.array <= 1.0)
        assert np.abs(p.array.sum(axis=1) - 1.0).max() <= 1e-12

    def test_nan_input_reported(self):
        bad = np.zeros((2, 2))
        bad[0, 1] = np.nan
        with pytest.raises(NumericsError):
            softmax_rows(DenseTensor((2, 2), bad))

    def test_non_2d_rejected(self):
        with pytest.raises(ShapeError):
            softmax_rows(zeros([4]))

    def test_stacked_rows_equal_per_matrix_calls(self):
        s = rand(Rng(26), (3, 5, 5))
        p = softmax_rows(s)
        for i in range(3):
            assert np.array_equal(p.array[i], softmax_rows(DenseTensor((5, 5), s.array[i])).array)

    def test_nan_in_stack_reported(self):
        bad = np.zeros((3, 2, 2))
        bad[2, 1, 0] = np.nan
        with pytest.raises(NumericsError):
            softmax_rows(DenseTensor(bad.shape, bad))


class TestNaiveForward:
    def test_zero_keys_give_column_means(self):
        rng = Rng(13)
        q, v = rand(rng, (5, 3)), rand(rng, (5, 3))
        o, p = naive_forward(q, zeros([5, 3]), v)
        assert np.allclose(o.array, np.tile(v.array.mean(axis=0), (5, 1)), atol=1e-15)
        assert np.allclose(p.array, 0.2, atol=1e-15)

    def test_length_one_sequence(self):
        rng = Rng(14)
        q, k, v = (rand(rng, (1, 4)) for _ in range(3))
        o, p = naive_forward(q, k, v)
        assert p.array.tolist() == [[1.0]]
        assert np.array_equal(o.array, v.array)

    @pytest.mark.parametrize("L", [8, 1024])
    def test_output_columns_inside_value_hull(self, L):
        rng = Rng(15)
        q, k, v = (rand(rng, (L, 4)) for _ in range(3))
        o, _ = naive_forward(q, k, v)
        eps = 1e-12
        assert np.all(o.array <= v.array.max(axis=0) + eps)
        assert np.all(o.array >= v.array.min(axis=0) - eps)

    def test_scale_is_applied_before_softmax(self):
        rng = Rng(16)
        q, k, v = (rand(rng, (4, 4)) for _ in range(3))
        _, p = naive_forward(q, k, v, AttnParams(scale=0.5))
        want = softmax_rows(DenseTensor((4, 4), 0.5 * (q.array @ k.array.T)))
        assert np.allclose(p.array, want.array, atol=1e-15)
        assert not np.allclose(p.array, softmax_rows(DenseTensor((4, 4), q.array @ k.array.T)).array)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            naive_forward(zeros([2, 3]), zeros([2, 3]), zeros([2, 4]))

    @pytest.mark.parametrize(
        "shapes, wrong",
        [
            (((3, 4), (5, 4), (5, 4)), "k of shape (3, 4), got (5, 4)"),
            (((5, 3), (5, 4), (5, 4)), "k of shape (5, 3), got (5, 4)"),
            (((5, 4), (5, 4), (6, 4)), "v of shape (5, 4), got (6, 4)"),
            (((2, 5, 4), (5, 3), (5, 4)), "k of shape (5, 4), got (5, 3)"),
            (((5, 4), (5, 4), (2, 6, 4)), "v of shape (5, 4), got (6, 4)"),
        ],
        ids=["q_rows", "q_features", "v_length", "stacked_q", "stacked_v"],
    )
    def test_q_k_and_v_need_one_length_and_feature_count(self, shapes, wrong):
        # Through the shape rule, on each operand's (L, C): its stack axes may broadcast.
        msg = f"naive_forward needs {wrong}"
        with pytest.raises(ShapeError, match=f"^{re.escape(msg)}$"):
            naive_forward(*(zeros(list(s)) for s in shapes))

    def test_1d_operand_rejected(self):
        msg = r"^naive_forward needs q with 2\.\.4 axes, got \(3,\)$"
        with pytest.raises(ShapeError, match=msg):
            naive_forward(zeros([3]), zeros([2, 3]), zeros([2, 3]))

    @pytest.mark.parametrize("stacked", [0, 1, 2])
    def test_stacked_operand_equals_per_copy_calls(self, stacked):
        rng = Rng(27)
        qkv = [rand(rng, (6, 4)) for _ in range(3)]
        stack = rand(rng, (3, 6, 4))
        operands = list(qkv)
        operands[stacked] = stack
        o, p = naive_forward(*operands, AttnParams(scale=0.5))
        assert o.shape == (3, 6, 4)
        for i in range(3):
            operands[stacked] = DenseTensor((6, 4), stack.array[i])
            o_i, p_i = naive_forward(*operands, AttnParams(scale=0.5))
            assert np.array_equal(o.array[i], o_i.array)
            if stacked < 2:  # V does not enter the scores
                assert np.array_equal(p.array[i], p_i.array)

    def test_outputs_are_read_only(self):
        rng = Rng(32)
        for t in naive_forward(*(rand(rng, (4, 3)) for _ in range(3))):
            with pytest.raises(ValueError):
                t.array[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(5, 3), (2, 3, 5, 3)])
    def test_p_is_read_only_softmax_of_scaled_scores(self, shape):
        rng = Rng(33)
        q, k, v = (rand(rng, shape) for _ in range(3))
        _, p = naive_forward(q, k, v, AttnParams(scale=0.25))
        s = 0.25 * (q.array @ k.array.swapaxes(-1, -2))
        assert np.array_equal(p.array, softmax_rows(DenseTensor(s.shape, s)).array)
        with pytest.raises(ValueError):
            p.array[..., 0, 0] = 1.0
        bad = k.array.copy()
        bad[..., 1, 0] = np.inf  # non-finite scores in column 1
        with pytest.raises(NumericsError):
            naive_forward(q, DenseTensor(shape, bad), v)

    def test_stack_axes_must_broadcast(self):
        msg = "naive_forward needs stacks that broadcast, got ((2, 3, 4), (3, 3, 4), (3, 4))"
        with pytest.raises(ShapeError, match=f"^{re.escape(msg)}$"):
            naive_forward(zeros([2, 3, 4]), zeros([3, 3, 4]), zeros([3, 4]))

    def test_nan_in_stacked_operand_reported(self):
        bad = np.zeros((2, 3, 4))
        bad[1, 0, 2] = np.nan
        with pytest.raises(NumericsError):
            naive_forward(DenseTensor(bad.shape, bad), zeros([3, 4]), zeros([3, 4]))

    def test_bad_scale_rejected(self):
        with pytest.raises(InvalidRangeError):
            AttnParams(scale=0.0)

    @pytest.mark.parametrize("scale", ["0.5", True, None, Fraction(1, 2)], ids=repr)
    def test_a_scale_that_is_not_an_integer_or_a_float_is_refused(self, scale):
        message = f"scale must be a finite number > 0, got {scale!r}"
        for make in (AttnParams, lambda s: TileConfig(r=1, scale=s)):
            with pytest.raises(InvalidRangeError, match=f"^{re.escape(message)}$"):
                make(scale)

    def test_numpy_scales_run_as_the_numbers_they_hold(self):
        q, k, v = (rand(Rng(31), (4, 6)) for _ in range(3))
        for scale, same in ((np.float64(0.5), 0.5), (np.int64(2), 2)):
            got, want = (naive_forward(q, k, v, AttnParams(scale=s))[0] for s in (scale, same))
            assert np.array_equal(got.array, want.array)
            assert repr(TileConfig(r=1, scale=scale).scale) == repr(float(same))


class TestSoftmaxBackward:
    def test_zero_upstream_gradient(self):
        p = softmax_rows(rand(Rng(17), (4, 4)))
        ds = softmax_backward(p, zeros([4, 4]))
        assert np.array_equal(ds.array, np.zeros((4, 4)))

    def test_row_constant_upstream_gradient(self):
        p = softmax_rows(rand(Rng(18), (4, 4)))
        dp = np.repeat([[1.0], [-2.0], [0.5], [3.0]], 4, axis=1)
        ds = softmax_backward(p, DenseTensor((4, 4), dp))
        assert np.abs(ds.array).max() <= 1e-15

    def test_rows_of_ds_sum_to_zero(self):
        rng = Rng(19)
        p = softmax_rows(rand(rng, (9, 9)))
        ds = softmax_backward(p, rand(rng, (9, 9)))
        assert np.abs(ds.array.sum(axis=1)).max() <= 1e-10

    def test_matches_finite_differences_of_softmax(self):
        rng = Rng(20)
        s = rand(rng, (6, 6))
        dp = rand(rng, (6, 6))
        analytic = softmax_backward(softmax_rows(s), dp)
        probe = lambda t: (dp.array * softmax_rows(t).array).sum(axis=(-2, -1))
        fd = finite_diff_grad(probe, s, FD_STEP)
        assert max_abs_diff(analytic, fd) <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            softmax_backward(zeros([3, 3]), zeros([3, 4]))


class TestNaiveBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = Rng(21)
        q, k, v = (rand(rng, (5, 3)) for _ in range(3))
        _, p = naive_forward(q, k, v)
        for g in naive_backward(q, k, v, p, zeros([5, 3])):
            assert np.array_equal(g.array, np.zeros((5, 3)))

    def test_length_one_sequence(self):
        rng = Rng(22)
        q, k, v, do = (rand(rng, (1, 4)) for _ in range(4))
        _, p = naive_forward(q, k, v)
        dq, dk, dv = naive_backward(q, k, v, p, do)
        assert np.array_equal(dv.array, do.array)
        assert np.abs(dq.array).max() <= 1e-15
        assert np.abs(dk.array).max() <= 1e-15

    def test_matches_finite_differences(self):
        rng = Rng(23)
        q, k, v, do = (rand(rng, (8, 4)) for _ in range(4))
        _, p = naive_forward(q, k, v)
        dq, dk, dv = naive_backward(q, k, v, p, do)
        of = loss_fn(do)
        assert max_abs_diff(dq, finite_diff_grad(lambda t: of(t, k, v), q, FD_STEP)) <= 1e-6
        assert max_abs_diff(dk, finite_diff_grad(lambda t: of(q, t, v), k, FD_STEP)) <= 1e-6
        assert max_abs_diff(dv, finite_diff_grad(lambda t: of(q, k, t), v, FD_STEP)) <= 1e-6

    @pytest.mark.parametrize("L", [1, 2, 8, 49, 64])
    @pytest.mark.parametrize("C", [4, 16, 32])
    def test_oracle_closure_across_shapes(self, L, C):
        rng = Rng(1000 + 64 * L + C)
        q, k, v, do = (rand(rng, (L, C)) for _ in range(4))
        _, p = naive_forward(q, k, v)
        dq, dk, dv = naive_backward(q, k, v, p, do)
        of = loss_fn(do)
        assert max_abs_diff(dq, finite_diff_grad(lambda t: of(t, k, v), q, FD_STEP)) <= 1e-5
        assert max_abs_diff(dk, finite_diff_grad(lambda t: of(q, t, v), k, FD_STEP)) <= 1e-5
        assert max_abs_diff(dv, finite_diff_grad(lambda t: of(q, k, t), v, FD_STEP)) <= 1e-5

    def test_stacked_problems_equal_per_slice_calls(self):
        rng = Rng(28)
        q, k, v, do = (rand(rng, (2, 3, 5, 4)) for _ in range(4))
        _, p = naive_forward(q, k, v, AttnParams(scale=0.5))
        grads = naive_backward(q, k, v, p, do, AttnParams(scale=0.5))
        for b in range(2):
            for h in range(3):
                sl = lambda t: DenseTensor((5, 4), t.array[b, h])
                _, p_bh = naive_forward(sl(q), sl(k), sl(v), AttnParams(scale=0.5))
                want = naive_backward(sl(q), sl(k), sl(v), p_bh, sl(do), AttnParams(scale=0.5))
                for g, w in zip(grads, want):
                    assert np.array_equal(g.array[b, h], w.array)

    def test_broadcast_stack_rejected(self):
        # A stack that broadcasts in the forward pass has no per-copy
        # gradient for its 2-D operands, so the backward pass refuses it.
        rng = Rng(29)
        q, do = rand(rng, (3, 5, 4)), rand(rng, (3, 5, 4))
        k, v = rand(rng, (5, 4)), rand(rng, (5, 4))
        _, p = naive_forward(q, k, v)
        with pytest.raises(ShapeError):
            naive_backward(q, k, v, p, do)

    def test_gradients_are_read_only_and_reproducible(self):
        rng = Rng(30)
        q, k, v, do = (rand(rng, (6, 4)) for _ in range(4))
        dp = rand(rng, (6, 6))
        params = AttnParams(scale=0.5)
        _, p = naive_forward(q, k, v, params)

        def outputs():
            return (*naive_backward(q, k, v, p, do, params), softmax_backward(p, dp))

        for got, fresh in zip(outputs(), outputs()):
            with pytest.raises(ValueError):
                got.array[0, 0] = 1.0
            assert np.array_equal(got.array, fresh.array)
            assert not np.shares_memory(got.array, fresh.array)

    def test_stacks_do_not_broadcast(self):
        # A broadcast operand would need its gradient summed over the stack.
        rng = Rng(31)
        q, do = rand(rng, (2, 5, 4)), rand(rng, (2, 5, 4))
        k, v = rand(rng, (5, 4)), rand(rng, (5, 4))
        _, p = naive_forward(q, k, v)
        msg = r"^naive_backward needs k of shape \(2, 5, 4\), got \(5, 4\)$"
        with pytest.raises(ShapeError, match=msg):
            naive_backward(q, k, v, p, do)

    def test_checks_its_operands_once_and_gets_ds_without_softmax_backward(self, monkeypatch):
        # dP is made from checked operands, so dS comes from softmax_backward's arithmetic on
        # the arrays, with none of softmax_backward's three rules run again.
        rng = Rng(32)
        q, k, v, do = (rand(rng, (2, 6, 4)) for _ in range(4))
        params = AttnParams(scale=0.5)
        _, p = naive_forward(q, k, v, params)
        calls = dict.fromkeys(["_tensors", "_axes", "_shaped"], 0)

        def counted(name, rule):
            def run(*args, **kwargs):
                calls[name] += 1
                return rule(*args, **kwargs)
            return run

        for name in calls:
            monkeypatch.setattr(reference, name, counted(name, getattr(reference, name)))

        def refuse(*args):
            raise AssertionError("softmax_backward called")

        monkeypatch.setattr(reference, "softmax_backward", refuse)
        dq, dk, dv = naive_backward(q, k, v, p, do, params)
        assert calls == {"_tensors": 2, "_axes": 1, "_shaped": 2}
        monkeypatch.undo()
        ds = softmax_backward(p, DenseTensor._adopt(do.array @ v.array.swapaxes(-1, -2))).array
        assert np.array_equal(dq.array, (ds @ k.array) * 0.5)  # the public function's bits
        assert np.array_equal(dk.array, (ds.swapaxes(-1, -2) @ q.array) * 0.5)
        assert np.array_equal(dv.array, p.array.swapaxes(-1, -2) @ do.array)

    def test_p_shape_consistency_checked(self):
        rng = Rng(24)
        q, k, v, do = (rand(rng, (4, 3)) for _ in range(4))
        _, wrong = naive_forward(*(rand(rng, (5, 3)) for _ in range(3)))
        with pytest.raises(ShapeError):
            naive_backward(q, k, v, wrong, do)

    def test_do_shape_must_match(self):
        rng = Rng(25)
        q, k, v = (rand(rng, (4, 3)) for _ in range(3))
        _, p = naive_forward(q, k, v)
        msg = r"^naive_backward needs dO of shape \(4, 3\), got \(4, 2\)$"
        with pytest.raises(ShapeError, match=msg):
            naive_backward(q, k, v, p, rand(rng, (4, 2)))


class TestFiniteDiffGrad:
    def test_sum_of_squares(self):
        grad = finite_diff_grad(lambda t: (t.array**2).sum(axis=-1),
                                DenseTensor((2,), [1.0, 2.0]), FD_STEP)
        assert np.allclose(grad.array, [2.0, 4.0], atol=1e-8)

    def test_linear_functional_is_exact(self):
        rng = Rng(25)
        a = rand(rng, (3, 3))
        x = rand(rng, (3, 3))
        grad = finite_diff_grad(lambda t: (a.array * t.array).sum(axis=(-2, -1)), x, 1e-3)
        assert max_abs_diff(grad, a) <= 1e-12

    def test_x_with_4_axes_is_refused_by_the_axis_rule_before_f_is_called(self):
        # The stack adds an axis, and a tensor has at most 4; the rule says so up front, not
        # the 5-axis stack once made.
        calls = []
        msg = r"^finite_diff_grad needs x with 1\.\.3 axes, got \(1, 2, 2, 2\)$"
        with pytest.raises(ShapeError, match=msg):
            finite_diff_grad(lambda t: calls.append(t.shape), zeros([1, 2, 2, 2]))
        assert calls == []

    def test_non_finite_evaluation_reported(self):
        with pytest.raises(NumericsError, match="non-finite evaluation at element 0$"):
            finite_diff_grad(lambda t: np.full(t.shape[0], np.inf), zeros([2]), FD_STEP)

    def test_chunked_stacks_equal_per_element_loop(self, monkeypatch):
        # 5x3 operands: each copy's largest stacked array is the 5x5 scores,
        # so a budget of 200 elements allows 4 elements per stack of 8
        # copies, and the 15 elements of Q take chunks of 4, 4, 4 and 3.
        monkeypatch.setattr(reference, "FD_STACK_ELEMS", 200)
        rng = Rng(30)
        q, k, v, do = (rand(rng, (5, 3)) for _ in range(4))
        of = loss_fn(do)
        stacks = []

        def probe(t):
            stacks.append(t.shape[0])
            return of(t, k, v)

        grad = finite_diff_grad(probe, q, FD_STEP)
        assert stacks == [8, 8, 8, 6]
        base = q.array.reshape(-1)
        want = np.empty(base.size)
        for i in range(base.size):
            bumped = base.copy()
            bumped[i] = base[i] + FD_STEP
            f_plus = float((do.array * naive_forward(DenseTensor((5, 3), bumped), k, v)[0].array).sum())
            bumped[i] = base[i] - FD_STEP
            f_minus = float((do.array * naive_forward(DenseTensor((5, 3), bumped), k, v)[0].array).sum())
            want[i] = (f_plus - f_minus) / (2.0 * FD_STEP)
        assert np.array_equal(grad.array.reshape(-1), want)

    def test_the_stack_bound_moves_no_bit_of_the_oracle_or_the_demo(self, monkeypatch):
        # FD_STACK_ELEMS sets only how many problems share a call: the gradients of every
        # grad_ shape of the L 1..1024, C 16..64 check grid, and the demo text, are the same
        # bytes at every bound, from one problem per call up.
        shapes = [(L, C) for L in (1, 2, 8, 49, 64, 1024) for C in (16, 32, 64) if L * C <= 256]
        outputs = set()
        for exponent in (9, 12, 15, 17):
            monkeypatch.setattr(reference, "FD_STACK_ELEMS", 1 << exponent)
            rng = Rng(42)
            grads = b"".join(
                g.array.tobytes()
                for shape in shapes
                for g in harness._fd_grads(*(rand(rng, shape) for _ in range(4)))
            )
            outputs.add((grads, harness.run_demo(H=28, W=28, C=32, k=7, seed=3)[0]))
        assert len(shapes) == 8 and len(outputs) == 1

    def test_non_finite_evaluation_names_element_of_later_chunk(self, monkeypatch):
        # 4x3 operand, per-copy bound 4*4 elements: 4 elements per stack of 8
        monkeypatch.setattr(reference, "FD_STACK_ELEMS", 8 * 16)
        x = rand(Rng(31), (4, 3))
        stacks = []

        def probe(t):
            # only the copies that perturb element 10, in the third stack, give inf
            stacks.append(t.shape[0])
            flat = t.array.reshape(t.shape[0], -1)
            moved = flat[:, 10] != x.array.reshape(-1)[10]
            return np.where(moved, np.inf, flat.sum(axis=-1))

        with pytest.raises(NumericsError, match="element 10$"):
            finite_diff_grad(probe, x, FD_STEP)
        assert stacks == [8, 8, 8]

    def test_one_value_per_copy_required(self):
        with pytest.raises(ShapeError):
            finite_diff_grad(lambda t: float(t.array.sum()), zeros([2]), FD_STEP)

    def test_bad_step_rejected(self):
        with pytest.raises(InvalidRangeError):
            finite_diff_grad(lambda t: 0.0, zeros([2]), 0.0)


def test_scores_past_exps_range_give_exact_weights_and_gradients_on_both_paths():
    # Scores of 900 overflow exp unless the row max is subtracted first; with it each row's
    # weights are exactly one-hot, so O is V, dV is dO and dS, hence dQ and dK, is zero.
    qkv = DenseTensor((2, 2), 30.0 * np.eye(2))
    do = DenseTensor((2, 2), [1.0, 2.0, 3.0, 4.0])
    o, p = naive_forward(qkv, qkv, qkv, AttnParams(scale=1.0))
    assert np.array_equal(p.array, np.eye(2)) and np.array_equal(o.array, qkv.array)
    flash_o, ctx, _ = flash_forward(qkv, qkv, qkv, TileConfig(r=2, scale=1.0), ScratchpadArena())
    assert np.array_equal(flash_o.array, qkv.array)
    naive = naive_backward(qkv, qkv, qkv, p, do, AttnParams(scale=1.0))
    flash = flash_backward(ctx, do, ScratchpadArena())[:3]
    for dq, dk, dv in (naive, flash):
        assert np.array_equal(dv.array, do.array)
        assert np.array_equal(dq.array, np.zeros((2, 2))) and np.array_equal(dk.array, dq.array)
