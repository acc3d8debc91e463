"""Unit tests for the Tensor autodiff core: ops, broadcasting, backward."""

import numpy as np
import pytest

from repro.autograd import Tensor, concatenate, ones, randn, stack, where, zeros

from tests.helpers import finite_difference_check


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_int_array_casts_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_scalar(self):
        t = Tensor(2.5)
        assert t.item() == 2.5
        assert t.size == 1

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad

    def test_zeros_ones_constructors(self):
        assert zeros(2, 3).shape == (2, 3)
        assert np.all(ones(4).data == 1.0)
        assert randn(2, 2, rng=np.random.default_rng(0)).shape == (2, 2)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_len(self):
        assert len(Tensor([[1.0, 2.0], [3.0, 4.0]])) == 2


class TestArithmetic:
    def test_add(self):
        c = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
        np.testing.assert_allclose(c.data, [4.0, 6.0])

    def test_add_scalar(self):
        c = Tensor([1.0, 2.0]) + 1.0
        np.testing.assert_allclose(c.data, [2.0, 3.0])

    def test_radd(self):
        c = 1.0 + Tensor([1.0])
        np.testing.assert_allclose(c.data, [2.0])

    def test_sub_and_rsub(self):
        np.testing.assert_allclose((Tensor([3.0]) - 1.0).data, [2.0])
        np.testing.assert_allclose((5.0 - Tensor([3.0])).data, [2.0])

    def test_mul_div(self):
        np.testing.assert_allclose((Tensor([2.0]) * Tensor([4.0])).data, [8.0])
        np.testing.assert_allclose((Tensor([8.0]) / Tensor([4.0])).data, [2.0])
        np.testing.assert_allclose((8.0 / Tensor([4.0])).data, [2.0])

    def test_neg(self):
        np.testing.assert_allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])

    def test_pow(self):
        np.testing.assert_allclose((Tensor([2.0]) ** 3).data, [8.0])

    def test_pow_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([3.0])

    def test_matmul_2d(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_allclose((a @ b).data, [[17.0], [39.0]])

    def test_matmul_vector_cases(self):
        a = Tensor([1.0, 2.0])
        m = Tensor([[1.0, 0.0], [0.0, 1.0]])
        assert (a @ a).item() == 5.0
        np.testing.assert_allclose((a @ m).data, [1.0, 2.0])
        np.testing.assert_allclose((m @ a).data, [1.0, 2.0])

    def test_comparisons_return_arrays(self):
        mask = Tensor([1.0, 3.0]) > 2.0
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, [False, True])


class TestBackward:
    def test_simple_chain(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + 2.0 * x + 1.0
        y.backward()
        assert y.item() == 16.0
        np.testing.assert_allclose(x.grad, 8.0)  # 2x + 2

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2).backward()
        (x * 3).backward()
        np.testing.assert_allclose(x.grad, 5.0)

    def test_zero_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar_or_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_with_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_backward_seed_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 3).backward(np.array([1.0]))

    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_diamond_graph(self):
        # x used twice through different paths must sum gradients.
        x = Tensor(2.0, requires_grad=True)
        a = x * 3
        b = x * 4
        (a + b).backward()
        np.testing.assert_allclose(x.grad, 7.0)

    def test_shared_subexpression(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x
        z = y + y
        z.backward()
        np.testing.assert_allclose(x.grad, 8.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.backward()
        np.testing.assert_allclose(x.grad, 1.0)


class TestBroadcastGradients:
    def test_add_broadcast_bias(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        finite_difference_check(lambda a, b: ((a + b) ** 2).sum(), [a, b])

    def test_mul_broadcast_scalar_tensor(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        finite_difference_check(lambda a, b: (a * b).sum(), [a, b])

    def test_div_broadcast(self, rng):
        a = Tensor(rng.standard_normal((2, 3)) + 3.0, requires_grad=True)
        b = Tensor(rng.standard_normal(3) + 3.0, requires_grad=True)
        finite_difference_check(lambda a, b: (a / b).sum(), [a, b])

    def test_matmul_grads(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        finite_difference_check(lambda a, b: ((a @ b) ** 2).sum(), [a, b])

    def test_matmul_vector_grads(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        m = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        finite_difference_check(lambda a, m: ((a @ m) ** 2).sum(), [a, m])

    def test_matmul_matrix_vector_grads(self, rng):
        m = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal(4), requires_grad=True)
        finite_difference_check(lambda m, v: ((m @ v) ** 2).sum(), [m, v])


class TestShapeOps:
    def test_reshape(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        finite_difference_check(lambda a: (a.reshape(3, 4) ** 2).sum(), [a])

    def test_transpose_default(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        out = a.T
        assert out.shape == (3, 2)
        finite_difference_check(lambda a: (a.T ** 2).sum(), [a])

    def test_transpose_axes(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        assert a.transpose(1, 0, 2).shape == (3, 2, 4)
        finite_difference_check(lambda a: (a.transpose(2, 0, 1) ** 2).sum(), [a], tol=1e-4)

    def test_getitem_rows(self, rng):
        a = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2])
        finite_difference_check(lambda a: (a[idx] ** 2).sum(), [a])

    def test_getitem_duplicate_indices_accumulate(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        out = a[np.array([1, 1])].sum()
        out.backward()
        np.testing.assert_allclose(a.grad, [[0, 0], [2, 2], [0, 0]])

    def test_squeeze_expand(self, rng):
        a = Tensor(rng.standard_normal((2, 1, 3)), requires_grad=True)
        assert a.squeeze(1).shape == (2, 3)
        assert a.expand_dims(0).shape == (1, 2, 1, 3)
        finite_difference_check(lambda a: (a.squeeze(1) ** 2).sum(), [a])

    def test_concatenate(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        finite_difference_check(lambda a, b: (concatenate([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        finite_difference_check(lambda a, b: (stack([a, b]) ** 2).sum(), [a, b])

    def test_where(self, rng):
        cond = np.array([True, False, True])
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        finite_difference_check(lambda a, b: (where(cond, a, b) ** 2).sum(), [a, b])


class TestReductions:
    def test_sum_all(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        finite_difference_check(lambda a: (a.sum() ** 2), [a])

    def test_sum_axis_keepdims(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        assert a.sum(axis=0).shape == (4,)
        assert a.sum(axis=0, keepdims=True).shape == (1, 4)
        finite_difference_check(lambda a: (a.sum(axis=1) ** 2).sum(), [a])

    def test_mean(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        np.testing.assert_allclose(a.mean().item(), a.data.mean())
        finite_difference_check(lambda a: (a.mean(axis=0) ** 2).sum(), [a])

    def test_mean_tuple_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = a.mean(axis=(0, 2))
        assert out.shape == (3,)
        finite_difference_check(lambda a: (a.mean(axis=(0, 2)) ** 2).sum(), [a], tol=1e-4)

    def test_max(self):
        a = Tensor([[1.0, 5.0], [3.0, 2.0]], requires_grad=True)
        out = a.max(axis=1)
        np.testing.assert_allclose(out.data, [5.0, 3.0])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [[0, 1], [1, 0]])

    def test_max_ties_split_gradient(self):
        a = Tensor([2.0, 2.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "log", "sqrt", "tanh", "sigmoid", "relu", "abs"])
    def test_gradcheck(self, op, rng):
        data = rng.standard_normal((3, 3))
        if op in ("log", "sqrt"):
            data = np.abs(data) + 0.5
        a = Tensor(data, requires_grad=True)
        finite_difference_check(lambda a: (getattr(a, op)() ** 2).sum(), [a])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor([-1000.0, 1000.0])
        out = a.sigmoid()
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_relu_zeroes_negatives(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_clip(self, rng):
        a = Tensor(rng.standard_normal(10) * 3, requires_grad=True)
        out = a.clip(-1.0, 1.0)
        assert out.data.max() <= 1.0 and out.data.min() >= -1.0
        out.sum().backward()
        inside = (a.data >= -1) & (a.data <= 1)
        np.testing.assert_allclose(a.grad, inside.astype(float))

    def test_tanh_range(self, rng):
        out = Tensor(rng.standard_normal(100) * 10).tanh()
        assert np.all(np.abs(out.data) <= 1.0)


class TestConstantOperandGradients:
    """Binary ops return no gradient for an operand that does not require
    one, instead of computing it for the tape to drop."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda a, b: a + b,
            lambda a, b: a - b,
            lambda a, b: a * b,
            lambda a, b: a / b,
            lambda a, b: a @ b,
        ],
        ids=["add", "sub", "mul", "div", "matmul"],
    )
    @pytest.mark.parametrize("constant_first", [False, True])
    def test_constant_operand_gets_none(self, rng, op, constant_first):
        x = Tensor(rng.standard_normal((3, 3)) + 3.0, requires_grad=True)
        c = Tensor(rng.standard_normal((3, 3)) + 3.0)
        out = op(c, x) if constant_first else op(x, c)
        grads = out._backward(np.ones((3, 3)))
        assert grads[0 if constant_first else 1] is None
        assert grads[1 if constant_first else 0] is not None
        # The variable's gradient is the one computed when both require it.
        both = Tensor(c.data, requires_grad=True)
        full = (op(both, x) if constant_first else op(x, both))._backward(np.ones((3, 3)))
        i = 1 if constant_first else 0
        np.testing.assert_array_equal(grads[i], full[i])
