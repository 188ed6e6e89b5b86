"""Tape-core tests: grad modes, functional grad/hvp, higher-order classics.

The first-order semantics of :meth:`Tensor.backward` are covered by
``test_tensor.py`` (unchanged across the tape refactor — that is the
point).  This file covers what the tape adds: ``no_grad``/``enable_grad``
as decorators, Tensor exponents, repeated/retained backward walks and
their buffer ownership, optimizer ``zero_grad`` modes, the functional
:func:`repro.nn.grad` interface (``==`` ``.backward()`` on a hybrid
quantum train step), and grad-of-grad against analytic second
derivatives and finite differences of first gradients.
"""

import numpy as np
import pytest

from repro.nn import Tensor, enable_grad, grad, hvp, is_grad_enabled, no_grad
from repro.nn.functional import mse_loss
from repro.nn.modules import Linear, Sequential, Tanh
from repro.nn.optim import SGD


def numeric_grad(fn, x0, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.zeros_like(x0)
    flat_x, flat_g = x0.reshape(-1), out.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = fn(x0)
        flat_x[i] = orig - eps
        lo = fn(x0)
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2 * eps)
    return out


class TestGradModeDecorators:
    def test_no_grad_decorator_with_parens(self):
        @no_grad()
        def fn(t):
            assert not is_grad_enabled()
            return t * 2.0

        x = Tensor([1.0], requires_grad=True)
        y = fn(x)
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_bare_decorator(self):
        @no_grad
        def fn(t):
            return t * 2.0

        x = Tensor([1.0], requires_grad=True)
        assert not fn(x).requires_grad

    def test_no_grad_still_a_context_manager(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert (x * 2.0).requires_grad

    def test_enable_grad_reenables_inside_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            with enable_grad():
                y = x * 2.0
            z = x * 3.0
        assert y.requires_grad
        assert not z.requires_grad

    def test_enable_grad_decorator(self):
        @enable_grad()
        def fn(t):
            return t * 2.0

        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = fn(x)
        assert y.requires_grad

    def test_decorator_restores_flag_on_exception(self):
        @no_grad()
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            boom()
        assert is_grad_enabled()


class TestTensorExponent:
    def test_pow_tensor_exponent_grads(self):
        a0 = np.array([1.5, 2.0, 0.7])
        b0 = np.array([2.0, -1.0, 0.5])
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        (a**b).sum().backward()
        np.testing.assert_allclose(
            a.grad, numeric_grad(lambda x: (x**b0).sum(), a0), atol=1e-6
        )
        np.testing.assert_allclose(
            b.grad, numeric_grad(lambda x: (a0**x).sum(), b0), atol=1e-6
        )

    def test_pow_tensor_exponent_broadcast(self):
        a = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a**b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((3, 2), 3.0 * 4.0))
        np.testing.assert_allclose(b.grad, [6 * 8.0 * np.log(2.0)])

    def test_pow_rejects_non_scalar_non_tensor(self):
        a = Tensor([2.0], requires_grad=True)
        with pytest.raises(TypeError, match="scalar exponents and Tensor"):
            a ** np.array([1.0, 2.0])

    def test_scalar_pow_unchanged(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        np.testing.assert_allclose(a.grad, [6.0])


class TestRepeatedBackward:
    def test_retain_graph_many_reruns(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x * x).sum()
        for i in range(1, 4):
            y.backward(retain_graph=True)
            np.testing.assert_allclose(x.grad, [12.0 * i])
        y.backward()  # final run may drop the graph
        np.testing.assert_allclose(x.grad, [48.0])

    def test_accumulation_across_separate_graphs(self):
        x = Tensor([3.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0 + 6.0])

    def test_intermediate_grad_not_retained_between_runs(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = (y * y).sum()
        z.backward(retain_graph=True)
        z.backward(retain_graph=True)
        # Leaf accumulates across runs; intermediate cotangents are
        # released as soon as their node is consumed, so only leaves
        # carry a .grad after the walk.
        np.testing.assert_allclose(x.grad, [2 * 2 * 9 * 2.0])
        assert y.grad is None
        assert z.grad is None

    def test_backward_after_teardown_is_inert(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        x.zero_grad()
        y.backward()  # graph gone: only the root's own grad is seeded
        assert x.grad is None

    def test_seed_array_is_not_mutated(self):
        seed = np.full((3,), 2.0)
        keep = seed.copy()
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = (x * x).tanh()
        y.backward(seed)
        assert np.array_equal(seed, keep)

    def test_leaf_grads_never_share_storage_across_runs(self):
        def run():
            x = Tensor(np.arange(4.0), requires_grad=True)
            w = Tensor(np.ones(4), requires_grad=True)
            # Two contributions into w exercise the accumulation path.
            ((x * w).tanh() + w * 0.5).sum().backward()
            return x.grad, w.grad

        g1 = run()
        g2 = run()
        for a, b in zip(g1, g2):
            assert not np.shares_memory(a, b)
            assert np.array_equal(a, b)
        g1[0][...] = -1.0  # mutating run 1's grads must not corrupt run 2's
        assert not np.array_equal(g1[0], g2[0])


class TestZeroGradSetToNone:
    def _params(self):
        p = Tensor(np.arange(3.0), requires_grad=True)
        (p * p).sum().backward()
        return p

    def test_default_sets_none(self):
        p = self._params()
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_set_to_none_false_zeroes_in_place(self):
        p = self._params()
        buf = p.grad
        SGD([p], lr=0.1).zero_grad(set_to_none=False)
        assert p.grad is buf
        assert np.array_equal(buf, np.zeros(3))

    def test_set_to_none_false_with_no_grad_is_noop(self):
        p = Tensor(np.arange(3.0), requires_grad=True)
        SGD([p], lr=0.1).zero_grad(set_to_none=False)
        assert p.grad is None


class TestFunctionalGrad:
    def test_grad_matches_backward(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        y = (x.tanh() * x).sum()
        (g,) = grad(y, [x], retain_graph=True)
        y.backward()
        np.testing.assert_allclose(g.data, x.grad)

    def test_grad_single_tensor_shorthand(self):
        x = Tensor([2.0], requires_grad=True)
        g = grad((x**3).sum(), x)
        np.testing.assert_allclose(g.data, [12.0])

    def test_grad_does_not_touch_grad_buffers(self):
        x = Tensor([2.0], requires_grad=True)
        grad((x * x).sum(), [x])
        assert x.grad is None

    def test_grad_requires_scalar_without_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            grad(x * 2.0, [x])

    def test_grad_with_grad_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (g,) = grad(x * x, [x], grad_output=np.array([1.0, 10.0]))
        np.testing.assert_allclose(g.data, [2.0, 40.0])

    def test_unreachable_input_raises_unless_allowed(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).sum()
        with pytest.raises(ValueError, match="allow_unused"):
            grad(y, [z], retain_graph=True)
        gx, gz = grad(y, [x, z], allow_unused=True)
        np.testing.assert_allclose(gx.data, [2.0])
        assert gz is None

    def test_grad_of_input_is_seed(self):
        x = Tensor([5.0], requires_grad=True)
        (g,) = grad(x.sum(), [x])
        np.testing.assert_allclose(g.data, [1.0])

    def test_grad_equals_backward_on_scalable_qae_train_step(self):
        """Hybrid tape (patched quantum primitive + classical ops): the
        functional walk and ``.backward()`` agree bit for bit."""
        from repro.models import ScalableQuantumAE

        model = ScalableQuantumAE(
            input_dim=16, n_patches=2, n_layers=1,
            rng=np.random.default_rng(7),
        )
        x = Tensor(np.random.default_rng(0).normal(size=(3, 16)),
                   requires_grad=True)
        loss = mse_loss(model(x).reconstruction, x)
        leaves = list(model.parameters()) + [x]
        grads = grad(loss, leaves, retain_graph=True)
        loss.backward()
        for leaf, g in zip(leaves, grads):
            assert g.dtype == leaf.grad.dtype
            assert np.array_equal(g.data, leaf.grad)


class TestHigherOrder:
    def test_second_derivative_of_cubic(self):
        x = Tensor(np.array([1.0, 2.0, -0.5]), requires_grad=True)
        (g,) = grad((x**3).sum(), [x], create_graph=True)
        (h,) = grad(g.sum(), [x])
        np.testing.assert_allclose(h.data, 6.0 * x.data)

    @pytest.mark.parametrize(
        "fn,second",
        [
            (lambda x: x.exp(), lambda v: np.exp(v)),
            (lambda x: x.log(), lambda v: -1.0 / v**2),
            (lambda x: x.sqrt(), lambda v: -0.25 * v**-1.5),
            (
                lambda x: x.tanh(),
                lambda v: -2 * np.tanh(v) * (1 - np.tanh(v) ** 2),
            ),
            (
                lambda x: x.sigmoid(),
                lambda v: (s := 1 / (1 + np.exp(-v))) * (1 - s) * (1 - 2 * s),
            ),
            (lambda x: 1.0 / x, lambda v: 2.0 / v**3),
        ],
    )
    def test_unary_second_derivatives(self, fn, second):
        v = np.array([0.3, 0.9, 1.7])
        x = Tensor(v.copy(), requires_grad=True)
        (g,) = grad(fn(x).sum(), [x], create_graph=True)
        (h,) = grad(g.sum(), [x])
        np.testing.assert_allclose(h.data, second(v), rtol=1e-10)

    def test_third_derivative(self):
        x = Tensor([2.0], requires_grad=True)
        (g1,) = grad((x**4).sum(), [x], create_graph=True)
        (g2,) = grad(g1.sum(), [x], create_graph=True)
        (g3,) = grad(g2.sum(), [x])
        np.testing.assert_allclose(g3.data, [24.0 * 2.0])

    def test_hvp_matches_finite_diff_of_grads_mlp(self):
        rng = np.random.default_rng(0)
        model = Sequential(Linear(4, 8, rng=rng), Tanh(), Linear(8, 1, rng=rng))
        x = Tensor(rng.normal(size=(5, 4)))
        params = list(model.parameters())
        vs = [rng.normal(size=p.shape) for p in params]

        def loss():
            return (model(x) ** 2).sum()

        hvps = hvp(loss(), params, vs)

        # Reference: (grad(theta + eps v) - grad(theta - eps v)) / 2eps with
        # EVERY parameter perturbed along its v at once, so the cross-block
        # Hessian terms the full HVP contains are present too.
        eps = 1e-6
        bases = [p.data.copy() for p in params]
        for p, base, v in zip(params, bases, vs):
            p.data = base + eps * v
        gp = grad(loss(), params)
        for p, base, v in zip(params, bases, vs):
            p.data = base - eps * v
        gm = grad(loss(), params)
        for p, base in zip(params, bases):
            p.data = base
        for h, gpq, gmq in zip(hvps, gp, gm):
            fd = (gpq.data - gmq.data) / (2 * eps)
            np.testing.assert_allclose(h.data, fd, atol=1e-4)

    def test_hvp_zero_for_linear_function(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        h = hvp((x * 3.0).sum(), x, np.array([1.0, 1.0]))
        np.testing.assert_allclose(h.data, [0.0, 0.0])

    def test_higher_order_through_shapes_and_indexing(self):
        v = np.array([0.5, 1.5, 2.5, 3.5])
        x = Tensor(v.copy(), requires_grad=True)

        def f(t):
            a = t.reshape(2, 2).T
            b = Tensor.concatenate([a[0], a[1]])
            c = Tensor.stack([b, b * 2.0]).max(axis=0)
            return (c * c).sum()

        (g,) = grad(f(x), [x], create_graph=True)
        (h,) = grad(g.sum(), [x])
        # f reduces to sum((2 t_i)^2) = 4 sum t_i^2; grad = 8 t, hess diag 8.
        np.testing.assert_allclose(g.data, 8.0 * v)
        np.testing.assert_allclose(h.data, np.full(4, 8.0))

    def test_higher_order_matmul(self):
        rng = np.random.default_rng(3)
        w0 = rng.normal(size=(3, 3))
        x0 = rng.normal(size=(2, 3))
        w = Tensor(w0.copy(), requires_grad=True)
        x = Tensor(x0.copy())

        def quartic(wt):
            y = x @ wt
            return ((y @ wt) ** 2).sum()

        def quartic_np(xm, wm):
            y = xm @ wm
            return float(((y @ wm) ** 2).sum())

        (g,) = grad(quartic(w), [w], create_graph=True)
        v = rng.normal(size=(3, 3))
        h = hvp(quartic(w), w, v)
        gp = numeric_grad(lambda m: quartic_np(x0, m), w0)
        np.testing.assert_allclose(g.data, gp, atol=1e-5)
        # Outer difference over the (already finite-diff-validated) exact
        # first-order gradient, so the reference error stays O(eps^2).
        eps = 1e-6
        w.data = w0 + eps * v
        g_plus = grad(quartic(w), w)
        w.data = w0 - eps * v
        g_minus = grad(quartic(w), w)
        w.data = w0
        fd = (g_plus.data - g_minus.data) / (2 * eps)
        np.testing.assert_allclose(h.data, fd, atol=1e-4)


class TestModuleFreezing:
    def test_requires_grad_freezes_and_unfreezes(self):
        rng = np.random.default_rng(1)
        model = Sequential(Linear(3, 3, rng=rng), Tanh(), Linear(3, 1, rng=rng))
        x = Tensor(rng.normal(size=(2, 3)))
        model.requires_grad_(False)
        out = (model(x) ** 2).sum()
        assert not out.requires_grad
        model.requires_grad_(True)
        (model(x) ** 2).sum().backward()
        assert all(p.grad is not None for p in model.parameters())
