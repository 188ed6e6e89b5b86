"""The backward walk on whole graphs, checked against independent references.

``test_tensor.py`` and ``test_gradcheck.py`` check each op's VJP on its
own.  This module drives the walk in :mod:`repro.nn.autodiff` through
graphs where the ops interact: long elementwise chains, random op soups,
multi-consumer accumulation, broadcasting/reduction/indexing mixes, view
chains, mixed-dtype edges, the precision policies, the hybrid quantum
layer, and repeated walks over one graph shape with changing data.

Float64 gradients are compared with central finite differences; float32
gradients with the float64 walk at single-precision tolerance, and their
dtypes with what :func:`repro.nn.precision.grad_dtype` promises.
"""

import numpy as np
import pytest

from repro.nn import Tensor, grad, hvp, no_grad
from repro.nn.optim import SGD
from repro.nn.precision import use_precision

FD_TOL = dict(rtol=1e-5, atol=1e-6)
F32_TOL = dict(rtol=1e-4, atol=1e-5)


def walk_grads(fn, arrays):
    """Leaf grads of the scalar ``fn(*leaves)`` from one backward walk."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fn(*leaves).backward()
    return [leaf.grad for leaf in leaves]


def fd_grads(fn, arrays, eps=1e-6):
    """Central finite differences of the scalar ``fn`` w.r.t. each array."""
    arrays = [np.array(a, dtype=np.float64) for a in arrays]

    def value():
        with no_grad():
            return float(fn(*[Tensor(a) for a in arrays]).data)

    out = []
    for a in arrays:
        g = np.zeros_like(a)
        flat_a, flat_g = a.reshape(-1), g.reshape(-1)
        for i in range(flat_a.size):
            orig = flat_a[i]
            flat_a[i] = orig + eps
            hi = value()
            flat_a[i] = orig - eps
            lo = value()
            flat_a[i] = orig
            flat_g[i] = (hi - lo) / (2 * eps)
        out.append(g)
    return out


def assert_matches_fd(fn, arrays):
    got = walk_grads(fn, arrays)
    for i, (g, ref) in enumerate(zip(got, fd_grads(fn, arrays))):
        assert g is not None, f"leaf {i} got no grad"
        assert g.dtype == np.float64 and g.shape == ref.shape
        np.testing.assert_allclose(g, ref, **FD_TOL, err_msg=f"leaf {i}")


UNARY_CHAINS = [
    lambda x: (x * 3.0 + 1.0).sum(),
    lambda x: (-x - 0.5).sum(),
    lambda x: (x * x).exp().sum(),
    lambda x: (x.abs() + 1.0).log().sum(),
    lambda x: (x * x + 1.0).sqrt().sum(),
    lambda x: x.relu().sum(),
    lambda x: x.sigmoid().sum(),
    lambda x: x.tanh().sum(),
    lambda x: x.abs().sum(),
    lambda x: x.clip(-0.5, 0.5).sum(),
    lambda x: (x**3).sum(),
    lambda x: ((x.abs() + 0.1) ** 2.5).sum(),
    lambda x: (x / 1.7).sum(),
]
UNARY_IDS = [
    "mul_add", "neg_sub", "exp", "log", "sqrt", "relu", "sigmoid",
    "tanh", "abs", "clip", "pow_int", "pow_frac", "div",
]


class TestElementwiseChains:
    """Every elementwise primitive, alone and in long chains."""

    @pytest.mark.parametrize("fn", UNARY_CHAINS, ids=UNARY_IDS)
    def test_single_op_chain_matches_fd(self, fn):
        x0 = np.random.default_rng(0).normal(size=(4, 5))
        assert_matches_fd(fn, [x0])

    @pytest.mark.parametrize("fn", UNARY_CHAINS, ids=UNARY_IDS)
    def test_single_op_chain_float32(self, fn):
        """Under the float32 policy a float32 leaf keeps a float32 grad
        whose values track the float64 walk."""
        x0 = np.random.default_rng(0).normal(size=(4, 5))
        (ref,) = walk_grads(fn, [x0])
        with use_precision("float32"):
            (got,) = walk_grads(fn, [x0.astype(np.float32)])
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, **F32_TOL)

    def test_deep_chain_matches_fd(self):
        def fn(x):
            h = x
            for i in range(20):
                h = (h * 1.01).tanh() if i % 2 else (h + 0.1).sigmoid()
            return h.sum()

        assert_matches_fd(fn, [np.random.default_rng(0).normal(size=(4, 6))])

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_graph_matches_fd(self, seed):
        """Random op soup: shared subexpressions, broadcasting and fan-in."""
        unary = [
            lambda t: t.tanh(), lambda t: t.sigmoid(), lambda t: t.relu(),
            lambda t: (t * t + 1.0).sqrt(), lambda t: t.abs(),
            lambda t: t.clip(-2.0, 2.0), lambda t: (t * 0.3).exp(),
            lambda t: -t, lambda t: t ** 2,
        ]
        binary = [
            lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
            lambda a, b: a / (b * b + 1.0), lambda a, b: a * 0.5 + b,
        ]

        def fn(x, y):
            oprng = np.random.default_rng(100 + seed)
            live = [x, x * 1.0 + y, (x + y).tanh()]
            for _ in range(12):
                if oprng.random() < 0.5 or len(live) < 2:
                    t = live[oprng.integers(len(live))]
                    live.append(unary[oprng.integers(len(unary))](t))
                else:
                    a = live[oprng.integers(len(live))]
                    b = live[oprng.integers(len(live))]
                    live.append(binary[oprng.integers(len(binary))](a, b))
            total = live[-1]
            for t in live[-4:-1]:
                total = total + t
            return total.sum()

        rng = np.random.default_rng(seed)
        assert_matches_fd(fn, [rng.normal(size=(3, 4)), rng.normal(size=(4,))])


class TestStructuralOps:
    def test_matmul_mlp_matches_fd(self):
        def fn(x, w1, b1, w2):
            h = (x @ w1 + b1).tanh()
            return ((h @ w2) ** 2).sum()

        rng = np.random.default_rng(0)
        assert_matches_fd(fn, [
            rng.normal(size=(6, 5)), rng.normal(size=(5, 7)) * 0.3,
            rng.normal(size=(7,)) * 0.1, rng.normal(size=(7, 2)) * 0.3,
        ])

    def test_broadcasting_reductions_indexing_matches_fd(self):
        def fn(x, b, s):
            h = (x + b) * s
            u = h.sum(axis=0, keepdims=True) + h.max(axis=1, keepdims=True)
            v = u.reshape((-1,))[2:5]
            w = Tensor.concatenate([v, v * 2.0], axis=0)
            t = Tensor.stack([w, -w], axis=0)
            return (t.transpose((1, 0)) ** 2).sum()

        rng = np.random.default_rng(0)
        assert_matches_fd(fn, [
            rng.normal(size=(4, 3)), rng.normal(size=(3,)),
            rng.normal(size=(1, 3)),
        ])

    def test_multi_consumer_accumulation_matches_fd(self):
        """One tensor feeding many consumers sums every contribution."""

        def fn(x):
            h = x.tanh()
            a = (h * 2.0).exp()
            b = (h + 1.0).sigmoid()
            c = h * h
            d = h / (c + 1.0)
            return (a * b + c * d).sum()

        assert_matches_fd(fn, [np.random.default_rng(0).normal(size=(5, 5))])

    def test_astype_and_scalar_root(self):
        """Under the default float64 policy a float32 leaf accumulates its
        grad in float64 (grad_dtype promotion)."""
        x0 = np.random.default_rng(0).normal(size=(3,)).astype(np.float32)
        x = Tensor(x0, requires_grad=True)
        y = x.astype(np.float64)
        ((y * y).sum() * 2.0).backward()
        assert x.grad.dtype == np.float64
        np.testing.assert_allclose(x.grad, 4.0 * x0.astype(np.float64))


class TestPrecisionPolicies:
    @staticmethod
    def _fn(x, w):
        return ((x @ w).relu().exp() * x.sigmoid()).sum()

    @pytest.mark.parametrize(
        "policy, data_dtype, grad_dtype",
        [("float64", np.float64, np.float64),
         ("float32", np.float32, np.float32),
         ("mixed32", np.float32, np.float64)],
    )
    def test_policy_grad_dtype_and_values(self, policy, data_dtype,
                                          grad_dtype):
        rng = np.random.default_rng(0)
        x0, w0 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        ref = walk_grads(self._fn, [x0, w0])
        with use_precision(policy):
            x = Tensor(x0.astype(data_dtype), requires_grad=True)
            w = Tensor(w0.astype(data_dtype), requires_grad=True)
            self._fn(x, w).backward()
        for got, want in zip((x.grad, w.grad), ref):
            assert got.dtype == grad_dtype
            tol = FD_TOL if policy == "float64" else F32_TOL
            np.testing.assert_allclose(got, want, **tol)

    def test_cross_dtype_chain(self):
        """float32 and float64 leaves in one graph keep their own grad
        dtypes under the float32 policy."""
        rng = np.random.default_rng(0)
        a0, b0 = rng.normal(size=(5,)), rng.normal(size=(5,))

        def fn(a, b):
            return ((a * b).tanh().exp() * a).sum()

        ref = walk_grads(fn, [a0, b0])
        with use_precision("float32"):
            x32 = Tensor(a0.astype(np.float32), requires_grad=True)
            x64 = Tensor(b0, requires_grad=True)
            fn(x32, x64).backward()
        assert x32.grad.dtype == np.float32 and x64.grad.dtype == np.float64
        np.testing.assert_allclose(x32.grad, ref[0], **F32_TOL)
        np.testing.assert_allclose(x64.grad, ref[1], **F32_TOL)


class TestAccumulationAndFunctional:
    def test_preexisting_grad_accumulates(self):
        x0 = np.random.default_rng(0).normal(size=(4,))
        x = Tensor(x0, requires_grad=True)
        (x * 3.0).sum().backward()
        x.tanh().sum().backward()  # adds into the existing .grad
        np.testing.assert_allclose(x.grad, 3.0 + (1.0 - np.tanh(x0) ** 2))

    def test_grad_of_intermediate_target(self):
        x0 = np.random.default_rng(0).normal(size=(4,))
        x = Tensor(x0, requires_grad=True)
        h = x.tanh()
        gh, gx = grad((h * h).sum(), (h, x), retain_graph=True)
        t = np.tanh(x0)
        np.testing.assert_allclose(gh.data, 2.0 * t)
        np.testing.assert_allclose(gx.data, 2.0 * t * (1.0 - t * t))

    def test_hvp_matches_analytic_hessian(self):
        """``sum(x * tanh(x))`` has a diagonal Hessian
        ``2 sech^2(x) (1 - x tanh(x))``."""
        rng = np.random.default_rng(0)
        x0, v0 = rng.normal(size=(6,)), rng.normal(size=(6,))
        x = Tensor(x0, requires_grad=True)
        (h,) = hvp((x.tanh() * x).sum(), (x,), (Tensor(v0),))
        t = np.tanh(x0)
        diag = 2.0 * (1.0 - t * t) * (1.0 - x0 * t)
        np.testing.assert_allclose(h.data, diag * v0, rtol=1e-12, atol=1e-12)

    def test_grad_results_are_not_overwritten_by_later_walks(self):
        """Functional grad() results are user-visible arrays: a later walk
        over a graph of the same shape must not write into them."""
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 8)))
        w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        h = (x @ w).tanh()
        (g1,) = grad((h * h).sum(), [w])
        keep = g1.data.copy()
        w.data = w.data + 0.25
        h2 = (x @ w).tanh()
        (g2,) = grad((h2 * h2).sum(), [w])
        assert np.array_equal(g1.data, keep)
        assert not np.shares_memory(g1.data, g2.data)


class TestHybrid:
    @staticmethod
    def _layer_and_input():
        from repro.qnn import QuantumLayer
        from repro.quantum.circuit import Circuit

        circuit = Circuit(3)
        circuit.amplitude_embedding(8)
        circuit.strongly_entangling_layers(1)
        circuit.measure_expval()
        layer = QuantumLayer(circuit, rng=np.random.default_rng(5))
        x0 = np.random.default_rng(0).normal(size=(4, 8))
        return layer, x0

    def test_quantum_layer_input_grad_matches_fd(self):
        layer, x0 = self._layer_and_input()
        assert_matches_fd(lambda x: (layer(x) ** 2).sum(), [x0])

    def test_quantum_layer_param_grads_match_fd(self):
        layer, x0 = self._layer_and_input()
        params = list(layer.parameters())
        assert params
        (layer(Tensor(x0)) ** 2).sum().backward()
        for p in params:
            got = p.grad.copy()
            base = p.data.copy()

            def fn(arr, p=p):
                p.data = arr.data
                return (layer(Tensor(x0)) ** 2).sum()

            (ref,) = fd_grads(fn, [base])
            p.data = base
            np.testing.assert_allclose(got, ref, **FD_TOL)


class TestTrainingLoop:
    def test_zero_grad_modes_train_identically(self):
        """A short SGD loop lands on identical parameters whether grads
        are reset to ``None`` or zeroed in place."""

        def train(set_to_none):
            rng = np.random.default_rng(3)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            x = Tensor(rng.normal(size=(8, 4)))
            opt = SGD([w], lr=0.05)
            for _ in range(5):
                opt.zero_grad(set_to_none=set_to_none)
                ((x @ w).tanh() ** 2).sum().backward()
                opt.step()
            return w.data.copy()

        assert np.array_equal(train(True), train(False))


class TestViews:
    """Transpose/reshape/astype VJPs return views of the incoming
    cotangent; the walk must still hand each leaf correct values."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: (x.T * 2.0).tanh().sum(),
            lambda x: (x.reshape(20) * 1.5).sigmoid().sum(),
            lambda x: (x.T.reshape(20).reshape(5, 4).T * 0.7).sum(),
            lambda x: (x.astype("float64") * 3.0).tanh().sum(),
        ],
        ids=["transpose", "reshape", "transpose_reshape_mix", "astype"],
    )
    def test_view_chain_matches_fd(self, fn):
        assert_matches_fd(fn, [np.random.default_rng(0).normal(size=(4, 5))])

    def test_same_base_consumed_through_two_views(self):
        def fn(x):
            return ((x.T * 2.0).tanh()
                    + x.reshape(16).sigmoid().reshape(4, 4)).sum()

        assert_matches_fd(fn, [np.random.default_rng(0).normal(size=(4, 4))])

    def test_view_cotangent_into_multi_contribution_slot(self):
        def fn(x):
            y = (x * 1.3).tanh()
            return y.T.sum() + (y * y).sum()

        assert_matches_fd(fn, [np.random.default_rng(0).normal(size=(3, 7))])


class TestMatmulEdges:
    @staticmethod
    def _mlp(x, w1, w2):
        return ((x @ w1).tanh() @ w2).sum()

    @staticmethod
    def _mlp_arrays():
        rng = np.random.default_rng(0)
        return [rng.normal(size=(6, 8)), rng.normal(size=(8, 10)),
                rng.normal(size=(10, 4))]

    def test_two_layer_mlp_matches_fd(self):
        assert_matches_fd(self._mlp, self._mlp_arrays())

    def test_float32_mlp_tracks_float64(self):
        arrays = self._mlp_arrays()
        ref = walk_grads(self._mlp, arrays)
        with use_precision("float32"):
            got = walk_grads(self._mlp, [a.astype(np.float32) for a in arrays])
        for g, r in zip(got, ref):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, r, **F32_TOL)

    def test_mixed_dtype_matmul(self):
        """f32 @ f64 promotes to f64; each leaf's grad keeps the dtype
        its policy promises and the values stay float64-exact."""
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(5, 6)).astype(np.float32)
        b0 = rng.normal(size=(6, 3))
        with use_precision("float32"):
            a = Tensor(a0, requires_grad=True)
            b = Tensor(b0, requires_grad=True)
            (a @ b).tanh().sum().backward()
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
        s = 1.0 - np.tanh(a0.astype(np.float64) @ b0) ** 2
        np.testing.assert_allclose(b.grad, a0.astype(np.float64).T @ s,
                                   rtol=1e-12)
        np.testing.assert_allclose(a.grad, s @ b0.T, **F32_TOL)

    def test_repeated_walks_with_new_data_match_fresh_graphs(self):
        """Walks over one graph shape with changing data each return the
        gradient of *their* data, identical to a walk on fresh leaves."""
        x0, w10, w20 = self._mlp_arrays()
        x = Tensor(x0)
        w1 = Tensor(w10, requires_grad=True)
        w2 = Tensor(w20, requires_grad=True)
        for _ in range(3):
            w1.grad = w2.grad = None
            self._mlp(x, w1, w2).backward()
            fresh = walk_grads(lambda a, b: self._mlp(Tensor(x.data), a, b),
                               [w1.data, w2.data])
            assert np.array_equal(w1.grad, fresh[0])
            assert np.array_equal(w2.grad, fresh[1])
            w1.data = w1.data + 0.1
            x.data = x.data * 1.01


class TestStagedKernels:
    """tanh/sigmoid/pow stacked deep: values stay close to the float64
    reference in both widths, and repeated walks never go stale."""

    @staticmethod
    def _fn(x):
        h = x
        for _ in range(4):
            h = (h.tanh() * 1.1).sigmoid() ** 2.5
        return h.sum()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_deep_stack(self, dtype):
        x0 = np.random.default_rng(0).random(size=(8, 9)) + 0.5
        if dtype == np.float64:
            assert_matches_fd(self._fn, [x0])
            return
        (ref,) = walk_grads(self._fn, [x0])
        with use_precision("float32"):
            (got,) = walk_grads(self._fn, [x0.astype(np.float32)])
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, **F32_TOL)

    def test_repeated_walks_with_new_data_not_stale(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(7, 7)), requires_grad=True)

        def fn(t):
            return ((t * 0.9).tanh().sigmoid() ** 3).sum()

        for _ in range(3):
            x.grad = None
            fn(x).backward()
            (fresh,) = walk_grads(fn, [x.data])
            assert np.array_equal(x.grad, fresh)
            x.data = rng.normal(size=(7, 7))
