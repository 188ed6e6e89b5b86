"""Property tests for stacked (multi-bind) execution.

``execute_stacked`` / ``backward_stacked`` run p structurally identical
weight-bindings of one circuit as a single ``(p * batch, 2**n)`` pass through
a :class:`~repro.quantum.engine.StackedPlan`.  The plan's specialized
lowering — per-patch bulk binding, adjacent-wire 4x4 kron blocks, composed
permutation gathers, transition-matrix gradients read from forward
checkpoints — must be *indistinguishable* from running the per-instance
compiled path p times: identical outputs, identical weight and input
gradients, to near machine precision, across the full gate set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    Circuit,
    backward,
    backward_stacked,
    compile_stacked,
    execute,
    execute_stacked,
    stacked_plan,
)
from repro.quantum.autodiff import _NORM_EPS, _prepare_amplitude
from repro.quantum.engine import _SDense, _SPermutation


def _compare_stacked(circuit, p, batch, rng, inputs=None, atol=1e-10):
    """Stacked pass vs p independent per-instance passes."""
    weights = rng.uniform(-np.pi, np.pi, (p, circuit.n_weights))
    out_s, cache = execute_stacked(circuit, inputs, weights)
    grad_outputs = rng.normal(size=out_s.shape)
    gi_s, gw_s = backward_stacked(cache, grad_outputs)
    for k in range(p):
        per_inputs = None if inputs is None else inputs[k]
        out_k, cache_k = execute(circuit, per_inputs, weights[k])
        np.testing.assert_allclose(out_s[k], out_k, atol=atol)
        gi_k, gw_k = backward(cache_k, grad_outputs[k])
        np.testing.assert_allclose(gw_s[k], gw_k, atol=atol)
        if gi_k is None:
            assert gi_s is None
        else:
            np.testing.assert_allclose(gi_s[k], gi_k, atol=atol)
    return out_s


class TestStackedMatchesPerInstance:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_wires=st.integers(min_value=1, max_value=4),
        n_ops=st.integers(min_value=0, max_value=25),
        embedding=st.sampled_from(["none", "amplitude", "angle"]),
        measurement=st.sampled_from(["expval", "probs"]),
        p=st.integers(min_value=1, max_value=4),
        batch=st.integers(min_value=1, max_value=3),
        reupload=st.booleans(),
    )
    def test_random_circuits(
        self, random_circuit, seed, n_wires, n_ops, embedding, measurement, p,
        batch, reupload
    ):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(
            rng, n_wires, n_ops, embedding, measurement, reupload
        )
        inputs = (
            rng.uniform(0.1, 2.0, size=(p, batch, circuit.n_inputs))
            if circuit.n_inputs
            else None
        )
        _compare_stacked(circuit, p, batch, rng, inputs)

    def test_sel_amplitude_with_zero_fallback_rows(self):
        rng = np.random.default_rng(7)
        circuit = (
            Circuit(3)
            .amplitude_embedding(8, zero_fallback=True)
            .strongly_entangling_layers(3)
            .measure_expval()
        )
        inputs = np.abs(rng.normal(size=(4, 3, 8))) + 0.05
        inputs[2, 1] = 0.0  # a zero row inside the stack
        _compare_stacked(circuit, 4, 3, rng, inputs)

    def test_every_specialized_kernel(self):
        rng = np.random.default_rng(8)
        circuit = Circuit(3)
        circuit.rz(0)            # lone RZ -> stacked diagonal kernel
        circuit.z(1)             # lone Z -> sign kernel
        circuit.x(2)             # lone X -> permutation kernel
        circuit.h(0).y(0)        # fused fixed run
        circuit.rot(1)           # fused Rot triple
        circuit.cnot(0, 2)
        circuit.cz(1, 2)
        circuit.swap(0, 1)
        circuit.crz(2, 0)
        circuit.rx(2).ry(2)
        circuit.measure_probs()
        _compare_stacked(circuit, 5, 1, rng)

    def test_p_equals_one(self):
        rng = np.random.default_rng(9)
        circuit = (
            Circuit(2).amplitude_embedding(4).strongly_entangling_layers(2)
            .measure_expval()
        )
        inputs = rng.uniform(0.1, 1.0, size=(1, 4, 4))
        _compare_stacked(circuit, 1, 4, rng, inputs)

    def test_want_inputs_false_skips_input_gradients(self):
        rng = np.random.default_rng(10)
        circuit = (
            Circuit(2).amplitude_embedding(4).strongly_entangling_layers(2)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, (3, circuit.n_weights))
        inputs = rng.uniform(0.1, 1.0, size=(3, 2, 4))
        out, cache = execute_stacked(circuit, inputs, weights)
        grad_outputs = rng.normal(size=out.shape)
        gi_full, gw_full = backward_stacked(cache, grad_outputs)
        gi_none, gw_none = backward_stacked(
            cache, grad_outputs, want_inputs=False
        )
        assert gi_none is None and gi_full is not None
        np.testing.assert_allclose(gw_none, gw_full, atol=1e-12)

    def test_backward_twice_is_deterministic(self):
        rng = np.random.default_rng(11)
        circuit = Circuit(3).reuploading_layers(3, 2).measure_expval()
        weights = rng.uniform(-np.pi, np.pi, (2, circuit.n_weights))
        inputs = rng.uniform(-1, 1, size=(2, 3, 3))
        out, cache = execute_stacked(circuit, inputs, weights)
        grad_outputs = rng.normal(size=out.shape)
        first = backward_stacked(cache, grad_outputs)
        second = backward_stacked(cache, grad_outputs)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestStackedValidation:
    def _circuit(self):
        return (
            Circuit(2).amplitude_embedding(4).strongly_entangling_layers(1)
            .measure_expval()
        )

    def test_weights_must_be_2d(self):
        circuit = self._circuit()
        with pytest.raises(ValueError, match="stacked weights"):
            execute_stacked(
                circuit, np.ones((2, 1, 4)), np.zeros(circuit.n_weights)
            )

    def test_weight_width_must_match(self):
        circuit = self._circuit()
        with pytest.raises(ValueError, match="stacked weights"):
            execute_stacked(
                circuit, np.ones((2, 1, 4)), np.zeros((2, circuit.n_weights + 1))
            )

    def test_inputs_must_be_3d_with_matching_p(self):
        circuit = self._circuit()
        weights = np.zeros((2, circuit.n_weights))
        with pytest.raises(ValueError, match="stacked inputs"):
            execute_stacked(circuit, np.ones((2, 4)), weights)
        with pytest.raises(ValueError, match="stacked inputs"):
            execute_stacked(circuit, np.ones((3, 1, 4)), weights)
        with pytest.raises(ValueError, match="stacked inputs"):
            execute_stacked(circuit, np.ones((2, 1, 3)), weights)

    def test_inputs_required(self):
        circuit = self._circuit()
        with pytest.raises(ValueError, match="inputs"):
            execute_stacked(circuit, None, np.zeros((2, circuit.n_weights)))

    def test_measurement_required(self):
        circuit = Circuit(2).ry(0)
        with pytest.raises(ValueError, match="measurement"):
            execute_stacked(circuit, None, np.zeros((2, 1)))


class TestStackedPlanLowering:
    def test_sel_pairs_merge_and_ring_composes(self):
        # 7 wires, 5 layers: per layer the Rot runs merge into three 4x4
        # pair blocks + one single, and the 7-CNOT ring composes into a
        # single gather.
        # Amplitude prep keeps the first layer out of the product-state prep.
        circuit = (
            Circuit(7).amplitude_embedding(128).strongly_entangling_layers(5)
            .measure_expval()
        )
        plan = compile_stacked(circuit)
        dense = [i for i in plan.instructions if isinstance(i, _SDense)]
        perms = [i for i in plan.instructions if isinstance(i, _SPermutation)]
        assert len(dense) == 20  # (3 pairs + 1 single) x 5 layers
        assert sum(1 for i in dense if i.d == 4) == 15
        assert len(perms) == 5  # one composed gather per ring
        assert plan.n_instructions == 25

    def test_pair_geometry(self):
        circuit = (
            Circuit(4).amplitude_embedding(16).strongly_entangling_layers(1)
            .measure_expval()
        )
        plan = compile_stacked(circuit)
        pairs = [
            i for i in plan.instructions
            if isinstance(i, _SDense) and i.d == 4
        ]
        assert [pair.wires for pair in pairs] == [(0, 1), (2, 3)]
        for pair in pairs:
            assert pair.left == 2 ** pair.wires[0]
            assert pair.right == 2 ** (4 - 1 - pair.wires[1])

    def test_composed_permutation_inverse(self):
        circuit = Circuit(3).cnot(0, 1).cnot(1, 2).cnot(2, 0).measure_probs()
        plan = compile_stacked(circuit)
        perms = [i for i in plan.instructions if isinstance(i, _SPermutation)]
        assert len(perms) == 1
        composed = perms[0]
        np.testing.assert_array_equal(
            composed.perm[composed.inv], np.arange(8)
        )

    def test_plan_cached_and_invalidated(self):
        circuit = Circuit(3).strongly_entangling_layers(1).measure_expval()
        plan = stacked_plan(circuit)
        assert stacked_plan(circuit) is plan
        circuit.ry(0)
        assert stacked_plan(circuit) is not plan

    def test_identical_structures_share_a_plan(self):
        def make():
            return Circuit(3).strongly_entangling_layers(2).measure_expval()

        assert stacked_plan(make()) is stacked_plan(make())


class TestAmplitudeNormGuard:
    """The near-zero embedding guard (satellite fix): rows whose norm is
    built from subnormal squares must hit the zero-fallback path (or raise)
    instead of being normalized into garbage."""

    def test_subnormal_norm_rows_use_fallback(self):
        features = np.full((1, 4), 1e-200)  # squares underflow entirely
        state, norms, zero_rows = _prepare_amplitude(features, 2, True)
        assert zero_rows[0]
        assert norms[0] == 1.0
        np.testing.assert_allclose(state[0, 0], 1.0)

    def test_tiny_but_representable_norms_pass(self):
        features = np.zeros((1, 4))
        features[0, 0] = 1e-100  # norm 1e-100 >> eps: normalizes exactly
        state, norms, zero_rows = _prepare_amplitude(features, 2, False)
        assert not zero_rows[0]
        np.testing.assert_allclose(np.abs(state[0, 0]), 1.0)

    def test_near_eps_rows_rejected_without_fallback(self):
        features = np.full((1, 4), _NORM_EPS / 100)
        with pytest.raises(ValueError, match="norm"):
            _prepare_amplitude(features, 2, False)

    def test_execute_routes_subnormal_rows_through_fallback(self):
        rng = np.random.default_rng(12)
        circuit = (
            Circuit(2)
            .amplitude_embedding(4, zero_fallback=True)
            .strongly_entangling_layers(1)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = np.abs(rng.normal(size=(3, 4))) + 0.1
        inputs[1] = 1e-200  # subnormal-norm row
        zeroed = inputs.copy()
        zeroed[1] = 0.0
        out, __ = execute(circuit, inputs, weights, want_cache=False)
        out_zero, __ = execute(circuit, zeroed, weights, want_cache=False)
        np.testing.assert_allclose(out[1], out_zero[1], atol=1e-12)
