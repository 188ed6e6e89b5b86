"""Property tests for the compiled execution engine.

The compiled plan — since the unification, the degenerate ``p = 1`` view of
the stacked block/kernel substrate (fused runs, adjacent-wire 4x4 kron
pairs, diagonal/permutation kernels, composed ring gathers, checkpointed
transition-matrix backward) — must be *indistinguishable* from the naive
op-by-op interpreter: identical forward outputs and identical adjoint
gradients, to near machine precision, across randomized circuits covering
every gate in ``_PARAMETRIC | _FIXED``, both embeddings, both measurement
kinds, and both shared and per-sample (batched) gate parameters.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    Circuit,
    Operation,
    StackedPlan,
    backward,
    compile_circuit,
    compiled_plan,
    execute,
    naive_backward,
    naive_execute,
    stacked_plan,
)
from repro.quantum.engine import _SDense, _SDiagRZ, _SPermutation


def _compare(circuit, inputs, weights, rng, atol=1e-10):
    out_c, cache_c = execute(circuit, inputs, weights)
    out_n, cache_n = naive_execute(circuit, inputs, weights)
    np.testing.assert_allclose(out_c, out_n, atol=atol)
    grad_outputs = rng.normal(size=out_c.shape)
    gi_c, gw_c = backward(cache_c, grad_outputs)
    gi_n, gw_n = naive_backward(cache_n, grad_outputs)
    np.testing.assert_allclose(gw_c, gw_n, atol=atol)
    if gi_n is None:
        assert gi_c is None
    else:
        np.testing.assert_allclose(gi_c, gi_n, atol=atol)
    return grad_outputs, gw_c


class TestCompiledMatchesNaive:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_wires=st.integers(min_value=1, max_value=4),
        n_ops=st.integers(min_value=0, max_value=25),
        embedding=st.sampled_from(["none", "amplitude", "angle"]),
        measurement=st.sampled_from(["expval", "probs"]),
        batch=st.integers(min_value=1, max_value=4),
        reupload=st.booleans(),
    )
    def test_random_circuits(
        self, random_circuit, seed, n_wires, n_ops, embedding, measurement,
        batch, reupload
    ):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(
            rng, n_wires, n_ops, embedding, measurement, reupload
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        if circuit.n_inputs:
            inputs = rng.uniform(0.1, 2.0, size=(batch, circuit.n_inputs))
        else:
            inputs = None
        _compare(circuit, inputs, weights, rng)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_wires=st.integers(min_value=2, max_value=4),
        n_layers=st.integers(min_value=1, max_value=3),
    )
    def test_sel_circuits_match_parameter_shift(
        self, gradcheck_shift, seed, n_wires, n_layers
    ):
        rng = np.random.default_rng(seed)
        circuit = (
            Circuit(n_wires)
            .amplitude_embedding(2**n_wires)
            .strongly_entangling_layers(n_layers)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 2.0, size=(3, 2**n_wires))
        grad_outputs, gw_c = _compare(circuit, inputs, weights, rng)
        gradcheck_shift(circuit, inputs, weights, grad_outputs, gw_c)

    def test_reuploading_circuit(self):
        rng = np.random.default_rng(11)
        circuit = Circuit(3).reuploading_layers(3, 2).measure_expval()
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(-1, 1, size=(4, 3))
        _compare(circuit, inputs, weights, rng)

    def test_every_specialized_kernel(self):
        """One circuit hitting every lowering rule, batched and unbatched."""
        rng = np.random.default_rng(12)
        circuit = Circuit(3)
        circuit.rz(0)            # lone RZ -> diagonal phase kernel
        circuit.z(1)             # lone Z -> sign kernel
        circuit.x(2)             # lone X -> permutation kernel
        circuit.h(0).y(0)        # fused dense run
        circuit.rot(1)           # fused Rot triple
        circuit.cnot(0, 2)       # permutation
        circuit.cz(1, 2)         # sign
        circuit.swap(0, 1)       # permutation
        circuit.crz(2, 0)        # CRZ diagonal
        circuit.rx(2).ry(2)      # fused parametric run
        circuit.measure_probs()
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        _compare(circuit, None, weights, rng)

    def test_zero_fallback_rows_match(self):
        rng = np.random.default_rng(13)
        circuit = (
            Circuit(2)
            .amplitude_embedding(4, zero_fallback=True)
            .strongly_entangling_layers(2)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(3, 4))
        inputs[1] = 0.0  # a zero row exercises the fallback gradient mask
        _compare(circuit, inputs, weights, rng)


class TestPlanLowering:
    # Each circuit here starts from an amplitude embedding: on |0...0> the
    # leading single-qubit layer would lower into the product-state prep
    # (TestProductPrep) instead of the fusion each test names.

    def test_sel_rot_triples_fuse_into_pair_blocks(self):
        circuit = (
            Circuit(4).amplitude_embedding(16).strongly_entangling_layers(2)
            .measure_expval()
        )
        plan = compile_circuit(circuit)
        dense = [i for i in plan.instructions if isinstance(i, _SDense)]
        perms = [i for i in plan.instructions if isinstance(i, _SPermutation)]
        # 2 layers x 4 wires: each layer's Rot triples merge into two 4x4
        # kron pair blocks, and each CNOT ring composes into one gather.
        assert len(dense) == 4
        assert all(i.d == 4 for i in dense)
        assert all(len(slot[0]) == 3 for i in dense for slot in i.slots)
        assert len(perms) == 2
        assert plan.n_instructions == 6 < len(circuit.ops) == 32
        # All Rot runs share one signature -> one bulk-bound static group.
        assert len(plan.groups) == 1
        assert plan.groups[0].count == 8

    def test_commuting_gates_fuse_across_other_wires(self):
        # RY(0), CNOT(1,2), RY(0): the CNOT does not touch wire 0, so the
        # two RYs fuse into a single run.
        circuit = (
            Circuit(3).amplitude_embedding(8).ry(0).cnot(1, 2).ry(0)
            .measure_expval()
        )
        plan = compile_circuit(circuit)
        dense = [i for i in plan.instructions if isinstance(i, _SDense)]
        assert len(dense) == 1
        assert len(dense[0].slots[0][0]) == 2

    def test_two_qubit_gate_breaks_runs_on_its_wires(self):
        circuit = (
            Circuit(2).amplitude_embedding(4).ry(0).cnot(0, 1).ry(0)
            .measure_expval()
        )
        plan = compile_circuit(circuit)
        dense = [i for i in plan.instructions if isinstance(i, _SDense)]
        assert len(dense) == 2

    def test_kernel_specialization(self):
        circuit = (
            Circuit(3).amplitude_embedding(8).rz(0).z(1).x(2).cz(0, 1)
            .cnot(0, 2).crz(0, 1).measure_probs()
        )
        plan = compile_circuit(circuit)
        kinds = [type(i).__name__ for i in plan.instructions]
        # The lone X and the CNOT compose into a single gather.
        assert kinds == [
            "_SDiagRZ", "_SDiagSign", "_SDiagSign",
            "_SPermutation", "_SDiagCRZ",
        ]
        assert isinstance(plan.instructions[0], _SDiagRZ)

    def test_bad_wires_rejected_at_compile(self):
        circuit = Circuit(2).ry(1).measure_expval()
        circuit.ops.append(Operation("CNOT", (0, 5)))
        with pytest.raises(ValueError):
            execute(circuit, None, np.zeros(1))
        circuit.ops[-1] = Operation("CNOT", (1, 1))
        with pytest.raises(ValueError):
            execute(circuit, None, np.zeros(1))


class TestUnifiedSubstrate:
    """The per-instance plan IS the stacked substrate at p = 1."""

    def test_compiled_plan_is_a_stacked_plan(self):
        circuit = Circuit(3).strongly_entangling_layers(2).measure_expval()
        assert isinstance(compiled_plan(circuit), StackedPlan)

    def test_compiled_and_stacked_share_the_lowered_program(self):
        # One lowering serves both views: the instruction list and static
        # groups are the *same objects*, not structurally equal copies.
        circuit = Circuit(4).strongly_entangling_layers(3).measure_expval()
        cplan = compiled_plan(circuit)
        splan = stacked_plan(circuit)
        assert cplan.instructions is splan.instructions
        assert cplan.groups is splan.groups

    def test_single_circuit_equals_p1_stack(self):
        from repro.quantum import backward_stacked, execute_stacked

        rng = np.random.default_rng(31)
        circuit = (
            Circuit(3)
            .amplitude_embedding(8)
            .strongly_entangling_layers(2)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(4, 8))
        out_c, cache_c = execute(circuit, inputs, weights)
        out_s, cache_s = execute_stacked(circuit, inputs[None], weights[None])
        np.testing.assert_array_equal(out_c, out_s[0])
        grad_outputs = rng.normal(size=out_c.shape)
        gi_c, gw_c = backward(cache_c, grad_outputs)
        gi_s, gw_s = backward_stacked(cache_s, grad_outputs[None])
        np.testing.assert_array_equal(gw_c, gw_s[0])
        np.testing.assert_array_equal(gi_c, gi_s[0])


class TestPlanCaching:
    def test_plan_cached_on_circuit(self):
        circuit = Circuit(3).strongly_entangling_layers(1).measure_expval()
        assert compiled_plan(circuit) is compiled_plan(circuit)

    def test_mutation_invalidates_plan(self):
        circuit = Circuit(3).strongly_entangling_layers(1).measure_expval()
        plan = compiled_plan(circuit)
        circuit.ry(0)
        new_plan = compiled_plan(circuit)
        assert new_plan is not plan
        assert new_plan.n_instructions != plan.n_instructions

    def test_identical_structures_share_a_plan(self):
        def make():
            return Circuit(3).strongly_entangling_layers(2).measure_expval()

        assert compiled_plan(make()) is compiled_plan(make())

    def test_execute_reuses_plan(self):
        circuit = Circuit(2).strongly_entangling_layers(1).measure_expval()
        weights = np.linspace(-1, 1, circuit.n_weights)
        execute(circuit, None, weights, want_cache=False)
        plan = circuit._compiled_plan
        execute(circuit, None, weights, want_cache=False)
        assert circuit._compiled_plan is plan


class TestCacheCarriesEmbedding:
    def test_embedded_state_and_norms_cached(self):
        rng = np.random.default_rng(21)
        circuit = (
            Circuit(3)
            .amplitude_embedding(8)
            .strongly_entangling_layers(1)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(4, 8))
        __, cache = execute(circuit, inputs, weights)
        assert cache.embedded is not None
        assert cache.norms.shape == (4,)
        np.testing.assert_allclose(
            np.linalg.norm(cache.embedded, axis=1), np.ones(4), atol=1e-12
        )
        np.testing.assert_allclose(cache.norms, np.linalg.norm(inputs, axis=1))
        # The cached embedding must be the pristine pre-circuit state, not
        # the final state (pure applies never touch it).
        assert cache.embedded is not cache.final_state
        np.testing.assert_allclose(
            np.linalg.norm(cache.embedded, axis=1), np.ones(4), atol=1e-12
        )

    def test_backward_twice_is_deterministic(self):
        rng = np.random.default_rng(22)
        circuit = (
            Circuit(2)
            .amplitude_embedding(4)
            .strongly_entangling_layers(2)
            .measure_probs()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(2, 4))
        outputs, cache = execute(circuit, inputs, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        first = backward(cache, grad_outputs)
        second = backward(cache, grad_outputs)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
