"""Tests for the product-state prep (``_SProductPrep``).

A circuit on |0...0> lowers each wire's leading single-qubit run into one
head instruction that builds the state as a Kronecker product of per-wire
2-vectors and differentiates through reduced cotangents.  It must agree
with the naive op-by-op interpreter (outputs, weight and input gradients)
and with central finite differences on the inputs, and it must keep the
engine's bitwise contracts: stacked ``==`` the per-patch loop and the
compiled plan ``==`` the stacked plan's first patch.
"""

import numpy as np
import pytest

from repro.qnn.circuits import (
    angle_expval_circuit,
    probs_decoder_circuit,
    reuploading_expval_circuit,
)
from repro.quantum import (
    Circuit,
    backward,
    backward_stacked,
    execute,
    execute_stacked,
    naive_backward,
    naive_execute,
    stacked_plan,
)
from repro.quantum.engine import _SDense, _SProductPrep


def _rx_embedding():
    return (
        Circuit(3).angle_embedding(3, rotation="RX")
        .strongly_entangling_layers(2).measure_expval()
    )


def _rz_embedding():
    # RZ on |0> is a phase: the H in front makes it observable.
    circuit = Circuit(3)
    for wire in range(3):
        circuit.h(wire)
    return (
        circuit.angle_embedding(3, rotation="RZ")
        .strongly_entangling_layers(1).measure_probs()
    )


def _fixed_led():
    # H/X/Y/Z lead the runs, parametric members follow (and one lone X).
    circuit = Circuit(4).angle_embedding(3)
    circuit.h(0).rx(0).x(1).rz(1).y(2).z(2).ry(2).x(3)
    return circuit.strongly_entangling_layers(1).measure_expval()


def _cnot_led():
    # Wires 1 and 2 start with a CNOT: they enter the prep as |0>.
    circuit = Circuit(4).cnot(1, 2).ry(0).rx(3)
    circuit.angle_embedding(1)  # RY(x0) on wire 0, after its weight RY
    circuit.ry(1).ry(2)  # after the CNOT: ordinary dense instructions
    return circuit.strongly_entangling_layers(1).measure_expval()


def _weight_only_sel():
    return Circuit(4).strongly_entangling_layers(3).measure_expval()


CIRCUITS = {
    "sq-decoder-8x8x5": lambda: angle_expval_circuit(8, 8, 5),
    "probs-decoder": lambda: probs_decoder_circuit(4, 2),
    "reuploading": lambda: reuploading_expval_circuit(3, 3, 3),
    "rx-embedding": _rx_embedding,
    "rz-embedding": _rz_embedding,
    "fixed-led": _fixed_led,
    "cnot-led": _cnot_led,
    "weight-only-sel": _weight_only_sel,
}


def _draw(circuit, rng, batch=3):
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = (
        rng.uniform(-2.0, 2.0, size=(batch, circuit.n_inputs))
        if circuit.n_inputs else None
    )
    return inputs, weights


@pytest.mark.parametrize("name", sorted(CIRCUITS))
class TestAgainstNaive:
    def test_plan_starts_with_the_prep(self, name):
        plan = stacked_plan(CIRCUITS[name]())
        assert isinstance(plan.instructions[0], _SProductPrep)
        assert not any(
            isinstance(instr, _SProductPrep) for instr in plan.instructions[1:]
        )

    def test_outputs_and_gradients_match_naive(self, name):
        rng = np.random.default_rng(41)
        circuit = CIRCUITS[name]()
        inputs, weights = _draw(circuit, rng)
        out, cache = execute(circuit, inputs, weights)
        ref, ref_cache = naive_execute(circuit, inputs, weights)
        np.testing.assert_allclose(out, ref, atol=1e-12)
        g = rng.normal(size=out.shape)
        gi, gw = backward(cache, g)
        gi_ref, gw_ref = naive_backward(ref_cache, g)
        np.testing.assert_allclose(gw, gw_ref, atol=1e-10)
        if gi_ref is None:
            assert gi is None
        else:
            np.testing.assert_allclose(gi, gi_ref, atol=1e-10)

    def test_complex64_tracks_naive(self, name):
        rng = np.random.default_rng(43)
        circuit = CIRCUITS[name]()
        inputs, weights = _draw(circuit, rng)
        out, cache = execute(circuit, inputs, weights, dtype="float32")
        assert out.dtype == np.float32
        assert cache.final_state.dtype == np.complex64
        ref, ref_cache = naive_execute(circuit, inputs, weights)
        np.testing.assert_allclose(out, ref, atol=1e-5)
        g = rng.normal(size=out.shape)
        gi, gw = backward(cache, g)
        gi_ref, gw_ref = naive_backward(ref_cache, g)
        np.testing.assert_allclose(gw, gw_ref, atol=1e-4)
        if gi_ref is not None:
            np.testing.assert_allclose(gi, gi_ref, atol=1e-4)


@pytest.mark.parametrize(
    "name", sorted(name for name in CIRCUITS if name != "weight-only-sel")
)
def test_input_gradients_match_finite_differences(name):
    rng = np.random.default_rng(42)
    circuit = CIRCUITS[name]()
    inputs, weights = _draw(circuit, rng, batch=2)
    out, cache = execute(circuit, inputs, weights)
    g = rng.normal(size=out.shape)
    gi, __ = backward(cache, g)
    h = 1e-6
    numeric = np.zeros_like(inputs)
    for index in np.ndindex(inputs.shape):
        plus, minus = inputs.copy(), inputs.copy()
        plus[index] += h
        minus[index] -= h
        numeric[index] = (
            np.sum(g * execute(circuit, plus, weights, False)[0])
            - np.sum(g * execute(circuit, minus, weights, False)[0])
        ) / (2 * h)
    np.testing.assert_allclose(gi, numeric, atol=1e-7)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
@pytest.mark.parametrize("dtype", [None, "float32"])
class TestBitwise:
    """Pinned to the NumPy kernels: the threaded backend row-shards a p = 1
    pass and sums per-shard transition matrices, so its weight gradients
    for the later dense blocks match the stacked pass only to rounding."""

    def test_stacked_equals_per_patch_loop(self, name, dtype):
        rng = np.random.default_rng(44)
        circuit = CIRCUITS[name]()
        p, batch = 4, 3
        weights = rng.uniform(-np.pi, np.pi, (p, circuit.n_weights))
        inputs = (
            rng.uniform(-2.0, 2.0, size=(p, batch, circuit.n_inputs))
            if circuit.n_inputs else None
        )
        out, cache = execute_stacked(circuit, inputs, weights, dtype=dtype,
                                     backend="numpy")
        g = rng.normal(size=out.shape)
        gi, gw = backward_stacked(cache, g)
        for k in range(p):
            out_k, cache_k = execute(
                circuit, None if inputs is None else inputs[k], weights[k],
                dtype=dtype, backend="numpy",
            )
            gi_k, gw_k = backward(cache_k, g[k])
            assert np.array_equal(out[k], out_k)
            assert np.array_equal(gw[k], gw_k)
            if gi is not None:
                assert np.array_equal(gi[k], gi_k)

    def test_compiled_equals_stacked_first_patch(self, name, dtype):
        rng = np.random.default_rng(45)
        circuit = CIRCUITS[name]()
        inputs, weights = _draw(circuit, rng)
        stacked_w = np.stack([weights, rng.uniform(-1, 1, weights.shape)])
        stacked_in = (
            None if inputs is None
            else np.stack([inputs, rng.uniform(-1, 1, inputs.shape)])
        )
        out, cache = execute(circuit, inputs, weights, dtype=dtype,
                             backend="numpy")
        out_s, cache_s = execute_stacked(
            circuit, stacked_in, stacked_w, dtype=dtype, backend="numpy"
        )
        assert np.array_equal(out, out_s[0])
        g = rng.normal(size=out.shape)
        gi, gw = backward(cache, g)
        gi_s, gw_s = backward_stacked(
            cache_s, np.stack([g, rng.normal(size=g.shape)])
        )
        assert np.array_equal(gw, gw_s[0])
        if gi is not None:
            assert np.array_equal(gi, gi_s[0])


class TestSQDecoderTripwire:
    """The paper's SQ decoder patch binds nothing per row but its prep."""

    def test_prep_holds_every_input_and_no_dense_block_is_per_row(self):
        circuit = angle_expval_circuit(8, 8, 5)
        plan = stacked_plan(circuit)
        prep = plan.instructions[0]
        assert isinstance(prep, _SProductPrep)
        # Every wire's leading run is RY(x_w) followed by its first Rot.
        for wire, run in enumerate(prep.runs):
            assert [op.name for op in run] == ["RY", "RZ", "RY", "RZ"]
            assert run[0].source == ("input", wire)
        rng = np.random.default_rng(46)
        p, batch = 4, 5
        inputs = rng.uniform(-2, 2, (p * batch, circuit.n_inputs))
        weights = rng.uniform(-np.pi, np.pi, (p, circuit.n_weights))
        bound = plan.bind(inputs, weights, p, batch, with_grads=True)
        for instr, data in zip(plan.instructions, bound):
            if isinstance(instr, _SDense):
                matrix, __, per_patch = data
                assert per_patch
                assert matrix.shape == (p, instr.d, instr.d)
        vecs, __ = bound[0]
        assert all(vec.shape == (p * batch, 2) for vec in vecs)
