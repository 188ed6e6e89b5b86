"""Tests for finite-shot sampling, noise trajectories, and the drawer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    Circuit,
    NoiseModel,
    apply_gate,
    draw,
    estimate_expval_z,
    estimate_probabilities,
    execute,
    expval_z,
    gates,
    noisy_execute,
    sample_basis_states,
    shot_noise_std,
    zero_state,
)


def plus_state(batch=1):
    return apply_gate(zero_state(1, batch), gates.HADAMARD, (0,))


class TestShotSampling:
    def test_sample_shapes(self):
        samples = sample_basis_states(plus_state(3), 100, np.random.default_rng(0))
        assert samples.shape == (3, 100)
        assert set(np.unique(samples)) <= {0, 1}

    def test_sample_deterministic_state(self):
        samples = sample_basis_states(zero_state(2), 50, np.random.default_rng(1))
        assert (samples == 0).all()

    def test_shots_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_basis_states(zero_state(1), 0, np.random.default_rng(0))

    def test_expval_estimate_converges(self):
        theta = 0.8
        state = apply_gate(zero_state(1), gates.ry(theta), (0,))
        estimate = estimate_expval_z(state, (0,), 40_000, np.random.default_rng(2))
        np.testing.assert_allclose(estimate, [[np.cos(theta)]], atol=0.02)

    def test_probability_estimate_converges(self):
        state = plus_state()
        estimate = estimate_probabilities(state, 40_000, np.random.default_rng(3))
        np.testing.assert_allclose(estimate, [[0.5, 0.5]], atol=0.02)

    def test_probability_estimate_normalized(self):
        state = plus_state(2)
        estimate = estimate_probabilities(state, 128, np.random.default_rng(4))
        np.testing.assert_allclose(estimate.sum(axis=1), [1.0, 1.0])

    def test_shot_noise_std_formula(self):
        np.testing.assert_allclose(shot_noise_std(0.0, 100), 0.1)
        np.testing.assert_allclose(shot_noise_std(1.0, 100), 0.0)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1000), shots=st.sampled_from([64, 256]))
    def test_estimates_within_statistical_error(self, seed, shots):
        rng = np.random.default_rng(seed)
        circuit = Circuit(3).strongly_entangling_layers(2).measure_expval()
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        outputs, cache = execute(circuit, None, weights)
        estimate = estimate_expval_z(
            cache.final_state, (0, 1, 2), shots, np.random.default_rng(seed + 1)
        )
        sigma = shot_noise_std(outputs, shots)
        # 6-sigma bound: overwhelmingly unlikely to fail for a correct
        # estimator, fails fast for a biased one.
        assert np.all(np.abs(estimate - outputs) <= 6 * sigma + 1e-12)


class TestNoise:
    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(depolarizing=1.5)
        with pytest.raises(ValueError):
            NoiseModel(amplitude_damping=-0.1)

    def test_noiseless_matches_exact(self):
        circuit = Circuit(2).strongly_entangling_layers(1).measure_expval()
        rng = np.random.default_rng(0)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        exact, __ = execute(circuit, None, weights, want_cache=False)
        noisy = noisy_execute(circuit, None, weights, NoiseModel(), 1, rng)
        np.testing.assert_allclose(noisy, exact, atol=1e-12)

    def test_trajectories_must_be_positive(self):
        circuit = Circuit(1).ry(0).measure_expval()
        with pytest.raises(ValueError):
            noisy_execute(circuit, None, np.zeros(1), NoiseModel(0.1), 0,
                          np.random.default_rng(0))

    def test_depolarizing_shrinks_expectation(self):
        # Single RY(0) gate on |0>: ideal <Z> = 1.  One depolarizing step at
        # rate p gives <Z> = 1 - 4p/3 (X/Y flip the sign, Z keeps it).
        circuit = Circuit(1).ry(0).measure_expval()
        weights = np.zeros(1)
        p = 0.3
        rng = np.random.default_rng(5)
        outputs = noisy_execute(circuit, None, weights, NoiseModel(depolarizing=p),
                                4000, rng)
        np.testing.assert_allclose(outputs, [[1 - 4 * p / 3]], atol=0.05)

    def test_strong_depolarizing_destroys_signal(self):
        circuit = Circuit(2).strongly_entangling_layers(3).measure_expval()
        rng = np.random.default_rng(6)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        exact, __ = execute(circuit, None, weights, want_cache=False)
        noisy = noisy_execute(circuit, None, weights,
                              NoiseModel(depolarizing=0.75), 800, rng)
        assert np.abs(noisy).max() < np.abs(exact).max() + 0.1
        assert np.abs(noisy).mean() < 0.2

    def test_amplitude_damping_biases_toward_zero_state(self):
        # X|0> = |1>, then full-rate damping: <Z> should rise toward +1.
        circuit = Circuit(1).rx(0).measure_expval()
        weights = np.array([np.pi])  # RX(pi)|0> ~ |1>
        rng = np.random.default_rng(7)
        outputs = noisy_execute(circuit, None, weights,
                                NoiseModel(amplitude_damping=1.0), 200, rng)
        assert outputs[0, 0] > 0.9

    def test_noise_preserves_probability_normalization(self):
        circuit = Circuit(3).strongly_entangling_layers(2).measure_probs()
        rng = np.random.default_rng(8)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        outputs = noisy_execute(circuit, None, weights,
                                NoiseModel(depolarizing=0.2,
                                           amplitude_damping=0.1),
                                50, rng)
        np.testing.assert_allclose(outputs.sum(axis=1), [1.0], atol=1e-9)

    def test_noise_with_amplitude_embedding(self):
        circuit = (
            Circuit(2)
            .amplitude_embedding(4)
            .strongly_entangling_layers(1)
            .measure_expval()
        )
        rng = np.random.default_rng(9)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        x = np.abs(rng.normal(size=(3, 4))) + 0.1
        outputs = noisy_execute(circuit, x, weights, NoiseModel(0.05), 20, rng)
        assert outputs.shape == (3, 2)
        assert np.all(np.abs(outputs) <= 1 + 1e-9)


class TestDrawer:
    def test_draws_all_wires(self):
        circuit = Circuit(3).strongly_entangling_layers(1).measure_expval()
        art = draw(circuit)
        lines = art.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("0:")

    def test_gate_labels_present(self):
        circuit = Circuit(2).ry(0).cnot(0, 1).measure_expval()
        art = draw(circuit)
        assert "RY(w0)" in art
        assert "o" in art and "x" in art
        assert art.count("[Z]") == 2

    def test_probs_measurement_marker(self):
        art = draw(Circuit(1).rx(0).measure_probs())
        assert "[P]" in art

    def test_input_slots_labeled(self):
        circuit = Circuit(2).angle_embedding(2).measure_expval()
        art = draw(circuit)
        assert "RY(x0)" in art and "RY(x1)" in art

    def test_amplitude_header(self):
        circuit = Circuit(2).amplitude_embedding(4).measure_probs()
        assert "amplitude embedding of 4 features" in draw(circuit)

    def test_truncation(self):
        circuit = Circuit(1)
        for _ in range(10):
            circuit.rx(0)
        art = draw(circuit, max_columns=3)
        assert "..." in art
        assert "w9" not in art

    def test_crz_label(self):
        art = draw(Circuit(2).crz(0, 1).measure_expval())
        assert "RZ(w0)" in art

    def test_vertical_connector(self):
        # CNOT between wires 0 and 2 must draw a connector through wire 1.
        circuit = Circuit(3).cnot(0, 2).measure_expval()
        art = draw(circuit)
        middle = art.splitlines()[1]
        assert "|" in middle


class TestNoiseEdgeCases:
    """Zero-probability channels and boundary rates (satellite coverage)."""

    def _circuit(self):
        return Circuit(2).strongly_entangling_layers(1).measure_expval()

    def test_zero_probability_model_is_noiseless(self):
        assert NoiseModel().is_noiseless
        assert NoiseModel(depolarizing=0.0, amplitude_damping=0.0).is_noiseless
        assert not NoiseModel(depolarizing=1e-6).is_noiseless
        assert not NoiseModel(amplitude_damping=1e-6).is_noiseless

    def test_zero_probability_channels_bypass_trajectories(self):
        # A noiseless model must delegate to the exact simulator: many
        # trajectories give *identical* (not just statistically close)
        # output, and the rng is never consumed.
        circuit = self._circuit()
        rng = np.random.default_rng(20)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        exact, __ = execute(circuit, None, weights, want_cache=False)
        rng_state_before = np.random.default_rng(21)
        out = noisy_execute(
            circuit, None, weights, NoiseModel(0.0, 0.0), 50, rng_state_before
        )
        np.testing.assert_array_equal(out, exact)
        # The generator was untouched: it still produces the same stream as
        # a fresh generator with the same seed.
        np.testing.assert_array_equal(
            rng_state_before.random(4), np.random.default_rng(21).random(4)
        )

    def test_one_zero_channel_skips_only_that_channel(self):
        # depolarizing=0 with full-rate damping on |1>: the depolarizing
        # branch must never fire, and damping drives <Z> back to +1.
        circuit = Circuit(1).rx(0).measure_expval()
        outputs = noisy_execute(
            circuit, None, np.array([np.pi]),
            NoiseModel(depolarizing=0.0, amplitude_damping=1.0),
            100, np.random.default_rng(22),
        )
        assert outputs[0, 0] > 0.9

    def test_boundary_probability_one_is_valid_and_normalized(self):
        circuit = Circuit(2).strongly_entangling_layers(1).measure_probs()
        rng = np.random.default_rng(23)
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        outputs = noisy_execute(
            circuit, None, weights,
            NoiseModel(depolarizing=1.0, amplitude_damping=1.0), 20, rng,
        )
        np.testing.assert_allclose(outputs.sum(axis=1), [1.0], atol=1e-9)


class TestSamplingEdgeCases:
    """Single-shot determinism and degenerate shot counts."""

    def test_single_shot_deterministic_under_fixed_rng(self):
        state = plus_state(4)
        first = sample_basis_states(state, 1, np.random.default_rng(30))
        second = sample_basis_states(state, 1, np.random.default_rng(30))
        assert first.shape == (4, 1)
        np.testing.assert_array_equal(first, second)

    def test_single_shot_expval_is_an_eigenvalue(self):
        # One shot of a Z measurement can only ever produce +1 or -1.
        estimate = estimate_expval_z(
            plus_state(8), (0,), 1, np.random.default_rng(31)
        )
        assert set(np.unique(estimate)) <= {-1.0, 1.0}

    def test_single_shot_probability_estimate_is_one_hot(self):
        estimate = estimate_probabilities(
            plus_state(5), 1, np.random.default_rng(32)
        )
        np.testing.assert_array_equal(np.sort(estimate, axis=1)[:, :-1], 0.0)
        np.testing.assert_allclose(estimate.sum(axis=1), 1.0)

    def test_single_shot_on_deterministic_state_is_exact(self):
        samples = sample_basis_states(zero_state(3), 1, np.random.default_rng(33))
        np.testing.assert_array_equal(samples, 0)


class TestDrawerOnFusedPlans:
    """The drawer renders the *circuit*, one column per op — fusion in the
    lowered plan must never change or truncate what is drawn."""

    def test_fused_plan_circuit_draws_every_op(self):
        from repro.quantum import compiled_plan

        circuit = Circuit(3).strongly_entangling_layers(2).measure_expval()
        plan = compiled_plan(circuit)
        # The plan fuses aggressively (Rot triples -> pair blocks, rings ->
        # one gather) ...
        assert plan.n_instructions < len(circuit.ops)
        # ... while the drawing still shows every weight slot and one "o"
        # control per CNOT of both rings.
        art = draw(circuit)
        for w in range(circuit.n_weights):
            assert f"(w{w})" in art
        assert art.count("o") == 6

    def test_adjacent_wire_merged_runs_keep_their_columns(self):
        from repro.quantum import compiled_plan
        from repro.quantum.engine import _SDense

        # Amplitude prep keeps the Rot runs out of the product-state prep.
        circuit = (
            Circuit(2).amplitude_embedding(4).rot(0).rot(1).measure_expval()
        )
        plan = compiled_plan(circuit)
        pairs = [
            i for i in plan.instructions
            if isinstance(i, _SDense) and i.d == 4
        ]
        assert len(pairs) == 1  # the two Rot runs merged into one 4x4 block
        art = draw(circuit)
        lines = art.splitlines()  # line 0 names the amplitude prep
        assert "RZ(w0)" in lines[1] and "RZ(w3)" in lines[2]


class TestSamplingValidationAndVectorizedDraw:
    """The inverse-CDF rewrite of sample_basis_states: clear zero-mass
    errors, exactness on degenerate states, and statistical agreement."""

    def test_zero_probability_state_raises_clear_error(self):
        # An all-zero row used to divide to NaN and crash deep inside
        # rng.choice ("probabilities contain NaN").
        state = np.zeros((2, 4), dtype=np.complex128)
        state[0, 1] = 1.0  # row 0 fine; row 1 has no amplitude mass
        with pytest.raises(ValueError, match=r"\[1\].*zero or non-finite"):
            sample_basis_states(state, 10, np.random.default_rng(0))

    def test_all_rows_zero_names_every_row(self):
        state = np.zeros((3, 4), dtype=np.complex128)
        with pytest.raises(ValueError, match=r"\[0, 1, 2\]"):
            sample_basis_states(state, 1, np.random.default_rng(0))

    def test_deterministic_state_always_hits_its_basis_index(self):
        state = np.zeros((2, 8), dtype=np.complex128)
        state[0, 3] = 1.0
        state[1, 5] = 1.0
        samples = sample_basis_states(state, 64, np.random.default_rng(1))
        assert (samples[0] == 3).all()
        assert (samples[1] == 5).all()

    def test_zero_probability_outcomes_never_drawn(self):
        # Half the basis states have exactly zero probability; the
        # searchsorted draw must never land on them (side='right' skips
        # flat CDF segments).
        state = np.zeros((1, 8), dtype=np.complex128)
        state[0, [0, 2, 4, 6]] = 0.5
        samples = sample_basis_states(state, 4000, np.random.default_rng(2))
        assert set(np.unique(samples)) <= {0, 2, 4, 6}

    def test_empirical_distribution_matches_probabilities(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(1, 16)) + 1j * rng.normal(size=(1, 16))
        state = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        shots = 200_000
        samples = sample_basis_states(state, shots, np.random.default_rng(4))
        counts = np.bincount(samples[0], minlength=16) / shots
        probs = np.abs(state[0]) ** 2
        np.testing.assert_allclose(counts, probs, atol=5e-3)

    def test_batch_rows_sample_independently(self):
        # Rows with disjoint supports must never leak into each other
        # through the shared offset-CDF searchsorted.
        state = np.zeros((2, 4), dtype=np.complex128)
        state[0, [0, 1]] = np.sqrt(0.5)
        state[1, [2, 3]] = np.sqrt(0.5)
        samples = sample_basis_states(state, 500, np.random.default_rng(5))
        assert set(np.unique(samples[0])) <= {0, 1}
        assert set(np.unique(samples[1])) <= {2, 3}

    def test_draw_at_float_boundary_stays_in_range(self):
        # A uniform draw within half an ulp of 1.0 rounds up to exactly
        # the next row's offset boundary (u + b == b + 1) in the flat CDF;
        # unclamped, searchsorted then returned an out-of-range index
        # (== dim) for every row past the first.  The clamp must resolve
        # it to the row's last nonzero-probability state.
        class BoundaryRng:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        state = np.full((3, 4), 0.5, dtype=np.complex128)  # uniform probs
        samples = sample_basis_states(state, 8, BoundaryRng())
        assert samples.shape == (3, 8)
        assert (samples == 3).all()  # last basis state, never dim

    def test_draw_at_float_boundary_skips_zero_prob_tail(self):
        class BoundaryRng:
            def random(self, shape):
                return np.full(shape, np.nextafter(1.0, 0.0))

        state = np.zeros((2, 4), dtype=np.complex128)
        state[:, [0, 1]] = np.sqrt(0.5)  # support only on indices 0-1
        samples = sample_basis_states(state, 8, BoundaryRng())
        assert (samples == 1).all()  # last *nonzero*-probability state

    def test_nonfinite_probability_rows_rejected(self):
        # A diverged (NaN-amplitude) state must fail loudly, not feed
        # searchsorted an unsorted CDF and return garbage indices.
        state = np.full((2, 4), np.nan + 0j)
        state[0] = 0.5  # row 0 fine; row 1 NaN
        with pytest.raises(ValueError, match=r"non-finite.*\[1\]|\[1\].*non-finite"):
            sample_basis_states(state, 4, np.random.default_rng(0))

    def test_infinite_probability_rows_rejected(self):
        state = np.zeros((1, 4), dtype=np.complex128)
        state[0, 0] = np.inf
        with pytest.raises(ValueError, match="zero or non-finite"):
            sample_basis_states(state, 4, np.random.default_rng(0))
