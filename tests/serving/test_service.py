"""Tests for the generation service, including the equivalence contract:

micro-batched execution must return results identical — plain ``==``,
not allclose — to sequential per-request execution.  This holds because
(a) each sample request's latents come from its own seeded stream exactly
as ``model.sample`` draws them, (b) stacked passes are row-independent
(``Tensor.transpose`` materializes contiguously so the GEMM kernel choice
cannot vary with row count, and the quantum measurement contracts
probabilities with Pauli-Z signs in a row-invariant einsum instead of a
GEMM whose kernel changes with row count), and (c) scoring is per-row math
under the padding-exactness contract of :mod:`repro.chem.batch`.
"""

import threading

import numpy as np
import pytest

from repro.evaluation.sampling import decode_latents, matrix_size, prior_latents
from repro.models import ClassicalAE, ClassicalVAE, ScalableQuantumVAE
from repro.nn import save_module
from repro.serving import (
    Client,
    GenerationService,
    ModelRegistry,
    ServingError,
    per_molecule_scores,
)


@pytest.fixture(scope="module")
def vae_checkpoint(tmp_path_factory):
    model = ClassicalVAE(input_dim=64, latent_dim=6,
                         rng=np.random.default_rng(0))
    return save_module(
        model, tmp_path_factory.mktemp("ckpt") / "vae",
        metadata={"model": "vae", "input_dim": 64, "n_patches": 4,
                  "n_layers": 3, "latent_dim": 6, "seed": 0},
    )


@pytest.fixture(scope="module")
def sq_vae_checkpoint(tmp_path_factory):
    model = ScalableQuantumVAE(input_dim=64, n_patches=4, n_layers=1,
                               rng=np.random.default_rng(7))
    return save_module(
        model, tmp_path_factory.mktemp("ckpt") / "sq",
        metadata={"model": "sq-vae", "input_dim": 64, "n_patches": 4,
                  "n_layers": 1, "latent_dim": None, "seed": 7},
    )


def run_concurrently(jobs):
    """Run one callable per thread; return results in job order."""
    results = [None] * len(jobs)
    errors = []

    def runner(index, job):
        try:
            results[index] = job()
        except Exception as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(i, job))
               for i, job in enumerate(jobs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return results


def sequential_sample(model, count, seed):
    """Per-request execution: exactly what one lone request computes."""
    latents = prior_latents(model, count, np.random.default_rng(seed))
    size = matrix_size(model)
    return decode_latents(model, latents).reshape(count, size, size)


class TestBatchedEqualsSequential:
    """The acceptance contract: plain ``==``, no tolerance."""

    # A long flush window forces every concurrent request into ONE batch,
    # making this the strongest version of the claim.
    FLUSH = 0.25

    def test_sample_classical(self, vae_checkpoint):
        counts = [3, 8, 5, 7, 4, 6]
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=self.FLUSH) as service:
            model = service.registry.load(vae_checkpoint).model
            batched = run_concurrently([
                lambda c=c, s=100 + i: service.sample(c, seed=s)
                for i, c in enumerate(counts)
            ])
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1  # genuinely micro-batched
        for i, c in enumerate(counts):
            expected = sequential_sample(model, c, 100 + i)
            assert batched[i].shape == (c, 8, 8)
            assert (batched[i] == expected).all()

    def test_sample_quantum(self, sq_vae_checkpoint):
        counts = [3, 5, 2, 6]
        with GenerationService(default_checkpoint=sq_vae_checkpoint,
                               flush_window=self.FLUSH) as service:
            model = service.registry.load(sq_vae_checkpoint).model
            batched = run_concurrently([
                lambda c=c, s=40 + i: service.sample(c, seed=s)
                for i, c in enumerate(counts)
            ])
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1
        for i, c in enumerate(counts):
            assert (batched[i] == sequential_sample(model, c, 40 + i)).all()

    def test_sample_matches_model_sample_api(self, vae_checkpoint):
        # The service's per-request semantics ARE model.sample's.
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=0.0) as service:
            model = service.registry.load(vae_checkpoint).model
            served = service.sample(5, seed=9)
        direct = model.sample(5, np.random.default_rng(9))
        assert (served == np.asarray(direct).reshape(5, 8, 8)).all()

    def test_encode(self, vae_checkpoint):
        rng = np.random.default_rng(1)
        chunks = [rng.normal(size=(n, 64)) for n in (2, 5, 3, 4)]
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=self.FLUSH) as service:
            batched = run_concurrently([
                lambda x=x: service.encode(x) for x in chunks
            ])
            sequential = [service.encode(x) for x in chunks]
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1
        for got, expected in zip(batched, sequential):
            assert got.shape == expected.shape
            assert (got == expected).all()

    def test_score(self, vae_checkpoint):
        rng = np.random.default_rng(2)
        chunks = [rng.uniform(size=(n, 8, 8)) for n in (3, 6, 2)]
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=self.FLUSH) as service:
            batched = run_concurrently([
                lambda m=m: service.score(m) for m in chunks
            ])
            stats = service.stats()["batcher"]
        assert stats["batch_size_max"] > 1
        for got, matrices in zip(batched, chunks):
            expected = per_molecule_scores(matrices)
            for name in ("usable", "qed", "logp", "sa"):
                assert (got[name] == expected[name]).all()

    def test_mixed_kinds_in_one_window_stay_separated(self, vae_checkpoint):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(4, 64))
        matrices = rng.uniform(size=(3, 8, 8))
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=self.FLUSH) as service:
            model = service.registry.load(vae_checkpoint).model
            sample, latents, scores = run_concurrently([
                lambda: service.sample(4, seed=11),
                lambda: service.encode(features),
                lambda: service.score(matrices),
            ])
            stats = service.stats()["batcher"]
        assert stats["groups"] >= 3  # kinds never share an executor call
        assert (sample == sequential_sample(model, 4, 11)).all()
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=0.0) as solo:
            assert (latents == solo.encode(features)).all()
        expected = per_molecule_scores(matrices)
        for name in expected:
            assert (scores[name] == expected[name]).all()


class TestPaperScaleFusedDecode:
    """The paper SQ-VAE (1024-d, 4 patches, 5 layers): a fused decode of
    many requests' latents equals the concatenated 4-row decodes, ``==``.

    At 40 rows and up this used to differ in every row by up to ~7e-16,
    because the expectation contraction ran as a GEMM whose kernel changed
    with the row count.  (A single-row decode still differs: GEMV vs GEMM
    in the classical maps; the serving contract fuses whole requests.)
    """

    @pytest.fixture(scope="class")
    def decoded(self):
        model = ScalableQuantumVAE(input_dim=1024, n_patches=4, n_layers=5,
                                   rng=np.random.default_rng(7))
        latents = np.random.default_rng(3).normal(size=(256, model.latent_dim))
        sequential = np.concatenate([
            decode_latents(model, latents[i:i + 4])
            for i in range(0, len(latents), 4)
        ])
        return model, latents, sequential

    @pytest.mark.parametrize("rows", [40, 64, 256])
    def test_fused_equals_four_row_sequential(self, decoded, rows):
        model, latents, sequential = decoded
        fused = decode_latents(model, latents[:rows])
        assert (fused == sequential[:rows]).all()


class TestValidation:
    def test_sample_rejects_plain_autoencoder(self, tmp_path):
        path = save_module(
            ClassicalAE(input_dim=64, latent_dim=6,
                        rng=np.random.default_rng(0)),
            tmp_path / "ae",
            metadata={"model": "ae", "input_dim": 64, "n_patches": 4,
                      "n_layers": 3, "latent_dim": 6, "seed": 0},
        )
        with GenerationService(default_checkpoint=path) as service:
            with pytest.raises(TypeError, match="vanilla autoencoder"):
                service.sample(3)

    def test_sample_rejects_nonpositive_count(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with pytest.raises(ValueError, match="count must be a positive"):
                service.sample(0)

    def test_encode_rejects_wrong_width(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with pytest.raises(ValueError, match=r"expected \(n, 64\)"):
                service.encode(np.zeros((2, 10)))

    def test_score_rejects_non_square(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            with pytest.raises(ValueError, match="matrix stack"):
                service.score(np.zeros((2, 8, 9)))

    def test_no_default_and_no_checkpoint_is_an_error(self):
        with GenerationService() as service:
            with pytest.raises(ServingError, match="no checkpoint named"):
                service.sample(1)

    def test_per_call_checkpoint_overrides_default(self, vae_checkpoint,
                                                   sq_vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=0.0) as service:
            out = service.sample(2, seed=1, checkpoint=sq_vae_checkpoint)
            model = service.registry.load(sq_vae_checkpoint).model
            assert (out == sequential_sample(model, 2, 1)).all()
            assert len(service.registry) == 2


class TestServiceLifecycle:
    def test_stats_shape(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint) as service:
            service.sample(2, seed=0)
            stats = service.stats()
        assert set(stats) == {"batcher", "registry", "models"}
        assert stats["models"] == 1
        assert stats["batcher"]["requests"] == 1
        assert stats["registry"]["misses"] == 1

    def test_async_variants_return_futures(self, vae_checkpoint):
        rng = np.random.default_rng(4)
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=0.05) as service:
            sample = service.sample_async(2, seed=5)
            encode = service.encode_async(rng.normal(size=(2, 64)))
            score = service.score_async(rng.uniform(size=(2, 8, 8)))
            assert sample.result(10.0).shape == (2, 8, 8)
            assert encode.result(10.0).shape == (2, 6)
            assert score.result(10.0)["qed"].shape == (2,)

    def test_shared_registry_across_services(self, vae_checkpoint):
        registry = ModelRegistry()
        with GenerationService(registry,
                               default_checkpoint=vae_checkpoint):
            pass
        with GenerationService(registry,
                               default_checkpoint=vae_checkpoint):
            pass
        assert registry.stats.misses == 1
        assert registry.stats.hits == 1


class TestClient:
    def test_in_process_client_round_trip(self, vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=0.0) as service:
            client = Client(service)
            model = service.registry.load(vae_checkpoint).model
            assert (client.sample(3, seed=2)
                    == sequential_sample(model, 3, 2)).all()
            assert client.encode(np.ones((2, 64))).shape == (2, 6)
            scores = client.score(np.zeros((2, 8, 8)))
            assert scores["usable"].dtype == bool
            assert client.stats()["models"] == 1

    def test_client_pins_a_checkpoint(self, vae_checkpoint,
                                      sq_vae_checkpoint):
        with GenerationService(default_checkpoint=vae_checkpoint,
                               flush_window=0.0) as service:
            client = Client(service, checkpoint=sq_vae_checkpoint)
            model = service.registry.load(sq_vae_checkpoint).model
            assert (client.sample(2, seed=3)
                    == sequential_sample(model, 2, 3)).all()
