"""Statistical tests of the Gilbert and Bernoulli loss processes."""

import numpy as np
import pytest

from repro.lossmodel import (
    STREAMING_CHUNK,
    STREAMING_PROBE_THRESHOLD,
    BernoulliProcess,
    GilbertProcess,
)
from tests.oracles import gilbert_states_reference


class TestGilbert:
    def test_stationary_loss_rate_matches_target(self):
        process = GilbertProcess()
        rates = np.array([0.01, 0.05, 0.1, 0.2, 0.5])
        states = process.sample_states(rates, 20_000, seed=0)
        empirical = states.mean(axis=1)
        assert np.allclose(empirical, rates, atol=0.02)

    def test_transition_formula(self):
        process = GilbertProcess(stay_bad=0.35)
        # pi_bad = g2b / (g2b + 0.65) must equal the target rate.
        rates = np.array([0.01, 0.1, 0.3])
        g2b = process.good_to_bad(rates)
        stationary = g2b / (g2b + (1 - 0.35))
        assert np.allclose(stationary, rates)

    def test_burstiness_exceeds_bernoulli(self):
        """Gilbert snapshot loss fractions must vary more than Bernoulli's."""
        rate = np.full(200, 0.1)
        probes = 500
        g = GilbertProcess().sample_states(rate, probes, seed=1).mean(axis=1)
        b = BernoulliProcess().sample_states(rate, probes, seed=1).mean(axis=1)
        assert g.var() > 1.3 * b.var()

    def test_mean_burst_length(self):
        process = GilbertProcess(stay_bad=0.35)
        assert process.burst_length_mean() == pytest.approx(1 / 0.65)
        states = process.sample_states(np.array([0.2]), 200_000, seed=2)[0]
        # Measure empirical mean run length of bad states.
        runs = []
        count = 0
        for s in states:
            if s:
                count += 1
            elif count:
                runs.append(count)
                count = 0
        assert np.mean(runs) == pytest.approx(1 / 0.65, rel=0.1)

    def test_zero_rate_never_drops(self):
        states = GilbertProcess().sample_states(np.array([0.0]), 1000, seed=3)
        assert not states.any()

    def test_extreme_rate_capped(self):
        states = GilbertProcess().sample_states(np.array([1.0]), 1000, seed=4)
        assert states.mean() > 0.95

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            GilbertProcess(stay_bad=1.0)
        with pytest.raises(ValueError):
            GilbertProcess().sample_states(np.array([0.5]), 0)
        with pytest.raises(ValueError):
            GilbertProcess().sample_states(np.array([1.5]), 10)

    def test_seeded_reproducibility(self):
        p = GilbertProcess()
        a = p.sample_states(np.array([0.1, 0.2]), 100, seed=42)
        b = p.sample_states(np.array([0.1, 0.2]), 100, seed=42)
        assert np.array_equal(a, b)


class TestBernoulli:
    def test_loss_rate_matches(self):
        rates = np.array([0.05, 0.2])
        states = BernoulliProcess().sample_states(rates, 50_000, seed=0)
        assert np.allclose(states.mean(axis=1), rates, atol=0.01)

    def test_fraction_shortcut_matches_distribution(self):
        rates = np.full(2000, 0.1)
        fractions = BernoulliProcess().sample_loss_fractions(rates, 400, seed=1)
        assert fractions.mean() == pytest.approx(0.1, abs=0.005)
        # Binomial variance p(1-p)/n.
        assert fractions.var() == pytest.approx(0.1 * 0.9 / 400, rel=0.2)

    def test_no_memory(self):
        """Consecutive Bernoulli states are uncorrelated (lag-1 autocorr ~0)."""
        states = BernoulliProcess().sample_states(
            np.array([0.3]), 100_000, seed=2
        )[0].astype(float)
        lag1 = np.corrcoef(states[:-1], states[1:])[0, 1]
        assert abs(lag1) < 0.02

    def test_gilbert_has_memory(self):
        """Lag-1 autocorrelation ~= stay_bad - g2b (0.071 at rate 0.3)."""
        states = GilbertProcess().sample_states(
            np.array([0.3]), 200_000, seed=2
        )[0].astype(float)
        lag1 = np.corrcoef(states[:-1], states[1:])[0, 1]
        expected = 0.35 - 0.65 * 0.3 / 0.7
        assert lag1 == pytest.approx(expected, abs=0.02)


class TestStreamingFractions:
    """The chunked fraction path above STREAMING_PROBE_THRESHOLD."""

    RATES = np.array([0.0, 0.02, 0.1, 0.4])

    def test_gilbert_chunks_are_bit_identical_to_states(self):
        process = GilbertProcess()
        probes = 5000
        full = process.sample_states(self.RATES, probes, seed=7)
        for chunk_size in (512, 1000, probes):
            blocks = list(
                process.iter_state_chunks(
                    self.RATES, probes, seed=7, chunk_size=chunk_size
                )
            )
            assert sum(b.shape[1] for b in blocks) == probes
            assert np.array_equal(np.concatenate(blocks, axis=1), full)

    def test_streamed_fractions_equal_materialised_means(self):
        probes = STREAMING_PROBE_THRESHOLD + 3 * STREAMING_CHUNK + 17
        process = GilbertProcess()
        fractions = process.sample_loss_fractions(self.RATES, probes, seed=5)
        states = process.sample_states(self.RATES, probes, seed=5)
        assert np.array_equal(fractions, states.mean(axis=1))

    def test_below_threshold_materialises(self):
        """At or below the threshold the old exact path is untouched."""
        process = GilbertProcess()
        fractions = process.sample_loss_fractions(
            self.RATES, STREAMING_PROBE_THRESHOLD, seed=3
        )
        states = process.sample_states(
            self.RATES, STREAMING_PROBE_THRESHOLD, seed=3
        )
        assert np.array_equal(fractions, states.mean(axis=1))

    def test_default_iterator_is_one_block(self):
        """The base-class fallback yields the whole realisation at once."""

        class OneShot(BernoulliProcess):
            pass

        # BernoulliProcess overrides sample_loss_fractions with the
        # binomial shortcut; the inherited chunk iterator must still be
        # the single-block default.
        blocks = list(
            OneShot().iter_state_chunks(self.RATES, 6000, seed=1)
        )
        assert len(blocks) == 1 and blocks[0].shape == (4, 6000)


class TestGilbertOracle:
    """The run-frontier realisation against the seed per-slot loop.

    The golden corpus only sees a few seeds' downstream statistics, so a
    defect confined to a few slots can pass it; these compare every
    state bit.
    """

    @staticmethod
    def rates(stay_bad):
        ceiling = 1.0 / (2.0 - stay_bad)
        rng = np.random.default_rng(11)
        return np.concatenate(
            [
                [0.0, 1.0, stay_bad, ceiling, 0.002],
                rng.uniform(0.0, 0.002, 12),  # LLRD1 good
                rng.uniform(0.05, 0.2, 6),  # LLRD1 congested
                rng.uniform(0.002, 1.0, 8),  # LLRD2 congested
                rng.uniform(ceiling, 1.0, 4),  # above the ceiling
            ]
        )

    @pytest.mark.parametrize("stay_bad", [0.0, 0.35, 0.9])
    @pytest.mark.parametrize("num_probes", [1, 300])
    @pytest.mark.parametrize("chunk_size", [1, 7, 512, None])
    def test_bit_identical_to_seed_loop(self, stay_bad, num_probes, chunk_size):
        process = GilbertProcess(stay_bad)
        rates = self.rates(stay_bad)
        chunk_size = chunk_size or num_probes
        g2b, stay = process.effective_parameters(rates)
        expected = gilbert_states_reference(
            rates, num_probes, np.random.default_rng(5), g2b, stay, chunk_size
        )
        blocks = list(
            process.iter_state_chunks(rates, num_probes, seed=5, chunk_size=chunk_size)
        )
        assert len(blocks) == len(expected)
        for got, want in zip(blocks, expected):
            assert got.dtype == bool and np.array_equal(got, want)
        full = process.sample_states(rates, num_probes, seed=5)
        assert np.array_equal(full, np.concatenate(expected, axis=1))

    def test_random_rate_vectors(self):
        rng = np.random.default_rng(2024)
        for trial in range(60):
            process = GilbertProcess(float(rng.choice([0.0, 0.35, 0.9])))
            rates = rng.uniform(0.0, 1.0, int(rng.integers(1, 40)))
            rates[rng.random(rates.size) < 0.5] *= 0.01
            num_probes = int(rng.integers(1, 200))
            g2b, stay = process.effective_parameters(rates)
            (expected,) = gilbert_states_reference(
                rates, num_probes, np.random.default_rng(trial), g2b, stay,
                num_probes,
            )
            got = process.sample_states(rates, num_probes, seed=trial)
            assert np.array_equal(got, expected)
