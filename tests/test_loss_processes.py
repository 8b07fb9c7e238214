"""Statistical tests of the Gilbert and Bernoulli loss processes."""

import tracemalloc

import numpy as np
import pytest
from scipy import stats

from repro.lossmodel import BernoulliProcess, GilbertProcess, gilbert
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


class TestFlowFractions:
    """``sample_loss_fractions`` sums the bad runs without the state matrix."""

    RATES = np.array([0.0, 0.02, 0.1, 0.4, 1.0])

    @pytest.mark.parametrize("num_probes", [1, 1000, 5000])
    def test_gilbert_fractions_equal_state_means(self, num_probes):
        process = GilbertProcess()
        fractions = process.sample_loss_fractions(self.RATES, num_probes, seed=5)
        states = process.sample_states(self.RATES, num_probes, seed=5)
        assert np.array_equal(fractions, states.mean(axis=1))

    def test_output_does_not_depend_on_the_slab_size(self, monkeypatch):
        process = GilbertProcess()
        rates = np.random.default_rng(3).uniform(0.0, 0.3, 20)
        states = process.sample_states(rates, 600, seed=8)
        fractions = process.sample_loss_fractions(rates, 600, seed=8)
        for slab in (1, 7, 500):
            monkeypatch.setattr(gilbert, "SLAB_PAIRS", slab)
            assert np.array_equal(process.sample_states(rates, 600, seed=8), states)
            assert np.array_equal(
                process.sample_loss_fractions(rates, 600, seed=8), fractions
            )

    def test_long_snapshots_stay_in_bounded_memory(self):
        """200k probes x 500 links would be a 100 MB state matrix."""
        rng = np.random.default_rng(4)
        rates = rng.uniform(0.0, 0.002, 500)
        congested = rng.choice(500, 50, replace=False)
        rates[congested] = rng.uniform(0.05, 0.2, 50)
        tracemalloc.start()
        try:
            fractions = GilbertProcess().sample_loss_fractions(
                rates, 200_000, seed=6
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        assert np.allclose(fractions, rates, atol=0.01)


def _runs(states):
    """``(is_bad, length, cap)`` of the runs that end inside their row.

    A row's first run is cut by its start, and a run that starts at slot
    ``s`` is seen to end only if its length is at most ``cap = T - 1 - s``:
    the lengths seen are truncated at *cap*.
    """
    bad, lengths, caps = [], [], []
    for row in states:
        change = np.flatnonzero(row[1:] != row[:-1]) + 1
        bad.append(row[change[:-1]])
        lengths.append(np.diff(change))
        caps.append(row.size - 1 - change[:-1])
    return np.concatenate(bad), np.concatenate(lengths), np.concatenate(caps)


def _geometric_ks_pvalue(lengths, caps, p):
    """KS p-value of truncated *lengths* against Geometric(p) on {1, 2, ...}.

    Each length ``k`` is spread uniformly over ``(k - 1, k]``, which gives
    a Geometric(p) length the continuous CDF ``F`` below.  Given its
    truncation point ``c``, ``F(y) / F(c)`` of a spread length is then
    uniform, so the test is exact rather than conservative.
    """
    spread = lengths - np.random.default_rng(0).random(lengths.size)

    def cdf(y):
        k = np.floor(y)
        survive = (1.0 - p) ** k
        return 1.0 - survive + (y - k) * survive * p

    return stats.kstest(cdf(spread) / cdf(caps.astype(float)), "uniform").pvalue


def _sampler(stay_bad, rates, num_probes, seed):
    return GilbertProcess(stay_bad).sample_states(rates, num_probes, seed=seed)


def _per_slot_chain(stay_bad, rates, num_probes, seed):
    g2b, stay = GilbertProcess(stay_bad).effective_parameters(rates)
    return gilbert_states_reference(
        rates, num_probes, np.random.default_rng(seed), g2b, stay
    )


def _law_rates():
    """``(stay_bad, rate)`` cases: LLRD1's good and congested ranges, the
    ceiling ``1 / (2 - stay_bad)`` and a rate above it."""
    cases = []
    for stay_bad in (0.0, 0.35, 0.9):
        ceiling = 1.0 / (2.0 - stay_bad)
        for label, rate in (
            ("good0.001", 0.001),
            ("good0.002", 0.002),
            ("congested0.05", 0.05),
            ("congested0.2", 0.2),
            ("ceiling", ceiling),
            ("above", (ceiling + 1.0) / 2),
        ):
            cases.append(pytest.param(stay_bad, rate, id=f"{stay_bad}-{label}"))
    return cases


@pytest.mark.parametrize("source", [_sampler, _per_slot_chain], ids=["sojourns", "chain"])
@pytest.mark.parametrize("stay_bad,rate", _law_rates())
class TestGilbertLaw:
    """The sojourn sampler against the chain's closed forms.

    The per-slot chain of ``tests/oracles.py`` runs through the same
    tests as a control.  Means are held to 4.5 standard errors, and KS
    p-values must exceed 1e-4.
    """

    LINKS, LONG = 300, 20_000  # long rows for run lengths and lag-1 pairs
    SNAPSHOTS, PROBES = 4000, 1000  # independent snapshots for the variance
    MAX_RUNS = 20_000  # of each kind, for the KS tests

    @staticmethod
    def params(stay_bad, rate):
        g2b, stay = GilbertProcess(stay_bad).effective_parameters(np.array([rate]))
        return float(g2b[0]), float(stay[0])

    def long_states(self, source, stay_bad, rate):
        return source(stay_bad, np.full(self.LINKS, rate), self.LONG, seed=17)

    def test_run_lengths_are_geometric(self, source, stay_bad, rate):
        g2b, stay = self.params(stay_bad, rate)
        is_bad, lengths, caps = _runs(self.long_states(source, stay_bad, rate))
        for kind, p in ((is_bad, 1.0 - stay), (~is_bad, g2b)):
            runs = np.flatnonzero(kind)[: self.MAX_RUNS]
            assert runs.size > 100
            assert _geometric_ks_pvalue(lengths[runs], caps[runs], p) > 1e-4

    def test_stationary_fraction_and_lag1_joint(self, source, stay_bad, rate):
        _, stay = self.params(stay_bad, rate)
        states = self.long_states(source, stay_bad, rate)
        both = states[:, 1:] & states[:, :-1]
        for per_link, expected in (
            (states.mean(axis=1), rate),
            (both.mean(axis=1), rate * stay),
        ):
            se = per_link.std(ddof=1) / np.sqrt(per_link.size)
            assert abs(per_link.mean() - expected) <= 4.5 * se

    def test_loss_fraction_variance(self, source, stay_bad, rate):
        """``Var F = pi (1 - pi) / T^2 [T + 2 sum_{k<T} (T - k) lambda^k]``
        with ``lambda = P(b->b) - P(g->b)``: the signal LIA reads."""
        g2b, stay = self.params(stay_bad, rate)
        T = self.PROBES
        lam = stay - g2b
        k = np.arange(1, T)
        expected = rate * (1 - rate) / T**2 * (T + 2 * np.sum((T - k) * lam**k))
        # Each snapshot's link sits between links of other parameters:
        # a quiet one and an absorbing one.
        rates = np.tile([rate, 0.001, 1.0], self.SNAPSHOTS)
        states = source(stay_bad, rates, T, seed=23)[0::3]
        fractions = states.mean(axis=1)
        centred = fractions - fractions.mean()
        variance = np.mean(centred**2)
        se = np.sqrt((np.mean(centred**4) - variance**2) / fractions.size)
        assert abs(variance - expected) <= 4.5 * se
        # The stationary start: each snapshot opens bad with probability pi.
        se = np.sqrt(rate * (1 - rate) / self.SNAPSHOTS)
        assert abs(states[:, 0].mean() - rate) <= 4.5 * se


@pytest.mark.parametrize("source", [_sampler, _per_slot_chain], ids=["sojourns", "chain"])
@pytest.mark.parametrize("stay_bad", [0.0, 0.35, 0.9])
def test_rates_zero_and_one_are_constant(source, stay_bad):
    states = source(stay_bad, np.array([0.0, 1.0] * 50), 5000, seed=2)
    assert not states[0::2].any() and states[1::2].all()
