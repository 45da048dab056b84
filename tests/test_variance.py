"""Tests for Eq 10 / Eq 12: V(m), required n, optimal m — including the
paper's Propositions 1-2 checked by simulation."""
import numpy as np
import pytest

from repro.core.cluster_sampling import twcs_draw, weighted_cluster_draws
from repro.core.cluster_stats import Population
from repro.core.cost import CostParams
from repro.core.framework import EvalConfig
from repro.core.variance import expected_cost_seconds, optimal_m, required_n, v_of_m
from repro.kg.generator import nell_like


@pytest.fixture(scope="module")
def nell_pop():
    return Population.from_synthetic(nell_like())


def _twcs_estimates(pop, m, n, trials, seed):
    """Fixed-n TWCS estimates (no stopping rule) for variance checks."""
    rng = np.random.default_rng(seed)
    cum = np.cumsum(pop.sizes)
    out = np.empty(trials)
    for t in range(trials):
        ci = weighted_cluster_draws(cum, n, rng)
        out[t] = twcs_draw(pop.sizes, pop.taus, ci, m, rng)[0].mean()
    return out


class TestVofM:
    def test_monotone_nonincreasing_in_m(self, nell_pop):
        mus = nell_pop.cluster_accuracies
        vs = [v_of_m(nell_pop.sizes, mus, m) for m in range(1, 10)]
        assert all(a >= b - 1e-12 for a, b in zip(vs, vs[1:]))

    def test_m1_equals_srs_variance(self, nell_pop):
        """Proposition 2: TWCS(m=1) == SRS, so V(1) = mu(1-mu) for the
        binary population (finite-population correction aside)."""
        mus = nell_pop.cluster_accuracies
        mu = nell_pop.mu
        assert v_of_m(nell_pop.sizes, mus, 1) == pytest.approx(mu * (1 - mu), rel=0.01)

    def test_large_m_leaves_between_cluster_term(self, nell_pop):
        mus = nell_pop.cluster_accuracies
        mu = nell_pop.mu
        between = float(
            np.dot(nell_pop.sizes, (mus - mu) ** 2) / nell_pop.n_triples
        )
        big_m = int(nell_pop.sizes.max())
        assert v_of_m(nell_pop.sizes, mus, big_m) == pytest.approx(between, rel=1e-9)

    def test_matches_empirical_variance(self, nell_pop):
        """Eq 10: Var(mu_hat_{w,m}) = V(m)/n, checked by simulation."""
        m, n = 3, 50
        est = _twcs_estimates(nell_pop, m, n, trials=3000, seed=1)
        theory = v_of_m(nell_pop.sizes, nell_pop.cluster_accuracies, m) / n
        assert est.var(ddof=1) == pytest.approx(theory, rel=0.12)

    def test_unbiasedness_proposition1(self, nell_pop):
        est = _twcs_estimates(nell_pop, 4, 40, trials=3000, seed=2)
        se = est.std(ddof=1) / np.sqrt(len(est))
        assert abs(est.mean() - nell_pop.mu) < 4 * se

    def test_rejects_bad_m(self, nell_pop):
        with pytest.raises(ValueError):
            v_of_m(nell_pop.sizes, nell_pop.cluster_accuracies, 0)


class TestRequiredN:
    def test_scales_inverse_square_eps(self, nell_pop):
        mus = nell_pop.cluster_accuracies
        n5 = required_n(nell_pop.sizes, mus, 3, alpha=0.05, eps=0.05)
        n10 = required_n(nell_pop.sizes, mus, 3, alpha=0.05, eps=0.10)
        assert n5 == pytest.approx(4 * n10, rel=0.05)

    def test_at_least_one(self):
        sizes = np.array([5, 5])
        mus = np.array([1.0, 1.0])  # zero variance
        assert required_n(sizes, mus, 2, alpha=0.05, eps=0.05) == 1


class TestOptimalM:
    def test_in_paper_range(self, nell_pop):
        """Sec 7.2.2: near-optimal m is small (paper: ~3-5; tighter size
        distributions push it down; never large)."""
        m = optimal_m(nell_pop.sizes, nell_pop.cluster_accuracies, alpha=0.05, eps=0.05)
        assert 1 <= m <= 8

    def test_cost_at_optimum_is_minimal(self, nell_pop):
        mus = nell_pop.cluster_accuracies
        m = optimal_m(nell_pop.sizes, mus, alpha=0.05, eps=0.05)
        c_opt = expected_cost_seconds(nell_pop.sizes, mus, m, alpha=0.05, eps=0.05)
        for other in (1, 10, 20):
            assert c_opt <= expected_cost_seconds(
                nell_pop.sizes, mus, other, alpha=0.05, eps=0.05
            ) + 1e-9

    def test_free_validation_pushes_m_up(self, nell_pop):
        """With c2=0 large m costs nothing extra, so optimum grows."""
        mus = nell_pop.cluster_accuracies
        m_free = optimal_m(
            nell_pop.sizes, mus, alpha=0.05, eps=0.05, cost=CostParams(c1=45, c2=0)
        )
        m_dear = optimal_m(
            nell_pop.sizes, mus, alpha=0.05, eps=0.05, cost=CostParams(c1=1, c2=100)
        )
        assert m_free >= m_dear
