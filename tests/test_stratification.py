"""Tests for stratification (Sec 5.3): cum-sqrt-F boundaries, stratum
assignment (DuckDB oracle checks), and variance reduction."""
import numpy as np
import pandas as pd
import pytest

from repro.core.cluster_stats import Population
from repro.core.stratification import (
    cum_sqrt_f_boundaries,
    np_assign_stratum_by_size,
    np_assign_stratum_oracle,
    np_cum_sqrt_f_boundaries,
    np_size_histogram,
)
from repro.kg.generator import movie_like
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def movie_small():
    return movie_like(sf=0.003)


@pytest.fixture(scope="module")
def kg_pdf(movie_small):
    return movie_small.to_pandas()


def _strata(kg, strata):
    return pd.DataFrame({"subject": kg.subjects(), "stratum": strata})


class TestSizeHistogram:
    def test_oracle(self, movie_small, kg_pdf):
        assert_equivalent(
            np_size_histogram(movie_small.sizes),
            "SELECT size, COUNT(*) AS freq FROM "
            "(SELECT subject, COUNT(*) AS size FROM kg GROUP BY subject) "
            "GROUP BY size",
            kg=kg_pdf,
        )


class TestBoundaries:
    def test_increasing_and_inf_terminated(self, movie_small):
        b = np_cum_sqrt_f_boundaries(movie_small.sizes, 4)
        assert (np.diff(b[:-1]) > 0).all()
        assert b[-1] == float("inf")

    def test_single_stratum(self, movie_small):
        b = np_cum_sqrt_f_boundaries(movie_small.sizes, 1)
        assert len(b) == 1 and b[0] == float("inf")

    def test_balances_sqrt_frequency_mass(self):
        # Uniform histogram over sizes 1..100: cuts land near 50.
        hist = pd.DataFrame({"size": np.arange(1, 101), "freq": np.ones(100)})
        b = cum_sqrt_f_boundaries(hist, 2)
        assert 40 <= b[0] <= 60

    def test_degenerate_fewer_sizes_than_strata(self):
        hist = pd.DataFrame({"size": [1, 2], "freq": [5, 5]})
        b = cum_sqrt_f_boundaries(hist, 5)
        assert b[-1] == float("inf")
        assert (np.diff(b[:-1]) > 0).all()

    def test_rejects_zero_strata(self):
        with pytest.raises(ValueError):
            cum_sqrt_f_boundaries(pd.DataFrame({"size": [1], "freq": [1]}), 0)


class TestAssignment:
    def test_size_strata_oracle(self, movie_small, kg_pdf):
        """Stratum = number of boundaries below the cluster's size."""
        b = np_cum_sqrt_f_boundaries(movie_small.sizes, 4)
        assert_equivalent(
            _strata(movie_small, np_assign_stratum_by_size(movie_small.sizes, b)),
            "SELECT subject, (SELECT COUNT(*) FROM bounds WHERE bounds.b < c.size) "
            "AS stratum FROM (SELECT subject, COUNT(*) AS size FROM kg GROUP BY subject) c",
            kg=kg_pdf,
            bounds=pd.DataFrame({"b": b}),
        )

    def test_all_strata_nonempty(self, movie_small):
        b = np_cum_sqrt_f_boundaries(movie_small.sizes, 4)
        s = np_assign_stratum_by_size(movie_small.sizes, b)
        assert len(np.unique(s)) == len(b)

    def test_oracle_strata_by_accuracy(self):
        mus = np.array([0.0, 0.24, 0.5, 0.9, 1.0])
        s = np_assign_stratum_oracle(mus, 4)
        assert s.tolist() == [0, 0, 2, 3, 3]

    def test_oracle_strata_oracle(self, movie_small, kg_pdf):
        """Oracle stratum = floor(4 * tau/size), with accuracy 1 in the top bin."""
        assert_equivalent(
            _strata(movie_small, np_assign_stratum_oracle(movie_small.cluster_accuracies, 4)),
            "SELECT subject, LEAST(CAST(FLOOR(CAST(SUM(label) AS DOUBLE) / COUNT(*) * 4) "
            "AS INTEGER), 3) AS stratum FROM kg GROUP BY subject",
            kg=kg_pdf,
        )


class TestVarianceReduction:
    def test_oracle_strata_reduce_weighted_variance(self):
        """sum W_h^2 Var_h < Var for homogeneous strata (Sec 5.3 claim),
        verified on a population with strongly bimodal cluster accuracy."""
        rng = np.random.default_rng(0)
        n = 2000
        sizes = np.full(n, 4)
        good = rng.random(n) < 0.5
        taus = np.where(good, 4, 0)
        pop = Population(np.arange(n), sizes, taus)
        mus = pop.cluster_accuracies
        strata = np_assign_stratum_oracle(mus, 2)
        overall = float(np.dot(sizes, (mus - pop.mu) ** 2) / pop.n_triples)
        within = 0.0
        for h in np.unique(strata):
            mask = strata == h
            w = sizes[mask].sum() / pop.n_triples
            mu_h = taus[mask].sum() / sizes[mask].sum()
            var_h = float(np.dot(sizes[mask], (mus[mask] - mu_h) ** 2) / sizes[mask].sum())
            within += w * w * var_h
        assert within < overall
