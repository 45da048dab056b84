"""Stratified Incremental Evaluation — SS (Sec 6.2, Algorithm 2).

Each update batch Delta^i becomes its own stratum. The estimate for the
evolved KG combines per-stratum TWCS estimates with triple-count weights
W_h = |stratum_h| / |G + Delta| (Eq 13); all annotations from earlier
strata are *fully reused* (only their weights change), which is why SS
beats RS on cost — and why a bad early estimate lingers (Sec 7.3.2's
fault-tolerance trade-off, which tests reproduce).

Per Algorithm 2, after an update only the newest stratum is sampled:
draw TWCS batches on Delta until the *combined* MoE is back under eps.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cluster_sampling import estimate_cluster_means, twcs_draw, weighted_cluster_draws
from repro.core.cluster_stats import Population
from repro.core.cost import CostLedger
from repro.core.framework import EvalConfig, run_until_moe
from repro.core.stats import Estimate, combine_stratified


@dataclass
class _Stratum:
    pop: Population
    means: list[float] = field(default_factory=list)  # per-draw TWCS means


@dataclass
class StratifiedIncrementalEvaluator:
    """SS over a sequence of update batches (Algorithm 2)."""

    m: int
    cfg: EvalConfig = field(default_factory=EvalConfig)
    # Incremental batches on Delta are finer than the static loop's: each
    # new stratum usually needs only a handful of draws to pull the
    # combined MoE back under eps, so coarse batches would overshoot and
    # erase SS's cost advantage (the whole point of Algorithm 2).
    update_batch_clusters: int = 5
    strata: list[_Stratum] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)

    def estimate(self) -> Estimate:
        """Eq 13 over the strata's per-draw means, W_h = |stratum_h| / |G|."""
        w = np.array([st.pop.n_triples for st in self.strata], dtype=np.float64)
        w /= w.sum()
        per_stratum = [
            estimate_cluster_means(np.asarray(st.means), alpha=self.cfg.alpha)
            for st in self.strata
        ]
        return combine_stratified(w, per_stratum, self.cfg.alpha)

    def _add_stratum(self, pop: Population, rng: np.random.Generator, batch: int) -> Estimate:
        """Algorithm 2's while-loop: TWCS batches on the new stratum only."""
        st = _Stratum(pop)
        self.strata.append(st)
        cum = np.cumsum(pop.sizes)

        def draw(k: int) -> bool:
            ci = weighted_cluster_draws(cum, k, rng)
            means, s = twcs_draw(pop.sizes, pop.taus, ci, self.m, rng)
            st.means.extend(means.tolist())
            for si in s.tolist():
                self.ledger.charge_task(si)
            return True

        draw(2)  # a stratum's variance needs >= 2 draws
        return run_until_moe(lambda: draw(batch), self.estimate, self.cfg.min_draws, self.cfg)[0]

    def initialise(self, pop: Population, rng: np.random.Generator) -> Estimate:
        """Static TWCS evaluation of the base KG G (stratum 0)."""
        return self._add_stratum(pop, rng, self.cfg.batch_clusters)

    def apply_update(self, delta: Population, rng: np.random.Generator) -> Estimate:
        """Algorithm 2: Delta is a fresh stratum; only it gets sampled."""
        if not self.strata:
            raise RuntimeError("initialise() must run before apply_update()")
        return self._add_stratum(delta, rng, self.update_batch_clusters)

    @property
    def hours(self) -> float:
        return self.ledger.hours
