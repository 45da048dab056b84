"""The three benchmark workloads.

Each workload has ``setup(ctx)``, which builds every input from the seed
before timing, and ``measure(ctx, inputs, rec)``, which runs one round of
timed operations in a closed loop (one caller, next call after the
previous returns), checks each output and records what the fingerprint
covers. The runner repeats the round ``rounds`` times with the same
inputs and seeds, so every round does identical work; ``summary`` takes
each operation's fastest round (``Tracer.best``) and turns the spans into
the end-to-end values, the per-layer values and the report lines. The
amount of work is a function of ``--seconds`` and nothing else, so two
runs with the same seed do the same work whatever the machine's speed.

See README.md in this directory for why each workload exists and which
layer metric should move which end-to-end metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from tracing import p50, p90

# Imported after run.py has put the checkout's src/ on sys.path.
from repro.annotate.annotator import SimulatedAnnotator
from repro.core.cluster_stats import Population, cluster_stats_df
from repro.core.cost import CostParams
from repro.core.framework import EvalConfig, evaluate_static
from repro.core.stratification import (
    np_assign_stratum_by_size,
    np_assign_stratum_oracle,
    np_cum_sqrt_f_boundaries,
)
from repro.core.variance import optimal_m
from repro.evolving.reservoir import ReservoirEvaluator
from repro.evolving.stratified_inc import StratifiedIncrementalEvaluator
from repro.kg.generator import movie_full_like, movie_like, movie_syn, nell_like, yago_like
from repro.kg.updates import update_sequence
from repro.kgeval.coupling import build_coupling
from repro.kgeval.kgeval import kgeval_evaluate
from repro.sim import mc

CFG = EvalConfig()
COST = CostParams()

MC_KGS = ["MOVIE", "MOVIE-SYN", "NELL", "YAGO"]
MC_DESIGNS = {
    "MOVIE": ["srs", "wcs", "twcs", "rcs", "twcs_size", "twcs_oracle"],
    "MOVIE-SYN": ["srs", "twcs", "twcs_size", "twcs_oracle"],
    "NELL": ["srs", "wcs", "twcs", "rcs", "twcs_size", "twcs_oracle"],
    "YAGO": ["srs", "wcs", "twcs", "rcs"],
}
MC_STRATA = {"MOVIE": 4, "MOVIE-SYN": 4, "NELL": 2}  # Table 7's strata counts
MC_HOT = {"MOVIE", "MOVIE-SYN"}  # 288,770 clusters; NELL and YAGO have ~820

KGEVAL_MEAN_GROUP = 9.5  # NELL's Horn-rule group size in the Table 6 harness


def hours_of(n_entities: int, n_triples: int) -> float:
    return (COST.c1 * n_entities + COST.c2 * n_triples) / 3600.0


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def stop_is_true(moe: float, n_units: int, n_min: int, census: bool) -> bool:
    """The loop may stop at MoE <= eps after the minimum units, at the
    cap, or when it has seen the whole population."""
    return (n_units >= n_min and moe <= CFG.eps) or n_units >= CFG.max_units or census


@dataclass
class Recorder:
    """Operations attempted and failed, and the outputs fingerprinted."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    def attempt(self, tr, span: str, fn, check):
        """Run one operation under a span; count it failed if it raises
        or any of ``check(result)``'s (ok, message) pairs is not ok."""
        self.attempted += 1
        out = None
        try:
            with tr.span(span):
                out = fn()
            bad = [msg for ok, msg in check(out) if not ok]
        except Exception as e:  # an operation that raises is a failed operation
            bad = [f"raised {e!r}"]
        if bad:
            self.failed += 1
            self.errors.append(f"{span}: {'; '.join(bad)}")
            return None
        return out


@dataclass
class StampingAnnotator(SimulatedAnnotator):
    """The seed's annotator, plus the time each annotation call ends.

    Passed to ``evaluate_static`` through its public ``annotator``
    argument, so batch waits are measured with or without tracing.
    """

    clock: object = None
    stamps: list[float] = field(default_factory=list)

    def annotate_tasks(self, sample):
        out = super().annotate_tasks(sample)
        self.stamps.append(self.clock())
        return out

    def annotate_triples(self, sample):
        out = super().annotate_triples(sample)
        self.stamps.append(self.clock())
        return out


# ---------------------------------------------------------------------------
# spark_eval
# ---------------------------------------------------------------------------


class SparkEval:
    name = "spark_eval"
    uses_spark = True
    setups_per_round = 0  # one KG build costs ~10 s; see README.md
    rounds = 2
    # MOVIE-FULL: 4,606,043 triples, 507,330 clusters. At >= 4 M triples
    # to_spark takes the distributed explode path.
    SF = 0.035
    M = 5
    # Work per 10 s of --seconds. A TWCS evaluation takes 1-4
    # batches and its first batch also pays the population-constants job,
    # so a fixed number of evaluations would give a round time and a
    # batch mean that move with the seed. TWCS evaluations therefore run
    # until they have done TWCS_BATCHES batches in all; the count is
    # fixed by the seed.
    TWCS_BATCHES, N_SRS = 2, 2
    MAX_EVALS = 20

    def setup(self, ctx):
        tr = ctx.tracer
        with tr.span("kg.generate"):
            kg = movie_full_like(sf=self.SF)
        with tr.span("kg.to_spark"):
            sdf = kg.to_spark(ctx.spark()).cache()
            n_triples = sdf.count()
        with tr.span("cluster_stats.aggregate"):
            clusters = cluster_stats_df(sdf).cache()
            n_clusters = clusters.count()
        # A fresh JVM runs the first sampling jobs ~30 % slower while it
        # compiles them; one batch of each design takes that cost here.
        with tr.span("setup.warmup"):
            one_batch = EvalConfig(max_units=1)
            evaluate_static(sdf, design="srs", seed=ctx.seed, config=one_batch)
            evaluate_static(sdf, design="twcs", m=self.M, seed=ctx.seed, config=one_batch,
                            clusters=clusters)
        scale = ctx.seconds / 10.0
        return dict(sdf=sdf, clusters=clusters, n_triples=n_triples, n_clusters=n_clusters,
                    n_srs=max(1, round(self.N_SRS * scale)),
                    twcs_batches=max(1, round(self.TWCS_BATCHES * scale)))

    def measure(self, ctx, inp, rec):
        for key in ("waits", "first", "results"):
            inp[key] = {"srs": [], "twcs": []}
        for i in range(self.MAX_EVALS):  # the cap only matters if evaluations fail
            twcs_done = sum(r.n_batches for r in inp["results"]["twcs"])
            designs = [d for d, more in (("srs", i < inp["n_srs"]),
                                         ("twcs", twcs_done < inp["twcs_batches"])) if more]
            if not designs:
                break
            for design in designs:
                self._evaluate(ctx, inp, rec, design, ctx.seed * 1000 + 1 + i)

    def traced_extra(self, ctx, rec):
        """After the traced round: one KGEval evaluation on NELL (Table
        6's baseline to TWCS), for the kgeval layer's metrics."""
        inp = KGEVAL.setup(ctx)
        lo = ctx.tracer.mark()
        KGEVAL.measure(ctx, inp, rec)
        return KGEVAL.summary(ctx.tracer, lo, inp)

    def _evaluate(self, ctx, inp, rec, design, s):
        tr = ctx.tracer
        ann = StampingAnnotator.with_params(CFG.cost)
        ann.clock = ctx.clock
        kw = dict(m=self.M, clusters=inp["clusters"]) if design == "twcs" else {}
        t0 = ctx.clock()
        r = rec.attempt(
            tr, f"framework.evaluate_static.{design}",
            lambda: evaluate_static(inp["sdf"], design=design, seed=s, annotator=ann, **kw),
            lambda r: self._check(r, design, inp),
        )
        if r is None:
            return
        edges = [t0] + ann.stamps
        inp["waits"][design] += [b - a for a, b in zip(edges, edges[1:])]
        inp["first"][design].append(edges[1] - t0)
        inp["results"][design].append(r)
        e = r.estimate
        rec.outputs.append([design, s, r.n_batches, r.n_draws, r.n_triples,
                            r.n_entities, r.hours, e.mu_hat, e.moe])

    def _check(self, r, design, inp):
        e = r.estimate
        if design == "srs":
            n_min, census = CFG.min_triples, r.n_draws >= inp["n_triples"]
        else:
            n_min, census = CFG.min_draws, False
        return [
            (stop_is_true(e.moe, e.n_units, n_min, census),
             f"stopped with MoE {e.moe:.4f} after {e.n_units} units"),
            (close(r.hours, hours_of(r.n_entities, r.n_triples)),
             f"hours {r.hours} != Eq 4 of ({r.n_entities}, {r.n_triples})"),
            (0.0 <= e.mu_hat <= 1.0, f"mu_hat {e.mu_hat} outside [0, 1]"),
        ]

    def summary(self, tr, windows, inp):
        dur = {d: tr.best(f"framework.evaluate_static.{d}", windows) for d in ("srs", "twcs")}
        res = inp["results"]
        evals = res["srs"] + res["twcs"]
        hours = [r.hours for r in evals]
        n_batches = sum(r.n_batches for r in res["twcs"])
        e2e = {"hot_op_s": sum(dur["twcs"]) / n_batches if n_batches else 0.0,
               "bypass_op_s": p50(dur["srs"])}
        report = [
            ("srs_eval_s_p50", p50(dur["srs"]), "s", len(dur["srs"])),
            ("twcs_eval_s_p50", p50(dur["twcs"]), "s", len(dur["twcs"])),
            ("twcs_batch_s_p50", p50(inp["waits"]["twcs"]), "s", len(inp["waits"]["twcs"])),
            ("twcs_batch_s_mean", e2e["hot_op_s"], "s", n_batches),
            ("annotation_h", float(np.mean(hours)) if hours else 0.0, "h", len(hours)),
        ]
        layers = {
            "annotation_h": report[-1][1],
            "kg.triples": inp["n_triples"],
            "kg.clusters": inp["n_clusters"],
            "framework.moe0_stop_share": (
                sum(r.estimate.moe == 0.0 for r in evals) / len(evals) if evals else 0.0),
            "annotate.tasks": sum(r.n_draws for r in res["twcs"]),
            "annotate.triples": sum(r.n_triples for r in evals),
            "annotate.entities": sum(r.n_entities for r in evals),
        }
        for d in ("srs", "twcs"):
            layers[f"framework.eval_s_p50.{d}"] = p50(dur[d])
            layers[f"framework.first_batch_s_p50.{d}"] = p50(inp["first"][d])
            layers[f"framework.batches_per_eval.{d}"] = (
                float(np.mean([r.n_batches for r in res[d]])) if res[d] else 0.0)
        return e2e, layers, report


# ---------------------------------------------------------------------------
# mc_tables
# ---------------------------------------------------------------------------


class MCTables:
    name = "mc_tables"
    uses_spark = False
    setups_per_round = 1  # ~0.5 s each
    rounds = 10
    # Trials per cell per round per 10 s of --seconds: the 288k-cluster
    # cells cost 2-40 ms a trial, the ~820-cluster cells 0.2-2 ms.
    HOT_TRIALS, SMALL_TRIALS = 4, 20

    def setup(self, ctx):
        tr = ctx.tracer
        with tr.span("kg.generate"):
            kgs = {
                "MOVIE": movie_like(sf=1.0),
                "MOVIE-SYN": movie_syn(sf=1.0, c=0.01, sigma=0.1),
                "NELL": nell_like(),
                "YAGO": yago_like(),
            }
        with tr.span("cluster_stats.population"):
            pops = {k: Population.from_synthetic(g) for k, g in kgs.items()}
        ms = {k: optimal_m(p.sizes, p.cluster_accuracies, alpha=CFG.alpha, eps=CFG.eps)
              for k, p in pops.items()}
        strata = {}
        with tr.span("stratification.assign"):
            for k, h in MC_STRATA.items():
                p = pops[k]
                strata[k, "twcs_size"] = np_assign_stratum_by_size(
                    p.sizes, np_cum_sqrt_f_boundaries(p.sizes, h))
                strata[k, "twcs_oracle"] = np_assign_stratum_oracle(p.cluster_accuracies, h)
        scale = ctx.seconds / 10.0
        cells = []
        for k in MC_KGS:
            n = max(2, round((self.HOT_TRIALS if k in MC_HOT else self.SMALL_TRIALS) * scale))
            for d in MC_DESIGNS[k]:
                kw = {"m": ms[k]} if d.startswith("twcs") else {}
                if d.startswith("twcs_"):
                    kw["strata"] = strata[k, d]
                cells.append((k, d, n, kw))
        return dict(pops=pops, cells=cells,
                    n_triples=sum(p.n_triples for p in pops.values()),
                    n_clusters=sum(p.n_clusters for p in pops.values()))

    def measure(self, ctx, inp, rec):
        tr = ctx.tracer
        inp["summaries"] = {}
        inp["cell_spans"] = {}
        for k, d, n, kw in inp["cells"]:
            design = "twcs_stratified" if d.startswith("twcs_") else d
            lo = tr.mark()
            s = rec.attempt(
                tr, "mc.run_trials",
                lambda: mc.run_trials(inp["pops"][k], design, n_trials=n,
                                      seed=ctx.seed * 1_000_003, cfg=CFG, **kw),
                lambda s: [
                    (s.n_trials == n, f"{s.n_trials} trials, asked for {n}"),
                    (math.isfinite(s.hours_mean) and s.hours_mean > 0, f"hours {s.hours_mean}"),
                    (0.0 <= s.mu_mean <= 1.0, f"mean mu_hat {s.mu_mean} outside [0, 1]"),
                ],
            )
            inp["cell_spans"][k, d] = (lo, tr.mark())
            if s is not None:
                inp["summaries"][k, d] = s
                rec.outputs.append([k, d, n, s.mu_mean, s.mu_sd, s.hours_mean, s.hours_sd,
                                    s.draws_mean, s.triples_mean])

    # The estimator whose MoE decides each design's stop, for batches_per_trial.
    STOP_ESTIMATOR = {"srs": "stats.estimate_srs", "wcs": "stats.estimate_cluster_means",
                      "twcs": "stats.estimate_cluster_means", "rcs": "stats.estimate_rcs",
                      "twcs_size": "stats.combine_stratified",
                      "twcs_oracle": "stats.combine_stratified"}

    def summary(self, tr, windows, inp):
        t = {"hot": [0.0, 0], "small": [0.0, 0]}
        layers = {"kg.triples": inp["n_triples"], "kg.clusters": inp["n_clusters"]}
        hours = trials = 0.0
        bias_lines = []  # observed only (ROADMAP item 1); never a check
        best = dict(zip([(k, d) for k, d, _, _ in inp["cells"]], tr.best("mc.run_trials", windows)))
        for (k, d), s in inp["summaries"].items():
            lo, hi = inp["cell_spans"][k, d]
            sec = best[k, d]
            acc = t["hot" if k in MC_HOT else "small"]
            acc[0] += sec
            acc[1] += s.n_trials
            hours += s.hours_mean * s.n_trials
            trials += s.n_trials
            layers[f"mc.ms_per_trial.{k}.{d}"] = 1e3 * sec / s.n_trials
            layers[f"mc.batches_per_trial.{k}.{d}"] = (
                tr.count(self.STOP_ESTIMATOR[d], lo, hi) / s.n_trials)
            layers[f"mc.bias.{k}.{d}"] = s.mu_mean - inp["pops"][k].mu
            bias_lines += [(f"mc.bias.{k}.{d}", layers[f"mc.bias.{k}.{d}"], "share", s.n_trials),
                           (f"mc.bias_se.{k}.{d}", s.mu_sd / math.sqrt(s.n_trials), "share",
                            s.n_trials)]
        total_s = t["hot"][0] + t["small"][0]
        layers["mc.trials_per_s"] = trials / total_s if total_s else 0.0
        layers["annotation_h"] = hours / trials if trials else 0.0
        e2e = {
            "hot_op_s": t["hot"][0] / t["hot"][1] if t["hot"][1] else 0.0,
            "bypass_op_s": t["small"][0] / t["small"][1] if t["small"][1] else 0.0,
        }
        report = [
            ("trials_per_s", layers["mc.trials_per_s"], "trials/s", int(trials)),
            ("annotation_h", layers["annotation_h"], "h", int(trials)),
            ("s_per_trial.movie_cells", e2e["hot_op_s"], "s", t["hot"][1]),
            ("s_per_trial.nell_yago_cells", e2e["bypass_op_s"], "s", t["small"][1]),
        ] + bias_lines
        return e2e, layers, report


# ---------------------------------------------------------------------------
# evolving
# ---------------------------------------------------------------------------


class Evolving:
    name = "evolving"
    uses_spark = False
    setups_per_round = 3  # ~0.07 s each
    rounds = 5
    SF = 0.5  # the paper's 50 % MOVIE: 144,385 clusters
    M = 5
    N_UPDATES = 10  # Fig 9: ten inserts, each 10 % of the base at 90 % accuracy
    TRIAL_S = 3.0  # nominal seconds of one trial (both evaluators), all rounds
    MIN_TRIALS = 3  # 30 updates per evaluator

    def setup(self, ctx):
        tr = ctx.tracer
        with tr.span("kg.generate"):
            base_kg = movie_like(sf=self.SF, seed=21)
            n_trials = max(self.MIN_TRIALS, round(ctx.seconds / self.TRIAL_S))
            seqs = [
                update_sequence(n_batches=self.N_UPDATES,
                                n_triples_each=int(base_kg.n_triples * 0.1), accuracy=0.9,
                                seed=ctx.seed * 1_000_003 + 1009 * k,
                                subject_offset=10_000_000)
                for k in range(n_trials)
            ]
        with tr.span("cluster_stats.population"):
            base = Population.from_synthetic(base_kg)
            deltas = [[Population.from_synthetic(d) for d in seq] for seq in seqs]
        return dict(base=base, deltas=deltas, n_triples=base.n_triples,
                    n_clusters=base.n_clusters)

    def measure(self, ctx, inp, rec):
        tr = ctx.tracer
        base = inp["base"]
        inp["hours"] = {"rs": [], "ss": []}
        inp["insertions"] = []
        for k, deltas in enumerate(inp["deltas"]):
            rng_rs = np.random.default_rng([ctx.seed, k, 0])
            rng_ss = np.random.default_rng([ctx.seed, k, 1])
            rs = ReservoirEvaluator(m=self.M, cfg=CFG)
            ss = StratifiedIncrementalEvaluator(m=self.M, cfg=CFG)
            e_rs = rec.attempt(tr, "evolving.rs_initialise", lambda: rs.initialise(base, rng_rs),
                               lambda e: self._check_est(e, rs))
            e_ss = rec.attempt(tr, "evolving.ss_initialise", lambda: ss.initialise(base, rng_ss),
                               lambda e: self._check_est(e, ss))
            if e_rs is None or e_ss is None:
                continue
            out = [k, e_rs.mu_hat, e_ss.mu_hat]
            for delta in deltas:
                before = (len(rs.members), rs.ledger.n_identifications, rs.n_insertions)
                e = rec.attempt(tr, "evolving.rs_update", lambda: rs.apply_update(delta, rng_rs),
                                lambda e: self._check_est(e, rs) + [self._check_size(rs, before)])
                e2 = rec.attempt(tr, "evolving.ss_update", lambda: ss.apply_update(delta, rng_ss),
                                 lambda e: self._check_est(e, ss))
                out += [None if e is None else e.mu_hat, None if e2 is None else e2.mu_hat]
            inp["hours"]["rs"].append(rs.hours)
            inp["hours"]["ss"].append(ss.hours)
            inp["insertions"].append(rs.n_insertions)
            rec.outputs.append(out + [rs.hours, ss.hours, rs.n_insertions, len(rs.members)])

    @staticmethod
    def _check_size(rs, before):
        """Algorithm 1 swaps members one for one; the reservoir grows only
        by the top-up draws, each of which is one new identification."""
        n0, ids0, ins0 = before
        top_ups = (rs.ledger.n_identifications - ids0) - (rs.n_insertions - ins0)
        return (len(rs.members) - n0 == top_ups,
                f"reservoir {n0} -> {len(rs.members)} with {top_ups} top-up draws")

    @staticmethod
    def _check_est(e, ev):
        if isinstance(ev, ReservoirEvaluator):
            n, census = e.n_units, not ev.spare
        else:  # Eq 13's combination reports no unit count; count the draws
            n, census = sum(len(st.means) for st in ev.strata), False
        ok_h = ev.ledger.n_identifications >= 1 and close(
            ev.hours, hours_of(ev.ledger.n_identifications, ev.ledger.n_validations))
        return [
            (stop_is_true(e.moe, n, CFG.min_draws, census), f"stopped with MoE {e.moe:.4f} after {n}"),
            (ok_h, f"hours {ev.hours} != Eq 4 of the ledger"),
            (0.0 <= e.mu_hat <= 1.0, f"mu_hat {e.mu_hat} outside [0, 1]"),
        ]

    def summary(self, tr, windows, inp):
        rs = tr.best("evolving.rs_update", windows)
        ss = tr.best("evolving.ss_update", windows)
        h = inp["hours"]
        all_h = h["rs"] + h["ss"]
        e2e = {"hot_op_s": p50(rs), "bypass_op_s": p50(ss)}
        layers = {
            "kg.triples": inp["n_triples"],
            "kg.clusters": inp["n_clusters"],
            "evolving.rs_update_s_p90": p90(rs),
            "evolving.ss_update_s_p90": p90(ss),
            "evolving.rs_initialise_s": p50(tr.best("evolving.rs_initialise", windows)),
            "evolving.ss_initialise_s": p50(tr.best("evolving.ss_initialise", windows)),
            "evolving.rs_insertions": float(np.mean(inp["insertions"])) if inp["insertions"] else 0.0,
            "evolving.rs_hours": float(np.mean(h["rs"])) if h["rs"] else 0.0,
            "evolving.ss_hours": float(np.mean(h["ss"])) if h["ss"] else 0.0,
            "annotation_h": float(np.mean(all_h)) if all_h else 0.0,
        }
        report = [
            ("rs_update_s_p50", e2e["hot_op_s"], "s", len(rs)),
            ("rs_update_s_p90", layers["evolving.rs_update_s_p90"], "s", len(rs)),
            ("ss_update_s_p50", e2e["bypass_op_s"], "s", len(ss)),
            ("ss_update_s_p90", layers["evolving.ss_update_s_p90"], "s", len(ss)),
            ("annotation_h", layers["annotation_h"], "h", len(all_h)),
        ]
        return e2e, layers, report


# ---------------------------------------------------------------------------
# kgeval
# ---------------------------------------------------------------------------


class KGEval:
    """Table 6's KGEval baseline on NELL: the Spark coupling build plus the
    driver loop. Not a workload of its own: one evaluation takes ~18 s of
    single-threaded Python, and ten seeds of it spread by 0.26-0.30
    (IQR/median), above the 0.25 bound BENCHMARK.json sets. ``SparkEval.traced_extra`` runs
    it once per traced run, so the kgeval layer is still measured."""

    # The coupling build is one ~1 s Spark job, so it runs this many times
    # with the same seed and the evaluation counts its fastest build.
    BUILDS = 4

    def setup(self, ctx):
        tr = ctx.tracer
        with tr.span("kg.generate"):
            kg = nell_like()
        with tr.span("kg.to_spark"):
            sdf = kg.to_spark(ctx.spark()).cache()
            sdf.count()
        # The first Spark join in a fresh JVM costs ~6 s of JIT that later
        # builds do not pay; a build with another seed takes it here.
        with tr.span("setup.warmup"):
            build_coupling(sdf, mean_group=KGEVAL_MEAN_GROUP, seed=ctx.seed * 1000 + 999)
        return dict(sdf=sdf, seed=ctx.seed * 1000)

    def measure(self, ctx, inp, rec):
        tr, s = ctx.tracer, inp["seed"]

        def evaluate():
            sizes = set()
            for _ in range(self.BUILDS):
                with tr.span("kgeval.build"):
                    triples, edges = build_coupling(
                        inp["sdf"], mean_group=KGEVAL_MEAN_GROUP, seed=s)
                sizes.add((len(triples), len(edges)))
            with tr.span("kgeval.loop"):
                return len(edges), kgeval_evaluate(triples, edges, seed=s), sizes

        out = rec.attempt(
            tr, "kgeval.evaluate", evaluate,
            lambda o: [
                (len(o[2]) == 1, f"same-seed builds differ in size: {sorted(o[2])}"),
                (o[1].coverage == 1.0, f"coverage {o[1].coverage}"),
                (close(o[1].annotation_hours, hours_of(o[1].n_annotated, o[1].n_annotated)),
                 f"hours {o[1].annotation_hours} != Eq 4 of {o[1].n_annotated}"),
                (0.0 <= o[1].mu_hat <= 1.0, f"mu_hat {o[1].mu_hat} outside [0, 1]"),
            ],
        )
        if out is not None:
            n_edges, r, _ = out
            inp["result"] = (n_edges, r)
            rec.outputs.append([s, n_edges, r.n_annotated, r.annotation_hours, r.mu_hat])

    def summary(self, tr, lo, inp):
        """Layer values and report lines from the spans after ``lo``."""
        if "result" not in inp:
            return {}, []
        build = min(tr.durations("kgeval.build", lo))
        loop = tr.total("kgeval.loop", lo)
        n_edges, r = inp["result"]
        layers = {
            "kgeval.build_s": build,
            "kgeval.loop_s": loop,
            "kgeval.machine_s": r.machine_seconds,
            "kgeval.edges": n_edges,
            "kgeval.annotated": r.n_annotated,
            "self_s.kgeval": tr.self_time_by_layer(lo).get("kgeval", 0.0),
        }
        report = [
            ("kgeval_s_p50", build + loop, "s", 1),
            ("kgeval_build_s_p50", build, "s", 1),
            ("kgeval_annotation_h", r.annotation_hours, "h", 1),
        ]
        return layers, report


KGEVAL = KGEval()


WORKLOADS = {w.name: w for w in (SparkEval(), MCTables(), Evolving())}
