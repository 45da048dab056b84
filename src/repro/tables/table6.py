"""Table 6 — TWCS vs KGEval on NELL and YAGO.

Machine time for sample generation/inference, number of triples
annotated, annotation hours, and the accuracy estimate. KGEval is the
inference-propagation substitute (see DESIGN.md); its machine time is
the Spark coupling-graph build plus the whole ``kgeval_evaluate`` call
(adjacency, components, control selection, propagation). TWCS's machine
time is the mean wall time of one Monte-Carlo evaluation over the
cluster arrays, so it excludes the Spark cluster aggregation those
arrays come from. The paper's point: KGEval's machine time sits orders
of magnitude above TWCS's sampling time, while TWCS stays sub-second.
"""
from __future__ import annotations

import time

import numpy as np

from pyspark.sql import SparkSession

from repro.core.cluster_stats import Population
from repro.core.framework import EvalConfig
from repro.core.variance import optimal_m
from repro.kg.generator import nell_like, yago_like
from repro.kgeval.coupling import build_coupling
from repro.kgeval.kgeval import kgeval_evaluate
from repro.sim import mc
from repro.tables.common import n_trials, render

PAPER = {
    ("NELL", "KGEval"): dict(machine="12.44 hours", annotated="140", hours="2.3", est="91.84%"),
    ("NELL", "TWCS"): dict(machine="<1 second", annotated="149±47", hours="1.85±0.6", est="91.63%±2.3%"),
    ("YAGO", "KGEval"): dict(machine="18.13 hours", annotated="204", hours="3.17", est="99.30%"),
    ("YAGO", "TWCS"): dict(machine="<1 second", annotated="32±5", hours="0.44±0.07", est="99.2% (96.7%-100%)"),
}

# Horn-rule mean group sizes calibrated so annotations-to-cover matches
# Table 6 (~140 on NELL, ~204 on YAGO); see kgeval.coupling.
_MEAN_GROUP = {"NELL": 9.5, "YAGO": 6.0}


def compute(spark: SparkSession, *, trials: int | None = None, seed: int = 3) -> list[dict]:
    t = trials if trials is not None else n_trials(1000)
    rows = []
    for name, gen in [("NELL", nell_like), ("YAGO", yago_like)]:
        kg = gen()
        pop = Population.from_synthetic(kg)

        # --- KGEval: coupling graph built by Spark joins, inference on
        # the collected graph (its real-world scalability ceiling).
        sdf = kg.to_spark(spark)
        t0 = time.perf_counter()
        triples, edges = build_coupling(sdf, mean_group=_MEAN_GROUP[name], seed=seed)
        build_seconds = time.perf_counter() - t0
        kge = kgeval_evaluate(triples, edges, seed=seed)

        # --- TWCS: MC summary for costs + measured sampling time.
        m_opt = optimal_m(pop.sizes, pop.cluster_accuracies, alpha=0.05, eps=0.05)
        t0 = time.perf_counter()
        s = mc.run_trials(pop, "twcs", m=m_opt, n_trials=t, seed=seed)
        twcs_machine = (time.perf_counter() - t0) / t  # per full evaluation

        p_k, p_t = PAPER[(name, "KGEval")], PAPER[(name, "TWCS")]
        rows.append(
            {
                "KG": name,
                "method": "KGEval",
                "machine time (paper)": p_k["machine"],
                "machine time (ours)": f"{build_seconds + kge.machine_seconds:.1f} s",
                "# annotated (paper)": p_k["annotated"],
                "# annotated (ours)": kge.n_annotated,
                "annotation h (paper)": p_k["hours"],
                "annotation h (ours)": f"{kge.annotation_hours:.2f}",
                "estimation (paper)": p_k["est"],
                "estimation (ours)": f"{100 * kge.mu_hat:.2f}%",
            }
        )
        if name == "YAGO":
            est = (
                f"{100 * s.mu_mean:.1f}% "
                f"({100 * s.mu_p025:.1f}%-{100 * s.mu_p975:.1f}%)"
            )
        else:
            est = f"{100 * s.mu_mean:.2f}%±{100 * s.mu_sd:.1f}%"
        rows.append(
            {
                "KG": name,
                "method": f"TWCS (m={m_opt})",
                "machine time (paper)": p_t["machine"],
                "machine time (ours)": f"{twcs_machine * 1e3:.1f} ms",
                "# annotated (paper)": p_t["annotated"],
                "# annotated (ours)": f"{s.triples_mean:.0f}±{s.triples_sd:.0f}",
                "annotation h (paper)": p_t["hours"],
                "annotation h (ours)": f"{s.hours_mean:.2f}±{s.hours_sd:.2f}",
                "estimation (paper)": p_t["est"],
                "estimation (ours)": est,
            }
        )
    return rows


def table_text(rows: list[dict]) -> str:
    return render(
        "Table 6: TWCS vs KGEval on NELL and YAGO (paper vs ours)",
        rows,
        list(rows[0].keys()),
    )
