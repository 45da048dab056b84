"""Tests for the KGEval baseline substitute (coupling + inference)."""
import numpy as np
import pandas as pd
import pytest

from repro.kg.generator import nell_like, yago_like
from repro.kgeval.coupling import (
    build_coupling,
    coupling_edges,
    with_rule_groups,
    with_triple_ids,
)
from repro.kgeval.kgeval import KGEvalResult, _components, kgeval_evaluate


@pytest.fixture(scope="module")
def nell_df(spark):
    return nell_like().to_spark(spark).cache()


class TestCouplingGraph:
    def test_triple_ids_dense_and_unique(self, nell_df):
        ids = with_triple_ids(nell_df).toPandas()
        assert sorted(ids["tid"]) == list(range(len(ids)))

    def test_rule_groups_mean_size(self, nell_df):
        g = with_rule_groups(with_triple_ids(nell_df), mean_group=8.0, seed=1).toPandas()
        mean = g.groupby("rule_group").size().mean()
        assert mean == pytest.approx(8.0, rel=0.25)

    def test_rejects_mean_below_one(self, nell_df):
        with pytest.raises(ValueError):
            with_rule_groups(with_triple_ids(nell_df), mean_group=0.5, seed=1)

    def test_edges_undirected_canonical_and_distinct(self, nell_df):
        g = with_rule_groups(with_triple_ids(nell_df), mean_group=8.0, seed=2)
        e = coupling_edges(g).toPandas()
        assert (e["src"] < e["dst"]).all()
        assert len(e) == len(e.drop_duplicates())

    def test_same_subject_predicate_triples_coupled(self, spark):
        pdf = pd.DataFrame(
            {
                "subject": [1, 1, 2],
                "predicate": [7, 7, 8],
                "object": [10, 11, 12],
                "label": [1, 1, 0],
            }
        )
        g = with_rule_groups(with_triple_ids(spark.createDataFrame(pdf)), mean_group=1000.0, seed=3)
        ids = g.toPandas().sort_values(["subject", "object"])
        e = coupling_edges(g).toPandas()
        t0, t1 = ids[ids["subject"] == 1]["tid"].tolist()
        assert ((e["src"] == min(t0, t1)) & (e["dst"] == max(t0, t1))).any()


class TestComponents:
    def test_union_find(self):
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        comp = _components(4, edges)
        assert comp[0] == comp[1] == comp[2]
        assert comp[3] != comp[0]


class TestKGEvalEvaluate:
    @pytest.fixture(scope="class")
    def nell_coupled(self, nell_df):
        return build_coupling(nell_df, mean_group=8.0, seed=3)

    def test_full_coverage_and_reasonable_estimate(self, nell_coupled):
        triples, edges = nell_coupled
        r = kgeval_evaluate(triples, edges, seed=3)
        assert r.coverage == pytest.approx(1.0)
        gold = triples["label"].mean()
        assert abs(r.mu_hat - gold) < 0.05

    def test_annotation_count_near_table6(self, nell_coupled):
        """Calibration target: ~140 annotations on NELL (Table 6)."""
        triples, edges = nell_coupled
        r = kgeval_evaluate(triples, edges, seed=4)
        assert 80 <= r.n_annotated <= 220

    def test_costs_scattered_per_annotation(self, nell_coupled):
        triples, edges = nell_coupled
        r = kgeval_evaluate(triples, edges, seed=5)
        assert r.annotation_hours == pytest.approx(r.n_annotated * 70 / 3600)

    def test_perfect_fidelity_on_tiny_graph(self):
        triples = pd.DataFrame({"tid": [0, 1, 2], "label": [1, 1, 1]})
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        r = kgeval_evaluate(triples, edges, seed=6, fidelity=1.0)
        assert r.mu_hat == 1.0
        assert r.n_annotated == 1  # one control triple covers the component

    @pytest.mark.parametrize(
        "labels,mu_hat",
        [
            # Controls 2, 4, 6 keep 1; the other four flip to 0.
            ([1, 1, 1, 1, 1, 1, 1], 3 / 7),
            # Controls keep 0 and every other 1 flips: all 0. A wrong
            # control (e.g. tid 5 on the tied pair) would leave a 1.
            ([1, 1, 0, 1, 0, 1, 0], 0.0),
            # Inferred: 0, 1, 1, 0 | 0, 0 | 0.
            ([1, 0, 1, 1, 0, 1, 0], 2 / 7),
        ],
        ids=["all_right", "controls_wrong", "mixed"],
    )
    def test_zero_fidelity_mechanism_on_three_components(self, labels, mu_hat):
        """A star {0,1,2,3} around tid 2, a pair {4,5}, a singleton {6}.

        With fidelity 0 each control triple (highest degree, ties to the
        lowest tid) keeps its true label and every other triple is flipped.
        """
        triples = pd.DataFrame({"tid": range(7), "label": labels})
        edges = pd.DataFrame({"src": [0, 1, 2, 4], "dst": [2, 2, 3, 5]})
        r = kgeval_evaluate(triples, edges, seed=7, fidelity=0.0)
        assert r.n_annotated == 3
        assert r.coverage == 1.0
        assert r.mu_hat == pytest.approx(mu_hat)

    def test_machine_time_measured(self, nell_coupled):
        triples, edges = nell_coupled
        r = kgeval_evaluate(triples, edges, seed=8)
        assert r.machine_seconds > 0

    def test_yago_annotation_count(self, spark):
        """~204 annotations on YAGO (Table 6) with mean_group=6."""
        triples, edges = build_coupling(yago_like().to_spark(spark), mean_group=6.0, seed=9)
        r = kgeval_evaluate(triples, edges, seed=9)
        assert 140 <= r.n_annotated <= 280
