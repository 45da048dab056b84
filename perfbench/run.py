"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload spark_eval --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from that
checkout's ``src/``. Human-readable lines (every metric with its unit
and sample count, the environment, the output fingerprint) go to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs the untraced rounds, then one
more round with every layer wrapped (``spark_eval`` adds one KGEval
evaluation), and reports the per-layer metrics and the tracing
overhead. Details go to ``.perfbench_out/`` in the checkout:
a result file per run and the spans as JSON lines.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Spark settings, pinned so that a seed draws the same sample on every
# run: F.rand(seed) is seeded per partition, and the partition count of
# a DataFrame built from pandas follows the core count. Shuffle
# partitions, Arrow and broadcast threshold are the test session's.
SPARK_CORES = min(4, len(os.sched_getaffinity(0)))
SPARK_DRIVER_MEM = "3g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}

E2E = ["setup_s", "hot_op_s", "bypass_op_s"]  # all in seconds

# Per-layer metrics, the same set for every workload; a layer the
# workload does not call reports 0. Counts have unit "count".
LAYERS = ["kg", "cluster_stats", "framework", "cluster_sampling", "annotate", "stats",
          "stratification", "mc", "evolving", "kgeval"]


def per_layer_names() -> dict[str, str]:
    from workloads import MC_DESIGNS

    names = {
        "kg.generate_s": "s", "kg.to_spark_s": "s", "kg.triples": "count", "kg.clusters": "count",
        "cluster_stats.aggregate_s": "s", "cluster_stats.population_s": "s",
        "framework.eval_s_p50.srs": "s", "framework.eval_s_p50.twcs": "s",
        "framework.first_batch_s_p50.srs": "s", "framework.first_batch_s_p50.twcs": "s",
        "framework.batches_per_eval.srs": "count", "framework.batches_per_eval.twcs": "count",
        "framework.moe0_stop_share": "share",
        "cluster_sampling.draws_s_p50": "s", "cluster_sampling.second_stage_s_p50": "s",
        "cluster_sampling.calls": "count",
        "annotate.collect_s_p50.tasks": "s", "annotate.collect_s_p50.triples": "s",
        "annotate.tasks": "count", "annotate.triples": "count", "annotate.entities": "count",
        "annotation_h": "h",
        "stats.estimate_calls": "count", "stats.estimate_s": "s",
        "stratification.assign_s": "s",
        "mc.trials_per_s": "1/s",
        "evolving.rs_initialise_s": "s", "evolving.ss_initialise_s": "s",
        "evolving.rs_update_s_p90": "s", "evolving.ss_update_s_p90": "s",
        "evolving.rs_insertions": "count", "evolving.rs_hours": "h", "evolving.ss_hours": "h",
        "kgeval.build_s": "s", "kgeval.loop_s": "s", "kgeval.machine_s": "s",
        "kgeval.edges": "count", "kgeval.annotated": "count",
    }
    for kg, designs in MC_DESIGNS.items():
        for d in designs:
            names[f"mc.ms_per_trial.{kg}.{d}"] = "ms"
            names[f"mc.batches_per_trial.{kg}.{d}"] = "count"
            names[f"mc.bias.{kg}.{d}"] = "share"
    for layer in LAYERS:
        names[f"self_s.{layer}"] = "s"
    names["trace.overhead"] = "share"
    return names


ESTIMATORS = ["stats.estimate_srs", "stats.estimate_cluster_means", "stats.estimate_rcs",
              "stats.combine_stratified"]


def wrap_layers(tr) -> None:
    """Wrap each layer's public functions where their callers look them
    up: ``sim.mc``, ``evolving`` and ``core.framework`` import the
    estimators by name, so the name in the caller's module is wrapped."""
    import repro.core.cluster_sampling as cs
    import repro.core.framework as fw
    import repro.evolving.reservoir as res
    import repro.evolving.stratified_inc as si
    import repro.sim.mc as mc
    from repro.annotate.annotator import SimulatedAnnotator

    tr.wrap(cs, "weighted_cluster_draws", "cluster_sampling.weighted_cluster_draws")
    tr.wrap(cs, "second_stage_sample", "cluster_sampling.second_stage_sample")
    tr.wrap(SimulatedAnnotator, "annotate_tasks", "annotate.annotate_tasks")
    tr.wrap(SimulatedAnnotator, "annotate_triples", "annotate.annotate_triples")
    for owner, attr in [(cs, "estimate_cluster_means"), (cs, "estimate_rcs"),
                        (fw, "estimate_srs"),
                        (mc, "estimate_srs"), (mc, "estimate_cluster_means"),
                        (mc, "estimate_rcs"), (mc, "combine_stratified"),
                        (res, "estimate_cluster_means"),
                        (si, "estimate_cluster_means"), (si, "combine_stratified")]:
        tr.wrap(owner, attr, f"stats.{attr}")


def traced_layers(tr, since: int) -> dict[str, float]:
    from tracing import p50

    out = {
        "cluster_sampling.draws_s_p50": p50(
            tr.durations("cluster_sampling.weighted_cluster_draws", since)),
        "cluster_sampling.second_stage_s_p50": p50(
            tr.durations("cluster_sampling.second_stage_sample", since)),
        "cluster_sampling.calls": tr.count("cluster_sampling.weighted_cluster_draws", since)
        + tr.count("cluster_sampling.second_stage_sample", since),
        "annotate.collect_s_p50.tasks": p50(tr.durations("annotate.annotate_tasks", since)),
        "annotate.collect_s_p50.triples": p50(tr.durations("annotate.annotate_triples", since)),
        "stats.estimate_calls": sum(tr.count(n, since) for n in ESTIMATORS),
        "stats.estimate_s": sum(tr.total(n, since) for n in ESTIMATORS),
    }
    return out


class Context:
    def __init__(self, args, tracer, tmp: Path):
        self.seed, self.seconds, self.tracer, self.tmp = args.seed, args.seconds, tracer, tmp
        self.clock = time.perf_counter
        self._spark = None

    def spark(self):
        if self._spark is None:
            self._spark = start_spark(self.tmp)
        return self._spark

    def stop_spark(self) -> None:
        """Stop the session and wait for its JVM to exit."""
        if self._spark is None:
            return
        from pyspark import SparkContext

        proc = getattr(SparkContext._gateway, "proc", None)
        spark, self._spark = self._spark, None
        try:
            spark.stop()
        finally:
            if proc is not None:
                proc.stdin.close()  # the JVM exits when its stdin closes
                proc.wait(timeout=60)


def start_spark(tmp: Path):
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{SPARK_CORES}] --driver-memory {SPARK_DRIVER_MEM} "
        f"--driver-java-options -Djava.io.tmpdir={tmp} "
        f"--conf spark.local.dir={tmp} --conf spark.sql.warehouse.dir={tmp}/warehouse "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false pyspark-shell"
    )
    from pyspark.sql import SparkSession

    b = SparkSession.builder.appName("perfbench")
    for k, v in SPARK_CONF.items():
        b = b.config(k, v)
    s = b.getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    return s


def environment(ctx, wl) -> dict:
    import numpy
    import pyspark

    sha = "none"  # a checkout without git, or one nested in another repository
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except OSError:
        pass
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    env = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "spark": pyspark.__version__, "git_sha": sha, "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
    }
    if wl.uses_spark:
        sc = ctx.spark().sparkContext
        env.update(master=sc.master, cores=sc.defaultParallelism,
                   driver_memory=sc.getConf().get("spark.driver.memory"), **SPARK_CONF)
    return env


def fingerprint(outputs: list) -> str:
    return hashlib.sha256(json.dumps(outputs, default=repr).encode()).hexdigest()[:16]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind through the finally below: it stops the JVM and
    # removes the temporary directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)  # pyspark's launcher and Python temp files
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    ctx = None
    try:
        sys.path.insert(0, str(SRC))
        import repro

        if SRC not in Path(repro.__file__).resolve().parents:
            print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2

        from tracing import Tracer
        from workloads import WORKLOADS, Recorder

        if args.workload not in WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
                  file=sys.stderr)
            return 2
        wl = WORKLOADS[args.workload]
        tr = Tracer()
        ctx = Context(args, tr, tmp)
        return run(args, wl, ctx, tr, Recorder)
    finally:
        try:
            if ctx is not None:
                ctx.stop_spark()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def run(args, wl, ctx, tr, Recorder) -> int:
    from tracing import p50

    if wl.uses_spark:
        with tr.span("spark.session"):
            ctx.spark()
    # setup_s is the Spark session start plus the median set-up. A
    # workload whose set-up is cheap repeats it before every round, so
    # the median spans the whole run rather than one moment of it.
    # Interpreter and import start-up are not counted: they are mostly
    # file-cache noise.
    setup_durations: list[float] = []
    last_setup = (0, 0)

    def set_up():
        nonlocal last_setup
        lo = tr.mark()
        with tr.span("setup") as sid:
            inp = wl.setup(ctx)
        setup_durations.append(tr.spans[sid][3] - tr.spans[sid][2])
        last_setup = (lo, tr.mark())
        return inp

    inputs = set_up()

    attempted = failed = 0
    errors: list[str] = []
    outputs: list[list] = []  # per round: what the fingerprint covers
    walls: list[float] = []

    def one_round(rec) -> None:
        nonlocal attempted, failed
        start = tr.mark()
        with tr.span("measure"):
            wl.measure(ctx, inputs, rec)
        walls.append(tr.spans[start][3] - tr.spans[start][2])
        attempted += rec.attempted
        failed += rec.failed
        errors.extend(rec.errors)
        outputs.append(rec.outputs)

    windows = []  # (first, end) span indices of each round
    for _ in range(wl.rounds):
        for _ in range(wl.setups_per_round):
            inputs = set_up()
        lo = tr.mark()
        one_round(Recorder())
        windows.append((lo, tr.mark()))
    e2e, layers, report = wl.summary(tr, windows, inputs)
    setup_s = p50(tr.durations("spark.session")) + p50(setup_durations)
    e2e["setup_s"] = setup_s

    extra_fp = None  # fingerprint of a traced run's extra operations
    if args.trace:
        mark_t = tr.mark()
        wrap_layers(tr)
        try:
            one_round(Recorder())
        finally:
            tr.unwrap_all()
        _, layers, report = wl.summary(tr, [(mark_t, tr.mark())], inputs)
        layers.update(traced_layers(tr, mark_t))
        for span, metric in [("kg.generate", "kg.generate_s"), ("kg.to_spark", "kg.to_spark_s"),
                             ("cluster_stats.aggregate", "cluster_stats.aggregate_s"),
                             ("cluster_stats.population", "cluster_stats.population_s"),
                             ("stratification.assign", "stratification.assign_s")]:
            layers[metric] = p50(tr.durations(span, 0, mark_t))
        own = tr.self_time_by_layer(*last_setup)
        for layer, sec in tr.self_time_by_layer(mark_t).items():
            own[layer] = own.get(layer, 0.0) + sec
        for layer in LAYERS:
            layers[f"self_s.{layer}"] = own.get(layer, 0.0)
        layers["trace.overhead"] = walls[-1] / min(walls[:-1]) - 1.0
        if hasattr(wl, "traced_extra"):
            rec = Recorder()
            more_layers, more_report = wl.traced_extra(ctx, rec)
            layers.update(more_layers)
            report += more_report
            attempted += rec.attempted
            failed += rec.failed
            errors.extend(rec.errors)
            extra_fp = fingerprint(rec.outputs)
        metrics = {n: {"value": float(layers.get(n, 0.0)), "unit": u}
                   for n, u in per_layer_names().items()}
    else:
        metrics = {n: {"value": float(e2e[n]), "unit": "s"} for n in E2E}

    # Every round ran the same seeds on the same inputs, so the outputs
    # must agree; a difference is a failed check.
    fps = [fingerprint(o) for o in outputs]
    if len(set(fps)) > 1:
        failed += 1
        errors.append(f"same seed, different outputs across rounds: {fps}")

    env = environment(ctx, wl)
    # Release the cached DataFrames while the JVM is up: collected after
    # it has exited, their handles fail to detach and py4j logs errors.
    inputs = None
    gc.collect()
    ctx.stop_spark()

    print(f"# perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# setup_s {setup_s:.4f} s n={len(setup_durations)}")
    for name, value, unit, n in report:
        print(f"# {name} {value:.6g} {unit} n={n}")
    print(f"# ops attempted={attempted} failed={failed}")
    for e in errors:
        print(f"# FAILED {e}")
    print(f"# fingerprint {fps[0]} rounds={len(fps)}")
    if extra_fp:
        print(f"# fingerprint.traced_extra {extra_fp}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        **result, "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "env": env, "fingerprint": fps[0], "round_fingerprints": fps,
        "traced_extra_fingerprint": extra_fp, "errors": errors,
        "report": [{"name": n, "value": v, "unit": u, "n": k} for n, v, u, k in report],
        "e2e": e2e,
    }, indent=1))
    tr.dump(OUT / f"{stem}.spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
