"""Closed-loop benchmark of the patchindex library, one workload per run.

Run from the repository root, one workload per call; all three with

    for w in read-lowe write-small mixed-bulk; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30 --trace 0
    done

The workloads and metrics are declared in BENCHMARK.json at the root; the
design (why each workload, which end-to-end metric each per-layer metric
should move, and on which workload) is in perfbench/design.json.

A run generates its inputs from --seed, writes them as PDX1 files, loads
them and builds both indexes several times (set-up), warms up, and then
runs one closed-loop client for --seconds. With --trace 0 it reports the
end-to-end metrics. With --trace 1 it runs untraced for the first half of
--seconds and traced for the second half, writes the spans to
perfbench_out/, and reports the per-layer metrics. Human-readable lines go
first; the last line of standard output is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench_out"
NAIVE_SAMPLES = 3


def import_library():
    """Import patchindex from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import patchindex
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import patchindex from {src}: {exc}")
    if Path(patchindex.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: patchindex was imported from "
                         f"{patchindex.__file__}, not from {src}")


def declared_metrics():
    """(end_to_end, per_layer) name -> unit maps from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def fingerprint(workload, seed, trace):
    from patchindex import sharded_bitmap
    try:
        from patchindex import _kernels
        backend = "numba" if _kernels.HAVE_NUMBA else "python"
    except ImportError:
        backend = "unknown"
    import numpy
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             text=True, capture_output=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rev = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "patchindex").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {"kernel_backend": backend, "numpy": numpy.__version__,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "threads": sharded_bitmap.default_threads(),
            "git_rev": rev or None, "src_sha256": digest.hexdigest()[:16],
            "workload": workload, "seed": seed, "trace": trace}


def bitmap_health(tables):
    """(max lost bits, min utilization) over every partition bitmap.

    The bitmap is internal to the bitmap patch store; a store without one
    counts as (0, 1.0).
    """
    bitmaps = [getattr(p.store, "_bits", None)
               for ix in (tables.nuc_index, tables.nsc_index)
               for p in ix.partitions]
    bitmaps = [b for b in bitmaps if b is not None]
    return (max((b.lost_bits for b in bitmaps), default=0),
            min((b.utilization() for b in bitmaps), default=1.0))


def drift(tables):
    """Maintained patches over the patches of a fresh (minimal) discovery."""
    from patchindex import patch_index
    maintained = minimal = 0
    for name, constraint in (("nuc", patch_index.NUC), ("nsc", patch_index.NSC_ASC)):
        table = tables.table(name)
        fresh = patch_index.build_index(
            [p.columns["value"] for p in table.partitions], constraint)
        maintained += tables.index(name).patch_count
        minimal += fresh.patch_count
    return maintained / minimal if minimal else 1.0


def naive_runs(client):
    """NAIVE_SAMPLES runs of each query's naive plan, timed and checked like
    the PatchIndex plan: the reference for the rewrite gain."""
    from patchindex.query_engine import execute
    from workloads import QUERIES, OpRecord, query_plans
    records = []
    for q in QUERIES:
        for _ in range(NAIVE_SAMPLES):
            plan, _ = query_plans(client.tables, q)
            t0 = time.perf_counter_ns()
            rel = execute(plan)
            rec = OpRecord(f"naive_{q}", (time.perf_counter_ns() - t0) / 1e6, True)
            error = client.shadow.check_query(q, rel)
            records.append(client.fail(rec, error) if error else rec)
    return records


def set_up_tables(generated, dim, tracer):
    """Write the generated tables as PDX1 files, then set up SETUP_REPEATS
    times; returns (seconds per set-up, the last set-up's Tables)."""
    import workloads as wl
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        paths = {name: tmp / f"{name}.pdx" for name in generated}
        for name, table in generated.items():
            table.save(paths[name])
        times, tables = [], None
        for r in range(wl.SETUP_REPEATS):
            tables = None  # free the previous repeat's tables first
            if tracer:
                tracer.begin(f"setup{r}")
            seconds, tables = wl.set_up(paths, dim)
            if tracer:
                tracer.end()
            times.append(seconds)
        return times, tables
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def traced_phase(client, tracer, seconds, span_file):
    """Untraced first half, traced second half; returns (per-layer metric
    values, op records of both halves, naive-plan records, info lines)."""
    import spans
    import workloads as wl
    untraced = client.run(seconds / 2)
    tracer.install()
    client.tracer = tracer
    records = client.run(seconds / 2)
    client.tracer = None
    tracer.uninstall()
    naive = naive_runs(client)
    lost, util = bitmap_health(client.tables)
    extra = {"lost_bits.max": lost, "utilization.min": util,
             "drift": drift(client.tables),
             "naive_ms": {q: statistics.median(r.ms for r in naive
                                               if r.kind == f"naive_{q}")
                          for q in wl.QUERIES},
             "trace_overhead": wl.ops_per_s(untraced) / (wl.ops_per_s(records) or 1)}
    values = spans.per_layer(tracer, records, extra)
    tracer.write(span_file, {"ops": [r.kind for r in records]})
    info = spans.attribution(tracer, records)
    info.append(f"# {len(tracer.spans)} spans of {len(records)} traced ops "
                f"written to {span_file.relative_to(ROOT)}")
    if tracer.missing:
        info.append(f"# not traced (absent): {', '.join(tracer.missing)}")
    return values, untraced + records, naive, info


def run(workload_name, seed, seconds, trace, scale=None, corrupt=None):
    """One benchmark run; returns (metrics, attempted, failed, info lines).

    metrics maps name -> (value, sample count, note).
    """
    import workloads as wl
    from oracle import Shadow

    scale = scale or wl.Scale()
    workload = wl.WORKLOADS[workload_name]
    generated, dim = wl.generate_tables(scale, workload.exception_rate, seed)
    shadow = Shadow(generated, dim)
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        setup_times, tables = set_up_tables(generated, dim, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    del generated

    client = wl.Client(workload, tables, shadow,
                       wl.StatementStream(seed, scale, workload.exception_rate,
                                          workload.stmt_rows),
                       corrupt=corrupt)
    errors = shadow.check_state(tables)  # what was loaded is what was generated
    warm = client.warm_up()
    if trace:
        OUT.mkdir(exist_ok=True)
        values, records, extra_ops, info = traced_phase(
            client, tracer, seconds, OUT / f"spans-{workload_name}-seed{seed}.jsonl")
        metrics = {k: (v, len(records), "") for k, v in values.items()}
    else:
        records, extra_ops, info = client.run(seconds), [], []
        metrics = wl.end_to_end(records, setup_times, tables)
    errors += shadow.check_state(tables)
    ops = warm + records + extra_ops
    attempted = len(ops) + 2  # plus the two whole-state checks
    failed = sum(not r.ok for r in ops) + (1 if errors else 0)
    info.append(f"# {len(records)} ops timed in {seconds:g} s after "
                f"{len(warm)} warm-up ops; e nuc "
                f"{tables.nuc_index.exception_rate:.4f} nsc "
                f"{tables.nsc_index.exception_rate:.4f}")
    for line in (client.failures + errors)[:20]:
        info.append(f"# FAILED {line}")
    info.append(f"failed_ratio {failed / attempted:.6g} ratio n={attempted}")
    return metrics, attempted, failed, info


def main(argv=None, scale=None, corrupt=None):
    """Parse arguments, run, print the readable lines and the JSON result."""
    import workloads as wl
    from patchindex.sharded_bitmap import set_default_threads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    set_default_threads(len(os.sched_getaffinity(0)))
    print("# env " + json.dumps(fingerprint(args.workload, args.seed, args.trace)))
    metrics, attempted, failed, info = run(args.workload, args.seed, args.seconds,
                                           args.trace, scale, corrupt)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))}"
                         " differ from BENCHMARK.json")
    for line in info:
        print(line)
    for name, (value, n, note) in metrics.items():
        print(f"{name} {value:.6g} {units[name]} n={n}"
              + (f" ({note})" if note else ""))
    # allow_nan=False: a NaN metric fails the run instead of printing bad JSON
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _, _) in metrics.items()}},
        allow_nan=False))
    return 0


if __name__ == "__main__":
    import_library()
    sys.exit(main())
