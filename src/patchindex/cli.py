"""Command-line harness: dataset generation, indexing, queries, benchmarks.

Exit codes: 0 success, 1 result-verification failure, 2 usage error. A
usage error (bad arguments, a table file that cannot be read, an unknown
or non-int64 column, a declined rewrite) prints one line to stderr.
"""

import argparse
import sys
import time

import numpy as np

from . import _native
from . import bench as bench_mod
from .bench import (SHARD_SWEEP_SIZES, UPDATE_GRANULARITIES, VerificationError,
                    WorkloadReport, bench_query, bench_query_suite,
                    bench_shard_sweep, bench_update, build_query_plans,
                    query_suite_specs, shard_overhead_pct, write_csv)
from .column_store import ColumnTable
from .datagen import GenSpec, dimension_table, generate_to_file
from .patch_index import NSC_ASC, NSC_DESC, NUC, build_index
from .query_engine import execute, explain, zero_branch_prune


_CONSTRAINTS = {"nuc": NUC, "nsc": NSC_ASC, "nsc:asc": NSC_ASC,
                "nsc:desc": NSC_DESC}


def _constraint(text):
    if text not in _CONSTRAINTS:
        raise argparse.ArgumentTypeError(
            f"unknown constraint {text!r}; use {', '.join(_CONSTRAINTS)}")
    return _CONSTRAINTS[text]


class UsageError(Exception):
    """A user error: reported in one line on stderr, exit code 2."""


def _load_table(path, column):
    """The table at path, checked to hold column as an int64 column."""
    try:
        table = ColumnTable.load(path)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read table {path}: {exc}") from None
    dtypes = dict(table.schema)
    if column not in dtypes:
        raise UsageError(f"unknown column {column!r}; {path} has "
                         f"{', '.join(table.column_names)}")
    if np.dtype(dtypes[column]) != np.int64:
        raise UsageError(f"column {column!r} is not an int64 column")
    return table


def _dataset(make, *args, **kwargs):
    """make(*args, **kwargs), which builds dataset specs: a ValueError of
    their own argument checks becomes a usage error."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_updates(op, row_count, count, granularities):
    """Reject a workload the update replay cannot run: a modify or delete
    touches count distinct rows of the table."""
    limit = row_count if op in ("modify", "delete") else float("inf")
    if not 0 <= count <= limit:
        raise UsageError(f"{op} --count {count} is outside [0, {limit}] "
                         f"on a {row_count}-row table")
    if min(granularities) < 1:
        raise UsageError("a statement granularity must be at least 1")


def _build(table, column, constraint, store):
    return build_index([p.columns[column] for p in table.partitions],
                       constraint, column=column, store=store)


def make_parser():
    p = argparse.ArgumentParser(
        prog="patchindex",
        description="Approximate-constraint indexing over a mini columnar store")
    sub = p.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset file")
    g.add_argument("--kind", choices=["nuc", "nsc"], required=True)
    g.add_argument("--rows", type=int, required=True)
    g.add_argument("--exception-rate", type=float, default=0.0)
    g.add_argument("--dup-domain", type=int, default=100_000)
    g.add_argument("--partitions", type=int, default=4)
    g.add_argument("--value-domain", type=int, default=None)
    g.add_argument("--pad-bytes", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    i = sub.add_parser("index", help="build an index and report statistics")
    i.add_argument("action", choices=["stats"])
    i.add_argument("--table", required=True)
    i.add_argument("--column", default="value")
    i.add_argument("--constraint", type=_constraint, default=NUC,
                   help="nuc, nsc, nsc:asc or nsc:desc")
    i.add_argument("--store", choices=["bitmap", "identifiers"], default="bitmap")

    q = sub.add_parser("query", help="run a query with an optional rewrite")
    q.add_argument("query", choices=["distinct", "sort", "join"])
    q.add_argument("--table", required=True)
    q.add_argument("--column", default="value")
    q.add_argument("--plan", choices=["naive", "patchindex", "patchindex-zbp"],
                   default="patchindex")
    q.add_argument("--store", choices=["bitmap", "identifiers"], default="bitmap")
    q.add_argument("--dim-rows", type=int, default=10_000)
    q.add_argument("--verify", action="store_true",
                   help="compare the result against the naive plan")
    q.add_argument("--explain", action="store_true",
                   help="print the operator tree instead of executing")
    q.add_argument("--csv-out", default=None)

    u = sub.add_parser("update", help="replay an update workload")
    u.add_argument("op", choices=["insert", "modify", "delete"])
    u.add_argument("--table", required=True)
    u.add_argument("--column", default="value")
    u.add_argument("--constraint", type=_constraint, default=NUC)
    u.add_argument("--store", choices=["bitmap", "identifiers"], default="bitmap")
    u.add_argument("--count", type=int, default=1000)
    u.add_argument("--granularity", type=int, default=100)
    u.add_argument("--seed", type=int, default=1)
    u.add_argument("--csv-out", default=None)

    b = sub.add_parser("bench", help="benchmark suites emitting CSV")
    bsub = b.add_subparsers(dest="bench_kind", required=True)

    bs = bsub.add_parser("shard-sweep", help="bulk delete over shard sizes")
    bs.add_argument("--bits", type=int, default=10**7)
    bs.add_argument("--deletes", type=int, default=10**5)
    bs.add_argument("--seed", type=int, default=0)
    bs.add_argument("--threads", type=int, default=None)
    bs.add_argument("--csv-out", default=None)

    bq = bsub.add_parser("query", help="query runtimes over exception rates")
    bq.add_argument("--rows", type=int, default=10**6)
    bq.add_argument("--rates", type=float, nargs="+",
                    default=[0.0, 0.01, 0.2, 0.5, 0.99])
    bq.add_argument("--queries", nargs="+", default=["distinct", "sort", "join"],
                    choices=["distinct", "sort", "join"])
    bq.add_argument("--dim-rows", type=int, default=10**4)
    bq.add_argument("--partitions", type=int, default=4)
    bq.add_argument("--seed", type=int, default=0)
    bq.add_argument("--csv-out", default=None)

    bu = bsub.add_parser("update", help="update runtimes over granularities")
    bu.add_argument("--kind", choices=["nuc", "nsc"], default="nuc")
    bu.add_argument("--rows", type=int, default=10**6)
    bu.add_argument("--exception-rate", type=float, default=0.5)
    bu.add_argument("--op", choices=["insert", "modify", "delete"],
                    default="insert")
    bu.add_argument("--count", type=int, default=1000)
    bu.add_argument("--granularities", type=int, nargs="+",
                    default=list(UPDATE_GRANULARITIES))
    bu.add_argument("--partitions", type=int, default=4)
    bu.add_argument("--seed", type=int, default=1)
    bu.add_argument("--csv-out", default=None)
    return p


def _emit(reports, csv_out):
    for r in reports:
        print(r.csv_row())
    if csv_out:
        write_csv(reports, csv_out)
        print(f"wrote {len(reports)} rows to {csv_out}", file=sys.stderr)


def cmd_generate(args):
    spec = _dataset(GenSpec, args.kind, args.rows, args.exception_rate,
                    dup_domain=args.dup_domain, partitions=args.partitions,
                    seed=args.seed, value_domain=args.value_domain,
                    pad_bytes=args.pad_bytes)
    t0 = time.perf_counter()
    table = generate_to_file(spec, args.out)
    print(f"generated {table.row_count} rows "
          f"({len(table.partitions)} partitions) to {args.out} "
          f"in {time.perf_counter() - t0:.2f}s")
    return 0


def cmd_index(args):
    table = _load_table(args.table, args.column)
    index = _build(table, args.column, args.constraint, args.store)
    for k, v in index.stats().items():
        print(f"{k}: {v}")
    print(f"kernel_backend: {_native.BACKEND}")
    return 0


def cmd_query(args):
    dim = (_dataset(dimension_table, args.dim_rows) if args.query == "join"
           else None)
    table = _load_table(args.table, args.column)
    kind = NUC if args.query == "distinct" else NSC_ASC
    index = _build(table, args.column, kind, args.store)
    naive, rewritten = build_query_plans(args.query, table, index, dim)
    plan = naive if args.plan == "naive" else rewritten
    if plan is None:
        raise UsageError(f"{args.plan}: rewrite declined")
    if args.plan == "patchindex-zbp":
        plan = zero_branch_prune(plan)
    if args.explain:
        print(explain(plan))
        return 0
    t0 = time.perf_counter_ns()
    rel = execute(plan)
    dt = time.perf_counter_ns() - t0
    print(f"{args.query} [{args.plan}]: {rel.nrows} rows in {dt/1e6:.1f} ms "
          f"(e={index.exception_rate:.4f}, patches={index.patch_count})")
    if args.verify:
        if not bench_mod._results_match(args.query, index.column, rel,
                                        execute(naive)):
            print("verification FAILED: result differs from naive plan",
                  file=sys.stderr)
            return 1
        print("verification ok")
    if args.csv_out:
        _emit([WorkloadReport(f"query_{args.query}", "", args.plan, dt,
                              rows=rel.nrows, patches=index.patch_count,
                              memory_bytes=index.memory_bytes())], args.csv_out)
    return 0


def cmd_update(args):
    table = _load_table(args.table, args.column)
    _check_updates(args.op, table.row_count, args.count, [args.granularity])
    index = _build(table, args.column, args.constraint, args.store)
    prepared = bench_mod._prepared_updates(args.op, table.row_count, args.count,
                                           args.seed, key_start=table.row_count)
    dt, stats = bench_mod.run_update_workload(table, [index], args.op, prepared,
                                              args.granularity)
    print(f"{args.op} x{args.count} at granularity {args.granularity}: "
          f"{dt/1e6:.1f} ms total, e={index.exception_rate:.4f}, "
          f"rows_scanned={stats.rows_scanned}, "
          f"blocks_scanned={stats.blocks_scanned}, "
          f"filter_fill={table.filter_fill():.3f}, "
          f"filter_bytes_per_row={table.filter_bytes() / max(table.row_count, 1):.2f}")
    print(f"phases: storage {stats.storage_ms:.1f} ms, "
          f"probe {stats.probe_ms:.1f} ms, maintain {stats.maintain_ms:.1f} ms")
    if args.csv_out:
        _emit([WorkloadReport(f"update_{args.op}", args.granularity, args.store,
                              dt, rows=table.row_count,
                              patches=index.patch_count,
                              memory_bytes=index.memory_bytes(),
                              blocks_scanned=stats.blocks_scanned)], args.csv_out)
    return 0


def cmd_bench(args):
    if args.bench_kind == "shard-sweep":
        if not 0 <= args.deletes <= args.bits:
            raise UsageError(f"--deletes must lie in [0, --bits]; "
                             f"{args.deletes} is not in [0, {args.bits}]")
        reports = bench_shard_sweep(args.bits, args.deletes,
                                    seed=args.seed, threads=args.threads)
        for size in SHARD_SWEEP_SIZES:
            print(f"# shard 2^{size.bit_length() - 1}: "
                  f"overhead {shard_overhead_pct(size)}%", file=sys.stderr)
    elif args.bench_kind == "query":
        suite = dict(rows=args.rows, rates=tuple(args.rates), seed=args.seed,
                     queries=tuple(args.queries), dim_rows=args.dim_rows,
                     partitions=args.partitions)
        _dataset(query_suite_specs, **suite)  # every table's, before the first
        reports = bench_query_suite(**suite)
    else:
        spec = _dataset(GenSpec, args.kind, args.rows, args.exception_rate,
                        partitions=args.partitions, seed=args.seed)
        _check_updates(args.op, args.rows, args.count, args.granularities)
        reports, _ = bench_update(spec, args.op, count=args.count,
                                  granularities=tuple(args.granularities),
                                  seed=args.seed)
    _emit(reports, args.csv_out)
    return 0


_COMMANDS = {"generate": cmd_generate, "index": cmd_index, "query": cmd_query,
             "update": cmd_update, "bench": cmd_bench}


def main(argv=None):
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except VerificationError as exc:
        print(f"verification FAILED: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
