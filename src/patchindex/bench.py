"""Benchmark runners and CSV reporting.

Every benchmark that executes a rewritten plan verifies result equality
against the naive plan before reporting a time; timing never includes
dataset generation, loading, or index construction.
"""

import statistics
import time
from dataclasses import dataclass

import numpy as np

from .datagen import GenSpec, dimension_table, generate
from .patch_index import NSC_ASC, NUC, build_index
from .query_engine import (distinct_node, execute, hash_join_node,
                           result_checksum, rewrite_distinct, rewrite_join,
                           rewrite_sort, scan_node, sort_node,
                           zero_branch_prune)
from .sharded_bitmap import ShardedBitmap, default_threads, shift_numpy
from .update_pipeline import (UpdateStats, apply_delete, apply_insert,
                              apply_modify)

CSV_HEADER = "experiment,param,variant,runtime_ns,rows,patches,memory_bytes,blocks_scanned"

SHARD_SWEEP_SIZES = tuple(1 << p for p in range(8, 20))
QUERY_REPEATS = 5  # timed runs per plan, after one untimed warm-up run
SHARD_SWEEP_REPEATS = 5  # timed deletes per (size, variant), each on a fresh bitmap
UPDATE_GRANULARITIES = (5, 10, 50, 100, 500, 1000)


class VerificationError(Exception):
    """A rewritten plan produced a result differing from the naive plan."""


@dataclass
class WorkloadReport:
    experiment: str
    param: object
    variant: str
    runtime_ns: int
    rows: int = 0
    patches: int = 0
    memory_bytes: int = 0
    blocks_scanned: int = 0

    def csv_row(self):
        return (f"{self.experiment},{self.param},{self.variant},"
                f"{self.runtime_ns},{self.rows},{self.patches},"
                f"{self.memory_bytes},{self.blocks_scanned}")


def write_csv(reports, path):
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for r in reports:
            f.write(r.csv_row() + "\n")


def shard_overhead_pct(shard_size_bits):
    """Metadata overhead of sharding: one 64-bit start value per shard."""
    return round(64 / shard_size_bits * 100, 2)


class PlainBitVector:
    """Ordinary bitmap where a delete shifts the whole tail of memory.

    The shift is the numpy lane shift (the sharded structure's reference
    shift) over the full tail. The sharded single delete it is compared
    with runs the compiled kernel when available, so a latency ratio
    measures sharding together with the kernel and call overhead.
    """

    def __init__(self, nbits):
        self.logical_len = nbits
        self.words = np.zeros((nbits + 63) >> 6, dtype=np.uint64)

    def set(self, pos):
        self.words[pos >> 6] |= np.uint64(1) << np.uint64(pos & 63)

    def get(self, pos):
        return int(self.words[pos >> 6] >> np.uint64(pos & 63)) & 1

    def delete(self, pos):
        shift_numpy(self.words, 0, (self.logical_len + 63) >> 6, pos)
        self.logical_len -= 1


# -- sharded bitmap benchmarks ---------------------------------------------------

def bench_shard_sweep(bits=10**7, deletes=10**5, shard_sizes=SHARD_SWEEP_SIZES,
                      seed=0, threads=None):
    """Bulk-delete runtime over a range of shard sizes, two variants.

    Each (size, variant) deletes the same positions from a fresh bitmap
    SHARD_SWEEP_REPEATS times; the report carries the median. The repeats
    run round-robin over every (size, variant), so a slow phase of the
    machine lands on all of them alike rather than on one size.

    The "parallel_lanes" variant asks for the given threads, but
    ``bulk_delete`` hands work to its pool only when the positions touch
    64 or more shards. At 10^7 bits the 2^18 and 2^19 sizes have 39 and 20
    shards, so those rows run on one thread whatever threads says; the
    label names the variant asked for, not the threads used.
    """
    rng = np.random.default_rng(seed)
    positions = np.sort(rng.choice(bits, size=deletes, replace=False))[::-1]
    nthreads = threads if threads is not None else default_threads()
    variants = (("scalar", "scalar", 1), ("parallel_lanes", "lanes", nthreads))
    cases = [(size, v) for size in shard_sizes for v in variants]
    times, memory = {}, {}
    for _ in range(SHARD_SWEEP_REPEATS):
        for size, (variant, impl, nt) in cases:
            bm = ShardedBitmap(bits, size, shift_impl=impl)
            t0 = time.perf_counter_ns()
            bm.bulk_delete(positions, threads=nt)
            times.setdefault((size, variant), []).append(
                time.perf_counter_ns() - t0)
            memory[size, variant] = bm.memory_bytes()
    return [WorkloadReport("shard_sweep", size, variant,
                           int(statistics.median(times[size, variant])),
                           rows=bits, patches=deletes,
                           memory_bytes=memory[size, variant])
            for size, (variant, _, _) in cases]


def bench_delete_latency(bits=10**7, singles=1000, bulk_deletes=10**5,
                         shard_size=1 << 14, seed=0, runs=5):
    """Median per-element delete latency: naive vs sharded vs bulk."""
    rng = np.random.default_rng(seed)
    naive_ns, single_ns, bulk_ns = [], [], []
    for _ in range(runs):
        pos = np.sort(rng.choice(bits - singles, size=singles,
                                 replace=False))[::-1]
        naive = PlainBitVector(bits)
        t0 = time.perf_counter_ns()
        for p in pos:
            naive.delete(int(p))
        naive_ns.append((time.perf_counter_ns() - t0) / singles)

        sharded = ShardedBitmap(bits, shard_size)
        t0 = time.perf_counter_ns()
        for p in pos:
            sharded.delete(int(p))
        single_ns.append((time.perf_counter_ns() - t0) / singles)

        bulk_pos = np.sort(rng.choice(bits, size=bulk_deletes,
                                      replace=False))[::-1]
        bulk = ShardedBitmap(bits, shard_size)
        t0 = time.perf_counter_ns()
        bulk.bulk_delete(bulk_pos)
        bulk_ns.append((time.perf_counter_ns() - t0) / bulk_deletes)

    med = statistics.median
    result = {"naive_ns": med(naive_ns), "single_ns": med(single_ns),
              "bulk_ns": med(bulk_ns)}
    reports = [
        WorkloadReport("delete_latency", bits, "naive_full_shift",
                       int(result["naive_ns"]), rows=bits),
        WorkloadReport("delete_latency", bits, "sharded_single",
                       int(result["single_ns"]), rows=bits),
        WorkloadReport("delete_latency", bits, "sharded_bulk",
                       int(result["bulk_ns"]), rows=bits),
    ]
    return result, reports


# -- query benchmarks --------------------------------------------------------------

def build_query_plans(query, table, index, dim=None):
    """(naive, rewritten) plan pair for one of the three query shapes."""
    if query == "distinct":
        naive = distinct_node(scan_node(table, [index.column]), index.column)
        rewritten = rewrite_distinct(naive, index)
    elif query == "sort":
        naive = sort_node(scan_node(table, [index.column]), index.column,
                          index.constraint.order)
        rewritten = rewrite_sort(naive, index)
    elif query == "join":
        naive = hash_join_node(scan_node(table, [index.column]),
                               scan_node(dim, ["value", "payload"]),
                               index.column, "value")
        rewritten = rewrite_join(naive, index)
    else:
        raise ValueError(f"unknown query {query!r}")
    return naive, rewritten


def _results_match(query, key, rel, baseline):
    """distinct: set equality; join: multiset; sort: ordered key sequence
    plus row multiset (tie order is not part of the contract)."""
    if query == "sort" and not np.array_equal(rel.columns[key],
                                              baseline.columns[key]):
        return False
    return result_checksum(rel) == result_checksum(baseline)


def bench_query(table, query, index, dim=None, plans=("naive", "patchindex"),
                param=""):
    """Time the requested plan variants; always verify against naive.

    Each plan runs once untimed (the naive run doubles as the baseline,
    the others are verified against it), then QUERY_REPEATS times timed;
    the report carries the median. The timed runs go round-robin over the
    plans, so a slow phase of the machine, or a gain from running later,
    lands on every plan alike.
    """
    naive, rewritten = build_query_plans(query, table, index, dim)
    baseline = execute(naive)

    selected = {"naive": naive}
    if "patchindex" in plans:
        if rewritten is None:
            raise VerificationError(f"{query}: rewrite declined")
        selected["patchindex"] = rewritten
    if "patchindex-zbp" in plans:
        if rewritten is None:
            raise VerificationError(f"{query}: rewrite declined")
        selected["patchindex-zbp"] = zero_branch_prune(rewritten)

    rows = {}
    for name in plans:
        rel = baseline if name == "naive" else execute(selected[name])
        if not _results_match(query, index.column, rel, baseline):
            raise VerificationError(
                f"{query}/{name}: result mismatch against naive plan")
        rows[name] = rel.nrows
    times = {name: [] for name in plans}
    for _ in range(QUERY_REPEATS):
        for name in plans:
            t0 = time.perf_counter_ns()
            execute(selected[name])
            times[name].append(time.perf_counter_ns() - t0)
    return [WorkloadReport(f"query_{query}", param, name,
                           int(statistics.median(times[name])),
                           rows=rows[name], patches=index.patch_count,
                           memory_bytes=index.memory_bytes())
            for name in plans]


def query_suite_specs(rows, rates, seed, queries, dim_rows, partitions):
    """(query, dataset spec) of each table of the query suite, in order.
    Building a spec checks it: a bad argument raises GenSpec's ValueError."""
    return [(query, GenSpec("nuc" if query == "distinct" else "nsc", rows, e,
                            seed=seed, partitions=partitions,
                            value_domain=dim_rows if query == "join" else None))
            for query in queries for e in rates]


def bench_query_suite(rows=10**6, rates=(0.0, 0.01, 0.2, 0.5, 0.99), seed=0,
                      queries=("distinct", "sort", "join"), dim_rows=10**4,
                      partitions=4):
    """Each query shape timed over a range of exception rates; every
    table's spec is built before the first table."""
    reports = []
    for query, spec in query_suite_specs(rows, rates, seed, queries, dim_rows,
                                         partitions):
        table = generate(spec)
        constraint = NUC if spec.kind == "nuc" else NSC_ASC
        index = build_index([p.columns["value"] for p in table.partitions],
                            constraint)
        dim = dimension_table(dim_rows) if query == "join" else None
        plans = ["naive", "patchindex"]
        if index.patch_count == 0:
            plans.append("patchindex-zbp")
        reports.extend(bench_query(table, query, index, dim=dim,
                                   plans=tuple(plans),
                                   param=spec.exception_rate))
    return reports


# -- update benchmarks ----------------------------------------------------------------

def _prepared_updates(op, row_count, count, seed, key_start):
    """Deterministic update workload, splittable at any granularity.
    Inserts draw their values from [0, row_count), or from [0, count)
    into an empty table."""
    rng = np.random.default_rng(seed)
    if op == "insert":
        return {"values": rng.integers(0, row_count or count, size=count),
                "keys": key_start + np.arange(count)}
    if op == "modify":
        return {"ids": rng.choice(row_count, size=count, replace=False),
                "values": rng.integers(0, row_count, size=count)}
    if op == "delete":
        # applied in descending order, each row is still in place when its
        # statement runs, whatever the batch split
        ids = rng.choice(row_count, size=count, replace=False)
        return {"ids": np.sort(ids)[::-1]}
    raise ValueError(f"unknown update op {op!r}")


def run_update_workload(table, indexes, op, prepared, granularity):
    """Apply `count` row updates in statements of `granularity` rows.

    Returns (elapsed ns, the statements' UpdateStats merged into one).
    """
    count = len(prepared["values" if op != "delete" else "ids"])
    t0 = time.perf_counter_ns()
    total = UpdateStats()
    for lo in range(0, count, granularity):
        hi = min(lo + granularity, count)
        if op == "insert":
            _, stats = apply_insert(table, indexes, {
                "key": prepared["keys"][lo:hi],
                "value": prepared["values"][lo:hi]})
        elif op == "modify":
            stats = apply_modify(table, indexes, prepared["ids"][lo:hi],
                                 {"value": prepared["values"][lo:hi]})
        else:
            stats = apply_delete(table, indexes, prepared["ids"][lo:hi])
        for s in stats:
            total = total.merge(s)
    return time.perf_counter_ns() - t0, total


def state_checksum(table, index=None):
    import hashlib
    h = hashlib.blake2b(digest_size=16)
    _, cols = table.scan(["value"])
    h.update(cols["value"].tobytes())
    if index is not None:
        h.update(np.ascontiguousarray(index.global_patch_rows()).tobytes())
    return h.hexdigest()


def bench_update(spec, op, count=1000, granularities=UPDATE_GRANULARITIES,
                 variants=("none", "bitmap", "identifiers"), constraint=None,
                 seed=1):
    """Total update runtime per granularity for each index variant.

    Returns (reports, checksums); checksums map (variant, granularity) to
    the final table+index state for granularity-invariance checks.
    """
    constraint = constraint or (NUC if spec.kind == "nuc" else NSC_ASC)
    reports, checksums = [], {}
    for variant in variants:
        for g in granularities:
            table = generate(spec)
            prepared = _prepared_updates(op, table.row_count, count, seed,
                                         key_start=table.row_count)
            if variant == "none":
                indexes = []
                index = None
            else:
                index = build_index(
                    [p.columns["value"] for p in table.partitions],
                    constraint, store=variant)
                indexes = [index]
            dt, stats = run_update_workload(table, indexes, op, prepared, g)
            checksums[(variant, g)] = state_checksum(table, index)
            reports.append(WorkloadReport(
                f"update_{op}", g, variant, dt, rows=table.row_count,
                patches=index.patch_count if index else 0,
                memory_bytes=index.memory_bytes() if index else 0,
                blocks_scanned=stats.blocks_scanned))
    return reports, checksums
