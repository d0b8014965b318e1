"""Workloads, statement streams and the closed-loop client of the benchmark.

Every workload runs one client in a closed loop against the library API:
the next operation starts only after the previous one returned and was
checked. Two seeded tables of the same size are used:

* NUC: nearly unique ``value`` (exceptions are duplicates), queried with
  DISTINCT;
* NSC: nearly sorted ``value`` in ``[0, dim_rows)``, queried with ORDER BY
  and joined with a ``dim_rows``-row dimension table.

Queries always run the PatchIndex plan (the CLI default); updates always go
through ``apply_insert`` / ``apply_modify`` / ``apply_delete``. Only the
library call is timed. Every operation kind appears in every workload, so
each workload reports every end-to-end metric; the workloads differ in the
exception rate, the statement size and the query/statement mix.
"""

import itertools
import math
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

from patchindex import column_store, patch_index, update_pipeline
from patchindex.bench import build_query_plans
from patchindex.datagen import GenSpec, dimension_table, generate
from patchindex.query_engine import execute

QUERIES = ("distinct", "sort", "join")
STATEMENTS = tuple(f"{t}_{op}" for t in ("nuc", "nsc")
                   for op in ("insert", "modify", "delete"))

# Tail latency is the nearest-rank p90; each run prints how many samples lie
# beyond it. On a 2-CPU Xeon a 30-second run times 90 to 140 queries on
# write-small and more of every other kind, so about ten or more do. A fixed
# percentile keeps a faster program (more samples) from being judged at a
# higher percentile than its parent.
TAIL_PERCENTILE = 90

SETUP_REPEATS = 3


@dataclass(frozen=True)
class Scale:
    rows: int = 10**6
    dim_rows: int = 10**4
    partitions: int = 4
    dup_domain: int = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    exception_rate: float
    stmt_rows: int
    # one cycle of the closed loop: "q" runs the next query of QUERIES,
    # "s" the next statement of STATEMENTS (both round-robin)
    pattern: str


WORKLOADS = {w.name: w for w in (
    Workload("read-lowe", 0.01, 10, "qs"),
    Workload("write-small", 0.2, 10, "ssssssq"),
    Workload("mixed-bulk", 0.2, 1000, "qss"),
)}


def op_kinds(pattern):
    """Endless sequence of operation kinds for a workload pattern."""
    queries = itertools.cycle(QUERIES)
    statements = itertools.cycle(STATEMENTS)
    for c in itertools.cycle(pattern):
        yield next(queries) if c == "q" else next(statements)


# -- statement stream -----------------------------------------------------------

@dataclass
class Statement:
    kind: str                  # one of STATEMENTS
    ids: np.ndarray = None     # modify: ascending targets; delete: descending
    values: np.ndarray = None  # insert / modify: new values
    keys: np.ndarray = None    # insert: new keys

    @property
    def table(self):
        return self.kind.split("_")[0]

    @property
    def op(self):
        return self.kind.split("_")[1]

    @property
    def rows(self):
        return len(self.ids if self.ids is not None else self.values)


class StatementStream:
    """Update statements that keep both tables near exception rate e.

    NUC inserts and modifies write a fresh unique value with probability
    1 - e and otherwise a value from the generator's duplicate domain; NSC
    inserts extend the sorted run (the top of the value domain) with
    probability 1 - e. Inserts and deletes have the same size, so the row
    count stays level. NSC modifies take random values: the pipeline
    patches every modified NSC row, which raises NSC's e by about
    (1 - e) * modified rows / rows over a run (reported as drift).

    The stream has its own generator, so it depends only on the seed and
    the order of the statements, never on timing.
    """

    def __init__(self, seed, scale, exception_rate, stmt_rows):
        self._rng = np.random.default_rng([seed, 7])
        self._e = exception_rate
        self._n = stmt_rows
        self._rows = {"nuc": scale.rows, "nsc": scale.rows}
        self._next_key = dict(self._rows)
        k = GenSpec("nuc", scale.rows, exception_rate).exception_count
        # datagen spreads NUC exceptions over this many duplicated values
        self._dup_values = min(scale.dup_domain, max(1, k // 2))
        self._next_unique = scale.dup_domain + scale.rows - k
        self._nsc_top = scale.dim_rows - 1

    def next(self, kind):
        table, op = kind.split("_")
        rng, n = self._rng, self._n
        if op == "delete":
            ids = np.sort(rng.choice(self._rows[table], size=n,
                                     replace=False))[::-1]
            self._rows[table] -= n
            return Statement(kind, ids=ids)
        values = (self._nuc_values(n) if table == "nuc"
                  else self._nsc_values(n, op))
        if op == "insert":
            keys = self._next_key[table] + np.arange(n, dtype=np.int64)
            self._next_key[table] += n
            self._rows[table] += n
            return Statement(kind, values=values, keys=keys)
        ids = np.sort(rng.choice(self._rows[table], size=n, replace=False))
        return Statement(kind, ids=ids.astype(np.int64), values=values)

    def _nuc_values(self, n):
        dup = self._rng.random(n) < self._e
        values = self._rng.integers(0, self._dup_values, size=n)
        fresh = np.flatnonzero(~dup)
        values[fresh] = self._next_unique + np.arange(fresh.size)
        self._next_unique += fresh.size
        return values

    def _nsc_values(self, n, op):
        rng = self._rng
        if op == "modify":
            return rng.integers(0, self._nsc_top + 1, size=n)
        out_of_order = rng.random(n) < self._e
        return np.where(out_of_order, rng.integers(0, self._nsc_top, size=n),
                        self._nsc_top).astype(np.int64)


# -- tables ---------------------------------------------------------------------

def generate_tables(scale, exception_rate, seed):
    """The two fact tables (in memory) and the dimension table."""
    nuc = generate(GenSpec("nuc", scale.rows, exception_rate,
                           dup_domain=scale.dup_domain,
                           partitions=scale.partitions, seed=2 * seed))
    nsc = generate(GenSpec("nsc", scale.rows, exception_rate,
                           partitions=scale.partitions, seed=2 * seed + 1,
                           value_domain=scale.dim_rows))
    return {"nuc": nuc, "nsc": nsc}, dimension_table(scale.dim_rows)


@dataclass
class Tables:
    nuc: object
    nsc: object
    nuc_index: object
    nsc_index: object
    dim: object

    def table(self, name):
        return self.nuc if name == "nuc" else self.nsc

    def index(self, name):
        return self.nuc_index if name == "nuc" else self.nsc_index


def _values(table):
    return [p.columns["value"] for p in table.partitions]


def set_up(paths, dim):
    """Load both PDX1 files and build both indexes; returns (seconds, Tables)."""
    t0 = time.perf_counter()
    nuc = column_store.ColumnTable.load(paths["nuc"])
    nsc = column_store.ColumnTable.load(paths["nsc"])
    nuc_index = patch_index.build_index(_values(nuc), patch_index.NUC)
    nsc_index = patch_index.build_index(_values(nsc), patch_index.NSC_ASC)
    return time.perf_counter() - t0, Tables(nuc, nsc, nuc_index, nsc_index, dim)


def query_plans(tables, query):
    """(naive, PatchIndex) plans, built exactly as the CLI builds them."""
    name = "nuc" if query == "distinct" else "nsc"
    return build_query_plans(query, tables.table(name), tables.index(name),
                             tables.dim)


def run_query(tables, query):
    _, plan = query_plans(tables, query)
    if plan is None:
        raise RuntimeError(f"{query}: rewrite declined")
    return execute(plan)


def run_statement(tables, st):
    table, indexes = tables.table(st.table), [tables.index(st.table)]
    if st.op == "insert":
        _, stats = update_pipeline.apply_insert(
            table, indexes, {"key": st.keys, "value": st.values})
    elif st.op == "modify":
        stats = update_pipeline.apply_modify(table, indexes, st.ids,
                                             {"value": st.values})
    else:
        stats = update_pipeline.apply_delete(table, indexes, st.ids)
    return stats


# -- the client -------------------------------------------------------------------

@dataclass
class OpRecord:
    kind: str
    ms: float          # latency of the library call; None if it raised
    ok: bool
    rows: int = 0      # statement rows
    patch_delta: int = 0
    blocks_scanned: int = 0
    blocks_total: int = 0


class Client:
    """One closed-loop client: each op is timed, then checked untimed.

    ``tracer`` (optional) is enabled around the timed call only;
    ``corrupt`` (optional) alters query results before the check, so the
    self-test can prove that wrong results are counted.
    """

    def __init__(self, workload, tables, shadow, stream, corrupt=None):
        self.tables = tables
        self.shadow = shadow
        self.stream = stream
        self.corrupt = corrupt
        self.tracer = None
        self.failures = []
        self._kinds = op_kinds(workload.pattern)

    def step(self, op_id=-1):
        kind = next(self._kinds)
        if kind in QUERIES:
            return self._query(kind, op_id)
        return self._statement(self.stream.next(kind), op_id)

    def _timed(self, fn, arg, op_id):
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(op_id)
        t0 = time.perf_counter_ns()
        try:
            out = fn(self.tables, arg)
        except Exception as exc:  # a failing op is counted, the run goes on
            out, ms = exc, None
        else:
            ms = (time.perf_counter_ns() - t0) / 1e6
        if tracer is not None:
            tracer.end()
        return out, ms

    def _query(self, kind, op_id):
        rel, ms = self._timed(run_query, kind, op_id)
        if ms is None:
            return self.fail(OpRecord(kind, None, False), repr(rel))
        if self.corrupt is not None:
            rel = self.corrupt(kind, rel)
        error = self.shadow.check_query(kind, rel)
        if error:
            return self.fail(OpRecord(kind, ms, False), error)
        return OpRecord(kind, ms, True)

    def _statement(self, st, op_id):
        index = self.tables.index(st.table)
        before = index.patch_count
        stats, ms = self._timed(run_statement, st, op_id)
        self.shadow.apply(st)
        if ms is None:
            return self.fail(OpRecord(st.kind, None, False, st.rows), repr(stats))
        rec = OpRecord(st.kind, ms, True, st.rows, index.patch_count - before,
                       sum(s.blocks_scanned for s in stats),
                       sum(s.blocks_total for s in stats))
        error = self.shadow.check_counts(self.tables, st.table)
        return self.fail(rec, error) if error else rec

    def fail(self, rec, error):
        rec.ok = False
        self.failures.append(f"{rec.kind}: {error}")
        return rec

    def warm_up(self):
        """Run ops untimed until every op kind has run at least once."""
        seen, records = set(), []
        while len(seen) < len(QUERIES) + len(STATEMENTS):
            rec = self.step()
            seen.add(rec.kind)
            records.append(rec)
        return records

    def run(self, seconds):
        """Closed loop for `seconds` of wall time; returns the op records."""
        records = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            records.append(self.step(len(records)))
        return records


# -- end-to-end metrics ----------------------------------------------------------------

def tail(samples):
    """Nearest-rank TAIL_PERCENTILE and the number of samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def ops_per_s(records):
    timed = [r.ms for r in records if r.ms is not None]
    return len(timed) / (sum(timed) / 1e3) if timed else 0.0


def end_to_end(records, setup_times, tables):
    """name -> (value, sample count, note) for every end-to-end metric."""
    ok = [r for r in records if r.ok]
    samples = {k: [r.ms for r in ok if r.kind == k] for k in QUERIES + STATEMENTS}
    out = {}
    for kind in QUERIES + STATEMENTS:
        s = samples[kind]
        out[f"{kind}_ms.p50"] = (statistics.median(s) if s else 0.0, len(s), "")
    for name, kinds in (("query_ms.tail", QUERIES), ("stmt_ms.tail", STATEMENTS)):
        s = [x for k in kinds for x in samples[k]]
        value, beyond = tail(s) if s else (0.0, 0)
        out[name] = (value, len(s), f"p{TAIL_PERCENTILE}, {beyond} beyond")
    out["ops_per_s"] = (ops_per_s(records), len(records), "")
    out["setup_s"] = (statistics.median(setup_times), len(setup_times), "median")
    rows = tables.nuc.row_count + tables.nsc.row_count
    index_bytes = tables.nuc_index.memory_bytes() + tables.nsc_index.memory_bytes()
    out["index_bytes_per_row"] = (index_bytes / rows, 2, "both indexes")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = (peak_kb / 1024, 1, "")
    return out
