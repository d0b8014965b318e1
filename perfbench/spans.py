"""Run-time tracing of the library's layers, and the per-layer metrics.

The tracer replaces public functions and methods of each module with
wrappers for the duration of the traced phase; no source file is edited.
A span is [name, start_ns, end_ns, parent, op, count]: ``parent`` is the
index of the enclosing span on the same thread (-1 at top level), ``op``
the id of the benchmark operation it belongs to, and ``count`` a size the
wrapper reads from the call (bits deleted, rows scanned). Spans are kept in
memory and written out once, at the end of the run.
"""

import json
import statistics
import threading
import time

from patchindex import (column_store, patch_index, query_engine,
                        sharded_bitmap, update_pipeline)

from workloads import QUERIES, STATEMENTS

LAYERS = ("update_pipeline", "query_engine", "column_store", "patch_index",
          "sharded_bitmap")

# PatchIndex and TableIndex methods that maintain the patch set per statement
MAINTAIN = {f"patch_index.{m}" for m in
            ("add_patches", "remove_patches", "drop_rows", "grow", "grow_last")}


def _targets():
    """(owner, attribute, span name or name(args), count(args, result))."""
    bm, pi, ti = (sharded_bitmap.ShardedBitmap, patch_index.PatchIndex,
                  patch_index.TableIndex)
    table, executor = column_store.ColumnTable, query_engine.Executor
    out = [(bm, "bulk_delete", "sharded_bitmap.bulk_delete",
            lambda a, r: len(a[1]))]
    out += [(bm, m, f"sharded_bitmap.{m}", None)
            for m in ("to_bool_array", "set_many", "unset_many", "append")]
    out += [(patch_index, "build_index",
             lambda a: f"patch_index.build_index.{a[1].kind.value}", None),
            (pi, "patch_mask", "patch_index.patch_mask", None)]
    out += [(pi, m, f"patch_index.{m}", None)
            for m in ("add_patches", "remove_patches", "drop_rows", "grow")]
    out += [(ti, m, f"patch_index.{m}", None)
            for m in ("add_patches", "remove_patches", "drop_rows", "grow_last")]
    out += [(table, "scan", "column_store.scan", lambda a, r: len(r[0]))]
    out += [(table, m, f"column_store.{m}", None)
            for m in ("load", "scan_delta", "prune_blocks", "gather",
                      "insert_rows", "modify_rows", "merge_delta",
                      "delete_rows")]
    out += [(executor, "run", "query_engine.run", None),
            (executor, "_exec", lambda a: f"query_engine.{a[1].op}", None)]
    out += [(update_pipeline, f"apply_{op}", f"update_pipeline.{op}", None)
            for op in ("insert", "modify", "delete")]
    return out


class Tracer:
    """Records spans while enabled; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()  # NSC discovery traces from pool threads
        self._patched = []
        self._enabled = False
        self._op = None

    def begin(self, op):
        self._op = op
        self._enabled = True

    def end(self):
        self._enabled = False

    def install(self):
        for owner, attr, name, count in _targets():
            raw = vars(owner).get(attr)
            if raw is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            self._patched.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(raw, name, count))

    def uninstall(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def _wrap(self, raw, name, count):
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._enabled:
                return func(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span = [name(args) if callable(name) else name, 0, 0,
                    stack[-1] if stack else -1, tracer._op, 0]
            with tracer._lock:
                stack.append(len(tracer.spans))
                tracer.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return classmethod(wrapper) if is_classmethod else wrapper

    def write(self, path, header):
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, count in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start,
                                    "end_ns": end, "parent": parent,
                                    "op": op, "count": count}) + "\n")


# -- derivation --------------------------------------------------------------------

def self_times(spans):
    """Span duration minus the time of its direct children, in ns."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _mean_ms(durations):
    return statistics.fmean(durations) / 1e6 if durations else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def per_op(spans, records, values, select):
    """kind -> per-op sums of `values` (one per span, in ns) over the spans
    that `select(index, span)` accepts."""
    sums = [0] * len(records)
    for i, s in enumerate(spans):
        if isinstance(s[4], int) and select(i, s):
            sums[s[4]] += values[i]
    out = {}
    for op, rec in enumerate(records):
        out.setdefault(rec.kind, []).append(sums[op])
    return out


def per_layer(tracer, records, extra):
    """Every per-layer metric from the traced phase.

    ``records`` are the traced phase's ops (op id = position); ``extra``
    holds what is measured outside the spans: lost_bits.max,
    utilization.min, drift, naive_ms per query, trace_overhead.
    """
    spans = tracer.spans
    selftime = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    in_ops = [i for i, s in enumerate(spans) if isinstance(s[4], int)]

    def op_durations(name):
        return [dur[i] for i in in_ops if spans[i][0] == name]

    def setup_sums(select):
        sums = {}
        for i, s in enumerate(spans):
            if isinstance(s[4], str) and select(s[0]):
                sums[s[4]] = sums.get(s[4], 0) + dur[i]
        return [v / 1e9 for v in sums.values()]

    m = {}
    bd = [i for i in in_ops if spans[i][0] == "sharded_bitmap.bulk_delete"]
    bits = sum(spans[i][5] for i in bd)
    m["sharded_bitmap.bulk_delete.ns_per_bit"] = (
        sum(dur[i] for i in bd) / bits if bits else 0.0)
    m["sharded_bitmap.bulk_delete.calls"] = len(bd)
    m["sharded_bitmap.bulk_delete.bits"] = bits
    for meth in ("to_bool_array", "set_many", "unset_many", "append"):
        m[f"sharded_bitmap.{meth}.ms"] = _mean_ms(
            op_durations(f"sharded_bitmap.{meth}"))
    m["sharded_bitmap.lost_bits.max"] = extra["lost_bits.max"]
    m["sharded_bitmap.utilization.min"] = extra["utilization.min"]

    for kind in ("nuc", "nsc"):
        m[f"patch_index.build_index.{kind}_s"] = _median(
            setup_sums(lambda n: n == f"patch_index.build_index.{kind}"))
    m["patch_index.patch_mask.ms"] = _mean_ms(op_durations("patch_index.patch_mask"))
    maintain = per_op(spans, records, dur, lambda i, s: s[0] in MAINTAIN and (
        s[3] < 0 or spans[s[3]][0] not in MAINTAIN))
    m["patch_index.maintain.ms"] = _mean_ms(
        [x for k in STATEMENTS for x in maintain.get(k, [])])
    m["patch_index.drift"] = extra["drift"]

    m["column_store.load.s"] = _median(setup_sums(lambda n: n == "column_store.load"))
    scans = [i for i in in_ops if spans[i][0] == "column_store.scan"]
    m["column_store.scan.ms"] = _mean_ms([dur[i] for i in scans])
    m["column_store.scan.rows"] = (
        statistics.fmean(spans[i][5] for i in scans) if scans else 0.0)
    m["column_store.merge_delta.ms"] = _mean_ms(op_durations("column_store.merge_delta"))
    m["column_store.delete_rows.ms"] = _mean_ms(op_durations("column_store.delete_rows"))
    pruned = [r for r in records if r.ok and r.kind in ("nuc_insert", "nuc_modify")]
    total = sum(r.blocks_total for r in pruned)
    m["column_store.prune.kept_ratio"] = (
        sum(r.blocks_scanned for r in pruned) / total if total else 0.0)

    engine_self = per_op(spans, records, selftime,
                         lambda i, s: s[0].startswith("query_engine."))
    for q in QUERIES:
        m[f"query_engine.{q}.self_ms"] = _median(engine_self.get(q, [])) / 1e6
    m["query_engine.update_join.ms"] = _mean_ms(
        [dur[i] for i in in_ops if spans[i][0] == "query_engine.run"
         and _has_ancestor(spans, i, "update_pipeline.")])
    for q in QUERIES:
        m[f"query_engine.{q}.naive_ms"] = extra["naive_ms"][q]

    pipeline_self = per_op(spans, records, selftime,
                           lambda i, s: s[0].startswith("update_pipeline."))
    for kind in STATEMENTS:
        table, op = kind.split("_")
        m[f"update_pipeline.{op}.{table}.self_ms"] = (
            _median(pipeline_self.get(kind, [])) / 1e6)
    grown = [r for r in records if r.ok and r.kind.endswith(("_insert", "_modify"))]
    rows = sum(r.rows for r in grown)
    m["update_pipeline.new_patches_per_row"] = (
        sum(r.patch_delta for r in grown) / rows if rows else 0.0)
    m["trace_overhead"] = extra["trace_overhead"]
    return m


def _has_ancestor(spans, i, prefix):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0].startswith(prefix):
            return True
        p = spans[p][3]
    return False


def attribution(tracer, records):
    """Lines giving, per op kind, the median traced latency and the median
    per-op self time of each layer, plus the two spans the benchmark's
    predictions name (bulk_delete per delete, update_join per NUC write)."""
    spans = tracer.spans
    selftime = self_times(spans)
    dur = [s[2] - s[1] for s in spans]
    layer = {name: per_op(spans, records, selftime,
                          lambda i, s, name=name: s[0].startswith(name + "."))
             for name in LAYERS}
    bulk = per_op(spans, records, dur,
                  lambda i, s: s[0] == "sharded_bitmap.bulk_delete")
    join = per_op(spans, records, dur, lambda i, s: s[0] == "query_engine.run"
                  and _has_ancestor(spans, i, "update_pipeline."))
    lines = []
    for kind in QUERIES + STATEMENTS:
        lat = [r.ms for r in records if r.kind == kind and r.ms is not None]
        if not lat:
            continue
        parts = [f"{name} {_median(layer[name].get(kind, [])) / 1e6:.3f}"
                 for name in LAYERS]
        line = (f"# attribution {kind}: p50 {statistics.median(lat):.3f} ms"
                f" = self ms {', '.join(parts)}")
        if kind.endswith("_delete"):
            line += f"; bulk_delete {_median(bulk.get(kind, [])) / 1e6:.3f}"
        if kind in ("nuc_insert", "nuc_modify"):
            line += f"; update_join {_median(join.get(kind, [])) / 1e6:.3f}"
        lines.append(line)
    return lines
