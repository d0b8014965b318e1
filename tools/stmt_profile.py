"""Per-phase cost of the update statements, the statement counterpart of
``plan_profile.py``.

Builds perfbench's tables (a NUC and an NSC fact table of 10^6 rows in 4
partitions at e=0.2, with perfbench's generator settings and statement
stream) and, in one process, runs 10-row and 1000-row inserts, modifies
and deletes on both tables through ``apply_insert``, ``apply_modify`` and
``apply_delete``, round-robin: 3 untimed rounds, then ROUNDS timed ones.
Every statement kind and size gets a stream of its own, so the row counts
stay level within each size.

Prints, per statement kind and size, the median in ms of each phase:

- ``stmt``: the whole ``apply_*`` call;
- ``route``: splitting rowIDs over partitions (``route_rows``, for the
  table and the index);
- ``table``: the table write (``UpdateStats.storage_ms``), and ``part``
  its partition calls (``Partition.append``, ``modify_rows`` and
  ``delete_rows``);
- ``zones``: the share of ``part`` spent refreshing zone maps
  (``Partition.refresh_zones``). Only probed columns have them, the NUC
  table's value column here, so an NSC statement's ``zones`` reads 0. A
  compiled delete refreshes them inside its own kernel, so a delete's
  ``zones`` holds only what its chunk condense refreshes. A modify widens
  the touched blocks' zone maps by the new values
  (``Partition._widen_zones``) and re-scans only the blocks whose min or
  max it overwrote; both count here;
- ``condense``: the share of ``part`` spent on the chunk bookkeeping
  after a write (``Partition._condense``, which merges neighbouring
  chunks that fit one, and ``Partition._recount``); a merge's zone
  refresh counts here and in ``zones``;
- ``maint`` and ``probe``: index maintenance and the duplicate probe
  (``UpdateStats.maintain_ms`` and ``probe_ms``);
- ``blocks``: the blocks the probe read (``UpdateStats.blocks_scanned``),
  a count, not ms;
- ``drop``: the index partitions' row drops (``PatchIndex.drop_rows``),
  and ``bitmap`` their bitmap deletes (``ShardedBitmap.bulk_delete``).

A phase the statement never enters reads 0. Freed memory stays in the
process heap, as in ``plan_profile.py``.

Usage: PYTHONPATH=src python tools/stmt_profile.py
"""

import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "tools")]

from patchindex import column_store, patch_index  # noqa: E402
from patchindex.column_store import Partition  # noqa: E402
from patchindex.sharded_bitmap import ShardedBitmap  # noqa: E402
from perfbench.workloads import (STATEMENTS, Scale, StatementStream,  # noqa: E402
                                 Tables, generate_tables, run_statement)
from plan_profile import keep_freed_memory  # noqa: E402

RATE, SIZES, WARM, ROUNDS, SEED = 0.2, (10, 1000), 3, 60, 1
PHASES = ("stmt", "route", "table", "part", "zones", "condense", "maint",
          "probe", "drop", "bitmap")
# the phases read from UpdateStats, summed over a statement's indexes
STATS_FIELDS = {"table": "storage_ms", "maint": "maintain_ms", "probe": "probe_ms"}
# the printed columns: every phase in ms, with the probe's block count
COLUMNS = PHASES[:8] + ("blocks",) + PHASES[8:]

_spent = dict.fromkeys(PHASES, 0)


def _timed(phase, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            _spent[phase] += time.perf_counter_ns() - t0
    return wrapper


def _timed_generator(phase, fn):
    """Like _timed for a generator function: times each step it takes."""
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            t0 = time.perf_counter_ns()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                _spent[phase] += time.perf_counter_ns() - t0
            yield item
    return wrapper


def instrument():
    """Wrap the calls whose time the phases report."""
    route = _timed_generator("route", column_store.route_rows)
    column_store.route_rows = patch_index.route_rows = route
    for name in ("append", "modify_rows", "delete_rows"):
        setattr(Partition, name, _timed("part", getattr(Partition, name)))
    for name in ("refresh_zones", "_widen_zones"):
        setattr(Partition, name, _timed("zones", getattr(Partition, name)))
    for name in ("_condense", "_recount"):
        setattr(Partition, name, _timed("condense", getattr(Partition, name)))
    patch_index.PatchIndex.drop_rows = _timed(
        "drop", patch_index.PatchIndex.drop_rows)
    ShardedBitmap.bulk_delete = _timed("bitmap", ShardedBitmap.bulk_delete)


def main():
    if not keep_freed_memory():
        print("mallopt unavailable: page faults may dominate the times")
    scale = Scale()
    tables, dim = generate_tables(scale, RATE, SEED)
    indexes = {name: patch_index.build_index(
        [p.columns["value"] for p in t.partitions],
        patch_index.NUC if name == "nuc" else patch_index.NSC_ASC)
        for name, t in tables.items()}
    state = Tables(tables["nuc"], tables["nsc"], indexes["nuc"],
                   indexes["nsc"], dim)
    instrument()
    streams = {n: StatementStream(SEED, scale, RATE, n) for n in SIZES}
    samples = {(kind, n): {col: [] for col in COLUMNS}
               for n in SIZES for kind in STATEMENTS}
    for r in range(WARM + ROUNDS):
        for n in SIZES:
            for kind in STATEMENTS:
                st = streams[n].next(kind)
                for ph in PHASES:
                    _spent[ph] = 0
                t0 = time.perf_counter_ns()
                stats = run_statement(state, st)
                _spent["stmt"] = time.perf_counter_ns() - t0
                for ph, field in STATS_FIELDS.items():
                    _spent[ph] = sum(getattr(s, field) for s in stats) * 1e6
                if r >= WARM:
                    for ph in PHASES:
                        samples[kind, n][ph].append(_spent[ph])
                    samples[kind, n]["blocks"].append(
                        sum(s.blocks_scanned for s in stats))
    print(f"median ms of {ROUNDS} statements each, {scale.rows} rows, "
          f"{scale.partitions} partitions, e={RATE}")
    print("\n".join(format_table(samples)))


def format_table(samples):
    """The header and one line per statement kind and size: the median of
    each column's samples, ms for the phases (sampled in ns) and a count
    for ``blocks``."""
    lines = [f"{'statement':<16}" + "".join(f"{col:>9}" for col in COLUMNS)]
    for (kind, n), cols in samples.items():
        lines.append(f"{kind + ' x' + str(n):<16}" + "".join(
            f"{statistics.median(cols[col]):9.0f}" if col == "blocks"
            else f"{statistics.median(cols[col]) / 1e6:9.3f}" for col in COLUMNS))
    return lines


if __name__ == "__main__":
    main()
