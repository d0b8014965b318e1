"""Keeps patch indexes consistent under inserts, modifies, and deletes.

Each statement writes the table first: an insert appends its rows to the
last partition's chunks, so the handlers read them like any other rows;
the insert handlers take the inserted values from the statement itself.
The handlers never recompute an index and never materialize the full
table. The uniqueness constraint is maintained by a semijoin of the table
with the touched values, pruned in two steps per chunk of rows: the
touched values inside the chunk's zone, its least and greatest value
(the dynamic-range-propagation trick), are tested against the chunk's
membership filter, and the values that pass against the filters of the
chunk's sub-blocks of at most 256 rows; only the sub-blocks where one
passes are read. The summaries exist only for the probed column: its
first probe builds them, and the storage keeps them up to date from then
on, so the NSC table and the NUC key column pay for none.
``ColumnTable.probe`` makes two compiled calls per partition, a plan of
the sub-blocks to read and the read itself, and returns the rowIDs and
values of the rows holding a touched value and the rows it read, the
statement's ``rows_scanned``. Every returned row whose value occurs at
least twice becomes a patch. That equals patching both sides of every
match of a touched row with another row: no summary ever rules out a
value its rows hold (the storage keeps every live row's value in its
chunk's and its sub-block's filters, and a delete moves the sub-block
bounds with the rows), so all rows holding a touched value lie in read
sub-blocks, and the touched rows are in the table themselves. The
sortedness constraint extends its sorted run for inserts and simply
patches modified rows. Deletes drop the tracking state
for the deleted rowIDs. The maintained patch set may grow beyond the
minimal one, but the non-patch rows always satisfy the constraint.
"""

import time
from dataclasses import dataclass

import numpy as np

from .column_store import sort_unique
from .patch_index import (NULL_VALUE, ConstraintKind, SortOrder, lss_keep,
                          nuc_patch_rows)


@dataclass
class UpdateStats:
    """One index's share of an update statement, with per-phase time.

    rows_scanned is the rows the duplicate probe read, and blocks_scanned
    the same in blocks, ceil(rows_scanned / block size), so that over
    blocks_total it is the share of the table read. storage_ms is the
    statement's table write (insert, modify, or delete); the first
    index's stats carry it, so summing over a statement's stats counts it
    once. probe_ms is the duplicate semijoin, maintain_ms the rest of the
    index's maintenance.
    """

    blocks_scanned: int = 0
    blocks_total: int = 0
    new_patches: int = 0
    storage_ms: float = 0.0
    probe_ms: float = 0.0
    maintain_ms: float = 0.0
    rows_scanned: int = 0

    def merge(self, other):
        return UpdateStats(self.blocks_scanned + other.blocks_scanned,
                           max(self.blocks_total, other.blocks_total),
                           self.new_patches + other.new_patches,
                           self.storage_ms + other.storage_ms,
                           self.probe_ms + other.probe_ms,
                           self.maintain_ms + other.maintain_ms,
                           self.rows_scanned + other.rows_scanned)


def _ms_since(t0):
    return (time.perf_counter_ns() - t0) / 1e6


def _duplicate_join(table, column, probe_ids, probe_values):
    """Patch every row that shares a touched value with another row.

    The touched rows must already hold probe_values in the table. Returns
    (patch rowIDs, stats); NULL probe rows are patches too.
    """
    t0 = time.perf_counter_ns()
    nulls = probe_ids[probe_values == NULL_VALUE]
    live = probe_values != NULL_VALUE
    stats = UpdateStats(blocks_total=table.total_blocks(),
                        new_patches=len(nulls))
    if not live.any():
        stats.probe_ms = _ms_since(t0)
        return nulls, stats
    values = probe_values[live]

    stats.rows_scanned, rowids, matched = table.probe(column, values)
    stats.blocks_scanned = -(-stats.rows_scanned // table.block_size)
    # the probe returns only rows holding a touched value, none of them NULL
    patches = sort_unique(np.concatenate((rowids[nuc_patch_rows(matched)],
                                          nulls)))
    stats.new_patches = len(patches)
    stats.probe_ms = _ms_since(t0)
    return patches, stats


def handle_insert_nuc(table, index, inserted_ids, values):
    """Grow the index and patch every duplicate the insert introduced.

    The rows must already be appended to the table, holding values, the
    statement's values of the indexed column; the probe side covers the
    full table including them, so duplicates inside the batch are found
    too.
    """
    inserted_ids = np.asarray(inserted_ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    index.grow_last(len(inserted_ids))
    patches, stats = _duplicate_join(table, index.column, inserted_ids, values)
    index.add_patches(patches)
    return stats


def handle_insert_nsc(table, index, inserted_ids, values):
    """Extend the sorted run with eligible inserted values; patch the rest.

    values are the statement's values of the indexed column. Only values
    on the growing side of the run's tail can extend it; the longest
    sorted subsequence of those is kept and everything else joins the
    patches. The combined run may no longer be globally optimal.
    """
    inserted_ids = np.asarray(inserted_ids, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    index.grow_last(len(inserted_ids))

    pidx = index.partitions[-1]  # inserts append to the last partition
    lsv = pidx.last_sorted_value
    ascending = index.constraint.order is SortOrder.ASCENDING

    eligible = values != NULL_VALUE
    if lsv is not None:
        eligible &= (values >= lsv) if ascending else (values <= lsv)
    keep = np.zeros(len(values), dtype=bool)
    if eligible.any():
        keep[eligible] = lss_keep(values[eligible], index.constraint.order)
        pidx.last_sorted_value = int(values[np.flatnonzero(keep)[-1]])

    patches = inserted_ids[~keep]
    index.add_patches(patches)
    return UpdateStats(blocks_total=table.total_blocks(),
                       new_patches=len(patches))


def handle_modify_nuc(table, index, modified_ids, routed):
    """Re-evaluate modified rows: clear their patch bits, then re-join.

    Partner rows of the formerly duplicated values keep their patch bits
    (an accepted loss of optimality); the join re-patches everything the
    new values collide with, on both sides. routed is the rowIDs' routing
    that ``ColumnTable.modify_rows`` returned.
    """
    modified_ids = np.asarray(modified_ids, dtype=np.int64)
    values = np.empty(len(modified_ids), dtype=np.int64)
    for p, sel, local in routed:
        index.partitions[p].remove_patches(local)
        values[sel] = table.partitions[p].take(index.column, local)
    patches, stats = _duplicate_join(table, index.column, modified_ids, values)
    index.add_patches(patches)
    return stats


def handle_modify_nsc(table, index, modified_ids, routed):
    """All modified rows become patches; fix the tail value if it moved.
    routed is as for ``handle_modify_nuc``."""
    new_patches = 0
    for p, _, local in routed:
        pidx = index.partitions[p]
        tail = pidx.last_non_patch()
        before = pidx.patch_count
        pidx.add_patches(local)
        new_patches += pidx.patch_count - before
        if tail is not None and tail in local:
            _recompute_tail(table, index, p)
    return UpdateStats(blocks_total=table.total_blocks(),
                       new_patches=new_patches)


def handle_delete(table, index, routed):
    """Drop tracking state for deleted rows; rowIDs renumber densely.

    Call after the table rows were removed; routed is what
    ``ColumnTable.delete_rows`` returned, each partition's deleted rows,
    descending. Values that became unique stay patched (superset of
    optimal), so only the sorted-run tail may need fixing.
    """
    nsc = index.constraint.kind is ConstraintKind.NEARLY_SORTED
    for p, local in routed:
        pidx = index.partitions[p]
        tail_dropped = False
        if nsc:
            tail = pidx.last_non_patch()
            tail_dropped = tail is None or tail in local
        pidx.drop_rows(local)
        if nsc and tail_dropped:
            _recompute_tail(table, index, p)
    return UpdateStats(blocks_total=table.total_blocks())


def _recompute_tail(table, index, p):
    """Backward scan for the last non-patch row of a partition."""
    pidx = index.partitions[p]
    tail = pidx.last_non_patch()
    pidx.last_sorted_value = (
        None if tail is None
        else int(table.partitions[p].take(index.column, np.array([tail]))[0]))


_INSERT_HANDLERS = {ConstraintKind.NEARLY_UNIQUE: handle_insert_nuc,
                    ConstraintKind.NEARLY_SORTED: handle_insert_nsc}
_MODIFY_HANDLERS = {ConstraintKind.NEARLY_UNIQUE: handle_modify_nuc,
                    ConstraintKind.NEARLY_SORTED: handle_modify_nsc}
_DELETE_HANDLERS = dict.fromkeys(ConstraintKind, handle_delete)


# -- statement-level entry points: one call per update statement --------------

def _maintain(indexes, handle):
    """Run handle(index) for each index, timing its maintenance apart from
    the probe."""
    stats = []
    for ix in indexes:
        t0 = time.perf_counter_ns()
        s = handle(ix)
        s.maintain_ms = _ms_since(t0) - s.probe_ms
        stats.append(s)
    return stats


def _charge_storage(stats, storage_ms):
    if stats:
        stats[0].storage_ms = storage_ms
    return stats


def apply_insert(table, indexes, rows):
    t0 = time.perf_counter_ns()
    ids = table.insert_rows(rows)
    storage_ms = _ms_since(t0)
    stats = _maintain(indexes, lambda ix: _INSERT_HANDLERS[ix.constraint.kind](
        table, ix, ids, rows[ix.column]))
    return ids, _charge_storage(stats, storage_ms)


def apply_modify(table, indexes, rowids, updates):
    """Modify table rows, then re-evaluate them in each index over the
    updated column, by one routing of the rowIDs over the partitions."""
    t0 = time.perf_counter_ns()
    routed = table.modify_rows(rowids, updates)
    storage_ms = _ms_since(t0)
    stats = _maintain([ix for ix in indexes if ix.column in updates],
                      lambda ix: _MODIFY_HANDLERS[ix.constraint.kind](
                          table, ix, rowids, routed))
    return _charge_storage(stats, storage_ms)


def apply_delete(table, indexes, descending_ids):
    """Delete rows from the table, then from each index, by one routing of
    the rowIDs over the partitions."""
    t0 = time.perf_counter_ns()
    routed = table.delete_rows(descending_ids)
    storage_ms = _ms_since(t0)
    stats = _maintain(indexes, lambda ix: _DELETE_HANDLERS[ix.constraint.kind](
        table, ix, routed))
    return _charge_storage(stats, storage_ms)
