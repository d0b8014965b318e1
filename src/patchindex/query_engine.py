"""Operator trees, execution, and patch-aware plan rewriting.

Plans are built programmatically. A Scan node can split a table's rows by
patch membership (exclude_patches / use_patches, decided purely by rowID);
the rewrites clone the query subtree over both flows so the constraint can
be exploited on the patch-free flow: distinct drops its aggregation, sort
degrades to a merge of already-sorted partition streams, and a hash join
becomes one merge join per partition. A plan is a DAG: a node reachable
from two parents, such as the join rewrite's dimension subtree, is one
object and runs once per execution. Scans, projections, unions and joins
pass destinations: each states a bound on its rows, then writes them into
arrays its consumer owns, so a union hands each child its slice of the
output and a merge join's fact scan writes straight into the join's
slice. Scans write only the columns that their consumers read.
Zero-branch pruning removes subtrees that cannot produce rows.
"""

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from . import _native
from ._native import address, pointers
from .column_store import in_positions, sort_unique
from .patch_index import ConstraintKind, SortOrder


@dataclass
class Relation:
    columns: dict

    @property
    def nrows(self):
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def take(self, idx):
        return Relation({c: a[idx] for c, a in self.columns.items()})


@dataclass
class Rows:
    """A node's output before it is written: at most bound rows, of the
    columns and dtypes in dtypes. write(dest) writes the rows to the front
    of dest, a dict of some of those columns to arrays of their dtype and
    at least bound rows, and returns how many rows it wrote."""
    node: "PlanNode"
    bound: int
    dtypes: dict
    write: object


@dataclass
class PlanNode:
    op: str
    children: list = field(default_factory=list)
    table: object = None
    index: object = None
    mode: str = "all"
    partition: int = None
    columns: list = None
    predicate: tuple = None
    key: str = None
    order: SortOrder = SortOrder.ASCENDING
    left_key: str = None
    right_key: str = None
    est_rows: int = None


# -- node constructors -------------------------------------------------------

def scan_node(table, columns=None, mode="all", index=None, partition=None):
    return PlanNode("scan", table=table, columns=columns, mode=mode,
                    index=index, partition=partition)


def select_node(child, predicate):
    return PlanNode("select", [child], predicate=predicate)


def project_node(child, columns):
    return PlanNode("project", [child], columns=columns)


def distinct_node(child, key):
    return PlanNode("distinct", [child], key=key)


def sort_node(child, key, order=SortOrder.ASCENDING):
    return PlanNode("sort", [child], key=key, order=order)


def hash_join_node(left, right, left_key, right_key):
    return PlanNode("hash_join", [left, right], left_key=left_key,
                    right_key=right_key)


def merge_join_node(left, right, left_key, right_key):
    return PlanNode("merge_join", [left, right], left_key=left_key,
                    right_key=right_key)


def union_node(children):
    return PlanNode("union", list(children))


def merge_sorted_node(children, key, order=SortOrder.ASCENDING):
    return PlanNode("merge_sorted", list(children), key=key, order=order)


def _walk(plan):
    """(distinct nodes of a plan DAG, children before parents; ids of the
    nodes that more than one parent edge reaches)."""
    order, seen, shared = [], {id(plan)}, set()

    def visit(node):
        for c in node.children:
            if id(c) in seen:
                shared.add(id(c))
            else:
                seen.add(id(c))
                visit(c)
        order.append(node)

    visit(plan)
    return order, shared


# -- execution ---------------------------------------------------------------

def _sort_key(values, order):
    # bitwise not reverses int64 order without overflow at the extremes
    return values if order is SortOrder.ASCENDING else np.invert(values)


def _in_order(values, order):
    """Whether values are sorted in `order`, ties allowed."""
    ahead, behind = values[1:], values[:-1]
    return not np.any(ahead < behind if order is SortOrder.ASCENDING
                      else ahead > behind)


def stable_argsort(values, order=SortOrder.ASCENDING):
    """The permutation np.argsort(_sort_key(values, order), kind="stable").

    int64 keys take one np.sort (numpy's SIMD quicksort, not its timsort)
    of one uint64 word per row: the key's distance from the first key in
    `order`, shifted above the row's position. Equal keys then compare by
    position, and the low bits of the sorted words are the stable
    permutation. The distance is taken in wrapping uint64 arithmetic,
    which equals a sign flip to uint64 minus the flipped first key. Keys
    already in order cost one comparison pass, as in numpy's timsort.
    Keys of another dtype, fewer than two rows, and a key span that needs
    more than 64 bits together with the position run the stable argsort.
    """
    values = np.asarray(values)
    n = len(values)
    if values.dtype != np.int64 or n < 2:
        return np.argsort(_sort_key(values, order), kind="stable")
    if _in_order(values, order):
        return np.arange(n)
    lo, hi = int(values.min()), int(values.max())
    bits = (n - 1).bit_length()
    if (hi - lo).bit_length() + bits > 64:
        return np.argsort(_sort_key(values, order), kind="stable")
    words = values.view(np.uint64)
    if order is SortOrder.ASCENDING:
        packed = words - np.uint64(lo % (1 << 64))
    else:
        packed = np.uint64(hi % (1 << 64)) - words
    packed <<= np.uint64(bits)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << bits) - 1)
    return packed.view(np.int64)


def merge_join_positions(left_keys, right_keys):
    """Matching (left, right) row positions of a merge join.

    left_keys must be ascending (ties allowed) and right_keys strictly
    ascending; either violation raises ValueError. Returns
    (left_idx, right_idx) in left order, with left_idx None when every
    left row matches. int64 keys run the compiled kernel, one linear pass
    over both sides; anything else, or a missing build, runs the numpy
    reference, a binary search per left key.
    """
    lib = _native.lib
    if lib is None or left_keys.dtype != np.int64 or right_keys.dtype != np.int64:
        return _merge_join_reference(left_keys, right_keys)
    lk = np.ascontiguousarray(left_keys)
    rk = np.ascontiguousarray(right_keys)
    left_idx = np.empty(len(lk), dtype=np.int64)
    right_idx = np.empty(len(lk), dtype=np.int64)
    count = lib.pi_merge_join(address(lk), len(lk), address(rk), len(rk),
                              address(left_idx), address(right_idx))
    if count == -2:
        raise ValueError("merge join needs a sorted unique right side")
    if count == -1:
        raise ValueError("merge join needs a sorted left side")
    return (None if count == len(lk) else left_idx[:count]), right_idx[:count]


def _merge_join_reference(lk, rk):
    if len(rk) > 1 and not np.all(rk[1:] > rk[:-1]):
        raise ValueError("merge join needs a sorted unique right side")
    if len(lk) > 1 and not np.all(lk[1:] >= lk[:-1]):
        raise ValueError("merge join needs a sorted left side")
    if len(rk) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (None if len(lk) == 0 else empty), empty
    pos = np.minimum(np.searchsorted(rk, lk), len(rk) - 1)
    match = rk[pos] == lk
    if match.all():
        return None, pos
    return np.flatnonzero(match), pos[match]


def hash_join_positions(build_keys, probe_keys):
    """Matching (probe, build) row positions of an equi-join.

    Returns (probe_idx, build_idx) in probe order, ties in ascending build
    position. int64 keys run the compiled kernel, one build and one probe
    pass over a chained hash table; anything else, or a missing build,
    runs the numpy reference, a sort of the build keys and two binary
    searches per probe key. Both give the same pairs in the same order.
    """
    lib = _native.lib
    if lib is None or build_keys.dtype != np.int64 or probe_keys.dtype != np.int64:
        return _hash_join_reference(build_keys, probe_keys)
    bk = np.ascontiguousarray(build_keys)
    pk = np.ascontiguousarray(probe_keys)
    # room for one match per probe row covers a many-to-one join in one
    # call; a larger result is rerun with its exact size
    cap = len(pk)
    while True:
        probe_idx = np.empty(cap, dtype=np.int64)
        build_idx = np.empty(cap, dtype=np.int64)
        total = lib.pi_hash_join(address(bk), len(bk), address(pk), len(pk),
                                 address(probe_idx), address(build_idx), cap)
        if total < 0:
            raise MemoryError("hash join: cannot allocate the hash table")
        if total <= cap:
            return probe_idx[:total], build_idx[:total]
        cap = total


def _hash_join_reference(bk, pk):
    order = np.argsort(bk, kind="stable")
    sorted_bk = bk[order]
    lo = np.searchsorted(sorted_bk, pk, side="left")
    hi = np.searchsorted(sorted_bk, pk, side="right")
    counts = hi - lo
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(pk)), counts)
    within = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    build_idx = order[np.repeat(lo, counts) + within]
    return probe_idx, build_idx


def merge_sorted_streams(rels, key, order=SortOrder.ASCENDING):
    """One relation of the rows of rels, whose key columns are each sorted
    in `order`, merged on key.

    Ties keep earlier-stream rows first and every stream keeps its row
    order, so the result is the stable sort of the streams' concatenation.
    A stream out of order raises ValueError. int64 keys with fixed-width,
    non-object columns of one dtype per column run one kernel call
    (``pi_merge_copy``): a k-way pass over the keys that finds each run of
    one stream's rows and copies that run of every column at once. When
    at most one stream has rows, the call only checks the order and that
    stream's relation passes through uncopied. Anything else, or a
    missing build, runs the numpy reference, a stable argsort of the
    concatenated streams.
    """
    lib = _native.lib
    cols = {c: [r.columns[c] for r in rels] for c in rels[0].columns}
    if (lib is None or cols[key][0].dtype != np.int64
            or not all(map(_runs_copyable, cols.values()))):
        return _merge_sorted_reference(rels, key, order)
    cols = {c: [np.ascontiguousarray(a) for a in arrays]
            for c, arrays in cols.items()}
    lens = np.array([len(k) for k in cols[key]], dtype=np.int64)
    out = ({} if np.count_nonzero(lens) <= 1 else
           {c: np.empty(int(lens.sum()), dtype=arrays[0].dtype)
            for c, arrays in cols.items()})
    key_ptrs = pointers(cols[key])
    src = pointers([a for c in out for a in cols[c]])
    itemsizes = np.array([a.itemsize for a in out.values()], dtype=np.int64)
    dst = pointers(out.values())
    status = lib.pi_merge_copy(address(key_ptrs), address(lens), len(rels),
                               order is SortOrder.DESCENDING, address(src),
                               address(itemsizes), len(out), address(dst))
    if status == -1:
        raise ValueError("merge needs sorted streams")
    if status < 0:
        raise MemoryError("merge: cannot allocate the stream positions")
    return Relation(out) if out else rels[int(lens.argmax())]


def _runs_copyable(arrays):
    """Whether pi_merge_copy may copy these per-stream arrays of a column:
    one fixed-width dtype holding no Python objects."""
    dtype = arrays[0].dtype
    return not dtype.hasobject and all(a.dtype == dtype for a in arrays)


def _merge_sorted_reference(rels, key, order):
    if not all(_in_order(r.columns[key], order) for r in rels):
        raise ValueError("merge needs sorted streams")
    if len(rels) == 1:
        return rels[0]
    cols = {c: np.concatenate([r.columns[c] for r in rels])
            for c in rels[0].columns}
    return Relation(cols).take(stable_argsort(cols[key], order))


def _columns_read(order):
    """Node id to the columns of its output that its parents read, or None
    for all of them, for a plan's nodes in ``_walk`` order (the root
    last): the root's and those under a join are all read.

    A projection reads its columns, a distinct its key, and a select,
    sort or merge adds its own column to what its parents read; a union
    reads what its parents do. A node under several parents gets the
    union of their reads.
    """
    reads = {id(order[-1]): None}  # the root's
    for node in reversed(order):  # parents before children
        need = reads[id(node)]
        if node.op == "project":
            want = set(node.columns)
        elif node.op == "distinct":
            want = {node.key}
        elif node.op in ("select", "sort", "merge_sorted"):
            col = node.predicate[1] if node.op == "select" else node.key
            want = None if need is None else need | {col}
        elif node.op == "union":
            want = need
        else:  # joins
            want = None
        for c in node.children:
            if id(c) in reads:
                old = reads[id(c)]
                reads[id(c)] = (None if old is None or want is None
                                else old | want)
            else:
                reads[id(c)] = want
    return reads


def _join_names(left, right):
    """Output name of each right column: its own, or with the suffix "_r"
    when the left side has a column of that name."""
    return {c: c if c not in left else c + "_r" for c in right}


def _gather(columns, idx, names, dest):
    """Write each column c of columns at positions idx to the front of
    dest[names[c]], for the names dest holds."""
    for c, a in columns.items():
        if names[c] in dest:
            # positions from the join itself are in range; "clip" writes
            # into the slice without numpy's buffered copy
            np.take(a, idx, out=dest[names[c]][:len(idx)], mode="clip")


class Executor:
    """Evaluates a plan DAG; a node with several parents runs once per run.

    Only shared nodes are memoized, so every other intermediate result is
    freed as soon as its parent has consumed it. Scans, projections,
    unions and joins write through destinations: such a node first gives
    its output's bound and dtypes (``Rows``), then writes its rows into
    arrays that its consumer owns, and a node that has no consumer of
    that kind (the root, or a child of a sort or distinct) writes into
    arrays of its own, of the columns its parents read.
    """

    def __init__(self):
        self._shared, self._memo, self._reads = set(), {}, {}

    def run(self, plan):
        order, self._shared = _walk(plan)
        self._memo, self._reads = {}, _columns_read(order)
        return self._exec(plan)

    def _exec(self, node):
        """node's output as a Relation, memoized for a shared node."""
        rel = self._memo.get(id(node))
        if rel is None:
            op = getattr(self, "_op_" + node.op, None)
            rel = op(node) if op is not None else self._materialize(node)
            if id(node) in self._shared:
                self._memo[id(node)] = rel
        return rel

    def _materialize(self, node):
        """Write a destination-passing node into arrays of its bound's rows,
        one per column its parents read; a view of the rows written."""
        rows = getattr(self, "_rows_" + node.op)(node)
        reads = self._reads[id(node)]
        dest = {c: np.empty(rows.bound, dtype=d)
                for c, d in rows.dtypes.items() if reads is None or c in reads}
        n = self._write(rows, dest)
        return Relation({c: a[:n] for c, a in dest.items()})

    def _rows(self, node):
        """node's output as ``Rows`` for a consumer that writes it into its
        own arrays. A destination-passing node that no other parent reads
        writes straight into them; any other node runs now and is copied
        in."""
        op = getattr(self, "_rows_" + node.op, None)
        if op is not None and id(node) not in self._shared:
            return op(node)
        rel = self._exec(node)

        def copy(dest):
            for c, a in dest.items():
                a[:rel.nrows] = rel.columns[c]
            return rel.nrows

        return Rows(node, rel.nrows,
                    {c: a.dtype for c, a in rel.columns.items()}, copy)

    def _write(self, rows, dest):
        """rows.write(dest); a column of dest whose dtype is not the rows'
        own is written through a scratch array and cast."""
        own = {c: a if a.dtype == rows.dtypes[c]
               else np.empty(rows.bound, dtype=rows.dtypes[c])
               for c, a in dest.items()}
        n = rows.write(own)
        for c, a in dest.items():
            if own[c] is not a:
                a[:n] = own[c][:n]
        return n

    # scans

    def _rows_scan(self, node):
        """Scan whole partitions, optionally split by patch membership.

        A scan reads one partition or all of them; a partition outside
        the table raises ValueError. exclude_patches keeps the rows whose
        patch bit is clear and use_patches those whose bit is set: both
        hand each store's bits to the scan's select as they are. The
        bound is exact, from the bit sets' popcounts, and the scan writes
        only the columns its destination holds, its rowIDs as "rowid".
        """
        table, index = node.table, node.index
        nparts = len(table.partitions)
        parts = _scan_partitions(node)
        if node.mode not in ("all", "use_patches", "exclude_patches"):
            raise ValueError(f"unknown scan mode {node.mode!r}")
        if node.mode != "all":
            if index is None:
                raise ValueError("patch scan modes require an index")
            sizes = [p.row_count for p in index.partitions]
            if sizes != [p.nrows for p in table.partitions]:
                raise ValueError(f"index partitions cover {sizes} rows, table "
                                 f"partitions {[p.nrows for p in table.partitions]}")
        dtypes = {"rowid": np.dtype(np.int64),
                  **table.column_dtypes(node.columns)}
        bits = {p: () if node.mode == "all" else index.partitions[p].patch_bits()
                for p in parts}
        kind = "take" if node.mode == "use_patches" else "skip"
        # None: a partition the scan does not read
        plan = table.scan_plan((kind, [bits.get(p) for p in range(nparts)]))

        def write(dest):
            cols = {c: a for c, a in dest.items() if c != "rowid"}
            return table.scan_into(plan, dest.get("rowid"), cols)

        return Rows(node, plan[2], dtypes, write)

    # row-wise operators

    def _op_select(self, node):
        rel = self._exec(node.children[0])
        kind = node.predicate[0]
        if kind == "interval":
            _, col, lo, hi = node.predicate
            mask = (rel.columns[col] >= lo) & (rel.columns[col] <= hi)
        elif kind == "in":
            _, col, values = node.predicate
            return rel.take(in_positions(rel.columns[col], sort_unique(values)))
        elif kind == "==":
            _, col, v = node.predicate
            mask = rel.columns[col] == v
        else:
            raise ValueError(f"unknown predicate {node.predicate!r}")
        return rel.take(mask)

    def _op_project(self, node):
        rel = self._exec(node.children[0])
        return Relation({c: rel.columns[c] for c in node.columns})

    def _rows_project(self, node):
        rows = self._rows(node.children[0])
        return Rows(node, rows.bound,
                    {c: rows.dtypes[c] for c in node.columns},
                    lambda dest: self._write(rows, dest))

    def _op_distinct(self, node):
        rel = self._exec(node.children[0])
        return Relation({node.key: sort_unique(rel.columns[node.key])})

    def _op_sort(self, node):
        rel = self._exec(node.children[0])
        return rel.take(stable_argsort(rel.columns[node.key], node.order))

    # joins: a right column whose name the left side has gets the suffix "_r"

    def _rows_hash_join(self, node):
        """Builds the hash table on the smaller input, the left on a tie;
        the matching rows of both inputs are gathered into the
        destination."""
        left = self._exec(node.children[0])
        right = self._exec(node.children[1])
        lkeys, rkeys = left.columns[node.left_key], right.columns[node.right_key]
        if left.nrows <= right.nrows:
            right_idx, left_idx = hash_join_positions(lkeys, rkeys)
        else:
            left_idx, right_idx = hash_join_positions(rkeys, lkeys)
        lnames = {c: c for c in left.columns}
        rnames = _join_names(left.columns, right.columns)
        dtypes = {c: a.dtype for c, a in left.columns.items()}
        dtypes.update((rnames[c], a.dtype) for c, a in right.columns.items())
        n = len(right_idx)

        def write(dest):
            _gather(left.columns, left_idx, lnames, dest)
            _gather(right.columns, right_idx, rnames, dest)
            return n

        return Rows(node, n, dtypes, write)

    def _rows_merge_join(self, node):
        """The left input writes into the destination itself, bounded by
        its own rows (each matches at most one right row). The join reads
        the left keys there, gathers the matching right rows beside them
        and, when not every left row matched, compacts the left columns
        in place."""
        left = self._rows(node.children[0])
        right = self._exec(node.children[1])
        rnames = _join_names(left.dtypes, right.columns)
        dtypes = dict(left.dtypes)
        dtypes.update((rnames[c], a.dtype) for c, a in right.columns.items())
        key = node.left_key

        def write(dest):
            ldest = {c: dest[c] for c in left.dtypes if c in dest}
            if key not in ldest:  # a key no consumer reads
                ldest[key] = np.empty(left.bound, dtype=left.dtypes[key])
            n = self._write(left, ldest)
            left_idx, right_idx = merge_join_positions(
                ldest[key][:n], right.columns[node.right_key])
            m = len(right_idx)
            if left_idx is not None:
                for c, a in ldest.items():
                    if c in dest:
                        np.take(a[:n], left_idx, out=a[:m], mode="clip")
            _gather(right.columns, right_idx, rnames, dest)
            return m

        return Rows(node, left.bound, dtypes, write)

    # stream combination

    def _rows_union(self, node):
        """The children's rows in child order, matched by column name.

        The bound is the sum of the children's. Each child writes into the
        output from where the child before it stopped, so a child that
        yields fewer rows than its bound leaves no gap.
        """
        children = [self._rows(c) for c in node.children]
        dtypes = {c: np.result_type(*(r.dtypes[c] for r in children))
                  for c in children[0].dtypes}

        def write(dest):
            o = 0
            for rows in children:
                o += self._write(rows, {c: a[o:] for c, a in dest.items()})
            return o

        return Rows(node, sum(r.bound for r in children), dtypes, write)

    def _op_merge_sorted(self, node):
        return merge_sorted_streams([self._exec(c) for c in node.children],
                                    node.key, node.order)


def execute(plan):
    return Executor().run(plan)


# -- cardinality estimates ------------------------------------------------------

def annotate(plan):
    """Fill est_rows bottom-up; patch counts are known exactly."""
    for node in _walk(plan)[0]:
        node.est_rows = _estimate(node)
    return plan


def _scan_partitions(node):
    """The partition numbers a scan node reads: all of them, or its one
    partition; a partition outside the table raises ValueError."""
    nparts = len(node.table.partitions)
    if node.partition is None:
        return range(nparts)
    if 0 <= node.partition < nparts:
        return [node.partition]
    raise ValueError(f"scan partition {node.partition} outside the "
                     f"table's {nparts} partitions")


def _estimate(node):
    op = node.op
    if op == "scan":
        parts = _scan_partitions(node)
        total = sum(node.table.partitions[p].nrows for p in parts)
        patches = (sum(node.index.partitions[p].patch_count for p in parts)
                   if node.index else 0)
        if node.mode == "all":
            return total
        if node.mode == "exclude_patches":
            return total - patches
        return patches
    if op in ("union", "merge_sorted"):
        return sum(c.est_rows for c in node.children)
    # a unary operator keeps its input's estimate; a many-to-one
    # fact/dimension join is bounded by the fact side
    return node.children[0].est_rows


# -- rewrites --------------------------------------------------------------------

_CHAIN_OPS = {"select", "project"}


def _match_chain_to_scan(plan):
    """Peel join/aggregation-free operators down to a mode-"all" scan."""
    chain = []
    node = plan
    while node.op in _CHAIN_OPS:
        chain.append(node)
        node = node.children[0]
    if node.op != "scan" or node.mode != "all":
        return None, None
    return chain, node


def _rewrite_input(plan, index, op, kind, key):
    """A flow(mode, partition=None) builder over plan's input, or None.

    Matches when plan is an `op` node, the index holds a constraint of
    `kind` on `key`, plan's first child is a select/project chain down to
    a mode-"all" scan, and the index covers that scan's table. The builder
    returns a copy of the chain over a scan in the given patch mode.
    """
    if plan.op != op or index.constraint.kind is not kind or key != index.column:
        return None
    chain, scan = _match_chain_to_scan(plan.children[0])
    if scan is None or index.row_count != scan.table.row_count:
        return None

    def flow(mode, partition=None):
        node = scan_node(scan.table, scan.columns, mode, index, partition)
        for link in reversed(chain):
            node = PlanNode(link.op, [node], predicate=link.predicate,
                            columns=link.columns)
        return node

    return flow


def _partition_streams(flow, index):
    return [flow("exclude_patches", p) for p in range(len(index.partitions))]


def rewrite_distinct(plan, index):
    """Distinct over a NUC column: the patch-free flow is already unique."""
    flow = _rewrite_input(plan, index, "distinct",
                          ConstraintKind.NEARLY_UNIQUE, plan.key)
    if flow is None:
        return None
    return union_node([project_node(flow("exclude_patches"), [plan.key]),
                       distinct_node(flow("use_patches"), plan.key)])


def rewrite_sort(plan, index):
    """Sort on an NSC column: patch-free partition streams are pre-sorted."""
    flow = _rewrite_input(plan, index, "sort", ConstraintKind.NEARLY_SORTED,
                          plan.key)
    if flow is None or plan.order is not index.constraint.order:
        return None
    patch_sorted = sort_node(flow("use_patches"), plan.key, plan.order)
    return merge_sorted_node(_partition_streams(flow, index) + [patch_sorted],
                             plan.key, plan.order)


def _column_sorted_unique(table, column):
    _, cols = table.scan([column])
    v = cols[column]
    return len(v) < 2 or bool(np.all(np.diff(v) > 0))


def rewrite_join(plan, index):
    """Fact/dimension hash join where the fact key is an NSC column.

    Each partition's patch-free flow is ascending on its own, so it joins
    the dimension subtree with a MergeJoin, unmerged; the patch flow joins
    it with a HashJoin. All of them read the same dimension subtree
    object, so it runs once per execution, and a Union of the joins hands
    each join its slice of the output to write. Requires the dimension
    side sorted unique on the join key.
    """
    flow = _rewrite_input(plan, index, "hash_join",
                          ConstraintKind.NEARLY_SORTED, plan.left_key)
    if flow is None or index.constraint.order is not SortOrder.ASCENDING:
        return None
    dim_sub = plan.children[1]
    fact_key, dim_key = plan.left_key, plan.right_key
    _, dim_scan = _match_chain_to_scan(dim_sub)
    if dim_scan is None or not _column_sorted_unique(dim_scan.table, dim_key):
        return None

    merge_joins = [merge_join_node(stream, dim_sub, fact_key, dim_key)
                   for stream in _partition_streams(flow, index)]
    hash_join = hash_join_node(flow("use_patches"), dim_sub, fact_key, dim_key)
    return union_node(merge_joins + [hash_join])


# -- zero-branch pruning ------------------------------------------------------------

def zero_branch_prune(plan):
    """A copy of plan without the subtrees whose cardinality annotation
    guarantees zero rows; plan itself keeps its structure.

    A node is copied only when its children change, so a shared node
    stays one object in the pruned plan.
    """
    annotate(plan)
    pruned = {}
    for node in _walk(plan)[0]:
        pruned[id(node)] = _prune(node, [pruned[id(c)] for c in node.children])
    return pruned[id(plan)][0]


def _prune(node, results):
    """(pruned node, whether it yields no rows), given its pruned children."""
    if node.op == "scan":
        return node, node.est_rows == 0
    children = [c for c, _ in results]
    if node.op in ("union", "merge_sorted"):
        alive = [c for c, empty in results if not empty]
        if len(alive) <= 1:
            return (alive[0], False) if alive else (children[0], True)
        children, empty = alive, False
    elif node.op in ("hash_join", "merge_join"):
        empty = any(e for _, e in results)
    else:
        empty = results[0][1]
    if list(map(id, children)) != list(map(id, node.children)):
        node = replace(node, children=children)
    return node, empty


# -- result comparison ------------------------------------------------------------

def canonical_order(rel):
    cols = [rel.columns[c] for c in sorted(rel.columns)]
    return np.lexsort(cols[::-1]) if cols else np.zeros(0, dtype=np.int64)


def result_checksum(rel, ordered=False):
    """Stable digest of a result; row order ignored unless ordered."""
    h = hashlib.blake2b(digest_size=16)
    names = sorted(rel.columns)
    h.update(("|".join(names)).encode())
    idx = np.arange(rel.nrows) if ordered else canonical_order(rel)
    for c in names:
        h.update(np.ascontiguousarray(rel.columns[c][idx]).tobytes())
    return h.hexdigest()


def explain(plan):
    """One node per line, two-space indent, with each node's row estimate.

    A shared node is printed under each of its parents, marked "shared".
    """
    annotate(plan)
    shared = _walk(plan)[1]
    lines = []

    def describe(node):
        if node.op == "scan":
            extra = f" p{node.partition}" if node.partition is not None else ""
            return f"Scan[{node.mode}{extra}]"
        label = {
            "select": lambda: f"Select{node.predicate!r}",
            "project": lambda: f"Project({', '.join(node.columns)})",
            "distinct": lambda: f"SortDistinct({node.key})",
            "sort": lambda: f"Sort({node.key} {node.order.value})",
            "hash_join": lambda: f"HashJoin({node.left_key}={node.right_key})",
            "merge_join": lambda: f"MergeJoin({node.left_key}={node.right_key})",
            "union": lambda: "Union",
            "merge_sorted": lambda: f"MergeSortedStreams({node.key})",
        }
        return label[node.op]()

    def walk(node, depth):
        note = f" rows={node.est_rows}"
        if id(node) in shared:
            note += " shared"
        lines.append("  " * depth + describe(node) + note)
        for c in node.children:
            walk(c, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)
