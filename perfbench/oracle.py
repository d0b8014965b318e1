"""Independent numpy oracle for the benchmark's correctness checks.

The shadow holds its own copy of both fact tables' columns, taken from the
generator's output before the tables are written and loaded, and applies
every statement itself. Query results are checked against it with plain
numpy; nothing here runs a plan of the engine. All checks run outside the
timed region. Each check returns an error message, or None when it passes.
"""

import numpy as np

from patchindex import patch_index


def _columns(table, name):
    return np.concatenate([p.columns[name] for p in table.partitions])


def _row_counts(rowid, nrows):
    """Occurrences of each rowid in [0, nrows); -1 marks an out-of-range id."""
    if rowid.size and (rowid.min() < 0 or rowid.max() >= nrows):
        return np.full(nrows, -1)
    return np.bincount(rowid, minlength=nrows)


def _sorted_unique(values):
    # np.unique without return flags is hash-based and slow on numpy 2.4
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


class Shadow:
    def __init__(self, tables, dim):
        self.keys = {n: _columns(t, "key") for n, t in tables.items()}
        self.values = {n: _columns(t, "value") for n, t in tables.items()}
        self.dim_payload = _columns(dim, "payload")
        dim_keys = _columns(dim, "value")
        if not np.array_equal(dim_keys, np.arange(dim_keys.size)):
            raise ValueError("dimension keys must be 0..dim_rows-1")

    def apply(self, st):
        t = st.table
        if st.op == "insert":
            self.keys[t] = np.concatenate([self.keys[t], st.keys])
            self.values[t] = np.concatenate([self.values[t], st.values])
        elif st.op == "modify":
            self.values[t][st.ids] = st.values
        else:
            self.keys[t] = np.delete(self.keys[t], st.ids)
            self.values[t] = np.delete(self.values[t], st.ids)

    # -- per operation ----------------------------------------------------------

    def check_query(self, query, rel):
        try:
            cols = rel.columns
            if query == "distinct":
                return self._check_distinct(cols["value"])
            if query == "sort":
                return self._check_sort(cols["rowid"], cols["value"])
            return self._check_join(cols)
        except KeyError as exc:
            return f"result lacks column {exc}"

    def _check_distinct(self, got):
        expected = _sorted_unique(self.values["nuc"])
        if got.size != expected.size:
            return f"{got.size} distinct values, expected {expected.size}"
        if not np.array_equal(np.sort(got), expected):
            return "distinct values differ"
        return None

    def _check_sort(self, rowid, value):
        facts = self.values["nsc"]
        if not (_row_counts(rowid, facts.size) == 1).all():
            return "sort output is not a permutation of the rows"
        if not np.array_equal(facts[rowid], value):
            return "sort output pairs rowids with wrong values"
        if (value[1:] < value[:-1]).any():
            return "sort output is not in ascending order"
        return None

    def _check_join(self, cols):
        facts = self.values["nsc"]
        in_dim = (facts >= 0) & (facts < self.dim_payload.size)
        rowid, value = cols["rowid"], cols["value"]
        if not np.array_equal(_row_counts(rowid, facts.size), in_dim):
            return "joined fact rows differ"
        if not np.array_equal(facts[rowid], value):
            return "join pairs rowids with wrong values"
        if not (np.array_equal(cols["value_r"], value)
                and np.array_equal(cols["payload"], self.dim_payload[value])):
            return "join pairs facts with wrong dimension rows"
        return None

    def check_counts(self, tables, name):
        n = self.values[name].size
        table, index = tables.table(name), tables.index(name)
        if table.row_count != n or index.row_count != n:
            return (f"{name}: table has {table.row_count} rows, index "
                    f"{index.row_count}, expected {n}")
        return None

    # -- whole state ----------------------------------------------------------------

    def check_state(self, tables):
        """Table contents and index invariants; a list of errors."""
        errors = []
        for name in ("nuc", "nsc"):
            error = self.check_counts(tables, name)
            if error:
                errors.append(error)
                continue
            _, cols = tables.table(name).scan(["key", "value"])
            if not (np.array_equal(cols["key"], self.keys[name])
                    and np.array_equal(cols["value"], self.values[name])):
                errors.append(f"{name}: table contents differ from the oracle")
        if errors:
            return errors
        # NUC discovery is global, while PatchIndex.check_invariant only
        # checks each partition, so uniqueness is checked over the table
        good = self.values["nuc"][~tables.nuc_index.global_patch_mask()]
        s = np.sort(good)
        if (s[1:] == s[:-1]).any() or (good == patch_index.NULL_VALUE).any():
            errors.append("nuc: non-patch values are not unique")
        for p, pidx in enumerate(tables.nsc_index.partitions):
            values = tables.nsc.partitions[p].columns["value"]
            if len(values) != pidx.row_count or not pidx.check_invariant(values):
                errors.append(f"nsc: partition {p} violates the sorted invariant")
        return errors
