"""Seeded dataset generator for the microbenchmark workloads.

Tables carry a unique key column and a value column with a controlled
exception rate: for the uniqueness workload the exception rows are spread
equally over a bounded duplicate domain (every exception value really is
duplicated) and the remaining rows get unique values disjoint from that
domain; for the sortedness workload the non-exception rows form an
ascending sequence and exceptions sit at random positions with random
values. Tables are range-partitioned on the key into near-equal parts.
"""

from dataclasses import dataclass

import numpy as np

from .column_store import ColumnTable


@dataclass
class GenSpec:
    kind: str                  # "nuc" | "nsc"
    rows: int
    exception_rate: float
    dup_domain: int = 100_000
    partitions: int = 4
    seed: int = 0
    value_domain: int = None   # nsc: squeeze values into [0, K) for join facts
    pad_bytes: int = 0

    def __post_init__(self):
        if self.kind not in ("nuc", "nsc"):
            raise ValueError(f"unknown dataset kind {self.kind!r}")
        if not 0.0 <= self.exception_rate <= 1.0:
            raise ValueError("exception rate must be in [0, 1]")
        if self.rows < 0 or self.partitions < 1:
            raise ValueError("rows must be at least 0 and partitions at least 1")
        if self.dup_domain < 1 or (self.value_domain is not None
                                   and self.value_domain < 1):
            raise ValueError("dup domain and value domain must be at least 1")
        if self.pad_bytes < 0:
            raise ValueError("pad bytes must be at least 0")

    @property
    def exception_count(self):
        return int(np.ceil(self.exception_rate * self.rows))


def generate(spec):
    rng = np.random.default_rng(spec.seed)
    t, k = spec.rows, spec.exception_count
    keys = np.arange(t, dtype=np.int64)
    positions = rng.choice(t, size=k, replace=False) if k else np.zeros(0, np.int64)

    if spec.kind == "nuc":
        values = np.empty(t, dtype=np.int64)
        # equal spread over the duplicate domain, capped so every chosen
        # value occurs at least twice and the exception rows truly duplicate
        d_eff = min(spec.dup_domain, max(1, k // 2))
        dup_vals = (np.arange(k, dtype=np.int64) % d_eff)[rng.permutation(k)]
        mask = np.zeros(t, dtype=bool)
        mask[positions] = True
        values[mask] = dup_vals
        values[~mask] = spec.dup_domain + np.arange(t - k, dtype=np.int64)
    else:
        domain = spec.value_domain if spec.value_domain else t
        values = ((keys * domain) // max(t, 1)).astype(np.int64) \
            if spec.value_domain else keys.copy()
        values[positions] = rng.integers(0, max(domain, 1), size=k)

    columns = {"key": keys, "value": values}
    if spec.pad_bytes:
        columns["pad"] = np.full(t, b"", dtype=f"S{spec.pad_bytes}")
    split = {c: np.array_split(a, spec.partitions) for c, a in columns.items()}
    return ColumnTable.from_partitions(
        [{c: split[c][p] for c in columns} for p in range(spec.partitions)])


def generate_to_file(spec, path):
    table = generate(spec)
    table.save(path)
    return table


def dimension_table(rows, payload_factor=7):
    """Sorted unique join keys with a payload column (the join's "X" side)."""
    if rows < 0:
        raise ValueError("dimension rows must be at least 0")
    keys = np.arange(rows, dtype=np.int64)
    return ColumnTable.from_partitions(
        [{"value": keys, "payload": keys * payload_factor}])
