"""Approximate-constraint indexing engine over a mini columnar store."""

from .column_store import ColumnTable, Partition
from .patch_index import (NSC_ASC, NSC_DESC, NUC, Constraint, ConstraintKind,
                          PatchIndex, SortOrder, TableIndex, build_index,
                          discover_nsc, discover_nuc)
from .sharded_bitmap import DEFAULT_SHARD_BITS, ShardedBitmap

__all__ = [
    "ColumnTable", "Partition",
    "Constraint", "ConstraintKind", "SortOrder",
    "NUC", "NSC_ASC", "NSC_DESC",
    "PatchIndex", "TableIndex", "build_index", "discover_nuc", "discover_nsc",
    "ShardedBitmap", "DEFAULT_SHARD_BITS",
]
__version__ = "0.1.0"
