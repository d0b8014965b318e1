"""Loader for the compiled kernels in ``_native.c``.

The C source ships with the package and is built once, at import, with the
system C compiler. The shared library is cached per user under
``$XDG_CACHE_HOME/patchindex`` (default ``~/.cache/patchindex``), keyed by
a hash of the source, the flags and the machine type, and loaded through
ctypes, which releases the GIL during every call. When no compiler is found
or the build fails, one RuntimeWarning is emitted and the callers use
their numpy references instead: ``sharded_bitmap`` its shift and its
grouped bulk delete, ``column_store`` its membership test
(``in_positions``), its patch-split select (``select``), which copies a
scan's rows by the bits of a patch store and falls back to a keep mask
per chunk span, its partition delete, which closes one chunk's gaps at a
time with ``np.delete``, re-scans a chunk's zone only where a deleted
value was its min or max (``Partition._rescan_zones``) and lowers the
chunk's sub-block ends, its filter build and upkeep of written rows
(``Partition._filter_rows``), which finds each row's sub-block by a
binary search over the chunks' ends and sets the bits with
``np.bitwise_or.at``, and its semijoin probe
(``Partition.probe``), which tests every probed key inside a chunk's zone
against the chunk's filter and the filters of all of its sub-blocks and
runs ``np.isin`` over the kept sub-blocks' rows; ``query_engine`` its
merge join (``merge_join_positions``), its hash join
(``hash_join_positions``) and its merge of sorted streams
(``merge_sorted_streams``), which falls back to a stable argsort of the
concatenated streams where ``pi_merge_copy`` copies each run of one
stream's rows into every output column as its one pass over the keys
finds the run, and ``patch_index`` its longest sorted subsequence
(``lss_keep``), which falls back to the Python patience loop
``lss_keep_mask``.

The partition kernels share one argument block (``PartitionArgs``). Its
zone columns are the columns a probe has read, the only ones with block
summaries: a zone (min and max) per chunk, a filter per chunk and a filter
per sub-block, whose moving bounds (the sub-block ends) the block holds
too once any column has filters. The probe takes two calls per partition:
``pi_probe_plan`` finds the sub-blocks to read and their row count, which
sizes the outputs that ``pi_probe`` then fills.

Module attributes:

- ``lib``: the loaded ``ctypes.CDLL``, or None when the kernels are missing;
- ``BACKEND``: ``"c"`` or ``"numpy"``, the kernel backend in use;
- ``SELECT_PATH``: ``"avx512"`` or ``"scalar"``, the path ``pi_select``
  chose for this CPU when the library loaded, or ``"numpy"`` without it;
- ``COMPILER``: path of the C compiler the loader uses, or None;
- ``HEAP_KEPT``: whether the import pinned glibc's heap thresholds
  (``keep_freed_memory``).

Every wrapper hands its arrays to a kernel through ``address`` (one array)
or ``pointers`` (an array of addresses).
"""

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import warnings
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_native.c")
CFLAGS = ("-O3", "-shared", "-fPIC")
COMPILER = shutil.which("cc") or shutil.which("gcc")

_P = ctypes.c_void_p
_I = ctypes.c_int64


class DeleteArgs(ctypes.Structure):
    """Argument block of ``pi_delete``; mirrors ``struct delete_args``."""

    _fields_ = [("words", _P), ("starts", _P), ("nstarts", _I),
                ("log2_shard", _I), ("wps", _I), ("lanes", _I),
                ("logical_len", _I), ("pos", _I)]


class SelectArgs(ctypes.Structure):
    """Argument block of ``pi_select``; mirrors ``struct select_args``."""

    _fields_ = [("spans", _P), ("nspans", _I), ("nrows", _I), ("words", _P),
                ("nwords", _I), ("starts", _P), ("nstarts", _I), ("wps", _I),
                ("logical_len", _I), ("take", _I), ("base", _I), ("dst", _P),
                ("src", _P), ("itemsize", _P), ("ncols", _I), ("cap", _I)]


class PartitionArgs(ctypes.Structure):
    """Argument block of the partition kernels ``pi_delete_rows``,
    ``pi_filter_rows`` and ``pi_probe_plan``; mirrors ``struct
    partition_args``."""

    _fields_ = [("bufs", _P), ("itemsizes", _P), ("ncols", _I),
                ("mins", _P), ("maxs", _P), ("zone_cols", _P),
                ("chunk_filters", _P), ("sub_filters", _P), ("nzones", _I),
                ("sub_ends", _P), ("nsub", _I), ("chunk_log2", _I),
                ("sub_log2", _I), ("capacity", _I)]


_PART = ctypes.POINTER(PartitionArgs)

# name -> (argtypes, restype)
_SIGNATURES = {
    "pi_shift": ((_P, _I, _I, _I, ctypes.c_int), None),
    "pi_delete": ((ctypes.POINTER(DeleteArgs),), None),
    "pi_bulk_delete": ((ctypes.POINTER(DeleteArgs), _P, _I, ctypes.c_int), _I),
    "pi_in_positions": ((_P, _I, _P, _I, _P), _I),
    "pi_merge_join": ((_P, _I, _P, _I, _P, _P), _I),
    "pi_hash_join": ((_P, _I, _P, _I, _P, _P, _I), _I),
    "pi_merge_copy": ((_P, _P, _I, ctypes.c_int, _P, _P, _I, _P), _I),
    "pi_lss_keep": ((_P, _I, ctypes.c_int, _P), _I),
    "pi_select": ((ctypes.POINTER(SelectArgs),), _I),
    "pi_select_scalar": ((ctypes.POINTER(SelectArgs),), _I),
    "pi_select_uses_avx512": ((), _I),
    "pi_delete_rows": ((_PART, _P, _I, _P, _I), _I),
    "pi_filter_rows": ((_PART, _I, _P, _I, _P, _I), _I),
    "pi_probe_plan": ((_PART, _I, _P, _I, _P, _I, _P, _P), _I),
    "pi_probe": ((_P, _P, _I, _P, _I, _I, _P, _P), _I),
}


def address(a):
    """Data address of a contiguous array, for a kernel argument.

    A ctypes view of a writable, non-empty buffer takes under half the
    time of ``a.ctypes.data``; read-only and empty arrays, which have no
    such view, take ``a.ctypes.data``. The address is valid only while
    the array lives, so the caller holds the array by name until the
    kernel returns: the address of a temporary dangles at once.
    """
    if a.flags.writeable and a.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def pointers(arrays):
    """The data addresses of arrays, as a uintp array for a kernel that
    takes one pointer per array. As for ``address``, the caller holds
    the result and every array by name until the kernel returns."""
    return np.array([address(a) for a in arrays], dtype=np.uintp)


M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


def keep_freed_memory():
    """Pin glibc's heap thresholds where its own dynamic rule tops out:
    arrays up to 32 MiB come from the heap, and freed heap goes back to
    the system only beyond 64 MiB, whatever temporaries the process freed
    before (README, "Install and test"). False without glibc's mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # TypeError: no dlopen(NULL)
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(M_MMAP_THRESHOLD, 32 << 20)
                and mallopt(M_TRIM_THRESHOLD, 64 << 20))


def _cache_dir():
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "patchindex"


def _build():
    """Path of the shared library for the current source, built if needed."""
    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + " ".join(CFLAGS).encode()
                         + platform.machine().encode()).hexdigest()[:16]
    target = _cache_dir() / f"{SOURCE.stem}-{key}.so"
    if target.exists():
        return target
    if COMPILER is None:
        raise OSError("no C compiler (cc or gcc) on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([COMPILER, *CFLAGS, "-o", tmp, str(SOURCE)],
                       check=True, capture_output=True, text=True, timeout=120)
        # concurrent builders each write their own file; the rename is atomic
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _load():
    dll = ctypes.CDLL(str(_build()))
    for name, (argtypes, restype) in _SIGNATURES.items():
        fn = getattr(dll, name)
        fn.argtypes = argtypes
        fn.restype = restype
    return dll


try:
    lib = _load()
except (OSError, subprocess.SubprocessError) as exc:
    # a failed compile carries the compiler's own message in stderr
    warnings.warn(f"patchindex: compiled kernels unavailable "
                  f"({getattr(exc, 'stderr', None) or exc}); "
                  f"using the slower numpy references", RuntimeWarning)
    lib = None

HEAP_KEPT = keep_freed_memory()
BACKEND = "numpy" if lib is None else "c"
SELECT_PATH = ("numpy" if lib is None
               else "avx512" if lib.pi_select_uses_avx512() else "scalar")
