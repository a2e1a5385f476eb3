"""The coarse-partition shuffle: one hash that decides which of ``G`` groups
a row goes to, and one helper for the exchange built on it.

Most distributed operators here share one shape: tag every row with
``hash(key) % G`` (G ~ 256 coarse groups), ``groupby(tag).map_groups``, and
run-scan the true keys inside each group with numpy.  One pandas group per
key is the Python-overhead pathology at 10^6+ keys; a few hundred
vectorized kernel calls are not.

Both sides of a union / repartition join must use the SAME partition
function or their rows never meet; ``coarse_group`` is that function for
the whole package.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .urlops import xxhash64_batch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio (Fibonacci hashing)
_SALT_C = np.uint64(0xC2B2AE3D27D4EB4F)

_BYTES_TYPES = (
    pa.types.is_string, pa.types.is_large_string, pa.types.is_binary, pa.types.is_large_binary
)

TAG = "_cg"  # the tag column coarse_groupby adds and strips again before fn


def _hash64(keys) -> tuple[np.ndarray, bool, np.ndarray | None]:
    """(uint64 hash per key, keys are integers, null mask or None).
    Integer keys hash to their own uint64 bits, string and binary keys to
    xxhash64; a null hashes as 0."""
    arr = keys.combine_chunks() if isinstance(keys, pa.ChunkedArray) else keys
    if isinstance(arr, pd.Series):
        arr = pa.Array.from_pandas(arr)
    elif not isinstance(arr, pa.Array):
        arr = np.asarray(arr)
        if arr.dtype.kind in "iu":  # numpy ints hold no nulls
            return arr.astype(np.int64).view(np.uint64), True, None
        arr = pa.array(arr, from_pandas=True)
    if pa.types.is_floating(arr.type):  # int keys of a NaN-bearing pandas column
        arr = arr.cast(pa.int64())  # safe cast: fractional keys raise
    typ = arr.type
    is_int = pa.types.is_integer(typ)
    null = arr.is_null().to_numpy(zero_copy_only=False) if arr.null_count else None
    vals = arr.fill_null(0 if is_int else "") if arr.null_count else arr
    if is_int:
        h = vals.to_numpy().astype(np.int64).view(np.uint64)
    elif any(is_type(typ) for is_type in _BYTES_TYPES):
        h = xxhash64_batch(vals.to_numpy(zero_copy_only=False))
    else:
        raise TypeError(f"coarse_group: unsupported key type {typ}")
    if null is not None:
        h[null] = 0
    return h, is_int, null


def coarse_group(keys, num_groups: int) -> np.ndarray:
    """int32 coarse group id in ``[0, num_groups)`` for every key.

    ``keys`` is a pyarrow (Chunked)Array, a numpy array, a pandas Series or
    a list.  Integer keys get the Fibonacci mix ``((u * golden) >> 33) % G``
    of their uint64 bits: ids are dense and sequential, and ``id % G``
    alone would stripe them.  String and binary keys get ``xxhash64 % G``:
    xxhash output is already well mixed.  Null keys all go to group 0.
    """
    h, is_int, null = _hash64(keys)
    if is_int:
        h = (h * _GOLDEN) >> np.uint64(33)
    g = (h % np.uint64(num_groups)).astype(np.int32)
    if null is not None:
        g[null] = 0
    return g


def coarse_group_tuple(columns: list, num_groups: int, salt=None) -> np.ndarray:
    """coarse_group of composite keys (one array per key column) plus
    optional int salt ids: the per-column hashes chain as
    ``mix = (mix ^ h) * golden``, the salt adds ``salt * C``, and the group
    is ``(mix >> 33) % G``.  One integer column without salt gives exactly
    ``coarse_group``'s integer ids."""
    mix = np.zeros(len(columns[0]), np.uint64)
    for col in columns:
        mix = (mix ^ _hash64(col)[0]) * _GOLDEN
    if salt is not None:
        mix = mix + np.asarray(salt).astype(np.uint64) * _SALT_C
    return ((mix >> np.uint64(33)) % np.uint64(num_groups)).astype(np.int32)


def coarse_groupby(ds, key: str, fn, num_groups: int = 256, batch_format: str = "pyarrow"):
    """``groupby(coarse_group(key)).map_groups(fn)`` on one Dataset.

    ``fn`` receives all rows of one coarse group (many keys, equal keys
    always together) in ``batch_format``, without the tag column, and
    separates the true keys itself (sort + run-scan).  The tag map keeps
    each block's own format, so the exchange moves the same block type as
    its input."""

    def tag(b):
        if isinstance(b, pd.DataFrame):
            return b.assign(**{TAG: coarse_group(b[key], num_groups)})
        return b.append_column(TAG, pa.array(coarse_group(b.column(key), num_groups)))

    def run(b):  # empty partitions can arrive as zero-column blocks
        if isinstance(b, pd.DataFrame):
            return fn(b.drop(columns=TAG, errors="ignore"))
        return fn(b.drop_columns([TAG]) if TAG in b.column_names else b)

    return (
        ds.map_batches(tag, batch_format=None)
        .groupby(TAG)
        .map_groups(run, batch_format=batch_format)
    )
