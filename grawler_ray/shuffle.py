"""The coarse-partition shuffle: one hash that decides which of ``G`` groups
a row goes to, and one exchange built on it for one Dataset
(``coarse_groupby``) or several tagged legs (``coarse_cogroup``).

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
import pyarrow.compute as pc

from .urlops import xxhash64_batch

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio (Fibonacci hashing)

_BYTES_TYPES = (
    pa.types.is_string, pa.types.is_large_string, pa.types.is_binary, pa.types.is_large_binary
)

TAG = "_cg"  # the coarse group id the exchange adds, and strips again before fn
LEG = "_leg"  # int8 leg position that fn sees when coarse_cogroup has two or more legs


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


def arrow_schema(schema) -> pa.Schema:
    """A Dataset's ``schema()`` as a ``pa.Schema`` (no columns when Ray has
    none: an empty Dataset).  Pandas-block datasets report numpy dtypes;
    an object column there is a string column."""
    if schema is None:
        return pa.schema([])

    def typ(t):
        if isinstance(t, pa.DataType):
            return t
        t = np.dtype(t)
        return pa.string() if t == np.dtype("O") else pa.from_numpy_dtype(t)

    return pa.schema([pa.field(n, typ(t)) for n, t in zip(schema.names, schema.types)])


def coarse_cogroup(legs, key: str, fn, num_groups: int = 256, batch_format: str = "pyarrow"):
    """Group the rows of several Datasets ("legs") together by
    ``coarse_group(key)``: the union + coarse-hash groupby "repartition
    join" (Ray 2.49's native ``Dataset.join`` breaks on empty partitions
    and ``list<>`` payloads).  Every leg carries ``key`` under that name.

    ``fn`` receives all rows of one coarse group (many keys, equal keys of
    every leg always together) in ``batch_format`` and separates the true
    keys itself (sort + run-scan).  The coarse tag never reaches ``fn``.

    With two or more legs, every leg is padded to the union of the legs'
    columns (typed nulls where a leg lacks a column, types unified across
    legs) and gets an int8 ``LEG`` column holding its position in
    ``legs``, so ``fn`` always sees one schema and tells the sides apart
    by ``LEG``.  The legs travel as blocks of ``batch_format``: Ray 2.49
    passes an empty partition through without calling ``fn``, so it
    leaves as an empty block of that format.  In a pandas exchange a
    padded integer column is float64 in every leg (pandas has no integer
    null; exact only below 2**53).  Each leg's schema comes from
    ``Dataset.schema()``: a leg whose schema Ray does not know yet runs
    its first block once to learn it, so materialize a costly leg first.

    One leg is ``coarse_groupby``: no padding, no ``LEG`` column, and
    each block keeps its own format."""
    legs = list(legs)
    schema = None
    if len(legs) > 1:
        schemas = [arrow_schema(ds.schema()) for ds in legs]
        schema = pa.unify_schemas(schemas, promote_options="permissive")
        if batch_format == "pandas":  # pandas has no integer null
            schema = pa.schema([
                pa.field(f.name, pa.float64())
                if pa.types.is_integer(f.type) and not all(f.name in s.names for s in schemas)
                else f
                for f in schema
            ])

    def tagger(leg: int):
        def tag(b):
            if schema is None:
                if isinstance(b, pd.DataFrame):
                    return b.assign(**{TAG: coarse_group(b[key], num_groups)})
                return b.append_column(TAG, pa.array(coarse_group(b.column(key), num_groups)))
            n = b.num_rows
            cols = [
                b.column(f.name).cast(f.type) if f.name in b.column_names else pa.nulls(n, f.type)
                for f in schema
            ]
            t = pa.Table.from_arrays(cols, schema=schema)
            t = t.append_column(LEG, pa.array(np.full(n, leg, np.int8)))
            t = t.append_column(TAG, pa.array(coarse_group(t.column(key), num_groups)))
            return t.to_pandas() if batch_format == "pandas" else t

        return tag

    def run(b):
        return fn(b.drop(columns=TAG) if isinstance(b, pd.DataFrame) else b.drop_columns([TAG]))

    tagged = [
        ds.map_batches(tagger(i), batch_format=None if schema is None else "pyarrow")
        for i, ds in enumerate(legs)
    ]
    both = tagged[0].union(*tagged[1:]) if len(tagged) > 1 else tagged[0]
    return both.groupby(TAG).map_groups(run, batch_format=batch_format)


def key_index(keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(position in ``keys`` of each query's first equal key, found mask):
    how a cogroup ``fn`` attaches one leg's rows to another leg's keys.
    Where a query is not found its position is arbitrary."""
    if len(keys) == 0:
        return np.zeros(len(queries), np.int64), np.zeros(len(queries), bool)
    order = np.argsort(keys, kind="stable")
    pos = order[np.minimum(np.searchsorted(keys, queries, sorter=order), len(keys) - 1)]
    return pos, keys[pos] == queries


def coarse_groupby(ds, key: str, fn, num_groups: int = 256, batch_format: str = "pyarrow"):
    """``groupby(coarse_group(key)).map_groups(fn)`` on one Dataset: the
    one-leg ``coarse_cogroup``.  ``fn`` receives all rows of one coarse
    group in ``batch_format``, without the tag column; the tag map keeps
    each block's own format, so the exchange moves the same block type as
    its input."""
    return coarse_cogroup([ds], key, fn, num_groups, batch_format)


def materialize_loop_state(ds):
    """``ds`` materialized under a new Ray stats lineage: the state an
    iterative cogroup loop carries into its next iteration.  A state that
    reaches its next value through two legs (directly, and through a
    materialized leg derived from it) doubles its DatasetStats tree every
    iteration, and Ray summarizes the whole tree after every execution:
    6 000 nodes and ~1 s per execution after nine rounds of
    ``resolve_chains``, 78 000 nodes and ~12 s after a dozen rounds of
    ``dedup_components``."""
    import ray.data

    return ray.data.from_arrow_refs(ds.materialize().to_arrow_refs())


def block_sum(ds, col: str) -> int:
    """The sum of integer column ``col`` of a materialized Dataset: one map
    task per block adds up its block and the driver adds the partial sums
    — the fixpoint test of an iterative loop, without the all-to-all
    Aggregate execution of ``ds.sum``."""
    parts = ds.select_columns([col]).map_batches(
        lambda t: pa.table({"s": [pc.sum(t.column(col)).as_py()]}),
        batch_size=None,
        batch_format="pyarrow",
    )
    return sum(s for t in parts.iter_batches(batch_size=None, batch_format="pyarrow") for s in t.column("s").to_pylist())
