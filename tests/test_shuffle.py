"""The coarse-partition hash and exchange (grawler_ray/shuffle.py).

The exchanges the crawl and prep benchmarks run (crawl admission ``hg``,
exact-dedup text-hash groups, the prep semi/anti-join ``dg`` and the
near-dup verify doc-id groups) must keep their group ids bit for bit: the
formulas they used before the shared helper are restated here and compared.
"""

import pathlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from grawler_ray.shuffle import LEG, TAG, coarse_cogroup, coarse_group, key_index
from grawler_ray.urlops import xxhash64_batch

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
ROOT = pathlib.Path(__file__).resolve().parents[1]

_rng = np.random.default_rng(7)
IDS = np.concatenate(
    [np.arange(2000), _rng.integers(0, 2**62, 2000), [2**63 - 1, 0, 1]]
).astype(np.int64)
HOSTS = [f"host{i}.example.com" for i in range(700)] + ["", "ünïcode.example", "a" * 300]


def _inline_int(ids, g):
    # the integer tag: preprocess _filter_join_text dg, dedup verify doc-id
    # groups, crawl _distributed_children
    u = np.asarray(ids).astype(np.uint64)
    return (((u * GOLDEN) >> np.uint64(33)) % np.uint64(g)).astype(np.int32)


def _inline_str(strs, g):
    # the string tag: crawl admission hg, prep exact-dedup hg
    return (xxhash64_batch(list(strs)) % np.uint64(g)).astype(np.int32)


@pytest.mark.parametrize("g", [1, 7, 64, 256, 512])
def test_integer_ids_match_inline_formula(g):
    want = _inline_int(IDS, g)
    for keys in (IDS, pa.array(IDS), pa.chunked_array([IDS[:5], IDS[5:]]), pd.Series(IDS)):
        got = coarse_group(keys, g)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want)
    small = np.arange(-50, 50)
    np.testing.assert_array_equal(
        coarse_group(small.astype(np.int32), g), _inline_int(small.astype(np.int32), g)
    )


@pytest.mark.parametrize("g", [1, 7, 256, 512])
def test_string_keys_match_inline_formula(g):
    from grawler_ray.functions.dedup import exact_hash_batch

    want = _inline_str(HOSTS, g)
    uniq = np.unique(np.asarray(HOSTS, dtype=object))  # the admission tag's input
    np.testing.assert_array_equal(coarse_group(uniq, g), _inline_str(uniq, g))
    np.testing.assert_array_equal(coarse_group(pa.array(HOSTS), g), want)
    np.testing.assert_array_equal(coarse_group(HOSTS, g), want)
    docs = pa.table({"doc_id": np.arange(40), "text": [f"page {i % 9}" for i in range(40)]})
    th = exact_hash_batch(docs).column("text_hash")
    np.testing.assert_array_equal(coarse_group(th, g), _inline_str(th.to_pylist(), g))
    np.testing.assert_array_equal(
        coarse_group(pa.array([h.encode() for h in HOSTS], pa.binary()), g), want
    )


def test_nulls_share_one_group():
    for keys in (
        pa.array([5, None, 9, None], pa.int64()),
        pa.array(["a", None, "b", None]),
        pd.Series([5, None, 9, None], dtype="Int64"),
        pd.Series(["a", None, "b", np.nan], dtype=object),
        [None, "a", None, "b"],
    ):
        g = coarse_group(keys, 64)
        null = pd.isna(pd.Series(list(keys) if isinstance(keys, list) else keys.tolist()))
        assert set(g[null.to_numpy()]) == {0}
    assert set(coarse_group(pa.nulls(5, pa.string()), 64)) == {0}


def test_equal_keys_from_separate_batches_share_a_group():
    a = coarse_group(pa.array(["x.com", "y.com", "z.com"]), 256)
    b = coarse_group(np.asarray(["z.com", "x.com"], dtype=object), 256)
    assert (a[2], a[0]) == (b[0], b[1])
    i = coarse_group(pa.array([3, 10**12, 42], pa.int64()), 256)
    # the same ids as int32 numpy, and as a NaN-bearing pandas float column
    j = coarse_group(np.array([42, 3], np.int32), 256)
    k = coarse_group(pd.Series([np.nan, 10**12, 3.0]), 256)
    assert (i[2], i[0]) == (j[0], j[1])
    assert (i[1], i[0]) == (k[1], k[2])


@pytest.mark.parametrize("g", [1, 3, 100, 4096])
def test_ids_in_range(g):
    for keys in (IDS, -IDS, pa.array(HOSTS), _rng.integers(-(2**63), 2**63 - 1, 500)):
        got = coarse_group(keys, g)
        assert got.min() >= 0 and got.max() < g


def test_fractional_float_keys_raise():
    with pytest.raises(pa.ArrowInvalid):
        coarse_group(np.array([1.5]), 8)


def test_int64_view_of_uint64_hash_keeps_groups():
    # line_dedup's join plan groups on the int64 column holding the line
    # hash's bits; its groups equal those of the uint64 hash itself
    h = xxhash64_batch(HOSTS)
    for keys in (h.view(np.int64), pa.array(h.view(np.int64))):
        np.testing.assert_array_equal(coarse_group(keys, 256), coarse_group(h, 256))


def test_no_second_partition_hash_in_package():
    """One partition hash: pandas' per-row object hash and crc32 partition
    hashes must not come back (png.py's chunk CRC is the file format)."""
    bad = re.compile(r"hash_array|zlib\.crc32|\bcrc32\(")
    files = sorted((ROOT / "grawler_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    hits = [
        f"{p.relative_to(ROOT)}:{n}"
        for p in files
        if p.name != "png.py"
        for n, line in enumerate(p.read_text().splitlines(), 1)
        if bad.search(line)
    ]
    assert not hits, hits


# ---------------------------------------------------------------------------
# coarse_cogroup: the tagged-union exchange
# ---------------------------------------------------------------------------

def _legs():
    import ray.data

    # leg 0: (k, a) in two blocks; leg 1: (k, b) with a different key type
    # width and a column leg 0 lacks; leg 2: pandas blocks (k only)
    left = ray.data.from_arrow(
        [pa.table({"k": pa.array([1, 2, 3], pa.int64()), "a": ["x", "y", "z"]}),
         pa.table({"k": pa.array([3, 9], pa.int64()), "a": ["w", "v"]})]
    )
    right = ray.data.from_arrow(
        pa.table({"k": pa.array([3, 9, 11], pa.int32()), "b": pa.array([0.5, 1.5, 2.5])})
    )
    third = ray.data.from_pandas(pd.DataFrame({"k": np.array([2, 3], np.int64)}))
    return [left, right, third]


def _collect(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values(["k", LEG, "a", "b"], na_position="first").reset_index(drop=True)


def test_cogroup_pads_legs_with_typed_nulls_in_leg_order(ray_session):
    # every group sees the union schema, leg 1's int32 key widened to int64
    want = pa.schema([("k", pa.int64()), ("a", pa.string()), ("b", pa.float64()), (LEG, pa.int8())])
    schemas = coarse_cogroup(_legs(), "k", lambda t: pa.table({"s": [str(t.schema)]}), 8)
    assert set(schemas.to_pandas()["s"]) == {str(want)}
    out = _collect(coarse_cogroup(_legs(), "k", lambda t: t, 8))
    assert TAG not in out.columns
    by_leg = {leg: g for leg, g in out.groupby(LEG)}
    assert sorted(by_leg[0]["k"]) == [1, 2, 3, 3, 9] and by_leg[0]["b"].isna().all()
    assert sorted(by_leg[1]["k"]) == [3, 9, 11] and by_leg[1]["a"].isna().all()
    assert sorted(by_leg[2]["k"]) == [2, 3]
    assert by_leg[2][["a", "b"]].isna().all().all()


def test_cogroup_equal_keys_meet_across_legs_and_blocks(ray_session):
    def fn(t: pa.Table) -> pa.Table:
        k = t.column("k").to_numpy()
        leg = t.column(LEG).to_numpy()
        uk = np.unique(k)
        return pa.table({
            "k": uk,
            "legs": [",".join(map(str, sorted(set(leg[k == x].tolist())))) for x in uk],
            "n": [int((k == x).sum()) for x in uk],
        })

    out = coarse_cogroup(_legs(), "k", fn, 4).to_pandas().sort_values("k")
    # every key comes out of exactly one group, with all of its rows
    assert out["k"].tolist() == [1, 2, 3, 9, 11]
    assert out["legs"].tolist() == ["0", "0,2", "0,1,2", "0,1", "1"]
    assert out["n"].tolist() == [1, 2, 4, 2, 1]


@pytest.mark.parametrize("fmt", ["pandas", "pyarrow"])
def test_cogroup_sparse_keys_emit_empty_partitions_in_declared_format(ray_session, fmt):
    import ray
    import ray.data

    # 2 keys over 64 coarse groups and 8 sort partitions: most partitions
    # are empty, and each must come out as fn's typed output
    a = ray.data.from_arrow(pa.table({"k": [5, 7], "v": [1, 2]})).repartition(8)
    b = ray.data.from_pandas(pd.DataFrame({"k": [7], "w": ["x"]}))

    def fn(batch):
        if fmt == "pandas":
            # the key stays int64; padded int v is float64 in every group
            assert (batch["k"].dtype, batch["v"].dtype) == (np.int64, np.float64)
            return pd.DataFrame({"k": batch["k"].to_numpy(np.int64), "leg": batch[LEG].to_numpy()})
        return pa.table({"k": batch.column("k"), "leg": batch.column(LEG)})

    out = coarse_cogroup([a, b], "k", fn, 64, fmt).materialize()
    blocks = [ray.get(ref) for bundle in out.iter_internal_ref_bundles() for ref, _ in bundle.blocks]
    want = pd.DataFrame if fmt == "pandas" else pa.Table
    assert len(blocks) > 2 and all(isinstance(blk, want) for blk in blocks)
    assert any(len(blk) == 0 for blk in blocks)
    assert all(
        list(blk.columns if fmt == "pandas" else blk.column_names) == ["k", "leg"]
        for blk in blocks if len(blk)
    )
    assert sorted(out.to_pandas()["k"].tolist()) == [5, 7, 7]


def test_cogroup_output_independent_of_num_groups(ray_session):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        return df[["k", LEG, "a", "b"]]

    one = _collect(coarse_cogroup(_legs(), "k", fn, 1, "pandas"))
    default = _collect(coarse_cogroup(_legs(), "k", fn, batch_format="pandas"))
    pd.testing.assert_frame_equal(one, default, check_exact=True)
    assert len(default) == 10


def test_key_index_finds_first_equal_key():
    keys = np.array([7, 3, 9, 3, 5])
    pos, hit = key_index(keys, np.array([3, 4, 9, 10, 7, -1]))
    assert hit.tolist() == [True, False, True, False, True, False]
    assert pos[hit].tolist() == [1, 2, 0]  # the first 3 wins
    pos, hit = key_index(np.array([], np.int64), np.array([1, 2]))
    assert not hit.any() and len(pos) == 2
    pos, hit = key_index(np.array(["b", "a"], object), np.array(["a", "c"], object))
    assert hit.tolist() == [True, False] and pos[0] == 1


def _union_exchanges():
    """(file:line (qualified function), ...) of every Dataset ``.union(...)``
    that feeds a ``groupby`` / ``coarse_groupby`` / ``coarse_cogroup`` in
    the same function, directly or through a local name."""
    import ast

    def is_union(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "union")

    def from_union(node, names):
        # walk a method chain down to its receiver: a.union(b).map(..).groupby
        while True:
            if is_union(node) or (isinstance(node, ast.Name) and node.id in names):
                return True
            if isinstance(node, ast.Call):
                node = node.func
            elif isinstance(node, ast.Attribute):
                node = node.value
            else:
                return False

    def exchange_input(call):
        f = call.func
        if isinstance(f, ast.Attribute) and f.attr == "groupby":
            return [f.value]
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name in ("coarse_groupby", "coarse_cogroup") and call.args:
            arg = call.args[0]
            return list(arg.elts) if isinstance(arg, (ast.List, ast.Tuple)) else [arg]
        return []

    class Finder(ast.NodeVisitor):
        def __init__(self, path):
            self.path, self.stack, self.hits = path, [], []

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            body = [n for n in ast.walk(node)]
            unioned = {
                t.id
                for n in body if isinstance(n, ast.Assign) and from_union(n.value, set())
                for t in n.targets if isinstance(t, ast.Name)
            }
            for n in body:
                if isinstance(n, ast.Call) and any(from_union(x, unioned) for x in exchange_input(n)):
                    # report once, in the innermost function holding the call
                    if self.innermost(node, n):
                        self.hits.append((f"{self.path}:{n.lineno}", ".".join(self.stack)))
            self.generic_visit(node)
            self.stack.pop()

        @staticmethod
        def innermost(fdef, call):
            for sub in ast.walk(fdef):
                if sub is not fdef and isinstance(sub, ast.FunctionDef):
                    if any(c is call for c in ast.walk(sub)):
                        return False
            return True

    files = sorted((ROOT / "grawler_ray").rglob("*.py")) + [ROOT / "__ray_entry__.py"]
    hits = []
    for p in files:
        if p.name != "shuffle.py":
            f = Finder(p.relative_to(ROOT))
            f.visit(ast.parse(p.read_text()))
            hits += f.hits
    return hits


def test_no_hand_written_union_exchange_in_package():
    """Two-sided exchanges go through shuffle.coarse_cogroup: no function
    in the package feeds a hand-written union into an exchange."""
    allowed = set()
    bad = [
        f"{where} ({fn})" for where, fn in _union_exchanges()
        if not any(fn == a or fn.startswith(a + ".") for a in allowed)
    ]
    assert not bad, bad
