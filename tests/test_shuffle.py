"""The coarse-partition hash (grawler_ray/shuffle.py).

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

from grawler_ray.shuffle import coarse_group, coarse_group_tuple
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


def test_tuple_single_int_key_is_coarse_group():
    # repartition_join's single-key, unsalted groups equal coarse_group's
    np.testing.assert_array_equal(coarse_group_tuple([IDS], 64), coarse_group(IDS, 64))
    r = np.arange(len(IDS)) % 3
    salted = coarse_group_tuple([IDS], 64, r)
    mix = IDS.astype(np.uint64) * GOLDEN + r.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)
    np.testing.assert_array_equal(salted, ((mix >> np.uint64(33)) % np.uint64(64)).astype(np.int32))


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
