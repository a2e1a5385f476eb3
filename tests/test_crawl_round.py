"""The crawl round's sizing helpers and its parse-checkpoint writer: the
control-table block count, the fetch exchange's bucket ranges, and the file
each parse task writes (one per block, overwritten whole on retry)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from grawler_ray.config import CrawlConfig
from grawler_ray.pipelines.crawl import (
    PARSED_COLUMNS,
    SLIM_COLUMNS,
    ParsePages,
    _bucket_boundaries,
    _parallelism,
    _write_parsed,
)


@pytest.mark.parametrize(
    "cpus,rows,want",
    [
        (4, 0, 4), (4, 300, 4), (4, 10**6, 11), (4, 10**9, 512),
        (32, 0, 32), (32, 300, 32), (32, 10**6, 32), (32, 10**9, 512),
    ],
)
def test_parallelism_table(cpus, rows, want):
    assert _parallelism(cpus, rows) == want


@pytest.mark.parametrize(
    "buckets,ranges",
    [(32, 8), (32, 7), (32, 32), (32, 64), (256, 8), (5, 3), (3, 5), (1, 1), (1, 8)],
)
def test_bucket_boundaries_cover_every_bucket_once(buckets, ranges):
    bounds = _bucket_boundaries(buckets, ranges)
    assert bounds == sorted(set(bounds))
    # Ray's sort(boundaries=) rule: bucket b goes to range #(bounds <= b)
    which = np.searchsorted(bounds, np.arange(buckets), side="right")
    sizes = np.bincount(which, minlength=len(bounds) + 1)
    assert len(sizes) == min(ranges, buckets)
    assert sizes.min() >= 1 and sizes.max() - sizes.min() <= 1
    assert sizes.sum() == buckets


def test_bucket_ranges_under_ray_sort(ray_session):
    """Each block of ``sort(boundaries=...)`` holds exactly one range: every
    bucket in one block, blocks in range order."""
    import ray.data

    buckets, ranges = 10, 4
    bounds = _bucket_boundaries(buckets, ranges)
    rows = np.tile(np.arange(buckets, dtype=np.int32), 5)
    ds = ray.data.from_arrow(
        [pa.table({"bucket": rows[i::3]}) for i in range(3)]
    ).sort("bucket", boundaries=bounds)
    got = [
        sorted(set(b.column("bucket").to_pylist()))
        for b in ds.iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows
    ]
    edges = [0] + bounds + [buckets]
    assert got == [list(range(a, b)) for a, b in zip(edges, edges[1:])]


def _parsed_block(cfg: CrawlConfig, cash: bool) -> pa.Table:
    """ParsePages output over three fetched rows: a page, a miss, a type drop."""
    html = (
        b"<html><head><title>T</title><meta name='robots' content='noindex'></head>"
        b"<body><p>hello world</p><a href='/a'>a</a><a href='/b'>b</a></body></html>"
    )
    n = 3
    cols = {
        "seq": pa.array([7, 3, 9], pa.int64()),
        "url": ["https://h.test/", "https://h.test/x", "https://h.test/y"],
        "parent_url": ["", "https://h.test/", "https://h.test/"],
        "host": ["h.test"] * n,
        "base_url": ["https://h.test"] * n,
        "key_hash": pa.array([1, 2, 3], pa.uint64()),
    }
    if cash:
        cols["cash"] = pa.array([10, 20, 30], pa.int64())
    cols.update(
        html=pa.array([html, b"", b"%PDF"], pa.binary()),
        content_type=["text/html; charset=utf-8", "", "application/pdf"],
        status_code=pa.array([200, 0, 200], pa.int16()),
        found=[True, False, True],
    )
    return ParsePages(cfg)(pa.table(cols))


@pytest.mark.parametrize("cash,noindex", [(False, False), (True, False), (False, True)])
def test_write_parsed_overwrites_its_own_file(tmp_path, cash, noindex):
    cfg = CrawlConfig(respect_nofollow=noindex)
    block = _parsed_block(cfg, cash)
    extra = (["cash"] if cash else []) + (["noindex"] if noindex else [])
    i = PARSED_COLUMNS.index("key_hash") + 1
    assert block.column_names == PARSED_COLUMNS[:i] + extra + PARSED_COLUMNS[i:]
    assert block.column("action").to_pylist() == ["fetched", "fetch-miss", "type-drop"]

    parsed = str(tmp_path / "parsed")
    write = _write_parsed(parsed, opic=cash)
    slim = write(block)
    write(block)  # a retried task
    files = os.listdir(parsed)
    assert files == [f"part-{3:020d}.parquet"]  # the block's first seq
    on_disk = pq.read_table(os.path.join(parsed, files[0]))
    assert on_disk.schema.remove_metadata() == block.schema.remove_metadata()
    assert on_disk.equals(block)
    assert slim.equals(block.select(SLIM_COLUMNS + (["cash"] if cash else [])))
