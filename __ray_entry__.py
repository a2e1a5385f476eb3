"""Driver contract for the graft builder (Ray Data target).

The driver initializes Ray BEFORE importing this module; nothing here may
call ray.init()/ray.shutdown().  Each ``queries()[name](sf_dir)`` is compared
against ``oracle_sql()[name]`` via DuckDB at sf=0.01 (row-count + schema +
order-insensitive value-hash); entries without SQL get a rows-only check.

Operator inventory coverage: SURVEY.md §2 (crawl engine ops are exercised by
the ``crawl_*`` entries over the deterministic synthetic corpus — the
reference's pipeline is not SQL-expressible end-to-end) plus the
training-data ops (dedup / similarity / text analysis / multimodal) over the
driver-provided tables.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

STOP_SQL = "('the','a','and','of','to','in','is','on','for','by')"
ANN_QUERY_IDS = [0, 1, 2, 3, 4]


def _read(sf_dir: str, table: str):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, f"{table}.parquet"))


# ---------------------------------------------------------------------------
# flagship crawl (synthetic corpus; rows-only checks)
# ---------------------------------------------------------------------------

_CRAWL_CACHE: dict[str, str] = {}


def _ensure_crawl(tag: str = "entry", n_hosts: int = 6, pages_per_host: int = 12) -> str:
    """Generate the deterministic corpus + run the crawl once per process."""
    if tag in _CRAWL_CACHE:
        return _CRAWL_CACHE[tag]
    from grawler_ray.config import CrawlConfig
    from grawler_ray.pipelines.crawl import run_crawl
    from grawler_ray.sources.corpus import (
        generate_corpus,
        generate_robots_cache,
        seed_urls,
    )

    base = f"/tmp/grawler_entry_{tag}"
    corpus = f"{base}/corpus"
    out = f"{base}/out"
    shutil.rmtree(base, ignore_errors=True)
    cfg = CrawlConfig(
        per_host_quota=3, max_rounds=6, num_fetch_buckets=8, seen_shards=4, out_dir=out
    )
    generate_corpus(corpus, n_hosts=n_hosts, pages_per_host=pages_per_host, seed=42, num_buckets=8)
    robots = f"{base}/robots.parquet"
    generate_robots_cache(robots, 42, n_hosts, cfg.now_us)
    run_crawl(corpus, seed_urls(n_hosts, 3), cfg, robots_cache_path=robots)
    _CRAWL_CACHE[tag] = out
    return out


def _ensure_extended_crawl() -> str:
    """Office-mix corpus crawled with extended_doc_types=True, once per
    process (cached like [[_ensure_crawl]])."""
    tag = "extdocs"
    if tag in _CRAWL_CACHE:
        return _CRAWL_CACHE[tag]
    from grawler_ray.config import CrawlConfig
    from grawler_ray.pipelines.crawl import run_crawl
    from grawler_ray.sources.corpus import (
        generate_corpus,
        generate_robots_cache,
        seed_urls,
    )

    base = f"/tmp/grawler_entry_{tag}"
    corpus = f"{base}/corpus"
    out = f"{base}/out"
    shutil.rmtree(base, ignore_errors=True)
    cfg = CrawlConfig(
        per_host_quota=3, max_rounds=6, num_fetch_buckets=8, seen_shards=4,
        out_dir=out, extended_doc_types=True,
    )
    generate_corpus(
        corpus, n_hosts=6, pages_per_host=12, seed=42, num_buckets=8,
        office_mix=True,
    )
    robots = f"{base}/robots.parquet"
    generate_robots_cache(robots, 42, 6, cfg.now_us)
    run_crawl(corpus, seed_urls(6, 3), cfg, robots_cache_path=robots)
    _CRAWL_CACHE[tag] = out
    return out


def _crawl_extended_docs(sf_dir: str):
    """extended_doc_types crawl over the office-mix corpus: the document
    sink rows whose content_type is PDF/DOCX/ODT/RTF — text extracted
    inline by the office parsers during the crawl (config.py
    extended_doc_types; full-trace oracle equality in
    tests/test_extended_types.py).  Rows-only; input is the synthetic
    corpus, not sf_dir."""
    from grawler_ray.pipelines.crawl import read_documents

    out = _ensure_extended_crawl()
    docs = read_documents(out)

    def office_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ct = t.column("content_type")
        mask = pc.or_(
            pc.or_(
                pc.match_substring(ct, "wordprocessingml"),
                pc.match_substring(ct, "opendocument"),
            ),
            pc.or_(pc.match_substring(ct, "rtf"), pc.equal(ct, "application/pdf")),
        )
        return t.filter(mask).select(
            ["url", "content_type", "status_code", "content"]
        )

    return docs.map_batches(office_only, batch_format="pyarrow")


def entry() -> Any:
    """Flagship: frontier-scheduled fetch+extract crawl over the synthetic
    Common-Crawl-style corpus; returns the documents table (byte-identical
    extracted text per url vs the corpus golden text column)."""
    from grawler_ray.pipelines.crawl import read_documents

    out = _ensure_crawl()
    return read_documents(out)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def _word_freq(sf_dir: str):
    from grawler_ray.functions.textstats import word_freq_batch

    return _read(sf_dir, "documents").map_batches(word_freq_batch, batch_format="pyarrow")


def _process_text(sf_dir: str):
    from grawler_ray.functions.textstats import process_text_batch

    return _read(sf_dir, "documents").map_batches(process_text_batch, batch_format="pyarrow")


def _doc_stats(sf_dir: str):
    from grawler_ray.functions.textstats import doc_stats_batch

    return _read(sf_dir, "documents").map_batches(doc_stats_batch, batch_format="pyarrow")


def _fingerprint(sf_dir: str):
    from grawler_ray.functions.textstats import fingerprint_batch

    return _read(sf_dir, "documents").map_batches(fingerprint_batch, batch_format="pyarrow")


def _token_count(sf_dir: str):
    from grawler_ray.functions.textstats import token_count_batch

    return _read(sf_dir, "documents").map_batches(token_count_batch, batch_format="pyarrow")


def _exact_dedup(sf_dir: str):
    from grawler_ray.functions.dedup import exact_dedup_group, exact_hash_batch

    return (
        _read(sf_dir, "documents")
        .map_batches(exact_hash_batch, batch_format="pyarrow")
        .groupby("text_hash")
        .map_groups(exact_dedup_group, batch_format="pandas")
    )


def _normalized_dedup(sf_dir: str):
    """C4-style near-exact dedup: first-wins per NFC+whitespace-normalized
    md5 (coarse-hash groups, payload never shuffles)."""
    from grawler_ray.functions.dedup import normalized_dedup

    return normalized_dedup(_read(sf_dir, "documents"))


def _shuffle_shards(sf_dir: str):
    """Deterministic global shuffle-to-shards: Knuth-hash shard id +
    within-shard position (the reproducible training-order assignment)."""
    from grawler_ray.functions.sampling import shuffle_shards

    return shuffle_shards(_read(sf_dir, "documents"), num_shards=16)


def _lang_count(sf_dir: str):
    from ray.data.aggregate import Count

    return _read(sf_dir, "documents").groupby("lang").aggregate(Count(alias_name="n"))


def _top_words(sf_dir: str):
    """Global top-100 words: per-batch partial combine BEFORE the shuffle
    (the pre-aggregation pattern — the groupby then moves one row per
    distinct word per batch, not one per token)."""
    from grawler_ray.functions.textstats import word_count_partial
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        return word_count_partial(t)

    ds = (
        _read(sf_dir, "documents")
        .map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("partial", alias_name="total"))
        .sort(["total", "word"], descending=[True, False])
        .limit(100)
    )
    return ds


def _top_words_per_lang(sf_dir: str):
    from grawler_ray.functions.textstats import top_words_per_lang

    return top_words_per_lang(_read(sf_dir, "documents"), k=10)


def _events_first(sf_dir: str):
    def first_event(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        return pd.DataFrame(
            {
                "user_id": [df["user_id"].iloc[0]],
                "event_type": [df["event_type"].iloc[0]],
                "first_event_id": [int(df["event_id"].iloc[0])],
            }
        )

    return (
        _read(sf_dir, "events")
        .groupby(["user_id", "event_type"])
        .map_groups(first_event, batch_format="pandas")
    )


def _politeness_slots(sf_dir: str, quota: int = 4):
    """T2 politeness analog on the events table: per user, slot = arrival
    rank; admitted = slot < quota (SURVEY §2.3 T2 made SQL-checkable)."""

    def slots(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["ts", "event_id"])
        out = df[["event_id", "user_id"]].copy()
        out["slot"] = np.arange(len(df), dtype=np.int64)
        out["admitted"] = out["slot"] < quota
        return out

    return _read(sf_dir, "events").groupby("user_id").map_groups(slots, batch_format="pandas")


def _sessionize(sf_dir: str):
    from grawler_ray.functions.events import sessionize

    return sessionize(_read(sf_dir, "events"), gap_minutes=30)


def _rolling_sum(sf_dir: str):
    from grawler_ray.functions.events import rolling_sum

    return rolling_sum(_read(sf_dir, "events"), window=4)


def _rolling_distinct(sf_dir: str):
    """Trailing-window exact distinct count (lag-matrix kernel; windowed
    list_distinct mirror)."""
    from grawler_ray.functions.events import rolling_distinct_types

    return rolling_distinct_types(_read(sf_dir, "events"), window=4)


def _user_distinct_types(sf_dir: str):
    """Cumulative exact distinct-count window (first-occurrence flag +
    running sum — the count(DISTINCT) OVER derivation, mirrored)."""
    from grawler_ray.functions.events import cumulative_distinct_types

    return cumulative_distinct_types(_read(sf_dir, "events"))


def _last_touch(sf_dir: str):
    """Last-touch attribution: purchase -> most recent strictly-prior
    view/click by the same user; NULL when untouched (Arrow
    int64-with-nulls -> float64/NaN, the nullable-int invariant)."""
    from grawler_ray.functions.events import last_touch_attribution

    return last_touch_attribution(_read(sf_dir, "events"))


def _rolling_median(sf_dir: str):
    """Exact per-user ROWS-window median (interpolated even windows) —
    the lag-matrix row-sort kernel; one coarse user-hash exchange."""
    from grawler_ray.functions.events import rolling_median

    return rolling_median(_read(sf_dir, "events"), window=4)


def _events_hourly(sf_dir: str):
    from grawler_ray.functions.events import hourly_agg

    return hourly_agg(_read(sf_dir, "events"))


def _events_json(sf_dir: str):
    from grawler_ray.functions.events import json_prop

    return json_prop(_read(sf_dir, "events"), key="k")


def _asof_join(sf_dir: str):
    from grawler_ray.functions.joins import asof_join

    return asof_join(_read(sf_dir, "events"), left_type="click", right_type="purchase")


def _range_join_count(sf_dir: str):
    from grawler_ray.functions.joins import range_join_count

    return range_join_count(_read(sf_dir, "events"), every=100, window_minutes=30)


def _time_window_sum(sf_dir: str):
    from grawler_ray.functions.events import time_window_sum

    return time_window_sum(_read(sf_dir, "events"))


def _repetition_signals(sf_dir: str):
    from grawler_ray.functions.quality import repetition_signals_batch

    return _read(sf_dir, "documents").map_batches(
        repetition_signals_batch, batch_format="pyarrow"
    )


def _tfidf_topk(sf_dir: str):
    from grawler_ray.functions.textstats import tfidf_topk

    return tfidf_topk(_read(sf_dir, "documents"), k=5)


def _line_dedup(sf_dir: str):
    """Global boilerplate strip at word granularity (sep=' ') — the
    synthetic documents are single-line bags of words, so the word unit is
    the one that exercises the count -> blocklist -> rewrite path; the
    '\\n' line path is covered by tests/test_joins_quality.py.  The corpus
    vocabulary is ~31 words each appearing ~900x, so at max_rep=100 nearly
    every token is stripped — degenerate-looking output is a property of
    the fixture, not the operator (the oracle agrees row-for-row)."""
    from grawler_ray.functions.quality import line_dedup

    return line_dedup(_read(sf_dir, "documents"), max_rep=100, sep=" ")


def _line_dedup_join(sf_dir: str):
    """line_dedup strategy="join" — the no-driver-state shuffle plan
    (SCALE.md round-4); same semantics and SQL oracle as line_dedup."""
    from grawler_ray.functions.quality import line_dedup

    return line_dedup(
        _read(sf_dir, "documents"), max_rep=100, sep=" ", strategy="join"
    )


def _decontaminate(sf_dir: str):
    """Docs with source='src0' act as the benchmark/eval set; every other
    doc is training data to be screened for 3-gram overlap."""
    from grawler_ray.functions.quality import decontaminate

    docs = _read(sf_dir, "documents")
    bench = docs.filter(expr="source == 'src0'")
    train = docs.filter(expr="source != 'src0'")
    return decontaminate(train, bench, k=3)


def _inverted_index(sf_dir: str):
    from grawler_ray.functions.textstats import inverted_index

    return inverted_index(_read(sf_dir, "documents"))


def _length_quantiles(sf_dir: str):
    from grawler_ray.functions.textstats import length_quantiles

    return length_quantiles(_read(sf_dir, "documents"))


def _normalize_text(sf_dir: str):
    from grawler_ray.functions.textstats import normalize_text_batch

    return _read(sf_dir, "documents").map_batches(
        normalize_text_batch, batch_format="pyarrow"
    )


def _rare_word_ratio(sf_dir: str):
    from grawler_ray.functions.textstats import rare_word_ratio

    return rare_word_ratio(_read(sf_dir, "documents"), max_df=2)


def _customers_without_orders(sf_dir: str):
    """Customers with no high-value (>= 400k) order: the large x large
    anti-join path (both sides shuffle; nothing broadcasts)."""
    import pyarrow.compute as _pc

    from grawler_ray.functions.joins import hash_anti_join

    def big_orders(t: pa.Table) -> pa.Table:
        return t.filter(_pc.greater_equal(t.column("o_totalprice"), 400_000.0))

    right = (
        _read(sf_dir, "orders")
        .select_columns(["o_custkey", "o_totalprice"])
        .map_batches(big_orders, batch_format="pyarrow")
        .select_columns(["o_custkey"])
    )
    return hash_anti_join(
        _read(sf_dir, "customer"), right, on_left="c_custkey", on_right="o_custkey"
    )


def _customers_with_orders(sf_dir: str):
    """Customers with at least one high-value (>= 400k) order: the semi-join
    (IN-subquery) complement of ``customers_without_orders`` — left rows
    kept at most once however many qualifying orders exist, right side
    ships keys only."""
    import pyarrow.compute as _pc

    from grawler_ray.functions.joins import hash_semi_join

    def big_orders(t: pa.Table) -> pa.Table:
        return t.filter(_pc.greater_equal(t.column("o_totalprice"), 400_000.0))

    right = (
        _read(sf_dir, "orders")
        .select_columns(["o_custkey", "o_totalprice"])
        .map_batches(big_orders, batch_format="pyarrow")
        .select_columns(["o_custkey"])
    )
    return hash_semi_join(
        _read(sf_dir, "customer"), right, on_left="c_custkey", on_right="o_custkey"
    )


def _docs_by_length(sf_dir: str):
    # global range-partitioned sort (Ray's all-to-all sort operator) with a
    # deterministic (n_chars desc, doc_id asc) tiebreak, then limit
    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "n_chars"])
        .sort(key=["n_chars", "doc_id"], descending=[True, False])
        .limit(100)
    )


def _quantile_sketch(sf_dir: str):
    from grawler_ray.functions.sketch import quantile_sketch

    # k >= n: compression never fires, answers are the exact lower
    # quantiles and the SQL gate checks them (same convention as
    # topk_words_sketch); the error-bounded compressed regime is proven in
    # tests/test_sketch.py
    return quantile_sketch(_read(sf_dir, "documents"), "n_chars", k=1_000_000)


def _grouped_quantile_sketch(sf_dir: str):
    from grawler_ray.functions.sketch import grouped_quantile_sketch

    # k >= max group size: exact per-group lower quantiles (SQL-checked);
    # the compressed regime is proven in tests/test_sketch.py
    return grouped_quantile_sketch(
        _read(sf_dir, "documents"), "lang", "n_chars", k=1_000_000
    )


def _revenue_by_region(sf_dir: str):
    """TPC-H-Q5-style multi-join chain: lineitem |X| orders |X| customer
    |X| nation |X| region -> revenue per region.  The two big joins
    (lineitem x orders, orders x customer) go through the repartition
    join; the two dimension tables (nation 25 rows, region 5 rows — fixed
    size at ANY scale factor) collapse to one broadcast nationkey ->
    region-name map.  Revenue is integer cents (floor(px*(1-disc)*100+.5),
    same expression in the SQL oracle) so sums are order-independent."""
    import pyarrow.compute as _pc
    import ray
    from ray.data.aggregate import Sum

    from grawler_ray.functions.joins import repartition_join

    nation = _read(sf_dir, "nation").to_pandas()
    region = _read(sf_dir, "region").to_pandas()
    reg_name = dict(zip(region.r_regionkey, region.r_name))
    nat2reg = {
        int(k): reg_name[v] for k, v in zip(nation.n_nationkey, nation.n_regionkey)
    }

    # dense nationkey -> region-name lookup array (25 entries): the batch
    # map is one numpy take, not per-row dict lookups
    lut = np.empty(max(nat2reg) + 1, dtype=object)
    for nk, rn in nat2reg.items():
        lut[nk] = rn

    cust_ds = _read(sf_dir, "customer").select_columns(["c_custkey", "c_nationkey"])
    # customer is the SMALL side of orders |X| customer: below the guard it
    # broadcasts as one sorted (custkey -> region) lookup (ray.put once,
    # searchsorted per batch — a map-side join, zero exchanges); above it,
    # the hashed repartition join (the 100-TB path when customer no longer
    # fits a worker heap: 5M rows ~ 80 MB broadcast).
    if cust_ds.count() <= _BCAST_MAX_ROWS:
        cust_pd = cust_ds.to_pandas()
        ck = cust_pd["c_custkey"].to_numpy()
        order = np.argsort(ck, kind="stable")
        ck_sorted = ck[order]
        reg_sorted = lut[cust_pd["c_nationkey"].to_numpy()[order]]
        lookup_ref = ray.put((ck_sorted, reg_sorted))

        def attach_region_bcast(t: pa.Table) -> pa.Table:
            k, r = ray.get(lookup_ref)
            ok = t.column("o_custkey").to_numpy(zero_copy_only=False)
            idx = np.clip(np.searchsorted(k, ok), 0, len(k) - 1)
            m = len(k) > 0 and k[idx] == ok  # inner-join: drop missing custkeys
            if not isinstance(m, np.ndarray):
                m = np.zeros(len(ok), dtype=bool)
            return pa.table(
                {
                    "o_orderkey": t.column("o_orderkey").filter(pa.array(m)),
                    "r_name": pa.array(r[idx][m], pa.string()),
                }
            )

        ord_r = (
            _read(sf_dir, "orders")
            .select_columns(["o_orderkey", "o_custkey"])
            .map_batches(attach_region_bcast, batch_format="pyarrow")
        )
    else:

        def attach_region(t: pa.Table) -> pa.Table:
            keys = t.column("c_nationkey").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "c_custkey": t.column("c_custkey"),
                    "r_name": pa.array(lut[keys], pa.string()),
                }
            )

        cust = cust_ds.map_batches(attach_region, batch_format="pyarrow")
        ord_r = repartition_join(
            _read(sf_dir, "orders").select_columns(["o_orderkey", "o_custkey"]),
            cust,
            on_left="o_custkey",
            on_right="c_custkey",
        ).select_columns(["o_orderkey", "r_name"])

    def line_cents(t: pa.Table) -> pa.Table:
        # pre-aggregate per orderkey INSIDE the batch before the big join:
        # ~4 lineitems/order collapse to one partial row, so the join
        # exchange moves orders, not items (partial sums stay < 2^53, so
        # the float64 bincount accumulator is exact)
        px = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = t.column("l_discount").to_numpy(zero_copy_only=False)
        cents = np.floor(px * (1 - disc) * 100.0 + 0.5)
        ok = t.column("l_orderkey").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(ok, return_inverse=True)
        sums = np.bincount(inv, weights=cents).astype(np.int64)
        n = np.bincount(inv).astype(np.int64)
        return pa.table(
            {
                "l_orderkey": pa.array(uniq, pa.int64()),
                "cents": pa.array(sums, pa.int64()),
                "n_items": pa.array(n, pa.int64()),
            }
        )

    line = (
        _read(sf_dir, "lineitem")
        .select_columns(["l_orderkey", "l_extendedprice", "l_discount"])
        .map_batches(line_cents, batch_format="pyarrow")
    )
    joined = repartition_join(line, ord_r, on_left="l_orderkey", on_right="o_orderkey")

    def region_partial(t: pa.Table) -> pa.Table:
        # per-batch 5-group partial so the final exchange carries
        # ~blocks x regions rows, never one row per order
        import pandas as _pd

        codes, uniq = _pd.factorize(
            np.asarray(t.column("r_name").to_pylist(), dtype=object)
        )
        cents = t.column("cents").to_numpy(zero_copy_only=False).astype(np.float64)
        nit = t.column("n_items").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "r_name": pa.array(list(uniq), pa.string()),
                "cents": pa.array(
                    np.bincount(codes, weights=cents).astype(np.int64), pa.int64()
                ),
                "n_items": pa.array(
                    np.bincount(codes, weights=nit).astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        joined.map_batches(region_partial, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(
            Sum("cents", alias_name="revenue_cents"),
            Sum("n_items", alias_name="n_items"),
        )
    )


def _dup_spans(sf_dir: str):
    """Exact-substring duplication stats (Lee et al. 2022 window-hash
    approximation): 40-char windows, stride 10, duplicated when the exact
    window text occurs at >= 2 (doc, pos) sites corpus-wide."""
    from grawler_ray.functions.dedup import dup_span_stats

    return dup_span_stats(_read(sf_dir, "documents"), window=40, stride=10)


def _dup_spans_join(sf_dir: str):
    """dup_span_stats strategy="join" — the 100-TB plan (one coarse
    span-hash shuffle, run-length-is-multiplicity, NO driver state; SCALE.md
    round-4).  Same semantics and same SQL oracle as dup_spans, so the
    driver gate proves the scale path, not just the broadcast one."""
    from grawler_ray.functions.dedup import dup_span_stats

    return dup_span_stats(
        _read(sf_dir, "documents"), window=40, stride=10, strategy="join"
    )


def _topk_words_sketch(sf_dir: str):
    """Misra-Gries top-k. capacity=4096 >= this corpus's vocabulary, so the
    summaries never decrement and est_count is exact — SQL-checked against
    the top_words aggregation; tests/test_sketch.py proves the
    approximation guarantee in the capacity < vocabulary regime."""
    from grawler_ray.functions.sketch import topk_words_sketch

    return topk_words_sketch(_read(sf_dir, "documents"), k=100, capacity=4096)


def _approx_distinct_words(sf_dir: str):
    """HyperLogLog distinct-word estimate (rows-only: the estimate is
    implementation-defined; tests/test_sketch.py bounds the error vs the
    exact count at 20k-distinct scale)."""
    from grawler_ray.functions.sketch import hll_distinct
    from grawler_ray.textops import _WORD_RE

    def words(t):
        out = []
        for s in t.column("text").to_pylist():
            out.extend(_WORD_RE.findall((s or "").lower()))
        return out

    return hll_distinct(_read(sf_dir, "documents"), words, p=12)


def _semdedup(sf_dir: str):
    """SemDedup (Abbas et al. 2023): k-means the embedding space, mark
    within-cluster cosine >= 0.93 duplicates (keep the smallest vec_id).
    Rows-only for the driver gate (k-means isn't SQL-expressible);
    tests/test_semdedup.py holds the serial-numpy oracle equality."""
    from grawler_ray.functions.similarity import semdedup

    return semdedup(_read(sf_dir, "embeddings"), k=16, threshold=0.93)


def _quality_filter(sf_dir: str):
    from grawler_ray.functions.quality import quality_filter_batch

    return _read(sf_dir, "documents").map_batches(
        quality_filter_batch(), batch_format="pyarrow"
    )


def _lang_quality_buckets(sf_dir: str):
    """CCNet-style head/middle/tail split: NTILE(3) per language over a
    per-doc quality score (n_chars here — the synthetic corpus's stand-in
    for an LM score; the operator takes any int column)."""
    from grawler_ray.functions.sampling import group_ntile

    return group_ntile(
        _read(sf_dir, "documents").select_columns(["lang", "doc_id", "n_chars"]),
        group_col="lang",
        id_col="doc_id",
        value_col="n_chars",
        n_tiles=3,
    )


def _curate_corpus(sf_dir: str):
    """The CCNet/DSIR curation composition (langid → LM-score tiles →
    tail drop → DSIR weights → per-(lang, tile) summary).  Rows-only
    (langid + the smoothed log-ratio aren't SQL-expressible);
    tests/test_curate.py holds the full serial-oracle equality."""
    import pyarrow.compute as _pc

    from grawler_ray.pipelines.preprocess import curate_corpus

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    target = (
        _read(sf_dir, "documents")
        .map_batches(
            lambda t: t.filter(_pc.equal(t.column("lang"), "en")),
            batch_format="pyarrow",
        )
        .select_columns(["doc_id", "text"])
    )
    return curate_corpus(docs, target, dsir_num_buckets=4096)


def _lineitem_moments(sf_dir: str):
    """Exact grouped moments (count / scaled sum / floor mean / floor
    population variance) — integer partial sums, Python-int finish; the
    oracle mirrors the HUGEINT arithmetic."""
    from grawler_ray.functions.stats import grouped_moments

    return grouped_moments(
        _read(sf_dir, "lineitem").select_columns(["l_returnflag", "l_quantity"]),
        "l_returnflag",
        "l_quantity",
        value_scale=100,
    )


def _price_qty_regression(sf_dir: str):
    """Per-returnflag OLS of extendedprice (cents) on quantity
    (hundredths): all-integer truncation-scaled slope/intercept — five
    int64 partial sums map-side, one tiny groupby, Python-int finish;
    the oracle computes the same HUGEINT `//` expression."""
    from grawler_ray.functions.stats import grouped_regression

    return grouped_regression(
        _read(sf_dir, "lineitem").select_columns(
            ["l_returnflag", "l_quantity", "l_extendedprice"]
        ),
        "l_returnflag",
        "l_quantity",
        "l_extendedprice",
    )


def _qty_discount_corr(sf_dir: str):
    """Per-group Pearson correlation as a floor-scaled integer — six
    int64 partial sums, one float expression per GROUP computed
    identically by the oracle."""
    from grawler_ray.functions.stats import grouped_corr

    return grouped_corr(
        _read(sf_dir, "lineitem").select_columns(
            ["l_returnflag", "l_quantity", "l_discount"]
        ),
        "l_returnflag",
        "l_quantity",
        "l_discount",
    )


def _zscore_orders(sf_dir: str):
    """Per-row within-group z-score in the overflow-free integer
    formulation (z = (n·x − Σx)/sqrt(n·Σx² − (Σx)²)) — moments broadcast
    once, second pass shuffle-free."""
    from grawler_ray.functions.stats import zscore_normalize

    return zscore_normalize(
        _read(sf_dir, "orders").select_columns(
            ["o_orderkey", "o_orderpriority", "o_totalprice"]
        ),
        group_col="o_orderpriority",
        id_col="o_orderkey",
        value_col="o_totalprice",
    )


def _bpe_merges(sf_dir: str):
    """Distributed BPE merge training (Sennrich et al. 2016) over the
    documents word-frequency table.  Rows-only: the iterative greedy
    argmax isn't SQL-expressible; tests/test_stats.py holds the serial
    Counter-BPE equality."""
    from grawler_ray.functions.stats import bpe_train

    return bpe_train(
        _read(sf_dir, "documents").select_columns(["text"]), num_merges=12
    )


def _qty_histogram(sf_dir: str):
    """Per-group equal-width histogram on the scaled-integer value —
    vectorized (group, bin) partials re-based per batch, one small
    composite-key groupby; the oracle mirrors the integer floor-div
    binning (values non-negative by construction, the // parity guard)."""
    from grawler_ray.functions.stats import grouped_histogram

    return grouped_histogram(
        _read(sf_dir, "lineitem").select_columns(["l_returnflag", "l_quantity"]),
        "l_returnflag",
        "l_quantity",
        bin_width=500,
        value_scale=100,
    )


def _weighted_sample(sf_dir: str):
    """Sequential Poisson weighted k-sample (Ohlsson 1998): priority
    u/w with u the Knuth id-hash and w the doc length — the single IEEE
    divide is bit-identical in numpy and DuckDB, so the exact row set is
    SQL-checkable.  Partial top-k per batch, one tiny final selection."""
    from grawler_ray.functions.sampling import weighted_sample_k

    return weighted_sample_k(
        _read(sf_dir, "documents").select_columns(["doc_id", "n_chars"]),
        id_col="doc_id",
        weight_col="n_chars",
        k=50,
    )


def _transition_counts(sf_dir: str):
    """First-order Markov event-type transition matrix: consecutive
    same-user events in (ts, event_id) order — one coarse user-hash
    shuffle, factorized bincount partials (∝ type-vocab², not events)."""
    from grawler_ray.functions.events import transition_counts

    return transition_counts(
        _read(sf_dir, "events").select_columns(
            ["event_id", "ts", "user_id", "event_type"]
        )
    )


def _ewma_scores(sf_dir: str):
    """Per-user exponential-decay recency score (24h halflife) — one
    coarse user-hash shuffle + run-scan; rows-only (2^x is libm, not
    SQL-hash-stable); tests/test_events.py holds the serial numpy
    oracle equality."""
    from grawler_ray.functions.events import ewma_user_score

    return ewma_user_score(
        _read(sf_dir, "events").select_columns(
            ["event_id", "ts", "user_id", "value"]
        )
    )


def _doc_entropy(sf_dir: str):
    """Per-doc unigram Shannon entropy (token-diversity quality signal)
    — shuffle-free vectorized map; 2-decimal integer-scaled entropy
    emitted float64/NaN (empty docs NULL; driver repr rule)."""
    from grawler_ray.functions.textstats import doc_entropy_batch

    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "text"])
        .map_batches(doc_entropy_batch, batch_format="pyarrow")
    )


def _span_overlap_counts(sf_dir: str):
    """Interval x interval co-activity WITHOUT pair explosion: two sorted
    boundary arrays broadcast once, two searchsorted per user."""
    from grawler_ray.functions.events import span_overlap_counts

    return span_overlap_counts(_read(sf_dir, "events"))


def _pdf_ingest(sf_dir: str):
    """S8 (ReadPdfFromBytes) through the gate: one minimal PDF per doc
    synthesized from `text` (FlateDecode on even ids, hex-encoded string
    on ids % 3 == 0, literal escaping otherwise), extracted back with the
    real parser — the oracle predicts length/md5 straight from `text`,
    so the whole build-escape-compress-extract round-trip is SQL-checked.
    Stateless per-doc map, no shuffle."""
    import hashlib

    import pyarrow as pa

    from grawler_ray.functions.pdf import build_simple_pdf, read_pdf_from_bytes

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        lens, md5s = [], []
        for i, txt in zip(ids, texts):
            data = build_simple_pdf(
                txt or "", flate=i % 2 == 0, hex_encode=i % 3 == 0
            )
            got = read_pdf_from_bytes(data)
            lens.append(len(got))
            md5s.append(hashlib.md5(got.encode("latin-1")).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars_pdf": pa.array(lens, pa.int64()),
                "pdf_md5": pa.array(md5s, pa.string()),
            }
        )

    return _read(sf_dir, "documents").map_batches(fn, batch_format="pyarrow")


def _docx_ingest(sf_dir: str):
    """Office-document ingest next to S8's PDF: one minimal DOCX per doc
    synthesized from `text` (multi-run splitting on even ids), unzipped
    and XML-parsed back with the real extractor (functions/docx.py) —
    the oracle predicts length/md5 straight from `text`, so the whole
    build-zip-parse-extract round-trip is SQL-checked.  Stateless
    per-doc map, no shuffle."""
    import hashlib

    import pyarrow as pa

    from grawler_ray.functions.docx import build_docx, extract_docx_text

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        lens, md5s = [], []
        for i, txt in zip(ids, texts):
            data = build_docx(txt or "", split_runs=i % 2 == 0)
            got = extract_docx_text(data)
            lens.append(len(got))
            md5s.append(hashlib.md5(got.encode("utf-8")).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars_docx": pa.array(lens, pa.int64()),
                "docx_md5": pa.array(md5s, pa.string()),
            }
        )

    return _read(sf_dir, "documents").map_batches(fn, batch_format="pyarrow")


def _odt_ingest(sf_dir: str):
    """OpenDocument ingest (functions/odt.py): one minimal ODT per doc
    synthesized from `text` (span-wrapped runs on even ids; space runs
    encoded via text:s per the ODF writer convention), unzipped and
    XML-parsed back with the real extractor — the oracle predicts
    length/md5 straight from `text`.  Stateless per-doc map."""
    import hashlib

    import pyarrow as pa

    from grawler_ray.functions.odt import build_odt, extract_odt_text

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        lens, md5s = [], []
        for i, txt in zip(ids, texts):
            data = build_odt(txt or "", use_spans=i % 2 == 0)
            got = extract_odt_text(data)
            lens.append(len(got))
            md5s.append(hashlib.md5(got.encode("utf-8")).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars_odt": pa.array(lens, pa.int64()),
                "odt_md5": pa.array(md5s, pa.string()),
            }
        )

    return _read(sf_dir, "documents").map_batches(fn, batch_format="pyarrow")


def _rtf_ingest(sf_dir: str):
    """RTF ingest (functions/rtf.py): one minimal RTF per doc
    synthesized from `text` (\\uc0 escaping on ids % 3 == 0, \\uc2
    double-fallback on even ids), parsed back with the real extractor —
    the oracle predicts length/md5 straight from `text`.  Stateless
    per-doc map."""
    import hashlib

    import pyarrow as pa

    from grawler_ray.functions.rtf import build_rtf, extract_rtf_text

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        lens, md5s = [], []
        for i, txt in zip(ids, texts):
            uc = 0 if i % 3 == 0 else (2 if i % 2 == 0 else 1)
            got = extract_rtf_text(build_rtf(txt or "", uc=uc))
            lens.append(len(got))
            md5s.append(hashlib.md5(got.encode("utf-8")).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars_rtf": pa.array(lens, pa.int64()),
                "rtf_md5": pa.array(md5s, pa.string()),
            }
        )

    return _read(sf_dir, "documents").map_batches(fn, batch_format="pyarrow")


def _epub_ingest(sf_dir: str):
    """EPUB ingest (functions/epub.py): one book per doc synthesized
    from `text` (lines split across 1-3 spine chapters), extracted back
    through the crawl's Go-parity HTML pipeline — per-doc chapter count
    + total extracted length + md5.  Rows-only (the Go trim/join
    transform is not SQL-expressible); tests/test_epub.py pins the
    extraction semantics serially.  Stateless per-doc map."""
    import hashlib

    import pyarrow as pa

    from grawler_ray.functions.epub import build_epub, extract_epub

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        texts = t.column("text").to_pylist()
        ncs, lens, md5s = [], [], []
        for i, txt in zip(ids, texts):
            k = 1 + i % 3
            lines = (txt or "").split("\n")
            if len(lines) < k:  # single-line docs: split on words instead
                words = (txt or "").split(" ")
                per = max(1, (len(words) + k - 1) // k)
                lines = [
                    " ".join(words[j * per : (j + 1) * per]) for j in range(k)
                ]
            per = max(1, (len(lines) + k - 1) // k)
            chapters = [
                (f"ch{j}", "\n".join(lines[j * per : (j + 1) * per]))
                for j in range(k)
                if lines[j * per : (j + 1) * per]
            ]
            m = extract_epub(build_epub(f"doc {i}", chapters))
            joined = "\x1f".join(c[1] for c in m["chapters"])
            ncs.append(len(m["chapters"]))
            lens.append(len(joined))
            md5s.append(hashlib.md5(joined.encode("utf-8")).hexdigest())
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chapters": pa.array(ncs, pa.int64()),
                "n_chars_epub": pa.array(lens, pa.int64()),
                "epub_md5": pa.array(md5s, pa.string()),
            }
        )

    return _read(sf_dir, "documents").map_batches(fn, batch_format="pyarrow")


def _token_budget_cap(sf_dir: str):
    """Per-source TOKEN budget (running n_chars sum <= 3000 in doc_id
    order) — mixtures are specified in tokens, not rows."""
    from grawler_ray.functions.sampling import token_budget_cap

    return token_budget_cap(_read(sf_dir, "documents"), budget=3000)


def _robots_eval(sf_dir: str):
    """Drive the Google-semantics robots matcher (grawler_ray.robots,
    the reference's grobotstxt gate, src/crawler.go:249) through the
    driver gate: each doc_id selects one of 8 hand-derived semantic
    corners (specific-group-over-*, longest-match, allow-beats at
    length, $ anchor, * wildcard, agent-prefix match, case-insensitive
    keys + query target, empty body); the oracle is the RFC 9309 truth
    table of those corners.  Stateless map — the matcher compiles no
    state worth an actor pool at this rule size."""
    import pyarrow as pa

    from grawler_ray.robots import agent_allowed

    cases = [
        # (robots body, url path) -> expected per the RFC; the oracle
        # pins the same expectations by doc_id % 8
        ("User-agent: grawler\nAllow: /\n\nUser-agent: *\nDisallow: /", "/a"),
        ("User-agent: *\nDisallow: /private", "/private/x"),
        ("User-agent: *\nDisallow: /private", "/public/x"),
        ("User-agent: *\nDisallow: /p*e\nAllow: /priv", "/private"),
        ("User-agent: *\nDisallow: /*.pdf$", "/doc.pdf"),
        ("User-agent: graw\nDisallow: /x", "/x"),
        ("uSeR-aGeNt: *\ndIsAlLoW: /q", "/q?a=1"),
        ("", "/anything"),
    ]

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_pylist()
        out = []
        for i in ids:
            body, path = cases[i % 8]
            out.append(
                1 if agent_allowed(body, "grawler", "http://h.test" + path) else 0
            )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "allowed": pa.array(out, pa.int64()),
            }
        )

    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(fn, batch_format="pyarrow")
    )


def _concurrent_users(sf_dir: str):
    """Sweep-line concurrency: active-user count at every span boundary
    (bounded user aggregate -> delta partials -> range-partitioned
    prefix sum)."""
    from grawler_ray.functions.events import concurrent_users

    return concurrent_users(_read(sf_dir, "events"))


def _running_revenue(sf_dir: str):
    """Global (unpartitioned) running revenue total over (o_orderdate,
    o_orderkey) order — the range-partitioned prefix-sum pattern: one
    sort, per-block offsets via a blocks-sized driver pass, two scans."""
    import numpy as np
    import pyarrow as pa

    from grawler_ray.functions.events import global_running_sum

    def prep(t: pa.Table) -> pa.Table:
        v = t.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderdate": t.column("o_orderdate"),
                "o_orderkey": t.column("o_orderkey"),
                "cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    return global_running_sum(
        _read(sf_dir, "orders")
        .select_columns(["o_orderdate", "o_orderkey", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow"),
        order_col="o_orderdate",
        tie_col="o_orderkey",
        value_col="cents",
    )


def _source_kl(sf_dir: str):
    """Per-source unigram KL drift from the corpus distribution —
    (source, word) arrow aggregate, coarse word-hash KL-term kernel,
    tiny source reduce (micro-nat integer scaling)."""
    from grawler_ray.functions.textstats import source_kl

    return source_kl(_read(sf_dir, "documents"))


def _spend_ntile(sf_dir: str):
    """Global NTILE(10) over (o_totalprice, o_orderkey) — the
    range-partitioned row-offset pattern (blocks-sized driver state)."""
    from grawler_ray.functions.events import global_ntile

    return global_ntile(
        _read(sf_dir, "orders").select_columns(["o_totalprice", "o_orderkey"]),
        order_col="o_totalprice",
        tie_col="o_orderkey",
        k=10,
    )


def _date_rank(sf_dir: str):
    """RANK() over o_orderdate (ties share ranks) — one count aggregate
    over distinct dates, a dates-sized driver prefix sum broadcast once,
    stateless lookup pass."""
    from grawler_ray.functions.events import rank_by_key

    return rank_by_key(
        _read(sf_dir, "orders").select_columns(["o_orderdate", "o_orderkey"]),
        key_col="o_orderdate",
        id_col="o_orderkey",
    )


def _nation_gini(sf_dir: str):
    """Per-nation Gini concentration of customer account balances —
    exact integer numerator/denominator, one coarse nation-hash exchange
    with an in-group lexsort + run-scan kernel."""
    from grawler_ray.functions.stats import grouped_gini

    return grouped_gini(
        _read(sf_dir, "customer").select_columns(["c_nationkey", "c_acctbal"]),
        group_col="c_nationkey",
        value_col="c_acctbal",
    )


def _vocab_overlap(sf_dir: str):
    """Pairwise source vocabulary intersection/union sizes — (source,
    word) arrow aggregate, coarse word-hash M.T@M pair kernel, tiny pair
    aggregate, sources-sized vocab broadcast."""
    from grawler_ray.functions.textstats import source_vocab_jaccard

    return source_vocab_jaccard(_read(sf_dir, "documents"))


def _nation_spend_quartile(sf_dir: str):
    """Per-nation NTILE(4) of customer balances (value,tie order) — one
    coarse nation-hash exchange, in-group lexsort run-scan tiles."""
    from grawler_ray.functions.stats import grouped_ntile

    return grouped_ntile(
        _read(sf_dir, "customer").select_columns(
            ["c_nationkey", "c_acctbal", "c_custkey"]
        ),
        group_col="c_nationkey",
        value_col="c_acctbal",
        tie_col="c_custkey",
        k=4,
    )


def _new_users_daily(sf_dir: str):
    """New-user cohort sizes per day — per-batch min-ts partials, one
    user Min aggregate, tiny day Sum aggregate."""
    from grawler_ray.functions.events import new_users_daily

    return new_users_daily(_read(sf_dir, "events"))


def _user_gap_moments(sf_dir: str):
    """Per-user inter-event gap count/Σus/Σs² — one coarse user-hash
    exchange, run-scan diffs, bincount sums."""
    from grawler_ray.functions.events import user_gap_moments

    return user_gap_moments(_read(sf_dir, "events"))


def _readability(sf_dir: str):
    """Per-doc Flesch ingredients (exact word/sentence/vowel-group
    counts) — stateless map, compiled regexes, zero shuffles."""
    from grawler_ray.functions.textstats import readability_counts

    return readability_counts(_read(sf_dir, "documents"))


def _user_paths(sf_dir: str):
    """Per-user ordered event-type journey strings (head-capped at 50
    steps — the cap IS the scale story) — one coarse user-hash exchange,
    string building only over the capped heads."""
    from grawler_ray.functions.events import user_paths

    return user_paths(
        _read(sf_dir, "events").select_columns(
            ["event_id", "ts", "user_id", "event_type"]
        ),
        max_steps=50,
    )


def _source_budget(sf_dir: str):
    """Hamilton largest-remainder apportionment of a 1000-doc sampling
    budget across sources — exact integer quota arithmetic (sum always
    equals the budget), one count aggregate + driver allocation."""
    from grawler_ray.functions.sampling import source_budget

    return source_budget(_read(sf_dir, "documents"), budget=1000)


def _spend_quantiles(sf_dir: str):
    """Interpolated per-priority order-value quartiles (PERCENTILE_CONT
    parity; bit-identical at quarter quantiles) — one distinct-(group,
    cents) histogram exchange + driver quantile walk."""
    from grawler_ray.functions.stats import grouped_quantile_cont

    return grouped_quantile_cont(
        _read(sf_dir, "orders").select_columns(
            ["o_orderpriority", "o_totalprice"]
        ),
        group_col="o_orderpriority",
        value_col="o_totalprice",
    )


def _mirror_sources(sf_dir: str):
    """Mirror-site detection: top source pairs by shared identical
    content fingerprints — membership_copair_topk composition with
    group=md5-prefix fp, member=sorted source code (Bharat & Broder
    1999's mirror question in its exact form)."""
    from grawler_ray.functions.dedup import mirror_sources

    return mirror_sources(_read(sf_dir, "documents"), k=25)


def _path_trigrams(sf_dir: str):
    """Per-user 3-step event-type paths (second-order Markov session
    mining) — one coarse user-hash shuffle, factorized bincount
    partials ∝ type-vocab³, tiny arrow three-key aggregate."""
    from grawler_ray.functions.events import path_trigrams

    return path_trigrams(
        _read(sf_dir, "events").select_columns(
            ["event_id", "ts", "user_id", "event_type"]
        )
    )


def _skyline_price_qty(sf_dir: str):
    """Per-returnflag 2-D skyline of lineitem (minimize price cents,
    maximize quantity; Borzsonyi et al. ICDE 2001): lossless per-batch
    local skylines over distinct points, one tiny repartition(1) merge —
    candidates ∝ batch frontiers, payload never moves."""
    from grawler_ray.functions.olap import grouped_skyline

    return grouped_skyline(
        _read(sf_dir, "lineitem"),
        group_col="l_returnflag",
        min_col="l_extendedprice",
        max_col="l_quantity",
        min_scale=100,
    )


def _skyline_range(sf_dir: str):
    """The RANGE-PARTITIONED skyline merge plan (merge_threshold=0 forces
    it): per-group equal-width buckets over the minimized axis, one
    (group,bucket) exchange, per-bucket dedup+scan, broadcast prefix-max
    cross-bucket filter — the 100-TB path for adversarial axes, hash-
    checked against the SAME DuckDB oracle as skyline_price_qty."""
    from grawler_ray.functions.olap import grouped_skyline

    return grouped_skyline(
        _read(sf_dir, "lineitem"),
        group_col="l_returnflag",
        min_col="l_extendedprice",
        max_col="l_quantity",
        min_scale=100,
        merge_threshold=0,
        num_range_buckets=32,
    )


def _quality_lr(sf_dir: str):
    """Hashed-feature logistic-regression doc classifier (the GPT-3
    quality-filter shape: a linear model over hashed bag-of-words scores
    every candidate doc) — rows-only (iterative training isn't
    SQL-expressible); the serial-numpy training oracle and a planted
    two-vocabulary generalization test live in tests/test_batch7.py.
    The training label is a keyword proxy (weak supervision — the
    synthetic corpus assigns lang/source independently of text, so no
    semantic label is learnable by construction); the machinery under
    test is the distributed full-batch GD."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from grawler_ray.functions.textstats import lr_text_classifier

    def add_label(t: pa.Table) -> pa.Table:
        y = pc.cast(
            pc.match_substring_regex(t.column("text"), r"\bvector\b"),
            pa.int64(),
        )
        return t.append_column("label", y)

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "text"])
        .map_batches(add_label, batch_format="pyarrow")
    )
    return lr_text_classifier(ds, id_col="doc_id", text_col="text",
                              label_col="label")


def _redirect_resolve(sf_dir: str):
    """Redirect-chain flattening by pointer doubling (Wyllie list
    ranking): every doc resolves to its chain root + hop depth in
    O(log L) coarse-hash exchanges.  Chains are derived deterministically
    from the documents table (doc d points at d-1 unless d%100==0 or
    d's n_chars%7==0 — data-dependent break points), mirrored by the
    oracle's recursive CTE."""
    import numpy as np
    import pyarrow as pa

    from grawler_ray.functions.graph import resolve_chains

    def edges(t: pa.Table) -> pa.Table:
        d = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        nc = t.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        root = (d % 100 == 0) | (nc % 7 == 0)
        return pa.table(
            {
                "doc_id": pa.array(d, pa.int64()),
                "next": pa.array(d - 1, pa.int64(), mask=root),
            }
        )

    ds = (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "n_chars"])
        .map_batches(edges, batch_format="pyarrow")
    )
    return resolve_chains(ds, id_col="doc_id", next_col="next")


def _winnow_fps(sf_dir: str):
    """Winnowing fingerprints (Schleimer et al. 2003 / MOSS) per doc —
    rows-only (rolling hashes aren't SQL-expressible); the brute-force
    oracle lives in tests/test_textstats_winnow.py."""
    from grawler_ray.functions.textstats import winnow_fingerprints_batch

    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id", "text"])
        .map_batches(winnow_fingerprints_batch, batch_format="pyarrow")
    )


def _winsorized_spend(sf_dir: str):
    """Per-priority winsorized order totals (cents clipped at the exact
    p05/p95 discrete quantiles): exact-histogram shuffle, per-group
    quantile walk, 2-int-per-group broadcast, stateless clip pass."""
    from grawler_ray.functions.stats import grouped_winsorize

    return grouped_winsorize(
        _read(sf_dir, "orders").select_columns(
            ["o_orderkey", "o_orderpriority", "o_totalprice"]
        ),
        group_col="o_orderpriority",
        id_col="o_orderkey",
        value_col="o_totalprice",
        value_scale=100,
        lo_pct=5,
        hi_pct=95,
    )


def _benford_spend(sf_dir: str):
    """Benford first-digit screen over order totals (string-derived
    leading digit of the scaled integer — no float bucket decisions):
    9-bucket partials, one tiny exchange."""
    from grawler_ray.functions.stats import benford_digits

    return benford_digits(_read(sf_dir, "orders"), "o_totalprice")


def _zipf_fit(sf_dir: str):
    """Zipf's-law OLS fit (ln frequency on ln rank, top-100 words) over
    the documents word-frequency spectrum — truncation-scaled integer
    regression so the DuckDB oracle hash-matches; one word exchange, a
    top-k bounded sort, single-block finish."""
    from grawler_ray.functions.stats import zipf_fit

    return zipf_fit(_read(sf_dir, "documents").select_columns(["text"]), top_k=100)


def _bpe_token_counts(sf_dir: str):
    """Train→encode BPE loop (Sennrich et al. 2016): learn 12 merges on
    the corpus, broadcast them once, count tokens per doc.  Rows-only:
    the iterative greedy merge isn't SQL-expressible; tests/test_stats.py
    holds serial-encoder equality."""
    from grawler_ray.functions.stats import bpe_encode, bpe_train

    docs = _read(sf_dir, "documents")
    merges = bpe_train(docs.select_columns(["text"]), num_merges=12)
    return bpe_encode(docs, merges)


def _script_ratios(sf_dir: str):
    """Per-doc Unicode script composition (Latin/Cyrillic/CJK/digit
    code-point counts): one UTF-32 decode per doc, vectorized range
    masks, zero shuffles."""
    from grawler_ray.functions.textstats import script_counts

    return script_counts(_read(sf_dir, "documents"))


def _lineitem_profile(sf_dir: str):
    """Single-pass data-quality profile (rows / nulls / exact min-max)
    of lineitem's numeric columns — one partial row per column per
    batch, one tiny column-name aggregate."""
    from grawler_ray.functions.stats import numeric_profile

    return numeric_profile(
        _read(sf_dir, "lineitem"),
        ["l_quantity", "l_extendedprice", "l_discount"],
    )


def _source_ks_matrix(sf_dir: str):
    """Top-10 most length-drifted source pairs: ONE histogram exchange
    amortized across all |S|²/2 exact pairwise KS walks (the rational
    d_num/d_den discipline of length_ks_drift)."""
    import pyarrow.compute as _pc

    from grawler_ray.functions.stats import ks_drift_matrix

    def n_chars(t):
        return pa.table(
            {
                "source": t.column("source"),
                "n_chars": _pc.cast(
                    _pc.utf8_length(t.column("text")), pa.int64()
                ),
            }
        )

    return ks_drift_matrix(
        _read(sf_dir, "documents")
        .select_columns(["source", "text"])
        .map_batches(n_chars, batch_format="pyarrow"),
        group_col="source",
        value_col="n_chars",
        k=10,
        value_scale=1,
    )


def _centroid_distances(sf_dir: str):
    """Pairwise inter-label centroid squared distances (rational to the
    last divide; HUGEINT oracle): label_centroids' one tiny aggregate +
    a guarded driver pair loop."""
    from grawler_ray.functions.similarity import centroid_distances

    return centroid_distances(_read(sf_dir, "embeddings"))


def _length_rank_auc(sf_dir: str):
    """Mann-Whitney rank-sum AUC between src0's and src1's doc lengths
    (tie-corrected P(a>b), doubled-U integer over the merged histogram)
    — the effect-size companion to length_ks_drift, same exchange."""
    import pyarrow.compute as _pc

    from grawler_ray.functions.stats import rank_sum_auc

    def n_chars(t):
        return pa.table(
            {
                "source": t.column("source"),
                "n_chars": _pc.cast(
                    _pc.utf8_length(t.column("text")), pa.int64()
                ),
            }
        )

    return rank_sum_auc(
        _read(sf_dir, "documents")
        .select_columns(["source", "text"])
        .map_batches(n_chars, batch_format="pyarrow"),
        group_col="source",
        value_col="n_chars",
        group_a="src0",
        group_b="src1",
        value_scale=1,
    )


def _qty_mode(sf_dir: str):
    """Exact per-returnflag mode of quantity (ties -> smallest value,
    fully specified): one histogram exchange + driver argmax."""
    from grawler_ray.functions.stats import grouped_mode

    return grouped_mode(
        _read(sf_dir, "lineitem").select_columns(
            ["l_returnflag", "l_quantity"]
        ),
        group_col="l_returnflag",
        value_col="l_quantity",
        value_scale=1,
    )


def _spearman_qty_price(sf_dir: str):
    """Per-returnflag Spearman rank correlation between quantity and
    extended price — exact integer double-ranks (tie-averaged), one
    coarse group-hash exchange, grouped_corr's mirrored float finish."""
    from grawler_ray.functions.stats import grouped_spearman

    return grouped_spearman(
        _read(sf_dir, "lineitem").select_columns(
            ["l_returnflag", "l_quantity", "l_extendedprice"]
        ),
        group_col="l_returnflag",
        x_col="l_quantity",
        y_col="l_extendedprice",
        x_scale=100,
        y_scale=100,
    )


def _length_ks_drift(sf_dir: str):
    """Exact two-sample KS statistic between src0's and src1's doc-length
    distributions (rational cdf-gap max, one int->double divide at the
    end): two-group histogram exchange + driver merge-walk."""
    import pyarrow.compute as _pc

    from grawler_ray.functions.stats import ks_two_sample

    def n_chars(t):
        return pa.table(
            {
                "source": t.column("source"),
                "n_chars": _pc.cast(
                    _pc.utf8_length(t.column("text")), pa.int64()
                ),
            }
        )

    return ks_two_sample(
        _read(sf_dir, "documents")
        .select_columns(["source", "text"])
        .map_batches(n_chars, batch_format="pyarrow"),
        group_col="source",
        value_col="n_chars",
        group_a="src0",
        group_b="src1",
        value_scale=1,
    )


def _source_lang_chi2(sf_dir: str):
    """Chi-square independence test + Cramér's V on the source x lang
    contingency table (composition drift): one tiny composite-key
    exchange, driver grid math, per-cell integer terms so float sum
    order can't move the hash."""
    from grawler_ray.functions.stats import contingency_chi2

    return contingency_chi2(_read(sf_dir, "documents"), "source", "lang")


def _spend_outliers(sf_dir: str):
    """Robust per-priority outlier flags on order totals (Iglewicz-Hoaglin
    modified z via median/MAD): one exact-histogram exchange, driver
    median/MAD walk, 2-float broadcast, stateless flag pass."""
    from grawler_ray.functions.stats import grouped_robust_outliers

    return grouped_robust_outliers(
        _read(sf_dir, "orders").select_columns(
            ["o_orderkey", "o_orderpriority", "o_totalprice"]
        ),
        group_col="o_orderpriority",
        id_col="o_orderkey",
        value_col="o_totalprice",
        value_scale=100,
    )


def _hopping_counts(sf_dir: str):
    """Overlapping 1h windows hopping every 30min (count + cents sum per
    window): bounded 2x stateless fan-out folded into per-batch window
    partials, one tiny exchange."""
    from grawler_ray.functions.events import hopping_counts

    return hopping_counts(_read(sf_dir, "events"))


def _pmi_topk(sf_dir: str):
    """Top collocations by pointwise mutual information (Church & Hanks):
    two vocabulary-sized hash aggregates, size-adaptive count broadcast
    (string-key repartition joins above the guard), lossless top-k tree
    combine."""
    from grawler_ray.functions.textstats import pmi_topk

    return pmi_topk(_read(sf_dir, "documents"))


def _spend_mad(sf_dir: str):
    """Per-priority median absolute deviation of order totals (robust
    dispersion; nested interpolated medians, bit-identical to nested
    quantile_cont) — one exact-histogram exchange, driver MAD walk."""
    from grawler_ray.functions.stats import grouped_mad

    return grouped_mad(
        _read(sf_dir, "orders").select_columns(
            ["o_orderpriority", "o_totalprice"]
        ),
        group_col="o_orderpriority",
        value_col="o_totalprice",
        value_scale=100,
    )


def _balance_percent_rank(sf_dir: str):
    """PERCENT_RANK of each customer's account balance within its market
    segment (RANK ties, single IEEE divide) — one coarse segment-hash
    exchange + run-scan."""
    from grawler_ray.functions.sampling import grouped_percent_rank

    def cents(t):
        v = t.column("c_acctbal").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "c_mktsegment": t.column("c_mktsegment"),
                "c_custkey": t.column("c_custkey"),
                "bal_cents": pa.array(
                    np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    return grouped_percent_rank(
        _read(sf_dir, "customer")
        .select_columns(["c_mktsegment", "c_custkey", "c_acctbal"])
        .map_batches(cents, batch_format="pyarrow"),
        group_col="c_mktsegment",
        id_col="c_custkey",
        value_col="bal_cents",
    )


def _session_stats(sf_dir: str):
    """Per-user session rollup (count / total events / largest session,
    30-min gap rule) — sessionize's one coarse user-hash exchange with
    the rollup fused into the kernel."""
    from grawler_ray.functions.events import session_stats

    return session_stats(_read(sf_dir, "events"))


def _source_lang_rollup(sf_dir: str):
    """Multi-granularity corpus-composition report: docs + chars per
    (source, lang), per-source subtotals, and a grand total — SQL's
    GROUP BY ROLLUP in ONE exchange (all levels pre-aggregated in-batch
    under sentinel keys)."""
    from grawler_ray.functions.olap import rollup_sum

    return rollup_sum(
        _read(sf_dir, "documents"),
        k1="source",
        k2="lang",
        value_col="n_chars",
        count_name="n_docs",
        sum_name="sum_chars",
    )


def _source_lang_cube(sf_dir: str):
    """Full CUBE over (source, lang): the rollup row set plus the
    per-language subtotals — still one exchange."""
    from grawler_ray.functions.olap import rollup_sum

    return rollup_sum(
        _read(sf_dir, "documents"),
        k1="source",
        k2="lang",
        value_col="n_chars",
        count_name="n_docs",
        sum_name="sum_chars",
        cube=True,
    )


def _lineitem_melt(sf_dir: str):
    """Wide→long unpivot of the four lineitem measures — a stateless
    per-batch reshape (no shuffle), values bit-exact vs the UNION ALL
    oracle."""
    from grawler_ray.functions.olap import melt

    return melt(
        _read(sf_dir, "lineitem"),
        id_cols=["l_orderkey", "l_linenumber"],
        value_cols=["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    )


def _dsir_weights(sf_dir: str):
    """DSIR hashed-unigram importance weights of every doc against an
    English-docs target set.  Rows-only for the driver gate (the smoothed
    log-ratio table isn't reproducible bit-exactly in SQL);
    tests/test_batch6.py holds the serial-numpy oracle equality."""
    import pyarrow.compute as _pc

    from grawler_ray.functions.quality import dsir_weights

    docs = _read(sf_dir, "documents")
    target = docs.map_batches(
        lambda t: t.filter(_pc.equal(t.column("lang"), "en")),
        batch_format="pyarrow",
    )
    return dsir_weights(docs, target, num_buckets=4096)


def _q1_agg(sf_dir: str):
    """TPC-H Q1-style aggregate with exact integer-scaled sums (no float
    accumulation => bit-identical to the SQL oracle)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        # integer-scale AND pre-aggregate the ~6 (returnflag, linestatus)
        # groups inside the batch: the exchange moves ~blocks x 6 rows,
        # never one row per lineitem (per-batch sums stay < 2^53, so the
        # float64 bincount accumulator is exact)
        import pyarrow.compute as pc

        qty = pc.floor(pc.add(pc.multiply(t.column("l_quantity"), 100.0), 0.5)).to_numpy(
            zero_copy_only=False
        )
        price = pc.floor(
            pc.add(pc.multiply(t.column("l_extendedprice"), 100.0), 0.5)
        ).to_numpy(zero_copy_only=False)
        c1, u1 = pd.factorize(np.asarray(t.column("l_returnflag").to_pylist(), dtype=object))
        c2, u2 = pd.factorize(np.asarray(t.column("l_linestatus").to_pylist(), dtype=object))
        if len(u2) == 0:
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                    "sum_qty_cents": pa.array([], pa.int64()),
                    "sum_price_cents": pa.array([], pa.int64()),
                }
            )
        cc = c1.astype(np.int64) * len(u2) + c2
        ucc, inv = np.unique(cc, return_inverse=True)
        return pa.table(
            {
                "l_returnflag": pa.array(list(u1[ucc // len(u2)]), pa.string()),
                "l_linestatus": pa.array(list(u2[ucc % len(u2)]), pa.string()),
                "n": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                "sum_qty_cents": pa.array(
                    np.bincount(inv, weights=qty).astype(np.int64), pa.int64()
                ),
                "sum_price_cents": pa.array(
                    np.bincount(inv, weights=price).astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        _read(sf_dir, "lineitem")
        .select_columns(["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_qty_cents", alias_name="sum_qty_cents"),
            Sum("sum_price_cents", alias_name="sum_price_cents"),
        )
    )


# broadcast guard (VERDICT r2 item 5/8): (c_custkey, c_nationkey) is ~16 B a
# row, so 5M rows ≈ 80 MB through ray.put — comfortable on a 128 GiB worker;
# past that the dimension side is no longer "small" and the join must shuffle
_BCAST_MAX_ROWS = 5_000_000


def _orders_by_nation(sf_dir: str, broadcast_max_rows: int = _BCAST_MAX_ROWS):
    """orders x customer x nation.  customer <= ``broadcast_max_rows``:
    BROADCAST the dimension side (ray.put once, dict lookup per batch — no
    shuffle; SURVEY §2.4 J2).  Larger: repartition join (one coarse
    custkey-hash ``coarse_cogroup``, searchsorted attach) — the documented pattern
    this engine uses instead of Ray 2.49's Acero Dataset.join.  nation (25
    rows) is always broadcast.  Both paths produce identical results
    (tests/test_functions.py cross-checks them)."""
    import ray

    nation = _read(sf_dir, "nation").to_pandas()
    n2name = dict(zip(nation.n_nationkey, nation.n_name))
    from ray.data.aggregate import Count, Sum

    n_cust = _read(sf_dir, "customer").count()  # parquet-footer metadata only
    if n_cust <= broadcast_max_rows:
        cust = _read(sf_dir, "customer").select_columns(["c_custkey", "c_nationkey"]).to_pandas()
        c2n = dict(zip(cust.c_custkey, cust.c_nationkey))
        ref = ray.put((c2n, n2name))

        def join_batch(t: pa.Table) -> pa.Table:
            c2n_, n2name_ = ray.get(ref)
            nations = [n2name_[c2n_[c]] for c in t.column("o_custkey").to_pylist()]
            price_cents = [
                int(np.floor(p * 100.0 + 0.5)) for p in t.column("o_totalprice").to_pylist()
            ]
            return pa.table(
                {
                    "nation": pa.array(nations, pa.string()),
                    "price_cents": pa.array(price_cents, pa.int64()),
                }
            )

        joined = _read(sf_dir, "orders").map_batches(join_batch, batch_format="pyarrow")
    else:
        # repartition join: leg 0 = customer (carries nationkey), leg 1 =
        # orders (carries price); coarse custkey-hash groups, vectorized
        # match inside (CLAUDE.md join pattern)
        from grawler_ray.shuffle import LEG, coarse_cogroup, key_index

        num_groups = 256
        nref = ray.put(n2name)

        def cust_rows(t: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "ck": t.column("c_custkey").cast(pa.int64()),
                    "nk": t.column("c_nationkey").cast(pa.int64()),
                }
            )

        def order_rows(t: pa.Table) -> pa.Table:
            price = np.floor(
                t.column("o_totalprice").to_numpy(zero_copy_only=False) * 100.0 + 0.5
            ).astype(np.int64)
            return pa.table(
                {
                    "ck": t.column("o_custkey").cast(pa.int64()),
                    "price_cents": pa.array(price, pa.int64()),
                }
            )

        def attach(t: pa.Table) -> pa.Table:
            cust = t.column(LEG).to_numpy() == 0
            ck = t.column("ck").to_numpy()
            pos, hit = key_index(ck[cust], ck[~cust])
            nk = t.filter(pa.array(cust)).column("nk").to_numpy()[pos[hit]]
            price = t.filter(pa.array(~cust)).column("price_cents").to_numpy()[hit]
            names = pd.Series(nk).map(ray.get(nref))  # orders whose customer exists
            return pa.table(
                {
                    "nation": pa.array(names.tolist(), pa.string()),
                    "price_cents": pa.array(price, pa.int64()),
                }
            )

        legs = [
            _read(sf_dir, "customer")
            .select_columns(["c_custkey", "c_nationkey"])
            .map_batches(cust_rows, batch_format="pyarrow"),
            _read(sf_dir, "orders")
            .select_columns(["o_custkey", "o_totalprice"])
            .map_batches(order_rows, batch_format="pyarrow"),
        ]
        joined = coarse_cogroup(legs, "ck", attach, num_groups)

    return joined.groupby("nation").aggregate(
        Count(alias_name="n_orders"), Sum("price_cents", alias_name="total_cents")
    )


def _lineitem_join_orders(sf_dir: str):
    """Large-large hash join via Dataset.join (both sides shuffle on the
    key), then aggregate — the J1 fetch-join pattern on driver tables."""
    li = _read(sf_dir, "lineitem").select_columns(["l_orderkey", "l_quantity"])

    def scale(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "l_orderkey": t.column("l_orderkey"),
                "qty_cents": pc.cast(
                    pc.floor(pc.add(pc.multiply(t.column("l_quantity"), 100.0), 0.5)),
                    pa.int64(),
                ),
            }
        )

    li = li.map_batches(scale, batch_format="pyarrow")
    orders = _read(sf_dir, "orders").select_columns(["o_orderkey", "o_orderpriority"])
    joined = li.join(
        orders, join_type="inner", num_partitions=8, on=("l_orderkey",), right_on=("o_orderkey",)
    )
    from ray.data.aggregate import Sum

    def priority_partial(t: pa.Table) -> pa.Table:
        # per-batch ~5-group partials so the post-join aggregate exchange
        # moves ~blocks x priorities rows, never one row per lineitem
        codes, uniq = pd.factorize(
            np.asarray(t.column("o_orderpriority").to_pylist(), dtype=object)
        )
        qc = t.column("qty_cents").to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table(
            {
                "o_orderpriority": pa.array(list(uniq), pa.string()),
                "n_lines": pa.array(np.bincount(codes).astype(np.int64), pa.int64()),
                "sum_qty_cents": pa.array(
                    np.bincount(codes, weights=qc).astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        joined.map_batches(priority_partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_lines", alias_name="n_lines"),
            Sum("sum_qty_cents", alias_name="sum_qty_cents"),
        )
    )


def _ann_topk(sf_dir: str):
    from grawler_ray.functions.similarity import ann_topk

    return ann_topk(_read(sf_dir, "embeddings"), ANN_QUERY_IDS, k=10)


def _ngram_jaccard_pairs(sf_dir: str):
    from grawler_ray.functions.dedup import ngram_jaccard_pairs

    return ngram_jaccard_pairs(_read(sf_dir, "documents"), threshold=0.5)


def _dedup_clusters(sf_dir: str):
    """Near-dup pairs -> connected components (keep-set materialization):
    every doc gets component = min reachable doc_id through the n-gram
    Jaccard pair graph.  SQL-checked via a recursive-CTE transitive closure
    over the same pair query."""
    from grawler_ray.functions.dedup import dedup_components, ngram_jaccard_pairs

    docs = _read(sf_dir, "documents")
    pairs = ngram_jaccard_pairs(docs, threshold=0.5)
    return dedup_components(docs, pairs)


def _split_by_cluster(sf_dir: str):
    """Leakage-free train/holdout split: the assignment hash runs on the
    near-dup COMPONENT id, not the doc id, so near-duplicates can never
    straddle the split boundary (the held-out set stays clean of
    training-set paraphrases — the standard eval-contamination guard).
    Composition: n-gram Jaccard pairs -> connected components -> the
    split_train_holdout bucket hash keyed on component."""
    from grawler_ray.functions.dedup import dedup_components, ngram_jaccard_pairs
    from grawler_ray.functions.sampling import split_train_holdout

    docs = _read(sf_dir, "documents")
    comp = dedup_components(docs, ngram_jaccard_pairs(docs, threshold=0.5))
    return split_train_holdout(comp, id_col="component", holdout_permille=100)


def _ngram_containment_pairs(sf_dir: str):
    from grawler_ray.functions.dedup import ngram_containment_pairs

    return ngram_containment_pairs(_read(sf_dir, "documents"), threshold=0.8)


def _cross_dedup_pairs(sf_dir: str):
    """Fuzzy decontamination: exact Jaccard>=0.5 pairs between the corpus
    and a derived benchmark (doc_id % 20 == 0 rows) via the cross-side
    prefix-filter join — within-side candidates pruned at the boundary
    before any verification."""
    import numpy as _np

    from grawler_ray.functions.dedup import cross_ssjoin_pairs

    docs = _read(sf_dir, "documents")
    bench = docs.map_batches(
        lambda t: t.filter(
            _np.asarray(t.column("doc_id").to_numpy(zero_copy_only=False))
            % 20
            == 0
        ),
        batch_format="pyarrow",
    )
    return cross_ssjoin_pairs(docs, bench, threshold=0.5).select_columns(
        ["left_id", "right_id"]
    )


def _fuzzy_name_pairs(sf_dir: str):
    """Levenshtein-distance<=1 key pairs over supplier names via EXACT
    deletion-neighborhood blocking (SymSpell/FastSS) — candidates ∝
    shared deletion variants, never the O(n²) cross join the oracle
    runs; every candidate exactly verified in-group."""
    from grawler_ray.functions.dedup import edit1_pairs

    return edit1_pairs(_read(sf_dir, "supplier"), "s_suppkey", "s_name")


def _ssjoin_pairs(sf_dir: str):
    """Prefix-filtered EXACT set-similarity self-join (AllPairs, Bayardo et
    al. WWW'07): same pair set as ngram_jaccard_pairs without the O(n²/B)
    comparison — candidates ∝ prefix-shingle co-occurrence, verified
    exactly through the one-repartition-join blob fan-out.  Shares the
    all-pairs oracle SQL, so the gate checks the two plans agree."""
    from grawler_ray.functions.dedup import ssjoin_pairs

    return ssjoin_pairs(_read(sf_dir, "documents"), threshold=0.5).select_columns(
        ["a", "b"]
    )


def _dup_ratio_by_source(sf_dir: str):
    from grawler_ray.functions.dedup import dup_ratio_by_source

    return dup_ratio_by_source(_read(sf_dir, "documents"))


def _user_retention(sf_dir: str):
    from grawler_ray.functions.events import user_retention

    return user_retention(_read(sf_dir, "events"))


def _label_centroids(sf_dir: str):
    from grawler_ray.functions.similarity import label_centroids

    return label_centroids(_read(sf_dir, "embeddings"))


def _pack_manifest(sf_dir: str):
    from grawler_ray.functions.textstats import pack_manifest

    return pack_manifest(_read(sf_dir, "documents"), seq_len=256, num_shards=64)


def _snapshot_diff(sf_dir: str):
    """Recrawl reconciliation, fully SQL-checked: snapshot B is derived
    from `documents` deterministically (doc_id%11 removed, doc_id%7 text-
    modified, doc_id%13 spawns a new doc at doc_id+1000000) in BOTH
    engines, so the diff classification compares exactly."""
    from grawler_ray.functions.dedup import snapshot_diff

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    snap_b = docs.map_batches(_SNAPSHOT_DERIVE_B, batch_format="pyarrow")
    return snapshot_diff(docs, snap_b)


def _SNAPSHOT_DERIVE_B(t: pa.Table) -> pa.Table:
    """Shared derived snapshot B (snapshot_diff + snapshot_delta oracles
    mirror this literally)."""
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    texts = t.column("text").to_pylist()
    keep = ids % 11 != 0
    out_ids = list(ids[keep])
    out_txt = [
        (tx or "") + " v2" if i % 7 == 0 else tx
        for i, tx in zip(ids[keep], [texts[j] for j in np.flatnonzero(keep)])
    ]
    new = ids % 13 == 0
    out_ids += list(ids[new] + 1_000_000)
    out_txt += [f"new page {i}" for i in ids[new]]
    return pa.table(
        {
            "doc_id": pa.array(out_ids, pa.int64()),
            "text": pa.array(out_txt, pa.string()),
        }
    )


def _change_rate(sf_dir: str):
    """Recrawl change-frequency estimation (Cho & Garcia-Molina X/n),
    fully SQL-checked: K=4 snapshots are derived from `documents`
    deterministically in BOTH engines (cumulative ' r{k}' suffixes at
    doc_id%3/%5/%7 from runs 1/2/3; doc_id%17 docs discovered late at
    run 2), so the interval statistics compare exactly — change_ratio
    is a single IEEE double division of the same ints on both sides."""
    from grawler_ray.functions.dedup import change_rate

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def derive(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        out_id, out_run, out_txt = [], [], []
        for i, tx in zip(ids, texts):
            tx = tx or ""
            for run in range(4):
                if i % 17 == 0 and run < 2:
                    continue  # late discovery
                s = tx
                for k, m in ((1, 3), (2, 5), (3, 7)):
                    if run >= k and i % m == 0:
                        s += f" r{k}"
                out_id.append(int(i))
                out_run.append(run)
                out_txt.append(s)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "run": pa.array(out_run, pa.int64()),
                "text": pa.array(out_txt, pa.string()),
            }
        )

    snaps = docs.map_batches(derive, batch_format="pyarrow")
    return change_rate(snaps)


def _url_trap_score(sf_dir: str):
    """Spider-trap detection via URL-template collapse, fully SQL-checked:
    per-doc URLs are synthesized deterministically in BOTH engines (host
    = doc_id%20, three path branches cycling on doc_id//20%3: a digit-
    heavy /article/<id>/page/<k> generated space, /item<id>, and a static
    /static/<k>/about), so per-host n_urls / n_templates / trap_score
    compare exactly (one IEEE division of the same ints)."""
    from grawler_ray.functions.urlstats import url_template_stats

    docs = _read(sf_dir, "documents").select_columns(["doc_id"])

    def mk_urls(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        urls = []
        for i in ids:
            host = f"https://site{i % 20}.test"
            b = (i // 20) % 3
            if b == 0:
                urls.append(f"{host}/article/{i}/page/{i % 7}")
            elif b == 1:
                urls.append(f"{host}/item{i}")
            else:
                urls.append(f"{host}/static/{i % 10}/about")
        return pa.table({"url": pa.array(urls, pa.string())})

    return url_template_stats(docs.map_batches(mk_urls, batch_format="pyarrow"))


def _sniff_mismatch(sf_dir: str):
    """Header-vs-content MIME agreement over the crawl corpus (rows-only):
    sniff the first 512 body bytes (WHATWG §7 subset) and count
    (declared, sniffed) pairs.  The synthetic corpus generator is honest,
    so every declared type must sniff to itself — asserted in tests;
    mislabeled-resource detection corners live in test_textops.py."""
    import ray.data

    from grawler_ray.textops import sniff_content_type

    out = _ensure_crawl()
    corpus = os.path.join(os.path.dirname(out), "corpus")
    pages = ray.data.read_parquet(corpus, columns=["html", "content_type"])

    def partial(t: pa.Table) -> pa.Table:
        sniffed = [
            sniff_content_type(b or b"") for b in t.column("html").to_pylist()
        ]
        df = (
            pd.DataFrame(
                {
                    "content_type": t.column("content_type").to_pylist(),
                    "sniffed": sniffed,
                }
            )
            .groupby(["content_type", "sniffed"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.Table.from_pandas(df, preserve_index=False).cast(
            pa.schema(
                [
                    pa.field("content_type", pa.string()),
                    pa.field("sniffed", pa.string()),
                    pa.field("n", pa.int64()),
                ]
            )
        )

    agg = (
        pages.map_batches(partial, batch_format="pyarrow")
        .groupby(["content_type", "sniffed"])
        .sum("n")
    )
    return agg.map_batches(
        lambda t: t.rename_columns(["content_type", "sniffed", "n"]),
        batch_format="pyarrow",
    )


def _main_content(sf_dir: str):
    """CETR main-content extraction (Weninger & Hu, WWW 2010; pinned
    mean-threshold variant) over the entry crawl corpus's HTML pages:
    (url, total_lines, kept_lines, main_chars, main_text) — the per-page
    structural boilerplate strip the reference lacks (src/crawler.go:290
    keeps the whole tree's text).  Rows-only: SQL cannot run the tag-ratio
    walk; the pinned rule is unit-tested against hand-built nav/content
    fixtures in tests/test_boilerplate.py."""
    import ray.data

    from grawler_ray.functions.boilerplate import main_content

    out = _ensure_crawl()
    corpus = os.path.join(os.path.dirname(out), "corpus")
    pages = ray.data.read_parquet(corpus, columns=["url", "html", "content_type"])

    def html_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        m = _pc.match_substring(t.column("content_type"), "text/html")
        return t.filter(_pc.fill_null(m, False)).select(["url", "html"])

    return main_content(
        pages.map_batches(html_only, batch_format="pyarrow"),
        html_col="html",
        url_col="url",
    )


def _charset_detect(sf_dir: str):
    """WHATWG charset sniffing + transcode over synthesized multi-charset
    bodies (doc_id%4 cycles utf-8 / latin-1-header / cp1251-meta /
    utf-16-BOM): output (doc_id, charset, ok) where ok = decoded text
    round-trips byte-exactly to the original (rows-only: SQL cannot
    transcode; unit corners in tests/test_textops.py)."""
    from grawler_ray.textops import decode_page

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def synth_and_decode(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        out_cs, out_ok = [], []
        for i, tx in zip(ids, texts):
            tx = (tx or "").replace("�", "")
            v = i % 4
            if v == 0:
                body, ct = tx.encode("utf-8"), "text/html"
            elif v == 1:
                body, ct = (
                    tx.encode("latin-1", errors="replace"),
                    "text/html; charset=latin-1",
                )
                tx = body.decode("cp1252")  # expected after the whatwg map
            elif v == 2:
                body = (
                    b'<meta charset="windows-1251">'
                    + tx.encode("cp1251", errors="replace")
                )
                ct = "text/html"
                tx = body.decode("cp1251")
            else:
                body, ct = b"\xef\xbb\xbf" + tx.encode("utf-8"), "text/plain"
            dec, cs = decode_page(body, ct)
            out_cs.append(cs)
            out_ok.append(dec == tx)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "charset": pa.array(out_cs, pa.string()),
                "ok": pa.array(out_ok, pa.bool_()),
            }
        )

    return docs.map_batches(synth_and_decode, batch_format="pyarrow")


def _cdc_delta_stats(sf_dir: str):
    """Byte-reuse between snapshot A (documents) and the derived snapshot
    B (same derivation as snapshot_diff/delta) via content-defined chunks
    (rows-only: chunk hashing is not SQL-expressible; the planted-edit
    reuse test in tests/test_dedup_pipelines.py pins semantics)."""
    from grawler_ray.functions.dedup import cdc_delta_stats

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    snap_b = docs.map_batches(_SNAPSHOT_DERIVE_B, batch_format="pyarrow")
    return cdc_delta_stats(docs, snap_b)


def _recrawl_urls(sf_dir: str):
    """The last scheduling step, fully SQL-checked: per-host VARIABLE-k
    top-k — each host keeps its Hamilton-allocated count of most-stale
    URLs (stale_runs desc, change_ratio desc, doc_id asc).  Budget 120
    over 20 hosts so real selection happens (25 URLs/host at sf0.01)."""
    from grawler_ray.functions.urlstats import (
        apportion_budget,
        top_per_group_alloc,
    )

    cr = _change_rate(sf_dir)

    def add_host(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.append_column(
            "host", pa.array([f"site{i % 20}.test" for i in ids], pa.string())
        )

    stats = cr.map_batches(add_host, batch_format="pyarrow").materialize()

    def to_w(t: pa.Table) -> pa.Table:
        ch = t.column("n_changes").to_numpy(zero_copy_only=False)
        return pa.table(
            {"host": t.column("host"), "w": pa.array(ch + 1, pa.int64())}
        )

    hosts = apportion_budget(
        stats.map_batches(to_w, batch_format="pyarrow"),
        key_col="host", budget=120, weight_col="w",
    ).to_pandas()
    picked = top_per_group_alloc(
        stats,
        dict(zip(hosts.host, hosts.alloc.astype(int))),
        key_col="host",
        order_cols=("stale_runs", "change_ratio"),
        tie_col="doc_id",
    )
    return picked.select_columns(["doc_id", "host", "stale_runs", "rnk"])


def _cdc_chunks(sf_dir: str):
    """Content-defined (Gear CDC) chunk table over documents (rows-only:
    the rolling-hash boundary rule is not SQL-expressible; semantics are
    pinned by the per-byte serial oracle and the insertion-
    resynchronization test in tests/test_dedup_pipelines.py)."""
    from grawler_ray.functions.dedup import cdc_chunks

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    return cdc_chunks(docs)


def _anchor_texts(sf_dir: str):
    """Incoming anchor-text top-k per link target over the crawl corpus
    (rows-only: the corpus lives outside the DuckDB views, like every
    crawl-family query; semantics pinned by tests/test_functions.py's
    hand-built fixture and the corpus-spec differential test)."""
    import ray.data

    from grawler_ray.functions.urlstats import anchor_topk

    out = _ensure_crawl()
    corpus = os.path.join(os.path.dirname(out), "corpus")
    pages = ray.data.read_parquet(
        corpus, columns=["url", "html", "content_type", "status_code"]
    )

    def admit(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.and_(
            pc.equal(t.column("content_type"), "text/html"),
            pc.less(t.column("status_code"), 400),
        )
        return t.filter(mask).select(["url", "html"])

    return anchor_topk(pages.map_batches(admit, batch_format="pyarrow"), k=3)


def _anchor_relevance(sf_dir: str):
    """Focused-crawl frontier scoring over the crawl corpus (rows-only,
    crawl family): targets ranked by incoming-anchor topic-term hits;
    terms drawn from the corpus' own vocabulary so hits are non-trivial."""
    import ray.data

    from grawler_ray.functions.urlstats import anchor_relevance

    out = _ensure_crawl()
    corpus = os.path.join(os.path.dirname(out), "corpus")
    pages = ray.data.read_parquet(
        corpus, columns=["url", "html", "content_type", "status_code"]
    )

    def admit(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        mask = pc.and_(
            pc.equal(t.column("content_type"), "text/html"),
            pc.less(t.column("status_code"), 400),
        )
        return t.filter(mask).select(["url", "html"])

    return anchor_relevance(
        pages.map_batches(admit, batch_format="pyarrow"),
        terms=("circuit", "voltage", "sensor"),
    )


def _source_apportion(sf_dir: str):
    """Largest-remainder (Hamilton) crawl-budget apportionment across
    sources, fully SQL-checked: exact integer quotas (floor(B*w/W), +1
    for the L largest (B*w) mod W remainders, ties by key asc) in BOTH
    engines — no float ranking anywhere, sum(alloc) == budget."""
    from grawler_ray.functions.urlstats import apportion_budget

    docs = _read(sf_dir, "documents").select_columns(["source"])
    return apportion_budget(docs, key_col="source", budget=1000)


def _recrawl_schedule(sf_dir: str):
    """The scheduling story end-to-end, fully SQL-checked: change_rate
    over the K=4 derived snapshots -> per-host change mass (sum of
    n_changes + 1, additive smoothing so static hosts keep a floor) ->
    Hamilton apportionment of a 500-fetch recrawl budget.  Hosts are the
    deterministic doc_id%20 synthesis shared with url_trap_score."""
    from grawler_ray.functions.urlstats import apportion_budget

    cr = _change_rate(sf_dir)

    def to_host(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        ch = t.column("n_changes").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "host": pa.array(
                    [f"site{i % 20}.test" for i in ids], pa.string()
                ),
                "w": pa.array(ch + 1, pa.int64()),
            }
        )

    hosts = cr.map_batches(to_host, batch_format="pyarrow")
    return apportion_budget(hosts, key_col="host", budget=500, weight_col="w")


def _snapshot_delta(sf_dir: str):
    """Incremental hand-off, fully SQL-checked: snapshot B derived as in
    _snapshot_diff; output = B's added/changed rows with payloads (what
    the downstream prep pipeline re-processes after a recrawl)."""
    from grawler_ray.functions.dedup import snapshot_delta

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])
    snap_b = docs.map_batches(_SNAPSHOT_DERIVE_B, batch_format="pyarrow")
    return snapshot_delta(docs, snap_b)


def _dedup_keep_longest(sf_dir: str):
    """Keep-longest representative per near-dup component (the policy
    variant of dedup_clusters); SQL-checked via the same recursive-CTE
    closure + a first_value window ordered by (n_chars desc, doc_id)."""
    from grawler_ray.functions.dedup import dedup_keep_longest, ngram_jaccard_pairs

    docs = _read(sf_dir, "documents")
    pairs = ngram_jaccard_pairs(docs, threshold=0.5)
    return dedup_keep_longest(docs, pairs)


def _embedding_dup_pairs(sf_dir: str):
    from grawler_ray.functions.similarity import embedding_dup_pairs

    return embedding_dup_pairs(_read(sf_dir, "embeddings"), threshold=0.45)


def _cross_embedding_dups(sf_dir: str):
    """Embedding-side decontamination: cosine>=0.45 pairs between the
    corpus and a derived benchmark (vec_id % 10 == 0 rows) via the
    broadcast-right matmul stream."""
    import numpy as _np

    from grawler_ray.functions.similarity import cross_embedding_dups

    emb = _read(sf_dir, "embeddings")
    bench = emb.map_batches(
        lambda t: t.filter(
            _np.asarray(t.column("vec_id").to_numpy(zero_copy_only=False))
            % 10
            == 0
        ),
        batch_format="pyarrow",
    )
    return cross_embedding_dups(emb, bench, threshold=0.45)


def _pagerank(sf_dir: str):
    """Centrality over the embedding near-dup similarity graph: nodes =
    all vec_ids, edges = the SQL-checked embedding_dup_pairs edge set
    (cosine >= 0.45), 5 fixed-point iterations."""
    from grawler_ray.functions.graph import pagerank
    from grawler_ray.functions.similarity import embedding_dup_pairs

    emb = _read(sf_dir, "embeddings")
    nodes = emb.select_columns(["vec_id"])
    pairs = embedding_dup_pairs(emb, threshold=0.45)
    return pagerank(nodes, pairs, node_col="vec_id")


def _order_part_bfs(sf_dir: str):
    """Multi-source BFS hop depth over the order–part co-purchase
    bipartite graph (partkeys offset into a disjoint id space), seeded
    at the 3 smallest partkeys, 4 hops — the bounded recursive-CTE
    oracle checks the exact depth of every node; unreachable nodes are
    NULL (arrow int64-with-nulls → float64/NaN, the hash convention)."""
    import numpy as _np
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from grawler_ray.functions.graph import bfs_depth

    OFF = 10_000_000  # > max l_orderkey at any tested sf
    li = _read(sf_dir, "lineitem").select_columns(["l_orderkey", "l_partkey"])

    def to_edges(t: _pa.Table) -> _pa.Table:
        return _pa.table(
            {
                "a": t.column("l_orderkey").cast(_pa.int64()),
                "b": _pc.add(t.column("l_partkey").cast(_pa.int64()), OFF),
            }
        )

    def node_union(t: _pa.Table) -> _pa.Table:
        o = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(_np.int64)
        p = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(_np.int64) + OFF
        return _pa.table({"v": _pa.array(_np.concatenate([o, p]), _pa.int64())})

    seeds_rows = (
        _read(sf_dir, "part")
        .select_columns(["p_partkey"])
        .sort("p_partkey")
        .limit(3)
        .take_all()
    )
    seeds = [OFF + int(r["p_partkey"]) for r in seeds_rows]
    return bfs_depth(
        li.map_batches(node_union, batch_format="pyarrow"),
        li.map_batches(to_edges, batch_format="pyarrow"),
        seeds,
        max_iters=4,
    )


def _kcore(sf_dir: str):
    """k-core (k=4) of the order–part bipartite graph: iterative peel to
    the TRUE fixpoint (size-adaptive driver/distributed paths asserted
    equal in tests); the oracle unrolls the peel 8 rounds — fixpoint on
    this data is reached in 2, and the engine peels to convergence, so
    any unroll >= the data's true depth matches exactly."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from grawler_ray.functions.graph import kcore

    li = _read(sf_dir, "lineitem").select_columns(["l_orderkey", "l_partkey"])

    def to_edges(t: _pa.Table) -> _pa.Table:
        return _pa.table(
            {
                "a": t.column("l_orderkey").cast(_pa.int64()),
                "b": _pc.add(t.column("l_partkey").cast(_pa.int64()), 10_000_000),
            }
        )

    return kcore(li.map_batches(to_edges, batch_format="pyarrow"), k=4)


def _hits_scores(sf_dir: str):
    """HITS hubs/authorities (Kleinberg 1999) over the DIRECTED order→part
    bipartite graph (edges = the lineitem multiset, orderkey → partkey
    offset into a disjoint id space): hubs are orders that buy widely
    co-purchased parts, authorities the parts they concentrate on — the
    same link-analysis family the reference's crawl output feeds
    (src/crawler.go:306 stores documents; ranking them is downstream).
    The pinned integer recurrence lets the unrolled-CTE oracle hash-match
    exactly; 4 iterations."""
    import numpy as _np
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from grawler_ray.functions.graph import hits
    from grawler_ray.shuffle import coarse_groupby

    OFF = 10_000_000  # > max l_orderkey at any tested sf
    li = _read(sf_dir, "lineitem").select_columns(["l_orderkey", "l_partkey"])

    def to_edges(t: _pa.Table) -> _pa.Table:
        return _pa.table(
            {
                "s": t.column("l_orderkey").cast(_pa.int64()),
                "t": _pc.add(t.column("l_partkey").cast(_pa.int64()), OFF),
            }
        )

    def endpoints(t: _pa.Table) -> _pa.Table:
        o = t.column("l_orderkey").to_numpy(zero_copy_only=False).astype(_np.int64)
        p = t.column("l_partkey").to_numpy(zero_copy_only=False).astype(_np.int64) + OFF
        v = _np.unique(_np.concatenate([o, p]))  # block-local pre-dedup
        return _pa.table({"node_id": _pa.array(v, _pa.int64())})

    def uniq_group(t: _pa.Table) -> _pa.Table:
        v = _np.unique(t.column("node_id").to_numpy(zero_copy_only=False))
        return _pa.table({"node_id": _pa.array(v, _pa.int64())})

    # distinct node universe: ONE coarse-hash exchange of 8-byte ids
    # (pyarrow format so empty partitions can't leak pandas blocks)
    nodes = coarse_groupby(
        li.map_batches(endpoints, batch_format="pyarrow"), "node_id", uniq_group, 64
    )
    return hits(
        nodes,
        li.map_batches(to_edges, batch_format="pyarrow"),
        node_col="node_id",
        pair_cols=("s", "t"),
        iters=4,
    )


def _kcore_sql(k: int = 4, rounds: int = 8) -> str:
    # MATERIALIZED is load-bearing: each round references the previous CTE
    # three times, so default inline expansion is 3^rounds plan blowup
    parts = [
        """WITH e0 AS MATERIALIZED (
             SELECT DISTINCT l_orderkey::BIGINT AS s,
                    (l_partkey + 10000000)::BIGINT AS t FROM lineitem
             UNION
             SELECT DISTINCT (l_partkey + 10000000)::BIGINT,
                    l_orderkey::BIGINT FROM lineitem
           )"""
    ]
    for i in range(rounds):
        parts.append(
            f", a{i} AS MATERIALIZED"
            f" (SELECT s FROM e{i} GROUP BY s HAVING count(*) >= {k})"
            f", e{i + 1} AS MATERIALIZED (SELECT e.s, e.t FROM e{i} e"
            f" JOIN a{i} x ON e.s = x.s JOIN a{i} y ON e.t = y.s)"
        )
    parts.append(f" SELECT DISTINCT s AS v FROM e{rounds}")
    return "".join(parts)


def _copurchase_topk(sf_dir: str):
    """Top-25 node pairs by common-neighbor count over the order–part
    graph (co-citation link prediction): parts sharing the most orders
    and orders sharing the most parts, (count DESC, x, y) deterministic
    — the SQL self-join oracle checks the exact top-k."""
    import pyarrow as _pa
    import pyarrow.compute as _pc

    from grawler_ray.functions.graph import common_neighbors_topk

    OFF = 10_000_000
    li = _read(sf_dir, "lineitem").select_columns(["l_orderkey", "l_partkey"])

    def to_edges(t: _pa.Table) -> _pa.Table:
        return _pa.table(
            {
                "a": t.column("l_orderkey").cast(_pa.int64()),
                "b": _pc.add(t.column("l_partkey").cast(_pa.int64()), OFF),
            }
        )

    return common_neighbors_topk(
        li.map_batches(to_edges, batch_format="pyarrow"), k=25
    )


def _related_docs_topk(sf_dir: str):
    """Top-25 document pairs sharing the most RARE bigram shingles — the
    prefix-filtered set-similarity join for near-dup candidate
    generation (hub shingles excluded exactly via max_group_size=20,
    mirrored as HAVING count(*) <= 20; the synthetic unigram vocabulary
    is only ~31 ubiquitous words, so bigrams are the discriminative
    shingle here)."""
    import pyarrow as _pa

    from grawler_ray.functions.graph import membership_copair_topk
    from grawler_ray.textops import _WORD_RE

    docs = _read(sf_dir, "documents").select_columns(["doc_id", "text"])

    def memberships(t: _pa.Table) -> _pa.Table:
        ids: list = []
        shingles: list = []
        for did, txt in zip(
            t.column("doc_id").to_pylist(), t.column("text").to_pylist()
        ):
            toks = _WORD_RE.findall((txt or "").lower())
            for bg in set(
                toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)
            ):
                shingles.append(bg)
                ids.append(did)
        return _pa.table(
            {
                "shingle": _pa.array(shingles, _pa.string()),
                "doc_id": _pa.array(ids, _pa.int64()),
            }
        )

    return membership_copair_topk(
        docs.map_batches(memberships, batch_format="pyarrow"),
        "shingle",
        "doc_id",
        k=25,
        max_group_size=20,
    )


def _sample_docs(sf_dir: str):
    from grawler_ray.functions.sampling import sample_fraction

    return sample_fraction(
        _read(sf_dir, "documents").select_columns(["doc_id", "lang"]), permille=100
    )


def _stratified_sample(sf_dir: str):
    from grawler_ray.functions.sampling import stratified_sample

    return stratified_sample(
        _read(sf_dir, "documents").select_columns(["doc_id", "lang"]),
        permille={"en": 200, "de": 500},
    )


def _train_split_counts(sf_dir: str):
    from grawler_ray.functions.sampling import split_train_holdout
    from ray.data.aggregate import Count

    return (
        split_train_holdout(
            _read(sf_dir, "documents").select_columns(["doc_id"]), holdout_permille=100
        )
        .groupby("split")
        .aggregate(Count(alias_name="n"))
    )


def _multimodal_meta(sf_dir: str):
    from grawler_ray.stages.multimodal import decode_image_meta

    return decode_image_meta(_read(sf_dir, "documents"))


def _multimodal_resize(sf_dir: str):
    from grawler_ray.stages.multimodal import resize_image

    return resize_image(_read(sf_dir, "documents"), width=64, height=48).select_columns(
        ["doc_id", "width", "height", "n_bytes_out"]
    )


def _png_meta(sf_dir: str):
    """REAL image decode: deterministic synthesized PNGs (pure-stdlib
    codec, functions/png.py) decoded to actual IHDR dims + pixel means in
    the actor pool.  Rows-only: SQL can't inflate IDAT; tests/test_png.py
    holds the serial numpy oracle (synth_pixels equality)."""
    from grawler_ray.stages.multimodal import decode_png_meta

    return decode_png_meta(_read(sf_dir, "documents").select_columns(["doc_id"]))


def _png_resize(sf_dir: str):
    """REAL resize: PNG decode -> exact box-average resample -> PNG
    re-encode in the actor pool; output carries the resized image's true
    pixel mean.  Rows-only with the serial oracle in tests/test_png.py."""
    from grawler_ray.stages.multimodal import resize_png

    return resize_png(
        _read(sf_dir, "documents").select_columns(["doc_id"]),
        width=16, height=12,
    )


def _jpeg_meta(sf_dir: str):
    """REAL JPEG decode: synthesized baseline JFIF streams (pure-stdlib
    T.81 codec, functions/jpeg.py — 4:4:4 and 4:2:0 mixed, some with
    restart intervals) decoded to actual dims + pixel means in the actor
    pool.  Rows-only: SQL can't Huffman-decode; tests/test_jpeg.py holds
    the spec-formula conformance anchors and serial oracle."""
    from grawler_ray.stages.multimodal import decode_jpeg_meta

    return decode_jpeg_meta(_read(sf_dir, "documents").select_columns(["doc_id"]))


def _jpeg_resize(sf_dir: str):
    """REAL JPEG resize: decode -> exact box resample -> baseline
    re-encode in the actor pool; rows-only with the serial oracle in
    tests/test_jpeg.py."""
    from grawler_ray.stages.multimodal import resize_jpeg

    return resize_jpeg(
        _read(sf_dir, "documents").select_columns(["doc_id"]),
        width=16, height=12,
    )


def _gif_meta(sf_dir: str):
    """REAL GIF decode: synthesized animated GIFs (pure-stdlib LZW codec,
    functions/gif.py) — first-frame dims + pixel means through the actor
    pool.  Rows-only; tests/test_gif.py holds the serial oracle."""
    from grawler_ray.stages.multimodal import DecodeImageMeta, to_gif_payload_batch

    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(to_gif_payload_batch, batch_format="pyarrow")
        .map_batches(
            DecodeImageMeta,
            batch_format="pyarrow",
            batch_size=256,
            concurrency=(2, 8),
            fn_constructor_kwargs={"real_decode": True},
        )
    )


def _gif_frames(sf_dir: str):
    """REAL animation frame sampling: every 2nd composed frame of each
    synthesized animated GIF, with true pixel stats and lossless PNG
    re-encode — the video-path plumbing on actually-decoded frames.
    Rows-only; serial oracle in tests/test_gif.py."""
    from grawler_ray.stages.multimodal import sample_gif_frames

    return sample_gif_frames(
        _read(sf_dir, "documents").select_columns(["doc_id"]), stride=2
    ).select_columns(["doc_id", "frame_idx", "delay_ms", "px_mean_milli"])


def _wav_features(sf_dir: str):
    """REAL audio decode + DSP features: synthesized pure-tone WAVs
    (pure-stdlib RIFF PCM codec, functions/wav.py) through the actor
    pool — duration/RMS/zero-crossing/spectral centroid+rolloff.
    Rows-only; tests/test_wav.py holds closed-form tone oracles."""
    from grawler_ray.stages.multimodal import extract_wav_features

    return extract_wav_features(
        _read(sf_dir, "documents").select_columns(["doc_id"])
    )


def _avi_meta(sf_dir: str):
    """REAL video container parse: synthesized MJPEG AVIs (pure-stdlib
    RIFF walk, functions/avi.py) -> header metadata (dims, frame count,
    fps, codec fourcc) without frame decode.  Rows-only; the serial
    oracle in tests/test_avi.py checks against the synth spec."""
    import pyarrow as pa

    from grawler_ray.functions.avi import avi_meta
    from grawler_ray.stages.multimodal import to_avi_payload_batch

    def meta_batch(t: pa.Table) -> pa.Table:
        rows = [avi_meta(p) for p in t.column("payload").to_pylist()]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "width": pa.array([r["width"] for r in rows], pa.int64()),
                "height": pa.array([r["height"] for r in rows], pa.int64()),
                "n_frames": pa.array([r["n_frames"] for r in rows], pa.int64()),
                "fps_milli": pa.array([r["fps_milli"] for r in rows], pa.int64()),
                "codec": pa.array([r["codec"] for r in rows], pa.string()),
            }
        )

    return (
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(to_avi_payload_batch, batch_format="pyarrow")
        .map_batches(meta_batch, batch_format="pyarrow", batch_size=256)
    )


def _avi_frames(sf_dir: str):
    """REAL video frame sampling: every 2nd MJPEG frame of each
    synthesized AVI decodes through the from-scratch JPEG codec — true
    pixel stats + lossless PNG re-encode per sampled frame.  Rows-only;
    serial oracle in tests/test_avi.py."""
    from grawler_ray.stages.multimodal import sample_avi_frames

    return sample_avi_frames(
        _read(sf_dir, "documents").select_columns(["doc_id"]), stride=2
    ).select_columns(["doc_id", "frame_idx", "fps_milli", "px_mean_milli"])


def _avi_scenes(sf_dir: str):
    """REAL shot-boundary detection: scene-structured MJPEG AVIs decode
    through the from-scratch JPEG codec; adjacent-frame mean-abs-diff
    marks the cuts — one row per detected scene.  Rows-only;
    tests/test_avi.py pins exact planted-boundary recovery."""
    from grawler_ray.stages.multimodal import detect_avi_scenes

    return detect_avi_scenes(
        _read(sf_dir, "documents").select_columns(["doc_id"])
    )


def _audio_codecs(sf_dir: str):
    """REAL compressed-audio decode: mixed-codec WAV synth (PCM16,
    G.711 u-law/A-law, IMA ADPCM — functions/wav.py, G.711 bit-checked
    against CPython audioop) -> DSP features with the decoding codec
    tagged per row.  Rows-only; tests/test_wav.py holds per-codec
    closed-form tone oracles."""
    from grawler_ray.stages.multimodal import extract_audio_codec_features

    return extract_audio_codec_features(
        _read(sf_dir, "documents").select_columns(["doc_id"])
    )


def _audio_mfcc(sf_dir: str):
    """REAL MFCCs (mel filterbank + orthonormal DCT over the rFFT power
    of decoded clips, functions/wav.py mfcc_features) over the
    mixed-codec WAV synth — the standard audio-ML training feature.
    Rows-only; tests/test_wav.py pins the tone -> mel-band closed form
    for every codec."""
    from grawler_ray.stages.multimodal import extract_audio_mfcc

    return extract_audio_mfcc(
        _read(sf_dir, "documents").select_columns(["doc_id"])
    )


def _media_triage(sf_dir: str):
    """REAL container triage: mixed MP3/MP4 payloads (spec-valid framing
    with planted truncations) route by magic to the pure-stdlib frame /
    box walkers (functions/mediameta.py) — duration, rates, dims, track
    types, the pre-decode filter columns a 100-TB crawl needs.
    Rows-only; tests/test_mediameta.py pins the stage against the synth
    spec closed-forms."""
    from grawler_ray.stages.multimodal import media_triage

    return media_triage(_read(sf_dir, "documents").select_columns(["doc_id"]))


def _image_dhash_pairs(sf_dir: str):
    """Image near-dup pairs over REAL decoded pixels: synthesized corpus
    with planted brightness-shifted JPEG re-encodes of PNG originals ->
    dHash (9x8 gradient signs over the exact box resample) -> the exact
    Manku Hamming pairing shared with text SimHash.  Rows-only;
    tests/test_imghash.py pins planted-pair recovery and brute-force
    plan equality."""
    from grawler_ray.functions.imghash import image_dhash_pairs
    from grawler_ray.stages.multimodal import to_near_dup_image_batch

    return image_dhash_pairs(
        _read(sf_dir, "documents")
        .select_columns(["doc_id"])
        .map_batches(to_near_dup_image_batch, batch_format="pyarrow"),
        max_hamming=3,
    )


def _media_prep(sf_dir: str):
    """Flagship multimodal composition: mixed PNG/JPEG/GIF payloads
    (with planted corrupt + non-image docs) -> real decode-meta ->
    min-size filter -> real resize -> per-format summary.  Rows-only;
    tests/test_media_prep.py pins the summary against the serial synth
    spec."""
    from grawler_ray.stages.multimodal import media_prep

    return media_prep(_read(sf_dir, "documents").select_columns(["doc_id"]))


def _multimodal_frames(sf_dir: str):
    from grawler_ray.stages.multimodal import sample_frames

    return sample_frames(_read(sf_dir, "documents"), frame_size=1024, stride=4).select_columns(
        ["doc_id", "frame_idx", "frame_len"]
    )


def _multimodal_features(sf_dir: str):
    from grawler_ray.stages.multimodal import extract_features

    return extract_features(_read(sf_dir, "documents"))


# rows-only (non-SQL-expressible) ------------------------------------------

def _langid(sf_dir: str):
    from grawler_ray.functions.textstats import langid_batch

    return _read(sf_dir, "documents").map_batches(langid_batch, batch_format="pyarrow")


def _langid_confusion(sf_dir: str):
    """Language-ID evaluation: confusion matrix of the heuristic
    prediction vs the labeled lang column — per-batch pair partials,
    one tiny (true, pred) aggregate (<= 5x5 keys)."""
    import pandas as pd
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from grawler_ray.functions.textstats import langid_batch

    def partial(t: pa.Table) -> pa.Table:
        p = langid_batch(t)
        df = pd.DataFrame(
            {
                "true_lang": t.column("lang").to_pylist(),
                "pred_lang": p.column("pred_lang").to_pylist(),
            }
        )
        g = df.groupby(["true_lang", "pred_lang"], sort=False).size()
        return pa.table(
            {
                "true_lang": pa.array(
                    g.index.get_level_values(0).tolist(), pa.string()
                ),
                "pred_lang": pa.array(
                    g.index.get_level_values(1).tolist(), pa.string()
                ),
                "pc": pa.array(g.to_numpy().astype("int64"), pa.int64()),
            }
        )

    return (
        _read(sf_dir, "documents")
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["true_lang", "pred_lang"])
        .aggregate(Sum("pc", alias_name="n"))
    )


def _minhash_pairs(sf_dir: str):
    from grawler_ray.functions.dedup import minhash_dedup

    return minhash_dedup(_read(sf_dir, "documents"), threshold=0.5)


_MH_INDEX_CACHE: dict[str, str] = {}


def _minhash_incremental(sf_dir: str):
    """Incremental dedup: index the first half of the documents table once
    per process, then dedup the second half against it via bucketed point
    reads (read ∝ increment, never ∝ corpus).  Cross-pair exactness vs
    brute force asserted in tests/test_dedup_pipelines.py."""
    from grawler_ray.functions.dedup import build_minhash_index, minhash_dedup_incremental

    def first_half(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.less(t.column("doc_id"), 250))

    def second_half(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t.column("doc_id"), 250))

    idx_dir = _MH_INDEX_CACHE.get(sf_dir)
    if idx_dir is None:
        idx_dir = f"/tmp/grawler_mh_index_{abs(hash(sf_dir))}"
        build_minhash_index(
            _read(sf_dir, "documents").map_batches(first_half, batch_format="pyarrow"),
            idx_dir,
        )
        _MH_INDEX_CACHE[sf_dir] = idx_dir
    return minhash_dedup_incremental(
        _read(sf_dir, "documents").map_batches(second_half, batch_format="pyarrow"),
        idx_dir,
        threshold=0.5,
    )


def _minhash_index_update(sf_dir: str):
    """Continuous-crawl index maintenance: index docs < 200, APPEND
    200-249 in place (update_minhash_index), probe with docs >= 250 —
    the probe must see both the original corpus and the appended
    increment (build(A)+update(B) == build(A∪B) is pinned in tests)."""
    import pyarrow.compute as pc

    from grawler_ray.functions.dedup import (
        build_minhash_index,
        minhash_dedup_incremental,
        update_minhash_index,
    )

    docs = _read(sf_dir, "documents")
    idx_dir = _MH_UPD_CACHE.get(sf_dir)
    if idx_dir is None:
        idx_dir = f"/tmp/grawler_mh_upd_{abs(hash(sf_dir))}"
        build_minhash_index(
            docs.map_batches(
                lambda t: t.filter(pc.less(t.column("doc_id"), 200)),
                batch_format="pyarrow",
            ),
            idx_dir,
        )
        update_minhash_index(
            docs.map_batches(
                lambda t: t.filter(
                    pc.and_(
                        pc.greater_equal(t.column("doc_id"), 200),
                        pc.less(t.column("doc_id"), 250),
                    )
                ),
                batch_format="pyarrow",
            ),
            idx_dir,
            "increment1",
        )
        _MH_UPD_CACHE[sf_dir] = idx_dir
    return minhash_dedup_incremental(
        docs.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("doc_id"), 250)),
            batch_format="pyarrow",
        ),
        idx_dir,
        threshold=0.5,
    )


_MH_UPD_CACHE: dict[str, str] = {}


def _prep_corpus(sf_dir: str):
    """Flagship webtext prep chain (quality -> exact dedup -> minhash
    components -> tokens -> split); per-stage summary.  No SQL oracle (the
    minhash stage is not SQL-expressible); composition equality vs a serial
    union-find oracle is asserted in tests/test_preprocess.py."""
    from grawler_ray.pipelines.preprocess import prep_corpus

    return prep_corpus(_read(sf_dir, "documents"))


def _simhash(sf_dir: str):
    from grawler_ray.functions.dedup import simhash_batch

    return _read(sf_dir, "documents").map_batches(simhash_batch, batch_format="pyarrow")


def _simhash_pairs(sf_dir: str):
    from grawler_ray.functions.dedup import simhash_pairs

    return simhash_pairs(_read(sf_dir, "documents"), max_hamming=3)


def _ann_lsh_topk(sf_dir: str):
    from grawler_ray.functions.similarity import ann_lsh_topk

    return ann_lsh_topk(_read(sf_dir, "embeddings"), ANN_QUERY_IDS, k=10)


def _ann_hnsw_topk(sf_dir: str):
    """Sharded HNSW (Malkov & Yashunin graph ANN, Algorithm-4 neighbor
    heuristic): hash-shard the vectors, one graph per shard, fan queries
    to all shards, merge top-k.  Rows-only; recall >= 0.9 vs the exact
    plan and graph invariants pinned in tests/test_ann_hnsw.py."""
    from grawler_ray.functions.similarity import ann_hnsw_topk

    return ann_hnsw_topk(
        _read(sf_dir, "embeddings"), ANN_QUERY_IDS, k=10, shards=4
    )


def _ann_pq_topk(sf_dir: str):
    from grawler_ray.functions.similarity import ann_pq_topk

    # dim 64 -> m=8 x 4-float subspaces, 16 centroids each: 8-byte codes
    return ann_pq_topk(_read(sf_dir, "embeddings"), ANN_QUERY_IDS, k=10, m=8, ks=16)


_ANN_INDEX_CACHE: dict[str, str] = {}
_IVF_INDEX_CACHE: dict[str, str] = {}


def _ann_query_matrix(sf_dir: str):
    qset = set(ANN_QUERY_IDS)

    def grab(t: pa.Table) -> pa.Table:
        keep = [i for i, v in enumerate(t.column("vec_id").to_pylist()) if v in qset]
        return t.take(pa.array(keep, pa.int64()))

    q_tab = (
        _read(sf_dir, "embeddings")
        .map_batches(grab, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
    )
    return q_tab["vec_id"].to_numpy(), np.array(q_tab["embedding"].tolist(), dtype=np.float64)


def _ann_ivf_topk(sf_dir: str):
    """IVF ANN (k-means coarse quantizer): build the centroid-partitioned
    index once per process, probe the nprobe nearest lists only.  Recall
    >= 0.9 vs ann_topk (clustered fixture) and read ∝ probes asserted in
    tests/test_ann_index.py.  Measured recall@10 on the sf0.01 embeddings
    (weakly clustered, the hard case for IVF) at k=64 lists: nprobe 8 →
    0.74, 16 → 0.88, 24 → 0.98 — the standard IVF recall/read trade."""
    from grawler_ray.functions.similarity import ann_ivf_topk, build_ivf_index

    idx_dir = _IVF_INDEX_CACHE.get(sf_dir)
    if idx_dir is None:
        idx_dir = f"/tmp/grawler_ivf_index_{abs(hash(sf_dir))}"
        build_ivf_index(_read(sf_dir, "embeddings"), idx_dir, k=64, iters=5, seed=3)
        _IVF_INDEX_CACHE[sf_dir] = idx_dir
    q_ids, Q = _ann_query_matrix(sf_dir)
    return ann_ivf_topk(idx_dir, q_ids, Q, k=10, nprobe=16)


def _ann_ivf_update_topk(sf_dir: str):
    """Continuous-ingest IVF: index vec_id < 80% once, APPEND the rest
    in place (frozen quantizer), probe — appended vectors must be
    reachable (reachability + unchanged-answer invariants pinned in
    tests/test_ann_index.py)."""
    import pyarrow.compute as pc

    from grawler_ray.functions.similarity import (
        ann_ivf_topk,
        build_ivf_index,
        update_ivf_index,
    )

    emb = _read(sf_dir, "embeddings")
    idx_dir = _IVF_UPD_CACHE.get(sf_dir)
    if idx_dir is None:
        n = emb.count()
        cut = int(n * 0.8)
        idx_dir = f"/tmp/grawler_ivf_upd_{abs(hash(sf_dir))}"
        build_ivf_index(
            emb.map_batches(
                lambda t: t.filter(pc.less(t.column("vec_id"), cut)),
                batch_format="pyarrow",
            ),
            idx_dir,
            k=64,
            iters=5,
            seed=3,
        )
        update_ivf_index(
            emb.map_batches(
                lambda t: t.filter(pc.greater_equal(t.column("vec_id"), cut)),
                batch_format="pyarrow",
            ),
            idx_dir,
            "increment1",
        )
        _IVF_UPD_CACHE[sf_dir] = idx_dir
    q_ids, Q = _ann_query_matrix(sf_dir)
    return ann_ivf_topk(idx_dir, q_ids, Q, k=10, nprobe=16)


_IVF_UPD_CACHE: dict[str, str] = {}


def _ann_hnsw_update_topk(sf_dir: str):
    """Persisted sharded-HNSW with continuous ingest: build shard graphs
    from vec_id < 80% once, APPEND the rest in place (HNSW insertion is
    natively incremental; write-then-swap per shard), query — appended
    vectors must be reachable and recall vs the exact full-corpus plan
    holds (pinned in tests/test_ann_hnsw.py).  Rows-only."""
    import pyarrow.compute as pc

    from grawler_ray.functions.similarity import (
        ann_hnsw_indexed_topk,
        build_hnsw_index,
        update_hnsw_index,
    )

    emb = _read(sf_dir, "embeddings")
    idx_dir = _HNSW_UPD_CACHE.get(sf_dir)
    if idx_dir is None:
        n = emb.count()
        cut = int(n * 0.8)
        idx_dir = f"/tmp/grawler_hnsw_upd_{abs(hash(sf_dir))}"
        import shutil

        shutil.rmtree(idx_dir, ignore_errors=True)
        build_hnsw_index(
            emb.map_batches(
                lambda t: t.filter(pc.less(t.column("vec_id"), cut)),
                batch_format="pyarrow",
            ),
            idx_dir,
            shards=4,
        )
        update_hnsw_index(
            emb.map_batches(
                lambda t: t.filter(pc.greater_equal(t.column("vec_id"), cut)),
                batch_format="pyarrow",
            ),
            idx_dir,
        )
        _HNSW_UPD_CACHE[sf_dir] = idx_dir
    q_ids, Q = _ann_query_matrix(sf_dir)
    return ann_hnsw_indexed_topk(idx_dir, q_ids, Q, k=10)


_HNSW_UPD_CACHE: dict[str, str] = {}


def _ann_indexed_topk(sf_dir: str):
    """Bucket-partitioned ANN (the 100-TB path): build the bucket=...
    partitioned index once per process, then answer probes reading ONLY the
    probed bucket partitions.  Same probe math as ann_lsh_topk (asserted
    equal in tests/test_ann_index.py); recall >= 0.9 vs ann_topk asserted
    there too."""
    import numpy as np

    from grawler_ray.functions.similarity import ann_indexed_topk, build_ann_index

    idx_dir = _ANN_INDEX_CACHE.get(sf_dir)
    if idx_dir is None:
        idx_dir = f"/tmp/grawler_ann_index_{abs(hash(sf_dir))}"
        build_ann_index(_read(sf_dir, "embeddings"), idx_dir, nbits=12, seed=3)
        _ANN_INDEX_CACHE[sf_dir] = idx_dir
    q_ids, Q = _ann_query_matrix(sf_dir)
    return ann_indexed_topk(idx_dir, q_ids, Q, k=10, multiprobe=2)


def _lsh_buckets(sf_dir: str):
    from grawler_ray.functions.similarity import lsh_bucket_batch

    ds = _read(sf_dir, "embeddings")
    dim = len(ds.take(1)[0]["embedding"])
    return ds.map_batches(lsh_bucket_batch(dim), batch_format="pyarrow")


def _crawl_documents(sf_dir: str):
    from grawler_ray.pipelines.crawl import read_documents

    return read_documents(_ensure_crawl())


def _crawl_documents_upsert(sf_dir: str):
    """Last-wins upsert read over a run sequence (db.go:64 semantics); the
    two-run divergence case is covered by tests/test_last_wins.py — here the
    same run twice exercises the provenance + groupby path deterministically."""
    from grawler_ray.pipelines.crawl import read_documents

    out = _ensure_crawl()
    return read_documents([out, out], dedup="last")


def _crawl_host_rank(sf_dir: str):
    """Pinned fixed-point PageRank over the crawl's host link graph
    (rows-only: serial-recurrence equality is pinned by
    tests/test_crawl_e2e.py::test_host_rank_matches_serial_recurrence)."""
    from grawler_ray.pipelines.crawl import host_rank

    return host_rank(_ensure_crawl())


def _crawl_compacted(sf_dir: str):
    """Offline compaction of a run sequence to one bucketed parquet table
    (rows-only: equality with the last-wins read is pinned by
    tests/test_last_wins.py::test_compact_runs_roundtrip)."""
    import ray.data

    from grawler_ray.pipelines.crawl import compact_runs

    out = _ensure_crawl()
    dest = f"{out}_compacted"
    compact_runs([out, out], dest, num_buckets=8)
    return ray.data.read_parquet(dest)


def _crawl_words(sf_dir: str):
    from grawler_ray.pipelines.crawl import read_words

    return read_words(_ensure_crawl())


def _crawl_trace(sf_dir: str):
    from grawler_ray.pipelines.crawl import read_trace

    return read_trace(_ensure_crawl())


def _crawl_host_graph(sf_dir: str):
    """Host-level link graph aggregated from the crawl trace (rows-only:
    trace equality is pinned by the e2e suite; the aggregation is pinned
    by tests/test_crawl_e2e.py::test_host_graph_matches_oracle_trace)."""
    from grawler_ray.pipelines.crawl import host_graph

    return host_graph(_ensure_crawl())


def _crawl_host_components(sf_dir: str):
    """Connected components of the host link graph (rows-only: equality
    with a serial union-find over the oracle trace is pinned by
    tests/test_crawl_e2e.py::test_host_components_matches_serial_union_find)."""
    from grawler_ray.pipelines.crawl import host_components

    return host_components(_ensure_crawl())


def _event_deltas(sf_dir: str):
    from grawler_ray.functions.events import event_deltas

    return event_deltas(_read(sf_dir, "events"))


def _source_cap(sf_dir: str):
    from grawler_ray.functions.sampling import cap_per_group

    return cap_per_group(_read(sf_dir, "documents"), cap=10)


def _chunk_docs(sf_dir: str):
    """Context-window chunking: 80-char windows every 60 chars."""
    from grawler_ray.functions.textstats import chunk_docs

    return chunk_docs(
        _read(sf_dir, "documents").select_columns(["doc_id", "text"]),
        size=80,
        stride=60,
    )


def _vocab_coverage(sf_dir: str):
    """Per-doc coverage counts against the global top-50 vocabulary."""
    from grawler_ray.functions.textstats import vocab_coverage

    return vocab_coverage(
        _read(sf_dir, "documents").select_columns(["doc_id", "text"]), vocab_size=50
    )


def _mixture_sample(sf_dir: str):
    """Domain-mixture resample: ~250 rows at src0/src1/src2 = 500/300/200."""
    from grawler_ray.functions.sampling import mixture_sample

    return mixture_sample(
        _read(sf_dir, "documents").select_columns(["doc_id", "source"]),
        target_permille={"src0": 500, "src1": 300, "src2": 200},
        budget_rows=50,
    )


def _source_sample_k(sf_dir: str):
    """Uniform 5-per-source sample via Knuth-hash ranks."""
    from grawler_ray.functions.sampling import group_sample_k

    return group_sample_k(_read(sf_dir, "documents"), k=5)


def _customer_order_counts(sf_dir: str):
    """LEFT join: every customer with its order count (NULL when none) —
    the repartition join's outer variant; big side shuffles once, the
    per-customer counts are pre-aggregated partials."""
    from grawler_ray.functions.joins import repartition_join
    from ray.data.aggregate import Sum

    def count_partial(t):
        import pyarrow as pa

        vc = t.column("o_custkey").value_counts()
        return pa.table(
            {
                "o_custkey": vc.field("values"),
                "partial": vc.field("counts").cast(pa.int64()),
            }
        )

    counts = (
        _read(sf_dir, "orders")
        .select_columns(["o_custkey"])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(Sum("partial", alias_name="n_orders"))
    )
    return repartition_join(
        _read(sf_dir, "customer").select_columns(["c_custkey"]),
        counts,
        on_left="c_custkey",
        on_right="o_custkey",
        how="left",
    )


def _events_orders_full(sf_dir: str):
    """FULL OUTER join of per-user event counts with per-customer order
    counts — both sides carry unmatched keys (event users with no orders,
    ordering customers with no events), exercising null padding in both
    directions.  Both inputs are pre-aggregated partials, so the join
    shuffles ~distinct-key rows, never raw events/orders."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from grawler_ray.functions.joins import repartition_join
    from ray.data.aggregate import Sum

    def _counts(col: str, out: str):
        def partial(t):
            vc = t.column(col).value_counts()
            return pa.table(
                {col: vc.field("values"), "partial": vc.field("counts").cast(pa.int64())}
            )

        return partial, Sum("partial", alias_name=out)

    ep, eagg = _counts("user_id", "n_events")
    ev = (
        _read(sf_dir, "events")
        .select_columns(["user_id"])
        .map_batches(ep, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(eagg)
    )
    op, oagg = _counts("o_custkey", "n_orders")
    od = (
        _read(sf_dir, "orders")
        .select_columns(["o_custkey"])
        # custkey >= 100 only: event users 0..99 then surface as
        # left-unmatched rows, so BOTH null-padding directions are live
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("o_custkey"), 100)),
            batch_format="pyarrow",
        )
        .map_batches(op, batch_format="pyarrow")
        .groupby("o_custkey")
        .aggregate(oagg)
    )
    return repartition_join(
        ev, od, on_left="user_id", on_right="o_custkey", how="outer"
    )


def _brand_revenue(sf_dir: str):
    """Per-brand lineitem revenue (Q19-flavor aggregate join): part is the
    small side — below the guard it broadcasts as one sorted
    partkey->brand lookup (map-side join, ZERO pre-aggregate exchanges:
    brand partials come straight off each lineitem batch); above it, the
    hashed repartition join on partkey with per-partkey in-batch
    partials.  Final exchange carries ~blocks x brands rows."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from grawler_ray.functions.joins import repartition_join
    from ray.data.aggregate import Sum

    line = _read(sf_dir, "lineitem").select_columns(
        ["l_partkey", "l_extendedprice", "l_discount"]
    )
    part_ds = _read(sf_dir, "part").select_columns(["p_partkey", "p_brand"])

    def _brand_partial(brands: np.ndarray, cents: np.ndarray) -> pa.Table:
        # per-batch partials: sums < 2^53, so float64 bincount is exact
        codes, uniq = pd.factorize(brands)
        return pa.table(
            {
                "p_brand": pa.array(list(uniq), pa.string()),
                "cents": pa.array(
                    np.bincount(codes, weights=cents).astype(np.int64), pa.int64()
                ),
                "n_items": pa.array(np.bincount(codes).astype(np.int64), pa.int64()),
            }
        )

    if part_ds.count() <= _BCAST_MAX_ROWS:
        p = part_ds.to_pandas()
        pk = p["p_partkey"].to_numpy()
        order = np.argsort(pk, kind="stable")
        pk_s, brand_s = pk[order], p["p_brand"].to_numpy()[order]
        ref = ray.put((pk_s, brand_s))

        def partial(t: pa.Table) -> pa.Table:
            k, b = ray.get(ref)
            lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
            idx = np.clip(np.searchsorted(k, lp), 0, max(len(k) - 1, 0))
            m = len(k) > 0 and k[idx] == lp  # inner join: drop missing keys
            if not isinstance(m, np.ndarray):
                m = np.zeros(len(lp), dtype=bool)
            px = t.column("l_extendedprice").to_numpy(zero_copy_only=False)[m]
            disc = t.column("l_discount").to_numpy(zero_copy_only=False)[m]
            cents = np.floor(px * (1 - disc) * 100.0 + 0.5)
            return _brand_partial(np.asarray(b[idx][m], dtype=object), cents)

        partials = line.map_batches(partial, batch_format="pyarrow")
    else:

        def pk_cents(t: pa.Table) -> pa.Table:
            px = t.column("l_extendedprice").to_numpy(zero_copy_only=False)
            disc = t.column("l_discount").to_numpy(zero_copy_only=False)
            cents = np.floor(px * (1 - disc) * 100.0 + 0.5)
            lp = t.column("l_partkey").to_numpy(zero_copy_only=False)
            uniq, inv = np.unique(lp, return_inverse=True)
            return pa.table(
                {
                    "l_partkey": pa.array(uniq, pa.int64()),
                    "cents": pa.array(
                        np.bincount(inv, weights=cents).astype(np.int64), pa.int64()
                    ),
                    "n_items": pa.array(np.bincount(inv).astype(np.int64), pa.int64()),
                }
            )

        joined = repartition_join(
            line.map_batches(pk_cents, batch_format="pyarrow"),
            part_ds,
            on_left="l_partkey",
            on_right="p_partkey",
        )

        def partial(t: pa.Table) -> pa.Table:
            codes, uniq = pd.factorize(
                np.asarray(t.column("p_brand").to_pylist(), dtype=object)
            )
            cents = t.column("cents").to_numpy(zero_copy_only=False).astype(np.float64)
            nit = t.column("n_items").to_numpy(zero_copy_only=False).astype(np.float64)
            return pa.table(
                {
                    "p_brand": pa.array(list(uniq), pa.string()),
                    "cents": pa.array(
                        np.bincount(codes, weights=cents).astype(np.int64), pa.int64()
                    ),
                    "n_items": pa.array(
                        np.bincount(codes, weights=nit).astype(np.int64), pa.int64()
                    ),
                }
            )

        partials = joined.map_batches(partial, batch_format="pyarrow")

    return partials.groupby("p_brand").aggregate(
        Sum("cents", alias_name="revenue_cents"),
        Sum("n_items", alias_name="n_items"),
    )


def _cumulative_spend(sf_dir: str):
    """Per-customer running order total — sum() OVER (PARTITION BY
    customer ORDER BY date, orderkey), the cumulative window primitive."""
    import numpy as np
    import pyarrow as pa

    from grawler_ray.functions.events import grouped_running_sum

    def prep(t: pa.Table) -> pa.Table:
        v = t.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "ts_us": t.column("o_orderdate").cast(pa.int64()),
                "o_orderkey": t.column("o_orderkey"),
                "cents": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()),
            }
        )

    orders = (
        _read(sf_dir, "orders")
        .select_columns(["o_custkey", "o_orderdate", "o_orderkey", "o_totalprice"])
        .map_batches(prep, batch_format="pyarrow")
    )
    return grouped_running_sum(
        orders, group_col="o_custkey", order_col="ts_us",
        tie_col="o_orderkey", value_col="cents",
    )


def _user_type_join(sf_dir: str):
    """Composite-key (int + string) LEFT repartition join: per-(user,
    event_type) event counts joined with per-(user, event_type) cents
    sums computed over non-click events only — click rows stay unmatched
    (NULL sums), so the composite null padding is live.  Both sides are
    in-batch pre-aggregated partials."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from grawler_ray.functions.joins import repartition_join
    from ray.data.aggregate import Sum

    def count_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            t.select(["user_id", "event_type"])
            .to_pandas()
            .groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="partial")
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def cents_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        t = t.filter(pc.not_equal(t.column("event_type"), "click"))
        v = t.column("value").to_numpy(zero_copy_only=False)
        df = pd.DataFrame(
            {
                "u2": t.column("user_id").to_numpy(zero_copy_only=False),
                "t2": t.column("event_type").to_pylist(),
                "cents": np.floor(v * 100.0 + 0.5).astype(np.int64),
            }
        )
        df = df.groupby(["u2", "t2"], sort=False)["cents"].sum().reset_index(name="partial_c")
        return pa.Table.from_pandas(df, preserve_index=False)

    ev = _read(sf_dir, "events")
    counts = (
        ev.select_columns(["user_id", "event_type"])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("partial", alias_name="n_events"))
        .map_batches(lambda t: t, batch_format="pyarrow")
    )
    sums = (
        ev.select_columns(["user_id", "event_type", "value"])
        .map_batches(cents_partial, batch_format="pyarrow")
        .groupby(["u2", "t2"])
        .aggregate(Sum("partial_c", alias_name="sum_cents"))
        .map_batches(lambda t: t, batch_format="pyarrow")
    )
    return repartition_join(
        counts,
        sums,
        on_left=["user_id", "event_type"],
        on_right=["u2", "t2"],
        how="left",
    )


def _top_orders_per_customer(sf_dir: str):
    """Ranking window: each customer's top-3 orders by price (cents), the
    row_number() OVER (PARTITION BY ... ORDER BY value DESC) primitive."""
    import numpy as np
    import pyarrow as pa

    from grawler_ray.functions.sampling import group_topk

    def to_cents(t: pa.Table) -> pa.Table:
        v = t.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_custkey": t.column("o_custkey"),
                "o_orderkey": t.column("o_orderkey"),
                "cents": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64), pa.int64()),
            }
        )

    orders = (
        _read(sf_dir, "orders")
        .select_columns(["o_custkey", "o_orderkey", "o_totalprice"])
        .map_batches(to_cents, batch_format="pyarrow")
    )
    return group_topk(
        orders, group_col="o_custkey", id_col="o_orderkey", value_col="cents", k=3
    )


def _bigram_counts(sf_dir: str):
    from grawler_ray.functions.textstats import bigram_counts

    return bigram_counts(_read(sf_dir, "documents"), k=100)


def _cooccurrence_topk(sf_dir: str):
    """Windowed skip-gram pair counts (word2vec/PMI primitive)."""
    from grawler_ray.functions.textstats import cooccurrence_topk

    return cooccurrence_topk(_read(sf_dir, "documents"), window=5, k=100)


def _bigram_lm_score(sf_dir: str):
    """Per-doc corpus-frequency fluency score (the integer perplexity
    stand-in): global bigram counts joined back onto every doc's bigrams."""
    from grawler_ray.functions.textstats import bigram_lm_score

    return bigram_lm_score(_read(sf_dir, "documents"))


def _source_lang_pivot(sf_dir: str):
    from grawler_ray.functions.textstats import source_lang_pivot

    return source_lang_pivot(_read(sf_dir, "documents"))


def _degree_stats(sf_dir: str):
    """Degree of every embedding-table node in the near-dup similarity
    graph (zero-degree nodes included) — the SQL-checked graph primitive
    under pagerank/triangles."""
    from grawler_ray.functions.graph import degree_stats
    from grawler_ray.functions.similarity import embedding_dup_pairs

    emb = _read(sf_dir, "embeddings")
    return degree_stats(
        emb.select_columns(["vec_id"]),
        embedding_dup_pairs(emb, threshold=0.45),
        node_col="vec_id",
    )


def _triangle_count(sf_dir: str):
    from grawler_ray.functions.graph import triangle_count
    from grawler_ray.functions.similarity import embedding_dup_pairs

    return triangle_count(embedding_dup_pairs(_read(sf_dir, "embeddings"), threshold=0.45))


def _distinct_words_per_lang(sf_dir: str):
    from grawler_ray.functions.textstats import distinct_words_per_lang

    return distinct_words_per_lang(_read(sf_dir, "documents"))


def _funnel_counts(sf_dir: str):
    from grawler_ray.functions.events import funnel_counts

    return funnel_counts(_read(sf_dir, "events"))


def _countmin_words(sf_dir: str):
    """Point-frequency estimates for a fixed probe list; rows-only (CMS
    is an overestimate by construction) — tests/test_sketch.py asserts the
    est >= true and bounded-error guarantees against exact counts."""
    from grawler_ray.functions.sketch import countmin_words

    return countmin_words(
        _read(sf_dir, "documents"), query_words=("data", "spark", "the", "window", "merge")
    )


def _decontaminate_bloom(sf_dir: str):
    """Bloom-filter scale path of `decontaminate` (bounded broadcast);
    rows-only — one-sided error makes it a superset of the exact flags,
    asserted in tests/test_dedup_pipelines.py."""
    from grawler_ray.functions.quality import decontaminate_bloom

    docs = _read(sf_dir, "documents")
    bench = docs.filter(expr="source == 'src0'")
    train = docs.filter(expr="source != 'src0'")
    return decontaminate_bloom(train, bench, k=3)


_WARC_CACHE: dict[str, str] = {}


def _warc_fixture(sf_dir: str) -> str:
    """Deterministic WARC segments synthesized from the documents table
    (one gzip member per record, 4 segment files) — the differential-oracle
    trick: the Ray path parses REAL WARC bytes, the SQL oracle predicts the
    same rows straight from `documents`, so the whole format round-trip is
    SQL-checked."""
    import hashlib
    import os

    if sf_dir in _WARC_CACHE:
        return _WARC_CACHE[sf_dir]
    import duckdb

    from grawler_ray.sources.warc import write_warc

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/grawler_warc_{tag}"
    if not os.path.exists(os.path.join(d, "seg-3.warc.gz")):
        os.makedirs(d, exist_ok=True)
        rows = duckdb.sql(
            f"SELECT doc_id, text FROM read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
        ).fetchall()
        for seg in range(4):
            write_warc(
                os.path.join(d, f"seg-{seg}.warc.gz"),
                [
                    {
                        "url": f"http://warc.test/{doc_id}",
                        "warc_ts": doc_id * 1_000_000,
                        "html": (text or "").encode(),
                        "status_code": 200,
                        "content_type": "text/html",
                    }
                    for doc_id, text in rows
                    if doc_id % 4 == seg
                ],
            )
    _WARC_CACHE[sf_dir] = d
    return d


_JSONL_CACHE: dict[str, str] = {}
_CSV_CACHE: dict[str, str] = {}


_XLSX_CACHE: dict[str, str] = {}


def _xlsx_fixture(sf_dir: str) -> str:
    """Deterministic XLSX workbook shards synthesized from the documents
    table (shared-strings pool on even shards, inline strings on odd;
    sparse rows via nulls) — the same differential-oracle trick as
    [[_csv_fixture]] for the from-scratch sources/xlsx.py reader."""
    import hashlib
    import os

    if sf_dir in _XLSX_CACHE:
        return _XLSX_CACHE[sf_dir]
    import duckdb

    import pyarrow as pa

    from grawler_ray.sources.xlsx import write_xlsx

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/grawler_xlsx_{tag}"
    if not os.path.exists(os.path.join(d, "shard-3.xlsx")):
        os.makedirs(d, exist_ok=True)
        rows = duckdb.sql(
            f"SELECT doc_id, lang, source, length(text) FROM "
            f"read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
        ).fetchall()
        shards: list[list] = [[] for _ in range(4)]
        for r in rows:
            shards[r[0] % 4].append(r)
        for i, rs in enumerate(shards):
            t = pa.table(
                {
                    "doc_id": pa.array([r[0] for r in rs], pa.int64()),
                    "lang": pa.array([r[1] for r in rs], pa.string()),
                    "source": pa.array([r[2] for r in rs], pa.string()),
                    "n_chars_xlsx": pa.array([r[3] for r in rs], pa.int64()),
                }
            )
            with open(os.path.join(d, f"shard-{i}.xlsx"), "wb") as f:
                f.write(write_xlsx(t, shared_strings=i % 2 == 0))
    _XLSX_CACHE[sf_dir] = d
    return d


def _xlsx_ingest(sf_dir: str):
    """From-scratch XLSX reader (sources/xlsx.py: zip + SpreadsheetML
    cell walk, shared AND inline strings, sparse rows) over synthesized
    workbook shards; the SQL oracle predicts every column from
    `documents` directly."""
    from grawler_ray.sources.xlsx import read_xlsx_files

    d = _xlsx_fixture(sf_dir)
    return read_xlsx_files([f"{d}/shard-{i}.xlsx" for i in range(4)])


def _csv_fixture(sf_dir: str) -> str:
    """Deterministic quoted-CSV shards synthesized from the documents
    table (QUOTE_ALL, embedded newlines kept inside quotes) — the same
    differential-oracle trick as [[_jsonl_fixture]] for the native
    ray.data.read_csv source."""
    import csv as _csv
    import hashlib
    import os

    if sf_dir in _CSV_CACHE:
        return _CSV_CACHE[sf_dir]
    import duckdb

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/grawler_csv_{tag}"
    if not os.path.exists(os.path.join(d, "shard-3.csv")):
        os.makedirs(d, exist_ok=True)
        rows = duckdb.sql(
            f"SELECT doc_id, text, lang, source FROM "
            f"read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
        ).fetchall()
        shards: list[list] = [[] for _ in range(4)]
        for r in rows:
            shards[r[0] % 4].append(r)
        for i, rs in enumerate(shards):
            with open(os.path.join(d, f"shard-{i}.csv"), "w", newline="") as f:
                w = _csv.writer(f, quoting=_csv.QUOTE_ALL, lineterminator="\n")
                w.writerow(["doc_id", "text", "lang", "source"])
                w.writerows(rs)
    _CSV_CACHE[sf_dir] = d
    return d


def _csv_ingest(sf_dir: str):
    """Native ray.data.read_csv over synthesized quoted-CSV shards
    (newlines_in_values on, exercising the quoting round-trip); the SQL
    oracle predicts every column from `documents` directly."""
    import pyarrow.csv as pacsv
    import ray.data

    d = _csv_fixture(sf_dir)
    ds = ray.data.read_csv(
        [f"{d}/shard-{i}.csv" for i in range(4)],
        parse_options=pacsv.ParseOptions(newlines_in_values=True),
    )

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table(
            {
                "doc_id": _pc.cast(t.column("doc_id"), pa.int64()),
                "lang": t.column("lang"),
                "source": t.column("source"),
                "n_chars_csv": _pc.cast(
                    _pc.utf8_length(t.column("text")), pa.int64()
                ),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def _jsonl_fixture(sf_dir: str) -> str:
    """Deterministic JSONL shards synthesized from the documents table —
    the warc_ingest differential-oracle trick for the native
    ray.data.read_json source: Ray parses REAL JSONL bytes, the SQL oracle
    predicts the same rows straight from `documents`."""
    import hashlib
    import json as _json
    import os

    if sf_dir in _JSONL_CACHE:
        return _JSONL_CACHE[sf_dir]
    import duckdb

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/grawler_jsonl_{tag}"
    if not os.path.exists(os.path.join(d, "shard-3.jsonl")):
        os.makedirs(d, exist_ok=True)
        rows = duckdb.sql(
            f"SELECT doc_id, text, lang, source FROM "
            f"read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
        ).fetchall()
        shards = [[] for _ in range(4)]
        for doc_id, text, lang, source in rows:
            shards[doc_id % 4].append(
                _json.dumps(
                    {"doc_id": doc_id, "text": text, "lang": lang, "source": source},
                    ensure_ascii=False,
                )
            )
        for i, lines in enumerate(shards):
            with open(os.path.join(d, f"shard-{i}.jsonl"), "w") as f:
                f.write("\n".join(lines) + ("\n" if lines else ""))
    _JSONL_CACHE[sf_dir] = d
    return d


def _jsonl_ingest(sf_dir: str):
    """Native ray.data.read_json over synthesized JSONL shards; the SQL
    oracle predicts every column from `documents` directly (round-trip
    through real JSON bytes is what's being checked)."""
    import ray.data

    d = _jsonl_fixture(sf_dir)
    ds = ray.data.read_json([f"{d}/shard-{i}.jsonl" for i in range(4)])

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return pa.table(
            {
                "doc_id": _pc.cast(t.column("doc_id"), pa.int64()),
                "lang": t.column("lang"),
                "source": t.column("source"),
                "n_chars_json": _pc.cast(
                    _pc.utf8_length(t.column("text")), pa.int64()
                ),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


_SITEMAP_CACHE: dict[str, str] = {}


def _sitemap_fixture(sf_dir: str) -> str:
    """Deterministic sitemap urlset files synthesized from `documents`
    (4 segments, two of them gzipped per the .xml.gz convention) — the
    warc_ingest differential-oracle trick: the Ray path parses REAL spec
    XML, the SQL oracle predicts the same rows from doc_id arithmetic.
    Optional fields are OMITTED on arithmetic patterns so the
    nullable-column path is exercised end-to-end."""
    import hashlib
    import os

    if sf_dir in _SITEMAP_CACHE:
        return _SITEMAP_CACHE[sf_dir]
    import duckdb

    from grawler_ray.sources.sitemap import write_sitemap

    tag = hashlib.md5(sf_dir.encode()).hexdigest()[:10]
    d = f"/tmp/grawler_sitemap_{tag}"
    if not os.path.exists(os.path.join(d, "seg-3.xml.gz")):
        os.makedirs(d, exist_ok=True)
        ids = [
            r[0]
            for r in duckdb.sql(
                f"SELECT doc_id FROM read_parquet('{sf_dir}/documents.parquet') ORDER BY doc_id"
            ).fetchall()
        ]
        freqs = ["daily", "weekly", "monthly"]
        for seg in range(4):
            entries = []
            for doc_id in ids[seg::4]:
                entries.append(
                    {
                        "url": f"http://site.test/page/{doc_id}",
                        "lastmod": None
                        if doc_id % 11 == 0
                        else f"2024-01-{(doc_id % 28) + 1:02d}",
                        "changefreq": None
                        if doc_id % 5 == 0
                        else freqs[doc_id % 3],
                        "priority": None
                        if doc_id % 7 == 0
                        else (doc_id % 10) / 10,
                    }
                )
            gz = seg >= 2
            write_sitemap(
                os.path.join(d, f"seg-{seg}.xml" + (".gz" if gz else "")),
                entries,
                gzipped=gz,
            )
    _SITEMAP_CACHE[sf_dir] = d
    return d


def _sitemap_ingest(sf_dir: str):
    """Parse the synthesized sitemap segments; the SQL oracle predicts
    every column (incl. the omitted-field NULLs) from doc_id arithmetic."""
    from grawler_ray.sources.sitemap import read_sitemaps

    d = _sitemap_fixture(sf_dir)
    return read_sitemaps(
        [f"{d}/seg-0.xml", f"{d}/seg-1.xml", f"{d}/seg-2.xml.gz", f"{d}/seg-3.xml.gz"]
    )


def _warc_ingest(sf_dir: str):
    """Parse the synthesized WARC segments back to the pages schema; the
    SQL oracle predicts every column from `documents` directly."""
    import pyarrow as pa

    from grawler_ray.sources.warc import read_warc

    d = _warc_fixture(sf_dir)
    ds = read_warc([f"{d}/seg-{i}.warc.gz" for i in range(4)])

    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "url": t.column("url"),
                "warc_ts": t.column("warc_ts"),
                "status_code": pc.cast(t.column("status_code"), pa.int64()),
                "content_type": t.column("content_type"),
                "n_html_bytes": pc.cast(
                    pc.binary_length(t.column("html")), pa.int64()
                ),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow")


def _compression_signals(sf_dir: str):
    from grawler_ray.functions.quality import compression_signals_batch

    return _read(sf_dir, "documents").map_batches(
        compression_signals_batch, batch_format="pyarrow"
    )


def _redact_pii(sf_dir: str):
    """Rule-based PII scrubbing (Dolma/ROOTS-style) over documents.

    The synthetic corpus contains no natural PII, so every row is salted
    with a deterministic doc_id-derived email + phone + IPv4 suffix BEFORE
    redaction — the DuckDB oracle mirrors the exact same concatenation, so
    the scrub itself (3 sequential RE2 replace stages + per-stage counts)
    is what the hash compare verifies."""
    import pyarrow.compute as pc

    from grawler_ray.functions.quality import redact_pii_batch

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id")
        salted = pc.binary_join_element_wise(
            pc.cast(t.column("text"), pa.string()),
            " contact user",
            pc.cast(ids, pa.string()),
            "@example.com call 555-123-4567 from 10.",
            # doc_id % 256 via bit mask (doc_id >= 0)
            pc.cast(pc.bit_wise_and(ids, 255), pa.string()),
            ".0.1",
            "",
        )
        return redact_pii_batch(pa.table({"doc_id": ids, "text": salted}))

    return _read(sf_dir, "documents").map_batches(fn, batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # DRIVER WINDOW (first 50): the driver's correctness gate runs
        # list(queries())[:50]; rounds rotate this window so hard-gate
        # coverage accumulates — 3 long-green sentinels, then entries
        # with no CORRECTNESS_r* row in any prior round (r5 rotation).
        "word_freq": _word_freq,
        "exact_dedup": _exact_dedup,
        "politeness_slots": _politeness_slots,
        "revenue_by_region": _revenue_by_region,
        "user_type_join": _user_type_join,
        "events_orders_full": _events_orders_full,
        "order_part_bfs": _order_part_bfs,
        "copurchase_topk": _copurchase_topk,
        "winsorized_spend": _winsorized_spend,
        "hits_scores": _hits_scores,
        "price_qty_regression": _price_qty_regression,
        "skyline_price_qty": _skyline_price_qty,
        "redirect_resolve": _redirect_resolve,
        "split_by_cluster": _split_by_cluster,
        "snapshot_delta": _snapshot_delta,
        "recrawl_urls": _recrawl_urls,
        "recrawl_schedule": _recrawl_schedule,
        "event_deltas": _event_deltas,
        "triangle_count": _triangle_count,
        "kcore_nodes": _kcore,
        "funnel_counts": _funnel_counts,
        "concurrent_users": _concurrent_users,
        "spearman_qty_price": _spearman_qty_price,
        "robots_eval": _robots_eval,
        "pdf_ingest": _pdf_ingest,
        "warc_ingest": _warc_ingest,
        "sitemap_ingest": _sitemap_ingest,
        "jsonl_ingest": _jsonl_ingest,
        "csv_ingest": _csv_ingest,
        "ssjoin_pairs": _ssjoin_pairs,
        "fuzzy_name_pairs": _fuzzy_name_pairs,
        "cross_dedup_pairs": _cross_dedup_pairs,
        "cross_embedding_dups": _cross_embedding_dups,
        "bigram_counts": _bigram_counts,
        "cooccurrence_topk": _cooccurrence_topk,
        "bigram_lm_score": _bigram_lm_score,
        "pmi_topk": _pmi_topk,
        "doc_entropy": _doc_entropy,
        "readability": _readability,
        "script_ratios": _script_ratios,
        "vocab_coverage": _vocab_coverage,
        "chunk_docs": _chunk_docs,
        "benford_spend": _benford_spend,
        "customers_without_orders": _customers_without_orders,
        "source_lang_cube": _source_lang_cube,
        "lineitem_melt": _lineitem_melt,
        "brand_revenue": _brand_revenue,
        "cumulative_spend": _cumulative_spend,
        "qty_discount_corr": _qty_discount_corr,
        "nation_gini": _nation_gini,
        # SQL-checked (driver-gated in earlier rounds or local-gate green)
        "process_text": _process_text,
        "doc_stats": _doc_stats,
        "fingerprint": _fingerprint,
        "token_count": _token_count,
        "normalized_dedup": _normalized_dedup,
        "shuffle_shards": _shuffle_shards,
        "lang_count": _lang_count,
        "top_words": _top_words,
        "top_words_per_lang": _top_words_per_lang,
        "events_first": _events_first,
        "sessionize": _sessionize,
        "rolling_sum": _rolling_sum,
        "rolling_median": _rolling_median,
        "last_touch": _last_touch,
        "user_distinct_types": _user_distinct_types,
        "rolling_distinct": _rolling_distinct,
        "events_hourly": _events_hourly,
        "events_json": _events_json,
        "asof_join": _asof_join,
        "range_join_count": _range_join_count,
        "time_window_sum": _time_window_sum,
        "repetition_signals": _repetition_signals,
        "quality_filter": _quality_filter,
        "decontaminate": _decontaminate,
        "inverted_index": _inverted_index,
        "length_quantiles": _length_quantiles,
        "pagerank": _pagerank,
        "dup_spans": _dup_spans,
        "dup_spans_join": _dup_spans_join,
        "semdedup": _semdedup,
        "topk_words_sketch": _topk_words_sketch,
        "approx_distinct_words": _approx_distinct_words,
        "line_dedup": _line_dedup,
        "line_dedup_join": _line_dedup_join,
        "tfidf_topk": _tfidf_topk,
        "q1_agg": _q1_agg,
        "orders_by_nation": _orders_by_nation,
        "lineitem_join_orders": _lineitem_join_orders,
        "ann_topk": _ann_topk,
        "ngram_jaccard_pairs": _ngram_jaccard_pairs,
        "dedup_clusters": _dedup_clusters,
        "dedup_keep_longest": _dedup_keep_longest,
        "snapshot_diff": _snapshot_diff,
        "change_rate": _change_rate,
        "url_trap_score": _url_trap_score,
        "source_apportion": _source_apportion,
        "anchor_texts": _anchor_texts,
        "pack_manifest": _pack_manifest,
        "label_centroids": _label_centroids,
        "user_retention": _user_retention,
        "dup_ratio_by_source": _dup_ratio_by_source,
        "ngram_containment_pairs": _ngram_containment_pairs,
        "embedding_dup_pairs": _embedding_dup_pairs,
        "sample_docs": _sample_docs,
        "stratified_sample": _stratified_sample,
        "train_split_counts": _train_split_counts,
        "multimodal_meta": _multimodal_meta,
        "multimodal_resize": _multimodal_resize,
        "multimodal_frames": _multimodal_frames,
        "cdc_chunks": _cdc_chunks,
        "source_cap": _source_cap,
        "source_lang_pivot": _source_lang_pivot,
        "degree_stats": _degree_stats,
        "cdc_delta_stats": _cdc_delta_stats,
        "distinct_words_per_lang": _distinct_words_per_lang,
        "charset_detect": _charset_detect,
        "redact_pii": _redact_pii,
        "normalize_text": _normalize_text,
        "rare_word_ratio": _rare_word_ratio,
        "customers_with_orders": _customers_with_orders,
        "lang_quality_buckets": _lang_quality_buckets,
        "source_lang_rollup": _source_lang_rollup,
        "docs_by_length": _docs_by_length,
        "quantile_sketch": _quantile_sketch,
        "grouped_quantile_sketch": _grouped_quantile_sketch,
        "mixture_sample": _mixture_sample,
        "source_sample_k": _source_sample_k,
        "customer_order_counts": _customer_order_counts,
        "top_orders_per_customer": _top_orders_per_customer,
        "lineitem_moments": _lineitem_moments,
        "zscore_orders": _zscore_orders,
        "qty_histogram": _qty_histogram,
        "weighted_sample": _weighted_sample,
        "anchor_relevance": _anchor_relevance,
        "related_docs_topk": _related_docs_topk,
        "transition_counts": _transition_counts,
        "path_trigrams": _path_trigrams,
        "mirror_sources": _mirror_sources,
        "spend_quantiles": _spend_quantiles,
        "user_paths": _user_paths,
        "source_budget": _source_budget,
        "source_kl": _source_kl,
        "running_revenue": _running_revenue,
        "main_content": _main_content,
        "span_overlap_counts": _span_overlap_counts,
        "token_budget_cap": _token_budget_cap,
        "spend_ntile": _spend_ntile,
        "date_rank": _date_rank,
        "vocab_overlap": _vocab_overlap,
        "nation_spend_quartile": _nation_spend_quartile,
        "new_users_daily": _new_users_daily,
        "user_gap_moments": _user_gap_moments,
        "spend_mad": _spend_mad,
        "balance_percent_rank": _balance_percent_rank,
        "session_stats": _session_stats,
        "hopping_counts": _hopping_counts,
        "spend_outliers": _spend_outliers,
        "source_lang_chi2": _source_lang_chi2,
        "length_ks_drift": _length_ks_drift,
        "sniff_mismatch": _sniff_mismatch,
        "length_rank_auc": _length_rank_auc,
        "qty_mode": _qty_mode,
        "centroid_distances": _centroid_distances,
        "source_ks_matrix": _source_ks_matrix,
        "lineitem_profile": _lineitem_profile,
        "winnow_fps": _winnow_fps,
        "ewma_scores": _ewma_scores,
        "zipf_fit": _zipf_fit,
        "skyline_range": _skyline_range,
        # rows-only
        "quality_lr": _quality_lr,
        "dsir_weights": _dsir_weights,
        "curate_corpus": _curate_corpus,
        "bpe_merges": _bpe_merges,
        "bpe_token_counts": _bpe_token_counts,
        "compression_signals": _compression_signals,
        "countmin_words": _countmin_words,
        "decontaminate_bloom": _decontaminate_bloom,
        "multimodal_features": _multimodal_features,
        "png_meta": _png_meta,
        "png_resize": _png_resize,
        "jpeg_meta": _jpeg_meta,
        "jpeg_resize": _jpeg_resize,
        "gif_meta": _gif_meta,
        "gif_frames": _gif_frames,
        "wav_features": _wav_features,
        "avi_meta": _avi_meta,
        "avi_frames": _avi_frames,
        "audio_codecs": _audio_codecs,
        "media_triage": _media_triage,
        "media_prep": _media_prep,
        # appended post-rotation (r5 session 2): new entries go AFTER the
        # driver's first-50 window so the rotated window stays intact
        "docx_ingest": _docx_ingest,
        "odt_ingest": _odt_ingest,
        "ann_hnsw_update_topk": _ann_hnsw_update_topk,
        "rtf_ingest": _rtf_ingest,
        "xlsx_ingest": _xlsx_ingest,
        "crawl_extended_docs": _crawl_extended_docs,
        "epub_ingest": _epub_ingest,
        "image_dhash_pairs": _image_dhash_pairs,
        "audio_mfcc": _audio_mfcc,
        "avi_scenes": _avi_scenes,
        "langid": _langid,
        "langid_confusion": _langid_confusion,
        "minhash_pairs": _minhash_pairs,
        "prep_corpus": _prep_corpus,
        "minhash_incremental": _minhash_incremental,
        "minhash_index_update": _minhash_index_update,
        "simhash": _simhash,
        "simhash_pairs": _simhash_pairs,
        "ann_lsh_topk": _ann_lsh_topk,
        "ann_pq_topk": _ann_pq_topk,
        "ann_indexed_topk": _ann_indexed_topk,
        "ann_ivf_topk": _ann_ivf_topk,
        "ann_ivf_update_topk": _ann_ivf_update_topk,
        "ann_hnsw_topk": _ann_hnsw_topk,
        "lsh_buckets": _lsh_buckets,
        "crawl_documents": _crawl_documents,
        "crawl_documents_upsert": _crawl_documents_upsert,
        "crawl_words": _crawl_words,
        "crawl_trace": _crawl_trace,
        "crawl_host_graph": _crawl_host_graph,
        "crawl_host_components": _crawl_host_components,
        "crawl_compacted": _crawl_compacted,
        "crawl_host_rank": _crawl_host_rank,
    }


# shared by dedup_clusters / dedup_keep_longest: 3-gram shingles -> Jaccard
# >= 0.5 pair graph -> recursive-CTE transitive closure (reach(node, comp))
_NGRAM_COMPONENTS_CTE = r"""
            WITH RECURSIVE sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) >= 3 THEN
                            list_distinct(list_transform(range(1, len(w) - 1),
                                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                          WHEN len(w) >= 1 THEN [array_to_string(w, ' ')]
                          ELSE [] END AS s
              FROM (SELECT doc_id, regexp_extract_all(lower(text), '\b\w+\b') AS w
                    FROM documents)
            ),
            pairs AS (
              SELECT s1.doc_id AS a, s2.doc_id AS b
              FROM sh s1 JOIN sh s2 ON s1.doc_id < s2.doc_id
              WHERE CASE WHEN len(s1.s) = 0 AND len(s2.s) = 0 THEN 1.0
                         ELSE len(list_intersect(s1.s, s2.s))::DOUBLE /
                              NULLIF(len(list_distinct(list_concat(s1.s, s2.s))), 0)
                    END >= 0.5
            ),
            edges AS (
              SELECT a AS src, b AS dst FROM pairs
              UNION ALL
              SELECT b, a FROM pairs
            ),
            reach(node, comp) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT e.dst, r.comp FROM reach r JOIN edges e ON e.src = r.node
            )
"""


def _hits_sql(iters: int = 4, scale: int = 10**9) -> str:
    """Unroll graph.hits's pinned integer recurrence (h0 = scale; per
    iteration: in-edge sums normalized by the truncating total, then
    out-edge sums likewise) as k CTE layers over the directed order→part
    lineitem multiset — integer sums are order-independent, so the hash
    compare is exact."""
    layers = []
    for k in range(1, iters + 1):
        layers.append(
            f"""ar{k} AS (SELECT e.t AS v, sum(p.h)::BIGINT AS ar
                  FROM edges e JOIN h{k - 1} p ON e.s = p.v GROUP BY e.t),
        ad{k} AS (SELECT greatest(1, coalesce(sum(ar), 0) // {scale})::BIGINT AS d
                  FROM ar{k}),
        a{k} AS (SELECT n.v, (coalesce(ar.ar, 0) // ad{k}.d)::BIGINT AS a
                 FROM nodes n CROSS JOIN ad{k} LEFT JOIN ar{k} ar ON n.v = ar.v),
        hr{k} AS (SELECT e.s AS v, sum(q.a)::BIGINT AS hr
                  FROM edges e JOIN a{k} q ON e.t = q.v GROUP BY e.s),
        hd{k} AS (SELECT greatest(1, coalesce(sum(hr), 0) // {scale})::BIGINT AS d
                  FROM hr{k}),
        h{k} AS (SELECT n.v, (coalesce(hr.hr, 0) // hd{k}.d)::BIGINT AS h
                 FROM nodes n CROSS JOIN hd{k} LEFT JOIN hr{k} hr ON n.v = hr.v)"""
        )
    return f"""
        WITH edges AS MATERIALIZED (
            SELECT l_orderkey::BIGINT AS s, (l_partkey + 10000000)::BIGINT AS t
            FROM lineitem),
        nodes AS MATERIALIZED (
            SELECT DISTINCT v
            FROM (SELECT s AS v FROM edges UNION ALL SELECT t AS v FROM edges)),
        h0 AS (SELECT v, {scale}::BIGINT AS h FROM nodes),
        {",".join(layers)}
        SELECT hh.v AS node_id, hh.h AS hub, aa.a AS auth
        FROM h{iters} hh JOIN a{iters} aa ON hh.v = aa.v
    """


def _pagerank_sql(iters: int = 5, d_pct: int = 85, scale: int = 10**9) -> str:
    """Unroll graph.pagerank's pinned integer recurrence as k CTE layers
    (integer sums are order-independent, so the hash compare is exact)."""
    layers = []
    for k in range(1, iters + 1):
        layers.append(
            f"""r{k} AS (
              SELECT nodes.v,
                     (((100 - {d_pct}) * ({scale} // nn.n)) // 100
                      + ({d_pct} * coalesce(c.cs, 0)) // 100)::BIGINT AS r
              FROM nodes CROSS JOIN nn
              LEFT JOIN (SELECT e.t AS v, sum(p.r // dg.dg)::BIGINT AS cs
                         FROM edges e
                         JOIN r{k - 1} p ON e.s = p.v
                         JOIN deg dg ON e.s = dg.s
                         GROUP BY e.t) c ON nodes.v = c.v)"""
        )
    return f"""
        WITH pairs AS (
            SELECT e1.vec_id AS a, e2.vec_id AS b
            FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id
            WHERE list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                                         CAST(e2.embedding AS DOUBLE[])) >= 0.45),
        edges AS (SELECT a AS s, b AS t FROM pairs
                  UNION ALL SELECT b AS s, a AS t FROM pairs),
        deg AS (SELECT s, count(*)::BIGINT AS dg FROM edges GROUP BY s),
        nodes AS (SELECT vec_id AS v FROM embeddings),
        nn AS (SELECT count(*)::BIGINT AS n FROM nodes),
        r0 AS (SELECT v, ({scale} // nn.n)::BIGINT AS r FROM nodes CROSS JOIN nn),
        {",".join(layers)}
        SELECT v AS vec_id, r AS rank FROM r{iters}
    """


# shared by repetition_signals and quality_filter (quality.py pins the
# definitions: non-empty '\n' lines, \b\w+\b words over lower(text), space-
# joined bigrams with (count desc, bigram asc) top pick — all-integer output)
_REPETITION_SIG_SQL = r"""
    WITH L AS (SELECT doc_id,
                      list_filter(string_split(text, chr(10)), x -> len(x) > 0) AS ls
               FROM documents),
    lines AS (SELECT doc_id, unnest(ls) AS line FROM L),
    lc AS (SELECT doc_id, line, count(*) AS c FROM lines GROUP BY doc_id, line),
    lstats AS (SELECT doc_id, sum(c) AS n_lines, sum(c) - count(*) AS n_dup_lines,
                      sum((c - 1) * length(line)) AS dup_line_chars,
                      sum(c * length(line)) AS total_line_chars
               FROM lc GROUP BY doc_id),
    W AS (SELECT doc_id, regexp_extract_all(lower(text), '\b\w+\b') AS w FROM documents),
    wstats AS (SELECT doc_id,
                      coalesce(list_sum(list_transform(w, x -> length(x))), 0)
                        AS total_word_chars
               FROM W),
    bg AS (SELECT doc_id,
                  unnest(list_transform(range(1, len(w)), i -> w[i] || ' ' || w[i+1])) AS b
           FROM W),
    bc AS (SELECT doc_id, b, count(*) AS c FROM bg GROUP BY doc_id, b),
    btop AS (SELECT doc_id, c AS top_bigram_count, c * length(b) AS top_bigram_chars
             FROM (SELECT doc_id, b, c,
                          row_number() OVER (PARTITION BY doc_id
                                             ORDER BY c DESC, b) AS rn
                   FROM bc)
             WHERE rn = 1)
    SELECT d.doc_id,
           coalesce(l.n_lines, 0)::BIGINT AS n_lines,
           coalesce(l.n_dup_lines, 0)::BIGINT AS n_dup_lines,
           coalesce(l.dup_line_chars, 0)::BIGINT AS dup_line_chars,
           coalesce(l.total_line_chars, 0)::BIGINT AS total_line_chars,
           coalesce(ws.total_word_chars, 0)::BIGINT AS total_word_chars,
           coalesce(bt.top_bigram_count, 0)::BIGINT AS top_bigram_count,
           coalesce(bt.top_bigram_chars, 0)::BIGINT AS top_bigram_chars
    FROM documents d
    LEFT JOIN lstats l ON d.doc_id = l.doc_id
    LEFT JOIN wstats ws ON d.doc_id = ws.doc_id
    LEFT JOIN btop bt ON d.doc_id = bt.doc_id
"""


def oracle_sql() -> dict[str, str]:
    sql = {
        "word_freq": rf"""
            SELECT doc_id, lower(w) AS word, count(*)::BIGINT AS frequency
            FROM (SELECT doc_id, unnest(regexp_extract_all(text, '\b\w+\b')) AS w
                  FROM documents)
            GROUP BY doc_id, lower(w)
        """,
        "process_text": """
            SELECT doc_id,
                   trim(replace(replace(text, chr(10), ''), chr(13), ''), ' ') AS processed
            FROM documents
        """,
        "doc_stats": rf"""
            SELECT doc_id,
                   len(regexp_extract_all(lower(text), '\b\w+\b'))::BIGINT AS n_words,
                   len(list_filter(regexp_extract_all(lower(text), '\b\w+\b'),
                                   x -> x IN {STOP_SQL}))::BIGINT AS n_stop,
                   length(text)::BIGINT AS n_chars_actual,
                   CASE WHEN n_words > 0 THEN n_stop / CAST(n_words AS DOUBLE)
                        ELSE NULL END AS stop_ratio
            FROM documents
        """,
        "fingerprint": """
            SELECT doc_id, substring(md5(text), 1, 16) AS fingerprint FROM documents
        """,
        # the three patterns are RE2-compatible mirrors of
        # textstats.BPE_TOKEN_PATTERN / _WS_RE / _PUNCT_RE ($$-quoted: the
        # contraction alternatives contain single quotes); DuckDB string
        # literals pass backslashes through to RE2 just as Python raw
        # strings do to `re`, so the counts are bit-identical
        "token_count": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text,
                       $$'(?:s|t|re|ve|m|ll|d)| ?[a-zA-Z]+| ?[0-9]+| ?[^ \t\n\r\fa-zA-Z0-9]+|[ \t\n\r\f]+$$
                   ))::BIGINT AS n_bpe_tokens,
                   len(regexp_extract_all(text, $$[^ \t\n\r\f]+$$))::BIGINT AS n_ws_tokens,
                   len(regexp_extract_all(text, $$[^ \t\n\r\fa-zA-Z0-9]$$))::BIGINT AS n_punct_chars
            FROM documents
        """,
        "exact_dedup": """
            SELECT md5(text) AS text_hash,
                   min(doc_id)::BIGINT AS keep_doc_id,
                   count(*)::BIGINT AS n_dups
            FROM documents GROUP BY md5(text)
        """,
        "lang_count": """
            SELECT lang, count(*)::BIGINT AS n FROM documents GROUP BY lang
        """,
        "top_words": rf"""
            SELECT lower(w) AS word, count(*)::BIGINT AS total
            FROM (SELECT unnest(regexp_extract_all(text, '\b\w+\b')) AS w FROM documents)
            GROUP BY lower(w)
            ORDER BY total DESC, word ASC
            LIMIT 100
        """,
        "top_words_per_lang": rf"""
            SELECT lang, word, total, rank
            FROM (SELECT lang, word, total,
                         row_number() OVER (PARTITION BY lang
                                            ORDER BY total DESC, word) AS rank
                  FROM (SELECT lang, lower(w) AS word, count(*)::BIGINT AS total
                        FROM (SELECT lang,
                                     unnest(regexp_extract_all(text, '\b\w+\b')) AS w
                              FROM documents)
                        GROUP BY lang, lower(w)))
            WHERE rank <= 10
        """,
        "events_first": """
            SELECT user_id, event_type, event_id AS first_event_id
            FROM (SELECT user_id, event_type, event_id,
                         row_number() OVER (PARTITION BY user_id, event_type
                                            ORDER BY ts, event_id) AS rn
                  FROM events)
            WHERE rn = 1
        """,
        "sessionize": """
            SELECT event_id, user_id,
                   (sum(CASE WHEN prev_ts IS NULL
                             OR epoch_us(ts) - epoch_us(prev_ts) > 30*60*1000000
                             THEN 1 ELSE 0 END)
                      OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1)::BIGINT
                     AS session_id
            FROM (SELECT event_id, user_id, ts,
                         lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_ts
                  FROM events)
        """,
        "rolling_sum": """
            SELECT event_id, user_id,
                   sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
                     OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)::BIGINT
                     AS roll_cents
            FROM events
        """,
        # windowed median over BIGINT interpolates (mean of the two
        # middles, DOUBLE) — integral-or-.5, exactly representable
        "rolling_median": """
            SELECT event_id, user_id,
                   median(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
                     OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)::DOUBLE
                     AS med_cents
            FROM events
        """,
        "rolling_distinct": """
            SELECT event_id, user_id,
                   len(list_distinct(list(event_type)
                     OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN 3 PRECEDING AND CURRENT ROW)))::BIGINT
                     AS n_distinct
            FROM events
        """,
        "user_distinct_types": """
            WITH f AS (
              SELECT event_id, user_id, ts,
                     CASE WHEN row_number() OVER (
                              PARTITION BY user_id, event_type
                              ORDER BY ts, event_id) = 1
                          THEN 1 ELSE 0 END AS is_first
              FROM events)
            SELECT event_id, user_id,
                   sum(is_first) OVER (PARTITION BY user_id
                                       ORDER BY ts, event_id)::BIGINT
                     AS n_distinct_types
            FROM f
        """,
        "last_touch": """
            WITH w AS (
              SELECT event_id, user_id, event_type,
                     last_value(CASE WHEN event_type IN ('view', 'click')
                                     THEN event_id END IGNORE NULLS)
                       OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
                       AS touch_event_id
              FROM events)
            SELECT event_id, user_id, touch_event_id
            FROM w WHERE event_type = 'purchase'
        """,
        "events_hourly": """
            SELECT event_type,
                   (epoch_us(ts) // 3600000000)::BIGINT AS hour,
                   count(*)::BIGINT AS n,
                   sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))::BIGINT AS sum_cents
            FROM events GROUP BY event_type, hour
        """,
        "events_json": r"""
            SELECT event_id,
                   CASE WHEN regexp_matches(json_extract_string(props, '$.k'), '^-?\d+$')
                        THEN CAST(json_extract_string(props, '$.k') AS BIGINT)
                        ELSE NULL END AS k
            FROM events
        """,
        "politeness_slots": """
            SELECT event_id, user_id, slot, slot < 4 AS admitted
            FROM (SELECT event_id, user_id,
                         (row_number() OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id) - 1)::BIGINT AS slot
                  FROM events)
        """,
        # per-user as-of join (click ← latest at-or-before purchase); right
        # side deduped to max event_id per (user, ts) — the same tie rule
        # the engine's (user, ts, side, event_id) sort + forward-fill picks
        "asof_join": """
            WITH l AS (SELECT event_id, user_id, ts FROM events
                       WHERE event_type = 'click'),
            r0 AS (SELECT user_id, ts, event_id, value,
                          row_number() OVER (PARTITION BY user_id, ts
                                             ORDER BY event_id DESC) AS rn
                   FROM events WHERE event_type = 'purchase'),
            r AS (SELECT user_id, ts, event_id, value FROM r0 WHERE rn = 1)
            SELECT l.event_id, l.user_id,
                   r.event_id AS matched_event_id,
                   CAST(floor(r.value * 100.0 + 0.5) AS BIGINT) AS matched_cents
            FROM l ASOF LEFT JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts
        """,
        # non-equi interval×point join: every 100th event spawns [ts, ts+30m)
        "range_join_count": """
            WITH iv AS (SELECT event_id AS interval_id, epoch_us(ts) AS s,
                               epoch_us(ts) + 1800000000 AS e
                        FROM events WHERE event_id % 100 = 0)
            SELECT iv.interval_id,
                   count(ev.event_id)::BIGINT AS n_events,
                   coalesce(sum(CAST(floor(ev.value * 100.0 + 0.5) AS BIGINT)), 0)::BIGINT
                     AS sum_cents
            FROM iv LEFT JOIN events ev
              ON epoch_us(ev.ts) >= iv.s AND epoch_us(ev.ts) < iv.e
            GROUP BY iv.interval_id
        """,
        # time-RANGE window (rolling_sum is the ROWS flavor): 7-day window,
        # peers at the current ts included per SQL RANGE semantics
        "time_window_sum": """
            SELECT event_id, user_id,
                   sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
                     OVER (PARTITION BY user_id ORDER BY epoch_us(ts)
                           RANGE BETWEEN 604800000000 PRECEDING AND CURRENT ROW)::BIGINT
                     AS win_cents
            FROM events
        """,
        # Gopher repetition signals as integer num/den pairs (quality.py
        # pins the definitions); lines = '\n' split, empties excluded
        "repetition_signals": _REPETITION_SIG_SQL,
        # integer-scaled tf-idf (score = tf * ((N*1e6) // df)): floor-div
        # idf so rank order is bit-identical across engines (float ln would
        # flip near-ties)
        "tfidf_topk": rf"""
            WITH wf AS (SELECT doc_id, lower(w) AS word, count(*)::BIGINT AS tf
                        FROM (SELECT doc_id,
                                     unnest(regexp_extract_all(text, '\b\w+\b')) AS w
                              FROM documents)
                        GROUP BY doc_id, lower(w)),
            dfx AS (SELECT word, count(*)::BIGINT AS df FROM wf GROUP BY word),
            nn AS (SELECT count(*)::BIGINT AS n FROM documents),
            sc AS (SELECT wf.doc_id, wf.word, wf.tf, dfx.df,
                          wf.tf * ((nn.n * 1000000) // dfx.df) AS score
                   FROM wf JOIN dfx USING (word) CROSS JOIN nn)
            SELECT doc_id, word, tf, df, score, rank
            FROM (SELECT *, row_number() OVER (PARTITION BY doc_id
                                               ORDER BY score DESC, word) AS rank
                  FROM sc)
            WHERE rank <= 5
        """,
        # global common-token strip (CCNet-style, word unit on this corpus):
        # tokens with corpus-wide count > 100 removed, order preserved
        "line_dedup": """
            WITH L AS (SELECT doc_id, string_split(text, ' ') AS ls FROM documents),
            lx AS (SELECT doc_id, unnest(ls) AS line,
                          unnest(range(1, len(ls) + 1)) AS i
                   FROM L),
            cnt AS (SELECT line, count(*) AS n FROM lx GROUP BY line),
            keptl AS (SELECT lx.doc_id, lx.line, lx.i
                      FROM lx JOIN cnt USING (line) WHERE cnt.n <= 100),
            agg AS (SELECT doc_id,
                           string_agg(line, ' ' ORDER BY i) AS kept_text,
                           count(*) AS n_kept
                    FROM keptl GROUP BY doc_id)
            SELECT L.doc_id,
                   coalesce(a.kept_text, '') AS kept_text,
                   coalesce(a.n_kept, 0)::BIGINT AS n_lines_kept,
                   (len(L.ls) - coalesce(a.n_kept, 0))::BIGINT AS n_lines_removed
            FROM L LEFT JOIN agg a USING (doc_id)
        """,
        # GPT-3-style decontamination: train docs (source != src0) flagged
        # when any lower-word 3-gram also occurs in the src0 benchmark set;
        # n_hits counts DISTINCT overlapping 3-grams per doc
        "decontaminate": r"""
            WITH t AS (SELECT doc_id, source,
                              regexp_extract_all(lower(text), '\b\w+\b') AS w
                       FROM documents),
            g AS (SELECT doc_id, source,
                         unnest(list_transform(
                             range(1, greatest(len(w) - 2, 0) + 1),
                             i -> array_to_string(w[i:i+2], ' '))) AS sh
                  FROM t),
            bench AS (SELECT DISTINCT sh FROM g WHERE source = 'src0'),
            hits AS (SELECT g.doc_id, count(DISTINCT g.sh) AS n_hits
                     FROM g JOIN bench USING (sh)
                     WHERE g.source != 'src0'
                     GROUP BY g.doc_id)
            SELECT t.doc_id,
                   coalesce(h.n_hits, 0)::BIGINT AS n_hits,
                   (CASE WHEN coalesce(h.n_hits, 0) > 0 THEN 1 ELSE 0 END)::BIGINT
                       AS is_contaminated
            FROM t LEFT JOIN hits h USING (doc_id)
            WHERE t.source != 'src0'
        """,
        # exact discrete quantiles via the distributed histogram: p_q is
        # the smallest value whose cumulative count reaches
        # ceil(n*q/100) = (n*q+99)//100 — integer rank arithmetic on both
        # sides so there is no float interpolation to diverge on
        "length_quantiles": """
            WITH c AS (SELECT lang, n_chars, count(*)::BIGINT AS cnt
                       FROM documents GROUP BY 1, 2),
            tot AS (SELECT lang, sum(cnt)::BIGINT AS nt FROM c GROUP BY 1),
            cum AS (SELECT c.lang, c.n_chars,
                           sum(c.cnt) OVER (PARTITION BY c.lang
                                            ORDER BY c.n_chars) AS cn,
                           t.nt
                    FROM c JOIN tot t USING (lang))
            SELECT lang, max(nt)::BIGINT AS n_docs,
                   min(CASE WHEN cn >= (nt*50+99)//100 THEN n_chars END)::BIGINT AS p50,
                   min(CASE WHEN cn >= (nt*90+99)//100 THEN n_chars END)::BIGINT AS p90,
                   min(CASE WHEN cn >= (nt*99+99)//100 THEN n_chars END)::BIGINT AS p99
            FROM cum GROUP BY lang
        """,
        # fixed-point PageRank over the embedding near-dup graph, 5
        # unrolled iterations (graph.py pins the integer recurrence)
        "pagerank": _pagerank_sql(),
        "kcore_nodes": _kcore_sql(),
        "hits_scores": _hits_sql(),
        # exact-substring duplication (Lee et al. window approximation):
        # 40-char windows at stride 10; a window position is duplicated
        # when its exact text occurs at >= 2 (doc, pos) sites corpus-wide.
        # generate_series returns [] when length(text) < 40, so short docs
        # fall out of w and come back with 0s via the LEFT JOIN — matching
        # the engine's recount over every doc
        "dup_spans": """
            WITH w AS (
              SELECT doc_id, substr(text, p, 40) AS s
              FROM (SELECT doc_id, text,
                           unnest(generate_series(1, length(text) - 39, 10)) AS p
                    FROM documents)
            ),
            c AS (SELECT s, count(*) AS n FROM w GROUP BY s),
            agg AS (SELECT w.doc_id, count(*) AS n_windows,
                           sum(CASE WHEN c.n >= 2 THEN 1 ELSE 0 END) AS n_dup
                    FROM w JOIN c USING (s) GROUP BY w.doc_id)
            SELECT d.doc_id,
                   coalesce(a.n_windows, 0)::BIGINT AS n_windows,
                   coalesce(a.n_dup, 0)::BIGINT AS n_dup_windows
            FROM documents d LEFT JOIN agg a USING (doc_id)
        """,
        # Misra-Gries top-k: exact in the capacity >= vocabulary regime
        # (sketch.py pins it), so the oracle is the plain aggregation with
        # the sketch's (est_count desc, word) rank
        "topk_words_sketch": rf"""
            WITH c AS (SELECT w AS word, count(*)::BIGINT AS est_count
                       FROM (SELECT unnest(regexp_extract_all(lower(text),
                                                              '\b\w+\b')) AS w
                             FROM documents)
                       GROUP BY w)
            SELECT word, est_count, rank
            FROM (SELECT word, est_count,
                         row_number() OVER (ORDER BY est_count DESC, word) AS rank
                  FROM c)
            WHERE rank <= 100
        """,
        # inverted index: postings as an ascending comma-joined string so
        # the value hash is list-representation-independent
        "inverted_index": r"""
            WITH wf AS (SELECT doc_id, lower(w) AS word, count(*)::BIGINT AS tf
                        FROM (SELECT doc_id,
                                     unnest(regexp_extract_all(text, '\b\w+\b')) AS w
                              FROM documents)
                        GROUP BY doc_id, lower(w))
            SELECT word, count(*)::BIGINT AS df, sum(tf)::BIGINT AS total_tf,
                   string_agg(doc_id::VARCHAR, ',' ORDER BY doc_id) AS postings
            FROM wf GROUP BY word
        """,
        "quality_filter": rf"""
            WITH sig AS ({_REPETITION_SIG_SQL})
            SELECT doc_id,
                   CASE WHEN total_word_chars < 20 THEN 'too_short'
                        WHEN n_dup_lines * 100 > 30 * n_lines THEN 'dup_lines'
                        WHEN dup_line_chars * 100 > 30 * total_line_chars
                          THEN 'dup_line_chars'
                        WHEN top_bigram_chars * 100 > 20 * total_word_chars
                          THEN 'top_bigram'
                        ELSE '' END AS reason,
                   reason = '' AS keep
            FROM sig
        """,
        "q1_agg": """
            SELECT l_returnflag, l_linestatus,
                   count(*)::BIGINT AS n,
                   sum(CAST(floor(l_quantity * 100.0 + 0.5) AS BIGINT))::BIGINT AS sum_qty_cents,
                   sum(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT))::BIGINT AS sum_price_cents
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_nation": """
            SELECT n.n_name AS nation,
                   count(*)::BIGINT AS n_orders,
                   sum(CAST(floor(o.o_totalprice * 100.0 + 0.5) AS BIGINT))::BIGINT AS total_cents
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "lineitem_join_orders": """
            SELECT o.o_orderpriority,
                   count(*)::BIGINT AS n_lines,
                   sum(CAST(floor(l.l_quantity * 100.0 + 0.5) AS BIGINT))::BIGINT AS sum_qty_cents
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority
        """,
        "ann_topk": f"""
            WITH q AS (SELECT vec_id AS query_id, embedding FROM embeddings
                       WHERE vec_id IN ({",".join(map(str, ANN_QUERY_IDS))})),
            s AS (SELECT q.query_id, e.vec_id,
                         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                                CAST(q.embedding AS DOUBLE[])) AS sim
                  FROM embeddings e CROSS JOIN q
                  WHERE e.vec_id <> q.query_id)
            SELECT query_id, rank, vec_id
            FROM (SELECT query_id, vec_id,
                         row_number() OVER (PARTITION BY query_id
                                            ORDER BY sim DESC, vec_id) AS rank
                  FROM s)
            WHERE rank <= 10
        """,
        "ngram_jaccard_pairs": r"""
            WITH sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) >= 3 THEN
                            list_distinct(list_transform(range(1, len(w) - 1),
                                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                          WHEN len(w) >= 1 THEN [array_to_string(w, ' ')]
                          ELSE [] END AS s
              FROM (SELECT doc_id, regexp_extract_all(lower(text), '\b\w+\b') AS w
                    FROM documents)
            )
            SELECT s1.doc_id AS a, s2.doc_id AS b
            FROM sh s1 JOIN sh s2 ON s1.doc_id < s2.doc_id
            WHERE CASE WHEN len(s1.s) = 0 AND len(s2.s) = 0 THEN 1.0
                       ELSE len(list_intersect(s1.s, s2.s))::DOUBLE /
                            NULLIF(len(list_distinct(list_concat(s1.s, s2.s))), 0)
                  END >= 0.5
        """,
        # transitive closure (recursive CTE) over the SAME pair query as
        # ngram_jaccard_pairs: component = min doc_id reachable through the
        # near-dup graph; singleton docs are their own component
        "dedup_clusters": rf"""
            {_NGRAM_COMPONENTS_CTE}
            SELECT node AS doc_id, min(comp)::BIGINT AS component
            FROM reach GROUP BY node
        """,
        # the same transitive closure, then the split-bucket hash keyed on
        # COMPONENT: near-dups share a component, hence a split (leak guard)
        "split_by_cluster": rf"""
            {_NGRAM_COMPONENTS_CTE},
            comp AS (SELECT node AS doc_id, min(comp)::BIGINT AS component
                     FROM reach GROUP BY node)
            SELECT doc_id, component,
                   CASE WHEN ((component::HUGEINT * 2654435761) % 4294967296)
                             % 1000 < 100
                        THEN 'holdout' ELSE 'train' END AS split
            FROM comp
        """,
        # the same transitive closure, then keep-LONGEST per component
        # (first_value window ordered by n_chars desc, doc_id)
        "dedup_keep_longest": rf"""
            {_NGRAM_COMPONENTS_CTE},
            comp AS (SELECT node AS doc_id, min(comp)::BIGINT AS component
                     FROM reach GROUP BY node)
            SELECT c.doc_id, c.component,
                   first_value(c.doc_id) OVER (
                       PARTITION BY c.component
                       ORDER BY d.n_chars DESC, c.doc_id)::BIGINT AS keep_doc_id
            FROM comp c JOIN documents d USING (doc_id)
        """,
        "embedding_dup_pairs": """
            SELECT e1.vec_id AS a, e2.vec_id AS b
            FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id
            WHERE list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                                         CAST(e2.embedding AS DOUBLE[])) >= 0.45
        """,
        # embedding decontamination: full corpus x derived benchmark cross
        "cross_embedding_dups": """
            SELECT e1.vec_id AS left_id, e2.vec_id AS right_id
            FROM embeddings e1 JOIN embeddings e2 ON e2.vec_id % 10 = 0
            WHERE list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                                         CAST(e2.embedding AS DOUBLE[])) >= 0.45
        """,
        # differential oracle for the WARC reader: the Ray side parses real
        # (gzip-membered) WARC bytes synthesized from `documents`; this
        # predicts every parsed column straight from the table
        "warc_ingest": """
            SELECT 'http://warc.test/' || doc_id AS url,
                   (doc_id * 1000000)::BIGINT AS warc_ts,
                   200::BIGINT AS status_code,
                   'text/html' AS content_type,
                   octet_length(encode(text))::BIGINT AS n_html_bytes
            FROM documents
        """,
        # heuristic langid is exactly SQL-expressible (ASCII \w tokens +
        # ASCII stopword profiles; distinct-hit counts, greatest() argmax
        # with code-sorted first-wins tie-break, 'und' at zero hits)
        "langid": r"""
            WITH tok AS (
                SELECT doc_id,
                       unnest(list_distinct(
                           regexp_extract_all(lower(text), '\b\w+\b'))) AS w
                FROM documents
            ), hits AS (
                SELECT d.doc_id,
                       count(*) FILTER (w IN ('der','die','und','das','ist',
                           'nicht','ein','mit','auf','zu')) AS s_de,
                       count(*) FILTER (w IN ('the','and','of','to','in',
                           'is','that','it','for','on')) AS s_en,
                       count(*) FILTER (w IN ('el','la','de','que','y',
                           'los','en','un','por','con')) AS s_es,
                       count(*) FILTER (w IN ('le','la','et','les','des',
                           'est','une','dans','que','pour')) AS s_fr
                FROM documents d LEFT JOIN tok USING (doc_id)
                GROUP BY d.doc_id
            )
            SELECT doc_id,
                   CASE WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
                        WHEN s_de = greatest(s_de, s_en, s_es, s_fr) THEN 'de'
                        WHEN s_en = greatest(s_de, s_en, s_es, s_fr) THEN 'en'
                        WHEN s_es = greatest(s_de, s_en, s_es, s_fr) THEN 'es'
                        ELSE 'fr'
                   END AS pred_lang,
                   greatest(s_de, s_en, s_es, s_fr)::BIGINT AS score
            FROM hits
        """,
        # langid's CTE joined back to the labeled lang column
        "langid_confusion": r"""
            WITH tok AS (
                SELECT doc_id,
                       unnest(list_distinct(
                           regexp_extract_all(lower(text), '\b\w+\b'))) AS w
                FROM documents
            ), hits AS (
                SELECT d.doc_id, d.lang,
                       count(*) FILTER (w IN ('der','die','und','das','ist',
                           'nicht','ein','mit','auf','zu')) AS s_de,
                       count(*) FILTER (w IN ('the','and','of','to','in',
                           'is','that','it','for','on')) AS s_en,
                       count(*) FILTER (w IN ('el','la','de','que','y',
                           'los','en','un','por','con')) AS s_es,
                       count(*) FILTER (w IN ('le','la','et','les','des',
                           'est','une','dans','que','pour')) AS s_fr
                FROM documents d LEFT JOIN tok USING (doc_id)
                GROUP BY d.doc_id, d.lang
            )
            SELECT lang AS true_lang,
                   CASE WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
                        WHEN s_de = greatest(s_de, s_en, s_es, s_fr) THEN 'de'
                        WHEN s_en = greatest(s_de, s_en, s_es, s_fr) THEN 'en'
                        WHEN s_es = greatest(s_de, s_en, s_es, s_fr) THEN 'es'
                        ELSE 'fr'
                   END AS pred_lang,
                   count(*)::BIGINT AS n
            FROM hits
            GROUP BY true_lang, pred_lang
        """,
        # differential oracle for the sitemap reader: predicts every parsed
        # column (incl. omitted-field NULLs) from doc_id arithmetic
        "sitemap_ingest": """
            SELECT 'http://site.test/page/' || doc_id AS url,
                   CASE WHEN doc_id % 11 = 0 THEN NULL
                        ELSE '2024-01-' ||
                             lpad(((doc_id % 28) + 1)::VARCHAR, 2, '0')
                   END AS lastmod,
                   CASE WHEN doc_id % 5 = 0 THEN NULL
                        WHEN doc_id % 3 = 0 THEN 'daily'
                        WHEN doc_id % 3 = 1 THEN 'weekly'
                        ELSE 'monthly'
                   END AS changefreq,
                   CASE WHEN doc_id % 7 = 0 THEN NULL
                        ELSE (doc_id % 10)::DOUBLE / 10
                   END AS priority
            FROM documents
        """,
        # same shingle CTE as dedup_clusters; containment = inter/min sizes,
        # NULLIF excludes one-empty pairs exactly like the engine
        "ngram_containment_pairs": r"""
            WITH sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) >= 3 THEN
                            list_distinct(list_transform(range(1, len(w) - 1),
                                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                          WHEN len(w) >= 1 THEN [array_to_string(w, ' ')]
                          ELSE [] END AS s
              FROM (SELECT doc_id, regexp_extract_all(lower(text), '\b\w+\b') AS w
                    FROM documents)
            )
            SELECT s1.doc_id AS a, s2.doc_id AS b
            FROM sh s1 JOIN sh s2 ON s1.doc_id < s2.doc_id
            WHERE CASE WHEN len(s1.s) = 0 AND len(s2.s) = 0 THEN 1.0
                       ELSE len(list_intersect(s1.s, s2.s))::DOUBLE /
                            NULLIF(least(len(s1.s), len(s2.s)), 0)
                  END >= 0.8
        """,
        # cross-corpus near-dup (fuzzy decontamination): same shingle CTE,
        # cross join corpus x derived benchmark, both-empty pairs at 1.0
        "cross_dedup_pairs": r"""
            WITH sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) >= 3 THEN
                            list_distinct(list_transform(range(1, len(w) - 1),
                                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                          WHEN len(w) >= 1 THEN [array_to_string(w, ' ')]
                          ELSE [] END AS s
              FROM (SELECT doc_id, regexp_extract_all(lower(text), '\b\w+\b') AS w
                    FROM documents)
            )
            SELECT s1.doc_id AS left_id, s2.doc_id AS right_id
            FROM sh s1 JOIN sh s2 ON s2.doc_id % 20 = 0
            WHERE CASE WHEN len(s1.s) = 0 AND len(s2.s) = 0 THEN 1.0
                       ELSE len(list_intersect(s1.s, s2.s))::DOUBLE /
                            NULLIF(len(list_distinct(list_concat(s1.s, s2.s))), 0)
                  END >= 0.5
        """,
        # deletion-neighborhood blocking vs the brute-force cross join
        "fuzzy_name_pairs": """
            SELECT t1.s_suppkey AS a, t2.s_suppkey AS b
            FROM supplier t1 JOIN supplier t2 ON t1.s_suppkey < t2.s_suppkey
            WHERE levenshtein(t1.s_name, t2.s_name) <= 1
        """,
        # the prefix-filter plan must produce the SAME pairs as the
        # all-pairs baseline: identical oracle to ngram_jaccard_pairs
        "ssjoin_pairs": r"""
            WITH sh AS (
              SELECT doc_id,
                     CASE WHEN len(w) >= 3 THEN
                            list_distinct(list_transform(range(1, len(w) - 1),
                                          i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
                          WHEN len(w) >= 1 THEN [array_to_string(w, ' ')]
                          ELSE [] END AS s
              FROM (SELECT doc_id, regexp_extract_all(lower(text), '\b\w+\b') AS w
                    FROM documents)
            )
            SELECT s1.doc_id AS a, s2.doc_id AS b
            FROM sh s1 JOIN sh s2 ON s1.doc_id < s2.doc_id
            WHERE CASE WHEN len(s1.s) = 0 AND len(s2.s) = 0 THEN 1.0
                       ELSE len(list_intersect(s1.s, s2.s))::DOUBLE /
                            NULLIF(len(list_distinct(list_concat(s1.s, s2.s))), 0)
                  END >= 0.5
        """,
        "dup_ratio_by_source": """
            WITH d AS (SELECT source, md5(text) AS h FROM documents),
            m AS (SELECT h, count(*) AS c FROM d GROUP BY h)
            SELECT d.source, count(*)::BIGINT AS n_docs,
                   sum(CASE WHEN m.c > 1 THEN 1 ELSE 0 END)::BIGINT
                     AS n_dup_docs
            FROM d JOIN m USING (h) GROUP BY d.source
        """,
        # epoch-hour floor division both sides; count(*) over the distinct
        # (user, hour) CTE = distinct active users
        "user_retention": """
            WITH uh AS (SELECT DISTINCT user_id,
                               epoch_us(ts) // 3600000000 AS hour
                        FROM events),
            f AS (SELECT user_id, min(hour) AS cohort_hour
                  FROM uh GROUP BY user_id)
            SELECT f.cohort_hour::BIGINT AS cohort_hour,
                   (uh.hour - f.cohort_hour)::BIGINT AS offset_hours,
                   count(*)::BIGINT AS n_users
            FROM uh JOIN f USING (user_id)
            GROUP BY 1, 2
        """,
        # zipped unnest (value + index) of the float32 vector; both engines
        # promote float32 -> double exactly before the floor, and integer
        # sums are order-independent
        "label_centroids": """
            SELECT label::BIGINT AS label, dim::BIGINT AS dim,
                   sum(CAST(floor(x * 1000000) AS BIGINT))::BIGINT AS sum_scaled,
                   count(*)::BIGINT AS n
            FROM (SELECT label,
                         unnest(CAST(embedding AS DOUBLE[])) AS x,
                         unnest(range(len(embedding))) AS dim
                  FROM embeddings)
            GROUP BY label, dim
        """,
        # GPT-style sequence packing manifest: shard = the sampling.py
        # Knuth rule (UBIGINT cast per ADVICE r2), concatenation offsets
        # via window cumsum, per-doc sequence spans via range() unnest —
        # all-integer, so the overlap arithmetic compares exactly
        "pack_manifest": r"""
            WITH tok AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '\b\w+\b'))::BIGINT AS n,
                       (((doc_id::UBIGINT * 2654435761) % 4294967296)
                        % 64)::BIGINT AS shard
                FROM documents),
            pos AS (
                SELECT shard, doc_id, n,
                       coalesce(sum(n) OVER (PARTITION BY shard ORDER BY doc_id
                                             ROWS BETWEEN UNBOUNDED PRECEDING
                                             AND 1 PRECEDING), 0)::BIGINT
                         AS strt
                FROM tok WHERE n > 0)
            SELECT shard, doc_id, s.seq_id::BIGINT AS seq_id,
                   (least(strt + n, (s.seq_id + 1) * 256)
                    - greatest(strt, s.seq_id * 256))::BIGINT AS n_tok
            FROM pos, unnest(range(strt // 256, (strt + n - 1) // 256 + 1))
                        AS s(seq_id)
        """,
        # derived snapshot B mirrors _snapshot_diff.derive_b exactly; the
        # FULL OUTER JOIN classification is the diff semantics
        "snapshot_diff": """
            WITH b AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 7 = 0 THEN text || ' v2'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 11 <> 0
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       'new page ' || doc_id AS text
                FROM documents WHERE doc_id % 13 = 0
            ),
            a AS (SELECT doc_id, text FROM documents)
            SELECT coalesce(a.doc_id, b.doc_id)::BIGINT AS doc_id,
                   CASE WHEN a.doc_id IS NULL THEN 'added'
                        WHEN b.doc_id IS NULL THEN 'removed'
                        WHEN md5(a.text) <> md5(b.text) THEN 'changed'
                        ELSE 'unchanged' END AS change
            FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
        """,
        # same derived B; the delta keeps B's added/changed rows + payload
        "snapshot_delta": """
            WITH b AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 7 = 0 THEN text || ' v2'
                            ELSE text END AS text
                FROM documents WHERE doc_id % 11 <> 0
                UNION ALL
                SELECT doc_id + 1000000 AS doc_id,
                       'new page ' || doc_id AS text
                FROM documents WHERE doc_id % 13 = 0
            ),
            a AS (SELECT doc_id, text FROM documents)
            SELECT b.doc_id, b.text,
                   CASE WHEN a.doc_id IS NULL THEN 'added'
                        ELSE 'changed' END AS change
            FROM b LEFT JOIN a ON a.doc_id = b.doc_id
            WHERE a.doc_id IS NULL OR md5(a.text) <> md5(b.text)
        """,
        # derived K=4 snapshots mirror _change_rate.derive exactly; LAG
        # per (doc_id, run) is the interval/change-count semantics
        "change_rate": """
            WITH snaps AS (
                SELECT d.doc_id, r.run,
                       coalesce(d.text, '')
                       || CASE WHEN r.run >= 1 AND d.doc_id % 3 = 0
                               THEN ' r1' ELSE '' END
                       || CASE WHEN r.run >= 2 AND d.doc_id % 5 = 0
                               THEN ' r2' ELSE '' END
                       || CASE WHEN r.run >= 3 AND d.doc_id % 7 = 0
                               THEN ' r3' ELSE '' END AS text
                FROM documents d CROSS JOIN range(4) AS r(run)
                WHERE NOT (d.doc_id % 17 = 0 AND r.run < 2)
            ),
            lagd AS (
                SELECT doc_id, run, text,
                       LAG(text) OVER (PARTITION BY doc_id ORDER BY run)
                           AS ptext,
                       LAG(run) OVER (PARTITION BY doc_id ORDER BY run)
                           AS prun
                FROM snaps
            ),
            per AS (
                SELECT doc_id,
                       count(prun)::BIGINT AS n_intervals,
                       coalesce(sum(CASE WHEN prun IS NOT NULL
                                              AND text <> ptext
                                         THEN 1 ELSE 0 END), 0)::BIGINT
                           AS n_changes,
                       coalesce(max(CASE WHEN prun IS NOT NULL
                                              AND text <> ptext
                                         THEN run END),
                                min(run))::BIGINT AS last_change_run,
                       max(run)::BIGINT AS max_run
                FROM lagd GROUP BY doc_id
            )
            SELECT doc_id, n_intervals, n_changes,
                   CASE WHEN n_intervals = 0 THEN 0.0
                        ELSE CAST(n_changes AS DOUBLE) / n_intervals
                        END AS change_ratio,
                   last_change_run,
                   (max_run - last_change_run)::BIGINT AS stale_runs
            FROM per
        """,
        "jsonl_ingest": """
            SELECT doc_id, lang, source, length(text)::BIGINT AS n_chars_json
            FROM documents
        """,
        # synthesized URLs mirror _url_trap_score.mk_urls exactly; both
        # engines run RE2-compatible digit-run collapse on the path
        "url_trap_score": """
            WITH urls AS (
                SELECT 'https://site' || (doc_id % 20) || '.test'
                       || CASE (doc_id // 20) % 3
                          WHEN 0 THEN '/article/' || doc_id || '/page/'
                                      || (doc_id % 7)
                          WHEN 1 THEN '/item' || doc_id
                          ELSE '/static/' || (doc_id % 10) || '/about'
                          END AS url
                FROM documents
            ),
            ext AS (
                SELECT regexp_extract(url,
                           '^[a-z][a-z0-9+.-]*://([^/]+)', 1) AS host,
                       regexp_replace(
                           regexp_replace(url,
                               '^[a-z][a-z0-9+.-]*://[^/]*', ''),
                           '[0-9]+', 'N', 'g') AS tmpl
                FROM urls
            ),
            per AS (
                SELECT host, count(*)::BIGINT AS n_urls,
                       count(DISTINCT tmpl)::BIGINT AS n_templates
                FROM ext GROUP BY host
            )
            SELECT host, n_urls, n_templates,
                   CAST(n_urls AS DOUBLE) / n_templates AS trap_score
            FROM per
        """,
        # Hamilton apportionment in exact integers: floor(B*w/W) + 1 for
        # the (B - sum(floor)) largest (B*w) % W remainders, ties key asc
        "source_apportion": """
            WITH w AS (
                SELECT source, count(*)::BIGINT AS weight
                FROM documents GROUP BY source
            ),
            tot AS (SELECT sum(weight)::BIGINT AS W FROM w),
            q AS (
                SELECT source, weight,
                       ((1000 * weight) // W)::BIGINT AS base,
                       ((1000 * weight) % W)::BIGINT AS rem
                FROM w, tot
            )
            SELECT source, weight,
                   (base + CASE WHEN row_number() OVER
                                     (ORDER BY rem DESC, source ASC)
                                <= 1000 - (SELECT sum(base) FROM q)
                           THEN 1 ELSE 0 END)::BIGINT AS alloc
            FROM q
        """,
        # change_rate stats -> Hamilton alloc (budget 120) -> per-host
        # variable-k row_number selection; mirrors _recrawl_urls exactly
        "recrawl_urls": """
            WITH snaps AS (
                SELECT d.doc_id, r.run,
                       coalesce(d.text, '')
                       || CASE WHEN r.run >= 1 AND d.doc_id % 3 = 0
                               THEN ' r1' ELSE '' END
                       || CASE WHEN r.run >= 2 AND d.doc_id % 5 = 0
                               THEN ' r2' ELSE '' END
                       || CASE WHEN r.run >= 3 AND d.doc_id % 7 = 0
                               THEN ' r3' ELSE '' END AS text
                FROM documents d CROSS JOIN range(4) AS r(run)
                WHERE NOT (d.doc_id % 17 = 0 AND r.run < 2)
            ),
            lagd AS (
                SELECT doc_id, run, text,
                       LAG(text) OVER (PARTITION BY doc_id ORDER BY run)
                           AS ptext,
                       LAG(run) OVER (PARTITION BY doc_id ORDER BY run)
                           AS prun
                FROM snaps
            ),
            per AS (
                SELECT doc_id,
                       count(prun)::BIGINT AS n_intervals,
                       coalesce(sum(CASE WHEN prun IS NOT NULL
                                              AND text <> ptext
                                         THEN 1 ELSE 0 END), 0)::BIGINT
                           AS n_changes,
                       coalesce(max(CASE WHEN prun IS NOT NULL
                                              AND text <> ptext
                                         THEN run END),
                                min(run))::BIGINT AS last_change_run,
                       max(run)::BIGINT AS max_run
                FROM lagd GROUP BY doc_id
            ),
            stats AS (
                SELECT doc_id,
                       'site' || (doc_id % 20) || '.test' AS host,
                       n_changes,
                       CASE WHEN n_intervals = 0 THEN 0.0
                            ELSE CAST(n_changes AS DOUBLE) / n_intervals
                            END AS change_ratio,
                       (max_run - last_change_run)::BIGINT AS stale_runs
                FROM per
            ),
            w AS (
                SELECT host, sum(n_changes + 1)::BIGINT AS weight
                FROM stats GROUP BY host
            ),
            tot AS (SELECT sum(weight)::BIGINT AS W FROM w),
            q AS (
                SELECT host, ((120 * weight) // W)::BIGINT AS base,
                       ((120 * weight) % W)::BIGINT AS rem
                FROM w, tot
            ),
            a AS (
                SELECT host,
                       base + CASE WHEN row_number() OVER
                                        (ORDER BY rem DESC, host ASC)
                                   <= 120 - (SELECT sum(base) FROM q)
                              THEN 1 ELSE 0 END AS alloc
                FROM q
            ),
            r AS (
                SELECT s.doc_id, s.host, s.stale_runs, a.alloc,
                       row_number() OVER (PARTITION BY s.host
                           ORDER BY s.stale_runs DESC, s.change_ratio DESC,
                                    s.doc_id ASC)::BIGINT AS rnk
                FROM stats s JOIN a USING (host)
            )
            SELECT doc_id, host, stale_runs, rnk
            FROM r WHERE rnk <= alloc
        """,
        # change_rate's snapshot CTEs -> per-host change mass -> Hamilton
        # apportionment of 500 fetches; mirrors _recrawl_schedule exactly
        "recrawl_schedule": """
            WITH snaps AS (
                SELECT d.doc_id, r.run,
                       coalesce(d.text, '')
                       || CASE WHEN r.run >= 1 AND d.doc_id % 3 = 0
                               THEN ' r1' ELSE '' END
                       || CASE WHEN r.run >= 2 AND d.doc_id % 5 = 0
                               THEN ' r2' ELSE '' END
                       || CASE WHEN r.run >= 3 AND d.doc_id % 7 = 0
                               THEN ' r3' ELSE '' END AS text
                FROM documents d CROSS JOIN range(4) AS r(run)
                WHERE NOT (d.doc_id % 17 = 0 AND r.run < 2)
            ),
            lagd AS (
                SELECT doc_id, text,
                       LAG(text) OVER (PARTITION BY doc_id ORDER BY run)
                           AS ptext,
                       LAG(run) OVER (PARTITION BY doc_id ORDER BY run)
                           AS prun
                FROM snaps
            ),
            per AS (
                SELECT doc_id,
                       coalesce(sum(CASE WHEN prun IS NOT NULL
                                              AND text <> ptext
                                         THEN 1 ELSE 0 END), 0)::BIGINT
                           AS n_changes
                FROM lagd GROUP BY doc_id
            ),
            w AS (
                SELECT 'site' || (doc_id % 20) || '.test' AS host,
                       sum(n_changes + 1)::BIGINT AS weight
                FROM per GROUP BY 1
            ),
            tot AS (SELECT sum(weight)::BIGINT AS W FROM w),
            q AS (
                SELECT host, weight,
                       ((500 * weight) // W)::BIGINT AS base,
                       ((500 * weight) % W)::BIGINT AS rem
                FROM w, tot
            )
            SELECT host, weight,
                   (base + CASE WHEN row_number() OVER
                                     (ORDER BY rem DESC, host ASC)
                                <= 500 - (SELECT sum(base) FROM q)
                           THEN 1 ELSE 0 END)::BIGINT AS alloc
            FROM q
        """,
        # PII scrub: same RE2 patterns (both engines run RE2), same 3-stage
        # sequential order (emails -> phones on the email-redacted string ->
        # IPv4), same deterministic doc_id-derived salt as _redact_pii
        "redact_pii": r"""
            WITH salted AS (
                SELECT doc_id,
                       text || ' contact user' || doc_id
                            || '@example.com call 555-123-4567 from 10.'
                            || (doc_id % 256) || '.0.1' AS t0
                FROM documents),
            s1 AS (
                SELECT doc_id,
                       len(regexp_extract_all(t0,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}'
                           ))::BIGINT AS n_emails,
                       regexp_replace(t0,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t1
                FROM salted),
            s2 AS (
                SELECT doc_id, n_emails,
                       len(regexp_extract_all(t1,
                           '\b\d{3}[-. ]\d{3}[-. ]\d{4}\b'))::BIGINT AS n_phones,
                       regexp_replace(t1, '\b\d{3}[-. ]\d{3}[-. ]\d{4}\b',
                                      '<PHONE>', 'g') AS t2
                FROM s1)
            SELECT doc_id, n_emails, n_phones,
                   len(regexp_extract_all(t2,
                       '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))::BIGINT AS n_ips,
                   regexp_replace(t2, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                                  '<IP>', 'g') AS text
            FROM s2
        """,
        # NFC + ASCII-whitespace collapse + space trim; the regex class is
        # RE2's ASCII \s (pinned in textstats._ASCII_WS_RUN_RE — Python's
        # Unicode \s would diverge on NBSP); a plain '...' literal passes
        # the backslashes through to RE2 uninterpreted
        # near-exact dedup: first-wins per normalized md5 (same norm
        # expression as normalize_text's oracle)
        "normalized_dedup": r"""
            SELECT md5(norm) AS norm_md5,
                   min(doc_id) AS keep_doc_id,
                   count(*)::BIGINT AS n_dups
            FROM (SELECT doc_id,
                         trim(regexp_replace(nfc_normalize(text),
                                             '[ \t\n\r\f\v]+', ' ', 'g'),
                              ' ') AS norm
                  FROM documents)
            GROUP BY norm_md5
        """,
        # deterministic shuffle: Knuth bucket (HUGEINT mirror per
        # sample_docs) -> shard = hk % 16, pos = row_number within shard
        "shuffle_shards": """
            SELECT doc_id,
                   (hk % 16)::BIGINT AS shard,
                   (row_number() OVER (PARTITION BY hk % 16
                                       ORDER BY hk, doc_id) - 1) AS pos
            FROM (SELECT doc_id,
                         ((doc_id::HUGEINT * 2654435761) % 4294967296)::BIGINT
                             AS hk
                  FROM documents)
        """,
        "normalize_text": r"""
            SELECT doc_id,
                   length(norm)::BIGINT AS n_chars_norm,
                   md5(norm) AS norm_md5
            FROM (SELECT doc_id,
                         trim(regexp_replace(nfc_normalize(text),
                                             '[ \t\n\r\f\v]+', ' ', 'g'),
                              ' ') AS norm
                  FROM documents)
        """,
        # CCNet-style rarity signal: all-integer sums, docs with zero
        # tokens emit no row (inner join on the exploded token CTE)
        "rare_word_ratio": r"""
            WITH tf AS (
                SELECT doc_id, lower(w) AS word, count(*)::BIGINT AS tf
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(text, '\b\w+\b')) AS w
                      FROM documents)
                GROUP BY doc_id, lower(w)),
            dfx AS (SELECT word, count(*)::BIGINT AS df FROM tf GROUP BY word)
            SELECT tf.doc_id,
                   sum(tf.tf)::BIGINT AS n_tokens,
                   sum(CASE WHEN dfx.df <= 2 THEN tf.tf ELSE 0 END)::BIGINT
                     AS n_rare_tokens,
                   count(*)::BIGINT AS n_types,
                   sum(CASE WHEN dfx.df <= 2 THEN 1 ELSE 0 END)::BIGINT
                     AS n_rare_types
            FROM tf JOIN dfx USING (word)
            GROUP BY tf.doc_id
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment
            FROM customer
            WHERE c_custkey NOT IN
                (SELECT o_custkey FROM orders WHERE o_totalprice >= 400000)
        """,
        "customers_with_orders": """
            SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment
            FROM customer
            WHERE c_custkey IN
                (SELECT o_custkey FROM orders WHERE o_totalprice >= 400000)
        """,
        "lang_quality_buckets": """
            SELECT lang, doc_id, n_chars,
                   CAST(NTILE(3) OVER (
                       PARTITION BY lang ORDER BY n_chars DESC, doc_id
                   ) AS BIGINT) AS tile
            FROM documents
        """,
        "source_lang_rollup": """
            SELECT source, lang,
                   count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents
            GROUP BY ROLLUP(source, lang)
        """,
        "source_lang_cube": """
            SELECT source, lang,
                   count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents
            GROUP BY CUBE(source, lang)
        """,
        "lineitem_melt": """
            SELECT l_orderkey, l_linenumber, 'l_quantity' AS metric,
                   l_quantity AS value FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_extendedprice',
                   l_extendedprice FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_discount',
                   l_discount FROM lineitem
            UNION ALL
            SELECT l_orderkey, l_linenumber, 'l_tax', l_tax FROM lineitem
        """,
        "docs_by_length": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id LIMIT 100
        """,
        # exact per-group lower quantiles in the entry's k >= group-size
        # regime (the quantile_sketch convention, PARTITIONed by lang)
        "grouped_quantile_sketch": """
            WITH h AS (SELECT lang, n_chars AS v, count(*)::BIGINT AS c
                       FROM documents GROUP BY lang, n_chars),
            tot AS (SELECT lang, sum(c)::BIGINT AS n FROM h GROUP BY lang),
            cum AS (SELECT lang, v,
                           sum(c) OVER (PARTITION BY lang ORDER BY v)::BIGINT
                             AS cum
                    FROM h)
            SELECT t.lang, q.q_pct::BIGINT AS q_pct,
                   (SELECT min(v) FROM cum
                    WHERE cum.lang = t.lang
                      AND cum.cum >= (t.n * q.q_pct + 99) // 100)::BIGINT
                     AS est_value,
                   t.n::BIGINT AS n
            FROM tot t CROSS JOIN (VALUES (25), (50), (75)) q(q_pct)
        """,
        "revenue_by_region": """
            SELECT r.r_name,
                   sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                                  * 100 + 0.5) AS BIGINT))::BIGINT
                     AS revenue_cents,
                   count(*)::BIGINT AS n_items
            FROM lineitem l
            JOIN orders o ON l.l_orderkey = o.o_orderkey
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name
        """,
        # exact in the entry's k >= n regime: lower quantile
        # min{v : rank(v) >= ceil(n*q/100)} — same convention as
        # length_quantiles
        "quantile_sketch": """
            WITH h AS (SELECT n_chars AS v, count(*)::BIGINT AS c
                       FROM documents GROUP BY n_chars),
            tot AS (SELECT sum(c)::BIGINT AS n FROM h),
            cum AS (SELECT v, sum(c) OVER (ORDER BY v)::BIGINT AS cum FROM h)
            SELECT q.q_pct::BIGINT AS q_pct,
                   (SELECT min(v) FROM cum, tot
                    WHERE cum >= (tot.n * q.q_pct + 99) // 100)::BIGINT
                     AS est_value,
                   (SELECT n FROM tot)::BIGINT AS n
            FROM (VALUES (1), (25), (50), (75), (99)) q(q_pct)
        """,
        # exact per-language vocabulary size (two cascaded aggregates)
        "distinct_words_per_lang": r"""
            SELECT lang, count(DISTINCT w)::BIGINT AS n_words
            FROM (SELECT lang,
                         unnest(regexp_extract_all(lower(text), '\b\w+\b')) AS w
                  FROM documents)
            GROUP BY lang
        """,
        # 3-step ordered funnel: each step's first occurrence STRICTLY after
        # the previous step's anchor time (pinned: ties on ts don't advance)
        "funnel_counts": """
            WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
                       WHERE event_type = 'view' GROUP BY user_id),
            c AS (SELECT e.user_id, min(e.ts) AS t2
                  FROM events e JOIN v ON e.user_id = v.user_id
                  WHERE e.event_type = 'click' AND e.ts > v.t1
                  GROUP BY e.user_id),
            p AS (SELECT e.user_id, min(e.ts) AS t3
                  FROM events e JOIN c ON e.user_id = c.user_id
                  WHERE e.event_type = 'purchase' AND e.ts > c.t2
                  GROUP BY e.user_id)
            SELECT (SELECT count(*) FROM v)::BIGINT AS n_step1,
                   (SELECT count(*) FROM c)::BIGINT AS n_step2,
                   (SELECT count(*) FROM p)::BIGINT AS n_step3
        """,
        # per-user LAG delta (the third window flavor: rolling_sum = ROWS,
        # time_window_sum = RANGE, this = LAG); cents-scaled like both
        "event_deltas": """
            SELECT event_id, user_id,
                   (CAST(floor(value * 100.0 + 0.5) AS BIGINT)
                    - lag(CAST(floor(value * 100.0 + 0.5) AS BIGINT))
                        OVER (PARTITION BY user_id ORDER BY ts, event_id))::BIGINT
                     AS delta_cents
            FROM events
        """,
        # C4-style per-domain cap: first 10 doc_ids per source
        "source_cap": """
            SELECT doc_id, source, rn AS rank
            FROM (SELECT doc_id, source,
                         row_number() OVER (PARTITION BY source
                                            ORDER BY doc_id)::BIGINT AS rn
                  FROM documents)
            WHERE rn <= 10
        """,
        # top-100 space-joined bigrams over the repetition_signals tokenizer
        "bigram_counts": r"""
            WITH W AS (SELECT regexp_extract_all(lower(text), '\b\w+\b') AS w
                       FROM documents),
            bg AS (SELECT unnest(list_transform(range(1, len(w)),
                                                i -> w[i] || ' ' || w[i+1])) AS bigram
                   FROM W)
            SELECT bigram, count(*)::BIGINT AS total
            FROM bg GROUP BY bigram
            ORDER BY total DESC, bigram ASC
            LIMIT 100
        """,
        # per-doc Σ over bigram occurrences of the bigram's GLOBAL count —
        # the all-integer LM-fluency analogue; docs with < 2 tokens absent
        "bigram_lm_score": r"""
            WITH W AS (SELECT doc_id,
                              regexp_extract_all(lower(text), '\b\w+\b') AS w
                       FROM documents),
            bg AS (SELECT doc_id,
                          unnest(list_transform(range(1, len(w)),
                                                i -> w[i] || ' ' || w[i+1])) AS bigram
                   FROM W),
            gc AS (SELECT bigram, count(*)::BIGINT AS total
                   FROM bg GROUP BY bigram)
            SELECT b.doc_id,
                   count(*)::BIGINT AS n_bigrams,
                   sum(g.total)::BIGINT AS score
            FROM bg b JOIN gc g USING (bigram)
            GROUP BY b.doc_id
        """,
        # windowed skip-gram co-occurrence (word2vec/PMI primitive):
        # ordered pairs (w_i, w_{i+d}), 1 <= d <= 5, within one document
        "cooccurrence_topk": r"""
            WITH W AS (SELECT regexp_extract_all(lower(text), '\b\w+\b') AS w
                       FROM documents),
            pairs AS (
              SELECT unnest(flatten(list_transform(range(1, 6),
                  d -> list_transform(range(1, len(w) - d + 1),
                                      i -> w[i] || ' ' || w[i + d])))) AS pair
              FROM W)
            SELECT pair, count(*)::BIGINT AS total
            FROM pairs GROUP BY pair
            ORDER BY total DESC, pair ASC
            LIMIT 100
        """,
        # wide-format corpus composition: conditional aggregation pivot
        "source_lang_pivot": """
            SELECT source,
                   count(*)::BIGINT AS n_docs,
                   sum(n_chars)::BIGINT AS sum_chars,
                   sum(CASE WHEN lang = 'de' THEN 1 ELSE 0 END)::BIGINT AS n_de,
                   sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)::BIGINT AS n_en,
                   sum(CASE WHEN lang = 'es' THEN 1 ELSE 0 END)::BIGINT AS n_es,
                   sum(CASE WHEN lang = 'fr' THEN 1 ELSE 0 END)::BIGINT AS n_fr,
                   sum(CASE WHEN lang = 'zh' THEN 1 ELSE 0 END)::BIGINT AS n_zh
            FROM documents GROUP BY source
        """,
        # degree (zero-degree nodes included) over the same similarity-graph
        # edge set as pagerank
        "degree_stats": """
            WITH pairs AS (
              SELECT e1.vec_id AS a, e2.vec_id AS b
              FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id
              WHERE list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                                           CAST(e2.embedding AS DOUBLE[])) >= 0.45),
            ep AS (SELECT a AS s FROM pairs UNION ALL SELECT b FROM pairs),
            d AS (SELECT s, count(*)::BIGINT AS n FROM ep GROUP BY s)
            SELECT v.vec_id, coalesce(d.n, 0)::BIGINT AS degree
            FROM embeddings v LEFT JOIN d ON v.vec_id = d.s
        """,
        # exact triangle count: each {a<b<c} via its two lowest-vertex edges
        # joined against the closing edge
        "triangle_count": """
            WITH pairs AS (
              SELECT e1.vec_id AS a, e2.vec_id AS b
              FROM embeddings e1 JOIN embeddings e2 ON e1.vec_id < e2.vec_id
              WHERE list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                                           CAST(e2.embedding AS DOUBLE[])) >= 0.45)
            SELECT count(*)::BIGINT AS n_triangles
            FROM pairs p1
            JOIN pairs p2 ON p2.a = p1.a AND p2.b > p1.b
            JOIN pairs p3 ON p3.a = p1.b AND p3.b = p2.b
        """,
        "multimodal_meta": """
            SELECT doc_id,
                   octet_length(encode(text))::BIGINT AS n_bytes,
                   (octet_length(encode(text)) % 640 + 16)::BIGINT AS width,
                   (octet_length(encode(text)) % 480 + 16)::BIGINT AS height,
                   'fake' AS format
            FROM documents
        """,
        # HUGEINT: BIGINT id * 2654435761 overflows int64 for id >= ~3.47e9;
        # (x % 2^128) % 2^32 == x % 2^32 == numpy's uint64-wrap bucket for
        # any non-negative int64 id (ADVICE r2)
        "sample_docs": """
            SELECT doc_id, lang FROM documents
            WHERE ((doc_id::HUGEINT * 2654435761) % 4294967296) % 1000 < 100
        """,
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE ((doc_id::HUGEINT * 2654435761) % 4294967296) % 1000 <
                  CASE lang WHEN 'en' THEN 200 WHEN 'de' THEN 500 ELSE 0 END
        """,
        "train_split_counts": """
            SELECT CASE WHEN ((doc_id::HUGEINT * 2654435761) % 4294967296) % 1000 < 100
                        THEN 'holdout' ELSE 'train' END AS split,
                   count(*)::BIGINT AS n
            FROM documents GROUP BY split
        """,
        "multimodal_resize": """
            SELECT doc_id,
                   64::BIGINT AS width,
                   48::BIGINT AS height,
                   least(octet_length(encode(text)), 64 * 48)::BIGINT AS n_bytes_out
            FROM documents
        """,
        "multimodal_frames": """
            WITH f AS (
              SELECT doc_id, octet_length(encode(text)) AS n,
                     unnest(range(((octet_length(encode(text)) + 1023) // 1024 + 3) // 4)) AS i
              FROM documents
            )
            SELECT doc_id,
                   (i * 4)::BIGINT AS frame_idx,
                   least(1024, n - i * 4 * 1024)::BIGINT AS frame_len
            FROM f
        """,
        # context-window chunking: 80-char windows every 60 chars; the
        # chunk count per doc is 1 + ceil(max(L-80,0)/60), all-integer
        "chunk_docs": """
            SELECT doc_id,
                   c.i::BIGINT AS chunk_id,
                   (c.i * 60)::BIGINT AS chunk_start,
                   substr(text, (c.i * 60 + 1)::INT, 80) AS chunk_text
            FROM documents,
                 unnest(range(0, (greatest(length(text) - 80, 0) + 59) // 60 + 1))
                   AS c(i)
            WHERE length(text) > 0
        """,
        # per-doc coverage counts vs the global top-50 vocabulary
        # (count desc, word asc tie-break — the top_words rule)
        "vocab_coverage": r"""
            WITH tok AS (
                SELECT doc_id, lower(w) AS word
                FROM (SELECT doc_id,
                             unnest(regexp_extract_all(text, '\b\w+\b')) AS w
                      FROM documents)),
            v AS (
                SELECT word FROM (
                    SELECT word, count(*) AS total FROM tok GROUP BY word
                    ORDER BY total DESC, word ASC LIMIT 50))
            SELECT tok.doc_id,
                   count(*)::BIGINT AS n_tokens,
                   sum(CASE WHEN v.word IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
                     AS in_vocab_tokens,
                   count(DISTINCT tok.word)::BIGINT AS n_types,
                   count(DISTINCT v.word)::BIGINT AS in_vocab_types
            FROM tok LEFT JOIN v USING (word)
            GROUP BY tok.doc_id
        """,
        # domain-mixture resample: keep rate_s = min(1000, budget*w_s // n_s)
        # per-mille under the Knuth hash rule (UBIGINT wrap == numpy uint64)
        "mixture_sample": """
            WITH t AS (SELECT doc_id, source FROM documents
                       WHERE source IN ('src0', 'src1', 'src2')),
            n AS (SELECT source, count(*)::BIGINT AS n FROM t GROUP BY source),
            r AS (SELECT source,
                         least(1000, (50 * CASE source WHEN 'src0' THEN 500
                                                        WHEN 'src1' THEN 300
                                                        ELSE 200 END) // n) AS rate
                  FROM n)
            SELECT t.doc_id, t.source
            FROM t JOIN r USING (source)
            WHERE ((doc_id::UBIGINT * 2654435761) % 4294967296) % 1000 < r.rate
        """,
        # uniform 5-per-source sample: rank by the Knuth hash (odd
        # multiplier -> bijective mod 2^32, id breaks residual ties)
        "source_sample_k": """
            SELECT doc_id, source, rn AS rank
            FROM (SELECT doc_id, source,
                         row_number() OVER (
                             PARTITION BY source
                             ORDER BY (doc_id::UBIGINT * 2654435761)
                                        % 4294967296, doc_id)::BIGINT AS rn
                  FROM documents)
            WHERE rn <= 5
        """,
        # LEFT outer repartition join: customers with no orders keep a
        # NULL count (lands as NaN/float64 both sides — the null repr rule)
        "customer_order_counts": """
            SELECT c.c_custkey, n.n_orders
            FROM customer c
            LEFT JOIN (SELECT o_custkey, count(*)::BIGINT AS n_orders
                       FROM orders GROUP BY o_custkey) n
              ON c.c_custkey = n.o_custkey
        """,
        # FULL outer repartition join: the key is coalesced from whichever
        # side is present; unmatched counts land as NaN/float64 both sides
        "events_orders_full": """
            SELECT coalesce(e.user_id, o.o_custkey) AS user_id,
                   e.n_events, o.n_orders
            FROM (SELECT user_id, count(*)::BIGINT AS n_events
                  FROM events GROUP BY user_id) e
            FULL OUTER JOIN (SELECT o_custkey, count(*)::BIGINT AS n_orders
                             FROM orders WHERE o_custkey >= 100
                             GROUP BY o_custkey) o
              ON e.user_id = o.o_custkey
        """,
        # exact grouped moments: integer partial sums, HUGEINT finish
        # (floor-division mean/variance, matching the Python-int finish)
        "lineitem_moments": """
            WITH c AS (SELECT l_returnflag AS g,
                              CAST(floor(l_quantity*100+0.5) AS HUGEINT) AS x
                       FROM lineitem),
            a AS (SELECT g, CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS s,
                         SUM(x*x) AS ss FROM c GROUP BY g)
            SELECT g AS l_returnflag, CAST(n AS BIGINT) AS n_rows,
                   CAST(s AS BIGINT) AS sum_scaled,
                   CAST((s*1000000)//n AS BIGINT) AS mean_micro,
                   CAST((n*ss - s*s)//(n*n) AS BIGINT) AS varp_scaled2
            FROM a
        """,
        # Pearson correlation per group, floor-scaled; the single float
        # expression runs on exact HUGEINT sums on both sides
        "qty_discount_corr": """
            WITH c AS (SELECT l_returnflag AS g,
                              CAST(floor(l_quantity*100+0.5) AS HUGEINT) AS x,
                              CAST(floor(l_discount*10000+0.5) AS HUGEINT) AS y
                       FROM lineitem),
            a AS (SELECT g, CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
                         SUM(y) AS sy, SUM(x*x) AS sxx, SUM(y*y) AS syy,
                         SUM(x*y) AS sxy FROM c GROUP BY g)
            SELECT g AS l_returnflag, CAST(n AS BIGINT) AS n_rows,
                   CAST(FLOOR(1000000.0*(n*sxy - sx*sy)
                        / SQRT(CAST((n*sxx - sx*sx)*(n*syy - sy*sy)
                                    AS DOUBLE))) AS BIGINT) AS corr_micro
            FROM a
        """,
        # per-group OLS, all-integer: DuckDB's // truncates toward zero,
        # matching stats.grouped_regression's pinned _trunc_div exactly
        "price_qty_regression": """
            WITH c AS (SELECT l_returnflag AS g,
                              CAST(floor(l_quantity*100+0.5) AS HUGEINT) AS x,
                              CAST(floor(l_extendedprice*100+0.5) AS HUGEINT) AS y
                       FROM lineitem),
            a AS (SELECT g, CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS sx,
                         SUM(y) AS sy, SUM(x*x) AS sxx, SUM(x*y) AS sxy
                  FROM c GROUP BY g)
            SELECT g AS l_returnflag, CAST(n AS BIGINT) AS n_rows,
                   CASE WHEN (n*sxx - sx*sx) <= 0 THEN NULL
                        ELSE CAST((1000000::HUGEINT * (n*sxy - sx*sy))
                                  // (n*sxx - sx*sx) AS BIGINT) END AS slope_micro,
                   CASE WHEN (n*sxx - sx*sx) <= 0 THEN NULL
                        ELSE CAST((1000000::HUGEINT
                                   * (sy*(n*sxx - sx*sx) - (n*sxy - sx*sy)*sx))
                                  // (n*(n*sxx - sx*sx)) AS BIGINT)
                        END AS intercept_micro
            FROM a
        """,
        # within-group z-score, overflow-free integer formulation
        # z = (n*x - s) / sqrt(n*ss - s^2), floor-scaled to micro-units
        "zscore_orders": """
            WITH c AS (SELECT o_orderkey, o_orderpriority AS g,
                              CAST(floor(o_totalprice+0.5) AS HUGEINT) AS x
                       FROM orders),
            a AS (SELECT g, CAST(COUNT(*) AS HUGEINT) AS n, SUM(x) AS s,
                         SUM(x*x) AS ss FROM c GROUP BY g)
            SELECT c.o_orderkey, c.g AS o_orderpriority,
                   CAST(FLOOR(1000000.0*(a.n*c.x - a.s)
                        / SQRT(CAST(a.n*a.ss - a.s*a.s AS DOUBLE)))
                        AS BIGINT) AS z_micro
            FROM c JOIN a USING (g)
        """,
        # bounded-depth multi-source BFS as a recursive CTE: walk states
        # (v, d) dedup via UNION, min(d) is the hop depth, LEFT JOIN keeps
        # unreachable nodes NULL
        "order_part_bfs": """
            WITH RECURSIVE
            e AS (SELECT l_orderkey AS s, l_partkey + 10000000 AS t
                  FROM lineitem
                  UNION ALL
                  SELECT l_partkey + 10000000, l_orderkey FROM lineitem),
            seeds AS (SELECT p_partkey + 10000000 AS v FROM part
                      ORDER BY p_partkey LIMIT 3),
            walk(v, d) AS (
                SELECT v, CAST(0 AS BIGINT) FROM seeds
                UNION
                SELECT e.t, w.d + 1 FROM walk w JOIN e ON e.s = w.v
                WHERE w.d < 4
            ),
            nodes AS (SELECT DISTINCT l_orderkey AS v FROM lineitem
                      UNION
                      SELECT DISTINCT l_partkey + 10000000 FROM lineitem),
            best AS (SELECT v, min(d) AS depth FROM walk GROUP BY v)
            SELECT n.v, b.depth FROM nodes n LEFT JOIN best b USING (v)
        """,
        # per-user ordered event-type transitions via lead(); the
        # (ts, event_id) tiebreak makes consecutive pairs deterministic
        "transition_counts": """
            SELECT prev_type, next_type, count(*)::BIGINT AS n_transitions
            FROM (SELECT event_type AS prev_type,
                         lead(event_type) OVER (
                             PARTITION BY user_id ORDER BY ts, event_id
                         ) AS next_type
                  FROM events)
            WHERE next_type IS NOT NULL
            GROUP BY prev_type, next_type
        """,
        # per-user 3-step paths via two lead()s; the (ts, event_id)
        # tiebreak makes consecutive triples deterministic
        "path_trigrams": """
            SELECT step1_type, step2_type, step3_type,
                   count(*)::BIGINT AS n_paths
            FROM (SELECT event_type AS step1_type,
                         lead(event_type, 1) OVER w AS step2_type,
                         lead(event_type, 2) OVER w AS step3_type
                  FROM events
                  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
            WHERE step2_type IS NOT NULL AND step3_type IS NOT NULL
            GROUP BY step1_type, step2_type, step3_type
        """,
        # per-doc token entropy: H = ln(n) - sum(c·ln c)/n over the
        # lowercased \b\w+\b counts, 2-decimal-scaled (floor(x*100+0.5)
        # both sides); empty docs NULL -> float64/NaN
        "doc_entropy": r"""
            WITH tok AS (SELECT doc_id,
                                lower(unnest(regexp_extract_all(text, '\b\w+\b'))) AS w
                         FROM documents),
            c AS (SELECT doc_id, w, count(*)::BIGINT AS c FROM tok GROUP BY doc_id, w),
            s AS (SELECT doc_id, sum(c)::BIGINT AS n,
                         count(*)::BIGINT AS n_distinct,
                         sum(c * ln(c)) AS clogc
                  FROM c GROUP BY doc_id)
            SELECT d.doc_id,
                   coalesce(s.n, 0)::BIGINT AS n_words,
                   coalesce(s.n_distinct, 0)::BIGINT AS n_distinct,
                   CASE WHEN s.n > 0
                        THEN floor((ln(s.n) - s.clogc / s.n) * 100 + 0.5)
                   END AS entropy_c
            FROM documents d LEFT JOIN s USING (doc_id)
        """,
        # global running total — no partition key; the BIGINT cast undoes
        # DuckDB's HUGEINT window-sum (fetchdf would float64 it)
        # per-group running-weight budget: the inclusive cumulative window
        "token_budget_cap": """
            SELECT doc_id, source, n_chars, cum
            FROM (SELECT doc_id, source, n_chars::BIGINT AS n_chars,
                         (sum(n_chars) OVER (PARTITION BY source
                                             ORDER BY doc_id))::BIGINT AS cum
                  FROM documents)
            WHERE cum <= 3000
        """,
        # PDF round-trip differential: extracted text must equal the
        # source text byte-for-byte across flate/hex/literal variants
        "pdf_ingest": """
            SELECT doc_id,
                   length(text)::BIGINT AS n_chars_pdf,
                   md5(text) AS pdf_md5
            FROM documents
        """,
        # DOCX build-zip-parse-extract round-trip must reproduce `text`
        # byte-for-byte (functions/docx.py)
        "docx_ingest": """
            SELECT doc_id,
                   length(text)::BIGINT AS n_chars_docx,
                   md5(text) AS docx_md5
            FROM documents
        """,
        # same contract for ODT (functions/odt.py)
        "odt_ingest": """
            SELECT doc_id,
                   length(text)::BIGINT AS n_chars_odt,
                   md5(text) AS odt_md5
            FROM documents
        """,
        # and for RTF (functions/rtf.py)
        "rtf_ingest": """
            SELECT doc_id,
                   length(text)::BIGINT AS n_chars_rtf,
                   md5(text) AS rtf_md5
            FROM documents
        """,
        # RFC 9309 truth table of the 8 robots-matcher corners the Ray
        # side evaluates with the real parser (differential oracle)
        "robots_eval": """
            SELECT doc_id,
                   CASE doc_id % 8
                        WHEN 0 THEN 1  -- specific group beats *
                        WHEN 1 THEN 0  -- prefix disallow
                        WHEN 2 THEN 1  -- non-matching disallow
                        WHEN 3 THEN 1  -- longer allow beats shorter disallow
                        WHEN 4 THEN 0  -- wildcard + $ anchor
                        WHEN 5 THEN 0  -- agent-prefix group applies
                        WHEN 6 THEN 0  -- case-insensitive keys, query target
                        ELSE 1         -- empty body => allowed
                   END::BIGINT AS allowed
            FROM documents
        """,
        # interval x interval overlap cardinality; the O(n²) cross join is
        # the oracle, the engine answers it with two rank lookups
        "span_overlap_counts": """
            WITH s AS (SELECT user_id,
                              min(epoch_us(ts)) AS a, max(epoch_us(ts)) AS b
                       FROM events GROUP BY user_id)
            SELECT s1.user_id,
                   (count(*) FILTER (s2.a <= s1.b AND s2.b >= s1.a
                                     AND s2.user_id != s1.user_id))::BIGINT
                       AS n_overlap
            FROM s s1 CROSS JOIN s s2
            GROUP BY s1.user_id
        """,
        # sweep-line concurrency: +1 at span start, -1 at end+1µs, global
        # running sum over the boundary axis
        "concurrent_users": """
            WITH s AS (SELECT user_id,
                              min(epoch_us(ts)) AS a, max(epoch_us(ts)) AS b
                       FROM events GROUP BY user_id),
            ev AS (SELECT a AS t_us, 1 AS d FROM s
                   UNION ALL
                   SELECT b + 1, -1 FROM s),
            agg AS (SELECT t_us, sum(d)::BIGINT AS dd FROM ev GROUP BY t_us)
            SELECT t_us,
                   (sum(dd) OVER (ORDER BY t_us))::BIGINT AS n_open
            FROM agg
        """,
        "running_revenue": """
            SELECT o_orderkey,
                   CAST(sum(CAST(floor(o_totalprice*100+0.5) AS BIGINT))
                        OVER (ORDER BY o_orderdate, o_orderkey)
                        AS BIGINT) AS cum
            FROM orders
        """,
        # global equal-height deciles over a unique total order
        "spend_ntile": """
            SELECT o_orderkey,
                   CAST(ntile(10) OVER (ORDER BY o_totalprice, o_orderkey)
                        AS BIGINT) AS tile
            FROM orders
        """,
        # rank with ties over a low-cardinality key
        "date_rank": """
            SELECT o_orderkey,
                   CAST(rank() OVER (ORDER BY o_orderdate) AS BIGINT) AS rnk
            FROM orders
        """,
        # per-nation Gini: exact integer numerator/denominator; ties in
        # the scaled value commute in sum(i*x), so row_number's arbitrary
        # tie order is immaterial
        "nation_gini": """
            WITH x AS (SELECT c_nationkey AS g,
                              CAST(floor(c_acctbal*100+0.5) AS BIGINT) AS x,
                              row_number() OVER (PARTITION BY c_nationkey
                                                 ORDER BY c_acctbal) AS i
                       FROM customer)
            SELECT g AS c_nationkey, count(*)::BIGINT AS n_rows,
                   CAST(2*sum(i*x) - (count(*)+1)*sum(x) AS BIGINT) AS gini_num,
                   CAST(count(*)*sum(x) AS BIGINT) AS gini_den
            FROM x GROUP BY g
        """,
        # pairwise source vocabulary overlap (pairs sharing >= 1 word)
        "vocab_overlap": r"""
            WITH tok AS (SELECT source,
                                lower(unnest(regexp_extract_all(text, '\b\w+\b'))) AS w
                         FROM documents),
            v AS (SELECT DISTINCT source, w FROM tok),
            vs AS (SELECT source, count(*)::BIGINT AS nv FROM v GROUP BY source),
            ix AS (SELECT a.source AS src_a, b.source AS src_b,
                          count(*)::BIGINT AS inter
                   FROM v a JOIN v b ON a.w = b.w AND a.source < b.source
                   GROUP BY 1, 2)
            SELECT ix.src_a, ix.src_b, ix.inter,
                   CAST(va.nv + vb.nv - ix.inter AS BIGINT) AS uni
            FROM ix JOIN vs va ON va.source = ix.src_a
                    JOIN vs vb ON vb.source = ix.src_b
        """,
        # per-group equal-height quartiles (value,tie window order)
        "nation_spend_quartile": """
            SELECT c_nationkey, c_custkey,
                   CAST(ntile(4) OVER (PARTITION BY c_nationkey
                                       ORDER BY c_acctbal, c_custkey)
                        AS BIGINT) AS tile
            FROM customer
        """,
        # daily new-user cohorts from each user's first event
        "new_users_daily": """
            WITH f AS (SELECT user_id, min(ts) AS ft FROM events GROUP BY user_id)
            SELECT date_trunc('day', ft) AS day, count(*)::BIGINT AS new_users
            FROM f GROUP BY 1
        """,
        # per-user inter-event gap moments; the second moment is in
        # floor-seconds (us // 1e6, DuckDB // floors like numpy) so the
        # square stays far inside BIGINT
        "user_gap_moments": """
            WITH d AS (SELECT user_id,
                              date_diff('microsecond',
                                        lag(ts) OVER (PARTITION BY user_id
                                                      ORDER BY ts, event_id),
                                        ts) AS g
                       FROM events)
            SELECT user_id, count(g)::BIGINT AS n_gaps,
                   coalesce(sum(g), 0)::BIGINT AS sum_us,
                   coalesce(sum((g // 1000000) * (g // 1000000)), 0)::BIGINT
                       AS sumsq_s
            FROM d GROUP BY user_id
        """,
        # CSV round-trip: the oracle predicts the parsed rows straight
        # from documents (quoting/newlines are what's being checked)
        "csv_ingest": """
            SELECT doc_id, lang, source, length(text)::BIGINT AS n_chars_csv
            FROM documents
        """,
        # XLSX write-zip-parse loop (sources/xlsx.py) must reproduce the
        # source columns exactly
        "xlsx_ingest": """
            SELECT doc_id, lang, source, length(text)::BIGINT AS n_chars_xlsx
            FROM documents
        """,
        # per-doc Flesch ingredients (both engines run RE2-class ASCII
        # regexes; lower() parity is the word_freq/source_kl precedent)
        "readability": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '\b\w+\b'))::BIGINT AS n_words,
                   len(regexp_extract_all(text, '[.!?]+'))::BIGINT AS n_sents,
                   len(regexp_extract_all(lower(text), '[aeiouy]+'))::BIGINT
                       AS n_vowel_groups
            FROM documents
        """,
        # Benford: leading digit via the decimal STRING of the scaled
        # int (both sides); log10 expectation is one mirrored chain
        "benford_spend": """
            WITH x AS (SELECT CAST(floor(o_totalprice * 100.0 + 0.5)
                                   AS BIGINT) AS c FROM orders),
            h AS (SELECT CAST(substr(CAST(c AS VARCHAR), 1, 1) AS BIGINT)
                             AS digit,
                         count(*)::BIGINT AS n_obs
                  FROM x WHERE c > 0 GROUP BY digit),
            d AS (SELECT unnest(range(1, 10))::BIGINT AS digit),
            h2 AS (SELECT d.digit, coalesce(h.n_obs, 0)::BIGINT AS n_obs
                   FROM d LEFT JOIN h USING (digit)),
            t AS (SELECT sum(n_obs)::BIGINT AS total FROM h2)
            SELECT h2.digit, h2.n_obs,
                   CAST(floor(t.total::DOUBLE
                              * log10(1.0 + 1.0 / h2.digit)
                              * 1000000.0 + 0.5) AS BIGINT)
                       AS expected_micro
            FROM h2 CROSS JOIN t
        """,
        # Zipf OLS: per-row ln() is row-local IEEE (identical in numpy and
        # DuckDB), immediately truncation-scaled to micro-units; the
        # regression sums are then exact HUGEINT arithmetic (the
        # price_qty_regression discipline), // = truncation toward zero
        "zipf_fit": r"""
            WITH freq AS (
                SELECT lower(w) AS word, count(*)::BIGINT AS total
                FROM (SELECT unnest(regexp_extract_all(text, '\b\w+\b')) AS w
                      FROM documents)
                GROUP BY lower(w)
                ORDER BY total DESC, word ASC
                LIMIT 100
            ),
            r AS (
                SELECT CAST(floor(ln(CAST(row_number() OVER
                                (ORDER BY total DESC, word ASC) AS DOUBLE))
                            * 1000000.0 + 0.5) AS HUGEINT) AS lr,
                       CAST(floor(ln(CAST(total AS DOUBLE))
                            * 1000000.0 + 0.5) AS HUGEINT) AS lf
                FROM freq
            ),
            a AS (SELECT CAST(count(*) AS HUGEINT) AS n, SUM(lr) AS sr,
                         SUM(lf) AS sf, SUM(lr*lr) AS srr, SUM(lr*lf) AS srf
                  FROM r)
            SELECT CAST(n AS BIGINT) AS n,
                   CASE WHEN (n*srr - sr*sr) = 0 THEN NULL
                        ELSE CAST((1000000::HUGEINT * (n*srf - sr*sf))
                                  // (n*srr - sr*sr) AS BIGINT)
                   END AS slope_micro,
                   CASE WHEN (n*srr - sr*sr) = 0 THEN NULL
                        ELSE CAST((sf - (((1000000::HUGEINT * (n*srf - sr*sf))
                                          // (n*srr - sr*sr)) * sr) // 1000000)
                                  // n AS BIGINT)
                   END AS intercept_micro
            FROM a
        """,
        # script composition: code-point range counts (RE2 \x{...}
        # classes mirror the numpy uint32 range masks; length() = code
        # points on both sides)
        "script_ratios": r"""
            SELECT doc_id,
                   length(text)::BIGINT AS n_cp,
                   len(regexp_extract_all(text, '[A-Za-z]'))::BIGINT
                       AS n_latin,
                   len(regexp_extract_all(text, '[\x{0400}-\x{04FF}]')
                      )::BIGINT AS n_cyrillic,
                   len(regexp_extract_all(text, '[\x{4E00}-\x{9FFF}]')
                      )::BIGINT AS n_cjk,
                   len(regexp_extract_all(text, '[0-9]'))::BIGINT AS n_digit
            FROM documents
        """,
        # profiling: values pass through untouched (min/max, no math)
        "lineitem_profile": """
            SELECT 'l_quantity' AS col_name, count(*)::BIGINT AS n_rows,
                   sum(CASE WHEN l_quantity IS NULL THEN 1 ELSE 0 END
                      )::BIGINT AS n_nulls,
                   min(l_quantity)::DOUBLE AS min_val,
                   max(l_quantity)::DOUBLE AS max_val
            FROM lineitem
            UNION ALL
            SELECT 'l_extendedprice', count(*)::BIGINT,
                   sum(CASE WHEN l_extendedprice IS NULL THEN 1 ELSE 0 END
                      )::BIGINT,
                   min(l_extendedprice)::DOUBLE, max(l_extendedprice)::DOUBLE
            FROM lineitem
            UNION ALL
            SELECT 'l_discount', count(*)::BIGINT,
                   sum(CASE WHEN l_discount IS NULL THEN 1 ELSE 0 END
                      )::BIGINT,
                   min(l_discount)::DOUBLE, max(l_discount)::DOUBLE
            FROM lineitem
        """,
        # all-pairs KS: the same rational discipline as length_ks_drift,
        # one pair-partitioned window cumsum per (sa, sb)
        "source_ks_matrix": """
            WITH d AS (SELECT source, length(text)::BIGINT AS x
                       FROM documents),
            tot AS (SELECT source, count(*)::BIGINT AS n
                    FROM d GROUP BY source),
            pairs AS (SELECT a.source AS sa, b.source AS sb,
                             a.n AS na, b.n AS nb
                      FROM tot a JOIN tot b ON a.source < b.source),
            h2 AS (SELECT p.sa, p.sb, d.x,
                          sum(CASE WHEN d.source = p.sa THEN 1 ELSE 0 END
                             )::BIGINT AS ca,
                          sum(CASE WHEN d.source = p.sb THEN 1 ELSE 0 END
                             )::BIGINT AS cb
                   FROM pairs p JOIN d ON d.source IN (p.sa, p.sb)
                   GROUP BY p.sa, p.sb, d.x),
            c AS (SELECT sa, sb,
                         sum(ca) OVER (PARTITION BY sa, sb ORDER BY x
                                      )::BIGINT AS cum_a,
                         sum(cb) OVER (PARTITION BY sa, sb ORDER BY x
                                      )::BIGINT AS cum_b
                  FROM h2),
            kk AS (SELECT c.sa AS source_a, c.sb AS source_b,
                          max(abs(cum_a * p.nb - cum_b * p.na))::BIGINT
                              AS d_num,
                          any_value(p.na * p.nb)::BIGINT AS d_den
                   FROM c JOIN pairs p ON p.sa = c.sa AND p.sb = c.sb
                   GROUP BY c.sa, c.sb)
            SELECT source_a, source_b, d_num, d_den,
                   CAST(floor(d_num::DOUBLE / d_den * 1000000.0 + 0.5)
                        AS BIGINT) AS ks_micro
            FROM kk
            ORDER BY ks_micro DESC, source_a ASC, source_b ASC
            LIMIT 10
        """,
        # centroid pair distances stay RATIONAL (HUGEINT numerator) until
        # one mirrored float chain; output in raw-units² micro
        "centroid_distances": """
            WITH c AS (
                SELECT label::BIGINT AS label, dim::BIGINT AS dim,
                       sum(CAST(floor(x * 1000000) AS BIGINT))::HUGEINT AS s,
                       count(*)::HUGEINT AS n
                FROM (SELECT label,
                             unnest(CAST(embedding AS DOUBLE[])) AS x,
                             unnest(range(len(embedding))) AS dim
                      FROM embeddings)
                GROUP BY label, dim
            ),
            p AS (
                SELECT a.label AS label_a, b.label AS label_b,
                       sum((a.s * b.n - b.s * a.n) * (a.s * b.n - b.s * a.n))
                           AS num,
                       any_value(a.n) AS na, any_value(b.n) AS nb
                FROM c a JOIN c b ON a.dim = b.dim AND a.label < b.label
                GROUP BY a.label, b.label
            )
            SELECT label_a, label_b,
                   CAST(floor(num::DOUBLE / ((na * nb) * (na * nb))::DOUBLE
                              / (1000000.0 * 1000000.0)
                              * 1000000.0 + 0.5) AS BIGINT) AS d2_micro
            FROM p
        """,
        # Mann-Whitney doubled U is a pure integer over the merged value
        # histogram; the AUC divide is the only float (mirrored)
        "length_rank_auc": """
            WITH d AS (SELECT source, length(text)::BIGINT AS x
                       FROM documents WHERE source IN ('src0', 'src1')),
            tot AS (SELECT sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END
                              )::BIGINT AS na,
                           sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END
                              )::BIGINT AS nb
                    FROM d),
            h AS (SELECT x,
                         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END
                            )::BIGINT AS ca,
                         sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END
                            )::BIGINT AS cb
                  FROM d GROUP BY x),
            c AS (SELECT ca, cb,
                         (sum(cb) OVER (ORDER BY x) - cb)::BIGINT
                             AS cumb_before
                  FROM h)
            SELECT sum(ca * (2 * cumb_before + cb))::BIGINT AS u2,
                   CAST(floor(sum(ca * (2 * cumb_before + cb))::DOUBLE
                              / (2 * tot.na * tot.nb) * 1000000.0 + 0.5)
                        AS BIGINT) AS auc_micro
            FROM c CROSS JOIN tot GROUP BY tot.na, tot.nb
        """,
        # exact mode, ties fully specified (count desc, value asc)
        "qty_mode": """
            WITH h AS (SELECT l_returnflag,
                              CAST(floor(l_quantity * 1 + 0.5) AS BIGINT) AS x,
                              count(*)::BIGINT AS c
                       FROM lineitem GROUP BY l_returnflag, x),
            r AS (SELECT l_returnflag, x AS mode_value, c AS mode_count,
                         row_number() OVER (PARTITION BY l_returnflag
                                            ORDER BY c DESC, x ASC) AS rn
                  FROM h)
            SELECT l_returnflag, mode_value, mode_count FROM r WHERE rn = 1
        """,
        # Spearman via integer double-ranks (2·rank + tie_count - 1 =
        # twice the average rank); HUGEINT sums + grouped_corr's float
        "spearman_qty_price": """
            WITH base AS (
                SELECT l_returnflag AS g,
                       CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) AS xv,
                       CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) AS yv
                FROM lineitem
            ),
            r AS (
                SELECT g,
                       CAST(2 * rank() OVER (PARTITION BY g ORDER BY xv)
                            + count(*) OVER (PARTITION BY g, xv) - 1
                            AS HUGEINT) AS drx,
                       CAST(2 * rank() OVER (PARTITION BY g ORDER BY yv)
                            + count(*) OVER (PARTITION BY g, yv) - 1
                            AS HUGEINT) AS dry
                FROM base
            ),
            a AS (
                SELECT g, CAST(count(*) AS HUGEINT) AS n,
                       SUM(drx) AS sx, SUM(dry) AS sy,
                       SUM(drx * drx) AS sxx, SUM(dry * dry) AS syy,
                       SUM(drx * dry) AS sxy
                FROM r GROUP BY g
            )
            SELECT g AS l_returnflag, CAST(n AS BIGINT) AS n_rows,
                   CAST(FLOOR(1000000.0 * (n * sxy - sx * sy)
                        / SQRT(CAST((n * sxx - sx * sx) * (n * syy - sy * sy)
                                    AS DOUBLE))) AS BIGINT) AS spearman_micro
            FROM a
        """,
        # KS: the cdf-gap max is computed over RATIONALS (cum·n cross
        # products, all int64); the single divide is the only float
        "length_ks_drift": """
            WITH d AS (SELECT source, length(text)::BIGINT AS x
                       FROM documents WHERE source IN ('src0', 'src1')),
            tot AS (SELECT sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END
                              )::BIGINT AS na,
                           sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END
                              )::BIGINT AS nb
                    FROM d),
            h AS (SELECT x,
                         sum(CASE WHEN source = 'src0' THEN 1 ELSE 0 END
                            )::BIGINT AS ca,
                         sum(CASE WHEN source = 'src1' THEN 1 ELSE 0 END
                            )::BIGINT AS cb
                  FROM d GROUP BY x),
            c AS (SELECT sum(ca) OVER (ORDER BY x)::BIGINT AS cum_a,
                         sum(cb) OVER (ORDER BY x)::BIGINT AS cum_b
                  FROM h)
            SELECT max(abs(cum_a * tot.nb - cum_b * tot.na))::BIGINT AS d_num,
                   (tot.na * tot.nb)::BIGINT AS d_den,
                   CAST(floor(max(abs(cum_a * tot.nb - cum_b * tot.na)
                                 )::DOUBLE / (tot.na * tot.nb)
                              * 1000000.0 + 0.5) AS BIGINT) AS ks_micro
            FROM c CROSS JOIN tot GROUP BY tot.na, tot.nb
        """,
        # chi2: per-cell terms are floored to ints BEFORE the sum (order-
        # independent); e and the Cramer chain are literal float mirrors
        "source_lang_chi2": """
            WITH c AS (SELECT source, lang, count(*)::BIGINT AS n
                       FROM documents GROUP BY source, lang),
            r AS (SELECT source, sum(n)::BIGINT AS rn FROM c GROUP BY source),
            l AS (SELECT lang, sum(n)::BIGINT AS cn FROM c GROUP BY lang),
            t AS (SELECT sum(n)::BIGINT AS nobs FROM c),
            grid AS (SELECT coalesce(cc.n, 0)::BIGINT AS n,
                            (r.rn * l.cn)::DOUBLE / t.nobs AS e
                     FROM r CROSS JOIN l CROSS JOIN t
                     LEFT JOIN c cc ON cc.source = r.source
                                   AND cc.lang = l.lang),
            s AS (SELECT sum(CAST(floor(((n - e) * (n - e)) / e
                                        * 1000000.0 + 0.5) AS BIGINT)
                            )::BIGINT AS chi2_micro
                  FROM grid),
            dims AS (SELECT (SELECT count(*) FROM r)::BIGINT AS nr,
                            (SELECT count(*) FROM l)::BIGINT AS nc)
            SELECT s.chi2_micro,
                   CAST(floor(sqrt((s.chi2_micro::DOUBLE / 1000000.0)
                                   / (t.nobs
                                      * least(dims.nr - 1, dims.nc - 1)
                                     )::DOUBLE)
                              * 1000000.0 + 0.5) AS BIGINT)
                       AS cramers_v_micro,
                   ((dims.nr - 1) * (dims.nc - 1))::BIGINT AS dof,
                   t.nobs AS n_obs
            FROM s CROSS JOIN dims CROSS JOIN t
        """,
        # modified z-score: med/mad are exact binary floats (nested
        # interpolated medians of ints), the multiply/divide/floor chain
        # is mirrored literally — identical IEEE ops on identical inputs
        "spend_outliers": """
            WITH x AS (
                SELECT o_orderkey, o_orderpriority,
                       CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS c
                FROM orders
            ),
            m AS (
                SELECT o_orderpriority, quantile_cont(c, 0.5) AS med
                FROM x GROUP BY o_orderpriority
            ),
            d AS (
                SELECT x.o_orderpriority,
                       quantile_cont(abs(x.c - m.med), 0.5) AS mad
                FROM x JOIN m USING (o_orderpriority)
                GROUP BY x.o_orderpriority
            )
            SELECT x.o_orderkey, x.o_orderpriority,
                   CASE WHEN d.mad = 0 THEN NULL
                        ELSE CAST(floor((0.6745 * (x.c - m.med)) / d.mad
                                        * 1000000.0 + 0.5) AS BIGINT)
                   END AS modz_micro,
                   CASE WHEN d.mad = 0 THEN NULL
                        ELSE abs(CAST(floor((0.6745 * (x.c - m.med)) / d.mad
                                            * 1000000.0 + 0.5) AS BIGINT))
                             > 3500000
                   END AS is_outlier
            FROM x JOIN m USING (o_orderpriority)
                   JOIN d ON d.o_orderpriority = x.o_orderpriority
        """,
        # 2-D skyline on DISTINCT points: after dedup, the window
        # running-max over (price asc, qty desc) is exact — an earlier
        # row has strictly smaller price, or equal price with strictly
        # larger qty, i.e. it dominates iff its qty >= ours
        "skyline_price_qty": """
            WITH x AS (
                SELECT l_returnflag,
                       CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                           AS price_c,
                       CAST(floor(l_quantity + 0.5) AS BIGINT) AS qty,
                       count(*)::BIGINT AS n_items
                FROM lineitem
                GROUP BY 1, 2, 3
            ),
            y AS (
                SELECT *,
                       MAX(qty) OVER (
                           PARTITION BY l_returnflag
                           ORDER BY price_c ASC, qty DESC
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ) AS bp
                FROM x
            )
            SELECT l_returnflag, price_c, qty, n_items
            FROM y WHERE bp IS NULL OR qty > bp
        """,
        "skyline_range": """
            WITH x AS (
                SELECT l_returnflag,
                       CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)
                           AS price_c,
                       CAST(floor(l_quantity + 0.5) AS BIGINT) AS qty,
                       count(*)::BIGINT AS n_items
                FROM lineitem
                GROUP BY 1, 2, 3
            ),
            y AS (
                SELECT *,
                       MAX(qty) OVER (
                           PARTITION BY l_returnflag
                           ORDER BY price_c ASC, qty DESC
                           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                       ) AS bp
                FROM x
            )
            SELECT l_returnflag, price_c, qty, n_items
            FROM y WHERE bp IS NULL OR qty > bp
        """,
        # redirect chains: recursive CTE walks each doc to its root; the
        # edge rule mirrors the Ray side exactly (break at d%100==0 or
        # n_chars%7==0); the deepest walk row per doc is the root
        "redirect_resolve": """
            WITH RECURSIVE e AS (
                SELECT doc_id AS id,
                       CASE WHEN doc_id % 100 = 0 OR n_chars % 7 = 0
                            THEN NULL ELSE doc_id - 1 END AS nxt
                FROM documents
            ),
            walk AS (
                SELECT id, id AS cur, 0 AS d FROM e
                UNION ALL
                SELECT w.id, e2.nxt AS cur, w.d + 1 AS d
                FROM walk w JOIN e e2 ON e2.id = w.cur
                WHERE e2.nxt IS NOT NULL
            )
            SELECT id AS doc_id, cur AS root_id, d::BIGINT AS depth
            FROM walk
            QUALIFY row_number() OVER (PARTITION BY id ORDER BY d DESC) = 1
        """,
        # hopping windows: each event in exactly window/hop = 2 windows
        "hopping_counts": """
            SELECT (epoch_us(ts) // 1800000000 - k.k) * 1800000000 AS w_start,
                   count(*)::BIGINT AS n,
                   sum(CAST(floor(value * 100.0 + 0.5) AS BIGINT))::BIGINT
                       AS sum_cents
            FROM events CROSS JOIN (SELECT unnest([0, 1]) AS k) k
            GROUP BY w_start
        """,
        # PMI term order mirrored literally (the source_kl precedent:
        # identical left-to-right IEEE expression on identical exact ints)
        "pmi_topk": r"""
            WITH W AS (SELECT regexp_extract_all(lower(text), '\b\w+\b') AS w
                       FROM documents),
            toks AS (SELECT unnest(w) AS word FROM W),
            uni AS (SELECT word, count(*)::BIGINT AS c FROM toks GROUP BY word),
            tot AS (SELECT count(*)::BIGINT AS t FROM toks),
            prs AS (SELECT unnest(list_transform(range(1, len(w)),
                        i -> w[i] || ' ' || w[i + 1])) AS pair FROM W),
            pc AS (SELECT pair, count(*)::BIGINT AS c_xy FROM prs
                   GROUP BY pair HAVING count(*) >= 5),
            ptot AS (SELECT count(*)::BIGINT AS p FROM prs)
            SELECT pc.pair, pc.c_xy,
                   CAST(floor((ln(pc.c_xy::DOUBLE)
                               + 2.0 * ln(tot.t::DOUBLE)
                               - ln(ptot.p::DOUBLE)
                               - ln(ux.c::DOUBLE)
                               - ln(uy.c::DOUBLE)) * 1000000.0 + 0.5)
                        AS BIGINT) AS pmi_micro
            FROM pc
            JOIN uni ux ON ux.word = split_part(pc.pair, ' ', 1)
            JOIN uni uy ON uy.word = split_part(pc.pair, ' ', 2)
            CROSS JOIN tot CROSS JOIN ptot
            ORDER BY pmi_micro DESC, pair ASC
            LIMIT 100
        """,
        # nested interpolated medians: every intermediate float is an
        # exact binary value (ints and int+0.5 halvings), so the double
        # output is bit-identical (the grouped_quantile_cont argument)
        "spend_mad": """
            WITH x AS (
                SELECT o_orderpriority,
                       CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT) AS c
                FROM orders
            ),
            m AS (
                SELECT o_orderpriority, quantile_cont(c, 0.5) AS med
                FROM x GROUP BY o_orderpriority
            )
            SELECT x.o_orderpriority,
                   quantile_cont(abs(x.c - m.med), 0.5) AS mad
            FROM x JOIN m USING (o_orderpriority)
            GROUP BY x.o_orderpriority
        """,
        # (rank-1)/(n-1): both operands are exact small ints, one IEEE
        # divide both sides (the weighted_sample precedent)
        "balance_percent_rank": """
            SELECT c_mktsegment, c_custkey,
                   CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT) AS bal_cents,
                   percent_rank() OVER (
                       PARTITION BY c_mktsegment
                       ORDER BY CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT)
                   ) AS pr
            FROM customer
        """,
        "session_stats": """
            WITH lagd AS (
                SELECT user_id, event_id, ts,
                       lag(ts) OVER (PARTITION BY user_id
                                     ORDER BY ts, event_id) AS prev_ts
                FROM events
            ),
            sess AS (
                SELECT user_id,
                       sum(CASE WHEN prev_ts IS NULL
                                OR epoch_us(ts) - epoch_us(prev_ts)
                                   > 30*60*1000000
                                THEN 1 ELSE 0 END)
                         OVER (PARTITION BY user_id ORDER BY ts, event_id) AS sid
                FROM lagd
            ),
            per AS (
                SELECT user_id, sid, count(*)::BIGINT AS c
                FROM sess GROUP BY user_id, sid
            )
            SELECT user_id,
                   count(*)::BIGINT AS n_sessions,
                   sum(c)::BIGINT AS n_events,
                   max(c)::BIGINT AS max_session_events
            FROM per GROUP BY user_id
        """,
        # per-source unigram KL drift: term formula mirrored literally
        # (p = c/ts, q = g/t, p·ln(p/q)), micro-nat scaling both sides
        "source_kl": r"""
            WITH tok AS (SELECT source,
                                lower(unnest(regexp_extract_all(text, '\b\w+\b'))) AS w
                         FROM documents),
            c AS (SELECT source, w, count(*)::BIGINT AS c
                  FROM tok GROUP BY source, w),
            st AS (SELECT source, sum(c)::BIGINT AS ts FROM c GROUP BY source),
            tt AS (SELECT sum(c)::BIGINT AS t FROM c),
            gw AS (SELECT w, sum(c)::BIGINT AS g FROM c GROUP BY w)
            SELECT c.source, st.ts AS n_tokens,
                   CAST(floor(sum(
                       (c.c / CAST(st.ts AS DOUBLE)) *
                       ln((c.c / CAST(st.ts AS DOUBLE)) /
                          (gw.g / CAST(tt.t AS DOUBLE)))
                   ) * 1000000 + 0.5) AS BIGINT) AS kl_micro
            FROM c JOIN st USING (source) JOIN gw ON c.w = gw.w CROSS JOIN tt
            GROUP BY c.source, st.ts
        """,
        # per-user journey strings: head-capped string_agg with the
        # (ts, event_id) total order mirrored on both sides
        "user_paths": """
            WITH o AS (SELECT user_id, event_type, ts, event_id,
                              row_number() OVER (
                                  PARTITION BY user_id ORDER BY ts, event_id
                              ) AS rn
                       FROM events),
            n AS (SELECT user_id, count(*)::BIGINT AS n_events
                  FROM events GROUP BY user_id)
            SELECT n.user_id, n.n_events,
                   string_agg(o.event_type, '>' ORDER BY o.ts, o.event_id) AS path
            FROM n JOIN o ON n.user_id = o.user_id AND o.rn <= 50
            GROUP BY n.user_id, n.n_events
        """,
        # Hamilton largest-remainder apportionment — pure integer
        # arithmetic (d*B // total, d*B % total), leftover by
        # (remainder DESC, group ASC) row_number
        "source_budget": """
            WITH c AS (SELECT source, count(*)::BIGINT AS d
                       FROM documents GROUP BY source),
            t AS (SELECT sum(d)::BIGINT AS total FROM c),
            q AS (SELECT c.source, c.d,
                         c.d * 1000 // t.total AS base,
                         c.d * 1000 % t.total AS rem
                  FROM c, t),
            r AS (SELECT *,
                         row_number() OVER (ORDER BY rem DESC, source) AS rk,
                         1000 - sum(base) OVER () AS leftover
                  FROM q)
            SELECT source, d AS n_rows,
                   (base + CASE WHEN rk <= leftover THEN 1 ELSE 0 END)::BIGINT
                       AS budget
            FROM r
        """,
        # interpolated quartiles over integer cents: at q ∈ {25,50,75}
        # the (n-1)·q/100 rank and the lo+(hi-lo)·frac interpolation are
        # exact binary doubles, so quantile_cont matches bit-identically
        "spend_quantiles": """
            WITH c AS (SELECT o_orderpriority AS g,
                              CAST(floor(o_totalprice*100+0.5) AS BIGINT) AS x
                       FROM orders)
            SELECT g AS o_orderpriority, 25::BIGINT AS q_pct,
                   quantile_cont(x, 0.25) AS value FROM c GROUP BY g
            UNION ALL
            SELECT g, 50::BIGINT, quantile_cont(x, 0.50) FROM c GROUP BY g
            UNION ALL
            SELECT g, 75::BIGINT, quantile_cont(x, 0.75) FROM c GROUP BY g
        """,
        # mirror detection: deduped (fingerprint, source) self-join,
        # total order (n DESC, x, y) so the LIMIT is deterministic
        "mirror_sources": """
            WITH m AS (SELECT DISTINCT
                              substring(md5(substring(text, 1, 64)), 1, 16) AS fp,
                              source
                       FROM documents),
            p AS (SELECT a.source AS source_x, b.source AS source_y,
                         count(*)::BIGINT AS n_shared
                  FROM m a JOIN m b ON a.fp = b.fp AND a.source < b.source
                  GROUP BY a.source, b.source)
            SELECT source_x, source_y, n_shared
            FROM p ORDER BY n_shared DESC, source_x, source_y LIMIT 25
        """,
        # per-group winsorization at exact discrete quantiles — the pinned
        # integer rank (n*q+99)//100 walked over the windowed cumsum
        "winsorized_spend": """
            WITH c AS (SELECT o_orderkey, o_orderpriority AS g,
                              CAST(floor(o_totalprice*100+0.5) AS BIGINT) AS x
                       FROM orders),
            h AS (SELECT g, x, count(*)::BIGINT AS cnt FROM c GROUP BY 1, 2),
            tot AS (SELECT g, sum(cnt)::BIGINT AS nt FROM h GROUP BY 1),
            cum AS (SELECT h.g, h.x,
                           sum(h.cnt) OVER (PARTITION BY h.g ORDER BY h.x) AS cn,
                           t.nt
                    FROM h JOIN tot t USING (g)),
            q AS (SELECT g,
                         min(CASE WHEN cn >= (nt*5+99)//100 THEN x END)::BIGINT AS lo,
                         min(CASE WHEN cn >= (nt*95+99)//100 THEN x END)::BIGINT AS hi
                  FROM cum GROUP BY g)
            SELECT c.o_orderkey, c.g AS o_orderpriority,
                   CASE WHEN c.x < q.lo THEN q.lo
                        WHEN c.x > q.hi THEN q.hi
                        ELSE c.x END AS clipped
            FROM c JOIN q USING (g)
        """,
        # prefix-filtered set-similarity join: doc pairs sharing the most
        # rare bigram shingles, hub shingles excluded exactly (HAVING <= cap)
        "related_docs_topk": """
            WITH toks AS (SELECT doc_id,
                                 regexp_extract_all(lower(text), '\\b\\w+\\b') AS ws
                          FROM documents),
            m AS (SELECT DISTINCT doc_id, ws[i] || ' ' || ws[i+1] AS shingle
                  FROM toks, unnest(range(1, len(ws))) t(i)),
            ok AS (SELECT shingle FROM m GROUP BY shingle
                   HAVING count(*) <= 20),
            e AS (SELECT m.shingle, m.doc_id FROM m JOIN ok USING (shingle))
            SELECT e1.doc_id AS x, e2.doc_id AS y,
                   count(*)::BIGINT AS n_shared
            FROM e e1 JOIN e e2
              ON e1.shingle = e2.shingle AND e1.doc_id < e2.doc_id
            GROUP BY x, y
            ORDER BY n_shared DESC, x, y
            LIMIT 25
        """,
        # common-neighbor top-k as a self-join on the symmetrized deduped
        # adjacency; (count DESC, x, y) makes the LIMIT deterministic
        "copurchase_topk": """
            WITH e AS (SELECT DISTINCT l_orderkey AS s,
                                       l_partkey + 10000000 AS t
                       FROM lineitem
                       UNION
                       SELECT DISTINCT l_partkey + 10000000, l_orderkey
                       FROM lineitem)
            SELECT e1.t AS x, e2.t AS y, count(*)::BIGINT AS n_common
            FROM e e1 JOIN e e2 ON e1.s = e2.s AND e1.t < e2.t
            GROUP BY x, y
            ORDER BY n_common DESC, x, y
            LIMIT 25
        """,
        # per-group equal-width histogram on scaled integers; values are
        # non-negative so BIGINT // matches numpy floor division
        "qty_histogram": """
            SELECT l_returnflag,
                   CAST(floor(l_quantity*100+0.5) AS BIGINT) // 500 AS bin,
                   count(*)::BIGINT AS cnt
            FROM lineitem
            GROUP BY l_returnflag, bin
        """,
        # sequential Poisson weighted k-sample: k smallest u/w priorities
        # (one IEEE divide — bit-identical numpy/DuckDB), id tie-break
        "weighted_sample": """
            SELECT doc_id, n_chars AS w
            FROM documents
            ORDER BY CAST(((doc_id::HUGEINT * 2654435761) % 4294967296) + 1
                          AS DOUBLE) / n_chars,
                     doc_id
            LIMIT 50
        """,
        # per-brand lineitem revenue via the part dimension (broadcast
        # map-side join below the guard, repartition join above)
        "brand_revenue": """
            SELECT p.p_brand,
                   sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount)
                                  * 100 + 0.5) AS BIGINT))::BIGINT
                     AS revenue_cents,
                   count(*)::BIGINT AS n_items
            FROM lineitem l
            JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY p.p_brand
        """,
        # running per-customer order total (ROWS UNBOUNDED PRECEDING;
        # orderkey tiebreak makes the frame deterministic)
        "cumulative_spend": """
            SELECT o_orderkey, o_custkey,
                   sum(floor(o_totalprice * 100 + 0.5)::BIGINT) OVER (
                       PARTITION BY o_custkey
                       ORDER BY o_orderdate, o_orderkey
                       ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW
                   )::BIGINT AS cum
            FROM orders
        """,
        # composite-key (int, string) LEFT join; click rows have no
        # non-click cents partner, so sum_cents is NULL there
        "user_type_join": """
            SELECT e.user_id, e.event_type, e.n_events, p.sum_cents
            FROM (SELECT user_id, event_type, count(*)::BIGINT AS n_events
                  FROM events GROUP BY user_id, event_type) e
            LEFT JOIN (SELECT user_id, event_type,
                              sum(floor(value * 100 + 0.5)::BIGINT)::BIGINT AS sum_cents
                       FROM events WHERE event_type <> 'click'
                       GROUP BY user_id, event_type) p
              ON e.user_id = p.user_id AND e.event_type = p.event_type
        """,
        # value-ordered per-group top-k (ranking window); cents-integer
        # order both sides so float ties can't diverge
        "top_orders_per_customer": """
            SELECT o_custkey, o_orderkey, cents, rn AS rank
            FROM (SELECT o_custkey, o_orderkey,
                         floor(o_totalprice * 100 + 0.5)::BIGINT AS cents,
                         row_number() OVER (
                             PARTITION BY o_custkey
                             ORDER BY floor(o_totalprice * 100 + 0.5)::BIGINT DESC,
                                      o_orderkey)::BIGINT AS rn
                  FROM orders)
            WHERE rn <= 3
        """,
    }
    # the strategy="join" scale plans have identical semantics to their
    # broadcast counterparts — same oracle, separately gated
    sql["dup_spans_join"] = sql["dup_spans"]
    sql["line_dedup_join"] = sql["line_dedup"]
    # the "join"-strategy variants are semantics-identical scale plans of
    # their broadcast twins — same oracle, so the gate proves BOTH paths
    sql["line_dedup_join"] = sql["line_dedup"]
    sql["dup_spans_join"] = sql["dup_spans"]
    return sql
