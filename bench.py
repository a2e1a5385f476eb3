"""Benchmark harness (driver contract: prints ONE JSON line).

Headline: frontier-scheduled fetch+extract crawl (URLs/sec) over the
deterministic synthetic Common-Crawl-style corpus (BASELINE.json metric).
Sub-pipeline timings run over $GRAFT_SF_DIR tables.

    python bench.py              # one run at $RAY_GRAFT_CPUS (default: the
                                 # process's CPU-affinity count)
    python bench.py --scaling    # fresh-process runs at 8 and 32 CPUs,
                                 # reports both + scaling efficiency

Env knobs: GRAFT_SF_DIR, RAY_GRAFT_CPUS, GRAWLER_BENCH_HOSTS,
GRAWLER_BENCH_PAGES (corpus = hosts x pages, generated once under /tmp and
reused across runs — generation is excluded from timing).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", len(os.sched_getaffinity(0))))
N_HOSTS = int(os.environ.get("GRAWLER_BENCH_HOSTS", "100"))
PAGES = int(os.environ.get("GRAWLER_BENCH_PAGES", "1000"))
SEED = 42
BENCH_BUCKETS = 256


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def corpus_dir() -> str:
    return f"/tmp/grawler_bench_corpus_{N_HOSTS}x{PAGES}_s{SEED}"


def ensure_corpus() -> tuple[str, str]:
    from grawler_ray.config import CrawlConfig
    from grawler_ray.sources.corpus import generate_corpus, generate_robots_cache

    cdir = corpus_dir()
    robots = os.path.join(cdir, "robots_cache.parquet")
    if not os.path.exists(os.path.join(cdir, "bucket=0")):
        log(f"generating bench corpus {N_HOSTS}x{PAGES} at {cdir} ...")
        t0 = time.monotonic()
        generate_corpus(
            cdir, n_hosts=N_HOSTS, pages_per_host=PAGES, seed=SEED,
            num_buckets=BENCH_BUCKETS, use_ray=True,
        )
        generate_robots_cache(robots, SEED, N_HOSTS, CrawlConfig().now_us)
        log(f"corpus generated in {time.monotonic() - t0:.1f}s")
    return cdir, robots


def run_crawl_bench(num_cpus: int, saturated: bool = False) -> dict:
    """BFS discovery mode (default) or `saturated` recrawl mode: the frontier
    is the full known url list in ONE round — the steady-state shape of every
    round at 10^10-frontier scale (and a real workload: refresh recrawl)."""
    from grawler_ray.config import CrawlConfig
    from grawler_ray.pipelines.crawl import run_crawl
    from grawler_ray.sources.corpus import page_url, seed_urls

    cdir, robots = ensure_corpus()
    out = f"/tmp/grawler_bench_out_{num_cpus}"
    shutil.rmtree(out, ignore_errors=True)
    cfg = CrawlConfig(
        per_host_quota=10_000,      # bench throughput mode: politeness off the
        max_rounds=1 if saturated else 8,
        num_fetch_buckets=BENCH_BUCKETS,
        seen_shards=8,
        out_dir=out,
        write_trace=False,
        seen_snapshots=False,  # like write_trace: resume aids off in throughput mode
        parse_batch_size=128,
    )
    if saturated:
        seeds = [page_url(h, p) for h in range(N_HOSTS) for p in range(PAGES)]
    else:
        seeds = seed_urls(N_HOSTS, N_HOSTS)  # one seed per host

    # warm the worker pool before timing (exclude process cold-start)
    import ray as _ray

    @_ray.remote
    def _noop():
        return 0

    _ray.get([_noop.remote() for _ in range(num_cpus * 2)])
    t0 = time.monotonic()
    stats = run_crawl(cdir, seeds, cfg, robots_cache_path=robots)
    wall = time.monotonic() - t0
    return {
        "wall_sec": wall,
        "fetched": stats["fetched"],
        "rounds": stats["rounds"],
        "urls_per_sec": stats["fetched"] / wall if wall > 0 else 0.0,
        # per-phase seconds (summed over rounds) — the scaling-pair
        # diagnosis channel: a phase whose time doesn't shrink 8->32
        # cpus is the serial fraction capping the pair's efficiency
        "phase_sec": {k: round(v, 2) for k, v in stats.get("phase_sec", {}).items()},
    }


def run_subqueries() -> dict[str, float]:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as entry_mod

    qs = entry_mod.queries()
    names = [
        "word_freq", "doc_stats", "exact_dedup", "top_words", "q1_agg",
        "orders_by_nation", "lineitem_join_orders", "politeness_slots",
        "ann_topk", "ann_lsh_topk", "ann_indexed_topk", "ann_ivf_topk",
        "ann_pq_topk", "label_centroids",
        "minhash_pairs", "minhash_incremental", "simhash",
        "simhash_pairs", "embedding_dup_pairs", "ngram_jaccard_pairs", "ngram_containment_pairs",
        "ssjoin_pairs", "fuzzy_name_pairs",
        "dedup_clusters", "dedup_keep_longest", "snapshot_diff", "dup_ratio_by_source", "token_count",
        "top_words_per_lang",
        "sessionize", "rolling_sum", "rolling_median", "last_touch", "user_distinct_types", "rolling_distinct", "events_hourly", "user_retention",
        "tfidf_topk", "line_dedup", "decontaminate", "inverted_index", "pack_manifest",
        "quality_filter", "asof_join", "range_join_count",
        "time_window_sum", "length_quantiles", "pagerank", "dup_spans",
        "semdedup", "topk_words_sketch", "approx_distinct_words",
        "event_deltas", "source_cap", "bigram_counts", "cooccurrence_topk",
        "source_lang_pivot",
        "degree_stats", "triangle_count", "distinct_words_per_lang",
        "funnel_counts", "countmin_words", "decontaminate_bloom",
        "warc_ingest", "jsonl_ingest", "compression_signals", "redact_pii",
        "normalize_text", "rare_word_ratio", "customers_without_orders",
        "docs_by_length", "quantile_sketch", "grouped_quantile_sketch",
        "revenue_by_region",
        "chunk_docs", "vocab_coverage", "mixture_sample",
        "source_sample_k", "customer_order_counts",
        "events_orders_full", "top_orders_per_customer", "bigram_lm_score",
        "user_type_join", "cumulative_spend", "brand_revenue",
        "customers_with_orders", "lang_quality_buckets", "dsir_weights",
        "source_lang_rollup", "source_lang_cube", "lineitem_melt",
        "prep_corpus", "curate_corpus", "lineitem_moments",
        "qty_discount_corr", "zscore_orders", "bpe_merges",
        "qty_histogram", "weighted_sample", "order_part_bfs",
        "copurchase_topk", "kcore_nodes", "related_docs_topk", "winsorized_spend",
        "transition_counts", "ewma_scores", "winnow_fps",
        "path_trigrams", "doc_entropy", "mirror_sources",
        "spend_quantiles", "user_paths", "source_budget", "source_kl",
        "running_revenue", "spend_ntile", "date_rank", "nation_gini",
        "vocab_overlap", "nation_spend_quartile", "new_users_daily",
        "user_gap_moments", "csv_ingest", "readability",
        "spend_mad", "balance_percent_rank", "session_stats", "pmi_topk",
        "hopping_counts", "spend_outliers", "source_lang_chi2",
        "length_ks_drift", "spearman_qty_price", "length_rank_auc",
        "qty_mode", "centroid_distances", "source_ks_matrix",
        "lineitem_profile", "script_ratios", "benford_spend",
        "cross_dedup_pairs", "normalized_dedup", "shuffle_shards",
        "cross_embedding_dups", "sitemap_ingest", "langid_confusion",
        "concurrent_users", "span_overlap_counts", "robots_eval",
        "pdf_ingest", "token_budget_cap", "minhash_index_update",
        "ann_ivf_update_topk",
        "change_rate", "url_trap_score", "source_apportion",
        "recrawl_schedule", "cdc_chunks", "recrawl_urls", "snapshot_delta",
        "cdc_delta_stats", "charset_detect",
        "hits_scores", "main_content", "price_qty_regression",
        "skyline_price_qty", "redirect_resolve", "quality_lr",
        "split_by_cluster", "zipf_fit", "bpe_token_counts",
        "png_meta", "png_resize", "jpeg_meta", "jpeg_resize",
        "gif_meta", "gif_frames", "wav_features", "skyline_range",
        "avi_meta", "avi_frames", "audio_codecs", "media_triage",
        "ann_hnsw_topk", "docx_ingest", "odt_ingest",
        "ann_hnsw_update_topk", "rtf_ingest", "xlsx_ingest", "epub_ingest",
        "image_dhash_pairs", "audio_mfcc", "avi_scenes",
    ]
    import ray.data

    # pre-warm the shared crawl fixture OUTSIDE the timed window:
    # main_content / sniff_mismatch / charset_detect time their stages,
    # not the once-per-process 6-round crawl that _ensure_crawl builds
    # (BENCH_r04's main_content 24.1 s was ~95% fixture cost)
    t0 = time.monotonic()
    entry_mod._ensure_crawl()
    fixture_sec = round(time.monotonic() - t0, 3)
    log(f"  crawl fixture prewarm (untimed): {fixture_sec}s")

    out = {}
    for name in names:
        t0 = time.monotonic()
        res = qs[name](SF_DIR)
        if isinstance(res, ray.data.Dataset):
            res.count()  # drain the lazy pipeline so timing covers execution
        out[name] = round(time.monotonic() - t0, 3)
        log(f"  {name}: {out[name]}s")
    return out


def host_calibration() -> dict:
    """Fixed single-process probes so a reading of absolute timings can be
    normalized for shared-host contention (this VM's documented ±20-40%+
    variance): a cache-resident matmul (compute) and a 400 MB array sum
    (memory bandwidth — the resource co-tenants actually contend on).
    Absolute values are hardware-specific; compare the SAME probe across
    rounds/runs — larger = more contended host for that run."""
    import numpy as _np

    a = _np.random.default_rng(0).standard_normal((1024, 1024))
    t0 = time.monotonic()
    for _ in range(5):
        a = a @ a * 1e-3
    matmul = time.monotonic() - t0
    big = _np.ones(50_000_000)  # 400 MB
    t0 = time.monotonic()
    s = 0.0
    for _ in range(3):
        s += float(big.sum())
    membw = time.monotonic() - t0
    return {"matmul_sec": round(matmul, 3), "membw_sec": round(membw, 3)}


def single_run() -> dict:
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    crawl = run_crawl_bench(NUM_CPUS)
    log(f"crawl: {crawl}")
    queries = run_subqueries()
    ray.shutdown()
    return {
        "metric": "frontier crawl fetch+extract throughput (URLs/sec) over "
                  "bucketed Common-Crawl-style parquet corpus",
        "value": round(crawl["urls_per_sec"], 2),
        "unit": "URLs/sec",
        "crawl_wall_sec": round(crawl["wall_sec"], 3),
        "queries": queries,
        "sf": SF_DIR.rstrip("/").split("sf")[-1],
        "num_cpus": NUM_CPUS,
        "crawl_fetched_urls": crawl["fetched"],
        "crawl_rounds": crawl["rounds"],
        "crawl_urls_per_sec": round(crawl["urls_per_sec"], 2),
        "bench_corpus": f"{N_HOSTS}x{PAGES}",
        "host_calib": host_calibration(),
    }


def scaling_run() -> dict:
    """Fresh-process runs at two parallelism levels (the sandbox stand-in for
    the N vs 4N cluster-size criterion; BASELINE.md)."""
    results = {}
    for cpus in (8, 32):
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        env["GRAWLER_BENCH_MODE"] = "crawl_only"
        env.setdefault("GRAWLER_BENCH_SATURATED", "1")
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            capture_output=True, text=True, env=env,
        )
        log(p.stderr[-2000:])
        line = p.stdout.strip().splitlines()[-1]
        results[cpus] = json.loads(line)
    t8 = results[8]["crawl_urls_per_sec"]
    t32 = results[32]["crawl_urls_per_sec"]
    eff = (t32 / t8) / (32 / 8) if t8 > 0 else 0.0
    return {
        "metric": "crawl scaling efficiency (8 -> 32 cpus, fresh processes)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "urls_per_sec_8": t8,
        "urls_per_sec_32": t32,
        "speedup": round(t32 / t8, 2) if t8 else 0.0,
        "target": ">= 0.8",
        "runs": results,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(scaling_run()))
    elif os.environ.get("GRAWLER_BENCH_MODE") == "crawl_only":
        import ray

        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            ignore_reinit_error=True, logging_level="ERROR",
        )
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        crawl = run_crawl_bench(
            NUM_CPUS, saturated=os.environ.get("GRAWLER_BENCH_SATURATED") == "1"
        )
        ray.shutdown()
        print(json.dumps({
            "num_cpus": NUM_CPUS,
            "saturated": os.environ.get("GRAWLER_BENCH_SATURATED") == "1",
            "value": round(crawl["urls_per_sec"], 2),
            "unit": "URLs/sec",
            "crawl_wall_sec": round(crawl["wall_sec"], 3),
            "crawl_fetched_urls": crawl["fetched"],
            "crawl_urls_per_sec": round(crawl["urls_per_sec"], 2),
            "phase_sec": crawl["phase_sec"],
        }))
    else:
        print(json.dumps(single_run()))
