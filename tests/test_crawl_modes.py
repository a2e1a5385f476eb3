"""Config-mode conformance: max_urls budget, frontier_cap, canonicalize_seen
— each must keep the pipeline equal to the oracle spec (CLAUDE.md invariant),
plus resume-after-mid-round-crash (partial round dir must not duplicate data).
"""

import glob
import json
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from grawler_ray.config import CrawlConfig
from grawler_ray.oracle import corpus_table_to_dict, run_oracle
from grawler_ray.sources.corpus import generate_corpus, generate_robots_cache, seed_urls

N_HOSTS, PAGES, SEED = 4, 10, 42
CORPUS = "/tmp/gr_modes_corpus"
ROBOTS = "/tmp/gr_modes_corpus/robots_cache.parquet"


@pytest.fixture(scope="module")
def corpus_fixture():
    if not os.path.isdir(f"{CORPUS}/bucket=0"):
        generate_corpus(CORPUS, n_hosts=N_HOSTS, pages_per_host=PAGES, seed=SEED, num_buckets=8)
        generate_robots_cache(ROBOTS, SEED, N_HOSTS, CrawlConfig().now_us)
    full = pa.concat_tables(
        [pq.read_table(f) for f in sorted(glob.glob(f"{CORPUS}/bucket=*/part.parquet"))]
    )
    rc = pq.read_table(ROBOTS)
    robots_cache = {
        h: (b, t)
        for h, b, t in zip(
            rc["host"].to_pylist(),
            rc["robots"].to_pylist(),
            rc["ts"].cast(pa.int64()).to_pylist(),
        )
    }
    return full, robots_cache


def _cfg(out_dir, **kw):
    base = dict(per_host_quota=3, max_rounds=8, num_fetch_buckets=8, seen_shards=4)
    base.update(kw)
    return CrawlConfig(out_dir=out_dir, **base)


def _run_both(ray_session, corpus_fixture, out_dir, seeds, **cfg_kw):
    from grawler_ray.pipelines.crawl import run_crawl

    full, robots_cache = corpus_fixture
    cfg = _cfg(out_dir, **cfg_kw)
    shutil.rmtree(out_dir, ignore_errors=True)
    stats = run_crawl(CORPUS, seeds, cfg, robots_cache_path=ROBOTS)
    oracle = run_oracle(corpus_table_to_dict(full), seeds, cfg, robots_cache)
    return stats, oracle


def _assert_conformance(out_dir, oracle):
    from grawler_ray.pipelines.crawl import read_documents, read_trace, read_words

    docs = read_documents(out_dir).to_pandas().sort_values("url").reset_index(drop=True)
    odocs = pd.DataFrame(oracle.documents).sort_values("url").reset_index(drop=True)
    assert len(docs) == len(odocs)
    if len(docs):
        for col in docs.columns:
            assert (docs[col].values == odocs[col].astype(docs[col].dtype).values).all(), col
    words = read_words(out_dir).to_pandas().sort_values(["parent_url", "word"]).reset_index(drop=True)
    owords = (
        pd.DataFrame(oracle.words, columns=["parent_url", "word", "frequency"])
        .sort_values(["parent_url", "word"])
        .reset_index(drop=True)
    )
    assert len(words) == len(owords)
    if len(words):
        assert words.equals(owords.astype(words.dtypes.to_dict()))
    trace = read_trace(out_dir).to_pandas().sort_values(["round", "seq"]).reset_index(drop=True)
    otrace = pd.DataFrame(oracle.trace).sort_values(["round", "seq"]).reset_index(drop=True)
    assert len(trace) == len(otrace), (len(trace), len(otrace))
    cols = ["round", "seq", "url", "parent_url", "action"]
    assert trace[cols].astype({"round": int, "seq": int}).equals(
        otrace[cols].astype({"round": int, "seq": int})
    )


def test_max_urls_budget(ray_session, corpus_fixture):
    out = "/tmp/gr_modes_maxurls"
    seeds = seed_urls(N_HOSTS, 3)
    stats, oracle = _run_both(ray_session, corpus_fixture, out, seeds, max_urls=7)
    assert stats["fetched"] == 7 == len(oracle.documents)
    _assert_conformance(out, oracle)
    from grawler_ray.pipelines.crawl import read_documents

    assert set(read_documents(out).to_pandas().url) == oracle.seen


def test_max_urls_budget_smaller_than_first_round(ray_session, corpus_fixture):
    out = "/tmp/gr_modes_maxurls2"
    seeds = seed_urls(N_HOSTS, 3)
    stats, oracle = _run_both(ray_session, corpus_fixture, out, seeds, max_urls=2)
    assert stats["fetched"] == 2 == len(oracle.documents)
    _assert_conformance(out, oracle)


def test_frontier_cap(ray_session, corpus_fixture):
    out = "/tmp/gr_modes_fcap"
    seeds = seed_urls(N_HOSTS, 3)
    stats, oracle = _run_both(ray_session, corpus_fixture, out, seeds, frontier_cap=5)
    _assert_conformance(out, oracle)


def test_canonicalize_seen(ray_session, corpus_fixture):
    out = "/tmp/gr_modes_canon"
    base = seed_urls(N_HOSTS, 2)
    # raw-distinct spellings of one canonical URL: fragment and host-case
    # variants must dup-drop after the first occurrence (oracle.py:110-114)
    variants = [base[0] + "#frag", base[0].replace("site0", "SITE0")]
    seeds = base + variants
    stats, oracle = _run_both(
        ray_session, corpus_fixture, out, seeds, canonicalize_seen=True
    )
    acts = {t["action"] for t in oracle.trace}
    assert "dup-drop" in acts
    _assert_conformance(out, oracle)


def test_resume_after_mid_round_crash(ray_session, corpus_fixture):
    """A crashed attempt leaves a partial (manifest-less) round dir with stale
    parquet; resume must not re-read it as duplicate rows (ADVICE r1 high)."""
    from grawler_ray.pipelines.crawl import read_documents, read_words, run_crawl

    seeds = seed_urls(N_HOSTS, 2)
    ref_out = "/tmp/gr_modes_crash_ref"
    shutil.rmtree(ref_out, ignore_errors=True)
    run_crawl(CORPUS, seeds, _cfg(ref_out, max_rounds=6), robots_cache_path=ROBOTS)
    ref_docs = read_documents(ref_out).to_pandas().sort_values("url").reset_index(drop=True)

    out = "/tmp/gr_modes_crash"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(CORPUS, seeds, _cfg(out, max_rounds=3), robots_cache_path=ROBOTS)
    # fake a mid-round-3 crash: partial parsed files, no manifest
    crash_dir = os.path.join(out, "round=0003", "parsed")
    os.makedirs(crash_dir)
    src = glob.glob(os.path.join(out, "round=0002", "parsed", "*.parquet"))[0]
    shutil.copy(src, os.path.join(crash_dir, "stale_partial.parquet"))

    run_crawl(CORPUS, seeds, _cfg(out, max_rounds=6), robots_cache_path=ROBOTS, resume=True)
    docs = read_documents(out).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(ref_docs, docs)
    # no duplicate urls anywhere
    assert docs.url.is_unique
    words = read_words(out).to_pandas()
    assert not words.duplicated(["parent_url", "word"]).any()


def test_distributed_child_offsets(ray_session, corpus_fixture, monkeypatch):
    """_OFFSETS_DRIVER_MAX=0 forces the distributed prefix-sum + repartition
    join for child-seq assignment; seq numbering is the invariant, so full
    trace equality against the oracle proves it exact."""
    from grawler_ray.pipelines import crawl

    monkeypatch.setattr(crawl, "_OFFSETS_DRIVER_MAX", 0)
    out = "/tmp/gr_modes_distoff"
    seeds = seed_urls(N_HOSTS, 3)
    stats, oracle = _run_both(ray_session, corpus_fixture, out, seeds)
    assert stats["fetched"] == len(oracle.documents) > 0
    _assert_conformance(out, oracle)


def test_hot_host_burst_admission(ray_session, corpus_fixture):
    """A duplicate seed plus a burst of one host's pages: the admission
    group's first-wins dedup and per-host quota must give the oracle's
    exact trace — the fixture exercises dup-drop, deferred AND quota
    churn."""
    out = "/tmp/gr_modes_skew"
    # duplicate seeds + a burst of one host's pages: dedup + hot-host quota
    seeds = seed_urls(N_HOSTS, 3)
    from grawler_ray.sources.corpus import page_url

    seeds = seeds + [seeds[0]] + [page_url(0, p) for p in range(8)]
    stats, oracle = _run_both(ray_session, corpus_fixture, out, seeds)
    acts = {t["action"] for t in oracle.trace}
    assert {"dup-drop", "deferred"} <= acts
    _assert_conformance(out, oracle)


def test_max_urls_manifest_cutoff_written(ray_session, corpus_fixture):
    out = "/tmp/gr_modes_maxurls"
    mans = sorted(glob.glob(os.path.join(out, "round=*", "manifest.json")))
    assert mans
    with open(mans[-1]) as f:
        last = json.load(f)
    assert last["seq_cutoff"] is not None


def test_crawl_report(ray_session, corpus_fixture):
    """crawl_report: read-side per-round metrics from manifests + trace."""
    from grawler_ray.pipelines.crawl import crawl_report

    out = "/tmp/gr_modes_maxurls"  # produced by test_max_urls_budget
    rep = crawl_report(out)
    assert rep["complete_rounds"] == rep["num_rounds"] > 0
    last = rep["rounds"][-1]
    assert last["seq_cutoff"] is not None
    assert last["partitions"] > 0 and last["parsed_rows"] > 0
    assert "fetch_parse_write" in last["phase_sec"]
    assert last["actions"]["fetched"] > 0  # trace-derived tallies
    assert rep["parsed_rows_total"] >= sum(
        r.get("admitted_rows", 0) for r in rep["rounds"]
    )


def test_blocked_paths_and_schemes_config(ray_session, corpus_fixture):
    """cfg.blocked_paths / allowed_schemes are honored identically by the
    pipeline and the oracle (they were hardwired reference literals)."""
    out = "/tmp/gr_modes_blockedpaths"
    seeds = seed_urls(N_HOSTS, 3)
    stats, oracle = _run_both(
        ray_session, corpus_fixture, out, seeds,
        blocked_paths=("/robots.txt", "/page/1"),
    )
    _assert_conformance(out, oracle)
    from grawler_ray.pipelines.crawl import read_trace

    trace = read_trace(out).to_pandas()
    blocked = trace[trace.url.str.endswith("/page/1")]
    # a blocked path is never fetched; it scheme-drops when it reaches the
    # urlAllowed check (and may dup-drop/defer on re-discovery before that)
    assert (blocked.action == "scheme-drop").any()
    assert not (blocked.action == "fetched").any()


def test_state_actor_routing(ray_session):
    """The three per-shard routers send each row to one state actor, once,
    in row order: the robots gate by xxhash64(host) % shards (the split
    run_crawl's initial robots cache uses), the seen test by the prepared
    ``shard`` column and the seen commit by key_hash % shards."""
    from types import SimpleNamespace

    import numpy as np
    import ray

    from grawler_ray.pipelines.crawl import (
        _commit_seen_batch, _robots_gate_batch, _seen_test_batch,
    )
    from grawler_ray.urlops import xxhash64

    nsh = 3
    calls = []

    def method(i, name):
        def remote(*args):
            calls.append((i, name, args))
            return ray.put([i == 0] * len(args[0]))

        return SimpleNamespace(remote=remote)

    actors = [
        SimpleNamespace(**{m: method(i, m) for m in ("gate_many", "test_batch", "commit_batch")})
        for i in range(nsh)
    ]
    hosts = [f"h{i % 7}.test" for i in range(40)]
    urls = [f"https://{h}/p{i}" for i, h in enumerate(hosts)]
    hashes = np.array([xxhash64(u) for u in urls], np.uint64)
    actions = ["robots-wait", "pending", "dup-drop", "robots-wait"] * 10
    t = pa.table({
        "url": urls, "host": hosts, "base_url": [f"https://{h}" for h in hosts],
        "seen_key": urls, "key_hash": pa.array(hashes, pa.uint64()),
        "shard": pa.array((hashes % np.uint64(nsh)).astype(np.int32)),
        "action": actions,
    })
    cfg = CrawlConfig(seen_shards=nsh)

    def routed(name, col):
        got = [(i, v) for i, n, args in calls if n == name for v in args[col]]
        calls.clear()
        return got

    out = _robots_gate_batch(actors, cfg)(t).column("action").to_pylist()
    wait = [i for i, a in enumerate(actions) if a == "robots-wait"]
    want = sorted(((xxhash64(hosts[i]) % nsh, urls[i]) for i in wait))
    assert sorted(routed("gate_many", 2)) == want
    assert [out[i] for i in wait] == [
        "admitted" if xxhash64(hosts[i]) % nsh == 0 else "robots-drop" for i in wait
    ]

    _seen_test_batch(actors, cfg)(t)
    pend = [i for i, a in enumerate(actions) if a == "pending"]
    assert sorted(routed("test_batch", 0)) == sorted(
        (int(hashes[i] % np.uint64(nsh)), urls[i]) for i in pend
    )

    _commit_seen_batch(actors, cfg)(t.select(["url", "key_hash"]))
    got = routed("commit_batch", 0)
    assert sorted(got) == sorted(
        (int(h % np.uint64(nsh)), u) for u, h in zip(urls, hashes)
    )
    # one call per shard, rows in row order within it
    assert [u for _i, u in sorted(got, key=lambda x: x[0])] == [
        u for sh in range(nsh) for u, h in zip(urls, hashes) if h % np.uint64(nsh) == sh
    ]


def test_distributed_children_many_blocks(ray_session):
    """_distributed_children vs the driver prefix-sum on a many-block input:
    identical (seq, url, parent) triples, consecutive child seqs in
    (parent_seq, child_idx) order."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from grawler_ray.pipelines.crawl import _distributed_children

    rng = np.random.default_rng(5)
    n = 5000
    seqs = rng.permutation(np.arange(10_000, 10_000 + n)).astype(np.int64)
    counts = rng.integers(0, 5, size=n)
    rows = [
        {
            "seq": int(s),
            "url": f"https://h{s % 7}.test/p{s}",
            "child_urls": [f"https://h{s % 7}.test/c{s}/{i}" for i in range(c)],
            "action": "fetched",
        }
        for s, c in zip(seqs, counts)
    ]
    kids = ray.data.from_items(rows).repartition(23).materialize()
    base_seq = 50_000
    ds, acc = _distributed_children(kids, base_seq, nparts=16)
    got = ds.to_pandas().sort_values("seq").reset_index(drop=True)
    assert acc == int(counts.sum()) == len(got)
    # reference: sort parents by seq, enumerate children consecutively
    order = np.argsort(seqs)
    expect = []
    nxt = base_seq
    for idx in order:
        for i in range(counts[idx]):
            expect.append((nxt, f"https://h{seqs[idx] % 7}.test/c{seqs[idx]}/{i}"))
            nxt += 1
    assert list(zip(got.seq, got.url)) == expect


def test_skew_plus_canonicalize(ray_session, corpus_fixture):
    """A skewed seed list (one host's burst, seeds that differ only by
    fragment or host case) with canonicalized seen keys — dedup keys on
    the canonical form, politeness groups on the canonical host; trace
    must still match the oracle exactly."""
    out = "/tmp/gr_modes_skewcanon"
    base = seed_urls(N_HOSTS, 3)
    from grawler_ray.sources.corpus import page_url

    seeds = base + [base[0] + "#f", base[1].replace("site1", "SITE1")] + [
        page_url(1, p) for p in range(6)
    ]
    stats, oracle = _run_both(
        ray_session, corpus_fixture, out, seeds, canonicalize_seen=True
    )
    assert "dup-drop" in {t["action"] for t in oracle.trace}
    _assert_conformance(out, oracle)


def test_fresh_run_clears_previous_rounds(ray_session, corpus_fixture):
    """A fresh (resume=False) run owns its out_dir: a previous longer
    crawl's higher-numbered complete rounds must not leak into readers."""
    from grawler_ray.pipelines.crawl import read_documents, read_trace, run_crawl

    out = "/tmp/gr_modes_fresh_rerun"
    seeds = seed_urls(N_HOSTS, 3)
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(CORPUS, seeds, _cfg(out, max_rounds=6), robots_cache_path=ROBOTS)
    long_docs = read_documents(out).count()

    stats, oracle = _run_both(ray_session, corpus_fixture, out, seeds, max_urls=3)
    assert stats["fetched"] == 3
    docs = read_documents(out).to_pandas()
    assert len(docs) == 3 < long_docs
    assert docs.url.is_unique
    _assert_conformance(out, oracle)
    assert read_trace(out).to_pandas()["round"].max() <= 1


def test_charset_sniffing_mode(ray_session, tmp_path):
    """charset_sniffing=True decodes a cp1251 page via its Content-Type
    charset param (real Cyrillic text extracted); the default parity path
    strips the non-UTF-8 bytes instead.  Hand-built one-page corpus with
    an allow-all robots cache."""
    from grawler_ray.pipelines.crawl import read_documents, run_crawl
    from grawler_ray.sources.corpus import PAGE_SCHEMA
    from grawler_ray.urlops import xxhash64

    url = "https://ru.test/page/0"
    body = ("<html><head><title>мир</title></head>"
            "<body>привет "
            "мир</body></html>").encode("cp1251")
    corpus = str(tmp_path / "corpus")
    b = xxhash64(url) % 2
    for k in range(2):  # both bucket dirs must exist for the point join
        os.makedirs(f"{corpus}/bucket={k}", exist_ok=True)
        rows = [
            {
                "url": url,
                "warc_ts": 1_722_470_400_000_000,
                "html": body,
                "text": "",
                "lang": "ru",
                "content_type": "text/html; charset=windows-1251",
                "status_code": 200,
            }
        ] if k == b else []
        pq.write_table(
            pa.Table.from_pylist(rows, schema=PAGE_SCHEMA),
            f"{corpus}/bucket={k}/part.parquet",
        )
    rc = str(tmp_path / "robots.parquet")
    pq.write_table(
        pa.table(
            {
                "host": ["ru.test"],
                "robots": ["User-agent: *\nAllow: /\n"],
                "ts": pa.array([CrawlConfig().now_us - 1], pa.timestamp("us")),
            }
        ),
        rc,
    )

    def crawl(flag):
        out = str(tmp_path / f"out_{flag}")
        cfg = CrawlConfig(out_dir=out, max_rounds=1, num_fetch_buckets=2,
                          seen_shards=2, charset_sniffing=flag)
        run_crawl(corpus, [url], cfg, robots_cache_path=rc)
        return read_documents(out).to_pandas().content.iloc[0]

    sniffed = crawl(True)
    parity = crawl(False)
    assert "привет мир" in sniffed
    assert "привет" not in parity  # bytes stripped


def test_strip_boilerplate_mode(ray_session, tmp_path):
    """strip_boilerplate=True stores CETR main text (nav chrome dropped,
    words counted over it) while link discovery still sees the full page
    — child links behind stripped nav lines are crawled either way.  The
    flagged run must equal the flagged oracle byte-for-byte (documents,
    words, trace)."""
    from grawler_ray.oracle import run_oracle
    from grawler_ray.pipelines.crawl import read_documents, read_trace, read_words, run_crawl
    from grawler_ray.sources.corpus import PAGE_SCHEMA
    from grawler_ray.urlops import xxhash64

    para = (
        "The quick brown fox jumps over the lazy dog while the river runs "
        "slowly past the old mill and the miller watches the water wheel turn."
    )
    nav = (
        '<div class="nav"><a href="/page/1">homelink</a>'
        '<a href="/page/2">aboutlink</a><a href="/page/3">morelink</a>'
        '<a href="/page/4">extralink</a></div>'
    )
    body = "\n".join(
        [
            "<html><body>",
            nav,
            "<h1>Title of the piece</h1>",
            f"<p>{para}</p>",
            f"<p>{para} {para}</p>",
            f"<p>{para}</p>",
            para,
            f"<p>{para} {para}</p>",
            "<hr>",
            nav,
            nav,
            nav,
            "</body></html>",
        ]
    ).encode()

    host = "bp.test"
    corpus_rows = {}
    for i in range(5):
        url = f"https://{host}/page/{i}"
        corpus_rows[url] = {
            "url": url,
            "warc_ts": 1_722_470_400_000_000,
            "html": body if i == 0 else f"<p>{para}</p>".encode(),
            "text": "",
            "lang": "en",
            "content_type": "text/html",
            "status_code": 200,
        }
    corpus = str(tmp_path / "corpus")
    nbuckets = 2
    for k in range(nbuckets):
        os.makedirs(f"{corpus}/bucket={k}", exist_ok=True)
        rows = [r for u, r in corpus_rows.items() if xxhash64(u) % nbuckets == k]
        pq.write_table(
            pa.Table.from_pylist(rows, schema=PAGE_SCHEMA),
            f"{corpus}/bucket={k}/part.parquet",
        )
    rc = str(tmp_path / "robots.parquet")
    pq.write_table(
        pa.table(
            {
                "host": [host],
                "robots": ["User-agent: *\nAllow: /\n"],
                "ts": pa.array([CrawlConfig().now_us - 1], pa.timestamp("us")),
            }
        ),
        rc,
    )
    robots_cache = {host: ("User-agent: *\nAllow: /\n", CrawlConfig().now_us - 1)}
    seeds = [f"https://{host}/page/0"]

    def crawl(flag):
        out = str(tmp_path / f"out_{flag}")
        cfg = CrawlConfig(
            out_dir=out, max_rounds=3, num_fetch_buckets=nbuckets,
            seen_shards=2, per_host_quota=5, strip_boilerplate=flag,
        )
        run_crawl(corpus, seeds, cfg, robots_cache_path=rc)
        return out, cfg

    out_on, cfg_on = crawl(True)
    out_off, _ = crawl(False)

    docs_on = read_documents(out_on).to_pandas().sort_values("url").reset_index(drop=True)
    docs_off = read_documents(out_off).to_pandas().sort_values("url").reset_index(drop=True)
    seed_on = docs_on[docs_on.url == seeds[0]].content.iloc[0]
    seed_off = docs_off[docs_off.url == seeds[0]].content.iloc[0]
    assert "homelink" not in seed_on and para in seed_on
    assert "homelink" in seed_off
    # link discovery unaffected: nav-only children crawled under the flag
    assert set(docs_on.url) == set(docs_off.url) == set(corpus_rows)
    # words follow the stripped text
    w_on = read_words(out_on).to_pandas()
    assert "homelink" not in set(w_on[w_on.parent_url == seeds[0]].word)

    # flagged run == flagged oracle, byte-for-byte
    oracle = run_oracle(corpus_rows, seeds, cfg_on, robots_cache)
    odocs = pd.DataFrame(oracle.documents).sort_values("url").reset_index(drop=True)
    for col in docs_on.columns:
        assert (docs_on[col].values == odocs[col].astype(docs_on[col].dtype).values).all(), col
    otrace = pd.DataFrame(oracle.trace).sort_values(["round", "seq"]).reset_index(drop=True)
    trace = read_trace(out_on).to_pandas().sort_values(["round", "seq"]).reset_index(drop=True)
    cols = ["round", "seq", "url", "parent_url", "action"]
    assert trace[cols].astype({"round": int, "seq": int}).equals(
        otrace[cols].astype({"round": int, "seq": int})
    )


def test_opic_mode(ray_session, corpus_fixture, monkeypatch):
    """frontier_order='opic': full conformance to the serial OPIC oracle
    (documents, words, FULL trace) on the standard corpus, both explode
    paths."""
    out = "/tmp/gr_modes_opic"
    seeds = seed_urls(N_HOSTS, 2)
    stats, oracle = _run_both(
        ray_session, corpus_fixture, out, seeds, frontier_order="opic"
    )
    _assert_conformance(out, oracle)
    assert stats["fetched"] > 0
    # distributed-offsets explode path must carry cash identically
    from grawler_ray.pipelines import crawl

    monkeypatch.setattr(crawl, "_OFFSETS_DRIVER_MAX", 0)
    out2 = "/tmp/gr_modes_opic_dist"
    stats2, oracle2 = _run_both(
        ray_session, corpus_fixture, out2, seeds, frontier_order="opic"
    )
    _assert_conformance(out2, oracle2)
    assert stats2["fetched"] == stats["fetched"]


def test_opic_cash_orders_frontier(ray_session, tmp_path):
    """Hand-built corpus where OPIC and FIFO must defer DIFFERENT URLs:
    seeds A (children y then x) and B (child x).  x's summed cash
    (a/2 + b) beats y's (a/2); with per_host_quota=1 on the child host,
    OPIC fetches x first and defers y — FIFO fetches y (lower seq)."""
    from grawler_ray.oracle import run_oracle
    from grawler_ray.pipelines.crawl import read_trace, run_crawl
    from grawler_ray.sources.corpus import PAGE_SCHEMA
    from grawler_ray.urlops import xxhash64

    def page(links):
        body = "".join(f'<a href="{u}">link</a>' for u in links)
        return f"<html><body>{body}</body></html>".encode()

    rows = {
        "https://seeda.test/page/0": page(
            ["https://kid.test/page/y", "https://kid.test/page/x"]
        ),
        "https://seedb.test/page/0": page(["https://kid.test/page/x"]),
        "https://kid.test/page/x": page([]),
        "https://kid.test/page/y": page([]),
    }
    corpus_rows = {
        u: {
            "url": u,
            "warc_ts": 1_722_470_400_000_000,
            "html": b,
            "text": "",
            "lang": "en",
            "content_type": "text/html",
            "status_code": 200,
        }
        for u, b in rows.items()
    }
    corpus = str(tmp_path / "corpus")
    nb = 2
    for k in range(nb):
        os.makedirs(f"{corpus}/bucket={k}", exist_ok=True)
        part = [r for u, r in corpus_rows.items() if xxhash64(u) % nb == k]
        pq.write_table(
            pa.Table.from_pylist(part, schema=PAGE_SCHEMA),
            f"{corpus}/bucket={k}/part.parquet",
        )
    rc = str(tmp_path / "robots.parquet")
    hosts = ["seeda.test", "seedb.test", "kid.test"]
    pq.write_table(
        pa.table(
            {
                "host": hosts,
                "robots": ["User-agent: *\nAllow: /\n"] * 3,
                "ts": pa.array([CrawlConfig().now_us - 1] * 3, pa.timestamp("us")),
            }
        ),
        rc,
    )
    robots_cache = {
        h: ("User-agent: *\nAllow: /\n", CrawlConfig().now_us - 1) for h in hosts
    }
    seeds = ["https://seeda.test/page/0", "https://seedb.test/page/0"]

    def deferred_in_round1(order):
        out = str(tmp_path / f"out_{order}")
        cfg = CrawlConfig(
            out_dir=out, max_rounds=2, num_fetch_buckets=nb, seen_shards=2,
            per_host_quota=1, frontier_order=order,
        )
        run_crawl(corpus, seeds, cfg, robots_cache_path=rc)
        tr = read_trace(out).to_pandas()
        # serial oracle agrees in full
        oracle = run_oracle(corpus_rows, seeds, cfg, robots_cache)
        otr = (
            pd.DataFrame(oracle.trace)
            .sort_values(["round", "seq"])
            .reset_index(drop=True)
        )
        got = tr.sort_values(["round", "seq"]).reset_index(drop=True)
        cols = ["round", "seq", "url", "parent_url", "action"]
        assert got[cols].astype({"round": int, "seq": int}).equals(
            otr[cols].astype({"round": int, "seq": int})
        )
        d = tr[(tr["round"] == 1) & (tr.action == "deferred")]
        return set(d.url)

    assert deferred_in_round1("opic") == {"https://kid.test/page/y"}
    assert deferred_in_round1("fifo") == {"https://kid.test/page/x"}


def test_opic_invalid_combos(ray_session):
    from grawler_ray.pipelines.crawl import run_crawl

    for kw in (
        dict(max_urls=5),
        dict(fetch_mode="http"),
    ):
        cfg = CrawlConfig(out_dir="/tmp/gr_opic_bad", frontier_order="opic", **kw)
        with pytest.raises(ValueError):
            run_crawl("/tmp/nonexistent", ["https://a.test/"], cfg)


def test_respect_nofollow_mode(ray_session, tmp_path):
    """respect_nofollow=True honors meta-robots noindex/nofollow and
    per-link rel=nofollow: noindex pages are fetched + followed but
    excluded from the documents/words sinks; nofollow pages and
    rel=nofollow links stop link discovery.  Default off = reference
    parity (everything followed and stored).  Flagged run == flagged
    oracle (docs byte-for-byte + full trace)."""
    from grawler_ray.oracle import run_oracle
    from grawler_ray.pipelines.crawl import (
        read_documents, read_trace, read_words, run_crawl,
    )
    from grawler_ray.sources.corpus import PAGE_SCHEMA
    from grawler_ray.urlops import xxhash64

    host = "nf.test"

    def u(i):
        return f"https://{host}/page/{i}"

    pages = {
        0: (
            f'seedtext <a href="/page/1">one</a> <a href="/page/2">two</a> '
            f'<a rel="nofollow" href="/page/3">three</a>'
        ),
        1: (
            '<meta name="robots" content="noindex">'
            'hiddentext <a href="/page/4">four</a>'
        ),
        2: (
            '<meta name="ROBOTS" content="NOFOLLOW, noarchive">'
            'stubtext <a href="/page/5">five</a>'
        ),
        3: "threetext",
        4: "fourtext",
        5: "fivetext",
    }
    corpus_rows = {
        u(i): {
            "url": u(i),
            "warc_ts": 1_722_470_400_000_000,
            "html": f"<html><head></head><body>{body}</body></html>".encode(),
            "text": "",
            "lang": "en",
            "content_type": "text/html",
            "status_code": 200,
        }
        for i, body in pages.items()
    }
    corpus = str(tmp_path / "corpus")
    nbuckets = 2
    for k in range(nbuckets):
        os.makedirs(f"{corpus}/bucket={k}", exist_ok=True)
        rows = [r for url, r in corpus_rows.items() if xxhash64(url) % nbuckets == k]
        pq.write_table(
            pa.Table.from_pylist(rows, schema=PAGE_SCHEMA),
            f"{corpus}/bucket={k}/part.parquet",
        )
    rc = str(tmp_path / "robots.parquet")
    pq.write_table(
        pa.table(
            {
                "host": [host],
                "robots": ["User-agent: *\nAllow: /\n"],
                "ts": pa.array([CrawlConfig().now_us - 1], pa.timestamp("us")),
            }
        ),
        rc,
    )
    robots_cache = {host: ("User-agent: *\nAllow: /\n", CrawlConfig().now_us - 1)}
    seeds = [u(0)]

    def crawl(flag):
        out = str(tmp_path / f"out_{flag}")
        cfg = CrawlConfig(
            out_dir=out, max_rounds=4, num_fetch_buckets=nbuckets,
            seen_shards=2, per_host_quota=6, respect_nofollow=flag,
        )
        run_crawl(corpus, seeds, cfg, robots_cache_path=rc)
        return out, cfg

    out_on, cfg_on = crawl(True)
    out_off, _ = crawl(False)

    # parity default: everything fetched and stored
    docs_off = read_documents(out_off).to_pandas()
    assert set(docs_off.url) == {u(i) for i in range(6)}

    # flag on: 3 (rel=nofollow) and 5 (page-level nofollow) never fetched;
    # 1 fetched + followed (4 present) but not indexed
    docs_on = read_documents(out_on).to_pandas()
    assert set(docs_on.url) == {u(0), u(2), u(4)}
    trace_on = read_trace(out_on).to_pandas()
    fetched = set(trace_on[trace_on.action == "fetched"].url)
    assert fetched == {u(0), u(1), u(2), u(4)}
    # words follow the doc sink: noindex page words absent
    w_on = read_words(out_on).to_pandas()
    assert "hiddentext" not in set(w_on.word)
    assert "stubtext" in set(w_on.word)

    # flagged run == flagged oracle byte-for-byte
    oracle = run_oracle(corpus_rows, seeds, cfg_on, robots_cache)
    odocs = pd.DataFrame(oracle.documents).sort_values("url").reset_index(drop=True)
    d_on = docs_on.sort_values("url").reset_index(drop=True)
    for col in d_on.columns:
        assert (d_on[col].values == odocs[col].astype(d_on[col].dtype).values).all(), col
    ow = pd.DataFrame(oracle.words)
    assert sorted(map(tuple, ow.values.tolist())) == sorted(
        map(tuple, w_on[["parent_url", "word", "frequency"]].values.tolist())
    )
    otrace = pd.DataFrame(oracle.trace).sort_values(["round", "seq"]).reset_index(drop=True)
    trace = trace_on.sort_values(["round", "seq"]).reset_index(drop=True)
    cols = ["round", "seq", "url", "parent_url", "action"]
    assert trace[cols].astype({"round": int, "seq": int}).equals(
        otrace[cols].astype({"round": int, "seq": int})
    )
