"""Checkpoint/resume: kill after round R, resume from manifests, final
tables equal the uninterrupted run (SURVEY §5.4; north rule resumability)."""

import shutil

import pandas as pd
import pytest

from grawler_ray.config import CrawlConfig
from grawler_ray.sources.corpus import generate_corpus, generate_robots_cache, seed_urls

CORPUS = "/tmp/gr_resume_corpus"
ROBOTS = "/tmp/gr_resume_corpus/robots_cache.parquet"
OUT_FULL = "/tmp/gr_resume_full"
OUT_RES = "/tmp/gr_resume_resumed"


@pytest.fixture(scope="module")
def setup(ray_session):
    import os

    if not os.path.isdir(f"{CORPUS}/bucket=0"):
        generate_corpus(CORPUS, n_hosts=4, pages_per_host=8, seed=11, num_buckets=8)
        generate_robots_cache(ROBOTS, 11, 4, CrawlConfig().now_us)
    return CORPUS


def _cfg(out_dir, max_rounds):
    return CrawlConfig(
        per_host_quota=3, max_rounds=max_rounds, num_fetch_buckets=8,
        seen_shards=4, out_dir=out_dir,
    )


def test_resume_equals_uninterrupted(setup):
    from grawler_ray.pipelines.crawl import read_documents, read_words, run_crawl

    seeds = seed_urls(4, 2)
    # uninterrupted reference run
    shutil.rmtree(OUT_FULL, ignore_errors=True)
    run_crawl(CORPUS, seeds, _cfg(OUT_FULL, 7), robots_cache_path=ROBOTS)
    full_docs = read_documents(OUT_FULL).to_pandas().sort_values("url").reset_index(drop=True)
    full_words = (
        read_words(OUT_FULL).to_pandas().sort_values(["parent_url", "word"]).reset_index(drop=True)
    )

    # interrupted: stop after 3 rounds, then resume to completion
    shutil.rmtree(OUT_RES, ignore_errors=True)
    s1 = run_crawl(CORPUS, seeds, _cfg(OUT_RES, 3), robots_cache_path=ROBOTS)
    assert s1["rounds"] == 3
    s2 = run_crawl(CORPUS, seeds, _cfg(OUT_RES, 7), robots_cache_path=ROBOTS, resume=True)
    assert s2.get("resumed_from_round") == 2
    assert s2["rounds"] >= 3
    assert s2["seen_restore"] == "snapshot"  # fast path, O(seen set)

    res_docs = read_documents(OUT_RES).to_pandas().sort_values("url").reset_index(drop=True)
    res_words = (
        read_words(OUT_RES).to_pandas().sort_values(["parent_url", "word"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(full_docs, res_docs)
    pd.testing.assert_frame_equal(full_words, res_words)


def test_resume_noop_when_finished(setup):
    from grawler_ray.pipelines.crawl import run_crawl

    seeds = seed_urls(4, 2)
    s3 = run_crawl(CORPUS, seeds, _cfg(OUT_RES, 7), robots_cache_path=ROBOTS, resume=True)
    # crawl already drained: resume finds empty frontier and adds no rounds
    assert s3["fetched"] >= 0


def test_resume_rebuild_fallback_equals_snapshot(setup):
    """Snapshot-restore and history-rebuild resume paths produce identical
    outputs (both modes must keep existing; rebuild also covers pre-snapshot
    out_dirs and shard-count changes)."""
    import glob
    import os

    from grawler_ray.pipelines.crawl import read_documents, read_words, run_crawl

    seeds = seed_urls(4, 2)
    out = "/tmp/gr_resume_rebuild"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(CORPUS, seeds, _cfg(out, 3), robots_cache_path=ROBOTS)
    # delete every snapshot -> resume must fall back to the rebuild path
    for d in glob.glob(os.path.join(out, "round=*", "seen")):
        shutil.rmtree(d)
    s2 = run_crawl(CORPUS, seeds, _cfg(out, 7), robots_cache_path=ROBOTS, resume=True)
    assert s2["seen_restore"] == "rebuild"

    docs = read_documents(out).to_pandas().sort_values("url").reset_index(drop=True)
    full_docs = read_documents(OUT_FULL).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(docs, full_docs)
    words = read_words(out).to_pandas().sort_values(["parent_url", "word"]).reset_index(drop=True)
    full_words = (
        read_words(OUT_FULL).to_pandas().sort_values(["parent_url", "word"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(words, full_words)


def test_resume_shard_mismatch_falls_back(setup):
    """A snapshot written with a different shard count must NOT be restored
    (hash % num_shards routing); resume rebuilds instead, and the result
    still matches the uninterrupted run."""
    from grawler_ray.pipelines.crawl import read_documents, run_crawl

    seeds = seed_urls(4, 2)
    out = "/tmp/gr_resume_shards"
    shutil.rmtree(out, ignore_errors=True)
    run_crawl(CORPUS, seeds, _cfg(out, 3), robots_cache_path=ROBOTS)
    cfg2 = _cfg(out, 7)
    cfg2.seen_shards = 2  # was 4
    s2 = run_crawl(CORPUS, seeds, cfg2, robots_cache_path=ROBOTS, resume=True)
    assert s2["seen_restore"] == "rebuild"
    docs = read_documents(out).to_pandas().sort_values("url").reset_index(drop=True)
    full_docs = read_documents(OUT_FULL).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(docs, full_docs)


def test_resume_snapshot_cuckoo(setup):
    """Snapshot restore in cuckoo mode: filter state round-trips through the
    per-shard parquet and the resumed crawl equals the uninterrupted cuckoo
    run."""
    from grawler_ray.pipelines.crawl import read_documents, run_crawl

    seeds = seed_urls(4, 2)
    out_full = "/tmp/gr_resume_ck_full"
    out_res = "/tmp/gr_resume_ck_res"
    for out in (out_full, out_res):
        shutil.rmtree(out, ignore_errors=True)
    cfg_full = _cfg(out_full, 7)
    cfg_full.seen_mode = "cuckoo"
    run_crawl(CORPUS, seeds, cfg_full, robots_cache_path=ROBOTS)
    cfg_a = _cfg(out_res, 3)
    cfg_a.seen_mode = "cuckoo"
    run_crawl(CORPUS, seeds, cfg_a, robots_cache_path=ROBOTS)
    cfg_b = _cfg(out_res, 7)
    cfg_b.seen_mode = "cuckoo"
    s2 = run_crawl(CORPUS, seeds, cfg_b, robots_cache_path=ROBOTS, resume=True)
    assert s2["seen_restore"] == "snapshot"
    a = read_documents(out_res).to_pandas().sort_values("url").reset_index(drop=True)
    b = read_documents(out_full).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_resume_rejects_toggled_respect_nofollow(setup, tmp_path):
    """respect_nofollow changes the parsed schema (noindex column); a
    resume with the flag toggled must be rejected, not silently mix
    per-round schemas in one out_dir."""
    import dataclasses

    from grawler_ray.pipelines.crawl import run_crawl

    out = str(tmp_path / "nf")
    seeds = seed_urls(4, 2)
    run_crawl(CORPUS, seeds, _cfg(out, 2), robots_cache_path=ROBOTS)
    cfg_nf = dataclasses.replace(_cfg(out, 4), respect_nofollow=True)
    with pytest.raises(ValueError, match="respect_nofollow"):
        run_crawl(CORPUS, seeds, cfg_nf, robots_cache_path=ROBOTS, resume=True)
    # same flag resumes fine
    s = run_crawl(CORPUS, seeds, _cfg(out, 4), robots_cache_path=ROBOTS, resume=True)
    assert s.get("resumed_from_round") == 1


def test_final_round_checkpoints_deferred_not_frontier(setup):
    """Rounds checkpoint their deferred rows + first child seq; the last
    round of a call builds no next frontier.  Resume rebuilds that frontier
    from the checkpoints and equals the uninterrupted run, trace included
    (children seqs are numbered identically).  An out_dir from before this
    layout (a frontier_next file, no first_child_seq) is refused with a
    ValueError before any round is written."""
    import json
    import os

    from grawler_ray.pipelines.crawl import read_documents, read_trace, run_crawl

    seeds = seed_urls(4, 2)
    out = "/tmp/gr_resume_deferred"
    legacy = "/tmp/gr_resume_legacy"
    for d in (out, legacy):
        shutil.rmtree(d, ignore_errors=True)
    s1 = run_crawl(CORPUS, seeds, _cfg(out, 3), robots_cache_path=ROBOTS)
    assert s1["rounds"] == 3 and s1["setup_sec"] > 0

    def man(d, r):
        with open(os.path.join(d, f"round={r:04d}", "manifest.json")) as f:
            return json.load(f)

    mans = [man(out, r) for r in range(3)]
    assert not any(
        os.path.exists(os.path.join(out, f"round={r:04d}", "frontier_next")) for r in range(3)
    )
    assert mans[-1]["children_rows"] is None and mans[-1]["next_frontier_rows"] is None
    assert all(isinstance(m["children_rows"], int) for m in mans[:-1])
    assert sum(m["deferred_rows"] for m in mans) > 0  # per_host_quota=3 defers
    for r, m in enumerate(mans):
        ddir = os.path.join(out, f"round={r:04d}", "deferred")
        assert os.path.isdir(ddir) == (m["deferred_rows"] > 0)
    # mans[r+1] numbers its children right after round r's
    for a, b in zip(mans, mans[1:]):
        assert b["first_child_seq"] == a["first_child_seq"] + a["children_rows"]

    # old layout: the frontier the uninterrupted run's round 3 read (its
    # trace rows), as a frontier_next file in a manifest without
    # first_child_seq
    shutil.copytree(out, legacy)
    trace3 = read_trace(OUT_FULL).to_pandas().query("round == 3")
    assert len(trace3)
    full2 = man(OUT_FULL, 2)
    old = {k: v for k, v in mans[-1].items() if k not in (
        "first_child_seq", "deferred_rows", "children_rows")}
    old.update(next_frontier_rows=len(trace3), next_seq=full2["next_seq"])
    with open(os.path.join(legacy, "round=0002", "manifest.json"), "w") as f:
        json.dump(old, f)
    import pyarrow as pa
    import pyarrow.parquet as pq

    fdir = os.path.join(legacy, "round=0002", "frontier_next")
    os.makedirs(fdir)
    pq.write_table(
        pa.Table.from_pandas(trace3[["seq", "url", "parent_url"]], preserve_index=False),
        os.path.join(fdir, "part.parquet"),
    )

    full_docs = read_documents(OUT_FULL).to_pandas().sort_values("url").reset_index(drop=True)
    full_trace = (
        read_trace(OUT_FULL).to_pandas().sort_values(["round", "seq"]).reset_index(drop=True)
    )
    s2 = run_crawl(CORPUS, seeds, _cfg(out, 7), robots_cache_path=ROBOTS, resume=True)
    assert s2.get("resumed_from_round") == 2
    docs = read_documents(out).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(full_docs, docs)
    trace = read_trace(out).to_pandas().sort_values(["round", "seq"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(full_trace, trace)

    before = sorted(os.listdir(legacy))
    with pytest.raises(ValueError, match="first_child_seq"):
        run_crawl(CORPUS, seeds, _cfg(legacy, 7), robots_cache_path=ROBOTS, resume=True)
    assert sorted(os.listdir(legacy)) == before
    assert not os.path.exists(os.path.join(legacy, "round=0003"))
