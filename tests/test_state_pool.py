"""The crawl's state-actor pool outlives run_crawl: a later call in the same
Ray session with the same shard count resets the idle pool in place instead
of starting new actor processes.  Reuse must not change any output, and a
pool that a call could not finish with (an actor died while idle, the call
raised, the pool belongs to another session) is never reused."""

import os
import shutil
import sys
import threading
import time
from types import SimpleNamespace

import pandas as pd
import pyarrow.parquet as pq
import pytest

from grawler_ray.config import CrawlConfig
from grawler_ray.sources.corpus import generate_corpus, generate_robots_cache, seed_urls
from grawler_ray.state import pool

CORPUS = "/tmp/gr_pool_corpus"
ROBOTS = f"{CORPUS}/robots_cache.parquet"
SHARDS = 4


@pytest.fixture(scope="module")
def corpus(ray_session):
    shutil.rmtree(CORPUS, ignore_errors=True)
    generate_corpus(CORPUS, n_hosts=3, pages_per_host=8, seed=7, num_buckets=8)
    generate_robots_cache(ROBOTS, 7, 3, CrawlConfig().now_us)
    yield CORPUS
    _drop_idle_pool()


def _drop_idle_pool() -> None:
    """Kill the idle pool, so the next crawl starts a fresh one."""
    import ray

    if pool._idle is not None and pool._idle[0] == pool._session():
        for a in pool._idle[1]:
            ray.kill(a)
    pool._idle = None


def _crawl(out, mode: str = "exact", robots: bool = True):
    """One crawl; returns its stats and its outputs: the trace, the
    documents and the final robots snapshot.  The cuckoo crawls start
    without a robots cache, so robots entries left over from an exact
    crawl would change their snapshot."""
    from grawler_ray.pipelines.crawl import read_documents, read_trace, run_crawl

    out = str(out)
    cfg = CrawlConfig(
        per_host_quota=3, max_rounds=4, num_fetch_buckets=8, seen_shards=SHARDS,
        seen_mode=mode, out_dir=out,
    )
    stats = run_crawl(CORPUS, seed_urls(3, 2), cfg, robots_cache_path=ROBOTS if robots else None)
    trace = read_trace(out).to_pandas().sort_values(["round", "seq"]).reset_index(drop=True)
    docs = read_documents(out).to_pandas().sort_values("url").reset_index(drop=True)
    robots_path = os.path.join(out, "robots_final.parquet")
    snap = pq.read_table(robots_path).to_pydict() if os.path.exists(robots_path) else None
    return stats, (trace, docs, snap)


def _assert_same(got, want):
    pd.testing.assert_frame_equal(got[0], want[0])
    pd.testing.assert_frame_equal(got[1], want[1])
    assert got[2] == want[2]


def _idle_pool(tmp_path) -> list:
    """The idle pool's actors (a crawl leaves one when none is idle)."""
    if pool._idle is None or len(pool._idle[1]) != SHARDS:
        _crawl(tmp_path / "warm")
    return pool._idle[1]


def _idle_ids() -> list[str]:
    return [a._actor_id.hex() for a in pool._idle[1]]


def _wait_dead(actor) -> None:
    import ray

    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            ray.get(actor.ready.remote(), timeout=5)
        except ray.exceptions.RayActorError:
            return
        time.sleep(0.05)
    raise AssertionError("actor still alive")


@pytest.fixture(scope="module")
def fresh(corpus, tmp_path_factory):
    """Each configuration's outputs on a freshly started pool."""
    out = {}
    for mode, robots in (("exact", True), ("cuckoo", False)):
        _drop_idle_pool()
        stats, got = _crawl(tmp_path_factory.mktemp(f"fresh_{mode}"), mode, robots)
        assert stats["state_pool"] == "started"
        assert len(got[0]) and len(got[1])
        out[mode] = got
    return out


def test_second_call_resets_the_idle_pool(fresh, tmp_path):
    _idle_pool(tmp_path)
    ids = _idle_ids()
    stats, got = _crawl(tmp_path / "second")
    assert stats["state_pool"] == "reused"
    assert stats["setup_sec"] > 0
    assert _idle_ids() == ids
    _assert_same(got, fresh["exact"])


def test_reuse_across_seen_modes_matches_fresh_pools(fresh, tmp_path):
    _idle_pool(tmp_path)
    for i, (mode, robots) in enumerate((("exact", True), ("cuckoo", False), ("exact", True))):
        stats, got = _crawl(tmp_path / f"{i}_{mode}", mode, robots)
        assert stats["state_pool"] == "reused", (i, mode)
        _assert_same(got, fresh[mode])


def test_dead_idle_actor_starts_a_fresh_pool(fresh, tmp_path):
    import ray

    victim = _idle_pool(tmp_path)[1]
    ray.kill(victim)
    _wait_dead(victim)
    stats, got = _crawl(tmp_path / "after")
    assert stats["state_pool"] == "started"
    assert victim._actor_id.hex() not in _idle_ids()
    _assert_same(got, fresh["exact"])


def test_raising_call_kills_its_pool(fresh, tmp_path, monkeypatch):
    from grawler_ray.pipelines import crawl

    actors = _idle_pool(tmp_path)

    def boom(*a, **k):
        raise RuntimeError("mid-round failure")

    monkeypatch.setattr(crawl, "_next_frontier", boom)
    with pytest.raises(RuntimeError, match="mid-round failure"):
        _crawl(tmp_path / "raises")
    monkeypatch.undo()
    assert pool._idle is None
    for a in actors:
        _wait_dead(a)
    stats, got = _crawl(tmp_path / "after")
    assert stats["state_pool"] == "started"
    _assert_same(got, fresh["exact"])


def test_pool_of_an_earlier_session_is_not_reused(fresh, tmp_path):
    actors = _idle_pool(tmp_path)
    ids = _idle_ids()
    pool._idle = (("an-earlier-node", "an-earlier-job"), actors)
    stats, got = _crawl(tmp_path / "after")
    assert stats["state_pool"] == "started"
    assert not set(_idle_ids()) & set(ids)
    _assert_same(got, fresh["exact"])


def test_one_idle_pool_in_all(corpus):
    import ray

    kw = dict(
        seen_mode="exact", seen_capacity=100, corpus_dir=CORPUS, num_buckets=8,
        user_agent="ua", now_us=0, ttl_days=1,
    )
    _drop_idle_pool()
    first, refs1, reused1 = pool.open_pool([kw, kw])
    second, refs2, reused2 = pool.open_pool([kw, kw])
    ray.get(refs1 + refs2)
    assert not reused1 and not reused2
    # a concurrent call of the same shard count finds the pool put back
    pool.close_pool(first, ok=True)
    pool.close_pool(second, ok=True)
    assert pool._idle[1] is first
    for a in second:
        _wait_dead(a)
    # a pool of another shard count leaves it be, then takes its place
    third, refs3, reused3 = pool.open_pool([kw])
    assert not reused3 and pool._idle[1] is first
    ray.get(refs3)
    pool.close_pool(third, ok=True)
    assert pool._idle[1] is third
    for a in first:
        _wait_dead(a)
    again, refs, reused = pool.open_pool([kw])
    assert reused and again is third and ray.get(refs) == [True]
    assert pool._idle is None
    pool.close_pool(again, ok=False)
    for a in again:
        _wait_dead(a)


def test_idle_slot_under_threads(monkeypatch):
    """open_pool / close_pool from many threads at once, on fake actor
    handles: no pool is handed to two calls at once, and every actor ends
    up either killed exactly once or in the idle slot."""
    lock = threading.Lock()
    made, killed, busy = [], [], set()

    def start(**kw):
        call = SimpleNamespace(remote=lambda *a, **k: True)
        actor = SimpleNamespace(reset=call, ready=call, clear=call)
        with lock:
            made.append(actor)
        return actor

    def kill(actor):
        with lock:
            killed.append(id(actor))

    ctx = SimpleNamespace(get_node_id=lambda: "node", get_job_id=lambda: "job")
    monkeypatch.setattr(pool, "ray", SimpleNamespace(
        remote=lambda **opts: lambda cls: SimpleNamespace(remote=start),
        kill=kill,
        get_runtime_context=lambda: ctx,
    ))
    monkeypatch.setattr(pool, "_idle", None)
    errors = []

    def calls(t: int) -> None:
        try:
            for i in range(300):
                actors, _, _ = pool.open_pool([{}] * (1 + (i + t) % 2))
                ids = {id(a) for a in actors}
                with lock:
                    assert not ids & busy, "a pool handed to two calls"
                    busy.update(ids)
                with lock:
                    busy.difference_update(ids)
                pool.close_pool(actors, ok=i % 7 != 0)
        except AssertionError as e:
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=calls, args=(t,)) for t in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert len(killed) == len(set(killed))
    idle = {id(a) for a in pool._idle[1]}
    assert not idle & set(killed)
    assert set(killed) | idle == {id(a) for a in made}
