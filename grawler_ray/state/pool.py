"""The crawl's one stateful actor pool: each actor holds one seen-set shard
(T1, routed by ``xxhash64(key) % shards``) and the robots cache of the hosts
routed to it (T3, ``xxhash64(host) % shards``).

One pool, not a seen pool plus a robots pool, and one pool per Ray session,
not one per crawl: four actor processes take 0.64-0.97 s to start on a
4-CPU host, a reset round-trip on live ones 1.4-2.6 ms.  ``open_pool``
resets the idle pool in place when its shard count matches (or starts one);
``close_pool`` clears a pool after a call that returned and keeps it idle,
and kills it after one that raised.  This module and its imports stay free
of ``ray.data``, pandas and ``pyarrow.dataset`` (which imports pandas):
every actor process imports it at start-up.
"""

from __future__ import annotations

import threading

import ray

from .robots_store import RobotsShard
from .seen import SeenShard


class StateShard:
    def __init__(self, seen_mode: str, seen_capacity: int, **robots_kwargs):
        self.seen = SeenShard(mode=seen_mode, capacity=seen_capacity)
        self.robots = RobotsShard(**robots_kwargs)

    def reset(self, seen_mode: str, seen_capacity: int, **robots_kwargs) -> bool:
        """Start over as a new actor constructed with these arguments."""
        self.__init__(seen_mode, seen_capacity, **robots_kwargs)
        return True

    def clear(self) -> None:
        """Drop the seen set and the robots cache (an idle pool's actor
        holds no crawl state); the next call must be ``reset``."""
        self.seen = self.robots = None

    def ready(self) -> bool:
        return True

    def test_batch(self, keys: list[str], hashes: list[int]) -> list[bool]:
        return self.seen.test_batch(keys, hashes)

    def commit_batch(self, keys: list[str], hashes: list[int]) -> int:
        return self.seen.commit_batch(keys, hashes)

    def save(self, path: str) -> int:
        return self.seen.save(path)

    def load(self, path: str) -> int:
        return self.seen.load(path)

    def gate_many(self, hosts: list[str], base_urls: list[str], urls: list[str]) -> list[bool]:
        return self.robots.gate_many(hosts, base_urls, urls)

    def prefetch_robots(self, hosts: list[str], base_urls: list[str]) -> None:
        self.robots.prefetch(hosts, base_urls)

    def robots_snapshot(self) -> list[tuple[str, str, int]]:
        return self.robots.snapshot()


# (Ray session, actors) of the pool no call is using: one in all, since
# every idle actor process holds ~120 MB of RSS
_idle: tuple[tuple[str, str], list] | None = None
_lock = threading.Lock()


def _session() -> tuple[str, str]:
    """This driver's Ray session: an actor outlives neither its node nor
    its job."""
    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


def open_pool(shard_kwargs: list[dict], reuse: bool = True) -> tuple[list, list, bool]:
    """One ``StateShard`` actor per entry of ``shard_kwargs`` (its
    constructor's keyword arguments), and the refs to wait on before the
    actors' first calls.  With ``reuse``, an idle pool of this shard count
    in this Ray session is taken and each actor is ``reset`` with its
    arguments; otherwise, or when there is none, a fresh pool starts.  A
    cached actor that died while idle fails its ``reset`` with
    ``RayActorError``: close that pool and open again with
    ``reuse=False``.  Returns ``(actors, refs, reused)``."""
    global _idle
    idle = None
    with _lock:
        if reuse and _idle is not None and len(_idle[1]) == len(shard_kwargs):
            idle, _idle = _idle, None
    if idle is not None and idle[0] == _session():
        actors = idle[1]
        refs = [a.reset.remote(**kw) for a, kw in zip(actors, shard_kwargs)]
        return actors, refs, True
    actor = ray.remote(num_cpus=0)(StateShard)
    actors = [actor.remote(**kw) for kw in shard_kwargs]
    return actors, [a.ready.remote() for a in actors], False


def close_pool(actors: list, ok: bool) -> None:
    """After a call: ``ok``, clear each actor (fire-and-forget) and keep
    the pool as the idle pool, killing an idle pool of another shard count,
    or kill it when a concurrent call already put one of its count back;
    not ``ok``, kill it."""
    global _idle
    if ok:
        for a in actors:
            a.clear.remote()
        session = _session()
        with _lock:
            held = _idle
            if held is None or held[0] != session or len(held[1]) != len(actors):
                # ours becomes the idle pool; kill the one it displaces
                # (a pool of an earlier session died with that session)
                _idle = (session, actors)
                actors = held[1] if held is not None and held[0] == session else []
    for a in actors:
        ray.kill(a)
