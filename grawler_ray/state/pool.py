"""The crawl's one stateful actor pool: each actor holds one seen-set shard
(T1, routed by ``xxhash64(key) % shards``) and the robots cache of the hosts
routed to it (T3, ``xxhash64(host) % shards``).

One pool, not a seen pool plus a robots pool: every actor process costs about
2 s to start on a 4-CPU host, and run_crawl waits for all of them before
round 0.  This module and its imports stay free of ``ray.data``, pandas and
``pyarrow.dataset`` (which imports pandas): every actor process imports it
at start-up.
"""

from __future__ import annotations

from .robots_store import RobotsShard
from .seen import SeenShard


class StateShard:
    def __init__(self, seen_mode: str, seen_capacity: int, **robots_kwargs):
        self.seen = SeenShard(mode=seen_mode, capacity=seen_capacity)
        self.robots = RobotsShard(**robots_kwargs)

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
