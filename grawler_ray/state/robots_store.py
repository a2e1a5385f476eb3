"""Sharded robots.txt cache + gate — the robots half of a crawl-state actor
(``state.pool.StateShard``; SURVEY §2.3 T3).

The reference stores robots rows only in the DB and does a network round trip
per URL (src/crawler.go:222-254, src/db/db.go:81-109).  Here each shard owns
the cache for ``xxhash64(host) % num_shards`` hosts: parsed rule objects in
memory, and "fetches" of missing/stale robots.txt served from the bucketed
corpus.  One ``gate_many`` call collects the distinct hosts it must fetch and
reads each corpus bucket they touch ONCE (url + status columns first, the
body column only of the row groups that hold a match) — not one scan per
host.  ``prefetch`` reads ahead the robots.txt of hosts a gate will likely
ask for (a crawl's seed hosts) the same way, without touching the cache.
Reads go through ``pyarrow.parquet`` only: ``pyarrow.dataset`` pulls in
pandas, and this module is imported by every state actor at start-up.
The reference's semantics:

- TTL: entry stale when ``ts < now - ROBOTS_TTL_DAYS`` (crawler.go:230;
  1 month + 15 days).
- fetch error => DENY the URL (crawler.go:142-150 returns err => skip), and
  status > 399 counts as a fetch error (utils.go:40-42) — including 404,
  unlike allow-on-404 crawlers.
- freshly fetched bodies are upserted with ts=now (crawler.go:244); the
  written-back robots table is this cache's snapshot.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq

from ..robots import RobotsRules
from ..urlops import xxhash64_batch

_MISS = object()  # host never cached


class RobotsShard:
    def __init__(
        self,
        corpus_dir: str,
        num_buckets: int,
        user_agent: str,
        now_us: int,
        ttl_days: int,
        initial: dict[str, tuple[str, int]] | None = None,
        fetch_mode: str = "corpus",
        http_timeout_s: float = 10.0,
    ):
        self.corpus_dir = corpus_dir
        self.num_buckets = num_buckets
        self.user_agent = user_agent
        self.now_us = now_us
        self.fetch_mode = fetch_mode
        self.http_timeout_s = http_timeout_s
        self.ttl_us = ttl_days * 86_400_000_000
        # host -> (body, ts_us) | None = known-missing (negative cache)
        self.cache: dict[str, tuple[str, int] | None] = dict(initial or {})
        self.rules: dict[str, RobotsRules] = {}
        # hosts whose (re)fetch failed this run: deny, but KEEP any stale
        # cached body for the snapshot (the reference only upserts robots rows
        # on fetch success, src/db/db.go:95-100 — a failed refetch leaves the
        # old DB row in place; the oracle mirrors that in robots_allowed).
        # now_us is fixed for the run, so a retry would fail identically.
        self.denied: set[str] = set()
        # robots url -> body | None (fetch error) read ahead by prefetch();
        # consumed when its host is gated.  The corpus and now_us are fixed
        # for the run, so a read-ahead answer equals a read at gate time.
        self.read_ahead: dict[str, str | None] = {}

    def _needs_fetch(self, host: str) -> bool:
        """Uncached or stale (a negative-cache entry is always denied)."""
        if host in self.denied:
            return False
        entry = self.cache.get(host, _MISS)
        return entry is _MISS or entry[1] < self.now_us - self.ttl_us

    def _read_corpus(self, urls: list[str]) -> dict[str, str]:
        """robots url -> body for each url the corpus serves with status <=
        399 (status > 399 is a fetch error, utils.go:40-42), one read per
        bucket; a missing bucket dir serves nothing.  The first row of a url
        in (file, row) order decides."""
        buckets = xxhash64_batch(urls) % np.uint64(self.num_buckets)
        by_bucket: dict[int, set[str]] = {}
        for u, b in zip(urls, buckets.tolist()):
            by_bucket.setdefault(b, set()).add(u)
        found: dict[str, str] = {}
        for b, want in by_bucket.items():
            path = os.path.join(self.corpus_dir, f"bucket={b}")
            if not os.path.isdir(path):
                continue
            for name in sorted(os.listdir(path)):  # the files a dataset scan reads
                if name[0] in "._" or not os.path.isfile(os.path.join(path, name)):
                    continue
                f = pq.ParquetFile(os.path.join(path, name))
                for rg in range(f.num_row_groups):
                    t = f.read_row_group(rg, columns=["url", "status_code"])
                    hits = [
                        (i, u)
                        for i, u in enumerate(t.column("url").to_pylist())
                        if u in want
                    ]
                    if not hits:
                        continue
                    status = t.column("status_code").to_pylist()
                    html = f.read_row_group(rg, columns=["html"]).column("html")
                    for i, u in hits:
                        want.discard(u)
                        if status[i] <= 399:
                            found[u] = html[i].as_py().decode("utf-8", errors="replace")
        return found

    def prefetch(self, hosts: list[str], base_urls: list[str]) -> None:
        """Read ahead {base}/robots.txt of the uncached or stale hosts
        (corpus mode).  The cache, deny set and snapshot change only when a
        host is gated, exactly as without the read-ahead."""
        if self.fetch_mode != "corpus":
            return
        urls = list(dict.fromkeys(
            f"{b}/robots.txt" for h, b in zip(hosts, base_urls) if self._needs_fetch(h)
        ))
        found = self._read_corpus([u for u in urls if u not in self.read_ahead])
        for u in urls:
            self.read_ahead.setdefault(u, found.get(u))

    def _refresh(self, hosts: list[str], base_urls: list[str]) -> None:
        """Fetch {base}/robots.txt for every distinct host of the call that
        is uncached or stale (a host's first row picks its base url), then
        upsert successes with ts=now and deny failures."""
        need: dict[str, str] = {}
        for h, b in zip(hosts, base_urls):
            if h not in need and self._needs_fetch(h):
                need[h] = b
        if not need:
            return
        if self.fetch_mode == "http":  # live GET per host (S3 live mode)
            from ..sources.httpfetch import fetch_robots_http

            bodies = {
                h: fetch_robots_http(b, self.user_agent, self.http_timeout_s)
                for h, b in need.items()
            }
        else:
            urls = {h: f"{b}/robots.txt" for h, b in need.items()}
            found = self._read_corpus([u for u in urls.values() if u not in self.read_ahead])
            bodies = {
                h: self.read_ahead.pop(u) if u in self.read_ahead else found.get(u)
                for h, u in urls.items()
            }
        for h, body in bodies.items():
            if body is None:  # deny-on-error (incl. robots 404)
                self.cache.setdefault(h, None)  # negative cache, never snapshotted
                self.denied.add(h)
            else:
                self.cache[h] = (body, self.now_us)
                self.rules.pop(h, None)

    def _rules(self, host: str) -> RobotsRules | None:
        """Rules for a refreshed host, or None = deny."""
        entry = None if host in self.denied else self.cache.get(host)
        if entry is None:
            return None
        if host not in self.rules:
            self.rules[host] = RobotsRules(entry[0])
        return self.rules[host]

    def gate_many(self, hosts: list[str], base_urls: list[str], urls: list[str]) -> list[bool]:
        """True = allowed.  Batched gate: one remote call per (shard,
        admission batch), rows spanning many hosts; each host resolves once."""
        self._refresh(hosts, base_urls)
        out = []
        for h, u in zip(hosts, urls):
            r = self._rules(h)
            out.append(r is not None and r.allowed(self.user_agent, u))
        return out

    def snapshot(self) -> list[tuple[str, str, int]]:
        """(host, body, ts) rows for the written-back robots table."""
        return [(h, e[0], e[1]) for h, e in self.cache.items() if e is not None]
