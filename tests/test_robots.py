"""Unit tests for the Google-robotstxt-style matcher (SURVEY §2.3 T3)."""

from grawler_ray.robots import RobotsRules, _extract_path_params_query, agent_allowed

UA = "grawler"


def test_specific_group_overrides_star():
    body = (
        "User-agent: *\nDisallow: /private/\n\n"
        "User-agent: grawler\nDisallow: /grawler-only/\n"
    )
    assert agent_allowed(body, UA, "https://a.com/private/x")
    assert not agent_allowed(body, UA, "https://a.com/grawler-only/x")
    assert agent_allowed(body, UA, "https://a.com/other")


def test_longest_match_wins_allow_beats_tie():
    body = "User-agent: *\nDisallow: /private/\nAllow: /private/open\n"
    assert not agent_allowed(body, UA, "https://a.com/private/x")
    assert agent_allowed(body, UA, "https://a.com/private/open/page")
    tie = "User-agent: *\nDisallow: /page\nAllow: /page"
    assert agent_allowed(tie, UA, "https://a.com/page")


def test_wildcard_and_anchor():
    body = "User-agent: *\nDisallow: /*.pdf$\n"
    assert not agent_allowed(body, UA, "https://a.com/doc.pdf")
    assert agent_allowed(body, UA, "https://a.com/doc.pdfx")
    assert not agent_allowed(body, UA, "https://a.com/a/b/doc.pdf")


def test_empty_and_missing():
    assert agent_allowed("", UA, "https://a.com/x")
    assert agent_allowed("User-agent: *\nDisallow:", UA, "https://a.com/x")
    assert not agent_allowed("User-agent: *\nDisallow: /", UA, "https://a.com/x")


def test_agent_prefix_matching():
    assert not agent_allowed("User-agent: graw\nDisallow: /", UA, "https://a.com/x")
    assert agent_allowed("User-agent: grawlerbot\nDisallow: /", UA, "https://a.com/x")
    assert not agent_allowed("User-agent: GRAWLER\nDisallow: /", UA, "https://a.com/x")


def test_grouped_agents_and_comments():
    body = (
        "# robots\nUser-agent: a\nUser-agent: grawler\nDisallow: /x # inline\n"
        "User-agent: b\nDisallow: /y\n"
    )
    assert not agent_allowed(body, UA, "https://a.com/x1")
    assert agent_allowed(body, UA, "https://a.com/y1")


def test_query_in_match_target():
    assert _extract_path_params_query("https://a.com/p?q=1#f") == "/p?q=1"
    assert _extract_path_params_query("https://a.com") == "/"
    body = "User-agent: *\nDisallow: /p?q=1\n"
    assert not agent_allowed(body, UA, "https://a.com/p?q=1")


def test_rules_reusable():
    rules = RobotsRules("User-agent: *\nDisallow: /a\n")
    assert not rules.allowed(UA, "https://x.com/a")
    assert rules.allowed(UA, "https://x.com/b")


class TestSitemapDirectives:
    def test_extraction_order_dedup_comments(self):
        from grawler_ray.robots import sitemap_urls

        body = (
            "User-agent: *\nDisallow: /private\n"
            "Sitemap: https://h.test/sm1.xml\n"
            "sitemap:   https://h.test/sm2.xml.gz  # trailing comment\n"
            "SITEMAP: https://h.test/sm1.xml\n"   # dup -> first wins
            "Sitemap:\n"                            # empty -> dropped
        )
        assert sitemap_urls(body) == [
            "https://h.test/sm1.xml",
            "https://h.test/sm2.xml.gz",
        ]

    def test_relative_requires_base(self):
        from grawler_ray.robots import sitemap_urls

        body = "Sitemap: /sm.xml\n"
        assert sitemap_urls(body) == []
        assert sitemap_urls(body, base_url="https://h.test/") == [
            "https://h.test/sm.xml"
        ]

    def test_relative_resolves_against_origin(self):
        # base_url always carries the /robots.txt path in practice; the
        # path must NOT leak into the resolved sitemap URL
        from grawler_ray.robots import sitemap_urls

        body = "Sitemap: sm.xml\nSitemap: /deep/sm2.xml\n"
        assert sitemap_urls(body, base_url="https://h.test/robots.txt") == [
            "https://h.test/sm.xml",
            "https://h.test/deep/sm2.xml",
        ]
        # port is part of the origin; schemeless base yields no resolution
        assert sitemap_urls(body, base_url="http://h.test:8080/robots.txt") == [
            "http://h.test:8080/sm.xml",
            "http://h.test:8080/deep/sm2.xml",
        ]
        assert sitemap_urls(body, base_url="not-a-url") == []

    def test_group_independent(self):
        # the directive counts even between/inside agent groups
        from grawler_ray.robots import sitemap_urls

        body = (
            "User-agent: a\nDisallow: /x\nSitemap: https://h.test/a.xml\n"
            "User-agent: b\nSitemap: https://h.test/b.xml\nAllow: /\n"
        )
        assert sitemap_urls(body) == [
            "https://h.test/a.xml",
            "https://h.test/b.xml",
        ]


class TestRobotsShardPerBucket:
    """RobotsShard.gate_many reads each corpus bucket once per call for all
    the hosts it must fetch; the outcome must equal resolving each host on
    its own, and the reference's deny/keep-stale rules must hold."""

    SEED, HOSTS, BUCKETS = 7, 24, 4
    NOW = 1_722_988_800_000_000
    DAY = 86_400_000_000

    def _corpus(self, tmp_path):
        import os
        import shutil

        import pyarrow as pa
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from grawler_ray.sources.corpus import generate_corpus, host_name
        from grawler_ray.urlops import xxhash64

        d = str(tmp_path / "corpus")
        generate_corpus(d, n_hosts=self.HOSTS, pages_per_host=2, seed=self.SEED,
                        num_buckets=self.BUCKETS)
        robots_url = {h: f"https://{host_name(h)}/robots.txt" for h in range(self.HOSTS)}
        bucket_of = {h: xxhash64(u) % self.BUCKETS for h, u in robots_url.items()}
        # the first bucket holding a robots row goes missing entirely; one
        # robots row elsewhere is served with status 404
        gone = bucket_of[0]
        shutil.rmtree(os.path.join(d, f"bucket={gone}"))
        h404 = next(h for h in range(self.HOSTS) if bucket_of[h] != gone)
        f = os.path.join(d, f"bucket={bucket_of[h404]}", "part.parquet")
        t = pq.read_table(f)
        hit = pc.equal(t.column("url"), robots_url[h404])
        assert pc.any(hit).as_py(), "host must serve a robots.txt row"
        status = pc.if_else(hit, pa.scalar(404, pa.int16()), t.column("status_code"))
        pq.write_table(t.set_column(t.schema.get_field_index("status_code"), "status_code", status), f)
        return d, gone, h404, bucket_of

    def _initial(self, gone, h404, bucket_of):
        from grawler_ray.sources.corpus import host_name, robots_body

        # fresh, stale-refetch-ok, stale whose refetch fails (its bucket is
        # gone), stale whose refetch gets a 404
        stale_fail = next(h for h in range(1, self.HOSTS) if bucket_of[h] == gone)
        stale_ok = next(
            h for h in range(self.HOSTS)
            if bucket_of[h] != gone and h != h404 and robots_body(self.SEED, h) is not None
        )
        fresh = next(h for h in range(self.HOSTS) if h not in (stale_fail, stale_ok, h404))
        old = self.NOW - 60 * self.DAY
        return {
            host_name(fresh): ("User-agent: *\nDisallow: /page/1\n", self.NOW - self.DAY),
            host_name(stale_ok): ("User-agent: *\nDisallow: /\n", old),
            host_name(stale_fail): ("User-agent: *\nAllow: /\n", old),
            host_name(h404): ("User-agent: *\nAllow: /\n", old),
        }, stale_fail

    def _shard(self, corpus, initial):
        from grawler_ray.state.robots_store import RobotsShard

        return RobotsShard(corpus, self.BUCKETS, "grawler", self.NOW, 45, dict(initial))

    def _rows(self):
        from grawler_ray.sources.corpus import host_name, page_url

        rows = [
            (host_name(h), f"https://{host_name(h)}", page_url(h, p))
            for p in range(3)
            for h in range(self.HOSTS)
        ]
        return [list(c) for c in zip(*rows)]

    def test_per_bucket_equals_per_host(self, tmp_path, monkeypatch):
        import grawler_ray.state.robots_store as rs
        from grawler_ray.robots import RobotsRules
        from grawler_ray.sources.corpus import host_name, robots_body

        corpus, gone, h404, bucket_of = self._corpus(tmp_path)
        initial, stale_fail = self._initial(gone, h404, bucket_of)
        hosts, bases, urls = self._rows()

        scans = []
        real = rs.pq.ParquetFile
        monkeypatch.setattr(rs.pq, "ParquetFile", lambda p, **kw: scans.append(p) or real(p, **kw))
        batched = self._shard(corpus, initial)
        got = batched.gate_many(hosts, bases, urls)
        # one scan per existing bucket, whatever the number of hosts in it
        assert sorted(scans) == sorted(set(scans))
        assert len(scans) == self.BUCKETS - 1

        single = self._shard(corpus, initial)
        by_host = {}
        for i, h in enumerate(hosts):
            by_host.setdefault(h, []).append(i)
        want = [None] * len(urls)
        for h, idx in by_host.items():
            res = single.gate_many([h] * len(idx), [bases[i] for i in idx], [urls[i] for i in idx])
            for i, ok in zip(idx, res):
                want[i] = ok
        assert got == want
        assert sorted(batched.snapshot()) == sorted(single.snapshot())

        # independent expectation from the generator's bodies
        fresh_body = {h: b for h, (b, ts) in initial.items() if ts >= self.NOW - 45 * self.DAY}
        for h, b, u, ok in zip(hosts, bases, urls, got):
            hi = int(h[len("site"):-len(".test")])
            body = fresh_body.get(h)
            if body is None and bucket_of[hi] != gone and hi != h404:
                body = robots_body(self.SEED, hi)
            exp = body is not None and RobotsRules(body).allowed("grawler", u)
            assert ok == exp, (h, u)
        snap = {h: (b, ts) for h, b, ts in batched.snapshot()}
        # a failed refetch denies but keeps the stale body for the snapshot
        assert snap[host_name(stale_fail)] == initial[host_name(stale_fail)]
        assert snap[host_name(h404)] == initial[host_name(h404)]
        assert not any(ok for h, ok in zip(hosts, got) if h in (host_name(stale_fail), host_name(h404)))
        # a successful refetch is upserted with ts=now
        refreshed = [h for h, (b, ts) in initial.items() if ts < self.NOW - 45 * self.DAY
                     and h not in (host_name(stale_fail), host_name(h404))]
        assert refreshed and all(snap[h][1] == self.NOW for h in refreshed)

    def test_second_call_reads_nothing(self, tmp_path, monkeypatch):
        """Resolved hosts (allowed or denied) are never fetched again."""
        import grawler_ray.state.robots_store as rs

        corpus, gone, h404, bucket_of = self._corpus(tmp_path)
        initial, _ = self._initial(gone, h404, bucket_of)
        hosts, bases, urls = self._rows()
        shard = self._shard(corpus, initial)
        first = shard.gate_many(hosts, bases, urls)
        scans = []
        real = rs.pq.ParquetFile
        monkeypatch.setattr(rs.pq, "ParquetFile", lambda p, **kw: scans.append(p) or real(p, **kw))
        assert shard.gate_many(hosts, bases, urls) == first
        assert scans == []

    def test_prefetch_is_invisible_until_gated(self, tmp_path, monkeypatch):
        """A read-ahead of every host changes no gate result and no snapshot
        row; hosts never gated stay out of the snapshot; gating then reads
        nothing more."""
        import grawler_ray.state.robots_store as rs

        corpus, gone, h404, bucket_of = self._corpus(tmp_path)
        initial, _ = self._initial(gone, h404, bucket_of)
        hosts, bases, urls = self._rows()
        plain = self._shard(corpus, initial)
        want = plain.gate_many(hosts, bases, urls)

        ahead = self._shard(corpus, initial)
        ahead.prefetch(hosts, bases)
        assert sorted(ahead.snapshot()) == sorted(
            (h, b, ts) for h, (b, ts) in initial.items()
        )
        scans = []
        real = rs.pq.ParquetFile
        monkeypatch.setattr(rs.pq, "ParquetFile", lambda p, **kw: scans.append(p) or real(p, **kw))
        half = len(hosts) // 2  # gate only some hosts first
        got = ahead.gate_many(hosts[:half], bases[:half], urls[:half])
        got += ahead.gate_many(hosts[half:], bases[half:], urls[half:])
        assert scans == []
        assert got == want
        assert sorted(ahead.snapshot()) == sorted(plain.snapshot())
        assert ahead.read_ahead == {}
