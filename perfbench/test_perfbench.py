"""Tests of the benchmark itself: the independent checkers agree with the
generated corpus, and fail when one fetched url is dropped, one text byte
changed or one planted copy kept; the command runs from outside the repo
and refuses to run without the program.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import checkers  # noqa: E402

SEED, HOSTS, PAGES = 7, 6, 12


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small corpus written by the program's generator, serially."""
    from grawler_ray.sources.corpus import generate_corpus

    path = str(tmp_path_factory.mktemp("corpus"))
    generate_corpus(path, n_hosts=HOSTS, pages_per_host=PAGES, seed=SEED, num_buckets=4)
    rows = {}
    for d in sorted(os.listdir(path)):
        t = pq.read_table(os.path.join(path, d, "part.parquet"))
        for r in t.to_pylist():
            rows[r["url"]] = r
    return rows


def _program_like_output(corpus, urls):
    """What a correct crawl stores for ``urls``, built with the checker's
    own rules (the tests then break it one piece at a time)."""
    out = {}
    for u in urls:
        r = corpus[u]
        text = checkers.extract_text(r["html"]) if r["content_type"] == "text/html" else checkers.plain_text(r["html"])
        out[u] = {"content": text, "words": checkers.word_counts(text)}
    return out


def test_extraction_matches_generated_text(corpus):
    html = [r for r in corpus.values() if r["content_type"] == "text/html"]
    plain = [r for r in corpus.values() if r["content_type"] == "text/plain" and not r["url"].endswith("robots.txt")]
    assert html and plain
    for r in html:
        assert checkers.extract_text(r["html"]) == r["text"], r["url"]
    for r in plain:
        assert checkers.plain_text(r["html"]) == r["text"], r["url"]


def test_word_counts_are_ascii_lowercase():
    assert checkers.word_counts("Café café CAFE x_1 x_1!") == {"caf": 2, "cafe": 1, "x_1": 2}


def test_robots_agrees_with_generated_rules():
    from grawler_ray.robots import agent_allowed
    from grawler_ray.sources.corpus import robots_body

    bodies = {robots_body(s, h) for s in range(30) for h in range(20)}
    paths = [f"/page/{i}" for i in range(40)] + ["/", "/a.pdf", "/page/3/x"]
    for body in bodies:
        for p in paths:
            want = False if body is None else agent_allowed(body, "grawler", "https://h.test" + p)
            assert checkers.robots_allows(body, p) == want, (body, p)


def test_resolve_href_drop_rules():
    base = "https://site1.test"
    assert checkers.resolve_href("/page/3", base) == base + "/page/3"
    assert checkers.resolve_href("https://site2.test/page/1", base) == "https://site2.test/page/1"
    for dropped in ("", "#section", "?sort=asc", "/bad%zzpage"):
        assert checkers.resolve_href(dropped, base) is None


def test_crawl_checker_fails_on_each_fault(corpus):
    from grawler_ray.sources.corpus import page_url

    graph = checkers.LinkGraph.generate(SEED, HOSTS, PAGES)
    expected = graph.reachable_urls([page_url(h, 0) for h in range(HOSTS)], 3)
    assert len(expected) > 10
    bodies = {u: (corpus[u]["html"], corpus[u]["content_type"]) for u in expected}
    good = _program_like_output(corpus, expected)
    assert checkers.check_crawl(good, expected, bodies) == []

    dropped = dict(good)
    dropped.pop(sorted(expected)[0])
    assert checkers.check_crawl(dropped, expected, bodies)

    html_url = next(u for u in sorted(expected) if bodies[u][1] == "text/html")
    changed = dict(good)
    text = good[html_url]["content"]
    changed[html_url] = {**good[html_url], "content": text[:-1] + chr(ord(text[-1]) ^ 1)}
    assert checkers.check_crawl(changed, expected, bodies)

    words = dict(good)
    w = dict(good[html_url]["words"])
    w[next(iter(w))] += 1
    words[html_url] = {**good[html_url], "words": w}
    assert checkers.check_crawl(words, expected, bodies)


def test_prep_checker_fails_on_each_fault():
    originals = {i: f"original text {i}" for i in range(50)}
    good = {i: (t, checkers.expected_split(i)) for i, t in originals.items()}
    assert {s for _, s in good.values()} == {"train", "holdout"}
    assert checkers.check_prep(good, originals) == []

    kept_copy = {**good, 50: (originals[3], checkers.expected_split(50))}
    assert checkers.check_prep(kept_copy, originals)

    dropped = dict(good)
    dropped.pop(7)
    assert checkers.check_prep(dropped, originals)

    flipped = {**good, 4: (originals[4], "train" if good[4][1] == "holdout" else "holdout")}
    assert checkers.check_prep(flipped, originals)


def _run(cwd, script, *extra):
    return subprocess.run(
        [sys.executable, script, "--workload", "saturated_recrawl", "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def test_runs_from_outside_the_repo(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = _run(tmp_path, os.path.join(HERE, "run.py"))
    assert p.returncode == 0, p.stderr[-3000:]
    lines = p.stdout.strip().splitlines()
    assert len(lines) == 1
    res = json.loads(lines[0])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = _run(tmp_path, "perfbench/run.py")
    assert p.returncode != 0
    assert p.stdout == ""
