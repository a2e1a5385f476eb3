"""The three workloads: inputs from the seed, one timed operation, its check.

Sizes are chosen so that one run (Ray start, input generation, warm-up,
one operation of 12-15 s, checks) stays near 35 s on 4 cores.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import checkers
import procstats

# many small hosts keep the robots.txt mix, and so the workload's size,
# nearly the same from seed to seed
CRAWL_HOSTS = 300
PAGES_PER_HOST = 8
BUCKETS = 32
BFS_ROUNDS = 2
SEEN_SHARDS = 4
# prep_dedup: originals drawn from the corpus' html pages, plus planted
# exact copies and near copies (a few words edited), as shares of originals
PREP_ORIGINALS = 500
PREP_EXACT_SHARE = 0.05
PREP_NEAR_SHARE = 0.05
PREP_EDITED_WORDS = 3
PREP_FILES = 8
PREP_HOSTS = 100  # 800 pages, ~700 of them status-200 html
# warm-up instance: the same call on a tiny corpus of its own, run while
# the real inputs are generated
TINY_HOSTS, TINY_PAGES = 3, 8


@dataclass
class OpResult:
    units: int
    wall_s: float
    output_mb: float
    problems: list[str]
    detail: dict = field(default_factory=dict)


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


def overlapped_setup(tr, layer: str, warmup, prepare) -> None:
    """Run ``warmup`` (a tiny instance of the workload, so that worker
    start-up, imports and first use land in set-up and not in the timed
    loop) in a second thread while ``prepare`` generates the real inputs."""
    with ThreadPoolExecutor(1) as pool:
        t0 = tr.now()
        warm = pool.submit(lambda: (warmup(), tr.now())[1])
        prepare()
        tr.record("warmup", layer, t0, warm.result())


def tree_cpu_s() -> float:
    return procstats.proc_tree(os.getpid())[1]


def rmtree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


def _dir_mb(path: str) -> float:
    total = 0
    for d, _subdirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total / 2**20


def read_corpus(corpus_dir: str, columns: list[str]) -> pa.Table:
    """The generated corpus, read straight from its parquet buckets."""
    parts = []
    for d in sorted(os.listdir(corpus_dir)):
        for f in sorted(os.listdir(os.path.join(corpus_dir, d))):
            parts.append(pq.read_table(os.path.join(corpus_dir, d, f), columns=columns))
    return pa.concat_tables(parts)


def gen_corpus(path: str, seed: int, hosts: int, pages: int, use_ray: bool = True) -> None:
    from grawler_ray.config import CrawlConfig
    from grawler_ray.sources.corpus import generate_corpus, generate_robots_cache

    generate_corpus(path, n_hosts=hosts, pages_per_host=pages, seed=seed, num_buckets=BUCKETS, use_ray=use_ray)
    generate_robots_cache(os.path.join(path + ".robots", "robots.parquet"), seed, hosts, CrawlConfig().now_us)


def html_pages(corpus_dir: str) -> pa.Table:
    """url, html and generated text of the corpus' status-200 html pages."""
    t = read_corpus(corpus_dir, ["url", "html", "text", "content_type", "status_code"])
    t = t.filter(pc.and_(pc.equal(t.column("content_type"), "text/html"), pc.equal(t.column("status_code"), 200)))
    return t.select(["url", "html", "text"])


def read_fetched(out_dir: str) -> tuple[dict[str, dict], list[str]]:
    """Fetched rows of a crawl out_dir (url -> content, words), read with
    pyarrow from the per-round parsed files, plus any url fetched twice."""
    rows: dict[str, dict] = {}
    twice = []
    for rd in sorted(os.listdir(out_dir)):
        pdir = os.path.join(out_dir, rd, "parsed")
        if not rd.startswith("round=") or not os.path.isdir(pdir):
            continue
        for f in sorted(os.listdir(pdir)):
            t = pq.read_table(os.path.join(pdir, f), columns=["url", "action", "content", "words_w", "words_f"])
            for url, action, content, ww, wf in zip(*(t.column(c).to_pylist() for c in t.column_names)):
                if action != "fetched":
                    continue
                if url in rows:
                    twice.append(url)
                rows[url] = {"content": content, "words": dict(zip(ww, wf))}
    return rows, twice


class CrawlWorkload:
    """``run_crawl`` over a generated corpus: breadth-first discovery from
    one seed per host with an exact seen set, or a one-round recrawl of every
    known url with the cuckoo seen set."""

    def __init__(self, name: str, seed: int, work: str):
        self.name = name
        self.seed = seed
        self.work = work
        self.saturated = name == "saturated_recrawl"
        self.rounds = 1 if self.saturated else BFS_ROUNDS
        self.hosts = CRAWL_HOSTS
        self.corpus = os.path.join(work, "corpus")

    def _seeds(self, hosts: int, pages: int) -> list[str]:
        from grawler_ray.sources.corpus import page_url

        if self.saturated:
            return [page_url(h, p) for h in range(hosts) for p in range(pages)]
        return [page_url(h, 0) for h in range(hosts)]

    def config(self, out_dir: str, rounds: int, trace: bool = False):
        from grawler_ray.config import CrawlConfig

        return CrawlConfig(
            per_host_quota=10**9,  # politeness off: a throughput crawl
            max_rounds=rounds,
            num_fetch_buckets=BUCKETS,
            seen_shards=SEEN_SHARDS,
            seen_mode="cuckoo" if self.saturated else "exact",
            out_dir=out_dir,
            write_trace=trace,
            seen_snapshots=False,
        )

    def setup(self, tr) -> None:
        overlapped_setup(tr, "pipelines.crawl", self._warmup, lambda: self._prepare(tr))

    def _prepare(self, tr) -> None:
        with tr.span("generate", "sources.corpus", pages=self.hosts * PAGES_PER_HOST):
            gen_corpus(self.corpus, self.seed, self.hosts, PAGES_PER_HOST)
        self.seeds = self._seeds(self.hosts, PAGES_PER_HOST)
        self.graph = checkers.LinkGraph.generate(self.seed, self.hosts, PAGES_PER_HOST)
        self.expected = self.graph.reachable_urls(self.seeds, self.rounds)
        self.units = len(self.expected)
        t = read_corpus(self.corpus, ["url", "html", "content_type"])
        want = self.expected
        self.bodies = {
            u: (h, c)
            for u, h, c in zip(*(t.column(n).to_pylist() for n in t.column_names))
            if u in want
        }

    def _warmup(self) -> None:
        from grawler_ray.pipelines.crawl import run_crawl

        tiny = os.path.join(self.work, "tiny")
        gen_corpus(tiny, self.seed, TINY_HOSTS, TINY_PAGES, use_ray=False)
        out = os.path.join(self.work, "tiny_out")
        run_crawl(tiny, self._seeds(TINY_HOSTS, TINY_PAGES), self.config(out, 1), robots_cache_path=tiny + ".robots/robots.parquet")
        rmtree(out)

    def kernel_pages(self, k: int) -> list[tuple[str, bytes]]:
        return [(u, self.bodies[u][0]) for u in sorted(self.bodies) if self.bodies[u][1] == "text/html"][:k]

    def kernel_docs(self, k: int) -> pa.Table:
        texts = [checkers.extract_text(b) for _, b in self.kernel_pages(k)]
        return pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": pa.array(texts, pa.string())})

    def fetched_urls(self) -> set[str]:
        return self.expected

    def op(self, i: int, trace: bool = False, keep: bool = False) -> OpResult:
        from grawler_ray.pipelines.crawl import run_crawl

        out = os.path.join(self.work, f"crawl{i}")
        rmtree(out)
        cfg = self.config(out, self.rounds, trace)
        c0, s0, t0 = tree_cpu_s(), procstats.host_steal_s(), time.monotonic()
        stats = run_crawl(self.corpus, self.seeds, cfg, robots_cache_path=self.corpus + ".robots/robots.parquet")
        wall, cpu, steal = time.monotonic() - t0, tree_cpu_s() - c0, procstats.host_steal_s() - s0
        log(f"run_crawl {wall:.2f}s cpu {cpu:.2f}s steal {steal:.2f}s, {stats['fetched']} fetched, phases {({k: round(v, 2) for k, v in stats['phase_sec'].items()})}")
        fetched, twice = read_fetched(out)
        problems = checkers.check_crawl(fetched, self.expected, self.bodies)
        if twice:
            problems.append(f"{len(twice)} urls fetched twice, e.g. {twice[:3]}")
        if stats["fetched"] != len(fetched):
            problems.append(f"run_crawl reports {stats['fetched']} fetched, output holds {len(fetched)}")
        res = OpResult(stats["fetched"], wall, _dir_mb(out), problems, {"stats": stats, "out_dir": out, "cpu_s": cpu, "steal_s": steal})
        if not keep:
            rmtree(out)
        return res


class PrepWorkload:
    """``prep_corpus`` over page texts with planted exact and near copies."""

    name = "prep_dedup"

    def __init__(self, seed: int, work: str):
        self.seed = seed
        self.work = work
        self.corpus = os.path.join(work, "corpus")

    def _docs(self, texts: list[str], n_orig: int, rng: random.Random) -> tuple[pa.Table, dict[int, str]]:
        """Originals get ids 0..n-1 and every planted copy a higher id, so
        keep-the-lowest-id dedup must keep exactly the originals."""
        originals = dict(enumerate(rng.sample(texts, n_orig)))
        ids, out = list(originals), list(originals.values())
        n_exact = round(n_orig * PREP_EXACT_SHARE)
        n_near = round(n_orig * PREP_NEAR_SHARE)
        for src in rng.sample(range(n_orig), n_exact):
            ids.append(len(ids))
            out.append(originals[src])
        for src in rng.sample(range(n_orig), n_near):
            words = originals[src].split(" ")
            for pos in rng.sample(range(len(words)), PREP_EDITED_WORDS):
                words[pos] = f"edited{rng.randrange(10**6)}"
            ids.append(len(ids))
            out.append(" ".join(words))
        order = list(range(len(ids)))
        rng.shuffle(order)
        t = pa.table({"doc_id": pa.array([ids[k] for k in order], pa.int64()), "text": pa.array([out[k] for k in order], pa.string())})
        return t, originals

    def _write_docs(self, path: str, t: pa.Table) -> None:
        os.makedirs(path, exist_ok=True)
        step = -(-t.num_rows // PREP_FILES)
        for k in range(PREP_FILES):
            pq.write_table(t.slice(k * step, step), os.path.join(path, f"part-{k}.parquet"))

    def setup(self, tr) -> None:
        overlapped_setup(tr, "pipelines.preprocess", self._warmup, lambda: self._prepare(tr))

    def _prepare(self, tr) -> None:
        with tr.span("generate", "sources.corpus", pages=PREP_HOSTS * PAGES_PER_HOST):
            gen_corpus(self.corpus, self.seed, PREP_HOSTS, PAGES_PER_HOST)
        self.graph = checkers.LinkGraph.generate(self.seed, PREP_HOSTS, PAGES_PER_HOST)
        self.pages = html_pages(self.corpus)
        rng = random.Random(f"prep_dedup:{self.seed}")
        docs, self.originals = self._docs(self.pages.column("text").to_pylist(), PREP_ORIGINALS, rng)
        self.docs_dir = os.path.join(self.work, "docs")
        self._write_docs(self.docs_dir, docs)
        self.units = docs.num_rows
        self.docs = docs

    def _warmup(self) -> None:
        tiny = os.path.join(self.work, "tiny")
        gen_corpus(tiny, self.seed, TINY_HOSTS, TINY_PAGES, use_ray=False)
        texts = html_pages(tiny).column("text").to_pylist()
        docs, _ = self._docs(texts, len(texts), random.Random(0))
        self._write_docs(tiny + "_docs", docs)
        self._prep(tiny + "_docs", tiny + "_out", None)
        rmtree(tiny + "_out")

    def kernel_pages(self, k: int) -> list[tuple[str, bytes]]:
        return list(zip(self.pages.column("url").to_pylist()[:k], self.pages.column("html").to_pylist()[:k]))

    def kernel_docs(self, k: int) -> pa.Table:
        return self.docs.slice(0, k)

    def fetched_urls(self) -> set[str]:
        return set(self.pages.column("url").to_pylist())

    def _prep(self, docs_dir: str, out: str, timings: dict | None):
        import ray.data

        from grawler_ray.pipelines.preprocess import prep_corpus

        ds = ray.data.read_parquet(docs_dir, columns=["doc_id", "text"])
        return prep_corpus(ds, out_dir=out, collect_timings=timings).to_pandas()

    def op(self, i: int, trace: bool = False, keep: bool = False) -> OpResult:
        """One ``prep_corpus`` call; ``trace`` collects its stage timings."""
        out = os.path.join(self.work, f"prep{i}")
        rmtree(out)
        timings: dict | None = {} if trace else None
        c0, s0, t0 = tree_cpu_s(), procstats.host_steal_s(), time.monotonic()
        summary = self._prep(self.docs_dir, out, timings)
        wall, cpu, steal = time.monotonic() - t0, tree_cpu_s() - c0, procstats.host_steal_s() - s0
        log(f"prep_corpus {wall:.2f}s cpu {cpu:.2f}s steal {steal:.2f}s, stages {timings}")
        rows: dict[int, tuple[str, str]] = {}
        dup_ids = []
        for d in sorted(os.listdir(out)):
            if not d.startswith("split="):
                continue
            for f in sorted(os.listdir(os.path.join(out, d))):
                t = pq.read_table(os.path.join(out, d, f), columns=["doc_id", "text"])
                for doc_id, text in zip(t.column("doc_id").to_pylist(), t.column("text").to_pylist()):
                    if doc_id in rows:
                        dup_ids.append(doc_id)
                    rows[doc_id] = (text, d.split("=", 1)[1])
        problems = checkers.check_prep(rows, self.originals)
        if dup_ids:
            problems.append(f"{len(dup_ids)} doc ids written twice")
        detail = {"timings": timings, "summary": summary.to_dict(orient="records"), "out_dir": out, "cpu_s": cpu, "steal_s": steal}
        res = OpResult(self.units, wall, _dir_mb(out), problems, detail)
        if not keep:
            rmtree(out)
        return res


def make(name: str, seed: int, work: str):
    if name == "prep_dedup":
        return PrepWorkload(seed, work)
    return CrawlWorkload(name, seed, work)
