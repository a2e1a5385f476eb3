"""Traced run: spans around every call the benchmark makes into the
program's layers, per-layer metrics, and the per-layer table.

The spans are recorded from outside the program.  A workload span holds
the set-up, one untraced and one traced operation and the kernel replays.
``run_crawl`` and ``prep_corpus`` get child spans per round phase and per
prep stage, laid end to end from the durations the program itself reports
(round manifests, ``collect_timings``).  The one-core kernel replays run
in this process with Ray out of the picture, over the workload's own pages
and docs.  Spans stay in memory and are written once at the end, with the
table of self time per layer.

Layers with no work in a workload report 0: the crawl layers on
``prep_dedup``, the prep stages on the crawl workloads.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import sys
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import workloads

KERNEL_PAGES = 150  # pages (and docs) replayed through each one-core kernel
SEEN_BATCH = 256    # keys per SeenShard call, as the crawl's actors get them
CRAWL_PHASES = ("admission", "fetch_parse_write", "trace", "kids_read_commit", "next_frontier")
PREP_STAGES = ("quality", "exact_dedup", "near_dedup", "tokens_split", "write")


def log(*a) -> None:
    print(*a, file=sys.stderr, flush=True)


class Tracer:
    """In-memory spans: id, parent, name, layer, start and end in seconds
    from the tracer's creation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def now(self) -> float:
        return time.perf_counter() - self.t0

    def add(self, name: str, layer: str, start: float, end: float, parent: int | None, **counts) -> int:
        self.spans.append(
            {"id": len(self.spans), "parent": parent, "name": name, "layer": layer,
             "start": start, "end": end, "counts": counts}
        )
        return len(self.spans) - 1

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        """A finished span under the current one (for work timed elsewhere)."""
        self.add(name, layer, start, end, self._stack[-1] if self._stack else None)

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **counts):
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, layer, self.now(), 0.0, parent, **counts)
        self._stack.append(sid)
        try:
            yield self.spans[sid]
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = self.now()


class NullTracer:
    def now(self) -> float:
        return 0.0

    def record(self, name: str, layer: str, start: float, end: float) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **counts):
        yield {"counts": counts}


def layer_table(spans: list[dict]) -> dict[str, dict]:
    """Self time (duration minus the time its children cover) and call
    count per layer."""
    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)
    table: dict[str, dict] = {}
    for s in spans:
        covered, last = 0.0, s["start"]
        for c in sorted(kids.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], last), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        row = table.setdefault(s["layer"], {"self_s": 0.0, "spans": 0, "counts": {}})
        row["self_s"] += max(0.0, s["end"] - s["start"] - covered)
        row["spans"] += 1
        for k, v in s["counts"].items():
            row["counts"][k] = row["counts"].get(k, 0) + v
    return table


def _per_item(fn, items, scale: float) -> float:
    t0 = time.perf_counter()
    for x in items:
        fn(x)
    return (time.perf_counter() - t0) * scale / max(1, len(items))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _phase_spans(tr: Tracer, parent: int, start: float, per_round: list[dict], layer: str) -> None:
    """Lay the reported per-round phase durations end to end under parent."""
    t = start
    for rnd, phases in enumerate(per_round):
        r0 = t
        rid = tr.add(f"round{rnd}", layer, r0, r0, parent)
        for name in CRAWL_PHASES:
            if name in phases:
                tr.add(name, layer, t, t + phases[name], rid)
                t += phases[name]
        tr.spans[rid]["end"] = t


def _round_phases(out_dir: str) -> list[dict]:
    from grawler_ray.pipelines.crawl import crawl_report

    return [r.get("phase_sec", {}) for r in crawl_report(out_dir)["rounds"]]


def _host_metrics(ops, plain, m: dict) -> None:
    """CPU seconds the process tree spent per item in the untraced call, and
    the host's steal time over both calls (a noisy-neighbour reading)."""
    m["op.cpu_s_per_item"] = (plain.detail["cpu_s"] / plain.units, "s")
    m["host.steal_s"] = (sum(r.detail["steal_s"] for r in ops), "s")


def crawl_metrics(wl, tr: Tracer, m: dict) -> tuple[list[str], list[str]]:
    """One untraced and one traced crawl; phase times from the untraced one,
    action counts and the frontier url stream from the traced one's trace."""
    from grawler_ray.pipelines.crawl import crawl_report

    problems: list[str] = []
    runs = {}
    for traced in (False, True):
        with tr.span("op.traced" if traced else "op.untraced", "bench"):
            with tr.span("run_crawl", "pipelines.crawl") as sp:
                r = wl.op(int(traced), trace=traced, keep=True)
            _phase_spans(tr, sp["id"], sp["start"], _round_phases(r.detail["out_dir"]), "pipelines.crawl")
        problems += r.problems
        runs[traced] = r
    plain, traced = runs[False], runs[True]
    phase = plain.detail["stats"]["phase_sec"]
    rounds = plain.detail["stats"]["rounds"]
    for name in ("admission", "fetch_parse_write", "kids_read_commit", "next_frontier"):
        m[f"crawl.{name}_s"] = (phase.get(name, 0.0), "s")
    control = sum(phase.get(k, 0.0) for k in ("admission", "kids_read_commit", "next_frontier"))
    m["crawl.control_s_per_round"] = (control / rounds, "s")
    m["crawl.trace_write_s"] = (traced.detail["stats"]["phase_sec"].get("trace", 0.0), "s")
    m["trace.overhead_share"] = ((traced.wall_s - plain.wall_s) / plain.wall_s, "ratio")
    _host_metrics(runs.values(), plain, m)

    actions: dict[str, int] = {}
    for rnd in crawl_report(traced.detail["out_dir"])["rounds"]:
        for a, n in rnd.get("actions", {}).items():
            actions[a] = actions.get(a, 0) + n
    frontier_rows = sum(actions.values())
    m["crawl.rounds"] = (rounds, "count")
    m["crawl.frontier_rows"] = (frontier_rows, "count")
    for a in ("fetched", "dup-drop", "robots-drop", "fetch-miss", "type-drop"):
        m[f"crawl.{a.replace('-', '_')}"] = (actions.get(a, 0), "count")
    m["crawl.children"] = (traced.detail["stats"]["frontier_total"] - len(wl.seeds), "count")
    m["crawl.fetch_yield"] = (actions.get("fetched", 0) / max(1, frontier_rows), "ratio")
    # the frontier url stream, round by round in seq order: the seen-set keys
    keys = []
    out = traced.detail["out_dir"]
    for rd in sorted(os.listdir(out), key=lambda d: int(d.split("=")[1]) if d.startswith("round=") else -1):
        tdir = os.path.join(out, rd, "trace")
        if rd.startswith("round=") and os.path.isdir(tdir):
            t = pq.read_table(tdir, columns=["seq", "url"]).sort_by("seq")
            keys += t.column("url").to_pylist()
    for r in runs.values():
        workloads.rmtree(r.detail["out_dir"])
    m["_parsed_pages"] = plain.units
    return problems, keys


def prep_metrics(wl, tr: Tracer, m: dict) -> tuple[list[str], list[str]]:
    """One prep call without and one with ``collect_timings``; the url
    stream for the url and seen kernels is the corpus pages'."""
    problems: list[str] = []
    runs = {}
    for traced in (False, True):
        with tr.span("op.traced" if traced else "op.untraced", "bench"):
            with tr.span("prep_corpus", "pipelines.preprocess") as sp:
                r = wl.op(int(traced), trace=traced)
        problems += r.problems
        runs[traced] = r
    timings = runs[True].detail["timings"]
    t = sp["start"]
    for name in PREP_STAGES:
        tr.add(name, "pipelines.preprocess", t, t + timings.get(name, 0.0), sp["id"])
        t += timings.get(name, 0.0)
        m[f"prep.{name}_s"] = (timings.get(name, 0.0), "s")
    stages = {row["stage"]: row["n_docs"] for row in runs[True].detail["summary"]}
    m["dedup.near_dups_dropped"] = (stages["exact_dedup"] - stages["near_dedup"], "count")
    m["trace.overhead_share"] = ((runs[True].wall_s - runs[False].wall_s) / runs[False].wall_s, "ratio")
    _host_metrics(runs.values(), runs[False], m)
    return problems, wl.pages.column("url").to_pylist()


def kernel_metrics(wl, keys: list[str], tr: Tracer, m: dict) -> None:
    """One-core replays of the layer kernels over the workload's own pages,
    docs and url stream, in this process."""
    from grawler_ray.functions.dedup import minhash_batch
    from grawler_ray.functions.quality import repetition_signals_batch
    from grawler_ray.functions.textstats import token_count_batch
    from grawler_ray.htmlparse import extract_html, parse_page
    from grawler_ray.pipelines.crawl import _fetch_group
    from grawler_ray.robots import RobotsRules
    from grawler_ray.state.seen import SeenShard
    from grawler_ray.textops import process_text, to_valid_utf8, words_freq
    from grawler_ray.urlops import child_url_allowed, xxhash64_batch

    pages = wl.kernel_pages(KERNEL_PAGES)  # [(url, html bytes)]
    host_of = {u: u.split("/")[2] for u, _ in pages}

    def parse(p):
        u, body = p
        h = host_of[u]
        parse_page(body, "text/html", u, f"https://{h}", h)

    with tr.span("parse_page", "htmlparse", pages=len(pages)):
        m["htmlparse.parse_page_us"] = (_per_item(parse, pages, 1e6), "us")
    extracted = []
    with tr.span("extract_html", "htmlparse", pages=len(pages)):
        t = _timed(lambda: extracted.extend(extract_html(to_valid_utf8(b)) for _, b in pages))
        m["htmlparse.extract_html_us"] = (t * 1e6 / len(pages), "us")
    texts = [process_text(joined) for joined, _, _ in extracted]
    with tr.span("words_freq", "textops", pages=len(texts)):
        m["textops.words_freq_us"] = (_per_item(words_freq, texts, 1e6), "us")
    hrefs = [(h, f"https://{host_of[u]}") for (u, _), (_, hs, _) in zip(pages, extracted) for h in hs]
    with tr.span("child_url_allowed", "urlops", hrefs=len(hrefs)):
        m["urlops.child_url_allowed_us"] = (_per_item(lambda x: child_url_allowed(*x), hrefs, 1e6), "us")

    with tr.span("xxhash64_batch", "urlops", keys=len(keys)):
        reps = max(1, 20_000 // max(1, len(keys)))
        t = _timed(lambda: [xxhash64_batch(keys) for _ in range(reps)])
        m["urlops.xxhash64_batch_ns"] = (t * 1e9 / (reps * len(keys)), "ns")
    hashes = [int(h) for h in xxhash64_batch(keys)]

    rules = {h: RobotsRules(b) for h, b in wl.graph.robots.items() if b is not None}
    checks = [(rules[u.split("/")[2]], u) for u in keys if u.count("/") >= 3 and u.split("/")[2] in rules]
    with tr.span("robots_allowed", "robots", urls=len(checks)):
        m["robots.allowed_us"] = (_per_item(lambda x: x[0].allowed("grawler", x[1]), checks, 1e6), "us")

    # the corpus fetch-group function over every bucket the fetched urls touch
    buckets: dict[int, list[str]] = {}
    fetched_urls = sorted(wl.fetched_urls())
    for u, h in zip(fetched_urls, xxhash64_batch(fetched_urls)):
        buckets.setdefault(int(h) % workloads.BUCKETS, []).append(u)
    fetch = _fetch_group(wl.corpus)
    nbytes = 0
    with tr.span("fetch_group", "sources.corpus", buckets=len(buckets), urls=len(fetched_urls)):
        t0 = time.perf_counter()
        for b, urls in buckets.items():
            n = len(urls)
            t = pa.table({
                "seq": pa.array(range(n), pa.int64()), "url": pa.array(urls),
                "parent_url": pa.array([""] * n), "host": pa.array([u.split("/")[2] for u in urls]),
                "base_url": pa.array(["https://" + u.split("/")[2] for u in urls]),
                "key_hash": pa.array([0] * n, pa.uint64()), "bucket": pa.array([b] * n, pa.int32()),
            })
            nbytes += fetch(t).column("html").nbytes
        m["fetch.bucket_read_mb_s"] = (nbytes / 2**20 / (time.perf_counter() - t0), "MB/s")

    batches = [(keys[i:i + SEEN_BATCH], hashes[i:i + SEEN_BATCH]) for i in range(0, len(keys), SEEN_BATCH)]
    exact = SeenShard("exact")
    with tr.span("seen_exact", "state.seen", keys=len(keys)):
        m["seen.exact_test_us"] = (_timed(lambda: [exact.test_batch(k, h) for k, h in batches]) * 1e6 / len(keys), "us")
        m["seen.exact_commit_us"] = (_timed(lambda: [exact.commit_batch(k, h) for k, h in batches]) * 1e6 / len(keys), "us")
    # a filter built for the key stream's size (it doubles that: <= 50 % load)
    cuckoo = SeenShard("cuckoo", capacity=len(set(keys)))
    with tr.span("seen_cuckoo", "state.seen", keys=len(keys)):
        m["seen.cuckoo_add_us"] = (_timed(lambda: [cuckoo.commit_batch(k, h) for k, h in batches]) * 1e6 / len(keys), "us")
        m["seen.cuckoo_contains_us"] = (_timed(lambda: [cuckoo.test_batch(k, h) for k, h in batches]) * 1e6 / len(keys), "us")
    m["seen.cuckoo_overflow_keys"] = (len(cuckoo.filter.overflow), "count")

    docs = wl.kernel_docs(KERNEL_PAGES)
    for name, layer, fn in (
        ("dedup.minhash_us_per_doc", "functions.dedup", minhash_batch(128)),
        ("quality.signals_us_per_doc", "functions.quality", repetition_signals_batch),
        ("textstats.token_count_us_per_doc", "functions.textstats", token_count_batch),
    ):
        with tr.span(name.split("_us")[0], layer, docs=docs.num_rows):
            m[name] = (_timed(lambda: fn(docs)) * 1e6 / docs.num_rows, "us")


def ray_floor(tr: Tracer, m: dict, reps: int = 5) -> None:
    """Fixed cost of a tiny identity Dataset stage (Ray Data's own
    map_batches benchmark shape)."""
    import ray.data

    def ident(t):
        return t

    def add_group(t):
        return t.append_column("g", pc.bit_wise_and(t.column("id"), 3))

    def mb():
        ray.data.range(64, override_num_blocks=4).map_batches(ident, batch_format="pyarrow").materialize()

    def mg():
        (ray.data.range(64, override_num_blocks=4).map_batches(add_group, batch_format="pyarrow")
         .groupby("g").map_groups(ident, batch_format="pyarrow").materialize())

    for name, fn in (("ray.map_batches_floor_ms", mb), ("ray.map_groups_floor_ms", mg)):
        with tr.span(name.split("_floor")[0], "ray", reps=reps):
            m[name] = (statistics.median(_timed(fn) for _ in range(reps)) * 1e3, "ms")


ZERO_CRAWL = (
    [f"crawl.{p}_s" for p in ("admission", "fetch_parse_write", "kids_read_commit", "next_frontier", "trace_write")]
    + ["crawl.control_s_per_round"]
    + [f"crawl.{c}" for c in ("rounds", "frontier_rows", "fetched", "dup_drop", "robots_drop",
                             "fetch_miss", "type_drop", "children")]
)


def traced_run(wl, tr: Tracer, cpus: int, trace_dir: str):
    """The ``--trace 1`` run after set-up: per-layer metrics, plus the span
    file and layer table in ``trace_dir``.  Returns (metrics, attempted,
    failed, problems) like the timed loop."""
    m: dict = {"host.cpus": (cpus, "count")}
    with tr.span(f"workload.{wl.name}", "bench"):
        if wl.name == "prep_dedup":
            problems, keys = prep_metrics(wl, tr, m)
        else:
            problems, keys = crawl_metrics(wl, tr, m)
        with tr.span("kernels", "bench"):
            kernel_metrics(wl, keys, tr, m)
        with tr.span("ray_floor", "bench"):
            ray_floor(tr, m)
    parsed = m.pop("_parsed_pages", None)
    if parsed is not None:
        # kernel rate x cores against what the stage delivered
        fpw = m["crawl.fetch_parse_write_s"][0]
        m["crawl.parse_tax"] = (fpw * cpus / (parsed * m["htmlparse.parse_page_us"][0] * 1e-6), "ratio")
    for name, unit in [(n, "s" if n.endswith(("_s", "_round")) else "count") for n in ZERO_CRAWL] + [
        ("crawl.parse_tax", "ratio"), ("crawl.fetch_yield", "ratio"),
        ("dedup.near_dups_dropped", "count"),
    ] + [(f"prep.{s}_s", "s") for s in PREP_STAGES]:
        m.setdefault(name, (0, unit))  # layer not run by this workload
    for name in ("ray_start", "generate", "warmup"):
        m[f"setup.{name}_s"] = (sum(sp["end"] - sp["start"] for sp in tr.spans if sp["name"] == name), "s")

    table = layer_table(tr.spans)
    os.makedirs(trace_dir, exist_ok=True)
    with open(os.path.join(trace_dir, "spans.json"), "w") as f:
        json.dump(tr.spans, f, indent=0)
    with open(os.path.join(trace_dir, "layers.json"), "w") as f:
        json.dump({"workload": wl.name, "cpus": cpus, "layers": table,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}}, f, indent=1)
    log(f"{'layer':24s} {'self_s':>9s} {'spans':>6s}  counts")
    for layer, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"{layer:24s} {row['self_s']:9.3f} {row['spans']:6d}  {row['counts']}")
    units = wl.units * 2
    return m, units, 0, problems
