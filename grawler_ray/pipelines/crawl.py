"""Round-based Ray-Data crawl pipeline — the engine's flagship.

Each BFS round translates crawlDocument's 12 stages (src/crawler.go:116-188,
SURVEY §3.2) into Dataset stages:

    frontier_r (materialized control table: seq,url,parent_url — SMALL; the
                heavy html bytes never enter it; one block per 100k rows, at
                least one per cluster CPU)
      -> map_batches(prepare)          M1/M2 url components + keys   [no shuffle]
      -> map_batches(seen test)        T1 actor calls                [no shuffle]
      -> groupby(hg: coarse host hash) first-wins dedup, politeness,
         urlAllowed  T2                                  [shuffle: host hash]
      -> map_batches(robots gate)      T3 actor calls                [no shuffle]
      == materialize (admission table: split admitted/deferred/trace)
    admitted
      -> sort(bucket, boundaries=equal bucket ranges)   ~2 x CPUs blocks, each
         a contiguous range of corpus buckets            [shuffle: bucket]
      -> map_batches(fetch)            J1: bucketed-corpus point join; each
         bucket of the block is read once, with an `url in` predicate pushed
         into the Parquet scan
      -> map_batches(parse)            M3-M11 + A1, html -> text    [no shuffle]
      -> map_batches(write)            the parse task writes its block as one
         file of out/round=R/parsed — the round checkpoint AND the documents/
         words sink (documents = column projection; words = explode of the
         words column) — and hands back the slim columns
      == materialize (slim parsed rows: seq,url,parent_url,key_hash,
         child_urls,action[,cash]; no html, no text)
    post-round (maps over the slim rows; parsed/ is not read back):
      max_urls cutoff, commit seen (T1), write trace, checkpoint the deferred
      rows; then, only when another round will run, explode children
      (M12/M13) + deterministic seq assignment and next frontier = deferred ∪
      children (_next_frontier).

The stateful side is ONE actor pool of ``seen_shards`` actors
(state.pool.StateShard): each holds a seen-set shard and the robots cache of
the hosts routed to it.  The actors reserve no CPU: four actors at 0.1 CPU
each left 3.6 of 4 CPUs, room for only three concurrent 1-CPU tasks.  The
pool outlives the call: a call that returns clears it and leaves it idle,
and the next call of the Ray session with the same shard count resets it in
place (a ~2 ms round-trip) instead of starting new processes (~0.9 s for
four on a 4-CPU host); a call that raises kills it.  run_crawl waits for
the pool once, before round 0 (``stats["setup_sec"]``, with
``stats["state_pool"]`` = "started" or "reused"), so round-0 admission
never absorbs actor start-up.

Scale notes (10^10-URL frontier):
- the corpus is hash-bucketed by url (sources/corpus.py) so a round's fetch
  cost is proportional to the FRONTIER, not the corpus;
- per-round shuffles touch only the slim control table (url+ints ≈ 100 B/row);
- seen membership lives in sharded actors (exact or cuckoo), never shipped;
- child seq assignment broadcasts one (parent_seq -> offset) map whose size
  is one int per fetched page per round (bounded by hosts x quota), not per
  child;
- every round's outputs are partitioned Parquet — a failed run resumes from
  the last complete round manifest: its parsed checkpoint, deferred rows and
  first child seq rebuild exactly the frontier the next round would have
  read (run_crawl(resume=True)).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq

import ray
import ray.data

from ..config import HTTP_THREADS, HTTP_TIMEOUT_S, OPIC_TOTAL_CASH, ROBOTS_TTL_DAYS, CrawlConfig
from ..htmlparse import parse_page
from ..shuffle import LEG, coarse_cogroup, coarse_group, coarse_groupby, key_index
from ..state.pool import close_pool, open_pool
from ..state.seen import SEEN_CAPACITY
from ..urlops import (
    UrlError,
    canonical_url,
    extract_url_components,
    url_allowed,
    xxhash64_batch,
)

ACTION_PENDING = "pending"

# child-seq assignment: rounds with more fetched pages than this use the
# fully distributed prefix sum (driver holds one row per block); below it,
# the (seq, count) pairs — 16 B/page — go to the driver directly
_OFFSETS_DRIVER_MAX = 5_000_000


def _cluster_cpus() -> int:
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def _parallelism(cpus: int, rows: int) -> int:
    """Block count of a control table (and the admission group count): one
    block per 100k rows, at most 512, and at least one per CPU.  Every
    operator of a round runs one task per block, so a 300-row frontier cut
    into 4 x CPUs blocks paid for hundreds of tasks that each ran for
    milliseconds."""
    return max(cpus, min(512, rows // 100_000 + 1))


def _bucket_boundaries(num_buckets: int, ranges: int) -> list[int]:
    """Sort boundaries that cut buckets ``0 .. num_buckets - 1`` into
    ``min(ranges, num_buckets)`` contiguous ranges of equal size (+-1):
    range i holds the buckets b with ``boundaries[i-1] <= b <
    boundaries[i]`` (Ray's ``sort(boundaries=)`` rule).  Empty for one
    range."""
    r = max(1, min(ranges, num_buckets))
    return [i * num_buckets // r for i in range(1, r)]


PARSED_COLUMNS = [
    "seq", "url", "parent_url", "host", "key_hash", "action", "content_type",
    "status_code", "content", "meta_icon_link", "meta_site_name", "meta_title",
    "meta_description", "child_urls", "words_w", "words_f",
]

DOC_COLUMNS = [
    "url", "parent_url", "content_type", "status_code", "content",
    "meta_icon_link", "meta_site_name", "meta_title", "meta_description",
]


# ---------------------------------------------------------------------------
# per-stage batch functions
# ---------------------------------------------------------------------------

def _prepare_batch(cfg: CrawlConfig, admission_groups: int = 256):
    """M1 url components + seen key/shard + fetch bucket, vectorized per batch.

    ``group_host`` is the politeness key: the raw host in conformance mode,
    the canonicalized host (lowercase, default port stripped) in
    ``canonicalize_seen`` mode — so rows whose seen keys are equal share it.
    The admission SHUFFLE key is ``hg`` — a COARSE hash of group_host into
    ``admission_groups`` buckets (VERDICT r2 item 1): a 10^8-host frontier
    must not spawn one pandas group per host; equal hosts (and therefore
    equal seen keys) still always land in the same group, which is the only
    property the group-local dedup + politeness kernel needs.  The host hash
    is memoized per batch (hosts repeat heavily within a block)."""

    def fn(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        n = len(urls)
        scheme = [""] * n
        host = [""] * n
        path = [""] * n
        base = [""] * n
        ghost = [""] * n
        action = [ACTION_PENDING] * n
        key = [""] * n
        prio = np.zeros(n, dtype=np.int32)
        ok = np.ones(n, dtype=bool)
        # the Python loop does ONLY per-row string work (url split /
        # canonicalize); every XXH64 lands in the three vectorized batch
        # calls below (VERDICT r3 item 8 — per-URL Python hashing is real
        # cost at 10^8-row rounds)
        for i, u in enumerate(urls):
            try:
                s, h, p = extract_url_components(u)
            except UrlError:
                action[i] = "parse-url-drop"
                ok[i] = False
                continue
            scheme[i], host[i], path[i] = s, h, p
            base[i] = f"{s}://{h}"
            if cfg.canonicalize_seen:
                key[i] = canonical_url(u)
                ch = h.lower()
                if s == "http" and ch.endswith(":80"):
                    ch = ch[:-3]
                elif s == "https" and ch.endswith(":443"):
                    ch = ch[:-4]
                ghost[i] = ch
            else:
                key[i] = u
                ghost[i] = h
            prio[i] = p.count("/")  # frontier_order="priority": shallow first
        key_hash = np.where(ok, xxhash64_batch(key), np.uint64(0))
        shard = np.where(ok, key_hash % np.uint64(cfg.seen_shards), 0).astype(np.int32)
        # fetch buckets are keyed by the RAW url hash (the corpus layout key)
        bucket_hash = key_hash if not cfg.canonicalize_seen else xxhash64_batch(urls)
        bucket = np.where(
            ok, bucket_hash % np.uint64(cfg.num_fetch_buckets), 0
        ).astype(np.int32)
        # hosts repeat heavily within a block: hash the distinct ones only
        uniq, inv = np.unique(np.asarray(ghost, dtype=object), return_inverse=True)
        hg_uniq = coarse_group(uniq, admission_groups)
        hg = np.where(ok, hg_uniq[inv], 0).astype(np.int32)
        return (
            t.append_column("scheme", pa.array(scheme))
            .append_column("host", pa.array(host))
            .append_column("path", pa.array(path))
            .append_column("base_url", pa.array(base))
            .append_column("group_host", pa.array(ghost))
            .append_column("action", pa.array(action))
            .append_column("seen_key", pa.array(key))
            .append_column("key_hash", pa.array(key_hash, pa.uint64()))
            .append_column("shard", pa.array(shard))
            .append_column("bucket", pa.array(bucket))
            .append_column("hg", pa.array(hg, pa.int32()))
            .append_column("prio", pa.array(prio, pa.int32()))
        )

    return fn


def _shard_groups(idx: np.ndarray, shard: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Rows ``idx`` split by their per-row ``shard`` id: one (shard, row
    indices) group per shard the rows touch, indices in row order — the
    routing of every per-shard state-actor call (one call per group)."""
    sh = shard[idx]
    return [(int(s), idx[sh == s]) for s in np.unique(sh)]


def _seen_test_batch(seen_actors, cfg: CrawlConfig):
    """T1 admit-time membership test (crawler.go:191): route keys to their
    shard actor; one remote call per shard per batch (vectorized routing;
    key hashes were computed once in the prepare stage)."""

    def fn(t: pa.Table) -> pa.Table:
        actions = np.asarray(t.column("action").to_pylist(), dtype=object)
        pending = np.flatnonzero(actions == ACTION_PENDING)
        if len(pending) == 0:
            return t
        keys = t.column("seen_key").to_pylist()
        shards = t.column("shard").to_numpy(zero_copy_only=False)
        hashes = t.column("key_hash").to_numpy(zero_copy_only=False)
        groups = _shard_groups(pending, shards)
        refs = [
            seen_actors[sh].test_batch.remote(
                [keys[i] for i in idxs], hashes[idxs].tolist()
            )
            for sh, idxs in groups
        ]
        for (_sh, idxs), res in zip(groups, ray.get(refs)):
            hit_idx = idxs[np.asarray(res, dtype=bool)]
            actions[hit_idx] = "dup-drop"
        return t.set_column(
            t.schema.get_field_index("action"), "action", pa.array(actions, pa.string())
        )

    return fn


def _admission_group(cfg: CrawlConfig):
    """groupby(hg) — COARSE host-hash groups (VERDICT r2 item 1): each group
    holds MANY hosts (frontier_rows / admission_groups rows), never one pandas
    group per host, and the kernel below is fully vectorized across them.
    Within a group, in seq order:

    1. first-wins intra-round dedup on the seen key (equal keys share
       group_host and therefore hg, so the dedup rides this shuffle for
       free — the first occurrence claims the key regardless of its own
       outcome, mirroring oracle.py's attempted_this_round);
    2. T2 politeness: per-RAW-host slot rank (vectorized cumcount); rank >=
       quota defers WITHOUT consuming a slot, exactly the serial counter's
       behavior (a deferred row never increments host_slots);
    3. M2 urlAllowed (crawler.go:132 politeness precedes :137 allow check):
       pure membership tests (scheme allow-list, path blocklist, host
       blocklist), vectorized with isin.

    Rows that survive are marked ``robots-wait`` — the T3 gate runs in the
    following batched stage (one actor call per shard per batch, never one
    blocking call per host group)."""
    quota = cfg.per_host_quota
    allowed_schemes = list(cfg.allowed_schemes)
    blocked_paths = list(cfg.blocked_paths)
    blocked_hosts = list(cfg.blocked_hosts)
    # processing order: discovery order (fifo), shallowest-path-first
    # (priority), or highest-cash-first (opic).  Order only matters WITHIN a
    # host (quota) and WITHIN a seen key (first-wins) — both entirely inside
    # this group — so a group-local sort realizes the global order exactly
    # (oracle.py mirrors it).  For opic, same-round contributions to one key
    # sum here too: equal keys share hg, so the in-group per-key sum IS the
    # global sum, written back so the kept/deferred row carries it forward.
    opic = cfg.frontier_order == "opic"
    order = ["seq"] if cfg.frontier_order == "fifo" else ["prio", "seq"]

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        if opic:
            cash = df["cash"].to_numpy(np.int64).copy()
            pend0 = df["action"].to_numpy(dtype=object) == ACTION_PENDING
            if pend0.any():
                codes, _u = pd.factorize(df["seen_key"].to_numpy(object)[pend0])
                sums = np.zeros(len(_u), np.int64)
                np.add.at(sums, codes, cash[pend0])
                cash[pend0] = sums[codes]
            df = df.assign(cash=cash, _nc=-cash).sort_values(["_nc", "seq"]).drop(
                columns="_nc"
            )
        else:
            df = df.sort_values(order)
        actions = df["action"].to_numpy(dtype=object, copy=True)
        pending = actions == ACTION_PENDING
        if not pending.any():
            df["action"] = actions
            return df
        dup = pending & df["seen_key"].duplicated(keep="first").to_numpy()
        actions[dup] = "dup-drop"
        idx = np.flatnonzero(pending & ~dup)
        hosts = df["host"].to_numpy()
        rank = pd.Series(0, index=np.arange(len(idx))).groupby(hosts[idx]).cumcount().to_numpy()
        over = rank >= quota
        actions[idx[over]] = "deferred"
        cand = idx[~over]
        ok = (
            pd.Series(df["scheme"].to_numpy()[cand]).isin(allowed_schemes).to_numpy()
            & ~pd.Series(df["path"].to_numpy()[cand]).isin(blocked_paths).to_numpy()
            & ~pd.Series(hosts[cand]).isin(blocked_hosts).to_numpy()
        )
        actions[cand[ok]] = "robots-wait"
        actions[cand[~ok]] = "scheme-drop"
        df["action"] = actions
        return df

    return fn


def _robots_gate_batch(actors, cfg: CrawlConfig):
    """T3 robots gate, batched per shard (VERDICT r1 item 6): rows marked
    ``robots-wait`` are routed to their host's state actor
    (``xxhash64(host) % shards``) — one ``gate_many`` call per shard per
    batch, exactly the `_seen_test_batch` shape.  Concurrent batches hitting
    one host serialize on the shard actor and reuse its cache, so the
    outcome is deterministic."""
    nsh = len(actors)

    def fn(t: pa.Table) -> pa.Table:
        actions = np.asarray(t.column("action").to_pylist(), dtype=object)
        wait = np.flatnonzero(actions == "robots-wait")
        if len(wait) == 0:
            return t
        hosts = t.column("host").to_pylist()
        bases = t.column("base_url").to_pylist()
        urls = t.column("url").to_pylist()
        # hosts repeat heavily within a batch: hash the distinct ones only
        uniq, inv = np.unique(np.asarray(hosts, dtype=object), return_inverse=True)
        shard = (xxhash64_batch(uniq.tolist()) % np.uint64(nsh))[inv]
        groups = _shard_groups(wait, shard)
        refs = [
            actors[sh].gate_many.remote(
                [hosts[i] for i in idxs],
                [bases[i] for i in idxs],
                [urls[i] for i in idxs],
            )
            for sh, idxs in groups
        ]
        for (_sh, idxs), res in zip(groups, ray.get(refs)):
            for i, ok in zip(idxs, res):
                actions[i] = "admitted" if ok else "robots-drop"
        return t.set_column(
            t.schema.get_field_index("action"), "action", pa.array(actions, pa.string())
        )

    return fn


_CORPUS_FETCH_SCHEMA = pa.schema(
    [("url", pa.string()), ("html", pa.binary()),
     ("content_type", pa.string()), ("status_code", pa.int16())]
)


def _fetch_group(corpus_dir: str):
    """J1 fetch join of one bucket's rows — read ONE corpus bucket with an
    `url in (...)` predicate (row-group pruning via url-sorted buckets), then
    a fully vectorized Arrow merge: ``pc.index_in`` + ``take`` + null-fill
    (the Python dict + per-row list appends this replaces sat inside the most
    expensive stage of every round — VERDICT r2 item 3).  Arrow in, Arrow
    out: the html payload bytes are never copied through Python objects."""

    def fn(t: pa.Table) -> pa.Table:
        bucket = int(t.column("bucket")[0].as_py())
        urls = t.column("url").combine_chunks() if isinstance(
            t.column("url"), pa.ChunkedArray
        ) else t.column("url")
        path = os.path.join(corpus_dir, f"bucket={bucket}")
        if os.path.isdir(path):
            corpus = pads.dataset(path, format="parquet").to_table(
                columns=["url", "html", "content_type", "status_code"],
                filter=pads.field("url").isin(urls),
            )
        else:
            corpus = _CORPUS_FETCH_SCHEMA.empty_table()
        idx = pc.index_in(urls, value_set=corpus.column("url").combine_chunks())
        cols = {
                "seq": t.column("seq"),
                "url": t.column("url"),
                "parent_url": t.column("parent_url"),
                "host": t.column("host"),
                "base_url": t.column("base_url"),
                "key_hash": t.column("key_hash"),
        }
        if "cash" in t.schema.names:  # opic: summed cash rides to parse
            cols["cash"] = t.column("cash")
        return pa.table(
            {
                **cols,
                "html": pc.fill_null(pc.take(corpus.column("html"), idx), b""),
                "content_type": pc.fill_null(
                    pc.take(corpus.column("content_type"), idx), ""
                ),
                "status_code": pc.fill_null(
                    pc.take(corpus.column("status_code"), idx), pa.scalar(0, pa.int16())
                ),
                "found": pc.is_valid(idx),
            }
        )

    return fn


def _fetch_range(corpus_dir: str):
    """The fetch over one block of the round's bucket sort (a contiguous
    range of buckets): ``_fetch_group`` once per bucket of the block, each
    bucket's fetched rows yielded as soon as they are read, so the html of
    a whole range never sits in one table."""
    fetch = _fetch_group(corpus_dir)

    def fn(t: pa.Table):
        buckets = t.column("bucket").to_numpy(zero_copy_only=False)
        for b in np.unique(buckets):
            yield fetch(t.filter(pa.array(buckets == b)))

    return fn


class ParsePages:
    """M3-M11 + A1 as one map_batches stage over Arrow batches — the CPU hot
    path.  Stateless per batch: run_crawl maps it as a fused task-pool stage
    (actor pools measured slower on a 4-CPU host)."""

    def __init__(self, cfg: CrawlConfig):
        self.cfg = cfg

    def __call__(self, t: pa.Table) -> pa.Table:
        n = t.num_rows
        # pass-through columns (seq, url, parent_url, host, key_hash,
        # status_code) ride the output as the INPUT Arrow arrays, untouched —
        # no pylist round-trip (VERDICT r2 item 5: parse-stage memory traffic
        # is the measured scaling ceiling).  Only what the parse kernel needs
        # as Python objects is converted.
        urls = t.column("url").to_pylist()
        hosts = t.column("host").to_pylist()
        bases = t.column("base_url").to_pylist()
        htmls = t.column("html").to_pylist()
        cts = t.column("content_type").to_pylist()
        scs = t.column("status_code").to_numpy(zero_copy_only=False)
        founds = t.column("found").to_numpy(zero_copy_only=False)

        action = [""] * n
        # per-row meta-robots noindex flags; the column materializes only
        # under cfg.respect_nofollow so the parity-path parsed schema (and
        # resume compatibility) is unchanged when the flag is off
        noindex = [0] * n
        ctype_out = [""] * n
        content = [None] * n
        mi, ms, mt, md = [""] * n, [""] * n, [""] * n, [""] * n
        # list columns built as flat value buffers + offsets (one
        # ListArray.from_arrays each — no per-row list-of-lists detour)
        kid_off = [0]
        kid_vals: list[str] = []
        w_off = [0]
        w_vals: list[str] = []
        f_vals: list[int] = []

        allowed = self.cfg.effective_content_types
        for i in range(n):
            # fetch error: missing row or status > 399 (utils.go:40-42)
            if not founds[i] or scs[i] > 399:
                action[i] = "fetch-miss"
                kid_off.append(len(kid_vals))
                w_off.append(len(w_vals))
                continue
            # handleCrawlResponse content-type normalization (crawler.go:257)
            ct = cts[i].lower().split(";")[0]
            ctype_out[i] = ct
            if ct not in allowed:  # documentAllowed (crawler.go:274-282)
                action[i] = "type-drop"
                kid_off.append(len(kid_vals))
                w_off.append(len(w_vals))
                continue
            d = parse_page(
                htmls[i], ct, urls[i], bases[i], hosts[i],
                charset_sniffing=self.cfg.charset_sniffing,
                raw_content_type=cts[i],
                strip_boilerplate=self.cfg.strip_boilerplate,
                respect_nofollow=self.cfg.respect_nofollow,
            )
            action[i] = "fetched"
            if self.cfg.respect_nofollow and d["noindex"]:
                noindex[i] = 1
            content[i] = d["content"]
            mi[i] = d["meta_icon_link"]
            ms[i] = d["meta_site_name"]
            mt[i] = d["meta_title"]
            md[i] = d["meta_description"]
            kid_vals.extend(d["child_urls"])
            kid_off.append(len(kid_vals))
            w_vals.extend(d["words"].keys())
            f_vals.extend(d["words"].values())
            w_off.append(len(w_vals))

        kid_offsets = pa.array(kid_off, pa.int32())
        w_offsets = pa.array(w_off, pa.int32())
        passthrough = (
            {"cash": t.column("cash")} if "cash" in t.schema.names else {}
        )
        if self.cfg.respect_nofollow:
            passthrough["noindex"] = pa.array(noindex, pa.int8())
        return pa.table(
            {
                "seq": t.column("seq"),
                "url": t.column("url"),
                "parent_url": t.column("parent_url"),
                "host": t.column("host"),
                "key_hash": t.column("key_hash"),
                **passthrough,
                "action": pa.array(action),
                "content_type": pa.array(ctype_out),
                "status_code": t.column("status_code"),
                "content": pa.array(content, pa.string()),
                "meta_icon_link": pa.array(mi),
                "meta_site_name": pa.array(ms),
                "meta_title": pa.array(mt),
                "meta_description": pa.array(md),
                "child_urls": pa.ListArray.from_arrays(
                    kid_offsets, pa.array(kid_vals, pa.string())
                ),
                "words_w": pa.ListArray.from_arrays(
                    w_offsets, pa.array(w_vals, pa.string())
                ),
                "words_f": pa.ListArray.from_arrays(
                    w_offsets, pa.array(f_vals, pa.int64())
                ),
            }
        )


SLIM_COLUMNS = ["seq", "url", "parent_url", "key_hash", "child_urls", "action"]


def _write_parsed(parsed_dir: str, opic: bool):
    """The parse task's sink: write its block of parsed rows as one file of
    the round's parsed checkpoint, then hand back only the slim columns the
    rest of the round reads (the seen commit, the max_urls cutoff, the
    trace and the child explode) — the html-derived columns stay on disk
    and parsed/ is never read back within the round.

    The file is named by the block's first (smallest) seq, which is unique
    within a round, and lands by temp file + ``os.replace``: a retried task
    rewrites its own file whole, and a reader never sees half a file (the
    temp name starts with '.', which the parquet readers skip)."""
    slim = SLIM_COLUMNS + (["cash"] if opic else [])

    def fn(t: pa.Table) -> pa.Table:
        path = os.path.join(parsed_dir, f"part-{pc.min(t.column('seq')).as_py():020d}.parquet")
        tmp = os.path.join(parsed_dir, f".{os.path.basename(path)}.{uuid.uuid4().hex}")
        os.makedirs(parsed_dir, exist_ok=True)
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return t.select(slim)

    return fn


def _commit_seen_batch(seen_actors, cfg: CrawlConfig):
    """T1 commit AFTER successful parse (crawler.go:178), from the url and
    ``key_hash`` columns of fetched rows (the parsed rows carry the hash the
    prepare stage computed).  Idempotent on the shard, so task retries are
    safe.  Returns the batch: the commit rides another stage as a
    pass-through map."""

    def fn(t: pa.Table) -> pa.Table:
        urls = t.column("url").to_pylist()
        keys = [canonical_url(u) for u in urls] if cfg.canonicalize_seen else urls
        hashes = t.column("key_hash").to_numpy(zero_copy_only=False)
        groups = _shard_groups(
            np.arange(len(urls)), hashes % np.uint64(cfg.seen_shards)
        )
        ray.get(
            [
                seen_actors[sh].commit_batch.remote(
                    [keys[i] for i in idxs], hashes[idxs].tolist()
                )
                for sh, idxs in groups
            ]
        )
        return t

    return fn


def _counts_batch(t: pa.Table) -> pa.Table:
    """(parent seq, child count) rows — the only thing the seq-offset pass
    ever moves off the workers."""
    return pa.table(
        {
            "seq": t.column("seq"),
            "n": pc.fill_null(pc.list_value_length(t.column("child_urls")), 0).cast(
                pa.int64()
            ),
        }
    )


def _distributed_children(kids_src, base_seq: int, nparts: int):
    """Child-seq assignment without a per-page driver pull (VERDICT r1 item
    7), for rounds beyond ``_OFFSETS_DRIVER_MAX`` fetched pages:

    1. (seq, n) rows — 16 B/page — are range-SORTED by seq; within each
       sorted block a local cumsum gives in-block offsets;
    2. per-block (min_seq, total) single-row partials go to the driver —
       O(num_blocks), not O(pages) — for the tiny block-base prefix sum;
    3. one coarse seq-hash ``coarse_cogroup`` of the parents and the
       offsets (same pattern as verify_pairs_join's full-corpus path)
       attaches each parent's offset and explodes its children in-group.

    Returns (children Dataset of (seq, url, parent_url[, cash]), total
    children).  A ``cash`` column on kids_src (frontier_order="opic") rides
    the join and splits per child (integer //, remainder burned).
    The oracle invariant — children numbered consecutively in (parent_seq,
    child_idx) order — is preserved exactly; tests force this path via
    _OFFSETS_DRIVER_MAX=0 and assert full trace equality."""
    with_cash = "cash" in kids_src.schema().names
    counts = (
        kids_src.map_batches(_counts_batch, batch_format="pyarrow")
        .sort("seq")
        .materialize()
    )
    part = counts.map_batches(
        lambda t: pa.table(
            {
                "min_seq": pa.array(
                    [t.column("seq")[0].as_py() if t.num_rows else -1], pa.int64()
                ),
                "total": pa.array(
                    [int(pc.sum(t.column("n")).as_py() or 0)], pa.int64()
                ),
            }
        ),
        batch_size=None,
        batch_format="pyarrow",
    ).to_pandas()
    part = part[part["min_seq"] >= 0].sort_values("min_seq")
    totals = part["total"].to_numpy(dtype=np.int64)
    bases = np.concatenate(([0], np.cumsum(totals)[:-1])) if len(totals) else totals
    acc = int(totals.sum())
    base_by_minseq = dict(zip(part["min_seq"].astype(int), bases.astype(int)))
    bref = ray.put(base_by_minseq)

    def block_offsets(t: pa.Table) -> pa.Table:
        # batch_size=None => exactly one call per stored (sorted) block
        if t.num_rows == 0:
            return pa.table({"seq": pa.array([], pa.int64()), "off": pa.array([], pa.int64())})
        base = ray.get(bref)[int(t.column("seq")[0].as_py())]
        n = t.column("n").to_numpy(zero_copy_only=False)
        off = base + np.concatenate(([0], np.cumsum(n)[:-1]))
        return pa.table({"seq": t.column("seq"), "off": pa.array(off, pa.int64())})

    offsets_ds = counts.map_batches(block_offsets, batch_size=None, batch_format="pyarrow")

    def attach_explode(t: pa.Table, base=base_seq) -> pa.Table:
        # leg 0: parents (seq, url, child_urls[, cash]); leg 1: (seq, off)
        leg = t.column(LEG).to_numpy()
        offs = t.filter(leg == 1)
        kids = t.filter(leg == 0)
        kids = kids.take(pc.sort_indices(kids, [("seq", "ascending")]))
        pos, hit = key_index(offs.column("seq").to_numpy(), kids.column("seq").to_numpy())
        kids = kids.filter(pa.array(hit))  # a parent without an offset row is skipped
        off = offs.column("off").to_numpy()[pos[hit]]
        lists = kids.column("child_urls").combine_chunks()
        n = pc.fill_null(pc.list_value_length(lists), 0).to_numpy().astype(np.int64)
        ci = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
        cols = {
            "seq": pa.array(np.repeat(base + off, n) + ci, pa.int64()),
            "url": pc.list_flatten(lists).cast(pa.string()),
            "parent_url": kids.column("url").take(pa.array(np.repeat(np.arange(len(n)), n))),
        }
        if with_cash:  # integer split per child, remainder burned
            share = kids.column("cash").to_numpy() // np.maximum(n, 1)
            cols["cash"] = pa.array(np.repeat(share, n), pa.int64())
        return pa.table(cols)

    kids = kids_src.select_columns(["seq", "url", "child_urls"] + (["cash"] if with_cash else []))
    children_ds = coarse_cogroup([kids, offsets_ds], "seq", attach_explode, nparts)
    return children_ds, acc


def _has_parquet(path: str) -> bool:
    return os.path.isdir(path) and any(f.endswith(".parquet") for f in os.listdir(path))


def _kids_source(rdir: str, opic: bool) -> "ray.data.Dataset":
    """A round's fetched rows from its parsed checkpoint, pruned to what the
    seen commit and the child explode read (a round where nothing was
    admitted wrote no parsed files: empty table)."""
    path = os.path.join(rdir, "parsed")
    if _has_parquet(path):
        return ray.data.read_parquet(
            path,
            columns=["seq", "url", "key_hash", "child_urls", "action"]
            + (["cash"] if opic else []),
        ).filter(expr="action == 'fetched'")
    cols = {
        "seq": pa.array([], pa.int64()),
        "url": pa.array([], pa.string()),
        "key_hash": pa.array([], pa.uint64()),
        "child_urls": pa.array([], pa.list_(pa.string())),
        "action": pa.array([], pa.string()),
    }
    if opic:
        cols["cash"] = pa.array([], pa.int64())
    return ray.data.from_arrow(pa.table(cols))


def _next_frontier(kids_src, fetched: int, deferred_ds, deferred_rows: int,
                   base_seq: int, cfg: CrawlConfig):
    """The next round's frontier: the children of ``kids_src`` (a
    materialized round's fetched rows) numbered from ``base_seq`` in
    (parent seq, child index) order, union the round's ``deferred_ds``,
    capped at ``cfg.frontier_cap``, repartitioned and materialized.  Built
    by the round loop only when another round will run, and by resume from
    the last complete round's checkpoints.  Returns (frontier Dataset | None
    when empty, frontier rows, children rows)."""
    cluster_cpus = _cluster_cpus()
    if fetched <= _OFFSETS_DRIVER_MAX:
        # small/medium rounds: per-parent (seq, child-count) — two int64 per
        # fetched page, computed DISTRIBUTED and pulled to the driver only
        # for the prefix sum (numpy argsort/cumsum)
        _seq_chunks, _len_chunks = [], []
        for b in kids_src.map_batches(
            _counts_batch, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow"):
            _seq_chunks.append(b.column("seq").to_numpy(zero_copy_only=False))
            _len_chunks.append(b.column("n").to_numpy(zero_copy_only=False))
        if _seq_chunks:
            pseq_arr = np.concatenate(_seq_chunks)
            len_arr = np.concatenate(_len_chunks)
            order = np.argsort(pseq_arr, kind="stable")
            pseq_sorted = pseq_arr[order]
            csum = np.cumsum(len_arr[order])
            off_sorted = np.concatenate(([0], csum[:-1]))
            acc = int(csum[-1]) if len(csum) else 0
        else:
            pseq_sorted = np.array([], dtype=np.int64)
            off_sorted = np.array([], dtype=np.int64)
            acc = 0
        offsets_ref = ray.put((pseq_sorted, off_sorted))

        def explode_children(t: pa.Table, base=base_seq, oref=offsets_ref) -> pa.Table:
            pseq_sorted_, off_sorted_ = ray.get(oref)
            pseqs = t.column("seq").to_pylist()
            parents = t.column("url").to_pylist()
            kids = t.column("child_urls").to_pylist()
            has_cash = "cash" in t.schema.names
            pcash = t.column("cash").to_pylist() if has_cash else None
            seqs, urls, purls, kcash = [], [], [], []
            for j, (pseq, purl, lst) in enumerate(zip(pseqs, parents, kids)):
                o = int(off_sorted_[np.searchsorted(pseq_sorted_, pseq)])
                lst = lst or []
                # OPIC: the page's cash splits equally among its children
                # (integer //, remainder burned)
                share = pcash[j] // len(lst) if (has_cash and lst) else 0
                for ci, k in enumerate(lst):
                    seqs.append(base + o + ci)
                    urls.append(k)
                    purls.append(purl)
                    kcash.append(share)
            cols = {
                "seq": pa.array(seqs, pa.int64()),
                "url": pa.array(urls, pa.string()),
                "parent_url": pa.array(purls, pa.string()),
            }
            if has_cash:
                cols["cash"] = pa.array(kcash, pa.int64())
            return pa.table(cols)

        children_ds = kids_src.map_batches(explode_children, batch_format="pyarrow")
    else:
        # huge rounds: fully distributed prefix sum + repartition join — the
        # driver holds one row per BLOCK, never per page
        children_ds, acc = _distributed_children(kids_src, base_seq, 4 * cluster_cpus)
    rows = deferred_rows + acc
    if rows == 0:
        return None, 0, 0
    frontier_ds = deferred_ds.union(children_ds) if deferred_rows else children_ds
    if cfg.frontier_cap is not None and rows > cfg.frontier_cap:
        # reference artifact, opt-in: bounded frontier drops the highest-seq
        # (latest-enqueued) children, approximating the queue-full silent
        # drop (src/utils/utils.go:192-194)
        frontier_ds = frontier_ds.sort("seq").limit(cfg.frontier_cap)
        rows = cfg.frontier_cap
    # bound the control table's block count: groupby/sort shuffle cost scales
    # with blocks, and unions would otherwise accumulate tiny blocks round
    # over round (~100 B/row => 100k rows/block is small).  Block count =
    # map-stage parallelism for the admission of the next round (operators
    # fuse onto these blocks), so it must cover the cluster CPUs; the cap
    # bounds sort-shuffle overhead.  Materialized, not written and lazily
    # re-read: admission then streams from the object store (measured
    # faster).
    return frontier_ds.repartition(_parallelism(cluster_cpus, rows)).materialize(), rows, acc


# ---------------------------------------------------------------------------
# driver loop
# ---------------------------------------------------------------------------

def _prefetch_seed_robots(actors, seeds: list[str]) -> list:
    """Round 0 gates every seed host at once, one small gate call per
    (admission block, shard); the state actors read those hosts' robots.txt
    ahead instead, one read per corpus bucket each, while run_crawl builds
    the seed frontier.  The host split here is a cheap string split: a host
    it gets wrong only costs a read that the gate never uses.  Returns the
    calls' refs."""
    pairs = {}
    for u in seeds:
        scheme, sep, rest = u.partition("://")
        if sep:
            host = rest.split("/", 1)[0].split("?", 1)[0].split("#", 1)[0]
            pairs.setdefault(host, f"{scheme}://{host}")
    hosts = list(pairs)
    shard = (xxhash64_batch(hosts) % np.uint64(len(actors))).tolist()
    refs = []
    for i, a in enumerate(actors):
        mine = [h for h, s in zip(hosts, shard) if s == i]
        if mine:
            refs.append(a.prefetch_robots.remote(mine, [pairs[h] for h in mine]))
    return refs


def _round_dir(out_dir: str, rnd: int) -> str:
    return os.path.join(out_dir, f"round={rnd:04d}")


def _parquet_file_rows(path: str) -> dict[str, int]:
    """file -> row count from parquet footers only (no data read) — the
    per-partition lineage recorded in round manifests."""
    if not os.path.isdir(path):
        return {}
    return {
        f: pq.ParquetFile(os.path.join(path, f)).metadata.num_rows
        for f in sorted(os.listdir(path))
        if f.endswith(".parquet")
    }


def _completed_rounds(out_dir: str) -> list[int]:
    """Rounds with a complete manifest (the per-round checkpoint unit)."""
    done = []
    if not os.path.isdir(out_dir):
        return done
    for d in sorted(os.listdir(out_dir)):
        if not d.startswith("round="):
            continue
        mpath = os.path.join(out_dir, d, "manifest.json")
        if os.path.exists(mpath):
            with open(mpath) as f:
                m = json.load(f)
            if m.get("complete"):
                done.append(m["round"])
    return done


def run_crawl(
    corpus_dir: str,
    seeds: list[str],
    cfg: CrawlConfig,
    robots_cache_path: str | None = None,
    resume: bool = False,
) -> dict:
    """Run the crawl; returns summary stats.  Ray must already be initialized
    by the caller (driver contract).  ``stats["setup_sec"]`` is the time
    before round 0: the state-actor pool's start-up or reset (with its
    read-ahead of the seed hosts' robots.txt) overlapped with the
    seed-frontier build; ``stats["phase_sec"]`` sums the round phases.

    The state-actor pool outlives the call (``state.pool.open_pool``):
    ``stats["state_pool"]`` is "reused" when this call reset the idle pool
    an earlier call of the Ray session left, "started" when it started one
    (none of this shard count idle, an idle actor had died, or the pool
    belongs to an earlier Ray session).  On return the pool drops its seen set and
    robots cache and stays idle; when the call raises, it is killed.

    ``resume=True``: continue from the last round whose manifest says
    complete — the next frontier is rebuilt from that round's checkpoints
    (parsed fetched rows, ``deferred`` rows, ``first_child_seq``) by the same
    helper the round loop uses.  A last manifest without
    ``first_child_seq`` or ``respect_nofollow`` (an older checkpoint
    layout) raises ``ValueError`` before any round runs: start a fresh
    out_dir.  The seen set is restored from that round's per-shard snapshot
    (``seen/shard=K.parquet``, O(seen set)) when its (mode, shard count)
    match this run's config; otherwise it is rebuilt by re-committing the
    ``url``/``key_hash`` columns of every completed round's parsed file
    (column-pruned reads, O(history)) — ``stats["seen_restore"]`` records
    which path ran.  Interrupted (incomplete) round directories are simply
    overwritten.

    ``resume=False`` treats ``out_dir`` as owned by this run: any round
    directories from a previous crawl are deleted up front — otherwise a
    shorter new crawl would leave the old crawl's higher-numbered complete
    rounds in place and every reader would silently merge them in.  Cross-run
    retention is explicit: separate out_dirs + ``read_documents([...],
    dedup="last")``."""
    if cfg.frontier_order not in ("fifo", "priority", "opic"):
        raise ValueError(f"unknown frontier_order {cfg.frontier_order!r}")
    if cfg.frontier_order in ("priority", "opic") and cfg.max_urls is not None:
        # the max_urls cutoff truncates by SEQ order; priority/opic modes
        # fetch in rank order, so a seq cutoff would keep the wrong rows
        raise ValueError(
            f"frontier_order={cfg.frontier_order!r} is incompatible with max_urls"
        )
    if cfg.frontier_order == "opic" and cfg.fetch_mode != "corpus":
        raise ValueError("frontier_order='opic' requires fetch_mode='corpus'")
    out_dir = cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    # resume: the last complete round's manifest, checked before any actor
    # starts.  Its parsed checkpoint, deferred rows and first_child_seq
    # rebuild the next frontier; respect_nofollow pins the parsed schema
    # (the noindex column) — a resume with a toggled flag would mix
    # per-round schemas in one out_dir, which the readers cannot read.
    done = _completed_rounds(out_dir) if resume else []
    man = None
    if done:
        with open(os.path.join(_round_dir(out_dir, done[-1]), "manifest.json")) as f:
            man = json.load(f)
        if "first_child_seq" not in man or "respect_nofollow" not in man:
            raise ValueError(
                f"resume: the last manifest in {out_dir!r} lacks first_child_seq "
                "or respect_nofollow — it was written by an older checkpoint "
                "layout this engine no longer resumes; start a fresh out_dir."
            )
        if man["respect_nofollow"] != cfg.respect_nofollow:
            raise ValueError(
                f"resume: out_dir was crawled with respect_nofollow="
                f"{man['respect_nofollow']}; this run sets {cfg.respect_nofollow}. "
                "Mixed per-round schemas in one out_dir are not "
                "readable — resume with the original flag or start a "
                "fresh out_dir."
            )
    if not resume:
        for d in os.listdir(out_dir):
            if d.startswith("round="):
                shutil.rmtree(os.path.join(out_dir, d), ignore_errors=True)
    t0 = time.monotonic()

    # finer blocks => better task packing for the fused fetch+parse stage
    # (output blocks split at this size; map parallelism = block count)
    _ctx = ray.data.DataContext.get_current()
    _prev_block_size = _ctx.target_max_block_size
    _ctx.target_max_block_size = 32 * 1024 * 1024

    actors: list = []
    ok = False
    try:
        # --- one stateful actor pool: seen shard (T1) + robots cache (T3) per
        # actor; the idle pool of this session is reset (or a fresh one
        # starts) while the seed frontier is built below ---
        nsh = cfg.seen_shards
        # the robots cache split by state-actor shard (``xxhash64(host) %
        # shards``, StateShard's routing), every cached host hashed once
        initial_robots: list[dict[str, tuple[str, int]]] = [{} for _ in range(nsh)]
        if robots_cache_path and os.path.exists(robots_cache_path):
            rt = pq.read_table(robots_cache_path)
            hosts = rt.column("host").to_pylist()
            for h, i, b, ts_us in zip(
                hosts,
                (xxhash64_batch(hosts) % np.uint64(nsh)).tolist(),
                rt.column("robots").to_pylist(),
                rt.column("ts").cast(pa.int64()).to_pylist(),  # tz-safe epoch µs
            ):
                initial_robots[i][h] = (b, ts_us)
        shard_kwargs = [
            dict(
                seen_mode=cfg.seen_mode,
                seen_capacity=SEEN_CAPACITY,
                corpus_dir=corpus_dir,
                num_buckets=cfg.num_fetch_buckets,
                user_agent=cfg.user_agent,
                now_us=cfg.now_us,
                ttl_days=ROBOTS_TTL_DAYS,
                initial=initial_robots[i],
                fetch_mode=cfg.fetch_mode,
                http_timeout_s=HTTP_TIMEOUT_S,
            )
            for i in range(nsh)
        ]

        def _open(reuse: bool) -> tuple[list, list, bool]:
            actors, refs, reused = open_pool(shard_kwargs, reuse)
            if not resume and cfg.fetch_mode == "corpus":
                refs += _prefetch_seed_robots(actors, seeds)
            return actors, refs, reused

        actors, pending, reused = _open(reuse=True)

        start_round = 0
        _opic = cfg.frontier_order == "opic"
        _seed_cols = {
            "seq": pa.array(range(len(seeds)), pa.int64()),
            "url": pa.array(seeds, pa.string()),
            "parent_url": pa.array([""] * len(seeds), pa.string()),
        }
        if _opic:
            # each seed starts with an equal share of the total cash (the
            # OPIC init); integer //, remainder burned — oracle.py mirrors
            _seed_cols["cash"] = pa.array(
                [OPIC_TOTAL_CASH // max(1, len(seeds))] * len(seeds), pa.int64()
            )
        frontier = pa.table(_seed_cols)
        # split the seed table on the driver: block count = map parallelism for
        # round 0 (a single from_arrow block would serialize the whole first
        # round, and a repartition of it costs one more execution)
        cpus = _cluster_cpus()
        step = max(1, -(-len(seeds) // _parallelism(cpus, len(seeds))))  # ceil division
        frontier_ds = ray.data.from_arrow(
            [frontier.slice(i, step) for i in range(0, max(1, len(seeds)), step)]
        )
        next_seq = len(seeds)
        frontier_rows = len(seeds)
        try:
            ray.get(pending)
        except ray.exceptions.RayActorError:
            if not reused:
                raise
            # an actor of the idle pool died between calls: start afresh
            close_pool(actors, ok=False)
            actors, pending, reused = _open(reuse=False)
            ray.get(pending)
        stats = {
            "rounds": 0, "fetched": 0, "frontier_total": len(seeds),
            "setup_sec": time.monotonic() - t0,
            "state_pool": "reused" if reused else "started",
        }

        if man is not None:
            last = done[-1]
            start_round = last + 1
            next_seq = man["next_seq"]
            stats["rounds"] = start_round
            stats["resumed_from_round"] = last

            # fast path: restore the last complete round's seen-shard
            # snapshots — O(seen set), not O(crawl history) (VERDICT r2
            # item 2).  Only when the snapshot's (mode, shard count) match
            # this run's config: shard routing is hash % num_shards, so a
            # different count would scatter keys to the wrong actors.
            seen_dir = os.path.join(_round_dir(out_dir, last), "seen")
            meta_path = os.path.join(seen_dir, "meta.json")
            snap_ok = False
            if os.path.exists(meta_path):
                with open(meta_path) as f:
                    smeta = json.load(f)
                snap_ok = (
                    smeta.get("mode") == cfg.seen_mode
                    and smeta.get("shards") == cfg.seen_shards
                    and all(
                        os.path.exists(os.path.join(seen_dir, f"shard={i}.parquet"))
                        for i in range(cfg.seen_shards)
                    )
                )
            if snap_ok:
                ray.get(
                    [
                        actors[i].load.remote(
                            os.path.join(seen_dir, f"shard={i}.parquet")
                        )
                        for i in range(cfg.seen_shards)
                    ]
                )
                stats["seen_restore"] = "snapshot"
                # per-round fetched counts come straight from the manifests
                # (admitted_rows is the committed count, cutoff-adjusted)
                total = 0
                for r in done:
                    with open(os.path.join(_round_dir(out_dir, r), "manifest.json")) as f:
                        total += json.load(f).get("admitted_rows", 0)
                stats["fetched"] = total
            else:
                stats["seen_restore"] = "rebuild"
                # fallback: rebuild the seen set by re-committing the fetched
                # rows of all completed rounds (column-pruned reads; O(history))
                commit = _commit_seen_batch(actors, cfg)

                def _recommit(files: list[str], cut: int | None = None) -> int:
                    ds = ray.data.read_parquet(
                        files, columns=["seq", "url", "key_hash", "action"]
                    ).filter(expr="action == 'fetched'")
                    if cut is not None:
                        ds = ds.filter(expr=f"seq <= {cut}")
                    return ds.map_batches(commit, batch_format="pyarrow").count()

                rounds = [(fl, cut) for r, fl, cut in _parsed_rounds(out_dir) if r in done]
                plain = [f for fl, cut in rounds if cut is None for f in fl]
                # at most one cut round: a cutoff ends the crawl
                stats["fetched"] = (_recommit(plain) if plain else 0) + sum(
                    _recommit(fl, cut) for fl, cut in rounds if cut is not None
                )
            last_dir = _round_dir(out_dir, last)
            if start_round >= cfg.max_rounds or man.get("seq_cutoff") is not None:
                frontier_rows = 0  # nothing left to run
            else:
                # the frontier the next round would have read, rebuilt from the
                # last round's parsed checkpoint + deferred rows
                kids = _kids_source(last_dir, _opic).materialize()
                deferred_rows = man["deferred_rows"]
                frontier_ds, frontier_rows, acc = _next_frontier(
                    kids,
                    kids.count(),
                    ray.data.read_parquet(os.path.join(last_dir, "deferred"))
                    if deferred_rows else None,
                    deferred_rows,
                    man["first_child_seq"],
                    cfg,
                )
                next_seq = man["first_child_seq"] + acc
                stats["frontier_total"] += acc

        for rnd in range(start_round, cfg.max_rounds):
            if frontier_rows == 0:
                break
            stats["rounds"] = rnd + 1
            rdir = _round_dir(out_dir, rnd)
            # a crashed earlier attempt may have left parquet files in this
            # round dir that this attempt's files would not replace; they
            # would be re-read as duplicate rows — delete before (re)writing
            shutil.rmtree(rdir, ignore_errors=True)
            _pt = time.monotonic()
            round_phases: dict[str, float] = {}

            def _phase(name: str) -> None:
                nonlocal _pt
                now = time.monotonic()
                stats.setdefault("phase_sec", {})
                stats["phase_sec"][name] = stats["phase_sec"].get(name, 0.0) + (now - _pt)
                round_phases[name] = round(round_phases.get(name, 0.0) + (now - _pt), 3)
                _pt = now

            def _lineage() -> dict:
                """Per-round metrics + per-partition lineage for the manifest
                (north rule): the sink files (= output partitions) with their
                footer row counts, and this round's phase timings."""
                files = _parquet_file_rows(os.path.join(rdir, "parsed"))
                return {
                    "phase_sec": round_phases,
                    "parsed_partitions": files,
                    "parsed_rows": sum(files.values()),
                }

            # ---- admission: prepare -> seen test -> dedup+politeness ->
            # batched robots gate ----
            # coarse admission shuffle: one big vectorized group per frontier
            # block, not one pandas group per host (VERDICT r2 item 1)
            prepared = frontier_ds.map_batches(
                _prepare_batch(cfg, _parallelism(cpus, frontier_rows)), batch_format="pyarrow"
            ).map_batches(_seen_test_batch(actors, cfg), batch_format="pyarrow")
            admission = (
                prepared.groupby("hg")
                .map_groups(_admission_group(cfg), batch_format="pandas")
                .map_batches(_robots_gate_batch(actors, cfg), batch_format="pyarrow")
                .materialize()
            )
            _phase("admission")

            admitted = admission.filter(expr="action == 'admitted'")
            # ---- fetch (corpus point join | live-HTTP actor pool) ->
            # parse -> sink; the parse width is the fetch block count ----
            if cfg.fetch_mode == "http":
                from ..sources.httpfetch import HttpFetcher

                fetched_src = admitted.map_batches(
                    HttpFetcher,
                    fn_constructor_kwargs=dict(
                        user_agent=cfg.user_agent,
                        timeout_s=HTTP_TIMEOUT_S,
                        max_threads=HTTP_THREADS,
                    ),
                    concurrency=cfg.http_concurrency,
                    batch_size=64,
                    num_cpus=0.25,  # I/O-bound: don't starve parse of cores
                    batch_format="pyarrow",
                )
            else:
                # equal bucket ranges, ~2 per CPU: explicit boundaries skip
                # the sampling pass of a groupby's sort, and one fetch call
                # reads every bucket of its range once
                bounds = _bucket_boundaries(
                    cfg.num_fetch_buckets, _parallelism(2 * cpus, frontier_rows)
                )
                ranged = admitted.sort("bucket", boundaries=bounds) if bounds else admitted.repartition(1)
                fetched_src = ranged.map_batches(
                    _fetch_range(corpus_dir), batch_size=None, batch_format="pyarrow"
                )
            parsed_dir = os.path.join(rdir, "parsed")
            slim = (
                fetched_src.map_batches(
                    ParsePages(cfg), batch_format="pyarrow", batch_size=cfg.parse_batch_size
                )
                .map_batches(_write_parsed(parsed_dir, _opic), batch_size=None, batch_format="pyarrow")
                .materialize()
            )
            _phase("fetch_parse_write")

            # a round where nothing was admitted writes no parsed files at all
            parsed_exists = _has_parquet(parsed_dir)

            # ---- max_urls budget (mirrors oracle.py:166): the oracle stops
            # mid-round at the fetch that reaches the budget; everything after
            # that frontier seq is never attempted.  Distributed equivalent:
            # find the cutoff seq (the `remaining`-th fetched seq in order)
            # and truncate every downstream consumer at it.  The driver-side
            # seq pull here is gated on max_urls being set, and is bounded by
            # the round's fetched count.
            seq_cutoff: int | None = None
            stop_after_round = False
            if cfg.max_urls is not None and parsed_exists:
                # oracle checks AFTER each fetch, so even max_urls<=fetched
                # still performs one more fetch before stopping
                remaining = max(1, cfg.max_urls - stats["fetched"])
                fseq_chunks = []
                for b in (
                    slim.select_columns(["seq", "action"])
                    .filter(expr="action == 'fetched'")
                    .iter_batches(batch_format="pyarrow")
                ):
                    fseq_chunks.append(b.column("seq").to_numpy(zero_copy_only=False))
                fs = (
                    np.sort(np.concatenate(fseq_chunks))
                    if fseq_chunks
                    else np.array([], dtype=np.int64)
                )
                if len(fs) >= remaining:
                    seq_cutoff = int(fs[remaining - 1])
                    stop_after_round = True

            # ---- trace sink: admission drops + parse outcomes, ONE fused
            # write (two separate writes were per-round fixed cost) ----
            def _as_trace(t: pa.Table, r=rnd) -> pa.Table:
                return pa.table(
                    {
                        "round": pa.array([r] * t.num_rows, pa.int32()),
                        "seq": t.column("seq"),
                        "url": t.column("url"),
                        "parent_url": t.column("parent_url"),
                        "action": t.column("action"),
                    }
                )

            if cfg.write_trace:
                tds = admission.filter(expr="action != 'admitted'").select_columns(
                    ["seq", "url", "parent_url", "action"]
                )
                if parsed_exists:
                    tds = tds.union(slim.select_columns(["seq", "url", "parent_url", "action"]))
                if seq_cutoff is not None:
                    tds = tds.filter(expr=f"seq <= {seq_cutoff}")
                tds.map_batches(_as_trace, batch_format="pyarrow").write_parquet(
                    os.path.join(rdir, "trace")
                )
            _phase("trace")

            # ---- post-round control table: the fetched slim rows serve
            # seen-commit, child counts and explode.  The seen commit (AFTER
            # parse success, crawler.go:178, and after the max_urls cutoff)
            # rides this materialize as a pass-through map — idempotent on
            # the shard, so a retried task is harmless.
            if parsed_exists:
                keep = "action == 'fetched'" + (
                    f" and seq <= {seq_cutoff}" if seq_cutoff is not None else ""
                )
                kids_src = (
                    slim.filter(expr=keep)
                    .map_batches(_commit_seen_batch(actors, cfg), batch_format="pyarrow")
                    .materialize()
                )
            else:
                kids_src = _kids_source(rdir, _opic)  # nothing parsed: an empty table
            committed = kids_src.count()
            stats["fetched"] += int(committed)
            _phase("kids_read_commit")

            # ---- seen-shard snapshot (resume fast path): each actor writes
            # its own shard file — the key set never moves through the
            # driver; meta.json pins (mode, shard count) so resume only
            # restores a compatible snapshot ----
            if cfg.seen_snapshots:
                ray.get(
                    [
                        a.save.remote(
                            os.path.join(rdir, "seen", f"shard={i}.parquet")
                        )
                        for i, a in enumerate(actors)
                    ]
                )
                with open(os.path.join(rdir, "seen", "meta.json"), "w") as f:
                    json.dump({"mode": cfg.seen_mode, "shards": cfg.seen_shards}, f)
                _phase("seen_snapshot")

            manifest = {
                "round": rnd,
                "admitted_rows": int(committed),
                "deferred_rows": 0,
                "first_child_seq": next_seq,
                "children_rows": None,
                "next_frontier_rows": None,
                "next_seq": None,
                "seq_cutoff": seq_cutoff,
                "complete": True,
                "respect_nofollow": cfg.respect_nofollow,
            }
            if stop_after_round:
                # budget reached mid-round: no next frontier, crawl is over
                # (readers apply seq_cutoff from this manifest to the round's
                # parsed files — they were written before the cutoff was known)
                manifest.update(next_frontier_rows=0, next_seq=next_seq)
            else:
                # ---- round checkpoint for resume: the deferred rows (with
                # the parsed file and first_child_seq they rebuild the next
                # frontier); the frontier itself is built only when another
                # round will run ----
                deferred_ds = (
                    admission.filter(expr="action == 'deferred'")
                    .select_columns(["seq", "url", "parent_url"] + (["cash"] if _opic else []))
                    .materialize()
                )
                deferred_rows = deferred_ds.count()
                if deferred_rows:
                    deferred_ds.write_parquet(os.path.join(rdir, "deferred"))
                manifest["deferred_rows"] = deferred_rows
                if rnd + 1 < cfg.max_rounds:
                    frontier_ds, frontier_rows, acc = _next_frontier(
                        kids_src, committed, deferred_ds, deferred_rows, next_seq, cfg
                    )
                    next_seq += acc
                    stats["frontier_total"] += acc
                    manifest.update(
                        children_rows=acc, next_frontier_rows=frontier_rows, next_seq=next_seq
                    )
                _phase("next_frontier")
            with open(os.path.join(rdir, "manifest.json"), "w") as f:
                json.dump({**manifest, **_lineage()}, f)
            if stop_after_round:
                break

        # final robots snapshot (↔ Robots collection, db.go:102-109)
        rows = [r for snap in ray.get([a.robots_snapshot.remote() for a in actors]) for r in snap]
        if rows:
            t = pa.table(
                {
                    "host": pa.array([r[0] for r in rows]),
                    "robots": pa.array([r[1] for r in rows]),
                    "ts": pa.array([r[2] for r in rows], pa.timestamp("us")),
                }
            )
            pq.write_table(t.sort_by("host"), os.path.join(out_dir, "robots_final.parquet"))
        ok = True
    finally:
        _ctx.target_max_block_size = _prev_block_size
        close_pool(actors, ok)

    stats["wall_sec"] = time.monotonic() - t0
    return stats


# ---------------------------------------------------------------------------
# output readers (the sinks are projections of the round checkpoints)
# ---------------------------------------------------------------------------

def _round_files(out_dir: str, sub: str) -> list[str]:
    """All parquet files of one sink across rounds (read_parquet wants files
    when given a list)."""
    files: list[str] = []
    for d in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, d, sub)
        if d.startswith("round=") and os.path.isdir(p):
            files.extend(
                os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")
            )
    return files


def _round_cutoffs(out_dir: str) -> dict[int, int]:
    """round -> seq_cutoff, for rounds truncated by the max_urls budget (the
    parsed files of such a round contain rows past the budget; readers must
    filter them out).  At most one round — a cutoff ends the crawl."""
    cuts: dict[int, int] = {}
    if not os.path.isdir(out_dir):
        return cuts
    for d in sorted(os.listdir(out_dir)):
        if not d.startswith("round="):
            continue
        m = os.path.join(out_dir, d, "manifest.json")
        if os.path.exists(m):
            with open(m) as f:
                j = json.load(f)
            if j.get("seq_cutoff") is not None:
                cuts[j["round"]] = j["seq_cutoff"]
    return cuts


def _parsed_rounds(out_dir: str) -> list[tuple[int, list[str], int | None]]:
    """[(round, parquet files, seq_cutoff | None)] for every round with data."""
    cuts = _round_cutoffs(out_dir)
    out: list[tuple[int, list[str], int | None]] = []
    if not os.path.isdir(out_dir):
        return out
    for d in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, d, "parsed")
        if not (d.startswith("round=") and os.path.isdir(p)):
            continue
        rnd = int(d.split("=")[1])
        fl = [os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")]
        if fl:
            out.append((rnd, fl, cuts.get(rnd)))
    return out


def _empty_ds(schema: pa.Schema) -> "ray.data.Dataset":
    return ray.data.from_arrow(schema.empty_table())


def _read_fetched(out_dirs: list[str], columns: list[str]):
    """The document/words sink rows: parsed rows with action 'fetched'
    across runs (run order = list order), projected to ``columns`` plus
    ``seq`` and (run_i, rnd) provenance, the upsert-on-read order.  Rows
    past a round's max_urls seq cutoff are cut, and so are meta-robots
    noindex rows (that column exists only when the crawl ran with
    respect_nofollow: fetched + followed, not indexed — the REP
    semantics).  None when no files."""
    keep = list(dict.fromkeys(columns + ["seq"]))
    parts = []
    for ri, d in enumerate(out_dirs):
        for rnd, fl, cutoff in _parsed_rounds(d):
            cond = ["action == 'fetched'"]
            ni = "noindex" in pq.read_schema(fl[0]).names
            if ni:
                cond.append("noindex == 0")
            if cutoff is not None:
                cond.append(f"seq <= {cutoff}")

            def tag(t: pa.Table, ri=ri, rnd=rnd) -> pa.Table:
                n = t.num_rows
                return t.select(keep).append_column(
                    "run_i", pa.array(np.full(n, ri, np.int32))
                ).append_column("rnd", pa.array(np.full(n, rnd, np.int32)))

            parts.append(
                ray.data.read_parquet(
                    fl, columns=keep + ["action"] + (["noindex"] if ni else [])
                )
                .filter(expr=" and ".join(cond))
                .map_batches(tag, batch_format="pyarrow")
            )
    if len(parts) > 1:
        return parts[0].union(*parts[1:])
    return parts[0] if parts else None


def _last_wins(ds, out_columns: list[str], num_groups: int = 256):
    """Upsert-on-read: keep the NEWEST (run_i, rnd, seq) row per url — the
    read-side equivalent of the reference's couchbase Upsert keyed on url
    (src/db/db.go:64,73), where a re-crawl's row replaces the earlier one.
    Coarse url-hash groups keep the groupby wide and vectorized."""

    def pick(df: pd.DataFrame) -> pa.Table:
        df = df.sort_values(["url", "run_i", "rnd", "seq"]).drop_duplicates(
            "url", keep="last"
        )
        return pa.Table.from_pandas(df[out_columns], preserve_index=False)

    return coarse_groupby(ds, "url", pick, num_groups, "pandas")


_DOCS_SCHEMA = pa.schema(
    [("url", pa.string()), ("parent_url", pa.string()),
     ("content_type", pa.string()), ("status_code", pa.int16()),
     ("content", pa.string()), ("meta_icon_link", pa.string()),
     ("meta_site_name", pa.string()), ("meta_title", pa.string()),
     ("meta_description", pa.string())]
)


def read_documents(out_dir: str | list[str], dedup: str | None = None) -> "ray.data.Dataset":
    """documents sink (↔ InsertDocument projection, common.go:44-54).

    ``out_dir`` may be a list of run directories (run order = list order).
    ``dedup="last"`` applies the reference's upsert semantics at read time:
    one row per url, the newest (run, round, seq) wins — re-running a crawl
    over the same corpus then reading both runs behaves like the couchbase
    Upsert (db.go:64).  Default (None) is raw append across runs."""
    if dedup not in (None, "last"):
        raise ValueError(f"unknown dedup mode {dedup!r} (None or 'last')")
    ds = _read_fetched([out_dir] if isinstance(out_dir, str) else list(out_dir), DOC_COLUMNS)
    if ds is None:  # a crawl can legitimately fetch nothing (all seeds denied)
        return _empty_ds(_DOCS_SCHEMA)
    return _last_wins(ds, DOC_COLUMNS) if dedup == "last" else ds.select_columns(DOC_COLUMNS)


def read_words(out_dir: str | list[str], dedup: str | None = None) -> "ray.data.Dataset":
    """words sink (↔ Word rows, db.go:71-79): explode the per-doc word lists.
    ``dedup="last"`` keeps only the newest run/round's words per url — the
    reference's InsertWords upsert (db.go:73) replaces a url's whole word
    list on re-crawl."""
    if dedup not in (None, "last"):
        raise ValueError(f"unknown dedup mode {dedup!r} (None or 'last')")
    cols = ["url", "words_w", "words_f"]
    ds = _read_fetched([out_dir] if isinstance(out_dir, str) else list(out_dir), cols)
    if ds is None:
        return _empty_ds(
            pa.schema(
                [("parent_url", pa.string()), ("word", pa.string()),
                 ("frequency", pa.int64())]
            )
        )
    ds = _last_wins(ds, cols) if dedup == "last" else ds.select_columns(cols)

    def explode(t: pa.Table) -> pa.Table:
        urls, ws, fs = [], [], []
        for u, w_list, f_list in zip(
            t.column("url").to_pylist(),
            t.column("words_w").to_pylist(),
            t.column("words_f").to_pylist(),
        ):
            for w, f in zip(w_list or [], f_list or []):
                urls.append(u)
                ws.append(w)
                fs.append(f)
        return pa.table(
            {
                "parent_url": pa.array(urls, pa.string()),
                "word": pa.array(ws, pa.string()),
                "frequency": pa.array(fs, pa.int64()),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def crawl_report(out_dir: str) -> dict:
    """Read-side metrics: per-round manifests (row counts, partition lineage,
    phase timings, cutoffs) plus per-round action tallies when a trace was
    written.  Pure checkpoint reads — no recomputation, callable on a live
    or crashed out_dir."""
    rounds = []
    total_rows = 0
    for d in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []:
        if not d.startswith("round="):
            continue
        rd = os.path.join(out_dir, d)
        m = os.path.join(rd, "manifest.json")
        entry: dict = {"round": int(d.split("=")[1]), "complete": False}
        if os.path.exists(m):
            with open(m) as f:
                entry.update(json.load(f))
        entry["partitions"] = len(entry.pop("parsed_partitions", {}) or {})
        total_rows += entry.get("parsed_rows", 0) or 0
        td = os.path.join(rd, "trace")
        tfiles = [
            os.path.join(td, f)
            for f in (sorted(os.listdir(td)) if os.path.isdir(td) else [])
            if f.endswith(".parquet")
        ]
        if tfiles:
            actions: dict[str, int] = {}
            for f in tfiles:
                t = pq.read_table(f, columns=["action"])
                for a, n in zip(*np.unique(t.column("action").to_numpy(zero_copy_only=False), return_counts=True)):
                    actions[str(a)] = actions.get(str(a), 0) + int(n)
            entry["actions"] = actions
        rounds.append(entry)
    return {
        "rounds": rounds,
        "num_rounds": len(rounds),
        "complete_rounds": sum(1 for r in rounds if r.get("complete")),
        "parsed_rows_total": total_rows,
    }


def read_trace(out_dir: str) -> "ray.data.Dataset":
    """crawl trace (FIXTURES.md §4): all actions, ordered by (round, seq)."""
    files = _round_files(out_dir, "trace")
    if not files:
        return _empty_ds(
            pa.schema(
                [("round", pa.int32()), ("seq", pa.int64()), ("url", pa.string()),
                 ("parent_url", pa.string()), ("action", pa.string())]
            )
        )
    return ray.data.read_parquet(files)


def host_graph(out_dir: str) -> "ray.data.Dataset":
    """Host-level web graph from the crawl trace: one row per
    (src_host, dst_host) pair with the count of discovered links — the
    link-analysis view a crawler feeds into PageRank/host reputation
    (graph.pagerank consumes exactly this edge shape).

    Every trace row with a parent is a discovered link (whatever its
    admission outcome — dedup'd, robots-dropped and deferred children are
    still edges of the web graph the crawl observed).  Hosts come from the
    Go-parity url parser (urlops.extract_url_components); unparseable URLs
    — impossible for engine-emitted trace rows — would fall back to ''.

    Shape: stateless Arrow map (host extraction) -> ONE (src,dst)-hash
    groupby count.  Read is column-pruned to (url, parent_url).
    """
    from ray.data.aggregate import Count

    from ..urlops import UrlError, extract_url_components

    files = _round_files(out_dir, "trace")
    if not files:
        return _empty_ds(
            pa.schema(
                [("src_host", pa.string()), ("dst_host", pa.string()),
                 ("n_links", pa.int64())]
            )
        )

    def _host(u: str) -> str:
        try:
            return extract_url_components(u)[1]
        except UrlError:
            return ""

    def edges(t: pa.Table) -> pa.Table:
        parents = t.column("parent_url").to_pylist()
        urls = t.column("url").to_pylist()
        src, dst = [], []
        for p, u in zip(parents, urls):
            if not p:  # seed rows have no parent: not an edge
                continue
            src.append(_host(p))
            dst.append(_host(u))
        return pa.table(
            {
                "src_host": pa.array(src, pa.string()),
                "dst_host": pa.array(dst, pa.string()),
            }
        )

    return (
        ray.data.read_parquet(files, columns=["url", "parent_url"])
        .map_batches(edges, batch_format="pyarrow")
        .groupby(["src_host", "dst_host"])
        .aggregate(Count(alias_name="n_links"))
    )


def _host_nodes_pairs(out_dir: str):
    """Shared host-graph prep for the graph analytics: distinct hosts with
    stable int64 ids (xxhash64 >> 1; a collision needs ~2^31.5 hosts) and
    the hashed (a, b) edge pairs.  Both datasets are materialized — each
    is consumed by more than one downstream stage."""
    from ray.data.aggregate import Count

    hg = host_graph(out_dir).materialize()  # consumed by nodes AND pairs

    def _hid(hosts: pa.ChunkedArray) -> pa.Array:
        return pa.array((xxhash64_batch(hosts.to_pylist()) >> np.uint64(1)).astype(np.int64))

    def edge_rows(t: pa.Table) -> pa.Table:
        return pa.table({"a": _hid(t.column("src_host")), "b": _hid(t.column("dst_host"))})

    def node_rows(t: pa.Table) -> pa.Table:
        hosts = t.column("src_host").to_pylist() + t.column("dst_host").to_pylist()
        return pa.table({"host": pa.array(hosts, pa.string())})

    nodes = (
        hg.map_batches(node_rows, batch_format="pyarrow")
        .groupby("host")
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
    )

    def with_id(t: pa.Table) -> pa.Table:
        return pa.table({"host": t.column("host"), "doc_id": _hid(t.column("host"))})

    nodes = nodes.map_batches(with_id, batch_format="pyarrow").materialize()
    pairs = hg.map_batches(edge_rows, batch_format="pyarrow").materialize()
    return nodes, pairs


def host_components(out_dir: str) -> "ray.data.Dataset":
    """Weakly-connected components of the host link graph — "which host
    clusters does the crawl actually interlink" (mirror detection, seed-set
    auditing).  Composes existing operators: _host_nodes_pairs ->
    functions.dedup.dedup_components label propagation -> one
    repartition_join to put the host strings back.  Output (host,
    component) with component = the min host-id of the cluster."""
    from ..functions.dedup import dedup_components
    from ..functions.joins import repartition_join

    nodes, pairs = _host_nodes_pairs(out_dir)
    comp = dedup_components(nodes.select_columns(["doc_id"]), pairs)
    return repartition_join(
        comp, nodes, on_left="doc_id", on_right="doc_id"
    ).select_columns(["host", "component"])


def host_rank(out_dir: str, iters: int = 5) -> "ray.data.Dataset":
    """Host reputation: the pinned fixed-point PageRank recurrence
    (functions.graph.pagerank — symmetrized edges, integer ranks) over the
    crawl's host link graph, host strings joined back on.  Output (host,
    rank) with rank the int64 fixed-point score."""
    from ..functions.graph import pagerank
    from ..functions.joins import repartition_join

    # explicit arrow renames: Ray 2.49 Dataset.rename_columns delegates to
    # DataFrame.rename_columns on pandas blocks, which doesn't exist
    def _rn(old: str, new: str):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([new if c == old else c for c in t.column_names])

        return fn

    nodes, pairs = _host_nodes_pairs(out_dir)
    ranks = pagerank(
        nodes.select_columns(["doc_id"]).map_batches(
            _rn("doc_id", "v"), batch_format="pyarrow"
        ),
        pairs,
        iters=iters,
    )
    return repartition_join(
        ranks.map_batches(_rn("v", "doc_id"), batch_format="pyarrow"), nodes,
        on_left="doc_id", on_right="doc_id",
    ).select_columns(["host", "rank"])


def compact_runs(out_dirs: list[str] | str, dest: str, num_buckets: int = 64) -> dict:
    """Offline compaction: materialize the last-wins view of a crawl-run
    sequence into ONE url-hash-bucketed parquet dataset — the maintenance
    pass that keeps read amplification bounded after many incremental
    recrawls (N runs' round files collapse to one partitioned table; the
    bucket layout is the same one the fetch point-join and ANN indexes
    use, so compacted output is directly joinable).

    Bucket partitioning (``bucket=K/`` directories) keeps the write
    streaming AND resumable-by-partition; readers prune to buckets.
    Returns {dest, rows, buckets}.  Read back with
    ``ray.data.read_parquet(dest)``.

    ``dest`` is OVERWRITTEN: an existing dest is deleted and rebuilt — but
    only if it is absent, empty, or looks like a prior compaction output
    (``bucket=*`` partition dirs only); anything else raises rather than
    recursively deleting an unrelated directory on a mistyped path.
    """
    if os.path.isdir(dest):
        entries = os.listdir(dest)
        if entries and not all(e.startswith("bucket=") for e in entries):
            raise ValueError(
                f"compact_runs: refusing to overwrite {dest!r} — it exists and "
                "does not look like a prior compaction output (expected only "
                "bucket=*/ partition dirs); remove it yourself or pick an "
                "absent dest"
            )

    docs = read_documents(out_dirs, dedup="last")

    def add_bucket(t: pa.Table) -> pa.Table:
        b = xxhash64_batch(t.column("url").to_pylist()) % np.uint64(num_buckets)
        return t.append_column("bucket", pa.array(b.astype(np.int32)))

    shutil.rmtree(dest, ignore_errors=True)
    ds = docs.map_batches(add_bucket, batch_format="pyarrow")
    ds.write_parquet(dest, partition_cols=["bucket"])
    written = ray.data.read_parquet(dest)
    return {"dest": dest, "rows": written.count(), "buckets": num_buckets}
