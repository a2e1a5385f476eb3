"""URL-space analytics for crawl scheduling.

The reference crawls whatever it discovers (src/crawler.go:96-313 has no
URL-space model); at web scale the frontier must detect *spider traps* —
hosts whose URL space is generated (calendars, session ids, faceted
search) and therefore unbounded.  The standard signal (Heydon & Najork,
"Mercator: A scalable, extensible Web crawler", WWW 1999, §URL frontier
politeness/trap notes) is template collapse: strip the digit runs out of
every path and compare how many *templates* a host has against how many
*URLs* it emits.  A host with 10^6 URLs but 3 templates is a trap; its
frontier budget should be capped near the template count.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

from ..shuffle import coarse_groupby

_HOST_RE = r"^[a-z][a-z0-9+.-]*://([^/]+)"
_SCHEME_HOST_RE = r"^[a-z][a-z0-9+.-]*://[^/]*"


def url_template_stats(ds, url_col: str = "url", num_groups: int = 64):
    """Per-host URL-template statistics: ``n_urls`` (rows seen),
    ``n_templates`` (distinct paths after every digit run collapses to
    'N'), and ``trap_score = n_urls / n_templates`` — the crawl-budget
    signal (high score = generated URL space, cap the host's frontier).

    Shape (100-TB path): the map stage extracts (host, template) and
    pre-aggregates per batch (one pandas groupby → distinct pairs with
    counts), so the wire carries the batch's *template vocabulary*, not
    its rows; ONE coarse host-hash shuffle; per-group vectorized combine
    (sum partial counts per pair, then distinct-template and URL counts
    per host).  Hosts are never per-key groups — num_groups vectorized
    buckets, same discipline as the rest of the repo.
    """
    def partial(t: pa.Table) -> pa.Table:
        s = pd.Series(t.column(url_col).to_pylist(), dtype="object").fillna("")
        host = s.str.extract(_HOST_RE, expand=False).fillna("")
        tmpl = s.str.replace(_SCHEME_HOST_RE, "", regex=True).str.replace(
            r"[0-9]+", "N", regex=True
        )
        g = (
            pd.DataFrame({"host": host, "tmpl": tmpl})
            .groupby(["host", "tmpl"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.table(
            {
                "host": pa.array(g["host"], pa.string()),
                "tmpl": pa.array(g["tmpl"], pa.string()),
                "cnt": pa.array(g["cnt"].to_numpy(np.int64), pa.int64()),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        df = (
            t.select(["host", "tmpl", "cnt"])
            .to_pandas()
            .groupby(["host", "tmpl"], sort=True)["cnt"]
            .sum()
            .reset_index()
        )
        per = df.groupby("host", sort=True).agg(
            n_urls=("cnt", "sum"), n_templates=("tmpl", "size")
        )
        n_urls = per["n_urls"].to_numpy(np.int64)
        n_tmpl = per["n_templates"].to_numpy(np.int64)
        return pa.table(
            {
                "host": pa.array(per.index.to_numpy(), pa.string()),
                "n_urls": pa.array(n_urls, pa.int64()),
                "n_templates": pa.array(n_tmpl, pa.int64()),
                "trap_score": pa.array(n_urls / n_tmpl, pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return coarse_groupby(partials, "host", combine, num_groups)


def apportion_budget(ds, key_col: str = "source", budget: int = 1000,
                     num_groups: int = 64, weight_col: str | None = None):
    """Allocate an integer crawl/recrawl ``budget`` across keys (hosts,
    sources) proportionally to their row counts (or, with ``weight_col``,
    to the per-key sum of that integer column), by the largest-remainder
    (Hamilton) method: ``alloc_k = floor(B*w_k/W) + 1`` for the keys with
    the ``B - sum(floor)`` largest remainders (ties broken by key asc).
    The reference has no budget model (src/crawler.go crawls until
    max_urls); this is the operator that turns a politeness-bounded
    frontier into a *planned* one.  Exact integer arithmetic throughout:
    remainders are ``(B*w) % W`` — no float ranking, so results are
    deterministic and SQL-hash-exact.  Requires ``B * max(w) < 2^63``
    (asserted); B and W up to ~10^9 x 10^9 need the int128 variant.

    Output: (key, weight, alloc) with sum(alloc) == budget.

    Shape (100-TB path): per-batch key counts pre-aggregate (wire carries
    the batch's key vocabulary), ONE coarse key-hash shuffle builds the
    per-key weight table (rows = keys, not corpus rows); two tiny
    aggregates (W, sum of floors); then ONE distributed sort of the
    weight table by (remainder desc, key) and a range-partitioned
    prefix-count two-pass (block meta -> driver offsets ∝ blocks ->
    re-scan attaching ranks) hands +1 to the first L rows — the same
    pattern as events.global_running_sum, generalized to string keys.
    """
    import ray

    def partial(t: pa.Table) -> pa.Table:
        s = pd.Series(t.column(key_col).to_pylist(), dtype="object").fillna("")
        if weight_col is None:
            g = s.value_counts(sort=False)  # weight = row count per key
        else:
            g = (
                pd.Series(
                    t.column(weight_col).to_numpy(zero_copy_only=False), name="w"
                )
                .groupby(s, sort=False)
                .sum()
            )
        return pa.table(
            {
                key_col: pa.array(g.index.to_numpy(), pa.string()),
                "w": pa.array(g.to_numpy(np.int64), pa.int64()),
            }
        )

    def combine(t: pa.Table) -> pa.Table:
        g = (
            t.select([key_col, "w"])
            .to_pandas()
            .groupby(key_col, sort=True)["w"]
            .sum()
        )
        return pa.table(
            {
                key_col: pa.array(g.index.to_numpy(), pa.string()),
                "w": pa.array(g.to_numpy(np.int64), pa.int64()),
            }
        )

    weights = coarse_groupby(
        ds.map_batches(partial, batch_format="pyarrow"), key_col, combine, num_groups
    ).materialize()
    W = int(weights.sum("w"))
    B = int(budget)
    assert W > 0, "apportion_budget: empty input"

    def quotas(t: pa.Table) -> pa.Table:
        w = t.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(w):
            assert B <= (2**63 - 1) // max(int(w.max()), 1), (
                "apportion_budget: B*w overflows int64; use a smaller budget "
                "or pre-scale weights"
            )
        prod = B * w
        return pa.table(
            {
                key_col: t.column(key_col),
                "w": t.column("w"),
                "base": pa.array(prod // W, pa.int64()),
                "rem": pa.array(prod % W, pa.int64()),
            }
        )

    q = weights.map_batches(quotas, batch_format="pyarrow").materialize()
    L = B - int(q.sum("base"))
    ranked = q.sort(["rem", key_col], descending=[True, False]).materialize()

    def block_meta(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "first_key": t.column(key_col).slice(0, 1),
                "first_rem": t.column("rem").slice(0, 1),
                "n": pa.array([t.num_rows], pa.int64()),
            }
        )

    meta = (
        ranked.map_batches(block_meta, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values(["first_rem", "first_key"], ascending=[False, True])
        .reset_index(drop=True)
    )
    offsets = np.concatenate(([0], meta["n"].to_numpy(np.int64).cumsum()[:-1]))
    off_ref = ray.put({k: int(o) for k, o in zip(meta["first_key"], offsets)})

    def attach(t: pa.Table) -> pa.Table:
        off = ray.get(off_ref)[t.column(key_col)[0].as_py()]
        idx = off + np.arange(t.num_rows, dtype=np.int64)
        base = t.column("base").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                key_col: t.column(key_col),
                "weight": t.column("w"),
                "alloc": pa.array(base + (idx < L), pa.int64()),
            }
        )

    return ranked.map_batches(attach, batch_format="pyarrow", batch_size=None)


def top_per_group_alloc(ds, alloc: dict, key_col: str = "host",
                        order_cols: tuple = ("stale_runs", "change_ratio"),
                        tie_col: str = "doc_id", num_groups: int = 64,
                        driver_max_keys: int = 5_000_000):
    """VARIABLE-k top-k per group: every key keeps its own ``alloc[key]``
    best rows, ordered by ``order_cols`` DESC then ``tie_col`` ASC — the
    step that turns a per-host fetch budget into the concrete URL list
    (each host recrawls its alloc most-stale pages).  Ordinary top-k ops
    can't express per-group k; SQL needs a row_number + allocation join.

    ``alloc`` is the per-key budget mapping (the apportion_budget output
    — rows = keys, small next to the corpus); it is ray.put-broadcast
    once, guarded at ``driver_max_keys`` (beyond that, the named
    alternative is a repartition join of the allocation table onto the
    coarse groups — same machinery as joins.repartition_join).  Keys
    missing from ``alloc`` keep 0 rows.

    Shape: ONE coarse key-hash shuffle, per-group vectorized lexsort +
    cumcount-vs-budget mask; output adds ``rnk`` (1-based within key).
    """
    import ray

    if len(alloc) > driver_max_keys:
        raise ValueError(
            f"top_per_group_alloc: {len(alloc)} allocation keys exceed "
            f"driver_max_keys={driver_max_keys}; repartition-join the "
            "allocation table onto the coarse groups instead "
            "(joins.repartition_join machinery)"
        )
    alloc_ref = ray.put(dict(alloc))

    def pick(t: pa.Table) -> pa.Table:
        sch = t.schema.append(pa.field("rnk", pa.int64()))
        import ray as _ray

        am = _ray.get(alloc_ref)
        df = t.to_pandas()
        df = df.sort_values(
            [key_col, *order_cols, tie_col],
            ascending=[True] + [False] * len(order_cols) + [True],
            kind="mergesort",
        )
        df["rnk"] = df.groupby(key_col, sort=False).cumcount() + 1
        budget = df[key_col].map(lambda k: am.get(k, 0)).to_numpy()
        df = df[df["rnk"].to_numpy() <= budget]
        return pa.Table.from_pandas(df, preserve_index=False).cast(sch)

    return coarse_groupby(ds, key_col, pick, num_groups)


def anchor_topk(pages_ds, k: int = 3, num_groups: int = 256,
                url_col: str = "url", html_col: str = "html"):
    """Incoming anchor-text aggregation: for every link TARGET, the top-k
    anchor texts pointing at it with their reference counts — the classic
    off-page relevance/label signal (Brin & Page, WWW 1998 §2.2 index
    anchor text against the target).  The reference extracts hrefs only
    (src/parsers/html.go:69-82); this adds what it never kept.

    Input: pages (url, html bytes).  Hrefs resolve against the page's
    scheme://host with the reference's childUrlAllowed semantics (same
    drops: fragments, bare relatives pass-through, invalid escapes), so
    targets line up with the crawl frontier's URL space.

    Output: (url, anchor, n_refs, rank) — rank 1..k per target, ordered
    by (n_refs desc, anchor asc); ties deterministic.

    Shape (100-TB path): the map stage tokenizes each page ONCE (the
    per-document scan is the irreducible cost) and pre-aggregates the
    batch's (target, anchor) counts — the wire carries anchor vocabulary,
    not per-link rows; ONE coarse target-hash shuffle; per-group pandas
    combine (sum, sort, head-k) over ~num_groups vectorized buckets.
    Anchor strings are capped at 256 chars to bound shuffle width on
    adversarial pages.
    """
    pairs = _anchor_pairs(pages_ds, url_col, html_col)

    def combine(t: pa.Table) -> pa.Table:
        df = (
            t.select(["target", "anchor", "cnt"])
            .to_pandas()
            .groupby(["target", "anchor"], sort=False)["cnt"]
            .sum()
            .reset_index()
            .sort_values(["target", "cnt", "anchor"],
                         ascending=[True, False, True], kind="mergesort")
        )
        df["rank"] = df.groupby("target", sort=False).cumcount() + 1
        df = df[df["rank"] <= k]
        return pa.table(
            {
                "url": pa.array(df["target"], pa.string()),
                "anchor": pa.array(df["anchor"], pa.string()),
                "n_refs": pa.array(df["cnt"].to_numpy(np.int64), pa.int64()),
                "rank": pa.array(df["rank"].to_numpy(np.int64), pa.int64()),
            }
        )

    return coarse_groupby(pairs, "target", combine, num_groups)


def _anchor_pairs(pages_ds, url_col: str, html_col: str):
    """Shared map stage for the anchor family: tokenize each page once,
    resolve hrefs through childUrlAllowed + urlAllowed (frontier admission
    parity — bare relatives / bad schemes die exactly like in the crawl,
    M12 -> M2), pre-aggregate the batch's (target, anchor) counts.  Anchors
    cap at 256 chars."""
    from ..htmlparse import extract_anchors
    from ..textops import to_valid_utf8
    from ..urlops import (
        UrlError,
        child_url_allowed,
        extract_url_components,
        url_allowed,
    )

    def partial(t: pa.Table) -> pa.Table:
        urls = t.column(url_col).to_pylist()
        bodies = t.column(html_col).to_pylist()
        tgt, anc = [], []
        for u, b in zip(urls, bodies):
            if b is None:
                continue
            try:
                scheme, host, _ = extract_url_components(u)
            except UrlError:
                continue
            base = f"{scheme}://{host}"
            for href, text in extract_anchors(to_valid_utf8(b)):
                child = child_url_allowed(href, base)
                if child is None:
                    continue
                try:
                    c_scheme, _c_host, c_path = extract_url_components(child)
                except UrlError:
                    continue
                if not url_allowed(c_scheme, _c_host, c_path):
                    continue
                tgt.append(child)
                anc.append(text[:256])
        g = (
            pd.DataFrame({"target": tgt, "anchor": anc})
            .groupby(["target", "anchor"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        return pa.table(
            {
                "target": pa.array(g["target"], pa.string()),
                "anchor": pa.array(g["anchor"], pa.string()),
                "cnt": pa.array(g["cnt"].to_numpy(np.int64), pa.int64()),
            }
        )

    return pages_ds.map_batches(partial, batch_format="pyarrow")


def anchor_relevance(pages_ds, terms, num_groups: int = 256,
                     url_col: str = "url", html_col: str = "html"):
    """Focused-crawl frontier scoring (Chakrabarti, van den Berg & Dom,
    WWW 1999): rank link TARGETS by how often their incoming anchor text
    mentions the topic ``terms`` — the relevance signal a focused crawler
    orders its frontier by BEFORE fetching the target.  Term matching is
    case-insensitive whole-word (ASCII \\b, same word model as the rest
    of the repo).

    Output per target: (url, n_refs, n_hits, relevance) where n_hits
    counts referring anchors containing ANY term and relevance =
    n_hits / n_refs (float64, one IEEE division).

    Shape: shares _anchor_pairs' map stage (anchor vocabulary on the
    wire), ONE coarse target-hash shuffle, vectorized per-group regex
    over the DISTINCT anchors only (not per reference).
    """
    pat = re.compile(
        r"\b(?:" + "|".join(re.escape(t.lower()) for t in terms) + r")\b"
    )

    def combine(t: pa.Table) -> pa.Table:
        df = (
            t.select(["target", "anchor", "cnt"])
            .to_pandas()
            .groupby(["target", "anchor"], sort=False)["cnt"]
            .sum()
            .reset_index()
        )
        hit = df["anchor"].str.lower().str.contains(pat).to_numpy()
        cnt = df["cnt"].to_numpy(np.int64)
        per = (
            pd.DataFrame(
                {"target": df["target"], "refs": cnt, "hits": cnt * hit}
            )
            .groupby("target", sort=True)
            .sum()
        )
        refs = per["refs"].to_numpy(np.int64)
        hits = per["hits"].to_numpy(np.int64)
        return pa.table(
            {
                "url": pa.array(per.index.to_numpy(), pa.string()),
                "n_refs": pa.array(refs, pa.int64()),
                "n_hits": pa.array(hits, pa.int64()),
                "relevance": pa.array(hits / refs, pa.float64()),
            }
        )

    pairs = _anchor_pairs(pages_ds, url_col, html_col)
    return coarse_groupby(pairs, "target", combine, num_groups)
