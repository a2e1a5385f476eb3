"""Serial reference-semantics oracle (SURVEY §5.2).

Executes the reference's crawl loop (src/crawler.go:116-188) serially,
round-based, over an in-memory corpus — the executable specification that the
Ray pipeline must match on documents / words / seen-set / crawl order.

Round-based determinization of the reference semantics (SURVEY §2.3 T2,
§2.9): the reference's FIFO with 20 workers is nondeterministic and its
politeness map is inert (never written, src/crawler.go:194-199 bugs); the
*intended* semantics is parameterized as: per round, at most
``per_host_quota`` URLs per host are admitted (in frontier order), the rest
are deferred to the next round preserving order, placed before that round's
newly-discovered children.

Stage order per URL is exactly crawlDocument's:
  components (:119) -> seen check (:191, incl. first-wins intra-round dedup)
  -> politeness (:194) -> urlAllowed (:137) -> robots (:142) -> fetch (:152,
  corpus lookup; miss or status>399 drops like utils.go:40-42) -> content
  type filter (:166) -> parse (:172) -> commit seen (:178) -> children (:179)
  -> sink (:181).

Trace actions: fetched / dup-drop / parse-url-drop / scheme-drop /
robots-drop / fetch-miss / type-drop / deferred (FIXTURES.md §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import OPIC_TOTAL_CASH, ROBOTS_TTL_DAYS, CrawlConfig
from .htmlparse import parse_page
from .robots import RobotsRules
from .urlops import UrlError, canonical_url, extract_url_components, url_allowed


@dataclass
class OracleResult:
    documents: list[dict] = field(default_factory=list)
    words: list[dict] = field(default_factory=list)
    seen: set = field(default_factory=set)
    trace: list[dict] = field(default_factory=list)
    robots_cache: dict = field(default_factory=dict)  # host -> (body, ts_us)
    rounds: int = 0


def run_oracle(
    corpus: dict[str, dict],
    seeds: list[str],
    cfg: CrawlConfig,
    robots_cache: dict[str, tuple[str, int]] | None = None,
) -> OracleResult:
    """corpus: url -> {html: bytes, content_type: str, status_code: int}.
    robots_cache: initial host -> (body, ts_us) cache table state."""
    res = OracleResult()
    res.robots_cache = dict(robots_cache or {})
    compiled: dict[str, RobotsRules] = {}
    ttl_us = ROBOTS_TTL_DAYS * 86_400_000_000

    def robots_allowed(host: str, base_url: str, url: str) -> bool:
        """agentAllowed (src/crawler.go:222-254): cached+fresh else fetch
        {base}/robots.txt; ANY fetch error (incl. 404) => deny."""
        entry = res.robots_cache.get(host)
        if entry is None or entry[1] < cfg.now_us - ttl_us:
            row = corpus.get(f"{base_url}/robots.txt")
            if row is None or row["status_code"] > 399:
                return False  # fetch error => agentAllowed returns err => skip
            body = row["html"].decode("utf-8", errors="replace")
            res.robots_cache[host] = (body, cfg.now_us)
            compiled.pop(host, None)
        else:
            body = entry[0]
        if host not in compiled:
            compiled[host] = RobotsRules(body)
        return compiled[host].allowed(cfg.user_agent, url)

    def _prio(url: str) -> int:
        """frontier_order="priority" rank: decoded-path segment count
        (shallow-first), mirroring _prepare_batch's prio column exactly —
        priority is a pure function of the url, so deferred rows re-rank
        consistently round over round."""
        try:
            _, _, path = extract_url_components(url)
        except UrlError:
            return 0
        return path.count("/")

    if cfg.frontier_order in ("priority", "opic") and cfg.max_urls is not None:
        raise ValueError(
            f"frontier_order={cfg.frontier_order!r} is incompatible with max_urls"
        )
    opic = cfg.frontier_order == "opic"
    sort_key = (
        (lambda t: t[0])
        if cfg.frontier_order in ("fifo", "opic")
        else (lambda t: (_prio(t[1]), t[0]))
    )

    def _key_of(url: str) -> str | None:
        """The seen key _prepare_batch computes, or None on a parse failure
        (such rows carry no key and contribute no cash)."""
        try:
            extract_url_components(url)
        except UrlError:
            return None
        return canonical_url(url) if cfg.canonicalize_seen else url

    # frontier rows: (seq, url, parent, cash); cash is 0 outside opic mode.
    # OPIC init: seeds split OPIC_TOTAL_CASH equally (integer //, remainder
    # burned) — mirrors run_crawl's seed table exactly.
    seed_cash = OPIC_TOTAL_CASH // max(1, len(seeds)) if opic else 0
    frontier: list[tuple[int, str, str, int]] = [
        (i, u, "", seed_cash) for i, u in enumerate(seeds)
    ]
    next_seq = len(seeds)
    fetched_count = 0

    for rnd in range(cfg.max_rounds):
        if not frontier:
            break
        res.rounds = rnd + 1
        key_cash: dict[str, int] = {}
        if opic:
            # same-round contributions to one key SUM (the distributed
            # version sums inside the admission group, where equal keys
            # co-locate); only rows that would pass the round-START seen
            # test contribute — seen keys are dup-dropped pre-admission
            for _seq, _url, _parent, _cash in frontier:
                k = _key_of(_url)
                if k is not None and k not in res.seen:
                    key_cash[k] = key_cash.get(k, 0) + _cash
            # highest summed cash first, seq tiebreak (rows without a
            # pending key sort by their own cash; their position is inert
            # — they drop regardless of order)
            frontier.sort(
                key=lambda t: (
                    -key_cash.get(_key_of(t[1]) or "", t[3]),
                    t[0],
                )
            )
        else:
            frontier.sort(key=sort_key)
        deferred: list[tuple[int, str, str, int]] = []
        children: list[tuple[int, int, str, str, int]] = []  # (parent_seq, child_idx, url, parent, cash)
        # Intra-round dedup is FIRST-WINS: later occurrences of a URL in the
        # same round dup-drop regardless of the first occurrence's outcome
        # (spec determinization — all failure modes are deterministic, so a
        # same-round retry would fail identically; only trace labels differ
        # from the serial reference interleave).  Cross-round seen commits
        # only after successful parse, like crawler.go:178.
        attempted_this_round: set[str] = set()
        host_slots: dict[str, int] = {}

        def trace(seq: int, url: str, parent: str, action: str) -> None:
            res.trace.append(
                {"round": rnd, "seq": seq, "url": url, "parent_url": parent, "action": action}
            )

        for seq, url, parent, cash in frontier:
            # 1. components (crawler.go:119)
            try:
                scheme, host, path = extract_url_components(url)
            except UrlError:
                trace(seq, url, parent, "parse-url-drop")
                continue
            base_url = f"{scheme}://{host}"
            # 2. seen check (crawler.go:191) + intra-round first-wins dedup
            key = canonical_url(url) if cfg.canonicalize_seen else url
            if key in res.seen or key in attempted_this_round:
                trace(seq, url, parent, "dup-drop")
                continue
            attempted_this_round.add(key)
            if opic:
                cash = key_cash.get(key, cash)  # the per-key round sum
            # 3. politeness (intended semantics of crawler.go:194-199)
            slot = host_slots.get(host, 0)
            if slot >= cfg.per_host_quota:
                trace(seq, url, parent, "deferred")
                deferred.append((seq, url, parent, cash))
                continue
            host_slots[host] = slot + 1
            # 4. urlAllowed (crawler.go:137)
            if (
                not url_allowed(scheme, host, path, cfg.allowed_schemes, cfg.blocked_paths)
                or host in cfg.blocked_hosts
            ):
                trace(seq, url, parent, "scheme-drop")
                continue
            # 5. robots (crawler.go:142)
            if not robots_allowed(host, base_url, url):
                trace(seq, url, parent, "robots-drop")
                continue
            # 6. fetch = corpus lookup (crawler.go:152; >399 errors utils.go:40-42)
            row = corpus.get(url)
            if row is None or row["status_code"] > 399:
                trace(seq, url, parent, "fetch-miss")
                continue
            # 7. content-type normalization (crawler.go:257)
            ctype = row["content_type"].lower().split(";")[0]
            # 8. documentAllowed (crawler.go:274-282)
            if ctype not in cfg.effective_content_types:
                trace(seq, url, parent, "type-drop")
                continue
            # 9. parse (crawler.go:172)
            parsed = parse_page(
                row["html"], ctype, url, base_url, host,
                charset_sniffing=cfg.charset_sniffing,
                raw_content_type=row["content_type"],
                strip_boilerplate=cfg.strip_boilerplate,
                respect_nofollow=cfg.respect_nofollow,
            )
            # 10. commit seen AFTER successful parse (crawler.go:178)
            res.seen.add(key)
            # 11. children (crawler.go:179; normalization in parse_page);
            # OPIC: the page's cash splits equally among its children
            # (integer //, remainder burned; childless pages burn it all)
            kids = parsed["child_urls"]
            share = (cash // len(kids)) if (opic and kids) else 0
            for ci, child in enumerate(kids):
                children.append((seq, ci, child, url, share))
            # 12. sink (crawler.go:181; InsertDocument projection common.go:44-54)
            # — meta-robots noindex pages (respect_nofollow mode only) are
            # fetched/committed/followed but excluded from both sinks,
            # mirroring the pipeline's noindex-column filter
            if not parsed["noindex"]:
                res.documents.append(
                    {
                        "url": url,
                        "parent_url": parent,
                        "content_type": ctype,
                        "status_code": row["status_code"],
                        "content": parsed["content"],
                        "meta_icon_link": parsed["meta_icon_link"],
                        "meta_site_name": parsed["meta_site_name"],
                        "meta_title": parsed["meta_title"],
                        "meta_description": parsed["meta_description"],
                    }
                )
                for word, freq in parsed["words"].items():
                    res.words.append({"parent_url": url, "word": word, "frequency": freq})
            trace(seq, url, parent, "fetched")
            fetched_count += 1
            if cfg.max_urls is not None and fetched_count >= cfg.max_urls:
                return res

        # next frontier: deferred (original seqs, first) then children in
        # (parent_seq, child_index) order with fresh seqs
        children.sort(key=lambda t: (t[0], t[1]))
        new_rows = deferred + [
            (next_seq + i, url, parent, kcash)
            for i, (_, _, url, parent, kcash) in enumerate(children)
        ]
        next_seq += len(children)
        if cfg.frontier_cap is not None and len(new_rows) > cfg.frontier_cap:
            # mirror of the pipeline's bounded-frontier mode: keep the lowest
            # seqs (deferred first, then earliest-discovered children) —
            # approximating the reference's queue-full silent child drop
            # (src/utils/utils.go:192-194)
            new_rows.sort(key=lambda t: t[0])
            new_rows = new_rows[: cfg.frontier_cap]
        frontier = new_rows

    return res


def corpus_table_to_dict(table) -> dict[str, dict]:
    """pyarrow.Table (url, html, content_type, status_code) -> oracle corpus."""
    d = {}
    urls = table.column("url").to_pylist()
    htmls = table.column("html").to_pylist()
    cts = table.column("content_type").to_pylist()
    scs = table.column("status_code").to_pylist()
    for u, h, c, s in zip(urls, htmls, cts, scs):
        d[u] = {"html": h, "content_type": c, "status_code": s}
    return d
