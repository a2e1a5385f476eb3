"""Crawl configuration.

The reference hardwires every policy as function-local literals (seed list
src/crawler.go:61-87, allowed schemes/paths src/crawler.go:205-207, allowed
content types src/crawler.go:275, user agent src/crawler.go:24, politeness
700ms src/crawler.go:195, robots TTL 1mo15d src/crawler.go:230, frontier cap
100k src/crawler.go:42, 20 workers src/crawler.go:96).  We surface them as a
config dataclass so each operator is independently testable (SURVEY §2.10).

Politeness is the reference's *intended* semantics made deterministic
(SURVEY §2.3 T2): per BFS round, at most ``per_host_quota`` URLs per host are
admitted (in frontier order); the rest are deferred to the next round,
preserving order.  The wall-clock 700 ms/host rule maps to a quota because a
round at scale takes >> 700 ms per host.
"""

from __future__ import annotations

from dataclasses import dataclass

# reference constants that no crawl overrides
ALLOWED_CONTENT_TYPES = ("text/html", "text/plain")  # documentAllowed, src/crawler.go:275
ROBOTS_TTL_DAYS = 45  # ~1 month + 15 days (src/crawler.go:230)
OPIC_TOTAL_CASH = 10**12  # the cash the seeds split under frontier_order="opic"
HTTP_TIMEOUT_S = 10.0  # per request, page and robots.txt fetches (http mode)
HTTP_THREADS = 16  # in-flight requests per fetcher actor (http mode)


@dataclass
class CrawlConfig:
    # semantics (reference-derived)
    user_agent: str = "grawler"
    allowed_schemes: tuple[str, ...] = ("http", "https")
    blocked_hosts: tuple[str, ...] = ()
    blocked_paths: tuple[str, ...] = ("/robots.txt",)
    # False = reference parity (documentAllowed admits only
    # ALLOWED_CONTENT_TYPES; pdf/office rows trace "type-drop",
    # src/crawler.go:274-282).
    # True = the crawl also ingests application/pdf and the document formats
    # the engine carries extractors for (DOCX/ODT/RTF/EPUB) — text extracted via
    # the same parsers the *_ingest queries gate, no child links, words and
    # meta defaults over the extracted text.  Mirrored in oracle.py via the
    # shared parse_page, so full-trace equality holds in this mode too.
    extended_doc_types: bool = False
    per_host_quota: int = 4          # round-based politeness budget (T2)
    now_us: int = 1_722_988_800_000_000  # "wall clock" for TTL checks: 2024-08-07 UTC, the reference snapshot date (no real wall clock in the engine)
    canonicalize_seen: bool = False  # False = reference raw-URL equality (src/crawler.go:191); True = north-rule canonicalization
    frontier_cap: int | None = None  # None = unbounded (reference: 100_000 with silent child drops)
    # frontier ordering (north rule: "priority queue"): "fifo" = reference
    # conformance (seq = discovery order); "priority" = shallowest-path-first
    # within each round (priority = decoded-path segment count, seq tiebreak)
    # — the classic crawl heuristic that favors hub pages.  Priority is a
    # pure function of the url, so deferred rows re-rank consistently.
    # Incompatible with max_urls (the budget cutoff is seq-ordered).
    # "opic": On-line Page Importance Computation (Abiteboul, Preda &
    # Cobena, WWW 2003) — seeds split OPIC_TOTAL_CASH; a fetched page
    # splits its cash equally among its children (integer //, remainder
    # burned); same-round contributions to one URL sum inside the
    # admission group (equal keys co-locate); the frontier fetches
    # highest-cash first, seq tiebreak.  Deferred URLs keep accumulating.
    # Cash of dropped rows (robots/scheme/fetch-miss/childless) is burned.
    # Requires fetch_mode="corpus"; incompatible with max_urls like
    # "priority".
    frontier_order: str = "fifo"
    # False = reference parity (assume UTF-8, Go ToValidUTF8 strips invalid
    # bytes); True = WHATWG charset sniffing (BOM > raw Content-Type charset
    # param > meta prescan; undecodable bytes -> U+FFFD) so non-UTF-8 pages
    # extract real text — our addition, the reference has no charset handling
    charset_sniffing: bool = False
    # False = reference parity (store the whole tree's text); True = store
    # CETR main-content text instead (functions/boilerplate.py — per-page
    # structural boilerplate strip; our addition).  Link discovery always
    # sees the FULL page: nav links still feed the frontier either way.
    strip_boilerplate: bool = False
    # False = reference parity (follow everything, store everything); True
    # = honor the Robots Exclusion Protocol's page-level HTML controls —
    # <meta name="robots"> noindex/nofollow/none and per-link
    # rel="nofollow" (htmlparse.parse_page): noindex pages are fetched,
    # seen-committed and link-followed but excluded from the documents and
    # words sinks; nofollow suppresses link discovery.  Our addition.
    respect_nofollow: bool = False

    # termination (the reference never terminates, src/crawler.go:107-113;
    # bounded rounds are our documented improvement, SURVEY §2.9)
    max_rounds: int = 50
    max_urls: int | None = None

    # physical execution
    fetch_mode: str = "corpus"       # "corpus" (bucketed-parquet point join) | "http" (live fetch, S3 utils.go:22-45)
    http_concurrency: int = 4        # HttpFetcher actor-pool size (http mode)
    num_fetch_buckets: int = 32      # corpus hash-bucket count (must match corpus layout)
    seen_shards: int = 8             # state actors: one seen-set shard + the robots cache of its hosts each
    seen_mode: str = "exact"         # "exact" (conformance) | "cuckoo" (scale)
    parse_batch_size: int = 64       # html rows per parse batch (bodies are large)

    # resume: persist per-round seen-shard snapshots (round=R/seen/shard=K
    # .parquet, written BY the shard actors).  Resume restores the last
    # complete round's snapshot in O(seen-set) instead of re-scanning every
    # completed round's parsed files — the difference between O(1 round) and
    # O(history) at 10^10 keys.  The rebuild path remains the fallback when
    # snapshots are absent/mismatched (snapshots off, changed shard count).
    seen_snapshots: bool = True

    # observability
    write_trace: bool = True  # per-round trace parquet (off for bench runs)

    # paths
    out_dir: str = "/tmp/grawler_out"

    # the extended-mode MIME set (the formats functions/{pdf,docx,odt,rtf,epub}
    # carry real extractors for)
    EXTENDED_TYPES = (
        "application/pdf",
        "application/vnd.openxmlformats-officedocument.wordprocessingml.document",
        "application/vnd.oasis.opendocument.text",
        "application/rtf",
        "text/rtf",
        "application/epub+zip",
    )

    @property
    def effective_content_types(self) -> tuple[str, ...]:
        """documentAllowed's admit set: the parity pair, plus the
        extractor-backed formats under ``extended_doc_types``."""
        if self.extended_doc_types:
            return ALLOWED_CONTENT_TYPES + self.EXTENDED_TYPES
        return ALLOWED_CONTENT_TYPES
