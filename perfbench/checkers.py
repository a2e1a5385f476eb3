"""Independent output checkers for the benchmark.

Nothing here calls the program's own extraction, URL, robots or dedup
code: every expected value is recomputed from the generated inputs with
small, separately written rules, so a fault in the program cannot hide by
also being in the check.  The only program code used is the input
generator (``sources.corpus.page_spec`` / ``robots_body``), which defines
the inputs, not the outputs.

- ``extract_text``: tag-stripping text extraction (drop script, style,
  iframe and svg elements; split on tags; strip each piece; join the
  non-empty pieces with one space).
- ``word_counts``: lowercased ASCII ``\\b\\w+\\b`` token counts.
- ``reachable_urls``: depth-limited breadth-first reachability over the
  generated link graph, with the crawl's documented drop rules.
- ``expected_split``: the train/holdout hash rule of the prep chain.
"""

from __future__ import annotations

import re
from collections import Counter
from urllib.parse import unquote_plus

_DROP_ELEMENTS = re.compile(
    r"<(script|style|iframe|svg)\b[^>]*>.*?</\1\s*>", re.IGNORECASE | re.DOTALL
)
_TAG = re.compile(r"<[^>]*>")
_WORD = re.compile(r"\b\w+\b", re.ASCII)
_URL = re.compile(r"^(https?)://([^/?#]+)([^?#]*)")
_BAD_ESCAPE = re.compile(r"%(?![0-9A-Fa-f]{2})")

FETCHED_TYPES = ("text/html", "text/plain")
USER_AGENT = "grawler"


def extract_text(body: bytes) -> str:
    """Visible text of an html page, as the crawl must store it."""
    html = body.decode("utf-8", errors="ignore")
    html = _DROP_ELEMENTS.sub(" ", html)
    pieces = (p.strip() for p in _TAG.split(html))
    text = " ".join(p for p in pieces if p)
    return text.replace("\n", "").replace("\r", "").strip(" ")


def plain_text(body: bytes) -> str:
    """Stored text of a text/plain page: newlines removed, spaces trimmed,
    each invalid UTF-8 byte shown as U+FFFD."""
    b = body.replace(b"\n", b"").replace(b"\r", b"").strip(b" ")
    return b.decode("utf-8", errors="replace")


def word_counts(text: str) -> dict[str, int]:
    return dict(Counter(w.lower() for w in _WORD.findall(text)))


# ---------------------------------------------------------------------------
# robots.txt (only the rule shapes the generator emits need to be right, but
# the matcher is the general longest-match rule)
# ---------------------------------------------------------------------------


def _robots_rules(body: str) -> list[tuple[bool, str]]:
    """(allow, pattern) rules of the group that applies to USER_AGENT: a
    group naming a prefix of the agent wins over the ``*`` group."""
    groups: list[tuple[list[str], list[tuple[bool, str]]]] = []
    in_agents = False
    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if ":" not in line:
            continue
        key, val = (s.strip() for s in line.split(":", 1))
        key = key.lower()
        if key == "user-agent":
            if not in_agents:
                groups.append(([], []))
                in_agents = True
            groups[-1][0].append(val.lower())
        elif key in ("allow", "disallow"):
            in_agents = False
            if groups and val:
                groups[-1][1].append((key == "allow", val))
    specific = [r for agents, r in groups if any(a != "*" and USER_AGENT.startswith(a) for a in agents)]
    if specific:
        return [x for r in specific for x in r]
    return [x for agents, r in groups if "*" in agents for x in r]


def _pattern_regex(pattern: str) -> re.Pattern:
    anchored = pattern.endswith("$")
    core = pattern[:-1] if anchored else pattern
    rx = ".*".join(re.escape(p) for p in core.split("*"))
    return re.compile(rx + ("$" if anchored else ""))


def robots_allows(body: str | None, path: str) -> bool:
    """Longest matching pattern wins, allow wins a tie; a host without a
    robots.txt denies every URL."""
    if body is None:
        return False
    best_len, allowed = -1, True
    for allow, pat in _robots_rules(body):
        if _pattern_regex(pat).match(path):
            n = len(pat)
            if n > best_len or (n == best_len and allow):
                best_len, allowed = n, allow
    return allowed


# ---------------------------------------------------------------------------
# crawl reachability
# ---------------------------------------------------------------------------


def resolve_href(href: str, base: str) -> str | None:
    """Child URL of an href on a page whose scheme://host is ``base``, or
    None when the crawl drops it before admission."""
    if not href or _BAD_ESCAPE.search(href):
        return None
    url = unquote_plus(href)
    if url[0] in "#?":
        return None
    return base + url if url[0] == "/" else url


class LinkGraph:
    """The generated corpus seen from outside: per page url its status,
    content type and hrefs, and per host its robots.txt body."""

    def __init__(self, pages: dict[str, dict], robots: dict[str, str | None]):
        self.pages = pages
        self.robots = robots

    @classmethod
    def generate(cls, seed: int, n_hosts: int, pages_per_host: int) -> "LinkGraph":
        from grawler_ray.sources.corpus import host_name, page_spec, robots_body

        pages = {}
        for h in range(n_hosts):
            for p in range(pages_per_host):
                s = page_spec(seed, h, p, n_hosts, pages_per_host)
                pages[s["url"]] = s
        robots = {host_name(h): robots_body(seed, h) for h in range(n_hosts)}
        return cls(pages, robots)

    def fetchable(self, url: str) -> bool:
        m = _URL.match(url)
        if m is None:
            return False
        _scheme, host, path = m.groups()
        path = path or "/"
        if path == "/robots.txt":
            return False
        if not robots_allows(self.robots.get(host), url[m.end(2):] or "/"):
            return False
        spec = self.pages.get(url)
        return spec is not None and spec["status"] < 400 and spec["ctype"] in FETCHED_TYPES

    def children(self, url: str) -> list[str]:
        spec = self.pages[url]
        if spec["ctype"] != "text/html":
            return []
        scheme, host, _path = _URL.match(url).groups()
        base = f"{scheme}://{host}"
        out = []
        for h in spec["hrefs"]:
            u = resolve_href(h, base)
            if u is not None:
                out.append(u)
        return out

    def reachable_urls(self, seeds: list[str], rounds: int) -> set[str]:
        """URLs a ``rounds``-round breadth-first crawl from ``seeds`` fetches
        with no politeness quota: round 0 fetches the seeds, every later
        round the children of pages fetched one round earlier."""
        fetched: set[str] = set()
        frontier = list(seeds)
        for _ in range(rounds):
            nxt: list[str] = []
            for u in dict.fromkeys(frontier):
                if u in fetched or not self.fetchable(u):
                    continue
                fetched.add(u)
                nxt.extend(self.children(u))
            frontier = nxt
        return fetched


# ---------------------------------------------------------------------------
# prep
# ---------------------------------------------------------------------------

_KNUTH = 2654435761


def expected_split(doc_id: int, holdout_permille: int = 100) -> str:
    """Knuth multiplicative hash of the doc id, bucketed 0-999."""
    return "holdout" if (doc_id * _KNUTH) % (1 << 32) % 1000 < holdout_permille else "train"


def check_crawl(parsed: dict[str, dict], expected_urls: set[str], bodies: dict[str, tuple[bytes, str]]) -> list[str]:
    """Problems in a crawl's fetched rows (url -> {content, words}); empty
    when the fetched url set equals ``expected_urls`` and every page's text
    and word counts equal the independent extraction of its body."""
    problems = []
    missing = expected_urls - parsed.keys()
    extra = parsed.keys() - expected_urls
    if missing:
        problems.append(f"{len(missing)} expected urls not fetched, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"{len(extra)} unexpected urls fetched, e.g. {sorted(extra)[:3]}")
    bad_text = bad_words = 0
    for url in expected_urls & parsed.keys():
        body, ctype = bodies[url]
        text = extract_text(body) if ctype == "text/html" else plain_text(body)
        row = parsed[url]
        if row["content"] != text:
            bad_text += 1
            if bad_text == 1:
                problems.append(f"text differs for {url}")
        if row["words"] != word_counts(text):
            bad_words += 1
            if bad_words == 1:
                problems.append(f"word counts differ for {url}")
    if bad_text:
        problems.append(f"{bad_text} pages with wrong text")
    if bad_words:
        problems.append(f"{bad_words} pages with wrong word counts")
    return problems


def check_prep(out_rows: dict[int, tuple[str, str]], originals: dict[int, str]) -> list[str]:
    """Problems in prep output (doc_id -> (text, split)); empty when the
    survivors are exactly the originals, unchanged, split by the hash rule."""
    problems = []
    missing = originals.keys() - out_rows.keys()
    extra = out_rows.keys() - originals.keys()
    if missing:
        problems.append(f"{len(missing)} originals dropped, e.g. {sorted(missing)[:3]}")
    if extra:
        problems.append(f"{len(extra)} planted copies kept, e.g. {sorted(extra)[:3]}")
    for doc_id in originals.keys() & out_rows.keys():
        text, split = out_rows[doc_id]
        if text != originals[doc_id]:
            problems.append(f"text of doc {doc_id} changed")
            break
    wrong_split = [d for d in out_rows.keys() & originals.keys() if out_rows[d][1] != expected_split(d)]
    if wrong_split:
        problems.append(f"{len(wrong_split)} docs in the wrong split, e.g. {sorted(wrong_split)[:3]}")
    return problems
