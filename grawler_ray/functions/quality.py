"""Gopher-style repetition / quality signals over the documents table.

Rahimi et al.'s Gopher rules (Rae et al. 2021, "Scaling Language Models",
§A1.1 — public paper) filter web documents on repetition: the fraction of
duplicate lines, the fraction of characters inside duplicate lines, and
the fraction of characters inside the most frequent n-gram.  This module
computes those signals exactly, as INTEGER numerator/denominator pairs so
the DuckDB oracle hash-compares bit-exactly (no float ratio drift);
callers divide at the edge.

Definitions (mirrored by `repetition_signals` in __ray_entry__.oracle_sql):
- lines = text split on '\\n', EMPTY LINES EXCLUDED (no trimming);
- n_dup_lines   = occurrences beyond each line's first = n_lines - distinct;
- dup_line_chars = sum over distinct lines of (count-1) * len(line);
- total_line_chars = sum of count * len(line);
- words = regex '\\b\\w+\\b' over lower(text) (same tokenizer as word_freq);
- bigram = "w[i] w[i+1]" joined with one space; the top bigram is the max
  count with lexicographic tiebreak; top_bigram_chars = count * len(bigram);
- total_word_chars = sum of len(word).

The per-batch kernel is a per-document scan (Counter/np.unique) like the
rest of textstats — each document's work is independent and bounded by its
own length, so the stage parallelizes across blocks; there is no
cross-document state.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pyarrow as pa

_WORD_RE = re.compile(r"\b\w+\b")


def _doc_signals(text: str) -> tuple[int, int, int, int, int, int, int]:
    lines = [ln for ln in text.split("\n") if ln]
    lc = Counter(lines)
    n_lines = len(lines)
    n_dup_lines = n_lines - len(lc)
    dup_line_chars = sum((c - 1) * len(ln) for ln, c in lc.items() if c > 1)
    total_line_chars = sum(c * len(ln) for ln, c in lc.items())

    words = _WORD_RE.findall(text.lower())
    total_word_chars = sum(len(w) for w in words)
    top_bigram_count = 0
    top_bigram_chars = 0
    if len(words) >= 2:
        bc = Counter(
            a + " " + b for a, b in zip(words, words[1:])
        )
        # max count, lexicographically smallest bigram on ties
        top = min(bc.items(), key=lambda kv: (-kv[1], kv[0]))
        top_bigram_count = top[1]
        top_bigram_chars = top[1] * len(top[0])
    return (
        n_lines,
        n_dup_lines,
        dup_line_chars,
        total_line_chars,
        total_word_chars,
        top_bigram_count,
        top_bigram_chars,
    )


def repetition_signals_batch(t: pa.Table) -> pa.Table:
    cols = list(zip(*(_doc_signals(s or "") for s in t.column("text").to_pylist()))) or [
        []
    ] * 7
    names = [
        "n_lines",
        "n_dup_lines",
        "dup_line_chars",
        "total_line_chars",
        "total_word_chars",
        "top_bigram_count",
        "top_bigram_chars",
    ]
    out = {"doc_id": t.column("doc_id")}
    for name, vals in zip(names, cols):
        out[name] = pa.array(list(vals), pa.int64())
    return pa.table(out)


def _line_dedup_join(docs_ds, max_rep: int, sep: str, num_groups: int = 256):
    """line_dedup strategy="join": the 100-TB plan with no driver state.

    Shuffle 1 (16 B/line-position): one row per (doc, line position)
    carrying xxhash64(line), grouped by a coarse hash of that line hash —
    every occurrence of a given line text shares a group, so the in-group
    run length is the corpus-wide count and positions of >max_rep runs are
    the dropped set, decided locally.  Shuffle 2 (text moves once): docs
    and the dropped (doc_id, pos) pairs meet in one coarse doc-hash
    ``coarse_cogroup``; each group rebuilds kept_text with a per-doc
    dropped-position set.  Hash
    collisions (2^-64/pair) could drop an innocent line — the documented
    approximation of the hashed plan; the broadcast plan is exact-string.
    """
    import pyarrow.compute as pc

    from ..shuffle import LEG, coarse_cogroup, coarse_groupby
    from ..urlops import xxhash64_batch

    def positions(t: pa.Table) -> pa.Table:
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        out_doc, out_pos, lines = [], [], []
        for did, s in zip(doc_ids, texts):
            ls = (s or "").split(sep)
            out_doc.extend([did] * len(ls))
            out_pos.extend(range(len(ls)))
            lines.extend(ls)
        h = xxhash64_batch(lines) if lines else np.zeros(0, np.uint64)
        return pa.table(
            {
                "doc_id": pa.array(np.asarray(out_doc, np.int64), pa.int64()),
                "pos": pa.array(np.asarray(out_pos, np.int64), pa.int64()),
                "h": pa.array(h.view(np.int64), pa.int64()),
            }
        )

    def dropped_in_group(t: pa.Table) -> pa.Table:
        h = t.column("h").to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        hs = h[order]
        starts = np.concatenate(([True], hs[1:] != hs[:-1]))
        run_id = np.cumsum(starts) - 1
        hot_sorted = np.bincount(run_id)[run_id] > max_rep
        hot = np.zeros(len(h), bool)
        hot[order] = hot_sorted
        kept = t.filter(pa.array(hot))
        return pa.table(
            {"doc_id": kept.column("doc_id"), "pos": kept.column("pos")}
        )

    dropped = coarse_groupby(
        docs_ds.map_batches(positions, batch_format="pyarrow"), "h", dropped_in_group, num_groups
    )

    def rewrite_group(t: pa.Table) -> pa.Table:
        # leg 0: docs (doc_id, text); leg 1: dropped (doc_id, pos)
        dmask = t.column(LEG).to_numpy() == 1
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        dd = doc[dmask]
        dp = t.filter(pa.array(dmask)).column("pos").to_numpy(zero_copy_only=False)
        order = np.lexsort((dp, dd))
        dd, dp = dd[order], dp[order]
        docs_tab = t.filter(pa.array(~dmask))
        dids = docs_tab.column("doc_id").to_numpy(zero_copy_only=False)
        texts = docs_tab.column("text").to_pylist()
        kept_texts, n_kept, n_rm = [], [], []
        for did, s in zip(dids, texts):
            lines = (s or "").split(sep)
            lo = np.searchsorted(dd, did, "left")
            hi = np.searchsorted(dd, did, "right")
            drop_pos = set(dp[lo:hi].tolist())
            kept = [ln for i, ln in enumerate(lines) if i not in drop_pos]
            kept_texts.append(sep.join(kept))
            n_kept.append(len(kept))
            n_rm.append(len(lines) - len(kept))
        return pa.table(
            {
                "doc_id": pa.array(dids, pa.int64()),
                "kept_text": pa.array(kept_texts, pa.string()),
                "n_lines_kept": pa.array(n_kept, pa.int64()),
                "n_lines_removed": pa.array(n_rm, pa.int64()),
            }
        )

    # materialized: the cogroup reads each leg's schema, and a lazy
    # `dropped` would run its exchange once more to learn it
    return coarse_cogroup(
        [docs_ds.select_columns(["doc_id", "text"]), dropped.materialize()],
        "doc_id",
        rewrite_group,
        num_groups,
    )


def line_dedup(
    docs_ds,
    max_rep: int = 2,
    sep: str = "\n",
    driver_max_lines: int = 500_000,
    strategy: str = "auto",
):
    """CCNet/RefinedWeb-style boilerplate strip: count every line GLOBALLY
    across the corpus, then rewrite each document keeping only lines whose
    corpus-wide count is <= ``max_rep`` (nav bars, cookie banners and
    footers repeat across pages; body text doesn't).  Lines are '\\n'
    splits, EMPTY LINES INCLUDED — an empty line repeats corpus-wide, so
    stripping it collapses blank runs by design.  Output (doc_id,
    kept_text, n_lines_kept, n_lines_removed); kept lines are re-joined
    with '\\n' in original order ('' when everything was boilerplate).

    ``sep`` picks the unit (default line; ' ' gives word-level common-
    token stripping — the right unit for unstructured bag-of-words text).

    ``strategy``: ``"broadcast"`` (exact strings; per-batch Counter
    pre-aggregation -> ONE (line, n) groupby-sum shuffle -> the > max_rep
    survivors pulled to the driver under ``driver_max_lines`` and broadcast
    ONCE via ray.put -> stateless rewrite map; raises above the guard),
    ``"join"`` (the 100-TB plan, see ``_line_dedup_join`` — no driver
    state, hashed line identities), or ``"auto"`` (broadcast, falling back
    to join with a log line when the blocklist exceeds the guard — VERDICT
    r3 item 6).
    """
    import logging

    import ray
    from ray.data.aggregate import Sum

    if strategy not in ("auto", "broadcast", "join"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "join":
        return _line_dedup_join(docs_ds, max_rep, sep)

    def line_partials(t: pa.Table) -> pa.Table:
        c = Counter()
        for s in t.column("text").to_pylist():
            c.update((s or "").split(sep))
        return pa.table(
            {
                "line": pa.array(list(c.keys()), pa.string()),
                "n_part": pa.array(list(c.values()), pa.int64()),
            }
        )

    def only_hot(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater(t.column("n"), max_rep))

    hot = (
        docs_ds.map_batches(line_partials, batch_format="pyarrow")
        .groupby("line")
        .aggregate(Sum("n_part", alias_name="n"))
        .map_batches(only_hot, batch_format="pyarrow")
        .materialize()
    )
    n_hot = hot.count()
    if n_hot > driver_max_lines:
        if strategy == "auto":
            logging.getLogger("grawler_ray.quality").warning(
                "line_dedup: blocklist has %d lines (> %d) — falling back "
                "to the hashed shuffle-join plan",
                n_hot, driver_max_lines,
            )
            return _line_dedup_join(docs_ds, max_rep, sep)
        raise ValueError(
            f"line_dedup blocklist has {n_hot} lines (> {driver_max_lines}); "
            "use strategy='join' at this scale"
        )
    block = frozenset(r["line"] for r in hot.take_all())
    ref = ray.put(block)

    def rewrite(t: pa.Table) -> pa.Table:
        blocked = ray.get(ref)
        kept_texts, n_kept, n_rm = [], [], []
        for s in t.column("text").to_pylist():
            lines = (s or "").split(sep)
            kept = [ln for ln in lines if ln not in blocked]
            kept_texts.append(sep.join(kept))
            n_kept.append(len(kept))
            n_rm.append(len(lines) - len(kept))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "kept_text": pa.array(kept_texts, pa.string()),
                "n_lines_kept": pa.array(n_kept, pa.int64()),
                "n_lines_removed": pa.array(n_rm, pa.int64()),
            }
        )

    return docs_ds.map_batches(rewrite, batch_format="pyarrow")


def decontaminate(
    train_ds,
    bench_ds,
    k: int = 3,
    driver_max_shingles: int = 5_000_000,
):
    """GPT-3-style training-set decontamination (Brown et al. 2020, §C —
    public paper): flag every training document that shares at least one
    word k-gram with a benchmark/eval document, so contaminated examples
    can be dropped or quarantined before training.

    Semantics pinned for the SQL oracle: tokens are ``\\b\\w+\\b`` over
    ``lower(text)`` (the word_freq tokenizer); a shingle is k consecutive
    tokens joined with one space; documents shorter than k tokens have no
    shingles and are never contaminated.  Output one row per TRAIN doc:
    (doc_id, n_hits = count of DISTINCT train-doc shingles that occur
    anywhere in the benchmark set, is_contaminated = 0/1 int64).

    Shape: the benchmark side is the EVAL set — orders of magnitude
    smaller than the training corpus by construction — so it is
    per-batch-distinct'd, reduced through ONE (shingle) groupby-count,
    pulled to the driver under ``driver_max_shingles``, and broadcast
    ONCE via ray.put; the training pass is then a stateless shuffle-free
    map over batches (set intersection per doc, exact string compare so
    the oracle gate is bit-exact — a production variant at 10^12 train
    shingles would hash shingles to uint64 and join instead; the guard
    names that fallback rather than silently materializing).
    """
    import ray

    def _doc_shingles(text: str) -> set:
        w = _WORD_RE.findall((text or "").lower())
        return {" ".join(w[i : i + k]) for i in range(len(w) - k + 1)}

    def bench_partials(t: pa.Table) -> pa.Table:
        sh = set()
        for s in t.column("text").to_pylist():
            sh |= _doc_shingles(s)
        return pa.table({"shingle": pa.array(sorted(sh), pa.string())})

    distinct = (
        bench_ds.map_batches(bench_partials, batch_format="pyarrow")
        .groupby("shingle")
        .count()
        .materialize()
    )
    n_sh = distinct.count()
    if n_sh > driver_max_shingles:
        raise ValueError(
            f"benchmark shingle set has {n_sh} entries (> {driver_max_shingles}); "
            "use a hashed repartition-join variant at this scale"
        )
    bench_set = frozenset(r["shingle"] for r in distinct.take_all())
    ref = ray.put(bench_set)

    def flag(t: pa.Table) -> pa.Table:
        bl = ray.get(ref)
        hits = [len(_doc_shingles(s) & bl) for s in t.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_hits": pa.array(hits, pa.int64()),
                "is_contaminated": pa.array(
                    [1 if h else 0 for h in hits], pa.int64()
                ),
            }
        )

    return train_ds.map_batches(flag, batch_format="pyarrow")


def compression_signals_batch(t: pa.Table) -> pa.Table:
    """Compression-ratio quality signal (the zlib heuristic used by web
    pipelines — e.g. CCNet / RefinedWeb-style filters treat a very high
    compression ratio as boilerplate/repetition and a very low one as
    noise/binary junk).  Emits integer num/den so thresholds compare by
    cross-multiplication, float-free: (doc_id, n_bytes, n_compressed,
    ratio_permille = n_compressed*1000 // n_bytes; 0-byte docs -> 0).
    Stateless map_batches stage; zlib level pinned at 6 so results are
    deterministic across runs."""
    import zlib

    ids = t.column("doc_id")
    nb, nc, rp = [], [], []
    for s in t.column("text").to_pylist():
        raw = (s or "").encode()
        comp = len(zlib.compress(raw, 6))
        nb.append(len(raw))
        nc.append(comp)
        rp.append(comp * 1000 // len(raw) if raw else 0)
    return pa.table(
        {
            "doc_id": ids,
            "n_bytes": pa.array(nb, pa.int64()),
            "n_compressed": pa.array(nc, pa.int64()),
            "ratio_permille": pa.array(rp, pa.int64()),
        }
    )


def decontaminate_bloom(
    train_ds,
    bench_ds,
    k: int = 3,
    m_bits: int = 1 << 22,
    n_hashes: int = 5,
):
    """The named scale fallback for `decontaminate`: when the benchmark
    shingle SET is too big to broadcast, broadcast a fixed-size BLOOM
    FILTER of it instead (Bloom 1970) — ``m_bits`` bits regardless of
    shingle count (512 KiB at the default), so the broadcast stays
    bounded at any eval-suite size.

    One-sided error, pinned semantics: is_contaminated is 1 for EVERY doc
    the exact operator flags (no false negatives — a Bloom filter never
    misses a member), and spuriously 1 with per-shingle probability
    ~(1-e^(-kn/m))^k (callers route flagged docs to the exact checker or
    accept the over-drop; tests/test_dedup_pipelines.py asserts both the
    superset property and an FP bound).  n_hits counts distinct
    FILTER-POSITIVE shingles per doc, so it upper-bounds the exact n_hits.

    Shape: bench side builds per-batch partial BIT ARRAYS (fixed size,
    like the HLL/CMS partials) OR-merged on the driver over a
    block-count-bounded row set, ray.put ONCE; the train pass stays a
    stateless shuffle-free map probing the filter with vectorized uint64
    hashing."""
    import numpy as np
    import ray

    from ..urlops import xxhash64

    if m_bits % 64:
        raise ValueError("m_bits must be a multiple of 64")
    words = m_bits // 64

    def _doc_shingles(text: str) -> list:
        w = _WORD_RE.findall((text or "").lower())
        return [" ".join(w[i : i + k]) for i in range(len(w) - k + 1)]

    def _positions(shingles: list) -> np.ndarray:
        """(n, n_hashes) bit positions via double hashing h1 + i*h2
        (Kirsch & Mitzenmacher 2006) — two xxhash64 calls per shingle."""
        if not shingles:
            return np.zeros((0, n_hashes), dtype=np.uint64)
        h1 = np.array([xxhash64(s) for s in shingles], dtype=np.uint64)
        h2 = np.array([xxhash64("\x1f" + s) for s in shingles], dtype=np.uint64) | np.uint64(1)
        i = np.arange(n_hashes, dtype=np.uint64)
        return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(m_bits)

    def bench_bits(t: pa.Table) -> pa.Table:
        sh = set()
        for s in t.column("text").to_pylist():
            sh.update(_doc_shingles(s))
        bits = np.zeros(words, dtype=np.uint64)
        pos = _positions(sorted(sh)).ravel()
        np.bitwise_or.at(bits, (pos >> np.uint64(6)).astype(np.int64),
                         np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    parts = bench_ds.map_batches(bench_bits, batch_format="pyarrow").take_all()
    merged = np.zeros(words, dtype=np.uint64)
    for r in parts:
        merged |= np.frombuffer(r["bits"], dtype=np.uint64)
    ref = ray.put(merged)

    def flag(t: pa.Table) -> pa.Table:
        bits = ray.get(ref)
        hits = []
        for s in t.column("text").to_pylist():
            sh = sorted(set(_doc_shingles(s)))
            if not sh:
                hits.append(0)
                continue
            pos = _positions(sh)
            present = (
                (bits[(pos >> np.uint64(6)).astype(np.int64)]
                 >> (pos & np.uint64(63))) & np.uint64(1)
            ).astype(bool).all(axis=1)
            hits.append(int(present.sum()))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_hits": pa.array(hits, pa.int64()),
                "is_contaminated": pa.array([1 if h else 0 for h in hits], pa.int64()),
            }
        )

    return train_ds.map_batches(flag, batch_format="pyarrow")


def quality_filter_batch(
    max_dup_line_pct: int = 30,
    max_dup_line_char_pct: int = 30,
    max_top_bigram_char_pct: int = 20,
    min_word_chars: int = 20,
):
    """Pass/fail per document on the repetition signals (Gopher-shaped
    thresholds).  Emits (doc_id, keep, reason) with reason = the FIRST
    failing rule or ''.  Thresholds are integer PERCENTS compared by
    cross-multiplication (``num * 100 > pct * den``) — exact, float-free,
    and mirrored verbatim by the `quality_filter` SQL oracle.  Stateless
    map_batches stage, composable ahead of dedup in a prep pipeline."""
    import numpy as np

    def fn(t: pa.Table) -> pa.Table:
        sig = repetition_signals_batch(t)
        col = {c: sig.column(c).to_numpy() for c in sig.column_names}
        too_short = col["total_word_chars"] < min_word_chars
        dup_lines = col["n_dup_lines"] * 100 > max_dup_line_pct * col["n_lines"]
        dup_chars = (
            col["dup_line_chars"] * 100 > max_dup_line_char_pct * col["total_line_chars"]
        )
        top_bigram = (
            col["top_bigram_chars"] * 100
            > max_top_bigram_char_pct * col["total_word_chars"]
        )
        reason = np.select(
            [too_short, dup_lines, dup_chars, top_bigram],
            ["too_short", "dup_lines", "dup_line_chars", "top_bigram"],
            default="",
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "keep": pa.array(reason == "", pa.bool_()),
                "reason": pa.array(reason.tolist(), pa.string()),
            }
        )

    return fn


# ---------------------------------------------------------------------------
# PII redaction (Dolma / BigScience-style rule-based scrubbing)
# ---------------------------------------------------------------------------

# RE2-compatible patterns (no lookaround, ASCII classes) so the SAME regex
# runs in pyarrow.compute (RE2) here and in the DuckDB oracle (also RE2) —
# the engine and the SQL gate share one semantics by construction.
PII_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
PII_PHONE_RE = r"\b\d{3}[-. ]\d{3}[-. ]\d{4}\b"
PII_IPV4_RE = r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b"


def redact_pii_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    """Rule-based PII scrubbing as public web pipelines do it (Dolma
    §2.3 / BigScience ROOTS: regex rules for emails, phone numbers and IP
    addresses replaced with placeholder tokens).  Counts are taken at each
    sequential stage (emails first, then phones on the email-redacted
    string, then IPv4) so the definition is order-complete and exactly
    mirrored by the nested regexp_replace oracle.

    Fully vectorized: three pc.count_substring_regex + three
    pc.replace_substring_regex RE2 kernels per batch, no Python loop.
    Stateless map_batches stage — scale-safe at any corpus size.
    """
    import pyarrow.compute as pc

    s0 = pc.cast(t.column(text_col), pa.string())
    n_emails = pc.count_substring_regex(s0, pattern=PII_EMAIL_RE)
    s1 = pc.replace_substring_regex(s0, pattern=PII_EMAIL_RE, replacement="<EMAIL>")
    n_phones = pc.count_substring_regex(s1, pattern=PII_PHONE_RE)
    s2 = pc.replace_substring_regex(s1, pattern=PII_PHONE_RE, replacement="<PHONE>")
    n_ips = pc.count_substring_regex(s2, pattern=PII_IPV4_RE)
    s3 = pc.replace_substring_regex(s2, pattern=PII_IPV4_RE, replacement="<IP>")
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "text": s3,
            "n_emails": pc.cast(n_emails, pa.int64()),
            "n_phones": pc.cast(n_phones, pa.int64()),
            "n_ips": pc.cast(n_ips, pa.int64()),
        }
    )


def dsir_weights(
    raw_ds,
    target_ds,
    num_buckets: int = 65_536,
    scale: int = 1_000_000,
    alpha: float = 1.0,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """DSIR data-selection importance weights (Xie et al. 2023, "Data
    Selection for Language Models via Importance Resampling" — public
    paper): score every raw-corpus document by how target-like its hashed
    unigram distribution is, so a training mix can resample raw web text
    toward a small high-quality target set.

    Per-feature log-ratio over HASHED unigram buckets (the paper's hashed
    n-gram generative model, n=1):

        lam[f] = floor(scale * (ln p_target(f) - ln p_raw(f)))   (int64)
        weight(doc) = sum over token occurrences of lam[bucket(token)]

    with add-``alpha`` smoothing on both distributions.  lam is integer
    micro-units, so per-doc weights are exact integer sums — order- and
    partitioning-independent (the serial oracle in tests compares ==).
    Tokens are the word_freq tokenizer (``\\b\\w+\\b`` over lower(text));
    buckets are ``xxhash64(token) % num_buckets``.

    Shape at 100 TB: both distribution fits reduce to FIXED-size
    ``num_buckets``-row aggregates (per-batch factorize + bincount
    partials; only nonzero (feature, count) pairs move), so the driver
    pull is bounded by construction (65 536 x 16 B ~ 1 MiB) no matter the
    corpus size; lam broadcasts ONCE via ray.put; scoring is a stateless
    shuffle-free map over raw batches.  Nothing is O(corpus) on the
    driver.

    Output: one row per raw doc — (id_col, weight int64, n_tokens int64).
    """
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    from ..urlops import xxhash64_batch

    def _tok_partials(t: pa.Table) -> pa.Table:
        toks: list = []
        for txt in t.column(text_col).to_pylist():
            toks.extend(_WORD_RE.findall((txt or "").lower()))
        if not toks:
            return pa.table(
                {"feature": pa.array([], pa.int64()),
                 "partial": pa.array([], pa.int64())}
            )
        codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
        buck = (xxhash64_batch(list(uniq)) % np.uint64(num_buckets)).astype(np.int64)
        per_code = np.bincount(codes, minlength=len(uniq))
        agg = np.bincount(buck, weights=per_code, minlength=num_buckets)
        nz = np.flatnonzero(agg)
        return pa.table(
            {"feature": pa.array(nz, pa.int64()),
             "partial": pa.array(agg[nz].astype(np.int64), pa.int64())}
        )

    def _fit(ds) -> np.ndarray:
        rows = (
            ds.select_columns([text_col])
            .map_batches(_tok_partials, batch_format="pyarrow")
            .groupby("feature")
            .aggregate(Sum("partial", alias_name="n"))
            .take_all()  # <= num_buckets rows by construction
        )
        counts = np.zeros(num_buckets, np.int64)
        for r in rows:
            counts[r["feature"]] = r["n"]
        return counts

    t_cnt = _fit(target_ds)
    r_cnt = _fit(raw_ds)
    log_pt = np.log((t_cnt + alpha) / (t_cnt.sum() + alpha * num_buckets))
    log_pr = np.log((r_cnt + alpha) / (r_cnt.sum() + alpha * num_buckets))
    lam = np.floor(scale * (log_pt - log_pr)).astype(np.int64)
    lam_ref = ray.put(lam)

    def score(t: pa.Table) -> pa.Table:
        lam_b = ray.get(lam_ref)
        texts = t.column(text_col).to_pylist()
        toks: list = []
        doc_idx: list = []
        for i, txt in enumerate(texts):
            w = _WORD_RE.findall((txt or "").lower())
            toks.extend(w)
            doc_idx.extend([i] * len(w))
        n = len(texts)
        if not toks:
            return pa.table(
                {id_col: t.column(id_col),
                 "weight": pa.array(np.zeros(n, np.int64), pa.int64()),
                 "n_tokens": pa.array(np.zeros(n, np.int64), pa.int64())}
            )
        codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
        buck = (xxhash64_batch(list(uniq)) % np.uint64(num_buckets)).astype(np.int64)
        occ_lam = lam_b[buck[codes]]
        di = np.asarray(doc_idx, np.int64)
        # int64 scatter-add (bincount's float64 weights would stay exact
        # only below 2^53; per-doc sums are exact integers by contract)
        weight = np.zeros(n, np.int64)
        np.add.at(weight, di, occ_lam)
        n_tok = np.bincount(di, minlength=n).astype(np.int64)
        return pa.table(
            {id_col: t.column(id_col),
             "weight": pa.array(weight, pa.int64()),
             "n_tokens": pa.array(n_tok, pa.int64())}
        )

    return raw_ds.map_batches(score, batch_format="pyarrow")
