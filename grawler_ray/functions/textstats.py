"""Text-analysis operators for large-scale training-data pipelines.

Beyond the reference's operators (SURVEY §2.5 A1 is the word-frequency core,
src/parsers/text.go:16-29), these are the text-quality stages a 100 TB
pipeline needs: per-doc token stats / quality scoring, language ID, document
fingerprinting.  All run as vectorized-per-batch ``map_batches`` transforms
over the ``documents`` table (doc_id, text, lang, source, n_chars).

Every SQL-checkable op keeps its semantics expressible in DuckDB (RE2 regex
= same ASCII \\w semantics as Go's regexp; see tests).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

from ..shuffle import coarse_groupby
from ..textops import _WORD_RE

# a small, fixed stopword list (shared with the SQL oracle literally)
STOPWORDS = ("the", "a", "and", "of", "to", "in", "is", "on", "for", "by")

_LANG_PROFILES = {
    # tiny deterministic stopword profiles for the language-ID heuristic
    "en": {"the", "and", "of", "to", "in", "is", "that", "it", "for", "on"},
    "de": {"der", "die", "und", "das", "ist", "nicht", "ein", "mit", "auf", "zu"},
    "fr": {"le", "la", "et", "les", "des", "est", "une", "dans", "que", "pour"},
    "es": {"el", "la", "de", "que", "y", "los", "en", "un", "por", "con"},
}


def word_freq_batch(t: pa.Table) -> pa.Table:
    """A1 exploded: (doc_id, word, frequency) — ASCII \\b\\w+\\b, lowercase
    AFTER the match (src/parsers/text.go:16-29; matching on the original
    text matters: lowercasing can change what \\w matches, e.g. U+0130).

    Vectorized: tokens are factorized in ORIGINAL case, only the batch's
    distinct tokens are lowered (bit-identical to per-token lower), then
    one np.unique over (doc, word-code) pairs yields the counts — no
    per-token Python dict ops.  Row order is (doc, code) sorted, not
    first-occurrence (the scalar ``words_freq`` keeps Go's insertion
    order for the crawl words sink)."""
    import pandas as pd

    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    texts = t.column("text").to_pylist()
    toks: list = []
    lens = np.empty(len(texts), np.int64)
    for i, text in enumerate(texts):
        ws = _WORD_RE.findall(text or "")
        toks.extend(ws)
        lens[i] = len(ws)
    if not toks:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "word": pa.array([], pa.string()),
                "frequency": pa.array([], pa.int64()),
            }
        )
    codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
    lcodes, luniq = pd.factorize(
        np.asarray([u.lower() for u in uniq], dtype=object)
    )
    u = len(luniq)
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64), lens)
    ucc, counts = np.unique(doc_idx * u + lcodes[codes], return_counts=True)
    return pa.table(
        {
            "doc_id": pa.array(ids[ucc // u], pa.int64()),
            "word": pa.array(list(luniq[ucc % u]), pa.string()),
            "frequency": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )



def _word_tf_rows(t: pa.Table) -> pa.Table:
    """(word, doc_id, tf) rows of a docs batch: the input of the
    word-keyed coarse exchanges below."""
    wf = word_freq_batch(t)
    return pa.table(
        {
            "word": wf.column("word"),
            "doc_id": wf.column("doc_id"),
            "tf": wf.column("frequency"),
        }
    )

def process_text_batch(t: pa.Table) -> pa.Table:
    """M9 ProcessText over a column (src/parsers/text.go:8-14)."""
    from ..textops import process_text

    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "processed": pa.array(
                [process_text(x or "") for x in t.column("text").to_pylist()], pa.string()
            ),
        }
    )


def doc_stats_batch(t: pa.Table) -> pa.Table:
    """Quality scoring: token count, stopword count/ratio, char length.
    Integer counts + one single-division double => bit-identical to the SQL
    oracle (no float accumulation)."""
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()
    n_words, n_stop, n_chars, ratios = [], [], [], []
    stop = set(STOPWORDS)
    for txt in texts:
        txt = txt or ""
        toks = _WORD_RE.findall(txt.lower())
        nw = len(toks)
        ns = sum(1 for w in toks if w in stop)
        n_words.append(nw)
        n_stop.append(ns)
        n_chars.append(len(txt))
        ratios.append(ns / nw if nw else None)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_stop": pa.array(n_stop, pa.int64()),
            "n_chars_actual": pa.array(n_chars, pa.int64()),
            "stop_ratio": pa.array(ratios, pa.float64()),
        }
    )


def doc_entropy_batch(t: pa.Table, scale: int = 100) -> pa.Table:
    """Per-doc unigram Shannon entropy (nats) of the lowercased
    ``\\b\\w+\\b`` token distribution — the token-diversity quality
    signal (low entropy = templated/boilerplate text; complements the
    Gopher repetition rules in ``quality.py``).

        H = ln(n) − (Σ_w c_w·ln c_w) / n

    over the per-doc token counts c_w.  Output
    (doc_id, n_words:int64, n_distinct:int64, entropy_c:float64) with
    entropy_c = floor(H·scale + 0.5) — integer-scaled but emitted
    float64/NaN because empty docs are NULL (driver repr rule,
    CLAUDE.md: nullable numeric outputs must land float64/NaN).

    Shuffle-free stateless map, vectorized like ``word_freq_batch``:
    one factorize over the batch's tokens (original case; only uniques
    are lowered), one np.unique over packed (doc, code) pairs, then two
    vector ln() calls on the distinct-pair counts.  ln is libm on both
    sides (numpy / DuckDB); at 2-decimal scaling a hash divergence
    needs ~1e-12 disagreement within 5e-3 of a rounding boundary — the
    same accepted risk as every floor(x·100+0.5) oracle in this repo.
    """
    import pandas as pd

    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    texts = t.column("text").to_pylist()
    ndocs = len(texts)
    toks: list = []
    lens = np.empty(ndocs, np.int64)
    for i, text in enumerate(texts):
        ws = _WORD_RE.findall(text or "")
        toks.extend(ws)
        lens[i] = len(ws)
    n_distinct = np.zeros(ndocs, np.int64)
    clogc = np.zeros(ndocs, np.float64)
    if toks:
        codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
        lcodes, luniq = pd.factorize(
            np.asarray([u.lower() for u in uniq], dtype=object)
        )
        u = len(luniq)
        doc_idx = np.repeat(np.arange(ndocs, dtype=np.int64), lens)
        ucc, counts = np.unique(doc_idx * u + lcodes[codes], return_counts=True)
        pair_doc = ucc // u
        n_distinct = np.bincount(pair_doc, minlength=ndocs).astype(np.int64)
        clogc = np.bincount(
            pair_doc, weights=counts * np.log(counts), minlength=ndocs
        )
    nonzero = lens > 0
    ent = np.full(ndocs, np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent[nonzero] = np.floor(
            (np.log(lens[nonzero]) - clogc[nonzero] / lens[nonzero]) * scale
            + 0.5
        )
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_words": pa.array(lens, pa.int64()),
            "n_distinct": pa.array(n_distinct, pa.int64()),
            "entropy_c": pa.array(ent, pa.float64()),
        }
    )


def fingerprint_batch(t: pa.Table) -> pa.Table:
    """Document fingerprint: first 16 hex chars of md5(text) — matches
    DuckDB substring(md5(text),1,16) for the oracle."""
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "fingerprint": pa.array(
                [
                    hashlib.md5((x or "").encode()).hexdigest()[:16]
                    for x in t.column("text").to_pylist()
                ],
                pa.string(),
            ),
        }
    )


def langid_batch(t: pa.Table) -> pa.Table:
    """Heuristic language ID: distinct-stopword hit counts per profile,
    winner = first language (code-sorted) reaching the max, 'und' when no
    profile hits.  ASCII tokenization (_WORD_RE is re.ASCII) + ASCII
    profiles make this exactly SQL-expressible — the gate checks it
    against a FILTERed-count + greatest() DuckDB mirror (upgraded from
    rows-only in r4)."""
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()
    langs, scores = [], []
    for txt in texts:
        toks = set(_WORD_RE.findall((txt or "").lower()))
        best_lang, best = "und", 0
        for lang in sorted(_LANG_PROFILES):
            s = len(toks & _LANG_PROFILES[lang])
            if s > best:
                best, best_lang = s, lang
        langs.append(best_lang)
        scores.append(best)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "pred_lang": pa.array(langs, pa.string()),
            "score": pa.array(scores, pa.int64()),
        }
    )


# re-export for oracle-SQL construction
WORD_PATTERN_SQL = r"\b\w+\b"

# BPE-ish pre-tokenizer (GPT-2-style, simplified to a LOOKAHEAD-FREE,
# ASCII-class-only pattern so Python `re` and DuckDB's RE2 match identically:
# RE2 has no lookahead, RE2's \s/\w are ASCII while Python's are Unicode —
# every class is spelled out explicitly for bit-identical counts).
# Alternation order matters and is leftmost-first in both engines.
BPE_TOKEN_PATTERN = (
    r"'(?:s|t|re|ve|m|ll|d)"
    r"| ?[a-zA-Z]+"
    r"| ?[0-9]+"
    r"| ?[^ \t\n\r\fa-zA-Z0-9]+"
    r"|[ \t\n\r\f]+"
)
_BPE_RE = re.compile(BPE_TOKEN_PATTERN)
_WS_RE = re.compile(r"[^ \t\n\r\f]+")
_PUNCT_RE = re.compile(r"[^ \t\n\r\fa-zA-Z0-9]")


def token_count_batch(t: pa.Table) -> pa.Table:
    """Token counting for training-data budgeting: per doc, the BPE-ish
    pre-token count (the standard proxy for LLM token cost), the
    whitespace-token count, and the punctuation-character count (a quality
    signal).  Pure counts => exactly mirrored by the DuckDB oracle with the
    same RE2-compatible patterns.

    Counts run as Arrow ``count_substring_regex`` (RE2, vectorized C++, no
    Python string materialization) — verified count-identical to the
    Python ``re`` path over sf0.01/sf0.1 documents AND 10k real crawled
    pages (these patterns are the RE2-compatible subset by design; both
    engines are leftmost-first and the alternation tiles the string, so
    non-overlapping match counts coincide)."""
    import pyarrow.compute as pc

    col = t.column("text")
    if col.null_count:
        col = pc.fill_null(col, "")
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "n_bpe_tokens": pc.cast(
                pc.count_substring_regex(col, BPE_TOKEN_PATTERN), pa.int64()
            ),
            "n_ws_tokens": pc.cast(
                pc.count_substring_regex(col, r"[^ \t\n\r\f]+"), pa.int64()
            ),
            "n_punct_chars": pc.cast(
                pc.count_substring_regex(col, r"[^ \t\n\r\fa-zA-Z0-9]"), pa.int64()
            ),
        }
    )


def word_count_partial(t: pa.Table, group_col: str | None = None) -> pa.Table:
    """One batch's (group?, word) occurrence counts with words_freq
    semantics (ASCII \\b\\w+\\b on the ORIGINAL text, lowercase after the
    match) — factorized like word_freq_batch, one row per distinct
    (group, word) per batch.  Output columns: [group_col?, word, partial]."""
    import pandas as pd

    texts = t.column("text").to_pylist()
    toks: list = []
    lens = np.empty(len(texts), np.int64)
    for i, txt in enumerate(texts):
        ws = _WORD_RE.findall(txt or "")
        toks.extend(ws)
        lens[i] = len(ws)
    cols: dict = {}
    if not toks:
        if group_col is not None:
            cols[group_col] = pa.array([], pa.string())
        cols["word"] = pa.array([], pa.string())
        cols["partial"] = pa.array([], pa.int64())
        return pa.table(cols)
    codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
    lcodes, luniq = pd.factorize(np.asarray([x.lower() for x in uniq], dtype=object))
    u = len(luniq)
    wcode = lcodes[codes]
    if group_col is None:
        ucc, cnt = np.unique(wcode, return_counts=True)
        cols["word"] = pa.array(list(luniq[ucc]), pa.string())
    else:
        gcodes, guniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        gw = np.repeat(gcodes.astype(np.int64), lens) * u + wcode
        ucc, cnt = np.unique(gw, return_counts=True)
        cols[group_col] = pa.array(list(guniq[ucc // u]), pa.string())
        cols["word"] = pa.array(list(luniq[ucc % u]), pa.string())
    cols["partial"] = pa.array(cnt.astype(np.int64), pa.int64())
    return pa.table(cols)


def top_words_per_lang(docs_ds, k: int = 10, combine_parts: int = 8):
    """Per-group top-k (group = lang, item = word, weight = occurrences):
    the standard vocabulary/report primitive.  Scale shape: per-batch partial
    word counts BEFORE the shuffle (one row per distinct (lang, word) per
    batch, never one per token), one (lang, word) hash aggregate, then a
    per-batch partial top-k + tree-combine — truncating to k per group per
    block is lossless for the final top-k (any final top-k row is in every
    superset's top-k), so no stage ever holds a group's full vocabulary.
    Output (lang, word, total, rank), rank 1..k by (total desc, word asc)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        return word_count_partial(t, group_col="lang")

    def head_k(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["lang", "total", "word"], ascending=[True, False, True])
        return pa.Table.from_pandas(
            df.groupby("lang", sort=False).head(k), preserve_index=False
        )

    def rank_k(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["lang", "total", "word"], ascending=[True, False, True])
        df = df.groupby("lang", sort=False).head(k)
        df["rank"] = df.groupby("lang", sort=False).cumcount() + 1
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        docs_ds.select_columns(["lang", "text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "word"])
        .aggregate(Sum("partial", alias_name="total"))
        .map_batches(head_k, batch_format="pyarrow")     # per-block truncate
        .repartition(combine_parts)
        .map_batches(head_k, batch_size=None, batch_format="pyarrow")
        .repartition(1)
        .map_batches(rank_k, batch_size=None, batch_format="pyarrow")
    )


def distinct_words_per_lang(docs_ds):
    """Exact per-language vocabulary size: count(DISTINCT word) GROUP BY
    lang, as two cascaded hash-aggregates.  Scale shape: per-batch distinct
    (lang, word) pairs first (bounded by the batch vocabulary, not token
    count), one (lang, word) shuffle to global-dedup, then a per-batch
    partial count -> tiny lang aggregate — the distinct-count shuffle
    carries one row per distinct pair, and nothing ever holds a language's
    whole vocabulary in one place.  Output (lang, n_words:int64)."""
    from ray.data.aggregate import Count, Sum

    def pairs(t: pa.Table) -> pa.Table:
        # lower-BEFORE-match semantics (mirrors the SQL oracle's
        # regexp_extract_all(lower(text), ...)), factorized: one row per
        # batch-distinct (lang, word)
        import pandas as pd

        texts = t.column("text").to_pylist()
        toks: list = []
        lens = np.empty(len(texts), np.int64)
        for i, txt in enumerate(texts):
            ws = _WORD_RE.findall((txt or "").lower())
            toks.extend(ws)
            lens[i] = len(ws)
        if not toks:
            return pa.table(
                {"lang": pa.array([], pa.string()), "word": pa.array([], pa.string())}
            )
        wcodes, wuniq = pd.factorize(np.asarray(toks, dtype=object))
        gcodes, guniq = pd.factorize(
            np.asarray(t.column("lang").to_pylist(), dtype=object)
        )
        u = len(wuniq)
        gw = np.unique(np.repeat(gcodes.astype(np.int64), lens) * u + wcodes)
        return pa.table(
            {
                "lang": pa.array(list(guniq[gw // u]), pa.string()),
                "word": pa.array(list(wuniq[gw % u]), pa.string()),
            }
        )

    def partial_count(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas().groupby("lang", sort=False).size().reset_index(name="partial")
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        docs_ds.select_columns(["lang", "text"])
        .map_batches(pairs, batch_format="pyarrow")
        .groupby(["lang", "word"])
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c", "word"])
        .map_batches(partial_count, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("partial", alias_name="n_words"))
    )


def _pair_count_partial(t: pa.Table, window: int, out_col: str) -> pa.Table:
    """One batch's distinct windowed-pair counts: the token stream is
    factorized ONCE (pandas factorize), docs separated by ``window``
    sentinel codes so no pair can straddle documents; the ``window``
    shifted-pair code arrays are counted with a single ``np.unique`` —
    pair strings are built only for the batch's DISTINCT pairs."""
    import pandas as pd

    toks: list = []
    sep = [None] * window
    for txt in t.column("text").to_pylist():
        toks.extend(_WORD_RE.findall((txt or "").lower()))
        toks.extend(sep)
    codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
    # factorize maps the None sentinels to -1; uniq holds real tokens only
    u = max(len(uniq), 1)
    parts = []
    for d in range(1, window + 1):
        if len(codes) <= d:
            break
        a, b = codes[:-d], codes[d:]
        m = (a >= 0) & (b >= 0)
        parts.append(a[m].astype(np.int64) * u + b[m])
    if not parts:
        return pa.table(
            {out_col: pa.array([], pa.string()), "partial": pa.array([], pa.int64())}
        )
    upc, cnt = np.unique(np.concatenate(parts), return_counts=True)
    ai, bi = upc // u, upc % u
    pairs = [uniq[x] + " " + uniq[y] for x, y in zip(ai, bi)]
    return pa.table(
        {out_col: pa.array(pairs, pa.string()), "partial": pa.array(cnt, pa.int64())}
    )


def bigram_counts(docs_ds, k: int = 100, combine_parts: int = 8):
    """Global top-k bigrams (the 2-gram LM-count primitive): tokens are
    ``\\b\\w+\\b`` over lower(text) — the repetition_signals tokenizer —
    joined with one space; ranked (total desc, bigram asc).

    Scale shape mirrors top_words: per-batch partial counts (one row per
    distinct bigram per batch, never per occurrence; the factorized
    cooccurrence kernel at window=1 — tokens factorized once, pair codes
    counted in one np.unique, strings built only for distincts) -> one
    bigram hash aggregate -> per-block lossless top-k truncation -> tree
    combine.  Output (bigram, total) with exactly the SQL LIMIT-k set
    (deterministic tiebreak both sides)."""
    import pandas as pd

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        return _pair_count_partial(t, window=1, out_col="bigram")

    def head_k(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["total", "bigram"], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        docs_ds.select_columns(["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("partial", alias_name="total"))
        .map_batches(head_k, batch_format="pyarrow")     # per-block truncate
        .repartition(combine_parts)
        .map_batches(head_k, batch_size=None, batch_format="pyarrow")
        .repartition(1)
        .map_batches(head_k, batch_size=None, batch_format="pyarrow")
    )


def cooccurrence_topk(docs_ds, window: int = 5, k: int = 100, combine_parts: int = 8):
    """Global top-k windowed co-occurrence pairs — the skip-gram statistic
    under word2vec/GloVe/PMI vocabulary analysis: every ORDERED token pair
    ``(w_i, w_{i+d})`` with ``1 <= d <= window`` inside one document, tokens
    ``\\b\\w+\\b`` over lower(text) (the bigram_counts tokenizer; window=1
    degenerates to bigram_counts).  Ranked (total desc, pair asc).

    Scale shape: per-batch factorized pair counting (``_pair_count_partial``
    — one row per distinct pair per batch, never per occurrence) -> one
    pair-hash aggregate -> per-block lossless top-k truncation -> tree
    combine (same tail as bigram_counts/top_words).
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        return _pair_count_partial(t, window=window, out_col="pair")

    def head_k(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["total", "pair"], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        docs_ds.select_columns(["text"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("pair")
        .aggregate(Sum("partial", alias_name="total"))
        .map_batches(head_k, batch_format="pyarrow")     # per-block truncate
        .repartition(combine_parts)
        .map_batches(head_k, batch_size=None, batch_format="pyarrow")
        .repartition(1)
        .map_batches(head_k, batch_size=None, batch_format="pyarrow")
    )


def bigram_lm_score(docs_ds, num_groups: int = 64,
                    driver_max_bigrams: int = 2_000_000):
    """Per-doc corpus-frequency fluency score — the count-based stand-in
    for LM perplexity filtering (CCNet/Gopher use a real LM; with no
    tokenizer/LM libs in the image, the integer bigram-frequency sum is
    the deterministic, oracle-checkable analogue): for every document,
    ``score = Σ over its bigram OCCURRENCES of that bigram's GLOBAL
    corpus count`` (all-integer, so the DuckDB mirror compares exactly),
    plus ``n_bigrams``.  Docs with < 2 tokens have no bigrams and are
    absent (JOIN semantics).  Tokens are the bigram_counts tokenizer.

    Scale shape (two passes over narrow metadata, never the text twice):
    1. per-batch factorized (doc_id, bigram, mult) distincts — one row
       per distinct bigram per doc, the text payload never leaves the
       batch; MATERIALIZED once because it feeds both the global count
       and the join (narrow: str + 2 ints — the frontier lesson).
    2. global counts = one bigram-hash aggregate of the same rows.
    3. counts flow back — size-adaptively.  Below ``driver_max_bigrams``
       distinct bigrams the count table is pulled once and broadcast via
       ``ray.put`` (sandbox/mid scale: kills the string-key exchange —
       measured ~2 s/exchange fixed cost at 32 cpus), the attach+presum
       fuse into one stateless map, and one final doc_id aggregate
       finishes: 2 exchanges.  Above it, counts flow through the
       string-key ``repartition_join`` (the corpus-scale large×large
       path; a 10^9-bigram table fits no driver) with the same per-batch
       presums and final aggregate: 3 exchanges, all ∝ distinct
       (doc, bigram) rows.  tests/test_functions.py asserts both paths
       equal below the threshold.
    """
    import pandas as pd

    from ray.data.aggregate import Sum

    from grawler_ray.functions.joins import repartition_join

    empty = pa.schema(
        [
            pa.field("bigram", pa.string()),
            pa.field("doc_id", pa.int64()),
            pa.field("mult", pa.int64()),
        ]
    )

    def doc_pairs(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        toks: list = []
        dlens = np.empty(len(ids), np.int64)
        for i, txt in enumerate(t.column("text").to_pylist()):
            ws = _WORD_RE.findall((txt or "").lower())
            toks.extend(ws)
            toks.append(None)  # sentinel: no pair straddles documents
            dlens[i] = len(ws) + 1
        codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
        u = max(len(uniq), 1)
        if len(codes) < 2:
            return empty.empty_table()
        docidx = np.repeat(np.arange(len(ids), dtype=np.int64), dlens)
        a, b = codes[:-1], codes[1:]
        m = (a >= 0) & (b >= 0)
        if not m.any():
            return empty.empty_table()
        d = docidx[:-1][m]
        a = a[m].astype(np.int64)
        b = b[m].astype(np.int64)
        # distinct (doc, pair) + multiplicity in ONE np.unique over a
        # packed key; fits int64 up to ~nd * u^2 = 2^62
        assert len(ids) * u * u < (1 << 62), "batch too large for packed keys"
        key = (d * u + a) * u + b
        ukey, mult = np.unique(key, return_counts=True)
        ud = ukey // (u * u)
        rem = ukey % (u * u)
        pairs = [uniq[x] + " " + uniq[y] for x, y in zip(rem // u, rem % u)]
        return pa.table(
            {
                "bigram": pa.array(pairs, pa.string()),
                "doc_id": pa.array(ids[ud], pa.int64()),
                "mult": pa.array(mult.astype(np.int64), pa.int64()),
            }
        )

    pairs_ds = (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(doc_pairs, batch_format="pyarrow")
        .materialize()  # narrow; consumed by the count AND the join
    )
    glob = (
        pairs_ds.groupby("bigram")
        .aggregate(Sum("mult", alias_name="total"))
        .materialize()
    )

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        mult = t.column("mult").to_numpy(zero_copy_only=False)
        total = t.column("total").to_numpy(zero_copy_only=False)
        uids, inv = np.unique(ids, return_inverse=True)
        # integer scatter-adds (np.bincount accumulates in FLOAT64 and
        # silently corrupts int64 sums above 2^53)
        n_part = np.zeros(len(uids), np.int64)
        s_part = np.zeros(len(uids), np.int64)
        np.add.at(n_part, inv, mult)
        np.add.at(s_part, inv, mult * total)
        return pa.table(
            {
                "doc_id": pa.array(uids, pa.int64()),
                "n_part": pa.array(n_part),
                "s_part": pa.array(s_part),
            }
        )

    if glob.count() <= driver_max_bigrams:
        # size-adaptive driver path: bounded count table -> one broadcast,
        # attach + presum fused, no string-key exchange
        import ray as _ray

        cmap = {r["bigram"]: r["total"] for r in glob.take_all()}
        ref = _ray.put(cmap)

        def attach_partial(t: pa.Table) -> pa.Table:
            cm = _ray.get(ref)
            if t.num_rows == 0:
                return pa.table(
                    {
                        "doc_id": pa.array([], pa.int64()),
                        "n_part": pa.array([], pa.int64()),
                        "s_part": pa.array([], pa.int64()),
                    }
                )
            ids = t.column("doc_id").to_numpy(zero_copy_only=False)
            mult = t.column("mult").to_numpy(zero_copy_only=False)
            codes, uniq = pd.factorize(
                np.asarray(t.column("bigram").to_pylist(), dtype=object)
            )
            # dict lookups only per DISTINCT bigram in the batch
            tot_u = np.fromiter((cm[x] for x in uniq), np.int64, len(uniq))
            total = tot_u[codes]
            uids, inv = np.unique(ids, return_inverse=True)
            n_part = np.zeros(len(uids), np.int64)
            s_part = np.zeros(len(uids), np.int64)
            np.add.at(n_part, inv, mult)
            np.add.at(s_part, inv, mult * total)
            return pa.table(
                {
                    "doc_id": pa.array(uids, pa.int64()),
                    "n_part": pa.array(n_part),
                    "s_part": pa.array(s_part),
                }
            )

        scored = pairs_ds.map_batches(attach_partial, batch_format="pyarrow")
    else:
        joined = repartition_join(
            pairs_ds, glob, on_left="bigram", on_right="bigram",
            num_groups=num_groups,
        )
        scored = joined.map_batches(partial, batch_format="pyarrow")

    out = scored.groupby("doc_id").aggregate(
        Sum("n_part", alias_name="n_bigrams"), Sum("s_part", alias_name="score")
    )

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_bigrams": t.column("n_bigrams").cast(pa.int64()),
                "score": t.column("score").cast(pa.int64()),
            }
        )

    return out.map_batches(norm, batch_format="pyarrow")


def source_lang_pivot(docs_ds):
    """Pivot / conditional aggregation: per source, total docs + one count
    column per language (fixed column set = the corpus's language codes),
    plus the chars sum — the wide-format corpus-composition report.
    Scale shape: per-batch partial pivot (vectorized pandas crosstab) ->
    groupby(source).sum over ~n_sources rows; the shuffle carries one row
    per (source, batch), never per doc."""
    import pandas as pd

    from ray.data.aggregate import Sum

    langs = ("de", "en", "es", "fr", "zh")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "source": t.column("source").to_pylist(),
                "lang": t.column("lang").to_pylist(),
                "n_chars": t.column("n_chars").to_numpy(zero_copy_only=False),
            }
        )
        g = df.groupby("source", sort=False)
        out = pd.DataFrame({"n_docs": g.size(), "sum_chars": g["n_chars"].sum()})
        for lg in langs:
            out[f"n_{lg}"] = (
                df[df["lang"] == lg].groupby("source", sort=False).size()
            )
        out = out.fillna(0).astype(np.int64).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    aggs = [Sum("n_docs", alias_name="n_docs"), Sum("sum_chars", alias_name="sum_chars")]
    aggs += [Sum(f"n_{lg}", alias_name=f"n_{lg}") for lg in langs]
    return (
        docs_ds.select_columns(["source", "lang", "n_chars"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(*aggs)
    )


def tfidf_topk(docs_ds, k: int = 5, scale: int = 1_000_000, num_groups: int = 256):
    """Per-document top-k terms by integer-scaled tf-idf:
    ``score = tf * ((N * scale) // df)`` — the idf is an integer floor
    division, so the DuckDB oracle ranks bit-identically (float ln-idf
    would flip near-ties between engines).  Ranking is (score desc, word
    asc); output (doc_id, word, tf, df, score, rank) with rank <= k.

    Shape (web-scale vocab — no driver pull, no broadcast): per-batch tf
    via the Go-parity tokenizer (doc-local, shuffle-free) -> df by word
    through ONE coarse word-hash shuffle where each group counts its word
    runs and attaches df in the same run-scan -> per-doc top-k through ONE
    coarse doc-hash shuffle with a vectorized (doc, -score, word) sort +
    in-run cumcount.  Both groupbys are ~num_groups vectorized pandas
    groups, never per-word/per-doc groups.
    """
    import pandas as pd

    n_docs = docs_ds.count()

    def attach_df(df: "pd.DataFrame") -> "pd.DataFrame":
        # every (doc, word) row of a word lives in this group; a word's df
        # is its run length (word_freq is distinct per (doc, word))
        df = df.sort_values(["word", "doc_id"])
        w = df["word"].to_numpy()
        n = len(df)
        is_start = np.concatenate(([True], w[1:] != w[:-1])) if n else np.array([], bool)
        run_id = np.cumsum(is_start) - 1 if n else np.array([], np.int64)
        run_len = np.bincount(run_id) if n else np.array([], np.int64)
        dfs = run_len[run_id] if n else np.array([], np.int64)
        tf = df["tf"].to_numpy().astype(np.int64)
        score = tf * ((n_docs * scale) // dfs.astype(np.int64))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "word": w,
                "tf": tf,
                "df": dfs.astype(np.int64),
                "score": score,
            }
        )

    def topk(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["doc_id", "score", "word"], ascending=[True, False, True])
        ids = df["doc_id"].to_numpy()
        n = len(df)
        is_start = np.concatenate(([True], ids[1:] != ids[:-1])) if n else np.array([], bool)
        start_idx = np.maximum.accumulate(np.where(is_start, np.arange(n), 0)) if n else np.array([], np.int64)
        rank = np.arange(n) - start_idx + 1
        keep = rank <= k
        out = df.loc[keep, ["doc_id", "word", "tf", "df", "score"]].copy()
        out["rank"] = rank[keep].astype(np.int64)
        return out

    tf = docs_ds.map_batches(_word_tf_rows, batch_format="pyarrow")
    with_df = coarse_groupby(tf, "word", attach_df, num_groups, "pandas")
    return coarse_groupby(with_df, "doc_id", topk, num_groups, "pandas")


def inverted_index(docs_ds, num_groups: int = 256):
    """Distributed inverted index: one row per distinct word with
    (word, df, total_tf, postings), where ``postings`` is the ascending
    comma-joined doc_id list — a string, not a list column, so the
    DuckDB oracle (string_agg ORDER BY doc_id) hash-compares exactly.

    Shape: per-batch (doc, word, tf) via the Go-parity tokenizer (doc-
    local, shuffle-free) -> ONE coarse word-hash shuffle (~num_groups
    groups, never per-word groups) -> each group sorts its rows by
    (word, doc_id) and emits one row per word run.  Posting strings are
    built per VOCABULARY entry (bounded by group vocab, not token
    count).  At web scale a posting list for a stopword is unbounded —
    production layout would shard hot words by doc-range; this emits the
    full list, which is the right semantics for the corpus-scale index
    the oracle can check.
    """
    import pandas as pd

    def build(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["word", "doc_id"])
        g = df.groupby("word", sort=False)
        out = g.agg(
            df=("doc_id", "size"),
            total_tf=("tf", "sum"),
            postings=("doc_id", lambda s: ",".join(map(str, s))),
        ).reset_index()
        out["df"] = out["df"].astype(np.int64)
        out["total_tf"] = out["total_tf"].astype(np.int64)
        return out[["word", "df", "total_tf", "postings"]]

    return coarse_groupby(
        docs_ds.map_batches(_word_tf_rows, batch_format="pyarrow"),
        "word",
        build,
        num_groups,
        "pandas",
    )


def length_quantiles(
    docs_ds,
    value_col: str = "n_chars",
    group_col: str = "lang",
    q_pcts: tuple = (50, 90, 99),
    driver_max_bins: int = 2_000_000,
):
    """Exact per-group discrete quantiles of an integer column via a
    distributed histogram — the scale-correct way to compute corpus
    length distributions without a global sort: the shuffle moves one row
    per DISTINCT (group, value) pair (bounded by the value domain, not
    the corpus), and the quantile walk runs on that bounded histogram.

    Quantile definition pinned for the SQL oracle (integer arithmetic on
    BOTH sides, no float rank): p_q = the smallest value whose cumulative
    count reaches ``ceil(n * q / 100)`` — computed as
    ``(n * q + 99) // 100``.  Output one row per group:
    (group_col, n_docs, p{q}...) all int64.

    The histogram is pulled to the driver under ``driver_max_bins`` (the
    ANN-style bounded final reduce); a value domain that large means the
    column isn't histogram-shaped and needs a sort-based plan instead —
    raising names that fallback rather than materializing unbounded.
    """
    import pandas as pd

    def partials(t: pa.Table) -> pa.Table:
        g = t.group_by([group_col, value_col]).aggregate([([], "count_all")])
        return g.rename_columns([group_col, value_col, "cnt"])

    hist = (
        docs_ds.map_batches(partials, batch_format="pyarrow")
        .groupby([group_col, value_col])
        .sum("cnt")
        .materialize()
    )
    n_bins = hist.count()
    if n_bins > driver_max_bins:
        raise ValueError(
            f"histogram has {n_bins} bins (> {driver_max_bins}); "
            f"{value_col} is not histogram-shaped — use a sort-based quantile"
        )
    df = hist.to_pandas().rename(columns={"sum(cnt)": "cnt"})
    df = df.sort_values([group_col, value_col])
    rows = []
    for grp, sub in df.groupby(group_col, sort=True):
        vals = sub[value_col].to_numpy(np.int64)
        cum = sub["cnt"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
        row = {group_col: grp, "n_docs": n}
        for q in q_pcts:
            rank = (n * q + 99) // 100
            row[f"p{q}"] = int(vals[np.searchsorted(cum, rank)])
        rows.append(row)
    import ray.data

    return ray.data.from_pandas(pd.DataFrame(rows))


def rolling_hash(text: str, mod: int = (1 << 61) - 1, base: int = 257) -> int:
    """Polynomial rolling hash of the whole text (content-defined
    fingerprinting primitive; used by the shingling dedup ops)."""
    h = 0
    for b in text.encode("utf-8"):
        h = (h * base + b) % mod
    return h


# ASCII whitespace only (RE2 \s semantics), NOT Python's Unicode \s: the
# DuckDB oracle collapses with RE2 '[ \t\n\r\f\v]+', so NBSP/ideographic
# spaces survive normalization in BOTH engines identically
_ASCII_WS_RUN_RE = re.compile(r"[ \t\n\r\f\v]+")


def normalize_text_batch(t: pa.Table) -> pa.Table:
    """Unicode NFC normalization + ASCII-whitespace-run collapse + space
    trim — the canonicalization pass a multi-source 100 TB corpus needs
    before any exact/near dedup (differently-encoded accents defeat
    exact-hash dedup otherwise).

    Output is (doc_id, n_chars_norm, norm_md5): the md5 of the normalized
    UTF-8 bytes hash-compares against DuckDB's
    ``md5(trim(regexp_replace(nfc_normalize(text), '[ \\t\\n\\r\\f\\v]+',
    ' ', 'g'), ' '))`` exactly (both NFC implementations follow the same
    stable Unicode normalization spec; whitespace class pinned ASCII).
    Stateless one-pass map — shuffle-free at any scale."""
    import unicodedata

    ids = t.column("doc_id")
    lens, md5s = [], []
    for s in t.column("text").to_pylist():
        s = unicodedata.normalize("NFC", s or "")
        s = _ASCII_WS_RUN_RE.sub(" ", s).strip(" ")
        lens.append(len(s))
        md5s.append(hashlib.md5(s.encode("utf-8")).hexdigest())
    return pa.table(
        {
            "doc_id": ids,
            "n_chars_norm": pa.array(lens, pa.int64()),
            "norm_md5": pa.array(md5s, pa.string()),
        }
    )


def rare_word_ratio(docs_ds, max_df: int = 2, num_groups: int = 256):
    """CCNet-style rarity signal: per document, how much of its mass is
    words that almost no other document uses (document frequency <=
    ``max_df``).  All-integer output (doc_id, n_tokens, n_rare_tokens,
    n_types, n_rare_types) so the DuckDB oracle hash-compares exactly;
    the caller divides for the ratio.  Documents with zero tokens emit no
    row (mirrors the SQL inner join on the exploded token CTE).

    Shape (the tfidf_topk layout): doc-local (doc, word, tf) rows ->
    ONE coarse word-hash shuffle (~num_groups vectorized groups, never
    per-word groups) where each word run attaches its df and flags
    rarity -> ONE coarse doc-hash shuffle where each group sums its doc
    runs with np.add.reduceat (measured ~3x faster than a per-doc-key
    Ray Sum aggregate at sf0.1: millions of keys vs ~num_groups groups).
    """
    def flag_rare(t: pa.Table) -> pa.Table:
        # pyarrow-format map_groups: empty partitions of the sparse word-group
        # key space then emit ARROW blocks (see CLAUDE.md block-type rule).
        # Every (doc, word) row of a word lands in this group; df(word) is
        # its run length (word_freq rows are distinct per (doc, word))
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "tf": pa.array([], pa.int64()),
                    "rare_tf": pa.array([], pa.int64()),
                    "rare_type": pa.array([], pa.int64()),
                }
            )
        df = t.select(["word", "doc_id", "tf"]).to_pandas().sort_values(["word", "doc_id"])
        w = df["word"].to_numpy()
        is_start = np.concatenate(([True], w[1:] != w[:-1]))
        run_id = np.cumsum(is_start) - 1
        run_len = np.bincount(run_id)
        rare = (run_len[run_id] <= max_df)
        tf = df["tf"].to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"].to_numpy(), pa.int64()),
                "tf": pa.array(tf, pa.int64()),
                "rare_tf": pa.array(np.where(rare, tf, 0), pa.int64()),
                "rare_type": pa.array(rare.astype(np.int64), pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            pa.field("doc_id", pa.int64()),
            pa.field("n_tokens", pa.int64()),
            pa.field("n_rare_tokens", pa.int64()),
            pa.field("n_types", pa.int64()),
            pa.field("n_rare_types", pa.int64()),
        ]
    )

    def doc_sums(t: pa.Table) -> pa.Table:
        # every (doc, word) row of a doc lands in this group; sum the doc's
        # runs with reduceat (each type count is the run length)
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.select(["doc_id", "tf", "rare_tf", "rare_type"]).to_pandas()
        df = df.sort_values("doc_id")
        ids = df["doc_id"].to_numpy()
        n = len(ids)
        is_start = np.concatenate(([True], ids[1:] != ids[:-1]))
        starts = np.flatnonzero(is_start)
        counts = np.diff(np.append(starts, n))
        return pa.table(
            {
                "doc_id": pa.array(ids[starts], pa.int64()),
                "n_tokens": pa.array(
                    np.add.reduceat(df["tf"].to_numpy(), starts), pa.int64()
                ),
                "n_rare_tokens": pa.array(
                    np.add.reduceat(df["rare_tf"].to_numpy(), starts), pa.int64()
                ),
                "n_types": pa.array(counts.astype(np.int64), pa.int64()),
                "n_rare_types": pa.array(
                    np.add.reduceat(df["rare_type"].to_numpy(), starts), pa.int64()
                ),
            }
        )

    tf = docs_ds.map_batches(_word_tf_rows, batch_format="pyarrow")
    flagged = coarse_groupby(tf, "word", flag_rare, num_groups)
    return coarse_groupby(flagged, "doc_id", doc_sums, num_groups)


def pack_manifest(docs_ds, seq_len: int = 256, num_shards: int = 64):
    """Sequence-packing manifest for LLM training: concatenate each
    shard's documents (doc_id order) into fixed-``seq_len`` token
    sequences and emit one row per (doc, sequence) overlap —
    (shard, doc_id, seq_id, n_tok).  The manifest IS the packing layout:
    a writer materializes sequence k of a shard by concatenating its rows
    in doc_id order (docs split across a boundary continue in the next
    sequence — GPT-style packing, no padding between docs).

    Deterministic at ANY parallelism: the shard assignment is the Knuth
    multiplicative hash ``((doc_id * 2654435761) % 2^32) % num_shards``
    (sampling.py's SQL-mirrorable rule, NOT Ray block boundaries), and
    packing order within a shard is doc_id order.  Zero-token docs emit
    no row (mirrors the SQL inner token CTE).

    Shape: one stateless map (token counts), ONE shard groupby
    (num_shards vectorized groups); in-group work is a cumsum + np.repeat
    explode over per-doc sequence spans.  All-integer output — the DuckDB
    oracle (window cumsum + range() unnest) hash-compares exactly.
    """
    KNUTH = np.uint64(2654435761)

    def counts(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
        n = np.array(
            [len(_WORD_RE.findall((x or ""))) for x in t.column("text").to_pylist()],
            np.int64,
        )
        shard = ((ids.astype(np.uint64) * KNUTH) % np.uint64(1 << 32)) % np.uint64(
            num_shards
        )
        keep = n > 0
        return pa.table(
            {
                "shard": pa.array(shard[keep].astype(np.int64), pa.int64()),
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n": pa.array(n[keep], pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            pa.field("shard", pa.int64()),
            pa.field("doc_id", pa.int64()),
            pa.field("seq_id", pa.int64()),
            pa.field("n_tok", pa.int64()),
        ]
    )

    def pack(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.select(["shard", "doc_id", "n"]).to_pandas().sort_values("doc_id")
        shard = int(df["shard"].iloc[0])
        n = df["n"].to_numpy()
        end = np.cumsum(n)
        start = end - n
        first_seq = start // seq_len
        last_seq = (end - 1) // seq_len
        spans = (last_seq - first_seq + 1).astype(np.int64)
        doc_rep = np.repeat(df["doc_id"].to_numpy(), spans)
        # seq index within each doc's span: global position - span start
        pos = np.arange(spans.sum()) - np.repeat(
            np.cumsum(np.concatenate(([0], spans[:-1]))), spans
        )
        seq = np.repeat(first_seq, spans) + pos
        s_rep = np.repeat(start, spans)
        e_rep = np.repeat(end, spans)
        n_tok = np.minimum(e_rep, (seq + 1) * seq_len) - np.maximum(s_rep, seq * seq_len)
        return pa.table(
            {
                "shard": pa.array(np.full(len(seq), shard, np.int64), pa.int64()),
                "doc_id": pa.array(doc_rep, pa.int64()),
                "seq_id": pa.array(seq.astype(np.int64), pa.int64()),
                "n_tok": pa.array(n_tok.astype(np.int64), pa.int64()),
            }
        )

    return (
        docs_ds.map_batches(counts, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(pack, batch_format="pyarrow")
    )


def chunk_docs(
    docs_ds,
    size: int = 200,
    stride: int = 150,
    id_col: str = "doc_id",
    text_col: str = "text",
):
    """Context-window chunking (tokenizer prep: split long documents into
    training-context windows with overlap).  Each document emits windows
    of ``size`` CHARACTERS starting every ``stride`` characters — character
    (not byte) offsets so the DuckDB mirror is plain substr arithmetic;
    final windows may be shorter; empty docs emit nothing.

        chunks(L) = 1 + (max(L - size, 0) + stride - 1) // stride   (L > 0)

    Output (id, chunk_id, chunk_start, chunk_text).  Shape: a stateless
    flat map — no shuffle, no state; window counts/starts are numpy and
    the only per-output-row Python is the slice that BUILDS each chunk
    string (inherent, like shingling).  At 100 TB chunk output is ~L/stride
    x input size — cap block growth with a smaller batch_size upstream if
    texts are huge.
    """
    import pyarrow.compute as pc

    assert size > 0 and stride > 0

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t.column(text_col).to_pylist()
        ln = pc.fill_null(pc.utf8_length(t.column(text_col)), 0)
        L = ln.to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.where(L > 0, 1 + (np.maximum(L - size, 0) + stride - 1) // stride, 0)
        doc_idx = np.repeat(np.arange(len(ids)), k)
        chunk_id = np.arange(len(doc_idx)) - np.repeat(np.cumsum(k) - k, k)
        starts = chunk_id * stride
        chunks = [texts[d][s : s + size] for d, s in zip(doc_idx, starts)]
        return pa.table(
            {
                id_col: pa.array(ids[doc_idx], pa.int64()),
                "chunk_id": pa.array(chunk_id, pa.int64()),
                "chunk_start": pa.array(starts, pa.int64()),
                "chunk_text": pa.array(chunks, pa.string()),
            }
        )

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def vocab_coverage(docs_ds, vocab_size: int = 50):
    """Tokenizer-vocabulary coverage: build the global top-``vocab_size``
    word vocabulary (count desc, word asc — the top_words tie-break) and
    report per-document all-integer coverage counts
    (doc_id, n_tokens, in_vocab_tokens, n_types, in_vocab_types); the OOV
    rate is 1 - in_vocab_tokens/n_tokens (caller divides).  Zero-token
    documents emit no row (mirrors the SQL explode's inner GROUP BY).

    Shape: word totals are per-batch partials -> ONE word groupby (a row
    per distinct word) -> a vocab_size-row driver pull; the vocab ships
    ONCE via ray.put and the coverage pass is stateless — membership is
    tested only on each batch's DISTINCT lowered tokens (factorized), and
    per-doc sums are np.add.reduceat over the doc-sorted word_freq rows.
    """
    import ray
    from ray.data.aggregate import Sum

    top = (
        docs_ds.map_batches(
            lambda t: word_count_partial(t), batch_format="pyarrow"
        )
        .groupby("word")
        .aggregate(Sum("partial", alias_name="total"))
        .sort(["total", "word"], descending=[True, False])
        .limit(vocab_size)
        .take_all()  # vocab_size rows by construction
    )
    vocab_ref = ray.put(frozenset(r["word"] for r in top))

    def cover(t: pa.Table) -> pa.Table:
        import pandas as pd

        vocab = ray.get(vocab_ref)
        wf = word_freq_batch(t)  # (doc_id, word, frequency), doc-sorted
        if wf.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_tokens": pa.array([], pa.int64()),
                    "in_vocab_tokens": pa.array([], pa.int64()),
                    "n_types": pa.array([], pa.int64()),
                    "in_vocab_types": pa.array([], pa.int64()),
                }
            )
        codes, uniq = pd.factorize(np.asarray(wf.column("word").to_pylist(), object))
        known = np.fromiter((w in vocab for w in uniq), bool, len(uniq))[codes]
        ids = wf.column("doc_id").to_numpy()
        tf = wf.column("frequency").to_numpy().astype(np.int64)
        starts = np.flatnonzero(
            np.concatenate(([True], ids[1:] != ids[:-1]))
        )
        return pa.table(
            {
                "doc_id": pa.array(ids[starts], pa.int64()),
                "n_tokens": pa.array(np.add.reduceat(tf, starts), pa.int64()),
                "in_vocab_tokens": pa.array(
                    np.add.reduceat(np.where(known, tf, 0), starts), pa.int64()
                ),
                "n_types": pa.array(
                    np.add.reduceat(np.ones(len(tf), np.int64), starts), pa.int64()
                ),
                "in_vocab_types": pa.array(
                    np.add.reduceat(known.astype(np.int64), starts), pa.int64()
                ),
            }
        )

    return docs_ds.map_batches(cover, batch_format="pyarrow")


def winnow_fingerprints_batch(
    t: pa.Table, k: int = 5, window: int = 4, mod: int = (1 << 61) - 1, base: int = 257
) -> pa.Table:
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken 2003,
    "Winnowing: Local Algorithms for Document Fingerprinting" — the MOSS
    selection rule): hash every k-gram of the lowercased text with the
    polynomial rolling hash, slide a window of ``window`` consecutive
    hashes, and select each window's minimum (RIGHTMOST position on ties —
    the paper's rule); dedupe selected positions.  The selected set is a
    position-robust ~1/window sample of the k-gram hashes with the
    guarantee that any shared substring of length >= k + window - 1
    contributes at least one shared fingerprint.

    Vectorized per doc: one pass builds all rolling hashes (numpy object
    ops avoided via Python-int Horner on the byte array — k is small),
    window minima via a sliding-window argmin over a strided view.
    Rows-only check (rolling hashes aren't SQL-expressible); the oracle in
    tests/test_textstats_winnow.py is an independent brute-force loop.

    Output per doc: (doc_id, n_fingerprints:int64, min_fp:int64,
    fp_xor:int64) — the count, minimum and XOR-fold of the selected
    fingerprint set (set-order-independent digests, so the row is
    deterministic under any partitioning).  Stateless map — shuffle-free.
    """
    ids = t.column("doc_id").to_pylist()
    texts = t.column("text").to_pylist()
    n_out, mn_out, xor_out = [], [], []
    top = pow(base, k - 1, mod)
    for txt in texts:
        b = (txt or "").lower().encode("utf-8")
        n = len(b)
        if n < k:
            n_out.append(0)
            mn_out.append(None)
            xor_out.append(0)
            continue
        # rolling k-gram hashes
        h = 0
        for c in b[:k]:
            h = (h * base + c) % mod
        hs = np.empty(n - k + 1, np.int64)
        hs[0] = h
        for i in range(1, n - k + 1):
            h = ((h - b[i - 1] * top) * base + b[i + k - 1]) % mod
            hs[i] = h
        m = len(hs)
        if m <= window:
            sel = np.array([int(np.flatnonzero(hs == hs.min())[-1])])
        else:
            from numpy.lib.stride_tricks import sliding_window_view

            win = sliding_window_view(hs, window)
            # rightmost min per window: argmin on the reversed view
            rev_arg = np.argmin(win[:, ::-1], axis=1)
            sel = np.unique(np.arange(m - window + 1) + (window - 1 - rev_arg))
        fps = np.unique(hs[sel])
        n_out.append(int(len(fps)))
        mn_out.append(int(fps.min()))
        x = 0
        for v in fps.tolist():
            x ^= v
        xor_out.append(x)
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "n_fingerprints": pa.array(n_out, pa.int64()),
            "min_fp": pa.array(mn_out, pa.int64()),
            "fp_xor": pa.array(xor_out, pa.int64()),
        }
    )


def source_kl(
    docs_ds,
    group_col: str = "source",
    out_scale: int = 1_000_000,
    num_groups: int = 256,
):
    """Per-source unigram-distribution drift: KL(p_source ‖ p_corpus) =
    Σ_w p_s(w)·ln(p_s(w)/p(w)) over the ``\\b\\w+\\b`` lowercased token
    distributions — the mixture-diagnostic statistic behind "which data
    source diverges most from the corpus" (the DoReMi / DSIR family's
    domain-drift view).  Output (group_col, n_tokens:int64,
    kl_micro:int64 = floor(KL·out_scale + 0.5)); sources whose docs have
    zero tokens emit no row (mirroring the SQL tokenize CTE).

    Scale shape: per-batch factorized (source, word) partials → ONE
    arrow two-key aggregate (rows ∝ vocab × sources, pre-aggregated per
    batch); per-source totals are a sources-sized driver pull broadcast
    once; the KL terms run inside a coarse WORD-hash groupby (a word's
    rows co-locate, so the global word count is an in-group bincount)
    with per-source partial sums, finished by a tiny source aggregate.
    Float caveat (documented, same class as doc_entropy): partial-sum
    order differs from the SQL engine's, so agreement is ~1e-12 relative
    — invisible at micro-nat scaling except within ~1e-12 of a rounding
    boundary.
    """
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    counts = (
        docs_ds.select_columns(["text", group_col])
        .map_batches(
            lambda t: word_count_partial(t, group_col=group_col),
            batch_format="pyarrow",
        )
        .groupby([group_col, "word"])
        .aggregate(Sum("partial", alias_name="c"))
        .materialize()
    )
    totals = (
        counts.groupby(group_col)
        .aggregate(Sum("c", alias_name="ts"))
        .to_pandas()
    )
    ts_map = dict(zip(totals[group_col], totals["ts"].astype(int)))
    t_total = float(sum(ts_map.values()))
    ts_ref = ray.put(ts_map)

    empty_schema = pa.schema(
        [pa.field(group_col, pa.string()), pa.field("kl_part", pa.float64())]
    )

    def kl_parts(tt: pa.Table) -> pa.Table:
        if tt.num_rows == 0:
            return empty_schema.empty_table()
        tm = ray.get(ts_ref)
        c = tt.column("c").to_numpy(zero_copy_only=False).astype(np.float64)
        wcodes, _ = pd.factorize(
            np.asarray(tt.column("word").to_pylist(), dtype=object)
        )
        g = np.bincount(wcodes, weights=c)[wcodes]
        srcs = np.asarray(tt.column(group_col).to_pylist(), dtype=object)
        scodes, suniq = pd.factorize(srcs)
        ts = np.array([float(tm[s]) for s in suniq])[scodes]
        p = c / ts
        q = g / t_total
        term = p * np.log(p / q)
        parts = np.bincount(scodes, weights=term)
        return pa.table(
            {
                group_col: pa.array(list(suniq), pa.string()),
                "kl_part": pa.array(parts, pa.float64()),
            }
        )

    def finish(tt: pa.Table) -> pa.Table:
        tm = ray.get(ts_ref)
        srcs = tt.column(group_col).to_pylist()
        kl = tt.column("kl").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                group_col: pa.array(srcs, pa.string()),
                "n_tokens": pa.array(
                    [int(tm[s]) for s in srcs], pa.int64()
                ),
                "kl_micro": pa.array(
                    np.floor(kl * out_scale + 0.5).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    return (
        coarse_groupby(counts, "word", kl_parts, num_groups)
        .groupby(group_col)
        .aggregate(Sum("kl_part", alias_name="kl"))
        .map_batches(finish, batch_format="pyarrow")
    )


def source_vocab_jaccard(
    docs_ds,
    group_col: str = "source",
    num_groups: int = 256,
):
    """Pairwise source VOCABULARY overlap: for every source pair (a < b)
    that shares at least one distinct lowercased ``\\b\\w+\\b`` token,
    emit |V_a ∩ V_b| and |V_a ∪ V_b| as exact int64 (callers divide for
    Jaccard; emitting the quotient would re-open the float-rounding
    gate).  The corpus-mixture diagnostic next to [[source_kl]]: KL asks
    "how differently does a source use shared words", this asks "how
    much vocabulary do two sources even share" (mirror/aggregator
    detection at the source level).  Output (src_a, src_b, inter:int64,
    uni:int64).

    Scale shape: per-batch factorized (source, word) partials → ONE
    arrow two-key aggregate (rows ∝ vocab × sources); the pair
    intersections run inside a coarse WORD-hash groupby where each
    word's source set is local — the kernel builds a boolean
    words×sources matrix and takes ONE M.T@M matmul per group (never a
    per-word Python pair loop); per-group partial pair counts (≤
    sources² rows each) meet in a tiny second aggregate, and vocab
    sizes are a sources-sized driver pull broadcast once.
    """
    import pandas as pd
    import ray
    from ray.data.aggregate import Sum

    counts = (
        docs_ds.select_columns(["text", group_col])
        .map_batches(
            lambda t: word_count_partial(t, group_col=group_col),
            batch_format="pyarrow",
        )
        .groupby([group_col, "word"])
        .aggregate(Sum("partial", alias_name="c"))
        .materialize()
    )
    # vocab size per source = row count per source of the DISTINCT
    # (source, word) table — a sources-sized pull
    from ray.data.aggregate import Count

    vs = (
        counts.groupby(group_col)
        .aggregate(Count(alias_name="nv"))
        .to_pandas()
    )
    vs_ref = ray.put(dict(zip(vs[group_col], vs["nv"].astype(int))))

    empty = pa.schema(
        [
            pa.field("src_a", pa.string()),
            pa.field("src_b", pa.string()),
            pa.field("part", pa.int64()),
        ]
    )

    def pair_parts(tt: pa.Table) -> pa.Table:
        if tt.num_rows == 0:
            return empty.empty_table()
        wcodes, _ = pd.factorize(
            np.asarray(tt.column("word").to_pylist(), dtype=object)
        )
        scodes, suniq = pd.factorize(
            np.asarray(tt.column(group_col).to_pylist(), dtype=object)
        )
        ns = len(suniq)
        m = np.zeros((wcodes.max() + 1, ns), np.int64)
        m[wcodes, scodes] = 1
        inter = m.T @ m
        ia, ib = np.triu_indices(ns, k=1)
        vals = inter[ia, ib]
        keep = vals > 0
        ia, ib, vals = ia[keep], ib[keep], vals[keep]
        sa = np.asarray(list(suniq), dtype=object)[ia]
        sb = np.asarray(list(suniq), dtype=object)[ib]
        swap = sa > sb  # canonical src_a < src_b regardless of factorize order
        sa2 = np.where(swap, sb, sa)
        sb2 = np.where(swap, sa, sb)
        return pa.table(
            {
                "src_a": pa.array(list(sa2), pa.string()),
                "src_b": pa.array(list(sb2), pa.string()),
                "part": pa.array(vals, pa.int64()),
            }
        )

    def finish(tt: pa.Table) -> pa.Table:
        vm = ray.get(vs_ref)
        a = tt.column("src_a").to_pylist()
        b = tt.column("src_b").to_pylist()
        inter = tt.column("inter").to_numpy(zero_copy_only=False).astype(np.int64)
        uni = np.array(
            [vm[x] + vm[y] for x, y in zip(a, b)], np.int64
        ) - inter
        return pa.table(
            {
                "src_a": pa.array(a, pa.string()),
                "src_b": pa.array(b, pa.string()),
                "inter": pa.array(inter, pa.int64()),
                "uni": pa.array(uni, pa.int64()),
            }
        )

    return (
        coarse_groupby(counts, "word", pair_parts, num_groups)
        .map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["src_a", "src_b"])
        .aggregate(Sum("part", alias_name="inter"))
        .map_batches(finish, batch_format="pyarrow")
    )


_SENT_RE = re.compile(r"[.!?]+")
_VOWEL_RE = re.compile(r"[aeiouy]+")


def readability_counts(docs_ds):
    """Per-doc readability INGREDIENTS — exact integer counts of words
    (ASCII ``\\b\\w+\\b``), sentence terminators (``[.!?]+`` runs) and
    lowercased vowel-group runs (``[aeiouy]+``, the classic syllable
    proxy) — callers combine them into Flesch-style scores at whatever
    precision they want; emitting the float score would re-open the
    rounding gate.  Output (doc_id, n_words, n_sents, n_vowel_groups).

    Scale shape: stateless per-batch map, compiled module-level regexes,
    zero shuffles; the per-doc regex scan is the htmlparse-class
    per-document kernel the repo accepts on hot paths (batch-wrapped,
    no Python row loop outside the text kernel itself).
    """

    def fn(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        nw = np.empty(len(texts), np.int64)
        ns = np.empty(len(texts), np.int64)
        nv = np.empty(len(texts), np.int64)
        for i, txt in enumerate(texts):
            s = txt or ""
            nw[i] = len(_WORD_RE.findall(s))
            ns[i] = len(_SENT_RE.findall(s))
            nv[i] = len(_VOWEL_RE.findall(s.lower()))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_words": pa.array(nw, pa.int64()),
                "n_sents": pa.array(ns, pa.int64()),
                "n_vowel_groups": pa.array(nv, pa.int64()),
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def pmi_topk(
    docs_ds,
    k: int = 100,
    min_pair_count: int = 5,
    pmi_scale: int = 1_000_000,
    driver_max_words: int = 2_000_000,
    num_groups: int = 64,
    combine_parts: int = 8,
):
    """Top-k adjacent-pair collocations by pointwise mutual information
    (Church & Hanks 1990) — the classic collocation-mining statistic over
    the bigram_counts tokenizer (``\\b\\w+\\b`` on lower(text)):

        pmi = ln(c_xy/P) - ln(c_x/T) - ln(c_y/T)
            = ln(c_xy) + 2·ln(T) - ln(P) - ln(c_x) - ln(c_y)

    emitted as ``pmi_micro = floor(pmi · pmi_scale + 0.5)`` with the term
    order mirrored LITERALLY by the SQL oracle (the source_kl precedent:
    both engines evaluate the identical left-to-right IEEE expression on
    the same exact integer counts).  Pairs below ``min_pair_count`` are
    dropped (PMI is noise-dominated at tiny counts).  Ranked
    (pmi_micro desc, pair asc); output (pair, c_xy, pmi_micro).

    Scale shape: ONE column-pruned text scan emits pair AND word
    partials from a single tokenize+factorize (a tagged union table,
    one row per distinct pair/word per batch), MATERIALIZED once
    (vocabulary-sized, never corpus-sized) and split by tag into the
    two hash aggregates — the text is read exactly once.  Each
    aggregate feeds both its total and the scoring pass (also
    materialized).  Word counts flow back
    size-adaptively (the bigram_lm_score pattern): below
    ``driver_max_words`` distinct words the count table broadcasts once
    via ``ray.put`` and scoring is one stateless map; above it the pair
    table splits into (x, y) key columns and takes two string-key
    ``repartition_join`` exchanges.  Both paths end in the lossless
    per-block top-k tree combine (cooccurrence_topk's tail).
    """
    import ray
    import pandas as pd
    from ray.data.aggregate import Sum

    txt = docs_ds.select_columns(["text"])

    def both_partials(t: pa.Table) -> pa.Table:
        """One tokenize+factorize pass emits BOTH distinct-pair and
        distinct-word counts, tagged 'p'/'w' — the text is read once."""
        toks: list = []
        for s in t.column("text").to_pylist():
            toks.extend(_WORD_RE.findall((s or "").lower()))
            toks.append(None)  # sentinel: no pair straddles documents
        codes, uniq = pd.factorize(np.asarray(toks, dtype=object))
        u = max(len(uniq), 1)
        keys: list = []
        kinds: list = []
        counts: list = []
        if len(uniq):
            wcnt = np.bincount(codes[codes >= 0], minlength=len(uniq))
            keys.extend(list(uniq))
            kinds.extend(["w"] * len(uniq))
            counts.extend(wcnt.astype(np.int64).tolist())
        if len(codes) > 1:
            a, b = codes[:-1], codes[1:]
            m = (a >= 0) & (b >= 0)
            if m.any():
                upc, cnt = np.unique(
                    a[m].astype(np.int64) * u + b[m], return_counts=True
                )
                keys.extend(
                    uniq[x] + " " + uniq[y] for x, y in zip(upc // u, upc % u)
                )
                kinds.extend(["p"] * len(upc))
                counts.extend(cnt.astype(np.int64).tolist())
        return pa.table(
            {
                "key": pa.array(keys, pa.string()),
                "kind": pa.array(kinds, pa.string()),
                "partial": pa.array(counts, pa.int64()),
            }
        )

    combined = txt.map_batches(both_partials, batch_format="pyarrow").materialize()

    pairs = (
        combined.filter(expr="kind == 'p'")
        .map_batches(
            lambda t: pa.table(
                {"pair": t.column("key"), "partial": t.column("partial")}
            ),
            batch_format="pyarrow",
        )
        .groupby("pair")
        .aggregate(Sum("partial", alias_name="c_xy"))
        .map_batches(lambda t: t, batch_format="pyarrow")
        .materialize()
    )
    words = (
        combined.filter(expr="kind == 'w'")
        .map_batches(
            lambda t: pa.table(
                {"word": t.column("key"), "partial": t.column("partial")}
            ),
            batch_format="pyarrow",
        )
        .groupby("word")
        .aggregate(Sum("partial", alias_name="c_w"))
        .map_batches(lambda t: t, batch_format="pyarrow")
        .materialize()
    )

    total_tokens = int(words.sum("c_w"))
    total_pairs = int(pairs.sum("c_xy"))
    if total_pairs == 0:
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "pair": pa.array([], pa.string()),
                    "c_xy": pa.array([], pa.int64()),
                    "pmi_micro": pa.array([], pa.int64()),
                }
            )
        )

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.greater_equal(t.column("c_xy"), min_pair_count))

    pairs_f = pairs.map_batches(keep, batch_format="pyarrow")

    def score_arrays(pair_list, c_xy, c_x, c_y) -> pa.Table:
        # term order mirrored literally by the oracle (left-to-right IEEE)
        pmi = (
            np.log(c_xy.astype(np.float64))
            + 2.0 * np.log(float(total_tokens))
            - np.log(float(total_pairs))
            - np.log(c_x.astype(np.float64))
            - np.log(c_y.astype(np.float64))
        )
        return pa.table(
            {
                "pair": pa.array(pair_list, pa.string()),
                "c_xy": pa.array(c_xy, pa.int64()),
                "pmi_micro": pa.array(
                    np.floor(pmi * float(pmi_scale) + 0.5).astype(np.int64),
                    pa.int64(),
                ),
            }
        )

    n_words = words.count()
    if n_words <= driver_max_words:
        wdf = words.to_pandas()
        w_ref = ray.put(dict(zip(wdf["word"], wdf["c_w"].astype(np.int64))))

        def score(t: pa.Table) -> pa.Table:
            wmap = ray.get(w_ref)
            pair_list = t.column("pair").to_pylist()
            c_xy = t.column("c_xy").to_numpy(zero_copy_only=False)
            # tokens are \w+ so the single space splits exactly once
            xy = [p.split(" ") for p in pair_list]
            c_x = np.array([wmap[a] for a, _ in xy], np.int64)
            c_y = np.array([wmap[b] for _, b in xy], np.int64)
            return score_arrays(pair_list, c_xy, c_x, c_y)

        scored = pairs_f.map_batches(score, batch_format="pyarrow")
    else:
        from grawler_ray.functions.joins import repartition_join

        def split(t: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            sp = pc.split_pattern(t.column("pair"), " ")
            return pa.table(
                {
                    "pair": t.column("pair"),
                    "c_xy": t.column("c_xy"),
                    "x": pc.list_element(sp, 0),
                    "y": pc.list_element(sp, 1),
                }
            )

        wx = words.map_batches(
            lambda t: t.rename_columns(["wx", "c_x"]), batch_format="pyarrow"
        )
        wy = words.map_batches(
            lambda t: t.rename_columns(["wy", "c_y"]), batch_format="pyarrow"
        )
        joined = repartition_join(
            repartition_join(
                pairs_f.map_batches(split, batch_format="pyarrow"),
                wx, "x", "wx", num_groups=num_groups,
            ),
            wy, "y", "wy", num_groups=num_groups,
        )

        def score_joined(t: pa.Table) -> pa.Table:
            return score_arrays(
                t.column("pair").to_pylist(),
                t.column("c_xy").to_numpy(zero_copy_only=False),
                t.column("c_x").to_numpy(zero_copy_only=False),
                t.column("c_y").to_numpy(zero_copy_only=False),
            )

        scored = joined.map_batches(score_joined, batch_format="pyarrow")

    def head_k(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["pmi_micro", "pair"], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (
        scored.map_batches(head_k, batch_format="pyarrow")
        .repartition(combine_parts)
        .map_batches(head_k, batch_size=None, batch_format="pyarrow")
        .repartition(1)
        .map_batches(head_k, batch_size=None, batch_format="pyarrow")
    )


def script_counts(docs_ds):
    """Per-doc Unicode SCRIPT composition — exact code-point counts of
    Latin letters, Cyrillic (U+0400-04FF), CJK unified ideographs
    (U+4E00-9FFF) and ASCII digits, plus the total code-point length:
    the multilingual corpus-composition signal (script mix flags
    mislabeled/mixed documents long before a language model would).
    All integers; callers derive ratios.

    Kernel: each doc is decoded ONCE to a uint32 code-point array
    (``encode('utf-32-le')`` + ``np.frombuffer``) and every script test
    is a vectorized range mask — no per-character Python, no regex.
    Output (doc_id, n_cp, n_latin, n_cyrillic, n_cjk, n_digit);
    stateless map, zero shuffles.
    """

    def fn(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        n = len(texts)
        tot = np.empty(n, np.int64)
        lat = np.empty(n, np.int64)
        cyr = np.empty(n, np.int64)
        cjk = np.empty(n, np.int64)
        dig = np.empty(n, np.int64)
        for i, s in enumerate(texts):
            cp = np.frombuffer((s or "").encode("utf-32-le"), dtype=np.uint32)
            tot[i] = len(cp)
            lat[i] = int((((cp >= 65) & (cp <= 90))
                          | ((cp >= 97) & (cp <= 122))).sum())
            cyr[i] = int(((cp >= 0x0400) & (cp <= 0x04FF)).sum())
            cjk[i] = int(((cp >= 0x4E00) & (cp <= 0x9FFF)).sum())
            dig[i] = int(((cp >= 48) & (cp <= 57)).sum())
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_cp": pa.array(tot, pa.int64()),
                "n_latin": pa.array(lat, pa.int64()),
                "n_cyrillic": pa.array(cyr, pa.int64()),
                "n_cjk": pa.array(cjk, pa.int64()),
                "n_digit": pa.array(dig, pa.int64()),
            }
        )

    return docs_ds.select_columns(["doc_id", "text"]).map_batches(
        fn, batch_format="pyarrow"
    )


def lr_text_classifier(
    ds,
    id_col: str = "doc_id",
    text_col: str = "text",
    label_col: str = "label",
    dim: int = 1024,
    iters: int = 50,
    lr: float = 10.0,
    seed: int = 0,
    max_partial_rows: int = 200_000,
    mode: str = "full",
    minibatch_frac: float = 0.25,
    tree_fanin: int = 64,
):
    """Hashed-bag-of-words logistic-regression document classifier —
    the GPT-3 quality-filter shape (Brown et al. 2020 §A: a linear
    classifier over hashed features scores every candidate doc): train
    on an in-corpus binary label, then score the whole corpus.  Returns
    a Dataset (id, label, pred, score_micro) with score_micro =
    floor(sigmoid(w·x+b) * 1e6 + 0.5).

    Distributed full-batch gradient descent: features are built ONCE
    (tokens → xxhash64 % dim, log1p counts, L2-normalized; sparse
    idx/val list columns) and materialized; each iteration is one
    map_batches pass emitting a single (dim+1)-vector gradient PARTIAL
    per block plus a block tag, and the driver folds the tiny partial
    table (rows = blocks, ~8 KB each) into the weight update — the
    model is broadcast, the corpus never moves.  Determinism: partials
    are summed in sorted block-tag order and the weights are rounded to
    a 1e-9 grid each step, so float results don't depend on block
    arrival order (and agree with the serial oracle in tests to <=1
    micro).  At 100 TB: iters × one streaming pass; the driver fold is
    rows ∝ blocks — above ``max_partial_rows`` the fold inserts a
    repartition tree level (blocks → ``tree_fanin`` partitions, each
    summed in sorted block-tag order) so the driver pull is bounded at
    ``tree_fanin`` rows regardless of cluster block count.

    ``mode="minibatch"``: each iteration samples a deterministic
    ``minibatch_frac`` of BLOCKS (hash of block tag x iteration — no
    wall-clock randomness) and folds only their gradients, normalized
    by the sampled row count — per-iteration cost drops from one full
    corpus pass to a ``minibatch_frac`` pass, so training cost stops
    scaling as iters x corpus-passes at 10^9 docs.  The full-batch
    path is byte-for-byte unchanged (the serial-oracle equality test
    pins it); minibatch convergence has its own test.
    """
    if mode not in ("full", "minibatch"):
        raise ValueError(f"lr_text_classifier: unknown mode {mode!r}")
    from ..urlops import xxhash64_batch

    def featurize(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        labels = t.column(label_col).to_numpy(zero_copy_only=False).astype(np.int64)
        texts = t.column(text_col).to_pylist()
        all_idx, all_val, offsets = [], [], [0]
        for txt in texts:
            toks = _WORD_RE.findall((txt or "").lower())
            if toks:
                h = (xxhash64_batch(toks) % np.uint64(dim)).astype(np.int64)
                uniq, cnt = np.unique(h, return_counts=True)
                v = np.log1p(cnt.astype(np.float64))
                nrm = float(np.sqrt((v * v).sum()))
                if nrm > 0:
                    v = v / nrm
            else:
                uniq = np.array([], np.int64)
                v = np.array([], np.float64)
            all_idx.append(uniq)
            all_val.append(v)
            offsets.append(offsets[-1] + len(uniq))
        flat_i = np.concatenate(all_idx) if all_idx else np.array([], np.int64)
        flat_v = np.concatenate(all_val) if all_val else np.array([], np.float64)
        off = pa.array(np.asarray(offsets, np.int32))
        return pa.table(
            {
                "id": pa.array(ids, pa.int64()),
                "y": pa.array(labels, pa.int64()),
                "fi": pa.ListArray.from_arrays(off, pa.array(flat_i, pa.int64())),
                "fv": pa.ListArray.from_arrays(off, pa.array(flat_v, pa.float64())),
            }
        )

    feats = (
        ds.select_columns([id_col, label_col, text_col])
        .map_batches(featurize, batch_format="pyarrow")
        .materialize()
    )
    n_total = feats.count()
    if n_total == 0:
        return feats

    def _flat(t: pa.Table):
        fi, fv = t.column("fi"), t.column("fv")
        if isinstance(fi, pa.ChunkedArray):
            fi, fv = fi.combine_chunks(), fv.combine_chunks()
        off = fi.offsets.to_numpy()
        # .values ignores slice offsets: window the flat buffers explicitly
        flat_i = fi.values.to_numpy(zero_copy_only=False).astype(np.int64)[
            off[0] : off[-1]
        ]
        flat_v = fv.values.to_numpy(zero_copy_only=False)[off[0] : off[-1]]
        lens = np.diff(off)
        rows = np.repeat(np.arange(t.num_rows), lens)
        return flat_i, flat_v, rows

    def _scores(t: pa.Table, w, b):
        flat_i, flat_v, rows = _flat(t)
        z = np.bincount(rows, weights=flat_v * w[flat_i], minlength=t.num_rows)
        z = z + b
        return 1.0 / (1.0 + np.exp(-z)), flat_i, flat_v, rows

    # deterministic block sampler for minibatch mode: Knuth-hash of
    # (block tag, iteration) against the sampling threshold — the same
    # blocks get picked on any rerun regardless of arrival order
    _mb_thresh = int(minibatch_frac * 997)

    def _block_sampled(tag: int, it: int) -> bool:
        return ((tag * 2654435761 + (it + seed) * 40503) % 997) < _mb_thresh

    w = np.zeros(dim, np.float64)
    b = 0.0
    for it in range(iters):
        wc, bc = w, b  # bind per-iteration (closure capture ships ~8 KB)

        def grad_partial(t: pa.Table, _w=wc, _b=bc, _it=it) -> pa.Table:
            empty = pa.table(
                {
                    "tag": pa.array([], pa.int64()),
                    "g": pa.array([], pa.list_(pa.float64())),
                    "gb": pa.array([], pa.float64()),
                    "n": pa.array([], pa.int64()),
                }
            )
            if t.num_rows == 0:
                return empty
            tag = int(t.column("id").to_numpy(zero_copy_only=False).min())
            if mode == "minibatch" and not _block_sampled(tag, _it):
                return empty
            p, flat_i, flat_v, rows = _scores(t, _w, _b)
            y = t.column("y").to_numpy(zero_copy_only=False).astype(np.float64)
            err = p - y
            g = np.bincount(flat_i, weights=err[rows] * flat_v, minlength=dim)
            return pa.table(
                {
                    "tag": pa.array([tag], pa.int64()),
                    "g": pa.array([g], pa.list_(pa.float64())),
                    "gb": pa.array([float(err.sum())], pa.float64()),
                    "n": pa.array([t.num_rows], pa.int64()),
                }
            )

        part = feats.map_batches(grad_partial, batch_format="pyarrow")
        if feats.num_blocks() > max_partial_rows:
            # tree level: fold block partials inside tree_fanin
            # partitions (each sums in sorted tag order — the same
            # determinism discipline as the driver fold)
            def fold_block(t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return pa.table(
                        {
                            "tag": pa.array([], pa.int64()),
                            "g": pa.array([], pa.list_(pa.float64())),
                            "gb": pa.array([], pa.float64()),
                            "n": pa.array([], pa.int64()),
                        }
                    )
                tags = t.column("tag").to_numpy(zero_copy_only=False)
                order = np.argsort(tags, kind="stable")
                gl = t.column("g").to_pylist()
                acc = np.zeros(dim, np.float64)
                for i in order:
                    acc += np.asarray(gl[i], np.float64)
                gbv = t.column("gb").to_numpy(zero_copy_only=False)[order]
                nv = t.column("n").to_numpy(zero_copy_only=False)[order]
                return pa.table(
                    {
                        "tag": pa.array([int(tags.min())], pa.int64()),
                        "g": pa.array([acc], pa.list_(pa.float64())),
                        "gb": pa.array([float(gbv.sum())], pa.float64()),
                        "n": pa.array([int(nv.sum())], pa.int64()),
                    }
                )

            part = part.repartition(tree_fanin).map_batches(
                fold_block, batch_format="pyarrow"
            )
        rows = part.take_all()
        if not rows:
            continue  # minibatch round sampled no blocks: skip the update
        rows.sort(key=lambda r: r["tag"])
        g = np.zeros(dim, np.float64)
        gb = 0.0
        n_used = 0
        for r in rows:
            g += np.asarray(r["g"], np.float64)
            gb += r["gb"]
            n_used += int(r["n"])
        denom = n_total if mode == "full" else n_used
        w = w - lr * (g / denom)
        b = b - lr * (gb / denom)
        # absorb block-order float noise so reruns at other block counts
        # produce bit-identical weights
        w = np.round(w * 1e9) / 1e9
        b = float(np.round(b * 1e9) / 1e9)

    def score(t: pa.Table, _w=w, _b=b) -> pa.Table:
        p, _, _, _ = _scores(t, _w, _b)
        return pa.table(
            {
                id_col: t.column("id"),
                label_col: t.column("y"),
                "pred": pa.array((p >= 0.5).astype(np.int64), pa.int64()),
                "score_micro": pa.array(
                    np.floor(p * 1e6 + 0.5).astype(np.int64), pa.int64()
                ),
            }
        )

    return feats.map_batches(score, batch_format="pyarrow")
