"""Mergeable-summary sketches: HyperLogLog distinct counting and
Misra-Gries heavy hitters.

These are the 100-TB paths for `unique()`-style and top-k questions: the
exact operators (`top_words`, `inverted_index`) ship the full vocabulary
through a groupby shuffle; a sketch ships a FIXED-size summary per block
(4 KiB HLL registers / <= ``capacity`` counter pairs), merges
associatively, and answers from a bounded reduce.  Standard public
constructions:
- HyperLogLog: Flajolet et al. 2007 (AOFA), with the linear-counting
  small-range correction from the paper.
- Misra-Gries: Misra & Gries 1982; mergeability per Agarwal et al.
  PODS'12 ("Mergeable Summaries").

Both are driven per-batch inside ``map_batches`` (no Python-row hot loop:
the HLL register update is a vectorized np.maximum.at over the batch's
hashes; MG is one Counter pass per batch, bounded by ``capacity``).

Reference parity note: the Grawler reference has no sketches — its word
counts are exact maps (src/utils/text.go TextWordsFreq); these extend the
engine for corpus-scale cardinality/top-k questions the reference cannot
answer without a full shuffle.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa

from ..textops import _WORD_RE
from ..urlops import xxhash64

# fixed odd multiplier decorrelates Python's str hash; we use xxhash64 so
# the sketch is stable across processes/runs (PYTHONHASHSEED-free)


def _hll_partial(values: list[str], p: int) -> np.ndarray:
    """One batch's HLL registers: m = 2^p uint8 registers, register j =
    max over hashes with index j of (leading-zero run of the remaining
    64-p bits) + 1."""
    m = 1 << p
    regs = np.zeros(m, dtype=np.uint8)
    if not values:
        return regs
    h = np.array([xxhash64(v) for v in values], dtype=np.uint64)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | ((np.uint64(1) << np.uint64(p)) - np.uint64(1))
    # rho = position of the first 1 bit from the MSB of the remaining bits
    # (+1); the OR above guarantees a 1 within 64-p bits
    rho = np.zeros(len(h), dtype=np.uint8)
    cur = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = cur < (np.uint64(1) << np.uint64(64 - shift))
        rho[mask] += shift
        cur[mask] = cur[mask] << np.uint64(shift)
    rho = rho + 1
    np.maximum.at(regs, idx, rho)
    return regs


def _hll_estimate(regs: np.ndarray) -> float:
    m = len(regs)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    E = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if E <= 2.5 * m and zeros > 0:  # small-range linear counting
        E = m * np.log(m / zeros)
    return float(E)


def hll_distinct(ds, value_fn, p: int = 12):
    """Approximate distinct count of the values ``value_fn(batch) ->
    list[str]`` yields, via a 2^p-register HyperLogLog.

    Shape: one stateless map emits ONE fixed-size binary register row per
    block (4 KiB at p=12); the np.maximum merge happens on the driver over
    a row set bounded by the BLOCK COUNT, not the data (at 100 TB /
    128 MiB blocks that is ~800k rows x 4 KiB = 3 GB worst case; the
    documented fix at that scale is one groupby((block_hash % 256)) tree
    level first — this corpus never needs it).  Returns a 1-row pandas
    DataFrame (estimate, n_registers) — a bounded reduce, like the ANN
    top-k reduces.
    """
    def partial(t: pa.Table) -> pa.Table:
        regs = _hll_partial(value_fn(t), p)
        return pa.table({"regs": pa.array([regs.tobytes()], pa.binary())})

    import ray.data

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged = np.zeros(1 << p, dtype=np.uint8)
    for r in parts:
        merged = np.maximum(merged, np.frombuffer(r["regs"], dtype=np.uint8))
    return ray.data.from_pandas(
        pd.DataFrame(
            {"estimate": [int(round(_hll_estimate(merged)))], "n_registers": [1 << p]}
        )
    )


def _cms_partial(values: list[str], width: int, depth: int) -> np.ndarray:
    """One batch's CountMin table: depth x width int64 counters; row d uses
    the (seeded) xxhash64 of the value with salt d.  Vectorized per row:
    one np.add.at over the batch's hash column."""
    tab = np.zeros((depth, width), dtype=np.int64)
    if not values:
        return tab
    for d in range(depth):
        h = np.array([xxhash64(f"{d}\x1f{v}") for v in values], dtype=np.uint64)
        np.add.at(tab[d], (h % np.uint64(width)).astype(np.int64), 1)
    return tab


def countmin_words(docs_ds, query_words: tuple, width: int = 8192, depth: int = 4):
    """CountMin point-frequency estimates (Cormode & Muthukrishnan 2005)
    for ``query_words`` over the corpus token stream — the third mergeable
    sketch next to HLL (distinct) and Misra-Gries (top-k): answers "how
    often does word w occur" from a fixed depth x width counter table.
    Guarantee: est >= true always; est <= true + 2N/width with prob
    >= 1 - 2^-depth (N = total tokens).

    Shape: one fixed-size (depth*width*8 B) partial table per block, summed
    coordinate-wise on the driver over a block-count-bounded row set (the
    HLL reduce shape; same documented tree-level fix at extreme block
    counts).  Output (word, est_count) for the queried words."""
    import ray.data

    def partial(t: pa.Table) -> pa.Table:
        toks: list[str] = []
        for s in t.column("text").to_pylist():
            toks.extend(_WORD_RE.findall((s or "").lower()))
        tab = _cms_partial(toks, width, depth)
        return pa.table({"tab": pa.array([tab.tobytes()], pa.binary())})

    parts = docs_ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged = np.zeros((depth, width), dtype=np.int64)
    for r in parts:
        merged += np.frombuffer(r["tab"], dtype=np.int64).reshape(depth, width)
    ests = []
    for w in query_words:
        idx = [int(xxhash64(f"{d}\x1f{w}") % width) for d in range(depth)]
        ests.append(int(min(merged[d, i] for d, i in zip(range(depth), idx))))
    return ray.data.from_pandas(
        pd.DataFrame({"word": list(query_words), "est_count": np.array(ests, np.int64)})
    )


def _mg_update(c: Counter, items, capacity: int) -> None:
    """Misra-Gries: admit freely below capacity; above it, decrement all
    (implemented as the standard batched variant: subtract the minimum
    surviving count when the table overflows)."""
    c.update(items)
    if len(c) > capacity:
        # remove the smallest counts until <= capacity, subtracting the
        # threshold from survivors (the classic decrement-all step, done
        # in one pass over the bounded table)
        counts = np.array(sorted(c.values()))
        thresh = int(counts[len(c) - capacity - 1])
        for k in [k for k, v in c.items() if v <= thresh]:
            del c[k]
        for k in c:
            c[k] -= thresh


def topk_words_sketch(docs_ds, k: int = 100, capacity: int = 4096):
    """Top-k words by Misra-Gries summaries: each batch builds a
    <= ``capacity``-entry MG table (error <= n_batch/capacity per batch,
    additive across the merge per Agarwal et al.); the merge is ONE
    groupby-sum over <= capacity keys per block — shuffle volume is
    bounded by blocks x capacity regardless of vocabulary size.  Output
    (word, est_count, rank), rank by (est_count desc, word).

    When ``capacity`` >= the true vocabulary the MG tables never
    decrement and est_count is EXACT — which is how the sf-corpus driver
    gate SQL-checks this operator against the same SQL as `top_words`
    (tests/test_sketch.py proves the approximation guarantee in the
    capacity < vocabulary regime instead).
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s in t.column("text").to_pylist():
            _mg_update(c, _WORD_RE.findall((s or "").lower()), capacity)
        return pa.table(
            {
                "word": pa.array(list(c.keys()), pa.string()),
                "n_part": pa.array(list(c.values()), pa.int64()),
            }
        )

    merged = (
        docs_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("n_part", alias_name="est_count"))
    )

    def local_topk(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            ["est_count", "word"], ascending=[False, True]
        ).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    # per-block partial top-k, then one bounded driver sort (<= blocks x k)
    parts = merged.map_batches(
        local_topk, batch_size=None, batch_format="pyarrow"
    ).to_pandas()
    import ray.data

    out = parts.sort_values(
        ["est_count", "word"], ascending=[False, True]
    ).head(k).reset_index(drop=True)
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    return ray.data.from_pandas(out)


# ---------------------------------------------------------------------------
# q-digest: mergeable quantiles (Shrivastava et al., SenSys'04)
# ---------------------------------------------------------------------------

def _qdigest_compress(nodes: dict[int, int], n: int, k: int, log_u: int) -> dict[int, int]:
    """Bottom-up q-digest compression: merge (v, sibling) into the parent
    while count(v)+count(sibling)+count(parent) <= floor(n/k).  Nodes are
    heap-indexed over the complete binary tree of the [0, 2^log_u) value
    universe (root=1, leaf for value x = 2^log_u + x).  Deterministic —
    no randomness, so runs and merges are exactly reproducible."""
    cap = n // k
    if cap <= 0:
        return dict(nodes)
    out = dict(nodes)
    for level in range(log_u, 0, -1):
        lo, hi = 1 << level, 1 << (level + 1)
        # candidate left-children: derived from EVERY present node at this
        # level (an odd-only node still merges via its absent even sibling)
        for v in sorted({x & ~1 for x in out if lo <= x < hi}):
            cv = out.get(v, 0)
            cs = out.get(v + 1, 0)
            p = v >> 1
            cp = out.get(p, 0)
            if cv + cs + cp <= cap:
                if cv + cs:
                    out[p] = cp + cv + cs
                out.pop(v, None)
                out.pop(v + 1, None)
    return out


def _qdigest_partial(values: np.ndarray, k: int, log_u: int) -> dict[int, int]:
    """One batch's q-digest: exact leaf histogram (np.unique — vectorized),
    then one compression pass.  Values are clipped into [0, 2^log_u) — with
    a warning when that actually distorts anything, because the SQL oracle
    does NOT clip and the exact-regime guarantee would silently break."""
    u = 1 << log_u
    v64 = values.astype(np.int64)
    oob = int(((v64 < 0) | (v64 >= u)).sum())
    if oob:
        import warnings

        warnings.warn(
            f"q-digest: {oob} value(s) outside [0, 2^{log_u}) clipped — "
            "quantiles near the clipped tail are distorted and the SQL "
            "oracle will diverge; raise log_u to cover the observed range",
            stacklevel=2,
        )
    vals = np.clip(v64, 0, u - 1)
    uniq, cnt = np.unique(vals, return_counts=True)
    nodes = {int(u + v): int(c) for v, c in zip(uniq, cnt)}
    return _qdigest_compress(nodes, int(len(vals)), k, log_u)


def _qdigest_serialize(nodes: dict[int, int]) -> bytes:
    ks = np.fromiter(nodes.keys(), np.int64, len(nodes))
    vs = np.fromiter(nodes.values(), np.int64, len(nodes))
    order = np.argsort(ks)
    return np.concatenate([ks[order], vs[order]]).tobytes()


def _qdigest_deserialize(buf: bytes) -> dict[int, int]:
    arr = np.frombuffer(buf, np.int64)
    h = len(arr) // 2
    return {int(a): int(b) for a, b in zip(arr[:h], arr[h:])}


def _qdigest_query(nodes: dict[int, int], n: int, log_u: int, q_pct: int) -> int:
    """Rank query: scan nodes in increasing order of (range max, range
    size) — the paper's postorder — accumulating counts until the target
    rank ceil(n * q / 100); report that node's range max.  Integer
    arithmetic throughout (SQL-mirrorable in the uncompressed regime)."""
    u = 1 << log_u

    def node_range(v: int) -> tuple[int, int]:
        depth = v.bit_length() - 1
        span = u >> depth
        lo = (v - (1 << depth)) * span
        return lo, lo + span - 1

    target = (n * q_pct + 99) // 100
    acc = 0
    ordered = sorted(nodes, key=lambda v: (node_range(v)[1], node_range(v)[1] - node_range(v)[0]))
    for v in ordered:
        acc += nodes[v]
        if acc >= target:
            return node_range(v)[1]
    return u - 1


def quantile_sketch(ds, value_col: str, q_pcts: tuple = (1, 25, 50, 75, 99),
                    k: int = 256, log_u: int = 20):
    """Mergeable approximate quantiles over an integer column via q-digest
    — the fourth mergeable sketch (HLL distinct / Misra-Gries top-k /
    CountMin point counts / q-digest quantiles).  Unlike the exact
    `length_quantiles` histogram (one shuffle keyed by the value domain),
    the sketch ships a FIXED <= 3k-node summary per block and answers from
    a bounded driver merge — the 100 TB path when the value universe is
    too large to histogram exactly.

    Guarantees (Shrivastava et al. '04): digest size <= 3k nodes; rank
    error of any quantile <= log2(U)/k * n per compression, additive over
    the merge tree (tests/test_sketch.py asserts the measured bound).
    With k >= n compression never fires, the digest IS the exact
    histogram, and answers equal the exact lower quantile
    ``min{x : rank(x) >= ceil(n*q/100)}`` — the regime the driver gate
    SQL-checks (same convention as length_quantiles).

    Output: one row per q in ``q_pcts`` — (q_pct, est_value, n).
    """
    import ray.data

    def partial(t: pa.Table) -> pa.Table:
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        nodes = _qdigest_partial(vals, k, log_u)
        return pa.table(
            {
                "digest": pa.array([_qdigest_serialize(nodes)], pa.binary()),
                "n_part": pa.array([len(vals)], pa.int64()),
            }
        )

    # one fixed-size digest per block; driver merge is block-count-bounded
    # (same reduce shape and same documented tree-level fix as hll_distinct)
    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    merged: dict[int, int] = {}
    n = 0
    for r in parts:
        for node, c in _qdigest_deserialize(r["digest"]).items():
            merged[node] = merged.get(node, 0) + c
        n += int(r["n_part"])
    merged = _qdigest_compress(merged, n, k, log_u)
    rows = {
        "q_pct": pa.array(list(q_pcts), pa.int64()),
        "est_value": pa.array(
            [_qdigest_query(merged, n, log_u, q) for q in q_pcts], pa.int64()
        ),
        "n": pa.array([n] * len(q_pcts), pa.int64()),
    }
    return ray.data.from_arrow(pa.table(rows))


def grouped_quantile_sketch(ds, group_col: str, value_col: str,
                            q_pcts: tuple = (25, 50, 75),
                            k: int = 256, log_u: int = 20):
    """Per-group mergeable quantiles: the q-digest as a distributed
    AGGREGATE rather than a driver reduce — each batch emits one
    <= 3k-node digest per group it contains, ONE groupby(group) shuffle
    moves digests (never raw values), and each group merges + answers
    locally.  Shuffle volume is groups x blocks x digest size, independent
    of row count — the per-group quantile path when groups hold too many
    rows to histogram (contrast `length_quantiles`, which ships one
    (group, value) histogram row per distinct value).

    Partitioning assumption (documented per the brief): group cardinality
    is moderate (<= ~10^5) — map_groups runs one Python merge per group;
    an extreme-cardinality variant would coarse-hash groups and run-scan
    (the `shuffle.coarse_groupby` pattern).

    Same exactness property as `quantile_sketch`: with k >= max group
    size the answers are the exact per-group lower quantiles, which is
    the regime the driver gate SQL-checks.  Output: one row per (group,
    q) — (group_col, q_pct, est_value, n).
    """
    def partial(t: pa.Table) -> pa.Table:
        groups = np.asarray(t.column(group_col).to_pylist(), dtype=object)
        vals = t.column(value_col).to_numpy(zero_copy_only=False)
        gs, digs, ns = [], [], []
        for g in np.unique(groups):
            gv = vals[groups == g]
            gs.append(g)
            digs.append(_qdigest_serialize(_qdigest_partial(gv, k, log_u)))
            ns.append(len(gv))
        return pa.table(
            {
                group_col: pa.array(gs, pa.string()),
                "digest": pa.array(digs, pa.binary()),
                "n_part": pa.array(ns, pa.int64()),
            }
        )

    out_schema = pa.schema(
        [
            pa.field(group_col, pa.string()),
            pa.field("q_pct", pa.int64()),
            pa.field("est_value", pa.int64()),
            pa.field("n", pa.int64()),
        ]
    )

    def merge_group(t: pa.Table) -> pa.Table:
        # pyarrow-format map_groups: empty partitions emit ARROW blocks
        if t.num_rows == 0:
            return out_schema.empty_table()
        g = t.column(group_col).to_pylist()[0]
        merged: dict[int, int] = {}
        n = 0
        for buf, np_ in zip(t.column("digest").to_pylist(), t.column("n_part").to_pylist()):
            for node, c in _qdigest_deserialize(buf).items():
                merged[node] = merged.get(node, 0) + c
            n += int(np_)
        merged = _qdigest_compress(merged, n, k, log_u)
        return pa.table(
            {
                group_col: pa.array([g] * len(q_pcts), pa.string()),
                "q_pct": pa.array(list(q_pcts), pa.int64()),
                "est_value": pa.array(
                    [_qdigest_query(merged, n, log_u, q) for q in q_pcts], pa.int64()
                ),
                "n": pa.array([n] * len(q_pcts), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(merge_group, batch_format="pyarrow")
    )
