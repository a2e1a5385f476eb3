"""OLAP-shape report operators: ROLLUP aggregates and wide→long unpivot.

Not in the 931-LoC reference (it has no reporting surface); these are the
multi-granularity corpus-composition reports a pipeline operator reads
daily (docs per (source, lang) WITH subtotals per source and a grand
total — SQL's ``GROUP BY ROLLUP``), and the melt/unpivot reshape that
feeds per-metric tooling.

Scale shapes:
- ``rollup_sum``: each batch pre-aggregates ALL rollup levels locally
  (finest (k1,k2) plus (k1, ALL) plus (ALL, ALL) — at most 3× the finest
  in-batch key cardinality, which is already tiny after pre-aggregation),
  tags rolled-up columns with a sentinel so the exchange sees plain
  string keys, and ONE groupby finishes.  One exchange total, shuffle
  rows ∝ blocks × distinct keys, payload never moves, nothing on the
  driver.  Sentinels become Arrow nulls (never pandas ``<NA>``) on the
  way out — the CLAUDE.md null-representation rule.
- ``melt``: a stateless per-batch reshape (one ``pa.concat_tables`` of
  per-column slices); no shuffle at all, output rows = input × n_cols.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# \x00 prefix: cannot appear in real column values of any sane corpus;
# asserted absent anyway before use
_ALL = "\x00ALL\x00"


def rollup_sum(ds, k1: str, k2: str, value_col: str, count_name: str = "n_rows",
               sum_name: str = "sum_value", cube: bool = False):
    """``GROUP BY ROLLUP(k1, k2)`` with COUNT(*) and SUM(value_col):
    finest (k1, k2) rows, per-``k1`` subtotals (k2 NULL), and one grand
    total (both NULL) — exactly SQL's rollup row set.  ``cube=True``
    additionally emits the per-``k2`` subtotals (k1 NULL), completing
    ``GROUP BY CUBE(k1, k2)`` — same single exchange, one more
    pre-aggregated level per batch.

    Both keys must be strings; ``value_col`` must be integer (callers
    pre-scale money to cents — the module's exact-compare convention).
    Output: (k1, k2, count_name, sum_name), rolled-up keys as Arrow
    string nulls.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "a": t.column(k1).to_pylist(),
                "b": t.column(k2).to_pylist(),
                "v": t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64),
            }
        )
        assert not df["a"].str.startswith("\x00").any(), "sentinel collision"
        assert not df["b"].str.startswith("\x00").any(), "sentinel collision"
        levels = []
        g = df.groupby(["a", "b"], sort=False, dropna=False)
        fine = pd.DataFrame({"n": g.size(), "s": g["v"].sum()}).reset_index()
        levels.append(fine)
        sub = fine.groupby("a", sort=False, dropna=False)[["n", "s"]].sum().reset_index()
        sub["b"] = _ALL
        levels.append(sub)
        if cube:
            sub2 = (
                fine.groupby("b", sort=False, dropna=False)[["n", "s"]]
                .sum()
                .reset_index()
            )
            sub2["a"] = _ALL
            levels.append(sub2)
        levels.append(
            pd.DataFrame({"a": [_ALL], "b": [_ALL], "n": [fine["n"].sum()],
                          "s": [fine["s"].sum()]})
        )
        allp = pd.concat(levels, ignore_index=True)
        return pa.table(
            {
                k1: pa.array(allp["a"].tolist(), pa.string()),
                k2: pa.array(allp["b"].tolist(), pa.string()),
                "n_part": pa.array(allp["n"].to_numpy(np.int64), pa.int64()),
                "s_part": pa.array(allp["s"].to_numpy(np.int64), pa.int64()),
            }
        )

    agg = (
        ds.select_columns([k1, k2, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([k1, k2])
        .aggregate(Sum("n_part", alias_name=count_name),
                   Sum("s_part", alias_name=sum_name))
    )

    def unsentinel(t: pa.Table) -> pa.Table:
        out = {}
        for col in (k1, k2):
            arr = pc.cast(t.column(col), pa.string())
            out[col] = pc.if_else(pc.equal(arr, _ALL), pa.scalar(None, pa.string()), arr)
        out[count_name] = pc.cast(t.column(count_name), pa.int64())
        out[sum_name] = pc.cast(t.column(sum_name), pa.int64())
        return pa.table(out)

    return agg.map_batches(unsentinel, batch_format="pyarrow")


def melt(ds, id_cols: list[str], value_cols: list[str],
         metric_name: str = "metric", value_name: str = "value"):
    """Wide→long unpivot: one output row per (input row, value column),
    with the column name in ``metric_name`` and its float64 value in
    ``value_name`` — SQL's UNPIVOT / stacked UNION ALL.  Pure per-batch
    reshape: no shuffle, values pass through untouched (bit-exact vs the
    UNION ALL oracle)."""

    def reshape(t: pa.Table) -> pa.Table:
        parts = []
        for col in value_cols:
            cols = {c: t.column(c) for c in id_cols}
            cols[metric_name] = pa.array([col] * t.num_rows, pa.string())
            cols[value_name] = pc.cast(t.column(col), pa.float64())
            parts.append(pa.table(cols))
        if not parts:
            return pa.table({})
        return pa.concat_tables(parts)

    return ds.select_columns(list(id_cols) + list(value_cols)).map_batches(
        reshape, batch_format="pyarrow"
    )


def grouped_skyline(
    ds,
    group_col: str,
    min_col: str,
    max_col: str,
    min_scale: int = 100,
    min_name: str = "price_c",
    max_name: str = "qty",
    count_name: str = "n_items",
    merge_threshold: int = 20_000_000,
    num_range_buckets: int = 64,
    max_groups: int = 100_000,
):
    """Per-group 2-D skyline (Pareto frontier): the distinct
    (``min_col`` minimized, ``max_col`` maximized) points no other point
    in the same group dominates (<= on the minimized axis AND >= on the
    maximized axis, strict on at least one), with the number of input
    rows sitting exactly on each frontier point.  Borzsonyi et al.,
    ICDE 2001 — the "best trade-off" query (cheapest line items per
    quantity tier, fastest page per byte budget, ...).

    Scale shape (the classic distributed skyline): every batch reduces
    to its DISTINCT (group, min, max) points and runs a vectorized local
    skyline (sort by min asc / max desc, one running-max scan) — a point
    dominated anywhere is dominated globally, so local pruning is
    lossless, and a globally undominated point survives every local
    pass, so its per-batch counts reach the merge intact.  Candidates
    per batch are bounded by the batch's own frontier (tiny on real
    data); when the candidate total is at most ``merge_threshold`` ONE
    repartition(1) merge re-groups, re-sums counts and re-scans — no
    driver pull, output stays a Dataset.

    Above the threshold (anti-correlated axes degrade the frontier
    toward the distinct point count, so a single merge partition would
    hold output-sized data) the merge switches to the RANGE-PARTITIONED
    plan: per-group equal-width buckets over the minimized axis (bucket
    bounds from a tiny per-group min/max aggregate, rows = groups,
    guarded at ``max_groups``), one exchange on (group, bucket) —
    identical points co-locate, so counts sum exactly — a per-bucket
    dedup + skyline scan, then a cross-bucket filter against the
    broadcast prefix-max of lower buckets' q (a point in a lower bucket
    has STRICTLY smaller p by construction, so dominance from below is
    exactly q <= prefix_max).  No stage ever holds more than one
    bucket's frontier; the two plans are asserted equal in tests
    including a fully anti-correlated corpus.  Threshold sized to where
    the single partition actually hurts (~0.5 GB of candidate rows):
    measured at 5M input rows / 722k frontier the single merge still
    wins (3.6 s vs 5.0 s — the extra exchange isn't paid back until the
    merge partition stops fitting), so the range plan is the
    beyond-memory path, not a small-scale default.

    Both axes are integer-scaled (``floor(x * scale + 0.5)``) so the
    DuckDB oracle matches bit-exactly; the oracle expresses dominance as
    a window running-max over the same sort (strictly correct on
    distinct points only, hence the pre-dedup on both sides).
    """

    def _skyline_scan(g, p, q, n):
        """Vectorized per-group skyline over DISTINCT points: sort by
        (group, p asc, q desc); a point survives iff its q strictly
        exceeds the running max q of every earlier point in its group
        (earlier == p strictly smaller, or p equal with q larger — both
        dominate at >=/<= with one strict)."""
        order = np.lexsort((-q, p, g))
        g, p, q, n = g[order], p[order], q[order], n[order]
        if len(g) == 0:
            return g, p, q, n
        # per-group running max restarts at each boundary; max has no
        # subtract-the-carry trick, so scan per SEGMENT (segments =
        # groups, a handful) — O(n) total, loop count ∝ groups not rows
        gstart = np.concatenate(([True], g[1:] != g[:-1]))
        keep = np.zeros(len(q), bool)
        seg_starts = np.flatnonzero(gstart)
        seg_ends = np.append(seg_starts[1:], len(q))
        for s, e in zip(seg_starts, seg_ends):
            rm = np.maximum.accumulate(q[s:e])
            k = np.ones(e - s, bool)
            k[1:] = q[s + 1 : e] > rm[:-1]
            keep[s:e] = k
        return g[keep], p[keep], q[keep], n[keep]

    def _dedup_counts(g, p, q, n):
        """Collapse to distinct (g, p, q) with summed counts."""
        order = np.lexsort((q, p, g))
        g, p, q, n = g[order], p[order], q[order], n[order]
        if len(g) == 0:
            return g, p, q, n
        new = np.concatenate(
            ([True], (g[1:] != g[:-1]) | (p[1:] != p[:-1]) | (q[1:] != q[:-1]))
        )
        starts = np.flatnonzero(new)
        return g[new], p[new], q[new], np.add.reduceat(n, starts)

    # group values are strings (dictionary-encode to ints per batch for
    # the numpy kernels, decode on emit)
    def local(t: pa.Table) -> pa.Table:
        gv = t.column(group_col).to_pandas().to_numpy()
        p = np.floor(
            t.column(min_col).to_numpy(zero_copy_only=False) * min_scale + 0.5
        ).astype(np.int64)
        q = np.floor(
            t.column(max_col).to_numpy(zero_copy_only=False) + 0.5
        ).astype(np.int64)
        uniq, gcode = np.unique(gv, return_inverse=True)
        g2, p2, q2, n2 = _dedup_counts(
            gcode.astype(np.int64), p, q, np.ones(len(p), np.int64)
        )
        g3, p3, q3, n3 = _skyline_scan(g2, p2, q2, n2)
        return pa.table(
            {
                group_col: pa.array(uniq[g3], pa.string()),
                min_name: pa.array(p3, pa.int64()),
                max_name: pa.array(q3, pa.int64()),
                count_name: pa.array(n3, pa.int64()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        gv = t.column(group_col).to_pandas().to_numpy()
        p = t.column(min_name).to_numpy(zero_copy_only=False).astype(np.int64)
        q = t.column(max_name).to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column(count_name).to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, gcode = np.unique(gv, return_inverse=True)
        # same point may arrive from many batches: sum counts first.
        # MUST sort on the full (g, p, q) triple — a (g, p)-only sort can
        # interleave a different-q point between two copies of the same
        # point, the copies then fail to merge, and the skyline scan
        # drops the second copy's count (q == running max is dominated) —
        # the exact undercount the range-merge equality test caught (r5)
        gc, p, q, n = _dedup_counts(gcode.astype(np.int64), p, q, n)
        g3, p3, q3, n3 = _skyline_scan(gc, p, q, n)
        return pa.table(
            {
                group_col: pa.array(uniq[g3], pa.string()),
                min_name: pa.array(p3, pa.int64()),
                max_name: pa.array(q3, pa.int64()),
                count_name: pa.array(n3, pa.int64()),
            }
        )

    import ray
    import ray.data
    from ray.data.aggregate import Max, Min

    cand = (
        ds.select_columns([group_col, min_col, max_col])
        .map_batches(local, batch_format="pyarrow")
        .materialize()
    )
    if cand.count() <= merge_threshold:
        return cand.repartition(1).map_batches(merge, batch_format="pyarrow")

    # ---- range-partitioned merge (the adversarial-axes scale path) ----
    span = (
        cand.groupby(group_col)
        .aggregate(Min(min_name, alias_name="pmin"), Max(min_name, alias_name="pmax"))
        .to_pandas()
    )
    if len(span) > max_groups:
        raise ValueError(
            f"grouped_skyline: {len(span)} groups exceed max_groups="
            f"{max_groups}; shard the group space and union the results"
        )
    bounds = {
        str(g): (int(lo), int(hi))
        for g, lo, hi in zip(span[group_col], span["pmin"], span["pmax"])
    }
    bounds_ref = ray.put(bounds)
    K = num_range_buckets

    def tag_bucket(t: pa.Table) -> pa.Table:
        bmap = ray.get(bounds_ref)
        gv = t.column(group_col).to_pylist()
        p = t.column(min_name).to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.zeros(len(gv), np.int64)
        for i, g in enumerate(gv):
            lo, hi = bmap[str(g)]
            width = hi - lo + 1
            b[i] = (int(p[i]) - lo) * K // width  # same p -> same bucket
        return t.append_column("bucket", pa.array(b, pa.int64()))

    def bucket_skyline(t: pa.Table) -> pa.Table:
        # one (group, bucket): dedup-sum identical points, local scan
        p = t.column(min_name).to_numpy(zero_copy_only=False).astype(np.int64)
        q = t.column(max_name).to_numpy(zero_copy_only=False).astype(np.int64)
        n = t.column(count_name).to_numpy(zero_copy_only=False).astype(np.int64)
        z = np.zeros(len(p), np.int64)
        _, p2, q2, n2 = _dedup_counts(z, p, q, n)
        _, p3, q3, n3 = _skyline_scan(np.zeros(len(p2), np.int64), p2, q2, n2)
        return pa.table(
            {
                group_col: pa.array([t.column(group_col)[0].as_py()] * len(p3), pa.string()),
                "bucket": pa.array([t.column("bucket")[0].as_py()] * len(p3), pa.int64()),
                min_name: pa.array(p3, pa.int64()),
                max_name: pa.array(q3, pa.int64()),
                count_name: pa.array(n3, pa.int64()),
            }
        )

    per_bucket = (
        cand.map_batches(tag_bucket, batch_format="pyarrow")
        .groupby([group_col, "bucket"])
        .map_groups(bucket_skyline, batch_format="pyarrow")
        .materialize()
    )

    # cross-bucket dominance: per (group, bucket) max q -> prefix max of
    # STRICTLY lower buckets, broadcast (rows <= groups x K, tiny)
    summ = (
        per_bucket.groupby([group_col, "bucket"])
        .aggregate(Max(max_name, alias_name="qmax"))
        .to_pandas()
    )
    prefix: dict = {}
    for g, sub in summ.groupby(group_col, sort=False):
        sub = sub.sort_values("bucket")
        run = -(1 << 62)
        for b, qm in zip(sub["bucket"], sub["qmax"]):
            prefix[(str(g), int(b))] = run
            run = max(run, int(qm))
    prefix_ref = ray.put(prefix)

    def cross_filter(t: pa.Table) -> pa.Table:
        pm = ray.get(prefix_ref)
        gv = t.column(group_col).to_pylist()
        bv = t.column("bucket").to_numpy(zero_copy_only=False).astype(np.int64)
        q = t.column(max_name).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.array(
            [q[i] > pm[(str(gv[i]), int(bv[i]))] for i in range(len(gv))],
            bool,
        )
        return t.filter(pa.array(keep, pa.bool_())).drop_columns(["bucket"])

    return per_bucket.map_batches(cross_filter, batch_format="pyarrow")
