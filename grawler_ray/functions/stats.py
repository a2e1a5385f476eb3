"""Exact grouped numeric statistics and a distributed BPE merge trainer.

Numeric aggregates here follow the repo's integer-exactness contract
(CLAUDE.md): values are scaled to integers at the edge
(``floor(v * scale + 0.5)``, mirrored verbatim in the DuckDB oracle), all
accumulation is integer partial sums ``(n, Σx, Σx², …)`` merged by one
small arrow groupby, and any float math happens exactly once per GROUP on
the finished integer sums — so Ray's partitioning/order can never move a
value-hash.  Where a float expression is unavoidable (corr, z-score) both
sides compute the SAME single IEEE expression from the SAME exact
integers (one int→double conversion, one sqrt, one divide, one floor),
which is deterministic; ``tests/test_stats.py`` and the sf0.01 gate pin
it.

Scale shapes (100 TB):
- moments/corr: per-batch factorize+bincount partials (one row per
  distinct group per batch) → one small groupby; nothing is O(rows)
  after the map.  Overflow bound: Σx² must fit int64, i.e.
  rows × max(x)² < 2^63 — with the default cent/basis-point scales that
  is ~10^11 rows for quantity-like columns; pick ``value_scale`` so the
  bound holds (documented per call site).
- zscore: the moments table is one row per group — pulled to the driver
  under ``max_groups`` (raises naming the repartition-join alternative
  above it) and broadcast once via ``ray.put``; the per-row pass is a
  stateless shuffle-free vectorized map.
- bpe_train: iterates over the WORD-FREQUENCY table (∝ vocabulary,
  sublinear in corpus), not the corpus — the classic distributed BPE
  formulation (Sennrich et al. 2016, "Neural Machine Translation of Rare
  Words with Subword Units", public paper).  Each merge round is one
  narrow pair-count exchange (one row per distinct in-block pair) plus a
  per-block argmax, so the driver sees ≤ one candidate row per block.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from ..shuffle import coarse_groupby

__all__ = [
    "grouped_moments",
    "grouped_corr",
    "grouped_histogram",
    "grouped_winsorize",
    "grouped_mad",
    "grouped_robust_outliers",
    "zscore_normalize",
    "bpe_train",
    "contingency_chi2",
    "ks_two_sample",
    "grouped_spearman",
    "rank_sum_auc",
    "grouped_mode",
    "ks_drift_matrix",
    "numeric_profile",
    "benford_digits",
]


def _scaled_int(col: pa.ChunkedArray, scale: int) -> np.ndarray:
    """floor(v * scale + 0.5) as int64 — the repo's edge-scaling idiom,
    mirrored by the oracle SQL."""
    v = col.to_numpy(zero_copy_only=False).astype(np.float64)
    return np.floor(v * scale + 0.5).astype(np.int64)


def _group_partials(
    t: pa.Table, group_col: str, arrays: dict[str, np.ndarray]
) -> pa.Table:
    """One batch's per-group integer sums of each array in ``arrays``
    plus an ``n`` count — one output row per distinct group per batch."""
    import pandas as pd

    gcodes, guniq = pd.factorize(
        np.asarray(t.column(group_col).to_pylist(), dtype=object)
    )
    k = len(guniq)
    cols: dict = {group_col: pa.array(list(guniq), pa.string())}
    cols["n"] = pa.array(np.bincount(gcodes, minlength=k).astype(np.int64))
    for name, arr in arrays.items():
        s = np.zeros(k, np.int64)
        np.add.at(s, gcodes, arr)
        cols[name] = pa.array(s, pa.int64())
    return pa.table(cols)


def _sum_partials(ds, group_col: str, part_cols: list[str]):
    """groupby(group).sum over arrow partial blocks (the pandas-block
    aggregate is the documented 20x slow path — force arrow first)."""
    from ray.data.aggregate import Sum

    return (
        ds.map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(*[Sum(c, alias_name=c) for c in ["n", *part_cols]])
    )


def grouped_moments(
    ds,
    group_col: str,
    value_col: str,
    value_scale: int = 100,
    mean_scale: int = 1_000_000,
):
    """Per-group count / scaled sum / floor-scaled mean / floor population
    variance, all exact integers:

        x           = floor(v * value_scale + 0.5)          (int64)
        mean_micro  = (Σx * mean_scale) // n
        varp_scaled2 = (n·Σx² − (Σx)²) // n²                 (in x-units²)

    The final divisions run in arbitrary-precision Python ints on the one
    tiny row per group, so Σx·mean_scale and (Σx)² can exceed int64
    safely.  Output: (group_col, n_rows, sum_scaled, mean_micro,
    varp_scaled2).
    """

    def partial(t: pa.Table) -> pa.Table:
        x = _scaled_int(t.column(value_col), value_scale)
        return _group_partials(t, group_col, {"s": x, "ss": x * x})

    agg = _sum_partials(
        ds.select_columns([group_col, value_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        group_col,
        ["s", "ss"],
    )

    def finish(t: pa.Table) -> pa.Table:
        g = t.column(group_col).to_pylist()
        n = t.column("n").to_pylist()
        s = t.column("s").to_pylist()
        ss = t.column("ss").to_pylist()
        return pa.table(
            {
                group_col: pa.array(g, pa.string()),
                "n_rows": pa.array(n, pa.int64()),
                "sum_scaled": pa.array(s, pa.int64()),
                "mean_micro": pa.array(
                    [(si * mean_scale) // ni for si, ni in zip(s, n)], pa.int64()
                ),
                "varp_scaled2": pa.array(
                    [
                        (ni * ssi - si * si) // (ni * ni)
                        for ni, si, ssi in zip(n, s, ss)
                    ],
                    pa.int64(),
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_corr(
    ds,
    group_col: str,
    x_col: str,
    y_col: str,
    x_scale: int = 100,
    y_scale: int = 10_000,
    out_scale: int = 1_000_000,
):
    """Per-group Pearson correlation as a floor-scaled integer:

        corr_micro = floor(out_scale · (n·Σxy − Σx·Σy)
                           / sqrt((n·Σxx − Σx²) · (n·Σyy − Σy²)))

    The six sums are exact int64 partials; the numerator/denominator
    products run in Python ints per group; the single float expression
    (int→double, sqrt, divide, floor) is computed identically by the
    DuckDB oracle (verified exact at sf0.01).  Zero-variance groups emit
    NULL (→ float64/NaN at to_pandas, the driver-hash convention).
    Output: (group_col, n_rows, corr_micro).
    """

    def partial(t: pa.Table) -> pa.Table:
        x = _scaled_int(t.column(x_col), x_scale)
        y = _scaled_int(t.column(y_col), y_scale)
        return _group_partials(
            t,
            group_col,
            {"sx": x, "sy": y, "sxx": x * x, "syy": y * y, "sxy": x * y},
        )

    agg = _sum_partials(
        ds.select_columns([group_col, x_col, y_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        group_col,
        ["sx", "sy", "sxx", "syy", "sxy"],
    )

    def finish(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        corr = []
        for r in rows:
            n = r["n"]
            num = n * r["sxy"] - r["sx"] * r["sy"]
            den2 = (n * r["sxx"] - r["sx"] ** 2) * (n * r["syy"] - r["sy"] ** 2)
            corr.append(
                None
                if den2 <= 0
                else math.floor(float(out_scale) * num / math.sqrt(den2))
            )
        return pa.table(
            {
                group_col: pa.array([r[group_col] for r in rows], pa.string()),
                "n_rows": pa.array([r["n"] for r in rows], pa.int64()),
                "corr_micro": pa.array(corr, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_regression(
    ds,
    group_col: str,
    x_col: str,
    y_col: str,
    x_scale: int = 100,
    y_scale: int = 100,
    out_scale: int = 1_000_000,
):
    """Per-group simple OLS y = a·x + b in the scaled-integer space, as
    TRUNCATION-scaled integers (all-integer arithmetic; no float in the
    result path, so the driver hash is exact):

        den = n·Σxx − Σx²
        num = n·Σxy − Σx·Σy
        slope_micro     = trunc(out_scale · num / den)
        intercept_micro = trunc(out_scale · (Σy·den − num·Σx) / (n·den))

    Truncating (toward-zero) division is pinned because DuckDB's ``//``
    truncates where Python's floors — the oracle computes the same
    HUGEINT expression.  The five sums are exact int64 partials combined
    map-side per block (shuffle volume = groups × blocks rows); the final
    per-group products run in Python ints (they exceed int64).
    Zero-variance groups emit NULL (→ float64/NaN at to_pandas, the
    driver-hash convention).  Output: (group_col, n_rows, slope_micro,
    intercept_micro).
    """

    def partial(t: pa.Table) -> pa.Table:
        x = _scaled_int(t.column(x_col), x_scale)
        y = _scaled_int(t.column(y_col), y_scale)
        return _group_partials(
            t,
            group_col,
            {"sx": x, "sy": y, "sxx": x * x, "sxy": x * y},
        )

    agg = _sum_partials(
        ds.select_columns([group_col, x_col, y_col]).map_batches(
            partial, batch_format="pyarrow"
        ),
        group_col,
        ["sx", "sy", "sxx", "sxy"],
    )

    def _trunc_div(a: int, b: int) -> int:
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q

    def finish(t: pa.Table) -> pa.Table:
        rows = t.to_pylist()
        slope, intercept = [], []
        for r in rows:
            n, sx, sy, sxx, sxy = r["n"], r["sx"], r["sy"], r["sxx"], r["sxy"]
            den = n * sxx - sx * sx
            if den <= 0:
                slope.append(None)
                intercept.append(None)
                continue
            num = n * sxy - sx * sy
            slope.append(_trunc_div(out_scale * num, den))
            intercept.append(_trunc_div(out_scale * (sy * den - num * sx), n * den))
        return pa.table(
            {
                group_col: pa.array([r[group_col] for r in rows], pa.string()),
                "n_rows": pa.array([r["n"] for r in rows], pa.int64()),
                "slope_micro": pa.array(slope, pa.int64()),
                "intercept_micro": pa.array(intercept, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


def grouped_histogram(
    ds,
    group_col: str,
    value_col: str,
    bin_width: int,
    value_scale: int = 100,
):
    """Per-group equal-width histogram over the scaled-integer value:

        x   = floor(v * value_scale + 0.5)   (int64, must be >= 0)
        bin = x // bin_width

    Values must be non-negative: DuckDB's ``//`` truncates toward zero
    on negatives while numpy floors, so rather than silently diverge
    from the oracle this raises (the _bucket1000 convention).

    Scale shape: per-batch vectorized (group, bin) partial counts — the
    bin range is re-based per batch so one ``np.bincount`` covers the
    composite key — then ONE small (group, bin)-key groupby; shuffle
    volume is one row per distinct (group, bin) per batch, never per
    input row.  Output: (group_col, bin:int64, cnt:int64).
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        x = _scaled_int(t.column(value_col), value_scale)
        if len(x) and int(x.min()) < 0:
            raise ValueError(
                "grouped_histogram: negative scaled values (numpy // floors, "
                "SQL // truncates — shift the column or use a non-negative "
                "value_scale transform)"
            )
        bins = x // np.int64(bin_width)
        gcodes, guniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        if len(x) == 0:
            return pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "bin": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        bmin = int(bins.min())
        width = int(bins.max()) - bmin + 1
        combo = gcodes.astype(np.int64) * width + (bins - bmin)
        counts = np.bincount(combo, minlength=len(guniq) * width)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                group_col: pa.array(
                    [guniq[i] for i in nz // width], pa.string()
                ),
                "bin": pa.array(nz % width + bmin, pa.int64()),
                "cnt": pa.array(counts[nz], pa.int64()),
            }
        )

    return (
        ds.select_columns([group_col, value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([group_col, "bin"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )


def _exact_group_hist(
    ds,
    group_col: str,
    value_col: str,
    value_scale: int,
    op_name: str,
    driver_max_bins: int,
):
    """Exact (group, scaled-value) histogram: ONE exchange whose volume
    is ∝ distinct (group, value) pairs — bounded by the value domain,
    never the corpus.  Returns a driver pandas frame sorted by
    (group, x); raises above ``driver_max_bins`` naming the sort-based
    alternative.  Shared by grouped_winsorize / grouped_quantile_cont.
    """
    import pandas as pd

    def hist_partial(t: pa.Table) -> pa.Table:
        x = _scaled_int(t.column(value_col), value_scale)
        gcodes, guniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        if len(x) == 0:
            return pa.table(
                {
                    group_col: pa.array([], pa.string()),
                    "x": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        # packed-key unique, not a bincount: value domains like cents
        # prices are ~10^7 wide, so a dense per-batch bincount would
        # allocate GBs; sort-based unique is ∝ batch rows instead
        if int(x.min()) < 0 or int(x.max()) >= (1 << 48):
            raise ValueError(f"{op_name} needs scaled values in [0, 2^48)")
        combo = (gcodes.astype(np.int64) << np.int64(48)) | x
        uk, counts = np.unique(combo, return_counts=True)
        g_idx = (uk >> np.int64(48)).astype(np.int64)
        return pa.table(
            {
                group_col: pa.array([guniq[i] for i in g_idx], pa.string()),
                "x": pa.array(uk & np.int64((1 << 48) - 1), pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    hist = (
        _sum_partials_nocount(
            ds.select_columns([group_col, value_col]).map_batches(
                hist_partial, batch_format="pyarrow"
            ),
            [group_col, "x"],
            "cnt",
        ).materialize()
    )
    n_bins = hist.count()
    if n_bins > driver_max_bins:
        raise ValueError(
            f"{op_name}: histogram has {n_bins} bins (> {driver_max_bins}); "
            f"{value_col} is not histogram-shaped — use a sort-based "
            "per-group quantile instead"
        )
    return hist.to_pandas().sort_values([group_col, "x"])


def grouped_quantile_cont(
    ds,
    group_col: str,
    value_col: str,
    value_scale: int = 100,
    qs: tuple = (25, 50, 75),
    driver_max_bins: int = 2_000_000,
):
    """Interpolated per-group quantiles — SQL PERCENTILE_CONT / DuckDB
    quantile_cont parity: over a group's n sorted scaled values, rank
    r = (n−1)·q/100, output value[⌊r⌋] + (value[⌈r⌉] − value[⌊r⌋])·frac.
    For q a multiple of 25, q/100 and frac are exact binary fractions
    and every product/sum stays below 2^53, so the result is
    BIT-IDENTICAL to the SQL oracle — no rounding-boundary risk; other
    q values carry the usual float caveat.

    Scale shape: the same single distinct-(group, value) histogram
    exchange as ``grouped_winsorize`` (volume ∝ value domain, never
    rows), then a driver quantile walk over ≤ driver_max_bins histogram
    rows.  Output: (group_col, q_pct:int64, value:float64), one row per
    group × q.
    """
    import ray.data

    hd = _exact_group_hist(
        ds, group_col, value_col, value_scale, "grouped_quantile_cont",
        driver_max_bins,
    )
    out_g: list = []
    out_q: list = []
    out_v: list = []
    for grp, sub in hd.groupby(group_col, sort=False):
        vals = sub["x"].to_numpy(np.int64)
        cum = sub["cnt"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
        for q in qs:
            r = (n - 1) * (q / 100.0)
            i0 = int(np.floor(r))
            frac = r - i0
            i1 = i0 if frac == 0.0 else min(i0 + 1, n - 1)
            lo = float(vals[np.searchsorted(cum, i0 + 1)])
            hi = float(vals[np.searchsorted(cum, i1 + 1)])
            out_g.append(grp)
            out_q.append(q)
            out_v.append(lo + (hi - lo) * frac)
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(out_g, pa.string()),
                "q_pct": pa.array(out_q, pa.int64()),
                "value": pa.array(out_v, pa.float64()),
            }
        )
    )


def grouped_winsorize(
    ds,
    group_col: str,
    id_col: str,
    value_col: str,
    value_scale: int = 100,
    lo_pct: int = 5,
    hi_pct: int = 95,
    driver_max_bins: int = 2_000_000,
):
    """Per-group winsorization (outlier clipping) at exact discrete
    quantiles: x = floor(v·scale+0.5) is clipped into [p_lo, p_hi] of its
    group, where p_q is the pinned integer quantile (smallest value whose
    cumulative count reaches ``(n·q+99)//100`` — the length_quantiles
    definition, mirrored verbatim by the oracle's windowed-cumsum SQL).

    Scale shape (the zscore_normalize two-phase pattern): phase 1 builds
    the exact (group, value) HISTOGRAM — shuffle volume ∝ distinct
    (group, value) pairs, bounded by the value domain, never the corpus —
    and walks per-group quantiles on the driver under ``driver_max_bins``
    (raises naming the sort-based alternative above it); the (lo, hi)
    bounds table (2 ints per group) broadcasts once via ``ray.put`` and
    phase 2 is a stateless shuffle-free vectorized clip.
    Output: (id_col, group_col, clipped:int64).
    """
    import ray
    import pandas as pd

    hd = _exact_group_hist(
        ds, group_col, value_col, value_scale, "grouped_winsorize",
        driver_max_bins,
    )
    bounds: dict = {}
    for grp, sub in hd.groupby(group_col, sort=False):
        vals = sub["x"].to_numpy(np.int64)
        cum = sub["cnt"].to_numpy(np.int64).cumsum()
        n = int(cum[-1])
        lo = int(vals[np.searchsorted(cum, (n * lo_pct + 99) // 100)])
        hi = int(vals[np.searchsorted(cum, (n * hi_pct + 99) // 100)])
        bounds[grp] = (lo, hi)
    b_ref = ray.put(bounds)

    def clip(t: pa.Table) -> pa.Table:
        bnd = ray.get(b_ref)
        x = _scaled_int(t.column(value_col), value_scale)
        gcodes, guniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        lo = np.array([bnd[g][0] for g in guniq], np.int64)[gcodes]
        hi = np.array([bnd[g][1] for g in guniq], np.int64)[gcodes]
        return pa.table(
            {
                id_col: t.column(id_col),
                group_col: t.column(group_col),
                "clipped": pa.array(np.clip(x, lo, hi), pa.int64()),
            }
        )

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        clip, batch_format="pyarrow"
    )


def _sum_partials_nocount(ds, key_cols: list[str], value_col: str):
    """groupby(keys).sum(value) over arrow partial blocks, renamed back to
    ``value_col`` (the arrow-block fast-path discipline of _sum_partials,
    without the implicit n column)."""
    from ray.data.aggregate import Sum

    return (
        ds.map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(key_cols)
        .aggregate(Sum(value_col, alias_name=value_col))
    )


def zscore_normalize(
    ds,
    group_col: str,
    id_col: str,
    value_col: str,
    value_scale: int = 1,
    z_scale: int = 1_000_000,
    max_groups: int = 100_000,
):
    """Per-row z-score within its group, as a floor-scaled integer, in the
    overflow-free integer formulation (no float mean/std accumulation):

        z_micro = floor(z_scale · (n·x − Σx) / sqrt(n·Σx² − (Σx)²))

    Two-phase: the (n, Σx, Σx²) moments table (one row per group) is
    pulled to the driver under ``max_groups`` and broadcast once via
    ``ray.put``; the second pass is a stateless vectorized map (no
    shuffle).  Above ``max_groups`` this raises — the alternative is
    attaching the moments with ``joins.repartition_join`` (one exchange),
    which high-cardinality callers should use directly.  n·x must fit
    int64: n × max(x) < 2^63.  Output: (id_col, group_col, z_micro);
    zero-variance groups emit NULL z.
    """
    import ray

    def partial(t: pa.Table) -> pa.Table:
        x = _scaled_int(t.column(value_col), value_scale)
        return _group_partials(t, group_col, {"s": x, "ss": x * x})

    rows = (
        _sum_partials(
            ds.select_columns([group_col, value_col]).map_batches(
                partial, batch_format="pyarrow"
            ),
            group_col,
            ["s", "ss"],
        ).take_all()  # one row per group by construction
    )
    if len(rows) > max_groups:
        raise ValueError(
            f"zscore_normalize saw {len(rows)} groups (> {max_groups}); "
            "attach the moments with joins.repartition_join instead of the "
            "driver broadcast"
        )
    moments = {
        r[group_col]: (
            int(r["n"]),
            int(r["s"]),
            math.sqrt(float(r["n"] * r["ss"] - r["s"] * r["s"])),
        )
        for r in rows
    }
    mom_ref = ray.put(moments)

    def score(t: pa.Table) -> pa.Table:
        import pandas as pd

        mom = ray.get(mom_ref)
        x = _scaled_int(t.column(value_col), value_scale)
        gcodes, guniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        n_arr = np.array([mom[g][0] for g in guniq], np.int64)
        s_arr = np.array([mom[g][1] for g in guniq], np.int64)
        den = np.array([mom[g][2] for g in guniq], np.float64)
        nx = n_arr[gcodes] * x - s_arr[gcodes]
        d = den[gcodes]
        ok = d > 0.0
        z = np.zeros(len(x), np.int64)
        z[ok] = np.floor(
            float(z_scale) * nx[ok].astype(np.float64) / d[ok]
        ).astype(np.int64)
        return pa.table(
            {
                id_col: t.column(id_col),
                group_col: t.column(group_col),
                "z_micro": pa.array(z, pa.int64(), mask=~ok),
            }
        )

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        score, batch_format="pyarrow"
    )


def _merge_pair(syms: list, left: str, right: str, merged: str) -> list:
    """Left-to-right non-overlapping merge (Sennrich BPE application)."""
    out = []
    i, n = 0, len(syms)
    while i < n:
        if i < n - 1 and syms[i] == left and syms[i + 1] == right:
            out.append(merged)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def _merges_table(merges: list[tuple]):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "rank": pa.array([m[0] for m in merges], pa.int64()),
                "left": pa.array([m[1] for m in merges], pa.string()),
                "right": pa.array([m[2] for m in merges], pa.string()),
                "merged": pa.array([m[3] for m in merges], pa.string()),
                "pair_count": pa.array([m[4] for m in merges], pa.int64()),
            }
        )
    )


def _bpe_driver(words_ds, num_merges: int, end_marker: str):
    """Serial merge loop over a driver-pulled (word, n) table — the exact
    same greedy/tie-break/application semantics as the distributed loop
    (tests assert path equality)."""
    rows = words_ds.take_all()
    counts = {r["word"]: int(r["n"]) for r in rows}
    state = {w: list(w) + [end_marker] for w in counts}
    merges: list[tuple] = []
    for rank in range(1, num_merges + 1):
        pairs: dict = {}
        for w, n in counts.items():
            s = state[w]
            for i in range(len(s) - 1):
                key = (s[i], s[i + 1])
                pairs[key] = pairs.get(key, 0) + n
        if not pairs:
            break
        (left, right), cnt = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        if cnt < 2:
            break
        merged = left + right
        merges.append((rank, left, right, merged, cnt))
        for w in counts:
            state[w] = _merge_pair(state[w], left, right, merged)
    return _merges_table(merges)


def bpe_train(
    docs_ds,
    num_merges: int = 20,
    end_marker: str = "</w>",
    num_groups: int = 64,
    text_col: str = "text",
    driver_max_vocab: int = 2_000_000,
):
    """Distributed BPE merge learning (Sennrich et al. 2016) over the
    corpus word-frequency table.

    Phase 1 builds (word, n) with the word_freq tokenizer (one coarse
    exchange, partial-counted per batch), symbolizes each word as
    chars + ``end_marker``, and MATERIALIZES that narrow state table.
    Each of the ``num_merges`` rounds then:
      1. counts adjacent symbol pairs weighted by word count, one partial
         row per distinct pair per block,
      2. reduces the partials with ONE pair-key groupby exchange, then
         takes each output block's best candidate (max count, then
         lexicographically smallest pair — the deterministic tie-break
         the serial oracle mirrors), so the driver pull is ≤ one row per
         block,
      3. broadcasts the winning pair and rewrites the symbols column
         (left-to-right non-overlapping application), re-materializing
         the state.

    Stops early when no pair occurs twice.  Returns a Dataset of
    (rank, left, right, merged, pair_count) — rank is 1-based merge
    order.  State is ∝ vocabulary, never corpus; per-round exchanges
    move (pair, count) rows only.

    Size-adaptive (the pagerank/dedup-components pattern): vocabularies
    at or below ``driver_max_vocab`` rows pull the (word, n) table once
    and run the merge loop serially on the driver — identical results
    (asserted by tests), none of the per-round exchange latency; web
    vocabularies at 100 TB exceed the guard and take the distributed
    loop.
    """
    from ray.data.aggregate import Sum

    from .textstats import word_count_partial

    words = (
        docs_ds.select_columns([text_col])
        .map_batches(
            lambda t: word_count_partial(t.rename_columns(["text"])),
            batch_format="pyarrow",
        )
        .groupby("word")
        .aggregate(Sum("partial", alias_name="n"))
    )

    def symbolize(t: pa.Table) -> pa.Table:
        syms = [list(w) + [end_marker] for w in t.column("word").to_pylist()]
        return pa.table(
            {
                "n": t.column("n").cast(pa.int64()),
                "syms": pa.array(syms, pa.list_(pa.string())),
            }
        )

    words = words.materialize()
    if words.count() <= driver_max_vocab:
        return _bpe_driver(words, num_merges, end_marker)

    state = (
        words.map_batches(symbolize, batch_format="pyarrow")
        .repartition(num_groups)
        .materialize()
    )

    _empty_pairs = pa.table(
        {
            "left": pa.array([], pa.string()),
            "right": pa.array([], pa.string()),
            "cnt": pa.array([], pa.int64()),
        }
    )

    def pair_partials(t: pa.Table) -> pa.Table:
        """One row per distinct adjacent pair in this block (count-weighted
        partial) — a pair's GLOBAL count is the sum across blocks, so the
        argmax can only run after the groupby reduce."""
        counts: dict = {}
        ns = t.column("n").to_pylist()
        for syms, n in zip(t.column("syms").to_pylist(), ns):
            for i in range(len(syms) - 1):
                key = (syms[i], syms[i + 1])
                counts[key] = counts.get(key, 0) + n
        if not counts:
            return _empty_pairs
        return pa.table(
            {
                "left": pa.array([k[0] for k in counts], pa.string()),
                "right": pa.array([k[1] for k in counts], pa.string()),
                "cnt": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def block_best(t: pa.Table) -> pa.Table:
        """Post-reduce block argmax (count desc, pair asc) — each pair now
        appears exactly once globally, so min-over-block-bests is exact."""
        if t.num_rows == 0:
            return _empty_pairs
        rows = t.to_pylist()
        b = min(rows, key=lambda r: (-r["cnt"], (r["left"], r["right"])))
        return pa.table(
            {
                "left": pa.array([b["left"]], pa.string()),
                "right": pa.array([b["right"]], pa.string()),
                "cnt": pa.array([b["cnt"]], pa.int64()),
            }
        )

    merges: list[tuple] = []
    for rank in range(1, num_merges + 1):
        cands = (
            state.map_batches(pair_partials, batch_format="pyarrow")
            .groupby(["left", "right"])
            .aggregate(Sum("cnt", alias_name="cnt"))
            .map_batches(block_best, batch_format="pyarrow")
            .take_all()
        )
        if not cands:
            break
        top = min(cands, key=lambda r: (-r["cnt"], (r["left"], r["right"])))
        if top["cnt"] < 2:
            break
        left, right = top["left"], top["right"]
        merged = left + right
        merges.append((rank, left, right, merged, int(top["cnt"])))

        def apply(t: pa.Table, _l=left, _r=right, _m=merged) -> pa.Table:
            syms = [
                _merge_pair(s, _l, _r, _m) for s in t.column("syms").to_pylist()
            ]
            return pa.table(
                {
                    "n": t.column("n"),
                    "syms": pa.array(syms, pa.list_(pa.string())),
                }
            )

        state = state.map_batches(apply, batch_format="pyarrow").materialize()

    return _merges_table(merges)


def grouped_gini(
    ds,
    group_col: str,
    value_col: str,
    value_scale: int = 100,
    num_groups: int = 64,
):
    """Per-group Gini concentration of an integer-scaled value — the
    inequality statistic data-mixture audits use ("is one nation/source
    dominated by a few heavy rows?").  With per-group values sorted
    ascending (1-based position i), Gini = (2·Σi·x_i − (n+1)·Σx)/(n·Σx);
    we emit the EXACT integer numerator and denominator instead of a
    rounded quotient, so the DuckDB mirror (row_number window + sums)
    hash-compares bit-exactly and callers divide at whatever precision
    they want.  Ties in x don't affect Σi·x (equal values commute), so
    no tie-break column is needed.  ``group_col`` must be integer-typed.
    Output (group_col, n_rows, gini_num:int64, gini_den:int64).

    Scale shape: ONE coarse group-hash exchange (~num_groups vectorized
    groups, never per-key tiny groups); inside a group, one lexsort +
    run-scan computes every key's Σx and position-weighted Σi·x with
    numpy.  int64 bound: Σi·x ≤ n²·max|x| per key — fine to ~10⁶ rows
    per key at cent scale; beyond that, shard keys first (documented).
    """

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "g": t.column(group_col).cast(pa.int64()),
                "x": pa.array(_scaled_int(t.column(value_col), value_scale), pa.int64()),
            }
        )

    empty = pa.schema(
        [
            pa.field("g", pa.int64()),
            pa.field("n_rows", pa.int64()),
            pa.field("gini_num", pa.int64()),
            pa.field("gini_den", pa.int64()),
        ]
    )

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty.empty_table()
        g = t.column("g").to_numpy(zero_copy_only=False)
        x = t.column("x").to_numpy(zero_copy_only=False)
        o = np.lexsort((x, g))
        g, x = g[o], x[o]
        starts = np.concatenate(([True], np.diff(g) != 0))
        start_idx = np.maximum.accumulate(
            np.where(starts, np.arange(len(g)), 0)
        )
        i = np.arange(len(g)) - start_idx + 1  # 1-based within-key pos
        keys = g[starts]
        codes = np.cumsum(starts) - 1
        k = len(keys)
        n = np.bincount(codes, minlength=k).astype(np.int64)
        s = np.zeros(k, np.int64)
        np.add.at(s, codes, x)
        s1 = np.zeros(k, np.int64)
        np.add.at(s1, codes, i * x)
        return pa.table(
            {
                "g": pa.array(keys, pa.int64()),
                "n_rows": pa.array(n, pa.int64()),
                "gini_num": pa.array(2 * s1 - (n + 1) * s, pa.int64()),
                "gini_den": pa.array(n * s, pa.int64()),
            }
        )

    out = coarse_groupby(
        ds.select_columns([group_col, value_col]).map_batches(prep, batch_format="pyarrow"),
        "g",
        kernel,
        num_groups,
    )
    return out.map_batches(
        lambda t: t.rename_columns(
            [group_col, "n_rows", "gini_num", "gini_den"]
        ),
        batch_format="pyarrow",
    )


def grouped_ntile(
    ds,
    group_col: str,
    value_col: str,
    tie_col: str,
    k: int,
    num_groups: int = 64,
):
    """``NTILE(k) OVER (PARTITION BY group ORDER BY value, tie)`` — the
    per-group equal-height bucket assignment (spend quartiles per
    nation).  Ordering uses the RAW value plus a unique tie column, so
    the SQL window's row order is reproduced exactly (no scaling: the
    value itself is never emitted).  ``group_col``/``tie_col`` must be
    integer-typed.  Output (group_col, tie_col, tile:int64).

    Scale shape: ONE coarse group-hash exchange; inside a group a single
    lexsort + run-scan assigns every key's tiles vectorized (per-key
    n/q/big broadcast through the run codes) — no per-key Python groups,
    no global sort (contrast ``events.global_ntile``, the unpartitioned
    variant that needs the range-partitioned row-offset machinery).
    """

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "g": t.column(group_col).cast(pa.int64()),
                "v": t.column(value_col).cast(pa.float64()),
                "tie": t.column(tie_col).cast(pa.int64()),
            }
        )

    empty = pa.schema(
        [
            pa.field("g", pa.int64()),
            pa.field("tie", pa.int64()),
            pa.field("tile", pa.int64()),
        ]
    )

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty.empty_table()
        g = t.column("g").to_numpy(zero_copy_only=False)
        v = t.column("v").to_numpy(zero_copy_only=False)
        tie = t.column("tie").to_numpy(zero_copy_only=False)
        o = np.lexsort((tie, v, g))
        g, tie = g[o], tie[o]
        starts = np.concatenate(([True], np.diff(g) != 0))
        start_idx = np.maximum.accumulate(
            np.where(starts, np.arange(len(g)), 0)
        )
        i = np.arange(len(g)) - start_idx  # 0-based within-key position
        codes = np.cumsum(starts) - 1
        n = np.bincount(codes).astype(np.int64)[codes]  # per-row key size
        q, big = n // k, n % k
        cut = (q + 1) * big  # rows below sit in the fat tiles
        fat = i < cut
        tile = np.where(fat, i // np.maximum(q + 1, 1), big + (i - cut) // np.maximum(q, 1)) + 1
        return pa.table(
            {
                "g": pa.array(g, pa.int64()),
                "tie": pa.array(tie, pa.int64()),
                "tile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    out = coarse_groupby(
        ds.select_columns([group_col, value_col, tie_col]).map_batches(
            prep, batch_format="pyarrow"
        ),
        "g",
        kernel,
        num_groups,
    )
    return out.map_batches(
        lambda t: t.rename_columns([group_col, tie_col, "tile"]),
        batch_format="pyarrow",
    )


def grouped_mad(
    ds,
    group_col: str,
    value_col: str,
    value_scale: int = 100,
    driver_max_bins: int = 2_000_000,
):
    """Per-group median absolute deviation — the robust dispersion
    statistic (median of |x − median(x)|, interpolated PERCENTILE_CONT
    medians on both levels, SQL ``quantile_cont`` parity).

    Exactness: x = floor(v·scale+0.5) is int64; an interpolated median of
    integers is k or k+0.5 (exact binary), |x − med| is therefore exact
    (m or m+0.5 < 2^53), and the second interpolated median adds one more
    exact halving — every float involved is exactly representable, so the
    double output is BIT-IDENTICAL to the oracle's nested quantile_cont
    (the grouped_quantile_cont q-multiple-of-25 argument, twice).

    Scale shape: the SAME single distinct-(group, value) histogram
    exchange as grouped_winsorize (volume ∝ value domain, never rows) —
    the deviation histogram is derived on the driver by re-sorting the
    value histogram around the median (counts are reused, no second
    exchange).  Output: (group_col, mad float64), one row per group.
    """
    import ray.data

    hd = _exact_group_hist(
        ds, group_col, value_col, value_scale, "grouped_mad", driver_max_bins
    )
    out_g: list = []
    out_m: list = []
    for grp, (_, mad) in _med_mad_by_group(hd, group_col).items():
        out_g.append(grp)
        out_m.append(mad)
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(out_g, pa.string()),
                "mad": pa.array(out_m, pa.float64()),
            }
        )
    )


def _interp_median(vals: np.ndarray, counts: np.ndarray) -> float:
    """Interpolated PERCENTILE_CONT(0.5) over a sorted value histogram —
    exact binary for integer (or int+0.5) values, bit-identical to
    DuckDB quantile_cont."""
    cum = counts.cumsum()
    n = int(cum[-1])
    r = (n - 1) * 0.5
    i0 = int(np.floor(r))
    frac = r - i0
    i1 = i0 if frac == 0.0 else min(i0 + 1, n - 1)
    lo = float(vals[np.searchsorted(cum, i0 + 1)])
    hi = float(vals[np.searchsorted(cum, i1 + 1)])
    return lo + (hi - lo) * frac


def _med_mad_by_group(hd, group_col: str) -> dict:
    """(median, MAD) per group from the exact (group, x, cnt) histogram
    frame — the deviation histogram is a driver re-sort of the value
    histogram, no second exchange."""
    out: dict = {}
    for grp, sub in hd.groupby(group_col, sort=False):
        vals = sub["x"].to_numpy(np.int64)
        counts = sub["cnt"].to_numpy(np.int64)
        med = _interp_median(vals.astype(np.float64), counts)
        dev = np.abs(vals.astype(np.float64) - med)
        order = np.argsort(dev, kind="stable")
        out[grp] = (med, _interp_median(dev[order], counts[order]))
    return out


def grouped_robust_outliers(
    ds,
    group_col: str,
    id_col: str,
    value_col: str,
    value_scale: int = 100,
    threshold_micro: int = 3_500_000,
    driver_max_bins: int = 2_000_000,
):
    """Robust per-group outlier flags via the MODIFIED Z-SCORE (Iglewicz &
    Hoaglin 1993): modz = 0.6745·(x − median) / MAD, flagged when
    |modz| > 3.5 — the outlier rule that survives the outliers it hunts
    (mean/stddev z-scores are masked by heavy tails).

    Emitted as ``modz_micro = floor((0.6745·(x − med)) / mad · 1e6 + 0.5)``
    with the expression mirrored LITERALLY by the SQL oracle: med and mad
    are exact binary floats (the grouped_mad argument), x − med is exact,
    and both engines run the identical IEEE multiply/divide/floor chain on
    identical inputs.  Zero-MAD groups emit NULL modz/flag (Arrow
    int64/bool-with-nulls, the driver repr rule).  The flag comparison is
    pure integer (micro-units vs threshold_micro).

    Scale shape: grouped_winsorize's two-phase pattern — ONE exact
    (group, value) histogram exchange + driver median/MAD walk, a
    2-float-per-group broadcast, then a stateless shuffle-free flag pass.
    Output: (id_col, group_col, modz_micro int64?, is_outlier bool?).
    """
    import ray
    import pandas as pd

    hd = _exact_group_hist(
        ds, group_col, value_col, value_scale, "grouped_robust_outliers",
        driver_max_bins,
    )
    mm_ref = ray.put(_med_mad_by_group(hd, group_col))

    def flag(t: pa.Table) -> pa.Table:
        mm = ray.get(mm_ref)
        x = _scaled_int(t.column(value_col), value_scale)
        gcodes, guniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        med = np.array([mm[g][0] for g in guniq], np.float64)[gcodes]
        mad = np.array([mm[g][1] for g in guniq], np.float64)[gcodes]
        ok = mad != 0.0
        safe_mad = np.where(ok, mad, 1.0)
        modz = np.floor(
            (0.6745 * (x - med)) / safe_mad * 1_000_000.0 + 0.5
        ).astype(np.int64)
        return pa.table(
            {
                id_col: t.column(id_col),
                group_col: t.column(group_col),
                "modz_micro": pa.array(modz, pa.int64(), mask=~ok),
                "is_outlier": pa.array(
                    np.abs(modz) > threshold_micro, pa.bool_(), mask=~ok
                ),
            }
        )

    return ds.select_columns([id_col, group_col, value_col]).map_batches(
        flag, batch_format="pyarrow"
    )


def contingency_chi2(
    ds,
    row_col: str,
    col_col: str,
    term_scale: int = 1_000_000,
):
    """Chi-square test of independence + Cramér's V over the
    (row, col) contingency table — the composition-drift statistic
    ("is language distribution independent of source?").

    Exactness discipline: each cell's term
    ``floor(((n-e)·(n-e))/e · term_scale + 0.5)`` is floored to an
    integer BEFORE summation (e = rn·cn/N as double, the literal SQL
    mirror), so the sum is order-independent — float summation order
    can never move the value-hash (unlike summing raw double terms).
    Zero cells of the full row×col grid are included (e > 0 whenever
    both margins are > 0); NULL keys are excluded on both sides by
    convention (factorize drops them — pass non-null keys, unlike SQL
    GROUP BY which would keep a NULL group).  Cramér's V and the
    p-value-free dof come from the integer chi2 by one mirrored float
    chain.

    Scale shape: per-batch (row, col) count partials -> ONE tiny
    composite-key exchange (cells ∝ |rows|×|cols|, e.g. sources×langs)
    -> all scalar math on the driver grid.  Output one row:
    (chi2_micro, cramers_v_micro, dof, n_obs).
    """
    import math

    import pandas as pd
    import ray.data
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        rows = np.asarray(t.column(row_col).to_pylist(), dtype=object)
        cols = np.asarray(t.column(col_col).to_pylist(), dtype=object)
        rc, runiq = pd.factorize(rows)
        cc, cuniq = pd.factorize(cols)
        k = len(cuniq)
        code = rc * max(k, 1) + cc
        uk, cnt = np.unique(code, return_counts=True)
        return pa.table(
            {
                row_col: pa.array([runiq[i] for i in uk // max(k, 1)], pa.string()),
                col_col: pa.array([cuniq[i] for i in uk % max(k, 1)], pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    cells = (
        ds.select_columns([row_col, col_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby([row_col, col_col])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    rn = cells.groupby(row_col)["n"].sum()
    cn = cells.groupby(col_col)["n"].sum()
    n_obs = int(cells["n"].sum())
    obs = {
        (r, c): int(v)
        for r, c, v in zip(cells[row_col], cells[col_col], cells["n"])
    }
    chi2_micro = 0
    for r, rv in rn.items():
        for c, cv in cn.items():
            e = float(int(rv) * int(cv)) / n_obs
            n = obs.get((r, c), 0)
            chi2_micro += math.floor(
                ((n - e) * (n - e)) / e * float(term_scale) + 0.5
            )
    dof = (len(rn) - 1) * (len(cn) - 1)
    k = min(len(rn) - 1, len(cn) - 1)
    v_micro = (
        math.floor(
            math.sqrt((chi2_micro / float(term_scale)) / float(n_obs * k))
            * float(term_scale)
            + 0.5
        )
        if k > 0 and n_obs > 0
        else None
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "chi2_micro": pa.array([chi2_micro], pa.int64()),
                "cramers_v_micro": pa.array([v_micro], pa.int64()),
                "dof": pa.array([dof], pa.int64()),
                "n_obs": pa.array([n_obs], pa.int64()),
            }
        )
    )


def ks_two_sample(
    ds,
    group_col: str,
    value_col: str,
    group_a: str,
    group_b: str,
    value_scale: int = 1,
    driver_max_bins: int = 2_000_000,
):
    """Exact two-sample Kolmogorov-Smirnov statistic between two groups'
    value distributions — the distribution-drift test (did source A's
    doc-length profile shift vs source B's?).

    Exactness: D = max |cdf_a - cdf_b| is kept RATIONAL until the last
    step — d_num = max |cum_a·n_b - cum_b·n_a| over the merged support
    (int64, automatically falling back to exact Python ints beyond the
    2^31-rows-per-group bound), d_den = n_a·n_b, and ``ks_micro =
    floor(d_num/d_den · 1e6 + 0.5)`` is one mirrored int→double divide;
    no float compare ever picks the max.

    Scale shape: the grouped_winsorize histogram exchange restricted to
    the two groups (volume ∝ distinct values, never rows) + a driver
    merge-walk.  Output one row: (d_num, d_den, ks_micro).
    """
    import math

    import ray.data

    _, ca, cb, na, nb = _two_group_hist(
        ds, group_col, value_col, group_a, group_b, value_scale,
        "ks_two_sample", driver_max_bins,
    )
    cum_a = ca.cumsum()
    cum_b = cb.cumsum()
    d_num = int(np.max(np.abs(cum_a * nb - cum_b * na)))
    d_den = na * nb
    ks_micro = math.floor(float(d_num) / d_den * 1_000_000.0 + 0.5)
    return ray.data.from_arrow(
        pa.table(
            {
                "d_num": pa.array([d_num], pa.int64()),
                "d_den": pa.array([d_den], pa.int64()),
                "ks_micro": pa.array([ks_micro], pa.int64()),
            }
        )
    )


def grouped_spearman(
    ds,
    group_col: str,
    x_col: str,
    y_col: str,
    x_scale: int = 100,
    y_scale: int = 100,
    out_scale: int = 1_000_000,
    num_groups: int = 64,
    max_group_rows: int = 1_200_000,
):
    """Per-group Spearman rank correlation — Pearson over AVERAGE ranks,
    kept exact by working in integer DOUBLE-RANKS: a tie run of length t
    starting at rank R has average rank R + (t-1)/2, i.e. double-rank
    dr = 2R + t - 1 (always an integer; SQL mirror:
    ``2*rank() OVER (...) + count(*) OVER (PARTITION BY g, v) - 1``).
    All six sums are exact int64 inside the kernel, promoted to Python
    ints for the n·Σ products, and the single float expression is
    grouped_corr's (one int→double, sqrt, divide, floor — mirrored by
    the HUGEINT oracle).  Ties in BOTH columns handled exactly.

    Scale shape: ONE coarse group-hash shuffle of (group, x, y) int64
    triples; ranks need each group whole.  Above ``max_group_rows``
    (the int64 Σdr² headroom: 4n³ < 2^63 ⇒ n ≲ 1.3e6) the kernel's six
    sums fall back AUTOMATICALLY to exact Python ints.  Output one row
    per group: (group_col, n_rows, spearman_micro int64-or-null).
    """
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                group_col: t.column(group_col),
                "x": pa.array(_scaled_int(t.column(x_col), x_scale), pa.int64()),
                "y": pa.array(_scaled_int(t.column(y_col), y_scale), pa.int64()),
            }
        )

    empty = pa.schema(
        [
            pa.field(group_col, pa.string()),
            pa.field("n_rows", pa.int64()),
            pa.field("spearman_micro", pa.int64()),
        ]
    )

    def kernel(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty.empty_table()
        gc, guniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        n = len(gc)
        idx = np.arange(n)

        def double_rank(v: np.ndarray) -> np.ndarray:
            order = np.lexsort((v, gc))
            gs, vs = gc[order], v[order]
            g_change = np.concatenate(([True], np.diff(gs) != 0))
            g_start = np.maximum.accumulate(np.where(g_change, idx, 0))
            tie_change = g_change | np.concatenate(([True], np.diff(vs) != 0))
            tie_start = np.maximum.accumulate(np.where(tie_change, idx, 0))
            starts = idx[tie_change]
            tlen = np.diff(np.append(starts, n))
            dr_sorted = (
                2 * (tie_start - g_start) + np.repeat(tlen, tlen) + 1
            ).astype(np.int64)
            out = np.empty(n, np.int64)
            out[order] = dr_sorted
            return out

        cnt = np.bincount(gc).astype(np.int64)
        drx = double_rank(x)
        dry = double_rank(y)
        if int(cnt.max()) > max_group_rows:
            # beyond the int64 4n^3 bound: exact Python-int sums (the
            # KS walk's automatic fallback pattern; slower, still one
            # pass per kernel)
            drx = drx.astype(object)
            dry = dry.astype(object)
        k = len(guniq)
        sum_dtype = object if drx.dtype == object else np.int64
        sums = {}
        for name, arr in (
            ("sx", drx), ("sy", dry),
            ("sxx", drx * drx), ("syy", dry * dry), ("sxy", drx * dry),
        ):
            s = np.zeros(k, sum_dtype)
            np.add.at(s, gc, arr)
            sums[name] = s
        out_corr = []
        for i in range(k):
            ni = int(cnt[i])
            sx, sy = int(sums["sx"][i]), int(sums["sy"][i])
            num = ni * int(sums["sxy"][i]) - sx * sy
            den2 = (ni * int(sums["sxx"][i]) - sx * sx) * (
                ni * int(sums["syy"][i]) - sy * sy
            )
            out_corr.append(
                None
                if den2 <= 0
                else math.floor(float(out_scale) * num / math.sqrt(den2))
            )
        return pa.table(
            {
                group_col: pa.array(list(guniq), pa.string()),
                "n_rows": pa.array(cnt, pa.int64()),
                "spearman_micro": pa.array(out_corr, pa.int64()),
            }
        )

    return coarse_groupby(
        ds.select_columns([group_col, x_col, y_col]).map_batches(prep, batch_format="pyarrow"),
        group_col,
        kernel,
        num_groups,
    )


_INT64_WALK_BOUND = 1 << 31  # cum*n cross products must fit int64


def _two_group_hist(ds, group_col, value_col, group_a, group_b,
                    value_scale, op_name, driver_max_bins):
    """Shared KS / rank-sum front half: filter to the two groups, one
    histogram exchange, merged-support count arrays.  Returns
    (support, ca, cb, na, nb)."""
    two = ds.filter(
        expr=f"{group_col} == '{group_a}' or {group_col} == '{group_b}'"
    )
    hd = _exact_group_hist(
        two, group_col, value_col, value_scale, op_name, driver_max_bins
    )
    ha = hd[hd[group_col] == group_a]
    hb = hd[hd[group_col] == group_b]
    na = int(ha["cnt"].sum())
    nb = int(hb["cnt"].sum())
    if na == 0 or nb == 0:
        raise ValueError(f"{op_name}: empty group ({group_a}: {na}, {group_b}: {nb})")
    support = np.union1d(ha["x"].to_numpy(np.int64), hb["x"].to_numpy(np.int64))
    ca = np.zeros(len(support), np.int64)
    cb = np.zeros(len(support), np.int64)
    ca[np.searchsorted(support, ha["x"].to_numpy(np.int64))] = ha["cnt"].to_numpy(np.int64)
    cb[np.searchsorted(support, hb["x"].to_numpy(np.int64))] = hb["cnt"].to_numpy(np.int64)
    if max(na, nb) >= _INT64_WALK_BOUND:
        # cum·n cross products would overflow int64 — fall back to the
        # arbitrary-precision Python-int walk (driver-side, exact; ~10x
        # slower per bin, irrelevant against the histogram exchange)
        ca = ca.astype(object)
        cb = cb.astype(object)
    return support, ca, cb, na, nb


def rank_sum_auc(
    ds,
    group_col: str,
    value_col: str,
    group_a: str,
    group_b: str,
    value_scale: int = 1,
    driver_max_bins: int = 2_000_000,
):
    """Mann-Whitney U / rank-sum statistic between two groups, reported
    as the tie-corrected AUC (P(a > b) + P(a = b)/2 — the probability a
    random A value exceeds a random B value): the effect-size companion
    to ``ks_two_sample``'s max-gap test.

    Exactness: the DOUBLED U is a pure integer over the merged value
    histogram — 2U = Σ_x ca(x)·(2·cumb_before(x) + cb(x)) (each A beats
    every strictly-smaller B, ties count half) — and
    ``auc_micro = floor(2U / (2·na·nb) · 1e6 + 0.5)`` is one mirrored
    int→double divide.  Beyond the int64 cum·n bound the walk
    falls back to Python ints automatically (exact, driver-side).

    Scale shape: the ks_two_sample histogram exchange (volume ∝ distinct
    values) + a driver walk.  Output one row: (u2, auc_micro).
    """
    import math

    import ray.data

    _, ca, cb, na, nb = _two_group_hist(
        ds, group_col, value_col, group_a, group_b, value_scale,
        "rank_sum_auc", driver_max_bins,
    )
    cumb = cb.cumsum()
    cumb_before = cumb - cb
    u2 = int(np.sum(ca * (2 * cumb_before + cb)))
    auc_micro = math.floor(
        float(u2) / (2 * na * nb) * 1_000_000.0 + 0.5
    )
    return ray.data.from_arrow(
        pa.table(
            {
                "u2": pa.array([u2], pa.int64()),
                "auc_micro": pa.array([auc_micro], pa.int64()),
            }
        )
    )


def grouped_mode(
    ds,
    group_col: str,
    value_col: str,
    value_scale: int = 1,
    driver_max_bins: int = 2_000_000,
):
    """Exact per-group MODE of the scaled value — most frequent value,
    ties broken to the SMALLEST value (fully specified, unlike SQL
    ``mode()``'s arbitrary tie pick; the oracle mirrors the rule with a
    (count desc, value asc) window).  All integers, no float anywhere.

    Scale shape: the shared exact-histogram exchange + a driver argmax
    walk.  Output: (group_col, mode_value, mode_count), one row/group.
    """
    import ray.data

    hd = _exact_group_hist(
        ds, group_col, value_col, value_scale, "grouped_mode", driver_max_bins
    )
    out_g: list = []
    out_v: list = []
    out_c: list = []
    for grp, sub in hd.groupby(group_col, sort=False):
        vals = sub["x"].to_numpy(np.int64)
        counts = sub["cnt"].to_numpy(np.int64)
        best = int(counts.max())
        out_g.append(grp)
        out_v.append(int(vals[counts == best].min()))
        out_c.append(best)
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(out_g, pa.string()),
                "mode_value": pa.array(out_v, pa.int64()),
                "mode_count": pa.array(out_c, pa.int64()),
            }
        )
    )


def ks_drift_matrix(
    ds,
    group_col: str,
    value_col: str,
    k: int = 10,
    value_scale: int = 1,
    driver_max_bins: int = 2_000_000,
):
    """Top-k most-drifted GROUP PAIRS by the exact two-sample KS
    statistic — the all-pairs generalization of ``ks_two_sample``.  The
    key scale property: ONE exact (group, value) histogram exchange is
    amortized across ALL |G|²/2 pairs; the pairwise merge-walks run on
    the driver over the histogram (∝ distinct values), never touching
    rows again.  Same rational d_num/d_den discipline and the same
    automatic Python-int fallback as ks_two_sample.  Ranked (ks_micro desc,
    source_a asc, source_b asc), ties at the k-boundary deterministic.
    Output: (group_col+'_a', group_col+'_b', d_num, d_den, ks_micro).
    """
    import math

    import ray.data

    hd = _exact_group_hist(
        ds, group_col, value_col, value_scale, "ks_drift_matrix",
        driver_max_bins,
    )
    groups = {}
    for grp, sub in hd.groupby(group_col, sort=True):
        xs = sub["x"].to_numpy(np.int64)
        cs = sub["cnt"].to_numpy(np.int64)
        n = int(cs.sum())
        groups[grp] = (xs, cs, n)
    # beyond the int64 cum·n bound, walk in Python ints (exact, slower)
    use_obj = any(n >= _INT64_WALK_BOUND for _, _, n in groups.values())
    dtype = object if use_obj else np.int64
    names = sorted(groups)
    rows = []
    for i, a in enumerate(names):
        xa, ca_c, na = groups[a]
        for b in names[i + 1:]:
            xb, cb_c, nb = groups[b]
            support = np.union1d(xa, xb)
            ca = np.zeros(len(support), dtype)
            cb = np.zeros(len(support), dtype)
            ca[np.searchsorted(support, xa)] = ca_c
            cb[np.searchsorted(support, xb)] = cb_c
            d_num = int(np.max(np.abs(ca.cumsum() * nb - cb.cumsum() * na)))
            d_den = na * nb
            rows.append(
                (a, b, d_num, d_den,
                 math.floor(float(d_num) / d_den * 1_000_000.0 + 0.5))
            )
    rows.sort(key=lambda r: (-r[4], r[0], r[1]))
    rows = rows[:k]
    return ray.data.from_arrow(
        pa.table(
            {
                f"{group_col}_a": pa.array([r[0] for r in rows], pa.string()),
                f"{group_col}_b": pa.array([r[1] for r in rows], pa.string()),
                "d_num": pa.array([r[2] for r in rows], pa.int64()),
                "d_den": pa.array([r[3] for r in rows], pa.int64()),
                "ks_micro": pa.array([r[4] for r in rows], pa.int64()),
            }
        )
    )


def numeric_profile(ds, columns: list[str]):
    """Single-pass data-quality profile of numeric columns: per column
    the row count, null count, and exact min/max (no arithmetic — the
    values pass through untouched, so float parity is trivial).  The
    ingestion sanity report run before any pipeline trusts a new drop.

    Scale shape: one row PER COLUMN PER BATCH of (n, n_nulls, min, max)
    partials -> one tiny column-name aggregate; n_distinct is
    deliberately absent (exact distinct is a per-column all-to-all —
    use the HLL sketch ops for that at scale).
    Output: (col_name, n_rows, n_nulls, min_val, max_val).
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    def partial(t: pa.Table) -> pa.Table:
        names: list = []
        ns: list = []
        nulls: list = []
        mins: list = []
        maxs: list = []
        for c in columns:
            col = t.column(c)
            names.append(c)
            ns.append(len(col))
            nulls.append(col.null_count)
            mn = pc.min(col).as_py()
            mx = pc.max(col).as_py()
            mins.append(None if mn is None else float(mn))
            maxs.append(None if mx is None else float(mx))
        return pa.table(
            {
                "col_name": pa.array(names, pa.string()),
                "n": pa.array(ns, pa.int64()),
                "nulls": pa.array(nulls, pa.int64()),
                "mn": pa.array(mins, pa.float64()),
                "mx": pa.array(maxs, pa.float64()),
            }
        )

    return (
        ds.select_columns(columns)
        .map_batches(partial, batch_format="pyarrow")
        .groupby("col_name")
        .aggregate(
            Sum("n", alias_name="n_rows"),
            Sum("nulls", alias_name="n_nulls"),
            Min("mn", alias_name="min_val"),
            Max("mx", alias_name="max_val"),
        )
    )


def benford_digits(
    ds,
    value_col: str,
    value_scale: int = 100,
    expected_scale: int = 1_000_000,
):
    """First-significant-digit distribution vs Benford's law — the
    classic bulk-numeric quality/fraud screen.  The digit is taken from
    the DECIMAL STRING of the scaled integer (leading digit of
    floor(v·scale+0.5); zero values are excluded) — string-derived on
    both sides, so no log10 float ever decides a bucket.  The Benford
    expectation n·log10(1+1/d) is emitted as a floor-scaled integer by
    one mirrored float chain per digit row.

    Scale shape: per-batch 9-bucket bincount partials -> one 9-row
    exchange.  Output: (digit, n_obs, expected_micro), digits 1-9.
    """
    import math

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        x = _scaled_int(t.column(value_col), value_scale)
        x = x[x > 0]
        # leading decimal digit without float log10: digits of the
        # base-10 string, vectorized via astype('U')
        first = np.char.ljust(x.astype("U"), 1).astype(np.int64)
        cnt = np.bincount(first, minlength=10)[1:10].astype(np.int64)
        return pa.table(
            {
                "digit": pa.array(np.arange(1, 10, dtype=np.int64), pa.int64()),
                "n": pa.array(cnt, pa.int64()),
            }
        )

    agg = (
        ds.select_columns([value_col])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("digit")
        .aggregate(Sum("n", alias_name="n_obs"))
        .to_pandas()
        .sort_values("digit")
    )
    total = int(agg["n_obs"].sum())
    exp = [
        math.floor(
            float(total) * math.log10(1.0 + 1.0 / d)
            * float(expected_scale) + 0.5
        )
        for d in agg["digit"]
    ]
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "digit": pa.array(agg["digit"].to_numpy(np.int64), pa.int64()),
                "n_obs": pa.array(agg["n_obs"].to_numpy(np.int64), pa.int64()),
                "expected_micro": pa.array(exp, pa.int64()),
            }
        )
    )


def _trunc_div(a: int, b: int) -> int:
    """DuckDB HUGEINT // semantics: truncation toward zero (Python floors).
    Same rule as grouped_ols' local helper; module-level for reuse."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def bpe_encode(
    docs_ds,
    merges_ds,
    end_marker: str = "</w>",
    text_col: str = "text",
    id_col: str = "doc_id",
    max_merges_broadcast: int = 1_000_000,
    concurrency: int = 2,
):
    """Apply trained BPE merges (the ``bpe_train`` output: rank, left,
    right) to every document — the encode half of Sennrich et al. 2016,
    completing the train→encode loop a tokenization pipeline runs at
    ingest.  Returns (id, n_words, n_tokens): token counts per doc under
    the learned vocabulary (the number a sequence-packing budget actually
    needs; the token strings themselves stay worker-local).

    Scale shape: the merge table is tiny by construction (one row per
    merge; 32k-100k for real tokenizers — guarded at
    ``max_merges_broadcast`` rows) and broadcast once via ray.put; the
    encode pass is a stateless map with NO shuffle.  Per batch, encoding
    runs once per DISTINCT word (memoized), not per occurrence — web text
    repeats words heavily, so the per-word greedy merge loop amortizes to
    near-vectorized cost; counts per doc are then a numpy segment sum.
    """
    import ray

    mt = merges_ds.select_columns(["rank", "left", "right"]).to_pandas()
    if len(mt) > max_merges_broadcast:
        raise ValueError(
            f"bpe_encode: {len(mt)} merges exceed max_merges_broadcast="
            f"{max_merges_broadcast}; shard the merge table and apply in "
            "rank order per shard instead of one broadcast"
        )
    ranks = {
        (l, r): int(k)
        for k, l, r in zip(mt["rank"], mt["left"], mt["right"])
    }
    ranks_ref = ray.put(ranks)

    from ..textops import _WORD_RE

    def encode_word(word: str, rk: dict) -> int:
        syms = list(word) + [end_marker]
        while len(syms) > 1:
            best, bi = None, -1
            for i in range(len(syms) - 1):
                r = rk.get((syms[i], syms[i + 1]))
                if r is not None and (best is None or r < best):
                    best, bi = r, i
            if best is None:
                break
            # merge ALL occurrences of the winning pair, left to right
            pair = (syms[bi], syms[bi + 1])
            out = []
            i = 0
            while i < len(syms):
                if i < len(syms) - 1 and (syms[i], syms[i + 1]) == pair:
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return len(syms)

    class Encoder:
        """Actor-pool stage: the merge table and the word→token-count
        memo live PER ACTOR (once in __init__, reused across every
        batch the actor sees) — web text repeats words heavily, so the
        cross-batch cache turns the greedy merge loop into a hash
        lookup for almost every occurrence.  Pool sized BELOW the
        cluster cpu count (pool == cpus deadlocks the pipeline — the
        repo's measured actor-pool rule); 2 is safe under the 4-cpu
        test fixture, callers raise it on real clusters."""

        def __init__(self) -> None:
            self.rk = ray.get(ranks_ref)
            self.cache: dict[str, int] = {}

        def __call__(self, t: pa.Table) -> pa.Table:
            cache, rk = self.cache, self.rk
            ids = t.column(id_col)
            n_words = np.zeros(t.num_rows, np.int64)
            n_tokens = np.zeros(t.num_rows, np.int64)
            for i, txt in enumerate(t.column(text_col).to_pylist()):
                ws = _WORD_RE.findall((txt or "").lower())
                n_words[i] = len(ws)
                tot = 0
                for w in ws:
                    c = cache.get(w)
                    if c is None:
                        c = encode_word(w, rk)
                        cache[w] = c
                    tot += c
                n_tokens[i] = tot
            return pa.table(
                {
                    id_col: ids,
                    "n_words": pa.array(n_words, pa.int64()),
                    "n_tokens": pa.array(n_tokens, pa.int64()),
                }
            )

    return docs_ds.select_columns([id_col, text_col]).map_batches(
        Encoder, batch_format="pyarrow", concurrency=concurrency
    )


def zipf_fit(
    docs_ds,
    top_k: int = 100,
    text_col: str = "text",
    scale: int = 10**6,
):
    """Zipf's-law fit over the corpus frequency spectrum: OLS of
    ln(frequency) on ln(rank) for the top-``top_k`` words — the lexical
    health check (natural text reads slope ≈ -1; template/spam corpora
    deviate).  Returns ONE row (n, slope_micro, intercept_micro) as
    TRUNCATION-scaled integers so the DuckDB oracle hash-matches: each
    row's ln() is computed from exact integers (row-local IEEE, identical
    in numpy and DuckDB) and immediately integer-scaled, so the cross-row
    regression sums are exact integer arithmetic with no float
    accumulation order anywhere (the price_qty_regression discipline).

    Scale shape: one word-hash exchange for the frequency table (partials
    pre-combined per batch), a lossless top-k sort bounded to ``top_k``
    rows, and a single-block finish — the regression input is top_k rows
    regardless of corpus size.
    """
    from ray.data.aggregate import Sum

    from .textstats import word_count_partial

    freq = (
        docs_ds.select_columns([text_col])
        .map_batches(word_count_partial, batch_format="pyarrow")
        .groupby("word")
        .aggregate(Sum("partial", alias_name="total"))
        .sort(["total", "word"], descending=[True, False])
        .limit(top_k)
        .materialize()  # bounded at top_k rows; lets the empty check below
        # reuse the executed result instead of re-running the exchange
    )
    if freq.count() == 0:
        # an empty corpus yields ZERO blocks, so the finish fn below would
        # never run and the output would keep the (word, total) schema
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "n": pa.array([0], pa.int64()),
                    "slope_micro": pa.array([None], pa.int64()),
                    "intercept_micro": pa.array([None], pa.int64()),
                }
            )
        )

    def finish(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return pa.table(
                {
                    "n": pa.array([0], pa.int64()),
                    "slope_micro": pa.array([None], pa.int64()),
                    "intercept_micro": pa.array([None], pa.int64()),
                }
            )
        f = t.column("total").to_numpy(zero_copy_only=False).astype(np.int64)
        # the limit() output preserves the sort order; rank 1 = top word
        rank = np.arange(1, n + 1, dtype=np.int64)
        lr = np.floor(np.log(rank.astype(np.float64)) * scale + 0.5).astype(object)
        lf = np.floor(np.log(f.astype(np.float64)) * scale + 0.5).astype(object)
        # Python-int sums: products exceed int64 at scale^2 magnitudes
        s_r = int(sum(lr)); s_f = int(sum(lf))
        s_rr = int(sum(a * a for a in lr)); s_rf = int(sum(a * b for a, b in zip(lr, lf)))
        den = n * s_rr - s_r * s_r
        if den == 0:
            slope = None
            intercept = None
        else:
            slope = _trunc_div((n * s_rf - s_r * s_f) * scale, den)
            intercept = _trunc_div(s_f - _trunc_div(slope * s_r, scale), n)
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "slope_micro": pa.array([slope], pa.int64()),
                "intercept_micro": pa.array([intercept], pa.int64()),
            }
        )

    return freq.repartition(1).map_batches(finish, batch_format="pyarrow")
