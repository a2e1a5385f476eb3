"""Event-stream operators: gap sessionization, rolling-window aggregates,
time-bucket aggregates, JSON property extraction.

The reference has no event processing (it is a crawler); these are the
windowed / streaming-flavored operators a training-data pipeline needs
(brief: "windowed aggregate" as a custom operator class), expressed
Ray-Data-first:

- per-key ordered windows = ``groupby(key).map_groups`` with a vectorized
  pandas/numpy kernel inside (the partitioning assumption: one user's
  events fit one group — keys are users, not hosts, so no skew pathology);
- time buckets and JSON extraction are stateless ``map_batches``;
- every float aggregate is integer-scaled (cents) so the DuckDB oracle
  compares bit-exactly.
"""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import coarse_groupby

US_PER_HOUR = 3_600_000_000


def _user_starts(df: pd.DataFrame) -> tuple[pd.DataFrame, np.ndarray, np.ndarray]:
    """Sort a coarse group by (user, ts, event_id); return (sorted df,
    user-run start flags, per-row index of the row's user-run start)."""
    df = df.sort_values(["user_id", "ts", "event_id"])
    users = df["user_id"].to_numpy()
    is_start = np.concatenate(([True], np.diff(users) != 0))
    start_idx = np.maximum.accumulate(np.where(is_start, np.arange(len(df)), 0))
    return df, is_start, start_idx


def sessionize(events_ds, gap_minutes: int = 30, num_groups: int = 256):
    """Gap-based sessions per user: a new session starts when the time since
    the previous event (ts order, event_id tiebreak) exceeds the gap.
    Output (event_id, user_id, session_id) with session_id 0-based per user.
    Vectorized across ALL users of a coarse group: session breaks are
    cumsum'd globally and re-based at each user-run start."""
    gap_us = gap_minutes * 60_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, is_start, start_idx = _user_starts(df)
        # unit-explicit epoch µs (pandas may carry ns OR µs precision)
        ts = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        gap_break = np.concatenate(([False], np.diff(ts) > gap_us)) & ~is_start
        c = np.cumsum(gap_break)
        sess = (c - c[start_idx]).astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "session_id": sess,
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def rolling_sum(events_ds, window: int = 4, num_groups: int = 256):
    """Rolling aggregate per user in (ts, event_id) order: sum of the
    integer-scaled ``value`` over the last ``window`` rows (ROWS window,
    current row inclusive).  Output (event_id, user_id, roll_cents).
    Vectorized across users: the window's low bound is clamped to the
    row's user-run start."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, _, start_idx = _user_starts(df)
        cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        csum = np.concatenate(([0], np.cumsum(cents)))
        n = len(cents)
        lo = np.maximum(np.arange(n) - window + 1, start_idx)
        roll = csum[1:] - csum[lo]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "roll_cents": roll,
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def rolling_median(events_ds, window: int = 4, num_groups: int = 256):
    """Exact rolling MEDIAN per user in (ts, event_id) order over the last
    ``window`` rows (ROWS window, current row inclusive) of the
    integer-scaled ``value`` — ``median(cents) OVER (PARTITION BY user
    ORDER BY ts, event_id ROWS BETWEEN w-1 PRECEDING AND CURRENT ROW)``.
    Even windows interpolate (mean of the two middles, DuckDB/quantile_cont
    semantics); the mean of two int64 cents is either integral or .5 —
    exactly representable, so the float output is hash-safe.

    Vectorized across the whole coarse user-hash group (rolling_sum's
    shape: ONE narrow exchange, run-scan kernels): build the (n, window)
    lag matrix, mask lags that cross the row's user-run start with +inf,
    one row-sort, then pick the two middle ranks from each row's true
    window count.  O(n·w log w) per group, no per-row Python.
    Output (event_id, user_id, med_cents float64)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, _, start_idx = _user_starts(df)
        cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        n = len(cents)
        idx = np.arange(n)
        lo = np.maximum(idx - window + 1, start_idx)
        cnt = idx - lo + 1
        # lag matrix: column j = value j rows back, +inf when outside the
        # user-run (sorts to the tail, never reaches a middle rank)
        mat = np.full((n, window), np.inf)
        vals = cents.astype(np.float64)
        for j in range(window):
            src = idx - j
            ok = src >= lo
            mat[ok, j] = vals[src[ok]]
        mat.sort(axis=1)
        mid_lo = (cnt - 1) // 2
        mid_hi = cnt // 2
        med = (mat[idx, mid_lo] + mat[idx, mid_hi]) / 2.0
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "med_cents": med,
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def cumulative_distinct_types(events_ds, num_groups: int = 256):
    """Exact cumulative DISTINCT count per user — how many distinct
    event types the user has seen up to and including each event ((ts,
    event_id) order).  ``count(DISTINCT x) OVER`` isn't a supported
    window; the standard derivation is a first-occurrence flag
    (row_number() = 1 per (user, type)) running-summed per user — the
    same trick mirrored in the SQL oracle, and the shape of a corpus
    vocabulary-growth curve.

    One coarse user-hash exchange; inside the group two lexsorts: by
    (user, type, ts, id) to flag first occurrences vectorized, back to
    (user, ts, id) to run-rebase the cumsum.  Output (event_id, user_id,
    n_distinct_types int64)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, _, start_idx = _user_starts(df)
        users = df["user_id"].to_numpy()
        types = df["event_type"].to_numpy()
        n = len(df)
        # first occurrence of (user, type) in (ts, id) order: since df is
        # already (user, ts, id)-sorted, a STABLE sort by (user, type)
        # keeps time order inside each (user, type) run
        tcodes = pd.factorize(types)[0]
        order = np.lexsort((np.arange(n), tcodes, users))
        su, st = users[order], tcodes[order]
        first_sorted = np.concatenate(
            ([True], (np.diff(su) != 0) | (np.diff(st) != 0))
        ) if n else np.array([], bool)
        is_first = np.empty(n, dtype=np.int64)
        is_first[order] = first_sorted.astype(np.int64)
        csum = np.concatenate(([0], np.cumsum(is_first)))
        cum = csum[1:] - csum[start_idx]
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": users,
                "n_distinct_types": cum,
            }
        )

    return coarse_groupby(
        events_ds.select_columns(["event_id", "user_id", "ts", "event_type"]),
        "user_id",
        fn,
        num_groups,
        "pandas",
    )


def rolling_distinct_types(events_ds, window: int = 4, num_groups: int = 256):
    """Exact DISTINCT count over a trailing ROWS window per user: how many
    distinct event types occur among the last ``window`` rows ((ts,
    event_id) order, current inclusive) — mirrored in SQL as
    ``len(list_distinct(list(type) OVER (ROWS w-1 PRECEDING)))``.

    rolling_median's lag-matrix kernel over factorized type codes (pad
    -1 outside the user run, one row-sort, count value changes among
    non-pad entries) — O(n·w log w), no per-row Python.  Output
    (event_id, user_id, n_distinct int64)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, _, start_idx = _user_starts(df)
        codes = pd.factorize(df["event_type"].to_numpy())[0].astype(np.int64)
        n = len(codes)
        idx = np.arange(n)
        lo = np.maximum(idx - window + 1, start_idx)
        mat = np.full((n, window), -1, dtype=np.int64)
        for j in range(window):
            src = idx - j
            ok = src >= lo
            mat[ok, j] = codes[src[ok]]
        mat.sort(axis=1)  # pads (-1) sort to the front of each row
        nonpad = mat != -1
        neq = np.ones_like(nonpad)
        neq[:, 1:] = mat[:, 1:] != mat[:, :-1]
        cnt = (nonpad & neq).sum(axis=1).astype(np.int64)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "n_distinct": cnt,
            }
        )

    return coarse_groupby(
        events_ds.select_columns(["event_id", "user_id", "ts", "event_type"]),
        "user_id",
        fn,
        num_groups,
        "pandas",
    )


def last_touch_attribution(
    events_ds,
    convert_type: str = "purchase",
    touch_types: tuple = ("view", "click"),
    num_groups: int = 256,
):
    """Last-touch marketing attribution: for every conversion event, the
    event_id of the user's most recent STRICTLY-PRIOR touch event (ts,
    event_id order) — ``last_value(CASE WHEN type IN touches THEN id END
    IGNORE NULLS) OVER (... ROWS UNBOUNDED PRECEDING AND 1 PRECEDING)``
    filtered to conversions.  Conversions with no prior touch attribute
    to NULL.

    One coarse user-hash exchange; inside the group a vectorized
    forward-fill (maximum.accumulate over touch indices, shifted one row,
    clamped at user-run starts) — no per-row Python.  Output (event_id,
    user_id, touch_event_id) with touch_event_id as ARROW int64-with-nulls
    (lands as float64/NaN — the repo's nullable-int invariant; never
    pandas-nullable Int64).  pyarrow map_groups per the empty-partition
    rule."""
    touches = set(touch_types)

    empty = pa.schema(
        [
            pa.field("event_id", pa.int64()),
            pa.field("user_id", pa.int64()),
            pa.field("touch_event_id", pa.int64()),
        ]
    )

    def fn(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty.empty_table()
        df = t.to_pandas()
        df, _, start_idx = _user_starts(df)
        eids = df["event_id"].to_numpy().astype(np.int64)
        etypes = df["event_type"].to_numpy()
        idx = np.arange(len(df))
        is_touch = np.isin(etypes, list(touches))
        acc = np.maximum.accumulate(np.where(is_touch, idx, -1))
        prev = np.concatenate(([-1], acc[:-1]))
        prev = np.where(prev >= start_idx, prev, -1)  # never cross users
        conv = etypes == convert_type
        p = prev[conv]
        touch_ids = np.where(p >= 0, eids[np.maximum(p, 0)], 0)
        return pa.table(
            {
                "event_id": pa.array(eids[conv], pa.int64()),
                "user_id": pa.array(
                    df["user_id"].to_numpy().astype(np.int64)[conv], pa.int64()
                ),
                "touch_event_id": pa.array(touch_ids, pa.int64(), mask=p < 0),
            }
        )

    return coarse_groupby(
        events_ds.select_columns(["event_id", "user_id", "ts", "event_type"]),
        "user_id",
        fn,
        num_groups,
    )


def grouped_running_sum(
    ds,
    group_col: str,
    order_col: str,
    tie_col: str,
    value_col: str,
    num_groups: int = 256,
):
    """Generic cumulative window — ``sum(value) OVER (PARTITION BY group
    ORDER BY order, tie ROWS UNBOUNDED PRECEDING)`` — for any table with
    an int64 group key, a sortable order column, a unique int64 tiebreak
    and an ALREADY-INTEGER value column (callers pre-scale money to
    cents; float accumulation would diverge from the SQL mirror).
    Output (tie_col, group_col, ``cum`` int64).

    Scale shape: rolling_sum's — ONE coarse group-hash shuffle of four
    narrow columns, one sort + run-rebased cumsum per ~num_groups
    vectorized kernels; a group's rows must fit one coarse partition
    (groups are customers/users — the events.py assumption)."""

    empty = pa.schema(
        [
            pa.field(tie_col, pa.int64()),
            pa.field(group_col, pa.int64()),
            pa.field("cum", pa.int64()),
        ]
    )

    def fn(t: pa.Table) -> pa.Table:
        # pyarrow map_groups: empty sparse partitions emit ARROW blocks
        if t.num_rows == 0:
            return empty.empty_table()
        df = t.to_pandas().sort_values([group_col, order_col, tie_col])
        groups = df[group_col].to_numpy()
        is_start = np.concatenate(([True], np.diff(groups) != 0))
        start_idx = np.maximum.accumulate(np.where(is_start, np.arange(len(df)), 0))
        vals = df[value_col].to_numpy().astype(np.int64)
        csum = np.concatenate(([0], np.cumsum(vals)))
        cum = csum[1:] - csum[start_idx]
        return pa.table(
            {
                tie_col: pa.array(df[tie_col].to_numpy(), pa.int64()),
                group_col: pa.array(groups, pa.int64()),
                "cum": pa.array(cum, pa.int64()),
            }
        )

    return coarse_groupby(
        ds.select_columns([group_col, order_col, tie_col, value_col]),
        group_col,
        fn,
        num_groups,
    )


def time_window_sum(events_ds, window_us: int = 604_800_000_000, num_groups: int = 256):
    """Time-based sliding-window aggregate (RANGE window, vs rolling_sum's
    ROWS window): per user, the cents sum over events with ts in
    [ts - window, ts] — both bounds inclusive, and ALL peer rows at the
    current ts included, exactly matching SQL ``RANGE BETWEEN w PRECEDING
    AND CURRENT ROW`` peer semantics.

    Vectorized across every user of a coarse group with the run-offset
    trick: each user-run's timestamps are shifted by run_index * S (S >
    group ts span + window), making ONE globally sorted array on which two
    ``np.searchsorted`` calls find every row's window bounds at once — the
    offset gap guarantees a window can never reach into the previous
    user's run.  No per-user groups, no Python loop.
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, is_start, _ = _user_starts(df)
        ts = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        run = np.cumsum(is_start) - 1
        base = ts.min() if len(ts) else 0
        span = int(ts.max() - base) if len(ts) else 0
        stride = span + window_us + 2
        if len(ts) and int(run[-1]) * stride >= (1 << 62):
            raise OverflowError(
                "time_window_sum run-offset overflow: shrink num_groups or window"
            )
        adj = run * stride + (ts - base)
        csum = np.concatenate(([0], np.cumsum(cents)))
        lo = np.searchsorted(adj, adj - window_us, side="left")
        hi = np.searchsorted(adj, adj, side="right")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "win_cents": csum[hi] - csum[lo],
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def event_deltas(events_ds, num_groups: int = 256):
    """LAG window op (the third window flavor next to rolling_sum's ROWS and
    time_window_sum's RANGE): per user in (ts, event_id) order, the cents
    delta vs the previous event — null for each user's first event, exactly
    matching SQL ``value - LAG(value) OVER (PARTITION BY user ORDER BY ts)``.
    Output (event_id, user_id, delta_cents float64/NaN — the exact
    representation DuckDB's fetchdf gives an int-with-nulls column, so the
    driver's value hash matches; a pandas-nullable Int64 here fails it, the
    round-3/4 repr lesson).  Vectorized across all users of a coarse group:
    one np.diff, run starts masked."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, is_start, _ = _user_starts(df)
        cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        delta = np.empty(len(cents), dtype=np.float64)
        delta[0:1] = np.nan
        if len(cents) > 1:
            delta[1:] = np.diff(cents)
        delta[is_start] = np.nan
        return pd.DataFrame(
            {
                "event_id": df["event_id"].to_numpy(),
                "user_id": df["user_id"].to_numpy(),
                "delta_cents": delta,
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def funnel_counts(events_ds, steps: tuple = ("view", "click", "purchase"), num_groups: int = 256):
    """Ordered-funnel analysis: how many users completed step 1, steps 1-2
    in order, steps 1-2-3 in order — "in order" meaning each step's FIRST
    occurrence STRICTLY after the previous step's anchor time (ties on ts
    don't advance the funnel; the rule is pinned on both engine and SQL
    side so no event_id tiebreak is needed).  Output is one row
    (n_step1, n_step2, n_step3 : int64).

    Scale shape: the per-user scan is vectorized inside coarse user-hash
    groups (searchsorted per step over each user run's sorted timestamps);
    each group emits ONE partial row, and a 1-row tree sum finishes — the
    driver never sees per-user data."""
    if len(steps) != 3:
        raise ValueError("funnel_counts is pinned to 3 steps (matches the SQL oracle)")
    s1, s2, s3 = steps

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, is_start, _ = _user_starts(df)
        ts = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        et = df["event_type"].to_numpy()
        run = np.cumsum(is_start) - 1
        n_users = int(run[-1]) + 1 if len(df) else 0
        c1 = c2 = c3 = 0
        INF = np.iinfo(np.int64).max
        t_anchor = np.full(n_users, INF)
        for step_i, step in enumerate((s1, s2, s3)):
            m = et == step
            # first ts of `step` strictly after the user's current anchor
            # (anchor = previous step's first-match time; INF = not reached)
            nxt = np.full(n_users, INF)
            sel_run, sel_ts = run[m], ts[m]
            # anchor == INF (step not reached) makes the > test False, so
            # unreached users never advance
            ok = sel_ts > t_anchor[sel_run] if step_i else np.ones(len(sel_ts), bool)
            np.minimum.at(nxt, sel_run[ok], sel_ts[ok])
            t_anchor = nxt
            n = int((nxt != INF).sum())
            if step_i == 0:
                c1 = n
            elif step_i == 1:
                c2 = n
            else:
                c3 = n
        return pd.DataFrame(
            {
                "n_step1": np.array([c1], np.int64),
                "n_step2": np.array([c2], np.int64),
                "n_step3": np.array([c3], np.int64),
            }
        )

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n_step1": np.array([df["n_step1"].sum()], np.int64),
                "n_step2": np.array([df["n_step2"].sum()], np.int64),
                "n_step3": np.array([df["n_step3"].sum()], np.int64),
            }
        )

    return (
        coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")
        .repartition(1)
        .map_batches(total, batch_format="pandas", batch_size=None)
    )


def hourly_agg(events_ds):
    """Time-bucket aggregate: events per (event_type, epoch hour) with count
    and exact cents sum.  Bucket = epoch_us // 3600e6 as int64 (no timestamp
    round-tripping through comparers)."""
    from ray.data.aggregate import Count, Sum

    def bucket(t: pa.Table) -> pa.Table:
        # normalize the unit BEFORE the int cast (sources differ: parquet
        # carries us, from_items/pandas carries ns), then tz-safe epoch µs.
        # FLOOR division via numpy (pc.divide truncates toward zero, which
        # diverges from the SQL // oracle for pre-1970 negative epochs —
        # ADVICE r2)
        us = t.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        hour = pa.array(
            us.combine_chunks().to_numpy(zero_copy_only=False) // US_PER_HOUR,
            pa.int64(),
        )
        cents = pc.cast(
            pc.floor(pc.add(pc.multiply(t.column("value"), 100.0), 0.5)), pa.int64()
        )
        return pa.table(
            {
                "event_type": t.column("event_type"),
                "hour": pc.cast(hour, pa.int64()),
                "cents": cents,
            }
        )

    return (
        events_ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Count(alias_name="n"), Sum("cents", alias_name="sum_cents"))
    )


def json_prop(events_ds, key: str = "k"):
    """Scalar JSON extraction (§2.8 json): props[key] as int64, null when
    missing/invalid/NOT AN INTEGER LITERAL — floats and booleans are null,
    matching the SQL oracle's integer-literal regexp guard exactly (Python
    int() truncates floats and accepts bools; DuckDB CAST rounds floats and
    errors on bools — restricting both sides to integer literals is the only
    semantics they can share)."""

    def fn(t: pa.Table) -> pa.Table:
        vals = []
        for s in t.column("props").to_pylist():
            try:
                v = json.loads(s).get(key)
                vals.append(v if isinstance(v, int) and not isinstance(v, bool) else None)
            except (ValueError, TypeError, AttributeError):
                vals.append(None)
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "k": pa.array(vals, pa.int64()),
            }
        )

    return events_ds.map_batches(fn, batch_format="pyarrow")


def user_retention(events_ds, num_groups: int = 256):
    """Cohort retention: users are cohorted by the hour of their FIRST
    event; for every (cohort_hour, offset_hours) the count of cohort users
    active in that later hour (offset 0 = the cohort size).  The classic
    growth-analytics matrix, all-integer (epoch-hour floor division) so
    the DuckDB oracle compares exactly.

    Shape: ONE coarse user-hash shuffle (every event of a user lands in
    one group); inside, a (user, hour) drop-duplicates + user-run scan
    computes each user's cohort and offsets and pre-aggregates partial
    (cohort, offset) counts, then one tiny (cohort, offset) groupby-sum
    merges groups — shuffle volume after the first exchange is bounded by
    cohorts x offsets per group, not users.
    """
    from ray.data.aggregate import Sum

    US_PER_HOUR = 3_600_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts"].astype("datetime64[us]").astype(np.int64).to_numpy()
        hours = np.floor_divide(ts, US_PER_HOUR)
        d = pd.DataFrame({"user_id": df["user_id"].to_numpy(), "hour": hours})
        d = d.drop_duplicates().sort_values(["user_id", "hour"])
        users = d["user_id"].to_numpy()
        h = d["hour"].to_numpy()
        n = len(d)
        if n == 0:
            return pd.DataFrame(
                {"cohort_hour": [], "offset_hours": [], "pn": []}
            ).astype(np.int64)
        is_start = np.concatenate(([True], users[1:] != users[:-1]))
        start_idx = np.maximum.accumulate(np.where(is_start, np.arange(n), 0))
        cohort = h[start_idx]  # first (min) hour of the user's sorted run
        offset = h - cohort
        out = (
            pd.DataFrame({"cohort_hour": cohort, "offset_hours": offset})
            .groupby(["cohort_hour", "offset_hours"], sort=False)
            .size()
            .reset_index(name="pn")
        )
        return out.astype(np.int64)

    partials = coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")
    return (
        # ARROW blocks before the merge: Ray 2.49's multi-key
        # sort-aggregate over PANDAS blocks is a ~20x slow path (26.7 s vs
        # 1.2 s on this exact 94k-row aggregate, round 4); the identity
        # pyarrow map costs ~0.1 s and flips the whole exchange onto the
        # arrow sort path
        partials.map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["cohort_hour", "offset_hours"])
        .aggregate(Sum("pn", alias_name="n_users"))
    )


def transition_counts(events_ds, num_groups: int = 256):
    """Per-user event-type transition counts (the first-order Markov
    behavior matrix): for consecutive events of the SAME user in
    (ts, event_id) order, count each (prev_type, next_type) pair.
    SQL mirror: lead(event_type) OVER (PARTITION BY user_id
    ORDER BY ts, event_id), count non-null pairs.

    Scale shape: ONE coarse user-hash shuffle (a user's events
    co-locate, so consecutive-pair validity is a run-scan), per-group
    factorized bincount partials — one row per distinct (prev, next)
    per group, ∝ type-vocabulary², never events — finished by a tiny
    two-key arrow aggregate (pandas map_groups output is routed through
    an arrow pass first: the Ray 2.49 pandas-block aggregate slow path,
    CLAUDE.md).  Output (prev_type, next_type, n_transitions).
    """
    from ray.data.aggregate import Sum

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, _, _ = _user_starts(df)
        users = df["user_id"].to_numpy()
        types = df["event_type"].to_numpy()
        if len(df) < 2:
            return pd.DataFrame(
                {"prev_type": [], "next_type": [], "cnt": []}
            ).astype({"prev_type": str, "next_type": str, "cnt": np.int64})
        valid = users[1:] == users[:-1]
        prev = types[:-1][valid]
        nxt = types[1:][valid]
        pf, pu = pd.factorize(prev)
        nf, nu = pd.factorize(nxt)
        if len(pu) == 0:
            return pd.DataFrame(
                {"prev_type": [], "next_type": [], "cnt": []}
            ).astype({"prev_type": str, "next_type": str, "cnt": np.int64})
        combo = pf.astype(np.int64) * len(nu) + nf
        counts = np.bincount(combo, minlength=len(pu) * len(nu))
        nz = np.flatnonzero(counts)
        return pd.DataFrame(
            {
                "prev_type": [pu[i] for i in nz // len(nu)],
                "next_type": [nu[i] for i in nz % len(nu)],
                "cnt": counts[nz].astype(np.int64),
            }
        )

    return (
        coarse_groupby(events_ds, "user_id", fn, batch_format="pandas")
        .map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["prev_type", "next_type"])
        .aggregate(Sum("cnt", alias_name="n_transitions"))
    )


def path_trigrams(events_ds, num_groups: int = 256):
    """Per-user 3-step event-type paths (second-order Markov / session
    path mining): for each run of THREE consecutive same-user events in
    (ts, event_id) order, count the (step1, step2, step3) type triple.
    SQL mirror: two lead()s OVER (PARTITION BY user_id ORDER BY ts,
    event_id), count fully-non-null triples.

    Same scale shape as ``transition_counts``: ONE coarse user-hash
    shuffle (a user's events co-locate, so triple validity is a
    run-scan), per-group factorized bincount partials — one row per
    distinct triple per group, ∝ type-vocabulary³, never events — then
    the tiny arrow three-key aggregate.  Output
    (step1_type, step2_type, step3_type, n_paths).
    """
    from ray.data.aggregate import Sum

    empty = pd.DataFrame(
        {"step1_type": [], "step2_type": [], "step3_type": [], "cnt": []}
    ).astype(
        {"step1_type": str, "step2_type": str, "step3_type": str, "cnt": np.int64}
    )

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, _, _ = _user_starts(df)
        if len(df) < 3:
            return empty.copy()
        users = df["user_id"].to_numpy()
        codes, uniq = pd.factorize(df["event_type"].to_numpy())
        valid = (users[2:] == users[1:-1]) & (users[1:-1] == users[:-2])
        if not valid.any():
            return empty.copy()
        v = len(uniq)
        a = codes[:-2][valid].astype(np.int64)
        b = codes[1:-1][valid].astype(np.int64)
        c = codes[2:][valid].astype(np.int64)
        combo = (a * v + b) * v + c
        counts = np.bincount(combo, minlength=v * v * v)
        nz = np.flatnonzero(counts)
        return pd.DataFrame(
            {
                "step1_type": [uniq[i] for i in nz // (v * v)],
                "step2_type": [uniq[i] for i in (nz // v) % v],
                "step3_type": [uniq[i] for i in nz % v],
                "cnt": counts[nz].astype(np.int64),
            }
        )

    return (
        coarse_groupby(events_ds, "user_id", fn, batch_format="pandas")
        .map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["step1_type", "step2_type", "step3_type"])
        .aggregate(Sum("cnt", alias_name="n_paths"))
    )


def ewma_user_score(
    events_ds,
    halflife_hours: float = 24.0,
    num_groups: int = 256,
    out_scale: int = 1_000_000,
):
    """Per-user exponential-decay recency score: each event's
    integer-scaled value is decayed to the user's LAST event time,

        score(u) = Σ_i cents_i · 2^(-Δt_i / halflife),
        Δt_i = t_last(u) − t_i,

    the standard recency-weighted activity feature.  Rows-only check
    (2^x is a libm call, not SQL-hash-stable); the serial numpy oracle
    in tests/test_events.py pins the kernel, and determinism holds
    because each user's sum is computed in ONE kernel in (ts, event_id)
    order — no cross-partition float accumulation (the user's events
    co-locate in their coarse group).  Output
    (user_id, n_events, score_micro:int64) with score_micro =
    floor(out_scale · score / 100) (micro-dollars from cents).

    Scale shape: ONE coarse user-hash shuffle + a vectorized run-scan
    (reduceat per user run); output is one row per user.
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, is_start, start_idx = _user_starts(df)
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "user_id": np.array([], np.int64),
                    "n_events": np.array([], np.int64),
                    "score_micro": np.array([], np.int64),
                }
            )
        ts = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
        users = df["user_id"].to_numpy()
        starts = np.flatnonzero(is_start)
        ends = np.append(starts[1:], len(df))
        # t_last per run, broadcast to rows
        t_last = ts[ends - 1]
        dt_us = np.repeat(t_last, ends - starts) - ts
        decay = np.exp2(-dt_us / (halflife_hours * US_PER_HOUR))
        contrib = cents.astype(np.float64) * decay
        score = np.add.reduceat(contrib, starts)
        return pd.DataFrame(
            {
                "user_id": users[starts].astype(np.int64),
                "n_events": (ends - starts).astype(np.int64),
                "score_micro": np.floor(
                    score * (out_scale / 100.0)
                ).astype(np.int64),
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def user_paths(events_ds, max_steps: int = 50, num_groups: int = 256):
    """Per-user ordered event-type path string (the clickstream "journey"
    feature): the user's FIRST ``max_steps`` events in (ts, event_id)
    order, types joined with '>'.  SQL mirror: row_number() to take the
    head, then string_agg(event_type, '>' ORDER BY ts, event_id).
    Output (user_id, n_events:int64 total, path:string).

    Scale shape: ONE coarse user-hash exchange; output is one row per
    user and path length is hard-capped by ``max_steps`` (an uncapped
    group-concat would make hot users into megabyte rows — the cap IS
    the scale story, and the SQL mirrors it exactly).  Inside a group
    the head-take is a vectorized run-scan; only the ≤ max_steps joined
    types per user touch Python.
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, is_start, start_idx = _user_starts(df)
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "user_id": np.array([], np.int64),
                    "n_events": np.array([], np.int64),
                    "path": np.array([], object),
                }
            )
        users = df["user_id"].to_numpy()
        types = df["event_type"].to_numpy()
        pos = np.arange(len(df)) - start_idx  # 0-based rank within user
        starts = np.flatnonzero(is_start)
        run_len = np.append(starts[1:], len(df)) - starts
        head = pos < max_steps
        htypes = types[head]
        hlen = np.minimum(run_len, max_steps)
        bounds = np.concatenate(([0], hlen.cumsum()))
        paths = [
            ">".join(htypes[bounds[i]:bounds[i + 1]])
            for i in range(len(starts))
        ]
        return pd.DataFrame(
            {
                "user_id": users[starts].astype(np.int64),
                "n_events": run_len.astype(np.int64),
                "path": paths,
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def global_running_sum(ds, order_col: str, tie_col: str, value_col: str):
    """Global (UNPARTITIONED) cumulative window — ``sum(value) OVER
    (ORDER BY order, tie ROWS UNBOUNDED PRECEDING)`` — the one window
    shape ``grouped_running_sum`` can't express: no partition key, one
    total order over the whole table.  ``tie_col`` must be unique (the
    SQL total-order requirement) and ``value_col`` already-integer
    (callers pre-scale money to cents).  Output (tie_col, cum:int64).

    Scale shape — the range-partitioned prefix-sum pattern (the
    alternative SCALE.md's NTILE note promises): Ray's sort yields
    totally-ordered, range-partitioned blocks; pass 1 reduces each BLOCK
    to one (first_key, block_sum) row — driver state ∝ blocks, never
    rows — and exclusive-prefix-sums the offsets in key order; pass 2
    re-scans the same materialized sorted dataset adding each block's
    broadcast offset to its internal cumsum.  Two scans of the sorted
    data, no per-row driver traffic, no single-partition repartition.
    """
    import ray

    # order_col == tie_col is allowed when the order key is itself unique
    # (e.g. a pre-aggregated timestamp axis)
    cols = list(dict.fromkeys([order_col, tie_col, value_col]))
    keys = list(dict.fromkeys([order_col, tie_col]))
    sorted_ds = ds.select_columns(cols).sort(keys).materialize()

    def block_meta(t: pa.Table) -> pa.Table:
        # one row per BLOCK: the block's first (order, tie) in NATIVE
        # types (driver sorts blocks by true key order, not strings) and
        # the block sum; tie_col is unique table-wide, so the first tie
        # alone identifies the block for the offset lookup
        if t.num_rows == 0:
            return pa.table(
                {
                    order_col: t.column(order_col),
                    "first_tie": pa.array([], pa.int64()),
                    "bsum": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                order_col: t.column(order_col).slice(0, 1),
                "first_tie": pa.array(
                    [int(t.column(tie_col)[0].as_py())], pa.int64()
                ),
                "bsum": pa.array(
                    [int(np.sum(t.column(value_col).to_numpy(zero_copy_only=False)))],
                    pa.int64(),
                ),
            }
        )

    meta = (
        sorted_ds.map_batches(block_meta, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values([order_col, "first_tie"])
        .reset_index(drop=True)
    )
    offsets = np.concatenate(([0], meta["bsum"].to_numpy(np.int64).cumsum()[:-1]))
    off_map = {
        int(t): int(x) for t, x in zip(meta["first_tie"], offsets)
    }
    off_ref = ray.put(off_map)

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    tie_col: pa.array([], pa.int64()),
                    "cum": pa.array([], pa.int64()),
                }
            )
        om = ray.get(off_ref)
        key = int(t.column(tie_col)[0].as_py())
        vals = t.column(value_col).to_numpy(zero_copy_only=False).astype(np.int64)
        cum = vals.cumsum() + om[key]
        return pa.table(
            {
                tie_col: t.column(tie_col),
                "cum": pa.array(cum, pa.int64()),
            }
        )

    return sorted_ds.map_batches(attach, batch_format="pyarrow", batch_size=None)


def global_ntile(ds, order_col: str, tie_col: str, k: int):
    """``NTILE(k) OVER (ORDER BY order, tie)`` — equal-height global
    buckets with SQL's fill rule (the first ``n % k`` tiles get
    ``ceil(n/k)`` rows, the rest ``floor(n/k)``).  ``tie_col`` must be
    unique (total order).  Output (tie_col, tile:int64).

    Scale shape: the same range-partitioned prefix pattern as
    ``global_running_sum``, with ROW COUNTS as the block statistic —
    Ray's sort range-partitions, pass 1 reduces each block to one
    (first_key, n_rows) row (driver state ∝ blocks), the exclusive
    prefix sum gives each block its global row offset, pass 2 assigns
    tiles from the closed-form index rule.  No single-partition funnel,
    no per-row driver traffic.
    """
    import ray

    sorted_ds = (
        ds.select_columns([order_col, tie_col])
        .sort([order_col, tie_col])
        .materialize()
    )

    def block_meta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    order_col: t.column(order_col),
                    "first_tie": pa.array([], pa.int64()),
                    "nrows": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                order_col: t.column(order_col).slice(0, 1),
                "first_tie": pa.array(
                    [int(t.column(tie_col)[0].as_py())], pa.int64()
                ),
                "nrows": pa.array([t.num_rows], pa.int64()),
            }
        )

    meta = (
        sorted_ds.map_batches(block_meta, batch_format="pyarrow", batch_size=None)
        .to_pandas()
        .sort_values([order_col, "first_tie"])
        .reset_index(drop=True)
    )
    counts = meta["nrows"].to_numpy(np.int64)
    n = int(counts.sum())
    offsets = np.concatenate(([0], counts.cumsum()[:-1]))
    off_ref = ray.put(
        {int(t): int(x) for t, x in zip(meta["first_tie"], offsets)}
    )
    q, big = divmod(n, k)  # first `big` tiles hold q+1 rows

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    tie_col: pa.array([], pa.int64()),
                    "tile": pa.array([], pa.int64()),
                }
            )
        om = ray.get(off_ref)
        i = om[int(t.column(tie_col)[0].as_py())] + np.arange(
            t.num_rows, dtype=np.int64
        )
        cut = (q + 1) * big  # rows below `cut` sit in the fat tiles
        if q == 0:
            tile = i + 1  # n < k: one row per tile
        else:
            tile = np.where(i < cut, i // (q + 1), big + (i - cut) // q) + 1
        return pa.table(
            {
                tie_col: t.column(tie_col),
                "tile": pa.array(tile.astype(np.int64), pa.int64()),
            }
        )

    return sorted_ds.map_batches(attach, batch_format="pyarrow", batch_size=None)


def rank_by_key(ds, key_col: str, id_col: str):
    """``RANK() OVER (ORDER BY key)`` for a LOW-CARDINALITY key (dates,
    buckets): every row gets 1 + count of rows with a strictly smaller
    key; ties share a rank.  Output (id_col, rnk:int64).

    Scale shape: rank depends only on the per-key row counts, so ONE
    count aggregate (shuffle ∝ distinct keys × blocks) feeds a
    driver-side prefix sum over the DISTINCT KEYS — driver state ∝ key
    cardinality, which this operator is documented to require be small
    (dates: thousands); the rank map broadcasts once via ray.put and the
    second pass is a stateless lookup.  For high-cardinality keys use
    ``global_ntile``/``global_running_sum``'s range-partitioned pattern
    instead.
    """
    import ray
    from ray.data.aggregate import Count

    keyed = ds.select_columns([key_col, id_col]).map_batches(
        lambda t: pa.table(
            {
                "k": t.column(key_col).cast(pa.int64()),
                id_col: t.column(id_col),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    counts = (
        keyed.groupby("k").aggregate(Count(alias_name="n")).to_pandas()
    ).sort_values("k")
    ks = counts["k"].to_numpy(np.int64)
    ns = counts["n"].to_numpy(np.int64)
    ranks = np.concatenate(([0], ns.cumsum()[:-1])) + 1
    ref = ray.put((ks, ranks))

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], pa.int64()),
                    "rnk": pa.array([], pa.int64()),
                }
            )
        ks_b, ranks_b = ray.get(ref)
        kv = t.column("k").to_numpy(zero_copy_only=False)
        rnk = ranks_b[np.searchsorted(ks_b, kv)]
        return pa.table(
            {
                id_col: t.column(id_col),
                "rnk": pa.array(rnk.astype(np.int64), pa.int64()),
            }
        )

    return keyed.map_batches(attach, batch_format="pyarrow")


def new_users_daily(events_ds):
    """New-user counts per day: each user's FIRST event (ts order)
    assigns them to a cohort day; output (day:timestamp_us, new_users:
    int64) — the acquisition-curve statistic next to [[user_retention]].

    Scale shape: per-batch per-user min-ts partials (one row per
    distinct user per batch) → one user-key arrow Min aggregate (shuffle
    ∝ users × blocks, pre-aggregated) → per-batch day-count partials →
    one tiny day-key Sum aggregate (rows ∝ days).  No sort, no driver
    state.
    """
    from ray.data.aggregate import Min, Sum

    US_PER_DAY = 86_400_000_000

    def min_partial(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uu, inv = np.unique(u, return_inverse=True)
        m = np.full(len(uu), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(m, inv, ts)
        return pa.table(
            {
                "user_id": pa.array(uu, pa.int64()),
                "ft": pa.array(m, pa.int64()),
            }
        )

    firsts = (
        events_ds.select_columns(["user_id", "ts"])
        .map_batches(min_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("ft", alias_name="ft"))
    )

    def day_partial(t: pa.Table) -> pa.Table:
        ft = t.column("ft").to_numpy(zero_copy_only=False)
        day = (ft // US_PER_DAY) * US_PER_DAY
        dd, cnt = np.unique(day, return_counts=True)
        return pa.table(
            {
                "day_us": pa.array(dd, pa.int64()),
                "part": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": t.column("day_us").cast(pa.timestamp("us")),
                "new_users": t.column("new_users"),
            }
        )

    return (
        firsts.map_batches(day_partial, batch_format="pyarrow")
        .groupby("day_us")
        .aggregate(Sum("part", alias_name="new_users"))
        .map_batches(finish, batch_format="pyarrow")
    )


def user_gap_moments(events_ds, num_groups: int = 256):
    """Per-user inter-event-gap moments — burstiness diagnostics: number
    of gaps, Σgap (microseconds, int64) and Σgap² (SECONDS², the square
    stays far inside int64; the per-gap second count is the floor of the
    us gap, mirrored by SQL's integer division).  Single-event users
    emit (0, 0, 0) rows like SQL's count/coalesce.  Output (user_id,
    n_gaps, sum_us, sumsq_s).

    Scale shape: ONE coarse user-hash exchange, in-group sort + run-scan
    diffs (gaps never cross users), per-user sums via bincount.
    """

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype=np.int64),
                    "n_gaps": pd.Series([], dtype=np.int64),
                    "sum_us": pd.Series([], dtype=np.int64),
                    "sumsq_s": pd.Series([], dtype=np.int64),
                }
            )
        df, is_start, _ = _user_starts(df)
        ts = (
            df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        )
        codes = np.cumsum(is_start) - 1
        k = int(codes[-1]) + 1
        d = np.diff(ts)
        same = ~is_start[1:]
        gaps = d[same]
        gcodes = codes[1:][same]
        n_gaps = np.bincount(gcodes, minlength=k).astype(np.int64)
        s = np.zeros(k, np.int64)
        np.add.at(s, gcodes, gaps)
        gs = gaps // 1_000_000
        s2 = np.zeros(k, np.int64)
        np.add.at(s2, gcodes, gs * gs)
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy()[is_start],
                "n_gaps": n_gaps,
                "sum_us": s,
                "sumsq_s": s2,
            }
        )

    return coarse_groupby(events_ds, "user_id", fn, num_groups, "pandas")


def session_stats(events_ds, gap_minutes: int = 30, num_groups: int = 256):
    """Per-user session rollup over the gap-based sessions of
    ``sessionize`` (same 30-min break rule, same (ts, event_id) order):
    session count, total events, and the largest session's event count —
    the engagement summary a sessionized events table exists to feed.

    Scale shape: sessionize's ONE coarse user-hash exchange, but the
    rollup happens INSIDE the kernel (reduceat over session-run lengths
    at user boundaries), so the operator emits one row per user with no
    second aggregate.  Output: (user_id, n_sessions, n_events,
    max_session_events), all int64.
    """
    gap_us = gap_minutes * 60_000_000

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df, is_start, _ = _user_starts(df)
        ts = df["ts"].to_numpy(dtype="datetime64[us]").astype(np.int64)
        sess_start = (
            np.concatenate(([False], np.diff(ts) > gap_us)) & ~is_start
        ) | is_start
        sidx = np.flatnonzero(sess_start)
        slen = np.diff(np.append(sidx, len(df)))
        first_sess_of_user = is_start[sidx]
        upos = np.flatnonzero(first_sess_of_user)
        return pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy()[sidx[upos]],
                "n_sessions": np.diff(
                    np.append(upos, len(sidx))
                ).astype(np.int64),
                "n_events": np.add.reduceat(slen, upos).astype(np.int64),
                "max_session_events": np.maximum.reduceat(slen, upos).astype(
                    np.int64
                ),
            }
        )

    return coarse_groupby(
        events_ds.select_columns(["event_id", "user_id", "ts"]),
        "user_id",
        fn,
        num_groups,
        "pandas",
    )


def hopping_counts(
    events_ds,
    window_us: int = 3_600_000_000,
    hop_us: int = 1_800_000_000,
):
    """Hopping-window aggregate — the OVERLAPPING streaming-window
    primitive (hourly_agg is the tumbling special case window == hop):
    every event lands in ``window_us // hop_us`` windows, so window w
    covers [w, w + window_us).  ``window_us`` must be a multiple of
    ``hop_us``.  Output (w_start epoch-µs int64, n, sum_cents).

    Scale shape: stateless per-batch replication (k rows per event,
    k = window/hop — bounded fan-out, typically 2-4) folded IMMEDIATELY
    into per-batch (window) partials, so the one exchange carries one
    row per distinct window per batch, never per event."""
    from ray.data.aggregate import Sum

    if window_us % hop_us:
        raise ValueError("window_us must be a multiple of hop_us")
    k = window_us // hop_us

    def partial(t: pa.Table) -> pa.Table:
        us = (
            t.column("ts")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .combine_chunks()
            .to_numpy(zero_copy_only=False)
        )
        cents = np.floor(
            t.column("value").to_numpy(zero_copy_only=False) * 100.0 + 0.5
        ).astype(np.int64)
        # numpy floor-division (SQL // parity for negative epochs)
        w0 = (us // hop_us) * hop_us
        ws = np.concatenate([w0 - i * hop_us for i in range(k)])
        cc = np.tile(cents, k)
        uw, inv = np.unique(ws, return_inverse=True)
        n = np.bincount(inv).astype(np.int64)
        s = np.zeros(len(uw), np.int64)
        np.add.at(s, inv, cc)
        return pa.table(
            {
                "w_start": pa.array(uw, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "sum_cents": pa.array(s, pa.int64()),
            }
        )

    return (
        events_ds.select_columns(["ts", "value"])
        .map_batches(partial, batch_format="pyarrow")
        .groupby("w_start")
        .aggregate(Sum("n", alias_name="n"), Sum("sum_cents", alias_name="sum_cents"))
    )


def user_spans(events_ds):
    """Per-user activity span (first event, last event, inclusive epoch
    µs) — one bounded user-key aggregate over per-batch min/max partials
    (users cross the exchange, never events).  Output (user_id, a, b)."""
    from ray.data.aggregate import Max, Min

    def span_partial(t: pa.Table) -> pa.Table:
        ts = (
            pc.cast(pc.cast(t.column("ts"), pa.timestamp("us")), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        uid = t.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        uniq, inv = np.unique(uid, return_inverse=True)
        pmin = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        pmax = np.full(len(uniq), np.iinfo(np.int64).min, np.int64)
        np.minimum.at(pmin, inv, ts)
        np.maximum.at(pmax, inv, ts)
        return pa.table(
            {
                "user_id": pa.array(uniq, pa.int64()),
                "pmin": pa.array(pmin, pa.int64()),
                "pmax": pa.array(pmax, pa.int64()),
            }
        )

    return (
        events_ds.select_columns(["user_id", "ts"])
        .map_batches(span_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("pmin", alias_name="a"), Max("pmax", alias_name="b"))
    )


def span_overlap_counts(events_ds, broadcast_max_spans: int = 50_000_000):
    """For every user, how many OTHER users' activity spans overlap theirs
    ([a,b] inclusive interval intersection) — the co-activity cardinality,
    the interval×interval join done WITHOUT pair explosion: overlap(u) =
    n − |{v: b_v < a_u}| − |{v: a_v > b_u}| − 1 (self), so two sorted
    boundary arrays answer every user with two searchsorted calls.

    Scale shape: spans are a USER-bounded table (never events); the two
    sorted int64 boundary arrays broadcast once via ``ray.put`` (16 B per
    user — the guard raises above ``broadcast_max_spans`` naming the
    range-partitioned rank-join alternative) and the spans stream through
    a stateless map.  No shuffle beyond the span aggregate, no O(n²)
    anywhere.  Output (user_id, n_overlap:int64)."""
    import ray

    spans = user_spans(events_ds).materialize()
    n = spans.count()
    if n > broadcast_max_spans:
        raise ValueError(
            f"{n} spans > broadcast_max_spans={broadcast_max_spans}; use a "
            "range-partitioned rank join (sort boundaries, per-block "
            "offsets) instead of the broadcast"
        )
    bounds = spans.select_columns(["a", "b"]).to_pandas()
    ref = ray.put(
        (
            np.sort(bounds["a"].to_numpy(np.int64)),
            np.sort(bounds["b"].to_numpy(np.int64)),
        )
    )

    def count_overlaps(t: pa.Table) -> pa.Table:
        a_sorted, b_sorted = ray.get(ref)
        total = len(a_sorted)
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        ended_before = np.searchsorted(b_sorted, a, side="left")
        starts_after = total - np.searchsorted(a_sorted, b, side="right")
        return pa.table(
            {
                "user_id": t.column("user_id"),
                "n_overlap": pa.array(
                    total - ended_before - starts_after - 1, pa.int64()
                ),
            }
        )

    return spans.map_batches(count_overlaps, batch_format="pyarrow")


def concurrent_users(events_ds):
    """Sweep-line concurrency — ``n_open`` active users at every boundary
    timestamp, where a user is "active" over their [first event, last
    event] span (inclusive, epoch µs).  The classic interval-concurrency
    metric (peak simultaneous sessions / connections), computed without
    ever materializing intervals against each other: each span becomes a
    +1 delta at its start and a -1 at end+1µs, and the answer is the
    global running sum of deltas in time order.

    Scale shape: (1) per-batch partial min/max per user -> ONE bounded
    user-key aggregate (users, never events, cross the exchange); (2)
    boundary deltas pre-summed per batch -> ONE tiny t-key aggregate
    (rows ∝ distinct boundaries); (3) the range-partitioned prefix-sum
    (``global_running_sum``: driver state ∝ blocks, two scans, no
    single-partition funnel).  Output (t_us:int64, n_open:int64).
    """
    from ray.data.aggregate import Sum

    spans = user_spans(events_ds)

    def deltas(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = np.concatenate([a, b + 1])
        d = np.concatenate(
            [np.ones(len(a), np.int64), -np.ones(len(b), np.int64)]
        )
        uniq, inv = np.unique(ts, return_inverse=True)
        dd = np.zeros(len(uniq), np.int64)
        np.add.at(dd, inv, d)
        return pa.table(
            {
                "t_us": pa.array(uniq, pa.int64()),
                "pd": pa.array(dd, pa.int64()),
            }
        )

    agg = (
        spans.map_batches(deltas, batch_format="pyarrow")
        .groupby("t_us")
        .aggregate(Sum("pd", alias_name="dd"))
    )
    out = global_running_sum(agg, order_col="t_us", tie_col="t_us", value_col="dd")

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["t_us", "n_open"])

    return out.map_batches(rename, batch_format="pyarrow")
