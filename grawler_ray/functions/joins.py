"""Temporal join operators the Dataset API lacks: per-key as-of join and
non-equi interval ("range") join.

The reference engine has neither (it is a crawler); the brief names both as
custom operators a large-scale pipeline needs.  Both are expressed
Ray-Data-first with ONE partitioning assumption each, documented inline:

- ``asof_join``: both sides are tagged, shuffled ONCE on a coarse
  user-hash, and matched inside each group with a vectorized
  run-scan (sort + ``np.maximum.accumulate`` forward-fill) — no per-user
  pandas groups, no driver materialization.  Assumption: one key's rows fit
  one group (keys are users; same assumption as events.py windows).
- ``range_join_count``: intervals are replicated to every fixed-width time
  bucket they overlap (≤ ceil(len/W)+1 replicas, ~2 for len ≤ W), points
  are hashed to their single bucket, and the in-bucket match is two
  ``np.searchsorted`` calls against the bucket's sorted point timestamps.
  This is the bucketed large×large band-join pattern: no all-pairs, read
  and shuffle ∝ input + matches.  Assumption: interval length is bounded
  (replication factor = len/W); unbounded intervals would need a
  segment-tree layout instead.

Every aggregate is integer-scaled (cents) so the DuckDB oracle
(``ASOF LEFT JOIN`` / inequality LEFT JOIN in ``__ray_entry__.oracle_sql``)
compares bit-exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import LEG, arrow_schema, coarse_cogroup, coarse_groupby

US_PER_MINUTE = 60_000_000


def _cents(col) -> np.ndarray:
    v = col.to_numpy(zero_copy_only=False) if hasattr(col, "to_numpy") else np.asarray(col)
    return np.floor(v * 100.0 + 0.5).astype(np.int64)


def _epoch_us(tab: pa.Table, col: str = "ts") -> np.ndarray:
    # normalize the unit BEFORE the int cast (parquet carries us,
    # from_items/pandas carries ns)
    return (
        tab.column(col)
        .cast(pa.timestamp("us"))
        .cast(pa.int64())
        .combine_chunks()
        .to_numpy(zero_copy_only=False)
    )


def asof_join(
    events_ds,
    left_type: str = "click",
    right_type: str = "purchase",
    num_groups: int = 256,
):
    """For each left-side event, attach the most recent right-side event of
    the same user at-or-before its timestamp (LEFT semantics: unmatched
    left rows keep nulls).

    Tie rules (mirrored exactly by the SQL oracle): at the greatest
    eligible right timestamp the max ``event_id`` wins — the oracle dedups
    the right side to max event_id per (user, ts) before its ``ASOF LEFT
    JOIN``; here the (user, ts, side, event_id) sort order makes the
    forward-fill pick that same row.  A right event at exactly the left
    event's ts DOES match (at-or-before is inclusive).

    Output: (event_id, user_id, matched_event_id, matched_cents) with
    int64-nullable match columns.
    """

    def sides(t: pa.Table) -> pa.Table:
        et = t.column("event_type")
        keep = pc.or_(pc.equal(et, left_type), pc.equal(et, right_type))
        t = t.filter(keep)
        side = pc.cast(pc.equal(t.column("event_type"), left_type), pa.int8())
        return pa.table(
            {
                "event_id": t.column("event_id"),
                "user_id": t.column("user_id"),
                "ts_us": pa.array(_epoch_us(t), pa.int64()),
                "cents": pa.array(_cents(t.column("value")), pa.int64()),
                "side": side,  # 0 = right, 1 = left (right sorts first at equal ts)
            }
        )

    def match(t: pa.Table) -> pa.Table:
        # pyarrow out: the nullable match columns are Arrow int64-with-nulls
        # (NOT pandas Int64 — pandas-native nullable blocks reach the driver
        # as `<NA>` where the oracle has NaN and fail its value hash even
        # when every value matches)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        users = t.column("user_id").to_numpy(zero_copy_only=False)
        ts = t.column("ts_us").to_numpy(zero_copy_only=False)
        side = t.column("side").to_numpy(zero_copy_only=False)
        cents = t.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, side, ts, users))
        eid, users, side, cents = eid[order], users[order], side[order], cents[order]
        n = len(eid)
        is_start = np.concatenate(([True], np.diff(users) != 0))
        start_idx = np.maximum.accumulate(np.where(is_start, np.arange(n), 0))
        # forward-fill the index of the latest right row seen so far; a fill
        # from before this user's run start is invalid (different user)
        marker = np.where(side == 0, np.arange(n), -1)
        last_right = np.maximum.accumulate(marker)
        valid = last_right >= start_idx
        left = side == 1
        m_idx = last_right[left]
        m_ok = valid[left]
        matched_id = np.where(m_ok, eid[np.maximum(m_idx, 0)], 0)
        matched_cents = np.where(m_ok, cents[np.maximum(m_idx, 0)], 0)
        return pa.table(
            {
                "event_id": pa.array(eid[left], pa.int64()),
                "user_id": pa.array(users[left], pa.int64()),
                "matched_event_id": pa.array(matched_id, pa.int64(), mask=~m_ok),
                "matched_cents": pa.array(matched_cents, pa.int64(), mask=~m_ok),
            }
        )

    return coarse_groupby(
        events_ds.map_batches(sides, batch_format="pyarrow"), "user_id", match, num_groups
    )


def range_join_count(
    events_ds,
    every: int = 100,
    window_minutes: int = 30,
    num_groups: int = 256,
):
    """Non-equi interval×point join: every ``every``-th event (by id) spawns
    the interval [ts, ts + window); for each interval, count and cents-sum
    ALL events (any user — there is deliberately no equality key) whose ts
    falls inside it.  Intervals with zero events still appear (LEFT
    semantics, count 0 / sum 0).

    Shape: points are hashed to their single ``ts // W`` bucket; intervals
    are replicated to each bucket they overlap and clipped to it; buckets
    are shuffled on a coarse bucket-hash and matched with two searchsorted
    calls per replica against the group's globally sorted point array (a
    point inside a replica's clipped span necessarily belongs to that
    replica's bucket, so cross-bucket points in the same coarse group can
    never pollute the count); per-replica partials then groupby-sum on
    interval_id.  Cost ∝ points + interval replicas + matches.
    """
    from ray.data.aggregate import Sum

    w_us = window_minutes * US_PER_MINUTE

    def tag(t: pa.Table) -> pa.Table:
        ts = _epoch_us(t)
        eid = t.column("event_id").to_numpy(zero_copy_only=False)
        cents = _cents(t.column("value"))
        bucket = ts // w_us
        rows = {
            "bucket": [bucket],
            "interval_id": [np.full(len(ts), -1, np.int64)],
            "lo": [ts],  # for points: the point ts rides in lo
            "hi": [np.zeros(len(ts), np.int64)],
            "cents": [cents],
            "is_interval": [np.zeros(len(ts), np.int8)],
        }
        iv = eid % every == 0
        if iv.any():
            s, e = ts[iv], ts[iv] + w_us
            ivid = eid[iv]
            b0, b1 = s // w_us, (e - 1) // w_us
            for shift in range(int((b1 - b0).max()) + 1):
                b = b0 + shift
                live = b <= b1
                rows["bucket"].append(b[live])
                rows["interval_id"].append(ivid[live])
                rows["lo"].append(np.maximum(s[live], b[live] * w_us))
                rows["hi"].append(np.minimum(e[live], (b[live] + 1) * w_us))
                rows["cents"].append(np.zeros(live.sum(), np.int64))
                rows["is_interval"].append(np.ones(live.sum(), np.int8))
        return pa.table(
            {
                "bucket": pa.array(np.concatenate(rows["bucket"]), pa.int64()),
                "interval_id": pa.array(np.concatenate(rows["interval_id"]), pa.int64()),
                "lo": pa.array(np.concatenate(rows["lo"]), pa.int64()),
                "hi": pa.array(np.concatenate(rows["hi"]), pa.int64()),
                "cents": pa.array(np.concatenate(rows["cents"]), pa.int64()),
                "is_interval": pa.array(np.concatenate(rows["is_interval"]), pa.int8()),
            }
        )

    def bucket_match(df: pd.DataFrame) -> pd.DataFrame:
        isiv = df["is_interval"].to_numpy() == 1
        pts = np.sort(df.loc[~isiv, "lo"].to_numpy())
        order = np.argsort(df.loc[~isiv, "lo"].to_numpy(), kind="stable")
        pcents = df.loc[~isiv, "cents"].to_numpy()[order]
        csum = np.concatenate(([0], np.cumsum(pcents)))
        lo = df.loc[isiv, "lo"].to_numpy()
        hi = df.loc[isiv, "hi"].to_numpy()
        a = np.searchsorted(pts, lo, side="left")
        b = np.searchsorted(pts, hi, side="left")
        return pd.DataFrame(
            {
                "interval_id": df.loc[isiv, "interval_id"].to_numpy(),
                "n_part": (b - a).astype(np.int64),
                "cents_part": csum[b] - csum[a],
            }
        )

    partials = coarse_groupby(
        events_ds.map_batches(tag, batch_format="pyarrow"),
        "bucket", bucket_match, num_groups, batch_format="pandas",
    ).map_batches(
        # arrow blocks: pandas-block sort-aggregates are a Ray 2.49 slow
        # path (user_retention measurement, round 4)
        lambda t: t, batch_format="pyarrow"
    )
    out = partials.groupby("interval_id").aggregate(
        Sum("n_part", alias_name="n_events"), Sum("cents_part", alias_name="sum_cents")
    )

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "interval_id": t.column("interval_id"),
                "n_events": pc.cast(t.column("n_events"), pa.int64()),
                "sum_cents": pc.cast(t.column("sum_cents"), pa.int64()),
            }
        )

    return out.map_batches(norm, batch_format="pyarrow")


def hash_anti_join(left_ds, right_ds, on_left: str, on_right: str, num_groups: int = 64):
    """Distributed anti-join (``left WHERE key NOT IN right``) for two
    LARGE sides — when the right side is small the broadcast-membership
    pattern (decontaminate's guarded ``ray.put`` set) is cheaper; this is
    the shuffle path for when it is not.  See :func:`hash_semi_join` for
    the IN-list complement (same machinery, inverted filter).

    Ray 2.49's native ``Dataset.join`` is avoided for the documented Acero
    defects (empty hash partitions, list-column payloads, chained-join
    deadlocks — see CLAUDE.md); this is the same coarse-key-hash
    ``coarse_cogroup`` "repartition join" the dedup/graph operators use
    (the right side ships ONLY its distinct key column, null-padded to the
    left schema), ONE shuffle on hash(key) % num_groups, and the in-group
    anti filter is a vectorized ``np.isin``.  Left payload columns move
    through the shuffle exactly once; output is the left schema.

    Assumption (documented per the brief): join keys are int64 or string.
    """
    return _membership_join(left_ds, right_ds, on_left, on_right,
                            num_groups, semi=False)


def hash_semi_join(left_ds, right_ds, on_left: str, on_right: str, num_groups: int = 64):
    """Distributed semi-join (``left WHERE key IN right``, left rows kept
    at most once regardless of right-side multiplicity) for two LARGE
    sides — the membership complement of :func:`hash_anti_join`, sharing
    its machinery verbatim: right ships only deduplicated 8-byte keys,
    ONE coarse-hash shuffle, vectorized in-group ``np.isin``.  Unlike an
    inner ``repartition_join`` this never replicates left rows and never
    moves right payloads, so it is the scale shape for EXISTS / IN-subquery
    filters (e.g. "docs whose url appears in a blocklist snapshot").
    """
    return _membership_join(left_ds, right_ds, on_left, on_right,
                            num_groups, semi=True)


def _membership_join(left_ds, right_ds, on_left: str, on_right: str,
                     num_groups: int, semi: bool):
    def right_keys(t: pa.Table) -> pa.Table:
        # right ships only its distinct keys, under the left key's name
        keys = np.unique(t.column(on_right).to_numpy(zero_copy_only=False))
        return pa.table({on_left: pa.array(keys)})

    def membership(t: pa.Table) -> pa.Table:
        # leg 0: left rows, leg 1: right keys
        leg = t.column(LEG).to_numpy()
        keys = t.column(on_left).to_numpy(zero_copy_only=False)
        keep = (leg == 0) & (np.isin(keys, keys[leg == 1]) == semi)
        return t.filter(pa.array(keep)).drop_columns([LEG])

    right = right_ds.map_batches(right_keys, batch_format="pyarrow")
    return coarse_cogroup([left_ds, right], on_left, membership, num_groups)


def repartition_join(left_ds, right_ds, on_left, on_right,
                     num_groups: int = 64, how: str = "inner"):
    """Distributed inner/left/outer equi-join for two LARGE sides — the
    general-join companion to ``hash_anti_join``: one
    ``shuffle.coarse_cogroup`` of the two sides on the join key (same
    Acero-avoidance rationale, see CLAUDE.md), and each coarse group
    matches its two legs with ``pandas.merge`` (C hash join) — never
    per-key Python groups.  Output columns: left columns + right payload
    columns (the right key columns are dropped; names must not collide).
    Full inner-join semantics (duplicate keys on either side multiply).
    Join keys are int64 or string (URL-keyed joins).

    ``how="left"`` keeps unmatched left rows with NULL right payloads —
    every left row lands in exactly one coarse group, so it appears
    exactly once; the null padding goes out as ARROW int64-with-nulls
    (lands as float64/NaN after to_pandas, the driver's null repr rule in
    CLAUDE.md — never pandas-nullable Int64).  ``how="outer"`` additionally
    keeps unmatched RIGHT rows with NULL left payloads (the key column is
    coalesced from whichever side is present).

    Composite keys: ``on_left`` / ``on_right`` may be equal-length LISTS
    of column names — the rows are partitioned on the first key column and
    the in-group merge matches on the whole tuple.  Output key columns
    carry the LEFT names and types.  A hot key's matches must fit one group.
    """
    lkeys = [on_left] if isinstance(on_left, str) else list(on_left)
    rkeys = [on_right] if isinstance(on_right, str) else list(on_right)
    assert lkeys and len(lkeys) == len(rkeys), (lkeys, rkeys)
    assert how in ("inner", "left", "outer"), how

    lsch = arrow_schema(left_ds.schema())
    for k in lkeys:
        assert k in lsch.names, k
    renames = {rk: lk for lk, rk in zip(lkeys, rkeys) if rk != lk}
    if renames:
        # right key columns travel under the LEFT names and types
        key_types = {lk: lsch.field(lk).type for lk in renames.values()}

        def rename(t: pa.Table) -> pa.Table:
            names = [renames.get(n, n) for n in t.column_names]
            cols = [c.cast(key_types[n]) if n in key_types else c
                    for n, c in zip(names, t.columns)]
            return pa.Table.from_arrays(cols, names=names)

        right_ds = right_ds.map_batches(rename, batch_format="pyarrow")
    # coarse_cogroup reads the same schemas again from Ray's cache: the
    # right leg's plan runs once for its schema, not once per probe
    rsch = arrow_schema(right_ds.schema())
    lcols = list(lsch.names)
    rpay = [n for n in rsch.names if n not in lkeys]
    assert not set(rpay) & set(lcols), "column name collision"
    out_schema = pa.schema(
        [lsch.field(n) for n in lcols] + [rsch.field(n) for n in rpay]
    )

    def join_group(t: pa.Table) -> pa.Table:
        # nullable Int64, NOT numpy int64: the null-padded legs would
        # otherwise coerce int columns to float64 and corrupt int64 values
        # above 2^53 (observed on xxhash64-derived ids)
        df = t.to_pandas(
            types_mapper=lambda typ: pd.Int64Dtype() if typ == pa.int64() else None
        )
        leg = df.pop(LEG).to_numpy()
        out = df.loc[leg == 0, lcols].merge(
            df.loc[leg == 1, lkeys + rpay], on=lkeys, how=how, sort=False
        )
        # strip the pandas-dtype metadata from_pandas attaches, or the
        # nullable Int64 frame dtypes leak into downstream to_pandas calls
        return pa.Table.from_pandas(
            out[out_schema.names], schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return coarse_cogroup([left_ds, right_ds], lkeys[0], join_group, num_groups)
