"""Deterministic sampling operators (§2.6 — the reference has none; a
training-data pipeline needs reproducible subsets).

Sampling is keyed on an arithmetic Knuth-style hash of the row id —
deterministic across runs/partitionings AND expressible in ANSI SQL, so the
driver's DuckDB gate can verify the exact row set (`random()`-based samples
could only ever be rows-only checked).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import coarse_groupby

_KNUTH = 2654435761  # 2^32 / golden ratio
_MOD = 1 << 32


def _bucket1000(ids: np.ndarray) -> np.ndarray:
    # non-negative ids only: numpy would wrap a negative int64 mod 2^64 while
    # the SQL mirror keeps its sign — fail loudly instead of silently
    # diverging from the oracle (ADVICE r2)
    if len(ids) and int(ids.min()) < 0:
        raise ValueError("sampling id column must be non-negative")
    return ((ids.astype(np.uint64) * _KNUTH) % _MOD) % 1000


def sample_fraction(ds, id_col: str = "doc_id", permille: int = 100):
    """Keep rows whose hash bucket (0-999) falls below ``permille`` — a
    deterministic ~permille/1000 sample.  SQL mirror (HUGEINT: BIGINT
    id * 2654435761 overflows int64 for id >= ~3.47e9, and
    ((x mod 2^128) mod 2^32) == (x mod 2^32) == numpy's uint64-wrap result
    for any non-negative int64 id):
    ((id::HUGEINT * 2654435761) % 4294967296) % 1000 < permille."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        keep = _bucket1000(ids) < permille
        return t.filter(pa.array(keep))

    return ds.map_batches(fn, batch_format="pyarrow")


def stratified_sample(ds, strata_col: str = "lang", id_col: str = "doc_id", permille: dict | int = 100):
    """Per-stratum deterministic sampling: ``permille`` is either one rate
    or a {stratum: rate} dict (missing strata keep nothing).  Stateless —
    no shuffle, no per-stratum pass; the stratum only selects the rate."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        b = _bucket1000(ids)
        if isinstance(permille, int):
            rates = np.full(len(ids), permille, dtype=np.int64)
        else:
            strata = t.column(strata_col).to_pylist()
            rates = np.fromiter(
                (permille.get(s, 0) for s in strata), dtype=np.int64, count=len(strata)
            )
        return t.filter(pa.array(b < rates))

    return ds.map_batches(fn, batch_format="pyarrow")


def _window_groupby(ds, group_col, id_col, value_col, fn, num_groups):
    """The value-ordered window ops' exchange: (group, id, value as int64)
    rows, coarse-grouped by the group key."""

    def prep(t: pa.Table) -> pa.Table:
        return t.set_column(2, value_col, t.column(value_col).cast(pa.int64()))

    return coarse_groupby(
        ds.select_columns([group_col, id_col, value_col]).map_batches(
            prep, batch_format="pyarrow"
        ),
        group_col,
        fn,
        num_groups,
    )


def cap_per_group(
    ds,
    group_col: str = "source",
    order_col: str = "doc_id",
    cap: int = 50,
    num_groups: int = 256,
):
    """C4-style domain balancing: keep at most ``cap`` rows per group,
    ranked by ``order_col`` ascending (deterministic, so the SQL mirror is
    ``row_number() OVER (PARTITION BY group ORDER BY order) <= cap``).
    Output (order_col, group_col, rank:int64 1-based).

    Scale shape: groups are string domains (10^6-10^8 of them at corpus
    scale), so the shuffle key is a COARSE hash of the group (~num_groups
    vectorized kernels), never one pandas group per domain — the
    ``shuffle.coarse_groupby`` exchange.  Inside a coarse group: one sort
    by (group, order) + a run-rebased cumcount."""

    def rank_groups(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas().sort_values([group_col, order_col])
        codes = pd.factorize(df[group_col].to_numpy())[0]
        idx = np.arange(len(df))
        is_start = np.concatenate(([True], np.diff(codes) != 0)) if len(df) else np.array([], bool)
        start_idx = np.maximum.accumulate(np.where(is_start, idx, 0)) if len(df) else idx
        rank = idx - start_idx + 1
        keep = rank <= cap
        return pa.table(
            {
                order_col: pa.array(df[order_col].to_numpy()[keep]),
                group_col: pa.array(df[group_col].to_numpy()[keep].tolist(), pa.string()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    return coarse_groupby(
        ds.select_columns([order_col, group_col]), group_col, rank_groups, num_groups
    )


def split_train_holdout(ds, id_col: str = "doc_id", holdout_permille: int = 100):
    """Deterministic train/holdout tagging (single pass, no shuffle):
    adds ``split`` = 'holdout' for the hash bucket below the rate, else
    'train' — the standard leak-free dataset split at corpus scale."""

    def fn(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        hold = _bucket1000(ids) < holdout_permille
        split = pc.if_else(
            pa.array(hold), pa.scalar("holdout"), pa.scalar("train")
        )
        return t.append_column("split", split)

    return ds.map_batches(fn, batch_format="pyarrow")


def mixture_sample(
    ds,
    target_permille: dict[str, int],
    budget_rows: int,
    source_col: str = "source",
    id_col: str = "doc_id",
):
    """Domain-mixture resampling (the DoReMi / The-Pile recipe step:
    reweight a crawled corpus toward target per-source shares before
    training).  ``target_permille[s]`` is source s's share of the OUTPUT
    (per-mille, summing to <= 1000); the sample approximates
    ``budget_rows`` total rows in those proportions, bounded by what each
    source actually has.  All-integer keep rule so the DuckDB oracle
    compares exactly:

        rate_s (per-mille) = min(1000, budget_rows * w_s // n_s)
        keep row  <=>  knuth_bucket1000(id) < rate_s

    Shape at 100 TB: rows outside the target mixture are filtered BEFORE
    the counting aggregate, so the groupby key cardinality is
    ``len(target_permille)`` (mixture specs are tens of buckets, never the
    raw domain space — use cap_per_group for that); the counts table is a
    len(target)-row driver pull, and the final pass is the stateless
    stratified filter — one tiny exchange, the payload never shuffles.
    """
    from ray.data.aggregate import Sum

    sources = sorted(target_permille)

    def in_target(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column(source_col), value_set=pa.array(sources)))

    picked = ds.map_batches(in_target, batch_format="pyarrow")

    def count_partial(t: pa.Table) -> pa.Table:
        # one row per (source) per batch: the aggregate moves blocks x
        # len(target) rows, not corpus rows
        vc = t.column(source_col).value_counts()
        return pa.table(
            {
                source_col: vc.field("values"),
                "partial": vc.field("counts").cast(pa.int64()),
            }
        )

    counts = (
        picked.select_columns([source_col])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby(source_col)
        .aggregate(Sum("partial", alias_name="n"))
        .take_all()  # len(target_permille) rows by construction
    )
    rates = {
        r[source_col]: min(1000, budget_rows * target_permille[r[source_col]] // r["n"])
        for r in counts
        if r["n"]
    }
    return stratified_sample(
        picked, strata_col=source_col, id_col=id_col, permille=rates
    )


def group_topk(
    ds,
    group_col: str,
    id_col: str,
    value_col: str,
    k: int = 3,
    num_groups: int = 256,
):
    """Value-ordered per-group top-k (the ranking window): keep each
    group's ``k`` highest-``value_col`` rows, ties broken by ``id_col``
    ascending.  SQL mirror: ``row_number() OVER (PARTITION BY group ORDER
    BY value DESC, id) <= k``.

    ``value_col`` must be int64 (callers pre-scale money to cents — float
    ordering ties would diverge from the oracle).  Group keys are int64 or
    string.  Output (group_col, id_col, value_col, rank 1-based).

    Scale shape: same as cap_per_group / group_sample_k — ONE coarse
    group-hash shuffle of three int columns (payload never moves),
    vectorized sort + run-rebased rank inside ~num_groups kernels, never
    one pandas group per key.  A single group's rows must fit one coarse
    partition (keys are customers/domains; the events.py assumption).
    """
    import pandas as pd

    def rank_groups(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            [group_col, value_col, id_col], ascending=[True, False, True]
        )
        codes = pd.factorize(df[group_col].to_numpy())[0]
        idx = np.arange(len(df))
        is_start = np.concatenate(([True], np.diff(codes) != 0))
        start_idx = np.maximum.accumulate(np.where(is_start, idx, 0))
        rank = idx - start_idx + 1
        keep = rank <= k
        gout = df[group_col].to_numpy()[keep]
        return pa.table(
            {
                group_col: pa.array(gout)
                if gout.dtype.kind == "i"
                else pa.array(gout.tolist(), pa.string()),
                id_col: pa.array(df[id_col].to_numpy()[keep], pa.int64()),
                value_col: pa.array(df[value_col].to_numpy()[keep], pa.int64()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    return _window_groupby(ds, group_col, id_col, value_col, rank_groups, num_groups)


def group_ntile(
    ds,
    group_col: str,
    id_col: str,
    value_col: str,
    n_tiles: int = 3,
    num_groups: int = 64,
):
    """True NTILE window per group: assign each row its ``NTILE(n_tiles)
    OVER (PARTITION BY group ORDER BY value DESC, id)`` bucket — the
    CCNet head/middle/tail split (Wenzek et al. 2020 partition a corpus
    into per-language quality terciles before sampling; the score column
    here is whatever per-doc quality integer the caller computed).

    NTILE is NOT the equal-width rank formula ``(rn-1)*n // cnt``: SQL
    gives the FIRST ``cnt % n`` buckets the extra rows (cnt=10, n=4 →
    sizes 3,3,2,2, not 3,2,3,2), so the kernel computes q = cnt // n,
    r = cnt % n and splits at the r*(q+1) boundary exactly.

    Scale shape: same as group_topk — ONE coarse group-hash shuffle of
    (group, id, value), vectorized sort + run-scan inside ~num_groups
    kernels.  A group's rows must fit one coarse partition (groups are
    languages/domains — low cardinality by nature here; NTILE over a
    single global partition would instead use docs_by_length's
    range-partitioned sort + per-partition offsets).

    Output: (group_col, id_col, value_col, tile 1-based), string or int64
    group keys.
    """
    import pandas as pd

    def tile_groups(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            [group_col, value_col, id_col], ascending=[True, False, True]
        )
        codes = pd.factorize(df[group_col].to_numpy())[0]
        idx = np.arange(len(df))
        is_start = np.concatenate(([True], np.diff(codes) != 0))
        start_idx = np.maximum.accumulate(np.where(is_start, idx, 0))
        starts = idx[is_start]
        run_len = np.diff(np.append(starts, len(df)))
        cnt = np.repeat(run_len, run_len)
        rn0 = idx - start_idx
        q, r = cnt // n_tiles, cnt % n_tiles
        boundary = r * (q + 1)
        # rows past the boundary only exist when q >= 1 (else boundary=cnt)
        tile = np.where(
            rn0 < boundary,
            rn0 // np.maximum(q + 1, 1),
            r + (rn0 - boundary) // np.maximum(q, 1),
        ) + 1
        gout = df[group_col].to_numpy()
        return pa.table(
            {
                # explicit int64: every output block has one key type
                group_col: pa.array(gout.astype(np.int64), pa.int64())
                if gout.dtype.kind == "i"
                else pa.array(gout.tolist(), pa.string()),
                id_col: pa.array(df[id_col].to_numpy(), pa.int64()),
                value_col: pa.array(df[value_col].to_numpy(), pa.int64()),
                "tile": pa.array(tile, pa.int64()),
            }
        )

    return _window_groupby(ds, group_col, id_col, value_col, tile_groups, num_groups)


def weighted_sample_k(
    ds,
    id_col: str = "doc_id",
    weight_col: str = "n_chars",
    k: int = 50,
    weight_scale: int = 1,
):
    """Deterministic weighted k-sample without replacement — sequential
    Poisson sampling (Ohlsson 1998, "Sequential Poisson Sampling", public
    survey-sampling literature): each row gets priority

        key = u / w,   u = ((id · 2654435761) mod 2^32) + 1,
                       w = floor(weight · weight_scale + 0.5) > 0

    and the k SMALLEST keys win, so inclusion probability is ~∝ weight
    (the πps approximation).  Everything is SQL-mirrorable exactly: u and
    w are exact integers, and the one float op is a single IEEE double
    division, which is correctly rounded and therefore bit-identical in
    numpy and DuckDB (verified) — unlike ln/pow-based Efraimidis–Spirakis
    keys, which hit libm last-ulp divergence.  Ties (equal exact ratios
    across ids) break by id, both sides.

    SQL mirror:
        ORDER BY CAST(((id::HUGEINT*2654435761) % 4294967296) + 1
                      AS DOUBLE) / w, id  LIMIT k

    Scale shape: stateless per-batch partial top-k (each batch keeps its
    k best → ≤ k·blocks tiny rows), then one single-partition final
    selection — no corpus-wide sort, no shuffle of payload.  Output
    (id_col, w:int64) — w is the scaled weight the key used.
    """

    def keys_of(ids: np.ndarray, w: np.ndarray) -> np.ndarray:
        if len(ids) and int(ids.min()) < 0:
            raise ValueError("sampling id column must be non-negative")
        if len(w) and int(w.min()) <= 0:
            raise ValueError("weighted_sample_k: weights must be positive")
        u = ((ids.astype(np.uint64) * _KNUTH) % _MOD + 1).astype(np.float64)
        return u / w.astype(np.float64)

    def scaled_w(t: pa.Table) -> np.ndarray:
        v = t.column(weight_col).to_numpy(zero_copy_only=False).astype(np.float64)
        return np.floor(v * weight_scale + 0.5).astype(np.int64)

    def partial_topk(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        w = scaled_w(t)
        key = keys_of(ids, w)
        order = np.lexsort((ids, key))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "w": pa.array(w[order], pa.int64()),
            }
        )

    def final_topk(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        w = t.column("w").to_numpy(zero_copy_only=False)
        key = keys_of(ids.astype(np.int64), w.astype(np.int64))
        order = np.lexsort((ids, key))[:k]
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "w": pa.array(w[order], pa.int64()),
            }
        )

    return (
        ds.select_columns([id_col, weight_col])
        .map_batches(partial_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow")
    )


def shuffle_shards(ds, id_col: str = "doc_id", num_shards: int = 16):
    """Deterministic global shuffle-to-shards — the training-order
    assignment step: every row gets a shard id and a 0-based position
    inside that shard, both derived from the Knuth id-hash (odd
    multiplier: bijective mod 2^32, id tie-break above), so the
    "random" training order is reproducible across runs and input
    partitionings and exactly SQL-mirrorable (``random_shuffle()`` could
    only ever be rows-only checked).  Output (id_col, shard, pos) —
    a writer joins this tiny table back and writes one file per shard
    in pos order.

    SQL mirror (HUGEINT for the multiply, see sample_fraction):
      row_number() OVER (PARTITION BY hk % S ORDER BY hk, id) - 1.

    Scale shape: the payload NEVER moves — one exchange of (id, hkey,
    shard) int64 triples grouped by shard id (num_shards is bounded:
    shards are output files, 10^2-10^4 at 100 TB, so a shard's triples
    are ~24 B x rows/num_shards per group), one vectorized lexsort per
    group.  No corpus-wide sort, no driver materialization."""

    def tag(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and int(ids.min()) < 0:
            raise ValueError("shuffle id column must be non-negative")
        hk = (ids.astype(np.uint64) * _KNUTH) % _MOD
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                "hkey": pa.array(hk.astype(np.int64), pa.int64()),
                "shard": pa.array(
                    (hk % np.uint64(num_shards)).astype(np.int64), pa.int64()
                ),
            }
        )

    def rank_shard(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        hk = t.column("hkey").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, hk))
        return pa.table(
            {
                id_col: pa.array(ids[order], pa.int64()),
                "shard": pa.array(
                    np.full(len(ids), t.column("shard")[0].as_py(), np.int64),
                    pa.int64(),
                ),
                "pos": pa.array(np.arange(len(ids), dtype=np.int64), pa.int64()),
            }
        )

    return (
        ds.select_columns([id_col])
        .map_batches(tag, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(rank_shard, batch_format="pyarrow")
    )


def group_sample_k(
    ds,
    group_col: str = "source",
    id_col: str = "doc_id",
    k: int = 10,
    num_groups: int = 256,
):
    """Uniform per-group k-sample: keep the ``k`` rows of each group whose
    Knuth id-hash ranks lowest — cap_per_group's machinery with a HASH
    order instead of the id order, i.e. a deterministic uniform sample per
    group rather than "the first k".  The multiplier is odd, so id -> hash
    is a bijection mod 2^32 (no ties below 2^32 ids); the id itself is the
    tie-break above that.  SQL mirror: row_number() OVER (PARTITION BY
    group ORDER BY (id*2654435761) % 2^32, id) <= k.

    Output (id_col, group_col, rank 1-based).  Scale shape: same as
    cap_per_group — ONE coarse group-hash shuffle of (id, group, hkey),
    vectorized run-scan inside ~num_groups groups, never per-domain pandas
    groups.
    """
    import pandas as pd

    def prep(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and int(ids.min()) < 0:
            raise ValueError("sampling id column must be non-negative")
        hkey = (ids.astype(np.uint64) * _KNUTH) % _MOD
        return pa.table(
            {
                id_col: pa.array(ids, pa.int64()),
                group_col: t.column(group_col).cast(pa.string()),
                "hkey": pa.array(hkey.astype(np.int64), pa.int64()),
            }
        )

    def rank_groups(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values([group_col, "hkey", id_col])
        codes = pd.factorize(df[group_col].to_numpy())[0]
        idx = np.arange(len(df))
        is_start = np.concatenate(([True], np.diff(codes) != 0))
        start_idx = np.maximum.accumulate(np.where(is_start, idx, 0))
        rank = idx - start_idx + 1
        keep = rank <= k
        return pa.table(
            {
                id_col: pa.array(df[id_col].to_numpy()[keep], pa.int64()),
                group_col: pa.array(df[group_col].to_numpy()[keep].tolist(), pa.string()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    return coarse_groupby(
        ds.select_columns([id_col, group_col]).map_batches(prep, batch_format="pyarrow"),
        group_col,
        rank_groups,
        num_groups,
    )


def token_budget_cap(
    ds,
    group_col: str = "source",
    order_col: str = "doc_id",
    weight_col: str = "n_chars",
    budget: int = 10_000,
    num_groups: int = 256,
):
    """Per-group TOKEN budget (the unit mixtures are actually specified
    in): keep each group's rows, in ``order_col`` order, while the
    running ``weight_col`` sum (current row inclusive) stays <= budget —
    ``sum(w) OVER (PARTITION BY group ORDER BY order) <= budget``.
    cap_per_group counts ROWS; this weighs them.  A single row larger
    than the whole budget is dropped (strict <=, SQL-identical).
    Output (order_col, group_col, weight_col, cum:int64).

    Scale shape: cap_per_group's — ONE coarse group-hash shuffle of
    three int/string columns (payload never moves), one sort +
    run-rebased cumsum per ~num_groups vectorized kernels."""

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                order_col: t.column(order_col),
                group_col: t.column(group_col).cast(pa.string()),
                weight_col: t.column(weight_col).cast(pa.int64()),
            }
        )

    def cap_groups(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = t.to_pandas().sort_values([group_col, order_col])
        codes = pd.factorize(df[group_col].to_numpy())[0]
        w = df[weight_col].to_numpy(np.int64)
        idx = np.arange(len(df))
        is_start = np.concatenate(([True], np.diff(codes) != 0))
        start_idx = np.maximum.accumulate(np.where(is_start, idx, 0))
        csum = np.cumsum(w)
        base = np.where(start_idx > 0, csum[start_idx - 1], 0)
        cum = csum - base  # run-rebased inclusive running sum
        keep = cum <= budget
        return pa.table(
            {
                order_col: pa.array(df[order_col].to_numpy()[keep], pa.int64()),
                group_col: pa.array(
                    df[group_col].to_numpy()[keep].tolist(), pa.string()
                ),
                weight_col: pa.array(w[keep], pa.int64()),
                "cum": pa.array(cum[keep], pa.int64()),
            }
        )

    return coarse_groupby(
        ds.select_columns([order_col, group_col, weight_col]).map_batches(
            prep, batch_format="pyarrow"
        ),
        group_col,
        cap_groups,
        num_groups,
    )


def source_budget(ds, group_col: str = "source", budget: int = 1000):
    """Largest-remainder (Hamilton) budget apportionment: split an
    integer ``budget`` across groups proportionally to their row counts,
    with the leftover slots going to the largest remainders — the exact
    integer rule used for crawl fetch-slot allocation and mixture
    sampling quotas (Σ budget_i == budget always, no float rounding
    drift).  All arithmetic is integer (d·B // total, d·B % total), so
    the SQL mirror (windowed row_number over remainder DESC, group ASC)
    is bit-exact by construction.
    Output (group_col, n_rows:int64, budget:int64).

    Scale shape: one count-partial aggregate (rows ∝ groups × blocks)
    plus a driver pass over the group vocabulary — groups are sources /
    hosts (bounded), never documents; the apportionment itself is a
    global constrained allocation and genuinely needs the full quota
    vector in one place.
    """
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Sum

    def count_partial(t: pa.Table) -> pa.Table:
        codes, uniq = pd.factorize(
            np.asarray(t.column(group_col).to_pylist(), dtype=object)
        )
        cnt = np.bincount(codes)
        return pa.table(
            {
                group_col: pa.array(list(uniq), pa.string()),
                "pc": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    counts = (
        ds.select_columns([group_col])
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby(group_col)
        .aggregate(Sum("pc", alias_name="n_rows"))
        .to_pandas()
        .sort_values(group_col)
        .reset_index(drop=True)
    )
    d = counts["n_rows"].to_numpy(np.int64)
    total = int(d.sum())
    if total == 0:
        alloc = np.zeros(len(d), np.int64)
    else:
        base = d * budget // total
        rem = d * budget % total
        leftover = budget - int(base.sum())
        # leftover slots to the largest remainders, group name ascending
        # on ties (counts is already group-sorted, so stable argsort on
        # -rem preserves that order within equal remainders)
        order = np.argsort(-rem, kind="stable")
        extra = np.zeros(len(d), np.int64)
        extra[order[:leftover]] = 1
        alloc = base + extra
    return ray.data.from_arrow(
        pa.table(
            {
                group_col: pa.array(counts[group_col].tolist(), pa.string()),
                "n_rows": pa.array(d, pa.int64()),
                "budget": pa.array(alloc, pa.int64()),
            }
        )
    )


def grouped_percent_rank(
    ds,
    group_col: str,
    id_col: str,
    value_col: str,
    num_groups: int = 64,
):
    """SQL ``PERCENT_RANK() OVER (PARTITION BY group ORDER BY value)``:
    (rank − 1) / (n − 1) with RANK tie semantics (every row of a tie run
    gets the run's FIRST position), 0.0 for single-row partitions per the
    standard.  The one float is a single IEEE divide of two exact small
    ints — deterministic and bit-identical to the oracle's window
    (the weighted_sample single-divide precedent).

    Scale shape: group_ntile's — ONE coarse group-hash shuffle of
    (group, id, value int64), vectorized sort + run-scan inside
    ~num_groups kernels; a group's rows must fit one coarse partition
    (low-cardinality segment/language keys by nature here).
    Output: (group_col, id_col, value_col, pr float64).
    """
    import pandas as pd

    def rank_groups(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(
            [group_col, value_col, id_col], ascending=True
        )
        codes = pd.factorize(df[group_col].to_numpy())[0]
        vals = df[value_col].to_numpy(np.int64)
        idx = np.arange(len(df))
        is_gstart = np.concatenate(([True], np.diff(codes) != 0))
        is_tiestart = is_gstart | np.concatenate(([True], np.diff(vals) != 0))
        g_start = np.maximum.accumulate(np.where(is_gstart, idx, 0))
        tie_start = np.maximum.accumulate(np.where(is_tiestart, idx, 0))
        starts = idx[is_gstart]
        cnt = np.repeat(np.diff(np.append(starts, len(df))), np.diff(np.append(starts, len(df))))
        rank0 = (tie_start - g_start).astype(np.float64)
        pr = np.where(cnt > 1, rank0 / np.maximum(cnt - 1, 1), 0.0)
        return pa.table(
            {
                group_col: pa.array(df[group_col].to_numpy().tolist(), pa.string()),
                id_col: pa.array(df[id_col].to_numpy(), pa.int64()),
                value_col: pa.array(vals, pa.int64()),
                "pr": pa.array(pr, pa.float64()),
            }
        )

    return _window_groupby(ds, group_col, id_col, value_col, rank_groups, num_groups)
