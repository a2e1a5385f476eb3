"""Flagship webtext preparation pipeline: the end-to-end chain a user runs
to turn a raw documents table into training-ready shards.

    quality filter (Gopher repetition rules, quality.py)
      -> exact dedup (md5, keep min doc_id)
      -> MinHash+LSH near-dup pairs -> connected components -> keep min
      -> BPE-ish token counting
      -> deterministic train/holdout split (Knuth hash, sampling.py)
      -> optional partitioned parquet output (one dir per split)

Every stage is the already-SQL-or-fixture-proven operator it names; this
module only composes them, plus ONE repartition semi-join (a coarse
doc-hash ``shuffle.coarse_cogroup`` — Ray 2.49's native Dataset.join is
avoided for the documented Acero defects) to carry text past the
component keep-set.

Scale shape (round 4): the TEXT PAYLOAD never rides a shuffle in the
common low-dup-rate case — only ids and hashes do.  Both dedup stages
compute a DROP-ID list over narrow columns (exact: one (text_hash,
doc_id) coarse shuffle at ~50 B/row; near: minhash band shuffles over
signatures), then remove the drops from the materialized survivor set
with a broadcast ``ray.put`` filter (drops are the DUPLICATES — the
small side by construction).  Above ``driver_max_drop_ids`` the filter
falls back to a hashed repartition anti-join that moves the payload
once; the old shape (groupby carrying ``text``) sorted the whole corpus
payload and spilled 33 GB on a 4 GB input — never do that.  Stage
survivors are materialized in the object store because each feeds TWO
consumers (the next stage + the summary count); at the 100-TB target you
would write each stage boundary to partitioned parquet instead and make
the counts free — the ``out_dir``-per-stage hook below is where that
plugs in.

All-to-all exchanges per call.  Each is a Ray sort shuffle with about a
second of fixed cost on a 4-CPU host, so the common case keeps three:

  1. exact dedup: the coarse text_hash groupby over (text_hash, doc_id);
  2. near dedup, candidates: the LSH band ``gkey`` groupby;
  3. near dedup, verify: the pair-key ``pg`` groupby (the broadcast path
     of ``verify_pairs_join``: the pair list is already on the driver,
     so pairs are deduped and routed there).

Components (driver union-find), both drop filters and the split summary
(per-block counts added up on the driver) are maps.  Past a size guard a
path adds exchanges: more than ``driver_max_members / 2`` raw candidate
rows adds the ``(a, b)`` pair aggregate, and as many unique pairs also
the doc-hash ``dg`` join; more than ``driver_max_edges / 2`` verified
pairs run the distributed label propagation (several per iteration);
more than ``driver_max_drop_ids`` drops in a dedup stage add a ``dg``
anti-join.

Returns a summary Dataset (stage, n_docs, n_tokens); n_tokens is 0 for
pre-token stages, and the train/holdout rows carry exact BPE token sums.
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa

from grawler_ray.shuffle import LEG, coarse_cogroup, coarse_groupby


def _mark(timings: dict | None, stage: str, t0: float) -> float:
    """Record ``stage``'s wall seconds since ``t0`` in ``timings`` (when
    given) and return now, the next stage's start."""
    now = time.monotonic()
    if timings is not None:
        timings[stage] = round(now - t0, 3)
    return now


def _keep_quality_batch(quality_kwargs: dict):
    from grawler_ray.functions.quality import quality_filter_batch

    qf = quality_filter_batch(**quality_kwargs)

    def fn(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        flags = qf(t)
        return t.filter(pc.equal(flags.column("keep"), True))

    return fn


def _exact_drop_ids(t: pa.Table) -> pa.Table:
    """Coarse text_hash group over NARROW columns (text_hash, doc_id): emit
    the doc_ids that are NOT the min-doc_id of their text_hash run — i.e.
    the exact duplicates to drop.  pyarrow format per the empty-partition
    rule (CLAUDE.md): sparse group spaces at small scale emit empty blocks
    of the declared format."""
    h = np.asarray(t.column("text_hash").to_pylist(), dtype=object)
    ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    if len(h) == 0:
        return pa.table({"doc_id": pa.array([], pa.int64())})
    order = np.lexsort((ids, h))
    hs, is_ = h[order], ids[order]
    first = np.concatenate(([True], hs[1:] != hs[:-1]))
    return pa.table({"doc_id": pa.array(is_[~first], pa.int64())})


def _broadcast_drop_filter(docs_ds, drop_ids: np.ndarray):
    """Remove ``drop_ids`` (sorted int64, broadcast once via ray.put) from
    docs (doc_id, text) with a stateless searchsorted filter — ZERO payload
    movement; the drop set rides the object store, not the shuffle."""
    import ray

    ref = ray.put(np.sort(drop_ids.astype(np.int64)))

    def fn(t: pa.Table) -> pa.Table:
        drops = ray.get(ref)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(drops) == 0 or len(ids) == 0:
            return t
        pos = np.searchsorted(drops, ids)
        bad = (pos < len(drops)) & (drops[np.minimum(pos, len(drops) - 1)] == ids)
        return t.filter(pa.array(~bad))

    return docs_ds.map_batches(fn, batch_format="pyarrow")


def _drop_docs(docs_ds, drop_ids_ds, num_groups: int, driver_max_drop_ids: int):
    """Remove drop_ids (doc_id) from docs (doc_id, text).

    Three-way by drop volume: 0 drops -> the input Dataset unchanged (no
    copy); <= ``driver_max_drop_ids`` -> guarded driver pull + broadcast
    filter (the common path — drops are the duplicates, the small side);
    else -> hashed repartition ANTI-join (``_filter_join_text`` keep=False)
    that moves the payload exactly once.  Paths are asserted equal in
    tests/test_preprocess.py."""
    drops = drop_ids_ds.materialize()
    n_drop = drops.count()
    if n_drop == 0:
        return docs_ds
    if n_drop <= driver_max_drop_ids:
        return _broadcast_drop_filter(
            docs_ds, drops.to_pandas()["doc_id"].to_numpy(np.int64)
        )
    return _filter_join_text(docs_ds, drops, num_groups, keep=False)


def _semi_join_text(docs_ds, keep_ids_ds, num_groups: int):
    return _filter_join_text(docs_ds, keep_ids_ds, num_groups, keep=True)


def _filter_join_text(docs_ds, ids_ds, num_groups: int, keep: bool):
    """docs (doc_id, text) ⋉ / ▷ ids (doc_id) in one coarse doc-id
    cogroup (leg 0 docs, leg 1 ids).  ``keep=True`` is a semi-join (keep
    members), ``keep=False`` an anti-join (drop members)."""

    def keep_group(t: pa.Table) -> pa.Table:
        leg = t.column(LEG).to_numpy()
        ids = t.column("doc_id").to_numpy()
        docs = t.filter(leg == 0)
        hit = np.isin(ids[leg == 0], ids[leg == 1])
        return docs.filter(hit == keep).select(["doc_id", "text"])

    return coarse_cogroup(
        [docs_ds.select_columns(["doc_id", "text"]), ids_ds.select_columns(["doc_id"])],
        "doc_id",
        keep_group,
        num_groups,
    )


def _split_counts(t: pa.Table) -> pa.Table:
    """(split, n_docs, n_tokens) of one block of (split, n_bpe_tokens)."""
    g = t.group_by("split").aggregate(
        [("split", "count"), ("n_bpe_tokens", "sum")]
    )
    return pa.table(
        {
            "split": g.column("split"),
            "n_docs": g.column("split_count").cast(pa.int64()),
            "n_tokens": g.column("n_bpe_tokens_sum").cast(pa.int64()),
        }
    )


def prep_corpus(
    docs_ds,
    out_dir: str | None = None,
    *,
    minhash_threshold: float = 0.5,
    holdout_permille: int = 100,
    quality_kwargs: dict | None = None,
    num_groups: int = 256,
    collect_timings: dict | None = None,
    driver_max_drop_ids: int = 2_000_000,
    checkpoint_dir: str | None = None,
):
    """Run the full prep chain; see module docstring.  ``docs_ds`` needs
    (doc_id, text).  Returns the summary Dataset; when ``out_dir`` is set,
    also writes ``{out_dir}/split=train|holdout/*.parquet`` with
    (doc_id, text, n_bpe_tokens, split).  Pass a dict as
    ``collect_timings`` to receive per-stage wall seconds (each stage
    boundary is a materialize, so the splits are real): quality,
    exact_dedup, near_dedup, tokens_split, write (with ``out_dir``) and
    summary, which together cover the call.
    ``driver_max_drop_ids`` caps the broadcast drop-set per dedup stage
    (8 B/id; the default 2M ≈ 16 MB); above it the payload anti-join
    path takes over — no raise, tested equal.

    ``checkpoint_dir``: the 100-TB resumability hook.  Each stage
    boundary (quality / exact_dedup / near_dedup) is written to
    ``{checkpoint_dir}/stage={name}/`` parquet with a sibling manifest
    pinning a fingerprint of (params, n_input); a re-run with a matching
    fingerprint READS the finished stage instead of recomputing it (and
    skips every exchange that fed it), a mismatch recomputes and
    overwrites.  Costs one parquet write+read per boundary vs the
    object-store materialize (measured ~30 % slower end-to-end at bench
    scale, the r2 frontier lesson) — pay it when the run is long enough
    to die, which at 100 TB is always."""
    import gc as _gc

    import ray.data

    from grawler_ray.functions.dedup import (
        dedup_components,
        exact_hash_batch,
        minhash_dedup,
    )
    from grawler_ray.functions.sampling import _bucket1000
    from grawler_ray.functions.textstats import token_count_batch

    t0 = time.monotonic()
    # NOTE: this count scans the lazy source once and the quality map
    # scans it again.  Materializing the input instead was MEASURED WORSE
    # at 653k docs (583 -> 782 s end-to-end): the pinned corpus copy sat
    # in the object store through every later stage and pushed the
    # near-dup shuffles from zero spill to 8.5 GB of spill.  Re-reading
    # parquet is cheaper than holding a copy you only need twice.
    n_input = docs_ds.count()

    # --- stage-boundary checkpointing (see docstring) ---
    import glob as _glob
    import hashlib as _hashlib
    import json as _json
    import os as _os
    import shutil as _shutil

    ck_token = None
    if checkpoint_dir is not None:
        _os.makedirs(checkpoint_dir, exist_ok=True)
        ck_token = _hashlib.md5(
            _json.dumps(
                {
                    "n_input": n_input,
                    "minhash_threshold": minhash_threshold,
                    "quality_kwargs": quality_kwargs or {},
                    "num_groups": num_groups,
                    "v": 1,
                },
                sort_keys=True,
                default=str,
            ).encode()
        ).hexdigest()

    _EMPTY = pa.table(
        {"doc_id": pa.array([], pa.int64()), "text": pa.array([], pa.string())}
    )

    def _ckpt_load(stage: str):
        """(Dataset, n_docs) for a finished stage with a matching
        fingerprint, else None (recompute)."""
        if checkpoint_dir is None:
            return None
        man = _os.path.join(checkpoint_dir, f"stage={stage}.manifest.json")
        if not _os.path.exists(man):
            return None
        with open(man) as f:
            meta = _json.load(f)
        if meta.get("token") != ck_token:
            return None
        n = int(meta["n_docs"])
        if n == 0:
            return ray.data.from_arrow(_EMPTY), 0
        return (
            ray.data.read_parquet(_os.path.join(checkpoint_dir, f"stage={stage}")),
            n,
        )

    def _ckpt_store(ds, stage: str):
        """Stage boundary: object-store materialize without a
        checkpoint_dir; parquet write + lazy read-back (the resumable
        unit) with one.  Manifest is removed first and written last so a
        crash mid-write can never pair a valid manifest with partial
        files."""
        if checkpoint_dir is None:
            m = ds.materialize()
            return m, m.count()
        sdir = _os.path.join(checkpoint_dir, f"stage={stage}")
        man = _os.path.join(checkpoint_dir, f"stage={stage}.manifest.json")
        if _os.path.exists(man):
            _os.remove(man)
        _shutil.rmtree(sdir, ignore_errors=True)
        ds.write_parquet(sdir)
        if _glob.glob(_os.path.join(sdir, "*.parquet")):
            out = ray.data.read_parquet(sdir)
            n = out.count()
        else:  # empty stage output writes no files
            out, n = ray.data.from_arrow(_EMPTY), 0
        with open(man, "w") as f:
            _json.dump({"token": ck_token, "n_docs": n}, f)
        return out, n

    # 1. quality filter (stateless)
    ck = _ckpt_load("quality")
    if ck is None:
        ck = _ckpt_store(
            docs_ds.map_batches(
                _keep_quality_batch(quality_kwargs or {}), batch_format="pyarrow"
            ),
            "quality",
        )
    docs, n_quality = ck
    t0 = _mark(collect_timings, "quality", t0)

    # 2. exact dedup: NARROW (text_hash, doc_id) coarse shuffle -> drop-id
    # list -> broadcast filter (payload never rides the exchange; the old
    # full-payload groupby sort spilled 33 GB on a 4 GB corpus)
    def text_hashes(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "text_hash": exact_hash_batch(t).column("text_hash"),
                "doc_id": t.column("doc_id"),
            }
        )

    ck = _ckpt_load("exact_dedup")
    if ck is None:
        exact_drops = coarse_groupby(
            docs.map_batches(text_hashes, batch_format="pyarrow"),
            "text_hash",
            _exact_drop_ids,
            num_groups,
        )
        ck = _ckpt_store(
            _drop_docs(docs, exact_drops, num_groups, driver_max_drop_ids),
            "exact_dedup",
        )
    docs, n_exact = ck
    # Ray 2.49's streaming executor leaves each finished execution's
    # RefBundles in reference cycles (OpState, op metrics), so blocks that
    # nothing else references stay pinned in the object store until the
    # next full collection.  On prep_dedup that kept every call's stage
    # copies and shuffle outputs: store use +28 MB and process-tree RSS
    # +100 MB per call, piling up over repeated calls.  Collect after each
    # stage that runs exchanges and at the end of the call (about 85 ms
    # each); `docs` is rebound per stage, so the previous stage's copy is
    # garbage by then.
    _gc.collect()
    t0 = _mark(collect_timings, "exact_dedup", t0)

    # 3. near-dup: pairs -> components -> drop doc_id != component (the
    # dup-component members — again the small side, broadcast-filtered)
    ck = _ckpt_load("near_dedup")
    if ck is None:
        pairs = minhash_dedup(docs, threshold=minhash_threshold)
        comps = dedup_components(docs, pairs)

        def drop_only(df: pd.DataFrame) -> pd.DataFrame:
            return df.loc[
                df["doc_id"].to_numpy() != df["component"].to_numpy(), ["doc_id"]
            ]

        near_drops = comps.map_batches(drop_only, batch_format="pandas")
        ck = _ckpt_store(
            _drop_docs(docs, near_drops, num_groups, driver_max_drop_ids),
            "near_dedup",
        )
    docs, n_near = ck
    _gc.collect()
    t0 = _mark(collect_timings, "near_dedup", t0)

    # 4. tokens + split (stateless)
    def tokens_split(df: pd.DataFrame) -> pd.DataFrame:
        t = pa.Table.from_pandas(df[["doc_id", "text"]], preserve_index=False)
        tc = token_count_batch(t)
        ids = df["doc_id"].to_numpy().astype(np.int64)
        hold = _bucket1000(ids) < holdout_permille
        return pd.DataFrame(
            {
                "doc_id": ids,
                "text": df["text"].to_numpy(),
                "n_bpe_tokens": tc.column("n_bpe_tokens").to_numpy(),
                "split": np.where(hold, "holdout", "train"),
            }
        )

    final = docs.map_batches(tokens_split, batch_format="pandas").materialize()
    t0 = _mark(collect_timings, "tokens_split", t0)

    if out_dir is not None:
        final.write_parquet(out_dir, partition_cols=["split"])
        t0 = _mark(collect_timings, "write", t0)

    # split summary: `final` is materialized, so one map task per block
    # counts its <= 2 splits and the driver adds them up — no exchange
    parts = (
        final.select_columns(["split", "n_bpe_tokens"])
        .map_batches(_split_counts, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    per_split: dict[str, list[int]] = {}
    for t in parts:
        for r in t.to_pylist():
            acc = per_split.setdefault(r["split"], [0, 0])
            acc[0] += r["n_docs"]
            acc[1] += r["n_tokens"]
    _gc.collect()
    _mark(collect_timings, "summary", t0)
    rows = [
        {"stage": "input", "n_docs": n_input, "n_tokens": 0},
        {"stage": "quality", "n_docs": n_quality, "n_tokens": 0},
        {"stage": "exact_dedup", "n_docs": n_exact, "n_tokens": 0},
        {"stage": "near_dedup", "n_docs": n_near, "n_tokens": 0},
    ] + [
        {"stage": sp, "n_docs": n, "n_tokens": tok}
        for sp, (n, tok) in sorted(per_split.items())
    ]
    return ray.data.from_pandas(
        pd.DataFrame(rows, columns=["stage", "n_docs", "n_tokens"])
    )


def curate_corpus(
    docs_ds,
    target_ds,
    *,
    n_tiles: int = 3,
    keep_tiles: tuple = (1, 2),
    dsir_num_buckets: int = 65_536,
    num_groups: int = 256,
    out_dir: str | None = None,
    collect_timings: dict | None = None,
):
    """The CCNet/DSIR curation chain — the second flagship composition,
    orthogonal to :func:`prep_corpus`'s dedup chain (Wenzek et al. 2020
    bucket a corpus into per-language LM-quality tiles and keep
    head/middle; Xie et al. 2023 then weight the survivors toward a
    target distribution):

      1. langid over text                      (stateless map)
      2. bigram_lm_score                        (integer fluency score)
      3. lang ⋈ score (int-key repartition join, LEFT: <2-token docs
         score 0 — they must still land in a tile, like CCNet's
         shortest docs)
      4. per-language NTILE(n_tiles) over the score  (group_ntile)
      5. drop the tail tiles (keep ``keep_tiles``), semi-join the
         survivors' text back (the prep_corpus drop machinery)
      6. DSIR weights of survivors vs ``target_ds``  (fixed-size fits)
      7. summary: (lang, tile) → n_docs, sum_weight, sum_tokens

    Returns the summary Dataset; with ``out_dir`` also writes the curated
    per-doc table (doc_id, lang, tile, weight, n_tokens) partitioned by
    lang (the resumable-output convention).

    Scale notes: every exchange moves narrow metadata (ids + ints); the
    text payload moves exactly once (the survivor semi-join) and is
    re-read, never held; DSIR's driver pull is fixed-size by
    construction.  Langs are low-cardinality, the group_ntile
    assumption.
    """
    from grawler_ray.functions.joins import repartition_join
    from grawler_ray.functions.quality import dsir_weights
    from grawler_ray.functions.sampling import group_ntile
    from grawler_ray.functions.textstats import bigram_lm_score, langid_batch

    t0 = time.monotonic()
    # 1-2. narrow per-doc metadata tables (text never leaves its batch)
    langs = (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(langid_batch, batch_format="pyarrow")
        .select_columns(["doc_id", "pred_lang"])
    )
    scores = bigram_lm_score(docs_ds).select_columns(["doc_id", "score"])
    t0 = _mark(collect_timings, "langid_lm", t0)

    # 3. LEFT join: docs with < 2 tokens have no bigram row — score 0
    def fill0(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "pred_lang": t.column("pred_lang"),
                "score": pc.fill_null(pc.cast(t.column("score"), pa.int64()), 0),
            }
        )

    meta = repartition_join(
        langs, scores, on_left="doc_id", on_right="doc_id",
        num_groups=num_groups, how="left",
    ).map_batches(fill0, batch_format="pyarrow")
    t0 = _mark(collect_timings, "join_meta", t0)

    # 4. per-language quality tiles
    tiles = group_ntile(
        meta, group_col="pred_lang", id_col="doc_id", value_col="score",
        n_tiles=n_tiles,
    )

    def keep_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.is_in(t.column("tile"), value_set=pa.array(list(keep_tiles)))
        )

    kept = tiles.map_batches(keep_only, batch_format="pyarrow").materialize()
    t0 = _mark(collect_timings, "ntile", t0)

    # 5. survivors' text back.  MATERIALIZED before DSIR: dsir_weights
    # makes two passes over its raw input (distribution fit, then score),
    # and re-executing a lazy semi-join would ship the text payload twice
    # — materializing pins it in the object store (spills if large), so
    # the payload moves through the exchange exactly once.
    surv_text = _semi_join_text(
        docs_ds.select_columns(["doc_id", "text"]),
        kept.select_columns(["doc_id"]),
        num_groups,
    ).materialize()

    # 6. DSIR weights of survivors vs the target
    weights = dsir_weights(surv_text, target_ds, num_buckets=dsir_num_buckets)
    t0 = _mark(collect_timings, "dsir", t0)

    # attach (lang, tile) to the weights — int-key join of two narrow tables.
    # Materialized ONLY when a second consumer exists (the parquet sink);
    # the summary-only path streams straight through (one fewer pin pass).
    curated = repartition_join(
        weights, kept.select_columns(["doc_id", "pred_lang", "tile"]),
        on_left="doc_id", on_right="doc_id", num_groups=num_groups,
    )
    if out_dir is not None:
        curated = curated.materialize()
        curated.write_parquet(out_dir, partition_cols=["pred_lang"])
    t0 = _mark(collect_timings, "attach", t0)

    # 7. (lang, tile) summary — arrow blocks feed the aggregate
    from ray.data.aggregate import Count, Sum

    summary = (
        curated.select_columns(["pred_lang", "tile", "weight", "n_tokens"])
        .map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["pred_lang", "tile"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("weight", alias_name="sum_weight"),
            Sum("n_tokens", alias_name="sum_tokens"),
        )
    )

    def norm(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {
                "pred_lang": t.column("pred_lang"),
                "tile": pc.cast(t.column("tile"), pa.int64()),
                "n_docs": t.column("n_docs").cast(pa.int64()),
                "sum_weight": t.column("sum_weight").cast(pa.int64()),
                "sum_tokens": t.column("sum_tokens").cast(pa.int64()),
            }
        )

    out = summary.map_batches(norm, batch_format="pyarrow")
    _mark(collect_timings, "summary", t0)
    return out
