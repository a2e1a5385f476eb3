"""Deduplication operators (exact, MinHash+LSH, SimHash, n-gram Jaccard).

First-class training-data-pipeline components (not in the 931-LoC reference,
whose only dedup is the exact URL-seen set, src/crawler.go:178/191 — D1 in
SURVEY §2.7).  Standard constructions from the published literature:
- MinHash/LSH: Broder '97; banding analysis as in Leskovec-Rajaraman-Ullman,
  "Mining of Massive Datasets" ch.3.
- SimHash: Charikar '02 / Manku et al. WWW'07.

Scale shape: signatures are computed embarrassingly parallel in
``map_batches``; candidate generation is a groupby on (band, band-hash) — an
all-to-all on SMALL keys only (16 ints per doc, never the text); pair
verification re-reads only candidate docs.  Exact dedup is one groupby on a
16-byte hash.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import (
    LEG, block_sum, coarse_cogroup, coarse_group, coarse_groupby, key_index, materialize_loop_state,
)
from ..textops import _WORD_RE
from ..urlops import xxhash64

_MERSENNE = (1 << 61) - 1


_TOKEN_MEMO: dict[str, int] = {}
_TOKEN_MEMO_MAX = 1_000_000
# odd multipliers decorrelate the k positions before the xor-combine; one
# DISTINCT multiplier per position (cycling a fixed table made positions p and
# p+4 share a multiplier for k>=5: swapped tokens 4 apart left the k-gram hash
# unchanged, and equal tokens 4 apart cancelled in the xor — ADVICE r2).  The
# first four are pinned to their historic values so default-k outputs are
# byte-stable; further positions come from splitmix64(p), forced odd.
_POS_MULT = [0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5]
_M64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _pos_mult(p: int) -> int:
    while len(_POS_MULT) <= p:
        _POS_MULT.append(_splitmix64(len(_POS_MULT)) | 1)
    return _POS_MULT[p]


def _token_hash(tok: str) -> int:
    h = _TOKEN_MEMO.get(tok)
    if h is None:
        if len(_TOKEN_MEMO) >= _TOKEN_MEMO_MAX:
            _TOKEN_MEMO.clear()
        h = xxhash64(tok)
        _TOKEN_MEMO[tok] = h
    return h


def shingles(text: str, k: int = 3) -> set[int]:
    """64-bit hashes of word k-grams (lowercased ASCII tokens).

    Each token is xxhash64'd ONCE (memoized — corpora repeat tokens heavily)
    and a k-gram combines its k token hashes with position-multiplied xors,
    vectorized over the whole document; this is ~5x cheaper than hashing
    every joined k-gram string with the pure-Python xxhash fallback.  The
    hash values are internal (only set overlap is ever compared), so the
    combine only needs to be deterministic and collision-resistant."""
    toks = _WORD_RE.findall((text or "").lower())
    if not toks:
        return set()
    hs = np.fromiter((_token_hash(t) for t in toks), dtype=np.uint64, count=len(toks))
    if len(toks) < k:
        # plain-int arithmetic masked to 64 bits: numpy SCALAR multiply warns
        # on overflow (the array branch below wraps silently)
        acc = 0x165667B19E3779F9
        for i, h in enumerate(hs.tolist()):
            acc ^= (h * _pos_mult(i)) & _M64
        return {acc}
    acc = np.zeros(len(toks) - k + 1, dtype=np.uint64)
    for p in range(k):
        acc ^= hs[p : len(toks) - k + 1 + p] * np.uint64(_pos_mult(p))
    # finalize (xxhash-style avalanche) so similar grams don't cluster
    acc ^= acc >> np.uint64(33)
    acc *= np.uint64(0xFF51AFD7ED558CCD)
    acc ^= acc >> np.uint64(29)
    return set(acc.tolist())


def _avalanche64(x: np.ndarray) -> np.ndarray:
    """murmur3-style finalizer over a uint64 array (in place on a copy)."""
    x = x.copy()
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(29)
    return x


def band_hash_matrix(
    sigs: np.ndarray, num_bands: int, num_groups: int
) -> tuple[np.ndarray, np.ndarray]:
    """(n_docs, num_perm) signature matrix -> per-band hashes, fully
    vectorized: each band combines its rows with position-multiplied xors
    + an avalanche finalizer (the same construction as ``shingles``).

    Replaces the historic ``xxhash64(",".join(chunk))`` per band per doc —
    10.4M pure-Python hash calls at 650k docs × 16 bands (minutes of wall
    time on wheel-less images; round 4).  Band-hash EQUALITY is identical
    either way: two docs share a band hash iff their signature chunks are
    equal (modulo 2^-64 collisions), so LSH bucket contents — and every
    candidate pair — are unchanged by the definition switch.  Persisted
    band indexes from before round 4 are incompatible (rebuild them).

    Returns ``(band_hash int64 (n, num_bands), gkey int32 (n, num_bands))``
    where gkey is the coarse group key in [0, num_groups)."""
    n, p = sigs.shape
    r = p // num_bands
    chunks = sigs[:, : num_bands * r].reshape(n, num_bands, r)
    acc = np.zeros((n, num_bands), np.uint64)
    for j in range(r):
        acc ^= chunks[:, :, j] * np.uint64(_pos_mult(j))
    acc = _avalanche64(acc)
    # fold the band index in so equal chunks in DIFFERENT bands don't share
    # buckets, mirroring the old f"{band}:{hash}" gkey
    bi = np.arange(num_bands, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    gkey = (_avalanche64(acc ^ bi[None, :]) % np.uint64(num_groups)).astype(np.int32)
    bh = (acc ^ np.uint64(1 << 63)).view(np.int64)  # signed for arrow
    return bh, gkey


def _sig_matrix(t: pa.Table) -> np.ndarray:
    """Zero-copy-ish (doc_id, sig list<uint64>) -> (n, num_perm) matrix."""
    col = t.column("sig")
    la = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(la)
    if n == 0:
        return np.zeros((0, 0), np.uint64)
    values = la.flatten().to_numpy(zero_copy_only=False).astype(np.uint64)
    return values.reshape(n, -1)


def shingles_batch(texts, k: int = 3) -> list[np.ndarray]:
    """``shingles`` for a whole batch: returns one SORTED-UNIQUE uint64
    array per text, bit-identical values to the scalar path (same token
    xxhash64, same position-multiplied combine, same avalanche).

    The win is token hashing: the batch's tokens are factorized once
    (pandas C path) and only the UNIQUE tokens are hashed — with
    ``xxhash64_batch`` (bit-identical to ``xxhash64``) — instead of one
    memoized Python dict probe per token occurrence.  At ~3k tokens/doc
    web pages this roughly halves shingling cost (round 4)."""
    from ..urlops import xxhash64_batch

    toks_per = [_WORD_RE.findall((t or "").lower()) for t in texts]
    lens = np.fromiter((len(x) for x in toks_per), np.int64, count=len(toks_per))
    flat = [tok for toks in toks_per for tok in toks]
    out: list[np.ndarray] = []
    if not flat:
        return [np.array([], np.uint64) for _ in texts]
    codes, uniq = pd.factorize(np.asarray(flat, dtype=object), sort=False)
    hs_flat = xxhash64_batch(list(uniq))[codes]
    offs = np.concatenate(([0], np.cumsum(lens)))
    for i in range(len(texts)):
        hs = hs_flat[offs[i] : offs[i + 1]]
        n = len(hs)
        if n == 0:
            out.append(np.array([], np.uint64))
            continue
        if n < k:
            acc_i = 0x165667B19E3779F9
            for j, h in enumerate(hs.tolist()):
                acc_i ^= (h * _pos_mult(j)) & _M64
            out.append(np.array([acc_i], np.uint64))
            continue
        acc = np.zeros(n - k + 1, dtype=np.uint64)
        for p in range(k):
            acc ^= hs[p : n - k + 1 + p] * np.uint64(_pos_mult(p))
        acc ^= acc >> np.uint64(33)
        acc *= np.uint64(0xFF51AFD7ED558CCD)
        acc ^= acc >> np.uint64(29)
        out.append(np.unique(acc))
    return out


def _perm_params(num_perm: int, seed: int = 1) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64).astype(np.uint64)
    return a, b


def minhash_signature(sh, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm-wide MinHash signature via (a*x+b) mod Mersenne61, vectorized
    over the shingle set (a set of ints or a uint64 ndarray)."""
    if isinstance(sh, np.ndarray):
        x = sh.astype(np.uint64, copy=False)
    elif sh:
        x = np.fromiter(sh, dtype=np.uint64)
    else:
        x = np.array([], np.uint64)
    if len(x) == 0:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    # (a[:,None]*x + b[:,None]) % M  — uint64 wrap-around is fine for hashing
    # but we mod a Mersenne prime for uniformity.  CACHE-BLOCKED over the
    # permutation axis: the full num_perm x n_shingles temp blows L2 on
    # web-page shingle counts and the kernel goes memory-bound — 16-perm
    # chunks keep temps ~384 KB and run 2.2x faster, bit-identically
    # (measured round 4; a Mersenne shift-fold was SLOWER than `% M`
    # here — more passes over the temps loses to division on this
    # bandwidth budget).
    m = np.uint64(_MERSENNE)
    out = np.empty(len(a), np.uint64)
    for i in range(0, len(a), 16):
        prod = (a[i : i + 16, None] * x[None, :] + b[i : i + 16, None]) % m
        out[i : i + 16] = prod.min(axis=1)
    return out


def minhash_batch(num_perm: int = 128, seed: int = 1):
    a, b = _perm_params(num_perm, seed)

    def fn(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        n = len(texts)
        if n == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.list_(pa.uint64())),
                }
            )
        # flat uint64 buffer + offsets instead of n x num_perm boxed ints
        sigs = np.vstack(
            [minhash_signature(sh, a, b) for sh in shingles_batch(texts)]
        )
        la = pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32) * np.int32(sigs.shape[1])),
            pa.array(sigs.ravel(), pa.uint64()),
        )
        return pa.table({"doc_id": t.column("doc_id"), "sig": la})

    return fn


def lsh_band_explode(num_bands: int = 16, num_groups: int = 256):
    """Signature -> (gkey, band, band_hash, doc_id) rows.  gkey is a
    COARSE group key (hash(band, band_hash) % num_groups): grouping by it
    gives a bounded number of big groups for one vectorized run-scan
    (``bucket_pairs``) — NEVER one pandas group per (mostly singleton)
    LSH bucket, which at 900k docs × 16 bands meant ~14M map_groups
    invocations and minutes of pure Python dispatch (round 4)."""

    def fn(t: pa.Table) -> pa.Table:
        sigs = _sig_matrix(t)
        n = sigs.shape[0]
        if n == 0:
            return pa.table(
                {
                    "gkey": pa.array([], pa.int32()),
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        bh, gkey = band_hash_matrix(sigs, num_bands, num_groups)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        bands = np.tile(np.arange(num_bands, dtype=np.int32), n)
        return pa.table(
            {
                "gkey": pa.array(gkey.ravel(), pa.int32()),
                "band": pa.array(bands, pa.int32()),
                "band_hash": pa.array(bh.ravel(), pa.int64()),
                "doc_id": pa.array(np.repeat(ids, num_bands), pa.int64()),
            }
        )

    return fn


def _blob_jaccard(sa: bytes, sb: bytes) -> float:
    a = np.frombuffer(sa, dtype=np.uint64)
    b = np.frombuffer(sb, dtype=np.uint64)
    if not len(a) and not len(b):
        return 1.0
    inter = np.intersect1d(a, b, assume_unique=True).size
    u = len(a) + len(b) - inter
    return inter / u if u else 0.0


_EMPTY_PAIRS = {"a": pd.Series([], dtype="int64"), "b": pd.Series([], dtype="int64")}


def bucket_pairs(max_bucket: int = 256):
    """groupby(gkey) run-scan: rows arrive coarse-grouped; sort by
    (band, band_hash, doc_id) and each run is one true LSH bucket — emit
    its candidate pairs (a < b) via triu indices.

    ``max_bucket`` caps all-pairs blowup on hot buckets (boilerplate docs
    hashing one band identically): a bucket larger than the cap keeps its
    ``max_bucket`` lowest doc_ids (deterministic) and logs the truncation —
    an O(n²) bucket would otherwise dominate the whole job."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["band", "band_hash", "doc_id"]).drop_duplicates(
            ["band", "band_hash", "doc_id"]
        )
        bd = df["band"].to_numpy()
        bh = df["band_hash"].to_numpy()
        ids = df["doc_id"].to_numpy()
        if len(ids) == 0:
            return pd.DataFrame(_EMPTY_PAIRS)
        change = (np.diff(bd) != 0) | (np.diff(bh) != 0)
        starts = np.concatenate(([0], np.flatnonzero(change) + 1, [len(df)]))
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for s, e in zip(starts[:-1], starts[1:]):
            n = e - s
            if n < 2:
                continue
            if n > max_bucket:
                logging.getLogger("grawler_ray.dedup").warning(
                    "LSH bucket (band=%s) of %d docs truncated to %d — "
                    "near-dups among the dropped tail are missed",
                    bd[s], n, max_bucket,
                )
                e, n = s + max_bucket, max_bucket
            ai, bi = np.triu_indices(n, k=1)
            out_a.append(ids[s:e][ai])
            out_b.append(ids[s:e][bi])
        if not out_a:
            return pd.DataFrame(_EMPTY_PAIRS)
        return pd.DataFrame(
            {
                "a": pd.Series(np.concatenate(out_a), dtype="int64"),
                "b": pd.Series(np.concatenate(out_b), dtype="int64"),
            }
        )

    return fn


def jaccard(s1: set[int], s2: set[int]) -> float:
    if not s1 and not s2:
        return 1.0
    u = len(s1 | s2)
    return len(s1 & s2) / u if u else 0.0


def minhash_dedup(
    docs_ds,
    threshold: float = 0.8,
    num_perm: int = 128,
    num_bands: int = 16,
    max_bucket: int = 256,
    num_partitions: int = 16,
    num_groups: int = 256,
    driver_max_members: int = 2_000_000,
):
    """Full MinHash+LSH near-dup pipeline over a documents Dataset.
    Returns a Dataset of (a, b, jaccard) verified pairs (a < b).

    Candidate pairs are found from (gkey, band, band_hash, doc_id) rows
    only (24 B/doc/band, materialized, then shuffled); the text then
    reaches ``verify_pairs_join``, which computes each candidate's shingle
    blob once and moves it once per pair side.  Shingle blobs never ride the band shuffle: that would ship
    num_bands x blob bytes per doc, which ran a 900k-doc chain out of disk.
    Built on Ray's native sort shuffle: Ray 2.49's Acero-based
    Dataset.join breaks on empty hash partitions and its per-join
    aggregator actor pools can deadlock each other, so no Dataset.join
    here.  Exchanges, by the raw candidate rows (a pair found by k bands
    is k rows) against ``driver_max_members``:

    - ``2 x raw rows <= driver_max_members`` (the common case): LSH band
      ``gkey`` groupby, then the raw rows go to ``verify_pairs_join``'s
      broadcast path, which dedups them on the driver and verifies in ONE
      pair-key ``pg`` groupby — two exchanges in all.
    - above it: the raw rows are first deduped by an ``(a, b)`` Count
      aggregate (so a full-corpus verify does not fan a blob out once per
      band); ``verify_pairs_join`` then takes its broadcast path if the
      unique pairs fit the guard (three exchanges), else its full-corpus
      path (four: ``gkey``, ``(a, b)``, ``dg``, ``pg``).  On the
      full-corpus path BOTH union sides are materialized first: a lazy
      union of two task-produced sides livelocks Ray 2.49's streaming
      executor at scale (each side's pinned outputs exhaust the memory
      budget the union's consumer Sort needs to start — observed stuck at
      0 tasks for minutes at 900k docs).
    """
    from ray.data.aggregate import Count

    # the band rows are MATERIALIZED before the gkey exchange: streamed
    # into it, the MinHash map ran one task at a time (Ray 2.49 holds a CPU
    # for the idle post-sort map_groups; tools/ray_floor.py).  Only the
    # narrow band rows are held, never the signatures, and the exchange
    # buffers all its input anyway.
    bands = (
        docs_ds.map_batches(minhash_batch(num_perm), batch_format="pyarrow")
        .map_batches(lsh_band_explode(num_bands, num_groups), batch_format="pyarrow")
        .materialize()
    )
    pairs = (
        bands.groupby("gkey")
        .map_groups(bucket_pairs(max_bucket), batch_format="pandas")
        # MATERIALIZED on purpose (round 4): lazily, the verify's payload
        # branch races ahead of candidate discovery, pins its output in
        # the object store, and the executor backpressures the signature
        # stage to ~2 tasks while the union waits on this very branch —
        # observed live at 900k docs (32 cpus crawling at 2 wide).  The
        # candidate set is small (∝ near-dups), so pinning it sequences
        # discovery at full width before any payload moves.
        .materialize()
    )
    if 2 * pairs.count() > driver_max_members:
        # too many raw rows to pull: dedup the pairs several bands found
        # first.  Arrow blocks: pandas-block multi-key aggregates are a
        # ~20x Ray 2.49 slow path (user_retention measurement, round 4)
        pairs = (
            pairs.map_batches(lambda t: t, batch_format="pyarrow")
            .groupby(["a", "b"])
            .aggregate(Count(alias_name="_nb"))
            .select_columns(["a", "b"])
            .materialize()
        )

    return verify_pairs_join(
        docs_ds,
        pairs,
        threshold,
        num_partitions=num_partitions,
        driver_max_members=driver_max_members,
    )


def verify_pairs_join(
    docs_ds,
    pairs,
    threshold: float,
    k: int = 3,
    num_partitions: int = 16,
    driver_max_members: int = 2_000_000,
):
    """Exact-Jaccard verification of candidate ``(a, b)`` pairs (int64,
    a < b; a pair may repeat and is verified and returned once).  Returns
    (a, b, jaccard) rows with ``jaccard >= threshold``.  Shared by
    ``minhash_dedup``, ``ssjoin_pairs`` and
    ``cross_ssjoin_pairs``.  Two paths, by ``2 x pair rows`` against
    ``driver_max_members``; both are asserted equal in
    tests/test_dedup_pipelines.py (``driver_max_members=0`` forces the
    second):

    - Broadcast (at or below the guard, the common case): ONE exchange.
      The pair list comes to the driver and is deduped with ``np.unique``;
      its pair sides, (doc id, other id) at 16 B each, are sorted by doc id
      and ``ray.put`` once (at most 32 MB at the default guard).  One map
      over the docs keeps only member docs, computes their shingle blobs
      with ``shingles_batch`` and emits one (pa, pb, side_did, sh, pg) row
      per pair side; those rows are materialized, then a ``pg`` (pair-key
      hash) groupby verifies.  Text is never shuffled, and the blob moves
      once per pair side.
    - Full corpus (above the guard): TWO exchanges.  Docs and pair-side
      requests meet in one coarse doc-id ``coarse_cogroup`` that attaches
      each candidate's blob to its pair sides, then the ``pg`` groupby
      verifies.  Both legs are materialized first (livelock note in
      ``minhash_dedup``).
    """
    # full-corpus exchange 1: docs and pair-side requests cogrouped by doc id
    def requests(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False)
        b = t.column("b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([a, b]), pa.int64()),
                "pa": pa.array(np.concatenate([a, a]), pa.int64()),
                "pb": pa.array(np.concatenate([b, b]), pa.int64()),
            }
        )

    def attach_blobs(t: pa.Table) -> pa.Table:
        # leg 0: docs (doc_id, text); leg 1: pair sides (doc_id, pa, pb).
        # One shingle blob per requested doc (shingles_batch over the
        # group's members), repeated onto each of its pair sides.
        leg = t.column(LEG).to_numpy()
        docs, req = t.filter(leg == 0), t.filter(leg == 1)
        # a side whose doc is missing from the input is dropped
        pos, ok = key_index(docs.column("doc_id").to_numpy(), req.column("doc_id").to_numpy())
        used, inv = np.unique(pos[ok], return_inverse=True)
        texts = docs.column("text").take(pa.array(used, pa.int64())).to_pylist()
        blobs = shingles_batch([x or "" for x in texts], k)
        req = req.filter(pa.array(ok))
        pa_ = req.column("pa").to_numpy()
        pb_ = req.column("pb").to_numpy()
        return pa.table(
            {
                "pa": pa.array(pa_, pa.int64()),
                "pb": pa.array(pb_, pa.int64()),
                "side_did": req.column("doc_id"),
                "sh": pa.array([b.tobytes() for b in blobs], pa.binary()).take(
                    pa.array(inv.astype(np.int64), pa.int64())
                ),
                "pg": pair_group(pa_, pb_),
            }
        )

    def pair_group(pa_: np.ndarray, pb_: np.ndarray) -> pa.Array:
        g = ((pa_.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) ^ pb_.astype(np.uint64)) % np.uint64(num_partitions * 16)
        return pa.array(g.astype(np.int64), pa.int64())

    def verify_group(df: pd.DataFrame) -> pd.DataFrame:
        # run-scan (pa, pb) pairs inside the coarse pair-hash group
        df = df.sort_values(["pa", "pb", "side_did"])
        pas = df["pa"].to_numpy()
        pbs = df["pb"].to_numpy()
        sds = df["side_did"].to_numpy()
        shs = df["sh"].tolist()
        change = (np.diff(pas) != 0) | (np.diff(pbs) != 0)
        starts = np.concatenate(([0], np.flatnonzero(change) + 1, [len(df)]))
        out_a, out_b, out_j = [], [], []
        for s, e in zip(starts[:-1], starts[1:]):
            blob_a = blob_b = None
            for i in range(s, e):
                if sds[i] == pas[i]:
                    blob_a = shs[i]
                elif sds[i] == pbs[i]:
                    blob_b = shs[i]
            if blob_a is None or blob_b is None:
                continue  # a side's doc text was missing from the input
            j = _blob_jaccard(blob_a, blob_b)
            if j >= threshold:
                out_a.append(int(pas[s]))
                out_b.append(int(pbs[s]))
                out_j.append(j)
        return pd.DataFrame(
            {
                "a": pd.Series(out_a, dtype="int64"),
                "b": pd.Series(out_b, dtype="int64"),
                "jaccard": pd.Series(out_j, dtype="float64"),
            }
        )

    import ray
    import ray.data

    n_pairs = pairs.count()
    if n_pairs == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "a": pa.array([], pa.int64()),
                    "b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )

    doc_side = docs_ds.select_columns(["doc_id", "text"])
    if 2 * n_pairs <= driver_max_members:
        pdf = pairs.to_pandas()
        ab = np.unique(
            np.stack(
                [pdf["a"].to_numpy(np.int64), pdf["b"].to_numpy(np.int64)], axis=1
            ),
            axis=0,
        )
        # pair sides (doc id, other side's id), sorted by doc id
        side = np.concatenate([ab[:, 0], ab[:, 1]])
        other = np.concatenate([ab[:, 1], ab[:, 0]])
        order = np.argsort(side, kind="stable")
        sref = ray.put((side[order], other[order]))

        def side_rows(t: pa.Table) -> pa.Table:
            sd, so = ray.get(sref)
            ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
            lo = np.searchsorted(sd, ids, "left")
            cnt = np.searchsorted(sd, ids, "right") - lo
            mem = np.flatnonzero(cnt)  # member docs of this block
            blobs = shingles_batch(t.column("text").take(mem).to_pylist(), k)
            # one output row per pair side: member r spans sides lo..lo+cnt
            reps = cnt[mem]
            doc_of = np.repeat(np.arange(len(mem)), reps)
            first = np.cumsum(reps) - reps
            idx = np.repeat(lo[mem] - first, reps) + np.arange(int(reps.sum()))
            sdid, oth = sd[idx], so[idx]
            pa_, pb_ = np.minimum(sdid, oth), np.maximum(sdid, oth)
            return pa.table(
                {
                    "pa": pa.array(pa_, pa.int64()),
                    "pb": pa.array(pb_, pa.int64()),
                    "side_did": pa.array(sdid, pa.int64()),
                    "sh": pa.array([b.tobytes() for b in blobs], pa.binary()).take(
                        pa.array(doc_of, pa.int64())
                    ),
                    "pg": pair_group(pa_, pb_),
                }
            )

        # materialized before the pg exchange, like minhash_dedup's band
        # rows: the shingle map then runs at full width
        sides = doc_side.map_batches(side_rows, batch_format="pyarrow").materialize()
    else:
        # full-corpus join: pin both sides first (livelock note above)
        doc_side = doc_side.materialize()
        req_side = pairs.map_batches(requests, batch_format="pyarrow").materialize()
        sides = coarse_cogroup([doc_side, req_side], "doc_id", attach_blobs, num_partitions * 16)
    return sides.groupby("pg").map_groups(verify_group, batch_format="pandas")


def ngram_jaccard_pairs(docs_ds, threshold: float = 0.5, k: int = 3, num_blocks: int = 4,
                        metric: str = "jaccard"):
    """Word-k-gram Jaccard near-dup pairs — EXACT all-pairs, distributed as a
    block-replicated theta-join (same shape as
    `similarity.embedding_dup_pairs`): shingle sets are computed once per
    replica inside the group, and each group's pairwise Jaccards come from
    one binary incidence-matrix matmul (|A∩B| = M @ M.T), not per-pair set
    ops.  The approximate scale path for this operator is `minhash_dedup`;
    this is the exact baseline it is benchmarked against.  Output (a, b)
    with a < b, integer-only for exact SQL-oracle comparison.
    """
    B = num_blocks

    def explode(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        blocks = ids % B
        gs, takes = [], []
        for j in range(B):
            gs.append(np.minimum(blocks, j) * B + np.maximum(blocks, j))
            takes.append(np.arange(len(ids)))
        sub = t.take(pa.array(np.concatenate(takes), pa.int64()))
        return pa.table(
            {
                "g": pa.array(np.concatenate(gs), pa.int64()),
                "doc_id": sub.column("doc_id"),
                "text": sub.column("text"),
            }
        )

    def pair_group(df: pd.DataFrame) -> pd.DataFrame:
        # Posting-list intersection counting: work is proportional to the
        # ACTUAL shingle co-occurrences (sum of df² per shingle), not the
        # dense n x vocab x n matmul — zero-overlap pairs (the vast
        # majority) are never touched; they can only qualify via the
        # both-empty jaccard=1.0 special case, handled explicitly.
        df = df.drop_duplicates("doc_id").sort_values("doc_id")
        g = int(df["g"].iloc[0])
        i, j = g // B, g % B
        ids = df["doc_id"].to_numpy().astype(np.int64)
        n = len(ids)
        shs = [np.fromiter(shingles(x, k), dtype=np.uint64) for x in df["text"]]
        sizes = np.array([len(s) for s in shs], dtype=np.int64)
        blocks = ids % B

        def _valid(ai: np.ndarray, bi: np.ndarray) -> np.ndarray:
            if i == j:
                return np.ones(len(ai), dtype=bool)
            return blocks[ai] != blocks[bi]  # cross-block pairs only

        # inverted index: (shingle, doc_idx) sorted by shingle; equal-shingle
        # runs emit all doc pairs of that run
        if sizes.sum() > 0:
            all_h = np.concatenate([s for s in shs if len(s)])
            all_d = np.concatenate(
                [np.full(len(s), di, dtype=np.int64) for di, s in enumerate(shs) if len(s)]
            )
            order = np.argsort(all_h, kind="stable")
            all_h, all_d = all_h[order], all_d[order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(all_h) != 0) + 1, [len(all_h)])
            )
            packed: list[np.ndarray] = []
            for s, e in zip(starts[:-1], starts[1:]):
                if e - s < 2:
                    continue
                d = np.sort(all_d[s:e])
                ai, bi = np.triu_indices(len(d), k=1)
                packed.append(d[ai] * n + d[bi])
            if packed:
                keys, inter = np.unique(np.concatenate(packed), return_counts=True)
                ai, bi = keys // n, keys % n
                keep = _valid(ai, bi)
                ai, bi, inter = ai[keep], bi[keep], inter[keep]
                if metric == "jaccard":
                    denom = sizes[ai] + sizes[bi] - inter
                else:  # "containment": inter / min(|A|, |B|) — quote/subset
                    denom = np.minimum(sizes[ai], sizes[bi])
                jac_keep = inter.astype(np.float64) / np.maximum(denom, 1) >= threshold
                ai, bi = ai[jac_keep], bi[jac_keep]
            else:
                ai = bi = np.array([], dtype=np.int64)
        else:
            ai = bi = np.array([], dtype=np.int64)

        # both-empty docs: jaccard 1.0 by definition
        empties = np.flatnonzero(sizes == 0)
        if len(empties) >= 2 and threshold <= 1.0:
            ea, eb = np.triu_indices(len(empties), k=1)
            ea, eb = empties[ea], empties[eb]
            keep = _valid(ea, eb)
            ai = np.concatenate([ai, ea[keep]])
            bi = np.concatenate([bi, eb[keep]])

        a, b = ids[ai], ids[bi]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pd.DataFrame({"a": lo.astype(np.int64), "b": hi.astype(np.int64)})

    return (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("g")
        .map_groups(pair_group, batch_format="pandas")
    )


def ngram_containment_pairs(docs_ds, threshold: float = 0.8, k: int = 3,
                            num_blocks: int = 4):
    """Asymmetric near-containment pairs: inter / min(|A|, |B|) >=
    threshold — catches quotes/subsets that Jaccard misses (a short doc
    fully contained in a long one has low Jaccard but containment 1.0).
    Same exact block-replicated theta-join machinery as
    ngram_jaccard_pairs; both-empty docs pair at 1.0, one-empty pairs
    never qualify (mirrors the SQL NULLIF oracle)."""
    return ngram_jaccard_pairs(
        docs_ds, threshold=threshold, k=k, num_blocks=num_blocks,
        metric="containment",
    )


def ssjoin_pairs(
    docs_ds,
    threshold: float = 0.5,
    k: int = 3,
    num_groups: int = 256,
    num_partitions: int = 16,
    driver_max_members: int = 2_000_000,
    max_empty_docs: int = 100_000,
    cross_boundary: int | None = None,
):
    """EXACT set-similarity self-join via prefix filtering (AllPairs,
    Bayardo/Ma/Srikant WWW'07): the same (a, b) pair set as
    ``ngram_jaccard_pairs`` at the same ``threshold``/``k``, WITHOUT the
    O(n²/B) block-replicated comparison — work scales with actual shingle
    co-occurrence in prefixes, so this is the exact 100-TB path the
    all-pairs baseline is benchmarked against (and the exact complement of
    the approximate ``minhash_dedup``).

    Prefix theorem (canonical order = the uint64 shingle-hash order that
    ``shingles_batch`` already emits): if J(A,B) >= t then
    |A∩B| >= ceil(t·max(|A|,|B|)) >= ceil(t·|X|) for X in {A,B}, so A and B
    must share a shingle among the first |X| - ceil(t·|X|) + 1 of each —
    pairing docs within shared-prefix-shingle runs finds every qualifying
    pair.  Hash order is a uniform-random canonical order; the classic
    rare-first (global DF) order would prune harder but needs a corpus-wide
    DF join — documented trade, not taken (candidates are verified exactly
    either way, so ordering affects cost only, never the answer).

    Plan: one light prefix explode (24 B rows: shingle, doc_id, size) →
    coarse shingle-hash groupby with in-group run-scan + size filter
    (|small| >= ceil(t·|large|)) → (a,b) candidate dedup → exact-Jaccard
    verification through ``verify_pairs_join`` (text never shuffled; one
    pair-key exchange on its broadcast path).  Both-empty docs pair at
    J=1.0 by the module convention; they have no shingles so they're
    paired directly (guarded by ``max_empty_docs`` — empty docs should be
    filtered far upstream of any similarity join at real scale).

    Requires ``threshold > 0`` (prefix filtering is meaningless at t=0 and
    the empty/non-empty separation below relies on J(empty, non-empty)=0
    never qualifying).  Output: (a, b) int64, a < b — same schema as
    ``ngram_jaccard_pairs`` so the two share one SQL oracle.
    """
    import math

    import ray
    import ray.data
    from ray.data.aggregate import Count

    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    t = float(threshold)

    def prefix_explode(tb: pa.Table) -> pa.Table:
        ids = tb.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        shs = shingles_batch(tb.column("text").to_pylist(), k)
        toks, dids, sizes = [], [], []
        n_empty_ids = []
        for did, sh in zip(ids.tolist(), shs):
            s = len(sh)
            if s == 0:
                n_empty_ids.append(did)
                continue
            # conservative ceil: float t*s can round UP past the true
            # product (0.1*10 -> 1.0000000000000002, ceil 2 not 1) which
            # would SHORTEN the prefix and miss pairs; the 1e-9 slack can
            # only lengthen it (extra candidates die in verification)
            p = s - math.ceil(t * s - 1e-9) + 1
            toks.append(sh[:p])
            dids.append(np.full(p, did, dtype=np.int64))
            sizes.append(np.full(p, s, dtype=np.int64))
        tok = np.concatenate(toks) if toks else np.array([], dtype=np.uint64)
        did = np.concatenate(dids) if dids else np.array([], dtype=np.int64)
        size = np.concatenate(sizes) if sizes else np.array([], dtype=np.int64)
        # coarse shuffle key: ~num_groups vectorized groups, true shingle
        # runs re-found by sort inside the group (tiny-group groupby rule)
        g = coarse_group(tok, num_groups)
        emp = np.asarray(n_empty_ids, dtype=np.int64)
        return pa.table(
            {
                "g": pa.array(
                    np.concatenate([g.astype(np.int64), np.full(len(emp), -1)]),
                    pa.int64(),
                ),
                "tok": pa.array(
                    np.concatenate([tok, np.zeros(len(emp), np.uint64)]), pa.uint64()
                ),
                "doc_id": pa.array(np.concatenate([did, emp]), pa.int64()),
                "size": pa.array(
                    np.concatenate([size, np.zeros(len(emp), np.int64)]), pa.int64()
                ),
            }
        )

    def candidate_group(tb: pa.Table) -> pa.Table:
        # one coarse group: sort by (tok), run-scan equal-shingle runs, emit
        # size-filtered candidate pairs.  g == -1 is the empty-doc group:
        # all-pairs at J=1.0 by convention, emitted as pre-verified rows
        # (flag v=1) so the verify join never sees shingle-less docs.
        out_a, out_b, out_v = [], [], []
        if tb.num_rows:
            gval = int(tb.column("g")[0].as_py())
            toks = tb.column("tok").to_numpy(zero_copy_only=False)
            dids = tb.column("doc_id").to_numpy(zero_copy_only=False)
            sizes = tb.column("size").to_numpy(zero_copy_only=False)
            if gval == -1:
                if len(dids) > max_empty_docs:
                    raise RuntimeError(
                        f"{len(dids)} empty docs exceed max_empty_docs="
                        f"{max_empty_docs}; filter empty documents before a "
                        "similarity join at this scale"
                    )
                d = np.sort(dids)
                ai, bi = np.triu_indices(len(d), k=1)
                out_a, out_b = d[ai], d[bi]
                if cross_boundary is not None:
                    x = (out_a < cross_boundary) != (out_b < cross_boundary)
                    out_a, out_b = out_a[x], out_b[x]
                out_v = np.ones(len(out_a), dtype=np.int64)
            else:
                order = np.lexsort((dids, toks))
                toks, dids, sizes = toks[order], dids[order], sizes[order]
                starts = np.concatenate(
                    ([0], np.flatnonzero(np.diff(toks) != 0) + 1, [len(toks)])
                )
                packed = []
                for s, e in zip(starts[:-1], starts[1:]):
                    if e - s < 2:
                        continue
                    ai, bi = np.triu_indices(e - s, k=1)
                    sa, sb = sizes[s:e][ai], sizes[s:e][bi]
                    # J >= t needs min >= t * max; 1e-9 slack so float
                    # rounding can only ADMIT borderline candidates (the
                    # exact verify kills them), never drop a true pair
                    ok = np.minimum(sa, sb) >= t * np.maximum(sa, sb) - 1e-9
                    da, db = dids[s:e][ai[ok]], dids[s:e][bi[ok]]
                    lo, hi = np.minimum(da, db), np.maximum(da, db)
                    keep = lo != hi  # same doc via dup rows can't pair
                    if cross_boundary is not None:
                        # cross-dataset mode: only pairs straddling the id
                        # boundary are candidates (train x benchmark)
                        keep &= (lo < cross_boundary) != (hi < cross_boundary)
                    packed.append(np.stack([lo[keep], hi[keep]], axis=1))
                if packed:
                    ab = np.unique(np.concatenate(packed), axis=0)
                    out_a, out_b = ab[:, 0], ab[:, 1]
                    out_v = np.zeros(len(out_a), dtype=np.int64)
        return pa.table(
            {
                "a": pa.array(np.asarray(out_a, dtype=np.int64), pa.int64()),
                "b": pa.array(np.asarray(out_b, dtype=np.int64), pa.int64()),
                "v": pa.array(np.asarray(out_v, dtype=np.int64), pa.int64()),
            }
        )

    # candidate dedup: the same (a, b) is found once per shared prefix
    # shingle.  v rides the key — it is functionally determined by (a, b)
    # (an empty doc has no shingles so it can never appear in a g>=0 pair),
    # so grouping by (a, b, v) dedupes exactly like (a, b).
    cands = (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(prefix_explode, batch_format="pyarrow")
        .groupby("g")
        # pyarrow map_groups: sparse key space can emit empty partitions and
        # they must match downstream block types (CLAUDE.md rule)
        .map_groups(candidate_group, batch_format="pyarrow")
        .groupby(["a", "b", "v"])
        .aggregate(Count(alias_name="_nc"))
        .select_columns(["a", "b", "v"])
        .materialize()  # same sequencing rationale as minhash_dedup
    )

    def split(flag: int):
        def fn(tb: pa.Table) -> pa.Table:
            m = pc.equal(tb.column("v"), flag)
            return tb.filter(m).select(["a", "b"])

        return fn

    to_verify = cands.map_batches(split(0), batch_format="pyarrow")
    verified = verify_pairs_join(
        docs_ds,
        to_verify,
        t,
        k=k,
        num_partitions=num_partitions,
        driver_max_members=driver_max_members,
    )

    def empty_final(tb: pa.Table) -> pa.Table:
        m = pc.equal(tb.column("v"), 1)
        sub = tb.filter(m)
        return pa.table(
            {
                "a": sub.column("a"),
                "b": sub.column("b"),
                "jaccard": pa.array(np.ones(sub.num_rows), pa.float64()),
            }
        )

    empty_pairs = cands.map_batches(empty_final, batch_format="pyarrow")
    # one block type across the union (verify's tail is pandas map_groups)
    return (
        verified.map_batches(lambda t: t, batch_format="pyarrow")
        .union(empty_pairs)
    )


def cross_ssjoin_pairs(
    left_ds,
    right_ds,
    threshold: float = 0.5,
    k: int = 3,
    id_offset: int = 1 << 40,
    **kw,
):
    """EXACT near-dup pairs ACROSS two corpora (left doc, right doc with
    Jaccard >= threshold) — the "dedup the training set against the
    benchmark" operator (fuzzy decontamination: the exact complement of
    `quality.decontaminate`'s 13-gram containment rule).  Built on
    ``ssjoin_pairs``: the right side's doc_ids are offset into a disjoint
    id space, the union is prefix-filter joined with
    ``cross_boundary=id_offset`` so WITHIN-side candidates are pruned
    before any verification work, and the output is mapped back to
    (left_id, right_id, jaccard).  Same scale shape as ssjoin_pairs; the
    boundary prune means candidate work ∝ true cross-side prefix
    co-occurrence only."""

    def shift(tb: pa.Table) -> pa.Table:
        ids = tb.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and ids.max() >= id_offset:
            raise ValueError(
                f"right-side doc_id {ids.max()} >= id_offset {id_offset}"
            )
        return pa.table(
            {
                "doc_id": pa.array(ids + id_offset, pa.int64()),
                "text": tb.column("text"),
            }
        )

    def check_left(tb: pa.Table) -> pa.Table:
        ids = tb.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and ids.max() >= id_offset:
            raise ValueError(
                f"left-side doc_id {ids.max()} >= id_offset {id_offset}"
            )
        return tb.select(["doc_id", "text"])

    union = left_ds.select_columns(["doc_id", "text"]).map_batches(
        check_left, batch_format="pyarrow"
    ).union(right_ds.select_columns(["doc_id", "text"]).map_batches(
        shift, batch_format="pyarrow"
    ))
    pairs = ssjoin_pairs(
        union, threshold=threshold, k=k, cross_boundary=id_offset, **kw
    )

    def unshift(tb: pa.Table) -> pa.Table:
        a = tb.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = tb.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        # a < b and exactly one side >= id_offset, so b is always right
        return pa.table(
            {
                "left_id": pa.array(a, pa.int64()),
                "right_id": pa.array(b - id_offset, pa.int64()),
                "jaccard": tb.column("jaccard"),
            }
        )

    return pairs.map_batches(unshift, batch_format="pyarrow")


def _edit1(s1: str, s2: str) -> bool:
    """Exact Levenshtein-distance <= 1 check (O(len), no DP needed at
    radius 1): equal; same length with <= 1 substitution; or length-diff 1
    with one skipped char in the longer."""
    if s1 == s2:
        return True
    l1, l2 = len(s1), len(s2)
    if abs(l1 - l2) > 1:
        return False
    if l1 == l2:
        return sum(1 for a, b in zip(s1, s2) if a != b) <= 1
    if l1 > l2:
        s1, s2, l1, l2 = s2, s1, l2, l1
    # s2 = s1 plus one inserted char?
    i = 0
    while i < l1 and s1[i] == s2[i]:
        i += 1
    return s1[i:] == s2[i + 1:]


def edit1_pairs(
    ds,
    key_col: str,
    str_col: str,
    num_groups: int = 256,
    max_len: int = 512,
):
    """All unordered key pairs whose strings are at Levenshtein distance
    <= 1 — EXACT, via deletion-neighborhood blocking (the SymSpell /
    FastSS construction, public algorithm): each string emits hashes of
    itself and its len(s) single-char-deletion variants; two strings at
    distance <= 1 ALWAYS share a variant (equal -> s itself; substitution
    at i -> del_i both sides; insertion/deletion -> the shorter string ==
    a deletion variant of the longer), so candidate generation is
    complete and every in-group candidate is verified with the exact
    radius-1 check.  Fuzzy key dedup for crawl/catalog tables (URL
    near-misses, sequence-numbered names) without the O(n²) cross join
    the SQL oracle runs.

    Shape: one explode of ~(len+1) rows per string (8 B variant hash +
    the string payload riding to its group), one coarse variant-hash
    exchange, in-run pairing + verification (both strings are at hand),
    then one (a, b) hash-aggregate dedup (a pair is found once per
    shared variant).  Payload is len(s)·(len(s)+1) bytes per string —
    fine for names/URLs; for LONG strings route candidates through a
    ``verify_pairs_join``-style blob-request plan instead (documented,
    not needed at key lengths).  ``max_len`` guards the quadratic payload
    loudly.  Hash collisions only ADD candidates (exact verify kills
    them).  NULL strings never pair (SQL levenshtein(NULL, ·) semantics).

    Output: (a, b) int64 key pairs, a < b.
    """
    from ray.data.aggregate import Count

    from ..urlops import xxhash64_batch

    def explode(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
        strs = t.column(str_col).to_pylist()
        variants: list[str] = []
        out_key: list[int] = []
        out_s: list[str] = []
        for kid, s in zip(keys.tolist(), strs):
            if s is None:
                continue
            if len(s) > max_len:
                raise ValueError(
                    f"edit1_pairs: string of length {len(s)} exceeds "
                    f"max_len={max_len}; the deletion-neighborhood payload "
                    "is quadratic in length — route long strings through a "
                    "candidate+blob-join plan instead"
                )
            vs = [s] + [s[:i] + s[i + 1:] for i in range(len(s))]
            variants.extend(vs)
            out_key.extend([kid] * len(vs))
            out_s.extend([s] * len(vs))
        h = xxhash64_batch(variants).astype(np.uint64)
        g = coarse_group(h, num_groups)
        return pa.table(
            {
                "g": pa.array(g.astype(np.int64), pa.int64()),
                "h": pa.array(h, pa.uint64()),
                "kid": pa.array(np.asarray(out_key, np.int64), pa.int64()),
                "s": pa.array(out_s, pa.string()),
            }
        )

    def pair_group(t: pa.Table) -> pa.Table:
        out_a: list[int] = []
        out_b: list[int] = []
        if t.num_rows:
            h = t.column("h").to_numpy(zero_copy_only=False)
            kid = t.column("kid").to_numpy(zero_copy_only=False)
            ss = t.column("s").to_pylist()
            order = np.lexsort((kid, h))
            h, kid = h[order], kid[order]
            ss = [ss[i] for i in order]
            starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(h) != 0) + 1, [len(h)])
            )
            seen_local: set[tuple[int, int]] = set()
            for s_, e_ in zip(starts[:-1], starts[1:]):
                if e_ - s_ < 2:
                    continue
                for i in range(s_, e_):
                    for j in range(i + 1, e_):
                        if kid[i] == kid[j]:
                            continue
                        a, b = (
                            (int(kid[i]), int(kid[j]))
                            if kid[i] < kid[j]
                            else (int(kid[j]), int(kid[i]))
                        )
                        if (a, b) in seen_local:
                            continue
                        seen_local.add((a, b))
                        if _edit1(ss[i], ss[j]):
                            out_a.append(a)
                            out_b.append(b)
        return pa.table(
            {
                "a": pa.array(np.asarray(out_a, np.int64), pa.int64()),
                "b": pa.array(np.asarray(out_b, np.int64), pa.int64()),
            }
        )

    return (
        ds.select_columns([key_col, str_col])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("g")
        .map_groups(pair_group, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_n"))
        .select_columns(["a", "b"])
    )


_BIT_SHIFTS = np.arange(64, dtype=np.uint64)
_BIT_WEIGHTS = (np.uint64(1) << _BIT_SHIFTS)


def simhash64(text: str) -> int:
    """Charikar SimHash over word features weighted by frequency.

    Vectorized over the document's vocabulary (VERDICT r2 item 6): stack the
    word hashes, one bit-unpack, one matmul against the frequency vector —
    acc[i] = sum_w f_w * (+1 if bit i of hash(w) else -1)
           = 2 * (bits.T @ f)[i] - sum(f).
    Bit-identical to the per-word loop it replaces."""
    from ..textops import words_freq

    wf = words_freq(text or "")
    if not wf:
        return 0
    hs = np.fromiter((xxhash64(w) for w in wf), dtype=np.uint64, count=len(wf))
    fs = np.fromiter(wf.values(), dtype=np.int64, count=len(wf))
    bits = ((hs[:, None] >> _BIT_SHIFTS[None, :]) & np.uint64(1)).astype(np.int64)
    acc = 2 * (bits.T @ fs) - fs.sum()
    # distinct bits => the sum IS the bitwise OR (no carries)
    return int(_BIT_WEIGHTS[acc > 0].sum())


def simhash_batch(t: pa.Table) -> pa.Table:
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "simhash": pa.array(
                [np.int64(simhash64(x) - (1 << 63)) for x in t.column("text").to_pylist()],
                pa.int64(),
            ),
        }
    )


def hamming64(a: int, b: int) -> int:
    return bin((a ^ b) & ((1 << 64) - 1)).count("1")


def simhash_pairs(docs_ds, max_hamming: int = 3, max_bucket: int = 1024, num_groups: int = 256,
                  sig_fn=None):
    """SimHash near-dup candidate pairs (Manku et al. WWW'07 block-rotation
    bucketing): split the 64-bit fingerprint into ``max_hamming + 1`` blocks;
    any pair within Hamming distance ``max_hamming`` must agree exactly on at
    least one block (pigeonhole).  For each block, bucket docs by that
    block's bits, emit in-bucket pairs, and verify the Hamming distance
    IN-BUCKET (the whole 64-bit fingerprint rides the explode — 8 bytes/row,
    so no verification join is needed at all); duplicate pairs from multiple
    agreeing blocks collapse in a vectorized hash aggregate.

    Returns a Dataset of (a, b, hamming) with hamming <= max_hamming.
    Scale shape: explode is (max_hamming+1) small rows per doc; the groupby
    key is (block, 16-ish bits); hot buckets are capped like the MinHash
    path.
    """
    from ray.data.aggregate import Min

    nblocks = max_hamming + 1
    widths = [64 // nblocks] * nblocks
    widths[-1] += 64 - sum(widths)
    offsets = np.cumsum([0] + widths[:-1]).tolist()

    # sig_fn: pluggable fingerprint stage emitting (doc_id, simhash)
    # — any 64-bit signature reuses the exact Manku pairing (e.g. image
    # dHash in functions/imghash.py); default = text SimHash
    sigs = docs_ds.map_batches(sig_fn or simhash_batch, batch_format="pyarrow")

    def explode(t: pa.Table) -> pa.Table:
        # signed int64 storage; view as uint64 for bit slicing (the +-2^63
        # shift flips only the top bit, which XOR/popcount don't care about —
        # but block keys must slice the TRUE fingerprint, so un-shift first)
        sh = t.column("simhash").to_numpy(zero_copy_only=False).astype(np.int64)
        h = sh.view(np.uint64) ^ np.uint64(1 << 63)  # true unsigned fingerprint
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(ids)
        gkeys, blocks, keys, out_ids, out_sh = [], [], [], [], []
        for bi, (off, w) in enumerate(zip(offsets, widths)):
            key = ((h >> np.uint64(off)) & np.uint64((1 << w) - 1)).astype(np.int64)
            # coarse group key: bounded group count for the vectorized
            # run-scan (same trick as lsh_band_explode)
            gkeys.append((np.uint64(bi * 0x9E3779B9) ^ key.view(np.uint64)) % np.uint64(num_groups))
            blocks.append(np.full(n, bi, dtype=np.int32))
            keys.append(key)
            out_ids.append(ids)
            out_sh.append(sh)
        return pa.table(
            {
                "gkey": pa.array(np.concatenate(gkeys).astype(np.int32), pa.int32()),
                "block": pa.array(np.concatenate(blocks), pa.int32()),
                "key": pa.array(np.concatenate(keys), pa.int64()),
                "doc_id": pa.array(np.concatenate(out_ids), pa.int64()),
                "simhash": pa.array(np.concatenate(out_sh), pa.int64()),
            }
        )

    def bucket_verify(df: pd.DataFrame) -> pd.DataFrame:
        # coarse group: run-scan the true (block, key) buckets inside it
        df = df.sort_values(["block", "key", "doc_id"]).drop_duplicates(
            ["block", "key", "doc_id"]
        )
        bd = df["block"].to_numpy()
        ky = df["key"].to_numpy()
        ids = df["doc_id"].to_numpy()
        h = df["simhash"].to_numpy().astype(np.int64).view(np.uint64)
        change = (np.diff(bd) != 0) | (np.diff(ky) != 0)
        starts = np.concatenate(([0], np.flatnonzero(change) + 1, [len(df)]))
        out_a, out_b, out_h = [], [], []
        for s, e in zip(starts[:-1], starts[1:]):
            if e - s < 2:
                continue
            if e - s > max_bucket:
                logging.getLogger("grawler_ray.dedup").warning(
                    "SimHash bucket (block=%d) of %d docs truncated to %d",
                    bd[s], e - s, max_bucket,
                )
                e = s + max_bucket
            ai, bi = np.triu_indices(e - s, k=1)
            x = h[s:e][ai] ^ h[s:e][bi]
            # vectorized popcount (numpy < 2.0 has no bit_count ufunc)
            ham = np.zeros(len(x), dtype=np.int64)
            v = x.copy()
            while v.any():
                ham += (v & np.uint64(1)).astype(np.int64)
                v >>= np.uint64(1)
            keep = ham <= max_hamming
            out_a.extend(ids[s:e][ai[keep]].tolist())
            out_b.extend(ids[s:e][bi[keep]].tolist())
            out_h.extend(ham[keep].tolist())
        return pd.DataFrame(
            {
                "a": pd.Series(out_a, dtype="int64"),
                "b": pd.Series(out_b, dtype="int64"),
                "hamming": pd.Series(out_h, dtype="int64"),
            }
        )

    return (
        sigs.map_batches(explode, batch_format="pyarrow")
        .groupby("gkey")
        .map_groups(bucket_verify, batch_format="pandas")
        # arrow blocks: pandas-block multi-key aggregates are a ~20x Ray
        # 2.49 slow path (user_retention measurement, round 4)
        .map_batches(lambda t: t, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Min("hamming", alias_name="hamming"))
    )


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_hash_batch(t: pa.Table) -> pa.Table:
    """(doc_id, text_hash=md5 hex) — matches DuckDB md5(text)."""
    return pa.table(
        {
            "doc_id": t.column("doc_id"),
            "text_hash": pa.array(
                [hashlib.md5((x or "").encode()).hexdigest() for x in t.column("text").to_pylist()],
                pa.string(),
            ),
        }
    )


def exact_dedup_group(df: pd.DataFrame) -> pd.DataFrame:
    """groupby(text_hash): keep min doc_id, count the group."""
    return pd.DataFrame(
        {
            "text_hash": [df["text_hash"].iloc[0]],
            "keep_doc_id": [int(df["doc_id"].min())],
            "n_dups": [len(df)],
        }
    )


def normalized_dedup(docs_ds, num_groups: int = 256):
    """Exact dedup AFTER canonicalization (the C4/CCNet "near-exact" rule:
    differently-encoded accents or whitespace runs must not defeat
    exact-hash dedup): NFC + ASCII-whitespace-run collapse + trim (the
    `textstats.normalize_text_batch` kernel, whose md5 is already pinned
    against DuckDB's nfc_normalize mirror by the normalize_text gate),
    then first-wins per normalized hash.  Output (norm_md5, keep_doc_id,
    n_dups) — the normalized analogue of exact_dedup's row shape.

    Scale shape: unlike exact_dedup's per-hash map_groups (one tiny group
    per distinct text), this groups by a COARSE hash of the md5
    (~num_groups vectorized run-scans; CLAUDE.md tiny-groups rule) — the
    shuffle ships (32-hex, int64) pairs only, the payload never moves."""
    from grawler_ray.functions.textstats import normalize_text_batch

    def prep(t: pa.Table) -> pa.Table:
        n = normalize_text_batch(t)
        return pa.table({"doc_id": n.column("doc_id"), "norm_md5": n.column("norm_md5")})

    empty = pa.schema(
        [
            pa.field("norm_md5", pa.string()),
            pa.field("keep_doc_id", pa.int64()),
            pa.field("n_dups", pa.int64()),
        ]
    )

    def dedup_runs(t: pa.Table) -> pa.Table:
        # pyarrow-format map_groups: empty partitions of the sparse group
        # key space emit ARROW blocks (CLAUDE.md block-type rule)
        if t.num_rows == 0:
            return empty.empty_table()
        df = t.to_pandas().sort_values(["norm_md5", "doc_id"])
        codes = pd.factorize(df["norm_md5"].to_numpy())[0]
        idx = np.arange(len(df))
        is_start = np.concatenate(([True], np.diff(codes) != 0))
        starts = idx[is_start]
        run_len = np.diff(np.append(starts, len(df)))
        return pa.table(
            {
                "norm_md5": pa.array(
                    df["norm_md5"].to_numpy()[starts].tolist(), pa.string()
                ),
                # runs are (md5, id)-sorted, so the run head IS the min id
                "keep_doc_id": pa.array(
                    df["doc_id"].to_numpy()[starts], pa.int64()
                ),
                "n_dups": pa.array(run_len.astype(np.int64), pa.int64()),
            }
        )

    return coarse_groupby(
        docs_ds.map_batches(prep, batch_format="pyarrow"), "norm_md5", dedup_runs, num_groups
    )


# ---------------------------------------------------------------------------
# dedup clusters: connected components over near-dup pairs
# ---------------------------------------------------------------------------

def dedup_components(
    docs_ds,
    pairs_ds,
    max_iters: int = 30,
    num_groups: int = 64,
    driver_max_edges: int = 400_000,
):
    """Connected components over a near-dup pair set: every doc gets a
    ``component`` id = the MIN doc_id reachable through pairs (singleton docs
    are their own component).  This is the step that turns any of the pair
    generators above (minhash / simhash / ngram / embedding) into an
    actionable keep-set: keep doc_id == component, drop the rest.

    Algorithm: iterative min-label propagation (the bounded-diameter
    special case of Kiveris et al.'s star-contraction family, "Connected
    Components in MapReduce", SoCC'14) — near-dup clusters have tiny
    diameters, so convergence is a handful of rounds.  The iteration runs
    over ACTIVE nodes only (edge endpoints — a node with no edges can never
    change label), so its width is ∝ dup pairs, never ∝ corpus; singleton
    docs merge back in ONE final coarse-hash pass.  Each round is two
    ``coarse_cogroup`` exchanges on the node: symmetric edges with labels
    (each edge forwards its node's label to dst), then labels with those
    messages (min label per node); labels only ever decrease, so the
    driver-side convergence check is one label sum per round, added up
    from per-block partial sums (labels stay distributed throughout).

    Returns a Dataset of (doc_id, component).
    """
    import ray.data
    from ray.data.aggregate import Min

    def sym_edges(df: pd.DataFrame) -> pd.DataFrame:
        # (doc_id, dst): the node column carries the docs' key name, so the
        # exchanges below cogroup edges, labels and docs on one key
        a = df["a"].to_numpy().astype(np.int64)
        b = df["b"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {"doc_id": np.concatenate([a, b]), "dst": np.concatenate([b, a])}
        )

    edges = pairs_ds.map_batches(sym_edges, batch_format="pandas").materialize()

    def singleton_labels(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.int64)
        return pd.DataFrame({"doc_id": ids, "component": ids})

    all_self = docs_ds.select_columns(["doc_id"]).map_batches(
        singleton_labels, batch_format="pandas"
    )
    n_edges = edges.count()
    if n_edges == 0:
        return all_self
    if n_edges <= driver_max_edges:
        # Size-adaptive small path: the pair set is the SMALL side (edges ∝
        # near-dups found, never ∝ corpus), so below the threshold a driver
        # union-find over the edge list (memory ∝ dup pairs) replaces
        # max_iters shuffle rounds of fixed launch cost; the label map is
        # broadcast ONCE (ray.put) and attached in a stateless map over the
        # docs.  Above the threshold the distributed min-label propagation
        # below takes over — same output, asserted equal in
        # tests/test_dedup_pipelines.py (driver_max_edges=0 forces it).
        import ray

        ep = edges.to_pandas()
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            r = x
            while parent.setdefault(r, r) != r:
                r = parent[r]
            while parent[x] != r:
                parent[x], x = r, parent[x]
            return r

        for a, b in zip(ep["doc_id"].to_numpy(), ep["dst"].to_numpy()):
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        nodes = np.array(sorted(parent), np.int64)
        labels = np.fromiter((find(int(n)) for n in nodes), np.int64, len(nodes))
        ref = ray.put((nodes, labels))

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            nd, lb = ray.get(ref)
            ids = df["doc_id"].to_numpy().astype(np.int64)
            pos = np.minimum(np.searchsorted(nd, ids), len(nd) - 1)
            comp = np.where(nd[pos] == ids, lb[pos], ids)
            return pd.DataFrame({"doc_id": ids, "component": comp})

        return docs_ds.select_columns(["doc_id"]).map_batches(
            attach, batch_format="pandas"
        )

    labels = (
        edges.select_columns(["doc_id"])
        .groupby("doc_id")
        .aggregate(Min("doc_id", alias_name="label"))
        .materialize()
    )

    def propagate(t: pa.Table) -> pa.Table:
        # leg 0: edges (doc_id, dst); leg 1: labels (doc_id, label).  Each
        # edge forwards its node's current label to dst.
        leg = t.column(LEG).to_numpy()
        edge, lab = t.filter(leg == 0), t.filter(leg == 1)
        pos, ok = key_index(lab.column("doc_id").to_numpy(), edge.column("doc_id").to_numpy())
        return pa.table({
            "doc_id": edge.column("dst").filter(pa.array(ok)),
            "label": pa.array(lab.column("label").to_numpy()[pos[ok]], pa.int64()),
        })

    def min_label(t: pa.Table) -> pa.Table:
        # labels and messages: the smallest label per node
        node = t.column("doc_id").to_numpy()
        label = t.column("label").to_numpy()
        order = np.lexsort((label, node))
        node, label = node[order], label[order]
        first = np.concatenate(([True], node[1:] != node[:-1]))
        return pa.table({"doc_id": node[first], "label": label[first]})

    prev_sum = None
    for _ in range(max_iters):
        # materialized: the label merge reads the messages' schema
        msgs = coarse_cogroup([edges, labels], "doc_id", propagate, num_groups).materialize()
        # repartition re-bounds the label table's block count: the merge
        # chain otherwise compounds blocks per round (shuffle output
        # partitions track input blocks), turning k rounds into 2^k
        # per-block fixed cost — measured on pagerank's identical loop
        labels = materialize_loop_state(
            coarse_cogroup([labels, msgs], "doc_id", min_label, num_groups).repartition(num_groups)
        )
        cur = block_sum(labels, "label")
        if cur == prev_sum:  # labels are monotone non-increasing => fixpoint
            break
        prev_sum = cur

    def pick(t: pa.Table) -> pa.Table:
        # leg 0: docs (doc_id); leg 1: active labels (doc_id, label).  An
        # active label overrides the self-label (one coarse node-hash
        # exchange over the docs, once, not once per round).
        node = t.column("doc_id").to_numpy()
        label = pc.coalesce(t.column("label"), t.column("doc_id")).to_numpy()
        order = np.lexsort((t.column(LEG).to_numpy(), node))  # active last
        node, label = node[order], label[order]
        last = np.concatenate((node[1:] != node[:-1], [True]))
        return pa.table({"doc_id": node[last], "component": label[last]})

    return coarse_cogroup(
        [docs_ds.select_columns(["doc_id"]), labels], "doc_id", pick, num_groups
    )


# ---------------------------------------------------------------------------
# incremental near-dup: new docs vs a persisted MinHash index
# ---------------------------------------------------------------------------

def _index_explode(
    t: pa.Table, a: np.ndarray, b: np.ndarray, num_bands: int, num_buckets: int
) -> pa.Table:
    """Shared build/update kernel: one doc batch -> tagged band rows
    (kind 0, bucketed by hash(band, band_hash)) + blob rows (kind 1,
    bucketed by hash(doc_id))."""
    doc_ids = t.column("doc_id").to_pylist()
    sig_rows, blobs = [], []
    for sh in shingles_batch(t.column("text").to_pylist()):
        sig_rows.append(minhash_signature(sh, a, b))
        blobs.append(sh.tobytes())  # sorted-unique already
    n = len(doc_ids)
    if n == 0:
        return pa.table(
            {
                "kind": pa.array([], pa.int8()),
                "gk": pa.array([], pa.int32()),
                "band": pa.array([], pa.int32()),
                "band_hash": pa.array([], pa.int64()),
                "doc_id": pa.array([], pa.int64()),
                "sh": pa.array([], pa.binary()),
            }
        )
    ids = np.asarray(doc_ids, np.int64)
    bh, gk = band_hash_matrix(np.vstack(sig_rows), num_bands, num_buckets)
    blob_gk = coarse_group(ids, num_buckets)
    n_band = n * num_bands
    return pa.table(
        {
            "kind": pa.array(
                np.concatenate([np.zeros(n_band, np.int8), np.ones(n, np.int8)]),
                pa.int8(),
            ),
            "gk": pa.array(
                np.concatenate([gk.ravel(), blob_gk]), pa.int32()
            ),
            "band": pa.array(
                np.concatenate(
                    [np.tile(np.arange(num_bands, dtype=np.int32), n), np.zeros(n, np.int32)]
                ),
                pa.int32(),
            ),
            "band_hash": pa.array(
                np.concatenate([bh.ravel(), np.zeros(n, np.int64)]), pa.int64()
            ),
            "doc_id": pa.array(
                np.concatenate([np.repeat(ids, num_bands), ids]), pa.int64()
            ),
            "sh": pa.array([None] * n_band + blobs, pa.binary()),
        }
    )


def update_minhash_index(new_docs_ds, index_dir: str, run_tag: str) -> dict:
    """Append an increment to a persisted MinHash index IN PLACE — the
    continuous-crawl maintenance step: the corpus is indexed ONCE
    (build_minhash_index), each later increment is first deduped against
    it (minhash_dedup_incremental) and then appended here, so the index
    always covers corpus ∪ increments without ever reprocessing the
    corpus.  Parameters come from the index's meta.json (they MUST — a
    different seed/band count would make the increment unfindable).

    Each touched bucket gains one ``part-{run_tag}.parquet`` with the
    build's sort order; the probes read bucket DIRECTORIES, so
    multi-file buckets need no compaction, and the deterministic name
    makes retried/re-run updates overwrite rather than duplicate.
    Re-adding an already-indexed doc_id wastes space but cannot corrupt
    results (probe candidates dedup on (new_id, doc_id); blob lookups
    key by doc_id).  meta.json counts are updated and the tag recorded.
    Returns the new meta dict."""
    import json as _json
    import os as _os

    import pyarrow.parquet as _pq

    if "/" in run_tag or not run_tag:
        raise ValueError("run_tag must be a non-empty path-safe token")
    with open(_os.path.join(index_dir, "meta.json")) as f:
        meta = _json.load(f)
    if run_tag in meta.get("updates", []):
        raise ValueError(f"run_tag {run_tag!r} already applied to this index")
    num_bands, num_buckets = meta["num_bands"], meta["num_buckets"]
    a, b = _perm_params(meta["num_perm"], meta["seed"])

    def explode(t: pa.Table) -> pa.Table:
        return _index_explode(t, a, b, num_bands, num_buckets)

    def write_group(t: pa.Table) -> pa.Table:
        kind = int(t.column("kind")[0].as_py())
        k = int(t.column("gk")[0].as_py())
        if kind == 0:
            sub = (
                t.select(["band", "band_hash", "doc_id"])
                .sort_by([("band", "ascending"), ("band_hash", "ascending")])
            )
            d = _os.path.join(index_dir, "bands", f"bucket={k}")
        else:
            sub = t.select(["doc_id", "sh"]).sort_by("doc_id")
            d = _os.path.join(index_dir, "blobs", f"bucket={k}")
        _os.makedirs(d, exist_ok=True)
        _pq.write_table(sub, _os.path.join(d, f"part-{run_tag}.parquet"))
        return pa.table(
            {"kind": pa.array([kind], pa.int8()), "rows": pa.array([sub.num_rows], pa.int64())}
        )

    manifest = (
        new_docs_ds.select_columns(["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby(["kind", "gk"])
        .map_groups(write_group, batch_format="pyarrow")
        .to_pandas()
    )
    meta["band_rows"] += int(manifest[manifest["kind"] == 0]["rows"].sum())
    meta["docs"] += int(manifest[manifest["kind"] == 1]["rows"].sum())
    meta.setdefault("updates", []).append(run_tag)
    with open(_os.path.join(index_dir, "meta.json"), "w") as f:
        _json.dump(meta, f)
    return meta


def compact_index_dir(index_dir: str, subdirs: tuple = ("bands", "blobs"), sort_keys: dict | None = None) -> dict:
    """Merge each bucket's accumulated ``part-*.parquet`` increments back
    into one sorted ``part.parquet`` — the read-amplification fix after
    many ``update_*_index`` appends (every probe opens every file in its
    bucket; N daily increments = N× file opens until compacted).

    Runs as a Ray task per bucket (``flat_map`` over the bucket list —
    buckets are independent, so compaction parallelizes and a re-run is
    idempotent: single-file buckets are skipped).  The rewrite is
    write-then-swap per bucket (new file written as part.parquet.tmp,
    os.replace, then increments unlinked), so a killed compaction never
    leaves a bucket unreadable.  ``sort_keys`` maps subdir name ->
    sort_by spec (defaults to the minhash layouts).  Returns
    {"compacted": n, "skipped": n}."""
    import os as _os

    import pyarrow.parquet as _pq
    import ray
    import ray.data

    if sort_keys is None:
        sort_keys = {
            "bands": [("band", "ascending"), ("band_hash", "ascending")],
            "blobs": [("doc_id", "ascending")],
        }
    work = []
    for sub in subdirs:
        base = _os.path.join(index_dir, sub)
        if not _os.path.isdir(base):
            continue
        for bucket in sorted(_os.listdir(base)):
            d = _os.path.join(base, bucket)
            if _os.path.isdir(d):
                work.append({"dir": d, "sub": sub})
    if not work:
        return {"compacted": 0, "skipped": 0}

    def compact_one(row: dict) -> list[dict]:
        d, sub = row["dir"], row["sub"]
        files = sorted(
            f for f in _os.listdir(d) if f.endswith(".parquet")
        )
        if len(files) <= 1:
            return [{"compacted": 0, "skipped": 1}]
        merged = pa.concat_tables(
            [_pq.read_table(_os.path.join(d, f)) for f in files]
        ).sort_by(sort_keys[sub])
        tmp = _os.path.join(d, "part.parquet.tmp")
        _pq.write_table(merged, tmp)
        _os.replace(tmp, _os.path.join(d, "part.parquet"))
        for f in files:
            if f != "part.parquet":
                _os.unlink(_os.path.join(d, f))
        return [{"compacted": 1, "skipped": 0}]

    out = ray.data.from_items(work).flat_map(compact_one).to_pandas()
    return {
        "compacted": int(out["compacted"].sum()),
        "skipped": int(out["skipped"].sum()),
    }


def build_minhash_index(
    docs_ds,
    index_dir: str,
    threshold_note: str = "",
    num_perm: int = 128,
    seed: int = 1,
    num_bands: int = 16,
    num_buckets: int = 64,
) -> dict:
    """Persist a corpus' MinHash/LSH state for INCREMENTAL dedup: new data
    (a daily crawl increment) is deduped against the existing corpus via
    point reads — the corpus is never reprocessed.  Layout (the crawl
    corpus' bucketed point-join trick, sources/corpus.py):

      {index_dir}/bands/bucket={k}/part.parquet   (band, band_hash, doc_id),
          k = hash(band, band_hash) % num_buckets, sorted by (band, band_hash)
          => a probe reads only touched buckets with a band_hash IN pushdown;
      {index_dir}/blobs/bucket={k}/part.parquet   (doc_id, sh blob),
          k = hash(doc_id) % num_buckets, sorted by doc_id
          => candidate verification point-reads only candidate docs' blobs;
      meta.json pins (num_perm, seed, num_bands, num_buckets).

    Deterministic per-bucket file names => retried build tasks are
    idempotent.  Returns the meta dict."""
    import json as _json
    import os as _os
    import shutil as _shutil

    import pyarrow.parquet as _pq

    a, b = _perm_params(num_perm, seed)
    _shutil.rmtree(index_dir, ignore_errors=True)
    _os.makedirs(index_dir, exist_ok=True)

    def explode(t: pa.Table) -> pa.Table:
        return _index_explode(t, a, b, num_bands, num_buckets)

    def write_group(t: pa.Table) -> pa.Table:
        kind = int(t.column("kind")[0].as_py())
        k = int(t.column("gk")[0].as_py())
        if kind == 0:
            sub = (
                t.select(["band", "band_hash", "doc_id"])
                .sort_by([("band", "ascending"), ("band_hash", "ascending")])
            )
            d = _os.path.join(index_dir, "bands", f"bucket={k}")
        else:
            sub = t.select(["doc_id", "sh"]).sort_by("doc_id")
            d = _os.path.join(index_dir, "blobs", f"bucket={k}")
        _os.makedirs(d, exist_ok=True)
        _pq.write_table(sub, _os.path.join(d, "part.parquet"))
        return pa.table(
            {"kind": pa.array([kind], pa.int8()), "rows": pa.array([sub.num_rows], pa.int64())}
        )

    manifest = (
        docs_ds.select_columns(["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby(["kind", "gk"])
        .map_groups(write_group, batch_format="pyarrow")
        .to_pandas()
    )
    meta = {
        "num_perm": num_perm,
        "seed": seed,
        "num_bands": num_bands,
        "num_buckets": num_buckets,
        "band_rows": int(manifest[manifest["kind"] == 0]["rows"].sum()),
        "docs": int(manifest[manifest["kind"] == 1]["rows"].sum()),
    }
    with open(_os.path.join(index_dir, "meta.json"), "w") as f:
        _json.dump(meta, f)
    return meta


def minhash_dedup_incremental(
    new_docs_ds, index_dir: str, threshold: float = 0.8, max_candidates_per_doc: int = 1024
):
    """Near-dup pairs BETWEEN new docs and an indexed corpus (new-internal
    dups are `minhash_dedup`'s job).  Two bucketed point-join stages, read
    volume ∝ the increment, never ∝ the corpus:

      1. new docs -> band rows grouped by the index's band-bucket key; each
         group reads ITS band bucket once with a `band_hash IN` pushdown and
         emits candidate (new_id, old_id) pairs (hot buckets capped+logged);
      2. candidates grouped by the index's blob-bucket key; each group reads
         ITS blob bucket with a `doc_id IN` pushdown and Jaccard-verifies
         in place (the new doc's blob rides the candidate row).

    Returns a Dataset of (new_id, old_id, jaccard >= threshold)."""
    import json as _json
    import os as _os

    import pyarrow.dataset as _pads

    with open(_os.path.join(index_dir, "meta.json")) as f:
        meta = _json.load(f)
    num_perm, seed = meta["num_perm"], meta["seed"]
    num_bands, num_buckets = meta["num_bands"], meta["num_buckets"]
    a, b = _perm_params(num_perm, seed)
    from ray.data.aggregate import Min

    def explode(t: pa.Table) -> pa.Table:
        doc_ids = t.column("doc_id").to_pylist()
        sig_rows, doc_blobs = [], []
        for sh in shingles_batch(t.column("text").to_pylist()):
            sig_rows.append(minhash_signature(sh, a, b))
            doc_blobs.append(sh.tobytes())  # sorted-unique already
        n = len(doc_ids)
        if n == 0:
            return pa.table(
                {
                    "gk": pa.array([], pa.int32()),
                    "band": pa.array([], pa.int32()),
                    "band_hash": pa.array([], pa.int64()),
                    "new_id": pa.array([], pa.int64()),
                    "sh": pa.array([], pa.binary()),
                }
            )
        ids = np.asarray(doc_ids, np.int64)
        bh, gk = band_hash_matrix(np.vstack(sig_rows), num_bands, num_buckets)
        return pa.table(
            {
                "gk": pa.array(gk.ravel(), pa.int32()),
                "band": pa.array(np.tile(np.arange(num_bands, dtype=np.int32), n), pa.int32()),
                "band_hash": pa.array(bh.ravel(), pa.int64()),
                "new_id": pa.array(np.repeat(ids, num_bands), pa.int64()),
                "sh": pa.array(
                    [blob for blob in doc_blobs for _ in range(num_bands)], pa.binary()
                ),
            }
        )

    def probe_bands(t: pa.Table) -> pa.Table:
        k = int(t.column("gk")[0].as_py())
        path = _os.path.join(index_dir, "bands", f"bucket={k}")
        empty = pa.table(
            {
                "gk2": pa.array([], pa.int32()),
                "new_id": pa.array([], pa.int64()),
                "old_id": pa.array([], pa.int64()),
                "sh": pa.array([], pa.binary()),
            }
        )
        if not _os.path.isdir(path):
            return empty
        df = t.to_pandas().sort_values(["band", "band_hash"]).drop_duplicates(
            ["band", "band_hash", "new_id"]
        )
        idx = _pads.dataset(path, format="parquet").to_table(
            filter=_pads.field("band_hash").isin(df["band_hash"].unique())
        )
        if idx.num_rows == 0:
            return empty
        it = idx.to_pandas()
        merged = df.merge(it, on=["band", "band_hash"], how="inner")
        if len(merged) == 0:
            return empty
        merged = merged.drop_duplicates(["new_id", "doc_id"])
        counts = merged.groupby("new_id", sort=False)["doc_id"].transform("size")
        over = counts > max_candidates_per_doc
        if over.any():
            logging.getLogger("grawler_ray.dedup").warning(
                "incremental probe: %d candidate rows over the %d/doc cap dropped",
                int(over.sum()), max_candidates_per_doc,
            )
            merged = merged[~over | (merged.groupby("new_id", sort=False).cumcount() < max_candidates_per_doc)]
        old = merged["doc_id"].to_numpy().astype(np.int64)
        g2 = coarse_group(old, num_buckets)
        return pa.table(
            {
                "gk2": pa.array(g2, pa.int32()),
                "new_id": pa.array(merged["new_id"].to_numpy(), pa.int64()),
                "old_id": pa.array(old, pa.int64()),
                "sh": pa.array(merged["sh"].tolist(), pa.binary()),
            }
        )

    def verify_blobs(t: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "new_id": pa.array([], pa.int64()),
                "old_id": pa.array([], pa.int64()),
                "jaccard": pa.array([], pa.float64()),
            }
        )
        if t.num_rows == 0:
            return empty
        k = int(t.column("gk2")[0].as_py())
        path = _os.path.join(index_dir, "blobs", f"bucket={k}")
        if not _os.path.isdir(path):
            return empty
        df = t.to_pandas().drop_duplicates(["new_id", "old_id"])
        blobs = _pads.dataset(path, format="parquet").to_table(
            filter=_pads.field("doc_id").isin(df["old_id"].unique())
        )
        lookup = dict(zip(blobs.column("doc_id").to_pylist(), blobs.column("sh").to_pylist()))
        out_n, out_o, out_j = [], [], []
        for new_id, old_id, sh in zip(df["new_id"], df["old_id"], df["sh"]):
            ob = lookup.get(old_id)
            if ob is None:
                continue
            j = _blob_jaccard(sh, ob)
            if j >= threshold:
                out_n.append(int(new_id))
                out_o.append(int(old_id))
                out_j.append(j)
        return pa.table(
            {
                "new_id": pa.array(out_n, pa.int64()),
                "old_id": pa.array(out_o, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return (
        new_docs_ds.select_columns(["doc_id", "text"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("gk")
        .map_groups(probe_bands, batch_format="pyarrow")
        .groupby("gk2")
        .map_groups(verify_blobs, batch_format="pyarrow")
        .groupby(["new_id", "old_id"])
        .aggregate(Min("jaccard", alias_name="jaccard"))
    )


def _dup_span_stats_join(docs_ds, windows_fn, min_count: int, num_groups: int):
    """dup_span_stats strategy="join": no driver state, no broadcast.

    One row per (doc, window position) carrying the 8-byte span hash; ONE
    coarse span-hash shuffle.  All positions of a given span text share a
    group, so the in-group run length is the corpus-wide site count — the
    dup decision is purely local to the group.  A zero-hash "base" row per
    doc (grouped by doc-hash) keeps 0-window docs in the output.  Final
    (doc_id) groupby sums the per-group partials.
    """
    from ray.data.aggregate import Sum

    from ..urlops import xxhash64_batch

    def positions(t: pa.Table) -> pa.Table:
        doc_ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column("text").to_pylist()
        out_doc, spans = [], []
        base_doc = []
        for did, s in zip(doc_ids, texts):
            ws = windows_fn(s or "")
            out_doc.extend([did] * len(ws))
            spans.extend(ws)
            base_doc.append(did)
        h = xxhash64_batch(spans) if spans else np.zeros(0, np.uint64)
        gk_pos = coarse_group(h, num_groups)
        base_gk = coarse_group(np.asarray(base_doc, np.int64), num_groups)
        return pa.table(
            {
                "gk": pa.array(np.concatenate([gk_pos, base_gk]), pa.int32()),
                "doc_id": pa.array(
                    np.concatenate(
                        [np.asarray(out_doc, np.int64), np.asarray(base_doc, np.int64)]
                    ),
                    pa.int64(),
                ),
                "h": pa.array(
                    np.concatenate(
                        [h.view(np.int64), np.zeros(len(base_doc), np.int64)]
                    ),
                    pa.int64(),
                ),
                "is_base": pa.array(
                    np.concatenate(
                        [np.zeros(len(out_doc), np.int8), np.ones(len(base_doc), np.int8)]
                    ),
                    pa.int8(),
                ),
            }
        )

    part_schema = pa.schema(
        [
            pa.field("doc_id", pa.int64()),
            pa.field("nw_part", pa.int64()),
            pa.field("nd_part", pa.int64()),
        ]
    )

    def group_partials(t: pa.Table) -> pa.Table:
        # pyarrow in/out: empty partitions of the sparse gk space emit
        # arrow blocks (CLAUDE.md rule)
        if t.num_rows == 0:
            return part_schema.empty_table()
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        h = t.column("h").to_numpy(zero_copy_only=False)
        is_base = t.column("is_base").to_numpy(zero_copy_only=False) == 1
        posn = ~is_base
        dref, href = doc[posn], h[posn]
        order = np.lexsort((dref, href))
        hs = href[order]
        n = len(hs)
        dup_sorted = np.zeros(n, bool)
        if n:
            starts = np.concatenate(([True], hs[1:] != hs[:-1]))
            run_id = np.cumsum(starts) - 1
            run_len = np.bincount(run_id)
            dup_sorted = run_len[run_id] >= min_count
        dup = np.zeros(n, bool)
        dup[order] = dup_sorted
        # per-doc partials for this group (vectorized two-key bincount)
        all_doc = np.concatenate([dref, doc[is_base]])
        all_w = np.concatenate([np.ones(n, np.int64), np.zeros(int(is_base.sum()), np.int64)])
        all_d = np.concatenate([dup.astype(np.int64), np.zeros(int(is_base.sum()), np.int64)])
        uniq, inv = np.unique(all_doc, return_inverse=True)
        nw = np.bincount(inv, weights=all_w).astype(np.int64)
        nd = np.bincount(inv, weights=all_d).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(uniq, pa.int64()),
                "nw_part": pa.array(nw, pa.int64()),
                "nd_part": pa.array(nd, pa.int64()),
            }
        )

    out = (
        docs_ds.map_batches(positions, batch_format="pyarrow")
        .groupby("gk")
        .map_groups(group_partials, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(
            Sum("nw_part", alias_name="n_windows"),
            Sum("nd_part", alias_name="n_dup_windows"),
        )
    )

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_windows": pc.cast(t.column("n_windows"), pa.int64()),
                "n_dup_windows": pc.cast(t.column("n_dup_windows"), pa.int64()),
            }
        )

    return out.map_batches(norm, batch_format="pyarrow")


def dup_span_stats(
    docs_ds,
    window: int = 40,
    stride: int = 10,
    min_count: int = 2,
    driver_max_spans: int = 2_000_000,
    strategy: str = "auto",
    num_groups: int = 256,
):
    """Exact-substring duplication stats (the window-hash approximation of
    Lee et al. 2022, "Deduplicating Training Data Makes Language Models
    Better" — the paper's ExactSubstr uses suffix arrays; at cluster scale
    the standard approximation is fixed-length windows, e.g. the
    text-dedup/RedPajama pipelines).  A document's span is duplicated when
    its exact window text occurs at >= ``min_count`` (doc, position) sites
    corpus-wide — boilerplate paragraphs, license blocks and mirrored
    articles light up even when whole-doc hashes differ.

    Semantics pinned for the `dup_spans` SQL oracle: windows are CHARACTER
    substrings of length ``window`` starting at 0, stride, 2*stride, ...
    while start + window <= len(text); a doc shorter than ``window`` has 0
    windows.  Output one row per doc: (doc_id, n_windows, n_dup_windows)
    where n_dup_windows counts window POSITIONS whose text is globally
    duplicated (within-doc repeats count at both sites, matching the SQL).

    ``strategy`` picks the physical plan:

    - ``"broadcast"``: per-batch Counter pre-aggregation -> ONE (span-text)
      groupby-sum shuffle -> survivors (the duplicated-span vocabulary, the
      small tail of the distribution) pulled under ``driver_max_spans`` and
      broadcast ONCE via ray.put -> stateless per-doc recount map.  Exact
      strings ride the shuffle so the DuckDB gate is bit-exact.  Raises
      above the guard.
    - ``"join"``: the 100-TB path — one row per (doc, window position)
      carrying xxhash64(window) (16 B/position), ONE coarse span-hash
      shuffle; because every position of a given span text lands in the
      same group, the in-group h-run length IS the corpus-wide site count,
      so dup flags, per-doc partials and the final (doc_id) sum need no
      driver state and no broadcast at all.  Read/shuffle ∝ positions,
      never ∝ vocabulary.  Equality with the broadcast plan is asserted in
      tests (hash collisions are the documented 2^-64-per-pair
      approximation).
    - ``"auto"``: broadcast, FALLING BACK to join (with a log line) when
      the duplicated-span vocabulary exceeds ``driver_max_spans`` —
      VERDICT r3 item 6: refuse-to-scale became scale.
    """
    import ray
    from collections import Counter
    from ray.data.aggregate import Sum

    if strategy not in ("auto", "broadcast", "join"):
        raise ValueError(f"unknown strategy {strategy!r}")

    def _windows(text: str) -> list[str]:
        n = len(text)
        return [text[p : p + window] for p in range(0, n - window + 1, stride)]

    if strategy == "join":
        return _dup_span_stats_join(docs_ds, _windows, min_count, num_groups)

    def span_partials(t: pa.Table) -> pa.Table:
        c = Counter()
        for s in t.column("text").to_pylist():
            c.update(_windows(s or ""))
        return pa.table(
            {
                "s": pa.array(list(c.keys()), pa.string()),
                "n_part": pa.array(list(c.values()), pa.int64()),
            }
        )

    def only_dup(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("n"), min_count))

    hot = (
        docs_ds.map_batches(span_partials, batch_format="pyarrow")
        .groupby("s")
        .aggregate(Sum("n_part", alias_name="n"))
        .map_batches(only_dup, batch_format="pyarrow")
        .materialize()
    )
    n_hot = hot.count()
    if n_hot > driver_max_spans:
        if strategy == "auto":
            logging.getLogger("grawler_ray.dedup").warning(
                "dup_span_stats: duplicated-span vocabulary has %d entries "
                "(> %d) — falling back to the hashed shuffle-join plan",
                n_hot, driver_max_spans,
            )
            return _dup_span_stats_join(docs_ds, _windows, min_count, num_groups)
        raise ValueError(
            f"duplicated-span vocabulary has {n_hot} entries "
            f"(> {driver_max_spans}); use strategy='join' at this scale"
        )
    dup_set = frozenset(r["s"] for r in hot.take_all())
    ref = ray.put(dup_set)

    def recount(t: pa.Table) -> pa.Table:
        dup = ray.get(ref)
        n_w, n_d = [], []
        for s in t.column("text").to_pylist():
            ws = _windows(s or "")
            n_w.append(len(ws))
            n_d.append(sum(1 for w in ws if w in dup))
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "n_windows": pa.array(n_w, pa.int64()),
                "n_dup_windows": pa.array(n_d, pa.int64()),
            }
        )

    return docs_ds.map_batches(recount, batch_format="pyarrow")


def dedup_keep_longest(docs_ds, pairs_ds, length_col: str = "n_chars",
                       num_groups: int = 256, driver_max_edges: int = 2_000_000,
                       driver_max_docs: int = 5_000_000):
    """Representative selection over near-dup components with the
    keep-LONGEST policy (the common alternative to prep_corpus's
    keep-min-doc_id): every doc gets (component, keep_doc_id) where
    keep_doc_id is the component member with the greatest ``length_col``
    (doc_id ascending breaks ties).

    Shape: dedup_components labels (its documented scale path), ONE
    repartition_join to attach lengths, then ONE coarse component-hash
    shuffle where each group picks representatives with a vectorized
    (component, -length, doc_id) sort + run-scan — never per-component
    Python groups (CLAUDE.md coarse-key rule).

    Size-adaptive small path (the pagerank pattern, round 4): below
    ``driver_max_docs`` the length attach + pick run as driver numpy over
    the pulled (doc_id, component) / (doc_id, length) int columns — the
    join and pick exchanges are pure fixed cost (~2-3 s each) on tables
    whose arithmetic is sub-millisecond.  Identical sort rule, asserted
    equal to the distributed plan in tests.
    """
    import ray.data

    from .joins import repartition_join

    comp = dedup_components(
        docs_ds, pairs_ds, driver_max_edges=driver_max_edges
    )

    n_docs = docs_ds.count()
    if n_docs is not None and n_docs <= driver_max_docs:
        cp = comp.to_pandas()
        ids = cp["doc_id"].to_numpy().astype(np.int64)
        comps = cp["component"].to_numpy().astype(np.int64)
        lp = docs_ds.select_columns(["doc_id", length_col]).to_pandas()
        lid = lp["doc_id"].to_numpy().astype(np.int64)
        lval = lp[length_col].to_numpy().astype(np.int64)
        o = np.argsort(lid, kind="stable")
        lid, lval = lid[o], lval[o]
        lengths = lval[np.searchsorted(lid, ids)]
        order = np.lexsort((ids, -lengths, comps))
        ids, comps = ids[order], comps[order]
        is_start = np.concatenate(([True], comps[1:] != comps[:-1])) if len(comps) else np.array([], bool)
        run_id = np.cumsum(is_start) - 1 if len(comps) else np.array([], np.int64)
        keep = ids[np.flatnonzero(is_start)][run_id] if len(comps) else np.array([], np.int64)
        # arrow block on purpose: matches the distributed plan's block type
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "component": pa.array(comps, pa.int64()),
                    "keep_doc_id": pa.array(keep, pa.int64()),
                }
            )
        )
    joined = repartition_join(
        comp,
        docs_ds.select_columns(["doc_id", length_col]).rename_columns(
            {"doc_id": "rj_doc_id"}
        ),
        on_left="doc_id",
        on_right="rj_doc_id",
    )

    out_schema = pa.schema(
        [
            pa.field("doc_id", pa.int64()),
            pa.field("component", pa.int64()),
            pa.field("keep_doc_id", pa.int64()),
        ]
    )

    def pick(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        df = t.select(["doc_id", "component", length_col]).to_pandas()
        df = df.sort_values(
            ["component", length_col, "doc_id"], ascending=[True, False, True]
        )
        comp_arr = df["component"].to_numpy()
        n = len(df)
        is_start = np.concatenate(([True], comp_arr[1:] != comp_arr[:-1]))
        run_id = np.cumsum(is_start) - 1
        ids = df["doc_id"].to_numpy()
        keep = ids[np.flatnonzero(is_start)][run_id]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "component": pa.array(comp_arr, pa.int64()),
                "keep_doc_id": pa.array(keep, pa.int64()),
            }
        )

    return coarse_groupby(joined, "component", pick, num_groups)


def snapshot_diff(ds_a, ds_b, key_col: str = "doc_id", payload_col: str = "text",
                  num_groups: int = 256):
    """Recrawl/set reconciliation between two corpus snapshots: for every
    key in either side, classify it as 'added' (B only), 'removed' (A
    only), 'changed' (both, payload md5 differs) or 'unchanged'.  The op a
    refresh crawl runs to decide what to re-process downstream.

    Shape: each side maps to (key, md5(payload)) — payloads never move,
    16-byte digests do — then ONE coarse key-hash ``coarse_cogroup`` (int64
    or string keys; the leg index is the side) classifies each group with
    vectorized run-scans.
    Assumption: keys are unique within each snapshot (crawl outputs are;
    feed read_documents(dedup='last') otherwise).
    """
    import hashlib as _hashlib

    def digests(t: pa.Table) -> pa.Table:
        hs = [
            _hashlib.md5((x or "").encode()).hexdigest()
            for x in t.column(payload_col).to_pylist()
        ]
        return pa.table({key_col: t.column(key_col), "h": pa.array(hs, pa.string())})

    def classify(t: pa.Table) -> pa.Table:
        # leg 0: snapshot A (key, md5), leg 1: snapshot B
        df = t.select([key_col, "h", LEG]).to_pandas()
        df = df.sort_values([key_col, LEG])
        keys = df[key_col].to_numpy()
        side = df[LEG].to_numpy()
        h = df["h"].to_numpy()
        n = len(df)
        is_start = np.concatenate(([True], keys[1:] != keys[:-1]))
        starts = np.flatnonzero(is_start)
        counts = np.diff(np.append(starts, n))
        # run length 1: the side decides added/removed; run length 2:
        # digest equality decides changed/unchanged (sides sort A first) —
        # all run-scans, no per-key Python loop
        only = counts == 1
        nxt = np.minimum(starts + 1, n - 1)
        same = h[starts] == h[nxt]
        change = np.where(
            only,
            np.where(side[starts] == 1, "added", "removed"),
            np.where(same, "unchanged", "changed"),
        )
        return pa.table(
            {
                key_col: pa.array(keys[starts]).cast(t.schema.field(key_col).type),
                "change": pa.array(change.tolist(), pa.string()),
            }
        )

    legs = [ds.map_batches(digests, batch_format="pyarrow") for ds in (ds_a, ds_b)]
    return coarse_cogroup(legs, key_col, classify, num_groups)


def snapshot_delta(ds_a, ds_b, key_col: str = "doc_id",
                   payload_col: str = "text", num_groups: int = 256):
    """The incremental hand-off after a recrawl: snapshot B rows whose key
    is ADDED or CHANGED vs snapshot A, payloads included, tagged with the
    classification — exactly what the downstream prep/training pipeline
    re-processes (everything unchanged/removed is skipped, so work ∝
    churn, not ∝ corpus).

    Shape (100-TB path): phase 1 is snapshot_diff (payloads collapse to
    md5 digests; ONE coarse key exchange); phase 2 joins the changed/
    added key set back onto B with the repartition join — B's payloads
    cross the wire once (the unavoidable cost of emitting the delta with
    payloads from a generic Dataset; a parquet-backed B with key-range
    layout could point-read instead, minhash_incremental-style), A's
    payloads never move, and non-delta B rows die at the in-group merge.
    """
    from .joins import repartition_join

    diff = snapshot_diff(ds_a, ds_b, key_col, payload_col, num_groups)

    def keep_delta(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t.column("change"), pa.array(["added", "changed"])))

    # materialized: repartition_join reads its schema, which would
    # otherwise run the whole diff once more
    delta_keys = diff.map_batches(keep_delta, batch_format="pyarrow").materialize()
    return repartition_join(
        ds_b.select_columns([key_col, payload_col]),
        delta_keys,
        key_col,
        key_col,
        num_groups=num_groups,
    )


def change_rate(ds, key_col: str = "doc_id", payload_col: str = "text",
                run_col: str = "run", num_groups: int = 256):
    """Per-key change-frequency estimation across K crawl snapshots — the
    freshness statistic a recrawl scheduler orders the frontier by (Cho &
    Garcia-Molina, "Estimating Frequency of Change", ACM TOIT 2003: the
    X/n change-ratio estimator over n observed intervals).  Reference
    parity: Grawler recrawls blindly (src/crawler.go has no snapshot
    memory); this is the operator that makes its continuous mode
    bandwidth-proportional to what actually changes.

    Input: a union of K snapshots, one row per (key, run, payload); a key
    may be absent from early runs (late discovery).  Output per key:

    - ``n_intervals``  adjacent observed-run pairs (0 if seen once)
    - ``n_changes``    intervals whose payload differs
    - ``change_ratio`` n_changes / n_intervals as float64 (0.0 when
      n_intervals = 0) — the X/n estimator
    - ``last_change_run``  run of the most recent observed change
      (first-seen run when the key never changed)
    - ``stale_runs``   max observed run − last_change_run: rounds since
      the page last moved, the recrawl-priority axis

    Shape (100-TB path): payloads collapse to xxhash64 digests in the map
    stage — 8 B/row crosses the wire, text never does — then ONE coarse
    key-hash shuffle (~num_groups vectorized groups, never per-key) and a
    (key, run)-lexsort run-scan per group: segment boundaries from
    np.diff, per-key change counts via cumsum differences, last-change
    positions via searchsorted into the changed-pair index.  Change
    detection is digest equality (xxhash64 collisions, p ~ 2^-64/pair,
    are the standard trade for not shipping payloads).
    """
    from ..urlops import xxhash64_batch

    def digests(t: pa.Table) -> pa.Table:
        h = xxhash64_batch(
            [x or "" for x in t.column(payload_col).to_pylist()]
        ).view(np.int64)
        return pa.table(
            {
                key_col: t.column(key_col),
                run_col: t.column(run_col),
                "h": pa.array(h, pa.int64()),
            }
        )

    def estimate(t: pa.Table) -> pa.Table:
        # int64 AND string keys both work (np.lexsort compares object arrays)
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        runs = t.column(run_col).to_numpy(zero_copy_only=False)
        h = t.column("h").to_numpy(zero_copy_only=False)
        order = np.lexsort((runs, keys))
        keys, runs, h = keys[order], runs[order], h[order]
        n = len(keys)
        is_start = np.concatenate(([True], keys[1:] != keys[:-1]))
        starts = np.flatnonzero(is_start)
        counts = np.diff(np.append(starts, n))
        last = starts + counts - 1
        # pair i joins rows (i, i+1); valid only inside a segment
        same_key = keys[1:] == keys[:-1]
        changed = same_key & (h[1:] != h[:-1])
        cs = np.concatenate(([0], np.cumsum(changed)))
        n_intervals = counts - 1
        n_changes = cs[last] - cs[starts]
        ratio = n_changes / np.maximum(n_intervals, 1)
        # most recent changed pair per segment: searchsorted into the
        # sorted changed-pair index (runs ascend within a segment, so the
        # last changed pair carries the max run)
        pos = np.flatnonzero(changed)
        lo = np.searchsorted(pos, starts)
        hi = np.searchsorted(pos, last)  # pairs strictly below `last`
        has_change = hi > lo
        if pos.size:
            last_pair = np.where(has_change, pos[np.maximum(hi - 1, 0)], 0)
        else:
            last_pair = np.zeros(len(starts), np.int64)
        last_change_run = np.where(
            has_change, runs[np.minimum(last_pair + 1, n - 1)], runs[starts]
        )
        stale_runs = runs[last] - last_change_run
        return pa.table(
            {
                key_col: pa.array(keys[starts]).cast(t.schema.field(key_col).type),
                "n_intervals": pa.array(n_intervals, pa.int64()),
                "n_changes": pa.array(n_changes, pa.int64()),
                "change_ratio": pa.array(ratio, pa.float64()),
                "last_change_run": pa.array(
                    np.asarray(last_change_run, np.int64), pa.int64()
                ),
                "stale_runs": pa.array(np.asarray(stale_runs, np.int64), pa.int64()),
            }
        )

    return coarse_groupby(
        ds.map_batches(digests, batch_format="pyarrow"), key_col, estimate, num_groups
    )


def dup_ratio_by_source(docs_ds, num_groups: int = 256):
    """Per-source duplication report: for every ``source``, the doc count
    and how many of its docs are exact duplicates (md5 appearing more than
    once CORPUS-wide) — the triage view that tells a pipeline operator
    which feeds are redundant before spending near-dup compute.

    Shape: stateless md5 map -> ONE coarse digest-hash shuffle where each
    md5's run length is its global multiplicity (run-scan, no per-hash
    groups) -> per-source integer sums (sources are low-cardinality; the
    final aggregate is tiny).  All-integer output (source, n_docs,
    n_dup_docs)."""
    from ray.data.aggregate import Sum

    def digests(t: pa.Table) -> pa.Table:
        import hashlib as _hashlib

        hs = [
            _hashlib.md5((x or "").encode()).hexdigest()
            for x in t.column("text").to_pylist()
        ]
        return pa.table(
            {
                "h": pa.array(hs, pa.string()),
                "source": t.column("source"),
            }
        )

    def mark(t: pa.Table) -> pa.Table:
        df = t.select(["h", "source"]).to_pandas().sort_values("h")
        h = df["h"].to_numpy()
        n = len(df)
        is_start = np.concatenate(([True], h[1:] != h[:-1]))
        run_id = np.cumsum(is_start) - 1
        run_len = np.bincount(run_id)
        dup = (run_len[run_id] > 1).astype(np.int64)
        out = (
            pd.DataFrame({"source": df["source"].to_numpy(), "dup": dup})
            # dropna=False: SQL GROUP BY keeps a NULL group; pandas would
            # silently drop null-source rows and diverge (ADVICE r3)
            .groupby("source", sort=False, dropna=False)
            .agg(pn=("dup", "size"), pdup=("dup", "sum"))
            .reset_index()
        )
        src = [None if pd.isna(x) else x for x in out["source"].tolist()]
        return pa.table(
            {
                "source": pa.array(src, pa.string()),
                "pn": pa.array(out["pn"].to_numpy(np.int64), pa.int64()),
                "pdup": pa.array(out["pdup"].to_numpy(np.int64), pa.int64()),
            }
        )

    return (
        coarse_groupby(
            docs_ds.select_columns(["text", "source"]).map_batches(
                digests, batch_format="pyarrow"
            ),
            "h",
            mark,
            num_groups,
        )
        .groupby("source")
        .aggregate(Sum("pn", alias_name="n_docs"), Sum("pdup", alias_name="n_dup_docs"))
    )


def mirror_sources(
    docs_ds,
    k: int = 25,
    prefix_chars: int = 64,
    max_sources: int = 1_000_000,
    max_group_size: int | None = None,
):
    """Mirror detection: the k source pairs sharing the most identical
    content-PREFIX fingerprints (md5 of the first ``prefix_chars``
    characters) — the classic crawl question "which hosts mirror each
    other's content" (cf. Bharat & Broder 1999, 'mirror, mirror on the
    web'); the prefix fingerprint catches templated/mirrored page heads
    that full-body hashing misses (trailing ads/timestamps differ).
    Output (source_x, source_y, n_shared), ordered by the total
    (n_shared DESC, source_x, source_y) rule, ≤ k rows.
    ``prefix_chars`` counts code points on both sides (Python slicing /
    DuckDB substring).

    Composition over ``membership_copair_topk`` with group=fingerprint,
    member=source: the fingerprint-hash exchange moves (16-char fp,
    int32 source-code) rows, pair enumeration is the vectorized in-run
    wedge kernel, and ``max_group_size`` is the boilerplate-hub cap (a
    fingerprint shared by hundreds of sources is a "404 page", not a
    mirror signal).  The source vocabulary is a driver pull, guarded by
    ``max_sources`` — sources are provenance tags / hosts (bounded
    vocabulary), never documents; codes are assigned in sorted order so
    code comparisons and string comparisons rank identically (the SQL
    oracle's ``a.source < b.source`` and tie-breaks match exactly).
    """
    import ray.data

    from .graph import membership_copair_topk

    srcs = sorted(
        docs_ds.select_columns(["source"]).unique("source"),
        key=lambda s: (s is None, s),
    )
    if len(srcs) > max_sources:
        raise ValueError(
            f"mirror_sources: {len(srcs)} distinct sources exceeds "
            f"max_sources={max_sources}; use a hashed-code variant "
            "(xxhash64 source codes + a decode join) at that scale"
        )
    src_arr = np.asarray(srcs, dtype=object)

    def fp_code(t: pa.Table) -> pa.Table:
        texts = t.column("text").to_pylist()
        fps = [
            hashlib.md5((x or "")[:prefix_chars].encode()).hexdigest()[:16]
            for x in texts
        ]
        codes = np.searchsorted(
            src_arr, np.asarray(t.column("source").to_pylist(), dtype=object)
        )
        return pa.table(
            {
                "fp": pa.array(fps, pa.string()),
                "member": pa.array(codes.astype(np.int64), pa.int64()),
            }
        )

    pairs = membership_copair_topk(
        docs_ds.select_columns(["text", "source"]).map_batches(
            fp_code, batch_format="pyarrow"
        ),
        group_col="fp",
        member_col="member",
        k=k,
        max_group_size=max_group_size,
    )

    def decode(t: pa.Table) -> pa.Table:
        x = t.column("x").to_numpy(zero_copy_only=False)
        y = t.column("y").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "source_x": pa.array(list(src_arr[x]), pa.string()),
                "source_y": pa.array(list(src_arr[y]), pa.string()),
                "n_shared": t.column("n_shared"),
            }
        )

    return pairs.map_batches(decode, batch_format="pyarrow")


# --- content-defined chunking (Gear CDC) ------------------------------------

# deterministic 256-entry gear table (seeded PRNG; pinned by tests — the
# chunking is only stable across runs/machines if this never changes)
_GEAR_TABLE = np.random.default_rng(0x67656172).integers(
    0, 2**64, size=256, dtype=np.uint64
)
# boundary mask sits above bit 16 so the judged bits depend on a ~(16 +
# log2(avg))-byte trailing window, not just the last few bytes (the
# classic low-bit Gear weakness FastCDC §3.2 points out; Xia et al.,
# USENIX ATC 2016).  _cdc_boundaries documents the exact variant we pin.
_CDC_SHIFT = 16


def _cdc_boundaries(data: bytes, min_size: int, avg_size: int,
                    max_size: int) -> np.ndarray:
    """Cut offsets (excluding 0, including len) for Gear content-defined
    chunking: h_i = sum_{k>=0} gear[b_{i-k}] << k (the closed form of
    h = (h << 1) + gear[b]); cut after byte i when
    ``(h_i >> _CDC_SHIFT) & (avg_size - 1) == 0``, subject to min_size
    (candidates closer than min_size to the last cut are skipped) and
    max_size (a forced cut).  Boundaries depend only on a trailing byte
    window, so an insertion resynchronizes within ~one chunk — the
    property fixed-size chunking lacks and the reason CDC is the
    storage-dedup standard (LBFS, Muthitacharoen et al., SOSP 2001).

    Vectorized: the judged bits need only k < _CDC_SHIFT + log2(avg)
    terms (higher shifts land above the mask), so the hash is that many
    shifted adds over the whole array; the min/max walk then visits only
    the sparse candidate list (~n/avg entries).
    """
    n = len(data)
    if n == 0:
        return np.zeros(0, np.int64)
    assert avg_size & (avg_size - 1) == 0, "avg_size must be a power of two"
    assert 0 < min_size <= avg_size <= max_size
    b = np.frombuffer(data, np.uint8)
    g = _GEAR_TABLE[b]
    nk = _CDC_SHIFT + int(avg_size).bit_length()  # terms affecting judged bits
    h = g.copy()
    for k in range(1, min(nk, n)):
        h[k:] += g[:-k] << np.uint64(k)
    mask = np.uint64((avg_size - 1) << _CDC_SHIFT)
    cand = np.flatnonzero((h & mask) == 0) + 1  # cut AFTER byte i
    cuts = []
    last = 0
    for p in cand.tolist():
        while p - last > max_size:
            last += max_size
            cuts.append(last)
        if p - last < min_size:
            continue
        cuts.append(p)
        last = p
    while n - last > max_size:
        last += max_size
        cuts.append(last)
    if last < n:
        cuts.append(n)
    return np.asarray(cuts, np.int64)


def cdc_chunks(docs_ds, min_size: int = 64, avg_size: int = 256,
               max_size: int = 1024, payload_col: str = "text"):
    """Per-document content-defined chunk table: (doc_id, chunk_idx,
    offset, length, chunk_hash) over the UTF-8 bytes of ``payload_col``.
    chunk_hash is xxhash64 of the chunk bytes (int64 view) — equal hashes
    across documents are the storage-level duplicate units a byte-range
    dedup (or delta-encoding tier) works from; near-identical documents
    share most chunks even when edits shift offsets, because boundaries
    are content-defined (see _cdc_boundaries).

    Shape (100-TB path): pure per-document map — NO shuffle; the chunk
    table is the input to whatever aggregate follows (e.g. a coarse
    chunk-hash groupby for a dedup ratio, same discipline as exact_dedup).
    """
    from ..urlops import xxhash64_batch

    def chunk(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        texts = t.column(payload_col).to_pylist()
        out_id, out_idx, out_off, out_len, blobs = [], [], [], [], []
        for i, tx in zip(ids, texts):
            data = (tx or "").encode("utf-8")
            cuts = _cdc_boundaries(data, min_size, avg_size, max_size)
            prev = 0
            for j, c in enumerate(cuts.tolist()):
                out_id.append(int(i))
                out_idx.append(j)
                out_off.append(prev)
                out_len.append(c - prev)
                blobs.append(data[prev:c])
                prev = c
        hashes = xxhash64_batch(blobs).view(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "chunk_idx": pa.array(out_idx, pa.int64()),
                "offset": pa.array(out_off, pa.int64()),
                "length": pa.array(out_len, pa.int64()),
                "chunk_hash": pa.array(hashes, pa.int64()),
            }
        )

    return docs_ds.map_batches(chunk, batch_format="pyarrow")


def cdc_delta_stats(ds_a, ds_b, payload_col: str = "text",
                    min_size: int = 64, avg_size: int = 256,
                    max_size: int = 1024, num_groups: int = 256):
    """Byte-level reuse between two corpus snapshots via content-defined
    chunks: of snapshot B's bytes, how many live in chunks whose hash
    already exists anywhere in snapshot A?  This is the storage/transfer
    saving a chunk-addressed store (LBFS-style) realizes on a recrawl —
    because CDC boundaries resynchronize after edits, a lightly-edited
    page reuses almost all of its chunks even though offsets shifted.

    Output: one row — total_bytes_b, reused_bytes_b, new_bytes_b,
    reuse_ratio (reused/total, 0.0 on empty B).

    Shape (100-TB path): both snapshots chunk map-side (cdc_chunks — no
    payload ever moves, 16 B/chunk rows do); ONE coarse chunk-hash
    exchange; per group a vectorized membership test (B lengths summed
    where hash ∈ A's hash set); final reduce is a tiny partial sum.
    """
    def per_group(t: pa.Table) -> pa.Table:
        # leg 0: snapshot A's chunks, leg 1: snapshot B's
        h = t.column("chunk_hash").to_numpy()
        ln = t.column("length").to_numpy()
        side = t.column(LEG).to_numpy()
        in_a = np.isin(h[side == 1], np.unique(h[side == 0]))
        lb = ln[side == 1]
        return pa.table(
            {
                "total_b": pa.array([int(lb.sum())], pa.int64()),
                "reused_b": pa.array([int(lb[in_a].sum())], pa.int64()),
            }
        )

    legs = [
        cdc_chunks(ds, min_size, avg_size, max_size, payload_col).select_columns(
            ["chunk_hash", "length"]
        )
        for ds in (ds_a, ds_b)
    ]
    parts = coarse_cogroup(legs, "chunk_hash", per_group, num_groups)
    df = parts.to_pandas()  # ≤ num_groups rows — a fixed-size driver pull
    total = int(df["total_b"].sum())
    reused = int(df["reused_b"].sum())
    return pa.table(
        {
            "total_bytes_b": pa.array([total], pa.int64()),
            "reused_bytes_b": pa.array([reused], pa.int64()),
            "new_bytes_b": pa.array([total - reused], pa.int64()),
            "reuse_ratio": pa.array(
                [reused / total if total else 0.0], pa.float64()
            ),
        }
    )
