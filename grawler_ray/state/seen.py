"""Sharded URL-seen set — actor-pool stateful stage (SURVEY §2.3 T1).

The reference holds one global mutex map keyed by exact raw URL string
(src/crawler.go:31, common.SafeBoolMap common.go:92-107), checked before
fetch (crawler.go:191) and committed only after a successful parse
(crawler.go:178).  We shard it across a fixed pool of Ray actors routed by
``xxhash64(key) % num_shards`` so membership state scales horizontally and
each shard serializes its own updates — the one piece of the engine that
genuinely needs raw actors rather than Dataset ops (a shared mutable index).

Two modes:
- ``exact``  — each shard holds a Python set of key strings.  Conformance
  mode: exact equality with the oracle's seen set.
- ``cuckoo`` — each shard holds a cuckoo filter over 64-bit key hashes
  (~1 byte/key at 16-bit fingerprints x 95% load): the 10^10-key scale path
  (~2-4 GB per 10^9 keys exact strings vs ~1.25 GB per 10^9 keys cuckoo
  across the pool).  False positives (~2^-13 per probe) cause spurious
  dup-drops — bench-only, documented.

Two-phase protocol mirroring the reference's check-at-191 / set-at-178 split:
``test_batch`` at admit time, ``commit_batch`` after parse succeeds.  Commits
are idempotent (re-commit of a present key is a no-op), so Ray task retries
on the commit pass are safe.
"""

from __future__ import annotations

import numpy as np

from ..urlops import xxhash64

# slots a shard's cuckoo filter is built for (the exact set grows as needed);
# the crawl's state actors use this
SEEN_CAPACITY = 1_000_000


class CuckooFilter:
    """4-way bucketed cuckoo filter with 16-bit fingerprints over uint64 keys.

    Standard construction (Fan et al., "Cuckoo Filter: Practically Better
    Than Bloom", CoNEXT'14): bucket1 = hash(x), bucket2 = bucket1 ^
    hash(fingerprint), 500-evict insert loop.  numpy-backed so a shard
    serializes to a flat buffer for checkpointing.
    """

    SLOTS = 4
    MAX_KICKS = 500

    def __init__(self, capacity: int):
        nbuckets = 1
        while nbuckets * self.SLOTS < capacity:
            nbuckets *= 2
        nbuckets *= 2  # headroom => ~50% typical load, low eviction churn
        self.nbuckets = nbuckets
        self.mask = nbuckets - 1
        self.table = np.zeros((nbuckets, self.SLOTS), dtype=np.uint16)
        self.count = 0
        self.overflow: set[int] = set()  # keys that lost the eviction fight

    def _fp(self, h: int) -> int:
        fp = (h >> 48) & 0xFFFF
        return fp if fp != 0 else 1  # 0 marks an empty slot

    def _b1(self, h: int) -> int:
        return h & self.mask

    def _b2(self, b1: int, fp: int) -> int:
        # ^ hash(fp): splmix-style scramble of the fingerprint
        return (b1 ^ (fp * 0x5BD1E995)) & self.mask

    def contains(self, h: int) -> bool:
        fp = self._fp(h)
        b1 = self._b1(h)
        row = self.table[b1]
        if (row == fp).any():
            return True
        b2 = self._b2(b1, fp)
        if (self.table[b2] == fp).any():
            return True
        return h in self.overflow

    def add(self, h: int) -> None:
        fp = self._fp(h)
        b1 = self._b1(h)
        b2 = self._b2(b1, fp)
        for b in (b1, b2):
            row = self.table[b]
            if (row == fp).any():
                return  # idempotent
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return
        # evict
        rng = np.random.default_rng(h & 0xFFFFFFFF)  # deterministic per key
        b = b1 if (h >> 32) & 1 else b2
        cur = fp
        for _ in range(self.MAX_KICKS):
            slot = int(rng.integers(self.SLOTS))
            cur, self.table[b, slot] = int(self.table[b, slot]), cur
            b = self._b2(b, cur)
            row = self.table[b]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = cur
                self.count += 1
                return
        self.overflow.add(h)  # should be rare below ~90% load
        self.count += 1

    def to_bytes(self) -> bytes:
        return self.table.tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, capacity: int) -> "CuckooFilter":
        f = cls(capacity)
        arr = np.frombuffer(data, dtype=np.uint16).reshape(-1, cls.SLOTS)
        assert arr.shape[0] == f.nbuckets, "capacity mismatch on restore"
        f.table = arr.copy()
        f.count = int((arr != 0).sum())
        return f


class SeenShard:
    """One shard of the seen set.  Held by a crawl state actor
    (``state.pool.StateShard``); kept import-clean of ray here so it
    unit-tests without a cluster."""

    def __init__(self, mode: str = "exact", capacity: int = SEEN_CAPACITY):
        self.mode = mode
        self.keys: set[str] = set()
        self.filter = CuckooFilter(capacity) if mode == "cuckoo" else None

    def test_batch(self, keys: list[str], hashes: list[int]) -> list[bool]:
        """True = already seen."""
        if self.mode == "exact":
            return [k in self.keys for k in keys]
        return [self.filter.contains(h) for h in hashes]

    def commit_batch(self, keys: list[str], hashes: list[int]) -> int:
        if self.mode == "exact":
            self.keys.update(keys)
            return len(self.keys)
        for h in hashes:
            self.filter.add(h)
        return self.filter.count

    def snapshot(self) -> dict:
        """Serializable shard state for checkpointing."""
        if self.mode == "exact":
            return {"mode": "exact", "keys": sorted(self.keys)}
        return {
            "mode": "cuckoo",
            "table": self.filter.to_bytes(),
            "overflow": sorted(self.filter.overflow),
            "nbuckets": self.filter.nbuckets,
        }

    def save(self, path: str) -> int:
        """Persist this shard's state as one Parquet file (SURVEY §1.3's
        checkpoint promise; VERDICT r2 item 2).  Written BY the actor so the
        key set never moves through the driver; returns the key count.
        Schema is mode-discriminated: exact = one `key:string` row per key,
        cuckoo = a single row holding the packed filter."""
        import pyarrow as _pa
        import pyarrow.parquet as _pq
        import os as _os

        _os.makedirs(_os.path.dirname(path), exist_ok=True)
        if self.mode == "exact":
            t = _pa.table({"key": _pa.array(sorted(self.keys), _pa.string())})
            _pq.write_table(t, path)
            return len(self.keys)
        t = _pa.table(
            {
                "table": _pa.array([self.filter.to_bytes()], _pa.binary()),
                "overflow": _pa.array(
                    [sorted(self.filter.overflow)], _pa.list_(_pa.uint64())
                ),
                "nbuckets": _pa.array([self.filter.nbuckets], _pa.int64()),
            }
        )
        _pq.write_table(t, path)
        return self.filter.count

    def load(self, path: str) -> int:
        """Restore this shard from a ``save()`` file (inverse of save);
        returns the restored key count."""
        import numpy as _np
        import pyarrow.parquet as _pq

        t = _pq.read_table(path)
        if "key" in t.schema.names:
            self.mode = "exact"
            self.keys = set(t.column("key").to_pylist())
            self.filter = None
            return len(self.keys)
        self.mode = "cuckoo"
        nbuckets = int(t.column("nbuckets")[0].as_py())
        f = CuckooFilter.__new__(CuckooFilter)
        f.nbuckets = nbuckets
        f.mask = nbuckets - 1
        f.table = _np.frombuffer(
            t.column("table")[0].as_py(), dtype=_np.uint16
        ).reshape(-1, CuckooFilter.SLOTS).copy()
        f.overflow = set(t.column("overflow")[0].as_py())
        f.count = int((f.table != 0).sum()) + len(f.overflow)
        self.filter = f
        self.keys = set()
        return f.count

    def restore(self, snap: dict) -> None:
        if snap["mode"] == "exact":
            self.mode = "exact"
            self.keys = set(snap["keys"])
        else:
            self.mode = "cuckoo"
            f = CuckooFilter(snap["nbuckets"] * CuckooFilter.SLOTS // 2)
            assert f.nbuckets == snap["nbuckets"]
            f.table = np.frombuffer(snap["table"], dtype=np.uint16).reshape(
                -1, CuckooFilter.SLOTS
            ).copy()
            f.count = int((f.table != 0).sum()) + len(snap["overflow"])
            f.overflow = set(snap["overflow"])
            self.filter = f


def shard_of(key: str, num_shards: int) -> int:
    return xxhash64(key) % num_shards
