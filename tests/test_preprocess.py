"""prep_corpus flagship pipeline: planted-fixture composition test — the
serial oracle applies the same (individually proven) stage kernels in pure
pandas and must agree on every stage count, the final keep set, token
counts, and split assignment."""

import glob
import hashlib
import shutil

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

def _body(tag: str, n: int = 40) -> str:
    # disjoint vocabulary per tag: zero shared shingles across documents
    return " ".join(f"{tag}word{j} {tag}tok{j * 7 % 13}" for j in range(n))


def _docs_rows():
    rows = []
    # 8 quality survivors with pairwise-disjoint text
    for i in range(8):
        rows.append({"doc_id": i, "text": _body(f"u{i}")})
    # exact dup pair: 20 duplicates 21 (same text; min id 20 survives)
    rows.append({"doc_id": 20, "text": _body("twin")})
    rows.append({"doc_id": 21, "text": _body("twin")})
    # near dups: 30/31 share almost all shingles (one word changed)
    rows.append({"doc_id": 30, "text": _body("near", 120) + " ending alpha"})
    rows.append({"doc_id": 31, "text": _body("near", 120) + " ending omega"})
    # low quality: too short / dup lines / dominant bigram
    rows.append({"doc_id": 40, "text": "tiny"})
    rows.append({"doc_id": 41, "text": "repeated line of text here\n" * 12 + "plus one original closing line"})
    rows.append({"doc_id": 42, "text": "buy now " * 30})
    return rows


@pytest.fixture(scope="module")
def prep_result(ray_session):
    import ray.data

    from grawler_ray.pipelines.preprocess import prep_corpus

    shutil.rmtree("/tmp/prep_test_out", ignore_errors=True)
    docs = ray.data.from_items(_docs_rows())
    summary = prep_corpus(
        docs, out_dir="/tmp/prep_test_out", minhash_threshold=0.5
    ).to_pandas()
    files = glob.glob("/tmp/prep_test_out/**/*.parquet", recursive=True)
    out = pd.concat(
        [pq.read_table(f).to_pandas().assign(_f=f) for f in files], ignore_index=True
    )
    out["split_dir"] = out["_f"].str.extract(r"split=(\w+)")
    return summary, out


def _serial_oracle(ray_session):
    """Same chain, serially: proven kernels + union-find over the SAME
    minhash pair generator (its own exactness is covered by
    tests/test_dedup_pipelines.py)."""
    import ray.data

    from grawler_ray.functions.dedup import minhash_dedup
    from grawler_ray.functions.quality import quality_filter_batch
    from grawler_ray.functions.sampling import _bucket1000
    from grawler_ray.functions.textstats import token_count_batch
    import pyarrow as pa

    df = pd.DataFrame(_docs_rows())
    flags = (
        quality_filter_batch()(pa.Table.from_pandas(df, preserve_index=False))
        .to_pandas()
        .set_index("doc_id")["keep"]
    )
    q = df[df["doc_id"].map(flags)].reset_index(drop=True)
    q["h"] = q["text"].map(lambda s: hashlib.md5(s.encode()).hexdigest())
    e = q.loc[q.groupby("h")["doc_id"].transform("min") == q["doc_id"]].reset_index(drop=True)

    pairs = minhash_dedup(
        ray.data.from_pandas(e[["doc_id", "text"]]), threshold=0.5
    ).to_pandas()
    parent = {int(d): int(d) for d in e["doc_id"]}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, r in pairs.iterrows():
        ra, rb = find(int(r["a"])), find(int(r["b"]))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    keep = {d for d in parent if find(d) == d}
    n = e[e["doc_id"].isin(keep)].reset_index(drop=True)

    tc = token_count_batch(pa.Table.from_pandas(n[["doc_id", "text"]], preserve_index=False)).to_pandas()
    n = n.merge(tc[["doc_id", "n_bpe_tokens"]], on="doc_id")
    n["split"] = np.where(
        _bucket1000(n["doc_id"].to_numpy().astype(np.int64)) < 100, "holdout", "train"
    )
    return df, q, e, n


def test_stage_counts_and_final_set(ray_session, prep_result):
    summary, out = prep_result
    df, q, e, n = _serial_oracle(ray_session)
    s = summary.set_index("stage")["n_docs"]
    assert s["input"] == len(df)
    assert s["quality"] == len(q)
    assert s["exact_dedup"] == len(e)
    assert s["near_dedup"] == len(n)
    # the planted structure actually exercised every stage
    assert len(q) == len(df) - 3          # 40, 41, 42 dropped
    assert len(e) == len(q) - 1           # 21 dropped (exact dup of 20)
    assert len(n) == len(e) - 1           # 31 dropped (near dup of 30)
    assert set(out["doc_id"]) == set(n["doc_id"])


def test_tokens_and_split_match_serial(ray_session, prep_result):
    summary, out = prep_result
    _, _, _, n = _serial_oracle(ray_session)
    m = out.merge(n, on="doc_id", suffixes=("", "_exp"))
    assert (m["n_bpe_tokens"] == m["n_bpe_tokens_exp"]).all()
    assert (m["split_dir"] == m["split"]).all()
    # summary token sums equal the parquet contents
    tok = summary.set_index("stage")["n_tokens"]
    for split in out["split_dir"].unique():
        assert tok[split] == out.loc[out["split_dir"] == split, "n_bpe_tokens"].sum()


def test_split_summary_matches_written_output(ray_session):
    """The summary's split rows equal a pandas groupby of the written
    split= files (n_docs, n_tokens per split), in split order, as int64.
    holdout_permille=500 so that both splits hold docs."""
    import ray.data

    from grawler_ray.pipelines.preprocess import prep_corpus

    out_dir = "/tmp/prep_test_out_summary"
    shutil.rmtree(out_dir, ignore_errors=True)
    summary = prep_corpus(
        ray.data.from_items(_docs_rows()),
        out_dir=out_dir,
        minhash_threshold=0.5,
        holdout_permille=500,
    ).to_pandas()
    files = glob.glob(f"{out_dir}/**/*.parquet", recursive=True)
    out = pd.concat(
        [pq.read_table(f).to_pandas().assign(_f=f) for f in files], ignore_index=True
    )
    out["split_dir"] = out["_f"].str.extract(r"split=(\w+)")
    want = out.groupby("split_dir").agg(
        n_docs=("doc_id", "size"), n_tokens=("n_bpe_tokens", "sum")
    )
    assert list(want.index) == ["holdout", "train"]
    got = summary.iloc[4:].set_index("stage")
    assert list(summary["stage"].iloc[:4]) == ["input", "quality", "exact_dedup", "near_dedup"]
    assert list(got.index) == list(want.index)
    assert got["n_docs"].tolist() == want["n_docs"].tolist()
    assert got["n_tokens"].tolist() == want["n_tokens"].tolist()
    assert summary["n_docs"].dtype == np.int64 and summary["n_tokens"].dtype == np.int64


def test_join_fallback_equals_broadcast(ray_session, prep_result):
    """driver_max_drop_ids=0 forces the hashed anti-join payload path for
    BOTH dedup stages; the final doc set, tokens, and splits must equal the
    broadcast path's (prep_result)."""
    import ray.data

    from grawler_ray.pipelines.preprocess import prep_corpus

    _, out_bcast = prep_result
    shutil.rmtree("/tmp/prep_test_out_join", ignore_errors=True)
    docs = ray.data.from_items(_docs_rows())
    summary = prep_corpus(
        docs,
        out_dir="/tmp/prep_test_out_join",
        minhash_threshold=0.5,
        driver_max_drop_ids=0,
    ).to_pandas()
    files = glob.glob("/tmp/prep_test_out_join/**/*.parquet", recursive=True)
    out = pd.concat(
        [pq.read_table(f).to_pandas().assign(_f=f) for f in files],
        ignore_index=True,
    )
    out["split_dir"] = out["_f"].str.extract(r"split=(\w+)")
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out_bcast.sort_values("doc_id").reset_index(drop=True)
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert list(a["text"]) == list(b["text"])
    assert list(a["n_bpe_tokens"]) == list(b["n_bpe_tokens"])
    assert list(a["split_dir"]) == list(b["split_dir"])
    s = summary.set_index("stage")["n_docs"]
    assert s["exact_dedup"] == len(b) + 1 and s["near_dedup"] == len(b)


def test_zero_drop_short_circuit(ray_session):
    """With no duplicates at all, _drop_docs returns the input Dataset
    unchanged (no filter stage, no copy)."""
    import ray.data

    from grawler_ray.pipelines.preprocess import _drop_docs

    docs = ray.data.from_items(
        [{"doc_id": i, "text": f"t{i}"} for i in range(6)]
    ).materialize()
    empty = ray.data.from_items([{"doc_id": 1}]).filter(lambda r: False)
    assert _drop_docs(docs, empty, 16, 10) is docs


class TestCheckpointing:
    """checkpoint_dir resumability: a finished stage is READ (proven by
    tampering its files and seeing the tamper flow through), and a param
    change invalidates the fingerprint (tamper ignored, recomputed)."""

    CK = "/tmp/prep_test_ckpt"

    def _run(self, threshold=0.5):
        import ray.data

        from grawler_ray.pipelines.preprocess import prep_corpus

        docs = ray.data.from_items(_docs_rows())
        out = f"/tmp/prep_test_ckpt_out"
        shutil.rmtree(out, ignore_errors=True)
        summary = prep_corpus(
            docs,
            out_dir=out,
            minhash_threshold=threshold,
            checkpoint_dir=self.CK,
        ).to_pandas()
        files = glob.glob(f"{out}/**/*.parquet", recursive=True)
        res = pd.concat(
            [pq.read_table(f).to_pandas() for f in files], ignore_index=True
        )
        return summary, res

    def test_checkpoint_skip_and_invalidation(self, ray_session):
        import os

        import pyarrow as pa

        shutil.rmtree(self.CK, ignore_errors=True)
        _, base = self._run()
        base_ids = set(base["doc_id"])
        for st in ("quality", "exact_dedup", "near_dedup"):
            assert os.path.exists(f"{self.CK}/stage={st}.manifest.json")

        # tamper the near_dedup checkpoint: remove one surviving doc
        nd = glob.glob(f"{self.CK}/stage=near_dedup/*.parquet")
        t = pa.concat_tables([pq.read_table(f) for f in nd])
        victim = int(t.column("doc_id").to_pylist()[0])
        keep = t.filter(
            pa.compute.not_equal(t.column("doc_id"), pa.scalar(victim))
        )
        shutil.rmtree(f"{self.CK}/stage=near_dedup")
        os.makedirs(f"{self.CK}/stage=near_dedup")
        pq.write_table(keep, f"{self.CK}/stage=near_dedup/tampered.parquet")

        _, tampered = self._run()
        assert set(tampered["doc_id"]) == base_ids - {victim}  # stage was read

        # param change -> fingerprint mismatch -> recompute (tamper gone)
        _, recomputed = self._run(threshold=0.9)
        assert victim in set(recomputed["doc_id"])
        # at threshold=0.9 the 30/31 pair no longer joins, so the result
        # is a strict superset of the 0.5 baseline
        assert set(recomputed["doc_id"]) >= base_ids


def test_all_filtered_graceful(ray_session):
    import ray.data

    from grawler_ray.pipelines.preprocess import prep_corpus

    docs = ray.data.from_items([{"doc_id": i, "text": "x"} for i in range(4)])
    s = prep_corpus(docs).to_pandas().set_index("stage")["n_docs"]
    assert s["input"] == 4 and s["quality"] == 0 and s["near_dedup"] == 0
    assert "train" not in s.index


class TestDecontaminateBloom:
    def _split(self, ray_session):
        import ray.data

        SF = "/root/testdata/sf0.001"
        docs = ray.data.read_parquet(f"{SF}/documents.parquet")
        bench = docs.filter(expr="source == 'src0'")
        train = docs.filter(expr="source != 'src0'")
        return train, bench

    def test_superset_of_exact_and_tight(self, ray_session):
        """Bloom flags every exactly-contaminated doc (no false negatives),
        n_hits upper-bounds the exact hits, and at the default 4M-bit
        filter over this tiny shingle set there are no false positives."""
        from grawler_ray.functions.quality import decontaminate, decontaminate_bloom

        train, bench = self._split(ray_session)
        exact = decontaminate(train, bench, k=3).to_pandas().set_index("doc_id")
        bloom = decontaminate_bloom(train, bench, k=3).to_pandas().set_index("doc_id")
        assert set(exact.index) == set(bloom.index)
        ex = exact.sort_index()
        bl = bloom.sort_index()
        # one-sided: bloom >= exact everywhere
        assert (bl.n_hits >= ex.n_hits).all()
        assert (bl.is_contaminated >= ex.is_contaminated).all()
        # with m=2^22 bits vs a tiny benchmark set, FP mass is ~0:
        # the flag sets coincide on this fixture (deterministic hashes)
        assert (bl.is_contaminated == ex.is_contaminated).all()

    def test_narrow_filter_still_no_false_negatives(self, ray_session):
        from grawler_ray.functions.quality import decontaminate, decontaminate_bloom

        train, bench = self._split(ray_session)
        exact = decontaminate(train, bench, k=3).to_pandas().set_index("doc_id")
        tiny = (
            decontaminate_bloom(train, bench, k=3, m_bits=1 << 10, n_hashes=2)
            .to_pandas()
            .set_index("doc_id")
        )
        ex, bl = exact.sort_index(), tiny.sort_index()
        assert (bl.n_hits >= ex.n_hits).all()
        assert (bl.is_contaminated >= ex.is_contaminated).all()
