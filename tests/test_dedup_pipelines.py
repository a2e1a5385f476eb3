"""Ray-pipeline tests for the near-dup / similarity operators: planted
duplicates must be found, both minhash verification strategies must agree,
and the exact baselines must match brute force."""

import numpy as np
import pandas as pd
import pytest


BASE = (
    "the quick brown fox jumps over the lazy dog while seven wizards brew "
    "strong potions under a pale moon and the river runs cold past the mill"
)


def _docs_table():
    rows = []
    # 20 distinct docs
    for i in range(20):
        rows.append({"doc_id": i, "text": f"document {i} " + BASE + f" variant token{i} " * 3})
    # planted near-dups: 100/101 near-identical, 102 identical to 100
    rows.append({"doc_id": 100, "text": BASE + " alpha beta gamma delta epsilon zeta"})
    rows.append({"doc_id": 101, "text": BASE + " alpha beta gamma delta epsilon eta"})
    rows.append({"doc_id": 102, "text": BASE + " alpha beta gamma delta epsilon zeta"})
    # empty pair (both-empty jaccard == 1.0 by definition)
    rows.append({"doc_id": 200, "text": ""})
    rows.append({"doc_id": 201, "text": ""})
    return rows


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.from_items(_docs_table())


def _exact_jaccard_pairs(threshold):
    from grawler_ray.functions.dedup import jaccard, shingles

    rows = _docs_table()
    shs = {r["doc_id"]: shingles(r["text"]) for r in rows}
    ids = sorted(shs)
    out = set()
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            if jaccard(shs[ids[x]], shs[ids[y]]) >= threshold:
                out.add((ids[x], ids[y]))
    return out


def test_minhash_dedup_finds_planted_pairs(docs_ds):
    from grawler_ray.functions.dedup import minhash_dedup

    got = minhash_dedup(docs_ds, threshold=0.8).to_pandas()
    pairs = set(zip(got.a, got.b))
    assert (100, 101) in pairs
    assert (100, 102) in pairs
    assert (101, 102) in pairs
    assert (200, 201) in pairs  # both-empty docs: jaccard 1.0
    # identical docs must have jaccard exactly 1.0
    assert got[(got.a == 100) & (got.b == 102)].jaccard.iloc[0] == 1.0
    # no invented pairs: everything reported must be exact-verified
    exact = _exact_jaccard_pairs(0.8)
    assert pairs <= exact


def test_minhash_verify_modes_agree(docs_ds):
    """driver_max_members=0 forces the full-corpus (materialized-sides)
    join fallback; it must agree with the member-filter fast path."""
    from grawler_ray.functions.dedup import minhash_dedup

    jn = minhash_dedup(docs_ds, threshold=0.5).to_pandas()
    sj = {(a, b): round(j, 12) for a, b, j in zip(jn.a, jn.b, jn.jaccard)}
    assert len(sj) > 0
    fb = minhash_dedup(docs_ds, threshold=0.5, driver_max_members=0).to_pandas()
    sf = {(a, b): round(j, 12) for a, b, j in zip(fb.a, fb.b, fb.jaccard)}
    assert sf == sj


def _pair_rows(ds):
    df = ds.to_pandas()
    return sorted(zip(df.a.tolist(), df.b.tolist(), df.jaccard.round(12).tolist()))


@pytest.mark.parametrize("driver_max_members", [2_000_000, 0])
def test_verify_pairs_join_repeated_pairs(docs_ds, driver_max_members):
    """Every candidate pair given three times, shuffled, verifies to the
    same (a, b, jaccard) rows as the unique pairs — on the broadcast path
    and on the full-corpus path (driver_max_members=0).  (5, 999) names a
    doc that is not in the input and must be dropped."""
    import random

    import ray.data

    from grawler_ray.functions.dedup import verify_pairs_join

    ids = sorted(r["doc_id"] for r in _docs_table())
    uniq = [(x, y) for i, x in enumerate(ids) for y in ids[i + 1 :]] + [(5, 999)]
    rep = uniq * 3
    random.Random(0).shuffle(rep)

    def verify(pairs):
        ds = ray.data.from_pandas(pd.DataFrame(pairs, columns=["a", "b"]).astype("int64"))
        return _pair_rows(
            verify_pairs_join(docs_ds, ds, 0.3, driver_max_members=driver_max_members)
        )

    want = verify(uniq)
    assert {(a, b) for a, b, _ in want} == _exact_jaccard_pairs(0.3)
    assert verify(rep) == want


def test_minhash_join_one_row_per_pair(docs_ds):
    """A pair that collides in several LSH bands comes out once, whether
    the raw band rows go straight to the driver (default), are first
    deduped by the (a, b) aggregate (guard between unique and raw pair
    counts) or take the full-corpus verify (guard 0)."""
    import pyarrow as pa

    from grawler_ray.functions.dedup import (
        bucket_pairs,
        lsh_band_explode,
        minhash_batch,
        minhash_dedup,
    )

    t = pa.Table.from_pylist(_docs_table())
    raw = bucket_pairs()(lsh_band_explode()(minhash_batch()(t)).to_pandas())
    n_raw, n_uniq = len(raw), len(raw.drop_duplicates())
    assert n_raw > n_uniq  # 100/102 are identical: all 16 bands collide
    got = {}
    for guard in (2_000_000, 2 * n_uniq, 0):
        rows = _pair_rows(
            minhash_dedup(docs_ds, threshold=0.5, driver_max_members=guard)
        )
        assert len({(a, b) for a, b, _ in rows}) == len(rows), guard
        assert (100, 102, 1.0) in rows
        got[guard] = rows
    assert got[2_000_000] == got[2 * n_uniq] == got[0]


def test_minhash_exchanges_read_materialized_rows(docs_ds, monkeypatch):
    """The band rows reach the gkey groupby, and the broadcast verify's
    pair-side rows the pg groupby, as materialized datasets: a map that
    streams into an exchange runs one task at a time."""
    import ray.data
    from ray.data.dataset import MaterializedDataset

    from grawler_ray.functions.dedup import minhash_dedup

    seen = {}
    groupby = ray.data.Dataset.groupby

    def recording_groupby(self, key, *a, **kw):
        seen[str(key)] = isinstance(self, MaterializedDataset)
        return groupby(self, key, *a, **kw)

    monkeypatch.setattr(ray.data.Dataset, "groupby", recording_groupby)
    assert len(minhash_dedup(docs_ds, threshold=0.5).take_all()) > 0
    assert seen == {"gkey": True, "pg": True}


def test_ngram_jaccard_exact_baseline(docs_ds):
    from grawler_ray.functions.dedup import ngram_jaccard_pairs

    got = ngram_jaccard_pairs(docs_ds, threshold=0.5).to_pandas()
    assert set(zip(got.a, got.b)) == _exact_jaccard_pairs(0.5)


def test_ssjoin_prefix_filter_matches_exact_baseline(docs_ds):
    """AllPairs prefix filtering must reproduce the all-pairs answer at
    every threshold — including t=1.0 (prefix length 1, exact dups only)
    and the both-empty J=1.0 convention pair."""
    from grawler_ray.functions.dedup import jaccard, shingles, ssjoin_pairs

    rows = _docs_table()
    shs = {r["doc_id"]: shingles(r["text"]) for r in rows}
    for t in (0.5, 0.8, 1.0):
        got = ssjoin_pairs(docs_ds, threshold=t).to_pandas()
        pairs = set(zip(got.a, got.b))
        assert pairs == _exact_jaccard_pairs(t), f"t={t}"
        assert len(got) == len(pairs)  # candidate dedup: no repeated rows
        # reported jaccard is the exact value (1.0 for the empty pair)
        for a, b, j in zip(got.a, got.b, got.jaccard):
            assert j == pytest.approx(jaccard(shs[a], shs[b]), abs=0), (a, b)
    assert (200, 201) in set(
        zip(*ssjoin_pairs(docs_ds, threshold=1.0).to_pandas()[["a", "b"]].T.values)
    )


def test_ssjoin_random_corpus_and_rounding_thresholds(ray_session):
    """Fixed-seed corpus built from a SHARED sentence pool (dense borderline
    trigram overlaps — docs are random sentence subsets) at thresholds whose
    t*s products hit float rounding (0.1, 0.3): the conservative ceil/slack
    must never DROP a qualifying pair, and extra candidates must die in the
    exact verify."""
    import ray.data

    from grawler_ray.functions.dedup import jaccard, shingles, ssjoin_pairs

    rng = np.random.default_rng(7)
    sentences = [
        " ".join(f"s{i}w{j}" for j in range(6)) for i in range(10)
    ]
    rows = []
    for i in range(60):
        n = int(rng.integers(1, 6))
        picks = rng.choice(len(sentences), size=n, replace=False)
        text = " ".join(sentences[p] for p in picks)
        if rng.random() < 0.3:
            text += f" unique{i} tail{i} token{i}"
        rows.append({"doc_id": i, "text": text})
    shs = {r["doc_id"]: shingles(r["text"]) for r in rows}
    ds = ray.data.from_items(rows).repartition(5)
    for t in (0.1, 0.3, 0.6):
        exact = {
            (a, b)
            for a in shs
            for b in shs
            if a < b and jaccard(shs[a], shs[b]) >= t
        }
        assert len(exact) >= 10, f"fixture too sparse at t={t}"
        got = ssjoin_pairs(ds, threshold=t).to_pandas()
        assert set(zip(got.a, got.b)) == exact, f"t={t}"
        assert len(got) == len(exact)


def test_cross_ssjoin_matches_brute_force(docs_ds, ray_session):
    """cross_ssjoin_pairs must return exactly the cross-side pairs of the
    brute-force left x right Jaccard baseline — within-side near-dups
    (e.g. the planted 100/101/102 triangle when all three land on one
    side) must NOT appear; self-texts shared across sides must (J=1.0)."""
    import ray.data

    from grawler_ray.functions.dedup import (
        cross_ssjoin_pairs,
        jaccard,
        shingles,
    )

    rows = _docs_table()
    # right side: every 3rd doc (includes near-dup 102 and empty 201)
    right_rows = [r for i, r in enumerate(rows) if i % 3 == 0]
    right = ray.data.from_items(right_rows)
    shs = {r["doc_id"]: shingles(r["text"]) for r in rows}
    for t in (0.5, 1.0):
        exact = {
            (l["doc_id"], r["doc_id"])
            for l in rows
            for r in right_rows
            if jaccard(shs[l["doc_id"]], shs[r["doc_id"]]) >= t
        }
        got = cross_ssjoin_pairs(docs_ds, right, threshold=t).to_pandas()
        assert set(zip(got.left_id, got.right_id)) == exact, f"t={t}"
        assert len(got) == len(exact)
        for a, b, j in zip(got.left_id, got.right_id, got.jaccard):
            assert j == pytest.approx(jaccard(shs[a], shs[b]), abs=0)


def test_cross_ssjoin_id_offset_guard(docs_ds, ray_session):
    import ray.data

    from grawler_ray.functions.dedup import cross_ssjoin_pairs

    big = ray.data.from_items([{"doc_id": 1 << 41, "text": "x y z w"}])
    with pytest.raises(Exception, match="id_offset"):
        cross_ssjoin_pairs(docs_ds, big, threshold=0.5).to_pandas()
    with pytest.raises(Exception, match="id_offset"):
        cross_ssjoin_pairs(big, docs_ds, threshold=0.5).to_pandas()


def test_edit1_kernel():
    from grawler_ray.functions.dedup import _edit1

    assert _edit1("abc", "abc")          # distance 0
    assert _edit1("abc", "abd")          # substitution
    assert _edit1("abc", "abcd")         # insertion at end
    assert _edit1("abc", "xabc")         # insertion at front
    assert _edit1("abc", "ac")           # deletion
    assert _edit1("", "a") and _edit1("", "")
    assert not _edit1("abc", "adc_x")    # len diff 2
    assert not _edit1("abc", "ayz")      # two substitutions
    assert not _edit1("abcd", "abdc")    # transposition is distance 2


def test_edit1_pairs_match_bruteforce(ray_session):
    """Fixed-seed strings engineered for every radius-1 shape (equal,
    substitution, insert/delete at each position) plus nulls and empties,
    verified against the O(n²) brute force."""
    import itertools

    import ray.data

    from grawler_ray.functions.dedup import _edit1, edit1_pairs

    rng = np.random.default_rng(3)
    base = ["crawl", "craw", "crXwl", "trawl", "crawler", "", "a", "b", "ab"]
    rows = []
    kid = 0
    for s in base:
        for _ in range(int(rng.integers(1, 3))):
            rows.append({"k": kid, "s": s})
            kid += 1
    # random digit-suffix names (the sequential-key shape)
    for i in range(40):
        rows.append({"k": kid, "s": f"name#{int(rng.integers(0, 30)):03d}"})
        kid += 1
    rows.append({"k": kid, "s": None})  # null never pairs
    exact = {
        (r1["k"], r2["k"])
        for r1, r2 in itertools.combinations(rows, 2)
        if r1["s"] is not None and r2["s"] is not None and _edit1(r1["s"], r2["s"])
    }
    ds = ray.data.from_items(rows).repartition(4)
    got = edit1_pairs(ds, "k", "s").to_pandas()
    assert set(zip(got.a, got.b)) == exact
    assert len(got) == len(exact)


def test_edit1_pairs_max_len_guard(ray_session):
    import ray.data

    from grawler_ray.functions.dedup import edit1_pairs

    ds = ray.data.from_items([{"k": 0, "s": "x" * 40}, {"k": 1, "s": "y"}])
    with pytest.raises(Exception, match="max_len"):
        edit1_pairs(ds, "k", "s", max_len=10).to_pandas()


def test_ssjoin_guards(docs_ds):
    from grawler_ray.functions.dedup import ssjoin_pairs

    with pytest.raises(ValueError, match="threshold"):
        ssjoin_pairs(docs_ds, threshold=0.0)
    # the fixture has 2 empty docs; a cap of 1 must refuse loudly
    with pytest.raises(Exception, match="max_empty_docs"):
        ssjoin_pairs(docs_ds, threshold=0.5, max_empty_docs=1).to_pandas()


def test_simhash_pairs_match_bruteforce(docs_ds):
    from grawler_ray.functions.dedup import hamming64, simhash64, simhash_pairs

    got = simhash_pairs(docs_ds, max_hamming=3).to_pandas()
    rows = _docs_table()
    hs = {r["doc_id"]: simhash64(r["text"]) for r in rows}
    ids = sorted(hs)
    exact = {
        (ids[x], ids[y]): hamming64(hs[ids[x]], hs[ids[y]])
        for x in range(len(ids))
        for y in range(x + 1, len(ids))
        if hamming64(hs[ids[x]], hs[ids[y]]) <= 3
    }
    assert {(a, b): h for a, b, h in zip(got.a, got.b, got.hamming)} == exact
    assert (100, 102) in exact  # identical docs: distance 0


def test_embedding_dup_pairs_exact(ray_session):
    import ray.data

    from grawler_ray.functions.similarity import embedding_dup_pairs

    rng = np.random.default_rng(7)
    V = rng.standard_normal((80, 16))
    V[50] = V[10] + 0.05 * rng.standard_normal(16)  # planted near-dup
    items = [{"vec_id": i, "embedding": V[i].tolist()} for i in range(80)]
    got = embedding_dup_pairs(ray.data.from_items(items), threshold=0.9).to_pandas()
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = np.triu(Vn @ Vn.T, 1)
    exact = set(zip(*np.nonzero(S >= 0.9)))
    assert set(zip(got.a, got.b)) == exact
    assert (10, 50) in exact


def test_cross_embedding_dups_exact_and_guard(ray_session):
    """Broadcast-right cross cosine join must equal the brute-force left x
    right baseline (including left==right identity pairs at cosine 1.0)
    and refuse a right side beyond the broadcast guard."""
    import ray.data

    from grawler_ray.functions.similarity import cross_embedding_dups

    rng = np.random.default_rng(13)
    V = rng.standard_normal((60, 12))
    V[40] = V[7] + 0.02 * rng.standard_normal(12)  # planted cross near-dup
    left = ray.data.from_items(
        [{"vec_id": i, "embedding": V[i].tolist()} for i in range(60)]
    ).repartition(4)
    ridx = [7, 40, 3, 11, 55]
    right = ray.data.from_items(
        [{"vec_id": i, "embedding": V[i].tolist()} for i in ridx]
    )
    got = cross_embedding_dups(left, right, threshold=0.9).to_pandas()
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    S = Vn @ Vn[ridx].T
    exact = {(int(l), int(ridx[r])) for l, r in zip(*np.nonzero(S >= 0.9))}
    assert set(zip(got.left_id, got.right_id)) == exact
    assert (7, 40) in exact and (7, 7) in exact  # planted + identity
    with pytest.raises(ValueError, match="broadcast_max_vectors"):
        cross_embedding_dups(left, right, broadcast_max_vectors=2)


def test_ann_lsh_recall_on_clustered_data(ray_session):
    import ray.data

    from grawler_ray.functions.similarity import ann_lsh_topk, ann_topk

    # clustered embeddings: 10 centers x 40 members — true neighbors are
    # genuinely close, the regime LSH is built for
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((10, 32)) * 3
    vecs, items = [], []
    for i in range(400):
        v = centers[i % 10] + 0.3 * rng.standard_normal(32)
        items.append({"vec_id": i, "embedding": v.tolist()})
    ds = ray.data.from_items(items)
    qids = [0, 1, 2, 3, 4]
    exact = ann_topk(ds, qids, k=10).to_pandas()
    approx = ann_lsh_topk(ds, qids, k=10, nbits=12, multiprobe=2).to_pandas()
    ex = set(map(tuple, exact[["query_id", "vec_id"]].values))
    ap = set(map(tuple, approx[["query_id", "vec_id"]].values))
    recall = len(ex & ap) / len(ex)
    assert recall >= 0.9, recall


def test_dedup_components_planted(ray_session):
    """Chain 0-1-2, pair 5-6, everything else singleton: labels converge to
    the min doc_id of each component, including the transitive chain."""
    import ray.data

    from grawler_ray.functions.dedup import dedup_components

    docs = ray.data.from_items([{"doc_id": i} for i in range(10)])
    pairs = ray.data.from_items(
        [{"a": 1, "b": 2}, {"a": 0, "b": 1}, {"a": 5, "b": 6}]
    )
    out = dedup_components(docs, pairs).to_pandas().sort_values("doc_id")
    comp = dict(zip(out["doc_id"], out["component"]))
    assert comp == {0: 0, 1: 0, 2: 0, 3: 3, 4: 4, 5: 5, 6: 5, 7: 7, 8: 8, 9: 9}
    # the distributed min-label propagation (driver_max_edges=0 forces the
    # large-pair-set path) must produce the identical labeling
    out_d = (
        dedup_components(docs, pairs, driver_max_edges=0)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert dict(zip(out_d["doc_id"], out_d["component"])) == comp


def test_minhash_incremental_vs_bruteforce(docs_ds, tmp_path):
    """Index the corpus once, dedup an increment against it via point reads:
    found cross pairs must exactly match brute-force cross Jaccard >= t
    (restricted to pairs LSH can see — here the planted dups band-collide
    by construction, and the brute-force check is the superset guard)."""
    import ray.data

    from grawler_ray.functions.dedup import (
        build_minhash_index,
        jaccard,
        minhash_dedup_incremental,
        shingles,
    )

    idx = str(tmp_path / "mh_index")
    meta = build_minhash_index(docs_ds, idx)
    assert meta["docs"] == len(_docs_table())

    new_rows = [
        # near-dup of the planted 100/102 family
        {"doc_id": 1000, "text": BASE + " alpha beta gamma delta epsilon zeta"},
        # unrelated content
        {"doc_id": 1001, "text": "completely different content " * 10},
        # empty doc (matches the indexed empty docs 200/201 with jaccard 1.0)
        {"doc_id": 1002, "text": ""},
    ]
    got = (
        minhash_dedup_incremental(ray.data.from_items(new_rows), idx, threshold=0.8)
        .to_pandas()
    )
    pairs = set(zip(got.new_id, got.old_id))
    # brute force: every (new, old) cross pair with true jaccard >= 0.8
    old_sh = {r["doc_id"]: shingles(r["text"]) for r in _docs_table()}
    new_sh = {r["doc_id"]: shingles(r["text"]) for r in new_rows}
    exact = {
        (n, o)
        for n, s_n in new_sh.items()
        for o, s_o in old_sh.items()
        if jaccard(s_n, s_o) >= 0.8
    }
    # everything reported is exact-verified; the planted families are found
    assert pairs <= exact
    assert (1000, 100) in pairs and (1000, 102) in pairs
    assert (1002, 200) in pairs and (1002, 201) in pairs
    assert not any(n == 1001 for n, _ in pairs)
    # identical text => jaccard exactly 1.0
    assert got[(got.new_id == 1000) & (got.old_id == 100)].jaccard.iloc[0] == 1.0


def test_update_minhash_index_equals_fresh_build(docs_ds, tmp_path, ray_session):
    """build(A) + update(B) must answer probes exactly like build(A ∪ B):
    same pair set AND same jaccards for a probe set hitting both the
    original corpus and the appended increment; duplicate run_tag and
    bad tags are refused; meta counts track the append."""
    import ray.data

    from grawler_ray.functions.dedup import (
        build_minhash_index,
        minhash_dedup_incremental,
        update_minhash_index,
    )

    b_rows = [
        {"doc_id": 500, "text": BASE + " newly appended doc about rivers"},
        {"doc_id": 501, "text": ""},  # empty doc joins the empty family
    ]
    probe_rows = [
        {"doc_id": 9000, "text": BASE + " alpha beta gamma delta epsilon zeta"},
        {"doc_id": 9001, "text": BASE + " newly appended doc about rivers"},
        {"doc_id": 9002, "text": ""},
    ]
    probes = ray.data.from_items(probe_rows)

    idx_inc = str(tmp_path / "idx_inc")
    meta0 = build_minhash_index(docs_ds, idx_inc)
    meta1 = update_minhash_index(ray.data.from_items(b_rows), idx_inc, "day2")
    assert meta1["docs"] == meta0["docs"] + 2
    assert meta1["updates"] == ["day2"]

    idx_full = str(tmp_path / "idx_full")
    build_minhash_index(docs_ds.union(ray.data.from_items(b_rows)), idx_full)

    def pairs_of(idx):
        df = minhash_dedup_incremental(probes, idx, threshold=0.8).to_pandas()
        return {(n, o): round(j, 12) for n, o, j in zip(df.new_id, df.old_id, df.jaccard)}

    got_inc, got_full = pairs_of(idx_inc), pairs_of(idx_full)
    assert got_inc == got_full and len(got_inc) > 0
    assert (9001, 500) in got_inc and got_inc[(9001, 500)] == 1.0
    assert (9002, 501) in got_inc  # appended empty doc found at J=1.0
    assert (9000, 100) in got_inc  # original corpus still answered

    with pytest.raises(ValueError, match="already applied"):
        update_minhash_index(ray.data.from_items(b_rows), idx_inc, "day2")
    with pytest.raises(ValueError, match="path-safe"):
        update_minhash_index(ray.data.from_items(b_rows), idx_inc, "a/b")


def test_ann_pq_recall_on_clustered_data(ray_session):
    """PQ + exact re-rank must reach >= 0.9 recall vs the exact baseline on
    the same clustered regime the LSH test uses."""
    import ray.data

    from grawler_ray.functions.similarity import ann_pq_topk, ann_topk

    rng = np.random.default_rng(11)
    centers = rng.standard_normal((10, 32)) * 3
    items = []
    for i in range(400):
        v = centers[i % 10] + 0.3 * rng.standard_normal(32)
        items.append({"vec_id": i, "embedding": v.tolist()})
    ds = ray.data.from_items(items)
    qids = [0, 1, 2, 3, 4]
    exact = ann_topk(ds, qids, k=10).to_pandas()
    approx = ann_pq_topk(ds, qids, k=10, m=8, ks=16, iters=4).to_pandas()
    ex = set(map(tuple, exact[["query_id", "vec_id"]].values))
    ap = set(map(tuple, approx[["query_id", "vec_id"]].values))
    recall = len(ex & ap) / len(ex)
    assert recall >= 0.9, recall


def test_dedup_keep_longest_policy(ray_session):
    """Chain 0-1-2 and pair 5-6: keep_doc_id must be the component member
    with the greatest length (doc_id tiebreak), for every member."""
    import ray.data

    from grawler_ray.functions.dedup import dedup_keep_longest

    docs = ray.data.from_items(
        [{"doc_id": i, "n_chars": [10, 30, 30, 5, 5, 7, 9, 1, 1, 1][i]} for i in range(10)]
    )
    pairs = ray.data.from_items([{"a": 1, "b": 2}, {"a": 0, "b": 1}, {"a": 5, "b": 6}])
    out = dedup_keep_longest(docs, pairs).to_pandas().sort_values("doc_id")
    keep = dict(zip(out.doc_id, out.keep_doc_id))
    # component {0,1,2}: lengths 10,30,30 -> doc 1 wins the tiebreak
    assert keep[0] == keep[1] == keep[2] == 1
    # component {5,6}: 7 vs 9 -> doc 6
    assert keep[5] == keep[6] == 6
    for i in (3, 4, 7, 8, 9):
        assert keep[i] == i


def test_dedup_keep_longest_driver_path_equals_distributed(ray_session):
    """driver_max_docs=0 forces the join + pick exchanges; the default
    driver-numpy small path must agree row-for-row on a random graph."""
    import numpy as np
    import pandas as pd
    import ray.data

    from grawler_ray.functions.dedup import dedup_keep_longest

    rng = np.random.default_rng(21)
    docs = ray.data.from_items(
        [{"doc_id": i, "n_chars": int(rng.integers(1, 40))} for i in range(40)]
    ).repartition(4)
    raw = {(int(a), int(b)) for a, b in rng.integers(0, 40, (25, 2)) if a != b}
    pairs = ray.data.from_items(
        [{"a": min(a, b), "b": max(a, b)} for a, b in sorted(raw)]
    )
    fast = (
        dedup_keep_longest(docs, pairs)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    dist = (
        dedup_keep_longest(docs, pairs, driver_max_docs=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(fast, dist, check_dtype=False)
    assert (fast["keep_doc_id"] != fast["doc_id"]).any()


def test_snapshot_diff_classification(ray_session):
    import ray.data

    from grawler_ray.functions.dedup import snapshot_diff

    a = ray.data.from_items(
        [{"doc_id": i, "text": f"doc {i}"} for i in range(20)]
    ).repartition(4)
    b_rows = [
        {"doc_id": i, "text": f"doc {i}" if i % 3 else f"doc {i} edited"}
        for i in range(20)
        if i % 5 != 0  # removed: multiples of 5
    ] + [{"doc_id": 100, "text": "brand new"}]
    b = ray.data.from_items(b_rows).repartition(4)
    got = dict(
        zip(*(lambda d: (d.doc_id, d.change))(snapshot_diff(a, b).to_pandas()))
    )
    for i in range(20):
        if i % 5 == 0:
            assert got[i] == "removed", i
        elif i % 3 == 0:
            assert got[i] == "changed", i
        else:
            assert got[i] == "unchanged", i
    assert got[100] == "added"
    assert len(got) == 21


def test_change_rate_matches_serial_oracle(ray_session):
    """change_rate vs a per-key serial walk on a random snapshot history:
    late discovery, observation gaps, single-observation keys (0
    intervals), never-changed keys (empty changed-pair index), and keys
    whose last change is mid-history (stale_runs > 0)."""
    import ray.data

    from grawler_ray.functions.dedup import change_rate

    rng = np.random.default_rng(7)
    rows, truth = [], {}
    for key in range(60):
        runs = sorted(
            rng.choice(10, size=int(rng.integers(1, 8)), replace=False).tolist()
        )
        texts, cur = [], f"base {key}"
        for j, r in enumerate(runs):
            if j > 0 and rng.random() < 0.4:
                cur = cur + f" v{r}"
            texts.append(cur)
            rows.append({"doc_id": key, "run": int(r), "text": cur})
        n_int = len(runs) - 1
        changes = [(runs[j], texts[j] != texts[j - 1]) for j in range(1, len(runs))]
        n_chg = sum(c for _, c in changes)
        last = max((r for r, c in changes if c), default=runs[0])
        truth[key] = (n_int, n_chg, n_chg / max(n_int, 1), last, runs[-1] - last)
    rng.shuffle(rows)  # the op's lexsort must do the ordering work
    ds = ray.data.from_items(rows).repartition(5)
    df = change_rate(ds).to_pandas()
    assert len(df) == 60
    assert (df.n_intervals == 0).any() and (df.n_changes == 0).any()
    assert (df.stale_runs > 0).any()
    for rec in df.itertuples():
        n_int, n_chg, ratio, last, stale = truth[rec.doc_id]
        assert rec.n_intervals == n_int and rec.n_changes == n_chg, rec
        assert rec.change_ratio == pytest.approx(ratio)
        assert rec.last_change_run == last and rec.stale_runs == stale, rec


def test_containment_catches_subset_jaccard_misses(ray_session):
    """A short doc fully contained in a long one: containment 1.0, Jaccard
    far below 0.5 — the containment operator must report it, the Jaccard
    operator must not."""
    import ray.data

    from grawler_ray.functions.dedup import (
        ngram_containment_pairs,
        ngram_jaccard_pairs,
    )

    quote = "the quick brown fox jumps over the lazy dog"
    long_doc = quote + " " + " ".join(f"filler{i} word{i} extra{i}" for i in range(40))
    ds = ray.data.from_items(
        [
            {"doc_id": 1, "text": long_doc},
            {"doc_id": 2, "text": quote},
            {"doc_id": 3, "text": "completely unrelated content here"},
        ]
    )
    def pairs_of(out):
        df = out.to_pandas()
        return set() if df.empty else set(map(tuple, df[["a", "b"]].values))

    cont = pairs_of(ngram_containment_pairs(ds, threshold=0.9))
    jac = pairs_of(ngram_jaccard_pairs(ds, threshold=0.5))
    assert (1, 2) in cont
    assert (1, 2) not in jac
    assert (1, 3) not in cont and (2, 3) not in cont


def test_snapshot_diff_string_keys_pandas_blocks(ray_session):
    """pandas-block datasets report numpy dtypes in .schema(); string keys
    must resolve to pa.string(), not the int64 fallback (ADVICE r3)."""
    import pandas as pd
    import ray.data

    from grawler_ray.functions.dedup import snapshot_diff

    a = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [f"u{i}" for i in range(8)],
                      "text": [f"doc {i}" for i in range(8)]})
    )
    b = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [f"u{i}" for i in range(1, 9)],
                      "text": [f"doc {i}" if i != 3 else "edited" for i in range(1, 9)]})
    )
    got = dict(
        zip(*(lambda d: (d.doc_id, d.change))(
            snapshot_diff(a, b, key_col="doc_id").to_pandas()))
    )
    assert got["u0"] == "removed"
    assert got["u8"] == "added"
    assert got["u3"] == "changed"
    assert got["u1"] == "unchanged"
    assert len(got) == 9


def test_dup_ratio_null_source_kept(ray_session):
    """SQL GROUP BY keeps a NULL group; the pandas groupby inside must not
    silently drop null-source rows (ADVICE r3)."""
    import pyarrow as pa
    import ray.data

    from grawler_ray.functions.dedup import dup_ratio_by_source

    t = pa.table(
        {
            "text": ["dup", "dup", "uniq a", "uniq b", "dup"],
            "source": ["s1", "s1", None, None, None],
        }
    )
    out = dup_ratio_by_source(ray.data.from_arrow(t)).to_pandas()
    bysrc = {("<null>" if pd.isna(s) else s): (n, d)
             for s, n, d in zip(out.source, out.n_docs, out.n_dup_docs)}
    assert bysrc["s1"] == (2, 2)
    # the three null-source docs survive as their own group; one of them is
    # part of the corpus-wide "dup" run
    assert bysrc["<null>"] == (3, 1)


def test_shingles_batch_bit_identical_to_scalar():
    """shingles_batch must produce exactly the scalar shingles() values
    (sorted-unique array vs set) across the edge regimes: empty, <k
    tokens, repeated tokens, punctuation-only, unicode, long docs."""
    from grawler_ray.functions.dedup import shingles, shingles_batch

    texts = [
        "",
        "one",
        "one two",
        "one two three four five",
        "dup dup dup dup dup",
        "...!!!???",
        "Ünïcode wörds ünïcode wörds here",
        " ".join(f"tok{i % 37}" for i in range(500)),
        None,
    ]
    got = shingles_batch(texts)
    for txt, arr in zip(texts, got):
        exp = shingles(txt or "")
        assert sorted(exp) == arr.tolist(), txt
        assert arr.dtype == np.uint64


def test_minhash_signature_fold_matches_modulo():
    """The Mersenne fold in minhash_signature must equal plain % M."""
    from grawler_ray.functions.dedup import _MERSENNE, _perm_params, minhash_signature

    a, b = _perm_params(16, seed=1)
    rng = np.random.default_rng(7)
    x = rng.integers(0, np.iinfo(np.int64).max, size=200, dtype=np.int64).astype(np.uint64)
    got = minhash_signature(x, a, b)
    prod = (a[:, None] * x[None, :] + b[:, None]) % np.uint64(_MERSENNE)
    assert (got == prod.min(axis=1)).all()


def test_mirror_sources_planted(ray_session):
    """Prefix-fingerprint mirror pairs: counts, ordering, and the
    cross-source-only rule (same-source dups never pair)."""
    import pyarrow as pa
    import ray.data

    from grawler_ray.functions.dedup import mirror_sources

    rows = [
        # "page1"/"page2" mirrored on a+b; "page1" also on c; d is noise
        ("a", "page1 body"), ("b", "page1 body"), ("c", "page1 body"),
        ("a", "page2 body"), ("b", "page2 body"),
        ("a", "only-a"), ("b", "only-b"), ("d", "only-d"),
        # same-source duplicate must NOT create a pair
        ("d", "dupe"), ("d", "dupe"),
    ]
    t = pa.table(
        {
            "doc_id": list(range(len(rows))),
            "source": [r[0] for r in rows],
            "text": [r[1] for r in rows],
        }
    )
    out = (
        mirror_sources(ray.data.from_arrow(t), k=10)
        .to_pandas()
        .reset_index(drop=True)
    )
    # (a,b) share page1+page2 = 2; (a,c) and (b,c) share page1 = 1
    assert out.values.tolist() == [
        ["a", "b", 2],
        ["a", "c", 1],
        ["b", "c", 1],
    ]


def test_compact_index_dir_preserves_answers(docs_ds, tmp_path, ray_session):
    """After two appends + compaction every bucket is single-file again
    and probe answers are unchanged; a second compaction is a no-op."""
    import glob as _glob

    import ray.data

    from grawler_ray.functions.dedup import (
        build_minhash_index,
        compact_index_dir,
        minhash_dedup_incremental,
        update_minhash_index,
    )

    idx = str(tmp_path / "idx_c")
    build_minhash_index(docs_ds, idx)
    update_minhash_index(
        ray.data.from_items([{"doc_id": 500, "text": BASE + " river doc"}]),
        idx, "d1",
    )
    update_minhash_index(
        ray.data.from_items([{"doc_id": 501, "text": BASE + " river doc two"}]),
        idx, "d2",
    )
    probes = ray.data.from_items(
        [{"doc_id": 9000, "text": BASE + " river doc"},
         {"doc_id": 9001, "text": BASE + " alpha beta gamma delta epsilon zeta"}]
    )

    def answers():
        df = minhash_dedup_incremental(probes, idx, threshold=0.6).to_pandas()
        return {(n, o): round(j, 12) for n, o, j in zip(df.new_id, df.old_id, df.jaccard)}

    before = answers()
    assert any(o == 500 for _, o in before)  # appended doc reachable
    multi = [d for d in _glob.glob(f"{idx}/*/bucket=*")
             if len(_glob.glob(d + "/*.parquet")) > 1]
    assert multi  # appends actually created multi-file buckets
    stats = compact_index_dir(idx)
    assert stats["compacted"] == len(multi)
    assert all(
        len(_glob.glob(d + "/*.parquet")) == 1
        for d in _glob.glob(f"{idx}/*/bucket=*")
    )
    assert answers() == before
    again = compact_index_dir(idx)
    assert again["compacted"] == 0 and again["skipped"] > 0


def _serial_cdc(data: bytes, mn: int, av: int, mx: int) -> list:
    """Per-byte reference implementation of the pinned Gear-CDC spec:
    h = (h<<1) + gear[b] (never reset at cuts), judge bits
    (h >> 16) & (av-1), min-skip, lazy forced max cuts, tail cut."""
    from grawler_ray.functions.dedup import _GEAR_TABLE

    G = [int(x) for x in _GEAR_TABLE]
    M64 = (1 << 64) - 1
    mask = (av - 1) << 16
    h, last, cuts, n = 0, 0, [], len(data)
    for i, bt in enumerate(data):
        h = ((h << 1) + G[bt]) & M64
        if (h & mask) == 0:
            p = i + 1
            while p - last > mx:
                last += mx
                cuts.append(last)
            if p - last >= mn:
                cuts.append(p)
                last = p
    while n - last > mx:
        last += mx
        cuts.append(last)
    if last < n:
        cuts.append(n)
    return cuts


def test_cdc_boundaries_match_serial_oracle():
    import numpy as np

    from grawler_ray.functions.dedup import _cdc_boundaries

    rng = np.random.default_rng(17)
    for trial in range(6):
        n = int(rng.integers(1, 20000))
        data = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        got = _cdc_boundaries(data, 64, 256, 1024).tolist()
        assert got == _serial_cdc(data, 64, 256, 1024), trial
    assert _cdc_boundaries(b"", 64, 256, 1024).tolist() == []
    assert _cdc_boundaries(b"x", 64, 256, 1024).tolist() == [1]
    # all-same-byte input: no judged zeros is fine, max cuts must kick in
    flat = _cdc_boundaries(b"a" * 5000, 64, 256, 1024).tolist()
    assert flat == _serial_cdc(b"a" * 5000, 64, 256, 1024)


def test_cdc_chunks_resynchronize_after_insertion(ray_session):
    """THE content-defined property: inserting bytes near the front shifts
    only the first chunk(s); the chunk-hash suffix sequence re-aligns —
    fixed-size chunking would shift every chunk."""
    import numpy as np
    import ray.data

    from grawler_ray.functions.dedup import cdc_chunks

    rng = np.random.default_rng(23)
    base = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, 8000))
    edited = base[:10] + "INSERTED" + base[10:]
    ds = ray.data.from_items(
        [{"doc_id": 1, "text": base}, {"doc_id": 2, "text": edited}]
    )
    df = cdc_chunks(ds).to_pandas()
    h1 = df[df.doc_id == 1].sort_values("chunk_idx").chunk_hash.tolist()
    h2 = df[df.doc_id == 2].sort_values("chunk_idx").chunk_hash.tolist()
    assert len(h1) > 8
    # suffix re-alignment: all but the first few chunks shared
    k = 0
    while k < min(len(h1), len(h2)) and h1[-1 - k] == h2[-1 - k]:
        k += 1
    assert k >= len(h1) - 3, (len(h1), len(h2), k)
    # invariants: contiguous offsets, length bounds, utf-8 byte conservation
    for did, txt in ((1, base), (2, edited)):
        d = df[df.doc_id == did].sort_values("chunk_idx")
        assert (d.offset.to_numpy() ==
                np.concatenate(([0], d.length.cumsum().to_numpy()[:-1]))).all()
        assert d.length.sum() == len(txt.encode())
        assert (d.length <= 1024).all() and (d.length >= 1).all()


def test_snapshot_delta_payload_handoff(ray_session):
    """The delta is exactly B's added+changed rows WITH payloads: removed
    and unchanged keys never appear, payloads are B's (not A's)."""
    import ray.data

    from grawler_ray.functions.dedup import snapshot_delta

    a = ray.data.from_items(
        [{"doc_id": i, "text": f"doc {i}"} for i in range(12)]
    ).repartition(3)
    b_rows = [
        {"doc_id": i, "text": f"doc {i}" if i % 3 else f"doc {i} EDITED"}
        for i in range(12) if i % 5 != 0  # 0,5,10 removed
    ] + [{"doc_id": 99, "text": "brand new"}]
    b = ray.data.from_items(b_rows).repartition(2)
    df = snapshot_delta(a, b).to_pandas().set_index("doc_id")
    # changed: multiples of 3 still present in B (3, 6, 9, 12? -> 3,6,9)
    want_changed = {i for i in range(12) if i % 3 == 0 and i % 5 != 0}
    assert set(df.index) == want_changed | {99}
    assert df.loc[99].change == "added" and df.loc[99].text == "brand new"
    for i in want_changed:
        assert df.loc[i].change == "changed"
        assert df.loc[i].text == f"doc {i} EDITED"


def test_cdc_delta_stats_reuse(ray_session):
    """Identical snapshots reuse 100% of bytes; one small edit in one doc
    keeps reuse high (only the touched chunk(s) become new bytes); a
    disjoint snapshot reuses ~nothing; serial brute-force equality."""
    import ray.data

    from grawler_ray.functions.dedup import (
        _cdc_boundaries,
        cdc_delta_stats,
    )
    from grawler_ray.urlops import xxhash64_batch

    rng = np.random.default_rng(31)
    docs = [
        {"doc_id": i,
         "text": "".join(chr(97 + int(c)) for c in rng.integers(0, 26, 4000))}
        for i in range(6)
    ]
    a = ray.data.from_items(docs).repartition(2)

    # identical
    same = cdc_delta_stats(a, ray.data.from_items(docs)).to_pandas()
    assert same.reuse_ratio.iloc[0] == 1.0 and same.new_bytes_b.iloc[0] == 0

    # one edit
    edited = [dict(d) for d in docs]
    edited[2]["text"] = edited[2]["text"][:100] + "XX" + edited[2]["text"][100:]
    one = cdc_delta_stats(a, ray.data.from_items(edited)).to_pandas()
    assert 0.9 < one.reuse_ratio.iloc[0] < 1.0

    # serial brute force for the edited case
    def chunk_hashes(text):
        data = text.encode()
        cuts = _cdc_boundaries(data, 64, 256, 1024)
        prev, out = 0, []
        for c in cuts.tolist():
            out.append((data[prev:c], c - prev))
            prev = c
        hs = xxhash64_batch([b for b, _ in out])
        return [(int(h), ln) for h, (_, ln) in zip(hs, out)]

    a_hashes = {h for d in docs for h, _ in chunk_hashes(d["text"])}
    total = reused = 0
    for d in edited:
        for h, ln in chunk_hashes(d["text"]):
            total += ln
            if h in a_hashes:
                reused += ln
    assert one.total_bytes_b.iloc[0] == total
    assert one.reused_bytes_b.iloc[0] == reused

    # disjoint
    other = [{"doc_id": 100 + i,
              "text": "".join(chr(65 + int(c)) for c in rng.integers(0, 26, 3000))}
             for i in range(3)]
    dis = cdc_delta_stats(a, ray.data.from_items(other)).to_pandas()
    assert dis.reuse_ratio.iloc[0] < 0.05
