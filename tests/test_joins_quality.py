"""Temporal joins (as-of, range) and Gopher repetition/quality signals:
hand-built edge fixtures + DuckDB cross-checks at sf0.001."""

import datetime as dt

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"

T0 = dt.datetime(2024, 1, 1)


def _min(m):
    return T0 + dt.timedelta(minutes=m)


def _ev(ray_session, rows):
    import ray.data

    return ray.data.from_items(rows)


def _row(eid, uid, m, etype, value=1.0):
    return {
        "event_id": eid,
        "user_id": uid,
        "ts": _min(m),
        "event_type": etype,
        "value": value,
        "props": "{}",
    }


class TestAsofJoin:
    def test_edges(self, ray_session):
        from grawler_ray.functions.joins import asof_join

        rows = [
            _row(1, 1, 0, "purchase", 10.0),
            _row(2, 1, 5, "click"),          # matches purchase 1
            _row(3, 1, 5, "purchase", 20.0),  # same-ts as click 4 below
            _row(4, 1, 5, "click"),          # at-or-before inclusive -> 3
            _row(5, 1, 3, "click"),          # between 0 and 5 -> 1
            _row(6, 2, 1, "click"),          # user 2 has no purchase -> null
            _row(7, 3, 9, "purchase", 5.0),
            _row(8, 3, 9, "purchase", 7.0),   # tie on (user, ts): max event_id wins
            _row(9, 3, 10, "click"),
            _row(10, 1, 2, "view", 99.0),     # other types ignored entirely
        ]
        out = asof_join(_ev(ray_session, rows)).to_pandas()
        m = out.set_index("event_id")
        assert m.loc[2, "matched_event_id"] == 3  # same-ts purchase 3 beats 1
        assert m.loc[4, "matched_event_id"] == 3
        assert m.loc[5, "matched_event_id"] == 1
        assert m.loc[5, "matched_cents"] == 1000
        assert pd.isna(m.loc[6, "matched_event_id"])
        assert m.loc[9, "matched_event_id"] == 8  # tie: max event_id
        assert m.loc[9, "matched_cents"] == 700
        assert set(out.event_id) == {2, 4, 5, 6, 9}  # left rows only

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        got = (
            e.queries()["asof_join"](SF)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
        )
        exp = (
            con.execute(e.oracle_sql()["asof_join"])
            .fetchdf()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        assert len(got) == len(exp)
        for c in ["event_id", "user_id", "matched_event_id", "matched_cents"]:
            ga, ea = got[c], exp[c]
            assert ((ga == ea) | (ga.isna() & ea.isna())).all(), c
        # representation parity, not just value parity: the match columns
        # must land as Arrow int64-with-nulls -> float64/NaN after
        # to_pandas, exactly like DuckDB's fetchdf — a pandas-native Int64
        # `<NA>` block fails the driver's value hash (round-3 escape)
        for c in ["matched_event_id", "matched_cents"]:
            assert got[c].dtype.kind == exp[c].dtype.kind, (
                c, got[c].dtype, exp[c].dtype
            )
            assert (got[c].isna().to_numpy() == exp[c].isna().to_numpy()).all(), c


class TestRangeJoin:
    def test_bucket_straddle_and_empty(self, ray_session):
        from grawler_ray.functions.joins import range_join_count

        # every=2: events 0 and 2 spawn intervals. Interval at minute 50
        # straddles the 30-min bucket boundary at minute 60.
        rows = [
            _row(0, 1, 50, "view", 1.0),    # interval [50, 80); buckets 1 and 2
            _row(1, 1, 59, "view", 2.0),    # in [50,80), bucket 1
            _row(2, 2, 300, "view", 4.0),   # interval [300, 330); no other events
            _row(3, 1, 61, "view", 8.0),    # in [50,80), bucket 2
            _row(5, 1, 80, "view", 16.0),   # AT end: excluded (half-open)
            _row(7, 1, 49, "view", 32.0),   # before start: excluded
        ]
        out = range_join_count(
            _ev(ray_session, rows), every=2, window_minutes=30
        ).to_pandas()
        m = out.set_index("interval_id")
        assert m.loc[0, "n_events"] == 3  # events 0 (itself), 1, 3
        assert m.loc[0, "sum_cents"] == 100 + 200 + 800
        assert m.loc[2, "n_events"] == 1  # only itself
        assert set(out.interval_id) == {0, 2}

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        got = (
            e.queries()["range_join_count"](SF)
            .to_pandas()
            .sort_values("interval_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
        )
        exp = (
            con.execute(e.oracle_sql()["range_join_count"])
            .fetchdf()
            .sort_values("interval_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestTimeWindowSum:
    def test_edges(self, ray_session):
        from grawler_ray.functions.events import time_window_sum

        rows = [
            _row(1, 1, 0, "view", 1.0),
            _row(2, 1, 30, "view", 2.0),
            _row(3, 1, 60, "view", 4.0),   # window [0,60]: includes ALL three
            _row(4, 1, 61, "view", 8.0),   # window [1,61]: excludes minute 0
            _row(5, 1, 200, "view", 16.0),  # alone
            _row(6, 2, 60, "view", 32.0),   # other user isolated
            # peers at the same ts are BOTH included in each other's window
            _row(7, 3, 10, "view", 1.0),
            _row(8, 3, 10, "view", 2.0),
        ]
        out = time_window_sum(
            _ev(ray_session, rows), window_us=3_600_000_000
        ).to_pandas()
        w = dict(zip(out.event_id, out.win_cents))
        assert w[1] == 100
        assert w[2] == 300
        assert w[3] == 700          # 1h window inclusive of both bounds
        assert w[4] == 8 * 100 + 600  # minute 0 drops out
        assert w[5] == 1600
        assert w[6] == 3200
        assert w[7] == 300 and w[8] == 300  # RANGE peers

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        got = (
            e.queries()["time_window_sum"](SF)
            .to_pandas()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
        )
        exp = (
            con.execute(e.oracle_sql()["time_window_sum"])
            .fetchdf()
            .sort_values("event_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestLineDedup:
    def test_boilerplate_strip(self, ray_session):
        import ray.data

        from grawler_ray.functions.quality import line_dedup

        nav = "home | products | about"
        docs = ray.data.from_items(
            [
                {"doc_id": 1, "text": f"{nav}\nunique body one\n\nfooter text"},
                {"doc_id": 2, "text": f"{nav}\nanother body\n\nfooter text"},
                {"doc_id": 3, "text": f"{nav}\nthird body here\n\nfooter text"},
                {"doc_id": 4, "text": "standalone page with no chrome"},
            ]
        )
        # nav x3, '' x3, footer x3 exceed max_rep=2; bodies survive
        out = (
            line_dedup(docs, max_rep=2).to_pandas().set_index("doc_id").sort_index()
        )
        assert out.loc[1, "kept_text"] == "unique body one"
        assert out.loc[2, "kept_text"] == "another body"
        assert out.loc[1, "n_lines_removed"] == 3
        assert out.loc[4, "kept_text"] == "standalone page with no chrome"
        assert out.loc[4, "n_lines_removed"] == 0

    def test_blocklist_guard_broadcast_raises(self, ray_session):
        import pytest as _pytest
        import ray.data

        from grawler_ray.functions.quality import line_dedup

        docs = ray.data.from_items(
            [{"doc_id": i, "text": "common\ncommon\ncommon"} for i in range(3)]
        )
        with _pytest.raises(ValueError, match="blocklist"):
            line_dedup(
                docs, max_rep=1, driver_max_lines=0, strategy="broadcast"
            ).to_pandas()

    def test_guard_auto_falls_back_to_join(self, ray_session):
        """VERDICT r3 item 6: above the driver guard, auto must FALL BACK
        to the shuffle-join plan (and match it), not raise."""
        import ray.data

        from grawler_ray.functions.quality import line_dedup

        docs = ray.data.from_items(
            [
                {"doc_id": i, "text": f"common header\nbody {i}\ncommon footer"}
                for i in range(6)
            ]
        )
        crossed = (
            line_dedup(docs, max_rep=2, driver_max_lines=0)  # auto, guard crossed
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        exact = (
            line_dedup(docs, max_rep=2, strategy="broadcast")
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(crossed, exact)
        assert crossed.loc[0, "kept_text"] == "body 0"

    def test_join_strategy_equals_broadcast(self, ray_session):
        """The hashed no-driver-state plan must reproduce the exact-string
        broadcast plan byte-for-byte (empty lines, blank-only docs,
        0-boilerplate docs, word-level sep)."""
        import ray.data

        from grawler_ray.functions.quality import line_dedup

        nav = "home | products | about"
        rows = [
            {"doc_id": 1, "text": f"{nav}\nunique body one\n\nfooter text"},
            {"doc_id": 2, "text": f"{nav}\nanother body\n\nfooter text"},
            {"doc_id": 3, "text": f"{nav}\nthird body here\n\nfooter text"},
            {"doc_id": 4, "text": "standalone page with no chrome"},
            {"doc_id": 5, "text": ""},
            {"doc_id": 6, "text": "\n\n"},
        ]
        docs = ray.data.from_items(rows).repartition(3)
        for kw in ({"max_rep": 2}, {"max_rep": 1, "sep": " "}):
            a = (
                line_dedup(docs, strategy="join", **kw)
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
            b = (
                line_dedup(docs, strategy="broadcast", **kw)
                .to_pandas().sort_values("doc_id").reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(a, b)

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        got = (
            e.queries()["line_dedup"](SF)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        exp = (
            con.execute(e.oracle_sql()["line_dedup"])
            .fetchdf()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
        )
        # the word-unit entry actually strips something at this scale
        assert got["n_lines_removed"].sum() > 0


class TestTfidfTopk:
    def test_planted(self, ray_session):
        import ray.data

        from grawler_ray.functions.textstats import tfidf_topk

        # "rare" appears in one doc, "common" in all three: with integer
        # idf = (N*scale)//df, rare scores 3e6*tf vs common's 1e6*tf
        docs = ray.data.from_items(
            [
                {"doc_id": 1, "text": "common rare common"},
                {"doc_id": 2, "text": "common alpha"},
                {"doc_id": 3, "text": "common beta beta"},
            ]
        )
        out = tfidf_topk(docs, k=1).to_pandas().set_index("doc_id").sort_index()
        assert out.loc[1, "word"] == "rare" and out.loc[1, "score"] == 3_000_000
        assert out.loc[3, "word"] == "beta" and out.loc[3, "score"] == 6_000_000
        assert (out["rank"] == 1).all()

    def test_rank_tiebreak_word_asc(self, ray_session):
        import ray.data

        from grawler_ray.functions.textstats import tfidf_topk

        # zeta and alpha tie on score (same tf, same df) -> alpha ranks first
        docs = ray.data.from_items(
            [{"doc_id": 1, "text": "zeta alpha"}, {"doc_id": 2, "text": "zeta alpha"}]
        )
        out = tfidf_topk(docs, k=2).to_pandas()
        d1 = out[out.doc_id == 1].sort_values("rank")
        assert list(d1["word"]) == ["alpha", "zeta"]

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        got = (
            e.queries()["tfidf_topk"](SF)
            .to_pandas()
            .sort_values(["doc_id", "rank"])
            .reset_index(drop=True)
        )
        exp = (
            con.execute(e.oracle_sql()["tfidf_topk"])
            .fetchdf()
            .sort_values(["doc_id", "rank"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
        )


class TestDecontaminate:
    def test_planted(self, ray_session):
        import ray.data

        from grawler_ray.functions.quality import decontaminate

        bench = ray.data.from_items(
            [{"doc_id": 100, "text": "the quick brown fox jumps"}]
        )
        train = ray.data.from_items(
            [
                # shares "quick brown fox" -> contaminated
                {"doc_id": 1, "text": "a quick brown fox ran away"},
                # disjoint vocabulary -> clean
                {"doc_id": 2, "text": "completely different words here"},
                # shares words but never 3 consecutive -> clean
                {"doc_id": 3, "text": "brown quick the fox assorted jumps"},
                # shorter than k tokens -> never contaminated
                {"doc_id": 4, "text": "quick brown"},
            ]
        )
        out = decontaminate(train, bench, k=3).to_pandas().set_index("doc_id")
        assert out.loc[1, "is_contaminated"] == 1 and out.loc[1, "n_hits"] == 1
        assert out.loc[2, "is_contaminated"] == 0
        assert out.loc[3, "is_contaminated"] == 0
        assert out.loc[4, "is_contaminated"] == 0 and out.loc[4, "n_hits"] == 0

    def test_guard(self, ray_session):
        import pytest as _pytest
        import ray.data

        from grawler_ray.functions.quality import decontaminate

        bench = ray.data.from_items([{"doc_id": 1, "text": "a b c d e"}])
        with _pytest.raises(ValueError, match="shingle set"):
            decontaminate(bench, bench, k=3, driver_max_shingles=1).to_pandas()

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        got = (
            e.queries()["decontaminate"](SF)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        exp = (
            con.execute(e.oracle_sql()["decontaminate"])
            .fetchdf()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
        )
        # both flag values occur at this scale
        assert set(got["is_contaminated"].unique()) == {0, 1}


class TestInvertedIndex:
    def test_planted(self, ray_session):
        import ray.data

        from grawler_ray.functions.textstats import inverted_index

        docs = ray.data.from_items(
            [
                {"doc_id": 3, "text": "apple banana apple"},
                {"doc_id": 1, "text": "banana cherry"},
                {"doc_id": 2, "text": "Apple"},
            ]
        )
        out = inverted_index(docs).to_pandas().set_index("word").sort_index()
        # postings ascend by doc_id regardless of block arrival order
        assert out.loc["apple", "postings"] == "2,3"
        assert out.loc["apple", "df"] == 2 and out.loc["apple", "total_tf"] == 3
        assert out.loc["banana", "postings"] == "1,3"
        assert out.loc["cherry", "postings"] == "1" and out.loc["cherry", "df"] == 1

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        got = (
            e.queries()["inverted_index"](SF)
            .to_pandas()
            .sort_values("word")
            .reset_index(drop=True)
        )
        exp = (
            con.execute(e.oracle_sql()["inverted_index"])
            .fetchdf()
            .sort_values("word")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
        )


class TestQuality:
    def test_repetition_signals_kernel(self):
        from grawler_ray.functions.quality import _doc_signals

        # 4 non-empty lines, "dup" twice; words: the cat the cat the -> top
        # bigram "the cat" x2 (8 chars incl space -> 16 dup chars)
        text = "dup\nunique line\n\ndup\nthe cat the cat the"
        (
            n_lines,
            n_dup,
            dup_chars,
            total_chars,
            word_chars,
            top_cnt,
            top_chars,
        ) = _doc_signals(text)
        assert n_lines == 4  # empty line excluded
        assert n_dup == 1
        assert dup_chars == 3  # one extra "dup"
        assert total_chars == 3 + 11 + 3 + len("the cat the cat the")
        assert top_cnt == 2 and top_chars == 2 * len("the cat")
        # empty text
        assert _doc_signals("") == (0, 0, 0, 0, 0, 0, 0)
        # single word: no bigrams
        assert _doc_signals("hello")[5] == 0

    def test_quality_filter_reasons(self, ray_session):
        import ray.data

        from grawler_ray.functions.quality import quality_filter_batch

        docs = ray.data.from_items(
            [
                {"doc_id": 1, "text": "tiny"},
                {"doc_id": 2, "text": "spam line\n" * 10 + "unique words appear here today"},
                {
                    "doc_id": 3,
                    "text": "a perfectly normal document with many distinct words in it "
                    "covering several different topics across multiple sentences "
                    "so that no single bigram dominates the character budget",
                },
                {"doc_id": 4, "text": "buy now buy now buy now buy now buy now"},
            ]
        )
        out = (
            docs.map_batches(quality_filter_batch(), batch_format="pyarrow")
            .to_pandas()
            .set_index("doc_id")
        )
        assert out.loc[1, "reason"] == "too_short"
        assert out.loc[2, "reason"] == "dup_lines"
        assert out.loc[3, "reason"] == "" and bool(out.loc[3, "keep"])
        assert out.loc[4, "reason"] == "top_bigram"

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        for q in ["repetition_signals", "quality_filter"]:
            got = (
                e.queries()[q](SF)
                .to_pandas()
                .sort_values("doc_id")
                .reset_index(drop=True)
            )
            exp = (
                con.execute(e.oracle_sql()[q]).fetchdf().sort_values("doc_id").reset_index(drop=True)
            )
            got = got[sorted(got.columns)]
            exp = exp[sorted(exp.columns)]
            pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestRedactPii:
    def test_planted(self, ray_session):
        """Crafted PII strings: sequential order matters (the phone pass runs
        on the email-redacted string), placeholders are never re-matched."""
        import pyarrow as pa

        from grawler_ray.functions.quality import redact_pii_batch

        t = pa.table(
            {
                "doc_id": [1, 2, 3, 4],
                "text": [
                    "mail a.b+c@sub.example.org or x@y.io now",
                    "call 555-123-4567 or 555.987.6543 today",
                    "host 192.168.0.1 and 10.0.0.255 up",
                    "none here: foo at bar dot com, 12-34, 1.2.3",
                ],
            }
        )
        out = redact_pii_batch(t).to_pydict()
        assert out["text"][0] == "mail <EMAIL> or <EMAIL> now"
        assert out["n_emails"] == [2, 0, 0, 0]
        assert out["text"][1] == "call <PHONE> or <PHONE> today"
        assert out["n_phones"] == [0, 2, 0, 0]
        assert out["text"][2] == "host <IP> and <IP> up"
        assert out["n_ips"] == [0, 0, 2, 0]
        assert out["text"][3] == "none here: foo at bar dot com, 12-34, 1.2.3"

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        got = e.queries()["redact_pii"](SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
        exp = (
            con.execute(e.oracle_sql()["redact_pii"])
            .fetchdf()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        # the salt guarantees the scrub actually fires on every row
        assert (got["n_emails"] >= 1).all() and (got["n_phones"] >= 1).all()
        assert (got["n_ips"] >= 1).all()
        got = got[sorted(got.columns)]
        exp = exp[sorted(exp.columns)]
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)


class TestHashAntiJoin:
    def test_matches_set_difference(self, ray_session):
        import ray.data

        from grawler_ray.functions.joins import hash_anti_join

        rng = np.random.default_rng(31)
        left = pd.DataFrame(
            {
                "k": np.arange(500, dtype=np.int64),
                "name": [f"cust{i}" for i in range(500)],
                "bal": rng.integers(0, 10_000, 500).astype(np.int64),
            }
        )
        right_keys = rng.choice(500, 300, replace=True).astype(np.int64)
        right = pd.DataFrame({"fk": right_keys})
        got = (
            hash_anti_join(
                ray.data.from_pandas(left).repartition(8),
                ray.data.from_pandas(right).repartition(8),
                on_left="k",
                on_right="fk",
            )
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = (
            left[~left.k.isin(set(right_keys.tolist()))]
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["k", "name", "bal"]], want)

    def test_empty_right_keeps_all(self, ray_session):
        import ray.data

        from grawler_ray.functions.joins import hash_anti_join

        left = pd.DataFrame({"k": np.arange(20, dtype=np.int64)})
        right = pd.DataFrame({"fk": np.array([], dtype=np.int64)})
        got = hash_anti_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            on_left="k",
            on_right="fk",
        ).to_pandas()
        assert sorted(got.k.tolist()) == list(range(20))


class TestRepartitionJoin:
    def test_matches_pandas_merge_with_dup_keys(self, ray_session):
        import ray.data

        from grawler_ray.functions.joins import repartition_join

        rng = np.random.default_rng(37)
        left = pd.DataFrame(
            {
                "k": rng.integers(0, 60, 400).astype(np.int64),
                "lv": np.arange(400, dtype=np.int64),
            }
        )
        # duplicate keys on BOTH sides: full inner-join multiplicity
        rk = rng.integers(0, 80, 150)
        # an int32 right key travels under the left name, cast to int64
        for rk_dtype in (np.int64, np.int32):
            right = pd.DataFrame(
                {"rk": rk.astype(rk_dtype), "rv": [f"r{i}" for i in range(150)]}
            )
            got = (
                repartition_join(
                    ray.data.from_pandas(left).repartition(8),
                    ray.data.from_pandas(right).repartition(8),
                    on_left="k",
                    on_right="rk",
                )
                .to_pandas()
                .sort_values(["k", "lv", "rv"])
                .reset_index(drop=True)
            )
            assert list(got.columns) == ["k", "lv", "rv"]
            assert got["k"].dtype == np.int64
            want = (
                left.merge(right.rename(columns={"rk": "k"}), on="k", how="inner")
                .sort_values(["k", "lv", "rv"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(got, want[["k", "lv", "rv"]])

    def test_right_side_runs_once_for_schema_once_for_join(self, ray_session, tmp_path):
        """A renamed right side is read for its schema once: its map runs
        one schema probe plus the join, never a second probe."""
        import os
        import tempfile

        import ray.data

        from grawler_ray.functions.joins import repartition_join

        calls = tmp_path / "calls"
        calls.mkdir()

        def counted(t):
            os.close(tempfile.mkstemp(dir=calls)[0])  # one file per call
            return t

        left = ray.data.from_pandas(pd.DataFrame({"k": np.arange(50, dtype=np.int64)}))
        right = ray.data.from_pandas(
            pd.DataFrame({"rk": np.arange(0, 50, 5, dtype=np.int32),
                          "rv": np.arange(10, dtype=np.int64)})
        ).map_batches(counted, batch_format="pyarrow")
        got = repartition_join(left, right, on_left="k", on_right="rk").to_pandas()
        assert sorted(got.k) == list(range(0, 50, 5))
        assert len(list(calls.iterdir())) <= 2

    def test_no_matches_yields_empty_with_schema(self, ray_session):
        import ray.data

        from grawler_ray.functions.joins import repartition_join

        left = pd.DataFrame({"k": np.arange(10, dtype=np.int64)})
        right = pd.DataFrame({"rk": np.arange(100, 110, dtype=np.int64),
                              "rv": np.arange(10, dtype=np.int64)})
        got = repartition_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            on_left="k",
            on_right="rk",
        )
        df = got.to_pandas()
        assert len(df) == 0


class TestStringKeyJoins:
    def test_repartition_join_on_url_keys(self, ray_session):
        import ray.data

        from grawler_ray.functions.joins import repartition_join

        left = pd.DataFrame(
            {
                "url": [f"http://site{i % 5}.test/p{i}" for i in range(100)],
                "lv": np.arange(100, dtype=np.int64),
            }
        )
        right = pd.DataFrame(
            {
                "u2": [f"http://site{i % 5}.test/p{i}" for i in range(0, 100, 3)],
                "rv": np.arange(0, 100, 3).astype(np.int64),
            }
        )
        got = (
            repartition_join(
                ray.data.from_pandas(left).repartition(4),
                ray.data.from_pandas(right).repartition(4),
                on_left="url",
                on_right="u2",
            )
            .to_pandas()
            .sort_values("lv")
            .reset_index(drop=True)
        )
        want = (
            left.merge(right.rename(columns={"u2": "url"}), on="url")
            .sort_values("lv")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got[["url", "lv", "rv"]], want)

    def test_anti_join_on_string_keys(self, ray_session):
        import ray.data

        from grawler_ray.functions.joins import hash_anti_join

        left = pd.DataFrame({"url": [f"u{i}" for i in range(30)]})
        right = pd.DataFrame({"seen": [f"u{i}" for i in range(0, 30, 2)]})
        got = hash_anti_join(
            ray.data.from_pandas(left),
            ray.data.from_pandas(right),
            on_left="url",
            on_right="seen",
        ).to_pandas()
        assert set(got.url) == {f"u{i}" for i in range(1, 30, 2)}


def test_repartition_join_left_outer(ray_session):
    """how='left' keeps unmatched left rows exactly once with Arrow-null
    right payloads (float64/NaN after to_pandas, never pandas Int64)."""
    import numpy as np
    import ray.data

    from grawler_ray.functions.joins import repartition_join

    left = ray.data.from_items(
        [{"k": i, "lv": i * 10} for i in range(20)]
    ).repartition(3)
    right = ray.data.from_items(
        [{"rk": i, "rv": i * 100} for i in range(0, 20, 2)]  # evens only
        + [{"rk": 4, "rv": 999}]  # duplicate key multiplies
    ).repartition(2)
    out = (
        repartition_join(left, right, on_left="k", on_right="rk", how="left")
        .to_pandas()
        .sort_values(["k", "rv"])
        .reset_index(drop=True)
    )
    # 20 left rows, k=4 doubled
    assert len(out) == 21
    assert (out.k == 4).sum() == 2
    odd = out[out.k % 2 == 1]
    assert odd.rv.isna().all() and len(odd) == 10
    assert out.rv.dtype.kind == "f"  # Arrow int64-with-nulls -> float64/NaN
    even = out[(out.k % 2 == 0) & (out.rv != 999)]
    assert (even.rv.to_numpy() == even.k.to_numpy() * 100).all()
    # inner join drops the unmatched rows but keeps the duplicate
    inner = repartition_join(left, right, on_left="k", on_right="rk").to_pandas()
    assert len(inner) == 11


def test_repartition_join_full_outer(ray_session):
    """how='outer' additionally keeps unmatched RIGHT rows (key coalesced,
    left payload null)."""
    import ray.data

    from grawler_ray.functions.joins import repartition_join

    left = ray.data.from_items(
        [{"k": i, "lv": i * 10} for i in range(10)]  # 0..9
    ).repartition(3)
    right = ray.data.from_items(
        [{"rk": i, "rv": i * 100} for i in range(5, 15)]  # 5..14
    ).repartition(2)
    out = (
        repartition_join(left, right, on_left="k", on_right="rk", how="outer")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert len(out) == 15 and sorted(out.k) == list(range(15))
    matched = out[(out.k >= 5) & (out.k <= 9)]
    assert (matched.rv.to_numpy() == matched.k.to_numpy() * 100).all()
    assert (matched.lv.to_numpy() == matched.k.to_numpy() * 10).all()
    left_only = out[out.k < 5]
    assert left_only.rv.isna().all() and left_only.lv.notna().all()
    right_only = out[out.k > 9]
    assert right_only.lv.isna().all()
    assert (right_only.rv.to_numpy() == right_only.k.to_numpy() * 100).all()
    # null repr rule: Arrow int64-with-nulls -> float64/NaN, never Int64
    assert out.lv.dtype.kind == "f" and out.rv.dtype.kind == "f"


def test_group_topk_rank_and_ties(ray_session):
    """Value-descending per-group top-k with id tie-break == the
    row_number() window; empty sparse partitions stay schema-stable."""
    import numpy as np
    import pandas as pd
    import ray.data

    from grawler_ray.functions.sampling import group_topk

    rng = np.random.RandomState(7)
    n = 500
    df = pd.DataFrame(
        {
            "g": rng.randint(0, 23, n).astype(np.int64),
            "id": np.arange(n, dtype=np.int64),
            "v": rng.randint(0, 9, n).astype(np.int64),  # small range -> ties
        }
    )
    out = (
        group_topk(ray.data.from_pandas(df).repartition(4), "g", "id", "v", k=3)
        .to_pandas()
        .sort_values(["g", "rank"])
        .reset_index(drop=True)
    )
    exp = df.sort_values(["g", "v", "id"], ascending=[True, False, True]).copy()
    exp["rank"] = exp.groupby("g").cumcount() + 1
    exp = exp[exp["rank"] <= 3].sort_values(["g", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        out[["g", "id", "v", "rank"]].astype(np.int64),
        exp[["g", "id", "v", "rank"]].astype(np.int64),
    )


def test_repartition_join_composite_keys(ray_session):
    """List-valued on_left/on_right: the (int, string) tuple key must
    match as a whole — same-user different-type rows never cross-match;
    checked against pandas merge on a planted frame."""
    import numpy as np
    import pandas as pd
    import ray.data

    from grawler_ray.functions.joins import repartition_join

    rng = np.random.RandomState(11)
    l = pd.DataFrame(
        {
            "u": rng.randint(0, 12, 80).astype(np.int64),
            "ty": rng.choice(["a", "b", "c"], 80),
            "lv": np.arange(80, dtype=np.int64),
        }
    )
    r = pd.DataFrame(
        {
            "ru": rng.randint(0, 12, 40).astype(np.int64),
            "rty": rng.choice(["a", "b", "c"], 40),
            "rv": np.arange(40, dtype=np.int64) * 7,
        }
    )
    for how in ("inner", "left"):
        got = (
            repartition_join(
                ray.data.from_pandas(l).repartition(3),
                ray.data.from_pandas(r).repartition(2),
                on_left=["u", "ty"],
                on_right=["ru", "rty"],
                how=how,
            )
            .to_pandas()
            .sort_values(["u", "ty", "lv", "rv"])
            .reset_index(drop=True)
        )
        exp = (
            l.merge(r, left_on=["u", "ty"], right_on=["ru", "rty"], how=how)
            .drop(columns=["ru", "rty"])
            .sort_values(["u", "ty", "lv", "rv"])
            .reset_index(drop=True)
        )
        assert len(got) == len(exp)
        assert (got["lv"].to_numpy() == exp["lv"].to_numpy()).all()
        gv, ev = got["rv"].to_numpy(), exp["rv"].to_numpy()
        nan_g, nan_e = pd.isna(gv), pd.isna(ev)
        assert (nan_g == nan_e).all()
        assert (gv[~nan_g] == ev[~nan_e]).all()
    # mismatched key-list lengths are rejected
    import pytest

    with pytest.raises(AssertionError):
        repartition_join(
            ray.data.from_pandas(l), ray.data.from_pandas(r),
            on_left=["u", "ty"], on_right=["ru"],
        )
