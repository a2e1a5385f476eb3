"""Fixed-point PageRank: serial-oracle equality on planted graphs + the
sf0.001 DuckDB cross-check of the full unrolled-SQL entry."""

import duckdb
import numpy as np
import pandas as pd

SF = "/root/testdata/sf0.001"
# id offset above 2^53 (as in test_resolve_chains_huge_ids): a cogroup that
# pads int64 ids through float64 lands them on other ids
HUGE = 2**62 + 3
assert int(float(HUGE)) != HUGE


def serial_pagerank(nodes, pairs, d_pct=85, iters=5, scale=10**9):
    """The pinned integer recurrence, straight-line (the executable spec
    for graph.pagerank)."""
    n = len(nodes)
    base = scale // n
    tele = ((100 - d_pct) * base) // 100
    edges = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    deg = {}
    for s, _ in edges:
        deg[s] = deg.get(s, 0) + 1
    r = {v: base for v in nodes}
    for _ in range(iters):
        acc = {v: 0 for v in nodes}
        for s, t in edges:
            acc[t] += r[s] // deg[s]
        r = {v: tele + (d_pct * acc[v]) // 100 for v in nodes}
    return r


class TestPagerank:
    def _run(self, ray_session, nodes, pairs, **kw):
        import ray.data

        from grawler_ray.functions.graph import pagerank

        nodes_ds = ray.data.from_pandas(pd.DataFrame({"v": nodes}))
        pairs_ds = ray.data.from_pandas(
            pd.DataFrame({"a": [a for a, _ in pairs], "b": [b for _, b in pairs]})
        )
        out = pagerank(nodes_ds, pairs_ds, **kw).to_pandas()
        return dict(zip(out["v"], out["rank"]))

    def test_line_graph_vs_serial(self, ray_session):
        nodes = list(range(6))
        pairs = [(0, 1), (1, 2), (2, 3)]  # 4-node path + 2 isolated
        got = self._run(ray_session, nodes, pairs)
        exp = serial_pagerank(nodes, pairs)
        assert got == exp
        # structure: interior path nodes outrank endpoints, isolated lowest
        assert got[1] > got[0] and got[2] > got[3]
        assert got[4] == got[5] < got[0]

    def test_star_hub_vs_serial(self, ray_session):
        nodes = list(range(10))
        pairs = [(0, i) for i in range(1, 8)]  # hub 0, leaves 1-7, 8/9 isolated
        got = self._run(ray_session, nodes, pairs, iters=3)
        exp = serial_pagerank(nodes, pairs, iters=3)
        assert got == exp
        assert got[0] == max(got.values())

    def test_no_edges(self, ray_session):
        nodes = [7, 8, 9]
        got = self._run(ray_session, nodes, [])
        exp = serial_pagerank(nodes, [])
        assert got == exp

    def test_distributed_path_equals_driver_path(self, ray_session):
        """driver_max_edges=0 forces the 2-exchange distributed loop; it
        must agree exactly with the default (driver numpy) small path."""
        nodes = list(range(12))
        pairs = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (6, 7), (1, 8)]
        fast = self._run(ray_session, nodes, pairs)
        dist = self._run(ray_session, nodes, pairs, driver_max_edges=0)
        assert fast == dist
        assert fast == serial_pagerank(nodes, pairs)
        hnodes = [HUGE + v for v in nodes]
        hpairs = [(HUGE + a, HUGE + b) for a, b in pairs]
        hdist = self._run(ray_session, hnodes, hpairs, driver_max_edges=0)
        assert hdist == self._run(ray_session, hnodes, hpairs)
        assert hdist == {HUGE + v: r for v, r in fast.items()}

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW embeddings AS SELECT * FROM read_parquet('{SF}/embeddings.parquet')"
        )
        got = (
            e.queries()["pagerank"](SF)
            .to_pandas()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        exp = (
            con.execute(e.oracle_sql()["pagerank"])
            .fetchdf()
            .sort_values("vec_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
        )
        # connected nodes must outrank isolated ones for the test to mean much
        assert got["rank"].nunique() > 1


class TestDegreeTriangles:
    def _ds(self, pairs):
        import ray.data

        return ray.data.from_pandas(
            pd.DataFrame(
                {"a": [a for a, _ in pairs], "b": [b for _, b in pairs]}
            ).astype(np.int64)
        )

    def _nodes(self, nodes):
        import ray.data

        return ray.data.from_pandas(pd.DataFrame({"v": np.array(nodes, np.int64)}))

    def test_degree_includes_isolated(self, ray_session):
        from grawler_ray.functions.graph import degree_stats

        pairs = [(0, 1), (0, 2), (1, 2), (2, 3)]
        out = degree_stats(self._nodes(range(6)), self._ds(pairs)).to_pandas()
        deg = dict(zip(out["v"], out["degree"]))
        assert deg == {0: 2, 1: 2, 2: 3, 3: 1, 4: 0, 5: 0}

    def test_triangles_planted(self, ray_session):
        from grawler_ray.functions.graph import triangle_count

        # K4 on {0..3} has 4 triangles; the pendant (3,9) adds none
        k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        out = triangle_count(self._ds(k4 + [(3, 9)])).to_pandas()
        assert out["n_triangles"].iloc[0] == 4

    def test_triangles_none(self, ray_session):
        from grawler_ray.functions.graph import triangle_count

        out = triangle_count(self._ds([(0, 1), (2, 3), (4, 5)])).to_pandas()
        assert out["n_triangles"].iloc[0] == 0

    def test_wedge_pairs_matches_triu_reference(self):
        """_wedge_pairs (vectorized run enumeration) == the per-node
        triu_indices construction it replaced, on a random multi-run input."""
        from grawler_ray.functions.graph import _wedge_pairs

        rng = np.random.default_rng(11)
        s = np.sort(rng.integers(0, 40, 300).astype(np.int64))
        t = rng.integers(100, 200, 300).astype(np.int64)
        order = np.lexsort((t, s))
        s, t = s[order], t[order]
        x, y = _wedge_pairs(s, t)
        exp_x, exp_y = [], []
        for v in np.unique(s):
            nb = t[s == v]
            i, j = np.triu_indices(len(nb), 1)
            exp_x.append(nb[i])
            exp_y.append(nb[j])
        exp_x = np.concatenate(exp_x) if exp_x else np.array([], np.int64)
        exp_y = np.concatenate(exp_y) if exp_y else np.array([], np.int64)
        assert np.array_equal(x, exp_x) and np.array_equal(y, exp_y)
        assert len(x) == sum(
            len(t[s == v]) * (len(t[s == v]) - 1) // 2 for v in np.unique(s)
        )

    def test_degree_driver_path_equals_distributed(self, ray_session):
        """driver_max_edges=0 forces the union+groupby exchange; it must
        agree exactly with the default driver-numpy small path, including
        endpoint ids absent from the node table."""
        from grawler_ray.functions.graph import degree_stats

        rng = np.random.default_rng(7)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 30, (60, 2)) if a < b}
        pairs = sorted(pairs)
        nodes = range(0, 25)  # ids 25-29 appear only as endpoints
        fast = (
            degree_stats(self._nodes(nodes), self._ds(pairs))
            .to_pandas().sort_values("v").reset_index(drop=True)
        )
        dist = (
            degree_stats(self._nodes(nodes), self._ds(pairs), driver_max_edges=0)
            .to_pandas().sort_values("v").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(fast, dist, check_dtype=False)

    def test_triangle_driver_path_equals_distributed(self, ray_session):
        from grawler_ray.functions.graph import triangle_count

        rng = np.random.default_rng(13)
        pairs = {(int(a), int(b)) for a, b in rng.integers(0, 20, (80, 2)) if a < b}
        pairs = sorted(pairs)
        fast = triangle_count(self._ds(pairs)).to_pandas()
        dist = triangle_count(self._ds(pairs), driver_max_edges=0).to_pandas()
        wcap = triangle_count(self._ds(pairs), driver_max_wedges=0).to_pandas()
        assert (
            int(fast["n_triangles"].iloc[0])
            == int(dist["n_triangles"].iloc[0])
            == int(wcap["n_triangles"].iloc[0])
        )
        assert int(fast["n_triangles"].iloc[0]) > 0

    def test_dup_pairs_driver_path_equals_distributed(self, ray_session):
        """embedding_dup_pairs driver numpy path == block-group theta-join
        on the sf0.001 embeddings (driver_max_vectors=0 forces the
        distributed plan)."""
        import ray.data

        from grawler_ray.functions.similarity import embedding_dup_pairs

        emb = ray.data.read_parquet(f"{SF}/embeddings.parquet")
        fast = (
            embedding_dup_pairs(emb, threshold=0.45)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        )
        dist = (
            embedding_dup_pairs(emb, threshold=0.45, driver_max_vectors=0)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(fast, dist, check_dtype=False)
        assert len(fast) > 0

    def test_triangles_vs_duckdb_sf(self, ray_session):
        """Full-pipeline check at sf0.001 against the SQL triple-self-join."""
        import ray.data

        from grawler_ray.functions.graph import triangle_count
        from grawler_ray.functions.similarity import embedding_dup_pairs

        emb = ray.data.read_parquet(f"{SF}/embeddings.parquet")
        got = triangle_count(embedding_dup_pairs(emb, threshold=0.45)).to_pandas()
        want = duckdb.sql(
            f"""
            WITH pairs AS (
              SELECT e1.vec_id AS a, e2.vec_id AS b
              FROM read_parquet('{SF}/embeddings.parquet') e1
              JOIN read_parquet('{SF}/embeddings.parquet') e2 ON e1.vec_id < e2.vec_id
              WHERE list_cosine_similarity(CAST(e1.embedding AS DOUBLE[]),
                                           CAST(e2.embedding AS DOUBLE[])) >= 0.45)
            SELECT count(*) FROM pairs p1
            JOIN pairs p2 ON p2.a = p1.a AND p2.b > p1.b
            JOIN pairs p3 ON p3.a = p1.b AND p3.b = p2.b
            """
        ).fetchone()[0]
        assert int(got["n_triangles"].iloc[0]) == int(want)


class TestBfsDepth:
    def _toy(self):
        import pyarrow as pa
        import ray.data

        # path graph 1-2-3-4-5 plus isolated 9
        pairs = ray.data.from_arrow(
            pa.table({"a": [1, 2, 3, 4], "b": [2, 3, 4, 5]})
        )
        nodes = ray.data.from_arrow(pa.table({"v": [1, 2, 3, 4, 5, 9]}))
        return nodes, pairs

    def test_path_graph_depths(self, ray_session):
        from grawler_ray.functions.graph import bfs_depth

        nodes, pairs = self._toy()
        got = (
            bfs_depth(nodes, pairs, seeds=[1], max_iters=3)
            .to_pandas()
            .sort_values("v")
            .reset_index(drop=True)
        )
        assert got["v"].tolist() == [1, 2, 3, 4, 5, 9]
        d = got["depth"].tolist()
        assert d[:4] == [0.0, 1.0, 2.0, 3.0]
        # beyond max_iters and isolated: NULL
        assert np.isnan(d[4]) and np.isnan(d[5])
        assert got["depth"].dtype.kind == "f"

    def test_multi_seed_min(self, ray_session):
        from grawler_ray.functions.graph import bfs_depth

        nodes, pairs = self._toy()
        got = (
            bfs_depth(nodes, pairs, seeds=[1, 5], max_iters=3)
            .to_pandas()
            .sort_values("v")
            .reset_index(drop=True)
        )
        assert got["depth"].tolist()[:5] == [0.0, 1.0, 2.0, 1.0, 0.0]

    def test_distributed_path_equals_driver_path(self, ray_session):
        import pyarrow.parquet as pq
        import ray.data

        from grawler_ray.functions.graph import bfs_depth

        t = pq.read_table(
            f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
        )
        import pyarrow as pa

        OFF = 10_000_000
        o = t.column("l_orderkey").to_numpy().astype(np.int64)
        p = t.column("l_partkey").to_numpy().astype(np.int64) + OFF
        pairs_t = pa.table({"a": pa.array(o), "b": pa.array(p)})
        nodes_t = pa.table({"v": pa.array(np.concatenate([o, p]))})
        seeds = [int(np.sort(np.unique(p))[0])]

        def run(nodes_t=nodes_t, pairs_t=pairs_t, seeds=seeds, **guards):
            return (
                bfs_depth(
                    ray.data.from_arrow(nodes_t),
                    ray.data.from_arrow(pairs_t),
                    seeds,
                    max_iters=3,
                    **guards,
                )
                .to_pandas()
                .sort_values("v")
                .reset_index(drop=True)
            )

        drv = run()
        dist = run(driver_max_nodes=0, driver_max_edges=0)
        pd.testing.assert_frame_equal(drv, dist)

        huge = dict(
            nodes_t=pa.table({"v": pa.array(np.concatenate([o, p]) + HUGE)}),
            pairs_t=pa.table({"a": pa.array(o + HUGE), "b": pa.array(p + HUGE)}),
            seeds=[seeds[0] + HUGE],
        )
        hdist = run(**huge, driver_max_nodes=0, driver_max_edges=0)
        pd.testing.assert_frame_equal(run(**huge), hdist)
        pd.testing.assert_frame_equal(hdist.assign(v=hdist["v"] - HUGE), drv)

    def test_vs_duckdb_recursive_cte(self, ray_session):
        import ray.data

        from grawler_ray.functions.graph import bfs_depth

        OFF = 10_000_000
        li = ray.data.read_parquet(
            f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
        )
        import pyarrow as pa
        import pyarrow.compute as pc

        def to_edges(t):
            return pa.table(
                {
                    "a": t.column("l_orderkey").cast(pa.int64()),
                    "b": pc.add(t.column("l_partkey").cast(pa.int64()), OFF),
                }
            )

        def node_union(t):
            o = t.column("l_orderkey").to_numpy().astype(np.int64)
            p = t.column("l_partkey").to_numpy().astype(np.int64) + OFF
            return pa.table({"v": pa.array(np.concatenate([o, p]), pa.int64())})

        seeds_sql = duckdb.sql(
            f"SELECT p_partkey + {OFF} AS v FROM '{SF}/part.parquet' "
            "ORDER BY p_partkey LIMIT 3"
        ).fetchall()
        seeds = [r[0] for r in seeds_sql]
        got = (
            bfs_depth(
                li.map_batches(node_union, batch_format="pyarrow"),
                li.map_batches(to_edges, batch_format="pyarrow"),
                seeds,
                max_iters=4,
            )
            .to_pandas()
            .sort_values("v")
            .reset_index(drop=True)
        )
        exp = duckdb.sql(
            f"""WITH RECURSIVE
            e AS (SELECT l_orderkey AS s, l_partkey + {OFF} AS t
                  FROM '{SF}/lineitem.parquet'
                  UNION ALL
                  SELECT l_partkey + {OFF}, l_orderkey
                  FROM '{SF}/lineitem.parquet'),
            seeds AS (SELECT p_partkey + {OFF} AS v FROM '{SF}/part.parquet'
                      ORDER BY p_partkey LIMIT 3),
            walk(v, d) AS (
                SELECT v, CAST(0 AS BIGINT) FROM seeds
                UNION
                SELECT e.t, w.d + 1 FROM walk w JOIN e ON e.s = w.v
                WHERE w.d < 4),
            nodes AS (SELECT DISTINCT l_orderkey AS v
                      FROM '{SF}/lineitem.parquet'
                      UNION
                      SELECT DISTINCT l_partkey + {OFF}
                      FROM '{SF}/lineitem.parquet'),
            best AS (SELECT v, min(d) AS depth FROM walk GROUP BY v)
            SELECT n.v, b.depth FROM nodes n LEFT JOIN best b USING (v)
            ORDER BY n.v"""
        ).df().reset_index(drop=True)
        assert got["v"].tolist() == exp["v"].tolist()
        gm, em = got["depth"].isna(), exp["depth"].isna()
        assert (gm.to_numpy() == em.to_numpy()).all()
        assert got["depth"][~gm].tolist() == exp["depth"][~em].tolist()


class TestCommonNeighbors:
    def _toy(self):
        import pyarrow as pa
        import ray.data

        # square 1-2-3-4-1 plus diagonal chord 1-3: common neighbors of
        # (2,4) = {1,3} -> 2; (1,3) = {2,4} -> 2; all other pairs 1
        return ray.data.from_arrow(
            pa.table({"a": [1, 2, 3, 4, 1], "b": [2, 3, 4, 1, 3]})
        )

    def test_square_with_chord(self, ray_session):
        from grawler_ray.functions.graph import common_neighbors_topk

        got = common_neighbors_topk(self._toy(), k=3).to_pandas()
        assert got[["x", "y", "n_common"]].values.tolist() == [
            [1, 3, 2],
            [2, 4, 2],
            [1, 2, 1],
        ]

    def test_distributed_equals_driver(self, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from grawler_ray.functions.graph import common_neighbors_topk

        t = pq.read_table(
            f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
        )
        OFF = 10_000_000
        pairs_t = pa.table(
            {
                "a": t.column("l_orderkey").cast(pa.int64()),
                "b": pa.array(
                    t.column("l_partkey").to_numpy().astype(np.int64) + OFF
                ),
            }
        )

        def run(**guards):
            return (
                common_neighbors_topk(
                    ray.data.from_arrow(pairs_t), k=15, **guards
                )
                .to_pandas()
                .reset_index(drop=True)
            )

        drv = run()
        dist = run(driver_max_edges=0)
        pd.testing.assert_frame_equal(drv, dist)

    def test_vs_duckdb_self_join(self, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data

        from grawler_ray.functions.graph import common_neighbors_topk

        t = pq.read_table(
            f"{SF}/lineitem.parquet", columns=["l_orderkey", "l_partkey"]
        )
        OFF = 10_000_000
        pairs_t = pa.table(
            {
                "a": t.column("l_orderkey").cast(pa.int64()),
                "b": pa.array(
                    t.column("l_partkey").to_numpy().astype(np.int64) + OFF
                ),
            }
        )
        got = common_neighbors_topk(
            ray.data.from_arrow(pairs_t), k=25
        ).to_pandas()
        exp = duckdb.sql(
            f"""WITH e AS (SELECT DISTINCT l_orderkey AS s,
                                  l_partkey + {OFF} AS t
                           FROM '{SF}/lineitem.parquet'
                           UNION
                           SELECT DISTINCT l_partkey + {OFF}, l_orderkey
                           FROM '{SF}/lineitem.parquet')
            SELECT e1.t AS x, e2.t AS y, count(*)::BIGINT AS n_common
            FROM e e1 JOIN e e2 ON e1.s = e2.s AND e1.t < e2.t
            GROUP BY x, y ORDER BY n_common DESC, x, y LIMIT 25"""
        ).df()
        assert got.values.tolist() == exp.values.tolist()

    def test_empty_edges(self, ray_session):
        import pyarrow as pa
        import ray.data

        from grawler_ray.functions.graph import common_neighbors_topk

        empty = ray.data.from_arrow(
            pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
        )
        assert common_neighbors_topk(empty, k=5).count() == 0


class TestMembershipCopair:
    def _toy(self):
        import pyarrow as pa
        import ray.data

        # groups: g1={1,2,3}, g2={1,2}, g3={2,3}, hub={1,2,3,4}
        g = ["g1"] * 3 + ["g2"] * 2 + ["g3"] * 2 + ["hub"] * 4
        v = [1, 2, 3, 1, 2, 2, 3, 1, 2, 3, 4]
        return ray.data.from_arrow(pa.table({"grp": g, "member": v}))

    def test_planted_counts(self, ray_session):
        from grawler_ray.functions.graph import membership_copair_topk

        got = membership_copair_topk(
            self._toy(), "grp", "member", k=10
        ).to_pandas()
        # (1,2): g1,g2,hub=3; (2,3): g1,g3,hub=3; (1,3): g1,hub=2; ...
        top = got[["x", "y", "n_shared"]].values.tolist()
        assert top[0] == [1, 2, 3] and top[1] == [2, 3, 3]
        assert [1, 3, 2] in top

    def test_group_size_cap(self, ray_session):
        from grawler_ray.functions.graph import membership_copair_topk

        got = membership_copair_topk(
            self._toy(), "grp", "member", k=10, max_group_size=3
        ).to_pandas()
        # hub (size 4) excluded: (1,2)=2, (2,3)=2, (1,3)=1; no pairs with 4
        assert 4 not in set(got["x"]).union(got["y"])
        top = got[["x", "y", "n_shared"]].values.tolist()
        assert top[0] == [1, 2, 2] and top[1] == [2, 3, 2]

    def test_distributed_equals_driver(self, ray_session):
        import pyarrow as pa
        import ray.data

        from grawler_ray.functions.graph import membership_copair_topk

        rng = np.random.RandomState(7)
        g = [f"g{int(x)}" for x in rng.randint(0, 200, 5000)]
        v = rng.randint(0, 300, 5000).astype(np.int64)
        ds = ray.data.from_arrow(pa.table({"grp": g, "member": v}))

        def run(**kw):
            return (
                membership_copair_topk(
                    ds, "grp", "member", k=30, max_group_size=40, **kw
                )
                .to_pandas()
                .reset_index(drop=True)
            )

        pd.testing.assert_frame_equal(run(), run(driver_max_rows=0))

    def test_vs_duckdb(self, ray_session):
        import pyarrow as pa
        import ray.data

        from grawler_ray.functions.graph import membership_copair_topk

        rng = np.random.RandomState(11)
        g = [f"w{int(x)}" for x in rng.randint(0, 50, 2000)]
        v = rng.randint(0, 100, 2000).astype(np.int64)
        ds = ray.data.from_arrow(pa.table({"grp": g, "member": v}))
        got = membership_copair_topk(
            ds, "grp", "member", k=20, max_group_size=30
        ).to_pandas()
        df = pd.DataFrame({"grp": g, "member": v})
        exp = duckdb.sql(
            """WITH m AS (SELECT DISTINCT grp, member FROM df),
            ok AS (SELECT grp FROM m GROUP BY grp HAVING count(*) <= 30),
            e AS (SELECT m.grp, m.member FROM m JOIN ok USING (grp))
            SELECT e1.member AS x, e2.member AS y,
                   count(*)::BIGINT AS n_shared
            FROM e e1 JOIN e e2
              ON e1.grp = e2.grp AND e1.member < e2.member
            GROUP BY x, y ORDER BY n_shared DESC, x, y LIMIT 20"""
        ).df()
        assert got.values.tolist() == exp.values.tolist()


class TestCommonNeighborsDegreeCap:
    def test_cap_excludes_hub_middle(self, ray_session):
        import pyarrow as pa
        import ray.data

        from grawler_ray.functions.graph import common_neighbors_topk

        # star: hub 99 adjacent to 1..5; plus chord 1-2 via middle 7
        pairs = ray.data.from_arrow(
            pa.table(
                {
                    "a": [99, 99, 99, 99, 99, 7, 7],
                    "b": [1, 2, 3, 4, 5, 1, 2],
                }
            )
        )
        full = common_neighbors_topk(pairs, k=20).to_pandas()
        assert [1, 2, 2] in full[["x", "y", "n_common"]].values.tolist()
        capped = common_neighbors_topk(pairs, k=20, max_degree=3).to_pandas()
        # hub 99 (deg 5) excluded as the MIDDLE vertex (it may still be an
        # endpoint): (3,4)/(3,5)/... via middle 99 vanish; what's left is
        # (7,99) via middles 1 and 2, and (1,2) via middle 7
        assert capped[["x", "y", "n_common"]].values.tolist() == [
            [7, 99, 2],
            [1, 2, 1],
        ]

    def test_cap_distributed_equals_driver(self, ray_session):
        import pyarrow as pa
        import ray.data

        from grawler_ray.functions.graph import common_neighbors_topk

        rng = np.random.RandomState(3)
        a = rng.randint(0, 150, 3000).astype(np.int64)
        b = (rng.randint(0, 150, 3000) + 1000).astype(np.int64)
        ds = ray.data.from_arrow(pa.table({"a": a, "b": b}))

        def run(**kw):
            return (
                common_neighbors_topk(ds, k=15, max_degree=25, **kw)
                .to_pandas()
                .reset_index(drop=True)
            )

        pd.testing.assert_frame_equal(run(), run(driver_max_edges=0))


class TestBfsDistributedEdges:
    def test_distributed_early_exit_isolated_seed(self, ray_session):
        """Seed with no edges: the distributed loop's first iteration
        reaches nobody and must break, leaving depth 0 at the seed and
        NULL everywhere else."""
        import pyarrow as pa
        import ray.data

        from grawler_ray.functions.graph import bfs_depth

        pairs = ray.data.from_arrow(pa.table({"a": [2], "b": [3]}))
        nodes = ray.data.from_arrow(pa.table({"v": [1, 2, 3]}))
        got = (
            bfs_depth(
                pairs_ds=pairs,
                nodes_ds=nodes,
                seeds=[1],
                max_iters=5,
                driver_max_nodes=0,
                driver_max_edges=0,
            )
            .to_pandas()
            .sort_values("v")
            .reset_index(drop=True)
        )
        assert got["v"].tolist() == [1, 2, 3]
        d = got["depth"].tolist()
        assert d[0] == 0.0 and np.isnan(d[1]) and np.isnan(d[2])

    def test_distributed_duplicate_node_rows(self, ray_session):
        """nodes_ds with duplicate rows: the update run-scan must emit one
        state row per distinct v (both paths)."""
        import pyarrow as pa
        import ray.data

        from grawler_ray.functions.graph import bfs_depth

        pairs = ray.data.from_arrow(pa.table({"a": [1], "b": [2]}))
        nodes = ray.data.from_arrow(pa.table({"v": [1, 1, 2, 2, 2, 3]}))

        def run(**guards):
            return (
                bfs_depth(nodes, pairs, seeds=[1], max_iters=2, **guards)
                .to_pandas()
                .sort_values("v")
                .reset_index(drop=True)
            )

        drv = run()
        dist = run(driver_max_nodes=0, driver_max_edges=0)
        assert drv["v"].tolist() == [1, 2, 3]
        pd.testing.assert_frame_equal(drv, dist)


def _serial_kcore(pairs, k):
    """Straight-line peel: the executable spec for graph.kcore."""
    edges = {(a, b) for a, b in pairs if a != b}
    edges |= {(b, a) for a, b in edges}
    while True:
        deg = {}
        for s, _ in edges:
            deg[s] = deg.get(s, 0) + 1
        alive = {v for v, d in deg.items() if d >= k}
        kept = {(s, t) for s, t in edges if s in alive and t in alive}
        if kept == edges:
            return sorted({s for s, _ in edges})
        edges = kept


class TestKCore:
    def _run(self, ray_session, pairs, k, **kw):
        import ray.data

        from grawler_ray.functions.graph import kcore

        ds = ray.data.from_items([{"a": a, "b": b} for a, b in pairs]).repartition(3)
        out = kcore(ds, k=k, **kw).to_pandas()
        return sorted(out["v"].tolist()) if len(out.columns) else []

    def test_deep_peel_path_graph(self, ray_session):
        """A 12-node path at k=2 peels ONE layer per round from each end
        all the way to empty — the deep-iteration case the dense gate
        graph (fixpoint in 2) cannot exercise."""
        pairs = [(i, i + 1) for i in range(11)]
        assert self._run(ray_session, pairs, 2) == []
        assert _serial_kcore(pairs, 2) == []

    def test_cycle_with_tail(self, ray_session):
        # 5-cycle (all deg 2) + a 3-node tail: k=2 core is the cycle only
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (4, 10), (10, 11), (11, 12)]
        assert self._run(ray_session, pairs, 2) == [0, 1, 2, 3, 4]
        assert _serial_kcore(pairs, 2) == [0, 1, 2, 3, 4]

    def test_clique_thresholds_and_self_loops(self, ray_session):
        import itertools

        clique = list(itertools.combinations(range(5), 2))
        noisy = clique + [(2, 2), (7, 7)]  # self-loops never add degree
        assert self._run(ray_session, noisy, 4) == [0, 1, 2, 3, 4]
        assert self._run(ray_session, noisy, 5) == []

    def test_distributed_equals_driver_random(self, ray_session):
        rng = np.random.default_rng(19)
        pairs = [
            (int(a), int(b))
            for a, b in rng.integers(0, 40, size=(150, 2))
        ]
        exp = _serial_kcore(pairs, 3)
        drv = self._run(ray_session, pairs, 3)
        dist = self._run(ray_session, pairs, 3, driver_max_edges=0)
        assert drv == exp
        assert dist == exp
        hpairs = [(HUGE + a, HUGE + b) for a, b in pairs]
        hexp = [HUGE + v for v in exp]
        assert self._run(ray_session, hpairs, 3) == hexp
        assert self._run(ray_session, hpairs, 3, driver_max_edges=0) == hexp


def serial_hits(nodes, pairs, iters=4, scale=10**9):
    """The pinned integer HITS recurrence, straight-line (the executable
    spec for graph.hits): truncating-total normalization each half-step."""
    h = {v: scale for v in nodes}
    a = {v: 0 for v in nodes}
    for _ in range(iters):
        ar = {v: 0 for v in nodes}
        for s, t in pairs:
            ar[t] += h[s]
        d = max(1, sum(ar.values()) // scale)
        a = {v: ar[v] // d for v in nodes}
        hr = {v: 0 for v in nodes}
        for s, t in pairs:
            hr[s] += a[t]
        d = max(1, sum(hr.values()) // scale)
        h = {v: hr[v] // d for v in nodes}
    return h, a


class TestHits:
    def _run(self, ray_session, nodes, pairs, **kw):
        import ray.data

        from grawler_ray.functions.graph import hits

        nodes_ds = ray.data.from_pandas(pd.DataFrame({"v": np.array(nodes, np.int64)}))
        pairs_ds = ray.data.from_pandas(
            pd.DataFrame(
                {"s": [a for a, _ in pairs], "t": [b for _, b in pairs]}
            ).astype(np.int64)
        )
        out = hits(nodes_ds, pairs_ds, **kw).to_pandas()
        return (
            dict(zip(out["v"], out["hub"])),
            dict(zip(out["v"], out["auth"])),
        )

    def test_bipartite_vs_serial(self, ray_session):
        # 2 hubs -> 3 targets; hub 0 links all three, hub 1 links one
        nodes = [0, 1, 10, 11, 12]
        pairs = [(0, 10), (0, 11), (0, 12), (1, 10)]
        gh, ga = self._run(ray_session, nodes, pairs)
        eh, ea = serial_hits(nodes, pairs)
        assert gh == eh and ga == ea
        assert gh[0] > gh[1]  # broader hub outranks
        assert ga[10] > ga[11]  # doubly-cited target is the top authority
        assert gh[10] == 0 and ga[0] == 0  # no out-edges -> hub 0; no in -> auth 0

    def test_multiset_edges_double_weight(self, ray_session):
        nodes = [0, 1, 2]
        gh1, ga1 = self._run(ray_session, nodes, [(0, 2), (1, 2)], iters=1)
        gh2, ga2 = self._run(ray_session, nodes, [(0, 2), (0, 2), (1, 2)], iters=1)
        eh, ea = serial_hits(nodes, [(0, 2), (0, 2), (1, 2)], iters=1)
        assert gh2 == eh and ga2 == ea
        assert gh2[0] > gh2[1]  # parallel edge doubles 0's weight
        assert gh1[0] == gh1[1]

    def test_no_edges(self, ray_session):
        nodes = [7, 8, 9]
        gh, ga = self._run(ray_session, nodes, [])
        assert set(gh.values()) == {0} and set(ga.values()) == {0}

    def test_distributed_path_equals_driver_path(self, ray_session):
        """driver_max_edges=0 forces the 4-exchange-per-iteration
        distributed loop; it must agree exactly with the driver numpy
        small path and the serial spec."""
        rng = np.random.default_rng(11)
        nodes = list(range(40))
        pairs = [
            (int(rng.integers(0, 40)), int(rng.integers(0, 40))) for _ in range(120)
        ]
        fast = self._run(ray_session, nodes, pairs)
        dist = self._run(ray_session, nodes, pairs, driver_max_edges=0)
        assert fast == dist
        assert fast == serial_hits(nodes, pairs)
        hnodes = [HUGE + v for v in nodes]
        hpairs = [(HUGE + a, HUGE + b) for a, b in pairs]
        hdist = self._run(ray_session, hnodes, hpairs, driver_max_edges=0)
        assert hdist == self._run(ray_session, hnodes, hpairs)
        assert hdist == tuple({HUGE + v: x for v, x in m.items()} for m in fast)

    def test_vs_duckdb_sf(self, ray_session):
        import __ray_entry__ as e

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW lineitem AS SELECT * FROM read_parquet('{SF}/lineitem.parquet')"
        )
        got = (
            e.queries()["hits_scores"](SF)
            .to_pandas()
            .sort_values("node_id")
            .reset_index(drop=True)
        )
        exp = (
            con.execute(e.oracle_sql()["hits_scores"])
            .fetchdf()
            .sort_values("node_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], exp[sorted(exp.columns)], check_dtype=False
        )
        assert got["hub"].nunique() > 1 and got["auth"].nunique() > 1
