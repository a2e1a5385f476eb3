"""Link-graph centrality over a distributed edge table.

PageRank (Page et al. 1999, public paper) re-expressed Ray-Data-first:
every step is a coarse-hash repartition join (union + groupby, the
pattern this repo uses everywhere `Dataset.join` would deadlock — see
CLAUDE.md) or an Arrow hash-aggregate; no driver-side adjacency, no
per-node groups.  Arithmetic is INTEGER FIXED-POINT (ranks scaled by
``scale``, floor division everywhere) so the DuckDB oracle — the same
recurrence unrolled as k CTE layers — hash-compares bit-exactly: float
PageRank would drift across summation orders, integer sums are
order-independent.

Pinned recurrence (mirrored in __ray_entry__.oracle_sql()["pagerank"]):

    n        = |nodes|
    base     = scale // n
    tele     = ((100 - d_pct) * base) // 100
    r_0(v)   = base
    r_{k+1}(v) = tele + (d_pct * sum_{(u,v) in E} (r_k(u) // deg(u))) // 100

Edges are an undirected pair list (a, b), symmetrized to both directions;
deg(u) is u's directed out-degree after symmetrization.  Nodes with no
edges keep rank = tele + 0 after the first iteration (no dangling-mass
redistribution — the variant is pinned, both sides implement the same
one).  Dropped mass is the standard price of the simple variant; rank
ORDER, which is what centrality consumers use, is unaffected.

Scale shape: per iteration, ONE coarse src-hash shuffle joins ranks onto
edges (contrib = r//deg rides the edge row), one Arrow hash-aggregate
sums contributions per dst, and ONE coarse dst-hash shuffle left-joins
the sums back onto the node table.  The rank table (2 ints/node) is
materialized between iterations to keep the lazy DAG shallow (bounded:
O(nodes), the same control-table discipline as the crawl frontier).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..shuffle import LEG, coarse_cogroup, coarse_group, coarse_groupby, key_index


def _wedge_pairs(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All ordered neighbor pairs (x, y), x-position < y-position, within
    each run of equal ``s`` — fully vectorized (no per-node Python loop):
    for edge position p in a run ending at ``hi``, it pairs with the
    ``hi - 1 - p`` later positions; one np.repeat + one cumsum-offset
    arange enumerates every (p, q) block.  Inputs MUST be sorted by
    (s, t); since t is sorted within a run, x <= y per wedge."""
    m = len(s)
    if m == 0:
        return np.array([], np.int64), np.array([], np.int64)
    starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
    ends = np.append(starts[1:], m)
    hi_per_edge = np.repeat(ends, ends - starts)
    reps = hi_per_edge - 1 - np.arange(m)
    total = int(reps.sum())
    if total == 0:
        return np.array([], np.int64), np.array([], np.int64)
    P = np.repeat(np.arange(m), reps)
    cum = np.concatenate(([0], np.cumsum(reps)))
    Q = P + 1 + (np.arange(total) - cum[P])
    return t[P], t[Q]


def degree_stats(
    nodes_ds,
    pairs_ds,
    node_col: str = "v",
    pair_cols: tuple = ("a", "b"),
    driver_max_nodes: int = 5_000_000,
    driver_max_edges: int = 2_000_000,
):
    """Per-node degree over an undirected canonical pair list (a < b),
    INCLUDING zero-degree nodes — the graph-health primitive (degree
    distribution feeds skew decisions for every other graph op here).
    Output (node_col, degree:int64).

    Scale shape: one row per edge endpoint + one zero row per node into a
    single node-hash aggregate — no adjacency materialization, no join;
    the left-join-with-zeros is expressed as union + sum, the repo's
    repartition-join pattern degenerated to its cheapest case.  Both
    union legs emit ARROW blocks: a groupby().sum() fed by pandas blocks
    is the Ray 2.49 sort-aggregate slow path (CLAUDE.md rule).

    Size-adaptive small path (the pagerank pattern, round 4): below
    (``driver_max_nodes``, ``driver_max_edges``) the degree count runs as
    driver numpy over the pulled narrow (a, b) / node-id columns — even
    the single 8-group exchange costs ~4 s of launch latency on a graph
    whose arithmetic is ~1 ms.  Identical semantics (one output row per
    distinct id in nodes ∪ endpoints), asserted equal in tests.  The edge
    table is materialized either way (it is consumed for the size probe
    and then the count — the pagerank control-table discipline; 16 B/row).
    """
    import ray.data

    a, b = pair_cols
    pairs_ds = pairs_ds.materialize()
    n_edges = pairs_ds.count()
    n_nodes = nodes_ds.count()
    if n_nodes <= driver_max_nodes and n_edges <= driver_max_edges:
        if n_edges:
            ep = pairs_ds.select_columns([a, b]).to_pandas()
            v = np.concatenate(
                [ep[a].to_numpy().astype(np.int64), ep[b].to_numpy().astype(np.int64)]
            )
        else:
            v = np.array([], np.int64)
        nv = (
            nodes_ds.select_columns([node_col]).to_pandas()[node_col]
            .to_numpy()
            .astype(np.int64)
            if n_nodes
            else np.array([], np.int64)
        )
        uniq = np.unique(np.concatenate([nv, v]))
        deg = np.bincount(np.searchsorted(uniq, v), minlength=len(uniq))
        # arrow block on purpose: matches the distributed path's block type
        return ray.data.from_arrow(
            pa.table(
                {node_col: pa.array(uniq, pa.int64()),
                 "degree": pa.array(deg.astype(np.int64))}
            )
        )

    def endpoints(t: pa.Table) -> pa.Table:
        v = np.concatenate(
            [
                t.column(a).to_numpy(zero_copy_only=False).astype(np.int64),
                t.column(b).to_numpy(zero_copy_only=False).astype(np.int64),
            ]
        )
        return pa.table({"v": pa.array(v, pa.int64()),
                         "one": pa.array(np.ones(len(v), np.int64))})

    def zeros(t: pa.Table) -> pa.Table:
        v = t.column(node_col).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"v": pa.array(v, pa.int64()),
                         "one": pa.array(np.zeros(len(v), np.int64))})

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({node_col: t.column("v"), "degree": t.column("sum(one)")})

    return (
        pairs_ds.map_batches(endpoints, batch_format="pyarrow")
        .union(nodes_ds.map_batches(zeros, batch_format="pyarrow"))
        .groupby("v")
        .sum("one")
        .map_batches(rename, batch_format="pyarrow", batch_size=None)
    )


def triangle_count(
    pairs_ds,
    pair_cols: tuple = ("a", "b"),
    num_groups: int = 64,
    driver_max_edges: int = 2_000_000,
    driver_max_wedges: int = 30_000_000,
):
    """Exact triangle count over the undirected canonical pair list (a < b):
    each triangle {a<b<c} is counted ONCE, as the wedge (b, c) generated at
    its lowest vertex a matched against the edge (b, c).

    Scale shape (node-iterator algorithm, Schank & Wagner 2005): wedges are
    generated per lowest-vertex adjacency run inside a coarse a-hash
    groupby (id-orientation bounds wedge count by sum of C(deg_>,2) over
    the CANONICAL out-neighborhood — at web scale you'd orient by degree
    instead of id to tame hubs; the partitioning assumption is that one
    node's canonical neighbor list fits a group); the wedge–edge match is
    a coarse-key-hash ``coarse_cogroup`` repartition join, shipping one
    packed key per wedge and never building a global adjacency.  Returns a
    1-row Dataset (n_triangles:int64)."""
    import ray.data

    a, b = pair_cols
    # the edge table is consumed twice (wedge generation + the closing-edge
    # match); materialize it once so an expensive upstream pair producer
    # (e.g. the cosine all-pairs) doesn't execute twice — same bounded
    # control-table discipline as pagerank's edges
    pairs_ds = pairs_ds.materialize()

    # Size-adaptive small path (the pagerank pattern, round 4): below
    # driver_max_edges AND driver_max_wedges (the true memory bound —
    # checked from run lengths BEFORE any wedge is materialized), the
    # wedge–edge match runs as driver numpy: two coarse exchanges cost
    # ~5 s of launch latency on a 144-edge graph with 1 triangle.
    # Identical algorithm (same _wedge_pairs kernel, same packed-key
    # searchsorted match), asserted equal to the distributed path in tests.
    n_edges = pairs_ds.count()
    if n_edges <= driver_max_edges:
        if n_edges == 0:
            return ray.data.from_pandas(
                pd.DataFrame({"n_triangles": np.array([0], np.int64)})
            )
        ep = pairs_ds.select_columns([a, b]).to_pandas()
        s = ep[a].to_numpy().astype(np.int64)
        t = ep[b].to_numpy().astype(np.int64)
        order = np.lexsort((t, s))
        s, t = s[order], t[order]
        starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
        d = np.append(starts[1:], len(s)) - starts
        n_wedges = int((d * (d - 1) // 2).sum())
        if n_wedges <= driver_max_wedges:
            if len(s) and (int(max(s.max(), t.max())) >= (1 << 31)):
                raise OverflowError(
                    "triangle_count id packing needs node ids < 2^31"
                )
            ek = np.sort(s * np.int64(1 << 31) + t)
            x, y = _wedge_pairs(s, t)
            wk = x * np.int64(1 << 31) + y
            if len(wk):
                pos = np.searchsorted(ek, wk)
                ok = (pos < len(ek)) & (ek[np.minimum(pos, len(ek) - 1)] == wk)
                n_tri = int(ok.sum())
            else:
                n_tri = 0
            return ray.data.from_pandas(
                pd.DataFrame({"n_triangles": np.array([n_tri], np.int64)})
            )

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"s": df[a].to_numpy(np.int64), "t": df[b].to_numpy(np.int64)})

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["s", "t"])
        s = df["s"].to_numpy(np.int64)
        t = df["t"].to_numpy(np.int64)
        x, y = _wedge_pairs(s, t)  # vectorized across ALL nodes in the group
        return pd.DataFrame({"x": x, "y": y})

    wedge_ds = coarse_groupby(
        pairs_ds.map_batches(edge_rows, batch_format="pandas"),
        "s",
        wedges,
        num_groups,
        "pandas",
    )

    # repartition join: wedge keys and edge keys cogrouped on the packed
    # (x, y) key, matched inside each coarse key-hash group with one
    # searchsorted
    def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        # collision-free key packing needs ids < 2^31; beyond that, switch
        # the match key to the raw (x, y) 2-column groupby (same pattern,
        # one more shuffle column) — fail loudly rather than miscount
        if len(x) and (int(x.max()) >= (1 << 31) or int(y.max()) >= (1 << 31)):
            raise OverflowError("triangle_count id packing needs node ids < 2^31")
        return x * np.int64(1 << 31) + y

    def packed(cx: str, cy: str):
        def fn(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame({"key": _pack(df[cx].to_numpy(np.int64), df[cy].to_numpy(np.int64))})

        return fn

    def match(t: pa.Table) -> pa.Table:
        # leg 0: wedge keys, leg 1: edge keys
        leg = t.column(LEG).to_numpy()
        key = t.column("key").to_numpy()
        n = int(key_index(key[leg == 1], key[leg == 0])[1].sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    # wedges materialized: the cogroup reads each leg's schema, and a lazy
    # wedge leg would run the wedge exchange once more to learn it
    matched = coarse_cogroup(
        [
            wedge_ds.map_batches(packed("x", "y"), batch_format="pandas").materialize(),
            pairs_ds.map_batches(packed(a, b), batch_format="pandas"),
        ],
        "key",
        match,
        num_groups,
    )

    def total(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n_triangles": np.array([df["n"].sum()], np.int64)})

    return matched.repartition(1).map_batches(total, batch_format="pandas", batch_size=None)


def pagerank(
    nodes_ds,
    pairs_ds,
    node_col: str = "v",
    pair_cols: tuple = ("a", "b"),
    d_pct: int = 85,
    iters: int = 5,
    scale: int = 10**9,
    num_groups: int | None = None,
    driver_max_nodes: int = 5_000_000,
    driver_max_edges: int = 2_000_000,
):
    """Returns a Dataset (node_col, rank) with int64 fixed-point ranks
    after ``iters`` synchronous iterations of the pinned recurrence.

    ``num_groups=None`` sizes the coarse-hash shuffle to the node count:
    every iteration pays 2 shuffles regardless of data size, so at small
    n the group count (per-group map_groups fixed cost × iters) dominates
    wall time — 8 groups for <1M nodes, growing to 256 at 100M+.

    Size-adaptive small path (the dedup_components pattern, round 4):
    below (``driver_max_nodes``, ``driver_max_edges``) the whole
    recurrence runs as driver numpy over the pulled (s, t, deg) edge list
    — identical integer arithmetic, asserted equal to the distributed
    path in tests — because even 8-group exchanges cost ~2 s of launch
    latency each and 2 × iters of them dominate small graphs (a 2000-node
    sf0.1 graph spent 25 s orchestrating ~1 ms of arithmetic).  Above the
    guards, the 2-exchange-per-iteration distributed loop takes over.
    """
    import ray.data

    a, b = pair_cols
    n = nodes_ds.count()
    if n == 0:
        return nodes_ds
    if num_groups is None:
        num_groups = 8 if n < 1_000_000 else (64 if n < 100_000_000 else 256)
    base = scale // n
    tele = ((100 - d_pct) * base) // 100

    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        s = np.concatenate([df[a].to_numpy(np.int64), df[b].to_numpy(np.int64)])
        t = np.concatenate([df[b].to_numpy(np.int64), df[a].to_numpy(np.int64)])
        return pd.DataFrame({"sg": coarse_group(s, num_groups), "s": s, "t": t})

    edges = pairs_ds.map_batches(symmetrize, batch_format="pandas")

    # deg rides each edge row: within an sg group every edge of a given s
    # is present (sg is a function of s), so deg is the run length
    def attach_deg(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("s")
        s = df["s"].to_numpy()
        m = len(df)
        if m == 0:
            return pd.DataFrame(
                {
                    "sg": np.array([], np.int32),
                    "s": np.array([], np.int64),
                    "t": np.array([], np.int64),
                    "deg": np.array([], np.int64),
                }
            )
        start = np.concatenate(([True], s[1:] != s[:-1]))
        run = np.cumsum(start) - 1
        deg = np.bincount(run)[run]
        out = df[["sg", "s", "t"]].copy()
        out["deg"] = deg.astype(np.int64)
        return out

    edges = (
        edges.groupby("sg").map_groups(attach_deg, batch_format="pandas").materialize()
    )

    n_edges = edges.count()
    if n <= driver_max_nodes and n_edges <= driver_max_edges:
        if n_edges:
            ep = edges.to_pandas()
            s = ep["s"].to_numpy(np.int64)
            t = ep["t"].to_numpy(np.int64)
            deg = ep["deg"].to_numpy(np.int64)
        else:  # empty blocks lose their schema on to_pandas
            s = t = deg = np.array([], np.int64)
        nv = np.sort(
            nodes_ds.select_columns([node_col]).to_pandas()[node_col].to_numpy(np.int64)
        )
        si = np.searchsorted(nv, s)
        ti = np.searchsorted(nv, t)
        r = np.full(len(nv), base, np.int64)
        for _ in range(iters):
            csum = np.zeros(len(nv), np.int64)
            if len(s):
                # np.add.at, not bincount(weights=...): weights go through
                # float64 and corrupt int64 sums beyond 2^53
                np.add.at(csum, ti, r[si] // deg)
            r = tele + (d_pct * csum) // 100
        # pandas block on purpose: matches the distributed path's block
        # type for downstream unions (the dedup_components lesson)
        return ray.data.from_pandas(
            pd.DataFrame({node_col: nv, "rank": r})
        )

    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        v = df[node_col].to_numpy(np.int64)
        return pd.DataFrame(
            {"vg": coarse_group(v, num_groups), "v": v, "r": np.full(len(v), base, np.int64)}
        )

    ranks = nodes_ds.map_batches(node_rows, batch_format="pandas").materialize()

    for _ in range(iters):
        # --- join ranks onto edges by src (union + coarse-hash groupby) ---
        def tag_rank_as_src(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "sg": df["vg"].to_numpy(np.int32),
                    "s": df["v"].to_numpy(np.int64),
                    "t": np.full(len(df), -1, np.int64),
                    "deg": np.zeros(len(df), np.int64),
                    "r": df["r"].to_numpy(np.int64),
                    "is_edge": np.zeros(len(df), np.int8),
                }
            )

        def tag_edge(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "sg": df["sg"].to_numpy(np.int32),
                    "s": df["s"].to_numpy(np.int64),
                    "t": df["t"].to_numpy(np.int64),
                    "deg": df["deg"].to_numpy(np.int64),
                    "r": np.zeros(len(df), np.int64),
                    "is_edge": np.ones(len(df), np.int8),
                }
            )

        def contrib_group(df: pd.DataFrame) -> pd.DataFrame:
            """Rank-onto-edges lookup + per-destination PARTIAL sums in one
            kernel (round 4, VERDICT r3): contributions leave the group
            pre-summed per dst and already keyed/tagged for the node-side
            shuffle, which eliminates the separate groupby(t).sum exchange —
            pagerank now pays 2 all-to-alls per iteration instead of 3."""
            ise = df["is_edge"].to_numpy() == 1
            rv = df.loc[~ise].sort_values("s")
            rs, rr = rv["s"].to_numpy(np.int64), rv["r"].to_numpy(np.int64)
            es = df.loc[ise, "s"].to_numpy(np.int64)
            if len(es) == 0 or len(rs) == 0:
                return pd.DataFrame(
                    {
                        "vg": np.array([], np.int32),
                        "v": np.array([], np.int64),
                        "csum": np.array([], np.int64),
                        "is_sum": np.array([], np.int8),
                    }
                )
            pos = np.searchsorted(rs, es)
            pos = np.minimum(pos, len(rs) - 1)
            # every edge src is a node; assert-by-construction (gate tests)
            r_src = rr[pos]
            deg = df.loc[ise, "deg"].to_numpy(np.int64)
            c = r_src // deg
            t = df.loc[ise, "t"].to_numpy(np.int64)
            order = np.argsort(t, kind="stable")
            ts, cs = t[order], c[order]
            starts = np.concatenate(([True], ts[1:] != ts[:-1]))
            uniq_t = ts[starts]
            part = np.add.reduceat(cs, np.flatnonzero(starts))  # int64-exact
            return pd.DataFrame(
                {
                    "vg": coarse_group(uniq_t, num_groups),
                    "v": uniq_t,
                    "csum": part.astype(np.int64),
                    "is_sum": np.ones(len(uniq_t), np.int8),
                }
            )

        both = ranks.map_batches(tag_rank_as_src, batch_format="pandas").union(
            edges.map_batches(tag_edge, batch_format="pandas")
        )
        sums = both.groupby("sg").map_groups(contrib_group, batch_format="pandas")

        def tag_node(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "vg": df["vg"].to_numpy(np.int32),
                    "v": df["v"].to_numpy(np.int64),
                    "csum": np.zeros(len(df), np.int64),
                    "is_sum": np.zeros(len(df), np.int8),
                }
            )

        def apply_group(df: pd.DataFrame) -> pd.DataFrame:
            # contributions arrive as PARTIAL per-dst sums (one row per
            # (src-group, dst)); finish the sum with a run-scan here —
            # the work the dropped groupby(t).sum exchange used to do
            iss = df["is_sum"].to_numpy() == 1
            sv = df.loc[iss]
            ss = sv["v"].to_numpy(np.int64)
            sc = sv["csum"].to_numpy(np.int64)
            order = np.argsort(ss, kind="stable")
            ss, sc = ss[order], sc[order]
            if len(ss):
                starts = np.concatenate(([True], ss[1:] != ss[:-1]))
                ss = ss[starts]
                sc = np.add.reduceat(sc, np.flatnonzero(starts))
            nv = df.loc[~iss, "v"].to_numpy(np.int64)
            csum = np.zeros(len(nv), np.int64)
            if len(ss):
                pos = np.searchsorted(ss, nv)
                ok = (pos < len(ss)) & (ss[np.minimum(pos, len(ss) - 1)] == nv)
                csum[ok] = sc[np.minimum(pos, len(ss) - 1)][ok]
            r = tele + (d_pct * csum) // 100
            return pd.DataFrame(
                {"vg": coarse_group(nv, num_groups), "v": nv, "r": r.astype(np.int64)}
            )

        # re-bound the control table's block count every iteration: the
        # union + aggregate chain otherwise DOUBLES blocks per iteration
        # (output partitions track input blocks through the shuffle), and
        # per-block fixed cost turns 5 iterations into 2^5 overhead —
        # same discipline as the crawl frontier's per-round repartition
        ranks = (
            ranks.map_batches(tag_node, batch_format="pandas")
            .union(sums)
            .groupby("vg")
            .map_groups(apply_group, batch_format="pandas")
            .repartition(num_groups)
            .materialize()
        )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {node_col: df["v"].to_numpy(np.int64), "rank": df["r"].to_numpy(np.int64)}
        )
        return out

    return ranks.map_batches(finalize, batch_format="pandas")


def kcore(
    pairs_ds,
    k: int = 2,
    pair_cols: tuple = ("a", "b"),
    num_groups: int | None = None,
    driver_max_edges: int = 2_000_000,
    max_iters: int = 100_000,
):
    """Nodes of the k-CORE (Seidman 1983): the maximal subgraph in which
    every node has (symmetrized, deduplicated, self-loop-free) degree
    >= k, computed by iterative peeling to the TRUE fixpoint.  Isolated
    nodes are in no k>=1 core by definition (nodes derive from edges).
    Output: one (v int64) row per member node.

    Size-adaptive (the pagerank/dedup_components pattern): below
    ``driver_max_edges`` deduped directed edges the peel runs as driver
    numpy (sorted alive array + searchsorted membership — exchanges
    would dominate small graphs); above it, a distributed loop of TWO
    exchanges per round — (1) coarse s-hash groupby: per-source degree
    is the run length (sg is a function of s), drop edges whose SOURCE
    died, emit the alive-node table from the same kernel; (2) union
    alive-nodes + surviving edges keyed by t-hash: drop edges whose
    DESTINATION died.  Per-round shuffle volume ∝ surviving edges (3
    ints/row) and blocks are re-bounded each round (the 2^k
    block-compounding rule).  Terminates when a round removes nothing
    (count unchanged); peel depth is data-bounded (<= n rounds — a path
    graph at k=2 peels one layer per round from each end, the test's
    deep-iteration fixture)."""
    import ray.data

    a, b = pair_cols

    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        aa = df[a].to_numpy(np.int64)
        bb = df[b].to_numpy(np.int64)
        keep = aa != bb  # self-loops never count toward core degree
        aa, bb = aa[keep], bb[keep]
        s = np.concatenate([aa, bb])
        t = np.concatenate([bb, aa])
        return pd.DataFrame({"s": s, "t": t})

    def dedup_group(df: pd.DataFrame) -> pd.DataFrame:
        st = np.unique(
            np.stack([df["s"].to_numpy(np.int64), df["t"].to_numpy(np.int64)], 1),
            axis=0,
        )
        return pd.DataFrame({"s": st[:, 0], "t": st[:, 1]})

    # dedup inside a coarse s-hash group: all copies of a directed edge
    # share s, hence the group
    edges = coarse_groupby(
        pairs_ds.map_batches(symmetrize, batch_format="pandas"),
        "s",
        dedup_group,
        64,
        "pandas",
    ).materialize()
    n_edges = edges.count()
    if num_groups is None:
        num_groups = 8 if n_edges < 10_000_000 else 64

    if n_edges <= driver_max_edges:
        if n_edges:
            ep = edges.to_pandas()
            s = ep["s"].to_numpy(np.int64)
            t = ep["t"].to_numpy(np.int64)
        else:
            s = t = np.array([], np.int64)
        for _ in range(max_iters):
            if not len(s):
                break
            nv, deg = np.unique(s, return_counts=True)
            alive = nv[deg >= k]
            if len(alive) == len(nv):
                break
            pos_s = np.searchsorted(alive, s)
            ok_s = (pos_s < len(alive)) & (
                alive[np.minimum(pos_s, max(len(alive) - 1, 0))] == s
            ) if len(alive) else np.zeros(len(s), bool)
            pos_t = np.searchsorted(alive, t)
            ok_t = (pos_t < len(alive)) & (
                alive[np.minimum(pos_t, max(len(alive) - 1, 0))] == t
            ) if len(alive) else np.zeros(len(s), bool)
            keep = ok_s & ok_t
            s, t = s[keep], t[keep]
        members = np.unique(s)
        return ray.data.from_pandas(pd.DataFrame({"v": members.astype(np.int64)}))

    # ---- distributed peel ----
    edges = edges.map_batches(
        lambda d: d[["s", "t"]].assign(sg=coarse_group(d["s"], num_groups)),
        batch_format="pandas",
    ).repartition(num_groups).materialize()
    prev = n_edges

    def degree_filter(df: pd.DataFrame) -> pd.DataFrame:
        """Exchange-1 kernel: degree = s-run length; drop dead-source
        edges; emit surviving edges (is_edge=1, keyed by t-hash for the
        next exchange) AND the alive-node table (is_edge=0)."""
        df = df.sort_values("s")
        s = df["s"].to_numpy(np.int64)
        t = df["t"].to_numpy(np.int64)
        if not len(s):
            return pd.DataFrame(
                {
                    "tg": np.array([], np.int32),
                    "s": np.array([], np.int64),
                    "t": np.array([], np.int64),
                    "is_edge": np.array([], np.int8),
                }
            )
        start = np.concatenate(([True], s[1:] != s[:-1]))
        run = np.cumsum(start) - 1
        deg = np.bincount(run)[run]
        keep = deg >= k
        alive = np.unique(s[keep])
        return pd.DataFrame(
            {
                "tg": np.concatenate(
                    [coarse_group(t[keep], num_groups), coarse_group(alive, num_groups)]
                ).astype(np.int32),
                "s": np.concatenate([s[keep], alive]),
                "t": np.concatenate([t[keep], np.full(len(alive), -1, np.int64)]),
                "is_edge": np.concatenate(
                    [np.ones(int(keep.sum()), np.int8), np.zeros(len(alive), np.int8)]
                ),
            }
        )

    def dest_filter(df: pd.DataFrame) -> pd.DataFrame:
        """Exchange-2 kernel: drop edges whose destination is not in the
        alive table; re-key survivors by s-hash for the next round."""
        ise = df["is_edge"].to_numpy() == 1
        alive = np.sort(df.loc[~ise, "s"].to_numpy(np.int64))
        es = df.loc[ise, "s"].to_numpy(np.int64)
        et = df.loc[ise, "t"].to_numpy(np.int64)
        if len(alive) and len(es):
            pos = np.searchsorted(alive, et)
            ok = (pos < len(alive)) & (alive[np.minimum(pos, len(alive) - 1)] == et)
            es, et = es[ok], et[ok]
        else:
            es = et = np.array([], np.int64)
        return pd.DataFrame(
            {"sg": coarse_group(es, num_groups), "s": es, "t": et}
        )

    for _ in range(max_iters):
        if prev == 0:
            break
        edges = (
            edges.groupby("sg")
            .map_groups(degree_filter, batch_format="pandas")
            .groupby("tg")
            .map_groups(dest_filter, batch_format="pandas")
            .repartition(num_groups)
            .materialize()
        )
        cur = edges.count()
        if cur == prev:
            break
        prev = cur

    def members_out(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"v": np.unique(df["s"].to_numpy(np.int64))})

    # one row per member: every edge of a source lives in one sg group
    return edges.groupby("sg").map_groups(members_out, batch_format="pandas")


def bfs_depth(
    nodes_ds,
    pairs_ds,
    seeds: list[int],
    node_col: str = "v",
    pair_cols: tuple = ("a", "b"),
    max_iters: int = 4,
    num_groups: int | None = None,
    driver_max_nodes: int = 5_000_000,
    driver_max_edges: int = 2_000_000,
):
    """Multi-source BFS shortest-hop depth over an undirected edge table:
    seeds get depth 0, every node reachable within ``max_iters`` hops gets
    its minimum hop count, everything else NULL.  The frontier recurrence
    is exactly a bounded-depth recursive CTE, so the DuckDB oracle is

        WITH RECURSIVE walk(v, d) AS (
            SELECT v, 0 FROM seeds
            UNION
            SELECT e.t, w.d+1 FROM walk w JOIN edges e ON e.s = w.v
            WHERE w.d < max_iters)
        SELECT v, min(d) ...

    and integer hop counts hash-compare exactly (no float drift).

    ``seeds`` is a small driver-side list (the multi-source query set —
    the ANN-query-matrix convention), broadcast into the loop closure.
    ``nodes_ds`` may contain duplicate node rows: the first update
    exchange's run-scan emits one state row per distinct v by
    construction.

    Scale shape: per iteration TWO coarse-hash exchanges (the pagerank
    discipline) — (1) frontier ∪ edges keyed by src: inside each group a
    sorted-membership scan emits the group's DISTINCT newly-touched
    targets (candidates leave pre-deduped, ∝ frontier boundary, never
    ∝ edges), (2) state ∪ candidates keyed by node: a run-scan keeps the
    first (minimum) depth per node.  State is (v, d) — 2 ints/node,
    re-repartitioned and materialized per iteration (the 2^k block rule).
    Early exit when an iteration reaches nobody new.

    Size-adaptive (the pagerank/dedup_components pattern): below the
    guards the whole loop is driver numpy over the pulled edge list —
    identical semantics, none of the per-iteration exchange latency;
    tests assert both paths equal.  Output: (node_col, depth) with depth
    Arrow int64-with-nulls (lands float64/NaN, the driver-hash
    convention for nullable ints — CLAUDE.md).
    """
    import ray.data

    a, b = pair_cols
    n = nodes_ds.count()
    if n == 0:
        return nodes_ds
    if num_groups is None:
        num_groups = 8 if n < 1_000_000 else (64 if n < 100_000_000 else 256)
    seed_arr = np.asarray(sorted(set(int(s) for s in seeds)), np.int64)

    def symmetrize(df: pd.DataFrame) -> pd.DataFrame:
        s = np.concatenate([df[a].to_numpy(np.int64), df[b].to_numpy(np.int64)])
        t = np.concatenate([df[b].to_numpy(np.int64), df[a].to_numpy(np.int64)])
        return pd.DataFrame({"sg": coarse_group(s, num_groups), "s": s, "t": t})

    edges = pairs_ds.map_batches(symmetrize, batch_format="pandas").materialize()
    n_edges = edges.count()

    def _arrow_out(v: np.ndarray, d: np.ndarray) -> pa.Table:
        return pa.table(
            {
                node_col: pa.array(v, pa.int64()),
                "depth": pa.array(d, pa.int64(), mask=d < 0),
            }
        )

    if n <= driver_max_nodes and n_edges <= driver_max_edges:
        if n_edges:
            ep = edges.to_pandas()
            s = ep["s"].to_numpy(np.int64)
            t = ep["t"].to_numpy(np.int64)
        else:
            s = t = np.array([], np.int64)
        nv = np.unique(
            nodes_ds.select_columns([node_col]).to_pandas()[node_col].to_numpy(np.int64)
        )
        si = np.searchsorted(nv, s)
        ti = np.searchsorted(nv, t)
        d = np.full(len(nv), -1, np.int64)
        pos = np.searchsorted(nv, seed_arr)
        ok = (pos < len(nv)) & (nv[np.minimum(pos, len(nv) - 1)] == seed_arr)
        d[pos[ok]] = 0
        frontier = np.zeros(len(nv), bool)
        frontier[pos[ok]] = True
        for k in range(1, max_iters + 1):
            if len(s) == 0 or not frontier.any():
                break
            hit = frontier[si]
            newly = np.unique(ti[hit])
            newly = newly[d[newly] < 0]
            if len(newly) == 0:
                break
            d[newly] = k
            frontier = np.zeros(len(nv), bool)
            frontier[newly] = True
        return ray.data.from_arrow(_arrow_out(nv, d))

    # --- distributed loop ---
    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        v = df[node_col].to_numpy(np.int64)
        d = np.where(np.isin(v, seed_arr), 0, -1).astype(np.int64)
        return pd.DataFrame({"vg": coarse_group(v, num_groups), "v": v, "d": d})

    state = nodes_ds.map_batches(node_rows, batch_format="pandas").materialize()

    for k in range(1, max_iters + 1):
        front_d = k - 1

        # (1) frontier ∪ edges keyed by src → distinct touched targets
        def tag_frontier(df: pd.DataFrame, _fd=front_d) -> pd.DataFrame:
            f = df.loc[df["d"].to_numpy() == _fd]
            v = f["v"].to_numpy(np.int64)
            return pd.DataFrame(
                {
                    "sg": coarse_group(v, num_groups),
                    "s": v,
                    "t": np.full(len(v), -1, np.int64),
                    "is_edge": np.zeros(len(v), np.int8),
                }
            )

        def tag_edge(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "sg": df["sg"].to_numpy(np.int32),
                    "s": df["s"].to_numpy(np.int64),
                    "t": df["t"].to_numpy(np.int64),
                    "is_edge": np.ones(len(df), np.int8),
                }
            )

        def expand(df: pd.DataFrame) -> pd.DataFrame:
            ise = df["is_edge"].to_numpy() == 1
            fs = np.unique(df.loc[~ise, "s"].to_numpy(np.int64))
            es = df.loc[ise, "s"].to_numpy(np.int64)
            if len(fs) == 0 or len(es) == 0:
                return pd.DataFrame(
                    {
                        "vg": np.array([], np.int32),
                        "v": np.array([], np.int64),
                        "d": np.array([], np.int64),
                    }
                )
            pos = np.searchsorted(fs, es)
            hit = (pos < len(fs)) & (fs[np.minimum(pos, len(fs) - 1)] == es)
            tt = np.unique(df.loc[ise, "t"].to_numpy(np.int64)[hit])
            return pd.DataFrame(
                {
                    "vg": coarse_group(tt, num_groups),
                    "v": tt,
                    "d": np.full(len(tt), -2, np.int64),  # candidate tag
                }
            )

        cands = (
            state.map_batches(tag_frontier, batch_format="pandas")
            .union(edges.map_batches(tag_edge, batch_format="pandas"))
            .groupby("sg")
            .map_groups(expand, batch_format="pandas")
        )

        # (2) state ∪ candidates keyed by node → first-reach update
        def update(df: pd.DataFrame, _k=k) -> pd.DataFrame:
            v = df["v"].to_numpy(np.int64)
            d = df["d"].to_numpy(np.int64)
            order = np.argsort(v, kind="stable")
            v, d = v[order], d[order]
            starts = np.flatnonzero(
                np.concatenate(([True], v[1:] != v[:-1]))
            ) if len(v) else np.array([], np.int64)
            uv = v[starts]
            # per run: max existing depth (>=0 wins over -1/-2 sentinels);
            # if only sentinels, -2 present means newly reached at _k
            best = np.full(len(uv), -1, np.int64)
            run_max = np.maximum.reduceat(d, starts) if len(v) else best
            run_min = np.minimum.reduceat(d, starts) if len(v) else best
            reached = run_max >= 0
            best[reached] = run_max[reached]
            # newly reached = has a state row (-1 present => run_max == -1)
            # AND a candidate row (-2 present => run_min == -2); candidate-
            # only runs (endpoint absent from nodes_ds) are dropped so the
            # output row set stays exactly the node table
            newly = (~reached) & (run_min == -2) & (run_max == -1)
            best[newly] = _k
            keep = run_max >= -1
            return pd.DataFrame(
                {
                    "vg": coarse_group(uv[keep], num_groups),
                    "v": uv[keep],
                    "d": best[keep],
                }
            )

        state = (
            state.union(cands)
            .groupby("vg")
            .map_groups(update, batch_format="pandas")
            .repartition(num_groups)
            .materialize()
        )

        newly_reached = state.map_batches(
            lambda df, _k=k: pd.DataFrame(
                {"n": [int((df["d"].to_numpy() == _k).sum())]}
            ),
            batch_format="pandas",
        ).to_pandas()["n"].sum()
        if newly_reached == 0:
            break

    def finalize(df: pd.DataFrame) -> pa.Table:
        return _arrow_out(df["v"].to_numpy(np.int64), df["d"].to_numpy(np.int64))

    return state.map_batches(finalize, batch_format="pandas")


def common_neighbors_topk(
    pairs_ds,
    k: int = 25,
    pair_cols: tuple = ("a", "b"),
    num_groups: int = 64,
    driver_max_edges: int = 2_000_000,
    driver_max_wedges: int = 2_000_000,
    max_degree: int | None = None,
):
    """Top-k node pairs by COMMON-NEIGHBOR count (co-citation link
    prediction, Liben-Nowell & Kleinberg 2003): for every unordered pair
    (x < y), the number of middle vertices m adjacent to both.  Ordering
    is (count DESC, x, y) — fully deterministic, so the SQL self-join
    oracle hash-compares exactly:

        WITH e AS (SELECT a s, b t ... UNION SELECT b, a ...)
        SELECT e1.t x, e2.t y, count(*) FROM e e1
        JOIN e e2 ON e1.s = e2.s AND e1.t < e2.t
        GROUP BY x, y ORDER BY count(*) DESC, x, y LIMIT k

    Scale shape: symmetrize + dedup the adjacency inside a coarse
    middle-vertex hash groupby (one exchange), enumerate each m-run's
    neighbor pairs with the vectorized _wedge_pairs kernel, pre-count
    per (x, y) INSIDE the group (partials ∝ distinct pairs, not wedges),
    then one packed-key coarse groupby finishes the counts and each
    output block emits its local top-k — the driver pull is ≤ k rows per
    block.  Wedge volume is Σ C(deg(m), 2): for hub-heavy graphs pass
    ``max_degree`` — middle vertices whose (deduped, symmetrized) degree
    exceeds it are excluded from the middle role, the standard
    prefix-filter mitigation; a vertex's whole adjacency lives in one
    coarse group (sg is a function of s), so the run length IS the
    global degree and the cap is exact, mirrored in SQL as
    ``HAVING count(*) <= max_degree`` on the adjacency CTE.  This is
    what makes doc–term similarity joins usable: stopword-grade terms
    are exactly the capped hubs.  Fails loudly past 2^31 ids.

    Size-adaptive: below (driver_max_edges, driver_max_wedges) the whole
    thing is driver numpy — identical kernel, asserted equal in tests.
    The wedge guard is deliberately low (2M): the wedge work is the cost
    and it PARALLELIZES — at sf0.1 (10M wedges, 8 cpus) the distributed
    path measured 6.2 s vs 13.6 s driver numpy, so only
    exchange-latency-dominated small graphs belong on the driver.
    Output: (x:int64, y:int64, n_common:int64), k rows max.
    """
    import ray.data

    a, b = pair_cols
    pairs_ds = pairs_ds.materialize()

    def _sym_dedup(s: np.ndarray, t: np.ndarray):
        s2 = np.concatenate([s, t])
        t2 = np.concatenate([t, s])
        order = np.lexsort((t2, s2))
        s2, t2 = s2[order], t2[order]
        keep = np.concatenate(
            ([True], (s2[1:] != s2[:-1]) | (t2[1:] != t2[:-1]))
        ) if len(s2) else np.array([], bool)
        return s2[keep], t2[keep]

    def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if len(x) and (int(x.max()) >= (1 << 31) or int(y.max()) >= (1 << 31)):
            raise OverflowError(
                "common_neighbors_topk id packing needs node ids < 2^31"
            )
        return x * np.int64(1 << 31) + y

    def _topk(x: np.ndarray, y: np.ndarray, c: np.ndarray):
        order = np.lexsort((y, x, -c))[:k]
        return x[order], y[order], c[order]

    def _out(x, y, c) -> pa.Table:
        return pa.table(
            {
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
                "n_common": pa.array(c, pa.int64()),
            }
        )

    n_edges = pairs_ds.count()
    if n_edges <= driver_max_edges:
        if n_edges == 0:
            return ray.data.from_arrow(
                _out(np.array([], np.int64), np.array([], np.int64),
                     np.array([], np.int64))
            )
        ep = pairs_ds.select_columns([a, b]).to_pandas()
        s, t = _sym_dedup(
            ep[a].to_numpy().astype(np.int64), ep[b].to_numpy().astype(np.int64)
        )
        starts = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
        d = np.append(starts[1:], len(s)) - starts
        if max_degree is not None and len(d):
            keep_run = np.repeat(d <= max_degree, d)
            s, t = s[keep_run], t[keep_run]
            starts = np.flatnonzero(
                np.concatenate(([True], s[1:] != s[:-1]))
            ) if len(s) else np.array([], np.int64)
            d = np.append(starts[1:], len(s)) - starts if len(s) else d[:0]
        n_wedges = int((d * (d - 1) // 2).sum())
        if n_wedges <= driver_max_wedges:
            x, y = _wedge_pairs(s, t)
            key = _pack(x, y)
            uk, counts = np.unique(key, return_counts=True)
            ux = uk >> np.int64(31)
            uy = uk & np.int64((1 << 31) - 1)
            return ray.data.from_arrow(
                _out(*_topk(ux, uy, counts.astype(np.int64)))
            )

    def dir_rows(df: pd.DataFrame) -> pd.DataFrame:
        s = np.concatenate([df[a].to_numpy(np.int64), df[b].to_numpy(np.int64)])
        t = np.concatenate([df[b].to_numpy(np.int64), df[a].to_numpy(np.int64)])
        return pd.DataFrame({"s": s, "t": t})

    def wedge_partials(df: pd.DataFrame) -> pd.DataFrame:
        # rows arrive ALREADY symmetrized by dir_rows (both directions
        # emitted before the shuffle) — only sort + dedup here;
        # re-symmetrizing would fabricate adjacency for middle vertices
        # that hash to other groups
        s = df["s"].to_numpy(np.int64)
        t = df["t"].to_numpy(np.int64)
        order = np.lexsort((t, s))
        s, t = s[order], t[order]
        keep = np.concatenate(
            ([True], (s[1:] != s[:-1]) | (t[1:] != t[:-1]))
        ) if len(s) else np.array([], bool)
        s, t = s[keep], t[keep]
        if max_degree is not None and len(s):
            rs = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1])))
            rd = np.append(rs[1:], len(s)) - rs
            keep_run = np.repeat(rd <= max_degree, rd)
            s, t = s[keep_run], t[keep_run]
        x, y = _wedge_pairs(s, t)
        key = _pack(x, y)
        uk, counts = np.unique(key, return_counts=True)
        return pd.DataFrame({"key": uk, "cnt": counts.astype(np.int64)})

    def finish_group(df: pd.DataFrame) -> pd.DataFrame:
        key = df["key"].to_numpy(np.int64)
        cnt = df["cnt"].to_numpy(np.int64)
        order = np.argsort(key, kind="stable")
        key, cnt = key[order], cnt[order]
        if len(key):
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            uk = key[starts]
            total = np.add.reduceat(cnt, starts)
        else:
            uk = key
            total = cnt
        x = uk >> np.int64(31)
        y = uk & np.int64((1 << 31) - 1)
        x, y, c = _topk(x, y, total)
        return pd.DataFrame({"x": x, "y": y, "n_common": c})

    def final(df: pd.DataFrame) -> pa.Table:
        x, y, c = _topk(
            df["x"].to_numpy(np.int64),
            df["y"].to_numpy(np.int64),
            df["n_common"].to_numpy(np.int64),
        )
        return _out(x, y, c)

    partials = coarse_groupby(
        pairs_ds.map_batches(dir_rows, batch_format="pandas"),
        "s",
        wedge_partials,
        num_groups,
        "pandas",
    )
    return (
        coarse_groupby(partials, "key", finish_group, num_groups, "pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas", batch_size=None)
    )


def membership_copair_topk(
    memberships_ds,
    group_col: str,
    member_col: str,
    k: int = 25,
    max_group_size: int | None = None,
    num_groups: int = 64,
    driver_max_rows: int = 2_000_000,
    driver_max_wedges: int = 2_000_000,
):
    """Bipartite common-membership top-k: given (group, member) rows, the
    k member pairs (x < y) sharing the most groups — the similarity-join
    primitive behind "docs sharing the most rare terms" dedup candidate
    generation (prefix-filtered set-similarity, Chaudhuri et al. 2006's
    idea in its simplest exact form).  Groups may be ANY dtype (words,
    hosts); members must be int64 ids (< 2^31 for key packing).
    ``max_group_size`` excludes hub groups from pairing — the exact
    SQL-mirrorable prefix filter (``HAVING count(*) <= cap``): stopword-
    grade terms are precisely the capped groups, and without a cap the
    pair volume is Σ C(|g|, 2).

    Deterministic output ordering (count DESC, x, y); the DuckDB oracle
    is a self-join on the deduped membership CTE.  Scale shape: ONE
    coarse group-hash exchange (a group's rows co-locate, so the run
    length is the exact global size), vectorized in-run pair enumeration
    (_wedge_pairs), per-(x, y) partial counts, one packed-key exchange
    to finish, per-block top-k, ≤ k rows per block to the driver.
    Size-adaptive driver path below (driver_max_rows,
    driver_max_wedges); both paths asserted equal in tests.
    Output: (x:int64, y:int64, n_shared:int64).
    """
    import ray.data

    memberships_ds = memberships_ds.materialize()

    def _pack(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if len(x) and (int(x.max()) >= (1 << 31) or int(y.max()) >= (1 << 31)):
            raise OverflowError(
                "membership_copair_topk id packing needs member ids < 2^31"
            )
        return x * np.int64(1 << 31) + y

    def _topk(x: np.ndarray, y: np.ndarray, c: np.ndarray):
        order = np.lexsort((y, x, -c))[:k]
        return x[order], y[order], c[order]

    def _out(x, y, c) -> pa.Table:
        return pa.table(
            {
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
                "n_shared": pa.array(c, pa.int64()),
            }
        )

    def _run_pairs(gcodes: np.ndarray, v: np.ndarray):
        """Dedup + size-cap + pair-enumerate one already-factorized
        membership array; returns packed keys of every in-group pair."""
        order = np.lexsort((v, gcodes))
        g, vv = gcodes[order], v[order]
        keep = np.concatenate(
            ([True], (g[1:] != g[:-1]) | (vv[1:] != vv[:-1]))
        ) if len(g) else np.array([], bool)
        g, vv = g[keep], vv[keep]
        if max_group_size is not None and len(g):
            rs = np.flatnonzero(np.concatenate(([True], g[1:] != g[:-1])))
            rd = np.append(rs[1:], len(g)) - rs
            keep_run = np.repeat(rd <= max_group_size, rd)
            g, vv = g[keep_run], vv[keep_run]
        x, y = _wedge_pairs(g, vv)
        return _pack(x, y)

    n_rows = memberships_ds.count()
    if n_rows <= driver_max_rows:
        if n_rows == 0:
            z = np.array([], np.int64)
            return ray.data.from_arrow(_out(z, z, z))
        mp = memberships_ds.select_columns([group_col, member_col]).to_pandas()
        gcodes = pd.factorize(mp[group_col].to_numpy())[0].astype(np.int64)
        v = mp[member_col].to_numpy().astype(np.int64)
        # wedge bound check on deduped runs (cheap, before enumeration)
        order = np.lexsort((v, gcodes))
        g2, v2 = gcodes[order], v[order]
        keep = np.concatenate(
            ([True], (g2[1:] != g2[:-1]) | (v2[1:] != v2[:-1]))
        )
        g2 = g2[keep]
        rs = np.flatnonzero(np.concatenate(([True], g2[1:] != g2[:-1])))
        rd = np.append(rs[1:], len(g2)) - rs
        if max_group_size is not None:
            rd = rd[rd <= max_group_size]
        if int((rd * (rd - 1) // 2).sum()) <= driver_max_wedges:
            key = _run_pairs(gcodes, v)
            uk, counts = np.unique(key, return_counts=True)
            return ray.data.from_arrow(
                _out(
                    *_topk(
                        uk >> np.int64(31),
                        uk & np.int64((1 << 31) - 1),
                        counts.astype(np.int64),
                    )
                )
            )

    def member_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"g": df[group_col].to_numpy(), "v": df[member_col].to_numpy(np.int64)}
        )

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        gcodes = pd.factorize(df["g"].to_numpy())[0].astype(np.int64)
        key = _run_pairs(gcodes, df["v"].to_numpy(np.int64))
        uk, counts = np.unique(key, return_counts=True)
        return pd.DataFrame({"key": uk, "cnt": counts.astype(np.int64)})

    def finish_group(df: pd.DataFrame) -> pd.DataFrame:
        key = df["key"].to_numpy(np.int64)
        cnt = df["cnt"].to_numpy(np.int64)
        order = np.argsort(key, kind="stable")
        key, cnt = key[order], cnt[order]
        if len(key):
            starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
            uk = key[starts]
            total = np.add.reduceat(cnt, starts)
        else:
            uk, total = key, cnt
        x, y, c = _topk(
            uk >> np.int64(31), uk & np.int64((1 << 31) - 1), total
        )
        return pd.DataFrame({"x": x, "y": y, "n_shared": c})

    def final(df: pd.DataFrame) -> pa.Table:
        return _out(
            *_topk(
                df["x"].to_numpy(np.int64),
                df["y"].to_numpy(np.int64),
                df["n_shared"].to_numpy(np.int64),
            )
        )

    partials = coarse_groupby(
        memberships_ds.map_batches(member_rows, batch_format="pandas"),
        "g",
        pair_partials,
        num_groups,
        "pandas",
    )
    return (
        coarse_groupby(partials, "key", finish_group, num_groups, "pandas")
        .repartition(1)
        .map_batches(final, batch_format="pandas", batch_size=None)
    )


def hits(
    nodes_ds,
    pairs_ds,
    node_col: str = "v",
    pair_cols: tuple = ("s", "t"),
    iters: int = 4,
    scale: int = 10**9,
    num_groups: int | None = None,
    driver_max_nodes: int = 5_000_000,
    driver_max_edges: int = 2_000_000,
):
    """Kleinberg HITS hubs/authorities (Kleinberg, JACM 1999 — public
    algorithm; the reference has no graph ops, cited for inventory only)
    under a pinned all-integer recurrence so the DuckDB oracle can unroll
    it exactly:

        h_0(v) = scale                                   (every node)
        per iteration k:
          a_raw(v) = sum_{(u,v) in E} h_{k-1}(u)
          a_k(v)   = a_raw(v) // max(1, sum_v a_raw(v) // scale)
          h_raw(u) = sum_{(u,v) in E} a_k(v)
          h_k(u)   = h_raw(u) // max(1, sum_u h_raw(u) // scale)

    The truncating-total normalizer keeps every intermediate inside int64
    (values stay ~scale, totals <= |E| * scale) and is order-independent,
    so the driver's value hash is exact.  Edges are DIRECTED and used as
    given (a multiset: parallel edges double their weight) — feed a
    DISTINCT edge set if that is the intended graph.  ``nodes_ds`` must
    list each node once.

    Returns a Dataset (node_col, hub, auth), int64 fixed-point.

    Size-adaptive like pagerank: below (driver_max_nodes,
    driver_max_edges) the recurrence runs as driver numpy over the pulled
    edge list (identical arithmetic, asserted equal in tests); above, a
    pagerank-shaped distributed loop — per half-step, ONE src-hash
    exchange joins values onto edges with per-destination PARTIAL sums
    inside the group, ONE node-hash exchange finishes them (2 coarse
    all-to-alls per half, 4 per iteration; shuffle volume is 2-3 int64s
    per row, never payloads), plus a tiny per-block partial-sum driver
    reduce (num_groups rows) for each global normalizer.
    """
    import ray.data

    a_col, b_col = pair_cols
    n = nodes_ds.count()
    if n == 0:
        return nodes_ds
    if num_groups is None:
        num_groups = 8 if n < 1_000_000 else (64 if n < 100_000_000 else 256)

    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        s = df[a_col].to_numpy(np.int64)
        t = df[b_col].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "sg": coarse_group(s, num_groups),
                "tg": coarse_group(t, num_groups),
                "s": s,
                "t": t,
            }
        )

    edges = pairs_ds.map_batches(edge_rows, batch_format="pandas").materialize()
    n_edges = edges.count()

    if n <= driver_max_nodes and n_edges <= driver_max_edges:
        if n_edges:
            ep = edges.to_pandas()
            s = ep["s"].to_numpy(np.int64)
            t = ep["t"].to_numpy(np.int64)
        else:  # empty blocks lose their schema on to_pandas
            s = t = np.array([], np.int64)
        nv = np.sort(
            nodes_ds.select_columns([node_col]).to_pandas()[node_col].to_numpy(np.int64)
        )
        si = np.searchsorted(nv, s)
        ti = np.searchsorted(nv, t)
        h = np.full(len(nv), scale, np.int64)
        aa = np.zeros(len(nv), np.int64)
        for _ in range(iters):
            ar = np.zeros(len(nv), np.int64)
            if len(s):
                # np.add.at, not bincount(weights=...): weights go through
                # float64 and corrupt int64 sums beyond 2^53
                np.add.at(ar, ti, h[si])
            aa = ar // max(1, int(ar.sum()) // scale)
            hr = np.zeros(len(nv), np.int64)
            if len(s):
                np.add.at(hr, si, aa[ti])
            h = hr // max(1, int(hr.sum()) // scale)
        return ray.data.from_pandas(
            pd.DataFrame({node_col: nv, "hub": h, "auth": aa})
        )

    def node_rows(df: pd.DataFrame) -> pd.DataFrame:
        v = df[node_col].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "vg": coarse_group(v, num_groups),
                "v": v,
                "r": np.full(len(v), scale, np.int64),
            }
        )

    hvals = nodes_ds.map_batches(node_rows, batch_format="pandas").materialize()

    def half(vals, src_field: str, src_g_field: str, dst_field: str):
        """raw(u) = sum of vals.r over edges whose ``src_field`` endpoint
        carries the value (the lookup side), accumulated at the
        ``dst_field`` endpoint — then globally normalized.  vals doubles
        as the node universe (it is node-aligned by construction)."""

        def tag_v(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "g": df["vg"].to_numpy(np.int32),
                    "k": df["v"].to_numpy(np.int64),
                    "o": np.full(len(df), -1, np.int64),
                    "x": df["r"].to_numpy(np.int64),
                    "is_edge": np.zeros(len(df), np.int8),
                }
            )

        def tag_e(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "g": df[src_g_field].to_numpy(np.int32),
                    "k": df[src_field].to_numpy(np.int64),
                    "o": df[dst_field].to_numpy(np.int64),
                    "x": np.zeros(len(df), np.int64),
                    "is_edge": np.ones(len(df), np.int8),
                }
            )

        def contrib_group(df: pd.DataFrame) -> pd.DataFrame:
            # value-onto-edges lookup + per-destination PARTIAL sums in
            # one kernel (the pagerank contrib_group shape)
            ise = df["is_edge"].to_numpy() == 1
            rv = df.loc[~ise].sort_values("k")
            rs = rv["k"].to_numpy(np.int64)
            rr = rv["x"].to_numpy(np.int64)
            es = df.loc[ise, "k"].to_numpy(np.int64)
            if len(es) == 0 or len(rs) == 0:
                return pd.DataFrame(
                    {
                        "vg": np.array([], np.int32),
                        "v": np.array([], np.int64),
                        "csum": np.array([], np.int64),
                        "is_sum": np.array([], np.int8),
                    }
                )
            pos = np.minimum(np.searchsorted(rs, es), len(rs) - 1)
            x_src = rr[pos]
            o = df.loc[ise, "o"].to_numpy(np.int64)
            order = np.argsort(o, kind="stable")
            os_, xs = o[order], x_src[order]
            starts = np.concatenate(([True], os_[1:] != os_[:-1]))
            uniq = os_[starts]
            part = np.add.reduceat(xs, np.flatnonzero(starts))
            return pd.DataFrame(
                {
                    "vg": coarse_group(uniq, num_groups),
                    "v": uniq,
                    "csum": part.astype(np.int64),
                    "is_sum": np.ones(len(uniq), np.int8),
                }
            )

        def tag_node(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "vg": df["vg"].to_numpy(np.int32),
                    "v": df["v"].to_numpy(np.int64),
                    "csum": np.zeros(len(df), np.int64),
                    "is_sum": np.zeros(len(df), np.int8),
                }
            )

        def finish_group(df: pd.DataFrame) -> pd.DataFrame:
            iss = df["is_sum"].to_numpy() == 1
            sv = df.loc[iss]
            ss = sv["v"].to_numpy(np.int64)
            sc = sv["csum"].to_numpy(np.int64)
            order = np.argsort(ss, kind="stable")
            ss, sc = ss[order], sc[order]
            if len(ss):
                starts = np.concatenate(([True], ss[1:] != ss[:-1]))
                ss = ss[starts]
                sc = np.add.reduceat(sc, np.flatnonzero(starts))
            nv_ = df.loc[~iss, "v"].to_numpy(np.int64)
            raw = np.zeros(len(nv_), np.int64)
            if len(ss):
                pos = np.minimum(np.searchsorted(ss, nv_), len(ss) - 1)
                ok = ss[pos] == nv_
                raw[ok] = sc[pos][ok]
            return pd.DataFrame(
                {
                    "vg": coarse_group(nv_, num_groups),
                    "v": nv_,
                    "raw": raw,
                }
            )

        both = vals.map_batches(tag_v, batch_format="pandas").union(
            edges.map_batches(tag_e, batch_format="pandas")
        )
        sums = both.groupby("g").map_groups(contrib_group, batch_format="pandas")
        raw_ds = (
            vals.map_batches(tag_node, batch_format="pandas")
            .union(sums)
            .groupby("vg")
            .map_groups(finish_group, batch_format="pandas")
            .repartition(num_groups)
            .materialize()
        )
        # global normalizer: per-block partial sums -> num_groups-row
        # driver reduce (bounded; never row-proportional)
        parts = raw_ds.map_batches(
            lambda df: pd.DataFrame(
                {"tt": [int(df["raw"].to_numpy(np.int64).sum())]}
            ),
            batch_format="pandas",
        ).take_all()
        tot = sum(int(r["tt"]) for r in parts)
        dnorm = max(1, tot // scale)

        def normalize(df: pd.DataFrame, _d=dnorm) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "vg": df["vg"].to_numpy(np.int32),
                    "v": df["v"].to_numpy(np.int64),
                    "r": df["raw"].to_numpy(np.int64) // _d,
                }
            )

        return raw_ds.map_batches(normalize, batch_format="pandas").materialize()

    avals = None
    for _ in range(iters):
        avals = half(hvals, "s", "sg", "t")
        hvals = half(avals, "t", "tg", "s")

    def merge_group(t: pa.Table) -> pa.Table:
        # leg 0: hub values, leg 1: authority values — node-aligned copies
        # of the same universe
        leg = t.column(LEG).to_numpy()
        v = t.column("v").to_numpy()
        r = t.column("r").to_numpy()
        hv, hr, av, ar = v[leg == 0], r[leg == 0], v[leg == 1], r[leg == 1]
        ho, ao = np.argsort(hv), np.argsort(av)
        return pa.table({node_col: hv[ho], "hub": hr[ho], "auth": ar[ao]})

    legs = [vals.select_columns(["v", "r"]) for vals in (hvals, avals)]
    return coarse_cogroup(legs, "v", merge_group, num_groups)


def resolve_chains(
    ds,
    id_col: str = "id",
    next_col: str = "next",
    num_groups: int = 8,
    driver_max_rows: int = 2_000_000,
):
    """Resolve every node of a pointer forest to its chain root and hop
    depth — redirect-chain flattening (301 hops → final URL), alias
    resolution, union-find finishing.  Input: one row per node with a
    nullable ``next_col`` (NULL ⇒ the node is a root).  Output Dataset:
    (``id_col``, root_id, depth), all int64 non-null.

    Scale shape — POINTER DOUBLING (Wyllie 1979 list ranking): the state
    table (id, ptr, dist) repeatedly substitutes each pointer with its
    target's pointer and accumulates the hop distance, so chains of
    length L resolve in ceil(log2 L) rounds of ONE coarse-hash exchange
    each (vs L rounds of naive following) — at web scale redirect chains
    are short but number millions, and the exchange ships 3 int64s/row.
    Both copies of the state (providers keyed by own id, requesters
    keyed by their ptr) co-locate in a coarse hash group; lookups are a
    sorted-run searchsorted.  Rounds stop when no pointer advanced
    (tiny global sum per round).

    Size-adaptive like pagerank: below ``driver_max_rows`` the identical
    doubling runs as driver numpy (the exchange latency dominates small
    forests); tests force the distributed path and assert equality.
    All-pandas blocks throughout the union + groupby chain (the
    dedup_components block-type rule).
    """
    import ray.data

    n = ds.count()
    if n == 0:
        return ds

    def init_state(t: pa.Table) -> pd.DataFrame:
        # Arrow in, pandas out: a nullable int64 next column coerces to
        # float64 under pandas batch format and corrupts ids > 2^53
        # (xxhash-derived ids) — read the null mask from the Arrow column
        # and fill BEFORE any pandas conversion (the repartition_join rule).
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        # all-null blocks arrive with a null-typed column; cast first
        nxt_col = t.column(next_col).cast(pa.int64())
        isna = pa.compute.is_null(nxt_col).to_numpy(zero_copy_only=False)
        nxt = nxt_col.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        ptr = np.where(isna, ids, nxt)
        dist = (~isna).astype(np.int64)
        return pd.DataFrame({"id": ids, "ptr": ptr, "dist": dist})

    state = ds.map_batches(init_state, batch_format="pyarrow")

    if n <= driver_max_rows:
        sp = state.to_pandas()
        ids = sp["id"].to_numpy(np.int64)
        order = np.argsort(ids, kind="stable")
        ids, ptr, dist = (
            ids[order],
            sp["ptr"].to_numpy(np.int64)[order],
            sp["dist"].to_numpy(np.int64)[order],
        )
        while True:
            pos = np.minimum(np.searchsorted(ids, ptr), len(ids) - 1)
            assert np.array_equal(ids[pos], ptr), "dangling pointer target"
            moved = dist[pos] > 0
            if not moved.any():
                break
            dist = dist + dist[pos]
            ptr = ptr[pos]
        return ray.data.from_pandas(
            pd.DataFrame({id_col: ids, "root_id": ptr, "depth": dist})
        )

    state = state.map_batches(
        lambda df: df.assign(g=coarse_group(df["id"].to_numpy(np.int64), num_groups)),
        batch_format="pandas",
    ).repartition(num_groups).materialize()

    def tag_provider(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "g": df["g"].to_numpy(np.int32),
                "id": df["id"].to_numpy(np.int64),
                "ptr": df["ptr"].to_numpy(np.int64),
                "dist": df["dist"].to_numpy(np.int64),
                "role": np.zeros(len(df), np.int8),
            }
        )

    def tag_requester(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "g": coarse_group(df["ptr"].to_numpy(np.int64), num_groups),
                "id": df["id"].to_numpy(np.int64),
                "ptr": df["ptr"].to_numpy(np.int64),
                "dist": df["dist"].to_numpy(np.int64),
                "role": np.ones(len(df), np.int8),
            }
        )

    def double_group(df: pd.DataFrame) -> pd.DataFrame:
        prov = df[df["role"].to_numpy() == 0].sort_values("id")
        req = df[df["role"].to_numpy() == 1]
        pid = prov["id"].to_numpy(np.int64)
        pptr = prov["ptr"].to_numpy(np.int64)
        pdist = prov["dist"].to_numpy(np.int64)
        rptr = req["ptr"].to_numpy(np.int64)
        if len(req) == 0:
            return pd.DataFrame(
                {
                    "g": np.array([], np.int32),
                    "id": np.array([], np.int64),
                    "ptr": np.array([], np.int64),
                    "dist": np.array([], np.int64),
                    "moved": np.array([], np.int64),
                }
            )
        pos = np.searchsorted(pid, rptr)
        pos = np.minimum(pos, max(len(pid) - 1, 0))
        ok = len(pid) > 0 and np.array_equal(pid[pos], rptr)
        assert ok, "dangling pointer target in hash group"
        tdist = pdist[pos]
        new_ptr = pptr[pos]
        rid = req["id"].to_numpy(np.int64)
        return pd.DataFrame(
            {
                "g": coarse_group(rid, num_groups),
                "id": rid,
                "ptr": new_ptr,
                "dist": req["dist"].to_numpy(np.int64) + tdist,
                "moved": (tdist > 0).astype(np.int64),
            }
        )

    while True:
        both = state.map_batches(tag_provider, batch_format="pandas").union(
            state.map_batches(tag_requester, batch_format="pandas")
        )
        state = (
            both.groupby("g")
            .map_groups(double_group, batch_format="pandas")
            .repartition(num_groups)
            .materialize()
        )
        if state.sum("moved") == 0:
            break
        state = state.drop_columns(["moved"]).materialize()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                id_col: df["id"].to_numpy(np.int64),
                "root_id": df["ptr"].to_numpy(np.int64),
                "depth": df["dist"].to_numpy(np.int64),
            }
        )

    return state.map_batches(finalize, batch_format="pandas")
