"""Link-graph centrality over a distributed edge table.

PageRank (Page et al. 1999, public paper) re-expressed Ray-Data-first:
every step is a ``shuffle.coarse_cogroup`` repartition join (the pattern
this repo uses everywhere `Dataset.join` would deadlock — see CLAUDE.md)
keyed on the true node column; no driver-side adjacency, no per-node
groups.  Arithmetic is INTEGER FIXED-POINT (ranks scaled by
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

Scale shape: per iteration, ONE cogroup of ranks and edges on the source
node pushes r//deg along every edge and pre-sums it per destination, and
ONE cogroup of ranks and those partial sums on the node finishes the sums.
The rank table (2 ints/node) is materialized between iterations to keep
the lazy DAG shallow (bounded: O(nodes), the same control-table
discipline as the crawl frontier).  The loops' cogroups run in pyarrow
format: a pandas cogroup turns padded int64 ids into float64.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..shuffle import LEG, block_sum, coarse_cogroup, coarse_groupby, key_index, materialize_loop_state

_SUMS = pa.schema([pa.field("v", pa.int64()), pa.field("csum", pa.int64())])


def _groups_for(n: int) -> int:
    """Coarse group count of an iterative loop over ``n`` nodes: every
    iteration pays its exchanges whatever the data size, so small graphs
    get few groups."""
    return 8 if n < 1_000_000 else (64 if n < 100_000_000 else 256)


def _i64(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False).astype(np.int64, copy=False)


def _key_counts(keys: np.ndarray) -> np.ndarray:
    """For every row, the number of rows sharing its key."""
    _, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return counts[inv]


def _split(t: pa.Table) -> tuple[pa.Table, pa.Table]:
    """The rows of leg 0 and of leg 1 of a two-leg cogroup group."""
    leg = t.column(LEG).to_numpy()
    return t.filter(pa.array(leg == 0)), t.filter(pa.array(leg == 1))


def _sum_by(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys ascending, int64-exact sum of ``vals`` per key)."""
    if not len(keys):
        return keys, vals
    order = np.argsort(keys, kind="stable")
    k, x = keys[order], vals[order]
    starts = np.flatnonzero(np.concatenate(([True], k[1:] != k[:-1])))
    return k[starts], np.add.reduceat(x, starts)


def _push_sums(t: pa.Table, weight) -> pa.Table:
    """First cogroup of a pagerank / HITS iteration.  Leg 0 holds node
    values (v, r), leg 1 edges (v = source, t = target, ...).  Every edge
    takes ``weight(r of its source, edge rows)`` and the group emits
    PARTIAL sums per target (v, csum): pre-summed here, the contributions
    need no groupby(t).sum exchange of their own."""
    vals, edges = _split(t)
    if vals.num_rows == 0 or edges.num_rows == 0:  # a one-sided group
        return _SUMS.empty_table()
    pos, _ = key_index(_i64(vals, "v"), _i64(edges, "v"))
    tv, cs = _sum_by(_i64(edges, "t"), weight(_i64(vals, "r")[pos], edges))
    return pa.table({"v": tv, "csum": cs}, schema=_SUMS)


def _pull_sums(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Second cogroup of a pagerank / HITS iteration: (node ids of leg 0,
    the total of leg 1's partial sums per node, 0 where none)."""
    nodes, sums = _split(t)
    nv = _i64(nodes, "v")
    sv, sc = _sum_by(_i64(sums, "v"), _i64(sums, "csum"))
    pos, hit = key_index(sv, nv)
    csum = np.zeros(len(nv), np.int64)
    csum[hit] = sc[pos[hit]]
    return nv, csum


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

    Scale shape: one cogroup on the node id of two legs, one row per edge
    endpoint and one row per node; each group counts the endpoint rows of
    its distinct ids — no adjacency materialization.

    Size-adaptive small path (the pagerank pattern, round 4): below
    (``driver_max_nodes``, ``driver_max_edges``) the degree count runs as
    driver numpy over the pulled narrow (a, b) / node-id columns — even
    the single 8-group exchange costs ~4 s of launch latency on a graph
    whose arithmetic is ~1 ms.  Identical semantics (one output row per
    distinct id in nodes ∪ endpoints), asserted equal in tests.  The
    endpoint table is materialized either way (it is consumed for the size
    probe and then the count — the pagerank control-table discipline;
    16 B/edge).
    """
    import ray.data

    a, b = pair_cols

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table({"v": np.concatenate([_i64(t, a), _i64(t, b)])})

    ends = pairs_ds.map_batches(endpoints, batch_format="pyarrow").materialize()
    n_edges = ends.count() // 2
    n_nodes = nodes_ds.count()
    if n_nodes <= driver_max_nodes and n_edges <= driver_max_edges:
        v = ends.to_pandas()["v"].to_numpy(np.int64) if n_edges else np.array([], np.int64)
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

    def node_ids(t: pa.Table) -> pa.Table:
        return pa.table({"v": _i64(t, node_col)})

    def count(t: pa.Table) -> pa.Table:
        # leg 0: one row per edge endpoint, leg 1: one row per node
        v = _i64(t, "v")
        uniq = np.unique(v)
        e = v[t.column(LEG).to_numpy() == 0]
        deg = np.bincount(np.searchsorted(uniq, e), minlength=len(uniq))
        return pa.table({node_col: uniq, "degree": deg.astype(np.int64)})

    legs = [ends, nodes_ds.map_batches(node_ids, batch_format="pyarrow")]
    return coarse_cogroup(legs, "v", count, _groups_for(n_nodes))


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
        num_groups = _groups_for(n)
    base = scale // n
    tele = ((100 - d_pct) * base) // 100

    def symmetrize(t: pa.Table) -> pa.Table:
        # v is the edge's source: the column the source-side cogroup keys on
        aa, bb = _i64(t, a), _i64(t, b)
        return pa.table({"v": np.concatenate([aa, bb]), "t": np.concatenate([bb, aa])})

    # deg rides each edge row: every edge of a given source is in the
    # source's group, so deg is the source's row count there
    def attach_deg(t: pa.Table) -> pa.Table:
        return t.append_column("deg", pa.array(_key_counts(_i64(t, "v"))))

    edges = coarse_groupby(
        pairs_ds.map_batches(symmetrize, batch_format="pyarrow"), "v", attach_deg, num_groups
    ).materialize()

    n_edges = edges.count()
    if n <= driver_max_nodes and n_edges <= driver_max_edges:
        if n_edges:
            ep = edges.to_pandas()
            s = ep["v"].to_numpy(np.int64)
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
        # arrow block on purpose: matches the distributed path's block type
        return ray.data.from_arrow(pa.table({node_col: nv, "rank": r}))

    def node_rows(t: pa.Table) -> pa.Table:
        return pa.table({"v": _i64(t, node_col), "r": np.full(t.num_rows, base, np.int64)})

    def contrib(r_src: np.ndarray, edges: pa.Table) -> np.ndarray:
        return r_src // _i64(edges, "deg")

    def apply_group(t: pa.Table) -> pa.Table:
        nv, csum = _pull_sums(t)
        return pa.table({"v": nv, "r": tele + (d_pct * csum) // 100})

    ranks = nodes_ds.map_batches(node_rows, batch_format="pyarrow").materialize()
    for _ in range(iters):
        # sums is materialized: the next cogroup reads its schema, which
        # would otherwise run this exchange once more
        sums = coarse_cogroup(
            [ranks, edges], "v", lambda t: _push_sums(t, contrib), num_groups
        ).materialize()
        # re-bound the control table's block count every iteration: the
        # shuffle chain otherwise DOUBLES blocks per iteration (output
        # partitions track input blocks through the shuffle), and
        # per-block fixed cost turns 5 iterations into 2^5 overhead —
        # same discipline as the crawl frontier's per-round repartition
        ranks = materialize_loop_state(
            coarse_cogroup([ranks, sums], "v", apply_group, num_groups).repartition(num_groups)
        )

    return ranks.map_batches(
        lambda t: pa.table({node_col: t.column("v"), "rank": t.column("r")}),
        batch_format="pyarrow",
    )


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
    ``coarse_groupby`` exchanges per round over the symmetric edge set —
    (1) on the source: a node's degree is its row count (all its edges
    share its group), and every edge is flagged with whether its SOURCE
    survives; (2) on the target: by symmetry the row count is again the
    node's degree, and an edge stays when both ends survive.  Per-round
    shuffle volume ∝ the round's edges (2 ints and a flag per row) and
    blocks are re-bounded each round (the 2^k block-compounding rule).  Terminates when a round removes nothing
    (count unchanged); peel depth is data-bounded (<= n rounds — a path
    graph at k=2 peels one layer per round from each end, the test's
    deep-iteration fixture)."""
    import ray.data

    a, b = pair_cols

    def symmetrize(t: pa.Table) -> pa.Table:
        aa, bb = _i64(t, a), _i64(t, b)
        keep = aa != bb  # self-loops never count toward core degree
        aa, bb = aa[keep], bb[keep]
        return pa.table({"s": np.concatenate([aa, bb]), "t": np.concatenate([bb, aa])})

    def dedup_group(t: pa.Table) -> pa.Table:
        st = np.unique(np.stack([_i64(t, "s"), _i64(t, "t")], 1), axis=0)
        return pa.table({"s": st[:, 0], "t": st[:, 1]})

    # dedup inside a coarse s-hash group: all copies of a directed edge
    # share s, hence the group
    edges = coarse_groupby(
        pairs_ds.map_batches(symmetrize, batch_format="pyarrow"), "s", dedup_group, 64
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
    edges = edges.repartition(num_groups).materialize()
    prev = n_edges

    def flag_source(t: pa.Table) -> pa.Table:
        alive = _key_counts(_i64(t, "s")) >= k
        return t.select(["s", "t"]).append_column("alive_s", pa.array(alive))

    def peel(t: pa.Table) -> pa.Table:
        keep = t.column("alive_s").to_numpy(zero_copy_only=False) & (_key_counts(_i64(t, "t")) >= k)
        return t.select(["s", "t"]).filter(pa.array(keep))

    for _ in range(max_iters):
        if prev == 0:
            break
        flagged = coarse_groupby(edges, "s", flag_source, num_groups)
        edges = (
            coarse_groupby(flagged, "t", peel, num_groups)
            .repartition(num_groups)
            .materialize()
        )
        cur = edges.count()
        if cur == prev:
            break
        prev = cur

    def members_out(t: pa.Table) -> pa.Table:
        return pa.table({"v": np.unique(_i64(t, "s"))})

    return coarse_groupby(edges, "s", members_out, num_groups)


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

    Scale shape: per iteration TWO ``coarse_cogroup`` exchanges (the
    pagerank discipline) — (1) frontier and edges on the source: inside
    each group a sorted-membership scan emits the group's DISTINCT
    touched targets (candidates leave pre-deduped, ∝ frontier boundary,
    never ∝ edges), (2) state and candidates on the node: an unreached
    node with a candidate gets depth k.  State is (v, d) — 2 ints/node,
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
        num_groups = _groups_for(n)
    seed_arr = np.asarray(sorted(set(int(s) for s in seeds)), np.int64)

    def symmetrize(t: pa.Table) -> pa.Table:
        # v is the edge's source: the column the frontier cogroup keys on
        aa, bb = _i64(t, a), _i64(t, b)
        return pa.table({"v": np.concatenate([aa, bb]), "t": np.concatenate([bb, aa])})

    edges = pairs_ds.map_batches(symmetrize, batch_format="pyarrow").materialize()
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
            s = ep["v"].to_numpy(np.int64)
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

    # --- distributed loop: state (v, d), d = -1 while unreached ---
    def node_rows(t: pa.Table) -> pa.Table:
        v = _i64(t, node_col)
        return pa.table({"v": v, "d": np.where(np.isin(v, seed_arr), 0, -1).astype(np.int64)})

    def at_depth(depth: int):
        def fn(t: pa.Table) -> pa.Table:
            return t.filter(pc.equal(t.column("d"), depth)).select(["v"])

        return fn

    def expand(t: pa.Table) -> pa.Table:
        # leg 0: frontier nodes, leg 1: edges
        front, es = _split(t)
        if front.num_rows == 0 or es.num_rows == 0:  # a one-sided group
            return pa.table({"v": pa.array([], pa.int64())})
        _, hit = key_index(_i64(front, "v"), _i64(es, "v"))
        return pa.table({"v": np.unique(_i64(es, "t")[hit])})

    def update(k: int):
        def fn(t: pa.Table) -> pa.Table:
            # leg 0: state, leg 1: candidates.  One row per distinct state
            # node (nodes_ds may repeat a node); candidate-only ids (an
            # endpoint absent from nodes_ds) are dropped, so the row set
            # stays exactly the node table
            state, cands = _split(t)
            uv, inv = np.unique(_i64(state, "v"), return_inverse=True)
            d = np.full(len(uv), -1, np.int64)
            np.maximum.at(d, inv, _i64(state, "d"))
            d[(d < 0) & np.isin(uv, _i64(cands, "v"))] = k
            return pa.table({"v": uv, "d": d})

        return fn

    state = nodes_ds.map_batches(node_rows, batch_format="pyarrow").materialize()
    frontier = state.map_batches(at_depth(0), batch_format="pyarrow").materialize()
    for k in range(1, max_iters + 1):
        # cands is materialized: the next cogroup reads its schema, which
        # would otherwise run this exchange once more
        cands = coarse_cogroup([frontier, edges], "v", expand, num_groups).materialize()
        state = materialize_loop_state(
            coarse_cogroup([state, cands], "v", update(k), num_groups).repartition(num_groups)
        )
        frontier = state.map_batches(at_depth(k), batch_format="pyarrow").materialize()
        if frontier.count() == 0:
            break

    return state.map_batches(
        lambda t: _arrow_out(_i64(t, "v"), _i64(t, "d")), batch_format="pyarrow"
    )


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
    coarse group (the group is a function of s), so the run length IS the
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
        uk, total = _sum_by(df["key"].to_numpy(np.int64), df["cnt"].to_numpy(np.int64))
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
        uk, total = _sum_by(df["key"].to_numpy(np.int64), df["cnt"].to_numpy(np.int64))
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
    pagerank-shaped distributed loop — per half-step, ONE cogroup of
    values and edges on the lookup endpoint emits per-destination PARTIAL
    sums, ONE cogroup of values and sums on the node finishes them (2
    coarse all-to-alls per half, 4 per iteration; shuffle volume is 2-3
    int64s per row, never payloads), plus a tiny per-block partial-sum
    driver reduce (num_groups rows) for each global normalizer.
    """
    import ray.data

    a_col, b_col = pair_cols
    n = nodes_ds.count()
    if n == 0:
        return nodes_ds
    if num_groups is None:
        num_groups = _groups_for(n)

    def forward(t: pa.Table) -> pa.Table:
        # v is the endpoint whose value the edge carries: the cogroup key
        return pa.table({"v": _i64(t, a_col), "t": _i64(t, b_col)})

    edges = pairs_ds.map_batches(forward, batch_format="pyarrow").materialize()
    n_edges = edges.count()

    if n <= driver_max_nodes and n_edges <= driver_max_edges:
        if n_edges:
            ep = edges.to_pandas()
            s = ep["v"].to_numpy(np.int64)
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
        return ray.data.from_arrow(pa.table({node_col: nv, "hub": h, "auth": aa}))

    # the backward half looks values up at the target: the reversed edges
    backward = edges.map_batches(
        lambda t: pa.table({"v": t.column("t"), "t": t.column("v")}), batch_format="pyarrow"
    ).materialize()
    hvals = nodes_ds.map_batches(
        lambda t: pa.table({"v": _i64(t, node_col), "r": np.full(t.num_rows, scale, np.int64)}),
        batch_format="pyarrow",
    ).materialize()

    def finish(t: pa.Table) -> pa.Table:
        nv, raw = _pull_sums(t)
        return pa.table({"v": nv, "r": raw})

    def half(vals, oriented):
        """raw(u) = sum of vals.r over the ``oriented`` edges (v -> t),
        looked up at v and accumulated at t — then globally normalized.
        vals doubles as the node universe (it is node-aligned by
        construction)."""
        # sums is materialized: the next cogroup reads its schema, which
        # would otherwise run this exchange once more
        sums = coarse_cogroup(
            [vals, oriented], "v", lambda t: _push_sums(t, lambda x, _: x), num_groups
        ).materialize()
        raw_ds = (
            coarse_cogroup([vals, sums], "v", finish, num_groups)
            .repartition(num_groups)
            .materialize()
        )
        # global normalizer: per-block partial sums -> num_groups-row
        # driver reduce (bounded; never row-proportional)
        parts = raw_ds.map_batches(
            lambda t: pa.table({"tt": [int(_i64(t, "r").sum())]}), batch_format="pyarrow"
        ).take_all()
        dnorm = max(1, sum(int(r["tt"]) for r in parts) // scale)
        return materialize_loop_state(
            raw_ds.map_batches(
                lambda t: pa.table({"v": t.column("v"), "r": _i64(t, "r") // dnorm}),
                batch_format="pyarrow",
            )
        )

    avals = None
    for _ in range(iters):
        avals = half(hvals, edges)
        hvals = half(avals, backward)

    def merge_group(t: pa.Table) -> pa.Table:
        # leg 0: hub values, leg 1: authority values — node-aligned copies
        # of the same universe
        hub, auth = _split(t)
        ho, ao = np.argsort(_i64(hub, "v")), np.argsort(_i64(auth, "v"))
        return pa.table({node_col: _i64(hub, "v")[ho], "hub": _i64(hub, "r")[ho],
                         "auth": _i64(auth, "r")[ao]})

    return coarse_cogroup([hvals, avals], "v", merge_group, num_groups)


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
    Each round cogroups two copies of the state on ``id``: providers as
    they are, requesters with their ptr in the ``id`` column (their own
    id moves to ``src``); lookups are a sorted-run searchsorted.  Rounds
    stop when no pointer advanced (a per-block sum the driver adds up).

    Size-adaptive like pagerank: below ``driver_max_rows`` the identical
    doubling runs as driver numpy (the exchange latency dominates small
    forests); tests force the distributed path and assert equality.
    Arrow blocks throughout: ids may pass 2^53 (xxhash-derived).
    """
    import ray.data

    n = ds.count()
    if n == 0:
        return ds

    def init_state(t: pa.Table) -> pa.Table:
        # a nullable int64 next column coerces to float64 under pandas
        # batch format and corrupts ids > 2^53 (xxhash-derived ids) — read
        # the null mask from the Arrow column and fill (the
        # repartition_join rule)
        ids = _i64(t, id_col)
        # all-null blocks arrive with a null-typed column; cast first
        nxt_col = t.column(next_col).cast(pa.int64())
        isna = pc.is_null(nxt_col).to_numpy(zero_copy_only=False)
        nxt = nxt_col.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"id": ids, "ptr": np.where(isna, ids, nxt), "dist": (~isna).astype(np.int64)}
        )

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

    state = state.repartition(num_groups).materialize()

    def as_requester(t: pa.Table) -> pa.Table:
        return pa.table({"src": t.column("id"), "id": t.column("ptr"), "dist": t.column("dist")})

    def double_group(t: pa.Table) -> pa.Table:
        # leg 0: providers (id, ptr, dist), leg 1: requesters (src, id = their ptr, dist)
        prov, req = _split(t)
        if req.num_rows == 0:  # a one-sided group
            return pa.table({c: pa.array([], pa.int64()) for c in ("id", "ptr", "dist", "moved")})
        pos, ok = key_index(_i64(prov, "id"), _i64(req, "id"))
        assert ok.all(), "dangling pointer target in hash group"
        tdist = _i64(prov, "dist")[pos]
        return pa.table(
            {
                "id": _i64(req, "src"),
                "ptr": _i64(prov, "ptr")[pos],
                "dist": _i64(req, "dist") + tdist,
                "moved": (tdist > 0).astype(np.int64),
            }
        )

    while True:
        state = (
            coarse_cogroup(
                [state, state.map_batches(as_requester, batch_format="pyarrow")],
                "id",
                double_group,
                num_groups,
            )
            .repartition(num_groups)
            .materialize()
        )
        if block_sum(state, "moved") == 0:
            break
        state = materialize_loop_state(state.drop_columns(["moved"]))

    return state.map_batches(
        lambda t: pa.table(
            {id_col: t.column("id"), "root_id": t.column("ptr"), "depth": t.column("dist")}
        ),
        batch_format="pyarrow",
    )
