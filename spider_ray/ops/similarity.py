"""Similarity search over an embedding column (``list<float>``).

* brute-force cosine top-k: numpy matmul per batch against a broadcast query
  matrix (``ray.put`` once, read per actor in ``__init__`` — never re-shipped
  per batch), partial top-k per batch folded on the driver;
* LSH-bucketed variant (random hyperplane signs) as the scale path: candidate
  buckets shuffle only (bucket, vec_id), full vectors stay in their blocks;
* near-dup pairs: exact via block-pair task fan-out (two bounded blocks per
  task, no whole-matrix broadcast), approximate via multi-table LSH buckets
  (``cosine_near_dup_bucketed`` — exact within bucket, sub-quadratic).
"""

from __future__ import annotations


import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _batch_matrix(batch: pa.Table, column: str) -> np.ndarray:
    col = batch.column(column)
    flat = np.asarray(col.combine_chunks().flatten(), dtype=np.float64)
    return flat.reshape(batch.num_rows, -1)


class CosineScorer:
    """Actor-pool stage: score every row against the broadcast query matrix
    and emit the per-batch top-k (partial top-k pushdown → tiny driver fold)."""

    def __init__(self, queries_ref, k: int, column: str, id_column: str):
        import ray

        q = ray.get(queries_ref) if not isinstance(queries_ref, np.ndarray) else queries_ref
        self.q = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-12)
        self.k = k
        self.column = column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, self.column)
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = m @ self.q.T  # (rows, n_queries)
        ids = np.asarray(batch.column(self.id_column))
        out_q, out_id, out_sim = [], [], []
        k = min(self.k, len(ids))
        for qi in range(self.q.shape[0]):
            col = sims[:, qi]
            # deterministic per-batch top-k under the SAME ordering as the
            # driver fold and SQL oracle: (-round(sim, 9), vec_id asc).  Keep
            # all boundary ties before the lexsort so none of the ids the
            # fold would pick is dropped here.
            r = -np.round(col, 9)
            if k < len(ids):
                kth = np.partition(r, k - 1)[k - 1]
                cand = np.nonzero(r <= kth)[0]
            else:
                cand = np.arange(len(ids))
            order = np.lexsort((ids[cand], r[cand]))
            for row in cand[order[:k]]:
                out_q.append(qi)
                out_id.append(int(ids[row]))
                out_sim.append(float(col[row]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cos_sim": pa.array(out_sim, pa.float64()),
            }
        )


def _round9_prep(batch: pa.Table) -> pa.Table:
    """Append ``_ord = round(cos_sim, 9)`` with PYTHON ``round`` (the
    pinned order spec both the old heap fold and the DuckDB oracle use —
    correctly-rounded decimal, not np.round's scale/rint).  Runs only on
    k-capped partial rows, never on the corpus."""
    sims = batch.column("cos_sim").to_pylist()
    return batch.append_column(
        "_ord", pa.array([round(s, 9) for s in sims], pa.float64())
    )


def brute_force_top_k(
    ds,
    queries: np.ndarray,
    k: int = 10,
    column: str = "embedding",
    id_column: str = "vec_id",
    concurrency=None,
    fold_mode: str = "driver",
    est_rows: int | None = None,
):
    """Global top-k neighbors per query.  Per-batch partial top-k in an
    autoscaling actor pool (``poolsize.autoscale_pool()`` — a fixed
    2-actor pool bottlenecked a full-speed read on anything bigger than
    the 32-CPU bench box), then the shared
    :func:`~spider_ray.ops.topkfold.fold_partial_topk`: driver fold of the
    O(blocks·k·queries) slim partials by default, ``fold_mode="cogroup"``
    folds them through a coarse ``hash(query_id)`` co-group so only the
    O(queries·k) winners reach the driver (bit-identical; mode-parity
    tested); ``fold_mode="auto"`` + ``est_rows`` (caller's estimate of
    ``ceil(n/1024) · n_queries · k`` partial rows — the op does NOT
    ``count()`` the input, which could re-execute an upstream pipeline)
    picks cogroup above ``topkfold.DRIVER_ROW_BOUND``.  Deterministic
    tie-break: (−sim rounded to 9 dp, vec_id)."""
    import ray

    from ..poolsize import autoscale_pool
    from .topkfold import fold_partial_topk

    if concurrency is None:
        concurrency = autoscale_pool()
    qref = ray.put(np.asarray(queries, dtype=np.float64))
    partial = ds.map_batches(
        CosineScorer,
        fn_constructor_args=(qref, k, column, id_column),
        batch_format="pyarrow",
        batch_size=1024,
        concurrency=concurrency,
    )
    folded = fold_partial_topk(
        partial,
        k,
        [("_ord", "descending"), ("vec_id", "ascending")],
        group_col="query_id",
        prep=_round9_prep,
        mode=fold_mode,
        est_rows=est_rows,
    )
    return folded.select(["query_id", "vec_id", "rank", "cos_sim"])


class HyperplaneLSH:
    """Random-hyperplane sign buckets: ``map_batches`` stage emitting
    (vec_id, bucket).  At scale, only same-bucket candidates are scored —
    an IVF-style pruning layer in front of :class:`CosineScorer`."""

    def __init__(self, dim: int, n_planes: int = 16, seed: int = 7, column: str = "embedding",
                 id_column: str = "vec_id"):
        rng = np.random.RandomState(seed)
        self.planes = rng.standard_normal((n_planes, dim))
        self.column = column
        self.id_column = id_column

    def bucket_of(self, vecs: np.ndarray) -> np.ndarray:
        signs = (vecs @ self.planes.T) > 0
        return (signs * (1 << np.arange(self.planes.shape[0]))).sum(axis=1).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, self.column)
        return pa.table(
            {
                "vec_id": batch.column(self.id_column),
                "bucket": pa.array(self.bucket_of(m), pa.int64()),
            }
        )


def lsh_top_k(
    ds,
    queries: np.ndarray,
    k: int = 10,
    dim: int | None = None,
    n_planes: int = 8,
    column: str = "embedding",
    id_column: str = "vec_id",
):
    """Approximate top-k: score only rows whose LSH bucket matches a query's
    bucket.  Returns the same schema as :func:`brute_force_top_k` (recall <
    1.0 by construction; tested against the brute-force baseline)."""
    import pyarrow.compute as pc
    import ray

    queries = np.asarray(queries, dtype=np.float64)
    if dim is None:
        dim = queries.shape[1]
    lsh = HyperplaneLSH(dim, n_planes, column=column, id_column=id_column)
    qbuckets = set(lsh.bucket_of(queries).tolist())

    def filter_bucket(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, column)
        buckets = lsh.bucket_of(m)
        mask = np.isin(buckets, list(qbuckets))
        return batch.filter(pa.array(mask))

    pruned = ds.map_batches(filter_bucket, batch_format="pyarrow")
    return brute_force_top_k(pruned, queries, k, column, id_column)


_KNUTH = np.uint64(2654435761)
_MOD32 = np.uint64(1 << 32)


def ivf_cells(
    ds, n_cells: int = 16, column: str = "embedding", id_column: str = "vec_id"
):
    """Deterministic, training-free IVF coarse quantizer: the centroids are
    the embeddings of the ``n_cells`` vec_ids with the SMALLEST Knuth
    multiplicative hash ``(id · 2654435761) mod 2³²`` (ties by id) — a
    deterministic uniform sample, bit-replicable by the sequential oracle.
    No k-means: at IVF scale the bucketing structure (inverted lists +
    nprobe) matters far more than centroid optimality.

    Fully distributed selection: each block emits its own top-``n_cells``
    partial (by hash), the driver folds ≤ n_cells × n_blocks candidate rows
    — the full id vector NEVER reaches the driver (the round-2 version
    sorted every id driver-side and materialized the dataset twice).
    Returns (centroid_ids ascending, centroids normalized in that order)."""

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column(id_column))
        h = (ids.astype(np.uint64) * _KNUTH) % _MOD32
        sel = np.lexsort((ids, h))[: min(n_cells, len(ids))]
        return pa.table(
            {
                id_column: pa.array(ids[sel], pa.int64()),
                "h": pa.array(h[sel], pa.uint64()),
            }
        )

    cand = pa.concat_tables(
        b
        for b in ds.select_columns([id_column])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    )
    ids = np.asarray(cand.column(id_column))
    h = np.asarray(cand.column("h"))
    sel = np.sort(ids[np.lexsort((ids, h))[: min(n_cells, len(ids))]])

    # fetch just the selected rows' embeddings (n_cells rows)
    sel_arr = pa.array(sel, pa.int64())

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.compute.is_in(batch.column(id_column), value_set=sel_arr))

    cent_tbl = pa.concat_tables(
        b
        for b in ds.select_columns([id_column, column])
        .map_batches(pick, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows
    )
    order = np.argsort(np.asarray(cent_tbl.column(id_column)))
    cents = _batch_matrix(cent_tbl, column)[order]
    cents = cents / np.maximum(np.linalg.norm(cents, axis=1, keepdims=True), 1e-12)
    return np.asarray(cent_tbl.column(id_column))[order], cents


def _assign_cells(vecs: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Nearest-centroid cell per vector; sims rounded to 9 so the argmax
    (first-max → lowest cell id on ties) is bit-replicable."""
    v = vecs / np.maximum(np.linalg.norm(vecs, axis=1, keepdims=True), 1e-12)
    return np.argmax(np.round(v @ cents.T, 9), axis=1).astype(np.int64)


def ivf_top_k(
    ds,
    queries: np.ndarray,
    k: int = 10,
    n_cells: int = 16,
    nprobe: int = 4,
    column: str = "embedding",
    id_column: str = "vec_id",
):
    """IVF-style approximate top-k: each query probes its ``nprobe`` nearest
    cells; only vectors assigned to a probed cell are scored (exact cosine +
    the shared deterministic fold).  Complements :func:`lsh_top_k` —
    bucket-by-centroid instead of bucket-by-hyperplane-signs.  Recall < 1 by
    construction; tested against the brute-force baseline."""
    queries = np.asarray(queries, dtype=np.float64)
    _, cents = ivf_cells(ds, n_cells, column, id_column)

    qn = queries / np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-12)
    qsims = np.round(qn @ cents.T, 9)
    actual_cells = cents.shape[0]  # < n_cells when the dataset is tiny
    probed: set[int] = set()
    for qi in range(qsims.shape[0]):
        order = np.lexsort((np.arange(actual_cells), -qsims[qi]))
        probed.update(order[:nprobe].tolist())
    probe_list = sorted(probed)

    def filter_cells(batch: pa.Table) -> pa.Table:
        cells = _assign_cells(_batch_matrix(batch, column), cents)
        return batch.filter(pa.array(np.isin(cells, probe_list)))

    pruned = ds.map_batches(filter_cells, batch_format="pyarrow")
    return brute_force_top_k(pruned, queries, k, column, id_column)


def _nonempty_block_refs(ds):
    """Block ``ObjectRef``\\ s of a materialized dataset, empty blocks
    skipped by METADATA row count — never by fetching block bytes into
    the driver (the r4 version ``ray.get``-ed every block to test
    ``num_rows``, pulling the whole slim dataset through the driver
    heap)."""
    return [
        ref
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]


def cosine_near_dup(
    ds,
    threshold: float = 0.4,
    column: str = "embedding",
    id_column: str = "vec_id",
    target_block_rows: int = 65536,
    max_parallel_pairs: int = 64,
):
    """Embedding-cosine near-duplicate pairs: (vec_a < vec_b, cos_sim ≥ t).

    Exact (recall 1.0) and DISTRIBUTED: the slim (id, embedding) dataset is
    split into P bounded blocks and one remote task per unordered block
    pair (i ≤ j) computes the thresholded cross-products as a blocked
    matmul.  No whole-matrix broadcast and no driver materialization —
    peak memory per task is two blocks, results stream back as block refs.
    O(P²) tasks is inherent to EXACT all-pairs; ``max_parallel_pairs``
    bounds in-flight tasks so the object store never holds every pair
    task's inputs at once.  For the approximate sub-quadratic path use
    :func:`cosine_near_dup_bucketed` (LSH buckets, exact within bucket)."""
    import ray
    import ray.data as rd

    slim = ds.select_columns([id_column, column]).materialize()
    n = slim.count()
    n_blocks = max(1, -(-n // target_block_rows))
    # always coalesce to the computed block count: the pair fan-out is
    # quadratic in the block count, and a materialized read can carry far
    # more (tiny) blocks than target_block_rows implies
    slim = slim.repartition(n_blocks).materialize()
    part_refs = _nonempty_block_refs(slim)
    if not part_refs:
        return rd.from_arrow(_EMPTY_PAIRS)

    @ray.remote
    def _block_pair(ta: pa.Table, tb: pa.Table, same: bool) -> pa.Table:
        ia = np.asarray(ta.column(id_column))
        ib = np.asarray(tb.column(id_column))
        ma = _batch_matrix(ta, column)
        ma = ma / np.maximum(np.linalg.norm(ma, axis=1, keepdims=True), 1e-12)
        if same:
            mb, sims = ma, np.round(ma @ ma.T, 9)
        else:
            mb = _batch_matrix(tb, column)
            mb = mb / np.maximum(np.linalg.norm(mb, axis=1, keepdims=True), 1e-12)
            sims = np.round(ma @ mb.T, 9)
        ii, jj = np.nonzero(sims >= threshold)
        a, b = ia[ii], ib[jj]
        if same:
            keep = a < b
            a, b, s = a[keep], b[keep], sims[ii[keep], jj[keep]]
        else:  # disjoint blocks: normalize each unordered pair to (min, max)
            s = sims[ii, jj]
            lo = np.minimum(a, b)
            b = np.maximum(a, b)
            a = lo
        return pa.table(
            {
                "vec_a": pa.array(a, pa.int64()),
                "vec_b": pa.array(b, pa.int64()),
                "cos_sim": pa.array(s, pa.float64()),
            }
        )

    pending, out_refs = [], []
    for i in range(len(part_refs)):
        for j in range(i, len(part_refs)):
            if len(pending) >= max_parallel_pairs:
                done, pending = ray.wait(pending, num_returns=1)
                out_refs.extend(done)
            pending.append(_block_pair.remote(part_refs[i], part_refs[j], i == j))
    out_refs.extend(pending)
    return rd.from_arrow_refs(out_refs)


_EMPTY_PAIRS = pa.table(
    {
        "vec_a": pa.array([], pa.int64()),
        "vec_b": pa.array([], pa.int64()),
        "cos_sim": pa.array([], pa.float64()),
    }
)


def cosine_near_dup_bucketed(
    ds,
    threshold: float = 0.4,
    column: str = "embedding",
    id_column: str = "vec_id",
    n_tables: int = 8,
    n_planes: int = 6,
    seed: int = 7,
):
    """Approximate near-dup pairs, sub-quadratic: ``n_tables`` independent
    hyperplane-LSH tables bucket every vector; candidate pairs are vectors
    sharing a bucket in ANY table, scored EXACTLY inside their bucket group
    (cosine, same rounding/threshold as :func:`cosine_near_dup`).  The
    shuffle moves (table, bucket, vec_id, packed embedding); recall < 1 by
    construction — misses only pairs above threshold that collide in no
    table (probability shrinks geometrically with ``n_tables``).  The
    100-TB default for thresholded near-dup; the block-pair exact path is
    the recall-1.0 baseline it's tested against."""
    dim = len(ds.take(1)[0][column])
    tables = [
        HyperplaneLSH(dim, n_planes, seed=seed + 101 * t, column=column, id_column=id_column)
        for t in range(n_tables)
    ]

    def bucketize(batch: pa.Table) -> pa.Table:
        m = _batch_matrix(batch, column)
        ids = batch.column(id_column)
        packed = pa.array([row.tobytes() for row in m], pa.large_binary())
        parts = []
        for t, lsh in enumerate(tables):
            parts.append(
                pa.table(
                    {
                        "lsh_table": pa.array(np.full(len(batch), t, np.int32)),
                        "bucket": pa.array(lsh.bucket_of(m), pa.int64()),
                        "vec_id": ids,
                        "vec": packed,
                    }
                )
            )
        return pa.concat_tables(parts)

    rows = ds.select_columns([id_column, column]).map_batches(
        bucketize, batch_format="pyarrow"
    )

    def pairs_of_bucket(tbl: pa.Table) -> pa.Table:
        ids = np.asarray(tbl.column("vec_id"))
        order = np.argsort(ids)
        ids = ids[order]
        uniq_mask = np.ones(len(ids), bool)
        uniq_mask[1:] = ids[1:] != ids[:-1]
        ids = ids[uniq_mask]
        if len(ids) < 2:
            return _EMPTY_PAIRS
        vecs = [tbl.column("vec")[int(i)].as_py() for i in order[uniq_mask]]
        m = np.vstack([np.frombuffer(v, dtype=np.float64) for v in vecs])
        m = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-12)
        sims = np.round(m @ m.T, 9)
        ii, jj = np.nonzero(sims >= threshold)
        keep = ids[ii] < ids[jj]
        return pa.table(
            {
                "vec_a": pa.array(ids[ii[keep]], pa.int64()),
                "vec_b": pa.array(ids[jj[keep]], pa.int64()),
                "cos_sim": pa.array(sims[ii[keep], jj[keep]], pa.float64()),
            }
        )

    pairs = rows.groupby(["lsh_table", "bucket"]).map_groups(
        pairs_of_bucket, batch_format="pyarrow"
    )
    # a pair can collide in several tables — keep one row per pair
    from ray.data.aggregate import Min

    agg = pairs.groupby(["vec_a", "vec_b"]).aggregate(Min("cos_sim"))
    return agg.map_batches(
        lambda b: pa.table(
            {
                "vec_a": b.column("vec_a"),
                "vec_b": b.column("vec_b"),
                "cos_sim": b.column("min(cos_sim)"),
            }
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Product quantization (PQ) + asymmetric-distance (ADC) top-k
# ---------------------------------------------------------------------------


def pq_top_k(
    ds,
    queries: np.ndarray,
    k: int = 10,
    m: int = 4,
    nbits: int = 4,
    column: str = "embedding",
    id_column: str = "vec_id",
    concurrency=None,
    fold_mode: str = "driver",
    est_rows: int | None = None,
):
    """Product-quantization approximate top-k (the memory-side ANN scale
    path: vectors compress to ``m`` sub-codes, queries scan CODES, not
    floats — at 100 TB the float matrix never has to exist).

    Pinned spec (bit-replicated by the sequential golden):

    * codebook rows = the :func:`ivf_cells` deterministic selection of the
      ``2^nbits`` Knuth-min vec_ids (unit rows, ascending-id order);
      ``codebook_j`` is contiguous slice ``j`` of those rows — NOT
      renormalized per subspace;
    * ``code_j(x)`` = argmin over codes of ``round(||x_j - c||², 9)``
      computed with the explicit lane-wise ``sum((x-c)**2)`` expression
      (batch-shape-invariant, unlike a GEMM identity), first-min → lowest
      code; ``x`` is the unit row;
    * ADC distance = ``Σ_j int64(round(||q_j - cb_j[code_j]||², 9)·1e9)``
      — integer sums, accumulation-order-free;
    * top-``k`` per query by ``(adist_x1e9 asc, vec_id asc)``.

    Recall < 1 by construction (tested against the brute-force baseline).
    Scale shape: the ≤ ``2^nbits × d`` codebook matrix and the
    ``queries × m × 2^nbits`` int64 ADC tables broadcast once; each block
    encodes itself in an autoscaling actor pool
    (``poolsize.autoscale_pool()`` — the r4 hardcoded ``concurrency=2``
    capped the scan at two workers on any cluster) and emits
    ``k``-per-query partials; the shared
    :func:`~spider_ray.ops.topkfold.fold_partial_topk` folds the
    O(blocks · k · queries) slim rows on the driver, or through a coarse
    ``hash(query_id)`` co-group with ``fold_mode="cogroup"`` when that
    volume itself is the bottleneck (bit-identical; mode-parity tested).
    """
    import ray

    queries = np.asarray(queries, dtype=np.float64)
    qn = queries / np.maximum(
        np.linalg.norm(queries, axis=1, keepdims=True), 1e-12
    )
    n_codes = 1 << nbits
    _, cents = ivf_cells(ds, n_codes, column, id_column)
    d = cents.shape[1]
    if d % m:
        raise ValueError(f"dim {d} not divisible by m={m}")
    sub = d // m

    # per-query integer ADC tables: adc[qi, j, c]
    adc = np.zeros((qn.shape[0], m, cents.shape[0]), dtype=np.int64)
    for j in range(m):
        qj = qn[:, j * sub : (j + 1) * sub]
        cj = cents[:, j * sub : (j + 1) * sub]
        d2 = np.round(
            np.sum((qj[:, None, :] - cj[None, :, :]) ** 2, axis=2), 9
        )
        adc[:, j, :] = np.rint(d2 * 1e9).astype(np.int64)

    cents_ref = ray.put(cents)
    adc_ref = ray.put(adc)

    class _PQScorer:
        def __init__(self):
            self.cents = ray.get(cents_ref)
            self.adc = ray.get(adc_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            v = _batch_matrix(batch, column)
            v = v / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), 1e-12)
            ids = np.asarray(batch.column(id_column), dtype=np.int64)
            n = v.shape[0]
            dist = np.zeros((n, self.adc.shape[0]), dtype=np.int64)
            for j in range(m):
                vj = v[:, j * sub : (j + 1) * sub]
                cj = self.cents[:, j * sub : (j + 1) * sub]
                d2 = np.round(
                    np.sum((vj[:, None, :] - cj[None, :, :]) ** 2, axis=2), 9
                )
                codes = np.argmin(d2, axis=1)  # first-min -> lowest code
                dist += self.adc[:, j, :][:, codes].T
            qs, vids, dists = [], [], []
            for qi in range(dist.shape[1]):
                order = np.lexsort((ids, dist[:, qi]))[:k]
                qs.extend([qi] * len(order))
                vids.extend(ids[order].tolist())
                dists.extend(dist[order, qi].tolist())
            return pa.table(
                {
                    "query_id": pa.array(qs, pa.int64()),
                    "vec_id": pa.array(vids, pa.int64()),
                    "adist_x1e9": pa.array(dists, pa.int64()),
                }
            )

    from ..poolsize import autoscale_pool
    from .topkfold import fold_partial_topk

    if concurrency is None:
        concurrency = autoscale_pool()
    partial = ds.map_batches(
        _PQScorer, batch_format="pyarrow", batch_size=1024,
        concurrency=concurrency,
    )
    folded = fold_partial_topk(
        partial,
        k,
        [("adist_x1e9", "ascending"), ("vec_id", "ascending")],
        group_col="query_id",
        mode=fold_mode,
        est_rows=est_rows,
    )
    return folded.select(["query_id", "vec_id", "rank", "adist_x1e9"])


# ---------------------------------------------------------------------------
# Exact k-nearest-neighbor graph (block-pair fan-out, distributed top-k)
# ---------------------------------------------------------------------------


def _neighbor_ranks(ids_j: np.ndarray) -> np.ndarray:
    """Rank of each id among ``ids_j`` — the low 20 bits of knn's composite
    (similarity, neighbor) sort key.  A block of 2²⁰ ids or more would
    carry ranks into the similarity bits and silently reorder neighbors, so
    it raises instead."""
    if len(ids_j) >= 1 << 20:
        raise ValueError(
            f"knn_graph block holds {len(ids_j)} ids; the composite top-k key "
            "needs fewer than 2**20 per block (lower target_block_rows)"
        )
    rank_j = np.empty(len(ids_j), dtype=np.int64)
    rank_j[np.argsort(ids_j, kind="stable")] = np.arange(len(ids_j))
    return rank_j


def knn_graph(
    ds,
    k: int = 5,
    column: str = "embedding",
    id_column: str = "vec_id",
    target_block_rows: int = 65536,
    max_parallel_pairs: int = 64,
):
    """EXACT k-NN graph over the embedding column: for every vector its
    ``k`` nearest OTHER vectors by ``(round(cos, 6) desc, neighbor_id
    asc)`` — the contrastive-pair / graph-construction primitive
    (``(vec_id, neighbor_id, rank, sim_x1e6)``).

    Round-6 (not the repo's usual round-9) is part of the op spec: it is
    the precision at which DuckDB's ``list_cosine_similarity`` over
    ``::DOUBLE[]`` casts agrees bit-for-bit with the numpy unit-row GEMM
    (verified 0/5000 mismatches; float32 storage costs ~1e-8 either way),
    so the oracle is PURE SQL — no golden needed.

    Scale shape (the cosine_near_dup block discipline): the slim
    (id, embedding) dataset splits into P bounded blocks; one remote task
    per ordered block pair computes the partial top-``k`` of block i's
    rows against block j's candidates (self-matches masked on the
    diagonal); the k-per-vector-per-pair candidate rows then fold through
    ONE coarse ``hash(vec_id)`` co-group with a vectorized segmented
    rank — no O(N·k) driver fold, nothing ever materializes the N×N
    matrix.

    Driver discipline (r5): pair-task outputs stay in the object store
    as ``ObjectRef``\\ s and become a dataset via
    ``ray.data.from_arrow_refs`` (metadata computed by remote tasks), so
    the O(N·k·n_blocks) candidate volume never transits the driver heap;
    empty input blocks are skipped by METADATA row counts
    (``iter_internal_ref_bundles``), never fetched.
    ``max_parallel_pairs`` bounds in-flight pair tasks with ``ray.wait``
    alone — no ``ray.get`` of any candidate table on the driver."""
    import ray
    import ray.data as rd

    from ..poolsize import coarse_fanout
    from .behavior import coarse_part

    nparts = coarse_fanout()
    slim = ds.select_columns([id_column, column]).materialize()
    n = slim.count()
    if n == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "neighbor_id": pa.array([], pa.int64()),
                    "rank": pa.array([], pa.int64()),
                    "sim_x1e6": pa.array([], pa.int64()),
                }
            )
        )
    n_blocks = max(1, -(-n // target_block_rows))
    # ALWAYS coalesce to the computed block count: a materialized read can
    # carry far more (tiny) blocks than target_block_rows implies, and the
    # pair fan-out is quadratic in the block count — 32 stray blocks of 16
    # rows each mean 1024 pair tasks where 1 suffices (measured 44 s vs
    # 2 s at sf0.01)
    slim = slim.repartition(n_blocks).materialize()
    part_refs = _nonempty_block_refs(slim)

    @ray.remote
    def pair_topk(ref_i, ref_j, same: bool) -> pa.Table:
        ti, tj = ref_i, ref_j
        ids_i = np.asarray(ti.column(id_column), dtype=np.int64)
        ids_j = np.asarray(tj.column(id_column), dtype=np.int64)
        rank_j = _neighbor_ranks(ids_j)
        mi = _batch_matrix(ti, column)
        mj = _batch_matrix(tj, column)
        mi = mi / np.maximum(np.linalg.norm(mi, axis=1, keepdims=True), 1e-12)
        mj = mj / np.maximum(np.linalg.norm(mj, axis=1, keepdims=True), 1e-12)
        sims = np.rint(np.round(mi @ mj.T, 6) * 1e6).astype(np.int64)
        if same:
            eq = ids_i[:, None] == ids_j[None, :]
            sims = np.where(eq, np.int64(-2_000_000), sims)
        kk = min(k, sims.shape[1])
        # whole-matrix top-k via one composite argpartition instead of a
        # per-row lexsort (r5: the row loop was O(rows · width log width)
        # Python+sort per pair task).  ids are unique, so rank-of-id is a
        # total tiebreak: comp = (1e6 - sim) · 2²⁰ + rank_j orders exactly
        # by (sim desc, neighbor_id asc); 3e6·2²⁰ ≈ 3.1e12 fits int64.
        comp = (np.int64(1_000_000) - sims) * np.int64(1 << 20) + rank_j[None, :]
        rows = np.arange(sims.shape[0])[:, None]
        part = (
            np.argpartition(comp, kk - 1, axis=1)[:, :kk]
            if kk < sims.shape[1] else
            np.broadcast_to(np.arange(kk), (sims.shape[0], kk)).copy()
        )
        ord2 = np.argsort(comp[rows, part], axis=1, kind="stable")
        sel = part[rows, ord2]
        chosen = sims[rows, sel]
        good = chosen > -2_000_000
        counts = good.sum(axis=1)
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids_i, counts), pa.int64()),
                "neighbor_id": pa.array(ids_j[sel][good], pa.int64()),
                "sim_x1e6": pa.array(chosen[good], pa.int64()),
            }
        )

    pending, out_refs = [], []
    for i, ri in enumerate(part_refs):
        for j, rj in enumerate(part_refs):
            if len(pending) >= max_parallel_pairs:
                done, pending = ray.wait(pending, num_returns=1)
                out_refs.extend(done)
            pending.append(pair_topk.remote(ri, rj, i == j))
    out_refs.extend(pending)
    cand = rd.from_arrow_refs(out_refs)

    def tag(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "part", coarse_part(batch.column("vec_id"), nparts)
        )

    def fold(group: pa.Table) -> pa.Table:
        from .topkfold import rank_topk

        t = rank_topk(
            group.drop_columns(["part"]),
            k,
            [("sim_x1e6", "descending"), ("neighbor_id", "ascending")],
            group_col="vec_id",
        )
        return t.select(["vec_id", "neighbor_id", "rank", "sim_x1e6"])

    return (
        cand.map_batches(tag, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold, batch_format="pyarrow")
    )
