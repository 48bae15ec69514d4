"""Training-data operator tests: dedup (exact/minhash/simhash), similarity
search, text stats, multimodal plumbing — verified against local references
(numpy brute force / planted duplicates)."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data

    return ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")


@pytest.fixture(scope="module")
def emb_ds(ray_session):
    import ray.data

    return ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")


def test_exact_dedup_counts(docs_ds):
    from spider_ray.ops.dedup import exact_dedup_counts

    t = exact_dedup_counts(docs_ds).to_arrow_refs()
    import ray

    tbl = pa.concat_tables([x for x in map(ray.get, t) if x.num_rows])
    # sf0.001 documents: all distinct → every group size 1
    assert tbl.num_rows == 500
    assert set(tbl.column("dup_count").to_pylist()) == {1}


def test_exact_dedup_with_planted_dups(ray_session):
    import ray.data

    from spider_ray.ops.dedup import exact_dedup_counts

    rows = {"doc_id": [1, 2, 3, 4, 5], "text": ["aa", "bb", "aa", "cc", "aa"]}
    ds = ray.data.from_arrow(pa.table(rows))
    out = exact_dedup_counts(ds).to_pandas()
    by_id = dict(zip(out["doc_id"], out["dup_count"]))
    assert by_id == {1: 3, 2: 1, 4: 1}


def test_minhash_near_dup(ray_session):
    import ray.data

    from spider_ray.ops.dedup import minhash_dedup

    base = "the quick brown fox jumps over the lazy dog and runs through the green forest all day"
    near = base.replace("green", "dark")  # one-word change → high jaccard
    far = "completely different content about databases and query engines with nothing shared"
    ds = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2, 3], "text": [base, near, far]})
    )
    pairs = minhash_dedup(ds, threshold=0.5, num_perm=64, n_bands=16, shingle_size=3).to_pandas()
    got = set(zip(pairs["doc_a"], pairs["doc_b"]))
    assert (1, 2) in got
    assert all(3 not in p for p in got)


def test_near_dup_clusters(ray_session):
    """Two planted near-dup chains must collapse into two components labeled
    by their min doc_id; singletons are absent from the output."""
    import ray.data

    from spider_ray.ops.dedup import near_dup_clusters

    base = "the quick brown fox jumps over the lazy dog and runs through the green forest all day"
    other = "a totally separate passage about ships sailing across the wide open ocean under clear skies"
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": [1, 2, 3, 10, 11, 99],
                "text": [
                    base,
                    base.replace("green", "dark"),
                    base.replace("lazy", "sleepy"),
                    other,
                    other.replace("clear", "cloudy"),
                    "completely different content about databases and query engines",
                ],
            }
        )
    )
    out = near_dup_clusters(ds, threshold=0.5, num_perm=64, n_bands=16, shingle_size=3)
    got = dict(zip(out.column("doc_id").to_pylist(), out.column("cluster_id").to_pylist()))
    assert got == {1: 1, 2: 1, 3: 1, 10: 10, 11: 10}


def test_near_dup_clusters_labelprop_parity(ray_session):
    """The distributed label-propagation twin must produce the identical
    (doc_id, cluster_id) table as the driver union-find, including the
    empty-pair-list case."""
    import ray.data

    from spider_ray.ops.dedup import near_dup_clusters, near_dup_clusters_labelprop

    base = "the quick brown fox jumps over the lazy dog and runs through the green forest all day"
    other = "a totally separate passage about ships sailing across the wide open ocean under clear skies"
    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": [1, 2, 3, 10, 11, 99],
                "text": [
                    base,
                    base.replace("green", "dark"),
                    base.replace("lazy", "sleepy"),
                    other,
                    other.replace("clear", "cloudy"),
                    "completely different content about databases and query engines",
                ],
            }
        )
    )
    kw = dict(threshold=0.5, num_perm=64, n_bands=16, shingle_size=3)
    want = near_dup_clusters(ds, **kw)
    got = (
        near_dup_clusters_labelprop(ds, **kw)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == want.column("doc_id").to_pylist()
    assert got["cluster_id"].tolist() == want.column("cluster_id").to_pylist()

    empty = ray.data.from_arrow(
        pa.table({"doc_id": [1, 2], "text": ["alpha beta gamma", "delta epsilon zeta"]})
    )
    out = near_dup_clusters_labelprop(empty, **kw)
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "cluster_id"]


def test_simhash(ray_session):
    import ray.data

    from spider_ray.ops.dedup import SimHasher, hamming_distance, simhash_signatures

    a = "spark and ray both process large data sets with distributed executors"
    b = "spark and ray both process large data sets with distributed workers"
    c = "le chat noir dort sur le canapé rouge depuis ce matin"
    ds = ray.data.from_arrow(pa.table({"doc_id": [1, 2, 3], "text": [a, b, c]}))
    out = simhash_signatures(ds).to_pandas().set_index("doc_id")["simhash"]
    d_ab = hamming_distance(int(out[1]), int(out[2]))
    d_ac = hamming_distance(int(out[1]), int(out[3]))
    assert d_ab < d_ac
    assert SimHasher.simhash64("") == 0


def test_simhash_near_dup_exact_at_radius_3(ray_session):
    """Banded blocking at hamming ≤ 3 is exhaustive (pigeonhole): the op's
    pair set must equal the brute-force all-pairs filter."""
    import ray.data

    from spider_ray.ops.dedup import SimHasher, hamming_distance, simhash_near_dup

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts = [base] * 3 + [
        base.replace("gamma", f"word{i}") + f" tail{i % 4}" for i in range(30)
    ]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    got = {
        (r["doc_a"], r["doc_b"]): r["hamming"]
        for r in simhash_near_dup(ds, max_hamming=3).take_all()
    }
    sigs = [SimHasher.simhash64(t) for t in texts]
    want = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            h = hamming_distance(sigs[i], sigs[j])
            if h <= 3:
                want[(i, j)] = h
    assert got == want and len(want) >= 3


def test_brute_force_top_k_matches_numpy(emb_ds):
    from spider_ray.ops.similarity import brute_force_top_k

    tbl = emb_ds.take_all()
    ids = np.array([r["vec_id"] for r in tbl])
    mat = np.array([r["embedding"] for r in tbl], dtype=np.float64)
    queries = mat[:3]
    out = brute_force_top_k(emb_ds, queries, k=5)
    # numpy reference
    mn = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    qn = queries / np.maximum(np.linalg.norm(queries, axis=1, keepdims=True), 1e-12)
    sims = mn @ qn.T
    for qi in range(3):
        expect = [
            int(ids[i])
            for i in sorted(range(len(ids)), key=lambda i: (-round(sims[i, qi], 9), ids[i]))[:5]
        ]
        got = [
            v
            for q, v in zip(out.column("query_id").to_pylist(), out.column("vec_id").to_pylist())
            if q == qi
        ]
        assert got == expect, qi


def test_lsh_top_k_recall(emb_ds):
    from spider_ray.ops.similarity import brute_force_top_k, lsh_top_k

    tbl = emb_ds.take_all()
    mat = np.array([r["embedding"] for r in tbl], dtype=np.float64)
    queries = mat[:2]
    exact = brute_force_top_k(emb_ds, queries, k=5)
    approx = lsh_top_k(emb_ds, queries, k=5, n_planes=4)
    # the query vector itself always lands in its own bucket → top-1 found
    for qi in range(2):
        top1 = [
            v
            for q, v, r in zip(
                approx.column("query_id").to_pylist(),
                approx.column("vec_id").to_pylist(),
                approx.column("rank").to_pylist(),
            )
            if q == qi and r == 1
        ]
        exact1 = [
            v
            for q, v, r in zip(
                exact.column("query_id").to_pylist(),
                exact.column("vec_id").to_pylist(),
                exact.column("rank").to_pylist(),
            )
            if q == qi and r == 1
        ]
        assert top1 == exact1


def test_token_counter_and_quality(docs_ds, ray_session):
    from spider_ray.ops.textstats import QualityScorer, TokenCounter

    out = docs_ds.map_batches(TokenCounter(), batch_format="pyarrow").to_pandas()
    docs = docs_ds.to_pandas()
    joined = out.merge(docs[["doc_id", "text", "n_chars"]], on="doc_id")
    assert (joined["n_chars_x"] == joined["text"].str.len()).all()
    assert (joined["n_tokens"] == joined["text"].str.split().str.len()).all()

    q = docs_ds.map_batches(QualityScorer(), batch_format="pyarrow").to_pandas()
    assert ((q["punct_ratio"] >= 0) & (q["punct_ratio"] <= 1)).all()
    assert ((q["stopword_ratio"] >= 0) & (q["stopword_ratio"] <= 1)).all()


def test_lang_id(ray_session):
    import ray.data

    from spider_ray.ops.textstats import LangId

    ds = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": [1, 2, 3, 4],
                "text": [
                    "the cat is on the mat and it is happy for now",
                    "le chat est dans la maison et il est content pour le moment",
                    "der hund ist ein gutes tier und die katze auch",
                    "xyzzy qwerty",
                ],
            }
        )
    )
    out = ds.map_batches(LangId(), batch_format="pyarrow").to_pandas().set_index("doc_id")
    assert out.loc[1, "lang_pred"] == "en"
    assert out.loc[2, "lang_pred"] == "fr"
    assert out.loc[3, "lang_pred"] == "de"
    assert out.loc[4, "lang_pred"] == "und"


def test_fingerprinter(ray_session):
    import ray.data

    from spider_ray.ops.textstats import Fingerprinter

    a = "some stable document body with enough characters to fingerprint"
    ds = ray.data.from_arrow(pa.table({"doc_id": [1, 2], "text": [a, a + " extra"]}))
    out = ds.map_batches(Fingerprinter(), batch_format="pyarrow").to_pandas()
    fp1, fp2 = out["fingerprint"].tolist()
    assert len(fp1) >= 1
    # shared prefix → overlapping fingerprint hashes
    assert set(fp1) & set(fp2)


def test_multimodal_image_pipeline(ray_session):
    import ray.data

    from spider_ray.ops.multimodal import (
        FrameSampler,
        ImageDecode,
        ImageResize,
        fake_image,
        fake_video,
    )

    items = pa.table(
        {
            "item_id": pa.array([1, 2, 3], pa.int64()),
            "data": pa.array([fake_image(1, 16, 8), fake_image(2, 4, 4), b"not-an-image"], pa.binary()),
        }
    )
    ds = ray.data.from_arrow(items)
    meta = ds.map_batches(ImageDecode(), batch_format="pyarrow", batch_size=32).to_pandas()
    meta = meta.set_index("item_id")
    assert meta.loc[1, "width"] == 16 and meta.loc[1, "height"] == 8
    assert meta.loc[3, "width"] == 0  # undecodable → stub zeros

    resized = ds.map_batches(ImageResize((4, 2)), batch_format="pyarrow").to_pandas()
    payload = resized.set_index("item_id").loc[1, "data"]
    assert payload.startswith(b"FAKEIMG:4x2:")
    assert len(payload) == len(b"FAKEIMG:4x2:") + 8

    video = pa.table(
        {
            "item_id": pa.array([9], pa.int64()),
            "data": pa.array([fake_video([fake_image(i, 2, 2) for i in range(6)])], pa.binary()),
        }
    )
    frames = (
        ray.data.from_arrow(video)
        .map_batches(FrameSampler(stride=2), batch_format="pyarrow")
        .to_pandas()
    )
    assert frames["frame_index"].tolist() == [0, 2, 4]


def test_tumbling_window_counts(ray_session):
    import ray.data

    from spider_ray.ops.windows import tumbling_window_counts

    us = 1_000_000
    # two windows of width 10s: [0,10) holds ts 0,9.999999; [10,20) holds 10
    t = pa.table(
        {
            "ts": pa.array([0, 9_999_999, 10 * us, 15 * us], pa.timestamp("us")),
            "event_type": ["a", "a", "a", "b"],
            "value": [1.25, 2.50, 0.10, 3.00],
        }
    )
    out = (
        tumbling_window_counts(ray.data.from_arrow(t), width_s=10)
        .to_pandas()
        .sort_values(["window_start", "event_type"])
        .reset_index(drop=True)
    )
    assert out["window_start"].tolist() == [0, 10, 10]
    assert out["event_type"].tolist() == ["a", "a", "b"]
    assert out["n_events"].tolist() == [2, 1, 1]
    assert out["sum_value_cents"].tolist() == [375, 10, 300]


def test_sessionize_gap_semantics(ray_session):
    import ray.data

    from spider_ray.ops.windows import sessionize

    us = 1_000_000
    # user 1: gap exactly == gap_s does NOT break (break iff diff > gap);
    # gap_s + 1us does.  user 2: single event.
    t = pa.table(
        {
            "event_id": pa.array([0, 1, 2, 3], pa.int64()),
            "ts": pa.array(
                [0, 30 * us, 60 * us + 1, 5 * us], pa.timestamp("us")
            ),
            "user_id": pa.array([1, 1, 1, 2], pa.int64()),
        }
    )
    out = (
        sessionize(ray.data.from_arrow(t), gap_s=30)
        .to_pandas()
        .sort_values(["user_id", "session_id"])
        .reset_index(drop=True)
    )
    assert out["user_id"].tolist() == [1, 1, 2]
    assert out["session_id"].tolist() == [0, 1, 0]
    assert out["n_events"].tolist() == [2, 1, 1]
    assert out["start_us"].tolist() == [0, 60 * us + 1, 5 * us]
    assert out["end_us"].tolist() == [30 * us, 60 * us + 1, 5 * us]


def test_ivf_top_k_recall(emb_ds, ray_session):
    """IVF-pruned ANN recall vs the exact brute-force baseline."""
    import numpy as np

    from spider_ray.ops.similarity import brute_force_top_k, ivf_top_k

    queries = np.array(
        [r["embedding"] for r in emb_ds.sort("vec_id").limit(5).take_all()],
        dtype=np.float64,
    )
    exact = brute_force_top_k(emb_ds, queries, k=10)
    approx = ivf_top_k(emb_ds, queries, k=10, n_cells=16, nprobe=4)
    ex = {(q, v) for q, v in zip(exact.column("query_id").to_pylist(),
                                 exact.column("vec_id").to_pylist())}
    ap = {(q, v) for q, v in zip(approx.column("query_id").to_pylist(),
                                 approx.column("vec_id").to_pylist())}
    recall = len(ex & ap) / len(ex)
    assert recall >= 0.3  # pruning is real (not scoring everything)...
    assert len(ap) == len(ex)  # ...but every query still fills its k
    qids = sorted({q for q, _ in ap})
    assert qids == [0, 1, 2, 3, 4]


def test_asof_join_events(ray_session):
    import ray.data

    from spider_ray.ops.windows import asof_join_events

    us = 1_000_000
    # user 1: purchase@50 matches view@30 (not view@60); purchase@10 has no
    # prior view -> null match; equality (view@70, purchase@70) DOES match.
    # user 2: views only -> no output rows.  user 3: purchase, no views.
    t = pa.table(
        {
            "event_id": pa.array([0, 1, 2, 3, 4, 5, 6, 7], pa.int64()),
            "ts": pa.array(
                [50 * us, 30 * us, 60 * us, 10 * us, 70 * us, 70 * us, 5 * us, 99 * us],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([1, 1, 1, 1, 1, 1, 2, 3], pa.int64()),
            "event_type": [
                "purchase", "view", "view", "purchase",
                "view", "purchase", "view", "purchase",
            ],
        }
    )
    out = (
        asof_join_events(ray.data.from_arrow(t))
        .to_pandas()
        .sort_values(["user_id", "ts_us"])
        .reset_index(drop=True)
    )
    assert out["event_id"].tolist() == [3, 0, 5, 7]
    assert out["user_id"].tolist() == [1, 1, 1, 3]
    got = [None if v != v else int(v) for v in out["match_event_id"]]
    assert got == [None, 1, 4, None]
    gaps = [None if v != v else int(v) for v in out["gap_us"]]
    assert gaps == [None, 20 * us, 0, None]


def test_host_boilerplate_removal(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import ray.data  # noqa: F401

    from spider_ray.ops.textclean import host_boilerplate_removal

    # host a: "nav" on 3/4 pages (75% >= 10%, >= 2 pages -> boilerplate);
    # "once" on 1 page only -> kept.  host b: "nav" on 1/1 pages -> fails
    # min_pages=2 -> kept.  p4 is all-boilerplate -> clean_text null.
    rows = {
        "url": [
            "http://a/p1", "http://a/p2", "http://a/p3", "http://a/p4",
            "http://b/p1", "http://a/robots.txt",
        ],
        "text": [
            "nav\nbody one\nnav",
            "nav\nonce",
            "body three",
            "nav",
            "nav\nsolo",
            "ignored",
        ],
    }
    pq.write_table(pa.table(rows), tmp_path / "part-0.parquet")
    out = (
        host_boilerplate_removal(str(tmp_path), min_pages=2, pct=10)
        .to_pandas()
        .set_index("url")
    )
    assert len(out) == 5  # robots.txt excluded
    assert out.loc["http://a/p1", "n_lines"] == 3
    assert out.loc["http://a/p1", "n_removed"] == 2  # both nav occurrences
    assert out.loc["http://a/p1", "clean_text"] == "body one"
    assert out.loc["http://a/p2", "clean_text"] == "once"
    assert out.loc["http://a/p3", "n_removed"] == 0
    assert out.loc["http://a/p4", "clean_text"] is None or (
        out.loc["http://a/p4", "clean_text"] != out.loc["http://a/p4", "clean_text"]
    )
    assert out.loc["http://b/p1", "clean_text"] == "nav\nsolo"


def test_host_boilerplate_removal_cogroup_parity(ray_session, tmp_path):
    """The shuffle-by-host cogroup strip (the 10⁸-host path) must produce
    the identical table as the broadcast strip."""
    import pyarrow.parquet as pq

    from spider_ray.ops.textclean import host_boilerplate_removal

    rows = {
        "url": [
            "http://a/p1", "http://a/p2", "http://a/p3", "http://a/p4",
            "http://b/p1", "http://a/robots.txt",
        ],
        "text": [
            "nav\nbody one\nnav",
            "nav\nonce",
            "body three",
            "nav",
            "nav\nsolo",
            "ignored",
        ],
    }
    pq.write_table(pa.table(rows), tmp_path / "part-0.parquet")
    kw = dict(min_pages=2, pct=10)
    want = (
        host_boilerplate_removal(str(tmp_path), strip_mode="broadcast", **kw)
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    got = (
        host_boilerplate_removal(str(tmp_path), strip_mode="cogroup", **kw)
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    assert got.equals(want)


def test_cosine_near_dup_block_pairs_exact(emb_ds, ray_session):
    """Block-pair fan-out (forced multi-block) == single-block exact result."""
    from spider_ray.ops.similarity import cosine_near_dup

    one = (
        cosine_near_dup(emb_ds, threshold=0.3)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    many = (
        cosine_near_dup(emb_ds, threshold=0.3, target_block_rows=64)
        .to_pandas()
        .sort_values(["vec_a", "vec_b"])
        .reset_index(drop=True)
    )
    assert len(one) > 0
    assert many.equals(one)
    # numpy reference on a small slice: exactness, not just self-consistency
    import numpy as np

    rows = emb_ds.take_all()
    ids = np.array([r["vec_id"] for r in rows])
    mat = np.array([r["embedding"] for r in rows], dtype=np.float64)
    mn = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    sims = np.round(mn @ mn.T, 9)
    ii, jj = np.nonzero(sims >= 0.3)
    keep = ids[ii] < ids[jj]
    expect = sorted(zip(ids[ii[keep]].tolist(), ids[jj[keep]].tolist()))
    assert list(zip(one["vec_a"], one["vec_b"])) == expect


def test_cosine_near_dup_bucketed_recall(emb_ds, ray_session):
    """Multi-table LSH bucketed near-dup: subset of exact pairs, identical
    sims on found pairs, high recall with enough tables."""
    from spider_ray.ops.similarity import cosine_near_dup, cosine_near_dup_bucketed

    exact = cosine_near_dup(emb_ds, threshold=0.3).to_pandas()
    approx = cosine_near_dup_bucketed(
        emb_ds, threshold=0.3, n_tables=24, n_planes=3
    ).to_pandas()
    e = {(a, b): s for a, b, s in zip(exact.vec_a, exact.vec_b, exact.cos_sim)}
    a = {(x, y): s for x, y, s in zip(approx.vec_a, approx.vec_b, approx.cos_sim)}
    assert set(a) <= set(e)  # no false positives (exact scoring in-bucket)
    for k, s in a.items():
        assert s == e[k]
    recall = len(a) / max(1, len(e))
    assert recall >= 0.9, recall


def test_ivf_cells_distributed_selection(ray_session):
    """Centroid ids = n_cells smallest Knuth-hash ids, folded from per-block
    partials — verified against the direct sequential computation on a
    deliberately multi-block dataset."""
    import ray

    from spider_ray.ops.similarity import ivf_cells

    rng = np.random.default_rng(3)
    n, dim = 5000, 8
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(n), pa.int64()),
            "embedding": pa.array([r.tolist() for r in rng.normal(size=(n, dim))]),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(16)
    ids, cents = ivf_cells(ds, n_cells=32)
    h = (np.arange(n).astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
    expect = np.sort(np.lexsort((np.arange(n), h))[:32])
    assert np.array_equal(np.asarray(ids), expect)
    assert cents.shape == (32, dim)
    # normalized, ascending-id order
    assert np.allclose(np.linalg.norm(cents, axis=1), 1.0)


def test_pq_top_k_recall_and_batch_invariance(emb_ds, ray_session):
    """PQ-ADC recall vs the exact baseline, plus batch-size invariance of
    the pinned lane-wise distance spec (the reason the spec avoids a GEMM
    identity)."""
    import numpy as np

    from spider_ray.ops.similarity import brute_force_top_k, pq_top_k

    queries = np.array(
        [r["embedding"] for r in emb_ds.sort("vec_id").limit(5).take_all()],
        dtype=np.float64,
    )
    exact = brute_force_top_k(emb_ds, queries, k=10)
    approx = pq_top_k(emb_ds, queries, k=10, m=4, nbits=4)
    ex = {(q, v) for q, v in zip(exact.column("query_id").to_pylist(),
                                 exact.column("vec_id").to_pylist())}
    ap = {(q, v) for q, v in zip(approx.column("query_id").to_pylist(),
                                 approx.column("vec_id").to_pylist())}
    recall = len(ex & ap) / len(ex)
    assert recall >= 0.2  # 16-code 4-subspace compression is lossy...
    assert len(ap) == len(ex)  # ...but every query still fills its k
    # batch-shape invariance: a different block split gives identical rows
    again = pq_top_k(emb_ds.repartition(7), queries, k=10, m=4, nbits=4)
    assert approx.sort_by([("query_id", "ascending"), ("rank", "ascending")]).equals(
        again.sort_by([("query_id", "ascending"), ("rank", "ascending")])
    )


def test_knn_neighbor_ranks_bound():
    """The composite top-k key holds neighbor ranks in 20 bits: a block of
    2**20 ids raises (a check, not an assert that -O strips) instead of
    silently reordering neighbors."""
    import numpy as np

    from spider_ray.ops.similarity import _neighbor_ranks

    assert _neighbor_ranks(np.array([30, 10, 20])).tolist() == [2, 0, 1]
    assert len(_neighbor_ranks(np.arange((1 << 20) - 1))) == (1 << 20) - 1
    with pytest.raises(ValueError, match="2\\*\\*20"):
        _neighbor_ranks(np.arange(1 << 20))


def test_knn_graph_block_invariance(emb_ds, ray_session):
    """Exact k-NN graph must be independent of the block split (the
    block-pair fan-out + coarse co-group top-k is partition-invariant)."""
    from spider_ray.ops.similarity import knn_graph

    def canon(out):
        return out.to_pandas().sort_values(
            ["vec_id", "rank"]).reset_index(drop=True)

    a = canon(knn_graph(emb_ds, k=5))
    b = canon(knn_graph(emb_ds, k=5, target_block_rows=97))
    assert len(a) and a.equals(b)
    # every vector appears with exactly min(k, n-1) neighbors
    n = emb_ds.count()
    counts = a.groupby("vec_id").size()
    assert (counts == min(5, n - 1)).all()
