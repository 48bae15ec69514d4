"""Fetch stage: the corpus join — "the network" is a Parquet web-page table.

This is the engine's analogue of spider's pluggable ``remote_fetcher``
transport (``spider/src/fetcher.rs``, wired ``website.rs:7585-7732``): the
admitted frontier batch is looked up in the corpus by ``url`` and everything
else (tracking, robots, scheduling, extraction) stays in the engine.

The index (``CorpusIndex`` in the driver, ``CorpusIndexPool`` sharded over
actors) splits a wave's urls into read descriptors — one file, the row
groups holding the wanted urls, the urls — and the crawl runs one
fetch+parse task per descriptor (``pipelines.crawl._fetch_parse_task_impl``).

Scale design (10¹⁰-URL layout):
* the corpus is bucketed by ``stable_hash(host) % n_buckets`` and sorted by
  ``url`` inside each bucket — a wave's fetch reads ONLY the row groups that
  hold its urls, then filters to them row by row;
* columns are pruned at the read (``FETCH_COLUMNS``; the golden ``text``
  column is never read — the engine re-extracts from html);
* per-host wave quotas (politeness) bound the per-bucket url-list size, so
  the pushed-down filter stays small even at frontier scale.
"""

from __future__ import annotations

import json
import os

from ..hashing import stable_hash_str
from ..urlnorm import hosts_of_keys_arrow, shard_of_hosts, url_host

FETCH_COLUMNS = ["url", "warc_ts", "html", "status", "content_type"]

# urls per fetch descriptor: small enough that a wave's tasks pack evenly
# across the pool (the tail task bounds wave wall-time), big enough that
# per-task overhead stays <2% of task runtime
_DESC_CHUNK = 2048


def corpus_n_buckets(corpus_dir: str) -> int:
    with open(os.path.join(corpus_dir, "_corpus_manifest.json")) as f:
        return json.load(f)["n_buckets"]


def bucket_of(url: str, n_buckets: int) -> int:
    return stable_hash_str(url_host(url)) % n_buckets


def split_descriptors(lookup: dict, paths: list[str], urls: list[str]):
    """→ (descriptors, missing): ``urls`` grouped by the (file, row group)
    ``lookup`` maps them to.  Each descriptor is one file + the row groups
    holding its wanted urls, chunked at ``_DESC_CHUNK`` urls — the read unit
    of ``pipelines.crawl._fetch_parse_task_impl``; urls not in ``lookup``
    are missing."""
    missing = []
    by_file: dict[int, dict[int, list[str]]] = {}
    for u in urls:
        hit = lookup.get(u)
        if hit is None:
            missing.append(u)
        else:
            by_file.setdefault(hit[0], {}).setdefault(hit[1], []).append(u)
    descriptors = []
    for fi, groups in sorted(by_file.items()):
        chunk_rgs, chunk_urls = [], []
        for rg in sorted(groups):
            chunk_rgs.append(rg)
            chunk_urls.extend(groups[rg])
            if len(chunk_urls) >= _DESC_CHUNK:
                descriptors.append({"path": paths[fi], "row_groups": chunk_rgs, "urls": chunk_urls})
                chunk_rgs, chunk_urls = [], []
        if chunk_urls:
            descriptors.append({"path": paths[fi], "row_groups": chunk_rgs, "urls": chunk_urls})
    return descriptors, missing


def _nonok_rows(tbl, urls, has_flaky):
    """(url, status, location, flaky) for the rows the driver must know about
    without I/O: non-200 (redirect/error chain hops) or transiently flaky.
    Shared by both index builders so their metadata semantics can't drift."""
    flakies = tbl.column("flaky_until").to_pylist() if has_flaky else None
    out = []
    for i, (u, s, loc) in enumerate(
        zip(urls, tbl.column("status").to_pylist(), tbl.column("location").to_pylist())
    ):
        fl = (flakies[i] or 0) if flakies else 0
        if s != 200 or fl > 0:
            out.append((u, s, loc, fl))
    return out


def _fold_nonok(nonok, status_of, location_of, flaky_of):
    for u, s, loc, fl in nonok:
        if s != 200:
            status_of[u] = s
        if loc is not None:
            location_of[u] = loc
        if fl:
            flaky_of[u] = fl


class CorpusIndex:
    """url → (bucket file, row group) index over the corpus, built ONCE per
    crawl by reading only the url column (columnar pruning: ~0.005% of the
    bytes).  Per wave it yields precise row-group read descriptors — later
    waves never re-decode row groups they don't need, and URLs absent from
    the corpus resolve to 404 with ZERO I/O.

    Scale path (10¹⁰ urls): :class:`CorpusIndexPool` holds the same dict
    sharded over actors by host, like the seen shards, with identical lookup
    semantics and the same descriptor split.
    """

    def __init__(self, corpus_dir: str):
        import pyarrow.parquet as pq
        import ray

        self.corpus_dir = corpus_dir
        self.paths: list[str] = []
        b = 0
        while True:
            p = os.path.join(corpus_dir, f"bucket={b:04d}", "part-0.parquet")
            if not os.path.exists(p):
                if b > corpus_n_buckets(corpus_dir):
                    break
                b += 1
                continue
            self.paths.append(p)
            b += 1

        @ray.remote
        def _load(path):
            f = pq.ParquetFile(path)
            names = f.schema_arrow.names
            has_meta = "location" in names
            has_flaky = "flaky_until" in names
            out = []
            nonok = []  # (url, status, location, flaky) for special rows
            for rg in range(f.metadata.num_row_groups):
                cols = ["url"] + (["status", "location"] if has_meta else []) \
                    + (["flaky_until"] if has_flaky else [])
                tbl = f.read_row_group(rg, columns=cols)
                urls = tbl.column("url").to_pylist()
                out.append(urls)
                if has_meta:
                    nonok.extend(_nonok_rows(tbl, urls, has_flaky))
            return out, nonok

        per_file = ray.get([_load.remote(p) for p in self.paths])
        self.lookup: dict[str, tuple[int, int]] = {}
        # redirect/error/flaky metadata: tiny (only special rows) — consulted
        # by the driver's chain resolution with zero row-group I/O per hop.
        # At 10¹⁰ scale this shards with the index (same host-hash routing).
        self.status_of: dict[str, int] = {}
        self.location_of: dict[str, str] = {}
        self.flaky_of: dict[str, int] = {}
        from itertools import repeat

        for fi, (groups, nonok) in enumerate(per_file):
            for rg, urls in enumerate(groups):
                self.lookup.update(zip(urls, repeat((fi, rg))))
            _fold_nonok(nonok, self.status_of, self.location_of, self.flaky_of)

    def meta_get(self, url: str) -> tuple[int, str | None]:
        """(status, location) with zero I/O — redirect-resolution lookup."""
        status = self.status_of.get(url)
        if status is None:
            status = 200 if url in self.lookup else 404
        return status, self.location_of.get(url)

    def meta_get_optimistic(self, url: str) -> tuple[int, str | None]:
        """Same contract as :meth:`CorpusIndexPool.meta_get_optimistic`."""
        return self.status_of.get(url, 200), self.location_of.get(url)

    def contains_batch(self, urls: list[str]) -> dict[str, bool]:
        lk = self.lookup
        return {u: u in lk for u in urls}

    def split(self, urls: list[str]):
        """→ (descriptors, missing) — :func:`split_descriptors`."""
        return split_descriptors(self.lookup, self.paths, urls)


def _make_index_shard_cls():
    import ray

    @ray.remote
    class CorpusIndexShard:
        def __init__(self, shard_id: int):
            self.shard_id = shard_id
            self.lookup: dict[str, tuple[int, int]] = {}

        def load(self, assignment):
            fi, runs = assignment
            for rg, urls in runs:
                for u in urls:
                    self.lookup[u] = (fi, rg)
            return len(self.lookup)

        def contains(self, urls: list[str]) -> list[bool]:
            lk = self.lookup
            return [u in lk for u in urls]

        def split(self, urls: list[str], paths: list[str]):
            return split_descriptors(self.lookup, paths, urls)

    return CorpusIndexShard


_INDEX_SHARD_CLS = None


class CorpusIndexPool:
    """Sharded corpus index: the ``url → (file, row-group)`` lookup lives in
    ``num_shards`` actors routed by host (``urlnorm.shard_of_hosts``, the
    same partitioning as the seen/admission shards) — the driver never holds
    a dict over the whole corpus.

    Build: one loader task per corpus file reads ONLY the url (+status,
    location) columns and ships each shard its url runs directly; the tiny
    non-200 metadata (redirect/error rows — a fraction of a web corpus) is
    aggregated driver-side for zero-I/O redirect-chain resolution.  At 10¹⁰
    scale that metadata shards with the pool too.

    Per wave the driver routes the admitted urls to their shards and gets
    back precise row-group read descriptors + the missing list.
    """

    def __init__(self, corpus_dir: str, num_shards: int = 8):
        import ray

        self.corpus_dir = corpus_dir
        self.num_shards = num_shards
        self.paths: list[str] = []
        b = 0
        while True:
            p = os.path.join(corpus_dir, f"bucket={b:04d}", "part-0.parquet")
            if not os.path.exists(p):
                if b > corpus_n_buckets(corpus_dir):
                    break
                b += 1
                continue
            self.paths.append(p)
            b += 1
        global _INDEX_SHARD_CLS
        if _INDEX_SHARD_CLS is None:
            _INDEX_SHARD_CLS = _make_index_shard_cls()
        self.shards = [_INDEX_SHARD_CLS.remote(i) for i in range(num_shards)]

        @ray.remote(num_returns=num_shards + 1)
        def _load(fi, path, n_shards):
            import numpy as np
            import pyarrow.compute as pc
            import pyarrow.parquet as pq

            f = pq.ParquetFile(path)
            has_meta = "location" in f.schema_arrow.names
            per_shard: list[list[tuple[int, list[str]]]] = [[] for _ in range(n_shards)]
            nonok = []
            has_flaky = "flaky_until" in f.schema_arrow.names
            for rg in range(f.metadata.num_row_groups):
                cols = ["url"] + (["status", "location"] if has_meta else []) \
                    + (["flaky_until"] if has_flaky else [])
                tbl = f.read_row_group(rg, columns=cols)
                url_arr = tbl.column("url")
                shard_idx = shard_of_hosts(hosts_of_keys_arrow(pc.utf8_lower(url_arr)), n_shards)
                urls = url_arr.to_pylist()
                for s in range(n_shards):
                    pos = np.nonzero(shard_idx == s)[0]
                    if len(pos):
                        per_shard[s].append((rg, [urls[i] for i in pos]))
                if has_meta:
                    nonok.extend(_nonok_rows(tbl, urls, has_flaky))
            return (*[(fi, ps) for ps in per_shard], nonok)

        accept_futs = []
        nonok_refs = []
        for fi, path in enumerate(self.paths):
            refs = _load.remote(fi, path, num_shards)
            for s in range(num_shards):
                accept_futs.append(self.shards[s].load.remote(refs[s]))
            nonok_refs.append(refs[-1])
        self.status_of: dict[str, int] = {}
        self.location_of: dict[str, str] = {}
        self.flaky_of: dict[str, int] = {}
        for nonok in ray.get(nonok_refs):
            _fold_nonok(nonok, self.status_of, self.location_of, self.flaky_of)
        ray.get(accept_futs)

    def meta_get_optimistic(self, url: str) -> tuple[int, str | None]:
        """(status, location) from the driver-held non-200 metadata;
        unknown urls report 200 (existence resolved later by a batched
        shard lookup — ``contains_batch``)."""
        return self.status_of.get(url, 200), self.location_of.get(url)

    def _route(self, urls: list[str]):
        """Host routing (``shard_of_hosts``, vectorized: Arrow regex +
        hashing once per unique host) → the urls of each shard."""
        import numpy as np
        import pyarrow as pa
        import pyarrow.compute as pc

        if not urls:
            return [[] for _ in range(self.num_shards)]
        hosts = hosts_of_keys_arrow(pc.utf8_lower(pa.array(urls, pa.string())))
        shard_idx = shard_of_hosts(hosts, self.num_shards)
        buckets: list[list[str]] = []
        for s in range(self.num_shards):
            pos = np.nonzero(shard_idx == s)[0]
            buckets.append([urls[i] for i in pos])
        return buckets

    def contains_batch(self, urls: list[str]) -> dict[str, bool]:
        import ray

        buckets = self._route(urls)
        futs = [
            (bucket, self.shards[s].contains.remote(bucket))
            for s, bucket in enumerate(buckets)
            if bucket
        ]
        out: dict[str, bool] = {}
        for bucket, fut in futs:
            for u, hit in zip(bucket, ray.get(fut)):
                out[u] = hit
        return out

    def split(self, urls: list[str]):
        """→ (descriptors, missing) — the shards each split their routed
        subset; the driver concatenates."""
        import ray

        buckets = self._route(urls)
        futs = [
            self.shards[s].split.remote(bucket, self.paths)
            for s, bucket in enumerate(buckets)
            if bucket
        ]
        descriptors: list[dict] = []
        missing: list[str] = []
        for descs, miss in ray.get(futs):
            descriptors.extend(descs)
            missing.extend(miss)
        return descriptors, missing

    def shutdown(self) -> None:
        import ray

        for s in self.shards:
            ray.kill(s)
        self.shards = []
