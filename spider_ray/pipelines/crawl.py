"""Distributed wave crawl over a bucketed Parquet corpus.

Architecture (SURVEY.md §7.0): one crawl = repeated application of a wave
step, with small stateful services:

* seen/admission shards (set + bloom)             — visited membership:
  ``min(8, cluster CPUs)`` actors, or in the driver on a one-CPU session
* driver-held ``Budget`` + per-host politeness    — inherently ordered fold
  (metadata-only, mirroring spider's driver-held ``Website`` state)
* everything heavy — the corpus-join fetch, HTML parse / link extraction /
  text extraction / signature — is one stateless Ray task per corpus
  descriptor (``_fetch_parse_task_impl``); ``html`` never leaves the task.

Two wave executors share that fetch+parse (``RayCrawler._fetch_parse``):

* ``_run_fast_sharded`` — every simple config (no budget, robots,
  politeness, filters, round-robin, hooks or queue): the admission fold runs
  shard-local in the ``AdmissionPool``;
* ``run()`` — the ordered driver fold for everything else.

``run_streaming`` (``HostGate`` per-host frontier) is a third, opt-in
executor.  Per wave::

    admitted urls ──CorpusIndex.split──▶ descriptors ──task: read row groups + ParsePages──▶ pages
        ▲                                                  │ (writes out_dir/wave_k/part-*.parquet)
        │                                                  ▼
    admission fold (AdmissionPool / waves.admit_wave) ◀── url + signature + links
        │
        └────────── checkpoint (frontier/seen/budget/metrics)

Checkpoint layout (resume = load latest complete wave; per-partition lineage),
one writer (``RayCrawler._ckpt_wave``) for every executor::

    ckpt_dir/
      manifest.json                  {wave, num_seen_shards, config_hash, redirect state}
      wave_{k}/frontier.parquet      next-wave candidates: (url, priority) from the
                                     ordered fold; url only from the sharded executor
                                     (priority is a function of the url)
      wave_{k}/deferred.parquet      politeness carry-over (ordered fold only)
      wave_{k}/seen/shard_{s}.parquet  urls first seen in wave k (incremental); resume
                                     reads every shard file and re-routes each key by
                                     host, so the file a key sits in does not matter
      wave_{k}/budget.json           budget counters + signature set
      wave_{k}/metrics.json
    out_dir/wave_{k}/part-{i}.parquet  parsed pages of descriptor i (wave lineage column)
    out_dir/wave_{k}/missing.parquet   synthetic 404 / redirect-error / flaky rows
"""

from __future__ import annotations

import glob
import json
import os
import shutil
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from ..config import CrawlJob
from ..frontier import score_url
from ..oracle import load_robots
from ..semantics import Budget, depth_distance_for
from ..stages.fetch import corpus_n_buckets
from ..stages.parse import ParsePages, missing_rows
from ..hashing import SigSet
from ..urlnorm import hosts_of_keys_arrow, shard_of_hosts, url_host
from ..waves import admit_wave, gate_links_by_signature, order_candidates
from .. import oracle as _oracle


@dataclass
class CrawlResult:
    visited: list[str] = field(default_factory=list)
    admitted_order: list[tuple[int, int, str]] = field(default_factory=list)
    pages_tables: list[pa.Table] = field(default_factory=list)
    metrics: list[dict] = field(default_factory=list)
    out_dir: str | None = None
    seen_keys: set[str] = field(default_factory=set)  # authoritative final seen set
    stopped: bool = False  # True when a CrawlControl shutdown ended the crawl
    seen_shards: int = 0  # seen/admission shards used; 1 = held in the driver

    @property
    def visited_set(self) -> set[str]:
        return {u.lower() for u in self.visited}

    def pages_table(self) -> pa.Table:
        return pa.concat_tables(self.pages_tables) if self.pages_tables else None


def _first_seen_mask_np(arr):
    """First-occurrence mask over a numpy array (integer keys)."""
    import numpy as np

    _, first_idx = np.unique(arr, return_index=True)
    keep = np.zeros(len(arr), dtype=bool)
    keep[first_idx] = True
    return keep


def _sig_fresh_and_update(signatures, sig_in_order):
    """Cross-wave freshness mask (True = signature unseen in prior waves),
    then fold this wave's signatures into the set.  Vectorized searchsorted
    when ``signatures`` is a :class:`~spider_ray.hashing.SigSet`; falls back
    to np.isin for a plain ``set`` (direct callers in tests)."""
    import numpy as np

    if hasattr(signatures, "fresh_mask"):
        fresh = signatures.fresh_mask(sig_in_order)
        signatures.update_array(sig_in_order)
        return fresh
    if signatures:
        fresh = ~np.isin(
            sig_in_order, np.fromiter(signatures, dtype=np.uint64, count=len(signatures))
        )
    else:
        fresh = np.ones(len(sig_in_order), dtype=bool)
    signatures.update(np.unique(sig_in_order).tolist())
    return fresh


def _first_seen_mask(keys) -> "object":
    """First-occurrence boolean mask over a string array (keep=True), pure
    Arrow+numpy: dictionary-encode (C++ hash table) then first index per
    code — no pandas hop on the frontier hot path."""
    import numpy as np
    import pyarrow.compute as pc

    encoded = pc.dictionary_encode(keys)
    if isinstance(encoded, pa.ChunkedArray):
        encoded = encoded.combine_chunks()
    codes = encoded.indices.to_numpy(zero_copy_only=False)
    _, first_idx = np.unique(codes, return_index=True)
    keep = np.zeros(len(codes), dtype=bool)
    keep[first_idx] = True
    return keep


def _fetch_parse_task_impl(desc, parser, columns, out_path):
    """One corpus descriptor → fused row-group read + parse → page block,
    the crawl's one fetch+parse (see ``RayCrawler._fetch_parse``).  Writes
    the full block to ``out_path`` when given, and returns only ``columns``
    (all of them when None)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from ..stages.fetch import FETCH_COLUMNS

    f = pq.ParquetFile(desc["path"])
    cols = [c for c in FETCH_COLUMNS if c in f.schema_arrow.names]
    tbl = f.read_row_groups(list(desc["row_groups"]), columns=cols)
    mask = pc.is_in(tbl.column("url"), value_set=pa.array(desc["urls"], pa.string()))
    parsed = parser(tbl.filter(mask))
    if out_path is not None:
        pq.write_table(parsed, out_path)
    return parsed if columns is None else parsed.select(columns)


def _iter_allowed_blocks(blocks, allowed_ranks):
    """Yield (block_ref, rows, ranks, keep_mask) for fetched blocks with at
    least one link-expanding page (searchsorted membership vs the sorted
    allowed-rank array)."""
    import numpy as np

    for block_ref, rows, ranks, _sigs in blocks:
        if block_ref is None or len(ranks) == 0:
            continue
        if len(allowed_ranks):
            idx = np.searchsorted(allowed_ranks, ranks)
            np.minimum(idx, len(allowed_ranks) - 1, out=idx)
            mask = allowed_ranks[idx] == ranks
        else:
            mask = np.zeros(len(ranks), dtype=bool)
        if mask.any():
            yield block_ref, rows, ranks, mask


_FETCH_PARSE_TASK = None


def _fetch_parse_task_remote():
    global _FETCH_PARSE_TASK
    if _FETCH_PARSE_TASK is None:
        import ray

        _FETCH_PARSE_TASK = ray.remote(_fetch_parse_task_impl)
    return _FETCH_PARSE_TASK


def _flatten_block_sharded_impl(tbl, local_rows, ranks, num_shards):
    """Worker-side candidate flatten: allowed rows' links → (url, key, rank)
    with local first-push dedup.  rank = (page admitted-rank << 21) | doc
    position — a total order identical to the sequential first-push walk.
    The rows are split by host (``shard_of_hosts``) so each part ships
    STRAIGHT to its AdmissionShard (the driver only ever touches object
    refs).  Returns ``num_shards`` tables (None when empty) + the raw
    candidate count."""
    import numpy as np
    import pyarrow.compute as pc

    links = tbl.column("links").combine_chunks().take(pa.array(local_rows, pa.int64()))
    flat = pc.list_flatten(links)
    total = len(flat)
    if total == 0:
        return tuple([None] * num_shards) + (0,)
    lens = pc.list_value_length(links).to_numpy(zero_copy_only=False).astype(np.int64)
    page_rank_rep = np.repeat(np.asarray(ranks, dtype=np.int64), lens)
    starts = np.repeat(np.cumsum(lens) - lens, lens)
    doc_pos = np.arange(total, dtype=np.int64) - starts
    rank64 = (page_rank_rep << 21) | np.minimum(doc_pos, (1 << 21) - 1)
    order = np.argsort(rank64, kind="stable")
    flat = flat.take(pa.array(order, pa.int64()))
    rank64 = rank64[order]
    keys = pc.utf8_lower(flat)
    keep = _first_seen_mask(keys)
    mask = pa.array(keep)
    out = pa.table(
        {
            "url": flat.filter(mask),
            "key": keys.filter(mask),
            "rank": pa.array(rank64[keep], pa.int64()),
        }
    )
    if num_shards == 1:
        return out, total
    shard_idx = shard_of_hosts(hosts_of_keys_arrow(out.column("key")), num_shards)
    parts = []
    for s in range(num_shards):
        pos = np.nonzero(shard_idx == s)[0]
        parts.append(out.take(pa.array(pos, pa.int64())) if len(pos) else None)
    return (*parts, total)


_FLATTEN_SHARDED_REMOTE: dict[int, object] = {}


def _flatten_sharded_remote(num_shards: int):
    if num_shards not in _FLATTEN_SHARDED_REMOTE:
        import ray

        _FLATTEN_SHARDED_REMOTE[num_shards] = ray.remote(num_returns=num_shards + 1)(
            _flatten_block_sharded_impl
        )
    return _FLATTEN_SHARDED_REMOTE[num_shards]


from ..htmlparse import hash_html as _hash_html  # noqa: E402

_EMPTY_SIG = _hash_html("")


def _pairs_table(pairs) -> pa.Table:
    """The ordered fold's (url, priority) pairs as a checkpoint frontier /
    deferred table."""
    return pa.table({
        "url": pa.array([u for u, _ in pairs], pa.string()),
        "priority": pa.array([p for _, p in pairs], pa.int32()),
    })


def _atomic_write_json(path: str, obj) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


class RayCrawler:
    """Driver for one crawl job over a bucketed Parquet corpus."""

    def __init__(
        self,
        job: CrawlJob,
        corpus_dir: str,
        out_dir: str | None = None,
        ckpt_dir: str | None = None,
        num_seen_shards: int | None = None,
        keep_pages: bool = True,
        collect_seen: bool = False,
        queue_provider=None,
        adaptive_politeness: bool = False,
        index_mode: str = "auto",  # "auto" | "driver" | "pooled"
        seen_spill_threshold: int | None = None,
        control=None,  # CrawlControl: pause/resume/shutdown at wave barriers
    ) -> None:
        self.job = job
        self.config = job.config
        self.corpus_dir = corpus_dir
        self.out_dir = out_dir
        self.ckpt_dir = ckpt_dir
        # None = resolved per crawl (_resolve_seen_shards); the resolved
        # count is kept in num_seen_shards
        self._requested_seen_shards = num_seen_shards
        self.num_seen_shards = num_seen_shards
        self.keep_pages = keep_pages
        self.collect_seen = collect_seen
        self.queue_provider = queue_provider
        # streaming mode only: latency-EMA auto-throttle + 429 token-bucket
        # penalties inside the HostGate shards (state/throttle.py).  Off by
        # default — wall-clock dependent, outside the deterministic parity
        # contract.
        self.adaptive_politeness = adaptive_politeness
        self.index_mode = index_mode
        # per-shard in-heap key cap before the seen set spills to sorted
        # digest runs on disk (state/spillseen.py — the 10¹⁰-URL tier).
        # Spilled shards cannot dump() original strings, so seen collection
        # is disabled when a threshold is set.
        self.seen_spill_threshold = seen_spill_threshold
        if seen_spill_threshold is not None:
            self.collect_seen = False
        self.control = control
        self.frontier_ops = 0  # candidate URLs processed (bench metric)
        self._index = None  # CorpusIndex, built lazily at first wave
        # redirect state: crawl-global resolver (Strict initial allowance) +
        # the live job (gains seed_redirects after a cross-host seed redirect)
        from ..redirect import RedirectResolver

        self._resolver = RedirectResolver(self.config)
        self._live_job = job
        self._router_cache = None
        self._index_pool = None  # CorpusIndexPool (sharded/streaming paths)

    def _control_stop(self, wave: int) -> bool:
        """Wave-barrier control point (handle_process, website.rs:7891):
        blocks while paused; True = shutdown requested."""
        return self.control is not None and self.control.checkpoint(wave) == "shutdown"

    #: corpora above this row count index through the sharded actor pool
    #: (driver memory stays flat); below it the driver dict is faster —
    #: per-wave shard round-trips cost more than the dict saves.
    POOLED_INDEX_ROWS = 20_000_000

    def _index_pool_get(self):
        """Scale-adaptive corpus index for the wave fetch: a sharded
        CorpusIndexPool once the corpus outgrows a single driver dict
        (``index_mode='pooled'`` forces it; ``'driver'`` forces the dict)."""
        if self._index_pool is not None:
            return self._index_pool
        mode = self.index_mode
        if mode == "auto":
            rows = 0
            try:
                with open(os.path.join(self.corpus_dir, "_corpus_manifest.json")) as f:
                    rows = json.load(f).get("rows") or 0
            except OSError:
                pass
            mode = "pooled" if rows > self.POOLED_INDEX_ROWS else "driver"
        if mode == "pooled":
            from ..stages.fetch import CorpusIndexPool

            self._index_pool = CorpusIndexPool(self.corpus_dir, self.num_seen_shards)
        else:
            from ..stages.fetch import CorpusIndex

            if self._index is None:
                self._index = CorpusIndex(self.corpus_dir)
            self._index_pool = self._index
        return self._index_pool

    def _router(self):
        if self._router_cache is None:
            self._router_cache = _oracle.ScopeRouter(self._live_job)
        return self._router_cache

    def _resolve_wave(self, admitted: list[str], wave: int, index):
        """Driver-side redirect resolution for one wave (metadata-only, zero
        row-group I/O: chains walk the driver-held non-200 metadata, then
        ONE batched existence lookup covers every chain terminal).  Returns
        (fetch_urls, backmap, targets_only, synth) where synth entries are
        (requested_url, status, final_redirect_destination) rows with no
        fetchable content (aborted chains / chains onto missing targets)."""
        from ..redirect import REDIRECT_ERROR_STATUS

        loc_of = index.location_of
        flaky_of = getattr(index, "flaky_of", {})
        follow = bool(loc_of) and self._resolver.policy != "none"
        if not follow and not flaky_of:
            return admitted, {}, frozenset(), []
        router = self._router()
        fetch: list[str] = []
        pending: list[tuple[str, str]] = []  # (requested, final) awaiting existence
        backmap: dict[str, list[str]] = {}
        synth: list[tuple[str, int, str | None]] = []
        seed_redirs: list[tuple[str, str]] = []
        for u in admitted:
            if not follow or u not in loc_of:
                fetch.append(u)
                continue
            _, root = router.for_host(url_host(u))
            crawl_host = url_host(root) if root else url_host(u)
            res = self._resolver.resolve(u, index.meta_get_optimistic, crawl_host)
            if res.error:
                synth.append((u, REDIRECT_ERROR_STATUS, None))
                continue
            final = res.final_url
            if (
                wave == 0
                and u in self._live_job.seeds
                and res.destination is not None
                and url_host(final) != url_host(u)
            ):
                seed_redirs.append((u, final))
            if final == u:
                fetch.append(u)
            else:
                pending.append((u, final))
        if pending:
            exists = index.contains_batch(sorted({f for _, f in pending}))
            for u, final in pending:
                if exists.get(final):
                    backmap.setdefault(final, []).append(u)
                else:
                    synth.append((u, 404, final))
        if seed_redirs:
            self._live_job = self._live_job.with_seed_redirects(
                self._live_job.seed_redirects + tuple(seed_redirs)
            )
            self._router_cache = None
        if flaky_of:
            # transient-failure gate on the terminal fetch urls: flaky_until
            # failing attempts vs the retry budget of retry+1 attempts
            # (website.rs:4205-4253; 503 is retryable per page.rs:1641-1653)
            from ..functions.retry import is_retryable_status

            retry_budget = self.config.retry

            def fails(url: str) -> bool:
                f = flaky_of.get(url, 0)
                return f > retry_budget and is_retryable_status(503)

            kept = []
            for u in fetch:
                if fails(u):
                    synth.append((u, 503, None))
                else:
                    kept.append(u)
            fetch = kept
            for final in [f for f in backmap if fails(f)]:
                for requested in backmap.pop(final):
                    synth.append((requested, 503, final))
        targets_only = frozenset(set(backmap) - set(fetch))
        return fetch, backmap, targets_only, synth

    # -- corpus-side helpers -------------------------------------------------

    def _robots(self):
        """robots.txt lookup straight from the corpus (tiny, driver-side —
        a ``RobotsCache`` actor pool shard at 10¹⁰ scale, SURVEY.md §2.3)."""
        import pyarrow.dataset as pads

        config = self.config
        roots = [r for _, r in _oracle.ScopeRouter(self.job).entries if r]
        if not config.respect_robots_txt or not roots:
            return {}, {}
        urls = [r + "robots.txt" for r in roots]
        n_buckets = corpus_n_buckets(self.corpus_dir)
        from ..stages.fetch import bucket_of

        paths = []
        for u in urls:
            p = os.path.join(self.corpus_dir, f"bucket={bucket_of(u, n_buckets):04d}", "part-0.parquet")
            if os.path.exists(p) and p not in paths:
                paths.append(p)
        found: dict[str, tuple[int, bytes]] = {}
        if paths:
            import pyarrow.compute as pc

            tbl = pads.dataset(paths).to_table(
                columns=["url", "html", "status"], filter=pc.field("url").isin(urls)
            )
            for u, h, s in zip(
                tbl.column("url").to_pylist(),
                tbl.column("html").to_pylist(),
                tbl.column("status").to_pylist(),
            ):
                found[u] = (s, h)

        def corpus_get(url):
            return found.get(url, (404, None))

        return load_robots(corpus_get, config, roots)

    # -- checkpointing -------------------------------------------------------

    def _ckpt_wave(self, wave, frontier, deferred, budget, signatures, seen, metrics):
        """Write wave ``wave``'s checkpoint — the one writer of every
        executor.  ``frontier`` / ``deferred`` are tables
        (:func:`_pairs_table`); the sharded executor passes a url-only
        frontier (priorities are a function of the url, recomputed on
        resume) and ``deferred=None`` (no file)."""
        if not self.ckpt_dir:
            return
        wdir = os.path.join(self.ckpt_dir, f"wave_{wave:05d}")
        os.makedirs(os.path.join(wdir, "seen"), exist_ok=True)
        pq.write_table(frontier, os.path.join(wdir, "frontier.parquet"))
        if deferred is not None:
            pq.write_table(deferred, os.path.join(wdir, "deferred.parquet"))
        for s, inc in enumerate(seen.checkpoint_increments()):
            pq.write_table(
                pa.table({"url_norm": inc, "wave": pa.array([wave] * len(inc), pa.int32())}),
                os.path.join(wdir, "seen", f"shard_{s:03d}.parquet"),
            )
        _atomic_write_json(
            os.path.join(wdir, "budget.json"),
            {"budget": budget.snapshot(), "signatures": sorted(signatures)},
        )
        _atomic_write_json(os.path.join(wdir, "metrics.json"), metrics)
        _atomic_write_json(
            os.path.join(self.ckpt_dir, "manifest.json"),
            {"wave": wave, "num_seen_shards": self.num_seen_shards,
             "config_hash": self._config_hash(), **self._redirect_state()},
        )

    def _redirect_state(self) -> dict:
        """Redirect state that only materializes live at wave 0 and must
        survive a resume: cross-host seed redirects (the rebuilt scope
        selectors, ``modify_selectors``) and the Strict resolver's crawl-global
        initial allowance counter."""
        return {
            "seed_redirects": [list(t) for t in self._live_job.seed_redirects],
            "redirect_initial_used": self._resolver.initial_used,
        }

    def _restore_redirect_state(self, manifest: dict) -> None:
        redirs = tuple((a, b) for a, b in manifest.get("seed_redirects") or ())
        if redirs:
            self._live_job = self._live_job.with_seed_redirects(
                redirs + tuple(t for t in self._live_job.seed_redirects if t not in redirs)
            )
            self._router_cache = None
        self._resolver.initial_used = int(manifest.get("redirect_initial_used") or 0)

    def _config_hash(self) -> str:
        """Deterministic hash of everything that shapes checkpoint layout:
        the job (seeds + frozen config repr), shard count, and which executor
        wrote it (``_simple_config``: whether frontier priorities and the
        deferred file are stored).  Shard routing is no input: every executor
        routes seen keys by host, and resume re-routes whatever the shard
        files hold.  The inputs are unchanged from when the executors routed
        differently, so those checkpoints still match.  Hook callables are
        hashed by qualname (function reprs carry memory addresses that change
        between runs)."""
        import hashlib
        from dataclasses import replace as _rep

        cfg = self.config
        hook_names = tuple(
            getattr(h, "__qualname__", repr(type(h))) if h is not None else None
            for h in (cfg.on_link_find, cfg.on_should_crawl)
        )
        # frozenset iteration order is hash-randomized per process; canonicalize
        # to a sorted tuple so the hash is stable across CLI invocations.
        sanitized = _rep(
            cfg,
            on_link_find=None,
            on_should_crawl=None,
            external_domains=tuple(sorted(cfg.external_domains)),
        )
        payload = repr(
            (self.job.seeds, sanitized, hook_names, self.num_seen_shards, self._simple_config())
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _resolve_seen_shards(self, resume: bool) -> int:
        """Fix this crawl's seen/admission shard count: an explicit
        ``num_seen_shards``; else, on resume, the checkpoint's own count (its
        seen files are routed by it, so a checkpoint moves between session
        sizes); else ``min(8, cluster CPUs)``.  One shard keeps the seen state
        in the driver.  An explicit count that disagrees with the checkpoint
        fails the config-hash check in :meth:`_find_resume_manifest`."""
        from ..poolsize import seen_shards

        n = self._requested_seen_shards
        if n is None and resume:
            n = (self._read_manifest() or {}).get("num_seen_shards")
        self.num_seen_shards = n if n is not None else seen_shards()
        return self.num_seen_shards

    def _read_manifest(self) -> dict | None:
        if not self.ckpt_dir:
            return None
        mpath = os.path.join(self.ckpt_dir, "manifest.json")
        if not os.path.exists(mpath):
            return None
        with open(mpath) as f:
            return json.load(f)

    def _find_resume_manifest(self) -> dict | None:
        manifest = self._read_manifest()
        if manifest is None:
            return None
        stored = manifest.get("config_hash")
        if stored is not None and stored != self._config_hash():
            raise ValueError(
                "checkpoint config mismatch: the checkpoint at "
                f"{self.ckpt_dir} was written under a different config, shard "
                "count or executor; start a fresh ckpt_dir or restore the "
                "original config"
            )
        return manifest

    def _restore(self, upto_wave: int, seen, budget, signatures, result: CrawlResult):
        """Rebuild state from checkpoints of waves 0..upto_wave."""
        manifest = self._read_manifest()
        if manifest is not None:
            self._restore_redirect_state(manifest)
        keys: list[str] = []
        for w in range(upto_wave + 1):
            for p in sorted(glob.glob(os.path.join(
                self.ckpt_dir, f"wave_{w:05d}", "seen", "shard_*.parquet"
            ))):
                keys.extend(pq.read_table(p).column("url_norm").to_pylist())
        # the facade routes each key to its host's shard: a checkpoint's file
        # index is not trusted (an ordered-fold checkpoint written while that
        # executor routed by url key holds keys in other shards' files)
        seen.restore(keys)
        wdir = os.path.join(self.ckpt_dir, f"wave_{upto_wave:05d}")
        with open(os.path.join(wdir, "budget.json")) as f:
            b = json.load(f)
        budget.restore(b["budget"])
        signatures.update(b["signatures"])
        with open(os.path.join(wdir, "metrics.json")) as f:
            result.metrics.extend(json.load(f))
        cand = pq.read_table(os.path.join(wdir, "frontier.parquet"))
        urls = cand.column("url").to_pylist()
        prios = (
            cand.column("priority").to_pylist()
            if "priority" in cand.column_names
            else [0] * len(urls)
        )
        candidates = list(zip(urls, prios))
        deferred_l: list[tuple[str, int]] = []
        dpath = os.path.join(wdir, "deferred.parquet")
        if os.path.exists(dpath):
            deferred = pq.read_table(dpath)
            deferred_l = list(
                zip(deferred.column("url").to_pylist(), deferred.column("priority").to_pylist())
            )
        return candidates, deferred_l

    # -- fetch + parse -------------------------------------------------------

    def _fetch_parse(self, urls: list[str], wave: int, columns, pages, on_block=None):
        """The crawl's one fetch+parse, shared by every executor: redirect
        resolution, one raw Ray task per corpus descriptor
        (``_fetch_parse_task_impl``: fused row-group read + parse), then
        the synthetic rows of urls with no fetchable content (404 /
        redirect-error / flaky).

        Raw tasks rather than a per-wave Dataset by design: a wave is a
        micro-batch with a barrier, and Ray Data's streaming executor costs
        ~0.5 s of startup per execution (measured on an empty 150-block
        wave) — ~2 s/crawl of pure overhead at any CPU count.  The parser
        ships ONCE per wave via ray.put, and ``concurrency_limit`` (the
        worker-permit cap, configuration.rs:478) bounds the tasks in flight.

        ``columns`` are the columns the executor reads; with ``keep_pages``
        every column comes back and the wave's rows are appended to
        ``pages``.  With ``out_dir`` each task writes its full block to
        ``out_dir/wave_k/part-{i}.parquet`` (``i`` = descriptor index) and
        the synthetic rows go to ``missing.parquet``; the wave's directory is
        cleared first, so a re-run wave replaces its pages.
        ``on_block(ref, table)`` sees each block as its task completes
        (``ref`` None for the synthetic rows), overlapping driver work with
        the remaining tasks.

        → the wave's rows (task blocks in submission order, synthetic rows
        last), or None when there are none."""
        import ray

        index = self._index_pool_get()
        fetch_urls, backmap, targets_only, synth = self._resolve_wave(urls, wave, index)
        descriptors, missing = index.split(fetch_urls + list(backmap.keys() - set(fetch_urls)))
        if self.keep_pages:
            columns = None
        wdir = None
        if self.out_dir:
            wdir = os.path.join(self.out_dir, f"wave_{wave:05d}")
            shutil.rmtree(wdir, ignore_errors=True)
            os.makedirs(wdir)
        tables: list = [None] * len(descriptors)
        if descriptors:
            # text only for pages that are kept or written, or that an
            # on_should_crawl hook reads
            want_text = (
                self.keep_pages or wdir is not None or self.config.on_should_crawl is not None
            )
            parser_ref = ray.put(
                ParsePages(self._live_job, wave, backmap, targets_only, want_text=want_text)
            )
            task = _fetch_parse_task_remote()
            pos_of: dict = {}

            def submit(i: int):
                out = None if wdir is None else os.path.join(wdir, f"part-{i:05d}.parquet")
                ref = task.remote(descriptors[i], parser_ref, columns, out)
                pos_of[ref] = i
                return ref

            window = self.config.concurrency_limit or len(descriptors)
            pending = [submit(i) for i in range(min(window, len(descriptors)))]
            while pending:
                done, pending = ray.wait(pending, num_returns=1)
                if len(pos_of) < len(descriptors):
                    pending.append(submit(len(pos_of)))
                for ref in done:
                    # same-node ray.get of an Arrow block is zero-copy (plasma mmap)
                    tables[pos_of[ref]] = tbl = ray.get(ref)
                    if on_block is not None:
                        on_block(ref, tbl)
        synth_all = [(u, 404, None) for u in missing] + synth
        if synth_all:
            tbl = missing_rows(
                [u for u, _, _ in synth_all],
                wave,
                statuses=[s for _, s, _ in synth_all],
                destinations=[d for _, _, d in synth_all],
            )
            if self.config.normalize:
                tbl = tbl.set_column(
                    tbl.schema.get_field_index("signature"),
                    "signature",
                    pa.array([_EMPTY_SIG] * len(synth_all), pa.uint64()),
                )
            if wdir is not None:
                pq.write_table(tbl, os.path.join(wdir, "missing.parquet"))
            if columns is not None:
                tbl = tbl.select(columns)
            tables.append(tbl)
            if on_block is not None:
                on_block(None, tbl)
        if not tables:
            return None
        tbl = pa.concat_tables(tables)
        if self.keep_pages:
            pages.append(tbl)
        return tbl

    def _simple_config(self) -> bool:
        """True when admission is order-independent (no budget, politeness,
        robots, filters, or round-robin) — the common web-scale case.  Such
        crawls run in the sharded executor, which produces EXACTLY the same
        admitted set and canonical order as the sequential fold
        (parity-tested)."""
        c = self.config
        return (
            c.budget is None
            and c.delay_ms == 0
            and not c.respect_robots_txt
            and not c.whitelist
            and not c.blacklist
            and not c.round_robin
            and not c.extra_links
            and c.on_link_find is None
            and c.on_should_crawl is None
            and self.queue_provider is None
        )

    # -- sharded admission (the simple-config executor) ----------------------

    def _fetch_parse_ranked(self, admitted: list[str], wave: int, pages):
        """Fetch+parse for the sharded and streaming executors, mapping each
        block to admitted ranks as its task completes — concurrently with the
        remaining tasks, so the post-barrier gate left on the driver is pure
        numpy over (rank, sig) pairs.  Only the url/signature columns are
        touched here; the link columns stay in the object store.

        Returns ``blocks``: list of (block_ref | None, fetched_rows np.int64,
        ranks np.int64, sigs np.uint64 | None) — block_ref None for the
        synthetic rows, which carry signatures but no links."""
        import numpy as np

        rank_of = dict(zip(admitted, range(len(admitted))))
        normalize = self.config.normalize
        blocks: list[tuple] = []

        def on_block(block_ref, tbl):
            # NOTE (round-3, measured): moving this rank loop into the fetch
            # tasks LOSES — a wave-sized rank dict in the shared ray.put
            # costs +54% wall at 4 CPUs (per-task unpickle), and
            # per-descriptor rank slices cost +10-34% at 4-16 CPUs
            # (driver-serial per-task pickling).  The loop below is
            # ~2.5 s/crawl at 8 CPUs — cheaper than every ship-it-to-workers
            # variant tried.
            if tbl.num_rows == 0:
                return
            urls = tbl.column("url").to_pylist()
            ranks_all = np.fromiter(
                (rank_of.get(u, -1) for u in urls), dtype=np.int64, count=len(urls)
            )
            rows = np.nonzero(ranks_all >= 0)[0].astype(np.int64)
            sigs = None
            if normalize:
                sigs = (
                    tbl.column("signature")
                    .to_numpy(zero_copy_only=False)[rows]
                    .astype(np.uint64, copy=False)
                )
            blocks.append((block_ref, rows, ranks_all[rows], sigs))

        self._fetch_parse(admitted, wave, ["url", "signature", "links"], pages, on_block)
        return blocks

    def _allowed_ranks_from_blocks(self, blocks, signatures):
        """Numpy signature gate over the wave's collected (rank, sig) pairs
        → sorted array of admitted ranks whose pages may expand links:
        duplicate-content pages do not expand links (website.rs:8673-8683) —
        first occurrence in admitted order AND unseen in prior waves."""
        import numpy as np

        all_ranks = np.concatenate([b[2] for b in blocks])
        if self.config.normalize and len(all_ranks):
            all_sigs = np.concatenate([b[3] for b in blocks])
            order = np.argsort(all_ranks, kind="stable")
            sig_in_order = all_sigs[order]
            first = _first_seen_mask_np(sig_in_order)
            fresh = _sig_fresh_and_update(signatures, sig_in_order)
            return np.sort(all_ranks[order][first & fresh])
        return np.sort(all_ranks)

    def _candidates_fast_stream(self, admitted, wave, signatures, pages):
        """Raw-task candidate extraction for the streaming (HostGate) mode:
        fetch+parse, numpy gate, one-shard flatten tasks, then one
        driver-side rank sort + global first-push dedup.  The heavy link
        columns never reach the driver (flatten ships (url, key, rank))."""
        import pyarrow.compute as pc
        import ray

        blocks = self._fetch_parse_ranked(admitted, wave, pages)
        if not blocks:
            return None
        allowed_ranks = self._allowed_ranks_from_blocks(blocks, signatures)
        flatten = _flatten_sharded_remote(1)
        flat_refs = [
            flatten.remote(block_ref, rows[mask], ranks[mask], 1)
            for block_ref, rows, ranks, mask in _iter_allowed_blocks(blocks, allowed_ranks)
        ]
        if not flat_refs:
            return None
        self.frontier_ops += sum(ray.get([count for _, count in flat_refs]))
        parts = [p for p in ray.get([part for part, _ in flat_refs]) if p is not None]
        if not parts:
            return None
        merged = pa.concat_tables(parts)
        # exact global first-push dedup: stable order by rank, keep first key
        order = pc.sort_indices(merged, sort_keys=[("rank", "ascending")])
        merged = merged.take(order)
        merged = merged.filter(pa.array(_first_seen_mask(merged.column("key"))))
        return merged  # columns: url, key, rank

    def _wave_sharded(self, admitted, wave, pool, signatures, want_candidates, pages):
        """One wave through the sharded AdmissionPool: fetch+parse
        (per-block rank/sig extraction overlapped with the parse tasks) →
        numpy signature gate → sharded flatten tasks shipping candidate
        parts straight to their shards → shard-local admit → merged
        canonical order.

        → (next_admitted, n_raw_candidates, cand_for_ckpt)."""
        import ray

        from ..semantics import depth_distance_for

        blocks = self._fetch_parse_ranked(admitted, wave, pages)
        count_refs = []
        if blocks:
            allowed_ranks = self._allowed_ranks_from_blocks(blocks, signatures)
            n_shards = pool.num_shards
            for block_ref, rows, ranks, mask in _iter_allowed_blocks(blocks, allowed_ranks):
                refs = _flatten_sharded_remote(n_shards).remote(
                    block_ref, rows[mask], ranks[mask], n_shards
                )
                pool.accept_parts(refs[:-1])
                count_refs.append(refs[-1])
        next_admitted, cand = pool.finalize_wave(
            depth_distance_for(self.config), wave + 1, want_candidates
        )
        n_raw = sum(ray.get(count_refs)) if count_refs else 0
        self.frontier_ops += n_raw
        return next_admitted, n_raw, cand

    def _run_fast_sharded(self, resume: bool = False) -> CrawlResult:
        """Simple-config crawl with SHARDED admission: the per-wave candidate
        sort/dedup/score/seen fold runs inside ``num_seen_shards`` actors
        that also own the seen-set partitions (zero seen round-trips), or,
        at one shard, in the driver on fetched flatten parts; the
        driver's per-wave serial work is only the O(admitted) k-way merge
        and the fetch descriptor split.  Produces EXACTLY the same admitted
        order as the driver fold (parity-tested)."""
        import time as _time

        from ..state.admission import AdmissionPool

        t_start = _time.monotonic()
        config = self.config
        result = CrawlResult(out_dir=self.out_dir, seen_shards=self._resolve_seen_shards(resume))
        manifest = self._find_resume_manifest() if resume else None
        pool = AdmissionPool(
            self.num_seen_shards,
            spill_threshold=self.seen_spill_threshold,
            stage_increments=bool(self.ckpt_dir),
        )
        signatures = SigSet()
        budget = Budget(config.budget, depth_distance_for(config))
        want_cand = bool(self.ckpt_dir)
        resume_wave = manifest["wave"] if manifest else None

        if resume_wave is not None:
            candidates, _ = self._restore(resume_wave, pool, budget, signatures, result)
            wave = resume_wave
            pool.push_candidates([u for u, _ in candidates])
            admitted, _ = pool.finalize_wave(
                depth_distance_for(config), wave + 1, False
            )
            if admitted and wave + 1 < config.max_waves:
                wave += 1
                result.visited.extend(admitted)
                result.admitted_order.extend(
                    (wave, seq, url) for seq, url in enumerate(admitted)
                )
            else:
                admitted = []
        else:
            visited_seed: set[str] = set()
            admitted = _oracle.admit_seeds(self.job, config, lambda u: None, visited_seed)
            pool.insert_batch([u.lower() for u in admitted])
            for seq, url in enumerate(admitted):
                result.visited.append(url)
                result.admitted_order.append((0, seq, url))
            wave = 0

        timed_out = False
        while admitted:
            next_admitted, n_raw, cand_ckpt = self._wave_sharded(
                admitted, wave, pool, signatures, want_cand, result.pages_tables
            )
            result.metrics.append(
                {"wave": wave, "admitted": len(admitted), "fetched": len(admitted),
                 "candidates": n_raw}
            )
            if wave != resume_wave:
                frontier = pa.table({"url": pa.array(cand_ckpt or [], pa.string())})
                self._ckpt_wave(wave, frontier, None, budget, signatures, pool, result.metrics)
            timed_out = (
                config.crawl_timeout_s is not None
                and _time.monotonic() - t_start >= config.crawl_timeout_s
            )
            if self._control_stop(wave):
                result.stopped = True
                break
            if timed_out or not next_admitted or wave + 1 >= config.max_waves:
                break
            wave += 1
            admitted = next_admitted
            result.visited.extend(admitted)
            result.admitted_order.extend(
                (wave, seq, url) for seq, url in enumerate(admitted)
            )

        # an aborted crawl (shutdown / crawl_timeout) must NOT run the sitemap
        # chain: it would fetch more pages after the stop AND its checkpoint
        # would overwrite the manifest with an EMPTY frontier, losing the
        # remaining frontier on resume
        if not config.ignore_sitemap and not result.stopped and not timed_out:
            self._sitemap_chain(result, pool, budget, lambda u: None, wave + 1, signatures)

        if self.collect_seen:
            result.seen_keys = pool.dump()
        pool.shutdown()
        self._close_index_pool()
        return result

    def _close_index_pool(self) -> None:
        if hasattr(self._index_pool, "shutdown"):
            self._index_pool.shutdown()
        self._index_pool = None

    # -- streaming admission (HostGate actor-pool frontier) ------------------

    def run_streaming(self) -> CrawlResult:
        """Streaming-admission crawl: the per-host priority frontier lives in
        the :class:`~spider_ray.state.hostgate.HostGate` actor pool instead of
        a driver-side fold — the layout that scales past one driver.

        Supported configs: scope/depth/normalize/politeness (no budget,
        robots, white/blacklist, round-robin — those need the globally
        ordered fold).  Produces the same ADMITTED SET and the same per-host
        admission sequences as the oracle; the cross-host interleave is
        per-shard deterministic rather than globally canonical
        (tests/test_hostgate.py)."""
        import numpy as np
        import pyarrow.compute as pc

        from ..frontier import score_urls_arrow
        from ..semantics import depth_distance_for
        from ..state.admission import AdmissionPool
        from ..state.hostgate import HostGate

        config = self.config
        # budget is a globally-ordered fold (driver path only); robots IS
        # supported here — per-host rules are host-local, so they filter at
        # push time and fold their crawl-delay into the shard's politeness
        assert config.budget is None
        assert not config.whitelist and not config.blacklist and not config.round_robin
        # hooks and extra_links have no streaming wiring yet: on_link_find is
        # never applied at dispatch, extra_links never enter the frontier, and
        # an on_should_crawl-blocked page's signature would wrongly enter the
        # dedup set (the oracle records signature=None for blocked pages) —
        # fail loudly instead of silently diverging; use run() for these
        assert config.on_link_find is None and config.on_should_crawl is None
        assert not config.extra_links

        import time as _time

        result = CrawlResult(out_dir=self.out_dir, seen_shards=self._resolve_seen_shards(False))
        seen = AdmissionPool(self.num_seen_shards, spill_threshold=self.seen_spill_threshold)
        gate = HostGate(self.num_seen_shards, adaptive=self.adaptive_politeness)
        signatures = SigSet()

        robots_by_host, robots_delays = self._robots()
        gate.set_delays(robots_delays)

        def robots_for(url):
            return robots_by_host.get(url_host(url))

        visited_seed: set[str] = set()
        admitted = _oracle.admit_seeds(self.job, config, robots_for, visited_seed)
        admitted_hosts = [url_host(u) for u in admitted]
        seen.insert_batch([u.lower() for u in admitted])
        for seq, url in enumerate(admitted):
            result.visited.append(url)
            result.admitted_order.append((0, seq, url))

        wave = 0
        push_futs: list = []
        while admitted:
            t_wave = _time.monotonic()
            merged = self._candidates_fast_stream(admitted, wave, signatures, result.pages_tables)
            if self.adaptive_politeness:
                per_url = (_time.monotonic() - t_wave) / max(1, len(admitted))
                gate.record_latency(admitted_hosts, [per_url] * len(admitted_hosts))
            result.metrics.append(
                {"wave": wave, "admitted": len(admitted), "fetched": len(admitted),
                 "candidates": merged.num_rows if merged is not None else 0}
            )
            if merged is not None and merged.num_rows:
                tbl = merged
                dd = depth_distance_for(config)
                if dd > 0:
                    pathq = pc.replace_substring_regex(
                        tbl.column("url"), pattern=r"^[^:/?#]+://[^/]*", replacement=""
                    )
                    ok = pc.or_(
                        pc.invert(pc.starts_with(pathq, "/")),
                        pc.less_equal(pc.count_substring(pathq, "/"), dd),
                    )
                    tbl = tbl.filter(ok)
                if tbl.num_rows:
                    hosts_arr = hosts_of_keys_arrow(tbl.column("key"))
                    prios = score_urls_arrow(tbl.column("url").combine_chunks(), wave + 1)
                    urls_py = tbl.column("url").to_pylist()
                    hosts_py = hosts_arr.to_pylist()
                    mask = seen.contains_batch([u.lower() for u in urls_py])
                    ua = config.user_agent or "*"
                    push_urls, push_prios, push_hosts = [], [], []
                    for u, p, h, m in zip(urls_py, prios.tolist(), hosts_py, mask):
                        if m:
                            continue
                        if robots_by_host:
                            rb = robots_by_host.get(h)
                            if rb is not None and not rb.can_fetch(ua, u):
                                continue
                        push_urls.append(u)
                        push_prios.append(p)
                        push_hosts.append(h)
                    push_futs = gate.push(push_urls, push_prios, push_hosts)
            if push_futs:
                import ray

                ray.get(push_futs)
                push_futs = []

            popped = gate.pop_wave(config.wave_span_ms, config.delay_ms)
            if not popped:
                break
            wave += 1
            admitted = [u for u, _ in popped]
            admitted_hosts = [h for _, h in popped]
            seen.insert_batch([u.lower() for u in admitted])
            for seq, url in enumerate(admitted):
                result.visited.append(url)
                result.admitted_order.append((wave, seq, url))

        result.seen_keys = seen.dump() if self.collect_seen else set()
        gate.shutdown()
        seen.shutdown()
        self._close_index_pool()
        return result

    # -- main loop -----------------------------------------------------------

    def run(self, resume: bool = False) -> CrawlResult:
        """Run the crawl: simple configs in the sharded executor, every
        other config in the ordered driver fold below (budget, robots,
        politeness, filters, hooks and queue injection)."""
        if self._simple_config():
            return self._run_fast_sharded(resume)

        import time as _time

        from ..state.admission import AdmissionPool

        t_start = _time.monotonic()
        config = self.config
        result = CrawlResult(out_dir=self.out_dir, seen_shards=self._resolve_seen_shards(resume))
        manifest = self._find_resume_manifest() if resume else None
        seen = AdmissionPool(self.num_seen_shards, spill_threshold=self.seen_spill_threshold)
        budget = Budget(config.budget, depth_distance_for(config))
        signatures = SigSet()
        robots_by_host, robots_delays = self._robots()

        def robots_for(url):
            return robots_by_host.get(url_host(url))

        def host_delay_ms(host):
            return robots_delays.get(host, config.delay_ms)

        resume_wave = manifest["wave"] if manifest else None

        if resume_wave is not None:
            candidates, deferred = self._restore(resume_wave, seen, budget, signatures, result)
            wave = resume_wave
            admitted: list[str] = []
        else:
            # wave 0: seed establish (shared with the oracle)
            visited_seed: set[str] = set()
            admitted = _oracle.admit_seeds(self.job, config, robots_for, visited_seed)
            seen.insert_batch([u.lower() for u in admitted])
            for seq, url in enumerate(admitted):
                result.visited.append(url)
                result.admitted_order.append((0, seq, url))
            candidates, deferred = None, [
                (u, score_url(u, 1)) for u in config.extra_links
            ]
            wave = 0

        timed_out = False
        while True:
            if admitted:
                # on_link_find rewrite at dispatch (website.rs:7652-7658):
                # visited keeps the original, fetch/page use the rewrite
                hook = config.on_link_find
                dispatch = [hook(u) for u in admitted] if hook else admitted
                parsed_tbl = self._fetch_parse(
                    dispatch, wave, ["url", "signature", "links", "blocked_crawl"],
                    result.pages_tables,
                )
                by_url = {}
                if parsed_tbl is not None:
                    for u, s, l, b in zip(
                        parsed_tbl.column("url").to_pylist(),
                        parsed_tbl.column("signature").to_pylist(),
                        parsed_tbl.column("links").to_pylist(),
                        parsed_tbl.column("blocked_crawl").to_pylist(),
                    ):
                        # blocked pages keep their row but contribute no
                        # links and no signature to the dedup set
                        by_url[u] = (None, []) if b else (s, l)
                pages_in_order = [(du, *by_url.get(du, (None, []))) for du in dispatch]
                candidates = list(deferred)
                deferred = []
                dup_sig = 0
                depth = wave + 1
                for url, allowed, links in gate_links_by_signature(
                    pages_in_order, signatures, config.normalize
                ):
                    if allowed:
                        candidates.extend((link, score_url(link, depth)) for link in links)
                    else:
                        dup_sig += 1
                result.metrics.append(
                    {"wave": wave, "admitted": len(admitted), "fetched": len(admitted),
                     "dup_signature": dup_sig, "candidates": len(candidates)}
                )
            elif candidates is None:
                # a wave can admit NOTHING while still deferring (politeness
                # quota filled by candidates that then dropped at the budget
                # step): the deferrals must re-enter the next admission like
                # the oracle's loop (break only when admitted AND deferred
                # are empty), or the crawl ends early with unburned budget —
                # observable as a diverging sitemap-chain admission
                candidates = list(deferred)
                deferred = []

            timed_out = (
                config.crawl_timeout_s is not None
                and _time.monotonic() - t_start >= config.crawl_timeout_s
            )
            if wave != resume_wave:  # never rewrite the restored wave's ckpt
                self._ckpt_wave(wave, _pairs_table(candidates), _pairs_table(deferred), budget,
                                signatures, seen, result.metrics)

            # mid-crawl queue injection (channel_queue, website.rs:7528-7562)
            budgetless: frozenset[str] = frozenset()
            if self.queue_provider is not None:
                injected = list(self.queue_provider(wave) or ())
                budgetless = frozenset(u.lower() for u in injected)
                candidates.extend((u, score_url(u, wave + 1)) for u in injected)

            if self._control_stop(wave):
                result.stopped = True
                break
            if timed_out or not candidates or wave + 1 >= config.max_waves:
                break

            order, prio_of = order_candidates(candidates, config.round_robin)
            self.frontier_ops += len(order)
            # batched, sharded visited check (the ONLY distributed-state read)
            mask = seen.contains_batch([u.lower() for u in order])
            visited_now = {u.lower() for u, m in zip(order, mask) if m}
            adm = admit_wave(
                order, prio_of, visited_now, config, robots_for, host_delay_ms, budget,
                budgetless_keys=budgetless,
            )
            wave += 1
            admitted = adm.admitted
            deferred = adm.deferred
            seen.insert_batch([u.lower() for u in admitted])
            for seq, url in enumerate(admitted):
                result.visited.append(url)
                result.admitted_order.append((wave, seq, url))
            candidates = None

            if not admitted and not deferred:
                result.metrics.append(
                    {"wave": wave, "admitted": 0, "fetched": 0, "dup_signature": 0, "candidates": 0}
                )
                self._ckpt_wave(wave, _pairs_table([]), _pairs_table([]), budget, signatures,
                                seen, result.metrics)
                break

        # --- sitemap chain (website.rs:6975): admitted through the normal
        # chain, fetched+parsed distributed, links NOT expanded.  Skipped on
        # an aborted crawl (shutdown / crawl_timeout): fetching after the stop
        # would be wrong, and the chain's checkpoint would overwrite the
        # manifest with an empty frontier, losing the remainder on resume ---
        if not config.ignore_sitemap and not result.stopped and not timed_out:
            self._sitemap_chain(result, seen, budget, robots_for, wave + 1, signatures)

        if self.collect_seen:
            result.seen_keys = seen.dump()
        seen.shutdown()
        self._close_index_pool()
        return result

    def _sitemap_chain(self, result, seen, budget, robots_for, sm_wave, signatures=()):
        import pyarrow.compute as pc

        from ..semantics import is_over_depth
        from ..sources.sitemap import collect_sitemap_urls

        config = self.config
        index = self._index_pool_get()

        def corpus_get(url):
            # a one-url split → the row groups holding it (driver or pooled index)
            descriptors, _ = index.split([url])
            if not descriptors:
                return (404, None)
            desc = descriptors[0]
            tbl = pq.ParquetFile(desc["path"]).read_row_groups(
                desc["row_groups"], columns=["url", "html", "status"]
            )
            row = tbl.filter(pc.equal(tbl.column("url"), url))
            if row.num_rows == 0:
                return (404, None)
            return (row.column("status")[0].as_py(), row.column("html")[0].as_py())

        candidates = []
        for _, root in _oracle.ScopeRouter(self.job).entries:
            if root is None:
                continue
            candidates.extend(collect_sitemap_urls(corpus_get, root, sitemap_path=config.sitemap_url))
        existing = seen.contains_batch([u.lower() for u in candidates])
        admitted, seq = [], 0
        local_seen = set()
        for url, present in zip(candidates, existing):
            key = url.lower()
            if present or key in local_seen:
                continue
            if not _oracle.is_allowed_default(url, config, robots_for(url)):
                continue
            if is_over_depth(url, config):
                continue
            if budget.is_over(url):
                continue
            local_seen.add(key)
            admitted.append(url)
            result.visited.append(url)
            result.admitted_order.append((sm_wave, seq, url))
            seq += 1
        if admitted:
            seen.insert_batch([u.lower() for u in admitted])
            hook = config.on_link_find
            dispatch = [hook(u) for u in admitted] if hook else admitted
            self._fetch_parse(dispatch, sm_wave, ["url"], result.pages_tables)
            result.metrics.append(
                {"wave": sm_wave, "admitted": len(admitted), "fetched": len(admitted),
                 "sitemap": True, "candidates": 0}
            )
            # checkpoint the sitemap admissions' seen increments — without
            # this, a resume after a COMPLETED crawl re-admits and re-fetches
            # every sitemap-discovered page (duplicate output rows)
            if self.ckpt_dir:
                # sharded executor: the insert above landed shard-side and no
                # finalize_wave follows to drain it — stage it explicitly or
                # the staged checkpoint below writes EMPTY seen shards
                seen.stage_pending_increments()
                self._ckpt_wave(sm_wave, _pairs_table([]), _pairs_table([]), budget, signatures,
                                seen, result.metrics)


def crawl(job: CrawlJob, corpus_dir: str, **kwargs) -> CrawlResult:
    """Convenience/parity entry: collects the final seen set by default
    (the reference's ``Website`` keeps its visited set in memory).  The
    ``RayCrawler`` default is ``collect_seen=False`` — gathering every seen
    key to the driver is a whole-frontier materialization at 10^10 scale."""
    kwargs.setdefault("collect_seen", True)
    return RayCrawler(job, corpus_dir, **kwargs).run()
