"""Sharded wave admission — the scale form of the fast-path admission fold.

Round-1 profiling showed ~15 s/crawl of driver-serial residue at sf0.1: the
driver concatenated EVERY wave's candidate table, sorted it and deduped it
centrally.  This pool moves that work into ``num_shards`` stateful actors:

* flatten tasks split their (url, key, rank) candidate output by host
  (``urlnorm.shard_of_hosts``) and ship each part DIRECTLY to its shard
  (object refs — candidate payloads never land on the driver);
* each shard owns the seen-set partition for its hosts (set + bloom,
  :class:`~spider_ray.state.seen.SeenShard`) so the visited check and insert
  are local calls — zero seen round-trips per wave;
* ``finalize_wave`` does rank-sort → first-push dedup → priority scoring →
  depth filter → seen filter → canonical (priority desc, key desc) sort,
  all shard-local and vectorized;
* the driver k-way-merges the per-shard sorted admitted lists
  (``heapq.merge`` on (−prio, −key) — O(admitted · log shards)), which
  reproduces EXACTLY the global canonical order of the sequential fold.

Dedup correctness: a url's key always hashes to one shard (key → host →
shard, ``urlnorm.shard_of_hosts``), so shard-local first-push dedup by global
rank equals global first-push dedup.

The pool is also the seen facade of every other executor (the ordered driver
fold of ``RayCrawler.run`` and ``run_streaming``): ``contains_batch`` /
``insert_batch`` / ``restore`` route keys by the same host rule.

At one shard (a one-CPU session, ``poolsize.seen_shards``) the pool starts no
actor: the driver fetches the flatten parts and runs the same
``AdmissionState.finalize_wave`` on the shard it holds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from ..urlnorm import hosts_of_keys_arrow, shard_of_hosts
from .seen import SeenShard


class AdmissionState(SeenShard):
    """One admission + seen shard (the hosts ``shard_of_hosts`` maps to
    ``shard_id``): the seen partition and API of :class:`SeenShard` plus the
    wave fold.
    ``AdmissionShard`` wraps it with ``ray.remote``; a one-shard pool holds
    it in the driver."""

    def __init__(self, shard_id: int, spill_threshold: int | None = None) -> None:
        super().__init__(shard_id, spill_threshold)
        self._parts: list[pa.Table] = []  # current wave's candidate parts

    # -- wave admission -----------------------------------------------------

    def accept(self, *parts) -> None:
        """Queue candidate parts (columns url, key, rank) for the current
        wave.  Called with object refs: Ray resolves them for an actor; the
        in-driver shard fetches them here."""
        for part in parts:
            if isinstance(part, ray.ObjectRef):
                part = ray.get(part)
            if part is not None and part.num_rows:
                self._parts.append(part)

    def finalize_wave(
        self,
        depth_distance: int,
        wave: int,
        return_candidates: bool = False,
        drain_increment: bool = False,
    ):
        """Admit the queued candidates.

        → (admitted_table, candidate_urls | None, prior_increment | None).
        ``wave`` feeds the depth term of the priority score (clamping makes
        it order-relevant).  ``drain_increment`` returns (and clears) the
        increment accumulated BEFORE this wave's inserts — those keys belong
        to waves ≤ wave−1 and must land in wave−1's checkpoint, while this
        wave's admissions must NOT (resume re-admits them from the stored
        frontier; leaking them into the earlier checkpoint would make resume
        filter the whole frontier as already-seen)."""
        import pyarrow.compute as pc

        from ..frontier import score_urls_arrow

        prior = None
        if drain_increment:
            prior, self._increment = self._increment, []
        parts, self._parts = self._parts, []
        if not parts:
            return None, ([] if return_candidates else None), prior
        merged = pa.concat_tables(parts)
        # global first-push order: stable rank sort, keep first key
        order = pc.sort_indices(merged, sort_keys=[("rank", "ascending")])
        merged = merged.take(order)
        keys = merged.column("key").combine_chunks()
        encoded = pc.dictionary_encode(keys)
        if isinstance(encoded, pa.ChunkedArray):
            encoded = encoded.combine_chunks()
        codes = encoded.indices.to_numpy(zero_copy_only=False)
        _, first_idx = np.unique(codes, return_index=True)
        keep = np.zeros(len(codes), dtype=bool)
        keep[first_idx] = True
        merged = merged.filter(pa.array(keep))
        cand_urls = merged.column("url").to_pylist() if return_candidates else None

        urls = merged.column("url").combine_chunks()
        keys = merged.column("key").combine_chunks()
        prios = score_urls_arrow(urls, wave)
        # no shard-side canonical sort: the driver sorts the (much smaller)
        # admitted union once; the seen filter below is order-independent
        tbl = pa.table({"url": urls, "key": keys, "prio": pa.array(prios, pa.int32())})
        if depth_distance > 0:
            pathq = pc.replace_substring_regex(
                tbl.column("url"), pattern=r"^[^:/?#]+://[^/]*", replacement=""
            )
            ok = pc.or_(
                pc.invert(pc.starts_with(pathq, "/")),
                pc.less_equal(pc.count_substring(pathq, "/"), depth_distance),
            )
            tbl = tbl.filter(ok)
        key_list = tbl.column("key").to_pylist()
        add = self.seen.add
        inc = self._increment
        keep_rows: list[int] = []
        for i, key in enumerate(key_list):
            if add(key):
                inc.append(key)
                keep_rows.append(i)
        return tbl.take(pa.array(keep_rows, pa.int64())), cand_urls, prior


AdmissionShard = ray.remote(AdmissionState)


class AdmissionPool:
    """Driver facade over the seen/admission shards: ``num_shards``
    ``AdmissionShard`` actors, or at one shard an :class:`AdmissionState`
    held in this process (``local``; ``shards`` is then empty).  Every
    executor's seen API (batch fan-out/fan-in, routed by host) plus the
    sharded executor's wave fold.  Every shard call goes through
    :meth:`_call` / :meth:`_call_async`, so both layouts share one code
    path."""

    def __init__(
        self,
        num_shards: int = 8,
        spill_threshold: int | None = None,
        stage_increments: bool = False,
    ) -> None:
        self.num_shards = num_shards
        self.local = AdmissionState(0, spill_threshold) if num_shards == 1 else None
        self.shards = (
            [] if self.local is not None
            else [AdmissionShard.remote(i, spill_threshold) for i in range(num_shards)]
        )
        self._accept_futs: list = []
        self._pending_parts: list[list] = [[] for _ in range(num_shards)]
        # checkpointing crawls drain each shard's increment at finalize entry
        # (keys of waves ≤ k) and stage it here for wave k's checkpoint —
        # see AdmissionState.finalize_wave(drain_increment=...)
        self.stage_increments = stage_increments
        self._staged_incs: list[list[str]] = [[] for _ in range(num_shards)]

    # -- shard dispatch -----------------------------------------------------

    def _call_async(self, method: str, args_by_shard) -> list:
        """Call ``method(*args)`` on each shard whose ``args_by_shard``
        entry is not None → the actor futures.  The in-driver shard runs
        the call now and returns no future."""
        if self.local is not None:
            if args_by_shard[0] is not None:
                getattr(self.local, method)(*args_by_shard[0])
            return []
        return [
            getattr(shard, method).remote(*args)
            for shard, args in zip(self.shards, args_by_shard)
            if args is not None
        ]

    def _call(self, method: str, args_by_shard=None) -> list:
        """Like :meth:`_call_async` but waits → one result per shard (None
        for a skipped shard).  ``args_by_shard=None`` calls every shard
        with no arguments."""
        if args_by_shard is None:
            args_by_shard = [()] * self.num_shards
        if self.local is not None:
            args = args_by_shard[0]
            return [None if args is None else getattr(self.local, method)(*args)]
        got = iter(ray.get(self._call_async(method, args_by_shard)))
        return [None if args is None else next(got) for args in args_by_shard]

    def _route(self, keys: list[str]) -> list[np.ndarray]:
        """Positions of the (lowercased url) ``keys`` per shard: the shard
        of each key's host, ``shard_of_hosts(hosts_of_keys_arrow(keys))`` —
        the partitioning key of the corpus buckets, the flatten parts and
        the politeness scheduler too."""
        if self.num_shards == 1:
            return [np.arange(len(keys))]
        ids = shard_of_hosts(hosts_of_keys_arrow(pa.array(keys, pa.string())), self.num_shards)
        return [np.nonzero(ids == s)[0] for s in range(self.num_shards)]

    def _call_routed(self, method: str, keys: list[str]):
        """→ (per-shard positions, per-shard results of ``method(keys)``)."""
        routed = self._route(keys)
        if self.num_shards == 1:
            return routed, self._call(method, [(keys,)])
        args = [([keys[i] for i in pos.tolist()],) if len(pos) else None for pos in routed]
        return routed, self._call(method, args)

    # -- seen facade --------------------------------------------------------

    def contains_batch(self, keys: list[str]) -> list[bool]:
        out = np.zeros(len(keys), dtype=bool)
        for pos, hits in zip(*self._call_routed("contains_batch", keys)):
            if hits is not None:
                out[pos] = hits
        return out.tolist()

    def insert_batch(self, keys: list[str]) -> int:
        return sum(a for a in self._call_routed("insert_batch", keys)[1] if a is not None)

    def restore(self, keys: list[str]) -> None:
        """Load checkpointed seen keys, each into the shard of its host
        (whatever file the checkpoint held it in); not an increment."""
        self._call_routed("restore", keys)

    def dump(self) -> set[str]:
        out: set[str] = set()
        for keys in self._call("dump"):
            out.update(keys)
        return out

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
        self.local = None

    # -- checkpoint increments ----------------------------------------------

    def stage_pending_increments(self) -> None:
        """Drain shard-side increments into the staged buffer so the NEXT
        checkpoint includes them.  Needed before checkpointing driver-side
        ``insert_batch`` keys that no ``finalize_wave`` will drain (the
        sitemap chain after the wave loop) — in staged mode
        ``checkpoint_increments`` otherwise returns only prior drains and
        those keys would never be checkpointed (resume would re-admit and
        re-fetch every sitemap page).  Call ONLY at a point where the shards
        hold no in-flight next-wave admissions."""
        if not self.stage_increments:
            return
        for s, inc in enumerate(self._call("take_increment")):
            if inc:
                self._staged_incs[s].extend(inc)

    def checkpoint_increments(self) -> list[list[str]]:
        """Increments for the wave being checkpointed: the staged drains
        (waves ≤ k) plus anything inserted driver-side since (seed wave /
        sitemap chain) — NOT the in-flight wave-k+1 admissions, which stay
        in the shards until the next finalize drains them."""
        if self.stage_increments:
            staged, self._staged_incs = self._staged_incs, [
                [] for _ in range(self.num_shards)
            ]
            return staged
        return self._call("take_increment")

    # -- wave fold ----------------------------------------------------------

    def push_candidates(self, urls: list[str]) -> None:
        """Driver-side candidate injection (resume path): route (url, key,
        rank=position) rows to their shards."""
        if not urls:
            return
        keys = [u.lower() for u in urls]
        tbl = pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "key": pa.array(keys, pa.string()),
                "rank": pa.array(np.arange(len(urls)), pa.int64()),
            }
        )
        for s, pos in enumerate(self._route(keys)):
            if len(pos):
                self._pending_parts[s].append(tbl.take(pa.array(pos, pa.int64())))

    def accept_parts(self, per_shard_refs: list) -> None:
        """Queue one flatten task's per-shard output refs (no driver data —
        the refs are batched into ONE accept call per shard per wave)."""
        for s, ref in enumerate(per_shard_refs):
            self._pending_parts[s].append(ref)

    def _flush_accepts(self) -> None:
        # varargs so Ray resolves the refs shard-side
        self._accept_futs += self._call_async(
            "accept", [tuple(parts) if parts else None for parts in self._pending_parts]
        )
        self._pending_parts = [[] for _ in range(self.num_shards)]

    def finalize_wave(self, depth_distance: int, wave: int, return_candidates: bool = False):
        """→ (admitted_urls, candidate_urls).

        Admitted urls are in the global canonical order: the per-shard
        admitted tables are concatenated and sorted once by (priority desc,
        key desc) — an Arrow C++ sort over admitted rows only."""
        import pyarrow.compute as pc

        self._flush_accepts()
        if self._accept_futs:
            ray.get(self._accept_futs)
            self._accept_futs = []
        results = self._call(
            "finalize_wave",
            [(depth_distance, wave, return_candidates, self.stage_increments)]
            * self.num_shards,
        )
        if self.stage_increments:
            for s, r in enumerate(results):
                if r[2]:
                    self._staged_incs[s].extend(r[2])
        tables = [r[0] for r in results if isinstance(r[0], pa.Table) and r[0].num_rows]
        admitted_urls = []
        if tables:
            merged = pa.concat_tables(tables)
            idx = pc.sort_indices(
                merged, sort_keys=[("prio", "descending"), ("key", "descending")]
            )
            admitted_urls = merged.column("url").take(idx).to_pylist()
        cand = None
        if return_candidates:
            cand = []
            for r in results:
                if r[1]:
                    cand.extend(r[1])
        return admitted_urls, cand
