"""Sharded URL-seen state — the distributed analogue of spider's
``ListBucket`` (authoritative ``HashSet`` + bloom negative-cache,
``spider/src/utils/interner.rs:52-230`` + ``utils/bloom.rs``).

Shard routing key: ``stable_hash(url_norm) % num_shards`` — the same hash
used for corpus host-bucketing, so one partitioning scheme serves the whole
pipeline.  Each shard holds a Python set (authoritative) fronted by a bloom
filter; the shard API is batch-only so a wave's membership check is
``num_shards`` actor round-trips, not per-URL calls.

The shard count comes from the session (``poolsize.seen_shards``:
``min(8, cluster CPUs)``).  At one shard there is no actor: the facade holds
the same :class:`SeenShard` object in the driver process and calls it
directly — on a one-CPU session an actor only adds its start-up and a
round-trip per call to the same core's work.

Checkpointing is incremental: ``take_increment()`` returns only URLs inserted
since the last checkpoint (wave lineage — resume unions increments of waves
≤ k).  The per-shard backing store can later become an on-disk sorted-run +
bloom without changing this API (SURVEY.md §7.3 "10¹⁰-scale seen-set").
"""

from __future__ import annotations

import numpy as np
import ray

from ..hashing import stable_hash_str
from .spillseen import SpillableSeenSet


class SeenShard:
    """One seen shard's state.  The backing store is a
    :class:`SpillableSeenSet`: a plain in-memory set until
    ``spill_threshold`` keys, then an on-disk sorted-digest-run tier fronted
    by a bloom negative cache — spider's memory→SQLite spill
    (``website.rs:1718-1749``) re-expressed (state/spillseen.py).
    ``spill_threshold=None`` never spills.

    A plain class: ``UrlSeenShard`` (and, through a subclass,
    ``AdmissionShard``) wrap it with ``ray.remote``, and a one-shard facade
    holds it in the driver."""

    def __init__(self, shard_id: int, spill_threshold: int | None = None) -> None:
        self.shard_id = shard_id
        self.seen = SpillableSeenSet(spill_threshold)
        self._increment: list[str] = []

    def contains_batch(self, keys: list[str]) -> np.ndarray:
        """→ numpy bool array, True where the key was already seen."""
        seen = self.seen
        return np.fromiter((k in seen for k in keys), dtype=bool, count=len(keys))

    def insert_batch(self, keys: list[str]) -> int:
        add = self.seen.add
        inc = self._increment
        added = 0
        for k in keys:
            if add(k):
                inc.append(k)
                added += 1
        return added

    def take_increment(self) -> list[str]:
        inc, self._increment = self._increment, []
        return inc

    def size(self) -> int:
        return len(self.seen)

    def hot_size(self) -> int:
        """In-heap entry count (spill-tier diagnostics)."""
        return self.seen.hot_size()

    def dump(self) -> list[str]:
        return self.seen.dump()

    def restore(self, keys: list[str]) -> None:
        self.seen.update(keys)


UrlSeenShard = ray.remote(SeenShard)


class ShardSet:
    """The shards behind a seen facade: ``num_shards`` actors of
    ``actor_cls``, or at one shard a ``state_cls`` object held in this
    process (``local``; ``shards`` is then empty).  Every call goes through
    :meth:`_call` / :meth:`_call_async`, so the facades have one code path
    for both."""

    def __init__(self, state_cls, actor_cls, num_shards: int, *args) -> None:
        self.num_shards = num_shards
        self.local = state_cls(0, *args) if num_shards == 1 else None
        self.shards = (
            [] if self.local is not None
            else [actor_cls.remote(i, *args) for i in range(num_shards)]
        )

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

    def _route(self, keys: list[str], hosts: list[str] | None = None):
        """Shard routing.  When ``hosts`` is given, the routing key is the
        HOST hash — the same partitioning key as the corpus buckets and the
        politeness scheduler (one key reused across every stage); hashing is
        then amortized over unique hosts instead of per-URL."""
        if self.num_shards == 1:
            return [list(enumerate(keys))]
        buckets: list[list[tuple[int, str]]] = [[] for _ in range(self.num_shards)]
        if hosts is not None:
            shard_of_host: dict[str, int] = {}
            for idx, (k, h) in enumerate(zip(keys, hosts)):
                s = shard_of_host.get(h)
                if s is None:
                    s = shard_of_host[h] = stable_hash_str(h) % self.num_shards
                buckets[s].append((idx, k))
        else:
            for idx, k in enumerate(keys):
                buckets[stable_hash_str(k) % self.num_shards].append((idx, k))
        return buckets

    @staticmethod
    def _bucket_args(buckets):
        return [([k for _, k in b],) if b else None for b in buckets]

    def _contains(self, keys: list[str], hosts: list[str] | None) -> list[bool]:
        buckets = self._route(keys, hosts)
        out = [False] * len(keys)
        for bucket, hits in zip(buckets, self._call("contains_batch", self._bucket_args(buckets))):
            if hits is not None:
                for (idx, _), hit in zip(bucket, hits):
                    out[idx] = bool(hit)
        return out

    def _insert(self, keys: list[str], hosts: list[str] | None) -> int:
        added = self._call("insert_batch", self._bucket_args(self._route(keys, hosts)))
        return sum(a for a in added if a is not None)

    def restore(self, per_shard_keys: list[list[str]]) -> None:
        self._call("restore", [(keys,) if keys else None for keys in per_shard_keys])

    def size(self) -> int:
        return sum(self._call("size"))

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


class UrlSeen(ShardSet):
    """Driver-side facade over the seen shards (batch fan-out/fan-in)."""

    def __init__(self, num_shards: int = 8, spill_threshold: int | None = None) -> None:
        super().__init__(SeenShard, UrlSeenShard, num_shards, spill_threshold)

    def contains_batch(self, keys: list[str], hosts: list[str] | None = None) -> list[bool]:
        return self._contains(keys, hosts)

    def insert_batch(self, keys: list[str], hosts: list[str] | None = None) -> int:
        return self._insert(keys, hosts)

    def checkpoint_increments(self) -> list[list[str]]:
        return self._call("take_increment")
