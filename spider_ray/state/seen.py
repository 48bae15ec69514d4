"""Seen-set state of one shard — the distributed analogue of spider's
``ListBucket`` (authoritative ``HashSet`` + bloom negative-cache,
``spider/src/utils/interner.rs:52-230`` + ``utils/bloom.rs``).

Every crawl executor holds its seen set in one facade,
:class:`~spider_ray.state.admission.AdmissionPool`, whose shards are
:class:`SeenShard` states (through the ``AdmissionState`` subclass).  Shard
routing key: the url's host, ``urlnorm.shard_of_hosts`` — the same host
partitioning as the corpus buckets, the flatten parts and the politeness
scheduler, so one partitioning scheme serves the whole pipeline.  The shard
API is batch-only, so a wave's membership check is ``num_shards`` actor
round-trips, not per-URL calls.

The shard count comes from the session (``poolsize.seen_shards``:
``min(8, cluster CPUs)``).  At one shard there is no actor: the facade holds
the state object in the driver process and calls it directly — on a one-CPU
session an actor only adds its start-up and a round-trip per call to the same
core's work.

Checkpointing is incremental: ``take_increment()`` returns only URLs inserted
since the last checkpoint (wave lineage — resume unions increments of waves
≤ k).  The per-shard backing store can later become an on-disk sorted-run +
bloom without changing this API (SURVEY.md §7.3 "10¹⁰-scale seen-set").
"""

from __future__ import annotations

import numpy as np

from .spillseen import SpillableSeenSet


class SeenShard:
    """One seen shard's state.  The backing store is a
    :class:`SpillableSeenSet`: a plain in-memory set until
    ``spill_threshold`` keys, then an on-disk sorted-digest-run tier fronted
    by a bloom negative cache — spider's memory→SQLite spill
    (``website.rs:1718-1749``) re-expressed (state/spillseen.py).
    ``spill_threshold=None`` never spills.

    A plain class: ``AdmissionShard`` wraps its subclass
    ``AdmissionState`` with ``ray.remote``, and a one-shard facade holds it
    in the driver."""

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

    def dump(self) -> list[str]:
        return self.seen.dump()

    def restore(self, keys: list[str]) -> None:
        self.seen.update(keys)
