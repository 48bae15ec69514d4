"""Actor-pool sizing: autoscaling bounds derived from cluster CPUs.

A fixed actor count is wrong in both directions: a pool of 2 bottlenecks a
256-node cluster, and a pool equal to the CPU count can starve upstream
read tasks into deadlock on a small session.  Every stateful
``map_batches`` stage therefore uses an AUTOSCALING pool ``(min_actors,
max(floor, cluster CPUs))`` — Ray Data grows the pool only while upstream
keeps it busy, so small sessions stay deadlock-free and big clusters get
a pool that tracks their size.  The crawl's seen/admission shards follow
the same rule, capped at 8 (``seen_shards``).
"""

from __future__ import annotations


def cluster_cpus(default: int) -> int:
    """The Ray cluster's CPU count, or ``default`` when Ray is not
    initialised (or the cluster reports no CPU resource)."""
    import ray
    from ray.exceptions import RaySystemError

    try:
        return int(ray.cluster_resources().get("CPU", default))
    except RaySystemError:  # "Ray has not been started yet"
        return default


def seen_shards() -> int:
    """Seen/admission shard count for a new crawl: ``min(8, cluster CPUs)``.
    One shard means the seen state stays in the driver process (no actor);
    on a one-CPU session eight actor processes would only time-slice the
    same core, and starting them costs more than the whole crawl."""
    import ray

    if not ray.is_initialized():
        ray.init()  # what the first actor or task would do anyway
    return max(1, min(8, cluster_cpus(1)))


def autoscale_pool(min_actors: int = 1, floor: int = 8) -> tuple[int, int]:
    """``(min_actors, max(floor, cluster CPUs))`` for ``concurrency=``."""
    return (min_actors, max(floor, cluster_cpus(floor)))


def coarse_fanout(floor: int = 64, per_cpu: int = 2, ceil: int = 1 << 14) -> int:
    """Coarse-partition fan-out for the hash(key)&mask co-group ops, sized
    to the CLUSTER rather than a constant: the next power of two >=
    ``max(floor, per_cpu * cluster CPUs)``, clamped to ``ceil``.

    A fixed 64/256 mask is right for a 32-CPU box (the floors reproduce
    exactly those measured values there) but starves a 1000-core cluster —
    a handful of reduce partitions serialize the fold.  Power-of-two so the
    partition id stays a single ``bit_wise_and`` in Arrow.

    MUST be resolved ON THE DRIVER at pipeline-build time and closed over
    by the batch fns: if each worker task resolved it independently, a
    mid-job cluster resize could route the same key to different
    partitions within one shuffle.  ``SPIDER_RAY_FANOUT`` forces an exact
    value (tests use it to pin high-fan-out robustness).
    """
    import os

    forced = os.environ.get("SPIDER_RAY_FANOUT")
    if forced:
        target = int(forced)
    else:
        target = max(floor, per_cpu * cluster_cpus(8))
    p = 1
    while p < target:
        p <<= 1
    return min(p, ceil)
