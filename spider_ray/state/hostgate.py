"""HostGate actor pool: per-host priority frontiers + politeness state held
in sharded stateful actors.

This is the streaming-admission form of the frontier the north star names
("sharded ... per-host priority frontier held in actor-pool stateful
stages"): candidates are PUSHED into the shard owning their host
(``urlnorm.shard_of_hosts`` — the same host partitioning as the corpus
buckets and the seen shards), and each wave POPS at most the politeness quota per
host in the reference heap order (priority desc, case-insensitive url desc —
``frontier.rs:23-29``).  Deferred URLs simply remain queued in the shard —
politeness carry-over is free.

The default wave executor keeps the driver-side fold (which reproduces the
oracle's single global canonical order, needed for exact ordering parity);
this pool gives the same ADMITTED SET with per-shard ordering, the layout
that scales past a single driver.  Parity: tests/test_hostgate.py.
"""

from __future__ import annotations

import heapq

import numpy as np
import ray

from ..frontier import _NegStr
from ..urlnorm import shard_of_hosts


@ray.remote
class HostGateShard:
    def __init__(self, shard_id: int, adaptive: bool = False) -> None:
        from .throttle import AutoThrottle, AutoThrottleConfig, DomainRateLimiter

        self.shard_id = shard_id
        self.heaps: dict[str, list] = {}  # host -> [(-prio, _NegStr(key), url)]
        self.enqueued: set[str] = set()  # frontier dedup (url_norm)
        self.delays: dict[str, int] = {}  # robots crawl-delay overrides (ms)
        # adaptive politeness (opt-in; wall-clock dependent, so outside the
        # deterministic parity contract): latency-EMA auto-throttle widens
        # the per-host delay, a 429 token-bucket penalty caps the quota
        self.adaptive = adaptive
        self.throttle = AutoThrottle(AutoThrottleConfig())
        self.limiter = DomainRateLimiter(default_rate=1_000_000.0, default_burst=10_000)
        self.penalized: set[str] = set()

    def set_delays(self, delays: dict[str, int]) -> None:
        self.delays.update(delays)

    def record_latency(self, hosts: list[str], secs: list[float]) -> None:
        """Feed fetch+parse latencies into the per-host EMA (auto_throttle)."""
        for h, s in zip(hosts, secs):
            self.throttle.record_latency(h, s)

    def penalize(self, host: str, retry_after_s: float = 1.0) -> None:
        """HTTP-429 analogue: drain the host's token bucket so subsequent
        waves admit at most ~1 URL per retry_after period."""
        self.limiter.throttle(host, retry_after_s)
        self.penalized.add(host)

    def push(self, urls: list[str], prios: list[int], hosts: list[str]) -> int:
        added = 0
        for url, prio, host in zip(urls, prios, hosts):
            key = url.lower()
            if key in self.enqueued:
                continue
            self.enqueued.add(key)
            heapq.heappush(
                self.heaps.setdefault(host, []), (-prio, _NegStr(key), url)
            )
            added += 1
        return added

    def pop_wave(self, wave_span_ms: int, default_delay_ms: int) -> list[tuple[str, str]]:
        """Up to ``ceil(span/delay)`` URLs per host in heap order; hosts with
        no delay drain fully.  Returns [(url, host)] in per-host heap order,
        hosts in sorted order (deterministic)."""
        out: list[tuple[str, str]] = []
        for host in sorted(self.heaps):
            heap = self.heaps[host]
            if not heap:
                continue
            delay = self.delays.get(host, default_delay_ms)
            if self.adaptive:
                delay = max(delay, self.throttle.delay_for_ms(host))
            quota = len(heap) if delay <= 0 else max(1, -(-wave_span_ms // delay))
            quota = min(quota, len(heap))
            if host in self.penalized:
                # token-bucket cap: pop only as many as tokens are available
                allowed = 0
                while allowed < quota and self.limiter.acquire(host) == 0.0:
                    allowed += 1
                quota = max(allowed, 0)
            for _ in range(quota):
                _, _, url = heapq.heappop(heap)
                out.append((url, host))
            if not heap:
                del self.heaps[host]
        return out

    def size(self) -> int:
        return sum(len(h) for h in self.heaps.values())


class HostGate:
    """Driver facade: batch route by host, pop a wave across all shards."""

    def __init__(self, num_shards: int = 8, adaptive: bool = False) -> None:
        self.num_shards = num_shards
        self.shards = [HostGateShard.remote(i, adaptive) for i in range(num_shards)]

    def set_delays(self, delays: dict[str, int]) -> None:
        if delays:
            ray.get([s.set_delays.remote(delays) for s in self.shards])

    def _by_shard(self, hosts: list[str], *columns: list):
        """Yield (shard actor, its rows of each column) for every shard that
        gets a row; row i goes to the shard of ``hosts[i]``."""
        ids = shard_of_hosts(hosts, self.num_shards)
        for s, shard in enumerate(self.shards):
            pos = np.nonzero(ids == s)[0]
            if len(pos):
                yield shard, [[col[i] for i in pos.tolist()] for col in columns]

    def record_latency(self, hosts: list[str], secs: list[float]) -> None:
        ray.get([
            shard.record_latency.remote(hs, ss)
            for shard, (hs, ss) in self._by_shard(hosts, hosts, secs)
        ])

    def penalize(self, host: str, retry_after_s: float = 1.0) -> None:
        shard = self.shards[int(shard_of_hosts([host], self.num_shards)[0])]
        ray.get(shard.penalize.remote(host, retry_after_s))

    def push(self, urls: list[str], prios: list[int], hosts: list[str]):
        return [
            shard.push.remote(us, ps, hs)
            for shard, (us, ps, hs) in self._by_shard(hosts, urls, prios, hosts)
        ]

    def pop_wave(self, wave_span_ms: int, default_delay_ms: int) -> list[tuple[str, str]]:
        """Concatenated in shard order — per-shard deterministic ordering."""
        parts = ray.get(
            [s.pop_wave.remote(wave_span_ms, default_delay_ms) for s in self.shards]
        )
        out: list[tuple[str, str]] = []
        for part in parts:
            out.extend(part)
        return out

    def size(self) -> int:
        return sum(ray.get([s.size.remote() for s in self.shards]))

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
