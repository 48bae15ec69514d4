"""Per-layer tracing for the crawl benchmark.

Three sources, all read from the benchmark's side:

* spans around driver-side calls into each layer, recorded by wrapping the
  functions named in ``TARGETS`` (private ones where a layer has no public
  entry point); a layer whose functions are all gone is reported missing;
* ``ray.timeline()`` for the work inside Ray workers;
* single-thread rates of the parse, URL-normalise and URL-score kernels over
  the workload's own pages and links.

Spans are kept in memory and folded into one dict of metrics per measured
unit (a crawl, or a stopped + resumed crawl pair).
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# layer -> functions whose calls are that layer's spans, as (module, attribute)
TARGETS = {
    "state.pool_start": [
        ("spider_ray.state.admission", "AdmissionPool.__init__"),
        ("spider_ray.state.seen", "UrlSeen.__init__"),
    ],
    "state.seen": [
        ("spider_ray.state.seen", "UrlSeen.contains_batch"),
        ("spider_ray.state.seen", "UrlSeen.insert_batch"),
        ("spider_ray.state.seen", "UrlSeen.contains_arrow"),
        ("spider_ray.state.seen", "UrlSeen.insert_arrow_async"),
        ("spider_ray.state.admission", "AdmissionPool.contains_batch"),
        ("spider_ray.state.admission", "AdmissionPool.insert_batch"),
    ],
    "admission.fold": [
        ("spider_ray.pipelines.crawl", "admit_wave"),
        ("spider_ray.pipelines.crawl", "RayCrawler._admit_fast"),
        ("spider_ray.state.admission", "AdmissionPool.finalize_wave"),
    ],
    "fetch.index_build": [("spider_ray.stages.fetch", "CorpusIndex.__init__")],
    "robots.load": [("spider_ray.pipelines.crawl", "RayCrawler._robots")],
    "ckpt.write": [
        ("spider_ray.pipelines.crawl", "RayCrawler._ckpt_wave"),
        ("spider_ray.pipelines.crawl", "RayCrawler._ckpt_wave_fast"),
    ],
    "ckpt.restore": [("spider_ray.pipelines.crawl", "RayCrawler._restore")],
    "crawl.barrier": [("spider_ray.pipelines.crawl", "RayCrawler._control_stop")],
}

# timeline task categories of the worker-side fetch+parse tasks: the raw
# task of the sharded executor, and the Ray Data operator of the others
FETCH_PARSE_CATS = ("_fetch_parse_task_impl", "ParsePages")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float]] = []  # (layer, start, end)
        self.missing_layers: list[str] = []
        self.missing_targets: list[str] = []

    def install(self) -> None:
        """Wrap every function in ``TARGETS`` that still exists."""
        for layer, targets in TARGETS.items():
            found = 0
            for module_name, attr in targets:
                owner, name = _resolve(module_name, attr)
                if owner is None:
                    self.missing_targets.append(f"{module_name}.{attr}")
                    continue
                setattr(owner, name, self._wrap(layer, getattr(owner, name)))
                found += 1
            if not found:
                self.missing_layers.append(layer)

    def _wrap(self, layer: str, fn):
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if layer == "state.pool_start":
                    _first_call_answered(args[0])
                return out
            finally:
                spans.append((layer, t0, time.perf_counter()))

        return wrapper

    # -- folding ------------------------------------------------------------

    def unit_metrics(self, windows, timeline, result_metrics, n_fetched, html_mb,
                     n_seeds) -> dict[str, float]:
        """Per-layer metrics of one measured unit.

        ``windows``: (perf_start, perf_end, wall_start_us, wall_end_us) of each
        crawl in the unit; ``result_metrics``: the per-wave records of the
        unit's final ``CrawlResult``."""

        def spans(layer):
            return [(a, b) for lay, a, b in self.spans
                    if lay == layer and any(s <= a <= e for s, e, _, _ in windows)]

        def total(layer):
            return sum(b - a for a, b in spans(layer))

        wave_s = []
        for s, e, _, _ in windows:
            barriers = sorted(a for a, _ in spans("crawl.barrier") if s <= a <= e)
            # time between wave barriers; wave 0 is left out, as its span
            # also holds the actor-pool start
            wave_s.extend(b - a for a, b in zip(barriers, barriers[1:]))
        candidates = sum(int(w.get("candidates", 0)) for w in result_metrics)
        admitted = sum(int(w.get("admitted", 0)) for w in result_metrics) - n_seeds
        seen_spans = spans("state.seen")
        events = [e for e in timeline
                  if any(ws <= e.get("ts", 0) <= we for _, _, ws, we in windows)]

        def dur(name=None, cats=()):
            return sum(e.get("dur", 0) for e in events
                       if (name is None or e["name"] == name)
                       and (not cats or any(c in e.get("cat", "") for c in cats))) / 1e6

        return {
            "state.pool_start_s": total("state.pool_start"),
            "state.seen_calls": len(seen_spans),
            "state.seen_s": sum(b - a for a, b in seen_spans),
            "admission.fold_s": total("admission.fold"),
            "admission.candidates": candidates,
            "admission.admitted": admitted,
            "admission.admit_ratio": admitted / candidates if candidates else 0.0,
            "fetch.index_build_s": total("fetch.index_build"),
            "fetch_parse.task_s": dur(cats=FETCH_PARSE_CATS),
            "fetch_parse.pages": n_fetched,
            "fetch_parse.html_mb": html_mb,
            "ray.tasks": sum(1 for e in events if e["name"] == "task:execute"),
            "ray.deserialize_s": dur("task:deserialize_arguments"),
            "ray.store_outputs_s": dur("task:store_outputs"),
            "crawl.waves": len(result_metrics),
            "crawl.wave_s": statistics.median(wave_s) if wave_s else 0.0,
            "robots.load_s": total("robots.load"),
            "ckpt.write_s": total("ckpt.write"),
            "ckpt.restore_s": total("ckpt.restore"),
        }


def _resolve(module_name: str, attr: str):
    """(owner, name) of ``module.attr`` with a dotted ``attr``, or (None, None)."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if isinstance(owner, type):
        return (owner, name) if name in owner.__dict__ else (None, None)
    return (owner, name) if hasattr(owner, name) else (None, None)


def _first_call_answered(pool) -> None:
    """Block until every actor of a just-built seen/admission pool answers."""
    import ray

    ray.get([s.size.remote() for s in pool.shards])


def read_timeline(wait_s: float = 1.5) -> list[dict]:
    """``ray.timeline()`` after the workers have flushed their task events
    (they report about once a second)."""
    import ray

    time.sleep(wait_s)
    return ray.timeline()


def kernel_rates(job, rows: list[dict], visited: list[str], limit: int = 300) -> dict[str, float]:
    """Single-thread rates of the parse, normalise and score kernels over
    the workload's own visited HTML pages and the links found on them."""
    import pyarrow as pa

    from spider_ray.encoding import decode_html
    from spider_ray.frontier import score_urls_arrow
    from spider_ray.oracle import ScopeRouter
    from spider_ray.parsepage import parse_page
    from spider_ray.urlnorm import normalize_url, url_host

    by_url = {r["url"]: r for r in rows}
    pages = [by_url[u] for u in visited
             if u in by_url and by_url[u]["status"] == 200
             and by_url[u].get("content_type", "text/html") == "text/html"][:limit]
    router = ScopeRouter(job)
    docs = [(decode_html(p["html"]), p["url"], *router.for_host(url_host(p["url"])))
            for p in pages]
    t0 = time.perf_counter()
    parsed = [parse_page(html, url, root, sel, job.config.external_domains,
                         want_signature=job.config.normalize)
              for html, url, sel, root in docs]
    parse_s = time.perf_counter() - t0
    links = [link for p in parsed for link in p.links]
    arr = pa.array(links, pa.string())
    return {
        "parse.parse_page_per_s": len(docs) / parse_s,
        "urlnorm.normalize_per_s": _rate(lambda: [normalize_url(u) for u in links], len(links)),
        "frontier.score_per_s": _rate(lambda: score_urls_arrow(arr, 1), len(links)),
    }


def _rate(fn, items: int, min_s: float = 0.05) -> float:
    """items/s of ``fn``, repeated until ``min_s`` has passed."""
    reps, t0 = 0, time.perf_counter()
    while True:
        fn()
        reps += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return reps * items / elapsed
