"""Parse stage: fetched page rows → parsed page rows, as Arrow tables.

One pass per page over the html bytes produces links + metadata + signature +
extracted text — mirroring spider's single streaming rewriter pass
(``Page::new_page_streaming``, ``page.rs:4641+``: fetch + inline link
extraction + metadata + signature in one scan).

This is a callable CLASS: the scope selectors / robots config are built once
in ``__init__``; the crawl ``ray.put``s one instance per wave and every
fetch+parse task of the wave calls it on its block
(``pipelines.crawl._fetch_parse_task_impl``).  Input: (url, html[, status,
content_type]); the output drops ``html`` — wide binary never leaves the
task.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..config import CrawlConfig, CrawlJob
from ..encoding import decode_html
from ..oracle import ScopeRouter
from ..parsepage import parse_page
from ..semantics import gate_content
from ..urlnorm import url_host

PARSED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("host", pa.string()),
        ("status_code", pa.int32()),
        ("signature", pa.uint64()),
        ("title", pa.string()),
        ("description", pa.string()),
        ("og_image", pa.string()),
        ("text", pa.string()),
        ("links", pa.list_(pa.string())),
        ("final_redirect_destination", pa.string()),
        ("blocked_crawl", pa.bool_()),
        ("truncated", pa.bool_()),
    ]
)


class ParsePages:
    """Block parser (pyarrow in / pyarrow out).  ``wave`` is stamped
    on every output row (per-partition lineage for checkpoint/resume).

    Redirect support: the driver resolves chains pre-fetch, so a fetched row
    may be consumed by several REQUESTED urls (``redirect_backmap``:
    final url → requested urls).  Each consumer gets its own output row with
    ``url`` = requested, ``final_redirect_destination`` = final, links/scope
    parsed under the requested url's crawl scope with the FINAL url as join
    base (``page.rs``: links resolve against the response URL).  Finals
    fetched only on behalf of a redirect (``redirect_targets_only``) emit no
    row of their own."""

    def __init__(
        self,
        job: CrawlJob,
        wave: int = 0,
        redirect_backmap: dict[str, list[str]] | None = None,
        redirect_targets_only: frozenset[str] = frozenset(),
        want_text: bool = True,
    ):
        self.job = job
        self.wave = wave
        self.config: CrawlConfig = job.config
        self.router = ScopeRouter(job)
        self.backmap = redirect_backmap or {}
        self.targets_only = redirect_targets_only
        # crawls that neither keep nor write pages skip the text
        # extraction pass — links/metadata/signature don't need it
        self.want_text = want_text
        # per-instance resolve memos: host-level scope checks computed once per
        # (response authority, requested host); crawl_root-based generic
        # joins (absolute/external hrefs) memoized across pages — both
        # page-independent by construction (see parsepage.LinkResolver)
        self._hs_cache: dict[tuple, tuple] = {}
        self._generic_memo: dict[tuple, str | None] = {}

    def _host_state(self, url: str, host: str, sel, root):
        i = url.find("://")
        j = url.find("/", i + 3) if i >= 0 else -1
        aprefix = url if j < 0 else url[:j]
        key = (aprefix, host)
        hs = self._hs_cache.get(key)
        if hs is None:
            from ..parsepage import LinkResolver

            hs = LinkResolver(
                url, root, sel, self.config.external_domains
            ).host_state()
            self._hs_cache[key] = hs
        return hs

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        htmls = batch.column("html").to_pylist()
        statuses = (
            batch.column("status").to_pylist()
            if "status" in batch.column_names
            else [200] * len(urls)
        )
        ctypes = (
            batch.column("content_type").to_pylist()
            if "content_type" in batch.column_names
            else [None] * len(urls)
        )
        cfg = self.config
        out_urls, out_status, out_dest, out_blocked, out_trunc = [], [], [], [], []
        hosts, sigs, titles, descs, ogs, texts, links_col = [], [], [], [], [], [], []
        for url, html, status, ctype in zip(urls, htmls, statuses, ctypes):
            consumers = [url] if url not in self.targets_only else []
            consumers += self.backmap.get(url, ())
            # fetch-time content gates: only_html Content-Type block +
            # max_page_bytes truncation (semantics.gate_content)
            html, truncated = gate_content(html, ctype, cfg)
            text_html = decode_html(html) if (consumers and html is not None) else ""
            for requested in consumers:
                host = url_host(requested)
                sel, root = self.router.for_host(host)
                ex = parse_page(
                    text_html,
                    url,  # join base = response URL
                    root,
                    sel,
                    cfg.external_domains,
                    cfg.full_resources,
                    want_signature=cfg.normalize,
                    want_text=self.want_text,
                    host_state=self._host_state(url, host, sel, root),
                    generic_memo=self._generic_memo,
                )
                sig = ex.signature if cfg.normalize else None
                dest = url if requested != url else None
                blocked = False
                if cfg.on_should_crawl is not None:
                    blocked = not cfg.on_should_crawl(
                        {
                            "url": requested,
                            "status_code": status,
                            "title": ex.title,
                            "description": ex.description,
                            "og_image": ex.og_image,
                            "text": ex.text,
                            "signature": sig,
                            "final_redirect_destination": dest,
                        }
                    )
                out_urls.append(requested)
                out_status.append(status)
                out_dest.append(dest)
                out_blocked.append(blocked)
                out_trunc.append(truncated)
                hosts.append(host)
                sigs.append(sig)
                titles.append(ex.title)
                descs.append(ex.description)
                ogs.append(ex.og_image)
                texts.append(ex.text)
                # a blocked page's links are suppressed before they ever
                # leave the worker (website.rs:8033-8040)
                links_col.append([] if blocked else ex.links)
        return pa.table(
            {
                "url": pa.array(out_urls, pa.string()),
                "host": pa.array(hosts, pa.string()),
                "status_code": pa.array(out_status, pa.int32()),
                "signature": pa.array(sigs, pa.uint64()),
                "title": pa.array(titles, pa.string()),
                "description": pa.array(descs, pa.string()),
                "og_image": pa.array(ogs, pa.string()),
                "text": pa.array(texts, pa.string()),
                "links": pa.array(links_col, pa.list_(pa.string())),
                "final_redirect_destination": pa.array(out_dest, pa.string()),
                "blocked_crawl": pa.array(out_blocked, pa.bool_()),
                "truncated": pa.array(out_trunc, pa.bool_()),
                "wave": pa.array([self.wave] * len(out_urls), pa.int32()),
            }
        )


def missing_rows(
    urls: list[str],
    wave: int,
    statuses: list[int] | None = None,
    destinations: list[str | None] | None = None,
) -> pa.Table:
    """Synthesized rows for URLs with no fetchable content: corpus misses
    (status 404), aborted redirect chains (status 0), and chains ending on a
    missing target (404 + ``final_redirect_destination``).  Vectorized —
    waves can be missing-heavy when the link graph points at absent URLs."""
    import pyarrow.compute as pc

    n = len(urls)
    url_arr = pa.array(urls, pa.string())
    # host: the shared routing-host derivation (C-level regex, no per-row python)
    from ..urlnorm import hosts_of_keys_arrow

    hosts = hosts_of_keys_arrow(pc.utf8_lower(url_arr))
    return pa.table(
        {
            "url": url_arr,
            "host": hosts,
            "status_code": (
                pa.array(np.full(n, 404, dtype=np.int32))
                if statuses is None
                else pa.array(statuses, pa.int32())
            ),
            "signature": pa.nulls(n, pa.uint64()),
            "title": pa.nulls(n, pa.string()),
            "description": pa.nulls(n, pa.string()),
            "og_image": pa.nulls(n, pa.string()),
            "text": pa.array([""] * n, pa.string()),
            "links": pa.ListArray.from_arrays(
                pa.array(np.zeros(n + 1, dtype=np.int32)), pa.array([], pa.string())
            ),
            "final_redirect_destination": (
                pa.nulls(n, pa.string())
                if destinations is None
                else pa.array(destinations, pa.string())
            ),
            "blocked_crawl": pa.array(np.zeros(n, dtype=bool)),
            "truncated": pa.array(np.zeros(n, dtype=bool)),
            "wave": pa.array(np.full(n, wave, dtype=np.int32)),
        }
    )
