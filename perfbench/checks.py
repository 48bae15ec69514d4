"""Output checks, computed apart from the engine.

The reference for crawl order is ``spider_ray.oracle.crawl_oracle`` run over
the same generated rows; the reference for extracted text is the generator's
golden ``text`` column, which is built before the HTML around it.  The
robots check uses its own small matcher, not ``spider_ray.robots``.  Every
function returns a list of error strings (empty = pass).
"""

from __future__ import annotations

import os
import re
from urllib.parse import urlsplit

import pyarrow.parquet as pq


def _host(url: str) -> str:
    return (urlsplit(url).hostname or "").lower()


def check_visited(visited: list[str], expected: list[str], seed_hosts: set[str],
                  what: str) -> list[str]:
    """Visited list equals the oracle's, in order; no URL twice
    (case-insensitively); every URL on a seed's host."""
    errors = []
    if visited != expected:
        at = next(
            (i for i, (a, b) in enumerate(zip(visited, expected)) if a != b),
            min(len(visited), len(expected)),
        )
        errors.append(
            f"{what}: visited list differs from the oracle at position {at} "
            f"(engine {len(visited)} urls, oracle {len(expected)})"
        )
    if len({u.lower() for u in visited}) != len(visited):
        errors.append(f"{what}: a url was visited twice")
    off = [u for u in visited if _host(u) not in seed_hosts]
    if off:
        errors.append(f"{what}: {len(off)} visited urls off the seed hosts, e.g. {off[0]}")
    return errors


def html_pages(rows: list[dict]) -> dict[str, str]:
    """url -> golden text for every row that is an HTML page served with 200
    on the first attempt (robots.txt, sitemap.xml and flaky rows excluded)."""
    return {
        r["url"]: r["text"]
        for r in rows
        if r["status"] == 200
        and not r.get("flaky_until")
        and r.get("content_type", "text/html") == "text/html"
        and not r["url"].endswith(("robots.txt", "sitemap.xml"))
    }


def check_text(pages, visited: list[str], golden: dict[str, str]) -> list[str]:
    """Each visited HTML page has one page row whose extracted ``text`` is
    byte-identical to the golden text."""
    if pages is None:
        return ["polite_scrape: the crawl returned no page rows"]
    urls = pages.column("url").to_pylist()
    texts = pages.column("text").to_pylist()
    dests = pages.column("final_redirect_destination").to_pylist()
    by_url: dict[str, list[str]] = {}
    for u, t, d in zip(urls, texts, dests):
        if d is None:
            by_url.setdefault(u, []).append(t)
    wanted = [u for u in visited if u in golden]
    missing = [u for u in wanted if len(by_url.get(u, ())) != 1]
    wrong = [u for u in wanted if len(by_url.get(u, ())) == 1 and by_url[u][0] != golden[u]]
    errors = []
    if not wanted:
        errors.append("polite_scrape: no visited HTML page to check text on")
    if missing:
        errors.append(f"polite_scrape: {len(missing)} visited HTML pages lack exactly one row, e.g. {missing[0]}")
    if wrong:
        errors.append(f"polite_scrape: {len(wrong)} pages' text differs from the golden text, e.g. {wrong[0]}")
    return errors


def _robots_rules(status: int | None, body: str | None):
    """Disallow patterns that apply to a crawler sending no product token
    (the ``User-agent: *`` group), as compiled regexes; ``None`` = everything
    disallowed (401/403), ``[]`` = nothing disallowed."""
    if status in (401, 403):
        return None
    if status != 200 or not body:
        return []
    rules, in_star, last_was_agent = [], False, False
    for line in body.split("\n"):
        line = line.split("#", 1)[0].strip()
        if ":" not in line:
            continue
        key, value = (p.strip() for p in line.split(":", 1))
        key = key.lower()
        if key == "user-agent":
            in_star = (in_star and last_was_agent) or value == "*"
            last_was_agent = True
            continue
        last_was_agent = False
        if key == "disallow" and in_star and value:
            pattern = re.escape(value).replace(r"\*", ".*")
            if pattern.endswith(r"\$"):
                pattern = pattern[:-2] + "$"
            rules.append(re.compile(pattern))
    return rules


def check_robots(visited: list[str], rows: list[dict], seed_hosts: set[str]) -> list[str]:
    """No visited URL falls under a Disallow rule of its host's robots.txt."""
    robots = {_host(r["url"]): (r["status"], r["html"].decode("utf-8", "replace"))
              for r in rows if urlsplit(r["url"]).path == "/robots.txt"}
    rules = {h: _robots_rules(*robots.get(h, (404, None))) for h in seed_hosts}
    bad = []
    for u in visited:
        host_rules = rules.get(_host(u), [])
        parts = urlsplit(u)
        path = (parts.path or "/") + (f"?{parts.query}" if parts.query else "")
        if host_rules is None or any(r.match(path) for r in host_rules):
            bad.append(u)
    if bad:
        return [f"polite_scrape: {len(bad)} visited urls are disallowed by robots.txt, e.g. {bad[0]}"]
    return []


def check_out_dir(out_dir: str, visited: list[str]) -> list[str]:
    """``out_dir`` holds each visited page exactly once."""
    urls = []
    for dirpath, _, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".parquet"):
                urls.extend(pq.read_table(os.path.join(dirpath, f), columns=["url"])
                            .column("url").to_pylist())
    if sorted(urls) != sorted(visited):
        extra = len(urls) - len(set(urls))
        return [f"resume: out_dir holds {len(urls)} page rows ({extra} repeated) "
                f"for {len(visited)} visited urls"]
    return []


def check_markdown(urls_nonempty: list[str], visited: list[str],
                   golden: dict[str, str]) -> list[str]:
    """One non-empty markdown row per visited HTML page."""
    counts: dict[str, int] = {}
    for u in urls_nonempty:
        counts[u] = counts.get(u, 0) + 1
    bad = [u for u in visited if u in golden and counts.get(u) != 1]
    if bad:
        return [f"polite_scrape: {len(bad)} visited HTML pages lack exactly one "
                f"non-empty markdown row, e.g. {bad[0]}"]
    return []
