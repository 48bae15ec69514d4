"""JS-challenge detector (website.rs:860-906 1:1): size gate, UTF-8
gate, the pinned vendor phrase table, leftmost-match attribution — over
a custom corpus where every branch fires."""

import datetime as dt

import pytest

CF = b"<html><body>Enable JavaScript and cookies to continue</body></html>"
AK = (b"<p>To continue, please enable JavaScript in your browser "
      b"settings</p>")
AWS = b"Please enable JavaScript to view the page content"


def test_challenge_vendor_gates():
    from spider_ray.functions.js_challenge import MAX_BYTES, challenge_vendor

    assert challenge_vendor(CF) == "cloudflare"
    assert challenge_vendor(AK) == "akamai_f5"
    assert challenge_vendor(AWS) == "aws_waf"
    # plain page
    assert challenge_vendor(b"<p>hello</p>") is None
    # empty / None / oversize (reference: size 0 or > 10_000 -> false)
    assert challenge_vendor(b"") is None
    assert challenge_vendor(None) is None
    assert challenge_vendor(b"x" * MAX_BYTES + CF) is None
    exactly = CF + b" " * (MAX_BYTES - len(CF))
    assert len(exactly) == MAX_BYTES and challenge_vendor(exactly) == "cloudflare"
    # invalid UTF-8 -> false even with the phrase present
    assert challenge_vendor(b"\xff\xfe" + CF) is None
    # leftmost match wins; pattern order breaks a position tie
    both = AWS + b" ... " + CF
    assert challenge_vendor(both) == "aws_waf"
    assert challenge_vendor(CF + b" " + AWS) == "cloudflare"


def test_challenge_vendor_str_input():
    """A str page is detected like its UTF-8 bytes, not read as no
    challenge."""
    from spider_ray.functions.js_challenge import MAX_BYTES, challenge_vendor

    assert challenge_vendor(CF.decode()) == "cloudflare"
    assert challenge_vendor(AWS.decode() + " " + CF.decode()) == "aws_waf"
    assert challenge_vendor("") is None
    # the size gate counts UTF-8 bytes, not characters
    assert challenge_vendor("é" * (MAX_BYTES // 2) + CF.decode()) is None
    # a lone surrogate is not valid UTF-8
    assert challenge_vendor("\ud800" + CF.decode()) is None


def test_report_over_custom_corpus(ray_session, tmp_path):
    from spider_ray.fixtures import write_corpus_parquet
    from spider_ray.functions.js_challenge import (
        js_challenge_pages,
        js_challenge_report,
    )

    ts = dt.datetime(2026, 1, 1)

    def row(i, html):
        return {"url": f"https://www.site0.example/p{i}", "warc_ts": ts,
                "html": html, "text": "", "lang": "en", "status": 200}

    rows = [
        row(0, CF),
        row(1, CF),
        row(2, AK),
        row(3, b"\xff\xfe" + AWS),          # invalid utf8: not counted
        row(4, b"y" * 10_001 + AWS),         # oversize: not counted
        row(5, b"<p>ordinary page</p>"),
        row(6, AWS + b" then " + CF),        # leftmost -> aws_waf
    ]
    cdir = str(tmp_path / "corpus")
    write_corpus_parquet(rows, cdir, n_buckets=2)

    pages = js_challenge_pages(cdir).to_pandas()
    got = dict(zip(pages.url, pages.vendor))
    assert got == {
        "https://www.site0.example/p0": "cloudflare",
        "https://www.site0.example/p1": "cloudflare",
        "https://www.site0.example/p2": "akamai_f5",
        "https://www.site0.example/p6": "aws_waf",
    }

    rep = js_challenge_report(cdir)
    counts = dict(zip(rep.column("vendor").to_pylist(),
                      rep.column("n_pages").to_pylist()))
    assert counts == {"cloudflare": 2, "akamai_f5": 1, "aws_waf": 1}


def test_oracle_sql_agrees_on_challenge_corpus(ray_session, tmp_path):
    """The driver oracle's hex-anchored scan must agree with the engine
    on a corpus that HAS challenge pages (the sf fixture has none, so
    this pins the non-vacuous case)."""
    import duckdb

    from spider_ray.fixtures import write_corpus_parquet
    from spider_ray.functions.js_challenge import js_challenge_report

    ts = dt.datetime(2026, 1, 1)
    rows = [
        {"url": f"https://www.site0.example/p{i}", "warc_ts": ts,
         "html": h, "text": "", "lang": "en", "status": 200}
        for i, h in enumerate([CF, AK, AWS, AWS + b"~" + CF,
                               b"<p>plain</p>", b"E" * 30])
    ]
    cdir = str(tmp_path / "corpus")
    write_corpus_parquet(rows, cdir, n_buckets=2)

    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "entrymod", "/root/repo/__ray_entry__.py"
    )
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    sql = m.oracle_sql()["js_challenge_report"]
    # retarget the oracle at this corpus
    import re

    sql = re.sub(r"read_parquet\('[^']+'\)",
                 f"read_parquet('{cdir}/*/*.parquet')", sql)
    want = {
        r[0]: r[1]
        for r in duckdb.sql(sql).fetchall()
    }
    rep = js_challenge_report(cdir)
    got = dict(zip(rep.column("vendor").to_pylist(),
                   rep.column("n_pages").to_pylist()))
    assert got == want == {"cloudflare": 1, "akamai_f5": 1, "aws_waf": 2}
