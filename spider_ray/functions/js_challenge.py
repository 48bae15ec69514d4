"""JS-challenge (anti-bot interstitial) detector — the diagnostic sibling
of ``functions/needs_js.py``.

Re-expresses ``spider/src/website.rs:860-906``
(``is_safe_javascript_challenge`` + ``JS_SAFE_CHALLENGE_PATTERNS``): a
page is a "safe JavaScript challenge" iff

* its body is non-empty and at most ``MAX_BYTES`` (10,000) bytes —
  challenge interstitials are tiny;
* the bytes are valid UTF-8 (the reference also bails on binary spools);
* the body contains one of the pinned vendor phrases (the reference
  matches with an Aho-Corasick automaton; three literal substring scans
  over ≤10 kB bodies are equivalent and vectorize in Arrow).

The reference returns a bool; this module additionally attributes the
VENDOR by the leftmost match (ties broken by pattern order) — a
diagnostic column, like ``needs_js``.  Over a static pre-fetched corpus
there is nothing to retry, so the detector is a column, not a control
path (SURVEY §2.12 boundary).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

MAX_BYTES = 10_000

# website.rs:861-866 — pattern table, order = vendor attribution order
JS_SAFE_CHALLENGE_PATTERNS: tuple[tuple[str, str], ...] = (
    ("Enable JavaScript and cookies to continue", "cloudflare"),
    ("To continue, please enable JavaScript in your browser settings",
     "akamai_f5"),
    ("Please enable JavaScript to view the page content", "aws_waf"),
)


def challenge_vendor(html: bytes | str | None) -> str | None:
    """Per-page detector (the 1:1 pytest surface): vendor name of the
    leftmost challenge phrase, or None when the page is not a challenge
    (empty, too big, invalid UTF-8, or no phrase).  A ``str`` page is
    measured and checked as its UTF-8 bytes."""
    if isinstance(html, str):
        # lone surrogates survive the encode and fail the decode below
        html = html.encode("utf-8", "surrogatepass")
    if not html or len(html) > MAX_BYTES:
        return None
    try:
        text = html.decode("utf-8")
    except UnicodeDecodeError:
        return None
    best: tuple[int, int] | None = None
    for i, (phrase, _vendor) in enumerate(JS_SAFE_CHALLENGE_PATTERNS):
        pos = text.find(phrase)
        if pos >= 0 and (best is None or (pos, i) < best):
            best = (pos, i)
    return None if best is None else JS_SAFE_CHALLENGE_PATTERNS[best[1]][1]


def js_challenge_pages(corpus_dir: str):
    """``(url, vendor)`` for every challenge page in the corpus.

    Vectorized gate-then-scan: the Parquet scan reads only (url, html);
    the size gate is an Arrow ``binary_length`` filter, so the per-row
    Python decode+find runs ONLY on the tiny (≤10 kB) survivors — on a
    web corpus interstitials are a small fraction, and each is bounded.
    """
    import ray.data

    ds = ray.data.read_parquet(corpus_dir, columns=["url", "html"])

    def detect(batch: pa.Table) -> pa.Table:
        lens = pc.binary_length(pc.coalesce(batch.column("html"),
                                            pa.scalar(b"", pa.binary())))
        small = pc.and_(pc.greater(lens, 0), pc.less_equal(lens, MAX_BYTES))
        t = batch.filter(small)
        urls, vendors = [], []
        for url, html in zip(t.column("url").to_pylist(),
                             t.column("html").to_pylist()):
            v = challenge_vendor(html)
            if v is not None:
                urls.append(url)
                vendors.append(v)
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "vendor": pa.array(vendors, pa.string()),
            }
        )

    return ds.map_batches(detect, batch_format="pyarrow")


def js_challenge_report(corpus_dir: str):
    """Per-vendor challenge-page counts — stable 3-row output (every
    vendor present, zero included) so the corpus-health dashboard shape
    never depends on what the crawl hit."""
    import ray.data

    hits = js_challenge_pages(corpus_dir)
    counts: dict[str, int] = {v: 0 for _, v in JS_SAFE_CHALLENGE_PATTERNS}
    for b in hits.iter_batches(batch_format="pyarrow", batch_size=None):
        for v in b.column("vendor").to_pylist():
            counts[v] += 1
    vendors = [v for _, v in JS_SAFE_CHALLENGE_PATTERNS]
    return pa.table(
        {
            "vendor": pa.array(vendors, pa.string()),
            "n_pages": pa.array([counts[v] for v in vendors], pa.int64()),
        }
    )
