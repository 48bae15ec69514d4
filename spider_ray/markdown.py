"""Deterministic HTML → markdown / commonmark / xml transforms — the scrape
return-format surface of the reference CLI.

Reference semantics (the WHAT): ``spider_cli`` scrape output is the page
content transformed per ``--return-format: markdown (default), raw,
commonmark, text, xml`` (``spider_cli/src/options/args.rs:123-125``,
``spider_cli/src/main.rs:527-560``; the conversion itself lives in the
external ``spider_transformations`` crate — not in-tree, so the HOW here is
this module's own pinned spec, analogous to ``textextract.py``).

Pinned markdown spec (single pass over ``htmlparse.tokenize``):

* ``<script> <style> <noscript> <iframe> <template> <head>`` subtrees and
  comments are dropped (same skip set as the text extractor).
* Headings ``h1..h6`` → ATX (``#``·level + space + inline content).
* ``p/div/section/...`` block containers → paragraphs; blocks joined with
  one blank line; no trailing newline; empty page → "".
* ``<a href>`` → ``[text](href)`` (href entity-decoded, emitted verbatim);
  an anchor without href contributes only its text.  ``<img>`` →
  ``![alt](src)``.
* ``strong/b`` → ``**..**``, ``em/i`` → ``*..*``, inline ``code`` →
  `` `..` `` (markers emitted at tag boundaries; unbalanced HTML emits
  unbalanced markers — deterministic garbage-in-garbage-out).
* ``ul``/``ol`` nest with 2-space indent per level; items ``- `` for ul
  (``* `` in commonmark), ``{n}. `` for ol (counter per list level).
* ``br`` = line break within the block; ``hr`` → ``---``.
* ``pre`` → fenced block (content verbatim, entities decoded);
  ``blockquote`` prefixes each contained line with ``> `` per depth.
* Tables: one ``| c | c |`` line per row, ``| --- |`` separator after the
  first row of each table.
* Inline whitespace runs collapse to a single space (pre excepted).

``commonmark`` = the same converter with markdown-special characters in
text content backslash-escaped (`` \\`*_[] `` and leading ``#``) and ``*``
list bullets — the "spec-strict" variant.

``xml`` = token-level reserialization: lowercase tags, attributes
double-quoted in source order (values XML-escaped), text XML-escaped,
void elements self-closed, comments dropped, no tag balancing (documented:
it mirrors the token stream, not a DOM).

``raw`` = the decoded HTML unchanged; ``text`` = ``textextract.extract_text``.
"""

from __future__ import annotations

import html as _htmllib
import re

from .htmlparse import (COMMENT, END, RAWTEXT, START, TEXT, _RAW_CLOSE_RE,
                        _RAW_TEXT, _TOKEN_RE, parse_attrs, tokenize)
from .textextract import extract_text

RETURN_FORMATS = ("markdown", "commonmark", "raw", "text", "xml")

_SKIP_SUBTREE = {"script", "style", "noscript", "iframe", "template", "head"}

_BLOCK_CONTAINERS = {
    "p", "div", "section", "article", "aside", "header", "footer", "main",
    "nav", "figure", "figcaption", "address", "form", "fieldset", "dl",
    "dt", "dd", "caption", "body", "html", "tr", "thead", "tbody", "tfoot",
}

_HEADINGS = {f"h{i}": i for i in range(1, 7)}

_VOID = {
    "br", "img", "hr", "meta", "link", "input", "area", "base", "col",
    "embed", "source", "track", "wbr",
}

_WS_RE = re.compile(r"\s+")
_CM_ESCAPE_RE = re.compile(r"([\\`*_\[\]])")

# A clean ASCII string with no double space and none of the other ASCII
# \s characters is already in collapsed form, so the regex can be skipped
# (hot path: one _collapse per text node per page).  The check is an
# explicit or-chain of C-level `in` scans — measured 2.4x faster than the
# equivalent any()-genexpr and regex-search formulations on fixture text.
def _collapse(s: str) -> str:
    if (
        "  " in s
        or not s.isascii()
        or "\n" in s
        or "\t" in s
        or "\r" in s
        or "\x0b" in s
        or "\x0c" in s
        or "\x1c" in s
        or "\x1d" in s
        or "\x1e" in s
        or "\x1f" in s
    ):
        return _WS_RE.sub(" ", s)
    return s


class _MarkdownEmitter:
    def __init__(self, commonmark: bool = False):
        self.commonmark = commonmark
        # (text, kind): kind "li"/"row" blocks join their same-kind
        # predecessor with a single newline (tight lists/tables); "para"
        # blocks are separated by one blank line
        self.blocks: list[tuple[str, str]] = []
        self.lines: list[str] = []  # lines of the current block
        self.inline: list[str] = []  # segments of the current line
        self.list_stack: list[dict] = []
        self.quote_depth = 0
        self.pre_depth = 0
        self.pre_buf: list[str] = []
        self.anchor_stack: list[str | None] = []
        self.table_stack: list[dict] = []  # {emitted_header: bool}
        self.cells: list[str] | None = None

    # -- text ---------------------------------------------------------------

    def text(self, raw: str):
        if self.pre_depth:
            self.pre_buf.append(_htmllib.unescape(raw))
            return
        s = _htmllib.unescape(raw) if "&" in raw else raw
        s = _collapse(s)
        if self.commonmark:
            s = _CM_ESCAPE_RE.sub(r"\\\1", s)
        if s:
            self.inline.append(s)

    def marker(self, m: str):
        """Emphasis/code markers are never escaped or collapsed away."""
        self.inline.append(m)

    # -- flushing -----------------------------------------------------------

    def _inline_text(self) -> str:
        joined = "".join(self.inline)
        self.inline.clear()
        return _collapse(joined).strip()

    def break_line(self):
        if not self.inline:  # most flush points have no pending inline text
            return
        s = self._inline_text()
        if s:
            self.lines.append(s)

    def flush_block(self, prefix: str = "", kind: str = "para"):
        self.break_line()
        if not self.lines:
            return
        body = "\n".join(self.lines)
        self.lines.clear()
        if prefix:
            body = prefix + body.replace("\n", "\n" + " " * len(prefix))
        if self.quote_depth:
            q = "> " * self.quote_depth
            body = "\n".join(q + line for line in body.split("\n"))
        if self.commonmark and body.startswith("#"):
            body = "\\" + body
        self.blocks.append((body, kind))

    def flush_heading(self, level: int):
        self.break_line()
        if not self.lines:
            return
        text = " ".join(self.lines)
        self.lines.clear()
        self.blocks.append(("#" * level + " " + text, "para"))

    def flush_list_item(self):
        if not self.list_stack:
            self.flush_block()
            return
        top = self.list_stack[-1]
        indent = "  " * (len(self.list_stack) - 1)
        if top["type"] == "ol":
            top["n"] += 1
            bullet = f"{top['n']}. "
        else:
            bullet = "* " if self.commonmark else "- "
        self.flush_block(prefix=indent + bullet, kind="li")

    def flush_row(self):
        if self.cells is None:
            return
        self.break_line()
        row = self.cells
        self.cells = None
        self.lines.clear()
        if not row:
            return
        self.blocks.append(("| " + " | ".join(row) + " |", "row"))
        if self.table_stack and not self.table_stack[-1]["emitted_header"]:
            self.table_stack[-1]["emitted_header"] = True
            self.blocks.append(("|" + " --- |" * len(row), "row"))

    def result(self) -> str:
        self.flush_block()
        out: list[str] = []
        prev_kind = None
        for body, kind in self.blocks:
            if not out:
                out.append(body)
            elif kind in ("li", "row") and kind == prev_kind:
                out.append("\n" + body)
            else:
                out.append("\n\n" + body)
            prev_kind = kind
        return "".join(out)


def _to_markdown_tokenized(html: str, commonmark: bool) -> str:
    """Reference dispatcher over the ``htmlparse.tokenize`` generator —
    the SPEC for :func:`_to_markdown` (which inlines the tokenizer the way
    ``parse_page`` does; parity pinned by tests/test_markdown.py's
    corpus-wide cross-check)."""
    em = _MarkdownEmitter(commonmark)
    skip_depth = 0
    for kind, tag, attrs_str, raw in tokenize(html):
        if kind == COMMENT:
            continue
        if kind == TEXT:
            if not skip_depth:
                em.text(tag)
            continue
        if kind == RAWTEXT:
            # script/style arrive here and are dropped; textarea kept as text
            if not skip_depth and tag == "textarea" and raw:
                em.text(raw)
            continue
        if kind == START:
            if tag in _SKIP_SUBTREE:
                self_closing = (attrs_str or "").rstrip().endswith("/")
                em.flush_block()
                if tag not in ("script", "style") and not self_closing:
                    skip_depth += 1
                continue
            if skip_depth:
                continue
            attrs = parse_attrs(attrs_str or "") if attrs_str else []

            def attr(name: str) -> str | None:
                for k, v in attrs:
                    if k == name:
                        return v
                return None

            if tag in _HEADINGS:
                em.flush_block()
            elif tag == "pre":
                em.flush_block()
                em.pre_depth += 1
            elif tag == "blockquote":
                em.flush_block()
                em.quote_depth += 1
            elif tag in ("ul", "ol"):
                em.flush_block()
                em.list_stack.append({"type": tag, "n": 0})
            elif tag == "li":
                em.flush_block()
            elif tag == "a":
                href = attr("href")
                em.anchor_stack.append(href)
                if href is not None:
                    em.marker("[")
            elif tag == "img":
                alt = attr("alt") or ""
                src = attr("src") or ""
                em.marker(f"![{_collapse(alt)}]({src})")
            elif tag in ("strong", "b"):
                em.marker("**")
            elif tag in ("em", "i"):
                em.marker("*")
            elif tag == "code" and not em.pre_depth:
                em.marker("`")
            elif tag == "br":
                em.break_line()
            elif tag == "hr":
                em.flush_block()
                em.blocks.append(("---", "para"))
            elif tag == "table":
                em.flush_block()
                em.table_stack.append({"emitted_header": False})
            elif tag == "tr":
                em.flush_row()
                em.cells = []
            elif tag in ("td", "th"):
                em.break_line()
            elif tag in _BLOCK_CONTAINERS:
                em.flush_block()
            continue
        # END tag
        if tag in _SKIP_SUBTREE:
            if skip_depth and tag not in ("script", "style"):
                skip_depth -= 1
            continue
        if skip_depth:
            continue
        if tag in _HEADINGS:
            em.flush_heading(_HEADINGS[tag])
        elif tag == "pre":
            if em.pre_depth:
                em.pre_depth -= 1
                if not em.pre_depth:
                    content = "".join(em.pre_buf).strip("\n")
                    em.pre_buf.clear()
                    em.blocks.append(("```\n" + content + "\n```", "para"))
        elif tag == "blockquote":
            em.flush_block()
            em.quote_depth = max(0, em.quote_depth - 1)
        elif tag in ("ul", "ol"):
            em.flush_block()
            if em.list_stack:
                em.list_stack.pop()
        elif tag == "li":
            em.flush_list_item()
        elif tag == "a":
            href = em.anchor_stack.pop() if em.anchor_stack else None
            if href is not None:
                em.marker(f"]({href})")
        elif tag in ("strong", "b"):
            em.marker("**")
        elif tag in ("em", "i"):
            em.marker("*")
        elif tag == "code" and not em.pre_depth:
            em.marker("`")
        elif tag in ("td", "th"):
            if em.cells is not None:
                em.cells.append(em._inline_text())
            else:
                em.break_line()
        elif tag == "tr":
            em.flush_row()
        elif tag == "table":
            em.flush_row()
            em.flush_block()
            if em.table_stack:
                em.table_stack.pop()
        elif tag in _BLOCK_CONTAINERS:
            em.flush_block()
    return em.result()


def _to_markdown(html: str, commonmark: bool) -> str:
    """Inlined-tokenizer markdown converter — token-for-token identical to
    :func:`_to_markdown_tokenized` (the generator yields + tuple unpacks
    were ~40% of the transform wall; same rework as ``parse_page``).

    The synthetic END event the tokenizer emits after a raw-text span is a
    provable no-op in this dispatcher (script/style never increment
    ``skip_depth``; textarea/title/xmp match no END branch), so the inlined
    loop skips it.
    """
    em = _MarkdownEmitter(commonmark)
    skip_depth = 0
    pos = 0
    n = len(html)
    search = _TOKEN_RE.search
    while pos < n:
        m = search(html, pos)
        if m is None:
            if pos < n and not skip_depth:
                em.text(html[pos:])
            break
        start = m.start()
        if start > pos and not skip_depth:
            em.text(html[pos:start])
        pos = m.end()
        tag = m.group(2)
        if tag is None:  # comment / doctype / CDATA / PI
            continue
        tag = tag.lower()
        if m.group(1):
            # ---- END dispatch ----
            if tag in _SKIP_SUBTREE:
                if skip_depth and tag not in ("script", "style"):
                    skip_depth -= 1
                continue
            if skip_depth:
                continue
            if tag in _HEADINGS:
                em.flush_heading(_HEADINGS[tag])
            elif tag == "pre":
                if em.pre_depth:
                    em.pre_depth -= 1
                    if not em.pre_depth:
                        content = "".join(em.pre_buf).strip("\n")
                        em.pre_buf.clear()
                        em.blocks.append(("```\n" + content + "\n```", "para"))
            elif tag == "blockquote":
                em.flush_block()
                em.quote_depth = max(0, em.quote_depth - 1)
            elif tag in ("ul", "ol"):
                em.flush_block()
                if em.list_stack:
                    em.list_stack.pop()
            elif tag == "li":
                em.flush_list_item()
            elif tag == "a":
                href = em.anchor_stack.pop() if em.anchor_stack else None
                if href is not None:
                    em.marker(f"]({href})")
            elif tag in ("strong", "b"):
                em.marker("**")
            elif tag in ("em", "i"):
                em.marker("*")
            elif tag == "code" and not em.pre_depth:
                em.marker("`")
            elif tag in ("td", "th"):
                if em.cells is not None:
                    em.cells.append(em._inline_text())
                else:
                    em.break_line()
            elif tag == "tr":
                em.flush_row()
            elif tag == "table":
                em.flush_row()
                em.flush_block()
                if em.table_stack:
                    em.table_stack.pop()
            elif tag in _BLOCK_CONTAINERS:
                em.flush_block()
            continue
        attrs_str = m.group(3) or ""
        # ---- START dispatch ----
        if tag in _SKIP_SUBTREE:
            self_closing = attrs_str.rstrip().endswith("/")
            em.flush_block()
            if tag not in ("script", "style") and not self_closing:
                skip_depth += 1
        elif not skip_depth:
            if tag in _HEADINGS:
                em.flush_block()
            elif tag == "pre":
                em.flush_block()
                em.pre_depth += 1
            elif tag == "blockquote":
                em.flush_block()
                em.quote_depth += 1
            elif tag in ("ul", "ol"):
                em.flush_block()
                em.list_stack.append({"type": tag, "n": 0})
            elif tag == "li":
                em.flush_block()
            elif tag == "a":
                href = None
                if attrs_str:
                    for k, v in parse_attrs(attrs_str):
                        if k == "href":
                            href = v
                            break
                em.anchor_stack.append(href)
                if href is not None:
                    em.marker("[")
            elif tag == "img":
                alt = src_v = None
                if attrs_str:
                    for k, v in parse_attrs(attrs_str):
                        if k == "alt" and alt is None:
                            alt = v
                        elif k == "src" and src_v is None:
                            src_v = v
                em.marker(f"![{_collapse(alt or '')}]({src_v or ''})")
            elif tag in ("strong", "b"):
                em.marker("**")
            elif tag in ("em", "i"):
                em.marker("*")
            elif tag == "code" and not em.pre_depth:
                em.marker("`")
            elif tag == "br":
                em.break_line()
            elif tag == "hr":
                em.flush_block()
                em.blocks.append(("---", "para"))
            elif tag == "table":
                em.flush_block()
                em.table_stack.append({"emitted_header": False})
            elif tag == "tr":
                em.flush_row()
                em.cells = []
            elif tag in ("td", "th"):
                em.break_line()
            elif tag in _BLOCK_CONTAINERS:
                em.flush_block()
        # ---- raw-text span consumption (tokenizer-level, dispatcher-free) --
        if tag in _RAW_TEXT and not attrs_str.rstrip().endswith("/"):
            close = _RAW_CLOSE_RE.get(tag)
            if close is None:
                close = _RAW_CLOSE_RE[tag] = re.compile(rf"</{tag}\s*>", re.I)
            cm = close.search(html, pos)
            if cm is None:
                raw = html[pos:]
                if not skip_depth and tag == "textarea" and raw:
                    em.text(raw)
                break
            raw = html[pos : cm.start()]
            if not skip_depth and tag == "textarea" and raw:
                em.text(raw)
            pos = cm.end()
    return em.result()


def _xml_escape(s: str, quote: bool = False) -> str:
    s = s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    if quote:
        s = s.replace('"', "&quot;")
    return s


def _to_xml(html: str) -> str:
    out: list[str] = ['<?xml version="1.0" encoding="UTF-8"?>']
    for kind, tag, attrs_str, raw in tokenize(html):
        if kind == COMMENT:
            continue
        if kind == TEXT:
            out.append(_xml_escape(_htmllib.unescape(tag)))
        elif kind == RAWTEXT:
            if raw:
                out.append(_xml_escape(raw))
        elif kind == START:
            attrs = parse_attrs(attrs_str or "") if attrs_str else []
            parts = [tag]
            for k, v in attrs:
                parts.append(f'{k}="{_xml_escape(v if v is not None else k, quote=True)}"')
            head = " ".join(parts)
            out.append(f"<{head}/>" if tag in _VOID else f"<{head}>")
        elif kind == END:
            if tag not in _VOID:
                out.append(f"</{tag}>")
    return "".join(out)


def transform_html(html: bytes | str, return_format: str = "markdown") -> str:
    """Transform one page body per the CLI ``--return-format`` contract."""
    if return_format not in RETURN_FORMATS:
        raise ValueError(
            f"return_format {return_format!r} not in {RETURN_FORMATS}"
        )
    if isinstance(html, bytes):
        from .encoding import decode_html

        html = decode_html(html)
    if return_format == "raw":
        return html
    if return_format == "text":
        return extract_text(html)
    if return_format == "xml":
        return _to_xml(html)
    return _to_markdown(html, commonmark=(return_format == "commonmark"))


class TransformStage:
    """Stateless ``map_batches`` callable: (url, html) → (url, content).

    Its only state is the format; bodies decode once per row and the
    converter is a single pass — the Ray-side plumbing for the scrape
    transform surface."""

    def __init__(self, return_format: str = "markdown",
                 url_col: str = "url", html_col: str = "html"):
        assert return_format in RETURN_FORMATS
        self.fmt = return_format
        self.url_col = url_col
        self.html_col = html_col

    def __call__(self, batch):
        import pyarrow as pa

        content = [
            transform_html(h if h is not None else b"", self.fmt)
            for h in batch.column(self.html_col).to_pylist()
        ]
        return pa.table(
            {
                "url": batch.column(self.url_col),
                "content": pa.array(content, pa.string()),
            }
        )


class CorpusTransformStage(TransformStage):
    """:class:`TransformStage` over raw corpus rows (url, html, status): keeps
    the pages — status 200, not robots.txt or sitemap.xml — and, given
    ``urls``, only those urls, then converts them."""

    def __init__(self, return_format: str = "markdown", urls=None):
        import pyarrow as pa

        super().__init__(return_format)
        self.urls = None if urls is None else pa.array(sorted(urls), pa.string())

    def __call__(self, batch):
        import pyarrow.compute as pc

        url = batch.column("url")
        keep = pc.and_(
            pc.equal(batch.column("status"), 200),
            pc.invert(
                pc.or_(pc.ends_with(url, "robots.txt"), pc.ends_with(url, "sitemap.xml"))
            ),
        )
        if self.urls is not None:
            keep = pc.and_(keep, pc.is_in(url, value_set=self.urls))
        return super().__call__(batch.filter(keep))


def transform_corpus(corpus_dir: str, return_format: str = "markdown",
                     urls: set[str] | None = None):
    """Distributed transform of a page corpus → Dataset of (url, content).

    One stateless task per read block filters and converts it
    (:class:`CorpusTransformStage`), fused with the Parquet read.  Tasks, not
    an actor pool: a pool holds its CPUs for the whole job, so on a small
    session (under about 3.25 CPUs for 4 × 0.5-CPU converters plus a
    0.25-CPU filter) the 1-CPU read the pool waits on never scheduled."""
    import ray.data

    return ray.data.read_parquet(corpus_dir, columns=["url", "html", "status"]).map_batches(
        CorpusTransformStage(return_format, urls), batch_format="pyarrow"
    )
