"""Pure URL canonicalization functions.

Re-expresses the reference's URL semantics (spider-rs/spider) as pure Python:

* ``convert_abs_path`` / ``handle_base``  — ``spider/src/utils/abs.rs:78-146``
* ``parse_absolute_url``                  — ``spider/src/utils/abs.rs:29-46``
* ``relative_directory_url``              — ``spider/src/page.rs:2804-2816``
* ``networking_capable`` / ``prepare_url``— ``spider/src/utils/mod.rs:9189-9219``
* ``get_domain_from_url`` / ``get_path_from_url`` — ``spider/src/utils/mod.rs:9156-9186``
* ``extract_root_domain`` / ``is_subdomain``      — ``spider/src/page.rs:2936-2961``
* ``is_asset_url`` / ``is_ignored_extension``     — ``spider/src/page.rs:2048-2070,2892-2899``

URLs are represented as plain strings serialized WHATWG-style (like the Rust
``url`` crate): lowercase scheme and host, default port stripped, empty path
rendered as "/", fragments never serialized.  This module is the correctness
core — everything here is deterministic, allocation-light, and unit-tested
1:1 against the reference's inline test tables.
"""

from __future__ import annotations

from urllib.parse import urljoin, urlsplit, urlunsplit

# spider/src/utils/abs.rs:5-10 — acceptable protocols (exact prefix match of
# href[:colon+3]).  Note "wss://" is intentionally absent (as in the reference).
PROTOCOLS = frozenset({"http://", "https://", "ftp://", "ws://"})

# spider/src/utils/abs.rs:13-27 — ignored (non-crawlable) protocols, matched
# case-sensitively against href[:colon+1].
IGNORED_PROTOCOLS = frozenset(
    {
        "file:",
        "sms:",
        "javascript:",
        "data:",
        "whatsapp:",
        "geo:",
        "skype:",
        "ssh:",
        "zoommtg:",
        "market:",
        "intent:",
        "mailto:",
        "tel:",
    }
)

_DEFAULT_PORTS = {"http": 80, "https": 443, "ws": 80, "wss": 443, "ftp": 21}

_EARLY_RETURN = 0
_EMPTY = 1


def normalize_url(url: str) -> str | None:
    """Parse + re-serialize a URL WHATWG-style (Rust ``url`` crate parity).

    Lowercases scheme and host, strips the default port, renders an empty
    path as "/", preserves query, drops the fragment.  Returns None when the
    URL has no scheme/host (parse failure analogue of ``Url::parse``).
    """
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    if not parts.scheme or not parts.netloc:
        return None
    return _serialize(parts.scheme, parts.netloc, parts.path, parts.query)


# WHATWG percent-encode sets (url.spec.whatwg.org §1.3; Rust ``url`` crate
# parity): path set = fragment set + {#, ?, {, }}; query set for special
# schemes adds the apostrophe.  '%' is NEVER re-encoded (no double-encoding,
# matching the WHATWG serializer — invalid sequences pass through).
_PATH_ENCODE = frozenset(' "<>`#?{}')
_QUERY_ENCODE = frozenset(' "<>#\'')


def _pct(s: str, enc: frozenset) -> str:
    if not s or not any(
        ch in enc or ord(ch) <= 0x1F or ord(ch) >= 0x7F for ch in s
    ):
        return s
    out = []
    for ch in s:
        cp = ord(ch)
        if cp <= 0x1F or cp >= 0x7F or ch in enc:
            out.append("".join(f"%{b:02X}" for b in ch.encode("utf-8")))
        else:
            out.append(ch)
    return "".join(out)


def _serialize(scheme: str, netloc: str, path: str, query: str) -> str | None:
    scheme = scheme.lower()
    host, port = _split_netloc(netloc)
    if host is None:
        return None
    if port is not None and _DEFAULT_PORTS.get(scheme) == port:
        port = None
    netloc_out = host if port is None else f"{host}:{port}"
    if not path:
        path = "/"
    elif "/." in path or path.startswith("."):
        # WHATWG/RFC-3986 dot-segment collapse (Rust ``Url::parse`` parity):
        # absolute hrefs like https://h/a/../b must canonicalize to /b exactly
        # as relative joins do via urljoin.
        path = _remove_dot_segments(path)
    return urlunsplit(
        (scheme, netloc_out, _pct(path, _PATH_ENCODE), _pct(query, _QUERY_ENCODE), "")
    )


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 remove_dot_segments."""
    output: list[str] = []
    while path:
        if path.startswith("../"):
            path = path[3:]
        elif path.startswith("./"):
            path = path[2:]
        elif path.startswith("/./"):
            path = "/" + path[3:]
        elif path == "/.":
            path = "/"
        elif path.startswith("/../"):
            path = "/" + path[4:]
            if output:
                output.pop()
        elif path == "/..":
            path = "/"
            if output:
                output.pop()
        elif path in (".", ".."):
            path = ""
        else:
            idx = path.find("/", 1) if path.startswith("/") else path.find("/")
            if idx == -1:
                output.append(path)
                path = ""
            else:
                output.append(path[:idx])
                path = path[idx:]
    return "".join(output)


def _split_netloc(netloc: str) -> tuple[str | None, int | None]:
    """Split netloc into (lowercased host, port) dropping userinfo."""
    if "@" in netloc:
        netloc = netloc.rsplit("@", 1)[1]
    host, port = netloc, None
    if netloc.startswith("["):  # IPv6 literal
        end = netloc.find("]")
        if end == -1:
            return None, None
        host = netloc[: end + 1]
        rest = netloc[end + 1 :]
        if rest.startswith(":"):
            rest = rest[1:]
            if rest:
                try:
                    port = int(rest)
                except ValueError:
                    return None, None
    elif ":" in netloc:
        host, _, port_s = netloc.rpartition(":")
        if port_s:
            try:
                port = int(port_s)
            except ValueError:
                return None, None
        if not host:
            return None, None
    if not host:
        return None, None
    return host.lower(), port


def parse_absolute_url(url: str) -> str | None:
    """Seed → canonical root URL: clear path segments, drop query.

    Mirrors ``parse_absolute_url`` (``abs.rs:37-46``):
    ``https://example.com/a/b?q=1`` → ``https://example.com/``.
    """
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    if not parts.scheme or not parts.netloc:
        return None
    return _serialize(parts.scheme, parts.netloc, "/", "")


def _handle_base(href: str):
    """``handle_base`` (``abs.rs:80-120``).

    Returns the absolute normalized URL string, ``_EARLY_RETURN`` (caller
    returns base), or ``_EMPTY`` (caller joins against base).
    """
    if href == "" or href == "#" or href == "javascript:void(0);":
        return _EARLY_RETURN
    if not href.startswith("/"):
        colon = href.find(":")
        if colon != -1:
            if href[: colon + 1] in IGNORED_PROTOCOLS:
                return _EARLY_RETURN
            prefix = href[: colon + 3]
            if prefix in PROTOCOLS:
                normalized = normalize_url(href)  # strips fragment
                if normalized is not None:
                    return normalized
    return _EMPTY


def convert_abs_path(base: str, href: str) -> str:
    """``convert_abs_path`` (``abs.rs:125-146``).

    ``base`` must be an already-normalized absolute URL (typically the crawl
    root from :func:`parse_absolute_url` or a page URL).  Fragments are
    always stripped; join failure returns ``base``.
    """
    href = href.strip()
    if base == href:
        return base
    handled = _handle_base(href)
    if handled == _EARLY_RETURN:
        return base
    if isinstance(handled, str):
        return handled
    try:
        joined = urljoin(base, href)
    except ValueError:
        return base
    normalized = normalize_url(joined)
    return normalized if normalized is not None else base


def networking_capable(url: str) -> bool:
    """``networking_capable`` (``utils/mod.rs:9189-9196``)."""
    if not url:
        return False
    c = url[0]
    if c == "h":
        return url.startswith("https://") or url.startswith("http://")
    if c == "f":
        return url.startswith("file://") or url.startswith("ftp://")
    return False


def relative_directory_url(href: str) -> bool:
    """``relative_directory_url`` (``page.rs:2804-2816``)."""
    if href.startswith("./") or href.startswith("//") or href.startswith("../"):
        return True
    if networking_capable(href):
        return False
    return not href.startswith("/")


def prepare_url(u: str) -> str:
    """``prepare_url`` (``utils/mod.rs:9200-9219``) — force https prefix."""
    idx = u.find("://")
    if idx != -1:
        return "https://" + u[idx + 3 :]
    return "https://" + u


def get_domain_from_url(url: str) -> str:
    """``get_domain_from_url`` (``utils/mod.rs:9171-9186``) — raw host[:port] slice."""
    pos = url.find("//")
    if pos != -1:
        start = pos + 2
        slash = url.find("/", start)
        return url[start:slash] if slash != -1 else url[start:]
    slash = url.find("/")
    return url[:slash] if slash != -1 else url


def get_path_from_url(url: str) -> str:
    """``get_path_from_url`` (``utils/mod.rs:9156-9169``) — path incl. query."""
    pos = url.find("//")
    if pos == -1:
        return "/"
    start = pos + 2
    slash = url.find("/", start)
    return url[slash:] if slash != -1 else "/"


def extract_root_domain(domain: str) -> str:
    """``extract_root_domain`` (``page.rs:2936-2955``).

    "sub.example.com" → "example.com"; "example.com" → "example";
    "localhost" → "localhost".  The two-label collapse is intentional — it is
    what makes ``tld=True`` match any TLD of the same name.
    """
    last = domain.rfind(".")
    if last == -1:
        return domain
    second_last = domain.rfind(".", 0, last)
    if second_last != -1:
        return domain[second_last + 1 :]
    return domain[:last]


def is_subdomain(subdomain: str, domain: str) -> bool:
    """``is_subdomain`` (``page.rs:2958-2961``)."""
    return extract_root_domain(subdomain) == extract_root_domain(domain)


def url_host(url: str) -> str:
    """Lowercased host (no port) of a normalized URL; '' on failure."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return ""
    return (parts.hostname or "").lower()


# Shard routing: the crawl state (seen/admission shards, flatten parts,
# CorpusIndexPool, HostGate) is partitioned by host, and shard_of_hosts below
# is the one place that maps a host to its shard.  Hosts derived from
# lowercased URL keys come from host_of_key / hosts_of_keys_arrow — string-level
# twins of url_host (authority up to the first of /?#, userinfo + port
# dropped, IPv6 brackets stripped), so a url routes to the same shard whichever
# of the three derived its host.
_HOST_OF_KEY_RE = r"^(?:[a-z0-9+.\-]+://)?(?:[^/?#]*@)?(?:\[([^\]]*)\]|([^/?#:]*)).*$"


def host_of_key(key: str) -> str:
    """Routing host of a lowercased URL key (== ``url_host(key)``)."""
    h = key.split("://", 1)[-1]
    for sep in "/?#":
        i = h.find(sep)
        if i != -1:
            h = h[:i]
    at = h.rfind("@")
    if at != -1:
        h = h[at + 1 :]
    if h.startswith("["):
        end = h.find("]")
        return h[1:end] if end != -1 else h[1:]
    i = h.find(":")
    return h[:i] if i != -1 else h


# authority-only twin of _HOST_OF_KEY_RE (scheme + path already stripped):
# drop userinfo up to the LAST @, then bracket host or up to the first colon
_HOST_AUTH_RE = r"^(?:.*@)?(?:\[([^\]]*)\]|([^:]*)).*$"


def hosts_of_keys_arrow(keys):
    """Vectorized :func:`host_of_key` over a pyarrow string array (input
    must already be lowercased, as URL keys are).

    Hot-path shape: two cheap non-capturing regex passes (scheme strip +
    authority-tail strip) cover the overwhelmingly common case; the full
    userinfo/port/IPv6 handling (a 3x more expensive capture-group regex)
    runs only on the rows that actually contain ``@``/``:``/``[`` — on a
    typical web corpus that is ~0 rows."""
    import pyarrow as pa
    import pyarrow.compute as pc

    chunked_in = isinstance(keys, pa.ChunkedArray)
    h1 = pc.replace_substring_regex(keys, pattern=r"^[a-z0-9+.\-]+://", replacement="")
    auth = pc.replace_substring_regex(h1, pattern=r"[/?#].*$", replacement="")
    if isinstance(auth, pa.ChunkedArray):
        auth = auth.combine_chunks()
    rare = pc.fill_null(pc.match_substring_regex(auth, r"[@:\[]"), True)
    if pc.any(rare).as_py():
        fixed = pc.replace_substring_regex(
            auth.filter(rare), pattern=_HOST_AUTH_RE, replacement=r"\1\2"
        )
        auth = pc.replace_with_mask(auth, rare, fixed)
    # mirror replace_substring_regex's layout contract: chunked in -> chunked
    # out (call sites rely on it, e.g. dictionary_encode().combine_chunks())
    return pa.chunked_array([auth]) if chunked_in else auth


def shard_of_hosts(hosts, num_shards: int):
    """Shard id of each host — ``stable_hash_str(host) % num_shards``, the
    crawl state's one routing rule — as a numpy int64 array.  ``hosts`` is a
    pyarrow string array or a list; each unique host is hashed once."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .hashing import stable_hash_str

    enc = pc.dictionary_encode(hosts if isinstance(hosts, (pa.Array, pa.ChunkedArray))
                               else pa.array(hosts, pa.string()))
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    uniq = enc.dictionary.to_pylist()
    shard_of_uniq = np.fromiter(
        (stable_hash_str(h) % num_shards for h in uniq), dtype=np.int64, count=len(uniq)
    )
    return shard_of_uniq[enc.indices.to_numpy(zero_copy_only=False)]


def url_host_port(url: str) -> tuple[str, int | None]:
    """(lowercased host, explicit port or None) of a normalized URL."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return "", None
    try:
        port = parts.port
    except ValueError:
        port = None
    return (parts.hostname or "").lower(), port


def url_scheme(url: str) -> str:
    colon = url.find(":")
    return url[:colon].lower() if colon != -1 else ""


def set_scheme(url: str, scheme: str) -> str:
    """``Url::set_scheme`` analogue: swap scheme, re-normalize default port."""
    colon = url.find(":")
    if colon == -1:
        return url
    candidate = scheme + url[colon:]
    normalized = normalize_url(candidate)
    return normalized if normalized is not None else candidate


# ---------------------------------------------------------------------------
# Asset-extension filtering — spider/src/page.rs:1995-2070 (IGNORE_EXTENSIONS)
# ---------------------------------------------------------------------------

IGNORE_EXTENSIONS = frozenset(
    """
    jpg jpeg png gif svg webp bmp tiff tif heic heif apng avif ico
    jfif pjp pjpeg psd ai tga xbm jxl jxr cur pbm pgm ppm
    cr2 cr3 nef arw dng orf rw2 raf pef srw nrw kdc x3f
    mp4 avi mov wmv flv mkv webm m4v mpeg 3gp 3g2
    mpg mpe m2v mts m2ts vob asf rm rmvb f4v divx xvid dv
    mp3 wav ogg aac flac m4a aiff cda mid midi oga opus weba
    wma ra aif aifc amr au snd ac3 dts mka caf
    woff woff2 ttf otf eot
    pdf eps rtf txt doc docx csv epub
    abw azw odt ods odp ppt pptx xls xlsx vsd
    mobi azw3 kf8 lit chm prc pdb
    xlt dot pot pps wri wks wpd wps
    yaml yml ics md webmanifest
    gz arc bin bz bz2 jar mpkg rar tar zip 7z
    xz lz lzma zst tgz tbz tbz2 txz cab
    lzh lha sit sitx ace arj cpio ar s7z wim
    exe msi dmg iso pkg deb rpm apk ipa
    appx appimage crx xpi nupkg gem whl
    vhd vmdk qcow2 ova vdi
    dll so dylib class pyc pyo
    db sqlite sqlite3 mdb accdb
    dwg stl fbx 3ds blend glb usdz
    swf xap
    ogv ogx
    ts
    """.split()
)


def is_ignored_extension(ext: str) -> bool:
    """``is_ignored_extension`` (``page.rs:2048-2063``)."""
    if not ext or len(ext) > 16:
        return False
    return ext.lower() in IGNORE_EXTENSIONS


def is_asset_url(url: str) -> bool:
    """``is_asset_url`` (``page.rs:2892-2899``)."""
    position = url.rfind(".")
    if position != -1 and len(url) - position >= 3:
        return is_ignored_extension(url[position + 1 :])
    return False


# The anchor selector's :not([href$=...]) suffix filters —
# spider/src/utils/css_selectors.rs:2-84.  Matched case-SENSITIVELY against
# the raw href attribute value (CSS attribute matching semantics).
ANCHOR_HREF_SUFFIX_FILTERS = (
    ".jpg .jpeg .png .gif .svg .webp .mp4 .avi .mov .wmv .flv .mp3 .wav "
    ".wma .wpl .mpa .ogg .woff .woff2 .ttf .otf .swf .xap .ico .eot .bmp "
    ".psd .tiff .tif .heic .heif .mkv .webm .m4v .aac .flac .m4a .aiff "
    ".pdf .rtf .eps .yaml .yml .xml .css .js .txt .tar .doc .docx .zip "
    ".deb .pkg .tar.gz .rpm .z .7z .arj .rar .bin .msi .sh .bat .dmg .iso "
    ".toast .vcd .csv .log .sql .db .exe .rss .key .odp .pps .ptt .pptx .dump"
).split()

_SUFFIX_TUPLE = tuple(ANCHOR_HREF_SUFFIX_FILTERS)


def anchor_href_filtered(href: str) -> bool:
    """True when the anchor selector excludes this href (suffix filter)."""
    return href.endswith(_SUFFIX_TUPLE)


def glob_expand_url(url: str):
    """Seed glob expansion — ``spider/src/features/glob.rs:20-120``.

    Supports ``{a,b,c}`` lists and ``[start-end]`` / ``[start-end:step]``
    numeric (with zero-padding) or single-char ranges.  Returns the list of
    expanded URLs (just ``[url]`` when no pattern present).
    """
    import itertools
    import re

    pat = re.compile(
        r"(?P<list>\{(?P<items>[^}{]+)\})"
        r"|(?P<range>\[(?:(?P<start>(?P<padding>0*)\d+|[a-z]))-(?P<end>\d+|[a-z])(?::(?P<step>\d+))?\])"
    )
    groups = []  # list of (substring, [replacements])
    for m in pat.finditer(url):
        if m.group("list"):
            groups.append((m.group("list"), m.group("items").split(",")))
        elif m.group("range"):
            start_s, end_s = m.group("start"), m.group("end")
            step = int(m.group("step") or 1)
            width = len(start_s) if m.group("padding") else 0
            try:
                s, e = int(start_s), int(end_s)
                reps = [str(n).rjust(width, "0") for n in range(s, e + 1, step)]
            except ValueError:
                if len(start_s) == 1 and len(end_s) == 1:
                    reps = [chr(c) for c in range(ord(start_s), ord(end_s) + 1, step)]
                else:
                    continue
            groups.append((m.group("range"), reps))
    if not groups:
        return [url]
    out = []
    for combo in itertools.product(*[reps for _, reps in groups]):
        expanded = url
        for (sub, _), rep in zip(groups, combo):
            expanded = expanded.replace(sub, rep, 1)
        out.append(expanded)
    return out
