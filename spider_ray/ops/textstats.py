"""Text analysis operators: language-ID, quality scoring, token counting,
document fingerprinting.  All vectorized-per-batch ``map_batches`` stages
(compiled regexes + stopword tables built once per actor)."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import stable_hash_str

_TOKEN_RE = re.compile(r"\S+")
_WORD_RE = re.compile(r"\w+", re.UNICODE)
_PUNCT_RE = re.compile(r"[!-/:-@\[-`{-~]")

# Small per-language stopword tables (n-gram-free heuristic language ID).
STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "that", "for", "was", "on", "with"},
    "fr": {"le", "la", "les", "de", "des", "et", "un", "une", "est", "que", "pour", "dans", "du"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "den", "von", "mit", "für"},
    "es": {"el", "la", "los", "las", "de", "y", "un", "una", "es", "que", "por", "para", "con"},
}


class TokenCounter:
    """Whitespace tokens + BPE-ish word-piece count.

    ``n_tokens``: count of ``\\S+`` runs (SQL-expressible oracle);
    ``n_words``: count of ``\\w+`` runs; ``n_chars``: len(text)."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id"):
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_column).to_pylist()
        n_tokens = [len(_TOKEN_RE.findall(t or "")) for t in texts]
        n_words = [len(_WORD_RE.findall(t or "")) for t in texts]
        n_chars = [len(t or "") for t in texts]
        return pa.table(
            {
                "doc_id": batch.column(self.id_column),
                "n_chars": pa.array(n_chars, pa.int64()),
                "n_tokens": pa.array(n_tokens, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
            }
        )


# GPT-2-style pre-tokenizer (the BPE pre-split): contraction pieces, then
# space-prefixed letter / digit / punctuation runs, then whitespace runs.
# Pinned to explicit ASCII classes so Python re and DuckDB RE2 agree byte
# for byte (non-ASCII letters land in the punctuation-run bucket — a
# documented spec choice; real deployments plug a tiktoken-class encoder
# behind the same actor hook).
BPE_PRETOKEN_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"
)


class BpeTokenCounter:
    """``(doc_id, n_pretokens, n_ws_tokens, pretokens_per_ws_token_x1000)``
    — GPT-2-style pre-tokenizer counts next to whitespace counts; the
    ratio (integer, ×1000) is the standard "token inflation" signal a
    training-data pipeline budgets with.  Stateless per-batch map — no
    shuffle at any scale; the compiled pattern is class state."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id"):
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_column).to_pylist()
        n_pre = [len(BPE_PRETOKEN_RE.findall(t or "")) for t in texts]
        n_ws = [len(_TOKEN_RE.findall(t or "")) for t in texts]
        ratio = [
            (p * 1000) // w if w else 0 for p, w in zip(n_pre, n_ws)
        ]
        return pa.table(
            {
                "doc_id": pc.cast(batch.column(self.id_column), pa.int64()),
                "n_pretokens": pa.array(n_pre, pa.int64()),
                "n_ws_tokens": pa.array(n_ws, pa.int64()),
                "pretokens_per_ws_token_x1000": pa.array(ratio, pa.int64()),
            }
        )


def bpe_token_counts(ds, text_column: str = "text", id_column: str = "doc_id"):
    """(doc_id, n_pretokens, n_ws_tokens, ratio×1000) per document."""
    return ds.map_batches(
        BpeTokenCounter(text_column=text_column, id_column=id_column),
        batch_format="pyarrow",
    )


class QualityScorer:
    """Heuristic quality metrics: length, punctuation ratio, stopword ratio,
    mean word length, alpha ratio."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id"):
        self.text_column = text_column
        self.id_column = id_column
        self.stop_en = STOPWORDS["en"]

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_column).to_pylist()
        n = len(texts)
        n_chars = np.empty(n, dtype=np.int64)
        punct_ratio = np.empty(n, dtype=np.float64)
        stop_ratio = np.empty(n, dtype=np.float64)
        mean_word_len = np.empty(n, dtype=np.float64)
        for i, t in enumerate(texts):
            t = t or ""
            n_chars[i] = len(t)
            punct_ratio[i] = len(_PUNCT_RE.findall(t)) / max(1, len(t))
            words = _WORD_RE.findall(t.lower())
            stop_ratio[i] = sum(w in self.stop_en for w in words) / max(1, len(words))
            mean_word_len[i] = sum(map(len, words)) / max(1, len(words))
        return pa.table(
            {
                "doc_id": batch.column(self.id_column),
                "n_chars": pa.array(n_chars, pa.int64()),
                "punct_ratio": pa.array(punct_ratio, pa.float64()),
                "stopword_ratio": pa.array(stop_ratio, pa.float64()),
                "mean_word_len": pa.array(mean_word_len, pa.float64()),
            }
        )


class LangId:
    """Stopword-voting language identifier (en/fr/de/es; 'und' when no
    evidence).  Deterministic tie-break: lexicographic language code."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id"):
        self.text_column = text_column
        self.id_column = id_column

    def predict(self, text: str) -> str:
        words = _WORD_RE.findall((text or "").lower())
        if not words:
            return "und"
        scores = {
            lang: sum(w in table for w in words) for lang, table in STOPWORDS.items()
        }
        best = max(scores.values())
        if best == 0:
            return "und"
        return min(lang for lang, s in scores.items() if s == best)

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = [self.predict(t) for t in batch.column(self.text_column).to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column(self.id_column),
                "lang_pred": pa.array(preds, pa.string()),
            }
        )


class Fingerprinter:
    """Rolling-hash document fingerprint: winnowed set of k-gram hashes
    (min-sampled), plus a whole-document stable hash."""

    def __init__(self, k: int = 8, window: int = 16, text_column: str = "text",
                 id_column: str = "doc_id"):
        self.k = k
        self.window = window
        self.text_column = text_column
        self.id_column = id_column

    def fingerprint(self, text: str) -> list[int]:
        t = text or ""
        if len(t) < self.k:
            return [stable_hash_str(t)] if t else []
        grams = np.fromiter(
            (stable_hash_str(t[i : i + self.k]) for i in range(len(t) - self.k + 1)),
            dtype=np.uint64,
        )
        w = self.window
        if len(grams) <= w:
            return [int(grams.min())]
        # winnowing: min of each sliding window, deduped in order
        mins = np.lib.stride_tricks.sliding_window_view(grams, w).min(axis=1)
        out, last = [], None
        for m in mins:
            if m != last:
                out.append(int(m))
                last = m
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column(self.text_column).to_pylist()
        fps = [self.fingerprint(t) for t in texts]
        doc_hash = [stable_hash_str(t or "") for t in texts]
        return pa.table(
            {
                "doc_id": batch.column(self.id_column),
                "doc_hash": pa.array(doc_hash, pa.uint64()),
                "fingerprint": pa.array(fps, pa.list_(pa.uint64())),
            }
        )


# ---------------------------------------------------------------------------
# corpus unigram language model -> per-doc log-prob (perplexity-proxy score)
# ---------------------------------------------------------------------------


def _round_half_away(x: float) -> int:
    import math

    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def _docpart_fold(partials, dparts: int, value_cols: tuple[str, ...]):
    """Coarse-partitioned per-doc sum fold shared by the logprob cogroup
    paths: slim ``(doc_id, *value_cols, dpart)`` partials co-locate per
    doc and collapse through one C++ ``group_by`` per partition."""

    def fold(group: pa.Table) -> pa.Table:
        agg = (
            group.select(["doc_id", *value_cols])
            .group_by(["doc_id"])
            .aggregate([(c, "sum") for c in value_cols])
            .rename_columns(["doc_id", *value_cols])
        )
        return agg

    return partials.groupby("dpart").map_groups(fold, batch_format="pyarrow")


def _unigram_cogroup(ds, text_column: str, id_column: str):
    """Term-hash-partitioned unigram scoring (O(1) driver state): docs
    explode to ``(doc_id, term, in-doc count)``, the corpus total folds as
    one distributed scalar, one shuffle keyed by ``hash(term)`` computes
    each term's EXACT global count locally and scores its rows, and a
    second slim shuffle sums per-doc partials.  Identical values to the
    broadcast path: the partition maps DISTINCT counts through the same
    scalar ``math.log`` formula."""
    import math

    import numpy as np

    from ..poolsize import coarse_fanout
    from .behavior import coarse_part
    from .tfidf import term_hash_parts

    tparts = coarse_fanout(floor=256, per_cpu=8)
    dparts = coarse_fanout()

    def explode(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids, terms, ns = [], [], []
        for doc_id, t in zip(
            batch.column(id_column).to_pylist(),
            batch.column(text_column).to_pylist(),
        ):
            c = Counter(tok.lower() for tok in _TOKEN_RE.findall(t or ""))
            ids.extend([doc_id] * len(c))
            terms.extend(c.keys())
            ns.extend(c.values())
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "term": pa.array(terms, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )
        return t.append_column("tpart", term_hash_parts(t.column("term"), tparts))

    exploded = ds.map_batches(explode, batch_format="pyarrow").materialize()
    total = int(exploded.sum("n") or 0)

    def score_partition(group: pa.Table) -> pa.Table:
        t = group.select(["doc_id", "term", "n"])
        enc = pa.compute.dictionary_encode(t.column("term").combine_chunks())
        codes = np.asarray(enc.indices, dtype=np.int64)
        n_v = t.column("n").to_numpy(zero_copy_only=False)
        cnt = np.zeros(len(enc.dictionary), dtype=np.int64)
        np.add.at(cnt, codes, n_v)  # exact int64 global count per term
        c_v = cnt[codes]
        uniq, inv = np.unique(c_v, return_inverse=True)
        lp_u = np.array(
            [_round_half_away(math.log(int(c) / total) * 1e6) for c in uniq],
            dtype=np.int64,
        )
        contrib = n_v * lp_u[inv]
        agg = (
            pa.table(
                {
                    "doc_id": t.column("doc_id"),
                    "n_tokens": t.column("n"),
                    "sum_logp_x1e6": pa.array(contrib, pa.int64()),
                }
            )
            .group_by(["doc_id"])
            .aggregate([("n_tokens", "sum"), ("sum_logp_x1e6", "sum")])
            .rename_columns(["doc_id", "n_tokens", "sum_logp_x1e6"])
        )
        return agg.append_column("dpart", coarse_part(agg.column("doc_id"), dparts))

    partials = exploded.groupby("tpart").map_groups(
        score_partition, batch_format="pyarrow"
    )

    def anchors(batch: pa.Table) -> pa.Table:
        ids = pa.compute.cast(batch.column(id_column), pa.int64())
        t = pa.table(
            {
                "doc_id": ids,
                "n_tokens": pa.nulls(len(batch), pa.int64()).fill_null(0),
                "sum_logp_x1e6": pa.nulls(len(batch), pa.int64()).fill_null(0),
            }
        )
        return t.append_column("dpart", coarse_part(t.column("doc_id"), dparts))

    zero_rows = ds.select_columns([id_column]).map_batches(
        anchors, batch_format="pyarrow"
    )
    return _docpart_fold(
        partials.union(zero_rows), dparts, ("n_tokens", "sum_logp_x1e6")
    )


def unigram_logprob(ds, text_column: str = "text", id_column: str = "doc_id",
                    concurrency: int = 4, mode: str = "auto",
                    broadcast_max_terms: int = 2_000_000):
    """Per-doc unigram log-probability — the standard perplexity-proxy
    quality score (CCNet/RefinedWeb filter on LM perplexity, reduced to the
    order-0 model so the oracle is exact SQL).

    Pinned spec: tokens are lowercase ``\\S+`` runs; a term seen ``c``
    times in a corpus of ``N`` tokens scores
    ``lp(term) = round(ln(c / N) * 1e6)`` (half away from zero, int64);
    a doc's score is the int64 sum of its tokens' ``lp``.

    ``mode="broadcast"``: one ``map_batches`` emits per-batch partial term
    counts, a ``groupby(term)`` folds them, and the scoring pass
    broadcasts ONLY the repeated terms (count >= 2): a lookup miss is
    exactly count 1 with ``lp = round(ln(1/N) * 1e6)`` — the same
    hapax-elision trick as ``tfidf.py``, so the broadcast dict is bounded
    by the repeated-term vocabulary, not the corpus vocabulary.

    ``mode="cogroup"``: the 100-TB path — the repeated vocabulary of a
    web corpus is still ~10⁸-10⁹ terms, a multi-GB driver dict; the
    term-hash-partitioned scorer (:func:`_unigram_cogroup`) keeps the
    driver at O(1).  ``mode="auto"`` counts the repeated vocabulary
    distributedly and picks.  Identical int64 results in every mode.
    """
    import math

    import ray
    import pyarrow.compute as pc

    if mode == "cogroup":
        return _unigram_cogroup(ds, text_column, id_column)

    def term_partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column(text_column).to_pylist():
            c.update(tok.lower() for tok in _TOKEN_RE.findall(t or ""))
        return pa.table(
            {
                "term": pa.array(list(c.keys()), pa.string()),
                "n": pa.array(list(c.values()), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(term_partials, batch_format="pyarrow")
        .groupby("term")
        .sum("n")
        .materialize()
    )
    if mode == "auto":
        n_repeated = counts.map_batches(
            lambda b: b.filter(pc.greater_equal(b.column("sum(n)"), 2))
            if "sum(n)" in b.column_names else b.slice(0, 0),
            batch_format="pyarrow",
        ).count()
        if n_repeated > broadcast_max_terms:
            return _unigram_cogroup(ds, text_column, id_column)
    total = int(counts.sum("sum(n)"))
    repeated = counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("sum(n)"), 2)),
        batch_format="pyarrow",
    ).take_all()

    def _lp(c: int) -> int:
        x = math.log(c / total) * 1e6
        return int(math.copysign(math.floor(abs(x) + 0.5), x))

    lp_map = {r["term"]: _lp(r["sum(n)"]) for r in repeated}
    hapax_lp = _lp(1)
    lp_ref = ray.put(lp_map)

    class Scorer:
        def __init__(self):
            self.lp = ray.get(lp_ref) if not isinstance(lp_ref, dict) else lp_ref

        def __call__(self, batch: pa.Table) -> pa.Table:
            lp = self.lp
            ids, n_toks, sums = [], [], []
            for doc_id, t in zip(
                batch.column(id_column).to_pylist(),
                batch.column(text_column).to_pylist(),
            ):
                toks = [tok.lower() for tok in _TOKEN_RE.findall(t or "")]
                ids.append(doc_id)
                n_toks.append(len(toks))
                sums.append(sum(lp.get(tok, hapax_lp) for tok in toks))
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "n_tokens": pa.array(n_toks, pa.int64()),
                    "sum_logp_x1e6": pa.array(sums, pa.int64()),
                }
            )

    return ds.map_batches(
        Scorer, batch_format="pyarrow", concurrency=(1, concurrency), num_cpus=0.5
    )


class HeuristicFilter:
    """C4-style document-level heuristic filter, integer-exact.

    Per doc over lowercase ``\\S+`` tokens: ``n_words``, ``n_distinct``,
    ``max_tf`` (count of the most frequent term); keep iff
    ``10 <= n_words <= 100000`` (C4 length gate), ``2*n_distinct >=
    n_words`` (repetition gate: a doc may not be half one-word padding)
    and ``8*max_tf <= n_words`` (no single term above 12.5%).  Pure
    per-doc map — no shuffle at any scale."""

    def __init__(self, text_column: str = "text", id_column: str = "doc_id"):
        self.text_column = text_column
        self.id_column = id_column

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids, n_words, n_distinct, max_tf, keep = [], [], [], [], []
        for doc_id, t in zip(
            batch.column(self.id_column).to_pylist(),
            batch.column(self.text_column).to_pylist(),
        ):
            c = Counter(tok.lower() for tok in _TOKEN_RE.findall(t or ""))
            nw = sum(c.values())
            nd = len(c)
            mx = max(c.values()) if c else 0
            ids.append(doc_id)
            n_words.append(nw)
            n_distinct.append(nd)
            max_tf.append(mx)
            keep.append(10 <= nw <= 100000 and 2 * nd >= nw and 8 * mx <= nw)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_words": pa.array(n_words, pa.int64()),
                "n_distinct": pa.array(n_distinct, pa.int64()),
                "max_tf": pa.array(max_tf, pa.int64()),
                "keep": pa.array(keep, pa.bool_()),
            }
        )


def heuristic_filter(ds, text_column: str = "text", id_column: str = "doc_id"):
    """(doc_id, n_words, n_distinct, max_tf, keep) per document."""
    return ds.map_batches(
        HeuristicFilter(text_column=text_column, id_column=id_column),
        batch_format="pyarrow",
    )


def _bigram_cogroup(ds, text_column: str, id_column: str):
    """First-token-hash-partitioned bigram scoring (O(1) driver state):
    docs explode to tagged slim rows — per-doc unigram counts
    ``(kind=0, w)`` and bigram counts ``(kind=1, w1·SEP·w2)`` — BOTH
    routed by ``hash(w1)``, so a partition holds every occurrence of each
    of its first-tokens' unigrams AND bigrams and computes the exact
    global ``c(w1 w2) / c(w1)`` ratio locally; per-doc partials then sum
    through one slim doc-hash shuffle.  Each distinct ``(cb, cu)`` pair
    maps through the same scalar ``math.log`` the broadcast scorer uses —
    identical int64 results."""
    import math

    import numpy as np

    from ..poolsize import coarse_fanout
    from .behavior import coarse_part
    from .tfidf import term_hash_parts

    SEP = " "
    tparts = coarse_fanout(floor=256, per_cpu=8)
    dparts = coarse_fanout()

    def explode_rows(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids, kinds, keys, firsts, ns = [], [], [], [], []
        for doc_id, t in zip(
            batch.column(id_column).to_pylist(),
            batch.column(text_column).to_pylist(),
        ):
            toks = [tok.lower() for tok in _TOKEN_RE.findall(t or "")]
            uni: Counter = Counter(toks)
            bi: Counter = Counter(
                toks[i - 1] + SEP + toks[i] for i in range(1, len(toks))
            )
            ids.extend([doc_id] * (len(uni) + len(bi)))
            kinds.extend([0] * len(uni) + [1] * len(bi))
            keys.extend(uni.keys())
            firsts.extend(uni.keys())
            ns.extend(uni.values())
            keys.extend(bi.keys())
            firsts.extend(k.split(SEP, 1)[0] for k in bi.keys())
            ns.extend(bi.values())
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "kind": pa.array(kinds, pa.int8()),
                "key": pa.array(keys, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )
        return t.append_column(
            "tpart", term_hash_parts(pa.array(firsts, pa.string()), tparts)
        )

    def score_partition(group: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        k0 = group.filter(pc.equal(group.column("kind"), 0))
        k1 = group.filter(pc.equal(group.column("kind"), 1))
        if k1.num_rows == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_bigrams": pa.array([], pa.int64()),
                    "sum_logp_x1e6": pa.array([], pa.int64()),
                    "dpart": pa.array([], pa.int64()),
                }
            )
        # one dictionary over first-token strings: k0 keys then k1 prefixes
        k1_first = pc.list_element(
            pc.split_pattern(k1.column("key").combine_chunks(), SEP,
                             max_splits=1),
            0,
        )
        joint = pa.chunked_array(
            [k0.column("key").combine_chunks(), k1_first]
        ).combine_chunks()
        enc = pc.dictionary_encode(joint)
        codes = np.asarray(enc.indices, dtype=np.int64)
        n0 = k0.num_rows
        cu_tab = np.zeros(len(enc.dictionary), dtype=np.int64)
        np.add.at(cu_tab, codes[:n0],
                  k0.column("n").to_numpy(zero_copy_only=False))
        cu = cu_tab[codes[n0:]]
        cu = np.maximum(cu, 1)  # unreachable guard: every bigram implies w1
        enc_b = pc.dictionary_encode(k1.column("key").combine_chunks())
        codes_b = np.asarray(enc_b.indices, dtype=np.int64)
        n1_v = k1.column("n").to_numpy(zero_copy_only=False)
        cb_tab = np.zeros(len(enc_b.dictionary), dtype=np.int64)
        np.add.at(cb_tab, codes_b, n1_v)
        cb = cb_tab[codes_b]
        pairs = np.empty(len(cb), dtype=[("cb", np.int64), ("cu", np.int64)])
        pairs["cb"], pairs["cu"] = cb, cu
        uniq, inv = np.unique(pairs, return_inverse=True)
        lp_u = np.array(
            [
                _round_half_away(math.log(int(p["cb"]) / int(p["cu"])) * 1e6)
                for p in uniq
            ],
            dtype=np.int64,
        )
        contrib = n1_v * lp_u[inv]
        agg = (
            pa.table(
                {
                    "doc_id": k1.column("doc_id"),
                    "n_bigrams": k1.column("n"),
                    "sum_logp_x1e6": pa.array(contrib, pa.int64()),
                }
            )
            .group_by(["doc_id"])
            .aggregate([("n_bigrams", "sum"), ("sum_logp_x1e6", "sum")])
            .rename_columns(["doc_id", "n_bigrams", "sum_logp_x1e6"])
        )
        return agg.append_column("dpart", coarse_part(agg.column("doc_id"), dparts))

    partials = (
        ds.map_batches(explode_rows, batch_format="pyarrow")
        .groupby("tpart")
        .map_groups(score_partition, batch_format="pyarrow")
    )

    def anchors(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ids = pc.cast(batch.column(id_column), pa.int64())
        t = pa.table(
            {
                "doc_id": ids,
                "n_bigrams": pa.nulls(len(batch), pa.int64()).fill_null(0),
                "sum_logp_x1e6": pa.nulls(len(batch), pa.int64()).fill_null(0),
            }
        )
        return t.append_column("dpart", coarse_part(t.column("doc_id"), dparts))

    zero_rows = ds.select_columns([id_column]).map_batches(
        anchors, batch_format="pyarrow"
    )
    return _docpart_fold(
        partials.union(zero_rows), dparts, ("n_bigrams", "sum_logp_x1e6")
    )


def bigram_logprob(ds, text_column: str = "text", id_column: str = "doc_id",
                   concurrency: int = 4, mode: str = "auto",
                   broadcast_max_terms: int = 2_000_000):
    """Per-doc order-1 (bigram) conditional log-probability — one step
    closer to real LM perplexity than ``unigram_logprob``, still with an
    exact SQL oracle.

    Pinned spec: tokens are lowercase ``\\S+`` runs; each position i >= 2
    scores ``lp = round(ln(c(w_{i-1} w_i) / c(w_{i-1})) * 1e6)`` (half
    away from zero, int64); a doc's score is the int64 sum plus the
    bigram count.

    ``mode="broadcast"``: ONE tagged shuffle folds bigram and unigram
    counts together; the scoring broadcast keeps only repeated items
    (count >= 2) — a bigram miss is exactly count 1
    (``lp = round(ln(1/c(prev)) * 1e6)``) and a unigram miss is exactly
    count 1 (then its bigram count is also 1, so ``lp = 0``) — the
    hapax-elision trick, both dicts bounded by the repeated vocabulary.

    ``mode="cogroup"``: the 100-TB path with O(1) driver state
    (:func:`_bigram_cogroup` — both count kinds route by the FIRST token,
    so the conditional ratio evaluates entirely in-partition).
    ``mode="auto"`` counts the repeated vocabulary distributedly and
    picks.  Identical int64 results in every mode."""
    import math

    import ray
    import pyarrow.compute as pc

    SEP = " "

    if mode == "cogroup":
        return _bigram_cogroup(ds, text_column, id_column)

    def count_partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        uni: Counter = Counter()
        bi: Counter = Counter()
        for t in batch.column(text_column).to_pylist():
            toks = [tok.lower() for tok in _TOKEN_RE.findall(t or "")]
            uni.update(toks)
            bi.update(
                toks[i - 1] + SEP + toks[i] for i in range(1, len(toks))
            )
        keys = list(uni.keys()) + list(bi.keys())
        kinds = [0] * len(uni) + [1] * len(bi)
        ns = list(uni.values()) + list(bi.values())
        return pa.table(
            {
                "kind": pa.array(kinds, pa.int8()),
                "key": pa.array(keys, pa.string()),
                "n": pa.array(ns, pa.int64()),
            }
        )

    counts = (
        ds.map_batches(count_partials, batch_format="pyarrow")
        .groupby(["kind", "key"])
        .sum("n")
        .materialize()
    )
    repeated_ds = counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("sum(n)"), 2))
        if "sum(n)" in b.column_names else b.slice(0, 0),
        batch_format="pyarrow",
    ).materialize()
    if mode == "auto" and repeated_ds.count() > broadcast_max_terms:
        return _bigram_cogroup(ds, text_column, id_column)
    repeated = repeated_ds.take_all()
    uni_map = {r["key"]: r["sum(n)"] for r in repeated if r["kind"] == 0}
    bi_map = {r["key"]: r["sum(n)"] for r in repeated if r["kind"] == 1}
    refs = ray.put((uni_map, bi_map))

    class Scorer:
        def __init__(self):
            self.uni, self.bi = ray.get(refs)

        def __call__(self, batch: pa.Table) -> pa.Table:
            uni, bi = self.uni, self.bi
            ids, n_bi, sums = [], [], []
            for doc_id, t in zip(
                batch.column(id_column).to_pylist(),
                batch.column(text_column).to_pylist(),
            ):
                toks = [tok.lower() for tok in _TOKEN_RE.findall(t or "")]
                s = 0
                for i in range(1, len(toks)):
                    cu = uni.get(toks[i - 1], 1)
                    cb = bi.get(toks[i - 1] + SEP + toks[i], 1)
                    x = math.log(cb / cu) * 1e6
                    s += int(math.copysign(math.floor(abs(x) + 0.5), x))
                ids.append(doc_id)
                n_bi.append(max(len(toks) - 1, 0))
                sums.append(s)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "n_bigrams": pa.array(n_bi, pa.int64()),
                    "sum_logp_x1e6": pa.array(sums, pa.int64()),
                }
            )

    return ds.map_batches(
        Scorer, batch_format="pyarrow", concurrency=(1, concurrency), num_cpus=0.5
    )


def url_features(corpus_dir: str):
    """``(url, url_len, n_slash, n_query_params, n_digits)`` per corpus
    page — the URL-shape signals behind FineWeb/C4-style URL filtering
    (deep paths, parameter-heavy or digit-heavy URLs correlate with
    boilerplate/spam).  Pure Arrow kernels, zero parse, columns pruned to
    ``url`` at the read; the SQL oracle computes the identical integers.

    * ``url_len``        — character length;
    * ``n_slash``        — '/' occurrences (path depth + 2 scheme slashes);
    * ``n_query_params`` — 0 without '?', else '&' count + 1;
    * ``n_digits``       — decimal-digit characters.
    """
    import pyarrow.compute as pc
    import ray.data

    pages = ray.data.read_parquet(corpus_dir, columns=["url"])

    def feats(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        has_q = pc.cast(
            pc.greater(pc.count_substring(urls, "?"), 0), pa.int64()
        )
        n_amp = pc.cast(pc.count_substring(urls, "&"), pa.int64())
        stripped = pc.replace_substring_regex(urls, pattern="[0-9]", replacement="")
        return pa.table(
            {
                "url": urls,
                "url_len": pc.cast(pc.utf8_length(urls), pa.int64()),
                "n_slash": pc.cast(pc.count_substring(urls, "/"), pa.int64()),
                "n_query_params": pc.add(
                    pc.multiply(n_amp, has_q), has_q
                ),
                "n_digits": pc.subtract(
                    pc.cast(pc.utf8_length(urls), pa.int64()),
                    pc.cast(pc.utf8_length(stripped), pa.int64()),
                ),
            }
        )

    return pages.map_batches(feats, batch_format="pyarrow")


def lang_confusion(ds, lang_column: str = "lang", text_column: str = "text"):
    """``(lang, lang_pred, n)`` confusion matrix of the metadata language
    label vs the stopword-voting ``LangId`` heuristic — the standard
    calibration readout before trusting a cheap classifier at corpus
    scale.  Per-batch (lang, pred) Counter combiner → one tiny groupby
    (≤ |langs|² rows) regardless of corpus size."""
    from collections import Counter

    lid = LangId()

    def partial(batch: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for lang, text in zip(
            batch.column(lang_column).to_pylist(),
            batch.column(text_column).to_pylist(),
        ):
            c[(lang, lid.predict(text))] += 1
        keys = list(c.keys())
        return pa.table(
            {
                "lang": pa.array([k[0] for k in keys], pa.string()),
                "lang_pred": pa.array([k[1] for k in keys], pa.string()),
                "n": pa.array([c[k] for k in keys], pa.int64()),
            }
        )

    import pyarrow.compute as pc

    agg = (
        ds.select_columns([lang_column, text_column])
        .map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "lang_pred"])
        .sum("n")
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "lang": b.column("lang"),
                "lang_pred": b.column("lang_pred"),
                "n": pc.cast(b.column("sum(n)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def host_lang_mix(corpus_dir: str):
    """``(host, lang, n_pages)`` — per-host language mix of the held
    corpus (the crawl-steering readout: which hosts yield which
    languages).  Pruned two-column read, per-batch C++ ``group_by``
    combiner, one slim (host, lang) fold — page html never read."""
    import pyarrow.compute as pc
    import ray.data

    from .textclean import _hosts_of

    pages = ray.data.read_parquet(corpus_dir, columns=["url", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {"host": _hosts_of(batch.column("url")), "lang": batch.column("lang")}
        )
        return (
            t.group_by(["host", "lang"])
            .aggregate([([], "count_all")])
            .rename_columns(["host", "lang", "n_pages"])
        )

    agg = (
        pages.map_batches(partial, batch_format="pyarrow")
        .groupby(["host", "lang"])
        .sum("n_pages")
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "host": b.column("host"),
                "lang": b.column("lang"),
                "n_pages": pc.cast(b.column("sum(n_pages)"), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# CCNet-style perplexity bucketing (head / middle / tail per language)
# ---------------------------------------------------------------------------


def _ntile(rank: np.ndarray, n: int, k: int) -> np.ndarray:
    """Vectorized SQL ``ntile(k)`` over 1-based ``rank`` in a group of
    ``n`` rows: bucket sizes differ by at most one, larger buckets first
    (DuckDB/ANSI semantics — the oracle's window function)."""
    big = n % k
    small = n // k
    if small == 0:
        return rank.astype(np.int64)
    cut = big * (small + 1)
    return np.where(
        rank <= cut,
        (rank - 1) // (small + 1) + 1,
        big + (rank - cut - 1) // small + 1,
    ).astype(np.int64)


def perplexity_buckets(ds, k: int = 3, text_column: str = "text",
                       id_column: str = "doc_id", lang_column: str = "lang",
                       **kwargs):
    """CCNet-style quality bucketing: rank every doc WITHIN ITS LANGUAGE
    by per-token unigram log-probability (the order-0 perplexity proxy —
    :func:`unigram_logprob`'s pinned integer spec) and split each
    language into ``k`` ntile buckets — 1 = head (most probable), ``k`` =
    tail.  Zero-token docs are excluded.  Returns
    ``(doc_id, lang, bucket)``.

    Determinism across engines: the ranking key is the IEEE double
    quotient ``sum_logp_x1e6 / n_tokens`` of two int64s — both engines
    perform the same single division, so the quotient is bit-identical
    (the repo's libm-parity convention); ties break by ascending doc_id;
    bucket boundaries follow SQL ``ntile`` exactly (:func:`_ntile`).

    Scale shape: scores merge with the slim ``(doc_id, lang)`` rows
    through ONE coarse ``hash(doc_id)`` co-group (tagged union — no
    ``Dataset.join``), then ONE distributed sort of the slim
    ``(lang, -key, doc_id)`` triples — 24 bytes/doc, the engine's wide
    primitive.  Rank assignment is the distributed ordered-prefix
    pattern: one remote count task per sorted block gives the
    O(blocks × langs) driver offset table; one remote task per block
    assigns ``rank = start[lang] + local index`` and the ntile bucket
    vectorized, outputs streaming back via ``from_arrow_refs`` — no doc
    row ever lands on the driver.
    """
    import ray
    import ray.data as rd

    from ..poolsize import coarse_fanout
    from .behavior import coarse_part

    score = unigram_logprob(ds, text_column=text_column,
                            id_column=id_column, **kwargs)
    langs = ds.select_columns([id_column, lang_column])
    nparts = coarse_fanout()

    def tag_lang(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "doc_id": pc.cast(batch.column(id_column), pa.int64()),
                "lang": pc.cast(batch.column(lang_column), pa.string()),
                "negkey": pa.nulls(len(batch), pa.float64()),
            }
        )
        return t.append_column("part", coarse_part(t.column("doc_id"), nparts))

    def tag_score(batch: pa.Table) -> pa.Table:
        nt = batch.column("n_tokens").to_numpy(zero_copy_only=False).astype(np.int64)
        s = batch.column("sum_logp_x1e6").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = nt > 0
        nt, s = nt[keep], s[keep]
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)[keep]
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "lang": pa.nulls(len(ids), pa.string()),
                # single IEEE division of the two int64s (negated for an
                # all-ascending sort) — bit-identical to the SQL DOUBLE
                # quotient
                "negkey": pa.array(-(s.astype(np.float64) / nt), pa.float64()),
            }
        )
        return t.append_column("part", coarse_part(t.column("doc_id"), nparts))

    def merge(group: pa.Table) -> pa.Table:
        import polars as pl

        g = pl.from_arrow(group)
        sc = g.filter(pl.col("negkey").is_not_null()).select(["doc_id", "negkey"])
        la = g.filter(pl.col("negkey").is_null()).select(["doc_id", "lang"])
        out = sc.join(la, on="doc_id", how="inner").select(
            ["doc_id", "lang", "negkey"]
        )
        return out.to_arrow()

    merged = (
        langs.map_batches(tag_lang, batch_format="pyarrow")
        .union(score.map_batches(tag_score, batch_format="pyarrow"))
        .groupby("part")
        .map_groups(merge, batch_format="pyarrow")
    )

    empty = pa.table(
        {
            "doc_id": pa.array([], pa.int64()),
            "lang": pa.array([], pa.string()),
            "bucket": pa.array([], pa.int64()),
        }
    )
    srt = merged.sort(["lang", "negkey", "doc_id"]).materialize()
    block_refs = [
        ref
        for bundle in srt.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    if not block_refs:
        return rd.from_arrow(empty)

    @ray.remote
    def lang_counts(tbl: pa.Table) -> pa.Table:
        return (
            tbl.select(["lang"]).group_by("lang").aggregate([([], "count_all")])
            .rename_columns(["lang", "n"])
        )

    counts = ray.get([lang_counts.remote(r) for r in block_refs])
    totals: dict[str, int] = {}
    starts: list[dict[str, int]] = []
    for c in counts:  # blocks arrive in sorted dataset order
        starts.append(dict(totals))
        for l, n in zip(c.column("lang").to_pylist(), c.column("n").to_pylist()):
            totals[l] = totals.get(l, 0) + int(n)
    totals_ref = ray.put(totals)

    @ray.remote
    def assign(tbl: pa.Table, start: dict, k_: int) -> pa.Table:
        tot = ray.get(totals_ref)
        langs_np = np.asarray(tbl.column("lang"))
        pos = np.arange(len(langs_np), dtype=np.int64)
        new = np.ones(len(langs_np), dtype=bool)
        if len(langs_np):
            new[1:] = langs_np[1:] != langs_np[:-1]
        seg = np.maximum.accumulate(np.where(new, pos, 0))
        local = pos - seg  # 0-based index within this block's lang segment
        base = np.fromiter((start.get(l, 0) for l in langs_np), np.int64,
                           len(langs_np))
        rank = base + local + 1
        bucket = np.empty(len(langs_np), dtype=np.int64)
        for l in set(langs_np.tolist()):
            m = langs_np == l
            bucket[m] = _ntile(rank[m], tot[l], k_)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "lang": tbl.column("lang"),
                "bucket": pa.array(bucket, pa.int64()),
            }
        )

    out_refs = [
        assign.remote(r, starts[i], k) for i, r in enumerate(block_refs)
    ]
    return rd.from_arrow_refs(out_refs)
