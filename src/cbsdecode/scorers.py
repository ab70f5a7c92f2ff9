"""Sequence-scorer contract and count-based reference scorers.

A scorer exposes a stepwise conditional next-token log distribution over a
batch of decode states. A `DecodeState` is an immutable batch of B rows, the
scorer's own (B x .) arrays and nothing else: `initial_state` gives one row,
and `advance(state, parents, tokens)` a fresh batch whose row i follows row
parents[i] after consuming tokens[i]. Only `log_probs(state)` turns rows into
the (B x |V|) next-token distributions, when something reads them. Once per
step the search asks `top_k` for each row's best tokens and its scores at the
machine's listed tokens; a scorer may answer from caches of its own
(`NGramModel` ranks each context once, and never makes a block).
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DataError
from .files import in_file, read_json, read_lines
from .vocab import Vocabulary, tokenize

# sentence-start padding symbol: lives outside V and is never emitted
START = -1

NGRAM_FORMAT = "cbsdecode-ngram"
NGRAM_VERSION = 1


class DecodeState:
    """A batch of B decode states: `rows` holds the owner's own (B x .)
    arrays, at least one, gathered together by `take`. The distributions
    over each row's next token are `owner.log_probs(state)`."""

    __slots__ = ("owner", "rows")

    def __init__(self, owner: "Scorer", rows: tuple):
        self.owner = owner
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows[0])

    def take(self, parents: Sequence[int]) -> "DecodeState":
        """The batch of rows parents[0], parents[1], ..."""
        idx = np.asarray(parents, dtype=np.intp)
        return DecodeState(self.owner, tuple(r[idx] for r in self.rows))


def _top_ids(rows: np.ndarray, k: int) -> np.ndarray:
    """(B x k) ids of the k best entries of each row of the (B x n) `rows`,
    exactly ordered by (score desc, token asc); 1 <= k <= n."""
    b, n = rows.shape
    c = 4 * k
    if c >= n:
        return np.argsort(-rows, axis=1, kind="stable")[:, :k]
    # k of c strided slices of a row hold an entry at least `least`, so its
    # best k are the entries above it plus, when those are too few, the lowest
    # ids equal to it (an n-gram row is mostly one floor value)
    least = np.partition(rows[:, : n // c * c].reshape(b, n // c, c).max(axis=1), c - k, axis=1)
    least = least[:, c - k, None]
    flat = np.flatnonzero(rows > least)
    short = k - np.bincount(flat // n, minlength=b)
    if (short > 0).any():
        tie = np.flatnonzero((rows == least) & (short > 0)[:, None])
        r = tie // n
        flat = np.concatenate([flat, tie[np.arange(r.shape[0]) - np.searchsorted(r, r) < short[r]]])
    flat = flat[np.lexsort((flat, -rows.ravel()[flat], flat // n))]
    r = flat // n
    return flat[np.arange(r.shape[0]) - np.searchsorted(r, r) < k].reshape(b, k) % n


class Scorer(ABC):
    """Contract for any stepwise conditional sequence model."""

    @property
    @abstractmethod
    def vocab_size(self) -> int: ...

    @property
    @abstractmethod
    def eos(self) -> int:
        """Token id of the end-of-sequence marker."""

    @abstractmethod
    def initial_state(self, conditioning: np.ndarray | None = None) -> DecodeState:
        """The 1-row batch before any token."""

    @abstractmethod
    def _advance(self, state: DecodeState, tokens: np.ndarray) -> DecodeState:
        """The batch after row i of `state` consumes tokens[i], for a
        non-empty, validated batch."""

    @abstractmethod
    def log_probs(self, state: DecodeState) -> np.ndarray:
        """The (B x |V|) natural-log distributions over the next token of the
        rows of `state`, read-only or a fresh array."""

    def advance(self, state: DecodeState, parents: Sequence[int], tokens: Sequence[int]) -> DecodeState:
        """The batch whose row i follows row parents[i] of `state` after
        consuming tokens[i]. Row i depends only on that row and token, never
        on the rest of the batch. Checks every argument before advancing."""
        if not isinstance(state, DecodeState) or state.owner is not self:
            raise ContractError("decode state does not belong to this scorer")
        parents = np.asarray(parents, dtype=np.intp)
        tokens = np.asarray(tokens, dtype=np.intp)
        if parents.ndim != 1 or parents.shape != tokens.shape:
            raise ContractError(f"{parents.size} parents for {tokens.size} tokens")
        # one max each checks both ends: a negative id reads as a huge unsigned one
        n, v = len(state), self.vocab_size
        if parents.size and parents.view(np.uintp).max() >= n:
            bad = parents[(parents < 0) | (parents >= n)]
            raise ContractError(f"parent {bad[0]} out of range for {n} decode states")
        if tokens.size and tokens.view(np.uintp).max() >= v:
            bad = tokens[(tokens < 0) | (tokens >= v)]
            raise ContractError(f"token id {bad[0]} out of range for |V|={v}")
        gathered = state.take(parents)
        return self._advance(gathered, tokens) if tokens.size else gathered

    def top_k(
        self, state: DecodeState, k: int, tokens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`(ids, scores, token_scores)` for the rows of `state`: the (B x k)
        ids of each row's k best tokens, exactly ordered by (score desc, token
        asc), their (B x k) scores, and the rows' (B x len(tokens)) scores at
        `tokens`; 1 <= k <= |V|. Read from `log_probs(state)`; a scorer may
        override it with caches of its own that give the same values."""
        rows = self.log_probs(state)
        ids = _top_ids(rows, k)
        return ids, np.take_along_axis(rows, ids, axis=1), rows[:, tokens]

    def step(self, state: DecodeState, token: int) -> tuple[DecodeState, np.ndarray]:
        """One-row form of `advance`: the next 1-row batch and its log
        distribution over the following token."""
        if isinstance(state, DecodeState) and len(state) != 1:
            raise ContractError(f"step takes a 1-row decode state, got {len(state)} rows")
        nxt = self.advance(state, [0], [token])
        return nxt, self.log_probs(nxt)[0]


def sequence_logprob(
    scorer: Scorer, tokens: Sequence[int], conditioning: np.ndarray | None = None
) -> float:
    """Chain-rule log probability of `tokens` under the scorer."""
    state = scorer.initial_state(conditioning)
    dist = scorer.log_probs(state)[0]
    total = 0.0
    for w in tokens:
        total += float(dist[w])
        state, dist = scorer.step(state, w)
    return total


class UniformScorer(Scorer):
    """Every conditional probability is 1/|V|. Trivial test scorer; its rows
    are the last tokens, START before the first."""

    def __init__(self, vocab_size: int, eos: int | None = None):
        if vocab_size < 1:
            raise DataError("vocabulary must be non-empty")
        self._vocab_size = vocab_size
        self._eos = vocab_size - 1 if eos is None else eos
        if not 0 <= self._eos < vocab_size:
            raise DataError(f"eos id {eos} out of range")
        self._log_probs = np.full(vocab_size, -np.log(vocab_size))

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    @property
    def eos(self) -> int:
        return self._eos

    def initial_state(self, conditioning=None) -> DecodeState:
        return DecodeState(self, (np.full(1, START),))

    def _advance(self, state: DecodeState, tokens) -> DecodeState:
        return DecodeState(self, (tokens,))

    def log_probs(self, state: DecodeState) -> np.ndarray:
        return np.broadcast_to(self._log_probs, (len(state), self._vocab_size))


class NGramModel(Scorer):
    """Order-k count model with additive (add-alpha) smoothing.

    Conditionals are strictly positive for alpha > 0, so the model doubles as
    the probability source for brute-force enumeration oracles. Its counts
    are immutable after training; its decode caches grow as it decodes, so
    one model serves one thread at a time.
    """

    def __init__(self, order: int, alpha: float, vocab: Vocabulary):
        if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 1:
            raise DataError(f"n-gram order must be an integer >= 1, got {order!r}")
        if not 0 < alpha < float("inf"):
            raise DataError(f"smoothing constant must be finite and > 0, got {alpha}")
        self.order = order
        self.alpha = float(alpha)
        self.vocab = vocab
        # counts: `_keys` are the ascending context keys, base-(|V| + 1) digits
        # with START as 0 (Python ints where int64 would overflow); context i
        # continues with the ascending ids `_words[_bounds[i]:_bounds[i + 1]]`,
        # whose `_counts` sum to `_totals[i]`
        fits = (len(vocab) + 1) ** order <= np.iinfo(np.int64).max
        self._store(np.empty(0, dtype=np.int64 if fits else object), np.empty(0, dtype=np.int64))
        self._contexts: list[tuple[int, ...]] = []
        self._context_ids: dict[tuple[int, ...], int] = {}
        self._tails: dict[tuple[int, ...], int] = {}
        self._logp = np.empty((0, len(vocab)))
        self._tail = np.empty(0, dtype=np.int32)
        self._next = np.empty((0, len(vocab)), dtype=np.int32)
        self._top = np.empty((0, 0), dtype=np.intp)
        self._top_lp = np.empty((0, 0))
        self._ranked = 0

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def eos(self) -> int:
        return self.vocab.eos

    def logprob(self, context: Sequence[int], w: int) -> float:
        """ln((count(ctx, w) + a) / (count(ctx) + a|V|)) over the last k-1
        context tokens. Strictly finite."""
        if not 0 <= w < self.vocab_size:
            raise ContractError(f"token id {w} out of range")
        words, counts, total = self._continuations(self._normalize_context(context))
        j = np.searchsorted(words, w)
        cnt = counts[j] if j < len(words) and words[j] == w else 0
        return float(
            np.log(cnt + self.alpha) - np.log(total + self.alpha * self.vocab_size)
        )

    def _normalize_context(self, context: Sequence[int]) -> tuple[int, ...]:
        need = self.order - 1
        ctx = tuple(context)[-need:] if need else ()
        if len(ctx) < need:
            ctx = (START,) * (need - len(ctx)) + ctx
        return ctx

    def _store(self, keys: np.ndarray, counts: np.ndarray) -> None:
        """Keep the ascending, distinct k-gram keys `keys` and their counts."""
        base = self.vocab_size + 1
        contexts = keys // base
        first = np.flatnonzero(np.diff(contexts, prepend=-1))
        self._keys, self._bounds = contexts[first], np.append(first, len(keys))
        self._totals, self._counts = np.add.reduceat(counts, first), counts
        self._words = (keys % base).astype(np.int32) - 1

    def _continuations(self, ctx: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, int]:
        """(ids, counts, total) of the continuations of `ctx`; none when unseen."""
        key, v = 0, self.vocab_size
        for t in ctx:
            if not START <= t < v:
                return self._words[:0], self._counts[:0], 0
            key = key * (v + 1) + t + 1
        i = int(np.searchsorted(self._keys, key))
        if i == len(self._keys) or self._keys[i] != key:
            return self._words[:0], self._counts[:0], 0
        a, b = self._bounds[i : i + 2]
        return self._words[a:b], self._counts[a:b], self._totals[i]

    # decode state: rows = ((B,) context ids,). A context's id is its place in
    # `_contexts`, and row id of `_logp` is its distribution. The context after token w
    # depends on the context's tail, all but its first token: `_next[_tail[id], w]`
    # is its id, -1 until first asked for. `_top` and `_top_lp` hold the K best
    # ids and log-probs of the contexts below `_ranked`, K the widest k asked for

    def _context_id(self, ctx: tuple[int, ...]) -> int:
        cid = self._context_ids.get(ctx)
        if cid is not None:
            return cid
        cid = self._context_ids[ctx] = len(self._contexts)
        self._contexts.append(ctx)
        if cid == len(self._logp):
            cap = max(8, 2 * cid)
            self._logp, self._tail, self._top, self._top_lp = (
                _grown(a, cap) for a in (self._logp, self._tail, self._top, self._top_lp)
            )
        words, counts, total = self._continuations(ctx)
        row = np.zeros(self.vocab_size)
        row[words] = counts
        self._logp[cid] = np.log(row + self.alpha) - np.log(total + self.alpha * self.vocab_size)
        tid = self._tails.get(ctx[1:])
        if tid is None:
            tid = self._tails[ctx[1:]] = len(self._tails)
            if tid == len(self._next):
                self._next = _grown(self._next, 2 * tid + 1)
            self._next[tid] = -1
        self._tail[cid] = tid
        return cid

    def initial_state(self, conditioning=None) -> DecodeState:
        cid = self._context_id((START,) * (self.order - 1))
        return DecodeState(self, (np.array([cid], dtype=np.int32),))

    def _advance(self, state: DecodeState, tokens) -> DecodeState:
        (ctx,) = state.rows
        tail = self._tail[ctx]
        nxt = self._next[tail, tokens]
        miss = np.flatnonzero(nxt < 0)
        if miss.size:
            for c, w in zip(ctx[miss].tolist(), tokens[miss].tolist()):
                cid = self._context_id((self._contexts[c] + (w,))[1:])
                self._next[self._tail[c], w] = cid
            nxt = self._next[tail, tokens]
        return DecodeState(self, (nxt,))

    def log_probs(self, state: DecodeState) -> np.ndarray:
        return self._logp[state.rows[0]]

    def top_k(self, state: DecodeState, k: int, tokens: np.ndarray):
        """`Scorer.top_k` from the context cache: each context's row is ranked
        once, at the widest k asked for so far, and a smaller k reads a prefix."""
        (ctx,) = state.rows
        n = len(self._contexts)
        if k > self._top.shape[1]:
            self._top, self._ranked = np.empty((len(self._logp), k), dtype=np.intp), 0
            self._top_lp = np.empty((len(self._logp), k))
        if self._ranked < n:
            self._top[self._ranked : n] = ids = _top_ids(self._logp[self._ranked : n], self._top.shape[1])
            self._top_lp[self._ranked : n] = np.take_along_axis(self._logp[self._ranked : n], ids, axis=1)
            self._ranked = n
        return self._top[ctx, :k], self._top_lp[ctx, :k], self._logp[ctx[:, None], tokens]

    # persistence: JSON dump of counts + alpha + vocabulary

    def to_dict(self) -> dict:
        base, need = self.vocab_size + 1, self.order - 1
        digits = self._keys[:, None] // base ** np.arange(need - 1, -1, -1, dtype=self._keys.dtype) % base - 1
        words, counts, bounds = self._words.tolist(), self._counts.tolist(), self._bounds.tolist()
        contexts = [
            [ctx, total, list(zip(words[a:b], counts[a:b]))]
            for ctx, total, a, b in zip(digits.tolist(), self._totals.tolist(), bounds, bounds[1:])
        ]
        return {
            "format": NGRAM_FORMAT,
            "version": NGRAM_VERSION,
            "order": self.order,
            "alpha": self.alpha,
            "vocab": list(self.vocab.tokens),
            "eos": self.vocab.tokens[self.vocab.eos],
            "contexts": contexts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NGramModel":
        if not isinstance(data, dict) or data.get("format") != NGRAM_FORMAT:
            raise DataError("not an n-gram model dump")
        if data.get("version") != NGRAM_VERSION:
            raise DataError(f"unsupported n-gram dump version {data.get('version')}")
        try:
            vocab = Vocabulary(data["vocab"], eos_token=data["eos"])
            model = cls(order=data["order"], alpha=data["alpha"], vocab=vocab)
            model._store(*_dump_counts(model, data["contexts"]))
        except (KeyError, TypeError, ValueError) as e:
            raise DataError(f"malformed n-gram model dump: {e!r}") from e
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        data = read_json(path)
        with in_file(path):
            return cls.from_dict(data)


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """A copy of `a` with `rows` rows, its own first; the rest uninitialised."""
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


def _int64s(values: list, what: str) -> np.ndarray:
    """`values` as int64, a DataError naming the first that is no integer."""
    bad = next((x for x in values if type(x) is not int), None)
    if bad is not None:
        raise DataError(f"n-gram {what} {bad!r} is not an integer")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise DataError(f"n-gram {what} {max(values, key=abs)} out of range") from None


def _dump_counts(model: NGramModel, entries: list) -> tuple[np.ndarray, np.ndarray]:
    """The ascending k-gram keys of a dump's `contexts`, listed in any order,
    and their counts, checked as `ngram_train` writes them: each context is
    order - 1 ids in [START, |V|), listed once, with continuation ids in
    [0, |V|), each listed once; every count is an integer >= 1, and each
    total is the sum of its context's counts."""
    v, base, need = model.vocab_size, model.vocab_size + 1, model.order - 1
    ctxs, totals, sizes, pairs = [], [], [], []
    for ctx, total, conts in entries:
        if not isinstance(ctx, list) or len(ctx) != need:
            raise DataError(f"n-gram context {ctx!r} is not a list of {need} token ids")
        if not isinstance(conts, list) or not conts:
            raise DataError(f"n-gram context {ctx} has no list of continuations")
        ctxs += ctx
        totals.append(total)
        sizes.append(len(conts))
        pairs += conts
    bad = next((p for p in pairs if not isinstance(p, (list, tuple)) or len(p) != 2), None)
    if bad is not None:
        raise DataError(f"n-gram continuation {bad!r} is not a [token id, count] pair")
    ctxs = _int64s(ctxs, "context token id").reshape(len(sizes), need)
    words, counts = _int64s([p[0] for p in pairs], "continuation id"), _int64s([p[1] for p in pairs], "count")
    totals, ends = _int64s(totals, "total"), np.cumsum(sizes, dtype=np.intp)
    for what, ids, low in (("context token id", ctxs.ravel(), START), ("continuation id", words, 0)):
        if ids.size and (ids.min() < low or ids.max() >= v):
            raise DataError(f"n-gram {what} {ids[(ids < low) | (ids >= v)][0]} out of range for |V|={v}")
    if counts.size and counts.min() < 1:
        raise DataError(f"n-gram count {counts[counts < 1][0]} is not >= 1")
    sums = np.add.reduceat(counts, ends - sizes) if counts.size else totals
    if (totals != sums).any():
        i = np.flatnonzero(totals != sums)[0]
        raise DataError(f"n-gram context {entries[i][0]} total {totals[i]} is not the sum of its counts, {sums[i]}")
    keys = np.zeros(len(sizes), dtype=model._keys.dtype)
    for digit in ctxs.T:
        keys = keys * base + (digit + 1).astype(keys.dtype)
    order, again = _ascending(keys)
    if again >= 0:
        raise DataError(f"n-gram context {entries[again][0]} is listed twice")
    keys = np.repeat(keys * base, sizes) + (words + 1).astype(keys.dtype)
    order, again = _ascending(keys)
    if again >= 0:
        i = np.searchsorted(ends, again, side="right")
        raise DataError(f"n-gram context {entries[i][0]} lists token {words[again]} twice")
    return keys[order], counts[order]


def _ascending(keys: np.ndarray) -> tuple[np.ndarray, int]:
    """The stable ascending order of `keys`, and the index of a key equal to
    the one before it in that order (-1 when the keys are distinct)."""
    order = np.argsort(keys, kind="stable")
    ascending = keys[order]
    again = np.flatnonzero(ascending[1:] == ascending[:-1])
    return order, int(order[again[0] + 1]) if again.size else -1


def ngram_train(
    corpus: Iterable[Sequence[int]], order: int, alpha: float, vocab: Vocabulary
) -> NGramModel:
    """Count every k-gram and (k-1)-gram context with sentence-start padding,
    in one sort of k-gram keys of base-(|V| + 1) digits, START as 0 (Python
    ints where int64 would overflow).

    Sentences are expected to end with the end-of-sequence token. The model is
    immutable afterwards.
    """
    model, corpus, v = NGramModel(order=order, alpha=alpha, vocab=vocab), list(corpus), len(vocab)
    if not corpus:
        raise DataError("empty training corpus")
    lengths = np.fromiter(map(len, corpus), dtype=np.intp, count=len(corpus))
    keys = np.fromiter(chain.from_iterable(corpus), dtype=np.int64, count=int(lengths.sum()))
    if keys.size and (keys.min() < 0 or keys.max() >= v):
        raise DataError(f"token id {keys[(keys < 0) | (keys >= v)][0]} out of range for |V|={v}")
    base = v + 1
    keys = keys.astype(model._keys.dtype, copy=False)
    keys += 1
    d, heads = keys.copy(), (np.cumsum(lengths) - lengths)[lengths > 0]
    for _ in range(1, order):  # add each token further back, times base ** distance
        d[1:] = d[:-1]
        d[heads] = 0
        d *= base
        keys += d
    del d
    keys.sort()
    starts = np.flatnonzero(np.r_[keys.size > 0, keys[1:] != keys[:-1]])
    model._store(keys[starts], np.diff(starts, append=keys.size))
    return model


def load_corpus(path, vocab: Vocabulary | None = None) -> tuple[list[list[int]], Vocabulary]:
    """Read a plain-text corpus: one sentence per line, whitespace-tokenized,
    lower-cased on ingest. Appends the end-of-sequence token to every
    sentence; builds the vocabulary from the corpus when none is given."""
    lines = [words for words in map(tokenize, read_lines(path)) if words]
    if not lines:
        raise DataError(f"corpus {path} contains no sentences")
    if vocab is None:
        vocab = Vocabulary.from_tokens(w for words in lines for w in words)
    eos = vocab.eos
    sequences = [vocab.encode(words) + [eos] for words in lines]
    return sequences, vocab
