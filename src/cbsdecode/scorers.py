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
from collections import Counter
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
        if not isinstance(order, (int, np.integer)) or order < 1:
            raise DataError(f"n-gram order must be an integer >= 1, got {order!r}")
        if not 0 < alpha < float("inf"):
            raise DataError(f"smoothing constant must be finite and > 0, got {alpha}")
        self.order = order
        self.alpha = float(alpha)
        self.vocab = vocab
        self.context_counts: Counter[tuple[int, ...]] = Counter()
        self.continuations: dict[tuple[int, ...], Counter[int]] = {}
        self._contexts: list[tuple[int, ...]] = []
        self._build_cache()

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
        ctx = self._normalize_context(context)
        total = self.context_counts.get(ctx, 0)
        cnt = self.continuations.get(ctx, {}).get(w, 0)
        return float(
            np.log(cnt + self.alpha) - np.log(total + self.alpha * self.vocab_size)
        )

    def _normalize_context(self, context: Sequence[int]) -> tuple[int, ...]:
        need = self.order - 1
        ctx = tuple(context)[-need:] if need else ()
        if len(ctx) < need:
            ctx = (START,) * (need - len(ctx)) + ctx
        return ctx

    # decode state: rows = ((B,) context ids,). A context's id is its place in
    # `_contexts`, and row id of `_logp` is its distribution. The context after token w
    # depends on the context's tail, all but its first token: `_next[_tail[id], w]`
    # is its id, -1 until first asked for. `_top` and `_top_lp` hold the K best
    # ids and log-probs of the contexts below `_ranked`, K the widest k asked for

    def _build_cache(self) -> None:
        """Fresh caches that hold the contexts of `_contexts` under the same ids."""
        v = self.vocab_size
        self._context_ids: dict[tuple[int, ...], int] = {}
        self._tails: dict[tuple[int, ...], int] = {}
        self._logp = np.empty((0, v))
        self._tail = np.empty(0, dtype=np.int32)
        self._next = np.empty((0, v), dtype=np.int32)
        self._top = np.empty((0, 0), dtype=np.intp)
        self._top_lp = np.empty((0, 0))
        self._ranked = 0
        contexts, self._contexts = self._contexts, []
        for ctx in contexts:
            self._context_id(ctx)

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
        counts = np.zeros(self.vocab_size)
        for w, c in self.continuations.get(ctx, {}).items():
            counts[w] = c
        total = self.context_counts.get(ctx, 0)
        self._logp[cid] = np.log(counts + self.alpha) - np.log(total + self.alpha * self.vocab_size)
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
        contexts = []
        for ctx in sorted(self.continuations):
            conts = sorted(self.continuations[ctx].items())
            contexts.append([list(ctx), self.context_counts[ctx], conts])
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
            for ctx, total, conts in data["contexts"]:
                ctx = tuple(ctx)
                model.context_counts[ctx] = total
                model.continuations[ctx] = Counter({w: c for w, c in conts})
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

    # a copy keeps the context ids, so decode states copied with it stay valid,
    # and rebuilds every cache behind them

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k in _PERSISTENT}

    def __setstate__(self, state):
        vars(self).update(state)
        self._build_cache()


_PERSISTENT = ("order", "alpha", "vocab", "context_counts", "continuations", "_contexts")


def _grown(a: np.ndarray, rows: int) -> np.ndarray:
    """A copy of `a` with `rows` rows, its own first; the rest uninitialised."""
    out = np.empty((rows,) + a.shape[1:], dtype=a.dtype)
    out[: len(a)] = a
    return out


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
    keys = keys if base**order <= np.iinfo(np.int64).max else keys.astype(object)
    keys += 1
    d, heads = keys.copy(), (np.cumsum(lengths) - lengths)[lengths > 0]
    for _ in range(1, order):  # add each token further back, times base ** distance
        d[1:] = d[:-1]
        d[heads] = 0
        d *= base
        keys += d
    keys.sort()
    starts = np.flatnonzero(np.r_[keys.size > 0, keys[1:] != keys[:-1]])
    counts, keys = np.diff(starts, append=keys.size), keys[starts]
    first = np.flatnonzero(np.diff(keys // base, prepend=-1))  # each context's first k-gram
    contexts = keys[first, None] // base ** np.arange(order - 1, 0, -1, dtype=keys.dtype) % base - 1
    # the token ids as shared int objects, one per id, not one per k-gram
    words = np.array(range(-1, v), dtype=object)[(keys % base).astype(np.intp)].tolist()
    counts, bounds = counts.tolist(), first.tolist() + [len(words)]
    for ctx, a, b in zip(map(tuple, contexts.tolist()), bounds, bounds[1:]):
        model.context_counts[ctx] = sum(counts[a:b])
        model.continuations[ctx] = Counter(dict(zip(words[a:b], counts[a:b])))
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
