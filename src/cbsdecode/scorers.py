"""Sequence-scorer contract and count-based reference scorers.

A scorer exposes a stepwise conditional next-token log distribution over a
batch of decode states. A `DecodeState` is an immutable batch of B rows: the
batch returned by `initial_state` has one row, which already carries the
pending distribution over the first token, and `advance(state, parents,
tokens)` returns a fresh batch whose row i follows row parents[i] after
consuming tokens[i].
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from collections import Counter
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
    """A batch of B decode states. `log_probs[i]` is the read-only natural-log
    distribution over the NEXT token of row i; `rows` holds the owner's own
    (B x .) arrays, gathered together by `take`."""

    __slots__ = ("owner", "log_probs", "rows")

    def __init__(self, owner: "Scorer", log_probs: Sequence[np.ndarray], rows: tuple = ()):
        self.owner = owner
        self.log_probs = log_probs
        self.rows = rows

    def __len__(self) -> int:
        return len(self.log_probs)

    def take(self, parents: Sequence[int]) -> "DecodeState":
        """The batch of rows parents[0], parents[1], ...; it shares every
        distribution row with this batch."""
        idx = np.asarray(parents, dtype=np.intp)
        lp = self.log_probs
        return DecodeState(self.owner, [lp[i] for i in idx.tolist()], tuple(r[idx] for r in self.rows))


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
        bad = parents[(parents < 0) | (parents >= len(state))]
        if bad.size:
            raise ContractError(f"parent {bad[0]} out of range for {len(state)} decode states")
        v = self.vocab_size
        bad = tokens[(tokens < 0) | (tokens >= v)]
        if bad.size:
            raise ContractError(f"token id {bad[0]} out of range for |V|={v}")
        gathered = state.take(parents)
        return self._advance(gathered, tokens) if tokens.size else gathered

    def step(self, state: DecodeState, token: int) -> tuple[DecodeState, np.ndarray]:
        """One-row form of `advance`: the next 1-row batch and its log
        distribution over the following token."""
        if isinstance(state, DecodeState) and len(state) != 1:
            raise ContractError(f"step takes a 1-row decode state, got {len(state)} rows")
        nxt = self.advance(state, [0], [token])
        return nxt, nxt.log_probs[0]


def sequence_logprob(
    scorer: Scorer, tokens: Sequence[int], conditioning: np.ndarray | None = None
) -> float:
    """Chain-rule log probability of `tokens` under the scorer."""
    state = scorer.initial_state(conditioning)
    total = 0.0
    for w in tokens:
        total += float(state.log_probs[0][w])
        state, _ = scorer.step(state, w)
    return total


class UniformScorer(Scorer):
    """Every conditional probability is 1/|V|. Trivial test scorer."""

    def __init__(self, vocab_size: int, eos: int | None = None):
        if vocab_size < 1:
            raise DataError("vocabulary must be non-empty")
        self._vocab_size = vocab_size
        self._eos = vocab_size - 1 if eos is None else eos
        if not 0 <= self._eos < vocab_size:
            raise DataError(f"eos id {eos} out of range")
        self._log_probs = np.full(vocab_size, -np.log(vocab_size))
        self._log_probs.flags.writeable = False
        self._state = DecodeState(self, [self._log_probs])

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    @property
    def eos(self) -> int:
        return self._eos

    def initial_state(self, conditioning=None) -> DecodeState:
        return self._state

    def _advance(self, state: DecodeState, tokens) -> DecodeState:
        return state  # every row holds the same distribution and nothing else


class NGramModel(Scorer):
    """Order-k count model with additive (add-alpha) smoothing.

    Conditionals are strictly positive for alpha > 0, so the model doubles as
    the probability source for brute-force enumeration oracles. Immutable
    after training.
    """

    def __init__(self, order: int, alpha: float, vocab: Vocabulary):
        if order < 1:
            raise DataError(f"n-gram order must be >= 1, got {order}")
        if not alpha > 0:
            raise DataError(f"smoothing constant must be > 0, got {alpha}")
        self.order = order
        self.alpha = float(alpha)
        self.vocab = vocab
        self.context_counts: Counter[tuple[int, ...]] = Counter()
        self.continuations: dict[tuple[int, ...], Counter[int]] = {}
        self._row_cache: dict[tuple[int, ...], np.ndarray] = {}

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def eos(self) -> int:
        return self.vocab.eos

    def _count(self, seq: Sequence[int]) -> None:
        padded = (START,) * (self.order - 1) + tuple(seq)
        k = self.order
        for i in range(len(seq)):
            ctx = padded[i : i + k - 1]
            w = padded[i + k - 1]
            self.context_counts[ctx] += 1
            self.continuations.setdefault(ctx, Counter())[w] += 1

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

    def _log_row(self, ctx: tuple[int, ...]) -> np.ndarray:
        row = self._row_cache.get(ctx)
        if row is None:
            total = self.context_counts.get(ctx, 0)
            counts = np.zeros(self.vocab_size)
            for w, c in self.continuations.get(ctx, {}).items():
                counts[w] = c
            row = np.log(counts + self.alpha) - np.log(total + self.alpha * self.vocab_size)
            row.flags.writeable = False
            self._row_cache[ctx] = row
        return row

    # decode state: rows = ((B x k-1) context array,); log_probs[i] is the
    # cached `_log_row` of row i's context, shared, never copied

    def initial_state(self, conditioning=None) -> DecodeState:
        ctx = (START,) * (self.order - 1)
        return DecodeState(self, [self._log_row(ctx)], (np.array([ctx], dtype=np.intp),))

    def _advance(self, state: DecodeState, tokens) -> DecodeState:
        (ctx,) = state.rows
        ctx = np.concatenate([ctx, tokens[:, None]], axis=1)[:, 1:]
        return DecodeState(self, [self._log_row(c) for c in map(tuple, ctx.tolist())], (ctx,))

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

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_row_cache"}

    def __setstate__(self, state):
        vars(self).update(state, _row_cache={})


def ngram_train(
    corpus: Iterable[Sequence[int]], order: int, alpha: float, vocab: Vocabulary
) -> NGramModel:
    """Count every k-gram and (k-1)-gram context with sentence-start padding.

    Sentences are expected to end with the end-of-sequence token. The model is
    immutable afterwards.
    """
    model = NGramModel(order=order, alpha=alpha, vocab=vocab)
    n = 0
    for seq in corpus:
        model._count(seq)
        n += 1
    if n == 0:
        raise DataError("empty training corpus")
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
