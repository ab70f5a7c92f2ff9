"""Sequence-scorer contract and count-based reference scorers.

A scorer exposes a stepwise conditional next-token log distribution with
cheaply cloneable decode state. Decode states are immutable values: the
state returned by `initial_state` already carries the pending distribution
over the first token, and `advance` returns fresh states carrying the
distribution over the following one.
"""

from __future__ import annotations

import copy
import json
from abc import ABC, abstractmethod
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, DataError
from .vocab import Vocabulary, tokenize

# sentence-start padding symbol: lives outside V and is never emitted
START = -1

NGRAM_FORMAT = "cbsdecode-ngram"
NGRAM_VERSION = 1


class DecodeState:
    """Per-hypothesis scorer state. `log_probs` is the natural-log
    distribution over the NEXT token given everything consumed so far."""

    __slots__ = ("owner", "log_probs")

    def __init__(self, owner: "Scorer", log_probs: np.ndarray):
        self.owner = owner
        self.log_probs = log_probs

    def clone(self) -> "DecodeState":
        """Shallow copy; cost independent of the prefix length. States are
        immutable values, so clones share their arrays."""
        return copy.copy(self)


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
    def initial_state(self, conditioning: np.ndarray | None = None) -> DecodeState: ...

    @abstractmethod
    def _advance(self, state: DecodeState, token: int) -> DecodeState: ...

    def _advance_all(self, states: Sequence[DecodeState], tokens: Sequence[int]) -> list[DecodeState]:
        """Batch hook behind `advance` (validated, non-empty): loops `_advance`."""
        return [self._advance(s, w) for s, w in zip(states, tokens)]

    def advance(self, states: Sequence[DecodeState], tokens: Sequence[int]) -> list[DecodeState]:
        """The next state after consuming tokens[i] in states[i], for each i in
        order; a state's successor depends only on (state, token), never on
        the rest of the batch. Validates every argument before advancing."""
        if len(states) != len(tokens):
            raise ContractError(f"{len(states)} decode states for {len(tokens)} tokens")
        v = self.vocab_size
        for state, token in zip(states, tokens):
            if not isinstance(state, DecodeState) or state.owner is not self:
                raise ContractError("decode state does not belong to this scorer")
            if not 0 <= token < v:
                raise ContractError(f"token id {token} out of range for |V|={v}")
        return self._advance_all(states, tokens) if states else []

    def step(self, state: DecodeState, token: int) -> tuple[DecodeState, np.ndarray]:
        """One-state form of `advance`: the next state and the log
        distribution over the following token."""
        (nxt,) = self.advance([state], [token])
        return nxt, nxt.log_probs


def sequence_logprob(
    scorer: Scorer, tokens: Sequence[int], conditioning: np.ndarray | None = None
) -> float:
    """Chain-rule log probability of `tokens` under the scorer."""
    state = scorer.initial_state(conditioning)
    total = 0.0
    for w in tokens:
        total += float(state.log_probs[w])
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
        self._state = DecodeState(self, self._log_probs)

    @property
    def vocab_size(self) -> int:
        return self._vocab_size

    @property
    def eos(self) -> int:
        return self._eos

    def initial_state(self, conditioning=None) -> DecodeState:
        return self._state

    def _advance(self, state: DecodeState, token: int) -> DecodeState:
        return self._state


class _NGramState(DecodeState):
    __slots__ = ("context",)

    def __init__(self, owner, log_probs, context: tuple[int, ...]):
        super().__init__(owner, log_probs)
        self.context = context


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

    def initial_state(self, conditioning=None) -> _NGramState:
        ctx = (START,) * (self.order - 1)
        return _NGramState(self, self._log_row(ctx), ctx)

    def _advance(self, state: _NGramState, token: int) -> _NGramState:
        ctx = self._normalize_context(state.context + (token,))
        return _NGramState(self, self._log_row(ctx), ctx)

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
        if data.get("format") != NGRAM_FORMAT:
            raise DataError("not an n-gram model dump")
        if data.get("version") != NGRAM_VERSION:
            raise DataError(f"unsupported n-gram dump version {data.get('version')}")
        vocab = Vocabulary(data["vocab"], eos_token=data["eos"])
        model = cls(order=data["order"], alpha=data["alpha"], vocab=vocab)
        for ctx, total, conts in data["contexts"]:
            ctx = tuple(ctx)
            model.context_counts[ctx] = total
            model.continuations[ctx] = Counter({w: c for w, c in conts})
        return model

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "NGramModel":
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise DataError(f"invalid n-gram model file {path}: {e}") from e
        return cls.from_dict(data)

    def __getstate__(self):
        state = {
            "order": self.order,
            "alpha": self.alpha,
            "vocab": self.vocab,
            "context_counts": self.context_counts,
            "continuations": self.continuations,
        }
        return state

    def __setstate__(self, state):
        self.order = state["order"]
        self.alpha = state["alpha"]
        self.vocab = state["vocab"]
        self.context_counts = state["context_counts"]
        self.continuations = state["continuations"]
        self._row_cache = {}


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
    lines: list[list[str]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            words = tokenize(line)
            if words:
                lines.append(words)
    if not lines:
        raise DataError(f"corpus {path} contains no sentences")
    if vocab is None:
        vocab = Vocabulary.from_tokens(w for words in lines for w in words)
    eos = vocab.eos
    sequences = [vocab.encode(words) + [eos] for words in lines]
    return sequences, vocab
