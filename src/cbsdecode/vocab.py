"""Token vocabulary with dense ids and minimal text tokenization."""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DataError

EOS_TOKEN = "<eos>"


def tokenize(line: str) -> list[str]:
    """Lower-case and split on Unicode whitespace. No other normalization."""
    return line.lower().split()


class Vocabulary:
    """Ordered token inventory; ids are dense, 0-based positions.

    Contains a distinguished end-of-sequence token. Immutable: expansion
    produces a new Vocabulary via :meth:`extended`.
    """

    __slots__ = ("tokens", "_index", "eos")

    def __init__(self, tokens: Sequence[str], eos_token: str = EOS_TOKEN):
        if not isinstance(tokens, (list, tuple)) or not all(isinstance(w, str) for w in (*tokens, eos_token)):
            raise DataError("vocabulary must be a list of words, with a word as end-of-sequence")
        self.tokens: tuple[str, ...] = tuple(tokens)
        self._index: dict[str, int] = {}
        for i, w in enumerate(self.tokens):
            if w in self._index:
                raise DataError(f"duplicate vocabulary token: {w!r}")
            self._index[w] = i
        if eos_token not in self._index:
            raise DataError(f"vocabulary is missing the end-of-sequence token {eos_token!r}")
        self.eos: int = self._index[eos_token]

    @classmethod
    def from_tokens(cls, tokens: Iterable[str], eos_token: str = EOS_TOKEN) -> "Vocabulary":
        """Build from unique tokens in first-seen order, appending eos if absent."""
        ordered: list[str] = []
        seen: set[str] = set()
        for w in tokens:
            if w not in seen:
                seen.add(w)
                ordered.append(w)
        if eos_token not in seen:
            ordered.append(eos_token)
        return cls(ordered, eos_token=eos_token)

    def id(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise DataError(f"unknown vocabulary token: {word!r}") from None

    def word(self, token_id: int) -> str:
        if not 0 <= token_id < len(self.tokens):
            raise DataError(f"token id {token_id} out of range for |V|={len(self.tokens)}")
        return self.tokens[token_id]

    def encode(self, words: Iterable[str]) -> list[int]:
        return [self.id(w) for w in words]

    def decode(self, ids: Iterable[int]) -> list[str]:
        return [self.word(i) for i in ids]

    def extended(self, *words: str) -> "Vocabulary":
        """New vocabulary with `words` appended at ids len(self), len(self)+1, ...;
        a word already present is a duplicate, which the constructor rejects."""
        return Vocabulary(self.tokens + words, eos_token=self.tokens[self.eos])

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Vocabulary)
            and self.tokens == other.tokens
            and self.eos == other.eos
        )

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.tokens)} tokens, eos={self.tokens[self.eos]!r})"
