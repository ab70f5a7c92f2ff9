"""Decode-quality metrics: F1 for object mentions and constraint satisfaction.

An image is predicted positive when the generated caption contains at least
one mention of the object, and ground-truth positive when any reference
caption does. Mention matching is exact-token; synonym and lemma coverage
belongs in the mention set data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DataError
from .files import in_file, read_json
from .fsm import Fsm
from .search import DecodeResult


@dataclass(frozen=True)
class MentionSpec:
    """Object name plus the lower-cased surface strings counting as mentions."""

    object_name: str
    mentions: frozenset[str]

    def __post_init__(self):
        if not self.mentions:
            raise DataError(f"mention set for {self.object_name!r} is empty")
        if any(m != m.lower() for m in self.mentions):
            raise DataError("mention sets must be lower-cased")

    @classmethod
    def from_dict(cls, data: dict) -> "MentionSpec":
        mentions = data.get("mentions", []) if isinstance(data, dict) else None
        if not isinstance(mentions, list) or not all(isinstance(m, str) for m in mentions):
            raise DataError(f"a mention spec must be an object with a list of mentions: {data!r}")
        if not isinstance(data.get("object", ""), str):
            raise DataError(f"a mention spec's object must be a string: {data!r}")
        try:
            return cls(
                object_name=data["object"],
                mentions=frozenset(m.lower() for m in data["mentions"]),
            )
        except KeyError as e:
            raise DataError(f"mention spec missing key {e}") from e


def load_mention_specs(path) -> list[MentionSpec]:
    """Accepts a single {"object": ..., "mentions": [...]} object or a list."""
    data = read_json(path)
    with in_file(path):
        return [MentionSpec.from_dict(e) for e in (data if isinstance(data, list) else [data])]


@dataclass(frozen=True)
class EvalPair:
    """One generated caption with its reference captions, all tokenized."""

    generated: tuple[str, ...]
    references: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.references:
            raise DataError("an eval pair needs at least one reference caption")


@dataclass(frozen=True)
class F1Score:
    precision: float
    recall: float
    f1: float
    # true when a zero denominator forced the corresponding value to 0
    degenerate: bool = False


def _mentions(tokens: Sequence[str], mentions: frozenset[str]) -> bool:
    return any(t in mentions for t in tokens)


def f1_mentions(pairs: Sequence[EvalPair], spec: MentionSpec) -> F1Score:
    """Precision/recall/F1 of object mentions over the pairs.

    Membership, not counts: duplicate mentions within one caption do not
    change the outcome. Degenerate denominators yield 0 with the flag set.
    """
    if not pairs:
        raise DataError("f1_mentions needs at least one pair")
    tp = fp = fn = 0
    for pair in pairs:
        predicted = _mentions(pair.generated, spec.mentions)
        actual = any(_mentions(ref, spec.mentions) for ref in pair.references)
        if predicted and actual:
            tp += 1
        elif predicted:
            fp += 1
        elif actual:
            fn += 1
    degenerate = False
    if tp + fp == 0:
        precision, degenerate = 0.0, True
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall, degenerate = 0.0, True
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0:
        return F1Score(precision, recall, 0.0, True)
    f1 = 2 * precision * recall / (precision + recall)
    return F1Score(precision, recall, f1, degenerate)


@dataclass
class MacroF1Report:
    per_object: dict[str, F1Score] = field(default_factory=dict)

    @property
    def precision(self) -> float:
        return self._mean("precision")

    @property
    def recall(self) -> float:
        return self._mean("recall")

    @property
    def f1(self) -> float:
        return self._mean("f1")

    def _mean(self, attr: str) -> float:
        scores = [getattr(s, attr) for s in self.per_object.values()]
        return sum(scores) / len(scores)

    def to_dict(self) -> dict:
        return {
            "per_object": {
                name: {"precision": s.precision, "recall": s.recall, "f1": s.f1}
                for name, s in sorted(self.per_object.items())
            },
            "macro": {"precision": self.precision, "recall": self.recall, "f1": self.f1},
        }


def macro_f1(
    object_pairs: Sequence[tuple[MentionSpec, Sequence[EvalPair]]]
) -> MacroF1Report:
    """Macro-average across objects: plain mean of the per-object scores."""
    if not object_pairs:
        raise DataError("macro_f1 needs at least one object")
    report = MacroF1Report()
    for spec, pairs in object_pairs:
        report.per_object[spec.object_name] = f1_mentions(pairs, spec)
    return report


def satisfaction_rate(results: Sequence[DecodeResult], fsms: Sequence[Fsm]) -> float:
    """Fraction of results whose output tokens the paired FSM accepts,
    regardless of the reported status. A result with no output counts as
    unsatisfied."""
    if not results:
        raise DataError("satisfaction_rate over an empty result list")
    if len(results) != len(fsms):
        raise DataError(f"{len(results)} results but {len(fsms)} machines")
    hits = 0
    for result, fsm in zip(results, fsms):
        if result.best is not None and fsm.recognizes(result.best.tokens):
            hits += 1
    return hits / len(results)
