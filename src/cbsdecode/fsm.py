"""Compile word-level constraints into deterministic finite-state machines.

Two constraint classes are supported: conjunctions of disjunctive word sets
(state = bitmask of satisfied sets, 2^m states) and required contiguous
phrases (prefix-matching automaton with len+1 states). A product construction
combines machines over the same vocabulary.

Transition functions are total but stored sparsely: each state has a default
successor plus an exception map for the tokens that matter to the constraint.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError, ConstraintError, ContractError, DataError
from .files import in_file, read_json, read_lines
from .vocab import Vocabulary

logger = logging.getLogger(__name__)

MAX_DISJUNCTIONS = 16
MAX_PRODUCT_STATES = 4096


def _check_token_ids(ids: Iterable[int], vocab_size: int) -> None:
    for t in ids:
        if not 0 <= t < vocab_size:
            raise ConstraintError(f"token id {t} out of range for |V|={vocab_size}")


@dataclass(frozen=True)
class DisjunctiveConstraints:
    """Conjunction of disjunctive token sets: each set must contribute a word."""

    disjunctions: tuple[frozenset[int], ...]

    def __post_init__(self):
        for d in self.disjunctions:
            if not d:
                raise ConstraintError("empty disjunction set")

    @classmethod
    def from_sets(cls, sets: Iterable[Iterable[int]]) -> "DisjunctiveConstraints":
        return cls(tuple(frozenset(s) for s in sets))

    @classmethod
    def from_words(
        cls,
        groups: Iterable[Iterable[str]],
        vocab: Vocabulary,
        lemmas: "LemmaMap | None" = None,
    ) -> "DisjunctiveConstraints":
        """Resolve surface-string groups to token ids, expanding each word
        through the lemma map when one is given. Words that resolve to no id
        are dropped with a warning; a group with no id left is an error, and
        then nothing is logged."""
        sets, dropped = [], []
        for group in groups:
            ids: set[int] = set()
            unknown = []
            for word in group:
                if lemmas is not None:
                    found = expand_lemmas(word, lemmas, vocab)
                else:
                    found = {vocab.id(word)} if word in vocab else set()
                if not found:
                    unknown.append(word)
                ids |= found
            if not ids:
                raise ConstraintError(
                    f"unsatisfiable disjunction: none of {sorted(group)} is in the vocabulary"
                )
            if unknown:
                dropped.append((sorted(group), unknown))
            sets.append(ids)
        for group, unknown in dropped:
            logger.warning("disjunction %s: dropping %s, not in the vocabulary", group, unknown)
        return cls.from_sets(sets)

    def __len__(self) -> int:
        return len(self.disjunctions)


@dataclass(frozen=True)
class PhraseConstraint:
    """A contiguous token subsequence that must appear in the output."""

    tokens: tuple[int, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ConstraintError("empty phrase constraint")

    @classmethod
    def from_words(cls, words: Sequence[str], vocab: Vocabulary) -> "PhraseConstraint":
        missing = [w for w in words if w not in vocab]
        if missing:
            raise ConstraintError(f"phrase contains unknown tokens: {missing}")
        return cls(tuple(vocab.encode(words)))

    def __len__(self) -> int:
        return len(self.tokens)


class LemmaMap:
    """Surface string -> set of surface strings sharing its lemma.

    Built from tab-separated lemma groups; closure guarantees every mapped
    word's set contains the word itself.
    """

    def __init__(self, groups: Iterable[Iterable[str]] = ()):
        self.entries: dict[str, frozenset[str]] = {}
        for group in groups:
            members = frozenset(w.lower() for w in group)
            for w in members:
                self.entries[w] = self.entries.get(w, frozenset()) | members

    @classmethod
    def load(cls, path) -> "LemmaMap":
        """Read one lemma group per line, tab-separated, UTF-8."""
        groups = ([w for w in line.rstrip("\n").split("\t") if w] for line in read_lines(path))
        return cls(words for words in groups if words)

    def group(self, word: str) -> frozenset[str]:
        w = word.lower()
        return self.entries.get(w, frozenset((w,)))


def expand_lemmas(word: str, lm: LemmaMap, v: Vocabulary) -> set[int]:
    """Token ids of all vocabulary words sharing `word`'s lemma.

    Includes the word itself when in-vocabulary; may be empty if the word and
    every lemma-mate are out of vocabulary (callers treat that as an
    unsatisfiable constraint).
    """
    return {v.id(w) for w in lm.group(word) | {word.lower()} if w in v}


class RouteTable(NamedTuple):
    """An FSM's explicit transitions as arrays. `tokens` is the ascending
    union of every state's explicitly listed tokens; dest[s, k] is the
    destination of tokens[k] from state s, or -1 where tokens[k] takes s's
    default; col[w] is the index of token w in `tokens`, or len(tokens) for
    every other token; `widest` is the most tokens one state sends
    explicitly to one destination."""

    tokens: np.ndarray
    dest: np.ndarray
    col: np.ndarray
    widest: int


class Fsm:
    """Deterministic FSM over token ids with a total transition function.

    delta(s, w) = rows[s].get(w, defaults[s]). `progress` gives a per-state
    count of satisfied constraints, used to rank fallback beams. Immutable
    after construction; safe to share across concurrent decodes.
    """

    def __init__(
        self,
        num_states: int,
        start: int,
        accepting: Iterable[int],
        vocab_size: int,
        defaults: Sequence[int],
        rows: Sequence[Mapping[int, int]],
        progress: Sequence[int] | None = None,
    ):
        self.num_states = num_states
        self.start = start
        self.accepting = frozenset(accepting)
        self.vocab_size = vocab_size
        self.defaults = tuple(defaults)
        self.rows: tuple[dict[int, int], ...] = tuple(dict(r) for r in rows)
        self.progress = tuple(progress) if progress is not None else (0,) * num_states
        self._route_table: RouteTable | None = None
        self._validate()

    def _validate(self) -> None:
        if self.num_states < 1:
            raise ConstraintError("FSM needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise ConstraintError(f"start state {self.start} out of range")
        if not self.accepting <= set(range(self.num_states)):
            raise ConstraintError("accepting set contains unknown states")
        if len(self.defaults) != self.num_states or len(self.rows) != self.num_states:
            raise ConstraintError("defaults/rows must cover every state")
        if len(self.progress) != self.num_states:
            raise ConstraintError("progress must cover every state")
        for s in range(self.num_states):
            if not 0 <= self.defaults[s] < self.num_states:
                raise ConstraintError(f"default successor of state {s} out of range")
            for w, nxt in self.rows[s].items():
                if not 0 <= w < self.vocab_size:
                    raise ConstraintError(f"transition on invalid token id {w}")
                if not 0 <= nxt < self.num_states:
                    raise ConstraintError(f"transition to invalid state {nxt}")

    def step(self, state: int, token: int) -> int:
        """delta(state, token). Pure."""
        if not 0 <= state < self.num_states:
            raise ContractError(f"state {state} out of range for {self.num_states}-state FSM")
        if not 0 <= token < self.vocab_size:
            raise ContractError(f"token id {token} out of range for |V|={self.vocab_size}")
        return self.rows[state].get(token, self.defaults[state])

    def recognizes(self, seq: Iterable[int]) -> bool:
        """True iff folding delta from the start state lands in an accepting state."""
        state = self.start
        for w in seq:
            state = self.step(state, w)
        return state in self.accepting

    def route_table(self) -> RouteTable:
        """The explicit transitions as arrays, for the search's candidate
        routes. Cached; the arrays are read-only."""
        if self._route_table is None:
            tokens = sorted(set().union(*self.rows))
            col = np.full(self.vocab_size, len(tokens))
            col[tokens] = np.arange(len(tokens))
            dest = np.array([[row.get(w, -1) for w in tokens] for row in self.rows], dtype=np.int64)
            listed = np.nonzero(dest >= 0)
            pairs = listed[0] * self.num_states + dest[listed]  # (state, destination) keys
            widest = int(np.unique(pairs, return_counts=True)[1].max(initial=0))
            table = RouteTable(np.array(tokens, dtype=np.int64), dest, col, widest)
            for a in table[:3]:
                a.flags.writeable = False
            self._route_table = table
        return self._route_table

    def dump(self) -> dict:
        """Debug form: sparse list of non-self-loop transitions."""
        transitions = []
        for s in range(self.num_states):
            row = self.rows[s]
            default = self.defaults[s]
            if default != s:
                for w in range(self.vocab_size):
                    nxt = row.get(w, default)
                    if nxt != s:
                        transitions.append([s, w, nxt])
            else:
                for w in sorted(row):
                    if row[w] != s:
                        transitions.append([s, w, row[w]])
        return {
            "num_states": self.num_states,
            "start": self.start,
            "accepting": sorted(self.accepting),
            "vocab_size": self.vocab_size,
            "progress": list(self.progress),
            "transitions": transitions,
        }

    def __repr__(self) -> str:
        return (
            f"Fsm(states={self.num_states}, start={self.start}, "
            f"accepting={sorted(self.accepting)}, |V|={self.vocab_size})"
        )


def trivial_fsm(vocab_size: int) -> Fsm:
    """Single accepting state, every token self-loops: accepts everything."""
    return Fsm(1, 0, {0}, vocab_size, defaults=[0], rows=[{}])


def compile_disjunctions(c: DisjunctiveConstraints, vocab_size: int) -> Fsm:
    """One state per subset of satisfied disjunctions (state = bitmask).

    Start is the empty mask, the full mask accepts. Reading a token belonging
    to set i sets bit i; bits never clear. Tokens outside every set self-loop.
    """
    m = len(c)
    if m > MAX_DISJUNCTIONS:
        raise CapacityError(f"{m} disjunction sets would need 2^{m} beams (cap {MAX_DISJUNCTIONS})")
    bits: dict[int, int] = {}
    for i, d in enumerate(c.disjunctions):
        _check_token_ids(d, vocab_size)
        for w in d:
            bits[w] = bits.get(w, 0) | (1 << i)
    num_states = 1 << m
    rows: list[dict[int, int]] = []
    for s in range(num_states):
        row = {w: s | b for w, b in bits.items() if s | b != s}
        rows.append(row)
    progress = [bin(s).count("1") for s in range(num_states)]
    return Fsm(
        num_states=num_states,
        start=0,
        accepting={num_states - 1},
        vocab_size=vocab_size,
        defaults=list(range(num_states)),
        rows=rows,
        progress=progress,
    )


def compile_phrase(p: PhraseConstraint, vocab_size: int) -> Fsm:
    """Prefix-matching automaton: state k = longest suffix matching p[:k].

    len(p)+1 states, the last absorbing and accepting. On a mismatch, state k
    acts as its restart state, the one p[1:k] leads to, so overlapping partial
    matches are kept. Row keys ascend: product state numbers can follow them.
    """
    _check_token_ids(p.tokens, vocab_size)
    n = len(p)
    rows: list[dict[int, int]] = [{p.tokens[0]: 1}]
    x = 0
    for k, w in enumerate(p.tokens[1:], 1):
        rows.append(dict(sorted({**rows[x], w: k + 1}.items())))
        x = rows[x].get(w, 0)
    return Fsm(
        num_states=n + 1,
        start=0,
        accepting={n},
        vocab_size=vocab_size,
        defaults=[0] * n + [n],
        rows=rows + [{}],
        progress=[0] * n + [1],
    )


def intersect(a: Fsm, b: Fsm, max_states: int = MAX_PRODUCT_STATES) -> Fsm:
    """Product machine accepting exactly the intersection of both languages.

    Only pairs reachable from (a.start, b.start) are kept; states are
    renumbered in discovery order. Per-state progress is the sum of the
    components' progress.
    """
    if a.vocab_size != b.vocab_size:
        raise ConstraintError(
            f"cannot intersect machines over different vocabularies "
            f"({a.vocab_size} vs {b.vocab_size})"
        )
    start_pair = (a.start, b.start)
    # ids in discovery order; each pair's default and row are built when it
    # is popped, once its successors have ids
    ids: dict[tuple[int, int], int] = {start_pair: 0}
    defaults: dict[tuple[int, int], int] = {}
    rows: dict[tuple[int, int], dict[int, int]] = {}
    frontier = [start_pair]
    while frontier:
        sa, sb = pair = frontier.pop()
        ra, rb, da, db = a.rows[sa], b.rows[sb], a.defaults[sa], b.defaults[sb]
        tokens = set(ra) | set(rb)
        successors = [(da, db)] + [(ra.get(w, da), rb.get(w, db)) for w in tokens]
        for nxt in successors:
            if nxt not in ids:
                if len(ids) >= max_states:
                    raise CapacityError(
                        f"product FSM exceeds {max_states} states "
                        f"({a.num_states} x {b.num_states} components)"
                    )
                ids[nxt] = len(ids)
                frontier.append(nxt)
        default = defaults[pair] = ids[successors[0]]
        rows[pair] = {w: ids[p] for w, p in zip(tokens, successors[1:]) if ids[p] != default}
    return Fsm(
        num_states=len(ids),
        start=0,
        accepting={i for i, (sa, sb) in enumerate(ids) if sa in a.accepting and sb in b.accepting},
        vocab_size=a.vocab_size,
        defaults=[defaults[p] for p in ids],
        rows=[rows[p] for p in ids],
        progress=[a.progress[sa] + b.progress[sb] for sa, sb in ids],
    )


@dataclass
class ConstraintSpec:
    """Parsed constraint specification: disjunction groups plus phrases."""

    disjunctions: DisjunctiveConstraints
    phrases: list[PhraseConstraint] = field(default_factory=list)


def parse_constraint_spec(
    data: Mapping, vocab: Vocabulary, lemmas: LemmaMap | None = None
) -> ConstraintSpec:
    """Resolve a spec mapping ({"disjunctions": [["chair","chairs"], ...],
    "phrases": [["billiard","table"], ...]}) to token-id constraints.

    Disjunction members pass through the lemma map when one is given; phrase
    tokens must be in-vocabulary verbatim.
    """
    unknown = set(data) - {"disjunctions", "phrases"}
    if unknown:
        raise DataError(f"unknown constraint spec keys: {sorted(unknown)}")
    groups = data.get("disjunctions", [])
    phrases = data.get("phrases", [])
    if not isinstance(groups, list) or not isinstance(phrases, list):
        raise DataError("constraint spec fields must be lists")
    for kind, items in (("disjunction", groups), ("phrase", phrases)):
        if not all(isinstance(item, list) and all(isinstance(w, str) for w in item) for item in items):
            raise DataError(f"each {kind} must be a list of words")
    # phrases first: an unknown phrase word fails before dropped disjunction
    # words are logged, so a failing spec logs nothing
    phrase_constraints = [
        PhraseConstraint.from_words([w.lower() for w in p], vocab) for p in phrases
    ]
    normalized = [[w.lower() for w in g] for g in groups]
    disj = DisjunctiveConstraints.from_words(normalized, vocab, lemmas=lemmas)
    return ConstraintSpec(disjunctions=disj, phrases=phrase_constraints)


def load_constraint_spec(
    path, vocab: Vocabulary, lemmas: LemmaMap | None = None
) -> ConstraintSpec:
    data = read_json(path)
    with in_file(path):
        if not isinstance(data, dict):
            raise DataError("constraint spec must be a JSON object")
        return parse_constraint_spec(data, vocab, lemmas=lemmas)


def compile_spec(spec: ConstraintSpec, vocab: Vocabulary) -> Fsm:
    """Single machine enforcing every constraint in the spec (product form)."""
    machines: list[Fsm] = []
    if spec.disjunctions.disjunctions:
        machines.append(compile_disjunctions(spec.disjunctions, len(vocab)))
    for p in spec.phrases:
        machines.append(compile_phrase(p, len(vocab)))
    if not machines:
        return trivial_fsm(len(vocab))
    return functools.reduce(intersect, machines)
