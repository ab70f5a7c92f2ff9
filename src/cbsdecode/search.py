"""Standard and constrained beam search over pluggable sequence scorers.

Constrained decoding keeps one beam per FSM state. Every extension of a
partial sequence is routed to the beam of its destination state, so a
completed hypothesis sitting in an accepting beam is guaranteed to satisfy
the constraints recognized by the machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ConstraintError, ContractError, DecodeError
from .fsm import Fsm, PhraseConstraint, compile_phrase, intersect, trivial_fsm
from .scorers import DecodeState, Scorer
from .vocab import Vocabulary

ACCEPTED = "accepted"
FALLBACK = "fallback"
EMPTY = "empty"

_NEG_INF = float("-inf")


@dataclass
class SearchParams:
    """Decoding knobs. Defaults follow the reference setup: beam size 5 and
    no token predicted twice in a row."""

    beam_size: int = 5
    max_len: int = 20
    no_repeat: bool = True

    def __post_init__(self):
        if self.beam_size < 1:
            raise ConfigError(f"beam size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise ConfigError(f"max length must be >= 1, got {self.max_len}")


@dataclass
class Hypothesis:
    """A partial output sequence with its accumulated log probability and the
    FSM state reached by folding the transition function over its tokens."""

    tokens: tuple[int, ...]
    logprob: float
    fsm_state: int
    completed: bool = False
    scorer_state: DecodeState | None = None

    def sort_key(self):
        """Total order: logprob desc, then length asc, then lexicographic."""
        return (-self.logprob, len(self.tokens), self.tokens)


@dataclass
class DecodeResult:
    """Outcome of one constrained decode.

    status "accepted" carries the best completed hypothesis from an accepting
    beam (recognized by the FSM); "fallback" the best completed hypothesis
    from the most-satisfying non-accepting beam; "empty" means nothing
    completed anywhere within the length limit.
    """

    best: Hypothesis | None
    per_state_best: dict[int, Hypothesis]
    satisfied_count: int | None
    status: str

    def to_dict(self, vocab: Vocabulary | None = None, per_state: bool = False) -> dict:
        def hyp_dict(h: Hypothesis) -> dict:
            d = {"tokens": list(h.tokens), "logprob": h.logprob}
            if vocab is not None:
                words = vocab.decode(h.tokens)
                if words and h.tokens[-1] == vocab.eos:
                    words = words[:-1]
                d["text"] = " ".join(words)
            return d

        out: dict = {"status": self.status}
        if self.best is not None:
            out.update(hyp_dict(self.best))
            out["fsm_state"] = self.best.fsm_state
            out["satisfied_count"] = self.satisfied_count
        else:
            out.update(
                {"tokens": [], "logprob": None, "fsm_state": None, "satisfied_count": None}
            )
            if vocab is not None:
                out["text"] = ""
        if per_state:
            out["per_state_best"] = {
                str(s): hyp_dict(h) for s, h in sorted(self.per_state_best.items())
            }
        return out


def _ranked(ids: np.ndarray, logdist: np.ndarray) -> list[int]:
    """`ids` ordered by (score desc, token asc), the hypothesis total order
    among extensions of one parent."""
    return ids[np.lexsort((ids, -logdist[ids]))].tolist()


def _ordered_prefix(cache: dict, logdist: np.ndarray, k: int) -> list[int]:
    """Token ids of the k best entries of `logdist`, exactly ordered by
    (score desc, token asc).

    The ordering depends only on the distribution row, not on the hypothesis
    holding it, so it is cached per row object and shared across hypotheses,
    timesteps, and beams (scorers with few distinct contexts reuse one row for
    many states). The cache keeps a reference to the row, which pins its id.
    """
    key = id(logdist)
    hit = cache.get(key)
    if hit is not None:
        return hit[1]
    n = logdist.shape[0]
    if k >= n:
        chosen = np.arange(n)
    else:
        part = np.argpartition(logdist, n - k)[n - k:]
        cutoff = logdist[part].min()
        better = np.nonzero(logdist > cutoff)[0]
        fill = k - better.shape[0]
        ties = np.nonzero(logdist == cutoff)[0][:fill]
        chosen = np.concatenate([better, ties])
    order = _ranked(chosen, logdist)
    cache[key] = (logdist, order)
    return order


def _run_search(
    scorer: Scorer,
    fsm: Fsm,
    params: SearchParams,
    conditioning: np.ndarray | None = None,
) -> tuple[list[list[Hypothesis]], int]:
    """Multi-beam decode loop. Returns the final beams (one per FSM state,
    best-first) and the steps taken."""
    if scorer.vocab_size < 1:
        raise ContractError("scorer has an empty vocabulary")
    if scorer.vocab_size != fsm.vocab_size:
        raise ContractError(
            f"FSM vocabulary size {fsm.vocab_size} does not match scorer {scorer.vocab_size}"
        )
    eos = scorer.eos
    b = params.beam_size
    root = Hypothesis(
        tokens=(),
        logprob=0.0,
        fsm_state=fsm.start,
        completed=False,
        scorer_state=scorer.initial_state(conditioning),
    )
    beams: list[list[Hypothesis]] = [[] for _ in range(fsm.num_states)]
    beams[fsm.start].append(root)

    # top-(beam + exceptions + 1) of a row always covers the default group's
    # top-(beam) after filtering exception tokens and one no-repeat exclusion
    prefix_len = b + 1 + max(len(row) for row in fsm.rows)
    row_cache: dict = {}

    steps = 0
    for _ in range(params.max_len):
        live = [(s, h) for s, beam in enumerate(beams) for h in beam if not h.completed]
        if not live:
            break
        steps += 1
        # candidate records per destination: (neg_logprob, length, tokens, parent, token)
        candidates: dict[int, list] = {}
        for s, h in live:
            logdist = h.scorer_state.log_probs
            repeat = h.tokens[-1] if params.no_repeat and h.tokens else None
            new_len = len(h.tokens) + 1
            # routes: (destination, ranked tokens, tokens to skip). The default
            # route reads the row's cached ordering and skips the tokens with
            # explicit transitions; each exception group ranks its own few.
            routes = [(fsm.defaults[s], _ordered_prefix(row_cache, logdist, prefix_len), fsm.rows[s])]
            routes += [(dest, _ranked(toks, logdist), ()) for dest, toks in fsm.exception_groups(s)]
            for dest, ranked, skip in routes:
                bucket = candidates.setdefault(dest, [])
                taken = 0
                for w in ranked:
                    if taken == b:
                        break
                    if w == repeat or w in skip:
                        continue
                    sc = float(logdist[w])
                    if sc == _NEG_INF:
                        break  # ranked: everything after is -inf too
                    bucket.append((-(h.logprob + sc), new_len, h.tokens + (w,), h, w))
                    taken += 1

        # each beam keeps the top b of its completed hypotheses and the
        # candidates routed to it, and only the kept live ones are advanced,
        # all beams' in one scorer call. No two records tie: candidates are
        # longer than every completed hypothesis and their token tuples are
        # distinct.
        new_beams: list[list[Hypothesis]] = []
        grown: list[Hypothesis] = []  # hold their parent's scorer state until advanced
        for s, beam in enumerate(beams):
            pool = [(-h.logprob, len(h.tokens), h.tokens, h, None) for h in beam if h.completed]
            pool += candidates.get(s, ())
            pool.sort(key=lambda r: r[:3])
            kept: list[Hypothesis] = []
            for neg_lp, _, toks, parent, w in pool[:b]:
                if w is None:
                    kept.append(parent)
                elif w == eos:
                    kept.append(Hypothesis(toks, -neg_lp, s, completed=True))
                else:
                    kept.append(Hypothesis(toks, -neg_lp, s, scorer_state=parent.scorer_state))
                    grown.append(kept[-1])
            new_beams.append(kept)
        states = scorer.advance([h.scorer_state for h in grown], [h.tokens[-1] for h in grown])
        for h, state in zip(grown, states):
            h.scorer_state = state
        beams = new_beams

        # terminate once the best accepted completion beats every incomplete
        # hypothesis in every beam
        done = [h.logprob for s in fsm.accepting for h in beams[s] if h.completed]
        frontier = max((h.logprob for beam in beams for h in beam if not h.completed),
                       default=_NEG_INF)
        if done and (frontier == _NEG_INF or max(done) > frontier):
            break
    return beams, steps


def _assemble_result(beams: list[list[Hypothesis]], fsm: Fsm) -> DecodeResult:
    per_state_best: dict[int, Hypothesis] = {}
    for s, beam in enumerate(beams):
        completed = [h for h in beam if h.completed]
        if completed:
            per_state_best[s] = min(completed, key=Hypothesis.sort_key)
    return _result_from_per_state(per_state_best, fsm)


def _result_from_per_state(per_state_best: dict[int, Hypothesis], fsm: Fsm) -> DecodeResult:
    accepted = {s: h for s, h in per_state_best.items() if s in fsm.accepting}
    if accepted:
        best = min(accepted.values(), key=Hypothesis.sort_key)
        return DecodeResult(best, per_state_best, fsm.progress[best.fsm_state], ACCEPTED)
    if per_state_best:
        best = min(
            per_state_best.values(),
            key=lambda h: (-fsm.progress[h.fsm_state],) + h.sort_key(),
        )
        return DecodeResult(best, per_state_best, fsm.progress[best.fsm_state], FALLBACK)
    return DecodeResult(None, {}, None, EMPTY)


def constrained_beam_search(
    scorer: Scorer,
    fsm: Fsm,
    params: SearchParams,
    conditioning: np.ndarray | None = None,
) -> DecodeResult:
    """Decode under the constraints recognized by `fsm`.

    Each timestep extends every non-completed hypothesis in every beam by
    every vocabulary token (minus no-repeat exclusions) and routes extension
    (y, w) to the candidate set of state delta(state(y), w); each beam then
    keeps its top `beam_size`. Search stops when an accepting beam holds a
    completed hypothesis scoring strictly above every incomplete hypothesis
    in all beams, or at `max_len`.

    Deterministic: ties are broken by (logprob desc, length asc,
    lexicographic token ids).
    """
    beams, _ = _run_search(scorer, fsm, params, conditioning)
    return _assemble_result(beams, fsm)


def beam_search(
    scorer: Scorer,
    params: SearchParams,
    conditioning: np.ndarray | None = None,
) -> Hypothesis:
    """Unconstrained decode: constrained search over the single-state
    accepting machine. Returns the best completed hypothesis."""
    result = constrained_beam_search(
        scorer, trivial_fsm(scorer.vocab_size), params, conditioning
    )
    if result.best is None:
        raise DecodeError(
            f"no hypothesis completed within max_len={params.max_len}; "
            "raise max_len or check the scorer's end-of-sequence mass"
        )
    return result.best


def decode_multi_phrase(
    scorer: Scorer,
    phrases: Sequence[PhraseConstraint],
    params: SearchParams,
    conditioning: np.ndarray | None = None,
    base_fsm: Fsm | None = None,
) -> DecodeResult:
    """Run one constrained decode per phrase and keep the accepted result with
    the highest log probability; fall back to the best fallback when no run
    accepts. `base_fsm`, when given, is intersected into every per-phrase
    machine (used to combine disjunctive constraints with the per-phrase
    protocol)."""
    if not phrases:
        raise ConstraintError("decode_multi_phrase needs at least one phrase")
    results: list[DecodeResult] = []
    for p in phrases:
        machine = compile_phrase(p, _SizedVocab(scorer.vocab_size))
        if base_fsm is not None:
            machine = intersect(base_fsm, machine)
        results.append(constrained_beam_search(scorer, machine, params, conditioning))
    for status in (ACCEPTED, FALLBACK):
        pool = [r for r in results if r.status == status]
        if pool:
            return min(pool, key=lambda r: r.best.sort_key())
    return results[0]


class _SizedVocab:
    """Duck-typed stand-in exposing only a size, for compiling id-level
    constraints without a surface-string vocabulary."""

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n


def exhaustive_decode(
    scorer: Scorer,
    fsm: Fsm,
    params: SearchParams,
    conditioning: np.ndarray | None = None,
    limit: int = 2_000_000,
) -> DecodeResult:
    """Brute-force reference decoder for tiny instances.

    Enumerates every sequence ending in the end-of-sequence token within
    `max_len` (honoring the no-repeat rule) and keeps the best completion per
    FSM state, then applies the same selection and tie-break policy as the
    beam decoder. Cost grows as |V|^max_len; refuses instances whose
    enumeration budget exceeds `limit`.
    """
    if scorer.vocab_size != fsm.vocab_size:
        raise ContractError(
            f"FSM vocabulary size {fsm.vocab_size} does not match scorer {scorer.vocab_size}"
        )
    v = scorer.vocab_size
    nodes, layer = 0, 1
    for _ in range(params.max_len):
        nodes += layer * v
        layer *= max(1, v - 1)
        if nodes > limit:
            raise ConfigError(
                f"exhaustive enumeration needs more than {limit} steps "
                f"(|V|={v}, max_len={params.max_len}); shrink the instance or raise --limit"
            )
    eos = scorer.eos
    best_per_state: dict[int, Hypothesis] = {}

    def consider(tokens: tuple[int, ...], logprob: float, state: int) -> None:
        h = Hypothesis(tokens, logprob, state, completed=True)
        cur = best_per_state.get(state)
        if cur is None or h.sort_key() < cur.sort_key():
            best_per_state[state] = h

    def visit(decode_state, fsm_state: int, tokens: tuple[int, ...], logprob: float):
        depth = len(tokens)
        logdist = decode_state.log_probs
        last = tokens[-1] if tokens else None
        children = []  # (token, fsm state, logprob) of every non-EOS extension
        for w in range(v):
            if params.no_repeat and w == last:
                continue
            lp = logprob + float(logdist[w])
            if lp == _NEG_INF:
                continue
            nxt = fsm.step(fsm_state, w)
            if w == eos:
                consider(tokens + (w,), lp, nxt)
            elif depth + 1 < params.max_len:
                children.append((w, nxt, lp))
        states = scorer.advance([decode_state] * len(children), [w for w, _, _ in children])
        for (w, nxt, lp), child in zip(children, states):
            visit(child, nxt, tokens + (w,), lp)

    visit(scorer.initial_state(conditioning), fsm.start, (), 0.0)
    return _result_from_per_state(best_per_state, fsm)
