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
from .scorers import Scorer
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

    def to_dict(self, vocab: Vocabulary, per_state: bool = False) -> dict:
        def hyp_dict(h: Hypothesis) -> dict:
            words = vocab.decode(h.tokens)
            if words and h.tokens[-1] == vocab.eos:
                words = words[:-1]
            return {"tokens": list(h.tokens), "logprob": h.logprob, "text": " ".join(words)}

        out: dict = {"status": self.status}
        if self.best is not None:
            out.update(hyp_dict(self.best))
            out["fsm_state"] = self.best.fsm_state
            out["satisfied_count"] = self.satisfied_count
        else:
            out.update(tokens=[], logprob=None, fsm_state=None, satisfied_count=None, text="")
        if per_state:
            out["per_state_best"] = {
                str(s): hyp_dict(h) for s, h in sorted(self.per_state_best.items())
            }
        return out


def _run_search(
    scorer: Scorer,
    fsm: Fsm,
    params: SearchParams,
    conditioning: np.ndarray | None = None,
) -> tuple[tuple, tuple, tuple, int]:
    """Multi-beam decode loop. Returns the search tree as (parent, token)
    lists, node 0 the empty root, whose paths `_path` reads back; the final
    live hypotheses as arrays of FSM state, logprob and node, in
    lexicographic order; the completed ones as arrays of FSM state, logprob
    and the node they end at before the end-of-sequence token, grouped by
    beam, each beam best-first; and the steps taken.

    Each timestep works on arrays over every live hypothesis at once, and
    asks the scorer once, through `top_k`, for every live row's best k tokens
    and its scores at the machine's listed tokens. A hypothesis extends
    along routes: the default route takes its best `beam_size` tokens that
    its state does not list, and each exception route its best `beam_size`
    among the listed tokens sent to one destination, both by (score desc,
    token asc), skipping the no-repeat token and -inf scores. Each
    destination beam then keeps the top `beam_size` of its completed
    hypotheses and the candidates routed to it, by (logprob desc, length
    asc, lexicographic tokens), in one lexsort. State ids have the smallest
    unsigned type that holds them all, so numpy radix-sorts its last key.
    Live hypotheses at a step all have its length and distinct token
    tuples, so among candidates the lexicographic order is (parent row,
    token), and completed hypotheses are shorter than every candidate."""
    if scorer.vocab_size < 1:
        raise ContractError("scorer has an empty vocabulary")
    if scorer.vocab_size != fsm.vocab_size:
        raise ContractError(
            f"FSM vocabulary size {fsm.vocab_size} does not match scorer {scorer.vocab_size}"
        )
    eos, b, v = scorer.eos, params.beam_size, scorer.vocab_size
    table = fsm.route_table()
    nx = table.tokens.shape[0]
    key = np.min_scalar_type(fsm.num_states - 1)
    # listed[s, col[w]]: whether state s lists token w, sending it to dest[s, col[w]]
    listed = np.zeros((fsm.num_states, nx + 1), dtype=bool)
    listed[:, :nx] = table.dest >= 0
    dest = table.dest.astype(key)
    defaults = np.array(fsm.defaults, dtype=key)
    accepting = np.zeros(fsm.num_states, dtype=bool)
    accepting[list(fsm.accepting)] = True
    # a row's best (beam + listed + 1) always cover the default route's best
    # beam after skipping listed tokens and the no-repeat token
    k = min(v, b + 1 + max(len(row) for row in fsm.rows))

    # live hypotheses: one decode-state batch, and parallel arrays of FSM
    # state, logprob and last token; their nodes are first, first + 1, ...
    # The tree lists each node's (parent node, token), the root's first
    states = scorer.initial_state(conditioning)
    fsm_state = np.array([fsm.start], dtype=key)
    logprob = np.zeros(1)
    last_token, first, tree = None, 0, [([0], [0])]
    # completed hypotheses: parallel arrays of FSM state, logprob and node.
    # Kept in selection order, so ones of one beam with equal logprobs stand
    # in (length, lexicographic) order
    done_state, done_lp, done_node = np.zeros(0, dtype=key), np.zeros(0), np.zeros(0, dtype=np.intp)

    for steps in range(1, params.max_len + 1):
        ids, scores, xs = scorer.top_k(states, k, table.tokens)
        cols = table.col[ids]
        last = last_token[:, None] if params.no_repeat and steps > 1 else -1

        # default route
        ok = ~listed.ravel()[(fsm_state.astype(np.intp) * (nx + 1))[:, None] + cols]
        ok &= (ids != last) & (scores > _NEG_INF)
        ok &= ok.cumsum(axis=1) <= b
        f = np.flatnonzero(ok)
        par = f // k
        routes = [(par, ids.ravel()[f], scores.ravel()[f], defaults[fsm_state[par]])]

        # exception routes: the best b per (parent, destination)
        if nx:
            f = np.flatnonzero(listed[fsm_state, :nx] & (table.tokens != last) & (xs > _NEG_INF))
            par, w, sc, d = f // nx, table.tokens[f % nx], xs.ravel()[f], dest[fsm_state].ravel()[f]
            if table.widest > b:
                order = np.lexsort((w, -sc, d, par))
                group = (par * fsm.num_states + d)[order]
                order = order[np.arange(order.shape[0]) - np.searchsorted(group, group) < b]
                par, w, sc, d = par[order], w[order], sc[order], d[order]
            routes.append((par, w, sc, d))
        par, w, sc, d = (np.concatenate(x) for x in zip(*routes))

        # selection: the first b of each destination in one lexsort. A
        # completed hypothesis's tie key is its (negative) position, which
        # puts it in order and ahead of every candidate, all longer
        lp = logprob[par] + sc
        lex = par * v + w
        nd = done_state.shape[0]
        pool_d = np.concatenate([done_state, d])
        pool_lp = np.concatenate([done_lp, lp])
        order = np.lexsort((np.concatenate([np.arange(-nd, 0), lex]), -pool_lp, pool_d))
        sd = pool_d[order]
        kept = order[np.arange(order.shape[0]) - np.searchsorted(sd, sd) < b]

        # the kept completed hypotheses, old and new, in kept order: each
        # beam's best first. A new one's node is its parent's
        is_done = np.concatenate([np.ones(nd, dtype=bool), w == eos])
        done = kept[is_done[kept]]
        done_node = np.concatenate([done_node, first + par])[done]
        done_state, done_lp = pool_d[done], pool_lp[done]

        # the kept live candidates in lexicographic order
        grow = kept[~is_done[kept]] - nd
        grow = grow[np.argsort(lex[grow])]
        parents, last_token = par[grow], w[grow]
        tree.append((first + parents, last_token))
        first += logprob.shape[0]
        fsm_state, logprob = d[grow], lp[grow]

        # terminate with no live hypothesis, at max_len, or once the best
        # accepted completion beats every live hypothesis in every beam;
        # else advance the live ones in one scorer call
        best = done_lp[accepting[done_state]].max(initial=_NEG_INF)
        if not grow.shape[0] or steps == params.max_len or best > logprob.max():
            break
        states = scorer.advance(states, parents, last_token)

    tree = tuple(np.concatenate(x).tolist() for x in zip(*tree))
    live = fsm_state, logprob, np.arange(first, first + logprob.shape[0])
    return tree, live, (done_state, done_lp, done_node), steps


def _path(tree: tuple[list[int], list[int]], node: int) -> tuple[int, ...]:
    """The tokens from the root of `_run_search`'s tree to `node`."""
    path = ()
    while node:
        path, node = (tree[1][node],) + path, tree[0][node]
    return path


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
    tree, _, (done_state, done_lp, done_node), _ = _run_search(scorer, fsm, params, conditioning)
    # each state's completed hypotheses stand best first: its first is its best
    states, first = np.unique(done_state, return_index=True)
    per_state_best = {
        s: Hypothesis(_path(tree, node) + (scorer.eos,), lp, s, completed=True)
        for s, node, lp in zip(states.tolist(), done_node[first].tolist(), done_lp[first].tolist())
    }
    return _result_from_per_state(per_state_best, fsm)


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


def phrase_machines(
    phrases: Sequence[PhraseConstraint], vocab_size: int, base_fsm: Fsm | None = None
) -> list[Fsm]:
    """One machine per phrase, each intersected with `base_fsm` when given
    (used to combine disjunctive constraints with the per-phrase protocol)."""
    if not phrases:
        raise ConstraintError("per-phrase decoding needs at least one phrase")
    machines = [compile_phrase(p, vocab_size) for p in phrases]
    return machines if base_fsm is None else [intersect(base_fsm, m) for m in machines]


def decode_best(
    scorer: Scorer,
    machines: Sequence[Fsm],
    params: SearchParams,
    conditioning: np.ndarray | None = None,
) -> DecodeResult:
    """Run one constrained decode per machine and keep the accepted result
    with the highest log probability; fall back to the best fallback when no
    run accepts. One machine gives its own decode."""
    results = [constrained_beam_search(scorer, m, params, conditioning) for m in machines]
    for status in (ACCEPTED, FALLBACK):
        pool = [r for r in results if r.status == status]
        if pool:
            return min(pool, key=lambda r: r.best.sort_key())
    return results[0]


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

    def visit(batch, row: int, logdist, fsm_state: int, tokens: tuple[int, ...], logprob: float):
        # the node is row `row` of `batch`; `logdist` is its next-token distribution
        depth = len(tokens)
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
        if children:
            batch = scorer.advance(batch, [row] * len(children), [w for w, _, _ in children])
            dists = scorer.log_probs(batch)
            for i, (w, nxt, lp) in enumerate(children):
                visit(batch, i, dists[i], nxt, tokens + (w,), lp)

    root = scorer.initial_state(conditioning)
    visit(root, 0, scorer.log_probs(root)[0], fsm.start, (), 0.0)
    return _result_from_per_state(best_per_state, fsm)
