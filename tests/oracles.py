"""Independent brute-force reference implementations used as test oracles.

Nothing here reuses the package's decoding or automaton paths: constraint
checks are direct set-membership and substring scans, sequence scores are
chain-rule sums of individually queried conditionals, and the argmax is a
full enumeration. The reference search loop reads a machine's `defaults`
and `rows` directly and steps each hypothesis alone with `step`. The two
exceptions are at the end. The reference neural step shares the package's
nonlinearities and differs from `CaptionModel._step_rows` only in how it
lays out its GEMMs. The reference trainer shares the model's passes and
differs from `neural.train` only in how it chunks its loss passes. The
reference embedding loader shares the package's line reader and parses
every value of every wanted line by its own `float` call.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cbsdecode.errors import DataError
from cbsdecode.files import read_lines
from cbsdecode.neural import _gate_cell, log_softmax
from cbsdecode.scorers import DecodeState


def satisfies_disjunctions(seq, sets) -> bool:
    """Direct membership check: every set shares a token with the sequence."""
    present = set(seq)
    return all(present & set(d) for d in sets)


def contains_phrase(seq, phrase) -> bool:
    """Direct substring scan."""
    seq, phrase = tuple(seq), tuple(phrase)
    n = len(phrase)
    return any(seq[i : i + n] == phrase for i in range(len(seq) - n + 1))


def phrase_transition(phrase, k, w) -> int:
    """Where a phrase's prefix-matching automaton goes from state k (k tokens
    of the phrase matched) on token w: the length of the longest suffix of
    phrase[:k] + (w,) that is a prefix of the phrase, found by trying every
    length."""
    read = tuple(phrase[:k]) + (w,)
    return max(j for j in range(len(read) + 1) if read[len(read) - j :] == tuple(phrase[:j]))


def all_sequences(alphabet, max_len):
    """Every tuple over `alphabet` of length 0..max_len."""
    for length in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=length)


def terminated_sequences(vocab_size, eos, max_len, no_repeat=True):
    """Every candidate decoder output: ends with eos, eos nowhere else,
    total length <= max_len, optionally without immediate repeats."""
    others = [w for w in range(vocab_size) if w != eos]
    for length in range(max_len):
        for prefix in itertools.product(others, repeat=length):
            seq = prefix + (eos,)
            if no_repeat and any(a == b for a, b in zip(seq, seq[1:])):
                continue
            yield seq


def ngram_sequence_logprob(model, seq) -> float:
    """Chain-rule sum via direct conditional queries, no decode states."""
    total = 0.0
    context = []
    for w in seq:
        total += model.logprob(context, w)
        context.append(w)
    return total


def reference_ngram_counts(corpus, order):
    """(context_counts, continuations) of `ngram_train`, counted one token at
    a time: each context is the order - 1 tokens before a token, padded with
    START (-1) at the sentence start."""
    context_counts, continuations = Counter(), {}
    for seq in corpus:
        padded = (-1,) * (order - 1) + tuple(seq)
        for i in range(len(seq)):
            ctx = padded[i : i + order - 1]
            context_counts[ctx] += 1
            continuations.setdefault(ctx, Counter())[padded[i + order - 1]] += 1
    return context_counts, continuations


def filtered_argmax(model, eos, max_len, accepts, no_repeat=True):
    """Best accepted terminated sequence under (logprob desc, length asc,
    lexicographic) order, or None when nothing is accepted."""
    best_key, best = None, None
    for seq in terminated_sequences(model.vocab_size, eos, max_len, no_repeat):
        if not accepts(seq):
            continue
        key = (-ngram_sequence_logprob(model, seq), len(seq), seq)
        if best_key is None or key < best_key:
            best_key, best = key, seq
    if best is None:
        return None
    return best, -best_key[0]


def greedy_decode(scorer, max_len, no_repeat=True, conditioning=None):
    """Stepwise argmax with no-repeat filtering; ties go to the lowest id.
    Returns (tokens, logprob); tokens may lack eos if the budget ran out."""
    state = scorer.initial_state(conditioning)
    tokens: list[int] = []
    total = 0.0
    for _ in range(max_len):
        dist = scorer.log_probs(state)[0].copy()
        if no_repeat and tokens:
            dist[tokens[-1]] = -math.inf
        w = int(dist.argmax())
        total += float(dist[w])
        tokens.append(w)
        if w == scorer.eos:
            break
        state, _ = scorer.step(state, w)
    return tuple(tokens), total


def take(state, rows):
    """The batch of rows rows[0], rows[1], ... of the decode state `state`."""
    idx = np.asarray(rows, dtype=np.intp)
    return DecodeState(state.owner, tuple(r[idx] for r in state.rows))


# The constrained search loop as it stood before the array beam update, kept
# as the reference for `search._run_search`: one Python record per candidate,
# routes ranked per hypothesis, and one sort per destination beam.

_NEG_INF = float("-inf")


@dataclass
class RefHypothesis:
    tokens: tuple
    logprob: float
    fsm_state: int
    completed: bool = False
    scorer_state: object = None


def _ranked(ids, logdist):
    """`ids` ordered by (score desc, token asc)."""
    return ids[np.lexsort((ids, -logdist[ids]))].tolist()


def _ordered_prefix(cache, logdist, k):
    """Token ids of the k best entries of `logdist`, ordered by (score desc,
    token asc); cached per row object."""
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


def _exception_groups(fsm, state):
    """The explicit transitions of `state` grouped by destination:
    [(dest, ascending token ids)], destinations ascending."""
    by_dest = {}
    for w, nxt in fsm.rows[state].items():
        by_dest.setdefault(nxt, []).append(w)
    return [(dest, np.array(sorted(toks), dtype=np.int64)) for dest, toks in sorted(by_dest.items())]


def reference_run_search(scorer, fsm, params, conditioning=None):
    """Final beams (one per FSM state, best-first) and the steps taken."""
    eos = scorer.eos
    b = params.beam_size
    root = RefHypothesis((), 0.0, fsm.start, scorer_state=scorer.initial_state(conditioning))
    beams = [[] for _ in range(fsm.num_states)]
    beams[fsm.start].append(root)
    prefix_len = b + 1 + max(len(row) for row in fsm.rows)
    row_cache = {}

    steps = 0
    for _ in range(params.max_len):
        live = [(s, h) for s, beam in enumerate(beams) for h in beam if not h.completed]
        if not live:
            break
        steps += 1
        candidates = {}
        for s, h in live:
            logdist = scorer.log_probs(h.scorer_state)[0]
            repeat = h.tokens[-1] if params.no_repeat and h.tokens else None
            new_len = len(h.tokens) + 1
            routes = [(fsm.defaults[s], _ordered_prefix(row_cache, logdist, prefix_len), fsm.rows[s])]
            routes += [(dest, _ranked(toks, logdist), ()) for dest, toks in _exception_groups(fsm, s)]
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
                        break
                    bucket.append((-(h.logprob + sc), new_len, h.tokens + (w,), h, w))
                    taken += 1

        new_beams = []
        grown = []
        for s, beam in enumerate(beams):
            pool = [(-h.logprob, len(h.tokens), h.tokens, h, None) for h in beam if h.completed]
            pool += candidates.get(s, ())
            pool.sort(key=lambda r: r[:3])
            kept = []
            for neg_lp, _, toks, parent, w in pool[:b]:
                if w is None:
                    kept.append(parent)
                elif w == eos:
                    kept.append(RefHypothesis(toks, -neg_lp, s, completed=True))
                else:
                    kept.append(RefHypothesis(toks, -neg_lp, s, scorer_state=parent.scorer_state))
                    grown.append(kept[-1])
            new_beams.append(kept)
        for h in grown:
            h.scorer_state, _ = scorer.step(h.scorer_state, h.tokens[-1])
        beams = new_beams

        done = [h.logprob for s in fsm.accepting for h in beams[s] if h.completed]
        frontier = max((h.logprob for beam in beams for h in beam if not h.completed),
                       default=_NEG_INF)
        if done and (frontier == _NEG_INF or max(done) > frontier):
            break
    return beams, steps


# The decode step's GEMM layout before the wide GEMMs, kept as the reference
# for their bits: every GEMM runs one 8-row block of hypotheses at a time, and
# the tied projection one 512-column tile of w_e at a time, the last block and
# tile zero-padded.

REF_ROWS, REF_TILE = 8, 512


def _ref_blocked(a, w):
    """`a @ w` as one (8 x K) @ (K x M) GEMM per block of rows of `a`."""
    rows = len(a)
    a = np.concatenate([a, np.zeros((-rows % REF_ROWS, a.shape[1]))])
    out = np.empty((len(a), w.shape[1]))
    for lo in range(0, len(a), REF_ROWS):
        np.matmul(a[lo : lo + REF_ROWS], w, out=out[lo : lo + REF_ROWS])
    return out[:rows]


def reference_tied_logits(m, h2):
    """(B x |V|) tied-output logits of B top-layer states, one `_ref_blocked`
    GEMM per 512 columns of w_e."""
    v = np.tanh(_ref_blocked(h2, m.w_v.T) + m.b_v)
    d, cols = m.w_e.shape
    logits = np.empty((len(v), cols + -cols % REF_TILE))
    for lo in range(0, cols, REF_TILE):
        tile = m.w_e[:, lo : lo + REF_TILE]
        if tile.shape[1] < REF_TILE:
            tile = np.hstack([tile, np.zeros((d, REF_TILE - tile.shape[1]))])
        logits[:, lo : lo + REF_TILE] = _ref_blocked(v, tile)
    return logits[:, :cols]


def reference_step_rows(m, x, h1, c1, h2, c2, cond):
    """(log_probs, h1, c1, h2, c2) after one decode step of B hypotheses of
    the caption model `m`, from the same (B x .) arrays as `_step_rows`."""
    z1 = _ref_blocked(np.hstack([x, h1]), m.layer1.w.T) + m.layer1.b
    h1, c1, _ = _gate_cell(z1, c1)
    z2 = _ref_blocked(np.hstack([h1, cond, h2]), m.layer2.w.T) + m.layer2.b
    h2, c2, _ = _gate_cell(z2, c2)
    return log_softmax(reference_tied_logits(m, h2)), h1, c1, h2, c2


def reference_train(m, corpus, lr: float, epochs: int, batch_size: int, seed: int) -> list[float]:
    """`neural.train` with a constant learning rate and its loss passes in
    `batch_size` chunks of the corpus in corpus order, the layout before
    length-sorted loss chunks. Trains `m` in place; returns the loss of each
    pass, the pre-update pass first."""
    rng = np.random.default_rng(seed)
    params = m.trainable()

    def mean_loss():
        chunks = range(0, len(corpus), batch_size)
        return float(np.mean(np.concatenate([m.batch_losses(corpus[lo : lo + batch_size]) for lo in chunks])))

    losses = [mean_loss()]
    for _ in range(epochs):
        order = rng.permutation(len(corpus))
        for lo in range(0, len(order), batch_size):
            grads, _ = m.gradients([corpus[i] for i in order[lo : lo + batch_size]])
            for name, arr in params.items():
                arr -= lr * grads[name]
        losses.append(mean_loss())
    return losses


def reference_load_embeddings(path, needed=None):
    """(dim, {word: vector}, sorted missing words) of a vector file, read one
    line at a time, each value by its own `float` call: `load_embeddings` as
    it was before it parsed values in bulk. Raises the same `DataError`s."""
    wanted = None if needed is None else {w.lower() for w in needed}
    vectors = {}
    dim = None
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        word, values = parts[0].lower(), parts[1:]
        if dim is None:
            if not values:
                raise DataError(f"{path}:{lineno}: entry has no values")
            dim = len(values)
        elif len(values) != dim:
            raise DataError(f"{path}:{lineno}: expected {dim} values, found {len(values)}")
        if wanted is not None and word not in wanted:
            continue
        try:
            vec = np.array([float(x) for x in values])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad float: {e}") from e
        if not np.isfinite(vec).all():
            raise DataError(f"{path}:{lineno}: non-finite value")
        vectors[word] = vec
    if dim is None:
        raise DataError(f"embedding file {path} is empty")
    missing = sorted(wanted - set(vectors)) if wanted is not None else []
    return dim, vectors, missing
