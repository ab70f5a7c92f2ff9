import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsdecode import (
    ConfigError,
    ConstraintError,
    ContractError,
    DecodeError,
    DisjunctiveConstraints,
    Fsm,
    NGramModel,
    PhraseConstraint,
    SearchParams,
    Vocabulary,
    beam_search,
    compile_disjunctions,
    compile_phrase,
    constrained_beam_search,
    exhaustive_decode,
    intersect,
    ngram_train,
    trivial_fsm,
)
from cbsdecode.neural import CaptionModel
from cbsdecode.scorers import DecodeState, Scorer
from cbsdecode.search import Hypothesis, _path, _run_search, decode_best, phrase_machines
from conftest import make_vocab, random_ngram, uniform_scorer
from oracles import (
    RefHypothesis,
    filtered_argmax,
    greedy_decode,
    ngram_sequence_logprob,
    reference_run_search,
    satisfies_disjunctions,
)

NEG_INF = float("-inf")


def final_beams(scorer, fsm, params):
    """`_run_search`'s final hypotheses as beams of `oracles.RefHypothesis`
    records, one per FSM state: its live hypotheses best-first, then its
    completed ones in the order the search keeps them; and the steps taken.
    Tokens are read back from the search tree, where the live hypotheses
    stand in lexicographic order."""
    tree, live, done, steps = _run_search(scorer, fsm, params)
    (state, logprob, node), (done_state, done_lp, done_node) = live, done
    paths = [_path(tree, n) for n in node.tolist()]
    assert paths == sorted(paths)
    beams = [[] for _ in range(fsm.num_states)]
    for s, lp, toks in zip(state.tolist(), logprob.tolist(), paths):
        beams[s].append(RefHypothesis(toks, lp, s))
    beams = [sorted(beam, key=Hypothesis.sort_key) for beam in beams]
    for n, s, lp in zip(done_node.tolist(), done_state.tolist(), done_lp.tolist()):
        beams[s].append(RefHypothesis(_path(tree, n) + (scorer.eos,), lp, s, completed=True))
    return beams, steps


def reference_beams(scorer, fsm, params):
    """`oracles.reference_run_search`'s final beams in `final_beams`' order:
    a beam's live hypotheses, then its completed ones, each best-first."""
    beams, steps = reference_run_search(scorer, fsm, params)
    return [sorted(beam, key=lambda h: h.completed) for beam in beams], steps


class ChainScorer(Scorer):
    """Probability one on a fixed token chain; off-chain extensions get
    probability zero (the post-deviation distribution is uniform, but no
    finite-score path ever reaches it)."""

    def __init__(self, chain, vocab_size, eos):
        self.chain = tuple(chain)
        self._vocab_size = vocab_size
        self._eos = eos
        # row p: the distribution at chain position p, uniform past the chain
        n = len(self.chain)
        self._table = np.full((n + 1, vocab_size), NEG_INF)
        self._table[np.arange(n), self.chain] = 0.0
        self._table[n] = -math.log(vocab_size)

    @property
    def vocab_size(self):
        return self._vocab_size

    @property
    def eos(self):
        return self._eos

    def initial_state(self, conditioning=None):
        return DecodeState(self, (np.zeros(1, dtype=int),))

    def _advance(self, state, tokens):
        n = len(self.chain)
        pos = [p + 1 if p < n and w == self.chain[p] else n
               for p, w in zip(state.rows[0].tolist(), tokens.tolist())]
        return DecodeState(self, (np.array(pos),))

    def log_probs(self, state):
        return self._table[state.rows[0]]


class RepeatRewardScorer(Scorer):
    """End-of-sequence is only probable right after an immediate repeat, so
    the optimum contains a doubled token. Used to show the no-repeat rule is
    enforced by the decoder, not by the scorer."""

    def __init__(self, vocab_size, eos):
        self._vocab_size = vocab_size
        self._eos = eos

    @property
    def vocab_size(self):
        return self._vocab_size

    @property
    def eos(self):
        return self._eos

    def _row(self, prev, repeated):
        logits = np.zeros(self._vocab_size)
        if prev >= 0 and prev != self._eos:
            logits[prev] += 3.0
        logits[self._eos] = 6.0 if repeated else -1.0
        shifted = logits - logits.max()
        return shifted - math.log(np.exp(shifted).sum())

    # rows: the previous token, -1 before the first, and whether it repeated
    # the one before it

    def initial_state(self, conditioning=None):
        return DecodeState(self, (np.full(1, -1), np.zeros(1, dtype=bool)))

    def _advance(self, state, tokens):
        return DecodeState(self, (tokens, tokens == state.rows[0]))

    def log_probs(self, state):
        prev, repeated = state.rows
        return np.array([self._row(p, r) for p, r in zip(prev.tolist(), repeated.tolist())])


class NoEosScorer(Scorer):
    """Uniform over everything except eos, which has probability zero; no
    hypothesis can ever complete."""

    def __init__(self, vocab_size, eos):
        self._vocab_size = vocab_size
        self._eos = eos
        self._row = np.full(vocab_size, -math.log(vocab_size - 1))
        self._row[eos] = NEG_INF

    @property
    def vocab_size(self):
        return self._vocab_size

    @property
    def eos(self):
        return self._eos

    def initial_state(self, conditioning=None):
        return DecodeState(self, (np.full(1, -1),))

    def _advance(self, state, tokens):
        return DecodeState(self, (tokens,))

    def log_probs(self, state):
        return np.broadcast_to(self._row, (len(state), self._vocab_size))


class EmptyVocabularyScorer(NoEosScorer):
    """A scorer over no tokens at all."""

    def __init__(self):
        self._vocab_size, self._eos = 0, 0


class LastTokenScorer(Scorer):
    """Next-token distribution looked up by the previous token (None before
    the first); previous tokens without an entry use `default`. Its rows are
    the previous tokens, -1 before the first."""

    def __init__(self, rows, default, eos):
        self._rows = rows
        self._default = default
        self._eos = eos

    @property
    def vocab_size(self):
        return self._default.shape[0]

    @property
    def eos(self):
        return self._eos

    def initial_state(self, conditioning=None):
        return DecodeState(self, (np.full(1, -1),))

    def _advance(self, state, tokens):
        return DecodeState(self, (tokens,))

    def log_probs(self, state):
        prev = state.rows[0].tolist()
        return np.array([self._rows.get(w if w >= 0 else None, self._default) for w in prev])


def chair_table_setup():
    v = Vocabulary.from_tokens(
        ["a", "the", "chair", "chairs", "desk", "table", "near", "and", "dog"]
    )
    sentences = [
        "a dog near the table",
        "the dog and a chair",
        "a chair near a desk",
        "the table and the chairs",
        "a dog and the dog",
    ]
    corpus = [v.encode(s.split()) + [v.eos] for s in sentences]
    scorer = ngram_train(corpus, order=2, alpha=0.2, vocab=v)
    sets = [
        {v.id("chair"), v.id("chairs")},
        {v.id("desk"), v.id("table")},
    ]
    fsm = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
    return v, scorer, sets, fsm


class TestBeamSearch:
    def test_degenerate_chain_scorer(self):
        v = make_vocab(4)
        chain = (0, 1, v.eos)
        scorer = ChainScorer(chain, len(v), v.eos)
        best = beam_search(scorer, SearchParams(beam_size=5, max_len=10))
        assert best.tokens == chain
        assert best.logprob == 0.0
        assert best.tokens[-1] == v.eos

    def test_matches_exhaustive_enumeration(self, rng):
        v = make_vocab(5)
        for _ in range(20):
            m = random_ngram(rng, v, order=2)
            params = SearchParams(beam_size=len(v) ** 5, max_len=5)
            best = beam_search(m, params)
            expected = filtered_argmax(m, v.eos, 5, lambda seq: True)
            assert best.tokens == expected[0]
            assert best.logprob == pytest.approx(expected[1], abs=1e-9)

    def test_beam_one_equals_greedy(self, rng):
        v = make_vocab(6)
        for _ in range(25):
            m = random_ngram(rng, v, order=2)
            expected_tokens, expected_lp = greedy_decode(m, max_len=8)
            if expected_tokens[-1] != v.eos:
                continue  # greedy ran out of budget; decoder raises instead
            best = beam_search(m, SearchParams(beam_size=1, max_len=8))
            assert best.tokens == expected_tokens
            assert best.logprob == pytest.approx(expected_lp, abs=1e-12)

    def test_raises_when_nothing_completes(self):
        scorer = NoEosScorer(5, 4)
        with pytest.raises(DecodeError):
            beam_search(scorer, SearchParams(beam_size=3, max_len=4))

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            SearchParams(beam_size=0)
        with pytest.raises(ConfigError):
            SearchParams(max_len=0)


class TestConstrainedBeamSearch:
    def test_chair_table_scenario(self):
        v, scorer, sets, fsm = chair_table_setup()
        result = constrained_beam_search(scorer, fsm, SearchParams(beam_size=5, max_len=8))
        assert result.status == "accepted"
        tokens = set(result.best.tokens)
        assert tokens & sets[0] and tokens & sets[1]
        assert fsm.recognizes(result.best.tokens)
        assert result.satisfied_count == 2
        # the unconstrained beam's best avoids the constraint words entirely
        beam0 = result.per_state_best[0]
        assert not (set(beam0.tokens) & (sets[0] | sets[1]))

    def test_single_state_machine_matches_unconstrained(self, rng):
        v = make_vocab(6)
        for _ in range(10):
            m = random_ngram(rng, v)
            params = SearchParams(beam_size=4, max_len=7)
            unconstrained = beam_search(m, params)
            result = constrained_beam_search(m, trivial_fsm(len(v)), params)
            assert result.status == "accepted"
            assert result.best.tokens == unconstrained.tokens
            assert result.best.logprob == unconstrained.logprob

    def test_matches_filtered_argmax_with_wide_beam(self, rng):
        v = make_vocab(6)
        for _ in range(10):
            m = random_ngram(rng, v, order=2)
            sets = [{int(rng.integers(0, len(v) - 1))}, {int(rng.integers(0, len(v) - 1))}]
            fsm = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
            params = SearchParams(beam_size=64, max_len=6)
            result = constrained_beam_search(m, fsm, params)
            expected = filtered_argmax(
                m, v.eos, 6, lambda seq: satisfies_disjunctions(seq, sets)
            )
            if expected is None:
                assert result.status != "accepted"
                continue
            assert result.status == "accepted"
            assert result.best.tokens == expected[0]
            assert result.best.logprob == pytest.approx(expected[1], abs=1e-9)

    def test_accepted_logprob_recomputable(self, rng):
        v = make_vocab(6)
        for _ in range(10):
            m = random_ngram(rng, v)
            fsm = compile_disjunctions(
                DisjunctiveConstraints.from_sets([{0}, {2, 3}]), len(v)
            )
            result = constrained_beam_search(m, fsm, SearchParams(beam_size=5, max_len=8))
            if result.best is None:
                continue
            recomputed = ngram_sequence_logprob(m, result.best.tokens)
            assert result.best.logprob == pytest.approx(recomputed, abs=1e-9)

    def test_fsm_state_is_fold_of_transition_function(self, rng):
        v = make_vocab(6)
        m = random_ngram(rng, v)
        fsm = compile_disjunctions(DisjunctiveConstraints.from_sets([{0}, {1}]), len(v))
        beams, _ = final_beams(m, fsm, SearchParams(beam_size=4, max_len=6))
        for s, beam in enumerate(beams):
            for h in beam:
                state = fsm.start
                for w in h.tokens:
                    state = fsm.step(state, w)
                assert state == s == h.fsm_state

    def test_one_beam_per_state(self, rng):
        v = make_vocab(5)
        m = random_ngram(rng, v)
        fsm = compile_disjunctions(
            DisjunctiveConstraints.from_sets([{0}, {1}, {2}]), len(v)
        )
        beams, _ = final_beams(m, fsm, SearchParams(beam_size=3, max_len=6))
        assert len(beams) == fsm.num_states == 8
        assert all(len(beam) <= 3 for beam in beams)

    def test_terminates_before_max_len_when_dominated(self):
        v = make_vocab(4)
        chain = (0, 1, v.eos)
        scorer = ChainScorer(chain, len(v), v.eos)
        beams, steps = final_beams(scorer, trivial_fsm(len(v)), SearchParams(beam_size=5, max_len=50))
        assert steps == len(chain)

    def test_fallback_reports_most_satisfied_state(self):
        v = make_vocab(6)
        corpus = [[0, v.eos], [0, 1, v.eos], [2, v.eos]]
        m = ngram_train(corpus, order=2, alpha=0.1, vocab=v)
        fsm = compile_disjunctions(DisjunctiveConstraints.from_sets([{1}, {2}]), len(v))
        # one content token fits, so at most one constraint can be satisfied
        result = constrained_beam_search(m, fsm, SearchParams(beam_size=8, max_len=2))
        assert result.status == "fallback"
        assert result.satisfied_count == 1
        assert not fsm.recognizes(result.best.tokens)

    def test_empty_when_nothing_completes(self):
        scorer = NoEosScorer(5, 4)
        result = constrained_beam_search(
            scorer, trivial_fsm(5), SearchParams(beam_size=3, max_len=4)
        )
        assert result.status == "empty"
        assert result.best is None and result.per_state_best == {}

    def test_vocabulary_size_mismatch(self, rng):
        v = make_vocab(5)
        m = random_ngram(rng, v)
        with pytest.raises(ContractError):
            constrained_beam_search(m, trivial_fsm(7), SearchParams())

    @pytest.mark.parametrize("decode", [constrained_beam_search, exhaustive_decode])
    def test_empty_vocabulary_is_contract_error(self, decode):
        with pytest.raises(ContractError, match="scorer has an empty vocabulary"):
            decode(EmptyVocabularyScorer(), trivial_fsm(0), SearchParams())

    def test_deterministic_tie_breaking_under_uniform_scorer(self):
        scorer = uniform_scorer(6)
        fsm = compile_disjunctions(
            DisjunctiveConstraints.from_sets([{2, 3}]), 6
        )
        # beam wide enough that ties cannot crowd out completions; both
        # (2, eos) and (3, eos) then tie and the lexicographic rule picks 2
        result = constrained_beam_search(scorer, fsm, SearchParams(beam_size=40, max_len=5))
        assert result.status == "accepted"
        assert result.best.tokens == (2, 5)

    def test_repeated_runs_identical(self, rng):
        v = make_vocab(6)
        m = random_ngram(rng, v)
        fsm = compile_disjunctions(DisjunctiveConstraints.from_sets([{0}, {1}]), len(v))
        params = SearchParams(beam_size=5, max_len=8)
        a = constrained_beam_search(m, fsm, params)
        b = constrained_beam_search(m, fsm, params)
        assert a.best.tokens == b.best.tokens
        assert a.best.logprob == b.best.logprob
        assert list(a.per_state_best) == list(b.per_state_best)


class TestNoRepeatRule:
    def test_outputs_never_repeat_consecutively(self, rng):
        v = make_vocab(5)
        for _ in range(30):
            m = random_ngram(rng, v)
            best = beam_search(m, SearchParams(beam_size=5, max_len=8, no_repeat=True))
            assert all(a != b for a, b in zip(best.tokens, best.tokens[1:]))

    def test_rule_is_decoder_side(self):
        scorer = RepeatRewardScorer(3, eos=2)
        on = beam_search(scorer, SearchParams(beam_size=5, max_len=6, no_repeat=True))
        off = beam_search(scorer, SearchParams(beam_size=5, max_len=6, no_repeat=False))
        assert all(a != b for a, b in zip(on.tokens, on.tokens[1:]))
        assert any(a == b for a, b in zip(off.tokens, off.tokens[1:]))
        assert off.logprob > on.logprob

    def test_per_step_scores_never_positive(self, rng):
        v = make_vocab(6)
        m = random_ngram(rng, v)
        best = beam_search(m, SearchParams(beam_size=5, max_len=8))
        total = 0.0
        state = m.initial_state()
        for w in best.tokens:
            step_lp = float(m.log_probs(state)[0][w])
            assert step_lp <= 0.0
            total += step_lp
            state, _ = m.step(state, w)
        assert total == pytest.approx(best.logprob, abs=1e-12)


class TestMultiPhrase:
    def test_single_phrase_identical_to_direct_run(self, rng):
        v = make_vocab(6)
        m = random_ngram(rng, v)
        p = PhraseConstraint((1, 2))
        params = SearchParams(beam_size=6, max_len=8)
        combined = decode_best(m, phrase_machines([p], len(v)), params)
        direct = constrained_beam_search(m, compile_phrase(p, len(v)), params)
        assert combined.best.tokens == direct.best.tokens
        assert combined.best.logprob == direct.best.logprob

    def test_prefers_higher_scoring_phrase(self):
        v = Vocabulary.from_tokens(["pool", "billiard", "snooker", "table", "ball"])
        corpus = [v.encode("billiard table".split()) + [v.eos]] * 5 + [
            v.encode("pool ball".split()) + [v.eos]
        ]
        m = ngram_train(corpus, order=2, alpha=0.1, vocab=v)
        phrases = [
            PhraseConstraint.from_words(["pool", "table"], v),
            PhraseConstraint.from_words(["billiard", "table"], v),
            PhraseConstraint.from_words(["snooker", "table"], v),
        ]
        params = SearchParams(beam_size=6, max_len=8)
        combined = decode_best(m, phrase_machines(phrases, len(v)), params)
        runs = [
            constrained_beam_search(m, compile_phrase(p, len(v)), params) for p in phrases
        ]
        accepted = [r for r in runs if r.status == "accepted"]
        expected = max(accepted, key=lambda r: r.best.logprob)
        assert combined.best.tokens == expected.best.tokens
        assert v.decode(combined.best.tokens)[:2] == ["billiard", "table"]

    def test_needs_at_least_one_phrase(self, rng):
        v = make_vocab(4)
        m = random_ngram(rng, v)
        with pytest.raises(ConstraintError):
            decode_best(m, phrase_machines([], len(v)), SearchParams())

    def test_needs_at_least_one_machine(self, rng):
        m = random_ngram(rng, make_vocab(4))
        with pytest.raises(ConstraintError, match="decode_best needs at least one machine"):
            decode_best(m, [], SearchParams())

    def test_base_fsm_combines_with_each_phrase(self):
        v, scorer, sets, fsm = chair_table_setup()
        phrases = [PhraseConstraint.from_words(["near"], v)]
        params = SearchParams(beam_size=8, max_len=10)
        result = decode_best(scorer, phrase_machines(phrases, len(v), fsm), params)
        assert result.status == "accepted"
        tokens = set(result.best.tokens)
        assert v.id("near") in tokens and tokens & sets[0] and tokens & sets[1]


class TestExhaustiveDecode:
    def test_agrees_with_independent_enumeration(self, rng):
        v = make_vocab(5)
        for _ in range(10):
            m = random_ngram(rng, v)
            sets = [{int(rng.integers(0, len(v) - 1))}]
            fsm = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
            params = SearchParams(beam_size=5, max_len=5)
            ours = exhaustive_decode(m, fsm, params)
            ref = filtered_argmax(m, v.eos, 5, lambda s: satisfies_disjunctions(s, sets))
            assert ours.best.tokens == ref[0]
            assert ours.best.logprob == pytest.approx(ref[1], abs=1e-12)

    def test_budget_guard(self, rng):
        v = make_vocab(10)
        m = random_ngram(rng, v)
        with pytest.raises(ConfigError):
            exhaustive_decode(m, trivial_fsm(len(v)), SearchParams(max_len=10), limit=1000)


def _outcome(result):
    best = result.best
    return result.status, best and best.tokens, best and best.logprob.hex()


@pytest.mark.parametrize("kind", ["trivial", "disjunction", "phrase"])
@pytest.mark.parametrize("seed", range(7))
def test_neural_wide_beam_equals_exhaustive(seed, kind):
    # every state the search advances in a batch gets the bits it gets alone
    # in the oracle, so even the log-probability hex digits agree
    rng = np.random.default_rng(seed)
    size = 4 + seed % 3
    v = make_vocab(size)
    m = CaptionModel.build(v, rng.normal(size=(5, size)), 4, 2, rng=rng, init_scale=1.0)
    words = rng.permutation(size - 1).tolist()
    if kind == "trivial":
        fsm = trivial_fsm(size)
    elif kind == "disjunction":
        sets = [{words[0]}, {words[1], words[2]}]
        fsm = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
    else:
        fsm = compile_phrase(PhraseConstraint((words[0], words[1])), len(v))
    params = SearchParams(beam_size=size**4, max_len=4)
    cond = rng.normal(size=2)
    assert _outcome(constrained_beam_search(m, fsm, params, cond)) == _outcome(
        exhaustive_decode(m, fsm, params, cond)
    )


class TestAcceptedImpliesRecognized:
    def test_randomized_property(self, rng):
        v = make_vocab(6)
        others = list(range(len(v) - 1))
        for _ in range(60):
            m = random_ngram(rng, v)
            kind = rng.integers(0, 3)
            if kind == 0:
                sets = [
                    set(rng.choice(others, size=rng.integers(1, 3), replace=False).tolist())
                    for _ in range(rng.integers(1, 3))
                ]
                fsm = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
            elif kind == 1:
                phrase = tuple(rng.choice(others, size=rng.integers(1, 3)).tolist())
                fsm = compile_phrase(PhraseConstraint(phrase), len(v))
            else:
                fsm = intersect(
                    compile_disjunctions(
                        DisjunctiveConstraints.from_sets([{int(rng.choice(others))}]), len(v)
                    ),
                    compile_phrase(PhraseConstraint((int(rng.choice(others)),)), len(v)),
                )
            result = constrained_beam_search(m, fsm, SearchParams(beam_size=5, max_len=8))
            if result.status == "accepted":
                assert fsm.recognizes(result.best.tokens)
            elif result.status == "fallback":
                assert not fsm.recognizes(result.best.tokens)


def _log_softmax(logits):
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits[np.isfinite(logits)].max()
    return shifted - math.log(np.exp(shifted).sum())


def _dominating_eos_scorer():
    """|V| = 4, EOS 3. The first step cannot end; after token 0, EOS takes
    almost all the mass, so at step 2 that completion beats every live
    hypothesis."""
    rows = {None: _log_softmax([4.0, 0.0, 0.0, NEG_INF]), 0: _log_softmax([0.0, 0.0, 0.0, 6.0])}
    return LastTokenScorer(rows, _log_softmax([0.0, 0.0, 0.0, 0.0]), eos=3)


class TestLastStepAdvancesNothing:
    """The step that ends a search advances no rows, whichever way it ends:
    a search of `steps` steps calls the scorer's `_advance` `steps - 1` times,
    each time on the live hypotheses it then reads."""

    @pytest.mark.parametrize("ending, scorer, max_len, steps", [
        ("dominated", _dominating_eos_scorer(), 10, 2),
        ("max_len", NoEosScorer(5, 4), 4, 4),
        ("no_live", ChainScorer((0, 1, 3), 4, 3), 10, 3),
    ])
    def test_advance_calls(self, monkeypatch, ending, scorer, max_len, steps):
        calls = []
        advance = scorer._advance
        monkeypatch.setattr(
            scorer, "_advance", lambda state, tokens: calls.append(len(tokens)) or advance(state, tokens)
        )
        params = SearchParams(beam_size=3, max_len=max_len)
        tree, (_, live_lp, _), (_, done_lp, _), got = _run_search(
            scorer, trivial_fsm(scorer.vocab_size), params
        )
        assert got == steps and len(calls) == steps - 1
        # the rows advanced are the tree's nodes but the root and the final live ones
        assert sum(calls) == len(tree[0]) - 1 - len(live_lp)
        if ending == "dominated":
            assert steps < max_len and live_lp.size and done_lp.max() > live_lp.max()
        elif ending == "max_len":
            assert live_lp.size and not done_lp.size
        else:
            assert steps < max_len and not live_lp.size


def _two_group_words_fsm():
    """0 -{0..3}-> 1 -{0..3}-> 2 (accepting); every other token stays put.
    State 1's only exception group is {0, 1, 2, 3} -> 2."""
    return Fsm(3, 0, {2}, 6, defaults=[0, 1, 2],
               rows=[dict.fromkeys(range(4), 1), dict.fromkeys(range(4), 2), {}])


class TestExceptionGroups:
    # |V| = 6, eos = 5; the first token must be 0, so state 1 holds only (0,)
    FIRST = _log_softmax([0.0, NEG_INF, NEG_INF, NEG_INF, NEG_INF, 0.0])

    def test_group_larger_than_beam_skips_repeat_and_still_fills(self):
        # after 0 the best token is 0 itself, which no-repeat forbids; the
        # four-token group must still send beam_size = 2 extensions to state 2
        after_zero = _log_softmax([5.0, 4.0, 3.0, 2.0, 1.0, 0.0])
        scorer = LastTokenScorer({None: self.FIRST, 0: after_zero}, after_zero, eos=5)
        beams, steps = final_beams(scorer, _two_group_words_fsm(), SearchParams(beam_size=2, max_len=2))
        assert steps == 2
        assert [h.tokens for h in beams[2]] == [(0, 1), (0, 2)]
        assert [h.logprob for h in beams[2]] == [
            float(self.FIRST[0] + after_zero[1]), float(self.FIRST[0] + after_zero[2])
        ]

    def test_group_scores_with_minus_inf_are_never_extended(self):
        after_zero = _log_softmax([5.0, NEG_INF, 3.0, NEG_INF, 1.0, 4.0])
        scorer = LastTokenScorer({None: self.FIRST, 0: after_zero}, after_zero, eos=5)
        fsm = _two_group_words_fsm()
        beams, _ = final_beams(scorer, fsm, SearchParams(beam_size=3, max_len=2))
        # 0 is a repeat, 1 and 3 have probability zero: only (0, 2) reaches state 2
        assert [h.tokens for h in beams[2]] == [(0, 2)]
        assert all(math.isfinite(h.logprob) for beam in beams for h in beam)
        params = SearchParams(beam_size=3, max_len=5)
        result = constrained_beam_search(scorer, fsm, params)
        expected = exhaustive_decode(scorer, fsm, params)
        assert result.status == expected.status == "accepted"
        assert result.best.tokens == expected.best.tokens
        assert result.best.logprob == expected.best.logprob


    def test_per_route_truncation_under_a_rounding_tie(self):
        # state 1 sends tokens 1, 2 and 3 to state 2. After the first token
        # (logprob -40), tokens 2 and 3 have different raw scores but the
        # same total: -40 + (-1 - 2**-50) rounds to -41.0. The exception
        # route keeps its best two raw scores, tokens 1 and 3; one selection
        # over totals would keep token 2 in place of 3, as the lower id.
        first = np.array([-40.0, NEG_INF, NEG_INF, NEG_INF, NEG_INF, -50.0])
        after = np.array([-3.0, -0.5, -1.0 - 2.0**-50, -1.0, -2.0, -2.5])
        assert after[2] < after[3] and first[0] + after[2] == first[0] + after[3]
        scorer = LastTokenScorer({None: first, 0: after}, after, eos=5)
        fsm = Fsm(3, 0, {2}, 6, defaults=[0, 1, 2],
                  rows=[dict.fromkeys(range(4), 1), dict.fromkeys(range(1, 4), 2), {}])
        beams, steps = final_beams(scorer, fsm, SearchParams(beam_size=2, max_len=2))
        # recorded with the per-candidate search loop this one replaced
        assert steps == 2
        assert [(h.tokens, h.logprob.hex()) for h in beams[2]] == [
            ((0, 1), "-0x1.4400000000000p+5"), ((0, 3), "-0x1.4800000000000p+5")
        ]


def _beam_records(beams):
    """Each hypothesis as (tokens, logprob bits, state, completed): a reference
    record says whether it completed, and a library `Hypothesis` always has."""
    return [[(h.tokens, h.logprob.hex(), h.fsm_state, not isinstance(h, RefHypothesis) or h.completed)
             for h in beam] for beam in beams]


def _quantized_scorer(rng, size, eos):
    """Rows keyed by the previous token over four score levels, one of them
    -inf, so rows tie heavily; every row keeps one finite entry."""
    def row():
        logits = rng.choice([0.0, -1.0, -2.0, NEG_INF], size=size, p=[0.3, 0.3, 0.2, 0.2])
        logits[rng.integers(size)] = 0.0
        return _log_softmax(logits)
    rows = {None: row()}
    rows.update({w: row() for w in range(size) if rng.random() < 0.7})
    return LastTokenScorer(rows, row(), eos=eos)


def _random_machine(rng, kind, size):
    """A machine over |V| = size; listed tokens may include end-of-sequence."""
    def disjunction():
        sets = [set(rng.choice(size, size=rng.integers(1, 4), replace=False).tolist())
                for _ in range(rng.integers(1, 4))]
        return compile_disjunctions(DisjunctiveConstraints.from_sets(sets), size)

    def phrase():
        return compile_phrase(PhraseConstraint(tuple(rng.choice(size - 1, size=rng.integers(1, 4)).tolist())), size)

    if kind == "disjunction":
        return disjunction()
    if kind == "phrase":
        return phrase()
    product = intersect(disjunction(), phrase())
    if kind == "product":
        return product
    if kind == "dump":  # self-loop defaults, every other transition listed
        rows = [{w: product.step(s, w) for w in range(size) if product.step(s, w) != s}
                for s in range(product.num_states)]
        return Fsm(product.num_states, product.start, product.accepting, size,
                   range(product.num_states), rows, product.progress)
    # listed entries that equal their state's default: two routes to one beam
    rows = [dict(r) for r in product.rows]
    for s, row in enumerate(rows):
        for w in rng.choice(size, size=rng.integers(1, 3), replace=False).tolist():
            row.setdefault(w, product.defaults[s])
    return Fsm(product.num_states, product.start, product.accepting, size,
               product.defaults, rows, product.progress)


class TestArrayBeamEquivalence:
    """The array search against the per-candidate reference loop kept in
    `oracles.reference_run_search`: the same steps and, beam by beam, the
    same hypotheses in the same order, to the last bit of the logprob; and
    `constrained_beam_search` reports each state's best completed one."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(3, 8),
        scorer_kind=st.sampled_from(["ngram", "quantized"]),
        machine_kind=st.sampled_from(["disjunction", "phrase", "product", "dump", "listed-default"]),
        beam=st.integers(1, 6),
        no_repeat=st.booleans(),
        max_len=st.integers(1, 7),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_reference_loop(self, seed, size, scorer_kind, machine_kind, beam, no_repeat, max_len):
        rng = np.random.default_rng(seed)
        v = make_vocab(size)
        if scorer_kind == "ngram":
            scorer = random_ngram(rng, v, sentences=int(rng.integers(1, 12)))
        else:
            scorer = _quantized_scorer(rng, size, v.eos)
        fsm = _random_machine(rng, machine_kind, size)
        params = SearchParams(beam_size=beam, max_len=max_len, no_repeat=no_repeat)
        got, steps = final_beams(scorer, fsm, params)
        want, want_steps = reference_beams(scorer, fsm, params)
        assert steps == want_steps
        assert _beam_records(got) == _beam_records(want)
        # each state's first completed hypothesis is its best
        best = constrained_beam_search(scorer, fsm, params).per_state_best
        want_best = {s: [h for h in beam if h.completed][:1] for s, beam in enumerate(want)}
        assert {s: _beam_records([[h]]) for s, h in best.items()} == {
            s: _beam_records([first]) for s, first in want_best.items() if first
        }


def _jumping_machine(n, size):
    """An n-state machine over |V| = size: from state s, token 0 steps to
    s + 1, token 1 jumps to the mirror state n - 1 - s and token 2 to
    5s + 1 (mod n); every other token self-loops."""
    rows = [{0: (s + 1) % n, 1: n - 1 - s, 2: (5 * s + 1) % n} for s in range(n)]
    return Fsm(n, 0, {n // 2, n - 1}, size, range(n), rows)


@pytest.mark.parametrize("n", [255, 256, 257, 512])
def test_state_ids_at_the_edges_of_the_key_type(n):
    """State ids are uint8 keys up to 256 states and uint16 keys above: on
    either side of that edge the search gives the reference loop's beams,
    with hypotheses in the machine's top state ids."""
    rng = np.random.default_rng(n)
    size = 8
    scorer = random_ngram(rng, make_vocab(size), sentences=20)
    fsm = _jumping_machine(n, size)
    assert _run_search(scorer, fsm, SearchParams(max_len=1))[2][0].dtype == (np.uint8 if n <= 256 else np.uint16)
    for beam, no_repeat in ((1, True), (3, False), (5, True)):
        params = SearchParams(beam_size=beam, max_len=7, no_repeat=no_repeat)
        got, steps = final_beams(scorer, fsm, params)
        want, want_steps = reference_beams(scorer, fsm, params)
        assert steps == want_steps
        assert _beam_records(got) == _beam_records(want)
        assert any(got[s] for s in range(n - 3, n))


def test_largest_disjunction_machine_with_uint16_and_int64_keys(monkeypatch):
    """The 16-disjunction machine has 65,536 states, ids up to 65,535, all a
    uint16 key holds. A scorer that only steps one or two tokens up reaches
    its accepting state 65,535; its beams with uint16 keys equal those with
    int64 keys and the reference loop's."""
    fsm = compile_disjunctions(DisjunctiveConstraints.from_sets([{w} for w in range(16)]), 17)

    def row(*ws):
        logits = np.full(17, NEG_INF)
        logits[list(ws)] = -0.5 * np.arange(len(ws))
        return _log_softmax(logits)

    rows = {w: row(*[x for x in (w + 1, w + 2) if x < 16] + [16] * (w >= 14)) for w in range(16)}
    scorer = LastTokenScorer({None: row(0, 1), **rows}, row(16), eos=16)
    params = SearchParams(beam_size=1, max_len=18)
    assert _run_search(scorer, fsm, params)[2][0].dtype == np.uint16
    narrow = final_beams(scorer, fsm, params)
    assert [h.tokens for h in narrow[0][65535]] == [tuple(range(16)) + (16,)]
    with monkeypatch.context() as m:
        m.setattr(np, "min_scalar_type", lambda _: np.dtype(np.int64))
        assert _run_search(scorer, fsm, params)[2][0].dtype == np.int64
        wide = final_beams(scorer, fsm, params)
    want = reference_beams(scorer, fsm, params)
    assert narrow[1] == wide[1] == want[1]
    assert _beam_records(narrow[0]) == _beam_records(wide[0]) == _beam_records(want[0])


@given(seed=st.integers(0, 2**32 - 1), order=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_one_ngram_model_serves_many_searches(seed, order):
    """One n-gram model decodes a run of machines whose beams ask for rising
    and falling k, so its context ids, rows and ranked top-k carry from one
    search into the next. Every search's beams equal, to the bit, those of a
    fresh model and of the reference loop; so do those of a deep copy and a
    pickle of the used model, which keep its caches and its context ids, so
    a deep-copied decode state steps as the original does."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(12, 48))
    v = make_vocab(size)
    shared = random_ngram(rng, v, order=order, sentences=int(rng.integers(2, 30)))
    dump = shared.to_dict()

    def check(model, beam):
        fsm = _random_machine(rng, str(rng.choice(["disjunction", "phrase", "product"])), size)
        params = SearchParams(beam_size=beam, max_len=int(rng.integers(2, 7)))
        got, steps = final_beams(model, fsm, params)
        fresh, fresh_steps = final_beams(NGramModel.from_dict(dump), fsm, params)
        want, want_steps = reference_beams(model, fsm, params)
        assert steps == fresh_steps == want_steps
        assert _beam_records(got) == _beam_records(fresh) == _beam_records(want)

    for beam in (1, 5, 2, 4, 1, 3):
        check(shared, beam)
    state = shared.initial_state()
    for w in rng.integers(0, size, size=3).tolist():
        state, _ = shared.step(state, w)
    for twin in (copy.deepcopy(shared), pickle.loads(pickle.dumps(shared))):
        for beam in (4, 1, 5):
            check(twin, beam)
    twin_state = copy.deepcopy(state)
    w = int(rng.integers(size))
    assert shared.step(state, w)[1].tobytes() == twin_state.owner.step(twin_state, w)[1].tobytes()


class SpyNGram(NGramModel):
    """An n-gram model that counts its `log_probs` calls."""

    calls = 0

    def log_probs(self, state):
        self.calls += 1
        return super().log_probs(state)


@pytest.mark.parametrize("kind", ["disjunction", "phrase", "product"])
def test_search_never_reads_ngram_log_probs(kind):
    """The n-gram model answers `top_k` from its own caches, so a search never
    makes its (B x |V|) blocks, and gives the plain model's beams."""
    rng = np.random.default_rng(len(kind))
    size = 16
    m = random_ngram(rng, make_vocab(size), order=2, sentences=20)
    spy = SpyNGram.from_dict(m.to_dict())
    fsm = _random_machine(rng, kind, size)
    for beam in (1, 3, 5):
        params = SearchParams(beam_size=beam, max_len=6)
        assert _beam_records(final_beams(spy, fsm, params)[0]) == _beam_records(final_beams(m, fsm, params)[0])
        constrained_beam_search(spy, fsm, params)
    assert spy.calls == 0
    spy.step(spy.initial_state(), 0)
    assert spy.calls == 1


def _narrow_beam_instance(seed):
    rng = np.random.default_rng(seed)
    v = make_vocab(7)
    m = random_ngram(rng, v, sentences=16)
    others = list(range(len(v) - 1))
    sets = [set(rng.choice(others, size=k, replace=False).tolist()) for k in (3, 2)]
    phrase = tuple(rng.choice(others, size=2, replace=False).tolist())
    fsm = intersect(
        compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v)),
        compile_phrase(PhraseConstraint(phrase), len(v)),
    )
    params = SearchParams(beam_size=2 + seed % 2, max_len=7, no_repeat=seed % 4 < 2)
    return m, fsm, params


# (seed, (status, tokens, logprob.hex())). Recorded with the earlier search
# loop, which ranked exception groups by a separate exact top-k and sorted
# each beam twice; 14 of these 20 differ from exhaustive_decode, so they pin
# the beam's pruning, not only the optimum.
NARROW_BEAM_PINS = [
    (0, ('accepted', (3, 5, 1, 2, 4, 6), '-0x1.07383d9ec9897p+3')),
    (1, ('accepted', (5, 0, 1, 3, 6), '-0x1.d1be0389d5544p+2')),
    (2, ('accepted', (2, 0, 4, 2, 0, 6), '-0x1.4ed225a893568p+3')),
    (3, ('accepted', (3, 0, 1, 6), '-0x1.77cb61c7cfb87p+2')),
    (4, ('accepted', (1, 4, 1, 4, 5, 6), '-0x1.3ae53dac73a64p+3')),
    (5, ('accepted', (4, 1, 0, 6), '-0x1.cbb116946b64cp+2')),
    (6, ('accepted', (4, 5, 2, 3, 6), '-0x1.e75477bc789c0p+2')),
    (7, ('accepted', (4, 1, 6), '-0x1.805fd37f57a32p+2')),
    (8, ('accepted', (3, 4, 5, 6), '-0x1.ec275705f507ep+2')),
    (9, ('accepted', (0, 2, 1, 3, 6), '-0x1.fe2e08157e6b6p+2')),
    (10, ('accepted', (3, 0, 3, 1, 6), '-0x1.185d310144b56p+3')),
    (11, ('accepted', (5, 1, 3, 4, 6), '-0x1.a27860fa778b4p+2')),
    (12, ('accepted', (1, 3, 5, 0, 2, 6), '-0x1.5bb24e9057a80p+3')),
    (13, ('accepted', (5, 1, 4, 6), '-0x1.bd31f8e719f1fp+2')),
    (14, ('accepted', (5, 1, 0, 4, 6), '-0x1.0c845860ac918p+3')),
    (15, ('fallback', (5, 0, 6), '-0x1.1d77b24eb38f0p+2')),
    (16, ('accepted', (0, 5, 6), '-0x1.15aa421a0b474p+2')),
    (17, ('accepted', (3, 1, 6), '-0x1.3bcd9755f152cp+2')),
    (18, ('fallback', (4, 5, 6), '-0x1.f00fd3eee552cp+1')),
    (19, ('accepted', (3, 5, 1, 2, 5, 4, 6), '-0x1.4def63e495a7cp+3')),
]


@pytest.mark.parametrize("seed,expected", NARROW_BEAM_PINS)
def test_narrow_beam_product_machine_pinned(seed, expected):
    m, fsm, params = _narrow_beam_instance(seed)
    result = constrained_beam_search(m, fsm, params)
    assert (result.status, result.best.tokens, result.best.logprob.hex()) == expected
