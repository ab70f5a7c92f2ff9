import copy
import json
import math
import random
import re
import tracemalloc
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsdecode import (
    CaptionModel,
    ContractError,
    DataError,
    DecodeState,
    NGramModel,
    Scorer,
    UniformScorer,
    Vocabulary,
    load_corpus,
    ngram_train,
    sequence_logprob,
)
from conftest import make_vocab, random_ngram, stack_states
from oracles import ngram_sequence_logprob, reference_ngram_counts


def scorer_contract_checks(scorer, conditioning=None, tol=1e-6, steps=5, rng=None):
    """Shared conformance suite: normalization, purity, copy behavior."""
    rng = rng or np.random.default_rng(0)
    state = scorer.initial_state(conditioning)
    for _ in range(steps):
        probs = np.exp(scorer.log_probs(state)[0])
        assert abs(probs.sum() - 1.0) < tol
        w = int(rng.integers(0, scorer.vocab_size))
        again_state, again_dist = scorer.step(state, w)
        clone = state.take([0])
        clone_next, clone_dist = scorer.step(clone, w)
        np.testing.assert_array_equal(again_dist, clone_dist)
        repeat_state, repeat_dist = scorer.step(state, w)
        np.testing.assert_array_equal(again_dist, repeat_dist)
        state = again_state


class TestUniformScorer:
    def test_every_entry_is_log_inverse_size(self):
        s = UniformScorer(4)
        state = s.initial_state()
        np.testing.assert_allclose(s.log_probs(state)[0], math.log(0.25), rtol=0, atol=1e-12)
        assert s.log_probs(state).shape == (1, 4)

    def test_contract(self):
        scorer_contract_checks(UniformScorer(7), tol=1e-12)

    def test_rejects_bad_sizes(self):
        with pytest.raises(DataError):
            UniformScorer(0)
        with pytest.raises(DataError):
            UniformScorer(4, eos=9)


def dump_form(reference_counts) -> list:
    """The `contexts` of an n-gram dump, from `reference_ngram_counts`."""
    context_counts, continuations = reference_counts
    return [[list(ctx), context_counts[ctx], sorted(continuations[ctx].items())] for ctx in sorted(continuations)]


class TestNGramTraining:
    def test_hand_computed_bigram(self):
        # corpus "a b <eos>", k=2, alpha=1, |V|=3: P(b|a) = (1+1)/(1+3)
        v = Vocabulary.from_tokens(["a", "b"])
        a, b = v.id("a"), v.id("b")
        m = ngram_train([[a, b, v.eos]], order=2, alpha=1.0, vocab=v)
        assert m.logprob([a], b) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_large_alpha_approaches_uniform(self):
        v = make_vocab(4)
        m = ngram_train([[0, 1, v.eos]], order=2, alpha=1e9, vocab=v)
        state = m.initial_state()
        np.testing.assert_allclose(m.log_probs(state)[0], math.log(1 / 4), atol=1e-8)

    def test_every_distribution_sums_to_one(self, rng):
        v = make_vocab(6)
        m = random_ngram(rng, v, order=3, sentences=100)
        contexts = [
            [int(x) for x in rng.integers(0, len(v), size=rng.integers(0, 4))]
            for _ in range(100)
        ]
        for ctx in contexts:
            total = sum(math.exp(m.logprob(ctx, w)) for w in range(len(v)))
            assert abs(total - 1.0) < 1e-12

    def test_empty_corpus_rejected(self):
        v = make_vocab(3)
        with pytest.raises(DataError):
            ngram_train([], order=2, alpha=1.0, vocab=v)

    def test_zero_order_rejected(self):
        v = make_vocab(3)
        with pytest.raises(DataError):
            ngram_train([[0, v.eos]], order=0, alpha=1.0, vocab=v)

    def test_zero_alpha_rejected(self):
        v = make_vocab(3)
        with pytest.raises(DataError):
            ngram_train([[0, v.eos]], order=2, alpha=0.0, vocab=v)

    @given(
        size=st.integers(2, 8),
        order=st.integers(1, 4),
        corpus=st.lists(st.lists(st.integers(0, 7), max_size=7), min_size=1, max_size=12),
        empty_only=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_keys_count_as_the_token_loop(self, size, order, corpus, empty_only):
        """The sort-based count gives the counts of one token at a time, empty
        sentences and a corpus of only empty sentences included; every
        context and next token is a Python int."""
        corpus = [[] for _ in corpus] if empty_only else [[w % size for w in s] for s in corpus]
        contexts = ngram_train(corpus, order=order, alpha=0.5, vocab=make_vocab(size)).to_dict()["contexts"]
        assert contexts == dump_form(reference_ngram_counts(corpus, order))
        for ctx, total, conts in contexts:
            assert all(type(x) is int for x in (*ctx, total, *chain.from_iterable(conts)))

    def test_keys_past_int64_count_as_the_token_loop(self, rng):
        """(|V| + 1) ** order past int64: the keys are Python ints, and the
        counts those of one token at a time."""
        size, order = 8, 22
        assert (size + 1) ** order > np.iinfo(np.int64).max
        corpus = [rng.integers(0, size, size=rng.integers(0, 30)).tolist() for _ in range(20)]
        contexts = ngram_train(corpus, order=order, alpha=0.5, vocab=make_vocab(size)).to_dict()["contexts"]
        assert contexts == dump_form(reference_ngram_counts(corpus, order))
        for ctx, total, conts in contexts:
            assert all(type(x) is int for x in (*ctx, total, *chain.from_iterable(conts)))

    @pytest.mark.parametrize("order", [2, 3])
    def test_model_keeps_few_bytes_per_kgram(self, order):
        """The counts are kept as arrays: at most 40 bytes per distinct
        k-gram, where dicts of Counters took 63 (bigrams) and 219 (trigrams)."""
        rng = np.random.default_rng(order)
        v = make_vocab(1000)
        corpus = [(rng.zipf(1.3, size=rng.integers(3, 15)) % (len(v) - 1)).tolist() + [v.eos] for _ in range(4000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = ngram_train(corpus, order=order, alpha=0.5, vocab=v)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        kgrams = sum(len(conts) for _, _, conts in m.to_dict()["contexts"])
        assert kgrams > 10_000
        assert kept / kgrams <= 40

    @pytest.mark.parametrize("bad", [-1, 5, 99])
    def test_token_id_out_of_range_rejected(self, bad):
        """An id outside [0, |V|) is a data error, not a silently counted
        (or, as a key digit, aliased) token."""
        with pytest.raises(DataError, match=re.escape(f"token id {bad} out of range for |V|=5")):
            ngram_train([[0, 4], [1, bad, 2, 4]], order=2, alpha=1.0, vocab=make_vocab(5))


class TestNGramLogprob:
    def test_unseen_context_backs_off_to_uniform(self):
        v = make_vocab(5)
        m = ngram_train([[0, v.eos]], order=2, alpha=1.0, vocab=v)
        # context token 3 was never seen, every count is zero
        assert m.logprob([3], 2) == pytest.approx(math.log(1 / 5), abs=1e-12)

    def test_uses_only_last_context_tokens(self, rng):
        v = make_vocab(5)
        m = random_ngram(rng, v, order=2)
        long_ctx = [3, 1, 0, 2]
        assert m.logprob(long_ctx, 1) == m.logprob([2], 1)

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_equals_log_probs_rows_bit_for_bit(self, rng, order):
        """`logprob` and the decode rows read the same counts by different
        lookups; both give the same bits, for seen and unseen contexts."""
        v = make_vocab(5)
        m = random_ngram(rng, v, order=order, sentences=8)
        seen = {tuple(ctx) for ctx, _, _ in m.to_dict()["contexts"]}
        kinds = set()
        for ctx in chain([()], ((a,) for a in range(len(v))), ((a, b) for a in range(len(v)) for b in range(len(v)))):
            state = m.initial_state()
            for w in ctx:
                state = m.step(state, w)[0]
            row = m.log_probs(state)[0]
            assert np.array([m.logprob(ctx, w) for w in range(len(v))]).tobytes() == row.tobytes()
            kinds.add(m._normalize_context(ctx) in seen)
        assert kinds == {True, False} if order > 1 else {True}

    def test_always_finite(self, rng):
        v = make_vocab(4)
        m = random_ngram(rng, v, order=2)
        for ctx in ([], [0], [1, 2], [3, 3, 3]):
            for w in range(len(v)):
                assert math.isfinite(m.logprob(ctx, w))


class TestScoreStep:
    def test_stepping_matches_direct_queries(self, rng):
        v = make_vocab(5)
        m = random_ngram(rng, v, order=2)
        seq = [0, 1, v.eos]
        via_steps = sequence_logprob(m, seq)
        direct = ngram_sequence_logprob(m, seq)
        assert via_steps == pytest.approx(direct, abs=1e-12)

    def test_foreign_state_rejected(self, rng):
        v = make_vocab(5)
        m1 = random_ngram(rng, v, order=2)
        m2 = random_ngram(rng, v, order=2)
        state = m1.initial_state()
        with pytest.raises(ContractError):
            m2.step(state, 0)
        with pytest.raises(ContractError):
            m1.step(state, 999)

    def test_contract(self, rng):
        v = make_vocab(6)
        scorer_contract_checks(random_ngram(rng, v, order=3), tol=1e-12)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_chain_rule_property(self, seed):
        rng = np.random.default_rng(seed)
        v = make_vocab(int(rng.integers(3, 7)))
        m = random_ngram(rng, v, order=int(rng.integers(1, 4)))
        seq = [int(x) for x in rng.integers(0, len(v), size=rng.integers(1, 7))]
        assert sequence_logprob(m, seq) == pytest.approx(
            ngram_sequence_logprob(m, seq), abs=1e-12
        )

    def test_deepcopied_state_steps_identically(self, rng):
        v = make_vocab(5)
        m = random_ngram(rng, v)
        state = m.initial_state()
        twin = copy.deepcopy(state)
        _, d1 = m.step(state, 2)
        _, d2 = twin.owner.step(twin, 2)
        np.testing.assert_array_equal(d1, d2)


def batch_scorer(kind, rng):
    v = make_vocab(6)
    if kind == "ngram":
        return random_ngram(rng, v, order=3)
    if kind == "uniform":
        return UniformScorer(len(v))
    return CaptionModel.build(v, rng.normal(size=(5, len(v))), 4, 2, rng=rng, init_scale=0.5)


class TestAdvance:
    @pytest.fixture(params=["ngram", "uniform", "neural"])
    def scorer(self, request, rng):
        return batch_scorer(request.param, rng)

    def test_empty_batch(self, scorer):
        state = scorer.advance(scorer.initial_state(), [0, 0], [1, 2])
        empty = scorer.advance(state, [], [])
        assert len(empty) == 0 and empty.owner is scorer
        assert all(len(r) == 0 for r in empty.rows)

    @pytest.mark.parametrize(
        "defect", ["foreign state", "token -1", "token |V|", "length", "parent -1", "parent B"]
    )
    def test_bad_argument_raises_before_any_state_advances(self, scorer, defect, monkeypatch):
        state = scorer.advance(scorer.initial_state(), [0, 0, 0], [0, 1, 2])
        parents = [2, 0, 1]
        tokens = [0, 1, 2]
        if defect == "foreign state":
            state = UniformScorer(scorer.vocab_size).initial_state()
            parents = [0, 0, 0]
        elif defect == "length":
            tokens.pop()
        elif defect.startswith("parent"):
            parents[-1] = -1 if defect == "parent -1" else len(state)
        else:
            tokens[-1] = -1 if defect == "token -1" else scorer.vocab_size
        calls = []
        original = scorer._advance
        monkeypatch.setattr(scorer, "_advance", lambda *args: calls.append(args) or original(*args))
        with pytest.raises(ContractError):
            scorer.advance(state, parents, tokens)
        assert calls == []

    @pytest.mark.parametrize(
        "parents,tokens,message",
        [
            ([0, -1, 3], [0, 1, 2], "parent -1 out of range for 3 decode states"),
            ([0, 3, -1], [0, 1, 2], "parent 3 out of range for 3 decode states"),
            ([2, 1, 0], [0, -1, "V"], "token id -1 out of range for |V|={v}"),
            ([2, 1, 0], ["V", 1, -1], "token id {v} out of range for |V|={v}"),
        ],
    )
    def test_first_bad_argument_is_named(self, scorer, parents, tokens, message):
        """The bounds are checked by reduction; the message names the first
        value out of range, at either end of it."""
        v = scorer.vocab_size
        state = scorer.advance(scorer.initial_state(), [0, 0, 0], [0, 1, 2])
        tokens = [v if w == "V" else w for w in tokens]
        with pytest.raises(ContractError, match=re.escape(message.format(v=v))):
            scorer.advance(state, parents, tokens)

    def test_equals_a_loop_of_step(self, scorer, rng):
        states = [scorer.initial_state()]
        for w in (0, 2, 1, 3):
            states.append(scorer.step(states[-1], w)[0])
        tokens = rng.integers(0, scorer.vocab_size, size=len(states)).tolist()
        got = scorer.log_probs(scorer.advance(stack_states(states), range(len(states)), tokens))
        for i, (state, w) in enumerate(zip(states, tokens)):
            np.testing.assert_array_equal(got[i], scorer.step(state, w)[1])

    def test_step_needs_one_row(self, scorer):
        state = scorer.advance(scorer.initial_state(), [0, 0], [1, 2])
        with pytest.raises(ContractError):
            scorer.step(state, 0)


def assert_rows_bit_equal(got, want):
    """Equal bits in the distribution and every row array of two 1-row states."""
    assert got.owner.log_probs(got).tobytes() == want.owner.log_probs(want).tobytes()
    assert len(got.rows) == len(want.rows)
    for a, b in zip(got.rows, want.rows):
        assert a.tobytes() == b.tobytes()


@given(
    kind=st.sampled_from(["ngram-1", "ngram-2", "ngram-3", "uniform", "neural"]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_advance_row_equals_stepping_its_parent_alone(kind, seed, data):
    rng = np.random.default_rng(seed)
    v = make_vocab(6)
    if kind.startswith("ngram"):
        scorer = random_ngram(rng, v, order=int(kind[-1]))
    elif kind == "uniform":
        scorer = UniformScorer(len(v))
    else:
        scorer = CaptionModel.build(v, rng.normal(size=(5, len(v))), 4, 2, rng=rng, init_scale=0.5)
    state = scorer.initial_state(rng.normal(size=2) if kind == "neural" else None)
    for _ in range(2):
        b = len(state)
        parents = data.draw(st.lists(st.integers(0, b - 1), min_size=1, max_size=12))
        tokens = data.draw(st.lists(st.integers(0, len(v) - 1), min_size=len(parents), max_size=len(parents)))
        nxt = scorer.advance(state, parents, tokens)
        assert len(nxt) == len(parents)
        for i, (p, w) in enumerate(zip(parents, tokens)):
            assert_rows_bit_equal(nxt.take([i]), scorer.step(state.take([p]), w)[0])
        state = nxt


class LogProbsScorer(Scorer):
    """Rows looked up by the last token from a fixed table over four score
    levels, one of them -inf, so rows tie heavily. It implements only the
    abstract methods, so `top_k` comes from `Scorer`."""

    def __init__(self, rng, size):
        logits = rng.choice([0.0, -1.0, -2.0, -math.inf], size=(size + 1, size))
        logits[:, 0] = 0.0
        self.table = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        self._size = size

    @property
    def vocab_size(self):
        return self._size

    @property
    def eos(self):
        return self._size - 1

    def initial_state(self, conditioning=None):
        return DecodeState(self, (np.full(1, self._size),))

    def _advance(self, state, tokens):
        return DecodeState(self, (tokens,))

    def log_probs(self, state):
        return self.table[state.rows[0]]


def reference_top_k(row, k, tokens):
    """The contract of `top_k` for one row, by a Python sort."""
    ids = sorted(range(row.shape[0]), key=lambda w: (-row[w], w))[:k]
    return ids, [row[w] for w in ids], [row[w] for w in tokens]


@given(
    kind=st.sampled_from(["ngram-1", "ngram-2", "ngram-3", "uniform", "neural", "log-probs"]),
    size=st.sampled_from([2, 6, 40, 97]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_top_k_equals_a_per_row_computation(kind, size, seed):
    """`top_k` on random batches, for rising and falling k and random token
    sets, gives the ids, scores and token scores that sorting each row of
    `log_probs` gives. The n-gram models see a few short sentences, so most
    of a row is one floor value; k from 1 to |V| covers the strided bound
    and the full sort."""
    rng = np.random.default_rng(seed)
    v = make_vocab(size)
    if kind.startswith("ngram"):
        scorer = random_ngram(rng, v, order=int(kind[-1]), sentences=int(rng.integers(1, 6)))
    elif kind == "uniform":
        scorer = UniformScorer(size)
    elif kind == "neural":
        scorer = CaptionModel.build(v, rng.normal(size=(5, size)), 4, 2, rng=rng, init_scale=0.5)
    else:
        scorer = LogProbsScorer(rng, size)
    state = scorer.initial_state()
    for _ in range(4):
        b = int(rng.integers(1, 9))
        state = scorer.advance(state, rng.integers(0, len(state), size=b), rng.integers(0, size, size=b))
        for k in rng.integers(1, size + 1, size=3).tolist():
            tokens = np.sort(rng.choice(size, size=int(rng.integers(0, size + 1)), replace=False))
            ids, scores, token_scores = scorer.top_k(state, k, tokens)
            assert ids.shape == scores.shape == (b, k) and token_scores.shape == (b, len(tokens))
            for i, row in enumerate(scorer.log_probs(state)):
                want = reference_top_k(row, k, tokens.tolist())
                assert ids[i].tolist() == want[0]
                assert scores[i].tolist() == want[1] and token_scores[i].tolist() == want[2]


class TestPersistence:
    def test_round_trip_preserves_scores(self, rng, tmp_path):
        v = make_vocab(6)
        m = random_ngram(rng, v, order=3, sentences=40)
        path = tmp_path / "model.json"
        m.save(path)
        m2 = NGramModel.load(path)
        assert m2.order == m.order and m2.alpha == m.alpha
        assert m2.vocab == m.vocab
        for ctx in ([], [0, 1], [5, 2]):
            for w in range(len(v)):
                assert m2.logprob(ctx, w) == m.logprob(ctx, w)

    @pytest.mark.parametrize("size,order", [(6, 1), (6, 2), (6, 3), (8, 22)])
    def test_save_load_save_is_byte_identical(self, rng, tmp_path, size, order):
        """(8 + 1) ** 22 passes int64: the Python-int key path round-trips too."""
        m = random_ngram(rng, make_vocab(size), order=order, sentences=40)
        m.save(tmp_path / "a.json")
        NGramModel.load(tmp_path / "a.json").save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_shuffled_dump_loads_to_the_same_model(self, rng, order):
        """A dump's contexts and continuations may come in any order."""
        m = random_ngram(rng, make_vocab(6), order=order, sentences=40)
        dump = json.loads(json.dumps(m.to_dict()))
        shuffle = random.Random(order)
        for _, _, conts in dump["contexts"]:
            shuffle.shuffle(conts)
        shuffle.shuffle(dump["contexts"])
        assert dump["contexts"] != json.loads(json.dumps(m.to_dict()))["contexts"]
        shuffled = NGramModel.from_dict(dump)
        assert shuffled.to_dict() == m.to_dict()
        for name in ("_keys", "_bounds", "_totals", "_words", "_counts"):
            assert getattr(shuffled, name).tobytes() == getattr(m, name).tobytes()

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"some": "thing"}')
        with pytest.raises(DataError):
            NGramModel.load(path)


class TestCorpusLoading:
    def test_lowercases_and_appends_eos(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("A Man on a Bus\nthe bus\n", encoding="utf-8")
        sequences, vocab = load_corpus(path)
        assert vocab.decode(sequences[0]) == ["a", "man", "on", "a", "bus", "<eos>"]
        assert all(seq[-1] == vocab.eos for seq in sequences)

    def test_existing_vocabulary_reused(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a man\n", encoding="utf-8")
        vocab = Vocabulary.from_tokens(["a", "man", "extra"])
        sequences, v2 = load_corpus(path, vocab)
        assert v2 is vocab

    def test_blank_lines_skipped_and_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("\n   \n", encoding="utf-8")
        with pytest.raises(DataError):
            load_corpus(path)
