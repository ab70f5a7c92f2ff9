"""Acceptance suite: one test per exit criterion, each printing a PASS line
with its measured numbers. Tolerances are pinned here, not configurable."""

import json
import math
import time

import numpy as np
import pytest

from cbsdecode import (
    DisjunctiveConstraints,
    MentionSpec,
    EvalPair,
    PhraseConstraint,
    SearchParams,
    Vocabulary,
    beam_search,
    compile_disjunctions,
    compile_phrase,
    constrained_beam_search,
    expand_vocab,
    f1_mentions,
    intersect,
    ngram_train,
    satisfaction_rate,
    trivial_fsm,
)
from cbsdecode.cli import main
from cbsdecode.neural import CaptionModel, train
from cbsdecode.search import decode_best, phrase_machines
from conftest import make_vocab, random_ngram
from oracles import (
    all_sequences,
    contains_phrase,
    filtered_argmax,
    satisfies_disjunctions,
)
from test_search import RepeatRewardScorer

LOGPROB_TOL = 1e-9
DIST_TOL = 1e-6
GRAD_REL_TOL = 1e-4
GRAD_EPS = 1e-5
ZERO_LOSS_TOL = 1e-12


def report(criterion: int, message: str) -> None:
    print(f"[acceptance] criterion {criterion:2d} PASS: {message}")


def random_constrained_instance(rng, index):
    """One randomized decode instance: tiny vocabulary, bigram scorer, and a
    disjunctive / phrase / product constraint with direct-check predicates."""
    size = int(rng.integers(3, 7))
    v = make_vocab(size)
    scorer = random_ngram(rng, v, order=2, sentences=int(rng.integers(3, 15)))
    others = [w for w in range(size) if w != v.eos]
    kind = index % 3
    sets, phrase = [], None
    if kind in (0, 2):
        m = int(rng.integers(0, 4))
        sets = [
            set(rng.choice(others, size=int(rng.integers(1, 3)), replace=False).tolist())
            for _ in range(m)
        ]
    if kind in (1, 2):
        phrase = tuple(rng.choice(others, size=int(rng.integers(1, 4))).tolist())
    machines = []
    if sets:
        machines.append(compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v)))
    if phrase is not None:
        machines.append(compile_phrase(PhraseConstraint(phrase), len(v)))
    if not machines:
        fsm = trivial_fsm(size)
    elif len(machines) == 1:
        fsm = machines[0]
    else:
        fsm = intersect(machines[0], machines[1])

    def accepts(seq):
        ok = satisfies_disjunctions(seq, sets) if sets else True
        if phrase is not None:
            ok = ok and contains_phrase(seq, phrase)
        return ok

    return v, scorer, fsm, accepts


def test_criterion_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    accepted = unsatisfiable = 0
    for i in range(200):
        v, scorer, fsm, accepts = random_constrained_instance(rng, i)
        max_len = int(rng.integers(3, 7))
        params = SearchParams(beam_size=len(v) ** max_len, max_len=max_len)
        result = constrained_beam_search(scorer, fsm, params)
        expected = filtered_argmax(scorer, v.eos, max_len, accepts)
        if expected is None:
            assert result.status != "accepted"
            unsatisfiable += 1
        else:
            assert result.status == "accepted"
            assert result.best.tokens == expected[0]
            assert abs(result.best.logprob - expected[1]) <= LOGPROB_TOL
            accepted += 1
    elapsed = time.monotonic() - started
    assert accepted + unsatisfiable == 200
    assert elapsed < 120.0
    report(
        1,
        f"200 instances match the exhaustive filtered argmax "
        f"({accepted} accepted, {unsatisfiable} unsatisfiable) in {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def guarantee_runs():
    rng = np.random.default_rng(202)
    runs = []
    for i in range(1000):
        v, scorer, fsm, _ = random_constrained_instance(rng, i)
        params = SearchParams(beam_size=5, max_len=int(rng.integers(4, 9)))
        runs.append((constrained_beam_search(scorer, fsm, params), fsm))
    return runs


def test_criterion_02_constraint_guarantee(guarantee_runs):
    accepted = [(r, f) for r, f in guarantee_runs if r.status == "accepted"]
    assert len(accepted) >= 200
    for result, fsm in accepted:
        assert fsm.recognizes(result.best.tokens)
    rate = satisfaction_rate([r for r, _ in accepted], [f for _, f in accepted])
    assert rate == 1.0
    report(
        2,
        f"{len(accepted)} accepted decodes of {len(guarantee_runs)} all pass "
        f"recognition; satisfaction rate {rate}",
    )


def test_criterion_03_degeneration(tmp_path):
    rng = np.random.default_rng(303)
    for _ in range(30):
        v = make_vocab(int(rng.integers(3, 7)))
        scorer = random_ngram(rng, v)
        params = SearchParams(beam_size=5, max_len=8)
        unconstrained = beam_search(scorer, params)
        result = constrained_beam_search(scorer, trivial_fsm(len(v)), params)
        assert result.status == "accepted"
        assert result.best.tokens == unconstrained.tokens
        assert result.best.logprob == unconstrained.logprob

    corpus = tmp_path / "corpus.txt"
    corpus.write_text("a man on a bus\na chair near a table\nthe man and the chair\n")
    model = tmp_path / "model.json"
    assert main(["train-ngram", str(corpus), "--out", str(model)]) == 0
    empty_spec = tmp_path / "empty.json"
    empty_spec.write_text(json.dumps({"disjunctions": [], "phrases": []}))
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["decode", "--model", str(model), "--out", str(out_a),
                 "--constraints", str(empty_spec)]) == 0
    assert main(["decode", "--model", str(model), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report(3, "single-state decode equals plain beam search; empty spec output byte-identical")


def test_criterion_04_fsm_structure():
    v = make_vocab(9)
    for m in range(7):
        c = DisjunctiveConstraints.from_sets([{i} for i in range(m)])
        assert compile_disjunctions(c, len(v)).num_states == 2**m
    for length in range(1, 9):
        p = PhraseConstraint(tuple(i % 3 for i in range(length)))
        assert compile_phrase(p, len(v)).num_states == length + 1

    alphabet = Vocabulary.from_tokens(["a", "b"])  # 3 tokens with eos
    ids = range(len(alphabet))
    strings = list(all_sequences(ids, 6))
    checked = 0
    for length in (1, 2, 3):
        for phrase in all_sequences(ids, length):
            if len(phrase) != length:
                continue
            fsm = compile_phrase(PhraseConstraint(phrase), len(alphabet))
            for s in strings:
                assert fsm.recognizes(s) == contains_phrase(s, phrase)
                checked += 1
    report(
        4,
        f"2^m states for m in 0..6, len+1 states for lengths 1..8, "
        f"{checked} phrase recognitions match substring search",
    )


def test_criterion_05_no_repeat_rule(guarantee_runs):
    outputs = 0
    for result, _ in guarantee_runs:
        if result.best is None:
            continue
        toks = result.best.tokens
        assert all(a != b for a, b in zip(toks, toks[1:]))
        outputs += 1
    scorer = RepeatRewardScorer(3, eos=2)
    off = beam_search(scorer, SearchParams(beam_size=5, max_len=6, no_repeat=False))
    assert any(a == b for a, b in zip(off.tokens, off.tokens[1:]))
    report(
        5,
        f"{outputs} decoded outputs free of consecutive repeats; a repetition-"
        f"rewarding scorer does produce one once the rule is disabled",
    )


def _finite_difference_worst(model, seq, cond):
    grads, _ = model.gradients([(seq, cond)])
    worst = 0.0
    checked = 0
    for name, arr in model.trainable().items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + GRAD_EPS
            up = model.sequence_loss(seq, cond)
            arr[idx] = orig - GRAD_EPS
            down = model.sequence_loss(seq, cond)
            arr[idx] = orig
            fd = (up - down) / (2 * GRAD_EPS)
            a = float(grads[name][idx])
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-6))
            checked += 1
    return worst, checked


def test_criterion_06_neural_numerics():
    rng = np.random.default_rng(606)
    combos = [(3, 2, 5), (8, 2, 5), (3, 8, 5), (3, 2, 20), (8, 8, 20)]
    worst_rel = 0.0
    total_params = 0
    for hidden, cond_dim, vocab_size in combos:
        v = make_vocab(vocab_size)
        w_e = rng.normal(size=(300, vocab_size)) * 0.5
        model = CaptionModel.build(v, w_e, hidden, cond_dim, rng=rng, init_scale=0.2)
        cond = rng.normal(size=cond_dim)
        seq = [int(x) for x in rng.integers(0, vocab_size - 1, size=3)] + [v.eos]
        worst, checked = _finite_difference_worst(model, seq, cond)
        worst_rel = max(worst_rel, worst)
        total_params += checked
        state = model.initial_state(cond)
        for w in seq:
            assert abs(np.exp(model.log_probs(state)[0]).sum() - 1.0) < DIST_TOL
            state, _ = model.step(state, w)
    assert worst_rel < GRAD_REL_TOL

    for vocab_size in (5, 20):
        v = make_vocab(vocab_size)
        w_e = rng.normal(size=(300, vocab_size))
        zero = CaptionModel.build(v, w_e, 3, 2, rng=None, init_scale=0.0, forget_bias=0.0)
        loss = zero.sequence_loss([0, 1, v.eos])
        assert abs(loss - math.log(vocab_size)) <= ZERO_LOSS_TOL
    report(
        6,
        f"{total_params} analytic partials across {len(combos)} models within "
        f"{GRAD_REL_TOL} of central differences (worst {worst_rel:.2e}); "
        f"distributions normalized; zero model hits ln|V|",
    )


def grammar_corpus(rng, n=100):
    determiners = ["the", "a"]
    adjectives = ["small", "big", "red", "blue"]
    nouns = ["cat", "dog", "bird", "car"]
    verbs = ["runs", "sits", "flies", "stops"]
    adverbs = ["quickly", "slowly"]
    v = Vocabulary.from_tokens(determiners + adjectives + nouns + verbs + adverbs)
    sentences = []
    for _ in range(n):
        s = [rng.choice(determiners)]
        if rng.random() < 0.5:
            s.append(rng.choice(adjectives))
        s.append(rng.choice(nouns))
        s.append(rng.choice(verbs))
        if rng.random() < 0.4:
            s.append(rng.choice(adverbs))
        sentences.append(v.encode(s) + [v.eos])
    return v, sentences


@pytest.fixture(scope="module")
def toy_training():
    rng = np.random.default_rng(2024)
    v, sentences = grammar_corpus(rng, n=100)
    w_e = rng.uniform(-0.5, 0.5, size=(300, len(v)))
    model = CaptionModel.build(v, w_e, hidden_size=32, cond_dim=2, rng=rng)
    w_e_before = model.w_e.tobytes()
    started = time.monotonic()
    log = train(model, [(s, None) for s in sentences], lr=0.4, epochs=200,
                batch_size=1, seed=7)
    elapsed = time.monotonic() - started
    return {
        "vocab": v,
        "model": model,
        "report": log,
        "elapsed": elapsed,
        "w_e_before": w_e_before,
        "rng": rng,
    }


def test_criterion_07_toy_training(toy_training):
    log = toy_training["report"]
    assert log.final < 0.5 * log.initial
    assert toy_training["model"].w_e.tobytes() == toy_training["w_e_before"]
    assert toy_training["elapsed"] < 300.0
    report(
        7,
        f"200 epochs: loss {log.initial:.3f} -> {log.final:.3f} "
        f"({log.final / log.initial:.0%}) in {toy_training['elapsed']:.0f}s, "
        f"embeddings bit-unchanged",
    )


def test_criterion_08_vocabulary_expansion(toy_training):
    rng = np.random.default_rng(808)
    base = toy_training["model"]
    old_v = toy_training["vocab"]
    old_size = len(old_v)
    expanded = base
    new_ids = []
    for word in ("zebra", "racket", "axolotl"):
        expanded, new_id = expand_vocab(expanded, word, rng.normal(size=300) * 0.5)
        new_ids.append(new_id)
    assert new_ids == [old_size, old_size + 1, old_size + 2]

    def logits_of(model, state):
        return model.output_logits(state)[0]

    # (a) pre-existing logits bit-identical along shared trajectories
    # (b) pre-existing argmax preserved at every step of 50 random prefixes
    cond = np.zeros(2)
    content = [w for w in range(old_size) if w != old_v.eos]
    new_word_won = 0
    for _ in range(50):
        prefix = [int(x) for x in rng.choice(content, size=rng.integers(0, 6))]
        s_old = base.initial_state(cond)
        s_new = expanded.initial_state(cond)
        for w in prefix + [None]:
            assert np.array_equal(logits_of(expanded, s_new)[:old_size],
                                  logits_of(base, s_old))
            old_argmax = int(np.argmax(base.log_probs(s_old)[0]))
            assert int(np.argmax(expanded.log_probs(s_new)[0][:old_size])) == old_argmax
            full_argmax = int(np.argmax(expanded.log_probs(s_new)[0]))
            if full_argmax != old_argmax:
                assert full_argmax >= old_size
                new_word_won += 1
            if w is not None:
                s_old, _ = base.step(s_old, w)
                s_new, _ = expanded.step(s_new, w)

    # (c) a constrained decode forcing a new word succeeds end to end
    fsm = compile_disjunctions(
        DisjunctiveConstraints.from_words([["racket"]], expanded.vocab), len(expanded.vocab)
    )
    result = constrained_beam_search(
        expanded, fsm, SearchParams(beam_size=8, max_len=12), cond
    )
    assert result.status == "accepted"
    assert expanded.vocab.id("racket") in result.best.tokens
    assert fsm.recognizes(result.best.tokens)
    report(
        8,
        f"3 expansions: old logits bit-identical, argmax preserved over 50 "
        f"prefixes (new word won {new_word_won} steps), forced-word decode "
        f"accepted: {' '.join(expanded.vocab.decode(result.best.tokens))}",
    )


def test_criterion_09_f1_metric():
    spec = MentionSpec("racket", frozenset({"racket", "rackets", "racquet"}))

    def pair(gen, refs):
        return EvalPair(tuple(gen.split()), tuple(tuple(r.split()) for r in refs))

    fixture = [
        pair("a racket", ["the racket"]),
        pair("a racquet", ["a racquet on court"]),
        pair("a racket", ["a tennis court"]),
        pair("a court", ["a racket on a court"]),
    ]
    score = f1_mentions(fixture, spec)
    assert score.precision == pytest.approx(2 / 3, abs=1e-12)
    assert score.recall == pytest.approx(2 / 3, abs=1e-12)
    assert score.f1 == pytest.approx(2 / 3, abs=1e-12)

    never = [
        pair("a man on a court", ["a racket on a court"]),
        pair("a man playing", ["a man with a racquet"]),
        pair("a court", ["a court"]),
    ]
    degenerate = f1_mentions(never, spec)
    assert degenerate.f1 == 0.0
    report(9, "hand-counted P=R=F1=2/3 fixture and never-mention F1=0 both exact")


def test_criterion_10_multi_phrase_protocol():
    v = Vocabulary.from_tokens(["pool", "billiard", "snooker", "table", "ball", "a"])
    corpus = (
        [v.encode("a billiard table".split()) + [v.eos]] * 6
        + [v.encode("a pool ball".split()) + [v.eos]] * 2
        + [v.encode("a table".split()) + [v.eos]]
    )
    scorer = ngram_train(corpus, order=2, alpha=0.2, vocab=v)
    phrases = [
        PhraseConstraint.from_words(["pool", "table"], v),
        PhraseConstraint.from_words(["billiard", "table"], v),
        PhraseConstraint.from_words(["snooker", "table"], v),
    ]
    params = SearchParams(beam_size=6, max_len=8)
    combined = decode_best(scorer, phrase_machines(phrases, len(v)), params)
    runs = [constrained_beam_search(scorer, compile_phrase(p, len(v)), params) for p in phrases]
    accepted = [r for r in runs if r.status == "accepted"]
    assert accepted
    best = min(accepted, key=lambda r: (-r.best.logprob, len(r.best.tokens), r.best.tokens))
    assert combined.status == "accepted"
    assert combined.best.tokens == best.best.tokens
    assert combined.best.logprob == best.best.logprob
    report(
        10,
        f"3-phrase decode returned the max-logprob accepted run: "
        f"{' '.join(v.decode(combined.best.tokens))}",
    )
