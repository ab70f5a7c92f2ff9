import functools
import json
import logging
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsdecode import (
    CapacityError,
    ConstraintError,
    ContractError,
    DisjunctiveConstraints,
    Fsm,
    LemmaMap,
    PhraseConstraint,
    Vocabulary,
    compile_disjunctions,
    compile_phrase,
    compile_spec,
    expand_lemmas,
    intersect,
    load_constraint_spec,
    trivial_fsm,
)
from conftest import make_vocab
from oracles import all_sequences, contains_phrase, phrase_transition, satisfies_disjunctions


def chair_table_fsm(v):
    c = DisjunctiveConstraints.from_words([["chair", "chairs"], ["desk", "table"]], v)
    return compile_disjunctions(c, len(v))


class TestCompileDisjunctions:
    def test_two_sets_structure(self, chair_table_vocab):
        v = chair_table_vocab
        f = chair_table_fsm(v)
        assert f.num_states == 4
        assert f.start == 0
        assert f.accepting == {3}
        assert f.step(0, v.id("chair")) == 1
        assert f.step(1, v.id("table")) == 3

    def test_no_constraints_gives_single_state(self, chair_table_vocab):
        f = compile_disjunctions(DisjunctiveConstraints.from_sets([]), len(chair_table_vocab))
        assert f.num_states == 1
        assert f.start in f.accepting
        assert all(f.step(0, w) == 0 for w in range(len(chair_table_vocab)))

    @pytest.mark.parametrize("m", range(7))
    def test_state_count_is_two_to_the_m(self, m):
        v = make_vocab(9)
        c = DisjunctiveConstraints.from_sets([{i} for i in range(m)])
        assert compile_disjunctions(c, len(v)).num_states == 2**m

    def test_three_singletons_vs_membership_oracle(self):
        # exhaustive check over every sequence of length <= 4 from 5 tokens
        v = make_vocab(5)
        sets = [{0}, {1}, {2}]
        f = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
        assert f.num_states == 8
        for seq in all_sequences(range(len(v)), 4):
            assert f.recognizes(seq) == satisfies_disjunctions(seq, sets)

    @pytest.mark.parametrize("build", [
        lambda n: compile_disjunctions(DisjunctiveConstraints.from_sets([{1}, {2, 99}]), n),
        lambda n: compile_phrase(PhraseConstraint((0, 99)), n),
        lambda n: Fsm(2, 0, {1}, n, defaults=[0, 1], rows=[{0: 1, 99: 1}, {}]),
    ], ids=["disjunctions", "phrase", "hand-built"])
    def test_invalid_token_id(self, build):
        """Every way to build a machine reports an out-of-range constraint
        token in one message, from the machine's own check."""
        with pytest.raises(ConstraintError, match=re.escape("token id 99 out of range for |V|=4")):
            build(len(make_vocab(4)))

    def test_capacity_cap(self):
        v = make_vocab(20)
        c = DisjunctiveConstraints.from_sets([{i} for i in range(17)])
        with pytest.raises(CapacityError):
            compile_disjunctions(c, len(v))

    def test_bitmask_monotone_along_paths(self, rng):
        v = make_vocab(6)
        sets = [{0, 1}, {2}, {3}]
        f = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
        for _ in range(200):
            state = f.start
            for w in rng.integers(0, len(v), size=8):
                nxt = f.step(state, int(w))
                assert nxt & state == state  # bits never clear
                state = nxt

    def test_word_in_two_sets_advances_both_bits(self):
        v = make_vocab(5)
        f = compile_disjunctions(DisjunctiveConstraints.from_sets([{0, 1}, {1, 2}]), len(v))
        assert f.step(0, 1) == 3


class TestCompilePhrase:
    def test_two_word_phrase_has_three_states(self):
        v = Vocabulary.from_tokens(["billiard", "table", "pool"])
        f = compile_phrase(PhraseConstraint.from_words(["billiard", "table"], v), len(v))
        assert f.num_states == 3
        assert f.recognizes(v.encode(["pool", "billiard", "table", "pool"]))
        assert not f.recognizes(v.encode(["billiard", "pool", "table"]))

    @pytest.mark.parametrize("length", range(1, 9))
    def test_state_count_is_length_plus_one(self, length):
        v = make_vocab(4)
        p = PhraseConstraint(tuple(i % 3 for i in range(length)))
        assert compile_phrase(p, len(v)).num_states == length + 1

    def test_single_word_phrase_equals_singleton_disjunction(self):
        v = make_vocab(4)
        phrase = compile_phrase(PhraseConstraint((1,)), len(v))
        disj = compile_disjunctions(DisjunctiveConstraints.from_sets([{1}]), len(v))
        assert phrase.num_states == 2
        for seq in all_sequences(range(len(v)), 5):
            assert phrase.recognizes(seq) == disj.recognizes(seq)

    def test_overlapping_prefix_keeps_partial_match(self):
        # a a b : after reading a third "a", the machine must sit on the
        # two-long suffix "a a", not reset to the start
        v = Vocabulary.from_tokens(["a", "b"])
        a, b = v.id("a"), v.id("b")
        f = compile_phrase(PhraseConstraint((a, a, b)), len(v))
        state = f.start
        for w in (a, a, a):
            state = f.step(state, w)
        assert state == 2
        assert f.recognizes((a, a, a, b))

    def test_matches_substring_oracle_exhaustively(self):
        v = Vocabulary.from_tokens(["a", "b"])
        a, b = v.id("a"), v.id("b")
        for phrase in [(a, b), (a, a, b), (b, a, b, a)]:
            f = compile_phrase(PhraseConstraint(phrase), len(v))
            for seq in all_sequences(range(len(v)), 6):
                assert f.recognizes(seq) == contains_phrase(seq, phrase), (phrase, seq)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_transitions_match_brute_force(self, data):
        """Every transition of a phrase machine is the longest suffix of what
        was read that is a prefix of the phrase. Rows list only the tokens
        that leave the default, in ascending order."""
        size = data.draw(st.integers(1, 4), label="size")
        phrase = tuple(data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=8), label="phrase"))
        n = len(phrase)
        f = compile_phrase(PhraseConstraint(phrase), size)
        assert (f.num_states, f.start, f.accepting) == (n + 1, 0, {n})
        assert f.defaults == (0,) * n + (n,) and f.progress == (0,) * n + (1,)
        for k in range(n):
            want = {w: phrase_transition(phrase, k, w) for w in range(size)}
            assert [f.step(k, w) for w in range(size)] == list(want.values())
            assert list(f.rows[k].items()) == [(w, nxt) for w, nxt in want.items() if nxt]
        assert f.rows[n] == {}

    # rows of overlapping phrases with their key order, recorded from a
    # failure-function construction; a product machine can number its states
    # in this order
    @pytest.mark.parametrize(
        "phrase,size,rows",
        [
            ((0, 1, 0, 1, 2), 3, [[(0, 1)], [(0, 1), (1, 2)], [(0, 3)], [(0, 1), (1, 4)], [(0, 3), (2, 5)], []]),
            ((0, 0, 1), 2, [[(0, 1)], [(0, 2)], [(0, 2), (1, 3)], []]),
            ((1, 1, 1), 2, [[(1, 1)], [(1, 2)], [(1, 3)], []]),
            ((2, 1, 2, 0, 2, 1, 2), 3,
             [[(2, 1)], [(1, 2), (2, 1)], [(2, 3)], [(0, 4), (1, 2), (2, 1)], [(2, 5)], [(1, 6), (2, 1)], [(2, 7)], []]),
            ((3, 0, 2, 1, 3, 0, 3), 4,
             [[(3, 1)], [(0, 2), (3, 1)], [(2, 3), (3, 1)], [(1, 4), (3, 1)], [(3, 5)], [(0, 6), (3, 1)], [(2, 3), (3, 7)], []]),
        ],
    )
    def test_recorded_rows_of_overlapping_phrases(self, phrase, size, rows):
        f = compile_phrase(PhraseConstraint(phrase), size)
        assert [list(r.items()) for r in f.rows] == rows
        assert f.defaults == (0,) * len(phrase) + (len(phrase),)

    def test_final_state_is_absorbing(self):
        v = make_vocab(4)
        f = compile_phrase(PhraseConstraint((0, 1)), len(v))
        final = f.num_states - 1
        assert all(f.step(final, w) == final for w in range(len(v)))

    def test_empty_phrase_rejected(self):
        with pytest.raises(ConstraintError):
            PhraseConstraint(())


def two_pass_intersect(a, b):
    """The product construction in two passes: discover every reachable pair
    (LIFO frontier, default successor first), then build each pair's default
    and row through the validating `Fsm.step`. `intersect` builds both in
    one pass and must give the same machine, state numbers and row order
    included."""
    ids = {(a.start, b.start): 0}
    frontier = [(a.start, b.start)]
    while frontier:
        sa, sb = frontier.pop()
        successors = [(a.defaults[sa], b.defaults[sb])]
        successors += [(a.step(sa, w), b.step(sb, w)) for w in set(a.rows[sa]) | set(b.rows[sb])]
        for nxt in successors:
            if nxt not in ids:
                ids[nxt] = len(ids)
                frontier.append(nxt)
    defaults, rows = [], []
    for sa, sb in ids:
        defaults.append(ids[(a.defaults[sa], b.defaults[sb])])
        row = {}
        for w in set(a.rows[sa]) | set(b.rows[sb]):
            nxt = ids[(a.step(sa, w), b.step(sb, w))]
            if nxt != defaults[-1]:
                row[w] = nxt
        rows.append(row)
    accepting = {i for i, (sa, sb) in enumerate(ids) if sa in a.accepting and sb in b.accepting}
    progress = [a.progress[sa] + b.progress[sb] for sa, sb in ids]
    return Fsm(len(ids), 0, accepting, a.vocab_size, defaults, rows, progress)


@st.composite
def constraint_machines(draw, vocab_size):
    """A disjunction or phrase machine over `vocab_size` tokens."""
    token = st.integers(0, vocab_size - 1)
    if draw(st.booleans()):
        sets = draw(st.lists(st.sets(token, min_size=1, max_size=3), min_size=1, max_size=3))
        return compile_disjunctions(DisjunctiveConstraints.from_sets(sets), vocab_size)
    phrase = draw(st.lists(token, min_size=1, max_size=4))
    return compile_phrase(PhraseConstraint(tuple(phrase)), vocab_size)


class TestIntersect:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_same_machine_as_two_pass_construction(self, data):
        vocab_size = data.draw(st.integers(1, 9))
        machines = data.draw(st.lists(constraint_machines(vocab_size), min_size=2, max_size=3))
        product, reference = machines[0], machines[0]
        for m in machines[1:]:
            product, reference = intersect(product, m), two_pass_intersect(reference, m)
        for got, want in ((product, reference), (intersect(machines[1], machines[0]),
                                                  two_pass_intersect(machines[1], machines[0]))):
            assert (got.num_states, got.accepting, got.defaults, got.progress) == (
                want.num_states, want.accepting, want.defaults, want.progress)
            assert [list(r.items()) for r in got.rows] == [list(r.items()) for r in want.rows]
            assert json.dumps(got.dump()) == json.dumps(want.dump())

    def test_identity_with_trivial_machine(self):
        v = make_vocab(4)
        f = compile_phrase(PhraseConstraint((0, 1)), len(v))
        product = intersect(f, trivial_fsm(len(v)))
        for seq in all_sequences(range(len(v)), 5):
            assert product.recognizes(seq) == f.recognizes(seq)

    def test_phrase_and_disjunction(self):
        v = Vocabulary.from_tokens(["a", "b", "c"])
        a, b, c = (v.id(x) for x in "abc")
        product = intersect(
            compile_phrase(PhraseConstraint((a, b)), len(v)),
            compile_disjunctions(DisjunctiveConstraints.from_sets([{c}]), len(v)),
        )
        assert product.recognizes((a, b, c))
        assert product.recognizes((c, a, b))
        assert not product.recognizes((a, c, b))
        for seq in all_sequences(range(len(v)), 4):
            expected = contains_phrase(seq, (a, b)) and c in seq
            assert product.recognizes(seq) == expected

    def test_two_phrases_need_both(self):
        v = make_vocab(4)
        p1, p2 = (0,), (1,)
        product = intersect(
            compile_phrase(PhraseConstraint(p1), len(v)), compile_phrase(PhraseConstraint(p2), len(v))
        )
        for seq in all_sequences(range(len(v)), 5):
            expected = contains_phrase(seq, p1) and contains_phrase(seq, p2)
            assert product.recognizes(seq) == expected

    def test_language_is_conjunction(self, rng):
        v = make_vocab(5)
        sets = [{0, 3}, {1}]
        fa = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
        fb = compile_phrase(PhraseConstraint((3, 1)), len(v))
        product = intersect(fa, fb)
        assert product.num_states <= fa.num_states * fb.num_states
        for seq in all_sequences(range(len(v)), 6):
            assert product.recognizes(seq) == (fa.recognizes(seq) and fb.recognizes(seq))

    def test_mismatched_vocabularies(self):
        with pytest.raises(ConstraintError):
            intersect(trivial_fsm(3), trivial_fsm(4))

    def test_capacity_cap(self):
        # disjoint token sets: all 2^8 x 2^8 = 65,536 pairs are reachable
        v = make_vocab(17)
        fa = compile_disjunctions(
            DisjunctiveConstraints.from_sets([{i} for i in range(8)]), len(v)
        )
        fb = compile_disjunctions(
            DisjunctiveConstraints.from_sets([{i} for i in range(8, 16)]), len(v)
        )
        with pytest.raises(CapacityError, match="exceeds 4096 states"):
            intersect(fa, fb)

    @pytest.mark.parametrize("tokens", [(3,), (0, 1), (0, 0, 1), (1, 2, 1, 2, 3), (2, 2, 2)])
    def test_trivial_base_keeps_the_phrase_machine(self, tokens):
        """`phrase_machines` intersects every phrase with a base, by default
        the machine that accepts everything; the product is the phrase
        machine itself, state numbers included."""
        phrase = compile_phrase(PhraseConstraint(tokens), 5)
        product = intersect(trivial_fsm(5), phrase)
        assert product.num_states == phrase.num_states and product.accepting == phrase.accepting
        assert product.defaults == phrase.defaults and product.progress == phrase.progress
        assert product.rows == phrase.rows

    def test_progress_sums_components(self):
        v = make_vocab(5)
        fa = compile_disjunctions(DisjunctiveConstraints.from_sets([{0}, {1}]), len(v))
        fb = compile_phrase(PhraseConstraint((2,)), len(v))
        product = intersect(fa, fb)
        state = product.start
        for w in (0, 1, 2):
            state = product.step(state, w)
        assert product.progress[state] == 3


class TestRouteTable:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_widest_is_the_most_tokens_one_state_sends_to_one_destination(self, data):
        vocab_size = data.draw(st.integers(1, 9))
        machines = data.draw(st.lists(constraint_machines(vocab_size), min_size=1, max_size=3))
        machine = functools.reduce(intersect, machines)
        want = max((max(Counter(row.values()).values()) for row in machine.rows if row), default=0)
        assert machine.route_table().widest == want

    def test_widest_is_zero_without_listed_tokens(self):
        assert trivial_fsm(4).route_table().widest == 0


class TestStepAndRecognizes:
    def test_step_is_pure_lookup(self, chair_table_vocab):
        f = chair_table_fsm(chair_table_vocab)
        before = f.step(0, chair_table_vocab.id("chair"))
        assert f.step(0, chair_table_vocab.id("chair")) == before

    def test_step_contract_violations(self, chair_table_vocab):
        f = chair_table_fsm(chair_table_vocab)
        with pytest.raises(ContractError):
            f.step(99, 0)
        with pytest.raises(ContractError):
            f.step(0, 999)

    def test_chained_steps_reach_accepting(self, chair_table_vocab):
        v = chair_table_vocab
        f = chair_table_fsm(v)
        state = f.start
        for w in v.encode(["the", "chair", "near", "the", "table"]):
            state = f.step(state, w)
        assert state == 3
        assert f.recognizes(v.encode(["the", "chair", "near", "the", "table"]))

    def test_empty_sequence_on_unconstrained_machine(self):
        assert trivial_fsm(5).recognizes(())

    def test_partial_satisfaction_rejected(self, chair_table_vocab):
        v = chair_table_vocab
        f = chair_table_fsm(v)
        assert f.recognizes(v.encode(["a", "table", "and", "a", "chair"]))
        assert not f.recognizes(v.encode(["a", "table"]))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_recognizes_agrees_with_direct_checks(self, data):
        v = make_vocab(6)
        ids = st.integers(0, len(v) - 1)
        num_sets = data.draw(st.integers(0, 3))
        sets = [
            data.draw(st.sets(ids, min_size=1, max_size=3)) for _ in range(num_sets)
        ]
        seq = tuple(data.draw(st.lists(ids, max_size=8)))
        f = compile_disjunctions(DisjunctiveConstraints.from_sets(sets), len(v))
        assert f.recognizes(seq) == satisfies_disjunctions(seq, sets)
        phrase = tuple(data.draw(st.lists(ids, min_size=1, max_size=3)))
        fp = compile_phrase(PhraseConstraint(phrase), len(v))
        assert fp.recognizes(seq) == contains_phrase(seq, phrase)


class TestLemmas:
    def test_expand_includes_lemma_mates(self):
        v = Vocabulary.from_tokens(["racket", "rackets", "ball"])
        lm = LemmaMap([["racket", "rackets"]])
        assert expand_lemmas("racket", lm, v) == {v.id("racket"), v.id("rackets")}

    def test_word_absent_from_map_maps_to_itself(self):
        v = Vocabulary.from_tokens(["ball"])
        assert expand_lemmas("ball", LemmaMap(), v) == {v.id("ball")}

    def test_symmetric_groups(self):
        v = Vocabulary.from_tokens(["chair", "chairs"])
        lm = LemmaMap([["chair", "chairs"]])
        assert expand_lemmas("chairs", lm, v) == expand_lemmas("chair", lm, v)

    def test_out_of_vocabulary_gives_empty_set(self):
        v = Vocabulary.from_tokens(["ball"])
        assert expand_lemmas("zebra", LemmaMap(), v) == set()

    def test_load_tab_separated(self, tmp_path):
        path = tmp_path / "lemmas.tsv"
        path.write_text("chair\tchairs\nracket\track ets\n", encoding="utf-8")
        lm = LemmaMap.load(path)
        assert lm.group("chairs") == {"chair", "chairs"}


class TestSpecFiles:
    def test_load_and_compile(self, tmp_path, chair_table_vocab):
        spec_path = tmp_path / "c.json"
        spec_path.write_text(
            json.dumps({"disjunctions": [["chair"], ["table"]], "phrases": [["the", "chair"]]})
        )
        spec = load_constraint_spec(spec_path, chair_table_vocab)
        f = compile_spec(spec, chair_table_vocab)
        v = chair_table_vocab
        assert f.recognizes(v.encode(["the", "chair", "near", "the", "table"]))
        assert not f.recognizes(v.encode(["chair", "table"]))  # phrase missing

    def test_unknown_word_fails_compilation(self, tmp_path, chair_table_vocab):
        spec_path = tmp_path / "c.json"
        spec_path.write_text(json.dumps({"disjunctions": [["zebra"]]}))
        with pytest.raises(ConstraintError, match="zebra"):
            load_constraint_spec(spec_path, chair_table_vocab)

    @pytest.mark.parametrize("lemmas", [None, LemmaMap([["chair", "chairs"], ["stool", "stools"]])])
    def test_unknown_disjunction_words_dropped_with_warning(self, lemmas, chair_table_vocab, caplog):
        v = chair_table_vocab
        groups = [["chair", "chiar"], ["table"], ["stool", "desk"]]
        with caplog.at_level(logging.WARNING, logger="cbsdecode.fsm"):
            c = DisjunctiveConstraints.from_words(groups, v, lemmas=lemmas)
        chair = {v.id("chair")} if lemmas is None else {v.id("chair"), v.id("chairs")}
        assert c.disjunctions == (frozenset(chair), {v.id("table")}, {v.id("desk")})
        # one warning per group that lost a word, naming only the lost words
        messages = [r.getMessage() for r in caplog.records if r.name == "cbsdecode.fsm"]
        assert len(messages) == 2
        assert "dropping ['chiar']" in messages[0]
        assert "dropping ['stool']" in messages[1]
        assert all(r.levelno == logging.WARNING for r in caplog.records)

    @pytest.mark.parametrize("spec", [
        {"disjunctions": [["chair", "chiar"], ["zebra"]]},
        {"disjunctions": [["chair", "chiar"]], "phrases": [["the", "zebra"]]},
    ])
    def test_failing_spec_logs_no_dropped_words(self, spec, chair_table_vocab, caplog):
        from cbsdecode.fsm import parse_constraint_spec

        with caplog.at_level(logging.WARNING, logger="cbsdecode.fsm"):
            with pytest.raises(ConstraintError, match="zebra"):
                parse_constraint_spec(spec, chair_table_vocab)
        assert not caplog.records

    def test_lemma_expansion_in_disjunctions(self, tmp_path, chair_table_vocab):
        spec_path = tmp_path / "c.json"
        spec_path.write_text(json.dumps({"disjunctions": [["chair"]]}))
        lm = LemmaMap([["chair", "chairs"]])
        spec = load_constraint_spec(spec_path, chair_table_vocab, lemmas=lm)
        v = chair_table_vocab
        assert spec.disjunctions.disjunctions[0] == {v.id("chair"), v.id("chairs")}

    def test_empty_spec_compiles_to_trivial_machine(self, chair_table_vocab):
        from cbsdecode.fsm import parse_constraint_spec

        parsed = parse_constraint_spec({}, chair_table_vocab)
        assert not parsed.disjunctions.disjunctions and not parsed.phrases
        f = compile_spec(parsed, chair_table_vocab)
        assert f.num_states == 1 and f.start in f.accepting


class TestDumpRoundTrip:
    def test_dump_and_self_loops_give_every_transition(self, chair_table_vocab):
        v = chair_table_vocab
        f = intersect(
            chair_table_fsm(v),
            compile_phrase(PhraseConstraint.from_words(["the", "chair"], v), len(v)),
        )
        dump = json.loads(json.dumps(f.dump()))
        assert (dump["num_states"], dump["vocab_size"]) == (f.num_states, len(v))
        assert (dump["start"], set(dump["accepting"])) == (f.start, f.accepting)
        listed = {(s, w): nxt for s, w, nxt in dump["transitions"]}
        assert len(listed) == len(dump["transitions"])
        for s in range(f.num_states):
            for w in range(len(v)):
                assert listed.get((s, w), s) == f.step(s, w)

    def test_dump_lists_only_non_self_loops(self, chair_table_vocab):
        f = chair_table_fsm(chair_table_vocab)
        dump = f.dump()
        assert all(s != nxt for s, _, nxt in dump["transitions"])
