import pytest

from cbsdecode import (
    DataError,
    DisjunctiveConstraints,
    EvalPair,
    MentionSpec,
    SearchParams,
    compile_disjunctions,
    constrained_beam_search,
    f1_mentions,
    macro_f1,
    satisfaction_rate,
    trivial_fsm,
)
from cbsdecode.metrics import load_mention_specs
from conftest import make_vocab, random_ngram

RACKET = MentionSpec("racket", frozenset({"racket", "rackets", "racquet"}))


def pair(gen, refs):
    return EvalPair(tuple(gen.split()), tuple(tuple(r.split()) for r in refs))


class TestF1Mentions:
    def test_perfect_agreement(self):
        pairs = [
            pair("a racket on a court", ["a tennis racket", "the racquet"]),
            pair("two rackets", ["some rackets"]),
        ]
        score = f1_mentions(pairs, RACKET)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)
        assert not score.degenerate

    def test_hand_counted_two_thirds(self):
        # TP=2, FP=1, FN=1 over four images
        pairs = [
            pair("a racket", ["the racket"]),            # tp
            pair("a racquet", ["a racquet on court"]),   # tp
            pair("a racket", ["a tennis court"]),        # fp
            pair("a court", ["a racket on a court"]),    # fn
        ]
        score = f1_mentions(pairs, RACKET)
        assert score.precision == pytest.approx(2 / 3)
        assert score.recall == pytest.approx(2 / 3)
        assert score.f1 == pytest.approx(2 / 3)

    def test_never_mentioning_generator_scores_zero(self):
        pairs = [
            pair("a man on a court", ["a racket on a court"]),
            pair("a man playing", ["a man with a racquet", "a man playing"]),
            pair("a court", ["a court"]),
        ]
        score = f1_mentions(pairs, RACKET)
        assert score.recall == 0.0
        assert score.f1 == 0.0
        assert score.degenerate  # no predicted positives at all

    def test_duplicate_mentions_do_not_change_counts(self):
        single = [pair("racket", ["racket"])]
        repeated = [pair("racket racket racket", ["racket"])]
        assert f1_mentions(single, RACKET) == f1_mentions(repeated, RACKET)

    def test_swapping_roles_swaps_precision_and_recall(self):
        pairs = [
            pair("a racket", ["a court"]),
            pair("a court", ["a racket"]),
            pair("a racket", ["a racket"]),
            pair("nothing", ["nothing here"]),
        ]
        swapped = [EvalPair(p.references[0], (p.generated,)) for p in pairs]
        fwd = f1_mentions(pairs, RACKET)
        rev = f1_mentions(swapped, RACKET)
        assert fwd.precision == rev.recall
        assert fwd.recall == rev.precision

    def test_empty_mention_set_rejected(self):
        with pytest.raises(DataError):
            MentionSpec("thing", frozenset())

    def test_empty_pairs_rejected(self):
        with pytest.raises(DataError):
            f1_mentions([], RACKET)


class TestMacroF1:
    def test_averages_across_objects(self):
        zebra = MentionSpec("zebra", frozenset({"zebra", "zebras"}))
        racket_pairs = [pair("a racket", ["a racket"])]          # f1 = 1
        zebra_pairs = [pair("a horse", ["a zebra"])]             # f1 = 0
        report = macro_f1([(RACKET, racket_pairs), (zebra, zebra_pairs)])
        assert report.f1 == pytest.approx(0.5)
        assert report.per_object["racket"].f1 == 1.0
        assert report.per_object["zebra"].f1 == 0.0
        d = report.to_dict()
        assert set(d) == {"per_object", "macro"}

    def test_spec_file_loading(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"object": "racket", "mentions": ["Racket"]}))
        specs = load_mention_specs(path)
        assert specs[0].mentions == frozenset({"racket"})


class TestSatisfactionRate:
    def test_accepted_results_all_satisfy(self, rng):
        v = make_vocab(6)
        fsm = compile_disjunctions(DisjunctiveConstraints.from_sets([{0}]), len(v))
        results, machines = [], []
        for _ in range(20):
            m = random_ngram(rng, v)
            r = constrained_beam_search(m, fsm, SearchParams(beam_size=5, max_len=8))
            if r.status == "accepted":
                results.append(r)
                machines.append(fsm)
        assert results
        assert satisfaction_rate(results, machines) == 1.0

    def test_counts_recognition_not_status(self, rng):
        # unconstrained decodes judged against a nontrivial machine
        v = make_vocab(6)
        target = compile_disjunctions(DisjunctiveConstraints.from_sets([{0}, {1}]), len(v))
        results = []
        expected_hits = 0
        for _ in range(25):
            m = random_ngram(rng, v)
            r = constrained_beam_search(m, trivial_fsm(len(v)), SearchParams(beam_size=4, max_len=7))
            results.append(r)
            if r.best is not None and target.recognizes(r.best.tokens):
                expected_hits += 1
        rate = satisfaction_rate(results, [target] * len(results))
        assert rate == pytest.approx(expected_hits / len(results))

    def test_empty_list_is_an_error(self):
        with pytest.raises(DataError):
            satisfaction_rate([], [])

    def test_length_mismatch(self, rng):
        v = make_vocab(4)
        m = random_ngram(rng, v)
        r = constrained_beam_search(m, trivial_fsm(len(v)), SearchParams())
        with pytest.raises(DataError):
            satisfaction_rate([r], [trivial_fsm(len(v)), trivial_fsm(len(v))])
