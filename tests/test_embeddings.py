import numpy as np
import pytest

from cbsdecode import (
    DataError,
    DisjunctiveConstraints,
    EmbeddingTable,
    SearchParams,
    Vocabulary,
    compile_disjunctions,
    constrained_beam_search,
    expand_vocab,
    load_embeddings,
)
from cbsdecode.embeddings import (
    ExpansionRecord,
    apply_expansion_manifest,
    build_caption_model,
    embedding_matrix,
    load_expansion_manifest,
)
from cbsdecode.neural import CaptionModel
from conftest import make_vocab


def write_table(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for word, values in entries:
            fh.write(word + " " + " ".join(str(x) for x in values) + "\n")


class TestLoadEmbeddings:
    def test_single_needed_word(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("cat", range(300)), ("dog", range(300))])
        table, missing = load_embeddings(path, needed={"cat"})
        assert len(table) == 1 and not missing
        assert table.dim == 300
        np.testing.assert_array_equal(table["cat"], np.arange(300.0))

    def test_missing_words_reported(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("cat", [1.0, 2.0])])
        table, missing = load_embeddings(path, needed={"cat", "zebra", "axolotl"})
        assert missing == ["axolotl", "zebra"]
        assert "zebra" not in table

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\ndog 1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2:"):
            load_embeddings(path)

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 oops\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1:"):
            load_embeddings(path)

    def test_round_trip(self, tmp_path, rng):
        words = [f"word{i}" for i in range(50)]
        table = EmbeddingTable(8, {w: rng.normal(size=8) for w in words})
        path = tmp_path / "vec.txt"
        write_table(path, [(w, [repr(float(x)) for x in table[w]]) for w in words])
        reloaded, _ = load_embeddings(path)
        assert set(reloaded.vectors) == set(words)
        for w in words:
            np.testing.assert_array_equal(reloaded[w], table[w])

    def test_lowercases_on_ingest(self, tmp_path):
        path = tmp_path / "vec.txt"
        write_table(path, [("Cat", [1.0])])
        table, _ = load_embeddings(path)
        assert "cat" in table and "CAT" in table  # lookup lowercases too


class TestEmbeddingMatrix:
    def test_missing_vocabulary_word_is_fatal(self):
        v = Vocabulary.from_tokens(["cat", "dog"])
        table = EmbeddingTable(3, {"cat": np.ones(3), "<eos>": np.zeros(3)})
        with pytest.raises(DataError, match="dog"):
            embedding_matrix(v, table)

    def test_columns_follow_vocabulary_order(self):
        v = Vocabulary.from_tokens(["cat", "dog"])
        table = EmbeddingTable(
            2, {"cat": [1.0, 2.0], "dog": [3.0, 4.0], "<eos>": [5.0, 6.0]}
        )
        w_e = embedding_matrix(v, table)
        np.testing.assert_array_equal(w_e[:, v.id("dog")], [3.0, 4.0])
        assert w_e.shape == (2, 3)


def trained_tiny_model(rng):
    v = make_vocab(6)
    w_e = rng.normal(size=(8, len(v)))
    return v, CaptionModel.build(v, w_e, hidden_size=4, cond_dim=2, rng=rng, init_scale=0.3)


class TestExpandVocab:
    def test_zero_vector_gets_zero_logit(self, rng):
        v, m = trained_tiny_model(rng)
        m2, new_id = expand_vocab(m, "newword", np.zeros(m.embed_dim))
        assert new_id == len(v)
        cond = rng.normal(size=2)
        state = m2.initial_state(cond)
        for w in (0, 1, 3):
            assert m2.output_logits(state)[0, new_id] == 0.0
            state, _ = m2.step(state, w)

    def test_existing_logits_bit_identical_and_probs_scaled(self, rng):
        v, m = trained_tiny_model(rng)
        cond = rng.normal(size=2)
        vec = rng.normal(size=m.embed_dim)
        m2, new_id = expand_vocab(m, "racket", vec)
        state_old = m.initial_state(cond)
        state_new = m2.initial_state(cond)
        for w in (1, 0, 3):
            old_logits = m.output_logits(state_old)[0]
            new_logits = m2.output_logits(state_new)[0]
            assert np.array_equal(new_logits[: len(v)], old_logits)
            # all pre-existing probabilities shrink by one common factor
            ratios = np.exp(m2.log_probs(state_new)[0][: len(v)] - m.log_probs(state_old)[0])
            np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
            assert ratios[0] < 1.0
            state_old, _ = m.step(state_old, w)
            state_new, _ = m2.step(state_new, w)

    def test_vocab_grows_by_one_and_old_ids_stable(self, rng):
        v, m = trained_tiny_model(rng)
        m2, new_id = expand_vocab(m, "zebra", rng.normal(size=m.embed_dim))
        assert len(m2.vocab) == len(v) + 1
        assert new_id == len(v)
        for i, w in enumerate(v.tokens):
            assert m2.vocab.id(w) == i

    def test_duplicate_word_rejected(self, rng):
        v, m = trained_tiny_model(rng)
        with pytest.raises(DataError):
            expand_vocab(m, v.tokens[0], np.zeros(m.embed_dim))

    def test_wrong_dimension_rejected(self, rng):
        v, m = trained_tiny_model(rng)
        with pytest.raises(DataError):
            expand_vocab(m, "newword", np.zeros(m.embed_dim + 1))

    def test_expansion_order_insensitive_for_old_logits(self, rng):
        v, m = trained_tiny_model(rng)
        vec_u = rng.normal(size=m.embed_dim)
        vec_w = rng.normal(size=m.embed_dim)
        ab, _ = expand_vocab(m, "u", vec_u)
        ab, _ = expand_vocab(ab, "w", vec_w)
        ba, _ = expand_vocab(m, "w", vec_w)
        ba, _ = expand_vocab(ba, "u", vec_u)
        cond = rng.normal(size=2)
        sa, sb = ab.initial_state(cond), ba.initial_state(cond)
        logits_ab = ab.output_logits(sa)[0]
        logits_ba = ba.output_logits(sb)[0]
        np.testing.assert_array_equal(logits_ab[: len(v)], logits_ba[: len(v)])

    def test_constrained_decode_with_new_word(self, rng):
        v, m = trained_tiny_model(rng)
        with pytest.raises(DataError):
            v.id("racket")  # not decodable before expansion
        m2, new_id = expand_vocab(m, "racket", rng.normal(size=m.embed_dim))
        fsm = compile_disjunctions(
            DisjunctiveConstraints.from_words([["racket"]], m2.vocab), len(m2.vocab)
        )
        result = constrained_beam_search(m2, fsm, SearchParams(beam_size=5, max_len=8))
        assert result.status == "accepted"
        assert new_id in result.best.tokens
        assert fsm.recognizes(result.best.tokens)

    def test_manifest_application(self, rng, tmp_path):
        import json

        v, m = trained_tiny_model(rng)
        table = EmbeddingTable(
            m.embed_dim,
            {"racket": rng.normal(size=m.embed_dim), "zebra": rng.normal(size=m.embed_dim)},
        )
        manifest = tmp_path / "exp.json"
        manifest.write_text(
            json.dumps([{"word": "racket", "source": "embedding-file"},
                        {"word": "zebra", "source": "embedding-file"}])
        )
        words = load_expansion_manifest(manifest)
        m2, records = apply_expansion_manifest(m, words, table)
        assert [r.word for r in records] == ["racket", "zebra"]
        assert [r.token_id for r in records] == [len(v), len(v) + 1]
        assert records[0].order == 0 and records[1].order == 1


    def test_manifest_equals_word_by_word_expansion(self, rng):
        v, m = trained_tiny_model(rng)
        words = ["Racket", "zebra", "axolotl"]
        table = EmbeddingTable(m.embed_dim, {w.lower(): rng.normal(size=m.embed_dim) for w in words})
        once, records = apply_expansion_manifest(m, words, table)
        folded, folded_records = m, []
        for order, word in enumerate(words):
            folded, token_id = expand_vocab(folded, word, table[word])
            folded_records.append(ExpansionRecord(word.lower(), token_id, order))
        assert once.w_e.tobytes() == folded.w_e.tobytes()
        assert once.vocab.tokens == folded.vocab.tokens
        assert records == folded_records

    @pytest.mark.parametrize(
        "defect", ["word in vocabulary", "word repeated", "word not in table", "wrong dimension"]
    )
    def test_bad_manifest_rejected(self, rng, defect):
        v, m = trained_tiny_model(rng)
        dim = m.embed_dim + (defect == "wrong dimension")
        table = EmbeddingTable(dim, {"racket": rng.normal(size=dim), v.tokens[0]: np.zeros(dim)})
        words = {
            "word in vocabulary": ["racket", v.tokens[0]],
            "word repeated": ["racket", "Racket"],
            "word not in table": ["racket", "zebra"],
            "wrong dimension": ["racket"],
        }[defect]
        with pytest.raises(DataError):
            apply_expansion_manifest(m, words, table)

    def test_non_finite_vector_rejected(self, rng):
        v, m = trained_tiny_model(rng)
        with pytest.raises(DataError):
            expand_vocab(m, "newword", np.full(m.embed_dim, np.nan))


class TestBuildCaptionModel:
    def test_uses_table_columns(self, rng):
        v = Vocabulary.from_tokens(["cat", "dog"])
        table = EmbeddingTable(
            4, {w: rng.normal(size=4) for w in ("cat", "dog", "<eos>")}
        )
        m = build_caption_model(v, table, hidden_size=3, cond_dim=2, rng=rng)
        np.testing.assert_array_equal(m.w_e[:, v.id("cat")], table["cat"])
