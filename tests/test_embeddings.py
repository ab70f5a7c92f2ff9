import logging
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsdecode import embeddings
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
    apply_expansion_manifest,
    build_caption_model,
    embedding_matrix,
    load_expansion_manifest,
)
from cbsdecode.neural import CaptionModel
from conftest import make_vocab
from oracles import reference_load_embeddings


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

    def test_repeated_word_keeps_last_line_and_warns_once(self, tmp_path, caplog):
        path = tmp_path / "vec.txt"
        write_table(path, [("Cat", [1.0, 2.0]), ("dog", [3.0, 4.0]), ("cat", [5.0, 6.0]),
                           ("DOG", [7.0, 8.0]), ("CAT", [9.0, 10.0]), ("emu", [0.5, 0.5])])
        with caplog.at_level(logging.WARNING, logger="cbsdecode.embeddings"):
            table, missing = load_embeddings(path, needed=["cat", "dog", "emu"])
        np.testing.assert_array_equal(table["cat"], [9.0, 10.0])
        np.testing.assert_array_equal(table["dog"], [7.0, 8.0])
        assert not missing
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1
        assert "2 words" in warnings[0] and "['cat', 'dog']" in warnings[0]

    def test_no_repeat_warning_for_skipped_words(self, tmp_path, caplog):
        path = tmp_path / "vec.txt"
        write_table(path, [("cat", [1.0]), ("dog", [2.0]), ("Dog", [3.0])])
        with caplog.at_level(logging.WARNING, logger="cbsdecode.embeddings"):
            table, _ = load_embeddings(path, needed=["cat"])
        assert list(table.vectors) == ["cat"] and not caplog.records

    def test_values_follow_float_syntax(self, tmp_path):
        """Underscores, non-ASCII digits and any Unicode whitespace between
        values read as `float` and `str.split` read them."""
        path = tmp_path / "vec.txt"
        path.write_text("cat 1_0\x0c\u0662.5\xa0-0\ndog\t1e-320 7 0.1\n", encoding="utf-8")
        table, _ = load_embeddings(path)
        assert table["cat"].tobytes() == np.array([10.0, 2.5, -0.0]).tobytes()
        assert table["dog"].tobytes() == np.array([1e-320, 7.0, 0.1]).tobytes()


def _outcome(load, path, needed):
    """What a loader makes of a file: its table as (dim, words in order, bytes
    of each vector) and its missing list, or its DataError message."""
    try:
        result = load(path, needed)
    except DataError as e:
        return str(e)
    if isinstance(result[0], EmbeddingTable):
        table, missing = result
        dim, vectors = table.dim, table.vectors
    else:
        dim, vectors, missing = result
    return dim, [(w, v.tobytes()) for w, v in vectors.items()], missing


def assert_matches_reference(path, needed):
    expected = _outcome(reference_load_embeddings, path, needed)
    assert _outcome(load_embeddings, path, needed) == expected
    return expected


# Values the bulk parse must read as `float` does, or reject as it does.
_ODD_VALUES = ["nan", "-inf", "Infinity", "1e309", "-1e309", "1_0", "1_000.25", "\u0661\u0662",
               "\u0663.\u0665", "oops", "1.0.0", "0x10", "1e", "--1", "1,5", "1\x00", "\u22121"]
_EXACT_VALUES = ["5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
                 "0.30000000000000004", "1.0000000000000002", "123456789012345678", "-0",
                 "+.5", "1E5", "9007199254740993", "0.1000000000000000055511151231257827"]
_WORDS = ["cat", "Cat", "CAT", "dog", "Dog", "emu", "<eos>"]
_GAPS = [" ", " ", " ", "  ", "\t", "\x0c", "\xa0", " \t", "\u2003"]
_BLANKS = ["", " ", "\t", "\x0c", "\xa0"]


@st.composite
def _value(draw, flawed):
    kind = draw(st.integers(0, 9))
    if kind == 0 and flawed:
        return draw(st.sampled_from(_ODD_VALUES))
    if kind <= 2:
        return draw(st.sampled_from(_EXACT_VALUES))
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from([repr(x), f"{x:.6f}", f"{x:.17g}", f"{x:.16e}"]))


@st.composite
def _vector_file(draw):
    """The text of a small vector file of well-formed lines of `dim` values,
    with blank lines, repeated and mixed-case words, odd gaps and line
    endings; in a flawed file, also odd values and wrong value counts."""
    dim = draw(st.integers(1, 4))
    flawed = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(_BLANKS)))
            continue
        count = draw(st.integers(0, dim + 1)) if kind == 1 and flawed else dim
        tokens = [draw(st.sampled_from(_WORDS))] + [draw(_value(flawed)) for _ in range(count)]
        gaps = [draw(st.sampled_from(_GAPS)) for _ in tokens]
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + tokens[0] + "".join(g + t for g, t in zip(gaps, tokens[1:])))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n", " \n"]))
    return "".join(line + ending for line in lines)


_NEEDED = st.one_of(st.none(), st.just([]), st.lists(st.sampled_from(_WORDS + ["yak"]), max_size=5))


@pytest.mark.filterwarnings("error")
class TestMatchesReferenceLoader:
    """`load_embeddings` against the line-by-line reference loader: the same
    table bytes, the same missing list and the same DataError message, and
    no warning from the bulk parse."""

    @given(text=_vector_file(), needed=_NEEDED, chunk=st.sampled_from([1, 2, 3, 512]))
    @settings(max_examples=400, deadline=None)
    def test_generated_files(self, text, needed, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vec.txt"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(embeddings, "CHUNK_LINES", chunk):
                assert_matches_reference(path, needed)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    @pytest.mark.parametrize("needed", [None, "half"])
    def test_chunk_boundaries(self, tmp_path, rng, extra, needed):
        """Chunk size minus one, chunk size and chunk size plus one wanted
        lines, with a skipped line after every wanted one when half are needed."""
        n = embeddings.CHUNK_LINES + extra
        entries = [(f"w{i}", rng.normal(size=3)) for i in range(n)]
        if needed == "half":
            entries = [e for pair in zip(entries, [(f"x{i}", v) for i, v in entries]) for e in pair]
        write_table(tmp_path / "vec.txt", [(w, [repr(float(x)) for x in v]) for w, v in entries])
        wanted = None if needed is None else [f"w{i}" for i in range(n)]
        dim, words, missing = assert_matches_reference(tmp_path / "vec.txt", wanted)
        assert len(words) == n and not missing

    @pytest.mark.parametrize("defect", ["oops", "nan", "1e309", "1_0", "\u0662", "short", "long"])
    @pytest.mark.parametrize("at", [1, 2, 512, 513, 1024])
    def test_defect_on_first_or_last_line_of_a_chunk(self, tmp_path, at, defect):
        lines = [f"w{i} {i}.5 -{i}.25 1e-3\n" for i in range(1, 1031)]
        value = {"short": "1.0 2.0", "long": "1 2 3 4"}.get(defect, f"1.0 {defect} 3.0")
        lines[at - 1] = f"bad {value}\n"
        (tmp_path / "vec.txt").write_text("".join(lines), encoding="utf-8")
        outcome = assert_matches_reference(tmp_path / "vec.txt", None)
        if defect in ("1_0", "\u0662"):  # read as `float` reads them
            assert len(outcome[1]) == 1030
        else:  # a first line with a wrong count sets the count, and the second line fails
            assert f":{at + (at == 1 and defect in ('short', 'long'))}:" in outcome

    @pytest.mark.parametrize("needed", [["cat"], None])
    def test_bad_wanted_line_reports_before_a_later_malformed_skipped_line(
        self, tmp_path, needed
    ):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1 2\ndog 3 4\ncat 5 oops\nemu 1\ndog 6 7\n", encoding="utf-8")
        outcome = assert_matches_reference(path, needed)
        assert ":3: bad float" in outcome

    def test_first_line_without_values(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("\n  \ncat\ndog 1 2\n", encoding="utf-8")
        assert ":3: entry has no values" in assert_matches_reference(path, ["dog"])

    def test_bad_line_before_an_undecodable_block_reports_first(self, tmp_path):
        """A bad wanted line reports before an undecodable line thousands of
        lines (more than one 8 KB block) later."""
        body = "".join(f"w{i} 1.0 2.0\n" for i in range(3000)).encode()
        path = tmp_path / "vec.txt"
        path.write_bytes(b"cat 1.0 oops\n" + body + b"dog 1.0 \xe9\n")
        assert ":1: bad float" in assert_matches_reference(path, None)
        path.write_bytes(b"cat 1.0 2.0\n" + body + b"dog 1.0 \xe9\n")
        assert "is not UTF-8 text" in assert_matches_reference(path, None)


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
        assert [(r.word, r.token_id) for r in records] == [("racket", len(v)), ("zebra", len(v) + 1)]


    def test_manifest_equals_word_by_word_expansion(self, rng):
        v, m = trained_tiny_model(rng)
        words = ["Racket", "zebra", "axolotl"]
        table = EmbeddingTable(m.embed_dim, {w.lower(): rng.normal(size=m.embed_dim) for w in words})
        once, records = apply_expansion_manifest(m, words, table)
        folded, folded_records = m, []
        for word in words:
            folded, token_id = expand_vocab(folded, word, table[word])
            folded_records.append((word.lower(), token_id))
        assert once.w_e.tobytes() == folded.w_e.tobytes()
        assert once.vocab.tokens == folded.vocab.tokens
        assert [(r.word, r.token_id) for r in records] == folded_records

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
