import contextlib
import io
import json
import logging

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsdecode import NGramModel, Vocabulary, load_constraint_spec, tokenize
from cbsdecode.cli import main
from cbsdecode.fsm import compile_spec
from cbsdecode.neural import GATES, CaptionModel, save_checkpoint

RESULT_SCHEMA = {
    "type": "object",
    "required": ["id", "status", "tokens", "logprob", "text", "fsm_state", "satisfied_count"],
    "properties": {
        "status": {"enum": ["accepted", "fallback", "empty"]},
        "tokens": {"type": "array", "items": {"type": "integer"}},
        "logprob": {"type": ["number", "null"]},
        "text": {"type": "string"},
        "fsm_state": {"type": ["integer", "null"]},
        "satisfied_count": {"type": ["integer", "null"]},
        "per_state_best": {"type": "object"},
    },
}

CORPUS = """\
a man on a bus
a man on a chair
a table near a chair
the bus on the street
a chair and a table
the man near the table
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    (root / "corpus.txt").write_text(CORPUS, encoding="utf-8")
    (root / "constraints.json").write_text(
        json.dumps({"disjunctions": [["chair", "chairs"], ["table", "bus"]], "phrases": []})
    )
    (root / "empty.json").write_text(json.dumps({"disjunctions": [], "phrases": []}))
    (root / "lemmas.tsv").write_text("chair\tchairs\n", encoding="utf-8")
    code = main(
        ["train-ngram", str(root / "corpus.txt"), "--order", "2", "--alpha", "0.5",
         "--out", str(root / "model.json")]
    )
    assert code == 0
    return root


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("A Man on a Bus") == ["a", "man", "on", "a", "bus"]

    def test_collapses_whitespace(self):
        assert tokenize("  a\t b ") == ["a", "b"]

    def test_empty_line(self):
        assert tokenize("") == []

    @given(st.text(max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_modulo_case_and_runs(self, text):
        once = tokenize(text)
        assert tokenize(" ".join(once)) == once


class TestCompile:
    def test_dump_matches_direct_compilation(self, workdir):
        out = workdir / "fsm.json"
        code = main(
            ["compile", "--constraints", str(workdir / "constraints.json"),
             "--model", str(workdir / "model.json"),
             "--lemmas", str(workdir / "lemmas.tsv"), "--out", str(out)]
        )
        assert code == 0
        dump = json.loads(out.read_text())
        model = NGramModel.load(workdir / "model.json")
        from cbsdecode.fsm import LemmaMap

        spec = load_constraint_spec(
            workdir / "constraints.json", model.vocab,
            lemmas=LemmaMap.load(workdir / "lemmas.tsv"),
        )
        direct = compile_spec(spec, model.vocab)
        assert dump["num_states"] == direct.num_states == 4
        assert dump["accepting"] == sorted(direct.accepting)


class TestDecode:
    def run_decode(self, workdir, out_name, *extra):
        out = workdir / out_name
        code = main(
            ["decode", "--model", str(workdir / "model.json"), "--out", str(out), *extra]
        )
        assert code == 0
        return out.read_bytes()

    def test_lines_validate_and_accepted_passes_recompiled_fsm(self, workdir):
        raw = self.run_decode(
            workdir, "out.jsonl", "--constraints", str(workdir / "constraints.json"),
            "--max-len", "8", "--emit-per-state",
        )
        model = NGramModel.load(workdir / "model.json")
        spec = load_constraint_spec(workdir / "constraints.json", model.vocab)
        fsm = compile_spec(spec, model.vocab)
        for line in raw.decode().splitlines():
            obj = json.loads(line)
            jsonschema.validate(obj, RESULT_SCHEMA)
            if obj["status"] == "accepted":
                assert fsm.recognizes(obj["tokens"])
                assert obj["satisfied_count"] == 2

    def test_empty_spec_byte_identical_to_no_spec(self, workdir):
        with_empty = self.run_decode(
            workdir, "a.jsonl", "--constraints", str(workdir / "empty.json")
        )
        without = self.run_decode(workdir, "b.jsonl")
        assert with_empty == without

    def test_default_beam_size_is_five(self, workdir):
        from cbsdecode.cli import decode as decode_cmd

        beam_param = next(p for p in decode_cmd.params if p.name == "beam")
        assert beam_param.default == 5
        explicit = self.run_decode(workdir, "c.jsonl", "--beam", "5")
        default = self.run_decode(workdir, "d.jsonl")
        assert explicit == default

    def test_identical_configs_are_byte_identical(self, workdir):
        args = ("--constraints", str(workdir / "constraints.json"))
        first = self.run_decode(workdir, "e.jsonl", *args)
        second = self.run_decode(workdir, "f.jsonl", *args)
        assert first == second

    def test_workers_preserve_order_and_content(self, workdir):
        inputs = workdir / "inputs.jsonl"
        inputs.write_text("".join(json.dumps({"id": i}) + "\n" for i in range(6)))
        serial = self.run_decode(
            workdir, "g.jsonl", "--inputs", str(inputs),
            "--constraints", str(workdir / "constraints.json"),
        )
        parallel = self.run_decode(
            workdir, "h.jsonl", "--inputs", str(inputs),
            "--constraints", str(workdir / "constraints.json"), "--workers", "3",
        )
        assert serial == parallel
        ids = [json.loads(l)["id"] for l in serial.decode().splitlines()]
        assert ids == list(range(6))

    @pytest.mark.parametrize("command", ["decode", "oracle"])
    def test_machine_compiled_once_per_run(self, workdir, monkeypatch, command):
        from cbsdecode import fsm

        calls = []
        compile_once = fsm.compile_spec
        monkeypatch.setattr(fsm, "compile_spec", lambda *a: calls.append(a) or compile_once(*a))
        inputs = workdir / "five.jsonl"
        inputs.write_text("".join(json.dumps({"id": i}) + "\n" for i in range(5)))
        out = workdir / f"once-{command}.jsonl"
        code = main(
            [command, "--model", str(workdir / "model.json"), "--inputs", str(inputs),
             "--constraints", str(workdir / "constraints.json"), "--max-len", "4",
             "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 5
        assert len(calls) == 1

    def test_phrase_mode_any_compiles_each_phrase_once_per_run(self, workdir, monkeypatch):
        from cbsdecode import fsm, search

        calls = []

        def counted(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a: calls.append(name) or original(*a))

        for module, name in ((fsm, "compile_phrase"), (search, "compile_phrase"),
                             (fsm, "compile_disjunctions")):
            counted(module, name)
        spec = workdir / "two-phrases.json"
        spec.write_text(json.dumps(
            {"disjunctions": [["chair", "table"]], "phrases": [["a", "man"], ["the", "bus"]]}
        ))
        inputs = workdir / "five-any.jsonl"
        inputs.write_text("".join(json.dumps({"id": i}) + "\n" for i in range(5)))
        out = self.run_decode(
            workdir, "once-any.jsonl", "--inputs", str(inputs), "--constraints", str(spec),
            "--phrase-mode", "any", "--max-len", "6",
        )
        assert len(out.splitlines()) == 5
        assert sorted(calls) == ["compile_disjunctions", "compile_phrase", "compile_phrase"]

    def test_oracle_agrees_with_wide_beam(self, workdir):
        oracle_out = workdir / "oracle.jsonl"
        code = main(
            ["oracle", "--model", str(workdir / "model.json"),
             "--constraints", str(workdir / "constraints.json"),
             "--max-len", "5", "--out", str(oracle_out)]
        )
        assert code == 0
        wide = self.run_decode(
            workdir, "wide.jsonl", "--constraints", str(workdir / "constraints.json"),
            "--beam", "100000", "--max-len", "5",
        )
        a = json.loads(oracle_out.read_text().splitlines()[0])
        b = json.loads(wide.decode().splitlines()[0])
        assert a["tokens"] == b["tokens"]
        assert a["logprob"] == pytest.approx(b["logprob"], abs=1e-9)


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["exit_code"] == 64

    def test_bad_flag_is_config_error(self, workdir, capsys):
        assert main(["decode", "--model", str(workdir / "model.json"), "--beam", "zero"]) == 65
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "config"

    def test_missing_file_is_config_error(self, capsys):
        assert main(["decode", "--model", "/nonexistent/model.json"]) == 65
        capsys.readouterr()

    def test_unknown_constraint_word_is_data_error(self, workdir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"disjunctions": [["zebra"]]}))
        code = main(
            ["decode", "--model", str(workdir / "model.json"), "--constraints", str(bad)]
        )
        assert code == 66
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "data"

    def test_corrupt_model_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "model.json"
        bad.write_text("not json at all")
        assert main(["decode", "--model", str(bad)]) == 66
        capsys.readouterr()

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_overflowing_checkpoint_is_numeric_error(self, tmp_path, capsys, rng):
        """Finite parameters whose tied logits overflow to inf: the model
        emits a non-finite distribution (a non-finite parameter is a data
        error at load, in CHECKPOINT_DEFECTS)."""
        v = Vocabulary.from_tokens(["a", "b"])
        m = CaptionModel.build(v, rng.normal(size=(4, 3)), 3, 1, rng=rng)
        m.w_v[:], m.b_v[:], m.w_e[:] = 0.0, 3.0, 1e308
        path = tmp_path / "bad.npz"
        save_checkpoint(m, path)
        code = main(["decode", "--scorer", "neural", "--model", str(path)])
        assert code == 70
        assert json.loads(capsys.readouterr().err)["error"]["category"] == "numeric"

    def test_missing_scorer_model_is_config_error(self, capsys):
        assert main(["decode", "--scorer", "uniform"]) == 65
        capsys.readouterr()


class TestEvalF1:
    def test_end_to_end_report(self, tmp_path):
        gen = tmp_path / "gen.txt"
        gen.write_text("a racket\na racquet\na racket\na court\n")
        refs = tmp_path / "refs.jsonl"
        rows = [
            {"references": ["the racket"]},
            {"references": ["a racquet on court"]},
            {"references": ["a tennis court"]},
            {"references": ["a racket on a court"]},
        ]
        refs.write_text("".join(json.dumps(r) + "\n" for r in rows))
        mentions = tmp_path / "mentions.json"
        mentions.write_text(
            json.dumps({"object": "racket", "mentions": ["racket", "rackets", "racquet"]})
        )
        out = tmp_path / "report.json"
        code = main(
            ["eval-f1", "--generated", str(gen), "--references", str(refs),
             "--mentions", str(mentions), "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["per_object"]["racket"]["f1"] == pytest.approx(2 / 3)
        assert report["macro"]["f1"] == pytest.approx(2 / 3)

    def test_decode_jsonl_accepted_as_generated(self, workdir, tmp_path):
        decode_out = tmp_path / "dec.jsonl"
        assert main(["decode", "--model", str(workdir / "model.json"), "--out", str(decode_out)]) == 0
        refs = tmp_path / "refs.jsonl"
        refs.write_text(json.dumps({"references": ["a chair"]}) + "\n")
        mentions = tmp_path / "m.json"
        mentions.write_text(json.dumps({"object": "chair", "mentions": ["chair"]}))
        code = main(
            ["eval-f1", "--generated", str(decode_out), "--references", str(refs),
             "--mentions", str(mentions), "--out", str(tmp_path / "r.json")]
        )
        assert code == 0


class TestTrainAndExpand:
    def write_embeddings(self, path, words, dim, rng):
        with open(path, "w", encoding="utf-8") as fh:
            for w in sorted(set(words)) + ["<eos>"]:
                vals = " ".join(repr(float(x)) for x in rng.normal(size=dim))
                fh.write(f"{w} {vals}\n")

    def test_train_expand_decode_cycle(self, tmp_path, rng):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\nthe dog ran\nthe cat ran\n")
        words = ["the", "cat", "sat", "dog", "ran", "zebra"]
        emb = tmp_path / "emb.txt"
        self.write_embeddings(emb, words, dim=8, rng=rng)
        ckpt = tmp_path / "lm.npz"
        code = main(
            ["train-lm", str(corpus), "--embeddings", str(emb), "--hidden", "6",
             "--cond-dim", "2", "--epochs", "30", "--lr", "0.4", "--seed", "1",
             "--out", str(ckpt)]
        )
        assert code == 0
        manifest = tmp_path / "exp.json"
        manifest.write_text(json.dumps([{"word": "zebra", "source": "embedding-file"}]))
        expanded = tmp_path / "lm2.npz"
        code = main(
            ["expand", "--model", str(ckpt), "--embeddings", str(emb),
             "--manifest", str(manifest), "--out", str(expanded)]
        )
        assert code == 0
        constraints = tmp_path / "c.json"
        constraints.write_text(json.dumps({"disjunctions": [["zebra"]]}))
        # pre-expansion the constraint word is unknown
        assert main(
            ["decode", "--scorer", "neural", "--model", str(ckpt),
             "--constraints", str(constraints)]
        ) == 66
        out = tmp_path / "out.jsonl"
        code = main(
            ["decode", "--scorer", "neural", "--model", str(expanded),
             "--constraints", str(constraints), "--max-len", "8", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text().splitlines()[0])
        assert obj["status"] == "accepted"
        assert "zebra" in obj["text"].split()

    def test_neural_decode_of_expanded_model_same_bytes_for_any_workers(self, tmp_path, rng):
        words = ["the", "cat", "sat", "dog", "ran"]
        emb = tmp_path / "emb.txt"
        self.write_embeddings(emb, words + ["zebra", "yak"], dim=8, rng=rng)
        v = Vocabulary.from_tokens(words)
        ckpt, expanded = tmp_path / "lm.npz", tmp_path / "lm2.npz"
        save_checkpoint(CaptionModel.build(v, rng.normal(size=(8, len(v))), 6, 2, rng=rng), ckpt)
        manifest = tmp_path / "exp.json"
        manifest.write_text(json.dumps(
            [{"word": w, "source": "embedding-file"} for w in ("zebra", "yak")]
        ))
        assert main(
            ["expand", "--model", str(ckpt), "--embeddings", str(emb),
             "--manifest", str(manifest), "--out", str(expanded)]
        ) == 0
        inputs = tmp_path / "inputs.jsonl"
        inputs.write_text("".join(
            json.dumps({"id": i, "features": rng.normal(size=2).tolist()}) + "\n"
            for i in range(6)
        ))
        constraints = tmp_path / "c.json"
        constraints.write_text(json.dumps({"disjunctions": [["zebra", "yak"], ["cat"]]}))
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"out{workers}.jsonl"
            assert main(
                ["decode", "--scorer", "neural", "--model", str(expanded),
                 "--inputs", str(inputs), "--constraints", str(constraints),
                 "--beam", "3", "--max-len", "6", "--workers", str(workers),
                 "--out", str(out)]
            ) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert [json.loads(line)["id"] for line in outputs[0].splitlines()] == list(range(6))

    def test_train_lm_missing_embedding_word_fails(self, tmp_path, rng, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat\n")
        emb = tmp_path / "emb.txt"
        self.write_embeddings(emb, ["the", "cat"], dim=4, rng=rng)  # no "sat"
        code = main(
            ["train-lm", str(corpus), "--embeddings", str(emb),
             "--epochs", "1", "--out", str(tmp_path / "x.npz")]
        )
        assert code == 66
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert payload["category"] == "data"
        assert payload["message"] == "1 vocabulary words have no embedding: ['sat']"
        assert not (tmp_path / "x.npz").exists()


@pytest.mark.parametrize("scorer", ["ngram", "uniform"])
@pytest.mark.parametrize("command", ["decode", "oracle"])
def test_ignored_features_warn_once_per_run(workdir, tmp_path, caplog, capsys, command, scorer):
    lines = [{"id": 0, "features": [0.5]}, {"id": 1}, {"id": 2, "features": [1.0, -2.0]}]
    with_features = tmp_path / "features.jsonl"
    with_features.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
    plain = tmp_path / "plain.jsonl"
    plain.write_text("".join(json.dumps({"id": obj["id"]}) + "\n" for obj in lines))
    stdout, warnings = [], []
    for inputs in (with_features, plain):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="cbsdecode.cli"):
            assert main([command, "--scorer", scorer, "--model", str(workdir / "model.json"),
                         "--inputs", str(inputs), "--max-len", "4"]) == 0
        stdout.append(capsys.readouterr().out)
        warnings.append([r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING])
    assert stdout[0] == stdout[1] and len(stdout[0].splitlines()) == 3
    assert len(warnings[0]) == 1 and warnings[0][0].startswith("2 input lines ")
    assert "features" in warnings[0][0] and warnings[1] == []


class TestMultiPhraseFlag:
    def test_any_mode_picks_best_phrase_run(self, workdir):
        spec = workdir / "phrases.json"
        spec.write_text(
            json.dumps({"disjunctions": [], "phrases": [["the", "street"], ["a", "chair"]]})
        )
        out = workdir / "any.jsonl"
        code = main(
            ["decode", "--model", str(workdir / "model.json"), "--constraints", str(spec),
             "--phrase-mode", "any", "--max-len", "8", "--out", str(out)]
        )
        assert code == 0
        obj = json.loads(out.read_text().splitlines()[0])
        assert obj["status"] == "accepted"
        text = obj["text"]
        assert "the street" in text or "a chair" in text


# (command, file kind, defect, bad line); the defect sits on line 2
MALFORMED_JSONL = [
    ("decode", "inputs", "features not a list", '{"id": 1, "features": "abc"}'),
    ("train-lm", "conditioning", "invalid JSON", '{"features": [0.1, '),
    ("train-lm", "conditioning", "not an object", "[0.1, 0.2]"),
    ("train-lm", "conditioning", "missing features", '{"id": 3}'),
    ("train-lm", "conditioning", "features not numbers", '{"features": ["a", "b"]}'),
    ("eval-f1", "references", "invalid JSON", '{"references": ["a chair"'),
    ("eval-f1", "references", "not an object", '"a chair"'),
    ("eval-f1", "references", "missing references", '{"refs": ["a chair"]}'),
    ("eval-f1", "references", "references not strings", '{"references": [1, 2]}'),
    ("eval-f1", "generated", "invalid JSON", '{"text": "a chair'),
    ("eval-f1", "generated", "missing text", '{"tokens": [1, 2]}'),
    ("eval-f1", "generated", "text not a string", '{"text": ["a", "chair"]}'),
]


@pytest.mark.parametrize(
    "command,kind,defect,bad_line",
    MALFORMED_JSONL,
    ids=[f"{c}-{k}-{d}" for c, k, d, _ in MALFORMED_JSONL],
)
def test_malformed_jsonl_is_data_error_naming_the_line(
    workdir, tmp_path, capsys, command, kind, defect, bad_line
):
    good = {
        "inputs": '{"id": 0, "features": [0.5, 0.5]}',
        "conditioning": '{"features": [0.5, 0.5]}',
        "references": '{"references": ["a chair"]}',
        "generated": '{"text": "a chair"}',
    }
    files = {}
    for name, line in good.items():
        files[name] = tmp_path / f"{name}.jsonl"
        files[name].write_text(line + "\n" + line + "\n")
    bad = files[kind]
    bad.write_text(good[kind] + "\n" + bad_line + "\n")
    if command == "decode":
        argv = ["decode", "--model", str(workdir / "model.json"), "--inputs", str(bad)]
    elif command == "train-lm":
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a chair\na table\n")
        emb = tmp_path / "emb.txt"
        emb.write_text("".join(f"{w} 0.1 -0.2 0.3\n" for w in ("a", "chair", "table", "<eos>")))
        argv = ["train-lm", str(corpus), "--embeddings", str(emb), "--conditioning", str(bad),
                "--hidden", "2", "--cond-dim", "2", "--epochs", "1",
                "--out", str(tmp_path / "lm.npz")]
    else:
        mentions = tmp_path / "m.json"
        mentions.write_text(json.dumps({"object": "chair", "mentions": ["chair"]}))
        argv = ["eval-f1", "--generated", str(files["generated"]),
                "--references", str(files["references"]), "--mentions", str(mentions)]
    assert main(argv) == 66
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    payload = json.loads(err[0])["error"]
    assert payload["category"] == "data"
    assert f"{bad}:2:" in payload["message"]


# every (command, file option) pair that reads a text or JSON file; the
# corpus of train-ngram and train-lm is their first argument
TEXT_FILE_OPTIONS = [
    (command, option)
    for command in ("compile", "decode", "oracle")
    for option in ("model", "constraints", "lemmas", "inputs")
    if (command, option) != ("compile", "inputs")
] + [
    ("train-ngram", "corpus"),
    ("train-lm", "corpus"), ("train-lm", "embeddings"), ("train-lm", "conditioning"),
    ("expand", "embeddings"), ("expand", "manifest"),
    ("eval-f1", "generated"), ("eval-f1", "references"), ("eval-f1", "mentions"),
]

_NGRAM_HEAD = {"format": "cbsdecode-ngram", "version": 1, "order": 2, "alpha": 1.0, "eos": "<eos>"}


def _ngram_with(path, value):
    """A mutation of the valid n-gram dump's bytes: the entry at `path` (keys
    and list indices) set to `value`. Its vocabulary is the 11 words of
    CORPUS, and its contexts are [-1], [0], [1], ... [9] in order, so
    "contexts", 9 is the context [8] with its one continuation <eos> (id 10)."""
    def mutate(valid: bytes) -> bytes:
        dump = json.loads(valid)
        entry = dump
        for key in path[:-1]:
            entry = entry[key]
        entry[path[-1]] = value
        return json.dumps(dump).encode()
    return mutate


# (defect, mutation, what the message must say): each n-gram dump whose ids or
# counts `ngram_train` could not have written
NGRAM_DUMP_DEFECTS = [
    ("continuation id |V|", _ngram_with(["contexts", 1, 2, 0, 0], 11),
     "n-gram continuation id 11 out of range for |V|=11"),
    ("continuation id -1", _ngram_with(["contexts", 1, 2, 0, 0], -1),
     "n-gram continuation id -1 out of range for |V|=11"),
    ("context of two ids", _ngram_with(["contexts", 1, 0], [0, 0]),
     "n-gram context [0, 0] is not a list of 1 token ids"),
    ("context id |V|", _ngram_with(["contexts", 1, 0], [11]),
     "n-gram context token id 11 out of range for |V|=11"),
    ("context id -2", _ngram_with(["contexts", 1, 0], [-2]),
     "n-gram context token id -2 out of range for |V|=11"),
    ("repeated context", _ngram_with(["contexts", 10], [[8], 1, [[10, 1]]]),
     "n-gram context [8] is listed twice"),
    ("repeated token in a context", _ngram_with(["contexts", 9], [[8], 2, [[10, 1], [10, 1]]]),
     "n-gram context [8] lists token 10 twice"),
    ("order true", _ngram_with(["order"], True), "n-gram order must be an integer >= 1, got True"),
    ("count a string", _ngram_with(["contexts", 1, 2, 0, 1], "2"), "n-gram count '2' is not an integer"),
    ("count negative", _ngram_with(["contexts", 1, 2, 0, 1], -2), "n-gram count -2 is not >= 1"),
    ("total negative", _ngram_with(["contexts", 1, 1], -8),
     "n-gram context [0] total -8 is not the sum of its counts, 8"),
    ("count true", _ngram_with(["contexts", 1, 2, 0, 1], True), "n-gram count True is not an integer"),
    ("count 0", _ngram_with(["contexts", 1, 2, 0, 1], 0), "n-gram count 0 is not >= 1"),
    ("total 1000 for 3", _ngram_with(["contexts", 2, 1], 1000),
     "n-gram context [1] total 1000 is not the sum of its counts, 3"),
]

# (command, file option, defect, file content, what the message must say):
# JSON documents that parse but have the wrong shape
WRONG_SHAPE = [
    ("decode", "model", "model is a list", "[]", "not an n-gram model"),
    ("decode", "model", "model has no vocab", json.dumps({**_NGRAM_HEAD, "contexts": []}),
     "vocab"),
    ("decode", "model", "context with two fields",
     json.dumps({**_NGRAM_HEAD, "vocab": ["a", "<eos>"], "contexts": [[[-1], 3]]}),
     "malformed n-gram model"),
    ("decode", "model", "order is a float",
     json.dumps({**_NGRAM_HEAD, "order": 1.0, "vocab": ["a", "<eos>"], "contexts": []}), "n-gram order"),
    ("eval-f1", "mentions", "mention spec is a string", '"chair"', "mention spec"),
    ("eval-f1", "mentions", "mentions not a list", '{"object": "chair", "mentions": 5}',
     "list of mentions"),
    ("decode", "constraints", "phrase is a number", '{"phrases": [5]}',
     "each phrase must be a list of words"),
    ("decode", "constraints", "phrase is a string", '{"phrases": ["chair"]}',
     "each phrase must be a list of words"),
    ("decode", "constraints", "disjunction is a string", '{"disjunctions": ["chair"]}',
     "each disjunction must be a list of words"),
    # a word that is not a JSON string is a data error, never made a word (null as "none")
    ("decode", "constraints", "phrase word null", '{"phrases": [["a", null]]}',
     "each phrase must be a list of words"),
    ("decode", "constraints", "disjunction word a number", '{"disjunctions": [["chair", 5]]}',
     "each disjunction must be a list of words"),
    ("expand", "manifest", "manifest word null", '[{"word": null, "source": "embedding-file"}]',
     "needs a 'word' string"),
    ("eval-f1", "mentions", "mention null", '{"object": "chair", "mentions": ["chair", null]}',
     "list of mentions"),
    ("eval-f1", "mentions", "object null", '{"object": null, "mentions": ["chair"]}',
     "object must be a string"),
] + [("decode", "model", defect, mutation, says) for defect, mutation, says in NGRAM_DUMP_DEFECTS]


@pytest.fixture(scope="module")
def valid_files(workdir, tmp_path_factory):
    """One valid file per option of TEXT_FILE_OPTIONS, plus the neural
    checkpoint that `expand` reads."""
    root = tmp_path_factory.mktemp("valid-files")
    texts = {
        "model": (workdir / "model.json").read_text(encoding="utf-8"),
        "constraints": json.dumps({"disjunctions": [["chair"]], "phrases": [["a", "man"]]}),
        "lemmas": "chair\tchairs\n",
        "inputs": '{"id": 0, "features": [0.5, 0.5]}\n{"id": 1, "features": [0.1, -0.2]}\n',
        "corpus": "a chair\na table\n",
        "embeddings": "".join(
            f"{w} 0.1 -0.2 0.3\n" for w in ("a", "chair", "table", "<eos>", "stool")
        ),
        "conditioning": '{"features": [0.5, 0.5]}\n{"features": [0.1, -0.2]}\n',
        "manifest": json.dumps([{"word": "stool", "source": "embedding-file"}]),
        "generated": '{"text": "a chair"}\nthe table\n',
        "references": '{"references": ["a chair"]}\n{"references": ["a table"]}\n',
        "mentions": json.dumps({"object": "chair", "mentions": ["chair"]}),
    }
    files = {}
    for option, text in texts.items():
        files[option] = root / option
        files[option].write_text(text, encoding="utf-8")
    v = Vocabulary.from_tokens(["a", "chair", "table"])
    files["checkpoint"] = root / "lm.npz"
    save_checkpoint(CaptionModel.build(v, np.full((3, len(v)), 0.1), 2, 2), files["checkpoint"])
    return files


def _argv(command, files, out, neural=False):
    f = {name: str(path) for name, path in files.items()}
    if command in ("compile", "decode", "oracle"):
        model = ["--scorer", "neural", "--model", f["checkpoint"]] if neural else ["--model", f["model"]]
        argv = [command, *model, "--constraints", f["constraints"],
                "--lemmas", f["lemmas"], "--out", out]
        return argv if command == "compile" else argv + ["--inputs", f["inputs"], "--max-len", "3"]
    if command == "train-ngram":
        return ["train-ngram", f["corpus"], "--out", out]
    if command == "train-lm":
        return ["train-lm", f["corpus"], "--embeddings", f["embeddings"],
                "--conditioning", f["conditioning"], "--hidden", "2", "--epochs", "1",
                "--out", out]
    if command == "expand":
        return ["expand", "--model", f["checkpoint"], "--embeddings", f["embeddings"],
                "--manifest", f["manifest"], "--out", out]
    return ["eval-f1", "--generated", f["generated"], "--references", f["references"],
            "--mentions", f["mentions"], "--out", out]


@pytest.mark.parametrize("command", sorted({c for c, _ in TEXT_FILE_OPTIONS}))
def test_valid_files_run(valid_files, tmp_path, capsys, command):
    assert main(_argv(command, valid_files, str(tmp_path / "out"))) == 0
    assert capsys.readouterr().err == ""


def _checkpoint_with(meta=None, **arrays):
    """A mutation of a valid checkpoint's bytes: `meta` maps its meta object
    to the new one, and each of `arrays` maps the named array to its new one."""
    def mutate(valid: bytes) -> bytes:
        with np.load(io.BytesIO(valid)) as data:
            entries = dict(data)
        if meta is not None:
            entries["__meta__"] = np.array(json.dumps(meta(json.loads(str(entries["__meta__"][()])))))
        for name, change in arrays.items():
            entries[name] = change(entries[name])
        out = io.BytesIO()
        np.savez(out, **entries)
        return out.getvalue()
    return mutate


def _per_gate_v1(valid: bytes) -> bytes:
    """A valid checkpoint rewritten in the version-1 layout, which kept each
    gate of each LSTM layer apart: w_x<gate> (N x K), w_h<gate> (N x N) and
    b_<gate>, in place of one weight block and one bias per layer."""
    with np.load(io.BytesIO(valid)) as data:
        entries = dict(data)
    meta = json.loads(str(entries["__meta__"][()]))
    entries["__meta__"] = np.array(json.dumps({**meta, "version": 1}))
    for prefix in ("layer1", "layer2"):
        w, b = entries.pop(f"{prefix}.w"), entries.pop(f"{prefix}.b")
        n = len(b) // 4
        for r, gate in enumerate(GATES):
            rows = slice(r * n, (r + 1) * n)
            entries[f"{prefix}.w_x{gate}"] = w[rows, : w.shape[1] - n]
            entries[f"{prefix}.w_h{gate}"] = w[rows, w.shape[1] - n :]
            entries[f"{prefix}.b_{gate}"] = b[rows]
    out = io.BytesIO()
    np.savez(out, **entries)
    return out.getvalue()


def _first_set_to(value):
    """An array mutation: a copy of the array with its first entry `value`."""
    def change(a):
        a = a.copy()
        a.flat[0] = value
        return a
    return change


# (defect, the slice of a valid checkpoint's bytes or a mutation of them, what
# the message must say), each read by `expand` and by `decode`, which reads
# its model as a checkpoint with `--scorer neural` whatever its first bytes are
CHECKPOINT_DEFECTS = [
    (command, "checkpoint", defect, content, says)
    for command in ("expand", "decode")
    for defect, content, says in [
        ("truncated checkpoint", slice(0, 100), "cannot read checkpoint"),
        ("empty checkpoint", slice(0, 0), "cannot read checkpoint"),
        ("meta a JSON list", _checkpoint_with(meta=list), "not a caption model checkpoint"),
        ("meta a JSON number", _checkpoint_with(meta=lambda m: 3), "not a caption model checkpoint"),
        ("vocab a number", _checkpoint_with(meta=lambda m: {**m, "vocab": 7}),
         "vocabulary must be a list of words"),
        ("b_v of strings", _checkpoint_with(b_v=lambda a: a.astype(str)), "b_v is not a real numeric array"),
        ("w_v all NaN", _checkpoint_with(w_v=lambda a: np.full_like(a, np.nan)),
         "w_v holds a value that is not finite"),
        ("one +inf in w_e", _checkpoint_with(w_e=_first_set_to(np.inf)), "w_e holds a value that is not finite"),
        ("NaN in start_embedding", _checkpoint_with(start_embedding=_first_set_to(np.nan)),
         "start_embedding holds a value that is not finite"),
        ("version the string '2'", _checkpoint_with(meta=lambda m: {**m, "version": "2"}),
         "unsupported checkpoint version '2'"),
        ("version true", _checkpoint_with(meta=lambda m: {**m, "version": True}),
         "unsupported checkpoint version True"),
        ("version 1", _per_gate_v1, "unsupported checkpoint version 1"),
    ]
]

MALFORMED_FILES = (
    [(c, o, "not UTF-8", None, "not UTF-8") for c, o in TEXT_FILE_OPTIONS]
    + WRONG_SHAPE
    + CHECKPOINT_DEFECTS
)


@pytest.mark.parametrize(
    "command,option,defect,content,says",
    MALFORMED_FILES,
    ids=[f"{c}-{o}-{d}" for c, o, d, _, _ in MALFORMED_FILES],
)
def test_malformed_file_is_data_error(
    valid_files, tmp_path, capsys, command, option, defect, content, says
):
    """A file that is not UTF-8 (one Latin-1 byte in the middle of valid
    content), JSON of the wrong shape, or a truncated, empty or malformed
    checkpoint (`decode` reads it with `--scorer neural`) ends in exit 66
    with one JSON error object on stderr that names the file and the
    problem."""
    bad = tmp_path / f"bad-{option}"
    valid = valid_files[option].read_bytes()
    if content is None:
        bad.write_bytes(valid[: len(valid) // 2] + "é".encode("latin-1") + valid[len(valid) // 2:])
    elif isinstance(content, slice):
        bad.write_bytes(valid[content])
    elif callable(content):
        bad.write_bytes(content(valid))
    else:
        bad.write_text(content, encoding="utf-8")
    files = {**valid_files, option: bad}
    assert main(_argv(command, files, str(tmp_path / "out"), neural=option == "checkpoint")) == 66
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])["error"]
    assert payload["category"] == "data" and payload["exit_code"] == 66
    assert str(bad) in payload["message"] and says in payload["message"]


@pytest.mark.parametrize("scorer, option, says", [
    ("neural", "model", "is a model for --scorer ngram, not --scorer neural"),
    ("ngram", "checkpoint", "is a model for --scorer neural, not --scorer ngram"),
])
def test_model_of_the_other_kind_is_data_error(valid_files, tmp_path, capsys, scorer, option, says):
    """`decode` loads `--model` as the kind `--scorer` names, so a model file
    of the other kind is a data error about that file."""
    path = str(valid_files[option])
    argv = ["decode", "--scorer", scorer, "--model", path, "--inputs", str(valid_files["inputs"]),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 66
    payload = json.loads(capsys.readouterr().err)["error"]
    assert path in payload["message"] and says in payload["message"]


@pytest.mark.parametrize("neural", [False, True], ids=["ngram", "neural"])
@pytest.mark.parametrize("command", ["decode", "oracle"])
@pytest.mark.parametrize("features", ['"0.5"', "null", "[true, 0.5]", '{"x": 0.5}', "[[0.5], 0.5]"])
def test_wrong_typed_features_is_data_error(valid_files, tmp_path, capsys, command, neural, features):
    """A `features` field that is not a list of numbers, on line 2 of an
    inputs file whose line 1 is valid, ends in exit 66 naming the line, for
    either scorer."""
    bad = tmp_path / "inputs.jsonl"
    first = valid_files["inputs"].read_text(encoding="utf-8").splitlines()[0]
    bad.write_text(f'{first}\n{{"id": 1, "features": {features}}}\n', encoding="utf-8")
    # a spec in the words of the checkpoint's vocabulary too
    spec = tmp_path / "spec.json"
    spec.write_text('{"disjunctions": [["chair"]]}', encoding="utf-8")
    files = {**valid_files, "inputs": bad, "constraints": spec}
    argv = _argv(command, files, str(tmp_path / "out"), neural=neural)
    assert main(argv) == 66
    payload = _one_error_object(capsys.readouterr().err)
    assert payload["category"] == "data" and f"{bad}:2: field 'features'" in payload["message"]


def _one_error_object(err: str) -> dict:
    """The error payload of a failed run: stderr holds exactly one JSON
    object and no traceback."""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


@pytest.mark.parametrize("option, value", [
    ("--hidden", "0"), ("--hidden", "-1"), ("--seed", "-1"), ("--cond-dim", "-1"), ("--epochs", "-1"),
    ("--batch-size", "0"), ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-1"), ("--lr", "0"),
])
def test_train_lm_out_of_range_value_is_config_error(valid_files, tmp_path, capsys, option, value):
    argv = _argv("train-lm", valid_files, str(tmp_path / "lm.npz")) + [option, value]
    assert main(argv) == 65
    payload = _one_error_object(capsys.readouterr().err)
    assert payload["category"] == "config" and option in payload["message"]
    assert not (tmp_path / "lm.npz").exists()


@pytest.mark.parametrize("batch_size", ["1", "3"])
@pytest.mark.parametrize("defect, line, says", [
    ("wrong shape", '{"features": [0.5, 0.5, 0.5]}',
     "{path}:20: conditioning vector has 3 values, expected 2"),
    ("NaN", '{"features": [NaN, 0.5]}', "conditioning vector contains non-finite values"),
    ("infinity", '{"features": [0.5, -Infinity]}', "conditioning vector contains non-finite values"),
])
def test_train_lm_bad_last_conditioning_vector(valid_files, tmp_path, capsys, defect, line, says, batch_size):
    """The conditioning vector of the corpus's last sentence, of the wrong
    shape or not finite, ends `train-lm` in exit 66 with the message it gave
    when the loss pass ran in corpus order, whatever the batch size. (An
    empty sequence or an out-of-range token id cannot come from a text
    corpus: blank lines are dropped and the vocabulary is the corpus's.)"""
    rng = np.random.default_rng(20)
    words = ("a", "chair", "table")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(
        " ".join(rng.choice(words, size=n)) + "\n" for n in rng.integers(1, 8, size=20)
    ))
    conditioning = tmp_path / "conditioning.jsonl"
    conditioning.write_text('{"features": [0.5, -0.5]}\n' * 19 + line + "\n")
    out = tmp_path / "lm.npz"
    argv = _argv("train-lm", {**valid_files, "corpus": corpus, "conditioning": conditioning},
                 str(out)) + ["--batch-size", batch_size]
    assert main(argv) == 66
    payload = _one_error_object(capsys.readouterr().err)
    assert payload["category"] == "data"
    assert payload["message"] == says.format(path=conditioning)
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-2"])
def test_decode_workers_below_one_is_config_error(valid_files, tmp_path, capsys, value):
    assert main(_argv("decode", valid_files, str(tmp_path / "out")) + ["--workers", value]) == 65
    payload = _one_error_object(capsys.readouterr().err)
    assert payload["category"] == "config" and "--workers" in payload["message"]


@pytest.mark.parametrize("entry", ["train-ngram --alpha inf", "n-gram dump with alpha 1e999"])
def test_infinite_alpha_is_data_error(workdir, tmp_path, capsys, entry):
    """An infinite smoothing constant makes every log-probability NaN, so
    both ways to reach one end in exit 66."""
    out = tmp_path / "out"
    if entry.startswith("train-ngram"):
        argv = ["train-ngram", str(workdir / "corpus.txt"), "--alpha", "inf", "--out", str(out)]
    else:
        text = (workdir / "model.json").read_text(encoding="utf-8")
        assert '"alpha": 0.5,' in text
        bad = tmp_path / "model.json"
        bad.write_text(text.replace('"alpha": 0.5,', '"alpha": 1e999,'), encoding="utf-8")
        argv = ["decode", "--model", str(bad), "--out", str(out)]
    assert main(argv) == 66
    payload = _one_error_object(capsys.readouterr().err)
    assert payload["category"] == "data" and "smoothing constant" in payload["message"]
    assert not out.exists()


# any JSON value: what a mutation puts in place of a document, a line or a field
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """`valid` emptied, truncated at a drawn byte, or with the whole document,
    one line, or one field of a JSON line replaced by a drawn JSON value."""
    kind = draw(st.sampled_from(["empty", "truncated", "document", "line", "field"]))
    if kind == "empty":
        return b""
    if kind == "truncated":
        return valid[: draw(st.integers(0, len(valid) - 1))]
    value = draw(_JSON_VALUES)
    if kind == "document":
        return json.dumps(value).encode()
    lines = valid.decode("utf-8").splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    try:
        obj = json.loads(lines[i])
    except json.JSONDecodeError:
        obj = None
    if kind == "field" and isinstance(obj, dict) and obj:
        obj[draw(st.sampled_from(sorted(obj)))] = value
    elif kind == "field" and isinstance(obj, list) and obj:
        obj[draw(st.integers(0, len(obj) - 1))] = value
    else:
        obj = value
    lines[i] = json.dumps(obj)
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutations")


@pytest.mark.parametrize(
    "command, option", TEXT_FILE_OPTIONS, ids=[f"{c}-{o}" for c, o in TEXT_FILE_OPTIONS]
)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_file_ends_in_a_known_exit(valid_files, mutation_dir, command, option, data):
    """Every file a command reads, mutated: the run succeeds or fails with
    exit 65, 66 or 70 and one JSON error object on stderr, never a
    traceback."""
    bad = mutation_dir / option
    bad.write_bytes(data.draw(_mutated(valid_files[option].read_bytes()), label="content"))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(_argv(command, {**valid_files, option: bad}, str(mutation_dir / "out")))
    assert code in (0, 65, 66, 70)
    if code:
        assert _one_error_object(err.getvalue())["exit_code"] == code
