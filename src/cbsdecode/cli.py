"""Command-line surface: compile constraints, decode, train scorers, expand
vocabularies, and evaluate, as reproducible batch runs.

One process handles one command. Exit codes: 0 success, 64 unknown command,
65 bad configuration, 66 data error, 70 numeric error; failures emit a
machine-readable JSON object on stderr. Log level comes from CBSDECODE_LOG.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import sys
from typing import Sequence

import click
import numpy as np

from . import embeddings as emb
from . import fsm as fsm_mod
from . import metrics, neural, scorers
from .errors import (
    CapacityError,
    CbsError,
    ConfigError,
    DataError,
    NumericError,
)
from .search import (
    SearchParams,
    decode_best,
    exhaustive_decode,
    phrase_machines,
)
from .files import read_lines
from .vocab import Vocabulary, tokenize

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_UNKNOWN_COMMAND = 64
EXIT_CONFIG = 65
EXIT_DATA = 66
EXIT_NUMERIC = 70


class _UnknownCommand(Exception):
    pass


class _Cli(click.Group):
    def resolve_command(self, ctx, args):
        try:
            return super().resolve_command(ctx, args)
        except click.UsageError:
            raise _UnknownCommand(args[0] if args else "")


@click.group(cls=_Cli)
def cli():
    """Constrained beam search decoding toolkit."""


# model / scorer loading


def _model_kind(path: str) -> str | None:
    """The `--scorer` kind a file's first bytes show: a neural checkpoint is a
    zip archive, an n-gram model a JSON object."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    return "neural" if head == b"PK" else "ngram" if head[:1] == b"{" else None


def _load_model(path: str, kind: str | None = None):
    """Load the model that `--scorer kind` reads; a file that is plainly the
    other kind is a data error. Where a command takes either kind (`compile`,
    `--scorer uniform`), the file's first bytes choose."""
    found = _model_kind(path)
    if kind not in ("ngram", "neural"):
        kind = found or "ngram"
    elif found not in (None, kind):
        raise DataError(f"{path} is a model for --scorer {found}, not --scorer {kind}")
    return neural.load_checkpoint(path) if kind == "neural" else scorers.NGramModel.load(path)


def _resolve_scorer(kind: str, model_path: str | None) -> tuple[scorers.Scorer, Vocabulary]:
    if model_path is None:
        raise ConfigError(f"--scorer {kind} requires --model")
    model = _load_model(model_path, kind)
    if kind == "uniform":
        return scorers.UniformScorer(len(model.vocab), eos=model.vocab.eos), model.vocab
    return model, model.vocab


def _load_spec(constraints: str | None, lemmas: str | None, vocab: Vocabulary):
    """The run's constraint spec; the empty spec, which `compile_spec` turns
    into the machine that accepts everything, when there is none."""
    lemma_map = fsm_mod.LemmaMap.load(lemmas) if lemmas else None
    if constraints is None:
        return fsm_mod.ConstraintSpec(fsm_mod.DisjunctiveConstraints(()))
    return fsm_mod.load_constraint_spec(constraints, vocab, lemmas=lemma_map)


def _json_object(path: str, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as e:
        raise DataError(f"{path}:{lineno}: invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise DataError(f"{path}:{lineno}: each line must be a JSON object")
    return obj


def _jsonl_objects(path: str):
    """Yield (lineno, object) for every non-blank line of a JSONL file."""
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if line:
            yield lineno, _json_object(path, lineno, line)


def _list_field(path: str, lineno: int, obj: dict, name: str, kinds: tuple[type, ...]) -> list:
    """obj[name], which must be a list whose items are all instances of
    `kinds` (booleans never count as numbers)."""
    if name not in obj:
        raise DataError(f"{path}:{lineno}: missing field {name!r}")
    value = obj[name]
    if not isinstance(value, list) or not all(
        isinstance(x, kinds) and not isinstance(x, bool) for x in value
    ):
        expected = " or ".join(k.__name__ for k in kinds)
        raise DataError(f"{path}:{lineno}: field {name!r} must be a list of {expected}")
    return value


def _read_inputs(path: str | None, scorer: scorers.Scorer) -> list[tuple]:
    """`(id, conditioning)` for every input line, all parsed first; then one
    warning when the scorer takes no conditioning and some lines carry
    `features` it ignores. A line's id defaults to its index."""
    if path is None:
        return [(0, None)]
    inputs = []
    for lineno, obj in _jsonl_objects(path):
        conditioning = None
        if "features" in obj:
            features = _list_field(path, lineno, obj, "features", (int, float))
            conditioning = np.asarray(features, dtype=np.float64)
        inputs.append((obj.get("id", len(inputs)), conditioning))
    if not inputs:
        raise DataError(f"input file {path} is empty")
    ignored = sum(conditioning is not None for _, conditioning in inputs)
    if ignored and not isinstance(scorer, neural.CaptionModel):
        logger.warning(
            "%d input lines of %s carry features, which the %s scorer ignores",
            ignored, path, type(scorer).__name__,
        )
    return inputs


def _write_lines(lines: Sequence[str], out: str | None) -> None:
    if out is None:
        for line in lines:
            click.echo(line)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            for line in lines:
                fh.write(line)
                fh.write("\n")


def _write_json(obj, out: str | None) -> None:
    _write_lines([json.dumps(obj, indent=2, sort_keys=True)], out)


def _result_line(item_id, result, vocab: Vocabulary, per_state: bool = False) -> str:
    """The JSONL line of one decoded input: its id, then the result."""
    return json.dumps({"id": item_id, **result.to_dict(vocab, per_state=per_state)})


# decode worker plumbing; module-level so multiprocessing can fork it

_WORK: dict = {}


def _decode_one_setup(scorer, vocab, machines, params, per_state):
    _WORK.update(
        scorer=scorer,
        vocab=vocab,
        machines=machines,
        params=params,
        per_state=per_state,
    )


def _decode_one(item: tuple) -> str:
    item_id, conditioning = item
    result = decode_best(_WORK["scorer"], _WORK["machines"], _WORK["params"], conditioning)
    return _result_line(item_id, result, _WORK["vocab"], _WORK["per_state"])


_SCORER_CHOICE = click.Choice(["ngram", "neural", "uniform"])


@cli.command("compile")
@click.option("--constraints", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--lemmas", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False))
def compile_constraints(constraints, model, lemmas, out):
    """Compile a constraint spec against a model's vocabulary; write the FSM
    dump as JSON."""
    vocab = _load_model(model).vocab
    spec = _load_spec(constraints, lemmas, vocab)
    machine = fsm_mod.compile_spec(spec, vocab)
    _write_json(machine.dump(), out)


@cli.command()
@click.option("--scorer", "scorer_kind", type=_SCORER_CHOICE, default="ngram", show_default=True)
@click.option("--model", type=click.Path(exists=True, dir_okay=False))
@click.option("--inputs", type=click.Path(exists=True, dir_okay=False))
@click.option("--constraints", type=click.Path(exists=True, dir_okay=False))
@click.option("--lemmas", type=click.Path(exists=True, dir_okay=False))
@click.option("--beam", default=5, show_default=True)
@click.option("--max-len", default=20, show_default=True)
@click.option("--no-repeat/--allow-repeat", default=True, show_default=True)
@click.option(
    "--phrase-mode",
    type=click.Choice(["all", "any"]),
    default="all",
    show_default=True,
    help="all: every phrase must appear (product machine); any: decode per "
    "phrase and keep the best accepted run",
)
@click.option("--emit-per-state", is_flag=True, help="include per-beam best hypotheses")
@click.option("--workers", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--out", type=click.Path(dir_okay=False))
def decode(
    scorer_kind,
    model,
    inputs,
    constraints,
    lemmas,
    beam,
    max_len,
    no_repeat,
    phrase_mode,
    emit_per_state,
    workers,
    out,
):
    """Decode each input under the constraint spec; write JSONL results in
    input order."""
    scorer, vocab = _resolve_scorer(scorer_kind, model)
    spec = _load_spec(constraints, lemmas, vocab)
    params = SearchParams(beam_size=beam, max_len=max_len, no_repeat=no_repeat)
    items = _read_inputs(inputs, scorer)
    if phrase_mode == "any" and spec.phrases:
        # one run per phrase, each within the spec's disjunctions
        base = None
        if spec.disjunctions.disjunctions:
            base = fsm_mod.compile_disjunctions(spec.disjunctions, len(vocab))
        machines = phrase_machines(spec.phrases, len(vocab), base)
    else:
        machines = [fsm_mod.compile_spec(spec, vocab)]
    setup = (scorer, vocab, machines, params, emit_per_state)
    if workers == 1 or len(items) == 1:
        _decode_one_setup(*setup)
        lines = [_decode_one(item) for item in items]
    else:
        with multiprocessing.Pool(
            processes=workers, initializer=_decode_one_setup, initargs=setup
        ) as pool:
            lines = pool.map(_decode_one, items)
    _write_lines(lines, out)


@cli.command()
@click.option("--scorer", "scorer_kind", type=_SCORER_CHOICE, default="ngram", show_default=True)
@click.option("--model", type=click.Path(exists=True, dir_okay=False))
@click.option("--inputs", type=click.Path(exists=True, dir_okay=False))
@click.option("--constraints", type=click.Path(exists=True, dir_okay=False))
@click.option("--lemmas", type=click.Path(exists=True, dir_okay=False))
@click.option("--max-len", default=6, show_default=True)
@click.option("--no-repeat/--allow-repeat", default=True, show_default=True)
@click.option("--limit", default=2_000_000, show_default=True, help="enumeration budget")
@click.option("--out", type=click.Path(dir_okay=False))
def oracle(scorer_kind, model, inputs, constraints, lemmas, max_len, no_repeat, limit, out):
    """Exhaustive filtered-argmax decode for tiny instances: enumerate every
    sequence up to --max-len and keep the best one the FSM accepts."""
    scorer, vocab = _resolve_scorer(scorer_kind, model)
    machine = fsm_mod.compile_spec(_load_spec(constraints, lemmas, vocab), vocab)
    params = SearchParams(max_len=max_len, no_repeat=no_repeat)
    lines = []
    for item_id, conditioning in _read_inputs(inputs, scorer):
        result = exhaustive_decode(scorer, machine, params, conditioning, limit=limit)
        lines.append(_result_line(item_id, result, vocab))
    _write_lines(lines, out)


@cli.command("train-ngram")
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--order", default=2, show_default=True)
@click.option("--alpha", default=1.0, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def train_ngram(corpus, order, alpha, out):
    """Train an additive-smoothing n-gram scorer from a plain-text corpus."""
    sequences, vocab = scorers.load_corpus(corpus)
    model = scorers.ngram_train(sequences, order=order, alpha=alpha, vocab=vocab)
    model.save(out)
    logger.info("trained order-%d model over %d tokens", order, len(vocab))


def _read_conditioning(path: str | None, count: int, cond_dim: int) -> list[np.ndarray | None]:
    if path is None:
        return [None] * count
    rows: list[np.ndarray | None] = []
    for lineno, obj in _jsonl_objects(path):
        features = _list_field(path, lineno, obj, "features", (int, float))
        vec = np.asarray(features, dtype=np.float64)
        if vec.shape != (cond_dim,):
            raise DataError(
                f"{path}:{lineno}: conditioning vector has {vec.shape[0]} "
                f"values, expected {cond_dim}"
            )
        rows.append(vec)
    if len(rows) != count:
        raise DataError(
            f"{path} has {len(rows)} conditioning vectors for {count} corpus sentences"
        )
    return rows


def _finite_positive(ctx, param, value: float) -> float:
    if not (np.isfinite(value) and value > 0):
        raise click.BadParameter(f"must be finite and > 0, got {value}")
    return value


@cli.command("train-lm")
@click.argument("corpus", type=click.Path(exists=True, dir_okay=False))
@click.option("--embeddings", "embeddings_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--conditioning", type=click.Path(exists=True, dir_okay=False))
@click.option("--hidden", default=32, show_default=True, type=click.IntRange(min=1))
@click.option("--cond-dim", default=2, show_default=True, type=click.IntRange(min=0))
@click.option("--epochs", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--lr", default=0.3, show_default=True, callback=_finite_positive)
@click.option("--batch-size", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def train_lm(corpus, embeddings_path, conditioning, hidden, cond_dim, epochs, lr, batch_size, seed, out):
    """Train the caption LSTM on a plain-text corpus with frozen file-supplied
    embeddings."""
    sequences, vocab = scorers.load_corpus(corpus)
    table, _ = emb.load_embeddings(embeddings_path, needed=vocab.tokens)
    rng = np.random.default_rng(seed)
    model = emb.build_caption_model(vocab, table, hidden, cond_dim, rng=rng)
    conds = _read_conditioning(conditioning, len(sequences), cond_dim)
    pairs = list(zip(sequences, conds))
    report = neural.train(
        model, pairs, lr=lr, epochs=epochs, batch_size=batch_size, seed=seed, log_every=25
    )
    neural.save_checkpoint(model, out, seed=seed)
    logger.info(
        "loss %.4f -> %.4f over %d epochs", report.initial, report.final, epochs
    )


@cli.command()
@click.option("--model", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--embeddings", "embeddings_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--manifest", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def expand(model, embeddings_path, manifest, out):
    """Apply an expansion manifest: append each word's embedding column and
    write the expanded checkpoint."""
    caption_model = neural.load_checkpoint(model)
    words = emb.load_expansion_manifest(manifest)
    table, missing = emb.load_embeddings(embeddings_path, needed=words)
    if missing:
        raise DataError(f"manifest words missing from the embedding file: {missing}")
    caption_model, records = emb.apply_expansion_manifest(caption_model, words, table)
    neural.save_checkpoint(caption_model, out)
    click.echo(
        json.dumps(
            {"expanded": [{"word": r.word, "token_id": r.token_id} for r in records]}
        )
    )


def _read_generated(path: str) -> list[tuple[str, ...]]:
    """Decode JSONL (uses the `text` field) or plain text, one caption per line."""
    captions = []
    for lineno, line in enumerate(read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("{"):
            obj = _json_object(path, lineno, line)
            if not isinstance(obj.get("text"), str):
                raise DataError(f"{path}:{lineno}: field 'text' must be a string")
            line = obj["text"]
        captions.append(tuple(tokenize(line)))
    return captions


def _read_references(path: str) -> list[tuple[tuple[str, ...], ...]]:
    return [
        tuple(tuple(tokenize(r)) for r in _list_field(path, lineno, obj, "references", (str,)))
        for lineno, obj in _jsonl_objects(path)
    ]


@cli.command("eval-f1")
@click.option("--generated", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--references", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--mentions", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False))
def eval_f1(generated, references, mentions, out):
    """Mention F1 of generated captions against references, per object and
    macro-averaged."""
    gen = _read_generated(generated)
    refs = _read_references(references)
    if len(gen) != len(refs):
        raise DataError(f"{len(gen)} generated captions but {len(refs)} reference rows")
    pairs = [metrics.EvalPair(g, r) for g, r in zip(gen, refs)]
    specs = metrics.load_mention_specs(mentions)
    report = metrics.macro_f1([(spec, pairs) for spec in specs])
    _write_json(report.to_dict(), out)


def _emit_error(category: str, message: str, code: int) -> None:
    payload = {"error": {"category": category, "message": message, "exit_code": code}}
    print(json.dumps(payload), file=sys.stderr)


def _configure_logging() -> None:
    level = os.environ.get("CBSDECODE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    try:
        cli.main(args=argv, standalone_mode=False)
        return EXIT_OK
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.exceptions.Abort:
        return 1
    except _UnknownCommand as e:
        _emit_error("unknown-command", f"no such command: {e}", EXIT_UNKNOWN_COMMAND)
        return EXIT_UNKNOWN_COMMAND
    except click.ClickException as e:
        _emit_error("config", e.format_message(), EXIT_CONFIG)
        return EXIT_CONFIG
    except (ConfigError, CapacityError) as e:
        _emit_error("config", str(e), EXIT_CONFIG)
        return EXIT_CONFIG
    except NumericError as e:
        _emit_error("numeric", str(e), EXIT_NUMERIC)
        return EXIT_NUMERIC
    except CbsError as e:
        _emit_error("data", str(e), EXIT_DATA)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
