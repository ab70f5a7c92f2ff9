"""Fixed pretrained word embeddings: file ingestion, binding to a model
vocabulary, and test-time vocabulary expansion by column concatenation.

The text format is one entry per line, `word v1 v2 ... vD`, space-separated
UTF-8 (the layout used by the common 300-dimensional pretrained tables, which
can run to millions of lines, hence the streaming parse). Words are matched
after lower-casing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .files import in_file, read_json, read_lines
from .neural import CaptionModel
from .vocab import Vocabulary

logger = logging.getLogger(__name__)


class EmbeddingTable:
    """Immutable word -> vector map; every vector has the same dimension."""

    def __init__(self, dim: int, vectors: Mapping[str, np.ndarray]):
        self.dim = dim
        self.vectors: dict[str, np.ndarray] = {}
        for word, vec in vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (dim,):
                raise DataError(f"vector for {word!r} has shape {vec.shape}, expected ({dim},)")
            if not np.isfinite(vec).all():
                raise DataError(f"vector for {word!r} contains non-finite values")
            self.vectors[word] = vec

    def __contains__(self, word: str) -> bool:
        return word.lower() in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, word: str) -> np.ndarray:
        try:
            return self.vectors[word.lower()]
        except KeyError:
            raise DataError(f"word {word!r} not in embedding table") from None


# Wanted lines are parsed this many at a time, in one np.loadtxt call each.
CHUNK_LINES = 512


def _parse_line(path, lineno: int, text: str, dim: int) -> np.ndarray:
    """One line's values, each parsed by `float`."""
    values = text.split()
    if len(values) != dim:
        raise DataError(f"{path}:{lineno}: expected {dim} values, found {len(values)}")
    try:
        vec = np.array([float(x) for x in values])
    except ValueError as e:
        raise DataError(f"{path}:{lineno}: bad float: {e}") from e
    if not np.isfinite(vec).all():
        raise DataError(f"{path}:{lineno}: non-finite value")
    return vec


def _parse_chunk(path, chunk: list[tuple[int, str, str]], dim: int) -> list[np.ndarray]:
    """The vectors of (line number, word, value text) entries, by one
    np.loadtxt call. It parses bit for bit as `float` does, but is stricter
    (no `1_0`, no non-ASCII digits), so a chunk that it rejects, or with a
    wrong count or a non-finite value, is parsed again line by line."""
    try:
        block = np.loadtxt([text for _, _, text in chunk], dtype=np.float64, comments=None, ndmin=2)
        if block.shape == (len(chunk), dim) and np.isfinite(block).all():
            return list(block)
    except ValueError:
        pass
    return [_parse_line(path, lineno, text, dim) for lineno, _, text in chunk]


def load_embeddings(path, needed: Iterable[str] | None = None) -> tuple[EmbeddingTable, list[str]]:
    """Stream the file, keeping vectors for `needed` words (all words when
    None). Returns the table plus the sorted list of needed words that were
    missing. Every line is checked for a consistent value count; the first
    malformed line in file order raises with its line number. A word on
    several lines keeps its last line's vector, with one warning per load."""
    wanted = None if needed is None else {w.lower() for w in needed}
    vectors: dict[str, np.ndarray] = {}
    repeated: dict[str, None] = {}
    dim: int | None = None
    chunk: list[tuple[int, str, str]] = []

    def flush() -> None:
        entries = chunk.copy()
        chunk.clear()
        for (_, word, _), vec in zip(entries, _parse_chunk(path, entries, dim) if entries else []):
            if word in vectors:
                repeated[word] = None
            vectors[word] = vec

    try:
        for lineno, line in enumerate(read_lines(path), start=1):
            parts = line.split(None, 1)
            if not parts:
                continue
            word, text = parts[0].lower(), parts[1] if len(parts) == 2 else ""
            if dim is None and not (dim := len(text.split())):
                raise DataError(f"{path}:{lineno}: entry has no values")
            # a line without values is left to the count check: np.loadtxt would skip it
            if text and (wanted is None or word in wanted):
                chunk.append((lineno, word, text))
                if len(chunk) == CHUNK_LINES:
                    flush()
            elif (found := len(text.split())) != dim:
                raise DataError(f"{path}:{lineno}: expected {dim} values, found {found}")
    finally:
        flush()  # also on an error, where a bad wanted line before it reports first
    if dim is None:
        raise DataError(f"embedding file {path} is empty")
    if repeated:
        logger.warning("%d words are on more than one line of %s, each keeps its last: %s",
                       len(repeated), path, list(repeated)[:20])
    table = EmbeddingTable(dim, vectors)
    missing = sorted(wanted - set(vectors)) if wanted is not None else []
    if missing:
        logger.warning("%d needed words missing from %s: %s", len(missing), path, missing[:20])
    return table, missing


def embedding_matrix(vocab: Vocabulary, table: EmbeddingTable) -> np.ndarray:
    """Stack the table's vectors as columns in vocabulary order. Words missing
    from the table are a hard error: silently substituting random vectors
    would break the tied output layer."""
    missing = [w for w in vocab.tokens if w not in table]
    if missing:
        raise DataError(
            f"{len(missing)} vocabulary words have no embedding: {missing[:20]}"
        )
    return np.stack([table[w] for w in vocab.tokens], axis=1)


def build_caption_model(
    vocab: Vocabulary,
    table: EmbeddingTable,
    hidden_size: int,
    cond_dim: int,
    rng: np.random.Generator | None = None,
) -> CaptionModel:
    """Fresh caption model with its embedding columns taken from the table."""
    return CaptionModel.build(
        vocab, embedding_matrix(vocab, table), hidden_size, cond_dim, rng=rng
    )


def expand_vocab(m: CaptionModel, word: str, vec: np.ndarray) -> tuple[CaptionModel, int]:
    """Append `vec` as a new embedding column for `word`.

    The vocabulary gains the word at the next dense id; the output logit
    vector and the one-hot input dimension grow by one; no other parameter
    changes, so pre-existing logits are bit-identical before and after.
    A word already in the vocabulary is a DataError.
    """
    word = word.lower()
    expanded = m.with_expanded_columns([word], [vec])
    return expanded, expanded.vocab.id(word)


@dataclass(frozen=True)
class ExpansionRecord:
    """One applied vocabulary expansion, in application order."""

    word: str
    token_id: int


def apply_expansion_manifest(
    m: CaptionModel, words: Sequence[str], table: EmbeddingTable
) -> tuple[CaptionModel, list[ExpansionRecord]]:
    """Expand the model with each word's table vector, in manifest order, as
    folding `expand_vocab` over the words would, but with one copy of the
    embedding matrix. A word missing from the table is an error (no fallback
    initialization), and so is a word already in the vocabulary or repeated
    in the manifest."""
    words = [word.lower() for word in words]
    expanded = m.with_expanded_columns(words, [table[word] for word in words])
    base = len(m.vocab)
    records = [ExpansionRecord(word=word, token_id=base + i) for i, word in enumerate(words)]
    return expanded, records


def load_expansion_manifest(path) -> list[str]:
    """Manifest format: JSON list of {"word": ..., "source": "embedding-file"}."""
    data = read_json(path)
    with in_file(path):
        if not isinstance(data, list):
            raise DataError("expansion manifest must be a JSON list")
        for entry in data:
            if not isinstance(entry, dict) or not isinstance(entry.get("word"), str):
                raise DataError(f"manifest entry needs a 'word' string: {entry!r}")
    return [entry["word"].lower() for entry in data]

