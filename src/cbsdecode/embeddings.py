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


def load_embeddings(path, needed: Iterable[str] | None = None) -> tuple[EmbeddingTable, list[str]]:
    """Stream the file, keeping vectors for `needed` words (all words when
    None). Returns the table plus the sorted list of needed words that were
    missing. Every line is checked for a consistent value count; a malformed
    line raises with its line number."""
    wanted = None if needed is None else {w.lower() for w in needed}
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    for lineno, line in enumerate(read_lines(path), start=1):
        parts = line.split()
        if not parts:
            continue
        word, values = parts[0].lower(), parts[1:]
        if dim is None:
            if not values:
                raise DataError(f"{path}:{lineno}: entry has no values")
            dim = len(values)
        elif len(values) != dim:
            raise DataError(
                f"{path}:{lineno}: expected {dim} values, found {len(values)}"
            )
        if wanted is not None and word not in wanted:
            continue
        try:
            vec = np.array([float(x) for x in values])
        except ValueError as e:
            raise DataError(f"{path}:{lineno}: bad float: {e}") from e
        if not np.isfinite(vec).all():
            raise DataError(f"{path}:{lineno}: non-finite value")
        vectors[word] = vec
    if dim is None:
        raise DataError(f"embedding file {path} is empty")
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
    **kwargs,
) -> CaptionModel:
    """Fresh caption model with its embedding columns taken from the table."""
    return CaptionModel.build(
        vocab, embedding_matrix(vocab, table), hidden_size, cond_dim, rng=rng, **kwargs
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
    order: int


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
    records = [
        ExpansionRecord(word=word, token_id=base + order, order=order)
        for order, word in enumerate(words)
    ]
    return expanded, records


def load_expansion_manifest(path) -> list[str]:
    """Manifest format: JSON list of {"word": ..., "source": "embedding-file"}."""
    data = read_json(path)
    with in_file(path):
        if not isinstance(data, list):
            raise DataError("expansion manifest must be a JSON list")
        for entry in data:
            if not isinstance(entry, dict) or "word" not in entry:
                raise DataError(f"manifest entry missing 'word': {entry!r}")
    return [str(entry["word"]).lower() for entry in data]

