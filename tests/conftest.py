import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cbsdecode import DecodeState, NGramModel, Vocabulary, ngram_train


def make_vocab(size: int) -> Vocabulary:
    """size tokens total, the last one being the end-of-sequence marker."""
    return Vocabulary.from_tokens(f"w{i}" for i in range(size - 1))


def uniform_scorer(size: int) -> NGramModel:
    """The count-free order-1 model over `make_vocab(size)`: every row is
    -ln(size), and eos is the last id. `--scorer uniform` builds it."""
    return NGramModel(1, 1.0, make_vocab(size))


def random_ngram(rng: np.random.Generator, vocab: Vocabulary, order: int = 2,
                 alpha: float | None = None, sentences: int = 12, max_words: int = 6):
    """Bigram-ish model trained on a random corpus over the vocabulary."""
    if alpha is None:
        alpha = float(rng.uniform(0.05, 1.0))
    others = [i for i in range(len(vocab)) if i != vocab.eos]
    corpus = []
    for _ in range(sentences):
        length = int(rng.integers(1, max_words + 1))
        corpus.append([int(rng.choice(others)) for _ in range(length)] + [vocab.eos])
    return ngram_train(corpus, order=order, alpha=alpha, vocab=vocab)


def stack_states(states) -> DecodeState:
    """One batch holding the rows of `states` in order (all of one scorer)."""
    rows = zip(*(s.rows for s in states))
    return DecodeState(states[0].owner, tuple(np.concatenate(r) for r in rows))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def chair_table_vocab():
    return Vocabulary.from_tokens(
        ["a", "the", "chair", "chairs", "desk", "table", "near", "and"]
    )
