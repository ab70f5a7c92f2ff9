"""Seeded workload generator.

Every input the benchmark feeds to cbsdecode is made here from one seed:
Zipf corpora, per-input constraint specs, conditioning vectors, the
word-vector text file and the vocabulary-expansion manifest. The library
receives only these generated inputs. The same (workload, seed, size)
always yields the same inputs, byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EOS = "<eos>"

# Why each workload exists; printed with every result and kept in README.md.
WHY = {
    "ngram-product": (
        "search-bound: cached bigram rows make the scorer cheap, so per-input time "
        "is beam bookkeeping over a 24-state product FSM plus its compilation"
    ),
    "neural-novel": (
        "scorer-bound: the tied LSTM step over |V|=5k plus 64 expanded novel "
        "words dominates; search and FSM work are small"
    ),
    "neural-train": (
        "training: teacher-forced forward plus BPTT and a per-epoch loss pass "
        "reuse the neural forward code in a different pattern than decoding"
    ),
}

# Sizes fixed by the workload definitions. "tiny" keeps the same shape of
# work at a size a self-test can run in seconds.
SIZES = {
    "ngram-product": {
        "full": dict(vocab=3000, sentences=10000, head=60, pool=200),
        "tiny": dict(vocab=300, sentences=400, head=30, pool=6),
    },
    "neural-novel": {
        "full": dict(vocab=5000, dim=300, hidden=128, cond=16, novel=64,
                     warmup_sentences=64, warmup_len=(3, 7), warmup_epochs=2, head=100,
                     pool=128),
        "tiny": dict(vocab=200, dim=32, hidden=16, cond=4, novel=4,
                     warmup_sentences=32, warmup_len=(3, 7), warmup_epochs=4, head=30,
                     pool=4),
    },
    "neural-train": {
        "full": dict(vocab=3000, dim=300, hidden=128, cond=16, sentences=128, epochs=2),
        "tiny": dict(vocab=200, dim=16, hidden=8, cond=4, sentences=16, epochs=1),
    },
}

ZIPF_EXPONENT = 1.1

# neural-novel decodes with one fixed model, as a deployed captioner would:
# its vector file, warm-up corpus and initial weights come from this seed,
# and only the decode inputs come from --seed. A few dozen SGD updates from
# different seeds give models that accept anywhere from 0% to 100% of the
# inputs at 40-440 ms p50, which would swamp any change to the code.
MODEL_SEED = 0


@dataclass
class DecodeInput:
    id: int
    spec: dict  # {"disjunctions": [[word, ...], ...], "phrases": [[word, ...], ...]}
    features: list[float] | None = None


@dataclass
class Workload:
    name: str
    seed: int
    params: dict
    why: str
    words: list[str]  # base vocabulary, EOS last
    model_seed: int  # seeds weight initialisation and training shuffles
    corpus: list[list[str]] = field(default_factory=list)  # sentences without EOS
    corpus_features: list[list[float]] = field(default_factory=list)
    inputs: list[DecodeInput] = field(default_factory=list)
    embeddings_path: Path | None = None
    manifest_path: Path | None = None


def _base_words(n: int) -> list[str]:
    """n vocabulary entries: n-1 words ranked by frequency, then EOS."""
    return [f"w{i}" for i in range(n - 1)] + [EOS]


def _zipf_sentences(rng, n_words: int, count: int, lo: int, hi: int) -> list[list[str]]:
    ranks = np.arange(1, n_words + 1, dtype=np.float64)
    p = ranks ** -ZIPF_EXPONENT
    p /= p.sum()
    lengths = rng.integers(lo, hi + 1, size=count)
    flat = rng.choice(n_words, size=int(lengths.sum()), p=p)
    out, pos = [], 0
    for n in lengths:
        out.append([f"w{i}" for i in flat[pos : pos + n]])
        pos += n
    return out


def _features(rng, count: int, dim: int) -> list[list[float]]:
    return [[float(x) for x in row] for row in rng.standard_normal((count, dim))]


def _write_embeddings(path: Path, rng, words: list[str], dim: int) -> None:
    vectors = rng.standard_normal((len(words), dim)) * 0.3
    with open(path, "w", encoding="utf-8") as fh:
        for word, vec in zip(words, vectors):
            fh.write(word + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")


def generate(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    """Build the inputs of workload `name` from `seed`, writing any files into
    `workdir`."""
    if name not in WHY:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WHY)}")
    p = SIZES[name][size]
    stream = sorted(WHY).index(name)
    rng = np.random.default_rng([seed, stream])
    model_seed = MODEL_SEED if name == "neural-novel" else seed
    model_rng = np.random.default_rng([model_seed, stream])
    workdir.mkdir(parents=True, exist_ok=True)
    words = _base_words(p["vocab"])
    wl = Workload(name=name, seed=seed, params=p, why=WHY[name], words=words,
                  model_seed=model_seed)
    n_plain = p["vocab"] - 1

    if name == "ngram-product":
        wl.corpus = _zipf_sentences(rng, n_plain, p["sentences"], 4, 14)
        for i in range(p["pool"]):
            w = [f"w{j}" for j in rng.choice(p["head"], size=8, replace=False)]
            spec = {"disjunctions": [w[0:2], w[2:4], w[4:6]], "phrases": [w[6:8]]}
            wl.inputs.append(DecodeInput(id=i, spec=spec))
        return wl

    # neural workloads share the word-vector file layout
    novel = [f"novel{i}" for i in range(p["novel"])] if name == "neural-novel" else []
    _write_embeddings(workdir / "vectors.txt", model_rng, words + novel, p["dim"])
    wl.embeddings_path = workdir / "vectors.txt"

    if name == "neural-train":
        wl.corpus = _zipf_sentences(model_rng, n_plain, p["sentences"], 6, 12)
        wl.corpus_features = _features(model_rng, p["sentences"], p["cond"])
        return wl

    wl.corpus = _zipf_sentences(model_rng, n_plain, p["warmup_sentences"], *p["warmup_len"])
    wl.corpus_features = _features(model_rng, p["warmup_sentences"], p["cond"])
    wl.manifest_path = workdir / "manifest.json"
    wl.manifest_path.write_text(
        json.dumps([{"word": w, "source": "embedding-file"} for w in novel]) + "\n",
        encoding="utf-8",
    )
    features = _features(rng, p["pool"], p["cond"])
    for i in range(p["pool"]):
        word = novel[int(rng.integers(len(novel)))]
        w = [f"w{j}" for j in rng.choice(p["head"], size=4, replace=False)]
        spec = {"disjunctions": [[word], w[0:2], w[2:4]], "phrases": []}
        wl.inputs.append(DecodeInput(id=i, spec=spec, features=features[i]))
    return wl
