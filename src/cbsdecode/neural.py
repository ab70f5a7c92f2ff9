"""Factored two-layer LSTM captioning model with an embedding-tied softmax.

The bottom LSTM layer consumes only the embedded previous word; the top layer
consumes the bottom layer's output concatenated with a per-timestep static
conditioning vector (the stand-in for externally computed image features).
Output logits are the dot products of a projected hidden vector with the
frozen input embedding columns, which is what makes test-time vocabulary
expansion a pure column concatenation.

Everything runs in 64-bit floats: forward pass, cross-entropy loss, analytic
backpropagation-through-time gradients over one padded (T x B) block per
minibatch, and a plain-SGD toy trainer.
"""

from __future__ import annotations

import json
import logging
import zipfile
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractError, DataError, NumericError
from .files import in_file
from .scorers import DecodeState, Scorer
from .vocab import Vocabulary

logger = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "cbsdecode-caption-lm"
CHECKPOINT_VERSION = 2

GATES = ("i", "f", "o", "c")

# BLAS picks a GEMM's kernel, and so the bits of each row and column, from its
# shape. Decode-time GEMMs get shapes that keep a row's bits independent of its
# batch and of |V|. Rows are zero-padded up to ROWS, never past it: a lone row
# takes GEMV. A GEMM runs over all the rows at once when it is a whole number of
# TILE columns wide; the tied projection runs over w_e's whole groups of 8
# columns and over its last |V| mod 8 columns, zero-padded to 8. Any other
# width runs ROWS rows at a time: a GEMM's last N mod 8 columns, and every
# column of a small one, can get bits that change with its row count.
ROWS = 8
TILE = 512

# `train`'s loss passes score length-sorted chunks of this many sequences, at
# any batch_size: wider GEMMs per step, and no rise in peak memory (32 had one)
LOSS_CHUNK = 16


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp only ever sees -|z| <= 0, and each element takes the same formula
    # as a two-branch stable sigmoid, so the bits match it
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted log-softmax over the last axis; logits are never
    exponentiated raw. The shift goes into the result array and the log-sum
    is subtracted in place, so a call makes two full-size arrays, not three."""
    out = logits - logits.max(axis=-1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=-1, keepdims=True))
    return out


@dataclass
class LstmLayerParams:
    """Weights of one LSTM layer with N units over K inputs, as one gate
    block: `w` is (4N x (K+N)) with row blocks in GATES order (i, f, o, c)
    and columns [input | recurrent]; `b` (4N) holds the matching biases."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        if self.w.ndim != 2 or self.w.shape[0] % 4 or self.w.shape[1] < self.w.shape[0] // 4:
            raise DataError(f"lstm weight block shape {self.w.shape} is not (4N, K+N)")
        if self.b.shape != (self.w.shape[0],):
            raise DataError(f"lstm bias shape {self.b.shape} does not match {self.w.shape}")

    @property
    def hidden_size(self) -> int:
        return self.w.shape[0] // 4

    @property
    def input_size(self) -> int:
        return self.w.shape[1] - self.hidden_size

    @classmethod
    def build(
        cls,
        hidden_size: int,
        input_size: int,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.08,
        forget_bias: float = 1.0,
    ) -> "LstmLayerParams":
        n, k = hidden_size, input_size
        w = np.zeros((4 * n, k + n))
        if rng is not None and init_scale != 0.0:
            # draw order is part of the seeding contract: for each gate, the
            # input block and then the recurrent block
            for r in range(len(GATES)):
                rows = slice(r * n, (r + 1) * n)
                w[rows, :k] = rng.uniform(-init_scale, init_scale, size=(n, k))
                w[rows, k:] = rng.uniform(-init_scale, init_scale, size=(n, n))
        b = np.zeros(4 * n)
        b[n : 2 * n] = forget_bias
        return cls(w, b)


def _gate_cell(z: np.ndarray, c_prev: np.ndarray):
    """The LSTM nonlinearity on pre-activations z (..., 4N), last-axis blocks
    in GATES order. Activates z in place, so z then holds the gates
    (i, f, o, g); returns (h, c, tanh(c))."""
    n = c_prev.shape[-1]
    z[..., : 3 * n] = _sigmoid(z[..., : 3 * n])
    z[..., 3 * n :] = np.tanh(z[..., 3 * n :])
    c = z[..., n : 2 * n] * c_prev + z[..., :n] * z[..., 3 * n :]
    tc = np.tanh(c)
    return z[..., 2 * n : 3 * n] * tc, c, tc


def _padded(a: np.ndarray, rows: int) -> np.ndarray:
    """`a` with zero rows appended up to `rows` rows."""
    return np.concatenate([a, np.zeros((rows - len(a), a.shape[1]))]) if len(a) < rows else a


def _row_gemm(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`a @ w`, each row with the bits it gets alone (see ROWS): one GEMM over
    the rows of `a`, zero-padded up to ROWS, when `w` is a whole number of TILE
    columns wide, else one (ROWS x K) @ (K x M) GEMM per block of rows."""
    rows = len(a)
    if w.shape[1] % TILE == 0:
        return (_padded(a, ROWS) @ w)[:rows]
    a = _padded(a, rows + -rows % ROWS)
    out = np.empty((len(a), w.shape[1]))
    for lo in range(0, len(a), ROWS):
        np.matmul(a[lo : lo + ROWS], w, out=out[lo : lo + ROWS])
    return out[:rows]


def _layer_sequence(p: LstmLayerParams, x: np.ndarray):
    """Teacher-forced pass of one layer over a (T x B x K) input block, B
    sequences side by side. The input projections of all T*B steps are one
    GEMM; each step is one (B x N) @ (N x 4N) GEMM over the batch (Appleyard
    et al. 2016, arXiv:1604.01946). Returns (H, C, TC, G): hidden states and
    cells (T+1 x B x N, row 0 the zero initial state), tanh of the cells
    (T x B x N) and the activated gates (T x B x 4N)."""
    (steps, batch, k), n = x.shape, p.hidden_size
    g = (x.reshape(-1, k) @ p.w[:, :k].T + p.b).reshape(steps, batch, 4 * n)
    w_h = p.w[:, k:].T
    h, c = np.zeros((2, steps + 1, batch, n))
    tc = np.empty((steps, batch, n))
    for t in range(steps):
        g[t] += h[t] @ w_h
        h[t + 1], c[t + 1], tc[t] = _gate_cell(g[t], c[t])
    if not (np.isfinite(h).all() and np.isfinite(c).all()):
        raise NumericError("non-finite lstm state")
    return h, c, tc, g


def _layer_backprop(p: LstmLayerParams, x, h, c, tc, g, dh_out, grads, prefix: str):
    """BPTT through one `_layer_sequence` pass, given dloss/dh_t (T x B x N)
    from above. The reverse loop only fills step t of the stacked gate delta
    dZ; the weight and bias gradients are then one GEMM over the T*B rows and
    one sum. Steps with zero dloss/dh from there on get exactly zero deltas,
    so padding after a sequence adds nothing. Returns dZ (T*B x 4N)."""
    k, n = p.input_size, p.hidden_size
    # step t of dZ is [dc, dc, dh, dc] * mult[t], elementwise, where dc and dh
    # carry the recurrence and mult[t] is fixed by the forward pass
    mult = np.concatenate([g[..., 3 * n :], c[:-1], tc, g[..., :n]], axis=-1)
    mult[..., : 3 * n] *= g[..., : 3 * n] * (1.0 - g[..., : 3 * n])
    mult[..., 3 * n :] *= 1.0 - g[..., 3 * n :] ** 2
    dc_from_h = g[..., 2 * n : 3 * n] * (1.0 - tc * tc)
    forget = g[..., n : 2 * n]
    w_h = p.w[:, k:]
    dz = np.empty_like(g)
    dh_next = dc = np.zeros(dh_out.shape[1:])
    for t in reversed(range(len(x))):
        dh = dh_out[t] + dh_next
        dc = dc + dh * dc_from_h[t]
        dz[t] = np.concatenate([dc, dc, dh, dc], axis=-1) * mult[t]
        dh_next = dz[t] @ w_h
        dc = dc * forget[t]
    dz = dz.reshape(-1, 4 * n)
    grads[f"{prefix}.w"] = dz.T @ np.concatenate([x, h[:-1]], axis=-1).reshape(-1, k + n)
    grads[f"{prefix}.b"] = dz.sum(axis=0)
    return dz


class CaptionModel(Scorer):
    """Two-layer factored LSTM over a fixed embedding matrix.

    w_e holds one embedding column per vocabulary word and is frozen: training
    never touches it, and expanding the vocabulary appends a column. The
    start-of-sequence input uses a dedicated reserved embedding column, not a
    vocabulary word.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        w_e: np.ndarray,
        layer1: LstmLayerParams,
        layer2: LstmLayerParams,
        w_v: np.ndarray,
        b_v: np.ndarray,
        start_embedding: np.ndarray | None = None,
    ):
        d, v = w_e.shape
        if v != len(vocab):
            raise DataError(f"embedding matrix has {v} columns for |V|={len(vocab)}")
        if layer1.input_size != d:
            raise DataError("layer1 input size must equal the embedding dimension")
        n = layer1.hidden_size
        if layer2.input_size < n:
            raise DataError("layer2 input must cover layer1 output plus conditioning")
        if w_v.shape != (d, layer2.hidden_size) or b_v.shape != (d,):
            raise DataError("output projection shape mismatch")
        self.vocab = vocab
        self.w_e = w_e.astype(np.float64, copy=False)
        self.layer1 = layer1
        self.layer2 = layer2
        self.w_v = w_v
        self.b_v = b_v
        self.start_embedding = (
            np.zeros(d) if start_embedding is None else start_embedding.astype(np.float64)
        )
        if self.start_embedding.shape != (d,):
            raise DataError("start embedding dimension mismatch")

    # dimensions

    @property
    def embed_dim(self) -> int:
        return self.w_e.shape[0]

    @property
    def hidden_size(self) -> int:
        return self.layer1.hidden_size

    @property
    def cond_dim(self) -> int:
        return self.layer2.input_size - self.layer1.hidden_size

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)

    @property
    def eos(self) -> int:
        return self.vocab.eos

    @classmethod
    def build(
        cls,
        vocab: Vocabulary,
        w_e: np.ndarray,
        hidden_size: int,
        cond_dim: int,
        rng: np.random.Generator | None = None,
        init_scale: float = 0.08,
        forget_bias: float = 1.0,
        start_embedding: np.ndarray | None = None,
    ) -> "CaptionModel":
        """Fresh model around a fixed embedding matrix. Trainable weights are
        uniform in [-init_scale, init_scale]; forget-gate biases start at
        `forget_bias`, all other biases at zero."""
        d = w_e.shape[0]

        def weight(shape):
            if rng is None or init_scale == 0.0:
                return np.zeros(shape)
            return rng.uniform(-init_scale, init_scale, size=shape)

        layer1 = LstmLayerParams.build(hidden_size, d, rng, init_scale, forget_bias)
        layer2 = LstmLayerParams.build(
            hidden_size, hidden_size + cond_dim, rng, init_scale, forget_bias
        )
        return cls(
            vocab=vocab,
            w_e=w_e,
            layer1=layer1,
            layer2=layer2,
            w_v=weight((d, hidden_size)),
            b_v=np.zeros(d),
            start_embedding=start_embedding,
        )

    def trainable(self) -> dict[str, np.ndarray]:
        """Live references to every trainable array. w_e is deliberately
        absent: the embeddings are fixed."""
        return {
            "layer1.w": self.layer1.w,
            "layer1.b": self.layer1.b,
            "layer2.w": self.layer2.w,
            "layer2.b": self.layer2.b,
            "w_v": self.w_v,
            "b_v": self.b_v,
        }

    # forward pass

    def output_logits(self, state: DecodeState) -> np.ndarray:
        """Raw tied-output logits (B x |V|) pending at the rows of `state`
        (pre-softmax), bit-equal to the ones behind `log_probs(state)`. The
        projected top-layer rows v, zero-padded up to ROWS rows, take one GEMM
        over a view of w_e's whole groups of 8 columns and one over its last
        |V| mod 8 columns, zero-padded to 8 (see ROWS), both written into one
        (rows x |V|) block."""
        h2 = state.rows[2]
        v = _padded(np.tanh(_row_gemm(h2, self.w_v.T) + self.b_v), ROWS)
        d, cols = self.w_e.shape
        whole = cols - cols % 8
        logits = np.empty((len(v), cols))
        np.matmul(v, self.w_e[:, :whole], out=logits[:, :whole])
        if whole < cols:
            tail = np.zeros((d, 8))
            tail[:, : cols - whole] = self.w_e[:, whole:]
            logits[:, whole:] = (v @ tail)[:, : cols - whole]
        return logits[: len(h2)]

    def log_probs(self, state: DecodeState) -> np.ndarray:
        """A fresh (B x |V|) block; a row's bits depend neither on B nor on its place."""
        logp = log_softmax(self.output_logits(state))
        if not np.isfinite(logp).all():
            raise NumericError("model emitted a non-finite log distribution")
        return logp

    def _step_rows(self, x, h1, c1, h2, c2, cond) -> DecodeState:
        """The two LSTM layers of B hypotheses, given their inputs x and rows
        (h1, c1, h2, c2, cond) as (B x .) arrays; each row's bits depend
        neither on B nor on its place."""
        z1 = _row_gemm(np.hstack([x, h1]), self.layer1.w.T) + self.layer1.b
        h1, c1, _ = _gate_cell(z1, c1)
        z2 = _row_gemm(np.hstack([h1, cond, h2]), self.layer2.w.T) + self.layer2.b
        h2, c2, _ = _gate_cell(z2, c2)
        return DecodeState(self, (h1, c1, h2, c2, cond))

    def _check_conditioning(self, conditioning) -> np.ndarray:
        if conditioning is None:
            return np.zeros(self.cond_dim)
        cond = np.array(conditioning, dtype=np.float64)  # a copy: states keep it
        if cond.shape != (self.cond_dim,):
            raise DataError(
                f"conditioning vector has shape {cond.shape}, expected ({self.cond_dim},)"
            )
        if not np.isfinite(cond).all():
            raise DataError("conditioning vector contains non-finite values")
        return cond

    def initial_state(self, conditioning=None) -> DecodeState:
        cond = self._check_conditioning(conditioning)
        z = np.zeros((1, self.hidden_size))
        return self._step_rows(self.start_embedding[None], z, z, z, z, cond[None])

    def _advance(self, state: DecodeState, tokens) -> DecodeState:
        return self._step_rows(self.w_e[:, tokens].T, *state.rows)

    def _unrolled(self, batch: Sequence[tuple[Sequence[int], np.ndarray | None]]):
        """Teacher-forced pass over (sequence, conditioning) pairs, all checked
        first, padded at the end to one (T x B) block: the input at step t is
        the ground-truth token t-1 (start column at t=0). Only the R real steps,
        (t, b) in order, reach the output layer. Returns the per-sequence mean
        losses, the (T x B) mask of real steps, their targets, exp of their
        max-shifted logits (R x |V|), its row sums and the forward values."""
        if not batch or not all(len(seq) for seq, _ in batch):
            raise DataError("cannot score an empty batch or sequence")
        seqs = [np.asarray(seq, dtype=np.intp) for seq, _ in batch]
        ids = np.concatenate(seqs)
        bad = ids[(ids < 0) | (ids >= self.vocab_size)]
        if bad.size:
            raise ContractError(f"token id {bad[0]} out of range for |V|={self.vocab_size}")
        conds = [self._check_conditioning(conditioning) for _, conditioning in batch]
        lengths = np.array([len(seq) for seq in seqs])
        real = np.arange(lengths.max())[:, None] < lengths
        tokens = np.zeros(real.shape, dtype=np.intp)
        tokens.T[real.T] = ids  # sequence b down column b, then token 0
        start = np.broadcast_to(self.start_embedding, (1, len(batch), self.embed_dim))
        x1 = np.concatenate([start, self.w_e.T[tokens[:-1]]])
        if not np.isfinite(x1).all():
            raise NumericError("non-finite lstm input")
        l1 = _layer_sequence(self.layer1, x1)
        cond = np.broadcast_to(conds, (*real.shape, self.cond_dim))
        x2 = np.concatenate([l1[0][1:], cond], axis=-1)
        l2 = _layer_sequence(self.layer2, x2)
        h2 = l2[0][1:][real]
        v = np.tanh(h2 @ self.w_v.T + self.b_v)
        # tied logits of the real steps, normalised in place: shift by the row max, exp, sum
        e = v @ self.w_e
        e -= e.max(axis=1, keepdims=True)
        if not np.isfinite(e.min()):
            raise NumericError("model emitted a non-finite log distribution")
        targets = tokens[real]
        picked = e[np.arange(len(targets)), targets]
        np.exp(e, out=e)
        sums = e.sum(axis=1)
        losses = np.bincount(np.nonzero(real)[1], weights=np.log(sums) - picked) / lengths
        return losses, real, targets, e, sums, (x1, l1, x2, l2, h2, v)

    def batch_losses(self, batch: Sequence[tuple[Sequence[int], np.ndarray | None]]) -> np.ndarray:
        """Per-sequence mean over timesteps of the negative log probability of
        the next ground-truth token (softmax cross-entropy, teacher forcing)."""
        return self._unrolled(batch)[0]

    def sequence_loss(self, seq: Sequence[int], conditioning=None) -> float:
        """`batch_losses` of one sequence."""
        return float(self.batch_losses([(seq, conditioning)])[0])

    def gradients(self, batch: Sequence[tuple[Sequence[int], np.ndarray | None]]):
        """Analytic BPTT gradients of the mean sequence loss over the batch,
        for every trainable parameter. Returns (grads, mean_loss).

        The frozen embedding matrix has no gradient by construction.
        """
        losses, real, targets, dlogits, sums, (x1, l1, x2, l2, h2, v) = self._unrolled(batch)
        # softmax minus one-hot, each row weighted 1 / (len(seq) * len(batch))
        weight = 1.0 / (real.sum(axis=0) * len(batch))[np.nonzero(real)[1]]
        dlogits *= (weight / sums)[:, None]
        dlogits[np.arange(len(targets)), targets] -= weight
        da = (dlogits @ self.w_e.T) * (1.0 - v * v)
        grads = {"w_v": da.T @ h2, "b_v": da.sum(axis=0)}
        dh2 = np.zeros((*real.shape, self.layer2.hidden_size))
        dh2[real] = da @ self.w_v
        dz2 = _layer_backprop(self.layer2, x2, *l2, dh2, grads, "layer2")
        dh1 = (dz2 @ self.layer2.w[:, : self.hidden_size]).reshape(*real.shape, self.hidden_size)
        _layer_backprop(self.layer1, x1, *l1, dh1, grads, "layer1")
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NumericError(f"non-finite gradient for parameter {name}")
        return grads, float(losses.mean())

    # vocabulary expansion support (driven by the embeddings module)

    def with_expanded_columns(
        self, words: Sequence[str], vecs: Sequence[np.ndarray]
    ) -> "CaptionModel":
        """New model whose vocabulary gains `words` in order, with `vecs` as
        their embedding columns, appended in one concatenation; every other
        parameter is shared unchanged."""
        vocab = self.vocab.extended(*words)
        cols = []
        for word, vec in zip(words, vecs, strict=True):
            vec = np.asarray(vec, dtype=np.float64)
            if vec.shape != (self.embed_dim,):
                raise DataError(
                    f"expansion vector has shape {vec.shape}, expected ({self.embed_dim},)"
                )
            if not np.isfinite(vec).all():
                raise DataError(f"expansion vector for {word!r} contains non-finite values")
            cols.append(vec[:, None])
        return CaptionModel(
            vocab=vocab,
            w_e=np.concatenate([self.w_e, *cols], axis=1),
            layer1=self.layer1,
            layer2=self.layer2,
            w_v=self.w_v,
            b_v=self.b_v,
            start_embedding=self.start_embedding,
        )


@dataclass
class TrainReport:
    """Per-epoch mean losses; entry 0 is the pre-update loss."""

    losses: list[float]

    @property
    def initial(self) -> float:
        return self.losses[0]

    @property
    def final(self) -> float:
        return self.losses[-1]


def train(
    m: CaptionModel,
    corpus: Sequence[tuple[Sequence[int], np.ndarray | None]],
    lr: float,
    epochs: int,
    batch_size: int = 1,
    seed: int = 0,
    log_every: int | None = None,
) -> TrainReport:
    """Plain SGD on BPTT gradients, in place. Each loss pass runs `batch_losses`
    on chunks of LOSS_CHUNK sequences sorted stably by length, whatever
    `batch_size` is, and averages in corpus order. The embedding matrix is
    never updated. Deterministic for a fixed seed: shuffling is the only
    stochastic choice and it flows from one seeded generator."""
    if not corpus:
        raise DataError("empty training corpus")
    if epochs < 0 or batch_size < 1:
        raise DataError("epochs must be >= 0 and batch_size >= 1")
    rng = np.random.default_rng(seed)
    params = m.trainable()
    by_length = np.argsort([len(seq) for seq, _ in corpus], kind="stable")
    chunks = [by_length[lo : lo + LOSS_CHUNK] for lo in range(0, len(corpus), LOSS_CHUNK)]

    def mean_loss() -> float:
        losses = np.empty(len(corpus))
        for chunk in chunks:
            losses[chunk] = m.batch_losses([corpus[i] for i in chunk])
        return float(np.mean(losses))

    losses = [mean_loss()]
    for epoch in range(epochs):
        order = rng.permutation(len(corpus))
        for lo in range(0, len(order), batch_size):
            batch = [corpus[i] for i in order[lo : lo + batch_size]]
            grads, _ = m.gradients(batch)
            for name, arr in params.items():
                arr -= lr * grads[name]
        epoch_loss = mean_loss()
        if not np.isfinite(epoch_loss):
            raise NumericError(
                f"training diverged at epoch {epoch} (loss={epoch_loss}, lr={lr})"
            )
        losses.append(epoch_loss)
        if log_every and (epoch + 1) % log_every == 0:
            logger.info("epoch %d: mean loss %.4f", epoch + 1, epoch_loss)
    return TrainReport(losses)


# checkpointing


def save_checkpoint(m: CaptionModel, path, seed: int | None = None) -> None:
    """Versioned binary container: shapes, every parameter tensor, the
    vocabulary, and the frozen-embedding flag."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "vocab": list(m.vocab.tokens),
        "eos": m.vocab.tokens[m.vocab.eos],
        "embed_dim": m.embed_dim,
        "hidden_size": m.hidden_size,
        "cond_dim": m.cond_dim,
        "frozen_embeddings": True,
        "seed": seed,
    }
    arrays = {"w_e": m.w_e, "start_embedding": m.start_embedding}
    arrays.update(m.trainable())
    np.savez(path, __meta__=np.array(json.dumps(meta)), **arrays)


# what np.load raises on a file that is not a whole .npz, and reading one of
# its arrays on a damaged member
_UNREADABLE = (OSError, ValueError, EOFError, zipfile.BadZipFile)


def load_checkpoint(path) -> CaptionModel:
    try:
        data = np.load(path, allow_pickle=False)
    except _UNREADABLE as e:
        raise DataError(f"cannot read checkpoint {path}: {e}") from e
    with data, in_file(path):
        try:
            return _model_from_arrays(dict(data))
        except (KeyError, *_UNREADABLE) as e:
            raise DataError(f"malformed checkpoint: {e!r}") from e


def _model_from_arrays(data: dict) -> CaptionModel:
    meta = json.loads(str(data["__meta__"][()])) if "__meta__" in data else None
    if not isinstance(meta, dict) or meta.get("format") != CHECKPOINT_FORMAT:
        raise DataError("not a caption model checkpoint")
    version = meta.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise DataError(f"unsupported checkpoint version {version!r}")
    for name, a in data.items():
        if name != "__meta__" and a.dtype.kind not in "iuf":
            raise DataError(f"{name} is not a real numeric array")
        if name != "__meta__" and not np.isfinite(a).all():
            raise DataError(f"{name} holds a value that is not finite")

    return CaptionModel(
        vocab=Vocabulary(meta["vocab"], eos_token=meta["eos"]),
        w_e=data["w_e"],
        layer1=LstmLayerParams(data["layer1.w"], data["layer1.b"]),
        layer2=LstmLayerParams(data["layer2.w"], data["layer2.b"]),
        w_v=data["w_v"],
        b_v=data["b_v"],
        start_embedding=data["start_embedding"],
    )
