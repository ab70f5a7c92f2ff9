import copy
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbsdecode import (
    ContractError,
    DataError,
    DecodeState,
    NumericError,
    Vocabulary,
    beam_search,
    SearchParams,
)
from cbsdecode import neural, trivial_fsm
from cbsdecode.neural import (
    GATES,
    ROWS,
    CaptionModel,
    LstmLayerParams,
    _gate_cell,
    _sigmoid,
    load_checkpoint,
    save_checkpoint,
    train,
)
from cbsdecode.search import _run_search
from conftest import make_vocab, stack_states
from oracles import _ref_blocked, reference_step_rows, reference_tied_logits, reference_train, take
from test_scorers import scorer_contract_checks


def reference_lstm(p, x, h_prev, c_prev):
    """Straight-from-the-gate-equations evaluator, coded independently with
    scalar loops; the oracle for `_gate_cell`."""
    n, k = p.hidden_size, p.input_size
    # gate row blocks i, f, o, c; input columns first, then recurrent
    w_xi, w_xf, w_xo, w_xc = (p.w[r * n:(r + 1) * n, :k] for r in range(4))
    w_hi, w_hf, w_ho, w_hc = (p.w[r * n:(r + 1) * n, k:] for r in range(4))
    b_i, b_f, b_o, b_c = (p.b[r * n:(r + 1) * n] for r in range(4))
    h = np.zeros(n)
    c = np.zeros(n)
    for j in range(n):
        zi = b_i[j] + sum(w_xi[j, t] * x[t] for t in range(len(x)))
        zf = b_f[j] + sum(w_xf[j, t] * x[t] for t in range(len(x)))
        zo = b_o[j] + sum(w_xo[j, t] * x[t] for t in range(len(x)))
        zg = b_c[j] + sum(w_xc[j, t] * x[t] for t in range(len(x)))
        for t in range(n):
            zi += w_hi[j, t] * h_prev[t]
            zf += w_hf[j, t] * h_prev[t]
            zo += w_ho[j, t] * h_prev[t]
            zg += w_hc[j, t] * h_prev[t]
        i = 1.0 / (1.0 + math.exp(-zi))
        f = 1.0 / (1.0 + math.exp(-zf))
        o = 1.0 / (1.0 + math.exp(-zo))
        g = math.tanh(zg)
        c[j] = f * c_prev[j] + i * g
        h[j] = o * math.tanh(c[j])
    return h, c


def tiny_model(rng, vocab_size=5, embed_dim=7, hidden=3, cond=2, scale=0.4):
    v = make_vocab(vocab_size)
    w_e = rng.normal(size=(embed_dim, vocab_size))
    m = CaptionModel.build(v, w_e, hidden_size=hidden, cond_dim=cond, rng=rng,
                           init_scale=scale)
    return v, m


def finite_difference_check(m, seq, cond, eps=1e-5, floor=1e-6):
    """Central differences against every analytic partial; returns the worst
    relative error (denominator floored at the finite-difference noise scale)."""
    grads, _ = m.gradients([(seq, cond)])
    worst = 0.0
    for name, arr in m.trainable().items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + eps
            up = m.sequence_loss(seq, cond)
            arr[idx] = orig - eps
            down = m.sequence_loss(seq, cond)
            arr[idx] = orig
            fd = (up - down) / (2 * eps)
            a = float(grads[name][idx])
            rel = abs(a - fd) / max(abs(a), abs(fd), floor)
            worst = max(worst, rel)
    return worst


def lstm_cell(p, x, h_prev, c_prev):
    """One LSTM update through `_gate_cell`: (h, c)."""
    h, c, _ = _gate_cell(p.w @ np.concatenate([x, h_prev]) + p.b, c_prev)
    return h, c


class TestLstmStep:
    def test_all_zero_inputs(self):
        p = LstmLayerParams.build(4, 3, rng=None, init_scale=0.0, forget_bias=0.0)
        h, c = lstm_cell(p, np.zeros(3), np.zeros(4), np.zeros(4))
        np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_saturated_forget_gate_preserves_cell(self):
        p = LstmLayerParams.build(4, 3, rng=None, init_scale=0.0, forget_bias=50.0)
        c_prev = np.array([0.3, -0.2, 0.9, 0.0])
        h, c = lstm_cell(p, np.zeros(3), np.zeros(4), c_prev)
        np.testing.assert_allclose(c, c_prev, atol=1e-12)

    def test_matches_independent_evaluator(self, rng):
        p = LstmLayerParams.build(4, 3, rng=rng, init_scale=0.9)
        for _ in range(5):
            x = rng.normal(size=3)
            h_prev = np.tanh(rng.normal(size=4))
            c_prev = rng.normal(size=4)
            h, c = lstm_cell(p, x, h_prev, c_prev)
            h_ref, c_ref = reference_lstm(p, x, h_prev, c_prev)
            np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)
            np.testing.assert_allclose(c, c_ref, atol=1e-12, rtol=0)

    def test_gate_output_ranges(self, rng):
        p = LstmLayerParams.build(6, 4, rng=rng, init_scale=2.0)
        h = np.zeros(6)
        c = np.zeros(6)
        for _ in range(10):
            h, c = lstm_cell(p, rng.normal(size=4) * 3, h, c)
            assert np.all(np.abs(h) < 1.0)
            assert np.all(np.isfinite(c))


def test_sigmoid_bits_equal_two_branch_formula():
    rng = np.random.default_rng(17)
    edges = [0.0, -0.0, 1e-320, -1e-320, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308]
    z = np.concatenate([edges, rng.standard_normal(10**6) * 10.0 ** rng.uniform(-3, 3, 10**6)])
    with np.errstate(over="raise", invalid="raise"):
        pos = z >= 0
        ref = np.empty_like(z)
        ref[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        ref[~pos] = ez / (1.0 + ez)
        assert _sigmoid(z).tobytes() == ref.tobytes()


@pytest.mark.parametrize("vocab_size", [2, 7, 5064])
def test_log_softmax_bits_equal_two_line_formula(vocab_size):
    """The in-place log-softmax gives the bits of the formula it replaced,
    on (B x |V|) rows with -inf entries, large values and a one-finite-entry
    row, and on one vector; its input is left unchanged."""
    rng = np.random.default_rng(vocab_size)
    logits = rng.standard_normal((13, vocab_size)) * 10.0 ** rng.uniform(-3, 3, (13, vocab_size))
    logits[:, :-1][rng.random((13, vocab_size - 1)) < 0.1] = -np.inf
    logits[0] += 1e6
    logits[1] = np.linspace(-1e300, 1e300, vocab_size)
    logits[2] = -np.inf
    logits[2, -1] = 800.0
    before = logits.copy()
    for x in (logits, logits[3]):
        shifted = x - x.max(axis=-1, keepdims=True)
        ref = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        np.testing.assert_array_equal(neural.log_softmax(x), ref)
    np.testing.assert_array_equal(logits, before)


class TestBuild:
    def test_seeded_draws_fill_gate_blocks_in_documented_order(self):
        v = make_vocab(5)
        d, n, cond, scale = 6, 3, 2, 0.3
        w_e = np.random.default_rng(1).normal(size=(d, len(v)))
        m = CaptionModel.build(v, w_e, n, cond, rng=np.random.default_rng(7),
                               init_scale=scale, forget_bias=0.5)
        ref = np.random.default_rng(7)
        for layer, k in ((m.layer1, d), (m.layer2, n + cond)):
            assert layer.w.shape == (4 * n, k + n)
            for r in range(len(GATES)):
                rows = slice(r * n, (r + 1) * n)
                np.testing.assert_array_equal(layer.w[rows, :k], ref.uniform(-scale, scale, (n, k)))
                np.testing.assert_array_equal(layer.w[rows, k:], ref.uniform(-scale, scale, (n, n)))
            np.testing.assert_array_equal(layer.b, np.repeat([0.0, 0.5, 0.0, 0.0], n))
        np.testing.assert_array_equal(m.w_v, ref.uniform(-scale, scale, (d, n)))
        np.testing.assert_array_equal(m.b_v, 0.0)


class TestForwardStep:
    def test_zero_parameters_give_uniform_distribution(self):
        v = make_vocab(6)
        w_e = np.random.default_rng(0).normal(size=(5, 6))
        m = CaptionModel.build(v, w_e, 3, 2, rng=None, init_scale=0.0, forget_bias=0.0)
        state = m.initial_state()
        np.testing.assert_allclose(m.log_probs(state)[0], math.log(1 / 6), atol=1e-12)

    def test_identical_embedding_columns_get_identical_logits(self, rng):
        v = make_vocab(5)
        w_e = rng.normal(size=(6, 5))
        w_e[:, 3] = w_e[:, 1]
        m = CaptionModel.build(v, w_e, 3, 2, rng=rng)
        state = m.initial_state(rng.normal(size=2))
        for w in (0, 2, 1):
            assert m.log_probs(state)[0][3] == m.log_probs(state)[0][1]
            state, _ = m.step(state, w)

    def test_distribution_sums_and_unrolled_agreement(self, rng):
        v, m = tiny_model(rng, vocab_size=7)
        cond = rng.normal(size=2)
        seq = [0, 3, 1, 5, v.eos]
        state = m.initial_state(cond)
        stepped = 0.0
        for w in seq:
            assert abs(np.exp(m.log_probs(state)[0]).sum() - 1.0) < 1e-6
            stepped += float(m.log_probs(state)[0][w])
            state, _ = m.step(state, w)
        unrolled = -m.sequence_loss(seq, cond) * len(seq)
        assert stepped == pytest.approx(unrolled, abs=1e-10)

    def test_scorer_contract(self, rng):
        v, m = tiny_model(rng)
        scorer_contract_checks(m, conditioning=np.zeros(2), tol=1e-6)

    def test_state_keeps_its_own_conditioning(self, rng):
        v, m = tiny_model(rng)
        cond = rng.normal(size=2)
        state = m.initial_state(cond)
        before = m.step(state, 1)[1].tobytes()
        cond[:] = 5.0
        assert m.step(state, 1)[1].tobytes() == before

    def test_bad_conditioning(self, rng):
        v, m = tiny_model(rng)
        with pytest.raises(DataError):
            m.initial_state(np.zeros(5))
        with pytest.raises(DataError):
            m.initial_state(np.array([np.inf, 0.0]))


class TestSequenceLoss:
    def test_zero_model_loss_is_log_vocab_size(self, rng):
        for size in (5, 20):
            v = make_vocab(size)
            w_e = rng.normal(size=(6, size))
            m = CaptionModel.build(v, w_e, 3, 2, rng=None, init_scale=0.0, forget_bias=0.0)
            seq = [0, 1, 2, v.eos]
            assert m.sequence_loss(seq) == pytest.approx(math.log(size), abs=1e-12)

    def test_invariant_to_constant_logit_shift(self, rng):
        # w_e's last row is 7.5 in every column, and the projected unit that
        # reads it is tanh(0) = 0, then tanh(40) = 1.0 exactly: every logit
        # of the tied output layer gains 7.5 and nothing else changes
        v = make_vocab(5)
        w_e = rng.normal(size=(7, len(v)))
        w_e[-1] = 7.5
        m = CaptionModel.build(v, w_e, hidden_size=3, cond_dim=2, rng=rng, init_scale=0.4)
        m.w_v[-1] = 0.0
        cond = rng.normal(size=2)
        seq = [1, 2, v.eos]
        base, logits = m.sequence_loss(seq, cond), m.output_logits(m.initial_state(cond))
        m.b_v[-1] = 40.0
        np.testing.assert_allclose(
            m.output_logits(m.initial_state(cond)) - logits, 7.5, rtol=0, atol=1e-12
        )
        assert m.sequence_loss(seq, cond) == pytest.approx(base, abs=1e-12)

    def test_recomputable_from_step_outputs(self, rng):
        v, m = tiny_model(rng)
        cond = rng.normal(size=2)
        seq = [2, 0, 3, v.eos]
        state = m.initial_state(cond)
        contribs = []
        for w in seq:
            contribs.append(float(m.log_probs(state)[0][w]))
            state, _ = m.step(state, w)
        assert m.sequence_loss(seq, cond) == pytest.approx(
            -np.mean(contribs), abs=1e-12
        )

    def test_empty_sequence_rejected(self, rng):
        v, m = tiny_model(rng)
        with pytest.raises(DataError):
            m.sequence_loss([])

    def test_long_sequence_matches_step_outputs(self, rng):
        # the sequence pass at decode-like width: D=300, T=13
        v, m = tiny_model(rng, vocab_size=50, embed_dim=300, hidden=16)
        cond = rng.normal(size=2)
        seq = [int(x) for x in rng.integers(0, v.eos, size=12)] + [v.eos]
        state = m.initial_state(cond)
        contribs = []
        for w in seq:
            contribs.append(float(m.log_probs(state)[0][w]))
            state, _ = m.step(state, w)
        assert m.sequence_loss(seq, cond) == pytest.approx(-np.mean(contribs), abs=1e-12)

    @pytest.mark.parametrize("call", ["sequence_loss", "gradients"])
    @pytest.mark.parametrize("bad", [-1, "|V|"])
    def test_out_of_range_final_target_rejected(self, rng, call, bad):
        v, m = tiny_model(rng)
        bad = len(v) if bad == "|V|" else bad
        seq = [0, 1, bad]
        with pytest.raises(ContractError, match=f"token id {bad} "):
            if call == "sequence_loss":
                m.sequence_loss(seq)
            else:
                m.gradients([(seq, None)])

    def test_non_finite_weight_raises_numeric_error(self, rng):
        v, m = tiny_model(rng)
        m.layer2.w[1, 2] = np.nan
        seq = [0, 1, v.eos]
        with pytest.raises(NumericError):
            m.sequence_loss(seq)
        with pytest.raises(NumericError):
            m.gradients([(seq, None)])


class TestGradients:
    def test_embedding_matrix_has_no_gradient_entry(self, rng):
        v, m = tiny_model(rng)
        grads, _ = m.gradients([([0, 1, v.eos], None)])
        assert "w_e" not in grads
        assert set(grads) == set(m.trainable())

    def test_matches_finite_differences(self, rng):
        v, m = tiny_model(rng, vocab_size=5, embed_dim=6, hidden=3, cond=2)
        seq = [1, 0, 2, v.eos]
        worst = finite_difference_check(m, seq, rng.normal(size=2))
        assert worst < 1e-4

    def test_long_sequence_matches_finite_differences(self, rng):
        # nine steps of BPTT through the stacked gate deltas
        v, m = tiny_model(rng, vocab_size=5, embed_dim=6, hidden=3, cond=2)
        seq = [1, 0, 2, 3, 1, 1, 0, 2, v.eos]
        worst = finite_difference_check(m, seq, rng.normal(size=2))
        assert worst < 1e-4

    def test_duplicated_sequence_leaves_mean_unchanged(self, rng):
        v, m = tiny_model(rng)
        cond = rng.normal(size=2)
        pair = ([0, 2, v.eos], cond)
        other = ([3, v.eos], None)
        once, _ = m.gradients([pair, other])
        twice, _ = m.gradients([pair, pair, other, other])
        for name in once:
            np.testing.assert_allclose(twice[name], once[name], atol=1e-12, rtol=0)

    def test_empty_batch_rejected(self, rng):
        v, m = tiny_model(rng)
        with pytest.raises(DataError):
            m.gradients([])


class TestTrain:
    def make_corpus(self, v, rng, n=12):
        others = [i for i in range(len(v)) if i != v.eos]
        corpus = []
        for _ in range(n):
            seq = [int(rng.choice(others)) for _ in range(int(rng.integers(2, 5)))]
            corpus.append((seq + [v.eos], None))
        return corpus

    def test_zero_learning_rate_is_identity(self, rng):
        v, m = tiny_model(rng)
        corpus = self.make_corpus(v, rng)
        before = {k: a.copy() for k, a in m.trainable().items()}
        report = train(m, corpus, lr=0.0, epochs=3, seed=0)
        for k, a in m.trainable().items():
            np.testing.assert_array_equal(a, before[k])
        assert report.losses == [report.initial] * 4

    def test_loss_decreases_and_embeddings_frozen(self, rng):
        v, m = tiny_model(rng, vocab_size=8, hidden=6)
        corpus = self.make_corpus(v, rng, n=16)
        w_e_bytes = m.w_e.tobytes()
        report = train(m, corpus, lr=0.4, epochs=30, seed=3)
        assert report.final < report.initial
        assert m.w_e.tobytes() == w_e_bytes

    def test_huge_learning_rate_stays_finite(self, rng):
        # the saturating projection bounds the logits, so even absurd rates
        # cannot push the loss to non-finite values; they just train badly
        v, m = tiny_model(rng)
        corpus = self.make_corpus(v, rng, n=4)
        report = train(m, corpus, lr=1e9, epochs=3, seed=0)
        assert all(math.isfinite(x) for x in report.losses)

    def test_non_finite_parameters_abort_with_diagnostics(self, rng):
        v, m = tiny_model(rng)
        corpus = self.make_corpus(v, rng, n=4)
        m.w_v[0, 0] = np.nan
        with pytest.raises(NumericError):
            train(m, corpus, lr=0.1, epochs=1, seed=0)

    def test_fixed_seed_reproducible(self, rng):
        results = []
        for _ in range(2):
            gen = np.random.default_rng(42)
            v, m = tiny_model(gen)
            corpus = self.make_corpus(v, gen)
            report = train(m, corpus, lr=0.3, epochs=5, seed=9)
            results.append((report.losses, {k: a.copy() for k, a in m.trainable().items()}))
        assert results[0][0] == results[1][0]
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])

    def test_one_token_sequence_trains(self, rng):
        v, m = tiny_model(rng)
        corpus = [([v.eos], None), ([v.eos], np.ones(2))]
        report = train(m, corpus, lr=0.5, epochs=5, seed=0)
        assert report.final < report.initial
        assert report.final == pytest.approx(
            np.mean([-m.log_probs(m.initial_state(c))[0][v.eos] for _, c in corpus]), abs=1e-12
        )


BATCH_EOS = 6


def batch_model():
    """The fixed tiny model of the batched-pass property: |V| = 7, D = 5, N = 3, C = 2."""
    return tiny_model(np.random.default_rng(41), vocab_size=7, embed_dim=5)[1]


def assert_grads_close(got, want):
    assert set(got) == set(want)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], atol=1e-12, rtol=0, err_msg=name)


_pairs = st.tuples(
    st.lists(st.integers(0, BATCH_EOS - 1), max_size=11).map(lambda s: s + [BATCH_EOS]),
    st.one_of(
        st.none(),
        st.lists(st.floats(-2, 2), min_size=2, max_size=2).map(np.array),
    ),
)


class TestBatchedPass:
    """`gradients` and `batch_losses` pad a batch to one (T x B) block; the
    result must be the one-sequence-at-a-time result, up to summation order."""

    @given(batch=st.lists(_pairs, min_size=1, max_size=9))
    @example(batch=[([BATCH_EOS], None)])
    @example(batch=[([1, 2, 3, BATCH_EOS], np.array([0.5, -1.0])), ([BATCH_EOS], None)])
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_one_sequence_at_a_time(self, batch):
        m = batch_model()
        grads, loss = m.gradients(batch)
        singles = [m.gradients([pair]) for pair in batch]
        assert_grads_close(
            grads, {name: np.mean([g[name] for g, _ in singles], axis=0) for name in grads}
        )
        losses = m.batch_losses(batch)
        assert losses.shape == (len(batch),)
        for got, pair in zip(losses, batch):
            assert abs(got - m.sequence_loss(*pair)) <= 1e-12
        assert abs(loss - np.mean(losses)) <= 1e-12

    def test_padding_does_not_leak_into_a_short_sequence(self, rng):
        v, m = tiny_model(rng)
        short = ([2, v.eos], rng.normal(size=2))
        long = ([1, 3, 0, 2, 1, 3, 0, v.eos], None)
        alone = m.sequence_loss(*short)
        g_short, g_long = m.gradients([short])[0], m.gradients([long])[0]
        mean = {name: (g_short[name] + g_long[name]) / 2 for name in g_short}
        for batch, at in (([short, long], 0), ([long, short], 1)):
            assert abs(m.batch_losses(batch)[at] - alone) <= 1e-12
            assert_grads_close(m.gradients(batch)[0], mean)

    @pytest.fixture
    def forward_calls(self, monkeypatch):
        calls = []
        layer_sequence = neural._layer_sequence
        monkeypatch.setattr(
            neural, "_layer_sequence", lambda *a: calls.append(a) or layer_sequence(*a)
        )
        return calls

    @pytest.mark.parametrize("call", ["batch_losses", "gradients"])
    @pytest.mark.parametrize("bad", [-1, "|V|"])
    def test_out_of_range_token_in_a_later_sequence(self, rng, forward_calls, call, bad):
        v, m = tiny_model(rng)
        bad = len(v) if bad == "|V|" else bad
        batch = [([0, 1, v.eos], None), ([2, v.eos], None), ([1, bad, v.eos], None)]
        with pytest.raises(ContractError, match=f"token id {bad} "):
            getattr(m, call)(batch)
        assert forward_calls == []

    @pytest.mark.parametrize("call", ["batch_losses", "gradients"])
    @pytest.mark.parametrize("defect", ["empty sequence", "conditioning shape"])
    def test_bad_sequence_in_the_middle(self, rng, forward_calls, call, defect):
        v, m = tiny_model(rng)
        middle = ([], None) if defect == "empty sequence" else ([1, v.eos], np.zeros(3))
        batch = [([0, 1, v.eos], rng.normal(size=2)), middle, ([2, v.eos], None)]
        with pytest.raises(DataError):
            getattr(m, call)(batch)
        assert forward_calls == []

    def test_non_finite_weight_raises_from_batch_losses(self, rng):
        v, m = tiny_model(rng)
        m.layer2.w[1, 2] = np.nan
        with pytest.raises(NumericError):
            m.batch_losses([([0, 1, v.eos], None), ([2, v.eos], rng.normal(size=2))])

    def test_bad_last_sequence_raises_from_the_initial_loss_pass(self, rng):
        v, m = tiny_model(rng)
        corpus = [([0, 2, 1, v.eos], None), ([3, v.eos], None)] * 4 + [([1, len(v), v.eos], None)]
        before = {name: a.tobytes() for name, a in m.trainable().items()}
        with pytest.raises(ContractError, match=f"token id {len(v)} "):
            train(m, corpus, lr=0.5, epochs=2, batch_size=4, seed=0)
        assert {name: a.tobytes() for name, a in m.trainable().items()} == before


def assert_same_parameters(got, want):
    for name, a in want.trainable().items():
        assert got.trainable()[name].tobytes() == a.tobytes(), name


def bench_shaped(seed):
    """A fresh model and corpus at the `neural-train` benchmark's shapes:
    |V| = 3000, D = 300, H = 128, 16 conditioning values, and 128 Zipf
    sequences of 6-12 words plus EOS, each with its own conditioning."""
    rng = np.random.default_rng(seed)
    v = make_vocab(3000)
    m = CaptionModel.build(v, rng.normal(scale=0.3, size=(300, len(v))), 128, 16, rng=rng)
    words = np.minimum(rng.zipf(1.1, size=(128, 12)), v.eos) - 1
    lengths = rng.integers(6, 13, size=128)
    return m, [
        (words[i, : lengths[i]].tolist() + [v.eos], rng.normal(size=16)) for i in range(128)
    ]


# (defect, the corpus's last pair given the vocabulary, what `train` raises);
# each message is the one `train` gave when its loss pass ran in corpus order
MALFORMED_LAST = [
    ("empty sequence", lambda v: ([], None),
     DataError("cannot score an empty batch or sequence")),
    ("token id out of range", lambda v: ([1, len(v), v.eos], None),
     ContractError("token id 5 out of range for |V|=5")),
    ("conditioning of the wrong shape", lambda v: ([1, v.eos], np.zeros(3)),
     DataError("conditioning vector has shape (3,), expected (2,)")),
    ("non-finite conditioning", lambda v: ([1, v.eos], np.array([np.nan, 0.0])),
     DataError("conditioning vector contains non-finite values")),
]


class TestLossPass:
    """`train`'s loss passes score the corpus sorted by length, in chunks of
    16 sequences whatever the batch size is. Updates never read them, so
    trained weights are the ones of loss passes in `batch_size` chunks of the
    corpus in order (`oracles.reference_train`), and so are the reported
    losses wherever a sequence's loss does not depend on its chunk."""

    @given(
        size=st.sampled_from([5, 8, 13, 16]),
        lengths=st.lists(st.integers(1, 15), min_size=1, max_size=40),
        batch_size=st.integers(1, 9),
        epochs=st.integers(0, 2),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_weights_are_those_of_the_corpus_order_loss_pass(self, size, lengths, batch_size, epochs, seed):
        rng = np.random.default_rng(seed)
        v, m = tiny_model(rng, vocab_size=size)
        corpus = [
            (rng.integers(0, v.eos, size=n - 1).tolist() + [v.eos],
             rng.normal(size=2) if rng.random() < 0.5 else None)
            for n in lengths
        ]
        ref = copy.deepcopy(m)
        report = train(m, corpus, lr=0.5, epochs=epochs, batch_size=batch_size, seed=seed)
        want = reference_train(ref, corpus, 0.5, epochs, batch_size, seed)
        assert_same_parameters(m, ref)
        assert len(report.losses) == len(want)
        for got, expected in zip(report.losses, want):
            assert abs(got - expected) <= 1e-12

    @pytest.mark.parametrize("batch_size", [1, 3, 8, 16, 50])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 40])
    def test_one_pass_makes_one_call_per_16_sequences(self, monkeypatch, n, batch_size):
        rng = np.random.default_rng(n)
        v, m = tiny_model(rng)
        corpus = [(rng.integers(0, v.eos, size=rng.integers(0, 9)).tolist() + [v.eos], None)
                  for _ in range(n)]
        chunks = []
        batch_losses = m.batch_losses
        monkeypatch.setattr(
            m, "batch_losses", lambda batch: chunks.append(batch) or batch_losses(batch)
        )
        train(m, corpus, lr=0.5, epochs=0, batch_size=batch_size)
        assert len(chunks) == math.ceil(n / 16)
        assert all(len(chunk) == 16 for chunk in chunks[:-1])
        # the stable length order: each chunk's pairs are corpus pairs
        assert [pair for chunk in chunks for pair in chunk] == sorted(corpus, key=lambda p: len(p[0]))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_reported_losses_at_the_bench_shapes(self, seed):
        m, corpus = bench_shaped(seed)
        ref = copy.deepcopy(m)
        report = train(m, corpus, lr=0.3, epochs=1, batch_size=8, seed=seed)
        assert report.losses == reference_train(ref, corpus, 0.3, 1, 8, seed)
        assert_same_parameters(m, ref)
        # scored one sequence at a time, a row takes GEMV's bits, not GEMM's
        alone = reference_train(ref, corpus, 0.3, 0, 1, seed)[0]
        assert abs(train(m, corpus, lr=0.3, epochs=0).initial - alone) <= 4e-15

    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    @pytest.mark.parametrize(
        "defect, last, error", MALFORMED_LAST, ids=[d for d, _, _ in MALFORMED_LAST]
    )
    def test_malformed_last_sequence_keeps_its_error(self, rng, defect, last, error, batch_size):
        v, m = tiny_model(rng)
        corpus = [(rng.integers(0, v.eos, size=n).tolist() + [v.eos], rng.normal(size=2))
                  for n in rng.integers(0, 9, size=20)]
        before = copy.deepcopy(m)
        with pytest.raises(type(error)) as raised:
            train(m, corpus + [last(v)], lr=0.5, epochs=2, batch_size=batch_size)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        assert_same_parameters(m, before)


class TestCheckpoint:
    def test_round_trip_bitwise(self, rng, tmp_path):
        v, m = tiny_model(rng)
        path = tmp_path / "model.npz"
        save_checkpoint(m, path, seed=11)
        m2 = load_checkpoint(path)
        assert m2.vocab == m.vocab
        np.testing.assert_array_equal(m2.w_e, m.w_e)
        for k, a in m.trainable().items():
            np.testing.assert_array_equal(m2.trainable()[k], a)
        cond = np.array([0.1, -0.4])
        s1, s2 = m.initial_state(cond), m2.initial_state(cond)
        np.testing.assert_array_equal(m.log_probs(s1)[0], m2.log_probs(s2)[0])

    @pytest.mark.parametrize(
        "defect", ["version 0", "version 1", "version 3", "no array layer2.w", "no meta vocab"]
    )
    def test_unknown_version_or_missing_entry_is_data_error(self, rng, tmp_path, defect):
        v, m = tiny_model(rng)
        path = tmp_path / "model.npz"
        save_checkpoint(m, path)
        with np.load(path) as data:
            arrays = dict(data)
        meta = json.loads(str(arrays["__meta__"][()]))
        kind, key = defect.rsplit(" ", 1)
        if kind == "version":
            meta["version"] = int(key)
        elif kind == "no array":
            del arrays[key]
        else:
            del meta[key]
        arrays["__meta__"] = np.array(json.dumps(meta))
        np.savez(path, **arrays)
        with pytest.raises(DataError):
            load_checkpoint(path)

    def test_damaged_member_is_data_error(self, rng, tmp_path):
        """A byte flipped inside the archive: np.load opens it and reading
        an array raises zipfile.BadZipFile."""
        v, m = tiny_model(rng)
        path = tmp_path / "model.npz"
        save_checkpoint(m, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(DataError, match="malformed checkpoint"):
            load_checkpoint(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(DataError):
            load_checkpoint(path)


class TestDecodeAfterTraining:
    def test_greedy_decode_reproduces_majority_pattern(self):
        rng = np.random.default_rng(5)
        v = Vocabulary.from_tokens(["the", "cat", "sat", "dog", "ran"])
        pattern = v.encode(["the", "cat", "sat"]) + [v.eos]
        rare = v.encode(["the", "dog", "ran"]) + [v.eos]
        corpus = [(pattern, None)] * 9 + [(rare, None)]
        w_e = rng.uniform(-1, 1, size=(10, len(v)))
        m = CaptionModel.build(v, w_e, hidden_size=8, cond_dim=1, rng=rng)
        train(m, corpus, lr=0.5, epochs=40, seed=1)
        best = beam_search(m, SearchParams(beam_size=1, max_len=6))
        assert list(best.tokens) == pattern


# (embedding dim, hidden size, conditioning dim, |V|): a tiny model, and the
# shapes of the neural-novel benchmark
DECODE_SHAPES = {"tiny": (5, 4, 2, 9), "bench": (300, 128, 16, 5064)}
STATE_ARRAYS = ("log_probs", "h1", "c1", "h2", "c2")


def random_decode_model(d, n, cond, size, seed):
    rng = np.random.default_rng(seed)
    w_e = rng.normal(size=(d, size))
    return CaptionModel.build(make_vocab(size), w_e, n, cond, rng=rng, init_scale=0.2)


@pytest.fixture(scope="module", params=sorted(DECODE_SHAPES))
def shaped_model(request):
    return random_decode_model(*DECODE_SHAPES[request.param], seed=3)


def assert_same_bits(got, want, fields=STATE_ARRAYS):
    """Equal bits in the named arrays of two 1-row states."""
    def arrays(state):
        return dict(zip(STATE_ARRAYS, (state.owner.log_probs(state)[0], *state.rows)))

    got, want = arrays(got), arrays(want)
    for name in fields:
        assert got[name].tobytes() == want[name].tobytes(), name


# (embedding dim, hidden size, conditioning dim) for the wide-batch checks: the
# neural-novel shapes, whose LSTM GEMMs are one TILE wide, and the `train-lm`
# default hidden size at a 20-dim embedding, whose LSTM GEMMs are narrower
WIDE_DIMS = {"bench": (300, 128, 16), "cli": (20, 32, 2)}


def h2_state(m, h2):
    """A decode state of `m` whose top-layer rows are `h2`: all that the tied
    output layer reads."""
    z = np.zeros_like(h2)
    return DecodeState(m, (z, z, h2, z, np.zeros((len(h2), m.cond_dim))))


@functools.cache
def wide_model(dims, size):
    """A model with the `WIDE_DIMS[dims]` shapes and |V| = `size`."""
    return random_decode_model(*WIDE_DIMS[dims], size, seed=size)


def check_rows_alone(m, b, rng):
    """Two steps of b hypotheses: each row of `advance` equals the row its
    state and token give stepped alone."""
    states = stack_states([m.initial_state(rng.normal(size=m.cond_dim)) for _ in range(b)])
    for _ in range(2):
        tokens = rng.integers(0, m.vocab_size, size=b).tolist()
        batch = m.advance(states, range(b), tokens)
        for i, w in enumerate(tokens):
            assert_same_bits(take(batch, [i]), m.step(take(states, [i]), w)[0])
        states = batch


def run_at_blas_threads(threads, node):
    """pytest's stdout from running `node` of this file in a fresh interpreter
    with `threads` BLAS threads, asserting that it passed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{Path(__file__).name}::{node}"],
        cwd=Path(__file__).parent, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]
    return run.stdout


class TestBatchedStep:
    """A state's arrays must not depend on its batch, its position in it, or
    |V|. OpenBLAS 0.3.31 with its SkylakeX kernels picks a GEMM's kernel from
    its shape and thread count, so `advance` pads every GEMM to a safe shape
    (see `neural.ROWS`):
    - every GEMM runs over rows zero-padded up to ROWS, since a lone row
      takes GEMV;
    - a GEMM a whole number of TILE columns wide, such as both LSTM layers
      at the neural-novel shapes (4 x 128 columns), runs over all the rows
      at once;
    - the tied projection runs over all the rows, on w_e's whole groups of
      8 columns and on its last |V| mod 8 columns, zero-padded to 8;
    - any other width, such as `w_v` (300 columns) or the LSTM layers of
      small models, runs one ROWS-row block at a time, since a GEMM's last
      N mod 8 columns, and every column of a small GEMM, get bits that
      change with its row count.
    A plain GEMM over the batch, or over all of w_e, breaks the property.
    The bench-shape and wide-batch checks run again in a fresh interpreter
    at 1 and 2 BLAS threads, because a process fixes its thread count when
    it loads numpy."""

    @given(b=st.integers(1, 3 * ROWS + 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_advance_rows_bit_identical_to_stepping_alone(self, shaped_model, b, seed):
        check_rows_alone(shaped_model, b, np.random.default_rng(seed))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bench_shape_bits_at_blas_thread_count(self, threads):
        # the property above at bench shapes
        node = "TestBatchedStep::test_advance_rows_bit_identical_to_stepping_alone[bench]"
        assert "1 passed" in run_at_blas_threads(threads, node)

    @pytest.mark.parametrize("b", [33, 40, 41])
    @pytest.mark.parametrize("dims", sorted(WIDE_DIMS))
    def test_wide_batch_rows_bit_identical_to_stepping_alone(self, dims, b):
        # the bench reaches 34 live rows, and beam 5 over 8 FSM states 40
        check_rows_alone(wide_model(dims, 5064), b, np.random.default_rng(b))

    # 0, 1, 2 and 9 whole tiles of w_e, and every tail width mod 8
    @pytest.mark.parametrize("size", [20, 509, 511, 516, 517, 1029, 5064])
    @pytest.mark.parametrize("dims", sorted(WIDE_DIMS))
    @given(b=st.integers(1, 5 * ROWS + 1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_step_rows_bit_equal_to_reference_kernels(self, dims, size, b, seed):
        m = wide_model(dims, size)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(b, m.embed_dim))
        h1, c1, h2, c2 = rng.uniform(-1, 1, size=(4, b, m.hidden_size))
        cond = rng.normal(size=(b, m.cond_dim))
        got = m._step_rows(x, h1, c1, h2, c2, cond)
        want = reference_step_rows(m, x, h1, c1, h2, c2, cond)
        for name, g, w in zip(STATE_ARRAYS, (m.log_probs(got), *got.rows), want):
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("test, count", [
        ("test_wide_batch_rows_bit_identical_to_stepping_alone", 6),
        ("test_step_rows_bit_equal_to_reference_kernels", 14),
    ])
    def test_wide_shapes_at_blas_thread_count(self, test, count, threads):
        assert f"{count} passed" in run_at_blas_threads(threads, f"TestBatchedStep::{test}")

    @pytest.mark.parametrize("d", [5, 300])
    @pytest.mark.parametrize("size, added", [(20, 5), (511, 3), (1024, 2), (5064, 64)])
    def test_expansion_keeps_old_output_logits_bits(self, d, size, added):
        m = random_decode_model(d, 6, 2, size, seed=size + d)
        rng = np.random.default_rng(size)
        big = m.with_expanded_columns(
            [f"new{i}" for i in range(added)], rng.normal(size=(added, d))
        )
        cond = rng.normal(size=2)
        old, new = m.initial_state(cond), big.initial_state(cond)
        for _ in range(3):
            for s_old, s_new in ((take(old, [i]), take(new, [i])) for i in range(len(old))):
                assert big.output_logits(s_new)[0, :size].tobytes() == m.output_logits(s_old)[0].tobytes()
                assert_same_bits(s_new, s_old, ("h1", "c1", "h2", "c2"))
            tokens = rng.integers(0, size - 1, size=len(old) + ROWS // 2 + 1).tolist()
            parents = [i % len(old) for i in range(len(tokens))]
            old = m.advance(old, parents, tokens)
            new = big.advance(new, parents, tokens)

    # every residue of |V| mod 8, at one tile and at the bench's ten tiles
    @pytest.mark.parametrize("size", [*range(512, 520), *range(5064, 5072)])
    @pytest.mark.parametrize("d", [20, 300])
    def test_tied_logits_bit_equal_to_reference_at_every_tail_width(self, d, size):
        # w_e's whole groups of 8 columns plus its zero-padded tail, rows padded
        # only up to ROWS, give the bits of one 8-row block per 512-column tile
        m = random_decode_model(d, 6, 2, size, seed=size + d)
        rng = np.random.default_rng(size)
        for b in [*range(1, 5 * ROWS + 2), 200, 737]:
            h2 = rng.uniform(-1, 1, size=(b, m.hidden_size))
            assert m.output_logits(h2_state(m, h2)).tobytes() == reference_tied_logits(m, h2).tobytes(), b

    def test_whole_tile_lstm_gemms_bit_equal_to_blocked(self):
        m = wide_model("bench", 5064)
        rng = np.random.default_rng(7)
        for w in (m.layer1.w.T, m.layer2.w.T):
            assert w.shape[1] % neural.TILE == 0
            for b in range(1, 5 * ROWS + 2):
                a = rng.normal(size=(b, w.shape[0]))
                assert neural._row_gemm(a, w).tobytes() == _ref_blocked(a, w).tobytes(), b

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("test, count", [
        ("test_tied_logits_bit_equal_to_reference_at_every_tail_width", 32),
        ("test_whole_tile_lstm_gemms_bit_equal_to_blocked", 1),
    ])
    def test_true_width_shapes_at_blas_thread_count(self, test, count, threads):
        assert f"{count} passed" in run_at_blas_threads(threads, f"TestBatchedStep::{test}")


def traced_peak(fn, *args):
    """Peak bytes that numpy and Python allocate during `fn(*args)`."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepCopies:
    """The decode step runs the two LSTM layers only: `log_probs` makes the
    (B x |V|) log-prob block, and only when something reads it, so a search
    projects once per `top_k`, never for its last `advance`."""

    B = 13  # the rows of a typical neural-novel step

    def bench_batch(self):
        m = wide_model("bench", 5064)
        rng = np.random.default_rng(11)
        states = stack_states([m.initial_state(rng.normal(size=m.cond_dim)) for _ in range(self.B)])
        return m, states, rng.integers(0, m.vocab_size, size=self.B)

    def block(self, m):
        return self.B * m.vocab_size * 8

    def test_tied_logits_peak_below_one_and_a_half_blocks(self):
        m = wide_model("bench", 5064)
        h2 = np.random.default_rng(3).uniform(-1, 1, size=(self.B, m.hidden_size))
        assert traced_peak(m.output_logits, h2_state(m, h2)) < 1.5 * self.block(m)

    def test_advance_allocates_less_than_one_block(self):
        m, states, tokens = self.bench_batch()
        assert traced_peak(m.advance, states, range(self.B), tokens) < self.block(m)

    def test_advance_then_top_k_peaks_below_three_and_a_half_blocks(self):
        # 3.5 blocks is the peak of `advance` alone when it made the block
        m, states, tokens = self.bench_batch()
        listed = np.arange(0, m.vocab_size, 700)

        def step():
            m.top_k(m.advance(states, range(self.B), tokens), 11, listed)

        assert traced_peak(step) < 3.5 * self.block(m)

    @pytest.mark.parametrize("max_len", [1, 3, 8])
    def test_search_projects_once_per_step(self, monkeypatch, max_len):
        m = random_decode_model(*DECODE_SHAPES["tiny"], seed=5)
        calls = []
        original = CaptionModel.output_logits
        monkeypatch.setattr(
            CaptionModel, "output_logits",
            lambda self, state: calls.append(len(state)) or original(self, state),
        )
        *_, steps = _run_search(m, trivial_fsm(m.vocab_size), SearchParams(beam_size=3, max_len=max_len))
        assert steps >= 1 and len(calls) == steps
