"""Workload runners: set-up, a closed measurement loop with one caller, the
output checks, and the traced per-layer split.

Each decode input goes through the call sequence `cbsdecode decode` runs per
input: fsm.parse_constraint_spec -> fsm.compile_spec ->
search.constrained_beam_search -> DecodeResult.to_dict + json.dumps.
Training goes through embeddings.load_embeddings ->
embeddings.build_caption_model -> neural.train, as `train-lm` does.
"""

from __future__ import annotations

import copy
import json
import resource
import statistics
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from cbsdecode import embeddings, fsm, neural, scorers, search
from cbsdecode.vocab import Vocabulary

from checks import (
    Digest,
    check_decode,
    check_embeddings_frozen,
    check_losses,
    ngram_rescorer,
)
from tracing import Tracer
from workloads import Workload

SETUP_REPEATS = 3
KEEP_SPAN_OPS = 16  # ops whose spans a traced run writes out
NGRAM_ORDER = 2
NGRAM_ALPHA = 0.1
TRAIN_LR = 0.3
TRAIN_BATCH = 8
SEARCH = dict(beam_size=5, max_len=16, no_repeat=True)

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "nll_per_token": "nats",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "fsm.parse_ms": "ms",
    "fsm.compile_ms": "ms",
    "fsm.states": "count",
    "search.self_ms": "ms",
    "search.to_dict_ms": "ms",
    "scorers.step_ms": "ms",
    "scorers.step_calls": "count",
    "scorers.initial_state_ms": "ms",
    "neural.step_ms": "ms",
    "neural.step_calls": "count",
    "neural.step_us_per_call": "us",
    "neural.initial_state_ms": "ms",
    "neural.projection_mb": "MB",
    "neural.gradients_ms": "ms",
    "neural.loss_eval_ms": "ms",
    "neural.update_ms": "ms",
    "neural.train_tokens": "count",
    "neural.warmup_s": "s",
    "embeddings.load_s": "s",
    "embeddings.expand_s": "s",
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
}


class Api:
    """The library entry points the benchmark calls; traced when a tracer is
    given, the plain functions otherwise."""

    CALLS = (
        fsm.parse_constraint_spec,
        fsm.compile_spec,
        search.constrained_beam_search,
        search.DecodeResult.to_dict,
        json.dumps,
        scorers.ngram_train,
        embeddings.load_embeddings,
        embeddings.build_caption_model,
        embeddings.load_expansion_manifest,
        embeddings.apply_expansion_manifest,
        neural.train,
    )

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for fn in self.CALLS:
            span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            setattr(self, fn.__name__, fn if tracer is None else tracer.wrap(fn, span_name))

    @contextmanager
    def op(self, op_id, root: str):
        if self.tracer is None:
            yield
        else:
            with self.tracer.op(op_id, root):
                yield

    @contextmanager
    def callbacks(self, model, *methods: str):
        """Trace the given methods of `model`, which the library calls back
        (the scorer steps of a search, the batches of `train`)."""
        if self.tracer is None:
            yield
            return
        layer = _layer(model)
        with self.tracer.instance_wrapped(model, {m: f"{layer}.{m}" for m in methods}):
            yield


def _layer(model) -> str:
    """The module whose code a scorer's callbacks run."""
    return "neural" if isinstance(model, neural.CaptionModel) else "scorers"


@dataclass
class Tally:
    """Operations attempted and failed; keeps the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, op_id, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{op_id}: {'; '.join(failures)}")


@dataclass
class Result:
    workload: str
    trace: bool
    tally: Tally
    metrics: dict[str, float]
    digest: str
    info: dict
    spans: Tracer | None = None  # the traced run's spans, to write out

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0

    def metric_units(self) -> dict[str, str]:
        return PER_LAYER if self.trace else END_TO_END


def _crash(exc: BaseException) -> list[str]:
    return [f"raised {type(exc).__name__}: {exc} | {traceback.format_exc(limit=3)!r}"]


def _pct(values, q: int) -> float:
    """q-th percentile by the exclusive method of statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_setup(setup_once, tally: Tally, traced: bool):
    """Set up SETUP_REPEATS times from scratch; the last state is measured.
    Returns (state, median wall seconds, median per-layer set-up metrics)."""
    walls, layers, state = [], [], None
    for rep in range(SETUP_REPEATS):
        tracer = Tracer() if traced else None
        api = Api(tracer)
        t0 = perf_counter()
        with api.op(f"setup-{rep}", "setup"):
            state, failures = setup_once(api)
        walls.append(perf_counter() - t0)
        tally.record(f"setup-{rep}", failures)
        if tracer is not None:
            t = tracer.total_s
            layers.append({
                "neural.warmup_s": t.get("neural.train", 0.0),
                "embeddings.load_s": t.get("embeddings.load_embeddings", 0.0),
                "embeddings.expand_s": t.get("embeddings.apply_expansion_manifest", 0.0),
            })
    setup_layers = {k: statistics.median(d[k] for d in layers) for k in layers[0]} if layers else {}
    return state, statistics.median(walls), setup_layers


# decode workloads


@dataclass
class Decoder:
    scorer: object
    vocab: Vocabulary
    rescore: Callable  # (tokens, features) -> chain-rule log probability


def _decode_op(api: Api, st: Decoder, inp, params) -> tuple[object, str]:
    """One input through the `decode` call sequence; returns (machine, line)."""
    spec = api.parse_constraint_spec(inp.spec, st.vocab)
    machine = api.compile_spec(spec, st.vocab)
    conditioning = None
    if inp.features is not None:
        conditioning = np.asarray(inp.features, dtype=np.float64)
    with api.callbacks(st.scorer, "step", "initial_state"):
        result = api.constrained_beam_search(st.scorer, machine, params, conditioning)
    line: dict = {"id": inp.id}
    line.update(api.to_dict(result, st.vocab))
    return machine, api.dumps(line)


def _setup_ngram(wl: Workload, params):
    def once(api: Api):
        vocab = Vocabulary(wl.words)
        corpus = [vocab.encode(s) + [vocab.eos] for s in wl.corpus]
        model = api.ngram_train(corpus, order=NGRAM_ORDER, alpha=NGRAM_ALPHA, vocab=vocab)
        rescore_tokens = ngram_rescorer(model)
        st = Decoder(model, vocab, lambda tokens, _features: rescore_tokens(tokens))
        # cache warm-up: one pass over the inputs fills the model's row cache
        for inp in wl.inputs:
            _decode_op(api, st, inp, params)
        return st, []

    return once


def _build_model(api: Api, wl: Workload):
    """load_embeddings -> build_caption_model, as `train-lm` does, plus the
    encoded corpus paired with its conditioning vectors."""
    p = wl.params
    vocab = Vocabulary(wl.words)
    table, missing = api.load_embeddings(wl.embeddings_path, needed=vocab.tokens)
    failures = [f"words missing from the vector file: {missing[:5]}"] if missing else []
    model = api.build_caption_model(
        vocab, table, p["hidden"], p["cond"], rng=np.random.default_rng(wl.model_seed)
    )
    pairs = [
        (vocab.encode(s) + [vocab.eos], np.asarray(f))
        for s, f in zip(wl.corpus, wl.corpus_features)
    ]
    return model, pairs, failures


def _train(train, model, pairs, epochs: int, wl: Workload):
    """One `train` call with the CLI's settings for this benchmark."""
    return train(model, pairs, lr=TRAIN_LR, epochs=epochs, batch_size=TRAIN_BATCH,
                 seed=wl.model_seed, log_every=25)


def _setup_neural_novel(wl: Workload):
    p = wl.params

    def once(api: Api):
        model, pairs, failures = _build_model(api, wl)
        frozen = model.w_e.tobytes()
        report = _train(api.train, model, pairs, p["warmup_epochs"], wl)
        failures += check_embeddings_frozen(frozen, model.w_e)
        failures += check_losses(report.losses, None)
        words = api.load_expansion_manifest(wl.manifest_path)
        novel, missing = api.load_embeddings(wl.embeddings_path, needed=words)
        if missing:
            failures.append(f"manifest words missing from the vector file: {missing[:5]}")
        model, records = api.apply_expansion_manifest(model, words, novel)
        base = len(wl.words)
        if [r.token_id for r in records] != list(range(base, base + len(words))):
            failures.append("expanded words did not get the next dense ids")

        def rescore(tokens, features):
            return scorers.sequence_logprob(model, tokens, np.asarray(features))

        return Decoder(model, model.vocab, rescore), failures

    return once


def run_decode(wl: Workload, seconds: float, traced: bool) -> Result:
    """Closed loop, one caller: decode the input pool in order, repeating it
    until `seconds` have passed and at least one full pass is done. The
    first pass is checked in full; later passes must repeat it exactly.

    The machines this runs on are shared, and another tenant can slow every
    kernel by tens of percent for a fraction of a second or for seconds. An
    input's latency is therefore the fastest of its repeats, which a slow
    spell does not move unless it covers every repeat; the percentiles are
    over inputs.

    Traced: each input runs untraced and then traced, so the pair gives the
    tracing overhead on the same work."""
    params = search.SearchParams(**SEARCH)
    tally = Tally()
    once = _setup_ngram(wl, params) if wl.name == "ngram-product" else _setup_neural_novel(wl)
    st, setup_s, setup_layers = _median_setup(once, tally, traced)

    tracer = Tracer(keep_ops=KEEP_SPAN_OPS) if traced else None
    plain, traced_api = Api(), Api(tracer) if traced else None
    pool = wl.inputs
    first: dict[int, str] = {}
    digest = Digest()
    nll, latencies, traced_latencies, states = [], [], [], []
    by_input: dict[int, list[float]] = {inp.id: [] for inp in pool}
    first_pass_calls: dict[str, int] = {}
    deadline = perf_counter() + seconds
    i = 0
    while i < len(pool) or perf_counter() < deadline:
        inp = pool[i % len(pool)]
        try:
            t0 = perf_counter()
            machine, line = _decode_op(plain, st, inp, params)
            latencies.append(perf_counter() - t0)
            by_input[inp.id].append(latencies[-1])
            if i < len(pool):
                failures = check_decode(
                    line, inp.spec, st.vocab, machine,
                    lambda tokens: st.rescore(tokens, inp.features),
                    params.max_len, params.no_repeat,
                )
                out = json.loads(line)
                digest.add(inp.id, out["status"], out["tokens"])
                if out["tokens"]:
                    nll.append(-out["logprob"] / len(out["tokens"]))
                first[inp.id] = line
                states.append(machine.num_states)
            else:
                failures = [] if line == first[inp.id] else ["output differs from the first pass"]
            if traced:
                with traced_api.op(inp.id, "decode"):
                    _, traced_line = _decode_op(traced_api, st, inp, params)
                traced_latencies.append(tracer.last_op_s)
                if traced_line != line:
                    failures.append("traced output differs from untraced output")
                if i == len(pool) - 1:
                    first_pass_calls = dict(tracer.calls)
        except Exception as exc:  # count the input as failed and go on
            failures = _crash(exc)
        tally.record(inp.id, failures)
        i += 1

    info = {
        "samples": len(latencies),
        "setup_repeats": SETUP_REPEATS,
        "inputs_in_pool": len(pool),
        "accepted_rate": _accepted_rate(first),
    }
    if not traced:
        per_input = [min(v) for v in by_input.values() if v]
        metrics = {
            "ops_per_s": len(per_input) / sum(per_input),
            "latency_p50_ms": statistics.median(per_input) * 1e3,
            "latency_p90_ms": _pct(per_input, 90) * 1e3,
            "nll_per_token": statistics.fmean(nll) if nll else float("nan"),
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        metrics = _decode_layers(tracer, st, first_pass_calls, len(pool), states,
                                 latencies, traced_latencies)
        metrics.update(setup_layers)
    return Result(wl.name, traced, tally, metrics, digest.hexdigest(), info, tracer)


def _accepted_rate(first: dict[int, str]) -> float:
    statuses = [json.loads(line)["status"] for line in first.values()]
    return sum(s == "accepted" for s in statuses) / len(statuses) if statuses else 0.0


def _decode_layers(tracer: Tracer, st, calls, pool_size, states, latencies, traced_latencies):
    n = tracer.ops
    tot, slf = tracer.total_s, tracer.self_s
    layer = _layer(st.scorer)
    step_calls = calls.get(f"{layer}.step", 0) / pool_size
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({
        "fsm.parse_ms": tot["fsm.parse_constraint_spec"] / n * 1e3,
        "fsm.compile_ms": tot["fsm.compile_spec"] / n * 1e3,
        "fsm.states": statistics.fmean(states),
        "search.self_ms": slf["search.constrained_beam_search"] / n * 1e3,
        "search.to_dict_ms": (tot["search.to_dict"] + tot["json.dumps"]) / n * 1e3,
        f"{layer}.step_ms": tot[f"{layer}.step"] / n * 1e3,
        f"{layer}.step_calls": step_calls,
        f"{layer}.initial_state_ms": tot[f"{layer}.initial_state"] / n * 1e3,
    })
    if layer == "neural":
        m["neural.step_us_per_call"] = tot["neural.step"] / max(1, tracer.calls["neural.step"]) * 1e6
        d, v = st.scorer.w_e.shape
        m["neural.projection_mb"] = step_calls * d * v * 8 / 1e6
    # self time of every span below the root: the work each layer did
    layered = sum(s for name, s in slf.items() if name != "decode")
    untraced = sum(latencies[: len(traced_latencies)])
    m["trace.overhead_pct"] = (sum(traced_latencies) - untraced) / untraced * 100
    m["trace.accounted_pct"] = layered / untraced * 100
    return m


# training workload


def run_train(wl: Workload, seconds: float, traced: bool) -> Result:
    """Closed loop, one caller: train a fresh copy of the set-up model for a
    fixed number of epochs, repeating until `seconds` have passed and at
    least one call is done. Every call must end at the same loss.

    Every call makes the same minibatches in the same order, so a call splits
    into the same pieces of work each time: the minibatch steps and the loss
    passes. As in `run_decode`, each piece is timed by its fastest repeat
    over the calls, and a call's time is the sum of its pieces.

    Traced: each call runs untraced and then traced, for the overhead."""
    p = wl.params
    tally = Tally()

    def once(api: Api):
        model, pairs, failures = _build_model(api, wl)
        return (model, pairs), failures

    (base, pairs), setup_s, setup_layers = _median_setup(once, tally, traced)
    epochs = p["epochs"]
    tokens = sum(len(seq) for seq, _ in pairs)
    tracer = Tracer(keep_ops=1) if traced else None
    traced_api = Api(tracer) if traced else None
    digest = Digest()
    walls, traced_walls, calls_pieces = [], [], []
    final = None
    deadline = perf_counter() + seconds
    call = 0
    while call == 0 or perf_counter() < deadline:
        failures = []
        try:
            model = copy.deepcopy(base)
            frozen = model.w_e.tobytes()
            events: list[tuple[str, float]] = []
            with _stamped(model, events):
                events.append(("start", perf_counter()))
                report = _train(neural.train, model, pairs, epochs, wl)
                events.append(("end", perf_counter()))
            walls.append(events[-1][1] - events[0][1])
            calls_pieces.append(_pieces(events))
            if calls_pieces[-1][0] != calls_pieces[0][0]:
                failures.append("the call's minibatches differ from the first call's")
            failures += check_embeddings_frozen(frozen, model.w_e)
            failures += check_losses(report.losses, final)
            if final is None:
                final = report.final
                digest.add(0, "trained", [repr(x) for x in report.losses])
            if traced:
                model = copy.deepcopy(base)
                with (
                    traced_api.op(call, "train"),
                    traced_api.callbacks(model, "gradients", "sequence_loss"),
                ):
                    traced_report = _train(traced_api.train, model, pairs, epochs, wl)
                traced_walls.append(tracer.last_op_s)
                if traced_report.losses != report.losses:
                    failures.append("traced training differs from untraced training")
        except Exception as exc:  # count the epochs as failed and go on
            failures = _crash(exc)
        for e in range(epochs):
            tally.record(f"call{call}.epoch{e}", failures)
        call += 1

    # the fastest repeat of each piece of work, over the calls
    kinds = calls_pieces[0][0] if calls_pieces else []
    best = [min(col) for col in zip(*(t for _, t in calls_pieces))]
    batch_latencies = [t for kind, t in zip(kinds, best) if kind == "gradients"]
    info = {
        "samples": len(batch_latencies),
        "repeats_per_sample": call,
        "setup_repeats": SETUP_REPEATS,
        "train_calls": call,
        "train_epoch_s": sum(best) / epochs,
        "train_final_loss": final,
        "tokens_per_epoch": tokens,
    }
    if not traced:
        metrics = {
            "ops_per_s": epochs * len(pairs) / sum(best),
            "latency_p50_ms": statistics.median(batch_latencies) * 1e3,
            "latency_p90_ms": _pct(batch_latencies, 90) * 1e3,
            "nll_per_token": final,
            "setup_s": setup_s,
            "peak_rss_mb": _peak_rss_mb(),
        }
    else:
        n_epochs = tracer.ops * epochs
        tot, slf = tracer.total_s, tracer.self_s
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({
            "neural.gradients_ms": tot["neural.gradients"] / n_epochs * 1e3,
            "neural.loss_eval_ms": tot["neural.sequence_loss"] / n_epochs * 1e3,
            "neural.update_ms": slf["neural.train"] / n_epochs * 1e3,
            "neural.train_tokens": float(tokens),
            "trace.overhead_pct": (sum(traced_walls) - sum(walls)) / sum(walls) * 100,
            "trace.accounted_pct": sum(s for name, s in slf.items() if name != "train")
            / sum(walls) * 100,
        })
        metrics.update(setup_layers)
    return Result(wl.name, traced, tally, metrics, digest.hexdigest(), info, tracer)


@contextmanager
def _stamped(model, events: list):
    """Record when each `gradients` and `sequence_loss` call starts, one
    timestamp per call, to split an untraced training call into batches."""

    def stamp(attr):
        fn = getattr(model, attr)

        def stamped(*args, **kwargs):
            events.append((attr, perf_counter()))
            return fn(*args, **kwargs)

        return stamped

    model.gradients = stamp("gradients")
    model.sequence_loss = stamp("sequence_loss")
    try:
        yield
    finally:
        del model.gradients, model.sequence_loss


def _pieces(events) -> tuple[list[str], list[float]]:
    """Split one call at its stamps into (kinds, durations). A piece runs
    from one stamp to the next: a `gradients` piece is a minibatch step, the
    gradients plus the SGD update that follows; a `sequence_loss` piece is
    one sequence of a loss pass; `start` is the work before the first batch."""
    kinds = [kind for kind, _ in events[:-1]]
    durations = [b[1] - a[1] for a, b in zip(events, events[1:])]
    return kinds, durations


def run(wl: Workload, seconds: float, traced: bool) -> Result:
    if wl.name == "neural-train":
        return run_train(wl, seconds, traced)
    return run_decode(wl, seconds, traced)
