"""Self-test for the benchmark: a tiny run of every workload in both modes,
repeatability of a seed, and proof that a bad output counts as failed.

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402
from checks import check_decode, check_embeddings_frozen, check_losses  # noqa: E402
from cbsdecode import search  # noqa: E402


def tiny_run(name, seed, tmp_path, traced):
    wl = workloads.generate(name, seed, tmp_path / f"{name}-{seed}", size="tiny")
    return harness.run(wl, seconds=0.2, traced=traced)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_tiny_run_passes_every_check(name, traced, tmp_path):
    result = tiny_run(name, 3, tmp_path, traced)
    assert result.correct, result.tally.reasons
    assert result.tally.attempted > 0 and result.tally.failed == 0
    expected = harness.PER_LAYER if traced else harness.END_TO_END
    assert list(result.metrics) == list(expected)
    assert all(np.isfinite(v) for v in result.metrics.values())
    if not traced:
        assert all(v > 0 for v in result.metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WHY))
def test_same_seed_gives_same_outputs_and_counts(name, tmp_path):
    a = tiny_run(name, 5, tmp_path / "a", traced=True)
    b = tiny_run(name, 5, tmp_path / "b", traced=True)
    assert a.digest == b.digest
    for key in ("fsm.states", "scorers.step_calls", "neural.step_calls", "neural.train_tokens"):
        assert a.metrics[key] == b.metrics[key], key
    assert tiny_run(name, 6, tmp_path / "c", traced=False).correct


@pytest.fixture
def ngram_decode(tmp_path):
    """One checked decode of the tiny n-gram workload: (parsed line, decoder,
    checker of a serialized line against that input)."""
    wl = workloads.generate("ngram-product", 2, tmp_path, size="tiny")
    params = search.SearchParams(**harness.SEARCH)
    tally = harness.Tally()
    st, _, _ = harness._median_setup(harness._setup_ngram(wl, params), tally, traced=False)
    inp = wl.inputs[0]
    machine, line = harness._decode_op(harness.Api(), st, inp, params)

    def check(text):
        return check_decode(text, inp.spec, st.vocab, machine,
                            lambda tokens: st.rescore(tokens, None),
                            params.max_len, params.no_repeat)

    assert check(line) == []
    return json.loads(line), st, check


def test_constraint_violation_counts_as_failed(ngram_decode):
    out, st, check = ngram_decode
    out["tokens"], out["text"] = [st.vocab.eos], ""
    tally = harness.Tally()
    tally.record(0, check(json.dumps(out)))
    tally.record(1, [])
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "disjunction" in tally.reasons[0] and "FSM does not recognize" in tally.reasons[0]


def test_wrong_logprob_counts_as_failed(ngram_decode):
    out, _, check = ngram_decode
    out["logprob"] += 1e-6
    failures = check(json.dumps(out))
    assert len(failures) == 1 and "rescored" in failures[0]


def test_fallback_status_counts_as_failed(ngram_decode):
    out, _, check = ngram_decode
    out["status"] = "fallback"
    assert check(json.dumps(out))


def test_training_checks_catch_changed_embeddings_and_drifting_loss():
    w_e = np.arange(6, dtype=np.float64).reshape(2, 3)
    frozen = w_e.tobytes()
    assert check_embeddings_frozen(frozen, w_e) == []
    w_e[1, 2] = np.nextafter(w_e[1, 2], np.inf)
    assert check_embeddings_frozen(frozen, w_e)
    assert check_losses([3.0, 2.0], 2.0) == []
    assert check_losses([3.0, 2.0], 1.9)
    assert check_losses([3.0, float("nan")], None)


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "ngram-product",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
