"""Output checks, written against the workload's own constraint words rather
than the FSM under test.

Each check returns a list of failure messages; an empty list means the
output passed. A failed check counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Sequence

import numpy as np

LOGPROB_TOLERANCE = 1e-9


def _contains_run(tokens: Sequence[int], run: Sequence[int]) -> bool:
    n = len(run)
    return any(list(tokens[i : i + n]) == list(run) for i in range(len(tokens) - n + 1))


def check_decode(
    line: str,
    spec: dict,
    vocab,
    machine,
    rescore: Callable[[Sequence[int]], float],
    max_len: int,
    no_repeat: bool,
) -> list[str]:
    """Check one serialized decode result (a JSON line as the CLI writes it).

    Every input of the decode workloads is satisfiable within `max_len`, so
    any status but `accepted` is a failure. The constraint words are checked
    by direct membership (disjunctions) and a substring scan (phrases); the
    FSM's own verdict is checked separately. `rescore` gives the chain-rule
    log probability of a token sequence under the scorer.
    """
    try:
        out = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"result is not JSON: {e}"]
    failures = []
    if out.get("status") != "accepted":
        failures.append(f"status {out.get('status')!r}, expected 'accepted'")
        return failures
    tokens = out["tokens"]
    words = [vocab.tokens[t] if 0 <= t < len(vocab) else None for t in tokens]
    if not tokens or tokens[-1] != vocab.eos or vocab.eos in tokens[:-1]:
        failures.append("tokens do not end with exactly one end-of-sequence marker")
    if len(tokens) > max_len:
        failures.append(f"{len(tokens)} tokens exceed max_len {max_len}")
    if no_repeat and any(a == b for a, b in zip(tokens, tokens[1:])):
        failures.append("a token repeats consecutively under no-repeat")
    for group in spec.get("disjunctions", []):
        if not any(w in words for w in group):
            failures.append(f"no word of disjunction {group} in output")
    for phrase in spec.get("phrases", []):
        if not _contains_run(words, phrase):
            failures.append(f"phrase {phrase} not in output")
    if out.get("text") != " ".join(w for w in words[:-1] if w is not None):
        failures.append("text does not match tokens")
    if not machine.recognizes(tokens):
        failures.append("FSM does not recognize the output")
    expected = rescore(tokens)
    if not abs(out["logprob"] - expected) <= LOGPROB_TOLERANCE:
        failures.append(f"logprob {out['logprob']!r} != rescored {expected!r}")
    return failures


def ngram_rescorer(model) -> Callable[[Sequence[int]], float]:
    """Chain rule over NGramModel.logprob, one conditional per token."""

    def rescore(tokens):
        return sum(model.logprob(tokens[:i], w) for i, w in enumerate(tokens))

    return rescore


def check_embeddings_frozen(before: bytes, w_e: np.ndarray) -> list[str]:
    """Training must leave the embedding matrix bit-unchanged."""
    if w_e.tobytes() != before:
        return ["training changed the frozen embedding matrix w_e"]
    return []


def check_losses(losses: Sequence[float], expected_final: float | None) -> list[str]:
    """Losses must be finite and fall from the first to the last epoch; a
    repeated training call from the same start must end at the same loss."""
    failures = []
    if not all(np.isfinite(losses)):
        failures.append(f"non-finite training loss in {list(losses)}")
    elif not losses[-1] < losses[0]:
        failures.append(f"loss did not fall: {losses[0]!r} -> {losses[-1]!r}")
    if expected_final is not None and losses[-1] != expected_final:
        failures.append(f"final loss {losses[-1]!r} differs from first run {expected_final!r}")
    return failures


class Digest:
    """Order-sensitive hash of (id, status, tokens) records, so two runs of
    the same seed can be compared by one string."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, op_id, status: str, tokens: Sequence) -> None:
        self._h.update(json.dumps([op_id, status, list(tokens)]).encode())
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
