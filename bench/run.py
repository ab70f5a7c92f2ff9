"""Decode-and-train benchmark for cbsdecode.

    python3 bench/run.py --workload ngram-product --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Builds the workload's inputs from --seed, sets it up, measures for --seconds
with one closed-loop caller, checks every output, and prints each metric as
`name value unit`. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 reports the per-layer split from a traced run.
The exit code is 1 when any output failed a check.

Run from the repository root; the library is imported from ./src.
"""

import os

# One BLAS/OpenMP thread for this process, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("ngram-product", "neural-novel", "neural-train")


def _import_library() -> None:
    """Put ./src first on the path; refuse to measure an installed copy."""
    src = ROOT / "src"
    if not (src / "cbsdecode" / "__init__.py").is_file():
        sys.exit(f"bench: no cbsdecode sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import cbsdecode

    if Path(cbsdecode.__file__).resolve().parent != (src / "cbsdecode").resolve():
        sys.exit(f"bench: imported cbsdecode from {cbsdecode.__file__}, not {src}")


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = git / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def provenance(np, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool):
    import numpy as np

    import harness
    import workloads

    workdir = OUT_DIR / f"work-{workload}-{seed}"
    try:
        wl = workloads.generate(workload, seed, workdir)
        result = harness.run(wl, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    prov = provenance(np, workload, seed, seconds, trace)
    units = result.metric_units()
    print(f"# workload {workload}: {wl.why}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    print(f"# digest {result.digest}")
    for key, value in result.info.items():
        print(f"# {key} {value}")
    for name, value in result.metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"failed_share {result.tally.failed / result.tally.attempted!r} share")
    for reason in result.tally.reasons:
        print(f"# FAILED {reason}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    if result.spans is not None:
        result.spans.write(OUT_DIR / f"spans-{stem}.jsonl")
    record = {
        "provenance": prov,
        "digest": result.digest,
        "info": result.info,
        "attempted": result.tally.attempted,
        "failed": result.tally.failed,
        "failures": result.tally.reasons,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in result.metrics.items()},
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_library()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    single = len(results) == 1
    summary = {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.tally.attempted for r in results),
        "failed": sum(r.tally.failed for r in results),
        "metrics": {
            (name if single else f"{r.workload}/{name}"): {
                "value": value, "unit": r.metric_units()[name]
            }
            for r in results
            for name, value in r.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
