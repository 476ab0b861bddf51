"""End-to-end and per-layer benchmark of the textrkm pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-clean --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): ``sweep-clean``, ``sweep-noisy``,
``train-classify``. The run generates the workload's corpus from ``--seed``
several times, reporting the median as ``setup_s``, then measures in a fresh
child process so that neither set-up time nor set-up memory reaches the other
metrics. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports
the per-layer metrics from spans recorded around calls into each textrkm
module, and writes the spans as JSON lines to ``.perfbench_out/``.

The program under test is imported from ``src/`` under the current
directory; without it the run exits 1 and prints no result. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (name -> value and unit). A full record, with the
environment, sample counts and any failed check, is written next to the
spans.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 4
DEADLINE_S = 170.0  # the whole run, set-up and measuring, ends within this


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_mb_max", "MB"), ("_ratio", "ratio"), ("accuracy_mean", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--measure-in", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Put ``src/`` first on the path and import textrkm from there."""
    if not (SRC / "textrkm" / "__init__.py").is_file():
        raise SystemExit(f"error: no textrkm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import textrkm

    if Path(textrkm.__file__).resolve().parent != (SRC / "textrkm").resolve():
        raise SystemExit(f"error: imported textrkm from {textrkm.__file__}, not {SRC}")


def record_path(args, suffix: str) -> Path:
    return OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def child(args, workload) -> int:
    """Measure on inputs already in ``--measure-in``; write result.json."""
    from workloads import measure

    work = Path(args.measure_in)
    result, tracer = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    if args.trace:
        tracer.write_jsonl(record_path(args, ".spans.jsonl"))
    (work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from stats import environment, failed_ratio, median
    from workloads import WORKLOADS, setup

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    if args.measure_in:
        return child(args, workload)

    started = time.perf_counter()
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            if work.exists():
                shutil.rmtree(work)
            t0 = time.perf_counter()
            truth = setup(workload, args.seed, work)
            setup_s.append(time.perf_counter() - t0)
        (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--measure-in", str(work)]
        remaining = DEADLINE_S - (time.perf_counter() - started)
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=remaining)
        if proc.returncode != 0:
            print(f"error: measuring process exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except subprocess.TimeoutExpired:
        print("error: measuring process ran past the deadline and was stopped", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    if args.trace:
        metrics = result["layers"]
    else:
        metrics = {"setup_s": median(setup_s), **result["metrics"]}
    correct = result["failed"] == 0 and not result["problems"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_samples_s": setup_s, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_ratio": failed_ratio(result["attempted"], result["failed"]),
        "problems": result["problems"], "end_to_end": result["metrics"],
        "layers": result.get("layers", {}), "extra": result["extra"],
    }
    record_path(args, ".json").write_text(json.dumps(record, indent=2), encoding="utf-8")

    for key, value in env.items():
        print(f"env {key}: {value}")
    for key, value in result["extra"].items():
        if not isinstance(value, list):  # sample lists are in the record file
            print(f"extra {key}: {value}")
    print(f"failed_ratio {record['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
