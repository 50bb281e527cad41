"""End-to-end benchmark of the DOL secure XML query system.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload xmark-mem --seed 1 --seconds 12 --trace 0

Workloads: ``xmark-mem``, ``xmark-disk``, ``serve-mixed`` (see
``workloads.py`` for what each stresses and bypasses). With ``--trace 0``
the run carries no instrument and prints the end-to-end metrics; with
``--trace 1`` it runs half the time untraced and half traced, and prints
the per-layer metrics, including the tracing overhead.

End-to-end timings are calibrated against a fixed benchmark-owned task
measured alongside them (see ``calibrate.py``), so that the drift of a
shared host's CPU speed does not read as a change in the program; the
report line carries the raw wall-clock values too.

The program is imported from ``src/`` of the current directory. Inputs
are generated from ``--seed`` before timing starts; every answer is
checked against the reference evaluator after timing ends. The second to
last line of output is a JSON report (machine stamp, sample counts,
answer counts, derived ratios); the last line is the result object. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")


def _fail(message: str, code: int = 2) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _fail(f"no program sources under {SRC}; run from the repository root")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import measure  # imports the program; deferred until src/ is known

    if args.workload not in measure.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of {measure.WORKLOADS}")

    workroot = os.path.join(
        os.getcwd(), ".e2ebench_work", f"{args.workload}-{os.getpid()}"
    )
    try:
        outcome = measure.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workroot
        )
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
        parent = os.path.dirname(workroot)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    report = outcome["report"]
    report["stamp"] = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "kernel_backend": measure.kernel_backend(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps({"report": report}, sort_keys=True))
    for problem in outcome["problems"][:20]:
        print(f"e2ebench: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

