"""The repository benchmark: one command, two workloads, two modes.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload spinql|strategy \
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` replays the
workload up the layer ladder and reports the per-layer metrics instead (see
``perfbench/README.md``).  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  Earlier lines
carry the input digest and the operations attempted and failed per request
template.  The benchmark imports the program from ``src/`` of the checkout it
lives in and exits non-zero without a result when that is missing.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("spinql", "strategy")


def _import_program() -> None:
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program to measure: {source / 'repro'} is missing")
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}, not from {source}")


def _interrupted(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    handled = (signal.SIGTERM, signal.SIGHUP, signal.SIGINT)
    for signum in handled:
        signal.signal(signum, _interrupted)

    from common import Run, adopt_orphans, result_line

    adopt_orphans()

    if args.workload == "spinql":
        import spinql_workload as workload
    else:
        import strategy_workload as workload

    run = Run(ROOT, args.seed, args.seconds, bool(args.trace))
    try:
        if run.trace:
            correct, counts, metrics = workload.run_traced(run)
        else:
            correct, counts, metrics = workload.run_e2e(run)
    finally:
        # a second signal must not cut the clean-up short
        signal.pthread_sigmask(signal.SIG_BLOCK, handled)
        run.close()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, handled)
    print(counts.as_note(args.workload), flush=True)
    print(result_line(correct, counts.attempted, counts.failed, metrics), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
