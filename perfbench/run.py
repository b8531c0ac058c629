"""DPFS benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload random_4k --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` runs the same workload
untraced and then traced, and prints the per-layer ledger.  The last
line of standard output is the result object; the exit code is 0 only
when every op succeeded and every read and check was correct.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"

#: set-ups per untraced run; ``setup_s`` is the fastest
SETUP_REPEATS = 5


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object."""
    from cluster import remove_scratch, scratch_dir
    from harness import (
        END_TO_END,
        PER_LAYER,
        accounting_errors,
        end_to_end_metrics,
        peak_rss_mib,
        per_layer_metrics,
        pristine_errors,
        run_phase,
        timed_setups,
    )
    from ledger import Ledger
    from workloads import Env, make_workload

    workload = make_workload(workload_name, seed, seconds, phases=2 if trace else 1)
    # the inputs and the model are allocated; the program's memory is on top
    inputs_mib = peak_rss_mib()
    scratch = scratch_dir(CHECKOUT)
    env = Env(SRC, scratch)
    problems: list[str] = []
    session = None
    try:
        session, setup_times = timed_setups(
            workload, env, 1 if trace else SETUP_REPEATS
        )
        if workload.one_cpu:
            session.pin_to_one_cpu()
        untraced = run_phase(workload, session, seconds)
        problems += pristine_errors()
        phases = [untraced]
        if trace:
            metrics, units = {}, PER_LAYER
            if not untraced.errors:
                with Ledger() as ledger:
                    traced = run_phase(workload, session, seconds, ledger=ledger)
                phases.append(traced)
                problems += accounting_errors(traced)
                metrics = per_layer_metrics(workload, traced, untraced)
        else:
            metrics = end_to_end_metrics(workload, untraced, setup_times, inputs_mib)
            units = END_TO_END
        for phase in phases:
            problems += phase.errors
        try:
            problems += workload.verify(session.fs)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            problems.append(f"final check raised {exc!r}")
    finally:
        if session is not None:
            session.close()
        remove_scratch(scratch)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(p.attempted for p in phases),
        "failed": len(problems),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"no DPFS sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
