"""The repository's benchmark: one served stack, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-get --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` for sizes and ``BENCHMARK.json`` for
why each was chosen):

* ``serve-get`` — OLC shards behind the asyncio front end, 95% GET;
* ``serve-mixed-durable`` — replicated adaptive shards with per-tenant
  WALs, GET/PUT/SCAN;
* ``index-shift`` — the adaptive B+-tree in process, hot range moving.

Served workloads start the server as a child process (``launcher.py``)
and drive it from this process.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` runs an untraced and a traced pass and prints the
per-layer metrics.  Every answer is checked; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink the workload's sizes (self-tests only)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    from common import SRC

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    import indexshift
    import served
    from shims import LAYER_UNITS
    from workloads import WORKLOADS, ServedWorkload, scaled

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = scaled(WORKLOADS[args.workload], args.scale)
    if isinstance(workload, ServedWorkload):
        if args.trace:
            outcome = asyncio.run(served.trace(workload, args.seed, args.seconds, args.scale))
        else:
            outcome = asyncio.run(served.measure(workload, args.seed, args.seconds, args.scale))
    elif args.trace:
        outcome = indexshift.trace(workload, args.seed, args.seconds)
    else:
        outcome = indexshift.measure(workload, args.seed, args.seconds)
    metrics, tally, errors, notes = outcome
    if args.trace:
        metrics = {name: {"value": float(value), "unit": LAYER_UNITS[name]}
                   for name, value in sorted(metrics.items())}
    for name, entry in metrics.items():
        print(f"{name:36s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{'ops_failed_frac':36s} {tally.failed / max(tally.attempted, 1):14.6g} "
          f"(failed {tally.failed} of {tally.attempted})")
    for label, value in notes.items():
        print(f"{label}: {value}")
    for error in errors[:5]:
        print(f"check failed: {error}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
