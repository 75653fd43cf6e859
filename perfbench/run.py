"""The repository benchmark: time to verdict through the program's public surface.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that gives the per-layer
breakdown for the same workload and seed.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the lines before it are a readable report and a ``detail``
JSON line with the run's environment.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import Workspace, metadata, warm_bytecode  # noqa: E402

WORKLOADS = ("cli-cold", "serve-mixed", "battery")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program at {root / 'src' / 'repro'}; run from the "
            "root of a checkout",
            file=sys.stderr,
        )
        return 2

    ws = Workspace(root)
    try:
        warm_bytecode(ws)
        meta = metadata(ws, args.seed)
        if args.trace:
            import traced_runs

            outcome = traced_runs.run(args.workload, ws, args.seed, args.seconds)
        else:
            import workloads

            outcome = workloads.run(args.workload, ws, args.seed, args.seconds)
    finally:
        ws.close()

    for line in outcome.report:
        print(line)
    print(json.dumps({"detail": {"workload": args.workload, "meta": meta, **outcome.detail}}))
    print(
        json.dumps(
            {
                "correct": outcome.failed == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
