"""Reproduce a testkit failure from its printed seed.

    PYTHONPATH=src python -m repro.testkit --seed 1234            # one run
    PYTHONPATH=src python -m repro.testkit --seed 1234 --shrink   # minimise
    PYTHONPATH=src python -m repro.testkit --sweep 200            # hunt
"""

from __future__ import annotations

import argparse
import sys

from repro.testkit.runner import INJECTABLE_BUGS, check
from repro.testkit.shrink import shrink_failure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.testkit", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="seed to replay")
    parser.add_argument("--steps", type=int, default=40, help="workload length")
    parser.add_argument(
        "--sweep", type=int, default=0, metavar="N",
        help="run seeds 0..N-1 and report the first failure",
    )
    parser.add_argument(
        "--shrink", action="store_true", help="minimise the failure before printing"
    )
    parser.add_argument(
        "--inject-bug", choices=INJECTABLE_BUGS, default=None,
        help="plant a known defect (oracle liveness checks)",
    )
    args = parser.parse_args(argv)

    if args.sweep:
        for seed in range(args.sweep):
            result = check(seed, steps=args.steps, inject_bug=args.inject_bug)
            status = "ok" if result.ok else "FAIL"
            print(f"seed {seed}: {status}")
            if not result.ok:
                args.seed = seed
                break
        else:
            print(f"all {args.sweep} seeds green")
            return 0

    if args.seed is None:
        parser.error("--seed (or a failing --sweep) is required")

    result = check(args.seed, steps=args.steps, inject_bug=args.inject_bug)
    if result.ok:
        print(f"seed {args.seed}: every invariant held")
        if args.shrink:
            print("nothing to shrink")
        return 0
    if args.shrink:
        shrunk = shrink_failure(args.seed, steps=args.steps, inject_bug=args.inject_bug)
        print(shrunk.render())
    else:
        print(result.render_repro())
    return 1


if __name__ == "__main__":
    sys.exit(main())
