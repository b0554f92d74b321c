"""The process of one benchmark run that fits and scores.

run.py starts it after set-up, so that its peak resident memory covers
fit and score only. It writes its measurements as JSON to --out.
"""

from __future__ import annotations

import argparse
import json

from program import use_checkout_source


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    use_checkout_source()
    # imported only now: they import the library from the checkout
    import measure
    import workloads

    wl = workloads.make(args.workload, args.seed)
    result = measure.measure(wl, args.workdir, args.seconds, bool(args.trace))
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main()
