"""One run of the wifi-inout benchmark on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up generates the workload's synthetic worlds from --seed with
``synth.generate`` and writes their scan logs; it repeats until
SETUP_SECONDS have passed (at least SETUP_MIN_REPEATS times) and
setup_s is the median. A worker process (worker.py) then fits
and scores whole rounds for --seconds and checks the outputs. Every
metric is printed as "name value unit", and the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Details of the run go to .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from program import OUT, use_checkout_source

HERE = Path(__file__).resolve().parent
SETUP_SECONDS = 4.0
SETUP_MIN_REPEATS = 3
TIME_LIMIT_S = 170.0  # a run has to end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("score_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "ratio"),
]


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    # imported only now: they import the library from the checkout
    import workloads
    from tracing import PER_LAYER

    try:
        wl = workloads.make(args.workload, args.seed)
    except ValueError as e:
        parser.error(str(e))
    workdir = OUT / "work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        setup = []
        setup_start = time.perf_counter()
        while (len(setup) < SETUP_MIN_REPEATS
               or time.perf_counter() - setup_start < SETUP_SECONDS):
            t0 = time.perf_counter()
            workloads.write_inputs(wl, workdir)
            setup.append(time.perf_counter() - t0)

        out_file = workdir / "worker.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workdir", str(workdir),
               "--workload", wl.name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(out_file)]
        budget = TIME_LIMIT_S - (time.perf_counter() - started)
        try:
            subprocess.run(cmd, check=True, timeout=budget)
        except subprocess.TimeoutExpired:
            raise SystemExit(f"perfbench: worker still running after {budget:.0f} s; stopped")
        except subprocess.CalledProcessError as e:
            raise SystemExit(f"perfbench: worker failed with exit code {e.returncode}")
        result = json.loads(out_file.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = result["layers"]
        units = [(name, unit) for name, unit, _ in PER_LAYER]
    else:
        values = {**result, "setup_s": statistics.median(setup)}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}

    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_s": setup, "worker": result, "metrics": metrics}
    kind = "trace" if args.trace else "result"
    (OUT / f"{wl.name}-seed{args.seed}.{kind}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")

    for err in result["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
