"""Run one workload of the repository benchmark.

    python3 xrbench/run.py --workload dense-paths --seed 1 --seconds 20 \\
        --trace 0

Run it from the repository root: the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report (sizing, environment, sample counts, per-class
counters, and with ``--trace 1`` the layer ledger).  The exit code is 0
only when every answer was right and the paper counters repeated.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def add_sources():
    """Put the program's ``src/`` on the import path; False if absent."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        return False
    if source not in sys.path:
        sys.path.insert(0, source)
    return True


def main(argv=None, sizing=None):
    """Run the benchmark; returns the process exit code.

    ``sizing`` overrides the corpus scale (the smoke test runs tiny).
    """
    if not add_sources():
        print("xrbench: no program sources under %s" % ROOT,
              file=sys.stderr)
        return 2
    import corpus
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), sizing or corpus.FULL, ROOT)
    try:
        result, report = run.execute()
    except workloads.BenchmarkFailure as exc:
        print("xrbench: FAILED: %s" % exc, file=sys.stderr)
        return 1
    print("\n".join(report))
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
