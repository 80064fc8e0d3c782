"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload table3_compile --seed 1 \
        --seconds 12 --trace 0

Prints a human-readable report, then, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``).  The full record, with the environment
fingerprint, sample counts and serving windows, goes to
``perfbench/results/``; a traced run also writes a Chrome trace and a
per-layer span table there.

Exit codes: 0 on a correct run, 1 when an output was wrong, 2 when an
environment variable that changes what is measured is set, 3 when the
program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Each of these changes what a run measures (fault injection, ambient
#: tracing, trust-boundary validation, a pinned backend).
GUARDED_ENV = ("GUST_FAULTS", "GUST_TRACE", "GUST_VALIDATE", "GUST_BACKEND")


def _parse(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    ambient = [name for name in GUARDED_ENV if os.environ.get(name)]
    if ambient:
        print(f"refusing to run: {', '.join(ambient)} set; unset it, since "
              f"it changes what is measured", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"refusing to run: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    # At most two threads: this one and the server worker.  Pin native
    # pools before NumPy loads, and keep every store inside the checkout.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    os.environ["GUST_CACHE_DIR"] = str(ROOT / "perfbench" / "_work" / "cache")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    args = _parse(argv, sorted(WORKLOADS))
    line, record = bench.run(ROOT, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    path = bench.write_record(ROOT, record)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  ->  {path.relative_to(ROOT)}")
    print(f"fail_ratio {record['fail_ratio']:.6g}  "
          f"({line['failed']} of {line['attempted']} operations)")
    for reason in record["failures"]:
        print(f"  failure: {reason}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<30}{metric['value']:>16.6g} {metric['unit']:<10}"
              f"n={metric['samples']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
