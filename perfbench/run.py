"""trackcast benchmark: runs the real CLI on generated inputs.

    python3 perfbench/run.py --workload ingest-linear --seed 20 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` traces every second op and reports the
per-layer metrics (see perfbench/README.md).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment record and every
op, is also written to ``.perfbench/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = ROOT / "BENCHMARK.json"
# Every op runs with the defaults of trackcast and OpenBLAS, set explicitly
# so that the caller's environment cannot change them: sequential bagging
# and one BLAS thread per core.  The benchmark's own set-up and checks use
# the same settings.
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {"TRACKCAST_THREADS": "1", "OPENBLAS_NUM_THREADS": str(NPROC), "OMP_NUM_THREADS": str(NPROC)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20, help="synth seed of the generated table")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured op loop (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(result: dict, spec: dict) -> dict:
    """The last line of standard output: the end-to-end metrics of an
    untraced run or the per-layer metrics of a traced one, in the order
    of BENCHMARK.json; a per-layer metric no op defined reads 0."""
    group = "per_layer" if result["trace"] else "end_to_end"
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result[group].get(m["name"], 0.0), "unit": m["unit"]} for m in spec[group]
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "trackcast" / "__init__.py").is_file():
        print(f"perfbench: no trackcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.update(THREAD_ENV)  # before numpy loads BLAS
    from harness import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    bench = Bench(ROOT, WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), THREAD_ENV)
    result = bench.execute()
    line = result_line(result, spec)

    kinds = {}
    for op in result["ops"]:
        key = f"{op['phase']} {op['kind']}" + (" traced" if op["traced"] else "")
        kinds[key] = kinds.get(key, 0) + 1
    print(f"perfbench {result['workload']} seed={args.seed} trace={args.trace}: "
          f"{result['loop']}; {result['attempted']} ops ({', '.join(f'{n} {k}' for k, n in kinds.items())})")
    width = max(len(name) for name in line["metrics"])
    for name, metric in line["metrics"].items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_frac  {result['fail_frac']:.6g} ({result['failed']}/{result['attempted']} ops)")
    if not args.trace:
        print(f"  synth_s.p50  {result['per_layer']['synth_s.p50']:.6g} s")
    for name, value in result["test_mse"].items():
        print(f"  {name}  {value:.6g}")
    print("env " + json.dumps(result["environment"], sort_keys=True))
    bench.result_path.parent.mkdir(parents=True, exist_ok=True)
    bench.result_path.write_text(json.dumps(result, indent=2, sort_keys=True), encoding="utf-8")
    if bench.spans:
        bench.spans_path.write_text(json.dumps(bench.spans), encoding="utf-8")
    print(f"result {bench.result_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
