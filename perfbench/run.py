"""hyperlab benchmark.

    python3 perfbench/run.py --workload {leaf,fan,kg,cli} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --self-check [--workload W]

Run from the root of a checkout; hyperlab is imported from ./src.  With
--trace 0 the run sets up, then times whole rounds of ops for at least S
seconds and prints the end-to-end metrics.  With --trace 1 it times op 0
untraced and then traced, and prints the per-layer metrics and the metric_at
micro table; the spans go to .perfbench_out/.  The line before the last
holds a report: every op, the raw and tail figures, the failure fraction and
the machine.  The last line is the result object.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# One process, no extra threads: fix the BLAS pools before numpy loads.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


def main(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperlab" / "__init__.py").is_file():
        print(f"no hyperlab sources under {ROOT / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    scratch = OUT / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)

    import bench
    if args.self_check:
        import selfcheck
        names = [args.workload] if args.workload else sorted(WORKLOADS)
        return selfcheck.main(names, ROOT, scratch)
    if not args.workload:
        parser.error("--workload is required")

    b = bench.Bench(WORKLOADS[args.workload], args.seed, ROOT, scratch)
    setup_s = b.setup()
    if args.trace:
        tracer, overhead = b.traced()
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
        tracer.write_spans(spans)
    else:
        b.measure(args.seconds)
    summary = b.summary()
    if args.trace:
        metrics = tracer.layer_metrics()
        metrics.update(b.micro_table())
        metrics["trace.overhead_frac"] = (overhead, "ratio")
    else:
        metrics = {"op_p50_rel": (summary["op_p50_rel"], "ratio"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (summary["peak_rss_mb"], "MB")}
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "setup_s": setup_s, **summary,
              "machine": bench.machine_info(THREAD_VARS),
              "op_records": b.ops}
    if args.trace:
        report["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["ops"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
