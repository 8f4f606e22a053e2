"""Benchmark of the convexuq library, run from outside it.

    python3 benchmarks/run.py --workload fit-wide --seed 1 --seconds 30 --trace 0

Workloads: fit-wide, case-studies, bulk-draws (see README.md here). The
run sets up its inputs three times (setup_s is the median), then repeats
timed passes until --seconds have passed. With --trace 0 every pass is
untraced and the end-to-end metrics are reported; with --trace 1 untraced
and traced passes alternate and the per-layer metrics are reported. Every
op's outputs are checked. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A summary, the
environment and any failures come before it, and the full result (and
with --trace 1 the spans of one traced pass) is written to benchmarks/out/.

--record K records the goldens of seeds 0..K-1 into benchmarks/golden/
(use only on the commit whose outputs are the reference).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out"
REQUIRED = (
    "src/convexuq/__init__.py",
    "tests/data/standard_samples.csv",
    "tests/data/beam_samples.csv",
    "tests/data/beam_limit_state.txt",
    "tests/data/geotech_samples.csv",
)
# one BLAS/OpenMP thread: results are then independent of the thread
# count, and runs on the two-core machine do not compete with themselves
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREAD_CAP = "1"
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "model_ms_p50": "ms",
    "model_ms_p90": "ms",
    "eta_ms_p50": "ms",
    "eta_ms_p90": "ms",
    "draws_per_s": "1/s",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}
# the end-to-end metrics of the result line (and of BENCHMARK.json): those
# that exist on every workload, are never 0, and whose run-to-run spread on
# a shared 2-core host stayed inside a 25% bound. Per-call medians and
# draws_per_s, dominated by sub-millisecond interpreter-bound calls, swing by
# more and are printed only.
GATED = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER_UNITS = {"_s": "s", "_ms": "ms", "_us": "us", "_ratio": "ratio", "_share": "ratio"}
PER_LAYER_SPECIAL = {"models.membership_bytes_computed": "B", "reliability.g_evals_per_solve": "count"}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_SPECIAL:
        return PER_LAYER_SPECIAL[name]
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit-wide", "case-studies", "bulk-draws"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--record", type=int, default=0, metavar="K")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_pass(harness, workload, inputs, traced: bool):
    gc.collect()
    p = harness.Pass(harness.Tracer() if traced else harness.NULL_TRACER)
    start = time.perf_counter()
    workload.run(p, inputs)
    p.wall_s = time.perf_counter() - start
    with p.op("counters"):
        for name, value in sorted(p.counters.items()):
            # solver work is checked between passes only; the rest is fixed by the inputs
            p.put(name, value, golden=not name.startswith("reliability."))
    return p


def record(harness, workloads, name: str, count: int, workdir: Path) -> int:
    workload = workloads.WORKLOADS[name]
    shared, seeds = None, {}
    for seed in range(count):
        inputs = workload.setup(workloads.FULL, seed, workdir / f"record{seed}")
        p = run_pass(harness, workload, inputs, traced=False)
        if p.failed:
            print(f"seed {seed}: {len(p.failed)} op(s) failed; nothing recorded", file=sys.stderr)
            for key, why in p.failed.items():
                print(f"  {key}: {why}", file=sys.stderr)
            return 1
        common, seeded = harness.split_outputs(p)
        if shared is not None and common != shared:
            print(f"seed {seed}: seed-independent outputs changed", file=sys.stderr)
            return 1
        shared, seeds[str(seed)] = common, seeded
        print(f"recorded {name} seed {seed}: {len(seeded)} seeded outputs, {p.wall_s:.1f} s")
    harness.GOLDEN_DIR.mkdir(exist_ok=True)
    doc = {"shared": shared, "seeds": seeds}
    harness.golden_path(name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a convexuq checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = THREAD_CAP
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import convexuq

    import_s = time.perf_counter() - start
    if Path(convexuq.__file__).resolve().parent != ROOT / "src" / "convexuq":
        print(f"error: imported convexuq from {convexuq.__file__}", file=sys.stderr)
        return 2
    import harness
    import workloads

    # ops record the warnings they check; the rest would only clutter stderr
    warnings.simplefilter("ignore")
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        workdir = Path(tmp)
        if args.record:
            return record(harness, workloads, args.workload, args.record, workdir)
        return measure(args, harness, workloads, workdir, import_s)


def measure(args, harness, workloads, workdir: Path, import_s: float) -> int:
    import numpy as np

    workload = workloads.WORKLOADS[args.workload]
    size = workloads.FULL if args.size == "full" else workloads.TINY
    setup_s = []
    for k in range(SETUPS):
        start = time.perf_counter()
        inputs = workload.setup(size, args.seed, workdir / f"setup{k}")
        # warm-up: one tiny pass loads lazy imports and fills caches
        workload.run(harness.Pass(), workload.setup(workloads.TINY, args.seed, workdir / f"warm{k}"))
        setup_s.append(time.perf_counter() - start)

    # One 32 MB array, allocated and freed, moves glibc's dynamic mmap and
    # trim thresholds to where a process settles after its first large
    # arrays; without it the first full-size fit-wide pass runs 30% slower.
    np.empty(4_000_000)

    # rounds of one untraced pass (plus one traced pass with --trace 1) until
    # another round would overrun --seconds; two untraced passes at least
    start = time.perf_counter()
    plain, traced = [], []
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(harness, workload, inputs, traced=False))
        if args.trace:
            traced.append(run_pass(harness, workload, inputs, traced=True))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds and len(plain) >= 2 - args.trace:
            break
    passes = plain + traced

    expected, recorded = (
        harness.load_golden(args.workload, args.seed) if args.size == "full" else ({}, False)
    )
    first = passes[0]
    for p in passes:
        # outputs of unrecorded seeds are not in `expected`; every other
        # recorded output must be produced
        p.compare(expected, exhaustive=True)
        p.compare(first.outputs, exhaustive=True)
        p.compare(first.repeats, exhaustive=True, outputs=p.repeats)
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failed) for p in passes)

    model_ms = [x for p in plain for x in p.model_ms]
    eta_ms = [x for p in plain for x in p.eta_ms]
    wall = harness.median(p.wall_s for p in plain)
    end_to_end = {
        "setup_s": import_s + harness.median(setup_s),
        "wall_s": wall,
        "model_ms_p50": harness.median(model_ms),
        "model_ms_p90": harness.tail_percentile(model_ms, 90),
        "eta_ms_p50": harness.median(eta_ms),
        "eta_ms_p90": harness.tail_percentile(eta_ms, 90),
        "draws_per_s": sum(p.draw_points for p in plain) / sum(p.draw_s for p in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": failed / attempted,
    }
    samples = {"model_ms": len(model_ms), "eta_ms": len(eta_ms)}
    extra = {
        "samples": samples,
        "untraced_walls_s": [p.wall_s for p in plain],
        "traced_walls_s": [p.wall_s for p in traced],
        "golden": "seed recorded" if recorded else ("shared only" if expected else "none"),
    }
    per_layer, shares = {}, {}
    if traced:
        rows = [harness.layer_metrics(p) for p in traced]
        per_layer = {name: harness.median(r[name] for r in rows) for name in rows[0]}
        per_layer.update((k, v) for k, v in rows[0].items() if isinstance(v, int))  # exact counts
        per_layer["trace.overhead_s"] = harness.median(p.wall_s for p in traced) - wall
        share_rows = [harness.layer_shares(p) for p in traced]
        shares = {layer: harness.median(r[layer] for r in share_rows) for layer in harness.LAYERS}
        per_layer["trace.dominant_share"] = harness.median(
            harness.layer_busy(p.tracer.spans, set(workload.dominant)) / p.wall_s for p in traced
        )
        harness.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", traced[0])

    env = environment()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "environment": env,
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": per_layer,
        "layer_shares": shares,
        "failures": {key: why for p in passes for key, why in p.failed.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )

    print(
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, threads " + " ".join(f"{k}={v}" for k, v in env["threads"].items())
    )
    print(
        f"workload {args.workload} seed {args.seed} size {args.size}: "
        f"{len(plain)} untraced + {len(traced)} traced passes, golden: {extra['golden']}"
    )
    for name, value in end_to_end.items():
        note = f"  [{samples[name[:-4]]} samples]" if name[:-4] in samples else ""
        if value is None:
            shown = f"{'n/a':>14}    (under ten samples beyond the percentile)"
        else:
            shown = f"{value:14.6g} {END_TO_END[name]}"
        print(f"  {name:<34} {shown}{note}")
    print(f"  ({failed} of {attempted} ops failed)")
    for name, value in per_layer.items():
        print(f"  {name:<34} {value:14.6g} {per_layer_unit(name)}")
    if shares:
        print("  layer shares of traced wall: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    for key, why in report["failures"].items():
        print(f"FAILED {key}: {why.strip().splitlines()[-1]}")

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in per_layer.items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": END_TO_END[k]} for k in GATED}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
