"""Per-call timings of the one-point paths, and of the bulk calls.

Prints microseconds per call of `contains` (six variants at n = 3 and
n = 10), of scalar and array `LimitState.evaluate` (the beam limit state
and an n = 10 linear one of the benchmark's synthetic form), of
`from_delta` and of `reliability_index` (the beam's SCC ME and MP-II
models at S = 250, and an n = 10 MP-II model with the synthetic form's
limit state), and of `fit_correlation_matrix("ccc", MP2, ...)` on the
three bundled sets (N <= 32, as the case studies fit them). Every case
runs `--calls` calls per repeat, array calls a hundredth of that, CCC fits
a hundredth and solves a two-hundredth (at least one). `--bulk N` adds
milliseconds per call of `sample_uniform`, `membership_values`,
`mc_volume` and `verify_unbiasedness` at N rows (ME and MP-II at
n = 3 and 10), of `fit_correlation_matrix("scc")` on N rows (n = 3 and
10), and of `fit_correlation_matrix("ccc", MP2, ...)` at the benchmark's
wide shapes (n = 30 by 200 rows and n = 10 by 2000, whatever N), one
call of each per repeat, with the process's CPU time
(`time.process_time`, all threads) next to the wall time; the bulk calls
run on two threads only beside a one-thread BLAS, so set
`OPENBLAS_NUM_THREADS=1` to time them as the benchmark runs them. The
repeats of all cases are interleaved in one process, so a change of host
load touches every case alike. The figure kept is the minimum over the
repeats, of wall and of CPU time apart. Per-call changes of a few
microseconds are below the run-to-run spread of the benchmark; compare
two commits by running this script on each, alternately.
"""

import argparse
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

import convexuq as cq

# the reliability scan's array size: 2n + 2n^2 rays by 880 steps
SCAN_STEPS = 880


def correlation(n: int) -> cq.CorrelationMatrix:
    m = np.random.default_rng(14).normal(size=(4 * max(n, 10), n))
    cov = m.T @ m
    d = np.sqrt(np.diag(cov))
    entries = cov / np.outer(d, d)
    entries = (entries + entries.T) / 2.0
    np.fill_diagonal(entries, 1.0)
    return cq.CorrelationMatrix(entries=entries, method="scc")


def linear_limit_state(n: int) -> str:
    """c - sum(a_k x_k) - b x_2 x_n, the form of the benchmark's synthetic g."""
    a = np.round(np.random.default_rng(5).uniform(0.5, 1.5, n), 4)
    terms = " ".join(f"- {float(ak)!r}*x{k + 1}" for k, ak in enumerate(a))
    return f"{15.0 * float(a.sum()) + 20.0!r} {terms} - 0.1*x2*x{n}"


def cases(calls: int, data_dir: Path) -> dict:
    """name -> (call count, function making that many calls)."""
    gen = np.random.default_rng(3)
    out = {}
    for n in (3, 10):
        spec = cq.make_marginal_spec((f"x{k + 1}", 10.0 - k, 14.0 + 0.5 * k) for k in range(n))
        R = correlation(n)
        # a cycle of points inside and just outside the marginal box
        points = spec.midpoints + spec.radii * gen.uniform(-1.2, 1.2, size=(64, n))
        for variant in cq.ModelVariant:
            model = cq.build_model(variant, spec, R)

            def run(model=model, points=points):
                for k in range(calls):
                    cq.contains(model, points[k % 64])

            out[f"contains {variant.label} n={n}"] = (calls, run)
        if n == 3:
            deltas = gen.uniform(-1.0, 1.0, size=(64, n))

            def run(model=model, deltas=deltas):
                for k in range(calls):
                    cq.from_delta(model, deltas[k % 64])

            out["from_delta n=3"] = (calls, run)

    beam = cq.parse_limit_state((data_dir / "beam_limit_state.txt").read_text(encoding="utf-8"))
    beam_mid = {"b": 100.0, "h": 200.0, "L": 1000.0}
    linear = cq.parse_limit_state(linear_limit_state(10))
    linear_mid = {f"x{k + 1}": 12.0 + 0.25 * k for k in range(10)}
    array_calls = max(1, calls // 100)
    for name, g, mid, bindings in (
        ("beam", beam, beam_mid, {"S": 220.0}),
        ("linear n=10", linear, linear_mid, {}),
    ):
        names = sorted(mid)
        rays = 2 * len(names) + 2 * len(names) ** 2
        scalars = [
            {**dict(zip(names, map(float, row))), **bindings}
            for row in np.array([mid[k] for k in names]) * gen.uniform(0.9, 1.1, (64, len(names)))
        ]
        arrays = {k: mid[k] * gen.uniform(0.9, 1.1, (rays, SCAN_STEPS)) for k in names}
        arrays.update(bindings)

        def run_scalar(g=g, scalars=scalars):
            for k in range(calls):
                g.evaluate(scalars[k % 64])

        def run_array(g=g, arrays=arrays):
            for _ in range(array_calls):
                g.evaluate(arrays)

        out[f"evaluate {name} scalar"] = (calls, run_scalar)
        out[f"evaluate {name} array ({rays * SCAN_STEPS} points)"] = (array_calls, run_array)

    fits = max(1, calls // 100)
    for name in ("standard", "beam", "geotech"):
        spec = cq.read_intervals_csv(data_dir / f"{name}_intervals.csv")
        u = cq.regularize(spec, cq.read_samples_csv(data_dir / f"{name}_samples.csv")).rows

        def run(u=u):
            for _ in range(fits):
                cq.fit_correlation_matrix("ccc", cq.ModelVariant.MP2, u, on_infeasible="relax")

        out[f"fit_correlation_matrix ccc MP-II {name}"] = (fits, run)

    beam_spec = cq.read_intervals_csv(data_dir / "beam_intervals.csv")
    u = cq.regularize(beam_spec, cq.read_samples_csv(data_dir / "beam_samples.csv")).rows
    beam_R = cq.ensure_positive_definite(cq.fit_correlation_matrix("scc", None, u), policy="repair")
    spec = cq.make_marginal_spec((f"x{k + 1}", 10.0 - k, 14.0 + 0.5 * k) for k in range(10))
    solves = max(1, calls // 200)
    for name, model, g, bindings in (
        ("beam ME S=250", cq.build_model(cq.ModelVariant.ME, beam_spec, beam_R), beam, {"S": 250.0}),
        ("beam MP-II S=250", cq.build_model(cq.ModelVariant.MP2, beam_spec, beam_R), beam, {"S": 250.0}),
        ("linear n=10 MP-II", cq.build_model(cq.ModelVariant.MP2, spec, correlation(10)), linear, {}),
    ):
        options = cq.ReliabilityOptions(bindings=bindings)

        def run(model=model, g=g, options=options):
            for _ in range(solves):
                cq.reliability_index(model, g, options)

        out[f"reliability_index {name}"] = (solves, run)
    return out


def bulk_cases(rows: int) -> dict:
    """name -> (1, function making one call at `rows` rows; the CCC fits
    at the shapes their names give)."""
    out = {}
    for n in (3, 10):
        spec = cq.make_marginal_spec((f"x{k + 1}", 10.0 - k, 14.0 + 0.5 * k) for k in range(n))
        R = correlation(n)
        for variant in (cq.ModelVariant.ME, cq.ModelVariant.MP2):
            model = cq.build_model(variant, spec, R)
            points = cq.sample_uniform(model, rows, seed=1)
            calls = {
                "sample_uniform": partial(cq.sample_uniform, model, rows, 0),
                "membership_values": partial(cq.membership_values, model, points),
                "mc_volume": partial(cq.mc_volume, model, rows, 0),
                "verify_unbiasedness": partial(cq.verify_unbiasedness, variant, R, rows, 0),
            }
            for name, run in calls.items():
                out[f"{name} {variant.label} n={n}"] = (1, run)
        u = (points - spec.midpoints) / spec.radii  # MP-II's draws, regularized
        out[f"fit_correlation_matrix scc n={n}"] = (
            1,
            partial(cq.fit_correlation_matrix, "scc", None, u),
        )
    for n, count in ((30, 200), (10, 2000)):
        spec = cq.make_marginal_spec((f"x{k + 1}", 10.0 - k, 14.0 + 0.5 * k) for k in range(n))
        model = cq.build_model(cq.ModelVariant.MP2, spec, correlation(n))
        u = (cq.sample_uniform(model, count, seed=2) - spec.midpoints) / spec.radii
        out[f"fit_correlation_matrix ccc MP-II n={n} N={count}"] = (
            1,
            partial(cq.fit_correlation_matrix, "ccc", cq.ModelVariant.MP2, u),
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=2000, help="one-point calls per repeat")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--data-dir",
        type=Path,
        default=Path(__file__).resolve().parents[1] / "tests" / "data",
    )
    parser.add_argument(
        "--bulk",
        type=int,
        default=0,
        metavar="N",
        help="also time the bulk calls at N rows (at least 10000)",
    )
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("--calls and --repeats must be at least 1")
    if args.bulk and args.bulk < 10_000:
        parser.error("--bulk must be at least 10000, verify_unbiasedness' least draw count")
    table = cases(args.calls, args.data_dir)
    bulk = bulk_cases(args.bulk) if args.bulk else {}
    best = dict.fromkeys([*table, *bulk], float("inf"))
    best_cpu = dict.fromkeys(bulk, float("inf"))
    for _ in range(args.repeats):
        for name, (count, run) in [*table.items(), *bulk.items()]:
            start, start_cpu = time.perf_counter(), time.process_time()
            run()
            best[name] = min(best[name], (time.perf_counter() - start) / count)
            if name in bulk:
                best_cpu[name] = min(best_cpu[name], time.process_time() - start_cpu)
    print(f"us per call, min of {args.repeats} interleaved repeats")
    for name in table:
        print(f"  {name:44s} {1e6 * best[name]:10.2f}")
    if bulk:
        print(f"ms per call at {args.bulk} rows, min of {args.repeats} interleaved repeats")
        print(f"  {'':44s} {'wall':>10s} {'CPU':>10s}")
        for name in bulk:
            print(f"  {name:44s} {1e3 * best[name]:10.2f} {1e3 * best_cpu[name]:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
