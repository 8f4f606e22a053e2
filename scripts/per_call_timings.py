"""Per-call timings of the one-point paths.

Prints microseconds per call of `contains` (six variants at n = 3 and
n = 10), of scalar and array `LimitState.evaluate` (the beam limit state
and an n = 10 linear one of the benchmark's synthetic form) and of
`from_delta`. Every case runs `--calls` calls per repeat, array calls a
hundredth of that, and the repeats of all cases are interleaved in one
process, so a change of host load touches every case alike. The figure
kept is the minimum over the repeats. Per-call changes of a few
microseconds are below the run-to-run spread of the benchmark; compare
two commits by running this script on each, alternately.
"""

import argparse
import sys
import time
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
    args = parser.parse_args(argv)
    if args.calls < 1 or args.repeats < 1:
        parser.error("--calls and --repeats must be at least 1")
    table = cases(args.calls, args.data_dir)
    best = dict.fromkeys(table, float("inf"))
    for _ in range(args.repeats):
        for name, (count, run) in table.items():
            start = time.perf_counter()
            run()
            best[name] = min(best[name], (time.perf_counter() - start) / count)
    print(f"us per call, min of {args.repeats} interleaved repeats")
    for name, seconds in best.items():
        print(f"  {name:44s} {1e6 * seconds:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
