"""The three benchmark workloads and the seeded inputs they run on.

Each workload has `setup(size, seed, workdir)`, which generates every input
and writes it as files, and `run(pass_, inputs)`, one timed pass. The
library sees only the generated files and limit-state texts. Why each
workload exists is in README.md next to this file.
"""

from __future__ import annotations

import csv
import hashlib
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq.errors import DegenerateData
from harness import Pass, TimedLimitState

DATA = Path(__file__).resolve().parents[1] / "tests" / "data"
BUNDLED = ("standard", "beam", "geotech")
METHODS = ("scc", "ccc")
VARIANTS = tuple(V)
# draws on the bundled sets use a fixed seed, so that their recorded
# outputs hold for every workload seed
BUNDLED_DRAW_SEED = 7


@dataclass(frozen=True)
class Size:
    wide: tuple[tuple[int, int], ...]  # (n, N) of the fit-wide sets
    recovery_variant: V  # variant of fit-wide's ccc_recovery_report
    contains: int  # points drawn and checked one by one per model
    strengths: tuple[float, ...]  # beam yield strengths S of the sweep
    synthetic: tuple[int, int]  # (n, N) of the synthetic model set
    bulk: int  # points per bulk-draws call
    small: int  # draws of ccc_recovery_report and of the tail's sampling calls


FULL = Size(
    wide=((30, 200), (10, 2000)),
    recovery_variant=V.MP2,
    contains=1000,
    strengths=(200.0, 220.0, 250.0, 300.0),
    synthetic=(10, 60),
    bulk=1_000_000,
    small=10_000,
)
# smoke-test size, also the set-up's warm-up pass
TINY = Size(((5, 20), (4, 50)), V.ME, 20, (220.0,), (4, 20), 20_000, 10_000)


@dataclass
class Inputs:
    seed: int
    size: Size
    workdir: Path
    sets: dict[str, tuple[Path, Path]] = field(default_factory=dict)  # intervals, samples
    texts: dict[str, str] = field(default_factory=dict)  # limit-state sources


# --------------------------------------------------------------------------
# input generation


def synthetic_rows(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """Correlated samples in the open unit box: a Gaussian copula with one
    common factor. Loadings within ±0.5 keep pairwise correlation at most
    0.25, so MP-II shape determinants stay clear of the singular-shape
    floor (1e-14) even at n = 30."""
    load = rng.uniform(-0.5, 0.5, size=n)
    z = rng.standard_normal((count, 1)) * load + rng.standard_normal((count, n)) * np.sqrt(
        1.0 - load**2
    )
    return 2.0 * ndtr(z) - 1.0


def limit_state_text(rng: np.random.Generator, lower: np.ndarray, upper: np.ndarray) -> str:
    """g = c - sum(a_k x_k) - b x_2 x_n over variables x1..xn, with c set so
    that g(midpoint) > 0 and the linear part reaches 0 inside the box."""
    n = lower.size
    mid, rad = (lower + upper) / 2.0, (upper - lower) / 2.0
    a = np.round(rng.uniform(0.5, 1.5, n), 4) * rng.choice((-1.0, 1.0), n)
    b = round(float(rng.uniform(0.05, 0.15)), 4)
    c = round(float(a @ mid + b * mid[1] * mid[-1] + rng.uniform(0.3, 0.6) * (np.abs(a) @ rad)), 6)
    terms = " ".join(f"{'-' if ak > 0 else '+'} {abs(float(ak))!r}*x{k + 1}" for k, ak in enumerate(a))
    return f"{c!r} {terms} - {b!r}*x2*x{n}"


def write_set(workdir: Path, name: str, lower, upper, rows: np.ndarray) -> tuple[Path, Path]:
    names = [f"x{k + 1}" for k in range(len(lower))]
    intervals, samples = workdir / f"{name}_intervals.csv", workdir / f"{name}_samples.csv"
    with intervals.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for row in zip(names, lower, upper):
            writer.writerow([row[0], repr(float(row[1])), repr(float(row[2]))])
    with samples.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([repr(float(v)) for v in row] for row in rows)
    return intervals, samples


def _new_inputs(size: Size, seed: int, workdir: Path) -> Inputs:
    workdir.mkdir(parents=True, exist_ok=True)
    return Inputs(seed=seed, size=size, workdir=workdir)


def _add_bundled(inputs: Inputs, names) -> None:
    for name in names:
        inputs.sets[name] = (DATA / f"{name}_intervals.csv", DATA / f"{name}_samples.csv")
    inputs.texts["beam"] = (DATA / "beam_limit_state.txt").read_text(encoding="utf-8").strip()


def _add_synthetic_model_set(inputs: Inputs, rng: np.random.Generator) -> None:
    """The n = 10 set behind the synthetic models: physical intervals with
    midpoints in [10, 20] and radii in [1, 3], and its limit state."""
    n, count = inputs.size.synthetic
    mid, rad = rng.uniform(10.0, 20.0, n), rng.uniform(1.0, 3.0, n)
    lower, upper = mid - rad, mid + rad
    rows = mid + rad * synthetic_rows(rng, n, count)
    inputs.sets["synthetic"] = write_set(inputs.workdir, "synthetic", lower, upper, rows)
    inputs.texts["synthetic"] = limit_state_text(rng, lower, upper)


def setup_fit_wide(size: Size, seed: int, workdir: Path) -> Inputs:
    inputs = _new_inputs(size, seed, workdir)
    rng = np.random.default_rng([seed, 1])
    for n, count in size.wide:
        ones = np.ones(n)
        inputs.sets[f"wide-n{n}"] = write_set(
            workdir, f"wide-n{n}", -ones, ones, synthetic_rows(rng, n, count)
        )
    _add_bundled(inputs, ("beam",))
    return inputs


def setup_case_studies(size: Size, seed: int, workdir: Path) -> Inputs:
    inputs = _new_inputs(size, seed, workdir)
    _add_bundled(inputs, BUNDLED)
    _add_synthetic_model_set(inputs, np.random.default_rng([seed, 2]))
    return inputs


def setup_bulk_draws(size: Size, seed: int, workdir: Path) -> Inputs:
    inputs = _new_inputs(size, seed, workdir)
    _add_bundled(inputs, ("beam",))
    _add_synthetic_model_set(inputs, np.random.default_rng([seed, 2]))
    return inputs


# --------------------------------------------------------------------------
# ops: each wraps public library calls in spans and records checked outputs


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def _count_classified(p: Pass, points: int, n: int) -> None:
    p.count("models.membership_points", points)
    # computed from array sizes: n float64 coordinates in, one value out
    p.count("models.membership_bytes_computed", 8 * points * (n + 1))


def parse(p: Pass, name: str, text: str, shared: bool):
    g = None
    with p.op(f"{name}/parse", shared):
        with p.tracer.span("expr.parse_limit_state"):
            parsed = cq.parse_limit_state(text)
        p.put("variables", sorted(parsed.variables))
        g = parsed
    return g


def read_set(p: Pass, name: str, paths: tuple[Path, Path], shared: bool):
    result = None
    with p.op(f"{name}/read", shared):
        with p.tracer.span("dataio.read_intervals_csv"):
            spec = cq.read_intervals_csv(paths[0])
        with p.tracer.span("dataio.read_samples_csv"):
            samples = cq.read_samples_csv(paths[1])
        p.put("samples", samples.rows)
        result = spec, samples
    return result


def fit_model(p: Pass, key: str, spec, samples, variant: V, method: str, shared: bool):
    """regularize -> fit -> PD repair -> build -> fitness, as the CLI runs
    it; returns (model, report) or None when the op failed."""
    tr = p.tracer
    result = None
    with p.op(f"{key}/model", shared):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            with tr.span("domain.regularize"):
                u = cq.regularize(spec, samples).rows
            with tr.span("correlation.fit_correlation_matrix"):
                R = cq.fit_correlation_matrix(
                    method, variant if method == "ccc" else None, u, on_infeasible="relax"
                )
            relaxed = sum(issubclass(w.category, DegenerateData) for w in caught)
            with tr.span("correlation.ensure_positive_definite"):
                R = cq.ensure_positive_definite(R, policy="repair")
            with tr.span("models.build_model"):
                model = cq.build_model(variant, spec, R)
            with tr.span("models.fitness"):
                report = cq.fitness(model, samples)
            p.model_ms.append(1e3 * (time.perf_counter() - start))
        count, n = u.shape
        pairs = n * (n - 1) // 2
        p.count("correlation.pairs", pairs)
        p.count("correlation.sample_pairs", count * pairs)
        p.count("correlation.relaxed", relaxed)
        p.count("correlation.repairs", R.repair is not None)
        _count_classified(p, count, n)
        p.put("R", R.entries)
        p.put("kappa", [report.enclosed, report.total])
        p.put("excluded", report.excluded)
        p.put("nu", report.nu)
        p.put("warnings", sorted(w.category.__name__ for w in caught))
        result = model, report
    if result is not None and variant.is_parallelepiped:
        with p.op(f"{key}/shape", shared):
            with tr.span("factorization.core_shape_matrix"):
                H = cq.core_shape_matrix(variant, R)
            with tr.span("factorization.shape_matrix"):
                S = cq.shape_matrix(H)
            p.expect(np.array_equal(S.entries, model.shape.entries), "factorization = model shape")
    return result


def roundtrip(p: Pass, key: str, model, workdir: Path, shared: bool) -> None:
    path = workdir / "model.json"
    with p.op(f"{key}/roundtrip", shared):
        with p.tracer.span("models.save_model"):
            cq.save_model(path, model)
        with p.tracer.span("models.load_model"):
            loaded = cq.load_model(path)
        p.put("file", _digest(path.read_text(encoding="utf-8")))
        p.expect(
            np.array_equal(loaded.R.entries, model.R.entries)
            and np.array_equal(loaded.characteristic, model.characteristic),
            "loaded model equals the saved one",
        )


def classify(p: Pass, key: str, model, count: int, seed: int, shared: bool) -> None:
    """Draw points from the model and check each with a scalar contains."""
    tr = p.tracer
    with p.op(f"{key}/contains", shared):
        start = time.perf_counter()
        with tr.span("sampling.sample_uniform"):
            points = cq.sample_uniform(model, count, seed)
        values = np.empty(count)
        inside = 0
        for k, x in enumerate(points):
            with tr.span("models.contains"):
                member = cq.contains(model, x)
            values[k] = member.value
            inside += member.inside
        p.draws(count, time.perf_counter() - start)
        p.count("sampling.points", count)
        _count_classified(p, count, model.n)
        p.put("points", points)
        p.put("values", values)
        p.put("inside", inside)


def render(p: Pass, key: str, model, samples, shared: bool) -> None:
    with p.op(f"{key}/render", shared):
        with p.tracer.span("svg.render_projection"):
            document = cq.render_projection(model, 0, 1, samples)
        p.expect(document.rstrip().endswith("</svg>"), "complete SVG document")
        p.put("svg", _digest(document))


def solve(p: Pass, key: str, model, g, bindings: dict, shared: bool) -> None:
    if g is None:
        return
    tr = p.tracer
    with p.op(f"{key}/eta", shared):
        with tr.span("reliability.reliability_index"):
            target = TimedLimitState(g) if tr.enabled else g
            start = time.perf_counter()
            result = cq.reliability_index(model, target, cq.ReliabilityOptions(bindings=bindings))
            p.eta_ms.append(1e3 * (time.perf_counter() - start))
            tr.aggregate("expr.evaluate", target)
        p.count("reliability.solves")
        p.count("reliability.g_evals", result.evaluations)
        p.count("reliability.converged", result.converged)
        if tr.enabled:
            p.expect(target.calls == result.evaluations, "the proxy saw every evaluation")
        delta = np.abs(result.delta_star)
        length = np.sqrt(delta @ delta) if result.norm == "euclidean" else delta.max()
        p.expect(abs(length - result.eta) <= 1e-9 * result.eta, "eta is the norm of delta*")
        p.put("eta", result.eta)
        # solver work, not a result: checked between passes, not against goldens
        p.put("evaluations", result.evaluations, golden=False)
        p.put("converged", result.converged, golden=False)


def draw_and_classify(p: Pass, key: str, model, count: int, seed: int) -> None:
    tr = p.tracer
    with p.op(f"{key}/draws"):
        start = time.perf_counter()
        with tr.span("sampling.sample_uniform"):
            points = cq.sample_uniform(model, count, seed)
        with tr.span("models.membership_values"):
            values = cq.membership_values(model, points)
        p.draws(count, time.perf_counter() - start)
        p.count("sampling.points", count)
        _count_classified(p, count, model.n)
        inside = int(np.count_nonzero(values <= 1.0 + cq.MEMBERSHIP_TOL))
        p.expect(inside == count, "every uniform draw lies in its domain")
        p.put("points", points)
        p.put("values", values)


def mc_volume(p: Pass, key: str, model, nu: float, count: int, seed: int, shared: bool) -> None:
    with p.op(f"{key}/mc_volume", shared):
        start = time.perf_counter()
        with p.tracer.span("sampling.mc_volume"):
            share, _ = cq.mc_volume(model, count, seed)
        p.draws(count, time.perf_counter() - start)
        p.count("sampling.points", count)
        p.put("hits", round(share * count))
        sigma = np.sqrt(nu * (1.0 - nu) / count)
        p.expect(abs(share - nu) <= 6.0 * sigma + 1.0 / count, "hit ratio agrees with nu")


def verify(p: Pass, key: str, model, count: int, seed: int, shared: bool) -> None:
    with p.op(f"{key}/verify", shared):
        with p.tracer.span("sampling.verify_unbiasedness"):
            report = cq.verify_unbiasedness(model.variant, model.R, count, seed)
        p.count("sampling.points", count)
        p.put("recovered", report.recovered_R)
        p.put("verdict", report.verdict)
        if model.variant is not V.MP1:
            p.expect(report.verdict == cq.VERDICT_UNBIASED, "unbiased variant recovers R")


def recovery(p: Pass, key: str, variant: V, count: int, seed: int, shared: bool) -> None:
    """CCC re-fitted on uniform draws from a 2-D domain with r = 0.6."""
    r = 0.6
    with p.op(f"{key}/recovery", shared):
        start = time.perf_counter()
        with p.tracer.span("sampling.ccc_recovery_report"):
            report = cq.ccc_recovery_report(variant, np.array([[1.0, r], [r, 1.0]]), count, seed)
        p.draws(count, time.perf_counter() - start)
        p.count("sampling.points", count)
        p.put("recovered", report.recovered_R)
        p.expect(abs(report.recovered_R[0, 1] - r) < 0.05, "CCC of the draws is near r")


def coverage_tail(p: Pass, inputs: Inputs) -> None:
    """Calls every layer on the beam SCC MP-II model, so that each per-layer
    metric is a measured number on every workload. Its inputs do not depend
    on the seed; it costs a few percent of any pass and never dominates
    one."""
    size, seed = inputs.size, BUNDLED_DRAW_SEED
    g = parse(p, "tail", inputs.texts["beam"], True)
    data = read_set(p, "tail", inputs.sets["beam"], True)
    fitted = data and fit_model(p, "tail", *data, V.MP2, "scc", True)
    if not fitted:
        return
    (model, report), samples = fitted, data[1]
    roundtrip(p, "tail", model, inputs.workdir, True)
    with p.op("tail/margins", True):
        with p.tracer.span("models.membership_values"):
            values = cq.membership_values(model, samples.rows)
        _count_classified(p, samples.n_samples, model.n)
        p.put("values", values)
    classify(p, "tail", model, size.contains, seed, True)
    mc_volume(p, "tail", model, report.nu, size.small, seed, True)
    verify(p, "tail", model, size.small, seed, True)
    recovery(p, "tail", V.ME, size.small, seed, True)
    render(p, "tail", model, samples, True)
    for strength in size.strengths:
        solve(p, f"tail/S{strength:g}", model, g, {"S": strength}, True)


# --------------------------------------------------------------------------
# workloads


def run_fit_wide(p: Pass, inputs: Inputs) -> None:
    size = inputs.size
    for (n, _), variants in zip(size.wide, ((V.MP2, V.ME), (V.MP2,))):
        name = f"wide-n{n}"
        data = read_set(p, name, inputs.sets[name], False)
        if data is None:
            continue
        for variant in variants:
            for method in ("ccc", "scc"):
                fit_model(p, f"{name}/{method}/{variant.value}", *data, variant, method, False)
    recovery(p, "wide", size.recovery_variant, size.small, inputs.seed, False)
    coverage_tail(p, inputs)


def run_case_studies(p: Pass, inputs: Inputs) -> None:
    size = inputs.size
    beam_g = parse(p, "beam", inputs.texts["beam"], True)
    synthetic_g = parse(p, "synthetic", inputs.texts["synthetic"], False)
    beam_models = {}
    for name in BUNDLED:
        data = read_set(p, name, inputs.sets[name], True)
        if data is None:
            continue
        for method in METHODS:
            for variant in VARIANTS:
                key = f"{name}/{method}/{variant.value}"
                fitted = fit_model(p, key, *data, variant, method, True)
                if fitted is None:
                    continue
                model = fitted[0]
                roundtrip(p, key, model, inputs.workdir, True)
                classify(p, key, model, size.contains, BUNDLED_DRAW_SEED, True)
                render(p, key, model, data[1], True)
                if name == "beam":
                    beam_models[key] = model
    for key, model in beam_models.items():
        for strength in size.strengths:
            solve(p, f"{key}/S{strength:g}", model, beam_g, {"S": strength}, True)
    data = read_set(p, "synthetic", inputs.sets["synthetic"], False)
    if data is not None:
        for variant in VARIANTS:
            key = f"synthetic/scc/{variant.value}"
            fitted = fit_model(p, key, *data, variant, "scc", False)
            if fitted is not None:
                solve(p, key, fitted[0], synthetic_g, {}, False)
    coverage_tail(p, inputs)


def run_bulk_draws(p: Pass, inputs: Inputs) -> None:
    size, seed = inputs.size, inputs.seed
    for name in ("beam", "synthetic"):
        data = read_set(p, name, inputs.sets[name], name == "beam")
        if data is None:
            continue
        for variant in VARIANTS:
            key = f"{name}/scc/{variant.value}"
            fitted = fit_model(p, key, *data, variant, "scc", name == "beam")
            if fitted is None:
                continue
            model, report = fitted
            draw_and_classify(p, key, model, size.bulk, seed)
            mc_volume(p, key, model, report.nu, size.bulk, seed, False)
            verify(p, key, model, size.bulk, seed, False)
    coverage_tail(p, inputs)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Size, int, Path], Inputs]
    run: Callable[[Pass, Inputs], None]
    dominant: frozenset  # layers expected to do >= 70% of a pass


WORKLOADS = {
    "fit-wide": Workload(setup_fit_wide, run_fit_wide, frozenset({"correlation"})),
    "case-studies": Workload(
        setup_case_studies, run_case_studies, frozenset({"reliability", "expr"})
    ),
    "bulk-draws": Workload(setup_bulk_draws, run_bulk_draws, frozenset({"sampling", "models"})),
}
