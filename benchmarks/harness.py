"""Measurement plumbing for the convexuq benchmark.

A `Pass` is one timed run through a workload. Every unit of work in it is
an *op* with a unique key; an op fails when it raises or when one of its
recorded outputs differs from the reference (the first pass of the run,
and the goldens recorded at the commit that introduced the benchmark).
The traced run adds a `Tracer` that keeps one span per public library
call in memory; the untraced run uses `NULL_TRACER`, whose spans cost one
method call.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import NamedTuple

import numpy as np

# eta is compared at this relative tolerance, everything else bit for bit.
# eta is the optimum of a constrained minimisation (ray bracketing, then
# SLSQP on eta^2 with ftol 1e-12 and central-difference gradients); a
# change of gradient or evaluation order that keeps the solver correct can
# move the returned optimum within that stopping tolerance, i.e. by about
# sqrt(1e-12) = 1e-6 relative, and no further.
ETA_RTOL = 1e-6

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def canonical(value):
    """JSON-ready form of an output; arrays (and sequences longer than 64)
    become a digest of their bytes, so comparing two outputs compares every
    bit."""
    if isinstance(value, (tuple, list)) and len(value) > 64:
        value = np.asarray(value)
    if isinstance(value, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(value).tobytes()).hexdigest()[:32]
        return f"{value.dtype}{list(value.shape)}:{digest}"
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (tuple, list)):
        return [canonical(v) for v in value]
    return value


def same(key: str, got, want) -> bool:
    if key.endswith("/eta") and isinstance(got, float) and isinstance(want, float):
        return abs(got - want) <= ETA_RTOL * abs(want)
    return got == want


class Span(NamedTuple):
    name: str  # "<layer>.<public function>" or "op"
    start: float
    end: float
    parent: int  # index into the span list, -1 for an op root
    op: str  # key of the op the span belongs to
    calls: int  # >1 only for aggregated expr.evaluate children
    busy: float  # time inside the calls; equals end - start unless aggregated

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Spans of one pass, kept in memory and written out at the end."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.op, 1, end - start)

    def aggregate(self, name: str, proxy: "TimedLimitState") -> None:
        """One child span standing for every call the proxy timed."""
        if proxy.calls:
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(
                Span(name, proxy.first, proxy.last, parent, self.op, proxy.calls, proxy.busy)
            )


class _NullTracer:
    enabled = False
    op = ""
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def aggregate(self, name: str, proxy) -> None:
        pass


NULL_TRACER = _NullTracer()


class TimedLimitState:
    """Stands in for a LimitState inside reliability_index (which only reads
    `.variables` and calls `.evaluate`), so the traced run can split
    expression evaluation from the solver's own time without touching the
    library."""

    def __init__(self, g) -> None:
        self._g = g
        self.variables = g.variables
        self.calls = 0
        self.busy = 0.0
        self.first = self.last = 0.0

    def evaluate(self, env):
        start = time.perf_counter()
        try:
            return self._g.evaluate(env)
        finally:
            end = time.perf_counter()
            if not self.calls:
                self.first = start
            self.calls += 1
            self.busy += end - start
            self.last = end


class Pass:
    """Ops, outputs, end-to-end samples and work counters of one pass."""

    def __init__(self, tracer=NULL_TRACER) -> None:
        self.tracer = tracer
        self.outputs: dict[str, object] = {}  # checked against goldens and between passes
        self.repeats: dict[str, object] = {}  # checked between passes only
        self.shared_ops: set[str] = set()
        self.ops: list[str] = []
        self.failed: dict[str, str] = {}
        self.counters: Counter = Counter()
        self.model_ms: list[float] = []
        self.eta_ms: list[float] = []
        self.draw_points = 0
        self.draw_s = 0.0
        self.wall_s = 0.0
        self._op = ""

    @contextmanager
    def op(self, key: str, shared: bool = False):
        """One checked unit of work. `shared` marks an op whose inputs do
        not depend on the seed, so its goldens hold for every seed."""
        if key in self.ops:
            raise KeyError(f"duplicate op key {key}")
        self.ops.append(key)
        if shared:
            self.shared_ops.add(key)
        self._op = self.tracer.op = key
        try:
            with self.tracer.span("op"):
                yield
        except Exception:  # a failed op is counted and the pass goes on
            self.failed[key] = traceback.format_exc(limit=4)
        finally:
            self._op = self.tracer.op = ""

    def put(self, field: str, value, golden: bool = True) -> None:
        target = self.outputs if golden else self.repeats
        target[f"{self._op}/{field}"] = canonical(value)

    def expect(self, condition: bool, what: str) -> None:
        """An invariant that holds for every seed; failing it fails the op."""
        if not condition:
            self.failed.setdefault(self._op, f"check failed: {what}")

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += int(amount)

    def draws(self, points: int, seconds: float) -> None:
        self.draw_points += int(points)
        self.draw_s += seconds

    def compare(self, reference: dict, exhaustive: bool, outputs: dict | None = None) -> None:
        """Fail every op whose outputs differ from `reference`; with
        `exhaustive`, also every op that left out a reference output."""
        outputs = self.outputs if outputs is None else outputs
        for key, want in reference.items():
            op = key.rsplit("/", 1)[0]
            if key not in outputs:
                if exhaustive:
                    self.failed.setdefault(op, f"missing output {key}")
            elif not same(key, outputs[key], want):
                self.failed.setdefault(
                    op, f"output {key}: got {outputs[key]!r}, expected {want!r}"
                )


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str, seed: int) -> tuple[dict, bool]:
    """Expected outputs for this seed (the seed-independent ones, plus the
    seed's own when it was recorded), and whether the seed was recorded."""
    path = golden_path(workload)
    if not path.exists():
        return {}, False
    doc = json.loads(path.read_text(encoding="utf-8"))
    seeded = doc["seeds"].get(str(seed))
    expected = dict(doc["shared"])
    if seeded is not None:
        expected.update(seeded)
    return expected, seeded is not None


def split_outputs(p: Pass) -> tuple[dict, dict]:
    """(shared, seed-dependent) outputs of a pass."""
    shared, seeded = {}, {}
    for key, value in p.outputs.items():
        (shared if key.rsplit("/", 1)[0] in p.shared_ops else seeded)[key] = value
    return shared, seeded


# --------------------------------------------------------------------------
# metrics


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail_percentile(values, q: float) -> float | None:
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    values = list(values)
    if len(values) * (1.0 - q / 100.0) < 10:
        return None
    return float(np.percentile(values, q))


def layer_busy(spans: list[Span], layers: set[str]) -> float:
    """Time covered by spans of `layers`, counting nested spans of the same
    group once."""
    total = 0.0
    for span in spans:
        if span.layer in layers and (
            span.parent < 0 or spans[span.parent].layer not in layers
        ):
            total += span.busy
    return total


def _durations(spans, name):
    return [s.busy for s in spans if s.name == name]


def _per_op(spans, prefix):
    """Per-op sums of the spans whose name starts with `prefix`."""
    sums: dict[str, float] = {}
    for s in spans:
        if s.name.startswith(prefix):
            sums[s.op] = sums.get(s.op, 0.0) + s.busy
    return list(sums.values())


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass. Names ending in _s are busy
    seconds per pass; _ms/_us names are medians per call (per op where one
    op makes several calls); counts are per pass."""
    spans = p.tracer.spans
    c = p.counters
    fit_s = sum(_durations(spans, "correlation.fit_correlation_matrix"))
    solve_s = sum(_durations(spans, "reliability.reliability_index"))
    evals = [s for s in spans if s.name == "expr.evaluate"]
    eval_s = sum(s.busy for s in evals)
    eval_calls = sum(s.calls for s in evals)
    solves = c["reliability.solves"]
    return {
        "dataio.read_ms": 1e3 * median(_per_op(spans, "dataio.")),
        "domain.regularize_ms": 1e3 * median(_durations(spans, "domain.regularize")),
        "correlation.fit_s": fit_s,
        "correlation.pairs": c["correlation.pairs"],
        "correlation.sample_pairs": c["correlation.sample_pairs"],
        "correlation.pair_ms": 1e3 * fit_s / max(c["correlation.pairs"], 1),
        "correlation.relaxed": c["correlation.relaxed"],
        "correlation.pd_ms": 1e3
        * median(_durations(spans, "correlation.ensure_positive_definite")),
        "correlation.repairs": c["correlation.repairs"],
        "factorization.shape_ms": 1e3 * median(_per_op(spans, "factorization.")),
        "models.build_ms": 1e3 * median(_durations(spans, "models.build_model")),
        "models.fitness_ms": 1e3 * median(_durations(spans, "models.fitness")),
        "models.membership_s": sum(_durations(spans, "models.membership_values")),
        "models.membership_points": c["models.membership_points"],
        "models.membership_bytes_computed": c["models.membership_bytes_computed"],
        "models.contains_us": 1e6 * median(_durations(spans, "models.contains")),
        "models.roundtrip_ms": 1e3 * median(_per_op(spans, "models.save_model"))
        + 1e3 * median(_per_op(spans, "models.load_model")),
        "sampling.sample_s": sum(_durations(spans, "sampling.sample_uniform")),
        "sampling.points": c["sampling.points"],
        "sampling.mc_volume_s": sum(_durations(spans, "sampling.mc_volume")),
        "sampling.verify_s": sum(_durations(spans, "sampling.verify_unbiasedness")),
        "sampling.ccc_recovery_s": sum(_durations(spans, "sampling.ccc_recovery_report")),
        "reliability.solve_s": solve_s,
        "reliability.self_s": solve_s - eval_s,
        "reliability.g_evals": c["reliability.g_evals"],
        "reliability.g_evals_per_solve": c["reliability.g_evals"] / max(solves, 1),
        "reliability.converged_ratio": c["reliability.converged"] / max(solves, 1),
        "expr.parse_ms": 1e3 * median(_durations(spans, "expr.parse_limit_state")),
        "expr.eval_s": eval_s,
        "expr.eval_us": 1e6 * eval_s / max(eval_calls, 1),
        "svg.render_ms": 1e3 * median(_durations(spans, "svg.render_projection")),
    }


LAYERS = (
    "dataio",
    "domain",
    "correlation",
    "factorization",
    "models",
    "sampling",
    "reliability",
    "expr",
    "svg",
)


def layer_shares(p: Pass) -> dict[str, float]:
    """Share of the pass wall time spent inside each layer's calls
    (expr inside reliability counts for expr, not for reliability)."""
    spans = p.tracer.spans
    shares = {}
    for layer in LAYERS:
        busy = layer_busy(spans, {layer})
        if layer == "reliability":
            busy -= sum(_durations(spans, "expr.evaluate"))
        shares[layer] = busy / p.wall_s
    return shares


def write_spans(path: Path, p: Pass) -> None:
    """One traced pass as JSON lines: name, start and end in seconds from
    the pass start, parent span index, op key, calls, busy seconds."""
    spans = p.tracer.spans
    origin = min((s.start for s in spans), default=0.0)
    with path.open("w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(
                json.dumps(
                    [s.name, round(s.start - origin, 9), round(s.end - origin, 9),
                     s.parent, s.op, s.calls, round(s.busy, 9)]
                )
                + "\n"
            )
