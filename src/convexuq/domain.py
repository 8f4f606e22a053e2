"""Interval primitives, sample containers, the regularization map, and
the row blocks and thread groups that the bulk calls run on.

Regularization sends each interval variable onto the standard interval
[-1, 1] via u = (x - midpoint)/radius; deregularization is the exact
inverse. Samples are validated against their marginal intervals before
regularization, with an absolute slack of BOUND_SLACK to absorb I/O
rounding.
"""

from __future__ import annotations

import ctypes
import math
import operator
import os
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import (
    DegenerateInterval,
    DimensionMismatch,
    DuplicateName,
    NameMismatch,
    SampleOutsideMarginal,
)

# absolute slack on interval-bound comparisons (I/O rounding absorption)
BOUND_SLACK = 1e-12
# rows per block of the bulk kernels (membership_values, mc_volume,
# sample_uniform and the SCC fit), whose temporaries stay a few blocks per
# thread
BLOCK_ROWS = 2**14
# most threads one bulk call runs on: each holds a few blocks of
# temporaries, so theirs stay a few blocks whatever the number of cores
BULK_THREADS = 2
# least work, in elements (rows × columns, or rows × pairs), that a bulk
# call splits over threads. A thread costs 0.1–0.2 ms to start and join.
# Measured on two cores, the split breaks even near 5e4 elements for
# sample_uniform and mc_volume, 6e4–3e5 for membership_values, 5e5 for
# the SCC copy and 1.5e6 for the SCC dots; the floor sits between the two
# groups, so that an SCC fit of 2e4 rows at n <= 4 keeps to one thread
THREAD_ELEMENTS = 2**18

_I = TypeVar("_I")
_T = TypeVar("_T")


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lower, upper] with positive, finite width and midpoint."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise DegenerateInterval(f"non-finite interval bounds [{self.lower}, {self.upper}]")
        if not self.lower < self.upper:
            raise DegenerateInterval(f"interval [{self.lower}, {self.upper}] has zero or negative width")
        if not (math.isfinite(self.upper - self.lower) and math.isfinite(self.lower + self.upper)):
            raise DegenerateInterval(
                f"interval [{self.lower}, {self.upper}] has a width or midpoint beyond float range"
            )

    @property
    def midpoint(self) -> float:
        return (self.lower + self.upper) / 2.0

    @property
    def radius(self) -> float:
        return (self.upper - self.lower) / 2.0


def read_only(values) -> np.ndarray:
    """A read-only float copy of `values`; the caller's array stays writable."""
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


def as_integer(value, name: str) -> int:
    """`value` as a Python int, through `operator.index`; a TypeError that
    names the argument otherwise, so a float or a string is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def row_blocks(count: int, size: int = BLOCK_ROWS) -> list[slice]:
    """Consecutive slices covering range(count), each of at most `size`
    rows and of near-equal size. No block of a longer range has a single
    row: numpy hands a one-row matrix product to gemv, which rounds
    differently from the gemm of the other rows."""
    k = max(1, -(-count // size))
    bounds = [count * b // k for b in range(k + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]


def _core_count() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@cache
def _blas_thread_getter() -> Callable[[], int] | None:
    """OpenBLAS's thread-count getter in the library that numpy's wheels
    bundle, or None where numpy has no such library."""
    root = Path(np.__file__).parent  # Linux and Windows wheels, then macOS
    for path in [*root.parent.glob("numpy.libs/*openblas*"), *root.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for name in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, name, None)
            if getter is not None:
                return getter
    return None


def _blas_threads() -> int | None:
    """Threads numpy's BLAS runs one product on now; None where that
    cannot be read."""
    getter = _blas_thread_getter()
    return None if getter is None else int(getter())


def _thread_count() -> int:
    """Threads a bulk call runs on: one per core, at most BULK_THREADS,
    where numpy's BLAS runs one thread. Where it runs threads of its own,
    or may, the call keeps to the caller's thread: the products of two
    threads would each start the BLAS's threads and compete for the
    cores."""
    return min(_core_count(), BULK_THREADS) if _blas_threads() == 1 else 1


def map_groups(
    items: Sequence[_I], work: Callable[[Sequence[_I]], _T], elements: int
) -> list[_T]:
    """`work(group)` for each of W contiguous groups of `items`, results in
    group order: W = min(`_thread_count()`, len(items)) for work over more
    than THREAD_ELEMENTS `elements` (rows × columns, or rows × pairs),
    else one. The items are the row blocks of `row_blocks(rows)` or any
    other list of equal pieces of work. The caller's thread runs group 0
    and a thread of its own each other group, all joined before the
    return; the exception of the first group that raised one is raised
    here. Block boundaries do not depend on W, so item-wise work gives the
    same bits on any number of threads. `work` must not call this again,
    and enters its own `np.errstate`, which holds per thread."""
    width = min(_thread_count(), len(items)) if elements > THREAD_ELEMENTS else 1
    cuts = [len(items) * g // width for g in range(width + 1)]
    groups = [items[lo:hi] for lo, hi in zip(cuts[:-1], cuts[1:])]
    results: list = [None] * width
    errors: list[BaseException | None] = [None] * width

    def run(g: int) -> None:
        try:
            results[g] = work(groups[g])
        except BaseException as exc:  # raised again in the caller
            errors[g] = exc

    threads = [threading.Thread(target=run, args=(g,)) for g in range(1, width)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _check_names(names: Sequence[str], what: str) -> None:
    seen = set()
    for name in names:
        if not name:
            raise DuplicateName(f"empty {what} name")
        if name in seen:
            raise DuplicateName(f"duplicate {what} name '{name}'")
        seen.add(name)


@dataclass(frozen=True)
class MarginalSpec:
    """Ordered named intervals; carries the midpoint vector and the
    diagonal radius scaling of the regularization map."""

    names: tuple[str, ...]
    intervals: tuple[Interval, ...]

    def __post_init__(self) -> None:
        if len(self.names) == 0:
            raise DegenerateInterval("marginal spec needs at least one variable")
        if len(self.names) != len(self.intervals):
            raise DimensionMismatch(
                f"{len(self.names)} names but {len(self.intervals)} intervals"
            )
        _check_names(self.names, "variable")

    @property
    def n(self) -> int:
        return len(self.names)

    # computed once per spec: the reliability solver maps every limit-state
    # evaluation through both
    @cached_property
    def midpoints(self) -> np.ndarray:
        return read_only([iv.midpoint for iv in self.intervals])

    @cached_property
    def radii(self) -> np.ndarray:
        return read_only([iv.radius for iv in self.intervals])

    @property
    def lowers(self) -> np.ndarray:
        return np.array([iv.lower for iv in self.intervals])

    @property
    def uppers(self) -> np.ndarray:
        return np.array([iv.upper for iv in self.intervals])


def make_marginal_spec(pairs: Iterable[tuple[str, float, float]]) -> MarginalSpec:
    """Build a MarginalSpec from (name, lower, upper) triples."""
    pairs = list(pairs)
    names = tuple(str(p[0]) for p in pairs)
    intervals = tuple(Interval(float(p[1]), float(p[2])) for p in pairs)
    return MarginalSpec(names=names, intervals=intervals)


@dataclass(frozen=True)
class SampleSet:
    """Named sample matrix, one row per observation, physical units."""

    names: tuple[str, ...]
    rows: np.ndarray

    def __post_init__(self) -> None:
        rows = read_only(self.rows)
        if rows.ndim != 2:
            raise DimensionMismatch(f"sample rows must be 2-D, got shape {rows.shape}")
        if rows.shape[0] < 1 or rows.shape[1] < 1:
            raise DimensionMismatch(f"empty sample matrix (shape {rows.shape})")
        if rows.shape[1] != len(self.names):
            raise DimensionMismatch(
                f"{len(self.names)} names but {rows.shape[1]} sample columns"
            )
        if not np.all(np.isfinite(rows)):
            raise ValueError("sample matrix contains non-finite entries")
        _check_names(self.names, "sample column")
        object.__setattr__(self, "rows", rows)

    @property
    def n_samples(self) -> int:
        return self.rows.shape[0]

    def aligned_to(self, names: Sequence[str]) -> "SampleSet":
        """Reorder columns to match `names`; raises NameMismatch if the
        name sets differ."""
        if tuple(names) == self.names:
            return self
        if set(names) != set(self.names):
            raise NameMismatch(
                f"sample columns {self.names} do not match spec names {tuple(names)}"
            )
        order = [self.names.index(name) for name in names]
        return SampleSet(names=tuple(names), rows=self.rows[:, order])


@dataclass(frozen=True)
class RegularizedSamples:
    """Dimensionless sample matrix with every entry in [-1, 1]."""

    rows: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", read_only(self.rows))


class Violation(NamedTuple):
    row: int
    column: int
    value: float
    lower: float
    upper: float


def regularize(spec: MarginalSpec, samples: SampleSet) -> RegularizedSamples:
    """Map samples into the standard box: u = (x - midpoint)/radius.

    Hard-errors on out-of-interval entries (with slack) instead of
    clipping: SampleOutsideMarginal names the first and carries every one,
    row-major, in `.violations`. Entries inside the slack band are clamped
    onto [-1, 1] so downstream fits can rely on the box invariant.
    """
    aligned = samples.aligned_to(spec.names)
    lowers, uppers = spec.lowers, spec.uppers
    rows = aligned.rows
    bad = np.argwhere((rows < lowers - BOUND_SLACK) | (rows > uppers + BOUND_SLACK))
    if len(bad):
        violations = tuple(
            Violation(int(r), int(c), float(rows[r, c]), float(lowers[c]), float(uppers[c]))
            for r, c in bad
        )
        first = violations[0]
        raise SampleOutsideMarginal(
            f"sample row {first.row}, column {first.column} "
            f"({spec.names[first.column]}): value {first.value} outside "
            f"[{first.lower}, {first.upper}] "
            f"({len(violations)} violation(s) total)",
            violations=violations,
        )
    u = (rows - spec.midpoints) / spec.radii
    np.clip(u, -1.0, 1.0, out=u)
    return RegularizedSamples(rows=u)


def deregularize(spec: MarginalSpec, u_points: np.ndarray) -> np.ndarray:
    """Inverse regularization: x = midpoint + radius * u, row-wise."""
    u = np.asarray(u_points, dtype=float)
    cols = u.shape[-1] if u.ndim else 0
    if u.ndim not in (1, 2) or cols != spec.n:
        raise DimensionMismatch(
            f"expected {spec.n} columns, got array of shape {u.shape}"
        )
    return spec.midpoints + spec.radii * u
