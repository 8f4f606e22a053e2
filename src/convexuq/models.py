"""Convex model construction, membership, assessment, and serialization.

Every model is an affine image of a unit p-ball:
X = X^m + D·A·δ with ‖δ‖_p ≤ 1, where X^m are the interval midpoints and
D the diagonal of radii. The ellipsoid (ME) takes A = P, the lower
Cholesky factor of R, and p = 2, which is the domain
{X : (X-X^m)ᵀ C⁻¹ (X-X^m) ≤ 1} with C = D·R·D. Every parallelepiped (MP)
takes A = S, the variant's shape matrix, and p = ∞, which is the domain
{X : |(D·S)⁻¹(X-X^m)| ≤ e}. The factor A and the characteristic matrix
(the inverse appearing in the inequality) are computed once, by
`build_model`; everything else derives from (variant, spec, R, A).
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .correlation import EPS_PD, ESTIMATORS, MEMBERSHIP_TOL, CorrelationMatrix, ModelVariant
from .dataio import read_text
from .domain import (
    Interval,
    MarginalSpec,
    SampleSet,
    map_groups,
    read_only,
    row_blocks,
)
from .errors import (
    DimensionMismatch,
    IllConditioned,
    IndexOutOfRange,
    InputError,
    NotEllipsoid,
    NotPositiveDefinite,
    NumericError,
    ParseError,
)
from .factorization import ShapeMatrix, core_shape_matrix, shape_matrix

_COND_WARN = 1e12
FORMAT_VERSION = 1
# largest disagreement between a loaded file's derived matrix and the one
# rebuilt from its correlation: relative to the largest covariance entry
# (at least 1) for ME; absolute for the MP shape, which files may carry
# print-rounded to about three decimals
_COVARIANCE_RTOL = 1e-9
_SHAPE_ATOL = 5e-4
# rows per pass of the ellipsoid's quadratic form, whose buffers of n + 1
# rows of this many values stay in cache
_FORM_ROWS = 2**12


class Membership(NamedTuple):
    inside: bool
    # quadratic form (ME) or max abs standardized coordinate (MP); inf for a
    # point holding ±inf or nan, or whose value overflows
    value: float


@dataclass(frozen=True)
class AssessmentReport:
    enclosed: int
    total: int
    kappa: float
    nu: float
    nu_bar: float
    excluded: tuple[int, ...]  # 0-based sample row indices outside the domain


@dataclass(frozen=True)
class ConvexModel:
    variant: ModelVariant
    spec: MarginalSpec
    R: CorrelationMatrix
    factor: np.ndarray  # A: Cholesky factor P of R (ME) or shape matrix S (MP)
    characteristic: np.ndarray  # ME: C⁻¹ = (D·R·D)⁻¹; MP: (D·S)⁻¹

    def __post_init__(self) -> None:
        for field in ("factor", "characteristic"):
            object.__setattr__(self, field, read_only(getattr(self, field)))

    # cached: read on every contains and from_delta call
    @cached_property
    def n(self) -> int:
        return self.spec.n

    @cached_property
    def midpoints(self) -> np.ndarray:
        return self.spec.midpoints

    @cached_property
    def radii(self) -> np.ndarray:
        return self.spec.radii

    @property
    def shape(self) -> ShapeMatrix:
        """The shape matrix S of a parallelepiped model."""
        if not self.variant.is_parallelepiped:
            raise ValueError("the ellipsoid model has no shape matrix")
        return ShapeMatrix(entries=self.factor)

    @cached_property
    def _one_point_bound(self) -> float:
        """Largest Σ|x_k| at which `contains`' one-point kernel cannot
        overflow. With T = Σ|x_k| + Σ|X^m_k| and c = max|characteristic|,
        every partial sum of the kernel is at most about c·T (MP) or c·T²
        (ME), so T ≤ L with c·L^degree ≤ max float/4 leaves room for the
        rounding of n terms; L ≤ max float/4 keeps Σ|x_k| = inf out."""
        degree = 2.0 if self.variant is ModelVariant.ME else 1.0
        peak = max(1.0, float(np.max(np.abs(self.characteristic))))
        limit = (sys.float_info.max / 4.0 / peak) ** (1.0 / degree)
        return limit - float(np.sum(np.abs(self.midpoints)))


def _warn_if_ill_conditioned(matrix: np.ndarray, what: str) -> None:
    cond = np.linalg.cond(matrix)
    if cond > _COND_WARN:
        warnings.warn(f"{what} condition number {cond:.3g} above 1e12", IllConditioned)


def _covariance(R: CorrelationMatrix, radii: np.ndarray) -> np.ndarray:
    """C = D·R·D, the ellipsoid's radius-scaled correlation matrix."""
    return R.entries * np.outer(radii, radii)


def build_model(variant: ModelVariant, spec: MarginalSpec, R: CorrelationMatrix) -> ConvexModel:
    """Construct the model for a variant from a marginal spec and a
    positive-definite correlation matrix."""
    if R.n != spec.n:
        raise DimensionMismatch(f"R is {R.n}x{R.n} but spec has {spec.n} variables")
    lam_min = R.lambda_min
    if lam_min < EPS_PD:
        raise NotPositiveDefinite(
            f"correlation matrix smallest eigenvalue {lam_min:.3e} below {EPS_PD:.0e}",
            lambda_min=lam_min,
        )
    radii = spec.radii
    if variant is ModelVariant.ME:
        factor = np.linalg.cholesky(R.entries)
        inverted, what = _covariance(R, radii), "covariance matrix"
    else:
        factor = shape_matrix(core_shape_matrix(variant, R)).entries
        inverted, what = radii[:, None] * factor, "combined shape matrix"
    _warn_if_ill_conditioned(inverted, what)
    return ConvexModel(
        variant=variant,
        spec=spec,
        R=R,
        factor=factor,
        characteristic=np.linalg.inv(inverted),
    )


def _quadratic_form(
    centred: np.ndarray, matrix: np.ndarray, out: np.ndarray | None
) -> np.ndarray:
    """c·M·c of each row c of `centred`, with the bits of
    np.einsum("ij,jk,ik->i", c, M, c). On three or more rows einsum adds
    the terms (c_j·M_jk)·c_k to one sum per row, from 0, j-major and
    k-minor; so does this, in passes over at most _FORM_ROWS rows. A pass
    copies its rows into a transposed array and allocates two buffers of
    its own; for each j it writes the n terms of j below the running sums
    in one buffer and reduces them over axis 0 into the other's sums,
    which numpy does row by row where there are two or more columns (with
    one it sums pairwise); every pass has at least two. On one or two rows
    einsum rounds otherwise, and runs itself."""
    rows, n = centred.shape
    if rows < 3:
        return np.einsum("ij,jk,ik->i", centred, matrix, centred, out=out)
    if out is None:
        out = np.empty(rows)
    for part in row_blocks(rows, _FORM_ROWS):
        c = np.ascontiguousarray(centred[part].T)
        # each reduction reads one buffer and writes the other's running sums
        buffers = np.empty((2, n + 1, c.shape[1]))
        buffers[0, 0] = 0.0
        for j in range(n):
            terms = buffers[j % 2]
            np.multiply(matrix[j][:, None], c[j], out=terms[1:])
            terms[1:] *= c
            sums = out[part] if j == n - 1 else buffers[(j + 1) % 2, 0]
            np.add.reduce(terms, axis=0, out=sums)
    return out


def centred_membership(
    model: ConvexModel, centred: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The membership kernel, in the calling thread: the defining-inequality
    value of each row of `centred`, points less the midpoints in a C-ordered
    block (a Fortran-ordered one's MP product can round otherwise). MP
    allocates its rows×n product itself. A row holding ±inf or nan, or
    whose value overflows, may give inf or nan under the caller's
    `np.errstate`."""
    if model.variant is ModelVariant.ME:
        return _quadratic_form(centred, model.characteristic, out)
    # the reference's row-wise product, whose bits, unlike those of the
    # transposed product, do not depend on the BLAS's thread count; each
    # row's largest magnitude taken column by column gives the bits, nan
    # included, of np.max(|centred @ characteristicᵀ|, axis=1)
    product = centred @ model.characteristic.T
    np.abs(product, out=product)
    if out is None:
        out = np.empty(len(product))
    np.copyto(out, product[:, 0])
    for k in range(1, model.n):
        np.maximum(out, product[:, k], out=out)
    return out


def membership_values(model: ConvexModel, rows: np.ndarray) -> np.ndarray:
    """Defining-inequality value of each row of n coordinates; ≤ 1 means
    inside, and a row holding ±inf or nan, or whose value overflows, gives
    inf, without a warning. Rows are processed in blocks of BLOCK_ROWS,
    in contiguous groups of blocks on up to BULK_THREADS threads
    (`map_groups`), so the temporaries stay a few blocks per thread
    beside the returned values; each finite row's value is the same bits
    as in one pass, on any number of threads. One point goes through
    `contains`."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != model.n:
        raise DimensionMismatch(
            f"points must be rows of {model.n} coordinates, got shape {rows.shape}"
        )
    values = np.empty(len(rows))

    def fill(group: list[slice]) -> None:
        # a non-finite coordinate, or a finite one near the float limit,
        # makes its row's value inf or nan, through overflow and the
        # invalid operations inf·0 and inf − inf
        with np.errstate(over="ignore", invalid="ignore"):
            for block in group:
                out = values[block]
                centred = np.subtract(rows[block], model.midpoints, order="C")
                centred_membership(model, centred, out)
                out[np.isnan(out)] = np.inf

    map_groups(row_blocks(len(rows)), fill, rows.size)
    return values


def contains(model: ConvexModel, x: np.ndarray) -> Membership:
    """Membership of one point of n coordinates, with the
    defining-inequality value as diagnostic slack: the bits of
    `membership_values` on the one row, so inf for a point holding ±inf or
    nan or whose value overflows. A point with Σ|x_k| within the model's
    `_one_point_bound` takes a one-point kernel, which cannot overflow
    there; every other point goes through `membership_values`."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise DimensionMismatch(
            f"expected one point of {model.n} coordinates, got shape {x.shape}"
        )
    if not sum(map(abs, x.tolist())) <= model._one_point_bound:  # nan fails too
        value = float(membership_values(model, x[None])[0])
    elif model.variant is ModelVariant.ME:
        value = float(centred_membership(model, (x - model.midpoints)[None])[0])
    else:  # dot gives the bits of centred_membership's one-row centred @ characteristicᵀ
        value = max(map(abs, model.characteristic.dot(x - model.midpoints).tolist()))
    return Membership(value <= 1.0 + MEMBERSHIP_TOL, value)


def to_delta(model: ConvexModel, x: np.ndarray) -> np.ndarray:
    """Standardize a physical point, δ = A⁻¹D⁻¹(x - X^m); inverse of
    from_delta to 1e-10."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n,):
        raise DimensionMismatch(f"expected point of length {model.n}, got shape {x.shape}")
    return np.linalg.solve(model.factor, (x - model.midpoints) / model.radii)


def from_delta(model: ConvexModel, delta: np.ndarray) -> np.ndarray:
    """Map standardized coordinates to physical ones, x = X^m + D·A·δ, for
    one point or any (…, n) stack of them."""
    delta = np.asarray(delta, dtype=float)
    if delta.ndim == 0 or delta.shape[-1] != model.n:
        raise DimensionMismatch(f"expected vectors of length {model.n}, got shape {delta.shape}")
    x = delta @ model.factor.T
    x *= model.radii
    x += model.midpoints
    return x


def volume_ratio(model: ConvexModel) -> tuple[float, float]:
    """Analytic (nu, nu_bar): domain volume over the marginal box volume,
    and its n-th root."""
    n = model.n
    if model.variant is ModelVariant.ME:
        sphere = math.pi ** (n / 2.0) / math.gamma((n + 2) / 2.0)
        det_r = float(np.linalg.det(model.R.entries))
        nu = sphere * math.sqrt(max(det_r, 0.0)) / 2.0**n
    else:
        nu = abs(float(np.linalg.det(model.factor)))
    return nu, nu ** (1.0 / n)


def fitness(model: ConvexModel, samples: SampleSet) -> AssessmentReport:
    """Count enclosed samples and attach the analytic volume ratios."""
    aligned = samples.aligned_to(model.spec.names)
    values = membership_values(model, aligned.rows)
    outside = np.flatnonzero(values > 1.0 + MEMBERSHIP_TOL)
    total = aligned.n_samples
    enclosed = total - outside.size
    nu, nu_bar = volume_ratio(model)
    return AssessmentReport(
        enclosed=int(enclosed),
        total=int(total),
        kappa=enclosed / total,
        nu=nu,
        nu_bar=nu_bar,
        excluded=tuple(int(k) for k in outside),
    )


def project_2d(model: ConvexModel, i: int, j: int) -> np.ndarray:
    """Exact projection of the regularized ellipsoid onto the (U_i, U_j)
    plane: the 2x2 correlation submatrix (0-based indices)."""
    if model.variant is not ModelVariant.ME:
        raise NotEllipsoid(
            f"exact 2D projection is defined for the ellipsoid model only, "
            f"not {model.variant.label}"
        )
    n = model.n
    for k in (i, j):
        if not 0 <= k < n:
            raise IndexOutOfRange(f"index {k} outside 0..{n - 1}")
    if i == j:
        raise IndexOutOfRange("projection plane needs two distinct indices")
    r = float(model.R.entries[i, j])
    return np.array([[1.0, r], [r, 1.0]])


def _derived_matrix(model: ConvexModel) -> tuple[str, np.ndarray]:
    """The derived matrix a model file stores next to the correlation, and
    its key: the covariance C for ME, the shape S for MP."""
    if model.variant is ModelVariant.ME:
        return "covariance", _covariance(model.R, model.radii)
    return "shape", model.factor


def _flat(matrix: np.ndarray) -> list[float]:
    return [float(v) for v in np.asarray(matrix).ravel()]


def serialize(model: ConvexModel) -> str:
    """Render the model as JSON text; numbers keep shortest round-trip
    precision (at most 17 significant digits)."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "variant": model.variant.value,
        "method": model.R.method,
        "names": list(model.spec.names),
        "lower": [iv.lower for iv in model.spec.intervals],
        "upper": [iv.upper for iv in model.spec.intervals],
        "correlation": _flat(model.R.entries),
    }
    field, derived = _derived_matrix(model)
    doc[field] = _flat(derived)
    return json.dumps(doc, indent=2)


def _require(doc: dict, key: str, kind: type) -> object:
    if key not in doc:
        raise ParseError("missing key", field=key)
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"expected {kind.__name__}", field=key)
    return value


@contextmanager
def _field(name: str):
    """Turn a failure while building one field of a model file into a
    ParseError naming that field."""
    try:
        yield
    except (InputError, NumericError, TypeError, ValueError) as exc:
        raise ParseError(str(exc), field=name) from None


def _numbers(values: list, field: str) -> list[float]:
    """A numeric field's entries as floats; refuses strings, bools and the like."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ParseError("entries must be numbers", field=field)
    try:
        return [float(v) for v in values]
    except OverflowError:  # an integer beyond float range
        raise ParseError("entry beyond float range", field=field) from None


def _matrix_from_flat(values: list, n: int, field: str) -> np.ndarray:
    if len(values) != n * n:
        raise ParseError(f"expected {n * n} row-major entries, got {len(values)}", field=field)
    return np.array(_numbers(values, field)).reshape(n, n)


def deserialize(text: str) -> ConvexModel:
    """Parse a model file, rebuild the model from its variant, intervals
    and correlation with `build_model`, and check the stored derived
    matrix against the rebuilt one: the covariance within 1e-9 relative
    to its largest entry, the shape within 5e-4 absolute (print-rounded
    shapes load). Returns the rebuilt model, so a loaded shape is the
    exact one, never the stored approximation."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    if not isinstance(doc, dict):
        raise ParseError("model file must contain a JSON object")
    version = _require(doc, "format_version", int)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version}", field="format_version")
    variant_tag = _require(doc, "variant", str)
    with _field("variant"):
        variant = ModelVariant(variant_tag)
    method = _require(doc, "method", str)
    if method not in ESTIMATORS:
        raise ParseError(f"unknown method '{method}'", field="method")
    names = _require(doc, "names", list)
    lower = _require(doc, "lower", list)
    upper = _require(doc, "upper", list)
    if not (len(names) == len(lower) == len(upper)) or not names:
        raise ParseError("names/lower/upper lengths differ or are empty", field="names")
    n = len(names)
    bounds = zip(_numbers(lower, "lower"), _numbers(upper, "upper"))
    with _field("lower"):
        intervals = tuple(Interval(lo, hi) for lo, hi in bounds)
    with _field("names"):
        if not all(isinstance(name, str) for name in names):
            raise TypeError("variable names must be strings")
        spec = MarginalSpec(names=tuple(names), intervals=intervals)
    corr = _matrix_from_flat(_require(doc, "correlation", list), n, "correlation")
    if np.max(np.abs(corr - corr.T)) > 1e-9:
        raise ParseError("correlation matrix not symmetric", field="correlation")
    if np.max(np.abs(np.diag(corr) - 1.0)) > 1e-9:
        raise ParseError("correlation diagonal must be 1", field="correlation")
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    with _field("correlation"):
        model = build_model(variant, spec, CorrelationMatrix(entries=corr, method=method))
    field, rebuilt = _derived_matrix(model)
    stored = _matrix_from_flat(_require(doc, field, list), n, field)
    if field == "covariance":
        tol = _COVARIANCE_RTOL * max(np.max(np.abs(stored)), 1.0)
    else:
        tol = _SHAPE_ATOL
    error = float(np.max(np.abs(stored - rebuilt)))
    if error > tol:
        raise ParseError(
            f"stored {field} differs from the one rebuilt from the correlation "
            f"by {error:.3g} (tolerance {tol:.3g})",
            field=field,
        )
    return model


def save_model(path: str | Path, model: ConvexModel) -> None:
    Path(path).write_text(serialize(model) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ConvexModel:
    return deserialize(read_text(path))
