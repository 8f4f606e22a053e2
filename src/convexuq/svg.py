"""Self-contained SVG rendering of 2D domain projections.

Drawn in regularized coordinates (viewBox spans [-1.1, 1.1] in both
directions) with tick labels in physical units. For ellipsoid models the
boundary is the exact projected ellipse; for parallelepiped models it is
the convex hull of the projected box vertices, which is the exact shadow
because a linear image of a polytope is the hull of its vertices' images.
"""

from __future__ import annotations

import itertools

import numpy as np

from .correlation import ModelVariant
from .domain import SampleSet, regularize
from .errors import IndexOutOfRange, InputError
from .models import MEMBERSHIP_TOL, ConvexModel, membership_values, project_2d

__all__ = ["render_projection"]

_SIZE = 640
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 78, 30, 34, 64
_SPAN = 1.1
_MAX_BOX_DIM = 20  # the parallelepiped shadow enumerates all 2^n box vertices

_STYLE = (
    "text{font-family:sans-serif;font-size:13px;fill:#333}"
    ".tick{font-size:11px;fill:#555}"
    ".bounds{fill:none;stroke:#999;stroke-width:1;stroke-dasharray:5 4}"
    ".domain{fill:rgba(70,120,200,0.12);stroke:#3465a4;stroke-width:1.6}"
    ".inside{fill:#2e8b57;stroke:none}"
    ".outside{fill:none;stroke:#c0392b;stroke-width:1.3}"
)


def _to_px(u: float, v: float) -> tuple[float, float]:
    w = _SIZE - _MARGIN_L - _MARGIN_R
    h = _SIZE - _MARGIN_T - _MARGIN_B
    x = _MARGIN_L + (u + _SPAN) / (2 * _SPAN) * w
    y = _MARGIN_T + (_SPAN - v) / (2 * _SPAN) * h
    return x, y


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _points_attr(uv: np.ndarray) -> str:
    return " ".join(f"{px:.2f},{py:.2f}" for px, py in (_to_px(u, v) for u, v in uv))


def _star_path(cx: float, cy: float, r: float) -> str:
    pts = []
    for k in range(10):
        radius = r if k % 2 == 0 else 0.42 * r
        ang = -np.pi / 2 + k * np.pi / 5
        pts.append(f"{cx + radius * np.cos(ang):.2f},{cy + radius * np.sin(ang):.2f}")
    return "M" + " L".join(pts) + " Z"


def _boundary_points(model: ConvexModel, i: int, j: int) -> np.ndarray:
    """Projected boundary polygon in regularized (u_i, u_j) coordinates."""
    if model.variant is ModelVariant.ME:
        chol2 = np.linalg.cholesky(project_2d(model, i, j))
        theta = np.linspace(0.0, 2.0 * np.pi, 257)
        circle = np.stack([np.cos(theta), np.sin(theta)])
        return (chol2 @ circle).T
    if model.n > _MAX_BOX_DIM:
        raise InputError(
            f"cannot project a parallelepiped with n={model.n}: its shadow needs "
            f"all 2^{model.n} = {2**model.n} box vertices (at most n={_MAX_BOX_DIM})"
        )
    from scipy.spatial import ConvexHull  # at the first render: `import convexuq` loads no scipy

    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=model.n)))
    projected = (corners @ model.factor.T)[:, [i, j]]
    hull = ConvexHull(projected)
    return projected[hull.vertices]


def render_projection(
    model: ConvexModel,
    i: int,
    j: int,
    samples: SampleSet | None = None,
) -> str:
    """Build the SVG document for the (i, j) coordinate-plane projection.

    Indices are 0-based. Overlay samples are physical rows re-ordered to
    the model's variables; markers use full-domain membership (circle
    inside, star outside), not the 2D shadow.
    """
    n = model.n
    for name, k in (("i", i), ("j", j)):
        if not 0 <= k < n:
            raise IndexOutOfRange(f"index {name}={k} outside 0..{n - 1}")
    if i == j:
        raise IndexOutOfRange("projection needs two distinct indices")

    names = model.spec.names
    boundary = _boundary_points(model, i, j)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f"<style>{_STYLE}</style>",
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]

    # marginal bounding box u = +-1 with physical tick labels
    bx0, by1 = _to_px(-1.0, -1.0)
    bx1, by0 = _to_px(1.0, 1.0)
    parts.append(
        f'<rect class="bounds" x="{bx0:.2f}" y="{by0:.2f}" '
        f'width="{bx1 - bx0:.2f}" height="{by1 - by0:.2f}"/>'
    )
    lo_i, hi_i = model.spec.lowers[i], model.spec.uppers[i]
    lo_j, hi_j = model.spec.lowers[j], model.spec.uppers[j]
    mid_i, mid_j = model.midpoints[i], model.midpoints[j]
    tick_y = by1 + 16
    for u, value in ((-1.0, lo_i), (0.0, mid_i), (1.0, hi_i)):
        px, _ = _to_px(u, 0.0)
        parts.append(
            f'<text class="tick" x="{px:.2f}" y="{tick_y:.2f}" '
            f'text-anchor="middle">{_fmt(value)}</text>'
        )
    for v, value in ((-1.0, lo_j), (0.0, mid_j), (1.0, hi_j)):
        _, py = _to_px(0.0, v)
        parts.append(
            f'<text class="tick" x="{bx0 - 8:.2f}" y="{py + 4:.2f}" '
            f'text-anchor="end">{_fmt(value)}</text>'
        )
    parts.append(
        f'<text x="{(bx0 + bx1) / 2:.2f}" y="{_SIZE - 14}" '
        f'text-anchor="middle">{names[i]}</text>'
    )
    parts.append(
        f'<text x="16" y="{(by0 + by1) / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(by0 + by1) / 2:.2f})">{names[j]}</text>'
    )

    parts.append(f'<polygon class="domain" points="{_points_attr(boundary)}"/>')
    title = f"{model.variant.label} projection ({names[i]}, {names[j]})"
    if model.variant.is_parallelepiped:
        # the polygon is the exact shadow; tests and benchmark goldens pin this wording
        title += " - display hull (vertex projection)"
    parts.append(f'<text x="{_MARGIN_L}" y="22">{title}</text>')

    if samples is not None:
        aligned = samples.aligned_to(names)
        inside_mask = membership_values(model, aligned.rows) <= 1.0 + MEMBERSHIP_TOL
        reg = regularize(model.spec, aligned)
        uv = reg.rows[:, [i, j]]
        for (u, v), inside in zip(uv, inside_mask):
            px, py = _to_px(float(u), float(v))
            if inside:
                parts.append(f'<circle class="inside" cx="{px:.2f}" cy="{py:.2f}" r="3.4"/>')
            else:
                parts.append(f'<path class="outside" d="{_star_path(px, py, 6.2)}"/>')

    parts.append("</svg>")
    return "\n".join(parts)
