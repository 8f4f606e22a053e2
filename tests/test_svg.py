import xml.etree.ElementTree as ET

import numpy as np
import pytest

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq.errors import IndexOutOfRange, InputError

NS = {"svg": "http://www.w3.org/2000/svg"}

ROUNDED_R = np.array(
    [
        [1.0, 0.7623, -0.8831],
        [0.7623, 1.0, -0.6732],
        [-0.8831, -0.6732, 1.0],
    ]
)


def unit_model(variant, entries):
    spec = cq.make_marginal_spec(
        (f"u{k + 1}", -1.0, 1.0) for k in range(entries.shape[0])
    )
    R = cq.CorrelationMatrix(entries=entries, method="ccc")
    return cq.build_model(variant, spec, R)


def test_ellipse_render_is_valid_svg(standard_spec):
    R = cq.CorrelationMatrix(entries=ROUNDED_R, method="ccc")
    model = cq.build_model(V.ME, standard_spec, R)
    text = cq.render_projection(model, 0, 1)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    polygons = root.findall(".//svg:polygon", NS)
    assert any(p.get("class") == "domain" for p in polygons)
    assert "display hull" not in text
    # axis names and physical tick labels are printed
    assert ">u1<" in text and ">u2<" in text
    assert ">-1<" in text and ">1<" in text and ">0<" in text


def test_box_render_flags_display_hull():
    model = unit_model(V.MP2, ROUNDED_R)
    text = cq.render_projection(model, 0, 2)
    ET.fromstring(text)
    assert "display hull (vertex projection)" in text


def test_overlay_marks_outside_samples(standard_spec, standard_samples):
    """With the four-decimal published correlation matrix the ellipsoid
    misses exactly two of the twenty standard samples; those two must be
    drawn as stars, the rest as circles."""
    R = cq.CorrelationMatrix(entries=ROUNDED_R, method="ccc")
    model = cq.build_model(V.ME, standard_spec, R)
    text = cq.render_projection(model, 0, 1, samples=standard_samples)
    root = ET.fromstring(text)
    circles = [c for c in root.findall(".//svg:circle", NS) if c.get("class") == "inside"]
    stars = [p for p in root.findall(".//svg:path", NS) if p.get("class") == "outside"]
    assert len(circles) == 18
    assert len(stars) == 2


def test_identity_ellipse_inscribed_in_box():
    model = unit_model(V.ME, np.eye(2))
    root = ET.fromstring(cq.render_projection(model, 0, 1))
    rects = [r for r in root.findall(".//svg:rect", NS) if r.get("class") == "bounds"]
    assert len(rects) == 1
    rect = rects[0]
    x0 = float(rect.get("x"))
    y0 = float(rect.get("y"))
    x1 = x0 + float(rect.get("width"))
    y1 = y0 + float(rect.get("height"))
    polygon = next(
        p for p in root.findall(".//svg:polygon", NS) if p.get("class") == "domain"
    )
    pts = np.array(
        [[float(v) for v in pair.split(",")] for pair in polygon.get("points").split()]
    )
    assert pts[:, 0].min() == pytest.approx(x0, abs=1.0)
    assert pts[:, 0].max() == pytest.approx(x1, abs=1.0)
    assert pts[:, 1].min() == pytest.approx(y0, abs=1.0)
    assert pts[:, 1].max() == pytest.approx(y1, abs=1.0)


def test_four_variable_model_projects_any_pair(data_dir):
    model = cq.load_model(data_dir / "glasses_mp2_model.json")
    for i, j in ((0, 3), (2, 1)):
        ET.fromstring(cq.render_projection(model, i, j))


def test_render_rejects_bad_indices():
    model = unit_model(V.ME, np.eye(2))
    with pytest.raises(IndexOutOfRange):
        cq.render_projection(model, 0, 2)
    with pytest.raises(IndexOutOfRange):
        cq.render_projection(model, 1, 1)


def test_render_is_deterministic(standard_spec, standard_samples):
    R = cq.CorrelationMatrix(entries=ROUNDED_R, method="ccc")
    model = cq.build_model(V.ME, standard_spec, R)
    a = cq.render_projection(model, 0, 1, samples=standard_samples)
    b = cq.render_projection(model, 0, 1, samples=standard_samples)
    assert a == b


def test_wide_parallelepiped_projection_refused():
    """The shadow enumerates 2^n box vertices, so n = 21 is refused before
    any are built."""
    model = unit_model(V.MP2, np.eye(21))
    with pytest.raises(InputError, match=r"n=21: .* = 2097152 box vertices"):
        cq.render_projection(model, 0, 1)
