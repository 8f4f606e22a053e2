import dataclasses
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq.errors import (
    DimensionMismatch,
    IllConditioned,
    IndexOutOfRange,
    NotEllipsoid,
    NotPositiveDefinite,
    ParseError,
)
from convexuq.domain import BLOCK_ROWS, map_groups, row_blocks

ALL_VARIANTS = tuple(V)
MP_VARIANTS = tuple(v for v in V if v is not V.ME)


def plain_r(entries, method="scc"):
    return cq.CorrelationMatrix(entries=np.asarray(entries, float), method=method)


@pytest.fixture(scope="module")
def spec2():
    return cq.make_marginal_spec([("u1", -2.0, 4.0), ("u2", 10.0, 20.0)])


@pytest.fixture(scope="module")
def r2():
    return plain_r([[1.0, 0.6], [0.6, 1.0]])


def test_me_covariance_from_radii(spec2, r2):
    model = cq.build_model(V.ME, spec2, r2)
    # radii are 3 and 5
    expected = np.array([[9.0, 0.6 * 15.0], [0.6 * 15.0, 25.0]])
    covariance = model.R.entries * np.outer(model.radii, model.radii)
    np.testing.assert_array_equal(covariance, expected)
    np.testing.assert_allclose(model.characteristic @ expected, np.eye(2), atol=1e-12)
    # the factor is the lower Cholesky factor P of R
    np.testing.assert_allclose(model.factor @ model.factor.T, r2.entries, atol=1e-14)
    assert np.array_equal(model.factor, np.tril(model.factor))


def test_mp_dx_shape_and_characteristic(spec2, r2):
    model = cq.build_model(V.MP2, spec2, r2)
    # the factor is the shape matrix S, and D·S is the inverted matrix
    np.testing.assert_array_equal(model.factor, model.shape.entries)
    dx_shape = spec2.radii[:, None] * model.factor
    np.testing.assert_allclose(model.characteristic @ dx_shape, np.eye(2), atol=1e-12)
    # no field belongs to one family only
    fields = {f.name for f in dataclasses.fields(model)}
    assert fields == {"variant", "spec", "R", "factor", "characteristic"}
    with pytest.raises(ValueError):
        cq.build_model(V.ME, spec2, r2).shape


def test_build_rejects_dimension_mismatch(spec2):
    r3 = plain_r(np.eye(3))
    with pytest.raises(DimensionMismatch):
        cq.build_model(V.ME, spec2, r3)


def test_build_rejects_non_pd():
    spec = cq.make_marginal_spec([(f"u{k}", -1.0, 1.0) for k in range(1, 4)])
    indefinite = plain_r([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        cq.build_model(V.ME, spec, indefinite)


def test_ill_conditioned_warning():
    spec = cq.make_marginal_spec([("a", -1.0, 1.0), ("b", -1e9, 1e9)])
    with pytest.warns(IllConditioned):
        cq.build_model(V.ME, spec, plain_r(np.eye(2)))


def test_model_holds_read_only_copies(spec2, r2):
    built = cq.build_model(V.MP2, spec2, r2)
    factor = np.array(built.factor)
    characteristic = np.array(built.characteristic)
    model = cq.ConvexModel(V.MP2, spec2, r2, factor, characteristic)
    factor[0, 0] = characteristic[0, 0] = 7.0  # the caller's arrays stay writable
    np.testing.assert_array_equal(model.factor, built.factor)
    np.testing.assert_array_equal(model.characteristic, built.characteristic)
    for held in (model.factor, model.characteristic):
        with pytest.raises(ValueError):
            held[0, 0] = 5.0


def test_membership_ellipse_boundary():
    spec = cq.make_marginal_spec([("a", -1.0, 1.0), ("b", -1.0, 1.0)])
    model = cq.build_model(V.ME, spec, plain_r(np.eye(2)))
    assert cq.contains(model, [1.0, 0.0]).inside
    assert cq.contains(model, [math.sqrt(1.0 + 5e-10), 0.0]).inside
    outside = cq.contains(model, [math.sqrt(1.0 + 5e-9), 0.0])
    assert not outside.inside
    assert outside.value == pytest.approx(1.0 + 5e-9)


def test_membership_box_coordinates(spec2):
    model = cq.build_model(V.MP2, spec2, plain_r(np.eye(2)))
    # identity correlation: the domain is the marginal box itself
    values = cq.membership_values(
        model, np.array([[1.0, 15.0], [4.0, 15.0], [1.0, 21.0]])
    )
    np.testing.assert_allclose(values, [0.0, 1.0, 1.2], atol=1e-12)


def test_membership_rejects_wrong_width(spec2, r2):
    model = cq.build_model(V.ME, spec2, r2)
    with pytest.raises(DimensionMismatch):
        cq.membership_values(model, np.zeros((4, 3)))


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
@pytest.mark.parametrize(
    "point",
    [[[1.0, 15.0]], [[1.0, 15.0], [4.0, 15.0]], 5.0, [1.0, 15.0, 0.0]],
    ids=["row", "two-rows", "scalar", "three-coordinates"],
)
def test_contains_takes_one_point(spec2, r2, variant, point):
    """contains takes one point of n coordinates only, and
    membership_values takes rows only: it refuses one point too."""
    model = cq.build_model(variant, spec2, r2)
    shape = str(np.shape(point))
    with pytest.raises(DimensionMismatch, match=re.escape(shape)):
        cq.contains(model, point)
    if np.ndim(point) != 2:
        with pytest.raises(DimensionMismatch, match=re.escape(shape)):
            cq.membership_values(model, point)
    with pytest.raises(DimensionMismatch, match=re.escape("(2,)")):
        cq.membership_values(model, [1.0, 15.0])


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_membership_rejects_stacks(variant):
    # a stack whose middle axis equals n used to be reduced over that axis
    spec = cq.make_marginal_spec([(f"u{k}", -1.0, 1.0) for k in range(1, 4)])
    model = cq.build_model(variant, spec, plain_r(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        cq.membership_values(model, np.zeros((2, 3, 3)))


def test_volume_ellipse_closed_form(spec2):
    for r in (0.0, 0.3, -0.8):
        model = cq.build_model(V.ME, spec2, plain_r([[1.0, r], [r, 1.0]]))
        nu, nu_bar = cq.volume_ratio(model)
        assert nu == pytest.approx(math.pi * math.sqrt(1.0 - r * r) / 4.0)
        assert nu_bar == pytest.approx(math.sqrt(nu))


def test_volume_ball_3d():
    spec = cq.make_marginal_spec([(f"u{k}", -1.0, 1.0) for k in range(1, 4)])
    model = cq.build_model(V.ME, spec, plain_r(np.eye(3)))
    nu, _ = cq.volume_ratio(model)
    assert nu == pytest.approx(4.0 * math.pi / 3.0 / 8.0)


def test_volume_parallelepiped_is_shape_det(spec2, r2):
    for variant in MP_VARIANTS:
        model = cq.build_model(variant, spec2, r2)
        nu, nu_bar = cq.volume_ratio(model)
        assert nu == pytest.approx(abs(np.linalg.det(model.shape.entries)))
        assert nu_bar == pytest.approx(math.sqrt(nu))


def test_fitness_counts_and_excluded(spec2):
    model = cq.build_model(V.ME, spec2, plain_r(np.eye(2)))
    samples = cq.SampleSet(
        names=("u1", "u2"),
        rows=np.array([[1.0, 15.0], [2.5, 17.5], [10.0, 15.0], [1.0, 25.0]]),
    )
    report = cq.fitness(model, samples)
    assert report.total == 4
    assert report.enclosed == 2
    assert report.kappa == pytest.approx(0.5)
    assert report.excluded == (2, 3)
    assert report.nu == pytest.approx(math.pi / 4.0)
    round_trip = json.loads(json.dumps(dataclasses.asdict(report)))
    assert round_trip["excluded"] == [2, 3]


def test_fitness_aligns_columns(spec2):
    model = cq.build_model(V.ME, spec2, plain_r(np.eye(2)))
    swapped = cq.SampleSet(names=("u2", "u1"), rows=np.array([[15.0, 1.0], [15.0, 10.0]]))
    report = cq.fitness(model, swapped)
    assert report.excluded == (1,)


def test_fitness_scale_equivariant(standard_spec, standard_samples):
    """Rescaling every variable by its own affine map changes nothing in
    the regularized picture: same kappa, same excluded rows, same nu."""
    scale = np.array([2.0, 0.5, 10.0])
    offset = np.array([5.0, -3.0, 100.0])
    spec_t = cq.make_marginal_spec(
        (name, scale[k] * iv.lower + offset[k], scale[k] * iv.upper + offset[k])
        for k, (name, iv) in enumerate(zip(standard_spec.names, standard_spec.intervals))
    )
    samples_t = cq.SampleSet(
        names=standard_samples.names, rows=standard_samples.rows * scale + offset
    )
    r = cq.fit_correlation_matrix("scc", None, cq.regularize(standard_spec, standard_samples).rows)
    for variant in ALL_VARIANTS:
        a = cq.fitness(cq.build_model(variant, standard_spec, r), standard_samples)
        b = cq.fitness(cq.build_model(variant, spec_t, r), samples_t)
        assert a.excluded == b.excluded
        assert a.nu == pytest.approx(b.nu, rel=1e-12)


def test_project_2d_values_and_errors(spec2, r2):
    model = cq.build_model(V.ME, spec2, r2)
    np.testing.assert_array_equal(
        cq.project_2d(model, 0, 1), np.array([[1.0, 0.6], [0.6, 1.0]])
    )
    with pytest.raises(IndexOutOfRange):
        cq.project_2d(model, 0, 2)
    with pytest.raises(IndexOutOfRange):
        cq.project_2d(model, 1, 1)
    box = cq.build_model(V.MP2, spec2, r2)
    with pytest.raises(NotEllipsoid):
        cq.project_2d(box, 0, 1)


@pytest.mark.parametrize("variant", ALL_VARIANTS, ids=lambda v: v.value)
def test_serialize_round_trip(spec2, r2, variant):
    model = cq.build_model(variant, spec2, r2)
    text = cq.serialize(model)
    loaded = cq.deserialize(text)
    assert loaded.variant is variant
    assert loaded.spec.names == model.spec.names
    np.testing.assert_array_equal(loaded.R.entries, model.R.entries)
    np.testing.assert_array_equal(loaded.midpoints, model.midpoints)
    np.testing.assert_array_equal(loaded.radii, model.radii)
    np.testing.assert_array_equal(loaded.factor, model.factor)
    np.testing.assert_array_equal(loaded.characteristic, model.characteristic)
    if variant is not V.ME:
        np.testing.assert_array_equal(loaded.shape.entries, model.shape.entries)
    # the defining inequality must agree point by point
    probe = np.array([[0.0, 14.0], [3.0, 19.0], [-1.5, 11.0]])
    np.testing.assert_array_equal(
        cq.membership_values(loaded, probe), cq.membership_values(model, probe)
    )


def test_save_load_round_trip(tmp_path, spec2, r2):
    model = cq.build_model(V.LTRI, spec2, r2)
    path = tmp_path / "model.json"
    cq.save_model(path, model)
    loaded = cq.load_model(path)
    np.testing.assert_array_equal(loaded.factor, model.factor)
    np.testing.assert_array_equal(loaded.characteristic, model.characteristic)


# each parallelepiped's shape at r = 0.5, in closed form
_A, _B = (3.0 - math.sqrt(3.0)) / 2.0, (math.sqrt(3.0) - 1.0) / 2.0  # a + b = 1
_M = math.sqrt(3.0) / 6.0
TRUE_SHAPES = {
    "mp1": [2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 2.0 / 3.0],
    "mp2": [0.5 + _M, 0.5 - _M, 0.5 - _M, 0.5 + _M],
    "rect": [_A, _B, _A, -_B],
    "ltri": [1.0, 0.0, _B, _A],
    "utri": [_A, _B, 0.0, 1.0],
}


def valid_doc(variant="me"):
    doc = {
        "format_version": 1,
        "variant": variant,
        "method": "scc",
        "names": ["a", "b"],
        "lower": [-1.0, -2.0],
        "upper": [1.0, 2.0],
        "correlation": [1.0, 0.5, 0.5, 1.0],
    }
    if variant == "me":
        doc["covariance"] = [1.0, 1.0, 1.0, 4.0]
    else:
        doc["shape"] = list(TRUE_SHAPES[variant])
    return doc


def loadable_doc(variant):
    """valid_doc, after checking that it loads unchanged."""
    doc = valid_doc(variant)
    assert cq.deserialize(json.dumps(doc)).variant is V(variant)
    return doc


def test_deserialize_reports_json_line():
    with pytest.raises(ParseError) as exc:
        cq.deserialize('{\n"format_version": 1,\n"variant" "me"\n}')
    assert exc.value.line == 3


def test_deserialize_requires_object():
    with pytest.raises(ParseError):
        cq.deserialize("[1, 2, 3]")


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.pop("method"), "method"),
        (lambda d: d.update(format_version=2), "format_version"),
        (lambda d: d.update(variant="blob"), "variant"),
        (lambda d: d.update(method="pearson"), "method"),
        (lambda d: d.update(names=["a"]), "names"),
        (lambda d: d.update(correlation=[1.0, 0.5, 0.5]), "correlation"),
        (lambda d: d.update(correlation=[1.0, 0.5, -0.5, 1.0]), "correlation"),
        (lambda d: d.update(correlation=[2.0, 0.5, 0.5, 1.0]), "correlation"),
        (lambda d: d.update(covariance=[1.0, 1.0, 1.0, 5.0]), "covariance"),
        (lambda d: d.update(lower=["x", -2.0]), "lower"),
    ],
)
def test_deserialize_rejects_bad_me_docs(mutate, field):
    doc = loadable_doc("me")
    mutate(doc)
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == field


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(format_version=True), "format_version"),
        (lambda d: d.update(names=[1, 2]), "names"),
        (lambda d: d.update(names=["a", "a"]), "names"),
        (lambda d: d.update(upper=[-1.0, 2.0]), "lower"),  # lower == upper
    ],
)
def test_deserialize_refuses_self_contradicting_docs(mutate, field):
    """A bool version, numeric names, a repeated name and a zero-width
    interval are each refused with the field they break."""
    doc = loadable_doc("me")
    mutate(doc)
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == field


@pytest.mark.parametrize("lower, upper", [(-1e308, 1e308), (1e308, 1.7e308)])
def test_deserialize_refuses_an_interval_beyond_float_range(lower, upper):
    """Finite bounds whose width or midpoint overflows: refused on lower,
    where a model of nan would otherwise load."""
    doc = loadable_doc("me")
    doc["lower"][0], doc["upper"][0] = lower, upper
    with pytest.raises(ParseError, match="beyond float range") as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == "lower"


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(lower=["-1.0", False]), "lower"),
        (lambda d: d.update(upper=[1.0, "2.0"]), "upper"),
        (lambda d: d.update(correlation=["1.0", "0.5", "0.5", "1.0"]), "correlation"),
        (lambda d: d.update(correlation=[True, 0.5, 0.5, 1.0]), "correlation"),
        (lambda d: d.update(covariance=[1.0, "1.0", 1.0, 4.0]), "covariance"),
    ],
)
def test_deserialize_refuses_non_numeric_entries(mutate, field):
    """Strings and bools are refused, not converted: the first document
    would otherwise load as the intervals [-1, 1] and [0, 2]."""
    doc = loadable_doc("me")
    mutate(doc)
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == field
    assert "entries must be numbers" in str(exc.value)


@pytest.mark.parametrize("field", ["lower", "correlation"])
def test_deserialize_refuses_integer_beyond_float_range(field):
    """JSON reads a 401-digit integer as a Python int that float() cannot
    convert: the entry is refused naming its field, not left to raise
    OverflowError."""
    doc = loadable_doc("me")
    doc[field][0] = 10**400
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == field


def test_deserialize_rejects_bad_shapes():
    doc = loadable_doc("rect")
    doc["shape"] = [0.9, 0.4, 0.25, 0.75]  # first row sums to 1.3
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == "shape"
    doc["shape"] = [0.5, 0.5, 0.5, 0.5]  # singular
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == "shape"


def test_deserialize_accepts_print_rounded_shape():
    """A shape printed to four decimals loads, and the loaded model carries
    the shape rebuilt from the correlation, not the stored one."""
    for variant in MP_VARIANTS:
        doc = loadable_doc(variant.value)
        doc["shape"] = [round(v, 4) for v in doc["shape"]]
        model = cq.deserialize(json.dumps(doc))
        rebuilt = cq.build_model(variant, model.spec, model.R)
        np.testing.assert_array_equal(model.shape.entries, rebuilt.shape.entries)
        assert not np.array_equal(model.shape.entries.ravel(), doc["shape"])


def test_deserialize_rejects_shape_of_another_correlation():
    """An identity correlation next to the MP-II shape of r = 0.5."""
    doc = loadable_doc("mp2")
    doc["correlation"] = [1.0, 0.0, 0.0, 1.0]
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == "shape"


def test_deserialize_rejects_inflated_shape(standard_spec, standard_u):
    """The standard CCC MP-II model with its shape scaled by 1.04: every
    row sum is 1.04, so the marginals are no longer exact and nu grows by
    1.04^3 (9.11% to 10.25%)."""
    R = cq.fit_correlation_matrix("ccc", V.MP2, standard_u)
    doc = json.loads(cq.serialize(cq.build_model(V.MP2, standard_spec, R)))
    assert cq.deserialize(json.dumps(doc)).variant is V.MP2
    doc["shape"] = [1.04 * v for v in doc["shape"]]
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == "shape"


def test_deserialize_rejects_indefinite_mp_correlation():
    doc = {
        "format_version": 1,
        "variant": "mp2",
        "method": "scc",
        "names": ["a", "b", "c"],
        "lower": [-1.0, -1.0, -1.0],
        "upper": [1.0, 1.0, 1.0],
        "correlation": [1.0, 0.9, -0.9, 0.9, 1.0, 0.9, -0.9, 0.9, 1.0],
        "shape": [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    }
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == "correlation"


def test_deserialize_rejects_indefinite_me_correlation():
    doc = valid_doc("me")
    doc["correlation"] = [1.0, 1.0, 1.0, 1.0]
    doc["covariance"] = [1.0, 2.0, 2.0, 4.0]
    with pytest.raises(ParseError) as exc:
        cq.deserialize(json.dumps(doc))
    assert exc.value.field == "correlation"


def test_glasses_fixture_loads(data_dir):
    model = cq.load_model(data_dir / "glasses_mp2_model.json")
    assert model.variant is V.MP2
    assert model.spec.names == ("Ta", "Va", "PA", "PB")
    assert model.R.method == "ccc"
    assert cq.contains(model, model.midpoints).inside
    lam = np.linalg.eigvalsh(model.R.entries)[0]
    assert lam > 0.1
    # the file's shape is printed to about three decimals; the loaded
    # model carries the shape rebuilt from its correlation
    rebuilt = cq.build_model(V.MP2, model.spec, model.R)
    np.testing.assert_array_equal(model.shape.entries, rebuilt.shape.entries)
    assert cq.volume_ratio(model)[0] == pytest.approx(0.1403566, abs=1e-7)


def test_a_model_file_with_a_byte_order_mark_loads(tmp_path, data_dir):
    """A copy of a model file that starts with a UTF-8 byte-order mark loads
    as the file itself, bit for bit."""
    source = data_dir / "glasses_mp2_model.json"
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    loaded, expected = cq.load_model(path), cq.load_model(source)
    assert np.array_equal(loaded.R.entries, expected.R.entries)
    assert np.array_equal(loaded.characteristic, expected.characteristic)


BULK_ROWS = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 17)
# thread counts a bulk call is run on: W = min(threads, blocks) groups of
# blocks
THREAD_COUNTS = (1, 2, 3, 7)


def test_row_blocks_cover_in_order_without_single_rows():
    for count in (1, 2, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1, 5 * BLOCK_ROWS - 1):
        blocks = row_blocks(count)
        assert blocks[0].start == 0 and blocks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        sizes = [block.stop - block.start for block in blocks]
        assert max(sizes) <= BLOCK_ROWS
        assert len(blocks) == 1 or min(sizes) > 1


@pytest.mark.parametrize("rows", (0, 1, 2, 3, 17, 160, 161) + BULK_ROWS)
@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_blocked_membership_is_bit_identical(bulk_model, one_shot_membership, variant, rows):
    model = bulk_model(variant)
    points = np.random.default_rng(rows).uniform(-3.0, 5.0, size=(rows, model.n))
    np.testing.assert_array_equal(
        cq.membership_values(model, points), one_shot_membership(model, points)
    )


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 16, 30])
def test_mp_membership_is_bit_identical_across_widths_and_layouts(
    bulk_model, one_shot_membership, n, layout
):
    """Every variant's kernel gives the one-shot reference's bits whatever
    the memory layout of the rows, across block boundaries and the
    ellipsoid's pass boundaries, and on one and two rows, where einsum
    rounds otherwise at n = 2. MP's row-wise product and column-wise max
    need the C-ordered centring: a Fortran-ordered one would not match at
    n = 16 and 30."""
    models = [bulk_model(V.MP2, n), bulk_model(V.LTRI, n), bulk_model(V.ME, n)]
    form = cq.models._FORM_ROWS
    counts = (0, 1, 2, 3, 4, 17, 161, form - 1, form + 1, 2 * form + 3, BLOCK_ROWS - 1)
    for rows in counts + (BLOCK_ROWS + 1,):
        wide = np.random.default_rng(rows).uniform(-3.0, 5.0, size=(rows, 2 * n))
        points = {
            "C": np.ascontiguousarray(wide[:, :n]),
            "F": np.asfortranarray(wide[:, :n]),
            "strided": wide[:, ::2],
        }[layout]
        for model in models:
            np.testing.assert_array_equal(
                cq.membership_values(model, points),
                one_shot_membership(model, points),
                err_msg=f"{model.variant.value}, {rows} rows",
            )


def test_mp_membership_bits_do_not_depend_on_the_blas_thread_count():
    """The check above, in a process whose OpenBLAS multiplies on one
    thread (the benchmark's setting): a product laid out n×rows rounds its
    last rows differently there at n = 16 and 30, the reference's
    rows×n product does not."""
    test = f"{__file__}::test_mp_membership_is_bit_identical_across_widths_and_layouts"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=os.path.dirname(os.path.dirname(__file__)),
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stdout[-3000:]
    assert re.search(r"^21 passed", done.stdout, re.MULTILINE), done.stdout


@pytest.mark.parametrize("rows", (8, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 17))
@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_membership_of_nonfinite_rows_is_bit_identical(
    bulk_model, one_shot_membership, thread_count, variant, rows
):
    """Rows holding nan or ±inf, in the first and the last block, give inf
    without a warning in any thread, also where the reference's value is
    nan (inf·0 and inf − inf in the product), and every finite row keeps
    the reference's bits, on 1, 2, 3 and 7 threads."""
    model = bulk_model(variant)
    n = model.n
    uniform = np.random.default_rng(rows).uniform(-3.0, 5.0, size=(rows, n))
    reference = one_shot_membership(model, uniform)
    marked = uniform.copy(), uniform.copy()
    for at in (0, rows - 4):
        marked[0][at, 3] = np.nan
        marked[0][at + 1, 0] = np.inf
        marked[0][at + 2, n - 1] = -np.inf
        marked[0][at + 3] = np.nan
        marked[1][at, [0, n - 1]] = np.inf, -np.inf
        marked[1][at + 1, [0, n - 1]] = -np.inf, np.nan
    for threads, points in itertools.product(THREAD_COUNTS, marked):
        thread_count(threads)
        finite = np.isfinite(points).all(axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = cq.membership_values(model, points)
        np.testing.assert_array_equal(values[finite], reference[finite], err_msg=f"{threads}")
        assert np.all(values[~finite] == np.inf)
    with np.errstate(invalid="ignore"):
        assert np.isnan(one_shot_membership(model, marked[1])[~finite]).all()


@pytest.mark.parametrize("column", ["first", "last"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["+inf", "-inf", "nan"])
@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_nonfinite_coordinate_is_outside(bulk_model, variant, value, column):
    """One ±inf or nan coordinate, in a column that LTriMP or UTriMP
    multiplies by zero coefficients, gives inf without a warning through
    contains and through membership_values on 2 and on BLOCK_ROWS + 1
    rows, and leaves the other rows' bits as they are."""
    model = bulk_model(variant)
    k = 0 if column == "first" else model.n - 1
    point = model.midpoints.copy()
    point[k] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cq.contains(model, point) == cq.Membership(inside=False, value=math.inf)
        for rows in (2, BLOCK_ROWS + 1):
            points = np.random.default_rng(rows).uniform(-3.0, 5.0, size=(rows, model.n))
            expected = cq.membership_values(model, points)
            points[-1, k] = value
            expected[-1] = np.inf
            np.testing.assert_array_equal(cq.membership_values(model, points), expected)


def _unit_model(variant):
    """R = [[1, .5], [.5, 1]] on [-1, 1]²: midpoints at 0."""
    spec = cq.make_marginal_spec([("x1", -1.0, 1.0), ("x2", -1.0, 1.0)])
    return cq.build_model(variant, spec, plain_r([[1.0, 0.5], [0.5, 1.0]]))


@pytest.mark.parametrize("point", [(1e308, -1e308), (1.7e308, 1.7e308)], ids=["opposite", "same"])
@pytest.mark.parametrize("midpoints", ["zero", "away"])
@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_finite_point_whose_value_overflows_is_outside(bulk_model, variant, midpoints, point):
    """A finite point near the float limit gives no warning and a value
    that is never nan, through contains and through membership_values on
    2 and on BLOCK_ROWS + 1 rows, and leaves the other rows' bits as they
    are."""
    model = _unit_model(variant) if midpoints == "zero" else bulk_model(variant, n=2)
    point = np.array(point)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        member = cq.contains(model, point)
        assert not member.inside and not math.isnan(member.value)
        assert member.value == cq.membership_values(model, point[None])[0]
        for rows in (2, BLOCK_ROWS + 1):
            points = np.random.default_rng(rows).uniform(-3.0, 5.0, size=(rows, 2))
            expected = cq.membership_values(model, points)
            points[-1] = point
            values = cq.membership_values(model, points)
            np.testing.assert_array_equal(values[:-1], expected[:-1])
            assert values[-1] > 1.0 + cq.correlation.MEMBERSHIP_TOL


def _one_point_cases(model, gen):
    """Interior, exterior and vertex points, points with ±0.0 coordinates,
    and points just either side of the one-point kernel's overflow bound."""
    n = model.n
    ball = gen.uniform(-1.0, 1.0, size=(8, n))
    if model.variant is V.ME:
        ball /= np.maximum(1.0, np.abs(ball).sum(axis=1))[:, None]
    signs = gen.choice([-1.0, 1.0], size=(4, n))
    points = [*cq.from_delta(model, ball), *cq.from_delta(model, 3.0 * ball)]
    points += [*cq.from_delta(model, signs), *cq.from_delta(model, -signs)]
    for k in range(2):
        zeros = cq.from_delta(model, ball[k])
        zeros[:: 2 - k] = [0.0, -0.0][k]
        points.append(zeros)
    bound, mid = model._one_point_bound, np.abs(model.midpoints).sum()
    for factor in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        direction = signs[0] / n
        points.append(direction * (bound * factor))
        points.append(direction * (bound + mid) * factor)
    return points


@pytest.mark.parametrize("n", [1, 2, 3, 6, 10])
@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_contains_has_the_bits_of_membership_values(bulk_model, variant, n):
    """contains' one-point kernel gives the bits of membership_values on
    the one row, on both sides of its overflow bound, without a warning."""
    model = bulk_model(variant, n=n)
    sides = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in _one_point_cases(model, np.random.default_rng(n)):
            member = cq.contains(model, x)
            expected = cq.membership_values(model, x[None])[0]
            assert type(member.value) is float
            assert member.value.hex() == float(expected).hex()
            assert member.inside == (expected <= 1.0 + cq.correlation.MEMBERSHIP_TOL)
            sides.add(sum(map(abs, x.tolist())) <= model._one_point_bound)
    assert sides == {True, False}


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_membership_memory_is_bounded(bulk_model, traced_peak, monkeypatch, variant):
    """Beside the returned values, the temporaries of a 4e5-row call stay
    below three blocks per thread, on 1, 2 and 7 cores: below three
    blocks on one core, and at most BULK_THREADS threads on any (a
    one-pass kernel holds at least the 32 MB of centred rows)."""
    model = bulk_model(variant)
    points = np.random.default_rng(0).uniform(-3.0, 5.0, size=(400_000, model.n))
    monkeypatch.setattr(cq.domain, "_blas_threads", lambda: 1)
    for cores in (1, 2, 7):
        monkeypatch.setattr(cq.domain, "_core_count", lambda: cores)
        values, peak = traced_peak(lambda: cq.membership_values(model, points))
        bound = 3 * min(cores, cq.domain.BULK_THREADS) * BLOCK_ROWS * model.n * 8
        assert bound < points.nbytes  # rules out the one-pass kernel
        assert peak < values.nbytes + bound, cores


def test_bulk_calls_use_one_thread_beside_a_threaded_blas(monkeypatch):
    """One thread per core up to BULK_THREADS where the BLAS runs one; one
    where it runs more, or its count cannot be read."""
    for cores, blas, threads in ((1, 1, 1), (2, 1, 2), (7, 1, 2), (7, 2, 1), (7, None, 1)):
        monkeypatch.setattr(cq.domain, "_core_count", lambda: cores)
        monkeypatch.setattr(cq.domain, "_blas_threads", lambda: blas)
        assert cq.domain._thread_count() == threads, (cores, blas)


@pytest.mark.parametrize("setting", ["1", "2"])
def test_blas_thread_count_is_read_from_the_library(setting):
    """Where numpy bundles OpenBLAS, the count read is the one its
    environment variable sets, capped at the cores."""
    code = "import convexuq.domain as d; print(d._blas_threads(), d._core_count())"
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": setting,
        "PYTHONPATH": str(Path(cq.__file__).parents[1]),
    }
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    blas, cores = out.stdout.split()
    assert blas in ("None", str(min(int(setting), int(cores))))


def test_block_groups_split_the_blocks_in_order(thread_count):
    """W = min(threads, items) contiguous groups of row_blocks, or of any
    other items over more than BLOCK_ROWS rows and one group over fewer,
    results in group order, group 0 in the caller's thread and no thread
    left over."""
    caller, before = threading.get_ident(), threading.active_count()

    def tagged(group):
        return group, threading.get_ident()

    for threads in THREAD_COUNTS:
        thread_count(threads)
        cases = [(row_blocks(count), count) for count in (0, 1, BLOCK_ROWS, BLOCK_ROWS + 1)]
        cases += [(row_blocks(5 * BLOCK_ROWS - 1), 5 * BLOCK_ROWS - 1)]
        cases += [(list(range(55)), BLOCK_ROWS), (list(range(55)), BLOCK_ROWS + 1)]
        for items, rows in cases:
            groups = map_groups(items, tagged, rows)
            assert len(groups) == (min(threads, len(items)) if rows > BLOCK_ROWS else 1)
            assert [item for group, _ in groups for item in group] == items
            assert [ident == caller for _, ident in groups] == [True] + [False] * (len(groups) - 1)
    assert threading.active_count() == before


def test_block_groups_raise_a_worker_error(thread_count):
    """An exception in any group reaches the caller, after every thread is
    joined; of two, the first group's is raised."""
    thread_count(3)
    count, before = 5 * BLOCK_ROWS, threading.active_count()

    def fail_after_first(group):
        if group[0].start > 0:
            raise KeyError(group[0].start)

    with pytest.raises(KeyError) as exc:
        map_groups(row_blocks(count), fail_after_first, count)
    assert exc.value.args == (row_blocks(count)[1].start,)
    assert threading.active_count() == before
