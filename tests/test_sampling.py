import multiprocessing
import threading

import numpy as np
import pytest

import convexuq as cq
from convexuq import ModelVariant as V
from convexuq.domain import BLOCK_ROWS
from convexuq.sampling import _stream

R6 = np.array([[1.0, 0.6], [0.6, 1.0]])


def unit_model(variant, entries=R6):
    spec = cq.make_marginal_spec(
        (f"u{k + 1}", -1.0, 1.0) for k in range(entries.shape[0])
    )
    R = cq.CorrelationMatrix(entries=entries, method="scc")
    return cq.build_model(variant, spec, R)


def test_sampling_is_deterministic():
    model = unit_model(V.ME)
    a = cq.sample_uniform(model, 500, seed=42)
    b = cq.sample_uniform(model, 500, seed=42)
    np.testing.assert_array_equal(a, b)
    c = cq.sample_uniform(model, 500, seed=43)
    assert np.any(a != c)


@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_draws_stay_inside_domain(variant):
    model = unit_model(variant)
    draws = cq.sample_uniform(model, 2000, seed=7)
    values = cq.membership_values(model, draws)
    assert np.all(values <= 1.0 + cq.MEMBERSHIP_TOL)


def test_draw_counts_and_shapes():
    model = unit_model(V.MP2)
    assert cq.sample_uniform(model, 17, seed=0).shape == (17, 2)
    with pytest.raises(ValueError):
        cq.sample_uniform(model, 0, seed=0)


def test_ball_radial_cdf():
    """In the ellipsoid's own coordinates the radius of a uniform draw has
    CDF r^n; check the n = 2 case at r = 0.5 against the binomial error."""
    model = unit_model(V.ME, np.eye(2))
    count = 20_000
    draws = cq.sample_uniform(model, count, seed=5)
    radius = np.linalg.norm(draws, axis=1)
    frac = np.mean(radius <= 0.5)
    se = np.sqrt(0.25 * 0.75 / count)
    assert abs(frac - 0.25) < 4.0 * se


def test_box_draw_reaches_corners():
    model = unit_model(V.LTRI)
    draws = cq.sample_uniform(model, 20_000, seed=11)
    delta = (draws - model.midpoints) @ model.characteristic.T
    assert delta.min() > -1.0 - 1e-12 and delta.max() < 1.0 + 1e-12
    assert delta.min() < -0.999 and delta.max() > 0.999


def test_mc_volume_matches_analytic():
    for variant in (V.ME, V.MP2, V.RECT):
        model = unit_model(variant)
        nu, _ = cq.volume_ratio(model)
        est, se = cq.mc_volume(model, 20_000, seed=3)
        assert abs(est - nu) < 4.0 * se
    with pytest.raises(ValueError):
        cq.mc_volume(model, 100, seed=0)


def test_verdict_tolerance_shrinks():
    assert cq.verdict_tolerance(10_000) == pytest.approx(0.045)
    assert cq.verdict_tolerance(40_000) < cq.verdict_tolerance(10_000)


@pytest.mark.parametrize("variant", [V.ME, V.MP2, V.RECT, V.LTRI, V.UTRI], ids=lambda v: v.value)
def test_uniform_draws_recover_scc(variant):
    report = cq.verify_unbiasedness(variant, R6, draws=10_000, seed=1)
    assert report.verdict == cq.VERDICT_UNBIASED
    assert report.max_abs_error <= report.tolerance
    assert report.recovered_R[0, 1] == pytest.approx(0.6, abs=report.tolerance)


def test_mp1_bias_is_visible():
    """The identity-factor box distorts correlations: uniform draws carry
    SCC 2r/(1+r^2), which is 0.882 at r = 0.6, far outside the band."""
    report = cq.verify_unbiasedness(V.MP1, R6, draws=20_000, seed=1)
    assert report.verdict == cq.VERDICT_BIASED
    expected = 2.0 * 0.6 / (1.0 + 0.36)
    assert report.recovered_R[0, 1] == pytest.approx(expected, abs=0.03)


def test_verify_minimum_draws():
    with pytest.raises(ValueError):
        cq.verify_unbiasedness(V.ME, R6, draws=5000, seed=0)


def test_ccc_recovery_is_report_only():
    report = cq.ccc_recovery_report(V.MP2, R6, draws=10_000, seed=2)
    assert isinstance(report, cq.CCCRecoveryReport)
    assert not hasattr(report, "verdict")
    assert not hasattr(report, "tolerance")
    assert report.recovered_R[0, 1] == pytest.approx(0.6, abs=0.05)


@pytest.mark.parametrize("kind", [np.int64, np.int32], ids=["int64", "int32"])
def test_numpy_integer_counts_and_seeds_give_the_bits_of_ints(thread_count, kind):
    """numpy integers are taken as the Python ints they equal, on two
    threads, and the reports carry Python ints."""
    thread_count(2)
    model, count = unit_model(V.ME), 2 * BLOCK_ROWS + 3
    np.testing.assert_array_equal(
        cq.sample_uniform(model, kind(count), kind(3)), cq.sample_uniform(model, count, 3)
    )
    assert cq.mc_volume(model, kind(count), kind(3)) == cq.mc_volume(model, count, 3)
    for report in (cq.verify_unbiasedness, cq.ccc_recovery_report):
        got, expected = report(V.MP2, R6, kind(10_000), kind(2)), report(V.MP2, R6, 10_000, 2)
        np.testing.assert_array_equal(got.recovered_R, expected.recovered_R)
        assert (type(got.draws), type(got.seed)) == (int, int)


def test_non_integer_counts_and_seeds_raise_type_error():
    """A float count, draw count or seed raises a TypeError naming it,
    rather than being truncated or failing inside the draw."""
    model = unit_model(V.MP2)
    calls = [
        ("count", lambda: cq.mc_volume(model, 1000.5, 0)),
        ("seed", lambda: cq.sample_uniform(model, 10, 1.5)),
        ("draws", lambda: cq.verify_unbiasedness(V.ME, R6, 1e4, 0)),
        ("seed", lambda: cq.ccc_recovery_report(V.ME, R6, 10_000, 1.0)),
    ]
    for name, call in calls:
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            call()


BULK_COUNTS = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 17)
# thread counts a bulk call is run on: W = min(threads, blocks) groups of
# blocks
THREAD_COUNTS = (1, 2, 3, 7)


def one_shot_draw(model, count, seed):
    """sample_uniform written as one pass of whole-array expressions: the
    reference the in-place draw must reproduce bit for bit."""
    gen = np.random.Generator(np.random.Philox(key=seed))
    n = model.n
    if model.variant is V.ME:
        half = (count * n + 1) // 2
        u1 = gen.random(half)
        u2 = gen.random(half)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        z = z[: count * n].reshape(count, n)
        norms = np.linalg.norm(z, axis=1)
        norms[norms == 0.0] = 1.0
        radial = gen.random(count) ** (1.0 / n)
        delta = z / norms[:, None] * radial[:, None]
        return model.midpoints + model.radii * (delta @ model.factor.T)
    delta = 2.0 * gen.random((count, n)) - 1.0
    return model.midpoints + delta @ (model.radii[:, None] * model.factor).T


@pytest.mark.parametrize("count", BULK_COUNTS)
@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_draws_are_bit_identical_to_one_shot(bulk_model, variant, count):
    model = bulk_model(variant)
    np.testing.assert_array_equal(
        cq.sample_uniform(model, count, seed=count), one_shot_draw(model, count, count)
    )


@pytest.mark.parametrize("count", BULK_COUNTS)
@pytest.mark.parametrize("variant", list(V), ids=lambda v: v.value)
def test_streamed_mc_volume_counts_one_shot_hits(
    bulk_model, one_shot_membership, monkeypatch, thread_count, variant, count
):
    """The hits at the real threshold, and at the draws' median membership
    value, which every variant hits with about half its draws: RectMP's
    ν is 4.7e-5 here, about one real hit per count. Each on 1, 2, 3 and 7
    threads."""
    model = bulk_model(variant)
    gen = np.random.Generator(np.random.Philox(key=count))
    draws = model.midpoints + model.radii * (2.0 * gen.random((count, model.n)) - 1.0)
    values = one_shot_membership(model, draws)
    for tol in (cq.MEMBERSHIP_TOL, float(np.median(values)) - 1.0):
        hits = int(np.sum(values <= 1.0 + tol))
        monkeypatch.setattr(cq.sampling, "MEMBERSHIP_TOL", tol)
        for threads in THREAD_COUNTS:
            thread_count(threads)
            assert cq.mc_volume(model, count, seed=count)[0] == hits / count
    assert hits > count // 4


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_mc_volume_memory_is_bounded(bulk_model, traced_peak, variant):
    """Streamed draws: 4e5 draws at n = 10 peak below a quarter of the
    32 MB that one array of them takes."""
    model = bulk_model(variant)
    count = 400_000
    _, peak = traced_peak(lambda: cq.mc_volume(model, count, seed=0))
    assert peak < count * model.n * 8 / 4


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_mc_volume_memory_is_bounded_on_many_cores(bulk_model, traced_peak, monkeypatch, variant):
    """The same bound on 7 cores beside a one-thread BLAS, where the call
    runs BULK_THREADS groups at once."""
    monkeypatch.setattr(cq.domain, "_core_count", lambda: 7)
    monkeypatch.setattr(cq.domain, "_blas_threads", lambda: 1)
    model = bulk_model(variant)
    count = 400_000
    _, peak = traced_peak(lambda: cq.mc_volume(model, count, seed=0))
    assert peak < count * model.n * 8 / 4


@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_draw_memory_is_bounded(bulk_model, traced_peak, monkeypatch, variant):
    """Beside its 32 MB result, a 4e5-point draw at n = 10 holds below
    three blocks per thread, on 7 cores beside a one-thread BLAS."""
    monkeypatch.setattr(cq.domain, "_core_count", lambda: 7)
    monkeypatch.setattr(cq.domain, "_blas_threads", lambda: 1)
    model = bulk_model(variant)
    x, peak = traced_peak(lambda: cq.sample_uniform(model, 400_000, seed=0))
    assert peak < x.nbytes + 3 * cq.domain.BULK_THREADS * BLOCK_ROWS * model.n * 8


def test_stream_offsets_match_one_long_stream():
    """A stream opened at an offset gives the values from that offset on
    of the one stream read from its start, within a counter step and
    past 1e7 values."""
    gen = np.random.Generator(np.random.Philox(key=9))
    head = gen.random(16)
    for offset in range(10):
        np.testing.assert_array_equal(_stream(9, offset).random(6), head[offset : offset + 6])
    far = 10**7 + 3
    for step in (10**6,) * 9 + (far - 16 - 9 * 10**6,):  # read on to `far`
        gen.random(step)
    np.testing.assert_array_equal(_stream(9, far).random(6), gen.random(6))


@pytest.mark.parametrize("n", [1, 3, 10])
@pytest.mark.parametrize("variant", [V.ME, V.MP2], ids=lambda v: v.value)
def test_draws_have_the_same_bits_on_any_thread_count(bulk_model, thread_count, variant, n):
    """1, 2, 3 and 7 threads draw the one-shot bits at one and two rows and
    at two, three and four blocks. The odd counts make count·n odd at
    n = 1 and 3 and put the Box-Muller half inside a row at n = 3 and 10,
    inside a block and inside a group."""
    model = bulk_model(variant, n=n)
    for count in (1, 2, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3, 3 * BLOCK_ROWS + 17):
        expected = one_shot_draw(model, count, count)
        for threads in THREAD_COUNTS:
            thread_count(threads)
            np.testing.assert_array_equal(
                cq.sample_uniform(model, count, seed=count),
                expected,
                err_msg=f"{count} draws on {threads} threads",
            )


def _draw_in_child(model, count, conn):
    conn.send(cq.sample_uniform(model, count, seed=4))
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_draws_in_a_forked_child_after_the_parent_drew(bulk_model, thread_count):
    """The parent draws on two threads first and leaves no thread behind;
    a forked child then draws the same bits, on two threads as well."""
    thread_count(2)
    model, count = bulk_model(V.ME), 2 * BLOCK_ROWS + 3
    before = threading.active_count()
    expected = cq.sample_uniform(model, count, seed=4)
    assert threading.active_count() == before
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_draw_in_child, args=(model, count, sender))
    child.start()
    try:
        sender.close()
        assert receiver.poll(60), "the forked child did not finish its draw"
        np.testing.assert_array_equal(receiver.recv(), expected)
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
