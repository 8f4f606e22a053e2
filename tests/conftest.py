import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import convexuq as cq

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def standard_spec():
    return cq.read_intervals_csv(DATA / "standard_intervals.csv")


@pytest.fixture(scope="session")
def standard_samples():
    return cq.read_samples_csv(DATA / "standard_samples.csv")


@pytest.fixture(scope="session")
def standard_u(standard_spec, standard_samples):
    return cq.regularize(standard_spec, standard_samples).rows


@pytest.fixture(scope="session")
def beam_spec():
    return cq.read_intervals_csv(DATA / "beam_intervals.csv")


@pytest.fixture(scope="session")
def beam_samples():
    return cq.read_samples_csv(DATA / "beam_samples.csv")


@pytest.fixture(scope="session")
def geotech_spec():
    return cq.read_intervals_csv(DATA / "geotech_intervals.csv")


@pytest.fixture(scope="session")
def geotech_samples():
    return cq.read_samples_csv(DATA / "geotech_samples.csv")


@pytest.fixture()
def quiet_degenerate():
    """Silence expected degenerate-fit warnings inside a test."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cq.errors.DegenerateData)
        yield


@pytest.fixture()
def thread_count(monkeypatch):
    """Setter of the number of threads that every bulk call runs on
    (`domain._thread_count`), for the rest of the test. It also lowers the
    work floor of a split (`domain.THREAD_ELEMENTS`) to BLOCK_ROWS
    elements, so that the thread tests split calls of a few blocks."""

    def patch(threads):
        monkeypatch.setattr(cq.domain, "_thread_count", lambda: threads)
        monkeypatch.setattr(cq.domain, "THREAD_ELEMENTS", cq.domain.BLOCK_ROWS)

    return patch


@pytest.fixture(scope="session")
def bulk_model():
    """Factory of models over unequal intervals on a seeded correlation
    matrix of four samples per variable (at least 40), n = 10 unless given:
    the shape the bulk-kernel guards run on."""

    def build(variant, n=10):
        m = np.random.default_rng(14).normal(size=(4 * max(n, 10), n))
        cov = m.T @ m
        d = np.sqrt(np.diag(cov))
        entries = cov / np.outer(d, d)
        entries = (entries + entries.T) / 2.0
        np.fill_diagonal(entries, 1.0)
        R = cq.CorrelationMatrix(entries=entries, method="scc")
        spec = cq.make_marginal_spec((f"x{k + 1}", -1.0 - k, 2.0 + 0.5 * k) for k in range(n))
        return cq.build_model(variant, spec, R)

    return build


def _one_shot_membership(model, rows):
    centered = rows - model.midpoints
    if model.variant is cq.ModelVariant.ME:
        return np.einsum("ij,jk,ik->i", centered, model.characteristic, centered)
    return np.max(np.abs(centered @ model.characteristic.T), axis=1)


@pytest.fixture(scope="session")
def one_shot_membership():
    """membership_values as one pass over every row: the reference that the
    blocked kernel must reproduce bit for bit."""
    return _one_shot_membership


def _traced_peak(call):
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.fixture(scope="session")
def traced_peak():
    """(result, peak bytes allocated above the starting level) of call()."""
    return _traced_peak
