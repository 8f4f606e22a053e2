"""Smoke test for the study scripts in scripts/: each script's
`main(argv)` runs in-process on its smallest arguments and returns 0."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SMALLEST_ARGS = {
    "per_call_timings": ["--calls", "100", "--repeats", "1", "--bulk", "10000"],
    "run_assessment_tables": [],
    "run_case_studies": ["--strengths", "220"],
    "run_unbiasedness_sweep": ["--n", "10000", "--sweep-seeds", "1"],
}


@pytest.mark.parametrize("name", sorted(SMALLEST_ARGS))
def test_script_runs(name, capsys):
    assert load_script(name).main(SMALLEST_ARGS[name]) == 0
    assert capsys.readouterr().out


def test_projection_gallery_writes_svgs(tmp_path, capsys):
    out_dir = tmp_path / "gallery"
    assert load_script("render_projection_gallery").main(["--out-dir", str(out_dir)]) == 0
    # six variants, three variable pairs of the bundled 20-sample set
    svgs = sorted(out_dir.glob("*.svg"))
    assert len(svgs) == 18
    assert all(path.read_text(encoding="utf-8").rstrip().endswith("</svg>") for path in svgs)


def test_per_call_timings_times_the_solver(capsys):
    """The one-point table also times reliability_index on the beam's ME
    and MP-II models and on an n = 10 model, one solve each at the
    smallest call count."""
    assert load_script("per_call_timings").main(["--calls", "1", "--repeats", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    solves = [row for row in rows if row[0] == "reliability_index"]
    assert [" ".join(row[1:-1]) for row in solves] == [
        "beam ME S=250",
        "beam MP-II S=250",
        "linear n=10 MP-II",
    ]
    assert all(float(row[-1]) > 0.0 for row in solves)
