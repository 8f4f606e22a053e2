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
    "per_call_timings": ["--calls", "100", "--repeats", "1"],
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
