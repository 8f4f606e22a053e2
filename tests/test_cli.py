import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import convexuq as cq
from convexuq.cli import main

VERDICT_RE = re.compile(
    r"^verdict=(unbiased-consistent|biased-detected) max_err=\d+\.\d{6}$",
    re.MULTILINE,
)


@pytest.fixture()
def built_me(tmp_path, data_dir):
    out = tmp_path / "me.json"
    code = main(
        [
            "build",
            "--samples", str(data_dir / "standard_samples.csv"),
            "--intervals", str(data_dir / "standard_intervals.csv"),
            "--variant", "me",
            "--method", "ccc",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_build_reports_model_summary(tmp_path, data_dir, capsys):
    out = tmp_path / "me.json"
    code = main(
        [
            "build",
            "--samples", str(data_dir / "standard_samples.csv"),
            "--intervals", str(data_dir / "standard_intervals.csv"),
            "--variant", "me",
            "--method", "ccc",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "n = 3" in text
    assert "variant = ME" in text
    assert "method = ccc" in text
    assert "lambda_min = " in text
    assert f"wrote {out}" in text
    model = cq.load_model(out)
    assert model.variant is cq.ModelVariant.ME


def test_build_is_deterministic(tmp_path, data_dir):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(
            [
                "build",
                "--samples", str(data_dir / "standard_samples.csv"),
                "--intervals", str(data_dir / "standard_intervals.csv"),
                "--variant", "rect",
                "--method", "scc",
                "--out", str(out),
            ]
        ) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_build_missing_file_exits_2(tmp_path, capsys):
    code = main(
        [
            "build",
            "--samples", str(tmp_path / "nope.csv"),
            "--intervals", str(tmp_path / "nope2.csv"),
            "--variant", "me",
            "--method", "scc",
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: data prep:")


def test_build_rejects_out_of_range_samples(tmp_path, data_dir, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("u1,u2,u3\n9.0,0.0,0.0\n", encoding="utf-8")
    code = main(
        [
            "build",
            "--samples", str(bad),
            "--intervals", str(data_dir / "standard_intervals.csv"),
            "--variant", "me",
            "--method", "scc",
            "--out", str(tmp_path / "m.json"),
        ]
    )
    assert code == 2
    assert "regularization:" in capsys.readouterr().err


def test_build_refuses_model_enclosing_no_sample(tmp_path, data_dir, capsys):
    """geotech ME(CCC) after PD repair is near singular and encloses 0/10:
    a numeric failure (exit 3) that names kappa and the condition number,
    with no model file written."""
    out = tmp_path / "m.json"
    code = main(
        [
            "build",
            "--samples", str(data_dir / "geotech_samples.csv"),
            "--intervals", str(data_dir / "geotech_intervals.csv"),
            "--variant", "me",
            "--method", "ccc",
            "--pd", "repair",
            "--out", str(out),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "kappa 0/10" in err
    assert re.search(r"condition number \d\.\d+e\+1\d", err)
    assert not out.exists()


def test_assess_prints_counts_and_json(built_me, tmp_path, data_dir, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "assess",
            "--model", str(built_me),
            "--samples", str(data_dir / "standard_samples.csv"),
            "--json", str(report_path),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert re.search(r"^kappa = \d+/20$", text, re.MULTILINE)
    assert re.search(r"^nu = \d+\.\d\d%$", text, re.MULTILINE)
    assert re.search(r"^nu_bar = \d+\.\d\d%$", text, re.MULTILINE)
    assert "excluded sample rows (1-based):" in text
    doc = json.loads(report_path.read_text())
    assert doc["total"] == 20
    assert doc["enclosed"] == doc["total"] - len(doc["excluded"])


def test_project_writes_svg_with_exact_submatrix(built_me, tmp_path, data_dir, capsys):
    out = tmp_path / "plot.svg"
    code = main(
        [
            "project",
            "--model", str(built_me),
            "--i", "1",
            "--j", "2",
            "--out", str(out),
            "--overlay", str(data_dir / "standard_samples.csv"),
            "--exact",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "projected correlation submatrix =" in text
    ET.fromstring(out.read_text())


def test_project_exact_rejected_for_boxes(tmp_path, data_dir, capsys):
    out = tmp_path / "mp.json"
    assert main(
        [
            "build",
            "--samples", str(data_dir / "standard_samples.csv"),
            "--intervals", str(data_dir / "standard_intervals.csv"),
            "--variant", "mp2",
            "--method", "scc",
            "--out", str(out),
        ]
    ) == 0
    capsys.readouterr()
    code = main(
        [
            "project",
            "--model", str(out),
            "--i", "1",
            "--j", "2",
            "--out", str(tmp_path / "mp.svg"),
            "--exact",
        ]
    )
    assert code == 2


def test_project_index_out_of_range(built_me, tmp_path, capsys):
    code = main(
        [
            "project",
            "--model", str(built_me),
            "--i", "1",
            "--j", "4",
            "--out", str(tmp_path / "x.svg"),
        ]
    )
    assert code == 2


def test_sample_round_trips_through_reader(built_me, tmp_path, capsys):
    out = tmp_path / "draws.csv"
    code = main(
        ["sample", "--model", str(built_me), "--n", "250", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    drawn = cq.read_samples_csv(out)
    assert drawn.n_samples == 250
    assert drawn.names == ("u1", "u2", "u3")
    model = cq.load_model(built_me)
    assert np.all(cq.membership_values(model, drawn.rows) <= 1.0 + 1e-6)


def test_sample_repeat_is_byte_identical(built_me, tmp_path, capsys):
    blobs = []
    for name in ("d1.csv", "d2.csv"):
        out = tmp_path / name
        assert main(
            ["sample", "--model", str(built_me), "--n", "50", "--seed", "3", "--out", str(out)]
        ) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_verify_scc_prints_verdict_line(capsys):
    code = main(
        ["verify", "--variant", "mp2", "--r", "0.6", "--n", "10000", "--seed", "1"]
    )
    assert code == 0
    text = capsys.readouterr().out
    match = VERDICT_RE.search(text)
    assert match is not None
    assert match.group(1) == "unbiased-consistent"
    assert "tolerance = " in text


def test_verify_detects_mp1_bias(capsys):
    code = main(
        ["verify", "--variant", "mp1", "--r", "0.6", "--n", "20000", "--seed", "1"]
    )
    assert code == 0
    match = VERDICT_RE.search(capsys.readouterr().out)
    assert match.group(1) == "biased-detected"


def test_verify_ccc_has_no_verdict(capsys):
    code = main(
        [
            "verify",
            "--variant", "mp2",
            "--r", "0.5",
            "--n", "10000",
            "--seed", "2",
            "--method", "ccc",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "verdict=" not in text
    assert "report only" in text
    assert "max_shift=" in text


def test_verify_corr_file(tmp_path, capsys):
    corr = tmp_path / "r.csv"
    corr.write_text("1.0,0.4,0.2\n0.4,1.0,0.1\n0.2,0.1,1.0\n", encoding="utf-8")
    code = main(
        ["verify", "--variant", "ltri", "--corr", str(corr), "--n", "10000", "--seed", "1"]
    )
    assert code == 0
    assert VERDICT_RE.search(capsys.readouterr().out)


def test_verify_rejects_bad_inputs(tmp_path, capsys):
    assert main(["verify", "--variant", "me", "--r", "1.5", "--n", "10000", "--seed", "0"]) == 2
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,0.5\n0.5\n", encoding="utf-8")
    assert main(
        ["verify", "--variant", "me", "--corr", str(ragged), "--n", "10000", "--seed", "0"]
    ) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--variant", "me", "--r", "0.5", "--corr", str(ragged),
              "--n", "10000", "--seed", "0"])
    assert exc.value.code == 2


@pytest.fixture()
def unit_box_model(tmp_path):
    spec = cq.make_marginal_spec([("x1", 2.0, 8.0), ("x2", -4.0, 0.0)])
    R = cq.CorrelationMatrix(entries=np.eye(2), method="scc")
    model = cq.build_model(cq.ModelVariant.ME, spec, R)
    path = tmp_path / "unit.json"
    cq.save_model(path, model)
    return path


def test_reliability_reports_index(unit_box_model, tmp_path, capsys):
    g_file = tmp_path / "g.txt"
    g_file.write_text("x1 - 6.5\n", encoding="utf-8")
    code = main(["reliability", "--model", str(unit_box_model), "--g", str(g_file)])
    assert code == 0
    text = capsys.readouterr().out
    assert "norm = euclidean" in text
    assert "g(midpoint) = -1.5 (negative)" in text
    assert "eta = 0.500000" in text
    assert "converged = yes" in text
    assert re.search(r"^evaluations = \d+$", text, re.MULTILINE)


def test_reliability_binds_constants(unit_box_model, tmp_path, capsys):
    g_file = tmp_path / "g.txt"
    g_file.write_text("x1 - S", encoding="utf-8")
    code = main(
        [
            "reliability",
            "--model", str(unit_box_model),
            "--g", str(g_file),
            "--bind", "S=6.5",
            "--norm", "inf",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "norm = infinity" in text
    assert "eta = 0.500000" in text


def test_reliability_no_surface_exits_3(unit_box_model, tmp_path, capsys):
    g_file = tmp_path / "g.txt"
    g_file.write_text("x1 + 100", encoding="utf-8")
    code = main(["reliability", "--model", str(unit_box_model), "--g", str(g_file)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_reliability_syntax_error_exits_2(unit_box_model, tmp_path, capsys):
    g_file = tmp_path / "g.txt"
    g_file.write_text("x1 +* 2", encoding="utf-8")
    code = main(["reliability", "--model", str(unit_box_model), "--g", str(g_file)])
    assert code == 2
    assert "limit state:" in capsys.readouterr().err


def test_reliability_bad_binding_exits_2(unit_box_model, tmp_path, capsys):
    g_file = tmp_path / "g.txt"
    g_file.write_text("x1 - 6.5", encoding="utf-8")
    code = main(
        ["reliability", "--model", str(unit_box_model), "--g", str(g_file), "--bind", "Sx"]
    )
    assert code == 2
