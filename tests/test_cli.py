import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crlink.cli import main
from crlink.report import validate_report_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_picard_words_text(capsys):
    code, out, _ = run(capsys, "verify", "picard-words")
    assert code == 0
    assert "eisenstein-picard words" in out
    assert "FAIL" not in out


def test_verify_fig8_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "fig8", "--json")
    assert code == 0
    data = json.loads(out)
    assert validate_report_json(data) == []
    assert data["exit_status"] == 0
    assert data["counts"]["fail"] == 0
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify", "all", "--json")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 3
    for rep in data:
        assert validate_report_json(rep) == []
        assert rep["exit_status"] == 0


def test_verify_unknown_target(capsys):
    code, _, _ = run(capsys, "verify", "granny-knot")
    assert code == 2


def test_query_cartan(capsys):
    code, out, _ = run(
        capsys,
        "query", "cartan", "--json",
        "--inline", '{"points": ["inf", {"z":"0","t":"0"}, {"z":"1","t":"sqrt3"}]}',
    )
    assert code == 0
    data = json.loads(out)
    witness = next(c for c in data["checks"] if c["name"] == "cartan invariant")
    assert witness["witness"]["tan"]["exact"] == "sqrt3"
    assert witness["witness"]["angle_approx"] == pytest.approx(math.pi / 3)


def test_query_params(capsys):
    payload = json.dumps(
        {
            "p1": {"z": "0", "t": "2+sqrt3"},
            "p2": {"z": "0", "t": "-(2+sqrt3)"},
            "q1": {"z": "omega", "t": "0"},
            "q2": {"z": "1", "t": "0"},
        }
    )
    code, out, _ = run(capsys, "query", "params", "--json", "--inline", payload)
    assert code == 0
    data = json.loads(out)
    witness = next(c for c in data["checks"] if "parameters" in c["name"])["witness"]
    assert witness["z1"] == "1/2 + i*(1/2*sqrt3)"
    assert witness["t"] == "sqrt3"


def test_query_classify_whitehead_generator(capsys):
    payload = json.dumps(
        {
            "matrix": [
                ["1", "0", "-i"],
                ["-1-i", "1", "-1+i"],
                ["-1-i", "1-i", "i"],
            ],
            "holo": True,
        }
    )
    code, out, _ = run(capsys, "query", "classify", "--json", "--inline", payload)
    assert code == 0
    data = json.loads(out)
    witness = data["checks"][0]["witness"]
    assert witness["kind"] == "Loxodromic"
    assert witness["trace"]["exact"] == "2 + i"
    assert witness["rings"]["Z[i]"] is True


def test_query_word_with_fixture(capsys):
    payload = json.dumps({"fixture": "fig8", "word": "G2^-1 G1"})
    code, out, _ = run(capsys, "query", "word", "--json", "--inline", payload)
    assert code == 0
    data = json.loads(out)
    witness = data["checks"][0]["witness"]
    assert witness["classification"] == "Parabolic"


def test_query_glue_bundled_schemes(capsys, tmp_path):
    from importlib import resources

    for name in ("fig8_scheme.json", "whitehead_scheme.json"):
        text = resources.files("crlink.data").joinpath(name).read_text()
        path = tmp_path / name
        path.write_text(text)
        code, out, _ = run(capsys, "query", "glue", "--input", str(path))
        assert code == 0, out
        assert "FAIL" not in out


def test_query_cartan_float_backend(capsys):
    code, out, _ = run(
        capsys,
        "query", "cartan", "--json", "--backend", "float",
        "--inline", '{"points": ["inf", {"z":"0","t":"0"}, {"z":"0.5","t":"0.25"}]}',
    )
    assert code == 0
    data = json.loads(out)
    witness = data["checks"][0]["witness"]
    assert "exact" not in witness["tan"]
    assert witness["tan"]["approx"]["re"] == pytest.approx(1.0)


def test_query_float_backend_rejected_for_certification(capsys):
    code, _, err = run(
        capsys,
        "query", "classify", "--backend", "float",
        "--inline", '{"matrix": [["1","0","0"],["0","1","0"],["0","0","1"]]}',
    )
    assert code == 2
    assert "float backend" in err


def test_query_glue_vertex_map_form(capsys, tmp_path):
    scheme = {
        "name": "vertexMap variant",
        "tetrahedra": [
            {"name": "T", "letter": "z",
             "params": {"z": "(1+i*sqrt3)/2", "t": "sqrt3", "s": "sqrt3"}},
            {"name": "U", "letter": "w",
             "params": {"z": "(1+i*sqrt3)/2", "t": "sqrt3", "s": "sqrt3"}},
        ],
        "pairings": [
            {"from": ["T", ["p1", "p2", "q1"]], "to": ["U", ["p1", "p2", "q2"]],
             "vertexMap": {"p1": "p1", "p2": "p2", "q1": "q2"}},
            {"from": ["T", ["p1", "q1", "q2"]], "to": ["U", ["q1", "q2", "p2"]]},
            {"from": ["T", ["p1", "p2", "q2"]], "to": ["U", ["q1", "q2", "p1"]]},
            {"from": ["T", ["p2", "q1", "q2"]], "to": ["U", ["p2", "q1", "p1"]]},
        ],
    }
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(scheme))
    code, out, _ = run(capsys, "query", "glue", "--input", str(path))
    assert code == 0
    assert "FAIL" not in out
    scheme["pairings"][0]["vertexMap"] = {"p1": "p1", "p2": "p2", "q1": "q1"}
    path.write_text(json.dumps(scheme))
    code, _, err = run(capsys, "query", "glue", "--input", str(path))
    assert code == 2 and "vertexMap" in err


def test_query_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "query", "cartan", "--inline", "{not json")
    assert code == 2
    assert "error" in err
    code, _, err = run(
        capsys, "query", "cartan", "--inline", '{"points": ["inf", {"z":"sqrt5","t":"0"}, "inf"]}'
    )
    assert code == 2


def test_mesh_counts(tmp_path, capsys):
    out_path = tmp_path / "mesh.obj"
    code, _, _ = run(
        capsys, "mesh", "--fixture", "standard", "--samples", "16", "-o", str(out_path)
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    polylines = [l for l in lines if l.startswith("l ")]
    vertices = [l for l in lines if l.startswith("v ")]
    assert len(polylines) == 4 * 16 + 4
    assert all(len(l.split()) == 4 for l in vertices)


def test_mesh_minimal(tmp_path, capsys):
    out_path = tmp_path / "mini.obj"
    code, _, _ = run(capsys, "mesh", "--fixture", "standard", "--samples", "1", "-o", str(out_path))
    assert code == 0
    polylines = [l for l in out_path.read_text().splitlines() if l.startswith("l ")]
    assert len(polylines) == 4 + 4


def test_mesh_two_tetra_scene(tmp_path, capsys):
    out_path = tmp_path / "scene.obj"
    code, _, _ = run(
        capsys, "mesh", "--fixture", "fig8-scene", "--samples", "8", "-o", str(out_path)
    )
    assert code == 0
    polylines = [l for l in out_path.read_text().splitlines() if l.startswith("l ")]
    assert len(polylines) == 2 * (4 * 8 + 4)


def test_mesh_custom_tetra(tmp_path, capsys):
    payload = json.dumps(
        {
            "p1": {"z": "0", "t": "1+sqrt2"},
            "p2": {"z": "0", "t": "-(1+sqrt2)"},
            "q1": {"z": "1", "t": "0"},
            "q2": {"z": "i", "t": "0"},
        }
    )
    out_path = tmp_path / "custom.obj"
    code, _, _ = run(
        capsys, "mesh", "--inline", payload, "--samples", "4", "-o", str(out_path)
    )
    assert code == 0
    assert out_path.exists()


def test_query_cartan_float_machine_numbers_and_tol(capsys):
    inline = '{"points": ["inf", {"z": 0, "t": 0}, {"z": 0.5, "t": 0.25}]}'
    code, out, _ = run(capsys, "query", "cartan", "--json", "--backend", "float",
                       "--inline", inline)
    assert code == 0
    witness = json.loads(out)["checks"][0]["witness"]
    assert witness["tan"]["approx"]["re"] == pytest.approx(1.0)
    assert witness["angle_approx"] == pytest.approx(math.pi / 4)
    # machine numbers are not exact input
    code, _, err = run(capsys, "query", "cartan", "--inline", inline)
    assert code == 2 and "float" in err
    # points closer than --tol coincide
    close = '{"points": ["inf", {"z": 0, "t": 0}, {"z": 1e-4, "t": 0}]}'
    for tol, want in (("1e-3", 2), ("1e-9", 0)):
        code, _, err = run(capsys, "query", "cartan", "--backend", "float",
                           "--tol", tol, "--inline", close)
        assert code == want, err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_mesh_rejects_nonpositive_samples(tmp_path, capsys, samples):
    out_path = tmp_path / "none.obj"
    code, _, err = run(
        capsys, "mesh", "--fixture", "standard", "--samples", samples, "-o", str(out_path)
    )
    assert code == 2
    assert err.count("\n") == 1 and "--samples" in err
    assert not out_path.exists()


def test_bad_precision_setting_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("CRH_PRECISION_BITS", "abc")
    code, _, err = run(
        capsys, "query", "classify",
        "--inline", '{"matrix": [["1","0","0"],["0","1","0"],["0","0","1"]]}',
    )
    assert code == 2
    assert err.count("\n") == 1 and "CRH_PRECISION_BITS" in err


def test_exact_paths_do_not_import_numpy():
    # numpy is loaded by the mesh sampler only
    probe = (
        "import sys, contextlib, io\n"
        "import crlink\n"
        "assert 'numpy' not in sys.modules, 'import crlink'\n"
        "from crlink.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['verify', 'all', '--json']) == 0\n"
        "    assert main(['query', 'cartan', '--inline',\n"
        "                 '{\"points\": [\"inf\", {\"z\":\"0\",\"t\":\"0\"}, {\"z\":\"1\",\"t\":\"sqrt3\"}]}']) == 0\n"
        "assert 'numpy' not in sys.modules, 'verify or query'\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
