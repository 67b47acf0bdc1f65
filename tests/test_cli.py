"""Command-line interface: output formats, exit codes, determinism."""

import json

import pytest

from flagricci.cli import main
from flagricci.polyalg import Poly
from flagricci import family_from_id, projected_field


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# families


def test_families_default_set(capsys):
    code, out, _ = run(capsys, "families")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    ids = [f["id"] for f in doc["families"]]
    assert len(ids) == 8
    assert "e6so8u1u1" in ids and "g2u2" in ids and "e8su8u1" in ids


def test_families_with_bounds(capsys):
    code, out, _ = run(capsys, "families", "--mnp-bound", "2", "--ell-bound", "5")
    assert code == 0
    doc = json.loads(out)
    su = [f for f in doc["families"] if f["id"] == "su"]
    so = [f for f in doc["families"] if f["id"] == "so"]
    assert [tuple(f["params"]) for f in su] == [
        (1, 1, 1),
        (2, 1, 1),
        (2, 2, 1),
        (2, 2, 2),
    ]
    assert [tuple(f["params"]) for f in so] == [(4,), (5,)]
    entry = su[1]
    assert entry["dims"] == [4, 4, 2]
    assert entry["total_dim"] == 10
    labels = sorted(e["label"] for e in entry["equilibria"])
    assert labels == list("KLMNOPQRST")
    assert len(entry["gh"]) == 7


# ----------------------------------------------------------------------
# field


def test_field_su211_text_and_json(capsys):
    code, out, _ = run(capsys, "field", "--family", "su", "--params", "2,1,1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("u = ")
    assert lines[1].startswith("v = ")
    doc = json.loads("\n".join(lines[2:]))
    assert doc["schema"] == 1
    assert doc["degree"] == 4
    field = projected_field(family_from_id("su", (2, 1, 1)))
    assert Poly.parse(doc["u"], 2) == field.u
    assert Poly.parse(doc["v"], 2) == field.v
    assert Poly.parse(lines[0][4:], 2) == field.u


def test_field_type_one_degree(capsys):
    code, out, _ = run(capsys, "field", "--family", "g2u2")
    assert code == 0
    doc = json.loads("\n".join(out.splitlines()[2:]))
    assert doc["degree"] == 5


# ----------------------------------------------------------------------
# equilibria and verify


def test_equilibria_json(capsys):
    code, out, _ = run(capsys, "equilibria", "--family", "su", "--params", "2,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert len(doc["equilibria"]) == 10
    labels = sorted(e["matched_label"] for e in doc["equilibria"])
    assert labels == list("KLMNOPQRST")
    for e in doc["equilibria"]:
        assert e["residual"] < 1e-9
        assert e["class"] in {"attractor", "repeller", "saddle"}


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "su", "--params", "2,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert len(doc["checks"]) == 10
    assert all(c["passed"] for c in doc["checks"])


# ----------------------------------------------------------------------
# orbit and basins CSV


def test_orbit_csv(capsys):
    code, out, _ = run(
        capsys,
        "orbit",
        "--family",
        "su",
        "--params",
        "2,1,1",
        "--x0",
        "0.49",
        "--y0",
        "0.49",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,x,y,L"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.49
    last = lines[-1].split(",")
    assert abs(float(last[1]) - 0.5) < 1e-6
    assert abs(float(last[2]) - 0.5) < 1e-6
    lvals = [float(r.split(",")[3]) for r in lines[1:]]
    assert lvals[-1] < lvals[0]


def test_orbit_backward_flag(capsys):
    code, out, _ = run(
        capsys,
        "orbit",
        "--family",
        "su",
        "--params",
        "2,1,1",
        "--x0",
        "0.05",
        "--y0",
        "0.05",
        "--backward",
    )
    assert code == 0
    last = out.strip().splitlines()[-1].split(",")
    assert abs(float(last[1])) < 1e-6 and abs(float(last[2])) < 1e-6


def test_basins_csv_and_svg(tmp_path, capsys):
    svg_path = tmp_path / "basins.svg"
    code, out, _ = run(
        capsys,
        "basins",
        "--family",
        "su",
        "--params",
        "1,1,1",
        "--res",
        "16",
        "--svg",
        str(svg_path),
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ix,iy,x,y,label"
    rows = [line.split(",") for line in lines[1:]]
    labels = {r[4] for r in rows}
    assert labels == {"K", "L", "M"}
    # iy-major ordering, cells outside the margin absent
    assert [r[:2] for r in rows[:3]] == [["0", "0"], ["1", "0"], ["2", "0"]]
    assert len(rows) == 120
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "</svg>" in svg


def test_basins_rejects_bad_resolution(capsys):
    code, _, err = run(capsys, "basins", "--family", "su", "--params", "1,1,1", "--res", "4")
    assert code == 2
    assert "error" in err and "usage" in err


# ----------------------------------------------------------------------
# portrait and gh-limit


def test_portrait_writes_svg(tmp_path, capsys):
    out_path = tmp_path / "portrait.svg"
    code, out, _ = run(
        capsys, "portrait", "--family", "g2u2", "--out", str(out_path)
    )
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg")
    assert "circle" in svg and "rect" in svg
    # deterministic: a second run writes identical bytes
    out2 = tmp_path / "portrait2.svg"
    assert main(["portrait", "--family", "g2u2", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out2.read_text() == svg


def test_portrait_requires_out(capsys):
    code, _, err = run(capsys, "portrait", "--family", "g2u2")
    assert code == 2
    assert "usage" in err


def test_gh_limit_json(capsys):
    code, out, _ = run(
        capsys, "gh-limit", "--family", "g2u2", "--x", "0.5", "--y", "0.5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["kernel"] == [3]
    assert doc["is_point"] is False
    assert doc["space"]["name"] == "G2/SU(3)"
    assert doc["space"]["dim"] == 6
    assert doc["space"]["metric"] == "normal"


def test_gh_limit_interior_is_usage_error(capsys):
    code, _, err = run(
        capsys, "gh-limit", "--family", "g2u2", "--x", "0.3", "--y", "0.3"
    )
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "x, y",
    [("5", "0.5"), ("-3", "0"), ("nan", "0")],
    ids=["outside", "negative", "nan"],
)
def test_gh_limit_rejects_points_off_the_simplex(capsys, x, y):
    code, out, err = run(capsys, "gh-limit", "--family", "g2u2", "--x", x, "--y", y)
    assert code == 2
    assert out == ""
    message, usage = err.split("\n", 1)
    assert message.startswith("flagricci gh-limit: error: point (")
    assert usage.startswith("usage: flagricci gh-limit")


# ----------------------------------------------------------------------
# usage errors


def test_unknown_family(capsys):
    code, _, err = run(capsys, "field", "--family", "nosuch")
    assert code == 2
    assert err.startswith("flagricci field: error:")
    assert "usage:" in err


def test_su_requires_three_params(capsys):
    code, _, err = run(capsys, "field", "--family", "su", "--params", "2,1")
    assert code == 2
    assert "usage:" in err


def test_params_forbidden_for_constant_family(capsys):
    code, _, err = run(capsys, "field", "--family", "g2u2", "--params", "1,2,3")
    assert code == 2


def test_bad_subcommand(capsys):
    code, _, _ = run(capsys, "nosuch")
    assert code == 2


def test_families_rejects_zero_bound(capsys):
    code, out, err = run(capsys, "families", "--mnp-bound", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("flagricci families: error: bounds must be positive")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--x0", "nan", "--y0", "0.3"],
        ["--x0", "2", "--y0", "2"],
        ["--x0", "0.3", "--y0", "0.3", "--rtol", "-1"],
    ],
    ids=["nan-start", "start-outside-simplex", "negative-rtol"],
)
def test_orbit_rejects_bad_input(capsys, flags):
    code, out, err = run(capsys, "orbit", "--family", "su", "--params", "2,1,1", *flags)
    assert code == 2
    assert out == ""
    message, usage = err.split("\n", 1)
    assert message.startswith("flagricci orbit: error:")
    assert usage.startswith("usage: flagricci orbit")


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "field.txt"
    code, out, _ = run(
        capsys, "field", "--family", "su", "--params", "2,1,1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("u = ")
