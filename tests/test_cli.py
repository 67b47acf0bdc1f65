"""Command-line interface: output formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from flagricci import render
from flagricci.cli import COMMANDS, build_parser, main
from flagricci import basin_map, family_from_id, list_families, projected_field
from polyoracle import QPoly, as_poly


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
    assert as_poly(QPoly.parse(doc["u"], 2)) == field.u
    assert as_poly(QPoly.parse(doc["v"], 2)) == field.v
    assert as_poly(QPoly.parse(lines[0][4:], 2)) == field.u


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
    assert not [key for key in doc if key.startswith("seeds")]


@pytest.mark.parametrize(
    "fid", ["g2u2", "e8su8u1", "e8e6su2u1", "f4su3su2u1", "e7su5su3u1", "e7su6su2u1", "e6su3su3su2u1"]
)
def test_type1_corner_eigenvalues_exactly_zero(capsys, fid):
    """The Jacobian vanishes at the corners O and P: the JSON reports
    exact zeros, not the rounding noise of a float evaluation, and the
    class their lowest radial form gives."""
    code, out, _ = run(capsys, "equilibria", "--family", fid)
    assert code == 0
    by_label = {e["matched_label"]: e for e in json.loads(out)["equilibria"]}
    for label in ("O", "P"):
        assert by_label[label]["eigenvalues"] == [[0.0, 0.0], [0.0, 0.0]]
        assert by_label[label]["class"] == "repeller"


def test_equilibria_and_verify_give_each_zero_one_class(capsys):
    """Over list_families(6, 12), each zero's equilibria class is verify's
    found_class (or its extras class), and the zeros a lowest radial form
    classifies, the 14 Type I corners O and P, are repellers."""
    degenerate = 0
    for fam in list_families(6, 12):
        argv = ["--family", fam.id] + (["--params", ",".join(map(str, fam.params))] if fam.params else [])
        code, out, _ = run(capsys, "equilibria", *argv)
        assert code == 0
        listed = {tuple(e["position"]): e["class"] for e in json.loads(out)["equilibria"]}
        _code, out, _ = run(capsys, "verify", *argv)
        doc = json.loads(out)
        verified = {tuple(c["found_position"]): c["found_class"] for c in doc["checks"] if c["found_class"]}
        verified.update((tuple(e["position"]), e["class"]) for e in doc["extras"])
        assert listed == verified, (fam.id, fam.params)
        for c in doc["checks"]:
            if c["note"] == "degenerate Jacobian, classified by its lowest radial form":
                degenerate += 1
                assert (c["label"], c["found_class"]) in {("O", "repeller"), ("P", "repeller")}
    assert degenerate == 14


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--family", "su", "--params", "2,1,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["passed"] is True
    assert len(doc["checks"]) == 10
    assert all(c["passed"] for c in doc["checks"])
    assert not [key for key in doc if key.startswith("seeds")]


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


def test_orbit_derives_the_field_once(capsys, monkeypatch):
    """The orbit and the zero set its end is matched against share one field."""
    from flagricci import cli, dynamics

    calls = []

    def counting(family):
        calls.append(family)
        return projected_field(family)

    monkeypatch.setattr(dynamics, "projected_field", counting)
    monkeypatch.setattr(cli, "projected_field", counting)
    dynamics.field_for.cache_clear()
    dynamics.equilibria_for.cache_clear()
    code, _out, _ = run(capsys, "orbit", "--family", "g2u2", "--x0", "0.3", "--y0", "0.25")
    assert code == 0
    assert calls == [family_from_id("g2u2")]


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


def test_orbit_next_to_an_edge_has_finite_lyapunov_values(capsys):
    """y starts at the least normal float and turns subnormal; -S vol stays
    finite there (about -2.5e184 at the start), though S alone overflows."""
    code, out, err = run(
        capsys, "orbit", "--family", "su", "--params", "2,1,1", "--x0", "0.25", "--y0", "2.2250738585072014e-308",
        "--max-steps", "400", "--rtol", "5.960464477539063e-08", "--atol", "6.432049958169953e-08",
    )
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) > 70 and min(float(r[2]) for r in rows) < 2.2250738585072014e-308
    assert all(math.isfinite(float(r[3])) for r in rows)


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
    # every row and cell as formatted one at a time, the reference for the cached pieces
    grid = basin_map(family_from_id("su", (1, 1, 1)), 16)
    cells = [(ix, iy, lab) for iy, row in enumerate(grid.labels) for ix, lab in enumerate(row) if lab is not None]
    assert lines[1:] == [f"{ix},{iy},{grid.xs[ix]!r},{grid.ys[iy]!r},{lab}" for ix, iy, lab in cells]
    fill = dict(zip(sorted(grid.attractor_labels), render.BASIN_PALETTE))
    cell = (render.VIEW - 2 * render.MARGIN) / 16
    rects = []
    for ix, iy, lab in cells:
        cx, cy = render._xy(grid.xs[ix], grid.ys[iy])
        rects.append(f'<rect x="{render._fmt(cx - cell / 2)}" y="{render._fmt(cy - cell / 2)}" '
                     f'width="{render._fmt(cell)}" height="{render._fmt(cell)}" fill="{fill[lab]}"/>')
    assert svg.splitlines()[3:123] == rects


def test_basins_rejects_bad_resolution(capsys):
    code, _, err = run(capsys, "basins", "--family", "su", "--params", "1,1,1", "--res", "4")
    assert code == 2
    assert "error" in err and "usage" in err


@pytest.mark.parametrize("margin", ["nan", "inf", "-inf", "-0.5", "0.3333333333333333334", "0.5"])
def test_basins_rejects_bad_margin(capsys, margin):
    code, out, err = run(capsys, "basins", "--family", "g2u2", "--res", "16", f"--margin={margin}")
    assert code == 2
    assert out == ""
    message, usage = err.split("\n", 1)
    assert message.startswith("flagricci basins: error: margin must be finite and in [0, 1/3)")
    assert usage.startswith("usage: flagricci basins")


def test_basins_rejects_a_margin_that_leaves_no_cell(capsys):
    # no cell center (i + 0.5) / 16 lies inside a margin of 0.33
    code, out, err = run(capsys, "basins", "--family", "g2u2", "--res", "16", "--margin", "0.33")
    assert code == 2
    assert out == ""
    message, usage = err.split("\n", 1)
    assert message == "flagricci basins: error: margin 0.33 leaves no cell center inside S at resolution 16"
    assert usage.startswith("usage: flagricci basins")


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


def _polyline_per_point(points, stroke, width, dashed=False):
    """A polyline as formatted one point at a time through _xy and _fmt."""
    if len(points) < 2:
        return ""
    pts = " ".join(f"{render._fmt(a)},{render._fmt(b)}" for a, b in (render._xy(x, y) for x, y in points))
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return f'<polyline points="{pts}" fill="none" stroke="{stroke}" stroke-width="{width}"{dash}/>'


# simplex coordinates, the slack outside its edges, the dyadic x = j/128,
# which _xy maps onto k + 0.125, 0.375, 0.625 or 0.875 (exact .xx5 ties),
# and x = (j + 0.5)/72000, which it maps to within rounding of a .xx5 tie
_coordinate = st.one_of(
    st.floats(min_value=-1e-9, max_value=1.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1e-310]),
    st.integers(0, 128).map(lambda j: j / 128),
    st.integers(0, 71999).map(lambda j: (j + 0.5) / 72000),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(_coordinate, _coordinate).filter(lambda p: p[0] + p[1] <= 1.0), max_size=30),
       dashed=st.booleans())
@example(points=[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], dashed=False)
@example(points=[(5e-324, 1e-310), (1 / 128, 1 / 128), (3 / 128, 5 / 128), (0.5, 0.5)], dashed=True)
def test_polyline_formats_as_point_by_point(points, dashed):
    assert render._polyline(points, "#123456", 1.8, dashed) == _polyline_per_point(points, "#123456", 1.8, dashed)


def test_portrait_requires_out(capsys):
    code, _, err = run(capsys, "portrait", "--family", "g2u2")
    assert code == 2
    assert "usage" in err


@pytest.mark.parametrize(
    "flags, what",
    [(["--seed", "-1"], "seed"), (["--orbits", "-3"], "orbit count")],
    ids=["negative-seed", "negative-orbits"],
)
def test_portrait_rejects_negative_counts(tmp_path, capsys, flags, what):
    out_path = tmp_path / "portrait.svg"
    code, out, err = run(capsys, "portrait", "--family", "g2u2", "--out", str(out_path), *flags)
    assert code == 2
    assert out == "" and not out_path.exists()
    message, usage = err.split("\n", 1)
    assert message.startswith(f"flagricci portrait: error: {what} must be non-negative")
    assert usage.startswith("usage: flagricci portrait")


def test_portrait_rejects_too_many_orbits(tmp_path, capsys, monkeypatch):
    def fail(*_args):
        raise AssertionError("phase_portrait must not run")

    monkeypatch.setattr(render, "phase_portrait", fail)
    out_path = tmp_path / "portrait.svg"
    orbits = str(render.PORTRAIT_MAX_ORBITS + 1)
    code, out, err = run(capsys, "portrait", "--family", "g2u2", "--out", str(out_path), "--orbits", orbits)
    assert code == 2
    assert out == "" and not out_path.exists()
    message, usage = err.split("\n", 1)
    assert message == f"flagricci portrait: error: orbit count must be at most {render.PORTRAIT_MAX_ORBITS}, got {orbits}"
    assert usage.startswith("usage: flagricci portrait")


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


def _subparser(parser, name):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


@pytest.mark.parametrize("name", list(COMMANDS))
def test_one_subparser_build_formats_as_the_full_build(name):
    """The parser built for one command gives its subparser's usage and help,
    and the top-level usage with every command, as the full parser does."""
    full, one = build_parser(), build_parser(name)
    assert list(_subparser(one, name)._option_string_actions) == list(_subparser(full, name)._option_string_actions)
    assert _subparser(one, name).format_usage() == _subparser(full, name).format_usage()
    assert _subparser(one, name).format_help() == _subparser(full, name).format_help()
    assert one.format_usage() == full.format_usage()
    assert "{" + ",".join(COMMANDS) + "}" in full.format_usage()


@pytest.mark.parametrize(
    "argv, built",
    [
        (["verify", "--family", "g2u2"], ["verify"]),
        (["families", "-h"], ["families"]),
        (["orbit", "--family", "g2u2", "--x0", "-5e-07"], ["orbit"]),
        (["gh-limit", "--family", "g2u2", "extra"], ["gh-limit"]),
        ([], list(COMMANDS)),
        (["-h"], list(COMMANDS)),
        (["bogus"], list(COMMANDS)),
        (["--family", "g2u2", "verify"], list(COMMANDS)),
    ],
)
def test_a_named_command_builds_only_its_subparser(capsys, monkeypatch, argv, built):
    names = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw))
    run(capsys, *argv)
    assert names == built


def test_bad_subcommand(capsys):
    code, _, _ = run(capsys, "nosuch")
    assert code == 2


def test_families_rejects_zero_bound(capsys):
    code, out, err = run(capsys, "families", "--mnp-bound", "0")
    assert code == 2
    assert out == ""
    assert err.startswith("flagricci families: error: bounds must be positive")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [["--mnp-bound", "25"], ["--ell-bound", "1001"]], ids=["mnp-25", "ell-1001"])
def test_families_rejects_bound_above_its_limit(capsys, flags):
    code, out, err = run(capsys, "families", *flags)
    assert code == 2
    assert out == ""
    assert err.startswith(f"flagricci families: error: {flags[0][2:].replace('-', '_')} must be at most")


@pytest.mark.parametrize(
    "flags",
    [
        ["--x0", "nan", "--y0", "0.3"],
        ["--x0", "2", "--y0", "2"],
        ["--x0", "0.3", "--y0", "0.3", "--rtol", "-1"],
        ["--x0", "0.3", "--y0", "0.3", "--atol", "1e300"],
        ["--x0", "0.3", "--y0", "0.3", "--rtol", "1e-6"],
    ],
    ids=["nan-start", "start-outside-simplex", "negative-rtol", "huge-atol", "rtol-above-ceiling"],
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


@pytest.mark.parametrize(
    "argv",
    [
        ["families", "--out"],
        ["field", "--family", "g2u2", "--out"],
        ["equilibria", "--family", "g2u2", "--out"],
        ["orbit", "--family", "g2u2", "--x0", "0.3", "--y0", "0.3", "--max-steps", "5", "--out"],
        ["basins", "--family", "g2u2", "--res", "16", "--out"],
        ["basins", "--family", "g2u2", "--res", "16", "--svg"],
        ["portrait", "--family", "g2u2", "--orbits", "0", "--out"],
        ["gh-limit", "--family", "g2u2", "--x", "0.5", "--y", "0.5", "--out"],
        ["verify", "--family", "g2u2", "--out"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-1]}",
)
def test_unwritable_output_path_is_a_one_line_error(tmp_path, capsys, argv):
    target = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *argv, str(target))
    assert code == 2
    assert err.startswith(f"flagricci {argv[0]}: error: ")
    assert err.count("\n") == 1 and str(target) in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad, good",
    [("--svg", None), ("--svg", "--out"), ("--out", "--svg")],
    ids=["svg-to-stdout", "svg-with-out", "out-with-svg"],
)
def test_basins_leaves_nothing_behind_when_a_path_cannot_be_written(tmp_path, capsys, bad, good):
    argv = ["basins", "--family", "g2u2", "--res", "16", bad, str(tmp_path / "missing" / "x")]
    if good:
        argv += [good, str(tmp_path / "written")]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("flagricci basins: error: ") and err.count("\n") == 1
    assert out == ""
    assert list(tmp_path.iterdir()) == []


# negative values written with an exponent, which argparse alone reads
# as an option: each must reach the library as its --flag=value form does
_NEGATIVE_FLAG_CASES = [
    (["gh-limit", "--family", "g2u2", "--y", "0.5"], "--x", "-5e-07"),
    (["gh-limit", "--family", "g2u2", "--x", "0.5"], "--y", "-5e-07"),
    (["orbit", "--family", "g2u2", "--y0", "0.3", "--max-steps", "5"], "--x0", "-5e-10"),
    (["orbit", "--family", "g2u2", "--x0", "0.3", "--max-steps", "5"], "--y0", "-5e-10"),
    (["basins", "--family", "g2u2", "--res", "16"], "--margin", "-1e-3"),
]


@pytest.mark.parametrize("argv, flag, value", _NEGATIVE_FLAG_CASES, ids=[c[1] for c in _NEGATIVE_FLAG_CASES])
def test_float_flags_take_negative_exponent_values(capsys, argv, flag, value):
    spaced = run(capsys, *argv, flag, value)
    joined = run(capsys, *argv, f"{flag}={value}")
    assert spaced == joined
    assert "expected one argument" not in spaced[2]


def test_negative_exponent_value_is_classified(capsys):
    code, out, _ = run(capsys, "gh-limit", "--family", "g2u2", "--x", "-5e-07", "--y", "0.5")
    assert code == 0
    assert json.loads(out)["kernel"] == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ["gh-limit", "--family", "g2u2", "--x", "--y", "0.5"],
        ["gh-limit", "--family", "g2u2", "--y", "0.5", "--x"],
        ["orbit", "--family", "g2u2", "--x0", "--", "-5e-07", "--y0", "0.3"],
    ],
    ids=["followed-by-a-flag", "at-the-end", "before-the-separator"],
)
def test_flag_without_its_value_still_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "expected one argument" in err


# ----------------------------------------------------------------------
# arbitrary float flags

_flag_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.3, 1.0, 1e308, -1e308, 5e-324, float("nan"), float("inf"), float("-inf")]),
)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    x0=_flag_floats,
    y0=_flag_floats,
    rtol=_flag_floats,
    atol=_flag_floats,
    max_time=_flag_floats,
    max_steps=st.integers(-2, 40),
    backward=st.booleans(),
)
@example(x0=0.3, y0=0.2, rtol=1e-10, atol=1e-12, max_time=1e4, max_steps=40, backward=True)
def test_orbit_returns_an_exit_code_on_any_float_flags(x0, y0, rtol, atol, max_time, max_steps, backward):
    argv = ["orbit", "--family", "su", "--params", "2,1,1", f"--x0={x0!r}", f"--y0={y0!r}",
            f"--rtol={rtol!r}", f"--atol={atol!r}", f"--max-time={max_time!r}", f"--max-steps={max_steps}"]
    assert _quiet_main(argv + ["--backward"] * backward) in (0, 1, 2)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(x=_flag_floats, y=_flag_floats, fid=st.sampled_from(["g2u2", "so"]))
@example(x=0.5, y=0.5, fid="so")
def test_gh_limit_returns_an_exit_code_on_any_float_flags(x, y, fid):
    argv = ["gh-limit", "--family", fid] + (["--params", "6"] if fid == "so" else [])
    assert _quiet_main(argv + [f"--x={x!r}", f"--y={y!r}"]) in (0, 1, 2)
