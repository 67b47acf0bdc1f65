"""Tests of the benchmark's own logic: self time, percentiles, failure counting.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# ----------------------------------------------------------------------
# self time

def test_self_time_subtracts_nested_children():
    # root [0, 10] > a [1, 3], b [4, 8] > c [5, 6]
    parent = [-1, 0, 0, 2]
    start = [0.0, 1.0, 4.0, 5.0]
    end = [10.0, 3.0, 8.0, 6.0]
    assert tracing.self_times(parent, start, end) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_self_time_merges_overlap_and_clips_overhang():
    # children [2, 6] and [4, 8] overlap (union 6); [9, 12] overhangs the parent by 2
    parent = [-1, 0, 0, 0]
    start = [0.0, 2.0, 4.0, 9.0]
    end = [10.0, 6.0, 8.0, 12.0]
    assert tracing.self_times(parent, start, end)[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_counts():
    tracer = tracing.Tracer()
    inner = tracer._wrap(lambda: 1, "flowgen.lyapunov")
    outer = tracer._wrap(lambda: inner() + inner(), "dynamics.integrate_batch")
    assert outer() == 2
    names, parent, start, end = tracer.spans()
    assert names == ["dynamics.integrate_batch", "flowgen.lyapunov", "flowgen.lyapunov"]
    assert parent == [-1, 0, 0]
    assert all(s <= e for s, e in zip(start, end))
    assert tracer.counters["flowgen.lyapunov.calls"] == 2
    selfs = tracing.self_times(parent, start, end)
    assert selfs[0] == pytest.approx(end[0] - start[0] - (end[1] - start[1]) - (end[2] - start[2]))


def test_within_follows_ancestors():
    names = ["dynamics.integrate_orbit", "dynamics.integrate_batch", "flowgen.rhs", "flowgen.rhs"]
    parent = [-1, 0, 1, -1]
    assert tracing.within(names, parent, "dynamics.integrate_orbit") == [False, True, True, False]


# ----------------------------------------------------------------------
# percentile rule

def test_percentile_is_nearest_rank():
    values = [7, 1, 10, 3, 5, 2, 9, 4, 8, 6]
    assert run.percentile(values, 50) == 5
    assert run.percentile(values, 90) == 9
    assert run.percentile(values, 100) == 10
    assert run.percentile(values, 0) == 1
    assert run.percentile([2.5], 90) == 2.5
    assert run.percentile([3, 1], 50) == 1
    assert run.percentile([3, 1], 90) == 3


# ----------------------------------------------------------------------
# failure counting

def _verify_doc(pairs, passed=True):
    return json.dumps(
        {
            "passed": passed,
            "checks": [{"label": lab, "found_class": cls, "passed": passed} for lab, cls in pairs],
            "extras": [],
        }
    )


REF_PAIRS = [["K", "attractor"], ["R", "saddle"]]


def test_verify_counts_one_failure_per_call():
    assert checks.check_verify(0, _verify_doc(REF_PAIRS), REF_PAIRS) == (1, 0)
    assert checks.check_verify(0, _verify_doc([["K", "attractor"], ["R", "repeller"]]), REF_PAIRS) == (1, 1)
    assert checks.check_verify(1, _verify_doc(REF_PAIRS, passed=False), REF_PAIRS) == (1, 1)
    assert checks.check_verify(0, "not json", REF_PAIRS) == (1, 1)


def _basins_csv(grid):
    rows = ["ix,iy,x,y,label"] + [f"{ix},{iy},0.1,0.1,{lab}" for (ix, iy), lab in sorted(grid.items())]
    return "\n".join(rows) + "\n"


def _basins_svg(n):
    rects = "".join('<rect width="1" height="1"/>' for _ in range(n))
    return f'<svg xmlns="http://www.w3.org/2000/svg">{rects}</svg>'


def test_basins_counts_each_differing_cell():
    ref = {(0, 0): "L", (1, 0): "M", (0, 1): "N"}
    assert checks.check_basins(0, _basins_csv(ref), _basins_svg(3), ref) == (3, 0)
    altered = dict(ref)
    altered[(1, 0)] = "L"
    assert checks.check_basins(0, _basins_csv(altered), _basins_svg(3), ref) == (3, 1)
    missing = {k: v for k, v in ref.items() if k != (0, 1)}
    assert checks.check_basins(0, _basins_csv(missing), _basins_svg(2), ref) == (3, 1)
    assert checks.check_basins(1, _basins_csv(ref), _basins_svg(3), ref) == (3, 3)
    assert checks.check_basins(0, _basins_csv(ref), "<svg", ref) == (3, 3)


def test_grid_text_round_trips():
    grid = {(0, 0): "L", (2, 0): "Undetermined", (1, 2): "M"}
    assert checks.read_grid(checks.write_grid(grid, 3)) == grid


def _portrait_svg(orbits, seps, labels):
    ns = 'xmlns="http://www.w3.org/2000/svg"'
    body = '<polyline points="0,0 1,1"/>' * orbits
    body += '<polyline points="0,0 1,1" stroke-dasharray="6,4"/>' * seps
    body += "".join(f'<text font-size="16">{lab}</text>' for lab in labels)
    body += '<text font-size="14">legend</text>'
    return f"<svg {ns}>{body}</svg>"


def test_portrait_checks_shape_and_repeat_bytes():
    ref = {"separatrices": 2, "markers": ["K", "L"]}
    good = _portrait_svg(3, 2, ["L", "K"])
    digests = {}
    assert checks.check_portrait(0, good, 3, ref, digests, "f") == (1, 0)
    assert checks.check_portrait(0, good, 3, ref, digests, "f") == (1, 0)
    assert checks.check_portrait(0, good + " ", 3, ref, digests, "f") == (1, 1)
    assert checks.check_portrait(0, _portrait_svg(2, 2, ["K", "L"]), 3, ref, {}, "f") == (1, 1)
    assert checks.check_portrait(0, _portrait_svg(3, 1, ["K", "L"]), 3, ref, {}, "f") == (1, 1)
    assert checks.check_portrait(0, _portrait_svg(3, 2, ["K"]), 3, ref, {}, "f") == (1, 1)
    assert checks.check_portrait(0, "<svg", 3, ref, {}, "f") == (1, 1)
    assert checks.check_portrait(2, good, 3, ref, {}, "f") == (1, 1)


def test_committed_references_cover_every_workload_input():
    refs = checks.load_references()
    assert set(refs["verify"]) == {run.family_key(*f) for f in run.TABLE_FAMILIES}
    assert set(refs["portrait"]) == {run.family_key(*f) for f in run.PORTRAIT_FAMILIES}
    assert {r["separatrices"] for r in refs["portrait"].values()} == {8, 12}
    assert len(refs["basins"]) == 32640
