"""Smoke test of tools/cli_corpus.py on two invocations; the full corpus is not run here."""

import importlib.util
import json
import pathlib
import sys

from flagricci.catalog import ELL_BOUND_MAX, MNP_BOUND_MAX, list_families

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_corpus", ROOT / "tools" / "cli_corpus.py")
cli_corpus = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_corpus)

COMMANDS = [["field", "--family", "g2u2"], ["basins", "--family", "g2u2", "--res", "16", "--svg", "basins.svg"]]


def test_corpus_records_diff_empty_and_a_changed_digest_is_reported(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        cli_corpus.record(str(ROOT / "src"), str(path), COMMANDS)
    assert cli_corpus.main(["diff", str(a), str(b)]) == 0
    doc = json.loads(b.read_text())
    assert sorted(doc) == ["basins --family g2u2 --res 16 --svg basins.svg", "field --family g2u2"]
    assert [rec["exit"] for rec in doc.values()] == [0, 0]
    assert list(doc["basins --family g2u2 --res 16 --svg basins.svg"]["files"]) == ["basins.svg"]
    doc["field --family g2u2"]["stdout"] = "0" * 64
    b.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_corpus.main(["diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["field --family g2u2"]


def test_corpus_lists_each_invocation_once():
    listed = {(f.id, ",".join(map(str, f.params)) or None) for f in list_families(6, 12)}
    assert set(cli_corpus._listed_families(6, 12)) == listed
    keys = [" ".join(argv) for argv in cli_corpus.corpus()]
    assert len(keys) == len(set(keys)) == 2 + 3 * 73 + 7 * 11 + 12 + 2 * 11 + 6 + 3 + 8 + 5


def test_sweep_runs_each_exact_command_once_on_every_listed_family():
    listed = [(f.id, ",".join(map(str, f.params)) or None) for f in list_families(MNP_BOUND_MAX, ELL_BOUND_MAX)]
    assert len(listed) == 3605 and cli_corpus._listed_families(MNP_BOUND_MAX, ELL_BOUND_MAX) == listed
    keys = [" ".join(argv) for argv in cli_corpus.sweep()]
    expected = {" ".join([cmd] + cli_corpus._family_args(*fam)) for cmd in ("field", "equilibria", "verify")
                for fam in listed}
    assert len(keys) == len(set(keys)) == 3 * 3605 and set(keys) == expected
