import json
import re
import shlex
from pathlib import Path

import pytest

from curverig.cli import build_parser, main, _SELF_TESTS


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(doc):
    doc = dict(doc)
    doc.pop("timing_seconds", None)
    return doc


def test_count_distances_circle(tmp_path, capsys):
    out = tmp_path / "res.json"
    code, _, _ = run_cli(["count-distances", "--curve", "unit_circle",
                          "--scheme", "angles:6", "--mode", "tol:1e-9",
                          "--out", str(out)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["count"] == 3
    assert doc["command"] == "count-distances"
    assert doc["config"]["seed"] == 0
    assert "timing_seconds" in doc


def test_count_distances_missing_curve(capsys):
    code, _, err = run_cli(["count-distances", "--scheme", "angles:6"], capsys)
    assert code == 2
    assert "--curve" in err


def test_count_distances_bad_scheme(capsys):
    code, _, err = run_cli(["count-distances", "--curve", "unit_circle",
                            "--scheme", "spiral:9"], capsys)
    assert code == 2


def test_estimate_exponent_csv(tmp_path, capsys):
    out = tmp_path / "fit.json"
    csv = tmp_path / "fit.csv"
    code, _, _ = run_cli(["estimate-exponent", "--curve", "circular_helix(0.5)",
                          "--scheme", "arith:0:0.3", "--sizes", "16,32,64",
                          "--out", str(out), "--csv-out", str(csv)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["slope"] <= 1.05
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "N,count"
    assert rows[1].startswith("16,")


def test_bound_prints_value(capsys):
    code, out, _ = run_cli(["bound", "--np", "100", "--nxi", "10000",
                            "--k", "1"], capsys)
    assert code == 0
    value = float(out.split("=")[1])
    assert abs(value - 316) <= 0.05 * 316


def test_flex_framework_file(tmp_path, capsys):
    fw = {"curve": {"kind": "builtin", "name": "rational_circle"},
          "quantity": {"kind": "sq_euclidean"},
          "params": ["0", "1/2", "2"],
          "edges": [[0, 1], [0, 2], [1, 2]]}
    path = tmp_path / "fw.json"
    path.write_text(json.dumps(fw))
    out = tmp_path / "flex.json"
    code, _, _ = run_cli(["flex", "--framework", str(path),
                          "--out", str(out)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["exact_nullity"] == 1
    assert doc["result"]["flexible"] is True


def test_trace_motion(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code, _, _ = run_cli(["trace-motion", "--curve", "unit_circle",
                          "--triangle", "0.0,0.8,1.7", "--step", "0.005",
                          "--steps", "100", "--out", str(out)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["max_drift"] < 1e-9
    assert doc["result"]["steps_completed"] == 100


def test_classify_curve(tmp_path, capsys):
    out = tmp_path / "cls.json"
    csv = tmp_path / "profile.csv"
    code, _, _ = run_cli(["classify-curve", "--curve", "circular_helix(0.5)",
                          "--max-order", "2", "--samples", "12",
                          "--out", str(out), "--csv-out", str(csv)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["helix_candidate"] is True
    assert doc["result"]["structural"]["is_algebraic"] is False  # drift helix
    assert csv.read_text().startswith("order,")


def test_check_simplicity(tmp_path, capsys):
    out = tmp_path / "simp.json"
    code, _, _ = run_cli(["check-simplicity", "--curve", "line",
                          "--grid", "64", "--out", str(out)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["passed"] is False
    failing = [c for c in doc["result"]["conditions"] if not c["passed"]]
    assert [c["index"] for c in failing] == [2]


def test_test_degeneracy(tmp_path, capsys):
    out = tmp_path / "deg.json"
    code, _, _ = run_cli(["test-degeneracy", "--curve", "unit_circle",
                          "--pairs", "8", "--tau-grid", "128",
                          "--tol", "1e-8", "--out", str(out)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["is_degenerate_candidate"] is True


def test_elekes_analyze(tmp_path, capsys):
    out = tmp_path / "elekes.json"
    code, _, _ = run_cli(["elekes-analyze", "--curve", "parabola",
                          "--points", "1/7,2/7,3/7,4/7,5/7",
                          "--pairs", "10", "--grid", "32",
                          "--out", str(out)], capsys)
    assert code == 0
    doc = read_json(out)
    assert doc["result"]["incidence"]["n_failures"] == 0
    assert doc["result"]["incidence"]["min_incident"] == 3
    assert doc["result"]["admissibility"]["max_pairwise_intersections"] <= 16


def test_output_determinism_repeat_runs(tmp_path, capsys):
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.json"
        run_cli(["test-degeneracy", "--curve", "parabola", "--pairs", "8",
                 "--tau-grid", "128", "--out", str(out)], capsys)
        outs.append(json.dumps(strip_timing(read_json(out)), sort_keys=True))
    assert outs[0] == outs[1]


def test_numeric_failure_exit_code(tmp_path, capsys):
    # driver walks out of the parabola domain: numeric failure, exit 3
    code, _, err = run_cli(["trace-motion", "--curve", "parabola",
                            "--triangle", "0.5,0.3,0.1", "--step", "0.2",
                            "--steps", "5"], capsys)
    assert code == 3
    assert "numeric failure" in err


@pytest.mark.parametrize("command", sorted(_SELF_TESTS))
def test_self_tests_pass(command, capsys):
    code, out, _ = run_cli([command, "--self-test"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_self_test_failure_exits_one(monkeypatch, capsys):
    flags, _ = _SELF_TESTS["bound"]
    monkeypatch.setitem(_SELF_TESTS, "bound", (flags, [
        ("wrong closed form", lambda r: r["delta_star"] == 2.0)]))
    code, out, _ = run_cli(["bound", "--self-test"], capsys)
    assert code == 1
    assert "[bound] ok: exit code 0" in out
    assert "[bound] FAIL: wrong closed form" in out


# -- README examples -------------------------------------------------------------

_README_BLOCKS = re.findall(
    r"```(?:json)?\n(.*?)```",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(),
    flags=re.S)
_README_FRAMEWORK = next(b for b in _README_BLOCKS if '"edges"' in b)
_README_COMMANDS = next(b for b in _README_BLOCKS if b.startswith("curverig "))
# elekes-analyze is left out: its 200-pair instance takes tens of seconds,
# and acceptance criterion 11 already runs that size
_README_EXAMPLES = {argv[1]: argv[1:] for argv in map(
    shlex.split, _README_COMMANDS.replace("\\\n", " ").splitlines())
    if argv[1] != "elekes-analyze"}


@pytest.mark.parametrize("command", sorted(_README_EXAMPLES))
def test_readme_example_exits_zero(command, tmp_path, monkeypatch, capsys):
    (tmp_path / "fw.json").write_text(_README_FRAMEWORK)
    monkeypatch.chdir(tmp_path)
    argv = _README_EXAMPLES[command]
    if command == "bound":  # bound prints one line; its report needs --out
        argv = argv + ["--out", "bound.json"]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    doc = (read_json(argv[argv.index("--out") + 1]) if "--out" in argv
           else json.loads(out))
    # config echoes every parsed option except the output flags
    parsed = vars(build_parser().parse_args(argv))
    expected = {k: v for k, v in parsed.items() if k not in (
        "command", "func", "required_opts", "self_test", "out", "format",
        "csv_out")}
    assert doc["config"] == expected
    assert all(type(n) is int for n in doc["config"].get("sizes", []))
