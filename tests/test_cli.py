import json
import re
import shlex
from pathlib import Path

import pytest

from curverig.cli import _COMMANDS, _SELF_TESTS, build_parser, main


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


_PARABOLA = {"kind": "rational", "domain": ["0", "1"],
             "coords": [{"num": ["0", "1"]}, {"num": ["0", "0", "1"]}]}


@pytest.mark.parametrize("change", [
    {"coords": [{"num": ["0", "1"], "den": ["0"]}, {"num": ["1"]}]},
    {"coords": [{"num": ["0", "1"], "den": ["1/0"]}, {"num": ["1"]}]},
    {"coords": [{"num": [None, 1]}, {"num": ["1"]}]},
    {"coords": [{"num": [True, 1]}, {"num": ["1"]}]},
    {"domain": ["0"]},
    {"coords": {"num": ["0", "1"]}},
    {"coords": [{"num": 5}, {"num": ["1"]}]},
    {"coords": [{"num": ["0", "1"], "den": 5}, {"num": ["1"]}]},
    {"domain": 5},
    {"domain": "01"},
    {"coords": 5},
    {"domain": []},
], ids=["zero-den", "den-1/0", "num-null", "num-bool", "one-endpoint",
        "coords-object", "num-int", "den-int", "domain-int", "domain-string",
        "coords-int", "domain-empty"])
def test_malformed_rational_curve_exits_2(change, capsys):
    curve = json.dumps({**_PARABOLA, **change})
    code, _, err = run_cli(["count-distances", "--curve", curve,
                            "--scheme", "rand:1:8"], capsys)
    assert code == 2
    assert err.startswith("error: ")


_LINE_1D = {"kind": "rational", "coords": [{"num": ["0", "1"]}]}
_FRAMEWORK = {"curve": "rational_circle", "quantity": "sq_euclidean",
              "params": ["0", "1/2", "2"], "edges": [[0, 1], [0, 2], [1, 2]]}


@pytest.mark.parametrize("argv", [
    ["count-distances", "--curve", "@[1, 2]", "--scheme", "rand:1:8"],
    ["count-distances", "--curve", "line", "--quantity", "@[1, 2]",
     "--scheme", "rand:1:8"],
    ["count-distances", "--curve", "line", "--scheme", "rand:1:8", "--quantity",
     '{"kind": "pinned_area", "apex": 5}'],
    ["count-distances", "--scheme", "rand:1:8", "--curve",
     '{"kind": "helix", "radii": [1], "frequencies": [1], "dimension": 4.5}'],
    ["flex", "--framework", "@[1, 2]"],
    ["flex", "--framework", "@" + json.dumps({**_FRAMEWORK, "curve": 5})],
    ["flex", "--framework", "@" + json.dumps({**_FRAMEWORK, "quantity": [1]})],
    *(["count-distances", "--curve", "parabola", "--scheme", "rand:1:8",
       "--quantity", json.dumps({"kind": "poly", "dimension": 2, **change})]
      for change in ({"terms": 5}, {"terms": [5]}, {"terms": [[5, "1"]]},
                     {"terms": [[[0.5, 0, 0, 0], "1"]]},
                     {"terms": [[[-1, 0, 0, 0], "1"], [[0, 0, 2, 0], "1"]]},
                     {"terms": [[[True, 0, 0, 0], "1"]]},
                     {"terms": [[["1", 0, 0, 0], "1"]]},
                     {"terms": [[[2, 0, 0, 0], "1"]], "dimension": 2.5})),
    *(["count-distances", "--curve", json.dumps(_LINE_1D), "--scheme", "rand:1:8",
       "--quantity", json.dumps(q)]
      for q in ({"kind": "sq_euclidean", "dimension": 1.5},
                {"kind": "sq_euclidean", "dimension": 1.7},
                {"kind": "sq_euclidean", "dimension": True},
                {"kind": "poly", "dimension": True, "terms": [[[2, 0], "1"]]})),
    *(["flex", "--framework", "@" + json.dumps({**_FRAMEWORK, **change})]
      for change in ({"edges": [0, 1]}, {"edges": 5}, {"params": 5},
                     {"params": "012"}, {"edges": [[0.5, 1], [0, 2], [1, 2]]},
                     {"edges": [[True, 2], [0, 2]]}, {"edges": [[0, -1]]},
                     {"params": [None, "1/2", "2"]}, {"params": [[1], "1/2", "2"]},
                     {"params": [True, "1/2", "2"]})),
], ids=["curve-list", "quantity-list", "apex-int", "helix-dim-4.5",
        "framework-list", "framework-curve-int", "framework-quantity-list",
        "terms-int", "term-int", "exponents-int", "exponent-0.5",
        "exponent-negative", "exponent-bool", "exponent-string", "poly-dim-2.5",
        "dim-1.5", "dim-1.7", "dim-bool", "poly-dim-bool",
        "edges-flat", "edges-int", "params-int", "params-string",
        "edge-0.5", "edge-bool", "edge-negative", "param-null", "param-list",
        "param-bool"])
def test_json_of_the_wrong_shape_exits_2(argv, tmp_path, capsys):
    # "@doc" is written to a file and passed as its path
    def file_of(i, text):
        path = tmp_path / f"doc{i}.json"
        path.write_text(text)
        return str(path)

    argv = [file_of(i, a[1:]) if a.startswith("@") else a
            for i, a in enumerate(argv)]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")


_POLY_1D = json.dumps({"kind": "poly", "dimension": 1,
                       "terms": [[[2, 0], "1"], [[1, 1], "-2"], [[0, 2], "1"]]})


@pytest.mark.parametrize("argv", [
    ["count-distances", "--curve", "parabola", "--scheme", "arith:1/8:1/8:6",
     "--quantity", _POLY_1D],
    ["count-distances", "--curve", "parabola", "--scheme", "arith:1/8:1/8:6",
     "--quantity", _POLY_1D, "--mode", "exact"],
    ["count-distances", "--curve", "parabola", "--scheme", "arith:1/8:1/8:6",
     "--quantity", '{"kind": "sq_euclidean", "dimension": 3}'],
    ["count-distances", "--curve", "circular_helix(0.5)", "--scheme",
     "arith:1/8:1/8:20", "--quantity", "pinned_area:0,0"],
    ["check-simplicity", "--curve", "parabola", "--quantity", _POLY_1D],
    ["test-degeneracy", "--curve", "parabola", "--quantity", _POLY_1D],
], ids=["count-tol", "count-exact", "sq-euclidean-3d", "pinned-area-on-helix",
        "check-simplicity", "test-degeneracy"])
def test_quantity_of_another_dimension_exits_2(argv, capsys):
    # D of a 1-D, 3-D or planar quantity on a curve of another dimension
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: expected dimension")


def test_count_distances_exact_beyond_float_range(tmp_path, capsys):
    # x1^120 + y1^120 on 997..999 lies beyond 1e308: the extremes are
    # reported as exact strings, and an in-range report keeps its floats
    out = tmp_path / "res.json"
    quantity = json.dumps({"kind": "poly", "dimension": 2,
                           "terms": [[[120, 0, 0, 0], "1"], [[0, 0, 120, 0], "1"]]})
    code, _, err = run_cli(["count-distances", "--curve", "line", "--scheme",
                            "arith:997:1:3", "--mode", "exact", "--quantity",
                            quantity, "--out", str(out)], capsys)
    assert code == 0, err
    r = read_json(out)["result"]
    assert r["count"] == 3
    assert r["value_min"] == str(997 ** 120 + 998 ** 120)
    assert r["value_max"] == str(998 ** 120 + 999 ** 120)
    code, _, _ = run_cli(["count-distances", "--curve", "line", "--scheme",
                          "arith:997:1:3", "--mode", "exact", "--out", str(out)],
                         capsys)
    assert code == 0
    r = read_json(out)["result"]
    assert (r["value_min"], r["value_max"]) == (1.0, 4.0)


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
    assert doc["result"]["admissibility"]["count_methods"] == {"exact": 10}


def test_elekes_analyze_helix_counts_by_newton(tmp_path, capsys):
    out = tmp_path / "helix.json"
    code, _, _ = run_cli(["elekes-analyze", "--curve", "circular_helix(0.5)",
                          "--points", "rand:3:4", "--pairs", "3", "--grid", "16",
                          "--out", str(out)], capsys)
    assert code == 0
    adm = read_json(out)["result"]["admissibility"]
    assert adm["detection_method"] == "fingerprint"
    assert adm["count_methods"] == {"newton": sum(adm["histogram"].values())}


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
_README_EXAMPLES = {argv[1]: argv[1:] for argv in map(
    shlex.split, _README_COMMANDS.replace("\\\n", " ").splitlines())}


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
    if command == "elekes-analyze":
        # exact counts of all 190 pairs of the 20 curves: the mirrored pair
        # (4/7, 5/7), (5/7, 4/7) meets 3 times, where Newton read 5
        adm = doc["result"]["admissibility"]
        assert adm["histogram"] == {"1": 16, "2": 164, "3": 10}
        assert adm["max_pairwise_intersections"] == 3
        assert adm["count_methods"] == {"exact": 190}


# -- one parser per command ------------------------------------------------------

_PARSED_ARGVS = ([[command] + flags
                  for command, (flags, _) in sorted(_SELF_TESTS.items())]
                 + [argv for _, argv in sorted(_README_EXAMPLES.items())])


@pytest.mark.parametrize("argv", _PARSED_ARGVS, ids=lambda argv: " ".join(argv)[:50])
def test_one_command_parser_matches_the_full_parser(argv):
    assert (vars(build_parser(argv[0]).parse_args(argv))
            == vars(build_parser().parse_args(argv)))


@pytest.mark.parametrize("argv", [
    ["count-distances", "--curve", "line", "--bogus"],
    ["bound", "--np", "x"],
    ["estimate-exponent", "--sizes", "1,x"],
    ["flex", "--help"],
])
def test_one_command_parser_prints_what_the_full_parser_prints(argv, capsys):
    printed = []
    for parser in (build_parser(argv[0]), build_parser()):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        out = capsys.readouterr()
        printed.append((exc.value.code, out.out, out.err))
    assert printed[0] == printed[1]


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "{" + ",".join(_COMMANDS) + "}" in out
    assert len(_COMMANDS) == 9
    assert all(re.search(rf"^    {name} +\S", out, re.M) for name in _COMMANDS)


def test_unknown_subcommand_names_the_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count-everything", "--curve", "line"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'count-everything'" in err
    assert all(f"'{name}'" in err for name in _COMMANDS)


def test_rand_beyond_its_numerators_exits_2(capsys):
    code, _, err = run_cli(["count-distances", "--curve", "parabola", "--scheme",
                            "rand:1:4294967296", "--mode", "exact"], capsys)
    assert code == 2
    assert err.startswith("error: rand draws N distinct numerators")
