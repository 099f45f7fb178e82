"""Golden reports: exact CLI results pinned by sha256.

Each case runs one argv through `curverig.cli.main` in process and hashes
its exit code and its report without `timing_seconds` (for a --self-test,
the exit code alone).  Only results made by integer arithmetic and correctly
rounded conversions are pinned, so the table holds on every IEEE machine:
exact counts, exact exponent samples, exact Elekes scans and the exact
fields of `flex`.  What polyfit, an SVD or libm computes (the exponent
slope, singular values, every float-path report) is left to value tests.

A change that alters one of these reports on purpose re-records the table
and names each changed case and its cause:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from curverig.cli import _COMMANDS, main

TABLE = Path(__file__).with_name("golden_reports.json")

_PINNED_AREA = "pinned_area:1/3,-2/5"
# asymmetric: x1^2 - 2 x1 y2 + 3 x2 y1^2 + 7/2 y2
_POLY = json.dumps({"kind": "poly", "dimension": 2, "terms": [
    [[2, 0, 0, 0], "1"], [[1, 0, 0, 1], "-2"], [[0, 1, 2, 0], "3"],
    [[0, 0, 0, 1], "7/2"]]})
_CUBIC = json.dumps({"kind": "rational", "domain": ["-2", "2"],
                     "coords": [{"num": ["0", "1"]}, {"num": ["0", "-1", "0", "1"]}]})
_FRAMEWORKS = {
    "circle": {"curve": "rational_circle", "quantity": "sq_euclidean",
               "params": ["0", "1/2", "2"], "edges": [[0, 1], [0, 2], [1, 2]]},
    "parabola": {"curve": "parabola", "quantity": "sq_euclidean",
                 "params": ["1/5", "1/2", "4/5"], "edges": [[0, 1], [0, 2], [1, 2]]},
}


def _cases() -> dict:
    """label -> (argv, result keys to pin or None for the whole report)."""
    cases = {}
    for curve in ["parabola", "rational_circle", "rect_hyperbola", "line"]:
        for scheme in ["rand:11:64", "arith:1/97:1/97:48", "geom:1/64:9/8:32"]:
            for qname, q in [("sq", "sq_euclidean"), ("pinned", _PINNED_AREA),
                             ("poly", _POLY)]:
                cases[f"count-{curve}-{scheme.split(':')[0]}-{qname}"] = (
                    ["count-distances", "--curve", curve, "--scheme", scheme,
                     "--quantity", q, "--mode", "exact"], None)
    for curve, scheme, sizes in [("parabola", "rand:5", "16,32,64"),
                                 ("rational_circle", "rand:6", "16,32,64"),
                                 ("line", "arith:-3/7:1/7", "8,16,32")]:
        cases[f"exponent-{curve}"] = (
            ["estimate-exponent", "--curve", curve, "--scheme", scheme,
             "--sizes", sizes, "--mode", "exact"], ("samples",))
    for label, curve, points, pairs in [
            ("readme", "parabola", "1/7,2/7,3/7,4/7,5/7", "200"),
            ("parabola", "parabola", "rand:21:6", "20"),
            ("rational_circle", "rational_circle", "rand:22:5", "20"),
            ("cubic", _CUBIC, "rand:23:4", "20")]:
        cases[f"elekes-{label}"] = (
            ["elekes-analyze", "--curve", curve, "--points", points,
             "--pairs", pairs, "--grid", "64"], None)
    for label, fw in _FRAMEWORKS.items():
        cases[f"flex-{label}"] = (
            ["flex", "--framework", json.dumps(fw)],
            ("exact_nullity", "nullity", "flexible", "n_vertices", "n_edges"))
    for command in _COMMANDS:
        cases[f"self-test-{command}"] = ([command, "--self-test"], ())
    return cases


def digest(argv, keys, out_dir) -> str:
    """sha256 of the exit code and the pinned part of the report."""
    out = os.path.join(out_dir, "report.json")
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv + ([] if keys == () else ["--out", out]))
    doc = None
    if keys != () and os.path.exists(out):  # a failed command writes none
        with open(out) as fh:
            doc = json.load(fh)
        doc.pop("timing_seconds")
        if keys is not None:
            doc["result"] = {k: doc["result"][k] for k in keys}
    body = json.dumps({"rc": rc, "report": doc}, sort_keys=True)
    return hashlib.sha256(body.encode()).hexdigest()


CASES = _cases()


def _table() -> dict:
    with open(TABLE) as fh:
        return json.load(fh)


def test_table_covers_every_case():
    assert sorted(_table()) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_golden_report(label, tmp_path):
    argv, keys = CASES[label]
    want = _table()[label]
    assert want["argv"] == argv
    assert digest(argv, keys, tmp_path) == want["sha256"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        table = {label: {"argv": argv, "sha256": digest(argv, keys, tmp)}
                 for label, (argv, keys) in sorted(CASES.items())}
    with open(TABLE, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(table)} cases in {TABLE}")
