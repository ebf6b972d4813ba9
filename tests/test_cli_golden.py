"""Golden CLI output: exit code, stdout and stderr of fixed invocations.

Each invocation runs in a scratch directory holding the input files, with
relative paths, so no message names a machine path.  The expected output
lives in `data/cli_golden.json`.  After checking that a change to the CLI
output is intended, re-record it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from test_cli import CORPUS_SRC, TENSOR_SRC, WEIGHTED_SRC

from pgshell.cli import run_command

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# V is a complete intersection of two quadrics and a cubic in P^3.  The
# generators of W1 and W2 extend to minimal generators of V; the second
# generator of Wbad is a variable times one of V's quadrics.
CI_SRC = """\
ring S = QQ[z0,z1,z2,z3];
ideal V = z0*z1 - z2*z3, z0^2 - z1^2 + z2*z3, z0*z2^2 + z1*z3^2 - z3^3;
ideal W1 = z0*z1 - z2*z3;
ideal W2 = z0*z1 - z2*z3, z0*z2^2 + z1*z3^2 - z3^3;
ideal Wbad = z0*z1 - z2*z3, z3*z0^2 - z3*z1^2 + z2*z3^2;
"""

# V is the rational normal curve in P^4 and W2 its first two quadrics: a
# negative pair on which z4 divides no lead monomial of either ideal.
RNC4_SRC = """\
ring S = QQ[z0,z1,z2,z3,z4];
ideal V = z0*z2 - z1^2, z0*z3 - z1*z2, z0*z4 - z1*z3, z1*z3 - z2^2, z1*z4 - z2*z3,
  z2*z4 - z3^2;
ideal W2 = z0*z2 - z1^2, z0*z3 - z1*z2;
"""

# A weighted ring; w divides no lead monomial of J.
WEIGHTED2_SRC = """\
ring R = QQ[x,y,z:2,w:3];
ideal J = x^2*z - y^4, z^2 - x^2*y^2, x*y*z - y^4;
"""

INPUTS = {
    "corpus.ideal": CORPUS_SRC.encode(),
    "gf.ideal": CORPUS_SRC.replace("QQ", "ZZ/32003").encode(),
    "weighted.ideal": WEIGHTED_SRC.encode(),
    "tensor.ideal": TENSOR_SRC.encode(),
    "ci.ideal": CI_SRC.encode(),
    "ci-gf.ideal": CI_SRC.replace("QQ", "ZZ/32003").encode(),
    "rnc4.ideal": RNC4_SRC.encode(),
    "rnc4-gf.ideal": RNC4_SRC.replace("QQ", "ZZ/32003").encode(),
    "weighted2.ideal": WEIGHTED2_SRC.encode(),
    "inhom.ideal": b"ring S = QQ[x,y];\nideal I = x + y^2, x*y;\n",
    "broken.ideal": b"ideal I = z0 +",
    "utf16.ideal": "ring S = QQ[x];\nideal I = x;\n".encode("utf-16"),
}


def _invocations():
    out = []
    for fmt in ([], ["--json"]):
        for src in ("corpus.ideal", "gf.ideal"):
            for cmd in ("gb", "betti", "invariants", "saturate"):
                out.append([cmd, src, "V"] + fmt)
            out += [
                ["saturate", src, "Unsat"] + fmt,
                ["hilbert", src, "V", "--max", "4"] + fmt,
                ["pgshell", src, "V", "W"] + fmt,
                ["pgshell", src, "V", "Wbad"] + fmt,
                ["pgshell", src, "V", "Wbad", "--method", "both"] + fmt,
                ["pgshell", src, "V", "Unsat", "--method", "oracle"] + fmt,
                ["criteria", src, "V", "W"] + fmt,
                ["criteria", src, "V", "Wbad"] + fmt,
            ]
        out += [
            ["pgshell", "corpus.ideal", "V", "W", "--method", "both"] + fmt,
            ["betti", "weighted.ideal", "W"] + fmt,
            ["invariants", "weighted.ideal", "V"] + fmt,
            ["hilbert", "weighted.ideal", "W", "--max", "6"] + fmt,
            ["pgshell", "weighted.ideal", "V", "W"] + fmt,
            ["criteria", "weighted.ideal", "V", "W"] + fmt,
            ["tensor-res", "tensor.ideal", "Y", "Z"] + fmt,
            ["tensor-res", "weighted.ideal", "V", "W"] + fmt,
            ["catalog", "rnc", "4"] + fmt,
            ["catalog", "points-rnc", "3", "5"] + fmt,
            ["catalog", "ci", "2", "3", "--seed", "2"] + fmt,
            ["gb", "corpus.ideal", "V", "--field-check"] + fmt,
            ["gb", "inhom.ideal", "I"] + fmt,
        ]
        for src in ("ci.ideal", "ci-gf.ideal"):
            out += [["criteria", src, "V", w] + fmt for w in ("W1", "W2", "Wbad")]
        for src in ("rnc4.ideal", "rnc4-gf.ideal"):
            out += [["pgshell", src, "V", "W2", "--method", m] + fmt for m in ("oracle", "both")]
        out += [
            ["betti", "tensor.ideal", "Y"] + fmt,
            ["betti", "weighted2.ideal", "J"] + fmt,
        ]
    # input errors, exit 2
    out += [
        ["gb", "corpus.ideal", "MISSING"],
        ["gb", "nope.ideal", "I"],
        ["gb", "broken.ideal", "I"],
        ["gb", "inhom.ideal", "I", "--strict"],
        ["saturate", "inhom.ideal", "I"],
        ["pgshell", "corpus.ideal", "W", "V"],
        ["pgshell", "corpus.ideal", "V", "W", "--method", "fast"],
        ["hilbert", "corpus.ideal", "V", "--max", "-1"],
        ["hilbert", "weighted.ideal", "V", "--max", "-1"],
        ["hilbert", "corpus.ideal", "V"],
        ["catalog", "ci", "2", "0"],
        ["catalog", "rnc", "x"],
        ["catalog", "nothing"],
        ["catalog", "points-rnc", "0", "1"],
        ["catalog", "points-rnc", "3", "0"],
        ["catalog", "points-rnc", "0", "3"],
        ["catalog", "rnc", "2", "--strict"],
        ["catalog", "rnc", "3", "extra"],
        ["catalog", "veronese", "5"],
        ["catalog", "points-rnc", "3", "11"],
        ["gb", "corpus.ideal", "V", "--bogus"],
        ["gb", "utf16.ideal", "I"],
        ["frobnicate"],
        [],
        ["--help"],
        ["pgshell", "--help"],
        ["catalog", "--help"],
        ["hilbert", "--help"],
    ]
    return out


INVOCATIONS = _invocations()


def write_inputs(directory):
    for name, data in INPUTS.items():
        (Path(directory) / name).write_bytes(data)


def invoke(argv, directory):
    """Run one CLI invocation in `directory`; return its exit code and output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help text to the terminal
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run_command(argv)
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return {tuple(rec["argv"]): rec for rec in json.loads(GOLDEN.read_text())}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_inputs(path)
    return path


def test_golden_covers_every_invocation(golden):
    assert set(golden) == {tuple(argv) for argv in INVOCATIONS}
    assert {rec["exit"] for rec in golden.values()} >= {0, 1, 2}


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda argv: " ".join(argv) or "(none)")
def test_cli_output_matches_golden(argv, workdir, golden):
    assert invoke(argv, workdir) == golden[tuple(argv)]


def record():
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        records = [invoke(argv, directory) for argv in INVOCATIONS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(records)} invocations to {GOLDEN}")


if __name__ == "__main__":
    record()
