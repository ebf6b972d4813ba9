import gc
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from pgshell import (
    Ideal,
    Polynomial,
    clear_caches,
    groebner_basis,
    minimal_resolution,
    rational_normal_curve,
    render_source,
)
import pgshell.cli as cli_module
from pgshell.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_NEGATIVE, EXIT_OK, render_betti, run_command
from pgshell.resolution import BettiTable

from test_fields import clear_at_with_sign_error

SRC = str(Path(__file__).resolve().parent.parent / "src")
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "report.v1.json").read_text()
)

CORPUS_SRC = """\
ring S = QQ[z0,z1,z2,z3];
ideal V = z0*z2 - z1^2, z1*z3 - z2^2, z0*z3 - z1*z2;
ideal W = z0*z2 - z1^2;
ideal Wbad = z3*z0*z2 - z3*z1^2;
ideal Unsat = z0^2*z2 - z0*z1^2, z0*z1*z2 - z1^3, z0*z2^2 - z1^2*z2, z0*z2*z3 - z1^2*z3;
"""


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.ideal"
    path.write_text(CORPUS_SRC)
    return str(path)


def run(argv):
    buf = io.StringIO()
    code = run_command(argv, out=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run(argv + ["--json"])
    payload = json.loads(text) if text.strip() else None
    if payload is not None:
        jsonschema.validate(payload, SCHEMA)
    return code, payload


def test_betti_json_matches_contract(corpus_file):
    code, payload = run_json(["betti", corpus_file, "V"])
    assert code == EXIT_OK
    assert payload["betti"] == {"0": {"0": 1}, "1": {"2": 3}, "2": {"3": 2}}


def test_render_betti_layouts():
    tc = BettiTable({(0, 0): 1, (1, 2): 3, (2, 3): 2})
    text = render_betti(tc)
    lines = text.splitlines()
    assert len(lines) == 4  # header, totals, rows m-q = 0, 1
    assert "total:" in lines[1]
    zero = BettiTable({(0, 0): 1})
    assert len(render_betti(zero).splitlines()) == 3
    ci = BettiTable({(0, 0): 1, (1, 2): 1, (1, 3): 1, (2, 5): 1})
    assert len(render_betti(ci).splitlines()) == 2 + 4  # rows m-q in 0..3


def test_pgshell_exit_codes(corpus_file):
    code, payload = run_json(["pgshell", corpus_file, "V", "W", "--method", "both"])
    assert code == EXIT_OK
    assert payload["verdict"] == "pg-shell"
    assert payload["method"] == "both"

    code, payload = run_json(["pgshell", corpus_file, "V", "Wbad"])
    assert code == EXIT_NEGATIVE
    assert payload["verdict"] == "not-pg-shell"
    assert payload["witness"]["q"] == 1 and payload["witness"]["m"] == 3


def test_pgshell_human_json_agreement(corpus_file):
    code_h, human = run(["pgshell", corpus_file, "V", "W", "--method", "both"])
    code_j, payload = run_json(["pgshell", corpus_file, "V", "W", "--method", "both"])
    assert code_h == code_j == EXIT_OK
    assert payload["verdict"] in human
    assert payload["method"] in human
    for cell in payload["table"]:
        row = [ln for ln in human.splitlines() if ln.strip().startswith(f"{cell['q']} ")]
        assert row and str(cell["tor_W"]) in row[0] and str(cell["tor_V"]) in row[0]


def test_unsaturated_warning(corpus_file):
    # Unsat = z0 * (two quadric relations): saturation strips the z0 factor
    code, payload = run_json(["pgshell", corpus_file, "V", "Unsat"])
    assert any("not saturated" in w for w in payload["warnings"])
    code, payload = run_json(["pgshell", corpus_file, "V", "W"])
    assert payload["warnings"] == []


WEIGHTED_SRC = """\
ring R = QQ[x,y,w:2];
ideal V = x, y;
ideal W = x^2, x*y, x*w;
ideal U = 1;
ideal H = x + y^2;
"""


@pytest.fixture(scope="module")
def weighted_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "weighted.ideal"
    path.write_text(WEIGHTED_SRC)
    return str(path)


def test_unsaturated_warning_weighted(weighted_file):
    # W = x * S_+ saturates to (x); V = (x, y) is the point (0:0:1)
    code, payload = run_json(["pgshell", weighted_file, "V", "W"])
    assert len(payload["warnings"]) == 1 and payload["warnings"][0].startswith("ideal W ")


def test_precheck_keeps_input_errors(weighted_file, capsys):
    # the saturation pre-check runs first and must not pre-empt these errors
    code, _ = run(["pgshell", weighted_file, "U", "W"])
    assert code == EXIT_INPUT
    assert "error: ideal V is the unit ideal (empty scheme)" in capsys.readouterr().err
    code, _ = run(["pgshell", weighted_file, "H", "W"])
    assert code == EXIT_INPUT
    assert "error: this operation needs homogeneous generators" in capsys.readouterr().err


def test_commands_run_no_elimination(corpus_file, tmp_path, monkeypatch, capsys):
    # saturated input: the pre-check and the catalog check compute no saturation
    from pgshell import saturation

    def refuse(*args):
        raise AssertionError("saturation computed")

    monkeypatch.setattr(saturation, "ideal_quotient_saturation", refuse)
    monkeypatch.setattr(saturation, "ideal_intersection", refuse)
    for method in ("chain", "oracle", "both"):
        assert run(["pgshell", corpus_file, "V", "W", "--method", method])[0] == EXIT_OK
    assert run(["criteria", corpus_file, "V", "W"])[0] == EXIT_OK
    path = tmp_path / "p5.ideal"
    path.write_text(TENSOR_SRC)
    assert run(["tensor-res", str(path), "Y", "Z"])[0] == EXIT_OK
    assert run(["catalog", "points-rnc", "3", "5"])[0] == EXIT_OK
    # the refusal is an unexpected exception to the CLI: exit 3, one stderr line
    capsys.readouterr()
    assert run(["saturate", corpus_file, "Unsat"]) == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal error: AssertionError: saturation computed\n"


def test_oracle_and_saturate_build_no_resolution(corpus_file, tmp_path):
    # z4 divides no lead monomial of rnc 4 or of its first two quadrics, and
    # z3 none of the twisted cubic V: the pre-check, the oracle sweep, its
    # full-pair witness cell and `saturate` need no minimal resolution
    V = rational_normal_curve(4).ideal
    path = tmp_path / "rnc4.ideal"
    path.write_text(render_source(V.ring, {"V": V, "W2": Ideal(V.ring, V.generators[:2])}))
    clear_caches()
    assert run(["pgshell", str(path), "V", "W2", "--method", "oracle"])[0] == EXIT_NEGATIVE
    assert run(["saturate", corpus_file, "V"])[0] == EXIT_OK
    assert minimal_resolution.cache_info().misses == 0


def test_precheck_reads_the_cut_of_the_pair(tmp_path):
    # z4 is regular on rnc 4, z3 and z4 on its first two quadrics: the
    # pre-check reads the bases of V and W2 and cuts nothing, and the
    # oracle cuts the pair (c = 1), so the run builds the bases of V, W2
    # and their two cut ideals, and none of W2 cut by two variables
    V = rational_normal_curve(4).ideal
    path = tmp_path / "rnc4.ideal"
    path.write_text(render_source(V.ring, {"V": V, "W2": Ideal(V.ring, V.generators[:2])}))
    clear_caches()
    assert run(["pgshell", str(path), "V", "W2", "--method", "oracle"])[0] == EXIT_NEGATIVE
    assert groebner_basis.cache_info().misses == 4


def test_precheck_cuts_nothing_and_resolves_nothing(tmp_path):
    # N = z4 * (a quadric of rnc 4): z4 divides its lead, so the pair has
    # nothing to cut (c = 0), but z3 divides no lead of N and z4 none of
    # V; so the pre-check needs no resolution, and the oracle only the
    # bases of V and N
    V = rational_normal_curve(4).ideal
    N = Ideal(V.ring, [V.generators[0] * Polynomial.variable(V.ring, 4)])
    path = tmp_path / "rnc4.ideal"
    path.write_text(render_source(V.ring, {"V": V, "N": N}))
    clear_caches()
    code, payload = run_json(["pgshell", str(path), "V", "N", "--method", "oracle"])
    assert (code, payload["warnings"]) == (EXIT_NEGATIVE, [])
    assert groebner_basis.cache_info().misses == 2
    assert minimal_resolution.cache_info().misses == 0


def test_invariants_human_json_agreement(corpus_file):
    code, payload = run_json(["invariants", corpus_file, "V"])
    assert code == EXIT_OK
    _, human = run(["invariants", corpus_file, "V"])
    for key, value in payload["invariants"].items():
        if key == "num_min_gens":
            continue
        assert f"{key} = {value}" in human


def test_gb_command(corpus_file):
    code, payload = run_json(["gb", corpus_file, "V"])
    assert code == EXIT_OK
    assert len(payload["basis"]) == 3
    assert payload["order"] == "grevlex"


def test_criteria_command(corpus_file):
    code, payload = run_json(["criteria", corpus_file, "V", "W"])
    assert code == EXIT_OK
    assert payload["observed"] == "pg-shell"
    assert payload["all_consistent"] is True
    names = {c["criterion"] for c in payload["criteria"]}
    assert "hypersurface-minimal-generator" in names


def test_saturate_command(corpus_file):
    code, payload = run_json(["saturate", corpus_file, "Unsat"])
    assert code == EXIT_OK
    assert payload["changed"] is True
    code2, payload2 = run_json(["saturate", corpus_file, "V"])
    assert payload2["changed"] is False


def test_hilbert_command(corpus_file):
    code, payload = run_json(["hilbert", corpus_file, "V", "--max", "8"])
    assert code == EXIT_OK
    assert payload["values"]["3"] == 10
    assert payload["polynomial"] == ["1", "3"]


def test_hilbert_small_max(corpus_file, tmp_path, capsys):
    # the exact series answers once m_max reaches the stabilization degree
    code, payload = run_json(["hilbert", corpus_file, "V", "--max", "4"])
    assert code == EXIT_OK
    assert payload["values"] == {"0": 1, "1": 4, "2": 7, "3": 10, "4": 13}
    assert payload["stabilization_degree"] == 0
    from pgshell import points_on_rational_normal_curve, render_source

    entry = points_on_rational_normal_curve(3, 5)
    path = tmp_path / "points.ideal"
    path.write_text(render_source(entry.ring, {"P": entry.ideal}))
    assert run(["hilbert", str(path), "P", "--max", "1"])[0] == EXIT_INPUT
    assert "raise m_max to at least 2" in capsys.readouterr().err
    assert run(["hilbert", str(path), "P", "--max", "2"])[0] == EXIT_OK


def test_hilbert_negative_max_exit_2(corpus_file, weighted_file, capsys):
    # a negative m_max is refused the same way on standard and weighted rings
    for path, name in ((corpus_file, "V"), (weighted_file, "V")):
        code, text = run(["hilbert", path, name, "--max", "-1"])
        assert (code, text) == (EXIT_INPUT, "")
        assert "error: m_max must be at least 0, got -1" in capsys.readouterr().err


def test_unknown_flag_reported_with_the_owning_usage(corpus_file, capsys):
    # after the command: that command's usage; before it: the top-level usage
    assert run(["gb", corpus_file, "V", "--bogus"])[0] == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: pgshell gb ")
    assert "pgshell gb: error: unrecognized arguments: --bogus" in err
    assert run(["--bogus", "gb", corpus_file, "V"])[0] == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("usage: pgshell [-h]")
    assert "pgshell: error: unrecognized arguments: --bogus" in err


def test_catalog_ci_degree_below_one_exit_2(capsys):
    for bad in ("0", "-1"):
        assert run(["catalog", "ci", "2", bad]) == (EXIT_INPUT, "")
        assert f"form degrees must be at least 1, got {bad}" in capsys.readouterr().err


def test_catalog_points_rnc_parameters_below_one_exit_2(capsys):
    for params, bad in ((("0", "1"), "curve degree"), (("3", "0"), "point count"),
                        (("0", "3"), "curve degree")):
        assert run(["catalog", "points-rnc", *params]) == (EXIT_INPUT, "")
        assert f"error: {bad} must be at least 1, got 0" in capsys.readouterr().err


def test_catalog_hyperplane_fewer_than_two_variables_exit_2(capsys):
    for bad in ("0", "1"):
        assert run(["catalog", "hyperplane", bad]) == (EXIT_INPUT, "")
        assert f"error: variable count must be at least 2, got {bad}" in capsys.readouterr().err


def test_zz_characteristic_not_an_odd_prime_exit_2(tmp_path, capsys):
    # ZZ/0 is not QQ: it fails like any other ZZ/p that names no field
    path = tmp_path / "zz.ideal"
    for bad in ("0", "2"):
        path.write_text(f"ring S = ZZ/{bad}[x,y];\nideal I = x;\n")
        assert run(["gb", str(path), "I", "--json"]) == (EXIT_INPUT, "")
        err = capsys.readouterr().err
        assert f"1:13: characteristic must be an odd prime < 2^31, got {bad}" in err


def test_non_ascii_digit_exit_2(tmp_path, capsys):
    # a superscript two is a digit to str.isdigit, but no INT: a positioned input error
    path = tmp_path / "superscript.ideal"
    path.write_text("ring S = QQ[x,y];\nideal I = x^\u00b2;\n", encoding="utf-8")
    assert run(["gb", str(path), "I"]) == (EXIT_INPUT, "")
    assert "2:13: unexpected character '\u00b2'" in capsys.readouterr().err


def test_overlong_coefficient_exit_2(tmp_path, capsys):
    # past the interpreter's int-conversion limit: an input error, not exit 3
    path = tmp_path / "long.ideal"
    path.write_text(f"ring S = QQ[x,y];\nideal I = {'1' * 5000}*x;\n", encoding="utf-8")
    assert run(["gb", str(path), "I"]) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == "error: 2:11: integer literal too long (5000 digits)\n"


def test_non_utf8_file_exit_2(tmp_path, capsys):
    # a file that does not decode is an input error, not a crash (exit 1 is a verdict)
    path = tmp_path / "utf16.ideal"
    path.write_bytes("ring S = QQ[x];\nideal I = x;\n".encode("utf-16"))
    assert run(["gb", str(path), "I"]) == (EXIT_INPUT, "")
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("argv", [
    ["pgshell", "J", "I", "--json"],
    ["betti", "I"],
    ["hilbert", "I", "--max", "2"],
])
def test_unexpected_error_exit_3(tmp_path, capsys, monkeypatch, argv):
    # an exception that is no EngineError deep in the engine is a crash,
    # which must not read as a verdict (exit 1); every command below
    # reaches the Buchberger pass through `groebner_basis`
    import pgshell.groebner

    def crash(*args, **kwargs):
        raise OverflowError("the engine crashed")

    path = tmp_path / "crash.ideal"
    path.write_text("ring S = QQ[x,y,z]; ideal I = x^2*y; ideal J = x*y;")
    clear_caches()
    monkeypatch.setattr(pgshell.groebner, "module_groebner", crash)
    assert run([argv[0], str(path), *argv[1:]]) == (EXIT_INTERNAL, "")
    assert capsys.readouterr().err == "internal error: OverflowError: the engine crashed\n"


@pytest.mark.parametrize("source, where", [
    ("ring S = QQ[x,y,z]; ideal I = x^99999999999999999999*y; ideal J = x*y;",
     "1:33: the exponent of x exceeds 2^31 - 1"),
    ("ring S = QQ[x:99999999999999999999,y]; ideal I = x*y, y^2;",
     "1:15: a weight must be from 1 to 2^31 - 1"),
], ids=["exponent", "weight"])
def test_weight_and_exponent_bound_exit_2(tmp_path, capsys, source, where):
    # past 2^31 - 1 a weight or exponent is a positioned input error, not a crash
    path = tmp_path / "overflow.ideal"
    path.write_text(source)
    assert run(["betti", str(path), "I"]) == (EXIT_INPUT, "")
    assert capsys.readouterr().err == f"error: {where}\n"


def test_hilbert_deep_staircase(tmp_path, capsys):
    gens = "x^1200, x^1199*y, y^1200"
    weighted = tmp_path / "weighted.ideal"
    weighted.write_text(f"ring S = QQ[x:1,y:2];\nideal M = {gens};\n")
    code, payload = run_json(["hilbert", str(weighted), "M", "--max", "12"])
    assert code == EXIT_OK
    assert payload["values"] == {str(m): m // 2 + 1 for m in range(13)}
    # standard grading: S/M is Artinian with socle in degree 2397, so its
    # Hilbert function meets the zero polynomial only from degree 2398
    standard = tmp_path / "standard.ideal"
    standard.write_text(f"ring S = QQ[x,y];\nideal M = {gens};\n")
    assert run(["hilbert", str(standard), "M", "--max", "12"])[0] == EXIT_INPUT
    assert "raise m_max to at least 2398" in capsys.readouterr().err
    code, payload = run_json(["hilbert", str(standard), "M", "--max", "2398"])
    assert code == EXIT_OK
    assert payload["values"]["2397"] == 1 and payload["values"]["2398"] == 0
    assert payload["stabilization_degree"] == 2398


def test_catalog_command_round_trips():
    code, payload = run_json(["catalog", "rnc", "4"])
    assert code == EXIT_OK
    from pgshell import parse_source

    ps = parse_source(payload["source"])
    assert len(ps.ideals["I"].generators) == 6


TENSOR_SRC = """\
ring S = QQ[z0,z1,z2,z3,z4,z5];
ideal Y = z0*z2 - z1^2, z1*z3 - z2^2, z0*z3 - z1*z2;
ideal Z = z4, z5;
"""


def test_tensor_res_command(tmp_path):
    path = tmp_path / "p5.ideal"
    path.write_text(TENSOR_SRC)
    code, payload = run_json(["tensor-res", str(path), "Y", "Z"])
    assert code == EXIT_OK
    assert payload["verify_ok"] and payload["convolution_matches"]
    assert payload["shell_Y"] == "pg-shell" and payload["shell_Z"] == "pg-shell"


def test_tensor_res_precondition_failure_exit_2(tmp_path):
    # codimension not additive: the same quadric twice
    src = (
        "ring S = QQ[z0,z1,z2,z3];\n"
        "ideal A = z0*z2 - z1^2;\n"
        "ideal B = z0*z2 - z1^2;\n"
    )
    path = tmp_path / "dup.ideal"
    path.write_text(src)
    code, _ = run(["tensor-res", str(path), "A", "B"])
    assert code == EXIT_INPUT


def test_criteria_on_negative_pair(corpus_file):
    code, payload = run_json(["criteria", corpus_file, "V", "Wbad"])
    assert code == EXIT_OK  # criteria reports; only pgshell maps verdicts to exit 1
    assert payload["observed"] == "not-pg-shell"
    assert payload["all_consistent"] is True


def test_input_errors_exit_2(corpus_file, tmp_path):
    code, _ = run(["gb", corpus_file, "MISSING"])
    assert code == EXIT_INPUT
    bad = tmp_path / "bad.ideal"
    bad.write_text("ideal I = z0 +")
    code, _ = run(["gb", str(bad), "I"])
    assert code == EXIT_INPUT
    code, _ = run(["gb", str(tmp_path / "nope.ideal"), "I"])
    assert code == EXIT_INPUT
    # containment failure is an input error
    code, _ = run(["pgshell", corpus_file, "W", "V"])
    assert code == EXIT_INPUT


@pytest.fixture(scope="module")
def gf_corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-gf") / "corpus.ideal"
    path.write_text(CORPUS_SRC.replace("QQ[", "ZZ/32003["))
    return str(path)


def test_field_check_flag(corpus_file, gf_corpus_file):
    for path in (corpus_file, gf_corpus_file):
        code, text = run(["gb", path, "V", "--field-check"])
        assert code == EXIT_OK
        assert "field check: ok" in text


@pytest.mark.parametrize("field", ["qq", "gf"])
def test_field_check_flag_catches_a_broken_row_operation(field, corpus_file, gf_corpus_file,
                                                         monkeypatch, capsys):
    path = gf_corpus_file if field == "gf" else corpus_file
    monkeypatch.setattr("pgshell.fields.clear_at", clear_at_with_sign_error)
    code, text = run(["gb", path, "V", "--field-check"])
    err = capsys.readouterr().err.splitlines()
    assert code == EXIT_INTERNAL and text == ""
    assert len(err) == 1 and err[0].startswith(
        "internal check failure: engine arithmetic violation"), err


def test_byte_identical_invocations(corpus_file):
    a = run(["invariants", corpus_file, "V"])
    b = run(["invariants", corpus_file, "V"])
    assert a == b
    c = run_json(["pgshell", corpus_file, "V", "W"])
    d = run_json(["pgshell", corpus_file, "V", "W"])
    assert c == d


def test_strict_flag(tmp_path):
    src = "ring S = QQ[x,y];\nideal I = x + y^2;\n"
    path = tmp_path / "inhom.ideal"
    path.write_text(src)
    code, _ = run(["gb", str(path), "I", "--strict"])
    assert code == EXIT_INPUT
    code, _ = run(["gb", str(path), "I"])
    assert code == EXIT_OK


def test_saturate_inhomogeneous_exit_2(tmp_path):
    path = tmp_path / "inhom.ideal"
    path.write_text("ring S = QQ[z0,z1,z2];\nideal J = z0 - z1^2;\n")
    code, text = run(["saturate", str(path), "J"])
    assert code == EXIT_INPUT
    assert text == ""


@pytest.mark.parametrize("argv, expected", [
    (["pgshell", "V", "Wbad", "--json"], EXIT_NEGATIVE),
    (["betti", "V"], EXIT_OK),
])
def test_closed_stdout_keeps_the_exit_code(corpus_file, argv, expected):
    # stdout is a pipe whose read end is already closed, so the first
    # write of the output fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pgshell.cli", argv[0], corpus_file, *argv[1:]],
            stdout=write_end, stderr=subprocess.PIPE, env=SRC_ENV, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == expected


def test_main_freezes_after_the_command_and_keeps_its_code(corpus_file, monkeypatch, capsys):
    calls = []
    real = cli_module.run_command

    def recorded(argv):
        calls.append("run")
        return real(argv)

    monkeypatch.setattr(sys, "argv", ["pgshell", "pgshell", corpus_file, "V", "Wbad"])
    monkeypatch.setattr(cli_module, "run_command", recorded)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(sys, "exit", lambda code: calls.append(("exit", code)))
    cli_module.main()
    assert calls == ["run", "freeze", ("exit", EXIT_NEGATIVE)]
    assert capsys.readouterr().out.startswith("verdict: not-pg-shell")


def test_run_command_never_freezes(corpus_file):
    # library callers and these tests run many commands in one process
    before = gc.get_freeze_count()
    for argv in (["pgshell", corpus_file, "V", "Wbad"], ["betti", corpus_file, "V"],
                 ["pgshell", corpus_file, "V", "W", "--method", "oracle"]):
        run(argv)
    assert gc.get_freeze_count() == before


def test_atexit_handlers_run_after_main(corpus_file):
    code = (
        "import atexit, sys\n"
        "from pgshell.cli import main\n"
        "atexit.register(print, 'atexit handler ran')\n"
        "sys.argv = ['pgshell', 'pgshell', sys.argv[1], 'V', 'Wbad']\n"
        "main()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, corpus_file], capture_output=True,
                          text=True, env=SRC_ENV, timeout=60)
    assert proc.returncode == EXIT_NEGATIVE, proc.stderr
    assert proc.stdout.startswith("verdict: not-pg-shell")
    assert proc.stdout.endswith("\natexit handler ran\n")
