"""What a process loads: `import pgshell` compiles no engine module, each
CLI command imports only the modules it runs, and the lazy package keeps
every public name of the eager one."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pgshell
from pgshell import catalog, cli

from test_cli import CORPUS_SRC

SRC = str(Path(__file__).resolve().parent.parent / "src")

# every name `from pgshell import ...` gave when the package imported its
# modules eagerly
PUBLIC_NAMES = frozenset({
    "BettiTable", "CatalogEntry", "CatalogError", "ChainMap", "ContainmentError",
    "EngineError", "Field", "FreeResolution", "GradedFreeModule", "GradedMatrix",
    "GroebnerBasis", "HilbertData", "HilbertSeries", "Ideal", "InternalCheckError",
    "InvariantRecord", "NotHomogeneousError", "PolyRing", "Polynomial",
    "PreconditionError", "QQ", "RingMismatchError", "ShellReport", "SourceError",
    "SplitMix64", "TailNotStabilizedError", "WeightedRingError", "artinian_reduction",
    "betti", "betti_table", "check_containment", "ci_chain_report", "clear_caches",
    "complete_intersection", "criteria_suite", "determinantal_minors",
    "field_self_check", "groebner_basis", "hilbert_function", "ideal_intersection",
    "ideal_quotient_saturation", "invariants", "is_minimal_generator", "is_saturated",
    "koszul_tor", "lead_term_series", "lift_chain_map", "linear_substitute",
    "membership", "minimal_generators", "minimal_resolution", "normal_form",
    "parse_source", "pgshell_check",
    "pgshell_check_oracle", "pgshell_report", "points_on_rational_normal_curve",
    "rational_normal_curve", "regularity_and_depth", "render_ideal", "render_ring",
    "render_source", "same_ideal", "saturate_irrelevant", "scroll_surface",
    "standard_ring", "substitute_ideal", "syzygies", "tensor_resolution",
    "tor_comparison", "twisted_cubic_cone_p5", "verify_complex", "veronese_surface",
})

LOADED = "sorted(n[8:] for n in sys.modules if n.startswith('pgshell.'))"


def fresh(code, *argv):
    """The last stdout line of `code` run in a new interpreter, as JSON."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("loading") / "corpus.ideal"
    path.write_text(CORPUS_SRC)
    return str(path)


def test_import_pgshell_loads_no_module():
    assert fresh(f"import json, sys, pgshell; print(json.dumps({LOADED}))") == []


# the standard modules that reading a command line with argparse, or
# printing JSON, loads; a well-formed human-output command loads none
PARSING = {"argparse", "gettext", "locale", "json"}

# (command, modules it must load, modules it must not load): pgshell's by
# their names in the package, the standard library's by their own
FOOTPRINTS = [
    (["gb", "V"], {"groebner"},
     {"resolution", "hilbert", "koszul", "linalg", "shell", "criteria", "saturation",
      "catalog", *PARSING}),
    # the field self-check runs the engines' one row operation, which
    # lives in `fields`, so it loads no elimination module
    (["gb", "V", "--field-check"], {"groebner"},
     {"linalg", "resolution", "koszul", *PARSING}),
    (["gb", "V", "--json"], {"groebner", "json"}, {"resolution", "argparse", "gettext", "locale"}),
    (["betti", "V"], {"resolution"},
     {"koszul", "linalg", "shell", "criteria", "saturation", "catalog", *PARSING}),
    (["pgshell", "V", "W"], {"shell"}, {"criteria", "saturation", "catalog", *PARSING}),
    (["pgshell", "V", "W", "--method", "oracle"], {"shell"},
     {"resolution", "modules", "criteria", "saturation", "catalog", *PARSING}),
    (["saturate", "V"], {"saturation"},
     {"resolution", "hilbert", "modules", "koszul", *PARSING}),
    (["invariants", "V"], {"criteria"},
     {"shell", "koszul", "linalg", "saturation", "catalog", *PARSING}),
    (["criteria", "V", "W"], {"criteria"}, {"saturation", "catalog", *PARSING}),
]


def loaded_by(argv):
    """The exit code of `argv` run in a new interpreter, and the modules it
    loaded, listed before the report's own `json` import."""
    code = (
        "import io, sys\n"
        "from pgshell.cli import run_command\n"
        "code = run_command(sys.argv[1:], out=io.StringIO())\n"
        "loaded = [n[8:] if n.startswith('pgshell.') else n for n in sys.modules]\n"
        "import json\n"
        "print(json.dumps([code, loaded]))\n"
    )
    exit_code, loaded = fresh(code, *argv)
    return exit_code, set(loaded)


@pytest.mark.parametrize("argv, loads, skips", FOOTPRINTS,
                         ids=["-".join(argv) for argv, _, _ in FOOTPRINTS])
def test_command_loads_only_its_modules(corpus_file, argv, loads, skips):
    exit_code, loaded = loaded_by([argv[0], corpus_file, *argv[1:]])
    assert exit_code == cli.EXIT_OK, argv
    assert loads <= loaded, loaded
    assert not skips & loaded, loaded


@pytest.mark.parametrize("argv, expected", [
    (["gb", "--help"], cli.EXIT_OK),
    (["gb", "FILE", "V", "--bogus"], cli.EXIT_INPUT),
    (["gb", "FILE", "V", "--seed=5"], cli.EXIT_OK),
])
def test_help_and_declined_command_lines_load_argparse(corpus_file, argv, expected):
    exit_code, loaded = loaded_by([corpus_file if a == "FILE" else a for a in argv])
    assert exit_code == expected
    assert "argparse" in loaded


def test_points_catalog_loads_no_resolution():
    # the points catalog checks its ideal on a lead-term series
    code = (
        "import io, json, sys\n"
        "from pgshell.cli import run_command\n"
        "code = run_command(['catalog', 'points-rnc', '3', '5'], out=io.StringIO())\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    )
    exit_code, loaded = fresh(code)
    assert exit_code == cli.EXIT_OK
    assert {"catalog", "hilbert"} <= set(loaded), loaded
    assert not {"resolution", "modules", "koszul"} & set(loaded), loaded


def test_help_compiles_no_catalog():
    code = (
        "import contextlib, io, json, sys\n"
        "from pgshell.cli import run_command\n"
        "with contextlib.redirect_stdout(io.StringIO()) as help_text:\n"
        "    code = run_command(['--help'])\n"
        f"print(json.dumps([code, 'catalog' in help_text.getvalue(), {LOADED}]))\n"
    )
    exit_code, mentions_catalog, loaded = fresh(code)
    assert exit_code == cli.EXIT_OK and mentions_catalog
    assert "catalog" not in loaded, loaded


def test_cli_catalog_names_are_the_catalogs():
    assert cli.CATALOG_NAMES == catalog.CATALOG_NAMES


def test_package_surface():
    assert set(pgshell.__all__) == PUBLIC_NAMES
    assert set(dir(pgshell)) >= PUBLIC_NAMES
    for name in pgshell.__all__:
        obj = getattr(pgshell, name)
        # the defining module's own object, not a copy or a re-export
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("pgshell."), name
        assert getattr(module, name) is obj, name
    with pytest.raises(AttributeError):
        pgshell.no_such_name
    with pytest.raises(ImportError):
        from pgshell import no_such_name  # noqa: F401


def test_from_pgshell_import_gives_submodules():
    code = (
        "import json\n"
        "from pgshell import catalog, cli, criteria, shell\n"
        "print(json.dumps([m.__name__ for m in (catalog, cli, criteria, shell)]))\n"
    )
    assert fresh(code) == ["pgshell.catalog", "pgshell.cli", "pgshell.criteria",
                           "pgshell.shell"]
