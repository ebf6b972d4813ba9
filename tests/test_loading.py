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


# (command, modules it must load, modules it must not load)
FOOTPRINTS = [
    (["gb", "V"], {"groebner"},
     {"resolution", "hilbert", "koszul", "linalg", "shell", "criteria", "saturation",
      "catalog"}),
    # the field self-check runs the engines' one row operation, which
    # lives in `fields`, so it loads no elimination module
    (["gb", "V", "--field-check"], {"groebner"}, {"linalg", "resolution", "koszul"}),
    (["betti", "V"], {"resolution"},
     {"koszul", "linalg", "shell", "criteria", "saturation", "catalog"}),
    (["pgshell", "V", "W"], {"shell"}, {"criteria", "saturation", "catalog"}),
    (["pgshell", "V", "W", "--method", "oracle"], {"shell"},
     {"resolution", "modules", "criteria", "saturation", "catalog"}),
    (["saturate", "V"], {"saturation"}, {"resolution", "hilbert", "modules", "koszul"}),
    (["invariants", "V"], {"criteria"},
     {"shell", "koszul", "linalg", "saturation", "catalog"}),
    (["criteria", "V", "W"], {"criteria"}, {"saturation", "catalog"}),
]


@pytest.mark.parametrize("argv, loads, skips", FOOTPRINTS,
                         ids=["-".join(argv) for argv, _, _ in FOOTPRINTS])
def test_command_loads_only_its_modules(corpus_file, argv, loads, skips):
    code = (
        "import io, json, sys\n"
        "from pgshell.cli import run_command\n"
        "code = run_command(sys.argv[1:], out=io.StringIO())\n"
        f"print(json.dumps([code, {LOADED}]))\n"
    )
    exit_code, loaded = fresh(code, argv[0], corpus_file, *argv[1:])
    assert exit_code == cli.EXIT_OK, argv
    assert loads <= set(loaded), loaded
    assert not skips & set(loaded), loaded


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
