"""Exact graded commutative algebra over QQ or GF(p).

Groebner bases, Hilbert functions, saturation, graded minimal free
resolutions with Betti tables, a resolution-free Koszul homology oracle
for Tor, and the pregeometric-shell predicate with its criteria suite.

`import pgshell` loads no engine module: the first access to a public
name imports the module that defines it (PEP 562), so a program pays
only for the modules it uses.
"""

from importlib import import_module

# module -> the public names it defines
_EXPORTS = {
    "catalog": (
        "CatalogEntry",
        "SplitMix64",
        "complete_intersection",
        "determinantal_minors",
        "points_on_rational_normal_curve",
        "rational_normal_curve",
        "scroll_surface",
        "twisted_cubic_cone_p5",
        "veronese_surface",
    ),
    "criteria": (
        "InvariantRecord",
        "ci_chain_report",
        "criteria_suite",
        "invariants",
        "tensor_resolution",
    ),
    "errors": (
        "CatalogError",
        "ContainmentError",
        "EngineError",
        "InternalCheckError",
        "NotHomogeneousError",
        "PreconditionError",
        "RingMismatchError",
        "SourceError",
        "TailNotStabilizedError",
        "WeightedRingError",
    ),
    "fields": ("Field", "QQ", "field_self_check"),
    "groebner": (
        "GroebnerBasis",
        "groebner_basis",
        "is_minimal_generator",
        "is_saturated",
        "membership",
        "minimal_generators",
        "normal_form",
        "same_ideal",
    ),
    "hilbert": ("HilbertData", "HilbertSeries", "artinian_reduction", "hilbert_function",
                "lead_term_series"),
    "koszul": ("koszul_tor", "tor_comparison"),
    "memo": ("clear_caches",),
    "modules": ("GradedFreeModule", "GradedMatrix"),
    "parser": ("parse_source", "render_ideal", "render_ring", "render_source"),
    "poly": ("Ideal", "Polynomial", "linear_substitute", "substitute_ideal"),
    "resolution": (
        "BettiTable",
        "FreeResolution",
        "betti",
        "betti_table",
        "minimal_resolution",
        "regularity_and_depth",
        "syzygies",
        "verify_complex",
    ),
    "rings": ("PolyRing", "standard_ring"),
    "saturation": ("ideal_intersection", "ideal_quotient_saturation", "saturate_irrelevant"),
    "shell": (
        "ChainMap",
        "ShellReport",
        "check_containment",
        "lift_chain_map",
        "pgshell_check",
        "pgshell_check_oracle",
        "pgshell_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # any other name, a submodule among them, is not found here, so
    # `from pgshell import shell` falls back to importing pgshell.shell
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
