"""Command-line interface.

Every command builds one JSON-able payload; the human renderer and
--json both read the same payload, so the two outputs agree field for
field.  Exit codes: 0 success, 1 negative shell verdict, 2 input error,
3 internal-check failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import CATALOG_NAMES, build_catalog_entry
from .errors import (
    CatalogError,
    ContainmentError,
    EngineError,
    InternalCheckError,
    PreconditionError,
    SourceError,
    TailNotStabilizedError,
)
from .fields import field_self_check
from .groebner import groebner_basis
from .hilbert import hilbert_function
from .parser import parse_source, render_ideal, render_source
from .poly import Ideal
from .resolution import BettiTable, betti, is_saturated, minimal_resolution
from .saturation import saturate_irrelevant
from .shell import (
    criteria_suite,
    invariants,
    pgshell_report,
    tensor_resolution,
)

SCHEMA_VERSION = "report.v1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def render_betti(bt: BettiTable) -> str:
    """Macaulay-style grid: rows are m - q, columns are q, plus totals."""
    if not bt.entries:
        return "(zero module)"
    pd = bt.max_q()
    reg = bt.regularity()
    cols = list(range(pd + 1))
    rows = list(range(reg + 1))
    cells = {}
    for q in cols:
        cells[("total", q)] = str(bt.total(q)) if bt.total(q) else "."
        for r in rows:
            v = bt.get(q, q + r)
            cells[(r, q)] = str(v) if v else "."
    width = max(2, max(len(v) for v in cells.values()), max(len(str(q)) for q in cols))
    label_w = len("total:")
    lines = [" " * label_w + " " + " ".join(str(q).rjust(width) for q in cols)]
    lines.append("total:".rjust(label_w) + " " + " ".join(
        cells[("total", q)].rjust(width) for q in cols
    ))
    for r in rows:
        lines.append(f"{r}:".rjust(label_w) + " " + " ".join(
            cells[(r, q)].rjust(width) for q in cols
        ))
    return "\n".join(lines)


def _load(path: str, strict: bool):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SourceError(f"cannot read {path}: {e.strerror}")
    return parse_source(text, strict=strict)


def _pick(parsed, name: str) -> Ideal:
    if name not in parsed.ideals:
        known = ", ".join(parsed.ideals)
        raise SourceError(f"no ideal named {name!r} in the file (have: {known})")
    return parsed.ideals[name]


def _field_mode(ring) -> str:
    if ring.field.characteristic == 0:
        return "exact"
    return f"probabilistic (prime field {ring.field.characteristic})"


def _saturation_warnings(named_ideals) -> list:
    out = []
    for name, ideal in named_ideals:
        if not is_saturated(ideal):
            out.append(
                f"ideal {name} is not saturated at the irrelevant ideal; "
                f"the verdict refers to the ideal as given (run `saturate` to fix)"
            )
    return out


def _shell_payload(report, v_name, w_name, warnings, field_mode):
    return {
        "schema": SCHEMA_VERSION,
        "command": "pgshell",
        "field_mode": field_mode,
        "V": v_name,
        "W": w_name,
        "method": report.method,
        "verdict": report.verdict,
        "table": report.table_json(),
        "witness": report.witness,
        "warnings": warnings,
    }


def _print_human_shell(payload, out):
    for w in payload["warnings"]:
        print(f"warning: {w}", file=out)
    print(f"verdict: {payload['verdict']}   (method: {payload['method']}, arithmetic: {payload['field_mode']})", file=out)
    if payload["table"]:
        print("  q  m   tor_W  tor_V  injective", file=out)
        for cell in payload["table"]:
            print(
                f"  {cell['q']:<2} {cell['m']:<3} {cell['tor_W']:<6} "
                f"{cell['tor_V']:<6} {'yes' if cell['injective'] else 'NO'}",
                file=out,
            )
    else:
        print("  (no source Tor in range q >= 1: trivial shell)", file=out)
    if payload["witness"]:
        wit = payload["witness"]
        print(
            f"witness: kernel class of mu_{wit['q']} in degree {wit['m']}: {wit['cycle']}",
            file=out,
        )


def run_command(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="pgshell",
        description="Exact graded commutative algebra: resolutions, Betti tables, shell checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="ideal-description source file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--strict", action="store_true", help="inhomogeneous generators become errors")
        p.add_argument("--field-check", action="store_true", help="self-check field axioms first")
        p.add_argument("--seed", type=int, default=1, help="seed for randomized checks/constructions")

    p = sub.add_parser("gb", help="reduced Groebner basis")
    common(p)
    p.add_argument("ideal")

    p = sub.add_parser("betti", help="Betti table of the minimal free resolution")
    common(p)
    p.add_argument("ideal")

    p = sub.add_parser("invariants", help="dimension, degree, depth, regularity, flags")
    common(p)
    p.add_argument("ideal")

    p = sub.add_parser("pgshell", help="decide whether W is a pregeometric shell of V")
    common(p)
    p.add_argument("V")
    p.add_argument("W")
    p.add_argument("--method", choices=("chain", "oracle", "both"), default="chain")

    p = sub.add_parser("criteria", help="run the consistency criteria suite on (V, W)")
    common(p)
    p.add_argument("V")
    p.add_argument("W")

    p = sub.add_parser("tensor-res", help="tensor resolution of two ACM ideals")
    common(p)
    p.add_argument("Y")
    p.add_argument("Z")

    p = sub.add_parser("saturate", help="saturate an ideal at the irrelevant ideal")
    common(p)
    p.add_argument("ideal")

    p = sub.add_parser("catalog", help=f"emit a catalog ideal ({', '.join(CATALOG_NAMES)})")
    common(p, needs_file=False)
    p.add_argument("name")
    p.add_argument("params", nargs="*")

    p = sub.add_parser("hilbert", help="Hilbert function and polynomial")
    common(p)
    p.add_argument("ideal")
    p.add_argument("--max", type=int, required=True, dest="m_max")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK

    try:
        return _dispatch(args, out)
    except (SourceError, CatalogError, ContainmentError, PreconditionError,
            TailNotStabilizedError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except InternalCheckError as e:
        print(f"internal check failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def _emit(payload, args, out, human):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        human(payload, out)


def _dispatch(args, out) -> int:
    cmd = args.command

    if cmd == "catalog":
        entry = build_catalog_entry(args.name, args.params, seed=args.seed)
        source = render_source(entry.ring, {"I": entry.ideal})
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "catalog",
            "name": entry.name,
            "ring": repr(entry.ring),
            "source": source,
            "notes": entry.notes,
        }

        def human(pl, out):
            print(f"// catalog entry: {pl['name']}", file=out)
            if pl["notes"]:
                print(f"// {pl['notes']}", file=out)
            print(pl["source"], end="", file=out)

        _emit(payload, args, out, human)
        return EXIT_OK

    parsed = _load(args.file, args.strict)
    if args.field_check:
        field_self_check(parsed.ring.field, samples=1000, seed=args.seed)
        if not args.json:
            print("field check: ok", file=out)
    for w in parsed.warnings:
        print(f"warning: {w}", file=sys.stderr)

    if cmd == "gb":
        ideal = _pick(parsed, args.ideal)
        gb = groebner_basis(ideal)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "gb",
            "ideal": args.ideal,
            "ring": repr(parsed.ring),
            "field_mode": _field_mode(parsed.ring),
            "order": gb.order,
            "basis": [str(g) for g in gb.elements],
        }

        def human(pl, out):
            print(f"// reduced groebner basis ({pl['order']}) of {pl['ideal']}", file=out)
            print(render_ideal(pl["ideal"] + "_gb",
                               Ideal(parsed.ring, gb.elements, allow_inhomogeneous=True)),
                  file=out)

        _emit(payload, args, out, human)
        return EXIT_OK

    if cmd == "betti":
        ideal = _pick(parsed, args.ideal)
        bt = betti(minimal_resolution(ideal))
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "betti",
            "ideal": args.ideal,
            "ring": repr(parsed.ring),
            "field_mode": _field_mode(parsed.ring),
            "betti": bt.to_json(),
        }

        def human(pl, out):
            print(f"// betti table of S/{pl['ideal']}", file=out)
            print(render_betti(bt), file=out)

        _emit(payload, args, out, human)
        return EXIT_OK

    if cmd == "invariants":
        ideal = _pick(parsed, args.ideal)
        rec = invariants(ideal)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "invariants",
            "ideal": args.ideal,
            "ring": repr(parsed.ring),
            "invariants": rec.to_json(),
            "field_mode": _field_mode(parsed.ring),
        }

        def human(pl, out):
            print(f"// invariants of {pl['ideal']}  [{pl['field_mode']}]", file=out)
            inv = pl["invariants"]
            for key in ("dim", "codim", "degree", "depth", "pd", "reg_R", "reg_I",
                        "delta_genus", "is_complete_intersection", "is_2linear",
                        "is_ACM", "nondegenerate", "delta_lower_bound_only"):
                print(f"  {key} = {inv[key]}", file=out)
            print(f"  num_min_gens = {inv['num_min_gens']}", file=out)

        _emit(payload, args, out, human)
        return EXIT_OK

    if cmd == "pgshell":
        v = _pick(parsed, args.V)
        w = _pick(parsed, args.W)
        warnings = _saturation_warnings([(args.V, v), (args.W, w)])
        report = pgshell_report(v, w, method=args.method)
        payload = _shell_payload(report, args.V, args.W, warnings,
                                  _field_mode(parsed.ring))
        _emit(payload, args, out, _print_human_shell)
        return EXIT_OK if report.is_shell else EXIT_NEGATIVE

    if cmd == "criteria":
        v = _pick(parsed, args.V)
        w = _pick(parsed, args.W)
        warnings = _saturation_warnings([(args.V, v), (args.W, w)])
        suite = criteria_suite(v, w)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "criteria",
            "field_mode": _field_mode(parsed.ring),
            "V": args.V,
            "W": args.W,
            "observed": suite["observed"],
            "all_consistent": suite["all_consistent"],
            "criteria": suite["criteria"],
            "warnings": warnings,
        }

        def human(pl, out):
            for wrn in pl["warnings"]:
                print(f"warning: {wrn}", file=out)
            print(f"direct verdict: {pl['observed']}", file=out)
            for r in pl["criteria"]:
                if r["applicable"]:
                    status = "consistent" if r["consistent"] else "INCONSISTENT"
                    print(f"  [{status}] {r['criterion']}: predicts {r['predicted']}"
                          + (f" ({r['detail']})" if r["detail"] else ""), file=out)
                else:
                    print(f"  [skipped] {r['criterion']}: {r['reason']}", file=out)
            print(f"all consistent: {pl['all_consistent']}", file=out)

        _emit(payload, args, out, human)
        if not suite["all_consistent"]:
            return EXIT_INTERNAL
        return EXIT_OK

    if cmd == "tensor-res":
        y = _pick(parsed, args.Y)
        z = _pick(parsed, args.Z)
        warnings = _saturation_warnings([(args.Y, y), (args.Z, z)])
        res, report = tensor_resolution(y, z)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "tensor-res",
            "field_mode": _field_mode(parsed.ring),
            "Y": args.Y,
            "Z": args.Z,
            "modules": [repr(m) for m in res.modules],
            "betti": report["betti"].to_json(),
            "convolution_matches": report["convolution_matches"],
            "verify_ok": report["verify"].ok,
            "shell_Y": report["shell_Y"].verdict,
            "shell_Z": report["shell_Z"].verdict,
            "warnings": warnings,
        }

        def human(pl, out):
            for wrn in pl["warnings"]:
                print(f"warning: {wrn}", file=out)
            print("tensor resolution of S/(Y + Z):", file=out)
            print("  " + " <- ".join(pl["modules"]), file=out)
            print(render_betti(report["betti"]), file=out)
            print(f"verified acyclic + minimal: {pl['verify_ok']}", file=out)
            print(f"betti = convolution of factors: {pl['convolution_matches']}", file=out)
            print(f"shell verdicts over the intersection: "
                  f"Y: {pl['shell_Y']}, Z: {pl['shell_Z']}", file=out)

        _emit(payload, args, out, human)
        return EXIT_OK

    if cmd == "saturate":
        ideal = _pick(parsed, args.ideal)
        sat, changed = saturate_irrelevant(ideal)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "saturate",
            "ideal": args.ideal,
            "field_mode": _field_mode(parsed.ring),
            "changed": changed,
            "generators": [str(g) for g in sat.generators],
        }

        def human(pl, out):
            print(f"// saturation {'changed' if pl['changed'] else 'did not change'} the ideal",
                  file=out)
            print(render_ideal(pl["ideal"] + "_sat", sat), file=out)

        _emit(payload, args, out, human)
        return EXIT_OK

    if cmd == "hilbert":
        ideal = _pick(parsed, args.ideal)
        h = hilbert_function(ideal, args.m_max)
        payload = {
            "schema": SCHEMA_VERSION,
            "command": "hilbert",
            "ideal": args.ideal,
            "field_mode": _field_mode(parsed.ring),
            "values": {str(m): h.values[m] for m in sorted(h.values)},
            "polynomial": None if h.hilbert_polynomial is None
                          else [str(c) for c in h.hilbert_polynomial],
            "stabilization_degree": h.stabilization_degree,
        }

        def human(pl, out):
            print(f"// hilbert function of S/{pl['ideal']}", file=out)
            vals = " ".join(str(pl["values"][str(m)]) for m in range(args.m_max + 1))
            print(f"  values 0..{args.m_max}: {vals}", file=out)
            if pl["polynomial"] is not None:
                terms = pl["polynomial"]
                print(f"  polynomial coefficients (ascending): {terms}", file=out)
                print(f"  stabilization degree: {pl['stabilization_degree']}", file=out)
            else:
                print("  (no polynomial fit on weighted gradings)", file=out)

        _emit(payload, args, out, human)
        return EXIT_OK

    raise EngineError(f"unhandled command {cmd!r}")


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
