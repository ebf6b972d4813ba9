"""Command-line interface.

One table, `COMMANDS`, names every command with its help text, its ideal
arguments and its handler.  A handler returns a JSON-able payload, the
human-readable lines and the exit code, and prints nothing; `run_command`
builds the subparsers from the table, loads the source file, picks the
named ideals, adds the keys every report shares and prints either the
payload (--json) or the lines.  Exit codes: 0 success, 1 negative shell
verdict, 2 input error, 3 internal-check failure or any other unexpected
error (one stderr line, no traceback); a reader that closes stdout early
changes neither the exit code nor stderr.

Each handler imports the engine modules it runs, so a command loads only
what it uses: `gb` never compiles the resolution code, `pgshell` never
compiles the criteria suite, and `saturate` and `pgshell --method oracle`
compile it only for the Betti fallback of `groebner.is_saturated`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .errors import EngineError, InternalCheckError, SourceError
from .parser import parse_source, render_ideal, render_source

SCHEMA_VERSION = "report.v1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

# catalog.CATALOG_NAMES, for the help text, so that printing the help
# compiles no catalog code; a test keeps the two equal
CATALOG_NAMES = ("rnc", "veronese", "scroll", "tc-cone", "ci", "points-rnc", "hyperplane", "zero")


def render_betti(bt) -> str:
    """Macaulay-style grid of a BettiTable: rows are m - q, columns are q,
    plus totals."""
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
    except UnicodeDecodeError as e:
        raise SourceError(f"cannot read {path}: {e}")
    return parse_source(text, strict=strict)


def _pick(parsed, name: str):
    if name not in parsed.ideals:
        known = ", ".join(parsed.ideals)
        raise SourceError(f"no ideal named {name!r} in the file (have: {known})")
    return parsed.ideals[name]


def _field_mode(ring) -> str:
    if ring.field.characteristic == 0:
        return "exact"
    return f"probabilistic (prime field {ring.field.characteristic})"


def _saturation_warnings(names, ideals) -> list:
    from .groebner import is_saturated

    return [f"ideal {name} is not saturated at the irrelevant ideal; "
            f"the verdict refers to the ideal as given (run `saturate` to fix)"
            for name, ideal in zip(names, ideals) if not is_saturated(ideal)]


# Handlers: (args, parsed source, *picked ideals) -> (payload, human lines,
# exit code).  They print nothing; run_command adds the shared payload keys
# and prints either the JSON or the lines.

def _gb(args, parsed, ideal):
    from .groebner import groebner_basis
    from .poly import Ideal

    gb = groebner_basis(ideal)
    basis = Ideal(parsed.ring, gb.elements, allow_inhomogeneous=True)
    payload = {"ring": repr(parsed.ring), "order": gb.order,
               "basis": [str(g) for g in gb.elements]}
    return payload, [f"// reduced groebner basis ({gb.order}) of {args.ideal}",
                     render_ideal(args.ideal + "_gb", basis)], EXIT_OK


def _betti(args, parsed, ideal):
    from .resolution import betti_table

    bt = betti_table(ideal)
    payload = {"ring": repr(parsed.ring), "betti": bt.to_json()}
    return payload, [f"// betti table of S/{args.ideal}", render_betti(bt)], EXIT_OK


def _invariants(args, parsed, ideal):
    from .criteria import invariants

    inv = invariants(ideal).to_json()
    lines = [f"// invariants of {args.ideal}  [{_field_mode(parsed.ring)}]"]
    lines += [f"  {key} = {value}" for key, value in inv.items()]
    return {"ring": repr(parsed.ring), "invariants": inv}, lines, EXIT_OK


def _pgshell(args, parsed, v, w):
    from .shell import pgshell_report

    report = pgshell_report(v, w, method=args.method)
    table, wit = report.table_json(), report.witness
    lines = [f"verdict: {report.verdict}   (method: {report.method}, "
             f"arithmetic: {_field_mode(parsed.ring)})"]
    if table:
        lines.append("  q  m   tor_W  tor_V  injective")
        lines += [f"  {c['q']:<2} {c['m']:<3} {c['tor_W']:<6} {c['tor_V']:<6} "
                  f"{'yes' if c['injective'] else 'NO'}" for c in table]
    else:
        lines.append("  (no source Tor in range q >= 1: trivial shell)")
    if wit:
        lines.append(f"witness: kernel class of mu_{wit['q']} in degree {wit['m']}: "
                     f"{wit['cycle']}")
    payload = {"method": report.method, "verdict": report.verdict, "table": table,
               "witness": wit}
    return payload, lines, EXIT_OK if report.is_shell else EXIT_NEGATIVE


def _criteria(args, parsed, v, w):
    from .criteria import criteria_suite

    suite = criteria_suite(v, w)
    lines = [f"direct verdict: {suite['observed']}"]
    for r in suite["criteria"]:
        if r["applicable"]:
            status = "consistent" if r["consistent"] else "INCONSISTENT"
            detail = f" ({r['detail']})" if r["detail"] else ""
            lines.append(f"  [{status}] {r['criterion']}: predicts {r['predicted']}{detail}")
        else:
            lines.append(f"  [skipped] {r['criterion']}: {r['reason']}")
    lines.append(f"all consistent: {suite['all_consistent']}")
    payload = {key: suite[key] for key in ("observed", "all_consistent", "criteria")}
    return payload, lines, EXIT_OK if suite["all_consistent"] else EXIT_INTERNAL


def _tensor_res(args, parsed, y, z):
    from .criteria import tensor_resolution

    res, report = tensor_resolution(y, z)
    payload = {
        "modules": [repr(m) for m in res.modules],
        "betti": report["betti"].to_json(),
        "convolution_matches": report["convolution_matches"],
        "verify_ok": report["verify"].ok,
        "shell_Y": report["shell_Y"].verdict,
        "shell_Z": report["shell_Z"].verdict,
    }
    return payload, [
        "tensor resolution of S/(Y + Z):",
        "  " + " <- ".join(payload["modules"]),
        render_betti(report["betti"]),
        f"verified acyclic + minimal: {payload['verify_ok']}",
        f"betti = convolution of factors: {payload['convolution_matches']}",
        f"shell verdicts over the intersection: "
        f"Y: {payload['shell_Y']}, Z: {payload['shell_Z']}",
    ], EXIT_OK


def _saturate(args, parsed, ideal):
    from .saturation import saturate_irrelevant

    sat, changed = saturate_irrelevant(ideal)
    payload = {"changed": changed, "generators": [str(g) for g in sat.generators]}
    return payload, [f"// saturation {'changed' if changed else 'did not change'} the ideal",
                     render_ideal(args.ideal + "_sat", sat)], EXIT_OK


def _catalog(args, parsed):
    from .catalog import build_catalog_entry

    entry = build_catalog_entry(args.name, args.params, seed=args.seed)
    source = render_source(entry.ring, {"I": entry.ideal})
    payload = {"name": entry.name, "ring": repr(entry.ring), "source": source,
               "notes": entry.notes}
    notes = [f"// {entry.notes}"] if entry.notes else []
    return payload, [f"// catalog entry: {entry.name}", *notes, source.removesuffix("\n")], EXIT_OK


def _hilbert(args, parsed, ideal):
    from .hilbert import hilbert_function

    h = hilbert_function(ideal, args.m_max)
    poly = None if h.hilbert_polynomial is None else [str(c) for c in h.hilbert_polynomial]
    vals = " ".join(str(h.values[m]) for m in range(args.m_max + 1))
    lines = [f"// hilbert function of S/{args.ideal}", f"  values 0..{args.m_max}: {vals}"]
    if poly is None:
        lines.append("  (no polynomial fit on weighted gradings)")
    else:
        lines += [f"  polynomial coefficients (ascending): {poly}",
                  f"  stabilization degree: {h.stabilization_degree}"]
    payload = {"values": {str(m): h.values[m] for m in sorted(h.values)},
               "polynomial": poly, "stabilization_degree": h.stabilization_degree}
    return payload, lines, EXIT_OK


# name -> (help, ideal arguments, handler, further arguments as (flag, kwargs)).
# A command with ideal arguments reads a source file, takes --strict and
# --field-check, and reports the ideal names and the field mode; one on a
# pair of ideals first checks that both are saturated and reports a warning
# for each that is not.
COMMANDS = {
    "gb": ("reduced Groebner basis", ("ideal",), _gb, ()),
    "betti": ("Betti table of the minimal free resolution", ("ideal",), _betti, ()),
    "invariants": ("dimension, degree, depth, regularity, flags", ("ideal",),
                   _invariants, ()),
    "pgshell": ("decide whether W is a pregeometric shell of V", ("V", "W"), _pgshell,
                (("--method", {"choices": ("chain", "oracle", "both"), "default": "chain"}),)),
    "criteria": ("run the consistency criteria suite on (V, W)", ("V", "W"), _criteria, ()),
    "tensor-res": ("tensor resolution of two ACM ideals", ("Y", "Z"), _tensor_res, ()),
    "saturate": ("saturate an ideal at the irrelevant ideal", ("ideal",), _saturate, ()),
    "catalog": (f"emit a catalog ideal ({', '.join(CATALOG_NAMES)})", (), _catalog,
                (("name", {}), ("params", {"nargs": "*"}))),
    "hilbert": ("Hilbert function and polynomial", ("ideal",), _hilbert,
                (("--max", {"type": int, "required": True, "dest": "m_max"}),)),
}


def run_command(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="pgshell",
        description="Exact graded commutative algebra: resolutions, Betti tables, shell checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, (help_, ideal_args, _, options) in COMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if ideal_args:
            p.add_argument("file", help="ideal-description source file")
            p.add_argument("--strict", action="store_true",
                           help="inhomogeneous generators become errors")
            p.add_argument("--field-check", action="store_true",
                           help="self-check field axioms first")
        p.add_argument("--seed", type=int, default=1, help="seed for randomized checks/constructions")
        for arg in ideal_args:
            p.add_argument(arg)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)

    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # an unknown argument after the command is reported with its usage
            before = argv[:argv.index(args.command)]
            owner = parser if extras[0] in before else subparsers[args.command]
            owner.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as e:
        return EXIT_INPUT if e.code not in (0, None) else EXIT_OK

    _, ideal_args, handler, _ = COMMANDS[args.command]
    payload = {"schema": SCHEMA_VERSION, "command": args.command}
    try:
        parsed, ideals, warnings = None, [], []
        if ideal_args:
            parsed = _load(args.file, args.strict)
            if args.field_check:
                from .fields import field_self_check

                field_self_check(parsed.ring.field, seed=args.seed)
                if not args.json:
                    print("field check: ok", file=out)
            for w in parsed.warnings:
                print(f"warning: {w}", file=sys.stderr)
            names = [getattr(args, arg) for arg in ideal_args]
            ideals = [_pick(parsed, name) for name in names]
            payload.update(zip(ideal_args, names), field_mode=_field_mode(parsed.ring))
            if len(ideals) == 2:
                warnings = _saturation_warnings(names, ideals)
                payload["warnings"] = warnings
        result, lines, code = handler(args, parsed, *ideals)
    except InternalCheckError as e:
        print(f"internal check failure: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # a bug, never a verdict: no traceback, and not exit 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL

    payload.update(result)
    try:
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        else:
            print(*(f"warning: {w}" for w in warnings), *lines, sep="\n", file=out)
        out.flush()
    except BrokenPipeError:
        # the reader left early; the verdict stands, so keep its exit code
        # and send what the interpreter flushes at exit to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return code


def main() -> None:
    """Run the command in sys.argv and exit with its code.  The answer is
    out by then, so what the command built is frozen, and the collections
    at exit skip it; `atexit` handlers and stream flushing still run."""
    code = run_command(sys.argv[1:])
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
