"""Run one pgshell CLI command with per-layer spans recorded from outside `src/`.

    python3 perfbench/tracer.py SPANS_JSON -- <pgshell cli arguments>

The command's stdout, stderr and exit code are those of
`python -m pgshell.cli <arguments>`.  Before the command runs, every
public layer function listed in LAYERS is replaced, in each `pgshell.*`
module namespace that binds it, by a wrapper that records a span: its
name, its parent span, and its inclusive and self time.  Spans are
aggregated per (name, parent) in memory and written to SPANS_JSON when
the command ends.  Field arithmetic (`Field.add/sub/mul/div/inv`) runs
millions of times, so it is counted, not timed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from pgshell import cli, fields, groebner, hilbert, koszul, linalg, parser  # noqa: E402
from pgshell import resolution, saturation, shell  # noqa: E402

clock = time.perf_counter


class Recorder:
    """Aggregated spans keyed (name, parent name) plus plain counters."""

    def __init__(self):
        self.stack = []  # frames: [name, start, child_time, child_names]
        self.spans = {}  # (name, parent) -> [calls, inclusive_s, self_s]
        self.counts = {}
        self.field_ops = 0

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def enter(self, name):
        self.stack.append([name, clock(), 0.0, set()])

    def leave(self):
        name, start, child_time, children = self.stack.pop()
        dt = clock() - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += dt
            parent[3].add(name)
        rec = self.spans.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - child_time
        return children


REC = Recorder()


def _after_groebner_basis(args, result, children):
    if "groebner.module_groebner" not in children:
        REC.count("groebner.gb_cache_hits")


def _after_module_groebner(args, result, children):
    REC.count("groebner.basis_elems", len(result))


def _after_reduce_vector(args, result, children):
    if not result:
        REC.count("groebner.reduce_zero")


def _after_minimalize(args, result, children):
    REC.count("resolution.minimalize_candidates", len(args[0]))
    REC.count("resolution.minimalize_kept", len(result))


def _after_minimal_resolution(args, result, children):
    if not children:
        REC.count("resolution.res_cache_hits")


def _after_koszul_tor(args, result, children):
    if not children:
        REC.count("koszul.tor_cache_hits")


def _after_rref(args, result, children):
    rows = args[0]
    if rows:
        REC.count("linalg.rref_cells", len(rows) * len(rows[0]))
        REC.count("linalg.rref_nonzero", sum(1 for r in rows for x in r if x))


# (module, attribute, span name, hook run after each call)
LAYERS = [
    (parser, "parse_source", "parser.parse_source", None),
    (saturation, "saturate_irrelevant", "saturation.saturate_irrelevant", None),
    (groebner, "groebner_basis", "groebner.groebner_basis", _after_groebner_basis),
    (groebner, "module_groebner", "groebner.module_groebner", _after_module_groebner),
    (groebner, "reduce_vector", "groebner.reduce_vector", _after_reduce_vector),
    (resolution, "syzygies", "resolution.syzygies", None),
    (resolution, "minimal_generating_subset", "resolution.minimal_generating_subset",
     _after_minimalize),
    (resolution, "minimal_resolution", "resolution.minimal_resolution",
     _after_minimal_resolution),
    (shell, "lift_chain_map", "shell.lift_chain_map", None),
    (hilbert, "hilbert_function", "hilbert.hilbert_function", None),
    (koszul, "koszul_tor", "koszul.koszul_tor", _after_koszul_tor),
    (koszul, "tor_comparison", "koszul.tor_comparison", None),
    (linalg, "rref", "linalg.rref", _after_rref),
]

# (class, attribute, span name); a property is wrapped through its getter
METHODS = [
    (koszul.KoszulContext, "differential", "koszul.differential"),
    (koszul.TorPiece, "cycle_basis", "koszul.cycle_basis"),
    (linalg.RowSpace, "add", "linalg.rowspace"),
    (linalg.RowSpace, "contains", "linalg.rowspace"),
]

FIELD_OPS = ("add", "sub", "mul", "div", "inv")


def _spanned(fn, name, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        REC.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            children = REC.leave()
        if after is not None:
            after(args, result, children)
        return result

    return wrapper


def _counted(fn):
    def wrapper(self, *args):
        REC.field_ops += 1
        return fn(self, *args)

    return wrapper


def install():
    """Wrap every layer function in each pgshell module namespace that binds it."""
    modules = [m for n, m in sys.modules.items() if n == "pgshell" or n.startswith("pgshell.")]
    for mod, attr, name, after in LAYERS:
        original = getattr(mod, attr)
        wrapped = _spanned(original, name, after)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
    for cls, attr, name in METHODS:
        value = cls.__dict__[attr]
        if isinstance(value, property):
            setattr(cls, attr, property(_spanned(value.fget, name)))
        else:
            setattr(cls, attr, _spanned(value, name))
    for attr in FIELD_OPS:
        setattr(fields.Field, attr, _counted(getattr(fields.Field, attr)))


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <pgshell arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    install()
    t0 = clock()
    try:
        rc = cli.run_command(cli_args)
    finally:
        run_s = clock() - t0
        spans = [[n, p, *rec] for (n, p), rec in REC.spans.items()]
        counts = dict(REC.counts, **{"fields.ops": REC.field_ops})
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"run_command_s": run_s, "spans": spans, "counts": counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
