"""Seeded corpus of `.ideal` files and the CLI operations run on them.

Run as a program it writes one workload's corpus into a directory:

    python3 perfbench/corpus.py --workload resolve-generic --seed 1 --out DIR

It imports pgshell from the checkout's `src/` and builds every input
through the public library: catalog constructors, `substitute_ideal`
and `render_source`.  It writes `DIR/*.ideal` and `DIR/ops.json`, the
operations of one pass in the order they run.  The benchmark times this
program as its set-up, because it is the work done before the first
operation can start.

Each operation is a dict:

    id       unique label, the same for every seed
    field    "qq" or "gf", the coefficient field of its input
    argv     arguments after `python -m pgshell.cli`
    exit     the exit code a correct engine returns
    check    answer checks that hold for every seed (see run.py)

The seed sets the order of the operations in a pass.  The inputs are
the same for every seed: on this engine a seeded input moves a run's
times more than the engine's own run-to-run spread does, so it would
make a run measure its input rather than the engine.  Two examples
measured on a 2-core x86 machine: `betti` of rnc 5 over QQ took 9.5 s to
14.6 s over five random coordinate changes, and `pgshell --method both`
on ci 2 2 2 over QQ took 4.5 s to 9.4 s over five coefficient seeds.
Repeats of one input agreed within 5-8%.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from pgshell import catalog, linalg, parser, poly  # noqa: E402
from pgshell.fields import Field  # noqa: E402

FIELDS = (("qq", Field(0)), ("gf", Field(32003)))

WORKLOADS = ("resolve-generic", "oracle-multiquadric", "shell-session")

# label -> (catalog name, catalog parameters)
VARIETIES = {
    "tc": ("rnc", ["3"]),
    "rnc4": ("rnc", ["4"]),
    "rnc5": ("rnc", ["5"]),
    "veronese": ("veronese", []),
    "scroll": ("scroll", []),
    "tc-cone": ("tc-cone", []),
    "ci222": ("ci", ["2", "2", "2"]),
    "points5": ("points-rnc", ["3", "5"]),
}

# Betti tables of the plain-coordinate catalog ideals, in the CLI's JSON
# form.  A linear change of coordinates leaves them unchanged.
PLAIN_BETTI = {
    "rnc4": {"0": {"0": 1}, "1": {"2": 6}, "2": {"3": 8}, "3": {"4": 3}},
    "rnc5": {"0": {"0": 1}, "1": {"2": 10}, "2": {"3": 20}, "3": {"4": 15}, "4": {"5": 4}},
    "veronese": {"0": {"0": 1}, "1": {"2": 6}, "2": {"3": 8}, "3": {"4": 3}},
    "scroll": {"0": {"0": 1}, "1": {"2": 3}, "2": {"3": 2}},
    "tc-cone": {"0": {"0": 1}, "1": {"2": 3}, "2": {"3": 2}},
    "ci222": {"0": {"0": 1}, "1": {"2": 3}, "2": {"4": 3}, "3": {"6": 1}},
    "points5": {"0": {"0": 1}, "1": {"2": 5}, "2": {"3": 5}, "3": {"5": 1}},
}

# Shell verdicts of the plain-coordinate pairs (V, W).  W2/W3 are the
# first 2/3 quadrics of V; N is z_last * (first generator of V).  They
# were computed by the chain-map route and agree with the Koszul oracle.
VERDICTS = {
    ("rnc4", "W2"): "not-pg-shell",
    ("rnc4", "W3"): "not-pg-shell",
    ("rnc5", "W3"): "not-pg-shell",
    ("veronese", "W2"): "not-pg-shell",
    ("veronese", "W3"): "pg-shell",
    ("points5", "W2"): "not-pg-shell",
    ("points5", "W3"): "not-pg-shell",
    ("tc", "W2"): "not-pg-shell",
    ("scroll", "W2"): "not-pg-shell",
    ("ci222", "W2"): "pg-shell",
    ("rnc4", "N"): "not-pg-shell",
    ("tc", "N"): "not-pg-shell",
    ("scroll", "N"): "not-pg-shell",
}

CI_SEED = 1  # coefficient seed of ci 2 2 2, the catalog's default


@functools.lru_cache(maxsize=None)
def _entry(label, field_tag):
    name, params = VARIETIES[label]
    return catalog.build_catalog_entry(name, params, seed=CI_SEED, field=dict(FIELDS)[field_tag])


def _coordinate_change(label, n):
    """An n x n integer matrix with entries in [-3, 3], invertible over every field.

    It is the first such draw from a stream named after the ideal.
    """
    rng = random.Random(f"resolve-generic/{label}")
    while True:
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if all(linalg.determinant([[f.of(x) for x in row] for row in m], f) != f.zero
               for _, f in FIELDS):
            return m


def _quadrics(ideal, k):
    return [g for g in ideal.generators if g.homogeneous_degree() == 2][:k]


def _pairs(entry):
    """V, W2 and W3 (its first 2 and 3 quadrics), and N = z_last * (first generator of V).

    N lies in I_V and is never a shell: its generator is a multiple of a
    minimal generator of V.
    """
    ring = entry.ring
    z_last = poly.Polynomial.variable(ring, ring.num_vars - 1)
    return {
        "V": entry.ideal,
        "W2": poly.Ideal(ring, _quadrics(entry.ideal, 2)),
        "W3": poly.Ideal(ring, _quadrics(entry.ideal, 3)),
        "N": poly.Ideal(ring, [z_last * entry.ideal.generators[0]]),
    }


def _write(out, fname, ring, ideals):
    with open(os.path.join(out, fname), "w", encoding="utf-8") as fh:
        fh.write(parser.render_source(ring, ideals))
    return fname


def _op(op_id, field_tag, argv, exit_code=0, **check):
    return {"id": op_id, "field": field_tag, "argv": list(argv) + ["--json"],
            "exit": exit_code, "check": check}


def _shell_op(kind, label, field_tag, fname, w, method=None, **check):
    verdict = VERDICTS[(label, w)]
    argv = ["pgshell", fname, "V", w] + (["--method", method] if method else [])
    return _op(f"{kind}/{label}/{field_tag}", field_tag, argv,
               0 if verdict == "pg-shell" else 1, verdict=verdict, **check)


def _invariant_facts(entry):
    keys = ("dim", "codim", "degree", "depth", "is_ACM", "is_2linear",
            "is_complete_intersection", "delta_genus", "reg_R")
    return {k: entry.expected[k] for k in keys if k in entry.expected}


def build_resolve_generic(out):
    """`betti` and `gb` on catalog ideals in generic coordinates."""
    ops = []
    for label in ("rnc4", "rnc5", "veronese", "scroll", "tc-cone", "ci222", "points5"):
        matrix = _coordinate_change(label, _entry(label, "gf").ring.num_vars)
        for tag, _ in FIELDS:
            e = _entry(label, tag)
            f = _write(out, f"{label}-{tag}.ideal", e.ring,
                       {"G": poly.substitute_ideal(e.ideal, matrix)})
            ops.append(_op(f"betti/{label}/{tag}", tag, ["betti", f, "G"],
                           betti=PLAIN_BETTI[label]))
            # every ideal here is generated by quadrics, and a reduced Groebner
            # basis holds exactly dim I_2 = beta_{1,2} of them
            ops.append(_op(f"gb/{label}/{tag}", tag, ["gb", f, "G"],
                           gb_quadrics=PLAIN_BETTI[label]["1"]["2"]))
    return ops


# V -> the W it is checked against.  rnc 5 with W2 is left out to keep a
# pass short.  The twisted cubic and the scroll add short samples; they
# have three quadrics, so their W3 would be V itself.
ORACLE_PAIRS = {
    "rnc4": ("W2", "W3", "N"),
    "rnc5": ("W3",),
    "veronese": ("W2", "W3"),
    "points5": ("W2", "W3"),
    "tc": ("W2", "N"),
    "scroll": ("W2",),
}


def build_oracle_multiquadric(out):
    """The resolution-free oracle with W = the first k quadrics of V."""
    ops = []
    for tag, _ in FIELDS:
        for label, ws in ORACLE_PAIRS.items():
            e = _entry(label, tag)
            f = _write(out, f"{label}-{tag}.ideal", e.ring, _pairs(e))
            for w in ws:
                ops.append(_shell_op(f"oracle-{w.lower()}", label, tag, f, w, "oracle"))
    return ops


def build_shell_session(out):
    """The commands a user runs while studying pairs (V, W)."""
    ops = []
    for tag, _ in FIELDS:
        files = {}
        for label in ("tc", "scroll", "tc-cone", "rnc4", "rnc5", "points5", "ci222", "veronese"):
            e = _entry(label, tag)
            files[label] = _write(out, f"{label}-{tag}.ideal", e.ring, _pairs(e))
        ops += [
            _shell_op("chain-w2", "ci222", tag, files["ci222"], "W2"),
            _shell_op("both-neg", "rnc4", tag, files["rnc4"], "N", "both",
                      agrees_with=f"chain-neg/rnc4/{tag}"),
            _shell_op("chain-neg", "rnc4", tag, files["rnc4"], "N"),
            _shell_op("both-neg", "scroll", tag, files["scroll"], "N", "both"),
        ]
        # The positive pair's `both` and `criteria` run over GF(p) only: over
        # QQ each takes 6-10 s, and two such single samples made a run's
        # times spread by over 20%.  criteria on a positive pair also
        # resolves I_V^2 + I_W and I_V^3 + I_W.
        criteria = [("rnc4", "W3"), ("tc", "W2")]
        if tag == "gf":
            ops.append(_shell_op("both-w2", "ci222", tag, files["ci222"], "W2", "both",
                                 agrees_with=f"chain-w2/ci222/{tag}"))
            criteria.append(("ci222", "W2"))
        for label, w in criteria:
            ops.append(_op(f"criteria-{w.lower()}/{label}/{tag}", tag,
                           ["criteria", files[label], "V", w], criteria=VERDICTS[(label, w)]))
        for label in ("rnc5", "points5"):
            ops.append(_op(f"invariants/{label}/{tag}", tag, ["invariants", files[label], "V"],
                           invariants=_invariant_facts(_entry(label, tag))))
        for label in ("rnc5", "tc-cone"):
            ops.append(_op(f"saturate/{label}/{tag}", tag, ["saturate", files[label], "V"],
                           saturated=True))
        for label in ("veronese", "tc"):
            e = _entry(label, tag)
            ops.append(_op(f"hilbert/{label}/{tag}", tag,
                           ["hilbert", files[label], "V", "--max", "12"],
                           hilbert=[e.expected["dim"], e.expected["degree"]]))
        e = _entry("tc-cone", tag)
        z = [poly.Polynomial.variable(e.ring, i) for i in (4, 5)]
        f = _write(out, f"tensor-{tag}.ideal", e.ring, {"Y": e.ideal, "Z": poly.Ideal(e.ring, z)})
        ops.append(_op(f"tensor-res/tc-cone/{tag}", tag, ["tensor-res", f, "Y", "Z"],
                       tensor=True))
    return ops


BUILDERS = {
    "resolve-generic": build_resolve_generic,
    "oracle-multiquadric": build_oracle_multiquadric,
    "shell-session": build_shell_session,
}


def build(workload, seed, out):
    """Write the corpus of `workload` for `seed` into `out`; return its ops in run order."""
    ops = BUILDERS[workload](out)
    ids = [op["id"] for op in ops]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate operation ids")
    random.Random(f"{workload}/{seed}").shuffle(ops)
    return ops


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    ops = build(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
