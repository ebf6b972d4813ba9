"""Benchmark of the pgshell command-line interface.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds the workload's corpus from
the seed (`corpus.py`) and runs one pass over the workload's operations,
then runs operations again for the rest of `--seconds`.  Each operation
runs in a fresh `python -m pgshell.cli` process, one at a time (closed
loop, one client).  It checks every answer and prints, as the
last line of stdout, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are
the end-to-end ones; with `--trace 1` it runs one untraced pass and one
pass under `tracer.py` and reports per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("resolve-generic", "oracle-multiquadric", "shell-session")
FIELD_TAGS = ("qq", "gf")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
OP_LIMIT_S = 60.0    # one operation; at seed the slowest takes about 20 s
RUN_LIMIT_S = 165.0  # the whole run, so that it ends within 180 s
TAIL_BEYOND = 10     # op_tail_s has at least this many samples above it

# A fixed pure-Python child, run before each untraced operation, that
# measures how fast the machine runs Python processes at that moment.
# Its work mixes tuple-keyed dict updates and Fraction arithmetic, like
# the engine's, and uses nothing from pgshell, so no change to pgshell
# moves it.  PROBE_REF_S is its usual time on the 2-core x86 machine the
# benchmark was written on, where run medians of 0.09-0.15 s were seen.
PROBE = """
from fractions import Fraction
d = {}
acc = Fraction(0)
for i in range(25000):
    k = (i % 31, i % 17, i % 7)
    d[k] = d.get(k, 0) + i
    m = tuple(a + b for a, b in zip(k, (1, 2, 3)))
    if i % 8 == 0:
        acc += Fraction(i, 7 + i % 5)
"""
PROBE_REF_S = 0.12

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _ratio(a, b):
    return a / b if b else 0.0


# Per-layer metrics, reported once per field as "<name>.<field>".  A `_s`
# metric is self time (span time not covered by a child span) unless the
# README calls it inclusive.  Each entry: name -> (unit, value of a LayerTotals).
LAYER_METRICS = {
    "cli.startup_s": ("s", lambda t: t.startup_s),
    "parser.parse_s": ("s", lambda t: t.self_s("parser.parse_source")),
    "saturation.precheck_s": ("s", lambda t: t.incl_s("saturation.saturate_irrelevant")),
    "groebner.buchberger_s": ("s", lambda t: t.self_s("groebner.module_groebner")),
    "groebner.buchberger_calls": ("count", lambda t: t.calls("groebner.module_groebner")),
    "groebner.reduce_s": ("s", lambda t: t.self_s("groebner.reduce_vector")),
    "groebner.reductions": ("count", lambda t: t.calls("groebner.reduce_vector")),
    "groebner.reduce_zero_frac": ("ratio", lambda t: _ratio(
        t.count("groebner.reduce_zero"), t.calls("groebner.reduce_vector"))),
    "groebner.basis_elems": ("count", lambda t: t.count("groebner.basis_elems")),
    "groebner.gb_cache_hit_frac": ("ratio", lambda t: _ratio(
        t.count("groebner.gb_cache_hits"), t.calls("groebner.groebner_basis"))),
    "resolution.syzygies_s": ("s", lambda t: t.self_s("resolution.syzygies")),
    "resolution.minimalize_s": ("s", lambda t: t.incl_s("resolution.minimal_generating_subset")),
    "resolution.minimalize_gb_reruns": ("count", lambda t: t.calls(
        "groebner.module_groebner", parent="resolution.minimal_generating_subset")),
    "resolution.minimalize_kept_frac": ("ratio", lambda t: _ratio(
        t.count("resolution.minimalize_kept"), t.count("resolution.minimalize_candidates"))),
    "resolution.res_cache_hit_frac": ("ratio", lambda t: _ratio(
        t.count("resolution.res_cache_hits"), t.calls("resolution.minimal_resolution"))),
    "shell.lift_s": ("s", lambda t: t.incl_s("shell.lift_chain_map")),
    "hilbert.s": ("s", lambda t: t.self_s("hilbert.hilbert_function")),
    "koszul.tor_s": ("s", lambda t: t.self_s("koszul.koszul_tor")),
    "koszul.compare_s": ("s", lambda t: t.self_s("koszul.tor_comparison")),
    "koszul.differential_s": ("s", lambda t: t.self_s("koszul.differential")),
    "koszul.cycle_basis_s": ("s", lambda t: t.self_s("koszul.cycle_basis")),
    "koszul.pieces": ("count", lambda t: t.calls("koszul.koszul_tor")
                      - t.count("koszul.tor_cache_hits")),
    "koszul.tor_cache_hit_frac": ("ratio", lambda t: _ratio(
        t.count("koszul.tor_cache_hits"), t.calls("koszul.koszul_tor"))),
    "linalg.rref_s": ("s", lambda t: t.self_s("linalg.rref")),
    "linalg.rref_calls": ("count", lambda t: t.calls("linalg.rref")),
    "linalg.rref_cells": ("count", lambda t: t.count("linalg.rref_cells")),
    "linalg.rref_density": ("ratio", lambda t: _ratio(
        t.count("linalg.rref_nonzero"), t.count("linalg.rref_cells"))),
    "linalg.rowspace_s": ("s", lambda t: t.self_s("linalg.rowspace")),
    "fields.ops": ("count", lambda t: t.count("fields.ops")),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{name}.{tag}": unit
             for tag in FIELD_TAGS for name, (unit, _) in LAYER_METRICS.items()}
    units["trace.overhead_s"] = "s"
    return units


class LayerTotals:
    """Spans and counts of one field's traced operations, summed."""

    def __init__(self):
        self.spans = {}  # (name, parent) -> [calls, inclusive_s, self_s]
        self.counts = {}
        self.startup_s = 0.0

    def add(self, trace, op_wall):
        self.startup_s += op_wall - trace["run_command_s"]
        for name, parent, calls, incl, self_time in trace["spans"]:
            rec = self.spans.setdefault((name, parent), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_time
        for key, n in trace["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + n

    def calls(self, name, parent=None):
        return sum(r[0] for (n, p), r in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def incl_s(self, name):
        return sum(r[1] for (n, _), r in self.spans.items() if n == name)

    def self_s(self, name):
        return sum(r[2] for (n, _), r in self.spans.items() if n == name)

    def count(self, key):
        return self.counts.get(key, 0)


# ---------------------------------------------------------------------------
# running one process


class Outcome:
    __slots__ = ("rc", "wall_s", "cpu_s", "rss_mb", "stdout", "stderr", "timed_out")


def run_process(argv, cwd, limit_s, scratch):
    """Run argv to completion or until limit_s; return its Outcome.

    Exit status, wall time, CPU time and peak RSS come from wait4 on the
    child itself, so no other process is measured.
    """
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    env = dict(os.environ, PYTHONPATH=SRC)
    res = Outcome()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(limit_s, 0.0))
            res.timed_out = not ready
            if res.timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            res.wall_s = time.perf_counter() - t0
        except BaseException:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
    proc.returncode = res.rc = os.waitstatus_to_exitcode(status)
    res.cpu_s = usage.ru_utime + usage.ru_stime
    res.rss_mb = usage.ru_maxrss / 1024.0
    with open(out_path, "rb") as fh:
        res.stdout = fh.read()
    with open(err_path, "rb") as fh:
        res.stderr = fh.read().decode("utf-8", "replace")
    return res


# ---------------------------------------------------------------------------
# answer checks


_VAR_POWER = re.compile(r"[A-Za-z_]\w*(?:\^(\d+))?")


def _leading_term_degree(poly_str):
    first = re.split(r" [+-] ", poly_str.strip().lstrip("-").strip())[0]
    return sum(int(e) if e else 1 for e in _VAR_POWER.findall(first))


def _hilbert_dim_degree(coeffs):
    """(dim, degree) of the projective scheme from ascending Hilbert polynomial coefficients."""
    cs = [Fraction(c) for c in coeffs]
    dim = max(i for i, c in enumerate(cs) if c)
    return dim, cs[dim] * math.factorial(dim)


def _witness_ok(w):
    return isinstance(w, dict) and {"q", "m", "cycle"} <= set(w) and bool(w["cycle"])


def check_answer(op, payload):
    """Problems with one operation's JSON answer, from its seed-independent checks."""
    problems = []
    for kind, want in op["check"].items():
        if kind == "betti":
            ok = payload.get("betti") == want
        elif kind == "gb_quadrics":
            ok = sum(_leading_term_degree(g) == 2 for g in payload.get("basis", [])) == want
        elif kind == "verdict":
            ok = payload.get("verdict") == want and (
                want == "pg-shell" or _witness_ok(payload.get("witness")))
        elif kind == "criteria":
            ok = payload.get("observed") == want and payload.get("all_consistent") is True
        elif kind == "invariants":
            inv = payload.get("invariants", {})
            ok = all(inv.get(k) == v for k, v in want.items())
        elif kind == "saturated":
            ok = payload.get("changed") is (not want)
        elif kind == "hilbert":
            ok = list(_hilbert_dim_degree(payload.get("polynomial") or ["0"])) == want
        elif kind == "tensor":
            ok = payload.get("verify_ok") is True and payload.get("convolution_matches") is True
        elif kind == "agrees_with":
            continue  # needs the other operation; see run_pass
        else:
            raise ValueError(f"unknown check {kind!r}")
        if not ok:
            problems.append(f"{kind} check failed")
    return problems


def input_digest(op, corpus_dir):
    h = hashlib.sha256(json.dumps(op["argv"]).encode())
    with open(os.path.join(corpus_dir, op["argv"][1]), "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


class Record:
    """One operation run within a pass: its outcome, stdout digest, parsed answer, problems."""

    def __init__(self, op, outcome, digest, payload, problems):
        self.op = op
        self.outcome = outcome
        self.digest = digest
        self.payload = payload
        self.problems = problems


def run_probe(corpus_dir, scratch, deadline):
    """The probe's wall time, or None once the run is out of time."""
    res = run_process([sys.executable, "-c", PROBE], corpus_dir,
                      deadline - time.perf_counter(), scratch)
    if res.timed_out:
        return None
    if res.rc != 0:
        raise RuntimeError(f"speed probe failed: {res.stderr.strip()}")
    return res.wall_s


def run_op(op, corpus_dir, scratch, deadline, expected, trace_path=None, probes=None):
    """Run and check one operation; with `probes`, first add one probe time to it."""
    if probes is not None:
        probe = run_probe(corpus_dir, scratch, deadline)
        if probe is not None:
            probes.append(probe)
    limit = min(OP_LIMIT_S, deadline - time.perf_counter())
    if trace_path is None:
        argv = [sys.executable, "-m", "pgshell.cli"] + op["argv"]
    else:
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--"] + op["argv"]
    out = run_process(argv, corpus_dir, limit, scratch)
    digest = hashlib.sha256(out.stdout).hexdigest()
    problems = []
    payload = None
    if out.timed_out:
        problems.append(f"timed out after {limit:.1f} s")
    elif out.rc != op["exit"]:
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        problems.append(f"exit {out.rc}, expected {op['exit']} {tail[0]}".rstrip())
    else:
        try:
            payload = json.loads(out.stdout)
        except ValueError:
            problems.append("stdout is not JSON")
        else:
            problems += check_answer(op, payload)
    want = expected.get(op["id"])
    if want and not out.timed_out and want["input"] == input_digest(op, corpus_dir):
        if want["exit"] != out.rc or want["stdout"] != digest:
            problems.append("output differs from the recorded answer for this input")
    return Record(op, out, digest, payload, problems)


def run_pass(ops, corpus_dir, scratch, deadline, expected, trace_dir=None, probes=None):
    records = []
    for i, op in enumerate(ops):
        trace_path = None if trace_dir is None else os.path.join(trace_dir, f"{i}.json")
        records.append(run_op(op, corpus_dir, scratch, deadline, expected, trace_path, probes))
    by_id = {r.op["id"]: r for r in records}
    for r in records:
        other = r.op["check"].get("agrees_with")
        if other and r.payload and by_id[other].payload:
            if r.payload.get("verdict") != by_id[other].payload.get("verdict"):
                r.problems.append(f"verdict differs from {other}")
    return records


# ---------------------------------------------------------------------------
# the run


def setup(workload, seed, work, deadline):
    """Build the corpus SETUP_REPEATS times; return (corpus dir, ops, set-up times)."""
    times = []
    for i in range(SETUP_REPEATS):
        out_dir = os.path.join(work, f"corpus{i}")
        argv = [sys.executable, os.path.join(HERE, "corpus.py"),
                "--workload", workload, "--seed", str(seed), "--out", out_dir]
        res = run_process(argv, ROOT, deadline - time.perf_counter(), work)
        if res.timed_out or res.rc != 0:
            raise RuntimeError(f"corpus generation failed: {res.stderr.strip()}")
        times.append(res.wall_s)
    with open(os.path.join(out_dir, "ops.json"), encoding="utf-8") as fh:
        ops = json.load(fh)
    return out_dir, ops, times


def src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "pgshell")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def quantile(xs, p):
    """Harrell-Davis estimate of the p-quantile of xs.

    It is a Beta(p(n+1), (1-p)(n+1))-weighted mean of all order
    statistics.  A run's operations are few and their latencies cluster
    by command, so the plain middle order statistic jumps between
    clusters from run to run; this estimate moves smoothly instead.
    """
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    steps = 64  # Simpson panels per order statistic
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        ys = [density(lo + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (ys[0] + ys[-1] + 4 * sum(ys[1:-1:2]) + 2 * sum(ys[2:-1:2])))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(n):
    """The highest percentile with TAIL_BEYOND of n samples above it, never below the median."""
    return max(0.5, (n - TAIL_BEYOND) / n)


def latencies(records):
    """Each operation's latency: the median of its wall times in the run."""
    walls = {}
    for r in records:
        walls.setdefault(r.op["id"], []).append(r.outcome.wall_s)
    return {op_id: statistics.median(v) for op_id, v in walls.items()}


def end_to_end(records, setup_times, probes):
    """End-to-end metrics, with every time scaled to the reference machine speed.

    The machine this runs on is shared, and its speed drifts by tens of
    percent within minutes.  Each time is multiplied by PROBE_REF_S over
    the run's median probe time, which removes that drift.
    """
    speed = PROBE_REF_S / statistics.median(probes)
    lat = list(latencies(records).values())
    raw = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(lat),
        "op_p50_s": quantile(lat, 0.5),
        "op_tail_s": quantile(lat, tail_percentile(len(lat))),
    }
    metrics = {k: v * speed for k, v in raw.items()}
    metrics["peak_rss_mb"] = max(r.outcome.rss_mb for r in records)
    info = {
        "op_samples": len(records),
        "op_tail_percentile": round(100.0 * tail_percentile(len(lat)), 1),
        "probe_median_s": statistics.median(probes),
        "probes": len(probes),
        "unscaled": raw,
    }
    return metrics, info


def per_layer(untraced, traced, trace_dir):
    totals = {tag: LayerTotals() for tag in FIELD_TAGS}
    for i, r in enumerate(traced):
        path = os.path.join(trace_dir, f"{i}.json")
        if not os.path.exists(path):
            continue  # the process died before writing its spans; already a failure
        with open(path, encoding="utf-8") as fh:
            totals[r.op["field"]].add(json.load(fh), r.outcome.wall_s)
    metrics = {}
    for tag in FIELD_TAGS:
        for name, (_, value) in LAYER_METRICS.items():
            metrics[f"{name}.{tag}"] = value(totals[tag])
    untraced_wall = sum(r.outcome.wall_s for r in untraced)
    traced_wall = sum(r.outcome.wall_s for r in traced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}


def compare_traced(untraced, traced):
    """The traced pass must print exactly what the untraced pass printed."""
    for u, t in zip(untraced, traced):
        if (u.outcome.rc, u.digest) != (t.outcome.rc, t.digest):
            t.problems.append("traced output differs from the untraced output")


def load_expected(workload):
    if not os.path.exists(EXPECTED_PATH):
        return {}
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def record_expected(workload, records, corpus_dir):
    data = {}
    if os.path.exists(EXPECTED_PATH):
        with open(EXPECTED_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = {
        r.op["id"]: {"input": input_digest(r.op, corpus_dir), "exit": r.outcome.rc,
                     "stdout": r.digest}
        for r in sorted(records, key=lambda r: r.op["id"])
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def measure(workload, seed, seconds, trace, work, record=False):
    """Set up, run and check the operations; return the result and an informational report."""
    t_start = time.perf_counter()
    deadline = t_start + RUN_LIMIT_S
    corpus_dir, ops, setup_times = setup(workload, seed, work, deadline)
    expected = {} if record else load_expected(workload)
    scratch = os.path.join(work, "proc")
    os.makedirs(scratch)
    t_measure = time.perf_counter()
    probes = None if trace else []
    first = run_pass(ops, corpus_dir, scratch, deadline, expected, probes=probes)
    records = list(first)
    if trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        traced = run_pass(ops, corpus_dir, scratch, deadline, expected, trace_dir)
        compare_traced(first, traced)
        records += traced
        metrics, info = per_layer(first, traced, trace_dir)
        units = per_layer_units()
    else:
        # Fill the rest of --seconds by running operations again, in pass
        # order, each only while its latency so far fits in the time left.
        ran = True
        while ran:
            ran = False
            for op in ops:
                if latencies(records)[op["id"]] <= seconds - (time.perf_counter() - t_measure):
                    records.append(run_op(op, corpus_dir, scratch, deadline, expected,
                                          probes=probes))
                    ran = True
        metrics, info = end_to_end(records, setup_times, probes)
        units = END_TO_END
    failed = [r for r in records if r.problems]
    samples = {}
    for r in records:
        samples[r.op["id"]] = samples.get(r.op["id"], 0) + 1
    cpu = {r.op["id"]: r.outcome.cpu_s for r in first}
    if record:
        if failed or seed != DEFAULT_SEED or trace:
            raise RuntimeError("--record needs --seed 1, --trace 0 and a run with no failures")
        record_expected(workload, first, corpus_dir)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info.update({
        "workload": workload,
        "seed": seed,
        "ops_per_pass": len(ops),
        "fail_frac": len(failed) / len(records),
        "setup_runs_s": setup_times,
        "child_cpu_s_per_pass": sum(r.outcome.cpu_s for r in first),
        "src_pgshell_lines": src_lines(),
        "failures": [f"{r.op['id']}: {'; '.join(r.problems)}" for r in failed],
        "ops": {op_id: {"latency_s": lat, "samples": samples[op_id], "cpu_s_first": cpu[op_id]}
                for op_id, lat in sorted(latencies(records).items())},
    })
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description="Benchmark of the pgshell CLI.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's exit codes and output digests in expected.json")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "pgshell", "cli.py")):
        print(f"error: no pgshell sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        result, info = measure(args.workload, args.seed, args.seconds, args.trace, work,
                               record=args.record)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in info["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({"report": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
