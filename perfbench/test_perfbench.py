"""Tests of the benchmark itself: python3 -m pytest perfbench -q

The smoke runs use a four-operation corpus on the twisted cubic, so they
take a few seconds.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import corpus  # noqa: E402
import run  # noqa: E402

TC_BETTI = {"0": {"0": 1}, "1": {"2": 3}, "2": {"3": 2}}


def tiny_setup(workload, seed, work, deadline):
    """Stands in for run.setup: the twisted cubic over QQ, four operations."""
    out = os.path.join(work, "corpus")
    os.makedirs(out)
    e = corpus._entry("tc", "qq")
    f = corpus._write(out, "tc-qq.ideal", e.ring, corpus._pairs(e))
    ops = [
        corpus._op("betti/tc/qq", "qq", ["betti", f, "V"], betti=TC_BETTI),
        corpus._shell_op("both-w2", "tc", "qq", f, "W2", "both",
                         agrees_with="chain-w2/tc/qq"),
        corpus._shell_op("chain-w2", "tc", "qq", f, "W2"),
        corpus._op("hilbert/tc/qq", "qq", ["hilbert", f, "V", "--max", "12"], hilbert=[1, 3]),
    ]
    return out, ops, [0.25, 0.2, 0.3]


@pytest.fixture
def scratch():
    """A fresh directory under perfbench/_work, removed afterwards."""
    path = os.path.join(HERE, "_work", f"test-{os.getpid()}")
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def tiny(monkeypatch, scratch):
    """Returns a function giving a fresh work directory for each measured run."""
    monkeypatch.setattr(run, "setup", tiny_setup)
    monkeypatch.setattr(run, "EXPECTED_PATH", os.path.join(scratch, "expected.json"))
    counter = itertools.count()

    def fresh():
        work = os.path.join(scratch, f"run{next(counter)}")
        os.makedirs(work)
        return work

    return fresh


def assert_metrics(result, units):
    assert set(result["metrics"]) == set(units)
    for name, unit in units.items():
        m = result["metrics"][name]
        assert m["unit"] == unit
        assert isinstance(m["value"], (int, float))


def test_benchmark_json_names_the_metrics_run_py_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(corpus.WORKLOADS)
    assert run.FIELD_TAGS == tuple(tag for tag, _ in corpus.FIELDS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def test_untraced_smoke_run_prints_every_end_to_end_metric(tiny):
    result, info = run.measure("shell-session", 1, 0, 0, tiny())
    assert result["correct"], info["failures"]
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert_metrics(result, run.END_TO_END)
    assert info["fail_frac"] == 0.0
    # every time is scaled by the same machine-speed factor
    speed = run.PROBE_REF_S / info["probe_median_s"]
    assert info["probes"] == 4
    assert result["metrics"]["setup_s"]["value"] == pytest.approx(0.25 * speed)
    assert result["metrics"]["wall_s"]["value"] == pytest.approx(info["unscaled"]["wall_s"] * speed)


def test_traced_smoke_run_prints_every_per_layer_metric(tiny):
    result, info = run.measure("shell-session", 1, 0, 1, tiny())
    assert result["correct"], info["failures"]
    assert result["attempted"] == 8  # one untraced and one traced pass
    assert_metrics(result, run.per_layer_units())
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["groebner.buchberger_calls.qq"] > 0
    assert m["fields.ops.qq"] > 0
    assert m["shell.lift_s.qq"] > 0
    assert m["fields.ops.gf"] == 0


def test_wrong_recorded_digest_counts_as_failure(tiny):
    # record the tiny corpus, then corrupt one recorded stdout digest
    run.measure("shell-session", 1, 0, 0, tiny(), record=True)
    with open(run.EXPECTED_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    data["shell-session"]["betti/tc/qq"]["stdout"] = "0" * 64
    with open(run.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    result, info = run.measure("shell-session", 1, 0, 0, tiny())
    assert not result["correct"]
    assert result["failed"] == 1
    assert info["fail_frac"] == 0.25
    assert "betti/tc/qq" in info["failures"][0]


def test_wrong_answer_check_counts_as_failure(tiny, monkeypatch):
    def wrong_setup(*args):
        out, ops, times = tiny_setup(*args)
        ops[0]["check"]["betti"] = {"0": {"0": 1}}
        return out, ops, times

    monkeypatch.setattr(run, "setup", wrong_setup)
    result, info = run.measure("shell-session", 1, 0, 0, tiny())
    assert result["failed"] == 1
    assert info["failures"] == ["betti/tc/qq: betti check failed"]


def test_timeout_counts_as_failure_not_hang(tiny, monkeypatch):
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.01)
    result, info = run.measure("shell-session", 1, 0, 0, tiny())
    assert result["failed"] == 4
    assert all("timed out" in f for f in info["failures"])


def test_refuses_to_run_without_the_sources(scratch):
    # a directory holding only BENCHMARK.json and perfbench/
    shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), scratch)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shell-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=scratch, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_leading_term_degree():
    assert run._leading_term_degree("z0^2 - z1*z3") == 2
    assert run._leading_term_degree("-3/4*z1*z2^3 + z0") == 4
    assert run._hilbert_dim_degree(["1", "3", "2"]) == (2, 4)
