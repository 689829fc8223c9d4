"""Tiny-size smoke test of the benchmark: python3 -m pytest perfbench/test_smoke.py

Runs every workload's jobs, checks, traced probes and CLI calls on inputs
far smaller than the benchmark's, and checks the oracles against the
library on small classes.  Not part of the main test suite.
"""

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402
from cycont import (  # noqa: E402
    alphabet_of_size,
    construct_singular,
    cyclic_regular,
    cyclic_semiregular,
    enumerate_class,
    reversal_class_representative,
)

TINY = {
    "search": [
        {"counts": [2, 2, 1], "values": [2, 3, 5], "valuation": "semiregular",
         "direction": "max", "class_size": 6, "constructible": True, "stratum": "tiny"},
        {"counts": [3, 1, 2], "values": [1, 2, 4], "valuation": "regular",
         "direction": "min", "class_size": 10, "constructible": False, "stratum": "tiny"},
    ],
    "graph": [{"counts": [2, 2, 2], "kind": "plain", "vertices": 11},
              {"counts": [2, 2, 1, 1], "kind": "alt", "vertices": 48}],
    "construct": [
        {"counts": [300, 200, 100], "values": [2, 3, 7], "kind": "long", "succeeds": True},
        {"counts": [3, 3, 4, 2], "values": [2, 3, 4, 5], "kind": "certify", "succeeds": True},
        {"counts": [1, 1, 1], "values": [2, 3, 4], "kind": "fail", "succeeds": False},
    ],
}


def tiny_spec(workload, calls=2):
    rng = random.Random(0)
    return {"workload": workload, "seed": 0, "jobs": TINY.get(workload, []),
            "cli": inputs.cli_calls(workload, rng)[:calls]}


@pytest.mark.parametrize("counts", [(2, 2, 2), (3, 3, 2), (1, 2, 3), (2, 2, 2, 2), (4, 2),
                                    (1, 1, 1, 1, 1), (6,), (3, 1, 2, 2)])
def test_counts_match_enumeration(counts):
    words = list(enumerate_class(alphabet_of_size(len(counts)).vector(counts)))
    assert len(words) == reference.necklace_count(counts)
    reps = {reversal_class_representative(w) for w in words}
    assert len(reps) == reference.reversal_class_count(counts)


def test_values_and_descent_match_library():
    rng = random.Random(1)
    for _ in range(200):
        k = rng.randint(1, 4)
        counts = [rng.randint(1, 9) for _ in range(k)]
        vector = alphabet_of_size(k, list(range(2, 2 + k))).vector(counts)
        word, trace = construct_singular(vector)
        ok, totals = reference.descent(counts)
        assert ok == (word is not None)
        assert totals == [step.vector.total for step in trace.steps]
        w = next(iter(enumerate_class(vector)))
        vals = [2 + i for i in w.indices]
        assert reference.cyclic_value(vals, 1) == cyclic_regular(w)
        assert reference.cyclic_value(vals, -1) == cyclic_semiregular(w)


@pytest.mark.parametrize("workload", ["search", "graph", "construct"])
def test_jobs_pass_their_checks(workload):
    for job in W.build(workload, tiny_spec(workload)):
        out, work = W.RUN[workload](job)
        assert work >= 0
        assert W.CHECK[workload](job, out) == []


def test_checks_catch_a_wrong_answer():
    job = W.build("search", tiny_spec("search"))[0]
    report, _ = W.run_search(job)
    wrong = report.__class__(**{**report.__dict__, "value": report.value + 1})
    assert W.check_search(job, wrong)


@pytest.mark.parametrize("workload", ["search", "graph", "construct", "cli"])
def test_cli_calls_match_library(workload):
    cli = W.Cli(ROOT)
    for call in tiny_spec(workload, calls=3)["cli"]:
        code, out, err, seconds = cli.invoke(call["args"])
        assert seconds > 0
        assert W.check_cli(call["call"], code, out, W.expected(call["call"])) == [], err
    assert cli.peak_kib(call["args"]) > 1024


def test_generator_is_seeded():
    assert inputs.generate("construct", 3) == inputs.generate("construct", 3)
    assert inputs.generate("construct", 3) != inputs.generate("construct", 4)


def test_traced_run_reports_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    for workload in ("construct", "cli"):
        metrics, _, attempted, failures, record = run.traced(
            workload, tiny_spec(workload), W.Cli(ROOT), W)
        assert failures == [] and attempted > 0
        assert set(metrics) == declared
        assert metrics["trace.predictions_missed"] == sum(
            1 for _, held in record["predictions"] if not held)


def test_end_to_end_run_reports_every_declared_metric(monkeypatch):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["end_to_end"]}
    monkeypatch.setattr(run, "MIN_PROBE_CALLS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    metrics, shown, attempted, failures, _ = run.end_to_end(
        "graph", 0.01, tiny_spec("graph"), W.Cli(ROOT), W)
    assert failures == [] and shown["failed_ratio"] == 0
    assert set(metrics) == declared
    assert all(v > 0 for v in metrics.values())
