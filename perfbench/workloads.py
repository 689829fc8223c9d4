"""Library jobs, CLI invocations and their correctness checks.

``build`` turns the generator's plain data into library inputs; it is the
part of set-up that ``setup_s`` times after ``import cycont``.  Each
``run_*`` function makes exactly the calls a user of that workload would
make; each ``check_*`` function compares the result with ``reference.py`` and
runs outside the timed region.  ``traced_*`` functions make the same
calls inside spans, then probe each layer from outside: they drain or
repeat the public function that layer exposes, one span per batch.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import time
from itertools import islice

from cycont import (
    CyclicWord,
    SyncKind,
    alphabet_of_size,
    build_exchange_graph,
    classify,
    construct_singular,
    continuant_regular,
    continuant_semiregular,
    cyclic_regular,
    cyclic_semiregular,
    enumerate_class,
    is_singular,
    least_rotation_index,
    search,
    split_points,
    xi_cyclic,
    xi_preimage,
)
from cycont.cli import main as cli_main

import reference

KINDS = {"plain": SyncKind.PLAIN, "alt": SyncKind.ALT}
SIGN = {"regular": 1, "semiregular": -1}
EVALUATE = {"regular": cyclic_regular, "semiregular": cyclic_semiregular}
# Splits drained per certified word in the traced run; the full O(n^2)
# stream of a 300-letter word would dominate the run.
SPLIT_PROBE_CAP = 20_000


def build(workload: str, spec: dict) -> list[dict]:
    """Library inputs (alphabets with values, Parikh vectors) per job."""
    jobs = []
    for i, job in enumerate(spec["jobs"]):
        counts = job["counts"]
        values = job.get("values")
        alphabet = alphabet_of_size(len(counts), values)
        jobs.append({"id": f"{workload}-{i}", "spec": job,
                     "vector": alphabet.vector(counts)})
    return jobs


# -- library jobs: run -----------------------------------------------------------
#
# Each returns (output, work) where work is in the workload's unit.

def run_search(job):
    s = job["spec"]
    report = search(job["vector"], valuation=s["valuation"], direction=s["direction"])
    return report, report.class_size


def run_graph(job):
    graph = build_exchange_graph(job["vector"], KINDS[job["spec"]["kind"]])
    return graph, len(graph.vertices)


def run_construct(job):
    kind = job["spec"]["kind"]
    word, _ = construct_singular(job["vector"])
    out = {"word": word}
    if word is not None and kind == "long":
        for valuation, evaluate in EVALUATE.items():
            out[valuation] = evaluate(word)
    elif word is not None and kind == "certify":
        out["singular"] = is_singular(word)
    return out, len(word) if word is not None else 0


RUN = {"search": run_search, "graph": run_graph, "construct": run_construct}


# -- library jobs: check ---------------------------------------------------------

def _counts_of(t, k):
    out = [0] * k
    for i in t:
        out[i] += 1
    return out


def check_search(job, report) -> list[str]:
    s = job["spec"]
    counts, values = s["counts"], s["values"]
    sign = SIGN[s["valuation"]]
    errors = []
    if report.class_size != reference.necklace_count(counts):
        errors.append("class_size differs from the cycle-index count")
    optima = {w.indices for w in report.optima}
    for t in optima:
        if _counts_of(t, len(counts)) != counts:
            errors.append(f"optimum {t} has the wrong Parikh vector")
        if reference.cyclic_value([values[i] for i in t], sign) != report.value:
            errors.append(f"optimum {t} does not have the reported value")
        if reference.canonical(t[::-1]) not in optima:
            errors.append(f"optimum set is not closed under reversal at {t}")
    if s["valuation"] == "semiregular" and s["direction"] == "max":
        for w, cert in zip(report.optima, report.certificates):
            if not (cert.in_S and reference.is_singular(w.indices)):
                errors.append(f"semiregular maximum {w} is not in S")
    # No shuffled class member may beat the optimum.
    rng = random.Random(repr(counts))
    letters = [i for i, c in enumerate(counts) for _ in range(c)]
    for _ in range(200):
        rng.shuffle(letters)
        v = reference.cyclic_value([values[i] for i in letters], sign)
        if (v > report.value) if s["direction"] == "max" else (v < report.value):
            errors.append(f"a class member beats the reported {s['direction']}")
            break
    return errors


def check_graph(job, graph) -> list[str]:
    s = job["spec"]
    errors = []
    if len(graph.vertices) != reference.reversal_class_count(s["counts"]):
        errors.append("vertex count differs from the reversal-class count")
    edges = {v.indices: [t.indices for t in graph.successors(v)] for v in graph.vertices}
    if not reference.is_acyclic(edges):
        errors.append("exchange graph has a cycle")
    sinks = [v for v, outs in edges.items() if not outs]
    if not sinks:
        errors.append("exchange graph has no sink")
    alt = s["kind"] == "alt"
    for t in sinks:
        if not reference.is_singular(t, alt):
            errors.append(f"sink {t} is not singular")
    return errors


def check_construct(job, out) -> list[str]:
    s = job["spec"]
    word = out["word"]
    errors = []
    if (word is not None) != reference.descent(s["counts"])[0]:
        errors.append("construction outcome differs from the descent on counts")
    if word is None:
        return errors
    if _counts_of(word.indices, len(s["counts"])) != s["counts"]:
        errors.append("constructed word has the wrong Parikh vector")
    if s["kind"] == "long":
        # Evaluate from a random rotation: the value is rotation-invariant.
        t = word.indices
        r = random.Random(len(t)).randrange(len(t))
        vals = [s["values"][i] for i in t[r:] + t[:r]]
        for valuation, sign in SIGN.items():
            if reference.cyclic_value(vals, sign) != out[valuation]:
                errors.append(f"{valuation} value differs from the matrix trace")
    if s["kind"] == "certify" and not out["singular"]:
        errors.append("constructed word is not certified singular")
    return errors


CHECK = {"search": check_search, "graph": check_graph, "construct": check_construct}


# -- library jobs: traced probes -------------------------------------------------

def _eval_probe(tracer, job_id, words, values, valuation):
    name = f"continuants.cyclic_{valuation}"
    evaluate = EVALUATE[valuation]
    bits = digits = 0
    with tracer.span(name, job_id):
        for w in words:
            v = evaluate(w, values)
            bits += v.bit_length()
            digits += len(w)
    tracer.count(name + ".calls", len(words))
    tracer.count("continuants.result_bits", bits)
    tracer.count("continuants.digits", digits)


def _classify_probe(tracer, job_id, words):
    with tracer.span("extremal.classify", job_id):
        for w in words:
            classify(w)
    tracer.count("extremal.classify.calls", len(words))


def _enumerate_probe(tracer, job_id, vector):
    with tracer.span("words.enumerate_class", job_id):
        words = list(enumerate_class(vector))
    tracer.count("words.enumerate_class.items", len(words))
    return words


def _split_probe(tracer, job_id, words, cap=None):
    items = 0
    with tracer.span("words.split_points", job_id):
        for w in words:
            items += sum(1 for _ in islice(split_points(w), cap))
    tracer.count("words.split_points.items", items)


def _booth_probe(tracer, job_id, sequences):
    with tracer.span("words.least_rotation_index", job_id):
        for t in sequences:
            least_rotation_index(t)
    tracer.count("words.least_rotation_index.calls", len(sequences))


def traced_search(tracer, job):
    s, jid = job["spec"], job["id"]
    with tracer.span("work", jid):
        with tracer.span("extremal.search", jid):
            report, work = run_search(job)
    tracer.count("extremal.search.calls")
    words = _enumerate_probe(tracer, jid, job["vector"])
    _eval_probe(tracer, jid, words, tuple(s["values"]), s["valuation"])
    _classify_probe(tracer, jid, report.optima)
    return report, work


def traced_graph(tracer, job):
    jid = job["id"]
    with tracer.span("work", jid):
        with tracer.span("extremal.build_exchange_graph", jid):
            graph, work = run_graph(job)
    tracer.count("extremal.build_exchange_graph.calls")
    edges = sum(len(graph.successors(v)) for v in graph.vertices)
    tracer.count("extremal.graph.vertices", len(graph.vertices))
    tracer.count("extremal.graph.edges", edges)
    _enumerate_probe(tracer, jid, job["vector"])
    _split_probe(tracer, jid, graph.vertices)
    # Two canonicalisations per edge, as the build makes: the target and its reversal.
    targets = [t.indices for v in graph.vertices for t in graph.successors(v)]
    _booth_probe(tracer, jid, targets + [t[::-1] for t in targets])
    _classify_probe(tracer, jid, graph.vertices)
    return graph, work


def traced_construct(tracer, job):
    s, jid = job["spec"], job["id"]
    out = {}
    with tracer.span("work", jid):
        with tracer.span("singular.construct_singular", jid):
            word, _ = construct_singular(job["vector"])
        out["word"] = word
        if word is not None and s["kind"] == "long":
            for valuation, evaluate in EVALUATE.items():
                name = f"continuants.cyclic_{valuation}"
                with tracer.span(name, jid):
                    out[valuation] = evaluate(word)
                tracer.count(name + ".calls")
                tracer.count("continuants.result_bits", out[valuation].bit_length())
                tracer.count("continuants.digits", len(word))
        elif word is not None and s["kind"] == "certify":
            with tracer.span("singular.is_singular", jid):
                out["singular"] = is_singular(word)
            tracer.count("singular.is_singular.calls")
    tracer.count("singular.construct_singular.calls")
    tracer.count("singular.construct.successes", word is not None)
    if word is not None and s["kind"] == "long":
        _booth_probe(tracer, jid, [word.indices, word.indices[::-1]])
    elif word is not None and s["kind"] == "certify":
        _split_probe(tracer, jid, [word], SPLIT_PROBE_CAP)
        _classify_probe(tracer, jid, [word])
    return out, len(word) if word is not None else 0


TRACED = {"search": traced_search, "graph": traced_graph, "construct": traced_construct}


# -- CLI ----------------------------------------------------------------------------

class Cli:
    """Runs ``python -m cycont.cli`` from the checkout, one call at a time."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)

    def spawn(self, argv: list[str]):
        """(exit code, stdout, stderr, seconds from spawn to exit)."""
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0

    def invoke(self, args: list[str]):
        return self.spawn([sys.executable, "-m", "cycont.cli", *args])

    def peak_kib(self, args: list[str]) -> int:
        """Peak resident memory of one call, through ``peak_rss.py``."""
        wrapper = os.path.join(os.path.dirname(os.path.abspath(__file__)), "peak_rss.py")
        _, _, err, _ = self.spawn([sys.executable, wrapper, *args])
        last = err.decode().strip().splitlines()[-1]
        if not last.startswith("peak_rss_kib "):
            raise RuntimeError(f"no peak reported for {args}: {last}")
        return int(last.split()[1])


def _alphabet(call):
    return alphabet_of_size(call["k"], call.get("values"))


def expected(call: dict):
    """(exit code, normalised output) computed in-process through the library."""
    op = call["op"]
    if op == "eval":
        w = _alphabet(call).word(call["word"])
        results = {
            "regular": continuant_regular(w),
            "semiregular": continuant_semiregular(w),
            "cyclic-regular": cyclic_regular(CyclicWord(w)),
            "cyclic-semiregular": cyclic_semiregular(CyclicWord(w)),
        }
        if call["format"] == "text":
            return 0, results["cyclic-semiregular"]
        return 0, results
    if op == "classify":
        w = CyclicWord(_alphabet(call).word(call["word"]))
        m = classify(w)
        return 0, [str(w), m.in_S, m.in_S_alt, m.in_U, m.in_U_alt]
    if op == "search":
        vector = alphabet_of_size(len(call["counts"]), call["values"]).vector(call["counts"])
        r = search(vector, valuation=call["valuation"], direction=call["direction"])
        optima = [[str(w), m.in_S, m.in_S_alt, m.in_U, m.in_U_alt]
                  for w, m in zip(r.optima, r.certificates)]
        if call["format"] == "csv":
            return 0, [r.value, optima]
        return 0, [r.value, r.class_size, optima]
    if op == "construct":
        word, _ = construct_singular(alphabet_of_size(len(call["counts"])).vector(call["counts"]))
        return (0, str(word)) if word is not None else (3, None)
    if op == "graph":
        g = build_exchange_graph(alphabet_of_size(len(call["counts"])).vector(call["counts"]),
                                 KINDS[call["kind"]])
        edges = {str(v): [str(t) for t in g.successors(v)] for v in g.vertices}
        return 0, [edges, [str(v) for v in g.sinks()], g.is_acyclic()]
    if op == "xi":
        w = CyclicWord(_alphabet(call).word(call["word"]))
        r = xi_preimage(call["letter"], w) if call["inverse"] else xi_cyclic(call["letter"], w)
        return (0, str(r)) if r is not None else (3, None)
    raise ValueError(f"unknown call {op!r}")


def normalise(call: dict, stdout: str):
    """The CLI's stdout reduced to the shape ``expected`` returns."""
    op = call["op"]
    if op == "eval" and call["format"] == "text":
        return int(stdout.strip())
    if op == "search" and call["format"] == "csv":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        flag = lambda x: x == "True"  # noqa: E731
        return [int(rows[0]["value"]),
                [[r["word"], flag(r["in_S"]), flag(r["in_S_alt"]), flag(r["in_U"]),
                  flag(r["in_U_alt"])] for r in rows]]
    d = json.loads(stdout)
    if op == "eval":
        return d["results"]
    if op == "classify":
        return [d["canonical"], d["in_S"], d["in_S_alt"], d["in_U"], d["in_U_alt"]]
    if op == "search":
        return [d["value"], d["class_size"],
                [[o["word"], o["in_S"], o["in_S_alt"], o["in_U"], o["in_U_alt"]]
                 for o in d["optima"]]]
    if op == "construct":
        return d["outcome"]
    if op == "graph":
        return [d["edges"], d["sinks"], d["acyclic"]]
    if op == "xi":
        return d["result"]
    raise ValueError(f"unknown call {op!r}")


def check_cli(call: dict, code: int, stdout: bytes, want) -> list[str]:
    want_code, want_value = want
    if code != want_code:
        return [f"exit code {code}, expected {want_code}"]
    if want_value is None:
        return []
    try:
        got = normalise(call, stdout.decode())
    except (ValueError, KeyError, IndexError) as exc:
        return [f"output does not parse: {exc}"]
    return [] if got == want_value else ["output differs from the library result"]


def main_in_process(args: list[str]) -> tuple[int, int]:
    """(exit code, stdout bytes) of ``cycont.cli.main`` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(args)
    return code, len(buf.getvalue().encode())
