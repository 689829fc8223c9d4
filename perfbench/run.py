"""Benchmark for cycont: four closed-loop workloads, checked against oracles.

    python3 perfbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is used from ``src/`` without
being installed.  Jobs run one at a time from this process, each started
after the previous one returned (a closed loop with one client).

Workloads (see README.md for why each exists):
  search     ``search()`` on classes of 80k-250k cyclic words
  graph      ``build_exchange_graph`` on 3,780 reversal classes of length 10
  construct  ``construct_singular`` on long, certified and failing vectors
  cli        ``python -m cycont.cli`` across all six subcommands

With ``--trace 0`` a run spends 60% of ``--seconds`` on library jobs and
the rest on CLI calls of the workload's own subcommand, interleaved
(``cli`` spends all of it on CLI calls), then prints the end-to-end
metrics.  With
``--trace 1`` it runs a fixed prefix of the jobs untraced and then traced,
with spans around every library call, and prints the per-layer metrics.
Either way every output is checked, the last line of stdout is one JSON
object, a record of the machine, inputs and metrics is written under
``perfbench/out/``, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import cycle

import inputs
from pace import Paced
from peak_rss import peak_rss_kib
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("search", "graph", "construct", "cli")
LIBRARY_SHARE = 0.6
MIN_CLI_CALLS = {"cli": 100}  # ten samples beyond p90
MIN_PROBE_CALLS = 40
SETUP_REPEATS = 7
IMPORT_REPEATS = 7
TRACE_JOBS = {"search": 4, "graph": 2, "construct": 9}
WORK_UNIT = {"search": "class members scored", "graph": "reversal classes built",
             "construct": "letters constructed", "cli": "invocations"}
LAYERS = ("words", "continuants", "extremal", "singular", "cli")


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu, "commit": _commit()}


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10)[8]


def setup_seconds(cli, payload: bytes) -> float:
    """Seconds of import plus input build, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                          input=payload, env=cli.env, cwd=ROOT, capture_output=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def end_to_end(workload, seconds, spec, cli, W):
    """Library jobs, CLI calls and set-up probes, interleaved over the run.

    The CPU speed of a shared host drifts for seconds at a time, so each
    kind of sample is spread over the whole run rather than taken in one
    block: after every library job, CLI calls run until they have had
    their share of the time, and the set-up probes are spaced evenly.
    Every sample is also scaled to the reference pace (see pace.py); the
    run's length and the record's raw figures are in plain seconds.
    """
    jobs = cycle(W.build(workload, spec)) if workload != "cli" else None
    calls = spec["cli"]
    wants = [W.expected(c["call"]) for c in calls]
    payload = json.dumps(spec).encode()
    cli_share = (1 - LIBRARY_SHARE) / LIBRARY_SHARE
    min_calls = MIN_CLI_CALLS.get(workload, MIN_PROBE_CALLS)
    elapsed = lib_s = work = cli_s = 0.0
    setups, latencies, done, failures = [], [], [], []
    raw = {"setup": [], "cli": []}
    out_bytes = 0

    def call_cli():
        nonlocal elapsed, cli_s, out_bytes
        i = len(latencies) % len(calls)
        code, out, err, _ = paced(cli.invoke, calls[i]["args"])
        elapsed += paced.raw
        cli_s += paced.scaled
        latencies.append(paced.scaled)
        raw["cli"].append(paced.raw)
        out_bytes += len(out)
        failures.extend(f"cli {' '.join(calls[i]['args'])}: {e} {err.decode().strip()}"
                        for e in W.check_cli(calls[i]["call"], code, out, wants[i]))

    with Paced() as paced:
        while True:
            due = min(SETUP_REPEATS, 1 + int(SETUP_REPEATS * elapsed / seconds))
            while len(setups) < due:
                inside = paced(setup_seconds, cli, payload)
                setups.append(inside * paced.factor)
                raw["setup"].append(inside)
            if elapsed >= seconds and len(latencies) >= min_calls:
                break
            if jobs is None or elapsed >= seconds:
                call_cli()
                continue
            job = next(jobs)
            out, amount = paced(W.RUN[workload], job)
            failures.extend(f"{job['id']}: {e}" for e in W.CHECK[workload](job, out))
            del out
            elapsed += paced.raw
            lib_s += paced.scaled
            work += amount
            done.append({"id": job["id"], "seconds": paced.raw, "scaled": paced.scaled,
                         "work": amount})
            while cli_s < cli_share * lib_s:
                call_cli()

        if jobs is None:
            work_per_s = len(latencies) / cli_s
            peak_kib = max(cli.peak_kib(c["args"]) for c in calls)
        else:
            work_per_s = work / lib_s
            peak_kib = peak_rss_kib()
    metrics = {
        "setup_s": statistics.median(setups),
        "work_per_s": work_per_s,
        "peak_rss_mb": peak_kib / 1024,
        "cli_p50_s": statistics.median(latencies),
        "cli_p90_s": p90(latencies),
    }
    attempted = len(done) + len(latencies)
    record = {"jobs_done": done, "setup_samples": setups, "cli_latencies": latencies,
              "raw_seconds": raw, "cli_stdout_bytes": out_bytes}
    shown = {"failed_ratio": len(failures) / attempted, "cli_samples": len(latencies),
             "raw_setup_s": statistics.median(raw["setup"]),
             "raw_cli_p50_s": statistics.median(raw["cli"])}
    return metrics, shown, attempted, failures, record


# -- traced run -------------------------------------------------------------------

def import_seconds(cli) -> float:
    """Fresh-interpreter ``import cycont.cli`` minus a bare interpreter."""
    imports, bare = [], []
    for _ in range(IMPORT_REPEATS):
        imports.append(cli.spawn([sys.executable, "-c", "import cycont.cli"])[3])
        bare.append(cli.spawn([sys.executable, "-c", "pass"])[3])
    return statistics.median(imports) - statistics.median(bare)


def traced(workload, spec, cli, W):
    tracer = Tracer()
    failures = []
    attempted = 0
    calls = spec["cli"]
    if workload == "cli":
        untraced_s = 0.0
        for call in calls:
            untraced_s += cli.invoke(call["args"])[3]
        for i, call in enumerate(calls):
            jid = f"cli-{i}"
            with tracer.span("job", jid), tracer.span("work", jid), \
                    tracer.span("cli.invoke", jid):
                code, out, err, _ = cli.invoke(call["args"])
            errors = W.check_cli(call["call"], code, out, W.expected(call["call"]))
            failures += [f"{jid}: {e}" for e in errors]
        attempted += len(calls)
        untraced_rate = len(calls) / untraced_s
        traced_rate = len(calls) / tracer.durations("work")
        untraced_job_s = untraced_s
    else:
        jobs = W.build(workload, spec)[:TRACE_JOBS[workload]]
        untraced_job_s = work = 0.0
        for job in jobs:
            t0 = time.perf_counter()
            _, amount = W.RUN[workload](job)
            untraced_job_s += time.perf_counter() - t0
            work += amount
        for job in jobs:
            with tracer.span("job", job["id"]):
                out, _ = W.TRACED[workload](tracer, job)
            failures += [f"{job['id']}: {e}" for e in W.CHECK[workload](job, out)]
            del out
        attempted += len(jobs)
        untraced_rate = work / untraced_job_s
        traced_rate = work / tracer.durations("work")

    # The CLI layer, on this workload's own CLI calls.
    import_s = import_seconds(cli)
    stdout_bytes = 0
    for i, call in enumerate(calls):
        with tracer.span("cli.main", f"main-{i}"):
            code, nbytes = W.main_in_process(call["args"])
        stdout_bytes += nbytes
        if code != W.expected(call["call"])[0]:
            failures.append(f"main-{i}: exit code {code}")
    attempted += len(calls)
    tracer.count("cli.main.calls", len(calls))

    self_s = tracer.self_times()
    counts = tracer.counts
    m = {}
    for name in ("words.enumerate_class", "words.split_points", "words.least_rotation_index",
                 "continuants.cyclic_semiregular", "continuants.cyclic_regular",
                 "extremal.search", "extremal.build_exchange_graph", "extremal.classify",
                 "singular.construct_singular", "singular.is_singular", "cli.main"):
        m[name + ".s"] = self_s.get(name, 0.0)
    for name in ("words.enumerate_class.items", "words.split_points.items",
                 "words.least_rotation_index.calls", "continuants.cyclic_semiregular.calls",
                 "continuants.cyclic_regular.calls", "continuants.digits",
                 "continuants.result_bits", "extremal.search.calls",
                 "extremal.build_exchange_graph.calls", "extremal.graph.vertices",
                 "extremal.graph.edges", "extremal.classify.calls",
                 "singular.construct_singular.calls", "singular.is_singular.calls",
                 "cli.main.calls"):
        m[name] = counts.get(name, 0)
    vertices = m["extremal.graph.vertices"]
    m["extremal.graph.edges_per_vertex"] = m["extremal.graph.edges"] / vertices if vertices else 0
    constructs = m["singular.construct_singular.calls"]
    m["singular.construct.success_ratio"] = (
        counts.get("singular.construct.successes", 0) / constructs if constructs else 0)
    m["cli.import_s"] = import_s
    m["cli.stdout_bytes"] = stdout_bytes
    m["tracing.overhead_work_per_s"] = traced_rate - untraced_rate
    layer_s = {layer: sum(v for k, v in self_s.items() if k.startswith(layer + "."))
               for layer in LAYERS}
    # cli.main repeats the workload in-process; shares are of the workload's own spans.
    total = sum(v for k, v in layer_s.items() if k != "cli") or 1.0
    for layer in LAYERS[:-1]:
        m[f"share.{layer}"] = layer_s[layer] / total
    checks = predictions(workload, m, layer_s, untraced_job_s, len(calls))
    m["trace.predictions_missed"] = sum(1 for _, ok in checks if not ok)

    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"trace-{workload}-seed{spec['seed']}.json"))
    record = {"untraced_work_per_s": untraced_rate, "traced_work_per_s": traced_rate,
              "predictions": [[text, ok] for text, ok in checks]}
    shown = {"failed_ratio": len(failures) / attempted}
    return m, shown, attempted, failures, record


def predictions(workload, s, layer_s, untraced_job_s, n_calls):
    """The layer-share predictions of README.md, as (statement, held)."""
    out = []
    if workload == "search":
        out.append(("enumeration plus evaluation take at least half of search()",
                    s["words.enumerate_class.s"] + s["continuants.cyclic_semiregular.s"]
                    + s["continuants.cyclic_regular.s"] >= 0.5 * s["extremal.search.s"]))
        out.append(("no singular spans on search", layer_s["singular"] == 0))
    if workload == "graph":
        out.append(("no continuants spans on graph", layer_s["continuants"] == 0))
        out.append(("no singular spans on graph", layer_s["singular"] == 0))
        out.append(("splits, canonicalisation and classification take at least half "
                    "of the graph build",
                    s["words.split_points.s"] + s["words.least_rotation_index.s"]
                    + s["extremal.classify.s"] >= 0.5 * s["extremal.build_exchange_graph.s"]))
    if workload == "construct":
        out.append(("no words.enumerate_class on construct",
                    s["words.enumerate_class.items"] == 0))
        out.append(("no extremal.search on construct", s["extremal.search.calls"] == 0))
        out.append(("construction, certification and evaluation make up at least 80% "
                    "of the untraced job time",
                    s["singular.construct_singular.s"] + s["singular.is_singular.s"]
                    + layer_s["continuants"] >= 0.8 * untraced_job_s))
    if workload == "cli":
        per_call = untraced_job_s / n_calls
        out.append(("import is at least a third of a CLI call",
                    s["cli.import_s"] >= per_call / 3))
        out.append(("import costs more than main() per call",
                    s["cli.import_s"] > s["cli.main.s"] / n_calls))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cycont", "__init__.py")):
        print(f"cycont sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as W

    if not os.path.abspath(sys.modules["cycont"].__file__).startswith(SRC + os.sep):
        print("cycont was imported from outside the checkout", file=sys.stderr)
        return 2

    # One CPU for this process and its children: pace.py's scaling holds
    # only for samples that run where the pace loops ran.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print(f"running unpinned: {exc}", file=sys.stderr)
    spec = inputs.generate(args.workload, args.seed)
    cli = W.Cli(ROOT)
    if args.trace:
        metrics, shown, attempted, failures, record = traced(args.workload, spec, cli, W)
    else:
        metrics, shown, attempted, failures, record = end_to_end(
            args.workload, args.seconds, spec, cli, W)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    table = declared["per_layer" if args.trace else "end_to_end"]
    units = {d["name"]: d["unit"] for d in table}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }

    info = machine()
    print(f"machine: nproc {info['nproc']}, python {info['python']}, "
          f"cpu {info['cpu']}, commit {info['commit']}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(spec['jobs'])} jobs and {len(spec['cli'])} CLI calls generated")
    if args.workload == "search":
        share = sum(j["constructible"] for j in spec["jobs"]) / len(spec["jobs"])
        print(f"  constructible vectors among the search jobs: {share:.3f}")
    if not args.trace:
        print(f"  work_per_s counts {WORK_UNIT[args.workload]}; "
              f"cli percentiles over {shown['cli_samples']} calls")
        print(f"  times scaled to the reference pace; raw medians: setup "
              f"{shown['raw_setup_s']:.4g} s, cli {shown['raw_cli_p50_s']:.4g} s")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:.6g} {unit}")
    print(f"  {'failed_ratio':40s} {shown['failed_ratio']:.6g} "
          f"({len(failures)} of {attempted})")
    for text, ok in record.get("predictions", []):
        print(f"  prediction {'held' if ok else 'MISSED'}: {text}")
    for line in failures[:20]:
        print(f"  FAILED {line}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"machine": info, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace, "inputs": spec,
                   "result": result, "failures": failures, "detail": record}, fh)
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
