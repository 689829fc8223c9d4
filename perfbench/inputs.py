"""Seeded input generator for the four workloads.

Every input is plain data (lists, strings, ints), drawn from
``random.Random(f"{workload}:{seed}")``, so a seed names one input set
exactly and the set can be recorded next to the result.  Vectors are drawn
by class size, counted in advance by the formulas in reference.py rather
than enumerated, and by length, from narrow bands in a fixed cycle of
strata: every prefix of a job list mixes sizes, valuations and directions
the same way whatever the seed, which keeps work comparable across seeds.
"""

from __future__ import annotations

import random
from math import gcd, log2

import reference

LETTERS = "abcdefghijklmnopqrstuvwxyz"

# search: class members (necklaces) per job, counted by the cycle index.
# Jobs use the CLI's largest default total, so that every job scores words
# of the same length and the cost per member does not hang on the seed.
SEARCH_TOTAL = 14
SEARCH_STRATA = {
    "top": (230_000, 250_000),
    "high": (170_000, 230_000),
    "mid": (120_000, 170_000),
    "low": (80_000, 120_000),
}
# (stratum, valuation, direction, constructible only)
SEARCH_CYCLE = (
    ("top", "semiregular", "max", False),
    ("low", "regular", "min", False),
    ("mid", "semiregular", "max", True),
    ("high", "regular", "max", False),
    ("low", "semiregular", "min", False),
    ("mid", "regular", "min", False),
    ("high", "semiregular", "max", True),
    ("low", "regular", "max", False),
)

# graph: reversal classes (vertices) per job, at one length: the cost per
# vertex grows steeply with the length, and the peak memory with the count.
GRAPH_VERTICES = (3_700, 3_800)
GRAPH_LENGTH = 10

# construct: (kind, lowest total, highest total)
# Narrow bands: evaluation grows as the square of the length and
# certification as the cube, so wide bands would let the seed set the rate.
CONSTRUCT_CYCLE = (
    ("long", 14_000, 16_000),
    ("certify", 95, 105),
    ("fail", 50, 2_000),
    ("long", 27_000, 29_000),
    ("certify", 175, 185),
    ("fail", 50, 2_000),
    ("long", 43_000, 45_000),
    ("certify", 255, 265),
    ("fail", 50, 2_000),
)
# Descents longer than this unwind through too many insertion maps for the
# job time to track the word length.
CONSTRUCT_MAX_STEPS = 60
# Mean bits per letter of the long words' values, and the letters of the
# descent's intermediate words per letter of the result: the trace holds
# every one of them, which sets both the unwinding time and the peak memory.
LONG_BITS = (2.4, 2.6)
LONG_AREA = (2.5, 3.5)

CYCLES = 6

# CLI calls of the library workloads, in narrow bands of class size,
# reversal classes and letters; the large ones at one length.
SMALL_SEARCH = (400, 800)
SMALL_GRAPH = (30, 60)
SMALL_GRAPH_TOTAL = 8
SMALL_CONSTRUCT = (80, 120)
LARGE_TOTAL = 12
LARGE_SEARCH = (4_500, 4_700)
LARGE_GRAPH = (330, 350)
LARGE_CONSTRUCT = (7_500, 8_500)
# The JSON trace lists one word per descent step.
LARGE_CONSTRUCT_STEPS = (20, 25)


def compositions(total: int, parts: int):
    """Tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def _values(rng: random.Random, k: int, low: int) -> list[int]:
    """k strictly increasing values drawn from low .. low + k + 5."""
    return sorted(rng.sample(range(low, low + k + 6), k))


def _split(rng: random.Random, total: int, k: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _vector_str(counts) -> str:
    return ",".join(map(str, counts))


def _word(rng: random.Random, k: int, n: int) -> str:
    return "".join(rng.choice(LETTERS[:k]) for _ in range(n))


def _draw_constructible(rng, lo, hi, letters, primitive=False, succeed=True,
                        steps=(0, CONSTRUCT_MAX_STEPS), area=None):
    while True:
        counts = _split(rng, rng.randint(lo, hi), rng.choice(letters))
        ok, totals = reference.descent(counts)
        if ok != succeed or not steps[0] <= len(totals) <= steps[1]:
            continue
        if area and not area[0] <= sum(totals) / sum(counts) <= area[1]:
            continue
        if primitive:
            g = 0
            for c in counts:
                g = gcd(g, c)
            if g != 1:
                continue
        return counts


def _search_band():
    band = {name: [] for name in SEARCH_STRATA}
    for counts in (c for k in range(1, SEARCH_TOTAL + 1)
                   for c in compositions(SEARCH_TOTAL, k)):
        size = reference.necklace_count(counts)
        for name, (lo, hi) in SEARCH_STRATA.items():
            if lo <= size <= hi:
                band[name].append((counts, size))
    return band


def _graph_band():
    return [(counts, size)
            for k in range(1, GRAPH_LENGTH + 1)
            for counts in compositions(GRAPH_LENGTH, k)
            if GRAPH_VERTICES[0] <= (size := reference.reversal_class_count(counts))
            <= GRAPH_VERTICES[1]]


# -- library jobs ---------------------------------------------------------------

def search_jobs(rng: random.Random, cycles: int = CYCLES) -> list[dict]:
    band = _search_band()
    jobs = []
    for _ in range(cycles):
        for stratum, valuation, direction, constructible in SEARCH_CYCLE:
            pool = band[stratum]
            if constructible:
                pool = [p for p in pool if reference.descent(p[0])[0]]
            counts, size = rng.choice(pool)
            low = 2 if valuation == "semiregular" else 1
            jobs.append({
                "counts": list(counts),
                "values": _values(rng, len(counts), low),
                "valuation": valuation,
                "direction": direction,
                "class_size": size,
                "constructible": reference.descent(counts)[0],
                "stratum": stratum,
            })
    return jobs


def graph_jobs(rng: random.Random, cycles: int = CYCLES) -> list[dict]:
    band = _graph_band()
    jobs = []
    for _ in range(cycles):
        counts, size = rng.choice(band)
        kinds = ["plain", "alt"]
        rng.shuffle(kinds)
        jobs += [{"counts": list(counts), "kind": kind, "vertices": size} for kind in kinds]
    return jobs


def construct_jobs(rng: random.Random, cycles: int = CYCLES) -> list[dict]:
    jobs = []
    for _ in range(cycles):
        for kind, lo, hi in CONSTRUCT_CYCLE:
            if kind == "long":
                # Evaluation time grows with the bits per letter as well.
                while True:
                    counts = _draw_constructible(rng, lo, hi, (3, 4, 5), area=LONG_AREA)
                    values = _values(rng, len(counts), 2)
                    bits = sum(c * log2(v) for c, v in zip(counts, values)) / sum(counts)
                    if LONG_BITS[0] <= bits <= LONG_BITS[1]:
                        break
            elif kind == "certify":
                counts = _draw_constructible(rng, lo, hi, (3, 4), primitive=True)
            else:
                counts = _draw_constructible(rng, lo, hi, (3, 4, 5), succeed=False)
            if kind != "long":
                values = _values(rng, len(counts), 2)
            jobs.append({
                "counts": counts,
                "values": values,
                "kind": kind,
                "succeeds": kind != "fail",
            })
    return jobs


# -- CLI invocations ------------------------------------------------------------
#
# Each invocation is {"args": [...], "call": {...}}: the CLI arguments after
# the subcommand's program name, and the library call the output is checked
# against.  Sizes stay within the CLI's default --limit.

def _random_counts(rng, total=None):
    k = rng.randint(2, 5)
    return _split(rng, total or rng.randint(k, SEARCH_TOTAL), k)


def _search_call(rng, lo, hi, fmt="json", total=None):
    while True:
        counts = _random_counts(rng, total)
        k = len(counts)
        if lo <= reference.necklace_count(counts) <= hi:
            break
    valuation = rng.choice(("regular", "semiregular"))
    direction = rng.choice(("max", "min"))
    values = _values(rng, k, 2)
    args = ["search", "--vector", _vector_str(counts), "--values",
            _vector_str(values), f"--{valuation}", f"--{direction}"]
    if fmt != "json":
        args += ["--format", fmt]
    return {"args": args, "call": {"op": "search", "counts": counts, "values": values,
                                   "valuation": valuation, "direction": direction,
                                   "format": fmt}}


def _graph_call(rng, lo, hi, kind=None, total=None):
    while True:
        counts = _random_counts(rng, total)
        if lo <= reference.reversal_class_count(counts) <= hi:
            break
    kind = kind or rng.choice(("plain", "alt"))
    return {"args": ["graph", "--vector", _vector_str(counts), f"--{kind}"],
            "call": {"op": "graph", "counts": counts, "kind": kind}}


def _construct_call(rng, lo, hi, succeed=True, steps=(0, CONSTRUCT_MAX_STEPS)):
    counts = _draw_constructible(rng, lo, hi, (2, 3, 4, 5), succeed=succeed, steps=steps)
    return {"args": ["construct", "--vector", _vector_str(counts), "--format", "json"],
            "call": {"op": "construct", "counts": counts}}


def _eval_call(rng, fmt="json"):
    k = rng.randint(2, 5)
    word = _word(rng, k, rng.randint(8, 24))
    values = _values(rng, k, 2)
    args = ["eval", "--word", word, "--alphabet", LETTERS[:k], "--values",
            _vector_str(values)]
    if fmt == "json":
        args += ["--format", "json"]
    else:
        args += ["--cyclic-semiregular"]
    return {"args": args, "call": {"op": "eval", "word": word, "k": k,
                                   "values": values, "format": fmt}}


def _classify_call(rng):
    k = rng.randint(2, 5)
    word = _word(rng, k, rng.randint(8, 16))
    return {"args": ["classify", "--word", word, "--alphabet", LETTERS[:k],
                     "--format", "json"],
            "call": {"op": "classify", "word": word, "k": k}}


def _xi_call(rng, inverse):
    k = rng.randint(3, 5)
    word = _word(rng, k, rng.randint(6, 16))
    letter = rng.choice(LETTERS[:k])
    args = ["xi", "--word", word, "--letter", letter, "--alphabet", LETTERS[:k],
            "--cyclic", "--format", "json"]
    if inverse:
        args.append("--inverse")
    return {"args": args, "call": {"op": "xi", "word": word, "k": k,
                                   "letter": letter, "inverse": inverse}}


def _large_graphs(rng):
    """One large graph payload, plain and alternating."""
    plain = _graph_call(rng, *LARGE_GRAPH, kind="plain", total=LARGE_TOTAL)
    alt = {"args": plain["args"][:-1] + ["--alt"], "call": dict(plain["call"], kind="alt")}
    return [plain, alt]


def cli_calls(workload: str, rng: random.Random) -> list[dict]:
    """One cycle of CLI invocations for the workload.

    The library workloads run their own subcommand: six small calls and two
    large ones, so the slow fifth of the cycle holds the 90th percentile
    away from the boundary between the two sizes.  Large calls come from
    narrow bands of one length, so their time does not hang on the seed.
    The ``cli`` workload covers all six subcommands, mostly as JSON, with
    two large graph payloads in sixteen calls.
    """
    if workload == "search":
        return ([_search_call(rng, *SMALL_SEARCH) for _ in range(6)]
                + [_search_call(rng, *LARGE_SEARCH, total=LARGE_TOTAL) for _ in range(2)])
    if workload == "graph":
        return ([_graph_call(rng, *SMALL_GRAPH, total=SMALL_GRAPH_TOTAL) for _ in range(6)]
                + _large_graphs(rng))
    if workload == "construct":
        return ([_construct_call(rng, *SMALL_CONSTRUCT) for _ in range(4)]
                + [_construct_call(rng, *SMALL_CONSTRUCT, succeed=False) for _ in range(2)]
                + [_construct_call(rng, *LARGE_CONSTRUCT, steps=LARGE_CONSTRUCT_STEPS)
                   for _ in range(2)])
    return [
        _eval_call(rng), _eval_call(rng), _eval_call(rng), _eval_call(rng, "text"),
        _classify_call(rng), _classify_call(rng), _classify_call(rng),
        _search_call(rng, 200, 2_000), _search_call(rng, 200, 2_000, "csv"),
        _construct_call(rng, 20, 200), _construct_call(rng, 20, 200, succeed=False),
        _xi_call(rng, False), _xi_call(rng, True),
        _graph_call(rng, 20, 120), *_large_graphs(rng),
    ]


def generate(workload: str, seed: int) -> dict:
    """The full, JSON-serialisable input set of one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    make = {"search": search_jobs, "graph": graph_jobs,
            "construct": construct_jobs}.get(workload)
    jobs = make(rng) if make else []
    return {"workload": workload, "seed": seed, "jobs": jobs,
            "cli": cli_calls(workload, rng)}
