"""Command-line front end: eval, classify, search, construct, graph, xi.

Exit codes: 0 success, 1 usage or parse error or stdout closed early (as
by ``| head``, which leaves stderr empty), 2 domain error (including
work- and size-guard refusals), 3 algorithmic no-result (failed
construction, absent preimage).  Machine output is JSON (``--format
json``); ``search`` also supports CSV rows, one per optimum.  The CLI keeps
no guards of its own.  The library refuses, with exit 2, a search or graph
whose work would pass ``extremal.WORK_CAP`` (about a minute), a word whose
cut table would not fit in memory, and a construction whose descent passes
``singular.DESCENT_AREA_CAP``.  Integers of any length are printed.

The alphabet is resolved from ``--alphabet`` (characters, or comma-separated
tokens), else defaults to a,b,c,... sized by ``--values`` or the vector, else
for word commands to the sorted distinct letters of the word itself.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict
from typing import Sequence

from .continuants import (
    DomainError,
    continuant_regular,
    continuant_semiregular,
    cyclic_regular,
    cyclic_semiregular,
)
from .extremal import SyncKind, build_exchange_graph, classify, search
from .singular import construct_singular, xi_cyclic, xi_linear, xi_preimage
from .words import (
    CyclicWord,
    LinearWord,
    OrderedAlphabet,
    ParikhVector,
    _tokens,
    alphabet_of_size,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NO_RESULT = 3

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_alphabet(args, size: int | None = None) -> OrderedAlphabet:
    text = getattr(args, "values", None)  # construct and graph take none
    try:
        values = tuple(int(v) for v in text.split(",")) if text else None
    except ValueError:
        raise CliError(f"cannot parse values {text!r}", EXIT_USAGE)
    try:
        if args.alphabet:
            return OrderedAlphabet(tuple(_tokens(args.alphabet)), values)
        if values is not None:
            return alphabet_of_size(len(values), values)
        if size is not None:
            return alphabet_of_size(size)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    symbols = tuple(sorted(set(_tokens(args.word))))
    if not symbols:
        raise CliError("empty word", EXIT_DOMAIN)
    return OrderedAlphabet(symbols)


def _word_input(args) -> LinearWord:
    """The non-empty ``--word`` of eval, classify and xi, over its alphabet."""
    alphabet = _resolve_alphabet(args)
    try:
        word = alphabet.word(args.word)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    if len(word) == 0:
        raise CliError("empty word", EXIT_DOMAIN)
    return word


def _vector_input(args) -> ParikhVector:
    """The non-zero ``--vector`` of search, construct and graph."""
    alphabet = _resolve_alphabet(args, size=args.vector.count(",") + 1)
    try:
        counts = tuple(int(c) for c in args.vector.split(","))
        vector = ParikhVector(alphabet, counts)
    except ValueError as exc:
        raise CliError(f"bad vector {args.vector!r}: {exc}", EXIT_USAGE) from None
    if vector.total < 1:
        raise CliError("zero vector", EXIT_DOMAIN)
    return vector


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(*text_lines, sep="\n")


# -- subcommands ---------------------------------------------------------------

_EVAL_KINDS = ("regular", "semiregular", "cyclic-regular", "cyclic-semiregular")


def cmd_eval(args) -> int:
    word = _word_input(args)
    omega = CyclicWord(word)
    alphabet = word.alphabet
    requested = [k for k in _EVAL_KINDS if getattr(args, k.replace("-", "_"))]
    if not requested:
        requested = list(_EVAL_KINDS)
        if alphabet.values and min(alphabet.values) < 2:
            requested = ["regular", "cyclic-regular"]
    evaluators = {
        "regular": lambda: continuant_regular(word),
        "semiregular": lambda: continuant_semiregular(word),
        "cyclic-regular": lambda: cyclic_regular(omega),
        "cyclic-semiregular": lambda: cyclic_semiregular(omega),
    }
    results = {kind: evaluators[kind]() for kind in requested}
    payload = {
        "word": str(word),
        "representative": str(omega),
        "alphabet": list(alphabet.symbols),
        "values": list(alphabet.values) if alphabet.values else None,
        "results": results,
    }
    if len(results) == 1:
        lines = [str(next(iter(results.values())))]
    else:
        lines = [f"{kind} = {value}" for kind, value in results.items()]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_classify(args) -> int:
    word = _word_input(args)
    omega = CyclicWord(word)
    membership = asdict(classify(omega))
    payload = {"word": str(word), "canonical": str(omega), **membership}
    lines = [f"canonical {omega}"] + [
        f"{name} {str(val).lower()}" for name, val in membership.items()
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_search(args) -> int:
    vector = _vector_input(args)
    alphabet = vector.alphabet
    report = search(vector, valuation=args.valuation, direction=args.direction)
    payload = {
        "vector": list(vector.counts),
        "alphabet": list(alphabet.symbols),
        "values": list(alphabet.values) if alphabet.values else None,
        "valuation": report.valuation,
        "direction": report.direction,
        "value": report.value,
        "class_size": report.class_size,
        "unique_up_to_reversal": report.unique_up_to_reversal,
        "optima": [
            {"word": str(w), **asdict(m)}
            for w, m in zip(report.optima, report.certificates)
        ],
    }
    if args.format == "csv":
        out = csv.writer(sys.stdout, lineterminator="\n")
        out.writerow(["word", "value", "in_S", "in_S_alt", "in_U", "in_U_alt",
                      "unique_up_to_reversal"])
        for w, m in zip(report.optima, report.certificates):
            out.writerow([str(w), report.value, *asdict(m).values(),
                          report.unique_up_to_reversal])
        return EXIT_OK
    lines = [
        f"{report.direction} {report.valuation} value {report.value} "
        f"over {report.class_size} cyclic words",
        *(f"optimum {w}" for w in report.optima),
        f"unique_up_to_reversal {str(report.unique_up_to_reversal).lower()}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_construct(args) -> int:
    vector = _vector_input(args)
    outcome, trace = construct_singular(vector)
    payload = {
        "vector": list(vector.counts),
        "alphabet": list(vector.alphabet.symbols),
        "steps": [
            {"vector": list(s.vector.counts), "letter": s.letter, "delta": s.delta}
            for s in trace.steps
        ],
        "terminal": list(trace.terminal.counts),
        "seed_letter": trace.seed_letter,
        "words": [str(w) for w in trace.words] if trace.words else None,
        "outcome": str(outcome) if outcome else None,
    }
    lines = [f"start {','.join(map(str, vector.counts))}"]
    for s in trace.steps:
        lines.append(
            f"take {s.delta} x {s.letter} -> {','.join(map(str, s.vector.counts))}"
        )
    if outcome is not None:
        assert trace.words is not None
        lines.append("words " + " ".join(str(w) for w in trace.words))
        lines.append(f"outcome {outcome}")
    else:
        lines.append("FAILURE")
    _emit(args, payload, lines)
    return EXIT_OK if outcome is not None else EXIT_NO_RESULT


def cmd_graph(args) -> int:
    vector = _vector_input(args)
    graph = build_exchange_graph(vector, args.kind)
    names = [str(v) for v in graph.vertices]
    edges = {v: [names[t] for t in ts] for v, ts in zip(names, graph.targets)}
    if args.dot:
        out = [f'digraph exchange_{args.kind.value} {{']
        out += [f'  "{v}";' for v in names]
        out += [f'  "{v}" -> "{t}";' for v, ts in edges.items() for t in ts]
        out.append("}")
        print("\n".join(out))
        return EXIT_OK
    payload = {
        "vector": list(vector.counts),
        "alphabet": list(vector.alphabet.symbols),
        "kind": args.kind.value,
        "vertices": names,
        "edges": edges,
        "sources": [str(v) for v in graph.sources()],
        "sinks": [str(v) for v in graph.sinks()],
        "acyclic": graph.is_acyclic(),
        "edge_count": sum(len(t) for t in edges.values()),
    }
    lines = [
        f"{len(names)} vertices, {payload['edge_count']} edges, "
        f"acyclic {str(payload['acyclic']).lower()}",
        "sources " + " ".join(payload["sources"]),
        "sinks " + " ".join(payload["sinks"]),
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_xi(args) -> int:
    word = _word_input(args)
    if args.letter not in word.alphabet.symbols:
        raise CliError(f"letter {args.letter!r} not in alphabet", EXIT_USAGE)
    subject = CyclicWord(word) if args.cyclic else word
    if args.inverse:
        result = xi_preimage(args.letter, subject)
    elif args.cyclic:
        result = xi_cyclic(args.letter, subject)
    else:
        result = xi_linear(args.letter, subject)
    payload = {
        "letter": args.letter,
        "input": str(subject),
        "cyclic": args.cyclic,
        "inverse": args.inverse,
        "result": str(result) if result is not None else None,
    }
    _emit(args, payload, [str(result) if result is not None else "no preimage"])
    return EXIT_OK if result is not None else EXIT_NO_RESULT


# -- parser ---------------------------------------------------------------------

def _add_common(p, *, values=True, default_format="text", formats=("text", "json")):
    p.add_argument("--alphabet", help="symbols, as characters or comma-separated")
    if values:
        p.add_argument("--values", help="comma-separated integer values per symbol")
    p.add_argument(
        "--format", choices=formats, default=default_format,
        help=f"output format (default {default_format})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cycont",
        description="Exact continuants on cyclic words: evaluation, "
        "classification, extremal search, and singular-word construction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate continuants of a word")
    _add_common(p)
    p.add_argument("--word", required=True)
    for kind in _EVAL_KINDS:
        p.add_argument(f"--{kind}", action="store_true")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("classify", help="synchronization class membership")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("search", help="extremal search over a class")
    _add_common(p, default_format="json", formats=("text", "json", "csv"))
    p.add_argument("--vector", required=True)
    val = p.add_mutually_exclusive_group(required=True)
    val.add_argument(
        "--regular", dest="valuation", action="store_const", const="regular"
    )
    val.add_argument(
        "--semiregular", dest="valuation", action="store_const", const="semiregular"
    )
    d = p.add_mutually_exclusive_group(required=True)
    d.add_argument("--max", dest="direction", action="store_const", const="max")
    d.add_argument("--min", dest="direction", action="store_const", const="min")
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("construct", help="build the singular word for a vector")
    _add_common(p, values=False)
    p.add_argument("--vector", required=True)
    p.set_defaults(handler=cmd_construct)

    p = sub.add_parser("graph", help="exchange graph of a symmetric class")
    _add_common(p, values=False, default_format="json")
    p.add_argument("--vector", required=True)
    k = p.add_mutually_exclusive_group()
    k.add_argument(
        "--plain", dest="kind", action="store_const", const=SyncKind.PLAIN
    )
    k.add_argument("--alt", dest="kind", action="store_const", const=SyncKind.ALT)
    p.add_argument("--dot", action="store_true", help="emit DOT text instead")
    p.set_defaults(handler=cmd_graph, kind=SyncKind.PLAIN)

    p = sub.add_parser("xi", help="apply an insertion map or its inverse")
    _add_common(p)
    p.add_argument("--word", required=True)
    p.add_argument("--letter", required=True)
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--inverse", action="store_true")
    p.set_defaults(handler=cmd_xi)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Python 3.10.7+ caps int-to-str conversion at 4,300 digits by default:
    # the cap is lifted for the call and put back on every way out.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except BrokenPipeError:
        # The reader left: point stdout at devnull, so that the interpreter's
        # last flush cannot raise again, and exit without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except CliError as exc:
        print(f"cycont: error: {exc}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"cycont: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"cycont: error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
