import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cycont
from cycont.cli import main
from cycont.continuants import cyclic_regular
from cycont.extremal import WORK_CAP, build_exchange_graph
from cycont.singular import DESCENT_AREA_CAP, xi_linear
from cycont.words import CUT_TABLE_CAP, OrderedAlphabet, alphabet_of_size

from oracles import cyclic_by_definition

HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")  # Python 3.10.7+


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


@pytest.fixture
def lift_digit_limit():
    """A call that lifts the int-to-str digit limit, so a test can parse a
    long value once main() has printed it; the limit is restored after."""
    if not HAS_DIGIT_LIMIT:
        yield lambda: None
        return
    limit = sys.get_int_max_str_digits()
    try:
        yield lambda: sys.set_int_max_str_digits(0)
    finally:
        sys.set_int_max_str_digits(limit)


class TestEval:
    def test_golden_value_plain_output(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--word", "bccdbdae", "--values", "2,3,4,5,6",
            "--cyclic-semiregular",
        )
        assert code == 0
        assert out.strip() == "22735"

    def test_all_kinds_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "eval", "--word", "ab", "--values", "2,3"
        )
        assert code == 0
        assert payload["results"] == {
            "regular": 7,
            "semiregular": 5,
            "cyclic-regular": 8,
            "cyclic-semiregular": 4,
        }

    def test_empty_word_is_domain_error(self, capsys):
        code, _, err = run(capsys, "eval", "--word", "", "--values", "2,3")
        assert code == 2
        assert "empty" in err

    def test_semiregular_value_one_is_domain_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--word", "ab", "--values", "1,2", "--semiregular"
        )
        assert code == 2

    def test_unknown_letter_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--word", "xy", "--values", "2,3", "--regular"
        )
        assert code == 1

    def test_missing_word_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--values", "2,3"])
        assert exc.value.code == 1

    def test_prints_a_value_past_4300_digits(self, capsys, lift_digit_limit):
        code, out, _ = run(
            capsys, "eval", "--word", "ab" * 2500, "--values", "10,11",
            "--cyclic-regular",
        )
        assert code == 0
        lift_digit_limit()
        word = alphabet_of_size(2, values=(10, 11)).cyclic("ab" * 2500)
        assert int(out) == cyclic_regular(word)
        assert len(out.strip()) > 4300

    def test_constructed_word_matches_the_rolling_oracle(self, capsys):
        """The outcome of a construction, a cyclic palindrome of 2,827
        letters, evaluated from its half products: stdout as the oracle's
        values print."""
        code, out, _ = run(capsys, "construct", "--vector", "1,2826", "--format", "text")
        assert code == 0
        word = next(line[8:] for line in out.splitlines() if line.startswith("outcome "))
        assert len(word) == 2827
        code, out, _ = run(
            capsys, "eval", "--word", word, "--alphabet", "ab", "--values", "2,3",
            "--cyclic-regular", "--cyclic-semiregular",
        )
        assert code == 0
        vals = tuple(2 if c == "a" else 3 for c in word)
        assert out == (
            f"cyclic-regular = {cyclic_by_definition(vals, 1)}\n"
            f"cyclic-semiregular = {cyclic_by_definition(vals, -1)}\n"
        )


class TestClassify:
    def test_alphabet_inferred_from_word(self, capsys):
        code, payload, _ = run_json(capsys, "classify", "--word", "aaabaab")
        assert code == 0
        assert payload["in_S"] is True
        assert payload["canonical"] == "aaabaab"

    def test_mixed_word(self, capsys):
        code, payload, _ = run_json(capsys, "classify", "--word", "aaaabab")
        assert code == 0
        assert payload["in_S"] is False
        assert payload["in_U"] is False

    def test_refuses_a_word_past_the_cut_table_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "classify", "--word", "a" * CUT_TABLE_CAP + "b"
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert str(CUT_TABLE_CAP) in err


class TestSearch:
    def test_golden_tie(self, capsys):
        code, payload, _ = run_json(
            capsys, "search", "--vector", "1,2,2,2,1", "--values", "2,3,4,9,10",
            "--semiregular", "--max",
        )
        assert code == 0
        assert payload["value"] == 153347
        assert payload["unique_up_to_reversal"] is False
        assert len(payload["optima"]) == 4
        assert all(o["in_S"] for o in payload["optima"])

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys, "search", "--vector", "2,2", "--values", "2,3", "--regular",
            "--min", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("word,value,")
        assert len(lines) >= 2

    def test_csv_quotes_multi_character_words(self, capsys):
        from cycont.words import OrderedAlphabet

        code, out, _ = run(
            capsys, "search", "--alphabet", "x1,x2", "--vector", "2,1", "--values",
            "2,3", "--regular", "--max", "--format", "csv",
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert len(header) == 7
        assert rows
        alphabet = OrderedAlphabet(("x1", "x2"))
        for row in rows:
            assert len(row) == 7
            assert alphabet.cyclic(row[0]).parikh().counts == (2, 1)
            assert str(alphabet.cyclic(row[0])) == row[0]

    def test_zero_vector(self, capsys):
        code, _, err = run(
            capsys, "search", "--vector", "0,0", "--values", "2,3",
            "--regular", "--max",
        )
        assert code == 2

    def test_guard_refuses_large_class(self, capsys):
        code, out, err = run(
            capsys, "search", "--vector", "20,20", "--values", "2,3",
            "--semiregular", "--max",
        )
        assert code == 2
        assert out == ""
        assert "class of 3446167860 cyclic words" in err
        assert f"work cap ({WORK_CAP})" in err

    def test_small_class_of_long_words_is_answered(self, capsys):
        """Fifteen letters, 429 cyclic words: the guard bounds the work,
        not the word length."""
        code, payload, _ = run_json(
            capsys, "search", "--vector", "8,7", "--values", "2,3",
            "--semiregular", "--max",
        )
        assert code == 0
        assert payload["class_size"] == 429

    def test_long_regular_maximum(self, capsys, lift_digit_limit):
        code, out, _ = run(
            capsys, "search", "--vector", "1500,1500,1500", "--values",
            "10,11,12", "--regular", "--max", "--format", "json",
        )
        assert code == 0
        lift_digit_limit()
        payload = json.loads(out)
        assert len(str(payload["value"])) > 4300
        assert len(str(payload["class_size"])) > 2000
        assert payload["unique_up_to_reversal"] is True
        assert all(o["in_U_alt"] for o in payload["optima"])
        alphabet = alphabet_of_size(3, values=(10, 11, 12))
        word = alphabet.cyclic(payload["optima"][0]["word"])
        assert cyclic_regular(word) == payload["value"]

    @pytest.mark.parametrize("valuation,direction", [
        ("regular", "max"), ("regular", "min"), ("semiregular", "min"),
    ])
    def test_walk_is_not_held_by_the_enumeration_guards(
        self, capsys, valuation, direction
    ):
        """Only the semi-regular maximum enumerates; this vector's class of
        29,331,862,560 cyclic words is far past what the work cap lets
        enumeration score."""
        vector = "5,5,4,3,2,1"
        code, payload, _ = run_json(
            capsys, "search", "--vector", vector, "--values", "2,3,4,5,6,7",
            f"--{valuation}", f"--{direction}",
        )
        assert code == 0
        assert payload["class_size"] == 29331862560

    def test_regular_min_of_two_thousand_letters(self, capsys):
        """2,000 letters: built, certified and evaluated within two seconds."""
        start = time.perf_counter()
        code, payload, _ = run_json(
            capsys, "search", "--vector", "500,500,500,500", "--values",
            "2,3,4,5", "--regular", "--min",
        )
        assert time.perf_counter() - start < 2
        assert code == 0
        assert payload["unique_up_to_reversal"] is True
        assert all(o["in_S_alt"] for o in payload["optima"])
        alphabet = alphabet_of_size(4, values=(2, 3, 4, 5))
        word = alphabet.cyclic(payload["optima"][0]["word"])
        assert cyclic_regular(word) == payload["value"]

    @pytest.mark.parametrize("valuation,direction", [
        ("regular", "max"), ("regular", "min"), ("semiregular", "min"),
    ])
    def test_one_letter_past_the_cut_table_cap_exits_two(
        self, capsys, valuation, direction
    ):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "search", "--vector", "10001,10000,10000,10000", "--values",
            "2,3,4,5", f"--{valuation}", f"--{direction}",
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert "cut-table cap" in err

    def test_walk_refuses_a_trillion_letters_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "search", "--vector", "1,1000000000000", "--values", "2,3",
            "--regular", "--min",
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert str(CUT_TABLE_CAP) in err

    def test_requires_direction(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--vector", "2,2", "--values", "2,3", "--regular"])
        assert exc.value.code == 1

    def test_jobs_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--vector", "2,2", "--values", "2,3", "--regular",
                  "--max", "--jobs", "2"])
        assert exc.value.code == 1


class TestConstruct:
    def test_golden_trace_json(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "--vector", "3,3,4,2")
        assert code == 0
        assert payload["outcome"] == "acbcbcbcadad"
        assert [s["vector"] for s in payload["steps"]] == [
            [3, 0, 4, 2], [3, 0, 3, 2], [3, 0, 2, 2], [3, 0, 1, 2],
            [0, 0, 1, 2], [0, 0, 1, 1], [0, 0, 1, 0],
        ]
        assert payload["words"][0] == "c"

    def test_failure_exits_three(self, capsys):
        code, payload, _ = run_json(capsys, "construct", "--vector", "3,2,4,3")
        assert code == 3
        assert payload["outcome"] is None
        assert [s["vector"] for s in payload["steps"]] == [
            [3, 2, 2, 3], [3, 0, 2, 3],
        ]

    def test_constant_vector(self, capsys):
        code, out, _ = run(capsys, "construct", "--vector", "0,0,5")
        assert code == 0
        assert "outcome ccccc" in out

    def test_zero_vector(self, capsys):
        code, _, _ = run(capsys, "construct", "--vector", "0,0")
        assert code == 2

    def test_refuses_a_descent_past_the_area_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "construct", "--vector", "1,1000000000000")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert str(DESCENT_AREA_CAP) in err


ONES_14 = ",".join(["1"] * 14)  # 13! = 6,227,020,800 cyclic words
TWOS_7 = ",".join(["2"] * 7)  # 48,648,960 cyclic words


class TestClassSizeCap:
    """Classes whose enumeration would pass the work cap are refused at once."""

    @pytest.mark.parametrize("vector,size", [(ONES_14, 6227020800), (TWOS_7, 48648960)])
    def test_search_refuses(self, capsys, vector, size):
        values = ",".join(str(v) for v in range(2, vector.count(",") + 3))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "search", "--vector", vector, "--values", values,
            "--semiregular", "--max",
        )
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert str(size) in err and str(WORK_CAP) in err

    @pytest.mark.parametrize("vector,size", [
        (ONES_14, 6227020800), (TWOS_7, 48648960), ("80,1,1,1", 6642),
    ])
    def test_graph_refuses(self, capsys, vector, size):
        start = time.perf_counter()
        code, out, err = run(capsys, "graph", "--vector", vector)
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert str(size) in err and str(WORK_CAP) in err

    def test_raising_the_limit_does_not_lift_the_cap(self, capsys):
        """No flag lifts the cap: --limit is a usage error, and 15,15 stays refused."""
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--vector", "15,15", "--limit", "30"])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err
        code, _, err = run(capsys, "graph", "--vector", "15,15")
        assert code == 2
        assert str(WORK_CAP) in err

    def test_count_too_long_to_print(self, capsys):
        """25 distinct letters: 24! cyclic words."""
        code, _, err = run(capsys, "graph", "--vector", ",".join(["1"] * 25))
        assert code == 2
        assert "over 10^18 cyclic words" in err


class TestGraph:
    def test_ternary_222(self, capsys):
        code, payload, _ = run_json(capsys, "graph", "--vector", "2,2,2", "--plain")
        assert code == 0
        assert payload["sources"] == ["aabccb"]
        assert sorted(payload["sinks"]) == ["abbcac", "abcabc"]
        assert payload["acyclic"] is True

    def test_single_vertex(self, capsys):
        code, payload, _ = run_json(capsys, "graph", "--vector", "2,1")
        assert code == 0
        assert payload["vertices"] == ["aab"]
        assert payload["edge_count"] == 0

    def test_guard(self, capsys):
        code, out, err = run(capsys, "graph", "--vector", "15,15")
        assert code == 2
        assert out == ""
        assert "class of 5170604 cyclic words" in err
        assert f"work cap ({WORK_CAP})" in err

    def test_small_class_of_long_words_is_answered(self, capsys):
        code, payload, _ = run_json(capsys, "graph", "--vector", "8,7")
        assert code == 0
        assert payload["vertices"]

    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "graph", "--vector", "2,2,2", "--plain", "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert '"aabccb" ->' in out

    def test_edges_by_position_with_comma_joined_names(self, capsys):
        """Token names take the comma-joined path, not the Latin-1 table;
        every JSON field and text line is checked against names built from
        the library graph through ``successors``."""
        alphabet = OrderedAlphabet(("x1", "x2", "x3"))
        graph = build_exchange_graph(alphabet.vector((3, 2, 1)))
        edges = {
            str(v): [str(t) for t in graph.successors(v)] for v in graph.vertices
        }
        sources = [str(v) for v in graph.sources()]
        sinks = [str(v) for v in graph.sinks()]
        argv = ("graph", "--vector", "3,2,1", "--alphabet", "x1,x2,x3")
        code, payload, _ = run_json(capsys, *argv)
        assert code == 0
        assert payload["vertices"] == [str(v) for v in graph.vertices]
        assert "x1,x1,x1,x2,x2,x3" in payload["vertices"]
        assert list(payload["edges"].items()) == list(edges.items())
        assert payload["sources"] == sources
        assert payload["sinks"] == sinks
        assert payload["edge_count"] == sum(map(len, edges.values())) > 0
        code, out, _ = run(capsys, *argv, "--format", "text")
        assert code == 0
        assert out.splitlines() == [
            f"{len(edges)} vertices, {payload['edge_count']} edges, acyclic true",
            "sources " + " ".join(sources),
            "sinks " + " ".join(sinks),
        ]


class TestXi:
    def test_linear_image(self, capsys):
        code, out, _ = run(
            capsys, "xi", "--word", "abbcacad", "--letter", "d",
            "--alphabet", "abcd",
        )
        assert code == 0
        assert out.strip() == "adbdbdcdadcdadd"

    def test_cyclic_image(self, capsys):
        code, out, _ = run(
            capsys, "xi", "--word", "cdd", "--letter", "a",
            "--alphabet", "abcd", "--cyclic",
        )
        assert code == 0
        assert out.strip() == "acadad"

    def test_inverse(self, capsys):
        code, out, _ = run(
            capsys, "xi", "--word", "abbbcacad", "--letter", "b",
            "--alphabet", "abcd", "--inverse",
        )
        assert code == 0
        assert out.strip() == "abbcacad"

    def test_cyclic_inverse(self, capsys):
        code, out, _ = run(
            capsys, "xi", "--word", "acadad", "--letter", "a",
            "--alphabet", "abcd", "--cyclic", "--inverse",
        )
        assert code == 0
        assert out.strip() == "cdd"

    def test_alphabet_past_255_letters(self, capsys):
        """The letters of a 300-letter alphabet do not fit bytes, so the map
        takes its list branch."""
        alphabet = OrderedAlphabet(tuple(f"s{i}" for i in range(300)))
        word = "s255,s299,s3,s1,s255,s255"
        code, out, _ = run(
            capsys, "xi", "--word", word, "--letter", "s255",
            "--alphabet", ",".join(alphabet.symbols),
        )
        assert code == 0
        assert out.strip() == str(xi_linear("s255", alphabet.word(word)))
        assert out.strip() == "s255,s255,s299,s3,s255,s1,s255,s255,s255"

    def test_inverse_absent_exits_three(self, capsys):
        code, payload, _ = run_json(
            capsys, "xi", "--word", "abc", "--letter", "b",
            "--alphabet", "abc", "--inverse",
        )
        assert code == 3
        assert payload["result"] is None

    def test_unknown_letter(self, capsys):
        code, _, _ = run(
            capsys, "xi", "--word", "ab", "--letter", "z", "--alphabet", "ab"
        )
        assert code == 1


class TestFlagsOnlyWhereTheyAct:
    @pytest.mark.parametrize("argv", [
        ["eval", "--word", "ab", "--values", "2,3", "--limit", "3"],
        ["classify", "--word", "ab", "--format", "csv"],
        ["construct", "--vector", "3,3,4,2", "--limit", "5"],
        ["xi", "--word", "abc", "--letter", "b", "--format", "csv"],
        ["construct", "--vector", "3,3", "--values", "1,1"],
        ["graph", "--vector", "2,2", "--values", "2,3"],
    ])
    def test_no_op_flags_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["search", "--vector", "2,2", "--values", "2,3", "--semiregular",
         "--max", "--limit", "20"],
        ["graph", "--vector", "2,2", "--limit", "20"],
    ])
    def test_limit_flag_is_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err


@pytest.mark.skipif(not HAS_DIGIT_LIMIT, reason="no int-to-str digit limit")
class TestDigitLimit:
    """main() lifts the int-to-str digit limit for its own call only."""

    @pytest.mark.parametrize("argv,code", [
        (["eval", "--word", "ab" * 2500, "--values", "10,11", "--cyclic-regular"], 0),
        (["eval", "--word", "xy", "--values", "2,3", "--regular"], 1),
        (["eval", "--word", "", "--values", "2,3"], 2),
        (["eval", "--values", "2,3"], None),  # usage error: argparse exits
    ])
    def test_main_leaves_the_limit_as_it_found_it(self, capsys, argv, code):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4321)
        try:
            if code is None:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == code
            assert sys.get_int_max_str_digits() == 4321
        finally:
            sys.set_int_max_str_digits(limit)


class TestClosedPipe:
    """A reader that leaves early, as ``| head -n 1`` does, ends the
    command with exit 1 and no traceback."""

    @pytest.mark.parametrize("argv", [
        ["graph", "--vector", "3,2,1,2,2"],
        ["graph", "--vector", "3,2,1,2,2", "--dot"],
        ["construct", "--vector", "1,2826", "--format", "text"],
    ])
    def test_exit_1_and_empty_stderr(self, argv):
        src = str(Path(cycont.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        with subprocess.Popen(
            [sys.executable, "-m", "cycont.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
        assert (child.returncode, err) == (1, b"")


class TestEmptyWordWithoutAlphabet:
    """The empty word is a domain error even when no alphabet is given."""

    @pytest.mark.parametrize("argv", [
        ["eval", "--word", ""],
        ["classify", "--word", ""],
        ["xi", "--letter", "a", "--word", ""],
        ["eval", "--word", ","],
    ])
    def test_exits_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "empty word" in err


class TestRoundTrip:
    def test_search_words_parse_back_to_same_class(self, capsys):
        from cycont.words import OrderedAlphabet

        code, payload, _ = run_json(
            capsys, "search", "--vector", "1,2,2,2,1", "--values", "2,3,4,5,6",
            "--semiregular", "--max",
        )
        assert code == 0
        alphabet = OrderedAlphabet(tuple(payload["alphabet"]))
        for entry in payload["optima"]:
            again = alphabet.cyclic(entry["word"])
            assert str(again) == entry["word"]


class TestJsonBytes:
    """The exact stdout of two JSON calls, pinned byte for byte: indent,
    key order, separators and the trailing newline."""

    GRAPH_211 = """{
  "vector": [
    2,
    1,
    1
  ],
  "alphabet": [
    "a",
    "b",
    "c"
  ],
  "kind": "plain",
  "vertices": [
    "aabc",
    "abac"
  ],
  "edges": {
    "aabc": [
      "abac"
    ],
    "abac": []
  },
  "sources": [
    "aabc"
  ],
  "sinks": [
    "abac"
  ],
  "acyclic": true,
  "edge_count": 1
}
"""

    SEARCH_221 = """{
  "vector": [
    2,
    2,
    1
  ],
  "alphabet": [
    "a",
    "b",
    "c"
  ],
  "values": [
    2,
    3,
    5
  ],
  "valuation": "semiregular",
  "direction": "max",
  "value": 79,
  "class_size": 6,
  "unique_up_to_reversal": true,
  "optima": [
    {
      "word": "abbac",
      "in_S": true,
      "in_S_alt": true,
      "in_U": false,
      "in_U_alt": false
    }
  ]
}
"""

    def test_graph(self, capsys):
        assert run(capsys, "graph", "--vector", "2,1,1") == (0, self.GRAPH_211, "")

    def test_search(self, capsys):
        argv = ("search", "--vector", "2,2,1", "--values", "2,3,5",
                "--semiregular", "--max")
        assert run(capsys, *argv) == (0, self.SEARCH_221, "")
