"""Command-line surface: output formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharkovsky_lab import cli, exact_pwl, tent_constructions, witnesses
from sharkovsky_lab import pattern_dynamics as patterns
from sharkovsky_lab.cli import run
from sharkovsky_lab.exact_pwl import is_orbit_of
from sharkovsky_lab.serialize import (
    SCHEMA, format_rational, orbit_from_list, pwlmap_from_obj,
)
from sharkovsky_lab.sharkovsky_order import forced_periods_upto
from sharkovsky_lab.tent_constructions import tent_map


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    return payload


class TestCompareAndForced:
    def test_compare(self, capsys):
        payload = invoke_json(capsys, "compare", "3", "5")
        assert payload["order"] == "precedes"

    def test_compare_succeeds(self, capsys):
        assert invoke_json(capsys, "compare", "4", "6")["order"] == "succeeds"

    def test_forced(self, capsys):
        payload = invoke_json(capsys, "forced", "2", "--upto", "12")
        assert payload["periods"] == [1, 2]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--walk-budget", "100", "forced", "3", "--upto", "101"),
            ("forced", "3", "--upto", "100000000000"),  # past the default 10^6
        ],
        ids=["small-budget", "default-budget"],
    )
    def test_forced_past_the_walk_budget_exits_three(self, argv, capsys):
        code, out, err = invoke(capsys, *argv)
        assert code == 3 and not out
        assert err.startswith("budget exceeded:") and len(err.splitlines()) == 1
        assert invoke_json(capsys, "--walk-budget", "100", "forced", "3", "--upto", "100")


class TestPattern:
    def test_graph_json(self, capsys):
        payload = invoke_json(capsys, "pattern", "graph", "1>2>3")
        assert payload["edges"] == [[1, 2], [2, 1], [2, 2]]
        assert payload["nodes"] == 2

    def test_graph_accepts_one_line_json(self, capsys):
        payload = invoke_json(capsys, "pattern", "graph", "[2,3,1]")
        assert payload["pattern"] == "1>2>3"

    def test_graph_dot(self, capsys):
        code, out, _ = invoke(capsys, "pattern", "graph", "1>2>3", "--dot")
        assert code == 0
        assert out.splitlines()[0] == "digraph covering {"
        assert "  1 -> 2;" in out

    def test_stefan(self, capsys):
        payload = invoke_json(capsys, "pattern", "stefan", "5")
        assert payload["one_line"] == [3, 5, 4, 2, 1]

    def test_listing_past_the_walk_budget_exits_three(self, capsys, monkeypatch):
        # one item listed per unit of the walk budget, checked before any is built
        assert len(invoke_json(capsys, "--walk-budget", "10", "pattern", "stefan", "9")
                   ["one_line"]) == 9

        def refuse(*args):
            raise AssertionError("nothing is built past the walk budget")

        monkeypatch.setattr(patterns, "stefan_pattern", refuse)
        monkeypatch.setattr(cli, "forced_periods_upto", refuse)
        for argv, items in (
            (("pattern", "stefan", "11"), "points"),
            (("forced", "3", "--upto", "11"), "periods"),
        ):
            code, out, err = invoke(capsys, "--walk-budget", "10", *argv)
            assert code == 3 and not out
            assert err == f"budget exceeded: more than 10 {items} to list\n"

    def test_witness_period_past_the_walk_budget_exits_three(self, capsys, monkeypatch):
        # the orbit lists period points and the certificate walks as many
        # steps: past the walk budget nothing is analysed or built
        argv = ("witness", "odd", "--pattern", "1>2>3", "--period")
        assert invoke(capsys, "--walk-budget", "7", *argv, "7")[0] == 0

        def refuse(*args):
            raise AssertionError("nothing is analysed past the walk budget")

        monkeypatch.setattr(witnesses, "analyze_odd_orbit", refuse)
        monkeypatch.setattr(witnesses, "witness_from_trace", refuse)
        for flags in ((), ("--json",)):
            code, out, err = invoke(capsys, "--walk-budget", "7", *argv, "9", *flags)
            assert code == 3 and not out
            assert err == "budget exceeded: more than 7 orbit points to list\n"
        code, out, err = invoke(capsys, "--walk-budget", "100000", *argv, "1000000")
        assert code == 3 and not out
        assert err == "budget exceeded: more than 100000 orbit points to list\n"


class TestWitness:
    def test_period2_trace(self, capsys):
        payload = invoke_json(
            capsys, "witness", "period2", "--pattern", "1>2>3", "--json"
        )
        assert payload["witness"] == "1/3"
        assert payload["orbit"] == ["1/3", "5/6"]
        assert payload["case"] == "NoFixedPointLeft"

    def test_odd_trace(self, capsys):
        payload = invoke_json(
            capsys,
            "witness", "odd", "--pattern", "1>2>3", "--period", "4", "--json",
        )
        assert payload["witness"] == "2/9"
        assert payload["orbit"] == ["2/9", "5/9", "13/18", "8/9"]

    def test_text_output(self, capsys):
        code, out, _ = invoke(capsys, "witness", "period2", "--pattern", "1>2>3")
        assert code == 0
        assert out.strip() == "least period 2 point: 1/3"

    def test_odd_trace_reports_mirroring(self, capsys):
        payload = invoke_json(
            capsys,
            "witness", "odd", "--pattern", "1>3>2", "--period", "2", "--json",
        )
        assert payload["mirrored"] is True
        assert payload["case"] == "PeriodThree"

    @pytest.mark.parametrize(
        "pattern, case, mirrored",
        [
            ("1>2>3", "PeriodThree", False),
            ("1>3>2", "PeriodThree", True),
            ("1>3>4>2>5", "ReboundBelow", False),
            ("1>5>2>4>3", "ReboundBelow", True),
        ],
    )
    def test_the_json_keys_are_pinned(self, capsys, pattern, case, mirrored):
        # the witness dataclasses are the wire format's list of fields, so a
        # new field must show here
        payload = invoke_json(capsys, "witness", "period2", "--pattern", pattern, "--json")
        assert set(payload) == {
            "schema", "pattern", "case", "lower", "upper", "first_fixed",
            "upper_preimage", "left_fixed", "lower_preimage", "witness", "orbit",
        }
        argv = ("witness", "odd", "--pattern", pattern, "--period", "6", "--json")
        payload = invoke_json(capsys, *argv)
        assert set(payload) == {
            "schema", "pattern", "period", "case", "mirrored", "switch", "straddle",
            "escape_time", "rebound_time", "fixed_point", "fixed_preimage",
            "upper_relay", "lower_relay", "witness", "orbit",
        }
        assert (payload["case"], payload["mirrored"]) == (case, mirrored)

    def test_odd_requires_period(self, capsys):
        code, _, err = invoke(capsys, "witness", "odd", "--pattern", "1>2>3")
        assert code == 2 and "period" in err

    def test_period2_rejects_period(self, capsys):
        code, out, err = invoke(
            capsys, "witness", "period2", "--pattern", "1>2>3", "--period", "7"
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--period" in err

    def test_long_period_has_no_recursion_limit(self, capsys):
        payload = invoke_json(
            capsys,
            "witness", "odd", "--pattern", "1>2>3", "--period", "1200", "--json",
        )
        # orbit_of lists distinct points until the first return
        assert len(payload["orbit"]) == 1200

    def test_text_output_past_ten_thousand_steps(self, capsys):
        # the orbit field is built for --json only, within the certified period
        code, out, err = invoke(
            capsys, "witness", "odd", "--pattern", "1>2>3", "--period", "10001"
        )
        assert code == 0, err[:200]
        assert out.startswith("least period 10001 point: ")
        assert out.count("\n") == 1

    def test_odd_analyses_the_orbit_once(self, capsys, monkeypatch):
        calls = []
        original = witnesses.analyze_odd_orbit

        def counted(f, orbit):
            calls.append(orbit)
            return original(f, orbit)

        monkeypatch.setattr(witnesses, "analyze_odd_orbit", counted)
        payload = invoke_json(
            capsys,
            "witness", "odd", "--pattern", "1>3>4>2>5", "--period", "6", "--json",
        )
        assert payload["case"] == "ReboundBelow"
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", [["period2"], ["odd", "--period", "6"]])
    def test_text_output_walks_no_orbit(self, kind, capsys, monkeypatch):
        # the realization's points are the support points; --json alone walks
        def no_walk(*args, **kwargs):
            raise AssertionError("orbit_of called")

        monkeypatch.setattr(cli, "orbit_of", no_walk)
        code, out, err = invoke(capsys, "witness", *kind, "--pattern", "1>3>4>2>5")
        assert code == 0 and err == "" and out.startswith("least period ")

    def test_period_past_the_int_string_limit_prints(self, capsys):
        # the witness's denominator has more digits than str(int) allows by default
        code, out, err = invoke(
            capsys, "witness", "odd", "--pattern", "1>2>3", "--period", "14500"
        )
        assert code == 0 and err == ""
        assert len(out.strip().split("/")[1]) > 4300

    def test_unsupported_period_is_a_precondition_error(self, capsys):
        code, _, err = invoke(
            capsys,
            "witness", "odd", "--pattern", "1>3>4>2>5", "--period", "5",
        )
        assert code == 2


class TestTent:
    def test_pk(self, capsys):
        payload = invoke_json(capsys, "tent", "pk", "3")
        assert payload["orbit"] == ["2/7", "4/7", "6/7"]
        assert payload["diameter"] == "4/7"

    def test_truncate_json_roundtrips(self, capsys):
        payload = invoke_json(
            capsys, "tent", "truncate", "3", "--spectrum", "4"
        )
        assert payload["bounds"] == ["2/7", "6/7"]
        clamped = pwlmap_from_obj(payload["map"])
        assert clamped == tent_map().clamp("2/7", "6/7")
        periods = {row["period"]: row["orbit_count"] for row in payload["spectrum"]}
        assert periods[3] == 1

    def test_truncate_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "tent", "truncate", "2", "--spectrum", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "period,orbit_count,continuum"
        assert lines[1] == "1,1,false"
        assert lines[2] == "2,1,false"
        assert lines[3] == "3,0,false"

    def test_truncation_spectrum_reaches_period_300(self, capsys):
        # the clamp's spectrum comes from its walk counts: the census would
        # compose 299 iterates
        code, out, err = invoke(
            capsys, "tent", "truncate", "5", "--spectrum", "300", "--format", "csv"
        )
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(p) for p, _, _ in rows] == list(range(1, 301))
        assert {int(p) for p, count, _ in rows if int(count)} == set(
            forced_periods_upto(5, 300)
        )
        assert {c for _, _, c in rows} == {"false"}

    def test_truncation_spectrum_past_the_walk_budget_runs_no_census(
        self, capsys, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("the walk counts' overrun runs no census")
            yield

        monkeypatch.setattr(tent_constructions, "periodic_orbits_upto", refuse)
        argv = ("tent", "truncate", "3", "--spectrum", "2019", "--format", "csv")
        code, out, err = invoke(capsys, *argv)
        assert code == 3 and not out
        assert len(err.splitlines()) == 1 and "walk-count additions" in err
        # the flag reaches the walk counts: P3 forces every period
        code, out, err = invoke(capsys, "--walk-budget", "10000000", *argv)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [int(p) for p, _, _ in rows] == list(range(1, 2020))
        assert all(int(count) > 0 for _, count, _ in rows)

    def test_vanishing_walk_counts_spend_no_budget(self, capsys, monkeypatch):
        # the clamp at P1 is the constant map 0: one node and no edges, so
        # A = 0 and every count is 0; the census never runs
        def refuse(*args):
            raise AssertionError("the walk counts answer without a census")
            yield

        monkeypatch.setattr(tent_constructions, "periodic_orbits_upto", refuse)
        code, out, err = invoke(
            capsys, "tent", "truncate", "1", "--spectrum", "100000", "--format", "csv"
        )
        assert code == 0, err
        rows = out.splitlines()[1:]
        assert len(rows) == 100000 and rows[-1] == "100000,0,false"
        assert rows[0] == "1,1,false" and {r.split(",", 1)[1] for r in rows[1:]} == {"0,false"}

    def test_truncation_rows_meet_the_listing_check(self, capsys, monkeypatch):
        # one row per period: past the walk budget the query exits 3 before
        # any orbit is found or any walk counted
        def refuse(*args, **kwargs):
            raise AssertionError("the listing check comes before anything is built")

        monkeypatch.setattr(tent_constructions, "narrowest_tent_orbit", refuse)
        code, out, err = invoke(capsys, "tent", "truncate", "1", "--spectrum", "1000000000000")
        assert code == 3 and not out
        assert err == "budget exceeded: more than 1000000 periods to list\n"
        code, out, err = invoke(
            capsys, "--walk-budget", "10", "tent", "truncate", "1", "--spectrum", "20"
        )
        assert code == 3 and not out
        assert err == "budget exceeded: more than 10 periods to list\n"

    def test_pk_overrun_runs_no_chain(self, capsys, monkeypatch):
        # tent^21 has 2^21 + 1 breakpoints, over the default piece budget
        def refuse(*args):
            raise AssertionError("iterate squares and runs no chain")

        monkeypatch.setattr(exact_pwl, "_iterates", refuse)
        code, out, err = invoke(capsys, "tent", "pk", "21")
        assert code == 3 and not out
        assert err == "budget exceeded: composition needs more than 1048576 breakpoints\n"

    @pytest.mark.parametrize("k", ["0", "-3"])
    def test_pk_below_one_is_refused_before_composing(self, capsys, monkeypatch, k):
        def refuse(*args):
            raise AssertionError("the order is checked before anything is composed")

        monkeypatch.setattr(exact_pwl.PwlMap, "iterate", refuse)
        code, out, err = invoke(capsys, "tent", "pk", k)
        assert code == 2 and not out
        assert err == "error: iterate order must be >= 1\n"

    def test_tent_orbits_census_nothing(self, capsys, monkeypatch):
        # pk, truncate and every chain level walk from tent^k's solutions
        # below 1/2 and never sort all of them into orbits
        def refuse(*args):
            raise AssertionError("the tent's orbits come from the lowest-orbit lemma")

        monkeypatch.setattr(exact_pwl, "_census", refuse)
        payload = invoke_json(capsys, "tent", "pk", "14")
        assert len(payload["orbit"]) == 14 and payload["diameter"] == "2594/5461"
        payload = invoke_json(capsys, "tent", "truncate", "5", "--spectrum", "30")
        realized = [row["period"] for row in payload["spectrum"] if row["orbit_count"]]
        assert realized == forced_periods_upto(5, 30)
        payload = invoke_json(capsys, "tent", "chain", "--levels", "3")
        assert [len(level) for level in payload["levels"]] == [3, 6, 12, 24]

    def test_chain(self, capsys):
        payload = invoke_json(capsys, "tent", "chain", "--levels", "1")
        assert payload["q0"] == "22/63" and payload["q1"] == "52/63"
        assert orbit_from_list(payload["levels"][0]).period == 3
        assert orbit_from_list(payload["levels"][1]).period == 6

    def test_the_json_keys_are_pinned(self, capsys):
        # the payloads are the results' fields, so a new field on
        # TruncatedMap or DoublingChain must show here
        assert set(invoke_json(capsys, "tent", "pk", "3")) == {
            "schema", "k", "orbit", "diameter",
        }
        payload = invoke_json(capsys, "tent", "truncate", "3", "--spectrum", "4")
        assert set(payload) == {"schema", "k", "bounds", "map", "spectrum"}
        assert {frozenset(row) for row in payload["spectrum"]} == {
            frozenset({"period", "orbit_count", "continuum"})
        }
        assert set(invoke_json(capsys, "tent", "chain", "--levels", "1")) == {
            "schema", "levels", "q0", "q1", "clamped_map",
        }

    @pytest.mark.parametrize("k, upto", [(1, 3), (3, 14), (5, 40), (5, 1000)])
    def test_each_csv_row_is_its_json_spectrum_row(self, capsys, k, upto):
        argv = ("tent", "truncate", str(k), "--spectrum", str(upto))
        spectrum = invoke_json(capsys, *argv)["spectrum"]
        code, out, err = invoke(capsys, *argv, "--format", "csv")
        assert code == 0, err
        header, *rows = out.splitlines()
        assert header == cli.SPECTRUM_CSV_COLUMNS
        assert rows == [
            ",".join(json.dumps(row[c]) for c in header.split(",")) for row in spectrum
        ]

    def test_chain_reaches_level_three_under_the_default_budgets(self, capsys):
        # level 3 is censused through the clamp at the period-12 hull; the
        # whole domain would need tent^24, over the default piece budget
        payload = invoke_json(capsys, "tent", "chain", "--levels", "3")
        levels = [orbit_from_list(o) for o in payload["levels"]]
        assert [o.period for o in levels] == [3, 6, 12, 24]
        for outer, inner in zip(levels, levels[1:]):
            assert outer.minimum < inner.minimum and inner.maximum < outer.maximum
        assert is_orbit_of(tent_map(), levels[3])
        assert [payload["q0"], payload["q1"]] == [
            format_rational(levels[3].minimum), format_rational(levels[3].maximum)
        ]


class TestSpectrum:
    def test_walks_method(self, capsys):
        payload = invoke_json(
            capsys,
            "spectrum", "--pattern", "1>2>3", "--upto", "6", "--method", "walks",
        )
        assert payload["realized"] == [1, 2, 3, 4, 5, 6]

    def test_named_pattern_answers_within_the_default_budgets(self, capsys):
        # auto composes no iterate: f^14 of this pattern is far over 2^20 pieces
        payload = invoke_json(
            capsys, "spectrum", "--pattern", "1>3>4>2>5>7>6", "--upto", "14"
        )
        assert payload["realized"] == list(range(1, 15))
        assert payload["method"] == "auto"

    def test_auto_matches_walks(self, capsys):
        argv = ("spectrum", "--pattern", "[3,5,4,2,1]", "--upto", "9")
        auto = invoke_json(capsys, *argv)
        walks = invoke_json(capsys, *argv, "--method", "walks")
        assert auto["realized"] == walks["realized"] == [1, 2, 4, 5, 6, 7, 8, 9]

    def test_auto_overruns_exit_three_within_the_walk_budget(self, capsys):
        stefan = patterns.stefan_pattern(301).cycle_string()
        for argv in (
            ("spectrum", "--pattern", "1>3>4>2>5>7>6", "--upto", "100000"),
            ("spectrum", "--pattern", stefan, "--upto", "14"),
            ("--walk-budget", "5", "spectrum", "--pattern", "1>3>2", "--upto", "2"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 3 and not out
            assert "walk-count additions" in err

    def test_the_walk_budget_ends_the_named_pattern_at_length_726(self, capsys):
        # the default budget of 10^6 additions, charged per 64-bit word of
        # the largest entry, lasts through length 725 and no further
        argv = ("spectrum", "--pattern", "1>3>4>2>5>7>6", "--upto")
        assert invoke_json(capsys, *argv, "725")["realized"] == list(range(1, 726))
        code, out, err = invoke(capsys, *argv, "726")
        assert code == 3 and not out
        assert len(err.splitlines()) == 1 and "walk-count additions by length 726" in err


class TestContract:
    def test_determinism(self, capsys):
        args = ("tent", "truncate", "3", "--spectrum", "6")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_concurrent_runs_answer_as_sequential_ones(self, monkeypatch):
        queries = [
            ["tent", "pk", "6"],
            ["tent", "chain", "--levels", "2", "--json"],
            ["tent", "truncate", "5", "--spectrum", "30", "--format", "csv"],
            ["witness", "odd", "--pattern", "1>2>3", "--period", "7", "--json"],
            ["compare", "3"],
            ["--piece-budget", "10", "tent", "pk", "5"],
            ["--walk-budget", "10", "spectrum", "--pattern", "1>3>4>2>5>7>6",
             "--upto", "12"],
        ]
        local = threading.local()

        class PerThread(io.TextIOBase):
            def __init__(self, name):
                self.name = name

            def write(self, text):
                return getattr(local, self.name).write(text)

        def answer(argv):
            local.out, local.err = io.StringIO(), io.StringIO()
            code = run(argv)
            return code, local.out.getvalue(), local.err.getvalue()

        monkeypatch.setattr(sys, "stdout", PerThread("out"))
        monkeypatch.setattr(sys, "stderr", PerThread("err"))
        monkeypatch.setattr(cli, "_parser", None)  # threads race to build it
        with ThreadPoolExecutor(max_workers=len(queries)) as pool:
            threaded = list(pool.map(answer, queries * 21))
        sequential = [answer(argv) for argv in queries]
        assert [code for code, _, _ in sequential] == [0, 0, 0, 0, 2, 3, 3]
        assert threaded == sequential * 21

    def test_usage_error_exits_two(self, capsys):
        assert run(["compare", "3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv", [["compare", "3", "x"], ["tent"], ["compare", "3", "5", "a\nb"]]
    )
    def test_usage_error_is_one_line(self, argv, capsys):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("sharkovsky")

    def test_malformed_environment_budget_is_one_line(self, capsys, monkeypatch):
        monkeypatch.setenv("SHARKOVSKY_WALK_BUDGET", "abc")
        code, out, err = invoke(capsys, "compare", "3", "5")
        assert code == 2 and out == ""
        assert err == (
            "sharkovsky: error: SHARKOVSKY_WALK_BUDGET: "
            "expected a positive integer, got 'abc'\n"
        )

    def test_help_still_prints_usage(self, capsys):
        code, out, err = invoke(capsys, "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: sharkovsky") and "--walk-budget" in out

    @pytest.mark.parametrize(
        "argv",
        [["pattern", "graph"], ["spectrum", "--upto", "3", "--pattern"],
         ["witness", "period2", "--pattern"]],
    )
    def test_deeply_nested_pattern_json_is_a_usage_error(self, argv, capsys):
        code, out, err = invoke(capsys, *argv, "[" * 1000)
        assert code == 2 and out == ""
        assert err == "error: the pattern's JSON nests too deeply\n"

    def test_precondition_error_exits_two(self, capsys):
        code, _, err = invoke(capsys, "pattern", "graph", "1>2>2")
        assert code == 2 and err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["pattern", "stefan", "4"], "need an odd period >= 3, got 4"),
            (["witness", "odd", "--pattern", "1>3>2>4", "--period", "5"],
             "need an odd period, got 4"),
            (["witness", "period2", "--pattern", "1>2"], "need period > 2, got 2"),
            (["witness", "odd", "--pattern", "1>3>4>2>5", "--period", "3"],
             "period 3 is neither even nor past 5; not forced this way"),
        ],
        ids=["stefan-even", "odd-orbit-even", "period2-swap", "odd-not-forced"],
    )
    def test_period_refusals_exit_two(self, argv, message, capsys):
        code, out, err = invoke(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_budget_error_exits_three(self, capsys):
        code, _, err = invoke(
            capsys,
            "--piece-budget", "8",
            "spectrum", "--pattern", "1>2>3", "--upto", "6", "--method", "direct",
        )
        assert code == 3
        assert "budget" in err

    def test_environment_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SHARKOVSKY_PIECE_BUDGET", "8")
        code, _, err = invoke(
            capsys,
            "spectrum", "--pattern", "1>2>3", "--upto", "6", "--method", "direct",
        )
        assert code == 3 and "budget" in err

    def test_non_positive_budget_is_a_usage_error(self, capsys):
        code, _, err = invoke(capsys, "--piece-budget", "-5", "tent", "pk", "5")
        assert code == 2 and "positive integer" in err
        code, _, _ = invoke(capsys, "--walk-budget", "0", "tent", "pk", "3")
        assert code == 2

    def test_malformed_environment_budget_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SHARKOVSKY_PIECE_BUDGET", "abc")
        code, _, err = invoke(capsys, "tent", "pk", "3")
        assert code == 2 and "positive integer" in err

    def test_non_positive_spectrum_bounds_are_usage_errors(self, capsys):
        for argv in (
            ("spectrum", "--pattern", "1>2>3", "--upto", "-3"),
            ("spectrum", "--pattern", "1>2>3", "--upto", "0"),
            ("tent", "truncate", "2", "--spectrum", "0"),
            ("tent", "truncate", "2", "--spectrum", "-1"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 2 and not out and "positive integer" in err

    def test_parser_is_built_once_and_reads_the_environment_per_call(
        self, capsys, monkeypatch
    ):
        built = []
        original = cli.build_parser

        def counted():
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        argv = ("spectrum", "--pattern", "1>2>3", "--upto", "6", "--method", "direct")
        monkeypatch.setenv("SHARKOVSKY_PIECE_BUDGET", "1000")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and json.loads(out)["realized"] == [1, 2, 3, 4, 5, 6]
        monkeypatch.setenv("SHARKOVSKY_PIECE_BUDGET", "8")
        code, _, err = invoke(capsys, *argv)
        assert code == 3 and "budget" in err
        assert len(built) == 1

    def test_flag_overrides_the_environment_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("SHARKOVSKY_PIECE_BUDGET", "8")
        payload = invoke_json(
            capsys,
            "--piece-budget", "1000",
            "spectrum", "--pattern", "1>2>3", "--upto", "6", "--method", "direct",
        )
        assert payload["realized"] == [1, 2, 3, 4, 5, 6]

    def test_non_integer_pattern_entry_is_a_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "spectrum", "--pattern", "[2.5,3,1]", "--upto", "3"
        )
        assert code == 2 and not out and "not an integer" in err


class TestConsoleScript:
    """``main`` is the target of the ``sharkovsky`` console script."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["compare", "3", "5"], 0),
            (["compare", "3"], 2),
            (["--piece-budget", "8", "spectrum", "--pattern", "1>2>3", "--upto", "6",
              "--method", "direct"], 3),
        ],
        ids=["ok", "usage", "budget"],
    )
    def test_main_exits_with_the_code_of_run(self, argv, code, capsys, monkeypatch):
        assert run(argv) == code
        monkeypatch.setattr(sys, "argv", ["sharkovsky", *argv])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == code
        capsys.readouterr()

    @pytest.mark.parametrize("module", ["sharkovsky_lab", "sharkovsky_lab.cli"])
    def test_python_m_runs_the_cli(self, module, capsys):
        _, expected, _ = invoke(capsys, "compare", "3", "5")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-m", module, "compare", "3", "5"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")

    def test_output_does_not_depend_on_the_hash_seed(self):
        # set and dict iteration order over str keys changes with the seed
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        queries = [
            ["tent", "pk", "7"],
            ["spectrum", "--method", "both", "--pattern", "1>3>4>2>5>7>6", "--upto", "8"],
            ["witness", "odd", "--json", "--pattern", "1>3>4>2>5", "--period", "6"],
            ["pattern", "graph", "1>3>2"],
        ]
        for argv in queries:
            outputs = set()
            for seed in ("0", "1", "4242"):
                done = subprocess.run(
                    [sys.executable, "-m", "sharkovsky_lab", *argv],
                    capture_output=True, text=True, timeout=120,
                    env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                )
                assert (done.returncode, done.stderr) == (0, ""), argv
                outputs.add(done.stdout)
            assert len(outputs) == 1, argv

    def test_closed_stdout_exits_one_without_a_traceback(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        with subprocess.Popen(
            [sys.executable, "-m", "sharkovsky_lab", "forced", "3", "--upto", "500000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        ) as proc:
            assert len(proc.stdout.read(40)) == 40
            proc.stdout.close()  # the reader goes away before the listing is written
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (1, b"")


# ---------------------------------------------------------------------------
# the whole grammar: every argv ends in a clean answer or a one-line error
# ---------------------------------------------------------------------------

#: Text that is never a decimal integer (so a junk token cannot ask for an
#: unbudgeted amount of work) and never a help flag.
junk = st.text(
    st.characters(blacklist_categories=("Cs", "Nd")), max_size=8
).filter(lambda t: not t.startswith(("-h", "--h")))
malformed = st.one_of(
    st.sampled_from(["-1", "0", "1.5", "1e3", "True", "0x10", "", "٣"]), junk
)
bad_patterns = st.one_of(
    st.integers(1, 2000).map(lambda depth: "[" * depth),
    st.sampled_from(["[[1], [2]]", "[1.5, 2]", "[true, false]", "1>2>2", "1>>2", "[2, 1"]),
    junk,
)


def ints(lo, hi):
    """A slot holding an integer in [lo, hi], or a malformed token."""
    return st.integers(lo, hi).map(str), malformed


def word(text):
    """A slot holding a fixed word, or junk."""
    return st.just(text), junk


@st.composite
def pattern_slot(draw):
    m = draw(st.integers(2, 9))
    pattern = patterns.random_pattern(m, random.Random(draw(st.integers(0, 99))))
    texts = [pattern.cycle_string(), json.dumps(list(pattern.mapping))]
    return st.sampled_from(texts), bad_patterns


@st.composite
def cli_argv(draw):
    """Argv for a random subcommand: valid slots, up to two of them malformed.

    Budgets stay small and the paths that no budget bounds (the direct
    and walks spectra) get small bounds; forced --upto, pattern stefan m
    and witness odd --period are bounded by the walk budget.  Flags are
    never corrupted, so no query runs under the default budgets.
    """
    slots = [
        "--piece-budget", ints(1, 4096),
        "--walk-budget", ints(1, 10**4),
    ]
    command = draw(st.sampled_from(
        ["compare", "forced", "graph", "stefan", "period2", "odd", "pk", "truncate",
         "chain", "spectrum"]
    ))
    if command == "compare":
        slots += [word("compare"), ints(1, 10**30), ints(1, 10**30)]
    elif command == "forced":
        slots += [word("forced"), ints(1, 40), "--upto", ints(1, 10**12)]
    elif command == "graph":
        slots += ["pattern", word("graph"), draw(pattern_slot())]
    elif command == "stefan":
        slots += ["pattern", word("stefan"), ints(1, 1000)]
    elif command == "period2":
        slots += ["witness", word("period2"), "--pattern", draw(pattern_slot())]
    elif command == "odd":
        slots += ["witness", word("odd"), "--pattern", draw(pattern_slot()),
                  "--period", ints(1, 10**12)]
    elif command == "pk":
        slots += ["tent", word("pk"), ints(1, 10**9)]
    elif command == "truncate":
        slots += ["tent", word("truncate"), ints(1, 12), "--spectrum", ints(1, 40)]
        slots += draw(st.sampled_from([[], ["--format", word("csv")]]))
    elif command == "chain":
        slots += ["tent", word("chain"), "--levels", ints(1, 6)]
    else:
        method = draw(st.sampled_from(["auto", "direct", "walks", "both"]))
        # the matrix route answers within the walk budget at any bound
        upto = ints(1, 10**6 if method == "auto" else 40)
        slots += ["spectrum", "--pattern", draw(pattern_slot()), "--upto", upto,
                  "--method", word(method)]
    if command in ("graph", "period2", "odd") and draw(st.booleans()):
        slots.append("--json" if command != "graph" else "--dot")
    bad = draw(st.lists(st.integers(0, len(slots) - 1), max_size=2))
    argv = [
        slot if isinstance(slot, str) else draw(slot[i in bad])
        for i, slot in enumerate(slots)
    ]
    if draw(st.integers(0, 7)) == 0:
        argv.append(draw(junk))
    return argv


TEXT_OUTPUTS = ("digraph covering {\n", cli.SPECTRUM_CSV_COLUMNS + "\n", "least period ")


@settings(max_examples=1500, deadline=None)
@given(cli_argv())
def test_every_argv_answers_or_fails_in_one_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert out == ""
        assert err.endswith("\n") and len(err.splitlines()) == 1, err
    else:
        assert err == "" and out
        if not out.startswith(TEXT_OUTPUTS):
            assert json.loads(out)["schema"] == SCHEMA
