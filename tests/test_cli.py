import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib.metadata import entry_points
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import skeinhom
from skeinhom import cli, errors, memo
from skeinhom.cli import build_parser, run
from skeinhom.homalg import LaurentPoly, circle_poly
from skeinhom.spin import RationalFunctionQ
from skeinhom.surface import SurfaceComplex, SurfaceSpec

from . import test_build_depth, test_spin_cli_pins
from .oracles import theta_formula
from .plan_oracles import run_by_argparse

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# sha256 of `spin theta a b c` stdout, pretty and --out json, for every
# triple of colors <= 6 and (7, 7, 6), (6, 7, 7), (8, 8, 8), as printed
# by the diagrammatic theta evaluation before theta took the formula.
THETA_PINS = Path(__file__).resolve().parent / "theta_cli_pins.json"

ANNULUS = {
    "arcs": ["a", "b"],
    "seams": ["g"],
    "regions": [
        [
            {"seam": "g", "side": "-"},
            {"arc": "a"},
            {"seam": "g", "side": "+"},
            {"arc": "b"},
        ]
    ],
}
CIRCLE = {"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1]]}]}
DISK = {"arcs": ["a"], "regions": [[{"arc": "a"}]]}
DISK_ARC = {"regions": [{"counts": [2], "chords": [[0, 1]]}]}
ANNULUS2 = {
    "arcs": ["a0", "a1", "a2", "a3"],
    "seams": ["g1", "g2"],
    "regions": [
        [
            {"seam": "g1", "side": "-"},
            {"arc": "a0"},
            {"seam": "g2", "side": "+"},
            {"arc": "a1"},
        ],
        [
            {"seam": "g2", "side": "-"},
            {"arc": "a2"},
            {"seam": "g1", "side": "+"},
            {"arc": "a3"},
        ],
    ],
}
CIRCLE2 = {
    "regions": [
        {"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
        {"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
    ]
}
NET112 = {
    "surface": {
        "arcs": ["ea", "eb", "ec"],
        "regions": [[{"arc": "ea"}, {"arc": "eb"}, {"arc": "ec"}]],
    },
    "coloring": {"ea": 1, "eb": 1, "ec": 2},
}
NET_ANNULUS = {
    "surface": {
        "arcs": ["a", "b"],
        "seams": ["g1", "g2"],
        "regions": [
            [{"arc": "a"}, {"seam": "g1", "side": "+"}, {"seam": "g2", "side": "-"}],
            [{"arc": "b"}, {"seam": "g2", "side": "+"}, {"seam": "g1", "side": "-"}],
        ],
    },
    "coloring": {"a": 0, "b": 0, "g1": 1, "g2": 1},
}


# what a corrupted field is replaced with: wrong types, out-of-range
# integers, unknown names and malformed nesting
JUNK = (None, True, 1.5, -1, 7, "x", [], {}, [3], [[0, 1], 3], {"a": 1}, "+", [None])


def field_paths(doc, path=()):
    """The path, as a tuple of keys and indices, of a JSON document (the
    empty path) and of every field nested in it."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from field_paths(value, path + (key,))


def with_field(doc, path, value):
    """A copy of doc with the field at path replaced by value."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = with_field(doc[path[0]], path[1:], value)
    return out


def surface_hom_argv(spec, tangle):
    return ["surface", "hom", "--spec", json.dumps(spec), "--t", json.dumps(tangle),
            "--s", json.dumps(tangle), "--hmin", "0", "--depth", "1"]


# (fixture, the CLI call that reads it) for every input the property corrupts
CORRUPTIBLE = (
    (ANNULUS, lambda spec: surface_hom_argv(spec, CIRCLE)),
    (CIRCLE, lambda tangle: surface_hom_argv(ANNULUS, tangle)),
    (ANNULUS2, lambda spec: surface_hom_argv(spec, CIRCLE2)),
    (CIRCLE2, lambda tangle: surface_hom_argv(ANNULUS2, tangle)),
    (NET_ANNULUS, lambda net: ["spin", "pairing", "--net", json.dumps(net)]),
)
CORRUPTIONS = tuple((k, path) for k, (doc, _argv) in enumerate(CORRUPTIBLE)
                    for path in field_paths(doc))
SKEIN_ERRORS = {name for name, value in vars(errors).items()
                if isinstance(value, type) and issubclass(value, errors.SkeinError)}


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestBasics:
    def test_tl_basis_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "tl", "basis", "6")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 6
        assert lines[-1] == "5 matchings on 6 points"

    def test_tl_basis_json(self, capsys):
        code, out, _ = run_cli(capsys, "tl", "basis", "4", "--out", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["schema"] == 1
        assert payload["count"] == 2
        assert payload["matchings"] == [[1, 0, 3, 2], [3, 2, 1, 0]]

    def test_tl_basis_odd_is_empty(self, capsys):
        code, out, _ = run_cli(capsys, "tl", "basis", "5", "--out", "json")
        assert code == 0
        assert json.loads(out)["count"] == 0

    def test_tl_basis_negative(self, capsys):
        code, _, err = run_cli(capsys, "tl", "basis", "-3")
        assert code == 3
        assert "non-negative" in err

    @pytest.mark.parametrize("k", range(4))
    def test_kh_eval_circles(self, capsys, k):
        code, out, _ = run_cli(capsys, "kh", "eval", "--t", json.dumps({"circles": k}))
        assert code == 0
        assert out.strip() == str(circle_poly(k))

    def test_kh_eval_hom_of_caps(self, capsys):
        code, out, _ = run_cli(
            capsys, "kh", "eval", "--t", "[1,0,3,2]", "--s", "[1,0,3,2]"
        )
        assert code == 0
        assert out.strip() == "1 + 2q^2 + q^4"

    def test_kh_eval_open_needs_other_side(self, capsys):
        code, _, err = run_cli(capsys, "kh", "eval", "--t", "[1,0]")
        assert code == 3
        assert "--s" in err

    def test_ring_check(self, capsys):
        code, out, _ = run_cli(capsys, "ring", "2", "2", "--check", "--out", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["check"] == {"ok": True, "mode": "exhaustive", "seed": 0}
        dims = {(i, j): d for i, j, d in payload["hom_dims"]}
        assert dims[(0, 0)] == "1 + 2q^2 + q^4"
        assert dims[(0, 1)] == "q + q^3"

    @pytest.mark.parametrize("m,n,message", [
        ("-2", "0", "negative edge size: bottom -2, top 0"),
        ("-1", "3", "negative edge size: bottom -1, top 3"),
        ("-1", "1", "negative edge size: bottom -1, top 1"),
        ("1", "2", "no flat (1, 2)-tangles exist"),
    ], ids=["negative-bottom", "odd-split", "even-negative-split", "odd-non-negative-split"])
    def test_ring_refuses_negative_splits(self, capsys, m, n, message):
        code, out, err = run_cli(capsys, "ring", m, n)
        assert (code, out, err) == (3, "", f"InvalidBoundary: {message}\n")

    @pytest.mark.parametrize("samples", ["-5", "0"])
    def test_ring_check_refuses_samples_below_one(self, capsys, samples):
        # 45,200 associativity triples on (4, 2): the check samples them
        code, out, err = run_cli(capsys, "ring", "4", "2", "--check", "--samples", samples)
        assert code == 3
        assert out == ""
        assert f"--samples must be a positive integer, got {samples}" in err


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys, )[0] == 64

    def test_unknown_flag(self, capsys):
        assert run_cli(capsys, "tl", "basis", "6", "--frobnicate")[0] == 64

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "tl", "frobnicate")[0] == 64

    def test_csv_rejected_off_tables(self, capsys):
        assert run_cli(capsys, "spin", "theta", "1", "1", "0", "--out", "csv")[0] == 64

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0


class TestSharedParser:
    """run builds its parser once per process; one run must leave nothing
    behind that changes the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_identical_runs_print_identical_output(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", ANNULUS)
        t = write_json(tmp_path, "t.json", CIRCLE)
        argv = ("surface", "hom", "--spec", spec, "--t", t, "--s", t,
                "--hmin", "-1", "--qmax", "4", "--out", "json")
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert second == first

    def test_usage_error_after_a_successful_run(self, capsys):
        bad = ("tl", "basis", "6", "--frobnicate")
        memo._forget()
        fresh = run_cli(capsys, *bad)
        assert run_cli(capsys, "tl", "basis", "4")[0] == 0
        after = run_cli(capsys, *bad)
        assert fresh[0] == after[0] == 64
        assert fresh[2] and after[2].encode() == fresh[2].encode()


A, C = json.dumps(ANNULUS), json.dumps(CIRCLE)
HOM = ["surface", "hom", "--spec", A, "--t", C, "--s", C]
COARSEN = ["coarsen-check", "--spec", A, "--t", C, "--s", C, "--seam", "g"]
# argvs that cli.run reads in one pass: a leaf's words, then each of its
# single-value options once, every value a string that argparse reads as
# a value ("-" and ASCII digits included), converted and allowed
ROUTED = (
    HOM + ["--hmin", "0", "--depth", "1"],
    HOM + ["--hmin", "-1", "--qmax", "4"],
    HOM + ["--hmin", "0", "--depth", "1", "--out", "csv"],
    HOM + ["--out", "pretty", "--depth", "1", "--hmin", "0"],
    HOM + ["--hmin", " -1", "--qmax", "4"],
    HOM + ["--hmin", "+1", "--hmax", "1", "--depth", "0"],
    HOM + ["--hmin", "\u0663", "--depth", "1"],
    HOM + ["--hmin", "1", "--hmax", "0"],
    HOM + ["--depth", "-1"],
    HOM + ["--hmin", "-3", "--depth", "1"],
    HOM + ["--hmin", "0", "--hmax", "0", "--qmin", "0", "--qmax", "2", "--depth", "1"],
    COARSEN,
    COARSEN + ["--out", "pretty", "--hmin", "0"],
    ["surface", "h0", "--spec", A, "--t", C, "--s", C, "--qmax", "2"],
    ["surface", "hom", "--spec", "{", "--t", C, "--s", C],
    ["surface", "hom", "--spec", "", "--t", C, "--s", C],
    ["spin", "crosscheck", "--scenario", "strands0", "--order", "2"],
    ["spin", "crosscheck", "--order", "-1", "--scenario", "strands0"],
    ["spin", "crosscheck", "--scenario", "nope", "--order", "1"],
    ["spin", "pairing", "--net", json.dumps(NET112), "--out", "json"],
    ["kh", "eval", "--t", "[1, 0]"],
    ["kh", "eval", "--t", "[1, 0]", "--s", "[1, 0]", "--out", "json"],
    ["bproj", "--strands", "2", "--depth", "1"],
    ["bproj", "--strands", "-1", "--depth", "1", "--out", "pretty"],
)
# argvs that cli.run hands to argparse: help, abbreviations, the joined
# and "--" forms, repeats, values that fail their type or choices or that
# argparse may read as options, missing options, positionals and flags
FALLBACK = (
    [], ["--help"], ["-h"], ["--he"], ["frob"], ["frob", "--help"], ["SURFACE", "hom"],
    ["surface"], ["surface", "--help"], ["surface", "frob"], ["surface", "hom"],
    ["surface", "hom", "--help"], ["--spec", A, "surface", "hom"],
    HOM + ["-h"], HOM + ["--he"], HOM + ["--dep", "2", "--hmin", "0"], HOM + ["--hmin=-1"],
    HOM + ["--hmin=0", "--depth", "1"], HOM + ["--", "--hmin", "0"],
    HOM + ["--hmin", "0", "--", "--depth", "1"],
    HOM + ["--depth", "x", "--depth", "2", "--hmin", "0"],
    HOM + ["--depth", "2", "--depth", "x", "--hmin", "0"],
    HOM + ["--depth", "1", "--hmin", "0", "--depth", "1"],
    HOM + ["--out", "csv", "--out", "json", "--hmin", "0", "--depth", "1"],
    HOM + ["--hmin", "-1.5"], HOM + ["--hmin", "-"], HOM + ["--hmin", ""],
    HOM + ["--hmin", "x"], HOM + ["--hmin", "-\u0663", "--depth", "1"], HOM + ["--hmin", "-x"],
    HOM + ["--hmin", "--depth"], HOM + ["--qmax"], HOM + ["--out", "JSON"],
    HOM + ["--out", "-"], ["surface", "hom", "--spec", A, "--t", C],
    HOM + ["--hmin", "0", "--depth", "1", "extra"], HOM + ["--frob", "1"],
    HOM + ["--SPEC", A], ["surface", "hom", "--spec", "-"] + HOM[4:],
    ["surface", "h0", "--spec", A, "--t", C, "--s", C, "--hmin", "0"],
    COARSEN[:-2], COARSEN + ["--out", "csv"], ["coarsen-check", "--help"],
    ["ring", "2", "2", "--check"], ["ring", "2", "2"], ["ring", "--seed", "1", "2", "2"],
    ["tl", "basis", "4"], ["tl", "basis"], ["tl", "basis", "--out", "json", "4"],
    ["spin", "theta", "1", "1", "0"], ["spin", "theta", "1", "1", "0", "--out", "csv"],
    ["spin", "crosscheck", "--order", "1"], ["spin", "crosscheck", "--help"],
    ["spin", "pairing", "--net", "{", "--net", "{"], ["kh", "eval", "--s", "[]"],
    ["bproj", "--strands", "2"], ["bproj", "--strands", "2", "--depth", "1", "--out", "text"],
)


def outcome(capsys, runner, argv):
    code = runner(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


ROUTE_TEXTS = (A, C, "g", "strands0", "[1, 0]", "")
ROUTE_JUNK = ("0", "-1", "-12", "+3", " -1", "1.5", "-1.5", "-", "", "x", "-x", "--t", "JSON",
              "-h", "--help", "--he", "--dep", "--hmin=-1", "--", "--check", "--frob", "hom")


def option_values(action):
    """Values of the action's type and choices, as command-line strings."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(-12, 12).map(str)
    return st.sampled_from(ROUTE_TEXTS)


@st.composite
def leaf_argvs(draw):
    """A leaf's words, then its options in a drawn order, half the time all
    of them, each with a value of its type or (one in ten) a junk one; one
    in five times an option first that is repeated, with a junk value half
    the time; one in four times junk tokens anywhere."""
    def now_and_then(one_in):
        return not draw(st.integers(0, one_in - 1))

    words = draw(st.sampled_from(sorted(cli._leaf_table())))
    options = cli._leaf_table()[words][1]
    order = draw(st.permutations(sorted(options)))
    chosen = order if now_and_then(2) else order[:draw(st.integers(0, len(order)))]
    pairs = [(option, 10) for option in chosen]
    if now_and_then(5):
        pairs.insert(0, (draw(st.sampled_from(order)), 2))
    argv = list(words)
    for option, one_in in pairs:
        junk = now_and_then(one_in)
        argv += [option, draw(st.sampled_from(ROUTE_JUNK) if junk
                              else option_values(options[option]))]
    for _ in range(draw(st.integers(1, 2)) if now_and_then(4) else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ROUTE_JUNK)))
    return argv


class TestOnePassParse:
    """cli.run reads a well-formed argv in one pass (cli._parsed) and hands
    every other argv to argparse; each prints what argparse's parse followed
    by the handler prints (plan_oracles.run_by_argparse)."""

    @pytest.mark.parametrize("argv", ROUTED + FALLBACK, ids=range(len(ROUTED + FALLBACK)))
    def test_run_prints_what_argparse_prints(self, capsys, argv):
        assert (cli._parsed(argv) is not None) == (argv in ROUTED)
        assert outcome(capsys, run, argv) == outcome(capsys, run_by_argparse, argv)

    @settings(max_examples=400, deadline=None)
    @given(leaf_argvs())
    def test_a_parsed_argv_is_parsed_as_argparse_parses_it(self, argv):
        parsed = cli._parsed(argv)
        if parsed is not None:
            with redirect_stderr(io.StringIO()) as err:
                try:
                    expected = build_parser().parse_args(argv)
                except SystemExit as exc:
                    pytest.fail(f"argparse exits {exc.code} on {argv}: {err.getvalue()}")
            assert parsed == expected

    def test_every_pinned_argv_is_parsed_as_argparse_parses_it(self):
        argvs = [test_build_depth.job_argv(command, test_build_depth.window_args(*window))
                 + ["--out", fmt]
                 for command in test_build_depth.commands()
                 for window in test_build_depth.windows()
                 for fmt in test_build_depth.FORMATS[command.split(" ")[0]]]
        argvs += [argv + ["--out", fmt] for _key, argv in test_spin_cli_pins.jobs()
                  for fmt in test_spin_cli_pins.FORMATS]
        assert len(argvs) == 4884 + 1436
        for argv in argvs:
            parsed = cli._parsed(argv)
            assert parsed is not None and parsed == build_parser().parse_args(argv), argv


class TestDecodedInputs:
    """A literal --spec, --t or --s text is decoded once per process; a path
    is read on every call, and a refusal is never kept."""

    ARGV = ("--t", json.dumps(CIRCLE), "--s", json.dumps(CIRCLE), "--hmin", "-1", "--qmax", "4")
    # the annulus cut open along its seam: the same tangles fit its segments
    SQUARE = {"arcs": ["c", "a", "d", "b"],
              "regions": [[{"arc": "c"}, {"arc": "a"}, {"arc": "d"}, {"arc": "b"}]]}

    def test_a_spec_path_is_read_on_every_call(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", ANNULUS)
        first = run_cli(capsys, "surface", "hom", "--spec", spec, *self.ARGV)
        write_json(tmp_path, "spec.json", self.SQUARE)
        second = run_cli(capsys, "surface", "hom", "--spec", spec, *self.ARGV)
        inline = run_cli(capsys, "surface", "hom", "--spec", json.dumps(self.SQUARE), *self.ARGV)
        assert first[0] == second[0] == 0
        assert second == inline and second != first

    def test_a_bracketed_path_is_read_on_every_call(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, "{spec}.json", ANNULUS)
        first = run_cli(capsys, "surface", "hom", "--spec", "{spec}.json", *self.ARGV)
        write_json(tmp_path, "{spec}.json", self.SQUARE)
        second = run_cli(capsys, "surface", "hom", "--spec", "{spec}.json", *self.ARGV)
        inline = run_cli(capsys, "surface", "hom", "--spec", json.dumps(self.SQUARE), *self.ARGV)
        assert first[0] == 0 and second == inline and second != first

    def test_a_junk_literal_is_refused_on_every_call(self, capsys):
        argv = ("surface", "hom", "--spec", '{"arcs": 3}', *self.ARGV)
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first == second == (3, "", "SpecError: spec: arcs must be a list, got 3\n")

    def test_a_literal_spec_is_decoded_once(self, capsys, monkeypatch):
        decoded = []
        real = SurfaceSpec.from_data
        monkeypatch.setattr(SurfaceSpec, "from_data",
                            classmethod(lambda cls, data: decoded.append(1) or real(data)))
        memo._forget()
        argv = ("surface", "hom", "--spec", json.dumps(ANNULUS), *self.ARGV)
        first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
        assert first[0] == 0 and second == first
        assert len(decoded) == 1


class TestSpinCommands:
    def test_theta_quantum_integer_form(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "theta", "1", "1", "0")
        assert code == 0
        assert out.strip() == "[2] = q^-1 + q"

    def test_theta_rational_form(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "theta", "2", "2", "2")
        assert code == 0
        assert out.strip() == "q^-3 + q^-1 + 2q + q^3 + q^5 / 1 + q^2"

    def test_theta_inadmissible(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "theta", "1", "1", "1", "--out", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["admissible"] is False
        assert payload["value"] == {"num": "0", "den": "1", "quantum_integer": None}

    @staticmethod
    def assert_theta_matches_formula(capsys, a, b, c):
        code, out, _ = run_cli(capsys, "spin", "theta", str(a), str(b), str(c), "--out", "json")
        num, den = theta_formula(a, b, c)
        want = RationalFunctionQ(LaurentPoly(num), LaurentPoly(den))
        assert code == 0
        assert json.loads(out)["value"] == {
            "num": str(want.num), "den": str(want.den), "quantum_integer": None,
        }

    def test_theta_at_color_six_matches_formula(self, capsys):
        self.assert_theta_matches_formula(capsys, 4, 4, 6)

    def test_theta_at_color_seven_matches_formula(self, capsys):
        self.assert_theta_matches_formula(capsys, 7, 7, 6)

    def test_theta_prints_one_line_for_every_ordering(self, capsys):
        lines = set()
        for colors in itertools.permutations(("2", "4", "6")):
            code, out, _ = run_cli(capsys, "spin", "theta", *colors)
            assert code == 0
            lines.add(out)
        assert len(lines) == 1

    def test_theta_stdout_matches_pins(self, capsys):
        pins = json.loads(THETA_PINS.read_text())
        assert len(pins) == 7 ** 3 + 3
        for colors, digests in pins.items():
            for extra, want in zip(((), ("--out", "json")), digests):
                code, out, _ = run_cli(capsys, "spin", "theta", *colors.split(), *extra)
                assert code == 0
                assert hashlib.sha256(out.encode()).hexdigest() == want, (colors, extra)

    @pytest.mark.parametrize("colors", [("-1", "1", "0"), ("2", "-2", "0"), ("0", "0", "-4")])
    def test_theta_negative_color_refused(self, capsys, colors):
        code, out, err = run_cli(capsys, "spin", "theta", *colors)
        assert code == 3
        assert out == ""
        assert "SpecError" in err and "non-negative" in err

    @pytest.mark.parametrize(
        "net, field",
        [
            (dict(NET112, coloring={"ea": 1, "eb": 1, "ec": 1.5}), "'ec'"),
            (dict(NET112, coloring={"ea": 1, "eb": True, "ec": 2}), "'eb'"),
            (dict(NET112, coloring={"ea": "x", "eb": 1, "ec": 2}), "'ea'"),
            (dict(NET112, coloring={"ea": 1, "eb": None, "ec": 2}), "'eb'"),
            (dict(NET112, coloring=[1, 1, 2]), "coloring"),
            ({"coloring": NET112["coloring"]}, "'surface'"),
            ({"surface": NET112["surface"]}, "'coloring'"),
            (dict(NET112, surface=[]), "surface"),
            ([NET112], "network"),
        ],
    )
    def test_pairing_malformed_network_refused(self, capsys, net, field):
        code, out, err = run_cli(capsys, "spin", "pairing", "--net", json.dumps(net))
        assert code == 3
        assert out == ""
        assert err.startswith("SpecError:") and field in err

    def test_pairing(self, capsys):
        code, out, _ = run_cli(capsys, "spin", "pairing", "--net", json.dumps(NET112))
        assert code == 0
        assert out.strip() == "[3] = q^-2 + 1 + q^2"

    def test_pairing_inadmissible_input(self, capsys):
        bad = dict(NET112, coloring={"ea": 1, "eb": 1, "ec": 1})
        code, _, err = run_cli(capsys, "spin", "pairing", "--net", json.dumps(bad))
        assert code == 3
        assert "AdmissibilityError" in err

    def test_cross_pairing_vanishes(self, capsys):
        other = dict(NET_ANNULUS, coloring={"a": 0, "b": 0, "g1": 0, "g2": 0})
        code, out, _ = run_cli(
            capsys,
            "spin",
            "pairing",
            "--net",
            json.dumps(NET_ANNULUS),
            "--against",
            json.dumps(other),
        )
        assert code == 0
        assert out.strip() == "0"

    def test_crosscheck_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "spin", "crosscheck", "--scenario", "bproj2", "--order", "9"
        )
        assert code == 0
        assert "ok" in out
        assert "q - q^3 + q^5 - q^7 + q^9" in out

    def test_crosscheck_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "spin", "crosscheck", "--scenario", "triangle112", "--order", "10",
            "--out", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["lhs"] == payload["rhs"] == "1 + q^2 + q^4"
        assert payload["mismatches"] == []

    def test_crosscheck_shallow_depth(self, capsys):
        code, _, err = run_cli(
            capsys,
            "spin", "crosscheck", "--scenario", "bproj2", "--order", "9",
            "--depth", "2",
        )
        assert code == 2
        assert "TruncationError" in err

    @pytest.mark.parametrize("argv", [
        ("--scenario", "strands0", "--order", "2", "--depth", "-3"),
        ("--scenario", "annulus", "--order", "2", "--depth", "-1"),
        ("--scenario", "triangle112", "--order", "2", "--depth", "-1"),
    ])
    def test_crosscheck_negative_depth_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, "spin", "crosscheck", *argv)
        assert code == 3
        assert out == ""
        assert "SpecError: depth must be non-negative" in err

    def test_crosscheck_negative_order_refused(self, capsys):
        code, out, err = run_cli(capsys, "spin", "crosscheck", "--scenario", "bproj2",
                                 "--order", "-1")
        assert code == 3
        assert out == ""
        assert "SpecError: order must be non-negative, got -1" in err

    def test_crosscheck_unknown_scenario(self, capsys):
        code, _, err = run_cli(
            capsys, "spin", "crosscheck", "--scenario", "moebius", "--order", "4"
        )
        assert code == 3
        assert "moebius" in err


class TestBproj:
    def test_generators_and_k0(self, capsys):
        code, out, _ = run_cli(
            capsys, "bproj", "--strands", "2", "--depth", "4", "--qmax", "8"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["generators"] == [[-s, 2 * s + 1, 1] for s in range(4, -1, -1)]
        assert payload["k0"] == {"[1, 0, 3, 2]": "q - q^3 + q^5 - q^7"}

    def test_window_beyond_certificate(self, capsys):
        code, _, err = run_cli(
            capsys, "bproj", "--strands", "2", "--depth", "2", "--qmax", "8"
        )
        assert code == 2
        assert "TruncationError" in err

    def test_negative_strand_count_refused(self, capsys):
        code, out, err = run_cli(capsys, "bproj", "--strands", "-2", "--depth", "1")
        assert code == 3
        assert out == ""
        assert "strand count must be non-negative, got -2" in err

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bproj", "--strands", "2", "--depth", "2", "--qmax", "4", "--out", "csv",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "command,i,j,betti,torsion"
        assert lines[1] == "bproj,-2,5,1,"


class TestSurfaceCommands:
    def test_h0_disk_arc(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "surface", "h0",
            "--spec", write_json(tmp_path, "spec.json", DISK),
            "--t", write_json(tmp_path, "t.json", DISK_ARC),
            "--s", write_json(tmp_path, "s.json", DISK_ARC),
            "--qmax", "4",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["series"] == "1 + q^2"
        assert payload["ranks"] == [[0, 1], [2, 1]]

    def test_hom_annulus_endomorphisms(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", ANNULUS)
        t = write_json(tmp_path, "t.json", CIRCLE)
        code, out, _ = run_cli(
            capsys,
            "surface", "hom", "--spec", spec, "--t", t, "--s", t,
            "--hmin", "-2", "--qmax", "4",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["betti"] == [[-1, 2, 1], [0, 0, 1], [0, 2, 1]]
        assert payload["torsion"] == [[-1, 4, [2]]]

    def test_hom_csv(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", ANNULUS)
        t = write_json(tmp_path, "t.json", CIRCLE)
        code, out, _ = run_cli(
            capsys,
            "surface", "hom", "--spec", spec, "--t", t, "--s", t,
            "--hmin", "-2", "--qmax", "4", "--out", "csv",
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "command,i,j,betti,torsion"
        assert "surface hom,-1,2,1," in lines
        assert "surface hom,-1,4,0,2" in lines

    @pytest.mark.parametrize("command", [["surface", "hom"], ["coarsen-check", "--seam", "g"]])
    def test_threads_flag_is_gone(self, capsys, tmp_path, command):
        spec = write_json(tmp_path, "spec.json", ANNULUS)
        t = write_json(tmp_path, "t.json", CIRCLE)
        code, out, err = run_cli(capsys, *command, "--spec", spec, "--t", t, "--s", t,
                                 "--threads", "2")
        assert (code, out) == (64, "")
        assert "unrecognized arguments: --threads 2" in err

    def test_insane_window(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", DISK)
        t = write_json(tmp_path, "t.json", DISK_ARC)
        code, _, err = run_cli(
            capsys,
            "surface", "hom", "--spec", spec, "--t", t, "--s", t,
            "--hmin", "1", "--hmax", "0",
        )
        assert code == 3
        assert "hmin" in err

    def test_bad_spec_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.json")
        code, _, err = run_cli(
            capsys, "surface", "h0", "--spec", missing, "--t", "{}", "--s", "{}"
        )
        assert code == 3
        assert "nope.json" in err

    def test_tangle_mismatch(self, capsys, tmp_path):
        spec = write_json(tmp_path, "spec.json", ANNULUS)
        t = write_json(tmp_path, "t.json", DISK_ARC)
        code, _, err = run_cli(
            capsys, "surface", "h0", "--spec", spec, "--t", t, "--s", t
        )
        assert code == 3
        assert "--t" in err

    def test_coarsen_check(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "coarsen-check",
            "--spec", write_json(tmp_path, "spec.json", ANNULUS2),
            "--t", write_json(tmp_path, "t.json", CIRCLE2),
            "--s", write_json(tmp_path, "s.json", CIRCLE2),
            "--seam", "g2", "--hmin", "-2", "--qmax", "4", "--depth", "3",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["acyclic"] is True
        assert payload["betti_match"] is True
        assert payload["source"]["betti"] == payload["target"]["betti"]

    def test_coarsen_check_unknown_seam(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "coarsen-check",
            "--spec", write_json(tmp_path, "spec.json", ANNULUS2),
            "--t", write_json(tmp_path, "t.json", CIRCLE2),
            "--s", write_json(tmp_path, "s.json", CIRCLE2),
            "--seam", "nope", "--hmin", "-1", "--qmax", "2", "--depth", "2",
        )
        assert code == 3
        assert "nope" in err

    @pytest.mark.parametrize("seam,message", [
        ("g", "SpecError: seam 'g' has both sides on one region; removing it does not leave disks"),
        ("nope", "SpecError: unknown seam 'nope'"),
    ])
    def test_coarsen_check_refuses_seam_before_build(self, capsys, tmp_path, monkeypatch,
                                                     seam, message):
        built = []
        monkeypatch.setattr(SurfaceComplex, "__init__", lambda self, *a, **k: built.append(1))
        code, out, err = run_cli(
            capsys,
            "coarsen-check",
            "--spec", write_json(tmp_path, "spec.json", ANNULUS),
            "--t", write_json(tmp_path, "t.json", CIRCLE),
            "--s", write_json(tmp_path, "s.json", CIRCLE),
            "--seam", seam,
        )
        assert (code, out, err) == (3, "", message + "\n")
        assert not built


    def test_coarsen_check_refuses_closed_component_before_build(self, capsys, tmp_path,
                                                                 monkeypatch):
        """Coarsening g1 closes the two-strand caps into a circle off the
        boundary; the spliced tangles alone show it, so nothing is built."""
        def refuse_to_build(self, *a, **k):
            raise AssertionError("SurfaceComplex built before the splice check")

        monkeypatch.setattr(SurfaceComplex, "__init__", refuse_to_build)
        caps = lambda chords: {"regions": [{"counts": [2, 0, 2, 0], "chords": chords}] * 2}
        code, out, err = run_cli(
            capsys,
            "coarsen-check",
            "--spec", write_json(tmp_path, "spec.json", ANNULUS2),
            "--t", write_json(tmp_path, "t.json", caps([[0, 1], [2, 3]])),
            "--s", write_json(tmp_path, "s.json", caps([[0, 3], [1, 2]])),
            "--seam", "g1", "--depth", "4",
        )
        assert (code, out, err) == (
            3, "", "SpecError: coarsening would close a tangle component off the boundary\n")

    @pytest.mark.parametrize("tangle,message", [
        ({"regions": [{"counts": [1, 0, 1, 0], "chords": [[0.0, 1]]}]},
         "region 0: chord 0 must be a pair of integer points, got [0.0, 1]"),
        ({"regions": [None]}, "region 0 must be an object with counts and chords, got None"),
        ({"regions": [{"counts": [1, 0, 1, 0], "chords": [3]}]},
         "region 0: chord 0 must be a pair of integer points, got 3"),
        ({"regions": [{"counts": "x", "chords": [[0, 1]]}]},
         "region 0: counts must be a list of non-negative integers, got 'x'"),
        ({"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1, 2]]}]},
         "region 0: chord 0 must be a pair of integer points, got [0, 1, 2]"),
        ({"regions": 7}, "tangle: regions must be a list, got 7"),
        ({"regions": [{"counts": [1.5, 0, 1, 0], "chords": [[0, 1]]}]},
         "region 0: counts must be a list of non-negative integers, got [1.5, 0, 1, 0]"),
        ({"regions": [{"counts": [1, 0, 1, 0], "chords": {"a": 1}}]},
         "region 0: chords must be a list, got {'a': 1}"),
        ([CIRCLE], "tangle must be an object, got [{'regions'"),
    ])
    def test_malformed_tangle_is_a_spec_error(self, capsys, tmp_path, tangle, message):
        code, out, err = run_cli(
            capsys,
            "surface", "hom",
            "--spec", write_json(tmp_path, "spec.json", ANNULUS),
            "--t", write_json(tmp_path, "t.json", CIRCLE),
            "--s", write_json(tmp_path, "s.json", tangle),
        )
        assert (code, out) == (3, "")
        assert err.startswith("SpecError: " + message)


    @pytest.mark.parametrize("fields,message", [
        ({"arcs": [{"a": 1}, "b"]}, "arc 0: id must be a string, got None"),
        ({"seams": 1.5}, "spec: seams must be a list, got 1.5"),
        ({"regions": [None]}, "region 0 must be a list, got None"),
        ({"arcs": [{"id": "a", "sign": "x"}, "b"]}, "arc 0: sign must be +1 or -1, got 'x'"),
        ({"arcs": [{"id": "a", "sign": 0}, "b"]}, "arc 0: sign must be +1 or -1, got 0"),
        ({"regions": [[{"seam": "g", "side": "-"}, 3, {"seam": "g", "side": "+"}, {"arc": "b"}]]},
         "region 0, segment 1 must be an object, got 3"),
        ({"arcs": [["a"], "b"]}, "arc 0 must be a name or an object with an id, got ['a']"),
        ({"regions": 7}, "spec: regions must be a list, got 7"),
        ({"seams": [["g"]]}, "seam 0 must be a string, got ['g']"),
        ({"regions": [[{"seam": "g", "side": "-"}, {"arc": 1}]]},
         "region 0, segment 1: arc must be a string, got 1"),
        ({"regions": [[{"seam": "g", "side": True}, {"arc": "a"}, {"seam": "g", "side": "+"},
                       {"arc": "b"}]]},
         "region 0, segment 0: seam side must be '+' or '-', got True"),
    ])
    def test_malformed_spec_is_a_spec_error(self, capsys, tmp_path, fields, message):
        code, out, err = run_cli(
            capsys,
            "surface", "hom",
            "--spec", write_json(tmp_path, "spec.json", {**ANNULUS, **fields}),
            "--t", write_json(tmp_path, "t.json", CIRCLE),
            "--s", write_json(tmp_path, "s.json", CIRCLE),
        )
        assert (code, out, err) == (3, "", "SpecError: " + message + "\n")

    def test_spec_must_be_an_object(self, capsys):
        code, out, err = run_cli(capsys, "surface", "hom", "--spec", "[1]",
                                 "--t", json.dumps(CIRCLE), "--s", json.dumps(CIRCLE))
        assert (code, out, err) == (3, "", "SpecError: spec must be an object, got [1]\n")

    def test_negative_arc_sign_is_accepted(self, capsys, tmp_path):
        flipped = {**ANNULUS, "arcs": [{"id": "a", "sign": -1}, "b"]}
        code, out, _err = run_cli(
            capsys,
            "surface", "hom",
            "--spec", write_json(tmp_path, "spec.json", flipped),
            "--t", write_json(tmp_path, "t.json", CIRCLE),
            "--s", write_json(tmp_path, "s.json", CIRCLE),
        )
        assert code == 0 and out


class TestCorruptedInput:
    """Input with one field replaced by junk is refused as input, never
    crashes: exit 0, 2 or 3, or 1 only for an error of the package's own."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(CORRUPTIONS), st.sampled_from(JUNK))
    def test_one_corrupted_field(self, corruption, junk):
        k, path = corruption
        doc, argv = CORRUPTIBLE[k]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = run(argv(with_field(doc, path, junk)))
        named = err.getvalue().partition(":")[0]
        assert code in (0, 2, 3) or (code == 1 and named in SKEIN_ERRORS), err.getvalue()


class TestKhEvalInput:
    @pytest.mark.parametrize("tangle,message", [
        ("[1.5, 0]", "--t must be a list of integers, got [1.5, 0]"),
        ("[true, false]", "--t must be a list of integers, got [True, False]"),
        ('{"partner": null}', "--t: partner must be a list of integers, got None"),
        ('{"partner": [1, 0], "top": "x"}', "--t: top must be a non-negative integer, got 'x'"),
        ("[[1], 0]", "--t must be a list of integers, got [[1], 0]"),
        ('{"partner": [1, 0], "top": -1}', "--t: top must be a non-negative integer, got -1"),
        ('{"partner": [1, 0], "circles": 0.5}',
         "--t: circles must be a non-negative integer, got 0.5"),
    ])
    def test_malformed_tangle_is_a_spec_error(self, capsys, tangle, message):
        code, out, err = run_cli(capsys, "kh", "eval", "--t", tangle, "--s", "[1, 0]")
        assert (code, out, err) == (3, "", "SpecError: " + message + "\n")

    @pytest.mark.parametrize("tangle,value", [
        ("[1, 0]", "1 + q^2"),
        ('{"partner": [1, 0]}', "1 + q^2"),
        ('{"partner": [1, 0], "top": 1, "bottom": 1, "circles": 1}', "q^-2 + 3 + 3q^2 + q^4"),
    ])
    def test_valid_tangles_still_evaluate(self, capsys, tangle, value):
        code, out, err = run_cli(capsys, "kh", "eval", "--t", tangle, "--s", tangle)
        assert (code, out, err) == (0, value + "\n", "")


ANNULUS_CIRCLE = ("--spec", json.dumps(ANNULUS), "--t", json.dumps(CIRCLE), "--s", json.dumps(CIRCLE))


class TestOutsideInputRefusals:
    """Refusals of outside input that only a malformed argument reaches:
    exit 3, the SpecError on stderr and nothing on stdout."""

    @pytest.mark.parametrize("argv,message", [
        (["surface", "hom", *ANNULUS_CIRCLE, "--qmin", "5", "--qmax", "2"],
         "window: qmin 5 exceeds qmax 2"),
        (["surface", "hom", *ANNULUS_CIRCLE, "--depth", "-1"], "depth must be non-negative, got -1"),
        (["coarsen-check", *ANNULUS_CIRCLE, "--seam", "g", "--depth", "-2"],
         "depth must be non-negative, got -2"),
        (["bproj", "--strands", "2", "--depth", "-1"], "depth must be non-negative, got -1"),
    ], ids=["qmin-above-qmax", "negative-depth", "coarsen-negative-depth", "bproj-negative-depth"])
    def test_window_and_depth(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (3, "", "SpecError: " + message + "\n")

    @pytest.mark.parametrize("spec,tangle,message", [
        ({**ANNULUS, "arcs": ["a", "a", "b"]}, CIRCLE, "duplicate arc ids"),
        ({**ANNULUS, "seams": ["g", "g"]}, CIRCLE, "duplicate seam ids"),
        (ANNULUS, {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 1], [1, 2]]}]},
         "region 0: point reused by chord (1, 2)"),
    ], ids=["arc-ids", "seam-ids", "reused-point"])
    def test_surface_data(self, capsys, spec, tangle, message):
        code, out, err = run_cli(capsys, "surface", "hom", "--spec", json.dumps(spec),
                                 "--t", json.dumps(tangle), "--s", json.dumps(CIRCLE))
        assert (code, out, err) == (3, "", "SpecError: " + message + "\n")

    def test_invalid_json_literal(self, capsys):
        circle = json.dumps(CIRCLE)
        code, out, err = run_cli(capsys, "surface", "hom", "--spec", '{"arcs": ["a",',
                                 "--t", circle, "--s", circle)
        assert (code, out) == (3, "")
        assert err.startswith("SpecError: --spec: invalid JSON (Expecting value: line 1")

    def test_path_that_looks_like_json(self, capsys, tmp_path, monkeypatch):
        # a relative path opening with a bracket is read as a file when it is one
        monkeypatch.chdir(tmp_path)
        write_json(tmp_path, "{annulus}.json", ANNULUS)
        write_json(tmp_path, "[circle].json", CIRCLE)
        window = ("--hmin", "-2", "--qmax", "4")
        by_literal = run_cli(capsys, "surface", "hom", "--spec", json.dumps(ANNULUS),
                             "--t", json.dumps(CIRCLE), "--s", json.dumps(CIRCLE), *window)
        by_path = run_cli(capsys, "surface", "hom", "--spec", "{annulus}.json",
                          "--t", "[circle].json", "--s", "[circle].json", *window)
        assert by_path == by_literal and by_path[0] == 0 and by_path[1]

    def test_literal_that_names_a_file(self, capsys, tmp_path, monkeypatch):
        # an argument that parses as JSON is the literal, whatever files exist
        without_file = run_cli(capsys, "kh", "eval", "--t", "[1, 0]", "--s", "[1, 0]")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "[1, 0]").write_text("[1, 0, 3, 2]")
        assert run_cli(capsys, "kh", "eval", "--t", "[1, 0]", "--s", "[1, 0]") == without_file
        assert without_file == (0, "1 + q^2\n", "")

    @pytest.mark.parametrize("option", ["--t", "--spec"])
    def test_path_that_cannot_be_read(self, capsys, tmp_path, option):
        # a directory exists but is no file to read
        folder = str(tmp_path)
        argv = (["kh", "eval", "--t", folder, "--s", "[1, 0]"] if option == "--t" else
                ["surface", "hom", "--spec", folder, "--t", json.dumps(CIRCLE),
                 "--s", json.dumps(CIRCLE)])
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (
            3, "", f"SpecError: {option}: cannot read {folder!r} (Is a directory)\n")

    def test_tangle_that_is_neither_array_nor_object(self, capsys, tmp_path):
        # a scalar is no JSON literal to the loader, so it comes from a file
        code, out, err = run_cli(capsys, "kh", "eval",
                                 "--t", write_json(tmp_path, "t.json", 7), "--s", "[1, 0]")
        assert (code, out, err) == (
            3, "", "SpecError: --t: tangle must be a partner array or an object\n")


class TestUnexpectedErrors:
    """A failure that no refusal of outside input names exits 1, printing
    its class name and message."""

    @pytest.mark.parametrize("exc,line", [
        (errors.ChainMapError("d^2 != 0 from degree 0: []"),
         "ChainMapError: d^2 != 0 from degree 0: []\n"),
        (RuntimeError("no pivot"), "RuntimeError: no pivot\n"),
    ])
    def test_exit_one_with_name_and_message(self, capsys, monkeypatch, exc, line):
        def fail(*_args):
            raise exc
        monkeypatch.setattr("skeinhom.cli.hom_graded_rank", fail)
        assert run_cli(capsys, "kh", "eval", "--t", "[1, 0]", "--s", "[1, 0]") == (1, "", line)


class TestEntryPoint:
    def test_installed_script(self):
        """The console script declared in pyproject.toml runs the real CLI.

        Where a ``skeinhom`` script is on PATH it is run, and the installed
        entry point must name the pyproject.toml target, so a stale install
        fails. From a checkout with no script installed, the declared target
        is run the way an installer's launcher runs it, in a separate process
        that imports the same package as these tests.
        """
        tomllib = pytest.importorskip("tomllib")
        with PYPROJECT.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["skeinhom"]
        args = ["spin", "theta", "1", "1", "0"]
        exe = shutil.which("skeinhom")
        if exe:
            installed = entry_points(group="console_scripts", name="skeinhom")
            assert [ep.value for ep in installed] == [target]
            cmd, env = [exe, *args], None
        else:
            module, _, func = target.partition(":")
            launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
            package_root = str(Path(skeinhom.__file__).resolve().parents[1])
            pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
            cmd = [sys.executable, "-c", launcher, *args]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[2] = q^-1 + q"
