"""`surface hom` and `coarsen-check` build only the bar degrees their window reads.

Homology from degree hmin up reads degrees hmin - 1 and above, and a
truncation at depth leaves every degree above -depth as it is, so both
commands build at surface.window_depth(depth, hmin), the lesser of depth
and 1 - hmin, and only refusals need the full build.

surface_cli_pins.json holds, for every job of the grid below, the exit code
of each output format and one digest of what each format printed to stdout
and stderr, as recorded when every job built its complexes down to the
requested depth.  Each job replays in-process through skeinhom.cli.run with
its fixture names replaced by inline JSON, and must print the same bytes,
refusals included.
"""

import contextlib
import hashlib
import io
import itertools
import json
from functools import lru_cache
from pathlib import Path

import pytest

from skeinhom import cli, surface
from skeinhom.errors import TruncationError
from skeinhom.surface import SurfaceComplex, SurfaceSpec, SurfaceTangle

from .test_golden import FIXTURES

PINS = Path(__file__).resolve().parent / "surface_cli_pins.json"

TWO_STRAND = [("ANNULUS", t, s) for t in ("CUPCAP2", "THROUGH2") for s in ("CUPCAP2", "THROUGH2")]
HOM_INPUTS = ([("ANNULUS", "CORE", "CORE")] + TWO_STRAND
              + [("SEAMED_DISK", "SEAMED_DISK_ARC", "SEAMED_DISK_ARC"),
                 ("ANNULUS2", "CORE2", "CORE2")])
# the annulus has one seam with both sides on its one region, so every
# coarsen-check on it is refused from the spec
COARSEN_INPUTS = ([inputs + ("g",) for inputs in HOM_INPUTS[:5]]
                  + [("SEAMED_DISK", "SEAMED_DISK_ARC", "SEAMED_DISK_ARC", "g"),
                     ("ANNULUS2", "CORE2", "CORE2", "g1"),
                     ("ANNULUS2", "CORE2", "CORE2", "g2")])
FORMATS = {"surface": ("json", "csv", "pretty"), "coarsen-check": ("json", "pretty")}


def windows():
    """(depth, hmin, hmax, qmax): depths 0 to 5, every hmin from one below
    the truncation to 1, hmax 0 and -1, qmax 4 and 8."""
    for depth in range(6):
        for hmin in range(-depth - 1, 2):
            for hmax in (0, -1):
                for qmax in (4, 8):
                    yield depth, hmin, hmax, qmax


def window_args(depth, hmin, hmax, qmax):
    return f"--depth {depth} --hmin {hmin} --hmax {hmax} --qmax {qmax}"


def commands():
    """The argv prefix of every input, fixture names unexpanded."""
    for spec, t, s in HOM_INPUTS:
        yield f"surface hom --spec {spec} --t {t} --s {s}"
    for spec, t, s, seam in COARSEN_INPUTS:
        yield f"coarsen-check --spec {spec} --t {t} --s {s} --seam {seam}"


def job_argv(command, window):
    """The argv of a job before its --out option, fixture names inline."""
    return [json.dumps(FIXTURES[w]) if w in FIXTURES else w
            for w in f"{command} {window}".split(" ")]


def run_job(command, window):
    """([exit code per format], digest of every format's stdout and stderr)."""
    argv = job_argv(command, window)
    outputs = []
    for fmt in FORMATS[argv[0]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv + ["--out", fmt])
        outputs.append([code, out.getvalue(), err.getvalue()])
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()[:32]
    return [code for code, _out, _err in outputs], digest


@lru_cache(maxsize=None)
def build(spec, top, bottom, depth, q_range=None):
    """Each distinct complex once: the formats of a job, the windows that
    share a build and the oracle below all read it.  A complex is not
    changed by the queries on it, only its homology cached."""
    return SurfaceComplex(spec, top, bottom, depth=depth, q_range=q_range)


class BuildLog:
    """Stands in for cli.SurfaceComplex, recording the depth of every build."""

    def __init__(self):
        self.depths = []

    def __call__(self, spec, top, bottom, depth, q_range=None):
        self.depths.append(depth)
        return build(spec, top, bottom, depth, q_range)


def replay_grid():
    """{command: {window: (codes, digest, build depths, argparse parses)}}
    over the grid, the last the number of the job's runs that cli.run
    handed to build_parser().parse_args."""
    results = {}
    log = BuildLog()
    parses = []
    parser = cli.build_parser()
    parse_args = parser.parse_args
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "SurfaceComplex", log)
        mp.setattr(parser, "parse_args", lambda argv: parses.append(argv) or parse_args(argv))
        for command in commands():
            for window in windows():
                del log.depths[:], parses[:]
                codes, digest = run_job(command, window_args(*window))
                results.setdefault(command, {})[window] = (codes, digest, tuple(log.depths),
                                                           len(parses))
    return results


@pytest.fixture(scope="module")
def grid():
    return replay_grid()


def test_every_job_replays_its_pin(grid):
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(grid)
    mismatched = []
    for command, by_window in grid.items():
        assert len(pins[command]) == len(by_window) == 132
        for window, (codes, digest, _depths, _parses) in by_window.items():
            if pins[command][window_args(*window)] != [codes, digest]:
                mismatched.append(f"{command} {window_args(*window)}")
    assert mismatched == []


def test_every_build_stops_below_the_window(grid):
    """The depth each job's complex is built at: none for a job refused from
    its options or spec, else the lesser of the depth and 1 - hmin, one
    build per format; a truncation refusal reads the full build."""
    shallower = 0
    for command, by_window in grid.items():
        formats = FORMATS[command.split(" ")[0]]
        for (depth, hmin, hmax, _qmax), (codes, _digest, depths, _parses) in by_window.items():
            if hmin > hmax or command.startswith("coarsen-check --spec ANNULUS "):
                assert set(codes) == {3} and depths == (), (command, depth, hmin, hmax)
                continue
            want = min(depth, max(0, 1 - hmin))
            assert depths == (want,) * len(formats), (command, depth, hmin, hmax)
            if 2 in codes:
                assert want == depth, (command, depth, hmin, hmax)
            shallower += want < depth
    assert shallower > 100


def test_every_pinned_job_is_parsed_in_one_pass(grid):
    """cli.run reads every pinned argv, refusals included, in one pass off
    the leaf parser's options (cli._parsed) and hands none to argparse:
    the one-pass parse saves argparse's fixed cost only on such argvs."""
    parses = [job[3] for by_window in grid.values() for job in by_window.values()]
    assert len(parses) == 1980
    assert sum(parses) == 0


def built(spec, t, s, depth, qmax):
    return build(SurfaceSpec.from_data(FIXTURES[spec]), SurfaceTangle.from_data(FIXTURES[t]),
                 SurfaceTangle.from_data(FIXTURES[s]), depth, (0, qmax))


def homology_or_refusal(cx, h_range, q_range):
    try:
        return cx.homology(h_range, q_range)
    except TruncationError as exc:
        return f"TruncationError: {exc}"


def test_window_build_has_the_homology_of_the_full_build():
    """On the grid, with hmax 1 added, the complex built at window_depth has
    the homology, or the truncation refusal, of the one built at the
    requested depth."""
    compared = 0
    for spec, t, s in HOM_INPUTS:
        for depth, qmax in itertools.product(range(6), (4, 8)):
            for hmin, hmax in itertools.combinations_with_replacement(range(-depth - 1, 2), 2):
                cfg = cli.JobConfig(hmin=hmin, hmax=hmax, qmax=qmax, depth=depth)
                h_range, q_range = (cfg.hmin, cfg.hmax), (cfg.qmin, cfg.qmax)
                full = homology_or_refusal(built(spec, t, s, cfg.depth, qmax), h_range, q_range)
                window = built(spec, t, s, surface.window_depth(cfg.depth, cfg.hmin), qmax)
                assert homology_or_refusal(window, h_range, q_range) == full, (
                    spec, t, s, depth, hmin, hmax, qmax)
                compared += 1
    assert compared == len(HOM_INPUTS) * 2 * sum((d + 3) * (d + 4) // 2 for d in range(6))


def test_window_depth_caps_the_truncation_at_the_window():
    assert [surface.window_depth(7, h) for h in (-8, -6, -2, 0, 1, 3)] == [7, 7, 3, 1, 0, 0]
    assert [surface.window_depth(None, h) for h in (-4, 0, 1, 3)] == [5, 1, 0, 0]
    assert surface.window_depth(0, -3) == 0


def test_symmetrized_pairing_builds_at_the_window_depth(monkeypatch):
    depths = []

    def recording(spec, x, y, depth, **kwargs):
        depths.append(depth)
        return SurfaceComplex(spec, x, y, depth=depth, **kwargs)

    monkeypatch.setattr(surface, "SurfaceComplex", recording)
    spec = SurfaceSpec.from_data(FIXTURES["ANNULUS"])
    x, y = (SurfaceTangle.from_data(FIXTURES[n]) for n in ("CUPCAP2", "THROUGH2"))
    deep = surface.symmetrized_pairing(spec, x, y, (-2, 0), (0, 10), depth=7)
    assert depths == [3]
    assert deep == surface.symmetrized_pairing(spec, x, y, (-2, 0), (0, 10))
    assert depths == [3, 3]
    assert surface.symmetrized_pairing(spec, x, y, (2, 3), (0, 4)).betti == {}
    assert depths[-1] == 0


def cli_hom(spec, t, s, hmin, depth, qmin, qmax):
    """(exit code, betti, torsion) of `surface hom --out json` on fixtures,
    or (exit code, stderr) for a refusal."""
    argv = ["surface", "hom", "--spec", json.dumps(FIXTURES[spec]),
            "--t", json.dumps(FIXTURES[t]), "--s", json.dumps(FIXTURES[s]),
            "--hmin", str(hmin), "--qmin", str(qmin), "--qmax", str(qmax), "--out", "json"]
    argv += [] if depth is None else ["--depth", str(depth)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    if code:
        return code, err.getvalue()
    payload = json.loads(out.getvalue())
    return code, payload["betti"], payload["torsion"]


def library_hom(spec, t, s, hmin, depth, qmin, qmax):
    """cli_hom's answer through surface.symmetrized_pairing."""
    x, y = (SurfaceTangle.from_data(FIXTURES[n]) for n in (t, s))
    try:
        hom = surface.symmetrized_pairing(SurfaceSpec.from_data(FIXTURES[spec]), x, y,
                                          (hmin, 0), (qmin, qmax), depth)
    except TruncationError as exc:
        return 2, f"TruncationError: {exc}\n"
    return (0, [[i, j, b] for (i, j), b in sorted(hom.betti.items())],
            [[i, j, list(v)] for (i, j), v in sorted(hom.torsion.items())])


@pytest.mark.parametrize("inputs", [("ANNULUS", "CORE", "CORE"),
                                    ("ANNULUS", "CUPCAP2", "THROUGH2"),
                                    ("SEAMED_DISK", "SEAMED_DISK_ARC", "SEAMED_DISK_ARC"),
                                    ("ANNULUS2", "CORE2", "CORE2")])
def test_cli_and_symmetrized_pairing_agree(inputs):
    # the CLI builds the window symmetrized_pairing builds, so the two give
    # the same Betti numbers, torsion and refusals, each at its own default
    # depth; depth 1 with hmin -3 is refused
    codes = set()
    for hmin, depth, (qmin, qmax) in itertools.product((-3, 0), (None, 1, 4), ((0, 6), (-2, 4))):
        job = (*inputs, hmin, depth, qmin, qmax)
        answer = cli_hom(*job)
        assert answer == library_hom(*job), job
        codes.add(answer[0])
    assert codes == {0, 2}
