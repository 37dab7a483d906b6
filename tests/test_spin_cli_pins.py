"""`spin crosscheck` and `spin pairing` print what they printed when pinned.

spin_cli_pins.json maps each job below to its exit code and the sha256
of what it printed to stdout and to stderr.  A crosscheck job is keyed by
its argv; a pairing job, whose argv holds whole networks, by the colors
of the edges a, b, g1 and g2.  The jobs replay in-process through
skeinhom.cli.run, refusals included:

- `spin crosscheck` on every scenario, at orders 0-14 (annulus) or 0-24
  (the others), with --depth unset, 0, 1, 2, 3, 5 and 8;
- `spin pairing` on every admissible coloring of the two-triangle annulus
  with colors at most 4, a few --against cross pairings and one
  inadmissible coloring;

each in the pretty and the json format.  Regenerate the file only when an
output change is meant: `python -m tests.test_spin_cli_pins` from the
repository root, with src on the path, rewrites it.
"""

import contextlib
import hashlib
import io
import itertools
import json
from pathlib import Path

from skeinhom import cli
from skeinhom.spin import admissible_triple

PINS = Path(__file__).resolve().parent / "spin_cli_pins.json"

ORDERS = {"annulus": 14, "triangle112": 24, "bproj2": 24, "strands0": 24}
DEPTHS = (None, 0, 1, 2, 3, 5, 8)
FORMATS = ("pretty", "json")
TRI_ANNULUS = {
    "arcs": ["a", "b"],
    "seams": ["g1", "g2"],
    "regions": [
        [{"arc": "a"}, {"seam": "g1", "side": "+"}, {"seam": "g2", "side": "-"}],
        [{"arc": "b"}, {"seam": "g2", "side": "+"}, {"seam": "g1", "side": "-"}],
    ],
}
EDGES = ("a", "b", "g1", "g2")


def network(colors):
    return json.dumps({"surface": TRI_ANNULUS, "coloring": dict(zip(EDGES, colors))})


def admissible(c):
    """Both triangles of the annulus: (a, g1, g2) and (b, g2, g1)."""
    return admissible_triple(c[0], c[2], c[3]) and admissible_triple(c[1], c[3], c[2])


def colors(c):
    return " ".join(map(str, c))


def jobs():
    """(key, argv) of every pinned job, before its --out option."""
    for scenario, top in ORDERS.items():
        for order in range(top + 1):
            for depth in DEPTHS:
                argv = ["spin", "crosscheck", "--scenario", scenario, "--order", str(order)]
                argv += [] if depth is None else ["--depth", str(depth)]
                yield " ".join(argv), argv
    # every admissible coloring, then one that is not
    for c in [c for c in itertools.product(range(5), repeat=4) if admissible(c)] + [(1, 0, 1, 1)]:
        yield f"spin pairing {colors(c)}", ["spin", "pairing", "--net", network(c)]
    # equal and distinct interiors on one boundary, and boundaries that
    # do not match
    for one, other in [((0, 0, 1, 1), (0, 0, 1, 1)), ((0, 0, 1, 1), (0, 0, 0, 0)),
                       ((4, 2, 3, 3), (4, 2, 3, 3)), ((2, 2, 1, 1), (2, 0, 1, 1)),
                       ((0, 0, 1, 1), (2, 0, 1, 1))]:
        yield (f"spin pairing {colors(one)} --against {colors(other)}",
               ["spin", "pairing", "--net", network(one), "--against", network(other)])


def run_job(argv):
    """[exit code, sha256 of stdout, sha256 of stderr]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest()
                     for s in (out, err)]


def replay():
    return {f"{key} --out {fmt}": run_job(argv + ["--out", fmt])
            for key, argv in jobs() for fmt in FORMATS}


def test_spin_jobs_match_pins():
    pins = json.loads(PINS.read_text())
    got = replay()
    assert sorted(got) == sorted(pins)
    assert [job for job, result in got.items() if pins[job] != result] == []


def test_pins_hold_truncation_and_spec_refusals():
    codes = {result[0] for result in json.loads(PINS.read_text()).values()}
    assert codes == {0, 2, 3}


if __name__ == "__main__":
    pins = replay()
    PINS.write_text("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                        for k, v in sorted(pins.items())) + "\n}\n")
