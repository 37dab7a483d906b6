"""Every recorded surface-hom job replays to its recorded exit code and output.

bench/golden.json holds, for each `surface hom` and `coarsen-check` job the
benchmark can draw, the exit code and a digest of standard output at the
commit that defined the benchmark.  Here each job runs in-process through
skeinhom.cli.run with its fixture names replaced by inline JSON; only the
JSON file is read from bench/.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from skeinhom import cli

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden.json"


def _seam(name, side):
    return {"seam": name, "side": side}


FIXTURES = {
    "ANNULUS": {"arcs": ["a", "b"], "seams": ["g"],
                "regions": [[_seam("g", "-"), {"arc": "a"}, _seam("g", "+"), {"arc": "b"}]]},
    "ANNULUS2": {"arcs": ["a0", "a1", "a2", "a3"], "seams": ["g1", "g2"],
                 "regions": [[_seam("g1", "-"), {"arc": "a0"}, _seam("g2", "+"), {"arc": "a1"}],
                             [_seam("g2", "-"), {"arc": "a2"}, _seam("g1", "+"), {"arc": "a3"}]]},
    "SEAMED_DISK": {"arcs": ["a0", "a1"], "seams": ["g"],
                    "regions": [[{"arc": "a0"}, _seam("g", "+")],
                                [_seam("g", "-"), {"arc": "a1"}]]},
    "CORE": {"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1]]}]},
    "CORE2": {"regions": [{"counts": [1, 0, 1, 0], "chords": [[0, 1]]},
                          {"counts": [1, 0, 1, 0], "chords": [[0, 1]]}]},
    "SEAMED_DISK_ARC": {"regions": [{"counts": [1, 1], "chords": [[0, 1]]},
                                    {"counts": [1, 1], "chords": [[0, 1]]}]},
    "CUPCAP2": {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 1], [2, 3]]}]},
    "THROUGH2": {"regions": [{"counts": [2, 0, 2, 0], "chords": [[0, 3], [1, 2]]}]},
}


def replay(key):
    """(exit code, stdout digest) of one job, its key being its argv."""
    argv = [json.dumps(FIXTURES[w]) if w in FIXTURES else w for w in key.split(" ")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:32]]


def test_every_recorded_job_replays():
    jobs = json.loads(GOLDEN.read_text())["jobs"]
    assert len(jobs) > 800
    mismatched = [key for key, recorded in sorted(jobs.items()) if replay(key) != recorded]
    assert mismatched == []
