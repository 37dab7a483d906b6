"""Record the surface-hom outputs that benchmark runs are checked against.

    python3 bench/record_golden.py

Runs every job any seed can draw through the command line entry point and
stores its exit code and a digest of its standard output in golden.json,
together with the refusal boundaries: for each complex in
workloads.REFUSAL_SLOTS, the first qmax at which the window
(-depth .. 0) x (qmax - 4 .. qmax) exceeds the truncation certificate.
It also stores the answer, torsion included, to every table and cell query
the homology workload can ask of its two real ANNULUS complexes.
Record at the commit whose outputs are the reference; a later commit
passes only if it prints the same bytes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from skeinhom import cli  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def first_refused(slot):
    spec, top, bottom, depth = slot
    for qmax in range(-6, 40):
        job = workloads.surface_job("probe", ("surface hom", spec, top, bottom, depth, None),
                                    (-depth, qmax - 4, qmax, "json"))
        code, _out, err = workloads.run_cli(cli, workloads.inline(job.params[0]))
        if code == 2:
            if qmax == -6:
                raise SystemExit(f"{slot}: refused at every window")
            return qmax
        if code != 0:
            raise SystemExit(f"{slot}: exit {code}: {err}")
    raise SystemExit(f"{slot}: never refused")


def main():
    golden = {
        "recorded_at": {"git_commit": run.git_commit(), "source_sha256": run.source_digest()},
        "boundaries": {workloads.refusal_slot_key(s): first_refused(s)
                       for s in workloads.REFUSAL_SLOTS},
        "jobs": {},
        "homology": {},
    }
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1))
    for kind, jobs in workloads.surface_pool():
        for job in jobs:
            code, out, _err = workloads.run_cli(cli, workloads.inline(job.params[0]))
            golden["jobs"][job.key] = [code, workloads.output_digest(out)]
        print(f"{kind}: {len(jobs)} jobs", flush=True)
    real = workloads.build_real_complexes()
    for name, kind, query in workloads.real_homology_pool():
        golden["homology"][workloads.real_golden_key(name, query)] = (
            workloads.real_homology_text(real[name], kind, query))
    print(f"homology: {len(golden['homology'])} real-complex queries", flush=True)
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
