"""Self-test of the benchmark at a tiny size.

    python3 bench/selftest.py

For every workload it checks that:
- the plan at BENCHMARK.json's run_seconds has no repeated job and leaves
  at least ten samples beyond op_s.p90, and every surface-hom job and every query of a
  real homology complex has a recorded output;
- another seed changes the draw but not the mix of op kinds;
- a tiny untraced run and a tiny traced run end with a correct result that
  carries exactly the metrics BENCHMARK.json names, each with its unit.
It also checks that the runner refuses, with no result, in a directory that
holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on the
first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY_SECONDS = 2


def expect(ok, what):
    if not ok:
        sys.exit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}")


def check_plans(workload, seconds):
    planned = workloads.plan(workload, 1, seconds)
    keys = [job.key for job in planned]
    expect(len(set(keys)) == len(keys), f"{workload}: no job repeats within a plan")
    beyond = len(planned) - math.ceil(0.9 * len(planned))
    expect(beyond >= 10, f"{workload}: {beyond} samples lie beyond op_s.p90")
    other = workloads.plan(workload, 2, seconds)
    expect(workloads.mix(other) == workloads.mix(planned),
           f"{workload}: another seed keeps the mix {workloads.mix(planned)}")
    expect({job.key for job in other} != set(keys), f"{workload}: another seed draws other jobs")
    if workload == "surface-hom":
        golden = workloads.load_golden()["jobs"]
        pool = [job for _kind, jobs in workloads.surface_pool() for job in jobs]
        expect(all(job.key in golden for job in pool),
               f"surface-hom: all {len(pool)} drawable jobs have a recorded output")
    if workload == "homology":
        golden = workloads.load_golden()["homology"]
        pool = workloads.real_homology_pool()
        expect(all(workloads.real_golden_key(name, query) in golden
                   for name, _kind, query in pool),
               f"homology: all {len(pool)} real-complex queries have a recorded answer")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(TINY_SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(workload, trace, declared):
    proc = run_bench(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} --trace {trace}: exits 0 ({proc.stderr[-500:]})")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} --trace {trace}: result has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} --trace {trace}: correct, {result['attempted']} attempted, none failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == declared, f"{workload} --trace {trace}: every declared metric, with its unit")
    expect(all(isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)
               for m in result["metrics"].values()),
           f"{workload} --trace {trace}: every value is a number")


def check_refuses_without_program():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench(bare, "skein", 0)
    shutil.rmtree(bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "without the program the runner exits non-zero and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    expect({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
           == set(run.WORKLOADS) == set(run.COVERAGE),
           "BENCHMARK.json, the runner and the plans name the same workloads")
    for workload in workloads.WORKLOADS:
        check_plans(workload, spec["run_seconds"])
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(workload, trace, declared[trace])
    check_refuses_without_program()


if __name__ == "__main__":
    main()
