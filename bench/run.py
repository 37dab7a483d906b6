"""Benchmark of skeinhom: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload surface-hom|skein|homology|all \
        --seed N --seconds S --trace 0|1

Each workload runs as one client in a closed loop: the next op starts only
after the previous one returned, and an op starts no threads beyond what it
asks the package for.  The op list comes from the seed and its length from
--seconds (see workloads.py).  Every run starts fresh interpreters, so no
cache of the package carries over from another run.

--trace 0 reports the end-to-end metrics of one untraced pass (over the
pooled ops of several sessions, each a fresh process with its own plan,
where SESSIONS says so), plus set-up time as the median over several fresh
processes.

--trace 1 runs the op list of the first session once untraced, with
threads=None and threads=2 swapped on every homology table, and twice
traced; it reports the per-layer metrics of the first traced pass and the
tracing overhead, and fails unless the two traced passes give identical
counts, all three passes identical output digests, and every call site in
COVERAGE was reached.

Every time reported is at a reference host speed.  A shared host runs the
same code tens of percent faster or slower from one second or minute to the
next, so each worker also times a fixed piece of pure-Python work
(worker.probe) before every op and at each step of set-up, and the seconds
it measured are scaled by REFERENCE_PROBE_S over the median time of the
probes taken next to them.  The summary and the record also give the
unscaled values.

A human-readable summary goes first; the last line of standard output is
the result as one JSON object.  The full record of the run, per-op
latencies and the environment included, is written to
.bench_out/<workload>-seed<N>-trace<T>.json under the repository root.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("surface-hom", "skein", "homology")
# Set-up time is the median over this many fresh processes.
SETUP_SAMPLES = 3
# Times are reported at the host speed where one probe takes this long,
# about what it takes on a calm 2-core Xeon host.
REFERENCE_PROBE_S = 0.0035
# An op's time is scaled by the median of this many probes before it and
# as many after it; set-up time by the median of the probes taken during
# set-up, and per-layer times by the median of all probes of the pass.
PROBE_WINDOW = 4
# An untraced run plays this many sessions, each a fresh process with its
# own seeded plan, and pools their ops.  skein's pool of distinct jobs holds
# about 12 s of work, too few samples for steady latency percentiles.
SESSIONS = {"skein": 2}
# A workload's run is stopped, and fails, after this many seconds.
RUN_LIMIT_S = 170

# Call sites each workload must reach in a traced run; "name@module" is a
# call through that module's binding of the function.
COVERAGE = {
    "surface-hom": (
        "cli.run@cli", "planar.ClosedDiagram@planar", "tqft.pair@barproj",
        "tqft.hom_double@barproj", "tqft.hom_double@surface", "tqft.kh_basis@barproj",
        "tqft.kh_basis@surface", "barproj.TwistedTangleComplex@barproj",
        "barproj.hom_complex@barproj", "surface.SurfaceComplex@surface",
        "surface.coarsen@cli", "homalg.smith_invariants@homalg",
        "homalg.matrix_rank@homalg", "homalg.homology@homalg",
        "homalg.homology_at@homalg", "homalg.TruncatedComplex@homalg",
    ),
    "skein": (
        "spin.RationalFunctionQ@spin", "spin.tl_compose@spin", "spin.wenzl@spin",
        "spin.theta@spin", "planar.compose@spin", "tqft.hom_double@spin",
        "surface.SurfaceComplex@surface", "homalg.homology@homalg",
    ),
    "homology": (
        "homalg.smith_invariants@homalg", "homalg.matrix_rank@homalg",
        "homalg.homology@homalg", "homalg.homology_at@homalg",
        "homalg.TruncatedComplex@homalg", "tqft.pair@barproj",
        "surface.SurfaceComplex@surface",
    ),
}


class BenchError(Exception):
    pass


def spawn(workload, seed, seconds, deadline, *flags):
    """Run worker.py; returns (seconds from start to READY, RESULT)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), *flags]
    lines = []
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)

    def pump():
        for line in proc.stdout:
            lines.append((perf_counter(), line))

    reader = threading.Thread(target=pump)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker {' '.join(flags)} ran past the time limit")
    finally:
        reader.join()
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker {' '.join(flags)} exited {proc.returncode}")
    ready = next((t for t, line in lines if line.strip() == "READY"), None)
    result = next((json.loads(line[len("RESULT "):]) for _t, line in lines
                   if line.startswith("RESULT ")), None)
    if ready is None or result is None:
        raise BenchError(f"{workload} worker {' '.join(flags)} did not report")
    return ready - start, result


def p90(values):
    """Nearest-rank 90th percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


# A worker's RESULT lists its ops as [kind, seconds, failure or None, key]
# and its probe times.

def speed(probes):
    """Factor that turns seconds measured next to these probes into seconds
    at the reference host speed."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def scaled_ops(result, scale=True):
    """The worker's ops, times at the reference host speed if scale is set.
    probes[i] was taken just before op i; the last one after the last op."""
    probes = result["probes"]
    out = []
    for i, (kind, took, error, key) in enumerate(result["ops"]):
        near = probes[max(0, i - PROBE_WINDOW + 1):i + 1 + PROBE_WINDOW]
        out.append([kind, took * speed(near) if scale else took, error, key])
    return out


def setup_time(ready_s, result, scale=True):
    """Seconds from start to READY, less the worker's set-up probes."""
    took = ready_s - result["probing_s"]
    return took * speed(result["setup_probes"]) if scale else took


def throughput(ops):
    return sum(1 for op in ops if op[2] is None) / sum(op[1] for op in ops)


def failures(ops):
    return [(op[0], op[2]) for op in ops if op[2] is not None]


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "skeinhom").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:  # no git on this host
        return None
    return proc.stdout.strip() or None


def environment(seed):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def end_to_end(sessions, setups, scale):
    """Metrics of the pooled ops of the sessions, with set-up time the
    median of the (seconds to READY, RESULT) setups; times are scaled to
    the reference host speed when scale is set."""
    ops = [op for result in sessions for op in scaled_ops(result, scale)]
    latencies = [op[1] for op in ops]
    tail, beyond = p90(latencies)
    ok = sum(1 for op in ops if op[2] is None)
    metrics = {
        "ops_per_s": (throughput(ops), "ops/s"),
        "op_s.p50": (statistics.median(latencies), "s"),
        "op_s.p90": (tail, "s"),
        "setup_s": (statistics.median(setup_time(s, r, scale) for s, r in setups), "s"),
        "peak_rss_mb": (max(result["peak_rss_mb"] for result in sessions), "MB"),
        "ok_frac": (ok / len(ops), "ratio"),
    }
    return metrics, beyond


def run_untraced(workload, seed, seconds, deadline):
    setups = [spawn(workload, seed, seconds, deadline, "--session", str(i))
              for i in range(SESSIONS.get(workload, 1))]
    passes = [result for _, result in setups]
    setups += [spawn(workload, seed, seconds, deadline, "--setup-only")
               for _ in range(SETUP_SAMPLES - len(setups))]
    metrics, beyond = end_to_end(passes, setups, scale=True)
    raw, _ = end_to_end(passes, setups, scale=False)
    ops = [op for result in passes for op in result["ops"]]
    record = {"setup_samples": [[setup_time(s, r, False), speed(r["setup_probes"])]
                                for s, r in setups], "raw_metrics": raw,
              "p90_samples_beyond": beyond, "passes": passes}
    return metrics, len(ops), failures(ops), [], record


def run_traced(workload, seed, seconds, deadline):
    _, plain = spawn(workload, seed, seconds, deadline, "--swap-threads")
    _, first = spawn(workload, seed, seconds, deadline, "--trace", "1")
    _, second = spawn(workload, seed, seconds, deadline, "--trace", "1")
    problems = []
    if first["repeatable"] != second["repeatable"]:
        problems.append("two traced runs of one seed gave different per-layer counts")
    if len({plain["digest"], first["digest"], second["digest"]}) != 1:
        problems.append("the untraced pass (threads swapped on homology tables) and the "
                        "traced passes gave different output digests")
    sites = first["repeatable"]["sites"]
    missing = [site for site in COVERAGE[workload] if not sites.get(site)]
    if missing:
        problems.append(f"traced calls never reached {missing}")
    factor = speed(first["probes"])
    metrics = {name: (value * factor if unit == "s" else value, unit)
               for name, (value, unit) in first["layers"].items()}
    metrics["trace.overhead_frac"] = (
        throughput(scaled_ops(plain)) / throughput(scaled_ops(first)) - 1, "ratio")
    passes = [plain, first, second]
    attempted = sum(len(p["ops"]) for p in passes)
    errors = [e for p in passes for e in failures(p["ops"])]
    return metrics, attempted, errors, problems, {"passes": passes}


def run_workload(workload, seed, seconds, trace, deadline):
    env = environment(seed)
    start = perf_counter()
    runner = run_traced if trace else run_untraced
    metrics, attempted, errors, problems, record = runner(workload, seed, seconds, deadline)
    env["wall_s"] = perf_counter() - start
    env["loadavg_end"] = os.getloadavg()
    # The passes whose ops make up one measured pass: every session of an
    # untraced run, the untraced pass of a traced one.
    measured = record["passes"][:1] if trace else record["passes"]
    env["sessions"] = len(measured)
    env["ops"] = sum(len(p["ops"]) for p in measured)
    env["mix"] = {}
    for p in measured:
        for kind, count in p["mix"].items():
            env["mix"][kind] = env["mix"].get(kind, 0) + count
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"workload": workload, "env": env, "errors": errors,
                                "problems": problems,
                                "metrics": {k: {"value": v, "unit": u}
                                            for k, (v, u) in metrics.items()},
                                **record}, indent=1))
    return env, metrics, attempted, errors, problems, record


def print_summary(workload, env, metrics, attempted, errors, problems, record):
    print(f"== {workload}: {env['ops']} ops per pass in {env['sessions']} session(s), "
          f"mix {env['mix']}")
    print(f"   python {env['python']}, nproc {env['nproc']}, load {env['loadavg_start']} -> "
          f"{env['loadavg_end']}, commit {env['git_commit']}, "
          f"source {env['source_sha256']}, seed {env['seed']}")
    if "p90_samples_beyond" in record:
        print(f"   op_s.p90 over {env['ops']} samples, "
              f"{record['p90_samples_beyond']} beyond it")
        print(f"   {'fail_frac':<40} {len(errors) / attempted:.6g} ratio")
    raw = record.get("raw_metrics", {})
    for name, (value, unit) in metrics.items():
        unscaled = f"  (unscaled {raw[name][0]:.6g})" if unit in ("s", "ops/s") and raw else ""
        print(f"   {name:<40} {value:.6g} {unit}{unscaled}")
    for kind, error in errors[:10]:
        print(f"   FAILED {kind}: {error}")
    for problem in problems:
        print(f"   PROBLEM {problem}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in (ROOT / "src" / "skeinhom" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            sys.exit(f"bench: {needed} is missing; run from a full checkout")

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + RUN_LIMIT_S * len(chosen)
    correct, attempted, failed, out = True, 0, 0, {}
    try:
        for workload in chosen:
            env, metrics, n, errors, problems, record = run_workload(
                workload, args.seed, args.seconds, args.trace, deadline)
            print_summary(workload, env, metrics, n, errors, problems, record)
            correct = correct and not errors and not problems
            attempted += n
            failed += len(errors)
            prefix = f"{workload}/" if args.workload == "all" else ""
            out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    except BenchError as exc:
        sys.exit(f"bench: {exc}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))


if __name__ == "__main__":
    main()
