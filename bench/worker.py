"""One benchmark process: set up a workload, then run its ops one at a time.

Started by run.py in a fresh interpreter, so no cache of the package
carries over from another run.  It prints READY once set-up is done (the
parent times set-up up to that line) and then one RESULT line of JSON:
after the last op, or at once with --setup-only.  Each op's call into the
package is timed; its check runs after the timed call, outside any span.
"""

import argparse
import gc
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A shared host's speed drifts by tens of percent over seconds to minutes.
# probe() is timed before every op and after the last, and PROBES_PER_TICK
# times at each step of set-up; run.py scales the times a worker measured
# by the probe times taken next to them (see run.REFERENCE_PROBE_S).
PROBE_ITERATIONS = 20_000
PROBES_PER_TICK = 2


def probe():
    """Seconds one fixed piece of pure-Python work takes: integer arithmetic,
    then tuple-keyed dict updates with big integers, the two kinds of work
    the package does most.  The collector is off while it runs, so the heap
    the ops left behind does not change it."""
    gc.disable()
    start = perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    terms = {}
    for i in range(PROBE_ITERATIONS // 8):
        key = (i % 97, i % 89, i * 7 % 83)
        terms[key] = terms.get(key, 0) + (i << 40) * i
    took = perf_counter() - start
    gc.enable()
    return took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--session", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--swap-threads", action="store_true",
                    help="swap threads=None and threads=2 on every homology table")
    args = ap.parse_args()

    # Set-up probes, and the seconds spent taking them; run.py takes those
    # out of the set-up time.
    setup_probes = []
    probing_s = 0.0

    def tick():
        nonlocal probing_s
        start = perf_counter()
        setup_probes.extend(probe() for _ in range(PROBES_PER_TICK))
        probing_s += perf_counter() - start

    tick()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import skeinhom

    if not Path(skeinhom.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"skeinhom was imported from {skeinhom.__file__}, not from {ROOT / 'src'}")
    tick()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(skeinhom)

    import workloads
    jobs = workloads.plan(args.workload, args.seed, args.seconds, args.session)
    if args.swap_threads:
        jobs = workloads.with_threads_swapped(jobs)
    tick()
    ops = workloads.setup(args.workload, jobs, args.seed, tick)
    # Set-up objects live for the whole run; keep the collector off them.
    gc.collect()
    gc.freeze()
    tick()
    print("READY", flush=True)
    setup = {"setup_probes": setup_probes, "probing_s": probing_s}
    if args.setup_only:
        print("RESULT " + json.dumps(setup), flush=True)
        return

    records = []
    probes = []
    digest = hashlib.sha256()
    for op in ops:
        probes.append(probe())
        frame = tracer.open() if tracer else None
        start = perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        took = perf_counter() - start
        if tracer:
            tracer.close("op", frame)
        if error is None:
            try:
                error = op.check(result)
                digest.update(f"{op.key}\n{op.text(result)}\n".encode())
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        records.append([op.kind, took, error, op.key])
    probes.append(probe())

    out = {
        "ops": records,
        "probes": probes,
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "mix": workloads.mix(jobs),
    }
    if tracer:
        from tracer import deterministic_part, layer_metrics
        out["layers"] = layer_metrics(tracer)
        out["repeatable"] = deterministic_part(tracer)
    print("RESULT " + json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
