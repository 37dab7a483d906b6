"""A short traced run of each benchmark workload: no op fails, and every call
site the benchmark requires of the workload (bench/run.py's COVERAGE) is
reached.  A traced benchmark run refuses a change that leaves a required
site unreached, for example a skein evaluation that stops calling wenzl.

Each run is a fresh worker interpreter started by bench/run.py's own spawn,
as the benchmark starts it (PYTHONHASHSEED=0, no PYTHONPATH), one second's
plan of seed 1.  Nothing under bench/ is written.
"""

import importlib.util
from pathlib import Path
from time import perf_counter

import pytest

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
# A worker that has not reported after this many seconds fails the test.
WORKER_LIMIT_S = 120


def load_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run()


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reaches_every_required_site(workload):
    _ready_s, result = run.spawn(workload, 1, 1, perf_counter() + WORKER_LIMIT_S,
                                 "--trace", "1")
    assert result["ops"]
    assert run.failures(result["ops"]) == []
    sites = result["repeatable"]["sites"]
    assert [site for site in run.COVERAGE[workload] if not sites.get(site)] == []
