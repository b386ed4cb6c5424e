"""The repository benchmark's tracer wraps simulator names it does not own.

``perfbench/tracer.py`` patches a fixed list of methods and functions by
name before the traced run (``install``), including some that no
simulator loop calls (``EventCalendar.next_is_arrival``,
``FleetState.price_run``, ...). Renaming or deleting one of them breaks
the benchmark's traced run with an ``AttributeError`` while every other
test stays green, so this guard installs the tracer in a fresh
interpreter — fresh, because installing patches classes process-wide.

The traced run also checks the tracer's call counts against the
program's own counters (``worker.cross_checks``): a query the program
counts outside every wrapped method passes the install check and fails
only the traced benchmark. So each workload's reduced slice runs traced
here too, and every cross-check must agree.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: Traces one workload's reduced slice at the recorded seed on the
#: vectorized core, as ``worker.py traced`` does, and prints the
#: cross-check triples.
CROSS_CHECK = """
import json, sys
sys.path.insert(0, {perfbench!r})
import tracer, worker
from workloads import DEFAULT_SEED, slice_spec

spec = slice_spec({workload!r}, DEFAULT_SEED, "vectorized")
clock = worker.RunClock()
clock.install()
traced = tracer.Tracer(
    [t.name for t in spec.tenants if t.slo.admission != "admit"]
)
tracer.install(traced)
_, summary = worker.run_once(spec, clock)
print(json.dumps(worker.cross_checks(traced, summary)))
"""


def _run(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )


def test_tracer_installs_against_the_simulator():
    completed = _run(
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r}); "
        "import worker, tracer; tracer.install(tracer.Tracer(()))"
    )
    assert completed.returncode == 0, completed.stderr


@pytest.mark.parametrize(
    "workload", ("storm", "near-capacity", "sessions-disagg")
)
def test_traced_slice_cross_checks_agree(workload):
    completed = _run(
        CROSS_CHECK.format(perfbench=str(PERFBENCH), workload=workload)
    )
    assert completed.returncode == 0, completed.stderr
    checks = json.loads(completed.stdout.splitlines()[-1])
    counts = {name: traced for name, traced, _ in checks}
    assert counts["fleetstate.probes"] > 0
    assert [c for c in checks if c[1] != c[2]] == []
