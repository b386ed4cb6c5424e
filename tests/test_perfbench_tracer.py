"""The repository benchmark's tracer wraps simulator names it does not own.

``perfbench/tracer.py`` patches a fixed list of methods and functions by
name before the traced run (``install``), including some that no
simulator loop calls (``EventCalendar.next_is_arrival``,
``FleetState.price_run``, ...). Renaming or deleting one of them breaks
the benchmark's traced run with an ``AttributeError`` while every other
test stays green, so this guard installs the tracer in a fresh
interpreter — fresh, because installing patches classes process-wide.
"""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_against_the_simulator():
    code = (
        f"import sys; sys.path.insert(0, {str(PERFBENCH)!r}); "
        "import worker, tracer; tracer.install(tracer.Tracer(()))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PERFBENCH.parent,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode == 0, completed.stderr
