import os
import re
from fractions import Fraction
from pathlib import Path

import pytest

from gibbslab import ChannelParams

# pyproject's `pythonpath` puts src/ on sys.path for this process only; tests
# that run `python -m gibbslab` in a child process need it on PYTHONPATH too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_results: dict[int, tuple[str, str, float]] = {}


@pytest.fixture
def std_channel() -> ChannelParams:
    """d=2, k=3, uniform input, eps=1/4: the default worked example."""
    return ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 4))


@pytest.fixture
def channel_eps10() -> ChannelParams:
    return ChannelParams(2, 3, (Fraction(1, 2), Fraction(1, 2)), Fraction(1, 10))


def pytest_runtest_logreport(report):
    m = _ACCEPTANCE.search(report.nodeid)
    if m and report.when == "call":
        _results[int(m.group(1))] = (m.group(2), report.outcome.upper(), report.duration)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_results):
        name, outcome, seconds = _results[num]
        word = "PASS" if outcome == "PASSED" else "FAIL"
        # the call's wall time, to read against the test's stopwatch cap
        terminalreporter.write_line(
            f"CRITERION {num:02d} {word}  {name.replace('_', ' ')}  ({seconds:.2f} s)")
