"""Line coverage of ``src/cak`` under the tier-1 suite, standard library only.

Run from the repository root (checked on Python 3.11, which CI runs it on)::

    python tools/linecov.py [pytest arguments]

which is ``PYTHONPATH=src:tools python -m pytest -q -p linecov`` with the
arguments appended.  A ``sys.settrace`` tracer records every line run in a
file under ``src/cak``.  It is installed before pytest loads the first
conftest, so before anything imports ``cak``, and again before each test
phase (setup, call, teardown), since a test or a library it calls may set
a tracer of its own.  At the end of the session the executable lines of
each module, the line numbers that ``co_lines()`` gives over all of its
code objects, are compared with the lines run.  Every missed line that
``ALLOWED`` does not name is printed, and the session exits nonzero, also
when every test passed.  Traced, the suite takes about three times as
long; lines that run only in a subprocess count as missed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cak"
# (file name under src/cak, line) pairs allowed to be missed
ALLOWED: frozenset = frozenset()


def executable_lines(path: Path) -> set:
    """The line numbers of every code object compiled from ``path``."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # a module's code starts at line 0, which no line event reports
        out.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


class LineCoverage:
    """The lines run per file of the package, and the pytest hooks that keep
    the tracer installed and report what was missed."""

    def __init__(self, package: Path = PACKAGE):
        self.package, self.prefix = package, str(package) + os.sep
        self.hits: dict = {}  # file name -> lines run
        self.tracers: dict = {}  # code object -> its local trace function, or None
        self.missed: list[tuple[str, int]] = []
        self.total = 0

    def trace(self, frame, event, arg):
        code = frame.f_code
        local = self.tracers.get(code, self)
        if local is self:
            local = self.tracers[code] = self.tracer(code)
        return local and local(frame, event, arg)

    def tracer(self, code):
        """The local trace function of ``code``; None outside the package
        or when every line of ``code`` has run.
        It records the line of every event, the def line of a call too,
        which ran before any call could, and once every line of ``code``
        has run it stops the line events of the frame and tracing of the
        frames that follow."""
        name = code.co_filename
        if not name.startswith(self.prefix):
            return None
        hits = self.hits.setdefault(name, set())
        pending = {line for _, _, line in code.co_lines() if line} - hits
        if not pending:  # a comprehension on a line that has run
            return None

        def local(frame, event, arg):
            line = frame.f_lineno
            if line in pending:
                pending.discard(line)
                hits.add(line)
                if not pending:
                    self.tracers[code] = None
                    frame.f_trace_lines = False
            return local

        return local

    def measure(self):
        """Stop tracing, and list the executable lines not run and not allowed."""
        sys.settrace(None)
        self.missed, self.total = [], 0
        for path in sorted(self.package.rglob("*.py")):
            rel, lines = str(path.relative_to(self.package)), executable_lines(path)
            self.total += len(lines)
            missed = lines - (self.hits.get(str(path)) or set())
            self.missed.extend((rel, line) for line in sorted(missed) if (rel, line) not in ALLOWED)

    def pytest_runtest_setup(self, item):
        sys.settrace(self.trace)

    def pytest_runtest_call(self, item):
        sys.settrace(self.trace)

    def pytest_runtest_teardown(self, item):
        sys.settrace(self.trace)

    def pytest_sessionfinish(self, session, exitstatus):
        self.measure()
        if self.missed and session.exitstatus == 0:
            session.exitstatus = 1

    def pytest_terminal_summary(self, terminalreporter):
        terminalreporter.write_sep("-", f"linecov: {len(self.missed)} of {self.total} "
                                        "executable lines of src/cak missed")
        for rel, line in self.missed:
            terminalreporter.write_line(f"src/cak/{rel}:{line}")


def pytest_load_initial_conftests(early_config, parser, args):
    """Install the tracer before the first conftest imports ``cak``."""
    coverage = LineCoverage()
    early_config.pluginmanager.register(coverage, "linecov-tracer")
    sys.settrace(coverage.trace)


if __name__ == "__main__":
    import pytest

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tools")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    sys.exit(pytest.main(["-q", "-p", "linecov", *sys.argv[1:]]))
