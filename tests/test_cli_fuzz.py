"""Seeded value mutations of the CLI command set, run in process.

The commands are the README lines (``tests/test_readme_cli.py``) and the
``cli-small`` benchmark set (``cakbench/workloads.py``, read and not
imported, as in ``tests/test_workload_cycles.py``).  Each run takes one
command, changes one of its values (a file argument, an integer or a piece
of text) and calls ``cak.cli.main`` with ``--budget 20000`` inside a
``deadline``.  Whatever the input, the run must end in exit code 0, 1, 2 or
3: argparse's own usage exit counts as 2, and any other exception escaping
``main`` fails the test.

Integers are drawn from -1 to 13 and from the hundreds and thousands, so
that work growing with an integer argument (the ranks of ``betti-formula``,
the products of ``ideal-op --op power``) meets the budget.
"""

import json
import pathlib
import random
import re
import types

import pytest

from cak.cli import main
from conftest import deadline
from test_readme_cli import FIXTURES, readme_commands

WORKLOADS_PY = pathlib.Path(__file__).resolve().parent.parent / "cakbench" / "workloads.py"
RUNS = 300
INTEGERS = ["-1", "0", "1", "2", "3", "5", "8", "13", "300", "3000"]
CHARS = "xyzwXYZWabcdt0123456789+-*^/;,() "
TEXTS = ["", "0", "1", ";", "x", "X^40000", "1/0", "((", "é"]


def _cli_small(workdir):
    module = types.ModuleType("cakbench_workloads")
    module.__file__ = str(WORKLOADS_PY)
    exec(compile(WORKLOADS_PY.read_text(), str(WORKLOADS_PY), "exec"), module.__dict__)
    state = module.WORKLOADS["cli-small"].setup(0, str(workdir))
    files = {name: json.dumps(data) for name, data in state["files"].items()}
    commands = [[a.replace("{dir}", str(workdir)) for a in argv] for argv, _ in state["commands"]]
    return files, commands


def _mutate_text(rng, text):
    pick = rng.randrange(5)
    if pick == 0 or not text:
        return rng.choice(TEXTS)
    i = rng.randrange(len(text))
    if pick == 1:
        return text[:i] + text[i + 1:]
    if pick == 2:
        return text[:i] + rng.choice(CHARS) + text[i:]
    if pick == 3:
        j = rng.randrange(i, len(text)) + 1
        return text[:j] + text[i:j] + text[j:]
    return text[:i] + rng.choice(CHARS) + text[i + 1:]


def _mutate(rng, argv, paths):
    """``argv`` with one value, chosen at random, changed by its kind."""
    values = [i for i, a in enumerate(argv) if i and not a.startswith("--")]
    # a file argument is one value in four: swapped files mostly fail to load
    weights = [1 if argv[i] in paths or argv[i].endswith(".json") else 3 for i in values]
    argv = list(argv)
    i = rng.choices(values, weights)[0]
    if argv[i].endswith(".json") or argv[i] in paths:
        argv[i] = rng.choice(paths)
    elif re.fullmatch(r"-?\d+", argv[i]):
        argv[i] = rng.choice(INTEGERS + ["x", "1.5", ""])
    else:
        argv[i] = _mutate_text(rng, argv[i])
    return argv


@pytest.fixture
def command_set(tmp_path):
    """The commands and, per directory, the files they read: rewritten
    before each run, since ``semigroup --emit-ring`` may overwrite one."""
    readme = tmp_path / "readme"
    readme.mkdir()
    small_files, commands = _cli_small(tmp_path / "small")
    for argv in readme_commands():
        commands.append([str(readme / a) if a.endswith(".json") else a for a in argv])
    trees = {
        readme: {name: json.dumps(data) for name, data in FIXTURES.items()},
        tmp_path / "small": small_files,
        tmp_path / "bad": {"broken.json": "[1, 2", "list.json": "[]", "empty.json": "{}"},
    }
    paths = [str(d / name) for d, files in trees.items() for name in files]
    paths += [str(tmp_path / "missing.json"), str(tmp_path)]

    def write():
        for d, files in trees.items():
            d.mkdir(exist_ok=True)
            for name, text in files.items():
                (d / name).write_text(text)

    return commands, paths, write


def test_mutated_commands_exit_with_a_cli_code(command_set, capsys):
    commands, paths, write = command_set
    rng = random.Random("cli fuzz")
    codes = {}
    for _ in range(RUNS):
        argv = _mutate(rng, rng.choice(commands), paths) + ["--budget", "20000"]
        write()
        with deadline(20):
            try:
                rc = main(argv)
            except SystemExit as e:  # argparse's usage error
                rc = e.code
        capsys.readouterr()
        assert rc in (0, 1, 2, 3), argv
        codes[rc] = codes.get(rc, 0) + 1
    # the mutations reach successes, negative verdicts and errors alike
    assert codes.keys() >= {0, 2}, codes
