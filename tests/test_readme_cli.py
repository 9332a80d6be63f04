"""The CLI commands of README.md, run in process and pinned byte for byte.

Each command runs on fixture files written to its own ``tmp_path``, and its
exit code and the sha256 of its stdout are pinned.  ``verify-paper`` is left
out: ``tests/test_acceptance.py`` pins its report.  The README leaves three
inputs open; the fixtures chosen for them are:

* ``M.json``: the cyclic module R/(Y), a finite-length module of projective
  dimension one over ``ring.json`` (Y is a parameter of the curve's domain);
* ``artinian.json``: ``ring.json`` cut by the parameter X, that is
  k[X,Y,Z,W]/(X^7 - ZW, Y^2 - XZ, Z^2 - XW, W^2 - X^6 Z, X);
* the ``betti --gens "..."`` placeholder: the curve's four relations, as in
  the ``resolve`` line.

``tor`` runs over ``artinian.json``: Tor wants an Artinian ring, and
against R itself over the one-dimensional ``ring.json`` it could only be a
precondition error.  Over the Artinian ring, R/(Y) against itself has Tor
of dimension 3 in every degree through the bound.
"""

import hashlib
import json
import pathlib
import shlex

import pytest

from cak.cli import main
from conftest import R1_RELATIONS, R1_WEIGHTS

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

RING = {
    "field": {"kind": "fp", "p": 32003},
    "vars": ["X", "Y", "Z", "W"],
    "weights": list(R1_WEIGHTS),
    "relations": [s.strip() for s in R1_RELATIONS.split(";")],
}
FIXTURES = {
    "ring.json": RING,
    "plain.json": {**RING, "relations": []},
    "two.json": {
        "field": {"kind": "fp", "p": 32003},
        "vars": ["x1", "x2"],
        "weights": [1, 1],
        "relations": [],
    },
    "artinian.json": {**RING, "relations": RING["relations"] + ["X"]},
    "M.json": {"ambient_twists": [0], "relations": [["Y"]]},
}
BETTI_GENS = R1_RELATIONS

# README command (placeholder filled in) -> (exit code, sha256 of stdout)
PINS = {
    "gb --ring ring.json --gens 'X; Z; W'": (0, 'cb34600911e4c2b2dd168dc8e80b942d5366ef8cc603f1e4f8284fd7e1f49f25'),
    "nf --ring ring.json --gens X --poly 'Z^2'": (0, '9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa'),
    "ideal-op --ring ring.json --op colon --gens X --other 'X; Z; W'": (0, 'cb34600911e4c2b2dd168dc8e80b942d5366ef8cc603f1e4f8284fd7e1f49f25'),
    "kernel --ring plain.json --images 't^6; t^11; t^16; t^26'": (0, '802ebb7c9a6ac7df09873683204916101fcb6e57fa8360f0f52bfa7b914e4adc'),
    "resolve --ring plain.json --gens 'X^7 - Z*W; Y^2 - X*Z; Z^2 - X*W; W^2 - X^6*Z'": (0, 'c1d6a073cf9bb8dcc7106fd95103ff15ee9d02a8de81d5db8f69939e3af4b91f'),
    "betti --ring plain.json --gens 'X^7 - Z*W; Y^2 - X*Z; Z^2 - X*W; W^2 - X^6*Z'": (0, '7e12aa7def9dc827eda357e8d56aef1438901e4dea102dc12c233d4795394b3c'),
    'betti-formula 4 2 1': (0, 'd5630696be3cb4a58b2becbd3a6f3355d589bae20299d0f0f87508ece63f6507'),
    "koszul --ring plain.json --elems 'X; Y'": (0, '52233266cc173d515438851ec7b1051ff19531bd8f785747c7d77e6d6dd652bf'),
    "en --ring two.json --matrix 'x1,x2,0; 0,x1,x2'": (0, '1cc2841ff998bec257c8112e7b648b5835809e7ac081d6ef4c1b027f586a2ec1'),
    'ext --ring ring.json --module M.json --against self --bound 10': (0, 'd96fc455e82d9e4b1fca51bb1c2b6ec92f79e5d2d07481b45b0130d17c8137a1'),
    'tor --ring artinian.json --module M.json --against self --bound 10': (0, '6cf3d05260c139e08848f7241d075eebc9c32f2a0bb7664b11e7855871efeb2c'),
    'type --ring ring.json --params X': (0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    'embdim --ring ring.json': (0, '7de1555df0c2700329e815b93b32c571c3ea54dc967b89e81ab73b9972b72d1d'),
    'socle --ring artinian.json': (0, '53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3'),
    "ulrich --ring ring.json --ideal 'X; Z; W' --reduction X --dim 1": (0, '3849788115cdfa61dc69624c58ef0c03d867961cb4e6bcb4cd30b17e87c8618e'),
    'ar-check --ring artinian.json --module M.json --bound 10': (0, 'a15fa74e0f308fad5261adec65d2cdc03d9fe9ded435860dfe95d55a8e584d82'),
    'semigroup 6 11 16 26 --emit-ring ring.json': (0, 'f06042d663c1beff2a13f647ca41ec784fe7ee5b05e5ae5e12d0c2d03caf6c96'),
    'family-2x3 --n 9': (0, 'c606b9b6b30fdc60bfe4b41e411f928304e49e048ea0a7cc4aa7709b2a69ede2'),
    "minors --ring two.json --matrix 'x1,x2,0; 0,x1,x2' --size 2": (0, '6ff31a69c477d828a53174d69b657aabdfe7bace0261f4d19baa407184231112'),
    'det-reduce --s 2 --t 3': (0, '5add631a04e3c74bc2806b2641e1685559428a1e64d2a9f3d61ba465d1616cd2'),
}


def readme_commands():
    """The argument lists of the ``cak`` lines of README.md, comments
    dropped, verify-paper left out and the placeholder filled in."""
    out = []
    for line in README.read_text().splitlines():
        if line.startswith("cak ") and not line.startswith("cak verify-paper"):
            argv = shlex.split(line.split("#")[0])[1:]
            out.append([BETTI_GENS if a == "..." else a for a in argv])
    return out


def test_every_readme_command_is_pinned():
    assert readme_commands() == [shlex.split(c) for c in PINS]


@pytest.mark.parametrize("command", list(PINS))
def test_readme_command_output(command, tmp_path, capsys):
    for name, content in FIXTURES.items():
        (tmp_path / name).write_text(json.dumps(content))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in shlex.split(command)]
    rc = main(argv)
    out = capsys.readouterr().out
    assert (rc, hashlib.sha256(out.encode()).hexdigest()) == PINS[command]
