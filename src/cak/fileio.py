"""JSON file formats: ring presentations and module presentations.
Validation errors carry a JSON-pointer-style path to the offending
element."""

from __future__ import annotations

import json

from .errors import CakError
from .polyring import Field, RingPresentation, parse_poly
from .resolve import GradedFreeModule, PolyMatrix, PresentedModule


class SchemaError(CakError):
    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _expect(cond, pointer, message):
    if not cond:
        raise SchemaError(pointer, message)


def ring_from_dict(data: dict) -> RingPresentation:
    _expect(isinstance(data, dict), "", "ring file must be a JSON object")
    fld = data.get("field", {"kind": "fp", "p": 32003})
    _expect(isinstance(fld, dict) and "kind" in fld, "/field", "need {'kind': 'fp'|'q'}")
    if fld["kind"] == "fp":
        _expect(isinstance(fld.get("p"), int), "/field/p", "need an integer modulus")
        field = Field("fp", fld["p"])
    elif fld["kind"] == "q":
        field = Field("q")
    else:
        raise SchemaError("/field/kind", f"unknown field kind {fld['kind']!r}")
    vars_ = data.get("vars")
    _expect(isinstance(vars_, list) and vars_, "/vars", "need a nonempty list of names")
    for i, v in enumerate(vars_):
        _expect(isinstance(v, str) and v, f"/vars/{i}", "variable names must be nonempty strings")
    weights = data.get("weights", [1] * len(vars_))
    _expect(isinstance(weights, list), "/weights", "need a list of integers")
    _expect(len(weights) == len(vars_), "/weights", "one weight per variable")
    for i, w in enumerate(weights):
        _expect(isinstance(w, int) and w >= 1, f"/weights/{i}", "weights must be positive")
    relations = data.get("relations", [])
    _expect(isinstance(relations, list), "/relations", "need a list of polynomial strings")
    ring = RingPresentation(vars_, weights, field)
    rels = []
    for i, text in enumerate(relations):
        _expect(isinstance(text, str), f"/relations/{i}", "relations are polynomial strings")
        p = parse_poly(text, ring)
        if p.is_zero():
            continue
        if p.homogeneous_degree() is None:
            raise SchemaError(
                f"/relations/{i}", f"relation {text!r} is not weighted-homogeneous"
            )
        rels.append(p)
    return ring.extend_relations(rels)


def ring_to_dict(ring: RingPresentation) -> dict:
    fld = {"kind": "q"} if ring.field.kind == "q" else {"kind": "fp", "p": ring.field.p}
    return {
        "field": fld,
        "vars": list(ring.vars),
        "weights": list(ring.weights),
        "relations": [str(r) for r in ring.relations],
    }


def load_ring(path) -> RingPresentation:
    with open(path, encoding="utf-8") as fh:
        return ring_from_dict(json.load(fh))


def save_ring(ring: RingPresentation, path):
    with open(path, "w") as fh:
        json.dump(ring_to_dict(ring), fh, indent=2, sort_keys=True)
        fh.write("\n")


def module_from_dict(data: dict, ring: RingPresentation) -> PresentedModule:
    _expect(isinstance(data, dict), "", "module file must be a JSON object")
    twists = data.get("ambient_twists")
    _expect(isinstance(twists, list) and twists, "/ambient_twists", "need a nonempty list of integers")
    for i, t in enumerate(twists):
        _expect(isinstance(t, int), f"/ambient_twists/{i}", "twists are integers")
    rel_rows = data.get("relations", [])
    _expect(isinstance(rel_rows, list), "/relations", "need a row-major list of rows")
    _expect(
        len(rel_rows) in (0, len(twists)),
        "/relations",
        "one row per ambient basis element",
    )
    rows = []
    width = None
    for i, row in enumerate(rel_rows):
        _expect(isinstance(row, list), f"/relations/{i}", "rows are lists of strings")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"/relations/{i}", "rows must have equal length")
        parsed = []
        for j, text in enumerate(row):
            _expect(isinstance(text, str), f"/relations/{i}/{j}", "entries are polynomial strings")
            parsed.append(parse_poly(text, ring))
        rows.append(parsed)
    if not rows:
        rows = [[] for _ in twists]
    ambient = GradedFreeModule(ring, twists)
    try:
        return PresentedModule(ring, ambient, PolyMatrix(ring, rows, ncols=width or 0))
    except CakError as e:
        raise SchemaError("/relations", str(e)) from None


def load_module(path, ring: RingPresentation) -> PresentedModule:
    with open(path, encoding="utf-8") as fh:
        return module_from_dict(json.load(fh), ring)
