"""Command-line front end.

Every subcommand is a thin wrapper over the library: parse inputs, call the
one relevant function, print text or JSON.  Exit codes: 0 success/certified,
1 negative mathematical verdict, 2 usage or precondition error, 3 resource
limit exceeded.  All numeric output is exact.  A command charges all its
work to one ``Budget`` of ``--budget`` units; ``verify-paper`` gives each
case a budget of its own.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .complexes import (
    GenericMatrix,
    betti_rank_formula,
    eagon_northcott,
    koszul_complex,
)
from .detring import det_reduction_sequence, minors_ideal
from .errors import CakError, PreconditionError, ResourceLimitError
from .fileio import load_module, load_ring, ring_to_dict, save_ring
from .groebner import Budget, IdealHandle, RingMap, ideal_ops, ring_map_kernel
from .polyring import RingPresentation, parse_poly, parse_poly_list
from .quotient import (
    QuotientRing,
    cm_type,
    embedding_dim,
    ext_dims,
    free_module_presentation,
    socle_dim,
    tor_dims,
)
from .resolve import PresentedModule, minimal_free_resolution
from .semigroup import NumericalSemigroup, semigroup_ring
from .semigroup import family_2x3_semigroup as family_2x3
from .ulrich import ar_instance_check, is_ulrich
from .verify import DEFAULT_SEED, run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _matrix_from_text(text: str, ring: RingPresentation):
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append([parse_poly(cell.strip(), ring) for cell in chunk.split(",")])
    if not rows:
        raise PreconditionError("empty matrix")
    return GenericMatrix(ring, rows)


def _emit(args, payload, text_lines=None):
    if getattr(args, "json", False) or text_lines is None:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=str)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _gens(args, ring):
    return parse_poly_list(args.gens, ring)


def cmd_gb(args, budget):
    ring = load_ring(args.ring)
    gb = IdealHandle(ring, _gens(args, ring)).groebner_basis(budget)
    _emit(args, [str(g) for g in gb], [str(g) for g in gb])
    return EXIT_OK


def cmd_nf(args, budget):
    ring = load_ring(args.ring)
    handle = IdealHandle(ring, _gens(args, ring))
    result = handle.normal_form(parse_poly(args.poly, ring), budget)
    _emit(args, str(result), [str(result)])
    return EXIT_OK


def cmd_ideal_op(args, budget):
    ring = load_ring(args.ring)
    left = IdealHandle(ring, _gens(args, ring))
    right = None
    if args.op == "power":
        if args.exponent is None:
            raise PreconditionError("power needs --exponent")
        right = args.exponent
    else:
        if args.other is None:
            raise PreconditionError(f"{args.op} needs --other")
        right = IdealHandle(ring, parse_poly_list(args.other, ring))
    result = ideal_ops(args.op, left, right, budget)
    if isinstance(result, bool):
        _emit(args, result, ["true" if result else "false"])
        return EXIT_OK if result else EXIT_NEGATIVE
    gens = [str(g) for g in result.groebner_basis(budget)]
    _emit(args, gens, gens)
    return EXIT_OK


def cmd_kernel(args, budget):
    source = load_ring(args.ring)
    if args.target:
        target = load_ring(args.target)
    else:
        target = RingPresentation(["t"], [1], source.field)
    images = parse_poly_list(args.images, target)
    kernel = ring_map_kernel(RingMap(source, target, images), budget)
    gens = [str(g) for g in kernel.groebner_basis(budget)]
    _emit(args, gens, gens)
    return EXIT_OK


def _module_for(args, ring) -> PresentedModule:
    if getattr(args, "module", None):
        return load_module(args.module, ring)
    if getattr(args, "gens", None):
        return PresentedModule.cyclic(ring, parse_poly_list(args.gens, ring))
    raise PreconditionError("need --gens or --module")


def cmd_resolve(args, budget):
    """``resolve`` prints the Betti table as JSON; ``betti`` prints it as
    text, or the same JSON with ``--json``."""
    ring = load_ring(args.ring)
    module = _module_for(args, ring)
    res = minimal_free_resolution(module, max_length=args.max_length, budget=budget)
    payload = {"betti": res.betti.as_rows(), "complete": res.complete}
    lines = None
    if args.command == "betti":
        lines = [res.betti.format_macaulay()]
        if not res.complete:
            lines.append(f"(truncated at length {len(res.total_ranks()) - 1})")
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_betti_formula(args, budget):
    ranks = list(betti_rank_formula(args.v, args.r, args.d, budget))
    try:
        text = json.dumps(ranks)
    except ValueError as e:  # a rank past the interpreter's limit on int-to-text conversion
        raise ResourceLimitError(f"a Betti rank is too long to print: {e}") from None
    _emit(args, ranks, [text])
    return EXIT_OK


def cmd_koszul(args, budget):
    ring = load_ring(args.ring)
    cx = koszul_complex(ring, parse_poly_list(args.elems, ring), budget)
    _emit(args, list(cx.ranks()), [json.dumps(list(cx.ranks()))])
    return EXIT_OK


def cmd_en(args, budget):
    ring = load_ring(args.ring)
    matrix = _matrix_from_text(args.matrix, ring)
    cx = eagon_northcott(matrix, budget)
    _emit(args, list(cx.ranks()), [json.dumps(list(cx.ranks()))])
    return EXIT_OK


def _against_module(args, ring, module):
    if args.against == "self":
        return module
    if args.against == "ring":
        return free_module_presentation(ring)
    return load_module(args.against, ring)


def cmd_ext_tor(args, budget):
    ring = load_ring(args.ring)
    R = QuotientRing(ring)
    module = load_module(args.module, ring)
    against = _against_module(args, ring, module)
    dims = args.dims(R, module, against, args.bound, budget)
    _emit(args, dims, [json.dumps(dims)])
    return EXIT_OK


def cmd_type(args, budget):
    ring = load_ring(args.ring)
    params = parse_poly_list(args.params, ring) if args.params else []
    if params:
        value = cm_type(QuotientRing(ring), params, budget)
    else:
        value = socle_dim(QuotientRing(ring), budget)
    _emit(args, value, [str(value)])
    return EXIT_OK


def cmd_embdim(args, budget):
    ring = load_ring(args.ring)
    value = embedding_dim(ring, budget)
    _emit(args, value, [str(value)])
    return EXIT_OK


def cmd_ulrich(args, budget):
    ring = load_ring(args.ring)
    R = QuotientRing(ring)
    I = IdealHandle(ring, parse_poly_list(args.ideal, ring))
    q = IdealHandle(ring, parse_poly_list(args.reduction, ring) if args.reduction else [])
    report = is_ulrich(R, I, q, args.dim, budget)
    lines = [f"{k}: {v}" for k, v in report.as_dict().items()]
    _emit(args, report.as_dict(), lines)
    return EXIT_OK if report.is_ulrich else EXIT_NEGATIVE


def cmd_ar_check(args, budget):
    ring = load_ring(args.ring)
    R = QuotientRing(ring)
    module = load_module(args.module, ring)
    verdict = ar_instance_check(R, module, args.bound, budget)
    payload = verdict.as_dict()
    lines = [f"{k}: {v}" for k, v in payload.items()]
    _emit(args, payload, lines)
    return EXIT_OK if verdict.classification != "counterexample_candidate" else EXIT_NEGATIVE


def cmd_semigroup(args, budget):
    S = NumericalSemigroup(args.generators)
    presented = semigroup_ring(S, budget=budget)
    payload = ring_to_dict(presented)
    if args.emit_ring:
        save_ring(presented, args.emit_ring)
    lines = [
        f"vars: {', '.join(presented.vars)} (weights {list(presented.weights)})",
        "relations:",
        *[f"  {r}" for r in presented.relations],
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_family_2x3(args, budget):
    presented, expected, match = family_2x3(args.n, budget=budget)
    payload = {
        "n": args.n,
        "match": match,
        "computed_relations": [str(r) for r in presented.relations],
        "expected_generators": [str(g) for g in expected.gens],
    }
    lines = [f"n = {args.n}: match = {match}"]
    _emit(args, payload, lines)
    return EXIT_OK if match else EXIT_NEGATIVE


def cmd_minors(args, budget):
    ring = load_ring(args.ring)
    matrix = _matrix_from_text(args.matrix, ring)
    handle = minors_ideal(matrix, args.size, budget=budget)
    gens = [str(g) for g in handle.gens]
    _emit(args, gens, gens)
    return EXIT_OK


def cmd_det_reduce(args, budget):
    forms, report = det_reduction_sequence(args.s, args.t, budget=budget)
    payload = report.as_dict()
    lines = [
        "forms: " + "; ".join(str(f) for f in forms),
        f"equality: {report.equality}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if report.equality else EXIT_NEGATIVE


def cmd_verify_paper(args, budget):
    # one budget per case, not one for the whole suite
    result = run_suite(pattern=args.filter, seed=args.seed, budget=args.budget)
    if not result.cases:
        print("warning: filter matched no cases", file=sys.stderr)
        return EXIT_OK
    if args.json:
        print(result.to_json())
    else:
        print(result.summary())
    return EXIT_OK if result.passed else EXIT_NEGATIVE


def _add_common(sp, ring=True):
    if ring:
        sp.add_argument("--ring", required=True, help="ring presentation JSON file")
    sp.add_argument(
        "--budget", type=int, default=None,
        help="one work budget for the whole command: Groebner pairs considered, "
        "enumerated standard monomials, unit cancellations, the generators "
        "of each monomial ideal of the Hilbert-numerator recursion, vectors "
        "inserted into an echelon form, complex basis elements and "
        "determinant memo entries",
    )
    sp.add_argument("--json", action="store_true", help="machine-readable output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    ap = argparse.ArgumentParser(
        prog="cak", description="exact commutative-algebra toolkit"
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gb", help="reduced Groebner basis of gens + relations")
    _add_common(sp)
    sp.add_argument("--gens", required=True, help="';'-separated polynomials")
    sp.set_defaults(fn=cmd_gb)

    sp = sub.add_parser("nf", help="normal form of a polynomial modulo an ideal")
    _add_common(sp)
    sp.add_argument("--gens", required=True)
    sp.add_argument("--poly", required=True)
    sp.set_defaults(fn=cmd_nf)

    sp = sub.add_parser("ideal-op", help="ideal arithmetic")
    _add_common(sp)
    sp.add_argument(
        "--op",
        required=True,
        choices=["sum", "product", "power", "intersection", "colon", "equal", "contains"],
    )
    sp.add_argument("--gens", required=True)
    sp.add_argument("--other", default=None)
    sp.add_argument("--exponent", type=int, default=None)
    sp.set_defaults(fn=cmd_ideal_op)

    sp = sub.add_parser("kernel", help="kernel of a ring map (graph + elimination)")
    _add_common(sp)
    sp.add_argument("--target", default=None, help="target ring file (default k[t])")
    sp.add_argument("--images", required=True, help="';'-separated images in the target")
    sp.set_defaults(fn=cmd_kernel)

    for name in ("resolve", "betti"):
        sp = sub.add_parser(name, help="minimal free resolution / Betti table")
        _add_common(sp)
        sp.add_argument("--gens", default=None, help="cyclic module: ideal generators")
        sp.add_argument("--module", default=None, help="module presentation JSON file")
        sp.add_argument("--max-length", type=int, default=None, dest="max_length")
        sp.set_defaults(fn=cmd_resolve)

    sp = sub.add_parser("betti-formula", help="closed-formula Betti ranks (v, r, d)")
    sp.add_argument("v", type=int)
    sp.add_argument("r", type=int)
    sp.add_argument("d", type=int)
    _add_common(sp, ring=False)
    sp.set_defaults(fn=cmd_betti_formula)

    sp = sub.add_parser("koszul", help="Koszul complex ranks")
    _add_common(sp)
    sp.add_argument("--elems", required=True)
    sp.set_defaults(fn=cmd_koszul)

    sp = sub.add_parser("en", help="Eagon-Northcott complex ranks")
    _add_common(sp)
    sp.add_argument("--matrix", required=True, help="rows ';'-separated, entries ','-separated")
    sp.set_defaults(fn=cmd_en)

    for name, dims in (("ext", ext_dims), ("tor", tor_dims)):
        sp = sub.add_parser(name, help=f"{name} dimensions over an Artinian quotient")
        _add_common(sp)
        sp.add_argument("--module", required=True)
        sp.add_argument("--against", default="self", help="self | ring | module file")
        sp.add_argument("--bound", type=int, default=10)
        sp.set_defaults(fn=cmd_ext_tor, dims=dims)

    sp = sub.add_parser("type", help="Cohen-Macaulay type (socle of Artinian reduction)")
    _add_common(sp)
    sp.add_argument("--params", default="", help="';'-separated parameter sequence")
    sp.set_defaults(fn=cmd_type)

    sp = sub.add_parser("embdim", help="embedding dimension")
    _add_common(sp)
    sp.set_defaults(fn=cmd_embdim)

    sp = sub.add_parser("socle", help="socle dimension of an Artinian quotient")
    _add_common(sp)
    sp.set_defaults(fn=cmd_type, params="")

    sp = sub.add_parser("ulrich", help="certify an Ulrich ideal (exit 0 iff certified)")
    _add_common(sp)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--reduction", required=True)
    sp.add_argument("--dim", type=int, required=True)
    sp.set_defaults(fn=cmd_ulrich)

    sp = sub.add_parser("ar-check", help="bounded vanishing-implies-free instance check")
    _add_common(sp)
    sp.add_argument("--module", required=True)
    sp.add_argument("--bound", type=int, default=10)
    sp.set_defaults(fn=cmd_ar_check)

    sp = sub.add_parser("semigroup", help="numerical semigroup ring presentation")
    sp.add_argument("generators", type=int, nargs="+")
    sp.add_argument("--emit-ring", default=None, dest="emit_ring")
    _add_common(sp, ring=False)
    sp.set_defaults(fn=cmd_semigroup)

    sp = sub.add_parser("family-2x3", help="four-generated semigroup family check")
    sp.add_argument("--n", type=int, required=True)
    _add_common(sp, ring=False)
    sp.set_defaults(fn=cmd_family_2x3)

    sp = sub.add_parser("minors", help="ideal of s x s minors")
    _add_common(sp)
    sp.add_argument("--matrix", required=True)
    sp.add_argument("--size", type=int, required=True)
    sp.set_defaults(fn=cmd_minors)

    sp = sub.add_parser("det-reduce", help="determinantal reduction-sequence check")
    sp.add_argument("--s", type=int, required=True)
    sp.add_argument("--t", type=int, required=True)
    _add_common(sp, ring=False)
    sp.set_defaults(fn=cmd_det_reduce)

    sp = sub.add_parser("verify-paper", help="run the acceptance verification suite")
    sp.add_argument("--filter", default=None, help="case-id glob, e.g. 'c0[12]*'")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sp.add_argument("--budget", type=int, default=None, help="work budget of each case")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_verify_paper)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, Budget(getattr(args, "budget", None)))
    except ResourceLimitError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CakError, OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
