"""The four benchmark workloads.

Each workload turns ``(seed, op index)`` into plain data (exponent tuples,
coefficients, argv lists), runs one op on it through the public ``cak`` API,
and returns the op's output in a canonical text form that the benchmark
hashes.  ``cak`` only ever sees the generated polynomials, matrices and
files.

Every fourth op draws its input from the default seed's stream, whatever
the run's seed, so each run checks a quarter of its ops against the
committed reference hashes in ``reference.json``.

The ``cak`` modules are imported inside the functions, not at module level:
the benchmark re-imports ``cak`` while it measures set-up time, and the
traced run swaps functions in the modules that are current at that moment.
"""

from __future__ import annotations

import itertools
import json
import os
import random

P = 32003
DEFAULT_SEED = 0
ANCHOR_EVERY = 4


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    stream = DEFAULT_SEED if i % ANCHOR_EVERY == 0 else seed
    return random.Random(f"{stream}:{workload}:{i}")


def monomials(n: int, degree: int):
    for combo in itertools.combinations_with_replacement(range(n), degree):
        expo = [0] * n
        for v in combo:
            expo[v] += 1
        yield tuple(expo)


def random_form(n, degree, rng, zero_chance=0.0, coeff=lambda rng: rng.randrange(1, P)):
    """Homogeneous form as a list of [exponents, coefficient] pairs."""
    return [[list(e), coeff(rng)] for e in monomials(n, degree) if rng.random() >= zero_chance]


def build_poly(ring, terms):
    return ring.from_terms([(tuple(e), c) for e, c in terms])


# -- gb-dense --------------------------------------------------------------------


class GbDense:
    name = "gb-dense"
    why = "reduced Groebner bases of dense random quadric systems: kernel normal forms and Buchberger pairs only"
    modules = ("cak",)
    # (variables, quadrics) per op, cycled.  The 7-variable ops are 4 of 20, so
    # p90 falls inside that group rather than on a boundary between sizes.
    SIZES = (
        (6, 5), (5, 5), (7, 5), (6, 5), (5, 5), (6, 6), (6, 5), (5, 5), (7, 5), (6, 4),
        (6, 5), (5, 5), (6, 6), (7, 5), (6, 5), (5, 5), (6, 6), (6, 5), (5, 5), (7, 5),
    )
    certify_ops = 4
    reference_cycles = 30

    def cycle(self, state):
        return len(self.SIZES)

    def setup(self, seed, workdir):
        return None

    def make_input(self, state, seed, i):
        n, m = self.SIZES[i % len(self.SIZES)]
        rng = op_rng(self.name, seed, i)
        return {"n": n, "quadrics": [random_form(n, 2, rng) for _ in range(m)]}

    def run(self, state, inp, budget):
        from cak.groebner import IdealHandle
        from cak.polyring import RingPresentation

        n = inp["n"]
        ring = RingPresentation([f"x{v}" for v in range(n)], [1] * n)
        gens = [build_poly(ring, t) for t in inp["quadrics"]]
        basis = IdealHandle(ring, gens).groebner_basis(budget)
        return "\n".join(str(g) for g in basis), (ring, gens, basis)

    def check(self, inp, output):
        return []

    def certify(self, inp, kept):
        """The returned basis is reduced, and every generator reduces to zero
        against it, by a division written here on exponent tuples (no ``cak``
        kernel)."""
        ring, gens, basis = kept
        p = ring.field.p

        def as_tuples(poly):
            return {ring.decode(k): c for k, c in poly.terms.items()}

        def order(e):  # degree reverse lexicographic, x0 > x1 > ...
            return (sum(e),) + tuple(-x for x in reversed(e))

        def divides(a, b):
            return all(x <= y for x, y in zip(a, b))

        divisors = []
        for g in basis:
            terms = as_tuples(g)
            lead = max(terms, key=order)
            divisors.append((lead, pow(terms[lead], -1, p), terms))
        problems = []
        # reduced: monic, and no term divisible by another element's lead
        for idx, (lead, _, terms) in enumerate(divisors):
            others = [d[0] for j, d in enumerate(divisors) if j != idx]
            if terms[lead] != 1 or any(divides(o, e) for e in terms for o in others):
                problems.append(f"basis element {idx} is not reduced")
        for idx, f in enumerate(gens):
            work = as_tuples(f)
            while work:
                lead = max(work, key=order)
                hit = next((d for d in divisors if divides(d[0], lead)), None)
                if hit is None:
                    problems.append(f"generator {idx} does not reduce to zero")
                    break
                dlead, dinv, dterms = hit
                factor = work[lead] * dinv % p
                shift = tuple(b - a for a, b in zip(dlead, lead))
                for e, c in dterms.items():
                    key = tuple(x + y for x, y in zip(e, shift))
                    v = (work.get(key, 0) - factor * c) % p
                    if v:
                        work[key] = v
                    else:
                        work.pop(key, None)
        return problems


# -- resolve-poly ------------------------------------------------------------------


class ResolvePoly:
    name = "resolve-poly"
    why = "one minimal free resolution per op over a polynomial ring: syzygy steps and minimal-subset passes"
    modules = ("cak",)
    # (variables, quadrics) per op, cycled; the 6-variable ops (3 of 20) hold p90
    SIZES = (
        (4, 4), (3, 4), (5, 4), (6, 4), (3, 4), (4, 6), (4, 4), (3, 4), (6, 4), (4, 5),
        (3, 4), (4, 4), (5, 4), (3, 4), (4, 6), (6, 4), (4, 4), (3, 4), (4, 4), (3, 4),
    )
    certify_ops = 3
    reference_cycles = 40

    def cycle(self, state):
        return len(self.SIZES)

    def setup(self, seed, workdir):
        return None

    def make_input(self, state, seed, i):
        n, m = self.SIZES[i % len(self.SIZES)]
        rng = op_rng(self.name, seed, i)
        return {"n": n, "quadrics": [random_form(n, 2, rng) for _ in range(m)]}

    def run(self, state, inp, budget):
        from cak.polyring import RingPresentation
        from cak.resolve import PresentedModule, minimal_free_resolution

        n = inp["n"]
        ring = RingPresentation([f"x{v}" for v in range(n)], [1] * n)
        module = PresentedModule.cyclic(ring, [build_poly(ring, t) for t in inp["quadrics"]])
        res = minimal_free_resolution(module, budget=budget)
        out = json.dumps({"betti": res.betti.as_rows(), "complete": res.complete})
        return out, (module, res)

    def check(self, inp, output):
        return [] if json.loads(output)["complete"] else ["resolution not complete"]

    def certify(self, inp, kept):
        """``complexes.verify_resolution``: d*d = 0, H_0, exactness and the
        Euler identity against the Hilbert numerator."""
        from cak.complexes import verify_resolution

        module, res = kept
        report = verify_resolution(res.complex, module)
        return [] if report.ok else [f"verify_resolution failed: {report.as_dict()}"]


# -- ext-tor-artinian --------------------------------------------------------------

# Non-Gorenstein Artinian rings k[X,Y]/J, each with an ideal I such that R/I
# is Gorenstein (the duality-transfer setting of verify-paper case c08).
ARTINIAN_RINGS = {
    "m_cubed": (["X^3", "X^2*Y", "X*Y^2", "Y^3"], ["X", "Y^2"]),
    "x2_xy_y3": (["X^2", "X*Y", "Y^3"], ["X", "Y^2"]),
    "x3_x2y_y2": (["X^3", "X^2*Y", "Y^2"], ["Y", "X^2"]),
}


class ExtTorArtinian:
    name = "ext-tor-artinian"
    why = "Ext and Tor to bound 6 over non-Gorenstein Artinian rings, re-resolving the same module as verify-paper c08 does"
    modules = ("cak",)
    BOUND = 6
    # (ring, module rank, column degrees, also run ar_instance_check, share of
    # monomials dropped from each entry), cycled.  The slowest slots have dense
    # entries, so their cost does not hinge on a zero pattern: one m_cubed
    # module with two columns is the slowest op, and p90 falls inside the
    # group of the other four.
    SLOTS = (
        ("x2_xy_y3", 1, (1,), True, 0.4),
        ("x3_x2y_y2", 1, (1,), False, 0.4),
        ("m_cubed", 1, (2,), True, 0.0),
        ("x2_xy_y3", 2, (1,), False, 0.4),
        ("x3_x2y_y2", 2, (1,), False, 0.4),
        ("x2_xy_y3", 1, (2,), False, 0.4),
        ("x3_x2y_y2", 1, (2,), True, 0.4),
        ("x3_x2y_y2", 1, (2, 2), False, 0.0),
        ("x2_xy_y3", 2, (1,), True, 0.4),
        ("x3_x2y_y2", 1, (1,), False, 0.4),
        ("m_cubed", 1, (1, 2), False, 0.0),
        ("x2_xy_y3", 1, (1,), False, 0.4),
        ("x3_x2y_y2", 2, (1,), False, 0.4),
        ("m_cubed", 1, (2,), True, 0.0),
        ("x2_xy_y3", 2, (1,), False, 0.4),
        ("x3_x2y_y2", 1, (2,), True, 0.4),
        ("x2_xy_y3", 1, (1,), False, 0.4),
        ("m_cubed", 1, (2,), False, 0.0),
        ("x2_xy_y3", 1, (2,), True, 0.4),
        ("x3_x2y_y2", 1, (1,), False, 0.4),
    )
    certify_ops = 2
    reference_cycles = 25

    def cycle(self, state):
        return len(self.SLOTS)

    def setup(self, seed, workdir):
        return None

    def make_input(self, state, seed, i):
        ring, rank, degrees, ar, zero_chance = self.SLOTS[i % len(self.SLOTS)]
        rng = op_rng(self.name, seed, i)
        cols = [[random_form(2, d, rng, zero_chance) for _ in range(rank)] for d in degrees]
        return {"ring": ring, "rank": rank, "columns": cols, "ar": ar}

    def run(self, state, inp, budget):
        from cak.quotient import (
            QuotientRing,
            cyclic_presentation,
            ext_dims,
            free_module_presentation,
            quotient_of,
            tor_dims,
        )
        from cak.polyring import RingPresentation
        from cak.resolve import GradedFreeModule, PolyMatrix, PresentedModule
        import cak.ulrich

        relations, ideal = ARTINIAN_RINGS[inp["ring"]]
        ring = RingPresentation(["X", "Y"], [1, 1], relations=relations)
        R = QuotientRing(ring)
        rank = inp["rank"]
        cols = [[build_poly(ring, t) for t in col] for col in inp["columns"]]
        M = PresentedModule(
            ring, GradedFreeModule(ring, (0,) * rank), PolyMatrix.from_columns(ring, rank, cols)
        )
        N = cyclic_presentation(ring, ideal)
        bound = self.BOUND
        # the loop body of verify-paper c08, repeated Ext call included
        out = {"ext": ext_dims(R, M, N, bound, budget), "tor": tor_dims(R, M, N, bound, budget)}
        if not any(out["tor"]):
            RI = quotient_of(ring, ideal)
            rp = RI.presentation
            m_bar = PresentedModule(
                rp,
                GradedFreeModule(rp, M.ambient.twists),
                PolyMatrix(
                    rp,
                    [[p.transfer(rp) for p in row] for row in M.relations.entries],
                    ncols=M.relations.ncols,
                ),
            )
            out["ext_low"] = ext_dims(RI, m_bar, free_module_presentation(rp), bound, budget)
            out["ext_high"] = ext_dims(R, M, N, bound, budget)
        if inp["ar"]:
            out["ar"] = cak.ulrich.ar_instance_check(R, M, bound, budget).as_dict()
        return json.dumps(out, sort_keys=True), None

    def check(self, inp, output):
        """Ext vanishing forces Tor vanishing; the repeated Ext call agrees
        with the first; when Tor vanishes, Ext over R and over R/I agree."""
        out = json.loads(output)
        problems = []
        if not any(out["ext"]) and any(out["tor"]):
            problems.append(f"Ext vanished but Tor = {out['tor']}")
        if "ext_high" in out:
            if out["ext_high"] != out["ext"]:
                problems.append("repeated Ext call disagrees")
            if out["ext_low"] != out["ext_high"]:
                problems.append("Ext over R and over R/I disagree although Tor vanishes")
        return problems

    def certify(self, inp, kept):
        return []


# -- cli-small -----------------------------------------------------------------------

R1_RING = {
    "field": {"kind": "fp", "p": P},
    "vars": ["X", "Y", "Z", "W"],
    "weights": [6, 11, 16, 26],
    "relations": ["X^7 - Z*W", "Y^2 - X*Z", "Z^2 - X*W", "W^2 - X^6*Z"],
}
FIXED_FILES = {
    "r1.json": R1_RING,
    "plain.json": {**R1_RING, "relations": []},
    "two.json": {"field": {"kind": "fp", "p": P}, "vars": ["x1", "x2"], "weights": [1, 1], "relations": []},
    "art.json": {
        "field": {"kind": "fp", "p": P},
        "vars": ["X", "Y"],
        "weights": [1, 1],
        "relations": ["X^3", "X^2*Y", "X*Y^2", "Y^3"],
    },
    "fp.json": {"field": {"kind": "fp", "p": P}, "vars": ["x", "y", "z", "w"], "weights": [1, 1, 1, 1], "relations": []},
    "q.json": {"field": {"kind": "q"}, "vars": ["a", "b", "c", "d"], "weights": [1, 1, 1, 1], "relations": []},
}
# (argv, expected exit code); "{dir}/" prefixes a file written at set-up.  The
# colon op appears three times: two heavier commands sit above it, so p90
# falls inside its group rather than on a boundary between commands.
FIXED_COMMANDS = (
    (["gb", "--ring", "{dir}/r1.json", "--gens", "X; Z; W"], 0),
    (["nf", "--ring", "{dir}/r1.json", "--gens", "X", "--poly", "Z^2"], 0),
    *[(["ideal-op", "--ring", "{dir}/r1.json", "--op", "colon", "--gens", "X", "--other", "X; Z; W"], 0)] * 3,
    (["kernel", "--ring", "{dir}/plain.json", "--images", "t^6; t^11; t^16; t^26"], 0),
    (["betti", "--ring", "{dir}/plain.json", "--gens", "X^7 - Z*W; Y^2 - X*Z; Z^2 - X*W; W^2 - X^6*Z"], 0),
    (["koszul", "--ring", "{dir}/plain.json", "--elems", "X; Y"], 0),
    (["en", "--ring", "{dir}/two.json", "--matrix", "x1,x2,0; 0,x1,x2"], 0),
    (["socle", "--ring", "{dir}/art.json"], 0),
    (["ulrich", "--ring", "{dir}/r1.json", "--ideal", "X; Z; W", "--reduction", "X", "--dim", "1"], 0),
    (["semigroup", "6", "11", "16", "26"], 0),
    (["det-reduce", "--s", "2", "--t", "3"], 0),
    (["ideal-op", "--ring", "{dir}/two.json", "--op", "equal", "--gens", "x1^2", "--other", "x1*x2"], 1),
    (["verify-paper", "--filter", "c02*", "--json"], 0),
    (["verify-paper", "--filter", "c09*", "--json"], 0),
    (["verify-paper", "--filter", "c10*", "--json"], 0),
)


def poly_text(terms, names):
    """Render [exponents, coefficient] pairs in the CLI's polynomial grammar."""
    parts = []
    for expo, c in terms:
        factors = [str(c)] + [n if e == 1 else f"{n}^{e}" for n, e in zip(names, expo) if e]
        parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"


def rational(rng):
    return f"{rng.randrange(1, 20)}/{rng.randrange(1, 8)}"


class CliSmall:
    name = "cli-small"
    why = "in-process cak.cli.main over the README command set on files written at set-up: per-call overhead, parser and file I/O"
    modules = ("cak", "cak.cli")
    certify_ops = 0
    reference_cycles = 1

    def cycle(self, state):
        return len(state["commands"])

    def setup(self, seed, workdir):
        rng = random.Random(f"{seed}:{self.name}")
        files = dict(FIXED_FILES)
        fp, q = ["x", "y", "z", "w"], ["a", "b", "c", "d"]
        files["module.json"] = {
            "ambient_twists": [0, 0],
            "relations": [
                [poly_text(random_form(4, d, rng, zero_chance=0.5), fp) for d in (1, 1, 2)]
                for _ in range(2)
            ],
        }
        os.makedirs(workdir, exist_ok=True)
        for fname, data in files.items():
            with open(os.path.join(workdir, fname), "w") as fh:
                json.dump(data, fh)

        def forms(names, degree, count, coeff=lambda rng: rng.randrange(1, P), zc=0.3):
            # a form whose terms were all dropped is redrawn dense: koszul and
            # ideal generators must be nonzero
            return "; ".join(
                poly_text(
                    random_form(len(names), degree, rng, zc, coeff)
                    or random_form(len(names), degree, rng, 0.0, coeff),
                    names,
                )
                for _ in range(count)
            )

        fp_gens = forms(fp, 2, 3)
        q_gens = forms(q, 2, 3, rational, 0.6)
        seeded = (
            (["gb", "--ring", "{dir}/fp.json", "--gens", fp_gens], 0),
            (["nf", "--ring", "{dir}/fp.json", "--gens", fp_gens, "--poly", forms(fp, 3, 1)], 0),
            (["gb", "--ring", "{dir}/q.json", "--gens", q_gens], 0),
            (["nf", "--ring", "{dir}/q.json", "--gens", q_gens, "--poly", forms(q, 3, 1, rational, 0.6)], 0),
            (["betti", "--ring", "{dir}/fp.json", "--module", "{dir}/module.json"], 0),
            (["ideal-op", "--ring", "{dir}/fp.json", "--op", "intersection",
              "--gens", forms(fp, 1, 2), "--other", forms(fp, 2, 2)], 0),
            (["koszul", "--ring", "{dir}/fp.json", "--elems", forms(fp, 1, 3)], 0),
        )
        commands = list(FIXED_COMMANDS) + list(seeded)
        # interleave so a run cut at any point has a representative mix
        order = sorted(range(len(commands)), key=lambda k: (k * 7) % len(commands))
        commands = [commands[k] for k in order]
        return {"dir": workdir, "files": files, "commands": commands}

    def make_input(self, state, seed, i):
        argv, rc = state["commands"][i % len(state["commands"])]
        used = sorted({a[len("{dir}/"):] for a in argv if a.startswith("{dir}/")})
        return {"argv": argv, "rc": rc, "files": {f: state["files"][f] for f in used}}

    def run(self, state, inp, budget):
        import contextlib
        import io

        import cak.cli

        argv = [a.replace("{dir}", state["dir"]) for a in inp["argv"]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cak.cli.main(argv)
        text = out.getvalue()
        if argv[0] == "verify-paper":
            text = json.dumps(_drop_timing(json.loads(text)), sort_keys=True)
        return json.dumps({"rc": rc, "stdout": text, "stderr": err.getvalue()}), None

    def check(self, inp, output):
        rc = json.loads(output)["rc"]
        return [] if rc == inp["rc"] else [f"exit code {rc}, expected {inp['rc']}"]

    def certify(self, inp, kept):
        return []


def _drop_timing(value):
    if isinstance(value, dict):
        return {k: _drop_timing(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [_drop_timing(v) for v in value]
    return value


WORKLOADS = {w.name: w for w in (GbDense(), ResolvePoly(), ExtTorArtinian(), CliSmall())}
