import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import cak
from cak.cli import main
from cak.fileio import (
    SchemaError,
    load_module,
    load_ring,
    ring_from_dict,
    ring_to_dict,
    save_ring,
)
from conftest import R1_RELATIONS, deadline

R1_DICT = {
    "field": {"kind": "fp", "p": 32003},
    "vars": ["X", "Y", "Z", "W"],
    "weights": [6, 11, 16, 26],
    "relations": [s.strip() for s in R1_RELATIONS.split(";")],
}


@pytest.fixture
def r1_file(tmp_path):
    path = tmp_path / "r1.json"
    path.write_text(json.dumps(R1_DICT))
    return str(path)


@pytest.fixture
def plain_file(tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": ["x1", "x2"],
        "weights": [1, 1],
    }))
    return str(path)


def test_load_ring_valid(r1_file):
    ring = load_ring(r1_file)
    assert len(ring.vars) == 4
    assert len(ring.relations) == 4


def test_load_ring_weight_error():
    bad = dict(R1_DICT, weights=[6, 0, 16, 26])
    with pytest.raises(SchemaError, match="/weights/1"):
        ring_from_dict(bad)


def test_load_ring_inhomogeneous_relation_named():
    bad = dict(R1_DICT, relations=["X^7 - Z*W", "X + Y"])
    with pytest.raises(SchemaError, match="X \\+ Y"):
        ring_from_dict(bad)


def test_ring_round_trip(tmp_path, r1_file):
    ring = load_ring(r1_file)
    out = tmp_path / "out.json"
    save_ring(ring, str(out))
    again = load_ring(str(out))
    assert ring_to_dict(again) == ring_to_dict(ring)


def test_load_module_schema_errors(tmp_path, r1_file):
    ring = load_ring(r1_file)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"ambient_twists": [0], "relations": [["X"], ["Y"]]}))
    with pytest.raises(SchemaError, match="/relations"):
        load_module(str(path), ring)
    path.write_text(json.dumps({"relations": [["X"]]}))
    with pytest.raises(SchemaError, match="ambient_twists"):
        load_module(str(path), ring)


@pytest.mark.parametrize(
    "twists, rows, message",
    [
        ([0, 0], [["x1", "x2^2"], ["0", "x1 + x2^2"]], "matrix column is not homogeneous"),
        ([0, 0], [["x1", "x2"], ["x2", "x1*x2"]], "matrix column has inconsistent degrees"),
        # rows are checked in order, each for homogeneity, then against the rows above
        ([0, 0, 0], [["x1"], ["x2^2"], ["x1 + x2^2"]], "matrix column has inconsistent degrees"),
        ([0, 1, 0], [["x1 + x2^2"], ["x2"], ["x1*x2"]], "matrix column is not homogeneous"),
    ],
)
@pytest.mark.parametrize("relations", [[], ["x1^3", "x2^3"]])
def test_cli_resolve_module_column_degree_errors(
    tmp_path, capsys, twists, rows, message, relations
):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": ["x1", "x2"],
        "weights": [1, 1],
        "relations": relations,
    }))
    module = tmp_path / "m.json"
    module.write_text(json.dumps({"ambient_twists": twists, "relations": rows}))
    assert main(["resolve", "--ring", str(ring), "--module", str(module)]) == 2
    assert capsys.readouterr() == ("", f"error: /relations: {message}\n")


def test_cli_gb_matches_library(plain_file, capsys):
    code = main(["gb", "--ring", plain_file, "--gens", "x1^2 - x2; x2^2"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["x2^2", "x1^2 - x2"]


def test_cli_resolve_spec_payload(tmp_path, capsys):
    amb = tmp_path / "amb.json"
    amb.write_text(json.dumps(dict(R1_DICT, relations=[])))
    code = main(["resolve", "--ring", str(amb), "--gens", R1_RELATIONS])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"betti", "complete"}
    assert payload["complete"] is True
    totals = {}
    for i, _j, rank in payload["betti"]:
        totals[i] = totals.get(i, 0) + rank
    assert [totals[i] for i in sorted(totals)] == [1, 4, 5, 2]


def test_cli_betti_formula(capsys):
    assert main(["betti-formula", "4", "2", "1"]) == 0
    assert json.loads(capsys.readouterr().out) == [1, 4, 5, 2]


def test_cli_betti_formula_takes_the_global_budget(capsys):
    # a closed formula spends no work, so even a zero budget suffices
    assert main(["betti-formula", "4", "2", "1", "--budget", "0"]) == 0
    assert capsys.readouterr() == ("[1, 4, 5, 2]\n", "")


def test_cli_ulrich_exit_codes(r1_file, capsys):
    assert main([
        "ulrich", "--ring", r1_file, "--ideal", "X; Z; W",
        "--reduction", "X", "--dim", "1",
    ]) == 0
    assert main([
        "ulrich", "--ring", r1_file, "--ideal", "X",
        "--reduction", "X", "--dim", "1",
    ]) == 1  # I = q is not an Ulrich ideal
    capsys.readouterr()


def test_cli_ulrich_reduction_at_the_wrong_dimension_exits_2(tmp_path, capsys):
    # k[X,Y]/(X^2, Y^2) has dimension 0, so no one-generator q is a parameter ideal
    ring = _ring_file(tmp_path, ["X", "Y"], ["X^2", "Y^2"])
    argv = ["ulrich", "--ring", ring, "--ideal", "X;Y", "--reduction", "X", "--dim", "1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: q is not a parameter ideal of the stated dimension\n"
    )


def test_cli_usage_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["gb", "--ring", missing, "--gens", "x"]) == 2
    capsys.readouterr()


def test_cli_resource_limit_exit_code(tmp_path, capsys):
    amb = tmp_path / "amb6.json"
    amb.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": [f"x{i}" for i in range(1, 7)],
        "weights": [1] * 6,
    }))
    gens = "; ".join(
        f"x{i}*x{j} - x{(i + j) % 6 + 1}" for i in range(1, 6) for j in range(i, 6)
    )
    assert main(["gb", "--ring", str(amb), "--gens", gens, "--budget", "2"]) == 3
    capsys.readouterr()


def test_cli_family_and_det_reduce(capsys):
    assert main(["family-2x3", "--n", "8"]) == 0
    assert main(["det-reduce", "--s", "2", "--t", "3"]) == 0
    capsys.readouterr()


def test_cli_semigroup_emit_ring(tmp_path, capsys):
    out = tmp_path / "sg.json"
    assert main(["semigroup", "6", "11", "16", "26", "--emit-ring", str(out)]) == 0
    capsys.readouterr()
    ring = load_ring(str(out))
    assert ring.weights == (6, 11, 16, 26)
    assert len(ring.relations) == 4


def test_cli_ext_and_ar(tmp_path, capsys):
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": ["X"],
        "weights": [1],
        "relations": ["X^2"],
    }))
    kmod = tmp_path / "k.json"
    kmod.write_text(json.dumps({"ambient_twists": [0], "relations": [["X"]]}))
    assert main(["ext", "--ring", str(dual), "--module", str(kmod),
                 "--against", "self", "--bound", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == [1, 1, 1]
    assert main(["ar-check", "--ring", str(dual), "--module", str(kmod),
                 "--bound", "4", "--json"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["classification"] == "hypothesis_fails"
    assert verdict["first_nonvanishing"] == [1, "Ext(M,M)"]


def test_cli_verify_paper_filter(capsys):
    assert main(["verify-paper", "--filter", "c03*", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["id"] for c in payload["cases"]] == ["c03_toric_kernel"]
    assert payload["passed"] is True


def test_cli_verify_paper_empty_filter(capsys):
    assert main(["verify-paper", "--filter", "zzz*"]) == 0
    err = capsys.readouterr().err
    assert "matched no cases" in err


def test_cli_json_report_round_trips(capsys):
    assert main(["verify-paper", "--filter", "c01*", "--json"]) == 0
    text = capsys.readouterr().out
    payload = json.loads(text)
    assert json.loads(json.dumps(payload)) == payload


def test_load_rational_ring(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({
        "field": {"kind": "q"},
        "vars": ["x"],
        "weights": [1],
        "relations": ["x^2"],
    }))
    ring = load_ring(str(path))
    assert ring.field.kind == "q"
    assert [str(r) for r in ring.relations] == ["x^2"]


def test_cli_golden_against_library(tmp_path, capsys):
    """Every subcommand is a thin wrapper: identical output to library calls."""
    from cak import RingPresentation, parse_poly, parse_poly_list
    from cak.groebner import IdealHandle
    from cak.quotient import QuotientRing, socle_dim, embedding_dim, cm_type

    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": ["x1", "x2"], "weights": [1, 1],
    }))
    artin = tmp_path / "artin.json"
    artin.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": ["x1", "x2"], "weights": [1, 1],
        "relations": ["x1^2", "x1*x2", "x2^2"],
    }))
    ring = RingPresentation(["x1", "x2"], [1, 1])

    def run(args):
        assert main(args) == 0
        return capsys.readouterr().out.strip()

    # nf
    out = run(["nf", "--ring", str(plain), "--gens", "x1^2 - x2", "--poly", "x1^4"])
    lib = IdealHandle(ring, parse_poly_list("x1^2 - x2", ring)).normal_form(
        parse_poly("x1^4", ring)
    )
    assert out == str(lib)
    # ideal-op power
    out = run(["ideal-op", "--ring", str(plain), "--op", "power",
               "--gens", "x1; x2", "--exponent", "2", "--json"])
    lib_gb = IdealHandle(ring, parse_poly_list("x1; x2", ring)).power(2).groebner_basis()
    assert json.loads(out) == [str(g) for g in lib_gb]
    # kernel (default target k[t])
    w = tmp_path / "w.json"
    w.write_text(json.dumps({"field": {"kind": "fp", "p": 32003},
                             "vars": ["X", "Y"], "weights": [2, 3]}))
    out = run(["kernel", "--ring", str(w), "--images", "t^2; t^3"])
    assert out.splitlines() == ["X^3 - Y^2"]
    # koszul / en / minors
    assert json.loads(run(["koszul", "--ring", str(plain), "--elems", "x1; x2", "--json"])) == [1, 2, 1]
    assert json.loads(run(["en", "--ring", str(plain),
                           "--matrix", "x1,x2,0; 0,x1,x2", "--json"])) == [1, 3, 2]
    out = run(["minors", "--ring", str(plain), "--matrix", "x1,x2,0; 0,x1,x2",
               "--size", "2", "--json"])
    assert json.loads(out) == ["x1^2", "x1*x2", "x2^2"]
    # socle / embdim / type on the Artinian ring
    art_ring = QuotientRing(
        RingPresentation(["x1", "x2"], [1, 1], relations=["x1^2", "x1*x2", "x2^2"])
    )
    assert run(["socle", "--ring", str(artin)]) == str(socle_dim(art_ring))
    assert run(["embdim", "--ring", str(artin)]) == str(embedding_dim(art_ring.presentation))
    assert run(["type", "--ring", str(artin), "--params", ""]) == str(socle_dim(art_ring))
    # tor over the dual numbers
    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"field": {"kind": "fp", "p": 32003},
                                "vars": ["X"], "weights": [1], "relations": ["X^2"]}))
    kmod = tmp_path / "kmod.json"
    kmod.write_text(json.dumps({"ambient_twists": [0], "relations": [["X"]]}))
    assert json.loads(run(["tor", "--ring", str(dual), "--module", str(kmod),
                           "--against", "self", "--bound", "3"])) == [1, 1, 1]
    # betti table on a module file
    mmod = tmp_path / "mmod.json"
    mmod.write_text(json.dumps({"ambient_twists": [0, 0],
                                "relations": [["x1"], ["x2"]]}))
    out = run(["betti", "--ring", str(plain), "--module", str(mmod)])
    assert "total:" in out


def _ring_file(tmp_path, names, relations):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": names,
        "weights": [1] * len(names),
        "relations": relations,
    }))
    return str(path)


def test_cli_socle_budget_exits_3(tmp_path, capsys):
    ring = _ring_file(tmp_path, ["x", "y", "z"], ["x^400", "y^400", "z^400", "x*y*z"])
    with deadline(5):
        assert main(["socle", "--ring", ring, "--budget", "50"]) == 3
    assert "budget" in capsys.readouterr().err


def test_cli_gb_budget_exits_3(tmp_path, capsys):
    # eight dense quadrics in eight variables: a complete intersection of
    # degree 256, whose basis takes about a thousand pairs
    rng = random.Random("gb budget")
    names = [f"x{i}" for i in range(8)]
    ring = _ring_file(tmp_path, names, [])
    monomials = list(itertools.combinations_with_replacement(names, 2))
    gens = "; ".join(
        " + ".join(f"{rng.randrange(1, 32003)}*{a}*{b}" for a, b in monomials)
        for _ in range(8)
    )
    with deadline(5):
        assert main(["gb", "--ring", ring, "--gens", gens, "--budget", "30"]) == 3
    assert "budget" in capsys.readouterr().err


def test_cli_budget_is_one_total_for_the_whole_command(r1_file, capsys):
    # the colon spends 171 units over its syzygy steps and the basis of the
    # result together; no single engine needs more than 120
    argv = ["ideal-op", "--ring", r1_file, "--op", "colon", "--gens", "X; Y", "--other", "Z; W"]
    assert main(argv) == 0
    basis = capsys.readouterr().out
    assert main(argv + ["--budget", "170"]) == 3
    assert capsys.readouterr().err == "error: work budget of 170 exceeded\n"
    assert main(argv + ["--budget", "171"]) == 0
    assert capsys.readouterr().out == basis


def test_cli_verify_paper_budget_zero_is_a_zero_budget(capsys):
    assert main(["verify-paper", "--filter", "c01*", "--budget", "0"]) == 1
    assert "resource limit" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["koszul", "--elems", "x1; x2"],
    ["en", "--matrix", "x1,x2,0; 0,x1,x2"],
    ["minors", "--matrix", "x1,x2,0; 0,x1,x2", "--size", "2"],
])
def test_cli_complex_and_minors_commands_charge_the_budget(plain_file, capsys, argv):
    argv = [argv[0], "--ring", plain_file, *argv[1:]]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + ["--budget", "0"]) == 3
    assert capsys.readouterr() == ("", "error: work budget of 0 exceeded\n")


def test_cli_embdim_charges_the_budget(tmp_path, capsys):
    # X - Y^2 has the linear part X: one row of the rank, one unit
    path = tmp_path / "xy.json"
    path.write_text(json.dumps({
        "field": {"kind": "fp", "p": 32003},
        "vars": ["X", "Y"],
        "weights": [2, 1],
        "relations": ["X - Y^2"],
    }))
    argv = ["embdim", "--ring", str(path)]
    assert main(argv) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(argv + ["--budget", "0"]) == 3
    assert capsys.readouterr() == ("", "error: work budget of 0 exceeded\n")


def test_cli_minors_of_a_large_matrix_stop_at_the_budget(plain_file, capsys):
    # one 14 x 14 minor: the Laplace memo holds 2^14 - 1 column subsets
    rng = random.Random(14)
    matrix = "; ".join(",".join(rng.choice(("x1", "x2")) for _ in range(14)) for _ in range(14))
    argv = ["minors", "--ring", plain_file, "--matrix", matrix, "--size", "14", "--budget", "1000"]
    with deadline(20):
        assert main(argv) == 3
    assert capsys.readouterr().err == "error: work budget of 1000 exceeded\n"


def test_cli_main_builds_its_parser_once(tmp_path, capsys):
    """Calls in one process, with a usage error between them, print what
    separate processes print."""
    from cak.cli import build_parser

    dual = tmp_path / "dual.json"
    dual.write_text(json.dumps({"field": {"kind": "fp", "p": 32003},
                                "vars": ["X"], "weights": [1], "relations": ["X^2"]}))
    kmod = tmp_path / "k.json"
    kmod.write_text(json.dumps({"ambient_twists": [0], "relations": [["X"]]}))
    ext = ["ext", "--ring", str(dual), "--module", str(kmod), "--bound", "2"]
    tor = ["tor", "--ring", str(dual), "--module", str(kmod), "--json"]
    build_parser.cache_clear()
    in_process = []
    for argv in (ext, ["verify-paper", "--workers", "4"], tor, ext):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
        in_process.append((rc, capsys.readouterr().out))
    assert build_parser.cache_info().misses == 1
    assert in_process[1] == (2, "")
    assert in_process[3] == in_process[0]
    src = os.path.dirname(os.path.dirname(cak.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, (rc, out) in zip((ext, tor), (in_process[0], in_process[2])):
        proc = subprocess.run([sys.executable, "-m", "cak", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (rc, out)


@pytest.mark.parametrize("command, matrix, message", [
    ("en", "x1,x2^2; x2,x1", "inconsistent row/column degrees"),
    ("minors", "x1,x2 + x1^2; x2,x1", "entry (0, 1) is not homogeneous"),
])
def test_cli_matrix_degree_errors_exit_2(plain_file, capsys, command, matrix, message):
    argv = [command, "--ring", plain_file, "--matrix", matrix]
    if command == "minors":
        argv += ["--size", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_socle_not_artinian_names_the_variable(tmp_path, capsys):
    ring = _ring_file(tmp_path, ["x", "y"], ["x^2"])
    assert main(["socle", "--ring", ring]) == 2
    assert capsys.readouterr().err == (
        "error: quotient is not finite-dimensional: no pure power of y in the lead-term ideal\n"
    )


@pytest.mark.parametrize("command", ["ext", "tor"])
def test_cli_ring_target_not_artinian_names_the_variable(tmp_path, capsys, command):
    # R as a target reads the standard monomials of J, so it fails as the socle does
    ring = _ring_file(tmp_path, ["x", "y"], ["x^2"])
    module = tmp_path / "k.json"
    module.write_text(json.dumps({"ambient_twists": [0], "relations": [["x", "y"]]}))
    argv = [command, "--ring", ring, "--module", str(module), "--against", "ring", "--bound", "2"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: quotient is not finite-dimensional: no pure power of y in the lead-term ideal\n"
    )


@pytest.mark.parametrize("where, position", [("ring", 0), ("module", 0), ("gens", 4)])
def test_cli_denominator_divisible_by_the_modulus_exits_2(tmp_path, capsys, where, position):
    ring = _ring_file(tmp_path, ["x", "y"], ["1/32003*x^2"] if where == "ring" else [])
    module = tmp_path / "module.json"
    entry = "1/32003*x" if where == "module" else "x"
    module.write_text(json.dumps({"ambient_twists": [0], "relations": [[entry]]}))
    argv = {
        "ring": ["gb", "--ring", ring, "--gens", "x"],
        "module": ["resolve", "--ring", ring, "--module", str(module)],
        "gens": ["gb", "--ring", ring, "--gens", "x + 1/32003"],
    }[where]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: denominator divisible by the modulus 32003 (at position {position})\n"
    )


@pytest.mark.parametrize("flag", ["--ring", "--module"])
def test_cli_directory_as_input_file_exits_2(tmp_path, capsys, flag):
    ring = _ring_file(tmp_path, ["x", "y"], [])
    argv = ["resolve", "--ring", ring, "--module", ring]
    argv[argv.index(flag) + 1] = str(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_ring_file_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"vars": ["x", "ÿ"]}'.encode("latin-1"))
    assert main(["gb", "--ring", str(path), "--gens", "x"]) == 2
    assert "codec can't decode" in capsys.readouterr().err


def test_cli_negative_max_length_exits_2(plain_file, capsys):
    argv = ["resolve", "--ring", plain_file, "--gens", "x1; x2", "--max-length", "-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: max_length must be >= 0\n"


def test_python_m_cak_prints_the_text_report():
    """The console entry point and the default text report of verify-paper."""
    src = os.path.dirname(os.path.dirname(cak.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "cak", "verify-paper", "--filter", "c10*"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("PASS  c10_det_reduction") for line in lines)
    assert lines[-1] == "1/1 cases passed (all passed)"
