import json
import os
import subprocess
import sys
import time

import pytest

from gcgeo.cli import main, COMMANDS, DECIDED, USAGE, decided_failure
from gcgeo.jobio import (
    JobError,
    Report,
    emit,
    form_json,
    matrix_json,
    parse_form,
    parse_scalar,
    scalar_str,
)
from gcgeo.scalars import GaussRat, Poly, IUNIT
from gcgeo.forms import MixedForm
from gcgeo.gcs import j_complex, j_symplectic, standard_complex_endo
from gcgeo.randgen import Rng


CASES = os.path.join(os.path.dirname(__file__), "..", "cases")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestScalarGrammar:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("3/2", GaussRat("3/2")),
            ("1/2+1/3i", GaussRat("1/2", "1/3")),
            ("-i", GaussRat(0, -1)),
            ("2-i", GaussRat(2, -1)),
            ("0", GaussRat(0)),
        ],
    )
    def test_gauss_values(self, text, expect):
        assert parse_scalar(text) == expect

    def test_polynomials(self):
        names = ("x1", "z")
        p = parse_scalar("x1^2*z - 2/5", names)
        x1 = Poly.var(names, "x1")
        z = Poly.var(names, "z")
        assert p == x1 * x1 * z - GaussRat("2/5")

    def test_implicit_multiplication(self):
        names = ("x",)
        assert parse_scalar("2x", names) == GaussRat(2) * Poly.var(names, "x")
        assert parse_scalar("(1+i)(1-i)", ()) == GaussRat(2)

    def test_round_trip_random(self):
        rng = Rng(5)
        names = ("x1", "x2")
        for _ in range(30):
            p = rng.poly(
                __import__("gcgeo.charts", fromlist=["Chart"]).Chart(names), 3, 3, True
            )
            assert parse_scalar(scalar_str(p), names) == p
        for _ in range(30):
            g = rng.gauss(5)
            assert parse_scalar(scalar_str(g)) == g

    def test_errors_located(self):
        with pytest.raises(JobError, match="scalar"):
            parse_scalar("1..2", (), "doc.form[0]")
        with pytest.raises(JobError, match="unknown variable"):
            parse_scalar("q + 1", ("x",))

    def test_zero_denominator_located(self):
        with pytest.raises(JobError, match="doc.form.0..*zero denominator"):
            parse_scalar("2 + 1/0", (), "doc.form[0]")


class TestFormsRoundTrip:
    def test_round_trip(self):
        rng = Rng(7)
        for _ in range(20):
            f = rng.form(4)
            doc = form_json(f)
            back = parse_form(doc, 4, (), "form")
            assert back == f


class TestReports:
    def test_exactly_one_payload(self):
        with pytest.raises(ValueError):
            Report("mukai", "pass")
        with pytest.raises(ValueError):
            Report("mukai", "fail", certificate={}, counterexample={})
        r = Report("mukai", "pass", certificate={"pairing": "1"})
        assert r.exit_code() == 0

    def test_emit_json_round_trips(self):
        r = Report("mukai", "pass", certificate={"pairing": "1"}, seed=3)
        body = json.loads(emit(r, "json"))
        assert body["verdict"] == "pass" and body["seed"] == 3
        text = emit(r, "text")
        assert "PASS" in text


def case(name):
    return os.path.join(CASES, name)


def schouten_with_coeff(coeff: str) -> str:
    with open(case("schouten_lie_derivative.json")) as f:
        doc = json.load(f)
    doc["mv_a"][0]["coeff"] = coeff
    return json.dumps(doc)


class TestCommands:
    @pytest.mark.parametrize(
        "command,filename",
        [
            ("check-isotropic", "isotropic_graph_b.json"),
            ("canonical-form", "canonical_form_graph_b.json"),
            ("spinor-of", "spinor_of_graph_b.json"),
            ("null-space", "null_space_symplectic.json"),
            ("mukai", "mukai_even_m4.json"),
            ("transform", "transform_beta_cotangent.json"),
            ("tensor", "tensor_graphs_add.json"),
            ("validate-gcs", "validate_gcs_symplectic.json"),
            ("type-map", "type_map_grid.json"),
            ("darboux", "darboux_b_transformed.json"),
            ("grading", "grading_symplectic_plus1.json"),
            ("poisson-of", "poisson_of_symplectic.json"),
            ("check-integrable", "type_jump_c2.json"),
            ("nijenhuis", "nijenhuis_deformed.json"),
            ("schouten", "schouten_lie_derivative.json"),
            ("maurer-cartan", "maurer_cartan_cubic.json"),
            ("deform", "deform_z1.json"),
            ("modular", "modular_poisson.json"),
            ("ham-symmetry", "ham_symmetry_symplectic.json"),
            ("pullback", "pullback_graph_b.json"),
            ("brane-check", "brane_lagrangian.json"),
            ("axiom-suite", "axiom_suite_r3.json"),
        ],
    )
    def test_case_files_pass(self, command, filename, capsys):
        code, out = run_cli([command, case(filename)], capsys)
        assert code == 0, out
        body = json.loads(out)
        assert body["verdict"] == "pass"
        assert body["certificate"] is not None and body["counterexample"] is None

    def test_all_commands_have_cases(self):
        assert set(COMMANDS) == {
            "check-isotropic", "canonical-form", "spinor-of", "null-space",
            "mukai", "transform", "tensor", "validate-gcs", "type-map",
            "darboux", "grading", "poisson-of", "check-integrable", "nijenhuis",
            "schouten", "maurer-cartan", "deform", "modular", "ham-symmetry",
            "pullback", "brane-check", "axiom-suite",
        }

    def test_truncated_document_exit_2(self, capsys):
        code, out = run_cli(["null-space", case("invalid_truncated.json")], capsys)
        assert code == 2
        assert "error" in json.loads(out)["counterexample"]

    def test_command_mismatch_exit_2(self, capsys):
        code, out = run_cli(["mukai", case("null_space_symplectic.json")], capsys)
        assert code == 2

    def test_capacity_exit_2(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "command": "null-space",
            "dim": 13,
            "form": [{"coeff": "1", "basis": []}],
        }
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["null-space", str(p)], capsys)
        assert code == 2

    def test_zero_denominator_exit_2(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "command": "mukai",
            "dim": 4,
            "form_a": [{"coeff": "1/0", "basis": [1, 2]}],
            "form_b": [{"coeff": "1", "basis": [3, 4]}],
        }
        p = tmp_path / "zero_den.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["mukai", str(p)], capsys)
        assert code == 2
        error = json.loads(out)["counterexample"]["error"]
        assert "form_a[0].coeff" in error and "zero denominator" in error

    @pytest.mark.parametrize(
        "filename,change,where",
        [
            ("grading_symplectic_plus1.json", {"matrix": [["1", "0"], ["0", "1"]]}, ""),
            ("tensor_graphs_add.json", {"vectors_b": [
                {"vec": ["1", "0"], "covec": ["1", "0"]},
                {"vec": ["0", "1"], "covec": ["0", "0"]},
            ]}, ""),
            ("mukai_even_m4.json", {"dim": "x"}, "dim: "),
            ("grading_symplectic_plus1.json", {"k": "a"}, "k: "),
            ("mukai_even_m4.json", {"form_b": [{"coeff": "1", "basis": [3, 5]}]},
             "form_b[0].basis: "),
        ],
        ids=["j-squared", "non-isotropic", "dim", "k", "basis-index"],
    )
    def test_invalid_input_exit_2(self, filename, change, where, tmp_path, capsys):
        with open(case(filename)) as f:
            doc = {**json.load(f), **change}
        p = tmp_path / filename
        p.write_text(json.dumps(doc))
        code = main([doc["command"], str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        error = json.loads(captured.out)["counterexample"]["error"]
        assert error and error.startswith(where)

    def test_schema_version_required(self, tmp_path, capsys):
        with open(case("mukai_even_m4.json")) as f:
            doc = json.load(f)
        for version in (None, 2):
            doc["schema_version"] = version
            p = tmp_path / "unversioned.json"
            p.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))
            code, out = run_cli(["mukai", str(p)], capsys)
            assert code == 2
            assert "schema_version" in json.loads(out)["counterexample"]["error"]

    @pytest.mark.parametrize(
        "filename,path,value,where",
        [
            ("maurer_cartan_cubic.json", ("eps",), [5], "eps[0]: "),
            ("maurer_cartan_cubic.json", ("eps", 0, "basis", 0), [], "eps[0].basis: "),
            ("maurer_cartan_cubic.json", ("eps", 0, "basis"), [3, 9], "eps[0].basis: "),
            ("maurer_cartan_cubic.json", ("eps", 0, "basis"), [0, 1], "eps[0].basis: "),
            ("maurer_cartan_cubic.json", ("eps", 0, "basis"), [2, 2],
             "eps[0]: eps indices must differ"),
            ("deform_z1.json", ("beta", 0, "pair"), [1, 3], "beta[0].pair: "),
            ("deform_z1.json", ("beta", 0, "pair"), [0, 1], "beta[0].pair: "),
            ("deform_z1.json", ("beta", 0, "pair"), [-1, 2], "beta[0].pair: "),
            ("deform_z1.json", ("beta", 0, "pair"), [1, 1], "beta[0]: beta indices must differ"),
            ("deform_z1.json", ("beta",), ["x"], "beta[0]: "),
            ("pullback_graph_b.json", ("dirac_frame", 0, "vec"), 5, "dirac_frame[0]: "),
            ("pullback_graph_b.json", ("dirac_frame",), 5, "dirac_frame: "),
            ("pullback_graph_b.json", ("chart", "complex_pairs"), 5, "chart.complex_pairs: "),
            ("pullback_graph_b.json", ("chart", "complex_pairs"), [[1]],
             "chart.complex_pairs[0]: "),
            ("deform_z1.json", ("chart", "complex_dim"), [], "chart.complex_dim: "),
            ("brane_lagrangian.json", ("submanifold", "params"), 5, "submanifold.params: "),
            ("brane_lagrangian.json", ("submanifold", "params"), [1, 9], "submanifold.params: "),
            ("brane_lagrangian.json", ("submanifold", "graph"), [], "submanifold.graph: "),
            ("axiom_suite_r3.json", ("cases",), [], "cases: "),
            ("axiom_suite_r3.json", ("seed",), {}, "seed: "),
            ("type_map_grid.json", ("samples",), 3, "samples: "),
            ("type_jump_c2.json", ("degree_bound",), [], "degree_bound: "),
            ("transform_beta_cotangent.json", ("transform", "matrix"), [["1"]],
             "transform.matrix: "),
            ("transform_beta_cotangent.json", ("transform", "form"),
             [{"coeff": "1", "basis": [1]}], "transform.form: "),
            ("validate_gcs_symplectic.json", ("matrix", 1), ["0"], "matrix: "),
            ("darboux_b_transformed.json", ("matrix",), [["0", "1", "0"]], "matrix: "),
            ("mukai_even_m4.json", ("dim",), float("inf"), "dim: "),
            ("mukai_even_m4.json", ("dim",), float("nan"), "dim: "),
            ("mukai_even_m4.json", ("dim",), 4.7, "dim: "),
            ("mukai_even_m4.json", ("dim",), True, "dim: "),
            ("mukai_even_m4.json", ("form_a", 0, "basis", 1), 2.5, "form_a[0].basis: "),
            ("mukai_even_m4.json", ("form_a", 0, "basis", 1), float("-inf"), "form_a[0].basis: "),
            ("deform_z1.json", ("chart", "complex_dim"), float("inf"), "chart.complex_dim: "),
            ("brane_lagrangian.json", ("submanifold", "params"), [1, True], "submanifold.params: "),
        ],
        ids=[
            "eps-term", "eps-index", "eps-index-high", "eps-index-zero", "eps-index-equal",
            "beta-index-high", "beta-index-zero", "beta-index-negative", "beta-index-equal",
            "beta-term", "section-vec", "frame", "complex-pairs",
            "complex-pair", "complex-dim", "params", "params-range", "graph", "cases",
            "seed", "samples", "degree-bound", "gl-shape", "transform-degree", "ragged-j",
            "odd-j", "dim-infinity", "dim-nan", "dim-fraction", "dim-bool", "basis-fraction",
            "basis-infinity", "complex-dim-infinity", "params-bool",
        ],
    )
    def test_odd_json_shape_exit_2(self, filename, path, value, where, tmp_path, capsys):
        with open(case(filename)) as f:
            doc = json.load(f)
        if path == ("transform", "matrix"):
            doc["transform"] = {"kind": "gl"}
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        p = tmp_path / filename
        p.write_text(json.dumps(doc))
        code = main([doc["command"], str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        error = json.loads(captured.out)["counterexample"]["error"]
        assert error and error.startswith(where)

    def test_infinite_integer_in_a_child(self, tmp_path):
        # json reads Infinity as a float, and int() of it raises OverflowError
        with open(MUKAI) as f:
            doc = json.load(f)
        p = tmp_path / "infinite.json"
        p.write_text(json.dumps({**doc, "dim": float("inf")}))
        proc = subprocess.run([sys.executable, "-m", "gcgeo.cli", "mukai", str(p)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stderr == ""
        assert json.loads(proc.stdout)["counterexample"]["error"] == "dim: must be an integer, got inf"

    @pytest.mark.parametrize("dim", [4.0, "4"])
    def test_integral_float_and_numeric_string_accepted(self, dim, tmp_path, capsys):
        with open(MUKAI) as f:
            doc = json.load(f)
        p = tmp_path / "dim.json"
        p.write_text(json.dumps({**doc, "dim": dim}))
        assert run_cli(["mukai", str(p)], capsys)[0] == 0

    @pytest.mark.parametrize(
        "command,text,where",
        [
            ("mukai", "[" * 100_000 + "]" * 100_000, None),
            ("schouten", schouten_with_coeff("(" * 5000 + "x" + ")" * 5000), "mv_a[0].coeff: "),
            ("schouten", schouten_with_coeff("-" * 5000 + "x"), "mv_a[0].coeff: "),
        ],
        ids=["deep-document", "deep-parentheses", "deep-minus-signs"],
    )
    def test_deep_nesting_exit_2(self, command, text, where, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text(text)
        code = main([command, str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        error = json.loads(captured.out)["counterexample"]["error"]
        assert error.startswith(where or f"{p}: ") and "nested too deeply" in error

    @pytest.mark.parametrize(
        "coeff", ["(x+y+z+1)^80", "3^10000000", "((((3^64)^64)^64)^64)^64", "1" * 5000],
        ids=["terms", "bits", "nested-powers", "digits"],
    )
    def test_oversized_scalar_exit_2(self, coeff, tmp_path, capsys):
        # each is refused before anything is computed
        doc = json.loads(schouten_with_coeff(coeff))
        doc["chart"] = {"vars": ["x", "y", "z"]}
        p = tmp_path / "big.json"
        p.write_text(json.dumps(doc))
        start = time.perf_counter()
        code = main(["schouten", str(p)])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        error = json.loads(captured.out)["counterexample"]["error"]
        assert error.startswith("mv_a[0].coeff: ") and "scalar too large" in error

    @pytest.mark.parametrize(
        "coeff_a,coeff_b,error",
        [
            ("1", "(((x^1024)^1024)^1024)*(((x^1024)^1024)^1024)",
             "mv_b[0].coeff: scalar too large: a product or power passes exponent 2147483647"),
            ("1", "(((x^1024)^1024)^1024)^2",
             "mv_b[0].coeff: scalar too large: a product or power passes exponent 2147483647"),
            ("((x^1024)^1024)^1024*x^1024", "((x^1024)^1024)^1024*x^1024",
             "an exponent of a polynomial over ('x', 'y') passes 2147483647"),
        ],
        ids=["product-chain", "power", "in-the-bracket"],
    )
    def test_exponent_past_the_field_width_exit_2(self, coeff_a, coeff_b, error, tmp_path):
        # each term is a single monomial, admitted by the height and term
        # bounds, whose exponent x^(2^31) or more no packed field holds
        doc = json.loads(schouten_with_coeff(coeff_a))
        doc["mv_b"][0]["coeff"] = coeff_b
        p = tmp_path / "wide.json"
        p.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "gcgeo.cli", "schouten", str(p)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stderr == ""
        assert json.loads(proc.stdout)["counterexample"]["error"] == error

    @pytest.mark.parametrize(
        "command,j",[("brane-check", "complex"), ("brane-check", "symplectic"), ("pullback", None)]
    )
    def test_f_of_degree_other_than_2_exit_2(self, command, j, tmp_path, capsys):
        # F = 1 + dx1 once passed under the complex J
        doc = {
            "schema_version": 1,
            "command": command,
            "chart": {"complex_dim": 2},
            "submanifold": {
                "params": [1, 2, 3, 4],
                "f": [{"coeff": "1", "basis": []}, {"coeff": "1", "basis": [1]}],
            },
        }
        if command == "pullback":
            doc["dirac_frame"] = [{"vec": ["1" if k == i else "0" for k in range(4)]}
                                  for i in range(4)]
        else:
            make = j_complex if j == "complex" else j_symplectic
            doc["matrix"] = matrix_json(make(standard_complex_endo(2)).matrix())
        p = tmp_path / "f.json"
        p.write_text(json.dumps(doc))
        code = main([command, str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert json.loads(captured.out)["counterexample"]["error"] == (
            "submanifold: F must be a 2-form"
        )

    @pytest.mark.parametrize("diag", [["i", "i", "-i", "-i"], ["i", "-i"]])
    def test_non_real_j_is_not_a_structure(self, diag, tmp_path, capsys):
        # diag(i, i, -i, -i) once passed as type 1, and diag(i, -i) failed
        # as "T* cap J T* has odd dimension"
        n = len(diag)
        doc = {
            "schema_version": 1,
            "command": "validate-gcs",
            "dim": n // 2,
            "matrix": [[x if r == c else "0" for c in range(n)] for r, x in enumerate(diag)],
        }
        p = tmp_path / "j.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["validate-gcs", str(p)], capsys)
        assert code == 1
        assert json.loads(out)["counterexample"] == {"violation": "J is not real: entry (0,0) is i"}

    @pytest.mark.parametrize(
        "submanifold,error",
        [
            # F = i dx^dy once passed with space-filling J = [[i, 0], [0, i]]
            ({"params": [1, 2], "f": [{"coeff": "i", "basis": [1, 2]}]},
             "submanifold: F must be a real 2-form"),
            # the graph y = i x once passed as Lagrangian
            ({"params": [1], "graph": {"y": "i*x"}},
             "submanifold: graph polynomials must be real"),
        ],
    )
    def test_non_real_brane_exits_2(self, submanifold, error, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "command": "brane-check",
            "chart": {"vars": ["x", "y"]},
            "matrix": matrix_json(j_symplectic(standard_complex_endo(1)).matrix()),
            "submanifold": submanifold,
        }
        p = tmp_path / "brane.json"
        p.write_text(json.dumps(doc))
        code = main(["brane-check", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert json.loads(captured.out)["counterexample"]["error"] == error

    def test_maurer_cartan_on_non_involutive_l_exit_2(self, tmp_path, capsys):
        # H = dx1^dx3^dx5 twists [del_zbar1, del_zbar2] out of L on C^3
        doc = {
            "schema_version": 1,
            "command": "maurer-cartan",
            "chart": {"complex_dim": 3},
            "h": [{"coeff": "1", "basis": [1, 3, 5]}],
            "eps": [],
        }
        p = tmp_path / "mc.json"
        p.write_text(json.dumps(doc))
        code = main(["maurer-cartan", str(p)])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        lines = [line for line in captured.out.splitlines() if '"timing_ms"' not in line]
        assert lines == [
            "{",
            '  "certificate": null,',
            '  "command": "maurer-cartan",',
            '  "counterexample": {',
            '    "error": "L frame is not involutive; d_L is undefined"',
            "  },",
            '  "seed": null,',
            '  "tool_version": "0.1.0",',
            '  "verdict": "error"',
            "}",
        ]

    def test_mathematical_fail_exit_1(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "command": "check-isotropic",
            "dim": 2,
            "vectors": [
                {"vec": ["1", "0"], "covec": ["1", "0"]},
                {"vec": ["0", "1"], "covec": ["0", "0"]},
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["check-isotropic", str(p)], capsys)
        assert code == 1
        body = json.loads(out)
        assert body["verdict"] == "fail" and body["counterexample"]

    def test_determinism_modulo_timing(self, capsys):
        code1, out1 = run_cli(["axiom-suite", case("axiom_suite_r3.json"), "--seed", "5", "--cases", "5"], capsys)
        code2, out2 = run_cli(["axiom-suite", case("axiom_suite_r3.json"), "--seed", "5", "--cases", "5"], capsys)
        b1, b2 = json.loads(out1), json.loads(out2)
        del b1["timing_ms"], b2["timing_ms"]
        assert b1 == b2 and code1 == code2 == 0

    def test_seed_recorded(self, capsys):
        code, out = run_cli(["axiom-suite", case("axiom_suite_r3.json"), "--cases", "3", "--seed", "9"], capsys)
        assert json.loads(out)["seed"] == 9

    def test_type_map_certificate_content(self, capsys):
        code, out = run_cli(["type-map", case("type_map_grid.json")], capsys)
        body = json.loads(out)
        types = body["certificate"]["types"]
        assert len(types) == 9
        for entry in types:
            z1_zero = entry["point"][0] == "0" and entry["point"][1] == "0"
            assert entry["type"] == (2 if z1_zero else 0)

    def test_text_format(self, capsys):
        code, out = run_cli(["mukai", case("mukai_even_m4.json"), "--format", "text"], capsys)
        assert code == 0 and "PASS" in out

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcgeo.cli", "mukai", case("mukai_even_m4.json")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0


# the pulled-back kernel of this frame on the line p = 0 is spanned by
# (1, -x): it needs kernel degree bound 1
PULLBACK_DEGREE_1 = {
    "schema_version": 1,
    "command": "pullback",
    "chart": {"vars": ["x", "p"]},
    "submanifold": {"params": [1], "graph": {"p": "0"}},
    "dirac_frame": [{"vec": ["1", "x"]}, {"vec": ["0", "1"]}],
}

QUADRATIC_SPINOR = {
    "schema_version": 1,
    "command": "check-integrable",
    "chart": {"complex_dim": 2},
    "form": [
        {"coeff": "(x1+i*x2)^2", "basis": []},
        {"coeff": "1", "basis": [1, 3]},
        {"coeff": "i", "basis": [2, 3]},
        {"coeff": "i", "basis": [1, 4]},
        {"coeff": "-1", "basis": [2, 4]},
    ],
}

CUBIC_POISSON = {
    "schema_version": 1,
    "command": "modular",
    "chart": {"vars": ["x", "y"]},
    "bivector": [{"coeff": "x^3*y^2", "basis": [1, 2]}],
}


class TestFlagOverrides:
    def test_samples_override(self, capsys):
        code, out = run_cli(
            [
                "type-map",
                case("type_map_grid.json"),
                "--samples",
                '[["0","0","2","0"], ["3","0","1","0"]]',
            ],
            capsys,
        )
        assert code == 0
        types = json.loads(out)["certificate"]["types"]
        assert [e["type"] for e in types] == [2, 0]

    # L is the graph of (x - 2)(x - 3) d_x ^ d_y, S is y = 0: i*L is TS where the
    # bivector is nonzero and T*S at x = 2 and x = 3, off the default samples
    NON_SMOOTH = {
        "schema_version": 1, "command": "pullback",
        "chart": {"vars": ["x", "y"]},
        "submanifold": {"params": [1], "graph": {"y": "0"}},
        "dirac_frame": [{"vec": ["0", "x^2-5*x+6"], "covec": ["1", "0"]},
                        {"vec": ["-x^2+5*x-6", "0"], "covec": ["0", "1"]}],
    }

    def test_pullback_samples_find_the_rank_jump(self, tmp_path, capsys):
        p = tmp_path / "non_smooth.json"
        p.write_text(json.dumps(self.NON_SMOOTH))
        code, out = run_cli(["pullback", str(p), "--samples", '[["2"]]'], capsys)
        assert code == 1 and "rank jump" in json.loads(out)["counterexample"]["violation"]
        p.write_text(json.dumps({**self.NON_SMOOTH, "samples": [["3"]]}))
        code, out = run_cli(["pullback", str(p)], capsys)
        assert code == 1 and "rank jump" in json.loads(out)["counterexample"]["violation"]

    @pytest.mark.xfail(
        strict=True,
        reason="the rank of L cap K-perp is read at the default samples 0 and 1 only, "
        "so the drop at x = 2 and x = 3 goes unseen and the job exits 0",
    )
    def test_pullback_non_smooth_fails_without_samples(self, tmp_path, capsys):
        p = tmp_path / "non_smooth.json"
        p.write_text(json.dumps(self.NON_SMOOTH))
        code, out = run_cli(["pullback", str(p)], capsys)
        assert code == 1, out

    @pytest.mark.parametrize("command_name,filename", [
        ("pullback", "pullback_graph_b.json"), ("brane-check", "brane_lagrangian.json"),
    ])
    def test_samples_are_points_of_s(self, command_name, filename, capsys):
        # S has fewer coordinates than the ambient chart; extra points keep
        # the verdict of a smooth case, and a point of the wrong size is refused
        code, out = run_cli([command_name, case(filename), "--samples", '[["2", "-1"]]'], capsys)
        assert code == 0, out
        code, out = run_cli([command_name, case(filename), "--samples", '[["2"]]'], capsys)
        assert code == 2
        assert json.loads(out)["counterexample"]["error"].startswith("samples[0]: ")

    @pytest.mark.parametrize("command_name,filename", [
        ("mukai", "mukai_even_m4.json"), ("modular", "modular_poisson.json"),
        ("axiom-suite", "axiom_suite_r3.json"),
    ])
    def test_samples_refused_where_unread(self, command_name, filename, tmp_path, capsys):
        code, out = run_cli([command_name, case(filename), "--samples", "[]"], capsys)
        assert code == 2
        error = json.loads(out)["counterexample"]["error"]
        assert error == f"samples: {command_name} does not read samples"
        with open(case(filename)) as f:
            doc = json.load(f)
        p = tmp_path / filename
        p.write_text(json.dumps({**doc, "samples": [["0"]]}))
        code, out = run_cli([command_name, str(p)], capsys)
        assert code == 2 and json.loads(out)["counterexample"]["error"].startswith("samples: ")

    def test_deep_samples_flag_exit_2(self, capsys):
        deep = "[" * 100_000 + "]" * 100_000
        code = main(["type-map", case("type_map_grid.json"), "--samples", deep])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert "--samples is nested too deeply" in json.loads(captured.out)["counterexample"]["error"]

    def test_degree_bound_flag(self, tmp_path, capsys):
        p = tmp_path / "quadratic.json"
        p.write_text(json.dumps(QUADRATIC_SPINOR))
        code, out = run_cli(["check-integrable", str(p), "--degree-bound", "0"], capsys)
        assert code == 2  # bound exhausted is a usage error, not a refutation
        code, out = run_cli(["check-integrable", str(p)], capsys)
        assert code == 0

    @pytest.mark.parametrize(
        "change,args,error",
        [
            ({"bivector": [{"coeff": "x^3*y^2", "basis": [1, 2]}]}, ["--degree-bound", "1"],
             "no polynomial modular field up to degree 1"),
            ({"volume": [{"coeff": "0", "basis": [1, 2]}]}, [], "volume form is zero"),
            ({"bivector": [{"coeff": "x", "basis": [1, 2]}, {"coeff": "1", "basis": []}]}, [],
             "bivector must be homogeneous of degree 2"),
            ({"chart": {"vars": ["x", "y", "z"]},
              "bivector": [{"coeff": "1", "basis": [1, 2, 3]}],
              "volume": [{"coeff": "1", "basis": [1, 2, 3]}]}, [],
             "bivector must be homogeneous of degree 2"),
            ({"volume": [{"coeff": "1", "basis": [1]}]}, [],
             "volume must be a single top-degree blade"),
            ({"volume": [{"coeff": "1", "basis": []}, {"coeff": "1", "basis": [1, 2]}]}, [],
             "volume must be a single top-degree blade"),
        ],
        ids=["degree-bound", "zero-volume", "degree-0-term", "trivector", "one-form-volume",
             "mixed-volume"],
    )
    def test_modular_undecided_exit_2(self, change, args, error, tmp_path, capsys):
        # only a bivector that is not Poisson is a decided failure
        with open(case("modular_poisson.json")) as f:
            doc = {**json.load(f), **change}
        p = tmp_path / "modular.json"
        p.write_text(json.dumps(doc))
        code = main(["modular", str(p), *args])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        body = json.loads(captured.out)
        assert body["verdict"] == "error" and body["counterexample"]["error"] == error

    def test_modular_long_division_exit_2(self, tmp_path):
        # the divergence holds x^(2^30), which division by the volume x + 1
        # would step down through one power at a time
        with open(case("modular_poisson.json")) as f:
            doc = json.load(f)
        doc["bivector"] = [{"coeff": "((x^1024)^1024)^1024*y", "basis": [1, 2]}]
        doc["volume"] = [{"coeff": "x+1", "basis": [1, 2]}]
        p = tmp_path / "long.json"
        p.write_text(json.dumps(doc))
        proc = subprocess.run([sys.executable, "-m", "gcgeo.cli", "modular", str(p)],
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 2 and proc.stderr == ""
        assert "above the cap of" in json.loads(proc.stdout)["counterexample"]["error"]

    def test_modular_not_poisson_exit_1(self, tmp_path, capsys):
        doc = {
            "schema_version": 1,
            "command": "modular",
            "chart": {"vars": ["x", "y", "z"]},
            "bivector": [{"coeff": "-x", "basis": [1, 3]}, {"coeff": "1", "basis": [1, 2]}],
        }
        p = tmp_path / "not_poisson.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["modular", str(p)], capsys)
        body = json.loads(out)
        assert code == 1 and body["verdict"] == "fail"
        assert "not Poisson" in body["counterexample"]["violation"]

    @pytest.mark.parametrize(
        "doc,low,high",
        [(QUADRATIC_SPINOR, 0, 1), (CUBIC_POISSON, 3, 4), (PULLBACK_DEGREE_1, 0, 1)],
        ids=["check-integrable", "modular", "pullback"],
    )
    def test_document_bound_and_flag_override(self, doc, low, high, tmp_path, capsys):
        # `low` exhausts the ansatz (exit 2), `high` finds it (exit 0)
        p = tmp_path / "bound.json"
        runs = [
            (low, [], 2),
            (high, [], 0),
            (high, ["--degree-bound", str(low)], 2),
            (low, ["--degree-bound", str(high)], 0),
        ]
        for bound, flags, expect in runs:
            p.write_text(json.dumps({**doc, "degree_bound": bound}))
            code = main([doc["command"], str(p), *flags])
            captured = capsys.readouterr()
            assert (code, captured.err) == (expect, ""), (bound, flags)
            verdict = json.loads(captured.out)["verdict"]
            assert verdict == ("pass" if expect == 0 else "error")

    def test_pullback_bound_zero_is_undecided(self, tmp_path, capsys):
        p = tmp_path / "pullback.json"
        p.write_text(json.dumps(PULLBACK_DEGREE_1))
        code, out = run_cli(["pullback", str(p), "--degree-bound", "0"], capsys)
        body = json.loads(out)
        assert code == 2 and body["verdict"] == "error"
        assert "degree bound 0" in body["counterexample"]["error"]
        code, out = run_cli(["pullback", str(p), "--degree-bound", "1"], capsys)
        assert code == 0 and json.loads(out)["certificate"]["frame"]

    def test_pullback_over_the_ansatz_cap_exit_2(self):
        # bound 160 has up to 26,082 x 52,164 rows x unknowns: refused before
        # anything is built, where it used to end in a MemoryError
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gcgeo.cli", "pullback", case("pullback_graph_b.json"),
             "--degree-bound", "160"],
            capture_output=True, text=True,
        )
        assert time.perf_counter() - t0 < 5.0
        assert proc.returncode == 2 and proc.stderr == ""
        error = json.loads(proc.stdout)["counterexample"]["error"]
        assert error.startswith("the ansatz at degree bound 160 has up to ")

    def test_pullback_over_the_kernel_cap_exit_2(self):
        # bound 80 is under the ansatz cap, but its kernel basis has 6,642 x
        # 13,284 entries: refused once the elimination (about 1 s) gives the
        # nullity, where building the basis took about 20 s and 0.7 GB
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gcgeo.cli", "pullback", case("pullback_graph_b.json"),
             "--degree-bound", "80"],
            capture_output=True, text=True,
        )
        assert time.perf_counter() - t0 < 10.0
        assert proc.returncode == 2 and proc.stderr == ""
        error = json.loads(proc.stdout)["counterexample"]["error"]
        assert error == (
            "the kernel at degree bound 80 has nullity 6642 over 13284 unknowns, "
            "88232328 basis entries, above the cap 10000000"
        )

    def test_pullback_rank_jump_is_a_failure(self, tmp_path, capsys):
        # the section x1 d/dp1 vanishes on x1 = 0 only
        doc = {
            "schema_version": 1,
            "command": "pullback",
            "chart": {"vars": ["x1", "x2", "p1", "p2"]},
            "submanifold": {"params": [1, 2], "graph": {"p1": "0", "p2": "0"}},
            "dirac_frame": [
                {"vec": ["0", "0", "x1", "0"]},
                {"vec": ["1", "0", "0", "0"]},
                {"covec": ["0", "1", "0", "0"]},
                {"covec": ["0", "0", "0", "1"]},
            ],
        }
        p = tmp_path / "jump.json"
        p.write_text(json.dumps(doc))
        code, out = run_cli(["pullback", str(p)], capsys)
        body = json.loads(out)
        assert code == 1 and body["verdict"] == "fail"
        assert "rank jump" in body["counterexample"]["violation"]

    @pytest.mark.parametrize(
        "filename,change,args,field",
        [
            ("axiom_suite_r3.json", {}, ["--cases", "0"], "cases"),
            ("axiom_suite_r3.json", {"cases": 0}, [], "cases"),
            ("axiom_suite_r3.json", {"cases": -3}, [], "cases"),
            ("modular_poisson.json", {}, ["--degree-bound", "-1"], "degree_bound"),
            ("type_jump_c2.json", {"degree_bound": -1}, [], "degree_bound"),
            ("pullback_graph_b.json", {}, ["--degree-bound", "-1"], "degree_bound"),
        ],
        ids=["cases-flag", "cases-zero", "cases-negative", "modular-flag",
             "check-integrable-doc", "pullback-flag"],
    )
    def test_out_of_range_count_exit_2(self, filename, change, args, field, tmp_path, capsys):
        with open(case(filename)) as f:
            doc = {**json.load(f), **change}
        p = tmp_path / filename
        p.write_text(json.dumps(doc))
        code = main([doc["command"], str(p), *args])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert json.loads(captured.out)["counterexample"]["error"].startswith(f"{field}: ")


class TestCommandTable:
    def test_decided_failure_is_never_a_job_error(self):
        # a malformed document raises JobError, which must never exit 1
        for name in DECIDED:
            decided = decided_failure(name)
            for cls in decided if isinstance(decided, tuple) else (decided,):
                assert issubclass(cls, ValueError), name
                assert not issubclass(JobError, cls), name

    def test_decided_commands(self):
        assert {name for name, decided in DECIDED.items() if decided} == {
            "check-isotropic", "canonical-form", "spinor-of", "transform",
            "validate-gcs", "darboux", "modular", "pullback",
        }

    def test_handlers_are_cmd_functions(self):
        assert set(DECIDED) == set(COMMANDS)
        for name, fn in COMMANDS.items():
            assert fn.__name__.startswith("cmd_"), name


MUKAI = case("mukai_even_m4.json")

# flag, value, command, case file, exit code, and the report showing the value took effect
FLAG_EFFECTS = [
    ("--seed", "7", "mukai", "mukai_even_m4.json", 0, lambda out: json.loads(out)["seed"] == 7),
    ("--cases", "2", "axiom-suite", "axiom_suite_r3.json", 0,
     lambda out: json.loads(out)["certificate"]["cases"] == 2),
    ("--degree-bound", "-1", "modular", "modular_poisson.json", 2,
     lambda out: json.loads(out)["counterexample"]["error"].startswith("degree_bound: ")),
    ("--samples", '[["0","0","2","0"]]', "type-map", "type_map_grid.json", 0,
     lambda out: [e["type"] for e in json.loads(out)["certificate"]["types"]] == [2]),
    ("--format", "text", "mukai", "mukai_even_m4.json", 0,
     lambda out: out.startswith("mukai: PASS")),
]

PLACEMENTS = {
    "separate-after": lambda path, flag, value: [path, flag, value],
    "equals-after": lambda path, flag, value: [path, f"{flag}={value}"],
    "separate-before": lambda path, flag, value: [flag, value, path],
    "equals-before": lambda path, flag, value: [f"{flag}={value}", path],
}

# argv outside the grammar, and what its error line says
USAGE_ERRORS = [
    ([], "missing command and job path"),
    (["mukai"], "missing job path"),
    (["bogus", MUKAI], "invalid command 'bogus'"),
    (["mukai", MUKAI, "--bogus", "1"], "unrecognized argument '--bogus'"),
    (["mukai", MUKAI, "--deg", "1"], "unrecognized argument '--deg'"),
    (["mukai", MUKAI, "--degree=1"], "unrecognized argument '--degree=1'"),
    (["mukai", MUKAI, "-s", "1"], "unrecognized argument '-s'"),
    (["mukai", MUKAI, "--seed"], "argument --seed: expected one value"),
    (["mukai", MUKAI, "--seed", "x"], "argument --seed: invalid int value 'x'"),
    (["mukai", MUKAI, "--cases=1.5"], "argument --cases: invalid int value '1.5'"),
    (["mukai", MUKAI, "--degree-bound="], "argument --degree-bound: invalid int value ''"),
    (["mukai", MUKAI, "--format", "xml"], "argument --format: invalid choice 'xml'"),
    (["mukai", MUKAI, "extra"], "unexpected argument 'extra'"),
]


class TestCommandLine:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("flag,value,command_name,filename,exit_code,took_effect",
                             FLAG_EFFECTS, ids=[f[0] for f in FLAG_EFFECTS])
    def test_flag_forms_and_positions(self, flag, value, command_name, filename, exit_code,
                                      took_effect, placement, capsys):
        argv = [command_name, *PLACEMENTS[placement](case(filename), flag, value)]
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (exit_code, "")
        assert took_effect(captured.out)

    def test_repeated_flag_keeps_last_value(self, capsys):
        code, out = run_cli(["mukai", "--seed=1", MUKAI, "--seed", "2"], capsys)
        assert code == 0 and json.loads(out)["seed"] == 2

    @pytest.mark.parametrize("argv,error", USAGE_ERRORS, ids=[" ".join(a[:1] + a[2:]) or "empty"
                                                              for a, _ in USAGE_ERRORS])
    def test_usage_error_returns_2(self, argv, error, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        usage, message = captured.err.splitlines()
        assert usage == USAGE and message.startswith(f"gcgeo: error: {error}")

    @pytest.mark.parametrize("argv", [["mukai"], ["mukai", MUKAI, "--format", "xml"]])
    def test_usage_error_in_a_child(self, argv):
        proc = subprocess.run([sys.executable, "-m", "gcgeo.cli", *argv],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("usage: gcgeo") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [["mukai", MUKAI], ["mukai", MUKAI, "--format", "text"],
                                      ["--help"]])
    def test_closed_stdout_exits_2_quietly(self, argv):
        # the reader is gone before the child writes: the output is lost, no
        # verdict stands, and nothing is printed to stderr
        proc = subprocess.Popen([sys.executable, "-m", "gcgeo.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err == b""

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["mukai", "-h"], ["mukai", MUKAI, "--help"]])
    def test_help(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == USAGE
        assert [line.strip() for line in lines[lines.index("commands:") + 1:]] == sorted(COMMANDS)

    def test_version(self, capsys):
        code = main(["--version"])
        assert code == 0 and capsys.readouterr() == ("gcgeo 0.1.0\n", "")

    def test_job_document_is_read_as_utf8(self, tmp_path):
        # a C locale without UTF-8 mode would decode the file as ASCII
        with open(MUKAI) as f:
            doc = json.load(f)
        accented = tmp_path / "accented.json"
        accented.write_text(json.dumps({**doc, "note": "\u00e9"}, ensure_ascii=False),
                            encoding="utf-8")
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b"\xff" + json.dumps(doc).encode())
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        runs = {}
        for p in (accented, latin1):
            proc = subprocess.run([sys.executable, "-m", "gcgeo.cli", "mukai", str(p)],
                                  capture_output=True, text=True, env=env, timeout=60)
            runs[p] = proc.returncode, json.loads(proc.stdout)
        assert runs[accented][0] == 0
        code, body = runs[latin1]
        assert code == 2 and body["counterexample"]["error"].startswith(f"cannot read {latin1}: ")


class TestMatrixRoundTrip:
    def test_polynomial_matrix_round_trip(self):
        from gcgeo.jobio import matrix_json, parse_matrix
        from gcgeo.charts import Chart
        from gcgeo.randgen import Rng

        ch = Chart.real("x1", "x2")
        rng = Rng(11)
        mat = [[rng.poly(ch, 2, 3, complex_ok=True) for _ in range(3)] for _ in range(3)]
        doc = matrix_json(mat)
        back = parse_matrix(doc, ch.names)
        assert all(back[i][j] == mat[i][j] for i in range(3) for j in range(3))


class TestTypeMapMatrixInput:
    def test_matrix_driven_type_map(self, capsys):
        code, out = run_cli(["type-map", case("type_map_matrix.json")], capsys)
        assert code == 0
        types = json.loads(out)["certificate"]["types"]
        got = {tuple(e["point"]): e["type"] for e in types}
        assert got[("0", "0", "1", "0")] == 2
        assert got[("1", "0", "0", "0")] == 0
        assert got[("0", "1", "2", "0")] == 0
