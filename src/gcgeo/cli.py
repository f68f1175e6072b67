"""File-driven command line: parse a JSON job, dispatch, emit a certificate.

Exit codes: 0 = pass, 1 = mathematical fail, 2 = every outcome that is not a
decided verdict (malformed documents, invalid structures or isotropics,
capacity limits, and exhausted degree bounds).
"""

from __future__ import annotations

import argparse
import sys
import time

from . import __version__
from .forms import MixedForm, mukai_coeff
from .clifford import BlockTransform
from .charts import Chart
from .isotropics import (
    NotIsotropic,
    canonical_form,
    null_space,
    pure_spinor_line,
    tensor_product,
    transform,
)
from .gcs import (
    InvalidStructure,
    darboux_point,
    gc_type,
    grading_project,
    poisson_of,
    validate_gc,
    validate_gc_field,
)
from .fields import ClosedThreeForm, DiracFrame, schouten
from .integrability import (
    NotPoisson,
    check_spinor_integrability,
    deform_by_bivector,
    hamiltonian_section,
    holomorphic_bivector,
    is_symmetry,
    modular_vector_field,
    nijenhuis_field,
    nijenhuis_vanishes,
)
from .algebroid import complex_pair, maurer_cartan
from .branes import SubmanifoldData, brane_check, pullback_dirac
from .suites import run_axiom_suite
from .jobio import (
    JobError,
    JobSpec,
    Report,
    emit,
    form_json,
    load_document,
    matrix_json,
    parse_chart,
    parse_form,
    parse_int,
    parse_matrix,
    parse_point,
    parse_scalar,
    parse_section,
    point_json,
    scalar_str,
    section_json,
)

COMMANDS = {}


def command(name):
    def deco(fn):
        COMMANDS[name] = fn
        return fn

    return deco


def _chart_of(doc) -> Chart:
    if "chart" not in doc:
        raise JobError("document needs a chart", "chart")
    return parse_chart(doc["chart"])


def _int_of(doc, key: str) -> int:
    if key not in doc:
        raise JobError(f"document needs {key}", key)
    return parse_int(doc[key], key)


def _twist_of(doc, chart: Chart) -> ClosedThreeForm | None:
    if "h" not in doc or not doc["h"]:
        return None
    h = parse_form(doc["h"], chart.dim, chart.names, "form", "h")
    try:
        return ClosedThreeForm(chart, h)
    except ValueError as e:
        raise JobError(str(e), "h")


def _samples_of(doc, chart: Chart, default=None):
    if "samples" not in doc:
        return default
    if not isinstance(doc["samples"], list):
        raise JobError("samples must be a list of points", "samples")
    return [parse_point(p, chart, f"samples[{i}]") for i, p in enumerate(doc["samples"])]


def _vectors_of(doc, dim: int, key="vectors"):
    if key not in doc or not isinstance(doc[key], list):
        raise JobError(f"document needs {key}: a list of sections", key)
    return [
        parse_section(v, dim, (), f"{key}[{i}]") for i, v in enumerate(doc[key])
    ]


def _frame_of(doc, chart: Chart, key="dirac_frame") -> DiracFrame:
    frame_doc = doc.get(key, [])
    if not isinstance(frame_doc, list):
        raise JobError(f"{key} must be a list of sections", key)
    secs = [
        chart.lift_section(parse_section(v, chart.dim, chart.names, f"{key}[{i}]"))
        for i, v in enumerate(frame_doc)
    ]
    try:
        return DiracFrame(chart, tuple(secs))
    except ValueError as e:
        raise JobError(str(e), key)


def _canonical_cert(iso) -> dict:
    return {
        "type": iso.type,
        "parity": iso.parity,
        "delta_basis": [[scalar_str(c) for c in row] for row in iso.delta_basis],
        "eps": [[scalar_str(c) for c in row] for row in iso.eps],
        "basis": [section_json(v) for v in iso.basis],
    }


# ---------------------------------------------------------------------------
# linear-algebra commands
# ---------------------------------------------------------------------------

@command("check-isotropic")
def cmd_check_isotropic(doc, opts):
    dim = _int_of(doc, "dim")
    try:
        iso = canonical_form(_vectors_of(doc, dim), dim)
    except NotIsotropic as e:
        return Report("check-isotropic", "fail", counterexample={"violation": str(e)})
    return Report("check-isotropic", "pass", certificate={"type": iso.type, "parity": iso.parity})


@command("canonical-form")
def cmd_canonical_form(doc, opts):
    dim = _int_of(doc, "dim")
    try:
        iso = canonical_form(_vectors_of(doc, dim), dim)
    except NotIsotropic as e:
        return Report("canonical-form", "fail", counterexample={"violation": str(e)})
    return Report("canonical-form", "pass", certificate=_canonical_cert(iso))


@command("spinor-of")
def cmd_spinor_of(doc, opts):
    dim = _int_of(doc, "dim")
    try:
        iso = canonical_form(_vectors_of(doc, dim), dim)
    except NotIsotropic as e:
        return Report("spinor-of", "fail", counterexample={"violation": str(e)})
    phi = pure_spinor_line(iso)
    return Report("spinor-of", "pass", certificate={"spinor": form_json(phi)})


@command("null-space")
def cmd_null_space(doc, opts):
    dim = _int_of(doc, "dim")
    phi = parse_form(doc.get("form"), dim, (), "form", "form")
    if not phi:
        raise JobError("the zero form has no null space", "form")
    vecs, pure = null_space(phi)
    return Report(
        "null-space",
        "pass",
        certificate={"pure": pure, "basis": [section_json(v) for v in vecs]},
    )


@command("mukai")
def cmd_mukai(doc, opts):
    dim = _int_of(doc, "dim")
    a = parse_form(doc.get("form_a"), dim, (), "form", "form_a")
    b = parse_form(doc.get("form_b"), dim, (), "form", "form_b")
    return Report("mukai", "pass", certificate={"pairing": scalar_str(mukai_coeff(a, b))})


def _transform_of(doc, dim: int) -> BlockTransform:
    spec = doc.get("transform")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise JobError("transform needs {kind, form|matrix}", "transform")
    kind = spec["kind"]
    if kind in ("B", "beta"):
        variance = "form" if kind == "B" else "mv"
        f = parse_form(spec.get("form"), dim, (), variance, "transform.form")
        return (
            BlockTransform.from_two_form(f)
            if kind == "B"
            else BlockTransform.from_bivector(f)
        )
    if kind == "gl":
        g = parse_matrix(spec.get("matrix"), (), "transform.matrix")
        try:
            return BlockTransform(dim, "gl", g)
        except ValueError as e:
            raise JobError(str(e), "transform.matrix")
    raise JobError(f"unknown transform kind {kind!r}", "transform.kind")


@command("transform")
def cmd_transform(doc, opts):
    dim = _int_of(doc, "dim")
    try:
        iso = canonical_form(_vectors_of(doc, dim), dim)
    except NotIsotropic as e:
        return Report("transform", "fail", counterexample={"violation": str(e)})
    out = transform(iso, _transform_of(doc, dim))
    return Report("transform", "pass", certificate=_canonical_cert(out))


@command("tensor")
def cmd_tensor(doc, opts):
    dim = _int_of(doc, "dim")
    l1 = canonical_form(_vectors_of(doc, dim, "vectors_a"), dim)
    l2 = canonical_form(_vectors_of(doc, dim, "vectors_b"), dim)
    return Report("tensor", "pass", certificate=_canonical_cert(tensor_product(l1, l2)))


# ---------------------------------------------------------------------------
# structure commands
# ---------------------------------------------------------------------------

def _structure_of(doc, names=()):
    mat = parse_matrix(doc.get("matrix"), names, "matrix")
    return validate_gc(mat)


@command("validate-gcs")
def cmd_validate_gcs(doc, opts):
    names = ()
    if "chart" in doc:
        names = parse_chart(doc["chart"]).names
    try:
        s = _structure_of(doc, names)
    except InvalidStructure as e:
        return Report("validate-gcs", "fail", counterexample={"violation": str(e)})
    cert = {"dim": s.dim}
    if s.is_constant() and not names:
        cert["type"] = gc_type(s)
    return Report("validate-gcs", "pass", certificate=cert)


@command("type-map")
def cmd_type_map(doc, opts):
    chart = _chart_of(doc)
    samples = _samples_of(doc, chart)
    if samples is None:
        raise JobError("type-map needs samples", "samples")
    out = []
    if "form" in doc:
        phi = parse_form(doc["form"], chart.dim, chart.names, "form", "form")
        for p in samples:
            phi_p = phi.eval_at(p)
            if not phi_p:
                return Report(
                    "type-map",
                    "fail",
                    counterexample={"point": point_json(chart, p), "violation": "spinor vanishes"},
                )
            vecs, pure = null_space(phi_p)
            if not pure or not mukai_coeff(phi_p, phi_p.conj()):
                return Report(
                    "type-map",
                    "fail",
                    counterexample={
                        "point": point_json(chart, p),
                        "violation": "not a nondegenerate pure spinor",
                    },
                )
            out.append({"point": point_json(chart, p), "type": phi_p.min_degree()})
    elif "matrix" in doc:
        mat = parse_matrix(doc["matrix"], chart.names, "matrix")
        s = validate_gc_field(mat)
        for p in samples:
            out.append({"point": point_json(chart, p), "type": gc_type(s.eval_at(p))})
    else:
        raise JobError("type-map needs a form or a matrix", "form")
    return Report("type-map", "pass", certificate={"types": out})


@command("darboux")
def cmd_darboux(doc, opts):
    try:
        s = _structure_of(doc)
        data = darboux_point(s)
    except InvalidStructure as e:
        return Report("darboux", "fail", counterexample={"violation": str(e)})
    return Report(
        "darboux",
        "pass",
        certificate={
            "type": data.k,
            "btilde": form_json(data.btilde),
            "omega0": form_json(data.omega0),
            "delta_frame": [[scalar_str(c) for c in row] for row in data.delta_frame],
            "transverse_complement": list(data.n_complement),
        },
    )


@command("grading")
def cmd_grading(doc, opts):
    s = _structure_of(doc)
    phi = parse_form(doc.get("form"), s.dim, (), "form", "form")
    comp = grading_project(s, phi, _int_of(doc, "k"))
    return Report("grading", "pass", certificate={"component": form_json(comp)})


@command("poisson-of")
def cmd_poisson_of(doc, opts):
    s = _structure_of(doc)
    pmap, pmv = poisson_of(s)
    return Report(
        "poisson-of",
        "pass",
        certificate={"map": matrix_json(pmap), "bivector": form_json(pmv)},
    )


# ---------------------------------------------------------------------------
# field commands
# ---------------------------------------------------------------------------

@command("check-integrable")
def cmd_check_integrable(doc, opts):
    chart = _chart_of(doc)
    phi = parse_form(doc.get("form"), chart.dim, chart.names, "form", "form")
    h = _twist_of(doc, chart)
    witness = None
    if "witness" in doc and doc["witness"]:
        witness = parse_section(doc["witness"], chart.dim, chart.names, "witness")
    bound = opts.degree_bound
    if bound is None and "degree_bound" in doc:
        bound = parse_int(doc["degree_bound"], "degree_bound")
    rep = check_spinor_integrability(
        chart, phi, h, witness=witness, degree_bound=bound,
        samples=_samples_of(doc, chart),
    )
    if rep.verdict == "pass":
        return Report(
            "check-integrable",
            "pass",
            certificate={
                "witness": section_json(rep.witness),
                "degree_bound": rep.degree_bound,
                "detail": rep.detail,
            },
        )
    if rep.verdict == "fail":
        return Report(
            "check-integrable", "fail", counterexample=rep.counterexample or {"detail": rep.detail}
        )
    return Report("check-integrable", "error", counterexample={"detail": rep.detail})


@command("nijenhuis")
def cmd_nijenhuis(doc, opts):
    chart = _chart_of(doc)
    mat = parse_matrix(doc.get("matrix"), chart.names, "matrix")
    s = validate_gc_field(mat)
    h = _twist_of(doc, chart)
    comps = nijenhuis_field(chart, s, h)
    if nijenhuis_vanishes(comps):
        return Report("nijenhuis", "pass", certificate={"zero": True})
    bad = next(k for k, v in comps.items() if not v.is_zero())
    return Report(
        "nijenhuis",
        "fail",
        counterexample={"frame_pair": list(bad), "component": section_json(comps[bad])},
    )


@command("schouten")
def cmd_schouten(doc, opts):
    chart = _chart_of(doc)
    a = parse_form(doc.get("mv_a"), chart.dim, chart.names, "mv", "mv_a")
    b = parse_form(doc.get("mv_b"), chart.dim, chart.names, "mv", "mv_b")
    return Report(
        "schouten", "pass", certificate={"bracket": form_json(schouten(chart, a, b))}
    )


@command("maurer-cartan")
def cmd_maurer_cartan(doc, opts):
    chart = _chart_of(doc)
    if 2 * chart.n_complex != chart.dim:
        raise JobError("maurer-cartan runs on a fully complex-paired chart", "chart")
    pair = complex_pair(chart, _twist_of(doc, chart))
    eps_doc = doc.get("eps")
    if not isinstance(eps_doc, list):
        raise JobError("eps must be a list of {coeff, basis:[i,j]} over the L frame", "eps")
    eps = {}
    for idx, term in enumerate(eps_doc):
        basis = term.get("basis") if isinstance(term, dict) else None
        if not isinstance(basis, list) or len(basis) != 2:
            raise JobError("eps terms need basis [i, j]", f"eps[{idx}]")
        i, j = (parse_int(x, f"eps[{idx}].basis") - 1 for x in basis)
        c = parse_scalar(term.get("coeff"), chart.names, f"eps[{idx}].coeff")
        sign = 1
        if i == j:
            raise JobError("eps indices must differ", f"eps[{idx}]")
        if i > j:
            i, j = j, i
            sign = -1
        mask = (1 << i) | (1 << j)
        cur = eps.get(mask, chart.zero())
        eps[mask] = cur + (c if sign > 0 else -c)
    rep = maurer_cartan(pair, eps)
    if rep.verdict == "pass":
        return Report("maurer-cartan", "pass", certificate={"residual": "0"})
    bad = sorted(rep.residual)[0]
    return Report(
        "maurer-cartan",
        "fail",
        counterexample={
            "frame_mask": bad,
            "residual": scalar_str(rep.residual[bad]),
        },
    )


@command("deform")
def cmd_deform(doc, opts):
    chart = _chart_of(doc)
    if 2 * chart.n_complex != chart.dim:
        raise JobError("deform runs on a fully complex-paired chart", "chart")
    beta_doc = doc.get("beta")
    if not isinstance(beta_doc, list):
        raise JobError("beta must list {coeff, pair:[a,b]} holomorphic components", "beta")
    comps = {}
    for idx, term in enumerate(beta_doc):
        ab = term.get("pair") if isinstance(term, dict) else None
        if not isinstance(ab, list) or len(ab) != 2:
            raise JobError("beta terms need pair [a, b]", f"beta[{idx}]")
        comps[tuple(parse_int(x, f"beta[{idx}].pair") - 1 for x in ab)] = parse_scalar(
            term.get("coeff"), chart.names, f"beta[{idx}].coeff"
        )
    from .gcs import j_complex, standard_complex_endo

    base = j_complex(standard_complex_endo(chart.n_complex))
    beta_mv = holomorphic_bivector(chart, comps)
    res = deform_by_bivector(chart, base, beta_mv)
    cert = {
        "matrix": matrix_json(res.structure.matrix()),
        "spinor": form_json(res.spinor),
    }
    samples = _samples_of(doc, chart)
    if samples:
        cert["types"] = [
            {
                "point": point_json(chart, p),
                "type": res.spinor.eval_at(p).min_degree(),
            }
            for p in samples
        ]
    return Report("deform", "pass", certificate=cert)


@command("modular")
def cmd_modular(doc, opts):
    chart = _chart_of(doc)
    beta = parse_form(doc.get("bivector"), chart.dim, chart.names, "mv", "bivector")
    vol_doc = doc.get("volume")
    if vol_doc:
        vol = parse_form(vol_doc, chart.dim, chart.names, "form", "volume")
    else:
        vol = MixedForm.top(chart.dim, chart.one())
    f = None
    if doc.get("f"):
        f = parse_scalar(doc["f"], chart.names, "f")
    try:
        x = modular_vector_field(chart, beta, vol, log_factor=f, degree_bound=opts.degree_bound)
    except NotPoisson as e:
        return Report("modular", "fail", counterexample={"violation": str(e)})
    return Report("modular", "pass", certificate={"vector_field": section_json(x)})


@command("ham-symmetry")
def cmd_ham_symmetry(doc, opts):
    chart = _chart_of(doc)
    mat = parse_matrix(doc.get("matrix"), chart.names, "matrix")
    s = validate_gc_field(mat)
    f_re = parse_scalar(doc.get("f_re", "0"), chart.names, "f_re")
    f_im = parse_scalar(doc.get("f_im", "0"), chart.names, "f_im")
    df = hamiltonian_section(chart, s, f_re, f_im)
    if "l_frame" in doc:
        frame = _frame_of(doc, chart, "l_frame")
    else:
        if not s.is_constant():
            raise JobError("non-constant structures need an explicit l_frame", "l_frame")
        from .gcs import eigenbundle

        point_s = s.eval_at(chart.point(*([0] * chart.dim)))
        lft = eigenbundle(point_s)
        frame = DiracFrame(
            chart, tuple(chart.lift_section(v) for v in lft.basis)
        )
    ok = is_symmetry(chart, df, frame, _twist_of(doc, chart))
    cert = {"section": section_json(df), "symmetry": ok}
    return Report("ham-symmetry", "pass", certificate=cert)


@command("pullback")
def cmd_pullback(doc, opts):
    chart = _chart_of(doc)
    sub = _submanifold_of(doc, chart)
    frame = _frame_of(doc, chart)
    try:
        res = pullback_dirac(frame, sub, samples=None, degree_bound=opts.degree_bound or 2)
    except ValueError as e:
        return Report("pullback", "fail", counterexample={"violation": str(e)})
    invol_zero = all(not v for v in res.involutivity.values())
    return Report(
        "pullback",
        "pass",
        certificate={
            "frame": [section_json(u) for u in res.frame.sections],
            "involutive": invol_zero,
        },
    )


def _submanifold_of(doc, chart: Chart) -> SubmanifoldData:
    spec = doc.get("submanifold")
    if not isinstance(spec, dict):
        raise JobError("document needs a submanifold object", "submanifold")
    params_doc = spec.get("params", [])
    if not isinstance(params_doc, list):
        raise JobError("params must be a list of coordinate indices", "submanifold.params")
    params = tuple(parse_int(i, "submanifold.params") - 1 for i in params_doc)
    if not all(0 <= i < chart.dim for i in params):
        raise JobError(f"params must lie in 1..{chart.dim}", "submanifold.params")
    s_names = tuple(chart.names[i] for i in params)
    graph_doc = spec.get("graph", {})
    if not isinstance(graph_doc, dict):
        raise JobError("graph must map coordinate names to polynomials", "submanifold.graph")
    graph = {}
    for name, poly in graph_doc.items():
        if name not in chart.names:
            raise JobError(f"unknown graphed coordinate {name!r}", "submanifold.graph")
        graph[chart.names.index(name)] = parse_scalar(poly, s_names, f"submanifold.graph.{name}")
    f2 = None
    if spec.get("f"):
        f2 = parse_form(spec["f"], len(params), s_names, "form", "submanifold.f")
    h = _twist_of(doc, chart)
    try:
        return SubmanifoldData(chart, params, graph, f2, h)
    except ValueError as e:
        raise JobError(str(e), "submanifold")


@command("brane-check")
def cmd_brane_check(doc, opts):
    chart = _chart_of(doc)
    mat = parse_matrix(doc.get("matrix"), chart.names, "matrix")
    s = validate_gc_field(mat)
    sub = _submanifold_of(doc, chart)
    rep = brane_check(s, sub)
    body = {
        "coisotropic": rep.coisotropic,
        "lagrangian": rep.lagrangian,
        "complex_stable": rep.complex_stable,
        "f_type_11": rep.f_type_11,
        "sigma_basic": rep.sigma_basic,
        "sigma_20": rep.sigma_20,
    }
    if rep.space_filling_j is not None:
        body["space_filling_j"] = matrix_json(rep.space_filling_j)
        body["space_filling_j_squared_ok"] = rep.space_filling_j_squared_ok
    if rep.compatible:
        return Report("brane-check", "pass", certificate=body)
    return Report(
        "brane-check",
        "fail",
        counterexample={"pairing_failures": [list(f) for f in rep.failures], **body},
    )


@command("axiom-suite")
def cmd_axiom_suite(doc, opts):
    chart = parse_chart(doc["chart"]) if "chart" in doc else None
    cases = opts.cases or parse_int(doc.get("cases", 100), "cases")
    seed = opts.seed if opts.seed is not None else parse_int(doc.get("seed", 0), "seed")
    res = run_axiom_suite(chart, cases=cases, seed=seed)
    if res.passed:
        return Report(
            "axiom-suite",
            "pass",
            certificate={"cases": cases, "identities_checked": sorted(set(res.checked))},
            seed=seed,
        )
    return Report(
        "axiom-suite", "fail", counterexample={"failures": res.failures[:5]}, seed=seed
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gcgeo",
        description="Exact checks for the linear and differential algebra of T+T*.",
    )
    p.add_argument("--version", action="version", version=f"gcgeo {__version__}")
    sub = p.add_subparsers(dest="command")
    for name in sorted(COMMANDS):
        sp = sub.add_parser(name, help=f"run the {name} check on a JSON job file")
        sp.add_argument("job", help="path to the JSON job document")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--cases", type=int, default=None)
        sp.add_argument("--degree-bound", type=int, default=None, dest="degree_bound")
        sp.add_argument("--samples", type=str, default=None, help="JSON array of points")
        sp.add_argument("--format", choices=("json", "text"), default="json")
    return p


def run_job(command_name: str, doc: dict, opts) -> Report:
    samples = None
    if opts.samples:
        import json as _json

        try:
            samples = _json.loads(opts.samples)
        except ValueError as e:
            raise JobError(f"--samples is not valid JSON: {e}")
    job = JobSpec(
        command=command_name,
        document=doc,
        seed=opts.seed,
        cases=opts.cases,
        degree_bound=opts.degree_bound,
        samples=samples,
    )
    if job.samples is not None:
        doc = {**doc, "samples": job.samples}
    return COMMANDS[command_name](doc, opts)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return 2
    t0 = time.perf_counter()
    try:
        doc = load_document(args.job)
        report = run_job(args.command, doc, args)
    except ValueError as e:
        # JobError, CapacityError, NotPure, NotIsotropic and InvalidStructure
        # are all ValueErrors: every undecided outcome exits 2
        report = Report(args.command, "error", counterexample={"error": str(e)})
    report.timing_ms = (time.perf_counter() - t0) * 1000.0
    if report.seed is None and getattr(args, "seed", None) is not None:
        report.seed = args.seed
    print(emit(report, args.format))
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
