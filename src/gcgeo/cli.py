"""File-driven command line: parse a JSON job, dispatch, emit a certificate.

Exit codes: 0 = pass, 1 = mathematical fail, 2 = every outcome that is not a
decided verdict (malformed documents, invalid structures or isotropics,
capacity limits, exhausted degree bounds, a stdout that the reader closed
before the output was written, and command lines outside the grammar of
`parse_args`, which print a usage line to stderr).

Every command is one row of `COMMANDS`, a handler that reads only the job
document.  Two rules hold for all of them:

* A flag overrides the document field of the same name: `--seed`, `--cases`,
  `--degree-bound` (field `degree_bound`) and `--samples` are merged into the
  document once, before the handler runs, over the command's declared
  `defaults`.  The report records the seed so resolved.  Only a command
  declared with `samples=True` reads `samples`, points in `parse_point`'s
  list form; any other exits 2 when the merged document has them.
* A command's decided failure is the one exception it declares,
  `@command(name, decided="module.Exception")`.  `run_job` turns that
  exception into a `"fail"` report with a `violation`; every other
  `ValueError` reaches the exit-2 boundary in `main`.

A handler imports the layers it runs inside its body, so a process that runs
one command loads only `jobio`'s parsing layers and that command's own: the
declared failure is a name, resolved when its command runs.  For the same
reason `parse_args` reads the fixed grammar itself: `argparse`, with the
`gettext` and `locale` it loads, took a `mukai` child more import time than
all of its gcgeo modules.
"""

from __future__ import annotations

import json
import os
import sys
import time

from . import __version__
from .jobio import (
    JobError,
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

COMMANDS = {}  # name -> cmd_* handler: doc -> (verdict, certificate or counterexample)
DECIDED = {}  # name -> "module.Exception", the command's mathematical fail
DEFAULTS = {}  # name -> document fields used when neither flag nor document sets them
READS_SAMPLES = set()  # names of the commands that read the field `samples`


def command(name, decided=None, defaults=None, samples=False):
    def deco(fn):
        COMMANDS[name] = fn
        DECIDED[name] = decided
        DEFAULTS[name] = defaults or {}
        if samples:
            READS_SAMPLES.add(name)
        return fn

    return deco


def decided_failure(name: str):
    """The exception class command `name` declares as its mathematical fail, or ()."""
    if not DECIDED[name]:
        return ()
    module, _, exc = DECIDED[name].rpartition(".")
    # the package resolves a submodule that is not yet imported (PEP 562)
    return getattr(getattr(sys.modules[__package__], module), exc)


# ---------------------------------------------------------------------------
# document readers
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _int_of(doc, key: str, default=_REQUIRED, minimum=None, maximum=None):
    """doc[key] as an int; `default` when it is absent, unless it is required."""
    if key not in doc:
        if default is _REQUIRED:
            raise JobError(f"document needs {key}", key)
        return default
    return parse_int(doc[key], key, minimum, maximum)


def _dim_of(doc) -> int:
    from .forms import MAX_DIM
    return _int_of(doc, "dim", minimum=1, maximum=MAX_DIM)


def _chart_of(doc):
    if "chart" not in doc:
        raise JobError("document needs a chart", "chart")
    return parse_chart(doc["chart"])


def _complex_chart_of(doc, name: str):
    chart = _chart_of(doc)
    if 2 * chart.n_complex != chart.dim:
        raise JobError(f"{name} runs on a fully complex-paired chart", "chart")
    return chart


def _twist_of(doc, chart):
    """The closed twist doc["h"] as a ClosedThreeForm, or None."""
    from .fields import ClosedThreeForm
    if not doc.get("h"):
        return None
    h = parse_form(doc["h"], chart.dim, chart.names, "form", "h")
    try:
        return ClosedThreeForm(chart, h)
    except ValueError as e:
        raise JobError(str(e), "h")


def _samples_of(doc, chart):
    if "samples" not in doc:
        return None
    if not isinstance(doc["samples"], list):
        raise JobError("samples must be a list of points", "samples")
    return [parse_point(p, chart, f"samples[{i}]") for i, p in enumerate(doc["samples"])]


def _isotropic_of(doc, key="vectors"):
    """canonical_form of the sections doc[key] in dimension doc["dim"]."""
    from .isotropics import canonical_form
    dim = _dim_of(doc)
    if not isinstance(doc.get(key), list):
        raise JobError(f"document needs {key}: a list of sections", key)
    vectors = [parse_section(v, dim, (), f"{key}[{i}]") for i, v in enumerate(doc[key])]
    return canonical_form(vectors, dim)


def _structure_of(doc, names=()):
    from .gcs import validate_gc
    mat = parse_matrix(doc.get("matrix"), names, "matrix")
    side = len(mat)
    if side % 2 or any(len(row) != side for row in mat):
        raise JobError("J must be a square matrix of even side", "matrix")
    if "dim" in doc and 2 * _dim_of(doc) != side:
        raise JobError(f"dim does not match the {side} x {side} matrix", "dim")
    return validate_gc(mat)


def _frame_of(doc, chart, key="dirac_frame"):
    from .fields import DiracFrame
    frame_doc = doc.get(key, [])
    if not isinstance(frame_doc, list):
        raise JobError(f"{key} must be a list of sections", key)
    secs = [
        parse_section(v, chart.dim, chart.names, f"{key}[{i}]")
        for i, v in enumerate(frame_doc)
    ]
    try:
        return DiracFrame(chart, tuple(secs))
    except ValueError as e:
        raise JobError(str(e), key)


def _pair_terms(doc, key: str, index_key: str, chart, bound: int):
    """The terms {coeff, index_key: [i, j]} of doc[key] as ((i, j), coeff), 0-based.

    Each index is given 1-based and must lie in 1..bound; the two must differ.
    """
    terms = doc.get(key)
    if not isinstance(terms, list):
        raise JobError(f"{key} must be a list of {{coeff, {index_key}: [i, j]}} terms", key)
    out = []
    for idx, term in enumerate(terms):
        ij = term.get(index_key) if isinstance(term, dict) else None
        if not isinstance(ij, list) or len(ij) != 2:
            raise JobError(f"{key} terms need {index_key} [i, j]", f"{key}[{idx}]")
        i, j = (parse_int(x, f"{key}[{idx}].{index_key}", 1, bound) - 1 for x in ij)
        if i == j:
            raise JobError(f"{key} indices must differ", f"{key}[{idx}]")
        out.append(((i, j), parse_scalar(term.get("coeff"), chart.names, f"{key}[{idx}].coeff")))
    return out


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

@command("check-isotropic", decided="isotropics.NotIsotropic")
def cmd_check_isotropic(doc):
    iso = _isotropic_of(doc)
    return "pass", {"type": iso.type, "parity": iso.parity}


@command("canonical-form", decided="isotropics.NotIsotropic")
def cmd_canonical_form(doc):
    return "pass", _canonical_cert(_isotropic_of(doc))


@command("spinor-of", decided="isotropics.NotIsotropic")
def cmd_spinor_of(doc):
    from .isotropics import pure_spinor_line
    return "pass", {"spinor": form_json(pure_spinor_line(_isotropic_of(doc)))}


@command("null-space")
def cmd_null_space(doc):
    from .isotropics import null_space
    dim = _dim_of(doc)
    phi = parse_form(doc.get("form"), dim, (), "form", "form")
    if not phi:
        raise JobError("the zero form has no null space", "form")
    vecs, pure = null_space(phi)
    return "pass", {"pure": pure, "basis": [section_json(v) for v in vecs]}


@command("mukai")
def cmd_mukai(doc):
    from .forms import mukai_coeff
    dim = _dim_of(doc)
    a = parse_form(doc.get("form_a"), dim, (), "form", "form_a")
    b = parse_form(doc.get("form_b"), dim, (), "form", "form_b")
    return "pass", {"pairing": scalar_str(mukai_coeff(a, b))}


def _transform_of(doc, dim: int):
    from .clifford import BlockTransform
    spec = doc.get("transform")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise JobError("transform needs {kind, form|matrix}", "transform")
    kind = spec["kind"]
    if kind in ("B", "beta"):
        variance = "form" if kind == "B" else "mv"
        f = parse_form(spec.get("form"), dim, (), variance, "transform.form")
        if f.degrees() not in ([], [2]):
            raise JobError(f"a {kind} transform needs a 2-homogeneous form", "transform.form")
        return (
            BlockTransform.from_two_form(f)
            if kind == "B"
            else BlockTransform.from_bivector(f)
        )
    if kind == "gl":
        g = parse_matrix(spec.get("matrix"), (), "transform.matrix")
        if len(g) != dim or any(len(row) != dim for row in g):
            raise JobError(f"gl matrix must be {dim} x {dim}", "transform.matrix")
        try:
            return BlockTransform(dim, "gl", g)
        except ValueError as e:
            raise JobError(str(e), "transform.matrix")
    raise JobError(f"unknown transform kind {kind!r}", "transform.kind")


@command("transform", decided="isotropics.NotIsotropic")
def cmd_transform(doc):
    from .isotropics import transform
    iso = _isotropic_of(doc)
    return "pass", _canonical_cert(transform(iso, _transform_of(doc, iso.dim)))


@command("tensor")
def cmd_tensor(doc):
    from .isotropics import tensor_product
    out = tensor_product(_isotropic_of(doc, "vectors_a"), _isotropic_of(doc, "vectors_b"))
    return "pass", _canonical_cert(out)


# ---------------------------------------------------------------------------
# structure commands
# ---------------------------------------------------------------------------

@command("validate-gcs", decided="gcs.InvalidStructure")
def cmd_validate_gcs(doc):
    from .gcs import gc_type
    names = parse_chart(doc["chart"]).names if "chart" in doc else ()
    s = _structure_of(doc, names)
    cert = {"dim": s.dim}
    if s.is_constant() and not names:
        cert["type"] = gc_type(s)
    return "pass", cert


@command("type-map", samples=True)
def cmd_type_map(doc):
    from .forms import mukai_coeff
    from .gcs import gc_type
    from .isotropics import null_space
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
                return "fail", {"point": point_json(chart, p), "violation": "spinor vanishes"}
            vecs, pure = null_space(phi_p)
            if not pure or not mukai_coeff(phi_p, phi_p.conj()):
                return "fail", {
                    "point": point_json(chart, p),
                    "violation": "not a nondegenerate pure spinor",
                }
            out.append({"point": point_json(chart, p), "type": phi_p.min_degree()})
    elif "matrix" in doc:
        s = _structure_of(doc, chart.names)
        for p in samples:
            out.append({"point": point_json(chart, p), "type": gc_type(s.eval_at(p))})
    else:
        raise JobError("type-map needs a form or a matrix", "form")
    return "pass", {"types": out}


@command("darboux", decided="gcs.InvalidStructure")
def cmd_darboux(doc):
    from .gcs import darboux_point
    data = darboux_point(_structure_of(doc))
    return "pass", {
        "type": data.k,
        "btilde": form_json(data.btilde),
        "omega0": form_json(data.omega0),
        "delta_frame": [[scalar_str(c) for c in row] for row in data.delta_frame],
        "transverse_complement": list(data.n_complement),
    }


@command("grading")
def cmd_grading(doc):
    from .gcs import grading_project
    s = _structure_of(doc)
    phi = parse_form(doc.get("form"), s.dim, (), "form", "form")
    return "pass", {"component": form_json(grading_project(s, phi, _int_of(doc, "k")))}


@command("poisson-of")
def cmd_poisson_of(doc):
    from .gcs import poisson_of
    pmap, pmv = poisson_of(_structure_of(doc))
    return "pass", {"map": matrix_json(pmap), "bivector": form_json(pmv)}


# ---------------------------------------------------------------------------
# field commands
# ---------------------------------------------------------------------------

@command("check-integrable", samples=True)
def cmd_check_integrable(doc):
    from .integrability import check_spinor_integrability
    chart = _chart_of(doc)
    phi = parse_form(doc.get("form"), chart.dim, chart.names, "form", "form")
    h = _twist_of(doc, chart)
    witness = None
    if doc.get("witness"):
        witness = parse_section(doc["witness"], chart.dim, chart.names, "witness")
    rep = check_spinor_integrability(
        chart, phi, h, witness=witness,
        degree_bound=_int_of(doc, "degree_bound", None, minimum=0),
        samples=_samples_of(doc, chart),
    )
    if rep.verdict == "pass":
        return "pass", {
            "witness": section_json(rep.witness),
            "degree_bound": rep.degree_bound,
            "detail": rep.detail,
        }
    # an exhausted degree bound with no pointwise obstruction is undecided
    verdict = "fail" if rep.verdict == "fail" else "error"
    return verdict, rep.counterexample or {"detail": rep.detail}


@command("nijenhuis")
def cmd_nijenhuis(doc):
    from .integrability import nijenhuis_field, nijenhuis_vanishes
    chart = _chart_of(doc)
    comps = nijenhuis_field(chart, _structure_of(doc, chart.names), _twist_of(doc, chart))
    if nijenhuis_vanishes(comps):
        return "pass", {"zero": True}
    bad = next(k for k, v in comps.items() if not v.is_zero())
    return "fail", {"frame_pair": list(bad), "component": section_json(comps[bad])}


@command("schouten")
def cmd_schouten(doc):
    from .fields import schouten
    chart = _chart_of(doc)
    a = parse_form(doc.get("mv_a"), chart.dim, chart.names, "mv", "mv_a")
    b = parse_form(doc.get("mv_b"), chart.dim, chart.names, "mv", "mv_b")
    return "pass", {"bracket": form_json(schouten(chart, a, b))}


@command("maurer-cartan")
def cmd_maurer_cartan(doc):
    from .algebroid import complex_pair, maurer_cartan
    from .forms import MixedForm
    chart = _complex_chart_of(doc, "maurer-cartan")
    pair = complex_pair(chart, _twist_of(doc, chart))
    eps = MixedForm.zero(chart.dim)
    for ij, c in _pair_terms(doc, "eps", "basis", chart, chart.dim):
        eps = eps + MixedForm.blade(chart.dim, ij, c)
    rep = maurer_cartan(pair, eps.terms)
    if rep.verdict == "pass":
        return "pass", {"residual": "0"}
    bad = sorted(rep.residual)[0]
    return "fail", {"frame_mask": bad, "residual": scalar_str(rep.residual[bad])}


@command("deform", samples=True)
def cmd_deform(doc):
    from .gcs import j_complex, standard_complex_endo
    from .integrability import deform_by_bivector, holomorphic_bivector
    chart = _complex_chart_of(doc, "deform")
    beta = _pair_terms(doc, "beta", "pair", chart, chart.n_complex)
    beta_mv = holomorphic_bivector(chart, dict(beta))
    base = j_complex(standard_complex_endo(chart.n_complex))
    res = deform_by_bivector(chart, base, beta_mv)
    cert = {
        "matrix": matrix_json(res.structure.matrix()),
        "spinor": form_json(res.spinor),
    }
    samples = _samples_of(doc, chart)
    if samples:
        cert["types"] = [
            {"point": point_json(chart, p), "type": res.spinor.eval_at(p).min_degree()}
            for p in samples
        ]
    return "pass", cert


@command("modular", decided="integrability.NotPoisson")
def cmd_modular(doc):
    from .forms import MixedForm
    from .integrability import modular_vector_field
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
    x = modular_vector_field(
        chart, beta, vol, log_factor=f,
        degree_bound=_int_of(doc, "degree_bound", None, minimum=0),
    )
    return "pass", {"vector_field": section_json(x)}


@command("ham-symmetry")
def cmd_ham_symmetry(doc):
    from .fields import DiracFrame
    from .gcs import eigenbundle
    from .integrability import hamiltonian_section, is_symmetry
    chart = _chart_of(doc)
    s = _structure_of(doc, chart.names)
    f_re = parse_scalar(doc.get("f_re", "0"), chart.names, "f_re")
    f_im = parse_scalar(doc.get("f_im", "0"), chart.names, "f_im")
    df = hamiltonian_section(chart, s, f_re, f_im)
    if "l_frame" in doc:
        frame = _frame_of(doc, chart, "l_frame")
    else:
        if not s.is_constant():
            raise JobError("non-constant structures need an explicit l_frame", "l_frame")
        lft = eigenbundle(s.eval_at(chart.point(*([0] * chart.dim))))
        frame = DiracFrame(chart, lft.basis)
    ok = is_symmetry(chart, df, frame, _twist_of(doc, chart))
    return "pass", {"section": section_json(df), "symmetry": ok}


@command("pullback", decided="branes.NotSmooth", defaults={"degree_bound": 2}, samples=True)
def cmd_pullback(doc):
    from .branes import pullback_dirac
    chart = _chart_of(doc)
    sub = _submanifold_of(doc, chart)
    res = pullback_dirac(
        _frame_of(doc, chart), sub, samples=_s_samples_of(doc, sub),
        degree_bound=_int_of(doc, "degree_bound", minimum=0),
    )
    return "pass", {
        "frame": [section_json(u) for u in res.frame.sections],
        "involutive": not res.involutivity,
    }


def _s_samples_of(doc, sub):
    """The default points of S plus the points doc["samples"] of S's parameter chart."""
    from .branes import default_samples
    s_chart = sub.chart_s()
    return default_samples(s_chart) + (_samples_of(doc, s_chart) or [])


def _submanifold_of(doc, chart):
    from .branes import SubmanifoldData
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


@command("brane-check", samples=True)
def cmd_brane_check(doc):
    from .branes import brane_check
    chart = _chart_of(doc)
    sub = _submanifold_of(doc, chart)
    rep = brane_check(_structure_of(doc, chart.names), sub, _s_samples_of(doc, sub))
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
        return "pass", body
    return "fail", {"pairing_failures": [list(f) for f in rep.failures], **body}


@command("axiom-suite", defaults={"cases": 100, "seed": 0})
def cmd_axiom_suite(doc):
    from .suites import run_axiom_suite
    chart = parse_chart(doc["chart"]) if "chart" in doc else None
    cases = _int_of(doc, "cases", minimum=1)
    res = run_axiom_suite(chart, cases=cases, seed=_int_of(doc, "seed"))
    if res.passed:
        return "pass", {"cases": cases, "identities_checked": sorted(set(res.checked))}
    return "fail", {"failures": res.failures[:5]}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

USAGE = ("usage: gcgeo [-h] [--version] <command> <job.json> [--seed N] [--cases N]"
         " [--degree-bound N] [--samples JSON] [--format json|text]")
OPTIONS = {"--seed": "seed", "--cases": "cases", "--degree-bound": "degree_bound",
           "--samples": "samples", "--format": "format"}  # flag -> field it sets


class UsageError(Exception):
    """A command line outside the grammar `parse_args` reads: exit 2 with the usage line."""


def parse_args(argv) -> dict:
    """Read `gcgeo <command> <job.json>` and its flags.

    A flag is `--flag value` or `--flag=value`, anywhere on the line, and is
    never abbreviated; given twice, its last value holds.  Returns
    {"command", "job", "format", "flags"}, where `flags` maps the document
    field of each flag given, `--format` apart, to its value; or
    {"show": text} for `-h`/`--help` and `--version`.  Every other line
    raises UsageError.
    """
    fmt, flags, positional = "json", {}, []
    tokens = iter(argv)
    for tok in tokens:
        if tok in ("-h", "--help"):
            commands = "\n".join(f"  {name}" for name in sorted(COMMANDS))
            return {"show": f"{USAGE}\n\nExact checks for the linear and differential algebra"
                            f" of T+T*.\n\ncommands:\n{commands}"}
        if tok == "--version":
            return {"show": f"gcgeo {__version__}"}
        if tok == "-" or not tok.startswith("-"):
            positional.append(tok)
            continue
        flag, eq, value = tok.partition("=")
        if flag not in OPTIONS:
            raise UsageError(f"unrecognized argument {tok!r}")
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"argument {flag}: expected one value")
        field = OPTIONS[flag]
        if field == "format":
            if value not in ("json", "text"):
                raise UsageError(f"argument --format: invalid choice {value!r} (json or text)")
            fmt = value
        elif field == "samples":
            flags[field] = value
        else:
            try:
                flags[field] = int(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid int value {value!r}") from None
    if not positional:
        raise UsageError("missing command and job path")
    name, *paths = positional
    if name not in COMMANDS:
        raise UsageError(f"invalid command {name!r}")
    if not paths:
        raise UsageError("missing job path")
    if len(paths) > 1:
        raise UsageError(f"unexpected argument {paths[1]!r}")
    return {"command": name, "job": paths[0], "format": fmt, "flags": flags}


def run_job(command_name: str, doc: dict, flags: dict) -> Report:
    """Resolve the flags given into the document, run the handler, decide its failure."""
    declared = doc.get("command")
    if declared is not None and declared != command_name:
        raise JobError(f"document is for {declared!r}, invoked as {command_name!r}", "command")
    if "samples" in flags:
        try:
            flags = {**flags, "samples": json.loads(flags["samples"])}
        except ValueError as e:
            raise JobError(f"--samples is not valid JSON: {e}")
        except RecursionError:
            raise JobError("--samples is nested too deeply") from None
    doc = {**DEFAULTS[command_name], **doc, **flags}
    if "samples" in doc and command_name not in READS_SAMPLES:
        raise JobError(f"{command_name} does not read samples", "samples")
    seed = _int_of(doc, "seed", None)
    decided = decided_failure(command_name)
    try:
        verdict, body = COMMANDS[command_name](doc)
    except decided as e:
        verdict, body = "fail", {"violation": str(e)}
    key = "certificate" if verdict == "pass" else "counterexample"
    return Report(command_name, verdict, seed=seed, **{key: body})


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        print(f"{USAGE}\ngcgeo: error: {e}", file=sys.stderr)
        return 2
    if "show" in args:
        return _write(args["show"], 0)
    flags = args["flags"]
    t0 = time.perf_counter()
    try:
        doc = load_document(args["job"])
        report = run_job(args["command"], doc, flags)
    except ValueError as e:
        # JobError, CapacityError, NotPure and every undeclared NotIsotropic,
        # InvalidStructure or NotSmooth are ValueErrors: undecided, exit 2
        report = Report(args["command"], "error", counterexample={"error": str(e)},
                        seed=flags.get("seed"))
    report.timing_ms = (time.perf_counter() - t0) * 1000.0
    return _write(emit(report, args["format"]), report.exit_code())


def _write(text: str, code: int) -> int:
    """Print text to stdout and return code, or 2 when the reader has closed it.

    The output is lost, so no verdict stands.  stdout then points at devnull,
    so the flush at shutdown does not fail on the closed pipe again.
    """
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
