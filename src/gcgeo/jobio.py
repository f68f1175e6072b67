"""JSON job documents: the scalar grammar, object parsing, and reports.

Scalars are strings in a small exact grammar: rationals "3/2", gaussian
rationals "1/2+1/3i", polynomials "x1^2*z - 2/5".  Forms are arrays of
{"coeff": str, "basis": [1-based indices]}; matrices are row-major arrays of
scalar strings.  A number of more than SCALAR_LIMIT digits is refused, and
so, before it is computed, is a product or power that could pass SCALAR_LIMIT
terms or coefficient bits; one whose exponent passes `scalars.MAX_EXPONENT`
is refused when the arithmetic raises ExponentOverflow.  Reports serialize
deterministically (sorted keys); the timing field is the only
non-reproducible entry.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb

from . import __version__
from .record import Record
from .scalars import (
    MAX_EXPONENT, ExponentOverflow, GaussRat, Poly, gauss_str, poly_lane, poly_str,
)
from .forms import MAX_DIM, MixedForm
from .clifford import GenVector
from .charts import Chart


class JobError(ValueError):
    """Malformed input document; maps to exit code 2."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


# most digits of a number, and most terms and coefficient height (see _height)
# of a product or power, in a parsed scalar
SCALAR_LIMIT = 4096

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()]))"
)


def _tokenize(s: str, location: str):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise JobError(f"cannot read scalar {s!r} at offset {pos}", location)
        pos = m.end()
        if m.group("num"):
            if len(m.group("num")) > SCALAR_LIMIT:
                raise JobError(
                    f"scalar too large: a number has more than {SCALAR_LIMIT} digits", location
                )
            try:
                out.append(("num", Fraction(m.group("num"))))
            except ZeroDivisionError:
                raise JobError(f"zero denominator in scalar {s!r}", location) from None
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
    return out


def _height(p: Poly) -> int:
    """Bits of the lcm L of p's denominators plus those of L p's largest part.

    No real or imaginary part, numerator or denominator of a coefficient of
    p has more bits than this.
    """
    den, nums = poly_lane(p)
    top = max((max(abs(a), abs(b)) for a, b in nums.values()), default=0)
    return den.bit_length() + top.bit_length()


class _ScalarParser:
    def __init__(self, tokens, names, location):
        self.toks = tokens
        self.pos = 0
        self.names = tuple(names)
        self.location = location

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None)

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def _const(self, g: GaussRat) -> Poly:
        return Poly.const(self.names, g)

    def _bound(self, terms: int, height: int):
        if height > SCALAR_LIMIT or terms > SCALAR_LIMIT:
            raise JobError(
                f"scalar too large: a product or power would pass {SCALAR_LIMIT} "
                f"terms or {SCALAR_LIMIT}-bit coefficients",
                self.location,
            )

    def _mul(self, a: Poly, b: Poly) -> Poly:
        # each entry of the product of L_a a and L_b b sums min(ta, tb)
        # products of gaussian integers
        ta, tb = len(poly_lane(a)[1]), len(poly_lane(b)[1])
        self._bound(ta * tb, _height(a) + _height(b) + min(ta, tb).bit_length() + 1)
        return a * b

    def _pow(self, base: Poly, n: int) -> Poly:
        # each entry of (L base)^n is at most (2 t max|L base|)^n, and base^n
        # has at most one term per multiset of n of base's t terms; the height
        # goes first, as it bounds n and so the cost of comb
        t = len(poly_lane(base)[1])
        self._bound(1, n * (_height(base) + t.bit_length() + 1))
        self._bound(comb(n + t - 1, t - 1) if t else 1, 0)
        return base ** n

    def parse(self) -> Poly:
        try:
            v = self.expr()
        except ExponentOverflow:
            raise JobError(
                f"scalar too large: a product or power passes exponent {MAX_EXPONENT}",
                self.location,
            ) from None
        if self.pos != len(self.toks):
            raise JobError("trailing tokens in scalar", self.location)
        return v

    def expr(self) -> Poly:
        kind, val = self.peek()
        neg = False
        if (kind, val) == ("op", "-"):
            self.take()
            neg = True
        elif (kind, val) == ("op", "+"):
            self.take()
        acc = self.term()
        if neg:
            acc = -acc
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "+"):
                self.take()
                acc = acc + self.term()
            elif (kind, val) == ("op", "-"):
                self.take()
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, val = self.peek()
            if (kind, val) == ("op", "*"):
                self.take()
                acc = self._mul(acc, self.factor())
            elif kind in ("num", "name") or (kind, val) == ("op", "("):
                acc = self._mul(acc, self.factor())  # implicit multiplication
            else:
                return acc

    def factor(self) -> Poly:
        kind, val = self.take()
        if kind == "num":
            base = self._const(GaussRat(val))
        elif kind == "name":
            if val == "i" and "i" not in self.names:
                base = self._const(GaussRat(0, 1))
            elif val in self.names:
                base = Poly.var(self.names, val)
            else:
                raise JobError(f"unknown variable {val!r}", self.location)
        elif (kind, val) == ("op", "("):
            base = self.expr()
            kind, val = self.take()
            if (kind, val) != ("op", ")"):
                raise JobError("missing closing parenthesis", self.location)
        elif (kind, val) == ("op", "-"):
            return -self.factor()
        else:
            raise JobError(f"unexpected token {val!r}", self.location)
        kind, val = self.peek()
        if (kind, val) == ("op", "^"):
            self.take()
            kind, val = self.take()
            if kind != "num" or val.denominator != 1:
                raise JobError("exponent must be a nonnegative integer", self.location)
            base = self._pow(base, int(val))
        return base


def parse_scalar(s, names=(), location="scalar"):
    """Parse the scalar grammar into Poly (with names) or GaussRat (without)."""
    if isinstance(s, int):
        s = str(s)
    if not isinstance(s, str):
        raise JobError(f"scalar must be a string, got {type(s).__name__}", location)
    toks = _tokenize(s, location)
    if not toks:
        raise JobError("empty scalar", location)
    try:
        p = _ScalarParser(toks, names, location).parse()
    except RecursionError:
        raise JobError("scalar is nested too deeply", location) from None
    if not names:
        return p.const_value()
    return p


def parse_int(x, location, minimum=None, maximum=None) -> int:
    """An integer given as a JSON number or a numeric string, within the bounds given.

    A number is read as the schema's "integer" type reads it: 4.0 is 4, while
    4.7, true and the non-finite floats that Python's json accepts are refused.
    """
    if isinstance(x, bool) or isinstance(x, float) and not x.is_integer():
        raise JobError(f"must be an integer, got {x!r}", location)
    try:
        n = int(x)
    except (TypeError, ValueError):
        raise JobError(f"must be an integer, got {x!r}", location) from None
    if minimum is not None and n < minimum:
        raise JobError(f"must be at least {minimum}, got {n}", location)
    if maximum is not None and n > maximum:
        raise JobError(f"must be at most {maximum}, got {n}", location)
    return n


def scalar_str(x) -> str:
    if isinstance(x, Poly):
        return poly_str(x)
    return gauss_str(x)


def parse_chart(doc, location="chart") -> Chart:
    if not isinstance(doc, dict):
        raise JobError("chart must be an object", location)
    if "complex_dim" in doc:
        n = parse_int(doc["complex_dim"], f"{location}.complex_dim", 1, MAX_DIM // 2)
        return Chart.complex_plane(n)
    names = doc.get("vars")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise JobError("chart.vars must be a list of names", location)
    pairs_doc = doc.get("complex_pairs", [])
    if not isinstance(pairs_doc, list):
        raise JobError("complex_pairs must be a list of [a, b] pairs", f"{location}.complex_pairs")
    pairs = []
    for i, ab in enumerate(pairs_doc):
        where = f"{location}.complex_pairs[{i}]"
        if not isinstance(ab, list) or len(ab) != 2:
            raise JobError("a complex pair is [a, b]", where)
        pairs.append(tuple(parse_int(x, where) - 1 for x in ab))
    return Chart(tuple(names), tuple(pairs))


def parse_form(doc, dim: int, names=(), variance="form", location="form") -> MixedForm:
    if not isinstance(doc, list):
        raise JobError("a form is an array of {coeff, basis} terms", location)
    acc = MixedForm.zero(dim, variance)
    for idx, term in enumerate(doc):
        where = f"{location}[{idx}]"
        if not isinstance(term, dict) or "coeff" not in term or "basis" not in term:
            raise JobError("term needs coeff and basis", where)
        basis = term["basis"]
        if not isinstance(basis, list):
            raise JobError("basis must be a list of 1-based indices", where)
        coeff = parse_scalar(term["coeff"], names, where + ".coeff")
        indices = [parse_int(i, where + ".basis") - 1 for i in basis]
        try:
            acc = acc + MixedForm.blade(dim, indices, coeff, variance)
        except (TypeError, ValueError) as e:
            raise JobError(str(e), where + ".basis") from None
    return acc


def form_json(phi: MixedForm) -> list:
    out = []
    for mask in sorted(phi.terms, key=lambda x: (x.bit_count(), x)):
        out.append(
            {
                "coeff": scalar_str(phi.terms[mask]),
                "basis": [i + 1 for i in range(phi.dim) if mask & (1 << i)],
            }
        )
    return out


def parse_matrix(doc, names=(), location="matrix"):
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise JobError("matrix must be a non-empty row-major array", location)
    return [
        [parse_scalar(x, names, f"{location}[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(doc)
    ]


def matrix_json(mat) -> list:
    return [[scalar_str(x) for x in row] for row in mat]


def parse_section(doc, dim: int, names=(), location="section") -> GenVector:
    if not isinstance(doc, dict):
        raise JobError("section must be {vec: [...], covec: [...]}", location)
    vec = doc.get("vec", ["0"] * dim)
    covec = doc.get("covec", ["0"] * dim)
    if not isinstance(vec, list) or not isinstance(covec, list):
        raise JobError("section vec and covec must be lists of scalars", location)
    if len(vec) != dim or len(covec) != dim:
        raise JobError(f"section components must have length {dim}", location)
    return GenVector(
        dim,
        [parse_scalar(x, names, f"{location}.vec[{i}]") for i, x in enumerate(vec)],
        [parse_scalar(x, names, f"{location}.covec[{i}]") for i, x in enumerate(covec)],
    )


def section_json(v: GenVector) -> dict:
    return {
        "vec": [scalar_str(c) for c in v.vec],
        "covec": [scalar_str(c) for c in v.covec],
    }


def parse_point(doc, chart: Chart, location="point") -> dict:
    if not isinstance(doc, list) or len(doc) != chart.dim:
        raise JobError(f"point must list {chart.dim} coordinates", location)
    return {
        n: parse_scalar(x, (), f"{location}[{i}]")
        for i, (n, x) in enumerate(zip(chart.names, doc))
    }


def point_json(chart: Chart, p: dict) -> list:
    return [gauss_str(p[n]) for n in chart.names]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report(Record):
    command: str
    verdict: str  # pass | fail | error
    certificate: dict | None = None
    counterexample: dict | None = None
    seed: int | None = None
    timing_ms: float = 0.0
    tool_version: str = __version__

    def __post_init__(self):
        if self.verdict in ("pass", "fail"):
            if (self.certificate is None) == (self.counterexample is None):
                raise ValueError(
                    "pass/fail reports carry exactly one of certificate or counterexample"
                )

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1}.get(self.verdict, 2)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "counterexample": self.counterexample,
            "seed": self.seed,
            "timing_ms": round(self.timing_ms, 3),
            "tool_version": self.tool_version,
        }
        return json.dumps(body, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"{self.command}: {self.verdict.upper()}"]
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        if self.certificate is not None:
            lines.append("  certificate:")
            lines.extend(
                f"    {k}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(self.certificate.items())
            )
        if self.counterexample is not None:
            lines.append("  counterexample:")
            lines.extend(
                f"    {k}: {json.dumps(v, sort_keys=True)}"
                for k, v in sorted(self.counterexample.items())
            )
        lines.append(f"  time: {self.timing_ms:.1f} ms  (gcgeo {self.tool_version})")
        return "\n".join(lines)


def emit(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    raise JobError(f"unknown format {fmt!r}")


def load_document(path: str) -> dict:
    try:
        # JSON text is UTF-8 (RFC 8259), whatever the locale's encoding
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise JobError(f"cannot read {path}: {e}")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise JobError(f"malformed JSON at line {e.lineno} column {e.colno}: {e.msg}", path)
    except RecursionError:
        raise JobError("document is nested too deeply", path) from None
    if not isinstance(doc, dict):
        raise JobError("document must be a JSON object", path)
    if doc.get("schema_version") != 1:
        raise JobError(
            f"schema_version must be 1, got {doc.get('schema_version')!r}",
            f"{path}: schema_version",
        )
    return doc
