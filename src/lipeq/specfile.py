"""Reading and writing system descriptions and exact values.

Exact values serialize as small expressions over rationals and declared
base names, e.g. ``"1/5"``, ``"1/16*e^2"``, ``"3/4-1/4*e"``.  Ratios must
be single positive monomials; translations may be sums.  Serialization is
canonical so documents and digests are reproducible.
"""

from fractions import Fraction
import hashlib
import json
import re

from .exactnum import DeclaredBase, ExactRatio, SymValue
from .ifs import IfsSpec, SpecError


_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|(\^)|(\*)|(\+)|(-))")


class ParseError(SpecError):
    pass


def _tokenize(s):
    pos = 0
    out = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError("cannot tokenize %r at %d" % (s, pos))
        num, name, caret, star, plus, minus = m.groups()
        if num is not None:
            out.append(("num", num))
        elif name is not None:
            out.append(("name", name))
        elif caret:
            out.append(("^", None))
        elif star:
            out.append(("*", None))
        elif plus:
            out.append(("+", None))
        else:
            out.append(("-", None))
        pos = m.end()
    return out


def _parse_terms(s):
    """List of (Fraction coeff, dict base->exp) product terms."""
    toks = _tokenize(s)
    terms = []
    i = 0
    sign = 1
    n = len(toks)
    if toks and toks[0][0] in ("+", "-"):
        sign = -1 if toks[0][0] == "-" else 1
        i = 1
    while i < n:
        coeff = Fraction(1)
        mono = {}
        got = False
        while True:
            kind, val = toks[i]
            if kind == "num":
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise ParseError("zero denominator in %r" % s)
                i += 1
            elif kind == "name":
                e = 1
                i += 1
                if i < n and toks[i][0] == "^":
                    i += 1
                    expsign = 1
                    if i < n and toks[i][0] == "-":
                        expsign = -1
                        i += 1
                    if i >= n or toks[i][0] != "num":
                        raise ParseError("exponent expected in %r" % s)
                    try:
                        e = expsign * int(toks[i][1])
                    except ValueError:
                        raise ParseError("integer exponent expected in %r"
                                         % s)
                    i += 1
                mono[val] = mono.get(val, 0) + e
            else:
                raise ParseError("factor expected in %r" % s)
            got = True
            if i < n and toks[i][0] == "*":
                i += 1
                continue
            break
        if not got:
            raise ParseError("empty term in %r" % s)
        terms.append((sign * coeff, mono))
        if i < n:
            if toks[i][0] == "+":
                sign = 1
            elif toks[i][0] == "-":
                sign = -1
            else:
                raise ParseError("operator expected in %r" % s)
            i += 1
            if i == n:
                raise ParseError("dangling operator in %r" % s)
    if not terms:
        raise ParseError("empty expression")
    return terms


def parse_ratio(s, bases):
    terms = _parse_terms(s)
    if len(terms) != 1:
        raise ParseError("a ratio must be a single product: %r" % s)
    coeff, mono = terms[0]
    for name in mono:
        if name not in bases:
            raise ParseError("undeclared base %r in %r" % (name, s))
    if coeff <= 0:
        raise ParseError("a ratio must be positive: %r" % s)
    return ExactRatio(coeff, mono)


def parse_value(s, bases):
    """Fraction (purely rational) or SymValue."""
    terms = _parse_terms(s)
    acc = {}
    for coeff, mono in terms:
        for name in mono:
            if name not in bases:
                raise ParseError("undeclared base %r in %r" % (name, s))
        key = tuple(sorted((k, v) for k, v in mono.items() if v != 0))
        acc[key] = acc.get(key, Fraction(0)) + coeff
    acc = {k: v for k, v in acc.items() if v != 0}
    if not acc:
        return Fraction(0)
    if set(acc) == {()}:
        return acc[()]
    return SymValue(acc, bases)


def _format_mono(coeff, mono):
    parts = [str(coeff)]
    for name, e in mono:
        parts.append(name if e == 1 else "%s^%d" % (name, e))
    return "*".join(parts)


def format_ratio(r):
    return _format_mono(r.scalar, r.sym)


def format_value(x):
    if isinstance(x, SymValue):
        if not x.terms:
            return "0"
        bits = []
        for mono in sorted(x.terms, key=lambda m: (len(m), m)):
            c = x.terms[mono]
            piece = _format_mono(abs(c), mono)
            if not bits:
                bits.append(piece if c > 0 else "-" + piece)
            else:
                bits.append(("+" if c > 0 else "-") + piece)
        return "".join(bits)
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# spec documents

SPEC_FORMAT = "lipeq-spec"
SPEC_VERSION = 1


def _string_list(doc, field):
    vals = doc.get(field)
    if not isinstance(vals, list) or \
            not all(isinstance(v, str) for v in vals):
        raise ParseError("%r must be a list of strings" % field)
    return vals


def spec_from_doc(doc):
    if not isinstance(doc, dict):
        raise ParseError("a system description must be a JSON object")
    if doc.get("format") != SPEC_FORMAT:
        raise ParseError("not a system description document")
    if doc.get("version") != SPEC_VERSION:
        raise ParseError("unsupported document version %r"
                         % doc.get("version"))
    known = {"format", "version", "role", "ratios", "translations",
             "bases", "mu_independent"}
    extra = set(doc) - known
    if extra:
        raise ParseError("unknown fields: %s" % ", ".join(sorted(extra)))
    if not isinstance(doc.get("bases", []), list):
        raise ParseError("'bases' must be a list")
    bases = {}
    for b in doc.get("bases", []):
        if not isinstance(b, dict) or not isinstance(b.get("name"), str) \
                or not isinstance(b.get("value"), str):
            raise ParseError("each base needs string 'name' and 'value'")
        digits = b.get("digits")
        if digits is not None and (not isinstance(digits, int)
                                   or isinstance(digits, bool) or digits < 0):
            raise ParseError("base %r: 'digits' must be a nonnegative "
                             "integer" % b["name"])
        try:
            bases[b["name"]] = DeclaredBase(b["name"], b["value"], digits)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError("base %r: %s" % (b["name"], e))
    ratios = [parse_ratio(s, bases) for s in _string_list(doc, "ratios")]
    translations = [parse_value(s, bases)
                    for s in _string_list(doc, "translations")]
    if len(ratios) != len(translations):
        raise ParseError("ratio and translation counts differ")
    return IfsSpec(ratios, translations, role=doc.get("role", "touching"),
                   bases=bases,
                   mu_independent=bool(doc.get("mu_independent", False)))


def spec_to_doc(spec):
    doc = {
        "format": SPEC_FORMAT,
        "version": SPEC_VERSION,
        "role": spec.role,
        "ratios": [format_ratio(r) for r in spec.ratios],
        "translations": [format_value(t) for t in spec.t],
    }
    if spec.bases:
        doc["bases"] = [
            {"name": b.name, "value": b.value_str, "digits": b.digits}
            for b in sorted(spec.bases.values(), key=lambda b: b.name)]
    if spec.mu_independent:
        doc["mu_independent"] = True
    return doc


def canonical_json(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def doc_digest(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def load_spec(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            raise ParseError("system description is not JSON: %s" % e)
    return spec_from_doc(doc)


def save_doc(doc, path):
    data = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    with open(path, "w") as f:
        f.write(data)
