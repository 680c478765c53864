"""Reading and writing system descriptions and exact values.

Exact values serialize as small expressions over rationals and declared
base names, e.g. ``"1/5"``, ``"1/16*e^2"``, ``"3/4-1/4*e"``.  Ratios must
be single positive monomials; translations may be sums.  Serialization is
canonical so documents and digests are reproducible: every document lipeq
writes is ``dump_doc`` text, sorted-key JSON with a one-space indent.

An expression is ``[+|-] term ((+|-) term)*``, a term ``factor (*
factor)*``, and a factor a number literal ``a/b``, ``a.b`` or ``a``, or a
base name ``[A-Za-z_][A-Za-z_0-9]*`` with an optional ``^n`` or ``^-n``,
where ``a``, ``b`` and ``n`` are runs of decimal digits.  Whitespace may
come before each factor and operator.  ``_FACTOR`` and ``_OP`` read it.
"""

from fractions import Fraction
import hashlib
from itertools import chain
import json
import re

from .exactnum import MAX_DIGITS, DeclaredBase, ExactRatio, SymValue
from .ifs import IfsSpec, SpecError


_NUMBER = r"(\d+/\d+|\d+\.\d+|\d+)"
_FACTOR = re.compile(r"\s*(?:%s|([A-Za-z_][A-Za-z_0-9]*)"
                     r"(?:\s*\^\s*(-?)\s*(\d+))?)" % _NUMBER)
_OP = re.compile(r"\s*([-+*])|\Z")

# A number literal, an exponent too, has at most MAX_DIGITS digits, the
# separator not counted (a longer denominator is slow to factor, and
# Python 3.11 refuses int strings past 4300 digits), and so has each side
# of a base's value.  A coefficient stays below _COEFF_LIMIT, a term's
# exponents within MAX_EXPONENT, and a system has at most MAX_BASES bases.
MAX_EXPONENT = 50
MAX_BASES = 8
_COEFF_LIMIT = 10 ** MAX_DIGITS


class ParseError(SpecError):
    pass


def _cut(text, width=60):
    """``text`` for an error line: at most ``width`` characters, "..."."""
    return text if len(text) <= width else text[:width] + "..."


def _parse_terms(s, bases):
    """The (Fraction, {base: exponent}) terms of s, every base declared."""
    def refused(what):
        return ParseError("%s in %s" % (what, _cut(ascii(s))))

    terms, pos, op = [], 0, "+"
    m = _OP.match(s)
    if m and m.group(1) in ("+", "-"):
        pos, op = m.end(), m.group(1)
    while op:
        # op is the operator before this factor, None at the end
        if op != "*":
            sign, coeff, mono = (-1 if op == "-" else 1), Fraction(1), {}
        m = _FACTOR.match(s, pos)
        if m is None:
            raise refused("factor expected at offset %d" % pos)
        num, name, minus, exp = m.groups()
        lit = num or exp or ""
        digits = sum(map(str.isdigit, lit))
        if digits > MAX_DIGITS:
            raise ParseError("a number literal of %d digits at offset %d "
                             "is over the limit of %d"
                             % (digits, m.end() - len(lit), MAX_DIGITS))
        if num is not None:
            try:
                coeff *= Fraction(num)
            except ZeroDivisionError:
                raise refused("zero denominator")
            if max(coeff.numerator, coeff.denominator) >= _COEFF_LIMIT:
                raise refused("a coefficient over the limit of %d digits "
                              "at offset %d" % (MAX_DIGITS, m.end()))
        else:
            if name not in bases:
                raise refused("undeclared base %s" % _cut(name))
            e = 1 if exp is None else int(exp)
            mono[name] = mono.get(name, 0) + (-e if minus else e)
        pos = m.end()
        m = _OP.match(s, pos)
        if m is None:
            raise refused("operator expected at offset %d" % pos)
        pos, op = m.end(), m.group(1)
        if op == "*":
            continue
        for name, e in mono.items():
            if abs(e) > MAX_EXPONENT:
                raise refused("exponent %d of %s is over the limit of %d"
                              % (e, _cut(name), MAX_EXPONENT))
        terms.append((sign * coeff, mono))
    return terms


def parse_ratio(s, bases):
    terms = _parse_terms(s, bases)
    if len(terms) != 1:
        raise ParseError("a ratio must be a single product: %s"
                         % _cut(ascii(s)))
    coeff, mono = terms[0]
    if coeff <= 0:
        raise ParseError("a ratio must be positive: %s" % _cut(ascii(s)))
    return ExactRatio(coeff, mono)


def parse_value(s, bases):
    """Fraction (purely rational) or SymValue."""
    acc = {}
    for coeff, mono in _parse_terms(s, bases):
        key = tuple(sorted((k, v) for k, v in mono.items() if v != 0))
        c = acc[key] = acc.get(key, Fraction(0)) + coeff
        if max(abs(c.numerator), c.denominator) >= _COEFF_LIMIT:
            raise ParseError("a summed coefficient over the limit of %d "
                             "digits in %s" % (MAX_DIGITS, _cut(ascii(s))))
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
    if type(x) is Fraction:
        return str(x)
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
        raise ParseError("unsupported document version %s"
                         % _cut(ascii(doc.get("version"))))
    known = {"format", "version", "role", "ratios", "translations",
             "bases", "mu_independent"}
    extra = set(doc) - known
    if extra:
        raise ParseError("unknown fields: %s"
                         % _cut(", ".join(map(ascii, sorted(extra)))))
    if not isinstance(doc.get("bases", []), list):
        raise ParseError("'bases' must be a list")
    if len(doc.get("bases", [])) > MAX_BASES:
        raise ParseError("%d declared bases, over the limit of %d"
                         % (len(doc["bases"]), MAX_BASES))
    bases = {}
    for b in doc.get("bases", []):
        if not isinstance(b, dict) or not isinstance(b.get("name"), str) \
                or not isinstance(b.get("value"), str):
            raise ParseError("each base needs string 'name' and 'value'")
        name, value, digits = b["name"], b["value"], b.get("digits")
        where = "base %s: " % _cut(ascii(name))
        if digits is not None and (type(digits) is not int or digits < 0):
            raise ParseError(where + "'digits' must be a nonnegative integer")
        if not re.fullmatch(_NUMBER, value):
            raise ParseError(where + "the value %s is not a number literal"
                             % _cut(ascii(value)))
        longest = max(map(len, re.split("[./]", value)))
        if longest > MAX_DIGITS:
            raise ParseError(where + "a value with %d digits on one side is "
                             "over the limit of %d" % (longest, MAX_DIGITS))
        try:
            bases[name] = DeclaredBase(name, value, digits)
        except (ValueError, ZeroDivisionError) as e:
            raise ParseError(where + str(e))
    ratios = [parse_ratio(s, bases) for s in _string_list(doc, "ratios")]
    translations = [parse_value(s, bases)
                    for s in _string_list(doc, "translations")]
    if len(ratios) != len(translations):
        raise ParseError("ratio and translation counts differ")
    mu_independent = doc.get("mu_independent", False)
    if mu_independent is not True and mu_independent is not False:
        raise ParseError("'mu_independent' must be true or false, got %s"
                         % _cut(ascii(mu_independent)))
    return IfsSpec(ratios, translations, role=doc.get("role", "touching"),
                   bases=bases, mu_independent=mu_independent)


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


# ---------------------------------------------------------------------------
# document text

_str_json = json.encoder.encode_basestring_ascii
_int_json = int.__repr__
_INF = float("inf")
_INT = {int}
_SEQS = {list, tuple}


def dump_doc(doc):
    """``json.dumps(doc, indent=1, sort_keys=True)``, byte for byte.

    The standard library writes indented JSON with its pure-Python
    encoder, one generator step per token.  Here each container is one
    ``"".join``, strings go through the C string encoder, and dict
    values that are strs or ints are written inline.  A list of ints, of
    int lists (words) or of lists of int lists (``[strip, add]`` rule
    lists) is written in one pass with ``map(int.__repr__, ...)``, no
    Python call per item.  Such a list is recognised by its first item,
    and the types of all its items are checked at the end in one pass
    per nesting level; a tree that fails the check, say with a bool in
    an int list, is encoded again item by item.  A rule list object that
    appears at several places of ``doc`` at one indent, as
    ``certify.cert_to_doc`` shares them, is encoded at the first and its
    text reused; the memo, keyed by the object's identity, lives for one
    call, so a document edited in place between calls is encoded afresh.
    Tuples are written as lists.  ``doc`` must be a tree whose dict keys
    are strings: a non-string key or a value of any type but dict, list,
    tuple, str, int, float, bool and None raises TypeError.
    """
    text, nests = _encode(doc, True)
    if all(_int_leaves(lists, depth)
           for depth, lists in enumerate(nests, 1)):
        return text
    return _encode(doc, False)[0]


def _int_leaves(lists, depth):
    """Is every item ``depth`` levels below the members of ``lists`` an
    int, and every item above it a list or tuple?"""
    for _ in range(depth - 1):
        lists = list(chain.from_iterable(lists))
        if not set(map(type, lists)) <= _SEQS:
            return False
    return set(map(type, chain.from_iterable(lists))) <= _INT


def _int_lists(x, nl):
    """The int lists of x, each after ``nl``, comma separated."""
    deeper = nl + " "
    head, sep, tail = "[" + deeper, "," + deeper, nl + "]"
    return ("," + nl).join(
        [head + sep.join(map(_int_json, w)) + tail if w else "[]"
         for w in x])


def _encode(doc, fast):
    """(text, nests): the JSON text of doc and, when ``fast``, the lists
    written as int lists, lists of int lists and lists of lists of int
    lists, whose item types the caller still has to check."""
    nests = ([], [], [])
    ints, words, rules = (n.append for n in nests)
    # (id, indent) -> text of the rule lists written so far: a list shared
    # by several places of doc is encoded once per indent, and its items
    # checked once.  doc holds every list while this call runs, so no id
    # is reused.
    written = {}

    def value(x, nl):
        # nl: the line break and indent that x's closing bracket follows
        t = type(x)
        if t is str:
            return _str_json(x)
        if t is int:
            return _int_json(x)
        if t is dict:
            return obj(x, nl)
        if t is list or t is tuple:
            return array(x, nl)
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        if isinstance(x, str):
            return _str_json(x)
        if isinstance(x, int):
            return _int_json(x)
        if isinstance(x, float):
            if x != x:
                return "NaN"
            if x == _INF:
                return "Infinity"
            if x == -_INF:
                return "-Infinity"
            return float.__repr__(x)
        if isinstance(x, (list, tuple)):
            return array(x, nl)
        if isinstance(x, dict):
            return obj(x, nl)
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(x).__name__)

    def array(x, nl):
        if not x:
            return "[]"
        inner = nl + " "
        sep = "," + inner
        if fast:
            # a wrong guess from the first item either raises TypeError
            # here or fails the item check in dump_doc
            first = x[0]
            t = type(first)
            try:
                if t is int:
                    text = sep.join(map(_int_json, x))
                    ints(x)
                    return "[" + inner + text + nl + "]"
                if (t is list or t is tuple) and first:
                    t = type(first[0])
                    if t is int:
                        text = _int_lists(x, inner)
                        words(x)
                        return "[" + inner + text + nl + "]"
                    if t is list or t is tuple:
                        key = (id(x), nl)
                        text = written.get(key)
                        if text is None:
                            deeper = inner + " "
                            text = written[key] = "[" + inner + sep.join(
                                ["[" + deeper + _int_lists(r, deeper)
                                 + inner + "]" if r else "[]" for r in x]
                            ) + nl + "]"
                            rules(x)
                        return text
            except TypeError:
                pass
        return "[" + inner + sep.join(
            [_str_json(v) if type(v) is str else
             _int_json(v) if type(v) is int else
             value(v, inner) for v in x]) + nl + "]"

    def obj(d, nl):
        if not d:
            return "{}"
        inner = nl + " "
        # the C string encoder raises TypeError on a key that is not a str
        return "{" + inner + ("," + inner).join(
            [_str_json(k) + ": " + (_str_json(v) if type(v) is str else
                                    _int_json(v) if type(v) is int else
                                    array(v, inner) if type(v) is list else
                                    value(v, inner))
             for k, v in sorted(d.items())]) + nl + "}"

    return value(doc, "\n"), nests


def load_json(path, error, what):
    """The JSON document in the file at ``path``.  Text that is not JSON,
    or that nests deeper than the reader's recursion, raises ``error``
    (a SpecError class) with one line that names ``what`` was read."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:
            raise error("%s is not JSON: %s" % (what, e))
        except RecursionError:
            raise error("%s nests too deeply to read" % what)


def load_spec(path):
    return spec_from_doc(load_json(path, ParseError, "system description"))


def save_doc(doc, path):
    """Write ``dump_doc(doc)`` and a final newline to ``path``."""
    data = dump_doc(doc) + "\n"
    with open(path, "w") as f:
        f.write(data)
