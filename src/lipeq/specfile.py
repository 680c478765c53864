"""Reading and writing system descriptions and exact values.

Exact values serialize as small expressions over rationals and declared
base names, e.g. ``"1/5"``, ``"1/16*e^2"``, ``"3/4-1/4*e"``.  Ratios must
be single positive monomials; translations may be sums.  Serialization is
canonical so documents and digests are reproducible: every document lipeq
writes is ``dump_doc`` text, sorted-key JSON with a one-space indent.
"""

from fractions import Fraction
import hashlib
from itertools import chain
import json
import re

from .exactnum import MAX_DIGITS, DeclaredBase, ExactRatio, SymValue
from .ifs import IfsSpec, SpecError


_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)"
                    r"|(\^)|(\*)|(\+)|(-))")


# the largest |exponent| of a declared base in one product term, and the
# most declared bases of a system; see ``exactnum.MAX_DIGITS``, which
# also bounds the digits of one number literal: a ratio's denominator is
# factored, and a longer one costs seconds there, or a traceback where
# Python limits the digits of an int string
MAX_EXPONENT = 50
MAX_BASES = 8


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
            digits = sum(c.isdigit() for c in num)
            if digits > MAX_DIGITS:
                raise ParseError("a number literal of %d digits at offset %d "
                                 "is over the limit of %d"
                                 % (digits, m.start(1), MAX_DIGITS))
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
        for name, e in mono.items():
            if abs(e) > MAX_EXPONENT:
                raise ParseError("exponent %d of %s in %r is over the limit "
                                 "of %d" % (e, name, s, MAX_EXPONENT))
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
        raise ParseError("unsupported document version %r"
                         % doc.get("version"))
    known = {"format", "version", "role", "ratios", "translations",
             "bases", "mu_independent"}
    extra = set(doc) - known
    if extra:
        raise ParseError("unknown fields: %s" % ", ".join(sorted(extra)))
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
    mu_independent = doc.get("mu_independent", False)
    if mu_independent is not True and mu_independent is not False:
        raise ParseError("'mu_independent' must be true or false, got %r"
                         % (mu_independent,))
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
