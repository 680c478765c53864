"""Spec document parsing, formatting, digests."""

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from lipeq import IfsSpec, SpecError
from lipeq import specfile
from lipeq.certify import build_certificate, cert_to_doc
from lipeq.exactnum import ExactRatio, DeclaredBase, MAX_DIGITS, SymValue
from lipeq.specfile import (parse_ratio, parse_value, format_ratio,
                            format_value, spec_to_doc, spec_from_doc,
                            canonical_json, doc_digest, load_spec,
                            save_doc, dump_doc, ParseError, MAX_BASES,
                            MAX_EXPONENT)

from conftest import make_one45, four_map_doc


class TestValueGrammar:
    def test_rational(self):
        assert parse_value("3/7", {}) == Fraction(3, 7)
        assert parse_value("-1/4", {}) == Fraction(-1, 4)
        assert parse_value("0", {}) == Fraction(0)

    def test_decimal(self):
        assert parse_value("0.125", {}) == Fraction(1, 8)

    def test_sum_of_terms(self):
        assert parse_value("1/4 + 1/2", {}) == Fraction(3, 4)
        assert parse_value("1 - 1/8", {}) == Fraction(7, 8)

    def test_symbolic_monomial(self):
        env = {"g": DeclaredBase("g", "0.618033988749894848", digits=17)}
        r = parse_ratio("1/2*g^2", env)
        assert r == ExactRatio(Fraction(1, 2), (("g", 2),))

    def test_format_round_trip(self):
        env = {"g": DeclaredBase("g", "0.618033988749894848", digits=17)}
        for s in ("1/5", "3/4*g", "g^2", "2*g^-1"):
            r = parse_ratio(s, env)
            assert parse_ratio(format_ratio(r), env) == r

    def test_value_format_round_trip(self):
        env = {"g": DeclaredBase("g", "0.618033988749894848", digits=17)}
        v = parse_value("1/4 + 1/2*g - g^2", env)
        assert parse_value(format_value(v), env) == v

    def test_garbage_rejected(self):
        env = {"g": DeclaredBase("g", "0.5"), "e": DeclaredBase("e", "0.3")}
        for bad in ("", " ", "1//2", "g^", "1 +", "frob", "1..5", "1/5*",
                    "g*", "1/5 ", "e^--2", "*1", "--1", "g^1/2", "g^1.5",
                    "2g", "1 2", "g^2^3"):
            with pytest.raises(ParseError):
                parse_value(bad, env)
            with pytest.raises(ParseError):
                parse_ratio(bad, env)

    def test_whitespace_before_tokens(self):
        env = {"g": DeclaredBase("g", "0.5")}
        assert parse_value(" - 1/4 *\tg ^ - 2 +\n3", env) == \
            parse_value("-1/4*g^-2+3", env)


# A copy of the token-list reader that the regular grammar replaced, kept
# as the reference for the differential test: it builds the token list
# first, then walks it by index, and runs past the list's end (an
# IndexError) on a trailing "*".
REF_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+\.\d+|\d+)|([A-Za-z_][A-Za-z_0-9]*)"
                       r"|(\^)|(\*)|(\+)|(-))")


def ref_tokenize(s):
    pos = 0
    out = []
    while pos < len(s):
        m = REF_TOKEN.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError("cannot tokenize")
        num, name, caret, star, plus, minus = m.groups()
        if num is not None:
            if sum(c.isdigit() for c in num) > MAX_DIGITS:
                raise ParseError("over the limit")
            out.append(("num", num))
        elif name is not None:
            out.append(("name", name))
        else:
            out.append((caret or star or plus or minus, None))
        pos = m.end()
    return out


def ref_parse_terms(s):
    toks = ref_tokenize(s)
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
        while True:
            kind, val = toks[i]
            if kind == "num":
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise ParseError("zero denominator")
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
                        raise ParseError("exponent expected")
                    try:
                        e = expsign * int(toks[i][1])
                    except ValueError:
                        raise ParseError("integer exponent expected")
                    i += 1
                mono[val] = mono.get(val, 0) + e
            else:
                raise ParseError("factor expected")
            if i < n and toks[i][0] == "*":
                i += 1
                continue
            break
        for e in mono.values():
            if abs(e) > MAX_EXPONENT:
                raise ParseError("over the limit")
        terms.append((sign * coeff, mono))
        if i < n:
            if toks[i][0] not in ("+", "-"):
                raise ParseError("operator expected")
            sign = -1 if toks[i][0] == "-" else 1
            i += 1
            if i == n:
                raise ParseError("dangling operator")
    if not terms:
        raise ParseError("empty expression")
    return terms


def ref_parse(s, bases, ratio):
    """What the token-list reader made of ``s``: parse_ratio's ExactRatio
    when ``ratio``, else parse_value's Fraction or SymValue."""
    terms = ref_parse_terms(s)
    if any(name not in bases for _, mono in terms for name in mono):
        raise ParseError("undeclared base")
    if ratio:
        if len(terms) != 1 or terms[0][0] <= 0:
            raise ParseError("not a positive product")
        return ExactRatio(*terms[0])
    acc = {}
    for coeff, mono in terms:
        key = tuple(sorted((k, v) for k, v in mono.items() if v != 0))
        acc[key] = acc.get(key, Fraction(0)) + coeff
    acc = {k: v for k, v in acc.items() if v != 0}
    if not acc:
        return Fraction(0)
    if set(acc) == {()}:
        return acc[()]
    return SymValue(acc, bases)


# pieces of expressions: literals of at most 3 digits (so no coefficient
# of 9 pieces nears the coefficient limit), an Arabic-Indic digit, the
# operators and separators, whitespace, two declared bases and one
# undeclared name
EXPR_PIECES = ["0", "1", "2", "7", "10", "305", "\u0663", "/", ".", "^",
               "*", "+", "-", " ", "\t", "g", "h", "x"]
DIFF_ENV = {"g": DeclaredBase("g", "0.5"), "h": DeclaredBase("h", "0.3")}


def outcome(read, *args):
    """(True, value) from ``read(*args)``, or (False, None) on a refusal:
    a ParseError, or the reference's IndexError."""
    try:
        value = read(*args)
    except ParseError:
        return False, None
    except IndexError:
        if read is not ref_parse:
            raise
        return False, None
    return True, (type(value), value)


class TestDifferential:
    """The regular grammar reads every expression as the token-list reader
    did: the same value, or a refusal where it refused or ran off the
    end of its token list."""

    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.sampled_from(EXPR_PIECES), max_size=9).map("".join),
           st.booleans())
    @example("g^50*g^50*g^-50", True)
    @example(" -2 * g ^ - 3\t+ h", False)
    @example("1/5*", True)
    def test_same_as_token_reader(self, s, ratio):
        read = parse_ratio if ratio else parse_value
        assert outcome(read, s, DIFF_ENV) == \
            outcome(ref_parse, s, DIFF_ENV, ratio)

    @pytest.mark.parametrize("s", ["1/5*", "g*", "1/5*g^2*", "1+2*"])
    def test_trailing_star_refused(self, s):
        # the token-list reader raised IndexError here
        with pytest.raises(IndexError):
            ref_parse(s, DIFF_ENV, False)
        with pytest.raises(ParseError, match="factor expected"):
            parse_value(s, DIFF_ENV)

    def test_exponent_limit_holds_at_the_term_end(self):
        # a factor past the limit may be brought back within it
        assert parse_ratio("g^50*g^50*g^-50", DIFF_ENV) == \
            ExactRatio(1, (("g", 50),))


class TestSpecDocs:
    def test_round_trip(self):
        spec = make_one45()
        doc = spec_to_doc(spec)
        spec2 = spec_from_doc(doc)
        assert spec2.ratios == spec.ratios
        assert spec2.t == spec.t
        assert spec_to_doc(spec2) == doc

    def test_digest_stable(self):
        spec = make_one45()
        assert doc_digest(spec_to_doc(spec)) == doc_digest(spec_to_doc(
            make_one45()))

    def test_digest_sensitive(self):
        a = spec_to_doc(make_one45())
        b = dict(a)
        b["translations"] = list(b["translations"])
        b["translations"][1] = "2/5"
        assert doc_digest(a) != doc_digest(b)

    def test_unknown_field_rejected(self):
        doc = spec_to_doc(make_one45())
        doc["surprise"] = 1
        with pytest.raises(SpecError):
            spec_from_doc(doc)

    def test_mu_independent_is_a_boolean(self):
        assert spec_from_doc(four_map_doc()).mu_independent is False
        for flag in (True, False):
            spec = spec_from_doc(four_map_doc(mu_independent=flag))
            assert spec.mu_independent is flag

    @pytest.mark.parametrize("value", ["false", 0, 1, [0], None])
    def test_non_boolean_mu_independent_rejected(self, value):
        # read with bool(), "false" and [0] would assert independence
        with pytest.raises(ParseError, match="mu_independent"):
            spec_from_doc(four_map_doc(mu_independent=value))

    def test_bad_format_rejected(self):
        doc = spec_to_doc(make_one45())
        doc["format"] = "other"
        with pytest.raises(SpecError):
            spec_from_doc(doc)

    def test_file_round_trip(self, tmp_path):
        spec = make_one45()
        path = tmp_path / "spec.json"
        save_doc(spec_to_doc(spec), str(path))
        spec2 = load_spec(str(path))
        assert spec2.t == spec.t
        # serialization is canonical: saving again is byte-identical
        data = path.read_bytes()
        save_doc(spec_to_doc(spec2), str(path))
        assert path.read_bytes() == data

    def test_canonical_json_is_stable(self):
        doc = spec_to_doc(make_one45())
        assert canonical_json(doc) == canonical_json(
            json.loads(canonical_json(doc)))

    def test_symbolic_spec_round_trip(self):
        g = DeclaredBase("g", "0.20710678118654752440", digits=18)
        rho = [ExactRatio(1, (("g", 1),))] * 3
        gval = rho[0].value({"g": g})
        t = [Fraction(0), gval, 1 - gval]
        spec = IfsSpec(rho, t, role="touching", bases={"g": g})
        doc = spec_to_doc(spec)
        spec2 = spec_from_doc(doc)
        assert spec2.ratios == spec.ratios
        assert spec_to_doc(spec2) == doc


def stdlib_text(doc):
    return json.dumps(doc, indent=1, sort_keys=True)


# every kind of value the documents can hold, and the shapes the encoder
# writes in one pass (int lists, lists of int lists, lists of lists of int
# lists), with bools, floats and strings mixed into them
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text(st.characters(blacklist_categories=()), max_size=8)
           | st.sampled_from(["", "\"", "\\", "\n\t\x00\x1f", "é€😀",
                              "\ud800", "</>"]))
INT_LISTS = st.lists(st.lists(st.integers(), max_size=4), max_size=4)
NEARLY_INTS = st.lists(st.integers() | st.booleans(), max_size=4)
JSON_TREES = st.recursive(
    SCALARS | INT_LISTS | st.lists(INT_LISTS, max_size=3),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.lists(NEARLY_INTS | st.lists(NEARLY_INTS, max_size=3)
                              | inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=4)),
    max_leaves=30)


def declared_doc(digits=MAX_DIGITS, exponent=MAX_EXPONENT, count=1,
                 value=None):
    """Ratios B, 1/5, B laid out from 0 to 1, where B is the product of
    ``count`` declared bases of ``digits`` digits, each to ``exponent``."""
    names = ["b%d" % k for k in range(count)]
    mono = "*".join("%s^%d" % (b, exponent) for b in names)
    value = value or "0.5" + "1" * (min(digits, MAX_DIGITS) - 1)
    return {"format": "lipeq-spec", "version": 1, "role": "touching",
            "ratios": [mono, "1/5", mono],
            "translations": ["0", mono, "1-" + mono],
            "bases": [{"name": b, "value": value, "digits": digits}
                      for b in names]}


def literal_doc(ratio="1/7", translation="1/3"):
    """Ratios 1/3, ``ratio``, 1/3 at 0, ``translation``, 2/3."""
    return {"format": "lipeq-spec", "version": 1, "role": "touching",
            "ratios": ["1/3", ratio, "1/3"],
            "translations": ["0", translation, "2/3"]}


class TestReadingLimits:
    """Validation raises declared enclosures to the ratios' exponents, so
    the digits, the exponents and the number of bases are bounded; over a
    bound, a system is refused before any power is taken."""

    def test_largest_admitted_system_loads(self):
        t0 = time.perf_counter()
        spec = spec_from_doc(declared_doc(count=MAX_BASES))
        assert time.perf_counter() - t0 < 1
        assert len(spec.bases) == MAX_BASES

    @pytest.mark.parametrize("doc", [
        declared_doc(digits=MAX_DIGITS + 1),
        declared_doc(digits=10 ** 9),
        declared_doc(digits=None, value="0." + "5" * (MAX_DIGITS + 1)),
        declared_doc(exponent=MAX_EXPONENT + 1),
        declared_doc(exponent=10 ** 9),
        declared_doc(exponent=-10 ** 9),
        declared_doc(count=MAX_BASES + 1, exponent=1),
    ])
    def test_over_a_limit_refused_at_once(self, doc):
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="over the limit"):
            spec_from_doc(doc)
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("doc", [
        literal_doc(ratio="1/" + "7" * (MAX_DIGITS - 1)),
        literal_doc(ratio="0." + "1" * (MAX_DIGITS - 1)),
    ], ids=["denominator", "decimal"])
    def test_longest_admitted_literal_loads(self, doc):
        # MAX_DIGITS digits in one literal, the separator not counted
        t0 = time.perf_counter()
        spec_from_doc(doc)
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("doc", [
        literal_doc(ratio="1/" + "7" * MAX_DIGITS),
        literal_doc(ratio="1/" + "7" * 5000),
        literal_doc(translation="0." + "3" * MAX_DIGITS),
        literal_doc(translation="1/3+" + "1" * (MAX_DIGITS + 1) + "/10"
                                + "0" * (MAX_DIGITS + 1)),
    ], ids=["denominator", "int-string-limit", "decimal", "second-term"])
    def test_long_literal_refused_at_once(self, doc):
        # refused before a Fraction is built: Python 3.11 and later raise
        # ValueError past 4300 digits, and 3.10 would read on
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="number literal of .* over "
                                             "the limit"):
            spec_from_doc(doc)
        assert time.perf_counter() - t0 < 1

    def test_longest_admitted_product_loads(self):
        # 3^104 < 10^MAX_DIGITS <= 3^105
        t0 = time.perf_counter()
        spec = spec_from_doc(literal_doc(ratio="*".join(["1/3"] * 104)))
        assert time.perf_counter() - t0 < 1
        assert spec.ratios[1] == ExactRatio(Fraction(1, 3 ** 104))

    @pytest.mark.parametrize("doc", [
        literal_doc(ratio="*".join(["1/3"] * 105)),
        literal_doc(ratio="*".join(["1/3"] * 10000)),
        literal_doc(ratio="*".join(["1/3"] * 100000)),
        literal_doc(translation="+".join("1/%d" % k for k in range(2, 200))),
    ], ids=["first-refused", "10000-factors", "100000-factors",
            "summed-translation"])
    def test_long_coefficient_refused_at_once(self, doc):
        # every literal is short, but the product (or the sum over one
        # monomial) passed Python's int-string limit when it was written
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="coefficient over the limit"):
            spec_from_doc(doc)
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("value", [
        "0." + "1" * 100000, "0." + "1" * 4000, "1" * (MAX_DIGITS + 1),
        "1/" + "7" * (MAX_DIGITS + 1)])
    def test_long_base_value_refused_at_once(self, value):
        # Fraction read these, or raised at Python's int-string limit
        t0 = time.perf_counter()
        with pytest.raises(ParseError, match="over the limit"):
            spec_from_doc(declared_doc(digits=3, value=value))
        assert time.perf_counter() - t0 < 1

    @pytest.mark.parametrize("value", [
        "1e-3", "1E-3", "1_000", " 0.5", "0.5 ", "+0.5", "-0.5", ".5", "5.",
        "0.5/2", "abc"])
    def test_base_value_is_a_number_literal(self, value):
        # Fraction accepts the first nine of these
        with pytest.raises(ParseError, match="not a number literal"):
            spec_from_doc(declared_doc(digits=3, value=value))

    @pytest.mark.parametrize("value", ["0.5", "1/2", "0." + "5" * 50])
    def test_base_value_forms_admitted(self, value):
        spec = spec_from_doc(declared_doc(digits=3, value=value))
        assert spec.bases["b0"].value_str == value

    def test_long_exponent_literal_refused(self):
        # read by int(), which raises past the int-string limit
        with pytest.raises(ParseError, match="number literal of 5000 "
                                             "digits"):
            parse_value("g^" + "1" * 5000, {"g": DeclaredBase("g", "0.5")})

    def test_exponent_limit_is_on_the_product(self):
        with pytest.raises(ParseError, match="exponent 100 of g"):
            parse_value("g^50*g^50", {"g": DeclaredBase("g", "0.5")})


class TestDumpDoc:
    @settings(max_examples=400, deadline=None)
    @given(JSON_TREES)
    def test_equals_stdlib_indented_encoding(self, doc):
        assert dump_doc(doc) == stdlib_text(doc)

    @pytest.mark.parametrize("doc", [
        [], {}, [[]], [[], []], [[[]]], [[], [1]], [[[], [2]]],
        [[1, 2], [3, True]], [[[1], [False]]], [1, True, 2], [True, 1],
        [[1], ""], [[1], 0], [[[1], 0]], [[[1]], 0], [[[1]], [""]],
        [[1], [[2]]], [[[1, 2], 3]], (1, (2,)),
        [1.5, 2], [float("nan"), float("-inf")], {"a": None},
        {"b": [1, "x"], "a": ("k", 2, False)}, [-0.0, 10 ** 30]])
    def test_shapes(self, doc):
        assert dump_doc(doc) == stdlib_text(doc)

    @pytest.mark.parametrize("doc", [
        {1: 2}, {"a": {(1,): 2}}, {"a": 1, 2: "b"}, [{"x": {None: 1}}]])
    def test_non_string_key(self, doc):
        with pytest.raises(TypeError):
            dump_doc(doc)

    @pytest.mark.parametrize("doc", [
        {1, 2}, [[1, 2], b"\x01"], [[1], {2: 3}], [[[1], range(2)]],
        {"a": Fraction(1, 2)}, [object()]])
    def test_unsupported_type(self, doc):
        with pytest.raises(TypeError):
            dump_doc(doc)

    def test_certificate_takes_one_pass(self, monkeypatch):
        # words and rule lists are written by the one-pass branches and
        # pass the item check, so nothing is encoded a second time
        spec = make_one45()
        doc = cert_to_doc(spec, build_certificate(spec))
        passes = []

        def counting(doc, fast):
            passes.append(fast)
            return encode(doc, fast)

        encode = specfile._encode
        monkeypatch.setattr(specfile, "_encode", counting)
        assert dump_doc(doc) == stdlib_text(doc)
        assert passes == [True]

    def test_shared_lists_at_several_places_and_indents(self):
        # one rule list object written at two indents and twice at each,
        # next to a shared word list and a shared int list; a shared list
        # that fails the item check sends the tree to the slow pass
        rules = [[[], [1, 2]], [[3], [4]]]
        words = [[1], [2, 3]]
        ints = [5, 6]
        doc = {"a": rules, "b": [rules, {"c": rules, "d": words}],
               "e": {"f": rules, "g": [words, ints, rules]}, "h": ints}
        assert dump_doc(doc) == stdlib_text(doc)
        assert dump_doc([rules, rules, [rules]]) == \
            stdlib_text([rules, rules, [rules]])
        bad = [[[1], [True]]]
        doc = {"a": bad, "b": [bad, bad], "c": {"d": bad}}
        assert dump_doc(doc) == stdlib_text(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.lists(NEARLY_INTS, max_size=3), max_size=3),
                    min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                              st.booleans()), max_size=8))
    def test_shared_lists_anywhere(self, shared, places):
        # each place holds one of a few list objects under 0 to 3 levels
        # of dicts or lists, so the same object recurs at other indents
        doc = {}
        for at, (which, depth, in_list) in enumerate(places):
            x = shared[which % len(shared)]
            for _ in range(depth):
                x = [x, at] if in_list else {"k": x}
            doc["p%d" % at] = x
        assert dump_doc(doc) == stdlib_text(doc)

    def test_edit_in_place_between_dumps(self):
        # the memo lives for one call: a shared rule list edited in place
        # after a dump, or replaced at one place, is written as it is now
        spec = make_one45()
        doc = cert_to_doc(spec, build_certificate(spec))
        assert dump_doc(doc) == stdlib_text(doc)
        piece = doc["edges"][0]["pieces"][0]
        assert piece["t_rules"] is piece["d_rules"]
        piece["t_rules"][0][1].append(3)
        assert dump_doc(doc) == stdlib_text(doc)
        piece["d_rules"] = [[[], [2]]]
        assert dump_doc(doc) == stdlib_text(doc)
        piece["t_rules"].append([[1], [True]])
        assert dump_doc(doc) == stdlib_text(doc)
        rules = [[[1], [2]]]
        small = {"a": rules, "b": [rules]}
        assert dump_doc(small) == stdlib_text(small)
        rules[0][0].append(4)
        rules.append([[], []])
        assert dump_doc(small) == stdlib_text(small)

    def test_save_doc(self, tmp_path):
        doc = {"words": [[1, 2], []], "name": "x"}
        path = tmp_path / "d.json"
        save_doc(doc, str(path))
        assert path.read_text() == stdlib_text(doc) + "\n"
