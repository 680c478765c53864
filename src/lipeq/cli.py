"""Command-line surface.

Subcommands: analyze, certify, verify, partition, render.  All file
formats carry a leading format/version pair; exact numbers serialize as
strings, approximations carry their tolerance.  Every document is
sorted-key JSON with a one-space indent, written by ``specfile.dump_doc``;
a partition report's record list is written column by column by
``specfile.dump_records``.  Exit codes of analyze: 0 equivalent, 1 not
equivalent, 2 unknown, 3 error.
"""

import argparse
from fractions import Fraction
from itertools import accumulate, chain, count
import sys

from . import specfile, patches, render
from .exactnum import ExactError, MORAN_TOL, moran_dimension
from .ifs import SpecError
from .decide import decide, SearchBudget
from .certify import (build_certificate, cert_to_doc, verify_cert_doc,
                      distortion_report, expand_map, leaf_counts,
                      CertificateError)

REPORT_FORMAT = "lipeq-report"
REPORT_VERSION = 1
# the most leaf pieces ``lipeq verify --depth`` expands (its distortion
# report reads two points per leaf), and the most sets of one level that
# ``lipeq partition --k`` builds
MAX_EXPAND_LEAVES = 1_000_000
# the widest drawing, in pixels, that ``lipeq render --width`` draws; bar
# positions are floats, and the examples draw at most 1000
MAX_RENDER_WIDTH = 10_000


def _budget(args):
    """The search budget from --budget.  Anything but two integers
    MAX_WORD,MAX_EXP with MAX_WORD >= 1 and MAX_EXP >= 0 ends the command
    with one error line and exit status 3."""
    raw = args.budget
    if not raw:
        return SearchBudget()
    try:
        max_word, max_exp = map(int, raw.split(","))
        ok = max_word >= 1 and max_exp >= 0
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write("error: --budget expects MAX_WORD,MAX_EXP with "
                         "integers MAX_WORD >= 1 and MAX_EXP >= 0, got %r\n"
                         % raw)
        raise SystemExit(3)
    return SearchBudget(max_word, max_exp)


def _emit(text, path=None):
    """Write a document's text and a final newline to ``path``, or to
    standard output."""
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def analyze_report(spec, budget):
    st = spec.touching
    verdict = decide(spec, budget)
    nec = verdict.necessary
    report = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "spec_digest": specfile.doc_digest(specfile.spec_to_doc(spec)),
        "n": spec.n,
        "role": spec.role,
        "ratios": [specfile.format_ratio(r) for r in spec.ratios],
        "touching_letters": sorted(st.letters),
        "first_free_letter": st.alpha,
        "last_free_letter": st.beta,
        "dimension": {"value": moran_dimension(spec.ratios,
                                               env=spec.bases),
                      "exactness": "approx(%g)" % MORAN_TOL},
        "necessary_condition": {
            "holds": nec.ok,
            "dependence": list(nec.pq) if nec.pq else None,
            "detail": nec.detail,
            "exactness": "exact",
        },
        "witnesses": [verdict.witnesses[i].as_dict()
                      for i in sorted(verdict.witnesses)],
        "unresolved_letters": sorted(verdict.unresolved),
        "budget": {"max_word": budget.max_word, "max_exp": budget.max_exp},
        "verdict": verdict.status,
        "reason": verdict.reason,
    }
    return report, verdict


def cmd_analyze(args):
    spec = specfile.load_spec(args.specfile)
    budget = _budget(args)
    report, verdict = analyze_report(spec, budget)
    _emit(specfile.dump_doc(report), args.output)
    return {"equivalent": 0, "not_equivalent": 1, "unknown": 2}[
        verdict.status]


def cmd_certify(args):
    spec = specfile.load_spec(args.specfile)
    verdict = decide(spec, _budget(args))
    if verdict.status != "equivalent":
        sys.stderr.write("cannot certify: verdict is %s (%s)\n"
                         % (verdict.status, verdict.reason))
        return 1 if verdict.status == "not_equivalent" else 2
    cert = build_certificate(spec, verdict)
    _emit(specfile.dump_doc(cert_to_doc(spec, cert)), args.output)
    return 0


def _check_limit(flag, value, first, counts, unit, stage):
    """Refuse ``flag`` ``value`` when it needs more than MAX_EXPAND_LEAVES
    ``unit``, before any is built.  ``counts`` yields the exact count at
    each ``stage`` from ``first`` on, and the counts grow with the stage,
    so they are counted only up to the first stage over the limit, which
    the message names with its count."""
    for level, count in zip(range(first, value + 1), counts):
        if count > MAX_EXPAND_LEAVES:
            raise SpecError("%s %d needs at least %d %s (%d at %s %d), "
                            "over the limit of %d"
                            % (flag, value, count, unit, count, stage,
                               level, MAX_EXPAND_LEAVES))


def cmd_verify(args):
    if args.depth < 0:
        raise SpecError("--depth must be nonnegative, got %d" % args.depth)
    spec = specfile.load_spec(args.specfile)
    doc = specfile.load_json(args.cert, CertificateError, "certificate")
    cert = verify_cert_doc(spec, doc)
    out = {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "certificate_valid": True,
        "vertices": len(cert.vertices),
        "depth": args.depth,
    }
    if args.depth > 0:
        # every edge of a validated certificate has at least two pieces
        _check_limit("--depth", args.depth, 0, leaf_counts(cert),
                     "leaf pieces", "depth")
        # the validated certificate makes the leaves tile T and D; the
        # argument is in expand_map's docstring
        pieces = expand_map(spec, cert, args.depth)
        c_low, c_high = distortion_report(spec, cert, args.depth,
                                          pieces=pieces)
        out["leaf_pieces"] = len(pieces)
        out["distortion"] = {"c_low": c_low, "c_high": c_high,
                             "exactness": "approx(float64)"}
    _emit(specfile.dump_doc(out), args.output)
    return 0


def _weights(raw):
    """The measure weights of ``--mu``: exactly four positive fractions
    that sum to 1, else SpecError."""
    try:
        mu = [Fraction(x) for x in raw.split(",")] if raw else None
    except (ValueError, ZeroDivisionError):
        mu = None
    if mu is None or len(mu) != 4 or min(mu) <= 0 or sum(mu) != 1:
        raise SpecError("--mu expects four positive fractions m1,m2,m3,m4 "
                        "that sum to 1, got %r" % raw)
    return mu


def cmd_partition(args):
    spec = specfile.load_spec(args.specfile)
    k = args.k
    if k < 1:
        raise SpecError("--k must be at least 1, got %d" % k)
    fam = args.family
    # S and T build ``c_family`` at every level up to k, so the count of
    # the C sets bounds them as well
    _check_limit("--k", k, 1, patches.e_family_sizes() if fam == "E"
                 else patches.c_family_sizes(spec), "sets", "level")
    doc = {"format": REPORT_FORMAT, "version": REPORT_VERSION,
           "family": fam, "k": k}
    # each record list is written column by column by dump_records: a set
    # or a piece is a canonical word tuple, written as lists of int lists
    if fam == "C":
        text = specfile.dump_records(
            doc, "sets", {"words": patches.c_family(spec, k)})
    elif fam == "E":
        muv = _weights(args.mu)
        levels = patches.e_family(spec, k)
        doc["measure_ratios"] = sorted(
            str(r) for r in patches.e_ratio_set(spec, k, muv))
        text = specfile.dump_records(
            doc, "levels", {"words": list(chain.from_iterable(levels))},
            groups=list(map(len, levels)))
    else:
        if fam == "S":
            pieces = patches.partition_S(spec, k)[-1]
        else:
            pieces = patches.partition_T(spec, k)
        ends, norm = patches.piece_hulls(spec, pieces)
        grid_text = specfile._grid_text
        doc["norm"] = {"value": specfile.format_value(norm),
                       "exactness": "exact"}
        text = specfile.dump_records(doc, "pieces", {
            "words": pieces,
            "lo": [grid_text(lo, dlo) for lo, dlo, _, _ in ends],
            "hi": [grid_text(hi, dhi) for _, _, hi, dhi in ends]})
    _emit(text, args.output)
    return 0


def cmd_render(args):
    spec = specfile.load_spec(args.specfile)
    if args.levels < 0:
        raise SpecError("--levels must be nonnegative, got %d"
                        % args.levels)
    if not 1 <= args.width <= MAX_RENDER_WIDTH:
        raise SpecError("--width must be in 1..%d, got %d"
                        % (MAX_RENDER_WIDTH, args.width))
    # a row draws only bars at least one pixel wide: at most n^l at level
    # l, and at most --width of them, since bars of one level meet only
    # at endpoints; --with-dust draws two rows.  n >= 2, so n^l exceeds
    # the width from l = width.bit_length() on, and no larger power is
    # computed
    rows = 2 if args.with_dust else 1
    cap = args.width.bit_length()
    _check_limit("--levels", args.levels, 0,
                 accumulate(rows * min(spec.n ** min(level, cap), args.width)
                            for level in count()),
                 "bars", "level")
    svg = render.render_svg(spec, levels=args.levels, width=args.width,
                            with_dust=args.with_dust)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="lipeq",
        description="Decide and certify Lipschitz equivalence of "
                    "touching self-similar sets with their dust "
                    "counterparts.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the decision pipeline")
    p.add_argument("specfile")
    p.add_argument("--budget", help="MAX_WORD,MAX_EXP search budget")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="build a decomposition certificate")
    p.add_argument("specfile")
    p.add_argument("--budget")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("verify", help="validate a certificate and bound "
                                      "the distortion")
    p.add_argument("specfile")
    p.add_argument("--cert", required=True)
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("partition", help="dump a partition family")
    p.add_argument("specfile")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--family", choices=("C", "S", "T", "E"), required=True)
    p.add_argument("--mu", help="measure weights for family E")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("render", help="draw construction levels as SVG")
    p.add_argument("specfile")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--width", type=int, default=640)
    p.add_argument("--with-dust", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_render)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ExactError, OSError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 3


if __name__ == "__main__":
    sys.exit(main())
