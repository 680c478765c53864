"""The four workloads: seeded inputs, the timed operation, output checks.

Each operation is one ``lipeq`` command line, parsed in set-up and run in
this process by its ``lipeq.cli`` subcommand function, with the standard
output captured.  Set-up writes the
spec documents (and, for ``verify``, the certificates that ``lipeq
certify -o`` makes from them) to a work directory.  Every operation loads
its spec from that file into a fresh ``IfsSpec``, as a new CLI process
would, so no per-spec cache carries over from one operation to the next.

The spec corpora are fixed by the corpus seeds below, so the amount of
work does not depend on the run seed.  The run seed orders the
operations and picks the certificate mutations of ``verify``.

Checks run outside the timed region.  Each returns ``None`` or a reason;
``checks`` holds the ones that do not rely on the code under test.
"""

import contextlib
import copy
import hashlib
import importlib
import io
import json
import os
import random
from fractions import Fraction

import checks

specfile = importlib.import_module("lipeq.specfile")
decide_mod = importlib.import_module("lipeq.decide")
certify = importlib.import_module("lipeq.certify")
patches = importlib.import_module("lipeq.patches")
cli = importlib.import_module("lipeq.cli")
exactnum = importlib.import_module("lipeq.exactnum")
ifs = importlib.import_module("lipeq.ifs")

# Errors on which the CLI exits with status 3: a clean rejection.
REJECTIONS = (ifs.SpecError, certify.CertificateError, exactnum.ExactError)

EQUAL_SEED = 31          # the acceptance-3 corpus of equal-ratio specs
# The seed-31 specs but the six costliest to certify (1, 4, 5, 8, 17 and
# 19, all n = 6, 1.1 to 3.6 s each on a 2-core x86-64 host), so that a
# run of the corpus fits its time budget.  Spec 11 keeps an n = 6 tiling.
EQUAL_PICK = (0, 2, 3, 6, 7, 9, 10, 11, 12, 13, 14, 15, 16, 18)
DECIDE_SEED = 5
DECIDE_COUNT = 32
# The generated specs but the three whose analysis takes over 1 s (6, 13
# and 19: 1.1, 3.8 and 2.4 s on a 2-core x86-64 host, all unknown after
# an exhausted search).  With them a pass took 8 s, 90% of it theirs, so
# a run timed each of them only twice and their noise set ops_per_s.
DECIDE_SKIP = (6, 13, 19)
DECIDE_BUDGET = (16, 60)
VERIFY_DEPTH = 5
# Small documents, so every mutant costs about as little as the cheapest
# intact operations and the seed moves no operation across the median.
MUTATED = ("one45", "eq31-00", "eq31-07")
MUTATION_KINDS = ("ratio", "offset", "target")
PARTITION_KMAX = 5
# 1/9*{0,3,4,8} stops at k = 4: its S and T at k = 5 take 3.4 and 5.0 s
# on a 2-core x86-64 host, two thirds of a pass, so that a run makes
# more than the two passes the tail needs within its time budget.
PARTITION_KMAX_BY_SPEC = {"ninths": 4}

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "decide.json")


# ---------------------------------------------------------------------------
# spec documents

def spec_doc(ratios, translations):
    return {"format": "lipeq-spec", "version": 1, "role": "touching",
            "ratios": [str(Fraction(r)) for r in ratios],
            "translations": [str(Fraction(t)) for t in translations]}


def equal_doc(n, m, slots):
    """Equal ratios 1/m with maps at grid positions slots/m."""
    return spec_doc([Fraction(1, m)] * n, [Fraction(k, m) for k in slots])


def one45_doc():
    return equal_doc(3, 5, [0, 3, 4])


def endratio_doc(middle=Fraction(1, 3)):
    """End ratios 1/4, 1/8 touching at letter 1.  With the default middle
    ratio it certifies at (p, q) = (9, 6); with 1/8, at (6, 4)."""
    return spec_doc([Fraction(1, 4), middle, Fraction(1, 8)],
                    [0, Fraction(1, 4), Fraction(7, 8)])


def random_equal_doc(rng):
    """A random equal-ratio touching spec, n in 3..6.

    Draws exactly as the acceptance suite does, so seed 31 gives its
    corpus."""
    n = rng.randrange(3, 7)
    while True:
        m = rng.randrange(2 * n, 3 * n + 4)
        inner = sorted(rng.sample(range(1, m - 1), n - 2))
        slots = [0] + inner + [m - 1]
        if len(set(slots)) < n:
            continue
        diffs = [b - a for a, b in zip(slots, slots[1:])]
        if any(d == 1 for d in diffs) and any(d > 1 for d in diffs):
            return equal_doc(n, m, slots)


def cert_corpus():
    """{1,4,5}, the (6, 4) end-ratio spec and the picked seed-31 specs:
    the specs of ``certify`` and ``verify``.

    Both leave out the (9, 6) end-ratio spec: certifying it takes about
    5 s on a 2-core x86-64 host, as long as the rest together, so a run
    would time it only twice and its host noise would set ops_per_s.
    ``partition`` keeps it."""
    rng = random.Random(EQUAL_SEED)
    equal = [random_equal_doc(rng) for _ in range(max(EQUAL_PICK) + 1)]
    out = [("one45", one45_doc()),
           ("endratio64", endratio_doc(Fraction(1, 8)))]
    out += [("eq31-%02d" % i, equal[i]) for i in EQUAL_PICK]
    return out


def _smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


INTERIOR = [k for k in range(6, 37) if _smooth(k)]
END_PAIRS = [(Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 8), Fraction(1, 4)),
             (Fraction(1, 9), Fraction(1, 27)), (Fraction(1, 27), Fraction(1, 9)),
             (Fraction(1, 4), Fraction(1, 16)), (Fraction(1, 8), Fraction(1, 8))]
INDEPENDENT_ENDS = (Fraction(1, 2), Fraction(1, 3))


def random_decide_doc(rng):
    """n in 4..6, end ratios with a common power (a tenth independent),
    interior ratios 1/k for {2,3,5}-smooth k in 6..36, and a random
    touching pattern with at least one touch and one gap."""
    while True:
        n = rng.randrange(4, 7)
        if rng.random() < 0.1:
            first, last = INDEPENDENT_ENDS
        else:
            first, last = rng.choice(END_PAIRS)
        ratios = ([first] + [Fraction(1, rng.choice(INTERIOR))
                             for _ in range(n - 2)] + [last])
        touch = [rng.random() < 0.5 for _ in range(n - 1)]
        if sum(ratios) >= 1 or all(touch) or not any(touch):
            continue
        gap = (1 - sum(ratios)) / touch.count(False)
        ts = [Fraction(0)]
        for i in range(n - 1):
            ts.append(ts[-1] + ratios[i] + (0 if touch[i] else gap))
        return spec_doc(ratios, ts)


def decide_corpus():
    rng = random.Random(DECIDE_SEED)
    docs = [random_decide_doc(rng) for _ in range(DECIDE_COUNT)]
    return [("gen%d-%02d" % (DECIDE_SEED, i), doc)
            for i, doc in enumerate(docs) if i not in DECIDE_SKIP]


def partition_corpus():
    return [("one45", one45_doc()),
            ("ninths", equal_doc(4, 9, [0, 3, 4, 8])),
            ("endratio96", endratio_doc())]


def digest(doc):
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_doc(workdir, name, doc):
    """Write a document as the CLI's input file; returns its path."""
    path = os.path.join(workdir, name + ".json")
    specfile.save_doc(doc, path)
    return path


PARSER = cli.build_parser()


def command(argv):
    """The parsed ``lipeq ARGV`` command line; parsing is set-up work."""
    return PARSER.parse_args(argv)


def call_cli(args):
    """Run a parsed command in this process, mapping the errors to exit
    status 3 as ``lipeq.cli.main`` does: (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = args.func(args)
        except REJECTIONS + (OSError,) as e:
            err.write("error: %s\n" % e)
            status = 3
    return status, out.getvalue(), err.getvalue()


def _spec(op):
    return specfile.spec_from_doc(op.args["doc"])


# ---------------------------------------------------------------------------
# workloads

class Op:
    """One parsed command line; ``args`` holds what its checks need."""

    __slots__ = ("id", "command", "args")

    def __init__(self, op_id, command, **args):
        self.id = op_id
        self.command = command
        self.args = args


class Workload:
    """Set-up, timed operation and checks of one CLI subcommand."""

    name = None

    def build(self, seed, workdir):
        """The operations of one pass, made from the seed; input files
        are written to ``workdir``."""
        raise NotImplementedError

    def run(self, op):
        return call_cli(op.command)

    def fingerprint(self, out):
        """Exit status and a digest of the standard output."""
        return out[0], hashlib.sha256(out[1].encode()).hexdigest()

    def check(self, op, out):
        return None

    def check_pass(self, ops, outs):
        """Checks across operations of one pass: {op id: reason}."""
        return {}


class Certify(Workload):
    name = "certify"

    def __init__(self, corpus=None):
        self.corpus = corpus

    def build(self, seed, workdir):
        return [Op(label, command(["certify",
                                   write_doc(workdir, label, doc)]),
                   doc=doc)
                for label, doc in (self.corpus or cert_corpus())]

    def check(self, op, out):
        status, text, err = out
        if status != 0:
            return "certify exited %d: %s" % (status, err.strip())
        try:
            certify.verify_cert_doc(_spec(op), json.loads(text))
        except REJECTIONS as e:
            return "emitted certificate does not re-validate: %s" % e
        return None


def _other(rng, values, cur):
    """A value of ``values`` other than ``cur``, so the field changes."""
    return rng.choice([v for v in values if Fraction(v) != Fraction(cur)])


def mutate(doc, kind, rng):
    """One single-field mutation of an acceptance-8 kind.  The new value
    always differs from the old one: a mutant equal to its source would
    be an intact certificate that the checks expect to be rejected."""
    d = copy.deepcopy(doc)
    piece = rng.choice(rng.choice(d["edges"])["pieces"])
    if kind == "ratio":
        piece["ratio"] = _other(rng, ["1/7", "2/5", "1/125"], piece["ratio"])
    elif kind == "offset":
        field = rng.choice(["t_offset", "d_offset"])
        piece[field] = _other(rng, ["3/11", "1/2", "7/25"], piece[field])
    else:
        cur = piece["target"]
        piece["target"] = rng.choice([v["key"] for v in d["vertices"]
                                      if v["key"] != cur])
    return d


class Verify(Workload):
    name = "verify"

    def __init__(self, corpus=None, mutated=MUTATED):
        self.corpus = corpus
        self.mutated = mutated

    def build(self, seed, workdir):
        """Certify each spec with ``lipeq certify -o``, then mutate."""
        rng = random.Random(seed)
        ops = []
        mutants = []
        for label, doc in (self.corpus or cert_corpus()):
            spec = write_doc(workdir, label, doc)
            cert = os.path.join(workdir, label + ".cert.json")
            status, _, err = call_cli(command(["certify", spec, "-o",
                                               cert]))
            if status != 0:
                raise RuntimeError("no certificate for %s: %s" % (label, err))
            argv = ["verify", spec, "--cert", cert]
            ops.append(Op("intact/" + label, command(argv), doc=doc,
                          expect=0))
            if label == "one45":
                ops.append(Op("depth%d/one45" % VERIFY_DEPTH,
                              command(argv + ["--depth", str(VERIFY_DEPTH)]),
                              doc=doc, cert=cert, expect=0))
            if label in self.mutated:
                with open(cert) as fh:
                    cert_doc = json.load(fh)
                for kind in MUTATION_KINDS:
                    bad = write_doc(workdir, "%s.%s" % (label, kind),
                                    mutate(cert_doc, kind, rng))
                    mutants.append(Op("%s/%s" % (kind, label),
                                      command(["verify", spec, "--cert",
                                               bad]),
                                      doc=doc, expect=3))
        return ops + mutants

    def check(self, op, out):
        status, text, err = out
        if status != op.args["expect"]:
            return ("accepted a mutated certificate" if status == 0
                    else "rejected an intact certificate: %s" % err.strip())
        if status == 0 and "cert" in op.args:
            return self._check_expansion(op, json.loads(text))
        return None

    @staticmethod
    def _check_expansion(op, report):
        """Re-derive the expansion of a ``--depth`` run and check that it
        tiles T and D and has as many leaves as the report says."""
        spec = _spec(op)
        with open(op.args["cert"]) as fh:
            cert = certify.verify_cert_doc(spec, json.load(fh))
        pieces = certify.expand_map(spec, cert, VERIFY_DEPTH)
        if report.get("leaf_pieces") != len(pieces):
            return "report has %s leaf pieces, the expansion %d" % (
                report.get("leaf_pieces"), len(pieces))
        for side in ("t_words", "d_words"):
            reason = checks.tiles_whole(
                spec.n, [getattr(p, side) for p in pieces])
            if reason:
                return "expansion %s: %s" % (side, reason)
        return None


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


class Decide(Workload):
    name = "decide"

    def __init__(self, corpus=None, reference=None):
        self.corpus = corpus
        self.reference = reference

    def build(self, seed, workdir):
        ref = self.reference or load_reference()
        budget = "%d,%d" % DECIDE_BUDGET
        return [Op(label, command(["analyze", write_doc(workdir, label, doc),
                                   "--budget", budget]),
                   doc=doc, reference=ref.get(digest(doc)))
                for label, doc in (self.corpus or decide_corpus())]

    def check(self, op, out):
        status, text, err = out
        if status not in (0, 1, 2):
            return "analyze exited %d: %s" % (status, err.strip())
        report = json.loads(text)
        verdict, ref = report["verdict"], op.args["reference"]
        if ref is None:
            return "no reference verdict"
        if ref != "unknown" and verdict != ref:
            return "verdict %s, reference %s" % (verdict, ref)
        if verdict != "equivalent":
            return None
        doc = op.args["doc"]
        spec = _spec(op)
        letters = sorted(w["letter"] for w in report["witnesses"])
        if letters != sorted(checks.touching_letters(doc)):
            return "witness letters %s miss a touching letter" % letters
        for w in report["witnesses"]:
            reason = checks.witness(doc, w)
            if reason:
                return reason
            try:
                decide_mod.verify_witness(spec, decide_mod.Witness(
                    w["side"], w["letter"], w["k"], w["k_prime"], w["word"],
                    w["source"]))
            except REJECTIONS as e:
                return "verify_witness rejects: %s" % e
        return None


class Partition(Workload):
    name = "partition"
    FAMILIES = ("S", "T", "C")

    def __init__(self, corpus=None, kmax=PARTITION_KMAX):
        self.corpus = corpus
        self.kmax = kmax

    def build(self, seed, workdir):
        ops = []
        for label, doc in (self.corpus or partition_corpus()):
            spec = write_doc(workdir, label, doc)
            kmax = min(self.kmax, PARTITION_KMAX_BY_SPEC.get(label, self.kmax))
            ops += [Op("%s/%s%d" % (label, fam, k),
                       command(["partition", spec, "--k", str(k),
                                "--family", fam]),
                       doc=doc, label=label, family=fam, k=k)
                    for fam in self.FAMILIES
                    for k in range(1, kmax + 1)]
        return ops

    @staticmethod
    def _groups(doc):
        key = "sets" if doc["family"] == "C" else "pieces"
        return [[tuple(w) for w in g["words"]] for g in doc[key]]

    def check(self, op, out):
        status, text, err = out
        if status != 0:
            return "partition exited %d: %s" % (status, err.strip())
        n = len(op.args["doc"]["ratios"])
        groups = self._groups(json.loads(text))
        if op.args["family"] == "C":
            return checks.groups_disjoint(n, groups)
        return checks.tiles_whole(n, groups)

    def check_pass(self, ops, outs):
        docs = {}
        for op in ops:
            out = outs.get(op.id)
            if isinstance(out, tuple) and out[0] == 0:
                docs[op.args["label"], op.args["family"], op.args["k"]] = (
                    op, json.loads(out[1]))
        bad = {}
        for (label, fam, k), (op, doc) in docs.items():
            n = len(op.args["doc"]["ratios"])
            prev = docs.get((label, fam, k - 1))
            reason = None
            if fam == "S" and prev:
                reason = checks.refines(n, self._groups(doc),
                                        self._groups(prev[1]))
            elif fam == "T":
                same_s = docs.get((label, "S", k))
                if same_s:
                    reason = checks.refines(n, self._groups(doc),
                                            self._groups(same_s[1]))
                if not reason and prev and not (
                        Fraction(doc["norm"]["value"])
                        < Fraction(prev[1]["norm"]["value"])):
                    reason = "norm does not decrease from k=%d" % (k - 1)
            elif fam == "C" and prev:
                reason = checks.nested_or_disjoint(n, self._groups(doc),
                                                   self._groups(prev[1]))
            if reason:
                bad[op.id] = reason
        return bad


WORKLOADS = {w.name: w for w in (Certify, Verify, Decide, Partition)}
