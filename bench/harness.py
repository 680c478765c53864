"""Timing loop, output-check accounting and the reported metrics."""

import contextlib
import gc
import random
import resource
import signal
import statistics
import time
from fractions import Fraction

SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 2000
SETUP_MIN_TOTAL_S = 1.0
TAIL_BEYOND = 10
MIN_PASSES = 2
# After pass 1, an op that took less than REPEAT_S runs up to MAX_REPEATS
# times per pass, at shuffled places, so that cheap ops are also timed in
# several stretches of the host's load.
REPEAT_S = 0.6
MAX_REPEATS = 8
# The host's speed: the geometric mean of the times of two fixed
# pure-Python loops of the kinds of work lipeq does, small Fraction
# arithmetic and the sorting and set lookups of cylinder-word tuples.  It
# is taken before and after every run and, from a SIGALRM handler, every
# PROBE_S seconds during it.  A run's time, less the handler's, is scaled
# by REF_NOMINAL_S over the mean of those reference times: the time it
# would take on a host whose reference takes REF_NOMINAL_S.
#
# The speed of a shared virtual machine can swing by up to 2x for
# seconds to minutes at a time.  Over 240 s of passes cut into 20-s
# windows on a shared 2-core x86-64 VM, the quartile spread of the
# windows' ops_per_s, op_p50_ms and op_tail_ms was 0.2 to 0.45 as
# measured and 0.01 to 0.07 scaled by this reference (certify, decide and
# partition).  A loop of scattered memory reads, tried as a third kind,
# tracked lipeq worse and was left out.  REF_NOMINAL_S is about the
# reference time on that VM, so scaled times read close to measured ones.
REF_NOMINAL_S = 0.0006
PROBE_S = 0.05
_REF_RNG = random.Random(0)
REF_WORDS = [tuple(_REF_RNG.randrange(1, 5)
                   for _ in range(_REF_RNG.randrange(1, 7)))
             for _ in range(400)]
del _REF_RNG


def _fraction_loop():
    seen = {}
    small = Fraction(1, 20)
    below = 0
    for i in range(1, 150):
        r = Fraction(1, 3 + i % 5) * Fraction(2, 7 + i % 3)
        w = (i % 3, i % 5, i % 7)
        seen[w] = seen.get(w, 0) + r
        below += r < small
    return below


def _word_loop():
    words = sorted(REF_WORDS)
    present = set(words)
    hits = 0
    for w in words:
        for k in range(1, len(w)):
            hits += w[:k] in present
    by_letter = {}
    for w in words:
        by_letter.setdefault(w[0], []).append(w)
    return hits


def reference_s():
    """The host's speed now: seconds, the geometric mean of the loops."""
    prod = 1.0
    for loop in (_fraction_loop, _word_loop):
        t0 = time.perf_counter()
        loop()
        prod *= time.perf_counter() - t0
    return prod ** 0.5


def at_nominal(seconds, refs):
    """A measured time scaled to the nominal host speed, given the
    reference times taken around and during it."""
    return seconds * REF_NOMINAL_S * len(refs) / sum(refs)


class SpeedProbe:
    """Times the reference every PROBE_S seconds while a block runs.

    The SIGALRM handler stays installed from ``install`` to ``remove``;
    the timer runs only inside ``with probe:``.  ``samples`` holds the
    reference times of the last block and ``spent`` the seconds the
    handler took in it, which the block's time leaves out; ``clock``
    is a clock that stops while the handler runs.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.total = 0.0
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference_s())
        dt = time.perf_counter() - t0
        self.spent += dt
        self.total += dt

    def clock(self):
        return time.perf_counter() - self.total

    def install(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)

    def remove(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def __enter__(self):
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def tail_latency(by_op, beyond=TAIL_BEYOND):
    """The tail of per-op latencies: (value, percentile, samples beyond).

    ``by_op`` holds the latencies of each op of the corpus; an op's
    latency is the median of its runs.  The value is at the highest
    percentile, by nearest rank over the ops, that leaves ceil(beyond / 2)
    ops above it:
    at least ``beyond`` samples once every op has run twice.  Fixing the
    rank by the corpus size keeps it the same however many runs are made.
    """
    k = len(by_op)
    above = -(-beyond // 2)
    ranked = sorted(by_op, key=statistics.median)
    if k <= above or sum(len(v) for v in ranked[k - above:]) < beyond:
        raise ValueError("need more than %d ops, each run twice" % above)
    return (statistics.median(ranked[k - above - 1]), 100.0 * (k - above) / k,
            sum(len(v) for v in ranked[k - above:]))


def timed_setup(workload, seed, workdir):
    """Build the inputs several times; (ops, median seconds at the
    nominal host speed, reps)."""
    times = []
    scaled = []
    probe = SpeedProbe()
    probe.install()
    try:
        ref = reference_s()
        while (len(times) < SETUP_MIN_REPS
               or sum(times) < SETUP_MIN_TOTAL_S) \
                and len(times) < SETUP_MAX_REPS:
            gc.collect()
            t0 = time.perf_counter()
            with probe:
                ops = workload.build(seed, workdir)
            times.append(time.perf_counter() - t0 - probe.spent)
            ref_after = reference_s()
            scaled.append(at_nominal(times[-1],
                                     [ref, ref_after] + probe.samples))
            ref = ref_after
    finally:
        probe.remove()
    return ops, statistics.median(scaled), len(times)


class Run:
    """Latencies, outputs and failures of the passes over one corpus."""

    def __init__(self, workload, ops, seed):
        self.workload = workload
        self.ops = ops
        self.rng = random.Random(seed)
        self.latencies = []         # measured seconds of every run
        self.by_op = {}             # op id -> latencies at nominal speed
        self.repeats = {}           # op id -> runs per pass after pass 1
        self.pass_times = []
        self.refs = []              # reference times taken in the passes
        self.probe = SpeedProbe()
        self.first = None           # op id -> fingerprint of pass 1
        self.failures = {}          # op id -> reasons
        self.failed = 0             # failed runs, repeats included
        self.bad = set()            # op ids that failed in pass 1

    @property
    def attempted(self):
        return len(self.latencies)

    def _fail(self, op_id, reasons):
        """Count one failed run of the op."""
        self.failures.setdefault(op_id, []).extend(reasons)
        self.failed += 1

    def one_pass(self, record=None):
        """Run the ops in a seeded order, then check the outputs."""
        w = self.workload
        order = [op for op in self.ops for _ in range(self.repeats.get(op.id, 1))]
        self.rng.shuffle(order)
        outs = []
        total = 0.0
        probe = self.probe
        probe.install()
        try:
            gc.collect()
            ref = reference_s()
            for op in order:
                t0 = time.perf_counter()
                try:
                    with probe, (record(op.id) if record
                                 else contextlib.nullcontext()):
                        out = w.run(op)
                except Exception as e:   # a crash is a failed operation
                    out = e
                dt = time.perf_counter() - t0 - probe.spent
                gc.collect()   # the next op starts on a clean heap
                ref_after = reference_s()
                refs = [ref, ref_after] + probe.samples
                self.refs += refs[1:]
                self.latencies.append(dt)
                self.by_op.setdefault(op.id, []).append(at_nominal(dt, refs))
                ref = ref_after
                total += dt
                if self.first is not None and \
                        not isinstance(out, Exception):
                    out = w.fingerprint(out)    # later passes keep no output
                outs.append((op, out))
        finally:
            probe.remove()
        self.pass_times.append(total)
        self._check(outs)

    def spread_repeats(self):
        """Set the repeats of cheap ops from their pass-1 latencies."""
        self.repeats = {
            op_id: max(1, min(MAX_REPEATS, int(REPEAT_S / max(v[0], 1e-9))))
            for op_id, v in self.by_op.items()}

    def _check(self, outs):
        """Check pass 1 in full; later runs, kept as fingerprints, must
        repeat its outputs, and an op that failed in pass 1 fails again
        when it repeats them.  Pass 1 runs each op once, so an op fails at
        most once in it."""
        w = self.workload
        if self.first is None:
            self.first = {}
            reasons = {}
            for op, out in outs:
                if isinstance(out, Exception):
                    reasons[op.id] = ["raised %r" % out]
                    continue
                reason = w.check(op, out)
                if reason:
                    reasons[op.id] = [reason]
                self.first[op.id] = w.fingerprint(out)
            bad = w.check_pass([op for op, _ in outs],
                               {op.id: out for op, out in outs})
            for op_id, reason in bad.items():
                reasons.setdefault(op_id, []).append(reason)
            for op_id, why in reasons.items():
                self._fail(op_id, why)
            self.bad = set(reasons)
            return
        for op, out in outs:
            if isinstance(out, Exception):
                self._fail(op.id, ["raised %r" % out])
            elif out != self.first.get(op.id):
                self._fail(op.id, ["output differs from pass 1"])
            elif op.id in self.bad:
                self._fail(op.id, ["repeats a failed output"])

    def passes(self, seconds, min_passes):
        """Passes until ``seconds`` of timed work, cheap ops repeated after
        pass 1."""
        while len(self.pass_times) < min_passes or \
                sum(self.pass_times) < seconds:
            self.one_pass()
            if len(self.pass_times) == 1:
                self.spread_repeats()


def traced_passes(run, seconds, tracer):
    """Alternate untraced and traced passes until ``seconds`` of timed
    work, at least two of each.  Returns the traced pass count and the
    tracing overhead: the sum over ops of the median traced run over the
    sum of the median untraced run, both at nominal speed."""
    modes = []
    while len(modes) < 4 or sum(run.pass_times) < seconds:
        traced = len(modes) % 2 == 1
        if traced:
            with tracer:
                run.one_pass(record=tracer.recording)
        else:
            run.one_pass()
        modes.append(traced)

    def best(mode):
        return sum(statistics.median(t for t, m in zip(v, modes) if m == mode)
                   for v in run.by_op.values())

    return sum(modes), best(True) / best(False)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run, setup_s):
    """The end-to-end metrics and a human-readable note per metric.

    An op's latency is the median of its runs, each at the nominal host
    speed (see reference_s).  ops_per_s is the corpus size over the sum
    of those.
    """
    best = [statistics.median(v) for v in run.by_op.values()]
    passes = len(run.pass_times)
    tail, pct, beyond = tail_latency(list(run.by_op.values()))
    fail_rate = run.failed / run.attempted
    metrics = {
        "ops_per_s": (len(best) / sum(best), "1/s"),
        "op_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "pass_rate": (1.0 - fail_rate, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "ops_per_s": "%d ops, median of their runs in %d passes, at "
                     "nominal speed; all runs as measured give %.4g"
                     % (len(best), passes,
                        run.attempted / sum(run.latencies)),
        "op_tail_ms": "p%.1f of %d ops, %d samples, %d beyond"
                      % (pct, len(best), run.attempted, beyond),
        "pass_rate": "fail_rate %.4f = %d failed / %d attempted" % (
            fail_rate, run.failed, run.attempted),
        "op_p50_ms": "host reference %.4g ms, median of %d samples; "
                     "nominal %.4g ms" % (statistics.median(run.refs) * 1e3,
                                          len(run.refs), REF_NOMINAL_S * 1e3),
    }
    return metrics, notes


# name, unit, source, key: the per-layer metrics of a traced run, per pass.
PER_LAYER = [
    ("exactnum.self_s", "s", "self", "exactnum"),
    ("exactnum.ratio_ops.calls", "count", "calls", "exactnum.ratio_ops"),
    ("exactnum.factorize.calls", "count", "calls", "exactnum.factorize"),
    ("exactnum.moran_dimension.calls", "count", "calls",
     "exactnum.moran_dimension"),
    ("ifs.self_s", "s", "self", "ifs"),
    ("ifs.ratio_word.calls", "count", "calls", "ifs.IfsSpec.ratio_word"),
    ("ifs.ratio_word.letters", "count", "counts", "ifs.ratio_word.letters"),
    ("ifs.affine.calls", "count", "calls", "ifs.IfsSpec.affine"),
    ("certify.self_s", "s", "self", "certify"),
    ("certify.verify_certificate.busy_s", "s", "busy",
     "certify.verify_certificate"),
    ("certify.rules_affine.calls", "count", "calls", "certify.rules_affine"),
    ("certify.rules_affine.busy_s", "s", "busy", "certify.rules_affine"),
    ("certify.pieces_checked", "count", "counts", "certify.pieces_checked"),
    ("certify.pq_rejected", "count", "counts", "certify.pq_rejected"),
    ("certify.depth_retries", "count", "counts", "certify.depth_retries"),
    ("certify.compose_rules.calls", "count", "calls",
     "certify.compose_rules"),
    ("certify.expand_leaves", "count", "counts", "certify.expand_leaves"),
    ("certify.distortion_report.busy_s", "s", "busy",
     "certify.distortion_report"),
    ("cylsets.self_s", "s", "self", "cylsets"),
    ("cylsets.canonicalize.calls", "count", "calls", "cylsets.canonicalize"),
    ("cylsets.word_subset.calls", "count", "calls", "cylsets.word_subset"),
    ("cylsets.subtract.calls", "count", "calls", "cylsets.subtract"),
    ("cylsets.check_disjoint_groups.calls", "count", "calls",
     "cylsets.check_disjoint_groups"),
    ("cylsets.union_equal.calls", "count", "calls", "cylsets.union_equal"),
    ("cylsets.canonicalize.words_in", "count", "counts",
     "cylsets.canonicalize.words_in"),
    ("cylsets.check_disjoint_groups.words_in", "count", "counts",
     "cylsets.check_disjoint_groups.words_in"),
    ("patches.self_s", "s", "self", "patches"),
    ("patches.pieces_out", "count", "counts", "patches.pieces_out"),
    ("decide.self_s", "s", "self", "decide"),
    ("decide.find_witness.calls", "count", "calls", "decide.find_witness"),
    ("decide.find_witness.found", "count", "counts",
     "decide.find_witness.found"),
    ("decide.find_witness.none", "count", "counts",
     "decide.find_witness.none"),
    ("decide.find_witness.exhausted", "count", "counts",
     "decide.find_witness.exhausted"),
    ("decide.find_witness.busy_s", "s", "busy", "decide.find_witness"),
    ("decide.closed_form.hits", "count", "counts", "decide.closed_form.hits"),
    ("tstar.self_s", "s", "self", "tstar"),
    ("tstar.verify_cover.calls", "count", "calls", "tstar.verify_cover"),
    ("tstar.verify_cover.busy_s", "s", "busy", "tstar.verify_cover"),
    ("tstar.placements_out", "count", "counts", "tstar.placements_out"),
    ("specfile.self_s", "s", "self", "specfile"),
    ("specfile.doc_digest.calls", "count", "calls", "specfile.doc_digest"),
    ("trace.overhead_ratio", "ratio", "overhead", None),
]


def per_layer(tracer, passes, overhead):
    """Per-layer metrics per corpus pass, from a tracer."""
    tables = {"self": tracer.self_time, "calls": tracer.calls,
              "busy": tracer.busy, "counts": tracer.counts}
    out = {}
    for name, unit, source, key in PER_LAYER:
        if source == "overhead":
            value = overhead
        else:
            value = tables[source].get(key, 0) / passes
        out[name] = (value, unit)
    return out
