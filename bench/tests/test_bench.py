"""Tests of the benchmark itself: the tail rule, self-time subtraction,
the output checks and the metric names in BENCHMARK.json.

    python3 -m pytest bench/tests -q      (from the repository root)
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile

def test_tail_leaves_ten_samples_beyond_with_two_passes():
    by_op = [[i + 100, i] for i in range(1, 18)]     # 17 ops, 2 runs each
    value, pct, beyond = harness.tail_latency(by_op)
    assert (value, beyond) == (62, 10)       # 5 ops above, 2 runs each
    assert pct == pytest.approx(100 * 12 / 17)


def test_tail_percentile_is_fixed_by_the_corpus_not_the_run_count():
    by_op = [[i] * 4 for i in range(1, 18)]
    value, pct, beyond = harness.tail_latency(by_op)
    assert (value, beyond) == (12, 20)
    assert pct == pytest.approx(100 * 12 / 17)


def test_tail_ranks_ops_by_their_median_run():
    by_op = [[i, i, 100 - i] for i in range(1, 18)]   # one slow run each
    value, _, _ = harness.tail_latency(by_op)
    assert value == 12


def test_times_are_scaled_to_the_nominal_host_speed():
    nominal = harness.REF_NOMINAL_S
    assert harness.at_nominal(1.0, [nominal] * 2) == pytest.approx(1.0)
    # the host runs at half speed: the reference takes twice as long
    assert harness.at_nominal(2.0, [2 * nominal] * 2) == pytest.approx(1.0)
    # the speed changes during the run: every sample counts the same
    assert harness.at_nominal(3.0, [nominal, nominal, 4 * nominal]) == \
        pytest.approx(1.5)


def test_probe_samples_the_reference_while_a_block_runs():
    import time
    probe = harness.SpeedProbe()
    probe.install()
    try:
        with probe:
            end = time.perf_counter() + 6 * harness.PROBE_S
            while time.perf_counter() < end:
                pass
    finally:
        probe.remove()
    assert len(probe.samples) >= 3
    assert 0 < probe.spent < 6 * harness.PROBE_S


def test_tail_needs_six_ops_run_twice():
    with pytest.raises(ValueError):
        harness.tail_latency([[1, 1]] * 5)
    with pytest.raises(ValueError):
        harness.tail_latency([[i] for i in range(20)])


class Instant(workloads.Workload):
    name = "instant"

    def build(self, seed, workdir=None):
        return [workloads.Op("op%d" % i, None) for i in range(6)]

    def run(self, op):
        return op.id

    def fingerprint(self, out):
        return out


def test_cheap_ops_repeat_after_the_first_pass():
    w = Instant()
    run = harness.Run(w, w.build(1), 1)
    run.passes(0.0, 2)
    runs = 1 + harness.MAX_REPEATS
    assert all(len(v) == runs for v in run.by_op.values())
    assert (run.attempted, run.failed) == (6 * runs, 0)


# ---------------------------------------------------------------------------
# self time

class ScriptedClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_child_time():
    tr = tracer.Tracer(clock=ScriptedClock([0, 1, 3, 7, 10, 12]))
    inner = tr.wrap("cylsets.inner", "cylsets", lambda: "x", span=False)
    outer = tr.wrap("certify.outer", "certify", lambda: inner(), span=True)
    with tr.recording("op1"):
        assert outer() == "x"
    assert tr.self_time == {"cylsets": 4, "certify": 5, "bench": 3}
    assert tr.busy == {"cylsets.inner": 4, "certify.outer": 9}
    assert tr.calls == {"cylsets.inner": 1, "certify.outer": 1}
    # one span for the op and one for the outer call, its child
    assert tr.spans == [["op", "op1", 0, 12, None],
                        ["certify.outer", "op1", 1, 10, 0]]


def test_recursive_calls_are_busy_once():
    tr = tracer.Tracer(clock=ScriptedClock([0, 1, 2, 4, 6, 8]))

    def rec(k):
        return k if k == 0 else wrapped(k - 1)

    wrapped = tr.wrap("ifs.rec", "ifs", rec, span=False)
    with tr.recording():
        wrapped(1)
    assert tr.calls["ifs.rec"] == 2
    assert tr.busy["ifs.rec"] == 5
    assert tr.self_time["ifs"] == 5


def test_calls_outside_recording_are_not_counted():
    tr = tracer.Tracer()
    f = tr.wrap("decide.f", "decide", lambda: 1, span=True)
    assert f() == 1
    assert tr.calls == {} and tr.spans == []


def test_install_patches_every_holder_and_uninstall_restores():
    certify = workloads.certify
    tstar = sys.modules["lipeq.tstar"]
    engine = tstar.ldiff
    mul = workloads.exactnum.ExactRatio.__mul__
    with tracer.Tracer() as tr:
        assert tstar.ldiff is not engine
        assert certify.ldiff is tstar.ldiff     # imported by name
        assert workloads.exactnum.ExactRatio.__mul__ is not mul
    assert tstar.ldiff is engine and certify.ldiff is engine
    assert workloads.exactnum.ExactRatio.__mul__ is mul
    assert tr.calls == {}


# ---------------------------------------------------------------------------
# independent checks

def test_address_checks():
    n = 3
    halves = [[(1,)], [(2,), (3, 1)], [(3, 2), (3, 3)]]
    assert checks.tiles_whole(n, halves) is None
    assert checks.tiles_whole(n, halves[:2]) is not None
    assert checks.groups_disjoint(n, [[(1,)], [(1, 2)]]) is not None
    assert checks.refines(n, [[(1, 1)], [(1, 2), (1, 3)], [(2,), (3,)]],
                          [[(1,)], [(2,), (3,)]]) is None
    assert checks.refines(n, [[(1, 3), (2,)], [(1, 1), (1, 2), (3,)]],
                          [[(1,)], [(2,), (3,)]]) is not None
    assert checks.nested_or_disjoint(n, [[(1, 1)], [(3,)]],
                                     [[(1,)], [(2,)]]) is None
    assert checks.nested_or_disjoint(n, [[(1, 1), (2,)]],
                                     [[(1,)], [(2,)]]) is not None


def test_witness_check_is_exact():
    doc = workloads.one45_doc()
    good = {"side": "right", "letter": 2, "k": 1, "k_prime": 0,
            "word": [1]}
    assert checks.witness(doc, good) is None
    assert checks.witness(doc, dict(good, k=2)) is not None


# ---------------------------------------------------------------------------
# output checks catch planted false accepts

@pytest.fixture
def one_pass(tmp_path):
    def make(workload, seed=1):
        run = harness.Run(workload, workload.build(seed, str(tmp_path)),
                          seed)
        run.one_pass()
        return run
    return make


SMALL = [("one45", workloads.one45_doc()),
         ("endratio64", workloads.endratio_doc(Fraction(1, 8)))]


def small_verify():
    return workloads.Verify(corpus=SMALL, mutated=("one45", "endratio64"))


def test_verify_passes_and_rejects_mutations(one_pass):
    run = one_pass(small_verify())
    assert run.attempted == 3 + 2 * len(workloads.MUTATION_KINDS)
    assert run.failed == 0


def test_every_mutation_changes_its_field():
    """A mutant equal to its source would be a valid certificate that the
    verify check expects to be rejected, whatever the seed."""
    import random
    certify = workloads.certify
    spec = workloads.specfile.spec_from_doc(workloads.one45_doc())
    doc = certify.cert_to_doc(spec, certify.build_certificate(spec))
    for seed in range(300):
        rng = random.Random(seed)
        for kind in workloads.MUTATION_KINDS:
            bad = workloads.mutate(doc, kind, rng)
            assert bad != doc, (seed, kind)
            with pytest.raises(workloads.REJECTIONS):
                certify.verify_cert_doc(spec, bad)


def plant_false_accept(monkeypatch):
    """``lipeq verify`` reads certificates without validating them."""
    certify = workloads.certify
    monkeypatch.setattr(workloads.cli, "verify_cert_doc",
                        lambda spec, doc: certify.cert_from_doc(doc))


def test_planted_false_accept_raises_fail_rate(monkeypatch, one_pass):
    plant_false_accept(monkeypatch)
    run = one_pass(small_verify())
    run.one_pass()
    metrics, notes = harness.end_to_end(run, setup_s=1.0)
    # each mutated document is accepted, and fails again on the 2nd pass
    assert run.failed == 2 * 2 * len(workloads.MUTATION_KINDS)
    assert metrics["pass_rate"][0] == pytest.approx(1 - 12 / 18)
    assert "12 failed / 18 attempted" in notes["pass_rate"]


def test_every_repeated_run_of_a_false_accept_fails(monkeypatch, tmp_path):
    plant_false_accept(monkeypatch)
    monkeypatch.setattr(harness, "REPEAT_S", 1e9)   # repeat every op
    w = small_verify()
    run = harness.Run(w, w.build(1, str(tmp_path)), 1)
    run.passes(0.0, 2)
    mutants = [op_id for op_id in run.by_op
               if not op_id.startswith(("intact/", "depth"))]
    assert len(mutants) == 2 * len(workloads.MUTATION_KINDS)
    runs = [len(run.by_op[op_id]) for op_id in mutants]
    assert runs == [1 + harness.MAX_REPEATS] * len(mutants)
    assert run.failed == sum(runs)
    assert set(run.failures) == set(mutants)


def test_certify_check_catches_a_corrupt_document(monkeypatch, one_pass):
    cli = workloads.cli
    real = cli.cert_to_doc

    def corrupt(spec, cert):
        doc = real(spec, cert)
        doc["edges"][0]["pieces"][0]["t_offset"] = "1/2"
        return doc

    corpus = [("one45", workloads.one45_doc())]
    assert one_pass(workloads.Certify(corpus)).failed == 0
    monkeypatch.setattr(cli, "cert_to_doc", corrupt)
    assert one_pass(workloads.Certify(corpus)).failed == 1


def test_decide_check_holds_verdicts_to_the_reference(monkeypatch, one_pass):
    doc = workloads.spec_doc(
        [Fraction(1, 2), Fraction(1, 12), Fraction(1, 3)],
        [0, Fraction(1, 2), Fraction(2, 3)])
    ref = {workloads.digest(doc): "not_equivalent"}
    corpus = [("indep", doc), ("one45", workloads.one45_doc())]
    ref[workloads.digest(corpus[1][1])] = "equivalent"
    assert one_pass(workloads.Decide(corpus, ref)).failed == 0

    cli = workloads.cli
    real = cli.analyze_report

    def always_equivalent(spec, budget):
        report, verdict = real(spec, budget)
        report["verdict"] = "equivalent"
        report["witnesses"] = [{"side": "right", "letter": 1, "k": 1,
                                "k_prime": 0, "word": [1],
                                "source": "planted"}]
        return report, verdict

    monkeypatch.setattr(cli, "analyze_report", always_equivalent)
    assert one_pass(workloads.Decide(corpus, ref)).failed == 2


def test_partition_checks_catch_a_missing_piece(monkeypatch, one_pass):
    corpus = [("one45", workloads.one45_doc())]
    assert one_pass(workloads.Partition(corpus, kmax=3)).failed == 0
    patches = workloads.patches
    real = patches.partition_S
    monkeypatch.setattr(patches, "partition_S",
                        lambda spec, k: real(spec, k)[:-1] +
                        [real(spec, k)[-1][1:]])
    run = one_pass(workloads.Partition(corpus, kmax=3))
    assert {"one45/S1", "one45/S2", "one45/S3"} <= set(run.failures)


def test_a_crash_is_a_failure(monkeypatch, one_pass):
    def boom(spec, k):
        raise RuntimeError("planted")

    monkeypatch.setattr(workloads.patches, "c_family", boom)
    run = one_pass(workloads.Partition([("one45", workloads.one45_doc())],
                                       kmax=2))
    assert {"one45/C1", "one45/C2"} <= set(run.failures)


# ---------------------------------------------------------------------------
# the contract file

def test_benchmark_json_names_the_reported_metrics(one_pass):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == \
        [m[0] for m in harness.PER_LAYER]
    assert [m["unit"] for m in spec["per_layer"]] == \
        [m[1] for m in harness.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
    run = one_pass(small_verify())
    run.one_pass()
    metrics, _ = harness.end_to_end(run, setup_s=1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: u for k, (_, u) in metrics.items()}
