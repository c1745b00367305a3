"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from analysis import layer_times, nearest_rank, tail, tail_percentile  # noqa: E402
from run import Runner, spawn  # noqa: E402
from workloads import Construct, FileComplement, Op, random_transversal  # noqa: E402


@pytest.mark.parametrize("n, p", [(1, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75),
                                  (100, 90), (199, 90), (200, 95), (1000, 99), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert tail_percentile(n) == p
    if p is not None:
        values = sorted(range(n))
        value = nearest_rank(values, p)
        assert sum(v > value for v in values) >= 10


def test_tail_falls_back_to_median_and_names_it():
    value, label = tail([float(v) for v in range(40)])
    assert (value, label) == (29.0, "p75 of N=40")
    value, label = tail([3.0, 1.0, 2.0])
    assert value == 2.0 and label.startswith("p50 of N=3")


def test_self_time_of_nested_and_recursive_spans():
    names = ["op", "a", "b"]
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 1.0, 9.0, 0),   # a
        (2, 2.0, 4.0, 1),   # b inside a
        (1, 5.0, 8.0, 1),   # a inside a: recursion
        (2, 6.0, 7.0, 3),   # b inside the inner a
    ]
    times = layer_times(names, spans)
    assert times["op"] == [1, pytest.approx(2.0), pytest.approx(10.0)]
    assert times["a"] == [2, pytest.approx(3.0 + 2.0), pytest.approx(8.0)]
    assert times["b"] == [2, pytest.approx(3.0), pytest.approx(3.0)]
    assert sum(t[1] for t in times.values()) == pytest.approx(10.0)


def _traced(argv):
    result, _elapsed, reason = spawn({"kind": "cli", "argv": argv, "trace": True, "op_id": 7}, 60)
    assert reason is None and result["rc"] == 0
    return result["trace"]


def test_wrapper_catches_calls_the_library_makes_internally():
    report = _traced(["construct", "single-layer", "--lambda", "3,2", "--mu", "2,2"])
    names, spans = report["names"], report["spans"]
    assert report["absent"] == []
    assert all(s[4] == 7 for s in spans)

    def ancestors(i):
        while spans[i][3] >= 0:
            i = spans[i][3]
            yield names[spans[i][0]]

    rep_apply = [i for i, s in enumerate(spans) if names[s[0]] == "symrep.rep_apply"]
    assert len(rep_apply) == 5
    for i in rep_apply:
        assert "constructions.single_layer_ensemble" in ancestors(i)
    generator = [i for i, s in enumerate(spans) if names[s[0]] == "symrep.apply_generator"]
    assert generator and all(names[spans[spans[i][3]][0]] == "symrep.rep_apply" for i in generator)
    counters = report["counters"]
    assert counters["certify_cross_grams"] == 3 * counters["certify_pairs"] == 30
    assert counters["certify_svds"] == 2 * counters["certify_pairs"]


def test_random_transversals_pass_the_library_rule():
    from symfusion import Permutation
    from symfusion.permutations import validate_transversal

    for n in (4, 7, 12):
        for even in (False, True):
            texts = random_transversal(n, even, random.Random(n))
            assert texts == random_transversal(n, even, random.Random(n))
            validate_transversal([Permutation.parse(t) for t in texts], n, even=even)


def _exact(workload):
    result, _elapsed, reason = spawn(dict(workload.prep_request(0, Path("unused")), build=[], kind="prep"), 60)
    assert reason is None
    workload.accept_prep(result)


def test_construct_oracle_rejects_wrong_verdict_and_alpha():
    wl = Construct()
    _exact(wl)
    op = Op("I(3,3)", {"kind": "cli", "argv": []})
    good = "EITFF_R(210, 42, 10)\n  isoclinism alpha   : 0.111111111111\n"
    assert wl.check(op, {"rc": 0, "stdout": good}) is None
    assert wl.check(op, {"rc": 0, "stdout": good.replace("EITFF", "ECTFF")}) is not None
    assert wl.check(op, {"rc": 0, "stdout": good.replace("0.1111", "0.1112")}) is not None
    assert wl.check(op, {"rc": 4, "stdout": good}) is not None


def test_oracle_counts_a_non_tight_file_as_failed(tmp_path):
    from symfusion import FusionEnsemble, save_ensemble
    from symfusion.fusion import random_orthonormal_blocks

    bad = tmp_path / "not-tight.json"
    save_ensemble(FusionEnsemble.from_blocks(random_orthonormal_blocks(12, 3, 5, seed=1)), bad)
    wl = FileComplement()
    _exact(wl)
    wl.inputs = {row: bad for row in wl.rows}
    runner = Runner(wl, 0, tmp_path)
    ops = wl.round_ops(0, 0, tmp_path)
    samples = [runner.run_op(op) for op in ops[:2]]
    assert runner.attempted == 2 and len(runner.failures) == 2
    assert all(s["latency"] is not None for s in samples)
    assert not any(p.exists() for op in ops for p in op.files)
