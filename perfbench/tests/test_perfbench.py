"""Tests of the benchmark harness itself: checks, self time, fingerprints."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, checks, inputs, run, tracing  # noqa: E402
from perfbench.tracing import Span  # noqa: E402

run.import_package()

from cyclelattice.lattice_basis import semi_fundamental_basis  # noqa: E402
from cyclelattice.multigraph import parse_edge_list  # noqa: E402


@pytest.fixture(scope="module")
def small():
    inst = inputs.three_ec_instance("t", 8, 5)
    basis, _ = semi_fundamental_basis(parse_edge_list(inst.text))
    return inst, [sorted(c) for c in basis.cycles]


def test_checker_accepts_a_basis(small):
    inst, cycles = small
    assert checks.cycle_basis_problem(inst.edges, inst.n, inst.m, cycles) is None


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda cs: cs[:-1],
        lambda cs: cs[:-1] + [cs[0]],
        lambda cs: [cs[0][1:]] + cs[1:],
    ],
    ids=["dropped-cycle", "duplicated-cycle", "edge-removed"],
)
def test_checker_rejects_corrupted_basis_and_raises_fail_frac(small, tmp_path, corrupt):
    inst, cycles = small
    bad = corrupt(cycles)
    assert checks.cycle_basis_problem(inst.edges, inst.n, inst.m, bad) is not None

    runner = run.Runner(tmp_path)
    check = lambda cs: checks.cycle_basis_problem(inst.edges, inst.n, inst.m, cs)  # noqa: E731
    runner.call("semi_s", inst, lambda: lambda: cycles, check)
    assert run.fail_frac(runner.samples) == 0
    runner.call("semi_s", inst, lambda: lambda: bad, check)
    assert run.fail_frac(runner.samples) == 0.5


def test_checker_rejects_corrupted_basis_document(small, tmp_path):
    inst, _ = small
    runner = run.Runner(tmp_path)
    (tmp_path / "t.txt").write_text(inst.text, encoding="utf-8")
    argv = ["basis", "--method", "topological", runner.path(inst, ".txt")]
    stdout = runner.cli("topo_s", inst, argv, lambda out: None)
    assert checks.basis_doc_problem(inst, "topological", stdout) is None
    doc = json.loads(stdout)
    doc["cycles"] = doc["cycles"][1:] + doc["cycles"][:1] * 2
    assert checks.basis_doc_problem(inst, "topological", json.dumps(doc)) is not None


def _span(sid, parent, start, end, key="k"):
    return Span(sid, parent, key, start, end)


def test_self_time_of_nested_and_adjacent_spans():
    spans = [
        _span(0, None, 0.0, 10.0, "a"),
        _span(1, 0, 2.0, 5.0, "b"),  # nested in a
        _span(2, 1, 3.0, 4.0, "a"),  # nested in b, same key as the root
        _span(3, 0, 5.0, 7.0, "c"),  # adjacent to b
        _span(4, None, 10.0, 12.0, "c"),  # adjacent to the root
    ]
    assert tracing.self_times(spans) == [5.0, 2.0, 1.0, 2.0, 2.0]
    assert tracing.group_time(spans, {"a"}) == 10.0
    assert tracing.group_time(spans, {"b", "c"}) == 7.0


def test_tracer_records_parents_and_restores_functions(tmp_path):
    from cyclelattice import cli, oracle

    original = oracle.exact_determinant
    tracer = tracing.Tracer()
    runner = run.Runner(tmp_path, tracer)
    inst = inputs.three_ec_instance("t", 6, 1)
    (tmp_path / "t.txt").write_text(inst.text, encoding="utf-8")
    runner.cli("semi_s", inst, ["basis", runner.path(inst, ".txt")], lambda out: None)
    assert oracle.exact_determinant is original
    assert cli.json.dumps is json.dumps
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.key for s in roots] == [tracing.CLI_MAIN]
    keys = {s.key for s in tracer.spans}
    assert {"cyclelattice.oracle.exact_determinant", tracing.CLI_DUMPS} <= keys
    total = sum(tracing.self_times(tracer.spans))
    assert total == pytest.approx(roots[0].end - roots[0].start)


def test_fingerprint_mismatch_aborts_the_run(tmp_path, monkeypatch, capsys):
    pinned = inputs.load_pinned()
    pinned["certify_3ec"]["warmup"]["sha256"] = "0" * 64
    path = tmp_path / "fingerprints.json"
    path.write_text(json.dumps(pinned), encoding="utf-8")
    monkeypatch.setattr(inputs, "FINGERPRINT_FILE", path)
    code = run.main(["--workload", "certify_3ec", "--seed", "5", "--seconds", "1"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_default_seed_pins_the_timed_instances():
    pinned = inputs.load_pinned()
    warmup = inputs.warmup_instance("certify_3ec")
    good = inputs.generate("certify_3ec", inputs.DEFAULT_SEED)
    inputs.check_fingerprints("certify_3ec", inputs.DEFAULT_SEED, warmup, good, pinned)
    other = inputs.generate("certify_3ec", inputs.DEFAULT_SEED + 1)
    with pytest.raises(inputs.FingerprintMismatch):
        inputs.check_fingerprints("certify_3ec", inputs.DEFAULT_SEED, warmup, other, pinned)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    samples = [run.Sample("semi_s", "t", 1.0, None), run.Sample("semi_s", "t", 1.1, None, traced=True)]
    layer = run.traced_metrics([run.Pass(samples, tracing.Tracer(), True)])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracing.unit_of(name) for name in layer
    }


def test_library_calls_are_traced_at_their_entry_points(tmp_path):
    tracer = tracing.Tracer()
    runner = run.Runner(tmp_path, tracer)
    run.run_instance("construct_large", inputs.three_ec_instance("t", 10, 2), runner)
    assert run.fail_frac(runner.samples) == 0
    roots = [s.key for s in tracer.spans if s.parent is None]
    assert roots == [
        "cyclelattice.lattice_basis.semi_fundamental_basis",
        "cyclelattice.topo_extension.compatible_chain",
    ]


def test_gauge_factor_is_robust_to_one_slow_kernel_run(monkeypatch):
    times = iter([0.010] * 5 + [0.050] + [0.020] * 14)
    monkeypatch.setattr(calibrate, "sample", lambda: next(times))
    gauge = calibrate.Gauge()
    reference = calibrate.REFERENCE_S
    assert gauge.factor(0.0) == pytest.approx(reference / 0.010)
    assert gauge.factor(0.5) == pytest.approx(reference / 0.010)  # ran 3 times
    assert gauge.factor(0.0) == pytest.approx(reference / 0.010)  # 0.050 is outvoted
    assert gauge.factor(10.0) == pytest.approx(reference / 0.020)  # ran 7 times
    assert gauge.factor(10.0) == pytest.approx(reference / 0.020)
    assert len(gauge.samples) == calibrate.Gauge.WINDOW


def test_calls_are_scaled_by_the_host_speed(small, tmp_path):
    inst, cycles = small
    runner = run.Runner(tmp_path, gauge=calibrate.Gauge())
    runner.call("semi_s", inst, lambda: lambda: cycles, lambda cs: None)
    (sample,) = runner.samples
    assert sample.speed > 0
    assert sample.scaled == sample.seconds * sample.speed
    assert run.Runner(tmp_path).gauge is None  # warm-up calls are not scaled
