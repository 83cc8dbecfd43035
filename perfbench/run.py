#!/usr/bin/env python3
"""Benchmark of the cyclelattice package, one workload per process.

    python3 perfbench/run.py --workload certify_3ec --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --pin                   # rewrite fingerprints.json

Run it from the root of a checkout; it imports the package from `src/`.
The load is a closed loop with one client: each call starts when the
previous one has returned.  CLI commands run in this process through
`cyclelattice.cli.main` with stdout captured.  The last line of stdout is
one JSON object: end-to-end metrics with `--trace 0`, per-layer metrics
with `--trace 1`.  End-to-end timings are scaled to the speed of a
reference host, measured next to every call (calibrate.py).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, checks, inputs, tracing  # noqa: E402

WORKLOADS = ("certify_3ec", "construct_large", "reduce_non3ec")
SETUP_REPEATS = 5
DEFAULT_SECONDS = 30

# End-to-end metrics: name -> unit.  Each workload exercises a
# semi-fundamental and a topological operation (see README.md).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "semi_s": "s/call",
    "topo_s": "s/call",
    "peak_rss_mb": "MB",
}
# The summary also prints these, on the workloads that run them.
SUMMARY_OPS = ("basis_simple_s", "verify_s", "extend_verify_s", "analyze_s", "hull_s")


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_package():
    """Import cyclelattice from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cyclelattice" / "__init__.py").is_file():
        raise SetupError(f"no package source under {src}")
    sys.path.insert(0, str(src))
    import cyclelattice.cli  # noqa: F401

    if Path(sys.modules["cyclelattice"].__file__).resolve().parent != src / "cyclelattice":
        raise SetupError("cyclelattice was imported from outside the checkout")


@dataclass
class Sample:
    op: str
    instance: str
    seconds: float
    problem: str | None
    output_bytes: int = 0
    traced: bool = False
    speed: float = 1.0  # the host's speed factor around the call

    @property
    def scaled(self) -> float:
        """The call time on the reference host (see calibrate.py)."""
        return self.seconds * self.speed


@dataclass
class Runner:
    """Times one call at a time and checks each output outside the timing.

    With a tracer, every call runs twice, plain and traced, in alternating
    order, so the tracing overhead is measured on neighbouring calls.  With
    a gauge, the host's speed is sampled right after every call.
    """

    workdir: Path
    tracer: tracing.Tracer | None = None
    gauge: calibrate.Gauge | None = None
    samples: list[Sample] = field(default_factory=list)
    _calls: int = 0

    def _modes(self) -> tuple[bool, ...]:
        if self.tracer is None:
            return (False,)
        self._calls += 1
        return (False, True) if self._calls % 2 else (True, False)

    def _timed(self, func, traced: bool, root: str | None = None):
        """(result, seconds, speed, error) of one call.

        The tracer is installed for the call only, so preparing inputs and
        checking outputs leave no spans.
        """
        tracer = self.tracer if traced else None
        gc.collect()
        if tracer:
            tracer.install()
        span = tracer.begin(root) if tracer and root else None
        start = perf_counter()
        result, error = None, None
        try:
            result = func()
        except Exception as exc:  # a failed call is recorded; the run goes on
            error = f"exception {exc!r}"
        finally:
            seconds = perf_counter() - start
            if span:
                tracer.finish(span)
            if tracer:
                tracer.uninstall()
        speed = self.gauge.factor(seconds) if self.gauge else 1.0
        return result, seconds, speed, error

    def cli(self, op: str, inst, argv: list[str], check) -> str | None:
        """Run a CLI command; the checked stdout, or None when it failed."""
        from cyclelattice import cli

        checked = None
        for traced in self._modes():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code, seconds, speed, error = self._timed(
                    lambda: cli.main(argv), traced, tracing.CLI_MAIN
                )
            stdout = out.getvalue()
            if error or code != 0:
                problem = error or f"exit {code}: {err.getvalue().strip()[:200]}"
            else:
                problem = _checked(check, stdout)
            size = len(stdout.encode("utf-8"))
            self.samples.append(Sample(op, inst.name, seconds, problem, size, traced, speed))
            if not traced and not problem:
                checked = stdout
        return checked

    def call(self, op: str, inst, prepare, check):
        """Time the call that prepare() returns; both prepare and check(result)
        run outside the timing."""
        for traced in self._modes():
            result, seconds, speed, error = self._timed(prepare(), traced)
            problem = error or _checked(check, result)
            self.samples.append(Sample(op, inst.name, seconds, problem, 0, traced, speed))

    def path(self, inst, suffix: str) -> str:
        return str(self.workdir / f"{inst.name}{suffix}")


def _checked(check, output) -> str | None:
    try:
        return check(output)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        return f"malformed output: {exc!r}"


def _basis_ops(runner: Runner, inst):
    """basis with each method, then verify of the emitted semi document."""
    graph = runner.path(inst, ".txt")
    semi_doc = runner.cli(
        "semi_s",
        inst,
        ["basis", "--method", "semi-fundamental", graph],
        lambda out: checks.basis_doc_problem(inst, "semi-fundamental", out),
    )
    for op, method in (("topo_s", "topological"), ("basis_simple_s", "simple")):
        runner.cli(
            op,
            inst,
            ["basis", "--method", method, graph],
            lambda out, method=method: checks.basis_doc_problem(inst, method, out),
        )
    if semi_doc is None:
        runner.samples.append(Sample("verify_s", inst.name, 0.0, "no document to verify"))
        return
    doc_path = runner.path(inst, ".semi.json")
    Path(doc_path).write_text(semi_doc, encoding="utf-8")
    runner.cli("verify_s", inst, ["verify", graph, doc_path], checks.verify_doc_problem)


def run_instance(workload: str, inst, runner: Runner):
    """The workload's operations on one instance, one call after another."""
    if workload == "construct_large":
        from cyclelattice import lattice_basis, topo_extension
        from cyclelattice.multigraph import parse_edge_list, spanning_forest

        def check(cycles):
            return checks.cycle_basis_problem(inst.edges, inst.n, inst.m, cycles)

        # Each call gets freshly parsed graph objects, so that no call reuses
        # properties an earlier call cached on them.
        def semi():
            G = parse_edge_list(inst.text)
            T = spanning_forest(G)
            return lambda: lattice_basis.semi_fundamental_basis(G, T)[0].cycles

        def topo():
            G = parse_edge_list(inst.text)
            # looked up at call time, so the traced call reaches the wrapper
            return lambda: topo_extension.compatible_chain(
                G, keep_prefixes=False
            ).final_basis.cycles

        runner.call("semi_s", inst, semi, check)
        runner.call("topo_s", inst, topo, check)
        return
    graph = runner.path(inst, ".txt")
    if workload == "certify_3ec":
        _basis_ops(runner, inst)
        runner.cli(
            "extend_verify_s",
            inst,
            ["extend", "--verify", graph],
            lambda out: checks.extend_doc_problem(inst, out),
        )
        return
    runner.cli(
        "analyze_s", inst, ["analyze", graph], lambda out: checks.analyze_doc_problem(inst, out)
    )
    _basis_ops(runner, inst)
    runner.cli(
        "hull_s",
        inst,
        ["hull", "--char", "3", graph],
        lambda out: checks.hull_doc_problem(inst, out),
    )


def setup(workload: str, seed: int, workdir: Path):
    """Generate and write the inputs and warm up every command once.

    Returns (seconds, warm-up instance, instances, warm-up samples).
    """
    start = perf_counter()
    warmup = inputs.warmup_instance(workload)
    instances = inputs.generate(workload, seed)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for inst in [warmup, *instances]:
        (workdir / f"{inst.name}.txt").write_text(inst.text, encoding="utf-8")
    runner = Runner(workdir)
    run_instance(workload, warmup, runner)
    return perf_counter() - start, warmup, instances, runner.samples


@dataclass
class Pass:
    """One pass over the instances; the last pass of a run may stop early."""

    samples: list[Sample]
    tracer: tracing.Tracer | None
    complete: bool


def wall(samples: list[Sample], traced: bool = False) -> float:
    """Time of a pass: the sum of its plain (or traced) call times."""
    return sum(s.seconds for s in samples if s.traced == traced)


def measure(workload: str, instances, workdir: Path, seconds: float, trace: bool, gauge):
    """Passes of the fixed batch until `seconds` have passed.

    The first pass always completes.  Later passes stop at the deadline,
    between two instances.
    """
    start = perf_counter()
    passes: list[Pass] = []
    while True:
        runner = Runner(workdir, tracing.Tracer() if trace else None, gauge)
        for inst in instances:
            if passes and perf_counter() - start > seconds:
                passes.append(Pass(runner.samples, runner.tracer, False))
                return passes
            run_instance(workload, inst, runner)
        passes.append(Pass(runner.samples, runner.tracer, True))
        if perf_counter() - start > seconds:
            return passes


def fail_frac(samples: list[Sample]) -> float:
    """Failed calls over attempted calls; a call fails on any problem."""
    return sum(1 for s in samples if s.problem) / len(samples)


def _median_of(samples: list[Sample], op: str) -> float:
    return statistics.median(s.scaled for s in samples if s.op == op)


def _tail(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return "no tail percentile (under 40 samples)"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    gauge = calibrate.Gauge()
    start = perf_counter()
    import_package()
    import_s = perf_counter() - start
    import_s *= gauge.factor(import_s)
    pinned = inputs.load_pinned()
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_s, *rest = setup(workload, seed, workdir)
            setups.append((setup_s * gauge.factor(setup_s), *rest))
        _, warmup, instances, _ = setups[-1]
        inputs.check_fingerprints(workload, seed, warmup, instances, pinned)
        passes = measure(workload, instances, workdir, seconds, trace, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    samples = [s for _, _, _, warm in setups for s in warm]
    samples += [s for p in passes for s in p.samples]
    failed = [s for s in samples if s.problem]
    complete = [p for p in passes if p.complete]
    plain = [s for p in passes for s in p.samples if not s.traced]
    wall_s = statistics.median(
        sum(s.scaled for s in p.samples if not s.traced) for p in complete
    )
    speeds = [s.speed for s in plain]

    print(f"workload {workload}  seed {seed}  instances {len(instances)}  "
          f"passes {len(complete)} complete, {len(passes) - len(complete)} partial"
          f"{'; every call plain and traced' if trace else ''}")
    for inst in instances:
        fp = inst.fingerprint()
        print(f"  input {fp['name']}: n={fp['n']} m={fp['m']} "
              f"cosimplified n={fp['hat_n']} m={fp['hat_m']} sha256={fp['sha256'][:16]}")
    for s in failed:
        print(f"  FAILED {s.op} on {s.instance}: {s.problem}")
    print(f"  fail_frac {fail_frac(samples):.4f} ratio "
          f"({len(failed)} failed of {len(samples)} calls, warm-up included)")

    if trace:
        metrics = traced_metrics(complete)
        units = {name: tracing.unit_of(name) for name in metrics}
        traced_wall = statistics.median(wall(p.samples, traced=True) for p in complete)
        print(f"  traced wall_s {traced_wall:.4f} s per pass, plain "
              f"{wall(complete[0].samples):.4f} s, both as measured")
        for line in design_checks(workload, metrics, traced_wall):
            print(f"  design check: {line}")
    else:
        metrics = {
            "setup_s": import_s + statistics.median(s[0] for s in setups),
            "wall_s": wall_s,
            "semi_s": _median_of(plain, "semi_s"),
            "topo_s": _median_of(plain, "topo_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        print(f"  host speed factor {statistics.median(speeds):.3f} median, "
              f"{min(speeds):.3f} to {max(speeds):.3f}; timings below are scaled by it")
        for op in ("semi_s", "topo_s", *SUMMARY_OPS):
            values = [s.scaled for s in plain if s.op == op]
            if values:
                raw = statistics.median(s.seconds for s in plain if s.op == op)
                print(f"  {op} {statistics.median(values):.4f} s/call median "
                      f"({raw:.4f} as measured), {_tail(values)}, {len(values)} calls")
        out_bytes = sum(s.output_bytes for s in complete[0].samples)
        if out_bytes:
            print(f"  output_mb {out_bytes / 1e6:.6f} MB of CLI stdout per pass "
                  f"({out_bytes} bytes)")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    return {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def traced_metrics(passes: list[Pass]) -> dict[str, float]:
    """Per-layer metrics, averaged over complete passes, and trace overhead.

    Every call ran plain and traced, so the overhead compares the two
    times of the same calls.
    """
    per_pass = []
    for p in passes:
        metrics = tracing.layer_metrics(p.tracer.spans, wall(p.samples, traced=True))
        metrics["cli.output_bytes"] = sum(s.output_bytes for s in p.samples if s.traced)
        per_pass.append(metrics)
    out = {name: statistics.fmean(m[name] for m in per_pass) for name in per_pass[0]}
    samples = [s for p in passes for s in p.samples]
    out["trace.overhead_frac"] = wall(samples, traced=True) / wall(samples) - 1
    return out


def design_checks(workload: str, m: dict, traced_wall: float) -> list[str]:
    """What the traced run must show for the workload to measure its layers."""
    def verdict(ok):
        return "PASS" if ok else "FAIL"

    if workload == "certify_3ec":
        ok = m["oracle.det_s"] >= traced_wall / 2
        return [f"{verdict(ok)} oracle.det_s {m['oracle.det_s']:.3f} s >= half of "
                f"traced wall_s {traced_wall:.3f} s"]
    if workload == "construct_large":
        ok = m["oracle.det_calls"] == 0
        return [f"{verdict(ok)} oracle.det_calls = {m['oracle.det_calls']:g}"]
    reduced = m["cycle_structure.self_s"] + m["multigraph.self_s"]
    ok = reduced > m["oracle.det_s"]
    return [f"{verdict(ok)} cycle_structure + multigraph self time {reduced:.3f} s > "
            f"oracle.det_s {m['oracle.det_s']:.3f} s"]


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    worst = 0
    for workload in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(argv, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite fingerprints.json")
    args = parser.parse_args(argv)
    try:
        if args.pin:
            import_package()
            inputs.pin()
            print(f"wrote {inputs.FINGERPRINT_FILE}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, inputs.FingerprintMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
