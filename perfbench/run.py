#!/usr/bin/env python3
"""Outside-in benchmark for aihs: build, verify, chain and sweep.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, in this process, through the public entry point
``aihs.cli.main``.  The seed draws the workload's inputs.  For ``--seconds``
the benchmark repeats one cycle: the call that makes the artifact (``aihs
build``, ``chain`` or ``sweep``), then the audit of what it wrote (``aihs
verify`` on each certificate; the chain transcript is read back through
``aihs.serialize``).  Every cycle passes the correctness gate in
``workloads.py`` and must write the same bytes as the first one.

``--trace 0`` reports the end-to-end metrics; set-up time is sampled in
fresh interpreters between cycles.  ``--trace 1`` runs untraced cycles for the first half
of the time and traced ones (see ``tracer.py``) for the second, and reports
the per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.  A result file with the environment
record, the raw samples and the artifact hashes goes to ``.perfbench_out/``.
The exit code is 0 only when every operation passed the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads; the set-up interpreters inherit it.
# With the default one thread per core, small-matrix BLAS calls on a shared
# two-core machine spent most of their time handing work between threads,
# and the run-to-run spread of the audit time was too wide to bound.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import envinfo  # noqa: E402
import tracer as trc  # noqa: E402
import workloads as wls  # noqa: E402

# The end-to-end metrics BENCHMARK.json bounds, and the ones only reported.
# Every cycle repeats identical work, so the spread between its calls is the
# machine's; host load comes in phases of several seconds that move medians
# and tails by 10-20 % between runs, while the fastest call stays within a
# few percent.  See README.md.
END_TO_END = {
    "setup_s": "s",
    "produce_min_s": "s",
    "audit_min_s": "s",
    "peak_rss_mb": "MB",
}
REPORTED = {
    "produce_s": "s",
    "produce_s_tail": "s",
    "audit_s": "s",
    "audit_s_tail": "s",
    "certified_per_s": "1/s",
    "failure_ratio": "ratio",
}
SETUP_REPEATS = 5
# untraced cycles repeat a cheap audit until this much audit time has
# accumulated, so that a 0.1 s audit gets as many samples as a 2 s one
AUDIT_BUDGET_S = 0.5
AUDIT_MAX_REPEATS = 20
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

# one set-up in a fresh interpreter: import the CLI, load and validate the config
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import aihs.cli; "
    "from aihs.config import load_config, validate_config; "
    "validate_config(load_config(sys.argv[2]), sys.argv[3])"
)


class CheckoutError(Exception):
    """The directory holds no aihs source tree to benchmark."""


def load_cli(root: Path):
    """``aihs.cli.main`` imported from ``root/src``, and nowhere else."""
    src = root / "src"
    cli_file = src / "aihs" / "cli.py"
    if not cli_file.is_file():
        raise CheckoutError(f"no aihs source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import aihs.cli

    if Path(aihs.cli.__file__).resolve() != cli_file.resolve():
        raise CheckoutError(f"aihs was imported from {aihs.cli.__file__}, not {src}")
    return aihs.cli.main


def call_cli(main, argv: list[str]):
    """(exit code, captured output, wall seconds) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a raising call is a failed operation, not a crash
            code = "exception"
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds


@dataclasses.dataclass
class Cycle:
    produce_s: float
    audit_s: list[float]  # one entry per audit of everything the call produced
    certified: int
    hashes: dict


def audit_once(wl: wls.Workload, paths: list[Path], tolerances: list[float], main) -> float:
    """Audit every artifact of one produce call, gated; returns its wall time."""
    if wl.command == "chain":
        ser = sys.modules["aihs.serialize"]
        start = time.perf_counter()
        doc = ser.decode_value(ser.read_json(paths[0]))
        seconds = time.perf_counter() - start
        wls.check_transcript(doc, wl.expect)
        return seconds
    total = 0.0
    for cert, tol_audit in zip(wls.certificates(paths), tolerances):
        code, output, seconds = call_cli(main, ["verify", str(cert)])
        total += seconds
        wls.check_audit(code, output, tol_audit, wl.expect)
    return total


def run_cycle(wl: wls.Workload, cfg: dict, cfg_path: Path, outdir: Path, main, tracer=None,
              audit_budget: float = 0.0) -> Cycle:
    """One produce call and its audits, gated; raises GateError on a mismatch."""
    paths = wls.artifact_paths(wl, cfg, outdir)
    if tracer is not None:
        tracer.phase = "produce"
    code, output, produce_s = call_cli(
        main, [wl.command, "--config", str(cfg_path), "--out", str(outdir)]
    )
    tolerances = wls.check_produce(wl, code, output, paths)
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}

    if tracer is not None:
        tracer.phase = "audit"
    audits = [audit_once(wl, paths, tolerances, main)]
    while sum(audits) < audit_budget and len(audits) < AUDIT_MAX_REPEATS:
        audits.append(audit_once(wl, paths, tolerances, main))
    return Cycle(produce_s, audits, max(len(tolerances), 1), hashes)


class Runner:
    """Repeats gated cycles against one workload input."""

    def __init__(self, wl, cfg, cfg_path: Path, workdir: Path, main):
        self.wl, self.cfg, self.cfg_path, self.workdir, self.main = wl, cfg, cfg_path, workdir, main
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict | None = None

    def cycle(self, tracer=None, audit_budget: float = 0.0) -> Cycle | None:
        index = self.attempted
        self.attempted += 1
        outdir = self.workdir / f"cycle-{index}"
        main = self.main if tracer is None else tracer.wrap("cli.main", self.main)
        if tracer is not None:
            tracer.op = index
        try:
            result = run_cycle(self.wl, self.cfg, self.cfg_path, outdir, main, tracer, audit_budget)
            if self.reference is None:
                self.reference = result.hashes
            elif result.hashes != self.reference:
                differ = sorted(k for k in result.hashes if result.hashes[k] != self.reference.get(k))
                raise wls.GateError(f"artifact bytes differ from the first cycle: {differ}")
            return result
        except Exception as exc:  # every failure is counted and reported
            self.failures.append(f"cycle {index}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if tracer is not None:
                tracer.op = None
            shutil.rmtree(outdir, ignore_errors=True)

    def repeat(self, seconds: float, tracer=None, audit_budget: float = 0.0,
               between=None) -> list[Cycle]:
        """Cycles until one more would take their time past ``seconds``.

        At least one cycle runs.  ``between(progress)`` is called after each
        cycle, outside the timed budget, with the share of it used so far.
        """
        passed = []
        spent = 0.0
        count = 0
        while True:
            start = time.perf_counter()
            result = self.cycle(tracer, audit_budget)
            spent += time.perf_counter() - start
            count += 1
            if result is not None:
                passed.append(result)
            done = spent + spent / count > seconds
            if between is not None:
                between(1.0 if done else spent / seconds)
            if done:
                return passed


class SetupSampler:
    """Set-up times in fresh interpreters, spread over the run.

    Host load comes in phases of several seconds, so the samples are taken
    between cycles in proportion to the run's progress, not all at once.
    """

    def __init__(self, src: Path, cfg_path: Path, command: str, repeats: int):
        self.argv = [sys.executable, "-c", SETUP_CODE, str(src), str(cfg_path), command]
        self.repeats = repeats
        self.times: list[float] = []

    def __call__(self, progress: float) -> None:
        while len(self.times) < math.ceil(self.repeats * progress):
            start = time.perf_counter()
            subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - start)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it.

    That order statistic lies at or above the median only from 21 samples
    on; with fewer the maximum is reported instead, and the label says which.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 21:
        k = n - 11
        return ordered[k], f"p{100 * (k + 1) // n} of n={n}"
    return ordered[-1], f"max of n={n} (fewer than 21 samples)"


def _median(samples: list[float]) -> tuple[float, str]:
    return statistics.median(samples), f"median of n={len(samples)}"


def _fastest(samples: list[float]) -> tuple[float, str]:
    return min(samples), f"fastest of n={len(samples)}"


def end_to_end(cycles: list[Cycle], setup: list[float]) -> dict:
    """name -> (value, how it was taken), for END_TO_END and the timings of REPORTED."""
    if not cycles:
        return {name: (0.0, "no passing operation") for name in {**END_TO_END, **REPORTED}}
    produce = [c.produce_s for c in cycles]
    audit = [s for c in cycles for s in c.audit_s]
    # a certified artifact costs one produce call and one audit
    busy = sum(produce) + sum(c.audit_s[0] for c in cycles)
    certified = sum(c.certified for c in cycles)
    return {
        "setup_s": _median(setup),
        "produce_min_s": _fastest(produce),
        "audit_min_s": _fastest(audit),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "ru_maxrss"),
        "produce_s": _median(produce),
        "produce_s_tail": tail(produce),
        "audit_s": _median(audit),
        "audit_s_tail": tail(audit),
        "certified_per_s": (certified / busy, f"{certified} artifacts in {busy:.3f} s"),
    }


def run(wl: wls.Workload, seed: int, seconds: float, trace: bool, root: Path = HERE.parent,
        smoke: bool = False, main=None) -> dict:
    """Run one workload; returns the full report (see ``report["result"]``)."""
    cli_main = load_cli(root)
    main = main or cli_main
    env = envinfo.environment()
    cfg = wls.make_config(wl, seed, smoke)
    workdir = root / WORK_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cfg_path = workdir / f"{wl.name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True), encoding="utf-8")
        runner = Runner(wl, cfg, cfg_path, workdir, main)
        report = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "smoke": smoke, "environment": env}
        if trace:
            metrics, reported = _traced(runner, seconds, report), {}
        else:
            setup = SetupSampler(root / "src", cfg_path, wl.command, 2 if smoke else SETUP_REPEATS)
            cycles = runner.repeat(seconds, audit_budget=AUDIT_BUDGET_S, between=setup)
            stats = end_to_end(cycles, setup.times)
            metrics = {name: (*stats[name], unit) for name, unit in END_TO_END.items()}
            reported = {name: (*stats[name], unit) for name, unit in REPORTED.items()
                        if name in stats}
            report["samples"] = {
                "setup_s": setup.times,
                "produce_s": [c.produce_s for c in cycles],
                "audit_s": [c.audit_s for c in cycles],
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left only while another run uses it
            workdir.parent.rmdir()
    failed = len(runner.failures)
    reported["failure_ratio"] = (
        failed / runner.attempted, f"{failed} of {runner.attempted} operations", "ratio")
    report["artifact_sha256"] = runner.reference
    report["failures"] = runner.failures
    report["metrics"] = {name: {"value": v, "how": how, "unit": u} for name, (v, how, u) in metrics.items()}
    report["reported"] = {name: {"value": v, "how": how, "unit": u} for name, (v, how, u) in reported.items()}
    report["result"] = {
        "correct": not runner.failures and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, _, u) in metrics.items()},
    }
    return report


def _traced(runner: Runner, seconds: float, report: dict) -> dict:
    plain = runner.repeat(seconds / 2)
    tracer = trc.Tracer()
    first_traced = runner.attempted
    tracer.install()
    try:
        traced = runner.repeat(seconds / 2, tracer)
    finally:
        tracer.uninstall()
    ops = range(first_traced, runner.attempted)
    values = trc.layer_metrics(tracer.spans, ops)
    if plain and traced and values:  # fastest against fastest, as produce_min_s
        values["trace.overhead_s"] = (
            min(c.produce_s for c in traced) - min(c.produce_s for c in plain)
        )
    report["layer_shares"] = trc.layer_shares(tracer.spans, ops)
    report["spans"] = tracer.to_json()
    report["samples"] = {
        "untraced_produce_s": [c.produce_s for c in plain],
        "traced_produce_s": [c.produce_s for c in traced],
    }
    how = f"median over {len(traced)} traced operations"
    return {name: (values.get(name, 0.0), how, unit) for name, unit in trc.LAYER_METRICS.items()}


def write_report(report: dict, root: Path) -> Path:
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    spans = report.pop("spans", None)
    if spans is not None:
        (out / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    path = out / f"{stem}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True), encoding="utf-8")
    return path


def print_report(report: dict, path: Path) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"seconds={report['seconds']}")
    env = report["environment"]
    print(f"env: {env['cpu_model']}, nproc={env['nproc']}, caches={env['caches']}, "
          f"blas={env['blas']['numpy']['name']} threads={env['blas']['numpy']['threads']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    first = "per-layer, traced" if report["trace"] else "end-to-end, bounded in BENCHMARK.json"
    for title, section in ((first, "metrics"), ("reported only", "reported")):
        print(f" {title}:")
        for name, entry in report[section].items():
            print(f"  {name:32s} {entry['value']:.6g} {entry['unit']} ({entry['how']})")
    for phase, shares in report.get("layer_shares", {}).items():
        print(f"  {phase} self-time share: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in shares.items() if share >= 0.0005))
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print(f"wrote {path}")
    print(json.dumps(report["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small operators and two set-ups, for the benchmark's own tests")
    args = parser.parse_args(argv)
    root = HERE.parent
    try:
        report = run(wls.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     root=root, smoke=args.smoke)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_report(report, write_report(report, root))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
