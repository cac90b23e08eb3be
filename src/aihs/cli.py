"""Command-line front door: build, audit, and report on certificates.

Subcommands
-----------
build        run one construction from a JSON config; write the
             certificate (hex-float JSON) and a one-line CSV summary
verify       re-audit a stored certificate from scratch
chain        run the functional-chain recursion; write a JSON transcript
             with per-step property residuals and the dichotomy branch
sweep        run many build configs, aggregating one CSV row per run and
             continuing past per-run failures
probe-dense  emit the factorial-orbit extraction-error table

Exit codes: 0 every check passed; 2 hypothesis flags raised while every
numeric check passed; 1 any failure (validation, stage error, audit
mismatch, missing file, command-line usage).  Log level comes from the AIHS_LOG environment
variable; outputs land in --out (default: current directory) under the
config's label, falling back to the config file's stem.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import serialize as ser
from .blaschke import blaschke_sequence
from .chains import build_chain, build_non_ai_halfspace_witness, codim_n_subspace
from .config import (
    _complex_entries,
    load_config,
    seed_vector_from_config,
    tolerances_from_config,
    validate_config,
)
from .errors import AihsError, ArgumentError, ChainTerminated, StageError
from .halfspace import build_blaschke, build_entire, verify_certificate
from .operators import operator_digest, operator_from_config
from .resolvent import dense_subsequence_probe, probe_tail_oracle

__all__ = ["main"]

log = logging.getLogger("aihs.cli")

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNVERIFIED = 2


def _configure_logging() -> None:
    name = os.environ.get("AIHS_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _file_name(label: str, suffix: str) -> str:
    """``label``, each character but a letter, digit, ``-`` or ``_`` made ``-``, then ``suffix``."""
    return "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in label) + suffix


def _out_path(args, cfg: dict, suffix: str) -> Path:
    """``--out``/<label><suffix>, the label falling back to the config file's stem."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / _file_name(cfg.get("label") or Path(args.config).stem, suffix)


def _tolerances(args, cfg: dict):
    """The config's tolerances, updated by whichever --tol-* flags the subcommand takes."""
    flags = {key: value for key, value in vars(args).items() if key.startswith("tol_")}
    return tolerances_from_config(cfg.get("tolerances"), **flags)


def _blaschke_options(block: dict | None, m: int):
    """(lambdas-or-None, order, defect_cap) from the config's blaschke block."""
    if block is None:
        return None, None, None
    lambdas = None
    seq = block.get("sequence")
    if seq is not None:
        params = {"ratio": seq["ratio"]} if "ratio" in seq else {}
        if "values" in seq:
            params["values"] = _complex_entries(seq["values"])
        lambdas = blaschke_sequence(seq["kind"], m, **params)
    return lambdas, block.get("order"), block.get("defect_cap")


def _run_certificate(run_cfg: dict, args):
    """Execute one validated build config; returns the finished certificate."""
    seed = args.seed if args.seed is not None else run_cfg.get("seed", 0)
    rng = np.random.default_rng(seed)
    op = operator_from_config(run_cfg["operator"], rng)
    e = seed_vector_from_config(run_cfg.get("seed_vector"), op.dim)
    tol = _tolerances(args, run_cfg)
    if run_cfg["construction"] == "entire":
        cert = build_entire(op, e, run_cfg["m"], run_cfg["k_max"], tolerances=tol)
    else:
        lambdas, order, defect_cap = _blaschke_options(run_cfg.get("blaschke"), run_cfg["m"])
        cert = build_blaschke(
            op,
            e,
            run_cfg["m"],
            run_cfg["k_max"],
            lambdas=lambdas,
            order=order,
            tolerances=tol,
            defect_cap=defect_cap,
        )
    echo = {"config": run_cfg, "seed": seed, "label": run_cfg.get("label", "")}
    return op, dataclasses.replace(cert, config_echo=echo)


def _outcome(cert) -> tuple[int, str, str]:
    """(exit code, build verdict, sweep status) of a finished certificate."""
    if not cert.passed:
        return EXIT_FAIL, "FAIL", "fail"
    if cert.hypothesis_unverified:
        return EXIT_UNVERIFIED, "PASS (hypothesis unverified)", "hypothesis-unverified"
    return EXIT_PASS, "PASS", "pass"


def _print_checks(cert) -> None:
    for name in sorted(cert.checks):
        chk = cert.checks[name]
        verdict = "ok" if chk["passed"] else "FAIL"
        print(f"  {name}: value={chk['value']:.6e} threshold={chk['threshold']:.1e} {verdict}")
    for flag in cert.hypothesis.get("flags", []):
        print(f"  hypothesis flag: {flag}")


def cmd_build(args) -> int:
    cfg = validate_config(load_config(args.config), "build")
    op, cert = _run_certificate(cfg, args)
    cert_path = _out_path(args, cfg, ".cert.json")
    ser.write_certificate(cert_path, cert)
    csv_path = _out_path(args, cfg, ".summary.csv")
    ser.write_csv(csv_path, ser.CERT_CSV_COLUMNS, [ser.certificate_csv_row(cert)])
    print(f"{cert.construction} certificate: m={cert.m_achieved}/{cert.m_requested} "
          f"k_max={cert.k_max} dim={op.dim}")
    _print_checks(cert)
    print(f"wrote {cert_path}")
    print(f"wrote {csv_path}")
    code, verdict, _ = _outcome(cert)
    print(verdict)
    return code


def _operator_for_certificate(cert, args):
    """Rebuild the audited operator from --config, else from the config echo, each
    checked as a config, with --seed or the source's own seed; it must have the
    stored dim, family and digest."""
    echo = cert.config_echo
    if args.config:
        source, cfg = args.config, load_config(args.config)
    elif echo.get("config"):
        source, cfg = "the config echo", echo["config"]
        if isinstance(cfg, dict) and "seed" in echo:  # the seed the build ran with
            cfg = {**cfg, "seed": echo["seed"]}
    else:
        raise ArgumentError("the certificate has no config echo; "
                            "pass --config to rebuild the operator")
    cfg, stored = validate_config(cfg, "verify"), cert.operator_config
    if cfg["operator"]["dim"] != stored["dim"]:  # checked before building anything
        raise ArgumentError(f"operator dim {cfg['operator']['dim']!r} from {source} "
                            f"does not match the certificate's {stored['dim']}")
    seed = cfg.get("seed", 0) if args.seed is None else args.seed
    op = operator_from_config(cfg["operator"], np.random.default_rng(seed))
    if op.family.value != stored["family"] or operator_digest(op) != stored["sha256"]:
        raise ArgumentError(f"the operator rebuilt from {source} does not match "
                            "the stored family and digest")
    return op


def cmd_verify(args) -> int:
    path = Path(args.certificate)
    if not path.is_file():
        print(f"error: certificate file not found: {path}", file=sys.stderr)
        return EXIT_FAIL
    try:
        cert = ser.read_certificate(path)
    except (ArgumentError, KeyError, TypeError, ValueError) as exc:
        # the schema, an array's shape or a hex float rejected the document
        print(f"error: cannot parse certificate {path}: {exc}", file=sys.stderr)
        return EXIT_FAIL
    op = _operator_for_certificate(cert, args)
    report = verify_certificate(op, cert, tolerances=_tolerances(args, {}))
    for name in sorted(report["metrics"]):
        entry = report["metrics"][name]
        verdict = "ok" if entry["agrees"] and entry["threshold_passed"] else "FAIL"
        print(f"  {name}: stored={entry['stored']:.6e} recomputed={entry['recomputed']:.6e} {verdict}")
    if report["failures"]:
        print("audit FAIL: " + "; ".join(report["failures"]))
        return EXIT_FAIL
    print(f"audit PASS (raw vector drift {report['raw_vector_drift']:.3e})")
    return EXIT_UNVERIFIED if cert.hypothesis_unverified else EXIT_PASS


def cmd_chain(args) -> int:
    cfg = validate_config(load_config(args.config), "chain")
    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    op = operator_from_config(cfg["operator"], np.random.default_rng(seed))
    z1 = seed_vector_from_config(cfg.get("seed_vector"), op.dim)
    depth = cfg["depth"]

    stop = None
    try:
        state = build_chain(op, depth, z1=z1)
        outcome = {"branch": "deep-chain", "depth_reached": state.depth}
    except ChainTerminated as exc:
        stop, state = exc, exc.state
        outcome = {"branch": "invariant-subspace", "depth_reached": state.depth,
                   "invariance_residual": stop.invariance_residual, "verified": stop.verified}
    steps = [{"depth": k, "properties": report} for k, report in enumerate(state.reports, 1)]

    doc = {
        "schema": ser.CHAIN_SCHEMA_ID,
        "operator": cfg["operator"],
        "seed": seed,
        "depth_requested": depth,
        "steps": ser.encode_value(steps),
        "outcome": ser.encode_value(outcome),
    }

    if cfg.get("witness"):
        if stop is None:
            wit = build_non_ai_halfspace_witness(op, state)
            witness = {"dim_z": wit.z_basis.shape[1], "ranks": list(wit.ranks),
                       "diagonal_min": wit.diagonal_min, "cross_max": wit.cross_max}
        else:  # the witness's chain is this one, so it ends where this one did
            witness = {key: outcome[key]
                       for key in ("branch", "depth_reached", "invariance_residual")}
        doc["witness"] = ser.encode_value(witness)

    if "codim" in cfg:
        # codim's chain starts at e_1: it continues this walk when this one did too
        from_e1 = z1.tobytes() == seed_vector_from_config(None, op.dim).tobytes()
        walk = (state if stop is None else stop) if from_e1 else None
        basis_y, e_y, resid = codim_n_subspace(op, cfg["codim"], walk)
        doc["codim"] = ser.encode_value(
            {"n": cfg["codim"], "dim_y": basis_y.shape[1], "residual": resid}
        )

    path = _out_path(args, cfg, ".transcript.json")
    ser.write_json(path, doc)
    print(f"chain {outcome['branch']} at depth {outcome['depth_reached']}")
    print(f"wrote {path}")
    return EXIT_PASS


def cmd_sweep(args) -> int:
    cfg = validate_config(load_config(args.config), "sweep")
    _tolerances(args, {})  # a bad --tol-* flag stops the sweep before its first run
    runs = [validate_config(run, "build") for run in cfg["runs"]]  # all before the first write
    names = [run.get("label") or f"run-{idx:03d}" for idx, run in enumerate(runs)]
    first = {}
    for idx, name in enumerate(names):
        file_name = _file_name(name, ".cert.json")
        if first.setdefault(file_name, idx) != idx:
            raise ArgumentError(f"sweep runs {first[file_name]} and {idx} "
                                f"would both write {file_name}")
    rows = []
    any_fail = False
    any_flag = False
    for idx, (run, name) in enumerate(zip(runs, names)):
        try:
            op, cert = _run_certificate(run, args)
        except AihsError as exc:
            log.warning("sweep run %d (%s) failed: %s", idx, name, exc)
            rows.append(
                {
                    "index": idx,
                    "status": f"error: {exc}",
                    "label": name,
                    "family": run["operator"]["family"],
                    "dim": run["operator"]["dim"],
                }
            )
            any_fail = True
            continue
        code, _, status = _outcome(cert)
        any_fail = any_fail or code == EXIT_FAIL
        any_flag = any_flag or code == EXIT_UNVERIFIED
        row = {"index": idx, "status": status}
        row.update(ser.certificate_csv_row(cert))
        row["label"] = name
        rows.append(row)
        ser.write_certificate(_out_path(args, {"label": name}, ".cert.json"), cert)
    path = _out_path(args, cfg, ".sweep.csv")
    ser.write_csv(path, ser.SWEEP_CSV_COLUMNS, rows)
    print(f"sweep: {len(rows)} runs, "
          f"{sum(r['status'] == 'pass' for r in rows)} pass")
    print(f"wrote {path}")
    if any_fail:
        return EXIT_FAIL
    return EXIT_UNVERIFIED if any_flag else EXIT_PASS


def cmd_probe_dense(args) -> int:
    cfg = validate_config(load_config(args.config), "probe-dense")
    n_max = cfg.get("n_max", 12)
    p = cfg.get("p", 1.0)
    errors = dense_subsequence_probe(cfg["dim"], cfg["k_max"], n_max=n_max, p=p)
    rows = ser.probe_rows(errors, lambda k, n: probe_tail_oracle(k, n, p))
    path = _out_path(args, cfg, ".probe.csv")
    ser.write_csv(path, ser.PROBE_CSV_COLUMNS, rows)
    for k in range(errors.shape[0]):
        mono = bool(np.all(np.diff(errors[k]) < 0))
        print(f"  k={k + 1}: error {errors[k, 0]:.3e} -> {errors[k, -1]:.3e} "
              f"({'strictly decreasing' if mono else 'NOT monotone'})")
    print(f"wrote {path}")
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1: exit code 2 means an unverified hypothesis."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_FAIL, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """A ``--seed`` value: an integer >= 0, the seeds numpy's generator takes."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


_FLAGS = {
    "--config": {"required": True, "help": "JSON config path"},
    "--out": {"default": ".", "help": "output directory (default: .)"},
    "--seed": {"type": _seed, "help": "override the config seed (an integer >= 0)"},
    "--tol-ai": {"type": float, "metavar": "X"},
    "--tol-zero": {"type": float, "metavar": "X"},
    "--tol-annihilation": {"type": float, "metavar": "X", "dest": "tol_annihilation_base"},
}
_BUILD_FLAGS = ("--config", "--out", "--seed", "--tol-ai", "--tol-zero", "--tol-annihilation")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The aihs parser; each subcommand takes only the flags it reads.

    Built once per process (about 1.7 ms each time otherwise, paid by every
    in-process call); parsing leaves it unchanged.
    """
    parser = _Parser(
        prog="aihs",
        description="build and audit almost-invariant half-space certificates",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in (
        ("build", cmd_build, "run one construction from a config", _BUILD_FLAGS),
        ("verify", cmd_verify, "re-audit a stored certificate",
         ("--seed", "--tol-ai", "--tol-annihilation")),
        ("chain", cmd_chain, "run the functional-chain recursion",
         ("--config", "--out", "--seed")),
        ("sweep", cmd_sweep, "aggregate many build runs into a CSV", _BUILD_FLAGS),
        ("probe-dense", cmd_probe_dense, "factorial-orbit extraction-error table",
         ("--config", "--out")),
    ):
        sub = commands.add_parser(name, help=help_text)
        if name == "verify":
            sub.add_argument("certificate", help="certificate JSON path")
            sub.add_argument("--config", help="JSON config that rebuilds the operator")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error at stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return EXIT_FAIL
    except AihsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
