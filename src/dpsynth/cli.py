"""Command line front end: generate, audit, kappa."""

from __future__ import annotations

import argparse
import mmap
import os
import stat
import sys
from pathlib import Path

from .audit import (
    DEFAULT_AUDIT_SLACK,
    boolean_experiment,
    deviation_check_empirical,
    privacy_audit,
    reweighted_deviation_check,
)
from .core import Dataset
from .distributions import (
    ProductDistribution,
    _real,
    parse_distribution_spec,
    renyi_condition_number_exact,
)
from .optimize import FitGateError
from .queries import parse_query_spec
from .synth import PipelineConfig, PrivacyGateError, _render, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GATE = 2


class _Parser(argparse.ArgumentParser):
    # Exit code 1 for usage problems (argparse defaults to 2, which is
    # reserved here for guarantee-gate failures).
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# Option numbers are written as spec numbers and dataset cells are: ASCII only, no underscores.
def _integer(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return int(text)


def _number(text: str) -> float:
    try:
        return _real(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be a number") from None


def _load_text(spec: str) -> str:
    """The UTF-8 text of the file at this path, newlines untranslated; else the argument itself."""
    path = Path(spec)
    try:
        if not path.is_file():
            return spec
    except OSError:  # not a name a path can have, such as one over 255 bytes: inline text
        return spec
    raw = path.read_bytes()  # its errors are the file's, and reach the caller
    try:
        return raw.decode()
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"line {line}: spec files must be UTF-8 text") from None


def _load_distribution(spec: str, schema=None):
    if spec.strip() == "uniform":
        if schema is None:
            raise ValueError("'uniform' needs a dataset to take its schema from")
        return ProductDistribution.uniform(schema)
    return parse_distribution_spec(_load_text(spec))


def _read_dataset(path: str) -> Dataset:
    # The file's bytes as they are, with no decoding and no newline
    # translation: the CLI parses the same bytes as the library. A regular
    # file is mapped, not copied; a pipe or an empty file cannot be, and is
    # read whole. The map goes with its last view rather than by close(),
    # which a parse error's traceback would make raise; from_text keeps no
    # view, so the map is gone before --out, which may be this file, is opened.
    with open(path, "rb") as f:
        info = os.fstat(f.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            text = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            text = f.read()
    return Dataset.from_text(text)


def _cmd_generate(args) -> tuple[str, bool]:
    data = _read_dataset(args.data)
    queries = parse_query_spec(_load_text(args.queries), data.schema)
    sampling = _load_distribution(args.mu, data.schema)
    config = PipelineConfig(
        delta_target=args.delta,
        gamma=args.gamma,
        synthetic_size=args.k,
        reduced_size=args.m,
        seed=args.seed,
        epsilon=args.epsilon,
        kappa_bound=args.kappa_bound,
        allow_privacy_failure=args.allow_privacy_failure,
        export_noisy_targets=args.export_noisy_targets,
    )
    result = generate(data, queries, sampling, config)
    with open(args.out, "wb") as out:  # each block is written as it is rendered
        out.writelines(result.synthetic._text_blocks())
    return result.report.to_text(), True


def _cmd_audit_lemma3(args) -> tuple[str, bool]:
    population = _load_distribution(args.nu)
    queries = parse_query_spec(_load_text(args.queries), population.schema)
    result = deviation_check_empirical(
        population, queries, args.n, args.delta, args.gamma, args.trials, args.seed
    )
    return result.report_text(), result.passed


def _cmd_audit_lemma4(args) -> tuple[str, bool]:
    population = _load_distribution(args.nu)
    sampling = _load_distribution(args.mu, population.schema)
    queries = parse_query_spec(_load_text(args.queries), population.schema)
    result = reweighted_deviation_check(
        population, sampling, queries, args.m, args.delta, args.gamma, args.trials, args.seed
    )
    return result.report_text(), result.passed


def _cmd_audit_dp(args) -> tuple[str, bool]:
    d1 = _read_dataset(args.d1)
    d2 = _read_dataset(args.d2)
    queries = parse_query_spec(_load_text(args.queries), d1.schema)
    result = privacy_audit(
        queries, args.sigma, d1, d2, args.trials, args.bins, args.seed, slack=args.slack
    )
    return result.report_text(), result.passed


def _cmd_audit_corollary(args) -> tuple[str, bool]:
    result = boolean_experiment(
        args.p, args.d, args.n, args.k, args.m, args.delta, args.gamma,
        args.trials, args.seed,
    )
    return result.report_text(), result.passed


def _cmd_kappa(args) -> tuple[str, bool]:
    population = _load_distribution(args.nu)
    sampling = _load_distribution(args.mu, population.schema)
    return f"{renyi_condition_number_exact(population, sampling):.9f}\n", True


# Every option, declared once: its type, its default or that it is required, and its help.
_OPTIONS = {
    "data": dict(required=True, help="sensitive dataset file"),
    "nu": dict(required=True, help="population distribution spec (file or inline)"),
    "mu": dict(required=True, help="sampling distribution spec, or 'uniform' (population schema)"),
    "queries": dict(required=True, help="query spec (file or inline)"),
    "d1": dict(required=True, help="dataset file"),
    "d2": dict(required=True, help="dataset file that neighbors --d1"),
    "p": dict(type=_integer, required=True, help="Boolean coordinates"),
    "d": dict(type=_integer, required=True, help="marginal order"),
    "n": dict(type=_integer, required=True, help="records per drawn dataset"),
    "k": dict(type=_integer, required=True, help="synthetic records to draw"),
    "m": dict(type=_integer, required=True, help="reduced domain sample size"),
    "delta": dict(type=_number, required=True, help="per-statistic accuracy target"),
    "gamma": dict(type=_number, required=True, help="failure probability"),
    "epsilon": dict(type=_number, default=None, help="privacy budget to enforce (default: none)"),
    "kappa-bound": dict(type=_number, default=1.0, help="kappa bound that scales the m threshold"),
    "sigma": dict(type=_number, required=True, help="Laplace noise scale"),
    "trials": dict(type=_integer, required=True, help="audit trials"),
    "bins": dict(type=_integer, required=True, help="histogram bins"),
    "slack": dict(type=_number, default=DEFAULT_AUDIT_SLACK, help="allowed excess of epsilon_hat"),
    "seed": dict(type=_integer, required=True, help="random seed"),
    "out": dict(required=True, help="synthetic dataset output path"),
    "allow-privacy-failure": dict(action="store_true", help="do not enforce the privacy gate"),
    "export-noisy-targets": dict(action="store_true", help="report the noisy statistics too"),
    "report": dict(default=None, help="report path (default: stdout)"),
}

# Each command's handler, which returns (report text, gate passed), help and options. The
# config echo prints the options' values in this order, but not the flags'. All take --report.
_COMMANDS = {
    "generate": (_cmd_generate, "produce a private synthetic dataset",
                 "data queries mu delta gamma k m epsilon kappa-bound seed out "
                 "allow-privacy-failure export-noisy-targets"),
    "lemma3": (_cmd_audit_lemma3, "plain sampling deviation check",
               "nu queries n delta gamma trials seed"),
    "lemma4": (_cmd_audit_lemma4, "importance-weighted deviation check",
               "nu mu queries m delta gamma trials seed"),
    "dp": (_cmd_audit_dp, "empirical privacy probe",
           "queries sigma d1 d2 trials bins slack seed"),
    "corollary": (_cmd_audit_corollary, "end-to-end Boolean experiment",
                  "p d n k m delta gamma trials seed"),
}


def _add_command(sub, name: str) -> None:
    func, help_text, options = _COMMANDS[name]
    command = sub.add_parser(name, help=help_text)
    for option in options.split() + ["report"]:
        command.add_argument(f"--{option}", **_OPTIONS[option])
    echo = [o.replace("-", "_") for o in options.split() if "action" not in _OPTIONS[o]]
    command.set_defaults(func=func, echo=echo)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    _add_command(sub, "generate")
    audit = sub.add_parser("audit", help="statistical audits")
    audit_sub = audit.add_subparsers(dest="audit_command", required=True, parser_class=_Parser)
    for name in ("lemma3", "lemma4", "dp", "corollary"):
        _add_command(audit_sub, name)
    kap = sub.add_parser("kappa", help="condition number of one distribution against another")
    for option in ("nu", "mu"):
        kap.add_argument(f"--{option}", **_OPTIONS[option])
    # kappa prints its value alone, to stdout.
    kap.set_defaults(func=_cmd_kappa, echo=[], report=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        report, passed = args.func(args)
        text = _render((f"config_{key}", getattr(args, key)) for key in args.echo) + report
        if args.report:
            Path(args.report).write_text(text)
        else:
            sys.stdout.write(text)
    except (PrivacyGateError, FitGateError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE if isinstance(exc, (PrivacyGateError, FitGateError)) else EXIT_USAGE
    return EXIT_OK if passed else EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
