"""Command line front end: generate, audit, kappa."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

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
    parse_distribution_spec,
    renyi_condition_number_exact,
    renyi_condition_number_mc,
)
from .queries import parse_query_spec
from .synth import FitGateError, PipelineConfig, PrivacyGateError, _render, generate

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


def _load_text(spec: str) -> str:
    """Treat the argument as a path when one exists, inline text otherwise."""
    path = Path(spec)
    try:
        if path.is_file():
            return path.read_text()
    except OSError:
        pass
    return spec


def _load_distribution(spec: str, schema=None):
    if spec.strip() == "uniform":
        if schema is None:
            raise ValueError("'uniform' needs a dataset to take its schema from")
        return ProductDistribution.uniform(schema)
    return parse_distribution_spec(_load_text(spec))


def _read_dataset(path: str) -> Dataset:
    # The file's bytes as they are, with no decoding and no newline
    # translation: the CLI parses the same bytes as the library.
    return Dataset.from_text(Path(path).read_bytes())


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
    Path(args.out).write_bytes(result.synthetic.to_text())
    return result.report.to_text(), True


def _cmd_audit_lemma3(args) -> tuple[str, bool]:
    population = _load_distribution(args.nu)
    queries = parse_query_spec(_load_text(args.queries), population.schema)
    result = deviation_check_empirical(
        population, queries, args.n, args.delta, args.gamma, args.trials,
        np.random.default_rng(args.seed),
    )
    return result.report_text(), result.passed


def _cmd_audit_lemma4(args) -> tuple[str, bool]:
    population = _load_distribution(args.nu)
    sampling = _load_distribution(args.mu)
    queries = parse_query_spec(_load_text(args.queries), population.schema)
    result = reweighted_deviation_check(
        population, sampling, queries, args.m, args.delta, args.gamma,
        args.trials, np.random.default_rng(args.seed),
    )
    return result.report_text(), result.passed


def _cmd_audit_dp(args) -> tuple[str, bool]:
    d1 = _read_dataset(args.d1)
    d2 = _read_dataset(args.d2)
    queries = parse_query_spec(_load_text(args.queries), d1.schema)
    result = privacy_audit(
        queries, args.sigma, d1, d2, args.trials, args.bins,
        np.random.default_rng(args.seed), slack=args.slack,
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
    sampling = _load_distribution(args.mu, getattr(population, "schema", None))
    if args.mc is not None:
        if args.seed is None:
            raise ValueError("--mc needs --seed")
        value = renyi_condition_number_mc(
            population, sampling, args.mc, np.random.default_rng(args.seed)
        )
    else:
        value = renyi_condition_number_exact(population, sampling)
    return f"{value:.9f}\n", True


def _bind(parser, func) -> None:
    """Set a command's handler, which returns (report text, gate passed), and
    its config echo: its value options but --report, in declaration order."""
    echo = [a.dest for a in parser._actions if a.nargs is None and a.dest != "report"]
    parser.set_defaults(func=func, echo=echo)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpsynth", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="produce a private synthetic dataset")
    gen.add_argument("--data", required=True, help="sensitive dataset file")
    gen.add_argument("--queries", required=True, help="query spec (file or inline)")
    gen.add_argument("--mu", required=True,
                     help="sampling distribution spec, or 'uniform' for the data schema")
    gen.add_argument("--delta", type=float, required=True)
    gen.add_argument("--gamma", type=float, required=True)
    gen.add_argument("--k", type=int, required=True, help="synthetic records to draw")
    gen.add_argument("--m", type=int, required=True, help="reduced domain sample size")
    gen.add_argument("--epsilon", type=float, default=None,
                     help="required privacy budget; omit to only report the achieved one")
    gen.add_argument("--kappa-bound", dest="kappa_bound", type=float, default=1.0)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="synthetic dataset output path")
    gen.add_argument("--report", default=None, help="report path (default: stdout)")
    gen.add_argument("--allow-privacy-failure", dest="allow_privacy_failure",
                     action="store_true")
    gen.add_argument("--export-noisy-targets", dest="export_noisy_targets",
                     action="store_true")
    _bind(gen, _cmd_generate)

    audit = sub.add_parser("audit", help="statistical audits")
    audit_sub = audit.add_subparsers(dest="audit_command", required=True,
                                     parser_class=_Parser)

    lemma3 = audit_sub.add_parser("lemma3", help="plain sampling deviation check")
    lemma3.add_argument("--nu", required=True, help="population distribution spec")
    lemma3.add_argument("--queries", required=True)
    lemma3.add_argument("--n", type=int, required=True)
    lemma3.add_argument("--delta", type=float, required=True)
    lemma3.add_argument("--gamma", type=float, required=True)
    lemma3.add_argument("--trials", type=int, required=True)
    lemma3.add_argument("--seed", type=int, required=True)
    lemma3.add_argument("--report", default=None)
    _bind(lemma3, _cmd_audit_lemma3)

    lemma4 = audit_sub.add_parser("lemma4", help="importance-weighted deviation check")
    lemma4.add_argument("--nu", required=True)
    lemma4.add_argument("--mu", required=True)
    lemma4.add_argument("--queries", required=True)
    lemma4.add_argument("--m", type=int, required=True)
    lemma4.add_argument("--delta", type=float, required=True)
    lemma4.add_argument("--gamma", type=float, required=True)
    lemma4.add_argument("--trials", type=int, required=True)
    lemma4.add_argument("--seed", type=int, required=True)
    lemma4.add_argument("--report", default=None)
    _bind(lemma4, _cmd_audit_lemma4)

    dp = audit_sub.add_parser("dp", help="empirical privacy probe")
    dp.add_argument("--queries", required=True)
    dp.add_argument("--sigma", type=float, required=True)
    dp.add_argument("--d1", required=True)
    dp.add_argument("--d2", required=True)
    dp.add_argument("--trials", type=int, required=True)
    dp.add_argument("--bins", type=int, required=True)
    dp.add_argument("--slack", type=float, default=DEFAULT_AUDIT_SLACK)
    dp.add_argument("--seed", type=int, required=True)
    dp.add_argument("--report", default=None)
    _bind(dp, _cmd_audit_dp)

    cor = audit_sub.add_parser("corollary", help="end-to-end Boolean experiment")
    cor.add_argument("--p", type=int, required=True)
    cor.add_argument("--d", type=int, required=True)
    cor.add_argument("--n", type=int, required=True)
    cor.add_argument("--k", type=int, required=True)
    cor.add_argument("--m", type=int, required=True)
    cor.add_argument("--delta", type=float, required=True)
    cor.add_argument("--gamma", type=float, required=True)
    cor.add_argument("--trials", type=int, required=True)
    cor.add_argument("--seed", type=int, required=True)
    cor.add_argument("--report", default=None)
    _bind(cor, _cmd_audit_corollary)

    kap = sub.add_parser("kappa", help="condition number of one distribution against another")
    kap.add_argument("--nu", required=True, help="population distribution spec")
    kap.add_argument("--mu", required=True, help="sampling distribution spec")
    kap.add_argument("--mc", type=int, default=None,
                     help="Monte Carlo sample count (default: exact)")
    kap.add_argument("--seed", type=int, default=None)
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
    except (PrivacyGateError, FitGateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if passed else EXIT_GATE


if __name__ == "__main__":
    sys.exit(main())
