"""Command-line front-end: construct, verify, simulate, schedule, route
and cost commands with deterministic, scriptable output.

Exit codes: 0 success, 1 domain/validation error, 2 I/O or parse error.
A config file of key=value lines may supply any flag; explicit flags
override it.

Only simulate builds the field's q x q product table, for the decoder;
the other commands need only its log/antilog tables.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import codefile
from .cost import CATEGORIES, VARIANTS, CostParams, cost as cost_breakdown, render_report, savings
from .construct import CLASS_I, CodeSpec, build_base, build_code
from .decode import DecoderConfig, SimResultRow, build_layer_schedule, run_monte_carlo
from .shuffle import group_moves, route_schedule, schedule_pieces
from .verify import verify_class1, verify_class2


class CliError(Exception):
    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _spec_from_args(args) -> CodeSpec:
    if args.code_class == 1:
        if args.t is not None:
            raise ValueError("--t is Class-II only")
        if args.c is None or args.n is None:
            raise ValueError("Class-I construction requires --c and --n")
        return CodeSpec.class1(
            args.m, args.c, args.n, args.gamma, args.rho,
            primitive_poly=args.poly,
            surjective_seed=args.random_surjective,
        )
    for flag, value in (("--c", args.c), ("--n", args.n)):
        if value is not None:
            raise ValueError(f"{flag} is Class-I only")
    if args.t is None:
        raise ValueError("Class-II construction requires --t")
    return CodeSpec.class2(
        args.m, args.t, args.gamma, args.rho,
        primitive_poly=args.poly,
        surjective_seed=args.random_surjective,
    )


def cmd_construct(args) -> int:
    spec = _spec_from_args(args)
    h, _, _, fld = build_code(spec)
    try:
        codefile.write_code(args.output, spec, h, fld)
    except OSError as exc:
        raise CliError(f"cannot write {args.output}: {exc}", 2)
    density = h.nnz() / (h.rows * h.cols)
    print(f"wrote {args.output}: H is {h.rows}x{h.cols}, nnz={h.nnz()}, density={density:.6f}")
    return 0


def _read_code(path: str):
    try:
        return codefile.read_code(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 2)
    except codefile.CodeFileError as exc:
        raise CliError(f"parse error in {path}: {exc}", 2)


def cmd_verify(args) -> int:
    spec, h, fld = _read_code(args.code)
    verify = verify_class1 if spec.code_class == CLASS_I else verify_class2
    report = verify(fld, h.region, spec.c, spec.n)
    print(report.render())
    return 0 if report.all_passed else 1


def _parse_quant(text: str | None):
    if text is None:
        return None
    try:
        b_q, b_f = (int(x) for x in text.split(","))
        return (b_q, b_f)
    except ValueError:
        raise CliError(f"bad --quant value {text!r}; expected BQ,BF", 1)


def cmd_simulate(args) -> int:
    spec, h, fld = _read_code(args.code)
    schedule = build_layer_schedule(h)
    try:
        snrs = [float(s) for s in args.snr_list.split(",")]  # an empty entry raises too
    except ValueError:
        raise CliError(f"bad --snr-list value {args.snr_list!r}", 1)
    config = DecoderConfig(max_iter=args.max_iter, quant=_parse_quant(args.quant), rng_seed=args.seed)
    rows = run_monte_carlo(h, schedule, fld, snrs, args.trials, config, workers=args.workers)
    print(SimResultRow.CSV_HEADER)
    for row in rows:
        print(row.csv())
    return 0


def _read_formula_spec(path: str) -> CodeSpec:
    """The spec of a code file whose H is the spec's truncated W, the matrix
    that `group_moves` derives its moves from; any other H is refused."""
    spec, h, _ = _read_code(path)
    w = build_base(spec)[0][: spec.gamma, : spec.rho]
    if (differs := h.region != w).any():
        i, j = divmod(int(differs.argmax()), spec.rho)
        raise CliError(f"{path}: block ({i}, {j}) of H is {h.region[i, j]}, not W's {w[i, j]}; "
                       "moves are derived from the spec's W, not from the file's H", 1)
    return spec


def cmd_schedule(args) -> int:
    spec = _read_formula_spec(args.code)
    sys.stdout.writelines([*schedule_pieces(group_moves(spec), spec.q - 1), "\n"])
    return 0


def cmd_route(args) -> int:
    spec = _read_formula_spec(args.code)
    sys.stdout.writelines([*route_schedule(spec).pieces(), "\n"])
    return 0


def _parse_weights(text: str):
    if text == "wires":
        return None  # library default
    if text == "all":
        return {cat: 1.0 for cat in CATEGORIES}
    try:
        out = {}
        for part in text.split(","):
            cat, _, w = part.partition("=")
            cat = cat.strip()
            if cat in out:
                raise CliError(f"bad --weights value {text!r}: {cat} is given twice", 1)
            out[cat] = float(w)
        return out
    except ValueError:
        raise CliError(f"bad --weights value {text!r}", 1)


def cmd_cost(args) -> int:
    params = CostParams(
        b_q=args.bq, n_m=args.nm, d_c=args.dc, q=args.q,
        gamma=args.gamma, rho=args.rho, p=args.p,
    )
    weights = _parse_weights(args.weights)
    breakdowns = {v: cost_breakdown(v, params) for v in VARIANTS}
    lines = [
        f"savings[{prop} vs {ref}, weights={args.weights}] = "
        f"{savings(breakdowns[prop], breakdowns[ref], weights):.4f}"
        for prop in ("P1", "P2", "P3", "P4") for ref in ("Ref4", "Ref5")
    ]
    print(render_report(params, as_csv=args.format == "csv"))
    print("\n".join(lines))
    return 0


def _apply_config(argv: list[str]) -> list[str]:
    """Expand `--config FILE` into key=value flags placed before the
    explicit ones, so explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise CliError("--config requires a path", 1)
    path = argv[i + 1]
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip() and not ln.strip().startswith("#")]
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}", 2)
    extra: list[str] = []
    for ln in lines:
        key, sep, val = ln.partition("=")
        if not sep:
            raise CliError(f"bad config line {ln!r}; expected key=value", 2)
        extra.append(f"--{key.strip()}")
        if val.strip():
            extra.append(val.strip())
    rest = argv[:i] + argv[i + 2 :]
    # subcommand first, then config-derived flags, then explicit flags
    return rest[:1] + extra + rest[1:]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main call."""
    parser = argparse.ArgumentParser(prog="nbqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code and write it to disk")
    p.add_argument("--class", dest="code_class", type=int, choices=(1, 2), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--poly", type=lambda s: int(s, 16), default=None, metavar="HEX")
    p.add_argument("--random-surjective", type=int, default=None, metavar="SEED")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run structure checks on a code file")
    p.add_argument("code")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="Monte-Carlo FER/BER sweep")
    p.add_argument("--code", required=True)
    p.add_argument("--snr-list", required=True, help="comma-separated Eb/N0 values in dB")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-iter", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quant", default=None, metavar="BQ,BF")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    for name, func, text in (("schedule", cmd_schedule, "print inter-layer routing maps"),
                             ("route", cmd_route, "route schedules through the network model")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--code", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("cost", help="hardware complexity comparison table")
    p.add_argument("--bq", type=int, required=True)
    p.add_argument("--nm", type=int, required=True)
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--gamma", type=int, required=True)
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--weights", default="wires")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        for i in range(len(argv) - 1, 0, -1):  # argparse takes "-1,0" for a flag unless joined
            flag = argv[i - 1]  # --snr-list or its unique prefixes, down to --sn
            if len(flag) > 3 and "--snr-list".startswith(flag) and argv[i][:1] == "-":
                argv[i - 1 : i + 1] = [f"--snr-list={argv[i]}"]
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a write that fails raises here, not at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # stdout could not be written: the commands turn file errors into CliError
        if not isinstance(exc, BrokenPipeError):  # a reader that stops early is not an error to report
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        if sys.stdout is sys.__stdout__:  # the process's own stdout: its exit-time flush then writes nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
