"""Command-line interface: one binary, six subcommands.

Exit codes: 0 success, 1 invalid input or usage, 2 internal-consistency
failure.  Machine formats (json, csv) are schema-stable and
deterministic for a given argv and seed; pretty/table output is for
humans only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import coloring
from .algebra import cayley_dickson_table, find_zero_divisors, table_from_signed_square
from .chisq import (CellCounts, ProbabilityVector, _builtin_square, canonical_signed_square_8,
                    decompose, eigenbasis_from_latin_hadamard)
from .design import builtin_design_16, design_to_eigenbasis, verify_design
from .errors import InternalConsistencyError, SizeError, ValidationError
from .latin import construct_latin_square
from .power import (PRESET_WEIGHTS, DistributionSpec, PowerSimConfig,
                    preset_probability, simulate_power)

__all__ = ["main", "run"]

CONSTRUCT_MAX_W = 6


class _Parser(argparse.ArgumentParser):
    """argparse prints a usage block and exits 2 on usage errors; 2 is
    reserved for internal-consistency failures, so a usage error is
    invalid input like any other: exit 1 and one line, from run.

    A token such as ``-1,2`` or ``-0.5,0.5`` is a value, not an unknown
    flag: argparse takes only plain negative numbers for values, but no
    option of this CLI starts with a single dash other than ``-h``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)  # adds -h before the matcher below
        self._negative_number_matcher = re.compile(r"^-[^-]")

    def error(self, message):
        raise ValidationError(message)


def _matrix_json(arr) -> list:
    return [[int(v) for v in row] for row in np.asarray(arr)]


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        # ValueError: a NUL byte or an unencodable character in the path.
        raise ValidationError(f"cannot write output file {out!r}: {exc}") from None


def _limit_w(w: int, limit: int) -> None:
    if w > limit:
        raise SizeError(f"--w is limited to {limit} here, got {w}")


def _require_format(fmt: str, allowed: tuple[str, ...]) -> None:
    if fmt not in allowed:
        raise ValidationError(
            f"format {fmt!r} is not supported here (choose from {', '.join(allowed)})")


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_probability(text: str) -> ProbabilityVector:
    if text in PRESET_WEIGHTS:
        return preset_probability(text)
    return ProbabilityVector(_parse_floats(text))


def _load_matrix(source: str | None) -> coloring.SignedLatinSquare:
    if source is None:
        return canonical_signed_square_8()
    if source.startswith("builtin:"):
        token = source.split(":", 1)[1]
        try:
            index = int(token)
        except ValueError:
            raise ValidationError(f"bad builtin matrix index {token!r}") from None
        if not 0 <= index < 16:
            raise ValidationError(f"builtin index must be 0..15, got {index}")
        return _builtin_square(index)
    try:
        with open(source, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"matrix file {source!r} is not valid JSON: {exc}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: a NUL byte in the path, or bytes that are not UTF-8;
        # RecursionError: JSON nested too deeply to parse.
        raise ValidationError(f"cannot read matrix file {source!r}: {exc}") from None
    entries = payload.get("H") if isinstance(payload, dict) else payload
    if entries is None:
        raise ValidationError("matrix file must hold an 'H' field or a bare matrix")
    return coloring.SignedLatinSquare(entries)


def _cmd_construct(args) -> str:
    fmt = args.format or "pretty"
    _require_format(fmt, ("json", "csv", "pretty"))
    _limit_w(args.w, CONSTRUCT_MAX_W)
    square = construct_latin_square(args.w)
    if fmt == "json":
        return json.dumps({"w": square.w, "entries": _matrix_json(square.entries)}) + "\n"
    if fmt == "csv":
        header = ",".join(f"c{j}" for j in range(1, square.n + 1))
        rows = [",".join(str(int(v)) for v in row) for row in square.entries]
        return "\n".join([header] + rows) + "\n"
    width = len(str(square.n))
    return "\n".join(" ".join(f"{int(v):>{width}}" for v in row)
                     for row in square.entries) + "\n"


def _cmd_enumerate(args) -> str:
    fmt = args.format or "json"
    _require_format(fmt, ("json", "csv"))
    _limit_w(args.w, coloring.EXHAUSTIVE_MAX_W)
    square = construct_latin_square(args.w)
    records = []
    for H in coloring.enumerate_colorings(square):
        valid = coloring.is_latin_hadamard(H)
        if args.valid_only and not valid:
            continue
        records.append({
            "w": square.w,
            "choices": coloring.choices_to_bitstring(H.choices),
            "H": _matrix_json(H.signed_entries()),
            "latin_hadamard": valid,
        })
    if fmt == "json":
        return json.dumps(records) + "\n"
    lines = ["w,choices,latin_hadamard,entries"]
    for rec in records:
        flat = " ".join(str(v) for row in rec["H"] for v in row)
        lines.append(f"{rec['w']},{rec['choices']},{str(rec['latin_hadamard']).lower()},{flat}")
    return "\n".join(lines) + "\n"


def _cmd_algebra(args) -> str:
    if (args.dim is None) == (args.from_coloring is None):
        raise ValidationError("algebra takes exactly one of --dim and --from-coloring")
    if args.dim is not None:
        table = cayley_dickson_table(int(math.log2(args.dim)))
    else:
        table = table_from_signed_square(_load_matrix(args.from_coloring))
    fmt = args.format or "pretty"
    signed = table.signs * table.indices
    if args.report == "table":
        _require_format(fmt, ("json", "pretty"))
        if fmt == "json":
            return json.dumps({"dim": table.dim, "table": _matrix_json(signed)}) + "\n"
        width = len(str(table.dim)) + 1
        return "\n".join(" ".join(f"{'+' if v > 0 else '-'}e{abs(int(v))}".rjust(width + 2)
                                  for v in row) for row in signed) + "\n"
    _require_format(fmt, ("json", "csv", "pretty"))
    divisors = list(find_zero_divisors(table))
    if fmt == "json":
        payload = [{"i": z.i, "j": z.j, "s1": z.s1, "k": z.k, "l": z.l, "s2": z.s2}
                   for z in divisors]
        return json.dumps({"dim": table.dim, "zero_divisors": payload}) + "\n"
    if fmt == "csv":
        lines = ["i,j,s1,k,l,s2"]
        lines += [f"{z.i},{z.j},{z.s1},{z.k},{z.l},{z.s2}" for z in divisors]
        return "\n".join(lines) + "\n"
    if not divisors:
        return "no zero divisors of the form (e_i +/- e_j)(e_k +/- e_l)\n"
    return "\n".join(str(z) for z in divisors) + "\n"


def _cmd_design(args) -> str:
    design = builtin_design_16()
    if sum((args.show, args.verify, args.eigenbasis)) > 1:
        raise ValidationError("--show, --verify and --eigenbasis are mutually exclusive")
    if args.eigenbasis:
        if not args.pvars:
            raise ValidationError("--eigenbasis needs --pvars with nine probabilities")
        _require_format(args.format or "json", ("json",))
        basis = design_to_eigenbasis(design, _parse_floats(args.pvars))
        return json.dumps({
            "matrix": [[float(v) for v in row] for row in basis.matrix],
            "cell_probabilities": [float(v) for v in basis.p.p],
        }) + "\n"
    if args.verify:
        _require_format(args.format or "json", ("json",))
        return json.dumps({"valid": verify_design(design), "order": design.order,
                           "num_vars": design.num_vars,
                           "type": list(design.type)}) + "\n"
    fmt = args.format or "pretty"
    _require_format(fmt, ("json", "pretty"))
    if fmt == "json":
        return json.dumps({"order": design.order, "num_vars": design.num_vars,
                           "type": list(design.type),
                           "entries": _matrix_json(design.entries)}) + "\n"
    return "\n".join(" ".join(f"{'+' if v > 0 else '-'}x{abs(int(v))}".rjust(4)
                              for v in row) for row in design.entries) + "\n"


def _cmd_decompose(args) -> str:
    _require_format(args.format or "json", ("json",))
    p = _parse_probability(args.p)
    try:
        tokens = [int(tok) for tok in args.counts.split(",")]
    except ValueError:
        raise ValidationError(f"expected comma-separated integers, got {args.counts!r}") from None
    counts = CellCounts(tokens)
    basis = eigenbasis_from_latin_hadamard(_load_matrix(args.matrix), p)
    result = decompose(counts, p, basis)
    return json.dumps({
        "X2": result.x2,
        "components": [float(t) for t in result.components],
        "sum_check": result.sum_check,
    }) + "\n"


def _cmd_power(args) -> str:
    try:
        args.seed = int(os.environ.get("LH_SEED", args.seed))
    except ValueError:
        raise ValidationError(
            f"LH_SEED must be an integer, got {os.environ['LH_SEED']!r}") from None
    if not (args.preset or args.p):
        raise ValidationError("power needs --preset or --p")
    if args.preset and args.p:
        raise ValidationError("--preset and --p are mutually exclusive")
    fmt = args.format or "table"
    _require_format(fmt, ("table", "json", "csv"))
    p = _parse_probability(args.preset if args.preset else args.p)
    cfg = PowerSimConfig(
        null=DistributionSpec.parse(args.null),
        alternative=DistributionSpec.parse(args.alt),
        basis=eigenbasis_from_latin_hadamard(_load_matrix(args.matrix), p),
        n=args.n, reps=args.reps, alpha=args.alpha, master_seed=args.seed)
    result = simulate_power(cfg, threads=args.threads)
    if fmt == "csv":
        lines = ["statistic,rate,se"]
        lines += [f"{name},{rate!r},{se!r}" for name, rate, se in result.rows()]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({
            "statistics": {name: rate for name, rate, _ in result.rows()},
            "standard_errors": {name: se for name, _, se in result.rows()},
            "config": {"null": str(cfg.null), "alt": str(cfg.alternative),
                       "p": [float(v) for v in p.p], "n": cfg.n,
                       "reps": cfg.reps, "alpha": cfg.alpha,
                       "seed": cfg.master_seed},
        }) + "\n"
    lines = [f"{'statistic':<10} {'rate':>8} {'se':>8}"]
    lines += [f"{name:<10} {rate:>8.4f} {se:>8.4f}" for name, rate, se in result.rows()]
    return "\n".join(lines) + "\n"


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first run and reused: parse_args
    keeps nothing between calls, as each returns a fresh Namespace."""
    parser = _Parser(prog="latinhadamard",
                     description="Signed Latin squares, chi-square components, "
                                 "and their algebraic obstructions")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", default=None,
                        help="output format (command-dependent)")
    common.add_argument("--out", default=None, help="write output to this file")

    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("construct", parents=[common],
                       help="build the structured Latin square")
    c.add_argument("--w", type=int, required=True, help="dimension exponent (n = 2^w)")
    c.set_defaults(func=_cmd_construct)

    e = sub.add_parser("enumerate", parents=[common],
                       help="enumerate colorings of the square")
    e.add_argument("--w", type=int, required=True)
    e.add_argument("--valid-only", action="store_true",
                   help="only emit Latin-Hadamard matrices")
    e.set_defaults(func=_cmd_enumerate)

    a = sub.add_parser("algebra", parents=[common],
                       help="multiplication tables and zero divisors")
    a.add_argument("--dim", type=int, choices=(2, 4, 8, 16, 32))
    a.add_argument("--from-coloring", default=None,
                   help="matrix file or builtin:<index> instead of --dim")
    a.add_argument("--report", choices=("table", "zero-divisors"), default="table")
    a.set_defaults(func=_cmd_algebra)

    d = sub.add_parser("design", parents=[common],
                       help="the order-16 nine-variable orthogonal design")
    d.add_argument("--show", action="store_true")
    d.add_argument("--verify", action="store_true")
    d.add_argument("--eigenbasis", action="store_true",
                   help="substitute --pvars and emit the orthonormal basis")
    d.add_argument("--pvars", default=None,
                   help="nine comma-separated variable probabilities")
    d.set_defaults(func=_cmd_design)

    dec = sub.add_parser("decompose", parents=[common],
                         help="component decomposition of observed counts")
    dec.add_argument("--p", required=True,
                     help=f"comma-separated probabilities or preset {'|'.join(PRESET_WEIGHTS)}")
    dec.add_argument("--counts", required=True, help="comma-separated cell counts")
    dec.add_argument("--matrix", default=None,
                     help="matrix file or builtin:<index> (default: canonical)")
    dec.set_defaults(func=_cmd_decompose)

    pw = sub.add_parser("power", parents=[common],
                        help="Monte Carlo power simulation")
    pw.add_argument("--null", default="normal:0,1",
                    help="null distribution, e.g. normal:0,1")
    pw.add_argument("--alt", required=True,
                    help="alternative distribution, e.g. normal:0,1.3 t:2 gamma:5,0.2")
    pw.add_argument("--preset", choices=tuple(PRESET_WEIGHTS), default=None)
    pw.add_argument("--p", default=None, help="explicit probabilities if no preset")
    pw.add_argument("--n", type=int, default=200)
    pw.add_argument("--reps", type=int, default=10000)
    pw.add_argument("--alpha", type=float, default=0.05)
    pw.add_argument("--matrix", default=None,
                    help="matrix file or builtin:<index> (default: canonical)")
    pw.add_argument("--seed", type=int, default=0,
                    help="master seed (LH_SEED env var overrides)")
    pw.add_argument("--threads", type=int, default=1,
                    help="worker processes, at most one per usable CPU")
    pw.set_defaults(func=_cmd_power)
    return parser


def run(argv) -> int:
    """Parse argv, execute, return the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
        _emit(args.func(args), args.out)
    except SystemExit as exc:  # --help, which argparse ends with exit 0
        return int(exc.code or 0)
    except ValidationError as exc:
        print(f"latinhadamard: error: {exc}", file=sys.stderr)
        return 1
    except InternalConsistencyError as exc:
        print(f"latinhadamard: internal consistency failure: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
