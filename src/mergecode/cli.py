"""Command-line front end.

Subcommands cover every solver: ``schedule`` (breakpoints and sweep data),
``code`` (one alpha instance), ``limited`` (length-capped codes), ``exp``
(two-parameter pay-off), ``waterfill`` (level characterization), ``extend``
(block-coding bounds), and ``ingest`` (counts to a distribution file).

Every subcommand has an object form (json) and a tabular form (csv),
selected by ``--format``; the default is whichever is natural for the
subcommand.  Exit status: 0 on success, 2 when a constraint is infeasible,
1 for input or parameter errors, usage errors included.  Output is
deterministic: identical inputs and flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .codes import (
    default_alpha_grid,
    lengths_on_grid,
    optimal_code,
    payoff_columns,
)
from .distributions import ProbabilityVector, from_counts, load_distribution
from .errors import Infeasible, InvalidParam, MergeCodeError, NoConvergence
from .exponential import payoff_t, solve_two_parameter
from .extension import extension_bounds
from .limited import limited_code
from .merging import build_schedule
from .waterfilling import alpha_for_level, water_level, waterfill_weights

log = logging.getLogger("mergecode")

# 12 significant digits so plotted kinks land where they were computed
FLOAT_FMT = "%.12g"
# characters that make a CSV field need quoting (RFC 4180)
CSV_SPECIAL = re.compile('[,"\r\n]')


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)


def _float_cells(values: np.ndarray) -> list[str]:
    """``FLOAT_FMT`` of every value, by one string-format operation."""
    values = values.tolist()
    return ((FLOAT_FMT + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def _json_items(values: list) -> list[str]:
    """JSON texts of a list's numbers or bools, by the C encoder."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def _csv_label(label: str) -> str:
    """A label as an RFC 4180 field: quoted only if it holds , " CR or LF."""
    if CSV_SPECIAL.search(label):
        return '"' + label.replace('"', '""') + '"'
    return label


def _cells(col, json_form: bool) -> list[str]:
    """The texts of one column: an array, or a list of labels.

    Floats are printed with ``FLOAT_FMT``; as JSON they are those strings
    read back as floats, so a JSON float is ``repr(float("%.12g" % x))``.
    Ints and bools read the same in CSV and JSON.
    """
    if not isinstance(col, np.ndarray):
        if json_form:
            return list(map(encode_basestring_ascii, col))
        return list(map(_csv_label, col))
    if col.dtype.kind == "f":
        cells = _float_cells(col)
        return _json_items(list(map(float, cells))) if json_form else cells
    return _json_items(col.tolist())


def _scalar_cell(value, json_form: bool) -> str:
    if value is None:
        return "null"
    col = [value] if isinstance(value, str) else np.array([value])
    return _cells(col, json_form)[0]


def _is_column(value) -> bool:
    return isinstance(value, (np.ndarray, list, tuple))


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc: dict, output: str | None) -> None:
    """A JSON object laid out as ``json.dumps(doc, indent=2)`` would.

    Values are scalars, arrays, or lists of labels.
    """
    fields = []
    for key, value in doc.items():
        if not _is_column(value):
            text = _scalar_cell(value, True)
        elif len(value):
            text = "[\n    " + ",\n    ".join(_cells(value, True)) + "\n  ]"
        else:
            text = "[]"
        fields.append(f"  {encode_basestring_ascii(key)}: {text}")
    _emit("{\n" + ",\n".join(fields) + "\n}\n", output)


def _emit_rows(table: dict, args) -> None:
    """One result table, as CSV lines or a JSON array of row objects.

    ``table`` maps each column name to an array, a list of labels, or one
    scalar shared by every row; it has at least one non-scalar column.
    """
    n = next(len(v) for v in table.values() if _is_column(v))
    json_form = args.format == "json"
    columns = [
        _cells(v, json_form) if _is_column(v) else [_scalar_cell(v, json_form)] * n
        for v in table.values()
    ]
    if json_form:
        columns = [
            [f"    {encode_basestring_ascii(key)}: {cell}" for cell in col]
            for key, col in zip(table, columns)
        ]
        rows = "\n  },\n  {\n".join(map(",\n".join, zip(*columns)))
        _emit("[\n  {\n" + rows + "\n  }\n]\n" if n else "[]\n", args.output)
        return
    # an empty table has an empty header line
    lines = [",".join(table) if n else ""]
    lines += map(",".join, zip(*columns))
    _emit("\n".join(lines) + "\n", args.output)


def _emit_object(doc: dict, table: dict, args) -> None:
    """Object-shaped result with a tabular alternative for --format csv."""
    if args.format == "csv":
        _emit_rows(table, args)
    else:
        _emit_json(doc, args.output)


def _load_input(args) -> ProbabilityVector:
    path = Path(args.input)
    if not path.exists():
        raise MergeCodeError(f"input file not found: {path}")
    p = load_distribution(
        path, radix_override=args.radix, drop_zeros=args.drop_zeros
    )
    log.info("loaded %d symbols, radix %d", p.size, p.radix)
    return p


def _labels_of(p: ProbabilityVector) -> tuple[str, ...]:
    return p.labels if p.labels is not None else tuple(map(str, range(p.size)))


def _symbol_table(p, alpha, weights, lengths) -> dict:
    return {
        "alpha": float(alpha),
        "symbol_index": p.perm,
        "label": _labels_of(p),
        "weight": weights,
        "real_length": lengths.real_lengths,
        "int_length": lengths.int_lengths,
    }


def cmd_schedule(args) -> int:
    p = _load_input(args)
    schedule = build_schedule(p)
    if args.grid is None:
        table = {
            "k": np.arange(schedule.size),
            "alpha_k": schedule.alphas,
            "cardinality": schedule.card,
            "wstar": schedule.wstar_at_breakpoint,
            "slope": schedule.slope,
        }
    elif args.per_symbol:
        grid = default_alpha_grid(schedule, args.grid)
        weights, real, ints = lengths_on_grid(p, grid, schedule)
        table = {
            "alpha": np.repeat(grid, p.size),
            "symbol_index": np.tile(p.perm, grid.size),
            "label": _labels_of(p) * grid.size,
            "weight": weights.ravel(),
            "real_length": real.ravel(),
            "int_length": ints.ravel(),
        }
    else:
        table = payoff_columns(p, default_alpha_grid(schedule, args.grid), schedule)
    _emit_rows(table, args)
    return 0


def cmd_code(args) -> int:
    p = _load_input(args)
    w, lengths, report = optimal_code(p, args.alpha)
    doc = {
        "alpha": report.alpha,
        "radix": p.radix,
        "labels": _labels_of(p),
        "perm": p.perm,
        "weights": w.weights,
        "lengths_real": lengths.real_lengths,
        "lengths_int": lengths.int_lengths,
        "payoff": report.payoff,
        "avg_length": report.avg_length,
        "max_length": report.max_length,
        "entropy_w": report.entropy_w,
        "entropy_p": report.entropy_p,
        "kraft_real": lengths.kraft_real,
        "kraft_int": lengths.kraft_int,
    }
    _emit_object(doc, _symbol_table(p, args.alpha, w.weights, lengths), args)
    return 0


def cmd_limited(args) -> int:
    p = _load_input(args)
    try:
        result = limited_code(p, args.llim)
    except Infeasible as exc:
        message = f"minimum achievable max length is {_fmt(exc.min_achievable)}"
        print(message, file=sys.stderr)
        _emit_json({
            "feasible": False,
            "min_achievable_max_length": exc.min_achievable,
            "message": message,
        }, args.output)
        return 2
    doc = {
        "feasible": True,
        "alpha": result.alpha_hat,
        "lengths_real": result.lengths.real_lengths,
        "lengths_int": result.lengths.int_lengths,
        "avg_length": result.avg_length,
        "max_length": result.lengths.max_length,
    }
    table = _symbol_table(p, result.alpha_hat, result.weights.weights, result.lengths)
    _emit_object(doc, table, args)
    return 0


def cmd_exp(args) -> int:
    p = _load_input(args)
    try:
        sol = solve_two_parameter(
            p, args.t, args.alpha, tol=args.tol, max_iter=args.max_iter
        )
        converged = True
    except NoConvergence as exc:
        log.warning("%s", exc)
        sol = exc.best
        converged = False
    report = payoff_t(sol.lengths, p, args.t, args.alpha)
    doc = {
        "t": sol.t,
        "alpha": sol.alpha,
        "converged": converged,
        "iterations": sol.iterations,
        "residual": sol.residual,
        "lengths_real": sol.lengths.real_lengths,
        "lengths_int": sol.lengths.int_lengths,
        "nu": sol.nu,
        "payoff_t": report.payoff_t,
        "exp_term": report.exp_term,
        "avg_length": report.avg_length,
        "renyi": report.renyi,
    }
    table = {
        "t": sol.t,
        "alpha": sol.alpha,
        "symbol_index": p.perm,
        "label": _labels_of(p),
        "nu": sol.nu,
        "real_length": sol.lengths.real_lengths,
        "int_length": sol.lengths.int_lengths,
    }
    _emit_object(doc, table, args)
    return 0


def cmd_waterfill(args) -> int:
    p = _load_input(args)
    if (args.alpha is None) == (args.level is None):
        raise MergeCodeError("waterfill needs exactly one of --alpha / --level")
    alpha = args.alpha if args.level is None else alpha_for_level(p, args.level)
    wl = water_level(p, alpha)
    w = waterfill_weights(p, alpha)
    doc = {
        "level": wl.level,
        "alpha": wl.alpha,
        "flooded_count": wl.flooded_count,
        "weights": w.weights,
    }
    table = {
        "alpha": wl.alpha,
        "symbol_index": p.perm,
        "label": _labels_of(p),
        "weight": w.weights,
        "flooded": np.arange(p.size) >= p.size - wl.flooded_count,
    }
    _emit_object(doc, table, args)
    return 0


def cmd_extend(args) -> int:
    p = _load_input(args)
    if args.n < 1:
        raise InvalidParam(f"--n must be a positive integer, got {args.n}")
    reports = [extension_bounds(p, args.alpha, m) for m in range(1, args.n + 1)]
    table = {
        "n": np.array([r.n for r in reports], dtype=int),
        "lower": np.array([r.lower for r in reports], dtype=float),
        "per_symbol": np.array([r.per_symbol_payoff for r in reports], dtype=float),
        "upper": np.array([r.upper for r in reports], dtype=float),
    }
    _emit_rows(table, args)
    return 0


def cmd_ingest(args) -> int:
    path = Path(args.input)
    if not path.exists():
        raise MergeCodeError(f"input file not found: {path}")
    if args.raw:
        data = np.frombuffer(path.read_bytes(), dtype=np.uint8)
        counts = np.bincount(data, minlength=256)
        # symbols in order of first occurrence; canonicalize's stable sort
        # breaks count ties by this order
        symbols, first = np.unique(data, return_index=True)
        symbols = symbols[np.argsort(first, kind="stable")]
        labels = ["0x%02x" % b for b in symbols.tolist()]
        p = from_counts(dict(zip(labels, counts[symbols].tolist())), args.radix or 2)
    else:
        p = load_distribution(
            path, radix_override=args.radix, drop_zeros=args.drop_zeros
        )
    if p.dropped_labels:
        log.info("dropped zero-count symbols: %s", ", ".join(p.dropped_labels))
    labels = _labels_of(p)
    doc = {
        "radix": p.radix,
        "probabilities": p.probs,
        "labels": labels,
    }
    _emit_object(doc, {"label": labels, "probability": p.probs}, args)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, the status of input or parameter errors.

    argparse's own status 2 would read as "infeasible".  Subcommand parsers
    are made with the same class.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mergecode",
        description="Optimal real-valued prefix-code lengths for "
        "max/average length trade-offs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, fmt_default="json"):
        sp.add_argument("--input", required=True, help="distribution JSON file")
        sp.add_argument("--output", help="write results here instead of stdout")
        sp.add_argument("--format", choices=["json", "csv"], default=fmt_default,
                        help=f"output format (default {fmt_default})")
        sp.add_argument("--radix", type=int, help="override the input radix")
        sp.add_argument("--drop-zeros", action="store_true",
                        help="strip zero-probability symbols instead of rejecting")

    sp = sub.add_parser("schedule", help="breakpoint table or alpha sweep")
    common(sp, "csv")
    sp.add_argument("--grid", type=int, nargs="?", const=1001,
                    help="sweep this many uniform alphas (plus breakpoints)")
    sp.add_argument("--per-symbol", action="store_true",
                    help="emit per-symbol weight/length rows instead of the curve")
    sp.set_defaults(func=cmd_schedule)

    sp = sub.add_parser("code", help="optimal code at one alpha")
    common(sp)
    sp.add_argument("--alpha", type=float, required=True)
    sp.set_defaults(func=cmd_code)

    sp = sub.add_parser("limited", help="minimum average length under a length cap")
    common(sp)
    sp.add_argument("--llim", type=float, required=True, help="maximum length cap")
    sp.set_defaults(func=cmd_limited)

    sp = sub.add_parser("exp", help="exponential/average two-parameter pay-off")
    common(sp)
    sp.add_argument("--t", type=float, required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-10)
    sp.add_argument("--max-iter", type=int, default=10_000)
    sp.set_defaults(func=cmd_exp)

    sp = sub.add_parser("waterfill", help="water-level solution")
    common(sp)
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--level", type=float)
    sp.set_defaults(func=cmd_waterfill)

    sp = sub.add_parser("extend", help="block-coding pay-off bounds")
    common(sp, "csv")
    sp.add_argument("--n", type=int, required=True, help="largest block size")
    sp.add_argument("--alpha", type=float, required=True)
    sp.set_defaults(func=cmd_extend)

    sp = sub.add_parser("ingest", help="turn counts (or a raw file) into a distribution")
    common(sp)
    sp.add_argument("--raw", action="store_true",
                    help="treat the input as raw bytes and count them")
    sp.set_defaults(func=cmd_ingest)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("MERGECODE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except MergeCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
