"""Batch command-line front end.

Subcommands: fit, relevel, encode, predict, selftest. Exit codes:
0 success, 2 usage error (bad flags or formula text), 3 data or model
error (missing files, malformed CSV, rank deficiency, unknown levels).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .dataset import _complete_rows, _line_of, listwise_delete, read_csv
from .encode import DEFAULT_SCHEME, build_design, design_references
from .errors import (
    DummyregError,
    FormulaSyntaxError,
    IllegalCharacter,
    NonFiniteValue,
    NonPositiveLog,
    UnknownFunction,
)
from .formula import SCHEMES, parse_formula
from .report import _json_number, format_value, render_json, render_text
from .solve import fit, one_tailed_p, predict_mean

_ENCODE_BLOCK_ROWS = 4096


class UsageError(Exception):
    pass


def _pair(text: str) -> tuple[str, str]:
    name, sep, value = text.partition("=")
    if not sep or not name or not value:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}"
        )
    return name, value


def _places(text: str) -> int:
    try:
        places = int(text)
    except ValueError:
        places = -1
    if places < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return places


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dummyreg",
        description="Fit formula-driven OLS models with categorical contrasts.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_model_flags(p: argparse.ArgumentParser, with_output: bool = True):
        p.add_argument("--data", required=True, help="CSV file with a header row")
        p.add_argument("--formula", required=True, help='e.g. "bmi ~ female * edu"')
        p.add_argument("--scheme", choices=SCHEMES, default=DEFAULT_SCHEME)
        p.add_argument(
            "--refs",
            action="append",
            type=_pair,
            default=[],
            metavar="VAR=LEVEL",
            help="reference (omitted) level; repeatable",
        )
        if with_output:
            p.add_argument("--output", choices=("text", "json"), default="text")
            p.add_argument("--rounding", type=_places, default=2, metavar="N")

    for name, summary in (("fit", "fit a model and print the table"),
                          ("relevel", "fit with changed reference levels")):
        p_cmd = sub.add_parser(name, help=summary)
        add_model_flags(p_cmd)
        p_cmd.add_argument(
            "--tail",
            default="two",
            metavar="two|less:LABEL|greater:LABEL",
            help="add a one-tailed p-value for one coefficient",
        )

    p_enc = sub.add_parser("encode", help="dump the design matrix as CSV")
    add_model_flags(p_enc, with_output=False)

    p_pred = sub.add_parser("predict", help="estimate the mean for one profile")
    add_model_flags(p_pred)
    p_pred.add_argument(
        "--at",
        action="append",
        type=_pair,
        default=[],
        metavar="VAR=VALUE",
        required=True,
        help="one predictor setting; repeat for every model variable",
    )

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return parser


def _tail_request(args: argparse.Namespace) -> tuple[str, str] | None:
    if args.tail == "two":
        return None
    direction, sep, label = args.tail.partition(":")
    if not sep or direction not in ("less", "greater") or not label:
        raise UsageError(
            f"--tail must be 'two', 'less:LABEL', or 'greater:LABEL', "
            f"got {args.tail!r}"
        )
    return label, direction


def _check_names(flag: str, pairs, in_formula: set[str]) -> None:
    """Each NAME of a NAME=VALUE flag is a formula variable, named once."""
    named = set()
    for name, _ in pairs:
        if name not in in_formula:
            raise UsageError(f"{flag} variable {name!r} is not in the formula")
        if name in named:
            raise UsageError(f"{flag} names variable {name!r} more than once")
        named.add(name)


def _prepare(args: argparse.Namespace, require_refs: bool = False):
    """Every flag is checked before the data is read."""
    ast = parse_formula(args.formula)
    in_formula = set(ast.variables())
    if require_refs and not args.refs:
        raise UsageError("relevel requires at least one --refs VAR=LEVEL")
    _check_names("--refs", args.refs, in_formula)
    _check_names("--at", getattr(args, "at", []), in_formula)
    if hasattr(args, "tail"):
        _tail_request(args)
    with _open_data(args) as fh:
        data = read_csv(fh)
    data = listwise_delete(data, [ast.response, *ast.variables()])
    return build_design(ast, data, args.scheme, dict(args.refs))


def _open_data(args: argparse.Namespace) -> io.BufferedIOBase:
    """--data as a binary stream from its start. A file is streamed on
    each call; a pipe, which reads once, is read into memory on the
    first call, and its bytes are kept in args.data for the next."""
    if isinstance(args.data, str):
        fh = open(args.data, "rb")
        if fh.seekable():
            return fh
        with fh:
            args.data = fh.read()
    return io.BytesIO(args.data)


def _at_line(exc: Exception, args: argparse.Namespace) -> Exception:
    """exc, naming the CSV line of the data row it names, if any.

    The library counts rows from 0 among those that listwise deletion
    kept. Only on this error path is the data read again: once to find
    which rows were kept, and once by _line_of to count the lines up to
    the row.
    """
    if not isinstance(exc, (NonFiniteValue, NonPositiveLog)) or exc.row is None:
        return exc
    ast = parse_formula(args.formula)
    with _open_data(args) as fh:
        kept = _complete_rows(read_csv(fh), [ast.response, *ast.variables()])
        row = int(np.flatnonzero(kept)[exc.row])
        text = io.TextIOWrapper(fh, encoding="utf-8-sig", newline="")
        line = _line_of(text, 0, row)
    if isinstance(exc, NonFiniteValue):
        return NonFiniteValue(exc.name, exc.row, line=line)
    return NonPositiveLog(exc.row, line=line)


def _emit_fit(args: argparse.Namespace, design, result) -> None:
    refs_meta = design_references(design)
    one_tailed = _tail_request(args)
    if args.output == "json":
        doc = render_json(result, refs_meta, args.scheme)
        if one_tailed is not None:
            label, direction = one_tailed
            doc["one_tailed"] = {
                "label": label,
                "direction": direction,
                "p": one_tailed_p(result, label, direction),
            }
        print(json.dumps(doc, indent=2, allow_nan=False))
    else:
        print(render_text(result, refs_meta, args.rounding, one_tailed), end="")


def _cmd_fit(args: argparse.Namespace, require_refs: bool = False) -> int:
    design = _prepare(args, require_refs=require_refs)
    result = fit(design)
    _emit_fit(args, design, result)
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    design = _prepare(args)
    # The header is quoted where a label holds a comma; a float's repr
    # never needs quoting, so each pattern row is formatted once. Arrays
    # are read in blocks, so no more than a block is ever held as Python
    # numbers; the blocks of the n rows also cover the m <= n patterns.
    csv.writer(sys.stdout, lineterminator="\n").writerow(
        [label.text for label in design.labels] + [design.response_name])
    table, cell, y = design.cell_table, design.cell_index, design.response
    blocks = [slice(start, start + _ENCODE_BLOCK_ROWS)
              for start in range(0, len(y), _ENCODE_BLOCK_ROWS)]
    patterns = [",".join(map(repr, row)) + ","
                for rows in blocks for row in table[rows].tolist()]
    for rows in blocks:
        lines = (patterns[c] + repr(v) + "\n"
                 for c, v in zip(cell[rows].tolist(), y[rows].tolist()))
        sys.stdout.write("".join(lines))
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    design = _prepare(args)
    profile = dict(args.at)
    result = fit(design)
    value = predict_mean(result, profile)
    if args.output == "json":
        doc = {
            "response": design.response_name,
            "profile": profile,
            "estimate": _json_number(value),
        }
        print(json.dumps(doc, indent=2, allow_nan=False))
    else:
        print(format_value(value, args.rounding))
    return 0


# --- selftest ---------------------------------------------------------

def _check(name: str, ok: bool, detail: str = "") -> bool:
    if ok:
        print(f"ok: {name}")
    else:
        print(f"FAIL: {name}" + (f" ({detail})" if detail else ""))
    return ok


def _cmd_selftest() -> int:
    from . import oracle

    rng = np.random.default_rng(12345)
    all_ok = True

    worst = oracle.t_cdf_error((1, 2, 10, 100),
                               (-3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0))
    all_ok &= _check("t-cdf matches quadrature oracle (max |diff| < 1e-8)",
                     worst < 1e-8, f"max diff {worst:.3e}")
    all_ok &= _check("t-cdf closed forms: cdf(0)=.5, Cauchy cdf(1)=.75",
                     oracle.t_cdf_closed_form_error() < 1e-12)

    worst_fit, worst_intercept = oracle.scheme_invariance_error(rng, 20)
    all_ok &= _check("contrast schemes: shared fit, effect/weighted intercepts",
                     worst_fit < 1e-10 and worst_intercept < 1e-10,
                     f"fitted diff {worst_fit:.3e}, "
                     f"intercept err {worst_intercept:.3e}")

    worst = oracle.saturated_cell_mean_error(rng, 20)
    all_ok &= _check("saturated two-factor fit reproduces cell means",
                     worst < 1e-9, f"max diff {worst:.3e}")

    caught, trials = oracle.dummy_trap_caught(rng, (2, 3, 5), 1)
    all_ok &= _check("intercept plus all k dummies raises RankDeficient",
                     caught == trials, f"caught {caught}/{trials}")

    spec = oracle.CellMeanSpec(
        {"g": ("u", "v", "w")},
        {("u",): oracle.Cell(4.25, 3), ("v",): oracle.Cell(-1.5, 2),
         ("w",): oracle.Cell(0.125, 5)},
    )
    got = oracle.cell_means(oracle.synthesize(spec, 0.75), ["g"], "y")
    ok = all(abs(got[(lv,)] - spec.cells[(lv,)].mean) < 1e-12
             for lv in ("u", "v", "w"))
    all_ok &= _check("synthesize hits prescribed cell means", ok)

    return 0 if all_ok else 3


def run(args: argparse.Namespace) -> int:
    try:
        if args.subcommand == "fit":
            return _cmd_fit(args)
        if args.subcommand == "relevel":
            return _cmd_fit(args, require_refs=True)
        if args.subcommand == "encode":
            return _cmd_encode(args)
        if args.subcommand == "predict":
            return _cmd_predict(args)
        if args.subcommand == "selftest":
            return _cmd_selftest()
        raise UsageError(f"unknown subcommand {args.subcommand!r}")
    # Formula errors subclass DummyregError, so they must come first.
    except (IllegalCharacter, FormulaSyntaxError, UnknownFunction, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DummyregError, OSError) as exc:
        print(f"error: {_at_line(exc, args)}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
