"""Command line front end: exact matrix input as JSON, results as JSON.

Matrix files look like

    {"rows": [["1/2", "-3+i"], ["0", "2/3-1/2i"]]}

with every entry a scalar string (integers are also accepted). All printed
matrices use the same entry syntax, so any output can be fed back in.

Exit codes: 0 on success, 1 for usage or input problems (including
exhausted generation), 2 when a requested inverse does not exist or a
rule's standing hypothesis fails, 3 when verification finds a mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .generators import GenerationExhausted, Verdict, run_campaign
from .ginverse import NotGroupInvertible, drazin, group_inverse
from .matrices import Matrix, ShapeMismatch
from .scalars import ScalarParseError, scalar_parts
from .theorems import (
    SHAPE_FOR_THEOREM,
    THEOREM_IDS,
    BlockGroupInverse,
    Condition,
    HypothesisViolated,
    block_group_inverse,
    check_conditions,
)


class InputError(ValueError):
    """A matrix file is missing, malformed, or not a matrix."""


class OutputError(ValueError):
    """A result entry has too many digits to print."""


def matrix_to_rows(matrix: Matrix) -> list[list[str]]:
    """The entries as scalar strings (``Matrix.text_rows``)."""
    return _printed(matrix.text_rows)


def _printed(text, *args):
    """text(*args), with Python's int-to-str digit limit as OutputError."""
    try:
        return text(*args)
    except ValueError as exc:
        raise OutputError(f"a result entry exceeds Python's limit of "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def matrix_from_rows(rows: object, where: str = "matrix") -> Matrix:
    if not isinstance(rows, list) or not rows:
        raise InputError(f'{where}: "rows" must be a non-empty list')
    parts: list[tuple[int, int, int, int]] = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise InputError(f"{where}: row {i} must be a non-empty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise InputError(f"{where}: row {i} has {len(row)} entries, "
                             f"expected {width}")
        for j, entry in enumerate(row):
            if isinstance(entry, str):
                try:
                    parts.append(scalar_parts(entry))
                except ScalarParseError as exc:
                    raise InputError(
                        f"{where}: entry ({i}, {j}): {exc}"
                    ) from exc
            elif isinstance(entry, int) and not isinstance(entry, bool):
                parts.append((entry, 1, 0, 1))
            else:
                raise InputError(
                    f"{where}: entry ({i}, {j}) must be a string or integer"
                )
    return Matrix.from_parts(len(rows), width, parts)


def load_matrix(path: str) -> Matrix:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 ({exc})") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise InputError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(payload, dict) or "rows" not in payload:
        raise InputError(f'{path}: expected an object with a "rows" key')
    return matrix_from_rows(payload["rows"], where=path)


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _fail(code: int, kind: str, message: str) -> int:
    _emit_error(kind, message)
    return code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        _emit_error("Usage", message)
        raise SystemExit(1)


def _condition_json(condition: Condition) -> dict:
    out = {
        "name": condition.name,
        "holds": condition.holds,
        "residual": matrix_to_rows(condition.residual),
    }
    if condition.lam is not None:
        out["lambda"] = _printed(str, condition.lam)
    return out


def _joined(gamma: list, delta: list, lam: list, xi: list) -> list:
    """The rows of [[gamma, delta], [lambda, xi]] from its blocks' rows.

    An entry's text depends only on its value, so the assembled matrix's
    rows are the blocks' rows joined.
    """
    return [a + b for a, b in zip(gamma + lam, delta + xi)]


def _blocks_json(result: BlockGroupInverse) -> dict:
    """The rows of gamma, delta, lambda, xi and the assembled matrix."""
    gamma, delta, lam, xi = map(matrix_to_rows, (
        result.gamma, result.delta, result.lambda_blk, result.xi))
    return {"gamma": gamma, "delta": delta, "lambda": lam, "xi": xi,
            "assembled": _joined(gamma, delta, lam, xi)}


def _cmd_drazin(args) -> int:
    result = drazin(load_matrix(args.file))
    print(json.dumps({
        "drazin": matrix_to_rows(result.drazin),
        "index": result.index,
        "pi": matrix_to_rows(result.spectral_idempotent),
    }))
    return 0


def _cmd_groupinv(args) -> int:
    print(json.dumps({
        "group_inverse": matrix_to_rows(group_inverse(load_matrix(args.file))),
    }))
    return 0


def _cmd_block(args) -> int:
    e, f = map(load_matrix, (args.e_file, args.f_file))
    result = block_group_inverse(args.theorem, e, f)
    print(json.dumps({
        "theorem": args.theorem,
        "shape": SHAPE_FOR_THEOREM[args.theorem].value,
        **_blocks_json(result),
        "conditions": [_condition_json(c) for c in result.report.conditions],
    }))
    return 0


def _cmd_check(args) -> int:
    e, f = map(load_matrix, (args.e_file, args.f_file))
    report = check_conditions(e, f, args.theorem)
    print(json.dumps({
        "theorem": args.theorem,
        "shape": SHAPE_FOR_THEOREM[args.theorem].value,
        "conditions": [_condition_json(c) for c in report.conditions],
        "satisfied": report.satisfied(),
    }))
    return 0


def _cmd_verify(args) -> int:
    for flag, value in (("--trials", args.trials), ("--max-n", args.max_n),
                        ("--jobs", args.jobs)):
        if value < 1:
            return _fail(1, "Usage", f"{flag} must be at least 1")
    trials = run_campaign(args.theorem, args.trials, args.max_n, args.seed,
                          negative=args.negative, jobs=args.jobs)
    counts: Counter[Verdict] = Counter()
    for idx, trial in enumerate(trials):
        line = {
            "trial": idx,
            "seed": trial.spec.seed,
            "n": trial.spec.n,
            "rank_f": trial.spec.rank_f,
            "verdict": trial.report.verdict.value,
            "oracle_index": trial.report.oracle_index,
        }
        if trial.report.verdict is Verdict.MISMATCH:
            line["E"] = matrix_to_rows(trial.e)
            line["F"] = matrix_to_rows(trial.f)
            line["mismatch_positions"] = [
                list(pos) for pos in trial.report.mismatch_positions
            ]
            if trial.report.error:
                line["error"] = trial.report.error
        print(json.dumps(line))
        counts[trial.report.verdict] += 1
    print(json.dumps({
        "summary": True,
        "theorem": args.theorem,
        "trials": len(trials),
        "agree_exists": counts[Verdict.AGREE_EXISTS],
        "agree_not_exists": counts[Verdict.AGREE_NOT_EXISTS],
        "mismatch": counts[Verdict.MISMATCH],
    }))
    return 3 if counts[Verdict.MISMATCH] else 0


_EXAMPLE_E = [["1", "2"], ["0", "-1"]]
_EXAMPLE_F = [["i", "i"], ["0", "0"]]
_EXAMPLE_BLOCKS = {
    "gamma": [["0", "1"], ["0", "-1"]],
    "delta": [["-i", "-i"], ["0", "0"]],
    "lambda": [["-i", "-i"], ["0", "0"]],
    "xi": [["1", "1"], ["0", "0"]],
}
_EXAMPLE_ASSEMBLED = _joined(*_EXAMPLE_BLOCKS.values())


def _cmd_example(args) -> int:
    e = matrix_from_rows(_EXAMPLE_E, "E")
    f = matrix_from_rows(_EXAMPLE_F, "F")
    computed = _blocks_json(block_group_inverse("thm3.1", e, f))
    # Printed entries are in lowest terms, so equal text is equal value.
    expected = {**_EXAMPLE_BLOCKS, "assembled": _EXAMPLE_ASSEMBLED}
    match = computed == expected
    print(json.dumps({
        "theorem": "thm3.1",
        "E": _EXAMPLE_E,
        "F": _EXAMPLE_F,
        "computed": computed,
        "expected": expected,
        "match": match,
    }))
    print("PASS" if match else "FAIL")
    return 0 if match else 3


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockginv",
        description="Exact Drazin and group inverses over the Gaussian "
                    "rationals, with closed forms for anti-triangular "
                    "block matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drazin", help="Drazin inverse, index, and spectral "
                                      "idempotent of a square matrix")
    p.add_argument("file", help="JSON matrix file")
    p.set_defaults(func=_cmd_drazin)

    p = sub.add_parser("groupinv", help="group inverse of a square matrix; "
                                        "fails when the index exceeds 1")
    p.add_argument("file", help="JSON matrix file")
    p.set_defaults(func=_cmd_groupinv)

    # The rule fixes the block layout, so a pair's command takes no layout.
    for name, func, text in (
            ("block", _cmd_block, "closed-form group inverse of the block "
                                  "matrix a theorem id covers"),
            ("check", _cmd_check, "evaluate a theorem's hypotheses on a "
                                  "pair without inverting anything")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
        p.add_argument("--E", required=True, dest="e_file", metavar="FILE")
        p.add_argument("--F", required=True, dest="f_file", metavar="FILE")
        p.set_defaults(func=func)

    p = sub.add_parser("verify", help="random instances: closed form "
                                      "against the from-scratch inverse")
    p.add_argument("--theorem", required=True, choices=THEOREM_IDS)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--max-n", type=int, default=5, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negative", action="store_true",
                   help="draw instances the rule must refuse instead")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes; results do not depend on it")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example-3.5", help="recompute the bundled 4x4 "
                                           "worked example and compare")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ShapeMismatch, OutputError,
            GenerationExhausted) as exc:
        return _fail(1, type(exc).__name__, str(exc))
    except (NotGroupInvertible, HypothesisViolated) as exc:
        return _fail(2, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
