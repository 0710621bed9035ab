"""Command line front end.

Subcommands: ``validate``, ``compute``, ``check``, ``fixture`` and
``list-fixtures``.  Machine-readable JSON goes to stdout, human-readable
reporting to stderr.  Exit codes: 0 success (and all requested checks
passed), 1 checks failed, 2 invalid input, 3 resource cap exceeded.

Model arguments accept either a file path or the name of an embedded
fixture (``rotaxa check genus2_full --interior``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import compute, outcomes_passed, run_checks, validate
from .errors import (
    EngineError,
    ModelFormatError,
    ModelValidationError,
    ResourceCapError,
)
from .fixtures import FIXTURE_NAMES, get_fixture
from .model import ModelDocument
from .serialize import (
    blocks_to_csv,
    dumps_canonical,
    model_to_dict,
    result_to_dict,
    load_model,
)

EXIT_OK = 0
EXIT_CHECKS_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_RESOURCE_CAP = 3


def _positive_int(text: str) -> int:
    """An integer of at least 1; argparse names the flag and exits with 2."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotaxa",
        description="Exact rotation-set engine for symbolic surface dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a model document")
    p_validate.add_argument("model")

    p_compute = sub.add_parser("compute", help="compute chains and blocks")
    p_compute.add_argument("model")
    p_compute.add_argument("--out", help="write the result JSON to a file")
    p_compute.add_argument("--csv", help="dump block vertices as CSV rows")

    p_check = sub.add_parser("check", help="run structural checks")
    p_check.add_argument("model")
    p_check.add_argument("--star", action="store_true", help="star-shape about 0")
    p_check.add_argument("--bound", action="store_true", help="block count bound")
    p_check.add_argument(
        "--subspace", action="store_true", help="span and chain containments"
    )
    p_check.add_argument(
        "--convex-density", type=_positive_int, default=None, metavar="N",
        help="probe block convexity on a grid of denominator N",
    )
    p_check.add_argument("--interior", action="store_true", help="interior criterion")
    p_check.add_argument(
        "--oracle-samples", type=_positive_int, default=None, metavar="N",
        help="sample N chain averages and test containment",
    )
    p_check.add_argument("--seed", type=int, default=1)
    p_check.add_argument("--out", help="write the result JSON to a file")

    p_fixture = sub.add_parser("fixture", help="emit an embedded fixture model")
    p_fixture.add_argument("name")
    p_fixture.add_argument("--write", help="write the model JSON to a file")

    sub.add_parser("list-fixtures", help="list embedded fixture names")
    return parser


def _fixture(name: str) -> ModelDocument:
    """The embedded fixture ``name``; an unknown or malformed name is
    invalid input."""
    try:
        return get_fixture(name)
    except KeyError:
        raise ModelFormatError(f"no such file or fixture: {name!r}") from None
    except ValueError as exc:
        raise ModelFormatError(f"fixture {name!r}: {exc}") from None


def _resolve_model(token: str) -> ModelDocument:
    path = Path(token)
    if path.exists():
        return load_model(path)
    return _fixture(token)


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; a path that cannot be written is invalid
    input."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ModelFormatError(f"cannot write {path}: {exc.strerror}") from None


def _emit(payload: dict, out_path: str | None) -> None:
    text = dumps_canonical(payload)
    if out_path:
        _write(out_path, text)
    sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except ModelValidationError as exc:
        for violation in exc.violations:
            print(f"invalid model: {violation}", file=sys.stderr)
        sys.stdout.write(
            dumps_canonical({"valid": False, "violations": exc.violations})
        )
        return EXIT_INVALID_INPUT
    except ModelFormatError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-fixtures":
        sys.stdout.write(dumps_canonical({"fixtures": list(FIXTURE_NAMES)}))
        return EXIT_OK

    if args.command == "fixture":
        model = _fixture(args.name)
        payload = model_to_dict(model)
        text = dumps_canonical(payload)
        if args.write:
            _write(args.write, text)
            print(f"wrote {args.write}", file=sys.stderr)
        sys.stdout.write(text)
        return EXIT_OK

    model = _resolve_model(args.model)

    if args.command == "validate":
        violations, warnings = validate(model)
        for warning in warnings:
            print(f"warning: {warning}", file=sys.stderr)
        if violations:
            for violation in violations:
                print(f"violation: {violation}", file=sys.stderr)
            sys.stdout.write(
                dumps_canonical(
                    {"valid": False, "violations": violations, "warnings": warnings}
                )
            )
            return EXIT_INVALID_INPUT
        sys.stdout.write(
            dumps_canonical({"valid": True, "violations": [], "warnings": warnings})
        )
        print("model is valid", file=sys.stderr)
        return EXIT_OK

    if args.command == "compute":
        computation = compute(model)
        if args.csv:
            _write(args.csv, blocks_to_csv(computation))
        _emit(result_to_dict(computation), args.out)
        print(
            f"{len(computation.chains)} chains, {len(computation.blocks)} blocks",
            file=sys.stderr,
        )
        return EXIT_OK

    if args.command == "check":
        computation = compute(model)
        outcomes = run_checks(
            computation,
            star=args.star,
            bound=args.bound,
            subspace=args.subspace,
            convex_density=args.convex_density,
            interior=args.interior,
            oracle_samples=args.oracle_samples,
            seed=args.seed,
        )
        payload = result_to_dict(computation, outcomes)
        _emit(payload, args.out)
        for outcome in outcomes:
            status = "pass" if outcome.passed else "FAIL"
            print(f"{outcome.name}: {status}", file=sys.stderr)
            for detail in outcome.details:
                print(f"  {detail}", file=sys.stderr)
        return EXIT_OK if outcomes_passed(outcomes) else EXIT_CHECKS_FAILED

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
