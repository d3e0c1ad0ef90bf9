"""Command line front end: ingest JSON inputs, run the verification
pipelines, and emit deterministic text or JSON reports.

Exit codes: 0 when every requested check passes, 1 on invalid input or
usage, 2 when the input is well formed but a mathematical verdict fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERDICT = 2


class CliParser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; remap to the input-error
    code so 2 stays reserved for mathematical verdicts."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _plain(obj):
    """Coerce report values to JSON-serializable builtins, deterministically."""
    if isinstance(obj, dict):
        return {_key(k): _plain(v) for k, v in sorted(obj.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    return str(obj)


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(x) for x in k)
    return str(k)


def _text_lines(obj, prefix=""):
    lines = []
    if isinstance(obj, dict):
        for k in obj:
            v = obj[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_text_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}-")
                lines.extend(_text_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}- {v}")
    else:
        lines.append(f"{prefix}{obj}")
    return lines


def _emit(report: dict, fmt: str, out=None):
    out = out or sys.stdout
    plain = _plain(report)
    if fmt == "json":
        out.write(json.dumps(plain, sort_keys=True, indent=2) + "\n")
    else:
        out.write("\n".join(_text_lines(plain)) + "\n")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def _read_input(path: str, from_json):
    """from_json of the JSON object in path; a malformed shape is a
    ValueError that says what is wrong, a value of the wrong JSON type
    named by its path."""
    blob = _load_json(path)
    if not isinstance(blob, dict):
        raise ValueError(f"{path}: the top level is not a JSON object")
    try:
        return from_json(blob)
    except KeyError as exc:
        raise ValueError(f"missing key {exc}") from exc
    except TypeError as exc:
        from .jsonpath import bad_value_path

        raise ValueError(f"{bad_value_path(from_json, blob)}: wrong JSON type ({exc})") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    from .steenbrink import (
        DegenerateFormError,
        DegenerationData,
        nearby_hodge_index,
        validate_degeneration_data,
    )

    try:
        data = _read_input(args.input, DegenerationData.from_json)
        validation = validate_degeneration_data(data)
    except (ValueError, KeyError, TypeError, AssertionError, ArithmeticError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not validation.ok:
        _emit({"valid": False, "failures": validation.failures}, args.format)
        return EXIT_INPUT
    try:
        report = nearby_hodge_index(data)
    except DegenerateFormError as exc:
        _emit({"verdict": False, "failures": [str(exc)]}, args.format)
        return EXIT_VERDICT
    _emit(report.to_json(), args.format)
    return EXIT_OK if report.ok else EXIT_VERDICT


def cmd_validate(args) -> int:
    from .steenbrink import DegenerationData, validate_degeneration_data

    try:
        data = _read_input(args.input, DegenerationData.from_json)
        validation = validate_degeneration_data(data)
    except (ValueError, KeyError, TypeError, AssertionError, ArithmeticError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit({"valid": validation.ok, "failures": validation.failures}, args.format)
    return EXIT_OK if validation.ok else EXIT_VERDICT


def cmd_orbit(args) -> int:
    from .mhs import MHSData
    from .orbit import verify_main_theorem

    try:
        data = _read_input(args.input, MHSData.from_json)
    except (ValueError, KeyError, TypeError, AssertionError, ArithmeticError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    main = verify_main_theorem(data, args.t0, args.t0_cap)
    if not main.details:
        _emit({"verdict": False, "failures": main.failures}, args.format)
        return EXIT_VERDICT
    asym = main.details["opposedness"]
    report = {
        "verdict": main.ok,
        "failures": main.failures,
        "polarized": main.details["polarized"],
        "levels": main.details["levels"],
        "pieces": main.details["pieces"],
        "nearby": main.details["nearby"],
        "opposedness": asym.to_json(),
    }
    _emit(report, args.format)
    return EXIT_OK if main.ok and asym.ok else EXIT_VERDICT


def cmd_verify_identities(args) -> int:
    from .orbit import taylor_minor_identity, wedge_identity

    if args.max_n < 1:
        print("invalid input: --max-n must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    corrupt = None
    if args.corrupt:
        try:
            n_str, k_str = args.corrupt.split(",")
            corrupt = (int(n_str), int(k_str))
        except ValueError:
            print("invalid input: --corrupt expects n,k", file=sys.stderr)
            return EXIT_INPUT
    pairs = [(n, k) for n in range(1, args.max_n + 1) for k in range(0, n + 2)]
    failures = []
    for pair in pairs:
        ok = taylor_minor_identity(*pair) and wedge_identity(*pair)
        if not ok or pair == corrupt:
            failures.append(pair)
    report = {
        "checked": len(pairs),
        "max_n": args.max_n,
        "failures": [list(p) for p in failures],
        "verdict": not failures,
    }
    _emit(report, args.format)
    if failures:
        n, k = failures[0]
        print(f"identity failed at (n, k) = ({n}, {k})", file=sys.stderr)
        return EXIT_VERDICT
    return EXIT_OK


def _tables_odp(args) -> int:
    from . import geomodels

    if args.m % 2:
        if args.R is None:
            print("invalid input: odd m needs --R", file=sys.stderr)
            return EXIT_INPUT
        table = _parse_rows(args.rows)
        inp = geomodels.OdpInput(args.m, args.l, R=args.R, table=table)
    else:
        if args.vhat is None:
            print("invalid input: even m needs --vhat plus,minus", file=sys.stderr)
            return EXIT_INPUT
        plus, minus = (int(x) for x in args.vhat.split(","))
        table = _parse_rows(args.rows)
        inp = geomodels.OdpInput(args.m, args.l, vhat=(plus, minus), table=table)
    _emit({"family": "odp", "m": args.m, "l": args.l,
           "table": geomodels.odp_index_formula(inp)}, args.format)
    return EXIT_OK


def _parse_rows(spec: str | None) -> dict:
    """k:plus:minus rows separated by semicolons."""
    out = {}
    if not spec:
        return out
    for chunk in spec.split(";"):
        k, plus, minus = (int(x) for x in chunk.split(":"))
        out[k] = (plus, minus)
    return out


def _tables_kahler(args) -> int:
    from . import geomodels

    if args.k3:
        hodge = geomodels.k3_hodge_numbers()
        m = 2
    elif args.hodge:
        m, hodge = _read_input(args.hodge, _hodge_from_json)
    else:
        print("invalid input: kahler needs --k3 or --hodge FILE", file=sys.stderr)
        return EXIT_INPUT
    rows = {}
    try:
        for p in range(0, m + 1):
            rows[p] = geomodels.kahler_index_formula(hodge, m, p)
    except ValueError as exc:
        _emit({"family": "kahler", "error": str(exc)}, args.format)
        return EXIT_VERDICT
    report = {"family": "kahler", "m": m, "rows": rows}
    if m % 2 == 0:
        report["full_signature"] = geomodels.full_signature(hodge, m)
    _emit(report, args.format)
    return EXIT_OK


def _hodge_from_json(blob: dict) -> tuple[int, dict]:
    """(m, Hodge numbers) of a --hodge file, {"m": 2, "hodge": {"p,q": h}};
    a value of the wrong JSON type is a TypeError raised right after it is
    read, so _read_input names its path."""
    from .exactlin import json_int

    m = json_int(blob, "m")
    numbers = blob["hodge"]
    if not isinstance(numbers, dict):
        raise TypeError(f"hodge must be an object, not {type(numbers).__name__}")
    hodge = {}
    for key in numbers:
        try:
            p, q = (int(x) for x in key.split(","))
        except ValueError:
            raise ValueError(f"hodge key {key!r} is not p,q") from None
        hodge[p, q] = json_int(numbers, key)
    return m, hodge


def _tables_sano(args) -> int:
    from . import geomodels

    table = geomodels.sano_index_table(args.m, args.a)
    rows = {}
    for k, row in table.items():
        neg = row["negative"]
        rows[k] = f"(h^{{{k},{args.m - k}}} - {neg}, {neg})" if neg else \
            f"(h^{{{k},{args.m - k}}}, 0)"
    _emit({"family": "sano", "m": args.m, "a": args.a, "rows": rows}, args.format)
    return EXIT_OK


def _tables_o16(args) -> int:
    from . import geomodels

    rows = _parse_rows(args.rows)
    report = geomodels.o16_evaluator(args.defect, rows)
    _emit({"family": "o16", **report}, args.format)
    return EXIT_OK


def _tables_lefschetz(args) -> int:
    from . import geomodels

    if not args.schoen:
        print("invalid input: lefschetz currently exposes --schoen", file=sys.stderr)
        return EXIT_INPUT
    inp = geomodels.schoen_input()
    readings = geomodels.fiber_product_readings(inp)
    check = geomodels.fiber_product_dim_check(inp)
    report = {
        "family": "lefschetz",
        "middle_betti_factor": geomodels.lefschetz_middle_betti(inp, 1),
        "fiber_product": readings["symmetric"],
        "printed_reading": readings["printed"],
        "dim_check": check["ok"],
    }
    _emit(report, args.format)
    return EXIT_OK if check["ok"] else EXIT_VERDICT


def cmd_tables(args) -> int:
    handlers = {
        "odp": _tables_odp,
        "kahler": _tables_kahler,
        "sano": _tables_sano,
        "o16": _tables_o16,
        "lefschetz": _tables_lefschetz,
    }
    handler = handlers.get(args.family)
    if handler is None:
        print(f"invalid input: unknown family {args.family!r}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return handler(args)
    except (ValueError, KeyError, AssertionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text) if text.isdecimal() else 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _add_common(sub):
    sub.add_argument("--format", choices=["text", "json"], default="text")
    sub.add_argument("--workers", type=_positive_int, default=1,
                     help="accepted for compatibility; has no effect")


def build_parser() -> CliParser:
    parser = CliParser(prog="lmhs")
    subs = parser.add_subparsers(dest="command", required=True)

    check = subs.add_parser("check", help="run the index pipeline on a degeneration")
    check.add_argument("input")
    _add_common(check)
    check.set_defaults(func=cmd_check)

    validate = subs.add_parser("validate", help="validate a degeneration JSON file")
    validate.add_argument("input")
    _add_common(validate)
    validate.set_defaults(func=cmd_validate)

    orbit = subs.add_parser("orbit", help="orbit asymptotics of a mixed Hodge structure")
    orbit.add_argument("input")
    orbit.add_argument("--t0", type=_positive_int, default=2 ** 10)
    orbit.add_argument("--t0-cap", dest="t0_cap", type=_positive_int, default=2 ** 60)
    _add_common(orbit)
    orbit.set_defaults(func=cmd_orbit)

    ident = subs.add_parser("verify-identities", help="combinatorial identity suite")
    ident.add_argument("--max-n", dest="max_n", type=int, default=8)
    ident.add_argument("--corrupt", default=None,
                       help="test mode: force a failure at n,k")
    _add_common(ident)
    ident.set_defaults(func=cmd_verify_identities)

    tables = subs.add_parser("tables", help="closed-form index tables")
    tables.add_argument("family",
                        choices=["odp", "kahler", "sano", "o16", "lefschetz"])
    tables.add_argument("--m", type=int, default=3)
    tables.add_argument("--l", type=int, default=0)
    tables.add_argument("--R", type=int, default=None)
    tables.add_argument("--vhat", default=None)
    tables.add_argument("--a", type=int, default=1)
    tables.add_argument("--defect", type=int, default=0)
    tables.add_argument("--rows", default=None,
                        help="signature rows as k:plus:minus;...")
    tables.add_argument("--k3", action="store_true")
    tables.add_argument("--hodge", default=None)
    tables.add_argument("--schoen", action="store_true")
    _add_common(tables)
    tables.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "orbit" and args.t0 > args.t0_cap:
        parser.error("--t0 must not exceed --t0-cap")
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
