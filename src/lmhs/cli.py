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
    from .exactlin import json_dict

    try:
        with open(path, "r", encoding="utf-8") as fh:
            # a repeated key in any object is an input error, not the last value
            return json.load(fh, object_pairs_hook=lambda pairs: json_dict(
                pairs, "key %r appears twice"))
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:  # the decoder recurses once per nesting level
        raise ValueError(f"{path}: not valid JSON (nested too deeply)") from exc


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


def _read_validated(path: str):
    """(data, its validation) of the degeneration file at path, the one
    reading step of check and validate; an input error is printed and gives
    None."""
    from .steenbrink import DegenerationData, validate_degeneration_data

    try:
        data = _read_input(path, DegenerationData.from_json)
        return data, validate_degeneration_data(data)
    except (ValueError, KeyError, TypeError, AssertionError, ArithmeticError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return None


def cmd_check(args) -> int:
    from .steenbrink import DegenerateFormError, nearby_hodge_index

    read = _read_validated(args.input)
    if read is None:
        return EXIT_INPUT
    data, validation = read
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
    read = _read_validated(args.input)
    if read is None:
        return EXIT_INPUT
    _, validation = read
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
    main = verify_main_theorem(data)
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
    from .identities import jordan_exponential, taylor_minor_identity, wedge_identity

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
    if corrupt is not None and corrupt not in pairs:
        n, k = corrupt
        print(f"invalid input: --corrupt {n},{k} is not a checked pair "
              f"(1 <= n <= {args.max_n}, 0 <= k <= n + 1)", file=sys.stderr)
        return EXIT_INPUT
    failures = []
    for n in range(1, args.max_n + 1):
        # one exponential per Jordan string serves every k
        exponential = jordan_exponential(n)
        for k in range(0, n + 2):
            ok = taylor_minor_identity(n, k) and wedge_identity(n, k, exponential)
            if not ok or (n, k) == corrupt:
                failures.append((n, k))
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


def cmd_tables(args) -> int:
    from .tables import table_report

    try:
        report, ok = table_report(args, _read_input)
    except (ValueError, KeyError, AssertionError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args.format)
    return EXIT_OK if ok else EXIT_VERDICT


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
    _add_common(tables)
    tables.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
