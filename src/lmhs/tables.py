"""The closed-form index tables of `lmhs tables`: one handler per family,
each reading the parsed command line and returning (report, ok), ok False
when the report carries a failed verdict.  Bad input raises ValueError.

Only `lmhs tables` imports this module, so no other subcommand compiles
it.  It does not import lmhs.cli: under `python -m lmhs.cli` that module
runs as __main__, and importing it would compile it a second time.  The
one reader a handler needs, the --hodge file, is passed in.
"""

from __future__ import annotations

from . import geomodels
from .exactlin import json_int


def _odp(args, read_input) -> tuple[dict, bool]:
    if args.m % 2:
        if args.R is None:
            raise ValueError("odd m needs --R")
        table = _parse_rows(args.rows)
        inp = geomodels.OdpInput(args.m, args.l, R=args.R, table=table)
    else:
        if args.vhat is None:
            raise ValueError("even m needs --vhat plus,minus")
        plus, minus = (int(x) for x in args.vhat.split(","))
        table = _parse_rows(args.rows)
        inp = geomodels.OdpInput(args.m, args.l, vhat=(plus, minus), table=table)
    return {"family": "odp", "m": args.m, "l": args.l,
            "table": geomodels.odp_index_formula(inp)}, True


def _parse_rows(spec: str | None) -> dict:
    """k:plus:minus rows separated by semicolons."""
    out = {}
    if not spec:
        return out
    for chunk in spec.split(";"):
        k, plus, minus = (int(x) for x in chunk.split(":"))
        out[k] = (plus, minus)
    return out


def _kahler(args, read_input) -> tuple[dict, bool]:
    if args.k3:
        hodge = geomodels.k3_hodge_numbers()
        m = 2
    elif args.hodge:
        m, hodge = read_input(args.hodge, _hodge_from_json)
    else:
        raise ValueError("kahler needs --k3 or --hodge FILE")
    rows = {}
    try:
        for p in range(0, m + 1):
            rows[p] = geomodels.kahler_index_formula(hodge, m, p)
    except ValueError as exc:
        return {"family": "kahler", "error": str(exc)}, False
    report = {"family": "kahler", "m": m, "rows": rows}
    if m % 2 == 0:
        report["full_signature"] = geomodels.full_signature(hodge, m)
    return report, True


def _hodge_from_json(blob: dict) -> tuple[int, dict]:
    """(m, Hodge numbers) of a --hodge file, {"m": 2, "hodge": {"p,q": h}};
    a value of the wrong JSON type is a TypeError raised right after it is
    read, so the reader names its path.  m must be at least 0 and every
    (p, q) must lie in 0..m; a ValueError names the value out of range."""
    m = json_int(blob, "m", minimum=0)
    numbers = blob["hodge"]
    if not isinstance(numbers, dict):
        raise TypeError(f"hodge must be an object, not {type(numbers).__name__}")
    hodge = {}
    for key in numbers:
        try:
            p, q = (int(x) for x in key.split(","))
        except ValueError:
            raise ValueError(f"hodge key {key!r} is not p,q") from None
        if not (0 <= p <= m and 0 <= q <= m):
            raise ValueError(f"hodge key {key!r} is outside 0..{m}")
        hodge[p, q] = json_int(numbers, key)
    return m, hodge


def _sano(args, read_input) -> tuple[dict, bool]:
    table = geomodels.sano_index_table(args.m, args.a)
    rows = {}
    for k, row in table.items():
        neg = row["negative"]
        rows[k] = f"(h^{{{k},{args.m - k}}} - {neg}, {neg})" if neg else \
            f"(h^{{{k},{args.m - k}}}, 0)"
    return {"family": "sano", "m": args.m, "a": args.a, "rows": rows}, True


def _o16(args, read_input) -> tuple[dict, bool]:
    rows = _parse_rows(args.rows)
    report = geomodels.o16_evaluator(args.defect, rows)
    return {"family": "o16", **report}, True


def _lefschetz(args, read_input) -> tuple[dict, bool]:
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
    return report, check["ok"]


_HANDLERS = {
    "odp": _odp,
    "kahler": _kahler,
    "sano": _sano,
    "o16": _o16,
    "lefschetz": _lefschetz,
}


def table_report(args, read_input) -> tuple[dict, bool]:
    """The report of the family args.family and whether its verdict holds.
    read_input(path, from_json) reads a JSON input file, as lmhs.cli's
    reader does."""
    handler = _HANDLERS.get(args.family)
    if handler is None:
        raise ValueError(f"unknown family {args.family!r}")
    return handler(args, read_input)
