"""Primitive signature tables and the nearby-fiber aggregation formulas.

A table holds the signatures s+/s- of the primitive Hermitian forms per
bidegree (p, q), whether they come from a mixed Hodge structure (mhs) or
from the middle E2 page of a degeneration (steenbrink); aggregate_s and
nearby_index_formula turn it into the predicted Hodge index of the nearby
fiber.
"""

from __future__ import annotations

from .exactlin import ContractError


def epsilon_sign(a: int) -> int:
    """The sign (-1)^(a(a-1)/2); satisfies eps(a+1) = (-1)^a eps(a)."""
    return -1 if (a * (a - 1) // 2) % 2 else 1


class SignatureTable:
    """Primitive signatures s+/s- per bidegree (p,q), with part dimensions;
    top is the largest p with an entry, None for a table without one."""

    __slots__ = ("d", "entries", "part_dims", "top")

    def __init__(
        self,
        d: int,
        entries: dict[tuple[int, int], tuple[int, int]],
        part_dims: dict[tuple[int, int], int],
    ):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", dict(sorted(entries.items())))
        object.__setattr__(self, "part_dims", dict(sorted(part_dims.items())))
        object.__setattr__(self, "top", max((P for P, _ in entries), default=None))

    def __setattr__(self, name, value):
        raise AttributeError("SignatureTable is immutable")

    def signature(self, p: int, q: int) -> tuple[int, int]:
        return self.entries.get((p, q), (0, 0))

    def part_dim(self, p: int, q: int) -> int:
        return self.part_dims.get((p, q), 0)

    def to_json(self) -> list[dict]:
        return [
            {"p": p, "q": q, "plus": plus, "minus": minus}
            for (p, q), (plus, minus) in self.entries.items()
        ]

    def __repr__(self):
        body = ", ".join(
            f"s^{pq}=({a},{b})" for pq, (a, b) in self.entries.items()
        )
        return f"SignatureTable(d={self.d}; {body})"


def aggregate_s(table: SignatureTable, p: int, l: int) -> tuple[int, int]:
    """The bold invariants S±^{p, d+l-p} = sum_{r >= max(0,-l)} s±^{p+r, d+l-p+r};
    checks that S+ + S- equals the dimension of the (p, d+l-p)-part of Gr_{d+l}.
    """
    d = table.d
    q = d + l - p
    plus = minus = 0
    rmax = (p if table.top is None else table.top) - p
    for r in range(max(0, -l), rmax + 1):
        a, b = table.signature(p + r, q + r)
        plus += a
        minus += b
    expected = table.part_dim(p, q)
    if plus + minus != expected:
        raise ContractError(
            f"aggregate S^({p},{q}) = {plus}+{minus} but dim I^({p},{q}) = {expected}")
    return plus, minus


def nearby_index_formula(table: SignatureTable, p: int) -> tuple[int, int]:
    """Predicted signature of S(C., conj .) on the (p, d-p)-part of the
    nearby/orbit Hodge structure: sum_{k=0}^{d} S±^{p,k}, cross-checked
    against the equivalent double sum over l >= p-d, r >= max(0,-l).
    """
    d = table.d
    plus = minus = 0
    for k in range(0, d + 1):
        a, b = aggregate_s(table, p, p + k - d)
        plus += a
        minus += b
    # the double-sum form must agree
    plus2 = minus2 = 0
    for (P, Q), (a, b) in table.entries.items():
        r = P - p
        if r < 0:
            continue
        l = Q - d + p - r
        if l >= p - d and r >= max(0, -l) and 0 <= d + l - p <= d:
            plus2 += a
            minus2 += b
    if (plus, minus) != (plus2, minus2):
        raise ContractError(
            f"aggregation forms disagree at p={p}: {(plus, minus)} vs {(plus2, minus2)}")
    return plus, minus
