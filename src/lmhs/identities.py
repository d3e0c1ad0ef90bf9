"""The combinatorial identities behind the orbit's minor bookkeeping:
standard Young tableaux of a rectangle, the Taylor-block minors and the
wedge determinants on a single Jordan string.  lmhs verify-identities
checks both for every (n, k) with 1 <= n <= --max-n and 0 <= k <= n + 1.

Only exactlin is imported, so the identity suite compiles no orbit code.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .exactlin import (
    ExactMatrix,
    G_I,
    G_ZERO,
    GaussianScalar,
    PolyScalar,
    _require,
    exp_nilpotent,
    i_power,
    poly_det,
)


def syt_count(rows: int, cols: int) -> int:
    """Standard Young tableaux of the rows x cols rectangle (hook lengths)."""
    _require(rows >= 0 and cols >= 0, "a rectangle has nonnegative sides")
    if rows == 0 or cols == 0:
        return 1
    hooks = 1
    for i in range(rows):
        for j in range(cols):
            hooks *= (rows - i) + (cols - j) - 1
    total = factorial(rows * cols)
    _require(total % hooks == 0, "the hook lengths do not divide the factorial")
    return total // hooks


def taylor_minor_identity(n: int, k: int) -> bool:
    """The upper-right k x k minor of the (n+1) x (n+1) Taylor matrix
    (x^(j-i)/(j-i)!) equals syt(n-k+1, k)/((n-k+1)k)! x^((n-k+1)k).
    Returns whether it does.
    """
    _require(0 <= k <= n + 1, f"minor size {k} outside 0..{n + 1}")
    # cell (r, c) is x^e / e! with e = n + 1 - k + c - r, and 0 when e < 0:
    # coefficient e is 1/e! times the 0/1 matrix of the cells of that e
    coeffs = [
        ExactMatrix.from_rational([[int(n + 1 - k + c - r == e) for c in range(k)]
                                   for r in range(k)], cols=k).scale(Fraction(1, factorial(e)))
        for e in range(n + 1)
    ]
    det = poly_det(*coeffs)
    e = (n - k + 1) * k
    coeff = Fraction(syt_count(n - k + 1, k), factorial(e))
    expected = PolyScalar([G_ZERO] * e + [GaussianScalar(coeff)])
    return det == expected


def jordan_exponential(n: int) -> list[ExactMatrix]:
    """The t-coefficients C_j of e^{itN} on a single Jordan string u, Nu,
    ..., N^n u, each beside its conjugate, the t-coefficient of e^{-itN}
    (N is real): [C_j | conj C_j].  N^j u is the j-th unit vector, so
    e^{itN} N^j u is column j of e^{itN}.
    """
    m = n + 1
    rows = [[0] * m for _ in range(m)]
    for j in range(m - 1):
        rows[j + 1][j] = 1
    N = ExactMatrix.from_rational(rows)
    return [C.hstack(C.conj()) for C in exp_nilpotent(N, G_I)]


def wedge_identity(n: int, k: int, exponential: list[ExactMatrix]) -> bool:
    """On a single Jordan string u, Nu, ..., N^n u, the determinant of
    [e^{zN} N^j u (j=0..n-k) | e^{zbar N} N^j u (j=0..k-1)] equals
    syt(n-k+1,k)/((n-k+1)k)! (zbar - z)^((n-k+1)k), with zbar - z = -2it.
    Returns whether it does, at z = it: a real Re z = a multiplies both
    blocks by e^{aN}, whose determinant is 1.  exponential is
    jordan_exponential(n), which serves every k.
    """
    _require(0 <= k <= n + 1, f"minor size {k} outside 0..{n + 1}")
    columns = [*range(n - k + 1), *range(n + 1, n + 1 + k)]
    det = poly_det(*(C.take_columns(columns) for C in exponential))
    e = (n - k + 1) * k
    # (-2i)^e = (-2)^e i^e
    coeff = Fraction(syt_count(n - k + 1, k), factorial(e)) * (-2) ** e
    ie = i_power(e)
    expected = PolyScalar([G_ZERO] * e + [GaussianScalar(coeff * ie.re, coeff * ie.im)])
    return det == expected
