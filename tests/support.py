"""Shared random generators (deterministic via seeds) and exact references
for the test suite."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from lmhs import exactlin
from lmhs.exactlin import (
    G_ZERO,
    ExactMatrix,
    GaussianScalar,
    PolyScalar,
    Subspace,
    ZeroMinorError,
    hermitian_check,
    rank,
)


def random_partition(rng: random.Random, n: int) -> list[int]:
    """A random partition of n (Jordan block sizes)."""
    parts = []
    left = n
    while left:
        p = rng.randrange(1, left + 1)
        parts.append(p)
        left -= p
    parts.sort(reverse=True)
    return parts


def jordan_nilpotent(block_sizes: list[int]) -> ExactMatrix:
    """Nilpotent matrix with the given Jordan block sizes.

    Columns convention: within a block with basis u, Nu, ..., N^(s-1)u the
    matrix sends basis vector j to basis vector j+1.
    """
    n = sum(block_sizes)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for s in block_sizes:
        for j in range(s - 1):
            rows[offset + j + 1][offset + j] = 1
        offset += s
    return ExactMatrix.from_rational(rows)


def random_invertible(rng: random.Random, n: int, spread: int = 3) -> ExactMatrix:
    while True:
        M = ExactMatrix.from_rational(
            [[rng.randrange(-spread, spread + 1) for _ in range(n)] for _ in range(n)]
        )
        if rank(M) == n:
            return M


def random_unimodular(rng: random.Random, n: int) -> ExactMatrix:
    """Random integer matrix of determinant +-1 (a product of shears), so
    the inverse is integral and entries stay small."""
    rows = [[Fraction(int(j == k)) for k in range(n)] for j in range(n)]
    for _ in range(2 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    if rng.random() < 0.5 and n:
        rows[0] = [-a for a in rows[0]]
    return ExactMatrix.from_rational(rows)


def invert(M: ExactMatrix) -> ExactMatrix:
    from lmhs.exactlin import rref

    n = M.rows
    # [M | I] always has rank n; M is invertible when its pivots are M's columns
    R, pivots, _ = rref(M.hstack(ExactMatrix.identity(n)))
    if list(pivots) != list(range(n)):
        raise AssertionError("matrix is not invertible")
    return ExactMatrix([[R.entries[j][n + k] for k in range(n)] for j in range(n)])


def random_nilpotent(rng: random.Random, max_dim: int) -> ExactMatrix:
    """A random nilpotent matrix: random Jordan type, random rational basis."""
    n = rng.randrange(1, max_dim + 1)
    J = jordan_nilpotent(random_partition(rng, n))
    T = random_unimodular(rng, n)
    return T @ J @ invert(T)


# -- sympy's exact Gaussian rationals ----------------------------------------
#
# The test references compute in sympy's QQ_I, the field Q(i), and its
# polynomial ring QQ_I[t]; lmhs scalars are values without arithmetic, and
# these functions convert them both ways.

QQ_I_t = ring("t", QQ_I)[0]


def frac(q) -> Fraction:
    """A sympy rational as a Fraction."""
    return Fraction(int(q.numerator), int(q.denominator))


def to_scalar(e: GaussianScalar):
    return QQ_I(e.re, e.im)


def from_scalar(z) -> GaussianScalar:
    return GaussianScalar(frac(z.x), frac(z.y))


def to_domain(M: ExactMatrix) -> DomainMatrix:
    return DomainMatrix([[to_scalar(e) for e in row] for row in M.entries],
                        (M.rows, M.cols), QQ_I)


def from_domain(D: DomainMatrix) -> ExactMatrix:
    return ExactMatrix([[from_scalar(z) for z in row] for row in D.to_list()],
                       cols=D.shape[1])


def conj_domain(D: DomainMatrix) -> DomainMatrix:
    return D.applyfunc(lambda z: QQ_I(z.x, -z.y), QQ_I)


def to_poly(p: PolyScalar):
    return QQ_I_t.from_list([to_scalar(c) for c in reversed(p.coeffs)])


def from_poly(f) -> PolyScalar:
    return PolyScalar([from_scalar(z) for z in reversed(f.to_dense())])


# -- reference polynomial determinants ---------------------------------------
#
# Fraction-free Bareiss elimination in the polynomial ring QQ_I[t] itself.
# It is the reference for exactlin.poly_det and
# exactlin.leading_principal_minors, which evaluate, eliminate over the
# Gaussian integers and interpolate.


def poly_entries(coeffs) -> list[list]:
    """The entries of sum_j t^j coeffs[j] as elements of QQ_I[t]."""
    C0 = coeffs[0]
    return [[to_poly(PolyScalar([C.entries[j][k] for C in coeffs])) for k in range(C0.cols)]
            for j in range(C0.rows)]


def reference_bareiss(A: list[list], allow_swaps: bool):
    """Fraction-free elimination over QQ_I[t].  Returns (pivot list, sign)
    where pivot k is the k-th stage pivot; without swaps these are the
    leading principal minors, and a zero one raises ZeroMinorError.  Every
    division is exact, or exquo raises.
    """
    A = [list(row) for row in A]
    n = len(A)
    sign = 1
    prev = QQ_I_t.one
    pivots = []
    for k in range(n):
        if not A[k][k]:
            if not allow_swaps:
                raise ZeroMinorError(k + 1)
            swap = next((j for j in range(k + 1, n) if A[j][k]), None)
            if swap is None:
                pivots.append(QQ_I_t.zero)
                return pivots, sign
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        piv = A[k][k]
        pivots.append(piv)
        for j in range(k + 1, n):
            for l in range(k + 1, n):
                A[j][l] = (A[j][l] * piv - A[j][k] * A[k][l]).exquo(prev)
        prev = piv
    return pivots, sign


def reference_det(*coeffs: ExactMatrix) -> PolyScalar:
    if coeffs[0].rows == 0:
        return PolyScalar([1])
    pivots, sign = reference_bareiss(poly_entries(coeffs), allow_swaps=True)
    return from_poly(pivots[-1] * sign)


def reference_minors(*coeffs: ExactMatrix) -> list[PolyScalar]:
    return [from_poly(p) for p in reference_bareiss(poly_entries(coeffs), allow_swaps=False)[0]]


# -- reference Hermitian reduction -------------------------------------------
#
# Symmetric Gaussian elimination on QQ_I entries, one division by the pivot
# per row.  It is the reference for exactlin.hermitian_signature and
# exactlin.hermitian_diagonalize, which eliminate fraction-free on the
# integer rows.


def reference_hermitian_reduce(H: ExactMatrix, want_basis: bool):
    """Congruence diagonalization in QQ_I.

    The form is h(x, y) = x^T H conj(y) on coordinate columns, so H is the
    Gram matrix h(e_j, e_k) and Hermitian means H[k][j] = conj(H[j][k]).
    Returns (values, vectors, null vectors, null count), the values as
    Fractions and the vectors as lists of QQ_I elements; without want_basis
    vectors is None and each null vector None.
    """
    if not hermitian_check(H):
        raise AssertionError("hermitian form required (H != H^*)")
    n = H.rows
    A = to_domain(H).to_list()
    basis = [[QQ_I.one if j == k else QQ_I.zero for j in range(n)] for k in range(n)] \
        if want_basis else None
    active = list(range(n))
    values: list[Fraction] = []
    vectors: list[list] = []
    while active:
        piv = None
        for i in active:
            if A[i][i]:
                piv = i
                break
        if piv is None:
            # every diagonal vanishes; pull a hyperbolic pair onto the diagonal
            off = None
            for i in active:
                for j in active:
                    if j != i and A[i][j]:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                break  # totally zero block: the remaining vectors are null
            i, j = off
            c = A[i][j]
            cc = QQ_I(c.x, -c.y)
            # replace e_i by conj(c)*e_i + e_j; new diagonal is 2|c|^2 > 0
            if want_basis:
                basis[i] = [cc * a + b for a, b in zip(basis[i], basis[j])]
            for k in active:
                if k != i:
                    A[i][k] = cc * A[i][k] + A[j][k]
            for k in active:
                if k != i:
                    A[k][i] = QQ_I(A[i][k].x, -A[i][k].y)
            A[i][i] = 2 * c * cc
            piv = i
        d = A[piv][piv]
        if d.y != 0:
            raise AssertionError("hermitian diagonal must be real")
        values.append(frac(d.x))
        if want_basis:
            vectors.append(list(basis[piv]))
        active.remove(piv)
        col = {j: A[j][piv] for j in active}
        for j in active:
            aj = col[j] / d
            if not aj:
                continue
            if want_basis:
                basis[j] = [b - aj * p for b, p in zip(basis[j], basis[piv])]
            for k in active:
                A[j][k] = A[j][k] - aj * A[piv][k]
        for j in active:
            A[j][piv] = QQ_I.zero
            A[piv][j] = QQ_I.zero
    nulls = [list(basis[i]) for i in active] if want_basis else [None] * len(active)
    return values, (vectors if want_basis else None), nulls, len(active)


# -- reference eliminations -------------------------------------------------
#
# The reduced form built as a matrix, then cut, negated and assembled: the
# references for exactlin's kernel, kernel_modulo, inverse, solve and
# class_coordinates, which read their answers straight from the integer rows
# of exactlin._echelon.  reference_rref divides its pivot rows itself, so it
# shares nothing with exactlin._solved_rows.


def reference_rref(M: ExactMatrix):
    """(reduced form, pivots, rank): each pivot row of exactlin._echelon
    divided by its pivot, a real pivot a as the denominator |a| with its
    sign in the numerators, a complex one a + ib as a^2 + b^2."""
    R, I, pivots = exactlin._echelon(M)
    out = []
    for j, c in enumerate(pivots):
        x, y = R[j], I[j]
        a, b = x[c], y[c] if y else 0
        if not b:
            out.append((x, y, a) if a > 0 else ([-v for v in x], [-v for v in y], -a))
            continue
        # (x + iy) / (a + ib) = ((xa + yb) + i(ya - xb)) / (a^2 + b^2)
        out.append(([u * a + v * b for u, v in zip(x, y)],
                    [v * a - u * b for u, v in zip(x, y)], a * a + b * b))
    out.extend(([0] * M.cols, (), 1) for _ in range(M.rows - len(pivots)))
    return exactlin._from_int_rows(M.cols, out), pivots, len(pivots)


def reference_null_space(n: int, R: ExactMatrix, pivots: list[int]):
    """(kernel, free columns) from the reduced form R: minus R's free columns
    on the pivot rows, the identity on the free rows."""
    free = [c for c in range(n) if c not in pivots]
    negated = exactlin._from_int_rows(len(free), (
        ([-re[c] for c in free], [-im[c] for c in free] if im else (), d)
        for re, im, d in islice(R._int_rows(), len(pivots))))
    basis = ExactMatrix.assemble(n, len(free), [
        (pivots, 0, negated),
        (free, 0, ExactMatrix.identity(len(free))),
    ])
    return Subspace._trusted(n, basis), free


def reference_kernel(M: ExactMatrix) -> Subspace:
    R, pivots, _ = reference_rref(M)
    return reference_null_space(M.cols, R, pivots)[0]


def reference_kernel_modulo(M: ExactMatrix, lower: Subspace | None = None):
    R, pivots, _ = reference_rref(M)
    K, free = reference_null_space(M.cols, R, pivots)
    I = Subspace._trusted(M.rows, M.take_columns(pivots))
    lower = I if lower is None else lower
    f, b = len(free), lower.dim
    if not b:
        return K, K.basis, I
    if not (M @ lower.basis).is_zero():
        return K, None, I
    last = range(f) if b == f else {
        f - 1 - p for p in exactlin._echelon(lower.basis.take_rows(free[::-1]).transpose())[2]}
    return K, K.basis.take_columns([j for j in range(f) if j not in last]), I


def reference_inverse(M: ExactMatrix) -> ExactMatrix:
    n = M.rows
    if M.cols != n:
        raise ValueError("square matrix required")
    R, pivots, _ = reference_rref(M.hstack(ExactMatrix.identity(n)))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return R.take_columns(range(n, 2 * n))


def reference_solve(M: ExactMatrix, b) -> list | None:
    aug = M.hstack(ExactMatrix.from_columns([list(b)], rows=M.rows))
    R, pivots, _ = reference_rref(aug)
    if M.cols in pivots:
        return None
    col = R.take_columns([M.cols]).entries
    x = [G_ZERO] * M.cols
    for j, pc in enumerate(pivots):
        x[pc] = col[j][0]
    return x


def reference_class_coordinates(reps: ExactMatrix, lower: Subspace, X: ExactMatrix):
    k = reps.cols + lower.dim
    R, _, rk = reference_rref(reps.hstack(lower.basis, X))
    if rk > k:
        return None
    return R.take_rows(range(reps.cols)).take_columns(range(k, k + X.cols))


# node ids registered by the test modules at import, and the outcome of the
# one python -O pytest run that replays them all, made on first request
_UNDER_O = {"nodes": {}, "outcome": None}


def under_python_O(test_file: str, names: list[str]) -> list[str]:
    """Register the named tests of test_file for the session's python -O
    run and return their node ids.  A test module calls this at import, so
    every module collected in the session has registered its tests before
    any of them runs."""
    nodes = [f"{Path(test_file).name}::{name}" for name in names]
    _UNDER_O["nodes"].update(dict.fromkeys(nodes))
    return nodes


def passed_under_python_O() -> tuple[set[str], str]:
    """(node ids that passed, output) of one python -O pytest subprocess,
    where assert statements are off, over every registered test, with the
    package's source on the path.  It runs once per session; later calls
    return its outcome."""
    if _UNDER_O["outcome"] is None:
        here = Path(__file__).resolve().parent
        src = str(Path(exactlin.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-O", "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
             *_UNDER_O["nodes"]],
            capture_output=True, text=True, cwd=here,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([src, str(here)])},
        )
        passed = {line.split(" ", 1)[1] for line in done.stdout.splitlines()
                  if line.startswith("PASSED ")}
        _UNDER_O["outcome"] = passed, done.stdout + done.stderr
    return _UNDER_O["outcome"]


# -- products of degenerations ------------------------------------------------
#
# X x Y -> Delta, for a semistable degeneration X and a smooth compact Kahler
# Y, is again semistable: its depth-l stratum is E(l) x Y (Kunneth).  The
# test laws compare its E2 verdicts with those of X and the Hodge data of Y.


def kron(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """The Kronecker product: block (i, j) is A[i][j] B."""
    return ExactMatrix.assemble(A.rows * B.rows, A.cols * B.cols, [
        (range(i * B.rows, (i + 1) * B.rows), j * B.cols, B.scale(a))
        for i, row in enumerate(A.entries) for j, a in enumerate(row) if not a.is_zero()])


def _placed(rows: list, cols: list, blocks: dict) -> ExactMatrix:
    """The matrix with row parts rows and column parts cols, each a list of
    (part, dim) in order, zero but for blocks[(row part, column part)]."""
    def starts(parts):
        out, at = {}, 0
        for part, dim in parts:
            out[part], at = at, at + dim
        return out, at

    (r, height), (c, width) = starts(rows), starts(cols)
    return ExactMatrix.assemble(height, width, [
        (range(r[i], r[i] + B.rows), c[j], B) for (i, j), B in blocks.items()])


def product(X, Y, koszul: bool = True):
    """X x Y for a degeneration X and a smooth Y, given as a degeneration
    with one stratum and no maps; Y's dimension is Y.m.

    H^q(E(l) x Y) is the sum over a + b = q of H^a(E(l)) (x) H^b(Y), in
    order of a, each in Kronecker order, with the types added.  The pairing
    of x (x) y with x' (x) y' is (-1)^(b a') <x, x'> <y, y'>, the Koszul
    sign of moving y past x' (left out when koszul is false).  Frames are
    Kronecker products, an unframed degree counting as the identity, and
    the Gysin and restriction maps are those of X tensored with the
    identity of H^b(Y)."""
    from lmhs.steenbrink import DegenerationData, StratumCohomology

    (y,) = Y.strata.values()
    ny = Y.m

    def parts(s, q):
        """The summands (a, b) of H^q(s x Y), as ((a, b), dim)."""
        return [((a, q - a), s.dim(a) * y.dim(q - a)) for a in sorted(s.cohomology)
                if s.dim(a) and y.dim(q - a)]

    strata = []
    for l, s in sorted(X.strata.items()):
        n = X.complex_dim(l)
        cohomology = {}
        for q in range(2 * (n + ny) + 1):
            here, dual = parts(s, q), parts(s, 2 * (n + ny) - q)
            if not here:
                continue
            types = [(u[0] + v[0], u[1] + v[1]) for (a, b), _ in here
                     for u in s.types(a) for v in y.types(b)]
            pairs = {((a, b), (2 * n - a, 2 * ny - b)): (s.pairing(a), y.pairing(b), b * (2 * n - a))
                     for (a, b), _ in here}
            pairing = None
            if all(P is not None and Q is not None for P, Q, _ in pairs.values()):
                pairing = _placed(here, dual, {
                    key: -kron(P, Q) if koszul and e % 2 else kron(P, Q)
                    for key, (P, Q, e) in pairs.items()})
            framed = any(s.cohomology[a]["frame"] is not None
                         or y.cohomology[b]["frame"] is not None for (a, b), _ in here)
            frame = _placed(here, here, {(ab, ab): kron(s.frame(ab[0]), y.frame(ab[1]))
                                         for ab, _ in here}) if framed else None
            cohomology[q] = {"types": types, "pairing": pairing, "frame": frame}
        strata.append(StratumCohomology(l, cohomology))

    def maps(kind: str) -> dict:
        # gysin[(l, a)]: H^a(E(l+1)) -> H^{a+2}(E(l)); restriction[(l, a)]:
        # H^a(E(l)) -> H^a(E(l+1))
        src, tgt, up = (1, 0, 2) if kind == "gysin" else (0, 1, 0)
        blocks = {}
        for (l, a), A in getattr(X, kind).items():
            for b in y.cohomology:
                if y.dim(b):
                    blocks.setdefault((l, a + b), {})[(a + up, b), (a, b)] = kron(
                        A, ExactMatrix.identity(y.dim(b)))
        out = {}
        for (l, q), placed in blocks.items():
            rows = parts(X.strata[l + tgt], q + up) if l + tgt in X.strata else []
            cols = parts(X.strata[l + src], q) if l + src in X.strata else []
            keep = {ij: B for ij, B in placed.items() if B.rows and B.cols}
            out[l, q] = _placed(rows, cols, keep)
        return out

    return DegenerationData(X.m + ny, strata, maps("gysin"), maps("restriction"))


def disjoint_union(X, Y):
    """X and Y side by side, for two degenerations of one fiber dimension
    m: each stratum degree H^q(E(l)) is X's classes followed by Y's, with
    their types, and the pairings, frames and maps are block-diagonal.  A
    side without the degree counts as zero-dimensional, an unframed degree
    as the identity frame and a missing map as zero."""
    from lmhs.steenbrink import DegenerationData, StratumCohomology

    if X.m != Y.m:
        raise ValueError(f"a disjoint union needs one m, not {X.m} and {Y.m}")

    def diag(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
        return _placed([(0, A.rows), (1, B.rows)], [(0, A.cols), (1, B.cols)],
                       {(0, 0): A, (1, 1): B})

    strata = []
    for l in sorted(set(X.strata) | set(Y.strata)):
        x, y = (D.strata.get(l, StratumCohomology(l, {})) for D in (X, Y))
        n = X.complex_dim(l)
        cohomology = {}
        for q in sorted(set(x.cohomology) | set(y.cohomology)):
            pairings = [s.pairing(q) if s.pairing(q) is not None
                        else ExactMatrix.zero(s.dim(q), s.dim(2 * n - q)) for s in (x, y)]
            framed = any(q in s.cohomology and s.cohomology[q]["frame"] is not None for s in (x, y))
            cohomology[q] = {
                "types": x.types(q) + y.types(q),
                "pairing": diag(*pairings),
                "frame": diag(x.frame(q), y.frame(q)) if framed else None,
            }
        strata.append(StratumCohomology(l, cohomology))

    def maps(kind: str) -> dict:
        # gysin[(l, q)]: H^q(E(l+1)) -> H^{q+2}(E(l)); restriction[(l, q)]:
        # H^q(E(l)) -> H^q(E(l+1))
        (sl, sq), (tl, tq) = ((1, 0), (0, 2)) if kind == "gysin" else ((0, 0), (1, 0))
        out = {}
        for l, q in sorted(set(getattr(X, kind)) | set(getattr(Y, kind))):
            out[l, q] = diag(*(getattr(D, kind).get((l, q)) or ExactMatrix.zero(
                D.stratum_dim(l + tl, q + tq), D.stratum_dim(l + sl, q + sq)) for D in (X, Y)))
        return out

    return DegenerationData(X.m, strata, maps("gysin"), maps("restriction"))
