"""Unit and property tests for the exact linear algebra layer."""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sympy import QQ_I
from sympy.polys.matrices import DomainMatrix

from lmhs import exactlin
from lmhs.exactlin import (
    ContractError,
    ExactMatrix,
    GaussianScalar,
    PolyScalar,
    Subspace,
    ZeroMinorError,
    _degree_bound,
    _echelon,
    _poly_rows,
    G_I,
    G_ONE,
    G_ZERO,
    class_coordinates,
    gaussian_from_str,
    gaussian_to_str,
    hermitian_diagonalize,
    hermitian_signature,
    i_power,
    hermitian_check,
    image,
    inverse,
    kernel,
    kernel_modulo,
    leading_principal_minors,
    leading_sign,
    matrix_from_json,
    poly_det,
    quotient_reps,
    rank,
    rref,
    solve,
)
from support import (
    conj_domain, from_domain, from_poly, from_scalar, invert, jordan_nilpotent,
    passed_under_python_O, random_invertible, reference_class_coordinates, reference_det,
    reference_hermitian_reduce, reference_inverse, reference_kernel, reference_kernel_modulo,
    reference_minors, reference_rref, reference_solve, to_domain, to_poly, to_scalar,
    under_python_O,
)


def gm(rows):
    return ExactMatrix.from_rational(rows)


def g(re, im=0):
    return GaussianScalar(re, im)


class TestGaussianScalar:
    def test_field_ops(self):
        a = g(1, 2)
        assert a.conj().conj() == a

    def test_is_a_value_without_arithmetic(self):
        # the references compute in sympy's QQ_I; a scalar only compares,
        # hashes, conjugates and prints, and its parts are Fractions
        a = g(1, 2)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.pow):
            with pytest.raises(TypeError):
                op(a, a)
            with pytest.raises(TypeError):
                op(a, 2)
        with pytest.raises(TypeError):
            -a
        with pytest.raises(TypeError):
            GaussianScalar("1/2")

    def test_i_power(self):
        assert i_power(0) == g(1)
        assert i_power(1) == g(0, 1)
        assert i_power(2) == g(-1)
        assert i_power(-1) == g(0, -1)
        assert i_power(6) == g(-1)

    def test_coerce_shares_small_integers(self):
        for n in (-2, -1, 0, 1, 2):
            shared = GaussianScalar.coerce(n)
            assert GaussianScalar.coerce(Fraction(n)) is shared
            assert GaussianScalar.coerce(n) is shared
            assert shared == g(n)
            assert type(shared.re) is Fraction and type(shared.im) is Fraction
        assert GaussianScalar.coerce(0) is G_ZERO
        assert GaussianScalar.coerce(1) is G_ONE
        for x in (3, -3, Fraction(1, 2)):
            a = GaussianScalar.coerce(x)
            assert a == g(x)
            assert GaussianScalar.coerce(x) is not a

    def test_immutable(self):
        for x in (GaussianScalar.coerce(-1), GaussianScalar.coerce(Fraction(2)),
                  GaussianScalar.coerce(3), g(1, 2)):
            with pytest.raises(AttributeError):
                x.re = Fraction(5)
            with pytest.raises(AttributeError):
                x.im = Fraction(5)
        assert GaussianScalar.coerce(-1) == g(-1)
        assert GaussianScalar.coerce(2) == g(2)

    def test_serialization_roundtrip(self):
        for x in [g(0), g(Fraction(3, 7)), g(1, -2), g(Fraction(-1, 2), Fraction(5, 3))]:
            assert gaussian_from_str(gaussian_to_str(x)) == x
        assert gaussian_to_str(g(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
        assert gaussian_from_str("2/3+1/5*i") == g(Fraction(2, 3), Fraction(1, 5))


class TestIdentity:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_shared_per_size(self, n):
        I = ExactMatrix.identity(n)
        assert ExactMatrix.identity(n) is I
        assert I == gm([[int(j == k) for k in range(n)] for j in range(n)])
        assert (I.rows, I.cols) == (n, n)

    def test_immutable(self):
        I = ExactMatrix.identity(2)
        with pytest.raises(AttributeError):
            I.entries = ((G_ZERO, G_ZERO), (G_ZERO, G_ZERO))
        with pytest.raises(TypeError):
            I.entries[0][0] = G_ZERO
        with pytest.raises(AttributeError):
            I.entries[0][0].re = Fraction(0)
        assert ExactMatrix.identity(2) == gm([[1, 0], [0, 1]])


class TestPolyScalar:
    def test_normalization(self):
        assert PolyScalar([1, 2, 0, 0]).degree() == 1
        assert PolyScalar([0, 0]).is_zero()
        assert PolyScalar().degree() == -1


class TestRref:
    def test_identity(self):
        R, pivots, rk = rref(ExactMatrix.identity(2))
        assert R == ExactMatrix.identity(2)
        assert pivots == [0, 1] and rk == 2

    def test_rank_one_hermitian_example(self):
        M = ExactMatrix([[g(1), g(0, 1)], [g(0, -1), g(1)]])
        assert rank(M) == 1

    def test_zero_matrix(self):
        _, pivots, rk = rref(ExactMatrix.zero(3, 4))
        assert pivots == [] and rk == 0


class TestInverse:
    def test_gaussian_inverse(self):
        M = ExactMatrix([[g(1, 1), g(2)], [g(0, -1), g(3, 1)]])
        assert M @ inverse(M) == ExactMatrix.identity(2)
        assert inverse(M) @ M == ExactMatrix.identity(2)

    def test_empty(self):
        assert inverse(ExactMatrix.identity(0)) == ExactMatrix.identity(0)

    @pytest.mark.parametrize("M", [gm([[1, 2], [2, 4]]), gm([[1, 2, 3]])])
    def test_rejects_singular_and_nonsquare(self, M):
        # a ValueError, not an assert, so the check survives python -O
        with pytest.raises(ValueError):
            inverse(M)


class TestKernelImage:
    def test_kernel_of_identity(self):
        assert kernel(ExactMatrix.identity(3)).dim == 0

    def test_kernel_of_row(self):
        K = kernel(gm([[1, 1]]))
        assert K.dim == 1
        assert K.contains_vector([g(1), g(-1)])

    def test_image_of_rank_one(self):
        M = ExactMatrix([[g(1), g(0, 1)], [g(0, -1), g(1)]])
        assert image(M).dim == 1

    def test_rank_nullity(self):
        rng = random.Random(7)
        for _ in range(25):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            M = ExactMatrix(
                [
                    [g(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(cols)]
                    for _ in range(rows)
                ]
            )
            assert kernel(M).dim + rank(M) == cols

    def test_solve(self):
        M = gm([[1, 2], [3, 4]])
        x = solve(M, [g(5), g(11)])
        assert x == [g(1), g(2)]
        assert solve(gm([[1, 1], [1, 1]]), [g(0), g(1)]) is None


class TestSubspace:
    def test_intersect_sum_trivial(self):
        U = Subspace.span(2, [[g(1), g(0)]])
        assert U.intersect(U) == U
        assert U.add(U) == U
        V = Subspace.span(2, [[g(0), g(1)]])
        assert U.intersect(V).dim == 0

    def test_intersect_complex_line(self):
        U = Subspace.span(2, [[g(1), g(0, 1)]])
        V = Subspace.span(2, [[g(1), g(0, -1)], [g(0), g(1)]])
        W = U.intersect(V)
        assert W.dim == 1
        assert W.contains_vector([g(1), g(0, 1)])

    def test_modular_dimension_law(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randrange(1, 6)
            U = Subspace.span(
                n,
                [
                    [g(rng.randrange(-2, 3)) for _ in range(n)]
                    for _ in range(rng.randrange(0, n + 1))
                ],
            )
            V = Subspace.span(
                n,
                [
                    [g(rng.randrange(-2, 3)) for _ in range(n)]
                    for _ in range(rng.randrange(0, n + 1))
                ],
            )
            assert U.dim + V.dim == U.intersect(V).dim + U.add(V).dim

    def test_ambient_mismatch(self):
        U = Subspace.full(2)
        V = Subspace.full(3)
        with pytest.raises(AssertionError):
            U.intersect(V)


class TestHermitianSignature:
    def test_diag(self):
        assert hermitian_signature(gm([[1, 0], [0, -1]])) == (1, 1, 0)

    def test_hyperbolic(self):
        assert hermitian_signature(gm([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_indefinite_gaussian(self):
        H = ExactMatrix([[g(2), g(0, 2)], [g(0, -2), g(1)]])
        assert hermitian_signature(H) == (1, 1, 0)

    def test_nulls(self):
        assert hermitian_signature(ExactMatrix.zero(3, 3)) == (0, 0, 3)
        assert hermitian_signature(gm([[1, 1], [1, 1]])) == (1, 0, 1)

    def test_rejects_non_hermitian(self):
        with pytest.raises(AssertionError):
            hermitian_signature(gm([[0, 1], [2, 0]]))

    def test_congruence_invariance(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 9)
            # random Hermitian H = B + B^*
            B = ExactMatrix(
                [
                    [g(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            H = B + B.conj().transpose()
            while True:
                P = ExactMatrix(
                    [
                        [g(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n)]
                        for _ in range(n)
                    ]
                )
                if rank(P) == n:
                    break
            H2 = P.conj().transpose() @ H @ P
            assert hermitian_signature(H) == hermitian_signature(H2)

    def test_diagonalize_gram_property(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randrange(1, 7)
            B = ExactMatrix(
                [
                    [g(rng.randrange(-2, 3), rng.randrange(-2, 3)) for _ in range(n)]
                    for _ in range(n)
                ]
            )
            H = B + B.conj().transpose()
            vectors, values, nulls = hermitian_diagonalize(H)
            for a, va in enumerate(vectors):
                for b, vb in enumerate(vectors):
                    expect = QQ_I(values[a]) if a == b else QQ_I.zero
                    assert form(H, va, vb) == expect
            for nv in nulls:
                for va in vectors + nulls:
                    assert form(H, nv, va) == QQ_I.zero
            assert len(vectors) + len(nulls) == n


def random_hermitian(rng: random.Random, n: int, kind: str) -> ExactMatrix:
    """A random n x n Hermitian matrix of one kind: "real", "complex" or
    "mixed" (complex, with denominators 1, 2, 3 and 6), each about half
    zero; "zero-diagonal" (mixed, with a zero diagonal, so the reduction
    starts with a hyperbolic pair) or "singular" (mixed, rank at most n - 2,
    so the reduction ends in a null block)."""
    if kind == "singular" and n >= 2:
        K = random_hermitian(rng, n - 2, "mixed")
        P = ExactMatrix([[g(rng.randrange(-2, 3), rng.randrange(-1, 2)) for _ in range(n - 2)]
                         for _ in range(n)], cols=n - 2)
        return P @ K @ P.conj().transpose()
    dens = [1] if kind in ("real", "complex") else [1, 2, 3, 6]
    rows = [[G_ZERO] * n for _ in range(n)]
    for j in range(n):
        for k in range(j, n):
            if rng.random() < 0.5 or (j == k and kind == "zero-diagonal"):
                continue
            re = Fraction(rng.randrange(-4, 5), rng.choice(dens))
            im = Fraction(rng.randrange(-4, 5), rng.choice(dens)) \
                if kind != "real" and j != k else 0
            rows[j][k], rows[k][j] = g(re, im), g(re, -im)
    return ExactMatrix(rows, cols=n)


HERMITIAN_KINDS = ["real", "complex", "mixed", "zero-diagonal", "singular"]


def positive_multiple(w: list, v: list) -> bool:
    """w = lam * v for one real lam > 0, w of GaussianScalars and v of QQ_I
    elements."""
    ratios = {a / b if b else None for a, b in zip(map(to_scalar, w), v) if a or b}
    if len(ratios) != 1 or None in ratios:
        return False
    lam = ratios.pop()
    return lam.y == 0 and lam.x > 0


def form(H: ExactMatrix, x: list, y: list):
    """h(x, y) = x^T H conj(y) in QQ_I, x and y lists of GaussianScalars."""
    X, Y = (to_domain(ExactMatrix([v], cols=H.rows)) for v in (x, y))
    return (X * to_domain(H) * conj_domain(Y).transpose()).to_list()[0][0]


class TestHermitianAgainstReference:
    """The fraction-free reduction against the GaussianScalar reference:
    equal signatures, each vector a positive multiple of the reference's
    (the hyperbolic steps included), and values that are the exact h(v, v)
    of the vectors returned."""

    @pytest.mark.parametrize("kind", HERMITIAN_KINDS)
    def test_signature_matches_reference(self, kind):
        rng = random.Random(HERMITIAN_KINDS.index(kind))
        for _ in range(150):
            H = random_hermitian(rng, rng.randrange(0, 9), kind)
            values, _, _, nulls = reference_hermitian_reduce(H, want_basis=False)
            want = (sum(v > 0 for v in values), sum(v < 0 for v in values), nulls)
            assert hermitian_signature(H) == want, H

    @pytest.mark.parametrize("kind", HERMITIAN_KINDS)
    def test_diagonalize_matches_reference(self, kind):
        rng = random.Random(10 + HERMITIAN_KINDS.index(kind))
        for _ in range(60):
            H = random_hermitian(rng, rng.randrange(0, 7), kind)
            _, want_vectors, want_nulls, _ = reference_hermitian_reduce(H, True)
            vectors, values, nulls = hermitian_diagonalize(H)
            assert (len(vectors), len(nulls)) == (len(want_vectors), len(want_nulls))
            for v, want in zip(vectors + nulls, want_vectors + want_nulls):
                assert positive_multiple(v, want), (H, v, want)
            for v, value in zip(vectors, values):
                assert isinstance(value, Fraction) and form(H, v, v) == QQ_I(value)

    def test_kinds_reach_the_hyperbolic_step_and_null_blocks(self):
        """The samples above reach both special paths: a zero diagonal
        with a nonzero block, and a nonzero matrix with a radical."""
        rng = random.Random(HERMITIAN_KINDS.index("zero-diagonal"))
        hyperbolic = [H for H in (random_hermitian(rng, rng.randrange(0, 9), "zero-diagonal")
                                  for _ in range(150)) if not H.is_zero()]
        assert len(hyperbolic) > 100 and any(H.den != (1,) * H.rows for H in hyperbolic)
        rng = random.Random(HERMITIAN_KINDS.index("singular"))
        singular = [random_hermitian(rng, rng.randrange(0, 9), "singular") for _ in range(150)]
        assert sum(not H.is_zero() and hermitian_signature(H)[2] > 0 for H in singular) > 50

    def test_empty_form(self):
        H = ExactMatrix.zero(0, 0)
        assert hermitian_signature(H) == (0, 0, 0)
        assert hermitian_diagonalize(H) == ([], [], [])

    def test_vectors_are_primitive_gaussian_integers(self):
        H = ExactMatrix([[g(Fraction(1, 2)), g(Fraction(1, 3), 1)],
                         [g(Fraction(1, 3), -1), g(0)]])
        vectors, values, nulls = hermitian_diagonalize(H)
        for v in vectors:
            assert all(e.re.denominator == e.im.denominator == 1 for e in v)
            parts = [int(e.re) for e in v] + [int(e.im) for e in v]
            assert gcd(*parts) == 1
        assert values[0] == Fraction(1, 2) and values[1] < 0 and not nulls


def entries_product(A: ExactMatrix, B: ExactMatrix) -> ExactMatrix:
    """A @ B as sympy's product of the entries over QQ_I."""
    return from_domain(to_domain(A) * to_domain(B))


@pytest.mark.parametrize("density", [0.15, 0.5, 1.0], ids=["sparse", "half", "dense"])
@pytest.mark.parametrize("left, right", [(False, False), (True, False), (False, True),
                                         (True, True)], ids=["rr", "cr", "rc", "cc"])
def test_matmul_matches_entries_product(density, left, right):
    """Row-combination products against sympy's, byte for byte:
    sparse and dense, real and complex on either side, empty shapes
    included; a real product has no imaginary numerators."""
    rng = random.Random(f"{density} {left} {right}")

    def draw(rows, cols, cplx):
        def entry():
            if rng.random() >= density:
                return G_ZERO
            im = Fraction(rng.randrange(-3, 4), rng.choice([1, 2, 5])) if cplx else 0
            return g(Fraction(rng.randrange(-3, 4), rng.choice([1, 2, 3])), im)
        return ExactMatrix([[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)

    for _ in range(80):
        r, k, c = (rng.randrange(0, 6) for _ in range(3))
        A, B = draw(r, k, left), draw(k, c, right)
        P = A @ B
        assert (P.rows, P.cols) == (r, c)
        assert P == entries_product(A, B), (A, B)
        if not (A.im or B.im):
            assert P.im == ()


def pm(rows):
    """The coefficient matrices of a square polynomial matrix whose entries
    are coefficient lists, lowest degree first (a bare number is a
    constant)."""
    rows = [[e if isinstance(e, list) else [e] for e in row] for row in rows]
    D = max([1] + [len(e) for row in rows for e in row])
    return [
        ExactMatrix([[GaussianScalar.coerce(e[j]) if j < len(e) else G_ZERO
                      for e in row] for row in rows], cols=len(rows))
        for j in range(D)
    ]


def leading_block(coeffs, k):
    return [ExactMatrix([row[:k] for row in C.entries[:k]], cols=k) for C in coeffs]


def graded_leading(rng, n, kind):
    """A seeded n x n matrix L for the graded determinant tests, row i over
    its own denominator.  "real" and "complex" are dense; "zeros" has zero
    entries, L[0][0] among them, so its elimination swaps rows; "zero row"
    has one zero row; "singular" has a last row that combines the first
    two (the first when n = 2, a zero row when n = 1)."""
    def entry(den):
        re = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), den)
        im = 0 if kind == "real" else Fraction(rng.randrange(-3, 4), den)
        return GaussianScalar(re, im)

    L = [[entry(d) for _ in range(n)] for d in (rng.randrange(1, 7) for _ in range(n))]
    if kind == "zeros":
        L = [[G_ZERO if (i, j) == (0, 0) or rng.random() < 0.3 else x
              for j, x in enumerate(row)] for i, row in enumerate(L)]
    elif kind == "zero row" or kind == "singular" and n == 1:
        L[rng.randrange(n)] = [G_ZERO] * n
    elif kind == "singular":
        a, b = to_scalar(entry(1)), to_scalar(entry(2))
        L[-1] = [from_scalar(a * to_scalar(x) + b * to_scalar(y))
                 for x, y in zip(L[0], L[1] if n > 2 else L[0])]
    return L


class TestPolyDet:
    def test_one_by_one(self):
        assert poly_det(*pm([[[0, 0, 1]]])) == PolyScalar([0, 0, 1])

    def test_two_by_two(self):
        assert poly_det(*pm([[[0, 1], 1], [1, [0, 1]]])) == PolyScalar([-1, 0, 1])

    def test_taylor_block(self):
        # [[x^2/2, x^3/6], [x, x^2/2]] has determinant x^4/12
        half = Fraction(1, 2)
        sixth = Fraction(1, 6)
        M = pm([[[0, 0, half], [0, 0, 0, sixth]], [[0, 1], [0, 0, half]]])
        assert poly_det(*M) == PolyScalar([0, 0, 0, 0, Fraction(1, 12)])

    def test_multiplicative(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randrange(1, 5)

            def rand_poly():
                if rng.random() < 0.5:
                    return []
                return [rng.randrange(-2, 3) for _ in range(rng.randrange(1, 3))]

            A = pm([[rand_poly() for _ in range(n)] for _ in range(n)])
            B = pm([[rand_poly() for _ in range(n)] for _ in range(n)])
            AB = [sum((A[j] @ B[m - j] for j in range(len(A)) if 0 <= m - j < len(B)),
                      ExactMatrix.zero(n, n))
                  for m in range(len(A) + len(B) - 1)]
            assert poly_det(*AB) == from_poly(to_poly(poly_det(*A)) * to_poly(poly_det(*B)))

    def test_row_swap_sign(self):
        assert poly_det(*pm([[0, 1], [1, 0]])) == PolyScalar([-1])

    def test_real_path_matches_reference(self):
        # real entries take _bareiss's real path.  The first matrix needs a
        # row swap at every point, its (1, 1) entry being 0; the second
        # needs one at t = 0, and for t > 0 its second pivot vanishes and
        # needs one there; the third is singular, so its elimination ends
        # on a zero pivot
        cases = [
            [[0, 1, [0, 1]], [[0, 1], 0, 1], [1, [0, 1], 0]],
            [[[0, 1], 1, 2], [[0, 1], 1, 3], [1, 0, [0, 1]]],
            [[1, [0, 1], 2], [2, [0, 2], 4], [0, 1, [0, 1]]],
        ]
        for entries in cases:
            coeffs = pm(entries)
            rows, _ = _poly_rows(coeffs)
            assert not any(im for row in rows for _, im in row)
            assert poly_det(*coeffs) == reference_det(*coeffs), entries
        assert poly_det(*pm(cases[2])).is_zero()
        # a complex matrix marks only its real entries with an empty im
        rows, _ = _poly_rows(pm([[g(0, 1), 1], [[0, 1], 0]]))
        assert [[bool(im) for _, im in row] for row in rows] == [[True, False], [False, False]]

    def test_graded_matches_reference(self, monkeypatch):
        # entry (i, j) = L_ij t^(u_i + v_j) gives t^(sum u + sum v) det L,
        # which poly_det reads from one elimination of L.  With zero
        # entries a row's largest degree shows its offset only when the
        # column offsets agree, so the sparse kinds take one v for every
        # column; then poly_det's test finds every case graded
        calls = []
        det_at = exactlin._det_at
        monkeypatch.setattr(exactlin, "_det_at",
                            lambda rows, k, t: calls.append(rows) or det_at(rows, k, t))
        rng = random.Random(23)
        cases = []
        for kind in ["real", "complex", "zeros", "zero row", "singular"]:
            for n in [1, 1, 2, 2, 3, 3, 4, 4, 5, 5]:
                u = [rng.randrange(4) for _ in range(n)]
                v = [rng.randrange(4) for _ in range(n)]
                if kind in ("zeros", "singular"):
                    v = [v[0]] * n
                cases.append((kind, graded_leading(rng, n, kind), u, v))
        # complex entries, rows over different denominators, a nonsingular
        # L whose elimination swaps rows, and a singular one
        Ls = [L for _, L, _, _ in cases]
        assert any(not x.is_real() for L in Ls for row in L for x in row)
        assert any(len({x.re.denominator for row in L for x in row}) > 1 for L in Ls)
        assert any(L[0][0].is_zero() and rank(ExactMatrix(L)) == len(L) for L in Ls)
        assert any(rank(ExactMatrix(L)) < len(L) for L in Ls)
        for kind, L, u, v in cases:
            n = len(L)
            entries = [[[0] * (u[i] + v[j]) + [L[i][j]] for j in range(n)] for i in range(n)]
            coeffs = pm(entries)
            want = reference_det(*coeffs)
            det_L = reference_det(ExactMatrix(L)).coeffs
            assert want == PolyScalar([G_ZERO] * (sum(u) + sum(v)) + list(det_L)), kind
            calls.clear()
            assert poly_det(*coeffs) == want, (kind, L, u, v)
            # the graded path: one elimination, of constant rows
            assert len(calls) == 1 and all(len(a) <= 1 for row in calls[0] for a, _ in row)
            if kind in ("zero row", "singular"):
                assert want.is_zero()
            # one lower-degree term in the highest entry ungrades the
            # matrix, which then takes the evaluation path
            i, j = max(((i, j) for i in range(n) for j in range(n) if not L[i][j].is_zero()),
                       key=lambda ij: u[ij[0]] + v[ij[1]], default=(0, 0))
            if L[i][j].is_zero() or u[i] + v[j] == 0:
                continue
            entries[i][j][u[i] + v[j] - 1] = g(1, -1)
            coeffs = pm(entries)
            rows, _ = _poly_rows(coeffs)
            calls.clear()
            assert poly_det(*coeffs) == reference_det(*coeffs), (kind, L, u, v)
            assert calls == [rows] * (_degree_bound(rows, n) + 1)


class TestLeadingMinors:
    def test_principal_minors(self):
        minors = leading_principal_minors(*pm([[[0, 1], 1], [1, [0, 1]]]))
        assert minors == [PolyScalar([0, 1]), PolyScalar([-1, 0, 1])]
        # D_1 = t(t - 1) vanishes at t = 0 and 1, where the elimination
        # without swaps stops; D_2 = -1 is still read at both points
        minors = leading_principal_minors(*pm([[[0, -1, 1], 1], [1, 0]]))
        assert minors == [PolyScalar([0, -1, 1]), PolyScalar([-1])]

    def test_zero_pivot_raises(self):
        with pytest.raises(ZeroMinorError) as e:
            leading_principal_minors(*pm([[0, 1], [1, 0]]))
        assert e.value.index == 1

    def test_matches_determinants_of_blocks(self):
        rng = random.Random(17)
        for _ in range(10):
            n = rng.randrange(1, 5)
            M = pm([[[g(rng.randrange(1, 4)), g(rng.randrange(-2, 3))] for _ in range(n)]
                    for _ in range(n)])
            try:
                minors = leading_principal_minors(*M)
            except ZeroMinorError:
                continue
            for k in range(1, n + 1):
                assert minors[k - 1] == poly_det(*leading_block(M, k))


class TestLeadingSign:
    def test_examples(self):
        assert leading_sign(PolyScalar([0, -5, 3])) == (2, 1)
        assert leading_sign(PolyScalar([0, 0, -2])) == (2, -1)
        assert leading_sign(PolyScalar([0, 0, 0, 0, Fraction(1, 12)])) == (4, 1)

    def test_contract_errors(self):
        with pytest.raises(AssertionError):
            leading_sign(PolyScalar())
        with pytest.raises(AssertionError):
            leading_sign(PolyScalar([0, g(0, 1)]))


# -- rref and matmul against sympy's exact matrices over QQ(i) ---------------

small_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
gaussian_entries = st.one_of(
    st.just(G_ZERO),
    st.builds(GaussianScalar, small_rationals),
    st.builds(GaussianScalar, small_rationals, small_rationals),
)
rational_entries = st.one_of(st.just(G_ZERO), st.builds(GaussianScalar, small_rationals))


@st.composite
def gaussian_matrices(draw, rows=None, cols=None, entries=gaussian_entries):
    """Small Gaussian-rational matrices, empty shapes included; about half
    of those with two or more rows get a last row dependent on the first two,
    so rank-deficient cases are common."""
    rows = draw(st.integers(0, 5)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    data = [[to_scalar(draw(entries)) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        a, b = to_scalar(draw(entries)), to_scalar(draw(entries))
        data[-1] = [a * x + b * y for x, y in zip(data[0], data[1])]
    return from_domain(DomainMatrix(data, (rows, cols), QQ_I))


@st.composite
def poly_matrices(draw):
    """Coefficient matrices of a square Gaussian polynomial matrix, n <= 4
    and degree <= 2 before a factor, with one shape forced: a last row
    dependent on the first two (singular), a row whose part in the leading
    k x k block depends on the rows above (minor k vanishes identically),
    or that part times (t - s)(t - s - 1) (minor k vanishes at two of the
    sample points), or offset degrees (see offset_entries).  Returns
    (coeffs, shape, k, D) with D the offset bound of the offset shape and
    None for the others."""
    n = draw(st.integers(0, 4))
    deg = draw(st.integers(0, 2))
    C = [[[to_scalar(draw(gaussian_entries)) for _ in range(n)] for _ in range(n)]
         for _ in range(deg + 1)]
    shapes = ["free", "singular", "zero minor", "vanishing", "offset"] if n else ["free"]
    shape = draw(st.sampled_from(shapes))
    k = draw(st.integers(1, n)) if n else 0
    if shape == "singular" and n >= 2:
        a, b = to_scalar(draw(gaussian_entries)), to_scalar(draw(gaussian_entries))
        for Cj in C:
            Cj[-1] = [a * x + b * y for x, y in zip(Cj[0], Cj[1])]
    elif shape == "zero minor":
        a, b = to_scalar(draw(gaussian_entries)), to_scalar(draw(gaussian_entries))
        for Cj in C:
            Cj[k - 1][:k] = [a * x + b * y for x, y in zip(Cj[0][:k], Cj[k - 2][:k])] \
                if k > 1 else [QQ_I.zero]
    elif shape == "vanishing":
        s = draw(st.integers(0, 2))
        f = [s * (s + 1), -2 * s - 1, 1]
        C += [[[QQ_I.zero] * n for _ in range(n)] for _ in range(2)]
        for c in range(k):
            old = [Cj[k - 1][c] for Cj in C]
            for j, Cj in enumerate(C):
                Cj[k - 1][c] = sum((old[j - i] * f[i] for i in range(3) if j >= i), QQ_I.zero)
    elif shape == "offset":
        C, D = draw(offset_entries(n))
        return C, shape, k, D
    return [from_domain(DomainMatrix(Cj, (n, n), QQ_I)) for Cj in C], shape, k, None


@st.composite
def offset_entries(draw, n):
    """An n x n polynomial matrix with deg a_ij <= r_i - c_j (a zero entry
    where r_i < c_j), with equality on one permutation and in one column
    with c_j = 0, so r_i is the largest degree of row i and the offset bound
    sum r_i - sum c_j is the degree bound that _degree_bound finds.
    Returns (coeffs, sum r_i - sum c_j)."""
    perm = draw(st.permutations(range(n)))
    c = [draw(st.integers(0, 2)) for _ in range(n)]
    full = draw(st.integers(0, n - 1))
    c[full] = 0
    r = [c[perm[i]] + draw(st.integers(0, 2)) for i in range(n)]
    nonzero = st.builds(GaussianScalar, st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
                        small_rationals)
    entries = [[[draw(st.integers(-2, 2)) for _ in range(r[i] - c[j])]
                + [draw(nonzero if j in (perm[i], full) else gaussian_entries)]
                if r[i] >= c[j] else [] for j in range(n)] for i in range(n)]
    return pm(entries), sum(r) - sum(c)


def row_column_bound(rows, k):
    """The degree bound before the offsets: the smaller of the sums of the
    row and of the column degrees of the leading k x k block."""
    deg = [[len(a) - 1 for a, _ in row[:k]] for row in rows[:k]]
    return min(sum(max(0, *r) for r in deg), sum(max(0, *c) for c in zip(*deg)))


@settings(max_examples=300, deadline=None)
@given(poly_matrices())
def test_polynomial_determinants_match_reference(case):
    coeffs, shape, k, offset_bound = case
    det = reference_det(*coeffs)
    assert poly_det(*coeffs) == det
    rows, _ = _poly_rows(coeffs)
    n = coeffs[0].rows
    assert det.degree() <= _degree_bound(rows, n)
    assert all(_degree_bound(rows, j) <= row_column_bound(rows, j) for j in range(n + 1))
    if shape == "offset":
        assert _degree_bound(rows, n) == offset_bound
    try:
        want = reference_minors(*coeffs)
    except ZeroMinorError as exc:
        with pytest.raises(ZeroMinorError) as got:
            leading_principal_minors(*coeffs)
        assert got.value.index == exc.index
        if shape == "zero minor":
            assert exc.index <= k
        return
    assert shape != "zero minor"
    assert leading_principal_minors(*coeffs) == want


@pytest.mark.parametrize("coeffs, zero_minor", [
    # [[t^2 + 1, 1, 1], [1, 0, 0], [1, 0, 0]]: not graded, offset bound -2
    ([[[1, 1, 1], [1, 0, 0], [1, 0, 0]], [[0] * 3] * 3,
      [[1, 0, 0], [0, 0, 0], [0, 0, 0]]], 3),
    # a drawn 4 x 4 matrix whose third leading block has offset bound -2
    ([[[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]],
      [[0] * 4] * 3 + [[1, 0, 0, 0]],
      [[1, 0, 0, 0]] + [[0] * 4] * 3], 3),
], ids=["det", "minors"])
def test_negative_degree_bound_is_the_zero_polynomial(coeffs, zero_minor):
    """A negative degree bound certifies a zero determinant, so no point is
    evaluated and the interpolated polynomial is zero: poly_det agrees with
    the reference and leading_principal_minors raises ZeroMinorError at
    the block with that bound, not an arithmetic error."""
    coeffs = [ExactMatrix.from_rational(C) for C in coeffs]
    rows, _ = _poly_rows(coeffs)
    assert _degree_bound(rows, zero_minor) < 0
    assert poly_det(*coeffs) == reference_det(*coeffs)
    with pytest.raises(ZeroMinorError) as got:
        leading_principal_minors(*coeffs)
    assert got.value.index == zero_minor
    with pytest.raises(ZeroMinorError) as want:
        reference_minors(*coeffs)
    assert want.value.index == zero_minor


@settings(max_examples=300, deadline=None)
@given(gaussian_matrices())
def test_rref_matches_sympy(M):
    R, pivots, rk = rref(M)
    want, want_pivots = to_domain(M).rref()
    assert pivots == list(want_pivots)
    assert rk == rank(M) == len(want_pivots)
    assert R.rows == M.rows
    assert R == from_domain(want)
    assert image(M).basis == M.take_columns(pivots)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matmul_matches_sympy(rows, inner, cols, data):
    A = data.draw(gaussian_matrices(rows, inner))
    B = data.draw(gaussian_matrices(inner, cols))
    P = A @ B
    assert (P.rows, P.cols) == (rows, cols)
    assert P == from_domain(to_domain(A) * to_domain(B))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_integer_row_operations_match_sympy(rows, cols, data):
    A = data.draw(gaussian_matrices(rows, cols))
    B = data.draw(gaussian_matrices(rows, cols))
    C = data.draw(gaussian_matrices(rows, data.draw(st.integers(1, 3))))
    c = data.draw(gaussian_entries)
    js = data.draw(st.lists(st.integers(0, rows - 1), max_size=5)) if rows else []
    ks = data.draw(st.lists(st.integers(0, cols - 1), max_size=5)) if cols else []
    dA, dB = to_domain(A), to_domain(B)
    assert A + B == from_domain(dA + dB)
    assert A - B == from_domain(dA - dB)
    assert -A == from_domain(-dA)
    assert A.scale(c) == from_domain(dA.scalarmul(to_scalar(c)))
    assert A.conj() == from_domain(conj_domain(dA))
    assert A.transpose() == from_domain(dA.transpose())
    assert A.hstack(C) == from_domain(dA.hstack(to_domain(C)))
    assert A.vstack(B) == from_domain(dA.vstack(dB))
    assert A.take_columns(ks).cols == len(ks)
    assert A.take_columns(ks).entries == tuple(tuple(row[k] for k in ks) for row in A.entries)
    assert A.take_rows(js).entries == tuple(A.entries[j] for j in js)
    assert A.is_zero() == dA.is_zero_matrix


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: gaussian_matrices(n, n)))
def test_inverse_matches_sympy(M):
    if rank(M) < M.rows:
        with pytest.raises(ValueError):
            inverse(M)
        return
    assert inverse(M) == from_domain(to_domain(M).inv())


@settings(max_examples=200, deadline=None)
@given(gaussian_matrices())
def test_kernel_is_the_null_space(M):
    K = kernel(M).basis
    assert (M @ K).is_zero()
    assert K.cols == M.cols - rank(M)
    assert rank(K) == K.cols


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_equal_matrices_have_equal_storage(rows, inner, cols, data):
    """A matrix reached two ways compares and hashes equal: rows are kept in
    lowest terms, so equality is a comparison of integers."""
    A = data.draw(gaussian_matrices(rows, inner))
    B = data.draw(gaussian_matrices(inner, cols))
    left, right = (A @ B).transpose(), B.transpose() @ A.transpose()
    assert left == right and hash(left) == hash(right)
    c = data.draw(gaussian_entries.filter(lambda e: not e.is_zero()))
    back = A.scale(c).scale(from_scalar(QQ_I.one / to_scalar(c)))
    assert back == A and hash(back) == hash(A)
    assert A.hstack(A @ B).take_columns(range(inner)) == A


@pytest.mark.parametrize("rows", [
    [[1, -2], [0, 3]],
    [[Fraction(1, 2), Fraction(4, 2)], [Fraction(-1, 3), Fraction(0)]],
    [[True, False], [False, True]],
    [[1, Fraction(1, 2)], [True, Fraction(6, 4)]],
    [],
    [[], []],
], ids=["int", "fraction", "bool", "mixed", "no-rows", "empty-rows"])
def test_from_rational_has_the_storage_of_scalar_rows(rows):
    # the all-int shortcut of the constructor and its general path store
    # equal integers, so the matrices are equal and hash alike
    M = ExactMatrix.from_rational(rows)
    want = ExactMatrix([[GaussianScalar(x) for x in row] for row in rows])
    assert (M.rows, M.cols, M.re, M.im, M.den) == (want.rows, want.cols, want.re, want.im, want.den)
    assert M == want and hash(M) == hash(want)


def rational_matrices(rows=None, cols=None):
    return gaussian_matrices(rows, cols, entries=rational_entries)


non_real_scalars = st.builds(GaussianScalar, small_rationals,
                             small_rationals.filter(lambda x: x != 0))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.data())
def test_real_and_complex_paths_agree(rows, cols, data):
    """A real matrix M runs the real kernels and M.scale(u), for a non-real
    u, the complex ones; every result must agree, to the storage."""
    M = data.draw(rational_matrices(rows, cols))
    N = data.draw(rational_matrices(cols, data.draw(st.integers(0, 3))))
    B = data.draw(rational_matrices(rows, cols))
    u = data.draw(non_real_scalars)
    Mu = M.scale(u)
    assert not M.im and Mu.im or M.is_zero()
    R, pivots, rk = rref(M)
    assert rref(Mu) == (R, pivots, rk)
    assert kernel(Mu).basis == kernel(M).basis
    assert image(Mu).basis == image(M).basis.scale(u)
    assert image(Mu) == image(M)
    assert Mu @ N == (M @ N).scale(u)
    assert Mu.transpose() == M.transpose().scale(u)
    assert Mu + B.scale(u) == (M + B).scale(u)
    ks = data.draw(st.lists(st.integers(0, cols - 1), max_size=5)) if cols else []
    assert Mu.take_columns(ks) == M.take_columns(ks).scale(u)
    assert Mu.hstack(B.scale(u)) == M.hstack(B).scale(u)
    assert Mu.vstack(B.scale(u)) == M.vstack(B).scale(u)


def stored_canonically(M):
    """M's storage is the one the entries-built constructor gives, so its
    im is empty exactly when every entry is real."""
    return M == ExactMatrix(M.entries, cols=M.cols)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_storage_invariant_on_every_kernel(rows, cols, data):
    """Real inputs give real storage (im == ()) from every kernel, and mixed
    real and complex operands give the canonical storage, with the lazily
    created im padded by the zeros of the real rows."""
    A = data.draw(rational_matrices(rows, cols))
    B = data.draw(rational_matrices(rows, cols))
    N = data.draw(rational_matrices(cols, data.draw(st.integers(0, 3))))
    lower = image(A)
    upper = lower.add(image(B))
    reps = quotient_reps(upper, lower)
    coords = class_coordinates(reps, lower, upper.basis)
    js = data.draw(st.lists(st.integers(0, rows - 1), max_size=5))
    real = [rref(A)[0], kernel(A).basis, lower.basis, reps, coords, A @ N, A + B,
            A.transpose(), A.take_columns(range(cols - 1, -1, -1)), A.take_rows(js),
            ExactMatrix.assemble(rows + 1, 2 * cols, [(range(rows), 0, A),
                                                      (range(1, rows + 1), cols, B)])]
    assert all(M.im == () and stored_canonically(M) for M in real)
    # one complex row among real ones, in a random place
    C = data.draw(gaussian_matrices(1, cols).filter(lambda M: M.im))
    at = data.draw(st.integers(0, rows))
    mixed = A.take_rows(range(at)).vstack(C).vstack(A.take_rows(range(at, rows)))
    Cn = data.draw(gaussian_matrices(cols, N.cols))
    for M in [mixed, A.hstack(C.vstack(B.take_rows(range(1, rows)))),
              C.vstack(A), A.vstack(C), mixed @ N, A @ Cn, mixed.transpose(),
              mixed + mixed.take_rows(range(rows, -1, -1)), A.scale(G_I), mixed.take_columns([0]),
              rref(mixed)[0], kernel(mixed).basis, image(mixed).basis]:
        assert stored_canonically(M)


@st.composite
def kernel_modulo_cases(draw):
    """(M, lower): M real, complex, or real with one complex row, empty
    shapes included; lower the zero space, all of ker M, or the span of
    random combinations of ker M's basis, a space that M kills, as every
    caller of kernel_modulo has it."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["real", "complex", "mixed"]))
    M = draw(gaussian_matrices(rows, cols) if kind == "complex" else rational_matrices(rows, cols))
    if kind == "mixed" and cols:
        at = draw(st.integers(0, rows))
        C = draw(gaussian_matrices(1, cols).filter(lambda C: C.im))
        M = M.take_rows(range(at)).vstack(C).vstack(M.take_rows(range(at, rows)))
    K = kernel(M)
    lower = draw(st.sampled_from(["zero", "kernel", "inside"]))
    if lower == "zero":
        return M, Subspace.zero(cols)
    if lower == "kernel":
        return M, K
    return M, image(K.basis @ draw(gaussian_matrices(K.dim, draw(st.integers(0, K.dim + 1)))))


@settings(max_examples=300, deadline=None)
@given(kernel_modulo_cases())
def test_kernel_modulo_matches_kernel_and_quotient(case):
    """The reference is two eliminations: kernel(M) and quotient_reps over
    [lower | ker M]; kernel_modulo gives the same storage from one
    reduction of M."""
    M, lower = case
    K, reps = kernel_modulo(M, lower)
    assert K.basis == kernel(M).basis
    assert reps == quotient_reps(kernel(M), lower)
    assert (reps.rows, reps.cols) == (M.cols, K.dim - lower.dim)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_modulo_defaults_to_the_image(seed):
    # a square-zero M (Jordan blocks of size at most 2 in a random basis)
    # modulo its own image, as the monodromy weight filtration reduces N^e
    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    sizes = [2] * rng.randrange(0, n // 2 + 1)
    P = random_invertible(rng, n)
    M = inverse(P) @ jordan_nilpotent(sizes + [1] * (n - 2 * len(sizes))) @ P
    K, reps = kernel_modulo(M, image(M))
    assert K.basis == kernel(M).basis
    assert reps == quotient_reps(kernel(M), image(M))


# -- eliminations read from the integer rows, against the reduced form -------


def storage(M: ExactMatrix | None):
    return None if M is None else (M.rows, M.cols, M.re, M.im, M.den)


def assert_eliminations_keep_the_reduced_form_storage(M, x, c):
    """rref, kernel, inverse (of M's leading square block) and solve (of
    M x and of c) equal, to the re/im/den tuples, the reduced form built as
    a matrix and then cut: support.reference_rref, which divides its pivot
    rows itself."""
    R, pivots, rk = rref(M)
    want, want_pivots, want_rk = reference_rref(M)
    assert (storage(R), pivots, rk) == (storage(want), want_pivots, want_rk)
    assert storage(kernel(M).basis) == storage(reference_kernel(M).basis)
    n = min(M.rows, M.cols)
    S = M.take_rows(range(n)).take_columns(range(n))
    try:
        want = storage(reference_inverse(S))
    except ValueError:
        with pytest.raises(ValueError):
            inverse(S)
    else:
        assert storage(inverse(S)) == want
    for rhs in ((M @ x).column(0), c.column(0)):
        got = solve(M, rhs)
        assert got == reference_solve(M, rhs)
        assert got is None or all(type(v) is GaussianScalar for v in got)


@settings(max_examples=300, deadline=None)
@given(st.one_of(rational_matrices(), gaussian_matrices()), st.data())
def test_eliminations_keep_the_reduced_form_storage(M, data):
    """Real, complex and mixed-denominator matrices, empty shapes, full rank
    and rank-deficient (gaussian_matrices makes about half of those with
    two or more rows dependent); a consistent right side and one that may
    not be."""
    assert_eliminations_keep_the_reduced_form_storage(
        M, data.draw(gaussian_matrices(M.cols, 1)), data.draw(gaussian_matrices(M.rows, 1)))


@pytest.mark.parametrize("rows", [
    [[-2, 1, 3], [4, -6, 1]],
    [[g(1, 2), 3, g(0, -1)], [2, g(1, 1), 5]],
    [[-3, g(1, 1), 2]],
], ids=["negative-real-pivot", "complex-pivot", "real-pivots-in-a-complex-matrix"])
def test_signed_pivots_keep_the_reduced_form_storage(rows):
    M = ExactMatrix([[GaussianScalar.coerce(v) for v in row] for row in rows])
    ones = ExactMatrix.from_rational([[1]] * M.cols)
    assert_eliminations_keep_the_reduced_form_storage(M, ones, ones.take_rows(range(M.rows)))


@settings(max_examples=300, deadline=None)
@given(kernel_modulo_cases())
def test_kernel_modulo_keeps_the_reduced_form_storage(case):
    M, lower = case
    got, want = kernel_modulo(M, lower), reference_kernel_modulo(M, lower)
    assert [storage(got[0].basis), storage(got[1])] == [storage(want[0].basis), storage(want[1])]


@st.composite
def class_coordinates_inputs(draw):
    """(reps, lower, X): lower the image of a random matrix, reps the
    representatives of lower + image(B) modulo lower, and X combinations of
    that span, with an arbitrary column inserted about half the time."""
    rows = draw(st.integers(0, 4))
    kinds = st.sampled_from([rational_matrices, gaussian_matrices])
    lower = image(draw(draw(kinds)(rows, draw(st.integers(0, 3)))))
    upper = lower.add(image(draw(draw(kinds)(rows, draw(st.integers(0, 3))))))
    X = upper.basis @ draw(draw(kinds)(upper.dim, draw(st.integers(0, 3))))
    if draw(st.booleans()):
        cols = X.columns()
        cols.insert(draw(st.integers(0, len(cols))), draw(gaussian_matrices(rows, 1)).column(0))
        X = ExactMatrix.from_columns(cols, rows=rows)
    return quotient_reps(upper, lower), lower, X


@settings(max_examples=300, deadline=None)
@given(class_coordinates_inputs())
def test_class_coordinates_keep_the_reduced_form_storage(case):
    reps, lower, X = case
    assert storage(class_coordinates(reps, lower, X)) == \
        storage(reference_class_coordinates(reps, lower, X))


@settings(max_examples=300, deadline=None)
@given(st.one_of(rational_matrices(), gaussian_matrices()), st.booleans())
def test_echelon_rows_are_primitive(M, reduced):
    """Each row _echelon returns is divided by its integer content, real and
    complex paths alike, reduced or row echelon, so coefficients do not
    grow between pivots."""
    R, I, _ = _echelon(M, reduced)
    for re, im in zip(R, I):
        assert gcd(*re, *im) in (0, 1)  # 0 for a row eliminated to zero


@settings(max_examples=300, deadline=None)
@given(st.one_of(rational_matrices(), gaussian_matrices()))
def test_pivot_only_eliminations_find_the_reduced_pivots(M):
    """rank and image stop at row echelon form, whose pivot columns are
    those of the reduced form: rref's and support.reference_rref's."""
    _, pivots, rk = rref(M)
    assert reference_rref(M)[1:] == (pivots, rk)
    assert _echelon(M, reduced=False)[2] == pivots
    assert rank(M) == rk
    assert storage(image(M).basis) == storage(M.take_columns(pivots))


@pytest.mark.parametrize("op", [rank, image], ids=["rank", "image"])
def test_rank_and_image_eliminate_for_pivots_only(op, monkeypatch):
    """rank and image read only pivots, so each asks _echelon for one
    forward elimination, never for the reduced form."""
    modes = []
    echelon = exactlin._echelon

    def recording(M, reduced=True):
        modes.append(reduced)
        return echelon(M, reduced)

    monkeypatch.setattr(exactlin, "_echelon", recording)
    G = GaussianScalar
    for M in (ExactMatrix.from_rational([[1, 2, 3], [2, 4, 7], [0, 0, 5]]),
              ExactMatrix.from_rational([[Fraction(1, 2), 1], [1, 2], [3, -1]]),
              ExactMatrix([[G(1), G(0, 1)], [G(0, 1), G(-1)]]),
              ExactMatrix.zero(0, 3)):
        op(M)
    assert modes == [False] * 4


@settings(max_examples=300, deadline=None)
@given(st.one_of(rational_matrices(), gaussian_matrices()), st.data())
def test_operations_that_keep_their_operand_return_it(M, data):
    """assemble of one covering block, take_rows and take_columns of every
    index in order, scale by 1 and conj of a real matrix return their
    operand, whose storage is the one the general path of each builds."""
    rows, cols = M.rows, M.cols
    assert ExactMatrix.assemble(rows, cols, [(range(rows), 0, M)]) is M
    k = data.draw(st.integers(0, cols))
    split = ExactMatrix.assemble(rows, cols, [(range(rows), 0, M.take_columns(range(k))),
                                              (range(rows), k, M.take_columns(range(k, cols)))])
    assert storage(split) == storage(M)
    assert M.take_rows(range(rows)) is M and M.take_rows(list(range(rows))) is M
    assert storage(M.vstack(ExactMatrix.zero(1, cols)).take_rows(range(rows))) == storage(M)
    assert M.take_columns(range(cols)) is M
    assert storage(M.hstack(ExactMatrix.zero(rows, 1)).take_columns(range(cols))) == storage(M)
    # any other order is a new matrix
    js, ks = data.draw(st.permutations(range(rows))), data.draw(st.permutations(range(cols)))
    assert M.take_rows(js).entries == tuple(M.entries[j] for j in js)
    assert M.take_columns(ks).columns() == [M.column(k) for k in ks]
    assert M.scale(1) is M and M.scale(G_ONE) is M
    assert storage(M.scale(2).scale(Fraction(1, 2))) == storage(M)
    if M.im:
        assert M.conj() is not M and storage(M.conj().conj()) == storage(M)
    else:
        assert M.conj() is M
        # conj(iM) = -iM for a real M, through the complex path
        assert storage(M.scale(G_I).conj().scale(G_I)) == storage(M)


# the n x n identity, built three ways; all three have the same storage
IDENTITY_WAYS = {
    "identity": ExactMatrix.identity,
    "from_rational": lambda n: ExactMatrix.from_rational(
        [[Fraction(int(j == k)) for k in range(n)] for j in range(n)], cols=n),
    "from_json": lambda n: matrix_from_json(
        [["1" if j == k else "0" for k in range(n)] for j in range(n)], cols=n),
}


@st.composite
def moved_entry(draw, M: ExactMatrix) -> ExactMatrix:
    """M, with at least one row, with one entry moved by a nonzero c."""
    rows = [list(row) for row in M.entries]
    j, k = draw(st.integers(0, M.rows - 1)), draw(st.integers(0, M.cols - 1))
    x, c = rows[j][k], draw(gaussian_entries.filter(lambda c: not c.is_zero()))
    rows[j][k] = GaussianScalar(x.re + c.re, x.im + c.im)
    return ExactMatrix(rows, cols=M.cols)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.sampled_from(sorted(IDENTITY_WAYS)), st.data())
def test_product_with_an_identity_factor(n, cols, way, data):
    """A factor equal to the identity, however it was built, gives back the
    other factor on either side; one entry away from it, the product is
    formed, and so is it for a multiple cI, whose rows have the identity's
    numerators over c's denominator.  All equal the entrywise product."""
    I = IDENTITY_WAYS[way](n)
    assert I == ExactMatrix.identity(n)
    A, C = data.draw(gaussian_matrices(n, cols)), data.draw(gaussian_matrices(cols, n))
    assert I @ A is A and C @ I is (I if C == I else C)  # the left factor is tested first
    assert I @ A == entries_product(I, A) and C @ I == entries_product(C, I)
    if n:
        c = data.draw(small_rationals.filter(lambda c: c not in (0, 1)))
        for P in (data.draw(moved_entry(I)), I.scale(c)):
            assert P @ A == entries_product(P, A) and C @ P == entries_product(C, P)


@st.composite
def hermitian_check_cases(draw):
    """Gaussian matrices with row denominators, square or not; Hermitian
    ones, A + A^* scaled by a rational; and those with one entry moved."""
    kind = draw(st.sampled_from(["any", "hermitian", "moved"]))
    if kind == "any":
        return draw(gaussian_matrices())
    n = draw(st.integers(0, 4))
    A = draw(gaussian_matrices(n, n))
    H = (A + A.conj().transpose()).scale(draw(small_rationals))
    return draw(moved_entry(H)) if kind == "moved" and n else H


@settings(max_examples=300, deadline=None)
@given(hermitian_check_cases())
def test_hermitian_check_is_equality_with_the_adjoint(H):
    """hermitian_check compares stored integers across the diagonal and
    builds no matrix; it agrees with H == H^* built out."""
    assert hermitian_check(H) == (H == H.conj().transpose())


CONTRACT_TESTS = under_python_O(__file__, [
    "TestSubspace::test_ambient_mismatch",
    "TestHermitianSignature::test_rejects_non_hermitian",
    "TestLeadingSign::test_contract_errors",
])


def test_contract_errors_survive_python_O():
    """The contract tests of this module pass under python -O as well, where
    assert statements are off: the checks raise ContractError."""
    passed, output = passed_under_python_O()
    assert set(CONTRACT_TESTS) <= passed, output


class TestSupportChecks:
    """The reference helpers of support reject bad input by raising
    AssertionError themselves, so their checks also run under python -O."""

    def test_invert_rejects_a_singular_matrix(self):
        with pytest.raises(AssertionError, match="matrix is not invertible"):
            invert(gm([[1, 2], [2, 4]]))

    def test_reference_reduction_rejects_a_non_hermitian_form(self):
        with pytest.raises(AssertionError, match="hermitian form required"):
            reference_hermitian_reduce(gm([[0, 1], [0, 0]]), want_basis=False)


SUPPORT_CHECK_TESTS = under_python_O(__file__, [
    "TestSupportChecks::test_invert_rejects_a_singular_matrix",
    "TestSupportChecks::test_reference_reduction_rejects_a_non_hermitian_form",
])


def test_support_checks_survive_python_O():
    passed, output = passed_under_python_O()
    assert set(SUPPORT_CHECK_TESTS) <= passed, output


def test_contract_error_is_an_assertion_error():
    with pytest.raises(ContractError):
        Subspace.full(2).intersect(Subspace.full(3))
    with pytest.raises(ContractError, match="shape mismatch 1x2 @ 1x2"):
        gm([[1, 2]]) @ gm([[1, 2]])
    assert issubclass(ContractError, AssertionError)
