"""Tests for orbit filtrations, opposedness determinants, orbit signatures
and the minor/wedge identities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lmhs import exactlin, identities
from lmhs.exactlin import (
    ExactMatrix,
    GaussianScalar,
    PolyScalar,
    Subspace,
    exp_nilpotent,
    inverse,
    leading_principal_minors,
)
from lmhs.filtration import DecreasingFiltration, IncreasingFiltration
from lmhs.identities import jordan_exponential, syt_count, taylor_minor_identity, wedge_identity
from lmhs.mhs import (
    MHSData,
    deligne_splitting,
    primitive_forms,
    random_polarized_mhs,
)
from lmhs.orbit import (
    OrbitFiltration,
    _signature_from_minors,
    opposedness_degree,
    opposedness_polynomial,
    orbit_signature,
    refined_filtration_check,
    verify_main_theorem,
)
from support import (
    jordan_nilpotent, passed_under_python_O, random_invertible, random_unimodular, reference_det,
    to_domain, under_python_O,
)
from test_mhs import elliptic_string, tate_string_3

I = GaussianScalar(0, 1)


def entry(coeffs, j, k):
    """Entry (j, k) of the polynomial matrix sum_i t^i coeffs[i]."""
    return PolyScalar([C.entries[j][k] for C in coeffs])


def exp_real(N: ExactMatrix, a: Fraction) -> ExactMatrix:
    """exp(aN) of a nilpotent N, summed from its series here, not by
    exp_nilpotent."""
    E = term = ExactMatrix.identity(N.rows)
    for j in range(1, N.rows + 1):
        term = (term @ N).scale(GaussianScalar(a / j))
        E = E + term
    return E


def orbit_coefficients(N: ExactMatrix, a: Fraction, b: GaussianScalar) -> list[ExactMatrix]:
    """The t-coefficients of exp((a + bt)N) = exp(aN) exp(btN)."""
    E = exp_real(N, a)
    return [E @ C for C in exp_nilpotent(N, b)]


def trimmed(coeffs: list[ExactMatrix]) -> list[ExactMatrix]:
    """coeffs without trailing zero matrices, the constant one kept."""
    out = list(coeffs)
    while len(out) > 1 and out[-1].is_zero():
        out.pop()
    return out


def orbit_filtration(data: MHSData) -> OrbitFiltration:
    """The orbit of data, from its primitive forms."""
    return OrbitFiltration(data, primitive_forms(data, deligne_splitting(data)))


def level_signature(orb: OrbitFiltration, k: int) -> tuple[int, int]:
    """orbit_signature of level k, from its Hermitian matrix and det."""
    H = orb.hermitian_matrix(k)
    return orbit_signature(H, exactlin.poly_det(*H))


def wedge(n: int, k: int) -> bool:
    """wedge_identity(n, k) with the Jordan exponential built for it."""
    return wedge_identity(n, k, jordan_exponential(n))


def pure_weight_one() -> MHSData:
    """Polarized pure Hodge structure of an elliptic curve: N = 0, d = 1,
    F^1 spanned by e1 + i e2, S the standard symplectic form."""
    W = IncreasingFiltration(2, {1: Subspace.full(2)})
    F = DecreasingFiltration(
        2,
        {
            0: Subspace.full(2),
            1: Subspace.span(2, [[1, I]]),
        },
    )
    N = ExactMatrix.zero(2, 2)
    S = ExactMatrix.from_rational([[0, 1], [-1, 0]])
    return MHSData(2, 1, W, F, N, S)


class TestExpAndBasis:
    def test_poly_exp(self):
        # the t-coefficients (iN)^j / j! of exp(itN), times exp(aN) for
        # those of exp((a + it)N)
        N = ExactMatrix.from_rational([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        for a in (Fraction(0), Fraction(1, 2)):
            z = PolyScalar([a, I])
            E = orbit_coefficients(N, a, I)
            assert entry(E, 0, 0) == PolyScalar([1])
            assert entry(E, 1, 0) == z
            # z^2 / 2 = (a^2 + 2ait - t^2) / 2
            assert entry(E, 2, 0) == PolyScalar([a * a / 2, GaussianScalar(0, a),
                                                 Fraction(-1, 2)])
            assert entry(E, 2, 1) == z
            assert entry(E, 0, 1).is_zero()
        # b = 0 leaves only the identity, and the coefficients sum to exp(bN)
        assert exp_nilpotent(N, 0) == [ExactMatrix.identity(3)]
        C = exp_nilpotent(N)
        assert sum(C[1:], C[0]) == exp_real(N, Fraction(1))

    def test_conjugate_exponential(self):
        # N is real, so exp(-itN) has the conjugate coefficients
        for n in range(1, 9):
            N = jordan_nilpotent([n])
            assert [C.conj() for C in exp_nilpotent(N, I)] == exp_nilpotent(N, I.conj())

    def test_well_ordered_tate3(self):
        data = tate_string_3()
        forms = primitive_forms(data, deligne_splitting(data))
        orb = OrbitFiltration(data, forms)
        # single primitive at (2,2), string u, Nu, N^2 u, the form positive on u
        assert [tag for tag, _ in orb.entries] == [(2, 2, 0, 0), (2, 2, 0, 1), (2, 2, 0, 2)]
        assert all(v > 0 for v in forms[2, 2][2])

    def test_level_basis_dims(self):
        data = tate_string_3()
        orb = orbit_filtration(data)
        for k in range(0, 3):
            _, M = orb.level_basis(k)
            assert M.cols == data.F.at(k).dim


class TestHermitianMatrices:
    def test_elliptic(self):
        orb = orbit_filtration(elliptic_string())
        H = orb.hermitian_matrix(1)
        assert (H[0].rows, H[0].cols) == (1, 1)
        assert entry(H, 0, 0) == PolyScalar([0, 2])

    def test_tate3_level1(self):
        orb = orbit_filtration(tate_string_3())
        H = orb.hermitian_matrix(1)
        assert entry(H, 0, 0) == PolyScalar([0, 0, 2])
        assert entry(H, 0, 1) == PolyScalar([0, GaussianScalar(0, 2)])
        assert entry(H, 1, 0) == PolyScalar([0, GaussianScalar(0, -2)])
        assert entry(H, 1, 1) == PolyScalar([1])

    def test_independent_of_a(self):
        # the orbit Hermitian matrix only sees zbar - z = -2it: it equals
        # i^d (exp(zN)X)^T S conj(exp(zN)X), z = a + it, at every a
        rng = random.Random(97)
        structures = [elliptic_string(), tate_string_3()]
        structures += [random_polarized_mhs(rng, max_dim=6, max_d=3)[0]
                       for _ in range(3)]
        for data in structures:
            orb = orbit_filtration(data)
            for k in range(data.F.min_index(), data.F.max_index() + 1):
                got = trimmed(orb.hermitian_matrix(k))
                _, X = orb.level_basis(k)
                for a in (Fraction(0), Fraction(1, 2)):
                    assert got == self.direct_hermitian(data, X, a), (k, a)

    @staticmethod
    def direct_hermitian(data, X, a):
        # the t-coefficients of i^d (exp(zN)X)^T S exp(zbar N) conj(X)
        left = [(C @ X).transpose() for C in orbit_coefficients(data.N, a, I)]
        right = [C @ X.conj() for C in orbit_coefficients(data.N, a, I.conj())]
        out = [ExactMatrix.zero(X.cols, X.cols)] * (len(left) + len(right) - 1)
        for j, L in enumerate(left):
            for m, R in enumerate(right):
                out[j + m] = out[j + m] + (L @ data.S @ R).scale(exactlin.i_power(data.d))
        return trimmed(out)


def minors_signature(H):
    """The asymptotic signature: the signs of the leading principal minors."""
    return _signature_from_minors(leading_principal_minors(*H))


class TestOrbitSignature:
    """orbit_signature evaluates H(t) at one integer t past Cauchy's bound on
    the real roots of det H, and agrees with the signs of the minors."""

    def test_elliptic(self):
        orb = orbit_filtration(elliptic_string())
        assert level_signature(orb, 1) == minors_signature(orb.hermitian_matrix(1)) == (1, 0)

    def test_tate3(self):
        orb = orbit_filtration(tate_string_3())
        for k, want in [(0, (2, 1)), (1, (1, 1)), (2, (1, 0))]:
            assert level_signature(orb, k) == minors_signature(orb.hermitian_matrix(k)) == want

    def test_pure_top_level(self):
        # N = 0 polarized pure structure: k = d gives (dim F^d, 0)
        data = pure_weight_one()
        orb = orbit_filtration(data)
        assert level_signature(orb, 1) == minors_signature(orb.hermitian_matrix(1)) == (1, 0)

    @pytest.mark.parametrize("H, want", [
        ([[[-3000]], [[1]]], (1, 0)),
        ([[[1, 0], [0, -3000]], [[0, 0], [0, 1]]], (2, 0)),
    ], ids=["t-3000", "diag(1,t-3000)"])
    def test_late_root_gives_asymptotic_signature(self, H, want):
        # det H has its last real root at t = 3000; a point below it reads
        # a negative direction that large t does not have
        H = [ExactMatrix.from_rational(C) for C in H]
        assert orbit_signature(H, exactlin.poly_det(*H)) == minors_signature(H) == want

    def test_degenerate_form_is_arithmetic_error(self):
        H = [ExactMatrix.from_rational([[1, 1], [1, 1]]),
             ExactMatrix.from_rational([[1, 0], [0, 1]])]
        with pytest.raises(ArithmeticError, match="degenerate for every t"):
            orbit_signature([H[0]], exactlin.poly_det(H[0]))
        # H(t) = [[1 + t, 1], [1, 1 + t]] is nondegenerate past its roots 0, -2
        assert orbit_signature(H, exactlin.poly_det(*H)) == (2, 0)

    def test_empty_level(self):
        orb = orbit_filtration(elliptic_string())
        assert level_signature(orb, 2) == (0, 0)


class TestOpposedness:
    def test_elliptic_degree(self):
        data = elliptic_string()
        orb = orbit_filtration(data)
        p = opposedness_polynomial(orb, 1)
        assert p.degree() == 1 == opposedness_degree(data, 1, orb.prims)

    def test_tate3_degrees(self):
        data = tate_string_3()
        orb = orbit_filtration(data)
        # primitive J^{2,2}, dim 1: degree (2-k+1)(2-2+k) = (3-k)k
        for k in range(0, 3):
            want = (3 - k) * k
            assert opposedness_degree(data, k, orb.prims) == want
            assert opposedness_polynomial(orb, k).degree() == want

    def test_degree_independent_of_a(self):
        data = tate_string_3()
        orb = orbit_filtration(data)
        for a in (Fraction(0), Fraction(1, 2), Fraction(1)):
            for k in range(0, 3):
                assert self.direct_determinant(orb, k, a).degree() == (3 - k) * k

    def test_complementary_dims_automatic(self):
        # for genuine structures dim F^k + dim F^{d-k+1} = n at every k,
        # so the determinant is defined at all levels, including clamped ones
        orb = orbit_filtration(tate_string_3())
        for k in range(-1, 5):
            opposedness_polynomial(orb, k)

    @staticmethod
    def direct_determinant(orb, k, a):
        # det[exp(zN) X | exp(zbar N) conj Y] as defined, z = a + it, with
        # X, Y the well-ordered bases of F^k and F^{d-k+1}
        data = orb.data
        _, X = orb.level_basis(k)
        _, Y = orb.level_basis(data.d - k + 1)
        left = [E @ X for E in orbit_coefficients(data.N, a, I)]
        right = [E @ Y.conj() for E in orbit_coefficients(data.N, a, I.conj())]
        return reference_det(*(L.hstack(R) for L, R in zip(left, right)))

    @pytest.mark.parametrize("a", [Fraction(0), Fraction(1, 2)])
    def test_equals_direct_determinant(self, a):
        # opposedness_polynomial drops the factor det exp(zN) = 1, and with
        # it a = Re z; the polynomial itself must not change, not only its
        # degree
        rng = random.Random(89)
        structures = [elliptic_string(), tate_string_3()]
        structures += [random_polarized_mhs(rng, max_dim=6, max_d=3)[0]
                       for _ in range(4)]
        for data in structures:
            orb = orbit_filtration(data)
            for k in range(data.F.min_index(), data.F.max_index() + 2):
                got = opposedness_polynomial(orb, k)
                assert not got.is_zero(), k
                assert got == self.direct_determinant(orb, k, a), k

    def test_impossible(self, monkeypatch):
        # white-box: drop a basis column of F^1 to force a dimension mismatch
        orb = orbit_filtration(tate_string_3())
        original = OrbitFiltration.level_basis

        def dropping(self, k):
            tags, M = original(self, k)
            return (tags[:1], M.take_columns([0])) if k == 1 else (tags, M)

        monkeypatch.setattr(OrbitFiltration, "level_basis", dropping)
        with pytest.raises(ValueError, match="opposedness impossible"):
            opposedness_polynomial(orb, 1)


class TestMainTheorem:
    def test_elliptic(self):
        r = verify_main_theorem(elliptic_string())
        assert r.ok, r.failures
        assert r.details["polarized"]
        assert r.details["pieces"] == {0: (1, 0), 1: (1, 0)}

    def test_tate3(self):
        r = verify_main_theorem(tate_string_3())
        assert r.ok, r.failures
        assert r.details["pieces"] == {0: (1, 0), 1: (1, 0), 2: (1, 0)}

    def test_sign_flip(self):
        data = tate_string_3()
        flipped = MHSData(
            data.ambient_dim, data.d, data.W, data.F, data.N, -data.S
        )
        r = verify_main_theorem(flipped)
        assert r.ok, r.failures
        assert not r.details["polarized"]
        assert r.details["pieces"] == {0: (0, 1), 1: (0, 1), 2: (0, 1)}

    def test_bad_polarization_rejected(self):
        data = elliptic_string()
        bad = MHSData(
            data.ambient_dim, data.d, data.W, data.F, data.N,
            ExactMatrix.identity(2),
        )
        r = verify_main_theorem(bad)
        assert not r.ok
        assert "Situation B'" in r.failures[0]

    def test_random_polarized(self):
        rng = random.Random(61)
        for _ in range(15):
            data, _ = random_polarized_mhs(rng)
            r = verify_main_theorem(data)
            assert r.ok, r.failures
            assert r.details["polarized"]

    def test_random_nonpolarized(self):
        rng = random.Random(67)
        seen_negative = False
        for _ in range(10):
            data, expected = random_polarized_mhs(rng, polarized=False)
            r = verify_main_theorem(data)
            assert r.ok, r.failures
            if any(m for (_, m) in expected.values()):
                seen_negative = True
                assert not r.details["polarized"]
        assert seen_negative

    def test_a_independence(self):
        # exp(aN)F has the orbit exp((z + a)N)F, and exp(aN) keeps W, N and
        # S, so moving F by it changes no verdict or signature
        data, _ = random_polarized_mhs(random.Random(71), max_dim=6, max_d=3)
        want = verify_main_theorem(data)
        assert want.ok, want.failures
        for a in (Fraction(1, 2), Fraction(1)):
            moved = MHSData(data.ambient_dim, data.d, data.W,
                            data.F.apply(exp_real(data.N, a)), N=data.N, S=data.S)
            got = verify_main_theorem(moved)
            assert got.ok, got.failures
            for key in ("levels", "pieces", "nearby"):
                assert got.details[key] == want.details[key], (a, key)


class TestRefinedFiltration:
    def test_elliptic(self):
        rep = refined_filtration_check(orbit_filtration(elliptic_string()))
        assert rep.ok
        by_level = {e["level"]: e for e in rep.levels}
        assert by_level[1]["minors"] == [
            {"degree": 1, "sign": 1, "ratio_degree": 1, "diagonal_order": 1}
        ]

    def test_tate3_raw_ratio_degrees(self):
        rep = refined_filtration_check(orbit_filtration(tate_string_3()))
        assert rep.ok
        by_level = {e["level"]: e for e in rep.levels}
        # raw ratio degrees can leave [k-d, d]; the bound holds for the
        # diagonal orders p+q-d-2r, which here are 2, 0, -2
        e0 = by_level[0]
        assert [m["ratio_degree"] for m in e0["minors"]] == [2, 0, -2]
        assert [m["diagonal_order"] for m in e0["minors"]] == [2, 0, -2]
        assert [m["sign"] for m in e0["minors"]] == [1, -1, -1]

    def test_zero_n(self):
        rep = refined_filtration_check(orbit_filtration(pure_weight_one()))
        assert rep.ok
        for entry in rep.levels:
            for m in entry["minors"]:
                assert m["ratio_degree"] == 0

    def test_json_shape(self):
        import json

        rep = refined_filtration_check(orbit_filtration(elliptic_string()))
        blob = json.dumps(rep.to_json())
        parsed = json.loads(blob)
        assert {"level", "minors", "opposedness", "failures"} <= set(parsed[0])


class TestIdentities:
    def test_syt_counts(self):
        assert syt_count(1, 7) == 1
        assert syt_count(7, 1) == 1
        assert syt_count(2, 2) == 2
        assert syt_count(2, 3) == 5
        assert syt_count(0, 3) == 1

    def test_syt_brute_force_2x2(self):
        # fillings of the 2x2 square with 1..4 increasing along rows/cols
        import itertools

        count = 0
        for perm in itertools.permutations(range(1, 5)):
            a, b, c, d = perm
            if a < b and c < d and a < c and b < d:
                count += 1
        assert count == syt_count(2, 2)

    def test_taylor_examples(self):
        assert taylor_minor_identity(2, 1)
        assert taylor_minor_identity(3, 2)
        assert taylor_minor_identity(4, 0)

    def test_wedge_examples(self):
        assert wedge(1, 1)
        assert wedge(2, 1)
        assert wedge(3, 0)

    def test_identities_small_range(self):
        for n in range(0, 6):
            for k in range(0, n + 2):
                assert taylor_minor_identity(n, k)
                assert wedge(n, k)

    def test_wedge_a_independent(self):
        # wedge_identity checks z = it; at z = a + it the determinant is
        # the same, since exp(aN) multiplies both blocks
        n, k = 3, 2
        N = jordan_nilpotent([n + 1])
        left, right = range(n - k + 1), range(k)
        want = reference_det(*(
            C.take_columns(left).hstack(C.take_columns(right).conj())
            for C in exp_nilpotent(N, I)))
        assert wedge(n, k)
        for a in (Fraction(1, 2), Fraction(1)):
            twisted = zip(orbit_coefficients(N, a, I), orbit_coefficients(N, a, I.conj()))
            assert reference_det(*(
                L.take_columns(left).hstack(R.take_columns(right))
                for L, R in twisted)) == want, a

    def test_degree_bound_is_exact(self, monkeypatch):
        # both determinants have degree (n - k + 1)k, and the offset bound
        # of their matrices is that degree: no evaluation point would be
        # spare.  Both matrices are graded, so poly_det eliminates their
        # leading coefficients once and shifts by that same exponent
        matrices, eliminated = [], []
        poly_det, det_at = identities.poly_det, exactlin._det_at

        def recording_det(*coeffs):
            matrices.append(coeffs)
            return poly_det(*coeffs)

        def recording_det_at(rows, k, t):
            eliminated.append(rows)
            return det_at(rows, k, t)

        monkeypatch.setattr(identities, "poly_det", recording_det)
        monkeypatch.setattr(exactlin, "_det_at", recording_det_at)
        for n in range(0, 9):
            for k in range(0, n + 2):
                for identity in (taylor_minor_identity, wedge):
                    matrices.clear()
                    eliminated.clear()
                    assert identity(n, k)
                    (coeffs,) = matrices
                    rows, _ = exactlin._poly_rows(coeffs)
                    size, e = len(rows), (n - k + 1) * k
                    assert exactlin._degree_bound(rows, size) == e, (identity.__name__, n, k)
                    r, c = exactlin._offsets([[len(a) - 1 for a, _ in row] for row in rows])
                    assert sum(r) - sum(c) == e
                    (leading,) = eliminated
                    assert all(len(a) <= 1 for row in leading for a, _ in row)

    def test_contract_errors(self):
        with pytest.raises(AssertionError, match="minor size 4 outside 0..3"):
            taylor_minor_identity(2, 4)
        with pytest.raises(AssertionError, match="minor size -1 outside 0..3"):
            wedge(2, -1)
        with pytest.raises(AssertionError, match="nonnegative sides"):
            syt_count(-1, 2)
        # a det that is not det H: H(t) = [[t - 2]] is singular at the point
        # t = 2 that the constant det certifies
        H = [ExactMatrix.from_rational([[-2]]), ExactMatrix.from_rational([[1]])]
        with pytest.raises(AssertionError, match="det H vanishes at its certified point t = 2"):
            orbit_signature(H, PolyScalar([1]))
        data = elliptic_string()
        with pytest.raises(AssertionError, match="an orbit needs N and S"):
            OrbitFiltration(MHSData(data.ambient_dim, data.d, data.W, data.F, data.N), {})
        with pytest.raises(AssertionError, match="an orbit needs N and S"):
            OrbitFiltration(MHSData(data.ambient_dim, data.d, data.W, data.F, S=data.S), {})


CONTRACT_TESTS = under_python_O(__file__, ["TestIdentities::test_contract_errors"])


def test_contract_errors_survive_python_O():
    """The contract checks of orbit raise ContractError, which python -O
    keeps."""
    passed, output = passed_under_python_O()
    assert set(CONTRACT_TESTS) <= passed, output


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_verdicts_do_not_depend_on_coordinates(seed):
    """A real change of basis T carries (W, F, N, S) to (TW, TF, TNT^-1,
    T^-T S T^-1), which has the same verdict, signature table, level
    signatures, pieces and nearby index.  T^-1 is rarely integral, so the
    moved structure has rows over denominators."""
    rng = random.Random(seed)
    data, _ = random_polarized_mhs(rng, max_dim=6)
    n = data.ambient_dim
    T = random_invertible(rng, n)
    Tinv = inverse(T)
    moved = MHSData(n, data.d, data.W.apply(T), data.F.apply(T),
                    N=T @ data.N @ Tinv, S=Tinv.transpose() @ data.S @ Tinv)
    want, got = verify_main_theorem(data), verify_main_theorem(moved)
    assert want.ok and got.ok, (want.failures, got.failures)
    assert got.details["table"].to_json() == want.details["table"].to_json()
    for key in ("levels", "pieces", "nearby"):
        assert got.details[key] == want.details[key], key


def takes_hyperbolic_step(H) -> bool:
    """Whether the congruence reduction of H, pivoting on the first nonzero
    diagonal entry, meets an active block with a zero diagonal and a nonzero
    entry: the step that promotes a hyperbolic pair."""
    A = to_domain(H).to_list()
    while A:
        p = next((j for j in range(len(A)) if A[j][j]), None)
        if p is None:
            return any(x for row in A for x in row)
        d = A[p][p]
        A = [[A[j][k] - A[j][p] * A[p][k] / d for k in range(len(A)) if k != p]
             for j in range(len(A)) if j != p]
    return False


def test_sheared_structure_takes_the_hyperbolic_step(monkeypatch):
    """A unimodular shear of an unpolarized generator draw whose primitive
    forms, in the sheared coordinates, have a zero diagonal: the orbit
    pipeline promotes a hyperbolic pair and still gives the level
    signatures, pieces and table of the unsheared draw.  The draw (two
    complex slots of weight 1 with forms of opposite signs) was found by a
    search: seed 1751 is the one of seeds 0..7999 whose shear reaches the
    step, among 1,175 draws with an indefinite primitive form."""
    rng = random.Random(1751)
    data, expected = random_polarized_mhs(rng, max_dim=4, max_d=2, polarized=False,
                                          transport=False, twist=False)
    n = data.ambient_dim
    T = random_unimodular(rng, n)
    Tinv = inverse(T)
    moved = MHSData(n, data.d, data.W.apply(T), data.F.apply(T),
                    N=T @ data.N @ Tinv, S=Tinv.transpose() @ data.S @ Tinv)
    forms = []
    reduce = exactlin._hermitian_reduce

    def recording(H, want_basis):
        forms.append(H)
        return reduce(H, want_basis)

    monkeypatch.setattr(exactlin, "_hermitian_reduce", recording)
    want = verify_main_theorem(data)
    assert want.ok and not any(map(takes_hyperbolic_step, forms)), want.failures
    forms.clear()
    got = verify_main_theorem(moved)
    assert got.ok, got.failures
    stepped = [H for H in forms if takes_hyperbolic_step(H)]
    assert stepped
    for H in stepped:
        # the vectors the pipeline reads diagonalize the form
        vectors, values, nulls = exactlin.hermitian_diagonalize(H)
        X = ExactMatrix.from_columns(vectors, rows=H.rows)
        diagonal = [[v if j == k else 0 for k in range(len(values))] for j, v in enumerate(values)]
        assert not nulls and X.transpose() @ H @ X.conj() == ExactMatrix.from_rational(diagonal)
    assert got.details["table"].entries == want.details["table"].entries == expected
    for key in ("levels", "pieces", "nearby"):
        assert got.details[key] == want.details[key], key
