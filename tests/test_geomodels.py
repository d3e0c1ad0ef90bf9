import random

import pytest
import sympy

from lmhs import geomodels
from lmhs.exactlin import ExactMatrix, GaussianScalar
from lmhs.geomodels import (
    LefschetzInput,
    OdpInput,
    ResolutionData,
    _derived_betti,
    _kunneth,
    fiber_product_dim_check,
    fiber_product_readings,
    full_signature,
    hashimoto_sano_pic_fixture,
    k3_hodge_numbers,
    kahler_index_formula,
    lefschetz_middle_betti,
    o16_evaluator,
    odp_index_formula,
    odp_semistable_model,
    quadric_cohomology,
    sano_index_table,
    sano_negative_count,
    schoen_input,
)
from lmhs.steenbrink import (
    DegenerationData,
    e2_page,
    nearby_hodge_index,
    validate_degeneration_data,
    weight_criterion,
)
from lmhs.mhs import random_polarized_mhs
from lmhs.orbit import verify_main_theorem

M = ExactMatrix.from_rational


class TestQuadricCohomology:
    def test_surface_middle_pairing(self):
        q = quadric_cohomology(2)
        assert q.dim(2) == 2
        assert q.pairing(2) == M([[0, 1], [1, 0]])

    def test_fourfold_plane_classes(self):
        q = quadric_cohomology(4)
        P = q.pairing(4)
        # A.A = B.B = 1, A.B = 0, and (A - B).(A + B) = 0
        assert P == M([[1, 0], [0, 1]])
        a_minus_b = M([[1], [-1]])
        a_plus_b = M([[1], [1]])
        assert (a_minus_b.transpose() @ P @ a_plus_b).is_zero()
        # the sum of the plane classes is the hyperplane power: degree 2
        assert (a_plus_b.transpose() @ P @ a_plus_b) == M([[2]])

    def test_odd_dimensions_have_no_middle(self):
        for n in (1, 3, 5):
            q = quadric_cohomology(n)
            assert n not in q.cohomology
            for j in range(0, n):
                if 2 * j < n:
                    assert q.dim(2 * j) == 1
                    assert q.dim(2 * n - 2 * j) == 1

    def test_single_stratum_validates(self):
        for n in range(1, 6):
            data = DegenerationData(n, [quadric_cohomology(n)])
            assert validate_degeneration_data(data).ok

    def test_complementary_pairings_are_unimodular(self):
        q = quadric_cohomology(6)
        for deg in (0, 2, 4):
            assert q.pairing(deg) == ExactMatrix.identity(q.dim(deg))


def odd_resolution(l, rho, signs=(-1,)):
    return ResolutionData(3, l, signs=signs, rho=rho)


class TestOdpModelOdd:
    def test_minimal_model_graded_pieces(self):
        res = odd_resolution(1, ExactMatrix.zero(1, 0))
        data = odp_semistable_model(res)
        assert validate_degeneration_data(data).ok
        page = e2_page(data, 3)
        # one-dimensional graded pieces in weights 2 and 4
        assert page.dim(-1) == 1
        assert page.dim(1) == 1
        assert weight_criterion(data, 3).ok

    def test_no_relations_concentrates_weight(self):
        res = odd_resolution(2, ExactMatrix.identity(2))
        assert res.R == 0
        data = odp_semistable_model(res)
        assert validate_degeneration_data(data).ok
        for d in range(0, 7):
            page = e2_page(data, d)
            for r in range(-d, d + 1):
                if r != 0:
                    assert page.dim(r) == 0

    def test_no_double_points(self):
        res = odd_resolution(0, ExactMatrix.zero(0, 0), signs=(-1, 1))
        data = odp_semistable_model(res)
        assert validate_degeneration_data(data).ok
        rep = nearby_hodge_index(data)
        assert rep.verdict
        assert rep.signature[1] == (1, 1)
        assert rep.signature[2] == (1, 1)

    def test_relation_entries_are_shared_scalars(self):
        # the workloads keep every generated model, so a model holds the
        # shared small scalars, not a fresh negated copy per relation entry
        rho = M([[1, -1], [-1, 0], [0, 1]])
        data = odp_semistable_model(odd_resolution(3, rho))
        for maps in (data.gysin, data.restriction):
            for A in maps.values():
                for row in A.entries:
                    for e in row:
                        if not e.is_zero():
                            assert GaussianScalar.coerce(e.re) is e

    @pytest.mark.parametrize("l,rho_cols", [(1, 0), (2, 1), (3, 1), (3, 3)])
    def test_two_path_index_agreement(self, l, rho_cols):
        rows = [[1 if t == i % max(rho_cols, 1) else 0 for t in range(rho_cols)]
                for i in range(l)]
        rho = ExactMatrix.from_rational(rows) if rho_cols else ExactMatrix.zero(l, 0)
        res = odd_resolution(l, rho, signs=(-1, -1))
        data = odp_semistable_model(res)
        assert validate_degeneration_data(data).ok
        rep = nearby_hodge_index(data)
        assert rep.verdict and not rep.failures
        assert rep.signature == odp_index_formula(OdpInput.from_resolution(res))


class TestOdpModelEven:
    @pytest.mark.parametrize("l,signs", [(1, (1, 1, -1)), (2, (1,)), (3, ())])
    def test_two_path_index_agreement(self, l, signs):
        res = ResolutionData(4, l, vhat_signs=signs)
        data = odp_semistable_model(res)
        assert validate_degeneration_data(data).ok
        rep = nearby_hodge_index(data)
        assert rep.verdict and not rep.failures
        assert rep.signature == odp_index_formula(OdpInput.from_resolution(res))

    def test_criterion_trivial_at_middle(self):
        # the double loci are odd-dimensional quadrics with no middle
        # cohomology, so nothing can obstruct the criterion at degree m
        res = ResolutionData(4, 1, vhat_signs=(1,))
        data = odp_semistable_model(res)
        crit = weight_criterion(data, 4)
        assert crit.ok
        assert all(crit.per_r.values())


def test_models_of_one_shape_share_their_fixed_maps():
    # a caller that keeps many generated models keeps one copy per shape of
    # the maps that read neither rho nor a sign
    a = odp_semistable_model(odd_resolution(3, M([[1], [0], [-1]]), signs=(1,)))
    b = odp_semistable_model(odd_resolution(3, M([[0], [1], [1]]), signs=(-1, 1)))
    for key in ((1, 0), (1, 4)):
        assert a.gysin[key] is b.gysin[key] and a.restriction[key] is b.restriction[key]
    assert a.strata[2].pairing(2) is b.strata[2].pairing(2)
    assert a.gysin[(1, 2)] != b.gysin[(1, 2)]
    c, d = (odp_semistable_model(ResolutionData(4, 3, vhat_signs=s)) for s in ((1, -1), (-1, 1)))
    assert all(c.gysin[k] is d.gysin[k] and c.restriction[k] is d.restriction[k] for k in c.gysin)
    assert c.strata[1].pairing(4) != d.strata[1].pairing(4)


@pytest.mark.parametrize("res", [
    ResolutionData(3, 3, signs=(1,), rho=M([[1], [0], [-1]])),
    ResolutionData(4, 3, vhat_signs=(1, -1)),
], ids=["odd", "even"])
def test_quadric_nodes_are_copies_of_quadric_cohomology(res, monkeypatch):
    # the depth-2 stratum is l copies of the quadric (m-1)-fold: its types
    # repeat per quadric and its pairings are block diagonal
    geomodels._odp_skeleton.cache_clear()
    calls = []
    quadric = geomodels.quadric_cohomology
    monkeypatch.setattr(geomodels, "quadric_cohomology",
                        lambda n: calls.append(n) or quadric(n))
    quads = odp_semistable_model(res).strata[2]
    assert calls == [res.m - 1]
    Q = quadric(res.m - 1)
    assert sorted(quads.cohomology) == sorted(Q.cohomology)
    zero = GaussianScalar(0)
    for q in Q.cohomology:
        assert quads.types(q) == Q.types(q) * res.l
        P, n = Q.pairing(q), Q.dim(q)
        assert quads.pairing(q) == ExactMatrix([
            [P.entries[j % n][k % n] if j // n == k // n else zero for k in range(res.l * n)]
            for j in range(res.l * n)])


class TestOdpIndexFormula:
    def test_odd_adds_relations_at_adjacent_rows(self):
        inp = OdpInput(3, 3, R=2, table={1: (5, 0), 2: (5, 0)})
        out = odp_index_formula(inp)
        assert out[2] == (7, 0)
        assert out[1] == (7, 0)
        assert out[0] == (0, 0)

    def test_even_replaces_middle_row(self):
        inp = OdpInput(4, 3, vhat=(4, 0), table={2: (9, 9), 1: (2, 1)})
        out = odp_index_formula(inp)
        assert out[2] == (7, 0)
        assert out[1] == (2, 1)

    def test_no_double_points_passthrough(self):
        table = {1: (3, 2), 2: (3, 2)}
        inp = OdpInput(3, 0, R=0, table=table)
        out = odp_index_formula(inp)
        for k, row in table.items():
            assert out[k] == row


class TestKahlerIndexFormula:
    def test_k3(self):
        k3 = k3_hodge_numbers()
        assert kahler_index_formula(k3, 2, 1) == (19, 1)
        assert kahler_index_formula(k3, 2, 2) == (1, 0)
        assert kahler_index_formula(k3, 2, 0) == (1, 0)
        assert full_signature(k3, 2) == -16

    def test_row_sums_match_hodge_numbers(self):
        k3 = k3_hodge_numbers()
        for p in range(0, 3):
            plus, minus = kahler_index_formula(k3, 2, p)
            assert plus + minus == k3.get((p, 2 - p), 0)

    def test_consistency_with_full_signature(self):
        # the alternating sum of the middle rows recovers the cup-product
        # signature: duality folds the off-middle Hodge numbers into the
        # telescoping chains
        k3 = k3_hodge_numbers()
        middle = sum(
            (-1) ** p * (lambda s: s[0] - s[1])(kahler_index_formula(k3, 2, p))
            for p in range(0, 3)
        )
        assert middle == full_signature(k3, 2)

    def test_quintic_threefold(self):
        # odd middle cohomology is entirely primitive, so each row is
        # definite
        hodge = {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1,
                 (3, 0): 1, (0, 3): 1, (2, 1): 101, (1, 2): 101}
        assert kahler_index_formula(hodge, 3, 2) == (101, 0)
        assert kahler_index_formula(hodge, 3, 3) == (1, 0)

    def test_non_admissible_chain_rejected(self):
        hodge = {(0, 0): 3, (1, 1): 1, (2, 2): 3, (2, 0): 0, (0, 2): 0}
        with pytest.raises(ValueError):
            kahler_index_formula(hodge, 2, 1)


class TestLefschetz:
    def test_rational_elliptic_surface(self):
        assert lefschetz_middle_betti(schoen_input(), 1) == 10

    def test_schoen_readings(self):
        readings = fiber_product_readings(schoen_input())
        assert readings["symmetric"] == 19
        assert readings["printed"] == 31

    def test_schoen_dim_check(self):
        chk = fiber_product_dim_check(schoen_input())
        assert chk["ok"]
        assert chk["fiber_product"] == chk["tensor_ring"] == 19

    def test_negative_middle_rejected(self):
        inp = LefschetzInput(2, 2, 0, 0, [1, 4, 1], [1, 4, 1], 4, 4)
        with pytest.raises(ValueError):
            lefschetz_middle_betti(inp, 1)

    def test_random_dim_checks(self):
        rng = random.Random(20260826)

        def betti(m):
            n = m - 1
            half = [rng.randint(0, 9) for _ in range(n)]
            return half + [rng.randint(0, 9)] + half[::-1]

        for _ in range(50):
            m1 = rng.choice([2, 3, 4])
            m2 = rng.choice([2, 3, 4])
            b1, b2 = betti(m1), betti(m2)
            inp = LefschetzInput(
                m1, m2, rng.randint(40, 80), rng.randint(40, 80), b1, b2,
                rng.randint(0, b1[m1 - 1]), rng.randint(0, b2[m2 - 1]),
                van_b1=rng.randint(0, 9), van_b2=rng.randint(0, 9))
            assert fiber_product_dim_check(inp)["ok"]

    @pytest.mark.parametrize("m1,m2", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_symbolic_identity(self, m1, m2):
        def betti(m, tag):
            n = m - 1
            half = [sympy.Symbol(f"b{tag}{k}") for k in range(n)]
            return half + [sympy.Symbol(f"b{tag}m")] + half[::-1]

        d1, d2, v1, v2, w1, w2 = sympy.symbols("d1 d2 v1 v2 w1 w2")
        inp = LefschetzInput(m1, m2, d1, d2, betti(m1, "1"), betti(m2, "2"),
                             v1, v2, van_b1=w1, van_b2=w2)
        sym = fiber_product_readings(inp)["symmetric"]
        total = m1 + m2
        bB1, bX1, bXt1 = _derived_betti(inp, 1)
        bB2, bX2, bXt2 = _derived_betti(inp, 2)
        tensor = (
            _kunneth(bXt1, bXt2, total - 2)
            - _kunneth(bB1, bB2, total - 6)
            - _kunneth(bB1, bX2, total - 4)
            - _kunneth(bX1, bB2, total - 4)
            + _kunneth(bB1, bB2, total - 4)
            - w1 * w2
        )
        assert sympy.expand(sym - tensor) == 0

    def test_no_vanishing_reduces_to_kunneth(self):
        inp = LefschetzInput(2, 3, 5, 7, [1, 2, 1], [1, 0, 4, 0, 1],
                             0, 0, van_b1=0, van_b2=0)
        value = fiber_product_readings(inp)["symmetric"]
        expected = (_kunneth(inp.betti1, inp.betti2, 3)
                    + _kunneth(inp.betti1, inp.betti2, 1)
                    + inp.d1 * inp.betti2[1] + inp.d2 * inp.betti1[0])
        assert value == expected


class TestSanoTable:
    def test_closed_forms(self):
        assert sano_negative_count(5, 1) == 277
        assert sano_negative_count(4, 1) == 2
        assert sano_negative_count(6, 1) == 3
        assert sano_negative_count(7, 5) == 0
        assert sano_negative_count(11, 2) == 0
        assert sano_negative_count(9, 1) == 9 * 30 + 7

    def test_table_placement(self):
        tab = sano_index_table(5, 1)
        assert {k for k, v in tab.items() if v["negative"]} == {2, 3}
        tab = sano_index_table(4, 1)
        assert {k for k, v in tab.items() if v["negative"]} == {2}
        tab = sano_index_table(7, 3)
        assert all(v["negative"] == 0 for v in tab.values())
        tab = sano_index_table(8, 2)
        assert {k for k, v in tab.items() if v["negative"]} == {4}
        assert tab[4]["negative"] == 4

    def test_row_sums_with_declared_hodge(self):
        hodge = {k: 300 for k in range(0, 6)}
        tab = sano_index_table(5, 1, hodge=hodge)
        for k, row in tab.items():
            assert row["positive"] + row["negative"] == hodge[k]
        assert tab[2] == {"negative": 277, "positive": 23}


class TestHashimotoSano:
    def test_small_case(self):
        fx = hashimoto_sano_pic_fixture(1)
        assert fx["matrix"] == M([[1, 2, 6], [0, -1, -2], [0, 2, 3]])
        assert fx["det"] == 1
        assert fx["unimodular"]
        assert fx["form_preserved"]
        assert fx["composite_rank"] == 3
        assert fx["ok"]

    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_family(self, a):
        fx = hashimoto_sano_pic_fixture(a)
        assert fx["ok"]
        assert fx["det"] == 1
        G = fx["form"]
        Mm = fx["matrix"]
        assert (Mm.transpose() @ G @ Mm) == G


class TestO16:
    def test_zero_defect_polarized(self):
        rep = o16_evaluator(0, {1: (5, 0), 2: (5, 0)})
        assert rep["verdict"]
        assert rep["polarized"]
        assert rep["criterion_gap"] == 0
        assert rep["gr4_dim"] == 6

    def test_positive_defect_fails(self):
        rep = o16_evaluator(2, {1: (5, 0), 2: (5, 0)})
        assert not rep["verdict"]
        assert rep["criterion_gap"] == 2
        assert rep["gr4_dim"] == 4
        assert not rep["polarized"]

    def test_unpolarized_passthrough(self):
        rep = o16_evaluator(0, {1: (4, 1), 2: (4, 1)})
        assert rep["verdict"]
        assert not rep["polarized"]
        assert rep["table"][1] == (4, 1)


def test_library_makes_no_scalar_ring_arithmetic():
    """The generator, the orbit theorem, both ODP models through the index
    pipeline and the Picard fixture compute on integer rows and Fraction
    parts: GaussianScalar has no ring operators, so any scalar arithmetic
    would raise TypeError."""
    # the shared ODP skeletons are cached; clear them, so this test builds them
    geomodels._odp_skeleton.cache_clear()
    rng = random.Random(7)
    for polarized in (True, False):
        data, _ = random_polarized_mhs(rng, max_dim=10, max_d=4, polarized=polarized)
        assert verify_main_theorem(data).ok
    odd = odp_semistable_model(odd_resolution(3, M([[1], [0], [-1]]), signs=(1,)))
    even = odp_semistable_model(ResolutionData(4, 3, vhat_signs=(1, -1)))
    for model in (odd, even):
        assert nearby_hodge_index(model).ok
    assert hashimoto_sano_pic_fixture(2)["ok"]
