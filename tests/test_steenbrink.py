"""Tests for the weight spectral sequence: E1/E2 pages, the weight criterion,
psi pairings, E2 signature tables and limit MHS extraction."""

import json
import random
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from lmhs import exactlin, filtration, steenbrink
from lmhs.exactlin import (
    ContractError, ExactMatrix, GaussianScalar, Subspace, class_coordinates, image, kernel,
    quotient_reps, rank, solve,
)
from lmhs.filtration import weight_filtration
from lmhs.geomodels import ResolutionData, kahler_index_formula, odp_semistable_model
from lmhs.mhs import check_mhs, check_situation_a, check_situation_b
from lmhs.orbit import verify_main_theorem
from lmhs.signature import nearby_index_formula
from lmhs.steenbrink import (
    DegenerationData,
    StratumCohomology,
    _term_frame,
    _transport,
    _weight_criterion,
    d1_matrix,
    e1_summands,
    e2_page,
    e2_signature_table,
    extract_limit_mhs,
    nearby_hodge_index,
    psi_form,
    validate_degeneration_data,
    weight_criterion,
)
import support
from support import invert, passed_under_python_O, under_python_O

I = GaussianScalar(0, 1)
M = ExactMatrix.from_rational


def elliptic_smooth() -> DegenerationData:
    """Trivial degeneration: the central fiber is a single elliptic curve."""
    s = StratumCohomology(1, {
        0: {"types": [(0, 0)], "pairing": M([[1]])},
        1: {"types": [(1, 0), (0, 1)],
            "pairing": M([[0, 1], [-1, 0]]),
            "frame": ExactMatrix([[GaussianScalar(1), GaussianScalar(1)],
                                  [I, I.conj()]])},
        2: {"types": [(1, 1)], "pairing": M([[1]])},
    })
    return DegenerationData(1, [s])


def cycle_degeneration() -> DegenerationData:
    """Elliptic curve degenerating to a cycle of two lines meeting in two
    points.  The limit is Hodge-Tate with one-dimensional graded pieces in
    weights 0 and 2."""
    lines = StratumCohomology(1, {
        0: {"types": [(0, 0)] * 2, "pairing": ExactMatrix.identity(2)},
        2: {"types": [(1, 1)] * 2, "pairing": ExactMatrix.identity(2)},
    })
    points = StratumCohomology(2, {
        0: {"types": [(0, 0)] * 2, "pairing": ExactMatrix.identity(2)},
    })
    gysin = {(1, 0): M([[-1, -1], [1, 1]])}
    restriction = {(1, 0): M([[-1, 1], [-1, 1]])}
    return DegenerationData(1, [lines, points], gysin, restriction)


def kodaira_degeneration() -> DegenerationData:
    """Degeneration of Hopf surfaces: two ruled components glued along two
    elliptic curves.  The weight criterion fails in degree 1."""
    surfaces = StratumCohomology(1, {
        0: {"types": [(0, 0)] * 2, "pairing": ExactMatrix.identity(2)},
        2: {"types": [(1, 1)] * 4,
            "pairing": M([[-2, 1, 0, 0], [1, 0, 0, 0],
                          [0, 0, -2, 1], [0, 0, 1, 0]])},
        4: {"types": [(2, 2)] * 2, "pairing": ExactMatrix.identity(2)},
    })
    zero = GaussianScalar(0)
    one = GaussianScalar(1)
    curves = StratumCohomology(2, {
        0: {"types": [(0, 0)] * 2, "pairing": ExactMatrix.identity(2)},
        1: {"types": [(1, 0), (0, 1)] * 2,
            "pairing": M([[0, 1, 0, 0], [-1, 0, 0, 0],
                          [0, 0, 0, 1], [0, 0, -1, 0]]),
            "frame": ExactMatrix([[one, one, zero, zero],
                                  [I, I.conj(), zero, zero],
                                  [zero, zero, one, one],
                                  [zero, zero, I, I.conj()]])},
        2: {"types": [(1, 1)] * 2, "pairing": ExactMatrix.identity(2)},
    })
    gysin = {
        (1, 0): M([[-1, -1], [0, -2], [1, 1], [2, 0]]),
        (1, 2): M([[-1, -1], [1, 1]]),
    }
    restriction = {
        (1, 0): M([[-1, 1], [-1, 1]]),
        (1, 2): M([[2, -1, 0, 1], [0, -1, -2, 1]]),
    }
    return DegenerationData(2, [surfaces, curves], gysin, restriction)


ALL_FIXTURES = [elliptic_smooth, cycle_degeneration, kodaira_degeneration]


def curve_frame(a, b) -> ExactMatrix:
    """Frame of an H^1 with types [(1,0), (0,1)]: columns a and conj(a),
    given by the real and imaginary parts a = (a0, a1), b = (b0, b1)."""
    col = [GaussianScalar(a[0], b[0]), GaussianScalar(a[1], b[1])]
    return ExactMatrix.from_columns([col, [e.conj() for e in col]])


def framed_maps_degeneration() -> DegenerationData:
    """Shapes only, not a valid degeneration: surfaces, curves and points,
    with framed H^1 and H^3 on the surfaces and framed H^1 and H^2 on the
    curves.  A restriction and a Gysin map join framed H^1s to a framed H^3,
    and the curves' H^2 is the target of both a restriction and a Gysin
    map, so every framed map changes under the frames."""
    curve = [(1, 0), (0, 1)]
    surfaces = StratumCohomology(1, {
        1: {"types": curve, "frame": curve_frame((1, 0), (0, 1))},
        2: {"types": [(1, 1)]},
        3: {"types": [(2, 1), (1, 2)], "frame": curve_frame((1, 2), (1, -1))},
    })
    curves = StratumCohomology(2, {
        1: {"types": curve, "frame": curve_frame((2, 1), (1, 0))},
        2: {"types": [(1, 1)], "frame": M([[2]])},
    })
    points = StratumCohomology(3, {0: {"types": [(0, 0)]}})
    gysin = {(1, 1): M([[1, 0], [1, 1]]), (2, 0): M([[3]])}
    restriction = {(1, 1): M([[1, 2], [0, 1]]), (1, 2): M([[5]])}
    return DegenerationData(2, [surfaces, curves, points], gysin, restriction)


class TestValidation:
    def test_fixtures_valid(self):
        for build in ALL_FIXTURES:
            rep = validate_degeneration_data(build())
            assert rep.ok, rep.failures

    @pytest.mark.parametrize("m", [1, 0], ids=["degree-out-of-range", "stratum-too-deep"])
    def test_unchecked_frame_frames_no_map(self, m):
        # a frame that validation never checks, at a degree out of range or
        # on a stratum deeper than m + 1, is not inverted for a map through it
        singular = M([[1, 1], [1, 1]])
        strata = [StratumCohomology(depth, {3: {"types": [(2, 1), (1, 2)], "frame": singular}})
                  for depth in (1, 2)]
        data = DegenerationData(m, strata, restriction={(1, 3): ExactMatrix.identity(2)})
        failures = validate_degeneration_data(data).failures
        assert failures and not any(f.startswith("restriction") for f in failures)

    def test_degenerate_pairing_rejected(self):
        s = StratumCohomology(1, {
            0: {"types": [(0, 0)], "pairing": M([[1]])},
            2: {"types": [(1, 1)], "pairing": M([[0]])},
        })
        rep = validate_degeneration_data(DegenerationData(1, [s]))
        assert any("degenerate pairing" in f for f in rep.failures)

    def test_missing_frame_rejected(self):
        s = StratumCohomology(1, {
            0: {"types": [(0, 0)], "pairing": M([[1]])},
            1: {"types": [(1, 0), (0, 1)], "pairing": M([[0, 1], [-1, 0]])},
            2: {"types": [(1, 1)], "pairing": M([[1]])},
        })
        rep = validate_degeneration_data(DegenerationData(1, [s]))
        assert any("frame required" in f for f in rep.failures)

    def test_bad_type_sum_rejected(self):
        s = StratumCohomology(1, {
            0: {"types": [(0, 1)], "pairing": M([[1]])},
            2: {"types": [(1, 1)], "pairing": M([[1]])},
        })
        rep = validate_degeneration_data(DegenerationData(1, [s]))
        assert any("does not sum" in f for f in rep.failures)

    def test_broken_adjointness_rejected(self):
        data = cycle_degeneration()
        data.gysin[(1, 0)] = M([[-1, -2], [1, 1]])
        rep = validate_degeneration_data(data)
        assert any("adjointness" in f for f in rep.failures)

    def test_broken_d1_square_rejected(self):
        data = kodaira_degeneration()
        data.restriction[(1, 2)] = M([[2, -1, 0, 1], [1, -1, -2, 1]])
        rep = validate_degeneration_data(data)
        assert any("d1 o d1" in f for f in rep.failures)
        # unvalidated, the page of the composite's target names the term
        # whose incoming d1 image leaves the kernel, built alone or with the
        # boundary spaces handed on by the page before
        for build in (lambda: e2_page(data, 2), lambda: nearby_hodge_index(data)):
            with pytest.raises(AssertionError,
                               match="^d1 image escapes kernel at degree 2, column 0$"):
                build()

    def test_incoming_column_outside_term_sectors_rejected(self):
        # unvalidated: a restriction sends the surfaces' (2,0) class onto the
        # curves' (1,1) class.  The target term has no (2,0) sector, so only a
        # check of every incoming column, not just those of the sectors the
        # term shares, sees the break.  The page of degree 3 reads the map
        # as the outgoing d1 of the term at degree 2, column 0, which it
        # names, as the pipeline does
        surfaces = StratumCohomology(1, {2: {"types": [(2, 0), (1, 1), (0, 2)]}})
        curves = StratumCohomology(2, {2: {"types": [(1, 1)]}})
        data = DegenerationData(2, [surfaces, curves], restriction={(1, 2): M([[1, 0, 0]])})
        for build in (lambda: e2_page(data, 3), lambda: nearby_hodge_index(data)):
            with pytest.raises(AssertionError,
                               match="^d1 violates type sectors at degree 2, column 0$"):
                build()

    def test_shift_leaving_target_kernel_rejected(self):
        # a corrupted page: the identity as the outgoing d1 block of every
        # sector of E2^(1,0) keeps no class of it, so nu^1 of the cycle's
        # degree-1 page, an isomorphism, takes its classes out of the kernel
        page = e2_page(cycle_degeneration(), 1)
        target = page.term(-1)
        for sec, cols in target.sector_cols.items():
            target.sector_d1[sec] = ExactMatrix.identity(len(cols))
        with pytest.raises(AssertionError,
                           match=r"^shift map fails to descend to E2 at degree 1, r=1$"):
            _weight_criterion(page)

    CONTRACT_TESTS = under_python_O(__file__, [
        "TestValidation::test_broken_d1_square_rejected",
        "TestValidation::test_incoming_column_outside_term_sectors_rejected",
        "TestValidation::test_shift_leaving_target_kernel_rejected",
    ])

    def test_contract_errors_survive_python_O(self):
        # the three contract tests above raise ContractError, which python -O
        # keeps, where an assert statement would be skipped
        passed, output = passed_under_python_O()
        assert set(self.CONTRACT_TESTS) <= passed, output

    def test_json_round_trip(self):
        for build in ALL_FIXTURES:
            data = build()
            blob = json.loads(json.dumps(data.to_json()))
            data2 = DegenerationData.from_json(blob)
            assert validate_degeneration_data(data2).ok
            assert data2.to_json() == data.to_json()


def reference_conj_permutation(frame: ExactMatrix, types: list) -> list | None:
    """sigma by a search over the columns: sigma(j) is the first column k
    equal to the conjugate of column j with the swapped type."""
    cols = [(frame.column(j), tuple(types[j])) for j in range(frame.cols)]
    sigma = []
    for col, (a, b) in cols:
        want = ([e.conj() for e in col], (b, a))
        sigma.append(next((k for k, key in enumerate(cols) if key == want), None))
    return None if None in sigma else sigma


def random_frame(rng: random.Random) -> tuple[ExactMatrix, list]:
    """A frame whose columns come from a few Gaussian columns and their
    conjugates, with types (1,0), (0,1) or (1,1): some columns pair up,
    some repeat, and some have no conjugate partner."""
    n = rng.randint(0, 4)
    parts = (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2))
    entry = lambda: GaussianScalar(rng.choice(parts), rng.choice(parts))
    pool = [[entry() for _ in range(n)] for _ in range(3)]
    pool += [[e.conj() for e in col] for col in pool]
    cols = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
    types = [rng.choice(((1, 0), (0, 1), (1, 1))) for _ in cols]
    return ExactMatrix.from_columns(cols, rows=n), types


def test_conj_permutation_builds_no_matrix(monkeypatch):
    """_conj_permutation matches conjugate columns on their stored integers:
    it agrees with a search over the columns on random frames, paired or
    not, and builds no matrix and no entries view."""
    rng = random.Random(20261020)
    cases = [random_frame(rng) for _ in range(400)]
    cases += [(framed_maps_degeneration().strata[1].frame(1), [(1, 0), (0, 1)]),
              (kodaira_degeneration().strata[2].frame(1), [(1, 0), (0, 1)] * 2)]
    assert all(F._entries is None for F, _ in cases)
    built = []
    new = exactlin._new
    monkeypatch.setattr(exactlin, "_new", lambda *args: built.append(args) or new(*args))
    got = [steenbrink._conj_permutation(F, types) for F, types in cases]
    assert built == [] and all(F._entries is None for F, _ in cases)
    want = [reference_conj_permutation(F, types) for F, types in cases]
    assert got == want and None in want and any(want)


def e1_dim(data: DegenerationData, d: int, r: int) -> int:
    """dim E1^{-r, d+r}, the sum of its summands."""
    return sum(s.dim for s in e1_summands(data, d, r))


class TestPages:
    def test_smooth_e1_is_single_column(self):
        data = elliptic_smooth()
        for d in range(0, 3):
            assert [e1_dim(data, d, r) for r in range(-d, d + 1)] == [
                [1, 2, 1][d] if r == 0 else 0 for r in range(-d, d + 1)]

    def test_cycle_e1_terms(self):
        data = cycle_degeneration()
        # H^0 of the two double points appears in columns r = -1 and r = 1
        assert e1_dim(data, 1, -1) == 2
        assert e1_dim(data, 1, 0) == 0
        assert e1_dim(data, 1, 1) == 2

    def test_d1_squares_to_zero(self):
        for build in ALL_FIXTURES:
            data = build()
            for d in range(0, 2 * data.m):
                for r in range(-d, d + 1):
                    M1 = d1_matrix(data, d, r)
                    M2 = d1_matrix(data, d + 1, r - 1)
                    if M1.cols and M2.rows:
                        assert (M2 @ M1).is_zero()

    def test_cycle_e2_dims(self):
        page = e2_page(cycle_degeneration(), 1)
        assert (page.dim(-1), page.dim(0), page.dim(1)) == (1, 0, 1)
        assert page.hodge_numbers() == {(0, 0): 1, (1, 1): 1}

    def test_kodaira_e2_dims_degree_one(self):
        page = e2_page(kodaira_degeneration(), 1)
        # graded pieces of the limit H^1 in weights 0, 1, 2
        assert (page.dim(-1), page.dim(0), page.dim(1)) == (1, 0, 0)
        assert page.hodge_numbers() == {(0, 0): 1}

    def test_kodaira_euler_characteristics(self):
        # E2 Euler characteristics agree with the E1 page degree by degree
        data = kodaira_degeneration()
        for d in range(0, 5):
            p2 = e2_page(data, d)
            for r in range(-d, d + 1):
                out_rk = rank(d1_matrix(data, d, r))
                in_rk = rank(d1_matrix(data, d - 1, r + 1))
                assert p2.dim(r) == e1_dim(data, d, r) - out_rk - in_rk


class TestWeightCriterion:
    def test_smooth_always_holds(self):
        data = elliptic_smooth()
        for d in range(0, 3):
            assert weight_criterion(data, d).ok

    def test_cycle_holds(self):
        data = cycle_degeneration()
        for d in range(0, 3):
            assert weight_criterion(data, d).ok

    def test_kodaira_fails_at_r_one(self):
        crit = weight_criterion(kodaira_degeneration(), 1)
        assert crit.per_r == {0: True, 1: False}
        assert not crit.ok

    def test_kodaira_middle_degree_holds(self):
        assert weight_criterion(kodaira_degeneration(), 2).ok


def transport_matrix(src, tgt) -> ExactMatrix:
    """The matrix of the identity transport from src to tgt."""
    return _transport(src, tgt, ExactMatrix.identity(sum(s.dim for s in src)))


class TestPsi:
    def test_blocks_pair_complementary_dims(self):
        for build in ALL_FIXTURES:
            data = build()
            m = data.m
            for d in range(0, 2 * m + 1):
                psi = psi_form(data, d)
                for r, P in psi.items():
                    assert P.rows == e1_dim(data, d, r)
                    assert P.cols == e1_dim(data, 2 * m - d, -r)

    def test_shift_adjointness(self):
        # psi_r(nu x, y) = -psi_{r+2}(x, nu y)
        for build in ALL_FIXTURES:
            data = build()
            m = data.m
            for d in range(0, 2 * m + 1):
                psi = psi_form(data, d)
                for r in range(-d, d - 1):
                    src = e1_summands(data, d, r + 2)
                    tgt = e1_summands(data, d, r)
                    T_src = transport_matrix(src, tgt)
                    du = 2 * m - d
                    T_tgt = transport_matrix(
                        e1_summands(data, du, -r), e1_summands(data, du, -r - 2)
                    )
                    lhs = T_src.transpose() @ psi[r]
                    rhs = psi[r + 2] @ T_tgt
                    assert (lhs.rows, lhs.cols) == (rhs.rows, rhs.cols)
                    assert lhs == -rhs

    def test_middle_symmetry(self):
        # psi_r = (-1)^m psi_{-r}^T at middle degree, which makes the
        # extracted pairing (-1)^m-symmetric
        for build in ALL_FIXTURES:
            data = build()
            m = data.m
            psi = psi_form(data, m)
            sign = GaussianScalar(-1 if m % 2 else 1)
            for r in range(-m, m + 1):
                assert psi[r] == psi[-r].transpose().scale(sign)


class TestSignatureTable:
    def test_smooth_elliptic(self):
        table = e2_signature_table(elliptic_smooth())
        assert table.entries == {(0, 1): (1, 0), (1, 0): (1, 0)}
        assert nearby_index_formula(table, 0) == (1, 0)
        assert nearby_index_formula(table, 1) == (1, 0)

    def test_cycle(self):
        table = e2_signature_table(cycle_degeneration())
        assert table.entries == {(1, 1): (1, 0)}
        assert table.part_dims == {(0, 0): 1, (1, 1): 1}
        assert nearby_index_formula(table, 0) == (1, 0)
        assert nearby_index_formula(table, 1) == (1, 0)

    def test_kodaira(self):
        table = e2_signature_table(kodaira_degeneration())
        assert table.entries == {(1, 2): (2, 0), (2, 1): (2, 0)}

    def test_requires_criterion(self):
        # degree-2 weight criterion is needed; Kodaira passes it, but a
        # fixture that fails at middle degree must be rejected
        data = kodaira_degeneration()
        assert weight_criterion(data, data.m).ok  # guard for the fixture above


class TestExtraction:
    def test_smooth_is_pure(self):
        lim = extract_limit_mhs(elliptic_smooth(), 1)
        assert lim.ambient_dim == 2
        assert lim.N.is_zero()
        assert check_mhs(lim).ok
        assert check_situation_a(lim)
        assert check_situation_b(lim)

    def test_cycle_hodge_tate(self):
        lim = extract_limit_mhs(cycle_degeneration(), 1)
        assert lim.ambient_dim == 2
        assert not lim.N.is_zero()
        assert (lim.N @ lim.N).is_zero()
        assert lim.W == weight_filtration(lim.N, 1)
        assert check_mhs(lim).ok
        assert check_situation_a(lim)
        assert check_situation_b(lim)

    def test_cycle_orbit_cross_check(self):
        # the orbit machinery on the extracted model reproduces the E2
        # signature aggregation
        lim = extract_limit_mhs(cycle_degeneration(), 1)
        rep = verify_main_theorem(lim)
        assert rep.ok, rep.failures
        assert rep.details["polarized"]
        table = e2_signature_table(cycle_degeneration())
        for p in (0, 1):
            assert rep.details["pieces"][p] == nearby_index_formula(table, p)

    def test_smooth_orbit_cross_check(self):
        lim = extract_limit_mhs(elliptic_smooth(), 1)
        rep = verify_main_theorem(lim)
        assert rep.ok, rep.failures
        assert rep.details["polarized"]
        assert rep.details["pieces"] == {0: (1, 0), 1: (1, 0)}

    def test_kodaira_degree_one(self):
        lim = extract_limit_mhs(kodaira_degeneration(), 1)
        assert lim.ambient_dim == 1
        assert lim.F.at(1).dim == 0  # h^{1,0} = 0
        assert lim.F.at(0).dim == 1  # h^{0,1} = 1
        assert lim.S is None
        assert check_mhs(lim).ok

    @pytest.mark.parametrize("d", [1, 5])
    def test_empty_cohomology_is_the_zero_structure(self, d):
        # odp_m3 has H^1 = H^5 = 0: the limit there is the zero structure
        lim = extract_limit_mhs(json_fixture("odp_m3.json")(), d)
        assert (lim.ambient_dim, lim.d, lim.N.rows, lim.S) == (0, d, 0, None)
        assert check_mhs(lim).ok

    def test_off_middle_has_no_pairing(self):
        lim = extract_limit_mhs(cycle_degeneration(), 2)
        assert lim.S is None
        assert lim.ambient_dim == 1


class TestIndexReport:
    def test_smooth(self):
        rep = nearby_hodge_index(elliptic_smooth())
        assert rep.ok
        assert rep.verdict
        assert rep.signature == {0: (1, 0), 1: (1, 0)}

    def test_cycle(self):
        rep = nearby_hodge_index(cycle_degeneration())
        assert rep.ok
        assert rep.verdict
        assert rep.signature == {0: (1, 0), 1: (1, 0)}
        assert rep.per_degree[1]["hodge"] == {(0, 0): 1, (1, 1): 1}

    def test_kodaira(self):
        rep = nearby_hodge_index(kodaira_degeneration())
        assert not rep.verdict
        assert not rep.per_degree[1]["criterion"][1]
        assert rep.per_degree[1]["hodge"] == {(0, 0): 1}
        # the middle-degree criterion still holds, so a table is produced
        assert rep.table is not None
        assert rep.signature == {0: (2, 0), 1: (4, 0), 2: (2, 0)}
        assert not rep.failures

    def test_json_serializable(self):
        rep = nearby_hodge_index(cycle_degeneration())
        blob = json.loads(json.dumps(rep.to_json()))
        assert blob["ddbar_verdict"] is True
        assert {"m", "degrees", "failures"} <= set(blob)


class TestPageBuilds:
    """Each pipeline builds every E2 page it reads exactly once, and
    nearby_hodge_index reads only the pages of degree 0..m."""

    @pytest.fixture
    def built(self, monkeypatch):
        degrees = []
        original = steenbrink.e2_page

        def counting(data, d, maps=None):
            degrees.append(d)
            return original(data, d, maps)

        monkeypatch.setattr(steenbrink, "e2_page", counting)
        return degrees

    @pytest.mark.parametrize("build", ALL_FIXTURES)
    def test_nearby_hodge_index_one_page_per_degree(self, build, built):
        data = build()
        nearby_hodge_index(data)
        assert sorted(built) == list(range(data.m + 1))

    @pytest.mark.parametrize("build", ALL_FIXTURES)
    def test_signature_table_one_page(self, build, built):
        data = build()
        e2_signature_table(data)
        assert built == [data.m]


def reframed_cycle() -> DegenerationData:
    """cycle_degeneration with a real frame on the lines' H^0, which both of
    its maps touch, so its framed maps differ from its raw ones."""
    data = cycle_degeneration()
    lines = data.strata[1].cohomology
    lines = StratumCohomology(1, {**lines, 0: {**lines[0], "frame": M([[1, 1], [0, 1]])}})
    return DegenerationData(data.m, [lines, data.strata[2]], data.gysin, data.restriction)


def seeded_odp_models(seed: int) -> list[DegenerationData]:
    """ODP models: m = 3 with symplectic pairs, whose framed H^3 no map
    touches, and m = 4, which has no frame."""
    rng = random.Random(seed)
    out = []
    for l in (2, 4):
        signs = tuple(rng.choice((1, -1)) for _ in range(2))
        while True:
            rho = M([[rng.choice((-1, 0, 1))] for _ in range(l)])
            if rank(rho) == 1:
                break
        out.append(odp_semistable_model(ResolutionData(3, l, signs=signs, rho=rho)))
    for l in (3, 5):
        signs = tuple(rng.choice((1, -1)) for _ in range(3))
        out.append(odp_semistable_model(ResolutionData(4, l, vhat_signs=signs)))
    return out


# the models of the `lmhs check` goldens: m = 3 with symplectic pairs, so
# with a framed H^3, and m = 4 without frames; l = 8 and l = 9 are the
# largest degen-odp cells
GOLDEN_ODP_MODELS = {
    "odp-m3-l6": ResolutionData(3, 6, signs=(-1, 1, -1), rho=M(
        [[1, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1], [1, 0, 1], [0, 1, -1]])),
    "odp-m4-l7": ResolutionData(4, 7, vhat_signs=(1, -1, 1)),
    "odp-m3-l8": ResolutionData(3, 8, signs=(1, -1, -1), rho=M(
        [[1, 0, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1],
         [1, 0, 1, 0], [0, 1, 0, -1], [1, -1, 0, 1]])),
    "odp-m4-l9": ResolutionData(4, 9, vhat_signs=(-1,)),
}


D1_INPUTS = ALL_FIXTURES + [reframed_cycle] + [
    (lambda i=i: seeded_odp_models(20261018)[i]) for i in range(4)
]
D1_IDS = [build.__name__ for build in ALL_FIXTURES] + [
    "reframed_cycle", "odp-m3-l2", "odp-m3-l4", "odp-m4-l3", "odp-m4-l5"]


@pytest.mark.parametrize("build", D1_INPUTS, ids=D1_IDS)
def test_pipeline_builds_no_scalar_view_of_its_input(build):
    """Validation and nearby_hodge_index read the integer rows of the
    input's matrices and never build their entries views, so a caller that
    keeps many inputs keeps only their integers."""
    data = build()
    inputs = [entry[key] for s in data.strata.values() for entry in s.cohomology.values()
              for key in ("pairing", "frame") if entry[key] is not None]
    inputs += [*data.gysin.values(), *data.restriction.values()]
    # shared matrices such as the identities may have a view from elsewhere
    unviewed = [A for A in inputs if A._entries is None]
    validate_degeneration_data(data)
    nearby_hodge_index(data)
    assert unviewed and all(A._entries is None for A in unviewed)


def json_fixture(name: str):
    return lambda: DegenerationData.from_json(
        json.loads(resources.files("lmhs").joinpath("fixtures", name).read_text()))


SCALAR_INPUTS = D1_INPUTS + [json_fixture("kodaira.json"), json_fixture("odp_m3.json")]
SCALAR_IDS = D1_IDS + ["kodaira.json", "odp_m3.json"]


@pytest.mark.parametrize("build", SCALAR_INPUTS, ids=SCALAR_IDS)
def test_pipeline_does_no_scalar_arithmetic(build):
    """Validation and nearby_hodge_index, the signature table included,
    compute on integer rows only: GaussianScalar has no ring operators, so
    any scalar arithmetic would raise TypeError."""
    data = build()
    assert validate_degeneration_data(data).ok
    nearby_hodge_index(data)


@pytest.mark.parametrize("build", D1_INPUTS, ids=D1_IDS)
def test_trivial_shapes_do_no_work(build, monkeypatch):
    """Validation and nearby_hodge_index eliminate no matrix without rows
    (kernel_modulo answers a sector block with no target without one), and
    build no E2Term without an E1 summand, such as any column past the
    deepest stratum, |r| >= max depth.  The report is the one the
    unwatched pipeline gives."""
    data = build()
    want = nearby_hodge_index(data).to_json()
    eliminated, built = [], []
    echelon, term = exactlin._echelon, steenbrink.E2Term

    def counting_echelon(M, reduced=True):
        eliminated.append(M.rows)
        return echelon(M, reduced)

    def counting_term(data, summands):
        built.append(summands)
        return term(data, summands)

    monkeypatch.setattr(exactlin, "_echelon", counting_echelon)
    monkeypatch.setattr(steenbrink, "E2Term", counting_term)
    assert validate_degeneration_data(data).ok
    assert nearby_hodge_index(data).to_json() == want
    assert eliminated and 0 not in eliminated
    assert built and all(built)


@pytest.mark.parametrize("name, matrices, full, eliminations", [
    ("odp-m3-l6", 56, 1, 12),
    ("odp-m4-l7", 36, 1, 12),
], ids=["odp-m3-l6", "odp-m4-l7"])
def test_golden_models_build_few_matrices(name, matrices, full, eliminations, monkeypatch):
    """Ceilings on the work of validation and nearby_hodge_index: the
    matrices built (exactlin._new), the full eliminations and all of them.
    Rank, image and kernel_modulo's choice of representatives stop at row
    echelon form, an E2 sector's classes are reduced in full only where
    they are read, and an operation whose result would equal its operand
    returns the operand, so none of these savings can regress unseen."""
    data = odp_semistable_model(GOLDEN_ODP_MODELS[name])
    counts = Counter()
    new, echelon = exactlin._new, exactlin._echelon

    def counting_new(*args):
        counts["matrices"] += 1
        return new(*args)

    def counting_echelon(M, reduced=True):
        counts["full" if reduced else "pivots only"] += 1
        return echelon(M, reduced)

    monkeypatch.setattr(exactlin, "_new", counting_new)
    monkeypatch.setattr(exactlin, "_echelon", counting_echelon)
    assert validate_degeneration_data(data).ok
    nearby_hodge_index(data)
    assert counts["matrices"] <= matrices
    assert counts["full"] <= full
    assert counts["full"] + counts["pivots only"] <= eliminations


@pytest.mark.parametrize("build", D1_INPUTS, ids=D1_IDS)
def test_one_hermitian_check_per_form(build, monkeypatch):
    """The signature table checks each primitive sector form once, in the
    reduction that reads its signature, and a form that is not Hermitian
    is named by its sector."""
    data = build()
    checked = []
    check = exactlin.hermitian_check
    monkeypatch.setattr(exactlin, "hermitian_check", lambda H: checked.append(H) or check(H))
    report = nearby_hodge_index(data)
    assert len(checked) == (len(report.table.entries) if report.table else 0)
    if report.table:
        # one more factor i makes every form skew-Hermitian
        monkeypatch.setattr(steenbrink, "i_power", lambda k: exactlin.i_power(k + 1))
        with pytest.raises(ContractError, match=r"^non-Hermitian form at sector \(\d+, \d+\)$"):
            nearby_hodge_index(data)


def framed_data(data: DegenerationData) -> DegenerationData:
    """data with every stratum map in frame coordinates, F_tgt^{-1} M F_src,
    each framed through the one framing closure of the module."""
    framed = steenbrink._frame_map(data)
    maps = {"gysin": {}, "restriction": {}}
    for kind, key, src, tgt, A in steenbrink._stratum_maps(data):
        maps[kind][key] = framed(A, src, tgt)
    return DegenerationData(data.m, data.strata.values(), maps["gysin"], maps["restriction"])


class TestD1Builds:
    """nearby_hodge_index enumerates and frames the stratum maps once per
    call, framing a map only when one of its ends has a frame.  It places
    one framed d1 per term of its pages and the term after it, cuts each
    sector block from it and eliminates that block once, pivots only: its
    rank gives the sector's dimension and its image the boundary space of
    the next page's sector, so no page reduces a block of its own.  A
    sector's block is reduced in full only where its classes are read."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = {"d1": [], "imaged": [], "reduced": [], "read": [], "other": [],
                 "enumerated": [], "framed": []}
        paging = []  # nonempty while a page is built

        def recording(name, fn, outside=None):
            # a call inside a page is "other", one outside it goes to outside
            def call(*args, **kwargs):
                if paging:
                    calls["other"].append(name)
                elif outside:
                    calls[outside].append(args[0])
                return fn(*args, **kwargs)
            return call

        for name in ("kernel", "d1_matrix"):
            monkeypatch.setattr(steenbrink, name, recording(name, getattr(steenbrink, name)))
        original_page, original_d1 = steenbrink.e2_page, steenbrink._SectorMaps.d1
        original_image, original_reps = steenbrink.image, steenbrink.E2Term.reps
        original_maps = steenbrink._stratum_maps
        original_frame = steenbrink._frame_map

        def page(*args):
            paging.append(True)
            try:
                return original_page(*args)
            finally:
                paging.pop()

        def d1(maps, src, tgt, d, r):
            M = original_d1(maps, src, tgt, d, r)
            at = next(key for key, term in maps.terms.items() if term is src)
            calls["d1"].append((at, src, tgt, M))
            return M

        def imaging(M):
            calls["imaged" if paging else "other"].append(M)
            return original_image(M)

        def reading(term, sec):
            calls["read"].append((term, sec))
            return original_reps(term, sec)

        def enumerate_maps(data):
            calls["enumerated"].append(data)
            return original_maps(data)

        def frame_map(data):
            framed = original_frame(data)

            def framing(A, src, tgt):
                calls["framed"].append((A, src, tgt, framed(A, src, tgt)))
                return calls["framed"][-1][-1]
            return framing

        monkeypatch.setattr(steenbrink, "e2_page", page)
        monkeypatch.setattr(steenbrink._SectorMaps, "d1", d1)
        monkeypatch.setattr(steenbrink, "image", imaging)
        monkeypatch.setattr(steenbrink.E2Term, "reps", reading)
        monkeypatch.setattr(steenbrink, "kernel_modulo", recording(
            "kernel_modulo", steenbrink.kernel_modulo, "reduced"))
        monkeypatch.setattr(steenbrink, "_stratum_maps", enumerate_maps)
        monkeypatch.setattr(steenbrink, "_frame_map", frame_map)
        return calls

    @pytest.mark.parametrize("build", D1_INPUTS, ids=D1_IDS)
    def test_each_raw_map_built_once(self, build, builds):
        # the stratum maps are enumerated and framed once; then one d1 from
        # every term of the pages 0..m with an E1 summand to the term after
        # it, each sector block of it, rows tgt.sector_cols[sec] and columns
        # src.sector_cols[sec], eliminated once, pivots only, if it has
        # rows, and no other elimination or d1 map in the pages; outside
        # them, one full reduction of a sector's block where its classes
        # are first read, and none where they are read again
        data = build()
        nearby_hodge_index(data)
        assert len(builds["enumerated"]) == 1
        pairs = Counter(at for at, *_ in builds["d1"])
        assert set(pairs.values()) == {1}
        assert set(pairs) == {(d, r) for d in range(data.m + 1) for r in range(-d, d + 1)
                              if e1_summands(data, d, r)}
        blocks = [M.take_rows(tgt.sector_cols.get(sec, [])).take_columns(cols)
                  for _, src, tgt, M in builds["d1"]
                  for sec, cols in sorted(src.sector_cols.items())]
        assert builds["imaged"] == [M for M in blocks if M.rows]
        assert builds["other"] == []
        first = list(dict.fromkeys((id(term), sec) for term, sec in builds["read"]))
        terms = {id(term): term for term, _ in builds["read"]}
        want = [terms[at].sector_d1[sec] for at, sec in first]
        assert len(builds["reduced"]) == len(want)
        assert all(M is block for M, block in zip(builds["reduced"], want))

    @pytest.mark.parametrize("build", D1_INPUTS, ids=D1_IDS)
    def test_framed_maps_only_when_framing_changes_a_map(self, build, builds):
        # every stratum map is framed once; one with no framed end is passed
        # on as the same object, and a framed one is F_tgt^{-1} M F_src
        data = build()
        nearby_hodge_index(data)
        raw = [A for kind in (data.gysin, data.restriction) for _, A in sorted(kind.items())]
        assert [id(A) for A, *_ in builds["framed"]] == [id(A) for A in raw]
        changed = [(A, src, tgt, T) for A, src, tgt, T in builds["framed"] if T is not A]
        if build is reframed_cycle:
            assert changed
            frame = lambda at: data.strata[at[0]].frame(at[1])
            for A, src, tgt, T in changed:
                assert T == invert(frame(tgt)) @ A @ frame(src)
        else:
            assert changed == []

    @pytest.mark.parametrize("build", D1_INPUTS, ids=D1_IDS)
    def test_pages_equal_standalone_pages(self, build, monkeypatch):
        data = build()
        pages = []
        original = steenbrink.e2_page

        def keeping(data, d, maps=None):
            pages.append(original(data, d, maps))
            return pages[-1]

        monkeypatch.setattr(steenbrink, "e2_page", keeping)
        nearby_hodge_index(data)
        assert [page.d for page in pages] == list(range(data.m + 1))
        for page in pages:
            alone = original(data, page.d)
            assert set(page.terms) == set(alone.terms)
            for r, term in page.terms.items():
                want = alone.terms[r]
                assert term.sector_cols == want.sector_cols, (page.d, r)
                assert term.sector_dims == want.sector_dims, (page.d, r)
                assert [term.reps(sec) for sec in term.sector_cols] == [
                    want.reps(sec) for sec in want.sector_cols], (page.d, r)
                assert {sec: B.basis for sec, B in term.sector_B.items()} == {
                    sec: B.basis for sec, B in want.sector_B.items()
                }, (page.d, r)


def raw_full_quotient(data: DegenerationData, d: int, r: int) -> tuple:
    """E2^{-r, d+r} as one quotient ker d1 / im d1 of the raw d1 maps, the
    way E2 terms were built before they became sums of sector quotients:
    (representatives, boundary space)."""
    B = image(d1_matrix(data, d - 1, r + 1))
    return quotient_reps(kernel(d1_matrix(data, d, r)), B), B


@pytest.mark.parametrize("build", D1_INPUTS, ids=D1_IDS)
def test_sector_sums_match_raw_full_quotients(build):
    # the reference: each term's dimension, and the rank of each nu^r
    # between the raw quotients
    data = build()
    for d in range(2 * data.m + 1):
        page = e2_page(data, d)
        raw = {r: raw_full_quotient(data, d, r) for r in page.terms}
        for r, term in page.terms.items():
            assert term.dim == raw[r][0].cols, (d, r)
        want = {}
        for r in range(d + 1):
            (src, _), (tgt, B) = raw[r], raw[-r]
            X = _transport(page.term(r).summands, page.term(-r).summands, src)
            want[r] = src.cols == tgt.cols and rank(class_coordinates(tgt, B, X)) == src.cols
        assert _weight_criterion(page).per_r == want, d


def induced_shift(page, r: int, s: int, sec) -> ExactMatrix | None:
    """nu^s on the sector sec of E2^{-r, d+r} in the sector class
    coordinates of both ends, from the moved classes of _shifted_classes
    (no rows where the target sector is empty); None if it fails to
    descend."""
    TX, tgt, tsec = steenbrink._shifted_classes(page, r, s, sec)
    if TX is None:
        return ExactMatrix.zero(0, page.term(r).sector_dims[sec])
    return class_coordinates(tgt.reps(tsec), tgt.sector_B[tsec], TX)


def class_coordinate_criterion(page) -> dict[int, bool]:
    """The weight criterion as it was read before it became a rank test:
    nu^r in the class coordinates of both ends (induced_shift), which must
    descend and have full rank on every sector of a nonzero source."""
    per_r = {0: True}
    for r in range(1, page.d + 1):
        same = page.dim(r) == page.dim(-r)
        shifts = [(n, induced_shift(page, r, r, sec))
                  for sec, n in page.term(r).sector_dims.items() if same and n]
        assert all(M is not None for _, M in shifts), (page.d, r)
        per_r[r] = same and all(rank(M) == n for n, M in shifts)
    return per_r


CRITERION_INPUTS = D1_INPUTS + [
    (lambda name=name: odp_semistable_model(GOLDEN_ODP_MODELS[name]))
    for name in ("odp-m3-l6", "odp-m4-l7")] + [
    lambda: support.product(kodaira_degeneration(), elliptic_smooth())]
CRITERION_IDS = D1_IDS + ["odp-m3-l6", "odp-m4-l7", "kodaira-E"]


@pytest.mark.parametrize("build", CRITERION_INPUTS, ids=CRITERION_IDS)
def test_rank_criterion_matches_class_coordinates(build):
    """Per (d, r), the rank test on [B | TX] and M TX = 0 gives the verdict
    of the class-coordinate formulation, on every page 0..2m, where the
    criterion holds and where it fails (Kodaira and Kodaira x E)."""
    data = build()
    verdicts = []
    for d in range(2 * data.m + 1):
        page = e2_page(data, d)
        got = _weight_criterion(page).per_r
        assert got == class_coordinate_criterion(page), d
        verdicts += got.values()
    assert all(verdicts) == (build not in (kodaira_degeneration, CRITERION_INPUTS[-1]))


@pytest.mark.parametrize("build", CRITERION_INPUTS, ids=CRITERION_IDS)
def test_classes_form_no_product(build, monkeypatch):
    """E2Term.reps forms no ExactMatrix product: its page has checked
    that each sector block kills the sector's boundary space, so reading
    the classes only eliminates the block and picks representatives, and
    they are those of the independent quotient_reps(kernel(block), B),
    byte for byte, on every sector of every page 0..2m."""
    data = build()
    sectors = [(term, sec) for d in range(2 * data.m + 1)
               for term in e2_page(data, d).terms.values() for sec in term.sector_cols]
    products, matmul = [], ExactMatrix.__matmul__
    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda A, B: products.append(1) or matmul(A, B))
    got = [term.reps(sec) for term, sec in sectors]
    assert products == []
    monkeypatch.undo()
    assert got == [quotient_reps(kernel(term.sector_d1[sec]), term.sector_B[sec])
                   for term, sec in sectors]


@pytest.mark.parametrize("build", [
    lambda: tetrahedron_degeneration(), lambda: seeded_odp_models(20261018)[0],
    lambda: odp_semistable_model(GOLDEN_ODP_MODELS["odp-m3-l6"]),
], ids=["tetrahedron", "odp-m3-l2", "odp-m3-l6"])
def test_kernel_modulo_call_sites_form_no_product(build, monkeypatch):
    """Each of kernel_modulo's three call sites already knows that M kills
    the lower space, so no ExactMatrix product is formed inside the call:
    E2Term.reps because its page checked M B = 0, extract_limit_mhs
    because it built that page first (in invertible frames), and
    _monodromy_offsets because im N^e lies in ker N^e when N^(2e) = 0.
    Every site is reached with a nonzero lower space and a matrix with
    rows, where a check would have to multiply."""
    products, matmul = [], ExactMatrix.__matmul__
    sites = Counter()

    def watched(M, lower):
        before = len(products)
        out = exactlin.kernel_modulo(M, lower)
        site = sys._getframe(1).f_code.co_name
        sites[site, "calls"] += bool(lower.dim and M.rows)
        sites[site, "products"] += len(products) - before
        return out

    monkeypatch.setattr(ExactMatrix, "__matmul__", lambda A, B: products.append(1) or matmul(A, B))
    monkeypatch.setattr(steenbrink, "kernel_modulo", watched)
    monkeypatch.setattr(filtration, "kernel_modulo", watched)
    data = build()
    for d in range(2 * data.m + 1):
        weight_filtration(extract_limit_mhs(data, d).N, d)
    for site in ("reps", "extract_limit_mhs", "_monodromy_offsets"):
        assert sites[site, "calls"] > 0, site
        assert sites[site, "products"] == 0, site
    assert {site for site, _ in sites} == {"reps", "extract_limit_mhs", "_monodromy_offsets"}


@pytest.mark.parametrize("models", [
    lambda: seeded_odp_models(7),
    lambda: seeded_odp_models(20261018),
    lambda: [triple_point_degeneration()],
    lambda: [tetrahedron_degeneration()],
], ids=["7", "20261018", "triple_point", "tetrahedron"])
def test_classes_built_only_where_read(models, monkeypatch):
    """nearby_hodge_index builds no class of column 0 (nu^0 is the
    identity) or of a negative column below the middle degree; the weight
    criterion alone builds classes of its source terms, r >= 1, only, and
    the signature table of its sources, r >= 0, only: none of their
    targets.  On the seeded ODP models nu^{r+1} has no target; on the
    triple point and the tetrahedron it lands in column -r-2."""
    pages, built = [], []
    page, reduce = steenbrink.e2_page, steenbrink.kernel_modulo

    def keeping(data, d, maps=None):
        pages.append(page(data, d, maps))
        return pages[-1]

    def reducing(M, lower):
        built.append(next((p.d, r) for p in pages for r, term in p.terms.items()
                          if any(B is M for B in term.sector_d1.values())))
        return reduce(M, lower)

    monkeypatch.setattr(steenbrink, "e2_page", keeping)
    monkeypatch.setattr(steenbrink, "kernel_modulo", reducing)
    for data in models():
        pages.clear(), built.clear()
        nearby_hodge_index(data)
        assert built and all(r >= 1 for d, r in built if d < data.m), built
        for d in range(data.m + 1):
            pages.clear(), built.clear()
            _weight_criterion(keeping(data, d))
            assert all(r >= 1 for _, r in built), (d, built)
        middle = pages[-1]
        built.clear()
        steenbrink._e2_signature_table(data, middle)
        assert built and all(r >= 0 for _, r in built), built


def direct_nearby_hodge_index(data: DegenerationData) -> steenbrink.IndexReport:
    """nearby_hodge_index the way it was computed before degrees m+1..2m
    were read off Poincaré duality: every page of degree 0..2m built
    directly, with its own d1 maps."""
    m = data.m
    failures, per_degree = [], {}
    verdict, middle = True, None
    for d in range(2 * m + 1):
        page = e2_page(data, d)
        crit = _weight_criterion(page)
        hodge = page.hodge_numbers()
        failures += [f"degree {d}: limit Hodge numbers not symmetric at ({p},{q})"
                     for (p, q), dim in hodge.items() if hodge.get((q, p), 0) != dim]
        per_degree[d] = {"criterion": crit.per_r, "hodge": hodge}
        verdict = verdict and crit.ok
        if d == m and crit.ok:
            middle = page
    table = signature = None
    if middle is not None:
        table = steenbrink._e2_signature_table(data, middle)
        signature = {}
        for p in range(m + 1):
            plus, minus = nearby_index_formula(table, p)
            signature[p] = (plus, minus)
            want = sum(dim for (a, _), dim in per_degree[m]["hodge"].items() if a == p)
            if plus + minus != want:
                failures.append(f"signature at p={p} sums to {plus + minus}, Hodge number is {want}")
    return steenbrink.IndexReport(m, verdict, per_degree, table, signature, failures)


def triple_point_degeneration() -> DegenerationData:
    """Three surfaces X1, X2, X3 meeting pairwise in rational curves C12,
    C13, C23 through one triple point: a depth-3 stratum, so E1 terms of
    two summands.  H^2(Xi) is spanned by the two double curves on Xi, with
    C_ij . C_ik = 1 and the squares of C_ij on Xi and on Xj summing to -1
    (the triple point formula).  Restrictions carry Cech signs, and each
    Gysin map is the adjoint of a restriction."""
    curves = [(1, 2), (1, 3), (2, 3)]
    square = {(1, 2): -2, (2, 1): 1, (1, 3): 0, (3, 1): -1, (2, 3): -2, (3, 2): 1}
    h2 = [(i, c) for i in (1, 2, 3) for c in curves if i in c]

    def meet(i, a, b):  # a . b on Xi
        return square[(i, a[0] + a[1] - i)] if a == b else 1

    def sign(c, i):  # (delta f)_ij = f_j - f_i
        return -1 if c[0] == i else 1

    P2 = M([[meet(i, a, b) if i == j else 0 for j, b in h2] for i, a in h2])
    T10 = M([[sign(c, i) if i in c else 0 for i in (1, 2, 3)] for c in curves])
    T12 = M([[sign(c, i) * meet(i, a, c) if i in c else 0 for i, a in h2] for c in curves])
    T20 = M([[1, -1, 1]])
    surfaces = StratumCohomology(1, {
        0: {"types": [(0, 0)] * 3, "pairing": ExactMatrix.identity(3)},
        2: {"types": [(1, 1)] * 6, "pairing": P2},
        4: {"types": [(2, 2)] * 3, "pairing": ExactMatrix.identity(3)},
    })
    lines = StratumCohomology(2, {
        q: {"types": [(q // 2, q // 2)] * 3, "pairing": ExactMatrix.identity(3)} for q in (0, 2)
    })
    point = StratumCohomology(3, {0: {"types": [(0, 0)], "pairing": ExactMatrix.identity(1)}})
    gysin = {(1, 0): invert(P2) @ T12.transpose(), (1, 2): T10.transpose(), (2, 0): T20.transpose()}
    restriction = {(1, 0): T10, (1, 2): T12, (2, 0): T20}
    return DegenerationData(2, [surfaces, lines, point], gysin, restriction)


def tetrahedron_degeneration() -> DegenerationData:
    """Four surfaces whose dual complex is the boundary of a tetrahedron:
    each pair meets in a rational curve C_ij through two of the four triple
    points, so the lowest weight of the limit H^2, the H^2 of the dual
    complex, is a line.  H^2(Xi) is spanned by the three double curves on
    Xi, with C_ij . C_ik = 1 and C_ij^2 = -1 on both surfaces (the triple
    point formula: the two squares sum to minus the number of triple points
    on the curve).  Restrictions carry Cech signs, and each Gysin map is the
    adjoint of a restriction.  nu maps the middle weight of H^2 onto that
    line, so the primitive part of E2^{0,2} is a proper kernel."""
    surfaces = (1, 2, 3, 4)
    curves = list(combinations(surfaces, 2))
    points = list(combinations(surfaces, 3))
    h2 = [(i, c) for i in surfaces for c in curves if i in c]

    def cech(cell, face):  # the sign of face in the coboundary of cell
        return (-1) ** cell.index(next(v for v in cell if v not in face))

    def meet(a, b):  # a . b on a surface that contains both
        return -1 if a == b else 1

    P2 = M([[meet(a, b) if i == j else 0 for j, b in h2] for i, a in h2])
    T10 = M([[cech(c, (i,)) if i in c else 0 for i in surfaces] for c in curves])
    T12 = M([[cech(c, (i,)) * meet(a, c) if i in c else 0 for i, a in h2] for c in curves])
    T20 = M([[cech(t, c) if set(c) <= set(t) else 0 for c in curves] for t in points])
    return DegenerationData(2, [
        StratumCohomology(1, {
            0: {"types": [(0, 0)] * 4, "pairing": ExactMatrix.identity(4)},
            2: {"types": [(1, 1)] * 12, "pairing": P2},
            4: {"types": [(2, 2)] * 4, "pairing": ExactMatrix.identity(4)},
        }),
        StratumCohomology(2, {
            q: {"types": [(q // 2, q // 2)] * 6, "pairing": ExactMatrix.identity(6)} for q in (0, 2)
        }),
        StratumCohomology(3, {0: {"types": [(0, 0)] * 4, "pairing": ExactMatrix.identity(4)}}),
    ], gysin={(1, 0): invert(P2) @ T12.transpose(), (1, 2): T10.transpose(), (2, 0): T20.transpose()},
        restriction={(1, 0): T10, (1, 2): T12, (2, 0): T20})


@pytest.mark.parametrize("build", [
    elliptic_smooth, cycle_degeneration, triple_point_degeneration, tetrahedron_degeneration])
def test_kahler_formula_agrees_with_the_e2_index(build):
    """On degenerations of Kahler type the paper's index is the Kahler one:
    kahler_index_formula on the nearby fiber's Hodge numbers, the limit
    Hodge numbers summed over q per degree, is the signature the E2 page
    gives at every p."""
    rep = nearby_hodge_index(build())
    assert rep.ok and rep.signature is not None
    hodge = Counter()
    for d, info in rep.per_degree.items():
        for (p, _), dim in info["hodge"].items():
            hodge[(p, d - p)] += dim
    m = rep.m
    assert {p: kahler_index_formula(hodge, m, p) for p in range(m + 1)} == rep.signature


def negated_maps(data: DegenerationData, rng: random.Random, count: int) -> DegenerationData:
    """data with count of its Gysin and restriction maps negated: each
    still passes the adjointness check, which allows a sign per map."""
    keys = sorted((kind, key) for kind in ("gysin", "restriction") for key in getattr(data, kind))
    chosen = set(rng.sample(keys, min(count, len(keys))))

    def negated(kind):
        return {key: -A if (kind, key) in chosen else A for key, A in getattr(data, kind).items()}

    return DegenerationData(data.m, data.strata.values(), negated("gysin"), negated("restriction"))


MIRROR_INPUTS = D1_INPUTS + [framed_maps_degeneration, triple_point_degeneration] + [
    (lambda i=i: seeded_odp_models(7)[i]) for i in range(4)]
MIRROR_IDS = D1_IDS + ["framed_maps_degeneration", "triple_point_degeneration"] + [
    f"odp-seed7-{i}" for i in range(4)]


def index_outcome(index, data: DegenerationData):
    """index(data) as JSON, or the message of the contract error it stops at."""
    try:
        return index(data).to_json()
    except ContractError as exc:
        return str(exc)


@pytest.mark.parametrize("build", MIRROR_INPUTS, ids=MIRROR_IDS)
def test_mirrored_degrees_match_direct_pages(build):
    # the input and those of its sign-flip mutants (one map, or 2 to 4 maps,
    # negated) that pass validation; a valid input has valid mutants.  The
    # unvalidated framed_maps_degeneration stops at the same contract error
    # on both paths
    data = build()
    rng = random.Random(len(data.gysin) + 7 * len(data.restriction) + data.m)
    mutants = [negated_maps(data, rng, rng.choice((1, 2, 3, 4)))
               for _ in range(12 if data.gysin or data.restriction else 0)]
    checked = [data] + [D for D in mutants if validate_degeneration_data(D).ok]
    if mutants and validate_degeneration_data(data).ok:
        assert len(checked) > 1
    for D in checked:
        assert index_outcome(nearby_hodge_index, D) == index_outcome(direct_nearby_hodge_index, D)


@pytest.mark.parametrize("build", [triple_point_degeneration, tetrahedron_degeneration])
def test_primitive_parts_match_orbit_theorem(build):
    # the only inputs whose nu^{r+1} at the middle degree lands in a term
    # with E1 summands; the orbit theorem on the extracted limit is the
    # independent reference.  That E2 sector is zero for the triple point,
    # so its primitive part is the whole sector, and a line for the
    # tetrahedron, where the primitive part is a proper kernel
    data = build()
    rep = verify_main_theorem(extract_limit_mhs(data, 2))
    assert rep.ok, rep.failures
    table = e2_signature_table(data)
    for p in range(3):
        assert rep.details["pieces"][p] == nearby_index_formula(table, p)


def asymmetric_curves() -> DegenerationData:
    """Not a valid degeneration: the curves' classes have types that
    conjugation does not swap, so degrees 1 and 3 have limit Hodge numbers
    without a conjugate.  The curves' H^0 and H^2 types are dual, so degree
    3 still mirrors degree 1.  No valid input breaks Hodge symmetry."""
    surfaces = StratumCohomology(1, {
        0: {"types": [(0, 0)], "pairing": M([[1]])},
        4: {"types": [(2, 2)], "pairing": M([[1]])},
    })
    curves = StratumCohomology(2, {
        0: {"types": [(1, -1), (-2, 2)]},
        2: {"types": [(0, 2), (3, -1)]},
    })
    return DegenerationData(2, [surfaces, curves])


def test_mirrored_symmetry_failures_keep_page_order():
    # degree 3 lists its sectors column by column, r = -1 then r = 1, and
    # within a term in sorted order, which is not the sorted order overall
    data = asymmetric_curves()
    report = nearby_hodge_index(data)
    assert report.to_json() == direct_nearby_hodge_index(data).to_json()
    assert [f for f in report.failures if f.startswith("degree 3")] == [
        f"degree 3: limit Hodge numbers not symmetric at {sec}"
        for sec in ("(0,2)", "(3,-1)", "(1,3)", "(4,0)")
    ]


def assembled_d1_square_failures(data: DegenerationData) -> list[str]:
    """d1 o d1 = 0 checked the way validation did before it read relations
    among the stratum maps: every d1 map of every degree assembled, and each
    consecutive pair multiplied."""
    out = []
    for d in range(2 * data.m + 1):
        for r in range(-d - 1, d + 2):
            M1 = d1_matrix(data, d, r)
            M2 = d1_matrix(data, d + 1, r - 1)
            if M1.cols and M2.rows and not (M2 @ M1).is_zero():
                out.append(f"d1 o d1 != 0 at degree {d}, column {-r}")
    return out


def random_stratum_data(rng: random.Random, m: int, depths: int) -> DegenerationData:
    """Shapes only, not a valid degeneration: up to two classes in each
    degree of each stratum, up to four degrees past its top, and sparse
    random maps between them wherever both ends have classes, so Gysin maps
    compose through three depths and composites reach past degree 2m."""
    strata = []
    for l in range(1, depths + 1):
        n = m - l + 1
        strata.append(StratumCohomology(l, {
            q: {"types": [(q // 2, q - q // 2)] * dim}
            for q in range(2 * n + 5) if (dim := rng.choice((0, 1, 1, 2)))
        }))
    data = DegenerationData(m, strata)
    dim = data.stratum_dim

    def rand(rows, cols):
        return M([[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)] for _ in range(rows)])

    for l in range(1, depths):
        for q in range(2 * m + 5):
            if dim(l, q + 2) and dim(l + 1, q) and rng.random() < 0.8:
                data.gysin[(l, q)] = rand(dim(l, q + 2), dim(l + 1, q))
            if dim(l + 1, q) and dim(l, q) and rng.random() < 0.8:
                data.restriction[(l, q)] = rand(dim(l + 1, q), dim(l, q))
    return data


def mutate_entries(data: DegenerationData, rng: random.Random, count: int) -> DegenerationData:
    """data with count random entries of its maps replaced by small integers."""
    maps = {"gysin": dict(data.gysin), "restriction": dict(data.restriction)}
    keys = sorted((kind, key) for kind, ms in maps.items() for key, A in ms.items() if A.rows and A.cols)
    for _ in range(count if keys else 0):
        kind, key = rng.choice(keys)
        rows = [list(row) for row in maps[kind][key].entries]
        rows[rng.randrange(len(rows))][rng.randrange(len(rows[0]))] = GaussianScalar(rng.randrange(-2, 4))
        maps[kind][key] = ExactMatrix(rows)
    return DegenerationData(data.m, data.strata.values(), maps["gysin"], maps["restriction"])


def without_degree(data: DegenerationData, depth: int, q: int) -> DegenerationData:
    """data with H^q(E(depth)) zero-dimensional and its maps resized."""
    strata = [
        StratumCohomology(l, {**s.cohomology, q: {"types": []}} if l == depth else s.cohomology)
        for l, s in data.strata.items()
    ]

    def resized(A, src, tgt):
        rows = 0 if tgt == (depth, q) else A.rows
        return ExactMatrix.zero(rows, 0 if src == (depth, q) else A.cols)

    gysin = {(l, p): resized(A, (l + 1, p), (l, p + 2)) if (depth, q) in ((l + 1, p), (l, p + 2)) else A
             for (l, p), A in data.gysin.items()}
    restriction = {(l, p): resized(A, (l, p), (l + 1, p)) if (depth, q) in ((l, p), (l + 1, p)) else A
                   for (l, p), A in data.restriction.items()}
    return DegenerationData(data.m, strata, gysin, restriction)


def without_depth(data: DegenerationData, depth: int) -> DegenerationData:
    """data with a gap at depth: the stratum and every map that touches it gone."""
    def keep(maps):
        return {(l, q): A for (l, q), A in maps.items() if depth not in (l, l + 1)}

    strata = [s for l, s in data.strata.items() if l != depth]
    return DegenerationData(data.m, strata, keep(data.gysin), keep(data.restriction))


def permuted_degree(data: DegenerationData, depth: int, q: int, sigma: list) -> DegenerationData:
    """data in the basis of H^q(E(depth)) whose vector i is the old vector
    sigma[i], carried through its types, its frame (rows and columns), the
    pairings of degree q and of its dual degree, and the maps into and out
    of it."""
    dual = 2 * data.complex_dim(depth) - q

    def moved(entry, k):
        entry, P, F = dict(entry), entry["pairing"], entry["frame"]
        if k == q:
            entry["types"] = [entry["types"][i] for i in sigma]
            entry["frame"] = None if F is None else F.take_rows(sigma).take_columns(sigma)
            P = P.take_rows(sigma)
        entry["pairing"] = P.take_columns(sigma) if k == dual else P
        return entry

    strata = [
        StratumCohomology(l, {k: moved(e, k) for k, e in s.cohomology.items()} if l == depth
                          else s.cohomology)
        for l, s in data.strata.items()
    ]

    def reordered(A, src, tgt):
        A = A.take_columns(sigma) if src == (depth, q) else A
        return A.take_rows(sigma) if tgt == (depth, q) else A

    gysin = {(l, p): reordered(A, (l + 1, p), (l, p + 2)) for (l, p), A in data.gysin.items()}
    restriction = {(l, p): reordered(A, (l, p), (l + 1, p)) for (l, p), A in data.restriction.items()}
    return DegenerationData(data.m, strata, gysin, restriction)


@settings(deadline=None)
@given(st.data())
def test_index_does_not_depend_on_stratum_basis_order(draw):
    build = draw.draw(st.sampled_from(MIRROR_INPUTS + [tetrahedron_degeneration]))
    data = build()
    assume(validate_degeneration_data(data).ok)
    degree = draw.draw(st.sampled_from(sorted(
        (l, q) for l, s in data.strata.items() for q, e in s.cohomology.items() if e["dim"] > 1)))
    sigma = draw.draw(st.permutations(range(data.stratum_dim(*degree))))
    moved = permuted_degree(data, *degree, sigma)
    assert validate_degeneration_data(moved).ok
    assert nearby_hodge_index(moved).to_json() == nearby_hodge_index(data).to_json()


D1_SQUARE_INPUTS = D1_INPUTS + [framed_maps_degeneration] + [
    (lambda i=i: random_stratum_data(random.Random(i), 3, 4)) for i in range(4)]
D1_SQUARE_IDS = D1_IDS + ["framed_maps_degeneration"] + [f"random-{i}" for i in range(4)]


@pytest.mark.parametrize("build", D1_SQUARE_INPUTS, ids=D1_SQUARE_IDS)
def test_d1_square_relations_match_assembled_d1(build):
    # the input, random entry mutations of its maps, each of its degrees
    # made zero-dimensional, and a gap at depth 2
    data = build()
    rng = random.Random(len(data.gysin) + 7 * len(data.restriction))
    inputs = [data] + [mutate_entries(data, rng, rng.choice((1, 2))) for _ in range(6)]
    inputs += [without_degree(data, l, q) for l, s in data.strata.items() for q in s.cohomology]
    if len(data.strata) > 2:
        inputs.append(without_depth(data, 2))
    for D in inputs:
        assert steenbrink._d1_square_failures(D) == assembled_d1_square_failures(D)


@pytest.mark.parametrize("build", D1_SQUARE_INPUTS, ids=D1_SQUARE_IDS)
def test_validation_assembles_no_d1(build, monkeypatch):
    calls = []

    def recording(name):
        original = getattr(steenbrink, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return call

    for name in ("d1_matrix", "_e1_matrix", "_SectorMaps"):
        monkeypatch.setattr(steenbrink, name, recording(name))
    data = build()
    for D in (data, mutate_entries(data, random.Random(3), 2)):
        validate_degeneration_data(D)
    assert calls == []


def greedy_quotient_reps(Z: Subspace, B: Subspace) -> ExactMatrix:
    """The defining left-to-right scan: keep each column of Z's basis that
    is not in the span of B and of the columns kept before it."""
    cur = B
    chosen = []
    for c in Z.basis.columns():
        if not cur.contains_vector(c):
            chosen.append(c)
            cur = cur.add(
                Subspace(Z.ambient_dim, ExactMatrix.from_columns([c], rows=Z.ambient_dim))
            )
    return ExactMatrix.from_columns(chosen, rows=Z.ambient_dim)


small_gaussians = st.builds(GaussianScalar, st.integers(-2, 2), st.integers(-1, 1))


def random_matrix(draw, rows, cols):
    return ExactMatrix(
        [[draw(small_gaussians) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


@st.composite
def nested_subspaces(draw):
    """(Z, B) with B inside Z: Z a kernel (a canonical basis, as in E2Term),
    B the zero space, Z itself, the span of some of Z's basis columns, or
    the span of random combinations of them (dependent generators
    included)."""
    n = draw(st.integers(0, 6))
    Z = kernel(random_matrix(draw, draw(st.integers(0, 4)), n))
    kind = draw(st.sampled_from(["zero", "all", "columns", "combinations"]))
    if kind == "zero" or Z.dim == 0:
        B = Subspace.zero(n)
    elif kind == "all":
        B = Z
    elif kind == "columns":
        keep = draw(st.lists(st.integers(0, Z.dim - 1), unique=True))
        B = image(Z.basis.take_columns(sorted(keep)))
    else:
        C = random_matrix(draw, Z.dim, draw(st.integers(0, Z.dim + 1)))
        B = image(Z.basis @ C)
    return Z, B


def outside_vector(Z: Subspace) -> list:
    """The first unit vector outside Z, which must not be the whole space."""
    return next(col for col in ExactMatrix.identity(Z.ambient_dim).columns()
                if not Z.contains_vector(col))


@settings(max_examples=200, deadline=None)
@given(nested_subspaces())
def test_quotient_reps_match_greedy_scan(pair):
    Z, B = pair
    got = quotient_reps(Z, B)
    want = greedy_quotient_reps(Z, B)
    assert (got.rows, got.cols) == (want.rows, want.cols) == (Z.ambient_dim, Z.dim - B.dim)
    assert got == want
    if Z.dim < Z.ambient_dim:
        # a lower space that leaves Z has no quotient
        assert quotient_reps(Z, B.add(Subspace.span(Z.ambient_dim, [outside_vector(Z)]))) is None


def solve_per_column(reps: ExactMatrix, B: Subspace, X: ExactMatrix) -> ExactMatrix | None:
    """The reference: one solve of [reps | B] x = v per column v of X."""
    system = reps.hstack(B.basis)
    cols = []
    for v in X.columns():
        x = solve(system, v)
        if x is None:
            return None
        cols.append(x[: reps.cols])
    return ExactMatrix.from_columns(cols, rows=reps.cols)


@st.composite
def class_coordinate_cases(draw):
    """(reps, B, X): representatives of Z/B as quotient_reps chooses them, and
    columns that are combinations of Z's basis, with at most one column
    outside Z inserted among them when Z is not the whole space."""
    Z, B = draw(nested_subspaces())
    n = Z.ambient_dim
    X = Z.basis @ random_matrix(draw, Z.dim, draw(st.integers(0, 3)))
    if Z.dim < n and draw(st.booleans()):
        cols = X.columns()
        cols.insert(draw(st.integers(0, len(cols))), outside_vector(Z))
        X = ExactMatrix.from_columns(cols, rows=n)
    return quotient_reps(Z, B), B, X


@settings(max_examples=200, deadline=None)
@given(class_coordinate_cases())
def test_class_coordinates_match_per_column_solves(case):
    reps, B, X = case
    got = class_coordinates(reps, B, X)
    want = solve_per_column(reps, B, X)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.rows, got.cols) == (reps.cols, X.cols)
        assert got == want


@pytest.mark.parametrize("build", ALL_FIXTURES)
def test_term_class_coordinates_of_representatives(build):
    # in each sector's coordinates, each representative has its own unit
    # vector as coordinates, and boundaries have none; sectors without a
    # class included
    data = build()
    for d in range(0, 2 * data.m + 1):
        for r, term in e2_page(data, d).terms.items():
            for sec in term.sector_cols:
                R, B = term.reps(sec), term.sector_B[sec]
                X = R.hstack(B.basis)
                want = ExactMatrix.identity(R.cols).hstack(ExactMatrix.zero(R.cols, B.dim))
                assert class_coordinates(R, B, X) == want, (d, r, sec)


class TestFramedMaps:
    """E2 pages and validation read the stratum maps in frame coordinates,
    framed once per map instead of once per term."""

    @pytest.mark.parametrize("build", ALL_FIXTURES + [framed_maps_degeneration])
    def test_framed_d1_is_term_frame_conjugate(self, build):
        # the reference is the per-term formula F_tgt^{-1} d1 F_src
        data = build()
        framed = framed_data(data)
        for d in range(-1, 2 * data.m + 1):
            for r in range(-d - 2, d + 3):
                F_src = _term_frame(data, e1_summands(data, d, r))
                F_tgt = _term_frame(data, e1_summands(data, d + 1, r - 1))
                want = invert(F_tgt) @ d1_matrix(data, d, r) @ F_src
                assert d1_matrix(framed, d, r) == want, (d, r)

    def test_unframed_type_break_rejected(self):
        curve = [(1, 0), (0, 1)]
        surfaces = StratumCohomology(1, {1: {"types": curve}})
        curves = StratumCohomology(2, {1: {"types": curve}})
        data = DegenerationData(2, [surfaces, curves],
                                restriction={(1, 1): M([[0, 1], [1, 0]])})
        failures = validate_degeneration_data(data).failures
        assert "restriction depth 1 degree 1: entry (0,1) shifts type by (1,-1)" in failures

    @pytest.mark.parametrize("swapped", [False, True])
    def test_frames_alone_break_type(self, swapped):
        # an identity restriction between two framed H^1: it preserves type
        # exactly when both frames list the (1,0) column first
        curve = [(1, 0), (0, 1)]
        F = curve_frame((1, 0), (0, 1))
        Fc = curve_frame((1, 0), (0, -1)) if swapped else F
        surfaces = StratumCohomology(1, {1: {"types": curve, "frame": F}})
        curves = StratumCohomology(2, {1: {"types": curve, "frame": Fc}})
        data = DegenerationData(2, [surfaces, curves],
                                restriction={(1, 1): ExactMatrix.identity(2)})
        failures = validate_degeneration_data(data).failures
        broken = [f for f in failures if "shifts type by" in f]
        if swapped:
            assert broken == ["restriction depth 1 degree 1: entry (0,1) shifts type by (1,-1)"]
        else:
            assert broken == []

    @pytest.fixture
    def inversions(self, monkeypatch):
        calls = []
        original = steenbrink.inverse

        def counting(F):
            calls.append((F.rows, F.cols))
            return original(F)

        monkeypatch.setattr(steenbrink, "inverse", counting)
        return calls

    @pytest.mark.parametrize("build", [
        cycle_degeneration,
        lambda: odp_semistable_model(ResolutionData(4, 3, vhat_signs=(1, -1))),
        # a framed H^3 that no map touches
        lambda: odp_semistable_model(ResolutionData(
            3, 2, signs=(1, -1), rho=ExactMatrix.from_rational([[1], [-1]]))),
    ])
    def test_identity_frames_invert_nothing(self, build, inversions):
        data = build()
        assert validate_degeneration_data(data).ok
        assert nearby_hodge_index(data).ok
        assert inversions == []

    def test_each_framed_target_inverted_once(self, inversions):
        # three framed degrees are targets: the curves' H^1 and H^2 and the
        # surfaces' H^3 (the curves' H^2 of two maps); the surfaces' H^1 is
        # only ever a source.  Validation and the pipeline's map table each
        # frame every map through one closure
        for frame_all in (framed_data, validate_degeneration_data, steenbrink._SectorMaps):
            frame_all(framed_maps_degeneration())
            assert sorted(inversions) == [(1, 1), (2, 2), (2, 2)], frame_all
            inversions.clear()


# -- Poincaré pairs in validation ---------------------------------------------


def validation_ranking_every_degree(data: DegenerationData) -> list[str]:
    """The reference failure list: validate_degeneration_data with every
    degree's pairing ranked and transposed on its own, not once per
    Poincaré pair (q, 2n - q)."""
    failures = []
    if not data.strata:
        return ["no strata"]
    depths = sorted(data.strata)
    if depths != list(range(1, len(depths) + 1)):
        failures.append(f"stratum depths {depths} are not contiguous from 1")
    pairings_ok = True
    for depth, s in sorted(data.strata.items()):
        n = data.complex_dim(depth)
        skipped = set()  # degrees out of range, misshaped pairings, unusable frames
        for q, entry in sorted(s.cohomology.items()):
            tag = f"depth {depth} degree {q}"
            if not (0 <= q <= 2 * n):
                failures.append(f"{tag}: degree out of range for dimension {n}")
                skipped.add(q)
                continue
            types = entry["types"]
            for (a, b) in types:
                if a + b != q:
                    failures.append(f"{tag}: type ({a},{b}) does not sum to {q}")
            if sorted(types) != sorted((b, a) for (a, b) in types):
                failures.append(f"{tag}: type multiset not conjugation-symmetric")
            dual_dim = s.dim(2 * n - q)
            if entry["dim"] != dual_dim:
                failures.append(f"{tag}: Poincare dual dimension mismatch")
            P = entry["pairing"]
            if entry["dim"]:
                if P is None:
                    failures.append(f"{tag}: missing pairing")
                elif P.rows != entry["dim"] or P.cols != dual_dim:
                    failures.append(f"{tag}: pairing shape mismatch")
                    skipped.add(q)
                    pairings_ok = False
                elif rank(P) != min(P.rows, P.cols):
                    failures.append(f"{tag}: degenerate pairing")
                else:
                    Pd = s.pairing(2 * n - q)
                    Pt = P.transpose()
                    if (q * (2 * n - q)) % 2:
                        Pt = -Pt
                    if Pd is not None and Pd != Pt:
                        failures.append(f"{tag}: pairing transpose inconsistency")
            F = entry["frame"]
            if F is not None:
                if F.rows != entry["dim"] or F.cols != entry["dim"]:
                    failures.append(f"{tag}: frame shape mismatch")
                    skipped.add(q)
                elif rank(F) != F.cols:
                    failures.append(f"{tag}: singular frame")
                    skipped.add(q)
                elif steenbrink._conj_permutation(F, types) is None:
                    failures.append(f"{tag}: frame conjugation does not swap types")
            elif any(a != b for (a, b) in types):
                failures.append(f"{tag}: frame required for types with p' != q'")
        # each Poincaré pair with a frame on some side, its pairing in frame
        # coordinates (the identity where a degree has no frame), pairs type
        # t only with (n, n) - t
        for q, entry in sorted(s.cohomology.items()):
            dual = 2 * n - q
            frames = [entry["frame"], s.cohomology.get(dual, {}).get("frame")]
            if (q > dual or entry["pairing"] is None or frames == [None, None]
                    or {q, dual} & skipped):
                continue
            G = s.frame(q).transpose() @ entry["pairing"] @ s.frame(dual)
            broken = [(s.types(q)[i], s.types(dual)[j]) for i, j in G.nonzero()
                      if s.types(q)[i][0] + s.types(dual)[j][0] != n
                      or s.types(q)[i][1] + s.types(dual)[j][1] != n]
            if broken:
                (a, b), (c, e) = broken[0]
                failures.append(
                    f"depth {depth} degree {q}: pairing pairs type ({a},{b}) with ({c},{e})")
    framed = steenbrink._frame_map(data)
    shapes_ok = True
    for kind, shift, src, tgt in (("gysin", 1, (1, 0), (0, 2)), ("restriction", 0, (0, 0), (1, 0))):
        for (depth, q), A in sorted(getattr(data, kind).items()):
            tag = f"{kind} depth {depth} degree {q}"
            s_at, t_at = (depth + src[0], q + src[1]), (depth + tgt[0], q + tgt[1])
            want = (data.stratum_dim(*t_at), data.stratum_dim(*s_at))
            if (A.rows, A.cols) != want:
                failures.append(f"{tag}: shape {(A.rows, A.cols)} != {want}")
                shapes_ok = False
                continue
            if not (A.rows and A.cols):
                continue
            st, tt = data.strata[s_at[0]].types(s_at[1]), data.strata[t_at[0]].types(t_at[1])
            for i, j in framed(A, s_at, t_at).nonzero():
                a, b = tt[i][0] - st[j][0], tt[i][1] - st[j][1]
                if (a, b) != (shift, shift):
                    failures.append(f"{tag}: entry ({i},{j}) shifts type by ({a},{b})")
                    break
    if shapes_ok:
        if pairings_ok:
            failures.extend(steenbrink._adjointness_failures(data))
        failures.extend(steenbrink._d1_square_failures(data))
    return failures


# a pairing edit: degenerate (last row zero), inconsistent with its dual
# (first row doubled, still nondegenerate), a row or a column short, missing
PAIRING_EDITS = {
    "degenerate": lambda P: P.take_rows(range(P.rows - 1)).vstack(ExactMatrix.zero(1, P.cols)),
    "inconsistent": lambda P: P.take_rows([0]).scale(2).vstack(P.take_rows(range(1, P.rows))),
    "short-row": lambda P: P.take_rows(range(P.rows - 1)),
    "short-column": lambda P: P.take_columns(range(P.cols - 1)),
    "missing": lambda P: None,
}


def with_pairings(data: DegenerationData, depth: int, edits: dict) -> DegenerationData:
    """data with the pairings of the given degrees of one stratum edited,
    edits = {q: PAIRING_EDITS key}."""
    s = data.strata[depth]
    cohomology = {**s.cohomology, **{
        q: {**s.cohomology[q], "pairing": PAIRING_EDITS[e](s.cohomology[q]["pairing"])}
        for q, e in edits.items()}}
    strata = [StratumCohomology(depth, cohomology) if t is s else t for t in data.strata.values()]
    return DegenerationData(data.m, strata, data.gysin, data.restriction)


def pairing_mutants(data: DegenerationData):
    """Every single edit of every nonempty pairing, the middle degrees
    included, and every two edits of a Poincaré pair (q, 2n - q), q < n."""
    for depth, s in sorted(data.strata.items()):
        n = data.complex_dim(depth)
        paired = [q for q, e in sorted(s.cohomology.items()) if e["pairing"] is not None
                  and e["pairing"].rows and e["pairing"].cols]
        for q in paired:
            for e in PAIRING_EDITS:
                yield with_pairings(data, depth, {q: e})
            if q < n and 2 * n - q in paired:
                for e1 in PAIRING_EDITS:
                    for e2 in PAIRING_EDITS:
                        yield with_pairings(data, depth, {q: e1, 2 * n - q: e2})


PAIRING_INPUTS = ALL_FIXTURES + [triple_point_degeneration, json_fixture("odp_m3.json")] + [
    (lambda i=i: seeded_odp_models(7)[i]) for i in (0, 2)]
PAIRING_IDS = [build.__name__ for build in ALL_FIXTURES] + [
    "triple_point_degeneration", "odp_m3.json", "odp-m3-l2", "odp-m4-l3"]


@pytest.mark.parametrize("build", PAIRING_INPUTS, ids=PAIRING_IDS)
def test_pairing_failures_match_ranking_every_degree(build):
    """Validation ranks and transposes each Poincaré pair once; its failure
    lists equal those of ranking every degree, byte for byte, on every
    pairing mutant: degenerate, inconsistent with the dual, both, the middle
    degree, and a shape mismatch on one side.  A doubled row of a framed
    pairing also pairs some type with one other than its complement."""
    data = build()
    assert validate_degeneration_data(data).failures == validation_ranking_every_degree(data) == []
    seen = Counter()
    for mutant in pairing_mutants(data):
        failures = validate_degeneration_data(mutant).failures
        assert failures == validation_ranking_every_degree(mutant)
        kinds = {f.split(": ")[-1] for f in failures if f.startswith("depth ")}
        seen.update(kinds)
        if {"degenerate pairing", "pairing transpose inconsistency"} <= kinds:
            seen["both"] += 1
    assert all(seen[kind] for kind in ("degenerate pairing", "pairing transpose inconsistency",
                                       "both", "pairing shape mismatch", "missing pairing"))
    framed = any(e["frame"] is not None for s in data.strata.values()
                 for e in s.cohomology.values())
    assert framed == any(kind.startswith("pairing pairs type") for kind in seen)


def full_scan_type_break(data: DegenerationData, src: tuple, tgt: tuple, T: ExactMatrix):
    """The reference for _type_break: every nonzero entry of the framed map
    T is read, in order, whatever the type lists are."""
    shift = (tgt[1] - src[1]) // 2
    st, tt = (data.strata[l].types(q) if l in data.strata else [] for l, q in (src, tgt))
    for i, j in T.nonzero():
        a, b = tt[i][0] - st[j][0], tt[i][1] - st[j][1]
        if (a, b) != (shift, shift):
            return (i, j), (a, b)
    return None


def shifted_tag_mutants(data: DegenerationData):
    """data with the one type tag (a, b) of a single-type degree that some
    stratum map reads moved to (a + 1, b - 1), one degree at a time: on
    every column, so that the tags of its maps differ by something other
    than their shift, and on its last column alone, so that the degree has
    two tags."""
    ends = {end for _, _, src, tgt, _ in steenbrink._stratum_maps(data) for end in (src, tgt)}
    for depth, q in sorted(ends):
        s = data.strata.get(depth)
        types = s.types(q) if s else []
        if not types or len(set(types)) > 1:
            continue
        (a, b), entry = types[0], s.cohomology[q]
        for moved in (len(types), 1):
            tags = types[:len(types) - moved] + [(a + 1, b - 1)] * moved
            cohomology = {**s.cohomology, q: {**entry, "types": tags}}
            strata = [StratumCohomology(depth, cohomology) if t is s else t
                      for t in data.strata.values()]
            yield DegenerationData(data.m, strata, data.gysin, data.restriction)


def type_break_outcome(type_break, data, src, tgt, T):
    """type_break's answer, or the type of the IndexError it raises on a
    map with more rows than its target has types."""
    try:
        return type_break(data, src, tgt, T)
    except IndexError as exc:
        return type(exc)


# every input has a nonzero stratum map, so some mutant breaks a type shift
TYPE_BREAK_INPUTS = [
    cycle_degeneration, kodaira_degeneration, reframed_cycle, framed_maps_degeneration,
    triple_point_degeneration, json_fixture("kodaira.json"), json_fixture("odp_m3.json")] + [
    (lambda build=build: support.product(build(), elliptic_smooth()))
    for build in (cycle_degeneration, kodaira_degeneration, triple_point_degeneration)] + [
    (lambda i=i: seeded_odp_models(7)[i]) for i in range(4)]
TYPE_BREAK_IDS = [
    "cycle", "kodaira", "reframed_cycle", "framed_maps_degeneration", "triple_point",
    "kodaira.json", "odp_m3.json", "cycle-E", "kodaira-E", "triple_point-E",
    "odp-m3-l2", "odp-m3-l4", "odp-m4-l3", "odp-m4-l5"]


@pytest.mark.parametrize("build", TYPE_BREAK_INPUTS, ids=TYPE_BREAK_IDS)
def test_type_break_matches_full_scan(build):
    """_type_break, which reads no entry of a map between two single-type
    degrees whose tags keep the shift, names the entry and the difference a
    full scan names on every framed stratum map of the input and of every
    shifted-tag mutant, and on each such map with one row too many; the
    mutants' validation failure lists are those of the validation that
    scans every map in full, byte for byte."""
    data = build()
    breaks = 0
    for case in [data, *shifted_tag_mutants(data)]:
        framed = steenbrink._frame_map(case)
        for _, _, src, tgt, A in steenbrink._stratum_maps(case):
            if (A.rows, A.cols) != (case.stratum_dim(*tgt), case.stratum_dim(*src)):
                continue
            T = framed(A, src, tgt)
            got = steenbrink._type_break(case, src, tgt, T)
            assert got == full_scan_type_break(case, src, tgt, T), (src, tgt)
            breaks += got is not None
            # a misshaped map, one more row than the target has types, is
            # scanned in full as before
            T = T.vstack(M([[1] * T.cols]))
            assert type_break_outcome(steenbrink._type_break, case, src, tgt, T) == (
                type_break_outcome(full_scan_type_break, case, src, tgt, T)), (src, tgt)
        if case is not data:
            assert validate_degeneration_data(case).failures == validation_ranking_every_degree(case)
    assert breaks


# -- products with a smooth factor ---------------------------------------------


def projective_line() -> DegenerationData:
    """The smooth P^1, as a degeneration with one stratum."""
    return DegenerationData(1, [StratumCohomology(1, {
        0: {"types": [(0, 0)], "pairing": M([[1]])},
        2: {"types": [(1, 1)], "pairing": M([[1]])},
    })])


PRODUCT_FACTORS = [elliptic_smooth, cycle_degeneration, triple_point_degeneration,
                   tetrahedron_degeneration, kodaira_degeneration] + [
    (lambda i=i: seeded_odp_models(7)[i]) for i in (1, 2)]
PRODUCT_IDS = ["elliptic_smooth", "cycle", "triple_point", "tetrahedron", "kodaira",
               "odp-m3-l4", "odp-m4-l3"]


def nearby_hodge(report, d: int) -> Counter:
    """The nearby fiber's h^{p, d-p} by p: limit Hodge numbers summed over q."""
    out = Counter()
    for (p, _), dim in report.per_degree[d]["hodge"].items():
        out[p] += dim
    return out


def product_signature(x, Y: DegenerationData) -> dict:
    """The middle signature of X x Y by p, from the report x of X and Y's
    own: a pair of Y degrees b < dim Y and 2 dim Y - b carries a hyperbolic
    part (k, k), k the (p, M-p) classes of H^{M-b}(X_t) (x) H^b(Y), and the
    middle degree b = dim Y carries X's signature times Y's, type by type."""
    (y,) = Y.strata.values()
    n, M = Y.m, x.m + Y.m
    y_signature = nearby_hodge_index(Y).signature if y.dim(n) else {}
    out = {}
    for p in range(M + 1):
        k = sum(nearby_hodge(x, M - b)[p - t[0]] for b in range(n) for t in y.types(b))
        plus = minus = k
        for t, (yp, ym) in y_signature.items():
            xp, xm = x.signature.get(p - t, (0, 0))
            plus, minus = plus + xp * yp + xm * ym, minus + xp * ym + xm * yp
        out[p] = (plus, minus)
    return out


@pytest.mark.parametrize("factor", [projective_line, elliptic_smooth], ids=["P1", "E"])
@pytest.mark.parametrize("build", PRODUCT_FACTORS, ids=PRODUCT_IDS)
def test_product_laws(build, factor):
    """X x Y is a valid degeneration whose limit is LMHS(X) (x) H(Y): its
    limit Hodge numbers are the convolution of X's with Y's, its criterion
    at (d, r) is the conjunction of X's at (d - b, r) over the degrees b
    with H^b(Y) != 0, its verdict is X's, and its middle signature, where
    there is one, is that of product_signature."""
    X, Y = build(), factor()
    (y,) = Y.strata.values()
    P = support.product(X, Y)
    assert validate_degeneration_data(P).failures == []
    x, p = nearby_hodge_index(X), nearby_hodge_index(P)
    assert p.verdict == x.verdict
    degrees = [b for b in sorted(y.cohomology) if y.dim(b)]
    for d, info in p.per_degree.items():
        below = [(b, x.per_degree[d - b]) for b in degrees if 0 <= d - b <= 2 * X.m]
        hodge = Counter()
        for b, row in below:
            for (a, c), dim in row["hodge"].items():
                for t in y.types(b):
                    hodge[a + t[0], c + t[1]] += dim
        assert info["hodge"] == dict(hodge), d
        assert info["criterion"] == {
            r: all(row["criterion"].get(r, True) for _, row in below)
            for r in info["criterion"]}, d
    if p.signature is not None:
        assert p.signature == product_signature(x, Y)
    else:
        assert build is kodaira_degeneration


def test_product_without_koszul_sign_fails_the_signature_law():
    """Validation does not see a product built without the Koszul sign, but
    the signature law does, on E x E and on an m = 3 ODP model x E.  A
    product with P^1 has no odd factor and cannot see the sign."""
    caught = []
    for name, build in zip(PRODUCT_IDS, PRODUCT_FACTORS):
        X, E = build(), elliptic_smooth()
        mutant = support.product(X, E, koszul=False)
        assert validate_degeneration_data(mutant).ok, name
        signature = nearby_hodge_index(mutant).signature
        if signature is not None and signature != product_signature(nearby_hodge_index(X), E):
            caught.append(name)
    assert caught == ["elliptic_smooth", "odp-m3-l4"]


# -- frame change ---------------------------------------------------------------


def reframed(data: DegenerationData) -> DegenerationData:
    """data with every frame F replaced by F D, D diagonal: it scales each
    conjugate pair of columns (j, sigma(j)) by c = 1 + 2i and by conj(c),
    and each self-conjugate column by 2.  The maps and pairings stay."""
    c = GaussianScalar(1, 2)
    strata = []
    for s in data.strata.values():
        cohomology = {}
        for q, entry in s.cohomology.items():
            F = entry["frame"]
            if F is not None:
                sigma = steenbrink._conj_permutation(F, entry["types"])
                assert all(sigma[sigma[j]] == j for j in range(F.cols))
                scale = [GaussianScalar(2) if k == j else c if j < k else c.conj()
                         for j, k in enumerate(sigma)]
                F = F @ ExactMatrix([[scale[j] if i == j else GaussianScalar(0)
                                      for j in range(F.cols)] for i in range(F.cols)])
            cohomology[q] = {**entry, "frame": F}
        strata.append(StratumCohomology(s.depth, cohomology))
    return DegenerationData(data.m, strata, data.gysin, data.restriction)


FRAME_CHANGE_INPUTS = [elliptic_smooth, kodaira_degeneration, reframed_cycle] + [
    (lambda build=build: support.product(build(), elliptic_smooth())) for build in PRODUCT_FACTORS]
FRAME_CHANGE_IDS = ["elliptic_smooth", "kodaira", "reframed_cycle"] + [
    f"{name}-E" for name in PRODUCT_IDS]


@pytest.mark.parametrize("build", FRAME_CHANGE_INPUTS, ids=FRAME_CHANGE_IDS)
def test_frame_change_keeps_the_index(build):
    """A type-preserving change of frame is a change of coordinates: the
    reframed input passes validation and gives the same report, byte for
    byte."""
    data = build()
    moved = reframed(data)
    frames = [(e["frame"], f["frame"]) for s, t in zip(data.strata.values(), moved.strata.values())
              for e, f in zip(s.cohomology.values(), t.cohomology.values())]
    assert any(F is not None and F != G for F, G in frames)
    assert validate_degeneration_data(moved).ok
    assert json.dumps(nearby_hodge_index(moved).to_json()) == json.dumps(
        nearby_hodge_index(data).to_json())


# -- choice of representatives ----------------------------------------------------


REPRESENTATIVE_INPUTS = [triple_point_degeneration, tetrahedron_degeneration] + [
    (lambda build=build: support.product(build(), elliptic_smooth()))
    for build in (triple_point_degeneration, tetrahedron_degeneration)] + [
    lambda: support.product(support.product(triple_point_degeneration(), elliptic_smooth()),
                            elliptic_smooth())]
REPRESENTATIVE_IDS = ["triple_point", "tetrahedron", "triple_point-E", "tetrahedron-E",
                      "triple_point-E-E"]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build", REPRESENTATIVE_INPUTS, ids=REPRESENTATIVE_IDS)
def test_signatures_do_not_depend_on_representatives(build, seed, monkeypatch):
    """The form on E2 is well defined: moving each primitive basis X of a
    middle-page sector by boundaries, to X + B Y with B the sector's
    boundary basis and Y a seeded small integer matrix, keeps every
    signature.  These inputs have summands with k >= 1 in the middle
    degree, so a sign that depends on k breaks the property."""
    data = build()
    page = e2_page(data, data.m)
    want = steenbrink._e2_signature_table(data, page).entries
    rng = random.Random(seed)
    moved = []
    original = steenbrink._primitive_sector_basis

    def moving(page, r, sec):
        X = original(page, r, sec)
        B = page.term(r).sector_B[sec].basis
        if not B.cols:
            return X
        Y = M([[rng.randint(-2, 2) for _ in range(X.cols)] for _ in range(B.cols)])
        moved.append(not (B @ Y).is_zero())
        return X + B @ Y

    monkeypatch.setattr(steenbrink, "_primitive_sector_basis", moving)
    assert steenbrink._e2_signature_table(data, page).entries == want
    assert any(moved)


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("build", REPRESENTATIVE_INPUTS, ids=REPRESENTATIVE_IDS)
def test_primitive_parts_do_not_depend_on_class_representatives(build, seed, monkeypatch):
    """The primitive parts ker nu^{r+1} are read modulo the target sector's
    boundaries: moving the class representatives X of every sector of the
    middle page to X + B Y, B the sector's boundary basis, moves nu^{r+1} X
    by boundaries of the target, and keeps the criterion and every
    signature."""
    data = build()
    want = steenbrink._e2_signature_table(data, e2_page(data, data.m)).entries
    rng = random.Random(seed)
    moved = {}  # (term, sector) -> the moved representatives, drawn once
    original = steenbrink.E2Term.reps

    def moving(term, sec):
        if (id(term), sec) not in moved:
            X, B = original(term, sec), term.sector_B[sec].basis
            Y = M([[rng.randint(-2, 2) for _ in range(X.cols)] for _ in range(B.cols)])
            moved[id(term), sec] = X + B @ Y if B.cols else X
        return moved[id(term), sec]

    monkeypatch.setattr(steenbrink.E2Term, "reps", moving)
    page = e2_page(data, data.m)
    assert _weight_criterion(page).ok
    assert steenbrink._e2_signature_table(data, page).entries == want
    assert any(X != original(term, sec) for term in page.terms.values()
               for (at, sec), X in moved.items() if at == id(term))


# -- direct sums -------------------------------------------------------------------


SUM_PAIRS = [
    (elliptic_smooth, cycle_degeneration),
    (kodaira_degeneration, triple_point_degeneration),
    (triple_point_degeneration, tetrahedron_degeneration),
    (lambda: support.product(elliptic_smooth(), elliptic_smooth()), tetrahedron_degeneration),
    (lambda: seeded_odp_models(7)[0], lambda: seeded_odp_models(7)[1]),
]
SUM_IDS = ["elliptic_smooth+cycle", "kodaira+triple_point", "triple_point+tetrahedron",
           "ExE+tetrahedron", "odp-m3-l2+odp-m3-l4"]


@pytest.mark.parametrize("x_build,y_build", SUM_PAIRS, ids=SUM_IDS)
def test_direct_sum_laws(x_build, y_build):
    """X + Y, the two side by side, is a valid degeneration whose limit is
    LMHS(X) + LMHS(Y): its limit Hodge numbers add, its criterion at each
    (d, r) is the conjunction of X's and Y's, its verdict is X's and Y's,
    and its middle signature table and signature, where both have one, add
    sector by sector and p by p."""
    X, Y = x_build(), y_build()
    S = support.disjoint_union(X, Y)
    assert validate_degeneration_data(S).failures == []
    x, y, s = nearby_hodge_index(X), nearby_hodge_index(Y), nearby_hodge_index(S)
    assert s.verdict == (x.verdict and y.verdict)
    for d, info in s.per_degree.items():
        parts = [x.per_degree[d], y.per_degree[d]]
        assert info["hodge"] == dict(sum((Counter(row["hodge"]) for row in parts), Counter())), d
        assert info["criterion"] == {
            r: all(row["criterion"][r] for row in parts) for r in info["criterion"]}, d
    if x.signature is None or y.signature is None:
        assert s.signature is None
        return

    def add(a: dict, b: dict) -> dict:
        zero = (0, 0)
        return {k: tuple(u + v for u, v in zip(a.get(k, zero), b.get(k, zero))) for k in a | b}

    assert s.table.entries == add(x.table.entries, y.table.entries)
    assert s.signature == add(x.signature, y.signature)
