"""End-to-end acceptance checks with explicit wall-clock budgets.

Each test exercises a full-size workload exactly (no tolerances anywhere)
and asserts a runtime bound, so regressions in either correctness or
performance fail loudly.  Budgets assume a single ordinary CPU core.
"""

import json
import random
import time
from importlib import resources

from lmhs.exactlin import ExactMatrix
from lmhs.filtration import (
    IncreasingFiltration,
    check_weight_axioms,
    weight_filtration,
)
from lmhs.geomodels import (
    LefschetzInput,
    OdpInput,
    ResolutionData,
    fiber_product_dim_check,
    fiber_product_readings,
    full_signature,
    hashimoto_sano_pic_fixture,
    k3_hodge_numbers,
    kahler_index_formula,
    odp_index_formula,
    odp_semistable_model,
    sano_index_table,
    sano_negative_count,
    schoen_input,
)
from lmhs.identities import jordan_exponential, taylor_minor_identity, wedge_identity
from lmhs.mhs import MHSData, random_polarized_mhs
from lmhs.orbit import verify_main_theorem
from lmhs.steenbrink import (
    DegenerationData,
    e2_page,
    extract_limit_mhs,
    nearby_hodge_index,
    validate_degeneration_data,
    weight_criterion,
)

from support import invert, random_invertible, random_nilpotent


def load_fixture(name):
    text = resources.files("lmhs").joinpath("fixtures", name).read_text()
    return json.loads(text)


class Budget:
    """Context manager asserting the body ran inside a wall-clock limit."""

    def __init__(self, seconds):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.limit, (
                f"took {elapsed:.2f} s, budget {self.limit} s"
            )
        return False


def test_combinatorial_identities_full_range():
    # determinant identities behind the orbit asymptotics, every (n, k)
    with Budget(5):
        for n in range(0, 9):
            exponential = jordan_exponential(n)
            for k in range(0, n + 2):
                assert taylor_minor_identity(n, k), (n, k)
                assert wedge_identity(n, k, exponential), (n, k)


def test_weight_filtration_oracle_random_nilpotents():
    rng = random.Random(20260826)
    with Budget(10):
        for trial in range(100):
            N = random_nilpotent(rng, 10)
            n = N.rows
            d = rng.randrange(0, 5)
            W = weight_filtration(N, d)
            assert check_weight_axioms(W, N, d).ok, trial
            # the construction is insensitive to the sign of N
            assert W == weight_filtration(-N, d), trial
            # uniqueness: shifting the whole filtration by one weight
            # breaks the graded symmetry about d, so no distinct shift of
            # the answer satisfies the axioms
            shifted = IncreasingFiltration(
                n, {w - 1: W.at(w) for w in range(W.min_index(), W.max_index() + 1)}
            )
            assert not check_weight_axioms(shifted, N, d).ok, trial
            if trial % 10 == 0:
                # functoriality: conjugating N transports the filtration
                T = random_invertible(rng, n)
                WT = weight_filtration(T @ N @ invert(T), d)
                assert W.apply(T) == WT, trial


def test_orbit_theorem_on_random_polarized_structures():
    rng = random.Random(20260826)
    with Budget(120):
        for trial in range(100):
            data, expected = random_polarized_mhs(rng, max_dim=10, max_d=4)
            report = verify_main_theorem(data)
            assert report.ok, (trial, report.failures)
            assert report.details["table"].entries == expected, trial


def test_elliptic_fixture_orbit_signature():
    with Budget(1):
        data = MHSData.from_json(load_fixture("elliptic.json"))
        report = verify_main_theorem(data)
        assert report.ok, report.failures
        assert report.details["polarized"]
        assert report.details["levels"][1] == (1, 0)


def test_kodaira_surface_fails_criterion():
    with Budget(1):
        data = DegenerationData.from_json(load_fixture("kodaira.json"))
        page = e2_page(data, 1)
        # weights 0, 1, 2 of the degree-1 limit
        assert (page.dim(-1), page.dim(0), page.dim(1)) == (1, 0, 0)
        crit = weight_criterion(data, 1)
        assert crit.per_r == {0: True, 1: False}
        assert not crit.ok
        limit = extract_limit_mhs(data, 1)
        assert limit.ambient_dim == 1
        # the single limit class sits in F^0 but not F^1: h^{0,1} = 1
        assert limit.F.at(0).dim - limit.F.at(1).dim == 1


def test_node_resolution_two_path_agreement():
    with Budget(30):
        for l in range(0, 4):
            for R in range(0, l + 1):
                c = l - R
                rows = [[1 if t == i % max(c, 1) else 0 for t in range(c)]
                        for i in range(l)]
                rho = (ExactMatrix.from_rational(rows) if c
                       else ExactMatrix.zero(l, 0))
                res = ResolutionData(3, l, signs=(-1, -1), rho=rho)
                data = odp_semistable_model(res)
                assert validate_degeneration_data(data).ok, (l, R)
                rep = nearby_hodge_index(data)
                assert rep.verdict and not rep.failures, (l, R)
                want = odp_index_formula(OdpInput.from_resolution(res))
                assert rep.signature == want, (l, R)
        for l in range(0, 4):
            for signs in [(1, -1), (1, 1, -1)]:
                res = ResolutionData(4, l, vhat_signs=signs)
                data = odp_semistable_model(res)
                assert validate_degeneration_data(data).ok, (l, signs)
                rep = nearby_hodge_index(data)
                assert rep.verdict and not rep.failures, (l, signs)
                want = odp_index_formula(OdpInput.from_resolution(res))
                assert rep.signature == want, (l, signs)


def test_series_tables_and_gluing_fixture():
    with Budget(1):
        for a in range(1, 5):
            assert sano_negative_count(4, a) == a + 1
        for m in (6, 8, 10):
            for a in range(1, 4):
                assert sano_negative_count(m, a) == a + 2
        assert sano_negative_count(5, 1) == 277
        for m in (3, 7, 11):
            assert sano_negative_count(m, 2) == 0
        table = sano_index_table(5, 1, hodge={2: 300, 3: 300})
        assert table[2] == {"negative": 277, "positive": 23}
        assert table[3] == {"negative": 277, "positive": 23}
        assert table[0] == {"negative": 0, "positive": 0}
        for a in (1, 2, 3):
            fx = hashimoto_sano_pic_fixture(a)
            assert fx["unimodular"], a
            assert fx["form_preserved"], a
            assert fx["composite_rank"] == 3, a
            assert fx["ok"], a


def test_surface_index_and_fiber_product_counts():
    with Budget(5):
        k3 = k3_hodge_numbers()
        assert kahler_index_formula(k3, 2, 1) == (19, 1)
        assert full_signature(k3, 2) == -16
        readings = fiber_product_readings(schoen_input())
        assert readings["symmetric"] == 19
        chk = fiber_product_dim_check(schoen_input())
        assert chk["ok"] and chk["fiber_product"] == 19
        rng = random.Random(8262026)

        def betti(m):
            n = m - 1
            half = [rng.randint(0, 9) for _ in range(n)]
            return half + [rng.randint(0, 9)] + half[::-1]

        for trial in range(50):
            m1 = rng.choice([2, 3, 4])
            m2 = rng.choice([2, 3, 4])
            b1, b2 = betti(m1), betti(m2)
            inp = LefschetzInput(
                m1, m2, rng.randint(40, 80), rng.randint(40, 80), b1, b2,
                rng.randint(0, b1[m1 - 1]), rng.randint(0, b2[m2 - 1]),
                van_b1=rng.randint(0, 9), van_b2=rng.randint(0, 9))
            assert fiber_product_dim_check(inp)["ok"], trial
