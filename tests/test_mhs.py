"""Tests for mixed Hodge structures, splittings and signature tables."""

import json
import random
import re
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from lmhs import signature
from lmhs.exactlin import ContractError, ExactMatrix, G_I, G_ONE, G_ZERO, Subspace
from lmhs.filtration import DecreasingFiltration, IncreasingFiltration, graded_piece
from lmhs.mhs import (
    DeligneSplitting,
    MHSData,
    check_mhs,
    check_situation_a,
    check_situation_b,
    check_splitting_properties,
    deligne_splitting,
    primitive_forms,
    primitive_part,
    random_polarized_mhs,
    signature_table,
)
from lmhs.signature import SignatureTable, aggregate_s, epsilon_sign, nearby_index_formula
from support import jordan_nilpotent, reference_check_mhs, reference_deligne_splitting


def rat(rows):
    return ExactMatrix.from_rational(rows)


def table_of(data: MHSData):
    """The signature table of data, from its splitting and primitive forms."""
    sp = deligne_splitting(data)
    return signature_table(data, sp, primitive_forms(data, sp))


def elliptic_string() -> MHSData:
    """dim 2, d=1: basis u, Nu with S(u, Nu) = 1 (antisymmetric)."""
    W = IncreasingFiltration(
        2, {0: Subspace.span(2, [[0, 1]]), 2: Subspace.full(2)}
    )
    F = DecreasingFiltration(
        2, {0: Subspace.full(2), 1: Subspace.span(2, [[1, 0]])}
    )
    N = rat([[0, 0], [1, 0]])
    S = rat([[0, 1], [-1, 0]])
    return MHSData(2, 1, W, F, N, S)


def tate_string_3() -> MHSData:
    """dim 3, d=2: basis u, Nu, N^2 u with S(u, N^2 u) = 1, S(Nu, Nu) = -1."""
    W = IncreasingFiltration(
        3,
        {
            0: Subspace.span(3, [[0, 0, 1]]),
            2: Subspace.span(3, [[0, 0, 1], [0, 1, 0]]),
            4: Subspace.full(3),
        },
    )
    F = DecreasingFiltration(
        3,
        {
            0: Subspace.full(3),
            1: Subspace.span(3, [[1, 0, 0], [0, 1, 0]]),
            2: Subspace.span(3, [[1, 0, 0]]),
        },
    )
    N = rat([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    S = rat([[0, 0, 1], [0, -1, 0], [1, 0, 0]])
    return MHSData(3, 2, W, F, N, S)


def nonsplit_tate() -> MHSData:
    """dim 2, d irrelevant (weights 0 and 2): F^1 = span{e1 + i e2}."""
    W = IncreasingFiltration(
        2, {0: Subspace.span(2, [[0, 1]]), 2: Subspace.full(2)}
    )
    F = DecreasingFiltration(
        2,
        {0: Subspace.full(2), 1: Subspace.span(2, [[G_ONE, G_I]])},
    )
    return MHSData(2, 1, W, F)


class TestEpsilonSign:
    def test_values(self):
        assert [epsilon_sign(a) for a in range(0, 5)] == [1, 1, -1, -1, 1]

    def test_identities(self):
        for a in range(-8, 9):
            assert epsilon_sign(a + 1) == (-1) ** a * epsilon_sign(a)
            assert epsilon_sign(-a) == epsilon_sign(a + 1)
            assert epsilon_sign(a) * epsilon_sign(a + 1) == (-1) ** a
            assert epsilon_sign(a - 2) == -epsilon_sign(a)


class TestCheckMHS:
    def test_pure_weight_d(self):
        # weight-1 pure: F^1 = span{e1 + i e2}, conj spans the complement
        W = IncreasingFiltration(2, {1: Subspace.full(2)})
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[G_ONE, G_I]])}
        )
        assert check_mhs(MHSData(2, 1, W, F)).ok

    def test_split_hodge_tate(self):
        W = IncreasingFiltration(
            2, {0: Subspace.span(2, [[0, 1]]), 2: Subspace.full(2)}
        )
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[1, 0]])}
        )
        assert check_mhs(MHSData(2, 1, W, F)).ok

    def test_nonsplit_example(self):
        assert check_mhs(nonsplit_tate()).ok

    def test_bad_structure_fails(self):
        # F^1 inside W_0: graded opposedness breaks on Gr_2
        W = IncreasingFiltration(
            2, {0: Subspace.span(2, [[0, 1]]), 2: Subspace.full(2)}
        )
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[0, 1]])}
        )
        assert not check_mhs(MHSData(2, 1, W, F)).ok


class TestDeligneSplitting:
    def test_pure(self):
        W = IncreasingFiltration(2, {1: Subspace.full(2)})
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[G_ONE, G_I]])}
        )
        data = MHSData(2, 1, W, F)
        sp = deligne_splitting(data)
        assert sp.bigrading() == {(0, 1): 1, (1, 0): 1}
        assert sp.part(1, 0) == F.at(1)
        assert sp.part(0, 1) == F.at(1).conj()

    def test_split_string(self):
        data = elliptic_string()
        sp = deligne_splitting(data)
        assert sp.bigrading() == {(0, 0): 1, (1, 1): 1}
        assert sp.part(1, 1).contains_vector([G_ONE, G_ZERO])

    def test_nonsplit(self):
        data = nonsplit_tate()
        sp = deligne_splitting(data)
        assert sp.bigrading() == {(0, 0): 1, (1, 1): 1}
        assert sp.part(1, 1).contains_vector([G_ONE, G_I])
        assert sp.part(0, 0).contains_vector([G_ZERO, G_ONE])

    def test_splitting_properties(self):
        for data in [elliptic_string(), tate_string_3(), nonsplit_tate()]:
            sp = deligne_splitting(data)
            report = check_splitting_properties(data, sp)
            assert report.ok, report.failures

    def test_real_splitting_breaks_conjugation(self):
        # pure weight 1 with F^1 = <(1, i)>: the real line <(1, 0)> as
        # I^(0,1) rebuilds W and F and is paired correctly by S, but it is
        # not the conjugate of I^(1,0)
        W = IncreasingFiltration(2, {1: Subspace.full(2)})
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[G_ONE, G_I]])}
        )
        data = MHSData(2, 1, W, F, S=rat([[0, 1], [-1, 0]]))
        sp = DeligneSplitting(2, {(1, 0): F.at(1), (0, 1): Subspace.span(2, [[1, 0]])})
        assert check_splitting_properties(data, sp).failures == [
            "conj I^(1,0) escapes I^(0,1) + lower terms",
            "conj I^(0,1) escapes I^(1,0) + lower terms",
        ]


class TestSituations:
    def test_situation_a_strings(self):
        assert check_situation_a(elliptic_string())
        assert check_situation_a(tate_string_3())

    def test_situation_a_pure_zero_n(self):
        W = IncreasingFiltration(2, {1: Subspace.full(2)})
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[G_ONE, G_I]])}
        )
        data = MHSData(2, 1, W, F, N=ExactMatrix.zero(2, 2))
        assert check_situation_a(data)

    def test_situation_a_wrong_weights(self):
        # weight jump at 0 with N = 0 but d = 1: W != W(N, 1)
        W = IncreasingFiltration(1, {0: Subspace.full(1)})
        F = DecreasingFiltration(1, {0: Subspace.full(1)})
        data = MHSData(1, 1, W, F, N=ExactMatrix.zero(1, 1))
        assert not check_situation_a(data)

    def test_situation_b_elliptic(self):
        assert check_situation_b(elliptic_string())

    def test_situation_b_identity_fails(self):
        W = IncreasingFiltration(
            2, {0: Subspace.span(2, [[0, 1]]), 2: Subspace.full(2)}
        )
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[1, 0]])}
        )
        N = rat([[0, 0], [1, 0]])
        # the identity is symmetric, but d = 1 needs antisymmetric
        data = MHSData(2, 1, W, F, N, S=ExactMatrix.identity(2))
        assert not check_situation_b(data)
        # an antisymmetric nondegenerate S on an all-weight-0 space must pair
        # W_0 with itself, which violates weight orthogonality at d = 1
        data2 = MHSData(
            2,
            1,
            IncreasingFiltration(2, {0: Subspace.full(2)}),
            DecreasingFiltration(2, {0: Subspace.full(2)}),
            N=None,
            S=rat([[0, 1], [-1, 0]]),
        )
        assert not check_situation_b(data2)

    def test_situation_b_pure_polarized(self):
        W = IncreasingFiltration(2, {2: Subspace.full(2)})
        F2 = Subspace.span(2, [[G_ONE, G_I]])
        F = DecreasingFiltration(2, {0: Subspace.full(2), 2: F2})
        S = rat([[-1, 0], [0, -1]])
        data = MHSData(2, 2, W, F, N=ExactMatrix.zero(2, 2), S=S)
        assert check_situation_b(data)


class TestPrimitivePart:
    def test_string3(self):
        data = tate_string_3()
        assert primitive_part(data, 2).dim == 1
        assert primitive_part(data, 1).dim == 0
        assert primitive_part(data, 0).dim == 0
        assert primitive_part(data, -1).dim == 0

    def test_zero_n(self):
        W = IncreasingFiltration(2, {1: Subspace.full(2)})
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[G_ONE, G_I]])}
        )
        data = MHSData(2, 1, W, F, N=ExactMatrix.zero(2, 2))
        assert primitive_part(data, 0).dim == 2

    def test_strings_2_1(self):
        N = jordan_nilpotent([2, 1])
        from lmhs.filtration import weight_filtration

        W = weight_filtration(N, 1)
        F = DecreasingFiltration(
            3,
            {
                0: Subspace.full(3),
                1: Subspace.span(3, [[1, 0, 0]]),
            },
        )
        data = MHSData(3, 1, W, F, N=N)
        assert primitive_part(data, 1).dim == 1
        assert primitive_part(data, 0).dim == 1


class TestSignatureTable:
    def test_elliptic(self):
        table = table_of(elliptic_string())
        assert table.entries == {(1, 1): (1, 0)}

    def test_k3_type_sublattice(self):
        # pure weight 2, rank 2 in the (1,1)-part, intersection form diag(2,-2);
        # the Weil factor on (1,1) is 1 and conjugation is trivial there
        W = IncreasingFiltration(2, {2: Subspace.full(2)})
        F = DecreasingFiltration(2, {0: Subspace.full(2), 1: Subspace.full(2)})
        S = rat([[2, 0], [0, -2]])
        data = MHSData(2, 2, W, F, N=ExactMatrix.zero(2, 2), S=S)
        table = table_of(data)
        assert table.entries == {(1, 1): (1, 1)}

    def test_positive_line(self):
        W = IncreasingFiltration(2, {2: Subspace.full(2)})
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 2: Subspace.span(2, [[G_ONE, G_I]])}
        )
        S = rat([[-1, 0], [0, -1]])
        data = MHSData(2, 2, W, F, N=ExactMatrix.zero(2, 2), S=S)
        table = table_of(data)
        assert table.signature(2, 0) == (1, 0)
        assert table.signature(0, 2) == (1, 0)

    def test_tate3(self):
        table = table_of(tate_string_3())
        assert table.entries == {(2, 2): (1, 0)}

    def test_degenerate_block_rejected(self):
        # a degenerate primitive Hermitian block is a contract error
        data = elliptic_string()
        bad = MHSData(2, 1, data.W, data.F, data.N, rat([[0, 0], [0, 0]]))
        with pytest.raises(ValueError):
            table_of(bad)


class TestAggregation:
    def test_elliptic_aggregate(self):
        table = table_of(elliptic_string())
        assert aggregate_s(table, 1, 1) == (1, 0)
        assert aggregate_s(table, 0, -1) == (1, 0)
        assert nearby_index_formula(table, 1) == (1, 0)
        assert nearby_index_formula(table, 0) == (1, 0)

    def test_tate3_aggregate(self):
        table = table_of(tate_string_3())
        assert aggregate_s(table, 1, 0) == (1, 0)
        assert nearby_index_formula(table, 1) == (1, 0)
        assert nearby_index_formula(table, 2) == (1, 0)
        assert nearby_index_formula(table, 0) == (1, 0)

    def test_pure_reproduces_table(self):
        W = IncreasingFiltration(2, {2: Subspace.full(2)})
        F = DecreasingFiltration(2, {0: Subspace.full(2), 1: Subspace.full(2)})
        S = rat([[2, 0], [0, -2]])
        data = MHSData(2, 2, W, F, N=ExactMatrix.zero(2, 2), S=S)
        table = table_of(data)
        assert nearby_index_formula(table, 1) == table.signature(1, 1)

    def test_wrong_part_dimension_message(self):
        # tate3's table with dim I^(1,1) = 2: S^(1,1) = s^(1,1) + s^(2,2) = 1+0
        table = SignatureTable(2, {(2, 2): (1, 0)}, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
        message = "^" + re.escape("aggregate S^(1,1) = 1+0 but dim I^(1,1) = 2") + "$"
        for aggregate in (lambda: aggregate_s(table, 1, 0), lambda: nearby_index_formula(table, 1)):
            with pytest.raises(ContractError, match=message):
                aggregate()

    def test_cross_check_fires_on_a_wrong_formula(self, monkeypatch):
        # a mutant single-sum formula, one too many S+ per k = 0..2
        table = table_of(tate_string_3())
        original = signature.aggregate_s
        monkeypatch.setattr(signature, "aggregate_s",
                            lambda *args: (original(*args)[0] + 1, original(*args)[1]))
        message = "^" + re.escape("aggregation forms disagree at p=2: (4, 0) vs (1, 0)") + "$"
        with pytest.raises(ContractError, match=message):
            nearby_index_formula(table, 2)

    def test_empty_table(self):
        table = SignatureTable(2, {}, {})
        assert table.top is None
        assert [aggregate_s(table, p, l) for p in range(3) for l in range(-2, 3)] == [(0, 0)] * 15
        assert [nearby_index_formula(table, p) for p in range(3)] == [(0, 0)] * 3


class TestRandomPolarized:
    def test_generator_properties(self):
        rng = random.Random(101)
        for _ in range(20):
            data, expected = random_polarized_mhs(rng, max_dim=8, max_d=3)
            assert check_mhs(data).ok
            sp = deligne_splitting(data)
            report = check_splitting_properties(data, sp)
            assert report.ok, report.failures
            assert check_situation_a(data)
            assert check_situation_b(data)
            table = signature_table(data, sp, primitive_forms(data, sp))
            assert table.entries == expected, (table.entries, expected)
            # Hodge-number symmetry dim Gr_F^p = dim Gr_F^{d-p}
            F, d = data.F, data.d
            for p in range(F.min_index(), F.max_index() + 1):
                a = F.at(p).dim - F.at(p + 1).dim
                b = F.at(d - p).dim - F.at(d - p + 1).dim
                assert a == b
            # N-Lefschetz dimension bookkeeping on graded pieces
            for l in range(0, d + 1):
                gr = graded_piece(data.W, d + l)
                # dim Gr_{d+l} = sum over r >= 0 of prim dims at level l + 2r
                prim_total = sum(
                    primitive_part(data, l + 2 * r).dim for r in range(0, d + 1)
                )
                assert gr.dim == prim_total

    def test_non_polarized_signs_show_up(self):
        rng = random.Random(7)
        saw_minus = False
        for _ in range(15):
            data, expected = random_polarized_mhs(
                rng, max_dim=6, max_d=3, polarized=False
            )
            table = table_of(data)
            assert table.entries == expected
            if any(m for (_, m) in table.entries.values()):
                saw_minus = True
        assert saw_minus

    def test_twist_makes_nonsplit(self):
        # with the twist the splitting need not be conjugation-stable;
        # find at least one instance where conj I^{p,q} != I^{q,p}
        rng = random.Random(19)
        found = False
        for _ in range(25):
            data, _ = random_polarized_mhs(rng, max_dim=8, max_d=3, transport=False)
            sp = deligne_splitting(data)
            for (p, q), sub in sp.parts.items():
                if sp.part(q, p) != sub.conj():
                    found = True
                    break
            if found:
                break
        assert found, "twisted generator never produced a non-split instance"


# -- one F^a ∩ W_b per pair: the outputs of the direct forms -------------------


def fixture(name: str) -> MHSData:
    return MHSData.from_json(json.loads(
        resources.files("lmhs").joinpath("fixtures", name).read_text()))


def real_top(data: MHSData, rng: random.Random) -> MHSData:
    """data with F's top step replaced by a random real span V of its
    dimension (at least 1), and V added to every lower step so that F stays
    a filtration.  F's top step then meets its conjugate, so the result is
    most often no MHS."""
    n, F = data.ambient_dim, data.F
    top = F.max_index()
    V = Subspace.span(n, [[rng.randint(-3, 3) for _ in range(n)]
                          for _ in range(max(F.at(top).dim, 1))])
    steps = {p: V if p == top else sub.add(V) for p, sub in F.steps}
    return MHSData(n, data.d, data.W, DecreasingFiltration(n, steps), data.N, data.S)


def shifted_weights(data: MHSData, rng: random.Random) -> MHSData:
    """data with W moved up one weight: the graded dimensions no longer
    add up."""
    return MHSData(data.ambient_dim, data.d, data.W.shift(1), data.F, data.N, data.S)


def real_line_elliptic(a: int, b: int) -> MHSData:
    """elliptic.json with F^1 the real line through (a, b)."""
    data = fixture("elliptic.json")
    F = DecreasingFiltration(2, {0: Subspace.full(2), 1: Subspace.span(2, [[a, b]]),
                                 2: Subspace.zero(2)})
    return MHSData(2, data.d, data.W, F, data.N, data.S)


def outcome(check, split, data: MHSData):
    """The failure list of check and the basis storage of each part of
    split, or its contract error on a structure that is no MHS."""
    failures = check(data).failures
    try:
        parts = {pq: (sub.basis.re, sub.basis.im, sub.basis.den)
                 for pq, sub in split(data).parts.items()}
    except ContractError as exc:
        parts = str(exc)
    return failures, parts


GENERATOR_SETTINGS = {
    "polarized": {},
    "unpolarized": {"polarized": False},
    "untransported": {"transport": False},
    "untwisted": {"twist": False},
}
MUTANTS = {"none": lambda data, rng: data, "real top": real_top,
           "shifted weights": shifted_weights}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(sorted(GENERATOR_SETTINGS)),
       st.sampled_from([8, 4, 10, 6]), st.integers(1, 4), st.sampled_from(sorted(MUTANTS)))
def test_shared_meets_keep_the_direct_outputs(seed, setting, max_dim, max_d, mutant):
    """check_mhs and deligne_splitting read conj F^a ∩ W_b as a conjugate
    and test opposedness by a span; their failure lists and part storage
    equal those of the direct forms, on generated structures and on
    mutants that are no MHS."""
    rng = random.Random(seed)
    data, _ = random_polarized_mhs(rng, max_dim=max_dim, max_d=max_d,
                                   **GENERATOR_SETTINGS[setting])
    data = MUTANTS[mutant](data, rng)
    assert outcome(check_mhs, deligne_splitting, data) == outcome(
        reference_check_mhs, reference_deligne_splitting, data)


@pytest.mark.parametrize("a, b", [(1, 0), (0, 1), (2, -1), (-3, 3)])
def test_real_hodge_line_meets_its_conjugate(a, b):
    """A real F^1 of weight 1 has the right graded dimensions and meets its
    conjugate: only the span test finds it, as the direct form does."""
    data = real_line_elliptic(a, b)
    failures = ["weight 1, level 1: induced F^1 meets conj F^1"]
    assert outcome(check_mhs, deligne_splitting, data) == outcome(
        reference_check_mhs, reference_deligne_splitting, data) == (
        failures, f"not a mixed Hodge structure: {failures}")


@pytest.mark.parametrize("source, check, split", [
    ("elliptic.json", 3, 8),
    ("tate3.json", 6, 11),
    (0, 2, 5),
    (1, 12, 30),
    (2, 9, 19),
])
def test_each_meet_is_formed_once(source, check, split, monkeypatch):
    """Ceilings on the Subspace.intersect calls of check_mhs and of
    deligne_splitting, whose own MHS check is included.  Each F^a ∩ W_b is
    formed once per call, conj F^a ∩ W_b is its conjugate, and opposedness
    is a span, so none of these savings can regress unseen."""
    if isinstance(source, int):
        data, _ = random_polarized_mhs(random.Random(20261018 + source), max_dim=6, max_d=3)
    else:
        data = fixture(source)
    calls = []
    intersect = Subspace.intersect
    monkeypatch.setattr(Subspace, "intersect",
                        lambda self, other: calls.append(1) or intersect(self, other))
    assert check_mhs(data).ok
    assert len(calls) <= check
    calls.clear()
    deligne_splitting(data)
    assert len(calls) <= split
