"""Tests for filtrations, graded pieces and the monodromy weight filtration."""

import json
import random
from pathlib import Path

import pytest

from lmhs.exactlin import ExactMatrix, Subspace, image, kernel, matrix_to_json, rank
from lmhs.filtration import (
    DecreasingFiltration,
    IncreasingFiltration,
    check_weight_axioms,
    graded_piece,
    induced_map,
    weight_filtration,
)
from support import (
    invert, jordan_nilpotent, passed_under_python_O, random_invertible, random_nilpotent,
    under_python_O,
)

WEIGHT_GOLDEN = Path(__file__).parent / "golden" / "weight-filtration.json"


def closed_form_weight_step(N: ExactMatrix, d: int, w: int) -> Subspace:
    """Independent oracle: W_{d+l} = sum over a >= max(0,-l) of
    (ker N^(l+a+1) intersect im N^a).  Derived by splitting into Jordan
    strings: the piece of a length-(e+1) string in W_{d+l} is spanned by the
    N^a u with 2a >= e - l, and ker/im of powers cut exactly those out.
    """
    n = N.rows
    l = w - d
    out = Subspace.zero(n)
    for a in range(max(0, -l), n + 1):
        ka = kernel(N.power(max(0, l + a + 1)))
        ia = image(N.power(a))
        out = out.add(ka.intersect(ia))
    return out


class TestFiltrationTypes:
    def test_increasing_clamps(self):
        W = IncreasingFiltration(
            2, {0: Subspace.span(2, [[1, 0]]), 1: Subspace.full(2)}
        )
        assert W.at(-5).dim == 0
        assert W.at(0).dim == 1
        assert W.at(7).dim == 2

    def test_decreasing_clamps(self):
        F = DecreasingFiltration(
            2, {0: Subspace.full(2), 1: Subspace.span(2, [[1, 0]])}
        )
        assert F.at(-3).dim == 2
        assert F.at(1).dim == 1
        assert F.at(2).dim == 0

    def test_nesting_enforced(self):
        with pytest.raises(AssertionError):
            IncreasingFiltration(
                2,
                {
                    0: Subspace.span(2, [[1, 0]]),
                    1: Subspace.span(2, [[0, 1]]),
                    2: Subspace.full(2),
                },
            )

    def test_gap_semantics(self):
        W = IncreasingFiltration(
            3, {0: Subspace.span(3, [[1, 0, 0]]), 4: Subspace.full(3)}
        )
        # between stored jumps the value is the one at the largest lower jump
        assert W.at(2) == W.at(0)
        assert W.at(3) == W.at(0)


class TestGradedPieces:
    def test_identity_induced(self):
        W = IncreasingFiltration(
            2, {0: Subspace.span(2, [[1, 0]]), 1: Subspace.full(2)}
        )
        piece = graded_piece(W, 1)
        M = induced_map(ExactMatrix.identity(2), piece, piece)
        assert M == ExactMatrix.identity(1)

    def test_jordan_string_graded_maps(self):
        N = jordan_nilpotent([3])
        W = weight_filtration(N, 2)
        g4 = graded_piece(W, 4)
        g2 = graded_piece(W, 2)
        g0 = graded_piece(W, 0)
        assert (g4.dim, g2.dim, g0.dim) == (1, 1, 1)
        assert induced_map(N, g4, g2) == ExactMatrix.from_rational([[1]])
        assert induced_map(N.power(2), g4, g0) == ExactMatrix.from_rational([[1]])

    def test_incompatible_map_rejected(self):
        W = IncreasingFiltration(
            2, {0: Subspace.span(2, [[1, 0]]), 1: Subspace.full(2)}
        )
        g0 = graded_piece(W, 0)
        flip = ExactMatrix.from_rational([[0, 1], [1, 0]])
        with pytest.raises(ValueError):
            induced_map(flip, g0, g0)

    def test_non_nested_steps_rejected(self):
        # W_0 = span(e1) and W_1 = span(e2) are not nested; the constructor's
        # nesting check refuses them, so build W past it
        W = object.__new__(IncreasingFiltration)
        object.__setattr__(W, "ambient_dim", 2)
        object.__setattr__(W, "steps", (
            (0, Subspace.span(2, [[1, 0]])),
            (1, Subspace.span(2, [[0, 1]])),
            (2, Subspace.full(2)),
        ))
        with pytest.raises(ValueError, match="W_0 is not inside W_1"):
            graded_piece(W, 1)
        report = check_weight_axioms(W, ExactMatrix.zero(2, 2), 2)
        assert "W_0 is not inside W_1" in report.failures


class TestWeightFiltration:
    def test_zero_n(self):
        N = ExactMatrix.zero(3, 3)
        W = weight_filtration(N, 2)
        assert W.at(1).dim == 0
        assert W.at(2).dim == 3

    def test_single_string(self):
        N = jordan_nilpotent([3])
        W = weight_filtration(N, 2)
        dims = [W.at(w).dim for w in range(-1, 5)]
        assert dims == [0, 1, 1, 2, 2, 3]
        assert W.at(0).contains_vector(image(N.power(2)).basis.column(0))

    def test_two_strings_d1(self):
        N = jordan_nilpotent([2, 1])
        W = weight_filtration(N, 1)
        g0 = graded_piece(W, 0)
        g1 = graded_piece(W, 1)
        g2 = graded_piece(W, 2)
        assert (g0.dim, g1.dim, g2.dim) == (1, 1, 1)
        assert check_weight_axioms(W, N, 1).ok

    def test_axioms_random(self):
        rng = random.Random(23)
        for _ in range(30):
            N = random_nilpotent(rng, 7)
            d = rng.randrange(0, 4)
            W = weight_filtration(N, d)
            report = check_weight_axioms(W, N, d)
            assert report.ok, report.failures

    def test_closed_form_oracle(self):
        rng = random.Random(29)
        for _ in range(15):
            N = random_nilpotent(rng, 6)
            d = 3
            W = weight_filtration(N, d)
            for w in range(d - N.rows - 1, d + N.rows + 2):
                assert W.at(w) == closed_form_weight_step(N, d, w), (
                    f"mismatch at weight {w}"
                )

    def test_sign_independence(self):
        rng = random.Random(31)
        for _ in range(10):
            N = random_nilpotent(rng, 6)
            assert weight_filtration(N, 2) == weight_filtration(-N, 2)

    def test_center_shift(self):
        rng = random.Random(37)
        N = random_nilpotent(rng, 6)
        assert weight_filtration(N, 5) == weight_filtration(N, 2).shift(3)

    def test_uniqueness(self):
        # any candidate passing the axioms equals weight_filtration(N, d)
        rng = random.Random(41)
        for _ in range(10):
            N = random_nilpotent(rng, 6)
            d = 2
            W = weight_filtration(N, d)
            # shifting by one breaks the axioms whenever N acts nontrivially
            shifted = W.shift(1)
            if shifted != W:
                assert not check_weight_axioms(shifted, N, d).ok
            # a conjugated filtration passing the axioms must coincide with W
            T = random_invertible(rng, N.rows)
            W2 = W.apply(T)
            if check_weight_axioms(W2, N, d).ok:
                assert W2 == W

    def test_non_nilpotent_rejected(self):
        with pytest.raises(AssertionError):
            weight_filtration(ExactMatrix.identity(2), 1)

    def test_shifted_string_fails_axioms(self):
        N = jordan_nilpotent([3])
        W = weight_filtration(N, 2).shift(1)
        report = check_weight_axioms(W, N, 2)
        assert not report.ok
        assert report.failures


CONTRACT_TESTS = under_python_O(__file__, [
    "TestFiltrationTypes::test_nesting_enforced",
    "TestWeightFiltration::test_non_nilpotent_rejected",
])


def test_contract_errors_survive_python_O():
    """The contract tests of this module pass under python -O as well, where
    assert statements are off: the checks raise ContractError."""
    passed, output = passed_under_python_O()
    assert set(CONTRACT_TESTS) <= passed, output


def weight_filtration_record() -> list[dict]:
    """W(N, d) on seeded nilpotents as JSON: the basis of every step, the
    representatives of every graded piece, and the map N^l induces from
    Gr_k to Gr_{k-2l} for every l >= 1 and every k inside the filtration.

    tests/golden/weight-filtration.json holds this record from before the
    graded pieces and W(N, d) took their subquotients from exactlin.  To
    record it again, run from tests/ with PYTHONPATH=../src:
    python -c "import json, test_filtration as t;
    print(json.dumps(t.weight_filtration_record()))"
    """
    rng = random.Random(20261018)
    out = []
    for _ in range(40):
        N = random_nilpotent(rng, 7)
        d = rng.randrange(0, 4)
        W = weight_filtration(N, d)
        lo, hi = W.min_index(), W.max_index()
        pieces = {k: graded_piece(W, k) for k in range(lo, hi + 1)}
        maps = []
        for l in range(1, (hi - lo) // 2 + 1):
            Nl = N.power(l)
            for k in range(lo + 2 * l, hi + 1):
                M = induced_map(Nl, pieces[k], pieces[k - 2 * l])
                maps.append({"power": l, "from": k, "matrix": matrix_to_json(M)})
        out.append({
            "N": matrix_to_json(N),
            "d": d,
            "steps": [[w, matrix_to_json(sub.basis)] for w, sub in W.steps],
            "reps": [[k, matrix_to_json(g.reps)] for k, g in pieces.items()],
            "maps": maps,
        })
    return out


def test_weight_filtration_matches_recording():
    assert weight_filtration_record() == json.loads(WEIGHT_GOLDEN.read_text())
