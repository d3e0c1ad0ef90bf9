"""Builders and closed-form evaluators for families of geometric examples:
semistable models of ordinary-double-point smoothings, the Kahler-type index
formula, Lefschetz/fiber-product Betti counts, and the index tables of some
non-Kahler Calabi-Yau constructions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .exactlin import G_I, G_ONE, ExactMatrix, _require, i_power, rank

# The ODP model builders import lmhs.steenbrink inside their bodies, so the
# closed-form tables, which build no model, never compile it.


# ---------------------------------------------------------------------------
# quadrics
# ---------------------------------------------------------------------------

def quadric_cohomology(n: int, depth: int = 1) -> StratumCohomology:
    """Cohomology of a smooth n-dimensional quadric with its intersection
    pairing.  Below the middle, degree 2j carries the hyperplane power h^j;
    above the middle the dual generator h^j / 2 is used, so complementary
    pairings are 1.  For even n = 2k the middle carries the two plane
    classes A, B with A.B = (1 - (-1)^k)/2 and A.A = B.B = (1 + (-1)^k)/2.
    """
    from .steenbrink import StratumCohomology

    _require(n >= 1, f"quadric dimension n = {n} must be at least 1")
    cohomology = {}
    for j in range(0, n + 1):
        q = 2 * j
        if q == n:
            continue
        if q > n:
            break
        cohomology[q] = {
            "types": [(j, j)],
            "pairing": ExactMatrix.from_rational([[1]]),
        }
        cohomology[2 * n - q] = {
            "types": [(n - j, n - j)],
            "pairing": ExactMatrix.from_rational([[1]]),
        }
    if n % 2 == 0:
        k = n // 2
        off = Fraction(1 - (-1) ** k, 2)
        diag = Fraction(1 + (-1) ** k, 2)
        cohomology[n] = {
            "types": [(k, k), (k, k)],
            "pairing": ExactMatrix.from_rational([[diag, off], [off, diag]]),
        }
    return StratumCohomology(depth, cohomology)


# ---------------------------------------------------------------------------
# ordinary double points
# ---------------------------------------------------------------------------

class ResolutionData:
    """Synthetic middle-degree data of the resolution obtained by blowing up
    every ordinary double point of an m-fold.

    Odd m: signs gives the symplectic middle pairs (sign -1 is a positive
    h^{(m+1)/2} direction of the Hermitian form), rho is the full-rank
    l x (l - R) integer matrix of relation classes among the differences of
    plane classes on the exceptional quadrics.  Even m: vhat_signs are the
    diagonal self-intersections of the middle classes spanning the kernel of
    the restriction to the exceptional loci.
    """

    __slots__ = ("m", "l", "signs", "rho", "vhat_signs")

    def __init__(self, m, l, signs=(), rho=None, vhat_signs=()):
        _require(m in (3, 4), "synthetic resolutions cover m = 3 and m = 4")
        _require(l >= 0, f"node count l = {l} must be at least 0")
        if m % 2:
            if rho is None:
                rho = ExactMatrix.zero(l, 0)
            _require(rho.rows == l, f"relation matrix rho has {rho.rows} rows, not l = {l}")
            _require(rank(rho) == rho.cols, "relation matrix must have full rank")
            _require(not vhat_signs, "odd m takes no vhat_signs")
        else:
            _require(rho is None, "even m takes no relation matrix rho")
            _require(all(s in (1, -1) for s in vhat_signs), "vhat_signs must be 1 or -1")
        _require(all(s in (1, -1) for s in signs), "signs must be 1 or -1")
        self.m = m
        self.l = l
        self.signs = tuple(signs)
        self.rho = rho
        self.vhat_signs = tuple(vhat_signs)

    @property
    def R(self) -> int:
        _require(self.m % 2, "R is defined for odd m only")
        return self.l - self.rho.cols

    def middle_signature(self):
        """Signature of the Hermitian form on the middle type sectors."""
        if self.m % 2:
            plus = sum(1 for s in self.signs if s == -1)
            return (plus, len(self.signs) - plus)
        plus = sum(1 for s in self.vhat_signs if s == 1)
        return (plus, len(self.vhat_signs) - plus)


class OdpInput:
    """Inputs of the ordinary-double-point index formula: dimension m, the
    number l of double points, the relation count R (odd m) or the signature
    of the middle form on the restriction kernel V^m (even m), and the
    signature table of the resolution."""

    __slots__ = ("m", "l", "R", "vhat", "table")

    def __init__(self, m, l, R=None, vhat=None, table=None):
        _require(m >= 3, f"dimension m = {m} must be at least 3")
        _require(l >= 0, f"node count l = {l} must be at least 0")
        if m % 2:
            _require(R is not None and 0 <= R <= l, f"R = {R} must lie in 0..l = 0..{l}")
            _require(vhat is None, "odd m takes R, not vhat")
        else:
            _require(vhat is not None and R is None, "even m takes vhat, not R")
        self.m = m
        self.l = l
        self.R = R
        self.vhat = vhat
        self.table = dict(table or {})

    @staticmethod
    def from_resolution(res: ResolutionData) -> "OdpInput":
        plus, minus = res.middle_signature()
        if res.m % 2:
            k = (res.m + 1) // 2
            table = {k: (plus, minus), res.m - k: (plus, minus)}
            return OdpInput(res.m, res.l, R=res.R, table=table)
        return OdpInput(res.m, res.l, vhat=(plus, minus), table={})


def odp_index_formula(inp: OdpInput) -> dict:
    """Signature of S(C., conj .) on H^{k,m-k} of the smoothing, per k."""
    out = {}
    for k in range(0, inp.m + 1):
        plus, minus = inp.table.get(k, (0, 0))
        if inp.m % 2:
            if k in ((inp.m + 1) // 2, (inp.m - 1) // 2):
                plus += inp.R
        else:
            if k == inp.m // 2:
                plus, minus = inp.vhat
                plus += inp.l
        out[k] = (plus, minus)
    return out


def odp_semistable_model(res: ResolutionData) -> DegenerationData:
    """Two-depth semistable model of a smoothing of l ordinary double points:
    the resolution glued with quadric m-folds E_i along the exceptional
    quadrics Q_i.  Both parities share one skeleton (_odp_skeleton), built
    once per shape; the odd and even parts supply the middle degree of the
    depth-1 stratum and the maps that read it."""
    from .steenbrink import DegenerationData, StratumCohomology

    m, l = res.m, res.l
    if m % 2:
        skeleton = _odp_skeleton(m, l, res.rho.cols)
        entry, gysin, restriction = _odd_middle(res)
    else:
        skeleton = _odp_skeleton(m, l, 0, _even_shape_maps, len(res.vhat_signs))
        entry, gysin, restriction = _even_middle(res), {}, {}
    entries, quadrics, shared_gysin, shared_restriction = skeleton
    depth1 = StratumCohomology(1, {**entries, m: entry})
    if not l:
        return DegenerationData(m, [depth1])
    return DegenerationData(m, [depth1, quadrics], {**shared_gysin, **gysin},
                            {**shared_restriction, **restriction})


# Every part of an ODP model that reads neither rho nor a sign depends only on
# the model's shape, so models of one shape share it: a caller that keeps many
# generated models keeps one copy per shape.  ExactMatrix is immutable, the
# shared depth-2 stratum is never written to, StratumCohomology copies the
# entries it is given, and DegenerationData copies its map dicts.
#
# Bases, in order.  Depth 1, the resolution X and the E_i: the components X,
# E_0, ... in degrees 0 and 2m; the classes g, then e_i (the exceptional
# divisors), then w_t (the relation classes, odd m only), then hE_i (the
# hyperplanes of the E_i) in degrees 2 and 2m-2.  Depth 2: the quadrics
# Q_0, ..., each in the basis of quadric_cohomology(m - 1).


@lru_cache(maxsize=64)
def _odp_skeleton(m: int, l: int, w: int, middle_maps=None, k: int = 0) -> tuple:
    """(depth-1 entries, depth-2 stratum, gysin, restriction) shared by the
    models of l double points on an m-fold with w relation classes.  The
    depth-1 entries are those of degrees 0, 2, 2m-2 and 2m, with identity
    pairings; the depth-2 stratum is l copies of the quadric (m-1)-fold.
    The maps are those of degrees 0 and 2m-2, where Q_i restricts X to -1
    and E_i to 1, and e_i to -1 and hE_i to 1, and each Gysin map is the
    transpose of a restriction; middle_maps(l, k), when given, adds the
    (gysin, restriction) of a middle degree with k classes of its own that
    read no sign."""
    from .steenbrink import StratumCohomology

    outer = {q: {"types": [(q // 2, q // 2)] * n, "pairing": ExactMatrix.identity(n)}
             for q, n in ((0, 1 + l), (2, 1 + 2 * l + w), (2 * m - 2, 1 + 2 * l + w),
                          (2 * m, 1 + l))}
    Q = quadric_cohomology(m - 1)

    def copies(P):  # l copies of P down the diagonal
        return ExactMatrix.assemble(l * P.rows, l * P.cols, [
            (range(i * P.rows, (i + 1) * P.rows), i * P.cols, P) for i in range(l)])

    quadrics = StratumCohomology(2, {
        q: {"types": Q.types(q) * l, "pairing": copies(Q.pairing(q))} for q in Q.cohomology})
    unit = [[int(i == j) for j in range(l)] for i in range(l)]
    rest0 = ExactMatrix.from_rational([[-1] + u for u in unit], cols=1 + l)
    rest_top = ExactMatrix.from_rational(
        [[0] + [-x for x in u] + [0] * w + u for u in unit], cols=1 + 2 * l + w)
    gysin, restriction = middle_maps(l, k) if middle_maps else ({}, {})
    return (outer, quadrics,
            {(1, 0): rest_top.transpose(), (1, 2 * m - 2): rest0.transpose(), **gysin},
            {(1, 0): rest0, (1, 2 * m - 2): rest_top, **restriction})


def _odd_middle(res: ResolutionData) -> tuple:
    """(H^3 entry, gysin, restriction) of the odd model: the framed
    symplectic H^3 and the degree-2 maps, which read rho."""
    _require(res.m == 3, f"the odd model covers m = 3, not m = {res.m}")
    l, rho, pairs = res.l, res.rho, len(res.signs)
    # one 2 x 2 block per symplectic pair: the pairing [[0, s], [-s, 0]] and
    # the frame [[1, 1], [i, -i]], whose columns have types (2,1) and (1,2)
    P = ExactMatrix.from_rational([[0, 1], [-1, 0]])
    F = ExactMatrix([[G_ONE, G_ONE], [G_I, i_power(-1)]])
    p3 = ExactMatrix.assemble(2 * pairs, 2 * pairs, [
        (range(2 * j, 2 * j + 2), 2 * j, P if s > 0 else -P) for j, s in enumerate(res.signs)])
    f3 = ExactMatrix.assemble(
        2 * pairs, 2 * pairs, [(range(2 * j, 2 * j + 2), 2 * j, F) for j in range(pairs)])
    h3 = {"types": [(2, 1), (1, 2)] * pairs, "pairing": p3, "frame": f3}
    # rest2 sends e_i and hE_i to A_i + B_i, the plane classes of Q_i, and
    # the relation class w_t to the sum over i of rho[i][t] (B_i - A_i);
    # gys2 is its transpose with the rows w negated
    A, B, I, w = range(0, 2 * l, 2), range(1, 2 * l, 2), ExactMatrix.identity(l), rho.cols

    def to_planes(on_A, on_B):
        return ExactMatrix.assemble(2 * l, 1 + 2 * l + w, [
            (A, 1, I), (B, 1, I), (A, 1 + l, on_A), (B, 1 + l, on_B),
            (A, 1 + l + w, I), (B, 1 + l + w, I)])

    minus_rho = -rho
    return (h3, {(1, 2): to_planes(rho, minus_rho).transpose()},
            {(1, 2): to_planes(minus_rho, rho)})


def _even_middle(res: ResolutionData) -> dict:
    """H^4 entry of the even model.  H^4 holds the vhat classes v_a, of
    square vhat_signs[a], then the classes q_i of square -2, then the planes
    A_i, B_i of the E_i, of square 1.  Its maps read no sign, so they come
    with the skeleton (_even_shape_maps)."""
    _require(res.m == 4, f"the even model covers m = 4, not m = {res.m}")
    squares = [*res.vhat_signs, *[-2] * res.l, *[1] * (2 * res.l)]
    pairing = [[0] * len(squares) for _ in squares]
    for j, s in enumerate(squares):
        pairing[j][j] = s
    return {"types": [(2, 2)] * len(squares),
            "pairing": ExactMatrix.from_rational(pairing, cols=len(squares))}


def _even_shape_maps(l: int, hv: int) -> tuple:
    """(gysin, restriction) of degrees 2 and 4 of the even model with hv
    vhat classes.  rest2 sends e_i and hE_i to the hyperplane class of Q_i,
    and gys4 is its transpose; gys2 sends Q_i to q_i + A_i + B_i, and rest4
    sends q_i to -2 and A_i, B_i to 1 on Q_i."""
    unit = [[int(i == j) for j in range(l)] for i in range(l)]
    rest2 = [[0] + u + u for u in unit]
    gys4 = [[0] * l] + unit + unit
    gys2 = [[0] * l] * hv + unit + [u for u in unit for _ in "AB"]
    rest4 = [[0] * hv + [-2 * x for x in u] + [x for x in u for _ in "AB"] for u in unit]
    M = ExactMatrix.from_rational
    return ({(1, 2): M(gys2, cols=l), (1, 4): M(gys4, cols=l)},
            {(1, 2): M(rest2, cols=1 + 2 * l), (1, 4): M(rest4, cols=hv + 3 * l)})


# ---------------------------------------------------------------------------
# Kahler-type index formula
# ---------------------------------------------------------------------------

def kahler_index_formula(hodge: dict, m: int, p: int):
    """Signature of S(C., conj .) on H^{p,m-p} for a degeneration whose
    central fiber carries a class restricting to a Kahler class on each
    component: alternating sums of Hodge numbers down the (p,q) diagonal."""
    for (a, b), v in hodge.items():
        _require(hodge.get((b, a), 0) == v, "Hodge numbers must be symmetric")

    def h(a, b):
        if a < 0 or b < 0:
            return 0
        return hodge.get((a, b), 0)

    plus = minus = 0
    r = 0
    while p - 2 * r >= 0:
        d1 = h(p - 2 * r, m - p - 2 * r) - h(p - 2 * r - 1, m - p - 2 * r - 1)
        d2 = h(p - 2 * r - 1, m - p - 2 * r - 1) - h(p - 2 * r - 2, m - p - 2 * r - 2)
        if d1 < 0 or d2 < 0:
            raise ValueError(
                f"negative difference in the Lefschetz chain at p={p}, r={r}"
            )
        plus += d1
        minus += d2
        r += 1
    return plus, minus


def full_signature(hodge: dict, m: int) -> int:
    """Signature of the cup product on an even-dimensional Kahler-type
    fiber: the alternating sum of all Hodge numbers."""
    _require(m % 2 == 0, f"full_signature needs an even m, not m = {m}")
    return sum((-1) ** a * v for (a, b), v in hodge.items())


def k3_hodge_numbers() -> dict:
    return {(0, 0): 1, (1, 1): 20, (2, 0): 1, (0, 2): 1, (2, 2): 1}


# ---------------------------------------------------------------------------
# Lefschetz fibrations and fiber products
# ---------------------------------------------------------------------------

class LefschetzInput:
    """Data of two Lefschetz fibrations with disjoint critical loci:
    dimensions m_i of the total spaces X_i, critical counts d_i, Betti
    vectors of the smooth fibers Y_i, the middle vanishing dimension of Y_i,
    and the middle vanishing dimension of the base locus B_i."""

    __slots__ = ("m1", "m2", "d1", "d2", "betti1", "betti2",
                 "van1", "van2", "van_b1", "van_b2")

    def __init__(self, m1, m2, d1, d2, betti1, betti2, van1, van2,
                 van_b1=0, van_b2=0):
        _require(len(betti1) == 2 * m1 - 1,
                 f"betti1 needs 2*m1 - 1 = {2 * m1 - 1} entries, not {len(betti1)}")
        _require(len(betti2) == 2 * m2 - 1,
                 f"betti2 needs 2*m2 - 1 = {2 * m2 - 1} entries, not {len(betti2)}")
        self.m1, self.m2 = m1, m2
        self.d1, self.d2 = d1, d2
        self.betti1 = list(betti1)
        self.betti2 = list(betti2)
        self.van1, self.van2 = van1, van2
        self.van_b1, self.van_b2 = van_b1, van_b2

    def factor(self, i):
        _require(i in (1, 2), f"factor i = {i} must be 1 or 2")
        if i == 1:
            return self.m1, self.d1, self.betti1, self.van1, self.van_b1
        return self.m2, self.d2, self.betti2, self.van2, self.van_b2


def _get(betti, k):
    if k < 0 or k >= len(betti):
        return 0
    return betti[k]


def lefschetz_middle_betti(inp: LefschetzInput, i: int):
    """Middle Betti number of the blown-up Lefschetz fibration:
    d + h^m(Y) + h^{m-2}(Y) - 2 h_van^{m-1}(Y)."""
    m, d, bY, van, _ = inp.factor(i)
    value = d + _get(bY, m) + _get(bY, m - 2) - 2 * van
    if isinstance(value, int) and value < 0:
        raise ValueError("inconsistent Lefschetz input: negative middle Betti")
    return value


def _kunneth(b1, b2, k):
    if k < 0:
        return 0
    return sum(_get(b1, j) * _get(b2, k - j) for j in range(0, k + 1))


def fiber_product_readings(inp: LefschetzInput) -> dict:
    """Middle-degree Betti number of the fiber product, in both readings of
    the closed formula.  The symmetric reading is the one consistent with
    the tensor-ring dimension count; the printed reading replaces the term
    d2 h^{m1-2}(Y1) by d2 h^{m1-1}(Y1)."""
    m1, d1, b1, v1, _ = inp.factor(1)
    m2, d2, b2, v2, _ = inp.factor(2)
    common = (
        _kunneth(b1, b2, m1 + m2 - 2)
        - v1 * _get(b2, m2 - 1) - _get(b1, m1 - 1) * v2 + v1 * v2
        + _kunneth(b1, b2, m1 + m2 - 4)
        - v1 * _get(b2, m2 - 3) - _get(b1, m1 - 3) * v2
        + d1 * _get(b2, m2 - 2)
        - 2 * (v1 * _get(b2, m2 - 2) + _get(b1, m1 - 2) * v2)
    )
    return {
        "symmetric": common + d2 * _get(b1, m1 - 2),
        "printed": common + d2 * _get(b1, m1 - 1),
    }


def _derived_betti(inp: LefschetzInput, i: int):
    """Betti vectors of the base locus B, the pencil total space X and the
    blown-up fibration, derived from the fiber data by weak Lefschetz,
    Poincare duality and the middle Betti formula."""
    m, d, bY, van, van_b = inp.factor(i)
    nB = m - 2
    bB = [0] * (2 * nB + 1)
    for k in range(0, nB):
        bB[k] = _get(bY, k)
        bB[2 * nB - k] = _get(bY, k)
    bB[nB] = _get(bY, nB) + van_b
    bX = [0] * (2 * m + 1)
    for k in range(0, m - 1):
        bX[k] = _get(bY, k)
        bX[2 * m - k] = _get(bY, k)
    fixed = _get(bY, m - 1) - van
    bX[m - 1] = fixed
    bX[m + 1] = fixed
    bX[m] = lefschetz_middle_betti(inp, i) - _get(bB, m - 2)
    bXt = [bX[k] + _get(bB, k - 2) for k in range(0, 2 * m + 1)]
    return bB, bX, bXt


def fiber_product_dim_check(inp: LefschetzInput) -> dict:
    """Check that the fiber-product middle Betti number equals the dimension
    of the middle part of the tensor ring of the two fibrations."""
    M = inp.m1 + inp.m2
    bB1, bX1, bXt1 = _derived_betti(inp, 1)
    bB2, bX2, bXt2 = _derived_betti(inp, 2)
    tensor = (
        _kunneth(bXt1, bXt2, M - 2)
        - _kunneth(bB1, bB2, M - 6)
        - _kunneth(bB1, bX2, M - 4)
        - _kunneth(bX1, bB2, M - 4)
        + _kunneth(bB1, bB2, M - 4)
        - inp.van_b1 * inp.van_b2
    )
    readings = fiber_product_readings(inp)
    value = readings["symmetric"]
    diff = value - tensor
    try:
        ok = bool(diff == 0)
    except TypeError:
        ok = False
    return {
        "ok": ok,
        "fiber_product": value,
        "tensor_ring": tensor,
        "printed_reading": readings["printed"],
    }


def schoen_input() -> LefschetzInput:
    """Two rational elliptic surfaces fibered over the line: 12 singular
    fibers each, elliptic-curve fibers, base locus of 9 points."""
    return LefschetzInput(
        m1=2, m2=2, d1=12, d2=12,
        betti1=[1, 2, 1], betti2=[1, 2, 1],
        van1=2, van2=2, van_b1=8, van_b2=8,
    )


# ---------------------------------------------------------------------------
# non-Kahler Calabi-Yau index tables
# ---------------------------------------------------------------------------

def sano_negative_count(m: int, a: int) -> int:
    """Number of negative directions of S(C., conj .) at the distinguished
    middle rows of the m-fold series built from fiber products."""
    _require(m >= 3, f"dimension m = {m} must be at least 3")
    _require(a >= 1, f"series index a = {a} must be at least 1")
    if m % 2:
        if m % 4 == 3:
            return 0
        return 9 * (27 * a * a - 2 * a + 5) + a + 6
    if m == 4:
        return a + 1
    return a + 2


def sano_index_table(m: int, a: int, hodge=None) -> dict:
    """Per-k rows of the middle Hodge index: negatives are closed-form, and
    positives are h^{k,m-k} minus negatives when the Hodge numbers are
    supplied (hodge maps k to h^{k,m-k})."""
    _require(m >= 3, f"dimension m = {m} must be at least 3")
    _require(a >= 1, f"series index a = {a} must be at least 1")
    neg = sano_negative_count(m, a)
    if m % 2:
        special = {(m + 1) // 2, (m - 1) // 2}
    else:
        special = {m // 2}
    out = {}
    for k in range(0, m + 1):
        n_k = neg if k in special else 0
        if hodge is None:
            out[k] = {"negative": n_k}
        else:
            h = hodge.get(k, 0)
            _require(h >= n_k, f"declared h^{k},{m - k} smaller than negatives")
            out[k] = {"negative": n_k, "positive": h - n_k}
    return out


def hashimoto_sano_pic_fixture(a: int) -> dict:
    """The K3 gluing data behind the threefold series X_3(a): the Picard
    action of the automorphism and the (2,2,2) intersection form.  Checks
    that the action is unimodular, preserves the form, and that the glued
    degree-4 composite has full rank 3."""
    _require(a >= 1, f"series index a = {a} must be at least 1")
    rows = [
        [1, 4 * a * a - 2 * a, 4 * a * a + 2 * a],
        [0, 1 - 2 * a, -2 * a],
        [0, 2 * a, 1 + 2 * a],
    ]
    M = ExactMatrix.from_rational(rows)
    G = ExactMatrix.from_rational([[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    # the first column is e_1, so det M is the lower right 2 x 2 minor
    det = rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1]
    preserved = (M.transpose() @ G @ M) == G
    composite_rank = rank(G @ M)
    return {
        "matrix": M,
        "form": G,
        "det": det,
        "unimodular": det in (1, -1),
        "form_preserved": preserved,
        "composite_rank": composite_rank,
        "ok": preserved and composite_rank == 3,
    }


# ---------------------------------------------------------------------------
# cone singularities over cubic surfaces
# ---------------------------------------------------------------------------

def o16_evaluator(defect: int, resolution_middle: dict) -> dict:
    """Degeneration of threefolds whose central fiber has a cone singularity
    over a cubic surface: the criterion holds exactly when the defect is
    zero, with the weight-4 graded piece dropping by the defect against its
    6-dimensional dual.  resolution_middle maps k to the signature of the
    middle form on H^{k,3-k} of the resolution."""
    _require(defect >= 0, f"defect = {defect} must be at least 0")
    verdict = defect == 0
    gr4_dim = 6 - defect
    table = {k: tuple(v) for k, v in sorted(resolution_middle.items())}
    polarized = verdict and all(minus == 0 for (_, minus) in table.values())
    return {
        "verdict": verdict,
        "gr4_dim": gr4_dim,
        "gr2_dim": 6,
        "criterion_gap": defect,
        "table": table,
        "polarized": polarized,
    }
