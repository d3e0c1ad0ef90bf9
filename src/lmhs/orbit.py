"""Nilpotent-orbit asymptotics: exp(zN)F, opposedness determinants, and
orbit signatures two ways: evaluated at one point past every real root of
the form's determinant (Cauchy's bound), and read from the signs of its
leading principal minors.  The combinatorial identities behind the minor
bookkeeping are in identities.

The orbit variable is z = a + i t with t a real polynomial variable; all
asymptotics are exact statements about leading coefficients of polynomials
in t.  Every form and determinant depends on z only through zbar - z =
-2it: N is an infinitesimal isometry of S, so exp(zN) is an isometry of S
with determinant 1.  So a = Re z changes no report, and it is not a
parameter.
"""

from __future__ import annotations

from math import floor

from .exactlin import (
    ExactMatrix,
    GaussianScalar,
    PolyScalar,
    Subspace,
    ZeroMinorError,
    _require,
    exp_nilpotent,
    hermitian_signature,
    i_power,
    leading_principal_minors,
    leading_sign,
    poly_det,
    rank,
)
from .mhs import (
    MHSData,
    check_mhs,
    check_situation_b,
    deligne_splitting,
    primitive_forms,
    signature_table,
    situation_a_hodge_failure,
    situation_a_weight_failure,
)
from .report import Report
from .signature import nearby_index_formula


class OrbitFiltration:
    """The orbit exp(zN) F, read through the constant well-ordered basis of
    F: the tagged vectors N^r u_i^{p,q} with the primitive u_i
    h-diagonalized.  Tags are (p, q, i, r); the order is descending in
    (p-r, q-r, r, i), and restricted to p-r >= k the vectors form a basis of
    F^k.  exp(zN) is unimodular and an isometry of S, so the orbit's forms
    and determinants need only exp((zbar - z)N), zbar - z = -2it.
    exp_m2it holds its Gaussian coefficient matrices in t (see
    exp_nilpotent): a product with a constant basis is one Gaussian product
    per power of t.  forms is primitive_forms(data, splitting), and prims
    its primitive subspaces.
    """

    __slots__ = ("data", "entries", "prims", "exp_m2it")

    def __init__(self, data: MHSData, forms):
        _require(data.N is not None and data.S is not None, "an orbit needs N and S")
        d = data.d
        entries = []  # (tag, vector)
        for (p, q), (prim, vectors, values, nulls) in sorted(forms.items()):
            l = p + q - d
            B = prim.basis
            _require(not nulls, f"degenerate primitive form at ({p},{q})")
            # column i of powers[r] is N^r u_i
            powers = [B @ ExactMatrix.from_columns(vectors, rows=B.cols)]
            for r in range(l):
                powers.append(data.N @ powers[-1])
            for i in range(len(values)):
                for r in range(l + 1):
                    entries.append(((p, q, i, r), powers[r].take_columns([i])))
        entries.sort(key=lambda e: (e[0][0] - e[0][3], e[0][1] - e[0][3], e[0][3], e[0][2]),
                     reverse=True)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "prims", {pq: prim for pq, (prim, *_) in forms.items()})
        object.__setattr__(self, "exp_m2it", exp_nilpotent(data.N, GaussianScalar(0, -2)))
        # sanity: the restriction to p - r >= k spans F^k exactly
        F = data.F
        n = data.ambient_dim
        for k in range(F.min_index(), F.max_index() + 1):
            _, M = self.level_basis(k)
            target = F.at(k)
            _require(M.cols == target.dim,
                     f"well-ordered basis count at level {k}: {M.cols} != {target.dim}")
            if M.cols:
                _require(rank(M) == M.cols, "well-ordered basis not independent")
                # the rank check makes M a basis, so it is not checked again
                _require(target.contains(Subspace._trusted(n, M)),
                         f"well-ordered basis escapes F^{k}")

    def __setattr__(self, name, value):
        raise AttributeError("OrbitFiltration is immutable")

    def level_basis(self, k: int) -> tuple[list[tuple], ExactMatrix]:
        """Tags and column matrix of the well-ordered basis of F^k."""
        sel = [(tag, v) for tag, v in self.entries if tag[0] - tag[3] >= k]
        M = ExactMatrix.zero(self.data.ambient_dim, 0).hstack(*[v for _, v in sel])
        return [tag for tag, _ in sel], M

    def hermitian_matrix(self, k: int) -> list[ExactMatrix]:
        """The form (sqrt(-1))^d S(., conj .) on exp(zN) F^k in the
        well-ordered basis, as its coefficient matrices in t.  Since N is an
        infinitesimal isometry this equals i^d X^T S exp((zbar - z) N)
        conj(X) with X the constant well-ordered basis of F^k, and
        zbar - z = -2it.
        """
        data = self.data
        _, X = self.level_basis(k)
        XtS = (X.transpose() @ data.S).scale(i_power(data.d))
        return [XtS @ C for C in self._exp_m2it_conj(X)]

    def _exp_m2it_conj(self, X: ExactMatrix) -> list[ExactMatrix]:
        """The t-coefficients of exp(-2itN) conj(X), X a constant basis."""
        Xc = X.conj()
        return [E @ Xc for E in self.exp_m2it]


def opposedness_degree(data: MHSData, k: int, prims) -> int:
    """Predicted leading degree: sum over the primitive subspaces prims at
    (p,q) with p >= k and q >= d-k+1 of dim * (p-k+1) * (q-d+k)."""
    d = data.d
    total = 0
    for (p, q), prim in prims.items():
        if p >= k and q >= d - k + 1:
            total += prim.dim * (p - k + 1) * (q - d + k)
    return total


def opposedness_polynomial(orb: OrbitFiltration, k: int) -> PolyScalar:
    """Determinant of [basis of exp(zN)F^k | conjugate basis of exp(zN)F^{d-k+1}].

    exp(zN) is unimodular (N is nilpotent), so the determinant equals
    det[X | exp((zbar - z)N) conj Y] with X, Y the constant well-ordered
    bases of F^k and F^{d-k+1}.  A nonzero leading coefficient certifies
    d-opposedness for all large t.  Raises ValueError("opposedness
    impossible") when the orbit's level bases do not fill the ambient space.
    """
    _, X = orb.level_basis(k)
    _, Y = orb.level_basis(orb.data.d - k + 1)
    if X.cols + Y.cols != orb.data.ambient_dim:
        raise ValueError("opposedness impossible")
    R = orb._exp_m2it_conj(Y)
    Z = ExactMatrix.zero(X.rows, X.cols)
    return poly_det(X.hstack(R[0]), *(Z.hstack(Rj) for Rj in R[1:]))


def _signature_from_minors(minors: list[PolyScalar]) -> tuple[int, int]:
    pos = neg = 0
    prev_sign = 1
    for P in minors:
        _, s = leading_sign(P)
        if s * prev_sign > 0:
            pos += 1
        else:
            neg += 1
        prev_sign = s
    return pos, neg


def orbit_signature(H: list[ExactMatrix], det: PolyScalar) -> tuple[int, int]:
    """Signature for large t of the Hermitian form H(t) = sum_j t^j H[j],
    the orbit form i^d S(., conj .) on exp(zN) F^k of hermitian_matrix,
    evaluated exactly at one certified point; det is poly_det(*H).  An
    empty level has signature (0, 0).

    H(t) is Hermitian for real t, so its signature changes only at real
    roots of det H(t).  Cauchy's bound 1 + max_i |a_i| / |a_n| on the roots
    of det H = sum a_i t^i certifies the integer t = floor(bound) + 1: the
    signature there is the one for all larger t.  Only the point comes from
    the determinant; the signature is that of H(t), independent of the
    leading principal minors.  Raises ArithmeticError when det H vanishes
    identically, so the form is degenerate for every t.
    """
    if H[0].rows == 0:
        return (0, 0)
    if det.is_zero():
        raise ArithmeticError("the orbit form is degenerate for every t")
    # |re| + |im| bounds a Gaussian coefficient's modulus from above and
    # max(|re|, |im|) from below; both are exact on the real det H
    *rest, lead = det.coeffs
    bound = max((abs(c.re) + abs(c.im) for c in rest), default=0)
    t = 2 + floor(bound / max(abs(lead.re), abs(lead.im)))
    Ht = sum((C.scale(GaussianScalar(t**j)) for j, C in enumerate(H) if j), H[0])
    pos, neg, nulls = hermitian_signature(Ht)
    _require(nulls == 0, f"det H vanishes at its certified point t = {t}")
    return pos, neg


class AsymptoticReport(Report):
    """Per-level opposedness degrees/signs and per-step minor data; its
    failures are the levels' failures, each prefixed with its level."""

    def __init__(self, levels: list[dict]):
        super().__init__([f"level {lv['level']}: {f}"
                          for lv in levels for f in lv["failures"]])
        self.levels = levels

    def to_json(self) -> list[dict]:
        return self.levels


def _level_entry(orb: OrbitFiltration, k: int, H: list[ExactMatrix]):
    """Level k of the refined-filtration check, H = orb.hermitian_matrix(k).

    Returns the report entry (opposedness degree against its prediction,
    minor data, failures) and the leading principal minors of H, or None
    when one of them vanishes.
    """
    data = orb.data
    d = data.d
    entry: dict = {"level": k, "failures": []}
    try:
        opp = opposedness_polynomial(orb, k)
        want = opposedness_degree(data, k, orb.prims)
        entry["opposedness"] = {
            "degree": opp.degree(),
            "predicted_degree": want,
        }
        if opp.degree() != want:
            entry["failures"].append("opposedness degree mismatch")
    except ValueError:
        entry["opposedness"] = "impossible"
    if H[0].rows == 0:
        entry["minors"] = []
        return entry, []
    try:
        minors = leading_principal_minors(*H)
    except ZeroMinorError as exc:
        entry["failures"].append(str(exc))
        return entry, None
    minor_data = []
    prev_deg = 0
    for P, (p, q, i, r) in zip(minors, orb.level_basis(k)[0]):
        deg, sgn = leading_sign(P)
        diag_order = p + q - d - 2 * r
        minor_data.append(
            {
                "degree": deg,
                "sign": sgn,
                "ratio_degree": deg - prev_deg,
                "diagonal_order": diag_order,
            }
        )
        if not (k - d <= diag_order <= d):
            entry["failures"].append(
                f"diagonal order {diag_order} outside [{k - d}, {d}]"
            )
        prev_deg = deg
    entry["minors"] = minor_data
    return entry, minors


def refined_filtration_check(orb: OrbitFiltration) -> AsymptoticReport:
    """Leading principal minors of the orbit Hermitian matrices in the
    well-ordered basis: all must be nonzero; reports the raw consecutive
    ratio degrees L'_l, and checks the bound k-d <= . <= d on the diagonal
    orders p+q-d-2r (which are the degrees the refined-filtration argument
    actually controls; raw ratio degrees can fall outside the bound).
    """
    F = orb.data.F
    return AsymptoticReport([
        _level_entry(orb, k, orb.hermitian_matrix(k))[0]
        for k in range(F.min_index(), F.max_index() + 1)
    ])


def verify_main_theorem(data: MHSData) -> Report:
    """Check that the orbit signatures match the aggregated primitive
    signature formula.

    For large t the form i^d S(., conj .) on exp(zN)F^k splits into the
    induced (j, d-j) pieces with j >= k, so the piece at j has signature
    orbitSignature(j) - orbitSignature(j+1).  Untwisting by the Weil-factor
    ratio i^d / i^(2j-d) = (-1)^(d-j) (which swaps (plus, minus) when
    negative) gives the signature of the form i^(2j-d) S(., conj .) on the
    piece, which must equal nearbyIndexFormula(j).  In the fully polarized
    case all its negatives must vanish: the pieces are positive definite
    and exp(zN)F is a nilpotent orbit.

    The inputs are checked first, and a failing input gives a report with
    its failures and no details: the weight half of Situation A', Situation
    B', the MHS axioms, then the Hodge half of Situation A' (N F^p in
    F^{p-1} makes N a morphism of MHS only once (W, F) is an MHS).
    Otherwise details["opposedness"] is the refined_filtration_check report
    over F's levels, built from the same Hermitian matrices and minors.
    Each level's signature is evaluated at the point that Cauchy's bound on
    the roots of its last leading minor, det H, certifies (orbit_signature)
    and compared with the signs of the minors.  A level whose form is
    degenerate for every t is a failure; its signature and the pieces that
    need it are left out of the details.
    """
    failures: list[str] = []
    details: dict = {}
    axiom = situation_a_weight_failure(data)
    if axiom is not None:
        return Report([f"Situation A' fails: {axiom}"])
    if data.S is None or not check_situation_b(data):
        return Report(["Situation B' fails"])
    mhs_report = check_mhs(data)
    if not mhs_report.ok:
        return Report(mhs_report.failures)
    axiom = situation_a_hodge_failure(data)
    if axiom is not None:
        return Report([f"Situation A' fails: {axiom}"])
    d = data.d
    splitting = deligne_splitting(data, assume_mhs=True)
    forms = primitive_forms(data, splitting)
    table = signature_table(data, splitting, forms)
    details["table"] = table
    nearby = {}
    for p in range(0, d + 1):
        nearby[p] = nearby_index_formula(table, p)
    details["nearby"] = nearby
    polarized = all(m == 0 for (_, m) in table.entries.values())
    details["polarized"] = polarized
    orb = OrbitFiltration(data, forms)
    F_levels = range(data.F.min_index(), data.F.max_index() + 1)
    entries = []
    level_sig = {d + 1: (0, 0)}
    for k in sorted(set(F_levels) | set(range(0, d + 1))):
        H = orb.hermitian_matrix(k)
        entry, minors = _level_entry(orb, k, H)
        if k in F_levels:
            entries.append(entry)
        if not 0 <= k <= d:
            continue
        try:
            # det H is the last leading minor; where one vanished, and on an
            # empty level (whose 0 x 0 det is 1), it is built here
            level_sig[k] = orbit_signature(H, minors[-1] if minors else poly_det(*H))
        except ArithmeticError as exc:
            failures.append(f"level {k}: {exc}")
        if minors is None:
            failures.append(f"level {k}: {entry['failures'][-1]}")
        elif k in level_sig:
            got_asym = _signature_from_minors(minors)
            if level_sig[k] != got_asym:
                failures.append(
                    f"level {k}: evaluate signature {level_sig[k]} != "
                    f"asymptotic signature {got_asym}"
                )
        opp = entry["opposedness"]
        if opp == "impossible":
            failures.append(f"level {k}: opposedness impossible")
        elif opp["degree"] != opp["predicted_degree"]:
            failures.append(
                f"level {k}: opposedness degree {opp['degree']} != "
                f"{opp['predicted_degree']}"
            )
    details["opposedness"] = AsymptoticReport(entries)
    details["levels"] = level_sig
    pieces = {}
    for j in range(d, -1, -1):
        if j not in level_sig or j + 1 not in level_sig:
            continue
        plus = level_sig[j][0] - level_sig[j + 1][0]
        minus = level_sig[j][1] - level_sig[j + 1][1]
        if plus < 0 or minus < 0:
            failures.append(
                f"piece {j}: level signatures do not nest "
                f"({level_sig[j]} vs {level_sig[j + 1]})"
            )
            continue
        if (d - j) % 2:
            plus, minus = minus, plus
        pieces[j] = (plus, minus)
        if pieces[j] != nearby[j]:
            failures.append(
                f"piece {j}: orbit signature {pieces[j]} != "
                f"nearby index {nearby[j]}"
            )
        if polarized and minus != 0:
            failures.append(
                f"piece {j}: polarized case has {minus} negatives"
            )
    details["pieces"] = pieces
    return Report(failures, details)
