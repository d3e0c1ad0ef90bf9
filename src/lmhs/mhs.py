"""Mixed Hodge structures: Deligne splitting, compatibility checks, and the
primitive signature tables (their nearby-fiber aggregation formulas are in
signature).

Conventions.  The real structure is coordinatewise conjugation, so W, N, S
must have rational entries.  S is bilinear with S(u, v) = u^T S v, satisfies
S^T = (-1)^d S, and the primitive Hermitian forms are
(sqrt(-1))^(p-q) S(x, N^(p+q-d) conj(y)) -- linear in x, antilinear in y.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .exactlin import (
    ExactMatrix,
    G_I,
    G_ONE,
    G_ZERO,
    GaussianScalar,
    Subspace,
    _require,
    exp_nilpotent,
    hermitian_diagonalize,
    i_power,
    image,
    inverse,
    json_array,
    json_dict,
    json_int,
    json_object,
    kernel,
    matrix_from_json,
    matrix_to_json,
    rank,
)
from .filtration import (
    DecreasingFiltration,
    IncreasingFiltration,
    graded_piece,
    induced_map,
    weight_filtration,
)
from .report import Report
from .signature import SignatureTable


class MHSData:
    """Ambient space with W, F, optional nilpotent N and bilinear form S."""

    __slots__ = ("ambient_dim", "d", "W", "F", "N", "S")

    def __init__(
        self,
        ambient_dim: int,
        d: int,
        W: IncreasingFiltration,
        F: DecreasingFiltration,
        N: ExactMatrix | None = None,
        S: ExactMatrix | None = None,
    ):
        _require(W.ambient_dim == ambient_dim and F.ambient_dim == ambient_dim,
                 f"W and F must have ambient dimension {ambient_dim}")
        for _, sub in W.steps:
            _require(sub.basis.is_rational(), "W must have rational bases")
        if N is not None:
            _require(N.rows == N.cols == ambient_dim,
                     f"N must be {ambient_dim}x{ambient_dim}")
            _require(N.is_rational(), "N must be rational")
            _require(N.power(ambient_dim).is_zero(), "N must be nilpotent")
        if S is not None:
            # symmetry and nondegeneracy of S are graded by check_situation_b
            # rather than rejected here, so bad inputs can be reported
            _require(S.rows == S.cols == ambient_dim,
                     f"S must be {ambient_dim}x{ambient_dim}")
            _require(S.is_rational(), "S must be rational")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "S", S)

    def __setattr__(self, name, value):
        raise AttributeError("MHSData is immutable")

    # -- JSON ---------------------------------------------------------------

    def to_json(self) -> dict:
        out = {
            "dim": self.ambient_dim,
            "d": self.d,
            "W": [
                {"weight": w, "basis": matrix_to_json(sub.basis.transpose())}
                for w, sub in self.W.steps
            ],
            "F": [
                {"level": p, "basis": matrix_to_json(sub.basis.transpose())}
                for p, sub in self.F.steps
            ],
        }
        if self.N is not None:
            out["N"] = matrix_to_json(self.N)
        if self.S is not None:
            out["S"] = matrix_to_json(self.S)
        return out

    @staticmethod
    def from_json(obj: dict) -> "MHSData":
        dim = json_int(obj, "dim", minimum=0)
        d = json_int(obj, "d", minimum=0)

        def steps(key, index):
            # a basis is a list of column vectors: the rows of a dim-wide matrix
            pairs = []
            for step in json_array(obj[key], key):
                step = json_object(step, f"a step of {key}")
                at, B = json_int(step, index), matrix_from_json(step["basis"], cols=dim)
                if B.cols != dim:
                    raise ValueError(f"{key} {index} {at}: basis vector of length {B.cols} "
                                     f"in dimension {dim}")
                pairs.append((at, image(B.transpose())))
            return json_dict(pairs, f"{key}: {index} %d appears twice")

        W = IncreasingFiltration(dim, steps("W", "weight"))
        F = DecreasingFiltration(dim, steps("F", "level"))
        N = matrix_from_json(obj["N"], cols=dim) if "N" in obj else None
        S = matrix_from_json(obj["S"], cols=dim) if "S" in obj else None
        return MHSData(dim, d, W, F, N, S)


def _graded_opposedness(data: MHSData):
    """check_mhs's failures, and meet(a, b) = F^a ∩ W_b, formed once per pair
    of stored steps.  conj F^a ∩ W_b is conj meet(a, b), byte for byte: W is
    rational, and elimination and products commute with conjugation.  With
    A_q = F^q ∩ W_k + W_{k-1}, conj F induces conj A_q on Gr_k.  Once the
    graded dimensions of A_p and conj A_{k-p+1} add up to dim Gr_k, the two
    meet in W_{k-1} exactly when they span W_k: a rank, not an intersection.
    """
    W, F, n = data.W, data.F, data.ambient_dim
    lo, hi = F.min_index(), F.max_index()
    table = {}

    def meet(a: int, b: int) -> Subspace:
        # F^a is F's step at its least index >= a, W_b W's at its largest <= b
        i = next((i for i in F.indices() if i >= a), None)
        j = max((j for j in W.indices() if j <= b), default=None)
        if i is None or j is None:
            return Subspace.zero(n)
        if (i, j) not in table:
            table[i, j] = F.at(i).intersect(W.at(j))
        return table[i, j]

    failures = []
    for k in range(W.min_index(), W.max_index() + 1):
        wk, wk1 = W.at(k), W.at(k - 1)
        gr_dim = wk.dim - wk1.dim
        if gr_dim == 0:
            continue
        A = {p: meet(p, k).add(wk1) for p in range(lo, hi + 2)}  # F^p is F^lo below lo, 0 above hi
        for p in range(lo, hi + 2):
            Ap, Bp = A[p], A[min(max(k - p + 1, lo), hi + 1)].conj()
            a, b = Ap.dim - wk1.dim, Bp.dim - wk1.dim
            if a + b != gr_dim:
                failures.append(f"weight {k}, level {p}: graded dims {a}+{b} != {gr_dim}")
            elif rank(Ap.basis.hstack(Bp.basis)) != wk.dim:
                failures.append(f"weight {k}, level {p}: induced F^{p} meets conj F^{k-p+1}")
    return failures, meet


def check_mhs(data: MHSData) -> Report:
    """Graded opposedness: for each weight k, the filtration induced by F on
    Gr^W_k is k-opposed to its conjugate (_graded_opposedness)."""
    return Report(_graded_opposedness(data)[0])


class DeligneSplitting:
    """The bigrading I^{p,q} with W_l = sum_{p+q<=l} and F^r = sum_{p>=r}."""

    __slots__ = ("ambient_dim", "parts")

    def __init__(self, ambient_dim: int, parts: dict[tuple[int, int], Subspace]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(
            self,
            "parts",
            {pq: sub for pq, sub in sorted(parts.items()) if sub.dim > 0},
        )

    def __setattr__(self, name, value):
        raise AttributeError("DeligneSplitting is immutable")

    def part(self, p: int, q: int) -> Subspace:
        return self.parts.get((p, q), Subspace.zero(self.ambient_dim))

    def bigrading(self) -> dict[tuple[int, int], int]:
        return {pq: sub.dim for pq, sub in self.parts.items()}

    def __repr__(self):
        body = ", ".join(f"I^{pq}:{sub.dim}" for pq, sub in self.parts.items())
        return f"DeligneSplitting({body})"


def deligne_splitting(data: MHSData) -> DeligneSplitting:
    """I^{p,q} = F^p ∩ W_k ∩ (conj F^q ∩ W_k + sum_{j>=2} conj F^{q-j+1} ∩ W_{k-j}), k = p + q.

    Checks that the input is a mixed Hodge structure (contract error if not)
    on the F^a ∩ W_b the parts read; the conj sum is the conjugate of theirs.
    """
    failures, meet = _graded_opposedness(data)
    _require(not failures, f"not a mixed Hodge structure: {failures}")
    n, W, F = data.ambient_dim, data.W, data.F
    lo, hi = F.min_index(), F.max_index()
    parts = {}
    for p in range(lo, hi + 1):
        for q in range(lo, hi + 1):
            top = meet(p, p + q)
            if top.dim:
                inner = meet(q, p + q)
                for j in range(2, p + q - W.min_index() + 1):
                    inner = inner.add(meet(q - j + 1, p + q - j))
                parts[(p, q)] = top.intersect(inner.conj())
    total = sum(sub.dim for sub in parts.values())
    _require(total == n, f"splitting dims {total} do not fill the ambient space {n}")
    return DeligneSplitting(n, parts)


def check_splitting_properties(data: MHSData, splitting: DeligneSplitting) -> Report:
    """Verify the splitting reconstructs W and F, is conjugation-compatible
    modulo lower bidegrees, and is respected by N and paired by S when given.
    """
    failures = []
    n = data.ambient_dim
    W, F = data.W, data.F
    parts = splitting.parts
    # (1) reconstruction of W and F
    for w in range(W.min_index() - 1, W.max_index() + 1):
        span = Subspace.zero(n)
        for (p, q), sub in parts.items():
            if p + q <= w:
                span = span.add(sub)
        if span != W.at(w):
            failures.append(f"sum of I^(p,q), p+q<={w}, differs from W_{w}")
    for r in range(F.min_index(), F.max_index() + 1):
        span = Subspace.zero(n)
        for (p, q), sub in parts.items():
            if p >= r:
                span = span.add(sub)
        if span != F.at(r):
            failures.append(f"sum of I^(p,q), p>={r}, differs from F^{r}")
    # direct sum
    if sum(sub.dim for sub in parts.values()) != n:
        failures.append("bigraded dimensions do not add up to the ambient dim")
    # (2) conj I^{q,p} = I^{p,q} modulo lower terms
    for (p, q), sub in parts.items():
        lower = Subspace.zero(n)
        for (r, s), other in parts.items():
            if r < q and s < p:
                lower = lower.add(other)
        if not sub.conj().add(lower).contains(splitting.part(q, p)):
            failures.append(f"conj I^({q},{p}) escapes I^({p},{q}) + lower terms")
    # (3) N I^{p,q} <= I^{p-1,q-1}
    if data.N is not None:
        for (p, q), sub in parts.items():
            img = sub.apply(data.N)
            if not splitting.part(p - 1, q - 1).contains(img):
                failures.append(f"N I^({p},{q}) escapes I^({p-1},{q-1})")
    # (4) S(I^{p,q}, I^{r,s}) = 0 unless (r,s) = (d-p, d-q)
    if data.S is not None:
        d = data.d
        for (p, q), sub in parts.items():
            for (r, s), other in parts.items():
                if (r, s) == (d - p, d - q):
                    continue
                M = sub.basis.transpose() @ data.S @ other.basis
                if not M.is_zero():
                    failures.append(
                        f"S(I^({p},{q}), I^({r},{s})) nonzero away from duality"
                    )
    return Report(failures)


def situation_a_weight_failure(data: MHSData) -> str | None:
    """Why the weight half of Situation A' fails, or None when it holds: N is
    given and W = W(N, d), which makes N W_w lie in W_{w-2}."""
    if data.N is None:
        return "N missing"
    if data.W != weight_filtration(data.N, data.d):
        return f"W != W(N,{data.d})"
    return None


def situation_a_hodge_failure(data: MHSData) -> str | None:
    """Why the Hodge half of Situation A' fails, or None when it holds:
    N F^p lies in F^{p-1}, so N is a morphism of type (-1,-1).  Needs N."""
    F = data.F
    for p in range(F.min_index(), F.max_index() + 1):
        if not F.at(p - 1).contains(F.at(p).apply(data.N)):
            return f"N F^{p} escapes F^{p - 1}"
    return None


def _nilpotent(data: MHSData) -> ExactMatrix:
    """N, or the zero map when data has none."""
    return data.N if data.N is not None else ExactMatrix.zero(data.ambient_dim, data.ambient_dim)


def check_situation_a(data: MHSData) -> bool:
    """N is a morphism of mixed Hodge structures and W = W(N, d)."""
    return (situation_a_weight_failure(data) is None
            and situation_a_hodge_failure(data) is None)


def check_situation_b(data: MHSData) -> bool:
    """(-1)^d-symmetry, infinitesimal isometry, first Hodge-Riemann
    orthogonality S(F^p, F^{d-p+1}) = 0, and the weight orthogonality
    S(W_a, W_b) = 0 for a+b <= 2d-1 that it implies.
    """
    _require(data.S is not None, "Situation B' needs S")
    S, d = data.S, data.d
    sign = -1 if d % 2 else 1
    if S.transpose() != (S if sign == 1 else -S):
        return False
    if rank(S) != data.ambient_dim:
        return False
    N = _nilpotent(data)
    if not (N.transpose() @ S + S @ N).is_zero():
        return False
    F = data.F
    for p in range(F.min_index(), F.max_index() + 1):
        M = F.at(p).basis.transpose() @ S @ F.at(d - p + 1).basis
        if not M.is_zero():
            return False
    W = data.W
    for a in W.indices():
        b = 2 * d - 1 - a
        M = W.at(a).basis.transpose() @ S @ W.at(b).basis
        if not M.is_zero():
            return False
    return True


def primitive_part(data: MHSData, l: int) -> Subspace:
    """ker(N^{l+1} : Gr_{d+l} -> Gr_{d-l-2}), in Gr_{d+l} rep coordinates."""
    if l < 0:
        return Subspace.zero(0)
    _require(data.N is not None, "primitive parts need N")
    src = graded_piece(data.W, data.d + l)
    tgt = graded_piece(data.W, data.d - l - 2)
    if src.dim == 0:
        return Subspace.zero(0)
    M = induced_map(data.N.power(l + 1), src, tgt)
    return kernel(M)


def primitive_subspaces(data: MHSData, splitting: DeligneSplitting):
    """The (p,q)-primitive subspaces I^{p,q} ker N^{p+q-d+1} of the ambient
    space, for p+q >= d, from the Deligne splitting of data.  Returns dict
    (p,q) -> Subspace.
    """
    N, d = _nilpotent(data), data.d
    # ker N^{l+1} once per l, for every part of weight d + l
    kernels = {l: kernel(N.power(l + 1)) for l in {p + q - d for p, q in splitting.parts} if l >= 0}
    prims = {(p, q): sub.intersect(kernels[p + q - d])
             for (p, q), sub in splitting.parts.items() if p + q >= d}
    return {pq: prim for pq, prim in prims.items() if prim.dim}


def primitive_forms(data: MHSData, splitting: DeligneSplitting):
    """The primitive subspaces with the Hermitian forms of their bases B:
    (sqrt(-1))^(p-q) B^T S N^(p+q-d) conj B, each form diagonalized once.
    Returns dict (p,q) -> (Subspace, vectors, values, nulls), the last three
    as hermitian_diagonalize gives them: the signature table counts the signs
    of the values, and the orbit's well-ordered basis reads the vectors.
    """
    _require(data.S is not None, "primitive forms need S")
    N = _nilpotent(data)
    out = {}
    for (p, q), prim in primitive_subspaces(data, splitting).items():
        B = prim.basis
        pairing = B.transpose() @ data.S @ (N.power(p + q - data.d) @ B.conj())
        H = pairing.scale(i_power(p - q))
        out[(p, q)] = (prim, *hermitian_diagonalize(
            H, f"primitive form at ({p},{q}) is not Hermitian"))
    return out


def signature_table(data: MHSData, splitting: DeligneSplitting, forms) -> SignatureTable:
    """Exact signatures of (sqrt(-1))^(p-q) S(., N^(p+q-d) conj .) on the
    (p,q)-parts of the primitive subspaces.  The forms must be nondegenerate
    (guaranteed in Situation B'; degeneracy signals bad input).  forms is
    primitive_forms(data, splitting).
    """
    _require(data.S is not None, "signature table needs S")
    entries = {}
    for (p, q), (_, _, values, nulls) in forms.items():
        if nulls:
            raise ValueError(
                f"degenerate primitive Hermitian block at ({p},{q})"
            )
        entries[(p, q)] = (sum(v > 0 for v in values), sum(v < 0 for v in values))
    part_dims = {pq: sub.dim for pq, sub in splitting.parts.items()}
    return SignatureTable(data.d, entries, part_dims)


# ---------------------------------------------------------------------------
# random polarized mixed Hodge structures (for property tests)
# ---------------------------------------------------------------------------


def random_polarized_mhs(
    rng: random.Random,
    max_dim: int = 10,
    max_d: int = 4,
    polarized: bool = True,
    twist: bool = True,
    transport: bool = True,
):
    """A random Situation (A')+(B') structure with known primitive data.

    Built from a conjugation-symmetric multiset of primitive slots (p,q)
    with 0 <= p,q <= d <= p+q, each carrying a Jordan string of length
    p+q-d+1 and a primitive form value lambda (positive when polarized);
    the Hodge filtration is then twisted by exp of an odd polynomial in N
    (so the result is genuinely non-split) and everything is moved by a
    random rational coordinate change.

    Returns (MHSData, expected) where expected maps (p,q) to the exact
    primitive signature (plus, minus) the signature table must produce.
    """
    d = rng.randrange(1, max_d + 1)
    slots = []  # (p, q, lam); p >= q, a p > q slot stands for the conj pair
    total = 0
    while True:
        p = rng.randrange(0, d + 1)
        q = rng.randrange(max(0, d - p), d + 1)
        if p < q:
            p, q = q, p
        length = p + q - d + 1
        cost = length * (1 if p == q else 2)
        if total + cost > max_dim:
            if slots:
                break
            continue
        lam = Fraction(rng.randrange(1, 5), rng.randrange(1, 4))
        if not polarized and rng.random() < 0.5:
            lam = -lam
        slots.append((p, q, lam))
        total += cost
        if total >= max_dim or rng.random() < 0.3:
            break
    n = total

    N_rows = [[Fraction(0)] * n for _ in range(n)]
    S_rows = [[Fraction(0)] * n for _ in range(n)]
    expected: dict[tuple[int, int], list[int]] = {}
    # layout: real slots occupy consecutive indices r = 0..l;
    # complex slots occupy pairs (f_r, g_r) with u_r = f_r + i g_r
    offset = 0
    weight_of: list[int] = []
    fvec_entries: list[tuple[int, list[tuple[int, GaussianScalar]]]] = []
    for (p, q, lam) in slots:
        l = p + q - d
        sgn = 1 if lam > 0 else -1
        if p == q:
            base = offset
            for r in range(l):
                N_rows[base + r + 1][base + r] = Fraction(1)
            for r in range(l + 1):
                s = l - r
                S_rows[base + r][base + s] = (-1) ** r * lam
                weight_of.append(p + q - 2 * r)
            for r in range(l + 1):
                fvec_entries.append((p - r, [(base + r, G_ONE)]))
            key = (p, q)
            acc = expected.setdefault(key, [0, 0])
            acc[0 if sgn > 0 else 1] += 1
            offset += l + 1
        else:
            base = offset  # pairs: index(f_r) = base+2r, index(g_r) = base+2r+1
            # mu = i^(q-p) lam
            unit = i_power(q - p)
            re_mu, im_mu = unit.re * lam, unit.im * lam
            for r in range(l):
                N_rows[base + 2 * r + 2][base + 2 * r] = Fraction(1)
                N_rows[base + 2 * r + 3][base + 2 * r + 1] = Fraction(1)
            for r in range(l + 1):
                s = l - r
                c = Fraction((-1) ** r)
                # S(f_r, f_s) = S(g_r, g_s) = (-1)^r Re(mu)/2,
                # S(f_r, g_s) = -(-1)^r Im(mu)/2, S(g_r, f_s) = (-1)^r Im(mu)/2
                S_rows[base + 2 * r][base + 2 * s] += c * re_mu / 2
                S_rows[base + 2 * r + 1][base + 2 * s + 1] += c * re_mu / 2
                S_rows[base + 2 * r][base + 2 * s + 1] += -c * im_mu / 2
                S_rows[base + 2 * r + 1][base + 2 * s] += c * im_mu / 2
                weight_of.append(p + q - 2 * r)
                weight_of.append(p + q - 2 * r)
            for r in range(l + 1):
                # u_r = f_r + i g_r has type (p-r, q-r)
                fvec_entries.append(
                    (p - r, [(base + 2 * r, G_ONE), (base + 2 * r + 1, G_I)])
                )
                # conj u_r has type (q-r, p-r)
                fvec_entries.append(
                    (q - r, [(base + 2 * r, G_ONE), (base + 2 * r + 1, i_power(-1))])
                )
            for key in [(p, q), (q, p)]:
                acc = expected.setdefault(key, [0, 0])
                acc[0 if sgn > 0 else 1] += 1
            offset += 2 * (l + 1)
    _require(offset == n, f"the generated blocks fill {offset} of {n} dimensions")

    N = ExactMatrix.from_rational(N_rows)
    S = ExactMatrix.from_rational(S_rows)

    # W directly from the string weights (agrees with weight_filtration(N, d))
    wmin, wmax = min(weight_of), max(weight_of)
    W_steps = {}
    for w in range(wmin, wmax + 1):
        cols = [j for j, wt in enumerate(weight_of) if wt <= w]
        if cols:
            W_steps[w] = Subspace._trusted(n, ExactMatrix.identity(n).take_columns(cols))
    F_steps = {}
    max_index = max(level for level, _ in fvec_entries)
    for k in range(0, max_index + 1):
        vecs = []
        for level, entries in fvec_entries:
            if level >= k:
                v = [G_ZERO] * n
                for j, val in entries:
                    v[j] = val
                vecs.append(v)
        F_steps[k] = Subspace.span(n, vecs)
    F = DecreasingFiltration(n, F_steps)
    W = IncreasingFiltration(n, W_steps)

    if twist:
        # odd polynomials in N are S-infinitesimal isometries; exp of one
        # moves F off the split position without touching W, N, S
        M = ExactMatrix.zero(n, n)
        for j in range(1, n + 1, 2):
            Nj = N.power(j)
            if not Nj.is_zero():
                c = GaussianScalar(
                    Fraction(rng.randrange(-2, 3)), Fraction(rng.randrange(-2, 3))
                )
                M = M + Nj.scale(c)
        E = exp_nilpotent(M)
        F = F.apply(sum(E[1:], E[0]))

    if transport:
        # random unimodular coordinate change: a product of integer shears
        # and sign flips, so the inverse is integral and entries stay small
        rows = [[Fraction(int(j == k)) for k in range(n)] for j in range(n)]
        for _ in range(2 * n):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        for j in range(n):
            if rng.random() < 0.25:
                rows[j] = [-a for a in rows[j]]
        T = ExactMatrix.from_rational(rows)
        Tinv = inverse(T)
        W = W.apply(T)
        F = F.apply(T)
        N = T @ N @ Tinv
        S = Tinv.transpose() @ S @ Tinv

    data = MHSData(n, d, W, F, N=N, S=S)
    return data, {pq: tuple(v) for pq, v in expected.items()}
