"""Weight spectral sequence of a one-parameter semistable degeneration, built
from combinatorial central-fiber data: stratum cohomology with Poincaré
pairings, Gysin and restriction maps.

Provides the E1/E2 pages, the weight-filtration criterion (the identity-shift
maps on E2 must be isomorphisms), the psi pairings on E1 terms, exact E2
signature tables on monodromy-primitive parts, and the nearby-fiber
Hodge-index report.  A split limit mixed Hodge structure can be extracted in
E2 class coordinates for cross-checking against the abstract machinery.

The stratum maps are enumerated in one place (_stratum_maps), a framed map's
type shift is checked in one place (_type_break), stratum blocks are placed
at E1 offsets in one place (_e1_matrix) and d1, raw or framed, is placed from
its table of signed stratum maps in one place (_d1).  Every E2 page is built
one way: its boundary spaces are the images of the previous term's outgoing
sector blocks, each eliminated once per _SectorMaps.  E2 sector dimensions
come by rank-nullity, sector classes are built only where read, and the
shift map nu^s is applied and checked in one place (_shifted_classes); the
weight criterion and the primitive parts read no class of a target sector.
"""

from __future__ import annotations

from math import gcd

from .exactlin import (
    ContractError,
    ExactMatrix,
    Subspace,
    class_coordinates,
    hermitian_signature,
    i_power,
    image,
    inverse,
    json_dict,
    json_int,
    kernel,
    kernel_modulo,
    matrix_from_json,
    matrix_to_json,
    rank,
)
from .report import Report
from .signature import SignatureTable, epsilon_sign, nearby_index_formula


def _frame_map(data: "DegenerationData"):
    """The function framed(M, src, tgt) = F_tgt^{-1} M F_src for a stratum
    map M from src = (depth, q) to tgt, in the frames of data.  A stratum
    degree without a frame has the identity frame and contributes no factor;
    each frame is inverted once, when a map first lands on it."""
    inverses = {}

    def frame(depth, q):
        s = data.strata.get(depth)
        entry = s.cohomology.get(q) if s else None
        return entry["frame"] if entry else None

    def framed(M: ExactMatrix, src: tuple, tgt: tuple) -> ExactMatrix:
        Ft = frame(*tgt)
        if Ft is not None:
            if tgt not in inverses:
                inverses[tgt] = inverse(Ft)
            M = inverses[tgt] @ M
        Fs = frame(*src)
        if Fs is not None:
            M = M @ Fs
        return M

    return framed


class StratumCohomology:
    """Cohomology of the depth-l stratum E(l), one merged space per degree.

    Per degree q: dimension, type tags (p', q') with p'+q' = q, the Poincaré
    pairing matrix against degree 2n-q (n the complex dimension of E(l)), and
    an optional complex frame whose columns form a type-split basis (required
    whenever some tag has p' != q'; conjugating the frame must permute its
    columns by the tag swap).
    """

    __slots__ = ("depth", "cohomology")

    def __init__(self, depth: int, cohomology: dict):
        if depth < 1:
            raise ContractError(f"stratum depth {depth} is below 1")
        entries = {}
        for q, entry in cohomology.items():
            types = [tuple(t) for t in entry["types"]]
            dim = entry.get("dim", len(types))
            if dim != len(types):
                raise ContractError(f"dim/type mismatch at depth {depth} q {q}")
            pairing = entry.get("pairing")
            frame = entry.get("frame")
            entries[q] = {
                "dim": dim,
                "types": types,
                "pairing": pairing,
                "frame": frame,
            }
        self.depth = depth
        self.cohomology = entries

    def dim(self, q: int) -> int:
        entry = self.cohomology.get(q)
        return entry["dim"] if entry else 0

    def types(self, q: int) -> list[tuple[int, int]]:
        entry = self.cohomology.get(q)
        return entry["types"] if entry else []

    def pairing(self, q: int) -> ExactMatrix | None:
        entry = self.cohomology.get(q)
        return entry["pairing"] if entry else None

    def frame(self, q: int) -> ExactMatrix:
        entry = self.cohomology.get(q)
        if entry is None:
            return ExactMatrix.identity(0)
        if entry["frame"] is not None:
            return entry["frame"]
        return ExactMatrix.identity(entry["dim"])

    def to_json(self) -> dict:
        out = {"depth": self.depth, "cohomology": []}
        for q in sorted(self.cohomology):
            e = self.cohomology[q]
            item = {"q": q, "dim": e["dim"], "types": [list(t) for t in e["types"]]}
            if e["pairing"] is not None:
                item["pairing"] = matrix_to_json(e["pairing"])
            if e["frame"] is not None:
                item["frame"] = matrix_to_json(e["frame"])
            out["cohomology"].append(item)
        return out

    @staticmethod
    def from_json(blob: dict) -> "StratumCohomology":
        entries = []
        for item in blob["cohomology"]:
            entry = {"dim": json_int(item, "dim"), "types": [tuple(t) for t in item["types"]]}
            if "pairing" in item:
                entry["pairing"] = matrix_from_json(item["pairing"])
            if "frame" in item:
                entry["frame"] = matrix_from_json(item["frame"])
            entries.append((json_int(item, "q"), entry))
        depth = json_int(blob, "depth")
        return StratumCohomology(depth, json_dict(
            entries, f"cohomology of depth {depth}: q %d appears twice"))


class DegenerationData:
    """Central-fiber data: fiber dimension m, strata by depth, Gysin maps
    gamma (depth l+1 -> depth l, degree +2, type (1,1)) and restriction maps
    theta (depth l -> depth l+1, degree and type preserved).

    gysin[(l, q)]: H^q(E(l+1)) -> H^{q+2}(E(l));
    restriction[(l, q)]: H^q(E(l)) -> H^q(E(l+1)).  Missing keys mean zero.
    """

    __slots__ = ("m", "strata", "gysin", "restriction")

    def __init__(self, m: int, strata, gysin=None, restriction=None):
        self.m = m
        self.strata = {s.depth: s for s in strata}
        self.gysin = dict(gysin or {})
        self.restriction = dict(restriction or {})

    def max_depth(self) -> int:
        return max(self.strata) if self.strata else 0

    def stratum_dim(self, depth: int, q: int) -> int:
        s = self.strata.get(depth)
        return s.dim(q) if s else 0

    def complex_dim(self, depth: int) -> int:
        return self.m - depth + 1

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "strata": [self.strata[l].to_json() for l in sorted(self.strata)],
            "gysin": [
                {"depth": l, "q": q, "matrix": matrix_to_json(M)}
                for (l, q), M in sorted(self.gysin.items())
            ],
            "restriction": [
                {"depth": l, "q": q, "matrix": matrix_to_json(M)}
                for (l, q), M in sorted(self.restriction.items())
            ],
        }

    @staticmethod
    def from_json(blob: dict) -> "DegenerationData":
        read = [StratumCohomology.from_json(s) for s in blob["strata"]]
        strata = json_dict(((s.depth, s) for s in read), "strata: depth %d appears twice").values()
        m = json_int(blob, "m", minimum=0)
        source_dim = DegenerationData(m, strata).stratum_dim

        def maps(kind: str, shift: int) -> dict:
            # a map without rows keeps the width of its source, at depth + shift
            out = []
            for g in blob.get(kind, []):
                depth, q = json_int(g, "depth", minimum=1), json_int(g, "q", minimum=0)
                width = source_dim(depth + shift, q)
                out.append(((depth, q), matrix_from_json(g["matrix"], width)))
            return json_dict(out, f"{kind}: depth %d, q %d appears twice")

        return DegenerationData(m, strata, maps("gysin", 1), maps("restriction", 0))


def _conj_permutation(frame: ExactMatrix, types: list) -> list | None:
    """Permutation sigma with conj(column j) == column sigma(j) and swapped
    type tag, or None if none exists; sigma(j) is the first such column.
    Columns are found by hashing their entries, read from the stored
    integers: entry (r, j) is (re + i im) / den[r], which divided by the gcd
    of its three integers is one triple per value, and its conjugate negates
    im.  No matrix and no entries view is built."""
    c, re, den = frame.cols, frame.re, frame.den
    im = frame.im or (0,) * len(re)

    def entry(r, j):
        x, y, d = re[r * c + j], im[r * c + j], den[r]
        g = gcd(x, y, d)
        return x // g, y // g, d // g

    cols = [(tuple(entry(r, j) for r in range(frame.rows)), tuple(types[j])) for j in range(c)]
    first = {}
    for j, key in enumerate(cols):
        first.setdefault(key, j)
    sigma = [first.get((tuple((x, -y, d) for x, y, d in col), (t[1], t[0]))) for col, t in cols]
    return None if None in sigma else sigma


def validate_degeneration_data(data: DegenerationData) -> Report:
    failures = []
    m = data.m
    if not data.strata:
        return Report(["no strata"])
    depths = sorted(data.strata)
    if depths != list(range(1, len(depths) + 1)):
        failures.append(f"stratum depths {depths} are not contiguous from 1")
    pairings_ok = True
    # stratum degrees whose frame cannot frame a map: misshaped, singular, or
    # never checked; each failure is listed, so no map through one is framed
    unframed = set()
    for depth, s in sorted(data.strata.items()):
        n = data.complex_dim(depth)
        if n < 0:
            failures.append(f"depth {depth}: stratum deeper than m + 1 = {m + 1}")
            unframed.update((depth, q) for q in s.cohomology)
            continue
        # degrees whose pairing equals +-the transpose of the nondegenerate
        # pairing of the dual degree: same rank, and consistent with it
        dual_checked = set()
        misshaped = set()  # degrees whose pairing has the wrong shape
        for q, entry in sorted(s.cohomology.items()):
            tag = f"depth {depth} degree {q}"
            if not (0 <= q <= 2 * n):
                failures.append(f"{tag}: degree out of range for dimension {n}")
                unframed.add((depth, q))
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
                    misshaped.add(q)
                    pairings_ok = False
                elif q in dual_checked:
                    pass
                elif rank(P) != min(P.rows, P.cols):
                    failures.append(f"{tag}: degenerate pairing")
                else:
                    Pd = s.pairing(2 * n - q)
                    Pt = P.transpose()
                    if (q * (2 * n - q)) % 2:
                        Pt = -Pt
                    if Pd is not None and Pd != Pt:
                        failures.append(f"{tag}: pairing transpose inconsistency")
                    elif Pd is not None:
                        dual_checked.add(2 * n - q)
            F = entry["frame"]
            if F is not None:
                if F.rows != entry["dim"] or F.cols != entry["dim"]:
                    failures.append(f"{tag}: frame shape mismatch")
                    unframed.add((depth, q))
                elif rank(F) != F.cols:
                    failures.append(f"{tag}: singular frame")
                    unframed.add((depth, q))
                elif _conj_permutation(F, types) is None:
                    failures.append(f"{tag}: frame conjugation does not swap types")
            else:
                if any(a != b for (a, b) in types):
                    failures.append(f"{tag}: frame required for types with p' != q'")
        failures.extend(_pairing_type_failures(s, n, misshaped, unframed))
    # gamma raises type by (1,1), theta preserves type (checked in frame coords)
    framed = _frame_map(data)
    shapes_ok = True
    for kind, (depth, q), src, tgt, M in _stratum_maps(data):
        tag = f"{kind} depth {depth} degree {q}"
        want = (data.stratum_dim(*tgt), data.stratum_dim(*src))
        if (M.rows, M.cols) != want:
            failures.append(f"{tag}: shape {(M.rows, M.cols)} != {want}")
            shapes_ok = False
        elif M.rows and M.cols and not {src, tgt} & unframed:
            bad = _type_break(data, src, tgt, framed(M, src, tgt))
            if bad is not None:
                (i, j), (a, b) = bad
                failures.append(f"{tag}: entry ({i},{j}) shifts type by ({a},{b})")
    # the relations multiply the maps, so they need every map well shaped;
    # adjointness multiplies the pairings too
    if shapes_ok:
        if pairings_ok:
            failures.extend(_adjointness_failures(data))
        failures.extend(_d1_square_failures(data))
    return Report(failures)


def _pairing_type_failures(s: StratumCohomology, n: int, misshaped: set, unframed: set) -> list:
    """A pairing is a morphism of Hodge structures: in frame coordinates,
    G = F_q^T P_q F_{2n-q} pairs type t only with type (n, n) - t.  One
    check per Poincaré pair (q, 2n - q), q <= n, of which some degree has a
    frame (without one every type is (q/2, q/2)), naming the first nonzero
    entry of G that breaks this; degrees already listed with a misshaped
    pairing or an unusable frame are skipped."""
    out = []
    for q, entry in sorted(s.cohomology.items()):
        dual = 2 * n - q
        P, F = entry["pairing"], entry["frame"]
        Fd = s.cohomology[dual]["frame"] if dual in s.cohomology else None
        if (q > dual or P is None or (F is None and Fd is None) or q in misshaped
                or {(s.depth, q), (s.depth, dual)} & unframed):
            continue
        G = P if Fd is None else P @ Fd
        if F is not None:
            G = F.transpose() @ G
        types, dual_types = entry["types"], s.types(dual)
        for i, j in G.nonzero():
            (a, b), (c, e) = types[i], dual_types[j]
            if (a + c, b + e) != (n, n):
                out.append(f"depth {s.depth} degree {q}: "
                           f"pairing pairs type ({a},{b}) with ({c},{e})")
                break
    return out


def _stratum_maps(data: DegenerationData):
    """Each stratum map as (kind, key, source, target, matrix): the Gysin
    maps, then the restrictions, each kind in key order.  gysin[(l, q)] runs
    from H^q(E(l+1)) to H^{q+2}(E(l)); restriction[(l, q)] runs from
    H^q(E(l)) to H^q(E(l+1)).  Source and target are (depth, q).
    Validation's map loop and _d1_maps read the keying only through it."""
    for (l, q), M in sorted(data.gysin.items()):
        yield "gysin", (l, q), (l + 1, q), (l, q + 2), M
    for (l, q), M in sorted(data.restriction.items()):
        yield "restriction", (l, q), (l, q), (l + 1, q), M


def _type_break(data: DegenerationData, src: tuple, tgt: tuple, T: ExactMatrix):
    """The first nonzero entry (i, j) of the framed map T from src to tgt
    whose target type differs from its source type by something other than
    (s, s), with that difference; None if every entry keeps it.  A stratum
    map of degree 2s has type (s, s): s = 1 for a Gysin map, 0 for a
    restriction."""
    shift = (tgt[1] - src[1]) // 2
    st, tt = (data.strata[l].types(q) if l in data.strata else [] for l, q in (src, tgt))
    for i, j in T.nonzero():
        a, b = tt[i][0] - st[j][0], tt[i][1] - st[j][1]
        if (a, b) != (shift, shift):
            return (i, j), (a, b)
    return None


def _adjointness_failures(data: DegenerationData) -> list[str]:
    """<gamma x, z> = sigma <x, theta z> blockwise, sigma a sign per block."""
    out = []
    for (depth, q), G in sorted(data.gysin.items()):
        n = data.complex_dim(depth)
        qd = 2 * n - q - 2  # complementary degree on E(depth)
        s = data.strata.get(depth)
        s2 = data.strata.get(depth + 1)
        if s is None or s2 is None:
            continue
        P = s.pairing(q + 2)
        P2 = s2.pairing(q)
        if P is None or P2 is None:
            continue
        T = data.restriction.get((depth, qd)) or ExactMatrix.zero(s2.dim(qd), s.dim(qd))
        lhs = G.transpose() @ P
        rhs = P2 @ T
        if lhs != rhs and lhs != -rhs:
            out.append(
                f"gysin/restriction adjointness fails at depth {depth} degree {q}"
            )
    return out


def _d1_square_failures(data: DegenerationData) -> list[str]:
    """d1 o d1 = 0 as relations among the stratum maps, with no d1 assembled.

    H^q(E(l)) sits at degree d = q + l - 1 in the columns r = l - 1 - 2k,
    k = 0..l-1; this is the inverse of e1_summands.  With d1 = -gamma +
    theta, d1 o d1 on that summand is theta theta at every k, -(gamma theta
    + theta gamma) for k <= l - 2 and gamma gamma for k <= l - 3: every
    other path leaves the truncated range.  Each composite is formed once
    per stratum degree, and only when some column reads it."""
    # out of H^q(E(l)): theta((l, q)) and gamma((l - 1, q)); a missing map is zero
    theta, gamma = data.restriction.get, data.gysin.get
    bad = set()
    for l, s in data.strata.items():
        for q in s.cohomology:
            d = q + l - 1
            if q < 0 or d > 2 * data.m or not s.dim(q):
                continue
            for columns, paths in (
                (l, [(theta((l + 1, q)), theta((l, q)))]),
                (l - 1, [(theta((l - 1, q + 2)), gamma((l - 1, q))),
                         (gamma((l, q)), theta((l, q)))]),
                (l - 2, [(gamma((l - 2, q + 2)), gamma((l - 1, q)))]),
            ):
                if columns < 1:
                    continue
                products = [A @ B for A, B in paths if A is not None and B is not None]
                if products and not sum(products[1:], products[0]).is_zero():
                    bad.update((d, l - 1 - 2 * k) for k in range(columns))
    return [f"d1 o d1 != 0 at degree {d}, column {-r}" for d, r in sorted(bad)]


class Summand:
    """One twisted stratum summand H^q(E(depth)) inside an E1 term."""

    __slots__ = ("k", "depth", "q", "dim", "twist")

    def __init__(self, k, depth, q, dim, twist):
        self.k = k
        self.depth = depth
        self.q = q
        self.dim = dim
        self.twist = twist

    def __repr__(self):
        return (
            f"Summand(k={self.k}, depth={self.depth}, q={self.q}, "
            f"dim={self.dim}, twist={self.twist})"
        )


def e1_summands(data: DegenerationData, d: int, r: int) -> list[Summand]:
    """Summands of E1^{-r, d+r}: H^{d-r-2k}(E(2k+r+1)) with twist r+k, for
    k >= max(0, -r).  The inverse, which _d1_square_failures reads: H^q(E(l))
    sits at degree q + l - 1 in the columns r = l - 1 - 2k, k = 0..l-1.  The
    depth 2k+r+1 is at least |r|+1, so E1 is zero for |r| >= max depth."""
    out = []
    k, top = max(0, -r), data.max_depth()
    while True:
        depth = 2 * k + r + 1
        q = d - r - 2 * k
        if depth > top or q < 0:
            break
        dim = data.stratum_dim(depth, q)
        if dim:
            out.append(Summand(k, depth, q, dim, r + k))
        k += 1
    return out


def _e1_matrix(rows: list[Summand], cols: list[Summand], block) -> ExactMatrix:
    """The matrix from the E1 term with summands cols to the one with
    summands rows that is zero but for its stratum blocks: block(a, b) is
    the block from summand b to summand a, or None where there is none.
    Each summand's rows (or columns) follow those of the summands before
    it."""
    placed, top = [], 0
    for a in rows:
        left = 0
        for b in cols:
            B = block(a, b)
            if B is not None:
                placed.append((range(top, top + a.dim), left, B))
            left += b.dim
        top += a.dim
    return ExactMatrix.assemble(top, sum(b.dim for b in cols), placed)


def _d1_maps(data: DegenerationData, framed=None) -> dict:
    """The stratum maps as d1 = -gamma + theta reads them, keyed by (source,
    target): each Gysin map negated and, if framed is given (see
    _frame_map), framed."""
    out = {}
    for kind, _, src, tgt, M in _stratum_maps(data):
        if framed is not None:
            M = framed(M, src, tgt)
        out[src, tgt] = -M if kind == "gysin" else M
    return out


def _d1(maps: dict, src: list[Summand], tgt: list[Summand]) -> ExactMatrix:
    """d1 from the E1 term with summands src, E1^{-r, d+r}, to the one with
    summands tgt, E1^{-r+1, d+r}, placed from a table of _d1_maps.  gamma:
    E(depth) -> E(depth-1), degree +2, k -> k; theta: E(depth) ->
    E(depth+1), same degree, k -> k+1; a missing map is zero, and components
    whose target summand falls outside the truncated range are dropped."""
    return _e1_matrix(tgt, src, lambda a, b: maps.get(((b.depth, b.q), (a.depth, a.q))))


def d1_matrix(data: DegenerationData, d: int, r: int) -> ExactMatrix:
    """Block matrix of d1 = -gamma + theta from E1^{-r, d+r} (degree d) to
    E1^{-r+1, (d+1)+(r-1)} (degree d+1)."""
    return _d1(_d1_maps(data), e1_summands(data, d, r), e1_summands(data, d + 1, r - 1))


def _term_frame(data: DegenerationData, summands: list[Summand]) -> ExactMatrix:
    return _e1_matrix(summands, summands,
                      lambda a, b: data.strata[a.depth].frame(a.q) if a is b else None)


def _column_keys(summands: list[Summand]) -> list[tuple[int, int, int]]:
    """Each column of a term as (depth, q, j): basis vector j of its stratum
    degree H^q(E(depth)), whichever twist the summand carries."""
    return [(s.depth, s.q, j) for s in summands for j in range(s.dim)]


def _move_rows(src_keys: list, tgt_keys: list, X: ExactMatrix) -> ExactMatrix:
    """X with each row moved from its key's place in src_keys to that key's
    place in tgt_keys; a key missing from tgt_keys drops its row and a key
    missing from src_keys gets a zero row.  No product is formed."""
    at = {key: i for i, key in enumerate(src_keys)}
    rows = [i for i, key in enumerate(tgt_keys) if key in at]
    block = X.take_rows([at[tgt_keys[i]] for i in rows])
    return ExactMatrix.assemble(len(tgt_keys), X.cols, [(rows, 0, block)])


def _transport(src: list[Summand], tgt: list[Summand], X: ExactMatrix) -> ExactMatrix:
    """The identity transport applied to the columns of X, vectors of the
    term with summands src: each target summand takes the rows of the source
    summand with its (depth, q), or zero rows if there is none.  Source
    summands whose shifted index falls outside the target's truncated range
    are dropped; this truncation is what makes the induced shift nilpotent.
    Summands with one (depth, q) have one dimension, that of H^q(E(depth))."""
    return _move_rows(_column_keys(src), _column_keys(tgt), X)


class E2Term:
    """E2^{-r, d+r} as the direct sum of its limit-type sectors (P, Q) =
    (p'+twist, q'+twist), each in its own coordinates.  d1 is a morphism of
    Hodge structures, so each sector is its own quotient ker d1 / im d1,
    taken in the sector's columns: sector_cols[sec] lists those columns of
    the E1 term (frame coordinates), in order.  The block of sector sec in
    any matrix from one term to another is that matrix's rows
    tgt.sector_cols[sec] and columns src.sector_cols[sec].
    _SectorMaps.images fills in sector_d1[sec], the sector's outgoing d1
    block, and E2Page sector_B[sec], its boundary space, and
    sector_dims[sec], in sorted sector order; reps(sec) reduces the first
    two once, where the classes are first read.  Nothing is lifted to the
    whole term here; extract_limit_mhs does that, once, where whole-term
    vectors are read."""

    __slots__ = ("summands", "sector_cols", "sector_d1", "sector_B", "sector_dims", "_reps")

    def __init__(self, data: DegenerationData, summands: list[Summand]):
        self.summands = summands
        self.sector_cols, self.sector_d1, self.sector_B, self.sector_dims = {}, {}, {}, {}
        self._reps = {}  # sec -> representatives, once read
        types = ((s.twist, t) for s in summands for t in data.strata[s.depth].types(s.q))
        for c, (w, (a, b)) in enumerate(types):
            self.sector_cols.setdefault((a + w, b + w), []).append(c)

    def reps(self, sec: tuple[int, int]) -> ExactMatrix:
        if sec not in self._reps:
            self._reps[sec] = kernel_modulo(self.sector_d1[sec], self.sector_B[sec])[1]
        return self._reps[sec]

    @property
    def dim(self) -> int:
        return sum(self.sector_dims.values())


# the term of every (d, r) without an E1 summand, and of every column outside
# a page: it has no sector, so nothing fills it in
_NO_TERM = E2Term(DegenerationData(0, ()), [])
# the image of a sector block without rows, whose sector the next term lacks
_NO_IMAGE = Subspace.zero(0)


class _SectorMaps:
    """The framed d1 maps of one input, for one pipeline call.  The stratum
    maps are enumerated and framed once (see _frame_map) into one table of
    _d1_maps.  A term frame is block-diagonal with the stratum frames as
    blocks, so d1 placed from that table is F_out^{-1} d1 F.  d1 is a
    morphism of Hodge structures, so a framed map with an entry that breaks
    its type shift (see _type_break) breaks the sectors; broken holds those
    maps.  A term without an E1 summand, such as any column past the
    deepest stratum, |r| >= max depth, is the shared empty one, and no
    E2Term is built for it.  Each term, and the images of its outgoing
    sector blocks, are made once per call."""

    def __init__(self, data: DegenerationData):
        self.data = data
        self.terms: dict[tuple[int, int], E2Term] = {}  # (d, r) -> term, made once
        self.outgoing: dict[tuple[int, int], dict] = {}  # (d, r) -> sec -> image, made once
        self.maps = _d1_maps(data, _frame_map(data))  # (source, target) -> framed map
        self.broken = {key for key, M in self.maps.items()
                       if _type_break(data, *key, M) is not None}

    def term(self, d: int, r: int) -> E2Term:
        """The term at degree d, column -r, whose sectors its page fills in;
        its E1 summands are scanned once."""
        if (d, r) not in self.terms:
            summands = e1_summands(self.data, d, r)
            self.terms[d, r] = E2Term(self.data, summands) if summands else _NO_TERM
        return self.terms[d, r]

    def d1(self, src: E2Term, tgt: E2Term, d: int, r: int) -> ExactMatrix:
        """The framed d1 from the term src to the next term tgt.  It must
        read no map that breaks the sectors; the reading term, at degree d,
        column -r, names one."""
        if any(((a.depth, a.q), (b.depth, b.q)) in self.broken
               for a in src.summands for b in tgt.summands):
            raise ContractError(f"d1 violates type sectors at degree {d}, column {-r}")
        return _d1(self.maps, src.summands, tgt.summands)

    def images(self, d: int, r: int) -> dict:
        """The image of each outgoing sector block of the term at degree d,
        column -r, by sector: the boundary spaces of the next term's
        sectors.  The first call places the one framed d1 from the term to
        the next, keeps each sector's block as the term's sector_d1 and
        eliminates it once, pivots only, if it has rows."""
        if (d, r) not in self.outgoing:
            term, tgt = self.term(d, r), self.term(d + 1, r - 1)
            images = self.outgoing[d, r] = {}
            if term.sector_cols:
                out = self.d1(term, tgt, d, r)
                for sec in sorted(term.sector_cols):
                    block = term.sector_d1[sec] = _sector_block(out, term, tgt, sec)
                    images[sec] = image(block) if block.rows else _NO_IMAGE
        return self.outgoing[d, r]


def _hodge_numbers(terms) -> dict[tuple[int, int], int]:
    """Limit Hodge numbers from the sector dimensions of a page's terms,
    given term by term; a sector is keyed where it first has a class."""
    out: dict[tuple[int, int], int] = {}
    for dims in terms:
        for sec, dim in dims.items():
            if dim:
                out[sec] = out.get(sec, 0) + dim
    return out


def _sector_block(M: ExactMatrix, src: E2Term, tgt: E2Term, sec: tuple[int, int]) -> ExactMatrix:
    """The block of sector sec in the matrix M from the term src to the term
    tgt: M itself when both terms are that one sector."""
    return M.take_rows(tgt.sector_cols.get(sec, [])).take_columns(src.sector_cols[sec])


class E2Page:
    """The E2 terms of degree d, each the sum of its type sectors in frame
    coordinates, read from maps, the _SectorMaps of the call (a fresh one
    by default).  A sector's boundary space B is the image of its block in
    the outgoing d1 of the term (d - 1, r + 1), and by rank-nullity its
    dimension is cols - rank - dim B, the rank that of its own outgoing
    block M, once M B = 0 (see _SectorMaps.images).  Pages built from one
    maps, as nearby_hodge_index builds d = 0..m, share those images, so
    each block is eliminated once.  terms has every column -d..d; those
    without an E1 summand share one empty term and do no work."""

    def __init__(self, data: DegenerationData, d: int, maps: _SectorMaps | None = None):
        self.d = d
        maps = _SectorMaps(data) if maps is None else maps
        self.terms = {}
        for r in range(-d, d + 1):
            term = self.terms[r] = maps.term(d, r)
            if not term.sector_cols:
                continue  # no E1 summand: nothing to quotient
            incoming, images = maps.images(d - 1, r + 1), maps.images(d, r)
            for sec, cols in sorted(term.sector_cols.items()):
                B = incoming[sec] if sec in incoming else Subspace.zero(len(cols))
                if B.dim and not (term.sector_d1[sec] @ B.basis).is_zero():
                    raise ContractError(f"d1 image escapes kernel at degree {d}, column {-r}")
                term.sector_B[sec] = B
                term.sector_dims[sec] = len(cols) - images[sec].dim - B.dim

    def term(self, r: int) -> E2Term:
        """The term at column -r; outside -d..d, the shared empty one."""
        return self.terms.get(r, _NO_TERM)

    def dim(self, r: int) -> int:
        return self.term(r).dim

    def hodge_numbers(self) -> dict[tuple[int, int], int]:
        return _hodge_numbers(t.sector_dims for t in self.terms.values())


def e2_page(data: DegenerationData, d: int, maps: _SectorMaps | None = None) -> E2Page:
    return E2Page(data, d, maps)


class WeightCriterionReport(Report):
    """The verdict of the weight criterion at degree d, per r."""

    def __init__(self, d: int, per_r: dict[int, bool]):
        super().__init__([
            f"degree {d}: nu^{r} is not an isomorphism E2^(-{r},{d + r}) -> E2^({r},{d - r})"
            for r, holds in per_r.items() if not holds
        ])
        self.d = d
        self.per_r = dict(per_r)


def _shifted_classes(page: E2Page, r: int, s: int, sec: tuple[int, int]) -> tuple:
    """(TX, tgt, tsec): the classes of the sector sec = (P, Q) of E2^{-r,
    d+r} moved by nu^s into the sector tsec = (P-s, Q-s) of tgt =
    E2^{-r+2s, d+r-2s}, in that sector's coordinates.  The identity
    transport keeps each column's stratum basis vector and its type tag and
    lowers its twist by s, so one sector maps into one sector, row by row;
    the frames commute with it.  The moved classes must lie in the kernel
    of the target sector's d1 block M, M TX = 0, for nu^s to descend to E2.
    TX is None where the target sector has no column, as outside the
    page."""
    src, tgt = page.term(r), page.term(r - 2 * s)
    tsec = (sec[0] - s, sec[1] - s)
    keys, tkeys = _column_keys(src.summands), _column_keys(tgt.summands)
    src_keys = [keys[c] for c in src.sector_cols[sec]]
    tgt_keys = [tkeys[c] for c in tgt.sector_cols.get(tsec, [])]
    if not set(src_keys) & set(tkeys) <= set(tgt_keys):
        raise ContractError("shift map leaves its target sector")
    if not tgt_keys:
        return None, tgt, tsec
    TX = _move_rows(src_keys, tgt_keys, src.reps(sec))
    if not (tgt.sector_d1[tsec] @ TX).is_zero():
        raise ContractError(f"shift map fails to descend to E2 at degree {page.d}, r={r}")
    return TX, tgt, tsec


def _weight_criterion(page: E2Page) -> WeightCriterionReport:
    """For each r >= 0, the identity-shift map nu^r must induce an
    isomorphism E2^{-r, d+r} -> E2^{r, d-r} on the page of degree d: the two
    terms have one dimension and nu^r is injective on every sector.  No
    class of a target sector is built: with TX the n moved classes of a
    source sector (see _shifted_classes) and B the target sector's boundary
    space, nu^r is injective exactly when [B | TX] has rank dim B + n."""
    d = page.d
    per_r = {0: True}  # nu^0 is the identity
    for r in range(1, d + 1):
        same = page.dim(r) == page.dim(-r)
        shifts = [(n, *_shifted_classes(page, r, r, sec))
                  for sec, n in page.term(r).sector_dims.items() if same and n]
        per_r[r] = same and all(TX is not None and rank(t.sector_B[ts].basis.hstack(TX)) ==
                                t.sector_B[ts].dim + n for n, TX, t, ts in shifts)
    return WeightCriterionReport(d, per_r)


def weight_criterion(data: DegenerationData, d: int) -> WeightCriterionReport:
    """The weight criterion at degree d (see _weight_criterion)."""
    return _weight_criterion(e2_page(data, d))


def psi_form(data: DegenerationData, d: int) -> dict[int, ExactMatrix]:
    """Blockwise pairing matrices on E1 terms: for each r, the pairing of
    E1^{-r, d+r} (degree d) against E1^{r, 2m-d-r} (degree 2m-d), matching
    summand k with summand k+r on the same stratum, with block value
    epsilon(r+d-2m) times the stratum pairing.
    """
    m = data.m
    out = {}
    for r in range(-d, d + 1):
        sign = epsilon_sign(r + d - 2 * m)

        def block(a, b):
            if (b.depth, b.q) != (a.depth, 2 * data.complex_dim(a.depth) - a.q):
                return None
            P = data.strata[a.depth].pairing(a.q)
            if P is None:
                raise ContractError(f"psi needs the pairing of depth {a.depth} degree {a.q}")
            return P if sign > 0 else -P

        out[r] = _e1_matrix(e1_summands(data, d, r), e1_summands(data, 2 * m - d, -r), block)
    return out


def _hermitian_gram(data: DegenerationData, summands: list[Summand], r: int) -> ExactMatrix:
    """Block-diagonal Gram of the form S(C., (-N)^r conj .) on the middle-
    degree E1 term, in frame coordinates, without the sector Weil factor
    i^(P-Q): every block carries (-1)^m epsilon(r-m) (-1)^r F^T P conj(F).
    Like psi_form's, the sign does not depend on the summand's k; one that
    did would make the form depend on the representatives of E2 classes.
    """
    m = data.m
    sign = epsilon_sign(r - m) * (-1) ** (m + r)

    def block(s, other):
        if s is not other:
            return None
        if s.q != data.complex_dim(s.depth):
            raise ContractError("hermitian gram needs middle degree")
        entry = data.strata[s.depth].cohomology[s.q]
        if entry["pairing"] is None:
            raise ContractError(
                f"hermitian gram needs the pairing of depth {s.depth} degree {s.q}")
        G = entry["pairing"]
        F = entry["frame"]
        if F is not None:  # a degree without a frame has the identity frame
            G = F.transpose() @ G @ F.conj()
        return G if sign > 0 else -G

    return _e1_matrix(summands, summands, block)


def _primitive_sector_basis(page: E2Page, r: int, sec: tuple[int, int]) -> ExactMatrix:
    """Basis of ker(nu^{r+1}) inside the (P,Q) sector of E2^{-r, m+r}, as
    columns in the sector's coordinates.  With X the sector's n classes, TX
    their moved copies (see _shifted_classes) and B the target sector's
    boundary space, X u is primitive exactly when TX u lies in B, that is
    when u is the first n rows of a vector of ker [TX | B]; B's columns are
    independent, so those rows of a kernel basis are a basis of such u.
    No class of the target sector is built."""
    TX, tgt, tsec = _shifted_classes(page, r, r + 1, sec)
    X = page.term(r).reps(sec)
    if TX is None:  # nu^{r+1} lands in a zero sector: the whole sector is primitive
        return X
    K = kernel(TX.hstack(tgt.sector_B[tsec].basis)).basis
    return X @ K.take_rows(range(X.cols))


class DegenerateFormError(ValueError):
    """A primitive sector form on the middle E2 page is degenerate: the
    input's pairings polarize no limit.  A verdict on valid input, not a
    contract error."""


def _e2_signature_table(data: DegenerationData, page: E2Page) -> SignatureTable:
    """The signature table read from the middle-degree page, on which the
    weight criterion is known to hold."""
    m = data.m
    entries = {}
    for r in range(0, m + 1):
        term = page.term(r)
        if term.dim == 0:
            continue
        G = _hermitian_gram(data, term.summands, r)
        for sec in (sec for sec, n in term.sector_dims.items() if n):
            X = _primitive_sector_basis(page, r, sec)
            if X.cols == 0:
                continue
            P, Q = sec
            # X is in the sector's coordinates: the form needs only the
            # sector block of G
            Gs = _sector_block(G, term, term, sec)
            H = (X.transpose() @ Gs @ X.conj()).scale(i_power(P - Q))
            pos, neg, nulls = hermitian_signature(H, f"non-Hermitian form at sector {sec}")
            if nulls:
                raise DegenerateFormError(
                    f"degenerate primitive form at sector {sec}, r={r}"
                )
            entries[sec] = (pos, neg)
    return SignatureTable(m, entries, page.hodge_numbers())


def e2_signature_table(data: DegenerationData) -> SignatureTable:
    """Exact signatures of S(C., (-N)^r conj .) on the type sectors of the
    monodromy-primitive parts of E2^{-r, m+r}, r >= 0, at middle degree m.

    Requires the weight criterion to hold at degree m.
    """
    m = data.m
    page = e2_page(data, m)
    crit = _weight_criterion(page)
    if not crit.ok:
        raise ContractError(f"weight criterion fails at degree {m}: {crit.per_r}")
    return _e2_signature_table(data, page)


def extract_limit_mhs(data: DegenerationData, d: int) -> "MHSData":
    """Split model of the limit mixed Hodge structure on H^d in E2 class
    coordinates: W from the column grading, F from the type sectors, the
    monodromy N given by the identity-shift transport, and (at d = m) the
    rational pairing induced by the psi blocks.  Where H^d = 0 it is the
    zero structure.

    The page's terms are sector sums in frame coordinates, which may be
    complex, while W, N and S must be real.  So this is the one place that
    builds rational class representatives: one quotient ker d1 / im d1 per
    term of the page, from the d1 maps of data itself.
    """
    # the orbit-side structures load only here, so lmhs check never compiles them
    from .filtration import DecreasingFiltration, IncreasingFiltration
    from .mhs import MHSData

    m = data.m
    page = e2_page(data, d)
    maps = _d1_maps(data)
    rational = {}
    for r, term in page.terms.items():
        B = image(_d1(maps, e1_summands(data, d - 1, r + 1), term.summands))
        _, reps, _ = kernel_modulo(_d1(maps, term.summands, e1_summands(data, d + 1, r - 1)), B)
        if reps is None:
            raise ContractError(f"d1 image escapes kernel at degree {d}, column {-r}")
        rational[r] = (reps, B)
    order = [r for r in range(-d, d + 1) if page.dim(r)]  # weight d+r increasing
    offsets = {}
    total = 0
    for r in order:
        offsets[r] = total
        total += page.dim(r)
    if total == 0:  # the zero structure, with the 0 x 0 pairing at d = m
        Z, zero = ExactMatrix.zero(0, 0), Subspace.zero(0)
        return MHSData(0, d, IncreasingFiltration(0, {d: zero}),
                       DecreasingFiltration(0, {0: zero}), Z, Z if d == m else None)
    # weight filtration
    steps = {}
    for r in order:
        w = d + r
        dim_below = offsets[r] + page.dim(r)
        steps[w] = Subspace(total, ExactMatrix.identity(total).take_columns(range(dim_below)))
    W = IncreasingFiltration(total, steps)
    # Hodge filtration from sector representatives in class coordinates,
    # all of a term's representatives mapped at once
    lifted = []  # blocks of the class coordinates, term by term
    owners = []  # the sector of each column
    for r in order:
        term = page.term(r)
        F = _term_frame(data, term.summands)
        # the one lift of the sector representatives to the whole term
        X = ExactMatrix.zero(F.rows, 0).hstack(
            *[F.take_columns(term.sector_cols[sec]) @ term.reps(sec) for sec in term.sector_dims])
        owners += [sec for sec, n in term.sector_dims.items() for _ in range(n)]
        C = class_coordinates(*rational[r], X)
        if C is None:
            raise ContractError(f"sector representatives leave E2 at column {-r}")
        # term r's block starts at row and column offsets[r]
        lifted.append((range(offsets[r], offsets[r] + C.rows), offsets[r], C))
    classes = ExactMatrix.assemble(total, total, lifted)
    levels = sorted({P for t in page.terms.values() for (P, _) in t.sector_dims})
    fsteps = {}
    for p in levels:
        M = classes.take_columns([k for k, sec in enumerate(owners) if sec[0] >= p])
        fsteps[p] = Subspace(total, image(M).basis)
    if fsteps[levels[0]].dim != total:
        raise ContractError("sector representatives do not span")
    if levels[-1] + 1 not in fsteps:
        fsteps[levels[-1] + 1] = Subspace.zero(total)
    F = DecreasingFiltration(total, fsteps)
    # monodromy: the shift transport, whose sign convention matches the
    # (-1)^r factor carried by the rational pairing blocks below
    placed = []
    for r in order:
        if r - 2 not in rational:
            continue  # the truncated transport drops every class
        X = _transport(page.term(r).summands, page.term(r - 2).summands, rational[r][0])
        M = class_coordinates(*rational[r - 2], X)
        if M is None:
            raise ContractError("shift map fails to descend to E2")
        if r - 2 in offsets:
            placed.append((range(offsets[r - 2], offsets[r - 2] + M.rows), offsets[r], M))
    N = ExactMatrix.assemble(total, total, placed)
    S = None
    if d == m:
        psi = psi_form(data, m)
        placed = []
        for r in order:
            if -r not in offsets:
                continue
            block = rational[r][0].transpose() @ psi[r] @ rational[-r][0]
            # overall factor (-1)^m (-1)^r on top of the psi block sign
            placed.append((range(offsets[r], offsets[r] + block.rows), offsets[-r],
                           -block if (m + r) % 2 else block))
        S = ExactMatrix.assemble(total, total, placed)
    return MHSData(total, d, W, F, N, S)


class IndexReport(Report):
    """Per-degree criterion verdicts and limit Hodge numbers, plus the
    middle-degree signature table and aggregated nearby-fiber Hodge index.
    verdict is the ddbar verdict (the criterion at every degree); failures
    are inconsistencies of the computed index."""

    def __init__(self, m, verdict, per_degree, table, signature, failures):
        super().__init__(failures, verdict=verdict)
        self.m = m
        self.per_degree = per_degree
        self.table = table
        self.signature = signature

    def to_json(self) -> dict:
        out = {
            "m": self.m,
            "ddbar_verdict": self.verdict,
            "degrees": [
                {
                    "d": d,
                    "criterion": {str(r): v for r, v in info["criterion"].items()},
                    "hodge_numbers": [
                        {"p": p, "q": q, "dim": dim}
                        for (p, q), dim in sorted(info["hodge"].items())
                    ],
                }
                for d, info in sorted(self.per_degree.items())
            ],
            "failures": self.failures,
        }
        if self.signature is not None:
            out["signature"] = [
                {"p": p, "plus": pm[0], "minus": pm[1]}
                for p, pm in sorted(self.signature.items())
            ]
        if self.table is not None:
            out["table"] = self.table.to_json()
        return out


def nearby_hodge_index(data: DegenerationData) -> IndexReport:
    """Criterion verdicts and limit Hodge numbers for every degree, and the
    aggregated signature of S(C., conj .) per (p, m-p) at middle degree when
    the criterion holds there.

    Only the pages of degree d <= m are built, each once, from one
    _SectorMaps: the stratum maps are framed once per call, and the images
    of one page's outgoing sector blocks are the next page's boundary
    spaces.  The weight spectral sequence is self-dual (Steenbrink
    1976): psi_form pairs E1^{-r, d+r} with E1^{r, 2m-d-r}, and d1 is
    adjoint to itself up to sign.  So for d > m and d' = 2m - d, the term
    at column r of degree d mirrors the term at column -r of degree d', its
    sector (P, Q) the sector (m-P, m-Q), and the criterion at r is that of
    degree d' for r <= d'.  For r > d' it holds: validation keeps
    q <= 2 dim E(l), which leaves no E1 term of degree d beyond |r| = d'.

    Precondition: data passed validate_degeneration_data.  On other input
    the degrees m+1..2m, read off duality, are unspecified.  Validation is
    not repeated here; lmhs check runs it first."""
    m = data.m
    per_degree = {}
    sector_dims = {}  # degree -> column -> the sector dimensions of that term
    verdict = True
    middle = None
    maps = _SectorMaps(data)
    for d in range(0, m + 1):
        page = e2_page(data, d, maps)
        crit = _weight_criterion(page)
        dims = sector_dims[d] = {r: t.sector_dims for r, t in page.terms.items()}
        per_degree[d] = {"criterion": crit.per_r, "hodge": _hodge_numbers(dims.values())}
        verdict = verdict and crit.ok
        if d == m and crit.ok:
            middle = page
    for d in range(m + 1, 2 * m + 1):
        low = 2 * m - d
        criterion = per_degree[low]["criterion"]
        # the mirrored sectors of each term in sorted order, as the page of
        # degree d would list them
        mirrored = (
            dict(sorted(((m - P, m - Q), dim) for (P, Q), dim in sector_dims[low][-r].items()))
            for r in range(-low, low + 1)
        )
        per_degree[d] = {
            "criterion": {r: criterion.get(r, True) for r in range(d + 1)},
            "hodge": _hodge_numbers(mirrored),
        }
    failures = [
        f"degree {d}: limit Hodge numbers not symmetric at ({p},{q})"
        for d, info in per_degree.items()
        for (p, q), dim in info["hodge"].items()
        if info["hodge"].get((q, p), 0) != dim
    ]
    table = None
    signature = None
    if middle is not None:
        table = _e2_signature_table(data, middle)
        signature = {}
        hodge_m = per_degree[m]["hodge"]
        for p in range(0, m + 1):
            plus, minus = nearby_index_formula(table, p)
            signature[p] = (plus, minus)
            want = sum(dim for (a, _), dim in hodge_m.items() if a == p)
            if plus + minus != want:
                failures.append(
                    f"signature at p={p} sums to {plus + minus}, "
                    f"Hodge number is {want}"
                )
    return IndexReport(m, verdict, per_degree, table, signature, failures)
