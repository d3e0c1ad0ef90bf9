"""Weight and Hodge filtrations, graded pieces, monodromy weight filtration.

Filtrations store only the weights/levels where jumps occur; queries outside
the stored range clamp to the zero or the full subspace.  Graded pieces carry
deterministic representative bases (earliest pivot columns) so reports built
from them are reproducible byte-for-byte.
"""

from __future__ import annotations

from typing import Mapping

from .exactlin import (
    ExactMatrix,
    Subspace,
    _require,
    class_coordinates,
    image,
    kernel_modulo,
    quotient_reps,
    rank,
)
from .report import Report


class Filtration:
    """A finite exhaustive filtration, stored as index -> step where it jumps.

    Each subclass sets its direction: the steps grow with the index when it
    is +1 (W_a <= W_b for a <= b) and shrink with it when it is -1 (F^p >=
    F^q for p <= q).  A query past the small end returns zero; a query past
    the large end returns the largest stored step, which must be the full
    ambient space.
    """

    __slots__ = ("ambient_dim", "steps")

    def __init__(self, ambient_dim: int, steps: Mapping[int, Subspace]):
        _require(steps, "a filtration needs at least one step")
        items = sorted(steps.items())
        prev = None
        for i, sub in items[::self.direction]:
            _require(sub.ambient_dim == ambient_dim, "ambient mismatch in step")
            if prev is not None:
                _require(sub.contains(prev), f"step {i} does not contain the smaller step")
            prev = sub
        _require(prev.dim == ambient_dim, "the largest step must be the full space")
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "steps", tuple(items))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def indices(self) -> list[int]:
        return [i for i, _ in self.steps]

    def min_index(self) -> int:
        return self.steps[0][0]

    def max_index(self) -> int:
        return self.steps[-1][0]

    def at(self, i: int) -> Subspace:
        s = self.direction
        chosen = None
        for si, sub in self.steps[::s]:
            if s * si <= s * i:
                chosen = sub
            else:
                break
        return chosen if chosen is not None else Subspace.zero(self.ambient_dim)

    def _map(self, f):
        return type(self)(self.ambient_dim, {i: f(sub) for i, sub in self.steps})

    def shift(self, c: int):
        return type(self)(self.ambient_dim, {i + c: sub for i, sub in self.steps})

    def apply(self, M: ExactMatrix):
        """Transport the filtration through an invertible coordinate change."""
        _require(M.rows == M.cols == self.ambient_dim, "coordinate change of the wrong size")
        return self._map(lambda sub: sub.apply(M))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        ids = set(self.indices()) | set(other.indices())
        return all(self.at(i) == other.at(i) for i in ids)

    def __repr__(self):
        parts = ", ".join(f"{i}:{sub.dim}" for i, sub in self.steps)
        return f"{type(self).__name__}({parts})"


class IncreasingFiltration(Filtration):
    """An increasing filtration W: W_a <= W_b for a <= b."""

    __slots__ = ()
    direction = 1


class DecreasingFiltration(Filtration):
    """A decreasing filtration F: F^p >= F^q for p <= q."""

    __slots__ = ()
    direction = -1

    # W is rational, so only F needs a conjugate; perfbench/tracer.py also
    # looks this method up in this class's own namespace
    def conj(self) -> "DecreasingFiltration":
        return self._map(Subspace.conj)


class GradedPiece:
    """W_k / W_{k-1}, carried by explicit representative columns.

    The representatives are chosen deterministically: the earliest columns of
    the W_k basis that complete a basis of W_{k-1} (exactlin.quotient_reps).
    """

    __slots__ = ("weight", "reps", "lower")

    def __init__(self, weight: int, reps: ExactMatrix, lower: Subspace):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "reps", reps)
        object.__setattr__(self, "lower", lower)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPiece is immutable")

    @property
    def dim(self) -> int:
        return self.reps.cols

    def __repr__(self):
        return f"GradedPiece(weight {self.weight}, dim {self.dim})"


def graded_piece(W: IncreasingFiltration, k: int) -> GradedPiece:
    """Gr_k of W; a ValueError if W_{k-1} is not inside W_k, which only a
    filtration built past its constructor's nesting check can reach."""
    lower = W.at(k - 1)
    reps = quotient_reps(W.at(k), lower)
    if reps is None:
        raise ValueError(f"W_{k-1} is not inside W_{k}")
    return GradedPiece(k, reps, lower)


def induced_map(M: ExactMatrix, src: GradedPiece, tgt: GradedPiece) -> ExactMatrix:
    """The matrix induced by M on representative bases of graded pieces.

    It is a contract error if M does not map the source step into the target
    step (the image of some representative fails to lie in the target space).
    """
    coords = class_coordinates(tgt.reps, tgt.lower, M @ src.reps)
    if coords is None:
        raise ValueError(
            f"map does not send weight-{src.weight} step into weight-{tgt.weight} step"
        )
    return coords


def _nilpotency_data(N: ExactMatrix) -> tuple[int, ExactMatrix | None]:
    """(e, N^e) with e the smallest exponent such that N^(e+1) = 0;
    contract error if N is not nilpotent."""
    n = N.rows
    P = ExactMatrix.identity(n)
    e, Pe = -1, None
    for k in range(n + 1):
        if P.is_zero():
            return e, Pe
        e, Pe = k, P
        P = P @ N
    _require(P.is_zero(), "matrix is not nilpotent")
    return e, Pe


def _monodromy_offsets(N: ExactMatrix) -> dict[int, Subspace]:
    """Weight filtration of a nilpotent N centered at 0, as offset -> step.

    The standard recursion: with e the top exponent (N^e != 0, N^(e+1) = 0),
    the outer steps are W_e = everything, W_{e-1} = ker N^e, W_{-e} = im N^e,
    W_{-e-1} = 0, and the inner steps are preimages of the weight filtration
    of the map induced by N on ker N^e / im N^e.
    """
    n = N.rows
    e, Ne = _nilpotency_data(N)  # e = -1 when n = 0
    if e <= 0:
        return {0: Subspace.full(n)}
    # im N^e lies in ker N^e, since e >= 1 and N^(2e) = 0, so kernel_modulo
    # needs no product to know that N^e kills it
    I = image(Ne)
    K, R = kernel_modulo(Ne, I)
    Nbar = class_coordinates(R, I, N @ R)
    _require(Nbar is not None, "induced map escaped ker N^e + im N^e")
    sub = IncreasingFiltration(R.cols, _monodromy_offsets(Nbar))
    out: dict[int, Subspace] = {}
    out[e] = Subspace.full(n)
    out[e - 1] = K
    out[-e] = I
    for l in range(-e + 1, e - 1):
        out[l] = image((R @ sub.at(l).basis).hstack(I.basis))
    return out


def weight_filtration(N: ExactMatrix, d: int) -> IncreasingFiltration:
    """The unique increasing filtration W with N W_i <= W_{i-2} and
    N^l : Gr_{d+l} -> Gr_{d-l} an isomorphism for every l, centered at d.
    """
    _require(N.rows == N.cols, "square matrix required")
    _require(N.is_rational(), "rational nilpotent matrix required")
    offsets = _monodromy_offsets(N)
    return IncreasingFiltration(N.rows, {d + l: sub for l, sub in offsets.items()})


def check_weight_axioms(
    W: IncreasingFiltration, N: ExactMatrix, d: int
) -> Report:
    """True iff N W_i <= W_{i-2} and every N^l : Gr_{d+l} -> Gr_{d-l} is an
    isomorphism.  Failures are reported with structured reasons instead of
    raising, so candidate filtrations can be graded.
    """
    failures = []
    lo, hi = W.min_index(), W.max_index()
    for w in range(lo, hi + 1):
        img = W.at(w).apply(N)
        if not W.at(w - 2).contains(img):
            failures.append(f"N does not map W_{w} into W_{w-2}")
    span = max(hi - d, d - lo, 0)
    Npow = ExactMatrix.identity(N.rows)
    for l in range(1, span + 1):
        Npow = Npow @ N
        try:
            src = graded_piece(W, d + l)
            tgt = graded_piece(W, d - l)
        except ValueError as exc:
            failures.append(str(exc))
            continue
        if src.dim != tgt.dim:
            failures.append(
                f"Gr_{d+l} has dim {src.dim} but Gr_{d-l} has dim {tgt.dim}"
            )
            continue
        if src.dim == 0:
            continue
        try:
            M = induced_map(Npow, src, tgt)
        except ValueError as exc:
            failures.append(f"N^{l} incompatible with filtration: {exc}")
            continue
        if rank(M) != src.dim:
            failures.append(f"N^{l}: Gr_{d+l} -> Gr_{d-l} is not an isomorphism")
    return Report(failures)
