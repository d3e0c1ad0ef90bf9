"""Exact linear algebra over the Gaussian rationals.

Scalars are Gaussian rationals a + b*i with a, b rational.  Every operation
is exact: there is no floating point anywhere in this module, and none of
the algorithms ever round.  Matrices are immutable after construction and
all functions are pure, so everything here is safe to share between threads.

An ExactMatrix stores each row as Gaussian-integer numerators over one
positive denominator, in lowest terms, so equal matrices have equal storage.
Products (row combinations over the nonzero entries), sums, reshaping,
elimination and the fraction-free Hermitian reduction work on these
integers; scalars, values without arithmetic (GaussianScalar), appear only
in the constructor, the JSON codec, repr and the entries view.  A real
matrix has no imaginary numerators, and no kernel makes any for it.  rref,
kernel, kernel_modulo, inverse, solve and class_coordinates read their
answers from the rows of one fraction-free elimination, whose pivots divide
only the rows and columns asked for, in one place (_solved_rows); no
intermediate reduced matrix is built.  rank, image and kernel_modulo's test
of the lower space read pivots only and stop at row echelon form.  Trivial
shapes do no work: an operation whose result equals an operand returns it
(a product with a factor equal to the identity by value, assemble of one
covering block, take_rows and take_columns of every index in order, scale
by 1, conj of a real matrix), kernel_modulo of a matrix without rows
eliminates nothing, and the Hermitian test compares each entry with its
mirror on the stored integers.

A polynomial matrix in a real variable t is the list of its coefficient
matrices C_0, ..., C_D, lowest degree first, as exp_nilpotent returns them.
Its determinant and leading principal minors come from evaluation at
integer points, fraction-free elimination over the Gaussian integers and
interpolation, except that a graded determinant is one elimination of its
leading coefficients; PolyScalar holds the resulting polynomials.

Contract checks raise ContractError, an AssertionError that python -O
keeps.  Serialization conventions: scalars print as "p/q" or "p/q+r/s*i",
polynomials as coefficient arrays lowest-degree-first.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from itertools import chain
from math import factorial, gcd, lcm, prod
from typing import Iterable, Sequence

QZERO = Fraction(0)


class ContractError(AssertionError):
    """A violated precondition of an exactlin function.  Unlike an assert
    statement, the check that raises it also runs under python -O."""


def _require(ok, message: str) -> None:
    if not ok:
        raise ContractError(message)


def _as_fraction(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


class GaussianScalar:
    """A Gaussian rational a + b*i with exact Fraction parts re and im: a
    value with no ring operators, since ExactMatrix does arithmetic on its
    integer rows."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianScalar is immutable")

    @staticmethod
    def coerce(x) -> "GaussianScalar":
        if isinstance(x, GaussianScalar):
            return x
        if isinstance(x, (int, Fraction)):
            # small integers share the module constants (Fraction(n) hashes
            # and compares equal to n)
            shared = _SMALL.get(x)
            return shared if shared is not None else GaussianScalar(x)
        raise TypeError(f"cannot coerce {x!r} to GaussianScalar")

    def conj(self) -> "GaussianScalar":
        return GaussianScalar(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianScalar(other)
        if not isinstance(other, GaussianScalar):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianScalar({self.re!r}, {self.im!r})"

    def __str__(self):
        return gaussian_to_str(self)


def _gs(re: Fraction, im: Fraction) -> GaussianScalar:
    # internal constructor for components already known to be Fractions
    s = object.__new__(GaussianScalar)
    object.__setattr__(s, "re", re)
    object.__setattr__(s, "im", im)
    return s


G_ZERO = GaussianScalar(0)
G_ONE = GaussianScalar(1)
G_I = GaussianScalar(0, 1)
_SMALL = {-2: GaussianScalar(-2), -1: GaussianScalar(-1), 0: G_ZERO, 1: G_ONE,
          2: GaussianScalar(2)}


_I_POWERS = (G_ONE, G_I, _SMALL[-1], GaussianScalar(0, -1))


def i_power(k: int) -> GaussianScalar:
    """i**k for any integer k (negative allowed), a shared constant."""
    return _I_POWERS[k % 4]


def gaussian_to_str(x: GaussianScalar) -> str:
    def frac(f: Fraction) -> str:
        return f"{f.numerator}/{f.denominator}"

    if x.im == 0:
        return frac(x.re)
    sign = "+" if x.im >= 0 else "-"
    return f"{frac(x.re)}{sign}{frac(abs(x.im))}*i"


# the scalar grammar of docs/schemas/*.json: "a", "a/b", and either with an
# imaginary part "+c/d*i" or "-c/d*i" (denominators optional, and not zero)
_DENOMINATOR = r"(?:/0*[1-9][0-9]*)?"
_GAUSS_RE = _re.compile(
    rf"(?P<re>-?[0-9]+{_DENOMINATOR})(?:(?P<sign>[+-])(?P<im>[0-9]+{_DENOMINATOR})\*i)?"
)


def gaussian_from_str(s: str) -> GaussianScalar:
    m = _GAUSS_RE.fullmatch(s) if isinstance(s, str) else None
    if m is None:
        raise ValueError(f"cannot parse GaussianScalar from {s!r}")
    re_part = Fraction(m.group("re"))
    im_part = QZERO
    if m.group("im") is not None:
        im_part = Fraction(m.group("im"))
        if m.group("sign") == "-":
            im_part = -im_part
    return GaussianScalar(re_part, im_part)


def matrix_to_json(M: "ExactMatrix") -> list[list[str]]:
    """The rows of a Gaussian-rational matrix as lists of scalar strings."""
    return [[gaussian_to_str(e) for e in row] for row in M.entries]


def matrix_from_json(rows: list[list[str]], cols: int | None = None) -> "ExactMatrix":
    """Inverse of matrix_to_json; cols is the width of a matrix without rows
    (a matrix with rows has the width of its rows).  Every entry must be a
    string in the schema's scalar grammar."""
    return ExactMatrix([[gaussian_from_str(e) for e in row] for row in rows],
                       cols=None if rows else cols)


def json_int(blob: dict, key: str, minimum: int | None = None) -> int:
    """blob[key], which must be a JSON integer: a bool, a float or a string
    is a TypeError, raised right after the read, so the reader's caller can
    name its path; a value below minimum is a ValueError."""
    value = blob[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, not {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} is {value}, not at least {minimum}")
    return value


def json_dict(pairs, repeated: str) -> dict:
    """dict(pairs) of (key, value) pairs read from one JSON list or object; a
    repeated key is a ValueError, repeated % key, that names the key."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(repeated % key)
        out[key] = value
    return out


class PolyScalar:
    """A polynomial in one real variable t, Gaussian rational coefficients:
    the result type of poly_det and leading_principal_minors.

    Coefficients are stored lowest-degree-first; trailing zeros are stripped,
    so the zero polynomial has an empty coefficient list.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [GaussianScalar.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("PolyScalar is immutable")

    def degree(self) -> int:
        """Degree in t; the zero polynomial has degree -1 by convention."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussianScalar:
        _require(self.coeffs, "zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, PolyScalar):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"PolyScalar({[str(c) for c in self.coeffs]})"


def leading_sign(p: PolyScalar) -> tuple[int, int]:
    """(degree, sign of leading coefficient), modelling behavior as t -> +oo.

    The leading coefficient must be real and nonzero; requesting the sign of
    the zero polynomial or of one with genuinely complex leading coefficient
    is a contract error.
    """
    _require(isinstance(p, PolyScalar) and not p.is_zero(),
             "leading_sign of the zero polynomial or a non-polynomial")
    c = p.leading()
    _require(c.is_real(), f"leading coefficient {c} is not real")
    return p.degree(), (1 if c.re > 0 else -1)


class ExactMatrix:
    """An immutable rectangular matrix over the Gaussian rationals.  Row j is
    re[j*cols:(j+1)*cols] + i*im[j*cols:(j+1)*cols] over den[j] > 0, and the
    gcd of that row's numerators and den[j] is 1; im is empty when every
    entry is real.  The entries view holds the same rows as GaussianScalars."""

    __slots__ = ("rows", "cols", "re", "im", "den", "_entries")

    def __new__(cls, entries: Sequence[Sequence], cols: int | None = None):
        """The matrix with the given rows of GaussianScalars."""
        data = [tuple(r) for r in entries]
        re = [[e.re for e in r] for r in data]
        return _from_rationals(re, [[e.im for e in r] for r in data], cols)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rational(entries: Sequence[Sequence], cols: int | None = None) -> "ExactMatrix":
        """The matrix with the given rows of ints and Fractions."""
        rows = list(map(tuple, entries))
        return _from_rationals(rows, [()] * len(rows), cols)

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        """The n x n identity, one shared immutable instance per n."""
        I = _IDENTITIES.get(n)
        if I is None:
            I = _IDENTITIES[n] = _new(
                n, n, [int(j == k) for j in range(n) for k in range(n)], (), [1] * n)
        return I

    @staticmethod
    def zero(rows: int, cols: int) -> "ExactMatrix":
        return _new(rows, cols, [0] * (rows * cols), (), [1] * rows)

    @staticmethod
    def from_columns(cols: Sequence[Sequence], rows: int | None = None) -> "ExactMatrix":
        """The matrix with the given columns of GaussianScalars; rows is
        their length, required when there are none."""
        _require(cols or rows is not None, "empty column list needs an explicit row count")
        _require(not cols or rows in (None, len(cols[0])), "explicit row count mismatch")
        return ExactMatrix(cols, cols=rows).transpose()

    @staticmethod
    def assemble(rows: int, cols: int, blocks) -> "ExactMatrix":
        """The rows x cols matrix that is zero outside the given blocks: each
        (at, k, M) writes row j of M to row at[j], from column k on.  Blocks
        never overlap.  An output row is its pieces over the lcm of their
        denominators, in lowest terms: each prime power of the lcm divides
        a piece's denominator, which its numerators are coprime to.  The
        result has an imaginary part only when some block has one.  One
        block that covers the matrix in order is the matrix, returned as is."""
        if len(blocks) == 1:
            at, k, M = blocks[0]
            if (k, M.rows, M.cols) == (0, rows, cols) and list(at) == list(range(rows)):
                return M
        re, den = [0] * (rows * cols), [1] * rows
        im = [0] * (rows * cols) if any(M.im for _, _, M in blocks) else []
        for at, k, M in blocks:
            _require(k + M.cols <= cols, "block outside the matrix")
            for r, d in zip(at, M.den):
                den[r] = lcm(den[r], d)
        for at, k, M in blocks:
            for r, (x, y, d) in zip(at, M._int_rows()):
                if d != den[r]:
                    x, y = [v * (den[r] // d) for v in x], [v * (den[r] // d) for v in y]
                s = r * cols + k
                re[s:s + len(x)] = x
                im[s:s + len(y)] = y
        return _new(rows, cols, re, im, den)

    # -- access -------------------------------------------------------------

    @property
    def entries(self) -> tuple[tuple[GaussianScalar, ...], ...]:
        if self._entries is None:
            zeros = (0,) * self.cols
            object.__setattr__(self, "_entries", tuple(
                tuple(map(_from_ints, re, im or zeros, [d] * self.cols))
                for re, im, d in self._int_rows()))
        return self._entries

    def _int_rows(self):
        """The rows as (re, im, den), numerators over a denominator; im is
        empty in every row of a real matrix."""
        c, im = self.cols, self.im
        for j, d in enumerate(self.den):
            yield self.re[j * c:(j + 1) * c], im[j * c:(j + 1) * c], d

    def column(self, k: int) -> list:
        return [row[k] for row in self.entries]

    def columns(self) -> list[list]:
        return [self.column(k) for k in range(self.cols)]

    def nonzero(self) -> list[tuple[int, int]]:
        """The positions (j, k) of the nonzero entries, row by row."""
        im = self.im
        return [divmod(t, self.cols) for t, x in enumerate(self.re)
                if x or (im and im[t])]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        _require((self.rows, self.cols) == (other.rows, other.cols), "shape mismatch in a sum")
        out = []
        zeros = (0,) * self.cols
        for (a, b, da), (x, y, dx) in zip(self._int_rows(), other._int_rows()):
            den = lcm(da, dx)
            f, g = den // da, den // dx
            out.append(([u * f + v * g for u, v in zip(a, x)],
                        [u * f + v * g for u, v in zip(b or zeros, y or zeros)]
                        if b or y else (), den))
        return _from_int_rows(self.cols, out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return _new(self.rows, self.cols, [-x for x in self.re],
                    [-y for y in self.im], self.den)

    def scale(self, c) -> "ExactMatrix":
        c = GaussianScalar.coerce(c)
        if c == G_ONE:
            return self
        (p, s), (q, t) = c.re.as_integer_ratio(), c.im.as_integer_ratio()
        e = lcm(s, t)
        p, q = p * (e // s), q * (e // t)
        if not q:
            return _from_int_rows(self.cols, (
                ([x * p for x in re], [y * p for y in im], d * e)
                for re, im, d in self._int_rows()))
        # (x + iy)(p + iq) = (xp - yq) + i(xq + yp)
        zeros = (0,) * self.cols
        return _from_int_rows(self.cols, (
            ([x * p - y * q for x, y in zip(re, im or zeros)],
             [x * q + y * p for x, y in zip(re, im or zeros)], d * e)
            for re, im, d in self._int_rows()))

    def _over(self, den: int) -> tuple[Sequence[int], Sequence[int]]:
        """re and im as numerators over den, a common multiple of the row
        denominators."""
        if den == 1:
            return self.re, self.im
        c = self.cols
        fs = [den // d for d in self.den]
        re = [x * f for j, f in enumerate(fs) for x in self.re[j * c:(j + 1) * c]]
        im = [y * f for j, f in enumerate(fs) for y in self.im[j * c:(j + 1) * c]]
        return re, im

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product on Python ints: other is put over one denominator,
        and each output row is the sum, over the nonzero entries a_k of the
        row of self, of a_k times row k of other; a_k = x + iy contributes
        x*(r + is) + y*(ir - s)."""
        _require(self.cols == other.rows,
                 f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if _is_identity(self):
            return other
        if _is_identity(other):
            return self
        n = other.cols
        den = lcm(*other.den)
        bre, bim = other._over(den)
        R = [bre[k * n:(k + 1) * n] for k in range(other.rows)]
        S = [bim[k * n:(k + 1) * n] for k in range(other.rows)] if bim else None
        out = []
        for ar, ai, da in self._int_rows():
            re = im = ()  # no term yet
            for a, r, s in zip(ar, R, S or R):
                if a:
                    re = [u + a * v for u, v in zip(re, r)] if re else [a * v for v in r]
                    if S:
                        im = [u + a * v for u, v in zip(im, s)] if im else [a * v for v in s]
            for a, r, s in zip(ai, R, S or R):
                if a:
                    im = [u + a * v for u, v in zip(im, r)] if im else [a * v for v in r]
                    if S:
                        re = [u - a * v for u, v in zip(re, s)] if re else [-a * v for v in s]
            out.append((re or [0] * n, im, da * den))
        return _from_int_rows(n, out)

    def transpose(self) -> "ExactMatrix":
        r, c = self.rows, self.cols
        den = lcm(*self.den)
        re, im = self._over(den)
        return _from_int_rows(r, ((re[k::c], im[k::c], den) for k in range(c)))

    def conj(self) -> "ExactMatrix":
        if not self.im:
            return self
        return _new(self.rows, self.cols, self.re, [-y for y in self.im], self.den)

    def hstack(self, *others: "ExactMatrix") -> "ExactMatrix":
        """[self | others[0] | others[1] | ...]; a part without columns is
        left out, so [empty | M] is M itself."""
        blocks, k = [], 0
        for M in (self, *others):
            _require(M.rows == self.rows, "hstack of matrices with different row counts")
            if M.cols:
                blocks.append((range(self.rows), k, M))
            k += M.cols
        return ExactMatrix.assemble(self.rows, k, blocks)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        _require(self.cols == other.cols, "vstack of matrices with different column counts")
        r = self.rows
        return ExactMatrix.assemble(
            r + other.rows, self.cols, [(range(r), 0, self), (range(r, r + other.rows), 0, other)])

    def take_columns(self, ks: Sequence[int]) -> "ExactMatrix":
        ks = list(ks)
        if ks == list(range(self.cols)):
            return self
        return _from_int_rows(len(ks), (
            ([re[k] for k in ks], [im[k] for k in ks] if im else (), d)
            for re, im, d in self._int_rows()))

    def take_rows(self, js: Sequence[int]) -> "ExactMatrix":
        """The rows js of self, in that order; each keeps its denominator."""
        if list(js) == list(range(self.rows)):
            return self
        c = self.cols
        rows = [(self.re[j * c:(j + 1) * c], self.im[j * c:(j + 1) * c]) for j in js]
        return _new(len(rows), c, [x for re, _ in rows for x in re],
                    [y for _, im in rows for y in im], [self.den[j] for j in js])

    def power(self, k: int) -> "ExactMatrix":
        _require(self.rows == self.cols and k >= 0, "power of a non-square matrix")
        out = ExactMatrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base
            k >>= 1
        return out

    def is_zero(self) -> bool:
        return not any(self.re) and not any(self.im)

    def is_rational(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.re, self.im, self.den) == (
            other.rows, other.cols, other.re, other.im, other.den)

    def __hash__(self):
        return hash((self.rows, self.cols, self.re, self.im, self.den))

    def __repr__(self):
        body = "; ".join(
            " ".join(str(e) for e in row) for row in self.entries
        )
        return f"ExactMatrix[{self.rows}x{self.cols}]({body})"


_IDENTITIES: dict[int, ExactMatrix] = {}


def _is_identity(M: ExactMatrix) -> bool:
    """M equals the identity by value, not by instance: storage is canonical,
    so the cached identity(n) has the same tuples as any equal matrix."""
    return M.rows == M.cols and M == ExactMatrix.identity(M.rows)


def _new(rows: int, cols: int, re, im, den) -> ExactMatrix:
    # the one place that sets the storage; an all-zero im is stored empty
    M = object.__new__(ExactMatrix)
    put = object.__setattr__
    put(M, "rows", rows)
    put(M, "cols", cols)
    put(M, "re", tuple(re))
    put(M, "im", tuple(im) if any(im) else ())
    put(M, "den", tuple(den))
    put(M, "_entries", None)
    return M


def _from_rationals(re_rows: list, im_rows: list, cols: int | None) -> ExactMatrix:
    """The matrix with entries re_rows[j][k] + i*im_rows[j][k], each part an
    int or a Fraction; an empty row of im_rows is real."""
    rows = len(re_rows)
    inferred = len(re_rows[0]) if rows else (cols if cols is not None else 0)
    _require(cols in (None, inferred), "explicit column count mismatch")
    _require(set(map(len, re_rows)) <= {inferred}, "ragged matrix")
    flat = list(chain.from_iterable(re_rows))
    # a sum of ints is an int, and one Fraction makes the sum a Fraction
    if not any(im_rows) and type(sum(flat)) is int:
        return _new(rows, inferred, flat, (), [1] * rows)  # in lowest terms over 1
    re, im, den = [], [], []
    for a, b in zip(re_rows, im_rows):
        b = b or [0] * inferred
        a, b = [x.as_integer_ratio() for x in a], [x.as_integer_ratio() for x in b]
        # the least common denominator leaves no content to divide out
        d = lcm(*[q for _, q in a], *[q for _, q in b])
        re += [p * (d // q) for p, q in a]
        im += [p * (d // q) for p, q in b]
        den.append(d)
    return _new(rows, inferred, re, im, den)


def _from_int_rows(cols: int, rows) -> ExactMatrix:
    """The matrix with the given rows (re, im, den), den > 0, each divided
    by its content.  A row whose im is empty or zero is real and adds
    nothing to im; im is created, padded with the zeros of the real rows,
    only when some row is complex."""
    re, im, den = [], None, []
    zeros = (0,) * cols
    for x, y, d in rows:
        if not any(y):
            y = ()
        g = gcd(d, *x, *y) if d != 1 else 1
        if g != 1:
            x, y, d = [v // g for v in x], [v // g for v in y], d // g
        if y and im is None:
            im = [0] * len(re)
        re += x
        if im is not None:
            im += y or zeros
        den.append(d)
    return _new(len(den), cols, re, im or (), den)


def _from_ints(re: int, im: int, den: int) -> GaussianScalar:
    """(re + i*im) / den; zero and small integers share the module constants."""
    if im:
        return _gs(Fraction(re, den), Fraction(im, den))
    shared = _SMALL.get(re) if den == 1 or not re else None
    return shared if shared is not None else _gs(Fraction(re, den), QZERO)


def _primitive(re: Sequence[int], im: Sequence[int]) -> tuple[Sequence[int], Sequence[int]]:
    """The Gaussian-integer row divided by the gcd of all its parts."""
    g = gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def _echelon(M: ExactMatrix, reduced: bool = True
             ) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Fraction-free elimination of the integer rows of M: Gauss-Jordan,
    or, with reduced false, forward only, below each pivot.

    Each row is eliminated with row <- pivot*row - f*pivot_row and kept
    primitive by dividing out its integer content.  Returns (re rows, im
    rows, pivot columns).  Reduced, row j of the reduced form is row j here
    divided by its entry in column pivots[j]; not reduced, the rows are a
    row echelon form with the same pivot columns, all that rank, image and
    kernel_modulo's test of the lower space read.  A real M has empty im
    rows throughout: its step is a*x - f*u, one product per entry, and the
    content is the gcd of the real half alone.
    """
    rows, cols = M.rows, M.cols
    real = not M.im
    R: list = []
    I: list = []
    for re, im, _ in M._int_rows():
        re, im = _primitive(re, im)
        R.append(re)
        I.append(im)
    pivots = []
    r = 0
    for c in range(cols):
        start = 0 if reduced else r + 1
        pr = next((j for j in range(r, rows) if R[j][c] or not real and I[j][c]), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        I[r], I[pr] = I[pr], I[r]
        pre, pim = R[r], I[r]
        a = pre[c]
        if real:
            for j in range(start, rows):
                f = R[j][c]
                if j == r or not f:
                    continue
                row = [a * x - f * u for x, u in zip(R[j], pre)]
                h = gcd(*row)
                R[j] = [x // h for x in row] if h > 1 else row
        else:
            b = pim[c]
            for j in range(start, rows):
                f, g = R[j][c], I[j][c]
                if j == r or not (f or g):
                    continue
                xre, xim = R[j], I[j]
                R[j], I[j] = _primitive(
                    [a * x - b * y - f * u + g * v
                     for x, y, u, v in zip(xre, xim, pre, pim)],
                    [a * y + b * x - f * v - g * u
                     for x, y, u, v in zip(xre, xim, pre, pim)],
                )
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, I, pivots


def _solved_rows(R: list, I: list, pivots: list[int], js, ks, sign: int = 1) -> list:
    """Rows js of the reduced form of _echelon's (R, I, pivots), times sign
    = +-1 and cut to the columns ks, as (re, im, den) rows.  The one place a
    pivot divides its row: a real pivot a as the denominator |a|, its sign
    moved into the numerators, a complex one a + ib as a^2 + b^2."""
    out = []
    for j in js:
        x, y, c = R[j], I[j], pivots[j]
        a, b = sign * x[c], sign * y[c] if y else 0
        x, y = [x[k] for k in ks], [y[k] for k in ks] if y else ()
        if not b:
            out.append((x, y, a) if a > 0 else ([-v for v in x], [-v for v in y], -a))
            continue
        # (x + iy) / (a + ib) = ((xa + yb) + i(ya - xb)) / (a^2 + b^2)
        out.append(([u * a + v * b for u, v in zip(x, y)],
                    [v * a - u * b for u, v in zip(x, y)], a * a + b * b))
    return out


def rref(M: ExactMatrix) -> tuple[ExactMatrix, list[int], int]:
    """Reduced row echelon form over the Gaussian rationals: (reduced
    matrix, pivot column indices, rank), every row of _echelon solved."""
    R, I, pivots = _echelon(M)
    out = _solved_rows(R, I, pivots, range(len(pivots)), range(M.cols))
    out.extend(([0] * M.cols, (), 1) for _ in range(M.rows - len(pivots)))
    return _from_int_rows(M.cols, out), pivots, len(pivots)


def rank(M: ExactMatrix) -> int:
    return len(_echelon(M, reduced=False)[2])


def inverse(M: ExactMatrix) -> ExactMatrix:
    """The inverse of a square matrix, the right half of the reduced form
    of [M | I].  Raises ValueError when M is not square or singular."""
    n = M.rows
    if M.cols != n:
        raise ValueError("square matrix required")
    R, I, pivots = _echelon(M.hstack(ExactMatrix.identity(n)))
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    return _from_int_rows(n, _solved_rows(R, I, pivots, range(n), range(n, 2 * n)))


def kernel(M: ExactMatrix) -> "Subspace":
    """Exact basis of the null space of M: per free column c, the vector
    with 1 at c, 0 at the other free columns and minus the reduced form's
    column c at the pivots, read from the integer rows (_kernel_basis)."""
    return _kernel_basis(M.cols, *_echelon(M))[0]


def _kernel_basis(n: int, R: list, I: list, pivots: list[int]) -> tuple["Subspace", list[int]]:
    """(kernel, free columns) of a matrix with n columns from its _echelon
    rows: basis row pivots[j] is minus reduced row j on the free columns,
    and the row of the i-th free column is e_i, so the basis is independent."""
    free = [c for c in range(n) if c not in pivots]
    rows = _solved_rows(R, I, pivots, range(len(pivots)), free, -1)
    for i, c in enumerate(free):  # in column order, so row c lands at c
        rows.insert(c, ([int(i == k) for k in range(len(free))], (), 1))
    return Subspace._trusted(n, _from_int_rows(len(free), rows)), free


def kernel_modulo(M: ExactMatrix, lower: "Subspace | None" = None):
    """(ker M, representatives of ker M modulo lower, im M) from one
    elimination of M; lower defaults to im M, for M @ M = 0.  The
    representatives equal quotient_reps(kernel(M), lower) byte for byte, or
    are None when M @ lower != 0.  The kernel basis is the identity on the
    free rows, so lower's free rows C are its coordinates: kernel column j
    is kept unless some vector of span(C) has its last nonzero coordinate
    at j, that is a pivot of C^T with its columns reversed.  An M without
    rows (a block with no target) needs no elimination: its kernel is the
    identity, its image zero, and M @ lower the empty matrix.
    """
    if M.rows:
        echelon = _echelon(M)
        K, free = _kernel_basis(M.cols, *echelon)
        I = Subspace._trusted(M.rows, M.take_columns(echelon[2]))
    else:
        K = Subspace._trusted(M.cols, ExactMatrix.identity(M.cols))
        free, I = range(M.cols), Subspace.zero(0)
    lower = I if lower is None else lower
    _require(lower.ambient_dim == M.cols, "lower space outside the domain")
    f, b = len(free), lower.dim
    if not b:
        return K, K.basis, I
    if M.rows and not (M @ lower.basis).is_zero():
        return K, None, I
    last = range(f) if b == f else {f - 1 - p for p in _echelon(
        lower.basis.take_rows(free[::-1]).transpose(), reduced=False)[2]}
    return K, K.basis.take_columns([j for j in range(f) if j not in last]), I


def image(M: ExactMatrix) -> "Subspace":
    """Column span of M, with a deterministic basis (earliest pivot columns)."""
    pivots = _echelon(M, reduced=False)[2]
    return Subspace._trusted(M.rows, M.take_columns(pivots))


def solve(M: ExactMatrix, b: Sequence) -> list | None:
    """One solution x of M x = b, or None if the system is inconsistent."""
    aug = M.hstack(ExactMatrix.from_columns([list(b)], rows=M.rows))
    R, I, pivots = _echelon(aug)
    if M.cols in pivots:
        return None
    x = [G_ZERO] * M.cols
    col = _solved_rows(R, I, pivots, range(len(pivots)), [M.cols])
    for (v,), pc in zip(_from_int_rows(1, col).entries, pivots):
        x[pc] = v
    return x


def quotient_reps(upper: "Subspace", lower: "Subspace") -> ExactMatrix | None:
    """Deterministic representatives of upper/lower: the columns of upper's
    basis that are independent of lower and of the upper columns before
    them; None when lower is not inside upper.

    One elimination of [lower | upper] finds them all: lower's columns are
    independent, so they are the first pivots, and the remaining pivots are
    those upper columns, in order.  The same elimination tests that lower
    lies in upper: then [lower | upper] spans no more than upper.
    """
    span = image(lower.basis.hstack(upper.basis)).basis
    if span.cols != upper.dim:
        return None
    return span.take_columns(range(lower.dim, span.cols))


def class_coordinates(reps: ExactMatrix, lower: "Subspace", X: ExactMatrix) -> ExactMatrix | None:
    """Coordinates of the columns of X in the basis reps, modulo lower;
    None if some column of X lies outside the span of reps and lower.

    The columns of reps and of lower's basis are independent, so one
    reduced form of [reps | lower | X] answers every column: its rank
    exceeds theirs exactly when a column of X escapes their span, and
    otherwise its first rows hold each column's unique solution.
    """
    k = reps.cols + lower.dim
    R, I, pivots = _echelon(reps.hstack(lower.basis, X))
    if len(pivots) > k:
        return None
    return _from_int_rows(X.cols, _solved_rows(R, I, pivots, range(reps.cols), range(k, k + X.cols)))


class Subspace:
    """A subspace of an ambient exact vector space, given by basis columns."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: ExactMatrix):
        _require(not basis.cols or basis.rows == ambient_dim,
                 f"basis rows {basis.rows} != ambient {ambient_dim}")
        if basis.cols:
            _require(rank(basis) == basis.cols, "basis columns are dependent")
        else:
            basis = ExactMatrix.zero(ambient_dim, 0)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: ExactMatrix) -> "Subspace":
        # internal: the caller guarantees the columns are independent, so
        # the rank check in __init__ is skipped
        s = object.__new__(cls)
        object.__setattr__(s, "ambient_dim", ambient_dim)
        object.__setattr__(s, "basis", basis)
        return s

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace._trusted(ambient_dim, ExactMatrix.zero(ambient_dim, 0))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ExactMatrix.identity(ambient_dim))

    @staticmethod
    def span(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        cols = [[GaussianScalar.coerce(x) for x in v] for v in vectors]
        M = ExactMatrix.from_columns(cols, rows=ambient_dim)
        return image(M)

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains_vector(self, v: Sequence) -> bool:
        return solve(self.basis, v) is not None if self.dim else all(
            GaussianScalar.coerce(x).is_zero() for x in v
        )

    def contains(self, other: "Subspace") -> bool:
        _require(self.ambient_dim == other.ambient_dim, "ambient mismatch")
        if other.dim == 0:
            return True
        stacked = self.basis.hstack(other.basis)
        return rank(stacked) == self.dim

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.dim == other.dim
            and self.contains(other)
        )

    def __hash__(self):
        # the reduced rows of the basis: equal spaces agree on them
        return hash((self.ambient_dim, rref(self.basis.transpose())[0]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Exact basis of the intersection, via the kernel of [U | -V]."""
        _require(self.ambient_dim == other.ambient_dim, "ambient mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient_dim)
        stacked = self.basis.hstack(-other.basis)
        ker = kernel(stacked)
        coeffs = ker.basis.take_rows(range(self.dim))
        # the kernel basis maps injectively to these vectors: both basis
        # matrices have independent columns, so they stay independent
        return Subspace._trusted(self.ambient_dim, self.basis @ coeffs)

    def add(self, other: "Subspace") -> "Subspace":
        _require(self.ambient_dim == other.ambient_dim, "ambient mismatch")
        return image(self.basis.hstack(other.basis))

    def conj(self) -> "Subspace":
        return Subspace._trusted(self.ambient_dim, self.basis.conj())

    def apply(self, M: ExactMatrix) -> "Subspace":
        """Image of this subspace under the linear map M."""
        _require(M.cols == self.ambient_dim, "map and subspace ambient mismatch")
        return image(M @ self.basis)

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def hermitian_check(H: ExactMatrix) -> bool:
    """H == H^*, with no matrix built: H[j][k] = (x + iy)/den[j] against
    conj(H[k][j]) across the diagonal, cross-multiplied by the row
    denominators."""
    n, re, im, den = H.rows, H.re, H.im, H.den
    return H.cols == n and all(
        re[j * n + k] * den[k] == re[k * n + j] * den[j]
        and (not im or im[j * n + k] * den[k] == -im[k * n + j] * den[j])
        for j in range(n) for k in range(j, n))


_NOT_HERMITIAN = "hermitian form required (H != H^*)"


def _comb(a: int, x, y, f: int, g: int, u, v):
    """a*(x + iy) - (f + ig)*(u + iv) on Gaussian-integer rows, a an integer;
    in a real reduction the im rows y, v are empty and g is 0."""
    if not y:
        return [a * p - f * q for p, q in zip(x, u)], y
    return ([a * p - f * q + g * s for p, q, s in zip(x, u, v)],
            [a * t - f * s - g * q for t, q, s in zip(y, u, v)])


def _hermitian_reduce(H: ExactMatrix, want_basis: bool):
    """Fraction-free congruence diagonalization on the integer rows.

    The form is h(x, y) = x^T H conj(y) on coordinate columns, so H is the
    Gram matrix h(e_j, e_k).  The active block A + iB starts as L*H, L the
    lcm of H's row denominators, and loses its positive content before each
    pivot.  The first nonzero diagonal entry d gives the step
    A_jk <- |d|*A_jk - sgn(d)*A_jp*A_pk, |d| times the Schur complement,
    and v_j <- |d|*v_j - sgn(d)*A_jp*v_p.  A zero diagonal first promotes
    the first nonzero A_ij: v_i <- a*conj(A_ij)*v_i + b*v_j, diagonal
    2ab|A_ij|^2 > 0, with a/b = kd/kn the ratio of the block of exact
    elimination to A.  So each vector is a positive multiple of the one
    exact elimination (v_i <- conj(c)*v_i + v_j) gives, and
    h(v_j, v_k) = s/L * A_jk on the active vectors.  Returns (L, values,
    vectors, nulls, null count), values[a] = L*h(v_a, v_a), the vectors as
    (re, im) integer rows (none without want_basis).  H must be Hermitian:
    the public callers check it, once.
    """
    n, L = H.rows, lcm(*H.den)
    re, im = H._over(L)
    A = [list(re[j * n:(j + 1) * n]) for j in range(n)]
    B = [list(im[j * n:(j + 1) * n]) for j in range(n)]
    V = [([int(j == k) for k in range(n)], [0] * n if im else [])
         for j in range(n)] if want_basis else []
    s, kn, kd = 1, L, 1
    values, vectors = [], []
    while A:
        g = gcd(*chain.from_iterable(A), *chain.from_iterable(B))
        if not g:
            break  # a zero block: the remaining vectors are null
        if g > 1:
            A, B = ([[x // g for x in r] for r in M] for M in (A, B))
            s, kd = s * g, kd * g
        m = len(A)
        p = next((j for j in range(m) if A[j][j] or B[j] and B[j][j]), None)
        if p is None:
            # every diagonal vanishes: pull a hyperbolic pair onto it; the
            # steps below read row p only, so column p is left stale
            p, j = next((i, j) for i in range(m) for j in range(m)
                        if A[i][j] or B[i] and B[i][j])
            c, ci, h = A[p][j], B[p][j] if B[p] else 0, gcd(kn, kd)
            a, b = kd // h, kn // h
            A[p], B[p] = _comb(b, A[j], B[j], -a * c, a * ci, A[p], B[p])
            if V:
                V[p] = _comb(b, *V[j], -a * c, a * ci, *V[p])
            A[p][p] = 2 * a * b * (c * c + ci * ci)
        else:
            _require(not (B[p] and B[p][p]), "hermitian diagonal must be real")
        d = A[p][p]
        values.append(s * d)
        ad, sg = abs(d), (1 if d > 0 else -1)
        s, kn = s * ad, kn * ad
        rest = [j for j in range(m) if j != p]
        fs = [(sg * A[p][j], -sg * B[p][j] if B[p] else 0) for j in rest]  # sgn(d)*A_jp
        if V:
            vectors.append(V[p])
            V = [_comb(ad, *V[j], f, fi, *V[p]) for j, (f, fi) in zip(rest, fs)]
        rows = [_comb(ad, A[j], B[j], f, fi, A[p], B[p]) for j, (f, fi) in zip(rest, fs)]
        A, B = [x[:p] + x[p + 1:] for x, _ in rows], [y[:p] + y[p + 1:] for _, y in rows]
    return L, values, vectors, V, len(A)


def hermitian_signature(H: ExactMatrix, error: str = _NOT_HERMITIAN) -> tuple[int, int, int]:
    """Signature (positives, negatives, nulls) of a Hermitian matrix.

    Fraction-free congruence diagonalization on the integer rows with
    symmetric pivoting (see _hermitian_reduce): 1x1 pivots when a nonzero
    diagonal entry exists; otherwise a hyperbolic off-diagonal entry is
    promoted (contributing one positive and one negative eigendirection).
    When H is not Hermitian the ContractError says error, so a caller
    names its form without checking H a second time.
    """
    _require(hermitian_check(H), error)
    _, values, _, _, nulls = _hermitian_reduce(H, want_basis=False)
    pos = sum(1 for v in values if v > 0)
    neg = sum(1 for v in values if v < 0)
    _require(pos + neg + nulls == H.rows, "signature does not add up")
    return pos, neg, nulls


def hermitian_diagonalize(H: ExactMatrix, error: str = _NOT_HERMITIAN):
    """Congruence-diagonalize the Hermitian form with Gram matrix H.

    Returns (vectors, values, null_vectors): coordinate columns v_a of
    Gaussian integers with content 1 and h(v_a, v_b) = delta_ab * values[a]
    (values real nonzero), and a list of null vectors spanning the radical.
    Each vector is a positive real multiple of the one exact Gaussian
    elimination with the same pivots gives (see _hermitian_reduce), so Gram
    minors keep their signs.  When H is not Hermitian the ContractError
    says error.
    """
    _require(hermitian_check(H), error)
    L, values, vectors, nulls, _ = _hermitian_reduce(H, want_basis=True)

    def column(x, y):
        g = gcd(*x, *y)
        return [_from_ints(p // g, q // g, 1) for p, q in zip(x, y or [0] * len(x))], g

    cols = [column(*v) for v in vectors]
    return ([c for c, _ in cols], [Fraction(v, L * g * g) for v, (_, g) in zip(values, cols)],
            [column(*v)[0] for v in nulls])


class ZeroMinorError(ArithmeticError):
    """A leading principal minor vanished where the caller required otherwise."""

    def __init__(self, index: int):
        super().__init__(f"leading principal minor {index} vanishes")
        self.index = index


def exp_nilpotent(N: ExactMatrix, b=1) -> list[ExactMatrix]:
    """The coefficients C_0, C_1, ... of exp(b t N) = sum_j t^j C_j for a
    nilpotent N, through the last nonzero one: C_j = (bN)^j / j!.  Their
    sum is exp(bN).
    """
    M = N.scale(b)
    out = [ExactMatrix.identity(M.rows)]
    for j in range(1, M.rows + 1):
        term = (out[-1] @ M).scale(GaussianScalar(Fraction(1, j)))
        if term.is_zero():
            break
        out.append(term)
    return out


# -- determinants of polynomial matrices -------------------------------------
#
# A polynomial matrix sum_j t^j C_j is evaluated at t = 0, 1, ..., D, with D
# a certified bound on the degree of the determinant; each value comes from
# fraction-free elimination over the Gaussian integers, and the polynomial
# from interpolation (Bareiss 1968; von zur Gathen & Gerhard, Modern Computer
# Algebra, ch. 5).  A graded determinant skips both: see poly_det.


def _poly_rows(coeffs: Sequence[ExactMatrix]) -> tuple[list[list[tuple]], list[int]]:
    """sum_j t^j coeffs[j] over the Gaussian integers: (rows, dens).

    Row i is scaled by dens[i], the common denominator of row i of every
    coeffs[j], and rows[i][k] = (re, im) holds the integer coefficients of
    entry (i, k), lowest degree first, without trailing zeros.  A real
    entry has an empty im.
    """
    n = coeffs[0].cols
    zeros = (0,) * n
    rows, dens = [], []
    for parts in zip(*[C._int_rows() for C in coeffs]):
        den = lcm(*[d for _, _, d in parts])
        re = [v * (den // d) for x, _, d in parts for v in x]
        im = [v * (den // d) for _, y, d in parts for v in y or zeros]
        row = []
        for k in range(n):
            a, b = re[k::n], im[k::n]
            while a and not (a[-1] or b[-1]):
                a.pop()
                b.pop()
            row.append((a, b if any(b) else []))
        rows.append(row)
        dens.append(den)
    return rows, dens


def _degree_bound(rows: list[list[tuple]], k: int) -> int:
    """A certified bound on the degree of the determinant of the leading
    k x k block, the smaller of the offset bounds of the block and of its
    transpose (a zero row or column gives 0; its determinant is 0)."""
    deg = [[len(a) - 1 for a, _ in row[:k]] for row in rows[:k]]
    return min(_offset_bound(deg), _offset_bound(list(zip(*deg))))


def _offsets(deg: Sequence[Sequence[int]]) -> tuple[list[int], list[int]]:
    """(r, c) for entry degrees deg (-1 for a zero entry): r_i the largest
    degree in row i, c_j = min_i (r_i - deg[i][j]) over the nonzero entries
    of column j (-1 for a zero row or column)."""
    r = [max(row) for row in deg]
    return r, [min((ri - d for ri, d in zip(r, col) if d >= 0), default=-1)
               for col in zip(*deg)]


def _offset_bound(deg: Sequence[Sequence[int]]) -> int:
    """sum_i r_i - sum_j c_j, the dual form of Jacobi's bound, with r and c
    the _offsets of deg: every entry has degree at most r_i - c_j, so every
    term of the determinant, one entry per row and per column, has degree
    at most sum_i r_i - sum_j c_j.  The offsets are nonnegative, so the
    bound never exceeds the sum of the row degrees."""
    r, c = _offsets(deg)
    if min(r, default=0) < 0 or min(c, default=0) < 0:
        return 0
    return sum(r) - sum(c)


def _horner(cs: list[int], t: int) -> int:
    v = 0
    for c in reversed(cs):
        v = v * t + c
    return v


def _bareiss(rows: list[list[tuple]], k: int, t: int, swaps: bool):
    """Fraction-free elimination of the leading k x k block of rows at t:
    row <- (pivot*row - f*pivot_row) / previous pivot over the Gaussian
    integers, every division exact (Bareiss).  A block of real entries
    has no imaginary rows, and its step is one product pair per entry.

    Returns the stage pivots as (re, im) pairs, through the first zero one,
    and the sign of the row swaps.  Without swaps the pivot of stage j is
    the leading principal minor j + 1; with swaps the last pivot times the
    sign is the determinant.
    """
    block = [row[:k] for row in rows[:k]]
    real = not any(b for row in block for _, b in row)
    R = [[_horner(a, t) if a else 0 for a, _ in row] for row in block]
    I = [] if real else [[_horner(b, t) if b else 0 for _, b in row] for row in block]
    sign = 1
    p, q = 1, 0  # the previous pivot
    pivots = []
    for j in range(k):
        if swaps and not (R[j][j] or not real and I[j][j]):
            s = next((l for l in range(j + 1, k) if R[l][j] or not real and I[l][j]), None)
            if s is not None:
                R[j], R[s] = R[s], R[j]
                if not real:
                    I[j], I[s] = I[s], I[j]
                sign = -sign
        a, b = R[j][j], 0 if real else I[j][j]
        pivots.append((a, b))
        if not (a or b):
            break
        Rj = R[j]
        if real:
            for l in range(j + 1, k):
                Rl = R[l]
                f = Rl[j]
                for c in range(j + 1, k):
                    Rl[c] = (a * Rl[c] - f * Rj[c]) // p
            p = a
            continue
        nrm = p * p + q * q
        Ij = I[j]
        for l in range(j + 1, k):
            Rl, Il = R[l], I[l]
            f, g = Rl[j], Il[j]
            for c in range(j + 1, k):
                x, y, u, v = Rl[c], Il[c], Rj[c], Ij[c]
                re = a * x - b * y - f * u + g * v
                im = a * y + b * x - f * v - g * u
                # (re + i im) / (p + i q) = (re + i im)(p - i q) / nrm
                Rl[c] = (re * p + im * q) // nrm
                Il[c] = (im * p - re * q) // nrm
        p, q = a, b
    return pivots, sign


def _det_at(rows: list[list[tuple]], k: int, t: int) -> tuple[int, int]:
    """The determinant of the leading k x k block of rows at t."""
    pivots, sign = _bareiss(rows, k, t, swaps=True)
    a, b = pivots[-1] if pivots else (1, 0)
    return sign * a, sign * b


def _interpolate(values: list[tuple[int, int]], den: int) -> PolyScalar:
    """The polynomial p of degree below len(values) = D + 1 with
    p(t) = values[t] / den for t = 0..D, values Gaussian integers.

    Newton's forward form p(t) = sum_k Delta^k p(0) binom(t, k) has integer
    coefficients times D!, since D! binom(t, k) = (D!/k!) t(t-1)...(t-k+1);
    the one division is by D! den.
    """
    D = len(values) - 1
    re = [a for a, _ in values]
    im = [b for _, b in values]
    out_re = [0] * (D + 1)
    out_im = [0] * (D + 1)
    falling = [1]  # t(t-1)...(t-k+1), lowest degree first
    w = factorial(D)  # D!/k!
    for k in range(D + 1):
        dr, di = re[0] * w, im[0] * w
        for j, c in enumerate(falling):
            out_re[j] += dr * c
            out_im[j] += di * c
        re = [y - x for x, y in zip(re, re[1:])]
        im = [y - x for x, y in zip(im, im[1:])]
        falling = [x - k * y for x, y in zip([0] + falling, falling + [0])]
        w //= k + 1
    den *= factorial(D)
    return PolyScalar([_from_ints(a, b, den) for a, b in zip(out_re, out_im)])


def poly_det(*coeffs: ExactMatrix) -> PolyScalar:
    """Exact determinant of the square polynomial matrix sum_j t^j coeffs[j].

    With r_i the largest entry degree of row i and c_j the smallest slack
    r_i - deg of column j (_offsets), a graded matrix, whose every nonzero
    entry (i, j) is one monomial L_ij t^(r_i - c_j), is diag(t^r) L
    diag(t^-c), so its determinant is t^(sum r - sum c) det L, from one
    elimination of L; the Taylor and wedge matrices of the orbit
    identities are graded.  Any other matrix is evaluated at t = 0..D by
    Bareiss elimination with row swaps, and interpolation gives the
    polynomial.  D is the offset bound of _degree_bound, sum r - sum c or
    the same for the transpose when that is smaller.
    """
    n = coeffs[0].rows
    _require(coeffs[0].cols == n, "determinant of a non-square matrix")
    rows, dens = _poly_rows(coeffs)
    r, c = _offsets([[len(a) - 1 for a, _ in row] for row in rows])
    if all(not a or len(a) - 1 == ri - cj and not any(a[:-1]) and not any(b[:-1])
           for row, ri in zip(rows, r) for (a, b), cj in zip(row, c)):
        a, b = _det_at([[(a[-1:], b[-1:]) for a, b in row] for row in rows], n, 0)
        if not (a or b):
            return PolyScalar()
        return PolyScalar([G_ZERO] * (sum(r) - sum(c)) + [_from_ints(a, b, prod(dens))])
    values = [_det_at(rows, n, t) for t in range(_degree_bound(rows, n) + 1)]
    return _interpolate(values, prod(dens))


def leading_principal_minors(*coeffs: ExactMatrix) -> list[PolyScalar]:
    """All leading principal minors D_1, ..., D_n of the square polynomial
    matrix sum_j t^j coeffs[j].

    Minor k is interpolated from its values at t = 0..D_k, D_k the degree
    bound of its block.  At each point one Bareiss pass without row swaps
    gives every minor as a stage pivot; past a pivot that vanishes at the
    point, the minors there are determinants of their blocks.  Raises
    ZeroMinorError with the smallest k whose minor vanishes identically.
    """
    n = coeffs[0].rows
    _require(coeffs[0].cols == n, "leading minors of a non-square matrix")
    rows, dens = _poly_rows(coeffs)
    bounds = [_degree_bound(rows, k) for k in range(1, n + 1)]
    values: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for t in range(max(bounds, default=-1) + 1):
        minors = _bareiss(rows, n, t, swaps=False)[0]
        minors += [_det_at(rows, k, t) for k in range(len(minors) + 1, n + 1)]
        for k in range(n):
            if t <= bounds[k]:
                values[k].append(minors[k])
    out = []
    for k in range(n):
        P = _interpolate(values[k], prod(dens[: k + 1]))
        if P.is_zero():
            raise ZeroMinorError(k + 1)
        out.append(P)
    return out
