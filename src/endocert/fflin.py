"""Exact dense linear algebra over F_l and matrix-subalgebra structure.

Matrices modulo 2 store each row as a Python int bitset, so elimination
and products run word-parallel over the whole row; odd moduli use plain
residue tuples.  The two elimination paths are required to agree and are
tested against each other.

On top of the matrices sit unital subalgebras of M_d(F_l) given by a
basis: centralizers of a matrix set (a Sylvester-type kernel in the d^2
unknowns of X, column-major X11, X21, ...), generated subalgebras via
span-closure under products, a purely linear-algebra field test through
the iterated Frobenius map, and the double-centralizer property check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .arith import is_prime

#: Full multiplicative-closure verification is quadratic in the basis; above
#: this dimension only a deterministic sample of products is checked.
CLOSURE_CHECK_LIMIT = 64


def _validate_modulus(mod: int) -> None:
    if not is_prime(mod):
        raise ValueError(f"modulus must be prime, got {mod}")


@dataclass(frozen=True)
class MatF:
    """Dense matrix over F_mod; rows are int bitsets when mod == 2."""

    mod: int
    nrows: int
    ncols: int
    rows: tuple  # tuple[int, ...] (mod 2) or tuple[tuple[int, ...], ...]

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_entries(cls, mod: int, entries: Sequence[Sequence[int]]) -> "MatF":
        _validate_modulus(mod)
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        if any(len(r) != ncols for r in entries):
            raise ValueError("ragged rows")
        if mod == 2:
            rows = tuple(
                sum((e & 1) << j for j, e in enumerate(row)) for row in entries
            )
        else:
            rows = tuple(tuple(e % mod for e in row) for row in entries)
        return cls(mod, nrows, ncols, rows)

    @classmethod
    def identity(cls, mod: int, n: int) -> "MatF":
        _validate_modulus(mod)
        if mod == 2:
            return cls(mod, n, n, tuple(1 << i for i in range(n)))
        return cls(
            mod, n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        )

    @classmethod
    def zeros(cls, mod: int, nrows: int, ncols: int) -> "MatF":
        _validate_modulus(mod)
        if mod == 2:
            return cls(mod, nrows, ncols, (0,) * nrows)
        return cls(mod, nrows, ncols, ((0,) * ncols,) * nrows)

    # -- element access -------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        if self.mod == 2:
            return (self.rows[i] >> j) & 1
        return self.rows[i][j]

    def to_entries(self) -> list[list[int]]:
        return [[self.entry(i, j) for j in range(self.ncols)] for i in range(self.nrows)]

    # -- arithmetic ------------------------------------------------------------

    def _check_same_shape(self, other: "MatF") -> None:
        if self.mod != other.mod or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape/modulus mismatch")

    def __add__(self, other: "MatF") -> "MatF":
        self._check_same_shape(other)
        if self.mod == 2:
            rows = tuple(a ^ b for a, b in zip(self.rows, other.rows))
        else:
            rows = tuple(
                tuple((x + y) % self.mod for x, y in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        return MatF(self.mod, self.nrows, self.ncols, rows)

    def __sub__(self, other: "MatF") -> "MatF":
        self._check_same_shape(other)
        if self.mod == 2:
            return self + other
        rows = tuple(
            tuple((x - y) % self.mod for x, y in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)
        )
        return MatF(self.mod, self.nrows, self.ncols, rows)

    def __matmul__(self, other: "MatF") -> "MatF":
        if self.mod != other.mod or self.ncols != other.nrows:
            raise ValueError("matrix product shape/modulus mismatch")
        if self.mod == 2:
            out = []
            for arow in self.rows:
                acc = 0
                rest = arow
                while rest:
                    k = (rest & -rest).bit_length() - 1
                    acc ^= other.rows[k]
                    rest &= rest - 1
                out.append(acc)
            return MatF(2, self.nrows, other.ncols, tuple(out))
        p = self.mod
        bt = list(zip(*other.rows))  # columns of other
        rows = tuple(
            tuple(sum(x * y for x, y in zip(ra, col)) % p for col in bt)
            for ra in self.rows
        )
        return MatF(p, self.nrows, other.ncols, rows)

    def scaled(self, c: int) -> "MatF":
        c %= self.mod
        if self.mod == 2:
            rows = self.rows if c else (0,) * self.nrows
        else:
            rows = tuple(tuple((c * x) % self.mod for x in row) for row in self.rows)
        return MatF(self.mod, self.nrows, self.ncols, rows)

    def __pow__(self, k: int) -> "MatF":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative powers unsupported")
        result = MatF.identity(self.mod, self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self == MatF.identity(self.mod, self.nrows) if self.nrows == self.ncols else False

    def is_zero(self) -> bool:
        if self.mod == 2:
            return all(r == 0 for r in self.rows)
        return all(all(x == 0 for x in row) for row in self.rows)

    # -- vectorization (column-major, fixed for reproducible kernels) ----------

    def vec(self):
        """Column-major flattening: index j*nrows + i holds entry (i, j)."""
        n = self.nrows
        if self.mod == 2:
            out = 0
            for i, row in enumerate(self.rows):
                rest = row
                while rest:
                    j = (rest & -rest).bit_length() - 1
                    out |= 1 << (j * n + i)
                    rest &= rest - 1
            return out
        flat = [0] * (self.nrows * self.ncols)
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                flat[j * n + i] = x
        return tuple(flat)

    @classmethod
    def from_vec(cls, mod: int, nrows: int, ncols: int, v) -> "MatF":
        entries = [[0] * ncols for _ in range(nrows)]
        for u in range(nrows * ncols):
            x = (v >> u) & 1 if mod == 2 else v[u]
            if x:
                entries[u % nrows][u // nrows] = x
        return cls.from_entries(mod, entries)


# -- text format ----------------------------------------------------------------


def format_matrix(m: MatF) -> str:
    """Fixture/dump format: first line "l rows cols", then residue rows."""
    lines = [f"{m.mod} {m.nrows} {m.ncols}"]
    for i in range(m.nrows):
        lines.append(" ".join(str(m.entry(i, j)) for j in range(m.ncols)))
    return "\n".join(lines)


# -- elimination -----------------------------------------------------------------


@dataclass
class Echelon:
    """Reduced row-echelon form with rank and pivot columns."""

    matrix: MatF
    rank: int
    pivots: tuple[int, ...]


def rref(m: MatF) -> Echelon:
    """Reduced row-echelon form; pivot choice leftmost column, topmost row."""
    if m.mod == 2:
        rows = list(m.rows)
        pivots = []
        r = 0
        for col in range(m.ncols):
            bit = 1 << col
            pivot = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i] & bit:
                    rows[i] ^= rows[r]
            pivots.append(col)
            r += 1
            if r == len(rows):
                break
        return Echelon(MatF(2, m.nrows, m.ncols, tuple(rows)), r, tuple(pivots))
    p = m.mod
    rows = [list(row) for row in m.rows]
    pivots = []
    r = 0
    for col in range(m.ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return Echelon(MatF(p, m.nrows, m.ncols, tuple(tuple(row) for row in rows)), r, tuple(pivots))


def kernel(m: MatF) -> list:
    """Basis of {x : m @ x = 0}, one vector per free column, ascending.

    Vectors are int bitsets mod 2, residue tuples otherwise.
    """
    ech = rref(m)
    pivots = ech.pivots
    pivot_row = {col: i for i, col in enumerate(pivots)}
    free = [j for j in range(m.ncols) if j not in pivot_row]
    basis = []
    for j in free:
        if m.mod == 2:
            v = 1 << j
            for col, i in pivot_row.items():
                if (ech.matrix.rows[i] >> j) & 1:
                    v |= 1 << col
        else:
            vv = [0] * m.ncols
            vv[j] = 1
            for col, i in pivot_row.items():
                vv[col] = (-ech.matrix.rows[i][j]) % m.mod
            v = tuple(vv)
        basis.append(v)
    return basis


def solve(m: MatF, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """One solution of m @ x = b, or None if inconsistent."""
    if len(b) != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    aug = MatF.from_entries(
        m.mod, [[m.entry(i, j) for j in range(m.ncols)] + [b[i] % m.mod] for i in range(m.nrows)]
    )
    ech = rref(aug)
    if m.ncols in ech.pivots:
        return None
    x = [0] * m.ncols
    for i, col in enumerate(ech.pivots):
        x[col] = ech.matrix.entry(i, m.ncols)
    return tuple(x)


def rank(m: MatF) -> int:
    return rref(m).rank


# -- vector spans over F_l ---------------------------------------------------------


class _Span:
    """Append-only echelonized span of vectors of fixed length over F_l.

    Vectors are int bitsets (mod 2) or residue tuples.  Supports reduction,
    membership, coordinates with respect to the stored echelon basis, and
    deterministic insertion.
    """

    def __init__(self, length: int, mod: int):
        self.length = length
        self.mod = mod
        self.rows: list = []  # echelon rows, pivot strictly increasing
        self.pivots: list[int] = []

    def dim(self) -> int:
        return len(self.rows)

    def _pivot_of(self, v) -> int:
        if self.mod == 2:
            return (v & -v).bit_length() - 1
        return next(j for j, x in enumerate(v) if x)

    def reduce(self, v, coeffs: Optional[list] = None):
        """Reduce v against the span; optionally record the coefficients used."""
        if self.mod == 2:
            for idx, (row, piv) in enumerate(zip(self.rows, self.pivots)):
                if (v >> piv) & 1:
                    v ^= row
                    if coeffs is not None:
                        coeffs[idx] = (coeffs[idx] + 1) % 2
            return v
        v = list(v)
        p = self.mod
        for idx, (row, piv) in enumerate(zip(self.rows, self.pivots)):
            c = v[piv] % p
            if c:
                for j in range(self.length):
                    v[j] = (v[j] - c * row[j]) % p
                if coeffs is not None:
                    coeffs[idx] = (coeffs[idx] + c) % p
        return tuple(v)

    def contains(self, v) -> bool:
        r = self.reduce(v)
        return r == 0 if self.mod == 2 else all(x == 0 for x in r)

    def coords(self, v) -> Optional[tuple]:
        """Coordinates of v in the echelon basis, or None if outside."""
        coeffs = [0] * len(self.rows)
        r = self.reduce(v, coeffs)
        zero = r == 0 if self.mod == 2 else all(x == 0 for x in r)
        return tuple(coeffs) if zero else None

    def add(self, v) -> bool:
        """Insert v; True if the dimension grew."""
        r = self.reduce(v)
        if (r == 0) if self.mod == 2 else all(x == 0 for x in r):
            return False
        piv = self._pivot_of(r)
        if self.mod != 2:
            inv = pow(r[piv], self.mod - 2, self.mod)
            r = tuple((x * inv) % self.mod for x in r)
        # keep full reduction: clear this pivot from existing rows
        for idx in range(len(self.rows)):
            if self.mod == 2:
                if (self.rows[idx] >> piv) & 1:
                    self.rows[idx] ^= r
            else:
                c = self.rows[idx][piv]
                if c:
                    self.rows[idx] = tuple(
                        (x - c * y) % self.mod for x, y in zip(self.rows[idx], r)
                    )
        pos = next((k for k, p0 in enumerate(self.pivots) if p0 > piv), len(self.pivots))
        self.rows.insert(pos, r)
        self.pivots.insert(pos, piv)
        return True

    def equals(self, other: "_Span") -> bool:
        return (
            self.dim() == other.dim()
            and all(other.contains(row) for row in self.rows)
        )


# -- subalgebras -------------------------------------------------------------------


class FSubalgebra:
    """Unital subalgebra of M_d(F_l) presented by an echelonized basis.

    Construction verifies that the identity lies in the span and (for
    bases up to CLOSURE_CHECK_LIMIT, fully; sampled beyond) that the span
    is closed under products, failing loudly otherwise.
    """

    def __init__(self, mod: int, dim_ambient: int, basis_vecs: Sequence, *, verified: bool = False):
        self.mod = mod
        self.d = dim_ambient
        self._span = _Span(dim_ambient * dim_ambient, mod)
        for v in basis_vecs:
            self._span.add(v)
        if not verified:
            self._verify()

    # construction helpers

    @classmethod
    def from_matrices(cls, mats: Sequence[MatF], *, verified: bool = False) -> "FSubalgebra":
        if not mats:
            raise ValueError("need at least one matrix")
        mod, d = mats[0].mod, mats[0].nrows
        for m in mats:
            if m.nrows != m.ncols or m.nrows != d or m.mod != mod:
                raise ValueError("matrices must be square of one size and modulus")
        return cls(mod, d, [m.vec() for m in mats], verified=verified)

    @classmethod
    def full_matrix_algebra(cls, mod: int, d: int) -> "FSubalgebra":
        vecs = []
        if mod == 2:
            vecs = [1 << u for u in range(d * d)]
        else:
            for u in range(d * d):
                v = [0] * (d * d)
                v[u] = 1
                vecs.append(tuple(v))
        return cls(mod, d, vecs, verified=True)

    def _verify(self) -> None:
        ident = MatF.identity(self.mod, self.d).vec()
        if not self._span.contains(ident):
            raise ValueError("subalgebra span does not contain the identity")
        basis = self.basis_matrices()
        n = len(basis)
        if n <= CLOSURE_CHECK_LIMIT:
            pairs: Iterator = ((a, b) for a in basis for b in basis)
        else:
            sample = basis[:16]
            pairs = ((a, b) for a in sample for b in sample)
        for a, b in pairs:
            if not self._span.contains((a @ b).vec()):
                raise ValueError("basis span is not multiplicatively closed")

    # queries

    @property
    def dim(self) -> int:
        return self._span.dim()

    def basis_matrices(self) -> list[MatF]:
        return [MatF.from_vec(self.mod, self.d, self.d, v) for v in self._span.rows]

    def contains(self, m: MatF) -> bool:
        return self._span.contains(m.vec())

    def same_span(self, other: "FSubalgebra") -> bool:
        return self.mod == other.mod and self.d == other.d and self._span.equals(other._span)

    def elements(self) -> Iterator[MatF]:
        """All elements; only sensible for tiny algebras (mod^dim of them)."""
        from itertools import product as iproduct

        basis = self.basis_matrices()
        for coeffs in iproduct(range(self.mod), repeat=len(basis)):
            acc = MatF.zeros(self.mod, self.d, self.d)
            for c, b in zip(coeffs, basis):
                if c:
                    acc = acc + b.scaled(c)
            yield acc

    @cached_property
    def is_commutative(self) -> bool:
        basis = self.basis_matrices()
        for i, a in enumerate(basis):
            for b in basis[i + 1 :]:
                if a @ b != b @ a:
                    return False
        return True

    def _frobenius_matrix(self) -> MatF:
        """Matrix of x -> x^l on the algebra in its echelon basis coordinates."""
        basis = self.basis_matrices()
        cols = []
        for b in basis:
            image = b**self.mod
            co = self._span.coords(image.vec())
            if co is None:
                raise ValueError("algebra is not closed under the l-power map")
            cols.append(co)
        entries = [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]
        return MatF.from_entries(self.mod, entries) if basis else MatF.zeros(self.mod, 0, 0)

    @cached_property
    def radical_dim(self) -> Optional[int]:
        """Dimension of the nilradical; exact for commutative algebras.

        For a commutative algebra over F_l the nilpotents are exactly the
        kernel of an iterated Frobenius map, so no factorization is needed.
        Returns None (unknown) for noncommutative input.
        """
        if not self.is_commutative:
            return None
        t = self.dim
        if t == 0:
            return 0
        frob = self._frobenius_matrix()
        m = 0
        power = 1
        while power < t:
            power *= self.mod
            m += 1
        return len(kernel(frob**max(m, 1)))

    def field_test(self) -> tuple[bool, Optional[int]]:
        """(is_field, field_size): commutative, radical zero, one factor.

        The factor count of a commutative semisimple algebra equals the
        dimension of the fixed space of Frobenius.
        """
        if self.dim == 0:
            return False, None
        if not self.is_commutative:
            return False, None
        if self.radical_dim != 0:
            return False, None
        frob = self._frobenius_matrix()
        fixed = frob - MatF.identity(self.mod, self.dim)
        factors = len(kernel(fixed))
        if factors == 1:
            return True, self.mod**self.dim
        return False, None

    def center(self) -> "FSubalgebra":
        """Elements of the algebra commuting with the whole algebra."""
        basis = self.basis_matrices()
        t = len(basis)
        rows = []
        for b in basis:
            # constraint rows for [x, b] = 0 with x = sum c_k basis_k
            comms = [bk @ b - b @ bk for bk in basis]
            for u in range(self.d * self.d):
                if self.mod == 2:
                    row = [(c.vec() >> u) & 1 for c in comms]
                else:
                    row = [c.vec()[u] for c in comms]
                rows.append(row)
        if not rows:
            return self
        system = MatF.from_entries(self.mod, rows)
        vecs = []
        for k in kernel(system):
            acc = MatF.zeros(self.mod, self.d, self.d)
            for idx, b in enumerate(basis):
                c = (k >> idx) & 1 if self.mod == 2 else k[idx]
                if c:
                    acc = acc + b.scaled(c)
            vecs.append(acc.vec())
        return FSubalgebra(self.mod, self.d, vecs, verified=True)


def centralizer_basis(mats: Sequence[MatF], mod: Optional[int] = None, d: Optional[int] = None) -> FSubalgebra:
    """Subalgebra {X : XM = MX for every M in mats} of M_d(F_l).

    Computed as the kernel of the stacked Sylvester system in the d^2
    unknowns of X (column-major ordering).  Empty input returns the full
    matrix algebra; the result's multiplicative closure is verified.
    """
    if not mats:
        if mod is None or d is None:
            raise ValueError("empty input needs explicit modulus and dimension")
        return FSubalgebra.full_matrix_algebra(mod, d)
    mod = mats[0].mod
    d = mats[0].nrows
    for m in mats:
        if m.nrows != m.ncols or m.nrows != d or m.mod != mod:
            raise ValueError("matrices must be square, same size, same modulus")
    n_unknowns = d * d
    rows = []
    for a in mats:
        ae = a.to_entries()
        for i in range(d):
            for j in range(d):
                # (XA - AX)[i][j] = sum_k X[i,k] A[k,j] - A[i,k] X[k,j]
                coeff = [0] * n_unknowns
                for k in range(d):
                    coeff[k * d + i] = (coeff[k * d + i] + ae[k][j]) % mod
                    coeff[j * d + k] = (coeff[j * d + k] - ae[i][k]) % mod
                rows.append(coeff)
    system = MatF.from_entries(mod, rows)
    return FSubalgebra(mod, d, kernel(system))


def algebra_closure(seed: Sequence[MatF], mod: Optional[int] = None, d: Optional[int] = None) -> FSubalgebra:
    """Smallest unital subalgebra containing the seed matrices.

    Span-extension by pairwise products of accumulated representatives,
    iterated to a fixed point; the result is closed by construction.
    """
    if not seed:
        if mod is None or d is None:
            raise ValueError("empty seed needs explicit modulus and dimension")
        return FSubalgebra.from_matrices([MatF.identity(mod, d)], verified=True)
    mod = seed[0].mod
    d = seed[0].nrows
    span = _Span(d * d, mod)
    reps: list[MatF] = []
    for m in [MatF.identity(mod, d), *seed]:
        if m.nrows != m.ncols or m.nrows != d or m.mod != mod:
            raise ValueError("matrices must be square, same size, same modulus")
        if span.add(m.vec()):
            reps.append(m)
    frontier = 0
    while frontier < len(reps):
        new_rep = reps[frontier]
        frontier += 1
        for other in list(reps):
            for prod in (other @ new_rep, new_rep @ other):
                if span.add(prod.vec()):
                    reps.append(prod)
    return FSubalgebra(mod, d, list(span.rows), verified=True)


def is_field_algebra(algebra: FSubalgebra) -> tuple[bool, Optional[int]]:
    """Field test for a closed unital subalgebra; see FSubalgebra.field_test."""
    return algebra.field_test()


def double_centralizer_check(algebra: FSubalgebra) -> bool:
    """Does the algebra equal the centralizer of its centralizer?

    Valid (and a theorem) for semisimple subalgebras of M_d(F_l); inputs
    recognized as non-semisimple are rejected.  Semisimplicity is checked
    exactly for commutative algebras via the Frobenius radical; for
    noncommutative ones the center's radical gives a necessary check, and
    callers are expected to hold a Maschke-style guarantee.

    When the centralizer is just the scalars, the full-algebra conclusion
    dim = d^2 is asserted as part of the check.
    """
    rad = algebra.radical_dim
    if rad is not None and rad != 0:
        raise ValueError("algebra has a nonzero radical; the check needs semisimple input")
    if rad is None:
        center_rad = algebra.center().radical_dim
        if center_rad is None or center_rad != 0:
            raise ValueError("center has a nonzero radical; input cannot be semisimple")
    cent = centralizer_basis(algebra.basis_matrices())
    double = centralizer_basis(cent.basis_matrices())
    ok = double.same_span(algebra)
    if cent.dim == 1:
        ok = ok and algebra.dim == algebra.d * algebra.d
    return ok
