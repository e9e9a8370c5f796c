"""Exact dense linear algebra over F_2 and matrix-subalgebra structure.

A matrix stores each row as a Python int bitset (bit j holds column j),
so elimination and products run word-parallel over the whole row.  The
independent reference for elimination is the scalar oracle in the tests.

On top of the matrices sit unital subalgebras of M_d(F_2) given by a
basis: centralizers of a matrix set, generated subalgebras via
span-closure under products, a purely linear-algebra field test through
the iterated Frobenius map, and the double-centralizer property check.

A centralizer is found by spinning unit vectors under the matrices:
e_0 first, then the first unit vector outside the span each time the
spin stops short of F_2^d.  An element X is fixed by its images of the
k seeds, and the relations met while spinning give a kernel in k*d
unknowns (k = 1 when e_0 alone spans, a cyclic module).

``MatF`` is a named tuple and ``Echelon`` a plain class: defining them runs
no generated code, so the import every command pays stays cheap.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple, Optional, Sequence

#: Full multiplicative-closure verification is quadratic in the basis; above
#: this dimension only a deterministic sample of products is checked.
CLOSURE_CHECK_LIMIT = 64


class MatF(NamedTuple):
    """Dense matrix over F_2; row i is an int bitset, bit j holding entry (i, j)."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]]) -> "MatF":
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        if any(len(r) != ncols for r in entries):
            raise ValueError("ragged rows")
        rows = tuple(sum((e & 1) << j for j, e in enumerate(row)) for row in entries)
        return cls(nrows, ncols, rows)

    @classmethod
    def identity(cls, n: int) -> "MatF":
        return cls(n, n, tuple(1 << i for i in range(n)))

    # -- element access -------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "MatF") -> "MatF":
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape mismatch")
        return MatF(self.nrows, self.ncols, tuple(a ^ b for a, b in zip(self.rows, other.rows)))

    __sub__ = __add__  # subtraction is addition over F_2

    def __matmul__(self, other: "MatF") -> "MatF":
        if self.ncols != other.nrows:
            raise ValueError("matrix product shape mismatch")
        out = []
        for arow in self.rows:
            acc = 0
            rest = arow
            while rest:
                k = (rest & -rest).bit_length() - 1
                acc ^= other.rows[k]
                rest &= rest - 1
            out.append(acc)
        return MatF(self.nrows, other.ncols, tuple(out))

    def __pow__(self, k: int) -> "MatF":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative powers unsupported")
        result = MatF.identity(self.nrows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self == MatF.identity(self.nrows) if self.nrows == self.ncols else False

    # -- vectorization (column-major, fixed for reproducible kernels) ----------

    def vec(self) -> int:
        """Column-major flattening: bit j*nrows + i holds entry (i, j)."""
        n = self.nrows
        out = 0
        for i, row in enumerate(self.rows):
            rest = row
            while rest:
                j = (rest & -rest).bit_length() - 1
                out |= 1 << (j * n + i)
                rest &= rest - 1
        return out

    @classmethod
    def from_vec(cls, nrows: int, ncols: int, v: int) -> "MatF":
        rows = [0] * nrows
        while v:
            u = (v & -v).bit_length() - 1
            rows[u % nrows] |= 1 << (u // nrows)
            v &= v - 1
        return cls(nrows, ncols, tuple(rows))


def _square_size(mats: Sequence[MatF]) -> int:
    """The common size d of a nonempty list of d x d matrices."""
    if not mats:
        raise ValueError("need at least one matrix")
    d = mats[0].nrows
    if any(m.nrows != d or m.ncols != d for m in mats):
        raise ValueError("matrices must be square of one size")
    return d


# -- text format ----------------------------------------------------------------


def format_matrix(m: MatF) -> str:
    """Dump format: first line "2 rows cols" (2 is the field size), then 0/1 rows."""
    lines = [f"2 {m.nrows} {m.ncols}"]
    for i in range(m.nrows):
        lines.append(" ".join(str(m.entry(i, j)) for j in range(m.ncols)))
    return "\n".join(lines)


# -- elimination -----------------------------------------------------------------


class Echelon:
    """Reduced row-echelon form with rank and pivot columns."""

    def __init__(self, matrix: MatF, rank: int, pivots: tuple[int, ...]):
        self.matrix, self.rank, self.pivots = matrix, rank, pivots


def rref(m: MatF) -> Echelon:
    """Reduced row-echelon form; pivot choice leftmost column, topmost row."""
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
    return Echelon(MatF(m.nrows, m.ncols, tuple(rows)), r, tuple(pivots))


def kernel(m: MatF) -> list[int]:
    """Basis of {x : m @ x = 0} as bitsets, one vector per free column, ascending."""
    ech = rref(m)
    pivot_row = {col: i for i, col in enumerate(ech.pivots)}
    basis = []
    for j in range(m.ncols):
        if j in pivot_row:
            continue
        v = 1 << j
        for col, i in pivot_row.items():
            if (ech.matrix.rows[i] >> j) & 1:
                v |= 1 << col
        basis.append(v)
    return basis


# -- vector spans over F_2 ---------------------------------------------------------


class _Span:
    """Append-only echelonized span of bitset vectors over F_2.

    Supports reduction, membership, coordinates with respect to the stored
    echelon basis, and deterministic insertion.
    """

    def __init__(self):
        self.rows: list[int] = []  # echelon rows, pivot strictly increasing
        self.pivots: list[int] = []

    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: int, coeffs: Optional[list[int]] = None) -> int:
        """Reduce v against the span; optionally record the coefficients used."""
        for idx, (row, piv) in enumerate(zip(self.rows, self.pivots)):
            if (v >> piv) & 1:
                v ^= row
                if coeffs is not None:
                    coeffs[idx] ^= 1
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def coords(self, v: int) -> Optional[tuple[int, ...]]:
        """Coordinates of v in the echelon basis, or None if outside."""
        coeffs = [0] * len(self.rows)
        return tuple(coeffs) if self.reduce(v, coeffs) == 0 else None

    def add(self, v: int) -> bool:
        """Insert v; True if the dimension grew."""
        r = self.reduce(v)
        if r == 0:
            return False
        piv = (r & -r).bit_length() - 1
        # keep full reduction: clear this pivot from existing rows
        for idx in range(len(self.rows)):
            if (self.rows[idx] >> piv) & 1:
                self.rows[idx] ^= r
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
    """Unital subalgebra of M_d(F_2) presented by an echelonized basis.

    Construction verifies that the identity lies in the span and (for
    bases up to CLOSURE_CHECK_LIMIT, fully; sampled beyond) that the span
    is closed under products, failing loudly otherwise.
    """

    def __init__(self, dim_ambient: int, basis_vecs: Sequence[int], *, verified: bool = False):
        self.d = dim_ambient
        self._span = _Span()
        for v in basis_vecs:
            self._span.add(v)
        if not verified:
            self._verify()

    def _verify(self) -> None:
        ident = MatF.identity(self.d).vec()
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
        return [MatF.from_vec(self.d, self.d, v) for v in self._span.rows]

    def same_span(self, other: "FSubalgebra") -> bool:
        return self.d == other.d and self._span.equals(other._span)

    @cached_property
    def is_commutative(self) -> bool:
        basis = self.basis_matrices()
        for i, a in enumerate(basis):
            for b in basis[i + 1 :]:
                if a @ b != b @ a:
                    return False
        return True

    def _frobenius_matrix(self) -> MatF:
        """Matrix of x -> x^2 on the algebra in its echelon basis coordinates."""
        basis = self.basis_matrices()
        cols = []
        for b in basis:
            co = self._span.coords((b @ b).vec())
            if co is None:
                raise ValueError("algebra is not closed under squaring")
            cols.append(co)
        return MatF.from_entries([[col[i] for col in cols] for i in range(len(basis))])

    @cached_property
    def radical_dim(self) -> Optional[int]:
        """Dimension of the nilradical; exact for commutative algebras.

        For a commutative algebra over F_2 the nilpotents are exactly the
        kernel of an iterated Frobenius map, so no factorization is needed.
        Returns None (unknown) for noncommutative input.
        """
        if not self.is_commutative:
            return None
        t = self.dim
        if t == 0:
            return 0
        # the smallest m >= 1 with 2^m >= t: x^(2^m) = 0 for every nilpotent x
        m = max((t - 1).bit_length(), 1)
        return len(kernel(self._frobenius_matrix() ** m))

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
        fixed = self._frobenius_matrix() - MatF.identity(self.dim)
        if len(kernel(fixed)) == 1:
            return True, 2**self.dim
        return False, None

    def center(self) -> "FSubalgebra":
        """Elements of the algebra commuting with the whole algebra."""
        basis = self.basis_matrices()
        rows = []
        for b in basis:
            # constraint rows for [x, b] = 0 with x = sum c_k basis_k
            comms = [(bk @ b - b @ bk).vec() for bk in basis]
            for u in range(self.d * self.d):
                rows.append(sum(((c >> u) & 1) << k for k, c in enumerate(comms)))
        if not rows:
            return self
        center_vecs = []
        for k in kernel(MatF(len(rows), len(basis), tuple(rows))):
            v = 0
            for idx, bv in enumerate(self._span.rows):
                if (k >> idx) & 1:
                    v ^= bv
            center_vecs.append(v)
        return FSubalgebra(self.d, center_vecs, verified=True)


def _apply(m: MatF, v: int) -> int:
    """The column vector m @ v, with v and the result as bitsets."""
    out = 0
    for i, row in enumerate(m.rows):
        out |= ((row & v).bit_count() & 1) << i
    return out


def _spin_commutant(mats: Sequence[MatF], d: int) -> list[int]:
    """Commutant vectors from spinning unit vectors under the matrices.

    Seed j is a unit vector e_i with its own unknowns x_j = X e_i: e_0
    first, then the first unit vector outside the span each time the
    spin stops short of F_2^d.  The stacked seeds u and unknowns x hold
    seed j in bits j*d .. j*d + d - 1.  Each new vector b = W u keeps its
    word matrix W (d x d^2: there are at most d seeds), and each echelon
    row r a sum M of words with M u = r; seed j's word is the identity
    in column block j.  A commutant element X has X (W u) = W x, so a
    product A b that reduces to zero gives R = A W + sum(M) with R u = 0
    and hence R x = 0.  The fully reduced rows end as the unit vectors
    e_c, and the element of a kernel vector x has columns X e_c = M_c x.
    """
    rows: list[int] = []
    pivots: list[int] = []
    combos: list[MatF] = []
    words: list[MatF] = []
    # a set: the kernel depends only on the span of the relation rows
    relations: set[int] = set()
    seeds = 0  # the stacked seed vector: bit j*d + i when e_i is seed j
    walked = 0
    while walked < len(words) or len(rows) < d:
        if walked < len(words):  # breadth-first spinning
            products = [a @ words[walked] for a in mats]
            walked += 1
        else:
            i = next(i for i in range(d) if 1 << i not in rows)
            block = seeds.bit_count() * d
            seeds |= 1 << (block + i)
            products = [MatF(d, d * d, tuple(1 << (block + r) for r in range(d)))]
        for aw in products:
            m = aw
            v = _apply(m, seeds)
            for r, p, c in zip(rows, pivots, combos):
                if (v >> p) & 1:
                    v ^= r
                    m = m + c
            if v == 0:
                relations.update(m.rows)
                continue
            p = (v & -v).bit_length() - 1
            for idx in range(len(rows)):
                if (rows[idx] >> p) & 1:
                    rows[idx] ^= v
                    combos[idx] = combos[idx] + m
            pos = next((k for k, q in enumerate(pivots) if q > p), len(pivots))
            rows.insert(pos, v)
            pivots.insert(pos, p)
            combos.insert(pos, m)
            words.append(aw)
    relations.discard(0)
    return [
        sum(_apply(c, x) << (col * d) for col, c in enumerate(combos))
        for x in kernel(MatF(len(relations), seeds.bit_count() * d, tuple(relations)))
    ]


def centralizer_basis(mats: Sequence[MatF]) -> FSubalgebra:
    """Subalgebra {X : XM = MX for every M in mats} of M_d(F_2).

    Spins unit vectors under the matrices (the MeatAxe method: Parker
    1984; Holt, Eick and O'Brien 2005, section 7.5), one seed more each
    time the span stops short of F_2^d.  A commutant element X is fixed
    by its images of the k seeds, so one kernel in k*d unknowns gives the
    algebra, with k = 1 on a module cyclic from e_0.  The algebra's basis
    is the fully reduced echelon basis of that subspace, its
    multiplicative closure is verified, and each basis matrix is checked
    to commute with the input.
    """
    d = _square_size(mats)
    algebra = FSubalgebra(d, _spin_commutant(mats, d))
    for b in algebra.basis_matrices():
        if any(b @ a != a @ b for a in mats):
            raise ValueError("centralizer basis does not commute with the input")
    return algebra


def algebra_closure(seed: Sequence[MatF]) -> FSubalgebra:
    """Smallest unital subalgebra containing the seed matrices.

    Span-extension by pairwise products of accumulated representatives,
    iterated to a fixed point; the result is closed by construction.
    """
    d = _square_size(seed)
    span = _Span()
    reps: list[MatF] = []
    for m in [MatF.identity(d), *seed]:
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
    return FSubalgebra(d, list(span.rows), verified=True)


def double_centralizer_check(algebra: FSubalgebra) -> bool:
    """Does the algebra equal the centralizer of its centralizer?

    Valid (and a theorem) for semisimple subalgebras of M_d(F_2); inputs
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
