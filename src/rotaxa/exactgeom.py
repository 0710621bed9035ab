"""Exact rational convex geometry in homology coordinates.

A homology class of a genus-``g`` surface is a point of Q^{2g}, and every
vertex the engine builds is a cycle mean or a hull vertex of such means.
So a polytope is stored as ``integer_vertices``: integer rows over the
vertices' least common denominator, sorted and irredundant, so structural
equality is geometric equality.  Every decision is exact.  ``Fraction``
vectors meet this form at the edges only: model input, converted once per
vector (:func:`~rotaxa.simplex.integer_rows`), and a polytope's
``vertices``, built on first read, which a failed check's report reads (the
JSON and CSV output format the integer rows directly).  In between, a point
is its homogeneous integer column ``[x·den; den]`` (:class:`HomogeneousPoint`),
and that point form is crossed in two places only:
:attr:`RationalPolytope.columns`, a polytope's vertices as columns, and
:attr:`HomogeneousPoint.vector`, a column as a ``Fraction`` vector, which
only failure messages read.

Every exact rank, span and affine-independence question goes through one
fraction-free integer Gauss-Jordan elimination
(:func:`~rotaxa.kernel._eliminate`), which pivots with the LP's Bareiss
step (:func:`~rotaxa.simplex._eliminate`, Bareiss 1968).  A polytope whose
vertices are affinely independent (a simplex, which every chain polytope
and block of the fixtures is) answers membership and segment queries from
a :class:`~rotaxa.kernel.SimplexKernel`: integer rows, eliminated once per
polytope on its support (the coordinates that some vertex uses; see
:mod:`rotaxa.kernel`) and cached on it, that give barycentric coordinates
and the affine hull equations, so each query is a handful of integer dot
products.  Other polytopes answer them by exact linear programs on the
vertices' homogeneous columns.  A point set that the elimination shows to
be affinely independent is its own vertex set; any other hull is
LP-certified (:func:`extreme_points`): a point is proved inside by a
witness simplex and a vertex by an integer functional that it alone
maximizes.  The hull keeps these functionals (``vertex_functionals``), so
when its vertices are hulled again with more points (coned to the origin,
or pooled with other polytopes), only the vertices whose functional no
longer exposes them take an LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError
from .kernel import SimplexKernel, _dot, _eliminate, _simplex_kernel
from .simplex import INFEASIBLE, OPTIMAL, LpResult, integer_rows, resume, solve_lp
from .simplex import Columns, homogeneous_rows, lowest_terms, primitive

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_vector(values: Iterable[int | str | Fraction]) -> Vector:
    """Build an exact vector from ints, ``"p/q"`` strings or Fractions."""
    return tuple(Fraction(v) for v in values)


def parse_rational(text: str | int) -> Fraction:
    """Read an integer, or a string in the form ``str`` writes: ``"p/q"``
    with ``q > 1`` in lowest terms, or ``"n"``."""
    if isinstance(text, bool) or isinstance(text, float):
        raise ValueError(f"rational expected, got {text!r}")
    value = Fraction(text)
    if isinstance(text, str) and str(value) != text:
        raise ValueError(f"{text!r} is not a rational in lowest terms")
    return value


def format_vector(v: Vector) -> list[str]:
    return [str(c) for c in v]


@dataclass(frozen=True)
class RationalPolytope:
    """Convex hull of finitely many rational points, in canonical form:
    ``integer_vertices = (den, rows)``, each vertex times ``den``, their
    least common denominator, as lexicographically sorted, irredundant
    integer rows.  Equality and hashing compare this form, which
    :func:`extreme_points` establishes.  A single point (including the
    origin alone) is a valid polytope of dimension 0.
    """

    dim: int
    integer_vertices: tuple[int, tuple[tuple[int, ...], ...]]

    def __post_init__(self) -> None:
        rows = self.integer_vertices[1]
        if not rows:
            raise ValueError("a polytope needs at least one vertex")
        if any(len(row) != self.dim for row in rows):
            raise DimensionMismatchError(f"vertex rows must have length {self.dim}")

    @cached_property
    def vertices(self) -> tuple[Vector, ...]:
        """The vertices ``rows / den`` as ``Fraction`` vectors, for a
        failed check's report and library callers: built on first read,
        each distinct coordinate once."""
        den, rows = self.integer_vertices
        fractions = {a: Fraction(a, den) for a in set(chain.from_iterable(rows))}
        return tuple(tuple(map(fractions.__getitem__, row)) for row in rows)

    @property
    def columns(self) -> list[HomogeneousPoint]:
        """The vertices as homogeneous columns ``[row; den]``, built on each
        read and not kept, so a polytope holds one copy of its vertices."""
        den, rows = self.integer_vertices
        return [HomogeneousPoint((*row, den)) for row in rows]

    @cached_property
    def simplex_kernel(self) -> SimplexKernel | None:
        """The polytope's :class:`SimplexKernel`, eliminated on first use and
        kept on this instance; ``None`` unless the vertices are affinely
        independent."""
        if len(self.integer_vertices[1]) > self.dim + 1:
            return None
        return _simplex_kernel(*self.integer_vertices)

    @cached_property
    def vertex_functionals(self) -> tuple[tuple[int, ...] | None, ...]:
        """For each vertex, an integer functional ``c`` that it alone
        maximizes among the vertices, or ``None`` where none is known.
        ``c`` is linear, so it orders points written over any positive
        denominator the same way.  Stored by :func:`extreme_points` from
        the LPs that decided the hull; a simplex's are read from its
        kernel's barycentric rows, widened to every coordinate, each
        positive at its own vertex and 0 at the others."""
        kernel = self.simplex_kernel
        if kernel is None:
            return (None,) * len(self.integer_vertices[1])
        return tuple(map(kernel.ambient, kernel.barycentric))

    @property
    def holds_origin(self) -> bool:
        """Whether the origin lies in the polytope (see
        :attr:`origin_separation`)."""
        return self.origin_separation is None

    @cached_property
    def origin_separation(self) -> tuple[int, ...] | None:
        """``None`` when the origin lies in the polytope; otherwise an
        integer functional ``c`` with ``c . v < 0`` at every vertex ``v``,
        which the origin alone maximizes over the polytope and the origin.
        Decided on first use and kept on this instance: a simplex holds the
        origin by its kernel's sign tests, with no LP; otherwise one
        membership LP decides, and its separating functional is the
        certificate."""
        origin = origin_column(self.dim)
        kernel = self.simplex_kernel
        if kernel is not None and kernel.contains(origin):
            return None
        separation = hull_membership(self.columns, origin).separation
        return None if separation is None else separation[0]


class HomogeneousPoint(tuple):
    """A rational point ``x`` as its homogeneous integer column
    ``[x·den; den]``, ``den > 0``: the form every exact membership test
    reads, and a form :func:`extreme_points` takes.  Build it with
    :func:`homogeneous`, or from a column already held in integers, as
    oracle samples and cycle sums are; a polytope's vertices are its
    :attr:`~RationalPolytope.columns`."""

    __slots__ = ()

    @property
    def vector(self) -> Vector:
        """The point ``x`` as a ``Fraction`` vector, each coordinate in
        lowest terms."""
        *nums, den = self
        return tuple(Fraction(a, den) for a in nums)


def homogeneous(x: Vector | HomogeneousPoint) -> HomogeneousPoint:
    """``x`` as ``[x·den; den]`` for the least positive ``den`` that clears
    its denominators; a :class:`HomogeneousPoint` as it is."""
    if isinstance(x, HomogeneousPoint):
        return x
    den, (nums,) = integer_rows((x,))
    return HomogeneousPoint((*nums, den))


def origin_column(dim: int) -> HomogeneousPoint:
    """The origin of Q^dim as its homogeneous column ``[0…0; 1]``."""
    return HomogeneousPoint((0,) * dim + (1,))


@dataclass(frozen=True)
class SubspaceBasis:
    """A (possibly empty) list of spanning vectors for a rational subspace."""

    basis: tuple[Vector, ...]

    @cached_property
    def integer_basis(self) -> tuple[tuple[int, ...], ...]:
        """The basis vectors as integer rows, each a positive multiple of
        its vector: converted on first use and kept on this instance, or
        stacked from other bases' rows by
        :func:`~rotaxa.conley.support_span`."""
        return integer_rows(self.basis)[1]

    @cached_property
    def rank(self) -> int:
        """The dimension of the span, eliminated on first use and kept on
        this instance."""
        return integer_rank(self.integer_basis)


def _check_uniform(points: Sequence[Vector]) -> int:
    dim = len(points[0])
    for p in points:
        if len(p) != dim:
            raise DimensionMismatchError(
                f"mixed vector lengths {len(p)} and {dim} in one point set"
            )
    return dim


class Membership(NamedTuple):
    """Outcome of :func:`hull_membership`: the verdict, the separating
    functional ``(c, c0)`` when it is ``False``, and the LP that decided it
    (an infeasible one can be :func:`~rotaxa.simplex.resume`-d with one more
    point; a feasible one's basis names points whose hull holds ``x``)."""

    member: bool
    separation: tuple[tuple[int, ...], int] | None
    lp: LpResult


def hull_membership(
    columns: Sequence[Sequence[int]],
    y: Sequence[int],
    start: LpResult | None = None,
) -> Membership:
    """Decide ``x in conv(points)`` exactly, by one feasibility LP.

    Each point ``p``, and ``x``, is given as a homogeneous integer column
    ``[p·den; den]`` over a positive ``den`` of its own (the polytope's
    ``integer_vertices`` or :func:`homogeneous` give them); a positive
    multiple of a column is the same point, and the LP takes the same
    pivots.  The columns may also be given made primitive already
    (:class:`~rotaxa.simplex.Columns`), as the LPs of one hull share them,
    and the LP may start from the basis of an earlier membership LP over a
    prefix of them (``start``, see :func:`~rotaxa.simplex.solve_lp`).
    On membership the separation is ``None``.  On failure it is
    ``(c, c0)``, integers, where the functional satisfies ``c . p <= c0``
    for every hull point and ``c . x > c0`` — an LP-certified separation.
    """
    if not isinstance(columns, Columns):
        _check_uniform([*columns, y])
        columns = Columns(map(primitive, columns))
    dim = len(y) - 1
    res = solve_lp([0] * len(columns), columns, y, start)
    if res.status == OPTIMAL:
        return Membership(True, None, res)
    certificate = res.certificate
    assert certificate is not None
    return Membership(False, (certificate[:dim], -certificate[dim]), res)


def contains_point(polytope: RationalPolytope, x: Vector | HomogeneousPoint) -> bool:
    """Exact membership of ``x`` in the polytope: sign tests on a simplex,
    a feasibility LP otherwise.  ``x`` may be given as a
    :class:`HomogeneousPoint`, converted once for several tests."""
    y = homogeneous(x)
    if len(y) != polytope.dim + 1:
        raise DimensionMismatchError(
            f"point of length {len(y) - 1} against polytope of dimension {polytope.dim}"
        )
    kernel = polytope.simplex_kernel
    if kernel is None:
        return hull_membership(polytope.columns, y)[0]
    return kernel.contains(y)


def _witness_kernel(lp: LpResult) -> SimplexKernel:
    """The :class:`SimplexKernel` of a feasible membership LP's basis, read
    from its final basis inverse with no elimination.

    The LP's columns are homogeneous points, so a row of its basis inverse
    that is positive on one basic column and 0 on the others is a
    barycentric row of the basis simplex, and a row that is 0 on every
    column is an affine row (:attr:`~rotaxa.simplex.LpResult.basis_inverse`
    gives both, one per coordinate of ``y``).
    """
    return SimplexKernel(*lp.basis_inverse)  # type: ignore[misc]


def extreme_points(
    points: Iterable[Vector | HomogeneousPoint],
    functionals: Sequence[Sequence[int] | None] = (),
) -> RationalPolytope:
    """Irredundant vertex set of the convex hull of ``points``.

    The points are rational vectors, converted together by one
    :func:`~rotaxa.simplex.integer_rows`, or all :class:`HomogeneousPoint`
    columns, which are brought over one denominator with no conversion
    (:func:`~rotaxa.simplex.homogeneous_rows`): a polytope's ``columns``
    or a cycle's integer sum give them.  The hull's ``integer_vertices``
    are over their least denominator.

    Distinct points that are affinely independent (at most ``dim + 1`` of
    them, every column pivoting in :func:`_simplex_kernel`) are each a
    vertex, so they are returned as they are, with no LP.

    ``functionals[i]``, where given and not ``None``, is an integer
    functional claimed to expose ``points[i]``: a polytope's
    ``vertex_functionals``, handed back when its vertices are hulled again
    with more points.  A claim is checked by integer dot products against
    every input point; when ``points[i]`` alone maximizes the functional,
    it is a vertex, decided with no LP, and otherwise the claim is ignored.

    Any other point is decided certificate-driven: the points are decided
    in lexicographic order, each undecided candidate ``p`` first tested
    against a small inner approximation of the hull; when that test fails,
    the LP's separating functional ``c`` either certifies ``p`` as extreme
    outright (every other point lies strictly below it) or discovers
    ``best``, the lexicographically largest maximizer of ``c`` over the
    other points, which joins the approximation.  ``best`` is decided as a
    vertex on discovery, with no LP of its own:

    * if ``c . best > c . p``, or they tie and ``best > p``, then ``best`` is
      the lexicographically largest maximizer of ``c`` over all points, a
      vertex of the face ``c`` exposes and so of the hull;
    * if they tie and ``best < p``, ``best`` came earlier in the order and is
      decided already.  Not as inside the hull: a point decided inside lies
      in the hull of the approximation, which only grows, and ``c`` puts all
      of it strictly below ``c . p = c . best``.

    The second case rests on the lexicographic order.  The same fact keeps
    the search for ``best`` short: only undecided points and vertices
    decided outside the approximation can reach ``c . p``, so only theirs
    are read.  Each vertex that ``c`` exposes as the unique maximizer keeps
    ``c`` in the hull's ``vertex_functionals``.

    The LPs reuse each other's work.  When ``best`` joins the approximation,
    the candidate's LP takes it as one more column and resumes its phase 1
    where it ended (:func:`~rotaxa.simplex.resume`), rather than starting
    again from the artificial basis; each point is made a primitive LP
    column once, when it joins.  When an LP finds ``p`` inside, its
    final basis names affinely independent inner points whose hull holds
    ``p``: a witness simplex, whose :class:`SimplexKernel` the LP's final
    basis inverse already holds (:func:`_witness_kernel`).  The kernels are kept
    for the rest of the call, and each later candidate is first tested
    against them, newest and most recently hit first, by integer sign
    tests; one that lies in a witness simplex lies in the hull of other
    points and is decided as inside with no LP.  Once some witness LP's
    basis has kept all ``dim + 1`` rows, each later LP starts from the
    newest such basis, not from the artificial basis: its columns are a
    prefix of ``inner``, so phase 1 is a dual simplex from there (see
    :mod:`rotaxa.simplex`), ending at a new witness or at a separating
    functional, and resumed in the same way.

    Every verdict is backed by an exact certificate (an elimination, an
    exposing functional or a witness simplex), and the routine is
    idempotent.
    """
    points = list(points)
    if not points:
        raise ValueError("extreme_points of an empty point set")
    homogeneous_input = all(isinstance(p, HomogeneousPoint) for p in points)
    den, rows = (homogeneous_rows if homogeneous_input else integer_rows)(points)
    dim = _check_uniform(rows)
    # The distinct points, sorted: integer rows over one denominator sort in
    # the points' lexicographic order and hash faster.
    ints = sorted(set(rows))
    if len(ints) <= dim + 1:
        kernel = _simplex_kernel(den, ints)
        if kernel is not None:
            return _polytope(dim, den, ints, simplex_kernel=kernel)

    n = len(ints)
    columns = [(*q, den) for q in ints]
    is_vertex = [False] * n
    decided = [False] * n
    exposing: list[tuple[int, ...] | None] = [None] * n
    if functionals:
        position = {q: i for i, q in enumerate(ints)}
        for q, c in zip(rows, functionals):
            i = position[q]
            if c is None or decided[i]:
                continue
            values = [_dot(c, r) for r in ints]
            top = values[i]
            if max(values) == top and values.count(top) == 1:
                is_vertex[i] = decided[i] = True
                exposing[i] = tuple(c)
    # The LP columns of the inner approximation, each made primitive once;
    # the lexicographic extremes are vertices.
    inner = Columns([primitive(columns[0]), primitive(columns[-1])])
    is_vertex[0] = is_vertex[-1] = True
    decided[0] = decided[-1] = True
    # Whether a point may reach c . p for a separating c: neither in
    # ``inner`` nor decided inside, and not the candidate itself.
    may_reach = [True] * n
    may_reach[0] = may_reach[-1] = False
    witnesses: list[SimplexKernel] = []
    # The newest witness LP whose basis kept all dim + 1 rows.
    start = None

    for idx in range(n):
        if decided[idx]:
            continue
        decided[idx] = True
        may_reach[idx] = False
        y = columns[idx]
        hit = next((k for k, kernel in enumerate(witnesses) if kernel.contains(y)), -1)
        if hit >= 0:
            witnesses.insert(0, witnesses.pop(hit))
            continue
        # Column j of the LP is inner[j], resumed ones included.
        lp = hull_membership(inner, y, start).lp
        while lp.status == INFEASIBLE:
            c = lp.certificate[:dim]  # type: ignore[index]
            top = _dot(c, ints[idx])
            candidates = [i for i in range(n) if may_reach[i]]
            values = [_dot(c, ints[i]) for i in candidates]
            best = max(values, default=top - 1)
            if best < top:
                # The whole point set sits strictly below p on c: extreme.
                is_vertex[idx] = may_reach[idx] = True
                exposing[idx] = c
                break
            # The maximizer among the other points, ties going to the
            # lexicographically largest, which is the largest index.
            last = len(values) - 1 - values[::-1].index(best)
            best_i = candidates[last]
            if best > top and values.count(best) == 1 and exposing[best_i] is None:
                exposing[best_i] = c
            inner.append(primitive(columns[best_i]))
            may_reach[best_i] = False
            is_vertex[best_i] = decided[best_i] = True
            lp = resume(lp, inner[-1])
        else:
            witnesses.insert(0, _witness_kernel(lp))
            if len(lp.basis) > dim:
                start = lp

    keep = [i for i in range(n) if is_vertex[i]]
    exposed = tuple(exposing[i] for i in keep)
    return _polytope(dim, den, [ints[i] for i in keep], vertex_functionals=exposed)


def _polytope(dim: int, den: int, rows: Sequence[tuple[int, ...]], **cached):
    """The polytope on the sorted vertex rows ``rows / den``, brought over
    their least denominator, with the ``cached`` properties kept where they
    would be stored."""
    den, rows = lowest_terms(den, rows)
    polytope = RationalPolytope(dim, (den, tuple(rows)))
    vars(polytope).update(cached)
    return polytope


def hull_of_union(polytopes: Sequence[RationalPolytope]) -> RationalPolytope:
    """Hull of the polytopes' vertices.

    One polytope is its own hull: that same instance is returned, so no
    hull is built and its cached ``simplex_kernel`` is reused.  Otherwise
    the members' ``columns`` go to :func:`extreme_points` as they are, each
    over its member's denominator, so no member vertex is converted again;
    :func:`extreme_points` brings them over one denominator, where a point
    two members share is one row.  The members' ``vertex_functionals`` go
    along, so a member vertex that its functional still exposes among all
    the points is decided with no LP.
    """
    if len(polytopes) == 1:
        return polytopes[0]
    return extreme_points(
        [y for member in polytopes for y in member.columns],
        [c for member in polytopes for c in member.vertex_functionals],
    )


def affine_dim(polytope: RationalPolytope) -> int:
    """Dimension of the affine hull: ``len(vertices) - 1`` for a simplex,
    whose kernel decided it; otherwise the rank of the rows ``[v, 1]`` on
    the coordinates that some vertex uses, less 1."""
    den, rows = polytope.integer_vertices
    if polytope.simplex_kernel is not None:
        return len(rows) - 1
    support = [j for j, column in enumerate(zip(*rows)) if any(column)]
    rows = [[*(v[j] for j in support), den] for v in rows]
    return len(_eliminate(rows, len(support) + 1)) - 1


def rank_of(vectors: Iterable[Vector]) -> int:
    """Rank over Q, of the rows written as integers over one denominator."""
    return integer_rank(integer_rows(vectors)[1])


def integer_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over Q of integer rows: the number of pivots when they are
    eliminated.  Scaling a row by a positive integer keeps the rank, so rows
    converted over different denominators may be stacked."""
    rows = list(rows)
    if not rows:
        return 0
    return len(_eliminate(rows, len(rows[0])))


def vertex_outside_span(
    subspace: SubspaceBasis, polytope: RationalPolytope
) -> Vector | None:
    """The first vertex outside the rational span of the basis, or None.

    The basis's integer rows and rank are kept on the
    :class:`SubspaceBasis`, so a basis tested against several polytopes is
    converted and eliminated once.  One rank of the basis stacked with every
    vertex row decides the passing case; only when that rank exceeds the
    basis's own are the vertices tested one at a time, so the vertex
    reported is still the first one outside.
    """
    if subspace.basis and len(subspace.basis[0]) != polytope.dim:
        raise DimensionMismatchError(
            f"basis of length {len(subspace.basis[0])} against dimension {polytope.dim}"
        )
    basis = subspace.integer_basis
    base_rank = subspace.rank
    if integer_rank([*basis, *polytope.integer_vertices[1]]) == base_rank:
        return None
    return next(
        y.vector
        for y in polytope.columns
        if integer_rank([*basis, y[:-1]]) != base_rank
    )


def in_span(subspace: SubspaceBasis, polytope: RationalPolytope) -> bool:
    """True iff every vertex lies in the rational span of the basis."""
    return vertex_outside_span(subspace, polytope) is None


def segment_interval(
    polytope: RationalPolytope,
    a: Vector | HomogeneousPoint,
    b: Vector | HomogeneousPoint,
) -> tuple[Fraction, Fraction] | None:
    """The exact parameter set ``{t in [0,1] : a + t(b-a) in P}``.

    The set is a closed rational interval or empty.  Either endpoint may be
    given as a :class:`HomogeneousPoint`.  A simplex reads the set off its
    kernel by one ratio test; any other polytope solves two LPs.
    """
    a, b = homogeneous(a), homogeneous(b)
    if len(a) != polytope.dim + 1 or len(b) != polytope.dim + 1:
        raise DimensionMismatchError("segment endpoints do not match the polytope")
    kernel = polytope.simplex_kernel
    if kernel is None:
        return _segment_interval_lp(polytope, a, b)
    return kernel.segment_interval(a, b)


def _segment_interval_lp(
    polytope: RationalPolytope,
    a: Vector | HomogeneousPoint,
    b: Vector | HomogeneousPoint,
) -> tuple[Fraction, Fraction] | None:
    """:func:`segment_interval` by one minimizing and one maximizing LP over
    the joint (weights, t) system; valid for every polytope.  The
    maximizing LP starts its phase 2 from the minimizing LP's basis."""
    a, b = homogeneous(a), homogeneous(b)
    if a[-1] != b[-1]:
        a, b = [p * b[-1] for p in a], [q * a[-1] for q in b]
    den, verts = polytope.integer_vertices
    n = len(verts)
    # Columns: n hull weights (each vertex's homogeneous column, so a
    # weight is a[-1] / den times the convex one), then t, then the slack
    # for t <= 1.  The endpoints are over the one denominator a[-1].
    rows = [[*coordinate, p - q, 0] for coordinate, p, q in zip(zip(*verts), a, b)]
    rows.append([den] * n + [0, 0])
    rows.append([0] * n + [1, 1])
    rhs = [*a, 1]

    cost_low = [0] * n + [1, 0]
    low = solve_lp(cost_low, rows, rhs)
    if low.status == INFEASIBLE:
        return None
    cost_high = [0] * n + [-1, 0]
    high = solve_lp(cost_high, rows, rhs, low)
    assert low.status == OPTIMAL and high.status == OPTIMAL
    assert low.value is not None and high.value is not None
    return low.value, -high.value


def segment_uncovered_gap(
    a: Vector | HomogeneousPoint,
    b: Vector | HomogeneousPoint,
    family: Sequence[RationalPolytope],
) -> tuple[Fraction, Fraction] | None:
    """First gap of ``[a, b]`` against the union of the family, if any.

    Returns ``None`` when the segment is covered.  Otherwise returns
    parameters ``(lo, hi)`` with ``lo < hi`` such that no point strictly
    between them is covered (and ``lo`` itself is uncovered when it is 0).
    Either endpoint may be given as a :class:`HomogeneousPoint`; each is
    converted once for the whole family.

    The scan stops at the first member that holds the whole segment.  The
    gap is read from the intervals sorted, so the order of the family never
    changes the answer, only how many members are tested.
    """
    a, b = homogeneous(a), homogeneous(b)
    dim = len(a) - 1
    if len(b) != dim + 1 or any(p.dim != dim for p in family):
        raise DimensionMismatchError("segment and family dimensions differ")
    if all(p * b[-1] == q * a[-1] for p, q in zip(a, b)):
        for member in family:
            if contains_point(member, a):
                return None
        return _ZERO, _ONE
    intervals = []
    for member in family:
        hit = segment_interval(member, a, b)
        if hit == (_ZERO, _ONE):
            return None
        if hit is not None:
            intervals.append(hit)
    intervals.sort()
    reach = _ZERO
    for lo, hi in intervals:
        if lo > reach:
            return reach, lo
        if hi > reach:
            reach = hi
        if reach >= 1:
            return None
    if reach >= 1:
        return None
    return reach, _ONE


def segment_covered(
    a: Vector, b: Vector, family: Sequence[RationalPolytope]
) -> bool:
    """True iff the closed segment ``[a, b]`` lies in the union of the family."""
    return segment_uncovered_gap(a, b, family) is None
