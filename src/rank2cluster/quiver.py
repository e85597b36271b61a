"""Generalized Kronecker quivers and their module computations.

K_{b,c} has sources v_1..v_b, sinks w_1..w_c, and exactly one arrow from
every source to every sink.  Modules are realized as explicit matrices
of int rows over F_p.  Submodule Grassmannians Gr_e(M) are counted for every
e at once: subspace tuples are enumerated at the non-sink vertices only,
and each sink w, whose subspace need only contain the rank-r_w span of
the images landing in it, contributes the Gaussian binomial
[d_w - r_w, e_w - r_w]_p.  The count runs on M or on its dual DM over the
opposite quiver (Gr_e(M) = Gr_{d-e}(DM)), whichever has fewer non-sink
tuples.  Euler characteristics are recovered by interpolating the counting
polynomial through enough primes and reading off its value at q = 1.  A
held-out prime checks every interpolation, so a non-generic sample or a
wrong degree bound surfaces as an error instead of a silently wrong
number.  Modules on the orbits of projectives and injectives are built
from P_v or I_v by reflection functors; other generic modules are sampled.

One object carries both sides of the module theory: the path count N with
N[i][j] = #paths i -> j, computed once per quiver.  Row i of N is dim P_i,
column j is dim I_j, N = C^{-1} for the Euler matrix C, and the Coxeter
matrices come from N.  I_v over Q is the dual of P_v over the opposite
quiver, so its (transposed) maps come from the projective code.

All of this works for any finite acyclic quiver; nothing below is special
to K_{b,c} except the constructor.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from ._packed import _show
from .report import BudgetExceeded, Inconclusive


class NotRigid(Inconclusive):
    """A generic module failed to certify endomorphism dimension 1."""


class NotPolynomial(Inconclusive):
    """Point counts failed the held-out prime check."""


class NotIntegral(Inconclusive):
    """Interpolated counting polynomial is non-integer at q = 1."""


@dataclass(frozen=True)
class Quiver:
    """Finite acyclic quiver with named vertices; its arrow index pairs,
    opposite quiver and path count are each computed once and kept."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str], ...]

    def __init__(self, vertices: Iterable[str], arrows: Iterable[tuple[str, str]]):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "arrows", tuple((s, t) for s, t in arrows))
        position = {v: i for i, v in enumerate(self.vertices)}
        if len(position) != len(self.vertices):
            raise ValueError("vertex names must be distinct")
        for s, t in self.arrows:
            if s not in position or t not in position:
                raise ValueError(f"arrow ({s}, {t}) references unknown vertex")
        idx = tuple((position[s], position[t]) for s, t in self.arrows)
        object.__setattr__(self, "_arrow_indices", idx)
        self._check_acyclic()

    def _check_acyclic(self):
        remaining = {v: 0 for v in self.vertices}
        for _, t in self.arrows:
            remaining[t] += 1
        queue = [v for v, deg in remaining.items() if deg == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for s, t in self.arrows:
                if s == v:
                    remaining[t] -= 1
                    if remaining[t] == 0:
                        queue.append(t)
        if seen != len(self.vertices):
            raise ValueError("quiver has an oriented cycle")

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        try:
            return self.vertices.index(vertex)
        except ValueError:
            raise KeyError(f"unknown vertex {vertex!r}") from None

    def arrow_indices(self) -> tuple[tuple[int, int], ...]:
        return self._arrow_indices

    @functools.cached_property
    def opposite(self) -> Quiver:
        """Same vertices and arrow order, every arrow reversed; its opposite is self."""
        opp = Quiver(self.vertices, ((t, s) for s, t in self.arrows))
        opp.__dict__["opposite"] = self
        return opp

    @functools.cached_property
    def path_counts(self) -> tuple[tuple[int, ...], ...]:
        """N with N[i][j] = #paths i -> j: row i is dim P_i, column j dim I_j."""
        return tuple(tuple(len(b) for b in _paths_from(self, i)) for i in range(self.n))


# typed, so a float equal to a cached int is still rejected
@functools.lru_cache(maxsize=None, typed=True)
def kronecker_quiver(b: int, c: int) -> Quiver:
    """K_{b,c}, one per (b, c): vertices v1..vb then w1..wc, an arrow per (source, sink)."""
    if not isinstance(b, int) or not isinstance(c, int) or b < 1 or c < 1:
        raise ValueError("b and c must be positive integers")
    vertices = [f"v{i}" for i in range(1, b + 1)] + [f"w{j}" for j in range(1, c + 1)]
    arrows = [(f"v{i}", f"w{j}") for i in range(1, b + 1) for j in range(1, c + 1)]
    return Quiver(vertices, arrows)


def euler_matrix(Q: Quiver) -> list[list[int]]:
    """C with C_ij = delta_ij - #(arrows i->j); the Euler form is d^T C e."""
    C = [[int(i == j) for j in range(Q.n)] for i in range(Q.n)]
    for s, t in Q.arrow_indices():
        C[s][t] -= 1
    return C


def _as_dimvec(Q: Quiver, d: Sequence[int], allow_negative: bool = False) -> tuple[int, ...]:
    dv = tuple(int(x) for x in d)
    if len(dv) != Q.n:
        raise ValueError(f"dimension vector has length {(len(dv),)}, quiver has {Q.n} vertices")
    if not allow_negative and any(x < 0 for x in dv):
        raise ValueError(f"dimension vector must be nonnegative: {dv}")
    return dv


def euler_form(Q: Quiver, d: Sequence[int], e: Sequence[int]) -> int:
    """<d, e> = sum_i d_i e_i - sum over arrows s -> t of d_s e_t."""
    dv = _as_dimvec(Q, d, allow_negative=True)
    ev = _as_dimvec(Q, e, allow_negative=True)
    return sum(x * y for x, y in zip(dv, ev)) - sum(dv[s] * ev[t] for s, t in Q.arrow_indices())


# ---------------------------------------------------------------------------
# Coxeter transformation on dimension vectors

@functools.cache
def _coxeter_matrices(Q: Quiver) -> tuple[tuple[tuple[int, ...], ...], ...]:
    C = euler_matrix(Q)
    # C = I - A with A nilpotent (Q is acyclic), so N = C^{-1} = I + A + A^2
    # + ... is the path count
    N = Q.path_counts
    r = range(Q.n)
    # backward: dims of the inverse translate tau^{-1}, Phi = -N^T C
    # forward: dims of tau itself, the matrix inverse of Phi, -N C^T
    phi_b = tuple(tuple(-sum(N[k][i] * C[k][j] for k in r) for j in r) for i in r)
    phi_f = tuple(tuple(-sum(N[i][k] * C[j][k] for k in r) for j in r) for i in r)
    return phi_b, phi_f


def coxeter_translate(Q: Quiver, d: Sequence[int], direction: str) -> tuple[int, ...]:
    """Dimension vector of tau^{-1}M ("backward") or tau M ("forward").

    Defined on transjective modules away from the ends of their orbits:
    backward needs a non-injective module, forward a non-projective one.
    Leaving the nonnegative orthant means that precondition was violated
    and raises ValueError.
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"direction must be 'backward' or 'forward', got {direction!r}")
    dv = _as_dimvec(Q, d)
    phi_b, phi_f = _coxeter_matrices(Q)
    phi = phi_b if direction == "backward" else phi_f
    out = tuple(sum(m * x for m, x in zip(row, dv)) for row in phi)
    if any(x < 0 for x in out):
        kind = "injective" if direction == "backward" else "projective"
        raise ValueError(
            f"translate of {dv} left the nonnegative orthant ({out}); the module is {kind}"
        )
    return out


# ---------------------------------------------------------------------------
# explicit representations

def _is_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 2:
        return False
    i = 2
    while i * i <= p:
        if p % i == 0:
            return False
        i += 1
    return True


@functools.cache
def _first_primes(count: int) -> tuple[int, ...]:
    out = []
    p = 2
    while len(out) < count:
        if _is_prime(p):
            out.append(p)
        p += 1
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrices over F_p realizing a module: for the arrow a: s -> t, maps[a]
    is dim t tuples of dim s ints in [0, p), read with operator.index (no
    floats) and reduced mod p.  A map out of a zero space has empty rows.
    """

    quiver: Quiver
    p: int
    dims: tuple[int, ...]
    maps: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"field characteristic must be prime, got {self.p}")
        dims = tuple(int(x) for x in self.dims)
        if len(dims) != self.quiver.n or any(x < 0 for x in dims):
            raise ValueError(f"bad dimension vector {dims}")
        object.__setattr__(self, "dims", dims)
        idx = self.quiver.arrow_indices()
        if len(self.maps) != len(idx):
            raise ValueError("one matrix per arrow required")
        frozen = []
        for a, (s, t) in enumerate(idx):
            m = tuple(tuple(operator.index(x) % self.p for x in row) for row in self.maps[a])
            if len(m) != dims[t] or any(len(row) != dims[s] for row in m):
                raise ValueError(
                    f"arrow {self.quiver.arrows[a]} matrix has rows of lengths "
                    f"{[len(row) for row in m]}, expected {dims[t]} rows of {dims[s]}"
                )
            frozen.append(m)
        object.__setattr__(self, "maps", tuple(frozen))


def _paths_from(Q: Quiver, start: int) -> list[list[tuple[int, ...]]]:
    # per-vertex lists of paths (arrow index tuples) starting at `start`
    idx = Q.arrow_indices()
    buckets: list[list[tuple[int, ...]]] = [[] for _ in range(Q.n)]
    frontier = [((), start)]
    buckets[start].append(())
    while frontier:
        nxt = []
        for path, at in frontier:
            for a, (s, t) in enumerate(idx):
                if s == at:
                    ext = path + (a,)
                    buckets[t].append(ext)
                    nxt.append((ext, t))
        frontier = nxt
    return buckets


def _dual(M: Representation) -> Representation:
    """DM = Hom(M, F_p) over the opposite quiver: same dims, transposed maps."""
    # transposed column by column: zip(*m) would lose the columns of a 0-row m
    maps = tuple(
        tuple(tuple(row[j] for row in m) for j in range(M.dims[s]))
        for m, (s, _) in zip(M.maps, M.quiver.arrow_indices())
    )
    return Representation(M.quiver.opposite, M.p, M.dims, maps)


def projective_dimension_vector(Q: Quiver, vertex: str) -> tuple[int, ...]:
    return Q.path_counts[Q.index(vertex)]


def injective_dimension_vector(Q: Quiver, vertex: str) -> tuple[int, ...]:
    return tuple(zip(*Q.path_counts))[Q.index(vertex)]


def projective_module(Q: Quiver, vertex: str, p: int) -> Representation:
    """P_vertex with basis the paths starting at `vertex`; 0/1 matrices."""
    basis = _paths_from(Q, Q.index(vertex))
    dims = tuple(len(b) for b in basis)
    idx = Q.arrow_indices()
    maps = []
    for a, (s, t) in enumerate(idx):
        m = [[0] * dims[s] for _ in range(dims[t])]
        for col, path in enumerate(basis[s]):
            m[basis[t].index(path + (a,))][col] = 1
        maps.append(m)
    return Representation(Q, p, dims, tuple(maps))


def injective_module(Q: Quiver, vertex: str, p: int) -> Representation:
    """I_vertex, the dual of the projective P_vertex over the opposite quiver.

    Its basis is the paths of Q ending at `vertex`; the map of an arrow is
    the transpose of the opposite arrow's map in that projective.
    """
    return _dual(projective_module(Q.opposite, vertex, p))


def simple_module(Q: Quiver, vertex: str, p: int) -> Representation:
    i = Q.index(vertex)
    dims = tuple(int(j == i) for j in range(Q.n))
    maps = tuple(((0,) * dims[s],) * dims[t] for s, t in Q.arrow_indices())
    return Representation(Q, p, dims, maps)


def direct_sum(M: Representation, N: Representation) -> Representation:
    if M.quiver != N.quiver or M.p != N.p:
        raise ValueError("direct summands must share a quiver and a field")
    dims = tuple(a + b for a, b in zip(M.dims, N.dims))
    maps = []
    for a, (s, t) in enumerate(M.quiver.arrow_indices()):
        m = [row + (0,) * N.dims[s] for row in M.maps[a]]
        m += [(0,) * M.dims[s] + row for row in N.maps[a]]
        maps.append(m)
    return Representation(M.quiver, M.p, dims, tuple(maps))


# ---------------------------------------------------------------------------
# linear algebra over F_p

def _rank_mod_p(rows: list[Sequence[int]], p: int) -> int:
    """Rank over F_p of the matrix with these int rows; works on a copy."""
    mat = [[x % p for x in row] for row in rows]
    m = len(mat)
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, m) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        top = mat[rank] = [x * inv % p for x in mat[rank]]
        # the rank needs only the rows below the pivot cleared
        for r in range(rank + 1, m):
            f = mat[r][col]
            if f:
                mat[r] = [(x - f * y) % p for x, y in zip(mat[r], top)]
        rank += 1
        if rank == m:
            break
    return rank


def hom_dimension(M: Representation, N: Representation) -> int:
    """dim_F_p Hom(M, N): nullity of the commuting-square linear system."""
    if M.quiver != N.quiver or M.p != N.p:
        raise ValueError("both modules must live over the same quiver and field")
    p = M.p
    offsets = []
    total = 0
    for i in range(M.quiver.n):
        offsets.append(total)
        total += N.dims[i] * M.dims[i]
    rows = []
    for a, (s, t) in enumerate(M.quiver.arrow_indices()):
        Ma, Na = M.maps[a], N.maps[a]
        for r in range(N.dims[t]):
            for cs in range(M.dims[s]):
                row = [0] * total
                # (f_t @ M(a))[r, cs] term
                for c in range(M.dims[t]):
                    row[offsets[t] + r * M.dims[t] + c] += Ma[c][cs]
                # -(N(a) @ f_s)[r, cs] term
                for rr in range(N.dims[s]):
                    row[offsets[s] + rr * M.dims[s] + cs] -= Na[r][rr]
                rows.append(row)
    return total - _rank_mod_p(rows, p)


def _left_null_space(rows: list[Sequence[int]], width: int, p: int) -> list[list[int]]:
    """Basis over F_p of {y : y A = 0} for the matrix A with these rows, each of `width`."""
    # reduced row echelon form of A^T; each free column gives one basis vector
    mat = [[row[j] % p for row in rows] for j in range(width)]
    pivots: list[int] = []
    for col in range(len(rows)):
        r = len(pivots)
        pivot = next((i for i in range(r, width) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], -1, p)
        top = mat[r] = [x * inv % p for x in mat[r]]
        for i in range(width):
            f = mat[i][col]
            if f and i != r:
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], top)]
        pivots.append(col)
    basis = []
    for free in (col for col in range(len(rows)) if col not in pivots):
        y = [0] * len(rows)
        y[free] = 1
        for i, col in enumerate(pivots):
            y[col] = -mat[i][free] % p
        basis.append(y)
    return basis


def generic_module(
    Q: Quiver,
    d: Sequence[int],
    p: int,
    trials: int = 20,
    seed: int = 0,
) -> Representation:
    """Random representation at d, accepted only with endomorphism dimension 1.

    Requires <d, d> = 1 (a real Schur root); then End = 1 forces Ext^1 = 0,
    so the accepted sample is rigid and its Grassmannian counts are those of
    the unique rigid module at d.  Raises NotRigid when no sample within
    `trials` attempts is accepted.  ModuleSpec.realize builds the modules
    on the orbits of projectives and injectives instead and samples here
    only roots off those orbits.
    """
    dv = _as_dimvec(Q, d)
    if not _is_prime(p):
        raise ValueError(f"field characteristic must be prime, got {p}")
    form = euler_form(Q, dv, dv)
    if form != 1:
        raise ValueError(f"<d,d> = {form} != 1: {dv} is not a real Schur root")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    # a str seed is hashed deterministically, for any int seed
    rng = random.Random(f"{seed}:{p}")
    idx = Q.arrow_indices()
    for _ in range(trials):
        maps = tuple(
            [[rng.randrange(p) for _ in range(dv[s])] for _ in range(dv[t])] for s, t in idx
        )
        M = Representation(Q, p, dv, maps)
        if hom_dimension(M, M) == 1:
            return M
    raise NotRigid(f"no rigid sample at dims {dv} over F_{p} in {trials} trials")


# ---------------------------------------------------------------------------
# orbit modules by reflection functors (Bernstein, Gelfand and Ponomarev)

def _source_cokernels(M: Representation) -> Representation:
    """Reflection at every source of a bipartite quiver, onto its opposite.

    A source v goes to the cokernel of M_v -> (+)_a M_t over its arrows
    a: v -> t.  The rows of the projection are a left null space basis of
    the stacked maps; the reversed arrow t -> v gets their column block of a.
    """
    Q, p = M.quiver, M.p
    idx = Q.arrow_indices()
    dims = list(M.dims)
    maps: list = [None] * len(idx)
    for v in sorted({s for s, _ in idx}):
        out = [a for a, (s, _) in enumerate(idx) if s == v]
        stacked = [row for a in out for row in M.maps[a]]
        proj = _left_null_space(stacked, M.dims[v], p)
        dims[v] = len(proj)
        start = 0
        for a in out:
            end = start + M.dims[idx[a][1]]
            maps[a] = [y[start:end] for y in proj]
            start = end
    return Representation(Q.opposite, p, tuple(dims), tuple(maps))


@functools.cache
def _orbit_position(Q: Quiver, d: tuple[int, ...]) -> tuple[str, int, int] | None:
    """(end, vertex, t) with d = dim tau^{-t} P_vertex (end "projective") or
    dim tau^t I_vertex (end "injective"), or None when d is on neither orbit
    or Q is not bipartite.

    Regular roots never reach an end (affine ones are tau-periodic, wild ones
    grow), so the walk stops after sum(d) + n steps; on K_{b,c} with b, c <= 6
    every orbit module is at most sum(d) + 1 steps from its end.
    """
    idx = Q.arrow_indices()
    if {s for s, _ in idx} & {t for _, t in idx}:
        return None
    ends = (
        ("projective", "forward", Q.path_counts),
        ("injective", "backward", tuple(zip(*Q.path_counts))),
    )
    for end, direction, end_dims in ends:
        at = d
        for t in range(sum(d) + Q.n + 1):
            if at in end_dims:
                return end, end_dims.index(at), t
            try:
                at = coxeter_translate(Q, at, direction)
            except ValueError:
                break
    return None


def _orbit_module(Q: Quiver, d: tuple[int, ...], p: int) -> Representation | None:
    """The module at d on the orbit of a projective or an injective, built by
    reflection functors from that end over F_p; None off those orbits.

    tau^{-1} is the cokernels at every source, then at every source of the
    opposite quiver.  tau is the dual of tau^{-1} over the opposite quiver,
    so tau^t I_v is the dual of tau^{-t} P_v over it.  Raises NotRigid if
    the built module fails the rigidity test End = F_p.
    """
    position = _orbit_position(Q, d)
    if position is None:
        return None
    end, vertex, t = position
    M = projective_module(Q if end == "projective" else Q.opposite, Q.vertices[vertex], p)
    for _ in range(t):
        M = _source_cokernels(_source_cokernels(M))
    if end == "injective":
        M = _dual(M)
    assert M.dims == d, (M.dims, d)
    if hom_dimension(M, M) != 1:
        raise NotRigid(f"orbit module at dims {d} over F_{p} is not rigid")
    return M


# ---------------------------------------------------------------------------
# submodule Grassmannians

def gaussian_binomial(n: int, k: int, q: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(1, k + 1):
        num *= q ** (n - k + i) - 1
        den *= q ** i - 1
    value, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"[{n}, {k}]_{q} is not an integer: {num}/{den}")
    return value


def _subspaces(p: int, d: int) -> list[list[list[int]]]:
    """Every subspace of F_p^d, of every dimension, as its RREF basis rows."""
    out = []
    for k in range(d + 1):
        for pivots in itertools.combinations(range(d), k):
            free = [
                (r, c)
                for r in range(k)
                for c in range(pivots[r] + 1, d)
                if c not in pivots
            ]
            for values in itertools.product(range(p), repeat=len(free)):
                basis = [[0] * d for _ in range(k)]
                for r, c in zip(range(k), pivots):
                    basis[r][c] = 1
                for (r, c), val in zip(free, values):
                    basis[r][c] = val
                out.append(basis)
    return out


def _non_sink_tuples(Q: Quiver, d: Sequence[int], p: int) -> int:
    """Subspace tuples over F_p at the vertices of Q with an outgoing arrow."""
    total = 1
    for v in {s for s, _ in Q.arrow_indices()}:
        total *= sum(gaussian_binomial(d[v], k, p) for k in range(d[v] + 1))
    return total


def _one_sided_counts(M: Representation) -> dict[tuple[int, ...], int]:
    """#Gr_e(M)(F_p) for every e <= dim M, enumerating non-sinks only.

    A choice of subspaces U_v at the non-sink vertices is admissible when
    every arrow a: s -> t between two of them has M_a U_s inside U_t.  A
    sink w then takes any e_w-subspace containing the span of the images
    M_a U_s landing in w; if that span has rank r_w there are
    [d_w - r_w, e_w - r_w]_p of them, independently for each sink.
    """
    Q, p, d = M.quiver, M.p, M.dims
    idx = Q.arrow_indices()
    non_sinks = sorted({s for s, _ in idx})
    slot = {v: i for i, v in enumerate(non_sinks)}
    sinks = [w for w in range(Q.n) if w not in slot]
    subs = [_subspaces(p, d[v]) for v in non_sinks]
    # images[a][i]: rows spanning M_a U, for U the i-th subspace at a's source
    images = [
        [
            [[sum(x * y for x, y in zip(m, u)) % p for m in M.maps[a]] for u in U]
            for U in subs[slot[s]]
        ]
        for a, (s, _) in enumerate(idx)
    ]
    internal = [(a, slot[s], slot[t]) for a, (s, t) in enumerate(idx) if t in slot]
    landing = [[(a, slot[s]) for a, (s, t) in enumerate(idx) if t == w] for w in sinks]
    histogram: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
    for choice in itertools.product(*(range(len(s)) for s in subs)):
        if not all(
            _rank_mod_p(subs[t][choice[t]] + images[a][choice[s]], p)
            == len(subs[t][choice[t]])
            for a, s, t in internal
        ):
            continue
        key = (
            tuple(len(subs[i][c]) for i, c in enumerate(choice)),
            tuple(
                _rank_mod_p([row for a, s in arrows for row in images[a][choice[s]]], p)
                for arrows in landing
            ),
        )
        histogram[key] = histogram.get(key, 0) + 1
    counts = dict.fromkeys(itertools.product(*(range(x + 1) for x in d)), 0)
    e = [0] * Q.n
    for (choice_dims, ranks), n in histogram.items():
        for v, k in zip(non_sinks, choice_dims):
            e[v] = k
        for sink_dims in itertools.product(*(range(r, d[w] + 1) for w, r in zip(sinks, ranks))):
            term = n
            for w, r, k in zip(sinks, ranks, sink_dims):
                e[w] = k
                term *= gaussian_binomial(d[w] - r, k - r, p)
            counts[tuple(e)] += term
    return counts


def _grassmannian_counts(M: Representation) -> dict[tuple[int, ...], int]:
    """#Gr_e(M)(F_p) for every e <= dim M, from the cheaper side.

    Gr_e(M) = Gr_{d-e}(DM) over the opposite quiver, whose non-sinks are
    the non-sources of Q, so the side with fewer non-sink tuples is counted.
    """
    Q, d, p = M.quiver, M.dims, M.p
    if _non_sink_tuples(Q.opposite, d, p) >= _non_sink_tuples(Q, d, p):
        return _one_sided_counts(M)
    dual = _one_sided_counts(_dual(M))
    return {e: dual[tuple(x - y for x, y in zip(d, e))] for e in dual}


# ---------------------------------------------------------------------------
# Euler characteristics via counting polynomials

@dataclass(frozen=True)
class ModuleSpec:
    """Symbolic module description resolvable at any prime.

    kinds: "projective" | "injective" | "simple" (vertex required),
    "generic" (dims required, must be a real Schur root at realization
    time), "sum" (parts required).
    """

    quiver: Quiver
    kind: str
    vertex: str | None = None
    dims: tuple[int, ...] | None = None
    parts: tuple["ModuleSpec", ...] | None = None

    def __post_init__(self):
        if self.kind in ("projective", "injective", "simple"):
            if self.vertex is None:
                raise ValueError(f"{self.kind} spec requires a vertex")
            self.quiver.index(self.vertex)
            if self.dims is not None or self.parts is not None:
                raise ValueError(f"{self.kind} spec takes only a vertex")
        elif self.kind == "generic":
            if self.dims is None:
                raise ValueError("generic spec requires dims")
            object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))
            _as_dimvec(self.quiver, self.dims)
        elif self.kind == "sum":
            if not self.parts:
                raise ValueError("sum spec requires parts")
            object.__setattr__(self, "parts", tuple(self.parts))
            for part in self.parts:
                if part.quiver != self.quiver:
                    raise ValueError("sum parts must share the quiver")
        else:
            raise ValueError(f"unknown module kind {self.kind!r}")

    @property
    def dimension_vector(self) -> tuple[int, ...]:
        if self.kind == "projective":
            return projective_dimension_vector(self.quiver, self.vertex)
        if self.kind == "injective":
            return injective_dimension_vector(self.quiver, self.vertex)
        if self.kind == "simple":
            i = self.quiver.index(self.vertex)
            return tuple(int(j == i) for j in range(self.quiver.n))
        if self.kind == "generic":
            return self.dims
        return tuple(
            sum(part.dimension_vector[i] for part in self.parts)
            for i in range(self.quiver.n)
        )

    def realize(self, p: int, seed: int = 0) -> Representation:
        """The module over F_p.  A generic module on the orbit of a projective
        or an injective is built by reflection functors and passes one
        rigidity test; only a root off those orbits samples generic_module,
        the one use of `seed`.  Sum parts get their own seeds."""
        if self.kind == "projective":
            return projective_module(self.quiver, self.vertex, p)
        if self.kind == "injective":
            return injective_module(self.quiver, self.vertex, p)
        if self.kind == "simple":
            return simple_module(self.quiver, self.vertex, p)
        if self.kind == "generic":
            built = _orbit_module(self.quiver, self.dims, p)
            if built is not None:
                return built
            return generic_module(self.quiver, self.dims, p, seed=seed)
        total = self.parts[0].realize(p, seed)
        for offset, part in enumerate(self.parts[1:], start=1):
            total = direct_sum(total, part.realize(p, seed + 7919 * offset))
        return total


@functools.cache
def _lagrange_weights(nodes: tuple[int, ...], x: int) -> tuple[tuple[int, ...], int]:
    """Integers (c, D) with P(x) = sum_i c_i P(nodes_i) / D for every
    polynomial P of degree below len(nodes)."""
    nums, dens = [], []
    for i, xi in enumerate(nodes):
        num = den = 1
        for j, xj in enumerate(nodes):
            if i != j:
                num *= x - xj
                den *= xi - xj
        nums.append(num)
        dens.append(den)
    D = math.lcm(*dens)
    return tuple(num * (D // den) for num, den in zip(nums, dens)), D


_CHI_CACHE: dict[tuple, dict[tuple[int, ...], int]] = {}

# generic modules are resolved only up to this total dimension; chi counts
# subspace tuples at the sources of the module or at the sinks of its dual,
# whichever side has fewer, over up to sum(d_i^2 // 4) + 2 primes, and that
# count leaves desk scale beyond it
GENERIC_DIM_BUDGET = 12

# primes to try for point counting; a generic module that fails its
# rigidity test at a prime rejects that prime
_PRIME_POOL_SIZE = 40


def chi_table(spec: ModuleSpec, seed: int = 0) -> dict[tuple[int, ...], int]:
    """Euler characteristic of Gr_e(M) for every e <= dim M.

    Counts the points of every Gr_e(M) in one pass per prime, over D+2
    primes in all, where D = max_e sum e_i (d_i - e_i) bounds the degree of
    the counting polynomials.  A generic module on the orbit of a
    projective or an injective is built by reflection functors at each
    prime and passes one rigidity test there (see ModuleSpec.realize); a
    prime where the test fails is skipped.  For each e it interpolates
    through the first deg_e + 1 counts with cached integer Lagrange
    weights, verifies the prediction at the next, held-out prime
    (NotPolynomial on mismatch), and evaluates at q = 1 (NotIntegral if
    that is not an integer).  Results are cached per (spec, seed).  A
    generic module over GENERIC_DIM_BUDGET raises BudgetExceeded first.
    """
    key = (spec, seed)
    got = _CHI_CACHE.get(key)
    if got is not None:
        return got
    d = spec.dimension_vector
    if spec.kind == "generic" and sum(d) > GENERIC_DIM_BUDGET:
        raise BudgetExceeded(
            f"dimension total {_show(sum(d))} exceeds the enumeration budget "
            f"{GENERIC_DIM_BUDGET}"
        )
    all_e = list(itertools.product(*[range(x + 1) for x in d]))
    needed = sum((x * x) // 4 for x in d) + 2
    collected: list[tuple[int, dict[tuple[int, ...], int]]] = []
    rejected: list[int] = []
    for p in _first_primes(_PRIME_POOL_SIZE):
        if len(collected) == needed:
            break
        try:
            M = spec.realize(p, seed=seed)
        except NotRigid:
            rejected.append(p)
            continue
        collected.append((p, _grassmannian_counts(M)))
    if len(collected) < needed:
        raise NotRigid(
            f"needed {needed} primes for {spec.kind} at dims {d}, got "
            f"{len(collected)} (rejected: {rejected})"
        )
    primes = tuple(p for p, _ in collected)
    table: dict[tuple[int, ...], int] = {}
    for e in all_e:
        degree = sum(ei * (di - ei) for ei, di in zip(e, d))
        nodes = primes[: degree + 1]
        values = [counts[e] for _, counts in collected[: degree + 1]]
        hold_p, hold_counts = collected[degree + 1]
        weights, D = _lagrange_weights(nodes, hold_p)
        predicted = sum(map(operator.mul, weights, values))
        actual = hold_counts[e]
        if predicted != actual * D:
            raise NotPolynomial(
                f"holdout prime {hold_p} check failed for e={e}: interpolation "
                f"predicts {Fraction(predicted, D)}, count is {actual}"
            )
        weights, D = _lagrange_weights(nodes, 1)
        at_one = sum(map(operator.mul, weights, values))
        value, rem = divmod(at_one, D)
        if rem:
            raise NotIntegral(f"counting polynomial at q=1 is {Fraction(at_one, D)} for e={e}")
        table[e] = value
    _CHI_CACHE[key] = table
    return table


def euler_characteristic(spec: ModuleSpec, e: Sequence[int], seed: int = 0) -> int:
    """chi(Gr_e(M)) for the module described by spec."""
    ev = tuple(int(x) for x in e)
    d = spec.dimension_vector
    if len(ev) != len(d) or any(x < 0 or x > dx for x, dx in zip(ev, d)):
        raise ValueError(f"e = {ev} is not between 0 and dim M = {d}")
    return chi_table(spec, seed=seed)[ev]
