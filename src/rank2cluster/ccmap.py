"""Cluster characters for K_{b,c} and the folding onto rank-2 variables.

An object of the cluster category is either a module or a shifted
projective P_q[1].  The map here sends P_q[1] to the variable u_q and a
module M to

    X_M = sum_e chi(Gr_e(M)) prod_i u_i^(-<e, S_i> - <S_i, dim M - e>),

and the folding pi specializes every u_{v_i} to x1 and every u_{w_j} to
x2.  Folded characters land on the rank-2 recurrence, so each side checks
the other: `verify_folding` compares against `rank2.cluster_variable`,
`verify_exchange_relation` checks the multiplication triangles, and
`g_equivariance_check` the vertex-relabeling symmetry.

Shift bookkeeping walks the transjective component: one step down from
P_q[1] is the module P_q, further steps apply the inverse Coxeter
translate; one step up is I_q, further steps the forward translate.  In
finite types the walk wraps: a module with the dimension vector of an
injective is I_j = P_j[2] (one step below the shifted copy of P_j), and
dually on the way up.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Mapping

from .laurent import LaurentPolynomial, VariableContext
from .quiver import (  # GENERIC_DIM_BUDGET is re-exported for callers
    GENERIC_DIM_BUDGET,
    ModuleSpec,
    Quiver,
    chi_table,
    coxeter_translate,
    euler_matrix,
    kronecker_quiver,
)
from .rank2 import X_CONTEXT, ExchangeType, cluster_variable
from .report import FAIL, INCONCLUSIVE, PASS, CheckReport, Inconclusive


def _u_variables(Q: Quiver) -> VariableContext:
    return VariableContext(f"u_{q}" for q in Q.vertices)


def u_context(b: int, c: int) -> VariableContext:
    """Variables u_v1..u_vb, u_w1..u_wc of the unfolded character ring."""
    return _u_variables(kronecker_quiver(b, c))


def _class_of(vertex: str) -> str:
    return "v" if vertex.startswith("v") else "w"


@dataclass(frozen=True)
class CCObject:
    """Module or shifted projective in the cluster category of K_{b,c}.

    translate normalizes the position along the transjective component:
    tau^{-t} P on the preprojective side (t >= 0, so P itself is t = 0)
    and tau^{t-2} I on the preinjective side (t >= 2, so I itself is
    t = 2).  Shifted projectives sit between the two sides and carry no
    translate.
    """

    kind: str
    vertex: str | None = None
    dims: tuple[int, ...] | None = None
    translate: int = 0

    def __post_init__(self):
        if self.kind not in ("projective", "injective", "simple", "generic", "shifted"):
            raise ValueError(f"unknown object kind {self.kind!r}")
        if self.kind == "shifted":
            if self.translate != 0:
                raise ValueError("shifted projectives carry no translate")
            if self.vertex is None:
                raise ValueError("shifted projective requires a vertex")
        elif self.kind == "generic":
            if self.dims is None:
                raise ValueError("generic object requires a dimension vector")
        elif self.vertex is None:
            raise ValueError(f"{self.kind} object requires a vertex")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))

    def describe(self) -> str:
        if self.kind == "shifted":
            return f"P_{self.vertex}[1]"
        if self.kind == "projective":
            return f"P_{self.vertex}"
        if self.kind == "injective":
            return f"I_{self.vertex}"
        if self.kind == "simple":
            return f"S_{self.vertex}"
        if self.vertex is not None:
            base = (
                f"tau^-{self.translate} P_{self.vertex}"
                if self.translate < 2
                else f"tau^{self.translate - 2} I_{self.vertex}"
            )
            return f"{base} at dims {self.dims}"
        return f"generic module at dims {self.dims}"


def _module_spec(Q: Quiver, obj: CCObject) -> ModuleSpec:
    if obj.kind == "generic":
        return ModuleSpec(Q, "generic", dims=obj.dims)
    return ModuleSpec(Q, obj.kind, vertex=obj.vertex)


def _match(dims: tuple[int, ...], table: dict[str, tuple[int, ...]]) -> str | None:
    return next((q for q, d in table.items() if d == dims), None)


def _resolve(b: int, c: int, vertex: str, shift: int) -> CCObject:
    """Object P_vertex[shift], normalized to a module or a shifted projective."""
    Q = kronecker_quiver(b, c)
    Q.index(vertex)
    proj = dict(zip(Q.vertices, Q.path_counts))
    inj = dict(zip(Q.vertices, zip(*Q.path_counts)))
    # down from P_q[1] the walk enters at P_q (translate 0) and wraps at the
    # injectives; up, it enters at I_q (translate 2) and wraps at projectives
    if shift <= 0:
        count, offset, start, wrap, direction = 1 - shift, 0, proj, inj, "backward"
    else:
        count, offset, start, wrap, direction = shift - 1, 2, inj, proj, "forward"
    kind = "shifted"
    at: str | tuple[int, ...] = vertex
    anchor_vertex = vertex
    steps = 0
    for _ in range(count):
        if kind == "shifted":
            anchor_vertex, steps = at, 0
            kind, at = "module", start[at]
        else:
            hit = _match(at, wrap)
            if hit is not None:
                kind, at = "shifted", hit
            else:
                at = coxeter_translate(Q, at, direction)
                steps += 1
    if kind == "shifted":
        return CCObject("shifted", vertex=at)
    translate = steps + offset
    hit = _match(at, proj)
    if hit is not None:
        return CCObject("projective", vertex=hit, dims=at, translate=translate)
    hit = _match(at, inj)
    if hit is not None:
        return CCObject("injective", vertex=hit, dims=at, translate=translate)
    return CCObject("generic", vertex=anchor_vertex, dims=at, translate=translate)


def object_for_index(b: int, c: int, k: int) -> CCObject:
    """Cluster-category object whose folded character is the variable x_k.

    Odd k = 2m+1 lies on the v-orbit, even k = 2m+2 on the w-orbit; both
    resolve the representative P_{v_1}[m+1] or P_{w_1}[m+1].
    """
    if k % 2:
        m = (k - 1) // 2
        vertex = "v1"
    else:
        m = (k - 2) // 2
        vertex = "w1"
    return _resolve(b, c, vertex, m + 1)


def cc_from_spec(Q: Quiver, spec: ModuleSpec, seed: int = 0) -> LaurentPolynomial:
    """Character of the module described by spec, over the u-variables of Q."""
    table = chi_table(spec, seed=seed)
    d = spec.dimension_vector
    C = euler_matrix(Q)
    r = range(Q.n)
    # -(C^T e) - C (d - e) = -C d + (C - C^T) e, affine in e
    base = [-sum(C[i][k] * d[k] for k in r) for i in r]
    skew = [[C[i][k] - C[k][i] for k in r] for i in r]
    terms: dict[tuple[int, ...], int] = {}
    for e, chi in table.items():
        if chi == 0:
            continue
        exponents = tuple(b + sum(map(operator.mul, row, e)) for b, row in zip(base, skew))
        terms[exponents] = terms.get(exponents, 0) + chi
    return LaurentPolynomial(_u_variables(Q), terms)


def cc_polynomial(Q: Quiver, obj: CCObject, seed: int = 0) -> LaurentPolynomial:
    """Cluster character X of obj as a Laurent polynomial in the u-variables."""
    if obj.kind == "shifted":
        return LaurentPolynomial.variable(_u_variables(Q), f"u_{obj.vertex}")
    return cc_from_spec(Q, _module_spec(Q, obj), seed=seed)


def fold(p: LaurentPolynomial, b: int, c: int) -> LaurentPolynomial:
    """Specialize every u_{v_i} to x1 and every u_{w_j} to x2."""
    ctx = u_context(b, c)
    if p.context != ctx:
        raise ValueError(
            f"polynomial context {p.context.names} is not the u-context of K_{{{b},{c}}}"
        )
    x1 = LaurentPolynomial.variable(X_CONTEXT, "x1")
    x2 = LaurentPolynomial.variable(X_CONTEXT, "x2")
    images = {name: (x1 if name.startswith("u_v") else x2) for name in ctx.names}
    return p.specialize(X_CONTEXT, images)


def verify_folding(b: int, c: int, k: int, seed: int = 0) -> CheckReport:
    """Check fold(X_{object_for_index(k)}) against the recurrence value x_k."""
    t = ExchangeType(b, c)
    report = CheckReport(f"folding vs recurrence at (b,c)=({b},{c})")
    label = f"k={k}"
    # the character first: a cell it cannot resolve skips the recurrence
    try:
        obj = object_for_index(b, c, k)
        Q = kronecker_quiver(b, c)
        folded = fold(cc_polynomial(Q, obj, seed=seed), b, c)
    except Inconclusive as exc:
        report.add(label, INCONCLUSIVE, f"{type(exc).__name__}: {exc}")
        return report
    expected = cluster_variable(t, k)
    if folded == expected:
        report.add(label, PASS, f"{obj.describe()} folds to x_{k}")
    else:
        report.add(
            label,
            FAIL,
            f"fold(X_{{{obj.describe()}}}) = {folded} but the recurrence gives {expected}",
        )
    return report


def verify_exchange_relation(
    b: int,
    c: int,
    orbit_class: str,
    s: int,
    seed: int = 0,
) -> CheckReport:
    """Check the multiplication triangle at consecutive shifts of one orbit.

    class v: X_{P_v[s]} X_{P_v[s+1]} = prod_j X_{P_{w_j}[s]} + 1
    class w: X_{P_w[s]} X_{P_w[s+1]} = prod_i X_{P_{v_i}[s+1]} + 1
    """
    if orbit_class not in ("v", "w"):
        raise ValueError(f"orbit class must be 'v' or 'w', got {orbit_class!r}")
    Q = kronecker_quiver(b, c)
    report = CheckReport(f"exchange triangle at (b,c)=({b},{c})")
    label = f"class {orbit_class} s={s}"
    if orbit_class == "v":
        own, other, count, factor_shift = "v1", "w", c, s
    else:
        own, other, count, factor_shift = "w1", "v", b, s + 1
    try:
        first = cc_polynomial(Q, _resolve(b, c, own, s), seed=seed)
        second = cc_polynomial(Q, _resolve(b, c, own, s + 1), seed=seed)
        factors = [
            cc_polynomial(Q, _resolve(b, c, f"{other}{i}", factor_shift), seed=seed)
            for i in range(1, count + 1)
        ]
    except Inconclusive as exc:
        report.add(label, INCONCLUSIVE, f"{type(exc).__name__}: {exc}")
        return report
    left = first * second
    right = factors[0]
    for f in factors[1:]:
        right = right * f
    right = right + 1
    if left == right:
        report.add(label, PASS, "product equals the exchange sum")
    else:
        report.add(label, FAIL, f"LHS = {left} but RHS = {right}")
    return report


def _permuted_object(Q: Quiver, obj: CCObject, g: dict[str, str]) -> CCObject:
    if obj.kind == "shifted" or obj.dims is None:
        dims = None
    else:
        dims = [0] * Q.n
        for i, q in enumerate(Q.vertices):
            dims[Q.index(g[q])] = obj.dims[i]
        dims = tuple(dims)
    vertex = g[obj.vertex] if obj.vertex is not None else None
    return replace(obj, vertex=vertex, dims=dims)


def g_equivariance_check(
    Q: Quiver,
    obj: CCObject,
    g: Mapping[str, str],
    seed: int = 0,
) -> CheckReport:
    """Check permute_variables(X_obj, g) = X_{g.obj} for a vertex symmetry g.

    g is given on vertex names, possibly partially (missing vertices are
    fixed); every key must be a vertex of Q, and g must permute sources
    among themselves and sinks among themselves.
    """
    unknown = sorted(set(g) - set(Q.vertices))
    if unknown:
        raise ValueError(f"permutation relabels vertices not in the quiver: {unknown}")
    full = {q: g.get(q, q) for q in Q.vertices}
    for q, image in full.items():
        if image not in Q.vertices:
            raise ValueError(f"permutation image {image!r} is not a vertex")
        if _class_of(q) != _class_of(image):
            raise ValueError(f"permutation must preserve vertex classes: {q} -> {image}")
    if len(set(full.values())) != Q.n:
        raise ValueError("vertex permutation is not a bijection")
    report = CheckReport(f"equivariance under {g}")
    label = f"{obj.describe()} under {sorted(g.items())}"
    u_map = {f"u_{q}": f"u_{image}" for q, image in full.items()}
    try:
        lhs = cc_polynomial(Q, obj, seed=seed).permute_variables(u_map)
        rhs = cc_polynomial(Q, _permuted_object(Q, obj, full), seed=seed)
    except Inconclusive as exc:
        report.add(label, INCONCLUSIVE, f"{type(exc).__name__}: {exc}")
        return report
    if lhs == rhs:
        report.add(label, PASS, "character commutes with the relabeling")
    else:
        report.add(label, FAIL, f"permuted X = {lhs} but X of relabeled object = {rhs}")
    return report
