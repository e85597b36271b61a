"""Exact Laurent polynomial arithmetic over the integers.

Polynomials live in Z[z_1^{,-1}, ..., z_n^{,-1}] for a fixed ordered tuple
of variable names (the context).  Values are immutable and canonical: no
stored coefficient is zero, and equality is structural.  Coefficients are
arbitrary-precision ints; along the exchange recurrence they grow far past
machine words, so nothing here ever rounds.

The sparse dict algorithms here are the reference semantics for every
ring operation.  The one hot operation of the recurrence, the exchange
step (x_k^e + 1) / x_{k-1}, is not one of them: it runs only as the
certified packed kernel in ``_packed``, called by ``rank2``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence


@dataclass(frozen=True)
class VariableContext:
    """Ordered tuple of distinct variable names fixing the ambient ring."""

    names: tuple[str, ...]

    def __init__(self, names: Iterable[str]):
        object.__setattr__(self, "names", tuple(names))
        if not self.names:
            raise ValueError("a variable context needs at least one name")
        if any(not isinstance(name, str) or not name for name in self.names):
            raise ValueError("variable names must be nonempty strings")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"variable names must be distinct: {self.names}")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None


class LaurentPolynomial:
    """Immutable Laurent polynomial in canonical sparse form.

    Construct via the classmethods (``variable``, ``monomial``, ...) or by
    passing an exponent-tuple -> coefficient mapping; zero coefficients are
    stripped.  Arithmetic is exact; operands must share a context.
    """

    __slots__ = ("context", "_terms")

    def __init__(self, context: VariableContext, terms: Mapping[tuple[int, ...], int] | None = None):
        if not isinstance(context, VariableContext):
            raise TypeError("context must be a VariableContext")
        clean: dict[tuple[int, ...], int] = {}
        n = context.arity
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != n:
                raise ValueError(f"exponent vector {e} has arity {len(e)}, context has {n}")
            if any(not isinstance(x, int) for x in e):
                raise ValueError(f"exponents must be integers: {e}")
            if not isinstance(c, int):
                raise TypeError(f"coefficient for {e} must be int, got {type(c).__name__}")
            if c:
                if e in clean:
                    raise ValueError(f"duplicate exponent vector {e}")
                # plain ints, so a bool or an int subclass prints as a number
                clean[tuple(map(int, e))] = int(c)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def _raw(cls, context: VariableContext, terms: dict[tuple[int, ...], int]) -> "LaurentPolynomial":
        # Internal constructor trusting canonical input; `terms` must never
        # be mutated afterwards (results may share it).
        self = object.__new__(cls)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_terms", terms)
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, context: VariableContext) -> "LaurentPolynomial":
        return cls._raw(context, {})

    @classmethod
    def constant(cls, context: VariableContext, value: int) -> "LaurentPolynomial":
        if not isinstance(value, int):
            raise TypeError("constant value must be int")
        if value == 0:
            return cls.zero(context)
        return cls._raw(context, {(0,) * context.arity: int(value)})

    @classmethod
    def one(cls, context: VariableContext) -> "LaurentPolynomial":
        return cls.constant(context, 1)

    @classmethod
    def monomial(cls, context: VariableContext, exponents: Sequence[int], coefficient: int = 1) -> "LaurentPolynomial":
        return cls(context, {tuple(exponents): coefficient})

    @classmethod
    def variable(cls, context: VariableContext, name: str) -> "LaurentPolynomial":
        i = context.index(name)
        e = [0] * context.arity
        e[i] = 1
        return cls._raw(context, {tuple(e): 1})

    # ------------------------------------------------------------------
    # basic structure

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.context == other.context and self._terms == other._terms

    __hash__ = None  # mutable-dict storage; structural equality only

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self.context.names}, {self})"

    # ------------------------------------------------------------------
    # ring operations

    def _coerce(self, other) -> "LaurentPolynomial | None":
        if isinstance(other, LaurentPolynomial):
            if other.context != self.context:
                raise ValueError(
                    f"context mismatch: {self.context.names} vs {other.context.names}"
                )
            return other
        if isinstance(other, int):
            return LaurentPolynomial.constant(self.context, other)
        return None

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPolynomial._raw(self.context, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._raw(self.context, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return LaurentPolynomial.zero(self.context)
        if len(a) == 1:
            return other._shift_scale(next(iter(a.items())))
        if len(b) == 1:
            return self._shift_scale(next(iter(b.items())))
        out: dict[tuple[int, ...], int] = {}
        n = self.context.arity
        for e, c in a.items():
            for f, d in b.items():
                g = tuple(e[i] + f[i] for i in range(n))
                s = out.get(g, 0) + c * d
                if s:
                    out[g] = s
                else:
                    del out[g]
        return LaurentPolynomial._raw(self.context, out)

    __rmul__ = __mul__

    def _shift_scale(self, term: tuple[tuple[int, ...], int]) -> "LaurentPolynomial":
        e0, c0 = term
        n = self.context.arity
        out = {
            tuple(e[i] + e0[i] for i in range(n)): c * c0
            for e, c in self._terms.items()
        }
        return LaurentPolynomial._raw(self.context, out)

    # ------------------------------------------------------------------
    # structural operations

    def specialize(
        self,
        target: VariableContext,
        images: Mapping[str, "LaurentPolynomial"],
    ) -> "LaurentPolynomial":
        """Ring-homomorphic substitution into `target`.

        Every variable that actually occurs in `self` must be mapped to a
        single Laurent monomial with coefficient 1 or -1 over `target`;
        unused variables may be omitted from `images`.
        """
        if not isinstance(target, VariableContext):
            raise TypeError("target must be a VariableContext")
        n = self.context.arity
        used = [i for i in range(n) if any(e[i] for e in self._terms)]
        table: dict[int, tuple[tuple[int, ...], int]] = {}
        for i in used:
            name = self.context.names[i]
            img = images.get(name)
            if img is None:
                raise KeyError(f"no image provided for used variable {name!r}")
            if not isinstance(img, LaurentPolynomial) or img.context != target:
                raise ValueError(f"image of {name!r} must live in the target context")
            if len(img._terms) != 1:
                raise ValueError(f"image of {name!r} must be a single monomial")
            (me, mc), = img._terms.items()
            if mc not in (1, -1):
                raise ValueError(f"image of {name!r} must have unit coefficient, got {mc}")
            table[i] = (me, mc)
        nt = target.arity
        out: dict[tuple[int, ...], int] = {}
        for e, c in self._terms.items():
            acc = [0] * nt
            sign = 1
            for i in used:
                k = e[i]
                if not k:
                    continue
                me, mc = table[i]
                for j in range(nt):
                    acc[j] += k * me[j]
                if mc == -1 and k % 2:
                    sign = -sign
            key = tuple(acc)
            s = out.get(key, 0) + sign * c
            if s:
                out[key] = s
            else:
                del out[key]
        return LaurentPolynomial._raw(target, out)

    def permute_variables(self, mapping: Mapping[str, str]) -> "LaurentPolynomial":
        """Reindex exponents by a permutation of the context's names.

        `mapping` may be partial; missing names are fixed.  The completed
        map must be a bijection of the context onto itself.
        """
        names = self.context.names
        perm = {name: mapping.get(name, name) for name in names}
        extraneous = set(mapping) - set(names)
        if extraneous:
            raise ValueError(f"not variables of this context: {sorted(extraneous)}")
        if set(perm.values()) != set(names):
            raise ValueError("mapping is not a bijection of the context")
        # position i sends its exponent to the position of perm[names[i]], so
        # position j of the result reads the exponent at position src[j]
        src = [0] * len(names)
        for i, name in enumerate(names):
            src[self.context.index(perm[name])] = i
        if src == list(range(len(src))):
            # the identity; this covers every 1-variable context, where
            # itemgetter would return a scalar instead of a tuple
            return self
        reindex = itemgetter(*src)
        return LaurentPolynomial._raw(
            self.context, {reindex(e): c for e, c in self._terms.items()}
        )

    def is_positive(self) -> bool:
        """True iff every stored coefficient is > 0 (vacuously true for 0)."""
        return all(c > 0 for c in self._terms.values())

    def min_exponents(self) -> tuple[int, ...]:
        """Entry i is the minimum exponent of variable i over all terms.

        The zero polynomial has no terms and raises ValueError.
        """
        if not self._terms:
            raise ValueError("the zero polynomial has no denominator")
        return tuple(min(column) for column in zip(*self._terms))

    def denominator_exponents(self) -> tuple[int, ...]:
        """Exponent vector of the monomial denominator in N / monomial form.

        Entry i is max(0, -(minimum exponent of variable i)); the zero
        polynomial has no such form and raises ValueError.
        """
        return tuple(max(0, -e) for e in self.min_exponents())

    def evaluate(self, point) -> Fraction:
        """Exact value at a point with all coordinates nonzero.

        `point` is either a mapping from variable names or a sequence in
        context order; entries may be ints, Fractions, or anything Fraction
        accepts exactly.
        """
        names = self.context.names
        if isinstance(point, Mapping):
            missing = [name for name in names if name not in point]
            if missing:
                raise KeyError(f"point missing variables {missing}")
            values = [Fraction(point[name]) for name in names]
        else:
            values = [Fraction(v) for v in point]
            if len(values) != len(names):
                raise ValueError("point length does not match context arity")
        if any(v == 0 for v in values):
            raise ZeroDivisionError("evaluation point must have nonzero coordinates")
        total = Fraction(0)
        for e, c in self._terms.items():
            term = Fraction(c)
            for v, k in zip(values, e):
                if k:
                    term *= v ** k
            total += term
        return total

    # ------------------------------------------------------------------
    # presentation

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        den = self.denominator_exponents()
        shifted = self._shift_scale((den, 1)) if any(den) else self
        num = shifted._format_polynomial()
        if not any(den):
            return num
        den_str = self._format_monomial(den)
        if len(shifted._terms) > 1:
            num = f"({num})"
        if "*" in den_str:
            den_str = f"({den_str})"
        return f"{num} / {den_str}"

    def _format_monomial(self, e: tuple[int, ...]) -> str:
        parts = []
        for name, k in zip(self.context.names, e):
            if k == 1:
                parts.append(name)
            elif k:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def _format_polynomial(self) -> str:
        # ascending colex order: compare exponent tuples reversed, so for
        # two variables all x1 powers come before the first x2 power
        items = sorted(self._terms.items(), key=lambda kv: kv[0][::-1])
        chunks: list[str] = []
        for e, c in items:
            mono = self._format_monomial(e)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        """Schema: variables list plus lex-sorted terms with string coefficients."""
        return {
            "variables": list(self.context.names),
            "terms": [
                {"exponents": list(e), "coefficient": str(self._terms[e])}
                for e in sorted(self._terms)
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True)``, written directly.

        The text is built without the intermediate dicts.
        """
        # ints print as JSON; names go through json for their escapes
        terms = ", ".join(
            f'{{"coefficient": "{self._terms[e]}", "exponents": [{", ".join(map(str, e))}]}}'
            for e in sorted(self._terms)
        )
        names = ", ".join(map(json.dumps, self.context.names))
        return f'{{"terms": [{terms}], "variables": [{names}]}}'

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPolynomial":
        context = VariableContext(data["variables"])
        terms: dict[tuple[int, ...], int] = {}
        for entry in data["terms"]:
            e = tuple(int(x) for x in entry["exponents"])
            c = int(entry["coefficient"])
            if e in terms:
                raise ValueError(f"duplicate exponent vector {e} in serialized terms")
            terms[e] = c
        return cls(context, terms)
