"""Variety expressions: the abstract syntax the calculator evaluates.

An expression describes a variety compositionally, from atoms with known
tables (point, projective and affine space, the algebraic torus, split
quadrics and their singular-hypersurface cousins, cellular varieties, smooth
toric varieties given by cone counts, punctual Hilbert schemes of surfaces)
and from constructors that mirror the structure theorems (suspension,
products, cellular fiber bundles, fixed-component decompositions, symmetric
products).

This module is the node registry.  Each node class is declared once, with
:func:`_node`: its keyword, the syntactic shape of each of its fields, and
its attribute rule (the ``attributes`` method).  :data:`NODE_TYPES` maps the
keywords to the classes.  Everything else walks those declarations: the
parser in :mod:`lawson.dsl`, :func:`render` (its inverse), and
:func:`validate`, which either returns the derived
:class:`VarietyAttributes` or raises :class:`ValidationError`.  The table
rule of each class lives in ``lawson.engine._BUILD``.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, fields
from itertools import zip_longest
from typing import ClassVar, Optional

from .grading import Coefficients, binomial

Z = Coefficients.INTEGER
Q = Coefficients.RATIONAL

# Deep enough for every realistic tree, shallow enough that parsing,
# validation, evaluation and rendering stay well inside the interpreter's
# default recursion limit.
MAX_DEPTH = 200


class ValidationError(ValueError):
    """A structurally well-formed expression that violates a semantic rule."""


class Smoothness(enum.Enum):
    SMOOTH = "smooth"
    SIMPLICIAL = "simplicial"
    GENERAL = "general"


# Live nodes by class and field values: children by id, others by (type, value).
_LIVE: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Interned(type):
    def __call__(cls, *args, **kwargs):
        # Sequences are stored as tuples, so that they can key the live nodes.
        node, key = super().__call__(*args, **kwargs), [cls]
        for shape, field, value in _fields(node):
            if shape in ("natlist", "cells", "comps"):
                value = tuple(sorted(value) if shape == "cells" else value)
                object.__setattr__(node, field.name, value)
            key.append(id(value) if shape == "expr" else (type(value), value))
        return _LIVE.setdefault(tuple(key), node)


class VarietyExpr(metaclass=_Interned):
    """Base class for all variety expressions.

    ``syntax`` gives the shape of each dataclass field, in field order:
    ``nat``, ``natlist``, ``cells`` (a natlist kept sorted, as a multiset),
    ``expr`` (a subexpression), ``flag`` (an optional trailing
    :class:`Smoothness`) or ``comps`` (one or more :class:`FixedComponent`).
    ``attributes`` receives the attributes of the node's subexpressions, in
    order, and derives the node's own.  Equal nodes are one object, copies and
    pickles too, and each keeps what :func:`validate` derives for it.
    """

    keyword: ClassVar[str]
    syntax: ClassVar[tuple[str, ...]]

    def __reduce__(self):
        return type(self), tuple(value for _, _, value in _fields(self))

    def attributes(self, *children: VarietyAttributes) -> VarietyAttributes:
        raise NotImplementedError


NODE_TYPES: dict[str, type[VarietyExpr]] = {}


def _node(keyword: str, *syntax: str):
    """Declare a frozen dataclass node with its keyword and field shapes."""

    def declare(cls):
        cls = dataclass(frozen=True, eq=False)(cls)
        cls.keyword, cls.syntax = keyword, syntax
        NODE_TYPES[keyword] = cls
        return cls

    return declare


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


@_node("pt")
class Point(VarietyExpr):
    def attributes(self):
        return VarietyAttributes(0, True, Z, (1,), True)


@_node("P", "nat")
class ProjectiveSpace(VarietyExpr):
    n: int

    def attributes(self):
        _require(self.n >= 1, "projective space requires a positive dimension")
        return VarietyAttributes(self.n, True, Z, (1,) * (self.n + 1), True)


@_node("affine", "nat")
class AffineSpace(VarietyExpr):
    n: int

    def attributes(self):
        _require(self.n >= 1, "affine space requires a positive dimension")
        return VarietyAttributes(self.n, False, Z, (0,) * self.n + (1,), True)


@_node("torus", "nat")
class Torus(VarietyExpr):
    """The split algebraic torus (C*)^n, the basic non-proper atom."""

    n: int

    def attributes(self):
        _require(self.n >= 1, "the torus requires a positive dimension")
        return VarietyAttributes(self.n, False, Z, None, True)


@_node("quadric", "nat")
class SplitQuadric(VarietyExpr):
    """Smooth quadric of even complex dimension 2d, split over the base field."""

    d: int

    def attributes(self):
        _require(self.d >= 1, "the split quadric requires d >= 1")
        betti = tuple(2 if m == self.d else 1 for m in range(2 * self.d + 1))
        return VarietyAttributes(2 * self.d, True, Z, betti, False)


@_node("singquadric", "nat", "nat")
class SingularHypersurface(VarietyExpr):
    """Degree-m hypersurface of dimension 2d singular along a linear center;
    its table coincides with the split quadric of the same dimension."""

    m: int
    d: int

    def attributes(self):
        _require(self.m >= 2, "the hypersurface degree must exceed 1")
        _require(self.d >= 1, "the hypersurface requires d >= 1")
        # Same table as the split quadric, but no cell counts are claimed
        # for the singular model.
        return VarietyAttributes(2 * self.d, True, Z, None, False)


@_node("cellular", "cells")
class Cellular(VarietyExpr):
    """Proper variety with an algebraic cell decomposition, recorded as the
    multiset of cell dimensions."""

    cells: tuple[int, ...]

    def attributes(self):
        betti = cell_counts(self.cells)
        return VarietyAttributes(len(betti) - 1, True, Z, betti, False)


@_node("toric", "natlist", "flag")
class Toric(VarietyExpr):
    """Toric variety described by its cone counts d_0, ..., d_n."""

    cone_counts: tuple[int, ...]
    smoothness: Smoothness = Smoothness.SMOOTH

    def attributes(self):
        counts = check_cone_counts(self.cone_counts)
        n = len(counts) - 1
        if self.smoothness is Smoothness.SMOOTH:
            return VarietyAttributes(n, True, Z, tuple(smooth_toric_betti(counts)), True)
        rational = self.smoothness is Smoothness.SIMPLICIAL
        return VarietyAttributes(n, True, Q if rational else Z, None, True)


@_node("susp", "expr")
class Suspension(VarietyExpr):
    """Algebraic suspension: the Thom-space analogue joining with a point."""

    inner: VarietyExpr

    def attributes(self, inner):
        _require(inner.proper, "suspension requires a projective inner variety")
        betti = None if inner.betti is None else (1,) + inner.betti
        return VarietyAttributes(inner.dim + 1, True, inner.coefficients, betti, False)


@_node("prod", "expr", "expr")
class Product(VarietyExpr):
    left: VarietyExpr
    right: VarietyExpr

    def attributes(self, left, right):
        _require(
            left.betti is not None or right.betti is not None,
            "a product is supported only when at least one factor has a cell profile",
        )
        return VarietyAttributes(
            left.dim + right.dim,
            left.proper and right.proper,
            _common_ring((left, right)),
            None if None in (left.betti, right.betti) else convolve(left.betti, right.betti),
            left.toric and right.toric,
        )


@_node("bundle", "expr", "cells")
class CellularFiberBundle(VarietyExpr):
    """Zariski-locally trivial bundle with cellular fibers over any base."""

    base: VarietyExpr
    fiber_cells: tuple[int, ...]

    def attributes(self, base):
        fiber = cell_counts(self.fiber_cells)
        betti = None if base.betti is None else convolve(base.betti, fiber)
        dim = base.dim + len(fiber) - 1
        return VarietyAttributes(dim, base.proper, base.coefficients, betti, False)


@dataclass(frozen=True)
class FixedComponent:
    """One fixed component of a torus action, with its normal-weight shift."""

    component: VarietyExpr
    shift: int


@_node("decomp", "comps")
class Decomposition(VarietyExpr):
    """A variety presented through the fixed components of a C*-action."""

    components: tuple[FixedComponent, ...]

    def attributes(self, *parts):
        _require(len(parts) >= 1, "a decomposition needs at least one component")
        shifts = [fixed.shift for fixed in self.components]
        _require(min(shifts) >= 0, "component shifts must be nonnegative")
        _require(all(a.proper for a in parts), "decomposition components must be projective")
        dim = max(a.dim + s for a, s in zip(parts, shifts))
        betti = None
        if all(a.betti is not None for a in parts):
            shifted = [(0,) * s + a.betti for a, s in zip(parts, shifts)]
            betti = tuple(map(sum, zip_longest(*shifted, fillvalue=0)))
        return VarietyAttributes(dim, True, _common_ring(parts), betti, False)


@_node("sp", "expr", "nat")
class SymmetricProduct(VarietyExpr):
    inner: VarietyExpr
    d: int

    def attributes(self, inner):
        _require(self.d >= 1, "a symmetric product requires d >= 1")
        _require(
            inner.betti is not None,
            "a symmetric product requires an inner expression with a cell profile",
        )
        return VarietyAttributes(self.d * inner.dim, inner.proper, Q, None, False)


@_node("hilb", "nat", "nat")
class HilbertScheme(VarietyExpr):
    """Hilbert scheme of d points on a surface with middle Betti number b2,
    a C*-action and isolated fixed points, such as a toric surface with
    b2 + 2 rays."""

    b2: int
    d: int

    def attributes(self):
        _require(self.b2 >= 0, "the middle Betti number must be nonnegative")
        _require(self.d >= 1, "the Hilbert scheme requires d >= 1")
        return VarietyAttributes(2 * self.d, True, Z, None, False)


@dataclass(frozen=True)
class VarietyAttributes:
    """Facts validate() derives: dimension, properness, coefficient tag, the
    toric flag, and ``betti`` = (b_0, ..., b_dim), where b_m counts the
    m-cells, or None when no cell decomposition is licensed.  ``cell_profile``
    is the sorted multiset of cell dimensions, derived from ``betti`` on read."""

    dim: int
    proper: bool
    coefficients: Coefficients
    betti: Optional[tuple[int, ...]] = None
    toric: bool = False

    @property
    def cell_profile(self) -> Optional[tuple[int, ...]]:
        if self.betti is None:
            return None
        return tuple(m for m, b in enumerate(self.betti) for _ in range(b))


def check_cone_counts(cone_counts) -> tuple[int, ...]:
    """The cone counts as a tuple, once they pass the checks every fan
    meets: nonempty, nonnegative, and a unique zero cone."""
    counts = tuple(cone_counts)
    _require(len(counts) >= 1, "cone counts must be nonempty")
    _require(all(c >= 0 for c in counts), "cone counts must be nonnegative")
    _require(counts[0] == 1, "d_0 must be 1: the zero cone is unique")
    return counts


def smooth_toric_betti(cone_counts) -> list[int]:
    """Even Betti numbers of a smooth proper toric variety from its cone
    counts: b_{2m} = sum_{i=m}^{n} (-1)^(i-m) C(i, m) d_{n-i}.

    Rejects count vectors whose alternating sums go negative, since no fan
    realizes them.
    """
    counts = tuple(cone_counts)
    n = len(counts) - 1
    betti = []
    for m in range(n + 1):
        b = sum(
            (-1) ** (i - m) * binomial(i, m) * counts[n - i] for i in range(m, n + 1)
        )
        if b < 0:
            raise ValidationError(
                f"inconsistent cone counts: derived Betti number b_{2 * m} = {b}"
            )
        betti.append(b)
    return betti


def cell_counts(cells) -> tuple[int, ...]:
    """(b_0, ..., b_max), where b_m counts the m-cells, once the cell list
    passes the checks every one meets: nonempty and nonnegative."""
    cells = tuple(cells)
    _require(len(cells) >= 1, "a cell list must be nonempty")
    _require(min(cells) >= 0, "cell dimensions must be nonnegative")
    counts = [0] * (max(cells) + 1)
    for c in cells:
        counts[c] += 1
    return tuple(counts)


def convolve(a, b) -> tuple[int, ...]:
    """Cauchy product of two count vectors: the Betti numbers of a product."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _common_ring(parts) -> Coefficients:
    return Q if any(a.coefficients is Q for a in parts) else Z


def _fields(expr: VarietyExpr) -> list:
    """(shape, field, value) for each field of a node, in declaration order."""
    if not isinstance(expr, VarietyExpr):
        raise TypeError(f"not a variety expression: {expr!r}")
    return [(shape, f, getattr(expr, f.name)) for shape, f in zip(expr.syntax, fields(expr))]


def _children(expr: VarietyExpr) -> list[VarietyExpr]:
    out: list[VarietyExpr] = []
    for shape, _, value in _fields(expr):
        if shape == "expr":
            out.append(value)
        elif shape == "comps":
            out.extend(fixed.component for fixed in value)
    return out


def validate(expr: VarietyExpr) -> VarietyAttributes:
    """Check an expression against the semantic rules and derive its
    attributes, applying each node's attribute rule after its children's.

    Dimension, properness, and the coefficient tag are computed recursively;
    the coefficient tag is rational exactly when the expression contains a
    symmetric product or a simplicial toric description.  The Betti count
    vector is present when the constructions license a cell decomposition,
    and the toric flag marks expressions entirely built from torus-invariant
    atoms and products.  Each node keeps its attributes (``validated``) and
    its height (the nesting constructors on its longest path down) once they
    are derived.  Constructors with subexpressions may nest at most
    :data:`MAX_DEPTH` deep, counted as the parser counts them.
    """
    too_deep = f"constructors nest deeper than the bound {MAX_DEPTH}"

    def walk(node: VarietyExpr, depth: int) -> VarietyAttributes:
        if getattr(node, "validated", None) is None:
            children = _children(node)
            _require(not children or depth < MAX_DEPTH, too_deep)
            attributes = node.attributes(*[walk(child, depth + 1) for child in children])
            height = max((child.height for child in children), default=-1) + 1
            vars(node).update(validated=attributes, height=height)
        _require(depth + node.height <= MAX_DEPTH, too_deep)
        return node.validated

    return walk(expr, 0)


def render(expr: VarietyExpr) -> str:
    """Canonical textual form of an expression: parse(render(e)) == e."""

    def text(node: VarietyExpr) -> str:
        args = []
        for shape, field, value in _fields(node):
            if shape == "expr":
                args.append(text(value))
            elif shape == "comps":
                args.append(", ".join(f"{text(c.component)}:{c.shift}" for c in value))
            elif shape in ("natlist", "cells"):
                args.append("[" + ",".join(map(str, value)) + "]")
            elif shape != "flag" or value is not field.default:
                args.append(str(getattr(value, "value", value)))
        return f"{node.keyword}({','.join(args)})" if node.syntax else node.keyword

    return text(expr)
