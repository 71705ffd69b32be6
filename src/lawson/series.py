"""Truncated bivariate power series over the integers.

Two generating functions drive the non-recursive table constructors: the
Cheah product for punctual Hilbert schemes of surfaces, and the MacDonald
product for symmetric powers of cellular varieties.  Both live in Z[[z, t]]
and are only ever needed inside a finite truncation box, so a series here is
a sparse dict of exact integer coefficients keyed by (z_exponent,
t_exponent), together with the box bounds.  Coefficients outside the box are
unknown, not zero, and querying them is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence


@dataclass(frozen=True)
class TruncatedBiSeries:
    """Series truncated to 0 <= z-exponent <= max_z, 0 <= t-exponent <= max_t."""

    max_z: int
    max_t: int
    coefficients: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.max_z < 0 or self.max_t < 0:
            raise ValueError("truncation bounds must be nonnegative")
        cleaned: dict[tuple[int, int], int] = {}
        for (a, b), value in self.coefficients.items():
            if value == 0:
                continue
            if not (0 <= a <= self.max_z and 0 <= b <= self.max_t):
                raise ValueError(f"monomial {(a, b)} lies outside the truncation box")
            cleaned[(a, b)] = value
        object.__setattr__(self, "coefficients", MappingProxyType(cleaned))

    def coefficient(self, z_exp: int, t_exp: int) -> int:
        """Coefficient of z^z_exp t^t_exp; the monomial must lie in the box."""
        if not (0 <= z_exp <= self.max_z and 0 <= t_exp <= self.max_t):
            raise ValueError(
                f"monomial {(z_exp, t_exp)} lies outside the truncation box"
            )
        return self.coefficients.get((z_exp, t_exp), 0)

    def t_row(self, t_exp: int) -> tuple[int, ...]:
        """All z-coefficients of the given t-degree, z^0 through z^max_z."""
        return tuple(self.coefficient(a, t_exp) for a in range(self.max_z + 1))


def one(max_z: int, max_t: int) -> TruncatedBiSeries:
    """The constant series 1 in the given truncation box."""
    return TruncatedBiSeries(max_z, max_t, {(0, 0): 1})


def series_mul(a: TruncatedBiSeries, b: TruncatedBiSeries) -> TruncatedBiSeries:
    """Cauchy product of two series sharing one truncation box."""
    if (a.max_z, a.max_t) != (b.max_z, b.max_t):
        raise ValueError("cannot multiply series with mismatched truncation boxes")
    product: dict[tuple[int, int], int] = {}
    for (az, at), av in a.coefficients.items():
        for (bz, bt), bv in b.coefficients.items():
            z, t = az + bz, at + bt
            if z > a.max_z or t > a.max_t:
                continue
            key = (z, t)
            product[key] = product.get(key, 0) + av * bv
    return TruncatedBiSeries(a.max_z, a.max_t, product)


def geometric_factor(
    z_exp: int, t_exp: int, multiplicity: int, max_z: int, max_t: int
) -> TruncatedBiSeries:
    """Truncation of (1 - z^a t^b)^(-m): sum_j C(m-1+j, j) z^(aj) t^(bj).

    The t-exponent must be positive so that the expansion terminates inside
    the box.  Multiplicity 0 gives the constant series 1.
    """
    if t_exp < 1:
        raise ValueError("the t-exponent must be positive for the factor to truncate")
    if z_exp < 0:
        raise ValueError("the z-exponent must be nonnegative")
    if multiplicity < 0:
        raise ValueError("multiplicity must be nonnegative")
    coefficients: dict[tuple[int, int], int] = {}
    j, weight = 0, 1
    while z_exp * j <= max_z and t_exp * j <= max_t:
        coefficients[(z_exp * j, t_exp * j)] = weight
        j += 1
        weight = weight * (multiplicity - 1 + j) // j  # C(m-1+j, j) from C(m-2+j, j-1)
    return TruncatedBiSeries(max_z, max_t, coefficients)


def cheah_series(b2: int, max_d: int) -> TruncatedBiSeries:
    """Cheah's Hilbert-scheme product for a surface with middle Betti number b2.

    Expands prod_{k>=1} (1 - z^(2k-2) t^k)^(-1) (1 - z^(2k) t^k)^(-b2)
    (1 - z^(2k+2) t^k)^(-1) in the box max_z = 4*max_d, max_t = max_d.
    Factors with index k > max_d contribute nothing below t^(max_d + 1),
    so the product is finite.
    """
    if b2 < 0:
        raise ValueError("the middle Betti number must be nonnegative")
    if max_d < 1:
        raise ValueError("the truncation order must be at least 1")
    max_z = 4 * max_d
    result = one(max_z, max_d)
    for k in range(1, max_d + 1):
        for z_exp, multiplicity in ((2 * k - 2, 1), (2 * k, b2), (2 * k + 2, 1)):
            if multiplicity:
                factor = geometric_factor(z_exp, k, multiplicity, max_z, max_d)
                result = series_mul(result, factor)
    return result


def macdonald_series(even_betti: Sequence[int], max_d: int) -> TruncatedBiSeries:
    """MacDonald's symmetric-power product for a space with homology
    concentrated in even degrees: prod_i (1 - z^(2i) t)^(-b_{2i}).

    ``even_betti`` lists b_0, b_2, ..., b_{2n}: nonnegative, not all zero.
    b_0 may be zero, since every factor has t-exponent 1 and the product
    still truncates.  The box is max_z = 2*max_d*n, max_t = max_d.
    """
    betti = list(even_betti)
    if not betti:
        raise ValueError("the Betti list must be nonempty")
    if any(b < 0 for b in betti):
        raise ValueError("Betti numbers must be nonnegative")
    if not any(betti):
        raise ValueError("at least one Betti number must be positive")
    if max_d < 1:
        raise ValueError("the truncation order must be at least 1")
    max_z = 2 * max_d * (len(betti) - 1)
    result = one(max_z, max_d)
    for i, multiplicity in enumerate(betti):
        if multiplicity:
            factor = geometric_factor(2 * i, 1, multiplicity, max_z, max_d)
            result = series_mul(result, factor)
    return result
