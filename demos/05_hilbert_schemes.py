"""
Hilbert schemes of points
=========================

For a surface with a C*-action and isolated fixed points (a toric surface
with b2 + 2 rays, say) the punctual Hilbert schemes have cell
decompositions whose counts come out of a single two-variable product
series.  The calculator exposes the raw coefficients and the assembled
tables.
"""

from lawson import cheah_series, evaluate, hilb_table, parse, rank_at

# Coefficient rows of the product series for b2 = 1 (the projective
# plane): the z^k t^d entry is the degree-k rank for d points.
series = cheah_series(1, 3)
for d in range(4):
    print(f"d={d}:", list(series.t_row(d)))

# One point gives back the surface itself.
print("hilb(1,1) equals the plane's table:",
      hilb_table(1, 1) == evaluate(parse("P(2)")).table)

# Two and three points on the plane.
two = hilb_table(1, 2)
print("hilb(1,2) even row:", [rank_at(two, 0, k) for k in range(0, 9, 2)])
three = hilb_table(1, 3)
print("hilb(1,3) middle rank at k=4:", rank_at(three, 0, 4))

# The table is constant down each column: the cycle dimension r never
# changes the rank inside the admissible range.
print("hilb(1,2) column k=4:",
      [rank_at(two, r, 4) for r in range(3)])

# A quadric surface has b2 = 2; the series sees only the Betti number.
print("hilb(2,2) even row:",
      [rank_at(hilb_table(2, 2), 0, k) for k in range(0, 9, 2)])
