"""Seeded query generators for the three benchmark workloads.

Expressions are the benchmark's own nested tuples, tagged by constructor:
``("pt",)``, ``("P", n)``, ``("affine", n)``, ``("torus", n)``,
``("quadric", d)``, ``("singquadric", m, d)``, ``("cellular", cells)``,
``("toric", counts, smoothness, betti)``, ``("susp", x)``, ``("prod", x, y)``,
``("bundle", x, cells)``, ``("decomp", ((x, shift), ...))``, ``("sp", x, d)``
and ``("hilb", b2, d)``.  ``betti`` is worked out from the fan family the
generator drew (never from the cone counts), so the reference stays
independent of the program's own Betti formula.

A workload is an endless stream of *rounds*.  Every round has the same mix of
query classes with freshly drawn parameters, so runs of different seeds and
lengths load the layers in the same proportions.  Round ``i`` is drawn from
``random.Random(f"{workload}:{seed}:{i}")`` and the seed's size sequences (see
``round_queries``), so any process can regenerate any round without replaying
the ones before it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("transport_nested", "series_box", "cli_mixed")
CHECK_SUITES = ("all", "torus", "toric", "quadric", "hilb", "sp", "suspension")


@dataclass(frozen=True)
class Query:
    """One query.  In-process workloads run ``evaluate(parse(text))``; the CLI
    workload runs ``lawson *argv``.  ``expect`` says what a correct answer is:
    ``("table", expr)``, ``("chi_all", expr)``, ``("chi_p", expr, p)``,
    ``("chow", expr, r, m)``, ``("series_hilb", b2, d)``,
    ``("series_sp", cells, d)``, ``("check",)`` or ``("reject", exit_code)``.
    """

    cls: str
    text: str
    expect: tuple
    argv: tuple[str, ...] = ()
    fmt: str = "plain"


# ---------------------------------------------------------------------------
# rendering and attributes


def _natlist(values) -> str:
    return "[" + ",".join(str(v) for v in values) + "]"


def render(e: tuple) -> str:
    """Source text in the calculator's grammar."""
    tag = e[0]
    if tag == "pt":
        return "pt"
    if tag in ("P", "affine", "torus", "quadric"):
        return f"{tag}({e[1]})"
    if tag == "singquadric":
        return f"singquadric({e[1]},{e[2]})"
    if tag == "cellular":
        return f"cellular({_natlist(e[1])})"
    if tag == "toric":
        flag = "" if e[2] == "smooth" else "," + e[2]
        return f"toric({_natlist(e[1])}{flag})"
    if tag == "susp":
        return f"susp({render(e[1])})"
    if tag == "prod":
        return f"prod({render(e[1])},{render(e[2])})"
    if tag == "bundle":
        return f"bundle({render(e[1])},{_natlist(e[2])})"
    if tag == "decomp":
        return "decomp(" + ",".join(f"{render(x)}:{s}" for x, s in e[1]) + ")"
    if tag == "sp":
        return f"sp({render(e[1])},{e[2]})"
    if tag == "hilb":
        return f"hilb({e[1]},{e[2]})"
    raise ValueError(f"unknown tag {tag!r}")


@dataclass(frozen=True)
class Attrs:
    """dim, properness, rational tag, cell-count vector (index = cell
    dimension) when the expression licenses one, and the toric flag."""

    dim: int
    proper: bool
    rational: bool
    profile: Optional[tuple[int, ...]]
    toric: bool


def counts_of(cells) -> tuple[int, ...]:
    out = [0] * (max(cells) + 1)
    for c in cells:
        out[c] += 1
    return tuple(out)


def convolve(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def shifted_sum(parts) -> tuple[int, ...]:
    """Sum of count vectors, each shifted up by its weight."""
    out = [0] * max(len(c) + s for c, s in parts)
    for c, s in parts:
        for i, x in enumerate(c):
            out[i + s] += x
    return tuple(out)


def attrs(e: tuple, memo: Optional[dict] = None) -> Attrs:
    """Attributes by the benchmark's own profile arithmetic.  Raises
    ValueError where the calculator must reject the expression."""
    if memo is None:
        memo = {}
    key = id(e)
    if key in memo:
        return memo[key][1]
    a = _attrs(e, memo)
    memo[key] = (e, a)  # keep e alive so its id stays unique
    return a


def _attrs(e: tuple, memo: dict) -> Attrs:
    tag = e[0]
    if tag == "pt":
        return Attrs(0, True, False, (1,), True)
    if tag == "P":
        _need(e[1] >= 1)
        return Attrs(e[1], True, False, (1,) * (e[1] + 1), True)
    if tag == "affine":
        _need(e[1] >= 1)
        return Attrs(e[1], False, False, (0,) * e[1] + (1,), True)
    if tag == "torus":
        _need(e[1] >= 1)
        return Attrs(e[1], False, False, None, True)
    if tag == "quadric":
        _need(e[1] >= 1)
        return Attrs(2 * e[1], True, False, quadric_counts(e[1]), False)
    if tag == "singquadric":
        _need(e[1] >= 2 and e[2] >= 1)
        return Attrs(2 * e[2], True, False, None, False)
    if tag == "cellular":
        return Attrs(max(e[1]), True, False, counts_of(e[1]), False)
    if tag == "toric":
        counts, smoothness, betti = e[1], e[2], e[3]
        _need(counts[0] == 1)
        n = len(counts) - 1
        if smoothness == "smooth":
            return Attrs(n, True, False, tuple(betti), True)
        return Attrs(n, True, smoothness == "simplicial", None, True)
    if tag == "susp":
        x = attrs(e[1], memo)
        _need(x.proper)
        profile = None if x.profile is None else (1,) + x.profile
        return Attrs(x.dim + 1, True, x.rational, profile, False)
    if tag == "prod":
        x, y = attrs(e[1], memo), attrs(e[2], memo)
        _need(x.profile is not None or y.profile is not None)
        profile = None
        if x.profile is not None and y.profile is not None:
            profile = convolve(x.profile, y.profile)
        return Attrs(x.dim + y.dim, x.proper and y.proper,
                     x.rational or y.rational, profile, x.toric and y.toric)
    if tag == "bundle":
        x = attrs(e[1], memo)
        profile = None
        if x.profile is not None:
            profile = convolve(x.profile, counts_of(e[2]))
        return Attrs(x.dim + max(e[2]), x.proper, x.rational, profile, False)
    if tag == "decomp":
        parts = [(attrs(x, memo), s) for x, s in e[1]]
        _need(all(a.proper for a, _ in parts))
        profile = None
        if all(a.profile is not None for a, _ in parts):
            profile = shifted_sum([(a.profile, s) for a, s in parts])
        return Attrs(max(a.dim + s for a, s in parts), True,
                     any(a.rational for a, _ in parts), profile, False)
    if tag == "sp":
        x = attrs(e[1], memo)
        _need(x.profile is not None and e[2] >= 1)
        return Attrs(e[2] * x.dim, x.proper, True, None, False)
    if tag == "hilb":
        _need(e[2] >= 1)
        return Attrs(2 * e[2], True, False, None, False)
    raise ValueError(f"unknown tag {tag!r}")


def _need(condition: bool) -> None:
    if not condition:
        raise ValueError("the calculator rejects this expression")


def quadric_counts(d: int) -> tuple[int, ...]:
    return tuple(2 if m == d else 1 for m in range(2 * d + 1))


def has_table(e: tuple) -> bool:
    """Whether ``eval`` must answer with a table (rather than exit 2 or 3)."""
    try:
        attrs(e)
    except ValueError:
        return False
    return not _integral_rule_on_rational(e) and not _nonsmooth_toric(e)


def _nonsmooth_toric(e: tuple) -> bool:
    if e[0] == "toric":
        return e[2] != "smooth"
    return any(_nonsmooth_toric(x) for x in subexprs(e))


def _integral_rule_on_rational(e: tuple) -> bool:
    # Suspension and decomposition are stated for integer coefficients only.
    if e[0] == "susp" and attrs(e[1]).rational:
        return True
    if e[0] == "decomp" and any(attrs(x).rational for x, _ in e[1]):
        return True
    return any(_integral_rule_on_rational(x) for x in subexprs(e))


def subexprs(e: tuple) -> list[tuple]:
    """Direct child expressions."""
    tag = e[0]
    if tag in ("susp", "bundle", "sp"):
        return [e[1]]
    if tag == "prod":
        return [e[1], e[2]]
    if tag == "decomp":
        return [x for x, _ in e[1]]
    return []


def query_expr(q: Query) -> Optional[tuple]:
    """The expression a query evaluates, if the benchmark generated one."""
    if q.expect[0] in ("table", "chi_all", "chi_p", "chow"):
        return q.expect[1]
    return None


def distinct_nodes(e: tuple) -> int:
    """Number of distinct subexpressions, the work a memoizing evaluator does."""
    seen: set = set()
    stack = [e]
    visited_ids: set = set()
    while stack:
        x = stack.pop()
        if id(x) in visited_ids:
            continue
        visited_ids.add(id(x))
        seen.add(x)
        stack.extend(subexprs(x))
    return len(seen)


# ---------------------------------------------------------------------------
# atoms


def toric_smooth(rng: random.Random, max_dim: int = 4) -> tuple:
    """A realizable smooth fan: a product of projective spaces, or P^2 blown
    up at torus-fixed points (cone counts (1, m, m), Betti (1, m-2, 1))."""
    if max_dim >= 2 and rng.random() < 0.4:
        m = rng.randint(3, 9)
        return ("toric", (1, m, m), "smooth", (1, m - 2, 1))
    counts: tuple[int, ...] = (1,)
    betti: tuple[int, ...] = (1,)
    while True:
        a = rng.randint(1, 2)
        if len(counts) - 1 + a > max_dim:
            break
        counts = convolve(counts, tuple(math.comb(a + 1, i) for i in range(a + 1)))
        betti = convolve(betti, (1,) * (a + 1))
        if rng.random() < 0.5:
            break
    if len(counts) == 1:
        counts, betti = (1, 2), (1, 1)
    return ("toric", counts, "smooth", betti)


def cells(rng: random.Random, top: int, count: int) -> tuple[int, ...]:
    return tuple(sorted(rng.randint(0, top) for _ in range(count)))


def profiled_atom(rng: random.Random) -> tuple:
    """Small proper atom with a cell profile, the leaf of transport trees."""
    u = rng.random()
    if u < 0.15:
        return ("pt",)
    if u < 0.45:
        return ("P", rng.randint(1, 6))
    if u < 0.6:
        return ("quadric", rng.randint(1, 3))
    if u < 0.85:
        return ("cellular", cells(rng, 4, rng.randint(1, 6)))
    return toric_smooth(rng)


# ---------------------------------------------------------------------------
# transport_nested


def chain(rng: random.Random, dim: int, base: tuple, shares: int,
          susp_share: float, cell_cap: int = 300) -> tuple:
    """Wrap ``base`` in transport constructors, mostly ``susp``, until the
    table dimension reaches ``dim``; the dimension, not the nesting depth,
    sets what the query costs.  At most ``shares`` levels reuse the current
    subtree twice (``decomp(X:0, X:s)`` or ``prod(X, X)``)."""
    memo: dict = {}
    x = base
    while (a := attrs(x, memo)).dim < dim:
        u = rng.random()
        ncells = sum(a.profile)
        if u < susp_share:
            y = ("susp", x)
        elif u < susp_share + (1 - susp_share) * 0.3 and ncells * 3 <= cell_cap:
            y = ("bundle", x, rng.choice(((0, 1), (0, 2), (0, 1, 1))))
        elif u < susp_share + (1 - susp_share) * 0.55 and ncells * 3 <= cell_cap:
            y = ("prod", x, rng.choice((("pt",), ("P", 1), ("P", 2))))
        elif shares and ncells * 2 <= cell_cap:
            shares -= 1
            if ncells * ncells <= cell_cap and rng.random() < 0.5:
                y = ("prod", x, x)
            else:
                y = ("decomp", ((x, 0), (x, rng.randint(1, 2))))
        else:
            y = ("decomp", ((x, 0), (("pt",), a.dim + 1)))
        x = y if attrs(y, memo).dim <= dim else ("susp", x)
    return x


def transport_round(rng: random.Random, pick, index: int) -> list[Query]:
    # Fifteen queries: five cheap ones, five "mixed" trees of one narrow
    # size in the middle of the cost order (so the median latency falls
    # inside one class), and five costly ones.
    plan = [
        ("deep", chain(rng, pick("deep", 128, 132), profiled_atom(rng), 0, 0.93)),
        ("mid", chain(rng, pick("mid", 65, 80), profiled_atom(rng), 1, 0.8)),
    ]
    for i in range(5):
        plan.append(("mixed", chain(rng, pick(f"mixed{i}", 25, 35), profiled_atom(rng), 0, 0.6)))
    for i in range(3):
        plan.append(("small", chain(rng, pick(f"small{i}", 8, 15), profiled_atom(rng), 1, 0.5)))
    inner = chain(rng, pick("inner", 4, 8), profiled_atom(rng), 0, 0.6, cell_cap=20)
    plan.append(("shared_prod",
                 chain(rng, pick("shared_prod", 30, 50), ("prod", inner, inner), 0, 0.8)))
    shared = chain(rng, pick("shared_decomp", 25, 40), profiled_atom(rng), 0, 0.8)
    plan.append(("shared_decomp", ("decomp", ((shared, 0), (shared, rng.randint(1, 3)),
                                              (profiled_atom(rng), rng.randint(0, 4))))))
    kind = index % 3  # round 0 holds torus(300), the largest table in memory
    if kind == 0:
        plan.append(("flat_large", ("torus", pick("flat_large", 260, 300))))
    elif kind == 1:
        plan.append(("flat_large", ("P", pick("flat_large", 260, 300))))
    else:
        plan.append(("flat_large", ("quadric", pick("flat_large", 130, 150))))
    plan.append(("flat", ("P", pick("flat_P", 60, 150))))
    plan.append(("flat", ("quadric", pick("flat_quadric", 30, 75))))
    queries = [Query(c, render(e), ("table", e)) for c, e in plan]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# series_box


def _sp_inner(rng: random.Random, kind: str, size: int) -> tuple:
    """Small profiled X for sp(X, d); ``size`` runs from 0 to 3."""
    if kind == "P":
        return ("P", 2 + size)
    if kind == "quadric":
        return ("quadric", 1 + size // 2)
    return ("cellular", tuple(sorted((0, 3) + cells(rng, 3, size))))


def series_round(rng: random.Random, pick, index: int) -> list[Query]:
    def hilb(label: str, lo: int, hi: int) -> tuple:
        return ("hilb", pick(label + ".b2", 0, 24), pick(label + ".d", lo, hi))

    def sp(label: str, kind: str, lo: int, hi: int) -> tuple:
        return ("sp", _sp_inner(rng, kind, pick(label + ".size", 0, 3)), pick(label, lo, hi))

    # Eleven queries, and the three hilb_small ones sit in the middle of the
    # cost order, so the median latency falls inside one narrow class.
    kinds = ("P", "quadric", "cellular")
    plan = [
        ("hilb_large", hilb("hilb_large", 39, 40)),
        ("hilb_mid", hilb("hilb_mid", 20, 30)),
        ("hilb_small", hilb("hilb_small0", 10, 14)),
        ("hilb_small", hilb("hilb_small1", 10, 14)),
        ("hilb_small", hilb("hilb_small2", 10, 14)),
        ("sp_P", sp("sp_P", "P", 25, 40)),
        ("sp_quadric", sp("sp_quadric", "quadric", 20, 40)),
        ("sp_cellular", sp("sp_cellular0", "cellular", 20, 40)),
        ("sp_cellular", sp("sp_cellular1", "cellular", 20, 40)),
        ("sp_small", sp("sp_small0", kinds[index % 3], 5, 15)),
        ("sp_small", sp("sp_small1", kinds[(index + 1) % 3], 5, 15)),
    ]
    queries = [Query(c, render(e), ("table", e)) for c, e in plan]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# cli_mixed


def small_atom(rng: random.Random) -> tuple:
    u = rng.random()
    if u < 0.1:
        return ("pt",)
    if u < 0.3:
        return ("P", rng.randint(1, 4))
    if u < 0.4:
        return ("affine", rng.randint(1, 3))
    if u < 0.55:
        return ("torus", rng.randint(1, 3))
    if u < 0.65:
        return ("quadric", rng.randint(1, 2))
    if u < 0.7:
        return ("singquadric", rng.randint(2, 3), rng.randint(1, 2))
    if u < 0.8:
        return ("cellular", cells(rng, 3, rng.randint(1, 4)))
    if u < 0.9:
        return toric_smooth(rng, 3)
    return ("hilb", rng.randint(0, 3), rng.randint(1, 2))


def small_expr(rng: random.Random, depth: int) -> tuple:
    """A small expression that ``eval`` answers with a table."""
    if depth == 0 or rng.random() < 0.3:
        return small_atom(rng)
    x = small_expr(rng, depth - 1)
    op = rng.choice(("susp", "prod", "bundle", "decomp", "sp"))
    if op == "susp":
        e = ("susp", x)
    elif op == "prod":
        e = ("prod", x, small_expr(rng, depth - 1))
    elif op == "bundle":
        e = ("bundle", x, cells(rng, 2, rng.randint(1, 3)))
    elif op == "decomp":
        e = ("decomp", ((x, rng.randint(0, 2)), (small_expr(rng, depth - 1), rng.randint(0, 2))))
    else:
        e = ("sp", x, rng.randint(1, 3))
    if has_table(e) and attrs(e).dim <= 10:
        return e
    return x


def toric_chow_expr(rng: random.Random) -> tuple:
    """Small expression built only from torus-invariant atoms."""
    atoms = (lambda: ("P", rng.randint(1, 3)), lambda: ("torus", rng.randint(1, 3)),
             lambda: ("affine", rng.randint(1, 2)), lambda: toric_smooth(rng, 3),
             lambda: ("pt",))
    x = rng.choice(atoms)()
    if rng.random() < 0.5:
        y = rng.choice(atoms)()
        if attrs(x).profile is not None or attrs(y).profile is not None:
            x = ("prod", x, y)
    return x


def toric_any(rng: random.Random) -> tuple:
    e = toric_smooth(rng, 4)
    flag = rng.choice(("smooth", "simplicial", "general"))
    return ("toric", e[1], flag, e[3] if flag == "smooth" else None)


REJECTIONS = {
    1: (("eval", "P("), ("eval", "proj(2)"), ("eval", "prod(pt)"),
        ("eval", "P(2000000)"), ("chi", "P(2)"), ("eval", "P(2)", "--format", "xml"),
        ("chow", "torus(2)", "--r", "x", "--m", "0")),
    2: (("eval", "P(0)"), ("eval", "susp(torus(2))"), ("eval", "toric([2,3,3])"),
        ("eval", "prod(torus(1),torus(1))"), ("eval", "sp(torus(2),2)"),
        ("chi", "P(2)", "--p", "5"), ("chow", "P(2)", "--r", "-1", "--m", "0")),
    3: (("eval", "toric([1,3,3],simplicial)"), ("chow", "quadric(1)", "--r", "0", "--m", "0"),
        ("eval", "susp(sp(P(1),2))"), ("eval", "decomp(sp(P(1),2):0,pt:1)")),
}


def _eval_query(cls: str, e: tuple, fmt: str) -> Query:
    text = render(e)
    argv = ("eval", text) if fmt == "plain" else ("eval", text, "--format", fmt)
    return Query(cls, text, ("table", e), argv, fmt)


def cli_round(rng: random.Random, pick, index: int) -> list[Query]:
    queries = [
        _eval_query("eval_plain", small_expr(rng, 3), "plain"),
        _eval_query("eval_plain", small_expr(rng, 3), "plain"),
        _eval_query("eval_json", small_expr(rng, 3), "json"),
        _eval_query("eval_csv", small_expr(rng, 3), "csv"),
    ]
    e = small_expr(rng, 3) if rng.random() < 0.7 else toric_any(rng)
    queries.append(Query("chi_all", render(e), ("chi_all", e), ("chi", render(e), "--all")))
    e = small_expr(rng, 2)
    p = rng.randint(0, attrs(e).dim)
    queries.append(Query("chi_p", render(e), ("chi_p", e, p), ("chi", render(e), "--p", str(p))))
    e = toric_chow_expr(rng)
    r, m = rng.randint(0, attrs(e).dim), rng.randint(0, 3)
    queries.append(Query("chow", render(e), ("chow", e, r, m),
                         ("chow", render(e), "--r", str(r), "--m", str(m))))
    b2, d = rng.randint(0, 6), rng.randint(2, 8)
    queries.append(Query("series_hilb", "", ("series_hilb", b2, d),
                         ("series", "hilb", "--b2", str(b2), "--d", str(d))))
    # The cell list always holds a 0: the CLI needs b_0 >= 1.
    cl = tuple(sorted((0,) + cells(rng, 3, rng.randint(0, 4))))
    d = rng.randint(2, 8)
    queries.append(Query("series_sp", "", ("series_sp", cl, d),
                         ("series", "sp", "--cells", ",".join(map(str, cl)), "--d", str(d))))
    queries.append(Query("check", "", ("check",),
                         ("check", "--suite", rng.choice(CHECK_SUITES))))
    kind = index % 3
    if kind == 0:
        queries.append(_eval_query("eval_large", ("P", pick("large", 180, 200)), "json"))
    elif kind == 1:
        queries.append(_eval_query("eval_large", ("torus", pick("large", 60, 80)), "csv"))
    else:
        queries.append(_eval_query("eval_large", ("quadric", pick("large", 40, 50)), "plain"))
    for code in (1, 2, 3):
        argv = rng.choice(REJECTIONS[code])
        queries.append(Query(f"reject_{code}", "", ("reject", code), argv))
    rng.shuffle(queries)
    return queries


# Inputs that, at the time this benchmark was written, end in a traceback or
# a killed child instead of a documented exit code.  They run with CPU and
# address-space limits after the timed loop; see hostile_outcomes in worker.py.
HOSTILE = (
    ("recursion_1200", ("eval", "susp(" * 1200 + "pt" + ")" * 1200)),
    ("unbounded_P1000000", ("eval", "P(1000000)")),
    ("bundle_chain_30", ("eval", "bundle(susp(" * 30 + "pt" + "),[0,1])" * 30)),
)

_ROUNDS = {
    "transport_nested": transport_round,
    "series_box": series_round,
    "cli_mixed": cli_round,
}


def round_queries(workload: str, seed: int, index: int) -> list[Query]:
    """Round ``index`` of a workload's seeded stream."""

    def pick(label: str, lo: int, hi: int) -> int:
        # The sizes that set a query's cost are stratified: [lo, hi] is cut
        # into up to 8 strata, and each block of rounds visits every stratum
        # once, in a seeded order of its own for each label.  Runs of
        # different seeds so do about the same amount of work.  Round 0 takes
        # every size at the top of its range, so each run holds the largest
        # query of every class and the peak memory does not depend on the seed.
        if index == 0:
            return hi
        width = hi - lo + 1
        strata = min(width, 8)
        block, slot = divmod(index - 1, strata)
        order = random.Random(f"{workload}:{seed}:{label}:{block}").sample(range(strata), strata)
        first = lo + order[slot] * width // strata
        last = lo + (order[slot] + 1) * width // strata - 1
        return random.Random(f"{workload}:{seed}:{label}@{index}").randint(first, last)

    rng = random.Random(f"{workload}:{seed}:{index}")
    return _ROUNDS[workload](rng, pick, index)
