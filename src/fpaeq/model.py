"""Domain types for first-price auctions with correlated value priors.

Everything is exact: probabilities, values, bids and utilities are
`fractions.Fraction` throughout.  There is no floating-point fast path.

Priors come in three flavours:

* ``DiscretePrior`` -- joint pmf over value tuples (DFPA),
* ``BoxDensity``    -- piecewise-constant joint density given as weighted
                       hyperrectangles (CFPA),
* ``IIDMarginal``   -- a single piecewise-constant marginal density, shared
                       by all bidders (iid CFPA).

The first two take optional ``groups``: each listed tuple or box is then
canonical (non-increasing inside every group block) and stands for all of
its distinct group-valid permutations, each with the listed mass or weight.

Strategies are value->bid maps (``PureStrategy``), value->bid-distribution
tables (``MixedStrategy``), or monotone step functions encoded by their jump
thresholds (``JumpStrategy``).

All types are immutable after construction; operations are pure functions.
Constructors only coerce types -- semantic invariants (mass sums to one,
canonical ordering, ...) are checked by :func:`validate_instance`, which
returns a report instead of raising.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial, lcm
from typing import Iterable, Iterator, Sequence, Union

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, 'p/q' string, or Fraction into an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{x!r}: zero denominator") from None
    raise TypeError(f"not an exact rational: {x!r} (floats are rejected)")


def rat_tuple(xs: Iterable) -> tuple[Fraction, ...]:
    return tuple(rat(x) for x in xs)


# ---------------------------------------------------------------------------
# bid space
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BidSpace:
    """Finite bidding space B subset of [0,1] with 0 always present."""

    bids: tuple[Fraction, ...]

    def __init__(self, bids: Iterable):
        bids = rat_tuple(bids)
        if not bids:
            raise ValueError("bid space is empty")
        if any(b < 0 or b > 1 for b in bids):
            raise ValueError("bids must lie in [0,1]")
        if any(b2 <= b1 for b1, b2 in zip(bids, bids[1:])):
            raise ValueError("bids must be strictly increasing")
        if bids[0] != 0:
            raise ValueError("bid space must contain 0 as its smallest bid")
        object.__setattr__(self, "bids", bids)

    def __len__(self) -> int:
        return len(self.bids)

    def __iter__(self):
        return iter(self.bids)

    def __getitem__(self, j: int) -> Fraction:
        return self.bids[j]

    @cached_property
    def _positions(self) -> dict[Fraction, int]:
        return {b: j for j, b in enumerate(self.bids)}

    def index(self, b: Fraction) -> int:
        try:
            return self._positions[b]
        except KeyError:
            raise ValueError("tuple.index(x): x not in tuple") from None

    def __contains__(self, b) -> bool:
        return rat(b) in self._positions


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

DiscreteIndex = namedtuple("DiscreteIndex", "values den by_value")


@dataclass(frozen=True)
class DiscretePrior:
    """Joint pmf over value tuples.

    With ``groups`` set, as in :class:`BoxDensity`, each listed tuple is
    canonical and stands for all of its distinct group-valid permutations,
    each carrying the listed mass; the bidders of a group share one value
    space.  ``pmf``, ``mass`` and ``index`` describe :attr:`expanded`, the
    explicit prior.
    """

    n: int
    value_spaces: tuple[tuple[Fraction, ...], ...]
    support: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    groups: tuple[tuple[int, ...], ...] | None

    def __init__(self, n: int, value_spaces, support, groups=None):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self, "value_spaces", tuple(rat_tuple(vs) for vs in value_spaces)
        )
        object.__setattr__(
            self, "support", tuple((rat_tuple(t), rat(m)) for t, m in support)
        )
        object.__setattr__(
            self,
            "groups",
            None if groups is None else tuple(tuple(int(i) for i in g) for g in groups),
        )

    @cached_property
    def expanded(self) -> "DiscretePrior":
        """The explicit prior: every listed tuple expanded into its distinct
        group-valid permutations, each carrying the listed mass."""
        if self.groups is None:
            return self
        support = [
            (arranged, m)
            for t, m in self.support
            for arranged in distinct_group_arrangements(t, self.groups)
        ]
        return DiscretePrior(self.n, self.value_spaces, support)

    @cached_property
    def pmf(self) -> dict[tuple[Fraction, ...], Fraction]:
        return {t: m for t, m in self.expanded.support}

    def mass(self, values: Sequence[Fraction]) -> Fraction:
        return self.pmf.get(tuple(values), ZERO)

    @cached_property
    def index(self) -> DiscreteIndex:
        """The explicit support indexed once.  ``values``: the distinct values,
        sorted; a value's id is its position.  ``den``: the lcm D of the
        masses' denominators.  ``by_value[i]``: each own value v of bidder i,
        sorted, -> (f_i(v), one (mass * D, opponents) per support point with
        v_i = v, in support order, with opponents as (seat, value id) pairs)."""
        if self.groups is not None:
            return self.expanded.index
        first: dict = {}  # value -> position of first sight: one hash per entry
        points = [([first.setdefault(v, len(first)) for v in t], m) for t, m in self.support]
        values = sorted(first)
        rank = {first[v]: k for k, v in enumerate(values)}
        den = lcm(*(m.denominator for _, m in self.support))
        by_id: dict = {}  # bidder -> own value id -> [(mass * D, opponents)]
        for firsts, m in points:
            opp = list(enumerate(map(rank.__getitem__, firsts)))
            for i, (_, k) in enumerate(opp):
                by_id.setdefault(i, {}).setdefault(k, []).append(
                    (m.numerator * (den // m.denominator), tuple(opp[:i] + opp[i + 1:]))
                )
        by_value = tuple(
            {values[k]: (Fraction(sum(m for m, _ in sc), den), tuple(sc))
             for k, sc in sorted(by_id.get(i, {}).items())}
            for i in range(self.n)
        )
        return DiscreteIndex(tuple(values), den, by_value)


@dataclass(frozen=True)
class BoxDensity:
    """Piecewise-constant joint density: weighted closed hyperrectangles.

    ``boxes`` holds (lo, hi, weight) triples with lo/hi per-coordinate
    endpoints in [0,1].  With ``groups`` set, each listed box is canonical and
    stands for all of its distinct group-valid coordinate permutations, each
    carrying the same weight (mirroring the succinct discrete convention, so
    that total mass is sum_j w_j * m_j * vol(R_j)).
    """

    n: int
    boxes: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction], ...]
    groups: tuple[tuple[int, ...], ...] | None

    def __init__(self, n: int, boxes, groups=None):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(
            self,
            "boxes",
            tuple((rat_tuple(lo), rat_tuple(hi), rat(w)) for lo, hi, w in boxes),
        )
        object.__setattr__(
            self,
            "groups",
            None if groups is None else tuple(tuple(int(i) for i in g) for g in groups),
        )

    @cached_property
    def expanded_boxes(
        self,
    ) -> tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction], ...]:
        """All distinct group-valid images of the listed boxes (weights kept)."""
        if self.groups is None:
            return self.boxes
        out = []
        for lo, hi, w in self.boxes:
            for ivs in distinct_group_arrangements(tuple(zip(lo, hi)), self.groups):
                out.append((tuple(a for a, _ in ivs), tuple(b for _, b in ivs), w))
        return tuple(out)

    def density_at(self, point: Sequence[Fraction]) -> Fraction:
        pt = tuple(point)
        total = ZERO
        for lo, hi, w in self.expanded_boxes:
            if all(a <= x <= b for x, a, b in zip(pt, lo, hi)):
                total += w
        return total

    @cached_property
    def total_mass(self) -> Fraction:
        total = ZERO
        for lo, hi, w in self.expanded_boxes:
            vol = ONE
            for a, b in zip(lo, hi):
                vol *= b - a
            total += w * vol
        return total

    @cached_property
    def permutation_symmetric(self) -> bool:
        """Every coordinate permutation maps the box list, as a multiset, onto
        itself.  The n - 1 adjacent transpositions generate all permutations,
        so the check swaps coordinates k, k + 1 of every box, once per k."""

        def swap(x: tuple, k: int) -> tuple:
            return x[:k] + (x[k + 1], x[k]) + x[k + 2:]

        boxes = Counter(self.expanded_boxes)
        return all(
            Counter((swap(lo, k), swap(hi, k), w) for lo, hi, w in self.expanded_boxes) == boxes
            for k in range(self.n - 1)
        )

    @cached_property
    def cell_densities(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        """(midpoint, density) of every cell of the grid of axis cuts."""
        cuts = [self.axis_breakpoints(i) for i in range(self.n)]
        mids = [[(a + b) / 2 for a, b in zip(c, c[1:])] for c in cuts]
        return tuple((pt, self.density_at(pt)) for pt in itertools.product(*mids))

    def axis_breakpoints(self, i: int) -> tuple[Fraction, ...]:
        pts = {ZERO, ONE}
        for lo, hi, _ in self.expanded_boxes:
            pts.add(lo[i])
            pts.add(hi[i])
        return tuple(sorted(pts))


@dataclass(frozen=True)
class IIDMarginal:
    """Piecewise-constant marginal density shared by all bidders.

    Breakpoints 0 = a_0 < a_1 < ... < a_k = 1 with density p_j on piece
    (a_{j-1}, a_j); valid when sum_j (a_j - a_{j-1}) p_j = 1.
    """

    breakpoints: tuple[Fraction, ...]
    densities: tuple[Fraction, ...]

    def __init__(self, breakpoints, densities):
        object.__setattr__(self, "breakpoints", rat_tuple(breakpoints))
        object.__setattr__(self, "densities", rat_tuple(densities))

    @cached_property
    def total_mass(self) -> Fraction:
        a = self.breakpoints
        return sum(
            (a[j + 1] - a[j]) * p for j, p in enumerate(self.densities)
        )

    def cdf(self, x: Fraction) -> Fraction:
        """Exact marginal cdf, evaluated piecewise."""
        a = self.breakpoints
        acc = ZERO
        for j, p in enumerate(self.densities):
            left, right = a[j], a[j + 1]
            if x <= left:
                break
            acc += p * (min(x, right) - left)
        return acc

    @cached_property
    def support_left(self) -> Fraction:
        """Leftmost point of the marginal's support."""
        for j, p in enumerate(self.densities):
            if p > 0:
                return self.breakpoints[j]
        raise ValueError("marginal has empty support")

    @cached_property
    def pieces(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """(left, right, density) of every positive-density piece."""
        a = self.breakpoints
        return tuple((a[j], a[j + 1], p) for j, p in enumerate(self.densities) if p > 0)

    def axis_breakpoints(self, i: int) -> tuple[Fraction, ...]:
        """Every bidder's axis cuts: 0, 1 and the ends of the positive-density
        pieces, as in the product box expansion."""
        return tuple(sorted({ZERO, ONE}.union(*((a, c) for a, c, _ in self.pieces))))

    def as_box_density(self, n: int) -> BoxDensity:
        """Expand the product of n iid marginals into a plain BoxDensity."""
        boxes = []
        for combo in itertools.product(self.pieces, repeat=n):
            lo = tuple(c[0] for c in combo)
            hi = tuple(c[1] for c in combo)
            w = ONE
            for c in combo:
                w *= c[2]
            boxes.append((lo, hi, w))
        return BoxDensity(n, boxes, None)


Prior = Union[DiscretePrior, BoxDensity, IIDMarginal]


@dataclass(frozen=True)
class Auction:
    """A first-price auction: a bidding space paired with a value prior."""

    bids: BidSpace
    prior: Prior
    n: int

    def __init__(self, bids: BidSpace, prior: Prior, n: int | None = None):
        if not isinstance(bids, BidSpace):
            bids = BidSpace(bids)
        if n is None:
            n = getattr(prior, "n", None)
            if n is None:
                raise ValueError("bidder count required for IIDMarginal priors")
        object.__setattr__(self, "bids", bids)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "n", int(n))

    @property
    def kind(self) -> str:
        if self.is_discrete and self.prior.groups is not None:
            return "dfpa-sym"
        return {DiscretePrior: "dfpa", BoxDensity: "cfpa-box", IIDMarginal: "cfpa-iid"}[
            type(self.prior)
        ]

    @property
    def is_discrete(self) -> bool:
        return isinstance(self.prior, DiscretePrior)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PureStrategy:
    """Total map from a bidder's values to bids.  ``bidder`` labels the
    strategy in files and is not compared: equal maps are equal strategies."""

    bidder: int = field(compare=False)
    mapping: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, bidder: int, mapping):
        object.__setattr__(self, "bidder", int(bidder))
        if isinstance(mapping, dict):
            mapping = sorted(mapping.items())
        object.__setattr__(
            self, "mapping", tuple(sorted((rat(v), rat(b)) for v, b in mapping))
        )

    @cached_property
    def as_dict(self) -> dict[Fraction, Fraction]:
        return dict(self.mapping)

    def bid_at(self, v: Fraction) -> Fraction:
        return self.as_dict[v]


@dataclass(frozen=True)
class MixedStrategy:
    """Value -> distribution over bids, one row per value; ``bidder`` is not
    compared, as on :class:`PureStrategy`."""

    bidder: int = field(compare=False)
    table: tuple[tuple[Fraction, tuple[tuple[Fraction, Fraction], ...]], ...]

    def __init__(self, bidder: int, table):
        object.__setattr__(self, "bidder", int(bidder))
        if isinstance(table, dict):
            table = sorted(table.items())
        rows = []
        for v, dist in table:
            if isinstance(dist, dict):
                dist = sorted(dist.items())
            rows.append((rat(v), tuple(sorted((rat(b), rat(w)) for b, w in dist))))
        object.__setattr__(self, "table", tuple(sorted(rows)))

    @cached_property
    def as_dict(self) -> dict[Fraction, dict[Fraction, Fraction]]:
        return {v: dict(dist) for v, dist in self.table}

    def row(self, v: Fraction) -> dict[Fraction, Fraction]:
        return self.as_dict[v]


@dataclass(frozen=True)
class JumpStrategy:
    """Monotone step strategy given by jump thresholds over a bid space.

    ``thresholds`` has length |B|+1 with 0 = x^1 <= ... <= x^{|B|+1} = 1 and
    the no-overbidding constraint x^j >= b_j.  Bid b_j is played on
    (x^j, x^{j+1}]; the threshold point x^j itself takes the lower bid
    b_{j-1}, a measure-zero convention fixed for determinism.
    """

    bids: BidSpace
    thresholds: tuple[Fraction, ...]

    def __init__(self, bids, thresholds):
        if not isinstance(bids, BidSpace):
            bids = BidSpace(bids)
        object.__setattr__(self, "bids", bids)
        object.__setattr__(self, "thresholds", rat_tuple(thresholds))

    def bid_at(self, v: Fraction) -> Fraction:
        v = rat(v)
        x = self.thresholds
        for j in range(len(self.bids) - 1, -1, -1):
            if v > x[j]:
                return self.bids[j]
        return self.bids[0]

    def mass_at_bid(self, j: int, lo: Fraction, hi: Fraction) -> Fraction:
        """Length of [lo,hi] mapped to exactly bid b_j."""
        x = self.thresholds
        return max(ZERO, min(hi, x[j + 1]) - max(lo, x[j]))

    def mass_below_bid(self, j: int, lo: Fraction, hi: Fraction) -> Fraction:
        """Length of [lo,hi] mapped to a bid strictly below b_j."""
        x = self.thresholds
        return max(ZERO, min(hi, x[j]) - lo)


Strategy = Union[PureStrategy, MixedStrategy, JumpStrategy]


@dataclass(frozen=True)
class Profile:
    """One strategy per bidder, or one per group for symmetric profiles."""

    strategies: tuple[Strategy, ...]
    groups: tuple[tuple[int, ...], ...] | None = None

    def __init__(self, strategies, groups=None):
        object.__setattr__(self, "strategies", tuple(strategies))
        object.__setattr__(
            self,
            "groups",
            None if groups is None else tuple(tuple(int(i) for i in g) for g in groups),
        )

    @property
    def symmetric(self) -> bool:
        return self.groups is not None

    def for_bidder(self, i: int) -> Strategy:
        if self.groups is None:
            return self.strategies[i]
        for g, members in enumerate(self.groups):
            if i in members:
                return self.strategies[g]
        raise IndexError(f"bidder {i} not covered by profile groups")

    def expand(self, n: int) -> "Profile":
        """Per-bidder view of a (possibly symmetric) profile."""
        if self.groups is None:
            return self
        return Profile([self.for_bidder(i) for i in range(n)])


# ---------------------------------------------------------------------------
# combinatorics for group-symmetric representations
# ---------------------------------------------------------------------------

def group_blocks(tup: Sequence, groups: Sequence[Sequence[int]]) -> list[tuple]:
    return [tuple(tup[i] for i in g) for g in groups]


def is_canonical(tup: Sequence, groups: Sequence[Sequence[int]]) -> bool:
    """Non-increasing inside every group block."""
    for block in group_blocks(tup, groups):
        if any(block[i] < block[i + 1] for i in range(len(block) - 1)):
            return False
    return True


def multiplicity(tup: Sequence, groups: Sequence[Sequence[int]]) -> int:
    """Number of distinct group-valid permutations of a canonical tuple.

    Equals prod_g n_g! / prod_{values v} (count of v in block)!.
    """
    if not is_canonical(tup, groups):
        raise ValueError(f"tuple {tup} is not canonical for groups {groups}")
    m = 1
    for block in group_blocks(tup, groups):
        m *= factorial(len(block))
        for v in set(block):
            m //= factorial(block.count(v))
    return m


def _orderings(items: list) -> Iterator[tuple]:
    """Distinct orderings of a sorted multiset, in lexicographic order: each
    distinct entry in turn, then the orderings of the rest."""
    if not items:
        yield ()
    for k, x in enumerate(items):
        if k == 0 or items[k - 1] != x:
            for rest in _orderings(items[:k] + items[k + 1:]):
                yield (x, *rest)


def distinct_group_arrangements(
    tup: Sequence, groups: Sequence[Sequence[int]]
) -> list[tuple]:
    """All distinct tuples reachable by permuting entries within groups,
    sorted.  Groups partition the seats, so the combinations are distinct."""
    block_arrangements = [list(_orderings(sorted(tup[i] for i in g))) for g in groups]
    out = []
    for combo in itertools.product(*block_arrangements):
        arranged = list(tup)
        for g, block in zip(groups, combo):
            for pos, i in enumerate(g):
                arranged[i] = block[pos]
        out.append(tuple(arranged))
    return sorted(out)


# ---------------------------------------------------------------------------
# marginals and conditionals
# ---------------------------------------------------------------------------

def marginal(prior: Prior, i: int):
    """Marginal of bidder i: a value->mass dict for discrete priors, an
    IIDMarginal-shaped piecewise-constant density for continuous ones."""
    if isinstance(prior, DiscretePrior):
        if not 0 <= i < prior.n:
            raise IndexError(f"bidder index {i} out of range")
        return {v: fi for v, (fi, _) in prior.index.by_value[i].items()}
    if isinstance(prior, IIDMarginal):
        return prior
    if isinstance(prior, BoxDensity):
        if not 0 <= i < prior.n:
            raise IndexError(f"bidder index {i} out of range")
        cuts = prior.axis_breakpoints(i)
        return IIDMarginal(
            cuts, [_box_marginal(prior, i, (a + b) / 2) for a, b in zip(cuts, cuts[1:])]
        )
    raise TypeError(f"unsupported prior: {type(prior).__name__}")


def marginal_mass(prior: Prior, i: int, v: Fraction) -> Fraction:
    """f_i(v) for discrete priors / marginal density at v for continuous.

    Boxes and iid pieces are closed, so a value on a shared face or at a
    breakpoint collects both sides; this measure-zero convention matches the
    utility computations and the iid prior's box expansion.
    """
    v = rat(v)
    if isinstance(prior, BoxDensity):
        return _box_marginal(prior, i, v)
    if isinstance(prior, DiscretePrior):
        if not 0 <= i < prior.n:
            raise IndexError(f"bidder index {i} out of range")
        return prior.index.by_value[i].get(v, (ZERO,))[0]
    if isinstance(prior, IIDMarginal):
        return sum((p for a, c, p in prior.pieces if a <= v <= c), ZERO)
    raise TypeError(f"unsupported prior: {type(prior).__name__}")


def _box_marginal(prior: BoxDensity, i: int, v: Fraction) -> Fraction:
    """Sum over the boxes whose i-th edge holds v of weight times the other
    edges' lengths."""
    total = ZERO
    for lo, hi, w in prior.expanded_boxes:
        if lo[i] <= v <= hi[i]:
            for j in range(prior.n):
                if j != i:
                    w *= hi[j] - lo[j]
            total += w
    return total


def support_values(prior: Prior, i: int) -> list[Fraction]:
    """Values of bidder i with positive marginal mass (discrete priors)."""
    return [v for v, m in marginal(prior, i).items() if m > 0]


def conditional(prior: Prior, i: int, v: Fraction):
    """Beliefs of bidder i about opponents, given her own value v.

    Discrete: dict mapping opponent value tuples to conditional masses.
    Boxes/iid: a BoxDensity over the n-1 opponent coordinates.
    """
    v = rat(v)
    if isinstance(prior, DiscretePrior):
        fi = marginal_mass(prior, i, v)
        if fi == 0:
            raise ValueError(f"value {v} outside marginal support of bidder {i}")
        out = {}
        for tup, m in prior.expanded.support:
            if tup[i] == v:
                rest = tup[:i] + tup[i + 1:]
                out[rest] = out.get(rest, ZERO) + m / fi
        return dict(sorted(out.items()))
    if isinstance(prior, IIDMarginal):
        raise TypeError(
            "conditional over an IIDMarginal needs the bidder count; "
            "expand it into a BoxDensity of n bidders first"
        )
    if isinstance(prior, BoxDensity):
        fi = marginal_mass(prior, i, v)
        if fi == 0:
            raise ValueError(f"value {v} outside marginal support of bidder {i}")
        boxes = []
        for lo, hi, w in prior.expanded_boxes:
            if lo[i] <= v <= hi[i]:
                lo_rest = lo[:i] + lo[i + 1:]
                hi_rest = hi[:i] + hi[i + 1:]
                boxes.append((lo_rest, hi_rest, w / fi))
        return BoxDensity(prior.n - 1, boxes, None)
    raise TypeError(f"unsupported prior: {type(prior).__name__}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def _partitions(groups, n: int) -> bool:
    """Every bidder 0..n-1 in exactly one group, and no group empty."""
    return sorted(i for g in groups for i in g) == list(range(n)) and all(groups)


def _check_discrete(prior: DiscretePrior, errs: list[str]) -> None:
    groups = prior.groups
    if groups is not None and not _partitions(groups, prior.n):
        errs.append(f"groups {groups} do not partition 0..{prior.n - 1}")
        return
    if len(prior.value_spaces) != prior.n:
        errs.append(f"expected {prior.n} value spaces, got {len(prior.value_spaces)}")
        return
    for i, vs in enumerate(prior.value_spaces):
        if any(v < 0 or v > 1 for v in vs):
            errs.append(f"value space {i}: values outside [0,1]")
        if any(b <= a for a, b in zip(vs, vs[1:])):
            errs.append(f"value space {i}: not strictly increasing")
    for g in groups or ():
        if any(prior.value_spaces[i] != prior.value_spaces[g[0]] for i in g):
            errs.append(f"group {g}: bidders do not share one value space")
    # values as (numerator, denominator): a Fraction's hash costs a modular inverse
    spaces = [{(v.numerator, v.denominator) for v in vs} for vs in prior.value_spaces]
    seen = set()
    total = ZERO
    for k, (tup, m) in enumerate(prior.support):
        if len(tup) != prior.n:
            errs.append(f"support[{k}]: tuple arity {len(tup)} != n={prior.n}")
            continue
        if m <= 0:
            errs.append(f"support[{k}]: mass {m} not strictly positive")
        if groups is not None and not is_canonical(tup, groups):
            errs.append(f"support[{k}]: tuple {tup} not canonical (non-increasing per group)")
            continue
        size = len(seen)
        seen.add(tup)  # one tuple hash per point
        if len(seen) == size:
            errs.append(f"support[{k}]: duplicate tuple {tup}")
        for i, v in enumerate(tup):
            if (v.numerator, v.denominator) not in spaces[i]:
                errs.append(f"support[{k}]: component {i} value {v} not in V_{i}")
        total += m if groups is None else multiplicity(tup, groups) * m
    if total != 1:
        errs.append(f"total mass {total} != 1")


def _check_boxes(prior: BoxDensity, errs: list[str]) -> None:
    if prior.groups is not None and not _partitions(prior.groups, prior.n):
        errs.append(f"groups {prior.groups} do not partition 0..{prior.n - 1}")
        return
    for k, (lo, hi, w) in enumerate(prior.boxes):
        if len(lo) != prior.n or len(hi) != prior.n:
            errs.append(f"box[{k}]: arity != n={prior.n}")
            continue
        if w < 0:
            errs.append(f"box[{k}]: negative weight {w}")
        for a, b in zip(lo, hi):
            if not (0 <= a <= b <= 1):
                errs.append(f"box[{k}]: interval [{a},{b}] invalid in [0,1]")
        if prior.groups is not None and not is_canonical(
            tuple(zip(lo, hi)), prior.groups
        ):
            errs.append(f"box[{k}]: intervals not canonical (non-increasing per group)")
    if not errs and prior.total_mass != 1:
        errs.append(f"total mass {prior.total_mass} != 1")


def _check_iid(prior: IIDMarginal, errs: list[str]) -> None:
    a = prior.breakpoints
    if len(a) < 2 or a[0] != 0 or a[-1] != 1:
        errs.append("breakpoints must run from 0 to 1")
        return
    if any(y <= x for x, y in zip(a, a[1:])):
        errs.append("breakpoints must be strictly increasing")
        return
    if len(prior.densities) != len(a) - 1:
        errs.append("need one density per piece")
        return
    if any(p < 0 for p in prior.densities):
        errs.append("densities must be nonnegative")
    if prior.total_mass != 1:
        errs.append(f"total mass {prior.total_mass} != 1")


def validate_instance(instance) -> ValidationReport:
    """Check all type invariants; returns a report rather than raising."""
    prior = instance.prior if isinstance(instance, Auction) else instance
    errs: list[str] = []
    if isinstance(instance, Auction) and instance.n < 1:
        errs.append(f"bidder count n={instance.n} must be at least 1")
    elif isinstance(prior, DiscretePrior):
        _check_discrete(prior, errs)
    elif isinstance(prior, BoxDensity):
        _check_boxes(prior, errs)
    elif isinstance(prior, IIDMarginal):
        _check_iid(prior, errs)
    else:
        errs.append(f"unknown instance type {type(prior).__name__}")
    return ValidationReport(ok=not errs, violations=tuple(errs))


def validate_strategy(
    strategy: Strategy, auction: Auction, errs=None, bidder: int | None = None
) -> ValidationReport:
    """Check a strategy against an auction's bid and value spaces.

    ``bidder`` is the seat whose value space applies; it defaults to the
    strategy's own ``bidder`` field.
    """
    errs = [] if errs is None else errs
    B = auction.bids
    if bidder is None:
        bidder = getattr(strategy, "bidder", None)
    if isinstance(strategy, PureStrategy):
        vs = _value_space(auction, bidder)
        if vs is not None and tuple(v for v, _ in strategy.mapping) != vs:
            errs.append(f"pure strategy of bidder {bidder} not total over V_i")
        for v, b in strategy.mapping:
            if b not in B:
                errs.append(f"bid {b} at value {v} not in bid space")
    elif isinstance(strategy, MixedStrategy):
        vs = _value_space(auction, bidder)
        if vs is not None and tuple(v for v, _ in strategy.table) != vs:
            errs.append(f"mixed strategy of bidder {bidder} not total over V_i")
        for v, dist in strategy.table:
            tot = ZERO
            for b, w in dist:
                if b not in B:
                    errs.append(f"bid {b} at value {v} not in bid space")
                if w < 0 or w > 1:
                    errs.append(f"weight {w} at value {v} outside [0,1]")
                tot += w
            if tot != 1:
                errs.append(f"row at value {v} sums to {tot} != 1")
    elif isinstance(strategy, JumpStrategy):
        if strategy.bids != B:
            errs.append("jump strategy bids differ from the instance's bid space")
        x = strategy.thresholds
        if len(x) != len(strategy.bids) + 1:
            errs.append(f"need {len(strategy.bids) + 1} thresholds, got {len(x)}")
        else:
            if x[0] != 0 or x[-1] != 1:
                errs.append("thresholds must start at 0 and end at 1")
            if any(b < a for a, b in zip(x, x[1:])):
                errs.append("thresholds must be nondecreasing")
            for j, b in enumerate(strategy.bids):
                if x[j] < b:
                    errs.append(f"threshold x^{j + 1}={x[j]} below bid {b} (overbidding)")
    else:
        errs.append(f"unknown strategy type {type(strategy).__name__}")
    return ValidationReport(ok=not errs, violations=tuple(errs))


def _value_space(auction: Auction, bidder: int):
    prior = auction.prior
    if isinstance(prior, DiscretePrior):
        return prior.value_spaces[bidder]
    return None


def validate_profile(profile: Profile, auction: Auction) -> ValidationReport:
    """Check a profile against an auction: one strategy per bidder (or per
    group, the groups covering every bidder exactly once), each of the kind
    the auction takes and valid for its seat.  A per-group strategy is
    checked against the group's first bidder."""
    errs: list[str] = []
    n = auction.n
    groups = profile.groups
    if groups is None:
        if len(profile.strategies) != n:
            errs.append(f"profile has {len(profile.strategies)} strategies for {n} bidders")
    else:
        prior_groups = getattr(auction.prior, "groups", None)
        if not _partitions(groups, n):
            errs.append(f"profile groups {groups} do not partition 0..{n - 1}")
        elif prior_groups is not None and groups != prior_groups:
            errs.append(f"profile groups {groups} differ from the instance's {prior_groups}")
        if len(profile.strategies) != len(groups):
            errs.append(
                f"profile has {len(profile.strategies)} strategies for {len(groups)} groups"
            )
    if errs:
        return ValidationReport(ok=False, violations=tuple(errs))
    seats = range(n) if groups is None else [g[0] for g in groups]
    kinds = (PureStrategy, MixedStrategy) if auction.is_discrete else (JumpStrategy,)
    for seat, strategy in zip(seats, profile.strategies):
        if not isinstance(strategy, kinds):
            errs.append(
                f"{type(strategy).__name__} of bidder {seat} does not fit a "
                f"{auction.kind} instance"
            )
            continue
        validate_strategy(strategy, auction, errs, bidder=seat)
    return ValidationReport(ok=not errs, violations=tuple(errs))
