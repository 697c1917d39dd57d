"""Desk-scale equilibrium search: exhaustive enumeration over pure profiles,
its group-symmetric variant, jump-point grid search for box-density
instances, and bid-space shrinkage.

Enumeration order is lexicographic over value->bid maps (bidder-major), so
"first found" is reproducible.  Values outside a bidder's marginal support do
not affect utilities; they are pinned to the last in-support bid (0 before
the first) instead of being enumerated, which keeps emitted profiles monotone
and non-overbidding whenever the enumerated part is.

Candidates are checked against per-bidder gain tables.  Bidder i's win
masses depend only on the other seats, so each bidder keeps one table per
key, the tuple of the other seats' choice indices, shared by every candidate
with those opponents; a candidate reads one entry per support value on DFPA
and per cell end on CFPA (see ``_table``).  A walk over C_0 x ... x C_{n-1}
builds at most sum_i prod_{j != i} |C_j| tables, which is |C_0| + |C_1| for
two bidders; group-symmetric searches, where every seat reads its own
group's strategy too, run the verifier on one game per candidate.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterator, Sequence

from .model import (
    ONE,
    ZERO,
    Auction,
    BidSpace,
    BoxDensity,
    DiscretePrior,
    IIDMarginal,
    JumpStrategy,
    Profile,
    PureStrategy,
    rat,
    support_values,
)
from . import engine
from .serialize import profile_to_doc, dumps


class BudgetExceeded(RuntimeError):
    def __init__(self, count: int, budget: int):
        super().__init__(f"search space of {count} profiles exceeds budget {budget}")
        self.count = count
        self.budget = budget


@dataclass(frozen=True)
class SearchConfig:
    eps: Fraction = ZERO
    monotone_only: bool = False
    symmetric: bool = False
    budget: int = 2_000_000

    def __post_init__(self):
        object.__setattr__(self, "eps", rat(self.eps))
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    status: str  # "found" | "none"
    profile: Profile | None
    checked: int

    @property
    def found(self) -> bool:
        return self.status == "found"


# ---------------------------------------------------------------------------
# pure-strategy enumeration (DFPA)
# ---------------------------------------------------------------------------

def _bid_choices(
    values: Sequence[Fraction], bids: BidSpace, cfg: SearchConfig
) -> list[tuple[Fraction, ...]]:
    """All admissible bid tuples aligned with ``values``, lexicographic."""
    out: list[tuple[Fraction, ...]] = []

    def rec(prefix: list[Fraction]):
        k = len(prefix)
        if k == len(values):
            out.append(tuple(prefix))
            return
        for b in bids:
            if b > values[k]:
                continue
            if cfg.monotone_only and prefix and b < prefix[-1]:
                continue
            prefix.append(b)
            rec(prefix)
            prefix.pop()

    rec([])
    return out


def _fill_strategy(
    bidder: int,
    all_values: Sequence[Fraction],
    supp_values: Sequence[Fraction],
    choice: Sequence[Fraction],
) -> PureStrategy:
    chosen = dict(zip(supp_values, choice))
    mapping = {}
    last = ZERO
    for v in sorted(all_values):
        if v in chosen:
            last = chosen[v]
        mapping[v] = last
    return PureStrategy(bidder, mapping)


def _walk(
    auction: Auction,
    cfg: SearchConfig,
    log: IO[str] | None,
    choices: Sequence[Sequence],
    make,
    groups=None,
) -> SearchResult:
    """First eps-PBNE in the lexicographic product of ``choices`` (one list
    per seat), or an exhaustive "none".  ``make(seat, choice)`` builds a
    seat's strategy, once per choice; DFPA choices are bid tuples aligned
    with the bidder's support values.  The tables are the module docstring's.
    A logged candidate takes the max over all gains and writes one line;
    otherwise the check stops at the first gain above eps.
    """
    count = math.prod(len(ch) for ch in choices)
    if count > cfg.budget:
        raise BudgetExceeded(count, cfg.budget)
    prior, nbids = auction.prior, len(auction.bids)
    position = {b: k for k, b in enumerate(auction.bids)}
    seats = range(len(choices) if groups is None else 0)  # per-seat walks keep tables
    if auction.is_discrete:
        points = [support_values(prior, s) for s in seats]
    else:
        points = [sorted(set(prior.axis_breakpoints(s)).union(*choices[s])) for s in seats]
    built: list[dict] = [{} for _ in choices]
    tables: list[dict] = [{} for _ in choices]

    def seat(s: int, c: int):
        """Seat s's strategy for choice c and, on a per-seat walk, its cells:
        flat indices (row, own bid) into its bidder's tables."""
        if c not in built[s]:
            choice = choices[s][c]
            own, cells = make(s, choice), None
            if groups is None and auction.is_discrete:
                cells = [k * nbids + position[b] for k, b in enumerate(choice)]
            elif groups is None:
                row = {p: 2 * j for j, p in enumerate(points[s])}
                cells = []
                for lo, hi in engine._cfpa_cells(prior.axis_breakpoints(s), own):
                    k = position[own.bid_at(Fraction(lo + hi, 2))]
                    cells += [row[lo] * nbids + k, (row[hi] - 1) * nbids + k]
            built[s][c] = own, cells
        return built[s][c]

    def gains(idx: tuple, profile: Profile):
        if groups is not None:
            for _, records in engine._deviations(auction, profile):
                yield from (record[-1] for record in records)
            return
        for i, c in enumerate(idx):
            key = idx[:i] + idx[i + 1 :]
            if key not in tables[i]:
                tables[i][key] = _table(auction, profile, i, points[i])
            yield from map(tables[i][key].__getitem__, seat(i, c)[1])

    checked = 0
    for idx in itertools.product(*(range(len(ch)) for ch in choices)):
        profile = Profile([seat(s, c)[0] for s, c in enumerate(idx)], groups)
        checked += 1
        if log is None:
            ok = all(gain <= cfg.eps for gain in gains(idx, profile))
        else:
            max_gain = max(ZERO, *gains(idx, profile))
            ok = max_gain <= cfg.eps
            digest = hashlib.sha256(dumps(profile_to_doc(profile)).encode()).hexdigest()[:12]
            log.write(f"{digest} {'pass' if ok else 'fail'} {max_gain}\n")
        if ok:
            return SearchResult("found", profile, checked)
    return SearchResult("none", None, checked)


def _table(auction: Auction, profile: Profile, i: int, points: Sequence[Fraction]):
    """Bidder i's gains top - u_b against the profile's other seats, flat over
    (row, bid).  DFPA: a row per support value in ``points``.  CFPA: rows 2j
    and 2j+1 are the ends of (points[j], points[j+1]) under that interval's
    H, zero where f_i = 0; at a cell end, the verifier's largest record is
    the entry of the bid played there."""
    game = engine._Game(auction, profile)
    if auction.is_discrete:
        ends = [(v, v) for v in points]
    else:
        ends = [(v, (a + b) / 2) for a, b in zip(points, points[1:]) for v in (a, b)]
    gains = []
    for v, inside in ends:
        H = game.vector(i, inside)[1] or [ZERO] * len(game.bids)
        us = [(v - b) * h for b, h in zip(game.bids, H)]
        top = max(us)
        gains.extend(top - u for u in us)
    return gains


def enumerate_pure_equilibria(
    auction: Auction, cfg: SearchConfig, log: IO[str] | None = None
) -> SearchResult:
    """First eps-PBNE in lexicographic order, or an exhaustive "none"."""
    prior = auction.prior
    if not isinstance(prior, DiscretePrior):
        raise TypeError("pure enumeration applies to discrete instances")
    spaces = prior.value_spaces
    supp = [support_values(prior, i) for i in range(auction.n)]
    choices = [_bid_choices(values, auction.bids, cfg) for values in supp]
    return _walk(
        auction, cfg, log, choices,
        lambda i, choice: _fill_strategy(i, spaces[i], supp[i], choice),
    )


def enumerate_symmetric_pure(
    auction: Auction, cfg: SearchConfig, log: IO[str] | None = None
) -> SearchResult:
    """Symmetric search: one strategy per group, each candidate verified on
    the prior's expansion at each group's first seat."""
    prior = auction.prior
    if not isinstance(prior, DiscretePrior) or prior.groups is None:
        raise TypeError("symmetric enumeration needs a grouped DiscretePrior")
    seats = [g[0] for g in prior.groups]
    supp = [support_values(prior, i) for i in seats]
    choices = [_bid_choices(values, auction.bids, cfg) for values in supp]
    return _walk(
        auction, cfg, log, choices,
        lambda g, choice: _fill_strategy(g, prior.value_spaces[seats[g]], supp[g], choice),
        prior.groups,
    )


# ---------------------------------------------------------------------------
# bid-space shrinkage
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShrunkSpace:
    bids: BidSpace
    target: int
    guarantee: Fraction  # additive equilibrium loss: 1/(M-1)


def shrink_bidspace(bids: BidSpace, M: int) -> ShrunkSpace:
    """Keep 0 plus the largest bid in each bucket ((k-1)/(M-1), k/(M-1)].

    Every original bid then has a lower neighbour in the shrunk space within
    1/(M-1), which is the additive loss a deviating bidder can suffer.
    """
    if M < 2:
        raise ValueError("M must be at least 2")
    width = Fraction(1, M - 1)
    kept = {ZERO}
    for k in range(1, M):
        bucket = [b for b in bids if (k - 1) * width < b <= k * width]
        if bucket:
            kept.add(max(bucket))
    return ShrunkSpace(BidSpace(sorted(kept)), M, width)


# ---------------------------------------------------------------------------
# jump-point grid search (CFPA)
# ---------------------------------------------------------------------------

def default_jump_grid(auction: Auction, mesh: int | None = None) -> tuple[Fraction, ...]:
    """Candidate thresholds: box arrangement endpoints, optionally refined
    with the uniform grid of mesh 1/m (m >= 1; None for no refinement)."""
    if mesh is not None and mesh <= 0:
        raise ValueError("mesh must be a positive integer")
    pts = set(auction.bids)
    for i in range(auction.n):
        pts.update(auction.prior.axis_breakpoints(i))
    if mesh is not None:
        pts.update(Fraction(k, mesh) for k in range(mesh + 1))
    return tuple(sorted(pts))


def _jump_vectors(
    bids: BidSpace, grid: Sequence[Fraction]
) -> Iterator[tuple[Fraction, ...]]:
    """Nondecreasing thresholds x^2..x^{|B|} from the grid with x^j >= b_j."""
    m = len(bids)
    grid = sorted(set(rat(x) for x in grid) | {ZERO, ONE})
    for combo in itertools.combinations_with_replacement(grid, m - 1):
        ok = all(combo[j - 1] >= bids[j] for j in range(1, m))
        if ok:
            yield (ZERO,) + combo + (ONE,)


def count_jump_vectors(bids: BidSpace, grid: Sequence[Fraction]) -> int:
    return sum(1 for _ in _jump_vectors(bids, grid))


def jump_grid_search(
    auction: Auction,
    cfg: SearchConfig,
    grid: Sequence[Fraction] | None = None,
    log: IO[str] | None = None,
) -> SearchResult:
    """Exhaustive search over monotone non-overbidding jump profiles with
    thresholds on a finite grid; first profile passing verify_pbne wins."""
    prior = auction.prior
    if isinstance(prior, IIDMarginal):
        groups = (tuple(range(auction.n)),) if cfg.symmetric else None
    elif isinstance(prior, BoxDensity):
        groups = prior.groups if cfg.symmetric else None
    else:
        raise TypeError("jump search applies to continuous instances")
    if cfg.symmetric and groups is None:
        raise ValueError("symmetric search needs a grouped instance")
    if grid is None:
        grid = default_jump_grid(auction)

    vectors = list(_jump_vectors(auction.bids, grid))
    seats = len(groups) if cfg.symmetric else auction.n
    return _walk(
        auction, cfg, log, [vectors] * seats,
        lambda s, x: JumpStrategy(auction.bids, x),
        groups,
    )
