"""Desk-scale equilibrium search: exhaustive enumeration over pure profiles,
its group-symmetric variant, jump-point grid search for box-density
instances, and bid-space shrinkage.

Enumeration order is lexicographic over value->bid maps (bidder-major), so
"first found" is reproducible.  Values outside a bidder's marginal support do
not affect utilities; they are pinned to the last in-support bid (0 before
the first) instead of being enumerated, which keeps emitted profiles monotone
and non-overbidding whenever the enumerated part is.
"""

from __future__ import annotations

import hashlib
import itertools
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
    SymmetricDiscretePrior,
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
    no_overbidding: bool = True
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
            if cfg.no_overbidding and b > values[k]:
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


def _verdict(log: IO[str] | None, auction, profile, eps) -> bool:
    """The candidate's verdict.  A logged candidate gets the full report
    and one log line; otherwise the check stops at the first violation."""
    if log is None:
        return engine.is_pbne(auction, profile, eps)
    report = engine.verify_pbne(auction, profile, eps)
    digest = hashlib.sha256(dumps(profile_to_doc(profile)).encode()).hexdigest()[:12]
    log.write(f"{digest} {'pass' if report.ok else 'fail'} {report.max_gain}\n")
    return report.ok


def enumerate_pure_equilibria(
    auction: Auction, cfg: SearchConfig, log: IO[str] | None = None
) -> SearchResult:
    """First eps-PBNE in lexicographic order, or an exhaustive "none"."""
    n = auction.n
    prior = auction.prior
    if isinstance(prior, SymmetricDiscretePrior):
        spaces = prior.value_spaces
    elif isinstance(prior, DiscretePrior):
        spaces = prior.value_spaces
    else:
        raise TypeError("pure enumeration applies to discrete instances")
    supp = [support_values(prior, i) for i in range(n)]
    choices = [_bid_choices(supp[i], auction.bids, cfg) for i in range(n)]
    count = 1
    for ch in choices:
        count *= len(ch)
    if count > cfg.budget:
        raise BudgetExceeded(count, cfg.budget)

    checked = 0
    for combo in itertools.product(*choices):
        profile = Profile(
            [_fill_strategy(i, spaces[i], supp[i], combo[i]) for i in range(n)]
        )
        checked += 1
        if _verdict(log, auction, profile, cfg.eps):
            return SearchResult("found", profile, checked)
    return SearchResult("none", None, checked)


def enumerate_symmetric_pure(
    auction: Auction, cfg: SearchConfig, log: IO[str] | None = None
) -> SearchResult:
    """Symmetric search: one strategy per group, verified succinctly."""
    prior = auction.prior
    if not isinstance(prior, SymmetricDiscretePrior):
        raise TypeError("symmetric enumeration needs a SymmetricDiscretePrior")
    reps = [g[0] for g in prior.groups]
    supp = [support_values(prior, i) for i in reps]
    choices = [
        _bid_choices(supp[g], auction.bids, cfg) for g in range(len(prior.groups))
    ]
    count = 1
    for ch in choices:
        count *= len(ch)
    if count > cfg.budget:
        raise BudgetExceeded(count, cfg.budget)

    checked = 0
    for combo in itertools.product(*choices):
        strategies = [
            _fill_strategy(g, prior.group_values[g], supp[g], combo[g])
            for g in range(len(prior.groups))
        ]
        profile = Profile(strategies, groups=prior.groups)
        checked += 1
        if _verdict(log, auction, profile, cfg.eps):
            return SearchResult("found", profile, checked)
    return SearchResult("none", None, checked)


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
    with the uniform grid of mesh 1/m."""
    prior = auction.prior
    if isinstance(prior, IIDMarginal):
        prior = prior.as_box_density(auction.n)
    pts = set()
    for i in range(prior.n):
        pts.update(prior.axis_breakpoints(i))
    pts.update(auction.bids)
    if mesh:
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
        box_prior = prior.as_box_density(auction.n)
        groups = ((tuple(range(auction.n)),)) if cfg.symmetric else None
    elif isinstance(prior, BoxDensity):
        box_prior = prior
        groups = prior.groups if cfg.symmetric else None
    else:
        raise TypeError("jump search applies to continuous instances")
    if cfg.symmetric and groups is None:
        raise ValueError("symmetric search needs a grouped instance")
    if grid is None:
        grid = default_jump_grid(auction)

    vectors = list(_jump_vectors(auction.bids, grid))
    seats = len(groups) if cfg.symmetric else auction.n
    count = len(vectors) ** seats
    if count > cfg.budget:
        raise BudgetExceeded(count, cfg.budget)

    checked = 0
    for combo in itertools.product(vectors, repeat=seats):
        strategies = [JumpStrategy(auction.bids, x) for x in combo]
        profile = Profile(strategies, groups=groups if cfg.symmetric else None)
        checked += 1
        if _verdict(log, auction, profile, cfg.eps):
            return SearchResult("found", profile, checked)
    return SearchResult("none", None, checked)
