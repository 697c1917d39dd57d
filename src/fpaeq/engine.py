"""Exact interim utilities, best responses and equilibrium verification.

Every utility comes from the tie-counting dynamic program: ``T[r]`` is the
probability that exactly r opponents bid exactly b while all the others bid
strictly below, built up one opponent at a time from the per-opponent masses
(g = ties b, G = strictly below b).  With uniform tie-breaking the win
probability is ``sum_r T[r] / (r+1)``, including the all-zero tie at b = 0.
:func:`tie_dp` and :func:`win_from_ties` are that DP in its plain form.

The fast path computes one interim vector per (bidder i, value v): f_i(v) and
the win probability ``H(b)`` for every bid at once, in three pieces:

* scenarios -- one generator per prior kind (discrete, boxes, iid) yields,
  for bidder i at value v, ``f_i(v)``, a denominator D and the ``(mass * D,
  opponents)`` of every conditional scenario.  A grouped prior is evaluated
  on its cached expansion: a discrete one through its index, a box list
  through its expanded boxes.  Discrete supports are indexed once per prior:
  integer masses over one D, opponents as (seat, value id).  Other opponents
  are (seat, interval) or, for an iid marginal, its n-1 other seats, each
  averaged over the whole marginal.
* bid table -- per profile, each opponent's tie mass g and strictly-below
  mass G for every bid, built on first use and shared by all scenarios and
  by the seats that hold one strategy object.
* kernel -- one pass over the scenarios for all bids.  Scenarios whose
  opponents all bid surely below (G = 1) or surely tie (g = 1) add their mass
  to one bucket per (bid, tie count); one surely above (g = G = 0) drops the
  scenario; c split opponents sharing one row fold into a closed form.  The
  vector divides each entry of the sum by D * f_i(v) once.

:func:`utility` is the one utility function: it builds a game over the bid,
or over a distribution's bids, and weighs the utilities ``(v - b) * H(b)``.
Best responses, verification and the search's candidate check read the same
vector.  Verification runs :func:`bidder_deviations`, one deviation loop per
(bidder, value) -- per cell for CFPA -- against one game for the first seat of
each orbit: seats that are exchangeable under the prior (those of an iid prior,
of a permutation-symmetric box list or of one group) and play equal strategies.
Its records are compared once and reported for every seat of the orbit, in seat
order.  A per-group profile on a grouped prior reports under each group's first
seat only, in the prior's group order.  ``verify_pbne`` runs the loop to the
end and ``is_pbne`` stops at the first violation.  The search runs it per
bidder against games it shares between candidates with the same opponents.

Utilities come in two normalizations:

* interim (default) -- expectation over the conditional prior given the
  bidder's own value; this is the quantity in the equilibrium definitions.
* raw -- interim times the bidder's marginal mass f_i(v), i.e. the
  unnormalized expectation over the joint.  Same argmax, convenient for
  reproducing per-gadget tables of the hardness reduction.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Sequence, Union

from .model import (
    ONE,
    ZERO,
    Auction,
    BoxDensity,
    DiscretePrior,
    IIDMarginal,
    JumpStrategy,
    MixedStrategy,
    Profile,
    PureStrategy,
    marginal_mass,
    rat,
    support_values,
)

BidOrMix = Union[Fraction, dict]


@dataclass(frozen=True)
class BestResponseReport:
    argmax: tuple[Fraction, ...]
    best_utility: Fraction
    margin: Fraction | None  # None when every candidate bid is optimal


@dataclass(frozen=True)
class Violation:
    bidder: int
    value: Fraction
    played: object
    best_bid: Fraction
    gain: Fraction


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    eps: Fraction
    max_gain: Fraction
    violations: tuple[Violation, ...]

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# tie-counting DP
# ---------------------------------------------------------------------------

def tie_dp(gs: Sequence[Fraction], Gs: Sequence[Fraction]) -> list[Fraction]:
    """T[r] = P(exactly r of the opponents tie at b, the rest strictly below).

    gs[j] / Gs[j] are opponent j's probabilities of bidding exactly b /
    strictly below b.
    """
    T = [ONE]
    for g, G in zip(gs, Gs):
        nxt = [T[0] * G]
        for k in range(1, len(T)):
            nxt.append(T[k - 1] * g + T[k] * G)
        nxt.append(T[-1] * g)
        T = nxt
    return T


def win_from_ties(T: Sequence[Fraction]) -> Fraction:
    return sum((T[r] / (r + 1) for r in range(len(T))), ZERO)


def _mixed_row(strategy, value: Fraction) -> dict[Fraction, Fraction]:
    if isinstance(strategy, PureStrategy):
        return {strategy.bid_at(value): ONE}
    if isinstance(strategy, MixedStrategy):
        return strategy.row(value)
    raise TypeError(f"need a pure or mixed strategy, got {type(strategy).__name__}")


# ---------------------------------------------------------------------------
# scenarios: f_i(v), D and the (mass * D, opponents) of every scenario
# ---------------------------------------------------------------------------

def _discrete_scenarios(prior: DiscretePrior, i: int, v: Fraction):
    """Support points with v_i = v, from the prior's index; opponents are
    (bidder, value id)."""
    fi, scenarios = prior.index.by_value[i].get(v, (ZERO, ()))
    return fi, prior.index.den, scenarios


def _box_scenarios(prior: BoxDensity, i: int, v: Fraction):
    """Expanded boxes whose i-th edge holds v.  Within a box the opponents'
    values are independent and uniform per coordinate; opponents are
    (bidder, interval).  Boxes flat in an opponent coordinate carry no mass."""
    fi = ZERO
    scenarios = []
    for lo, hi, w in prior.expanded_boxes:
        if not lo[i] <= v <= hi[i]:
            continue
        opponents = tuple((j, (lo[j], hi[j])) for j in range(prior.n) if j != i)
        mass = _box_mass(w, opponents)
        if mass is not None:
            fi += mass
            scenarios.append((mass, opponents))
    return fi, 1, scenarios


def _iid_scenarios(n: int, prior: IIDMarginal, i: int, v: Fraction):
    """One scenario of conditional mass 1, the other seats as (seat, None)."""
    opponents = tuple((j, None) for j in range(n) if j != i)
    return marginal_mass(prior, i, v), 1, [(1, opponents)]


def _box_mass(weight: Fraction, opponents) -> Fraction | None:
    """weight times the opponents' edge lengths; None for a flat box."""
    for _, (a, c) in opponents:
        if c == a:
            return None
        weight *= c - a
    return weight


# ---------------------------------------------------------------------------
# bid table: each opponent's (g, G) for every bid
# ---------------------------------------------------------------------------

_BELOW, _TIE, _ABOVE, _SPLIT = range(4)


def _kind(g: Fraction, G: Fraction) -> int:
    if g == 0:
        if G == 1:
            return _BELOW
        if G == 0:
            return _ABOVE
    elif g == 1 and G == 0:
        return _TIE
    return _SPLIT


class _BidTable(dict):
    """(seat, point) -> (kinds, gs, Gs) over the bids, computed on first
    lookup; seats holding the same strategy object share one row, which the
    kernel folds.  ``kinds[k]`` says which shortcut, if any, applies at bid k."""

    def __init__(self, seat, masses):
        super().__init__()
        self._seat = seat
        self._masses = masses  # (strategy, point) -> (gs, Gs)
        self._rows: dict = {}  # (id(strategy), point) -> row

    def __missing__(self, key):
        s, point = key
        strategy = self._seat(s)
        shared = id(strategy), point
        if shared not in self._rows:
            gs, Gs = self._masses(strategy, point)
            self._rows[shared] = (bytes(map(_kind, gs, Gs)), gs, Gs)
        row = self[key] = self._rows[shared]
        return row


def _discrete_masses(bids, strategy, value: Fraction):
    """Tie and strictly-below masses of the strategy's row at ``value``, per bid."""
    row = _mixed_row(strategy, value)
    gs = [row.get(b, ZERO) for b in bids]
    Gs = [sum((w for bb, w in row.items() if bb < b), ZERO) for b in bids]
    return gs, Gs


def _jump_masses(positions, strategy, interval):
    """Tie and strictly-below length fractions of the interval, per bid."""
    if not isinstance(strategy, JumpStrategy):
        raise TypeError("CFPA opponents must play jump strategies")
    lo, hi = interval
    length = hi - lo
    gs = [strategy.mass_at_bid(jb, lo, hi) / length for jb in positions]
    Gs = [strategy.mass_below_bid(jb, lo, hi) / length for jb in positions]
    return gs, Gs


def _iid_masses(positions, pieces, strategy, _):
    """Tie and strictly-below masses per bid, averaged over the marginal:
    sum_j p_j * (length of piece j mapped to exactly / strictly below b)."""
    if not isinstance(strategy, JumpStrategy):
        raise TypeError("CFPA opponents must play jump strategies")
    at, below = strategy.mass_at_bid, strategy.mass_below_bid
    gs = [sum((p * at(jb, a, c) for a, c, p in pieces), ZERO) for jb in positions]
    Gs = [sum((p * below(jb, a, c) for a, c, p in pieces), ZERO) for jb in positions]
    return gs, Gs


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def _win_masses(scenarios, table: _BidTable, nbids: int) -> list[Fraction]:
    """sum over scenarios of mass * P(win with bid k), for every bid k.

    Scenarios without split opponents add their mass (an integer, on a
    discrete index) to one bucket per (bid, tie count), divided by ties + 1 once.
    c split opponents sharing one row, and no sure ties, win with probability
    sum_r C(c,r) g^r G^(c-r) / (r+1) = ((G+g)^(c+1) - G^(c+1)) / ((c+1) g),
    or G^c when g = 0; anything else goes through the tie DP."""
    H = [ZERO] * nbids
    buckets = [{} for _ in range(nbids)]  # tie count -> summed mass, per bid
    for mass, opponents in scenarios:
        rows = [table[o] for o in opponents]
        # column k: every opponent's kind at bid k
        columns = zip(*(row[0] for row in rows)) if rows else [()] * nbids
        for k, column in enumerate(columns):
            if _ABOVE in column:
                continue
            ties = column.count(_TIE)
            if _SPLIT not in column:
                buckets[k][ties] = buckets[k].get(ties, 0) + mass
                continue
            split = [row for row, kind in zip(rows, column) if kind == _SPLIT]
            if not ties and all(row is split[0] for row in split):
                g, G, c = split[0][1][k], split[0][2][k], len(split)
                H[k] += mass * (
                    ((G + g) ** (c + 1) - G ** (c + 1)) / ((c + 1) * g) if g else G**c
                )
            else:
                T = tie_dp([r[1][k] for r in split], [r[2][k] for r in split])
                H[k] += mass * sum((t / (r + ties + 1) for r, t in enumerate(T)), ZERO)
    return [h + sum((Fraction(m, t + 1) for t, m in b.items()), ZERO) for h, b in zip(H, buckets)]


class _Game:
    """An auction and a profile: the scenario generator of the prior's kind,
    one bid table over ``bids`` and the vectors per (bidder, value).  Every
    seat's strategy is read through ``profile.for_bidder``; a grouped prior
    is evaluated on its cached expansion."""

    def __init__(self, auction: Auction, profile: Profile, bids=None):
        prior = auction.prior
        self.bids = tuple(auction.bids if bids is None else bids)
        self._memo: dict = {}
        self._iid = isinstance(prior, IIDMarginal)
        if auction.is_discrete:
            self._scenarios = _discrete_scenarios
            bids, values = self.bids, prior.index.values
            masses = lambda s, vid: _discrete_masses(bids, s, values[vid])  # noqa: E731
            self.pieces = None
        else:
            positions = [auction.bids.index(b) for b in self.bids]
            if self._iid:
                self._scenarios = partial(_iid_scenarios, auction.n)
                masses = partial(_iid_masses, positions, prior.pieces)
            elif isinstance(prior, BoxDensity):
                self._scenarios = _box_scenarios
                masses = partial(_jump_masses, positions)
            else:
                raise TypeError(f"unsupported prior {type(prior).__name__}")
            # H is constant while v stays inside one piece of the axis cuts
            self.pieces = [prior.axis_breakpoints(i) for i in range(auction.n)]
        self.prior = prior
        self._table = _BidTable(profile.for_bidder, masses)

    def vector(self, i: int, v: Fraction):
        """(f_i(v), [H_i(b; v) for b in bids]), memoised per (bidder, value)
        on DFPA and per piece of the axis cuts on CFPA.  No vector when
        f_i(v) = 0."""
        if self.pieces is None:
            key = (i, v)
        else:
            cuts = self.pieces[i]
            key = (i, bisect_left(cuts, v), bisect_right(cuts, v))
        if key not in self._memo:
            fi, den, scenarios = self._scenarios(self.prior, i, v)
            vec = None
            if fi != 0 and self._iid:
                # the opponents, hence H, do not depend on v: one kernel per bidder
                if (i,) not in self._memo:
                    self._memo[i,] = _win_masses(scenarios, self._table, len(self.bids))
                vec = self._memo[i,]
            elif fi != 0:
                norm = den * fi
                vec = [x / norm for x in _win_masses(scenarios, self._table, len(self.bids))]
            self._memo[key] = fi, vec
        return self._memo[key]

    def supported(self, i: int, v: Fraction):
        fi, H = self.vector(i, v)
        if fi == 0:
            raise ValueError(f"value {v} outside marginal support of bidder {i}")
        return fi, H

    def utilities(self, i: int, v: Fraction, raw: bool) -> list[Fraction]:
        """Utility of each pure bid."""
        fi, H = self.supported(i, v)
        out = [(v - b) * h for b, h in zip(self.bids, H)]
        return [u * fi for u in out] if raw else out


def _as_mix(bid: BidOrMix) -> dict:
    mix = bid if isinstance(bid, dict) else {bid: ONE}
    return {rat(b): w for b, w in mix.items() if w != 0}


# ---------------------------------------------------------------------------
# utilities and best responses
# ---------------------------------------------------------------------------

def utility(
    auction: Auction,
    i: int,
    v: Fraction,
    bid: BidOrMix,
    opponents: Profile,
    raw: bool = False,
) -> Fraction:
    """Interim (or raw) utility of bidding ``bid``: a bid or, on DFPA, a
    distribution over bids.

    On CFPA the opponents play jump strategies; within each
    conditional-support box their values are independent and uniform per
    coordinate, and iid opponents are averaged over the marginal.
    """
    mix = _as_mix(bid) if auction.is_discrete else {rat(bid): ONE}
    us = _Game(auction, opponents, mix).utilities(i, rat(v), raw)
    return sum((w * u for w, u in zip(mix.values(), us)), ZERO)


def win_prob_dfpa(
    auction: Auction, i: int, v: Fraction, b: Fraction, opponents: Profile
) -> Fraction:
    """Probability that bidder i wins with bid b, conditioned on value v."""
    return _Game(auction, opponents, [rat(b)]).supported(i, rat(v))[1][0]


def best_response(
    auction: Auction,
    i: int,
    v: Fraction,
    opponents: Profile,
    no_overbidding: bool = True,
    raw: bool = False,
) -> BestResponseReport:
    """Argmax bids, best utility and the margin to the best non-argmax bid."""
    v = rat(v)
    candidates = [b for b in auction.bids if not no_overbidding or b <= v]
    game = _Game(auction, opponents, candidates)
    utils = dict(zip(candidates, game.utilities(i, v, raw)))
    best = max(utils.values())
    argmax = tuple(b for b in candidates if utils[b] == best)
    rest = [u for b, u in utils.items() if b not in argmax]
    margin = best - max(rest) if rest else None
    return BestResponseReport(argmax=argmax, best_utility=best, margin=margin)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_monotone(strategy) -> bool:
    """Nondecreasing bids in value; for mixed rows, ordered supports."""
    if isinstance(strategy, JumpStrategy):
        return True
    if isinstance(strategy, PureStrategy):
        bids = [b for _, b in strategy.mapping]
        return all(b1 <= b2 for b1, b2 in zip(bids, bids[1:]))
    if isinstance(strategy, MixedStrategy):
        rows = strategy.table
        for (_, d1), (_, d2) in zip(rows, rows[1:]):
            hi = max(b for b, w in d1 if w > 0)
            lo = min(b for b, w in d2 if w > 0)
            if hi > lo:
                return False
        return True
    raise TypeError(f"unknown strategy type {type(strategy).__name__}")


def check_affiliation(prior) -> tuple[bool, tuple | None]:
    """Exact affiliation (MTP2) check; returns a violating pair on failure."""
    if isinstance(prior, IIDMarginal):
        return True, None
    if isinstance(prior, DiscretePrior):
        pts, f = [t for t, _ in prior.expanded.support], prior.mass
    elif isinstance(prior, BoxDensity):
        pts, f = [pt for pt, d in prior.cell_densities if d > 0], prior.density_at
    else:
        raise TypeError(f"unsupported prior {type(prior).__name__}")
    for a in pts:
        for b in pts:
            join = tuple(max(x, y) for x, y in zip(a, b))
            meet = tuple(min(x, y) for x, y in zip(a, b))
            if f(join) * f(meet) < f(a) * f(b):
                return False, (a, b)
    return True, None


# ---------------------------------------------------------------------------
# equilibrium verification
# ---------------------------------------------------------------------------

def _cfpa_cells(axis_cuts: Sequence[Fraction], own: JumpStrategy):
    """Open intervals of constant conditional and constant own bid."""
    cuts = set(axis_cuts)
    cuts.update(own.thresholds)
    cuts = sorted(cuts)
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def bidder_deviations(auction: Auction, game: _Game, i: int, strategy):
    """Yield (bidder, value, played, best_bid, gain) for every checked
    deviation of bidder i playing ``strategy``, value by value.  ``game``
    holds the opponents; bidder i's own seat in it is never read.

    DFPA: one record per value of positive marginal mass, against all bids;
    ``strategy=None`` yields one record per (value, bid) instead, the gain of
    playing that bid there.
    CFPA: jump strategies are checked cell by cell on the arrangement grid of
    box endpoints and jump thresholds; H is constant across an open cell and
    utilities are linear in v, so the supremum of a deviation gain over the
    cell is attained at an endpoint limit.
    """
    bids = game.bids
    position = {b: k for k, b in enumerate(bids)}
    if auction.is_discrete:
        for v in support_values(auction.prior, i):
            _, H = game.vector(i, v)
            us = [(v - b) * h for b, h in zip(bids, H)]
            if strategy is None:
                rows = zip(((b,) for b in bids), us)
            else:
                played = _mixed_row(strategy, v)
                current = ZERO
                for b, w in played.items():
                    if b not in position:
                        raise ValueError(f"bid {b} at value {v} not in bid space")
                    current += w * us[position[b]]
                rows = [(tuple(sorted(b for b, w in played.items() if w > 0)), current)]
            top = max(us)
            top_bid = bids[us.index(top)]
            for played_bids, current in rows:
                best, best_bid = (top, top_bid) if top > current else (current, None)
                yield i, v, played_bids, best_bid, best - current
        return
    if not isinstance(strategy, JumpStrategy):
        raise TypeError("CFPA verification expects jump strategies")
    for lo, hi in _cfpa_cells(game.pieces[i], strategy):
        mid = Fraction(lo + hi, 2)
        fi, h = game.vector(i, mid)
        if fi == 0:
            continue  # cell outside the marginal's support
        cur = strategy.bid_at(mid)
        ends = [(vpt, (vpt - cur) * h[position[cur]]) for vpt in (lo, hi)]
        for b, hb in zip(bids, h):
            for vpt, current in ends:
                yield i, vpt, cur, b, (vpt - b) * hb - current


def _orbits(auction: Auction, profile: Profile) -> list[list[int]]:
    """Seats exchangeable under the prior -- all seats of an iid prior or of a
    permutation-symmetric ungrouped box list, one group of a grouped prior --
    split by equal strategies, sorted by first seat."""
    prior, n = auction.prior, auction.n
    boxes = isinstance(prior, BoxDensity) and prior.groups is None
    iid = isinstance(prior, IIDMarginal)
    orbits: list[list[int]] = []
    for members in [range(n)] if boxes or iid else prior.groups or [[i] for i in range(n)]:
        start = len(orbits)
        for i in members:
            s = profile.for_bidder(i)
            orbit = next((o for o in orbits[start:] if profile.for_bidder(o[0]) == s), [])
            if not orbit:
                orbits.append(orbit)
            orbit.append(i)
    if boxes and len(orbits) < n and not prior.permutation_symmetric:
        return [[i] for i in range(n)]
    return sorted(orbits)


def _deviations(auction: Auction, profile: Profile):
    """(seats, records) per orbit against one game of the profile.  A
    per-group profile on a grouped prior reports its records under each
    group's first seat only, in the prior's group order."""
    game = _Game(auction, profile)
    groups = getattr(auction.prior, "groups", None)
    if profile.symmetric and groups is not None:
        orbits = [[g[0]] for g in groups]
    else:
        orbits = _orbits(auction, profile)
    for seats in orbits:
        yield seats, bidder_deviations(auction, game, seats[0], profile.for_bidder(seats[0]))


def _verify(
    auction: Auction, profile: Profile, eps: Fraction, first: bool = False
) -> VerificationReport:
    """Run the deviation loop; ``first`` stops at the first violation.  Each
    record is compared once and reported for each seat of its orbit, seat-major."""
    max_gain = ZERO
    violations = []
    replayed = False  # some orbit holds two seats
    for seats, records in _deviations(auction, profile):
        bad = []
        for record in records:
            max_gain = max(max_gain, record[-1])
            if record[-1] > eps:
                bad.append(record[1:])
                if first:
                    break
        violations += [Violation(i, *r) for i in seats for r in bad]
        replayed |= len(seats) > 1
        if first and bad:
            break
    if replayed:  # orbits interleave, as groups ((0, 2), (1,)) do
        violations.sort(key=lambda x: x.bidder)
    return VerificationReport(
        ok=not violations, eps=eps, max_gain=max_gain, violations=tuple(violations)
    )


def _pure(profile: Profile) -> Profile:
    if any(isinstance(s, MixedStrategy) for s in profile.strategies):
        raise TypeError("the profile holds a mixed strategy; verify it with verify_mbne")
    return profile


def verify_pbne(auction: Auction, profile: Profile, eps) -> VerificationReport:
    """Check the epsilon-PBNE condition for every bidder and support value.

    DFPA: every value of positive marginal mass is checked against all bids.
    CFPA: jump-strategy profiles are checked cell-by-cell on the arrangement
    grid of box endpoints and jump thresholds (the almost-everywhere
    criterion; deviation gains are linear per cell so endpoint limits are
    exact).
    """
    return _verify(auction, _pure(profile), rat(eps))


def is_pbne(auction: Auction, profile: Profile, eps) -> bool:
    """``verify_pbne(...).ok``, stopping at the first violation."""
    return _verify(auction, _pure(profile), rat(eps), first=True).ok


def verify_mbne(auction: Auction, profile: Profile, eps) -> VerificationReport:
    """Mixed-profile verification; comparing against pure deviations suffices."""
    eps = rat(eps)
    if not auction.is_discrete:
        raise TypeError("mixed-strategy verification applies to DFPA instances")
    return _verify(auction, profile, eps)
