"""SAT-to-auction hardness reduction and the discrete-to-continuous lift.

The generator consumes 2/3,3-SAT formulas (clauses of width 2 or 3, every
variable occurring at most three times) and emits a DFPA whose exact PBNE
correspond to satisfying assignments.  Bidders come in roles:

* per variable: one hub bidder plus three literal bidders (one per possible
  occurrence), wired so that at equilibrium all of them encode the same
  boolean via their bidding strategy, s0 = (0, 1/7, 2/7) for false and
  s1 = (0, 2/7, 3/7) for true,
* per negated literal occurrence: a NOT bidder and a projection bidder that
  together re-encode the negated bit,
* per clause: one or two layers of OR bidders,
* per clause: an output pair that can only mutually best-respond when the
  clause's OR bidder encodes true.

Mass points carry hand-picked constants scaled by a chain of discounting
factors; everything is normalized by the total unnormalized mass.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .model import (
    ONE,
    ZERO,
    Auction,
    BidSpace,
    BoxDensity,
    DiscretePrior,
    JumpStrategy,
    MixedStrategy,
    Profile,
    PureStrategy,
    rat,
)
from .serialize import FormatError, fmt

V_LOW = Fraction(23, 64)
VALUES = (ZERO, V_LOW, ONE)
B1, B2, B3 = Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)
REDUCTION_BIDS = BidSpace([ZERO, B1, B2, B3])

S0 = (ZERO, B1, B2)  # encodes false
S1 = (ZERO, B2, B3)  # encodes true
NOT_OF_TRUE = (ZERO, B1, B1)  # NOT bidder's best response to s1


def _strategy(bidder: int, triple: Sequence[Fraction]) -> PureStrategy:
    return PureStrategy(bidder, dict(zip(VALUES, triple)))


def strategy_triple(strategy: PureStrategy) -> tuple[Fraction, ...]:
    return tuple(strategy.bid_at(v) for v in VALUES)


# ---------------------------------------------------------------------------
# SAT input
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SatFormula:
    """2/3,3-SAT: clause widths in {2,3}, each variable occurs at most 3 times.

    Literals use the DIMACS convention: +v / -v with variables numbered from 1.
    """

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __init__(self, num_vars: int, clauses):
        object.__setattr__(self, "num_vars", int(num_vars))
        object.__setattr__(self, "clauses", tuple(tuple(int(l) for l in c) for c in clauses))
        for c in self.clauses:
            if len(c) not in (2, 3):
                raise ValueError(f"clause {c} has width {len(c)}, need 2 or 3")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range")
        counts = {}
        for c in self.clauses:
            for lit in c:
                counts[abs(lit)] = counts.get(abs(lit), 0) + 1
        for var, cnt in counts.items():
            if cnt > 3:
                raise ValueError(f"variable {var} occurs {cnt} times, at most 3 allowed")

    def satisfies(self, assignment: dict[int, int]) -> bool:
        for c in self.clauses:
            if not any(
                (assignment[abs(lit)] == 1) == (lit > 0) for lit in c
            ):
                return False
        return True


def parse_sat(text: str) -> SatFormula:
    """Parse a DIMACS-style CNF restricted to clause widths 2 and 3."""
    num_vars = None
    clauses = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            m = re.match(r"p\s+cnf\s+(\d+)\s+(\d+)", line)
            if not m:
                raise ValueError(f"bad problem line: {line!r}")
            num_vars = int(m.group(1))
            continue
        lits = [int(tok) for tok in line.split()]
        if lits and lits[-1] == 0:
            lits = lits[:-1]
        if lits:
            clauses.append(tuple(lits))
    if num_vars is None:
        num_vars = max((abs(l) for c in clauses for l in c), default=0)
    return SatFormula(num_vars, clauses)


# ---------------------------------------------------------------------------
# discount chain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeltaChain:
    """Discount factors for the gadget layers plus derived normalization.

    The strict ladder keeps every layer's best response dependent only on the
    previous layer: d_not < 33/1792, d_proj < (33/3584) d_not,
    d_or1 < (33/3584) d_proj, d_or2 < (1/1792) d_or1, d_out < (1/672) d_or2.
    ``total`` is the sum of unnormalized mass constants and ``eps_threshold``
    the least of the per-layer uniqueness margins; both are filled in by
    build_auction.
    """

    d_not: Fraction
    d_proj: Fraction
    d_or1: Fraction
    d_or2: Fraction
    d_out: Fraction
    total: Fraction | None = None
    eps_threshold: Fraction | None = None

    def ladder_violations(self) -> tuple[str, ...]:
        errs = []
        for name in ("d_not", "d_proj", "d_or1", "d_or2", "d_out"):
            if getattr(self, name) <= 0:
                errs.append(f"{name} must be positive")
        bounds = [
            ("d_not", self.d_not, Fraction(33, 1792)),
            ("d_proj", self.d_proj, Fraction(33, 3584) * self.d_not),
            ("d_or1", self.d_or1, Fraction(33, 3584) * self.d_proj),
            ("d_or2", self.d_or2, Fraction(1, 1792) * self.d_or1),
            ("d_out", self.d_out, Fraction(1, 672) * self.d_or2),
        ]
        for name, val, bound in bounds:
            if not val < bound:
                errs.append(f"{name}={val} violates strict bound < {bound}")
        return tuple(errs)

    def lemma_epsilons(self, total: Fraction) -> tuple[Fraction, ...]:
        return (
            (Fraction(33, 896) - 2 * self.d_not) / total,
            (Fraction(33, 1792) * self.d_not - 2 * self.d_proj) / total,
            (Fraction(33, 1792) * self.d_proj - 2 * self.d_or1) / total,
            (Fraction(1, 896) * self.d_or1 - 2 * self.d_or2) / total,
            (Fraction(1, 896) * self.d_or2 - Fraction(3, 4) * self.d_out) / total,
            self.d_out / (56 * total),
        )


def half_bound_chain() -> DeltaChain:
    """Each discount set to half its strict upper bound, cascaded."""
    d_not = Fraction(33, 1792) / 2
    d_proj = Fraction(33, 3584) * d_not / 2
    d_or1 = Fraction(33, 3584) * d_proj / 2
    d_or2 = Fraction(1, 1792) * d_or1 / 2
    d_out = Fraction(1, 672) * d_or2 / 2
    return DeltaChain(d_not, d_proj, d_or1, d_or2, d_out)


# ---------------------------------------------------------------------------
# roles and construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Role:
    kind: str  # input-hub | input-lit | not | proj | or1 | or2 | out
    variable: int | None = None
    clause: int | None = None
    slot: int | None = None


@dataclass(frozen=True)
class ReductionMap:
    """Bidder-role bookkeeping for a generated instance."""

    roles: tuple[Role, ...]
    chain: DeltaChain
    var_hub: tuple[int, ...]  # variable index (0-based) -> hub bidder
    var_literals: tuple[tuple[int, ...], ...]  # -> the 3 literal bidders
    lit_consumers: tuple[tuple[int, int, int, int | None, int | None], ...]
    # one record per clause-literal occurrence:
    # (clause, literal, literal bidder, not bidder | None, proj bidder | None)
    clause_inputs: tuple[tuple[int, ...], ...]  # clause -> wired input bidders
    clause_or1: tuple[int | None, ...]
    clause_or2: tuple[int, ...]
    clause_out: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.roles)


class _Builder:
    def __init__(self):
        self.roles: list[Role] = []
        self.points: list[tuple[dict[int, Fraction], Fraction]] = []

    def bidder(self, role: Role) -> int:
        self.roles.append(role)
        return len(self.roles) - 1

    def add(self, assigns: dict[int, Fraction], coeff: Fraction) -> None:
        self.points.append((dict(assigns), coeff))

    def input_gadget(self, hub: int, lits: Sequence[int]) -> None:
        for lit in lits:
            self.add({lit: V_LOW}, Fraction(33, 128))
        for lit in lits:
            self.add({hub: V_LOW, lit: V_LOW}, Fraction(2))
        for lit in lits:
            self.add({hub: V_LOW, lit: ONE}, Fraction(1))

    def not_gadget(self, lit: int, notb: int, d: Fraction) -> None:
        self.add({notb: V_LOW}, Fraction(33, 256) * d)
        self.add({notb: ONE}, d)
        self.add({lit: ONE, notb: V_LOW}, d)
        self.add({lit: ONE, notb: ONE}, d)

    def proj_gadget(self, notb: int, projb: int, d: Fraction) -> None:
        self.add({projb: V_LOW}, Fraction(33, 256) * d)
        self.add({notb: V_LOW, projb: V_LOW}, d)
        self.add({notb: V_LOW, projb: ONE}, d)

    def or_gadget(self, a: int, b: int, orb: int, d: Fraction) -> None:
        self.add({orb: V_LOW}, Fraction(1, 128) * d)
        self.add({a: V_LOW, orb: V_LOW}, d)
        self.add({a: V_LOW, orb: ONE}, d)
        self.add({b: V_LOW, orb: V_LOW}, d)
        self.add({b: V_LOW, orb: ONE}, d)

    def out_gadget(self, or2b: int, k: int, l: int, d: Fraction) -> None:
        self.add({k: ONE}, d)
        self.add({l: ONE}, d)
        self.add({or2b: V_LOW, k: ONE, l: ONE}, Fraction(3, 4) * d)

    def finish(self, chain: DeltaChain) -> tuple[Auction, Fraction]:
        n = len(self.roles)
        total = sum((c for _, c in self.points), ZERO)
        support = []
        for assigns, coeff in self.points:
            tup = [ZERO] * n
            for idx, val in assigns.items():
                tup[idx] = val
            support.append((tuple(tup), coeff / total))
        covered = {idx for assigns, _ in self.points for idx in assigns}
        assert covered == set(range(n)), "every bidder needs a positive-value point"
        prior = DiscretePrior(n, [VALUES] * n, support)
        return Auction(REDUCTION_BIDS, prior), total


def build_auction(
    formula: SatFormula, chain: DeltaChain | None = None
) -> tuple[Auction, ReductionMap]:
    """Generate the DFPA encoding a 2/3,3-SAT formula."""
    if chain is None:
        chain = half_bound_chain()
    errs = chain.ladder_violations()
    if errs:
        raise ValueError("; ".join(errs))

    b = _Builder()
    var_hub, var_literals = [], []
    for x in range(formula.num_vars):
        hub = b.bidder(Role("input-hub", variable=x))
        lits = tuple(
            b.bidder(Role("input-lit", variable=x, slot=s)) for s in range(3)
        )
        b.input_gadget(hub, lits)
        var_hub.append(hub)
        var_literals.append(lits)

    next_slot = [0] * formula.num_vars
    lit_consumers = []
    clause_inputs, clause_or1, clause_or2, clause_out = [], [], [], []
    for ci, clause in enumerate(formula.clauses):
        inputs = []
        for lit in clause:
            x = abs(lit) - 1
            lit_bidder = var_literals[x][next_slot[x]]
            next_slot[x] += 1
            if lit < 0:
                notb = b.bidder(Role("not", variable=x, clause=ci))
                b.not_gadget(lit_bidder, notb, chain.d_not)
                projb = b.bidder(Role("proj", variable=x, clause=ci))
                b.proj_gadget(notb, projb, chain.d_proj)
                lit_consumers.append((ci, lit, lit_bidder, notb, projb))
                inputs.append(projb)
            else:
                lit_consumers.append((ci, lit, lit_bidder, None, None))
                inputs.append(lit_bidder)
        if len(inputs) == 3:
            or1 = b.bidder(Role("or1", clause=ci))
            b.or_gadget(inputs[0], inputs[1], or1, chain.d_or1)
            or2 = b.bidder(Role("or2", clause=ci))
            b.or_gadget(or1, inputs[2], or2, chain.d_or2)
            clause_or1.append(or1)
        else:
            or2 = b.bidder(Role("or2", clause=ci))
            b.or_gadget(inputs[0], inputs[1], or2, chain.d_or2)
            clause_or1.append(None)
        outk = b.bidder(Role("out", clause=ci, slot=0))
        outl = b.bidder(Role("out", clause=ci, slot=1))
        b.out_gadget(or2, outk, outl, chain.d_out)
        clause_inputs.append(tuple(inputs))
        clause_or2.append(or2)
        clause_out.append((outk, outl))

    auction, total = b.finish(chain)
    eps = min(chain.lemma_epsilons(total))
    chain = replace(chain, total=total, eps_threshold=eps)
    rmap = ReductionMap(
        roles=tuple(b.roles),
        chain=chain,
        var_hub=tuple(var_hub),
        var_literals=tuple(var_literals),
        lit_consumers=tuple(lit_consumers),
        clause_inputs=tuple(clause_inputs),
        clause_or1=tuple(clause_or1),
        clause_or2=tuple(clause_or2),
        clause_out=tuple(clause_out),
    )
    return auction, rmap


# ---------------------------------------------------------------------------
# isolated gadget fixtures (table reproduction)
# ---------------------------------------------------------------------------

def isolated_gadget(family: str, chain: DeltaChain | None = None):
    """Instance holding exactly one gadget's mass points.

    Returns (auction, bidders, scale) where ``bidders`` maps role names to
    indices and ``scale`` is the instance's unnormalized total divided by the
    gadget's discount factor: scale * interim-or-raw bookkeeping reproduces
    the per-gadget analysis tables (raw utilities times total/discount).
    """
    if chain is None:
        chain = half_bound_chain()
    b = _Builder()
    if family == "input":
        hub = b.bidder(Role("input-hub", variable=0))
        lits = tuple(b.bidder(Role("input-lit", variable=0, slot=s)) for s in range(3))
        b.input_gadget(hub, lits)
        names = {"hub": hub, "lits": lits}
        discount = ONE
    elif family == "not":
        lit = b.bidder(Role("input-lit", variable=0, slot=0))
        notb = b.bidder(Role("not", variable=0, clause=0))
        b.not_gadget(lit, notb, chain.d_not)
        names = {"lit": lit, "not": notb}
        discount = chain.d_not
    elif family == "proj":
        notb = b.bidder(Role("not", variable=0, clause=0))
        projb = b.bidder(Role("proj", variable=0, clause=0))
        b.proj_gadget(notb, projb, chain.d_proj)
        names = {"not": notb, "proj": projb}
        discount = chain.d_proj
    elif family in ("or1", "or2"):
        a = b.bidder(Role("input-lit", variable=0, slot=0))
        bb = b.bidder(Role("input-lit", variable=1, slot=0))
        orb = b.bidder(Role(family, clause=0))
        b.or_gadget(a, bb, orb, chain.d_or1 if family == "or1" else chain.d_or2)
        names = {"a": a, "b": bb, "or": orb}
        discount = chain.d_or1 if family == "or1" else chain.d_or2
    elif family == "out":
        or2b = b.bidder(Role("or2", clause=0))
        outk = b.bidder(Role("out", clause=0, slot=0))
        outl = b.bidder(Role("out", clause=0, slot=1))
        b.out_gadget(or2b, outk, outl, chain.d_out)
        names = {"or2": or2b, "k": outk, "l": outl}
        discount = chain.d_out
    else:
        raise ValueError(f"unknown gadget family {family!r}")
    auction, total = b.finish(chain)
    return auction, names, total / discount


# ---------------------------------------------------------------------------
# encoding and extraction
# ---------------------------------------------------------------------------

def encode_profile(assignment: dict[int, int], rmap: ReductionMap) -> Profile:
    """Pure profile realizing an assignment: operator bidders best-respond."""
    bits: dict[int, int] = {}
    triples: dict[int, tuple[Fraction, ...]] = {}

    def s_of(bit: int) -> tuple[Fraction, ...]:
        return S1 if bit else S0

    for x in range(len(rmap.var_hub)):
        a = int(assignment[x + 1])
        triples[rmap.var_hub[x]] = s_of(a)
        for lit_bidder in rmap.var_literals[x]:
            triples[lit_bidder] = s_of(a)
            bits[lit_bidder] = a
    for ci, lit, lit_bidder, notb, projb in rmap.lit_consumers:
        if notb is not None:
            a = bits[lit_bidder]
            triples[notb] = NOT_OF_TRUE if a else S1
            triples[projb] = s_of(1 - a)
            bits[projb] = 1 - a
    for ci, inputs in enumerate(rmap.clause_inputs):
        if rmap.clause_or1[ci] is not None:
            or1 = rmap.clause_or1[ci]
            bit1 = bits[inputs[0]] | bits[inputs[1]]
            triples[or1] = s_of(bit1)
            bits[or1] = bit1
            or2_bit = bit1 | bits[inputs[2]]
        else:
            or2_bit = bits[inputs[0]] | bits[inputs[1]]
        or2 = rmap.clause_or2[ci]
        triples[or2] = s_of(or2_bit)
        bits[or2] = or2_bit
        outk, outl = rmap.clause_out[ci]
        triples[outk] = (ZERO, ZERO, B1)
        triples[outl] = (ZERO, ZERO, B3)
    return Profile([_strategy(i, triples[i]) for i in range(rmap.n)])


def extract_assignment(profile: Profile, rmap: ReductionMap) -> dict[int, int] | None:
    """Read the boolean assignment off the first literal bidder per variable;
    None when some literal bidder plays outside {s0, s1}."""
    assignment = {}
    for x, lits in enumerate(rmap.var_literals):
        triple = strategy_triple(profile.strategies[lits[0]])
        if triple == S0:
            assignment[x + 1] = 0
        elif triple == S1:
            assignment[x + 1] = 1
        else:
            return None
    return assignment


# ---------------------------------------------------------------------------
# role-map and parameter files
# ---------------------------------------------------------------------------

def map_to_doc(rmap: ReductionMap) -> dict:
    return {
        "kind": "reduction-map",
        "roles": [
            {
                "kind": r.kind,
                "variable": r.variable,
                "clause": r.clause,
                "slot": r.slot,
            }
            for r in rmap.roles
        ],
        "chain": chain_to_doc(rmap.chain),
        "var_hub": list(rmap.var_hub),
        "var_literals": [list(t) for t in rmap.var_literals],
        "lit_consumers": [list(t) for t in rmap.lit_consumers],
        "clause_inputs": [list(t) for t in rmap.clause_inputs],
        "clause_or1": list(rmap.clause_or1),
        "clause_or2": list(rmap.clause_or2),
        "clause_out": [list(t) for t in rmap.clause_out],
    }


def map_from_doc(doc: dict) -> ReductionMap:
    """The map in ``doc``, once it is the map ``build_auction`` gives for the
    formula that its ``lit_consumers`` encode, under its own deltas."""
    if doc.get("kind") != "reduction-map":
        raise ValueError(f"expected reduction-map document, got {doc.get('kind')!r}")
    try:
        rmap = ReductionMap(
            roles=tuple(
                Role(r["kind"], r["variable"], r["clause"], r["slot"])
                for r in doc["roles"]
            ),
            chain=chain_from_doc(doc["chain"]),
            var_hub=tuple(doc["var_hub"]),
            var_literals=tuple(tuple(t) for t in doc["var_literals"]),
            lit_consumers=tuple(tuple(t) for t in doc["lit_consumers"]),
            clause_inputs=tuple(tuple(t) for t in doc["clause_inputs"]),
            clause_or1=tuple(doc["clause_or1"]),
            clause_or2=tuple(doc["clause_or2"]),
            clause_out=tuple(tuple(t) for t in doc["clause_out"]),
        )
    except KeyError as exc:
        raise FormatError(f"reduction-map document lacks field {exc.args[0]!r}") from None
    clauses: dict = {}
    for clause, lit, *_ in rmap.lit_consumers:
        clauses.setdefault(clause, []).append(lit)
    formula = SatFormula(len(rmap.var_hub), clauses.values())
    chain = replace(rmap.chain, total=None, eps_threshold=None)
    if build_auction(formula, chain)[1] != rmap:
        raise FormatError("reduction-map document is not the map of the formula it encodes")
    return rmap


def chain_to_doc(chain: DeltaChain) -> dict:
    doc = {
        "delta_not": fmt(chain.d_not),
        "delta_proj": fmt(chain.d_proj),
        "delta_or1": fmt(chain.d_or1),
        "delta_or2": fmt(chain.d_or2),
        "delta_out": fmt(chain.d_out),
    }
    if chain.total is not None:
        doc["delta_total"] = fmt(chain.total)
    if chain.eps_threshold is not None:
        doc["eps_threshold"] = fmt(chain.eps_threshold)
    return doc


def chain_from_doc(doc: dict) -> DeltaChain:
    return DeltaChain(
        d_not=rat(doc["delta_not"]),
        d_proj=rat(doc["delta_proj"]),
        d_or1=rat(doc["delta_or1"]),
        d_or2=rat(doc["delta_or2"]),
        d_out=rat(doc["delta_out"]),
        total=rat(doc["delta_total"]) if "delta_total" in doc else None,
        eps_threshold=rat(doc["eps_threshold"]) if "eps_threshold" in doc else None,
    )


# ---------------------------------------------------------------------------
# DFPA -> CFPA lift and strategy projection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LiftResult:
    cfpa: Auction
    delta: Fraction  # cube side actually applied
    rescale_loss: Fraction  # gamma' when values had to be pulled away from 1
    dfpa: Auction  # the (possibly rescaled) discrete instance that was lifted


def _all_values(prior) -> set[Fraction]:
    return {v for vs in prior.value_spaces for v in vs}


def _min_gap(points: set[Fraction]) -> Fraction:
    pts = sorted(points)
    gaps = [b - a for a, b in zip(pts, pts[1:]) if b > a]
    return min(gaps) if gaps else ONE


def _rescale_prior(prior: DiscretePrior, factor: Fraction) -> DiscretePrior:
    return DiscretePrior(
        prior.n,
        [[v * factor for v in vs] for vs in prior.value_spaces],
        [(tuple(v * factor for v in t), m) for t, m in prior.support],
        prior.groups,
    )


def lift_dfpa_to_cfpa(auction: Auction, delta) -> LiftResult:
    """Replace every support point by a cube of side delta with matching mass.

    delta must stay below the least pairwise gap of bids and values and below
    1 - max value; when violated it is shrunk automatically, and when 1 is a
    possible value the value spaces are first rescaled by (1 - gamma'),
    costing an extra gamma' of equilibrium approximation (reported).
    """
    delta = rat(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    prior = auction.prior
    if not isinstance(prior, DiscretePrior):
        raise TypeError("lift starts from a discrete instance")

    rescale_loss = ZERO
    values = _all_values(prior)
    if max(values) >= 1:
        gamma = _min_gap(values | set(auction.bids.bids)) / 4
        rescale_loss = gamma
        prior = _rescale_prior(prior, 1 - gamma)
        values = _all_values(prior)

    pool = values | set(auction.bids.bids)
    bound = min(_min_gap(pool), 1 - max(values))
    applied = delta if delta < bound else bound / 2

    n = prior.n
    boxes = [
        (tuple(t), tuple(v + applied for v in t), m / applied**n) for t, m in prior.support
    ]
    box_prior = BoxDensity(n, boxes, prior.groups)
    dfpa = Auction(auction.bids, prior)
    return LiftResult(
        cfpa=Auction(auction.bids, box_prior),
        delta=applied,
        rescale_loss=rescale_loss,
        dfpa=dfpa,
    )


def project_strategy(
    cfpa_profile: Profile, dfpa: Auction, delta
) -> Profile:
    """Mixed DFPA profile induced by a monotone CFPA jump profile: at value v
    play the bid distribution of the jump strategy on [v, v + delta]."""
    delta = rat(delta)
    prior = dfpa.prior
    if prior.groups is not None and cfpa_profile.groups is not None:
        strategies = []
        for g, strat in enumerate(cfpa_profile.strategies):
            values = prior.value_spaces[prior.groups[g][0]]
            strategies.append(_project_one(strat, values, dfpa.bids, delta, g))
        return Profile(strategies, groups=cfpa_profile.groups)
    expanded = cfpa_profile.expand(dfpa.n)
    return Profile(
        [
            _project_one(
                expanded.strategies[i], prior.value_spaces[i], dfpa.bids, delta, i
            )
            for i in range(dfpa.n)
        ]
    )


def _project_one(strat, values, bids: BidSpace, delta: Fraction, bidder: int):
    if not isinstance(strat, JumpStrategy):
        raise TypeError("projection expects jump strategies")
    table = []
    for v in values:
        dist = []
        for j, b in enumerate(bids):
            w = strat.mass_at_bid(j, v, v + delta) / delta
            if w > 0:
                dist.append((b, w))
        table.append((v, dist))
    return MixedStrategy(bidder, table)
