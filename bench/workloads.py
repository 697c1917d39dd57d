"""Seeded inputs, CLI ops and output checks for the benchmark workloads.

Every op gets its own freshly generated input files, written through the
public ``fpaeq.serialize`` API (or the ``from-sat``/``encode`` verbs) into the
run's work directory.  Inputs are grouped in rounds: a round holds one op of
each kind a workload rotates through, so a run that stops between rounds
still has a balanced mix.  A round's inputs depend only on the workload, the
seed and the round number.

Sizes are fixed per workload (the ``SHAPES`` table).  The discrete choices
that change an op's cost most (bump or cut positions, base densities, which
literal is negated) are stratified: draw number k of a run takes entry k of a
seeded cyclic order of all the choices, so every run covers them evenly.  The seed
draws everything else (masses, weights, the assignment) freely.  Runs with
different seeds then measure nearly the same amount of work.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

from fpaeq import engine, search, serialize
from fpaeq.model import Auction, BidSpace, BoxDensity, DiscretePrior, IIDMarginal
from fpaeq.reduction import SatFormula

# The CLI's default ``--budget`` for solve-pure and jump-search.
DEFAULT_BUDGET = 2_000_000

# Shape parameters per workload; recorded in every run's output.
SHAPES = {
    "sat-verify": {
        "variables": 2,
        "clauses": 1,
        "clause_width": 2,
        "negated_literals": 1,
        "bidders": 13,
        "bids": 4,
        "ops_per_round": ["verify satisfying", "verify unsatisfying"],
    },
    "densify-iid": {
        "n": 3,
        "pieces": 3,
        "bids": 14,
        "bids_in_range": 8,
        "ops_per_round": ["densify"] * 2,
    },
    "densify-sapv": {
        "n": 3,
        "bumps": 2,
        "bids": 13,
        "ops_per_round": ["densify grouped", "densify ungrouped"],
    },
    "search": {
        "solve_pure_bids": 8,
        "solve_pure_log_bids": 7,
        "jump_bids": 4,
        "jump_mesh": 4,
        "ops_per_round": ["solve-pure --monotone", "solve-pure --monotone --log", "jump-search"],
    },
}

# Rounds per traced run.  Fixed, so per-op counts repeat exactly per seed.
TRACE_ROUNDS = {"sat-verify": 2, "densify-iid": 3, "densify-sapv": 3, "search": 2}

Call = Callable[[list], tuple]  # argv -> (exit code, stdout)
EIGHTHS = [F(c, 8) for c in range(1, 8)]


class SetupError(RuntimeError):
    """Generating a round's inputs failed."""


@dataclass
class Op:
    kind: str
    argv: list
    expect: frozenset
    check: Callable[[int, str], str | None]  # (code, stdout) -> failure or None


class Draw:
    """Seeded choices for one round of a workload."""

    def __init__(self, workload: str, seed: int, rnd: int):
        self.rng = random.Random(f"{workload}:{seed}:{rnd}")
        self.rnd = rnd
        self._order_seed = f"{workload}:{seed}:order"

    def stratified(self, options: list, slot: int = 0, slots: int = 1):
        """Draw ``slot`` of the ``slots`` this round makes from ``options``,
        taken from a seeded cyclic order, so that consecutive draws walk
        through every option before any repeats."""
        order = list(options)
        random.Random(f"{self._order_seed}:{len(order)}").shuffle(order)
        return order[(self.rnd * slots + slot) % len(order)]


def make_round(workload: str, seed: int, rnd: int, workdir: Path, call: Call) -> list:
    """Write round ``rnd``'s inputs under ``workdir`` and return its ops."""
    workdir.mkdir(parents=True)
    return MAKERS[workload](Draw(workload, seed, rnd), workdir, call)


def _cli_ok(call: Call, argv: list) -> str:
    code, out = call(argv)
    if code != 0:
        raise SetupError(f"{argv[0]} exited {code}")
    return out


# ---------------------------------------------------------------------------
# sat-verify: verify encoded assignments on from-sat reduction instances
# ---------------------------------------------------------------------------

def _sat_round(draw: Draw, d: Path, call: Call) -> list:
    rng = draw.rng
    ops = []
    for j, satisfying in enumerate((True, False)):
        negated, order = draw.stratified(
            [(x, o) for x in (1, 2) for o in ((1, 2), (2, 1))], j, 2
        )
        clause = tuple(-x if x == negated else x for x in order)
        formula = SatFormula(2, [clause])
        falsifying = {abs(lit): int(lit < 0) for lit in clause}
        if satisfying:
            choices = [
                {1: a, 2: b} for a in (0, 1) for b in (0, 1) if {1: a, 2: b} != falsifying
            ]
            assignment = rng.choice(choices)
        else:
            assignment = falsifying
        prefix = d / f"sat{j}"
        cnf = d / f"sat{j}.cnf"
        cnf.write_text(f"p cnf 2 1\n{clause[0]} {clause[1]} 0\n")
        eps = json.loads(_cli_ok(call, ["from-sat", str(cnf), "--out-prefix", str(prefix)]))[
            "eps_threshold"
        ]
        bits = [assignment[1], assignment[2]]
        profile = d / f"sat{j}.profile.json"
        _cli_ok(
            call,
            [
                "encode",
                "--map", f"{prefix}.map.json",
                "--assignment", ",".join(map(str, bits)),
                "--out", str(profile),
            ],
        )
        expected = 0 if formula.satisfies(assignment) else 10

        def check(code, out, prefix=prefix, profile=profile, bits=bits, expected=expected):
            if code != expected:
                return f"verify exited {code}, expected {expected}"
            if json.loads(out)["ok"] != (expected == 0):
                return "verify report disagrees with its exit code"
            xcode, xout = call(
                ["extract", "--map", f"{prefix}.map.json", "--profile", str(profile)]
            )
            got = json.loads(xout) if xcode == 0 else None
            if got != {"status": "ok", "assignment": bits}:
                return f"extract returned {got}, encoded {bits}"
            return None

        ops.append(
            Op(
                "verify satisfying" if satisfying else "verify unsatisfying",
                [
                    "verify",
                    "--instance", f"{prefix}.instance.json",
                    "--profile", str(profile),
                    "--eps", eps,
                ],
                frozenset({0, 10}),
                check,
            )
        )
    return ops


# ---------------------------------------------------------------------------
# densify-iid and densify-sapv
# ---------------------------------------------------------------------------

def _densify_op(kind: str, instance: Path) -> Op:
    strategy = instance.with_suffix(".strategy.json")

    def check(code, out):
        cert = json.loads(out)
        if F(cert["measured_gain"]) > F(cert["claimed_bound"]):
            return f"measured gain {cert['measured_gain']} exceeds {cert['claimed_bound']}"
        doc = json.loads(strategy.read_text())
        x = [F(t) for t in doc["thresholds"]]
        if any(b < a for a, b in zip(x, x[1:])):
            return "strategy thresholds are not nondecreasing"
        return None

    argv = ["densify", "--instance", str(instance), "--out-strategy", str(strategy)]
    return Op(kind, argv, frozenset({0}), check)


def _top_bid(bps: list, densities: list, n: int) -> F:
    """Canonical iid equilibrium bid at value 1, 1 - integral_0^1 F^(n-1),
    for a marginal with positive piecewise-constant density."""
    integral = F(0)
    cdf = F(0)
    for a, b, p in zip(bps, bps[1:], densities):
        right = cdf + p * (b - a)
        integral += (right**n - cdf**n) / (n * p)
        cdf = right
    return 1 - integral


def _densities(bps: list, weights: tuple) -> list:
    """Piece densities proportional to ``weights``, normalized to mass 1."""
    total = sum((b - a) * w for a, b, w in zip(bps, bps[1:], weights))
    return [F(w) / total for w in weights]


@functools.lru_cache(maxsize=None)
def _iid_weights(cuts: tuple) -> tuple:
    """Weight triples over the pieces cut at ``cuts`` whose marginal puts
    exactly the shape's ``bids_in_range`` grid bids in (0, beta(1)]; the
    solver inverts each of those bids, so their number sets an op's cost."""
    shape = SHAPES["densify-iid"]
    bps = [F(0), *cuts, F(1)]
    grid = [F(j, shape["bids"]) for j in range(1, shape["bids"])]
    out = []
    for weights in itertools.product(range(1, 5), repeat=len(bps) - 1):
        top = _top_bid(bps, _densities(bps, weights), shape["n"])
        if sum(b <= top for b in grid) == shape["bids_in_range"]:
            out.append(weights)
    return tuple(out)


def _iid_round(draw: Draw, d: Path, call: Call) -> list:
    shape = SHAPES["densify-iid"]
    designs = [
        cuts
        for cuts in itertools.combinations(EIGHTHS, shape["pieces"] - 1)
        if _iid_weights(cuts)
    ]
    ops = []
    for j in range(len(shape["ops_per_round"])):
        cuts = draw.stratified(designs, j, 2)
        bps = [F(0), *cuts, F(1)]
        marg = IIDMarginal(bps, _densities(bps, draw.rng.choice(_iid_weights(cuts))))
        bids = BidSpace([F(b, shape["bids"]) for b in range(shape["bids"])])
        path = d / f"iid{j}.json"
        serialize.save_instance(Auction(bids, marg, shape["n"]), str(path))
        ops.append(_densify_op("densify", path))
    return ops


def _sapv_round(draw: Draw, d: Path, call: Call) -> list:
    """Nested-cube SAPV priors: a base density plus bumps on [t,1]^n."""
    shape = SHAPES["densify-sapv"]
    n = shape["n"]
    rng = draw.rng
    designs = [
        (ts, base)
        for ts in itertools.combinations(EIGHTHS, shape["bumps"])
        for base in (1, 2, 3)
    ]
    ops = []
    for j, grouped in enumerate((True, False)):
        ts, base = draw.stratified(designs, j, 2)
        base = F(base, 4)
        bumps = [F(rng.randint(1, 4), 2) for _ in ts]
        boxes = [((F(0),) * n, (F(1),) * n, base)]
        boxes += [((t,) * n, (F(1),) * n, w) for t, w in zip(ts, bumps)]
        mass = base + sum(w * (1 - t) ** n for t, w in zip(ts, bumps))
        boxes = [(lo, hi, w / mass) for lo, hi, w in boxes]
        prior = BoxDensity(n, boxes, groups=[tuple(range(n))] if grouped else None)
        bids = BidSpace([F(b, shape["bids"] - 1) for b in range(shape["bids"])])
        path = d / f"sapv{j}.json"
        serialize.save_instance(Auction(bids, prior), str(path))
        ops.append(_densify_op("densify grouped" if grouped else "densify ungrouped", path))
    return ops


# ---------------------------------------------------------------------------
# search: solve-pure, solve-pure --log, jump-search
# ---------------------------------------------------------------------------

def _monotone_maps(values: list, bids: list) -> int:
    """Monotone non-overbidding value->bid maps over the given values."""
    count = {b: 1 for b in bids if b <= values[0]}
    for v in values[1:]:
        count = {b: sum(c for a, c in count.items() if a <= b) for b in bids if b <= v}
    return sum(count.values())


def _prop34_family(rng: random.Random, nbids: int) -> Auction:
    """Two bidders on the support {(0,1), (1/2,1/2), (1,0)} with seeded masses."""
    masses = [rng.randint(2, 6) for _ in range(3)]
    total = sum(masses)
    half = F(1, 2)
    points = [(F(0), F(1)), (half, half), (F(1), F(0))]
    prior = DiscretePrior(
        2, [(F(0), half, F(1))] * 2, [(p, F(m, total)) for p, m in zip(points, masses)]
    )
    return Auction(BidSpace([F(b, nbids - 1) for b in range(nbids)]), prior)


def _bump_square(t: F, base: int, rng: random.Random, nbids: int) -> Auction:
    """Two bidders, base density plus a bump on [t,1]^2."""
    base, bump = F(base), F(rng.randint(1, 4))
    mass = base + bump * (1 - t) ** 2
    prior = BoxDensity(2, [((0, 0), (1, 1), base / mass), ((t, t), (1, 1), bump / mass)])
    return Auction(BidSpace([F(b, nbids) for b in range(nbids)]), prior)


def _search_op(kind: str, argv: list, instance: Path, out: Path, log: Path | None) -> Op:
    def check(code, stdout):
        doc = json.loads(stdout)
        if doc["status"] != ("found" if code == 0 else "none"):
            return f"status {doc['status']} disagrees with exit code {code}"
        if log is not None:
            lines = len(log.read_text().splitlines())
            if lines != doc["checked"]:
                return f"log has {lines} lines for {doc['checked']} candidates"
        if code == 0:
            auction = serialize.load_instance(str(instance))
            profile = serialize.load_profile(str(out))
            if not engine.verify_pbne(auction, profile, 0).ok:
                return "found profile fails an independent verify_pbne"
        return None

    argv = argv + ["--instance", str(instance), "--out", str(out)]
    if log is not None:
        argv += ["--log", str(log)]
    return Op(kind, argv, frozenset({0, 11}), check)


def _search_round(draw: Draw, d: Path, call: Call) -> list:
    shape = SHAPES["search"]
    rng = draw.rng
    ops = []
    for j, (kind, nbids, logged) in enumerate(
        (
            ("solve-pure --monotone", shape["solve_pure_bids"], False),
            ("solve-pure --monotone --log", shape["solve_pure_log_bids"], True),
        )
    ):
        auction = _prop34_family(rng, nbids)
        values = list(auction.prior.value_spaces[0])
        count = _monotone_maps(values, list(auction.bids)) ** 2
        if count > DEFAULT_BUDGET:
            raise SetupError(f"{count} candidates exceed the default budget")
        path = d / f"pure{j}.json"
        serialize.save_instance(auction, str(path))
        log = d / f"pure{j}.log" if logged else None
        ops.append(
            _search_op(kind, ["solve-pure", "--monotone"], path, d / f"pure{j}.out.json", log)
        )

    nbids = shape["jump_bids"]
    t, base = draw.stratified(
        [(F(k, nbids), base) for k in range(1, nbids) for base in (1, 2, 3)]
    )
    auction = _bump_square(t, base, rng, nbids)
    grid = search.default_jump_grid(auction, mesh=shape["jump_mesh"])
    if search.count_jump_vectors(auction.bids, grid) ** 2 > DEFAULT_BUDGET:
        raise SetupError("jump-search candidates exceed the default budget")
    path = d / "jump.json"
    serialize.save_instance(auction, str(path))
    argv = ["jump-search", "--mesh", str(shape["jump_mesh"])]
    ops.append(_search_op("jump-search", argv, path, d / "jump.out.json", None))
    return ops


MAKERS = {
    "sat-verify": _sat_round,
    "densify-iid": _iid_round,
    "densify-sapv": _sapv_round,
    "search": _search_round,
}
