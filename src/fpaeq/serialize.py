"""Self-describing JSON files for instances, strategies and profiles.

Rationals travel as strings "p/q" (or plain integer strings) so round-trips
are bit-exact.  Documents carry a "kind" tag; unknown fields are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .model import (
    Auction,
    BidSpace,
    BoxDensity,
    DiscretePrior,
    IIDMarginal,
    JumpStrategy,
    MixedStrategy,
    Profile,
    PureStrategy,
    rat,
)


class FormatError(ValueError):
    """Malformed instance/strategy document."""


def fmt(x: Fraction) -> str:
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _interner():
    """``rat`` that parses each distinct string once, so equal values in one
    document are one object."""
    seen: dict[str, Fraction] = {}

    def parse(x) -> Fraction:
        if type(x) is str:
            return seen[x] if x in seen else seen.setdefault(x, rat(x))
        return rat(x)

    return parse


def _take(doc: dict, fields: dict[str, bool], kind: str) -> dict[str, Any]:
    """Pop known fields (name -> required) of an object; reject the rest."""
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} must be a JSON object, got {doc!r}")
    doc = dict(doc)
    out = {}
    for name, required in fields.items():
        if name in doc:
            out[name] = doc.pop(name)
        elif required:
            raise FormatError(f"{kind}: missing field {name!r}")
        else:
            out[name] = None
    doc.pop("kind", None)
    if doc:
        raise FormatError(f"{kind}: unknown fields {sorted(doc)}")
    return out


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def instance_to_doc(auction: Auction) -> dict:
    prior = auction.prior
    bids = [fmt(b) for b in auction.bids]
    if isinstance(prior, DiscretePrior) and prior.groups is None:
        return {
            "kind": "dfpa",
            "bids": bids,
            "value_spaces": [[fmt(v) for v in vs] for vs in prior.value_spaces],
            "support": [
                {"values": [fmt(v) for v in t], "mass": fmt(m)}
                for t, m in prior.support
            ],
        }
    if isinstance(prior, DiscretePrior):
        return {
            "kind": "dfpa-sym",
            "bids": bids,
            "groups": [list(g) for g in prior.groups],
            "group_values": [[fmt(v) for v in prior.value_spaces[g[0]]] for g in prior.groups],
            "support": [
                {"values": [fmt(v) for v in t], "probability": fmt(p)}
                for t, p in prior.support
            ],
        }
    if isinstance(prior, BoxDensity):
        doc = {
            "kind": "cfpa-box",
            "bids": bids,
            "n": prior.n,
            "boxes": [
                {
                    "lo": [fmt(a) for a in lo],
                    "hi": [fmt(b) for b in hi],
                    "weight": fmt(w),
                }
                for lo, hi, w in prior.boxes
            ],
        }
        if prior.groups is not None:
            doc["groups"] = [list(g) for g in prior.groups]
        return doc
    if isinstance(prior, IIDMarginal):
        return {
            "kind": "cfpa-iid",
            "bids": bids,
            "n": auction.n,
            "breakpoints": [fmt(a) for a in prior.breakpoints],
            "densities": [fmt(p) for p in prior.densities],
        }
    raise TypeError(f"unsupported prior {type(prior).__name__}")


def _integer(x, what: str) -> int:
    """A bidder count or seat: a JSON integer, not a string, float or boolean."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise FormatError(f"{what} must be a JSON integer, got {x!r}")
    return x


def _groups(groups, kind: str):
    """Seat groups whose members are JSON integers, or None."""
    member = f"{kind}: group member"
    return None if groups is None else [tuple(_integer(i, member) for i in g) for g in groups]


def instance_from_doc(doc: dict) -> Auction:
    rat = _interner()
    kind = doc.get("kind")
    if kind == "dfpa":
        f = _take(doc, {"bids": True, "value_spaces": True, "support": True}, kind)
        spaces = [[rat(v) for v in vs] for vs in f["value_spaces"]]
        support = []
        for entry in f["support"]:
            e = _take(entry, {"values": True, "mass": True}, "dfpa support entry")
            support.append(([rat(v) for v in e["values"]], rat(e["mass"])))
        prior = DiscretePrior(len(spaces), spaces, support)
        return Auction(BidSpace(map(rat, f["bids"])), prior)
    if kind == "dfpa-sym":
        f = _take(
            doc,
            {"bids": True, "groups": True, "group_values": True, "support": True},
            kind,
        )
        groups = _groups(f["groups"], kind)
        if len(f["group_values"]) != len(groups):
            raise FormatError(f"{kind}: one group_values entry required per group")
        space_of = {}  # bidder -> its group's one value space
        for g, vs in zip(groups, f["group_values"]):
            space_of.update(dict.fromkeys(g, [rat(v) for v in vs]))
        n = sum(len(g) for g in groups)
        support = []
        for entry in f["support"]:
            e = _take(entry, {"values": True, "probability": True}, "dfpa-sym support entry")
            support.append(([rat(v) for v in e["values"]], rat(e["probability"])))
        spaces = [space_of.get(i, ()) for i in range(n)]
        prior = DiscretePrior(n, spaces, support, groups)
        return Auction(BidSpace(map(rat, f["bids"])), prior)
    if kind == "cfpa-box":
        f = _take(doc, {"bids": True, "n": True, "boxes": True, "groups": False}, kind)
        boxes = []
        for entry in f["boxes"]:
            e = _take(entry, {"lo": True, "hi": True, "weight": True}, "box entry")
            boxes.append(
                ([rat(a) for a in e["lo"]], [rat(b) for b in e["hi"]], rat(e["weight"]))
            )
        prior = BoxDensity(_integer(f["n"], f"{kind}: n"), boxes, _groups(f["groups"], kind))
        return Auction(BidSpace(map(rat, f["bids"])), prior)
    if kind == "cfpa-iid":
        f = _take(doc, {"bids": True, "n": True, "breakpoints": True, "densities": True}, kind)
        prior = IIDMarginal(
            [rat(a) for a in f["breakpoints"]], [rat(p) for p in f["densities"]]
        )
        return Auction(BidSpace(map(rat, f["bids"])), prior, n=_integer(f["n"], f"{kind}: n"))
    raise FormatError(f"unknown instance kind {kind!r}")


# ---------------------------------------------------------------------------
# strategies and profiles
# ---------------------------------------------------------------------------

def strategy_to_doc(strategy) -> dict:
    if isinstance(strategy, PureStrategy):
        return {
            "kind": "pure",
            "bidder": strategy.bidder,
            "assignments": [
                {"value": fmt(v), "bid": fmt(b)} for v, b in strategy.mapping
            ],
        }
    if isinstance(strategy, MixedStrategy):
        return {
            "kind": "mixed",
            "bidder": strategy.bidder,
            "rows": [
                {
                    "value": fmt(v),
                    "distribution": [
                        {"bid": fmt(b), "weight": fmt(w)} for b, w in dist
                    ],
                }
                for v, dist in strategy.table
            ],
        }
    if isinstance(strategy, JumpStrategy):
        return {
            "kind": "jump",
            "bids": [fmt(b) for b in strategy.bids],
            "thresholds": [fmt(x) for x in strategy.thresholds],
        }
    raise TypeError(f"unsupported strategy {type(strategy).__name__}")


def strategy_from_doc(doc: dict):
    return _strategy_from_doc(doc, _interner())


def _strategy_from_doc(doc: dict, rat):
    if not isinstance(doc, dict):
        raise FormatError(f"a strategy must be a JSON object, got {doc!r}")
    kind = doc.get("kind")
    if kind == "pure":
        f = _take(doc, {"bidder": True, "assignments": True}, kind)
        mapping = []
        for entry in f["assignments"]:
            e = _take(entry, {"value": True, "bid": True}, "pure assignment")
            mapping.append((rat(e["value"]), rat(e["bid"])))
        return PureStrategy(_integer(f["bidder"], f"{kind}: bidder"), mapping)
    if kind == "mixed":
        f = _take(doc, {"bidder": True, "rows": True}, kind)
        table = []
        for entry in f["rows"]:
            e = _take(entry, {"value": True, "distribution": True}, "mixed row")
            dist = []
            for cell in e["distribution"]:
                c = _take(cell, {"bid": True, "weight": True}, "mixed cell")
                dist.append((rat(c["bid"]), rat(c["weight"])))
            table.append((rat(e["value"]), dist))
        return MixedStrategy(_integer(f["bidder"], f"{kind}: bidder"), table)
    if kind == "jump":
        f = _take(doc, {"bids": True, "thresholds": True}, kind)
        return JumpStrategy(
            BidSpace(map(rat, f["bids"])), [rat(x) for x in f["thresholds"]]
        )
    raise FormatError(f"unknown strategy kind {kind!r}")


def profile_to_doc(profile: Profile) -> dict:
    doc: dict = {
        "kind": "profile",
        "strategies": [strategy_to_doc(s) for s in profile.strategies],
    }
    if profile.groups is not None:
        doc["groups"] = [list(g) for g in profile.groups]
    return doc


def profile_from_doc(doc: dict) -> Profile:
    if doc.get("kind") != "profile":
        raise FormatError(f"expected profile document, got kind {doc.get('kind')!r}")
    f = _take(doc, {"strategies": True, "groups": False}, "profile")
    rat = _interner()
    strategies = [_strategy_from_doc(s, rat) for s in f["strategies"]]
    return Profile(strategies, _groups(f["groups"], "profile"))


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_document(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise FormatError("top-level document must be a JSON object")
    return doc


def save_instance(auction: Auction, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(instance_to_doc(auction)))


def load_instance(path: str) -> Auction:
    return instance_from_doc(load_document(path))


def load_strategy(path: str):
    return strategy_from_doc(load_document(path))


def save_profile(profile: Profile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(profile_to_doc(profile)))


def load_profile(path: str) -> Profile:
    doc = load_document(path)
    if doc.get("kind") == "profile":
        return profile_from_doc(doc)
    return Profile([strategy_from_doc(doc)])
