"""Command-line front end.

Every verb maps to one library operation; inputs and outputs are the JSON
documents of :mod:`fpaeq.serialize`.  Rationals on the command line are "p/q"
strings (decimals are rejected to avoid silent precision loss).  Exit codes:

    0   success
    10  verification failed / property does not hold
    11  exhaustive search found no equilibrium
    12  instance or strategy validation failed
    13  parse or format error
    14  I/O error

Failures also emit one machine-readable JSON record on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import densify as densify_mod
from . import engine, reduction, search
from .model import (
    Auction,
    BoxDensity,
    IIDMarginal,
    JumpStrategy,
    MixedStrategy,
    Profile,
    PureStrategy,
    marginal,
    rat,
    validate_instance,
    validate_profile,
    validate_strategy,
)
from .serialize import (
    FormatError,
    dumps,
    fmt,
    load_document,
    load_instance,
    load_profile,
    load_strategy,
    profile_to_doc,
    save_instance,
    save_profile,
    strategy_to_doc,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 10
EXIT_SEARCH_NONE = 11
EXIT_VALIDATION = 12
EXIT_PARSE = 13
EXIT_IO = 14


class CliError(Exception):
    def __init__(self, code: int, kind: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.kind = kind
        self.detail = detail


def _fraction(text: str) -> Fraction:
    if "." in text or "e" in text.lower():
        raise argparse.ArgumentTypeError(
            f"{text!r}: decimals are rejected, use an exact p/q string"
        )
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r}: not an integer")
        if k < low:
            raise argparse.ArgumentTypeError(f"{text!r}: must be an integer >= {low}")
        return k

    return parse


def _load(loader, path: str):
    """``loader(path)`` with I/O and parse failures mapped to their exit codes."""
    try:
        return loader(path)
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"{path}: {exc.strerror or exc}")
    except (FormatError, json.JSONDecodeError, ValueError) as exc:
        raise CliError(EXIT_PARSE, "parse", f"{path}: {exc}")


DISCRETE = ("dfpa", "dfpa-sym")
CONTINUOUS = ("cfpa-box", "cfpa-iid")


def _load_instance(args, kinds: tuple[str, ...] | None = None) -> Auction:
    """Load and validate ``--instance``; with ``kinds``, reject any other kind."""
    auction = _load(load_instance, args.instance)
    report = validate_instance(auction)
    if not report.ok:
        raise _invalid(report.violations)
    if kinds is not None and auction.kind not in kinds:
        raise _invalid([f"{args.verb} needs a {' or '.join(kinds)} instance, got {auction.kind}"])
    return auction


def _load_profile(path: str, auction: Auction | None = None) -> Profile:
    """Load a profile; with ``auction``, reject one that does not fit it."""
    profile = _load(load_profile, path)
    if auction is not None:
        report = validate_profile(profile, auction)
        if not report.ok:
            raise _invalid(report.violations)
    return profile


def _load_map(path: str) -> reduction.ReductionMap:
    return reduction.map_from_doc(load_document(path))


def _invalid(violations) -> CliError:
    return CliError(EXIT_VALIDATION, "validation", "; ".join(violations))


def _bidder(auction: Auction, i: int) -> int:
    if not 0 <= i < auction.n:
        raise _invalid([f"bidder {i} out of range 0..{auction.n - 1}"])
    return i


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"{path}: {exc.strerror or exc}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"{path}: {exc.strerror or exc}")


def _violations_doc(report: engine.VerificationReport) -> dict:
    return {
        "ok": report.ok,
        "eps": fmt(report.eps),
        "max_gain": fmt(report.max_gain),
        "violations": [
            {
                "bidder": v.bidder,
                "value": fmt(v.value),
                "played": [fmt(b) for b in v.played]
                if isinstance(v.played, tuple)
                else fmt(v.played),
                "best_bid": fmt(v.best_bid),
                "gain": fmt(v.gain),
            }
            for v in report.violations
        ],
    }


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    auction = _load(load_instance, args.instance)
    report = validate_instance(auction)
    print(dumps({"ok": report.ok, "violations": list(report.violations)}), end="")
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_marginal(args) -> int:
    auction = _load_instance(args)
    m = marginal(auction.prior, _bidder(auction, args.bidder))
    if isinstance(m, IIDMarginal):
        doc = {
            "breakpoints": [fmt(a) for a in m.breakpoints],
            "densities": [fmt(p) for p in m.densities],
        }
    else:
        doc = {"pmf": [{"value": fmt(v), "mass": fmt(p)} for v, p in m.items()]}
    print(dumps(doc), end="")
    return EXIT_OK


def cmd_utility(args) -> int:
    auction = _load_instance(args)
    profile = _load_profile(args.profile, auction)
    i = _bidder(auction, args.bidder)
    u = engine.utility(auction, i, args.value, args.bid, profile, raw=args.raw)
    print(fmt(u))
    return EXIT_OK


def cmd_best_response(args) -> int:
    auction = _load_instance(args)
    profile = _load_profile(args.profile, auction)
    i = _bidder(auction, args.bidder)
    rep = engine.best_response(
        auction, i, args.value, profile, no_overbidding=not args.allow_overbid
    )
    print(
        dumps(
            {
                "argmax": [fmt(b) for b in rep.argmax],
                "best_utility": fmt(rep.best_utility),
                "margin": None if rep.margin is None else fmt(rep.margin),
            }
        ),
        end="",
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    auction = _load_instance(args)
    profile = _load_profile(args.profile, auction)
    if any(isinstance(s, MixedStrategy) for s in profile.strategies):
        report = engine.verify_mbne(auction, profile, args.eps)
    else:
        report = engine.verify_pbne(auction, profile, args.eps)
    print(dumps(_violations_doc(report)), end="")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAIL


def _search_config(args) -> search.SearchConfig:
    return search.SearchConfig(eps=args.eps, monotone_only=args.monotone, budget=args.budget)


def _emit_search(result: search.SearchResult, out: str | None) -> int:
    if result.found:
        doc = profile_to_doc(result.profile)
        if out:
            _write_text(out, dumps(doc))
        print(dumps({"status": "found", "checked": result.checked}), end="")
        return EXIT_OK
    print(dumps({"status": "none", "checked": result.checked}), end="")
    return EXIT_SEARCH_NONE


def _search(args, run) -> int:
    """``run(log)`` with the --log file, if any, open; then emit the result."""
    try:
        log = open(args.log, "w", encoding="utf-8") if args.log else None
    except OSError as exc:
        raise CliError(EXIT_IO, "io", f"{args.log}: {exc.strerror or exc}")
    try:
        result = run(log)
    finally:
        if log:
            log.close()
    return _emit_search(result, args.out)


def cmd_solve_pure(args) -> int:
    auction, cfg = _load_instance(args, DISCRETE), _search_config(args)
    return _search(args, lambda log: search.enumerate_pure_equilibria(auction, cfg, log))


def cmd_solve_symmetric(args) -> int:
    auction, cfg = _load_instance(args, ("dfpa-sym",)), _search_config(args)
    return _search(args, lambda log: search.enumerate_symmetric_pure(auction, cfg, log))


def cmd_jump_search(args) -> int:
    auction = _load_instance(args, CONTINUOUS)
    grid = search.default_jump_grid(auction, mesh=args.mesh)
    cfg = search.SearchConfig(eps=args.eps, symmetric=args.symmetric, budget=args.budget)
    return _search(args, lambda log: search.jump_grid_search(auction, cfg, grid, log))


def cmd_shrink(args) -> int:
    auction = _load_instance(args)
    shrunk = search.shrink_bidspace(auction.bids, args.target)
    if args.out:
        save_instance(Auction(shrunk.bids, auction.prior, auction.n), args.out)
    print(
        dumps(
            {
                "bids": [fmt(b) for b in shrunk.bids],
                "guarantee": fmt(shrunk.guarantee),
            }
        ),
        end="",
    )
    return EXIT_OK


def cmd_from_sat(args) -> int:
    text = _read_text(args.cnf)
    try:
        formula = reduction.parse_sat(text)
        auction, rmap = reduction.build_auction(formula)
    except ValueError as exc:
        raise CliError(EXIT_PARSE, "parse", str(exc))
    prefix = args.out_prefix
    save_instance(auction, f"{prefix}.instance.json")
    _write_text(f"{prefix}.map.json", dumps(reduction.map_to_doc(rmap)))
    _write_text(f"{prefix}.params.json", dumps(reduction.chain_to_doc(rmap.chain)))
    print(
        dumps(
            {
                "bidders": rmap.n,
                "delta_total": fmt(rmap.chain.total),
                "eps_threshold": fmt(rmap.chain.eps_threshold),
            }
        ),
        end="",
    )
    return EXIT_OK


def cmd_encode(args) -> int:
    rmap = _load(_load_map, args.map)
    bits = [int(tok) for tok in args.assignment.split(",")]
    if len(bits) != len(rmap.var_hub) or any(b not in (0, 1) for b in bits):
        raise CliError(
            EXIT_PARSE,
            "parse",
            f"assignment must be {len(rmap.var_hub)} comma-separated bits",
        )
    assignment = {x + 1: bits[x] for x in range(len(bits))}
    profile = reduction.encode_profile(assignment, rmap)
    if args.out:
        save_profile(profile, args.out)
    else:
        print(dumps(profile_to_doc(profile)), end="")
    return EXIT_OK


def cmd_extract(args) -> int:
    rmap = _load(_load_map, args.map)
    profile = _load_profile(args.profile)
    if profile.groups is not None or len(profile.strategies) != rmap.n:
        raise _invalid([f"extract needs one strategy per bidder for {rmap.n} bidders"])
    for i in (lits[0] for lits in rmap.var_literals):
        s = profile.strategies[i]
        if not (isinstance(s, PureStrategy) and set(reduction.VALUES) <= set(s.as_dict)):
            raise _invalid([f"literal bidder {i} needs a pure strategy over its values"])
    assignment = reduction.extract_assignment(profile, rmap)
    if assignment is None:
        print(dumps({"status": "non-encoding"}), end="")
        return EXIT_OK
    bits = [assignment[x + 1] for x in range(len(rmap.var_hub))]
    print(dumps({"status": "ok", "assignment": bits}), end="")
    return EXIT_OK


def cmd_lift(args) -> int:
    auction = _load_instance(args, DISCRETE)
    result = reduction.lift_dfpa_to_cfpa(auction, args.delta)
    save_instance(result.cfpa, args.out)
    print(
        dumps(
            {
                "delta": fmt(result.delta),
                "rescale_loss": fmt(result.rescale_loss),
            }
        ),
        end="",
    )
    return EXIT_OK


def cmd_project(args) -> int:
    auction = _load_instance(args, DISCRETE)
    # the profile must fit the instance's lift: same bids, bidders and groups
    shape = BoxDensity(auction.n, (), auction.prior.groups)
    profile = _load_profile(args.profile, Auction(auction.bids, shape))
    projected = reduction.project_strategy(profile, auction, args.delta)
    if args.out:
        save_profile(projected, args.out)
    else:
        print(dumps(profile_to_doc(projected)), end="")
    return EXIT_OK


def cmd_densify(args) -> int:
    auction = _load_instance(args, CONTINUOUS)
    try:
        cert = densify_mod.densify_solve(auction, args.eps)
    except densify_mod.UnsupportedPrior as exc:
        raise CliError(EXIT_VALIDATION, "unsupported", str(exc))
    if args.out_strategy:
        _write_text(args.out_strategy, dumps(strategy_to_doc(cert.strategy)))
    cert_doc = {
        "mode": cert.bounds.mode,
        "gamma": fmt(cert.bounds.gamma),
        "delta": fmt(cert.bounds.delta),
        "eps_inner": fmt(cert.eps_inner),
        "lipschitz": fmt(cert.bounds.lipschitz),
        "claimed_bound": fmt(cert.claimed),
        "measured_gain": fmt(cert.measured),
    }
    if args.out_certificate:
        _write_text(args.out_certificate, dumps(cert_doc))
    if args.samples:
        rows = ["v,beta,beta_tilde"]
        k = args.grid
        vlo = cert.bounds.v_lo
        beta = densify_mod.canonical_beta(auction)
        for t in range(k + 1):
            v = vlo + (1 - vlo) * Fraction(t, k)
            rows.append(f"{fmt(v)},{fmt(beta(v))},{fmt(cert.strategy.bid_at(v))}")
        _write_text(args.samples, "\n".join(rows) + "\n")
    print(dumps(cert_doc), end="")
    return EXIT_OK


def cmd_check_affiliation(args) -> int:
    auction = _load_instance(args)
    ok, witness = engine.check_affiliation(auction.prior)
    doc = {"affiliated": ok}
    if witness is not None:
        doc["witness"] = [[fmt(x) for x in pt] for pt in witness]
    print(dumps(doc), end="")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_emit_plot(args) -> int:
    auction = _load_instance(args)
    strategy = _load(load_strategy, args.strategy)
    if not isinstance(strategy, JumpStrategy):
        raise CliError(EXIT_PARSE, "parse", "emit-plot expects a jump strategy")
    rep = validate_strategy(strategy, auction)
    if not rep.ok:
        raise _invalid(rep.violations)
    rows = ["v,bid"]
    k = args.grid
    for t in range(k + 1):
        v = Fraction(t, k)
        rows.append(f"{fmt(v)},{fmt(strategy.bid_at(v))}")
    text = "\n".join(rows) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process, built on the first call to main
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fpaeq",
        description="Exact Bayes-Nash equilibrium toolkit for first-price auctions",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="check instance invariants")
    sp.add_argument("--instance", required=True)

    sp = add("marginal", cmd_marginal, help="marginal of one bidder")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--bidder", type=int, required=True)

    sp = add("utility", cmd_utility, help="exact interim utility")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--bidder", type=int, required=True)
    sp.add_argument("--value", type=_fraction, required=True)
    sp.add_argument("--bid", type=_fraction, required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--raw", action="store_true")

    sp = add("best-response", cmd_best_response, help="argmax bids and margin")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--bidder", type=int, required=True)
    sp.add_argument("--value", type=_fraction, required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--allow-overbid", action="store_true")

    sp = add("verify", cmd_verify, help="epsilon-equilibrium check")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--eps", type=_fraction, default=Fraction(0))

    for name, fn in (
        ("solve-pure", cmd_solve_pure),
        ("solve-symmetric", cmd_solve_symmetric),
    ):
        sp = add(name, fn, help="exhaustive pure-equilibrium search")
        sp.add_argument("--instance", required=True)
        sp.add_argument("--eps", type=_fraction, default=Fraction(0))
        sp.add_argument("--monotone", action="store_true")
        sp.add_argument("--budget", type=int, default=2_000_000)
        sp.add_argument("--out")
        sp.add_argument("--log")

    sp = add("jump-search", cmd_jump_search, help="grid search over jump profiles")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--eps", type=_fraction, default=Fraction(0))
    sp.add_argument("--mesh", type=_int_at_least(1), default=None)
    sp.add_argument("--symmetric", action="store_true")
    sp.add_argument("--budget", type=int, default=2_000_000)
    sp.add_argument("--out")
    sp.add_argument("--log")

    sp = add("shrink", cmd_shrink, help="bid-space shrinkage")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--target", type=_int_at_least(2), required=True)
    sp.add_argument("--out")

    sp = add("from-sat", cmd_from_sat, help="SAT-to-DFPA hardness reduction")
    sp.add_argument("cnf")
    sp.add_argument("--out-prefix", default="reduction")

    sp = add("encode", cmd_encode, help="assignment -> pure profile")
    sp.add_argument("--map", required=True)
    sp.add_argument("--assignment", required=True, help="comma-separated bits")
    sp.add_argument("--out")

    sp = add("extract", cmd_extract, help="profile -> assignment")
    sp.add_argument("--map", required=True)
    sp.add_argument("--profile", required=True)

    sp = add("lift", cmd_lift, help="discrete-to-continuous lift")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--delta", type=_fraction, required=True)
    sp.add_argument("--out", required=True)

    sp = add("project", cmd_project, help="project a jump profile onto a DFPA")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--profile", required=True)
    sp.add_argument("--delta", type=_fraction, required=True)
    sp.add_argument("--out")

    sp = add("densify", cmd_densify, help="bid-densification solver")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--eps", type=_fraction, default=densify_mod.DEFAULT_EPS)
    sp.add_argument("--out-strategy")
    sp.add_argument("--out-certificate")
    sp.add_argument("--samples")
    sp.add_argument("--grid", type=_int_at_least(1), default=100)

    sp = add("check-affiliation", cmd_check_affiliation, help="MTP2 check")
    sp.add_argument("--instance", required=True)

    sp = add("emit-plot", cmd_emit_plot, help="staircase CSV of a jump strategy")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--strategy", required=True)
    sp.add_argument("--out")
    sp.add_argument("--grid", type=_int_at_least(1), default=100)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(json.dumps({"error": exc.kind, "detail": exc.detail}) + "\n")
        return exc.code
    except search.BudgetExceeded as exc:
        sys.stderr.write(
            json.dumps({"error": "budget", "detail": str(exc), "count": exc.count})
            + "\n"
        )
        return EXIT_VALIDATION
    except (ValueError, TypeError) as exc:
        sys.stderr.write(json.dumps({"error": "invalid", "detail": str(exc)}) + "\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
