"""Exact-arithmetic toolkit for Bayes-Nash equilibria of first-price auctions
with correlated (in particular affiliated) value priors.

Subpackages: model (types, priors, strategies), engine (utilities, best
responses, verification), search (enumeration, shrinkage, jump-grid search),
reduction (SAT hardness gadgets, discrete-to-continuous lift), densify
(canonical continuous-bid equilibrium and the bid-densification solver),
serialize (file formats), cli (command line).
"""

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
    Rational,
    conditional,
    marginal,
    marginal_mass,
    multiplicity,
    rat,
    validate_instance,
    validate_profile,
    validate_strategy,
)
from .engine import (
    BestResponseReport,
    VerificationReport,
    best_response,
    check_affiliation,
    check_monotone,
    utility,
    verify_mbne,
    verify_pbne,
    win_prob_dfpa,
)

__all__ = [
    "Auction",
    "BestResponseReport",
    "BidSpace",
    "BoxDensity",
    "DiscretePrior",
    "IIDMarginal",
    "JumpStrategy",
    "MixedStrategy",
    "Profile",
    "PureStrategy",
    "Rational",
    "VerificationReport",
    "best_response",
    "check_affiliation",
    "check_monotone",
    "conditional",
    "marginal",
    "marginal_mass",
    "multiplicity",
    "rat",
    "utility",
    "validate_instance",
    "validate_profile",
    "validate_strategy",
    "verify_mbne",
    "verify_pbne",
    "win_prob_dfpa",
]

__version__ = "0.1.0"
