"""Exact margins of victory for instant-runoff elections.

The package computes, for a single-member preferential seat, the minimum
number of ballots whose rankings must change to elect a different winner
(optionally restricted to a chosen set of alternate winners), and aggregates
per-seat margins into chamber-level scenarios: the cheapest way for a
coalition to lose its majority or for an opposition to gain one.
"""

from .ballots import (
    Ballot,
    Candidate,
    ParseError,
    Profile,
    ProfileError,
    parse_profile,
    serialize_profile,
)
from .distance import (
    DistanceError,
    EliminationSequence,
    Manipulation,
    apply_manipulation,
    build_model,
    exact_distance,
    lower_bound,
    model_lp_text,
)
from .parliament import (
    CoalitionLacksMajority,
    MissingMovc,
    ParliamentScenario,
    SeatRecord,
    analyze_seat,
    coalition_key,
    dump_seat_records,
    load_seat_records,
    relabel_complement,
    seats_to_lose_majority,
    seats_to_win,
    threshold,
)
from .search import (
    AlternateIsWinner,
    EmptyAlternates,
    MarginResult,
    SearchStats,
    compute_mov,
    compute_movc,
)
from .synth import synthetic_seat
from .tabulate import (
    CountResult,
    CountRound,
    TieRule,
    UnresolvedTie,
    adversarial_winners,
    last_round_margin,
    order_attainable,
    run_election,
    tally,
)

__version__ = "0.1.0"

__all__ = [
    "AlternateIsWinner",
    "Ballot",
    "Candidate",
    "CoalitionLacksMajority",
    "CountResult",
    "CountRound",
    "DistanceError",
    "EliminationSequence",
    "EmptyAlternates",
    "Manipulation",
    "MarginResult",
    "MissingMovc",
    "ParliamentScenario",
    "ParseError",
    "Profile",
    "ProfileError",
    "SearchStats",
    "SeatRecord",
    "TieRule",
    "UnresolvedTie",
    "adversarial_winners",
    "analyze_seat",
    "apply_manipulation",
    "build_model",
    "coalition_key",
    "compute_mov",
    "compute_movc",
    "dump_seat_records",
    "exact_distance",
    "last_round_margin",
    "load_seat_records",
    "lower_bound",
    "model_lp_text",
    "order_attainable",
    "parse_profile",
    "relabel_complement",
    "run_election",
    "seats_to_lose_majority",
    "seats_to_win",
    "serialize_profile",
    "synthetic_seat",
    "tally",
    "threshold",
]
