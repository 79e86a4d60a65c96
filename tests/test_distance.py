from __future__ import annotations

import copy
import itertools
import math
import random
from functools import lru_cache
from unittest import mock

import pytest
from oracle import random_profile
from test_acceptance import _random_corpus
from test_simplex import PERTURBATIONS

from irvmargin import (
    Ballot,
    DistanceError,
    EliminationSequence,
    Profile,
    UnresolvedTie,
    apply_manipulation,
    build_model,
    compute_mov,
    exact_distance,
    lower_bound,
    model_lp_text,
    run_election,
)
from irvmargin import distance, search, simplex
from irvmargin.distance import (
    DistanceModel,
    Manipulation,
    _assemble,
    _credit,
    _failing_round,
    swap_final_witness,
)
from irvmargin.search import _lead
from irvmargin.tabulate import TieRule, last_round_margin, order_attainable, tally


def _order(text: str) -> tuple[str, ...]:
    return tuple(text.split(">"))


def test_sequence_invariants(example1: Profile) -> None:
    with pytest.raises(DistanceError):
        EliminationSequence(())
    with pytest.raises(DistanceError):
        EliminationSequence(("a", "a"))
    with pytest.raises(DistanceError):
        build_model(example1, ())
    with pytest.raises(DistanceError):
        build_model(example1, ("a", "a"))


def test_build_model_rejects_candidates_outside_the_profile(example1: Profile) -> None:
    for order in (("a", "z"), ("z",), ("a", "b", "z")):
        with pytest.raises(DistanceError, match=r"unknown candidates \['z'\]"):
            build_model(example1, order)


def project_type(ballot: Ballot, sequence: EliminationSequence) -> tuple[str, ...]:
    """The slow reference for a ballot's type: its chain, the sequence's
    candidates in order of appearance, each kept only when its position
    strictly exceeds the last kept one."""
    pos = {c: i for i, c in enumerate(sequence.order)}
    chain: list[str] = []
    last = -1
    for c in ballot.ranking:
        p = pos.get(c)
        if p is not None and p > last:
            chain.append(c)
            last = p
    return tuple(chain)


def test_project_type_examples(example1: Profile) -> None:
    pi = EliminationSequence(_order("b>a>c"))
    assert project_type(Ballot(("c", "a"), 1), pi) == ("c",)
    assert project_type(Ballot(("b", "c"), 1), pi) == ("b", "c")
    suffix = EliminationSequence(_order("b>c"))
    assert project_type(Ballot(("a",), 1), suffix) == ()
    assert (pi.mask(("c", "a")), pi.chain(0b100)) == (0b100, ("c",))
    assert (pi.mask(("b", "c")), pi.chain(0b101)) == (0b101, ("b", "c"))
    assert (suffix.mask(("a",)), suffix.chain(0)) == (0, ())


def test_mask_and_chain_match_the_reference_projection_on_the_corpus() -> None:
    # Every ranking of every corpus profile, under every elimination order
    # and every suffix of two or more candidates.
    checked = 0
    for profile, order in _corpus_sequences():
        sequence = EliminationSequence(order)
        for ballot in profile.ballots:
            mask = sequence.mask(ballot.ranking)
            assert sequence.chain(mask) == project_type(ballot, sequence)
            checked += 1
    assert checked > 10_000


def test_build_model_projects_suffix_tallies(example1: Profile) -> None:
    model = build_model(example1, _order("a>b"))
    tallies = {"a": 0, "b": 0}
    exhausted = 0
    for mask, count in enumerate(model.counts):
        chain = model.sequence.chain(mask)
        if chain:
            tallies[chain[0]] += count
        else:
            exhausted += count
    assert tallies == tally(example1, ("a", "b")) == {"a": 80, "b": 41}
    assert exhausted == run_election(example1).rounds[-1].exhausted == 15
    assert model.total == 136


def test_lower_bound_goldens(example1: Profile) -> None:
    assert lower_bound(build_model(example1, _order("a>b"))) == 20
    assert lower_bound(build_model(example1, _order("c>b"))) == 0
    assert lower_bound(build_model(example1, _order("b"))) == 0


def test_exact_distance_goldens(example1: Profile) -> None:
    assert exact_distance(build_model(example1, _order("b>a>c")))[0] == 1
    assert exact_distance(build_model(example1, _order("a>c>b")))[0] == 10
    assert exact_distance(build_model(example1, _order("c>b>a")))[0] == 0
    assert exact_distance(build_model(example1, _order("c>a>b")))[0] == 20
    assert exact_distance(build_model(example1, _order("a>b>c")))[0] == 10
    assert exact_distance(build_model(example1, _order("b>c>a")))[0] == 13


def test_exact_distance_requires_complete_sequence(example1: Profile) -> None:
    model = build_model(example1, _order("c>b"))
    assert model.complete is False
    with pytest.raises(DistanceError, match="requires a complete"):
        exact_distance(model)


def test_complete_sequence_must_cover_the_profile(example1: Profile) -> None:
    assert build_model(example1, _order("c>b>a")).complete is True
    for order in ("c>b", "a", "b>a"):
        assert build_model(example1, _order(order)).complete is False


def test_exact_distance_cutoff_semantics(example1: Profile) -> None:
    model = build_model(example1, _order("a>c>b"))
    assert exact_distance(model, cutoff=10) is None
    assert exact_distance(model, cutoff=11)[0] == 10


def test_witness_balances_and_realizes_order(example1: Profile) -> None:
    for order in ("b>a>c", "a>c>b", "b>c>a", "c>a>b"):
        value, witness = exact_distance(build_model(example1, _order(order)))
        assert sum(n for _, n in witness.removals) == value
        assert sum(n for _, n in witness.additions) == value
        manipulated = apply_manipulation(example1, witness)
        assert manipulated.total == example1.total
        assert order_attainable(manipulated, _order(order))


def test_apply_manipulation_rejects_overdraw(example1: Profile) -> None:
    _, witness = exact_distance(build_model(example1, _order("b>a>c")))
    greedy = Manipulation(witness.sequence, ((("b", "c"), 99),), witness.additions)
    with pytest.raises(DistanceError, match="more ballots than exist"):
        apply_manipulation(example1, greedy)


def test_apply_manipulation_matches_no_ballot_to_a_decreasing_chain(
    example1: Profile,
) -> None:
    # Under b>a>c, the chain c>a steps back from position 2 to 1, so no ballot
    # has that type: the 25 "c>a" ballots are of type c.  Removing one is
    # left over.
    sequence = EliminationSequence(_order("b>a>c"))
    assert Ballot(("c", "a"), 25) in example1.ballots
    manipulation = Manipulation(sequence, ((("c", "a"), 1),), ((("b",), 1),))
    with pytest.raises(DistanceError, match=r"more ballots than exist: \{\('c', 'a'\): 1\}"):
        apply_manipulation(example1, manipulation)


def test_realized_order_distance_is_zero() -> None:
    for seed in range(25):
        profile = random_profile(seed)
        try:
            realized = run_election(profile).elimination_order
        except UnresolvedTie:
            continue
        assert exact_distance(build_model(profile, realized))[0] == 0


def test_suffix_bounds_admissible_by_enumeration() -> None:
    # Interesting seeds only: small candidate counts keep the full
    # permutation sweep cheap while still exercising exhausted chains.
    for seed in range(12):
        profile = random_profile(seed)
        ids = profile.candidate_ids
        if len(ids) > 4:
            continue
        for perm in itertools.permutations(ids):
            value, _ = exact_distance(build_model(profile, perm))
            for start in range(1, len(perm)):
                assert lower_bound(build_model(profile, perm[start:])) <= value


def test_lower_bound_of_complete_order_never_exceeds_exact(example1: Profile) -> None:
    for perm in itertools.permutations(example1.candidate_ids):
        model = build_model(example1, perm)
        assert lower_bound(model) <= exact_distance(model)[0]


def test_swap_final_witness_costs_last_round_margin(example1: Profile) -> None:
    count = run_election(example1)
    value, witness = swap_final_witness(example1, count)
    assert value == last_round_margin(count) == 20
    assert witness.sequence.order == ("c", "a", "b")
    manipulated = apply_manipulation(example1, witness)
    assert order_attainable(manipulated, witness.sequence.order)


def test_swap_final_witness_on_random_profiles() -> None:
    checked = 0
    for seed in range(40):
        profile = random_profile(seed)
        try:
            count = run_election(profile)
        except UnresolvedTie:
            continue
        value, witness = swap_final_witness(profile, count)
        assert value == last_round_margin(count)
        swapped = list(count.elimination_order)
        swapped[-2], swapped[-1] = swapped[-1], swapped[-2]
        assert witness.sequence.order == tuple(swapped)
        manipulated = apply_manipulation(profile, witness)
        assert order_attainable(manipulated, witness.sequence.order)
        checked += 1
    assert checked >= 20


def test_type_count_round_check_matches_order_attainable() -> None:
    # swap_final_witness checks its rounds on type counts; order_attainable,
    # the reference, re-tallies the ballots.
    verdicts = []
    for profile in _random_corpus():
        for order in itertools.permutations(profile.candidate_ids):
            counts = dict(enumerate(build_model(profile, order).counts))
            verdict = _failing_round(len(order), counts) is None
            assert verdict == order_attainable(profile, order), (profile, order)
            verdicts.append(verdict)
    assert any(verdicts) and not all(verdicts)


def test_swap_final_witness_rejects_a_witness_that_fails_a_round(
    example1: Profile,
) -> None:
    # One ballot short of the last-round margin leaves the winner (a) above
    # the runner-up in the swapped order's final round.
    def short(count):
        return last_round_margin(count) - 1

    with mock.patch.object(distance, "last_round_margin", short):
        with pytest.raises(
            simplex.SolverError,
            match=r"swap witness fails round 2 of \('c', 'a', 'b'\)",
        ):
            swap_final_witness(example1, run_election(example1))


def test_model_lp_text_shape(example1: Profile) -> None:
    model = build_model(example1, _order("b>a>c"))
    text = model_lp_text(model)
    assert "minimize:" in text
    assert "conserve:" in text
    assert "round 1 (b vs a):" in text
    assert "round 2 (a vs c):" in text
    assert "0 <= u[b>c] <= 41" in text
    assert "= 136" in text


def _corpus_sequences():
    """Each elimination order of each acceptance-corpus profile, and each of
    its suffixes of two or more candidates, once."""
    for profile in _random_corpus():
        seen = set()
        for perm in itertools.permutations(profile.candidate_ids):
            for cut in range(len(perm) - 1):
                if perm[cut:] not in seen:
                    seen.add(perm[cut:])
                    yield profile, perm[cut:]


def test_round_rows_are_the_suffix_tallies() -> None:
    # At u = counts and e = 0, round row (r, j) reads the suffix count's
    # tally of order[r] minus that of order[j].
    for profile, order in _corpus_sequences():
        model = build_model(profile, order)
        _, rows, _, _, _, u_masks, e_masks = _assemble(model)
        x = [model.counts[m] for m in u_masks] + [0] * len(e_masks)
        expected = [model.total]
        for r in range(len(order) - 1):
            votes = tally(profile, order[r:])
            expected += [votes[order[r]] - votes[order[j]] for j in range(r + 1, len(order))]
        assert [sum(a * v for a, v in zip(row, x)) for row in rows] == expected


def test_certified_bound_is_the_exact_lp_ceiling_on_the_corpus() -> None:
    checked = 0
    for profile, order in _corpus_sequences():
        model = build_model(profile, order)
        program = _assemble(model)[:5]
        exact = simplex.solve_lp(*program)
        ceiling = math.ceil(model.total + exact.value)
        assert lower_bound(model) == ceiling
        # The float run settles every one of them: no exact fallback.
        lower, upper = simplex.certify(*program)
        assert lower <= exact.value <= upper
        assert math.ceil(model.total + lower) == ceiling
        assert math.ceil(model.total + upper) == ceiling
        checked += 1
    assert checked > 2000


def tally_bound(model: DistanceModel) -> int:
    """The slow reference for the search's tally prunes: half the largest
    round-r lead of order[r]'s tally over a later position's, read off the
    model's type counts, rounded up, and 0 when order[r] never leads."""
    k = len(model.sequence.order)
    typed = [(m, n) for m, n in enumerate(model.counts) if n]
    gap = 0
    for r in range(k - 1):
        votes = [0] * k
        for mask, n in typed:
            c = _credit(mask, r)
            if c >= 0:
                votes[c] += n
        gap = max(gap, votes[r] - min(votes[r + 1:]))
    return (gap + 1) // 2


def test_tally_bound_settles_only_what_the_solvers_would() -> None:
    # The bound is half the largest suffix-tally lead, rounded up, and never
    # above the LP ceiling or the exact distance, so a cutoff it reaches is
    # reached by the solvers too.  The largest of the search's new-round
    # leads along the order is the same bound.
    settled = 0
    for profile, order in _corpus_sequences():
        lead = max(0, *(
            _lead(lambda s: tally(profile, s), order[r:])
            for r in range(len(order) - 1)
        ))
        model = build_model(profile, order)
        bound = tally_bound(model)
        assert bound == (lead + 1) // 2
        assert bound <= lower_bound(model)
        if model.complete:
            value, witness = exact_distance(model)
            assert bound <= value
            for cutoff in {bound, value + 1}:
                cut = exact_distance(model, cutoff=cutoff)
                assert cut == (None if value >= cutoff else (value, witness))
        settled += bound > 0
    assert settled > 1000


def test_searched_suffixes_are_bounded_at_least_by_their_tallies(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A suffix is expanded only once its LP bound, and its key, are below
    # the upper bound, so its own rounds never settle a child: each child
    # needs only the lead of its new first round.  Checked on every suffix
    # whose LP the MOV search, and the MOVC search toward each loser and
    # each pair of losers, solves.  Each search runs on its own copy of the
    # profile, whose memo is empty, so it solves every LP it uses.
    checked = 0

    def checked_bound(model: DistanceModel) -> int:
        nonlocal checked
        bound = lower_bound(model)
        assert tally_bound(model) <= bound
        checked += 1
        return bound

    monkeypatch.setattr(search, "lower_bound", checked_bound)
    for profile in _random_corpus():
        compute_mov(copy.copy(profile), TieRule.LEXICOGRAPHIC)
        winner = run_election(profile, TieRule.LEXICOGRAPHIC).winner
        losers = sorted(set(profile.candidate_ids) - {winner})
        for alternates in itertools.chain(
            itertools.combinations(losers, 1), itertools.combinations(losers, 2)
        ):
            search.compute_movc(copy.copy(profile), alternates, TieRule.LEXICOGRAPHIC)
    assert checked > 500


def _corpus_answers() -> tuple[list, int]:
    """compute_mov on each corpus profile, compute_movc toward each loser
    and each pair of losers, and exact_distance of each complete order cut
    off just above the margin.  Every one of those orders reaches solve_ip,
    so the float guide inside branch and bound is exercised on all of them,
    and solve_ip may prune on certified bounds from its root.  Each search
    runs on a fresh copy of the profile, so that it recalls nothing an
    earlier search solved; the float guide runs counted inside the searches
    come back with the answers."""
    answers = []
    guided = 0
    for profile in _random_corpus():
        winner = run_election(profile, TieRule.LEXICOGRAPHIC).winner
        losers = sorted(set(profile.candidate_ids) - {winner})
        targets = itertools.chain(
            itertools.combinations(losers, 1), itertools.combinations(losers, 2)
        )
        with mock.patch.object(simplex, "_guide", wraps=simplex._guide) as guide:
            result = compute_mov(copy.copy(profile), TieRule.LEXICOGRAPHIC)
            searched = [result] + [
                search.compute_movc(copy.copy(profile), alternates, TieRule.LEXICOGRAPHIC)
                for alternates in targets
            ]
        guided += guide.call_count
        answers += [(r.value, r.witness_order, r.witness_manipulation, r.stats)
                    for r in searched]
        perms = list(itertools.permutations(profile.candidate_ids))
        with mock.patch.object(simplex, "solve_ip", wraps=simplex.solve_ip) as solve_ip:
            for perm in perms:
                model = build_model(profile, perm)
                answers.append(exact_distance(model, cutoff=result.value + 1))
        assert solve_ip.call_count == len(perms)
    return answers, guided


@lru_cache(maxsize=1)
def _reference_answers() -> list:
    return _corpus_answers()[0]


def _garbage_guide():
    """The float run with its duals and vertex perturbed, each call by one
    of PERTURBATIONS drawn at random."""
    real = simplex._guide
    rng = random.Random(3)

    def guide(*program):
        res = real(*program)
        if res is None:
            return None
        perturb = PERTURBATIONS[rng.choice(sorted(PERTURBATIONS))]
        return simplex.LPResult(
            res.status, res.value, perturb(rng, res.x), perturb(rng, res.duals)
        )

    return guide


def _relaxed_guide():
    """A float run that is wrong but self-consistent, as a float optimum can
    be: it solves the program without its last row and gives that row a
    zero dual."""
    real = simplex._guide

    def guide(objective, rows, senses, rhs, bounds):
        res = real(objective, rows[:-1], senses[:-1], rhs[:-1], bounds)
        if res is None:
            return None
        return simplex.LPResult(res.status, res.value, res.x, res.duals + [0.0])

    return guide


@pytest.mark.parametrize("mode", ["iteration cap", "garbage", "wrong optimum"])
def test_answers_do_not_depend_on_the_float_guide(
    monkeypatch: pytest.MonkeyPatch, mode: str
) -> None:
    reference = _reference_answers()
    if mode == "iteration cap":
        # Every float run fails, so everything is solved exactly.
        monkeypatch.setattr(simplex, "_GUIDE_PIVOTS", 0)
    elif mode == "garbage":
        monkeypatch.setattr(simplex, "_guide", _garbage_guide())
    else:
        monkeypatch.setattr(simplex, "_guide", _relaxed_guide())
    answers, guided = _corpus_answers()
    assert guided > 800
    assert answers == reference
