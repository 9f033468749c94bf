"""Differential suite: the bitset kernel against the legacy implementations.

The kernel (:mod:`repro.automata.kernel`) re-implements determinisation,
minimisation, intersection and inclusion on interned integers and bitmasks;
the legacy object-level implementations are the oracles (the subset
construction, Moore minimisation and object-level product of
``tests/oracles/automata.py``, and ``counterexample_inclusion_uncached``).
These tests generate random NFAs (epsilon transitions included) and assert
the two sides agree -- for the constructions *object-for-object*, not just
language-for-language.
"""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest

from repro.automata.dfa import DFA
from repro.automata.equivalence import counterexample_inclusion_uncached
from repro.automata.kernel import (
    CompactNFA,
    determinize_nfa,
    hopcroft_partition,
    nfa_included,
    nfa_intersects,
    product_intersection,
    product_is_empty,
)
from repro.automata.nfa import EPSILON, NFA


def _load_oracles():
    """Import ``tests/oracles/automata.py`` by path (the test tree has no packages)."""
    path = Path(__file__).parent.parent / "oracles" / "automata.py"
    spec = importlib.util.spec_from_file_location("automata_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()

TRIALS = 150


def random_nfa(rng: random.Random, max_states: int = 6, symbols: str = "abc", eps: bool = True) -> NFA:
    n = rng.randint(1, max_states)
    states = list(range(n))
    labels = list(symbols) + ([EPSILON] if eps else [])
    transitions: dict = {}
    for state in states:
        row = {}
        for label in labels:
            if rng.random() < 0.4:
                row[label] = set(rng.sample(states, rng.randint(1, min(2, n))))
        if row:
            transitions[state] = row
    finals = set(rng.sample(states, rng.randint(0, n)))
    return NFA(states, set(symbols), transitions, 0, finals)


def _dfas_identical(left: DFA, right: DFA) -> bool:
    return (
        left.states == right.states
        and left.transitions == right.transitions
        and left.initial == right.initial
        and left.finals == right.finals
    )


@pytest.fixture(scope="module")
def rng() -> random.Random:
    return random.Random(20260728)


def test_kernel_determinize_identical_to_legacy(rng):
    for _ in range(TRIALS):
        nfa = random_nfa(rng)
        assert _dfas_identical(oracles.dfa_from_nfa_legacy(nfa), determinize_nfa(nfa))


def test_hopcroft_minimize_identical_to_moore(rng):
    for _ in range(TRIALS):
        dfa = DFA.from_nfa(random_nfa(rng))
        assert _dfas_identical(dfa.minimized(), oracles.minimized_moore(dfa))


def test_hopcroft_and_moore_minimal_sizes_agree(rng):
    for _ in range(TRIALS):
        dfa = DFA.from_nfa(random_nfa(rng))
        hopcroft = dfa.minimized()
        moore = oracles.minimized_moore(dfa)
        assert len(hopcroft.states) == len(moore.states)
        assert hopcroft.transition_count() == moore.transition_count()


def test_hopcroft_partition_is_a_partition(rng):
    for _ in range(TRIALS):
        total = DFA.from_nfa(random_nfa(rng)).completed().trimmed()
        blocks = hopcroft_partition(total)
        assert sum(len(block) for block in blocks) == len(total.states)
        assert frozenset().union(*blocks) == total.states


def test_antichain_inclusion_matches_legacy_search(rng):
    for _ in range(TRIALS):
        left, right = random_nfa(rng), random_nfa(rng)
        expected = counterexample_inclusion_uncached(left, right) is None
        assert nfa_included(left, right) == expected


def test_antichain_inclusion_with_restricted_alphabet(rng):
    for _ in range(TRIALS):
        left, right = random_nfa(rng), random_nfa(rng)
        universe = {"a", "b"}
        expected = counterexample_inclusion_uncached(left, right, universe) is None
        assert nfa_included(left, right, universe) == expected


def test_kernel_intersection_identical_to_legacy(rng):
    for _ in range(TRIALS):
        left, right = random_nfa(rng), random_nfa(rng)
        legacy = oracles.binary_intersection(left, right)
        kernel = product_intersection(left, right)
        assert legacy.states == kernel.states
        assert legacy.initial == kernel.initial
        assert legacy.finals == kernel.finals
        assert set(legacy.iter_transitions()) == set(kernel.iter_transitions())


def test_product_emptiness_matches_materialised_product(rng):
    for _ in range(TRIALS):
        left, right = random_nfa(rng), random_nfa(rng)
        expected = oracles.binary_intersection(left, right).is_empty_language()
        assert product_is_empty(left, right) == expected
        assert nfa_intersects(left, right) == (not expected)


def test_cached_epsilon_closure_matches_fresh_search(rng):
    for _ in range(TRIALS // 3):
        nfa = random_nfa(rng)
        for state in nfa.states:
            # reference: uncached breadth-first closure
            closure = {state}
            stack = [state]
            while stack:
                current = stack.pop()
                for nxt in nfa.successors(current, EPSILON):
                    if nxt not in closure:
                        closure.add(nxt)
                        stack.append(nxt)
            assert nfa.epsilon_closure({state}) == frozenset(closure)
            # second call comes out of the per-state memo
            assert nfa.epsilon_closure({state}) == frozenset(closure)
        assert nfa.epsilon_closure(nfa.states) == frozenset().union(
            *(nfa.epsilon_closure({state}) for state in nfa.states)
        )


def test_used_symbols_matches_trimmed_reference(rng):
    for _ in range(TRIALS // 3):
        nfa = random_nfa(rng)
        trimmed = nfa.trim()
        reference = frozenset(
            label for _src, label, _dst in trimmed.iter_transitions() if label != EPSILON
        )
        assert nfa.used_symbols() == reference


def test_compact_lift_roundtrip(rng):
    for _ in range(TRIALS // 3):
        nfa = random_nfa(rng)
        compact = CompactNFA(nfa)
        assert compact.states_for(compact.mask_for(nfa.states)) == nfa.states
        assert compact.states_for(compact.finals_raw) == nfa.finals
        # reach/coreach agree with the object-level traversals
        for state in nfa.states:
            index = compact.state_index[state]
            assert compact.states_for(compact.reach[index]) == nfa.reachable_states({state})
        assert compact.states_for(
            compact.coreachable_to(compact.finals_raw)
        ) == nfa.coreachable_states()


def test_minimized_language_preserved(rng):
    for _ in range(TRIALS // 5):
        nfa = random_nfa(rng, max_states=4)
        minimal = DFA.from_nfa(nfa.remove_epsilon()).minimized()
        assert minimal.to_nfa().language_upto(4) == nfa.language_upto(4)
