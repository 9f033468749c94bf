"""Rational and boolean operations on automata (Section 2.1.2).

The paper combines ``nFA``s with concatenation, union, intersection,
complement and difference (``A1 · A2``, ``A1 ∪ A2``, ``A1 ∩ A2``,
``A1 − A2``, ``A̅``); this module provides all of them, plus the Kleene
closures used by the regular-expression translation.

All functions return fresh automata and never mutate their inputs.  Input
state sets are disjointified automatically, so callers can combine automata
that happen to share state names (the paper assumes disjoint state sets
implicitly, e.g. in Algorithm 1).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.automata.dfa import DFA
from repro.automata.nfa import EPSILON, NFA, State, Symbol


def _tagged(nfa: NFA, tag: int) -> NFA:
    """Rename every state of ``nfa`` to ``(tag, state)`` to guarantee disjointness."""
    return nfa.map_states({state: (tag, state) for state in nfa.states})


def union(*automata: NFA) -> NFA:
    """The automaton defining ``[A1] ∪ ... ∪ [Ak]`` (the paper's ``∪A``)."""
    if not automata:
        return NFA.empty_language()
    if len(automata) == 1:
        return automata[0]
    parts = [_tagged(nfa, index) for index, nfa in enumerate(automata)]
    initial = ("union", "start")
    states = {initial}
    alphabet: set[Symbol] = set()
    transitions: dict[State, dict[Symbol, set[State]]] = {initial: {EPSILON: set()}}
    finals: set[State] = set()
    for part in parts:
        states |= part.states
        alphabet |= part.alphabet
        finals |= part.finals
        transitions[initial][EPSILON].add(part.initial)
        for src, label, dst in part.iter_transitions():
            transitions.setdefault(src, {}).setdefault(label, set()).add(dst)
    return NFA(states, alphabet, transitions, initial, finals)


def concat(*automata: NFA) -> NFA:
    """The automaton defining ``[A1] ◦ [A2] ◦ ... ◦ [Ak]``."""
    if not automata:
        return NFA.epsilon_language()
    if len(automata) == 1:
        return automata[0]
    parts = [_tagged(nfa, index) for index, nfa in enumerate(automata)]
    states: set[State] = set()
    alphabet: set[Symbol] = set()
    transitions: dict[State, dict[Symbol, set[State]]] = {}
    for part in parts:
        states |= part.states
        alphabet |= part.alphabet
        for src, label, dst in part.iter_transitions():
            transitions.setdefault(src, {}).setdefault(label, set()).add(dst)
    for left, right in zip(parts, parts[1:]):
        for final in left.finals:
            transitions.setdefault(final, {}).setdefault(EPSILON, set()).add(right.initial)
    return NFA(states, alphabet, transitions, parts[0].initial, parts[-1].finals)


def kleene_star(nfa: NFA) -> NFA:
    """The automaton defining ``[A]*``."""
    part = _tagged(nfa, 0)
    initial = ("star", "start")
    states = set(part.states) | {initial}
    transitions: dict[State, dict[Symbol, set[State]]] = {initial: {EPSILON: {part.initial}}}
    for src, label, dst in part.iter_transitions():
        transitions.setdefault(src, {}).setdefault(label, set()).add(dst)
    for final in part.finals:
        transitions.setdefault(final, {}).setdefault(EPSILON, set()).add(initial)
    return NFA(states, part.alphabet, transitions, initial, {initial} | set(part.finals))


def plus(nfa: NFA) -> NFA:
    """The automaton defining ``[A]+`` (one or more repetitions)."""
    return concat(nfa, kleene_star(nfa))


def optional(nfa: NFA) -> NFA:
    """The automaton defining ``[A] ∪ {ε}`` (the paper's ``r?``)."""
    return union(nfa, NFA.epsilon_language(nfa.alphabet))


def reverse(nfa: NFA) -> NFA:
    """The automaton defining the mirror image of ``[A]``."""
    part = _tagged(nfa.remove_epsilon(), 0)
    new_initial = ("reverse", "start")
    states = set(part.states) | {new_initial}
    transitions: dict[State, dict[Symbol, set[State]]] = {
        new_initial: {EPSILON: set(part.finals)}
    }
    for src, label, dst in part.iter_transitions():
        transitions.setdefault(dst, {}).setdefault(label, set()).add(src)
    return NFA(states, part.alphabet, transitions, new_initial, {part.initial})


def intersection(*automata: NFA) -> NFA:
    """The automaton defining ``[A1] ∩ ... ∩ [Ak]`` (the paper's ``∩A``).

    Uses the synchronous product of the epsilon-free automata, explored on
    the integer/bitset kernel
    (:func:`repro.automata.kernel.product_intersection`); the pair-state
    naming matches the legacy object-level product (the differential
    oracle in ``tests/oracles/``) exactly.
    """
    from repro.automata.kernel.inclusion import product_intersection

    if not automata:
        raise ValueError("intersection of zero automata is undefined")
    if len(automata) == 1:
        return automata[0]
    result = automata[0]
    for other in automata[1:]:
        result = product_intersection(result, other)
    return result


def intersects(left: NFA, right: NFA) -> bool:
    """Decide ``[left] ∩ [right] ≠ ∅`` without materialising the product.

    The kernel explores the synchronous product pair-by-pair and stops at
    the first jointly accepting pair, so deciding non-disjointness never
    pays for the full product the way ``intersection(...).is_empty_language()``
    does.
    """
    from repro.automata.kernel.inclusion import nfa_intersects

    return nfa_intersects(left, right)


def complement(nfa: NFA, alphabet: Iterable[Symbol] | None = None) -> NFA:
    """The automaton ``A̅`` defining ``Sigma* − [A]``.

    ``alphabet`` fixes the universe ``Sigma``; it defaults to the automaton's
    own alphabet.  Complementation goes through determinisation, which is the
    source of the exponential blow-ups that Table 2 and Theorem 6.11 account
    for.
    """
    symbols = frozenset(alphabet) if alphabet is not None else nfa.alphabet
    dfa = DFA.from_nfa(nfa.remove_epsilon()).complemented(symbols)
    return dfa.to_nfa().with_alphabet(symbols)


def difference(left: NFA, right: NFA, alphabet: Iterable[Symbol] | None = None) -> NFA:
    """The automaton defining ``[left] − [right]`` (the paper's ``A1 − A2``)."""
    symbols = frozenset(alphabet) if alphabet is not None else left.alphabet | right.alphabet
    return intersection(left.with_alphabet(symbols), complement(right, symbols))


def sigma_star(alphabet: Iterable[Symbol]) -> NFA:
    """The automaton defining ``Sigma*`` (used, e.g., by ``concat-univ[R]``)."""
    return NFA.universal(alphabet)


def concat_all(automata: Sequence[NFA]) -> NFA:
    """Concatenate a (possibly empty) sequence of automata, left to right."""
    return concat(*automata) if automata else NFA.epsilon_language()


def union_all(automata: Sequence[NFA]) -> NFA:
    """Union of a (possibly empty) sequence of automata."""
    return union(*automata) if automata else NFA.empty_language()
