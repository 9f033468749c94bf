"""Legacy object-level automata constructions, kept as differential oracles.

The library runs determinisation, minimisation and intersection on the
integer/bitset kernel (:mod:`repro.automata.kernel`).  These are the
original frozenset/object implementations those routines replaced; they
live with the tests because only the tests use them, and
``tests/automata/test_kernel_identity.py`` checks the kernel against them
object-for-object on random automata.
"""

from __future__ import annotations

from collections import deque

from repro.automata.dfa import DFA
from repro.automata.nfa import NFA


def dfa_from_nfa_legacy(nfa: NFA) -> DFA:
    """The original frozenset-of-frozensets subset construction."""
    start = nfa.epsilon_closure({nfa.initial})
    states = {start}
    transitions: dict = {}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for symbol in nfa.alphabet:
            nxt = nfa.step(current, symbol)
            if not nxt:
                continue
            transitions[(current, symbol)] = nxt
            if nxt not in states:
                states.add(nxt)
                queue.append(nxt)
    finals = {subset for subset in states if subset & nfa.finals}
    return DFA(states, nfa.alphabet, transitions, start, finals)


def minimized_moore(dfa: DFA) -> DFA:
    """Moore partition-refinement minimisation, lowered like ``DFA.minimized``."""
    total = dfa.completed().trimmed()
    # initial partition: finals vs non-finals
    partition: list[frozenset] = []
    if total.finals:
        partition.append(frozenset(total.finals))
    non_finals = total.states - total.finals
    if non_finals:
        partition.append(frozenset(non_finals))
    symbols = sorted(total.alphabet)

    changed = True
    while changed:
        changed = False
        block_index = {state: index for index, block in enumerate(partition) for state in block}
        new_partition: list[frozenset] = []
        for block in partition:
            signature_groups: dict[tuple, set] = {}
            for state in block:
                signature = tuple(block_index[total.delta(state, symbol)] for symbol in symbols)
                signature_groups.setdefault(signature, set()).add(state)
            if len(signature_groups) > 1:
                changed = True
            new_partition.extend(frozenset(group) for group in signature_groups.values())
        partition = new_partition
    return total._lower_partition(partition)


def binary_intersection(left: NFA, right: NFA) -> NFA:
    """The object-level synchronous product over the original state objects."""
    a = left.remove_epsilon()
    b = right.remove_epsilon()
    alphabet = a.alphabet & b.alphabet
    initial = (a.initial, b.initial)
    states = {initial}
    transitions: dict = {}
    stack = [initial]
    while stack:
        src_a, src_b = current = stack.pop()
        for symbol in alphabet:
            targets_a = a.successors(src_a, symbol)
            targets_b = b.successors(src_b, symbol)
            for dst_a in targets_a:
                for dst_b in targets_b:
                    dst = (dst_a, dst_b)
                    transitions.setdefault(current, {}).setdefault(symbol, set()).add(dst)
                    if dst not in states:
                        states.add(dst)
                        stack.append(dst)
    finals = {(qa, qb) for (qa, qb) in states if qa in a.finals and qb in b.finals}
    return NFA(states, left.alphabet | right.alphabet, transitions, initial, finals)
