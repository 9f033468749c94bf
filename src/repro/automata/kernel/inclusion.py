"""Antichain inclusion and on-the-fly products on the compact kernel.

The legacy inclusion test (:func:`repro.automata.equivalence.
counterexample_inclusion_uncached`) explores the product of the *subset*
simulations of both automata -- an implicit determinisation of the left
side that the verdict does not need.  :func:`nfa_included` instead runs the
antichain algorithm of De Wulf-Doyen-Henzinger-Raskin: it searches pairs
``(p, S)`` of a single left state and a right subset-bitmask, pruning every
pair that is *simulation-subsumed* by an already-visited one (same ``p``,
``S' ⊆ S``): whatever counterexample the subsumed pair could reach, the
smaller pair reaches too.  No complement automaton and no left
determinisation are ever materialised; in the spirit of implicit-hitting-set
style enumeration, only the frontier of minimal obligations is kept.

The verdict is exact -- the differential suite checks it against the legacy
product search -- but the *witness word* of a failed inclusion is not
computed here: callers that need one (the engine's counterexample API) run
the legacy breadth-first search, which stays the tie-breaking oracle.

:func:`product_intersection` and :func:`product_is_empty` are the bitset
versions of the synchronous product: the former lowers to the public
:class:`NFA` with the same pair-state naming as the legacy construction,
the latter never materialises the product at all.  All three work off the
*sparse* per-state successor rows of :class:`CompactNFA`, so a lift costs
O(states + transitions) regardless of how large the ambient alphabet is.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from repro.automata.kernel.compact import CompactNFA, iter_bits
from repro.automata.nfa import NFA, Symbol


def nfa_included(
    left: NFA, right: NFA, alphabet: Optional[Iterable[Symbol]] = None
) -> bool:
    """Decide ``[left] ⊆ [right]`` with antichain-pruned on-the-fly search.

    ``alphabet`` bounds the word universe exactly like the legacy search:
    symbols outside it are never read.  Passing a superset of the left
    alphabet (the common case -- the joint alphabet of both sides) changes
    nothing, since a counterexample must be accepted by ``left``.
    """
    a = CompactNFA(left)
    b = CompactNFA(right)

    restricted: Optional[frozenset] = None
    if alphabet is not None:
        universe = frozenset(alphabet)
        if not left.alphabet <= universe:
            restricted = universe

    b_start = b.initial_closed
    # ε acceptance: the left initial state is its own obligation.
    if (a.finals_closed >> a.initial) & 1 and not (b_start & b.finals_raw):
        return False

    a_rows = a.rows
    a_finals = a.finals_closed
    b_rows = b.rows
    b_finals = b.finals_raw
    b_closures = b.closures

    # visited antichain: per left state, the minimal right masks.
    antichain: dict[int, list[int]] = {a.initial: [b_start]}
    queue: deque[tuple[int, int]] = deque([(a.initial, b_start)])

    while queue:
        p, sb = queue.popleft()
        for symbol, targets in a_rows[p].items():
            if restricted is not None and symbol not in restricted:
                continue
            # Right macro-step (move ∘ closure) shared by all left targets.
            moved = 0
            remaining = sb
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                mask = b_rows[low.bit_length() - 1].get(symbol)
                if mask:
                    moved |= mask
            nb = 0
            while moved:
                low = moved & -moved
                nb |= b_closures[low.bit_length() - 1]
                moved ^= low
            rejected = not (nb & b_finals)
            for q in iter_bits(targets):
                if rejected and (a_finals >> q) & 1:
                    return False
                kept = antichain.get(q)
                if kept is None:
                    antichain[q] = [nb]
                    queue.append((q, nb))
                    continue
                # Subsumption: skip (q, nb) if some kept S' ⊆ nb.
                if any(prior & nb == prior for prior in kept):
                    continue
                antichain[q] = [prior for prior in kept if nb & prior != nb]
                antichain[q].append(nb)
                queue.append((q, nb))
    return True


def nfa_intersects(left: NFA, right: NFA) -> bool:
    """Decide ``[left] ∩ [right] ≠ ∅`` without materialising the product."""
    return not product_is_empty(left, right)


def product_is_empty(left: NFA, right: NFA) -> bool:
    """Emptiness of the synchronous product, explored pair-by-pair."""
    a = CompactNFA(left)
    b = CompactNFA(right)
    a_accepting = a.finals_closed
    b_accepting = b.finals_closed
    start = (a.initial, b.initial)
    if (a_accepting >> a.initial) & 1 and (b_accepting >> b.initial) & 1:
        return False
    seen = {start}
    stack = [start]
    a_rows = a.rows
    b_rows = b.rows
    while stack:
        pa, pb = stack.pop()
        row_b = b_rows[pb]
        if not row_b:
            continue
        for symbol, targets_a in a_rows[pa].items():
            targets_b = row_b.get(symbol)
            if not targets_b:
                continue
            for qa in iter_bits(targets_a):
                qa_accepts = (a_accepting >> qa) & 1
                for qb in iter_bits(targets_b):
                    pair = (qa, qb)
                    if pair in seen:
                        continue
                    if qa_accepts and (b_accepting >> qb) & 1:
                        return False
                    seen.add(pair)
                    stack.append(pair)
    return True


def product_intersection(left: NFA, right: NFA) -> NFA:
    """The synchronous-product automaton for ``[left] ∩ [right]``.

    Pair states are named ``(left_state, right_state)`` over the original
    state objects -- the same naming as the legacy object-level product
    in ``tests/oracles/automata.py`` -- and only reachable pairs are
    generated, so the output is indistinguishable from the legacy one.
    """
    a = CompactNFA(left)
    b = CompactNFA(right)
    start = (a.initial, b.initial)
    seen = {start}
    stack = [start]
    transitions: dict[tuple[int, int], dict[Symbol, set]] = {}
    a_rows = a.rows
    b_rows = b.rows
    while stack:
        pair = stack.pop()
        pa, pb = pair
        row_b = b_rows[pb]
        if not row_b:
            continue
        row_out: dict[Symbol, set] = {}
        for symbol, targets_a in a_rows[pa].items():
            targets_b = row_b.get(symbol)
            if not targets_b:
                continue
            dsts = row_out.setdefault(symbol, set())
            for qa in iter_bits(targets_a):
                for qb in iter_bits(targets_b):
                    dst = (qa, qb)
                    dsts.add(dst)
                    if dst not in seen:
                        seen.add(dst)
                        stack.append(dst)
        if row_out:
            transitions[pair] = row_out
    a_accepting = a.finals_closed
    b_accepting = b.finals_closed
    a_states = a.states
    b_states = b.states
    lowered = {pair: (a_states[pair[0]], b_states[pair[1]]) for pair in seen}
    finals = {
        lowered[(qa, qb)]
        for (qa, qb) in seen
        if (a_accepting >> qa) & 1 and (b_accepting >> qb) & 1
    }
    lowered_transitions = {
        lowered[src]: {
            symbol: {lowered[dst] for dst in dsts} for symbol, dsts in row.items()
        }
        for src, row in transitions.items()
    }
    return NFA(
        set(lowered.values()),
        left.alphabet | right.alphabet,
        lowered_transitions,
        lowered[start],
        finals,
    )
