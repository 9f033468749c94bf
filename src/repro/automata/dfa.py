"""Deterministic finite automata (the paper's ``dFA``) and subset construction.

A :class:`DFA` keeps a *partial* transition function; :meth:`DFA.completed`
adds an explicit sink state when a total function is required (e.g. before
complementation).  :meth:`DFA.minimized` routes through Hopcroft's
partition refinement in :mod:`repro.automata.kernel`, which is what the
one-unambiguity test of :mod:`repro.automata.determinism` and the size
accounting of Table 2 rely on.  The original Moore/frozenset
implementations live on as differential-testing oracles in
``tests/oracles/automata.py``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from typing import Any, Optional

from repro.automata.nfa import EPSILON, NFA, Symbol, as_word

State = Any

_SINK = "__sink__"


class DFA:
    """A deterministic finite automaton with a (possibly partial) transition function."""

    __slots__ = ("states", "alphabet", "transitions", "initial", "finals")

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Mapping[tuple[State, Symbol], State],
        initial: State,
        finals: Iterable[State],
    ) -> None:
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.transitions = dict(transitions)
        self.initial = initial
        self.finals = frozenset(finals)
        self._validate()

    def _validate(self) -> None:
        if self.initial not in self.states:
            raise ValueError("initial state must be a state")
        if not self.finals <= self.states:
            raise ValueError("final states must be states")
        for (src, symbol), dst in self.transitions.items():
            if src not in self.states or dst not in self.states:
                raise ValueError("transition endpoints must be states")
            if symbol == EPSILON:
                raise ValueError("a DFA cannot have epsilon transitions")
            if symbol not in self.alphabet:
                raise ValueError(f"symbol {symbol!r} not in alphabet")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_nfa(cls, nfa: NFA) -> "DFA":
        """Subset construction.  Only reachable subset states are generated.

        Routed through the bitset kernel
        (:func:`repro.automata.kernel.determinize_nfa`); the result is
        state-for-state identical to the original frozenset construction
        kept as a differential-testing oracle in ``tests/oracles/``.
        """
        from repro.automata.kernel.determinize import determinize_nfa

        return determinize_nfa(nfa)

    # ------------------------------------------------------------------ #
    # runs
    # ------------------------------------------------------------------ #

    def delta(self, state: State, symbol: Symbol) -> Optional[State]:
        """The transition function; ``None`` when undefined (implicit sink)."""
        return self.transitions.get((state, symbol))

    def run(self, word: str | Sequence[Symbol]) -> Optional[State]:
        """The state reached after reading ``word``, or ``None`` if the run dies."""
        current: Optional[State] = self.initial
        for symbol in as_word(word):
            if current is None:
                return None
            current = self.delta(current, symbol)
        return current

    def accepts(self, word: str | Sequence[Symbol]) -> bool:
        state = self.run(word)
        return state is not None and state in self.finals

    def __contains__(self, word: str | Sequence[Symbol]) -> bool:
        return self.accepts(word)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #

    def completed(self, alphabet: Optional[Iterable[Symbol]] = None) -> "DFA":
        """Return an equivalent DFA with a total transition function.

        A fresh sink state is added if any transition is missing.  The
        optional ``alphabet`` argument allows completing over a larger
        alphabet, which is what complementation relative to a shared alphabet
        requires.
        """
        symbols = frozenset(alphabet) | self.alphabet if alphabet is not None else self.alphabet
        missing = [
            (state, symbol)
            for state in self.states
            for symbol in symbols
            if (state, symbol) not in self.transitions
        ]
        if not missing:
            return DFA(self.states, symbols, self.transitions, self.initial, self.finals)
        sink = _SINK
        while sink in self.states:
            sink = sink + "_"
        states = set(self.states) | {sink}
        transitions = dict(self.transitions)
        for state, symbol in missing:
            transitions[(state, symbol)] = sink
        for symbol in symbols:
            transitions[(sink, symbol)] = sink
        return DFA(states, symbols, transitions, self.initial, self.finals)

    def complemented(self, alphabet: Optional[Iterable[Symbol]] = None) -> "DFA":
        """The complement automaton ``A̅`` defining ``Sigma* - [A]``."""
        total = self.completed(alphabet)
        return DFA(
            total.states,
            total.alphabet,
            total.transitions,
            total.initial,
            total.states - total.finals,
        )

    def reachable_states(self) -> frozenset[State]:
        seen = {self.initial}
        queue = deque([self.initial])
        while queue:
            state = queue.popleft()
            for symbol in self.alphabet:
                nxt = self.delta(state, symbol)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return frozenset(seen)

    def trimmed(self) -> "DFA":
        """Restrict to reachable states (keeping the initial state)."""
        keep = self.reachable_states()
        transitions = {
            (src, symbol): dst
            for (src, symbol), dst in self.transitions.items()
            if src in keep and dst in keep
        }
        return DFA(keep, self.alphabet, transitions, self.initial, self.finals & keep)

    def minimized(self) -> "DFA":
        """Minimisation via Hopcroft's O(n·|Σ|·log n) partition refinement.

        The result is the canonical minimal *complete* DFA of the language,
        trimmed of the sink state when the sink is not needed to keep the
        transition function meaningful (i.e. the returned automaton is the
        minimal partial DFA: every state is reachable and co-reachable,
        except that the initial state is always kept).  Hopcroft and Moore
        compute the same Myhill-Nerode partition, so the output is identical
        to Moore's refinement (the oracle in ``tests/oracles/``)
        object-for-object.
        """
        from repro.automata.kernel.hopcroft import hopcroft_partition

        total = self.completed().trimmed()
        return total._lower_partition(hopcroft_partition(total))

    def _lower_partition(self, partition: Sequence[frozenset[State]]) -> "DFA":
        """Build the minimal DFA from a Myhill-Nerode partition of ``self``.

        ``self`` must be complete and trimmed.  Block representatives and
        the final sink-dropping are shared with the Moore oracle in
        ``tests/oracles/``, so both produce the same automaton.
        """
        symbols = sorted(self.alphabet)
        representative = {block: min(block, key=repr) for block in partition}
        state_to_block = {state: block for block in partition for state in block}
        states = set(representative.values())
        transitions = {}
        for block in partition:
            src = representative[block]
            sample = next(iter(block))
            for symbol in symbols:
                dst_state = self.delta(sample, symbol)
                transitions[(src, symbol)] = representative[state_to_block[dst_state]]
        finals = {representative[state_to_block[state]] for state in self.finals}
        minimal = DFA(states, self.alphabet, transitions, representative[state_to_block[self.initial]], finals)
        return minimal._drop_sink()

    def _drop_sink(self) -> "DFA":
        """Remove a non-final state with no path to a final state (the sink), if any."""
        co_reachable = self.to_nfa().coreachable_states()
        keep = (self.reachable_states() & co_reachable) | {self.initial}
        transitions = {
            (src, symbol): dst
            for (src, symbol), dst in self.transitions.items()
            if src in keep and dst in keep
        }
        return DFA(keep, self.alphabet, transitions, self.initial, self.finals & keep)

    def to_nfa(self) -> NFA:
        """View this DFA as an NFA (every dFA is an nFA, Section 2.1.2)."""
        transitions: dict[State, dict[Symbol, set[State]]] = {}
        for (src, symbol), dst in self.transitions.items():
            transitions.setdefault(src, {}).setdefault(symbol, set()).add(dst)
        return NFA(self.states, self.alphabet, transitions, self.initial, self.finals)

    # ------------------------------------------------------------------ #
    # measures
    # ------------------------------------------------------------------ #

    def transition_count(self) -> int:
        return len(self.transitions)

    @property
    def size(self) -> int:
        """Size measure = number of states plus number of transitions."""
        return len(self.states) + len(self.transitions)

    def is_complete(self) -> bool:
        return all((state, symbol) in self.transitions for state in self.states for symbol in self.alphabet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DFA(states={len(self.states)}, transitions={len(self.transitions)})"


def minimal_dfa(nfa: NFA) -> DFA:
    """Convenience: subset construction followed by minimisation."""
    return DFA.from_nfa(nfa.remove_epsilon()).minimized()


def minimal_state_count(nfa: NFA) -> int:
    """Number of states of the minimal complete DFA for ``[nfa]``.

    This is the *state complexity* measure used when the benchmarks report
    the worst-case sizes of Table 2 (the paper cites Yu's state-complexity
    results [22, 43]).
    """
    return len(minimal_dfa(nfa).completed().trimmed().states)
