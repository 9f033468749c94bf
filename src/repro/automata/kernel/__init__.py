"""Compact integer/bitset automata kernel.

States and symbols are interned to dense integers once; state sets become
big-int bitmasks; ε-closures are precomputed per state; determinisation is
a bitset subset construction; minimisation is Hopcroft's algorithm; and
inclusion/equivalence is an antichain-pruned on-the-fly product search that
never builds a complement automaton.

The public :class:`~repro.automata.nfa.NFA` / :class:`~repro.automata.dfa.
DFA` API is unchanged -- the hot entry points (``DFA.from_nfa``,
``DFA.minimized``, :mod:`repro.automata.equivalence`, the compilation
engine's pipeline, the batch-validation run loop and the product
constructions of :mod:`repro.core.perfect`) route through this package via
the cheap lift/lower converters of :mod:`repro.automata.kernel.compact`.
The legacy implementations serve as differential-testing oracles: the
subset construction, Moore minimisation and object-level product live in
``tests/oracles/automata.py``, and ``counterexample_inclusion_uncached``
stays in :mod:`repro.automata.equivalence` (witness extraction uses it);
``tests/automata/test_kernel_identity.py`` checks the two sides agree on
random automata.
"""

from repro.automata.kernel.compact import CompactNFA, iter_bits, mask_of
from repro.automata.kernel.determinize import determinize_nfa, subset_construction
from repro.automata.kernel.hopcroft import hopcroft_partition
from repro.automata.kernel.inclusion import (
    nfa_included,
    nfa_intersects,
    product_intersection,
    product_is_empty,
)

__all__ = [
    "CompactNFA",
    "iter_bits",
    "mask_of",
    "determinize_nfa",
    "subset_construction",
    "hopcroft_partition",
    "nfa_included",
    "nfa_intersects",
    "product_intersection",
    "product_is_empty",
]
