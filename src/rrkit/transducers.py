"""Rational transducers: bounded application, composition, domain extraction.

Every transition reads at most one symbol and writes at most one symbol;
longer outputs are represented by chains of states built at construction
time.  The empty string stands for epsilon on either tape.
"""
from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Mapping

from .automata import (
    EPSILON, Nfa, check_machine, machine_json, machine_states, pair_name, reach,
    require_strings, synchronized_moves,
)
from .errors import ContractError, InputError
from .values import Frozen


class Transducer(Frozen):
    input_alphabet: tuple[str, ...]
    output_alphabet: tuple[str, ...]
    states: frozenset[str]
    initial: str
    accepting: frozenset[str]
    transitions: frozenset[tuple[str, str, str, str]]  # (src, read, write, dst)

    def _check(self) -> None:
        check_machine(
            self.states, self.initial, self.accepting, self.input_alphabet, self.output_alphabet
        )
        ins = set(self.input_alphabet)
        outs = set(self.output_alphabet)
        states = self.states
        for src, read, write, dst in self.transitions:
            if src not in states or dst not in states:
                require_strings((src, read, write, dst))
                raise InputError("transition endpoints must be states")
            if read != EPSILON and read not in ins:
                require_strings((read,))
                raise InputError(f"read symbol {read!r} is not in the input alphabet")
            if write != EPSILON and write not in outs:
                require_strings((write,))
                raise InputError(f"write symbol {write!r} is not in the output alphabet")

    @classmethod
    def build(
        cls,
        input_alphabet: Iterable[str],
        output_alphabet: Iterable[str],
        initial: str,
        accepting: Iterable[str],
        transitions: Iterable[tuple[str, str, str, str]],
        states: Iterable[str] = (),
    ) -> "Transducer":
        trans = frozenset(transitions)
        return cls(
            tuple(input_alphabet),
            tuple(output_alphabet),
            machine_states(initial, accepting, states, trans),
            initial,
            frozenset(accepting),
            trans,
        )

    @cached_property
    def _by_state(self) -> Mapping[str, tuple[tuple[str, str, str], ...]]:
        out: dict[str, list[tuple[str, str, str]]] = {}
        for src, read, write, dst in self.transitions:
            out.setdefault(src, []).append((read, write, dst))
        return {q: tuple(sorted(es)) for q, es in out.items()}

    # -- application -------------------------------------------------------

    def transduce(self, word: Iterable[str], max_out: int) -> set[tuple[str, ...]]:
        """All outputs of length <= max_out produced on the given input.

        Breadth-first search over configurations (state, input position,
        output so far); the visited set makes epsilon cycles harmless.
        """
        w = tuple(word)
        for sym in w:
            if sym not in self.input_alphabet:
                raise InputError(f"input symbol {sym!r} is not in the input alphabet")
        start = (self.initial, 0, ())
        seen = {start}
        queue = deque([start])
        results: set[tuple[str, ...]] = set()
        while queue:
            state, pos, out = queue.popleft()
            if pos == len(w) and state in self.accepting:
                results.add(out)
            for read, write, dst in self._by_state.get(state, ()):
                if read == EPSILON:
                    npos = pos
                elif pos < len(w) and w[pos] == read:
                    npos = pos + 1
                else:
                    continue
                nout = out if write == EPSILON else out + (write,)
                if len(nout) > max_out:
                    continue
                config = (dst, npos, nout)
                if config not in seen:
                    seen.add(config)
                    queue.append(config)
        return results

    # -- composition -------------------------------------------------------

    def compose(self, other: "Transducer") -> "Transducer":
        """Relation composition: feed this machine's output tape to `other`.

        The product moves jointly on real symbols; an epsilon write here or
        an epsilon read there advances one side alone.  Only state pairs
        reachable from the initial pair are walked, and of those only the
        initial pair and the pairs that reach an accepting pair are kept,
        each named once by pair_name, with the moves between kept pairs:
        the trimmed product, built and checked once.
        """
        if set(self.output_alphabet) != set(other.input_alphabet):
            raise ContractError("composition needs matching middle alphabets")
        start = (self.initial, other.initial)
        moves = list(synchronized_moves(
            start,
            ((src, write, read, dst) for src, read, write, dst in self.transitions),
            other.transitions,
        ))
        back: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for src, *_, dst in moves:
            back.setdefault(dst, []).append(src)
        # every reachable pair is the start or the target of some move
        final = [
            pair for pair in {start, *back}
            if pair[0] in self.accepting and pair[1] in other.accepting
        ]
        names = {pair: pair_name(*pair) for pair in reach(final, back) | {start}}
        return Transducer(
            self.input_alphabet,
            other.output_alphabet,
            frozenset(names.values()),
            names[start],
            frozenset(names[pair] for pair in final),
            # a None payload is the side that stays put: nothing read or written
            frozenset(
                (names[src], read or EPSILON, write or EPSILON, names[dst])
                for src, _, read, write, dst in moves
                if src in names and dst in names
            ),
        )

    def compose_automaton(self, a: Nfa) -> Nfa:
        """NFA for {w : some output of this machine on w is accepted by a}.

        The automaton constrains the output tape; the result reads the
        input tape.  It is the domain of the composition with a read as a
        transducer that writes nothing, so it is trimmed likewise.
        """
        if set(self.output_alphabet) != set(a.alphabet):
            raise ContractError("automaton alphabet must match the output alphabet")
        reads = frozenset((src, label, EPSILON, dst) for src, label, dst in a.transitions)
        reader = Transducer(a.alphabet, (), a.states, a.initial, a.accepting, reads)
        return self.compose(reader).domain_nfa()

    def domain_nfa(self) -> Nfa:
        """Project away the output tape, keeping states and acceptance."""
        return Nfa(
            self.states,
            self.input_alphabet,
            self.initial,
            self.accepting,
            frozenset((src, read, dst) for src, read, _, dst in self.transitions),
        )

    def inverted(self) -> "Transducer":
        """Swap the tapes: the inverse relation."""
        return Transducer(
            self.output_alphabet,
            self.input_alphabet,
            self.states,
            self.initial,
            self.accepting,
            frozenset((src, write, read, dst) for src, read, write, dst in self.transitions),
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        return machine_json(
            {
                "input_alphabet": list(self.input_alphabet),
                "output_alphabet": list(self.output_alphabet),
                "initial": self.initial,
                "accepting": sorted(self.accepting),
            },
            self.states,
            self.transitions,
        )
