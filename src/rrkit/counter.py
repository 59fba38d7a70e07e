"""One-counter automata with zero/positive guards.

The counter starts at 0 and never goes negative: a -1 move is only enabled
when the current value is positive, regardless of the guard.  Acceptance is
by final state, optionally also requiring counter value 0.
"""
from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

from .automata import (
    EPSILON, Nfa, check_machine, machine_states, pair_name, reach, require_strings,
    synchronized_moves,
)
from .errors import ContractError, InputError
from .grammars import Cfg
from .values import Frozen

GUARDS = ("any", "zero", "positive")
ACCEPT_MODES = ("final_state", "final_state_and_zero")


class CounterAutomaton(Frozen):
    states: frozenset[str]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    # (src, read, guard, delta, dst); read == "" is an epsilon move
    transitions: frozenset[tuple[str, str, str, int, str]]
    accept_mode: str = "final_state"

    def _check(self) -> None:
        check_machine(self.states, self.initial, self.accepting, self.alphabet)
        if self.accept_mode not in ACCEPT_MODES:
            raise InputError(f"unknown accept mode {self.accept_mode!r}")
        symbols = set(self.alphabet)
        states = self.states
        for src, read, guard, delta, dst in self.transitions:
            if src not in states or dst not in states:
                require_strings((src, read, dst))
                raise InputError("transition endpoints must be states")
            if read != EPSILON and read not in symbols:
                require_strings((read,))
                raise InputError(f"read symbol {read!r} is not in the alphabet")
            if guard not in GUARDS:
                raise InputError(f"unknown guard {guard!r}")
            if delta not in (-1, 0, 1):
                raise InputError(f"counter delta must be -1, 0 or +1, got {delta!r}")

    @classmethod
    def build(
        cls,
        alphabet: Iterable[str],
        initial: str,
        accepting: Iterable[str],
        transitions: Iterable[tuple[str, str, str, int, str]],
        accept_mode: str = "final_state",
        states: Iterable[str] = (),
    ) -> "CounterAutomaton":
        trans = frozenset(transitions)
        sts = machine_states(initial, accepting, states, trans)
        return cls(sts, tuple(alphabet), initial, frozenset(accepting), trans, accept_mode)

    @cached_property
    def _by_state(self) -> Mapping[str, tuple[tuple[str, str, int, str], ...]]:
        out: dict[str, list[tuple[str, str, int, str]]] = {q: [] for q in self.states}
        for src, read, guard, delta, dst in self.transitions:
            out[src].append((read, guard, delta, dst))
        return {q: tuple(sorted(es)) for q, es in out.items()}

    @cached_property
    def _ceiling(self) -> Mapping[str, float]:
        """The highest counter value from which a state may still reach an
        accepting configuration, for each state that may reach one at
        some value (math.inf when no value is too high).  A state missing
        here is dead.

        Ignore the guards and the floor at 0.  A run from (q, v) that ends
        accepting at value 0 is then a path of moves from q to an
        accepting state whose deltas sum to -v, so v <= -dist(q), where
        dist(q) is the least delta sum over such paths: a shortest path
        (Bellman, 1958), found by a worklist over the reversed moves from
        the accepting states.  Each estimate records its parent, the state
        it came through.  When src would get a lower sum through q while
        src is on q's chain of parents, that chain and the move src -> q
        close a cycle whose deltas sum below 0 (each state on the chain
        sums to at least its move's delta plus its parent's sum, and src's
        new sum is below its old one): src, and every state that reaches
        it, has no ceiling.  So the chains stay simple paths, every sum
        stays above -|Q| and the worklist ends (the "walk to the root"
        among the negative-cycle checks that Cherkassky and Goldberg,
        1999, compare).  A state with dist(q) > 0 is dead.  In
        final_state mode the value is not read at acceptance, so every
        state that reaches an accepting state has no ceiling.
        """
        into: dict[str, list[tuple[int, str]]] = {}
        for src, _, _, delta, dst in self.transitions:
            into.setdefault(dst, []).append((delta, src))
        back = {q: [src for _, src in moves] for q, moves in into.items()}
        if self.accept_mode == "final_state":
            return dict.fromkeys(reach(self.accepting, back), math.inf)
        # dist[q] is the least delta sum found from q to an accepting
        # state, through parent[q] (None for an accepting state at 0)
        dist = dict.fromkeys(self.accepting, 0)
        parent: dict[str, Optional[str]] = dict.fromkeys(self.accepting)
        cyclic: set[str] = set()
        todo = deque(self.accepting)
        while todo:
            q = todo.popleft()
            if q in cyclic:
                continue
            base = dist[q]
            for delta, src in into.get(q, ()):
                known = dist.get(src)
                if known is not None and known <= base + delta or src in cyclic:
                    continue
                if known is not None:
                    on_path = q
                    while on_path is not None and on_path != src:
                        on_path = parent[on_path]
                    if on_path is not None:
                        cyclic.add(src)
                        continue
                dist[src] = base + delta
                parent[src] = q
                todo.append(src)
        ceiling: dict[str, float] = {q: -total for q, total in dist.items() if total <= 0}
        ceiling.update(dict.fromkeys(reach(cyclic, back), math.inf))
        return ceiling

    @cached_property
    def _live_moves(self) -> Mapping[str, tuple[tuple[str, str, int, str], ...]]:
        """_by_state without the moves into dead states (those missing from
        _ceiling), or _by_state itself when no state is dead."""
        live = self._ceiling
        if len(live) == len(self.states):
            return self._by_state
        return {q: tuple(m for m in self._by_state[q] if m[3] in live) for q in live}

    def _guard_ok(self, guard: str, value: int) -> bool:
        if guard == "zero":
            return value == 0
        if guard == "positive":
            return value > 0
        return True

    def _is_accepting(self, state: str, value: int) -> bool:
        if state not in self.accepting:
            return False
        return value == 0 if self.accept_mode == "final_state_and_zero" else True

    def accepts(self, word: Iterable[str]) -> bool:
        """True when some run over the word ends accepting.

        A breadth-first search over configurations (state, position,
        value), with the counter capped at (|Q|·(|w|+1))².  That is |P|²
        for the product P of this machine with the path of w, the cap at
        which to_nfa and nrr_decide's counter route keep every nonempty
        machine nonempty, so epsilon moves may pump the counter
        quadratically high and the run is still found.  A linear cap
        misses such runs.
        """
        w = tuple(word)
        for sym in w:
            if sym not in self.alphabet:
                raise InputError(f"symbol {sym!r} is not in the alphabet")
        cap = (len(self.states) * (len(w) + 1)) ** 2
        start = (self.initial, 0, 0)
        seen = {start}
        queue = deque([start])
        while queue:
            state, pos, value = queue.popleft()
            if pos == len(w) and self._is_accepting(state, value):
                return True
            for read, guard, delta, dst in self._by_state.get(state, ()):
                if read == EPSILON:
                    npos = pos
                elif pos < len(w) and w[pos] == read:
                    npos = pos + 1
                else:
                    continue
                if not self._guard_ok(guard, value):
                    continue
                nval = value + delta
                if nval < 0 or nval > cap:
                    continue
                config = (dst, npos, nval)
                if config not in seen:
                    seen.add(config)
                    queue.append(config)
        return False

    def least_words(self, counter_cap: int) -> Iterator[tuple[str, tuple[str, ...]]]:
        """Each accepting state once, with the least accepted word that
        ends in it, in (length, lex) order of those words, over the runs
        that keep the counter <= counter_cap.  Least means shortest, then
        lexicographically smallest in the declared alphabet order: the
        first word yielded is the one to_nfa(counter_cap)
        .shortest_witness() returns, found without building the unfolding.

        Configurations (state, value) are claimed in (length, lex) order of
        the words that reach them.  Each group holds the configurations
        whose least word is the group's word; a group is created with its
        epsilon closure, and each configuration is marked seen at that
        moment, so a configuration's least word u·s comes from expanding
        the group of u (itself u's least-word group) by s.  The first group
        holding an accepting configuration of a state carries that state's
        least word.  A group holds its word as a back-pointer, the pair
        (parent group's pointer, last symbol), and the word is spelled only
        when it is yielded, so extending a group costs one pair, not a copy
        of the word.  The search ends once every accepting state is yielded
        or a level claims no new configuration.  There is no default cap:
        the caller picks it, as nrr_decide picks |P|² for the product
        machine P (to_nfa's default, which preserves emptiness).

        The search claims no configuration (q, v) with v above
        min(_ceiling[q], counter_cap), and none of a dead state, one
        missing from _ceiling.  Ignoring guards and the floor at 0, a run
        from (q, v) to an accepting configuration (f, 0) is a path of moves
        from q to f whose deltas sum to -v, so v <= -dist(q), the ceiling
        (in final_state mode, where the value is not read at acceptance, a
        state that reaches an accepting state has no ceiling).  Every
        successor of a cut configuration is cut too: a move q -> r with
        delta d gives dist(q) <= d + dist(r), so v > -dist(q) implies
        v + d > -dist(r).  No accepting run passes through a cut
        configuration, so the words, their order and the first word stay
        the same.  A branch that pumps the counter but can never bring it
        back to an accepting zero is walked only as high as it could still
        come back from, and a dead branch not at all.
        """
        ceiling = self._ceiling
        if self.initial not in ceiling:
            return
        top = {q: min(c, counter_cap) for q, c in ceiling.items()}
        moves = self._live_moves
        seen: set[tuple[str, int]] = set()
        pending = set(self.accepting)  # not yet yielded

        def claim(configs: Iterable[tuple[str, int]]) -> tuple[list[tuple[str, int]], list[str]]:
            """The unseen configurations and their epsilon closure, marked
            seen, and the accepting states first reached among them."""
            group = []
            for config in configs:
                if config not in seen:
                    seen.add(config)
                    group.append(config)
            accepted = []
            for state, value in group:  # grows while it is walked
                if state in pending and self._is_accepting(state, value):
                    pending.remove(state)
                    accepted.append(state)
                for read, guard, delta, dst in moves[state]:
                    if read != EPSILON or not self._guard_ok(guard, value):
                        continue
                    nxt = (dst, value + delta)
                    if 0 <= nxt[1] <= top[dst] and nxt not in seen:
                        seen.add(nxt)
                        group.append(nxt)
            return group, accepted

        def spell(node: Optional[tuple]) -> tuple[str, ...]:
            """The word of a group, read back along its parent pointers."""
            symbols = []
            while node is not None:
                node, symbol = node
                symbols.append(symbol)
            return tuple(reversed(symbols))

        start, accepted = claim([(self.initial, 0)])
        for state in accepted:
            yield state, ()
        # a group's word is its node: None for the empty word, else the
        # pair (parent's node, last symbol)
        level: list[tuple[Optional[tuple], list[tuple[str, int]]]] = [(None, start)]
        while level and pending:
            created = []
            for node, group in level:
                successors: dict[str, list[tuple[str, int]]] = {}
                for state, value in group:
                    for read, guard, delta, dst in moves[state]:
                        if read == EPSILON or not self._guard_ok(guard, value):
                            continue
                        nval = value + delta
                        if 0 <= nval <= top[dst]:
                            successors.setdefault(read, []).append((dst, nval))
                for symbol in self.alphabet:
                    if symbol in successors:
                        fresh, accepted = claim(successors[symbol])
                        if fresh:
                            child = (node, symbol)
                            if accepted:
                                word = spell(child)
                                for state in accepted:
                                    yield state, word
                            created.append((child, fresh))
            level = created

    # -- constructions -------------------------------------------------------

    def product(self, a: Nfa) -> "CounterAutomaton":
        """Counter automaton for L(self) intersected with L(a).

        State set is the cartesian product, each pair named by pair_name;
        counter moves come from this machine, the NFA component changes
        only on real symbols.  Only moves out of pairs reachable from the
        initial pair are built.
        """
        if set(self.alphabet) != set(a.alphabet):
            raise ContractError("product requires identical alphabets")
        names = {(q, p): pair_name(q, p) for q in self.states for p in a.states}
        start = (self.initial, a.initial)
        moves = synchronized_moves(
            start,
            ((src, read, (guard, delta), dst) for src, read, guard, delta, dst in self.transitions),
            ((src, label, None, dst) for src, label, dst in a.transitions),
        )
        return CounterAutomaton.build(
            self.alphabet,
            names[start],
            {names[(f, g)] for f in self.accepting for g in a.accepting},
            # an NFA move alone leaves the counter untouched
            {
                (names[src], read, *(counter or ("any", 0)), names[dst])
                for src, read, counter, _, dst in moves
            },
            accept_mode=self.accept_mode,
            states=names.values(),
        )

    def to_nfa(self, cap: Optional[int] = None) -> Nfa:
        """Finite unfolding of the counter up to `cap` (default |Q| squared).

        States are (state, value) pairs; moves that would push the counter
        past the cap fall into an absorbing reject state.  For a nonempty
        machine the default cap is large enough to keep some witness, so
        emptiness is preserved.  least_words walks these configurations on
        the fly; its first word is this automaton's shortest_witness.
        """
        if cap is None:
            cap = len(self.states) ** 2
        # names[q][c] is the unfolded state (q, c), formatted once per call
        names = {q: [f"({q},{c})" for c in range(cap + 1)] for q in self.states}
        reject = "reject"
        while reject in self.states:
            reject += "'"
        transitions: set[tuple[str, str, str]] = set()
        for src, read, guard, delta, dst in self.transitions:
            for value in range(cap + 1):
                if not self._guard_ok(guard, value):
                    continue
                nval = value + delta
                if nval < 0:
                    continue
                target = names[dst][nval] if nval <= cap else reject
                transitions.add((names[src][value], read, target))
        if self.accept_mode == "final_state_and_zero":
            accepting = {names[q][0] for q in self.accepting}
        else:
            accepting = {name for q in self.accepting for name in names[q]}
        states = {name for row in names.values() for name in row}
        states.add(reject)
        return Nfa(
            frozenset(states),
            self.alphabet,
            names[self.initial][0],
            frozenset(accepting),
            frozenset(transitions),
        )

    def to_cfg(self) -> Cfg:
        """A grammar for L(self), with no cap on the counter: the triple
        construction of Hopcroft & Ullman (1979, ch. 5) on the stack that
        holds value v as a bottom marker ⊥ under v copies of Z.  Guards
        read the top (zero needs ⊥, positive needs Z); a -1 move needs Z.

        L[p,X,q] derives the words that take the machine from p, with X on
        top, to q at the same height without going below it: the empty
        word when p = q, a move a into r that keeps the value then
        L[r,X,q], or a +1 move a into r, L[r,Z,s], a -1 move b from s into
        t, then L[t,X,q].  The axiom U[initial,⊥] and every U[p,X] derive
        L[p,X,f] for accepting f; in final_state mode also L[p,X,q] a
        U[r,Z] for a +1 move a from q into r that is never undone.
        Nonterminals are numbered after a prefix that starts no letter,
        so no name is a letter or another's, whatever the machine's names.
        """
        prefix = "N"
        while any(sym.startswith(prefix) for sym in self.alphabet):
            prefix += "'"
        names: dict[tuple, str] = {}

        def nt(*key) -> str:
            return names.setdefault(key, f"{prefix}{len(names)}")

        states, accepting = sorted(self.states), sorted(self.accepting)
        # (src, letter, guard, delta, dst), the letter () on an epsilon move
        moves = [(s, (read,) if read else (), *rest) for s, read, *rest in sorted(self.transitions)]
        pops = [(s, b, t) for s, b, guard, delta, t in moves if delta < 0 and guard != "zero"]
        rules: list[tuple[str, tuple[str, ...]]] = []
        for top in (False, True):  # the top is ⊥, or Z
            rules += [(nt("L", p, top, p), ()) for p in states]
            rules += [(nt("U", p, top), (nt("L", p, top, f),)) for p in states for f in accepting]
            for src, a, guard, delta, dst in moves:
                # a -1 move only closes the rule of its +1 move
                if delta < 0 or guard != "any" and (guard == "positive") != top:
                    continue
                for q in states:
                    lhs = nt("L", src, top, q)
                    if delta == 0:
                        rules.append((lhs, (*a, nt("L", dst, top, q))))
                    else:
                        rules += [
                            (lhs, (*a, nt("L", dst, True, s), *b, nt("L", t, top, q)))
                            for s, b, t in pops
                        ]
                        if self.accept_mode == "final_state":  # the move a is never undone
                            escape = (nt("L", q, top, src), *a, nt("U", dst, True))
                            rules.append((nt("U", q, top), escape))
        return Cfg.build(rules, nt("U", self.initial, False), names.values(), self.alphabet)
