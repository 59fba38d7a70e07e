"""One-counter automata with zero/positive guards.

The counter starts at 0 and never goes negative: a -1 move is only enabled
when the current value is positive, regardless of the guard.  Acceptance is
by final state, optionally also requiring counter value 0.
"""
from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from itertools import repeat
from typing import Iterable, Mapping, Optional

from .automata import (
    EPSILON, Nfa, check_machine, machine_states, pair_name, reach, require_strings,
    synchronized_moves,
)
from .errors import ContractError, InputError
from .grammars import Cfg, fresh
from .values import Frozen

GUARDS = ("any", "zero", "positive")
ACCEPT_MODES = ("final_state", "final_state_and_zero")
REJECT = "r"  # the absorbing state of every unfolding, whose other names start with "("


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
    def _reversed(self) -> Mapping[str, Mapping[str, int]]:
        """The moves read backward with the guards ignored: by target, each
        source with the least delta of its moves into that target, all a
        least sum or a negative cycle reads (reach reads the sources)."""
        into: dict[str, dict[str, int]] = {}
        for src, _, _, delta, dst in self.transitions:
            sources = into.setdefault(dst, {})
            sources[src] = min(delta, sources.get(src, delta))
        return into

    def _least_sums(self, seeds: Iterable[str]) -> dict[str, float]:
        """For each state that reaches a seed, the least delta sum over the
        paths of moves from it to a seed (0 at a seed): -math.inf for a
        state that reaches a cycle whose deltas sum below 0.

        A shortest path (Bellman, 1958), found by a worklist over
        _reversed from the seeds, one least delta per pair of states.
        Each estimate records its parent, the state it came through.  When
        src would get a lower sum through q while src is on q's chain of
        parents, that chain and the move src -> q close a cycle whose
        deltas sum below 0 (each state on the chain sums to at least its
        move's delta plus its parent's sum, and src's new sum is below its
        old one): src, and every state that reaches it, gets -math.inf.
        So the chains stay simple paths, every finite sum stays above -|Q|
        and the worklist ends (the "walk to the root" among the
        negative-cycle checks that Cherkassky and Goldberg, 1999, compare).
        """
        into = self._reversed
        # dist[q] is the least delta sum found from q to a seed, through
        # parent[q] (None for a seed at 0)
        dist: dict[str, float] = dict.fromkeys(seeds, 0)
        parent: dict[str, Optional[str]] = dict.fromkeys(dist)
        cyclic: set[str] = set()
        todo = deque(dist)
        while todo:
            q = todo.popleft()
            if q in cyclic:
                continue
            base = dist[q]
            for src, delta in into.get(q, {}).items():
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
        dist.update(dict.fromkeys(reach(cyclic, into), -math.inf))
        return dist

    @cached_property
    def _ceiling(self) -> Mapping[str, float]:
        """The highest counter value from which a state may still reach an
        accepting configuration, for each state that may reach one at
        some value (math.inf when no value is too high).  A state missing
        here is dead.

        Ignore the guards and the floor at 0.  A run from (q, v) that ends
        accepting at value 0 is then a path of moves from q to an
        accepting state whose deltas sum to -v, so v <= -dist(q), where
        dist(q) is the least delta sum over such paths (_least_sums from
        the accepting states).  A state that reaches a cycle whose deltas
        sum below 0 has dist(q) = -math.inf, so no ceiling; one with
        dist(q) > 0 is dead.  In
        final_state mode the value is not read at acceptance, so every
        state that reaches an accepting state has no ceiling.
        """
        if self.accept_mode == "final_state":
            return dict.fromkeys(reach(self.accepting, self._reversed), math.inf)
        return {q: -total for q, total in self._least_sums(self.accepting).items() if total <= 0}

    @cached_property
    def _floor(self) -> Mapping[str, float]:
        """For each state q that reaches an accepting state, drop(q) + 1,
        where drop(q) is the largest total fall of the counter over any
        path of moves from q through states that reach one, guards and
        the floor at 0 ignored: -dist(q) for the least delta sum dist(q)
        over those paths, the empty one included (_least_sums seeded at 0
        on every such state).  It is math.inf when such a path reaches a
        cycle whose deltas sum below 0, where dist(q) is -math.inf.  A
        state missing here is dead.

        An accepting run visits only states that reach acceptance.  From
        (q, v) with v > drop(q) the counter stays above 0 on every such
        run, so every zero guard fails, every positive guard passes,
        every -1 move is enabled and no run accepts at zero, whatever v
        is: all those values behave alike, and accepts stores the least
        of them.  A move q -> r between such states with delta d gives
        drop(q) >= drop(r) - d, so the successors of a value above
        drop(q) lie above drop(r) too.
        """
        return {
            q: 1 - total
            for q, total in self._least_sums(reach(self.accepting, self._reversed)).items()
        }

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

    @cached_property
    def _backward(self) -> Nfa:
        """The machine's moves reversed, counter and guards dropped, as an
        Nfa: the states it reaches from the accepting ones are those that
        reach acceptance here.  accepts reads a word backward by looking
        each letter up in its _closed_step."""
        return Nfa(
            self.states, self.alphabet, self.initial, self.accepting,
            frozenset((dst, read, src) for src, read, _, _, dst in self.transitions),
        )

    def accepts(self, word: Iterable[str]) -> bool:
        """True when some run over the word ends accepting.

        A breadth-first search over configurations (state, position,
        value), with the counter capped at (|Q|·(|w|+1))².  That is |P|²
        for the product P of this machine with the path of w, the cap at
        which to_nfa and nrr_decide's counter route keep every nonempty
        machine nonempty, so epsilon moves may pump the counter
        quadratically high and the run is still found.  A linear cap
        misses such runs.

        The word is first read backward with the counter ignored, from
        the epsilon closure of the accepting states in _backward, each
        letter looked up in _backward._closed_step: live[i] holds the
        states from which w[i:] may reach acceptance.  The search takes no
        move into a state outside them, and tests that before the move's
        guard: a move from the start into live[npos] would put the start
        in live[0], so a word no run can finish is rejected before any
        guard is checked.  Every move it takes is still read from
        _by_state, so a wrong live set could refuse a good word but never
        accept a bad one.

        A value above drop(q), the largest fall of the counter along any
        path of moves from q through states that reach acceptance, is
        stored as drop(q) + 1 (_floor): from all such values the runs are
        the same.  So epsilon moves that pump the counter add at most
        drop(q) + 2 values per state and position, and the search is
        linear in the word.  A stored value is never above the values it
        stands for, so the cap cuts no run that it kept before, and the
        verdict stays that of the uncapped machine, which the cap already
        gives.  A state that reaches a cycle whose deltas sum below 0,
        through states that reach acceptance, gets no floor: its values
        are walked up to the cap.
        """
        w = tuple(word)
        for sym in w:
            if sym not in self.alphabet:
                raise InputError(f"symbol {sym!r} is not in the alphabet")
        back = self._backward
        steps = back._closed_step
        live = [back.eps_closure(self.accepting)]
        for sym in reversed(w):
            live.append({src for q in live[-1] for src in steps.get((q, sym), ())})
        live.reverse()
        n = len(w)
        cap = (len(self.states) * (n + 1)) ** 2
        by_state, guard_ok, floor = self._by_state, self._guard_ok, self._floor
        start = (self.initial, 0, 0)
        seen = {start}
        queue = deque([start])
        while queue:
            state, pos, value = queue.popleft()
            if pos == n and self._is_accepting(state, value):
                return True
            for read, guard, delta, dst in by_state[state]:
                if read == EPSILON:
                    npos = pos
                elif pos < n and w[pos] == read:
                    npos = pos + 1
                else:
                    continue
                if dst not in live[npos] or not guard_ok(guard, value):
                    continue
                nval = value + delta
                if nval < 0 or nval > cap:
                    continue
                config = (dst, npos, min(nval, floor[dst]))
                if config not in seen:
                    seen.add(config)
                    queue.append(config)
        return False

    def least_word(self, counter_cap: int) -> Optional[tuple[str, ...]]:
        """The least accepted word over the runs that keep the counter <=
        counter_cap, or None: shortest, then lexicographically smallest
        over the sorted letter names, whatever the declared alphabet order,
        the word that to_nfa(counter_cap).shortest_witness() returns, found
        without building the unfolding.  The caller picks the cap, as
        nrr_decide picks |P|² for the product machine P (to_nfa's default).

        Configurations (state, value) are claimed in (length, lex) order of
        the words that reach them, a group per word.  A level lists one
        entry per word: the word's node, kept as a back-pointer (None for
        the empty word, else the pair (parent's node, last symbol)), and
        the configurations it still has to claim, starting from
        [(None, [(initial, 0)])].  An entry is claimed when the loop
        reaches it: its unseen configurations with their epsilon closure,
        marked seen then.  The same walk over their moves gathers the
        group's letter successors, one entry per letter, in sorted letter
        order, on the next level.  The first group holding an accepting
        configuration gives the word; a level with no entry ends the
        search.

        No move enters a configuration (q, v) with v above
        min(_ceiling[q], counter_cap), nor one of a dead state, missing
        from _ceiling.  Ignoring guards and the floor at 0, a run from
        (q, v) to an accepting (f, 0) is a path whose deltas sum to -v, so
        v <= -dist(q), the ceiling; a move q -> r with delta d gives
        dist(q) <= d + dist(r), so the successors of a cut configuration
        are cut too, and no accepting run passes through one: a dead start
        is claimed alone and the search ends.  A branch that pumps the
        counter is walked only as high as it could still come back from.
        """
        top = {q: min(c, counter_cap) for q, c in self._ceiling.items()}
        by_state, guard_ok = self._by_state, self._guard_ok
        seen: set[tuple[str, int]] = set()
        level: list[tuple[Optional[tuple], list[tuple[str, int]]]] = [(None, [(self.initial, 0)])]
        while level:
            created = []
            for node, configs in level:
                group = []
                for config in configs:
                    if config not in seen:
                        seen.add(config)
                        group.append(config)
                successors: dict[str, list[tuple[str, int]]] = {}
                for state, value in group:  # grows while it is walked
                    if self._is_accepting(state, value):
                        symbols = []
                        while node is not None:
                            node, last = node
                            symbols.append(last)
                        return tuple(reversed(symbols))
                    for read, guard, delta, dst in by_state[state]:
                        nxt = (dst, value + delta)
                        if not 0 <= nxt[1] <= top.get(dst, -1) or not guard_ok(guard, value):
                            continue
                        if read != EPSILON:
                            successors.setdefault(read, []).append(nxt)
                        elif nxt not in seen:
                            seen.add(nxt)
                            group.append(nxt)
                for symbol in sorted(successors):
                    created.append(((node, symbol), successors[symbol]))
            level = created
        return None

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

        States are (state, value) pairs named "(q,c)" for values 0..cap,
        plus the absorbing reject state REJECT, where a move that would
        take the counter below 0 or past the cap falls.  For a nonempty
        machine the default cap is large enough to keep some witness, so
        emptiness is preserved.  least_word walks these configurations on
        the fly and returns this automaton's shortest_witness.
        """
        return self._unfold(len(self.states) ** 2 if cap is None else cap)[0]

    def _unfold(self, cap: int) -> tuple[Nfa, Mapping[str, list[str]]]:
        """to_nfa(cap) and its name table, names[q][c] being (q, c).  Each
        move pairs a slice of its source row with one of its target row
        shifted by the delta, REJECT filling the values it leaves."""
        names = {q: [f"({q},{c})" for c in range(cap + 1)] for q in self.states}
        transitions: set[tuple[str, str, str]] = set()
        for src, read, guard, delta, dst in self.transitions:
            sources, targets = names[src], names[dst]
            if delta:
                targets = targets[1:] + [REJECT] if delta > 0 else [REJECT] + targets[:-1]
            if guard == "zero":
                sources, targets = sources[:1], targets[:1]
            elif guard == "positive":
                sources, targets = sources[1:], targets[1:]
            transitions.update(zip(sources, repeat(read), targets))
        if self.accept_mode == "final_state_and_zero":
            accepting = {names[q][0] for q in self.accepting}
        else:
            accepting = {name for q in self.accepting for name in names[q]}
        states = frozenset((REJECT, *(name for row in names.values() for name in row)))
        start = names[self.initial][0]
        nfa = Nfa(states, self.alphabet, start, frozenset(accepting), frozenset(transitions))
        return nfa, names

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
        Nonterminals are N0, N1, ..., each primed (grammars.fresh) past the
        letters and the names before it, whatever the machine's names.
        """
        taken = set(self.alphabet)
        names: dict[tuple, str] = {}

        def nt(*key) -> str:
            if key not in names:
                names[key] = fresh(f"N{len(names)}", taken)
            return names[key]

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
