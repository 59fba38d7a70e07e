"""Top-level decision procedures for regular realizability.

nrr_decide answers "does L(a) meet the filter" with a verified witness,
dispatching per filter kind; substitution_collapse rewrites an automaton so
an outer filter can be applied after a language substitution;
rational_index measures worst-case shortest witnesses over n-state
machines; log2_check re-decides grammar filters with the depth-bounded
recursive certificate search and reports its instrumentation.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional

from .automata import EPSILON, Nfa
from .errors import ContractError, InputError, UnsupportedFilterError
from .filters import FilterSpec
from .grammars import Cfg
from .reductions import _check_terminals, _derivable, intersection_shortest


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of one realizability decision.

    A present witness is always accepted by the input automaton and passes
    the filter's membership oracle (checked before the report is built).
    stats carries construction sizes: nonterminals_created for the grammar
    route (the size |N|·|Q|²+1 of the triple product the search runs
    over, exactly the nonterminal count of the materialized product for
    the CNF filter grammar), states_created for the counter route,
    shortest_witness_length when a witness exists.
    """

    nonempty: bool
    witness: Optional[tuple[str, ...]]
    method: str
    stats: Mapping[str, int]

    def to_dict(self) -> dict:
        return {
            "nonempty": self.nonempty,
            "witness": list(self.witness) if self.witness is not None else None,
            "method": self.method,
            "stats": dict(self.stats),
        }


@dataclass(frozen=True)
class CheckerStats:
    """Instrumentation of the recursive certificate search.

    max_live_triples counts, at any instant, the triples pinned by the
    recursion stack (one per frame) plus the single chain triple the
    active frame is extending; suspended frames' chain positions are
    recoverable from the deterministic iteration order and are not
    counted, which is what keeps the count at most depth + 1.
    """

    max_recursion_depth: int
    max_live_triples: int
    result: bool

    def to_dict(self) -> dict:
        return {
            "max_recursion_depth": self.max_recursion_depth,
            "max_live_triples": self.max_live_triples,
            "result": self.result,
        }


def _with_alphabet(a: Nfa, alphabet: tuple[str, ...]) -> Nfa:
    if a.alphabet == alphabet:
        return a
    return Nfa(a.states, alphabet, a.initial, a.accepting, a.transitions)


def nrr_decide(a: Nfa, f: FilterSpec) -> DecisionReport:
    """Decide L(a) ∩ F ≠ ∅ and report a shortest witness.

    Grammar-backed filters go through intersection_shortest on the CNF
    filter grammar: the least word (shortest, then lexicographic over the
    sorted terminal names) of the implicit triple product, whose size
    |N|·|Q|²+1 is reported as nonterminals_created.  Counter filters go
    through the product counter machine unfolded to an NFA at the default
    counter cap.  The witness is re-checked against the automaton and the
    filter oracle before return.
    """
    for sym in a.alphabet:
        if sym not in f.alphabet:
            raise InputError(f"automaton symbol {sym!r} is not in the filter alphabet")
    if f.kind == "s_sharp_up":
        raise UnsupportedFilterError(
            "the s_sharp_up filter has no grammar; it is a reduction target only"
        )
    a_full = _with_alphabet(a, f.alphabet)
    if f.kind == "counter":
        product = f.automaton.product(a_full)
        unfolded = product.to_nfa()
        witness = unfolded.shortest_witness()
        method = "counter"
        stats = {
            "nonterminals_created": 0,
            "states_created": len(product.states) + len(unfolded.states),
        }
    else:
        grammar = f.filter_grammar().cnf()
        witness = intersection_shortest(grammar, a_full)
        method = "bar_hillel"
        stats = {
            "nonterminals_created": len(grammar.nonterminals) * len(a_full.states) ** 2 + 1,
            "states_created": 0,
        }
    if witness is not None:
        stats["shortest_witness_length"] = len(witness)
        if not a_full.accepts(witness):
            raise RuntimeError("internal error: witness rejected by the input automaton")
        if not f.contains(witness):
            raise RuntimeError("internal error: witness rejected by the filter oracle")
    return DecisionReport(witness is not None, witness, method, stats)


def _restrict(a: Nfa, alphabet: tuple[str, ...]) -> Nfa:
    allowed = set(alphabet)
    transitions = frozenset(
        (src, label, dst)
        for src, label, dst in a.transitions
        if label == EPSILON or label in allowed
    )
    return Nfa(a.states, alphabet, a.initial, a.accepting, transitions)


def substitution_collapse(a: Nfa, sub: Mapping[str, FilterSpec]) -> Nfa:
    """Collapse substituted letters: edge (q, x, p) iff some word of the
    substituent language for x takes a from q to p.

    L(a) meets the substituted language sigma(L) exactly when the collapsed
    automaton meets L itself.  Decisions are memoized per (filter, q, p),
    so outer letters sharing one substituent cost a single decision.
    """
    outer = tuple(sorted(sub))
    cache: dict[tuple[FilterSpec, str, str], bool] = {}
    transitions: set[tuple[str, str, str]] = set()
    for q in sorted(a.states):
        for p in sorted(a.states):
            segment = None
            for x in outer:
                f = sub[x]
                key = (f, q, p)
                if key not in cache:
                    if segment is None:
                        segment = a.sub_automaton(q, p)
                    cache[key] = nrr_decide(_restrict(segment, f.alphabet), f).nonempty
                if cache[key]:
                    transitions.add((q, x, p))
    return Nfa(a.states, outer, a.initial, a.accepting, frozenset(transitions))


def decide_substituted(
    a: Nfa, outer_filter: FilterSpec, sub: Mapping[str, FilterSpec]
) -> DecisionReport:
    """Decide L(a) ∩ sigma(L) ≠ ∅ where sigma substitutes sub[x] for each
    letter x of the outer filter's language L.

    The witness in the report is a word of the outer language accepted by
    the collapsed automaton.
    """
    for sym in outer_filter.alphabet:
        if sym not in sub:
            raise InputError(f"no substituent language is given for outer symbol {sym!r}")
    collapsed = substitution_collapse(a, sub)
    inner = nrr_decide(collapsed, outer_filter)
    stats = dict(inner.stats)
    stats["states_created"] += len(collapsed.states)
    return DecisionReport(inner.nonempty, inner.witness, "substitution", stats)


# -- rational index ------------------------------------------------------------


def _shortest_dyck1_word(
    n: int, edges: tuple[tuple[int, str, int], ...], accepting: int
) -> Optional[int]:
    """Shortest balanced-word length through an n-state machine over one
    bracket pair, or None; counter values above n*n cannot be part of a
    shortest such witness, so the search space is (state, 0..n*n)."""
    cap = n * n
    start = (0, 0)
    if accepting == 0:
        return 0
    seen = {start}
    frontier = deque([(0, 0, 0)])
    by_state: dict[int, list[tuple[str, int]]] = {}
    for src, label, dst in edges:
        by_state.setdefault(src, []).append((label, dst))
    while frontier:
        state, height, dist = frontier.popleft()
        for label, dst in by_state.get(state, ()):
            nh = height + 1 if label == "a1" else height - 1
            if nh < 0 or nh > cap:
                continue
            if dst == accepting and nh == 0:
                return dist + 1
            if (dst, nh) not in seen:
                seen.add((dst, nh))
                frontier.append((dst, nh, dist + 1))
    return None


def rational_index(
    f: FilterSpec,
    n: int,
    mode: str = "exhaustive",
    sample_count: int = 200,
    seed: int = 0,
    ceiling: int = 3,
) -> int:
    """Worst case over n-state machines of the shortest witness length.

    Exhaustive mode enumerates epsilon-free machines with initial state 0
    and a single accepting state, deduplicated up to permutations of the
    non-initial states; machines whose language misses the filter are
    skipped per the side condition.  Both restrictions preserve the value:
    epsilon moves can be eliminated without adding states, and a machine
    with several accepting states realizes its shortest witness through
    one of them.  Sample mode evaluates seeded random machines instead and
    reports the max found (a lower bound).
    """
    if n < 1:
        raise InputError("machines need at least one state")
    alphabet = f.alphabet
    edges = tuple(
        (i, sym, j) for i in range(n) for sym in alphabet for j in range(n)
    )
    if mode == "exhaustive":
        if n > ceiling:
            raise InputError(f"exhaustive mode is limited to {ceiling} states")
        if len(edges) > 20:
            raise InputError(
                "exhaustive enumeration over this alphabet/state count is too large"
            )
        machines = _enumerate_machines(n, edges)
    elif mode == "sample":
        machines = _sample_machines(n, edges, sample_count, seed)
    else:
        raise InputError(f"unknown mode {mode!r}; expected exhaustive or sample")

    fast_dyck1 = f.kind == "dyck" and f.n == 1
    best: Optional[int] = None
    for subset, accepting in machines:
        if fast_dyck1:
            shortest = _shortest_dyck1_word(n, subset, accepting)
        else:
            machine = Nfa.build(
                alphabet,
                "0",
                {str(accepting)},
                {(str(i), sym, str(j)) for i, sym, j in subset},
                states={str(i) for i in range(n)},
            )
            witness = nrr_decide(machine, f).witness
            shortest = None if witness is None else len(witness)
        if shortest is not None and (best is None or shortest > best):
            best = shortest
    if best is None:
        raise InputError("no n-state machine meets the filter; the index is undefined")
    return best


def _enumerate_machines(n: int, edges: tuple[tuple[int, str, int], ...]):
    perms = _permutations_fixing_zero(n)
    relabeled_index: list[list[int]] = []
    for perm in perms:
        table = []
        edge_pos = {e: k for k, e in enumerate(edges)}
        for i, sym, j in edges:
            table.append(edge_pos[(perm[i], sym, perm[j])])
        relabeled_index.append(table)
    for mask in range(1 << len(edges)):
        bits = [k for k in range(len(edges)) if mask >> k & 1]
        for accepting in range(n):
            signature = (mask, accepting)
            canonical = signature
            for perm, table in zip(perms, relabeled_index):
                other_mask = 0
                for k in bits:
                    other_mask |= 1 << table[k]
                other = (other_mask, perm[accepting])
                if other < canonical:
                    canonical = other
            if canonical != signature:
                continue
            yield tuple(edges[k] for k in bits), accepting


def _permutations_fixing_zero(n: int) -> list[tuple[int, ...]]:
    import itertools

    return [
        (0, *rest) for rest in itertools.permutations(range(1, n))
    ]


def _sample_machines(
    n: int, edges: tuple[tuple[int, str, int], ...], count: int, seed: int
):
    rng = random.Random(seed)
    for _ in range(count):
        subset = tuple(e for e in edges if rng.random() < 0.3)
        yield subset, rng.randrange(n)


# -- instrumented recursive checker ---------------------------------------------


def log2_check(f_grammar: Cfg, a: Nfa) -> CheckerStats:
    """Decide L(a) ∩ L(f_grammar) ≠ ∅ by the recursive certificate search.

    A triple (q, A, p) claims the automaton reads a word derivable from A
    going from q to p.  A composite claim is verified by picking a central
    triple whose word takes between a third and two thirds of the length,
    then walking the ancestor chain back to the claim, verifying each
    chain sibling recursively; every recursive call shrinks the length by
    a factor of at least 2/3, which bounds the recursion depth
    logarithmically in the witness length.

    Emptiness is established first by the length-free search over the
    derivable triples (reductions._derivable), whose triple set also
    prunes the candidates; the length-indexed search then runs on
    nonempty instances only, and the reported depth/live-triple figures
    are its instrumentation.
    """
    if not f_grammar.is_cnf():
        raise ContractError("the checker expects a grammar in Chomsky normal form")
    if a.has_epsilon_moves():
        raise InputError("the checker expects an automaton without epsilon moves")
    _check_terminals(f_grammar, a)

    axiom_eps = (f_grammar.axiom, ()) in set(f_grammar.rules)
    if axiom_eps and a.initial in a.accepting:
        return CheckerStats(0, 0, True)

    as_right: dict[str, list[tuple[str, str]]] = {}
    as_left: dict[str, list[tuple[str, str]]] = {}
    for lhs, rhs in f_grammar.rules:
        if len(rhs) == 2:
            b, c = rhs
            as_right.setdefault(c, []).append((lhs, b))
            as_left.setdefault(b, []).append((lhs, c))
    states = sorted(a.states)
    goals = [(a.initial, f_grammar.axiom, p) for p in sorted(a.accepting)]

    # derivable triples and their least words; length 1 marks a terminal leaf
    closure = dict(_derivable(f_grammar, a))
    if not any(goal in closure for goal in goals):
        return CheckerStats(0, 0, False)

    recorder = {"depth": 0, "live": 0}
    memo: dict[tuple[tuple[str, str, str], int], bool] = {}

    def derivable_n(t: tuple[str, str, str], n: int, depth: int) -> bool:
        recorder["depth"] = max(recorder["depth"], depth)
        recorder["live"] = max(recorder["live"], depth)
        key = (t, n)
        if key in memo:
            return memo[key]
        if t not in closure:
            # not derivable at any length; skip without burning depth
            memo[key] = False
            return False
        if n == 1:
            memo[key] = len(closure[t]) == 1
            return memo[key]
        lo = -(-n // 3)
        hi = (2 * n) // 3
        result = False
        for central in central_candidates():
            if result:
                break
            for m in range(lo, hi + 1):
                if not derivable_n(central, m, depth + 1):
                    continue
                if _chain_reaches(central, m, t, n, depth):
                    result = True
                    break
        memo[key] = result
        return result

    def central_candidates():
        # candidate central triples in a fixed order: by nonterminal rank,
        # then state pair; triples outside the length-free closure cannot
        # head a subtree of any length and are not offered at all
        for sym in f_grammar.ordered_nonterminals:
            for q in states:
                for p in states:
                    if (q, sym, p) in closure:
                        yield (q, sym, p)

    def _chain_reaches(
        start: tuple[str, str, str], start_len: int, t: tuple[str, str, str], n: int, depth: int
    ) -> bool:
        visited = {(start, start_len)}
        frontier = deque([(start, start_len)])
        while frontier:
            cur, cur_len = frontier.popleft()
            recorder["live"] = max(recorder["live"], depth + 1)
            cq, csym, cp = cur
            budget = n - cur_len
            if budget < 1:
                continue
            for lhs, sibling_sym in as_right.get(csym, ()):
                for x in states:
                    if (x, sibling_sym, cq) not in closure:
                        continue
                    for k in range(1, budget + 1):
                        if not derivable_n((x, sibling_sym, cq), k, depth + 1):
                            continue
                        parent = ((x, lhs, cp), cur_len + k)
                        if parent == (t, n):
                            return True
                        if parent[1] < n and parent not in visited:
                            visited.add(parent)
                            frontier.append(parent)
            for lhs, sibling_sym in as_left.get(csym, ()):
                for y in states:
                    if (cp, sibling_sym, y) not in closure:
                        continue
                    for k in range(1, budget + 1):
                        if not derivable_n((cp, sibling_sym, y), k, depth + 1):
                            continue
                        parent = ((cq, lhs, y), cur_len + k)
                        if parent == (t, n):
                            return True
                        if parent[1] < n and parent not in visited:
                            visited.add(parent)
                            frontier.append(parent)
        return False

    n = 1
    while True:
        if any(derivable_n(goal, n, 1) for goal in goals):
            return CheckerStats(recorder["depth"], recorder["live"], True)
        n += 1
