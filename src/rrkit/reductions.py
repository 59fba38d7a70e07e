"""Grammar/automaton constructions the decision engine is built from.

Contents: the triple-product grammar for a CFG/NFA intersection; one
ordered search over the same triples that answers intersection questions
without materializing the grammar; a transducer turning Dyck words into
the words of a given grammar; the derivation-height bound; the height
marking, which is the counter unfolding (CounterAutomaton.to_nfa) of the
input machine read as a one-counter machine; and the morphism reduction
embedding two-pair bracket realizability into S_#^up.
"""
from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Iterator, Mapping, Optional

from .automata import EPSILON, Nfa, escape
from .counter import REJECT, CounterAutomaton
from .errors import ContractError, InputError
from .filters import ALPHABET_FULL, dyck_alphabet, dyck_encoder, parse_filter_name
from .grammars import Cfg, CnfTable
from .transducers import Transducer
from .values import Frozen

D2_ALPHABET = dyck_alphabet(2)
# the level change of each two-pair bracket move, in the marking and its live band
_SHIFT = {EPSILON: 0, "a1": 1, "a2": 1, "abar1": -1, "abar2": -1}


def _triple(q: str, sym: str, p: str) -> str:
    """The name [q,sym,p], with backslash and comma escaped in each part,
    so that distinct triples get distinct names."""
    return f"[{escape(q)},{escape(sym)},{escape(p)}]"


def _check_terminals(g: Cfg, a: Nfa) -> None:
    alphabet = a._letters
    for t in g.terminals:
        if t not in alphabet:
            raise InputError(f"grammar terminal {t!r} is missing from the automaton alphabet")


def bar_hillel(g: Cfg, a: Nfa) -> Cfg:
    """Triple-product grammar generating L(g) ∩ L(a).

    Nonterminals are a fresh axiom plus [q,A,p] for every grammar
    nonterminal A and automaton state pair; a word derived from [q,A,p]
    takes the automaton from q to p.  Epsilon transitions of the automaton
    are absorbed by closing junction states under epsilon reachability.
    Terminal rules A -> s become direct rules [q,A,p] -> s, so for a CNF
    input the nonterminal count is exactly |N|*|Q|^2 + 1; bracket
    nonterminals [q,s,p] for terminal s are materialized only for longer
    mixed rule bodies.
    """
    terminal_set = set(g.terminals)
    _check_terminals(g, a)
    states = sorted(a.states)
    closure, step = a._closure, a._closed_step

    axiom = g.axiom + "'"
    nonterminals: list[str] = [axiom]
    for sym in g.nonterminals:
        for q in states:
            for p in states:
                nonterminals.append(_triple(q, sym, p))

    rules: dict[tuple[str, tuple[str, ...]], None] = {}
    for q_f in sorted(a.accepting):
        rules[(axiom, (_triple(a.initial, g.axiom, q_f),))] = None

    # terminal bracket nonterminals demanded by mixed rule bodies, in
    # first-use order; maps to True once the matching rule is emittable
    bracket_uses: dict[tuple[str, str, str], None] = {}

    def chain_bodies(rhs: tuple[str, ...], q: str, p: str) -> Iterator[tuple[str, ...]]:
        # boundary states: the first symbol starts exactly at q, the last
        # ends exactly at p, and each junction may cross an epsilon path
        def walk(i: int, start: str, acc: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
            sym = rhs[i]
            if i == len(rhs) - 1:
                yield acc + (_use(start, sym, p),)
                return
            for v in states:
                here = _use(start, sym, v)
                for u in closure[v]:
                    yield from walk(i + 1, u, acc + (here,))

        def _use(u: str, sym: str, v: str) -> str:
            if sym in terminal_set:
                bracket_uses.setdefault((u, sym, v), None)
            return _triple(u, sym, v)

        return walk(0, q, ())

    for lhs, rhs in g.rules:
        if rhs == ():
            for q in states:
                for p in closure[q]:
                    rules[(_triple(q, lhs, p), ())] = None
        elif len(rhs) == 1 and rhs[0] in terminal_set:
            for q in states:
                for p in step.get((q, rhs[0]), ()):
                    rules[(_triple(q, lhs, p), (rhs[0],))] = None
        else:
            for q in states:
                for p in states:
                    for body in chain_bodies(rhs, q, p):
                        rules[(_triple(q, lhs, p), body)] = None

    for u, sigma, v in bracket_uses:
        nonterminals.append(_triple(u, sigma, v))
        if v in step.get((u, sigma), ()):
            rules[(_triple(u, sigma, v), (sigma,))] = None

    return Cfg(frozenset(nonterminals), g.terminals, tuple(rules), axiom)


def _require_cnf(g: Cfg) -> None:
    if not g.is_cnf():
        raise ContractError("this operation expects a grammar in Chomsky normal form")


def _derivable(g: Cfg, a: Nfa) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every derivable triple (q, A, p) of CNF g over a, by key, with its
    least word.

    The one entry for CFG∩NFA questions: it checks at once, before the
    first triple is asked for, that g is CNF and that a reads its
    terminals, so a caller may then read g.cnf_table and a's ranks.  A
    triple is derivable when some word derived from A takes a from q to p,
    epsilon moves included; words are tuples of ranks in the sorted
    terminal names, ordered by (length, ranks).  A triple's key is the int
    (rank(q)·|N| + rank(A))·|Q| + rank(p), with the states ranked in
    sorted name order (Nfa._state_rank) and the nonterminals in sorted
    name order (g.cnf_table), so keys order as the (q, A, p) name tuples
    do.
    Knuth's generalization of Dijkstra over the CFL-reachability worklist:
    the axiom's epsilon rule seeds the heap with (q, axiom, p) for each p
    in q's epsilon closure (the axiom is on no right-hand side, so these
    join nothing), terminal rules seed it with their letters, and a
    settled triple joins, through each binary rule it can be a child of,
    with the settled siblings at its exact boundary state.  No epsilon
    path needs crossing there: the terminal moves are epsilon-closed on
    both sides (Nfa._closed_step), so a sibling across an epsilon path is
    also a sibling at the exact state, with the same word.
    Concatenation is monotone and never shrinks a word in this order, so
    a triple's first pop carries its least word, and triples come out in
    (length, ranks, key) order.  The heap breaks ties between equal words
    on the key, and a key orders as its (q, A, p) name tuple, so the
    order is (length, ranks, triple names), whatever order the states and
    rules were created in.
    """
    _require_cnf(g)
    _check_terminals(g, a)
    return _settle(g.cnf_table, a)


def _settle(table: CnfTable, a: Nfa) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The closure of _derivable, once its checks have passed."""
    rank = a._state_rank
    nq, nn = len(rank), len(table.names)
    heap: list[tuple[int, tuple[int, ...], int]] = []
    add = heap.append
    closure = a._closure
    for lhs in table.epsilon:
        for q, i in rank.items():
            base = (i * nn + lhs) * nq
            for p in closure[q]:
                add((0, (), base + rank[p]))
    letters = table.letters
    for (q, sym), targets in a._closed_step.items():
        if sym in letters:
            word, lhss = letters[sym]
            for lhs in lhss:
                base = (rank[q] * nn + lhs) * nq
                for p in targets:
                    add((1, word, base + rank[p]))
    heapq.heapify(heap)

    by_left, by_right = table.by_left, table.by_right
    pop, push = heapq.heappop, heapq.heappush
    block = nn * nq  # the keys of the triples from one state
    settled: set[int] = set()
    # starts[q·|N| + A] lists (p, length, word) of the settled triples
    # (q, A, p) whose A is a right child, ends[A·|Q| + p] lists (q, length,
    # word) of those whose A is a left child: the siblings a triple joins
    starts: defaultdict[int, list[tuple[int, int, tuple[int, ...]]]] = defaultdict(list)
    ends: defaultdict[int, list[tuple[int, int, tuple[int, ...]]]] = defaultdict(list)
    while heap:
        n, word, key = pop(heap)
        if key in settled:
            continue
        settled.add(key)
        yield key, word
        qa = key // nq
        p = key - qa * nq
        sym = qa % nn
        q = qa // nn
        as_left, as_right = by_left[sym], by_right[sym]
        if as_right:
            starts[qa].append((p, n, word))
        if as_left:
            ends[sym * nq + p].append((q, n, word))
        # the parents (q, A, p2) of this triple as a left child, then the
        # parents (q0, A, p) of it as a right child
        row = q * block
        prow = p * nn
        for lhs, c in as_left:
            siblings = starts.get(prow + c)
            if siblings:
                base = row + lhs * nq
                for p2, m, right in siblings:
                    if base + p2 not in settled:
                        push(heap, (n + m, word + right, base + p2))
        for lhs, b in as_right:
            siblings = ends.get(b * nq + q)
            if siblings:
                tail = lhs * nq + p
                for q0, m, left in siblings:
                    k = q0 * block + tail
                    if k not in settled:
                        push(heap, (m + n, left + word, k))


def _goal_keys(g: Cfg, a: Nfa) -> frozenset[int]:
    """The keys of the triples (initial, axiom, f), f accepting, once
    _derivable(g, a) has checked g and a."""
    rank = a._state_rank
    table = g.cnf_table
    base = (rank[a.initial] * len(table.names) + table.index[g.axiom]) * len(rank)
    return frozenset(base + rank[f] for f in a.accepting)


def intersection_shortest(g: Cfg, a: Nfa) -> Optional[tuple[str, ...]]:
    """The least word of L(g) ∩ L(a) for CNF g, or None when empty.

    Least means shortest, ties broken lexicographically over the sorted
    terminal names: the word bar_hillel(g, a).shortest_word() returns,
    found without materializing the product, the empty word included.
    Epsilon moves of a may occur anywhere in a run, as in bar_hillel.
    """
    closure = _derivable(g, a)
    goals = _goal_keys(g, a)
    for key, word in closure:
        if key in goals:
            terminals = g.cnf_table.terminals
            return tuple(terminals[r] for r in word)
    return None


def intersection_nonempty(g: Cfg, a: Nfa) -> bool:
    """Decide L(g) ∩ L(a) ≠ ∅ for CNF g without materializing the product."""
    return intersection_shortest(g, a) is not None


def cs_transducer(g: Cfg) -> Transducer:
    """Transducer whose image of the two-pair Dyck language is L(g).

    The grammar is CNF-converted and each nonterminal gets a bracket
    type; a top-down derivation becomes the bracket word recording its
    stack history (push = open, pop = close).  The finite control only
    checks local rule shape: reading close_A at the base state commits to
    a rule of A, writing the terminal for A -> s or collecting the two
    child opens for A -> B C.  D2 input words are decoded into typed
    brackets by the inverse of the block encoder, so well-nestedness of
    the input is what guarantees pop consistency.
    """
    g1 = g.cnf()
    index = {nt: k + 1 for k, nt in enumerate(g1.ordered_nonterminals)}
    opens = {nt: f"a{k}" for nt, k in index.items()}
    closes = {nt: f"abar{k}" for nt, k in index.items()}
    base = "pop"
    # rule[L] and rule[L>c], primed where two keys would share a name
    rule_states: dict[tuple[str, ...], str] = {}
    taken: set[str] = set()

    def rule_state(*key: str) -> str:
        if key not in rule_states:
            rule_states[key] = g1._fresh(f"rule[{'>'.join(key)}]", taken)
        return rule_states[key]

    transitions: dict[tuple[str, str, str, str], None] = {}
    transitions[("start", opens[g1.axiom], EPSILON, base)] = None
    for lhs, rhs in g1.rules:
        if rhs == ():
            transitions[(base, closes[lhs], EPSILON, base)] = None
        elif len(rhs) == 1:
            transitions[(base, closes[lhs], rhs[0], base)] = None
        else:
            b, c = rhs
            s_rule = rule_state(lhs)
            s_pair = rule_state(lhs, c)
            transitions[(base, closes[lhs], EPSILON, s_rule)] = None
            transitions[(s_rule, opens[c], EPSILON, s_pair)] = None
            transitions[(s_pair, opens[b], EPSILON, base)] = None
    replay = Transducer.build(
        dyck_alphabet(len(g1.nonterminals)),
        sorted(g1.terminals),
        "start",
        {base},
        transitions,
    )
    return dyck_encoder(len(g1.nonterminals)).inverted().compose(replay)


def height_bound(a: Nfa) -> int:
    """Bound m such that a nonempty L(a) ∩ D₂ has a witness of height ≤ m.

    m is one more than the nonterminal count of the triple-product grammar
    of the fixed CNF two-pair Dyck grammar with a, computed by the count
    formula rather than by materializing the product.  A shortest witness
    has a derivation tree with no repeated nonterminal on any root path,
    so its bracket height cannot exceed the nonterminal count.
    """
    return len(parse_filter_name("dyck2").cnf_grammar.nonterminals) * len(a.states) ** 2 + 2


class MarkedNfa(Frozen):
    """An NFA over the two-pair bracket alphabet carrying a height marking.

    `nfa` is a counter unfolding: opens go one level up, closes one level
    down, epsilon moves stay level, and `height` gives each (q, level)
    state its level, zero at the initial and the accepting states.  Moves
    that leave the band fall into the unfolding's `reject_state`, which
    carries no height, accepts nothing, and has no way out.  Two markings
    compare equal only when they are the same object.
    """

    nfa: Nfa
    height: Mapping[str, int]
    reject_state: str
    __eq__ = object.__eq__
    __hash__ = object.__hash__


def _require_d2(a: Nfa) -> None:
    if set(a.alphabet) != set(D2_ALPHABET):
        raise InputError("the marking transformation expects the two-pair bracket alphabet")


def mark_automaton(a: Nfa) -> MarkedNfa:
    """Height-marking transformation over the two-pair bracket alphabet.

    The unfolding at cap height_bound(a) of a read as a one-counter
    machine: opens +1, closes -1, epsilon moves 0, accepting at 0.
    Intersection with the two-pair Dyck language is empty before iff empty
    after, and every accepted word has nonnegative prefix heights ending
    at zero.
    """
    _require_d2(a)
    moves = frozenset((src, label, "any", _SHIFT[label], dst) for src, label, dst in a.transitions)
    brackets = CounterAutomaton(
        a.states, D2_ALPHABET, a.initial, a.accepting, moves, "final_state_and_zero"
    )
    nfa, names = brackets._unfold(height_bound(a))
    height = {name: i for row in names.values() for i, name in enumerate(row)}
    return MarkedNfa(nfa, height, REJECT)


_EMBED = {
    "a1": ("a", "x1"),
    "a2": ("a", "x2"),
    "abar1": ("xbar1", "abar", "#", "#"),
    "abar2": ("xbar2", "abar", "#", "#"),
}


def ssharpup_embedding(u: tuple[str, ...]) -> tuple[str, ...]:
    """The canonical witness embedding: a x1 x2 · images of u · xbar2 xbar1 abar."""
    body: list[str] = []
    for sym in u:
        body.extend(_EMBED[sym])
    return ("a", "x1", "x2", *body, "xbar2", "xbar1", "abar")


def _live_band(a: Nfa, m: int) -> dict[str, int]:
    """The live levels of each state of a's height marking, as bit masks.

    Bit i of the mask of q is set when the marked state (q, i) lies on a
    run from (initial, 0) to some (accepting, 0) that keeps every level
    inside [0, m]: one closure forward from the initial pair and one
    backward from the accepting pairs, over a's own moves, each shifting a
    whole mask of levels at once (opens up, closes down, epsilon moves
    level).  Levels pushed out of the band are dropped, as the marking
    sends those moves to its reject state.
    """
    band = (1 << (m + 1)) - 1

    def closure(seeds: Mapping[str, int], moves: list[tuple[str, int, str]]) -> dict[str, int]:
        out: dict[str, list[tuple[int, str]]] = {}
        for src, shift, dst in moves:
            out.setdefault(src, []).append((shift, dst))
        levels = dict(seeds)
        todo = list(levels)
        while todo:
            q = todo.pop()
            mask = levels[q]
            for shift, dst in out.get(q, ()):
                moved = (mask << shift if shift >= 0 else mask >> -shift) & band
                old = levels.get(dst, 0)
                if moved | old != old:
                    levels[dst] = moved | old
                    todo.append(dst)
        return levels

    moves = [(src, _SHIFT[label], dst) for src, label, dst in a.transitions]
    forward = closure({a.initial: 1}, moves)
    backward = closure(
        {f: 1 for f in a.accepting}, [(dst, -shift, src) for src, shift, dst in moves]
    )
    return {q: forward.get(q, 0) & backward.get(q, 0) for q in a.states}


def reduce_d2_to_ssharpup(a: Nfa) -> Nfa:
    """NFA ℬ with L(a) ∩ D₂ ≠ ∅ iff L(ℬ) ∩ S_#^up ≠ ∅.

    ℬ reads a fixed prefix a x1 x2, then simulates the height-marked
    automaton on the letter images a x1 / a x2 / xbar1 abar # # /
    xbar2 abar # #, then reads the fixed suffix xbar2 xbar1 abar.  Each
    image is one chained path, so ℬ accepts exactly the embedded words of
    the marked language; a marked witness embeds into the M-iteration
    language, while any embedded non-witness fails both membership routes.

    Only the live band is built: the marked states (q, i), 0 <= i <= m
    with m = height_bound(a), that lie on an accepting run of the marking
    (_live_band), found on a and the levels without building the marking.
    The marked moves between live states are embedded, and ℬ is the
    embedding of mark_automaton(a) trimmed, with no state dropped after:
    every state of ℬ is live.  When no accepting state is live, ℬ is the
    single state pre0.
    """
    _require_d2(a)
    live = _live_band(a, height_bound(a))
    if not any(live[f] & 1 for f in a.accepting):
        return Nfa(frozenset({"pre0"}), ALPHABET_FULL, "pre0", frozenset(), frozenset())
    # names[q][i] is the marked state (q, i), formatted once per live pair
    names = {
        q: {i: f"({q},{i})" for i in range(mask.bit_length()) if mask >> i & 1}
        for q, mask in live.items()
    }
    transitions = [
        ("pre0", "a", "pre1"),
        ("pre1", "x1", "pre2"),
        ("pre2", "x2", names[a.initial][0]),
        ("sfx0", "xbar2", "sfx1"),
        ("sfx1", "xbar1", "sfx2"),
        ("sfx2", "abar", "sfx3"),
    ]
    transitions.extend((names[f][0], EPSILON, "sfx0") for f in a.accepting if live[f] & 1)
    # the middle states of a marked move are m[src|label|dst]k, with
    # backslash and bar escaped in src and dst, once per live state
    tags = {q: {i: escape(name, "|") for i, name in row.items()} for q, row in names.items()}
    add = transitions.append
    for q, label, p in a.transitions:
        shift = _SHIFT[label]
        # levels i with (q, i) and (p, i + shift) both live
        mask = live[q] & (live[p] >> shift if shift >= 0 else live[p] << -shift)
        levels = [i for i in range(mask.bit_length()) if mask >> i & 1]
        src, dst, src_tag, dst_tag = names[q], names[p], tags[q], tags[p]
        # one chained path per marked move; the two image shapes are
        # spelled out for speed
        if label == EPSILON:
            transitions.extend((src[i], EPSILON, dst[i]) for i in levels)
        elif shift > 0:
            s1, s2 = _EMBED[label]
            for i in levels:
                m1 = f"m[{src_tag[i]}|{label}|{dst_tag[i + 1]}]1"
                add((src[i], s1, m1))
                add((m1, s2, dst[i + 1]))
        else:
            s1, s2, s3, s4 = _EMBED[label]
            for i in levels:
                head = f"m[{src_tag[i]}|{label}|{dst_tag[i - 1]}]"
                m1, m2, m3 = head + "1", head + "2", head + "3"
                add((src[i], s1, m1))
                add((m1, s2, m2))
                add((m2, s3, m3))
                add((m3, s4, dst[i - 1]))
    states = {name for row in names.values() for name in row.values()}
    states.update(t[2] for t in transitions)
    states.add("pre0")
    return Nfa(
        frozenset(states), ALPHABET_FULL, "pre0", frozenset({"sfx3"}), frozenset(transitions)
    )
