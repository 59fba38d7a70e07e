"""Grammar/automaton constructions the decision engine is built from.

Contents: the triple-product grammar for a CFG/NFA intersection, which
keeps the input's terminals in its rule bodies; one ordered search over
the same triples that answers intersection questions without
materializing the grammar; a transducer turning Dyck words into the
words of a given grammar; the derivation-height bound; the height
marking, which is the counter unfolding (CounterAutomaton.to_nfa) of the
input machine read as a one-counter machine; and the morphism reduction
embedding two-pair bracket realizability into S_#^up.
"""
from __future__ import annotations

import heapq
from collections import defaultdict
from itertools import chain
from operator import itemgetter
from typing import Iterator, Mapping, Optional

from .automata import EPSILON, Nfa, escape
from .counter import REJECT, CounterAutomaton
from .errors import ContractError, InputError
from .filters import ALPHABET_FULL, dyck_alphabet, dyck_encoder, parse_filter_name
from .grammars import NOT_CNF, Cfg, CnfTable, fresh
from .transducers import Transducer
from .values import Frozen

D2_ALPHABET = dyck_alphabet(2)
# the level change of each two-pair bracket move, in the marking and its live band
_SHIFT = {EPSILON: 0, "a1": 1, "a2": 1, "abar1": -1, "abar2": -1}
# (rank(q), rank(A), rank(p)): a triple of the CFG∩NFA closure
Triple = tuple[int, int, int]
# the closure's stream: each derivable triple with its least word
Closure = Iterator[tuple[Triple, tuple[int, ...]]]


def _check_terminals(g: Cfg, a: Nfa) -> None:
    alphabet = a._letters
    for t in g.terminals:
        if t not in alphabet:
            raise InputError(f"grammar terminal {t!r} is missing from the automaton alphabet")


def bar_hillel(g: Cfg, a: Nfa) -> Cfg:
    """Triple-product grammar generating L(g) ∩ L(a) (Bar-Hillel, Perles
    and Shamir, 1961).

    Nonterminals are an axiom S' (S being g's axiom) plus [q,A,p] for
    every grammar nonterminal A and automaton state pair, exactly
    |N|·|Q|²+1 of them for every grammar; a word derived from [q,A,p]
    takes the automaton from q to p.  Each name is made once, the axiom
    first and then the triples in sorted (A, q, p) order, with backslash
    and comma escaped in each part, and primed (grammars.fresh) past the
    terminals and the names made before it.  Terminals stay terminals:
    a rule A -> X1..Xk becomes [q,A,p] -> Y1..Yk, where a terminal Xi is
    kept and read on one letter move (epsilon-closed, Nfa._closed_step),
    and a nonterminal Xi becomes [u,Xi,v] for any v.  The first symbol
    starts at q, the last ends at p, and each junction may cross an
    epsilon path, as an epsilon rule may.  A rule's bodies from q are
    grown in one forward pass, a symbol at a time, as (body, end state)
    pairs in the order of the choices made, a repeated pair kept once;
    they are written grouped by end state p in sorted state order.  So no
    end state reruns the walk, and nothing recurses on a body's length.
    """
    terminal_set = set(g.terminals)
    _check_terminals(g, a)
    states = sorted(a.states)
    closure, step = a._closure, a._closed_step

    taken = set(g.terminals)
    axiom = fresh(g.axiom + "'", taken)
    name = {
        (q, sym, p): fresh(f"[{escape(q)},{escape(sym)},{escape(p)}]", taken)
        for sym in sorted(g.nonterminals) for q in states for p in states
    }

    rules: dict[tuple[str, tuple[str, ...]], None] = {}
    for q_f in sorted(a.accepting):
        rules[(axiom, (name[a.initial, g.axiom, q_f],))] = None

    for lhs, rhs in g.rules:
        last = len(rhs) - 1
        for q in states:
            if rhs == ():
                for p in closure[q]:
                    rules[(name[q, lhs, p], ())] = None
                continue
            # the bodies of rhs[:i] from q, each with the state rhs[i]
            # starts in, grown one symbol at a time in the order of the
            # choices made; a repeated pair has the same continuations
            grown = [((), q)]
            for i, sym in enumerate(rhs):
                terminal = sym in terminal_set
                longer = []
                for body, start in grown:
                    for v in step.get((start, sym), ()) if terminal else states:
                        here = body + (sym if terminal else name[start, sym, v],)
                        # a terminal's step is epsilon-closed already, and
                        # the last symbol ends at v
                        for u in (v,) if terminal or i == last else closure[v]:
                            longer.append((here, u))
                grown = list(dict.fromkeys(longer))
            # sorted is stable: grouped by end state, in choice order
            for body, p in sorted(grown, key=itemgetter(1)):
                rules[(name[q, lhs, p], body)] = None

    return Cfg(frozenset((axiom, *name.values())), g.terminals, tuple(rules), axiom)


def _derivable(g: Cfg, a: Nfa) -> tuple[Closure, frozenset[Triple]]:
    """(closure, goals) for CNF g over a: the closure yields each derivable
    triple (q, A, p) as the rank triple (rank(q), rank(A), rank(p)) with its
    least word; the goals are the triples (initial, axiom, f), f accepting.

    The one entry for CFG∩NFA questions: it checks at once, before the
    first triple is asked for, that g has a cnf_table (the one test of
    the CNF contract, and CYK's message when it fails) and that a reads
    its terminals, so a caller may then read g.cnf_table and a's ranks.  A
    triple is derivable when some word derived from A takes a from q to p,
    epsilon moves included; words are tuples of ranks in the sorted
    terminal names, ordered by (length, ranks).  States are ranked in
    sorted name order (Nfa._state_rank) and nonterminals in sorted name
    order (g.cnf_table), so rank triples order as the (q, A, p) name
    tuples do.
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
    (length, ranks, triple) order: the heap breaks ties between equal
    words on the triple, so the order is (length, ranks, triple names),
    whatever order the states and rules were created in.
    """
    table = g.cnf_table
    if table is None:
        raise ContractError(NOT_CNF)
    _check_terminals(g, a)
    rank, axiom = a._state_rank, table.index[g.axiom]
    return _settle(table, a), frozenset((rank[a.initial], axiom, rank[f]) for f in a.accepting)


def _settle(table: CnfTable, a: Nfa) -> Closure:
    """The closure of _derivable, once its checks have passed.

    The heap and the settled set key a rank triple (q, A, p) by the int
    (q·|N| + A)·|Q| + p, which orders as the triple does; only this
    function builds or splits such a key.
    """
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
        qa = key // nq
        p = key - qa * nq
        sym = qa % nn
        q = qa // nn
        yield (q, sym, p), word
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


def intersection_shortest(g: Cfg, a: Nfa) -> Optional[tuple[str, ...]]:
    """The least word of L(g) ∩ L(a) for CNF g, or None when empty.

    Least means shortest, ties broken lexicographically over the sorted
    terminal names: the word bar_hillel(g, a).shortest_word() returns,
    found without materializing the product, the empty word included.
    Epsilon moves of a may occur anywhere in a run, as in bar_hillel.
    """
    closure, goals = _derivable(g, a)
    least = next((word for triple, word in closure if triple in goals), None)
    terminals = g.cnf_table.terminals
    return None if least is None else tuple(terminals[r] for r in least)


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
            rule_states[key] = fresh(f"rule[{'>'.join(key)}]", taken)
        return rule_states[key]

    transitions = {("start", opens[g1.axiom], EPSILON, base)}
    for lhs, rhs in g1.rules:
        if rhs == ():
            transitions.add((base, closes[lhs], EPSILON, base))
        elif len(rhs) == 1:
            transitions.add((base, closes[lhs], rhs[0], base))
        else:
            b, c = rhs
            s_rule = rule_state(lhs)
            s_pair = rule_state(lhs, c)
            transitions.add((base, closes[lhs], EPSILON, s_rule))
            transitions.add((s_rule, opens[c], EPSILON, s_pair))
            transitions.add((s_pair, opens[b], EPSILON, base))
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
    sends those moves to its reject state.  A state's bracket self-loops
    are closed in one step when it leaves the worklist: an opening loop
    adds every level from the mask's lowest up to m, a closing loop every
    level from its highest down to 0.  This is exact because a bracket
    moves the level by exactly one, so a run around a loop passes every
    level between its ends, all inside the band.  Read backward, an open
    falls and a close climbs.
    """
    band = (1 << (m + 1)) - 1
    forward: dict[str, list[tuple[int, str]]] = {}
    backward: dict[str, list[tuple[int, str]]] = {}
    # the states with an opening (+1) or a closing (-1) self-loop
    loops: dict[int, set[str]] = {1: set(), -1: set()}
    for src, label, dst in a.transitions:
        shift = _SHIFT[label]
        if src != dst:
            forward.setdefault(src, []).append((shift, dst))
            backward.setdefault(dst, []).append((-shift, src))
        elif shift:
            loops[shift].add(src)

    def closure(levels: dict[str, int], moves: dict, up: set[str], down: set[str]) -> dict[str, int]:
        todo = list(levels)
        while todo:
            q = todo.pop()
            mask = levels[q]
            if q in up:  # -mask has every bit from mask's lowest one up
                mask |= band & -mask
            if q in down:  # every bit up to mask's highest one
                mask |= (1 << mask.bit_length()) - 1
            levels[q] = mask
            for shift, dst in moves.get(q, ()):
                moved = (mask << shift if shift >= 0 else mask >> -shift) & band
                old = levels.get(dst, 0)
                if moved | old != old:
                    levels[dst] = moved | old
                    todo.append(dst)
        return levels

    reach = closure({a.initial: 1}, forward, loops[1], loops[-1])
    coreach = closure(dict.fromkeys(a.accepting, 1), backward, loops[-1], loops[1])
    return {q: reach.get(q, 0) & coreach.get(q, 0) for q in a.states}


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
    # backslash and bar escaped in src and dst: escaping (q,i) escapes q
    # alone, so each input state is escaped once, and a state with
    # nothing to escape is tagged by its own names
    tags = {}
    for q, row in names.items():
        tag = escape(q, "|")
        tags[q] = row if tag == q else {i: f"({tag},{i})" for i in row}
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
    # every live pair but (initial, 0) is entered by an embedded move, and
    # (initial, 0) by the move out of pre2, so the targets and pre0 are
    # all the states
    states = frozenset(chain(("pre0",), map(itemgetter(2), transitions)))
    return Nfa(states, ALPHABET_FULL, "pre0", frozenset({"sfx3"}), frozenset(transitions))
