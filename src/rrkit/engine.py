"""Top-level decision procedures for regular realizability.

nrr_decide answers "does L(a) meet the filter" through the route its
method argument selects (auto, bar-hillel, counter or log2), with a
verified witness, or for log2 with log2_check's figures in its place;
substitution_collapse rewrites an automaton so an outer filter can be
applied after a language substitution; rational_index measures
worst-case shortest witnesses over n-state machines.  Both close the
triples of the filter's CNF, a counter filter's included (its grammar is
CounterAutomaton.to_cfg); only nrr_decide has a counter route.  log2_check
re-decides grammar filters and measures the Lewis–Stearns–Hartmanis
decomposition of the least witness's derivation tree, the certificate
a log² n-space recognizer verifies.
"""
from __future__ import annotations

import random
from typing import Iterable, Mapping, Optional

from .automata import EPSILON, Nfa
from .errors import InputError
from .filters import FilterSpec, d1_counter
from .grammars import Cfg
from .reductions import Triple, _derivable, intersection_shortest
from .values import Frozen

# nrr_decide's methods, in the order `rr decide --help` lists them
METHODS = ("auto", "bar-hillel", "counter", "log2")


class DecisionReport(Frozen):
    """Outcome of one realizability decision.

    A present witness is always accepted by the input automaton and passes
    the filter's membership oracle (checked before the report is built).
    stats carries construction sizes: nonterminals_created for the grammar
    route (the size |N|·|Q|²+1 of the triple product the search runs
    over, exactly the nonterminal count of the materialized product for
    the CNF filter grammar), states_created for the counter route
    (|P| + |P|·(|P|²+1) + 1: the states of the product counter machine P
    plus those of its unfolding at cap |P|², which the search walks
    without building; it is that size, not the number of configurations
    the search claims, which the value ceiling keeps lower),
    shortest_witness_length when a witness exists.

    The log2 route certifies the verdict without returning a word: its
    method is "log2", witness is None, stats is CheckerStats.to_dict(),
    and to_dict leaves out the witness key.

    Reports compare by their fields but have no hash, since stats is a
    dict.
    """

    nonempty: bool
    witness: Optional[tuple[str, ...]]
    method: str
    stats: Mapping[str, int]
    __hash__ = None

    def to_dict(self) -> dict:
        out = {"nonempty": self.nonempty, "method": self.method, "stats": dict(self.stats)}
        if self.method != "log2":
            out["witness"] = list(self.witness) if self.witness is not None else None
        return out


class CheckerStats(Frozen):
    """Space figures of the frame-by-frame verification of one certificate.

    max_recursion_depth is the number of nested frames the 1/3–2/3
    decomposition of the least witness's derivation tree needs (a leaf
    is one frame; see log2_check).  max_live_triples counts, at any
    instant, the triples pinned by the open frames, one per level of
    nesting from the root to the active frame, plus the single chain
    triple the active frame is extending; suspended frames' chain
    positions are recoverable from the deterministic iteration order and
    are not counted.  A frame walks a chain only above a composite
    subtree, whose own frames then run one level deeper, so the peak
    equals max_recursion_depth.  Both are 0 when no tree is needed: an
    empty intersection, or the empty word accepted through the axiom's
    epsilon rule.
    """

    max_recursion_depth: int
    max_live_triples: int
    result: bool

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}


def _restrict(a: Nfa, alphabet: tuple[str, ...]) -> Nfa:
    """a over `alphabet`, dropping the moves on other letters."""
    if a.alphabet == alphabet:
        return a
    allowed = set(alphabet)
    transitions = frozenset(
        (src, label, dst)
        for src, label, dst in a.transitions
        if label == EPSILON or label in allowed
    )
    return Nfa(a.states, alphabet, a.initial, a.accepting, transitions)


def nrr_decide(a: Nfa, f: FilterSpec, method: str = "auto") -> DecisionReport:
    """Decide L(a) ∩ F ≠ ∅ and report a shortest witness.

    method "auto" takes the counter route for counter filters and the
    grammar route otherwise; "bar-hillel" and "counter" ask for one route
    ("counter" on the one-pair bracket filter decides against
    d1_counter(); "bar-hillel" on a counter filter runs on the CNF of
    its CounterAutomaton.to_cfg()); "log2" runs log2_check on
    f.cnf_grammar and the automaton as given, and reports its verdict
    with no witness and CheckerStats.to_dict() as stats.  A route the
    filter lacks, or an unknown method, is an InputError; the
    s_sharp_up filter, which has no grammar, gets
    FilterSpec.filter_grammar's UnsupportedFilterError.

    Grammar-backed filters go through intersection_shortest on the CNF
    filter grammar: the least word (shortest, then lexicographic over the
    sorted terminal names) of the implicit triple product, whose size
    |N|·|Q|²+1 is reported as nonterminals_created.  Counter filters go
    through the product counter machine P: the witness is
    P.least_word(|P|²), which walks the configurations of the unfolding
    at counter cap |P|² on the fly, in the same (length, lex) order over
    the sorted letter names, so it is the shortest witness of P's default
    unfolding, and both routes break ties alike whatever order the
    counter machine declares its alphabet in.  It walks no value above
    a state's _ceiling, so an empty product whose counter can only climb
    ends at once; the unfolding's size is still what states_created
    reports.  The witness is re-checked against the automaton and the
    caller's filter before return (the dyck1 oracle when d1_counter()
    found it; for a counter filter CounterAutomaton.accepts, which reads
    no ceiling but stores the values above a state's _floor as one).
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    borrowed = method == "counter" and f.kind != "counter"
    if borrowed and not (f.kind == "dyck" and f.n == 1):
        what = f"filter kind {f.kind!r}"
        if f.kind == "dyck":
            what = f"the dyck filter with {f.n} bracket pairs"
        raise InputError(
            f"no counter realization is registered for {what}; only dyck1 has a counter route"
        )
    machine = None if method == "bar-hillel" else d1_counter() if borrowed else f.automaton
    letters = set(f.alphabet)
    for sym in a.alphabet:
        if sym not in letters:
            raise InputError(f"automaton symbol {sym!r} is not in the filter alphabet")
    a_full = _restrict(a, f.alphabet)
    if method == "log2":
        checked = log2_check(f.cnf_grammar, a_full)
        return DecisionReport(checked.result, None, "log2", checked.to_dict())
    if machine is not None:
        product = machine.product(a_full)
        size = len(product.states)
        cap = size**2
        witness = product.least_word(cap)
        method = "counter"
        stats = {
            "nonterminals_created": 0,
            "states_created": size + size * (cap + 1) + 1,
        }
    else:
        grammar = f.cnf_grammar
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


def substitution_collapse(a: Nfa, sub: Mapping[str, FilterSpec]) -> Nfa:
    """Collapse substituted letters: edge (q, x, p) iff some word of the
    substituent language for x takes a from q to p.

    L(a) meets the substituted language sigma(L) exactly when the collapsed
    automaton meets L itself.  Each distinct substituent is decided for
    every state pair at once; outer letters sharing a substituent share
    that work.  All run over one r, a restricted to the sorted union of
    the substituents' alphabets (a itself when that is a's alphabet): a
    closure seeds only its own terminals' moves, and the union holds all
    of them, so every substituent reads r as it would read a restricted
    to its own letters.  Each substituent takes one run of the triple
    closure over its CNF (_grammar_edges); a counter machine's is that of
    its grammar (CounterAutomaton.to_cfg), which caps no counter.  Every
    edge's word is re-checked: the states r reaches from q on it must
    hold p, and the filter oracle must accept it, as nrr_decide checks
    its witnesses.
    """
    outer = tuple(sorted(sub))
    letters: dict[FilterSpec, list[str]] = {}
    for x in outer:
        letters.setdefault(sub[x], []).append(x)
    r = _restrict(a, tuple(sorted({x for f in letters for x in f.alphabet})))
    transitions: set[tuple[str, str, str]] = set()
    for f, xs in letters.items():
        edges = _grammar_edges(f.cnf_grammar, r)
        for (q, p), word in edges.items():
            reached = r.eps_closure({q})
            for symbol in word:
                reached = r.step(reached, symbol)
            if p not in reached:
                raise RuntimeError("internal error: collapse word rejected by the input automaton")
            if not f.contains(word):
                raise RuntimeError("internal error: collapse word rejected by the filter oracle")
            transitions.update((q, x, p) for x in xs)
    return Nfa(a.states, outer, a.initial, a.accepting, frozenset(transitions))


def _grammar_edges(g: Cfg, a: Nfa) -> dict[tuple[str, str], tuple[str, ...]]:
    """For CNF g, a word of L(g) taking a from q to p, for every pair
    (q, p) that has one: the least word of the derivable triple
    (q, axiom, p), the empty word included (the all-pairs reachability
    of Reps, "Program analysis via graph reachability", 1998)."""
    closure, _ = _derivable(g, a)
    table = g.cnf_table
    states = sorted(a.states)
    axiom, terminals = table.index[g.axiom], table.terminals
    return {
        (states[q], states[p]): tuple(terminals[k] for k in word)
        for (q, sym, p), word in closure
        if sym == axiom
    }


def decide_substituted(
    a: Nfa, outer_filter: FilterSpec, sub: Mapping[str, FilterSpec]
) -> DecisionReport:
    """Decide L(a) ∩ sigma(L) ≠ ∅ where sigma substitutes sub[x] for each
    letter x of the outer filter's language L.

    Every letter of the outer filter needs a substituent, and every
    substituted letter must be one of its letters; either mismatch is an
    InputError, raised before collapsing.  The witness in the report is a
    word of the outer language accepted by the collapsed automaton.
    """
    for sym in outer_filter.alphabet:
        if sym not in sub:
            raise InputError(f"no substituent language is given for outer symbol {sym!r}")
    letters = set(outer_filter.alphabet)
    for sym in sorted(sub):
        if sym not in letters:
            raise InputError(f"substituted letter {sym!r} is not in the outer filter alphabet")
    collapsed = substitution_collapse(a, sub)
    inner = nrr_decide(collapsed, outer_filter)
    stats = dict(inner.stats)
    stats["states_created"] += len(collapsed.states)
    return DecisionReport(inner.nonempty, inner.witness, "substitution", stats)


# -- rational index ------------------------------------------------------------


# Exhaustive mode measures at most this many states and possible moves
# (states^2 * letters), sample mode at most _SAMPLE_MOVES possible moves.
_EXHAUSTIVE_STATES = 3
_EXHAUSTIVE_MOVES = 20
_SAMPLE_MOVES = 10_000
# Machines are closed in chunks of 2**_LANE_BITS lanes, one bit of a lane
# set (an int) per machine, so a lane set stays within 2 KB.
_LANE_BITS = 14

Edge = tuple[int, str, int]
# (q, A, p), A numbered as in Cfg.cnf_table
LaneTriple = tuple[int, int, int]
# lanes[k]: the machines with move k; goals[p]: those accepting in state p
Chunk = tuple[list[int], list[int]]


def rational_index(f: FilterSpec, n: int, sample: Optional[int] = None, seed: int = 0) -> int:
    """Worst case over n-state machines of the shortest witness length.

    The machines are epsilon-free, with initial state 0 and a single
    accepting state; machines whose language misses the filter are left
    out per the side condition.  Both restrictions preserve the value:
    epsilon moves can be eliminated without adding states, and a machine
    with several accepting states realizes its shortest witness through
    one of them.

    With sample None (exhaustive mode) every move mask is taken with
    every accepting state, up to swapping states 1 and 2 (_mask_chunks).
    With an int sample (sample mode) that many random machines seeded by
    seed are taken (_sample_chunks), each lane's moves drawn in move
    order, and the max found is reported, a lower bound; seed is read
    only when sampling.  All machines are decided at once, one lane each.

    The swap σ is exact.  It fixes state 0, so the axiom triples, which
    start in state 0, and the epsilon seed (0, axiom, 0) do not change,
    and it maps a machine accepting in p to one accepting in σ(p) with
    the same language; every state is a goal in exhaustive mode, so a
    chunk and its image have the same greatest witness length, or both
    none.  From n = 3 on, exhaustive mode orders the moves so that the
    chunk bits (the top moves - W, see _mask_chunks) hold as many
    swapped pairs as fit, the loops (1, x, 1) and (2, x, 2) first, each
    pair at adjacent bits, then moves the swap fixes; the low W moves
    are then a set the swap maps onto itself.  At n <= 2, or when all
    moves fit in one chunk, there is no pair and every chunk is closed.

    The lanes close over the filter's CNF (_lane_index); each lane gets
    the length of its machine's shortest witness, and stops there while
    the others go on.  For a counter filter that is the CNF of its
    grammar (CounterAutomaton.to_cfg), so a lane measures the shortest
    witness with no cap on the counter; the tests check it against the
    witness of nrr_decide's counter route, capped at |P|², on every
    machine.  An error saying the index is undefined is raised when no
    machine taken meets the filter.  Exhaustive mode refuses more than 3
    states or 20 possible moves, sample mode a sample below 1 or more
    than 10,000 possible moves, before building any.
    """
    if n < 1:
        raise InputError("machines need at least one state")
    moves = n * n * len(f.alphabet)
    if sample is None:
        if n > _EXHAUSTIVE_STATES:
            raise InputError(f"exhaustive mode is limited to {_EXHAUSTIVE_STATES} states")
        if moves > _EXHAUSTIVE_MOVES:
            raise InputError("exhaustive enumeration over this alphabet/state count is too large")
    else:
        if sample < 1:
            raise InputError(f"sample mode needs a sample count of at least 1, got {sample}")
        if moves > _SAMPLE_MOVES:
            raise InputError(
                f"sample mode is limited to {_SAMPLE_MOVES:,} possible moves (states^2 * letters)"
            )
    edges = tuple((i, sym, j) for i in range(n) for sym in f.alphabet for j in range(n))
    if sample is None:
        # the chunk bits, the top moves - W, take as many swapped pairs as
        # fit, the loops (1, x, 1), (2, x, 2) first, then fixed moves
        top, pairs = moves - min(moves, _LANE_BITS), []
        if n >= 3:
            swap = (0, 2, 1, *range(3, n))
            image = {e: (swap[e[0]], e[1], swap[e[2]]) for e in edges}
            loops_first = sorted(edges, key=lambda e: e[0] != e[2])
            pairs = [m for e in loops_first if e < image[e] for m in (e, image[e])][: top // 2 * 2]
            high = pairs + [e for e in edges if e == image[e]][: top - len(pairs)]
            edges = tuple(e for e in edges if e not in high) + tuple(high)
        chunks = _mask_chunks(n, moves, len(pairs) // 2)
    else:
        chunks = _sample_chunks(n, moves, sample, seed)
    best = _lane_index(f.cnf_grammar, edges, chunks)
    if best is None and sample is None:
        raise InputError(f"no {n}-state machine meets the filter; the index is undefined")
    if best is None:
        raise InputError(
            f"none of the {sample} sampled {n}-state machines meets the filter, "
            "so the sample leaves the index undefined"
        )
    return best


def _mask_chunks(n: int, moves: int, pairs: int):
    """Every move mask with every accepting state, up to renaming: lane m
    of a chunk is the mask whose low W = min(moves, _LANE_BITS) bits are
    m, and each chunk of masks sharing their top moves - W bits is closed
    separately.  Every state is a goal in every lane.

    Chunk bits 2k and 2k + 1, k < pairs, are the moves of a pair that
    swapping states 1 and 2 exchanges, and the other chunk bits are moves
    that the swap fixes, so the image of a chunk is the chunk with each
    pair's two bits swapped.  A chunk whose image is a smaller number is
    skipped: it holds the swapped copies of that chunk's machines, with
    their languages, and so adds no witness length.  With no pairs
    nothing is skipped."""
    width = min(moves, _LANE_BITS)
    paired = (1 << 2 * pairs) - 1
    evens = paired // 3
    full = (1 << (1 << width)) - 1
    # lanes of move k < width: runs of 2**k clear then 2**k set lanes
    periodic = [
        ((1 << (1 << k)) - 1 << (1 << k)) * (full // ((1 << (2 << k)) - 1))
        for k in range(width)
    ]
    goals = [full] * n
    for chunk in range(1 << (moves - width)):
        image = chunk & ~paired | (chunk & evens) << 1 | chunk >> 1 & evens
        if image < chunk:
            continue
        yield periodic + [full if chunk >> k & 1 else 0 for k in range(moves - width)], goals


def _sample_chunks(n: int, moves: int, count: int, seed: int):
    """count seeded random machines, 2**_LANE_BITS per chunk: lane b of a
    chunk has each move with probability 0.3, drawn in move order, then
    a uniform accepting state."""
    rng = random.Random(seed)
    size = 1 << _LANE_BITS
    for start in range(0, count, size):
        lanes = [0] * moves
        goals = [0] * n
        for b in range(min(size, count - start)):
            bit = 1 << b
            for k in range(moves):
                if rng.random() < 0.3:
                    lanes[k] |= bit
            goals[rng.randrange(n)] |= bit
        yield lanes, goals


def _lane_index(g: Cfg, edges: tuple[Edge, ...], chunks: Iterable[Chunk]) -> Optional[int]:
    """Greatest shortest-witness length over the machines of the chunks
    (moves drawn from edges, initial state 0), or None when none meets
    L(g), for g in CNF.

    fresh[l][(q, A, p)] holds the lanes in which the least word A derives
    from q to p has length exactly l: terminal rules give l = 1, and for
    l >= 2 it is the union over rules A -> B C, states r and splits i of
    fresh[i][(q, B, r)] & fresh[l - i][(r, C, p)], minus the lanes settled
    earlier (exact in CNF: a least length is the least sum of two least
    lengths).  A machine's witness is (0, axiom, p) in its lane of
    goals[p].  A lane is alive while one of its goals lacks its witness;
    an answered lane can no longer change the result, so from each length
    on only the alive lanes are settled and joined.  The longer half of a
    least word is itself least and lies in [l/2, l), so no lane first
    reaches a triple after a gap past twice the last length at which it
    had a fresh one; a chunk stops there, or once no lane is alive.
    fresh_at[l] is the union of the lanes of the non-axiom triples settled
    at length l, so every lane of left[l] and right[l] is in it; a split i
    of length l is joined only when fresh_at[i] & fresh_at[l - i] & alive
    is not 0, since a skipped split could find only lanes that the settle
    step masks out with alive.  The axiom is on no right-hand side, so its
    triples join nothing and only those from state 0 are built; its
    epsilon rule settles (0, axiom, 0) at length 0 in every lane.  The
    rules come from g.cnf_table, so a triple's A is its nonterminal's
    number there.
    """
    table = g.cnf_table
    axiom = table.index[g.axiom]
    letters, by_left = table.letters, table.by_left
    axiom_eps = axiom in table.epsilon
    best = None
    for lanes, goals in chunks:
        # open_[p]: the lanes of goals[p] still without a witness
        open_ = list(goals)
        settled: dict[LaneTriple, int] = {}
        if axiom_eps:
            settled[(0, axiom, 0)] = -1  # every lane
            if open_[0]:
                best = best or 0
                open_[0] = 0
        found: dict[LaneTriple, int] = {}
        for (i, sym, j), bits in zip(edges, lanes):
            if bits and sym in letters:
                for a in letters[sym][1]:
                    if i == 0 or a != axiom:
                        found[(i, a, j)] = found.get((i, a, j), 0) | bits
        # fresh[l], indexed for both sides of a join: left[l][B] lists
        # (q, r, lanes) of the triples (q, B, r), right[l][(C, r)] lists (p, lanes)
        left: list[dict] = [{}]
        right: list[dict] = [{}]
        # fresh_at[l]: the lanes of left[l] and right[l]
        fresh_at = [0]
        length, last = 1, 0
        while True:
            alive = 0
            for waiting in open_:
                alive |= waiting
            if not alive:
                break
            by_b: dict[int, list] = {}
            by_cr: dict[tuple[int, int], list] = {}
            fresh = 0
            for t, bits in found.items():
                old = settled.get(t, 0)
                bits &= alive & ~old
                if bits:
                    settled[t] = old | bits
                    last = length
                    q, sym, p = t
                    if sym != axiom:
                        fresh |= bits
                        by_b.setdefault(sym, []).append((q, p, bits))
                        by_cr.setdefault((sym, q), []).append((p, bits))
                    elif bits & open_[p]:
                        open_[p] &= ~bits
                        best = max(best or 0, length)
            left.append(by_b)
            right.append(by_cr)
            fresh_at.append(fresh)
            length += 1
            if length > 2 * last:
                break
            found = {}
            for i in range(1, length):
                if not fresh_at[i] & fresh_at[length - i] & alive:
                    continue
                joins = right[length - i]
                for b, entries in left[i].items():
                    for a, c in by_left[b]:
                        for q, r, x in entries:
                            if q and a == axiom:
                                continue
                            for p, y in joins.get((c, r), ()):
                                z = x & y
                                if z:
                                    found[(q, a, p)] = found.get((q, a, p), 0) | z
    return best


# -- instrumented certificate checker -------------------------------------------


def log2_check(f_grammar: Cfg, a: Nfa) -> CheckerStats:
    """Decide L(a) ∩ L(f_grammar) ≠ ∅ and measure a log-depth certificate.

    A triple (q, A, p) claims the automaton reads a word derivable from A
    going from q to p.  The verdict comes from the derivable triples
    (reductions._derivable); the figures come from one certificate, the
    derivation tree of the least witness.  It is rebuilt from least words
    alone: a composite triple's children are the first rule A -> B C (in
    grammar order) and split state r (in sorted order) whose children's
    least words concatenate to its own.  The tree is then verified as in
    Lewis, Stearns & Hartmanis (1965): a subtree of yield n descends into
    the heavier child (the left one on a tie) while the yield exceeds
    2n/3, reaching a central triple of yield between n/3 and 2n/3, and
    its frame verifies the central subtree and every light sibling passed
    on the way down, each in a frame one level deeper.  Every frame
    shrinks the yield by a factor of at least 2/3, so the depth is at
    most log_{3/2} of the witness length plus a constant.  The frames
    wait on an explicit stack of (triple, level) pairs, not on Python's
    call stack: a frame whose triple has a word of n <= 1 letters is a
    leaf and ends at level + n, and the depth is the deepest such end.
    The empty word, accepted through the axiom's epsilon rule, needs no
    tree and gives depth 0.  Epsilon moves of a are absorbed by
    _derivable, which checks that f_grammar is in CNF before any table
    is read and returns the goal triples (initial, axiom, f) with its
    closure; the closure is read up to the least of them.
    The walk works on _derivable's rank triples (q, A, p), with states
    and nonterminals ranked in sorted name order: the rules A -> B C come
    from f_grammar.cnf_table.by_lhs, in grammar order, and the split
    states are the ranks 0..|Q|-1, which is sorted order, so the tree and
    its figures are those of the name triples.
    """
    # least words of the triples settled up to the least goal; a tree
    # node's children have shorter words, so they are all settled by then
    closure, goals = _derivable(f_grammar, a)
    least: dict[Triple, tuple[int, ...]] = {}
    for triple, word in closure:
        least[triple] = word
        if triple in goals:
            break
    else:
        return CheckerStats(0, 0, False)

    by_lhs = f_grammar.cnf_table.by_lhs
    splits = range(len(a.states))

    def children(t: Triple) -> tuple[Triple, Triple]:
        q, sym, p = t
        word = least[t]
        for b, c in by_lhs[sym]:
            for r in splits:
                left = least.get((q, b, r))
                if left is not None:
                    right = least.get((r, c, p))
                    if right is not None and left + right == word:
                        return (q, b, r), (r, c, p)
        raise RuntimeError(f"internal error: no split reproduces the least word of triple {t}")

    # the frames (triple, level) still to verify
    d, frames = 0, [(triple, 0)]
    while frames:
        t, level = frames.pop()
        n = len(least[t])
        if n <= 1:
            d = max(d, level + n)
            continue
        while 3 * len(least[t]) > 2 * n:
            heavy, other = children(t)
            if len(least[heavy]) < len(least[other]):
                heavy, other = other, heavy
            frames.append((other, level + 1))
            t = heavy
        frames.append((t, level + 1))
    return CheckerStats(d, d, True)
