"""Brute-force reference implementations the test suite checks the package
against.  Everything here is written directly from the definitions and
shares no code with src/; keep it that way.

Run `python3 tests/oracles.py` to regenerate the frozen rational-index
table printed at the bottom of this file (the n=3 row takes a few
minutes, which is why tests compare against the frozen values instead of
recomputing them).
"""
import heapq
from collections import deque
from functools import lru_cache


# -- automata ------------------------------------------------------------------


def naive_accepts(transitions, initial, accepting, word):
    """Path search over (state, position) pairs, epsilon moves included."""
    word = tuple(word)
    seen = set()
    stack = [(initial, 0)]
    while stack:
        state, pos = stack.pop()
        if (state, pos) in seen:
            continue
        seen.add((state, pos))
        if pos == len(word) and state in accepting:
            return True
        for src, label, dst in transitions:
            if src != state:
                continue
            if label == "":
                stack.append((dst, pos))
            elif pos < len(word) and label == word[pos]:
                stack.append((dst, pos + 1))
    return False


def enumerate_accepted(transitions, initial, accepting, alphabet, max_len):
    """Every accepted word up to max_len, by length, then in alphabet order.

    A breadth-first walk over prefixes, each carried with the states it
    reaches, epsilon moves included, kept to the trimmed states; a prefix
    is extended only while some of those states remain, so dead prefixes
    are never grown.
    """
    accepting = set(accepting)
    keep = trim(initial, accepting, [(src, dst) for src, _, dst in transitions])
    moves = [(src, label, dst) for src, label, dst in transitions if src in keep and dst in keep]
    eps = [(src, dst) for src, label, dst in moves if label == ""]
    closure = {q: reachable({q}, eps) for q in keep}
    succ = {}
    for src, label, dst in moves:
        succ.setdefault((src, label), set()).update(closure[dst])

    found = []
    queue = deque([((), closure[initial])])
    while queue:
        word, current = queue.popleft()
        if current & accepting:
            found.append(word)
        if len(word) < max_len:
            for sym in alphabet:
                after = {p for q in current for p in succ.get((q, sym), ())}
                if after:
                    queue.append((word + (sym,), after))
    return found


def without_epsilon(states, transitions, initial, accepting):
    """The epsilon-free equivalent on the same states, from the definition:
    q reads s into p when a path of epsilon moves, one s move and epsilon
    moves again leads from q to p, and q accepts when epsilon moves alone
    lead from q to an accepting state.  Returns (states, initial,
    accepting, transitions)."""
    eps = [(src, dst) for src, label, dst in transitions if label == ""]
    closure = {q: reachable({q}, eps) for q in states}
    moves = {
        (q, label, p)
        for q in states
        for src, label, mid in transitions
        if label != "" and src in closure[q]
        for p in closure[mid]
    }
    return set(states), initial, {q for q in states if closure[q] & set(accepting)}, moves


def all_pairs_product(left_states, left_moves, right_states, right_moves):
    """Every move of the synchronized product, over all state pairs.

    Moves are (src, middle, payload, dst).  An empty middle moves its
    machine alone, from every state of the other machine; any other middle
    pairs each left move with each right move of the same middle.  Product
    moves are ((s1, s2), middle, payload1, payload2, (d1, d2)), with None
    as the payload of the machine that stays put.
    """
    moves = set()
    for s1, middle, p1, d1 in left_moves:
        if middle == "":
            moves.update(((s1, s2), "", p1, None, (d1, s2)) for s2 in right_states)
            continue
        for s2, middle2, p2, d2 in right_moves:
            if middle2 == middle:
                moves.add(((s1, s2), middle, p1, p2, (d1, d2)))
    for s2, middle, p2, d2 in right_moves:
        if middle == "":
            moves.update(((s1, s2), "", None, p2, (s1, d2)) for s1 in left_states)
    return moves


def reachable(seeds, edges):
    """States reachable from `seeds` along (src, dst) edges, by a plain
    worklist over an adjacency list."""
    succ = {}
    for src, dst in edges:
        succ.setdefault(src, []).append(dst)
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for dst in succ.get(todo.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def trim(initial, accepting, edges):
    """States on some path from `initial` to an accepting state, plus
    `initial` itself."""
    backward = reachable(accepting, [(dst, src) for src, dst in edges])
    return (reachable({initial}, edges) & backward) | {initial}


def counter_configs_to_acceptance(transitions, accepting, accept_mode, cap):
    """Every configuration (state, value), 0 <= value <= cap, of a
    one-counter machine from which a run that keeps the counter within
    [0, cap] ends in an accepting configuration: an accepting state, at
    value 0 in "final_state_and_zero" mode.  A move (src, read, guard,
    delta, dst) takes (src, v) to (dst, v + delta) when the guard holds at
    v ("zero": v == 0, "positive": v > 0, "any") and v + delta is in
    [0, cap]; the answer is the backward closure of the accepting
    configurations along those steps."""
    holds = {"any": lambda v: True, "zero": lambda v: v == 0, "positive": lambda v: v > 0}
    steps = [
        ((src, v), (dst, v + delta))
        for src, _, guard, delta, dst in transitions
        for v in range(cap + 1)
        if holds[guard](v) and 0 <= v + delta <= cap
    ]
    values = [0] if accept_mode == "final_state_and_zero" else range(cap + 1)
    return reachable({(f, v) for f in accepting for v in values}, [(b, a) for a, b in steps])


def unfold_by_definition(states, transitions, initial, accepting, accept_mode, cap):
    """The unfolding of a one-counter machine up to cap, one move and one
    value at a time: states (q, c) named "(q,c)" for values 0..cap and the
    sink "r".  A move (src, read, guard, delta, dst) leads from (src, c),
    where the guard holds at c ("zero": c == 0, "positive": c > 0, "any"),
    to (dst, c + delta), or to "r" when c + delta is below 0 or past cap.
    (f, c) accepts for accepting f, at c == 0 only in
    "final_state_and_zero" mode.  Returns (states, initial, accepting,
    transitions, height, reject), height giving each (q, c) its c."""
    name = lambda q, c: f"({q},{c})"
    holds = {"any": lambda c: True, "zero": lambda c: c == 0, "positive": lambda c: c > 0}
    unfolded = set()
    for src, read, guard, delta, dst in transitions:
        for c in range(cap + 1):
            if holds[guard](c):
                d = c + delta
                unfolded.add((name(src, c), read, name(dst, d) if 0 <= d <= cap else "r"))
    height = {name(q, c): c for q in states for c in range(cap + 1)}
    values = [0] if accept_mode == "final_state_and_zero" else range(cap + 1)
    return (
        set(height) | {"r"},
        name(initial, 0),
        {name(f, c) for f in accepting for c in values},
        unfolded,
        height,
        "r",
    )


def mark_by_definition(states, transitions, initial, accepting, m):
    """Height marking over the two-pair brackets: the unfolding at cap m of
    the machine read as a one-counter machine, opens a1/a2 a level up, the
    closes a level down and epsilon moves level, all unguarded, accepting
    at level 0.  Returns what unfold_by_definition returns."""
    shift = {"": 0, "a1": 1, "a2": 1, "abar1": -1, "abar2": -1}
    moves = [(src, label, "any", shift[label], dst) for src, label, dst in transitions]
    return unfold_by_definition(states, moves, initial, accepting, "final_state_and_zero", m)


def live_band_by_pairs(a, m):
    """The live pairs of the height marking of a two-pair bracket machine
    a, as {q: set of levels i} over a.states: (q, i) is live when a walk
    over (state, level) pairs reaches it from (a.initial, 0) and reaches
    some (accepting, 0) from it, every pair on the way inside [0, m].  An
    open a1/a2 goes a level up, a close a level down, an epsilon move
    stays level; the backward walk runs the moves in reverse."""
    shift = {"": 0, "a1": 1, "a2": 1, "abar1": -1, "abar2": -1}
    succ, pred = {}, {}
    for src, label, dst in a.transitions:
        succ.setdefault(src, []).append((shift[label], dst))
        pred.setdefault(dst, []).append((-shift[label], src))

    def walk(seeds, moves):
        seen = set(seeds)
        todo = list(seen)
        while todo:
            q, i = todo.pop()
            for delta, p in moves.get(q, ()):
                pair = (p, i + delta)
                if 0 <= i + delta <= m and pair not in seen:
                    seen.add(pair)
                    todo.append(pair)
        return seen

    live = walk({(a.initial, 0)}, succ) & walk({(f, 0) for f in a.accepting}, pred)
    band = {q: set() for q in a.states}
    for q, i in live:
        band[q].add(i)
    return band


def ssharpup_by_two_trims(states, initial, accepting, transitions):
    """The embedding of a height-marked machine into the S_#^up alphabet,
    trimmed before and after: the marked machine is trimmed; the prefix
    a x1 x2 leads to its initial state; each bracket move becomes a chained
    path through its letter image, with middle states m[src|label|dst]k;
    every accepting state moves on epsilon into the suffix xbar2 xbar1
    abar, ending at sfx3, the only accepting state; then the result is
    trimmed.  Returns (states, initial, accepting, transitions)."""
    images = {
        "a1": ("a", "x1"),
        "a2": ("a", "x2"),
        "abar1": ("xbar1", "abar", "#", "#"),
        "abar2": ("xbar2", "abar", "#", "#"),
    }
    keep = trim(initial, accepting, [(src, dst) for src, _, dst in transitions])
    moves = {
        ("pre0", "a", "pre1"), ("pre1", "x1", "pre2"), ("pre2", "x2", initial),
        ("sfx0", "xbar2", "sfx1"), ("sfx1", "xbar1", "sfx2"), ("sfx2", "abar", "sfx3"),
    }
    for src, label, dst in transitions:
        if src not in keep or dst not in keep:
            continue
        if label == "":
            moves.add((src, label, dst))
            continue
        image = images[label]
        path = [src] + [f"m[{src}|{label}|{dst}]{k}" for k in range(1, len(image))] + [dst]
        moves.update(zip(path, image, path[1:]))
    moves.update((f, "", "sfx0") for f in accepting if f in keep)
    live = trim("pre0", {"sfx3"}, [(src, dst) for src, _, dst in moves])
    return (
        live,
        "pre0",
        {"sfx3"} & live,
        {t for t in moves if t[0] in live and t[2] in live},
    )


# -- grammars ------------------------------------------------------------------


def grammar_words(rules, axiom, max_len, nonterminals=None):
    """All terminal words of length <= max_len derivable from the axiom.

    Bottom-up semi-naive fixpoint over per-nonterminal word sets; handles
    epsilon, unit, and long rules alike.  Each round expands only the
    right-hand-side combinations that use at least one word new in the
    last round: positions before the first such word (the pivot) take
    older words, the pivot a new one, later positions any word.  Only
    usable for small grammars and small max_len, which is the point.
    Pass the nonterminal set explicitly when some nonterminal has no rules
    (inference from left-hand sides would then mistake it for a terminal).
    """
    if nonterminals is None:
        nonterminals = {lhs for lhs, _ in rules}
    words = {nt: set() for nt in nonterminals}
    new = {nt: set() for nt in nonterminals}
    for lhs, rhs in rules:
        if not any(sym in nonterminals for sym in rhs) and len(rhs) <= max_len:
            new[lhs].add(tuple(rhs))
    while any(new.values()):
        for nt in nonterminals:
            words[nt] |= new[nt]
        old = {nt: words[nt] - new[nt] for nt in nonterminals}
        found = {nt: set() for nt in nonterminals}
        for lhs, rhs in rules:
            for pivot, sym in enumerate(rhs):
                if sym in nonterminals and new[sym]:
                    sources = [
                        (old if k < pivot else new if k == pivot else words)[s]
                        if s in nonterminals
                        else [(s,)]
                        for k, s in enumerate(rhs)
                    ]
                    found[lhs].update(_concatenations(sources, max_len))
        new = {nt: found[nt] - words[nt] for nt in nonterminals}
    return sorted(words.get(axiom, ()), key=lambda w: (len(w), w))


def cnf_by_definition(rules, axiom, nonterminals, terminals):
    """Chomsky normal form read off the definition in two passes: the
    axiom occurs in no body, then every rule is A -> B C over
    nonterminals, A -> t over a terminal, or axiom -> eps."""
    if any(axiom in rhs for _, rhs in rules):
        return False
    for lhs, rhs in rules:
        if len(rhs) == 0:
            if lhs != axiom:
                return False
        elif len(rhs) == 1:
            if rhs[0] not in terminals:
                return False
        elif len(rhs) == 2:
            if rhs[0] not in nonterminals or rhs[1] not in nonterminals:
                return False
        else:
            return False
    return True


def string_keyed_closure(rules, terminals, states, transitions):
    """Every derivable triple (q, A, p) of a CNF grammar over an automaton,
    named by its state and nonterminal names, with its least word, in the
    order the package's triple closure settles them.

    Words are tuples of ranks in the sorted terminal names.  The heap
    holds (length, word, (q, A, p)) entries keyed by the names
    themselves, so ties between equal words break on the name tuple: the
    reference for the package's numbered keys.  The axiom's epsilon rule
    seeds (q, A, p) for p in q's epsilon closure, a letter rule (q, A, p)
    for p reachable from q through epsilon moves, the letter and epsilon
    moves, and each settled triple joins with the settled siblings at its
    exact boundary states.
    """
    rank = {t: i for i, t in enumerate(sorted(terminals))}
    states = sorted(states)
    eps = [(src, dst) for src, label, dst in transitions if label == ""]
    closure = {q: sorted(reachable({q}, eps)) for q in states}
    targets = {}
    for q in states:
        for mid in closure[q]:
            for src, label, dst in transitions:
                if src == mid and label != "":
                    targets.setdefault((q, label), set()).update(closure[dst])
    left_rules, right_rules, heap = {}, {}, []
    for lhs, rhs in rules:
        if not rhs:
            heap.extend((0, (), (q, lhs, p)) for q in states for p in closure[q])
        elif len(rhs) == 1:
            for q in states:
                for p in sorted(targets.get((q, rhs[0]), ())):
                    heap.append((1, (rank[rhs[0]],), (q, lhs, p)))
        else:
            left_rules.setdefault(rhs[0], []).append((lhs, rhs[1]))
            right_rules.setdefault(rhs[1], []).append((lhs, rhs[0]))
    heapq.heapify(heap)
    settled, starts, ends, out = set(), {}, {}, []
    while heap:
        n, word, t = heapq.heappop(heap)
        if t in settled:
            continue
        settled.add(t)
        out.append((t, word))
        q, sym, p = t
        starts.setdefault((sym, q), []).append((p, word))
        ends.setdefault((sym, p), []).append((q, word))
        for lhs, c in left_rules.get(sym, ()):
            for p2, right in starts.get((c, p), ()):
                heapq.heappush(heap, (n + len(right), word + right, (q, lhs, p2)))
        for lhs, b in right_rules.get(sym, ()):
            for q0, left in ends.get((b, q), ()):
                heapq.heappush(heap, (len(left) + n, left + word, (q0, lhs, p)))
    return out


def lsh_depth(rules, axiom, terminals, states, transitions, initial, accepting):
    """The nesting depth of the 1/3-2/3 verification of Lewis, Stearns and
    Hartmanis (1965) over the derivation tree of a CNF grammar's least
    word through an automaton, or None when it reads no such word.

    The least words are string_keyed_closure's, up to the first settled
    triple (initial, axiom, f) with f accepting.  A triple of word length
    n <= 1 is a leaf of depth n.  Otherwise its children are those of the
    first rule A -> B C in grammar order and the first split state r in
    sorted name order whose children's least words concatenate to its
    own; the walk descends into the longer child (the left one on a tie)
    while the yield exceeds 2n/3, and the depth is 1 plus the largest
    depth of the central triple and the light siblings passed on the way.
    """
    least = {}
    for t, word in string_keyed_closure(rules, terminals, states, transitions):
        least[t] = word
        if t[0] == initial and t[1] == axiom and t[2] in accepting:
            break
    else:
        return None
    states = sorted(states)

    def children(t):
        q, sym, p = t
        for b, c in (rhs for lhs, rhs in rules if lhs == sym and len(rhs) == 2):
            for r in states:
                left, right = (q, b, r), (r, c, p)
                if left in least and right in least and least[left] + least[right] == least[t]:
                    return left, right
        raise AssertionError(f"no split reproduces the least word of {t}")

    def depth(t):
        n = len(least[t])
        if n <= 1:
            return n
        light = []
        while 3 * len(least[t]) > 2 * n:
            heavy, other = children(t)
            if len(least[heavy]) < len(least[other]):
                heavy, other = other, heavy
            light.append(other)
            t = heavy
        return 1 + max(depth(u) for u in [t, *light])

    return depth(t)


def _concatenations(sources, max_len):
    """Every concatenation of one word from each source, up to max_len."""
    partial = [()]
    for options in sources:
        partial = [
            prefix + opt
            for prefix in partial
            for opt in options
            if len(prefix) + len(opt) <= max_len
        ]
        if not partial:
            return []
    return partial


# -- bracket and mirror languages ------------------------------------------------


def balanced_brackets(word, pairs):
    """Well-nested over the given (open, close) pairs, via a position stack."""
    close_of = {o: c for o, c in pairs}
    openers = set(close_of)
    closers = {c for _, c in pairs}
    stack = []
    for sym in word:
        if sym in openers:
            stack.append(close_of[sym])
        elif sym in closers:
            if not stack or stack.pop() != sym:
                return False
        else:
            return False
    return not stack


def dyck_oracle(n, word):
    return balanced_brackets(word, [(f"a{k}", f"abar{k}") for k in range(1, n + 1)])


@lru_cache(maxsize=None)
def dyck_words(n, max_len):
    """All balanced words up to max_len, by length, then lexicographically
    over the alphabet a1, abar1, a2, abar2, ...

    A depth-first walk per length tries the letters in alphabet order and
    extends a prefix only while it can still close: an opener needs room
    for its closer, a closer must match the innermost open bracket.  Every
    balanced word is reached once, in the order filtering all tuples
    would list them.  The tuple is cached, so repeated sweeps share it.
    """
    pairs = [(f"a{k}", f"abar{k}") for k in range(1, n + 1)]
    alphabet = [s for pair in pairs for s in pair]
    close_of = dict(pairs)
    result = []

    def walk(prefix, stack, length):
        if len(prefix) == length:
            result.append(prefix)
            return
        for sym in alphabet:
            if sym in close_of:
                if len(stack) + 2 <= length - len(prefix):
                    walk(prefix + (sym,), stack + (close_of[sym],), length)
            elif stack and stack[-1] == sym:
                walk(prefix + (sym,), stack[:-1], length)

    for length in range(0, max_len + 1, 2):
        walk((), (), length)
    return tuple(result)


def sym_oracle(word):
    """Mirror words: u followed by the reversed barred copy of u."""
    word = tuple(word)
    if len(word) % 2:
        return False
    half = len(word) // 2
    u, v = word[:half], word[half:]
    if any(s not in ("x1", "x2") for s in u):
        return False
    return tuple("xbar" + s[1] for s in reversed(u)) == v


def s_sharp_oracle(word):
    """Mirror words with a run of # allowed before every letter."""
    word = tuple(word)
    if not word:
        return True
    if word[-1] == "#":
        return False
    return sym_oracle([s for s in word if s != "#"])


def m_oracle(word):
    word = tuple(word)
    if word == ():
        return True
    return len(word) >= 2 and word[0] == "a" and word[-1] == "abar" and s_sharp_oracle(word[1:-1])


def _match_blocks(word, i, j):
    """Top-level (start, end) spans of a-abar blocks in word[i:j], or None
    when the brackets are not well nested there."""
    blocks = []
    depth = 0
    start = -1
    for pos in range(i, j):
        if word[pos] == "a":
            if depth == 0:
                start = pos
            depth += 1
        elif word[pos] == "abar":
            depth -= 1
            if depth < 0:
                return None
            if depth == 0:
                blocks.append((start, pos + 1))
    if depth != 0:
        return None
    return blocks


def m_inf_oracle(word):
    word = tuple(word)

    def check(i, j):
        if i == j:
            return True
        if j - i < 2 or word[i] != "a" or word[j - 1] != "abar":
            return False
        blocks = _match_blocks(word, i + 1, j - 1)
        if blocks is None:
            return False
        if not blocks:
            return m_oracle(word[i:j])
        for k in range(len(blocks) - 1):
            if blocks[k][1] == blocks[k + 1][0]:
                return False  # interior filler segment is empty
        if not all(check(s, e) for s, e in blocks):
            return False
        filler = []
        prev = i + 1
        for s, e in blocks:
            filler.extend(word[prev:s])
            prev = e
        filler.extend(word[prev : j - 1])
        return m_oracle((word[i],) + tuple(filler) + (word[j - 1],))

    return check(0, len(word))


def m_plus_oracle(word):
    """Erasing everything but a/abar leaves a non-balanced one-pair word."""
    projected = [s for s in word if s in ("a", "abar")]
    return not balanced_brackets(projected, [("a", "abar")])


def s_sharp_up_oracle(word):
    return m_inf_oracle(word) or m_plus_oracle(word)


# -- rational index -------------------------------------------------------------


def shortest_dyck1_in_machine(n, edges, accepting):
    """Shortest balanced-word length accepted by the n-state machine, or
    None.  Layered search over (state, height) with heights capped at n*n;
    a shortest witness never needs to climb past that bound."""
    if 0 in accepting:
        return 0
    cap = n * n
    dist = {(0, 0): 0}
    frontier = deque([(0, 0)])
    while frontier:
        state, height = frontier.popleft()
        d = dist[(state, height)]
        for src, label, dst in edges:
            if src != state:
                continue
            nh = height + (1 if label == "a1" else -1)
            if nh < 0 or nh > cap or (dst, nh) in dist:
                continue
            if dst in accepting and nh == 0:
                return d + 1
            dist[(dst, nh)] = d + 1
            frontier.append((dst, nh))
    return None


def shortest_word_in_machine(n, edges, accepting):
    """Shortest accepted word length regardless of any filter (graph BFS)."""
    if 0 in accepting:
        return 0
    dist = {0: 0}
    frontier = deque([0])
    while frontier:
        state = frontier.popleft()
        for src, _, dst in edges:
            if src == state and dst not in dist:
                dist[dst] = dist[state] + 1
                if dst in accepting:
                    return dist[dst]
                frontier.append(dst)
    return None


def _all_machines(n, alphabet):
    """Every transition subset and every nonempty accepting set; state 0 is
    initial.  No symmetry reduction on purpose: this is the reference."""
    edges = [(i, sym, j) for i in range(n) for sym in alphabet for j in range(n)]
    for mask in range(1 << len(edges)):
        subset = tuple(edges[k] for k in range(len(edges)) if mask >> k & 1)
        for acc_mask in range(1, 1 << n):
            accepting = {i for i in range(n) if acc_mask >> i & 1}
            yield subset, accepting


def substituted_member(word, outer_words, seg_contains):
    """Does word split into segments tracking some outer word?

    outer_words is an iterable of candidate outer letter sequences;
    seg_contains(letter, segment) answers whether the segment lies in that
    letter's substituent language.  Plain DP over split points, per
    candidate.
    """
    word = tuple(word)
    for v in outer_words:
        positions = {0}
        for letter in v:
            nxt = set()
            for start in positions:
                for end in range(start, len(word) + 1):
                    if seg_contains(letter, word[start:end]):
                        nxt.add(end)
            positions = nxt
            if not positions:
                break
        if len(word) in positions:
            return True
    return False


def rho_dyck1(n):
    best = None
    for edges, accepting in _all_machines(n, ("a1", "abar1")):
        shortest = shortest_dyck1_in_machine(n, edges, accepting)
        if shortest is not None and (best is None or shortest > best):
            best = shortest
    return best


def rho_allwords(n):
    best = None
    for edges, accepting in _all_machines(n, ("a",)):
        shortest = shortest_word_in_machine(n, edges, accepting)
        if shortest is not None and (best is None or shortest > best):
            best = shortest
    return best


# Frozen outputs of the two functions above (regenerate with
# `python3 tests/oracles.py`); the n=3 dyck1 row enumerates 1.8M machines.
RHO_DYCK1 = {1: 0, 2: 4, 3: 8}
RHO_ALLWORDS = {1: 0, 2: 1, 3: 2}


if __name__ == "__main__":
    for n in (1, 2, 3):
        print(f"rho_allwords({n}) = {rho_allwords(n)}")
    for n in (1, 2, 3):
        print(f"rho_dyck1({n}) = {rho_dyck1(n)}")
