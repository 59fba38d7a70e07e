"""Seeded random instance generators shared by the property and acceptance
tests, and one fixed family (coprime_cycle_moves).  All randomness flows
through an explicit random.Random so failures reproduce from the seed
alone."""
import random

from rrkit import Cfg, CounterAutomaton, Nfa, Transducer


def random_nfa(rng, max_states=4, alphabet=("a1", "abar1"), allow_epsilon=False, min_states=1):
    n = rng.randint(min_states, max_states)
    states = [f"q{i}" for i in range(n)]
    transitions = set()
    for src in states:
        for sym in alphabet:
            for dst in states:
                if rng.random() < 0.35:
                    transitions.add((src, sym, dst))
    if allow_epsilon:
        for src in states:
            for dst in states:
                if src != dst and rng.random() < 0.15:
                    transitions.add((src, "", dst))
    accepting = {q for q in states if rng.random() < 0.4}
    if not accepting:
        accepting = {rng.choice(states)}
    return Nfa.build(alphabet, "q0", accepting, transitions, states=states)


def random_cnf(rng, max_nonterminals=4, terminals=("a1", "abar1")):
    """A random grammar already in Chomsky normal form.

    The axiom never occurs on a right-hand side; an axiom epsilon rule is
    thrown in occasionally.  Languages are frequently empty or trivial,
    which is what the emptiness-heavy tests want.
    """
    count = rng.randint(2, max_nonterminals)
    nts = [f"N{i}" for i in range(count)]
    axiom = nts[0]
    rules = []
    body_pool = nts[1:] if len(nts) > 1 else nts
    for nt in nts:
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5 or len(body_pool) == 0:
                rules.append((nt, (rng.choice(terminals),)))
            else:
                rules.append((nt, (rng.choice(body_pool), rng.choice(body_pool))))
    if rng.random() < 0.25:
        rules.insert(0, (axiom, ()))
    return Cfg.build(rules, axiom, nonterminals=nts, terminals=terminals)


def random_cfg(rng, max_nonterminals=4, terminals=("a1", "abar1")):
    """A random grammar in no normal form: bodies of length 0-4 that mix
    terminals and nonterminals, the axiom among them, epsilon rules, and
    now and then a nonterminal with no rule (the axiom too)."""
    nts = [f"N{i}" for i in range(rng.randint(1, max_nonterminals))]
    symbols = nts + list(terminals)
    rules = [
        (nt, tuple(rng.choice(symbols) for _ in range(rng.randint(0, 4))))
        for nt in nts
        for _ in range(rng.choice((0, 1, 2, 3)))
    ]
    return Cfg.build(rules, nts[0], nonterminals=nts, terminals=terminals)


def random_word(rng, alphabet, max_len=8):
    return tuple(rng.choice(alphabet) for _ in range(rng.randint(0, max_len)))


def random_counter(rng, max_states=3, alphabet=("a1", "abar1"), allow_epsilon=True):
    n = rng.randint(1, max_states)
    states = [f"q{i}" for i in range(n)]
    reads = list(alphabet) + ([""] if allow_epsilon else [])
    transitions = set()
    for src in states:
        for dst in states:
            if rng.random() < 0.5:
                transitions.add((
                    src,
                    rng.choice(reads),
                    rng.choice(("any", "zero", "positive")),
                    rng.choice((-1, 0, 1)),
                    dst,
                ))
    accepting = {q for q in states if rng.random() < 0.4}
    if not accepting:
        accepting = {rng.choice(states)}
    mode = rng.choice(("final_state", "final_state_and_zero"))
    return CounterAutomaton.build(
        alphabet, "q0", accepting, transitions, accept_mode=mode, states=states
    )


def dense_counter(rng, alphabet):
    """A 2-3 state machine with each (src, read, dst) move present at
    random, so that several least-length words often tie."""
    states = [f"q{i}" for i in range(rng.randint(2, 3))]
    transitions = {
        (src, read, rng.choice(("any", "zero", "positive")), rng.choice((-1, 0, 1)), dst)
        for src in states
        for read in (*alphabet, "")
        for dst in states
        if rng.random() < 0.5
    }
    accepting = rng.sample(states[1:], rng.randint(1, len(states) - 1))
    mode = rng.choice(("final_state", "final_state_and_zero"))
    return CounterAutomaton.build(
        alphabet, "q0", accepting, transitions, accept_mode=mode, states=states
    )


def random_transducer(rng, max_states=3, inputs=("a", "b"), outputs=("x", "y")):
    """A small transducer with epsilon reads and epsilon writes."""
    n = rng.randint(1, max_states)
    states = [f"t{i}" for i in range(n)]
    reads = list(inputs) + [""]
    writes = list(outputs) + [""]
    transitions = {
        (src, rng.choice(reads), rng.choice(writes), dst)
        for src in states
        for dst in states
        for _ in range(rng.randint(0, 2))
    }
    accepting = {q for q in states if rng.random() < 0.4}
    if not accepting:
        accepting = {rng.choice(states)}
    return Transducer.build(inputs, outputs, "t0", accepting, transitions, states=states)


def coprime_cycle_moves(p, q, epsilon=True):
    """The coprime-cycle family, whose least dyck1 word needs a counter
    quadratic in the machine's size.  Returns (moves, accepting state)
    over the states 0..p+q, initial state 0.

    State 0 reads a1 into a p-cycle of a1 moves.  Where that cycle closes
    a bridge leads into a q-cycle of abar1 moves, which accepts where it
    closes.  The bridge is an epsilon move, or with epsilon=False it reads
    the first abar1.  The machine's words are a1^(kp) abar1^(lq), k >= 1,
    so for coprime p and q its least balanced word is a1^(pq) abar1^(pq):
    the lcm of coprime cycle lengths is the classic unary argument of
    Chrobak, "Finite automata and unary languages" (TCS, 1986).  The
    counter climbs to pq, while the machine has 1 + p + q states, so a
    cap linear in the size of its product with d1_counter() (one state)
    cuts the witness off.
    """
    c = [1 + i % p for i in range(p + 1)]  # c[i]: i a1s read in the cycle, mod p
    d = [1 + p + j % q for j in range(q + 1)]  # d[j]: j abar1s read, mod q
    moves = [(0, "a1", c[1])]
    moves += [(c[i], "a1", c[i + 1]) for i in range(p)]
    moves.append((c[0], "", d[0]) if epsilon else (c[0], "abar1", d[1]))
    moves += [(d[j], "abar1", d[j + 1]) for j in range(q)]
    return moves, d[0]


def coprime_cycle_nfa(p, q, epsilon=True):
    """coprime_cycle_moves as an Nfa over a1/abar1, state i named qi."""
    moves, accepting = coprime_cycle_moves(p, q, epsilon)
    return Nfa.build(
        ("a1", "abar1"), "q0", {f"q{accepting}"}, {(f"q{i}", s, f"q{j}") for i, s, j in moves}
    )
