"""Seeded random instance generators shared by the property and acceptance
tests.  All randomness flows through an explicit random.Random so failures
reproduce from the seed alone."""
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
