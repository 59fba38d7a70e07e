"""Checks of the reference implementations against plainer references."""

import random
from itertools import product

from oracles import (
    balanced_brackets,
    dyck_words,
    enumerate_accepted,
    grammar_words,
    naive_accepts,
    without_epsilon,
)


def test_dyck_words_matches_filtering_every_tuple():
    for n in (1, 2):
        pairs = [(f"a{k}", f"abar{k}") for k in range(1, n + 1)]
        alphabet = [s for pair in pairs for s in pair]
        for max_len in range(9):
            filtered = [
                w
                for length in range(0, max_len + 1, 2)
                for w in product(alphabet, repeat=length)
                if balanced_brackets(w, pairs)
            ]
            assert list(dyck_words(n, max_len)) == filtered, (n, max_len)


def naive_grammar_words(rules, axiom, max_len, nonterminals):
    """Expand every rule against every word known so far, until nothing
    changes."""
    words = {nt: set() for nt in nonterminals}
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            partial = [()]
            for sym in rhs:
                options = words[sym] if sym in nonterminals else [(sym,)]
                partial = [p + o for p in partial for o in options if len(p + o) <= max_len]
            for w in partial:
                if w not in words[lhs]:
                    words[lhs].add(w)
                    changed = True
    return sorted(words[axiom], key=lambda w: (len(w), w))


def test_grammar_words_matches_naive_fixpoint():
    rng = random.Random(4242)
    terminals = ["a", "b"]
    for _ in range(300):
        nonterminals = [f"N{i}" for i in range(rng.randint(1, 4))]
        rules = [
            (lhs, tuple(rng.choice(nonterminals + terminals) for _ in range(rng.randint(0, 3))))
            for lhs in nonterminals
            for _ in range(rng.randint(1, 3))
        ]
        for max_len in (0, 3, 6):
            expected = naive_grammar_words(rules, "N0", max_len, set(nonterminals))
            assert grammar_words(rules, "N0", max_len, set(nonterminals)) == expected, rules


def random_machine(rng, alphabet):
    """Up to 4 states and 8 moves, epsilon moves among them; 0 is initial."""
    states = range(rng.randint(1, 4))
    transitions = {
        (rng.choice(states), rng.choice(alphabet + ("",)), rng.choice(states))
        for _ in range(rng.randint(0, 8))
    }
    return set(states), transitions, 0, {q for q in states if rng.random() < 0.4}


def every_accepted(transitions, initial, accepting, alphabet, max_len):
    """Every tuple up to max_len that naive_accepts takes, by length, then
    in alphabet order."""
    return [
        w
        for length in range(max_len + 1)
        for w in product(alphabet, repeat=length)
        if naive_accepts(transitions, initial, accepting, w)
    ]


def test_enumerate_accepted_matches_testing_every_tuple():
    # "b" before "a": the order is the alphabet's, not the strings'
    rng = random.Random(4343)
    alphabet = ("b", "a")
    with_epsilon = 0
    for _ in range(300):
        states, transitions, initial, accepting = random_machine(rng, alphabet)
        with_epsilon += any(label == "" for _, label, _ in transitions)
        expected = every_accepted(transitions, initial, accepting, alphabet, 5)
        assert enumerate_accepted(transitions, initial, accepting, alphabet, 5) == expected
    assert with_epsilon > 100


def test_without_epsilon_keeps_the_language():
    rng = random.Random(4444)
    alphabet = ("a", "b")
    for _ in range(300):
        states, transitions, initial, accepting = random_machine(rng, alphabet)
        free = without_epsilon(states, transitions, initial, accepting)
        assert free[0] == states and free[1] == initial
        assert all(label != "" for _, label, _ in free[3])
        assert every_accepted(free[3], initial, free[2], alphabet, 5) == every_accepted(
            transitions, initial, accepting, alphabet, 5
        )
