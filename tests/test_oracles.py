"""Checks of the reference implementations against plainer references."""

import random
from itertools import product

from oracles import balanced_brackets, dyck_words, grammar_words


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
