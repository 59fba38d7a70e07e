"""Checks of the reference implementations against plainer references."""

from itertools import product

from oracles import balanced_brackets, dyck_words


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
