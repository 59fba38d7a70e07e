"""The three fast lines of tests/digests.py, pinned: a change that alters
the value bounds of the seeded counter machines, the answers of the
triple closure on the seeded grammar and automaton pairs, or the seeded
rational index values, fails here until the line is re-pinned with its
old and new values recorded."""
from digests import bounds_digest, closure_digest, index_digest


def test_bounds_digest():
    assert bounds_digest() == ("bounds", "9db78e4716d280f8", 4000, 2178)


def test_closure_digest():
    assert closure_digest() == ("closure", "64e9707f95872eac", 1959, 1432)


def test_index_digest():
    assert index_digest() == ("index", "9e484f6a77e32c06", 372, 368)
