"""Print named digests of seeded answers, one line each: the name, the
first 16 hex digits of a sha256 over the answers, the number of answers
and a count that says what they hold.  Two trees that print the same
lines give the same answers on these inputs.

The recipes live here, so a change can be checked against its parent by
running the same script on both trees, from the change's checkout:

    PYTHONPATH=<tree>/src:tests python3 tests/digests.py

`rrkit` comes from <tree>, the generators from this checkout.  pytest
does not collect this file.
"""
import hashlib
import random

from generators import dense_counter, random_counter, random_word


def counter_digests() -> list[tuple[str, str, int, int]]:
    """6,000 seeded counter machines, alternating dense_counter and
    random_counter over {a, b}.  least_word: repr(c.least_word(|Q|²)) per
    machine, counting the words found.  accepts: b"1" or b"0" per verdict
    on six random words of length at most 7 per machine, drawn after
    least_word runs, counting the accepted ones."""
    rng = random.Random(47)
    alphabet = ("a", "b")
    accepts, least = hashlib.sha256(), hashlib.sha256()
    calls = accepted = found = 0
    for i in range(6000):
        c = random_counter(rng, max_states=4, alphabet=alphabet) if i % 2 else dense_counter(rng, alphabet)
        word = c.least_word(len(c.states) ** 2)
        least.update(repr(word).encode())
        found += word is not None
        for _ in range(6):
            verdict = c.accepts(random_word(rng, alphabet, max_len=7))
            accepts.update(b"1" if verdict else b"0")
            calls += 1
            accepted += verdict
    return [
        ("accepts", accepts.hexdigest()[:16], calls, accepted),
        ("least_word", least.hexdigest()[:16], 6000, found),
    ]


def main():
    for name, digest, total, count in counter_digests():
        print(name, digest, total, count)


if __name__ == "__main__":
    main()
