"""Print named digests of seeded answers, one line each: the name, the
first 16 hex digits of a sha256 over the answers, the number of answers
and a count that says what they hold.  Two trees that print the same
lines give the same answers on these inputs.

The recipes live here, so a change can be checked against its parent by
running the same script on both trees, from the change's checkout:

    PYTHONPATH=<tree>/src:tests python3 tests/digests.py

`rrkit` comes from <tree>, the generators from this checkout.  pytest
does not collect this file; tests/test_digests.py pins the three fast
lines, bounds, closure and index.
"""
import hashlib
import math
import random

from generators import dense_counter, random_cnf, random_counter, random_nfa, random_word
from rrkit import InputError, Nfa, rational_index
from rrkit.engine import _grammar_edges, log2_check
from rrkit.filters import parse_filter_name
from rrkit.reductions import intersection_shortest


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


def bounds_digest() -> tuple[str, str, int, int]:
    """bounds: repr((sorted(_ceiling.items()), sorted(_floor.items()))) per
    machine on 3,000 random_counter machines of up to 4 states, then
    1,000 dense_counter machines over {a1, abar1}, from one
    random.Random(46); counting the machines with math.inf among their
    floors."""
    rng = random.Random(46)
    machines = [random_counter(rng, max_states=4) for _ in range(3000)]
    machines += [dense_counter(rng, ("a1", "abar1")) for _ in range(1000)]
    digest = hashlib.sha256()
    unbounded = 0
    for c in machines:
        digest.update(repr((sorted(c._ceiling.items()), sorted(c._floor.items()))).encode())
        unbounded += math.inf in c._floor.values()
    return "bounds", digest.hexdigest()[:16], len(machines), unbounded


def closure_digest() -> tuple[str, str, int, int]:
    """closure: repr((intersection_shortest(g, a), sorted(_grammar_edges(g,
    a).items()), repr(log2_check(g, a)))) per grammar and automaton, from
    one random.Random(42): 1,500 random_cnf grammars, each with a
    random_nfa of up to 6 states; then 100 such NFAs each against the CNF
    grammars of dyck1, dyck2, sym and symsharp; every second NFA of each
    run has epsilon moves.  Last the paths a1^k abar1^k, k = 1..59,
    against dyck1's.  Counting the pairs with a witness."""
    rng = random.Random(42)
    pairs = []
    for i in range(1500):
        g = random_cnf(rng)
        pairs.append((g, random_nfa(rng, max_states=6, allow_epsilon=i % 2 == 1)))
    for name in ("dyck1", "dyck2", "sym", "symsharp"):
        f = parse_filter_name(name)
        pairs += [
            (f.cnf_grammar, random_nfa(rng, max_states=6, alphabet=f.alphabet, allow_epsilon=i % 2 == 1))
            for i in range(100)
        ]
    dyck1 = parse_filter_name("dyck1")
    for k in range(1, 60):
        path = [(f"p{i}", "a1" if i < k else "abar1", f"p{i + 1}") for i in range(2 * k)]
        pairs.append((dyck1.cnf_grammar, Nfa.build(dyck1.alphabet, "p0", {f"p{2 * k}"}, path)))
    digest = hashlib.sha256()
    nonempty = 0
    for g, a in pairs:
        word = intersection_shortest(g, a)
        digest.update(repr((word, sorted(_grammar_edges(g, a).items()), repr(log2_check(g, a)))).encode())
        nonempty += word is not None
    return "closure", digest.hexdigest()[:16], len(pairs), nonempty


def index_digest() -> tuple[str, str, int, int]:
    """index: repr of rational_index(f, n), or of the InputError message
    where one is raised, for dyck1, dyck2, sym and symsharp in turn: at
    n = 1, 2, 3 exhaustively, then at n = 2, 3, 4 on a sample of 6 with
    seeds 0-29 each.  Counting the values."""
    digest = hashlib.sha256()
    total = values = 0
    for name in ("dyck1", "dyck2", "sym", "symsharp"):
        f = parse_filter_name(name)
        cases = [(n, None, 0) for n in (1, 2, 3)]
        cases += [(n, 6, seed) for n in (2, 3, 4) for seed in range(30)]
        for n, sample, seed in cases:
            try:
                value = rational_index(f, n, sample, seed)
            except InputError as err:
                value = str(err)
            digest.update(repr(value).encode())
            total += 1
            values += isinstance(value, int)
    return "index", digest.hexdigest()[:16], total, values


def main():
    for name, digest, total, count in [*counter_digests(), bounds_digest(), closure_digest(), index_digest()]:
        print(name, digest, total, count)


if __name__ == "__main__":
    main()
