"""Watching the divide-and-conquer checker stay shallow.

The instrumented checker answers the same emptiness question as the
product grammar, and measures how deep a recursive verifier must go to
check the least witness's derivation tree when every frame splits at a
central triple holding between a third and two thirds of its yield.
The machines below force longer and longer witnesses; the depth grows
like log_{3/2} of the witness length, not like the length itself.
"""

import math

from rrkit import Nfa, log2_check, nrr_decide
from rrkit.filters import dyck_grammar, parse_filter_name


def deep_path(k):
    """Accepts exactly a1^k abar1^k, so every witness has length 2k."""
    states = [f"s{i}" for i in range(2 * k + 1)]
    moves = {(states[i], "a1", states[i + 1]) for i in range(k)}
    moves |= {(states[k + i], "abar1", states[k + i + 1]) for i in range(k)}
    return Nfa.build(("a1", "abar1"), states[0], {states[-1]}, moves, states=states)


def main():
    g = dyck_grammar(1).cnf()
    f = parse_filter_name("dyck1")
    print(f"{'witness':>8}  {'depth':>5}  {'live':>4}  {'log bound':>9}")
    for k in (1, 2, 4, 8, 16, 32, 64):
        a = deep_path(k)
        stats = log2_check(g, a)
        ell = nrr_decide(a, f).stats["shortest_witness_length"]
        bound = math.ceil(math.log(max(ell, 1), 1.5)) + 2
        assert stats.result and stats.max_recursion_depth <= bound
        print(f"{ell:>8}  {stats.max_recursion_depth:>5}  "
              f"{stats.max_live_triples:>4}  {bound:>9}")


if __name__ == "__main__":
    main()
