"""The product grammar behind the grammar route.

Intersecting a context-free grammar with an NFA yields another grammar
whose nonterminals are (state, nonterminal, state) triples.  The
construction creates exactly |N| * |Q|^2 + 1 of them, one per triple plus
a fresh axiom, whether or not a triple can derive anything.
"""

from rrkit import Nfa, bar_hillel
from rrkit.filters import dyck_grammar


def main():
    g = dyck_grammar(1).cnf()
    a = Nfa.build(
        ("a1", "abar1"),
        "q0",
        {"q0"},
        {("q0", "a1", "q1"), ("q1", "a1", "q0"), ("q0", "abar1", "q1"), ("q1", "abar1", "q0")},
    )
    product = bar_hillel(g, a)
    print(f"grammar nonterminals: {len(g.nonterminals)}")
    print(f"machine states:       {len(a.states)}")
    print(f"product nonterminals: {len(product.nonterminals)}"
          f" (= {len(g.nonterminals)} * {len(a.states)}**2 + 1)")
    w = product.shortest_word()
    print(f"shortest word in the intersection: {' '.join(w) if w else 'eps'}")
    assert a.accepts(w) and g.cyk(w)


if __name__ == "__main__":
    main()
