"""Product grammars, the derivation transducer, marking, and the morphism
reduction.  The load-bearing checks are language-level: the triple product
is compared word by word against separate membership routes, and both
directions of the derivation-transducer correspondence are exercised on a
small grammar.
"""

import itertools
import pathlib
import random
import re

import pytest

from rrkit import (
    Cfg,
    InputError,
    Nfa,
    bar_hillel,
    cs_transducer,
    format_grammar,
    height_bound,
    intersection_nonempty,
    intersection_shortest,
    mark_automaton,
    nrr_decide,
    parse_filter_name,
    parse_grammar,
    reduce_d2_to_ssharpup,
    ssharpup_embedding,
)
from rrkit.automata import escape
from rrkit.errors import ContractError
from rrkit.filters import (
    ALPHABET_FULL, dyck_encoder, dyck_grammar, m_inf_member, m_plus_member,
    s_sharp_up_member,
)
from rrkit.reductions import D2_ALPHABET, _derivable, _live_band

from generators import random_cfg, random_cnf, random_nfa
from oracles import (
    dyck_oracle,
    dyck_words,
    enumerate_accepted,
    grammar_words,
    live_band_by_pairs,
    mark_by_definition,
    naive_accepts,
    ssharpup_by_two_trims,
    string_keyed_closure,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"


def product_words(g, a, max_len):
    prod = bar_hillel(g, a)
    return set(grammar_words(prod.rules, prod.axiom, max_len, prod.nonterminals))


def direct_words(g, a, max_len):
    cnf = g.cnf()
    return {
        w
        for w in grammar_words(g.rules, g.axiom, max_len, g.nonterminals)
        if naive_accepts(a.transitions, a.initial, a.accepting, w)
    }


def test_bar_hillel_language_random():
    rng = random.Random(911)
    for _ in range(12):
        g = random_cnf(rng)
        a = random_nfa(rng, max_states=3, allow_epsilon=rng.random() < 0.5)
        assert product_words(g, a, 6) == direct_words(g, a, 6), (g, a)


def test_bar_hillel_epsilon_junctions():
    # the only accepting run crosses an epsilon move mid-word
    g = parse_grammar("S -> A B\nA -> a1\nB -> abar1").cnf()
    a = Nfa.build(
        ("a1", "abar1"),
        "q0",
        {"q3"},
        {("q0", "a1", "q1"), ("q1", "", "q2"), ("q2", "abar1", "q3")},
    )
    assert product_words(g, a, 4) == {("a1", "abar1")}


def test_bar_hillel_nonterminal_count():
    """The fresh axiom and one [q,A,p] per triple, |N|·|Q|²+1 in all, for
    every grammar: a CNF one on rings of 1-3 states, and d1.txt's
    S -> a1 S abar1 | S S | (no normal form), whose terminals stay in the
    bodies, on the golden's pair machine and on one with epsilon moves."""
    g = parse_grammar("S -> A B\nA -> a1\nB -> abar1")
    assert g.is_cnf()
    for states in (1, 2, 3):
        a = Nfa.build(
            ("a1", "abar1"),
            "q0",
            {f"q{states - 1}"},
            {(f"q{i}", "a1", f"q{(i + 1) % states}") for i in range(states)},
            states={f"q{i}" for i in range(states)},
        )
        prod = bar_hillel(g, a)
        assert len(prod.nonterminals) == 3 * states**2 + 1, states
    d1 = parse_grammar((DATA / "d1.txt").read_text())
    assert not d1.is_cnf()
    pair = Nfa.from_json((DATA / "pair.json").read_text())
    eps = Nfa.build(
        ("a1", "abar1"),
        "q0",
        {"q0"},
        {("q0", "a1", "q1"), ("q1", "", "q2"), ("q2", "abar1", "q3"), ("q3", "", "q0")},
    )
    for a in (pair, eps):
        prod = bar_hillel(d1, a)
        assert len(prod.nonterminals) == len(a.states) ** 2 + 1, a
    assert len(bar_hillel(d1, pair).rules) == 32


def test_bar_hillel_text_reads_back_as_the_product():
    """The text format_grammar writes for a product reads back with the
    product's axiom and least word, the same CYK verdict on every word up
    to length 4, and as terminals those of the product that occur in some
    rule body (the text cannot declare another).  Seeded grammars in no
    normal form, with epsilon rules and nonterminals that have no rule,
    against machines of at most 3 states, half with epsilon moves."""
    rng = random.Random(931)
    words = [w for n in range(5) for w in itertools.product(("a1", "abar1"), repeat=n)]
    nonempty = 0
    for i in range(60):
        g = random_cfg(rng)
        a = random_nfa(rng, max_states=3, allow_epsilon=i % 2 == 1)
        prod = bar_hillel(g, a)
        back = parse_grammar(format_grammar(prod))
        assert back.axiom == prod.axiom, (g, a)
        assert back.terminals == prod.terminals & {s for _, rhs in prod.rules for s in rhs}, (g, a)
        assert back.shortest_word() == prod.shortest_word(), (g, a)
        nonempty += prod.shortest_word() is not None
        prod_cnf, back_cnf = prod.cnf(), back.cnf()
        for w in words:
            assert (set(w) <= back.terminals and back_cnf.cyk(w)) == prod_cnf.cyk(w), (g, a, w)
    assert nonempty >= 15


def test_bar_hillel_fresh_axiom_and_terminal_check():
    g = parse_grammar("S -> a1")
    a = Nfa.build(("a1",), "q0", {"q0"}, {("q0", "a1", "q0")})
    prod = bar_hillel(g, a)
    assert prod.axiom == "S'"
    with pytest.raises(InputError):
        bar_hillel(g, Nfa.build(("b",), "q0", {"q0"}, set()))
    # terminals spelled like the axiom and a triple: those two names are primed
    g = parse_grammar("S -> a S | S' [q0,S,q0] S |")
    moves = {("q0", "a", "q0"), ("q0", "S'", "q1"), ("q1", "[q0,S,q0]", "q1")}
    a = Nfa.build(("a", "S'", "[q0,S,q0]"), "q0", {"q1"}, moves)
    prod = bar_hillel(g, a)
    assert prod.axiom == "S''" and "[q0,S,q0]'" in prod.nonterminals
    assert prod.shortest_word() == intersection_shortest(g.cnf(), a) == ("S'", "[q0,S,q0]")


def test_missing_terminal_message():
    # one terminal of 400 is missing from an alphabet of 399 letters;
    # every grammar question reports it in the same words
    g = dyck_grammar(200).cnf()
    letters = tuple(sorted(g.terminals - {"abar7"}))
    a = Nfa.build(letters, "q0", {"q0"}, set())
    message = "grammar terminal 'abar7' is missing from the automaton alphabet"
    for question in (bar_hillel, intersection_nonempty, intersection_shortest):
        with pytest.raises(InputError) as exc:
            question(g, a)
        assert str(exc.value) == message, question


def test_bar_hillel_handles_long_mixed_bodies():
    g = parse_grammar("S -> a1 S abar1 |")
    a = Nfa.build(
        ("a1", "abar1"),
        "q0",
        {"q0"},
        {("q0", "a1", "q1"), ("q1", "abar1", "q0")},
    )
    words = product_words(g, a, 6)
    assert words == {(), ("a1", "abar1")}


def test_bar_hillel_keeps_each_partial_body_once():
    """Sixty letters over a machine that reads a1 from each of two states
    into both: 2^60 runs, but each prefix reaches only two (body, state)
    pairs, and the product has one rule per triple and accepting state."""
    g = Cfg.build([("S", ("a1",) * 60)], "S")
    a = Nfa.build(("a1",), "p", {"p", "q"}, {(s, "a1", t) for s in "pq" for t in "pq"})
    product = bar_hillel(g, a)
    assert sorted(product.rules) == [
        ("S'", ("[p,S,p]",)),
        ("S'", ("[p,S,q]",)),
        *((f"[{s},S,{t}]", ("a1",) * 60) for s in "pq" for t in "pq"),
    ]


def test_bar_hillel_names_triples_injectively():
    # unescaped, the triples (x, S, "T,y") and ("x,S", T, y) are both
    # [x,S,T,y], so S, from x to the accepting "T,y", derived the b that T
    # reads from "x,S" to y
    g = parse_grammar("Z -> S | T\nS -> a\nT -> b")
    a = Nfa.build(("a", "b"), "x", {"T,y"}, {("x,S", "b", "y")}, states={"y"})
    assert intersection_shortest(g.cnf(), a) is None
    assert bar_hillel(g, a).shortest_word() is None


def test_intersection_helpers_agree_with_product():
    rng = random.Random(912)
    for _ in range(25):
        g = random_cnf(rng)
        a = random_nfa(rng, max_states=3, allow_epsilon=rng.random() < 0.5)
        prod = bar_hillel(g, a)
        nonempty = intersection_nonempty(g, a)
        assert nonempty == (prod.shortest_word() is not None), (g, a)
        w = intersection_shortest(g, a)
        assert w == prod.shortest_word(), (g, a)
        assert (w is not None) == nonempty
        if w is not None:
            assert g.cyk(w)
            assert a.accepts(w)
            if w:
                shorter = {
                    u
                    for u in grammar_words(
                        g.rules, g.axiom, len(w) - 1, g.nonterminals
                    )
                    if a.accepts(u)
                }
                assert shorter == set(), (g, a, w)


def test_decide_matches_materialized_product():
    # nrr_decide searches the product implicitly; its witness, including
    # the lexicographic tie-break, and its size figure are those of the
    # materialized bar_hillel grammar
    rng = random.Random(913)
    for name in ("dyck1", "dyck2", "sym", "symsharp"):
        f = parse_filter_name(name)
        g = f.filter_grammar().cnf()
        for k in range(12):
            a = random_nfa(rng, max_states=4, alphabet=f.alphabet, allow_epsilon=k % 2 == 1)
            prod = bar_hillel(g, a)
            report = nrr_decide(a, f)
            assert report.witness == prod.shortest_word(), (name, a)
            assert report.stats["nonterminals_created"] == len(prod.nonterminals), (name, a)


# names whose sorted order is not their creation order
STATE_NAMES = ("q9", "q10", "b\\", "a,b", "q1", "a\\,", "b")
NONTERMINAL_NAMES = ("S", "N9", "N10", "B,", "A\\")


def _renamed_cfg(g):
    """g with the nonterminals N<i> of random_cnf renamed from NONTERMINAL_NAMES."""
    nt = {f"N{i}": name for i, name in enumerate(NONTERMINAL_NAMES)}
    sym = lambda x: nt.get(x, x)
    rules = tuple((sym(lhs), tuple(map(sym, rhs))) for lhs, rhs in g.rules)
    return Cfg(frozenset(map(sym, g.nonterminals)), g.terminals, rules, sym(g.axiom))


def _renamed_nfa(a):
    """a with the states q<i> of random_nfa renamed from STATE_NAMES."""
    state = {f"q{i}": name for i, name in enumerate(STATE_NAMES)}
    return Nfa(
        frozenset(state[q] for q in a.states), a.alphabet, state[a.initial],
        frozenset(state[q] for q in a.accepting),
        frozenset((state[src], label, state[dst]) for src, label, dst in a.transitions),
    )


def _closure_by_names(g, a):
    """_derivable's rank triples in order, each named (q, A, p) through
    the ranks the closure itself used, with its word."""
    closure, _ = _derivable(g, a)
    names = g.cnf_table.names
    rank = a._state_rank
    states = sorted(rank, key=rank.__getitem__)
    return [((states[q], names[sym], states[p]), word) for (q, sym, p), word in closure]


def test_derivable_settles_triples_in_name_order():
    # keyed by ints, the closure must settle the triples in the order of
    # the string-keyed closure: ties between equal words break on the
    # (q, A, p) names, here names whose sorted order is not their
    # creation order
    rng = random.Random(2026)
    cases = []
    for k in range(300):
        g = random_cnf(rng, max_nonterminals=5, terminals=("a1", "abar1", "a2"))
        a = random_nfa(rng, max_states=len(STATE_NAMES), alphabet=("a1", "abar1", "a2"),
                       allow_epsilon=k % 2 == 1)
        cases.append((_renamed_cfg(g), _renamed_nfa(a)))
    for name in ("dyck1", "dyck2", "sym", "symsharp"):
        f = parse_filter_name(name)
        for k in range(10):
            a = random_nfa(rng, max_states=5, alphabet=f.alphabet, allow_epsilon=k % 2 == 1)
            cases.append((f.cnf_grammar, _renamed_nfa(a)))
    ties = 0
    for g, a in cases:
        expected = string_keyed_closure(g.rules, g.terminals, a.states, a.transitions)
        assert _closure_by_names(g, a) == expected, (g, a)
        ties += sum(x[1] == y[1] for x, y in zip(expected, expected[1:]))
    assert ties > 1000, ties


def test_intersection_epsilon_word():
    g = dyck_grammar(1).cnf()
    a = Nfa.build(("a1", "abar1"), "q0", {"q1"}, {("q0", "", "q1")})
    assert intersection_nonempty(g, a)
    assert intersection_shortest(g, a) == ()


def test_intersection_requires_cnf():
    g = parse_grammar("S -> a1 S abar1 |")
    a = Nfa.build(("a1", "abar1"), "q0", {"q0"}, set())
    with pytest.raises(ContractError):
        intersection_nonempty(g, a)
    with pytest.raises(ContractError):
        intersection_shortest(g, a)


# one rule each that breaks CNF, added to a grammar in CNF
NOT_CNF_RULES = {
    "epsilon-on-a-non-axiom": "A ->",
    "axiom-in-a-body": "A -> S B",
    "unit-nonterminal-body": "A -> B",
    "terminal-in-a-binary-body": "A -> a1 B",
    "body-of-three": "A -> A B B",
}


@pytest.mark.parametrize("rule", NOT_CNF_RULES.values(), ids=NOT_CNF_RULES.keys())
def test_each_non_cnf_shape_gets_one_contract_error(rule):
    """Each rule shape outside CNF leaves the grammar without a cnf_table,
    and CYK and the triple closure refuse it with the same message."""
    base = "S -> A B |\nA -> a1\nB -> abar1\n"
    assert parse_grammar(base).is_cnf()
    g = parse_grammar(base + rule)
    assert g.cnf_table is None and not g.is_cnf()
    a = Nfa.build(("a1", "abar1"), "q0", {"q0"}, {("q0", "a1", "q0"), ("q0", "abar1", "q0")})
    with pytest.raises(ContractError) as by_cyk:
        g.cyk(("a1", "abar1"))
    with pytest.raises(ContractError) as by_closure:
        intersection_shortest(g, a)
    assert str(by_cyk.value) == str(by_closure.value)


# -- derivation transducer -----------------------------------------------------


def toy_grammar():
    return parse_grammar("S -> A B\nA -> a1\nB -> abar1")


def test_cs_transducer_outputs_are_grammar_words():
    # single production, so the whole derivation history is one typed
    # block pair and its encoding fits a short sweep
    g = parse_grammar("S -> a1")
    t = cs_transducer(g)
    seen = set()
    for u in dyck_words(2, 12):
        for out in t.transduce(u, 6):
            assert g.cyk(out), (u, out)
            seen.add(out)
    assert seen == {("a1",)}


def test_cs_transducer_silent_outside_bracket_images():
    t = cs_transducer(dyck_grammar(1).cnf())
    # a lone unencoded pair decodes to no block sequence at all
    assert t.transduce(("a1", "abar1"), 5) == set()


def test_cs_transducer_preimages_exist():
    g = toy_grammar()
    t = cs_transducer(g)
    d2 = dyck_grammar(2).cnf()
    for w in [("a1", "abar1")]:
        path = Nfa.build(
            ("a1", "abar1"),
            "p0",
            {f"p{len(w)}"},
            {(f"p{i}", sym, f"p{i + 1}") for i, sym in enumerate(w)},
        )
        dom = t.compose_automaton(path)
        u = intersection_shortest(d2, dom)
        assert u is not None
        assert w in t.transduce(u, len(w))


def test_cs_transducer_empty_grammar_has_empty_range():
    g = parse_grammar("S -> S S\nS -> a1 a1").cnf()
    # S never terminates: no derivations, so no outputs anywhere short
    t = cs_transducer(g)
    for u in dyck_words(2, 8):
        assert t.transduce(u, 4) == set(), u


def test_cs_transducer_names_rule_states_injectively():
    # the rule state of A>B and the state of A -> X B after opening B are
    # both rule[A>B] unless one is primed; merged, A's rule opens B and then
    # A>B's children Z and Y, so the input below is related to y z b
    g = Cfg.build(
        [("A", ("X", "B")), ("A>B", ("Y", "Z")), ("X", ("x",)), ("B", ("b",)),
         ("Y", ("y",)), ("Z", ("z",))],
        "A",
    )
    assert g.cnf().ordered_nonterminals == ("A", "X", "B", "A>B", "Y", "Z")
    t = cs_transducer(g)
    typed = ("a1", "abar1", "a3", "a6", "a5", "abar5", "abar6", "abar3")
    (u,) = dyck_encoder(6).transduce(typed, 100)
    assert t.transduce(u, 10) == set()
    assert not g.cnf().cyk(("y", "z", "b"))


# -- marking -------------------------------------------------------------------


def two_state_loop():
    return Nfa.build(
        D2_ALPHABET,
        "q0",
        {"q0"},
        {("q0", "a1", "q1"), ("q1", "abar1", "q0")},
    )


def test_height_bound_formula():
    one = Nfa.build(D2_ALPHABET, "q0", {"q0"}, set())
    assert height_bound(one) == 10
    assert height_bound(two_state_loop()) == 34
    nonterminals = len(dyck_grammar(2).cnf().nonterminals)
    for k in range(1, 5):
        a = Nfa.build(D2_ALPHABET, "q0", {"q0"}, set(), states=[f"q{i}" for i in range(k)])
        assert height_bound(a) == nonterminals * k * k + 2


def test_mark_automaton_state_count():
    a = two_state_loop()
    marked = mark_automaton(a)
    m = height_bound(a)
    assert len(marked.nfa.states) == 2 * (m + 1) + 1
    assert marked.nfa.states == frozenset(marked.height) | {marked.reject_state}


def test_mark_automaton_alphabet_check():
    with pytest.raises(InputError):
        mark_automaton(Nfa.build(("a1",), "q0", {"q0"}, set()))


def test_mark_reject_state_is_a_sink():
    marked = mark_automaton(two_state_loop())
    for src, _, dst in marked.nfa.transitions:
        assert src != marked.reject_state
        assert dst != marked.reject_state or src != marked.reject_state


def test_marking_respects_heights():
    marked = mark_automaton(two_state_loop())
    h = marked.height
    for src, label, dst in marked.nfa.transitions:
        if dst == marked.reject_state:
            continue
        if label == "":
            assert h[dst] == h[src]
        elif label in ("a1", "a2"):
            assert h[dst] == h[src] + 1
        else:
            assert h[dst] == h[src] - 1


def test_marked_words_have_balanced_heights():
    marked = mark_automaton(two_state_loop()).nfa
    count = 0
    for w in enumerate_accepted(
        marked.transitions, marked.initial, marked.accepting, marked.alphabet, 6
    ):
        level = 0
        for sym in w:
            level += 1 if sym in ("a1", "a2") else -1
            assert level >= 0, w
        assert level == 0, w
        count += 1
    assert count > 0


def test_marking_preserves_dyck_emptiness():
    rng = random.Random(913)
    d2 = dyck_grammar(2).cnf()
    for _ in range(15):
        a = random_nfa(rng, max_states=2, alphabet=D2_ALPHABET,
                       allow_epsilon=rng.random() < 0.5)
        before = intersection_nonempty(d2, a)
        after = intersection_nonempty(d2, mark_automaton(a).nfa)
        assert before == after, a


def test_mark_automaton_matches_definition():
    rng = random.Random(917)
    for k in range(50):
        a = random_nfa(rng, max_states=4, alphabet=D2_ALPHABET, allow_epsilon=k % 2 == 0)
        marked = mark_automaton(a)
        states, initial, accepting, transitions, height, reject = mark_by_definition(
            a.states, a.transitions, a.initial, a.accepting, height_bound(a)
        )
        assert marked.nfa == Nfa(
            frozenset(states), D2_ALPHABET, initial, frozenset(accepting), frozenset(transitions)
        ), a
        assert marked.height == height
        assert marked.reject_state == reject


# -- morphism reduction --------------------------------------------------------


def test_embedding_shape():
    assert ssharpup_embedding(()) == ("a", "x1", "x2", "xbar2", "xbar1", "abar")
    w = ssharpup_embedding(("a1", "abar1"))
    assert w == ("a", "x1", "x2", "a", "x1", "xbar1", "abar", "#", "#",
                 "xbar2", "xbar1", "abar")


def test_embedding_membership():
    assert s_sharp_up_member(ssharpup_embedding(()))
    assert s_sharp_up_member(ssharpup_embedding(("a1", "abar1")))
    assert s_sharp_up_member(ssharpup_embedding(("a2", "a1", "abar1", "abar2")))
    # type mismatch: heights balance, so the unbalanced route is closed,
    # and the mirror route fails on x1 against xbar2
    bad = ssharpup_embedding(("a1", "abar2"))
    assert not m_inf_member(bad)
    assert not m_plus_member(bad)
    assert not s_sharp_up_member(bad)
    # height imbalance alone is caught by the unbalanced route, which is
    # why the reduction target must keep its machine height-balanced
    lopsided = ssharpup_embedding(("a1",))
    assert m_plus_member(lopsided)
    assert not m_inf_member(lopsided)


def test_reduction_positive():
    a = Nfa.build(
        D2_ALPHABET, "q0", {"q2"}, {("q0", "a1", "q1"), ("q1", "abar1", "q2")}
    )
    b = reduce_d2_to_ssharpup(a)
    expected = ssharpup_embedding(("a1", "abar1"))
    accepted = enumerate_accepted(b.transitions, b.initial, b.accepting, b.alphabet, len(expected))
    assert accepted == [expected]
    assert s_sharp_up_member(expected)


def test_reduction_negative_balanced_mismatch():
    # the machine's one word balances heights but mismatches bracket types,
    # so the reduction output is nonempty yet misses the filter entirely
    a = Nfa.build(
        D2_ALPHABET, "q0", {"q2"}, {("q0", "a1", "q1"), ("q1", "abar2", "q2")}
    )
    b = reduce_d2_to_ssharpup(a)
    accepted = enumerate_accepted(b.transitions, b.initial, b.accepting, b.alphabet, 14)
    assert accepted != []
    assert all(not s_sharp_up_member(w) for w in accepted)


def by_two_trims(a):
    """The reduction of a by the oracle pipeline: marked by definition,
    trimmed, embedded and trimmed again."""
    states, initial, accepting, transitions, _, _ = mark_by_definition(
        a.states, a.transitions, a.initial, a.accepting, height_bound(a)
    )
    states, initial, accepting, transitions = ssharpup_by_two_trims(
        states, initial, accepting, transitions
    )
    return Nfa(
        frozenset(states), ALPHABET_FULL, initial, frozenset(accepting), frozenset(transitions)
    )


def test_reduction_matches_two_trim_pipeline():
    """Building only the live band leaves nothing to trim: the output
    equals the marked, trimmed, embedded and trimmed again one, on machines
    of 1 to 4 states, the sizes `rr reduce ssharpup` is benchmarked at, and
    on machines whose live levels come from self-loops and cycles.  Every
    state of ℬ but pre0 is entered by some move of ℬ."""
    rng = random.Random(919)
    sizes = {"empty": 0, "nonempty": 0}
    build = lambda accepting, moves: Nfa.build(D2_ALPHABET, "q0", accepting, moves)
    hand_built = [
        # a climbing a1 loop and a climbing a2 loop, closed by falling loops
        build({"q1"}, {("q0", "a1", "q0"), ("q0", "a2", "q0"), ("q0", "abar2", "q1"),
                       ("q1", "abar1", "q1"), ("q1", "abar2", "q1")}),
        # climbing and falling loops on one state
        build({"q0"}, {("q0", "a1", "q0"), ("q0", "abar1", "q0")}),
        # a falling abar1 loop entered high, after a climbing two-state cycle
        build({"q2"}, {("q0", "a1", "q1"), ("q1", "a2", "q0"), ("q1", "", "q2"),
                       ("q2", "abar1", "q2")}),
        # epsilon self-loops next to a bracket loop
        build({"q1"}, {("q0", "", "q0"), ("q0", "a1", "q1"), ("q1", "", "q1"),
                       ("q1", "abar1", "q1"), ("q1", "a1", "q0")}),
        # q2 is reached only after climbing the loop, and leaves falling
        build({"q3"}, {("q0", "a1", "q0"), ("q0", "a2", "q1"), ("q1", "abar2", "q2"),
                       ("q2", "abar1", "q3"), ("q3", "abar1", "q3")}),
        # a climbing loop with no way back down: nothing is live
        build({"q1"}, {("q0", "a1", "q0"), ("q0", "a2", "q1")}),
    ]
    machines = hand_built + [
        random_nfa(rng, max_states=4, alphabet=D2_ALPHABET, allow_epsilon=k % 2 == 0)
        for k in range(60)
    ]
    for a in machines:
        expected = by_two_trims(a)
        b = reduce_d2_to_ssharpup(a)
        assert b == expected, a
        assert b.states == {t[2] for t in b.transitions} | {"pre0"}, a
        sizes["nonempty" if expected.accepting else "empty"] += 1
    assert min(sizes.values()) >= 1, sizes  # both branches ran


def test_live_band_matches_a_walk_over_pairs():
    """_live_band's masks hold exactly the live pairs that a plain walk
    over (state, level) pairs finds, on 1,500 seeded machines of 1 to 4
    states with epsilon moves, where two states in five carry an opening
    self-loop, a closing one or both; each at a random band top in 0..4
    and at height_bound(a)."""
    rng = random.Random(929)
    labels = D2_ALPHABET + ("",)
    loops = (("a1",), ("a2",), ("abar1",), ("abar2",), ("a1", "abar2"), ("a2", "abar1"))
    climbed = 0
    for _ in range(1500):
        states = [f"q{i}" for i in range(rng.randint(1, 4))]
        moves = {
            (src, rng.choice(labels), rng.choice(states))
            for src in states
            for _ in range(rng.randint(0, 3))
        }
        for q in states:
            if rng.random() < 0.4:
                moves.update((q, label, q) for label in rng.choice(loops))
        accepting = rng.sample(states, rng.randint(1, len(states)))
        a = Nfa.build(D2_ALPHABET, "q0", accepting, moves, states=states)
        for m in (rng.randint(0, 4), height_bound(a)):
            band = {
                q: {i for i in range(mask.bit_length()) if mask >> i & 1}
                for q, mask in _live_band(a, m).items()
            }
            assert band == live_band_by_pairs(a, m), (a, m)
            climbed += any(max(levels, default=0) > 1 for levels in band.values())
    assert climbed >= 800, climbed  # loops and cycles lift many bands past level 1


def test_reduction_reaches_the_top_of_the_band():
    """An a1 loop then an abar1 loop climbs to every level: (q0, m) is
    live, and (q1, m) is not, since reaching it takes m + 1 opens."""
    a = Nfa.build(
        D2_ALPHABET, "q0", {"q1"},
        {("q0", "a1", "q0"), ("q0", "abar1", "q1"), ("q1", "abar1", "q1")},
    )
    m = height_bound(a)
    b = reduce_d2_to_ssharpup(a)
    assert b == by_two_trims(a)
    assert f"(q0,{m})" in b.states and f"(q1,{m - 1})" in b.states
    assert f"(q1,{m})" not in b.states and f"(q0,{m + 1})" not in b.states
    assert ("(q0,0)", "abar1", "(q1,-1)") not in b.transitions
    assert not any(src == f"(q0,{m})" and label == "a" for src, label, _ in b.transitions)


def test_reduction_escapes_each_marked_name_for_the_middle_states():
    """ℬ of a machine with names that need escaping is ℬ of the same
    machine with plain names, renamed: a pair (q,i) keeps its name, and a
    middle state m[(q,i)|label|(p,j)]k holds each pair with backslash and
    bar escaped, escape(f"({q},{i})", "|")."""
    odd = ("q|\\1", "q,)2", "q3")
    middle = re.compile(r"m\[\((s\d),(\d+)\)\|(\w+)\|\((s\d),(\d+)\)\](\d)")
    pair = re.compile(r"\((s\d),(\d+)\)")
    rng = random.Random(922)
    checked = 0
    for k in range(20):
        a = random_nfa(rng, max_states=3, min_states=3, alphabet=D2_ALPHABET,
                       allow_epsilon=k % 2 == 0)
        plain = {q: f"s{q[1:]}" for q in a.states}
        named = {plain[q]: name for q, name in zip(sorted(a.states), odd)}

        def rename(state):
            if found := middle.fullmatch(state):
                q, i, label, p, j, step = found.groups()
                src = escape(f"({named[q]},{i})", "|")
                dst = escape(f"({named[p]},{j})", "|")
                return f"m[{src}|{label}|{dst}]{step}"
            if found := pair.fullmatch(state):
                return f"({named[found[1]]},{found[2]})"
            return state

        def relabel(mapping):
            return Nfa.build(
                D2_ALPHABET, mapping[a.initial], {mapping[q] for q in a.accepting},
                {(mapping[src], label, mapping[dst]) for src, label, dst in a.transitions},
            )

        b_plain = reduce_d2_to_ssharpup(relabel(plain))
        b_odd = reduce_d2_to_ssharpup(relabel({q: named[plain[q]] for q in a.states}))
        assert b_odd.states == {rename(q) for q in b_plain.states}
        assert b_odd.transitions == {
            (rename(src), label, rename(dst)) for src, label, dst in b_plain.transitions
        }
        checked += sum(1 for q in b_plain.states if middle.fullmatch(q))
    assert checked > 1000


def test_reduction_negative_empty():
    a = Nfa.build(D2_ALPHABET, "q0", {"q1"}, {("q0", "a1", "q1")})
    b = reduce_d2_to_ssharpup(a)
    assert b.shortest_witness() is None


def test_reduction_names_middle_states_injectively():
    # unescaped, the marked moves x -a1-> p and q -a1-> z from level 1 share
    # their middle state m[(x,1)|a1|(y,1)|a1|(z,2)]1, so ℬ crosses from x's
    # image into z and accepts the embedding of a2 a1 abar1 abar2, a
    # balanced word that a does not accept
    p, q = "y,1)|a1|(z", "x,1)|a1|(y"
    a = Nfa.build(
        D2_ALPHABET, "I", {"f"},
        {("I", "a2", "x"), ("I", "a1", q), ("x", "a1", p), (q, "a1", "z"),
         ("z", "abar1", "z2"), ("z2", "abar2", "f"), (p, "abar2", "P2"), ("P2", "abar1", "f")},
    )
    words = enumerate_accepted(a.transitions, a.initial, a.accepting, a.alphabet, 6)
    assert words and not any(dyck_oracle(2, w) for w in words)
    u = ssharpup_embedding(("a2", "a1", "abar1", "abar2"))
    assert s_sharp_up_member(u)
    assert not reduce_d2_to_ssharpup(a).accepts(u)
