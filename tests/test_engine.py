"""The decision engine: route dispatch, witnesses, substitution, the
rational index, and the instrumented certificate checker.

Cross-route agreement carries most of the weight: the grammar product and
the counter product decide the same one-pair bracket questions, and both
are compared against plain enumeration.
"""

import itertools
import math
import random
import tracemalloc

import pytest

from rrkit import (
    CheckerStats,
    CounterAutomaton,
    FilterSpec,
    InputError,
    Nfa,
    decide_substituted,
    intersection_shortest,
    log2_check,
    nrr_decide,
    parse_grammar,
    rational_index,
    substitution_collapse,
)
from rrkit import engine, reductions
from rrkit.counter import ACCEPT_MODES, GUARDS
from rrkit.errors import ContractError, UnsupportedFilterError
from rrkit.filters import d1_counter, dyck_grammar, parse_filter_name

from generators import (
    coprime_cycle_moves,
    coprime_cycle_nfa,
    dense_counter,
    random_cnf,
    random_counter,
    random_nfa,
)
from oracles import (
    RHO_ALLWORDS,
    RHO_DYCK1,
    enumerate_accepted,
    lsh_depth,
    rho_allwords,
    rho_dyck1,
    substituted_member,
    without_epsilon,
)


def pair_machine():
    return Nfa.build(
        ("a1", "abar1"),
        "q0",
        {"q2"},
        {("q0", "a1", "q1"), ("q1", "abar1", "q2")},
    )


def epsilon_free(a):
    """a's epsilon-free equivalent on the same states, by the oracle."""
    states, initial, accepting, transitions = without_epsilon(
        a.states, a.transitions, a.initial, a.accepting
    )
    return Nfa(frozenset(states), a.alphabet, initial, frozenset(accepting), frozenset(transitions))


def test_decide_grammar_route():
    report = nrr_decide(pair_machine(), FilterSpec.dyck(1))
    assert report.nonempty
    assert report.witness == ("a1", "abar1")
    assert report.method == "bar_hillel"
    assert report.stats["nonterminals_created"] > 0
    assert report.stats["shortest_witness_length"] == 2


def test_decide_counter_route():
    report = nrr_decide(pair_machine(), FilterSpec.from_counter(d1_counter()))
    assert report.nonempty
    assert report.witness == ("a1", "abar1")
    assert report.method == "counter"
    assert report.stats["states_created"] > 0


def test_counter_route_runs_on_the_dyck1_counter_machine(monkeypatch):
    machines = []
    product = CounterAutomaton.product

    def recording(self, a):
        machines.append(self)
        return product(self, a)

    monkeypatch.setattr(CounterAutomaton, "product", recording)
    for _ in range(2):
        report = nrr_decide(pair_machine(), FilterSpec.dyck(1), method="counter")
        assert report.witness == ("a1", "abar1")
    assert machines == [d1_counter(), d1_counter()]


def test_counter_route_rechecks_against_the_named_filter(monkeypatch):
    """The counter route on dyck1 finds its witness on d1_counter() and
    re-checks it with the dyck1 oracle the caller named, not with that
    machine."""
    monkeypatch.setattr("rrkit.filters.dyck_member", lambda n, word: False)
    with pytest.raises(RuntimeError, match="filter oracle"):
        nrr_decide(pair_machine(), FilterSpec.dyck(1), "counter")


# a dyck1 word that pair_machine() rejects
REJECTED = ("a1", "a1", "abar1", "abar1")


def test_grammar_route_rechecks_against_the_input_automaton(monkeypatch):
    """A witness the automaton rejects is an internal error, not a report."""
    monkeypatch.setattr(engine, "intersection_shortest", lambda g, a: REJECTED)
    with pytest.raises(RuntimeError, match="rejected by the input automaton"):
        nrr_decide(pair_machine(), FilterSpec.dyck(1))


def test_counter_route_rechecks_against_the_input_automaton(monkeypatch):
    monkeypatch.setattr(CounterAutomaton, "least_word", lambda self, cap: REJECTED)
    with pytest.raises(RuntimeError, match="rejected by the input automaton"):
        nrr_decide(pair_machine(), FilterSpec.dyck(1), method="counter")


def test_decide_empty():
    a = Nfa.build(("a1", "abar1"), "q0", {"q1"}, {("q0", "a1", "q1")})
    report = nrr_decide(a, FilterSpec.dyck(1))
    assert not report.nonempty
    assert report.witness is None
    assert "shortest_witness_length" not in report.stats


def test_decide_extends_missing_filter_letters():
    a = Nfa.build(("a1",), "q0", {"q0"}, {("q0", "a1", "q0")})
    report = nrr_decide(a, FilterSpec.dyck(1))
    assert report.nonempty and report.witness == ()


def test_decide_rejects_foreign_letters():
    a = Nfa.build(("z",), "q0", {"q0"}, set())
    with pytest.raises(InputError):
        nrr_decide(a, FilterSpec.dyck(1))
    # the message names the first foreign letter in the automaton's order,
    # against a small filter alphabet and a large one alike
    a = Nfa.build(("a1", "zz", "abar1", "yy"), "q0", {"q0"}, set())
    for f in (FilterSpec.dyck(1), parse_filter_name("dyckN:3000")):
        with pytest.raises(InputError) as err:
            nrr_decide(a, f)
        assert str(err.value) == "automaton symbol 'zz' is not in the filter alphabet"


def test_decide_rejects_reduction_only_filter():
    a = Nfa.build(("a",), "q0", {"q0"}, set())
    with pytest.raises(UnsupportedFilterError):
        nrr_decide(a, FilterSpec.s_sharp_up())


def test_decide_symmetric_filter():
    a = Nfa.build(
        ("x1", "xbar1"), "q0", {"q2"},
        {("q0", "x1", "q1"), ("q1", "xbar1", "q2")},
    )
    report = nrr_decide(a, FilterSpec.symmetric())
    assert report.witness == ("x1", "xbar1")


def test_routes_agree_on_random_machines():
    rng = random.Random(1311)
    grammar_filter = FilterSpec.dyck(1)
    counter_filter = FilterSpec.from_counter(d1_counter())
    for _ in range(30):
        a = random_nfa(rng, max_states=3, allow_epsilon=rng.random() < 0.5)
        via_grammar = nrr_decide(a, grammar_filter)
        via_counter = nrr_decide(a, counter_filter)
        assert via_grammar.nonempty == via_counter.nonempty, a
        if via_grammar.nonempty:
            assert len(via_grammar.witness) == len(via_counter.witness), a


def test_counter_route_matches_unfolding():
    """The counter route searches the unfolding without building it: its
    witness is the one the materialized unfolding gives, tie-break
    included, and states_created is that unfolding's size."""
    rng = random.Random(1313)
    counter_filter = FilterSpec.from_counter(d1_counter())
    grammar_filter = parse_filter_name("dyck1")
    sizes = [(2, 8)] * 320 + [(16, 24)] * 4
    for k, (low, high) in enumerate(sizes):
        a = random_nfa(rng, max_states=high, min_states=low, allow_epsilon=k % 2 == 0)
        report = nrr_decide(a, counter_filter)
        product = d1_counter().product(a)
        unfolded = product.to_nfa()
        assert report.witness == unfolded.shortest_witness(), a
        assert report.stats["states_created"] == len(product.states) + len(unfolded.states), a
        assert report.witness == nrr_decide(a, grammar_filter).witness, a


def test_routes_break_ties_alike_over_unsorted_alphabets():
    """Both routes of a counter filter return the least witness over the
    sorted letter names, whatever order the counter machine declares its
    alphabet in: the grammar route's order.  Seeded 2-3 state machines
    over ("b", "a") with dense moves, so that words often tie."""
    c = CounterAutomaton.build(
        ("b", "a"), "s", {"t"}, {("s", "a", "any", 0, "t"), ("s", "b", "any", 0, "t")},
        accept_mode="final_state_and_zero",
    )
    either = Nfa.build(("a", "b"), "p", {"r"}, {("p", "a", "r"), ("p", "b", "r")})
    for method in ("auto", "bar-hillel"):
        assert nrr_decide(either, FilterSpec.from_counter(c), method).witness == ("a",)
    rng = random.Random(1317)
    longer = 0
    for _ in range(150):
        f = FilterSpec.from_counter(dense_counter(rng, ("b", "a")))
        a = random_nfa(rng, max_states=3, alphabet=("b", "a"), allow_epsilon=rng.random() < 0.5)
        via_counter = nrr_decide(a, f)
        assert via_counter.witness == nrr_decide(a, f, "bar-hillel").witness, (f, a)
        longer += bool(via_counter.witness)
    assert longer > 30


def test_counter_route_names_pairs_injectively():
    """Counter states "s" and "s,t" with automaton states "t,u" and "u"
    would both name a pair "(s,t,u)": the initial pair and the accepting
    pair would merge into a product that accepts the empty word.  The
    collapse maps product states back to automaton states by name."""
    c = CounterAutomaton.build(("a",), "s", {"s,t"}, {("s", "a", "any", 0, "s,t")})
    a = Nfa.build(("a",), "t,u", {"u"}, {("t,u", "a", "t,u")})
    product = c.product(a)
    assert len(product.states) == len(c.states) * len(a.states) == 4
    report = nrr_decide(a, FilterSpec.from_counter(c))
    assert not report.nonempty and report.witness is None
    collapsed = substitution_collapse(a, {"x": FilterSpec.from_counter(c)})
    assert collapsed.transitions == {("t,u", "x", "t,u")}


# The coprime-cycle family (generators.coprime_cycle_moves, after Chrobak,
# TCS 1986): the least witness a1^(pq) abar1^(pq) climbs the counter to
# pq, past any cap linear in the 1 + p + q states.


@pytest.mark.parametrize("epsilon", [True, False])
@pytest.mark.parametrize("p, q", [(3, 4), (11, 12)])
def test_counter_route_reaches_a_quadratic_counter(p, q, epsilon):
    a = coprime_cycle_nfa(p, q, epsilon)
    word = ("a1",) * (p * q) + ("abar1",) * (p * q)
    assert nrr_decide(a, FilterSpec.dyck(1), "counter").witness == word
    assert nrr_decide(a, FilterSpec.dyck(1), "bar-hillel").witness == word


@pytest.mark.parametrize("epsilon", [True, False])
def test_counter_substituent_reaches_a_quadratic_counter(epsilon):
    # only a1^12 abar1^12 (or a longer word) takes q0 to the accepting q4
    a = coprime_cycle_nfa(3, 4, epsilon)
    by_counter = substitution_collapse(a, {"x": FilterSpec.from_counter(d1_counter())})
    assert ("q0", "x", "q4") in by_counter.transitions
    assert by_counter == substitution_collapse(a, {"x": FilterSpec.dyck(1)})


@pytest.mark.parametrize("p, q", [(3, 4), (4, 5), (5, 6)])
def test_lane_index_reaches_a_quadratic_counter(p, q):
    # one lane holding the epsilon-free machine, accepting in one state
    moves, accepting = coprime_cycle_moves(p, q, epsilon=False)
    n = 1 + p + q
    chunk = ([1] * len(moves), [int(state == accepting) for state in range(n)])
    g = FilterSpec.from_counter(d1_counter()).cnf_grammar
    assert engine._lane_index(g, tuple(moves), [chunk]) == 2 * p * q


@pytest.mark.parametrize("f", [FilterSpec.dyck(1), FilterSpec.from_counter(d1_counter())])
@pytest.mark.parametrize("p, q", [(3, 4), (4, 5)])
def test_lane_index_keeps_a_long_lane_after_its_neighbours_close(f, p, q):
    # lane 0 holds the coprime-cycle machine; lanes 1 and 2 add a short
    # cut from the first cycle state into the second cycle, lane 1 to the
    # first a1 move alone, lane 2 to the whole machine.  Both accept where
    # the cut ends, close with a1 abar1 at length 2, and stop there while
    # lane 0 climbs on
    moves, accepting = coprime_cycle_moves(p, q, epsilon=False)
    edges = (*moves, (2, "abar1", p + 2))
    lanes = [0b101 | (0b010 if k == 0 else 0) for k in range(len(moves))] + [0b110]
    goals = [0] * (1 + p + q)
    goals[accepting] = 0b001
    goals[p + 2] = 0b110
    assert engine._lane_index(f.cnf_grammar, edges, [(lanes, goals)]) == 2 * p * q
    assert engine._lane_index(f.cnf_grammar, edges, [(lanes, [g & 0b110 for g in goals])]) == 2


def test_decide_methods():
    """nrr_decide selects the route: an explicit route agrees with auto,
    log2 reports log2_check's figures, a counter filter takes the grammar
    routes on its machine's grammar with the verdict and witness of
    dyck1, and a route the filter lacks is an InputError."""
    rng = random.Random(1317)  # draws empty and nonempty instances, witnesses of length 0 to 6
    dyck1 = FilterSpec.dyck(1)
    counter_filter = FilterSpec.from_counter(d1_counter())
    g = d1_cnf()
    for k in range(12):
        a = random_nfa(rng, max_states=5, min_states=3, allow_epsilon=k % 2 == 0)
        auto = nrr_decide(a, dyck1)
        assert nrr_decide(a, dyck1, "bar-hillel") == auto, a
        counter = nrr_decide(a, dyck1, "counter")
        assert counter.method == "counter" and counter.witness == auto.witness, a
        assert nrr_decide(a, counter_filter, "counter") == nrr_decide(a, counter_filter), a
        grammar_route = nrr_decide(a, counter_filter, "bar-hillel")
        assert (grammar_route.nonempty, grammar_route.witness) == (auto.nonempty, auto.witness), a
        counter_log2 = nrr_decide(a, counter_filter, "log2")
        assert (counter_log2.method, counter_log2.nonempty) == ("log2", auto.nonempty), a
        log2 = nrr_decide(a, dyck1, "log2")
        assert (log2.method, log2.nonempty, log2.witness) == ("log2", auto.nonempty, None), a
        assert log2.stats == log2_check(g, epsilon_free(a)).to_dict(), a
        assert "witness" not in log2.to_dict()

    sym = Nfa.build(("x1", "xbar1"), "q0", {"q0"}, set())
    with pytest.raises(InputError, match="no counter realization .*'symmetric'; only dyck1"):
        nrr_decide(sym, FilterSpec.symmetric(), "counter")
    with pytest.raises(InputError, match="no counter realization .* 2 bracket pairs; only dyck1"):
        nrr_decide(pair_machine(), FilterSpec.dyck(2), "counter")
    with pytest.raises(InputError, match="unknown method"):
        nrr_decide(pair_machine(), dyck1, "bogus")


def test_decide_against_enumeration():
    rng = random.Random(1312)
    f = FilterSpec.dyck(1)
    for _ in range(30):
        a = random_nfa(rng, max_states=3, allow_epsilon=rng.random() < 0.5)
        report = nrr_decide(a, f)
        accepted = enumerate_accepted(a.transitions, a.initial, a.accepting, a.alphabet, 8)
        brute = [w for w in accepted if f.contains(w)]
        if report.nonempty:
            assert brute == [] or len(brute[0]) == len(report.witness)
        else:
            assert brute == []


# -- substitution ----------------------------------------------------------------


def runs_grammar(letter):
    return FilterSpec.from_grammar(
        parse_grammar(f"T -> {letter} | {letter} T")
    )


def test_substitution_collapse_edges():
    # x1-runs substitute the open bracket, x2-runs the close bracket
    a = Nfa.build(
        ("x1", "x2"),
        "q0",
        {"q2"},
        {("q0", "x1", "q1"), ("q1", "x1", "q1"), ("q1", "x2", "q2")},
    )
    sub = {"a1": runs_grammar("x1"), "abar1": runs_grammar("x2")}
    collapsed = substitution_collapse(a, sub)
    assert collapsed.alphabet == ("a1", "abar1")
    assert ("q0", "a1", "q1") in collapsed.transitions
    assert ("q1", "abar1", "q2") in collapsed.transitions
    assert ("q0", "abar1", "q1") not in collapsed.transitions


def test_decide_substituted_positive():
    a = Nfa.build(
        ("x1", "x2"),
        "q0",
        {"q2"},
        {("q0", "x1", "q1"), ("q1", "x1", "q1"), ("q1", "x2", "q2")},
    )
    sub = {"a1": runs_grammar("x1"), "abar1": runs_grammar("x2")}
    report = decide_substituted(a, FilterSpec.dyck(1), sub)
    assert report.nonempty
    assert report.method == "substitution"
    assert report.witness == ("a1", "abar1")
    assert report.stats["states_created"] >= len(a.states)


def test_decide_substituted_missing_letter():
    a = Nfa.build(("x1",), "q0", {"q0"}, set())
    with pytest.raises(InputError):
        decide_substituted(a, FilterSpec.dyck(1), {"a1": runs_grammar("x1")})


def test_decide_substituted_foreign_letter():
    # "zz" is not an outer letter: rejected by name before any collapsing
    a = Nfa.build(("x1", "x2"), "q0", {"q0"}, set())
    sub = {"a1": FilterSpec.symmetric(), "abar1": FilterSpec.symmetric(),
           "zz": FilterSpec.symmetric()}
    with pytest.raises(InputError, match="substituted letter 'zz'"):
        decide_substituted(a, FilterSpec.dyck(1), sub)
    # with two foreign letters, the first in sorted order is named
    sub["yy"] = FilterSpec.symmetric()
    with pytest.raises(InputError) as err:
        decide_substituted(a, FilterSpec.dyck(1), sub)
    assert str(err.value) == "substituted letter 'yy' is not in the outer filter alphabet"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="the collapse drops the outer epsilon moves")
def test_decide_substituted_keeps_the_empty_outer_word():
    """The outer automaton accepts only the empty word, through an
    epsilon move, and the empty word is in dyck1, so the least witness is
    ().  substitution_collapse keeps none of the outer epsilon moves, so
    the report is empty; the same language with q0 accepting reports ().
    Mending it changes five recorded answers of the index workload, whose
    per-pair oracle _per_pair_collapse has the same gap."""
    x = FilterSpec.from_grammar(parse_grammar("S -> x"))
    a = Nfa.build(("x",), "q0", {"q1"}, {("q0", "", "q1")})
    report = decide_substituted(a, parse_filter_name("dyck1"), {"a1": x, "abar1": x})
    assert report.nonempty and report.witness == ()


def _per_pair_collapse(a, sub):
    """The collapse decided one state pair and substituent at a time, on a
    run from q that accepts only at p."""
    outer = tuple(sorted(sub))
    between = lambda q, p: Nfa(a.states, a.alphabet, q, frozenset({p}), a.transitions)
    transitions = {
        (q, x, p)
        for q in a.states
        for p in a.states
        for x in outer
        if nrr_decide(engine._restrict(between(q, p), sub[x].alphabet), sub[x]).nonempty
    }
    return Nfa(a.states, outer, a.initial, a.accepting, frozenset(transitions))


def test_substitution_collapse_matches_per_pair_decisions():
    rng = random.Random(1212)
    inner = ("a1", "abar1", "x1", "x2", "xbar1", "xbar2")
    fixed = {
        "c1": FilterSpec.dyck(1),
        "c2": FilterSpec.symmetric(),
        "c3": runs_grammar("x1"),
        # the axiom's epsilon rule gives an edge for every epsilon path
        "c4": FilterSpec.from_grammar(parse_grammar("S -> | x1 S xbar1 | x2")),
        "c5": FilterSpec.from_counter(d1_counter()),
        "c7": FilterSpec.dyck(1),  # shares c1's substituent
    }
    edges = 0
    for i in range(60):
        a = random_nfa(rng, max_states=4, alphabet=inner, allow_epsilon=i % 2 == 1)
        counter = random_counter(rng, alphabet=("a1", "abar1", "x1"))
        sub = {**fixed, "c6": FilterSpec.from_counter(counter)}
        collapsed = substitution_collapse(a, sub)
        assert collapsed == _per_pair_collapse(a, sub), (a, counter)
        edges += len(collapsed.transitions)
    assert edges > 1000


@pytest.mark.parametrize("eps", (False, True))
@pytest.mark.parametrize("alphabet", (
    ("xbar2", "x1", "abar1", "xbar1", "a1", "x2"),  # declared in another order
    ("a1", "abar1", "x1", "xbar1", "xbar2"),  # no x2, a letter of sym and c4
    ("a1", "abar1", "x1", "x2", "xbar1", "xbar2", "zz"),  # zz: no substituent's
))
def test_substitution_collapse_restricts_once(alphabet, eps, monkeypatch):
    """One restriction to the union of the substituents' alphabets serves
    every substituent, whatever letters the automaton declares."""
    rng = random.Random(1414)
    sub = {
        "c1": FilterSpec.dyck(1),
        "c2": FilterSpec.symmetric(),
        "c3": runs_grammar("x1"),
        "c4": FilterSpec.from_grammar(parse_grammar("S -> | x1 S xbar1 | x2")),
        "c5": FilterSpec.from_counter(d1_counter()),
    }
    restrict, calls = engine._restrict, []

    def counted(a, letters):
        calls.append(letters)
        return restrict(a, letters)

    monkeypatch.setattr(engine, "_restrict", counted)
    for _ in range(8):
        a = random_nfa(rng, max_states=4, alphabet=alphabet, allow_epsilon=eps)
        calls.clear()
        collapsed = substitution_collapse(a, sub)
        assert len(calls) == 1
        assert collapsed == _per_pair_collapse(a, sub), a


def test_substitution_collapse_rejects_reduction_only_substituent():
    a = Nfa.build(("a", "abar"), "q0", {"q0"}, {("q0", "a", "q0")})
    sub = {"a1": FilterSpec.dyck(1), "abar1": FilterSpec.s_sharp_up()}
    with pytest.raises(UnsupportedFilterError, match="reduction target only"):
        substitution_collapse(a, sub)


def test_substitution_collapse_rechecks_every_word(monkeypatch):
    a = Nfa.build(("x1",), "q0", {"q1"}, {("q0", "x1", "q1")})
    monkeypatch.setattr(FilterSpec, "contains", lambda self, w: False)
    with pytest.raises(RuntimeError, match="filter oracle"):
        substitution_collapse(a, {"a1": runs_grammar("x1")})


def test_substitution_collapse_rechecks_every_path(monkeypatch):
    a = Nfa.build(("x1",), "q0", {"q1"}, {("q0", "x1", "q1")})
    monkeypatch.setattr(Nfa, "step", lambda self, states, symbol: frozenset())
    for substituent in (runs_grammar("x1"), FilterSpec.from_counter(
        CounterAutomaton.build(("x1",), "s", {"t"}, {("s", "x1", "any", 0, "t")})
    )):
        with pytest.raises(RuntimeError, match="input automaton"):
            substitution_collapse(a, {"a1": substituent})


def test_decide_substituted_against_enumeration():
    rng = random.Random(1313)
    outer = FilterSpec.dyck(1)
    sub = {"a1": runs_grammar("x1"), "abar1": runs_grammar("x2")}
    outer_words = [
        v
        for n in range(0, 9)
        for v in itertools.product(("a1", "abar1"), repeat=n)
        if outer.contains(v)
    ]
    def seg(letter, segment):
        f = sub[letter]
        return (
            bool(segment)
            and all(sym in f.alphabet for sym in segment)
            and f.contains(segment)
        )
    for _ in range(15):
        a = random_nfa(rng, max_states=3, alphabet=("x1", "x2"),
                       allow_epsilon=rng.random() < 0.4)
        report = decide_substituted(a, outer, sub)
        brute = any(
            substituted_member(w, outer_words, seg)
            for w in enumerate_accepted(a.transitions, a.initial, a.accepting, a.alphabet, 8)
        )
        assert report.nonempty == brute, a


# -- rational index ---------------------------------------------------------------


def test_rational_index_dyck1_small():
    f = FilterSpec.dyck(1)
    assert rational_index(f, 1) == rho_dyck1(1) == RHO_DYCK1[1]
    assert rational_index(f, 2) == rho_dyck1(2) == RHO_DYCK1[2]


def test_rational_index_allwords_small():
    f = FilterSpec.from_grammar(parse_grammar("T -> a T |"))
    assert rational_index(f, 1) == rho_allwords(1) == RHO_ALLWORDS[1]
    assert rational_index(f, 2) == rho_allwords(2) == RHO_ALLWORDS[2]
    assert rational_index(f, 3) == RHO_ALLWORDS[3]


def test_rational_index_limits():
    f = FilterSpec.dyck(1)
    with pytest.raises(InputError):
        rational_index(f, 4)
    with pytest.raises(InputError):
        rational_index(f, 0)
    # four letters at three states is past the enumeration budget
    with pytest.raises(InputError):
        rational_index(FilterSpec.symmetric(), 3)


def test_rational_index_rejects_large_machines_before_building_them():
    # n=1000 has two million possible moves; building them just to refuse
    # took 183 MB, so the limits must be checked first
    f = FilterSpec.dyck(1)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="limited to 3 states"):
            rational_index(f, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rational_index_sample_mode_rejects_large_machines_before_building_them():
    # n=3000 has 18 million possible moves, about 1.7 GB to build
    f = FilterSpec.dyck(1)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="sample mode is limited"):
            rational_index(f, 3000, sample=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 70 states of two letters is 9,800 possible moves, inside the limit
    assert rational_index(f, 70, sample=1) >= 0


@pytest.mark.parametrize("count", [0, -5])
def test_rational_index_refuses_an_empty_sample(count):
    # an empty sample says nothing of the index, which is defined for dyck1
    with pytest.raises(InputError, match=f"sample count of at least 1, got {count}$"):
        rational_index(FilterSpec.dyck(1), 2, sample=count)


def test_rational_index_undefined_when_no_machine_qualifies():
    empty_language = FilterSpec.from_grammar(parse_grammar("T -> T a"))
    with pytest.raises(InputError, match="^no 2-state machine meets the filter; the index is undefined$"):
        rational_index(empty_language, 2)


def test_rational_index_sampling_is_seeded_and_bounded():
    f = FilterSpec.dyck(1)
    one = rational_index(f, 2, sample=60, seed=5)
    two = rational_index(f, 2, sample=60, seed=5)
    assert one == two
    assert one <= rational_index(f, 2)


def test_rational_index_two_pair_filters():
    assert rational_index(FilterSpec.symmetric(), 2) == rational_index(FilterSpec.dyck(2), 2) == 4


def test_rational_index_symmetric_sharp():
    # five letters at two states: 20 moves, so 64 chunks of lanes
    assert rational_index(FilterSpec.symmetric_sharp(), 2) == 6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rational_index_counter_filter_matches_grammar_filter(n):
    # the counter filter closes its lanes over the triples of its
    # machine's grammar (CounterAutomaton.to_cfg), the grammar filter over
    # those of the bracket grammar
    counter = FilterSpec.from_counter(d1_counter())
    assert rational_index(counter, n) == rational_index(FilterSpec.dyck(1), n) == RHO_DYCK1[n]


def _longest_witness(f, n, machines):
    """Greatest shortest-witness length over machines, (move set,
    accepting state) pairs with initial state 0, each decided by
    nrr_decide; None when none meets the filter."""
    states = {str(i) for i in range(n)}
    best = None
    for subset, acc in machines:
        moves = {(str(i), sym, str(j)) for i, sym, j in subset}
        machine = Nfa.build(f.alphabet, "0", {str(acc)}, moves, states=states)
        witness = nrr_decide(machine, f).witness
        if witness is not None and (best is None or len(witness) > best):
            best = len(witness)
    return best


def _moves(f, n):
    return [(i, sym, j) for i in range(n) for sym in f.alphabet for j in range(n)]


def _every_machine_max(f, n):
    """Reference without pruning or symmetry: every move set and every
    accepting state."""
    edges = _moves(f, n)
    return _longest_witness(f, n, (
        ({e for k, e in enumerate(edges) if mask >> k & 1}, acc)
        for mask in range(1 << len(edges))
        for acc in range(n)
    ))


def _every_draw_max(f, n, count, seed):
    """Reference for sample mode: count seeded draws, each move kept with
    probability 0.3 in move order, then a uniform accepting state."""
    rng = random.Random(seed)
    edges = _moves(f, n)

    def draws():
        for _ in range(count):
            subset = {e for e in edges if rng.random() < 0.3}
            yield subset, rng.randrange(n)

    return _longest_witness(f, n, draws())


def _assert_index(f, n, expected, **kwargs):
    """rational_index equals expected, or reports the index undefined
    when expected is None."""
    if expected is None:
        with pytest.raises(InputError, match="undefined"):
            rational_index(f, n, **kwargs)
    else:
        assert rational_index(f, n, **kwargs) == expected, (f, n, kwargs)


def _counter_filters(rng, count, alphabet):
    """Seeded counter filters, most of two states, with one to three
    moves per state pair.  A two-state filter accepts only in its second
    state, so that its witnesses are rarely trivial."""
    filters = []
    for _ in range(count):
        states = ("q0", "q1")[: 1 + (rng.random() < 0.75)]
        moves = {
            (src, rng.choice(alphabet + ("",)), rng.choice(GUARDS), rng.choice((-1, 0, 1)), dst)
            for src in states
            for dst in states
            for _ in range(rng.randint(1, 3))
        }
        c = CounterAutomaton.build(
            alphabet, "q0", {states[-1]}, moves, accept_mode=rng.choice(ACCEPT_MODES)
        )
        filters.append(FilterSpec.from_counter(c))
    return filters


def _assert_counter_coverage(filters):
    moves = [move for f in filters for move in f.automaton.transitions]
    assert {guard for _, _, guard, _, _ in moves} == {"any", "zero", "positive"}
    assert any(read == "" for _, read, _, _, _ in moves)
    assert {f.automaton.accept_mode for f in filters} == {"final_state", "final_state_and_zero"}


EVERY_MACHINE_CASES = [
    (("a",), 1), (("a",), 2), (("a",), 3), (("a1", "abar1"), 1), (("a1", "abar1"), 2), (("a", "b"), 2),
]


def _seeded_filters(terminals, n):
    """Six grammar filters, then three counter filters, seeded by the case."""
    rng = random.Random(f"{terminals}{n}")
    grammars = [FilterSpec.from_grammar(random_cnf(rng, terminals=terminals)) for _ in range(6)]
    return grammars + _counter_filters(rng, 3, terminals)


@pytest.mark.parametrize("terminals, n", EVERY_MACHINE_CASES)
def test_rational_index_matches_every_machine(terminals, n):
    # random grammars are often empty or trivial, so the "undefined" error
    # is compared too; one letter at three states exercises the symmetry
    for f in _seeded_filters(terminals, n):
        _assert_index(f, n, _every_machine_max(f, n))


def test_every_machine_cases_cover_counter_features():
    _assert_counter_coverage(
        [f for case in EVERY_MACHINE_CASES for f in _seeded_filters(*case) if f.kind == "counter"]
    )


@pytest.mark.parametrize("terminals, n", EVERY_MACHINE_CASES)
def test_rational_index_matches_every_machine_in_narrow_chunks(monkeypatch, terminals, n):
    # four lanes per chunk, so up to 128 chunks, each closed on its own
    monkeypatch.setattr(engine, "_LANE_BITS", 2)
    test_rational_index_matches_every_machine(terminals, n)


# Languages whose worst machine needs the last move (so the top move bit
# of every chunk), or whose least lengths skip a value (1, 2, 4, 8 for
# a^8), or in which two rules other than the axiom's share both children
# (X and Y, one group of two parents; the index is 3 at one state from
# aba, through Y, and 4 at two from abbb, through X), pinned at the
# default chunk width and at one lane bit.
PINNED_GRAMMARS = [
    "S -> a b",
    "S -> b A | a\nA -> b | a A",
    "S -> A A\nA -> B B\nB -> C C\nC -> a",
    "S -> X C | Y A\nX -> A B\nY -> A B\nC -> B B\nA -> a\nB -> b",
]


@pytest.mark.parametrize("lane_bits", [14, 1])
@pytest.mark.parametrize("text", PINNED_GRAMMARS)
def test_rational_index_pinned_grammars(monkeypatch, text, lane_bits):
    monkeypatch.setattr(engine, "_LANE_BITS", lane_bits)
    f = FilterSpec.from_grammar(parse_grammar(text))
    for n in (1, 2):
        assert rational_index(f, n) == _every_machine_max(f, n), (text, n)


def test_rational_index_builds_axiom_triples_from_state_0_only():
    # S -> a | b: in many machines (1, S, p) is derivable at length 1,
    # before any (0, S, p); the lanes build and count only the latter
    f = FilterSpec.from_grammar(parse_grammar("S -> a | b | A A\nA -> b A | a"))
    assert rational_index(f, 2) == _every_machine_max(f, 2) == 4


@pytest.mark.parametrize("lane_bits", [14, 1])
def test_rational_index_sample_mode_matches_every_draw(monkeypatch, lane_bits):
    # at one lane bit two draws share a chunk, and an odd count leaves the
    # last chunk half full
    monkeypatch.setattr(engine, "_LANE_BITS", lane_bits)
    rng = random.Random(31)
    filters = [parse_filter_name(name) for name in ("dyck1", "sym", "symsharp")]
    filters.append(FilterSpec.from_counter(d1_counter()))
    filters += [FilterSpec.from_grammar(random_cnf(rng)) for _ in range(4)]
    counters = _counter_filters(rng, 6, ("a1", "abar1"))
    _assert_counter_coverage(counters)
    for k, f in enumerate(filters + counters):
        n, count, seed = 2 + k % 3, 25 + k % 2, k
        expected = _every_draw_max(f, n, count, seed)
        _assert_index(f, n, expected, sample=count, seed=seed)


# Sample-mode values for fixed seeds, which fix the draws (see
# _every_draw_max).
SAMPLED = {
    ("dyck1", 2, 1): 4, ("dyck1", 2, 5): 2, ("dyck1", 3, 1): 6, ("dyck1", 3, 5): 4,
    ("sym", 2, 1): 4, ("sym", 2, 5): 4, ("sym", 3, 1): 4, ("sym", 3, 5): 6,
    ("dyck2", 2, 1): 4, ("dyck2", 2, 5): 4, ("dyck2", 3, 1): 8, ("dyck2", 3, 5): 6,
}


@pytest.mark.parametrize("name, n, seed", sorted(SAMPLED))
def test_rational_index_sample_values(name, n, seed):
    f = parse_filter_name(name)
    assert rational_index(f, n, sample=60, seed=seed) == SAMPLED[name, n, seed]


# rational_index(f, 3, sample=6, seed=seed) for seeds 0-9, the shape of the
# benchmark's index/sample requests: sample mode draws each lane's moves
# in move order, so these fix the draws as well as the values.
SAMPLED_AT_3 = {
    "sym": (0, 4, 8, 4, 2, 6, 2, 2, 2, 2),
    "dyck2": (4, 4, 6, 4, 2, 6, 2, 2, 2, 2),
    "symsharp": (0, 2, 4, 4, 2, 3, 3, 2, 3, 3),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_AT_3))
def test_rational_index_sample_draws_at_three_states(name):
    f = parse_filter_name(name)
    values = tuple(rational_index(f, 3, sample=6, seed=seed) for seed in range(10))
    assert values == SAMPLED_AT_3[name]


def _swapped(move):
    """move with states 1 and 2 exchanged."""
    i, sym, j = move
    rename = {1: 2, 2: 1}
    return rename.get(i, i), sym, rename.get(j, j)


def _closed_chunks(monkeypatch, f, n):
    """The move order and the chunks that exhaustive rational_index(f, n)
    hands to _lane_index."""
    seen = {}

    def record(g, edges, chunks):
        seen["edges"], seen["chunks"] = edges, list(chunks)
        return 0

    monkeypatch.setattr(engine, "_lane_index", record)
    rational_index(f, n)
    return seen["edges"], seen["chunks"]


@pytest.mark.parametrize("lane_bits", [1, 2, 14])
@pytest.mark.parametrize("text", ["S -> a", "S -> a | b"])
def test_exhaustive_chunks_skip_only_swapped_copies(monkeypatch, text, lane_bits):
    # A chunk holds the machines (S | X, p): S its set of top moves, X any
    # set of its W low moves, p any state.  When swapping states 1 and 2
    # maps the low moves onto themselves, it maps those machines onto the
    # machines of the chunk with top moves swapped(S).  So every skipped
    # chunk must be the swapped image of a closed one, and no two closed
    # chunks may be images of each other.
    monkeypatch.setattr(engine, "_LANE_BITS", lane_bits)
    f = FilterSpec.from_grammar(parse_grammar(text))
    for n in (1, 2, 3):
        edges, chunks = _closed_chunks(monkeypatch, f, n)
        assert sorted(edges) == sorted(_moves(f, n))
        width = min(len(edges), lane_bits)
        low, high = edges[:width], edges[width:]
        full = (1 << (1 << width)) - 1
        low_lanes = chunks[0][0][:width]
        assert {tuple(bits >> b & 1 for bits in low_lanes) for b in range(1 << width)} == set(
            itertools.product((0, 1), repeat=width)
        )
        closed = set()
        for lanes, goals in chunks:
            assert lanes[:width] == low_lanes and goals == [full] * n
            assert all(bits in (0, full) for bits in lanes[width:])
            closed.add(frozenset(e for e, bits in zip(high, lanes[width:]) if bits))
        assert len(closed) == len(chunks)
        if n < 3:
            assert len(closed) == 1 << len(high)
            continue
        swap = {e: _swapped(e) for e in edges}
        assert {swap[e] for e in low} == set(low)
        image = {top: frozenset(map(swap.get, top)) for top in closed}
        images = set(image.values())
        assert len(closed | images) == 1 << len(high)
        assert all(image[top] == top for top in closed & images)


def test_rational_index_closes_ten_of_sixteen_dyck1_chunks(monkeypatch):
    # 18 moves at three states, 14 in a chunk: two swapped pairs on the 4
    # chunk bits, so 10 chunks, one per image pair or fixed chunk
    closed = []
    lane_index = engine._lane_index

    def counting(g, edges, chunks):
        return lane_index(g, edges, (closed.append(chunk) or chunk for chunk in chunks))

    monkeypatch.setattr(engine, "_lane_index", counting)
    assert rational_index(FilterSpec.dyck(1), 3) == RHO_DYCK1[3]
    assert len(closed) == 10


# -- certificate checker -----------------------------------------------------------


def d1_cnf():
    return dyck_grammar(1).cnf()


def path_nfa(word, alphabet=("a1", "abar1")):
    return Nfa.build(
        alphabet,
        "p0",
        {f"p{len(word)}"},
        {(f"p{i}", sym, f"p{i + 1}") for i, sym in enumerate(word)},
    )


def test_log2_check_positive_path():
    stats = log2_check(d1_cnf(), path_nfa(("a1", "abar1")))
    assert stats.result
    assert stats.max_recursion_depth >= 1
    assert stats.max_live_triples <= stats.max_recursion_depth + 1


def test_log2_check_negative_path():
    stats = log2_check(d1_cnf(), path_nfa(("abar1", "a1")))
    assert stats == CheckerStats(0, 0, False)


def test_log2_check_epsilon_case():
    a = Nfa.build(("a1", "abar1"), "q0", {"q0"}, set())
    assert log2_check(d1_cnf(), a) == CheckerStats(0, 0, True)


def test_log2_check_input_validation():
    with pytest.raises(ContractError):
        log2_check(parse_grammar("S -> a1 S abar1 |"), path_nfa(()))
    with pytest.raises(InputError):
        log2_check(d1_cnf(), Nfa.build(("a1",), "q0", {"q0"}, set()))


def test_log2_check_absorbs_epsilon_moves():
    """Epsilon moves change neither the verdict nor the figures: the
    checker gives the same stats on an automaton and on its epsilon-free
    equivalent, over grammar filters and random CNF grammars."""
    rng = random.Random(1414)
    grammars = [(parse_filter_name(name).cnf_grammar, parse_filter_name(name).alphabet)
                for name in ("dyck1", "dyck2", "sym")]
    depths = set()
    for k in range(800):
        g, alphabet = grammars[k % 4] if k % 4 < 3 else (random_cnf(rng), ("a1", "abar1"))
        a = random_nfa(rng, max_states=5, alphabet=alphabet, allow_epsilon=True)
        if not any(label == "" for _, label, _ in a.transitions):
            continue
        stats = log2_check(g, a)
        assert stats == log2_check(g, epsilon_free(a)), (g, a)
        depths.add(stats.max_recursion_depth)
    # no tree (depth 0), one letter (1) and composite certificates all occur
    assert {0, 1, 2, 3} <= depths


def test_empty_word_through_an_epsilon_path():
    # q0 reaches the accepting q2 only through two epsilon moves, and no
    # nonempty bracket word leads anywhere (there is no closing move)
    a = Nfa.build(
        ("a1", "abar1"), "q0", {"q2"},
        {("q0", "", "q1"), ("q1", "", "q2"), ("q2", "a1", "q0")},
    )
    g = d1_cnf()
    assert intersection_shortest(g, a) == ()
    assert log2_check(g, a) == CheckerStats(0, 0, True)
    closure = {("q0", "q0"), ("q0", "q1"), ("q0", "q2"), ("q1", "q1"), ("q1", "q2"), ("q2", "q2")}
    assert engine._grammar_edges(g, a) == {pair: () for pair in closure}


def unreached_machine():
    """A machine whose one accepting state, q2, no run from q0 reaches,
    though runs from q2 read dyck1 words."""
    return Nfa.build(
        ("a1", "abar1"), "q0", {"q2"},
        {("q0", "a1", "q1"), ("q1", "abar1", "q0"), ("q2", "a1", "q2"), ("q2", "abar1", "q0")},
    )


def forbid_closure(monkeypatch):
    """Make the triple closure raise once it is started; _settle is a
    generator, so like the real one it runs only when first read."""
    def started(table, a):
        raise AssertionError("the triple closure started")
        yield

    monkeypatch.setattr(reductions, "_settle", started)


def record_closures(monkeypatch):
    """The alphabets of the automata the triple closure starts on, in
    order, recorded as each closure is first read."""
    alphabets = []
    settle = reductions._settle

    def recorded(table, a):
        alphabets.append(a.alphabet)
        yield from settle(table, a)

    monkeypatch.setattr(reductions, "_settle", recorded)
    return alphabets


def test_no_reachable_accepting_state_starts_no_closure(monkeypatch):
    forbid_closure(monkeypatch)
    a = unreached_machine()
    assert intersection_shortest(d1_cnf(), a) is None
    assert log2_check(d1_cnf(), a) == CheckerStats(0, 0, False)
    assert nrr_decide(a, FilterSpec.dyck(1), method="bar-hillel").witness is None
    # the checks still come first
    with pytest.raises(ContractError):
        intersection_shortest(parse_grammar("S -> a1 S abar1 |"), a)
    with pytest.raises(ContractError):
        log2_check(parse_grammar("S -> a1 S abar1 |"), a)
    narrow = Nfa.build(("a1",), "q0", {"q2"}, {("q0", "a1", "q1")}, states={"q2"})
    with pytest.raises(InputError, match="missing from the automaton alphabet"):
        intersection_shortest(d1_cnf(), narrow)
    with pytest.raises(InputError, match="missing from the automaton alphabet"):
        log2_check(d1_cnf(), narrow)


def test_decide_substituted_skips_the_closure_of_an_unreached_collapse(monkeypatch):
    # the collapse reads a1 on x1-runs and abar1 on x2-runs; its accepting
    # state q2 has moves out but none in
    a = Nfa.build(
        ("x1", "x2"), "q0", {"q2"},
        {("q0", "x1", "q1"), ("q1", "x2", "q0"), ("q2", "x1", "q2"), ("q2", "x2", "q0")},
    )
    sub = {"a1": runs_grammar("x1"), "abar1": runs_grammar("x2")}
    alphabets = record_closures(monkeypatch)
    report = decide_substituted(a, FilterSpec.dyck(1), sub)
    assert report == engine.DecisionReport(
        False, None, "substitution", {"nonterminals_created": 46, "states_created": 3}
    )
    # one closure per substituent over the input, none over the collapse
    assert alphabets == [("x1", "x2"), ("x1", "x2")]


def test_an_accepting_state_reached_by_epsilon_runs_the_closure(monkeypatch):
    # q1 is reached only through the epsilon move; q3 not at all
    a = Nfa.build(
        ("a1", "abar1"), "q0", {"q1", "q3"},
        {("q0", "", "q1"), ("q1", "a1", "q2"), ("q3", "abar1", "q0")},
    )
    alphabets = record_closures(monkeypatch)
    assert intersection_shortest(d1_cnf(), a) == ()
    assert log2_check(d1_cnf(), a) == CheckerStats(0, 0, True)
    assert alphabets == [("a1", "abar1")] * 2


def test_grammar_edges_ignore_the_goals():
    # every pair with a dyck1 word gets its edge, from the unreached q2 too
    a = unreached_machine()
    g = d1_cnf()
    between = lambda q, p: Nfa(a.states, a.alphabet, q, frozenset({p}), a.transitions)
    expected = {
        (q, p): word
        for q in sorted(a.states)
        for p in sorted(a.states)
        if (word := intersection_shortest(g, between(q, p))) is not None
    }
    assert expected[("q2", "q2")] == () and expected[("q2", "q0")] == ("a1", "abar1")
    assert engine._grammar_edges(g, a) == expected


def test_log2_check_agrees_with_engine():
    rng = random.Random(1314)
    for _ in range(25):
        g = random_cnf(rng)
        a = random_nfa(rng, max_states=3)
        f = FilterSpec.from_grammar(g)
        report = nrr_decide(a, f)
        stats = log2_check(g, a)
        assert stats.result == report.nonempty, (g, a)
        assert stats.max_live_triples <= stats.max_recursion_depth + 1
        if report.nonempty:
            length = max(report.stats["shortest_witness_length"], 1)
            bound = math.ceil(math.log(length, 1.5)) + 2 if length > 1 else 2
            assert stats.max_recursion_depth <= bound, (g, a)


def test_log2_check_depth_grows_slowly():
    # a long forced witness: brackets nested ten deep
    word = ("a1",) * 10 + ("abar1",) * 10
    stats = log2_check(d1_cnf(), path_nfa(word))
    assert stats.result
    assert stats.max_recursion_depth <= math.ceil(math.log(20, 1.5)) + 2


def test_log2_check_depth_tracks_the_decomposition():
    # on a1^k abar1^k the depth is the 1/3-2/3 decomposition depth of the
    # witness's derivation tree; the figures for L = 2..12 were measured
    # with a memo-free length-indexed certificate search
    g = d1_cnf()

    def depth(length):
        k = length // 2
        stats = log2_check(g, path_nfa(("a1",) * k + ("abar1",) * k))
        assert stats.result
        assert stats.max_live_triples == stats.max_recursion_depth
        return stats.max_recursion_depth

    assert [depth(L) for L in (2, 4, 6, 8, 10, 12)] == [2, 3, 4, 5, 5, 6]
    previous = 0
    for L in range(2, 129, 2):
        d = depth(L)
        assert previous <= d <= math.ceil(math.log(L, 1.5)) + 2, L
        previous = d


def test_log2_check_matches_the_recursive_reference():
    """The frame stack gives the depth of the recursive walk in the
    oracles, which keys the triples by their names, on seeded dyck1,
    dyck2, sym and random CNF grammars over 1-6 state machines, half of
    them with epsilon moves, and on the paths a1^k abar1^k."""
    rng = random.Random(4141)
    cases = []
    for name in ("dyck1", "dyck2", "sym"):
        f = parse_filter_name(name)
        cases += [
            (f.cnf_grammar, random_nfa(rng, 6, alphabet=f.alphabet, allow_epsilon=k % 2 == 1))
            for k in range(100)
        ]
    cases += [
        (random_cnf(rng, max_nonterminals=5), random_nfa(rng, 6, allow_epsilon=k % 2 == 1))
        for k in range(100)
    ]
    cases += [(d1_cnf(), path_nfa(("a1",) * k + ("abar1",) * k)) for k in (5, 11, 23, 40)]
    deep = 0
    for g, a in cases:
        stats = log2_check(g, a)
        expected = lsh_depth(
            g.rules, g.axiom, g.terminals, a.states, a.transitions, a.initial, a.accepting
        )
        assert stats.result == (expected is not None), (g, a)
        assert stats.max_recursion_depth == (expected or 0), (g, a)
        deep += stats.max_recursion_depth >= 3
    assert deep > 15, deep


def test_log2_check_counts_a_light_sibling_deeper_than_the_central_triple():
    """S -> C32 B6 derives a^96 alone: B6 is a balanced tree of yield 64,
    the central triple, of depth 7; C32 is a caterpillar A C31, ..., of
    yield 32, a light sibling, of depth 8.  The light sibling's frame
    runs one level below the root's, like the central one, so the depth
    is 1 + 8, which the recursive reference gives too."""
    lines = ["S -> C32 B6", "A -> a", "B0 -> a", "C1 -> a"]
    lines += [f"B{i} -> B{i - 1} B{i - 1}" for i in range(1, 7)]
    lines += [f"C{i} -> A C{i - 1}" for i in range(2, 33)]
    g = parse_grammar("\n".join(lines))
    a = Nfa.build(("a",), "q", {"q"}, {("q", "a", "q")})
    assert log2_check(g, a) == CheckerStats(9, 9, True)
    reference = lsh_depth(
        g.rules, g.axiom, g.terminals, a.states, a.transitions, a.initial, a.accepting
    )
    assert reference == 9


def test_report_serialization_shapes():
    report = nrr_decide(pair_machine(), FilterSpec.dyck(1))
    d = report.to_dict()
    assert d["witness"] == ["a1", "abar1"]
    assert isinstance(d["stats"], dict)
    stats = log2_check(d1_cnf(), path_nfa(("a1", "abar1")))
    assert set(stats.to_dict()) == {
        "max_recursion_depth",
        "max_live_triples",
        "result",
    }
