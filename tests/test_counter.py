"""One-counter automata: run semantics, product, finite unfolding.

The unfolding check is the dual route here: `accepts` walks counter
configurations directly, `to_nfa` flattens them into plain states, and
the two must agree on every word whose runs stay under the cap.
"""

import itertools
import math
import random

import pytest

from rrkit import CounterAutomaton, FilterSpec, Nfa, automata, nrr_decide
from rrkit.automata import pair_name
from rrkit.counter import ACCEPT_MODES
from rrkit.errors import ContractError, InputError
from rrkit.filters import d1_counter

from generators import coprime_cycle_nfa, dense_counter, random_counter, random_nfa, random_word
from oracles import (
    all_pairs_product, counter_configs_to_acceptance, dyck_oracle, reachable, unfold_by_definition,
)


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_d1_counter_matches_bracket_oracle():
    c = d1_counter()
    for w in all_words(("a1", "abar1"), 6):
        assert c.accepts(w) == dyck_oracle(1, w), w


def test_zero_guard():
    c = CounterAutomaton.build(
        ("a",),
        "s",
        {"t"},
        {("s", "a", "any", 1, "s"), ("s", "a", "zero", 0, "t")},
    )
    # the zero-guarded move is only available before any increment
    assert c.accepts(("a",))
    assert not c.accepts(("a", "a"))


def test_positive_guard_and_floor():
    c = CounterAutomaton.build(
        ("a", "b"),
        "s",
        {"t"},
        {("s", "a", "any", 1, "s"), ("s", "b", "positive", -1, "t")},
    )
    assert c.accepts(("a", "b"))
    assert not c.accepts(("b",))
    # a decrement at zero is blocked even with guard "any"
    d = CounterAutomaton.build(
        ("b",), "s", {"t"}, {("s", "b", "any", -1, "t")}
    )
    assert not d.accepts(("b",))


def test_accept_mode_zero():
    base = {("s", "a", "any", 1, "s")}
    lax = CounterAutomaton.build(("a",), "s", {"s"}, base)
    strict = CounterAutomaton.build(
        ("a",), "s", {"s"}, base, accept_mode="final_state_and_zero"
    )
    assert lax.accepts(("a", "a"))
    assert strict.accepts(())
    assert not strict.accepts(("a",))


def test_epsilon_moves_change_counter():
    c = CounterAutomaton.build(
        ("a",),
        "s",
        {"t"},
        {("s", "", "any", 1, "m"), ("m", "a", "positive", -1, "t")},
        accept_mode="final_state_and_zero",
    )
    assert c.accepts(("a",))
    assert not c.accepts(())


def test_product_is_intersection():
    rng = random.Random(611)
    for _ in range(20):
        c = random_counter(rng, max_states=2)
        a = random_nfa(rng, max_states=2, allow_epsilon=rng.random() < 0.5)
        prod = c.product(a)
        for w in all_words(("a1", "abar1"), 5):
            assert prod.accepts(w) == (c.accepts(w) and a.accepts(w)), (c, a, w)


def test_product_matches_all_pairs_reference():
    """All state pairs are states; moves leave only reachable pairs."""
    rng = random.Random(613)
    pair = lambda states: f"({states[0]},{states[1]})"
    pruned = 0
    for _ in range(300):
        c = random_counter(rng, max_states=3)
        a = random_nfa(rng, max_states=4, allow_epsilon=True)
        moves = all_pairs_product(
            c.states,
            [(src, read, (guard, delta), dst) for src, read, guard, delta, dst in c.transitions],
            a.states,
            [(src, label, None, dst) for src, label, dst in a.transitions],
        )
        # an NFA move alone leaves the counter untouched
        transitions = {
            (pair(src), read, *(counter or ("any", 0)), pair(dst))
            for src, read, counter, _, dst in moves
        }
        start = pair((c.initial, a.initial))
        live = reachable({start}, [(t[0], t[4]) for t in transitions])
        prod = c.product(a)
        assert prod.states == {pair((q, p)) for q in c.states for p in a.states}
        assert prod.initial == start
        assert prod.accepting == {pair((f, g)) for f in c.accepting for g in a.accepting}
        assert prod.accept_mode == c.accept_mode
        assert prod.transitions == {t for t in transitions if t[0] in live}, (c, a)
        pruned += len(live) < len(prod.states)
    assert pruned > 50


def test_counter_filter_with_integer_names_is_input_error():
    # an integer name used to pass the constructor and fail in pair_name,
    # with an AttributeError, once nrr_decide built the product
    with pytest.raises(InputError, match="must be strings"):
        nrr_decide(
            Nfa.build(("a1", "abar1"), "q", {"q"}, set()),
            FilterSpec.from_counter(CounterAutomaton(
                frozenset({0}), ("a1", "abar1"), 0, frozenset({0}),
                frozenset({(0, "a1", "any", 0, 0)}),
            )),
        )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"states": frozenset({"q0", 0})}, "must be strings"),
        ({"alphabet": ("a1", "abar1", 0)}, "must be strings"),
        ({"initial": 0}, "must be strings"),
        ({"accepting": frozenset({"q0", 0})}, "must be strings"),
        ({"transitions": frozenset({("q0", "a1", "any", 0, 0)})}, "must be strings"),
        ({"transitions": frozenset({("q0", 0, "any", 0, "q0")})}, "must be strings"),
        # the alphabet is checked as Nfa's is
        ({"alphabet": ("a1", "abar1", "a1")}, "duplicate symbols"),
        ({"alphabet": ("a1", "abar1", "")}, "reserved for epsilon"),
    ],
    ids=["states", "alphabet", "initial", "accepting", "endpoint", "read", "duplicate_letter",
         "epsilon_letter"],
)
def test_constructor_rejects_non_string_names(fields, message):
    c = d1_counter()
    with pytest.raises(InputError, match=message):
        CounterAutomaton(**{"states": c.states, "alphabet": c.alphabet, "initial": c.initial,
                            "accepting": c.accepting, "transitions": c.transitions,
                            "accept_mode": c.accept_mode, **fields})


@pytest.mark.parametrize("field", ["states", "alphabet"])
def test_one_non_string_among_many_names(field):
    """One name that is not a string among 1,000 that are is found, and
    named in the message, among the states and among the letters alike."""
    c = d1_counter()
    names = [f"n{i}" for i in range(1000)]
    names.insert(500, 7)
    fields = {"states": c.states, "alphabet": c.alphabet, "initial": c.initial,
              "accepting": c.accepting, "transitions": c.transitions,
              "accept_mode": c.accept_mode}
    fields[field] = c.states | set(names) if field == "states" else (*c.alphabet, *names)
    with pytest.raises(InputError) as info:
        CounterAutomaton(**fields)
    assert str(info.value) == "state and symbol names must be strings, got 7"


def test_str_subclass_names_are_accepted():
    class Name(str):
        pass

    c = CounterAutomaton.build((Name("a1"), "abar1"), Name("q"), {"q"},
                               {(Name("q"), Name("a1"), "any", 1, "q"),
                                ("q", "abar1", "positive", -1, Name("q"))},
                               accept_mode="final_state_and_zero")
    assert c.accepts(("a1", "abar1")) and not c.accepts(("a1",))


def test_pair_names_are_injective():
    """Distinct pairs get distinct names, also when the parts hold the
    separator or the escape character; plain names keep their old form."""
    parts = ["", "a", "b", ",", "\\", "a,", ",b", "a\\", "\\,", ",\\", "a,\\", "a\\,b"]
    names = {pair_name(left, right) for left in parts for right in parts}
    assert len(names) == len(parts) ** 2
    assert pair_name("q0", "p1") == "(q0,p1)"


def test_product_requires_same_alphabet():
    c = d1_counter()
    a = Nfa.build(("a1",), "q0", {"q0"}, set())
    with pytest.raises(ContractError):
        c.product(a)


def test_to_nfa_agrees_below_cap():
    c = d1_counter()
    unfolded = c.to_nfa(cap=4)
    # every dyck word of length <= 8 stays at height <= 4
    for w in all_words(("a1", "abar1"), 8):
        assert unfolded.accepts(w) == c.accepts(w), w


def test_to_nfa_preserves_emptiness_on_random_instances():
    rng = random.Random(612)
    for _ in range(40):
        c = random_counter(rng, max_states=3)
        unfolded = c.to_nfa()
        native = c.least_word(len(c.states) ** 2)
        assert (native is not None) == (unfolded.shortest_witness() is not None), c


def test_to_nfa_matches_definition():
    """The unfolding is the one built move by move and value by value, with
    the moves below 0 and past the cap sent to the sink r, on guarded
    machines in both accept modes at caps 0 to 4 and the default |Q|²."""
    rng = random.Random(619)
    pops = set()
    for k in range(300):
        c = dense_counter(rng, ("a", "b")) if k % 2 else random_counter(rng, max_states=3)
        cap = rng.choice((None, 0, 1, 2, 3, 4))
        states, initial, accepting, transitions, _, _ = unfold_by_definition(
            c.states, c.transitions, c.initial, c.accepting, c.accept_mode,
            len(c.states) ** 2 if cap is None else cap,
        )
        expected = Nfa(
            frozenset(states), c.alphabet, initial, frozenset(accepting), frozenset(transitions)
        )
        assert c.to_nfa(cap) == expected, (c, cap)
        pops.update((guard, c.accept_mode) for _, _, guard, delta, _ in c.transitions if delta < 0)
    assert pops == set(itertools.product(("any", "zero", "positive"), ACCEPT_MODES))


def accepting_only(c, f):
    """c with f its one accepting state."""
    return CounterAutomaton(
        c.states, c.alphabet, c.initial, frozenset({f}), c.transitions, c.accept_mode
    )


def test_least_word_matches_unfolding():
    """The configuration search returns the unfolding's witness word for
    word.  Ties break over the sorted letter names on both sides, also
    over the alphabet declared as ("b", "a").  With one accepting
    state kept, it returns the unfolding's least word ending there."""
    rng = random.Random(613)
    machines = [random_counter(rng, max_states=3) for _ in range(40)]
    machines += [dense_counter(rng, ("b", "a")) for _ in range(600)]
    for c in machines:
        for cap in (len(c.states) ** 2, 1):
            unfolded = c.to_nfa(cap=cap)
            assert c.least_word(cap) == unfolded.shortest_witness(), (c, cap)
            for f in c.accepting:
                # the unfolded states (f, value) are named "(f,value)"
                ends = frozenset(q for q in unfolded.accepting if q[1:].rpartition(",")[0] == f)
                alone = Nfa(unfolded.states, c.alphabet, unfolded.initial, ends, unfolded.transitions)
                assert accepting_only(c, f).least_word(cap) == alone.shortest_witness(), (c, cap, f)


def test_least_word_deep_shared_prefix():
    """Least words hundreds of letters long, climbing to the cap: a chain
    of K states reads a^K, pushing the counter to K, and then f1 needs it
    back at zero (a^K b^K c) while f2 takes c at once (a^K b c).  The two
    words share the prefix a^K b; with both states accepting the search
    returns the shorter, and with one it returns the unfolding's least
    word ending there.  Nothing is accepted when the cap is below K."""
    k = 120
    chain = [f"c{i}" for i in range(k)]
    moves = {(src, "a", "any", 1, dst) for src, dst in zip(chain, chain[1:] + ["top"])}
    moves |= {
        ("top", "b", "positive", -1, "down"),
        ("down", "b", "positive", -1, "down"),
        ("down", "c", "zero", 0, "f1"),
        ("down", "c", "positive", 0, "f2"),
    }
    c = CounterAutomaton.build(("a", "b", "c"), "c0", {"f1", "f2"}, moves)
    least = {"f2": ("a",) * k + ("b", "c"), "f1": ("a",) * k + ("b",) * k + ("c",)}
    for cap in (k, k + 3):
        assert c.least_word(cap) == least["f2"]
        unfolded = c.to_nfa(cap=cap)
        for f, word in least.items():
            assert accepting_only(c, f).least_word(cap) == word, (cap, f)
            ends = frozenset(q for q in unfolded.accepting if q.startswith(f"({f},"))
            alone = Nfa(unfolded.states, c.alphabet, unfolded.initial, ends, unfolded.transitions)
            assert word == alone.shortest_witness(), (cap, f)
    assert c.least_word(k - 1) is None


@pytest.mark.parametrize("epsilon", [True, False])
def test_least_word_needs_a_quadratic_cap(epsilon):
    """The coprime-cycle family (generators.coprime_cycle_moves, after
    Chrobak, TCS 1986) at p=3, q=4: the product P with d1_counter() has
    8 states and its least word a1^12 abar1^12 climbs the counter to 12.
    At cap |P| the search finds nothing, a wrong "empty"; at cap |P|² it
    finds the word, as does the unfolding at its default cap."""
    product = d1_counter().product(coprime_cycle_nfa(3, 4, epsilon))
    size = len(product.states)
    assert size == 8
    assert product.least_word(size) is None
    assert product.to_nfa(size).shortest_witness() is None
    word = ("a1",) * 12 + ("abar1",) * 12
    assert product.least_word(size**2) == word
    assert product.to_nfa().shortest_witness() == word


@pytest.mark.parametrize("mode", ["final_state", "final_state_and_zero"])
def test_least_word_skips_a_dead_pumping_branch(mode):
    """A branch that pumps the counter and reaches no accepting state
    changes no word: the machine with it returns what the machine
    without it returns, the unfolding's witness, with both accepting
    states and with each alone.
    The branch reads "a", the first letter, from the initial state, and
    its epsilon loop climbs to the cap; the search drops its moves."""
    live = {
        ("q0", "a", "any", 1, "q0"),
        ("q0", "b", "positive", -1, "q1"),
        ("q1", "b", "positive", -1, "q1"),
        ("q1", "", "zero", 0, "f"),
        ("q1", "a", "any", 0, "g"),
    }
    dead = {
        ("q0", "a", "any", 1, "d0"),
        ("d0", "", "any", 1, "d0"),
        ("d0", "b", "any", 0, "d1"),
        ("d1", "a", "positive", -1, "d0"),
    }
    alphabet = ("a", "b")
    without = CounterAutomaton.build(alphabet, "q0", {"f", "g"}, live, accept_mode=mode)
    with_branch = CounterAutomaton.build(alphabet, "q0", {"f", "g"}, live | dead, accept_mode=mode)
    assert {"d0", "d1"} <= with_branch.states
    for cap in (1, 3, len(with_branch.states) ** 2):
        word = with_branch.least_word(cap)
        assert word == without.least_word(cap) == with_branch.to_nfa(cap).shortest_witness(), cap
        for f in ("f", "g"):
            alone = accepting_only(with_branch, f).least_word(cap)
            assert alone == accepting_only(without, f).least_word(cap), (cap, f)
    assert with_branch.least_word(3) == ("a", "b")
    assert accepting_only(with_branch, "g").least_word(3) == ("a", "b", "a")
    # with every accepting state dead, only the initial state is searched
    stuck = CounterAutomaton.build(alphabet, "q0", {"f"}, dead, states={"f"}, accept_mode=mode)
    assert stuck.least_word(len(stuck.states) ** 2) is None
    assert stuck.to_nfa().shortest_witness() is None


def unfolded_configs_to_acceptance(c, cap):
    """The configurations (q, v) of c.to_nfa(cap) from which the unfolding
    reaches an accepting state, read back from the names "(q,v)"; the
    reject state moves nowhere, so it is never among them."""
    unfolded = c.to_nfa(cap)
    back = reachable(unfolded.accepting, [(dst, src) for src, _, dst in unfolded.transitions])
    parts = (name[1:-1].rpartition(",") for name in back)
    return {(q, int(v)) for q, _, v in parts}


def test_ceiling_bounds_every_configuration_that_reaches_acceptance():
    """Every configuration (q, v) from which an accepting configuration is
    reachable under the cap has q in _ceiling and v <= _ceiling[q], so
    least_word cuts no configuration on an accepting run.  The reference
    is a backward search over the configurations from the definition,
    checked against the unfolding at the same cap, in both accept modes;
    the machines include d1 products of NFAs with epsilon moves."""
    rng = random.Random(2027)
    machines = [random_counter(rng, max_states=4) for _ in range(120)]
    machines += [dense_counter(rng, ("a", "b")) for _ in range(120)]
    machines += [
        d1_counter().product(random_nfa(rng, max_states=5, allow_epsilon=True)) for _ in range(120)
    ]
    finite = 0
    for m in machines:
        for mode in ACCEPT_MODES:
            c = CounterAutomaton(m.states, m.alphabet, m.initial, m.accepting, m.transitions, mode)
            cap = len(c.states) ** 2
            live = counter_configs_to_acceptance(c.transitions, c.accepting, mode, cap)
            assert live == unfolded_configs_to_acceptance(c, cap), c
            ceiling = c._ceiling
            for q, v in live:
                assert q in ceiling and v <= ceiling[q], (c, q, v, ceiling)
            finite += sum(v < math.inf for v in ceiling.values())
    assert finite > 100


@pytest.mark.parametrize("mode", ACCEPT_MODES)
def test_ceiling_values(mode):
    """Exact ceilings: a bounded chain, a -1 loop before acceptance
    (unbounded), a zero-sum cycle (bounded), states whose every path to
    acceptance climbs (dead) and a state with no path (dead).  In
    final_state mode every state that reaches acceptance is unbounded.
    The floors, drop(q) + 1 for the largest fall drop(q) along a path
    from q, read no guard and no accept mode, so both modes agree: none
    for l and m, which reach the -1 loop.  Floors cover only the states
    that reach f, so x, which has no move, has none.  v has two moves
    into f, whose deltas differ: the least, -1, sets both its bounds."""
    moves = {
        ("c0", "a", "any", 1, "c1"),  # c0 +1 c1 -1 c2 -1 f
        ("c1", "b", "positive", -1, "c2"),
        ("c2", "b", "positive", -1, "f"),
        ("m", "a", "any", 0, "l"),  # a -1 loop on l, then f at zero
        ("l", "b", "any", -1, "l"),
        ("l", "", "zero", 0, "f"),
        ("z", "a", "any", 1, "y"),  # the cycle z +1 y -1 z sums to 0
        ("y", "b", "positive", -1, "z"),
        ("z", "", "any", 0, "f"),
        ("u", "a", "any", 1, "f"),  # from u and w every path climbs
        ("u", "", "any", 0, "w"),
        ("w", "a", "any", 1, "u"),
        ("v", "a", "any", 1, "f"),  # two moves into f, +1 and -1
        ("v", "b", "positive", -1, "f"),
    }
    c = CounterAutomaton.build(("a", "b"), "c0", {"f"}, moves, accept_mode=mode, states={"x"})
    if mode == "final_state_and_zero":
        expected = {
            "c0": 1, "c1": 2, "c2": 1, "f": 0, "m": math.inf, "l": math.inf, "z": 0, "y": 1, "v": 1,
        }
    else:
        expected = dict.fromkeys(("c0", "c1", "c2", "f", "m", "l", "z", "y", "u", "w", "v"), math.inf)
    assert c._ceiling == expected
    assert d1_counter()._ceiling == {"q0": math.inf}
    assert c._floor == {
        "c0": 2, "c1": 3, "c2": 2, "f": 1, "m": math.inf, "l": math.inf,
        "z": 1, "y": 2, "u": 1, "w": 1, "v": 2,
    }


@pytest.mark.parametrize("epsilon", [True, False])
def test_ceiling_stops_a_climb_that_cannot_come_back(epsilon):
    """A d1 product that climbs on every a1, reads no abar1 and must end
    at zero: only the accepting state is live, at ceiling 0, so the search
    ends at once, even at cap 10**6.  Without the ceiling it walked every
    value up to the cap in each state of the a1 cycle."""
    moves = {("q0", "a1", "q1"), ("q1", "a1", "q2"), ("q2", "a1", "q0"), ("q2", "a1", "f")}
    if epsilon:
        moves.add(("q1", "", "q0"))
    a = Nfa.build(("a1", "abar1"), "q0", {"f"}, moves)
    product = d1_counter().product(a)
    ceiling = product._ceiling
    assert len(ceiling) <= 1
    assert all(v == math.inf or v <= len(product.states) for v in ceiling.values())
    assert ceiling == {pair_name("q0", "f"): 0}
    assert product.least_word(10**6) is None


def epsilon_pump():
    """13 states that accept the empty word only with the counter at 21.
    s moves on epsilon, +1, into a 5-cycle c0..c4 of epsilon +1 moves;
    c4 also moves on epsilon, +1, to d0, which starts a 7-cycle d0..d6 of
    epsilon moves guarded positive, -1, and accepts at zero.  The counter
    reaches d0 at 6 + 5k, and 6 + 5k is first a multiple of 7 at k = 3."""
    moves = {("s", "", "any", 1, "c0"), ("c4", "", "any", 1, "d0")}
    moves |= {(f"c{i}", "", "any", 1, f"c{(i + 1) % 5}") for i in range(5)}
    moves |= {(f"d{i}", "", "positive", -1, f"d{(i + 1) % 7}") for i in range(7)}
    return CounterAutomaton.build(
        ("a1", "abar1"), "s", {"d0"}, moves, accept_mode="final_state_and_zero"
    )


def test_accepts_follows_epsilon_runs_past_a_linear_cap():
    """The membership oracle of a counter filter caps the counter at
    (|Q|·(|w|+1))², the |P|² of the machine's product P with the word's
    path.  A linear cap |w|·|Q| + |Q| = 13 cuts off the run at 21: accepts
    then said no, while least_word found the empty word, so nrr_decide
    rejected its own witness."""
    c = epsilon_pump()
    assert len(c.states) == 13
    assert c.accepts(())
    assert not c.accepts(("a1",))
    assert c.least_word(13) is None
    assert c.least_word(len(c.states) ** 2) == ()
    one_state = Nfa.build(("a1", "abar1"), "q", {"q"}, set())
    report = nrr_decide(one_state, FilterSpec.from_counter(c))
    assert report.nonempty and report.witness == ()


def pumping_chain():
    """Six states p0..p5 in a chain of epsilon moves, each with an epsilon
    +1 self-loop and an a self-loop, then a b move into the accepting
    state f: the language a*b, with the counter free to climb anywhere."""
    moves = {("p5", "b", "any", 0, "f")}
    moves |= {(f"p{i}", "", "any", 0, f"p{i + 1}") for i in range(5)}
    for i in range(6):
        moves |= {(f"p{i}", "", "any", 1, f"p{i}"), (f"p{i}", "a", "any", 0, f"p{i}")}
    return CounterAutomaton.build(("a", "b"), "p0", {"f"}, moves)


def count_guard_checks(monkeypatch, limit):
    """Count the calls of CounterAutomaton._guard_ok, failing the test
    once they pass limit; returns the count, as a one-item list."""
    calls = [0]
    guard_ok = CounterAutomaton._guard_ok

    def counted(self, guard, value):
        calls[0] += 1
        assert calls[0] <= limit, "accepts walked the counter"
        return guard_ok(self, guard, value)

    monkeypatch.setattr(CounterAutomaton, "_guard_ok", counted)
    return calls


def test_accepts_rejects_a_dead_word_without_walking_the_counter(monkeypatch):
    """The pumping chain.  No word without b is accepted, so accepts says
    no before it checks a guard; the wrapper stops it after 10,000
    checks, far fewer than a walk of every value up to the cap
    (|Q|·(|w|+1))² makes."""
    c = pumping_chain()
    calls = count_guard_checks(monkeypatch, 10_000)
    assert not c.accepts(("a",) * 1000)
    assert not c.accepts(("b", "a"))
    assert calls[0] == 0
    assert c.accepts(("a", "b"))


def test_accepts_stops_a_climb_at_the_floor(monkeypatch):
    """The chain of the test above, but p5 moves on epsilon under
    "positive" into f, which accepts only at zero, and no move counts
    down.  Every state stays live at every position of aⁿ, so only the
    counter forbids acceptance: every state's value ceiling is 0.
    accepts reads no ceiling, but no path falls, so every state's floor
    is 1 and holds the climb: accepts stores every value above 0 as 1.
    Capped only at (|Q|·(|w|+1))², it checked a guard at every value up
    to 5,929 for a¹⁰, and the wrapper stops it after 1,000 checks."""
    moves = {("p5", "", "positive", 0, "f")}
    moves |= {(f"p{i}", "", "any", 0, f"p{i + 1}") for i in range(5)}
    for i in range(6):
        moves |= {(f"p{i}", "", "any", 1, f"p{i}"), (f"p{i}", "a", "any", 0, f"p{i}")}
    c = CounterAutomaton.build(("a",), "p0", {"f"}, moves, accept_mode="final_state_and_zero")
    assert set(c._ceiling.values()) == {0}
    calls = count_guard_checks(monkeypatch, 1_000)
    for n in (0, 1, 10):
        assert not c.accepts(("a",) * n)
    assert calls[0] > 0


def test_accepts_is_linear_on_a_pumping_chain(monkeypatch):
    """The pumping chain reads aⁿb.  Every state stays live up to the b,
    and no move brings the counter down, so no path falls and every
    state's floor is 1: accepts walks the values 0 and 1 at each
    position, 68,024 guard checks for a²⁰⁰⁰b.  Walked up to the cap
    (|Q|·(|w|+1))², it took 957 ms at n = 400, growing as n², and the
    wrapper stops it after 100,000 checks."""
    c = pumping_chain()
    count_guard_checks(monkeypatch, 100_000)
    assert c.accepts(("a",) * 2000 + ("b",))
    assert not c.accepts(("a",) * 2000 + ("b", "a"))
    assert c._floor == dict.fromkeys(c.states, 1)


@pytest.mark.parametrize(
    "machine, word",
    [
        (d1_counter, lambda n: ("a1",) * n + ("abar1",) * n),
        (pumping_chain, lambda n: ("a",) * n + ("b",)),
    ],
    ids=["d1_counter", "pumping_chain"],
)
def test_accepts_reads_its_live_sets_off_cached_steps(monkeypatch, machine, word):
    """accepts reads w backward through _backward._closed_step, built once
    per machine, so after one warm-up call it runs automata.reach the same
    number of times whatever |w|.  Stepping with Nfa.step, which
    epsilon-closes every step, ran it once per letter: 11, 101 and 1,001
    times on d1_counter() for n = 5, 50 and 500."""
    c = machine()
    assert c.accepts(word(1))
    calls = [0]
    reach = automata.reach

    def counted(*args):
        calls[0] += 1
        return reach(*args)

    monkeypatch.setattr(automata, "reach", counted)
    counts = []
    for n in (5, 50, 500):
        calls[0] = 0
        assert c.accepts(word(n))
        counts.append(calls[0])
    assert len(set(counts)) == 1, counts


def dead_falling_branch():
    """Six states p0..p5 in a chain of epsilon moves, each with an epsilon
    +1 self-loop and an a +1 self-loop, then a b move under "zero" into
    the accepting state f: the language b.  p0 also moves on a into d,
    whose epsilon -1 self-loop falls without end, but d reaches no
    accepting state."""
    moves = {("p5", "b", "zero", 0, "f"), ("p0", "a", "any", 0, "d"), ("d", "", "positive", -1, "d")}
    moves |= {(f"p{i}", "", "any", 0, f"p{i + 1}") for i in range(5)}
    for i in range(6):
        moves |= {(f"p{i}", "", "any", 1, f"p{i}"), (f"p{i}", "a", "any", 1, f"p{i}")}
    return CounterAutomaton.build(("a", "b"), "p0", {"f"}, moves)


def test_accepts_ignores_a_dead_falling_cycle(monkeypatch):
    """The dead falling branch reads a¹⁶b.  p0 reaches d's falling cycle,
    but d reaches no accepting state, so the floor, which counts only the
    states that reach acceptance, is 1 at p0 and absent at d.  When every
    state was counted p0 had no floor, and accepts(a¹⁶b) took 1,036,706
    guard checks, walking p0's values up to the cap; the wrapper stops
    it after 10,000."""
    c = dead_falling_branch()
    count_guard_checks(monkeypatch, 10_000)
    assert not c.accepts(("a",) * 16 + ("b",))
    assert c.accepts(("b",))
    assert c._floor["p0"] == 1 and "d" not in c._floor


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a state that reaches a falling cycle gets no floor")
def test_accepts_is_linear_past_a_live_falling_cycle(monkeypatch):
    """The pumping chain with an epsilon "positive" -1 self-loop on p0
    reads a⁴⁰⁰b.  That falling cycle reaches acceptance, so p0 gets no
    floor and its values climb with the word: 25,438, 90,838 and 341,638
    guard checks for n = 100, 200 and 400, against 13,624 for a⁴⁰⁰b
    without the loop.  The wrapper stops it after 50 checks per
    position."""
    chain = pumping_chain()
    c = CounterAutomaton.build(
        chain.alphabet, chain.initial, chain.accepting,
        chain.transitions | {("p0", "", "positive", -1, "p0")},
    )
    count_guard_checks(monkeypatch, 50 * 401)
    assert c.accepts(("a",) * 400 + ("b",))


def test_accepts_matches_the_unfolding_at_its_cap():
    """accepts(w) is the verdict of to_nfa((|Q|·(|w|+1))²), the unfolding
    at the cap that accepts itself names, on seeded machines in both
    accept modes with epsilon moves: storing a value above drop(q) as
    drop(q) + 1 changes no verdict."""
    rng = random.Random(4242)
    machines = [random_counter(rng, max_states=3) for _ in range(60)]
    machines += [dense_counter(rng, ("a1", "abar1")) for _ in range(60)]
    accepted = 0
    for c in machines:
        for _ in range(4):
            w = random_word(rng, c.alphabet, max_len=4)
            verdict = c.accepts(w)
            assert verdict == c.to_nfa((len(c.states) * (len(w) + 1)) ** 2).accepts(w), (c, w)
            accepted += verdict
    assert accepted > 50, accepted
    # the pumping chain with a falling epsilon loop on p0: p0 gets no
    # floor, so accepts stores its values as they come
    chain = pumping_chain()
    c = CounterAutomaton.build(
        chain.alphabet, chain.initial, chain.accepting,
        chain.transitions | {("p0", "", "positive", -1, "p0")},
    )
    assert c._floor["p0"] == math.inf
    assert all(c._floor[q] == 1 for q in c.states - {"p0"})
    words = [w for n in range(4) for w in itertools.product("ab", repeat=n)]
    verdicts = [c.accepts(w) for w in words]
    assert verdicts == [c.to_nfa((len(c.states) * (len(w) + 1)) ** 2).accepts(w) for w in words]
    assert [w for w, ok in zip(words, verdicts) if ok] == [("b",), ("a", "b"), ("a", "a", "b")]
    # the dead falling branch: d falls without end but is dead, so p0
    # keeps its floor
    c = dead_falling_branch()
    verdicts = [c.accepts(w) for w in words]
    assert verdicts == [c.to_nfa((len(c.states) * (len(w) + 1)) ** 2).accepts(w) for w in words]
    assert [w for w, ok in zip(words, verdicts) if ok] == [("b",)]


def test_validation():
    with pytest.raises(InputError):
        CounterAutomaton.build(("a",), "s", {"s"}, {("s", "a", "wat", 0, "s")})
    with pytest.raises(InputError):
        CounterAutomaton.build(("a",), "s", {"s"}, {("s", "a", "any", 2, "s")})
    with pytest.raises(InputError):
        CounterAutomaton.build(("a",), "s", {"s"}, {("s", "b", "any", 0, "s")})
