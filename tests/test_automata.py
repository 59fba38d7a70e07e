import gc
import json
import random
import tracemalloc

import pytest

from rrkit import InputError, Nfa
from rrkit.reductions import D2_ALPHABET, mark_automaton, reduce_d2_to_ssharpup

from generators import random_nfa, random_word
from oracles import enumerate_accepted, naive_accepts


def simple():
    return Nfa.build(
        ("a1", "abar1"),
        "q0",
        {"q2"},
        {("q0", "a1", "q1"), ("q1", "abar1", "q2"), ("q1", "", "q0")},
    )


def test_closure_and_step():
    a = simple()
    assert a.eps_closure({"q1"}) == frozenset({"q0", "q1"})
    assert a.step({"q0"}, "a1") == frozenset({"q0", "q1"})


def test_accepts_basic():
    a = simple()
    assert a.accepts(("a1", "abar1"))
    assert a.accepts(("a1", "a1", "abar1"))
    assert not a.accepts(("abar1",))
    assert not a.accepts(())


def test_accepts_rejects_foreign_symbol():
    """The foreign letter raises even when the run dies before it."""
    for word in (("b",), ("abar1", "b")):
        with pytest.raises(InputError, match="symbol 'b' is not in the alphabet"):
            simple().accepts(word)


def test_accepts_matches_naive_oracle_on_random_instances():
    rng = random.Random(411)
    for _ in range(60):
        a = random_nfa(rng, max_states=4, allow_epsilon=rng.random() < 0.5)
        for _ in range(25):
            w = random_word(rng, a.alphabet, max_len=6)
            assert a.accepts(w) == naive_accepts(
                a.transitions, a.initial, a.accepting, w
            ), (a, w)


def test_shortest_witness_is_accepted_and_minimal():
    rng = random.Random(412)
    for _ in range(40):
        a = random_nfa(rng, max_states=4, allow_epsilon=True)
        w = a.shortest_witness()
        accepted = lambda max_len: enumerate_accepted(
            a.transitions, a.initial, a.accepting, a.alphabet, max_len
        )
        if w is None:
            assert accepted(5) == []
            continue
        assert a.accepts(w)
        shorter = [u for u in accepted(len(w)) if len(u) < len(w)]
        assert shorter == []


def test_shortest_witness_tie_break_follows_sorted_names():
    a = Nfa.build(
        ("b", "a"),
        "s",
        {"t"},
        {("s", "a", "t"), ("s", "b", "t")},
    )
    # both length-1 words are accepted; "b" is declared first, but ties
    # break over the sorted letter names, as on the grammar side
    assert a.shortest_witness() == ("a",)


def test_distances_to_accepting():
    a = simple()
    d = a.distances_to_accepting()
    assert d["q2"] == 0
    assert d["q1"] == 1
    assert d["q0"] == 2


def test_json_round_trip():
    a = simple()
    assert Nfa.from_json(a.to_json()) == a


# names JSON escapes (a quote, a backslash, a tab, non-ASCII letters),
# names that read as template slots, and names that share a prefix up to
# a separator, which the writer must order as the tuple sort does
ODD_NAMES = ('q"0', "a\\1", "t\tab", "\u00e9", "\u0434", "{0}", "%s",
             "q", "q,1", "q 1", "q!", "q1")


def test_to_json_is_json_dumps_indent_2_sorted():
    rng = random.Random(414)
    cases = [
        Nfa.build(("a1",), "q0", set(), set()),  # no accepting state, no transition
        Nfa.build(("a1",), "q0", {"q0"}, {("q0", "a1", "q0")}),  # one item in every list
        Nfa.build(ODD_NAMES[:3], ODD_NAMES[3], {ODD_NAMES[4]}, {(ODD_NAMES[3], "", ODD_NAMES[5])}),
        # several moves on one label out of one source, moves out of the
        # prefixed names in both orders, and states with no move out
        Nfa.build(("a1", "abar1"), "q", {"q1"}, {
            ("q", "a1", "q1"), ("q", "a1", "q,1"), ("q", "a1", "q"), ("q", "a1", "q 1"),
            ("q", "abar1", "q!"), ("q", "", "q1"), ("q1", "a1", "q"), ("q 1", "abar1", "q"),
            ("q 1", "a1", "q!"), ("q!", "", "q,1"),
        }, states=ODD_NAMES),
    ]
    for _ in range(60):
        a = random_nfa(rng, max_states=4, alphabet=("a1", "abar1", "\u00e9"),
                       allow_epsilon=rng.random() < 0.5)
        rename = dict(zip(sorted(a.states), rng.sample(ODD_NAMES, len(a.states))))
        cases.append(Nfa.build(
            a.alphabet,
            rename[a.initial],
            {rename[q] for q in a.accepting if rng.random() < 0.7},
            {(rename[src], label, rename[dst]) for src, label, dst in a.transitions},
            states=rename.values(),
        ))
    # the reductions' outputs run to thousands of transitions
    big = random.Random(424)
    for _ in range(2):
        a = random_nfa(big, max_states=4, min_states=3, alphabet=D2_ALPHABET, allow_epsilon=True)
        cases += [mark_automaton(a).nfa, reduce_d2_to_ssharpup(a)]
    assert min(len(a.transitions) for a in cases[-4:]) > 1000
    assert any(label == "" for a in cases for _, label, _ in a.transitions)
    for a in cases:
        reference = {
            "states": sorted(a.states),
            "alphabet": list(a.alphabet),
            "initial": a.initial,
            "accepting": sorted(a.accepting),
            "transitions": [
                {"from": src, "label": label, "to": dst} for src, label, dst in sorted(a.transitions)
            ],
        }
        assert a.to_json() == json.dumps(reference, indent=2, sort_keys=True) + "\n", a


def test_to_json_peak_memory_stays_near_the_output_length():
    # one f-string per record and one join for the document measured 2.56
    # times the output (2.49 with a join per record); a join per nesting
    # level measured 3.30, and every escaped value kept alive for one flat
    # join 3.27
    a = random_nfa(random.Random(5), max_states=4, min_states=4, alphabet=D2_ALPHABET,
                   allow_epsilon=True)
    b = reduce_d2_to_ssharpup(a)
    assert len(a.states) == 4 and len(b.transitions) > 10000
    gc.collect()
    tracemalloc.start()
    try:
        text = b.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * len(text), peak / len(text)


def test_validation():
    with pytest.raises(InputError):
        Nfa.build(("a", "a"), "q", {"q"}, set())
    with pytest.raises(InputError):
        Nfa.build(("a",), "q", {"q"}, {("q", "b", "q")})
    with pytest.raises(InputError):
        Nfa.from_json('{"states": []}')
    mixed = {"states": ["q", 1], "alphabet": ["a"], "initial": "q", "accepting": [1],
            "transitions": [{"from": "q", "label": "a", "to": 1}]}
    with pytest.raises(InputError, match="must be strings"):
        Nfa.from_dict(mixed)
    # the constructor checks names itself, not only the loader
    good = {"states": frozenset({"q"}), "alphabet": ("a",), "initial": "q",
            "accepting": frozenset({"q"}), "transitions": frozenset()}
    for bad in ({"states": frozenset({"q", 1})}, {"alphabet": ("a", 1)}, {"initial": 1},
                {"transitions": frozenset({("q", "a", 1)})}):
        with pytest.raises(InputError, match="must be strings"):
            Nfa(**{**good, **bad})


@pytest.mark.parametrize("field", ["states", "alphabet"])
def test_one_non_string_among_many_names(field):
    """One name that is not a string among 1,000 that are is found, and
    named in the message, among the states and among the letters alike."""
    names = [f"n{i}" for i in range(1000)]
    names.insert(500, 7)
    fields = {"states": frozenset({"q"}), "alphabet": ("a",), "initial": "q",
              "accepting": frozenset({"q"}), "transitions": frozenset()}
    fields[field] = frozenset({"q", *names}) if field == "states" else tuple(names)
    with pytest.raises(InputError) as info:
        Nfa(**fields)
    assert str(info.value) == "state and symbol names must be strings, got 7"


def test_str_subclass_names_are_accepted():
    class Name(str):
        pass

    a = Nfa.build((Name("a"), "b"), Name("q"), {"q"}, {(Name("q"), Name("a"), "r")},
                  states=[Name("r")])
    assert a.accepts(("a",)) is False and a.accepts(()) is True
    reference = {"states": ["q", "r"], "alphabet": ["a", "b"], "initial": "q", "accepting": ["q"],
                 "transitions": [{"from": "q", "label": "a", "to": "r"}]}
    assert a.to_json() == json.dumps(reference, indent=2, sort_keys=True) + "\n"
