import gc
import json
import random
import tracemalloc

import pytest

from rrkit import Nfa, Transducer, cs_transducer
from rrkit.errors import InputError
from rrkit.filters import dyck_encoder, dyck_grammar, symmetric_sharp_grammar

from generators import random_nfa, random_transducer
from oracles import all_pairs_product, dyck_oracle, trim


def pair(states):
    return f"({states[0]},{states[1]})"


def reference_product(t, right_states, right_moves, initial, accepting):
    """t's output tape fed to a right machine, built over all state pairs
    and then trimmed: (states, accepting, moves (src, read, write, dst))."""
    moves = all_pairs_product(
        t.states,
        [(src, write, read, dst) for src, read, write, dst in t.transitions],
        right_states,
        right_moves,
    )
    transitions = {
        (pair(src), read or "", write or "", pair(dst)) for src, _, read, write, dst in moves
    }
    start = pair((t.initial, initial))
    final = {pair((f1, f2)) for f1 in t.accepting for f2 in accepting}
    keep = trim(start, final, [(m[0], m[3]) for m in transitions])
    kept = frozenset(m for m in transitions if m[0] in keep and m[3] in keep)
    return frozenset(keep), start, frozenset(final & keep), kept


def renamer():
    # a -> x, b -> y, letter by letter
    return Transducer.build(
        ("a", "b"),
        ("x", "y"),
        "s",
        {"s"},
        {("s", "a", "x", "s"), ("s", "b", "y", "s")},
    )


def doubler():
    # a -> a a
    return Transducer.build(
        ("a",),
        ("a",),
        "s",
        {"s"},
        {("s", "a", "a", "m"), ("m", "", "a", "s")},
    )


def test_transduce_letter_map():
    t = renamer()
    assert t.transduce(("a", "b", "a"), 10) == {("x", "y", "x")}
    assert t.transduce((), 10) == {()}


def test_transduce_output_bound():
    t = doubler()
    assert t.transduce(("a", "a"), 10) == {("a",) * 4}
    assert t.transduce(("a", "a"), 3) == set()


def test_transduce_rejects_foreign_input():
    with pytest.raises(InputError):
        renamer().transduce(("z",), 5)


def test_inverted():
    t = renamer().inverted()
    assert t.transduce(("x", "y"), 10) == {("a", "b")}


def test_compose_feeds_output_forward():
    first = Transducer.build(
        ("a",), ("b",), "s", {"s"}, {("s", "a", "b", "s")}
    )
    second = Transducer.build(
        ("b",), ("c",), "s", {"s"}, {("s", "b", "c", "s")}
    )
    chained = first.compose(second)
    assert chained.transduce(("a", "a"), 10) == {("c", "c")}


def test_compose_names_pairs_injectively():
    # the pairs (s, "t,u") and ("s,t", "u") would both be "(s,t,u)" without
    # escaping, making the initial pair accepting: the empty input would
    # then be related to the empty output, though no pair accepts
    first = Transducer.build(("a",), ("b",), "s", {"s,t"}, set())
    second = Transducer.build(("b",), ("c",), "t,u", {"u"}, set())
    composed = first.compose(second)
    assert len(composed.states) == 1 and not composed.accepting
    assert composed.transduce((), 0) == set()


def test_compose_automaton_restricts_by_output():
    t = doubler()
    exactly_two = Nfa.build(
        ("a",), "p0", {"p2"}, {("p0", "a", "p1"), ("p1", "a", "p2")}
    )
    dom = t.compose_automaton(exactly_two)
    assert dom.accepts(("a",))
    assert not dom.accepts(())
    assert not dom.accepts(("a", "a"))


def test_domain_nfa():
    t = Transducer.build(
        ("a", "b"), ("x",), "s", {"t"}, {("s", "a", "x", "t")}
    )
    dom = t.domain_nfa()
    assert dom.accepts(("a",))
    assert not dom.accepts(("b",))
    assert not dom.accepts(())


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"states": renamer().states | {0}}, "must be strings"),
        ({"output_alphabet": (*renamer().output_alphabet, 0)}, "must be strings"),
        ({"initial": 0}, "must be strings"),
        ({"transitions": renamer().transitions | {("s", "a", 0, "s")}}, "must be strings"),
        # the alphabets are checked as Nfa's is
        ({"input_alphabet": ("a", "b", "a")}, "duplicate symbols"),
        ({"output_alphabet": ("x", "y", "")}, "reserved for epsilon"),
    ],
    ids=["states", "output_alphabet", "initial", "write", "duplicate_letter", "epsilon_letter"],
)
def test_constructor_rejects_non_string_names(fields, message):
    t = renamer()
    with pytest.raises(InputError, match=message):
        Transducer(**{"input_alphabet": t.input_alphabet, "output_alphabet": t.output_alphabet,
                      "states": t.states, "initial": t.initial, "accepting": t.accepting,
                      "transitions": t.transitions, **fields})


@pytest.mark.parametrize("field", ["states", "input_alphabet", "output_alphabet"])
def test_one_non_string_among_many_names(field):
    """One name that is not a string among 1,000 that are is found, and
    named in the message, among the states and among either alphabet's
    letters."""
    t = renamer()
    names = [f"n{i}" for i in range(1000)]
    names.insert(500, 7)
    fields = {"input_alphabet": t.input_alphabet, "output_alphabet": t.output_alphabet,
              "states": t.states, "initial": t.initial, "accepting": t.accepting,
              "transitions": t.transitions}
    fields[field] = t.states | set(names) if field == "states" else (*fields[field], *names)
    with pytest.raises(InputError) as info:
        Transducer(**fields)
    assert str(info.value) == "state and symbol names must be strings, got 7"


def test_str_subclass_names_are_accepted():
    class Name(str):
        pass

    t = Transducer.build((Name("a"),), ("x", Name("y")), Name("s"), {"t"},
                         {(Name("s"), Name("a"), Name("y"), "t")})
    assert t.transduce(("a",), 1) == {("y",)}


def test_compose_builds_one_transducer(monkeypatch):
    """compose builds and checks one Transducer, the trimmed product."""
    first, second = doubler(), doubler()
    checks = []
    check = Transducer._check
    monkeypatch.setattr(Transducer, "_check", lambda t: checks.append(t) or check(t))
    composed = first.compose(second)
    assert checks == [composed]
    assert composed.transduce(("a",), 10) == {("a",) * 4}


def test_to_json_is_json_dumps_indent_2_sorted():
    # transition keys sort as from, read, to, write: not the tuple order
    odd = ('t"0', "t\\1", "t\t2", "\u00e9", "{0}", "%s")
    rng = random.Random(415)
    cases = [
        Transducer.build(("a",), ("x",), "t0", set(), set()),  # no accepting state, no transition
        Transducer.build(("a",), ("x",), "t0", {"t0"}, {("t0", "a", "x", "t0")}),  # one of each
        Transducer.build(("a\tb",), ("\u00e9",), odd[0], set(), {(odd[0], "", "", odd[1])}),
        # names that share a prefix up to a separator, several moves on one
        # letter out of one source, and states with no move out
        Transducer.build(("a", "b"), ("x",), "t", {"t1"}, {
            ("t", "a", "x", "t1"), ("t", "a", "x", "t,1"), ("t", "a", "", "t"),
            ("t", "a", "x", "t 1"), ("t", "b", "x", "t!"), ("t", "", "x", "t1"),
            ("t1", "a", "", "t"), ("t 1", "b", "x", "t"), ("t 1", "a", "x", "t!"),
        }, states=("t", "t,1", "t 1", "t!", "t1")),
    ]
    for _ in range(60):
        t = random_transducer(rng, inputs=("a", '"b'), outputs=("x", "\\y", "\u00e9"))
        rename = dict(zip(sorted(t.states), rng.sample(odd, len(t.states))))
        cases.append(Transducer.build(
            t.input_alphabet,
            t.output_alphabet,
            rename[t.initial],
            {rename[q] for q in t.accepting if rng.random() < 0.7},
            {(rename[src], read, write, rename[dst]) for src, read, write, dst in t.transitions},
            states=rename.values(),
        ))
    # the grammar reduction's outputs: hundreds of states and moves
    cases += [cs_transducer(dyck_grammar(2)), cs_transducer(symmetric_sharp_grammar())]
    assert any(read == "" for t in cases for _, read, _, _ in t.transitions)
    assert any(write == "" for t in cases for _, _, write, _ in t.transitions)
    for t in cases:
        reference = {
            "input_alphabet": list(t.input_alphabet),
            "output_alphabet": list(t.output_alphabet),
            "states": sorted(t.states),
            "initial": t.initial,
            "accepting": sorted(t.accepting),
            "transitions": [
                {"from": src, "read": read, "write": write, "to": dst}
                for src, read, write, dst in sorted(t.transitions)
            ],
        }
        assert t.to_json() == json.dumps(reference, indent=2, sort_keys=True) + "\n", t


def test_to_json_peak_memory_stays_near_the_output_length():
    # the same writer as Nfa.to_json, with the same bound: on this output
    # it measured 2.41 times the output with a join per record and 2.46
    # with one f-string per record
    t = cs_transducer(symmetric_sharp_grammar())
    assert len(t.transitions) > 1000
    gc.collect()
    tracemalloc.start()
    try:
        text = t.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * len(text), peak / len(text)


def test_dyck_encoder_images():
    h = dyck_encoder(3)
    assert h.transduce(("a2",), 10) == {("a1", "a2", "a2")}
    assert h.transduce(("abar3",), 10) == {("abar2", "abar2", "abar2", "abar1")}


def test_dyck_encoder_preserves_balance():
    h = dyck_encoder(2)
    for w in [
        (),
        ("a1", "abar1"),
        ("a2", "a1", "abar1", "abar2"),
        ("a1", "abar1", "a2", "abar2"),
        ("a1", "abar2"),
        ("a2", "a1", "abar2", "abar1"),
    ]:
        (img,) = h.transduce(w, 4 * len(w) + 1) or {None}
        assert img is not None
        assert dyck_oracle(2, img) == dyck_oracle(2, w), w


def test_validation():
    with pytest.raises(InputError):
        Transducer.build(("a",), ("x",), "s", {"s"}, {("s", "q", "x", "s")})
    with pytest.raises(InputError):
        Transducer.build(("a",), ("x",), "s", {"s"}, {("s", "a", "q", "s")})


def test_compose_matches_all_pairs_reference():
    rng = random.Random(701)
    nonempty = 0
    for _ in range(300):
        first = random_transducer(rng)
        second = random_transducer(rng, inputs=("x", "y"), outputs=("c", "d"))
        states, initial, accepting, moves = reference_product(
            first, second.states, second.transitions, second.initial, second.accepting
        )
        expected = Transducer(
            first.input_alphabet, second.output_alphabet, states, initial, accepting, moves
        )
        assert first.compose(second) == expected, (first, second)
        nonempty += bool(accepting)
    assert nonempty > 100


def test_compose_automaton_matches_all_pairs_reference():
    rng = random.Random(702)
    nonempty = 0
    for _ in range(300):
        t = random_transducer(rng)
        a = random_nfa(rng, max_states=3, alphabet=("x", "y"), allow_epsilon=True)
        states, initial, accepting, moves = reference_product(
            t, a.states, [(src, label, "", dst) for src, label, dst in a.transitions],
            a.initial, a.accepting,
        )
        expected = Nfa(
            states,
            t.input_alphabet,
            initial,
            accepting,
            frozenset((src, read, dst) for src, read, _, dst in moves),
        )
        assert t.compose_automaton(a) == expected, (t, a)
        nonempty += bool(accepting)
    assert nonempty > 100


def test_cs_transducer_size_symsharp():
    t = cs_transducer(symmetric_sharp_grammar())
    assert (len(t.states), len(t.transitions)) == (953, 1006)
