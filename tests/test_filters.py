"""Filter language memberships against the independent enumeration oracles.

Each built-in language has two routes: the package's stack/recursion
membership code and the oracle in tests/oracles.py, written separately
from first principles.  Sweeps compare them on every short word; the
grammar-backed filters additionally get grammar-versus-oracle sweeps.
"""

import itertools
import random

import pytest

from rrkit import CounterAutomaton, FilterSpec, InputError, parse_filter_name
from rrkit.errors import UnsupportedFilterError
from rrkit.filters import (
    ALPHABET_FULL,
    ALPHABET_X,
    SHARP,
    d1_counter,
    dyck_grammar,
    dyck_member,
    m_inf_member,
    m_plus_member,
    s_sharp_member,
    s_sharp_up_member,
    sym_member,
    symmetric_grammar,
    symmetric_sharp_grammar,
)

import oracles
from generators import random_counter


def all_words(alphabet, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(alphabet, repeat=n)


def test_dyck_member_sweep():
    for w in all_words(("a1", "abar1"), 8):
        assert dyck_member(1, w) == oracles.dyck_oracle(1, w), w
    for w in all_words(("a1", "a2", "abar1", "abar2"), 6):
        assert dyck_member(2, w) == oracles.dyck_oracle(2, w), w


def test_sym_member_sweep():
    for w in all_words(ALPHABET_X, 6):
        assert sym_member(w) == oracles.sym_oracle(w), w


def test_sym_member_is_mirror_not_free_group():
    # x1 xbar1 xbar1 x1 reduces to nothing as a free group word but the
    # second half must mirror the first, symbol by symbol
    assert sym_member(("x1", "x2", "xbar2", "xbar1"))
    assert not sym_member(("x1", "xbar1", "xbar1", "x1"))


def test_s_sharp_member_sweep():
    for w in all_words(ALPHABET_X + (SHARP,), 5):
        assert s_sharp_member(w) == oracles.s_sharp_oracle(w), w


def test_s_sharp_rejects_trailing_run():
    assert s_sharp_member(("#", "x1", "xbar1"))
    assert s_sharp_member(("x1", "#", "xbar1"))
    assert not s_sharp_member(("x1", "xbar1", "#"))
    assert not s_sharp_member(("#",))


def test_m_family_sweep():
    for w in all_words(ALPHABET_FULL, 5):
        assert m_inf_member(w) == oracles.m_inf_oracle(w), w
        assert m_plus_member(w) == oracles.m_plus_oracle(w), w
        assert s_sharp_up_member(w) == oracles.s_sharp_up_oracle(w), w


def test_m_inf_nested_blocks():
    assert m_inf_member(("a", "abar"))
    assert m_inf_member(("a", "a", "abar", "abar"))
    # two adjacent inner blocks need a nonempty separator
    assert not m_inf_member(("a", "a", "abar", "a", "abar", "abar"))
    assert m_inf_member(("a", "a", "abar", "x1", "xbar1", "a", "abar", "abar"))
    # the filler between blocks must itself flatten to S with # padding
    assert not m_inf_member(("a", "a", "abar", "x1", "a", "abar", "abar"))


def test_m_plus_examples():
    assert m_plus_member(("a",))
    assert m_plus_member(("abar", "a"))
    assert m_plus_member(("x1", "abar"))
    assert not m_plus_member(("a", "abar"))
    assert not m_plus_member(("x1", "xbar2"))


def test_s_sharp_up_is_the_union():
    for w in all_words(ALPHABET_FULL, 4):
        assert s_sharp_up_member(w) == (m_inf_member(w) or m_plus_member(w)), w


def test_membership_rejects_foreign_symbols():
    with pytest.raises(InputError):
        dyck_member(1, ("a2",))
    with pytest.raises(InputError):
        sym_member(("a",))


@pytest.mark.parametrize("n", [1, 2, 3, 10])
def test_dyck_member_accepts_exactly_the_bracket_letters(n):
    for k in range(1, n + 1):
        assert dyck_member(n, (f"a{k}", f"abar{k}"))
        assert FilterSpec.dyck(n).contains((f"a{k}", f"a{k}", f"abar{k}", f"abar{k}"))
    for sym in (f"a{n + 1}", f"abar{n + 1}", "a0", "abar0", "a01", "abar01", "a", "abar", "A1", "a1 "):
        with pytest.raises(InputError, match=f"^symbol {sym!r} is not in the filter alphabet$"):
            dyck_member(n, ("a1", sym))
        with pytest.raises(InputError, match=f"^symbol {sym!r} is not in the filter alphabet$"):
            FilterSpec.dyck(n).contains((sym,))
    with pytest.raises(InputError, match="^Dyck languages need at least one bracket pair$"):
        dyck_member(0, ())


def test_dyck_member_at_the_largest_named_filter():
    f = parse_filter_name("dyckN:10000")
    assert f.contains(("a10000", "a1", "abar1", "abar10000"))
    assert not f.contains(("a10000", "abar9999"))
    with pytest.raises(InputError, match="^symbol 'a10001' is not in the filter alphabet$"):
        f.contains(("a10001",))


def test_dyck_grammar_matches_oracle():
    g = dyck_grammar(1).cnf()
    for w in all_words(("a1", "abar1"), 8):
        assert g.cyk(w) == oracles.dyck_oracle(1, w), w


def test_symmetric_grammar_matches_oracle():
    g = symmetric_grammar().cnf()
    for w in all_words(ALPHABET_X, 6):
        assert g.cyk(w) == oracles.sym_oracle(w), w


def test_symmetric_sharp_grammar_matches_oracle():
    g = symmetric_sharp_grammar().cnf()
    for w in all_words(ALPHABET_X + (SHARP,), 5):
        assert g.cyk(w) == oracles.s_sharp_oracle(w), w


def test_d1_counter_matches_grammar():
    c = d1_counter()
    g = dyck_grammar(1).cnf()
    for w in all_words(("a1", "abar1"), 8):
        assert c.accepts(w) == g.cyk(w), w
    # a counter filter's own grammar (CounterAutomaton.to_cfg) against
    # the configuration search of accepts, on seeded random machines
    rng = random.Random(2121)
    machines = [random_counter(rng) for _ in range(200)]
    moves = [move for c in machines for move in c.transitions]
    assert {guard for _, _, guard, _, _ in moves} == {"any", "zero", "positive"}
    assert {delta for _, _, _, delta, _ in moves} == {-1, 0, 1}
    assert any(read == "" for _, read, _, _, _ in moves)
    assert {c.accept_mode for c in machines} == {"final_state", "final_state_and_zero"}
    # and on letters named like nonterminals, S and the numbered N0, and
    # state names holding the separators of a structured name
    named = CounterAutomaton.build(
        ("S", "N0", "N'1"),
        "q,0",
        {"q]1"},
        {
            ("q,0", "S", "any", 1, "q,0"),
            ("q,0", "N0", "positive", -1, "q]1"),
            ("q]1", "N0", "positive", -1, "q]1"),
            ("q]1", "N'1", "zero", 0, "q,0"),
            ("q,0", "", "zero", 0, "q,0]"),
            ("q,0]", "S", "any", 0, "q]1"),
        },
        accept_mode="final_state_and_zero",
    )
    assert named.accepts(("S", "S", "N0", "N0")) and named.accepts(("S", "N0", "N'1", "S"))
    for c in machines + [d1_counter(), named]:
        g = FilterSpec.from_counter(c).cnf_grammar
        assert g.is_cnf()
        for w in all_words(c.alphabet, 5):
            assert g.cyk(w) == c.accepts(w), (c, w)


def test_filterspec_contains_dispatch():
    assert FilterSpec.dyck(2).contains(("a2", "abar2"))
    assert FilterSpec.symmetric().contains(("x1", "xbar1"))
    assert FilterSpec.symmetric_sharp().contains(("#", "x1", "xbar1"))
    assert FilterSpec.s_sharp_up().contains(("a",))
    assert FilterSpec.from_counter(d1_counter()).contains(("a1", "abar1"))
    g = dyck_grammar(1)
    assert FilterSpec.from_grammar(g).contains(("a1", "abar1"))
    assert not FilterSpec.from_grammar(g).contains(("a1",))


def test_filterspec_alphabets_are_ordered_tuples():
    assert FilterSpec.dyck(2).alphabet == ("a1", "a2", "abar1", "abar2")
    assert FilterSpec.symmetric().alphabet == ALPHABET_X
    assert FilterSpec.from_grammar(dyck_grammar(1)).alphabet == ("a1", "abar1")


def test_filterspec_is_hashable():
    assert {FilterSpec.dyck(1): "v"}[FilterSpec.dyck(1)] == "v"
    # the cached alphabet and CNF are not fields
    used = FilterSpec.dyck(2)
    assert used.alphabet is used.alphabet
    assert used.cnf_grammar.is_cnf()
    assert used == FilterSpec.dyck(2) and hash(used) == hash(FilterSpec.dyck(2))


def test_filter_grammar_unavailable_kinds():
    with pytest.raises(UnsupportedFilterError):
        FilterSpec.s_sharp_up().filter_grammar()
    # a counter filter has its machine's grammar
    assert FilterSpec.from_counter(d1_counter()).filter_grammar() == d1_counter().to_cfg()


def test_fixed_filter_names_share_one_instance():
    for name in ("dyck1", "dyck2", "sym", "symsharp", "ssharpup"):
        assert parse_filter_name(name) is parse_filter_name(name)
    # so each request after the first reuses the converted grammar
    assert parse_filter_name("sym").cnf_grammar is parse_filter_name("sym").cnf_grammar
    assert parse_filter_name("dyckN:2") == parse_filter_name("dyck2")


def test_parse_filter_name():
    assert parse_filter_name("dyck1").n == 1
    assert parse_filter_name("dyck2").n == 2
    assert parse_filter_name("dyckN:3").n == 3
    assert parse_filter_name("sym").kind == "symmetric"
    assert parse_filter_name("symsharp").kind == "symmetric_sharp"
    assert parse_filter_name("ssharpup").kind == "s_sharp_up"
    with pytest.raises(InputError):
        parse_filter_name("dyckN:x")
    with pytest.raises(InputError):
        parse_filter_name("unknown")


def test_parse_filter_name_limits_bracket_pairs():
    assert parse_filter_name("dyckN:10000").n == 10_000
    with pytest.raises(InputError, match="limited to k <= 10000"):
        parse_filter_name("dyckN:10001")
