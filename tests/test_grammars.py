"""Grammar parsing, CNF conversion, and the language they generate.

CNF conversion is checked against a brute-force enumeration of the
generated language up to a length cut, which is slow but independent
of the conversion code.
"""

import hashlib
import itertools
import random
import time

import pytest

from rrkit import Cfg, InputError, format_grammar, parse_filter_name, parse_grammar

from generators import random_cfg, random_cnf
from oracles import cnf_by_definition, grammar_words

D1_TEXT = """
# one bracket pair
S -> a1 S abar1 | S S |
"""


def words_of(g, max_len):
    return grammar_words(g.rules, g.axiom, max_len, g.nonterminals)


def test_parse_basic():
    g = parse_grammar(D1_TEXT)
    assert g.axiom == "S"
    assert g.terminals == frozenset({"a1", "abar1"})
    assert ("S", ()) in g.rules


def test_parse_hash_terminal_mid_line():
    # "#" only comments at line start; mid-line it is an ordinary token
    g = parse_grammar("S -> # S | a")
    assert "#" in g.terminals


def test_parse_bare_arrow_is_epsilon_rule():
    g = parse_grammar("S ->")
    assert g.rules == (("S", ()),)


def test_parse_errors():
    with pytest.raises(InputError):
        parse_grammar("")
    with pytest.raises(InputError):
        parse_grammar("just words")
    with pytest.raises(InputError):
        parse_grammar("-> a")


def test_format_round_trip():
    g = parse_grammar(D1_TEXT)
    h = parse_grammar(format_grammar(g))
    # the formatter writes a rule-less nonterminal X as "X -> X", so
    # compare the parts that matter for the language
    assert h.rules == g.rules
    assert h.axiom == g.axiom


def test_format_reads_back_or_refuses():
    """Seeded grammars with names drawn from a pool of legal and illegal
    spellings: format_grammar refuses exactly those with a symbol the
    text cannot carry, and otherwise parse_grammar reads back the same
    axiom, rules and least word, a rule-less axiom as "A -> A"."""
    legal = ["S'", "[q0,S,q1]", "(p,q)", "a->b", "#a", "x#"]
    illegal = ["", "q 0", "q|1", "tab\tx", "line\nx"]
    lhs_only_illegal = ["A->B", "#A"]
    rng = random.Random(3001)
    refused = kept = emptied = 0
    for _ in range(400):
        g = random_cnf(rng, terminals=("a1", "abar1"))
        names = {}
        for sym in sorted(g.nonterminals | g.terminals):
            pool = legal + illegal + lhs_only_illegal if rng.random() < 0.15 else [None]
            choice = rng.choice(pool)
            names[sym] = sym if choice is None or choice in names.values() else choice
        rules = [(names[lhs], [names[s] for s in rhs]) for lhs, rhs in g.rules]
        if rng.random() < 0.2:  # the axiom keeps no rule
            rules = [(lhs, rhs) for lhs, rhs in rules if lhs != names[g.axiom]]
            emptied += 1
        h = Cfg.build(rules, names[g.axiom], terminals=[names[t] for t in g.terminals])
        written = {lhs for lhs, _ in h.rules} | {h.axiom}
        bad = any(
            not s or "|" in s or any(ch.isspace() for ch in s)
            or s in written and ("->" in s or s.startswith("#"))
            for s in written | {s for _, rhs in h.rules for s in rhs}
        )
        if bad:
            with pytest.raises(InputError, match="cannot be written"):
                format_grammar(h)
            refused += 1
            continue
        back = parse_grammar(format_grammar(h))
        assert back.axiom == h.axiom
        extra = () if any(lhs == h.axiom for lhs, _ in h.rules) else ((h.axiom, (h.axiom,)),)
        assert set(back.rules) == set(h.rules) | set(extra)
        assert back.shortest_word() == h.shortest_word()
        kept += 1
    assert refused > 20 and kept > 200 and emptied > 40


def test_cnf_shape():
    g = parse_grammar(D1_TEXT).cnf()
    assert g.is_cnf()
    for lhs, rhs in g.rules:
        if len(rhs) == 1:
            assert rhs[0] in g.terminals
        elif len(rhs) == 2:
            assert all(s in g.nonterminals for s in rhs)
        else:
            assert rhs == () and lhs == g.axiom


def test_cnf_preserves_language_fixed():
    g = parse_grammar(D1_TEXT)
    h = g.cnf()
    assert words_of(g, 8) == words_of(h, 8)


def test_cnf_preserves_language_random():
    rng = random.Random(2177)
    for _ in range(25):
        nts = ["S", "A", "B"]
        rules = []
        for nt in nts:
            for _ in range(rng.randint(1, 3)):
                body = tuple(
                    rng.choice(nts + ["a", "b"])
                    for _ in range(rng.randint(0, 3))
                )
                rules.append((nt, body))
        g = Cfg(
            frozenset(nts),
            frozenset({"a", "b"}),
            tuple(rules),
            "S",
        )
        assert words_of(g, 6) == words_of(g.cnf(), 6), g


def random_nullable_cfg(rng):
    """A random grammar whose bodies hold 0-9 symbols, most of them copies
    of one to three nonterminals that are often nullable."""
    nts = [f"N{i}" for i in range(rng.randint(1, 3))]
    symbols = nts * 3 + ["a1", "abar1"]
    rules = [(nt, ()) for nt in nts if rng.random() < 0.7]
    rules += [
        (nt, tuple(rng.choice(symbols) for _ in range(rng.randint(0, 9))))
        for nt in nts
        for _ in range(rng.randint(1, 2))
    ]
    rng.shuffle(rules)
    return Cfg.build(rules, nts[0], nonterminals=nts, terminals=("a1", "abar1"))


# sha256 of the CNFs below: the cs golden, the reduce-cs answers of
# bench/data/answers.json and every filter's nonterminals_created depend
# on these bytes, so a change to Cfg.cnf must leave them as they are
CNF_DIGEST = "db264b847f163f5666573eed81e5a6dd9b088d17fb7a9c2380f5b1d396b19bd2"


def test_cnf_output_is_pinned_byte_for_byte():
    """Cfg.cnf returns the same nonterminals, rules in the same order and
    the same fresh names on 2,000 random_cfg grammars and 500 grammars of
    long bodies with repeated nullable symbols."""
    rng = random.Random(3801)
    grammars = [random_cfg(rng) for _ in range(2000)]
    grammars += [random_nullable_cfg(rng) for _ in range(500)]
    digest = hashlib.sha256()
    for g in grammars:
        c = g.cnf()
        digest.update(repr((sorted(c.nonterminals), c.rules, c.axiom)).encode())
    assert digest.hexdigest() == CNF_DIGEST


def test_cnf_of_repeated_nullable_symbols_is_fast():
    """A body of 20 copies of one nullable symbol has 20 non-empty
    subsequences, not 2^20, and converts well under a second."""
    g = parse_grammar("S -> " + " A" * 20 + " |\nA -> a1 | |\n")
    start = time.perf_counter()
    c = g.cnf()
    assert time.perf_counter() - start < 1.0
    assert len(c.rules) == 40
    assert words_of(c, 3) == words_of(g, 3)


def test_cnf_is_identity_on_cnf_input():
    rng = random.Random(2178)
    g = random_cnf(rng)
    assert g.cnf() is g


def test_cnf_epsilon_only_at_axiom():
    g = parse_grammar(D1_TEXT).cnf()
    assert (g.axiom, ()) in g.rules
    assert g.cyk(())
    h = parse_grammar("S -> a").cnf()
    assert (h.axiom, ()) not in h.rules
    assert not h.cyk(())


def test_is_cnf_matches_the_definition():
    """is_cnf, read off the one pass of cnf_table, agrees with the
    two-pass reference on seeded grammars: in no normal form, their CNFs,
    in CNF, and in CNF with one rule of any shape added."""
    rng = random.Random(3401)
    verdicts = []
    for _ in range(600):
        g = random_cfg(rng)
        h = random_cnf(rng)
        symbols = sorted(h.nonterminals | h.terminals)
        extra = (rng.choice(sorted(h.nonterminals)),
                 tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))))
        for k in (g, g.cnf(), h, Cfg(h.nonterminals, h.terminals, h.rules + (extra,), h.axiom)):
            expected = cnf_by_definition(k.rules, k.axiom, k.nonterminals, k.terminals)
            assert k.is_cnf() == expected == (k.cnf_table is not None), k
            verdicts.append(expected)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 600


def test_cnf_table_groups_the_rules_sharing_a_child():
    """by_left[B] holds one (C, parents) group per sibling C and by_right[C]
    one (B, parents) group per sibling B, each in the order of its first
    rule, the parents A of the rules A -> B C in grammar order."""
    t = parse_filter_name("dyck1").cnf_grammar.cnf_table
    assert t.names == ("<S.abar1>", "<a1>", "<abar1>", "S", "S0")
    # S0 and S share all three bodies: S S, <a1> <S.abar1>, <a1> <abar1>
    assert t.by_left == ((), ((0, (4, 3)), (2, (4, 3))), (), ((3, (4, 3)), (2, (0,))), ())
    assert t.by_right == (((1, (4, 3)),), (), ((3, (0,)), (1, (4, 3))), ((3, (4, 3)),), ())
    assert t.by_lhs == (((3, 2),), (), (), ((3, 3), (1, 0), (1, 2)), ((3, 3), (1, 0), (1, 2)))
    rng = random.Random(3403)
    for _ in range(200):
        g = random_cnf(rng)
        t = g.cnf_table
        binary = [(t.index[lhs], *map(t.index.__getitem__, rhs)) for lhs, rhs in g.rules if len(rhs) == 2]
        for rows, child, sibling in ((t.by_left, 1, 2), (t.by_right, 2, 1)):
            for x, row in enumerate(rows):
                mine = [r for r in binary if r[child] == x]
                assert row == tuple(
                    (y, tuple(r[0] for r in mine if r[sibling] == y))
                    for y in dict.fromkeys(r[sibling] for r in mine)
                ), g


def test_cyk_matches_enumeration_on_random_cnf():
    """CYK answers every word up to length 6 as the enumeration of the
    grammar's words does, on seeded grammars in CNF."""
    rng = random.Random(3402)
    members = 0
    for _ in range(100):
        g = random_cnf(rng)
        derived = set(words_of(g, 6))
        members += len(derived)
        for n in range(7):
            for w in itertools.product(sorted(g.terminals), repeat=n):
                assert g.cyk(w) == (w in derived), (g, w)
    assert members > 500


def test_ordered_nonterminals_starts_with_axiom():
    g = parse_grammar("S -> A B\nA -> a\nB -> b")
    assert g.ordered_nonterminals[0] == "S"
    assert set(g.ordered_nonterminals) == set(g.nonterminals)


def test_ordered_nonterminals_is_stable():
    g1 = parse_grammar("S -> A B | B A\nA -> a\nB -> b")
    g2 = parse_grammar("S -> A B | B A\nA -> a\nB -> b")
    assert g1.ordered_nonterminals == g2.ordered_nonterminals


def test_validation():
    with pytest.raises(InputError):
        Cfg(frozenset({"S"}), frozenset({"S"}), (("S", ()),), "S")
    with pytest.raises(InputError):
        Cfg(frozenset({"S"}), frozenset(), (("S", ("X",)),), "S")
    with pytest.raises(InputError):
        Cfg(frozenset({"S"}), frozenset(), (), "T")
