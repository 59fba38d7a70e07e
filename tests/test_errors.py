"""Constructor and contract errors, one case per message.

Each case builds a value or calls a method that the checks must refuse,
and matches the error's message, so a check that stops running, or that
raises another message, fails here.
"""

import pytest

from rrkit import Cfg, CounterAutomaton, FilterSpec, Nfa, Transducer
from rrkit.errors import ContractError, InputError

A = ("a",)
S_TO_A = Cfg.build([("S", ("a",))], "S")
COUNTER = CounterAutomaton.build(A, "q", {"q"}, {("q", "a", "any", 1, "q")})
COPY = Transducer.build(A, A, "s", {"s"}, {("s", "a", "a", "s")})
ERRORS = {
    "accepting-not-a-state": (
        lambda: Nfa(frozenset({"q"}), A, "q", frozenset({"p"}), frozenset()),
        InputError, r"accepting states \['p'\] are not states",
    ),
    "unknown-filter-kind": (
        lambda: FilterSpec("nope"), InputError, "unknown filter kind 'nope'",
    ),
    "user-grammar-without-grammar": (
        lambda: FilterSpec("user_grammar"), InputError, "user_grammar filters need a grammar",
    ),
    "counter-without-automaton": (
        lambda: FilterSpec("counter"), InputError, "counter filters need a counter automaton",
    ),
    "rule-lhs-not-a-nonterminal": (
        lambda: Cfg(frozenset({"S"}), frozenset({"a"}), (("a", ("S",)),), "S"),
        InputError, "rule lhs 'a' is not a nonterminal",
    ),
    "cyk-word-symbol-not-a-terminal": (
        lambda: S_TO_A.cyk(("b",)), InputError, "word symbol 'b' is not a terminal",
    ),
    "counter-endpoint-not-a-state": (
        lambda: CounterAutomaton(
            frozenset({"q"}), A, "q", frozenset({"q"}), frozenset({("q", "a", "any", 1, "p")})
        ),
        InputError, "transition endpoints must be states",
    ),
    "transducer-endpoint-not-a-state": (
        lambda: Transducer(
            A, A, frozenset({"s"}), "s", frozenset({"s"}), frozenset({("s", "a", "a", "t")})
        ),
        InputError, "transition endpoints must be states",
    ),
    "counter-accepts-unknown-symbol": (
        lambda: COUNTER.accepts(("b",)), InputError, "symbol 'b' is not in the alphabet",
    ),
    "compose-middle-alphabets": (
        lambda: COPY.compose(Transducer.build(("b",), A, "s", {"s"}, set())),
        ContractError, "composition needs matching middle alphabets",
    ),
    "compose-automaton-alphabet": (
        lambda: COPY.compose_automaton(Nfa.build(("b",), "q", {"q"}, set())),
        ContractError, "automaton alphabet must match the output alphabet",
    ),
}


@pytest.mark.parametrize("make, error, message", ERRORS.values(), ids=ERRORS)
def test_each_error_raises_its_message(make, error, message):
    with pytest.raises(error, match=message):
        make()
