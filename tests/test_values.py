"""Value semantics of the immutable classes, and what a launch imports.

values.Frozen builds each value and derives its class's equality, hash
and repr from its annotated fields.  The seven classes in CASES take
each field once, by position or keyword, refuse a missing, extra or
doubled argument with TypeError and run their checks either way; they
compare by class and fields, each field changed in turn giving an
unequal value, hash their field tuple (all but DecisionReport, which has
a dict field and no hash), refuse assignment and deletion, and print as
`Name(field=value, ...)`; a subclass keeps its parent's fields, and
appends the fields it annotates.  MarkedNfa compares by identity,
and no other value class escapes these checks.  Launching `rr` imports
none of the stdlib's introspection modules.
"""

import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import rrkit
from rrkit import Cfg, CounterAutomaton, FilterSpec, Nfa, Transducer
from rrkit.engine import CheckerStats, DecisionReport
from rrkit.reductions import MarkedNfa
from rrkit.values import Frozen


def nfa_fields():
    return {
        "states": frozenset({"q", "p"}),
        "alphabet": ("a", "b"),
        "initial": "q",
        "accepting": frozenset({"p"}),
        "transitions": frozenset({("q", "a", "p"), ("p", "", "q")}),
    }


def counter_fields():
    return {
        "states": frozenset({"q", "r"}),
        "alphabet": ("a1", "abar1"),
        "initial": "q",
        "accepting": frozenset({"q"}),
        "transitions": frozenset({("q", "a1", "any", 1, "q"), ("q", "abar1", "positive", -1, "q")}),
        "accept_mode": "final_state_and_zero",
    }


def transducer_fields():
    return {
        "input_alphabet": ("a",),
        "output_alphabet": ("x", "y"),
        "states": frozenset({"s", "t"}),
        "initial": "s",
        "accepting": frozenset({"s"}),
        "transitions": frozenset({("s", "a", "x", "s")}),
    }


def cfg_fields():
    return {
        "nonterminals": frozenset({"S", "U"}),
        "terminals": frozenset({"a", "b"}),
        "rules": (("S", ("a", "S", "b")), ("S", ())),
        "axiom": "S",
    }


# (class, keyword arguments of one instance, each field changed in turn
# to another valid value)
CASES = [
    (Nfa, nfa_fields, [
        {"states": frozenset({"q", "p", "r"})}, {"alphabet": ("b", "a")}, {"initial": "p"},
        {"accepting": frozenset({"q"})}, {"transitions": frozenset()},
    ]),
    (CounterAutomaton, counter_fields, [
        {"states": frozenset({"q"})}, {"alphabet": ("abar1", "a1")}, {"initial": "r"},
        {"accepting": frozenset({"r"})}, {"transitions": frozenset()},
        {"accept_mode": "final_state"},
    ]),
    (Transducer, transducer_fields, [
        {"input_alphabet": ("a", "b")}, {"output_alphabet": ("y", "x")},
        {"states": frozenset({"s"})}, {"initial": "t"}, {"accepting": frozenset()},
        {"transitions": frozenset()},
    ]),
    (Cfg, cfg_fields, [
        {"nonterminals": frozenset({"S"})}, {"terminals": frozenset({"a", "b", "c"})},
        {"rules": (("S", ()),)}, {"axiom": "U"},
    ]),
    (FilterSpec, lambda: {"kind": "dyck", "n": 2, "grammar": None, "automaton": None}, [
        {"kind": "symmetric"}, {"n": 3}, {"grammar": Cfg(**cfg_fields())},
        {"automaton": CounterAutomaton(**counter_fields())},
    ]),
    (CheckerStats, lambda: {"max_recursion_depth": 2, "max_live_triples": 2, "result": True}, [
        {"max_recursion_depth": 3}, {"max_live_triples": 3}, {"result": False},
    ]),
    (DecisionReport, lambda: {"nonempty": True, "witness": ("a1", "abar1"), "method": "bar_hillel",
                              "stats": {"states_created": 0}}, [
        {"nonempty": False}, {"witness": ("a1", "a1")}, {"method": "counter"},
        {"stats": {"states_created": 1}},
    ]),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, fields, changes", CASES, ids=IDS)
def test_equal_fields_make_equal_values(cls, fields, changes):
    assert [name for changed in changes for name in changed] == list(fields())
    by_keyword = cls(**fields())
    by_position = cls(*fields().values())
    assert by_keyword == by_position and not by_keyword != by_position
    for changed in changes:
        assert by_keyword != cls(**{**fields(), **changed})
    # the class is part of the value: a subclass with the same fields differs
    subclass = type("Sub", (cls,), {})
    assert by_keyword != subclass(**fields()) and subclass(**fields()) != by_keyword
    # and the subclass keeps its parent's fields
    assert repr(subclass(**fields())) == "Sub" + repr(by_keyword)[len(cls.__name__):]
    for changed in changes:
        assert subclass(**fields()) != subclass(**{**fields(), **changed})
    assert by_keyword != object()
    assert by_keyword.__eq__(object()) is NotImplemented
    values = tuple(fields().values())
    if cls is DecisionReport:
        # stats is a dict, so the class declares no hash at all
        with pytest.raises(TypeError, match="unhashable type: 'DecisionReport'"):
            hash(by_keyword)
    else:
        assert hash(by_keyword) == hash(by_position) == hash(values)
    for name, value in fields().items():
        assert getattr(by_keyword, name) == value


def test_a_subclass_appends_the_fields_it_annotates():
    # defined here, outside rrkit, so test_every_value_class_is_covered
    # does not count them
    class Tagged(Nfa):
        tag: str = ""

    class Counted(CounterAutomaton):
        count: int

    assert Tagged._fields == (*nfa_fields(), "tag")
    plain = Tagged(**nfa_fields())
    assert plain.tag == "" and plain != Nfa(**nfa_fields())
    tagged = Tagged(*nfa_fields().values(), "x")
    assert tagged == Tagged(**nfa_fields(), tag="x") and tagged != plain
    assert hash(tagged) == hash((*nfa_fields().values(), "x"))
    assert repr(tagged).endswith("Tagged" + repr(Nfa(**nfa_fields()))[3:-1] + ", tag='x')")
    with pytest.raises(rrkit.InputError, match="initial state 'r' is not a state"):
        Tagged(**{**nfa_fields(), "initial": "r"})
    # the parent's defaults are kept, and the new field without one is required
    fields = counter_fields()
    del fields["accept_mode"]
    assert Counted(**fields, count=3).accept_mode == "final_state"
    with pytest.raises(TypeError, match="missing required arguments: count$"):
        Counted(**fields)


@pytest.mark.parametrize("cls, fields, changes", CASES, ids=IDS)
def test_values_are_frozen(cls, fields, changes):
    value = cls(**fields())
    for name in [*fields(), "extra"]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    assert value == cls(**fields())


@pytest.mark.parametrize("cls, fields, changes", CASES, ids=IDS)
def test_repr_lists_the_fields(cls, fields, changes):
    value = cls(**fields())
    inner = ", ".join(f"{name}={v!r}" for name, v in fields().items())
    assert repr(value) == f"{cls.__name__}({inner})"


# the fields that have defaults, and for each class with rules one field
# change that breaks them, with the message its check raises
DEFAULTS = {CounterAutomaton: {"accept_mode"}, FilterSpec: {"n", "grammar", "automaton"}}
BROKEN = {
    Nfa: ({"initial": "r"}, "initial state 'r' is not a state"),
    CounterAutomaton: ({"accept_mode": "never"}, "unknown accept mode 'never'"),
    Transducer: ({"transitions": frozenset({("s", "b", "x", "s")})},
                 "read symbol 'b' is not in the input alphabet"),
    Cfg: ({"axiom": "T"}, "axiom 'T' is not a nonterminal"),
    FilterSpec: ({"kind": "dyck", "n": 0}, "dyck filters need n >= 1"),
}


@pytest.mark.parametrize("cls, fields, changes", CASES, ids=IDS)
def test_construction_binds_each_field_once(cls, fields, changes):
    items = list(fields().items())
    values = [value for _, value in items]
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*values, None)
    with pytest.raises(TypeError, match="unexpected keyword argument 'extra'"):
        cls(*values, extra=None)
    for i, (name, _) in enumerate(items):
        # field i by position and again by keyword, each later one by keyword
        with pytest.raises(TypeError, match=f"multiple values for argument '{name}'"):
            cls(*values[:i + 1], **dict(items[i:]))
        # test_keyword_defaults leaves out the fields that have defaults
        if name not in DEFAULTS.get(cls, ()):
            with pytest.raises(TypeError, match=f"missing required arguments: {name}$"):
                cls(**{key: v for key, v in items if key != name})
        # the positional prefix up to field i plus the rest by keyword is
        # the same value
        assert cls(*values[:i], **dict(items[i:])) == cls(*values)


@pytest.mark.parametrize("cls, fields, changes", CASES, ids=IDS)
def test_checks_run_by_keyword_and_by_position(cls, fields, changes):
    if cls not in BROKEN:
        assert cls in (CheckerStats, DecisionReport)
        return
    change, message = BROKEN[cls]
    broken = {**fields(), **change}
    with pytest.raises(rrkit.InputError, match=re.escape(message)):
        cls(**broken)
    with pytest.raises(rrkit.InputError, match=re.escape(message)):
        cls(*broken.values())
    # a subclass keeps the checks
    with pytest.raises(rrkit.InputError, match=re.escape(message)):
        type("Sub", (cls,), {})(*broken.values())


def test_one_state_nfa_repr():
    nfa = Nfa.build(("a",), "q", {"q"}, set())
    assert repr(nfa) == (
        "Nfa(states=frozenset({'q'}), alphabet=('a',), initial='q', "
        "accepting=frozenset({'q'}), transitions=frozenset())"
    )


def test_keyword_defaults():
    spec = FilterSpec("symmetric")
    assert (spec.n, spec.grammar, spec.automaton) == (0, None, None)
    assert spec == FilterSpec(kind="symmetric", n=0, grammar=None, automaton=None)
    grammar = Cfg(**cfg_fields())
    assert FilterSpec("user_grammar", grammar=grammar).grammar is grammar
    fields = counter_fields()
    del fields["accept_mode"]
    assert CounterAutomaton(**fields).accept_mode == "final_state"
    with pytest.raises(TypeError):
        Nfa(**{**nfa_fields(), "extra": 1})
    with pytest.raises(TypeError):
        FilterSpec()


def test_checks_run_on_every_construction():
    with pytest.raises(rrkit.InputError, match="dyck filters need n >= 1"):
        FilterSpec(kind="dyck")
    with pytest.raises(rrkit.InputError, match="unknown accept mode"):
        CounterAutomaton(**{**counter_fields(), "accept_mode": "never"})
    with pytest.raises(rrkit.InputError, match="axiom 'T' is not a nonterminal"):
        Cfg(**{**cfg_fields(), "axiom": "T"})


def test_cached_properties_still_cache():
    spec = FilterSpec("dyck", 1)
    assert spec.alphabet is spec.alphabet
    assert vars(spec)["alphabet"] == ("a1", "abar1")
    nfa = Nfa(**nfa_fields())
    assert nfa.eps_closure({"p"}) == {"p", "q"}
    assert "_eps_out" in vars(nfa)
    # cached values are no fields: they change neither equality nor hash
    assert nfa == Nfa(**nfa_fields()) and hash(nfa) == hash(Nfa(**nfa_fields()))


def test_marked_nfa_compares_by_identity():
    nfa = Nfa(**nfa_fields())
    first = MarkedNfa(nfa, {"q": 0, "p": 0}, "r")
    second = MarkedNfa(nfa=nfa, height={"q": 0, "p": 0}, reject_state="r")
    assert first == first and first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2
    with pytest.raises(AttributeError, match="cannot assign to field 'nfa'"):
        first.nfa = nfa
    assert repr(first) == f"MarkedNfa(nfa={nfa!r}, height={{'q': 0, 'p': 0}}, reject_state='r')"


def test_every_value_class_is_covered():
    """A value class added later gets the checks above, or is MarkedNfa."""
    for module in pkgutil.iter_modules(rrkit.__path__):
        importlib.import_module(f"rrkit.{module.name}")
    found, todo = set(), [Frozen]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("rrkit."):
                found.add(sub)
            todo.append(sub)
    assert found == {cls for cls, _, _ in CASES} | {MarkedNfa}


def test_launch_imports_no_introspection_modules():
    """`import rrkit` and `import rrkit.cli`, as every `rr` launch does,
    load none of dataclasses, inspect, ast, dis or tokenize: together
    they cost about a third of the launch."""
    src_root = str(pathlib.Path(rrkit.__file__).resolve().parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src_root!r}); import rrkit; import rrkit.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
