"""Built-in filter languages: membership oracles, grammars, encodings.

Words are sequences of ASCII tokens ("a1", "abar1", "x1", "xbar2", "a",
"abar", "#").  Membership oracles run by direct stack simulation or
recursion; grammars exist for the languages other modules intersect with
(Dyck, the symmetric language S and its #-padded variant), while the
M-family languages get oracles only.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .counter import CounterAutomaton
from .errors import InputError, UnsupportedFilterError
from .grammars import Cfg
from .transducers import Transducer
from .values import Frozen

ALPHABET_A = ("a", "abar")
ALPHABET_X = ("x1", "x2", "xbar1", "xbar2")
SHARP = "#"
ALPHABET_FULL = ALPHABET_A + ALPHABET_X + (SHARP,)


def dyck_alphabet(n: int) -> tuple[str, ...]:
    if n < 1:
        raise InputError("Dyck languages need at least one bracket pair")
    return tuple(f"a{k}" for k in range(1, n + 1)) + tuple(f"abar{k}" for k in range(1, n + 1))


@lru_cache(maxsize=8)
def _dyck_letters(n: int) -> frozenset[str]:
    # built once per bracket-pair count, not on every membership check
    return frozenset(dyck_alphabet(n))


_X_LETTERS = frozenset(ALPHABET_X)
_X_SHARP_LETTERS = frozenset(ALPHABET_X + (SHARP,))
_FULL_LETTERS = frozenset(ALPHABET_FULL)


def _check_word(w: tuple[str, ...], allowed: frozenset[str]) -> None:
    for sym in w:
        if sym not in allowed:
            raise InputError(f"symbol {sym!r} is not in the filter alphabet")


def dyck_member(n: int, w: Iterable[str]) -> bool:
    """True iff w is a balanced bracket word over n typed pairs."""
    word = tuple(w)
    _check_word(word, _dyck_letters(n))
    stack: list[str] = []
    for sym in word:
        if sym.startswith("abar"):
            if not stack or stack[-1] != sym[4:]:
                return False
            stack.pop()
        else:
            stack.append(sym[1:])
    return not stack


def sym_member(w: Iterable[str]) -> bool:
    """True iff w is a nest of matched x-pairs: x_i ... x_j x̄_j ... x̄_i."""
    word = tuple(w)
    _check_word(word, _X_LETTERS)
    if len(word) % 2:
        return False
    half = len(word) // 2
    for k in range(half):
        if word[k] not in ("x1", "x2"):
            return False
        if word[len(word) - 1 - k] != "xbar" + word[k][1:]:
            return False
    return True


def _s_sharp(word: tuple[str, ...]) -> bool:
    # interior helper: callers guarantee tokens over X ∪ {#}
    if not word:
        return True
    if word[-1] == SHARP:
        # every #-run must precede a letter, so a trailing run disqualifies
        return False
    return sym_member(tuple(sym for sym in word if sym != SHARP))


def s_sharp_member(w: Iterable[str]) -> bool:
    """True iff w becomes a symmetric word after deleting #, with every
    #-run sitting in front of some letter (no trailing run)."""
    word = tuple(w)
    _check_word(word, _X_SHARP_LETTERS)
    return _s_sharp(word)


def m_inf_member(w: Iterable[str]) -> bool:
    """Recursive bracket decomposition for the M-iteration language.

    A word is in the language when it is in M, or when it splits as
    a y1 (a z1 abar) y2 (a z2 abar) ... y_{n-1} (a z_{n-1} abar) y_n abar
    with every bracketed block recursively a member, every y-segment
    between two consecutive blocks nonempty, and a y1...y_n abar in M.
    The blocks of a span are disjoint, so each span is checked once and
    the recursion stays quadratic.
    """
    word = tuple(w)
    _check_word(word, _FULL_LETTERS)

    def span(i: int, j: int) -> bool:
        if i == j:
            return True
        if word[i] != "a" or word[j - 1] != "abar":
            return False
        blocks: list[tuple[int, int]] = []
        segments: list[tuple[int, int]] = []
        depth = 0
        block_start = -1
        seg_start = i + 1
        for pos in range(i + 1, j - 1):
            sym = word[pos]
            if sym == "a":
                if depth == 0:
                    segments.append((seg_start, pos))
                    block_start = pos
                depth += 1
            elif sym == "abar":
                depth -= 1
                if depth < 0:
                    return False
                if depth == 0:
                    blocks.append((block_start, pos + 1))
                    seg_start = pos + 1
        if depth != 0:
            return False
        segments.append((seg_start, j - 1))
        for s, e in segments[1:-1]:
            if s == e:
                return False
        if not all(span(s, e) for s, e in blocks):
            return False
        filler = tuple(sym for s, e in segments for sym in word[s:e])
        return _s_sharp(filler)

    return span(0, len(word))


def m_plus_member(w: Iterable[str]) -> bool:
    """True iff erasing the x-symbols and # leaves an unbalanced a/abar word."""
    word = tuple(w)
    _check_word(word, _FULL_LETTERS)
    depth = 0
    for sym in word:
        if sym == "a":
            depth += 1
        elif sym == "abar":
            depth -= 1
            if depth < 0:
                return True
    return depth != 0


def s_sharp_up_member(w: Iterable[str]) -> bool:
    word = tuple(w)
    return m_inf_member(word) or m_plus_member(word)


# -- grammars ------------------------------------------------------------------


def dyck_grammar(n: int) -> Cfg:
    """S -> S S | eps | a_k S abar_k for each bracket type k."""
    rules: list[tuple[str, tuple[str, ...]]] = [("S", ("S", "S")), ("S", ())]
    for k in range(1, n + 1):
        rules.append(("S", (f"a{k}", "S", f"abar{k}")))
    return Cfg.build(rules, "S", terminals=dyck_alphabet(n))


def symmetric_grammar() -> Cfg:
    rules = [
        ("S", ("x1", "S", "xbar1")),
        ("S", ("x2", "S", "xbar2")),
        ("S", ()),
    ]
    return Cfg.build(rules, "S", terminals=ALPHABET_X)


def symmetric_sharp_grammar() -> Cfg:
    """The symmetric grammar with an optional #-run before every letter."""
    rules = [
        ("S", ("H", "x1", "S", "H", "xbar1")),
        ("S", ("H", "x2", "S", "H", "xbar2")),
        ("S", ()),
        ("H", (SHARP, "H")),
        ("H", ()),
    ]
    return Cfg.build(rules, "S", terminals=ALPHABET_X + (SHARP,))


# -- machines ------------------------------------------------------------------


def d1_counter() -> CounterAutomaton:
    """One-state counter machine for the single-pair bracket language."""
    return CounterAutomaton.build(
        alphabet=("a1", "abar1"),
        initial="q0",
        accepting={"q0"},
        transitions={
            ("q0", "a1", "any", 1, "q0"),
            ("q0", "abar1", "positive", -1, "q0"),
        },
        accept_mode="final_state_and_zero",
    )


def dyck_encoder(n: int) -> Transducer:
    """Letter-to-word transducer for h: a_k -> a1 a2^k, abar_k -> abar2^k abar1.

    h embeds the n-pair bracket language into the two-pair one: h(u) is
    balanced over two pair types exactly when u is balanced over n.  One
    symbol is written per transition, so each image letter gets a short
    chain of writing states.
    """
    source = dyck_alphabet(n)
    target = dyck_alphabet(2)
    transitions: set[tuple[str, str, str, str]] = set()
    for k in range(1, n + 1):
        # a_k: read once writing a1, then k epsilon steps writing a2
        prev = "s"
        for i in range(1, k + 1):
            state = f"open{k}.{i}"
            read = f"a{k}" if i == 1 else ""
            write = "a1" if i == 1 else "a2"
            transitions.add((prev, read, write, state))
            prev = state
        transitions.add((prev, "", "a2", "s"))
        # abar_k: read once writing abar2, k-1 more abar2, then abar1
        prev = "s"
        for i in range(1, k):
            state = f"close{k}.{i}"
            read = f"abar{k}" if i == 1 else ""
            transitions.add((prev, read, "abar2", state))
            prev = state
        read = f"abar{k}" if k == 1 else ""
        transitions.add((prev, read, "abar2", f"close{k}.{k}"))
        transitions.add((f"close{k}.{k}", "", "abar1", "s"))
    return Transducer.build(source, target, "s", {"s"}, transitions)


# -- filter specifications -------------------------------------------------------

FILTER_KINDS = ("dyck", "symmetric", "symmetric_sharp", "s_sharp_up", "user_grammar", "counter")


class FilterSpec(Frozen):
    """A filter language: a built-in oracle, a user grammar, or a counter machine."""

    kind: str
    n: int = 0
    grammar: Optional[Cfg] = None
    automaton: Optional[CounterAutomaton] = None

    def _check(self) -> None:
        if self.kind not in FILTER_KINDS:
            raise InputError(f"unknown filter kind {self.kind!r}")
        if self.kind == "dyck" and self.n < 1:
            raise InputError("dyck filters need n >= 1")
        if self.kind == "user_grammar" and self.grammar is None:
            raise InputError("user_grammar filters need a grammar")
        if self.kind == "counter" and self.automaton is None:
            raise InputError("counter filters need a counter automaton")

    @classmethod
    def dyck(cls, n: int) -> "FilterSpec":
        return cls("dyck", n=n)

    @classmethod
    def symmetric(cls) -> "FilterSpec":
        return cls("symmetric")

    @classmethod
    def symmetric_sharp(cls) -> "FilterSpec":
        return cls("symmetric_sharp")

    @classmethod
    def s_sharp_up(cls) -> "FilterSpec":
        return cls("s_sharp_up")

    @classmethod
    def from_grammar(cls, grammar: Cfg) -> "FilterSpec":
        return cls("user_grammar", grammar=grammar)

    @classmethod
    def from_counter(cls, automaton: CounterAutomaton) -> "FilterSpec":
        return cls("counter", automaton=automaton)

    @cached_property
    def alphabet(self) -> tuple[str, ...]:
        """The filter's letters, built once per filter."""
        if self.kind == "dyck":
            return dyck_alphabet(self.n)
        if self.kind == "symmetric":
            return ALPHABET_X
        if self.kind == "symmetric_sharp":
            return ALPHABET_X + (SHARP,)
        if self.kind == "s_sharp_up":
            return ALPHABET_FULL
        if self.kind == "user_grammar":
            # sorted: grammar terminals are a set, and the alphabet order
            # feeds witness tie-breaking, which must be stable
            return tuple(sorted(self.grammar.terminals))
        return self.automaton.alphabet

    @cached_property
    def cnf_grammar(self) -> Cfg:
        """The CNF of filter_grammar(), built once per filter."""
        return self.filter_grammar().cnf()

    def filter_grammar(self) -> Cfg:
        """A grammar for the filter: the built-in one, the user's, or a
        counter machine's CounterAutomaton.to_cfg(); the s_sharp_up filter
        has none and raises UnsupportedFilterError."""
        if self.kind == "dyck":
            return dyck_grammar(self.n)
        if self.kind == "symmetric":
            return symmetric_grammar()
        if self.kind == "symmetric_sharp":
            return symmetric_sharp_grammar()
        if self.kind == "user_grammar":
            return self.grammar
        if self.kind == "counter":
            return self.automaton.to_cfg()
        raise UnsupportedFilterError(
            "the s_sharp_up filter has no grammar; it is a reduction target only"
        )

    def contains(self, w: Iterable[str]) -> bool:
        word = tuple(w)
        if self.kind == "dyck":
            return dyck_member(self.n, word)
        if self.kind == "symmetric":
            return sym_member(word)
        if self.kind == "symmetric_sharp":
            return s_sharp_member(word)
        if self.kind == "s_sharp_up":
            return s_sharp_up_member(word)
        if self.kind == "counter":
            return self.automaton.accepts(word)
        _check_word(word, self.grammar.terminals)
        return self.cnf_grammar.cyk(word)


# one shared instance per fixed name, so each builds its alphabet and CNF
# once per process
_NAMES = {
    "dyck1": FilterSpec.dyck(1),
    "dyck2": FilterSpec.dyck(2),
    "sym": FilterSpec.symmetric(),
    "symsharp": FilterSpec.symmetric_sharp(),
    "ssharpup": FilterSpec.s_sharp_up(),
}
# dyckN:k names at most this many bracket pairs: the filter's 2k letters
# are built at once, so an unbounded k would hang any command
_MAX_PAIRS = 10_000


def parse_filter_name(name: str) -> FilterSpec:
    """CLI filter names: dyck1, dyck2, dyckN:k, sym, symsharp, ssharpup."""
    if name in _NAMES:
        return _NAMES[name]
    if name.startswith("dyckN:"):
        try:
            n = int(name[6:])
        except ValueError:
            raise InputError(f"bad bracket-pair count in {name!r}") from None
        if n > _MAX_PAIRS:
            raise InputError(f"dyckN:k is limited to k <= {_MAX_PAIRS} bracket pairs, got {name!r}")
        return FilterSpec.dyck(n)
    raise InputError(
        f"unknown filter {name!r}; expected dyck1, dyck2, dyckN:k, sym, symsharp or ssharpup"
    )
