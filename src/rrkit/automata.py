"""Nondeterministic finite automata over token alphabets.

Words are tuples of symbol names (symbols are multi-character strings such
as "a1" or "abar2"), not single characters.  A transition label equal to
the empty string denotes an epsilon move.  Shortest-witness extraction
breaks ties lexicographically over the sorted letter names, whatever order
the alphabet is declared in, as the grammar side does.  Values are
immutable; every operation returns a new object.
"""
from __future__ import annotations

import json
from collections import deque
from functools import cached_property
from itertools import chain
from json.encoder import JSONEncoder, c_make_encoder, encode_basestring_ascii
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Union

from .errors import InputError
from .values import Frozen

EPSILON = ""


def reach(seeds: Iterable[Hashable], step: Mapping[Hashable, Iterable[Hashable]]) -> set:
    """The seeds plus everything reachable from them along `step`, which
    maps a node to its successors; a node missing from `step` has none."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for nxt in step.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def machine_states(
    initial: str, accepting: Iterable[str], states: Iterable[str], transitions: Iterable[tuple]
) -> frozenset[str]:
    """The state set a machine's `build` infers: `initial`, `accepting`,
    `states`, and the source t[0] and target t[-1] of every transition t."""
    found = {initial, *accepting, *states}
    for t in transitions:
        found.add(t[0])
        found.add(t[-1])
    return frozenset(found)


def require_strings(names: Iterable) -> None:
    """Reject a machine naming a state or symbol by anything but a string:
    names are joined into product names and JSON text later.  The machine
    constructors check their states and alphabets, and every other name
    when it fails the check against those."""
    for name in names:
        if not isinstance(name, str):
            raise InputError(f"state and symbol names must be strings, got {name!r}")


def check_machine(
    states: frozenset[str], initial: str, accepting: frozenset[str], *alphabets: tuple[str, ...]
) -> None:
    """The checks every machine constructor starts with: states and
    letters are strings, no alphabet repeats a letter or holds the epsilon
    label, and the initial and accepting states are states.  The string
    check runs in C: joining the names raises TypeError exactly when some
    name is not a str, and only then does require_strings walk them for
    the message."""
    try:
        for names in (states, *alphabets):
            "".join(names)
    except TypeError:
        require_strings(chain(states, *alphabets))
    for alphabet in alphabets:
        if len(set(alphabet)) != len(alphabet):
            raise InputError("alphabet contains duplicate symbols")
        if EPSILON in alphabet:
            raise InputError("the empty string is reserved for epsilon labels")
    if initial not in states:
        require_strings((initial,))
        raise InputError(f"initial state {initial!r} is not a state")
    bad = accepting - states
    if bad:
        require_strings(bad)
        raise InputError(f"accepting states {sorted(bad)} are not states")


def _require_fields(value: object, fields: tuple[str, ...], what: str) -> None:
    """Reject a loaded JSON value unless it is an object holding every
    one of `fields`; the message names `what` and the fields expected."""
    if not isinstance(value, dict):
        got = type(value).__name__
    else:
        missing = [field for field in fields if field not in value]
        if not missing:
            return
        got = f"one without {missing[0]!r}"
    expected = ", ".join(map(repr, fields[:-1])) + f" and {fields[-1]!r}"
    raise InputError(f"{what} must be an object with fields {expected}, got {got}")


def escape(name: str, separator: str = ",") -> str:
    """`name` with backslash and `separator` escaped by a backslash, so
    that names joined by `separator` split back one way only.  A name free
    of those two characters is not changed."""
    return name.replace("\\", "\\\\").replace(separator, "\\" + separator)


def pair_name(left: str, right: str) -> str:
    """The name "(left,right)" of a product state, with backslash and
    comma escaped in both parts, so that distinct pairs get distinct names."""
    return f"({escape(left)},{escape(right)})"


def synchronized_moves(
    start: tuple[str, str], left_moves: Iterable[tuple], right_moves: Iterable[tuple]
) -> Iterator[tuple]:
    """Every move out of a state pair reachable from `start` in the
    synchronized product of two machines.

    Moves are (src, middle, payload, dst).  A move whose middle symbol is
    EPSILON runs its machine alone; all other moves pair up on equal
    middle symbols.  Yields ((s1, s2), middle, payload1, payload2,
    (d1, d2)), with None as the payload of the machine that stays put.
    """
    left: dict[str, list[tuple]] = {}
    for src, middle, payload, dst in left_moves:
        left.setdefault(src, []).append((middle, payload, dst))
    right: dict[str, dict[str, list[tuple]]] = {}
    for src, middle, payload, dst in right_moves:
        right.setdefault(src, {}).setdefault(middle, []).append((payload, dst))
    seen = {start}
    todo = [start]
    while todo:
        src = s1, s2 = todo.pop()
        partners = right.get(s2, {})
        steps = [(EPSILON, None, p2, (s1, d2)) for p2, d2 in partners.get(EPSILON, ())]
        for middle, p1, d1 in left.get(s1, ()):
            if middle == EPSILON:
                steps.append((EPSILON, p1, None, (d1, s2)))
            else:
                for p2, d2 in partners.get(middle, ()):
                    steps.append((middle, p1, p2, (d1, d2)))
        for middle, p1, p2, dst in steps:
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
            yield src, middle, p1, p2, dst


def machine_json(
    fields: Mapping[str, Union[str, list[str]]],
    states: Iterable[str],
    transitions: Iterable[tuple[str, ...]],
) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True) plus a newline,
    byte for byte, for the document doc = {**fields, "states":
    sorted(states), "transitions": [...]} whose transitions are
    dict(zip(keys, t)) for t in sorted(transitions), where the keys are
    ("from", "label", "to") for an Nfa's 3-tuples and ("from", "read",
    "write", "to") for a transducer's 4-tuples.

    The writer owns that order.  It sorts the state names once, for the
    "states" list, and writes the transitions grouped under their source
    t[0] in that name order, sorting only a group of two or more, by the
    whole tuple.  That is the order of sorted(transitions), since tuples
    compare by their first item before the rest, provided every source is
    one of `states`, which the machine constructors check.  A reduction's
    output runs to tens of thousands of moves, most of them the one move
    out of a middle state, so the grouping does much less comparing than
    one sort of every tuple.  The grouping table is freed before any
    record is built, so that it does not add to the peak.

    Every value is a string or a list of strings.  The writer exists
    because json.dumps with an indent skips the C encoder and runs the
    pure-Python one, a generator step per token, and `rr reduce` outputs
    run to thousands of transitions.  Strings go through json's C
    escaper, the one json.dumps uses.  Each state name is escaped once,
    in the sorted list, and that text serves the "states" list and every
    record's "from" and "to": a name recurs in many records, and escaping
    it again per occurrence was most of the escaper's work.  Each record
    is one f-string, so the interpreter builds its text in one step from
    the fixed key text and the escaped values, with no per-record join or
    template.  Each record also carries the separator before it (",\n",
    or "[\n" for the first), so the records go straight into the single
    join for the document: joining them into a list text first would
    hold a second copy of every record at the peak.
    """
    names = sorted(states)
    groups: dict[str, list[tuple[str, ...]]] = {q: [] for q in names}
    for t in transitions:
        groups[t[0]].append(t)
    ordered: list[tuple[str, ...]] = []
    for group in groups.values():
        if len(group) > 1:
            group.sort()
        ordered += group
    del groups
    enc = encode_basestring_ascii
    name = dict(zip(names, map(enc, names)))
    values: dict[str, Iterable[str]] = {
        key: (enc(value),) if isinstance(value, str) else _json_list(map(enc, value))
        for key, value in fields.items()
    }
    values["states"] = _json_list(name.values())
    head = ',\n    {\n      "from": '
    if ordered and len(ordered[0]) == 3:
        records = [
            f'{head}{name[src]},\n      "label": {enc(label)},\n      "to": {name[dst]}\n    }}'
            for src, label, dst in ordered
        ]
    else:
        records = [
            f'{head}{name[src]},\n      "read": {enc(read)},\n      "to": {name[dst]},'
            f'\n      "write": {enc(write)}\n    }}'
            for src, read, write, dst in ordered
        ]
    del ordered, name
    if records:
        records[0] = "[\n" + records[0][2:]
        records.append("\n  ]")
    values["transitions"] = records or ("[]",)
    return _json_object(values)


def report_json(doc: Mapping[str, object]) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True) plus a newline,
    byte for byte, for a dict whose values are scalars (strings, numbers,
    booleans and None), lists of strings, or dicts of scalars: the shapes
    of the reports `rr` prints with --json and --stats.

    json.dumps with an indent runs the pure-Python encoder, a generator
    step per token.  Here each string goes through json's C escaper and
    each other scalar through json's C encoder, the ones json.dumps uses,
    and machine_json's assembly joins the pieces once.
    """
    return _json_object({
        key: _json_list(map(encode_basestring_ascii, value)) if isinstance(value, list)
        else _json_scalars(value) if isinstance(value, dict)
        else _encode_scalar(value, 0)
        for key, value in doc.items()
    })


# json's C encoder without an indent: on a scalar it returns the list of
# the one JSON token json.dumps writes for it
_encode_scalar = c_make_encoder(
    None, JSONEncoder().default, encode_basestring_ascii, None, ": ", ", ", True, False, True
)


def _json_object(values: Mapping[str, Iterable[str]]) -> str:
    """The text of an indented JSON object plus a newline, from the pieces
    of each value at the first level of indentation, keys sorted."""
    if not values:
        return "{}\n"
    enc = encode_basestring_ascii
    text = []
    separator = "{\n  "
    for key in sorted(values):
        text.append(f"{separator}{enc(key)}: ")
        text += values[key]
        separator = ",\n  "
    text.append("\n}\n")
    return "".join(text)


def _json_scalars(fields: Mapping[str, object]) -> tuple[str, ...]:
    """The pieces of a dict of scalars at the second level of indentation."""
    text = ",\n    ".join(
        f"{encode_basestring_ascii(key)}: {_encode_scalar(value, 0)[0]}"
        for key, value in sorted(fields.items())
    )
    return ("{\n    ", text, "\n  }") if text else ("{}",)


def _json_list(escaped: Iterable[str]) -> tuple[str, ...]:
    """The pieces of a list at the second level of indentation, from its
    items' escaped text."""
    text = ",\n    ".join(escaped)
    return ("[\n    ", text, "\n  ]") if text else ("[]",)


class Nfa(Frozen):
    states: frozenset[str]
    alphabet: tuple[str, ...]
    initial: str
    accepting: frozenset[str]
    transitions: frozenset[tuple[str, str, str]]

    def _check(self) -> None:
        check_machine(self.states, self.initial, self.accepting, self.alphabet)
        symbols = set(self.alphabet)
        states = self.states
        for src, label, dst in self.transitions:
            if src not in states or dst not in states:
                require_strings((src, label, dst))
                raise InputError(f"transition ({src!r},{label!r},{dst!r}) uses unknown states")
            if label != EPSILON and label not in symbols:
                require_strings((label,))
                raise InputError(f"transition label {label!r} is not in the alphabet")

    @classmethod
    def build(
        cls,
        alphabet: Iterable[str],
        initial: str,
        accepting: Iterable[str],
        transitions: Iterable[tuple[str, str, str]],
        states: Iterable[str] = (),
    ) -> "Nfa":
        """Construct an NFA, inferring the state set from the pieces given."""
        trans = frozenset((src, label, dst) for src, label, dst in transitions)
        sts = machine_states(initial, accepting, states, trans)
        return cls(sts, tuple(alphabet), initial, frozenset(accepting), trans)

    # -- adjacency caches ------------------------------------------------

    @cached_property
    def _eps_out(self) -> Mapping[str, tuple[str, ...]]:
        out: dict[str, list[str]] = {}
        for src, label, dst in self.transitions:
            if label == EPSILON:
                out.setdefault(src, []).append(dst)
        return {q: tuple(sorted(ds)) for q, ds in out.items()}

    @cached_property
    def _sym_out(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        out: dict[tuple[str, str], list[str]] = {}
        for src, label, dst in self.transitions:
            if label != EPSILON:
                out.setdefault((src, label), []).append(dst)
        return {k: tuple(sorted(ds)) for k, ds in out.items()}

    @cached_property
    def _closure(self) -> Mapping[str, tuple[str, ...]]:
        """Each state's epsilon closure, sorted."""
        if not self._eps_out:
            return {q: (q,) for q in self.states}
        return {q: tuple(sorted(reach((q,), self._eps_out))) for q in self.states}

    @cached_property
    def _closed_step(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        """For each (q, letter) with some, the sorted states reachable from
        q by epsilon moves, one move on the letter and epsilon moves: the
        table _sym_out itself when the machine has no epsilon move."""
        if not self._eps_out:
            return self._sym_out
        by_src: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
        for (src, label), dsts in self._sym_out.items():
            by_src.setdefault(src, []).append((label, dsts))
        closure = self._closure
        out: dict[tuple[str, str], set[str]] = {}
        for q in self.states:
            for mid in closure[q]:
                for label, dsts in by_src.get(mid, ()):
                    targets = out.setdefault((q, label), set())
                    for dst in dsts:
                        targets.update(closure[dst])
        return {k: tuple(sorted(ts)) for k, ts in out.items()}

    @cached_property
    def _state_rank(self) -> Mapping[str, int]:
        """Each state's position in sorted name order."""
        return {q: i for i, q in enumerate(sorted(self.states))}

    @cached_property
    def _letters(self) -> frozenset[str]:
        """The alphabet as a set, for membership tests."""
        return frozenset(self.alphabet)

    def eps_closure(self, states: Iterable[str]) -> frozenset[str]:
        """All states reachable from `states` through epsilon moves alone."""
        return frozenset(reach(states, self._eps_out))

    def step(self, states: Iterable[str], symbol: str) -> frozenset[str]:
        """Epsilon-closed successor set after reading one symbol."""
        if symbol not in self._letters:
            raise InputError(f"symbol {symbol!r} is not in the alphabet")
        after = set()
        for q in states:
            after.update(self._sym_out.get((q, symbol), ()))
        return self.eps_closure(after)

    # -- language operations ---------------------------------------------

    def accepts(self, word: Iterable[str]) -> bool:
        """True when some run over the word ends accepting.  Every letter
        is checked against the alphabet before any is read, so a foreign
        letter raises InputError even after the run has died."""
        word = tuple(word)
        for symbol in word:
            if symbol not in self._letters:
                raise InputError(f"symbol {symbol!r} is not in the alphabet")
        current = self.eps_closure({self.initial})
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)

    def distances_to_accepting(self) -> dict[str, int]:
        """Minimum number of symbol moves from each state to acceptance.

        Epsilon moves are free; unreachable states are absent from the map.
        Computed by a 0/1 BFS over reversed transitions.
        """
        rev_free: dict[str, list[str]] = {}
        rev_sym: dict[str, list[str]] = {}
        for src, label, dst in self.transitions:
            (rev_free if label == EPSILON else rev_sym).setdefault(dst, []).append(src)
        dist: dict[str, int] = {q: 0 for q in self.accepting}
        dq: deque[str] = deque(self.accepting)
        while dq:
            q = dq.popleft()
            d = dist[q]
            for p in rev_free.get(q, ()):
                if p not in dist or dist[p] > d:
                    dist[p] = d
                    dq.appendleft(p)
            for p in rev_sym.get(q, ()):
                if p not in dist or dist[p] > d + 1:
                    dist[p] = d + 1
                    dq.append(p)
        return dist

    def shortest_witness(self) -> Optional[tuple[str, ...]]:
        """A shortest accepted word, or None if the language is empty.

        Among all accepted words of minimum length, returns the smallest one
        in the lexicographic order over the sorted letter names, whatever
        the declared alphabet order: the order of Cfg.shortest_word.
        """
        back = self.distances_to_accepting()
        current = self.eps_closure({self.initial})
        best = min((back[q] for q in current if q in back), default=None)
        if best is None:
            return None
        word: list[str] = []
        remaining = best
        letters = sorted(self.alphabet)
        while remaining > 0:
            for symbol in letters:
                after = self.step(current, symbol)
                if any(back.get(q, -1) == remaining - 1 for q in after):
                    word.append(symbol)
                    current = after
                    remaining -= 1
                    break
            else:  # pragma: no cover - inconsistent distance map
                raise AssertionError("witness extraction lost the target distance")
        return tuple(word)

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_dict(cls, data: object) -> "Nfa":
        """The NFA a loaded JSON document describes, in the form to_json
        writes.  A document of another shape is an InputError that names
        the shape expected."""
        _require_fields(data, ("states", "alphabet", "initial", "accepting", "transitions"),
                        "an automaton")
        # a string in a list field would otherwise be read as its characters
        for field in ("states", "alphabet", "accepting", "transitions"):
            if not isinstance(data[field], list):
                kind = type(data[field]).__name__
                raise InputError(f"field {field!r} must be a list, got {kind}")
        try:
            return cls(
                frozenset(data["states"]),
                tuple(data["alphabet"]),
                data["initial"],
                frozenset(data["accepting"]),
                frozenset((t["from"], t["label"], t["to"]) for t in data["transitions"]),
            )
        except (KeyError, TypeError):
            # only a bad document gets here, so a well-formed one pays for
            # no check the constructor makes anyway: a move that is not an
            # object with its three fields, or a name that is not a string
            # (a list in place of one is unhashable)
            moves = data["transitions"]
            for i, t in enumerate(moves):
                _require_fields(t, ("from", "label", "to"), f"transition {i}")
            require_strings(chain(data["states"], data["alphabet"], data["accepting"],
                                  (data["initial"],),
                                  chain.from_iterable((t["from"], t["label"], t["to"]) for t in moves)))
            raise

    def to_json(self) -> str:
        return machine_json(
            {
                "alphabet": list(self.alphabet),
                "initial": self.initial,
                "accepting": sorted(self.accepting),
            },
            self.states,
            self.transitions,
        )

    @classmethod
    def from_json(cls, text: str) -> "Nfa":
        return cls.from_dict(json.loads(text))
