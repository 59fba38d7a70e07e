"""Independent answer checker for the benchmark.

Nothing here imports rrkit: automata are simulated from their JSON
dictionaries, and filter membership is decided by direct stack and mirror
checks written for this file.  `check` compares one request's exit code
and output with its recorded known answer and with these oracles.
"""
from __future__ import annotations

import hashlib
import json
from typing import Iterator, Optional

EPSILON = ""

SHARP_ALPHABET = frozenset(("#", "x1", "x2", "xbar1", "xbar2"))


# -- automata ------------------------------------------------------------------


class Automaton:
    """An NFA read from the rrkit JSON format, with epsilon closure."""

    def __init__(self, data: dict):
        self.initial = data["initial"]
        self.accepting = frozenset(data["accepting"])
        self.alphabet = tuple(data["alphabet"])
        self.eps: dict[str, list[str]] = {}
        self.moves: dict[tuple[str, str], list[str]] = {}
        for t in data["transitions"]:
            if t["label"] == EPSILON:
                self.eps.setdefault(t["from"], []).append(t["to"])
            else:
                self.moves.setdefault((t["from"], t["label"]), []).append(t["to"])

    def closure(self, states) -> frozenset:
        seen = set(states)
        stack = list(seen)
        while stack:
            for nxt in self.eps.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def step(self, states, symbol: str) -> frozenset:
        after = set()
        for q in states:
            after.update(self.moves.get((q, symbol), ()))
        return self.closure(after)

    def accepts(self, word) -> bool:
        current = self.closure({self.initial})
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)

    def words_by_length(self, max_len: int, budget: int) -> Iterator[tuple[int, list]]:
        """Yield (length, accepted words of that length) for length 0, 1, ...

        Stops after max_len, or before a level whose live prefixes would
        exceed the budget; the caller sees how far the enumeration got.
        """
        level = [((), self.closure({self.initial}))]
        for length in range(max_len + 1):
            yield length, [w for w, states in level if states & self.accepting]
            nxt = []
            for word, states in level:
                for symbol in self.alphabet:
                    after = self.step(states, symbol)
                    if after:
                        nxt.append((word + (symbol,), after))
            if len(nxt) > budget:
                return
            level = nxt


# -- filter membership -----------------------------------------------------------


def dyck(word, pairs: int) -> bool:
    stack = []
    for sym in word:
        if sym.startswith("abar"):
            kind = sym[4:]
            if not stack or stack.pop() != kind:
                return False
        elif sym.startswith("a") and sym[1:].isdigit() and 1 <= int(sym[1:]) <= pairs:
            stack.append(sym[1:])
        else:
            return False
    return not stack


def mirror(word) -> bool:
    """x_i ... x_j xbar_j ... xbar_i over x1, x2."""
    n = len(word)
    if n % 2:
        return False
    for k in range(n // 2):
        if word[k] not in ("x1", "x2") or word[n - 1 - k] != "xbar" + word[k][1:]:
            return False
    return True


def sharp_mirror(word) -> bool:
    """A mirror word once # is deleted, with no trailing run of #."""
    if word and word[-1] == "#":
        return False
    if any(sym not in SHARP_ALPHABET for sym in word):
        return False
    return mirror(tuple(s for s in word if s != "#"))


def member(filter_name: str, word) -> bool:
    word = tuple(word)
    if filter_name == "dyck1":
        return dyck(word, 1)
    if filter_name == "dyck2":
        return dyck(word, 2)
    if filter_name == "sym":
        return mirror(word)
    if filter_name == "symsharp":
        return sharp_mirror(word)
    raise ValueError(f"no membership check for filter {filter_name!r}")


def mirror_star(word) -> bool:
    """A concatenation of mirror words (the empty word included)."""
    n = len(word)
    ok = [True] + [False] * n
    for end in range(2, n + 1, 2):
        ok[end] = any(ok[start] and mirror(word[start:end]) for start in range(0, end, 2))
    return ok[n]


def substituted_member(word) -> bool:
    """Membership in sigma(D1) with sigma(a1), sigma(abar1) = D1 and Sym.

    Both substituent languages hold the empty word, so padding outer
    letters with empty images balances any outer word; sigma(D1) is then
    (D1 ∪ Sym)*, i.e. every maximal bracket block is balanced and every
    maximal x block is a concatenation of mirror words.
    """
    blocks: list[list[str]] = []
    for sym in word:
        kind = sym in ("a1", "abar1")
        if blocks and (blocks[-1][0] in ("a1", "abar1")) == kind:
            blocks[-1].append(sym)
        else:
            blocks.append([sym])
    for block in blocks:
        if block[0] in ("a1", "abar1"):
            if not dyck(block, 1):
                return False
        elif not mirror_star(tuple(block)):
            return False
    return True


# -- known answers -------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shortest_member(a: Automaton, test, max_len: int, budget: int) -> tuple[Optional[tuple], int]:
    """(len, lex)-least accepted word passing `test`, and the length the
    enumeration covered; the word is None when none exists up to it."""
    covered = -1
    for length, words in a.words_by_length(max_len, budget):
        covered = length
        hits = [w for w in words if test(w)]
        if hits:
            return min(hits), covered
    return None, covered


def check(item: dict, answer: dict, code: int, out: str) -> Optional[str]:
    """None when the output matches the known answer, else the reason."""
    if code != answer["exit"]:
        return f"exit code {code}, expected {answer['exit']}"
    kind = item["kind"]
    if kind == "witness":
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON"
        return check_witness(item, answer, report.get("nonempty"), report.get("witness"))
    if kind == "substituted":
        nonempty, witness = out
        if nonempty != answer["nonempty"]:
            return f"verdict {nonempty}, expected {answer['nonempty']}"
        if witness != answer["witness"]:
            return f"witness {witness}, expected {answer['witness']}"
        if witness is not None and not dyck(witness, 1):
            return "witness is not a word of the outer filter"
        return None
    if kind == "reduce":
        return None if digest(out) == answer["sha256"] else "output digest differs"
    if kind == "index":
        return None if out.strip() == str(answer["index"]) else f"index {out.strip()!r}, expected {answer['index']}"
    if kind == "check_log2":
        verdict = out.strip()
        return None if verdict == answer["verdict"] else f"verdict {verdict!r}, expected {answer['verdict']}"
    if kind == "decide_log2":
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return "output is not JSON"
        if report.get("nonempty") is not answer["nonempty"]:
            return f"verdict {report.get('nonempty')}, expected {answer['nonempty']}"
        return None
    raise ValueError(f"unknown request kind {kind!r}")


def check_witness(item: dict, answer: dict, nonempty, witness) -> Optional[str]:
    if nonempty is not answer["nonempty"]:
        return f"verdict {nonempty}, expected {answer['nonempty']}"
    if not nonempty:
        return None if witness is None else "an empty verdict carries a witness"
    if not isinstance(witness, list):
        return "a nonempty verdict carries no witness"
    if witness != answer["witness"]:
        return f"witness {witness}, expected {answer['witness']}"
    if not Automaton(item["nfa"]).accepts(witness):
        return "witness is rejected by the automaton"
    if not member(item["filter"], witness):
        return "witness is not in the filter"
    return None
