"""Context-free grammars: the Cfg value, Chomsky normal form, CYK
membership, shortest words and the text format.

- Cfg holds rules as (lhs, rhs) pairs where rhs is a tuple of symbols; the
  empty tuple is an epsilon rule.  The rule tuple keeps insertion order
  (first lhs is the axiom in the text format), Cfg.build drops repeated
  rules, and all derived maps are computed lazily.
- Cfg.cnf converts to CNF.  Cfg.cnf_table is the one check of the CNF
  contract (Cfg.is_cnf reads it) and the rule tables of Cfg.cyk and of the
  CFG∩NFA triple closure; NOT_CNF is the message of a grammar without one.
- Cfg.shortest_word is a least word, or None when the language is empty.
- fresh primes a name until it is unused, the naming rule of every
  construction that adds nonterminals.
- parse_grammar and format_grammar read and write the line format.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Optional

from .automata import reach
from .errors import ContractError, InputError
from .values import Frozen

# what cyk and the triple closure raise on a grammar whose cnf_table is None
NOT_CNF = "this operation expects a grammar in Chomsky normal form"


def fresh(base: str, taken: set[str]) -> str:
    """base, primed (') until it is not in taken, then added to taken: the
    naming rule of Cfg.cnf, CounterAutomaton.to_cfg, cs_transducer, bar_hillel."""
    name = base
    while name in taken:
        name += "'"
    taken.add(name)
    return name


class CnfTable(NamedTuple):
    """The rule tables of the CFG∩NFA triple closure and of CYK over a CNF
    grammar.

    Nonterminals are numbered in sorted name order: names[i] is number i,
    and index maps a name back to its number.  terminals are the sorted
    terminal names, a letter's rank being its position there.  letters
    maps each letter some rule derives to its rank word (the 1-tuple of
    its rank) and the numbers of the left-hand sides deriving it, in
    grammar order; epsilon holds the axiom's number when the axiom has an
    epsilon rule, and is empty otherwise.  For the binary rules A -> B C,
    by_left[B] lists (A, C), by_right[C] lists (A, B) and by_lhs[A] lists
    (B, C), each in grammar order.  A cache of the grammar's rules, not a
    value: Cfg.cnf_table builds it, for a grammar in CNF only.
    """

    names: tuple[str, ...]
    index: Mapping[str, int]
    terminals: tuple[str, ...]
    letters: Mapping[str, tuple[tuple[int], tuple[int, ...]]]
    epsilon: tuple[int, ...]
    by_left: tuple[tuple[tuple[int, int], ...], ...]
    by_right: tuple[tuple[tuple[int, int], ...], ...]
    by_lhs: tuple[tuple[tuple[int, int], ...], ...]


class Cfg(Frozen):
    nonterminals: frozenset[str]
    terminals: frozenset[str]
    rules: tuple[tuple[str, tuple[str, ...]], ...]
    axiom: str

    def _check(self) -> None:
        if self.axiom not in self.nonterminals:
            raise InputError(f"axiom {self.axiom!r} is not a nonterminal")
        overlap = self.nonterminals & self.terminals
        if overlap:
            raise InputError(f"symbols {sorted(overlap)} are both terminal and nonterminal")
        nonterminals = self.nonterminals
        symbols = nonterminals | self.terminals
        for lhs, rhs in self.rules:
            if lhs not in nonterminals:
                raise InputError(f"rule lhs {lhs!r} is not a nonterminal")
            for sym in rhs:
                if sym not in symbols:
                    raise InputError(f"rule symbol {sym!r} is not declared")

    @classmethod
    def build(
        cls,
        rules: Iterable[tuple[str, Iterable[str]]],
        axiom: str,
        nonterminals: Iterable[str] = (),
        terminals: Iterable[str] = (),
    ) -> "Cfg":
        """Construct a grammar; nonterminals default to the set of lhs symbols."""
        # duplicate rules removed, first occurrences kept
        normalized = tuple(dict.fromkeys((lhs, tuple(rhs)) for lhs, rhs in rules))
        nts = set(nonterminals) | {axiom} | {lhs for lhs, _ in normalized}
        terms = set(terminals) | {sym for _, rhs in normalized for sym in rhs if sym not in nts}
        return cls(frozenset(nts), frozenset(terms), normalized, axiom)

    @cached_property
    def ordered_nonterminals(self) -> tuple[str, ...]:
        """Nonterminals in a stable order: axiom, then first appearance in
        the rules (left-hand sides before body symbols), then the rest
        sorted.  Iterating the frozenset directly is hash-order."""
        order = [self.axiom]
        seen = {self.axiom}
        for lhs, rhs in self.rules:
            for sym in (lhs, *rhs):
                if sym in self.nonterminals and sym not in seen:
                    seen.add(sym)
                    order.append(sym)
        order.extend(sorted(self.nonterminals - seen))
        return tuple(order)

    # -- normal form -------------------------------------------------------

    def is_cnf(self) -> bool:
        """Chomsky normal form: every rule is A -> B C, A -> t, or axiom -> eps,
        and the axiom never appears on a right-hand side.  Read off
        cnf_table, which checks once per grammar."""
        return self.cnf_table is not None

    @cached_property
    def cnf_table(self) -> Optional[CnfTable]:
        """The rule tables of the triple closure and CYK, built once per
        grammar, or None when the grammar is not in CNF: the one check of
        the CNF contract, made by the pass that indexes the rules, which
        stops at the first rule of another shape."""
        names = tuple(sorted(self.nonterminals))
        index = {name: i for i, name in enumerate(names)}
        terminals = tuple(sorted(self.terminals))
        words = {t: (i,) for i, t in enumerate(terminals)}
        axiom = self.axiom
        letters: dict[str, list[int]] = {}
        epsilon: list[int] = []
        by_left: list[list[tuple[int, int]]] = [[] for _ in names]
        by_right: list[list[tuple[int, int]]] = [[] for _ in names]
        by_lhs: list[list[tuple[int, int]]] = [[] for _ in names]
        for lhs, rhs in self.rules:
            a = index[lhs]
            if not rhs and lhs == axiom:
                epsilon.append(a)
            elif len(rhs) == 1 and rhs[0] in words:
                letters.setdefault(rhs[0], []).append(a)
            elif len(rhs) == 2 and rhs[0] in index and rhs[1] in index and axiom not in rhs:
                b, c = index[rhs[0]], index[rhs[1]]
                by_left[b].append((a, c))
                by_right[c].append((a, b))
                by_lhs[a].append((b, c))
            else:
                return None
        return CnfTable(
            names,
            index,
            terminals,
            {t: (words[t], tuple(lhss)) for t, lhss in letters.items()},
            tuple(epsilon),
            tuple(map(tuple, by_left)),
            tuple(map(tuple, by_right)),
            tuple(map(tuple, by_lhs)),
        )

    def cnf(self) -> "Cfg":
        """Convert to Chomsky normal form.

        Steps, in order: retire an axiom that occurs on a right-hand side,
        eliminate epsilon rules (keeping axiom -> eps when the grammar
        derives the empty word), eliminate unit rules, split long rules,
        and finally replace terminals inside two-symbol bodies.
        Fresh nonterminals carry structured names derived from the content
        they stand for.

        The output is fixed byte for byte: its nonterminals, its rules in
        their order and its primed names.  The cs golden, the reduce-cs
        answers of bench/data/answers.json and every filter's reported
        nonterminals_created depend on it.
        """
        if self.is_cnf():
            return self
        taken = set(self.nonterminals) | set(self.terminals)
        rules = list(self.rules)
        axiom = self.axiom

        if any(axiom in rhs for _, rhs in rules):
            new_axiom = fresh(axiom + "0", taken)
            rules.insert(0, (new_axiom, (axiom,)))
            axiom = new_axiom

        # epsilon elimination
        nullable: set[str] = set()
        while more := {lhs for lhs, rhs in rules if lhs not in nullable and nullable.issuperset(rhs)}:
            nullable |= more
        expanded = [(axiom, ())] if axiom in nullable else []
        for lhs, rhs in rules:
            grown: list[tuple[str, ...]] = [()]
            for sym in rhs:
                kept = [body + (sym,) for body in grown]
                # kept before dropped: the order of counting drop masks with the
                # last nullable symbol as top bit, each repeat at its first place
                grown = list(dict.fromkeys(kept + grown)) if sym in nullable else kept
            expanded += [(lhs, body) for body in grown if body]
        rules = expanded

        # unit rule elimination
        nts = {lhs for lhs, _ in rules} | {axiom} | set(self.nonterminals)
        # unit edges, and the non-unit bodies of each nonterminal in rule order
        unit_out: dict[str, list[str]] = {}
        bodies: dict[str, list[tuple[str, ...]]] = {}
        for lhs, rhs in rules:
            if len(rhs) == 1 and rhs[0] in nts:
                unit_out.setdefault(lhs, []).append(rhs[0])
            else:
                bodies.setdefault(lhs, []).append(rhs)
        rules = [
            (a, rhs)
            for a in sorted(nts, key=lambda x: (x != axiom, x))
            for b in sorted(reach((a,), unit_out), key=lambda x: (x != a, x))
            for rhs in bodies.get(b, ())
        ]

        # split long rules, then drop the repeats of every step so far
        split: list[tuple[str, tuple[str, ...]]] = []
        chain_names: dict[tuple[str, ...], str] = {}
        for lhs, rhs in rules:
            while len(rhs) > 2:
                tail = rhs[1:]
                if tail not in chain_names:
                    # dots, not spaces: names must stay single tokens in the text format
                    chain_names[tail] = fresh("<" + ".".join(tail) + ">", taken)
                split.append((lhs, (rhs[0], chain_names[tail])))
                lhs, rhs = chain_names[tail], tail
            split.append((lhs, rhs))
        rules = list(dict.fromkeys(split))

        # terminals inside two-symbol bodies, each named on first need
        proxies: dict[str, str] = {}

        def proxy(sym: str) -> str:
            if sym in self.terminals and sym not in proxies:
                proxies[sym] = fresh("<" + sym + ">", taken)
            return proxies.get(sym, sym)

        rules = [(lhs, tuple(map(proxy, rhs)) if len(rhs) == 2 else rhs) for lhs, rhs in rules]
        rules += [(proxies[sym], (sym,)) for sym in sorted(proxies)]
        nts = {axiom, *(sym for lhs, rhs in rules for sym in (lhs, *rhs))} - self.terminals
        return Cfg(frozenset(nts), self.terminals, tuple(rules), axiom)

    # -- language queries ---------------------------------------------------

    def cyk(self, word: Iterable[str]) -> bool:
        """CYK membership (Younger, 1967) on the numbered rules of
        cnf_table; a grammar not in CNF is a ContractError."""
        table = self.cnf_table
        if table is None:
            raise ContractError(NOT_CNF)
        w = tuple(word)
        for sym in w:
            if sym not in self.terminals:
                raise InputError(f"word symbol {sym!r} is not a terminal")
        axiom = table.index[self.axiom]
        if not w:
            return axiom in table.epsilon
        letters, by_left = table.letters, table.by_left
        # spans[k - 1][i] holds the nonterminals deriving w[i:i + k]
        spans = [[set(letters[sym][1]) if sym in letters else set() for sym in w]]
        for span in range(2, len(w) + 1):
            row = []
            for i in range(len(w) - span + 1):
                cell: set[int] = set()
                for k in range(1, span):
                    right = spans[span - k - 1][i + k]
                    if right:
                        for b in spans[k - 1][i]:
                            for a, c in by_left[b]:
                                if c in right:
                                    cell.add(a)
                row.append(cell)
            spans.append(row)
        return axiom in spans[-1][0]

    @cached_property
    def _terminal_rank(self) -> Mapping[str, int]:
        return {t: i for i, t in enumerate(sorted(self.terminals))}

    def shortest_word(self) -> Optional[tuple[str, ...]]:
        """A shortest derivable word, or None when the language is empty.

        Ties are broken lexicographically over the sorted terminal names,
        matching the automaton-side convention, so values are stable.
        Uses Knuth's generalization of Dijkstra over (length, word) costs.
        """
        rank = self._terminal_rank

        def key(word: tuple[str, ...]) -> tuple:
            return (len(word), tuple(rank[s] for s in word))

        settled: dict[str, tuple[str, ...]] = {}
        while True:
            best_nt: Optional[str] = None
            best_word: Optional[tuple[str, ...]] = None
            for lhs, rhs in self.rules:
                if lhs in settled:
                    continue
                parts: list[tuple[str, ...]] = []
                for sym in rhs:
                    if sym in self.terminals:
                        parts.append((sym,))
                    elif sym in settled:
                        parts.append(settled[sym])
                    else:
                        break
                else:
                    candidate = tuple(s for part in parts for s in part)
                    if best_word is None or key(candidate) < key(best_word):
                        best_word = candidate
                        best_nt = lhs
            if best_nt is None:
                break
            settled[best_nt] = best_word  # type: ignore[assignment]
        return settled.get(self.axiom)


# -- text format --------------------------------------------------------------


def parse_grammar(text: str) -> Cfg:
    """Parse the line-oriented grammar format.

    Each line reads "LHS -> sym sym ... | sym ...": alternatives are split
    on "|", tokens on whitespace, and an empty alternative denotes epsilon.
    Lines starting with "#" are comments.  Nonterminals are exactly the
    symbols that occur on some left-hand side; the first lhs is the axiom.
    """
    rules: list[tuple[str, tuple[str, ...]]] = []
    axiom: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise InputError(f"line {lineno}: expected 'LHS -> ...', got {line!r}")
        head, _, body = line.partition("->")
        lhs = head.strip()
        if not lhs or len(lhs.split()) != 1:
            raise InputError(f"line {lineno}: left-hand side must be a single symbol")
        if axiom is None:
            axiom = lhs
        for alt in body.split("|"):
            rules.append((lhs, tuple(alt.split())))
    if axiom is None:
        raise InputError("grammar text contains no rules")
    return Cfg.build(rules, axiom)


def format_grammar(g: Cfg) -> str:
    """Render a grammar in the text format: the axiom's group first, then
    the other groups in the order of their first rule, then the
    nonterminals with no rules in sorted order.

    parse_grammar reads the text back with the same axiom, nonterminals
    and rules, plus "X -> X" for each nonterminal X with no rules, which
    keeps X a nonterminal and derives no word.  Its terminals are those
    that occur in some rule body: the text cannot declare another.  A
    symbol the format cannot carry (empty, holding whitespace or "|", or
    on a left-hand side holding "->" or starting with "#") is an
    InputError.
    """
    grouped: dict[str, list[tuple[str, ...]]] = {g.axiom: []}
    for lhs, rhs in g.rules:
        grouped.setdefault(lhs, []).append(rhs)
    for sym in sorted(g.nonterminals):
        grouped.setdefault(sym, [])
    lines = []
    for lhs, bodies in grouped.items():
        if "->" in lhs or lhs.startswith("#"):
            raise InputError(f"left-hand side {lhs!r} cannot be written in the grammar format")
        for sym in (lhs, *(sym for rhs in bodies for sym in rhs)):
            if not sym or "|" in sym or any(ch.isspace() for ch in sym):
                raise InputError(f"symbol {sym!r} cannot be written in the grammar format")
        lines.append(f"{lhs} -> " + " | ".join(" ".join(rhs) for rhs in bodies or [(lhs,)]))
    return "\n".join(lines) + "\n"
