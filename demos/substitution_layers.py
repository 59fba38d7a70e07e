"""Deciding against a substituted language without building it.

The outer language is the one-pair bracket language; its opening letter
is substituted by bracket words again and its closing letter by mirror
words.  The engine never constructs the substituted language: it
collapses the machine, finding in one run of the triple closure over
each substituent's grammar every state pair some word of that
substituent connects (a counter machine's grammar is its triple
construction), then decides the outer question on the collapsed machine.
"""

from rrkit import Nfa, decide_substituted, substitution_collapse
from rrkit.filters import parse_filter_name

d1 = parse_filter_name("dyck1")
sym = parse_filter_name("sym")

a = Nfa.build(
    ("a1", "abar1", "x1", "x2", "xbar1", "xbar2"),
    "q0",
    {"q3"},
    {
        ("q0", "a1", "q1"),
        ("q1", "abar1", "q1"),
        ("q1", "x1", "q2"),
        ("q2", "xbar1", "q3"),
    },
)

collapsed = substitution_collapse(a, {"a1": d1, "abar1": sym})
print("collapsed transitions (outer letter, state pair):")
for src, label, dst in sorted(collapsed.transitions):
    print(f"  {src} --{label}--> {dst}")

report = decide_substituted(a, d1, {"a1": d1, "abar1": sym})
print(f"\nnonempty: {report.nonempty}")
print(f"outer witness: {' '.join(report.witness)}")
print(f"stats: {report.stats}")
