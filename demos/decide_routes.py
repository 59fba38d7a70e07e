"""One emptiness question, two decision routes.

The same NFA is intersected with the one-pair bracket language twice:
once through the product grammar and once through the bounded-counter
unfolding (method="counter" makes the engine decide against the counter
realization of the same language).  Both report the same verdict and
the same shortest witness; the stats give the sizes of the search
spaces each route walks implicitly (neither is built).
"""

from rrkit import Nfa, nrr_decide
from rrkit.filters import parse_filter_name

a = Nfa.build(
    ("a1", "abar1"),
    "q0",
    {"q2"},
    {
        ("q0", "a1", "q1"),
        ("q1", "a1", "q1"),
        ("q1", "abar1", "q2"),
        ("q2", "abar1", "q1"),
    },
)

dyck1 = parse_filter_name("dyck1")
grammar_route = nrr_decide(a, dyck1)
counter_route = nrr_decide(a, dyck1, method="counter")

for label, report in (("grammar", grammar_route), ("counter", counter_route)):
    print(f"{label} route: nonempty={report.nonempty} witness={report.witness}")
    print(f"  method={report.method} stats={report.stats}")

assert grammar_route.nonempty == counter_route.nonempty
assert grammar_route.witness == counter_route.witness
print("\nboth routes agree")
