"""How deep can a small machine push the shortest witness?

The rational index at n is the worst case, over n-state machines meeting
the filter, of the shortest word in the intersection.  Exhaustive mode
decides every machine shape at once: one shortest-length closure over
the filter's grammar carries each set of moves as one bit of an integer.
Sampled mode estimates the same quantity from random machines, decided
at once in the same way, one bit per machine, and is never above the
true value.
"""

from rrkit import rational_index
from rrkit.filters import parse_filter_name

f = parse_filter_name("dyck1")

print("exhaustive:")
for n in (1, 2, 3):
    print(f"  rho({n}) = {rational_index(f, n)}")

print("sampled (200 machines per size, seed 0):")
for n in (2, 3, 4):
    print(f"  rho({n}) >= {rational_index(f, n, sample=200)}")
