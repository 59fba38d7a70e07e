"""How deep can a small machine push the shortest witness?

The rational index at n is the worst case, over n-state machines meeting
the filter, of the shortest word in the intersection.  Exhaustive mode
sweeps every machine shape, deciding one per renaming and none that
contains a smaller machine meeting the filter; sampled mode estimates
the same quantity from random machines and is never above the true
value.
"""

from rrkit import rational_index
from rrkit.filters import parse_filter_name

f = parse_filter_name("dyck1")

print("exhaustive:")
for n in (1, 2, 3):
    print(f"  rho({n}) = {rational_index(f, n, 'exhaustive')}")

print("sampled (200 machines per size, seed 0):")
for n in (2, 3, 4):
    print(f"  rho({n}) >= {rational_index(f, n, 'sample', seed=0)}")
