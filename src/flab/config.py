"""Default size caps.

All caps are plain module constants, read at call time; only the order
cap has a per-call override, ``make_group(order_cap=)`` and
``Group.elements(limit=)``.  A group's order is the number of its elements,
so the order cap is also the enumeration cap; every enumerated group gets a
dense index multiplication table, about 8 MB at order 2000.
"""

ORDER_CAP = 2000
"""Largest group order `make_group` will construct, and the default limit of
``Group.elements``: the enumeration stops past this many elements."""

PERM_DEGREE_CAP = ORDER_CAP
"""Largest degree of a ``perm(<n>; ...)`` spec; refused before any point is allocated.

Every group within ``ORDER_CAP`` acts faithfully on at most that many points
(its regular representation), so no constructible group needs more.
"""

LATTICE_SUBGROUP_BUDGET = 20000
"""Abort subgroup enumeration past this many subgroups."""

LATTICE_JOIN_BUDGET = 2_000_000
"""Abort subgroup enumeration past this many joins formed, one per N_G(H)-orbit of atoms."""

CORPUS_MAX_ORDER = 324
"""Default order bound for the builtin verification corpus."""
