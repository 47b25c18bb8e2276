"""Default size caps.

All caps are plain module constants, read at call time, with no per-call
override; only ``Group.elements(limit=)`` sets its own limit for one
enumeration.  A group's order is the number of its elements, so the order
cap is also the enumeration cap, for a spec and for each of its factors;
every group gets a dense index multiplication table, about 8 MB
at order 2000.  ``ORDER_CAP`` also bounds the degree of a
``perm(<n>; ...)`` spec, refused before any point is allocated: every group
within the cap acts faithfully on at most that many points (its regular
representation), however small its order.
"""

ORDER_CAP = 2000
"""Largest group order `make_group` will construct, the default limit of
``Group.elements`` (the enumeration stops past this many elements), and the
largest degree of a ``perm(...)`` spec."""

LATTICE_SUBGROUP_BUDGET = 20000
"""Abort subgroup enumeration past this many subgroups."""

LATTICE_JOIN_BUDGET = 2_000_000
"""Abort subgroup enumeration past this many joins formed, one per N_G(H)-orbit of atoms."""

CORPUS_MAX_ORDER = 324
"""Default order bound for the builtin verification corpus."""
