"""Fuzz the three input grammars: group specs, class expressions, partitions.

Every input, well-formed or not, must come back as a value or raise
``SpecParseError`` or ``CapExceeded``, and no example may take longer than
``_DEADLINE_MS``.  Group specs go through ``make_group`` with
``config.ORDER_CAP`` patched to ``_ORDER_CAP`` inside the test body (a
function-scoped fixture under ``@given`` trips hypothesis's health check),
so well-formed specs are refused by the cap rather than built at full size.
Inputs are drawn from each grammar and then mutated a few characters at a
time, so malformed text near the grammar is covered too.  A
``perm(<n>; ...)`` degree above the cap is refused before any point is
allocated, so mutated degrees of any size are kept.
"""

from unittest import mock

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from flab import config
from flab.checks import parse_partition
from flab.errors import CapExceeded, SpecParseError
from flab.formations import parse_formation
from flab.groups import make_group

_DEADLINE_MS = 5000
_ORDER_CAP = 200
_FUZZ = settings(
    max_examples=300,
    deadline=_DEADLINE_MS,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

_numbers = st.one_of(
    st.integers(-3, 40),
    st.integers(0, 10**30),
    st.text("0123456789", min_size=1, max_size=8),
    st.sampled_from(["", "-1", "x", "1" * 5000]),
).map(str)


def _mutated(texts: st.SearchStrategy[str], alphabet: str) -> st.SearchStrategy[str]:
    """Texts from the grammar with up to three characters replaced or deleted."""
    edits = st.lists(st.tuples(st.integers(0, 400), st.sampled_from([""] + list(alphabet))), max_size=3)

    def apply(pair):
        text, changes = pair
        for pos, ch in changes:
            pos %= len(text) + 1
            text = text[:pos] + ch + text[pos + 1:]
        return text

    return st.tuples(texts, edits).map(apply)


# -- group specs ----------------------------------------------------------------

_SPEC_ALPHABET = "CDSAEQLpermsdxn0123456789()^,;|*->  "

_cycles = st.lists(st.lists(st.integers(-1, 13), min_size=1, max_size=5), max_size=3).map(
    lambda cycles: "".join("(" + " ".join(map(str, c)) + ")" for c in cycles) or "()"
)
_perm_atoms = st.builds(
    lambda n, gens: f"perm({n}; " + "; ".join(gens) + ")",
    st.integers(-1, 12),
    st.lists(_cycles, min_size=0, max_size=3),
)
_atoms = st.one_of(
    st.builds(lambda kind, n: kind + n, st.sampled_from("CDSA"), _numbers),
    st.builds("E({}^{})".format, _numbers, _numbers),
    st.sampled_from(["Q8", "SL(2,3)", "C1", "C2", "C3", "C4", "S3", "E(2^2)"]),
    _perm_atoms,
)
_words = st.one_of(
    st.just("1"),
    st.lists(
        st.builds("n{}^{}".format, st.integers(-1, 3), _numbers), min_size=1, max_size=3
    ).map("*".join),
)
_actions = st.lists(
    st.lists(st.builds("n{}->{}".format, st.integers(-1, 3), _words), min_size=1, max_size=3).map(",".join),
    min_size=1,
    max_size=3,
).map("|".join)


def _extend(specs: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.one_of(
        st.builds("{} x {}".format, specs, specs),
        st.builds("sd({},{},{})".format, specs, specs, _actions),
    )


_specs = st.recursive(_atoms, _extend, max_leaves=4)
_known_specs = st.sampled_from([
    "sd(C5,C4,n0->n0^2)",
    "sd(E(2^2),S3,n0->n1,n1->n0|n0->n1,n1->n0*n1)",
    "sd(C7,C3,n0->n0^2)",
    "perm(4; (0 1)(2 3); (0 2))",
    "C2 x C6",
])


@_FUZZ
@given(_mutated(st.one_of(_specs, _known_specs), _SPEC_ALPHABET))
def test_group_specs_parse_or_refuse(spec):
    with mock.patch.object(config, "ORDER_CAP", _ORDER_CAP):
        try:
            G = make_group(spec)
        except (SpecParseError, CapExceeded):
            return
        assert 1 <= G.order <= _ORDER_CAP


# -- class expressions ----------------------------------------------------------

_CLASS_ALPHABET = "NUSolGpicrs{}[];:,^0123456789 "

_primesets = st.lists(_numbers, max_size=4).map(lambda ps: "{" + ",".join(ps) + "}")
_blocks = st.builds(
    "{}{}".format, _primesets, st.sampled_from(["", ":gpi", ":spi", ":x", ":"])
)
_classes = st.one_of(
    st.sampled_from(["N", "U", "Sol", "Gpi{2,3}", "cross[{2,3}:gpi;{5}:gpi]", "cross[]"]),
    st.builds("N^{}".format, _numbers),
    st.builds("Gpi{}".format, _primesets),
    st.lists(_blocks, max_size=3).map(lambda bs: "cross[" + ";".join(bs) + "]"),
)


@_FUZZ
@given(_mutated(_classes, _CLASS_ALPHABET))
def test_class_expressions_parse_or_refuse(text):
    try:
        parse_formation(text)
    except SpecParseError:
        return


# -- partitions -----------------------------------------------------------------

_PARTITION_ALPHABET = "{},;:spigx0123456789 "

_partitions = st.one_of(
    st.sampled_from(["singletons", "{2,3}", "{2,3},{5}", "{2,5},{3,7}", "{}", "{0,1}"]),
    st.lists(_blocks, max_size=4).flatmap(
        lambda bs: st.sampled_from([",", ";", ", "]).map(lambda sep: sep.join(bs))
    ),
)


@_FUZZ
@given(_mutated(_partitions, _PARTITION_ALPHABET))
def test_partitions_parse_or_refuse(text):
    try:
        F = parse_partition(text)
    except SpecParseError:
        return
    seen: set[int] = set()
    for block in F.blocks:
        assert block.primes and not block.primes & seen
        seen |= block.primes
