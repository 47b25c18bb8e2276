import json

import pytest

from flab import lattice
from flab.checks import (
    DEFAULT_SUITE,
    PARTITION_PRESETS,
    default_suite,
    parse_partition,
    run_check,
    run_checks,
)
from flab.corpus import Corpus, CorpusEntry, build_corpus, load_corpus_file
from flab.errors import SpecParseError
from flab.formations import NIL, SUPERSOLUBLE, Cross, Gpi, SolPi, parse_formation
from flab.groups import Group
from flab.intersections import CYCLIC_PRIMARY, SYLOW
from flab.report import render_report


@pytest.fixture(scope="module")
def small_corpus():
    return build_corpus(40)


def test_build_corpus_bounds_and_content():
    c = build_corpus(24)
    names = set(c.names())
    for expected in ("S4", "SL(2,3)", "A4", "D8", "Q8", "C2xC6", "C7:C3", "C5:C4", "V4:S3"):
        assert expected in names, expected
    assert all(e.group.order <= 24 for e in c)
    assert all(e.provenance == "builtin" for e in c)


def test_build_corpus_trivial():
    c = build_corpus(1)
    assert c.names() == ["C1"]
    assert c.entries[0].group.order == 1


def test_build_corpus_extras():
    c = build_corpus(24, extra=["sd(C3,C2,n0->n0^-1)"])
    entry = c.get("sd(C3,C2,n0->n0^-1)")
    assert entry.provenance == "extra" and entry.group.order == 6


def test_corpus_frobenius_entry_is_centerless():
    c = build_corpus(20)
    frob = c.get("C5:C4").group
    assert frob.order == 20
    elems = frob.elements()
    center = [p for p in elems if all(p * q == q * p for q in elems)]
    assert len(center) == 1


def test_corpus_names_unique_and_sorted():
    c = build_corpus(60)
    names = c.names()
    assert len(names) == len(set(names))
    orders = [e.group.order for e in c]
    assert orders == sorted(orders)


def test_default_corpus_includes_module_products():
    c = build_corpus()
    assert c.get("E27:A4").group.order == 324
    assert c.get("E49:S3").group.order == 294
    assert c.get("S3xC5").group.order == 30


def test_corpus_file_loading(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("# comment line\nS4\nC6  # trailing comment\n\nsd(C5,C4,n0->n0^2)\n")
    c = load_corpus_file(path)
    assert [e.name for e in c] == ["C6", "sd(C5,C4,n0->n0^2)", "S4"]
    assert all(e.provenance == "file" for e in c)


def test_partition_parsing():
    # a partition is a cross class, parsed block by block as cross[...] is
    assert parse_partition("singletons") == Cross(())
    assert parse_partition("{2,3},{5}") == Cross((Gpi(frozenset({2, 3})), Gpi(frozenset({5}))))
    assert parse_partition("{2,3}:spi") == Cross((SolPi(frozenset({2, 3})),))
    assert parse_partition("{2,3}:spi; {5}:gpi") == parse_formation("cross[{2,3}:spi;{5}:gpi]")
    with pytest.raises(SpecParseError):
        parse_partition("{2,3},{3,5}")
    with pytest.raises(SpecParseError):
        parse_partition("2,3")


def test_run_check_rejects_unknown():
    with pytest.raises(SpecParseError):
        run_check("no-such-check", {}, build_corpus(6))


def test_baer_rows_have_expected_shape(small_corpus):
    r = run_check("baer-a1", {}, small_corpus)
    assert r.assertive and r.failed == 0
    s3_row = next(row for row in r.rows if row["group"] == "S3")
    assert s3_row["lhs_order"] == 1 and s3_row["rhs_order"] == 1
    assert s3_row["witness"] is None
    orders = [(row["order"], row["group"]) for row in r.rows]
    assert orders == sorted(orders)


def test_theorem_a_expected_rows():
    c = build_corpus(40)
    r = run_check("theorem-a", {"partition": PARTITION_PRESETS["{2,3},{5}"]}, c)
    assert r.failed == 0
    frob = next(row for row in r.rows if row["group"] == "C5:C4")
    assert frob["lhs_order"] == 1 and frob["rhs_order"] == 1
    s3c5 = next(row for row in r.rows if row["group"] == "S3xC5")
    assert s3c5["lhs_order"] == 30 and s3c5["rhs_order"] == 30


def test_theorem_a_soluble_blocks_probe(small_corpus):
    r = run_check("theorem-a", {"partition": parse_partition("{2,3,5}:spi")}, small_corpus)
    assert not r.assertive
    assert all(row.get("note") for row in r.rows)


def test_two_prime_soluble_blocks_are_assertive(small_corpus):
    # Burnside's p^a q^b theorem: a soluble block of two primes is Gpi of them
    runs = [
        run_check("theorem-a", {"partition": parse_partition("{2,3}:spi")}, small_corpus),
        run_check("theorem-a", {"partition": parse_partition("{2,3}:spi,{5,7}")}, small_corpus),
        run_check("theorem-b", {"formation": parse_formation("Spi{2,3}")}, small_corpus),
        run_check("theorem-b", {"formation": parse_formation("cross[{2,3}:spi]")}, small_corpus),
    ]
    for r in runs:
        assert r.assertive and r.failed == 0, r.params
        assert not any(row.get("note") for row in r.rows), r.params


def test_theorem_b_u_probe_is_informational(small_corpus):
    r = run_check("theorem-b", {"formation": SUPERSOLUBLE}, small_corpus)
    assert not r.assertive
    assert r.ok  # informational checks never fail the run


def test_prop2_check(small_corpus):
    r = run_check("prop2", {"formation": NIL, "sigma": SYLOW}, small_corpus)
    assert r.assertive and r.failed == 0


def test_lemmas_check_small():
    c = build_corpus(24)
    r = run_check("lemmas", {}, c)
    assert r.failed == 0
    a4_row = next(row for row in r.rows if row["group"] == "A4")
    assert "instances" in a4_row["note"]


def test_boundary_check_reports_a4(small_corpus):
    r = run_check("boundary", {"formation": SUPERSOLUBLE}, small_corpus)
    assert not r.assertive
    a4 = next(row for row in r.rows if row["group"] == "A4")
    assert a4["witness"]["primes"] == [3]


def test_report_json_schema(small_corpus):
    r = run_check("baer-a1", {}, small_corpus)
    payload = json.loads(render_report(r, "json"))
    assert payload["check"] == "baer-a1"
    assert set(payload["summary"]) == {"pass", "fail"}
    assert payload["summary"]["fail"] == 0
    assert isinstance(payload["elapsed_ms"], int)
    row = payload["rows"][0]
    for key in ("group", "order", "lhs_order", "rhs_order", "pass", "witness"):
        assert key in row


def test_report_table_format(small_corpus):
    r = run_check("cor-a4", {}, small_corpus)
    text = render_report(r, "table")
    lines = text.splitlines()
    assert lines[0].startswith("check cor-a4")
    assert lines[-1] == f"summary: pass={r.passed} fail={r.failed}"
    assert len(lines) == len(r.rows) + 3


def test_reports_are_deterministic(small_corpus):
    r1 = run_check("baer-a1", {}, small_corpus)
    r2 = run_check("baer-a1", {}, small_corpus)
    assert render_report(r1, "table") == render_report(r2, "table")
    j1 = json.loads(render_report(r1, "json"))
    j2 = json.loads(render_report(r2, "json"))
    j1f0 = {k: v for k, v in j1.items() if k != "elapsed_ms"}
    j2f0 = {k: v for k, v in j2.items() if k != "elapsed_ms"}
    assert j1f0 == j2f0


def test_failing_row_carries_witness():
    # force a failing probe row: the supersoluble subnormalizer probe on a
    # corpus containing the module-style product must expose a witness
    c = build_corpus(40, extra=["sd(E(3^3),A4,n0->n1,n1->n0^2*n1^2,n2->n0*n1*n2|n0->n0*n1,n1->n2,n2->n1^2*n2^2)"])
    r = run_check("theorem-b", {"formation": SUPERSOLUBLE}, c)
    failing = [row for row in r.rows if not row["pass"]]
    assert failing
    w = failing[0]["witness"]
    assert w["lhs_order"] != w["rhs_order"]
    assert w["lhs_fingerprint"] != w["rhs_fingerprint"]
    assert r.ok  # probe: exit status unaffected


def test_group_major_suite_matches_each_check_alone(small_corpus):
    together = run_checks(DEFAULT_SUITE, small_corpus)
    assert len(together) == len(DEFAULT_SUITE) == 22
    for (name, params), report in zip(DEFAULT_SUITE, together):
        alone = run_check(name, params, small_corpus)
        assert (report.check, report.params, report.assertive, report.rows) == (
            alone.check, alone.params, alone.assertive, alone.rows,
        ), name


def test_run_checks_frees_sections_and_keeps_each_groups_lattice(monkeypatch):
    # no identity compares two groups, so each group's quotients, factor
    # products, conjugation rows, table and inverses are freed once its
    # checks have run; its lattice and hypercenters stay, a second call on
    # the same corpus rebuilds no lattice, and a table read again is rebuilt
    # the same from the generators' rows
    released = []
    held = {}
    release = Group.release_working_set

    def counted(G):
        released.append(len(G._quotients) + len(G._factor_products))
        held[G.name] = (list(G.table), list(G.inverses), [G.conj_row(g) for g in range(G.order)])
        release(G)

    monkeypatch.setattr(Group, "release_working_set", counted)
    corpus = build_corpus(60)
    run_checks(DEFAULT_SUITE, corpus)
    assert len(released) == len(corpus) and sum(released) > 0
    for entry in corpus:
        G = entry.group
        assert not G._quotients and not G._factor_products, entry.name
        assert G._table is None and G._inv is None and not G._conj_rows, entry.name
        assert G._lattice is not None and G._hypercenters, entry.name
    for entry in corpus:
        G = entry.group
        table, inverses, conj_rows = held[G.name]
        assert G.table == table, entry.name
        assert [G.inv(i) for i in range(G.order)] == inverses, entry.name
        assert [G.conj_row(g) for g in range(G.order)] == conj_rows, entry.name

    enumerations = []
    enumerate_subgroups = lattice._enumerate_subgroups

    def counted_enumeration(G):
        enumerations.append(G.name)
        return enumerate_subgroups(G)

    tables = []
    build_table = Group._build_table

    def counted_table(G):
        tables.append(G.name)
        return build_table(G)

    monkeypatch.undo()
    monkeypatch.setattr(lattice, "_enumerate_subgroups", counted_enumeration)
    monkeypatch.setattr(Group, "_build_table", counted_table)
    corpus = build_corpus(60)
    assert run_check("baer-a1", {}, corpus).ok
    first_lattices = set(enumerations)
    del tables[:]
    assert run_check("cor-a4", {}, corpus).ok
    assert sorted(enumerations) == sorted(corpus.names())
    assert first_lattices and not first_lattices & set(tables)


def test_default_suite_configurations_are_pinned():
    gpi23 = Gpi(frozenset({2, 3}))
    cross235 = parse_formation("cross[{2,3}:gpi;{5}:gpi]")
    expected = [
        ("baer-a1", {}),
        ("cor-a4", {}),
        ("prop1", {"formation": NIL}),
        ("prop1", {"formation": SUPERSOLUBLE}),
        ("prop1", {"formation": gpi23}),
        ("prop1", {"formation": cross235}),
        ("theorem-a", {"partition": Cross(())}),
        ("theorem-a", {"partition": Cross((gpi23,))}),
        ("theorem-a", {"partition": Cross((gpi23, Gpi(frozenset({5}))))}),
        ("theorem-a", {"partition": Cross((Gpi(frozenset({2, 5})), Gpi(frozenset({3, 7}))))}),
        ("theorem-b", {"formation": NIL}),
        ("theorem-b", {"formation": cross235}),
        ("theorem-b", {"formation": SUPERSOLUBLE}),
        ("prop2", {"formation": NIL, "sigma": SYLOW}),
        ("prop2", {"formation": NIL, "sigma": CYCLIC_PRIMARY}),
        ("prop2", {"formation": SUPERSOLUBLE, "sigma": SYLOW}),
        ("sidorov", {}),
        ("lemmas", {}),
        ("boundary", {"formation": SUPERSOLUBLE}),
        ("delta-phi", {"formation": NIL}),
        ("delta-phi", {"formation": SUPERSOLUBLE}),
        ("delta-phi", {"formation": gpi23}),
    ]
    assert list(DEFAULT_SUITE) == expected
    reports = default_suite(build_corpus(6))
    assert [r.check for r in reports] == [name for name, _ in expected]


class _UntouchableGroup:
    def __getattr__(self, name):
        raise AssertionError(f"group read before the configurations were checked: {name}")


@pytest.mark.parametrize("position", [0, 1, 2])
def test_unknown_check_in_configurations_raises_before_any_group(position):
    configs = [("baer-a1", {}), ("lemmas", {})]
    configs.insert(position, ("no-such-check", {}))
    corpus = Corpus((CorpusEntry("X", "X", _UntouchableGroup(), "file"),))
    with pytest.raises(SpecParseError, match="no-such-check"):
        run_checks(configs, corpus)
