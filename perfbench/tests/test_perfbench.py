"""Self-checks of the benchmark.

    python3 -m pytest perfbench/tests -q

They run small inputs through the benchmark's own worker, so they take
seconds, not the minutes of a real run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_CORPUS = ["C6", "D8", "S4", "C2 x C6", "sd(C5,C4,n0->n0^2)"]


@pytest.fixture(scope="module")
def reference():
    return workloads.load_suite_reference()


def test_generator_is_deterministic(reference):
    first = workloads.suite_sample(11, reference)
    assert workloads.suite_sample(11, reference) == first
    assert workloads.suite_sample(12, reference) != first


def test_generator_is_stratified(reference):
    groups = reference["groups"]
    specs = workloads.suite_sample(3, reference)
    fixed = [s for s in specs if groups[s]["fixed"]]
    assert len(fixed) == 14
    for (lo, hi), k in zip(workloads.SUITE_BANDS, workloads.band_draws(reference)):
        drawn = [s for s in specs if not groups[s]["fixed"] and lo <= groups[s]["order"] <= hi]
        assert len(drawn) == k


def test_reference_covers_the_builtin_corpus(reference):
    from flab.corpus import build_corpus

    corpus = build_corpus(324)
    assert list(reference["groups"]) == [e.spec for e in corpus]
    assert [g["order"] for g in reference["groups"].values()] == [e.group.order for e in corpus]


def test_gate_counts_changed_failed_and_crashed_rows(reference):
    specs = SMALL_CORPUS
    expected = workloads.expected_suite(reference, specs)
    text = _render(expected)
    assert workloads.judge("verify-suite", expected, text, 0).failed == 0
    attempted = sum(len(b.rows) for b in expected if b.assertive)
    row = expected[0].rows[1]
    assert workloads.judge("verify-suite", expected, text.replace(row, row + " x", 1), 0).failed == 1
    assert row.endswith(" yes")
    flipped = row[: -len("yes")] + "NO "
    assert workloads.judge("verify-suite", expected, text.replace(row, flipped, 1), 0).failed == 1
    assert workloads.judge("verify-suite", expected, text, 1).failed == attempted


def _render(blocks) -> str:
    chunks = []
    for b in blocks:
        lines = [b.header] + b.lead + b.rows + b.tail if b.assertive else [b.header]
        chunks.append("\n".join(lines) + "\n\n")
    return "".join(chunks)


def test_tracer_rebinds_every_imported_copy():
    import flab.checks
    import flab.formations
    import flab.groups
    import flab.hypercenter
    import flab.lattice
    import flab.series
    import flab.subgroups

    sites = {
        "closure_mask": ("subgroups", "lattice", "series", "formations", "checks"),
        "quotient": ("groups", "subgroups", "series", "formations", "hypercenter", "checks"),
        "_minimal_normal_above": ("series", "hypercenter"),
    }
    originals = {
        (name, mod): getattr(sys.modules[f"flab.{mod}"], name)
        for name, mods in sites.items()
        for mod in mods
    }
    tracer = tracing.start()
    try:
        for (name, mod), original in originals.items():
            bound = getattr(sys.modules[f"flab.{mod}"], name)
            assert bound is not original and bound.__wrapped__ is original, (name, mod)
    finally:
        tracer.uninstall()
    for (name, mod), original in originals.items():
        assert getattr(sys.modules[f"flab.{mod}"], name) is original


def _worker(tmp_path: Path, tag: str, corpus: Path, traced: bool) -> tuple[str, dict]:
    out, result = tmp_path / f"{tag}.out", tmp_path / f"{tag}.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", "verify-suite",
        "--input", str(corpus), "--out", str(out), "--result", str(result),
    ]
    if traced:
        cmd.append("--trace")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "7"
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=300)
    return out.read_text(), json.loads(result.read_text())


def test_traced_output_equals_untraced_and_counts_repeat(tmp_path, reference):
    corpus = tmp_path / "corpus.txt"
    workloads.write_corpus(corpus, 0, SMALL_CORPUS)
    plain, plain_result = _worker(tmp_path, "plain", corpus, traced=False)
    traced, first = _worker(tmp_path, "traced1", corpus, traced=True)
    _, second = _worker(tmp_path, "traced2", corpus, traced=True)
    assert plain_result["exit"] == 0
    assert traced == plain
    expected = workloads.expected_suite(reference, SMALL_CORPUS)
    assert workloads.judge("verify-suite", expected, plain, 0).failed == 0

    def counts(result):
        metrics = tracing.layer_metrics(result["trace"], 0.0, 0.0)
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

    assert counts(first) == counts(second)
    assert counts(first)["subgroups.closure_mask.calls"] > 0
    assert counts(first)["perms.mul.calls"] > 0
    assert first["trace"]["edges"] == second["trace"]["edges"]
