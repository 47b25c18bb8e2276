"""Workloads of the flab benchmark: inputs from a seed, and the correctness gate.

Three workloads, each one request run in a fresh Python process:

* ``verify-suite``: ``flab verify`` with all checks over a corpus file drawn
  from the builtin corpus specs by seed;
* ``baer-200``: ``build_corpus(200)`` then the ``baer-a1`` and ``cor-a4``
  checks, as acceptance criteria 1-2 run them;
* ``analyze-large``: ``flab analyze --group D902``.

Every output is compared row by row with a reference recorded by
``record.py``.  For ``verify-suite`` the reference holds the rows of every
corpus group separately, so the expected output for any sample is assembled
from it.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SUITE_REFERENCE = REFERENCE_DIR / "verify-suite-rows.json.gz"

WORKLOADS = ("verify-suite", "baer-200", "analyze-large")

# The order bands where the lemma suite switches from exhaustive to (3,10)
# to (2,6) sampling.  One request aims at SUITE_WORK_S seconds of recorded
# work, split between the bands as in the full order-324 run (band_draws).
SUITE_BANDS = ((1, 60), (61, 150), (151, 324))
SUITE_WORK_S = 11.0
SUITE_MIN_DRAW = 4
SUITE_BALANCE = 0.01

BAER_MAX_ORDER = 200
BAER_CHECKS = ("baer-a1", "cor-a4")
ANALYZE_ARGV = ("analyze", "--group", "D902", "--formation", "N", "--sigma", "sylow")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def load_suite_reference() -> dict:
    with gzip.open(SUITE_REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _bands(groups: dict, fixed: bool) -> list[list[str]]:
    return [
        sorted(spec for spec, g in groups.items() if g["fixed"] == fixed and lo <= g["order"] <= hi)
        for lo, hi in SUITE_BANDS
    ]


def band_draws(reference: dict) -> list[int]:
    """How many groups the seed draws from each order band.

    The recorded seconds (each group's least suite time alone) give each
    band's share of the full order-324 run.  A band gets that share of
    ``SUITE_WORK_S``, less the work of the fixed products that fall in it,
    in groups of the band's mean cost, but at least ``SUITE_MIN_DRAW``.  The
    fixed products alone exceed the smallest band's share, so that band is
    over-represented (``DESIGN.md`` gives both sets of shares).
    """
    groups = reference["groups"]
    total = sum(g["seconds"] for g in groups.values())
    draws = []
    for drawn, fixed in zip(_bands(groups, False), _bands(groups, True)):
        cost = [groups[s]["seconds"] for s in drawn]
        fixed_work = sum(groups[s]["seconds"] for s in fixed)
        share = (sum(cost) + fixed_work) / total
        draws.append(max(SUITE_MIN_DRAW, round((share * SUITE_WORK_S - fixed_work) * len(cost) / sum(cost))))
    return draws


def suite_sample(seed: int, reference: dict) -> list[str]:
    """The seeded corpus of ``verify-suite``: a stratified sample of the
    builtin specs plus every fixed product, in corpus-file order.

    Each order band contributes ``band_draws`` groups drawn at random.  A
    band's draw is kept only if its recorded suite seconds and its recorded
    set-up seconds (each group's least time alone when the reference was
    recorded) are both within ``SUITE_BALANCE`` of the band's expected
    totals, so that seeds change which groups run but hardly how much work,
    nor how it is shared between the bands.
    """
    rng = random.Random(seed)
    groups = reference["groups"]
    chosen = [spec for spec, g in groups.items() if g["fixed"]]
    for band, k in zip(_bands(groups, False), band_draws(reference)):
        targets = {key: k * sum(groups[s][key] for s in band) / len(band) for key in ("seconds", "setup_seconds")}
        for _ in range(100_000):
            drawn = rng.sample(band, k)
            if all(
                abs(sum(groups[s][key] for s in drawn) - target) <= SUITE_BALANCE * target
                for key, target in targets.items()
            ):
                break
        else:
            raise RuntimeError(f"no balanced sample for seed {seed}")
        chosen += drawn
    return sorted(chosen, key=lambda s: (groups[s]["order"], s))


def write_corpus(path: Path, seed: int, specs: list[str]) -> None:
    lines = [f"# verify-suite corpus, seed {seed}"] + specs
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Expected outputs
# ---------------------------------------------------------------------------


@dataclass
class Block:
    """One report of the expected output; informational ones are not compared."""

    header: str
    rows: list[str] = field(default_factory=list)
    assertive: bool = True
    lead: list[str] = field(default_factory=list)
    tail: list[str] = field(default_factory=list)


def expected_suite(reference: dict, specs: list[str]) -> list[Block]:
    groups = reference["groups"]
    ordered = sorted(specs, key=lambda s: (groups[s]["order"], s))
    blocks = []
    for i, report in enumerate(reference["reports"]):
        if not report["assertive"]:
            blocks.append(Block(report["header"], assertive=False))
            continue
        rows = [row for spec in ordered for row in groups[spec]["rows"][i]]
        summary = f"summary: pass={len(rows)} fail=0"
        blocks.append(Block(report["header"], rows, lead=[report["columns"]], tail=[summary]))
    return blocks


def expected_recorded(name: str) -> list[Block]:
    """Blocks of a fixed-input workload, from its recorded output file."""
    text = (REFERENCE_DIR / f"{name}.txt").read_text()
    if name == "analyze-large":
        lines = text.splitlines()
        return [Block(lines[0], lines[2:], lead=[lines[1]])]
    return [_table_block(chunk.splitlines()) for chunk in _chunks(text)]


def _chunks(text: str) -> list[str]:
    return [c for c in text.split("\n\n") if c.strip()]


def _table_block(lines: list[str]) -> Block:
    assertive = not lines[0].endswith("(informational)")
    return Block(lines[0], lines[2:-1], assertive, lead=[lines[1]], tail=[lines[-1]])


# ---------------------------------------------------------------------------
# Gate
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]


def judge(name: str, expected: list[Block], text: str, exit_code: int) -> Verdict:
    """Compare one request's output with the expected blocks, row by row.

    An operation is one assertive report row (or one ``analyze`` row).  It
    fails when its text differs from the reference (references hold only
    rows whose identity holds, so a failed identity is a differing row) or
    when its block's header, column line or summary differ.  A non-zero exit
    status fails every operation.
    """
    attempted = sum(len(b.rows) for b in expected if b.assertive)
    if exit_code != 0:
        return Verdict(attempted, attempted, [f"exit status {exit_code}"])
    chunks = [text] if name == "analyze-large" else _chunks(text)
    actual = [chunk.splitlines() for chunk in chunks]
    problems: list[str] = []
    failed = 0
    if len(actual) != len(expected):
        problems.append(f"{len(actual)} reports, expected {len(expected)}")
    for i, block in enumerate(expected):
        if not block.assertive:
            continue
        lines = actual[i] if i < len(actual) else []
        frame = [block.header] + block.lead
        got_rows = lines[len(frame): len(lines) - len(block.tail)]
        framing_ok = (
            lines[: len(frame)] == frame
            and lines[len(lines) - len(block.tail):] == block.tail
            and len(got_rows) == len(block.rows)
        )
        if not framing_ok:
            problems.append(f"report {block.header!r}: framing differs")
            failed += len(block.rows)
            continue
        for want, got in zip(block.rows, got_rows):
            if got != want:
                failed += 1
                if len(problems) < 20:
                    problems.append(f"{block.header}: expected {want!r}, got {got!r}")
    return Verdict(attempted, failed, problems)
