"""Record the reference outputs that the benchmark's correctness gate uses.

    python3 perfbench/record.py

``verify-suite``: runs ``flab verify`` (all checks) on each builtin corpus
spec of order <= 324 alone and keeps its rows per report, so that the
expected output of any seeded sample can be assembled (rows depend only on
their own group), and the least suite and set-up seconds each group took
over ``PASSES`` passes, which the sampler balances on.  Each pass takes
about as long as one full ``flab verify``.
``baer-200`` and ``analyze-large``: the table output of one request.

Run it only at a commit whose reports are known to be right: the gate then
holds every later commit to the same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import workloads
from worker import Request

PASSES = 3  # timing passes over the suite corpus; each group keeps its least time


def record_suite() -> None:
    from flab import cli
    from flab.corpus import _FIXED_PRODUCTS, build_corpus, load_corpus_file

    fixed = {name for name, _ in _FIXED_PRODUCTS}
    corpus = build_corpus(max(hi for _, hi in workloads.SUITE_BANDS))
    reports: list[dict] | None = None
    groups: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        corpus_file = Path(tmp) / "one.txt"
        for rep in range(PASSES):
            for n, entry in enumerate(corpus):
                corpus_file.write_text(entry.spec + "\n")
                start = time.perf_counter()
                load_corpus_file(corpus_file)
                setup = time.perf_counter() - start
                buf = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(buf):
                    code = cli.main(["verify", "--corpus", str(corpus_file)])
                seconds = time.perf_counter() - start
                if code != 0:
                    raise SystemExit(f"{entry.spec}: flab verify exited {code}")
                blocks = [c.splitlines() for c in buf.getvalue().split("\n\n") if c.strip()]
                found = [
                    {"header": b[0], "columns": b[1], "assertive": not b[0].endswith("(informational)")}
                    for b in blocks
                ]
                if reports is None:
                    reports = found
                for mine, first in zip(found, reports):
                    if first["assertive"] and mine != first:
                        raise SystemExit(f"{entry.spec}: report header differs: {mine['header']!r}")
                rows = [b[2:-1] if r["assertive"] else [] for b, r in zip(blocks, reports)]
                group = groups.setdefault(
                    entry.spec,
                    {
                        "order": entry.group.order,
                        "fixed": entry.name in fixed,
                        "seconds": seconds,
                        "setup_seconds": setup,
                        "rows": rows,
                    },
                )
                if group["rows"] != rows:
                    raise SystemExit(f"{entry.spec}: rows differ between passes")
                group["seconds"] = min(group["seconds"], seconds)
                group["setup_seconds"] = min(group["setup_seconds"], setup)
                print(f"pass {rep + 1} [{n + 1}/{len(corpus)}] {entry.spec}: {seconds:.2f}s", file=sys.stderr)
    for group in groups.values():
        group["seconds"] = round(group["seconds"], 4)
        group["setup_seconds"] = round(group["setup_seconds"], 5)
    payload = json.dumps({"reports": reports, "groups": groups}, separators=(",", ":"))
    with open(workloads.SUITE_REFERENCE, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as fh:
            fh.write(payload.encode("utf-8"))


def record_fixed(name: str) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = Request(name, "").run()
    if code != 0:
        raise SystemExit(f"{name}: exited {code}")
    (workloads.REFERENCE_DIR / f"{name}.txt").write_text(buf.getvalue())


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    for name in workloads.WORKLOADS:
        if name == "verify-suite":
            record_suite()
        else:
            record_fixed(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
