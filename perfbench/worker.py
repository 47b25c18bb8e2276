"""One request of a benchmark workload, run in a fresh process.

    python3 perfbench/worker.py --workload NAME --input PATH --out PATH \
        --result PATH [--trace] [--setup-only]

Builds the workload's inputs (the corpus or the group), runs it with stdout
going to ``--out``, and writes a JSON result: the monotonic time the inputs
were ready, the request's wall time, exit status, peak RSS, CPU time and, with
``--trace``, the aggregated spans.  The parent process stamps the spawn time,
so set-up includes interpreter start.  ``--setup-only`` runs the same request
but stops it as soon as its inputs are ready.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


class InputsReady(BaseException):
    """Stops a set-up-only request once its inputs exist.  A BaseException,
    so that no ``except Exception`` in flab catches it."""


class Request:
    """Runs one workload; ``ready`` is stamped when its inputs exist."""

    def __init__(self, workload: str, input_path: str, setup_only: bool = False) -> None:
        self.workload = workload
        self.input_path = input_path
        self.setup_only = setup_only
        self.ready: float | None = None
        self.ready_perf: float | None = None

    def _mark_ready(self) -> None:
        self.ready = time.monotonic()
        self.ready_perf = time.perf_counter()
        if self.setup_only:
            raise InputsReady

    def _cli_main(self, argv: list[str], loader: str) -> int:
        """Run flab.cli.main, stamping ``ready`` when its input loader
        (``cli.<loader>``) returns."""
        from flab import cli

        inner = getattr(cli, loader)

        def stamped(*args, **kwargs):
            result = inner(*args, **kwargs)
            self._mark_ready()
            return result

        setattr(cli, loader, stamped)
        try:
            return cli.main(argv)
        finally:
            setattr(cli, loader, inner)

    def run(self) -> int:
        """Run the workload, printing to stdout; returns the exit status."""
        if self.workload == "verify-suite":
            return self._cli_main(["verify", "--corpus", self.input_path], "load_corpus_file")
        if self.workload == "analyze-large":
            return self._cli_main(list(workloads.ANALYZE_ARGV), "make_group")
        from flab.checks import run_check
        from flab.corpus import build_corpus
        from flab.report import render_report

        corpus = build_corpus(workloads.BAER_MAX_ORDER)
        self._mark_ready()
        failed = False
        for name in workloads.BAER_CHECKS:
            report = run_check(name, {}, corpus)
            print(render_report(report, "table"))
            print()
            failed = failed or not report.ok
        return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--input", default="")
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import flab  # noqa: F401  (import time belongs to set-up)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.start()
    request = Request(args.workload, args.input, args.setup_only)
    result: dict = {}
    with open(args.out, "w") as out, contextlib.redirect_stdout(out):
        try:
            exit_code = request.run()
        except InputsReady:
            exit_code = 0
        except Exception:  # a crash fails every operation; keep the traceback
            traceback.print_exc(file=sys.stderr)
            exit_code = 70
        out.flush()
        end = time.perf_counter()
    if request.ready_perf is None:
        exit_code = exit_code or 70
    elif not args.setup_only:
        result["wall_s"] = end - request.ready_perf
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        ready=request.ready,
        exit=exit_code,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
    )
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
