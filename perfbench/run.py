"""The flab benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``all`` runs the three workloads in turn
and prefixes each metric of the result line with its workload.  Each request
runs in a fresh single-threaded Python process (``worker.py``), one at a
time, after three set-up-only processes when untraced; a new request starts
only if the slowest such round so far would still end within ``--seconds``,
and at least one always runs.  Every output is checked row by row against
the recorded reference (``workloads.judge``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
requests and the set-up-only processes run before each request), ``wall_s``
and ``peak_rss_mb`` (medians over requests).  ``--trace 1`` runs the
requests with spans installed (``tracing.py``) and reports the per-layer
metrics: exact counts
and median times per request.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Artifacts (corpus file,
outputs, traces) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

SETUP_PROBES = 3  # set-up-only processes before each untraced request
RUN_LIMIT_S = 170  # a run must end within 180 s; no request may outlive this


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.dir = OUT_ROOT / f"{workload}-seed{seed}-trace{int(traced)}"
        self.input = ""
        self.expected: list[workloads.Block] = []
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.started = time.monotonic()

    # -- inputs -----------------------------------------------------------------

    def prepare(self) -> None:
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        info: dict = {"workload": self.workload, "seed": self.seed}
        if self.workload == "verify-suite":
            reference = workloads.load_suite_reference()
            specs = workloads.suite_sample(self.seed, reference)
            corpus = self.dir / "corpus.txt"
            workloads.write_corpus(corpus, self.seed, specs)
            self.input = str(corpus)
            self.expected = workloads.expected_suite(reference, specs)
            info["specs"] = specs
        else:
            self.expected = workloads.expected_recorded(self.workload)
        (self.dir / "inputs.json").write_text(json.dumps(info, indent=1))

    # -- one process --------------------------------------------------------------

    def spawn(self, tag: str, setup_only: bool) -> tuple[dict | None, float, str]:
        """Run one worker; returns (its result or None, set-up seconds, output)."""
        out = self.dir / f"{tag}.out"
        result_file = self.dir / f"{tag}.json"
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--input", self.input,
            "--out", str(out),
            "--result", str(result_file),
        ]
        if self.traced:
            cmd.append("--trace")
        if setup_only:
            cmd.append("--setup-only")
        timeout = RUN_LIMIT_S - (time.monotonic() - self.started)
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=max(timeout, 1))
        except subprocess.TimeoutExpired:
            print(f"{tag}: killed after {timeout:.0f}s", file=sys.stderr)
            return None, 0.0, ""
        if proc.returncode != 0 or not result_file.exists():
            print(f"{tag}: worker exited {proc.returncode}", file=sys.stderr)
            return None, 0.0, ""
        result = json.loads(result_file.read_text())
        setup = result["ready"] - spawned if result.get("ready") is not None else 0.0
        text = out.read_text() if out.exists() else ""
        return result, setup, text

    # -- the loop -------------------------------------------------------------------

    def execute(self) -> dict:
        deadline = self.started + self.seconds
        attempted = failed = 0
        setups: list[float] = []
        durations: list[float] = []
        requests: list[dict] = []
        crashed = False
        while True:
            begin = time.monotonic()
            for _ in range(0 if self.traced else SETUP_PROBES):
                result, setup, _ = self.spawn(f"setup{len(setups)}", setup_only=True)
                if result is not None:
                    setups.append(setup)
            result, setup, text = self.spawn(f"request{len(requests)}", setup_only=False)
            durations.append(time.monotonic() - begin)
            code = result["exit"] if result is not None else 1
            verdict = workloads.judge(self.workload, self.expected, text, code)
            attempted += verdict.attempted
            failed += verdict.failed
            for problem in verdict.problems:
                print(f"request{len(requests)}: {problem}", file=sys.stderr)
            if result is None or "wall_s" not in result:
                crashed = True
                break
            result["setup_s"] = setup
            requests.append(result)
            setups.append(setup)
            if time.monotonic() + max(durations) > deadline:
                break
        return {
            "setups": setups,
            "requests": requests,
            "attempted": attempted,
            "failed": failed,
            "crashed": crashed,
        }

    # -- metrics ----------------------------------------------------------------------

    def metrics(self, outcome: dict) -> dict[str, tuple[float, str]]:
        requests = outcome["requests"]
        if not requests:
            return {}
        if not self.traced:
            return {
                "setup_s": (statistics.median(outcome["setups"]), "s"),
                "wall_s": (statistics.median(r["wall_s"] for r in requests), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in requests), "MB"),
            }
        per_request = [layer_metrics(r["trace"], r["cpu_s"], r["wall_s"]) for r in requests]
        traces = [r["trace"] for r in requests]
        (self.dir / "trace.json").write_text(json.dumps(traces, indent=1))
        out = {}
        for name, (value, unit) in per_request[0].items():
            values = [m[name][0] for m in per_request]
            if unit in ("count", "ratio", "closures/call"):
                if len(set(values)) > 1:
                    print(f"warning: {name} differs between requests: {values}", file=sys.stderr)
                out[name] = (value, unit)
            else:
                out[name] = (statistics.median(values), unit)
        return out


def main() -> int:
    parser = argparse.ArgumentParser(description="flab benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "flab" / "__init__.py").is_file():
        print(f"error: no flab sources under {ROOT / 'src'}; run from a flab checkout", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        run = Run(name, args.seed, args.seconds, bool(args.trace))
        run.prepare()
        outcome = run.execute()
        found = run.metrics(outcome)
        label = "traced" if run.traced else "untraced"
        count = len(outcome["requests"])
        print(f"{name} seed {args.seed} ({label}): {count} request{'' if count == 1 else 's'}")
        for metric, (value, unit) in found.items():
            print(f"  {metric:48s} {value:14.6g} {unit}")
        share = outcome["failed"] / outcome["attempted"] if outcome["attempted"] else 1.0
        print(f"  {'failed_share':48s} {share:14.6g} ratio  ({outcome['failed']} of {outcome['attempted']} operations)")
        correct = correct and outcome["failed"] == 0 and not outcome["crashed"]
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed if attempted else 1,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
