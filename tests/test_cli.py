import json

import pytest

from flab.cli import main


def test_analyze_s4(capsys):
    code = main(["analyze", "--group", "S4", "--formation", "N"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order 24" in out
    assert "hypercenter" in out and "normalizer-intersection" in out


def test_analyze_sigma_choice(capsys):
    code = main(["analyze", "--group", "SL(2,3)", "--formation", "N", "--sigma", "cyclic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "subnormalizer-intersection[cyclic]" in out


def test_lattice_command(capsys):
    code = main(["lattice", "--group", "D12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "subgroups: 16" in out


def test_verify_single_check_table(capsys):
    code = main(["verify", "--check", "baer-a1", "--max-order", "24"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("check baer-a1")
    assert "summary: pass=" in out


def test_verify_single_check_json(capsys):
    code = main([
        "verify", "--check", "prop1", "--formation", "Gpi{2,3}",
        "--max-order", "20", "--format", "json",
    ])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "prop1"
    assert payload["summary"]["fail"] == 0


def test_verify_partition_option(capsys):
    code = main([
        "verify", "--check", "theorem-a", "--partition", "{2,3},{5}",
        "--max-order", "30",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "theorem-a" in out


def test_verify_corpus_file(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("S3\nQ8\nC12\n")
    code = main(["verify", "--check", "cor-a4", "--corpus", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "S3" in out and "Q8" in out


def test_verify_unknown_check_usage_error(capsys):
    code = main(["verify", "--check", "bogus", "--max-order", "6"])
    assert code == 2


def test_bad_group_spec_usage_error(capsys):
    code = main(["analyze", "--group", "Zorro", "--formation", "N"])
    assert code == 2


def test_env_var_max_order(monkeypatch, capsys):
    monkeypatch.setenv("FLAB_MAX_ORDER", "12")
    code = main(["verify", "--check", "baer-a1", "--format", "json"])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert max(row["order"] for row in payload["rows"]) <= 12


def test_probe_checks_do_not_flip_exit_code(capsys):
    # the supersoluble subnormalizer probe fails rows on the module product
    # corpus but the exit code stays 0
    code = main([
        "verify", "--check", "theorem-b", "--formation", "U", "--max-order", "40",
    ])
    assert code == 0


def test_reports_byte_identical_across_processes():
    # fresh interpreters (fresh hash seeds) must produce identical reports
    import os
    import subprocess
    import sys

    import flab

    # The child gets a clean environment plus the directory holding the flab
    # package this process imported, so it runs the same copy whether that
    # copy is installed or sits under src/.
    import_root = os.path.dirname(os.path.dirname(os.path.abspath(flab.__file__)))
    cmd = [
        sys.executable, "-m", "flab.cli",
        "verify", "--check", "theorem-a", "--partition", "{2,3},{5}",
        "--max-order", "30",
    ]
    runs = [
        subprocess.run(cmd, capture_output=True, text=True, env={
            "PATH": "/usr/bin:/bin", "PYTHONHASHSEED": seed, "PYTHONPATH": import_root,
        })
        for seed in ("1", "77")
    ]
    assert runs[0].returncode == runs[1].returncode == 0, [r.stderr for r in runs if r.returncode]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.strip()


def test_closed_stdout_exits_141_without_traceback():
    # a reader that stops after the first line (like `| head -n 1`); the
    # report is far larger than the pipe buffer, so the writer sees the close
    import os
    import subprocess
    import sys

    import flab

    import_root = os.path.dirname(os.path.dirname(os.path.abspath(flab.__file__)))
    cmd = [sys.executable, "-m", "flab.cli", "verify", "--max-order", "30", "--format", "json"]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": import_root},
    )
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        status = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first.strip()
    assert status == 141
    assert stderr == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--group", "E(2^x)"],
        ["analyze", "--group", "sd(C3,C2,nx->n0)"],
        ["analyze", "--group", "sd(C3,C2,n0->n0^y)"],
        ["verify", "--partition", "{2,x}"],
        ["verify", "--check", "theorem-a", "--partition", "{2,x}"],
        ["analyze", "--group", "E(2^0)"],
        ["analyze", "--group", "perm(100000000; (0 1))"],
        ["verify", "--check", "theorem-a", "--partition", "{}"],
        ["verify", "--check", "theorem-a", "--partition", "{0,1}"],
    ],
)
def test_bad_expression_exits_2_with_one_error_line(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_bad_partition_rejected_before_corpus_is_built(monkeypatch, capsys):
    import flab.cli

    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built before the options were parsed")

    monkeypatch.setattr(flab.cli, "build_corpus", no_corpus)
    assert main(["verify", "--partition", "{2,x}"]) == 2
    assert main(["verify", "--formation", "Gpi{2,x}"]) == 2


@pytest.mark.parametrize(
    "extra",
    [["--formation", "N"], ["--partition", "{2,3},{5}"], ["--sigma", "maximal"]],
    ids=["formation", "partition", "sigma"],
)
def test_check_all_rejects_parameter_options(extra, monkeypatch, capsys):
    import flab.cli

    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built although the options are rejected")

    monkeypatch.setattr(flab.cli, "build_corpus", no_corpus)
    code = main(["verify", "--max-order", "6", *extra])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: --check all takes no {extra[0]}; name a single check to set it\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--check", "baer-a1", "--formation", "U"], "--check baer-a1 takes no --formation; it reads no options"),
        (["--check", "lemmas", "--sigma", "maximal"], "--check lemmas takes no --sigma; it reads --formation"),
        (
            ["--check", "prop2", "--partition", "{2,3}", "--sigma", "cyclic"],
            "--check prop2 takes no --partition; it reads --formation, --sigma",
        ),
        (
            ["--check", "theorem-a", "--formation", "N", "--sigma", "maximal"],
            "--check theorem-a takes no --formation, --sigma; it reads --partition",
        ),
        (["--check", "boundary", "--formation", "Gpi{2}"], "local definition unavailable for Gpi{2}"),
    ],
    ids=["baer-a1", "lemmas", "prop2", "theorem-a", "boundary-class"],
)
def test_single_check_rejects_options_it_does_not_read(argv, message, monkeypatch, capsys):
    import flab.cli

    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built although the options are rejected")

    monkeypatch.setattr(flab.cli, "build_corpus", no_corpus)
    code = main(["verify", "--max-order", "6", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


def test_non_integer_max_order_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("FLAB_MAX_ORDER", "abc")
    code = main(["verify", "--check", "baer-a1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: FLAB_MAX_ORDER must be an integer, got 'abc'\n"


def test_unreadable_corpus_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    code = main(["verify", "--corpus", str(missing)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read corpus file") and err.count("\n") == 1
    code = main(["verify", "--corpus", str(tmp_path)])  # a directory
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: cannot read corpus file")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "--group", "C2001"], "group order of 'C2001' exceeds cap 2000"),
        (["analyze", "--group", "S100"], "group order of 'S100' exceeds cap 2000"),
        (["lattice", "--group", "C2001"], "group order of 'C2001' exceeds cap 2000"),
        (
            ["analyze", "--group", "perm(7; (0 1 2 3 4 5 6); (0 1))"],
            "group order 5040 of 'perm(7; (0 1 2 3 4 5 6); (0 1))' exceeds cap 2000",
        ),
    ],
    ids=["analyze-C2001", "analyze-S100", "lattice-C2001", "analyze-perm-S7"],
)
def test_over_cap_spec_exits_2(argv, message, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


def test_over_cap_corpus_line_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.txt"
    path.write_text("S3\nC5000\n")
    code = main(["verify", "--check", "cor-a4", "--corpus", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: group order of 'C5000' exceeds cap 2000\n"


def test_lattice_budget_hit_during_computation_exits_1(monkeypatch, capsys):
    from flab import config

    monkeypatch.setattr(config, "LATTICE_SUBGROUP_BUDGET", 5)
    code = main(["lattice", "--group", "S4"])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: more than 5 subgroups\n"


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--max-order", "2500", "--check", "baer-a1"], None, "--max-order must be between 1 and 2000, got 2500"),
        (["--max-order", "-4"], None, "--max-order must be between 1 and 2000, got -4"),
        (["--max-order", "0", "--corpus", "corpus.txt"], None, "--max-order must be between 1 and 2000, got 0"),
        (["--check", "cor-a4"], "0", "FLAB_MAX_ORDER must be between 1 and 2000, got 0"),
        (["--corpus", "corpus.txt"], "2001", "FLAB_MAX_ORDER must be between 1 and 2000, got 2001"),
    ],
    ids=["option-above-cap", "option-negative", "option-zero-file", "env-zero", "env-above-cap-file"],
)
def test_corpus_order_bound_outside_range_exits_2_before_building(argv, env, message, monkeypatch, capsys):
    import flab.cli

    def no_corpus(*args, **kwargs):
        raise AssertionError("corpus built although the order bound is refused")

    monkeypatch.setattr(flab.cli, "build_corpus", no_corpus)
    monkeypatch.setattr(flab.cli, "load_corpus_file", no_corpus)
    if env is None:
        monkeypatch.delenv("FLAB_MAX_ORDER", raising=False)
    else:
        monkeypatch.setenv("FLAB_MAX_ORDER", env)
    code = main(["verify", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"
