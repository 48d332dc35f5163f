"""Tests of the benchmark itself: generators, checks, spans and the output contract.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from esdlab import cli  # noqa: E402
from esdlab.errors import DomainError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def first(workload: str, seed: int, n: int) -> list[list[str]]:
    return list(itertools.islice(workloads.stream(workload, seed), n))


def run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def last_json(args: list[str]) -> dict:
    done = subprocess.run(RUN + args, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ------------------------------------------------------------------ generators


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_stream_is_a_function_of_the_seed(workload):
    assert first(workload, 3, 40) == first(workload, 3, 40)
    assert first(workload, 3, 40) != first(workload, 4, 40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configurations_are_valid(workload):
    parser = cli.build_parser()
    for argv in first(workload, 11, 200):
        config = cli.RunConfig(**vars(parser.parse_args(argv)))
        try:
            config.validated()
        except DomainError as exc:
            pytest.fail(f"{argv}: {exc}")


def test_boundary_stream_mixes_oracle_items_and_flips():
    argvs = first("boundary", 5, 100)
    assert sum(workloads.is_oracle_item(a) for a in argvs) == 100 // workloads.ORACLE_EVERY
    assert 0.0 < workloads.input_shares(argvs)["identity_flip_share"] < 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seconds", [1, 7, 30])
def test_traced_run_is_whole_stratum_cycles(workload, seconds):
    period = workloads.PERIOD[workload]
    n = run.trace_count(workload, seconds)
    assert n >= period and n % period == 0


def test_a_traced_scan_run_covers_every_stratum():
    argvs = first("scan-pool", 6, run.trace_count("scan-pool", 1))
    strata = {tuple(workloads.options(a)[k] for k in ("--family", "--op-a", "--op-b")) for a in argvs}
    assert strata == {(family, op_a, op_b) for family, _, op_a, op_b in workloads.SCAN_STRATA}


# ------------------------------------------------------------------ checks


def test_boundary_check_accepts_output_and_rejects_a_moved_death():
    check = checks.check_boundary
    argv = ["boundary", "--family", "state1", "--x", "0.250000", "--op-a", "I",
            "--op-b", "I", "--pn", "0.000000", "--workers", "1"]
    out = run_cli(argv)
    problems, facts = check(argv, out)
    assert problems == [] and facts["death_err"] <= checks.TOL / 2
    death = out.splitlines()[1].split(",")[5]
    moved = out.replace(death, f"{float(death) + 0.01:.9g}")
    assert check(argv, moved)[0]


def test_evolve_check_accepts_output_and_rejects_a_changed_value():
    argv = ["evolve", "--family", "twoqutrit", "--x", "0.200000", "--op-a", "F01",
            "--op-b", "F02", "--pn", "0.100000", "--format", "json", "--workers", "1",
            "--debug-matrices"]
    out = run_cli(argv)
    assert checks.check_evolve(argv, out) == ([], {})
    doc = json.loads(out)
    doc["rows"][3]["realigned_negativity"] += 1e-6
    assert checks.check_evolve(argv, json.dumps(doc))[0]
    doc = json.loads(out)
    doc["rows"][5]["matrix"][0][0][0] += 1e-9
    assert checks.check_evolve(argv, json.dumps(doc))[0]


def test_scan_check_accepts_output_and_rejects_a_wrong_verdict():
    argv = ["scan", "--family", "state1", "--x", "0.300000", "--op-a", "X",
            "--op-b", "F01", "--workers", "1"]
    out = run_cli(argv)
    problems, facts = checks.check_scan(argv, out)
    assert problems == [] and facts["scan_rows"] > 0
    assert checks.check_scan(argv, out.replace("Delay", "Hasten", 1))[0]
    assert checks.check_scan(argv, out.replace("Hasten", "Delay", 1))[0]


def test_scan_output_is_byte_identical_across_worker_counts():
    argv = first("scan-pool", 1, 1)[0]
    assert argv[-2:] == ["--workers", "2"]
    assert run_cli(argv[:-1] + ["1"]) == run_cli(argv)


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    tracer.name_id = array("H", [0, 1, 1, 1])
    tracer.start = array("d", [0.0, 2.0, 6.0, 6.5])
    tracer.end = array("d", [10.0, 5.0, 8.0, 7.0])
    tracer.parent = array("i", [-1, 0, 0, 2])
    spans = tracing.Spans(tracer)
    assert spans.self_s("outer") == pytest.approx(5.0)
    assert spans.self_s("inner") == pytest.approx(3.0 + 1.5 + 0.5)
    assert spans.calls("inner") == 3
    assert spans.calls_under("inner", "outer") == 3
    assert spans.calls_under("inner", "inner") == 1


def test_tracer_wraps_every_binding_and_restores_it():
    import esdlab
    from esdlab import dynamics, measures

    original = measures.negativity
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dynamics.negativity is cli.negativity is esdlab.negativity
        assert dynamics.negativity is not original
        assert cli.COMMANDS["boundary"] is cli.cmd_boundary
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert dynamics.negativity is original and cli.negativity is original


# ------------------------------------------------------------------ contract


def test_end_to_end_run_prints_every_metric():
    result = last_json(["--workload", "boundary", "--seed", "2", "--seconds", "2", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", ["boundary", "scan-pool"])
def test_traced_counts_repeat_for_a_seed(workload):
    args = ["--workload", workload, "--seed", "4", "--seconds", "1", "--trace", "1"]
    a, b = last_json(args), last_json(args)
    assert sorted(a["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for name, metric in a["metrics"].items():
        if metric["unit"] in ("count", "evals/death") or name.endswith("hit_ratio"):
            assert metric["value"] == b["metrics"][name]["value"], name


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        SPEC["command"] + ["--workload", "boundary", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
