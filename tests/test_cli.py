import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from esdlab import io
from esdlab.cli import COMMANDS, RunConfig, build_parser, main
from esdlab.config import DEFAULT, Tolerances
from esdlab.dynamics import STACK_LIMIT, StageSchedule, damp, pprime_grid, state_after_flip
from esdlab.errors import DomainError
from esdlab.states import FamilyId, StateFamily


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_evolve_csv_output(capsys):
    code, out, err = run_cli(
        capsys, "evolve", "--family", "state1", "--pprime-step", "0.25"
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "p_prime,negativity"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 0.125) < 1e-9
    # header + grid rows {0, 0.25, 0.5, 0.75} + the cap row
    assert len(lines) == 1 + 5


def test_evolve_two_qutrit_reports_realignment_column(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--family", "twoqutrit", "--pprime-step", "0.45"
    )
    assert code == 0
    assert out.splitlines()[0] == "p_prime,negativity,realigned_negativity"


def test_boundary_reports_death_point(capsys):
    code, out, _ = run_cli(capsys, "boundary", "--family", "state1")
    assert code == 0
    header, row = out.splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert abs(float(record["p_prime_death"]) - 0.6168) < 5e-4
    assert float(record["bracket_lo"]) <= float(record["p_prime_death"])
    assert int(record["iterations"]) > 0


def test_config_errors_name_the_field(capsys):
    code, _, err = run_cli(capsys, "boundary", "--family", "state1", "--x", "0.4")
    assert code == 2 and "x:" in err
    code, _, err = run_cli(capsys, "boundary", "--family", "nope")
    assert code == 2 and "family:" in err
    code, _, err = run_cli(capsys, "scan", "--family", "state1", "--op-a", "F01")
    assert code == 2 and "op-a:" in err
    code, _, err = run_cli(capsys, "evolve", "--family", "state1", "--workers", "0")
    assert code == 2 and "workers:" in err
    code, _, err = run_cli(capsys, "evolve", "--family", "state1", "--pn", "1.5")
    assert code == 2 and "pn:" in err


def test_json_and_csv_carry_identical_values(capsys, tmp_path):
    args = ["evolve", "--family", "state1", "--op-a", "X", "--op-b", "F01",
            "--pn", "0.1", "--pprime-step", "0.2"]
    code, csv_text, _ = run_cli(capsys, *args)
    assert code == 0
    code, json_text, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    doc = json.loads(json_text)
    assert doc["schema_version"] == 1
    csv_rows = [line.split(",") for line in csv_text.splitlines()[1:]]
    assert len(csv_rows) == len(doc["rows"])
    for cells, row in zip(csv_rows, doc["rows"]):
        assert float(cells[0]) == row["p_prime"]
        assert float(cells[1]) == row["negativity"]


def test_scan_summary_and_verdicts(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "state1", "--op-a", "X", "--op-b", "F01",
        "--pn-step", "0.15", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["summary"]["avoid_end"] - 0.0615) < 2e-3
    assert abs(doc["summary"]["delay_end"] - 0.1641) < 2e-3
    assert doc["summary"]["has_hasten"] is True
    verdicts = [row["verdict"] for row in doc["rows"]]
    assert verdicts[0] == "Avoid"
    assert "Hasten" in verdicts


def test_scan_csv_footer_matches_summary(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--family", "state1", "--op-a", "I", "--op-b", "F01",
        "--pn-step", "0.2",
    )
    assert code == 0
    footer = out.splitlines()[-1].split(",")
    assert footer[0] == "summary"
    assert abs(float(footer[2]) - 0.2941) < 2e-3  # avoid_end


@pytest.mark.parametrize(
    "base",
    [
        ["scan", "--family", "state1", "--op-a", "X", "--op-b", "F01", "--pn-step", "0.2"],
        ["evolve", "--family", "twoqutrit", "--op-a", "F01", "--op-b", "F02", "--pn", "0.1"],
        ["surface", "--family", "state2", "--op-a", "X", "--op-b", "F201", "--grid", "5"],
    ],
    ids=["scan", "evolve", "surface"],
)
def test_deterministic_output_across_worker_counts(tmp_path, base):
    out1 = tmp_path / "w1.csv"
    out2 = tmp_path / "w2.csv"
    assert main(base + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(base + ["--workers", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_surface_rows_and_locus(capsys):
    code, out, _ = run_cli(
        capsys, "surface", "--family", "state1", "--grid", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 9
    corner = doc["rows"][0]
    assert corner["p_n"] == 0.0 and corner["p_prime"] == 0.0
    assert abs(corner["negativity"] - 0.125) < 1e-8
    assert abs(doc["locus"][0]["p_prime_death"] - 0.6168) < 5e-4


def test_debug_matrices_flag_embeds_states(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--family", "state1", "--pprime-step", "0.4",
        "--format", "json", "--debug-matrices",
    )
    assert code == 0
    doc = json.loads(out)
    matrix = doc["rows"][0]["matrix"]
    assert len(matrix) == 6 and len(matrix[0]) == 6 and len(matrix[0][0]) == 2
    assert matrix[0][0][0] == 0.125  # ground population of the initial state


def test_debug_matrices_leave_csv_unchanged(capsys, monkeypatch):
    argv = ["evolve", "--family", "twoqutrit", "--op-a", "F01", "--pprime-step", "0.05"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0

    def fail(stack):
        raise AssertionError("a matrix was converted for CSV output")

    monkeypatch.setattr(io, "matrix_texts", fail)
    code, flagged, err = run_cli(capsys, *argv, "--debug-matrices")
    assert code == 0 and err == ""
    assert flagged == plain


EDGE_VALUES = [-0.0, 5e-324, 1e-17, 1e300, 1.0, 0.125]


@pytest.mark.parametrize("d", [6, 9])
def test_matrix_texts_match_json_dumps_of_the_pairs(d):
    # every edge value and its negative, cycled through the real and imaginary parts
    parts = np.resize(EDGE_VALUES + [-v for v in EDGE_VALUES], (2, 3, d, d))
    stack = parts[0].astype(complex)  # keeps -0.0, which parts[0] + 1j * parts[1] would lose
    stack.imag = parts[1]
    rows = [{"p_prime": 0.5, "negativity": 0.0}, {"p_prime": 1.0}, {"p_prime": None}]
    expected = {"schema_version": 1, "config": {"out": "x"}, "summary": {"n": 3}, "rows": [
        {**row, "matrix": io.matrix_to_pairs(m)} for row, m in zip(rows, stack)
    ]}
    spliced = [{**row, "matrix": text} for row, text in zip(rows, io.matrix_texts(stack))]
    text = io.json_document({"out": "x"}, spliced, {"summary": {"n": 3}})
    assert text == json.dumps(expected, indent=2) + "\n"
    assert {repr(v) for v in EDGE_VALUES + [-1e300]} <= set(text.replace(",", "").split())


def evolve_reference(argv: list[str]) -> np.ndarray:
    """The evolved states of an evolve argv, damped as one stack of the whole grid."""
    run = RunConfig(**vars(build_parser().parse_args(argv))).validated()
    flipped = state_after_flip(StageSchedule(run.family, run.model, run.op, run.config.pn))
    return damp(flipped, run.model, pprime_grid(run.tolerances)).matrix


@pytest.mark.parametrize("family, op_a, op_b", [
    ("state1", "X", "F01"), ("state2", "X", "F201"), ("twoqutrit", "F01", "F02"),
])
def test_debug_matrices_over_several_stacks_match_json_dumps(capsys, family, op_a, op_b):
    argv = ["evolve", "--family", family, "--op-a", op_a, "--op-b", op_b, "--pn", "0.1",
            "--pprime-step", "0.003", "--format", "json", "--debug-matrices"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    doc = json.loads(out)
    stack = evolve_reference(argv)
    assert len(doc["rows"]) == len(stack) > STACK_LIMIT
    for row, m in zip(doc["rows"], stack):
        row["matrix"] = io.matrix_to_pairs(m)
    assert out == json.dumps(doc, indent=2) + "\n"


def test_a_config_string_holding_the_splice_text_leaves_the_document_intact(
    tmp_path, monkeypatch
):
    # json_document splices each matrix in where the encoder wrote this text
    splice = '"matrix": null'
    monkeypatch.chdir(tmp_path)
    argv = ["evolve", "--family", "twoqutrit", "--pprime-step", "0.25", "--format", "json",
            "--debug-matrices", "--out", splice]
    assert main(argv) == 0
    text = (tmp_path / splice).read_text()
    doc = json.loads(text)
    assert doc["config"]["out"] == splice
    stack = evolve_reference(argv)
    assert [row["matrix"] for row in doc["rows"]] == [io.matrix_to_pairs(m) for m in stack]
    assert text == json.dumps(doc, indent=2) + "\n"


def test_lapack_failure_exits_with_code_3(capsys, monkeypatch):
    def fail(m, *args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)  # the 3x3 realigned negativity
    code, out, err = run_cli(capsys, "evolve", "--family", "twoqutrit")
    assert code == 3 and out == ""
    assert "numeric failure" in err


# exact output of the 3x3 (surface) and 2x3 (evolve) pipelines: damping,
# both flips, negativity and the death locus, down to the printed digit
PINNED_CSV = {
    ("surface", "--family", "twoqutrit", "--op-a", "F01", "--op-b", "F02", "--grid", "4"): """\
p_n,p_prime,negativity
0,0,0.0833333333
0,0.333333,0.0313356178
0,0.666666,0.00753231182
0,0.999999,4.16642085e-08
0.333333,0,0.0104167222
0.333333,0.333333,0
0.333333,0.666666,0
0.333333,0.999999,0
0.666666,0,0
0.666666,0.333333,0
0.666666,0.666666,0
0.666666,0.999999,0
0.999999,0,0
0.999999,0.333333,0
0.999999,0.666666,0
0.999999,0.999999,0
""",
    ("evolve", "--family", "state2", "--op-a", "X", "--pn", "0.3", "--pprime-step", "0.2"): """\
p_prime,negativity
0,0.122001979
0.2,0.0584779077
0.4,0.0194952988
0.6,0.00332402438
0.8,0
0.999999,0
""",
    # a singular 2x2 block at p' = 0.5: negativity exactly 0, not round-off
    ("evolve", "--family", "state1", "--x", "0.25", "--op-b", "F02", "--pprime-step", "0.25"): """\
p_prime,negativity
0,0.125
0.25,0.0498290285
0.5,0
0.75,0
0.999999,0
""",
    # the death point, the bisection step count and the grid bracket
    ("boundary", "--family", "state1", "--x", "0.25", "--op-a", "X", "--op-b", "F01",
     "--pn", "0.3"): """\
family,x,op_a,op_b,p_n,p_prime_death,iterations,bracket_lo,bracket_hi
state1,0.25,X,F01,0.3,0.21890625,5,0.21,0.22
""",
    ("boundary", "--family", "state1", "--x", "0.1"): """\
family,x,op_a,op_b,p_n,p_prime_death,iterations,bracket_lo,bracket_hi
state1,0.1,I,I,0,,100,,
""",
}


@pytest.mark.parametrize(
    "argv",
    list(PINNED_CSV),
    ids=["surface-twoqutrit", "evolve-state2", "evolve-state1-f02", "boundary-dying",
         "boundary-no-death"],
)
def test_pinned_csv_output(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == PINNED_CSV[argv]


def test_evolve_memory_stays_bounded_on_a_fine_grid(tmp_path):
    # 5,001 p' samples on 3x3: a single stack of the whole sweep peaks
    # at about 33 MiB; stacks of STACK_LIMIT samples at about 3.5 MiB
    argv = ["evolve", "--family", "twoqutrit", "--op-a", "F01", "--pprime-step", "0.0002",
            "--out", str(tmp_path / "evolve.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert len((tmp_path / "evolve.csv").read_text().splitlines()) == 1 + 5001


def test_scan_memory_stays_bounded_on_a_fine_pn_grid(tmp_path):
    # 800 p_n rows, 1,600 death points: one stack of them all peaks
    # at about 14 MiB; stacks of STACK_LIMIT schedules at about 3.2 MiB
    argv = ["scan", "--family", "twoqutrit", "--op-a", "F01", "--op-b", "I",
            "--pn-step", "0.0005", "--out", str(tmp_path / "scan.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert len((tmp_path / "scan.csv").read_text().splitlines()) == 1 + 801


# the options each command reads, as RunConfig field names
STATE_OPTIONS = ["family", "x", "ratio_a", "ratio_b", "op_a", "op_b"]
EVERY_COMMAND = ["format", "out", "workers"]
READS = {
    "evolve": STATE_OPTIONS + ["pn", "pprime_step", "debug_matrices"] + EVERY_COMMAND,
    "boundary": STATE_OPTIONS + ["pn", "pprime_step", "tol", "zero_threshold"] + EVERY_COMMAND,
    "scan": STATE_OPTIONS + ["pn_step", "pprime_step", "tol", "zero_threshold"] + EVERY_COMMAND,
    "table1": EVERY_COMMAND,
    "surface": STATE_OPTIONS + ["grid", "pprime_step", "tol", "zero_threshold"] + EVERY_COMMAND,
}
# one valid value per option; None marks a switch
VALID = {
    "family": "state2", "x": "0.3", "ratio_a": "0.7", "ratio_b": "0.4", "op_a": "X",
    "op_b": "F01", "pn": "0.1", "pn_step": "0.05", "pprime_step": "0.05", "tol": "1e-9",
    "zero_threshold": "1e-9", "format": "json", "out": "out.csv", "workers": "2",
    "debug_matrices": None, "grid": "5",
}
OPTIONS = [f.name for f in fields(RunConfig) if f.name != "command"]


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_takes_exactly_the_options_it_reads(capsys, command, option):
    argv = [command, "--" + option.replace("_", "-")]
    if VALID[option] is not None:
        argv.append(VALID[option])
    if option not in READS[command]:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        return
    config = RunConfig(**vars(build_parser().parse_args(argv)))
    assert getattr(config, option) != getattr(RunConfig(command), option)
    config.validated()


def test_every_run_config_field_is_an_option_of_some_command():
    assert sorted(OPTIONS) == sorted({option for read in READS.values() for option in read})
    assert sum(map(len, READS.values())) == 54


def test_table1_rejects_an_x_it_would_not_read(capsys):
    # table1 uses each family's default x; an --x used to be range-checked
    with pytest.raises(SystemExit) as exc:
        main(["table1", "--x", "0.45"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --x 0.45" in capsys.readouterr().err


def test_a_rejected_option_prints_the_command_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--pn", "0.1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: esdlab scan ")
    assert "--pn-step PN_STEP" in err
    assert "esdlab scan: error: unrecognized arguments: --pn 0.1" in err


def test_validated_checks_only_the_fields_the_command_reads():
    # a config file may carry fields its command never reads
    run = RunConfig.from_dict({"command": "table1", "x": 0.45}).validated()
    assert run.config == RunConfig(command="table1")
    with pytest.raises(DomainError, match=r"^x: "):
        RunConfig.from_dict({"command": "scan", "x": 0.45}).validated()
    with pytest.raises(DomainError, match=r"^command: "):
        RunConfig.from_dict({"command": "bogus", "x": 0.45}).validated()


@pytest.mark.parametrize("doc, field", [
    ({"command": "scan", "x": "0.3"}, "x"),
    ({"command": "surface", "bogus": 1}, "bogus"),
    ({"command": "surface", "grid": 2.5}, "grid"),
    ({"command": "evolve", "debug_matrices": 1}, "debug_matrices"),
    ({"command": "scan", "workers": True}, "workers"),
    ({"command": "boundary", "pn": None}, "pn"),
])
def test_from_dict_rejects_an_unknown_or_wrongly_typed_field(doc, field):
    with pytest.raises(DomainError, match=rf"^{field}: "):
        RunConfig.from_dict(doc)


def test_from_dict_takes_an_int_for_a_float_as_the_argv_would():
    config = RunConfig.from_dict({"command": "boundary", "pn": 0, "x": None, "tol": 1})
    assert config == RunConfig(**vars(build_parser().parse_args(
        ["boundary", "--pn", "0", "--tol", "1"])))
    assert type(config.pn) is float and type(config.tol) is float


def test_bare_argv_takes_the_run_config_defaults():
    args = build_parser().parse_args(["evolve"])
    assert vars(args) == {"command": "evolve"}
    assert RunConfig(**vars(args)) == RunConfig(command="evolve")
    # the flags' defaults are the default tolerances, stated once
    assert RunConfig(command="evolve").validated().tolerances == DEFAULT
    chosen = RunConfig(command="boundary", tol=1e-6, zero_threshold=1e-9, pprime_step=0.02)
    assert chosen.validated().tolerances == Tolerances(1e-9, 1e-6, 0.02)


def test_run_config_round_trip():
    config = RunConfig(command="scan", family="state2", x=0.4, op_a="X", pn=0.2)
    assert RunConfig.from_dict(config.to_dict()) == config


def test_emitted_config_reparses_to_the_same_run(capsys):
    code, out, _ = run_cli(
        capsys, "boundary", "--family", "state2", "--op-a", "X", "--format", "json"
    )
    assert code == 0
    reparsed = RunConfig.from_dict(json.loads(out)["config"]).validated()
    assert reparsed.family == StateFamily(FamilyId.STATE2, 0.5)
    assert (reparsed.model.ratio_a, reparsed.model.ratio_b) == (0.8, 0.6)
    assert reparsed.op.op_a == "X"


def test_float_formatting_is_nine_significant_digits():
    assert io.fmt(0.123456789123) == "0.123456789"
    assert io.fmt(None) == ""
    assert io.round9(1.0 / 3.0) == 0.333333333
