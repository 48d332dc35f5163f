"""Command-line front end.

Commands: evolve | boundary | scan | table1 | surface.  Options are the
``RunConfig`` fields, each taken by the commands its metadata names; any
other option exits 2.  Exit codes: 0 success, 2 configuration error, 3
numeric failure (LAPACK raised numpy.linalg.LinAlgError).  Environment
variables are never consulted; identical configurations produce
byte-identical output.  Every command runs in this one process:
``--workers`` is kept for old argvs: validated, echoed in JSON, no effect.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import io
from .channels import DecayModel, default_model
from .config import DEFAULT, Tolerances
from .dynamics import (
    STACK_LIMIT,
    TABLE1_OPS,
    StageSchedule,
    classify_all,
    damp,
    death_point_record,
    pprime_grid,
    regime_boundaries,
    state_after_flip,
    sweep_surface,
    table1_cell,
)
from .errors import DomainError
from .luo import LocalUnitary, valid_ops
from .measures import negativity, realigned_negativity
from .states import FamilyId, StateFamily

DEFAULT_X = {FamilyId.STATE1: 0.25, FamilyId.STATE2: 0.5, FamilyId.TWO_QUTRIT: 0.25}


# the commands that read each group of options
STATE = ("evolve", "boundary", "scan", "surface")
SOLVER = ("boundary", "scan", "surface")
EVERY = STATE + ("table1",)


def _option(default, commands: tuple[str, ...], **argparse_kwargs):
    """A ``RunConfig`` field that is the option ``--name`` of ``commands``."""
    return field(default=default, metadata={"commands": commands, "argparse": argparse_kwargs})


@dataclass(frozen=True)
class RunConfig:
    command: str
    family: str = _option("state1", STATE, help="state1 | state2 | twoqutrit")
    x: float | None = _option(None, STATE, type=float, help="family parameter")
    ratio_a: float | None = _option(None, STATE, type=float)
    ratio_b: float | None = _option(None, STATE, type=float)
    op_a: str = _option("I", STATE, help="I | X (qubit) or flips")
    op_b: str = _option("I", STATE, help="I | F01 | F02 | F102 | F201")
    pn: float = _option(0.0, ("evolve", "boundary"), type=float, help="flip application point")
    pn_step: float = _option(0.01, ("scan",), type=float)
    pprime_step: float = _option(DEFAULT.pprime_grid_step, STATE, type=float)
    tol: float = _option(DEFAULT.bisection, SOLVER, type=float, help="bisection tolerance")
    zero_threshold: float = _option(DEFAULT.negativity_zero, SOLVER, type=float)
    format: str = _option("csv", EVERY, choices=("csv", "json"))
    out: str | None = _option(None, EVERY, help="output path (default stdout)")
    workers: int = _option(1, EVERY, type=int)
    debug_matrices: bool = _option(
        False, ("evolve",), action="store_true", help="embed evolved matrices in JSON rows"
    )
    grid: int = _option(21, ("surface",), type=int, help="surface grid per axis")

    def validated(self) -> "ResolvedRun":
        """Range-check the fields the command reads; the others take their defaults."""
        if self.command not in EVERY:
            raise DomainError(f"command: must be one of {list(EVERY)}, got {self.command!r}")
        config = replace(self, **{
            f.name: f.default for f in fields(self)
            if f.metadata and self.command not in f.metadata["commands"]
        })
        try:
            family_id = FamilyId(config.family)
        except ValueError:
            raise DomainError(
                f"family: must be one of {[f.value for f in FamilyId]}, got {config.family!r}"
            ) from None
        dims = family_id.dims
        x = DEFAULT_X[family_id] if config.x is None else config.x
        try:
            family = StateFamily(family_id, x)
        except DomainError as exc:
            raise DomainError(f"x: {exc}") from None
        base = default_model(dims)
        ratio_a = base.ratio_a if config.ratio_a is None else config.ratio_a
        ratio_b = base.ratio_b if config.ratio_b is None else config.ratio_b
        try:
            model = DecayModel(ratio_a=ratio_a, ratio_b=ratio_b)
        except DomainError as exc:
            raise DomainError(f"ratio-a/ratio-b: {exc}") from None
        for side, name, dim in (("op-a", config.op_a, dims[0]), ("op-b", config.op_b, dims[1])):
            if name not in valid_ops(dim):
                raise DomainError(
                    f"{side}: {name!r} is not valid for dimension {dim}; "
                    f"valid: {list(valid_ops(dim))}"
                )
        op = LocalUnitary(config.op_a, config.op_b)
        if not 0.0 <= config.pn < 1.0:
            raise DomainError(f"pn: must lie in [0, 1), got {config.pn}")
        for name, step in (("pn-step", config.pn_step), ("pprime-step", config.pprime_step)):
            if not 0.0 < step < 0.5:
                raise DomainError(f"{name}: must lie in (0, 0.5), got {step}")
        if not config.tol > 0.0:
            raise DomainError(f"tol: must be positive, got {config.tol}")
        if not config.zero_threshold > 0.0:
            raise DomainError(f"zero-threshold: must be positive, got {config.zero_threshold}")
        if config.workers < 1:
            raise DomainError(f"workers: must be at least 1, got {config.workers}")
        if config.format not in ("csv", "json"):
            raise DomainError(f"format: must be csv or json, got {config.format!r}")
        if config.grid < 2:
            raise DomainError(f"grid: must be at least 2, got {config.grid}")
        tolerances = Tolerances(
            negativity_zero=config.zero_threshold,
            bisection=config.tol,
            pprime_grid_step=config.pprime_step,
        )
        return ResolvedRun(config, family, model, op, tolerances)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        return cls(**doc)


@dataclass(frozen=True)
class ResolvedRun:
    config: RunConfig
    family: StateFamily
    model: DecayModel
    op: LocalUnitary
    tolerances: Tolerances

    @property
    def is_two_qutrit(self) -> bool:
        return self.family.family is FamilyId.TWO_QUTRIT

    def config_dict(self) -> dict:
        doc = self.config.to_dict()
        doc["x"] = self.family.x
        doc["ratio_a"] = self.model.ratio_a
        doc["ratio_b"] = self.model.ratio_b
        return doc


# ---------------------------------------------------------------- commands


def cmd_evolve(run: ResolvedRun) -> tuple[list[str], list[dict], dict]:
    """negativity along the second damping stage"""
    header = ["p_prime", "negativity"]
    if run.is_two_qutrit:
        header.append("realigned_negativity")
    pps = pprime_grid(run.tolerances)
    flipped = state_after_flip(StageSchedule(run.family, run.model, run.op, run.config.pn))
    rows = []
    for start in range(0, len(pps), STACK_LIMIT):
        chunk = pps[start:start + STACK_LIMIT]
        rho = damp(flipped, run.model, chunk)
        columns = [chunk, negativity(rho)]
        if run.is_two_qutrit:
            columns.append(realigned_negativity(rho))
        for values, m in zip(zip(*columns), rho.matrix):
            row = dict(zip(header, map(io.round9, values)))
            if run.config.debug_matrices and run.config.format == "json":  # CSV drops it
                row["matrix"] = io.matrix_to_pairs(m)
            rows.append(row)
    return header, rows, {}


def cmd_boundary(run: ResolvedRun) -> tuple[list[str], list[dict], dict]:
    """locate the sudden-death point in p'"""
    sched = StageSchedule(run.family, run.model, run.op, run.config.pn)
    record = death_point_record(sched, run.tolerances)
    row = {
        "family": run.family.family.value,
        "x": io.round9(run.family.x),
        "op_a": run.op.op_a,
        "op_b": run.op.op_b,
        "p_n": io.round9(run.config.pn),
        "p_prime_death": io.round9(record.p_prime),
        "iterations": record.iterations,
        "bracket_lo": io.round9(record.bracket[0]) if record.bracket else None,
        "bracket_hi": io.round9(record.bracket[1]) if record.bracket else None,
    }
    header = list(row)
    return header, [row], {}


def cmd_scan(run: ResolvedRun) -> tuple[list[str], list[dict], dict]:
    """classify Avoid/Delay/Hasten over a p_n grid"""
    bounds = regime_boundaries(run.family, run.model, run.op, run.tolerances)
    pns = [float(p) for p in np.arange(0.0, bounds.baseline_death, run.config.pn_step)]
    scheds = [StageSchedule(run.family, run.model, run.op, pn) for pn in pns]
    rows = [
        {
            "p_n": io.round9(verdict.p_n),
            "verdict": verdict.outcome.value,
            "baseline_death": io.round9(verdict.baseline_death),
            "manipulated_death": io.round9(verdict.manipulated_death),
        }
        for verdict in classify_all(scheds, run.tolerances)
    ]
    summary = {
        "avoid_end": io.round9(bounds.avoid_end),
        "delay_end": io.round9(bounds.delay_end),
        "baseline_death": io.round9(bounds.baseline_death),
        "has_hasten": bounds.has_hasten,
    }
    rows.append(
        {
            "p_n": "summary",
            "verdict": "avoid_end/delay_end",
            "baseline_death": summary["avoid_end"],
            "manipulated_death": summary["delay_end"],
        }
    )
    return ["p_n", "verdict", "baseline_death", "manipulated_death"], rows, {"summary": summary}


def cmd_table1(run: ResolvedRun) -> tuple[list[str], list[dict], dict]:
    """classification patterns for all nine flip pairs"""
    rows = [
        {
            "operation": f"{op_a}*{op_b}",
            "state1": table1_cell("state1", 0.25, op_a, op_b),
            "state2": table1_cell("state2", 0.5, op_a, op_b),
        }
        for op_a, op_b in TABLE1_OPS
    ]
    return ["operation", "state1", "state2"], rows, {}


def cmd_surface(run: ResolvedRun) -> tuple[list[str], list[dict], dict]:
    """negativity samples over the (p_n, p') rectangle"""
    samples, locus = sweep_surface(
        run.family, run.model, run.op, grid=run.config.grid, tol=run.tolerances
    )
    rows = [
        {
            "p_n": io.round9(pn),
            "p_prime": io.round9(pp),
            "negativity": io.round9(nv),
        }
        for pn, pp, nv in samples
    ]
    locus_doc = [
        {"p_n": io.round9(pn), "p_prime_death": io.round9(d)} for pn, d in locus
    ]
    return ["p_n", "p_prime", "negativity"], rows, {"locus": locus_doc}


# ------------------------------------------------------------------ driver


def _emit(run: ResolvedRun, header: list[str], rows: list[dict], extra: dict) -> str:
    if run.config.format == "json":
        return io.json_document(run.config_dict(), rows, extra)
    return io.csv_lines(header, [[row.get(col) for col in header] for row in rows])


COMMANDS = {
    "evolve": cmd_evolve,
    "boundary": cmd_boundary,
    "scan": cmd_scan,
    "table1": cmd_table1,
    "surface": cmd_surface,
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which rejects an option it does not take under
    its own usage line rather than handing it back to the top level."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, rest = super().parse_known_args(args, namespace)
        if rest:
            self.error("unrecognized arguments: " + " ".join(rest))
        return namespace, rest


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esdlab",
        description="Damping dynamics and sudden-death manipulation for "
        "qubit-qutrit and qutrit-qutrit entangled states.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, cmd in COMMANDS.items():
        # options left out of the argv stay unset, so RunConfig's field defaults
        # are the only defaults; no abbreviations (scan --pn is not --pn-step)
        p = sub.add_parser(
            name, help=cmd.__doc__, argument_default=argparse.SUPPRESS, allow_abbrev=False
        )
        for f in fields(RunConfig):
            if name in f.metadata.get("commands", ()):
                p.add_argument("--" + f.name.replace("_", "-"), **f.metadata["argparse"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        run = config.validated()
        header, rows, extra = COMMANDS[config.command](run)
        text = _emit(run, header, rows, extra)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    if config.out:
        with open(config.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
