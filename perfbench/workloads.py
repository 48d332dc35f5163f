"""Seeded command streams for the three benchmark workloads.

Each generator yields CLI argument lists (the program sees nothing but the
argv) and is a pure function of the seed: the same seed gives the same
stream.  Every configuration it emits passes the CLI's validation, so exit
code 2 never belongs to a workload.

The streams are stratified: the structure of command i (family, flip pair,
oracle item, ``--debug-matrices``) is fixed by i, and the seed draws the
continuous parameters within each stratum.  Runs with different seeds then
share the same input mix, which keeps their figures comparable.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

QUBIT_OPS = ("I", "X")
QUTRIT_OPS = ("I", "F01", "F02", "F102", "F201")
PAIRS_2X3 = [(a, b) for a in QUBIT_OPS for b in QUTRIT_OPS]
PAIRS_3X3 = [(a, b) for a in QUTRIT_OPS for b in QUTRIT_OPS]

# x ranges of the 2x3 families (state1: [0, 1/3), state2: (1/3, 1/2])
STATE1_X = (0.0, 0.333)
STATE2_X = (0.334, 0.5)

# one boundary command in ORACLE_EVERY is an uninterrupted state1 query
ORACLE_EVERY = 5
# one evolve command in DEBUG_EVERY adds --debug-matrices
DEBUG_EVERY = 4

# scan strata in fixed order: (family, x range, op_a, op_b).  state1 only
# where the baseline dies; state2 dies on its whole range.  Each x range is
# narrow and sized so that one scan (about 20 to 35 p_n rows) takes a similar
# time: a run then holds enough scans for a p90, and the median latency does
# not sit in a gap between strata.
SCAN_STRATA = [
    ("state1", (0.298, 0.302), "X", "F01"),
    ("state2", (0.364, 0.368), "I", "F02"),
    ("state1", (0.288, 0.292), "I", "F201"),
    ("state2", (0.368, 0.372), "X", "I"),
    ("state1", (0.298, 0.302), "X", "F102"),
    ("state2", (0.378, 0.382), "X", "F201"),
    ("state1", (0.268, 0.272), "I", "I"),
    ("state2", (0.360, 0.364), "I", "F01"),
    ("state1", (0.288, 0.292), "X", "F02"),
    ("state2", (0.358, 0.362), "X", "F102"),
]

WORKLOADS = ("boundary", "evolve-3x3", "scan-pool")

# commands per cycle of each stream's strata: the input mix of any whole
# number of cycles is the mix of the whole stream
PERIOD = {"boundary": math.lcm(2, ORACLE_EVERY), "evolve-3x3": DEBUG_EVERY, "scan-pool": len(SCAN_STRATA)}


def _num(value: float) -> str:
    return f"{value:.6f}"


def is_oracle_item(argv: list[str]) -> bool:
    """An uninterrupted state1 boundary query (I x I, p_n = 0)."""
    opts = options(argv)
    return (
        argv[0] == "boundary"
        and opts["--family"] == "state1"
        and opts["--op-a"] == "I"
        and opts["--op-b"] == "I"
        and float(opts["--pn"]) == 0.0
    )


def options(argv: list[str]) -> dict[str, str]:
    """The ``--flag value`` pairs of a generated argv; bare flags map to ''."""
    opts: dict[str, str] = {}
    i = 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i]] = ""
            i += 1
    return opts


def boundary_stream(seed: int) -> Iterator[list[str]]:
    rng = random.Random(f"boundary:{seed}")
    for i in itertools.count():
        if i % ORACLE_EVERY == 0:
            family, x, (op_a, op_b), pn = "state1", rng.uniform(*STATE1_X), ("I", "I"), 0.0
        else:
            family = "state1" if i % 2 else "state2"
            x = rng.uniform(*(STATE1_X if family == "state1" else STATE2_X))
            op_a, op_b = rng.choice(PAIRS_2X3)
            pn = rng.uniform(0.0, 0.5)
        yield [
            "boundary", "--family", family, "--x", _num(x),
            "--op-a", op_a, "--op-b", op_b, "--pn", _num(pn), "--workers", "1",
        ]


def evolve_stream(seed: int) -> Iterator[list[str]]:
    rng = random.Random(f"evolve-3x3:{seed}")
    for i in itertools.count():
        op_a, op_b = rng.choice(PAIRS_3X3)
        argv = [
            "evolve", "--family", "twoqutrit", "--x", _num(rng.uniform(0.0, 0.333)),
            "--op-a", op_a, "--op-b", op_b, "--pn", _num(rng.uniform(0.0, 0.5)),
            "--format", "json", "--workers", "1",
        ]
        if i % DEBUG_EVERY == DEBUG_EVERY - 1:
            argv.append("--debug-matrices")
        yield argv


def scan_stream(seed: int) -> Iterator[list[str]]:
    rng = random.Random(f"scan-pool:{seed}")
    for family, x_range, op_a, op_b in itertools.cycle(SCAN_STRATA):
        yield [
            "scan", "--family", family, "--x", _num(rng.uniform(*x_range)),
            "--op-a", op_a, "--op-b", op_b, "--workers", "2",
        ]


STREAMS = {"boundary": boundary_stream, "evolve-3x3": evolve_stream, "scan-pool": scan_stream}


def stream(workload: str, seed: int) -> Iterator[list[str]]:
    return STREAMS[workload](seed)


def input_shares(argvs: list[list[str]]) -> dict[str, float]:
    """Input-property shares of the commands that ran."""
    n = max(len(argvs), 1)
    identity = sum(
        1 for a in argvs if options(a).get("--op-a", "I") == "I" and options(a).get("--op-b", "I") == "I"
    )
    debug = sum(1 for a in argvs if "--debug-matrices" in a)
    return {"identity_flip_share": identity / n, "debug_matrices_share": debug / n}
