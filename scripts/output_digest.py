#!/usr/bin/env python3
"""Print a digest of the CLI's output on a fixed command set.

One line per command: the exit code, the SHA-256 of its stdout followed by
its stderr, and the argv.  Run it on two versions of the code and diff the
outputs; identical digests mean byte-identical output.  The set covers
every command: the help texts; table1 with one and two workers; scans on
both 2x3 families, on a hasten-only, an avoid-and-delay-only and two 3x3
flip pairs, at --tol 1e-9, and on a p_n grid fine enough to take several
solver stacks, and at --zero-threshold 1e-9; surfaces on 2x3 and 3x3
with one and two workers, and at --tol 1e-9; evolve in CSV and JSON on
all three families, on a grid fine enough to take several stacks, on
state1 with F02 (whose singular 2x2 block at p' = 0.5 prints an exact
0, not rounding noise), with --ratio-a/--ratio-b, and in CSV with
--debug-matrices (which acts only on JSON); evolve in JSON with
--debug-matrices on 6x6 and 9x9 grids of several stacks each, and on
6x6 with --ratio-a/--ratio-b; 60 seeded boundary queries, one more at
--tol 1e-9, one at --zero-threshold 1e-9, one with
--ratio-a/--ratio-b; two configuration errors; and one option on each
command that does not read it, which argparse rejects.

    PYTHONPATH=src COLUMNS=80 python scripts/output_digest.py

COLUMNS fixes the width argparse wraps the help texts to.
"""

import hashlib
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from esdlab.cli import COMMANDS, main

QUBIT_OPS = ("I", "X")
QUTRIT_OPS = ("I", "F01", "F02", "F102", "F201")


def commands() -> list[list[str]]:
    cmds = [["--help"]] + [[cmd, "--help"] for cmd in COMMANDS]
    cmds += [
        ["table1"],
        ["table1", "--workers", "2"],
        ["scan", "--family", "state1", "--op-a", "X", "--op-b", "F01"],
        ["scan", "--family", "state2", "--op-a", "I", "--op-b", "F02"],
        ["scan", "--family", "state1", "--op-a", "X", "--op-b", "F02"],
        ["scan", "--family", "state1", "--op-a", "I", "--op-b", "F01"],
        ["scan", "--family", "twoqutrit", "--op-a", "F01", "--op-b", "I"],
        ["scan", "--family", "twoqutrit", "--op-a", "F01", "--op-b", "F01", "--workers", "2"],
        ["scan", "--family", "state1", "--op-a", "X", "--op-b", "F01", "--tol", "1e-9",
         "--pn-step", "0.05"],
        ["scan", "--family", "state2", "--op-a", "X", "--op-b", "F102", "--pn-step", "0.003"],
        ["scan", "--family", "state1", "--op-a", "X", "--op-b", "F01", "--zero-threshold", "1e-9"],
        ["surface", "--family", "state2", "--op-a", "X", "--op-b", "F201", "--grid", "9",
         "--tol", "1e-9"],
    ]
    for family, op_a, op_b in (("state1", "X", "F01"), ("twoqutrit", "F01", "F02")):
        for workers in ("1", "2"):
            cmds.append(["surface", "--family", family, "--op-a", op_a, "--op-b", op_b,
                         "--grid", "11", "--workers", workers])
    for family, op_a, op_b in (("state1", "X", "F02"), ("state2", "X", "F201"),
                               ("twoqutrit", "F102", "F01")):
        for fmt in ("csv", "json"):
            cmds.append(["evolve", "--family", family, "--op-a", op_a, "--op-b", op_b,
                         "--pn", "0.15", "--format", fmt])
    fine = ["evolve", "--family", "state1", "--op-a", "X", "--op-b", "F01", "--pn", "0.1",
            "--pprime-step", "0.0003"]
    cmds += [fine, fine + ["--format", "json", "--debug-matrices"]]
    cmds.append(["evolve", "--family", "state1", "--x", "0.25", "--op-b", "F02"])
    cmds.append(["evolve", "--family", "state2", "--op-a", "X", "--op-b", "F01", "--pn", "0.1",
                 "--ratio-a", "0.7", "--ratio-b", "0.4"])
    rng = random.Random(20201)
    for i in range(60):
        family = "state1" if i % 2 else "state2"
        x = rng.uniform(0.0, 0.333) if family == "state1" else rng.uniform(0.334, 0.5)
        cmds.append(["boundary", "--family", family, "--x", f"{x:.6f}",
                     "--op-a", rng.choice(QUBIT_OPS), "--op-b", rng.choice(QUTRIT_OPS),
                     "--pn", f"{rng.uniform(0.0, 0.5):.6f}"])
    cmds.append(["boundary", "--family", "state1", "--op-a", "X", "--op-b", "F01",
                 "--pn", "0.3", "--tol", "1e-9"])
    cmds.append(["boundary", "--family", "state1", "--op-a", "X", "--op-b", "F01",
                 "--pn", "0.3", "--zero-threshold", "1e-9"])
    cmds.append(["boundary", "--family", "state2", "--op-a", "X", "--op-b", "F201",
                 "--pn", "0.2", "--ratio-a", "0.7", "--ratio-b", "0.4"])
    cmds.append(["boundary", "--family", "state1", "--x", "0.4"])
    cmds.append(["evolve", "--family", "twoqutrit", "--op-a", "X"])
    cmds.append(["evolve", "--family", "twoqutrit", "--op-a", "F01", "--pprime-step", "0.05",
                 "--debug-matrices"])
    cmds.append(["evolve", "--family", "twoqutrit", "--op-a", "F01", "--op-b", "F02",
                 "--pprime-step", "0.003", "--format", "json", "--debug-matrices"])
    cmds.append(["evolve", "--family", "state2", "--op-a", "X", "--op-b", "F01", "--pn", "0.1",
                 "--ratio-a", "0.7", "--ratio-b", "0.4", "--format", "json", "--debug-matrices"])
    cmds += [["table1", "--x", "0.45"], ["evolve", "--tol", "1e-9"], ["boundary", "--grid", "5"],
             ["scan", "--pn", "0.1"], ["surface", "--debug-matrices"]]
    return cmds


def digest(argv: list[str]) -> tuple[int, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, hashlib.sha256((out.getvalue() + err.getvalue()).encode()).hexdigest()


if __name__ == "__main__":
    for argv in commands():
        code, sha = digest(argv)
        print(code, sha, " ".join(argv))
