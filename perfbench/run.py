"""esdlab benchmark: seeded CLI workloads driven in process.

Usage (from the repository root):

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 30 --trace 0

One benchmark process runs a closed loop (one client: the next command starts
when the previous one returns) of generated ``esdlab`` commands through
``esdlab.cli.main(argv)``, timing each call from outside.  Outputs are
spooled to disk and checked after the timed loop.

``--trace 0`` measures for ``--seconds`` and prints the end-to-end
metrics.  ``--trace 1`` runs a fixed number of commands (whole cycles of
the workload's strata, set by the workload and ``--seconds``, so counts
repeat exactly for a seed) with every public layer function wrapped in a
span, and prints the per-layer metrics; the same commands are also run
untraced in a fresh interpreter to give the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report with sample counts, input shares and machine facts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import workloads
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPOOL_DIR = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 9
SETUP_PROBE = (
    "import time; t = time.perf_counter(); import esdlab.cli; "
    "print(time.perf_counter() - t)"
)
# commands per traced run, per second of --seconds
TRACE_RATE = {"boundary": 5.0, "evolve-3x3": 1.0, "scan-pool": 0.1}


def trace_count(workload: str, seconds: int) -> int:
    """Commands in a traced run: at least one whole cycle of the workload's
    strata, rounded up to whole cycles, so the traced inputs have the same
    mix as the end-to-end run's."""
    period = workloads.PERIOD[workload]
    return period * max(1, math.ceil(TRACE_RATE[workload] * seconds / period))


# ------------------------------------------------------------------ running


class SetupSampler:
    """Import times of esdlab.cli in fresh interpreters, taken between
    commands across the whole run (after one untimed warm-up import), so
    that they average over the host's speed swings."""

    def __init__(self, seconds: int):
        self.every = seconds / SETUP_REPEATS
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self._import()
        self.last = time.perf_counter()

    def _import(self) -> float:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    def between(self) -> None:
        if time.perf_counter() - self.last >= self.every:
            self.times.append(self._import())
            self.last = time.perf_counter()

    def finish(self) -> None:
        while len(self.times) < SETUP_REPEATS:
            self.times.append(self._import())


def run_loop(workload, seed, spool, deadline=None, count=None, samplers=()):
    """Closed loop over the workload stream.

    Returns (argvs, starts, latencies, wall).  Each sampler's ``between`` runs
    before every command, outside its latency, and its ``finish`` at the end.
    """
    from esdlab import cli

    argvs, starts, latencies = [], [], []
    stream = workloads.stream(workload, seed)
    t_begin = time.perf_counter()
    for argv in stream:
        if count is not None and len(argvs) >= count:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            break
        for sampler in samplers:
            sampler.between()
        out, err = StringIO(), StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        latencies.append(time.perf_counter() - t0)
        starts.append(t0)
        argvs.append(argv)
        if spool is not None:
            text_out, text_err = out.getvalue(), err.getvalue()
            header = {"argv": argv, "rc": rc, "out": len(text_out), "err": len(text_err)}
            spool.write(json.dumps(header) + "\n" + text_out + text_err)
    wall = time.perf_counter() - t_begin
    for sampler in samplers:
        sampler.finish()
    return argvs, starts, latencies, wall


def read_spool(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        while header := fh.readline():
            rec = json.loads(header)
            yield rec["argv"], rec["rc"], fh.read(rec["out"]), fh.read(rec["err"])


def check_outputs(workload: str, path: Path) -> dict:
    """Run the output checks over a spool file."""
    import checks

    check = checks.CHECKS[workload]
    result = {
        "attempted": 0, "failed": 0, "problems": [], "no_death": 0, "death_errs": [], "scan_rows": 0,
    }
    for argv, rc, out, err in read_spool(path):
        result["attempted"] += 1
        if rc != 0:
            problems = [f"exit {rc}: {err.strip()[-300:]}"]
            facts = {}
        else:
            try:
                problems, facts = check(argv, out)
            except Exception:
                problems, facts = [f"unreadable output: {traceback.format_exc(limit=1)}"], {}
        if problems:
            result["failed"] += 1
            if len(result["problems"]) < 5:
                result["problems"].append({"argv": argv, "problems": problems[:3]})
        result["no_death"] += bool(facts.get("no_death"))
        if "death_err" in facts:
            result["death_errs"].append(facts["death_err"])
        result["scan_rows"] += facts.get("scan_rows", 0)
    return result


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ metrics


def p50_p90(ms: list[float]) -> tuple[float, float]:
    p90 = statistics.quantiles(ms, n=10)[-1] if len(ms) >= 2 else ms[0]
    return statistics.median(ms), p90


def speed_factors(starts, latencies, speed) -> list[float]:
    """Each command's factor to the nominal speed of ``speed.py``."""
    return [speed.scale(t0, t0 + dt) for t0, dt in zip(starts, latencies)]


def end_to_end(setup, starts, latencies, wall, rss, speed) -> tuple[dict, list[str]]:
    n = len(latencies)
    factors = speed_factors(starts, latencies, speed)
    ms = [1000.0 * dt * f for dt, f in zip(latencies, factors)]
    p50, p90 = p50_p90(ms)
    raw_p50, raw_p90 = p50_p90([1000.0 * dt for dt in latencies])
    tail = f"n={n}" + ("" if n >= 100 else "; fewer than 100 samples, indicative")
    metrics = {
        "setup_s": (
            statistics.median(setup.times), "s",
            f"median of {len(setup.times)} fresh imports spread over the run",
        ),
        "cmds_per_s": (1000.0 * n / sum(ms), "1/s", f"{n} commands, closed loop, 1 client"),
        "cmd_p50_ms": (p50, "ms", f"n={n}"),
        "cmd_p90_ms": (p90, "ms", tail),
        "peak_rss_mb": (rss, "MB", "max of this process and its pool children"),
    }
    lines = [
        f"raw (unscaled): {n / sum(latencies):.4g} cmds/s, {wall:.2f} s wall, p50 {raw_p50:.4g} ms, "
        f"p90 {raw_p90:.4g} ms; speed scale median {statistics.median(factors):.4f} "
        f"from {len(speed.values)} probes ({speed.spent:.2f} s, outside the latencies)",
    ]
    return metrics, lines


def per_layer(spans, checked, overhead, n, scale) -> dict:
    """Per-layer metrics from the spans of a traced run; self times are
    multiplied by the run's median speed factor ``scale``."""
    metrics: dict = {}

    def put(name, value, unit, note="", needs=()):
        if all(spans.present(x) for x in needs):
            metrics[name] = (value, unit, note)

    for layer in (
        "dynamics.death_point_record", "dynamics.death_point", "channels.composite_kraus",
        "channels.apply_channel", "qla.hermitian_eigenvalues", "measures.negativity",
        "qla.trace_norm", "measures.realigned_negativity", "dynamics.state_after_flip",
        "dynamics.evolve_two_stage", "dynamics.regime_boundaries", "cli.main",
        "states.build_state", "luo.apply_luo",
    ):
        put(f"{layer}.calls", spans.calls(layer), "count", needs=[layer])
    for layer in (
        "dynamics.death_point_record", "channels.composite_kraus", "channels.apply_channel",
        "qla.hermitian_eigenvalues", "measures.negativity", "qla.partial_transpose",
        "qla.trace_norm", "measures.realigned_negativity", "dynamics.evolve_two_stage",
        "dynamics.regime_boundaries", "cli.main", "luo.apply_luo",
    ):
        put(f"{layer}.self_s", scale * spans.self_s(layer), "s", needs=[layer])

    io_names = [n for n in spans.names if n.startswith("io.")]
    metrics["io.calls"] = (sum(spans.calls(x) for x in io_names), "count", "all io functions")
    metrics["io.self_s"] = (
        scale * sum(spans.self_s(x) for x in io_names), "s", "all io functions",
    )

    records = spans.calls("dynamics.death_point_record")
    evals = spans.calls_under("measures.negativity", "dynamics.death_point_record")
    put(
        "dynamics.evals_per_death", evals / records if records else 0.0, "evals/death",
        f"{evals} negativity evaluations over {records} solves",
        needs=["measures.negativity", "dynamics.death_point_record"],
    )
    lookups = spans.calls("dynamics.death_point")
    solves = spans.calls_under("dynamics.death_point_record", "dynamics.death_point")
    put(
        "dynamics.death_cache_hit_ratio", 1.0 - solves / lookups if lookups else 0.0, "ratio",
        f"{lookups - solves} hits in {lookups} death_point calls",
        needs=["dynamics.death_point", "dynamics.death_point_record"],
    )
    flips = spans.calls("dynamics.state_after_flip")
    builds = spans.calls_under("states.build_state", "dynamics.state_after_flip")
    put(
        "dynamics.flip_cache_hit_ratio", 1.0 - builds / flips if flips else 0.0, "ratio",
        f"{flips - builds} hits in {flips} state_after_flip calls",
        needs=["dynamics.state_after_flip", "states.build_state"],
    )
    metrics["dynamics.classify.calls"] = (
        max(spans.calls("dynamics.classify"), checked["scan_rows"]), "count",
        "spans, or scan rows where each row's classify call ran in a pool worker",
    )
    put("cli.pool_phase_s", scale * spans.self_s("cli.cmd_scan"), "s",
        "self time of cmd_scan: the parent waiting on the pool", needs=["cli.cmd_scan"])
    errs = checked["death_errs"]
    metrics["dynamics.death_err_max"] = (
        max(errs) if errs else 0.0, "p_prime", f"max |d - oracle root| over {len(errs)} items",
    )
    metrics["trace_overhead_ratio"] = overhead
    metrics["trace.commands"] = (n, "count", "commands in the traced run")
    return metrics


# ------------------------------------------------------------------ main


def report(title: str, metrics: dict, lines: list[str]) -> None:
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:12s} {note}")
    for line in lines:
        print("  " + line)


def run(args) -> int:
    SPOOL_DIR.mkdir(exist_ok=True)
    stem = SPOOL_DIR / f"{args.workload}-{args.seed}"
    spool_path = SPOOL_DIR / f"{stem.name}-t{args.trace}-{os.getpid()}.spool"
    n_fixed = trace_count(args.workload, args.seconds) if args.trace else None
    tracer, setup, untraced_s = None, None, None
    if args.trace:
        untraced_s = untraced_reference(args, n_fixed)
    else:
        setup = SetupSampler(args.seconds)
    speed = SpeedProbe()

    import esdlab

    if Path(esdlab.__file__).resolve().parent != SRC / "esdlab":
        print(f"error: imported esdlab from {esdlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        with open(spool_path, "w", encoding="utf-8", newline="") as spool:
            deadline = None if args.trace else time.perf_counter() + args.seconds
            argvs, starts, latencies, wall = run_loop(
                args.workload, args.seed, spool, deadline=deadline, count=n_fixed,
                samplers=[s for s in (speed, setup) if s is not None],
            )
        rss = peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()

    t_check = time.perf_counter()
    checked = check_outputs(args.workload, spool_path)
    t_check = time.perf_counter() - t_check
    spool_path.unlink()

    n = len(argvs)
    shares = workloads.input_shares(argvs)
    lines = [
        f"fail_ratio {checked['failed']}/{checked['attempted']} commands "
        f"(exit code, exception or output check; checks took {t_check:.2f} s)",
        f"inputs: no_death_share={checked['no_death'] / n:.4f} (of {n})"
        + "".join(f" {k}={v:.4f}" for k, v in shares.items()),
    ]
    lines += [f"check failed: {json.dumps(p)}" for p in checked["problems"]]
    lines.append(f"machine: {json.dumps(machine())}")

    if args.trace:
        import tracing

        tracer.save(stem.with_suffix(".npz"))
        spans = tracing.Spans(tracer)
        factors = speed_factors(starts, latencies, speed)
        traced_s = sum(dt * f for dt, f in zip(latencies, factors))
        overhead = (
            traced_s / untraced_s - 1.0, "ratio",
            f"indicative: command time traced {traced_s:.2f} s vs untraced {untraced_s:.2f} s, "
            "both speed-scaled",
        )
        scale = statistics.median(factors)
        metrics = per_layer(spans, checked, overhead, n, scale)
        lines.append(f"self times scaled by the run's median speed factor {scale:.4f}")
        if spans.absent:
            lines.append(f"absent layer functions (metrics omitted): {sorted(spans.absent)}")
        if args.workload == "scan-pool":
            lines.append(
                "spans inside pool workers are not collected: per-layer figures are "
                "parent-side, plus cli.pool_phase_s"
            )
        lines.append(f"spans written to {stem.with_suffix('.npz').relative_to(ROOT)}")
        title = f"esdlab per-layer, workload={args.workload} seed={args.seed} commands={n}"
    else:
        metrics, scale_lines = end_to_end(setup, starts, latencies, wall, rss, speed)
        lines = scale_lines + lines
        title = f"esdlab end-to-end, workload={args.workload} seed={args.seed} seconds={args.seconds}"
    report(title, metrics, lines)
    print(json.dumps({
        "correct": checked["failed"] == 0,
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def untraced_reference(args, count: int) -> float:
    """Speed-scaled command time of the traced run's commands, untraced, in a
    fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
         "--fixed-count", str(count)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["command_s"]


def fixed_count_pass(args) -> int:
    """Internal: run a fixed number of commands untraced and print their
    speed-scaled command time, measured as in the traced run."""
    speed = SpeedProbe()
    _, starts, latencies, _ = run_loop(
        args.workload, args.seed, None, count=args.fixed_count, samplers=[speed],
    )
    factors = speed_factors(starts, latencies, speed)
    print(json.dumps({"command_s": sum(dt * f for dt, f in zip(latencies, factors))}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fixed-count", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "esdlab" / "cli.py").is_file():
        print(f"error: no esdlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.fixed_count is not None:
        return fixed_count_pass(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
