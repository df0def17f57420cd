"""End-to-end benchmark of rollgeo: ``rollgeo run`` on generated scenario files.

Usage (from the repository root):

    python3 perfbench/run.py --workload lift|rolling|shooting --seed N \
        --seconds S --trace 0|1

Each operation is one in-process ``rollgeo run <scenario file>
--output-dir <dir>`` through the CLI entry point; it fails when it exits
non-zero.  A round runs every operation of the workload once; rounds
repeat while the next one is predicted to end within ``--seconds``, and
at least one runs.  After the rounds every operation's artifacts are
checked against computations made apart from the program (see checks.py),
and later rounds must reproduce the first round's artifacts byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
setup_s (process start to scenario files written, which includes
importing rollgeo), wall_s (the sum over operations of each one's median
time over the rounds) and peak_rss_mb.  Both times are scaled to a fixed
reference speed of the machine; see PROBE_REF_S.  With ``--trace 1``
untraced and traced rounds alternate and the per-layer metrics of the
traced rounds are reported, with the tracing overhead.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, by the kernel's start time."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


_T0 = time.perf_counter()
_AGE0 = _process_age()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def _elapsed_since_start() -> float:
    return _AGE0 + (time.perf_counter() - _T0)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("lift", "rolling", "shooting"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import rollgeo from this checkout's src/ and nowhere else."""
    if not (SRC / "rollgeo" / "__init__.py").is_file():
        sys.exit(f"error: no rollgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rollgeo
    import rollgeo.cli

    if pathlib.Path(rollgeo.__file__).resolve().parent != (SRC / "rollgeo").resolve():
        sys.exit(f"error: rollgeo imported from {rollgeo.__file__}, not {SRC}")
    return rollgeo.cli


def run_operation(cli, scenario_path: pathlib.Path, out_dir: pathlib.Path) -> int:
    """One ``rollgeo run``; returns its exit code as a process would."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            cli.main(["run", str(scenario_path), "--output-dir", str(out_dir)],
                     prog_name="rollgeo", standalone_mode=True)
    except SystemExit as exc:
        code = exc.code
        return 0 if code is None else code if isinstance(code, int) else 1
    except Exception:  # an uncaught exception ends a real process with 1
        traceback.print_exc(file=sys.stderr)
        return 1
    return 0


# On a virtual machine that shares its host, such as the 2-CPU one these
# workloads were tuned on, an operation's time swings by up to 60% over tens
# of seconds as other tenants load the host.  Each operation's time is
# therefore scaled by PROBE_REF_S over the mean time of a fixed probe
# (interpreter loop plus 2x2 numpy algebra, like the program's inner loops)
# measured just before and just after it.  The set-up time is scaled by the
# mean of SETUP_PROBES probes taken right after it.  PROBE_REF_S is a fixed
# reference, the probe's typical time on that machine (0.039 to 0.057 s).
# Over two sets of ten runs per workload there, scaling cut the quartile
# spread of wall_s over its median from 20-24% to 10-19% (lift), 27-31% to
# 3-6% (rolling) and 13-14% to 6-9% (shooting), and the drift between the
# two sets' medians of lift wall_s and setup_s from 26% and 51% to 3% or less.
PROBE_REF_S = 0.048
SETUP_PROBES = 3


def speed_probe() -> float:
    """Seconds for a fixed mix of interpreter and small-array work."""
    import numpy as np

    start = time.perf_counter()
    acc = 0.0
    for i in range(250000):
        acc += i * 0.5
    a = np.eye(2)
    for _ in range(3500):
        a = np.linalg.inv(a @ a.T + np.eye(2))
    return time.perf_counter() - start


def digest(directory: pathlib.Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir()) if p.is_file()}


def invariant_headroom(ops, arts) -> float:
    """Worst measured invariant over its pinned threshold, passing ops only."""
    worst = 0.0
    for op in ops:
        art = arts[op.name]
        if art.exit_code != 0:
            continue
        inv = art.summary["invariants"]
        for key, bound in art.summary["tolerances"].items():
            if key != "integrator" and key in inv and bound > 0:
                worst = max(worst, float(inv[key]) / float(bound))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    import workloads

    ops = workloads.make_operations(args.workload, args.seed)
    run_dir = OUT / "runs" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    inputs = workloads.write_inputs(ops, run_dir / "inputs")
    art_dir = run_dir / "artifacts"
    art_dir.mkdir(parents=True, exist_ok=True)
    setup_raw = _elapsed_since_start()
    setup_s = setup_raw * PROBE_REF_S / statistics.mean(speed_probe() for _ in range(SETUP_PROBES))

    tracer = None
    run_one = run_operation
    if args.trace:
        import spans

        tracer = spans.Tracer()
        run_one = tracer.wrap("cli.run", run_operation)

    problems: list[str] = []
    layer_rounds = []
    # per operation, over the rounds: raw and scaled untraced times, and
    # scaled traced times
    op_times: dict[str, list[float]] = {op.name: [] for op in ops}
    scaled: dict[str, list[float]] = {op.name: [] for op in ops}
    scaled_traced: dict[str, list[float]] = {op.name: [] for op in ops}

    def one_round(traced: bool) -> dict:
        """Run every operation once, timing each; return the exit codes."""
        fn = run_one if traced else run_operation
        times = scaled_traced if traced else scaled
        if traced:
            tracer.reset()
            tracer.install()
        codes = {}
        try:
            probe = speed_probe()
            for op in ops:
                op_start = time.perf_counter()
                codes[op.name] = fn(cli, inputs[op.name], art_dir)
                took = time.perf_counter() - op_start
                after = speed_probe()
                times[op.name].append(took * 2 * PROBE_REF_S / (probe + after))
                probe = after
                if not traced:
                    op_times[op.name].append(took)
        finally:
            if traced:
                tracer.uninstall()
        return codes

    first_digest = first_codes = None
    attempted = failed = 0
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for traced in ((False, True) if args.trace else (False,)):
            codes = one_round(traced)
            attempted += len(codes)
            failed += sum(1 for c in codes.values() if c != 0)
            if first_digest is None:
                first_digest, first_codes = digest(art_dir), codes
            elif digest(art_dir) != first_digest or codes != first_codes:
                problems.append("a round did not reproduce the first round's "
                                "artifacts and exit codes")
            if traced:
                metrics, cross = spans.layer_metrics(tracer)
                problems += cross
                layer_rounds.append(metrics)
                if len(layer_rounds) == 1:
                    tracer.write(OUT / "traces" / f"{args.workload}-seed{args.seed}.csv.gz")
        last = time.perf_counter() - round_start
        if time.perf_counter() - loop_start + last > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks  # after the timed parts: its scipy imports are not set-up

    arts = {op.name: checks.read_artifacts(art_dir, op.name, first_codes[op.name])
            for op in ops}
    for op in ops:
        found, notes = checks.check_operation(op, arts[op.name], arts)
        problems += [f"{op.name}: {p}" for p in found]
        for note in notes:
            print(f"note: {note}", file=sys.stderr)
    for op in ops:
        status = arts[op.name].summary.get("status", "-")
        times = " ".join(f"{t:.3f}" for t in op_times[op.name])
        print(f"{op.name}: exit {first_codes[op.name]} ({status}) s: {times}",
              file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print("timing: " + json.dumps({"setup_raw": setup_raw, "op_times": op_times,
                                     "scaled": scaled}), file=sys.stderr)

    if args.trace:
        counts = [{k: v for k, v in m.items() if unit_of(k) == "count"}
                  for m in layer_rounds]
        if any(c != counts[0] for c in counts):
            problems.append("layer counts differ between traced rounds")
        values = {key: statistics.median(m[key] for m in layer_rounds)
                  for key in layer_rounds[0]}
        values["suites.invariant_headroom"] = invariant_headroom(ops, arts)
        values["trace.overhead_s"] = total_median(scaled_traced) - total_median(scaled)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": total_median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def total_median(times: dict[str, list[float]]) -> float:
    """Sum over operations of each one's median time over the rounds."""
    return sum(statistics.median(t) for t in times.values())


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("per_step", "per_iteration", "headroom")):
        return "ratio"
    if name.endswith("max_reprojection"):
        return "coord"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
