"""Self-test of the benchmark's correctness checks.

Runs one operation for every check (the lift and rolling workloads and
one seeded boundary value problem), confirms that the real artifacts
pass, then feeds each check deliberately corrupted copies (a perturbed
table column, a shifted endpoint) and confirms that every corruption is
rejected.  Exits non-zero if a clean artifact fails or a corruption
passes.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import shutil
import sys

import run


def _bump(col: str, row: int, by: float):
    def corrupt(art):
        art.table[col][row] += by
    return corrupt


def _ramp(col: str, by: float):
    def corrupt(art):
        t = art.table["t"]
        art.table[col] += by * (t - t[0]) / (t[-1] - t[0])
    return corrupt


def _scale(col: str, by: float):
    def corrupt(art):
        art.table[col] *= by
    return corrupt


def _unconverged(art):
    art.summary["invariants"]["converged"] = False


# operation name -> [(description, corruption)]
CORRUPTIONS = {
    "heisenberg-lift": [("x1 at mid row + 1e-5", _bump("x1", 100, 1e-5)),
                        ("a2 endpoint + 1e-5", _bump("a2", -1, 1e-5)),
                        ("y1 drifting by 1e-5", _ramp("y1", 1e-5))],
    "frame-bundle-lift": [("a1 at one row + 1e-7", _bump("a1", 50, 1e-7)),
                          ("plane trace y2 scaled by 1.001", _scale("y2", 1.001))],
    "sphere-on-plane-geodesic": [("u2 at one row + 1e-7", _bump("u2", 80, 1e-7)),
                                 ("v2 endpoint + 1e-9", _bump("v2", -1, 1e-9)),
                                 ("xhat1 drifting by 1e-3", _ramp("xhat1", 1e-3))],
    "sphere-on-sphere-geodesic": [("x2 drifting by 1e-3", _ramp("x2", 1e-3))],
    "paired-geodesic": [("x1 endpoint + 1e-6", _bump("x1", -1, 1e-6))],
    "sphere-on-plane-pendulum": [("theta drifting by 1e-6", _ramp("theta", 1e-6))],
    "paraboloid-on-plane-pendulum": [("L drifting by 1e-3", _ramp("L", 1e-3))],
    "sphere-great-circle-develop": [("xhat2 endpoint + 1e-4", _bump("xhat2", -1, 1e-4)),
                                    ("f11 endpoint + 1e-6", _bump("f11", -1, 1e-6))],
    "paraboloid-magnetic-roll": [("w1 drifting by 1e-4", _ramp("w1", 1e-4)),
                                 ("u2 at one row + 1e-7", _bump("u2", 20, 1e-7))],
    "sphere-on-plane-bvp": [("x1 endpoint + 1e-6", _bump("x1", -1, 1e-6)),
                            ("u1 at one row + 1e-6", _bump("u1", 10, 1e-6)),
                            ("solver reports no convergence", _unconverged)],
}


def main() -> int:
    cli = run.import_program()
    import checks
    import workloads

    ops = (workloads.make_operations("lift", 0)
           + workloads.make_operations("rolling", 0)
           + workloads.make_operations("shooting", 0)[:1])
    work = run.OUT / "selftest"
    inputs = workloads.write_inputs(ops, work / "inputs")
    art_dir = work / "artifacts"
    art_dir.mkdir(parents=True, exist_ok=True)
    codes = {op.name: run.run_operation(cli, inputs[op.name], art_dir) for op in ops}
    arts = {op.name: checks.read_artifacts(art_dir, op.name, codes[op.name]) for op in ops}
    by_name = {op.name: op for op in ops}

    bad = 0
    for op in ops:
        problems, _ = checks.check_operation(op, arts[op.name], arts)
        if op.fault is not None:
            continue
        print(f"{'ok  ' if not problems else 'FAIL'} clean    {op.name}")
        bad += bool(problems)
    for name, cases in CORRUPTIONS.items():
        op = by_name[name]
        for label, corrupt in cases:
            art = copy.deepcopy(arts[name])
            corrupt(art)
            others = {**arts, name: art}
            problems, _ = checks.check_operation(op, art, others)
            for partner in (o for o in ops if o.pair == name):
                problems += checks.check_operation(partner, arts[partner.name], others)[0]
            verdict = "ok  " if problems else "FAIL"
            reason = problems[0] if problems else "corruption passed"
            print(f"{verdict} rejects  {name}: {label} -> {reason}")
            bad += not problems
    shutil.rmtree(work, ignore_errors=True)
    print(f"{bad} self-test failure(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
