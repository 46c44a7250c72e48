"""Quick self-test of the benchmark (about a minute).

Runs one input per workload, untraced and traced, and checks that every
metric prints by name with its unit and that the final JSON line carries
exactly the declared metrics.  Runs a hanging exact-routes input under a
1 s limit and checks that it is killed, counted as a timeout, and that the
replacement worker answers the next input; checks that an analyze call past
its limit is killed and counted unanswered.  Checks that the hand-listed
known answers agree with bench/oracle.py.

Run as: python3 bench/selftest.py   (exit code 0 when every check passes)
"""

from __future__ import annotations

import json
import random
import sys

import inputs
import oracle
import run


def check_oracle_table(failures: list[str]) -> None:
    for inp in inputs.HAND_INPUTS:
        known = run.truth(inp)
        if "polar" in inp.known:
            n = len(inp.variables)
            got = "found" if oracle.polar_weights_exist(known["terms"], n) else "none"
            if got != inp.known["polar"]:
                failures.append(f"{inp.name}: table polar {inp.known['polar']}, oracle {got}")
        if "isolated" in inp.known and len(inp.variables) == 2:
            got = "isolated" if oracle.plane_isolated(inp.f, inp.g) else "not-isolated"
            if got != inp.known["isolated"]:
                failures.append(f"{inp.name}: table isolated {inp.known['isolated']}, oracle {got}")


def check_hang(failures: list[str]) -> None:
    by_name = {i.name: i for i in inputs.HAND_INPUTS}
    hang, fast = by_name["hang-x3y4-xyy2"], by_name["x-xy2"]
    res = run.run_exact(1, 0, False, hand=(hang, fast), limit=1.0, seeded=False)
    statuses = [r["status"] for r in res["records"]]
    if statuses != ["timeout", "ok"]:
        failures.append(f"hang handling: statuses {statuses}, want ['timeout', 'ok']")
    if res["checks"]["worker_restarts"] != 1 or res["extra"]["timeouts"] != 1:
        failures.append(f"hang handling: checks {res['checks']}")
    if res["records"][0]["wall_s"] != 1.0 or res["e2e"]["answered_share"] != 0.5:
        failures.append("hang handling: a timeout must count at the limit and as unanswered")


def check_analyze_timeout(failures: list[str]) -> None:
    limit, run.CHILD_TIMEOUT_S = run.CHILD_TIMEOUT_S, 0.05
    try:
        rec = run.analyze_call("xy-xbar", 1)
    finally:
        run.CHILD_TIMEOUT_S = limit
    run.check_report(rec, {})
    if rec["exit"] is not None or rec["wall_s"] != 0.05 or rec["answered"]:
        failures.append(f"analyze timeout: {rec}")


def check_metrics(failures: list[str]) -> None:
    fast = next(i for i in inputs.HAND_INPUTS if i.name == "x-xy2")
    rung = inputs.ladder(random.Random(1))[0]
    cases = {
        "fixtures-analyze": {"fixtures": ["xy-xbar"]},
        "exact-routes": {"hand": (fast,), "seeded": False},
        "expand-ladder": {"rungs": [rung]},
    }
    for workload, kwargs in cases.items():
        for trace in (False, True):
            result = run.run(workload, 1, 0, trace, **kwargs)
            lines = run.report_lines(workload, result)
            final = json.loads(json.dumps(run.final_json(result, trace)))
            names = run.PER_LAYER if trace else run.END_TO_END
            for name, unit in names.items():
                if not any(line.strip().startswith(f"{name} = ") and f" {unit}" in line
                           for line in lines):
                    failures.append(f"{workload} trace={trace}: {name} [{unit}] not printed")
            if set(final["metrics"]) != set(names) or any(
                    final["metrics"][n]["unit"] != u for n, u in names.items()):
                failures.append(f"{workload} trace={trace}: final metrics {sorted(final['metrics'])}")
            if final["attempted"] < 1 or final["failed"] or not final["correct"]:
                failures.append(f"{workload} trace={trace}: {final}")


def main() -> int:
    failures: list[str] = []
    check_oracle_table(failures)
    check_hang(failures)
    check_analyze_timeout(failures)
    check_metrics(failures)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
