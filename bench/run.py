"""Benchmark of mixedsing: analyze latency, exact routes, exact arithmetic.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:
  fixtures-analyze  `mixedsing analyze FIXTURE --seed N` as a subprocess, for
                    every bundled fixture, in complete passes.
  exact-routes      the exact stages of analyze in one long-lived worker, on
                    hand-listed and seeded inputs, each under a 3 s wall
                    limit enforced by killing and replacing the worker.
  expand-ladder     in-process parse of seeded powered sums, then wirtinger,
                    format_mixed and from_pair products.

The load is a closed loop with one client: the next input is sent only
after the previous one has finished, and at most one child process works at
a time.  Every output is checked against an answer the package did not
compute (fixture `expect:` lines, a hand-listed table, bench/oracle.py or
combinatorial identities).  Each run writes its inputs, a machine note and
its metrics to bench/out/.  The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from math import factorial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("fixtures-analyze", "exact-routes", "expand-ladder")
TIME_LIMIT_S = 3.0
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120.0

# contract metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "p50_s": "s",
    "inputs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "answered_share": "ratio",
    "decided_share": "ratio",
}
PER_LAYER = {
    "milnorprobe.scan_s": "s",
    "milnorprobe.scan_samples": "count",
    "milnorprobe.hits": "count",
    "milnorprobe.hit_ratio": "ratio",
    "milnorprobe.tube_verdict_s": "s",
    "mixedsing.import_s": "s",
    "mixedsing.sympy_import_s": "s",
    "mixedsing.numpy_import_s": "s",
    "discgeom.isolated_s": "s",
    "discgeom.line_components_s": "s",
    "discgeom.sing_decomposition_s": "s",
    "discgeom.components": "count",
    "discgeom.decided_ratio": "ratio",
    "discgeom.timeouts": "count",
    "polar.solve_s": "s",
    "polar.lattice_rank_max": "count",
    "polar.found_ratio": "ratio",
    "parsing.parse_s": "s",
    "parsing.parse_calls": "count",
    "parsing.format_s": "s",
    "core.from_pair_s": "s",
    "core.wirtinger_s": "s",
    "core.terms_out": "count",
    "thomprobe.thom_test_s": "s",
    "thomprobe.curves": "count",
    "thomprobe.shells": "count",
    "thomprobe.converged_ratio": "ratio",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "cli.child_cpu_s": "s",
    "fixtures.load_s": "s",
    "trace.overhead_s": "s",
}
# the per-workload name of p50_s, printed alongside it
P50_NAME = {"fixtures-analyze": "analyze_p50_s", "exact-routes": "exact_p50_s",
            "expand-ladder": "expand_p50_s"}


# environment -------------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def machine_note() -> dict:
    versions = {}
    for dist in ("sympy", "numpy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "platform": platform.platform(),
    }


def measure_setup() -> list[float]:
    """Wall time of a fresh interpreter running `import mixedsing`."""
    times = []
    for _ in range(SETUP_REPEATS):
        # no timeout: subprocess polls a child with a timeout in 50 ms steps
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mixedsing"], env=child_env(), check=True)
        times.append(time.perf_counter() - t0)
    return times


_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_breakdown() -> dict[str, float]:
    """Cumulative import times from `python -X importtime`, medians."""
    wanted = {"mixedsing": "mixedsing.import_s", "sympy": "mixedsing.sympy_import_s",
              "numpy": "mixedsing.numpy_import_s"}
    samples: dict[str, list[float]] = {m: [] for m in wanted.values()}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mixedsing"],
                              env=child_env(), capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        seen = {}
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(3) in wanted:
                seen[wanted[m.group(3)]] = int(m.group(2)) / 1e6
        for key in samples:
            samples[key].append(seen.get(key, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def tail(values: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, if that
    percentile lies above the median."""
    s = sorted(values)
    i = len(s) - 11
    if 2 * (i + 1) <= len(s):
        return None
    return {"percentile": round(100 * (i + 1) / len(s), 1), "value": s[i]}


def passes(seconds: float):
    """Yield pass numbers until the run is as close to `seconds` as whole
    passes allow.

    Runs are made of complete passes so every run has the same input mix;
    the first pass always runs.
    """
    start, n, last = time.perf_counter(), 0, 0.0
    while n == 0 or time.perf_counter() - start + last / 2 <= seconds:
        t0 = time.perf_counter()
        yield n
        last = time.perf_counter() - t0
        n += 1


def max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


# fixtures-analyze --------------------------------------------------------------


def fixture_expectations() -> dict[str, dict[str, str]]:
    """`expect:` lines of every bundled fixture, read without the package."""
    out = {}
    for path in sorted((SRC / "mixedsing" / "fixtures").glob("*.fix")):
        name, expect = None, {}
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("name:"):
                name = line.split(":", 1)[1].strip()
            elif line.startswith("expect:"):
                key, value = line.split(":", 1)[1].split("=", 1)
                expect[key.strip()] = value.strip()
        out[name] = expect
    return out


def _vector(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


# expect key -> how to read it from an analyze report; keys the report does
# not carry (shear-k needs the shear command) are not checked
REPORT_VALUE = {
    "tube": lambda r: r["verdict"]["tube"],
    "tube-route": lambda r: r["verdict"]["tube_route"],
    "thom": lambda r: r["verdict"]["thom"],
    "thom-route": lambda r: r["verdict"]["thom_route"],
    "probe": lambda r: r["verdict"]["probe_summary"],
    "polar": lambda r: r["polar"]["polar"],
    "polar-p": lambda r: _vector(r["polar"]["p"]),
    "polar-k": lambda r: str(r["polar"]["k"]),
    "isolated": lambda r: r["discriminant"]["status"],
    "isolated-route": lambda r: r["discriminant"]["route"],
    "slope-lines": lambda r: _vector(
        c["slope_exact"] for c in r["discriminant"]["lines"]["components"]
        if c["kind"] == "slope"),
}
DEFINITE = {"tube": ("yes", "no"), "thom": ("regular", "fail"), "polar": ("yes", "no"),
            "isolated": ("isolated", "not-isolated")}


def analyze_call(fixture: str, seed: int, spans_file: Path | None = None) -> dict:
    args = ["analyze", fixture, "--seed", str(seed)]
    if spans_file is None:
        cmd = [sys.executable, "-m", "mixedsing.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_file), *args]
    cpu0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S)
        wall, code, stdout = time.perf_counter() - t0, proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        # run() has killed and reaped the child; the call is unanswered
        wall, code, stdout = CHILD_TIMEOUT_S, None, b""
    cpu1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "fixture": fixture, "wall_s": wall, "exit": code,
        "stdout": stdout, "report_bytes": len(stdout),
        "child_cpu_s": (cpu1.ru_utime - cpu0.ru_utime) + (cpu1.ru_stime - cpu0.ru_stime),
    }


def check_report(rec: dict, expect: dict[str, str]) -> None:
    """Fill rec with verdicts, questions decided and wrong expect keys."""
    rec["wrong"], rec["decided"], rec["questions"] = [], 0, 0
    try:
        report = json.loads(rec["stdout"])
        verdicts = {
            "tube": report["verdict"]["tube"], "thom": report["verdict"]["thom"],
            "polar": report["polar"]["polar"],
            "isolated": (report.get("discriminant") or {}).get("status"),
        }
        got = {key: REPORT_VALUE[key](report) for key in expect if key in REPORT_VALUE}
    except (ValueError, KeyError, TypeError) as exc:
        rec["answered"] = False
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return
    rec["answered"] = rec["exit"] == 0
    rec["verdicts"] = verdicts
    for q, value in verdicts.items():
        if q == "isolated" and report.get("discriminant") is None:
            continue  # single expressions have no pair question
        rec["questions"] += 1
        rec["decided"] += value in DEFINITE[q]
    rec["wrong"] = [f"{k}: expected {expect[k]!r}, got {v!r}" for k, v in got.items()
                    if v != expect[k]]


def run_fixtures(seed: int, seconds: float, trace: bool, fixtures=None) -> dict:
    expectations = fixture_expectations()
    names = fixtures or sorted(expectations)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{os.getpid()}.json"
    records, traced, layer_rows = [], [], []
    for _ in passes(seconds):
        for name in names:
            rec = analyze_call(name, seed)
            check_report(rec, expectations[name])
            records.append(rec)
            if trace:
                trec = analyze_call(name, seed, spans_file)
                if trec["exit"] == 0 and spans_file.is_file():
                    traced.append(trec)
                    layer_rows.extend(
                        spans.layer_times(json.loads(spans_file.read_text())).values())
                else:
                    # a traced call that crashes or hangs is an internal error
                    rec["answered"] = False
                    rec["error"] = f"traced call: exit {trec['exit']}, no spans"
                spans_file.unlink(missing_ok=True)
    # one report per run must be byte-identical to its rerun; a later pass
    # is the rerun when there is one
    pick = names[seed % len(names)]
    outputs = [r["stdout"] for r in records if r["fixture"] == pick]
    if len(outputs) < 2:
        outputs.append(analyze_call(pick, seed)["stdout"])
    identical = all(out == outputs[0] for out in outputs)

    times = [r["wall_s"] for r in records]
    failed = sum(1 for r in records if r["wrong"] or not r["answered"])
    result = {
        "samples": times,
        "attempted": len(records),
        "failed": failed,
        "correct": identical,
        "checks": {"rerun_byte_identical": identical, "rerun_fixture": pick},
        "e2e": {
            "p50_s": statistics.median(times),
            "inputs_per_s": len(records) / sum(times),
            "peak_rss_mb": max_rss_mb(resource.RUSAGE_CHILDREN),
            "answered_share": sum(r["answered"] for r in records) / len(records),
            "decided_share": sum(r["decided"] for r in records)
            / max(1, sum(r["questions"] for r in records)),
        },
        "extra": {"verdicts_wrong": sum(1 for r in records if r["wrong"])},
        "inputs": {"fixtures": names, "seed": seed},
        "records": [{k: v for k, v in r.items() if k != "stdout"}
                    | {"sha256": hashlib.sha256(r["stdout"]).hexdigest()} for r in records],
    }
    if trace:
        layers = spans.summarize(layer_rows)
        layers["cli.report_bytes"] = statistics.median(r["report_bytes"] for r in records)
        layers["cli.child_cpu_s"] = statistics.median(r["child_cpu_s"] for r in records)
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(times)) if traced else 0.0
        result["layers"] = layers
    return result


# exact-routes ------------------------------------------------------------------


class Worker:
    """The long-lived exact-routes worker; replaced after a timeout."""

    def __init__(self):
        self.proc = None
        self.restarts = 0

    def start(self) -> None:
        OUT.mkdir(exist_ok=True)
        with open(OUT / "worker.err", "ab") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py")], env=child_env(),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        line = self._read_line(CHILD_TIMEOUT_S)
        if not line or not json.loads(line).get("ready"):
            self.stop()
            raise RuntimeError("exact-routes worker failed to start; see bench/out/worker.err")

    def _read_line(self, timeout: float) -> bytes | None:
        """One line, b"" at end of file, None on timeout."""
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, timeout))
        if not ready:
            return None
        return self.proc.stdout.readline()

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None

    def request(self, req: dict, limit: float) -> tuple[str, dict | None, float]:
        """Send one input; returns (status, response, wall seconds)."""
        if self.proc is None:
            self.start()
        t0 = time.perf_counter()
        try:
            self.proc.stdin.write((json.dumps(req) + "\n").encode())
            self.proc.stdin.flush()
            line = self._read_line(limit)
        except BrokenPipeError:
            line = b""
        wall = time.perf_counter() - t0
        if line is None:
            self.stop()
            self.restarts += 1
            return "timeout", None, limit
        if not line:
            self.stop()
            self.restarts += 1
            return "error", {"error": "worker exited"}, wall
        return "ok", json.loads(line), wall


def truth(inp: inputs.ExactInput) -> dict:
    """Known answers for one input: the hand table first, then the oracle."""
    n = len(inp.variables)
    if inp.is_pair:
        F = oracle.pair_product(inp.f, inp.g, inp.variables)
    else:
        F = oracle.to_sympy(inp.expr, inp.variables)
    terms = oracle.exponent_pairs(F, n)
    out = {"terms": terms,
           "polar": "found" if oracle.polar_weights_exist(terms, n) else "none"}
    if inp.is_pair and n == 2:
        out["isolated"] = "isolated" if oracle.plane_isolated(inp.f, inp.g) else "not-isolated"
    if inp.is_pair:
        fs = oracle.to_sympy(inp.f, inp.variables).free_symbols
        gs = oracle.to_sympy(inp.g, inp.variables).free_symbols
        out["disjoint"] = bool(fs) and bool(gs) and not (fs & gs)
    out.update(inp.known)
    return out


def check_exact(inp: inputs.ExactInput, res: dict, known: dict) -> tuple[list, int]:
    """Wrong definite verdicts and the number of definite answers."""
    wrong, decided = [], 0
    polar = res["polar"]
    if polar in ("found", "none"):
        decided += 1
        if polar != known["polar"]:
            wrong.append(f"polar {polar}, known {known['polar']}")
        elif polar == "found" and not oracle.weights_valid(known["terms"], res["polar_p"],
                                                           res["polar_k"]):
            wrong.append(f"polar weights {res['polar_p']}, k={res['polar_k']} do not hold")
    iso = res["isolated"]
    if inp.is_pair and iso in ("isolated", "not-isolated"):
        decided += 1
        if "isolated" in known and iso != known["isolated"]:
            wrong.append(f"isolated {iso}, known {known['isolated']}")
    tube, route = res["tube"], res["tube_route"]
    if tube in ("yes", "no"):
        decided += 1
        if "tube" in known:
            ok = tube == known["tube"]
        elif route == "polar":
            ok = known["polar"] == "found"
        elif route == "disc-lines":
            ok = known.get("isolated") != "isolated"
        elif route == "separate-variables":
            ok = known.get("disjoint", False)
        else:
            ok = True
        if not ok:
            wrong.append(f"tube {tube} via {route}")
    return wrong, decided


def interleave(hand: list, seeded: list) -> list:
    """Spread the hand-listed inputs evenly through the seeded ones, so the
    timed work of a pass is spread over the whole pass."""
    out, step = [], len(seeded) / max(1, len(hand))
    for i, inp in enumerate(hand):
        out.extend(seeded[round(i * step):round((i + 1) * step)])
        out.append(inp)
    return out if hand else list(seeded)


def run_exact(seed: int, seconds: float, trace: bool, hand=None, limit=TIME_LIMIT_S,
              seeded=True) -> dict:
    rng = random.Random(seed)
    worker = Worker()
    records, layer_rows, traced_walls, untraced_walls = [], [], [], []
    all_inputs, protocol_ok = [], True
    try:
        for _ in passes(seconds):
            batch = interleave(list(inputs.HAND_INPUTS if hand is None else hand),
                               inputs.seeded_pairs(rng, len(all_inputs)) if seeded else [])
            for inp in batch:
                all_inputs.append(inp)
                req = {"id": len(records), "trace": False, **inp.as_dict()}
                # a rerun finds sympy's caches warm, so the traced run goes
                # first on every other input
                traced_first = trace and len(records) % 2 == 1
                if traced_first:
                    traced_run = worker.request({**req, "trace": True}, limit)
                status, res, wall = worker.request(req, limit)
                rec = {"name": inp.name, "status": status, "wall_s": wall,
                       "wrong": [], "decided": 0, "questions": 3 if inp.is_pair else 2}
                if status == "ok" and res["id"] != req["id"]:
                    protocol_ok = False
                if status == "ok" and "error" in res:
                    status = rec["status"] = "error"
                if status == "ok":
                    rec["result"] = {k: v for k, v in res.items() if k != "spans"}
                    rec["wrong"], rec["decided"] = check_exact(inp, res, truth(inp))
                elif res is not None:
                    rec["error"] = res["error"]
                records.append(rec)
                if trace and status == "ok":
                    if not traced_first:
                        traced_run = worker.request({**req, "trace": True}, limit)
                    tstatus, tres, twall = traced_run
                    if tstatus == "ok" and "error" not in tres:
                        layer_rows.extend(spans.layer_times(tres["spans"]).values())
                        traced_walls.append(twall)
                        untraced_walls.append(wall)
    finally:
        worker.stop()

    times = [r["wall_s"] for r in records]
    pairs = [r for r, i in zip(records, all_inputs) if i.is_pair]
    timeouts = sum(r["status"] == "timeout" for r in records)
    errors = sum(r["status"] == "error" for r in records)
    wrong = sum(1 for r in records if r["wrong"])
    result = {
        "samples": times,
        "attempted": len(records),
        "failed": wrong + timeouts + errors,
        "correct": protocol_ok,
        "checks": {"worker_protocol": protocol_ok, "timeouts": timeouts, "internal_errors": errors,
                   "worker_restarts": worker.restarts, "limit_s": limit},
        "e2e": {
            "p50_s": statistics.median(times),
            "inputs_per_s": len(records) / sum(times),
            "peak_rss_mb": max_rss_mb(resource.RUSAGE_CHILDREN),
            "answered_share": sum(r["status"] == "ok" for r in records) / len(records),
            "decided_share": sum(r["decided"] for r in records)
            / sum(r["questions"] for r in records),
        },
        "extra": {"verdicts_wrong": wrong, "timeouts": timeouts},
        "inputs": [i.as_dict() for i in all_inputs],
        "records": records,
    }
    if trace:
        layers = spans.summarize(layer_rows)
        layers["discgeom.timeouts"] = timeouts
        layers["discgeom.decided_ratio"] = sum(
            r.get("result", {}).get("isolated") in ("isolated", "not-isolated")
            for r in pairs) / max(1, len(pairs))
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(untraced_walls)) if traced_walls else 0.0
        result["layers"] = layers
    return result


# expand-ladder -----------------------------------------------------------------


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def multinomial_check(rung: inputs.Rung, poly, n_vars: int) -> bool:
    """Coefficient of u0^(k-2) * u1 * u2 is k!/(k-2)! * c0^(k-2) * c1 * c2."""
    exps = [rung.k - 2, 1, 1] + [0] * (len(rung.atoms) - 3)
    nu, mu = [0] * n_vars, [0] * n_vars
    want = (Fraction(factorial(rung.k), factorial(rung.k - 2)), Fraction(0))
    for atom, c, e in zip(rung.atoms, rung.coeffs, exps):
        c = (Fraction(c[0], c[1]), Fraction(c[2], c[3]))
        for _ in range(e):
            want = _cmul(want, c)
        if atom != "1":
            (mu if atom.endswith("~") else nu)["xyz".index(atom[0])] += e
    got = poly.coefficient(nu, mu)
    return (got.re, got.im) == want


def run_expand(seed: int, seconds: float, trace: bool, rungs=None) -> dict:
    sys.path.insert(0, str(SRC))
    import mixedsing as m

    V = inputs.XYZ
    # warm sympy's and the parser's caches before timing
    m.format_mixed(m.parse("((1/2 + i)*x + y~ + 1)^5", V).wirtinger().dF[0])
    m.from_pair(m.parse("(x + y)^3", V), m.parse("(y + 1)^2", V))

    def op(rung):
        E = m.parse(rung.expr, V)
        E.wirtinger()
        m.format_mixed(E)
        f, g = m.parse(rung.f, V), m.parse(rung.g, V)
        return E, f, g, m.from_pair(f, g)

    rng = random.Random(seed)
    tracer = spans.Tracer()
    records, rows, traced_walls, all_rungs = [], [], [], []
    for _ in passes(seconds):
        for rung in (rungs or inputs.ladder(rng)):
            all_rungs.append(rung)
            rec = {"k": rung.k, "summands": len(rung.atoms), "answered": True}
            t0 = time.perf_counter()
            try:
                E, f, g, P = op(rung)
            except Exception as exc:  # an internal fault fails this input only
                rec.update(answered=False, ok=False, terms_out=0,
                           error=f"{type(exc).__name__}: {exc}")
            else:
                rec["ok"] = (len(E.terms) == rung.terms and len(f.terms) == rung.f_terms
                             and len(g.terms) == rung.g_terms
                             and len(P.terms) == rung.f_terms * rung.g_terms
                             and multinomial_check(rung, E, len(V)))
                rec["terms_out"] = len(E.terms) + len(P.terms)
            rec["wall_s"] = time.perf_counter() - t0
            records.append(rec)
            if trace:
                tracer.spans, tracer.request = [], len(records)
                t0 = time.perf_counter()
                try:
                    with tracer.installed():
                        op(rung)
                except Exception as exc:  # counted as failed, no layer row
                    rec.update(answered=False, ok=False,
                               error=f"traced: {type(exc).__name__}: {exc}")
                    continue
                traced_walls.append(time.perf_counter() - t0)
                rows.extend(spans.layer_times(tracer.spans).values())
    times = [r["wall_s"] for r in records]
    result = {
        "samples": times,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "correct": True,
        "checks": {"term_counts_and_multinomial": all(r["ok"] for r in records)},
        "e2e": {
            "p50_s": statistics.median(times),
            "inputs_per_s": len(records) / sum(times),
            "peak_rss_mb": max_rss_mb(resource.RUSAGE_SELF),
            "answered_share": sum(r["answered"] for r in records) / len(records),
            "decided_share": sum(r["ok"] for r in records) / len(records),
        },
        "extra": {"expand_terms_per_s": sum(r["terms_out"] for r in records) / sum(times)},
        "inputs": [r.as_dict() for r in all_rungs],
        "records": records,
    }
    if trace:
        layers = spans.summarize(rows)
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - statistics.median(times)) if traced_walls else 0.0
        result["layers"] = layers
    return result


RUNNERS = {"fixtures-analyze": run_fixtures, "exact-routes": run_exact,
           "expand-ladder": run_expand}


# output ------------------------------------------------------------------------


def report_lines(workload: str, result: dict) -> list[str]:
    """Human-readable metric lines: name, value, unit, samples and tail."""
    lines = [f"workload {workload}: attempted {result['attempted']}, "
             f"failed {result['failed']}, correct {result['correct']}"]
    setup = result["setup_samples"]
    t = tail(setup)
    lines.append(f"  setup_s = {statistics.median(setup):.6f} s  (median, n={len(setup)}"
                 + (f", p{t['percentile']} {t['value']:.6f} s" if t else "") + ")")
    t = tail(result["samples"])
    for name, unit in END_TO_END.items():
        if name == "setup_s":
            continue
        value = result["e2e"][name]
        note = ""
        if name == "p50_s":
            note = f"  (median, n={len(result['samples'])}" + (
                f", p{t['percentile']} {t['value']:.6f} s)" if t
                else "; no percentile above the median has ten samples beyond it)")
        lines.append(f"  {name} = {value:.6f} {unit}{note}")
    lines.append(f"  {P50_NAME[workload]} = {result['e2e']['p50_s']:.6f} s")
    for name, value in result["extra"].items():
        unit = "1/s" if name.endswith("_per_s") else "count"
        lines.append(f"  {name} = {value:.6g} {unit}")
    for name, value in result["checks"].items():
        lines.append(f"  check {name}: {value}")
    if "layers" in result:
        for name, unit in PER_LAYER.items():
            lines.append(f"  {name} = {result['layers'][name]:.6g} {unit}")
    return lines


def final_json(result: dict, trace: bool) -> dict:
    if trace:
        metrics = {n: {"value": result["layers"][n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(result["setup_samples"]), **result["e2e"]}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: bool, **kwargs) -> dict:
    setup = measure_setup()
    result = RUNNERS[workload](seed, seconds, trace, **kwargs)
    result["setup_samples"] = setup
    if trace:
        result["layers"].update(import_breakdown())
        for name in PER_LAYER:
            result["layers"].setdefault(name, 0.0)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mixedsing" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'mixedsing'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in report_lines(args.workload, result):
        print(line)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_note(), **result,
        "final": final_json(result, bool(args.trace)),
    }, indent=1, default=str))
    print(f"results written to {out_file.relative_to(ROOT)}")
    print(json.dumps(final_json(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
