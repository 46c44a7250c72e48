"""exact-routes worker: runs the exact stages of ``mixedsing analyze``.

Reads one JSON request per line on stdin and answers one JSON line on
stdout.  Stages run in ``_cmd_analyze``'s order with no probes: parse,
from_pair, solve_polar, isolated_value_verdict, line_components,
sing_decomposition and tube_verdict.  The parent enforces the time limit
by killing this process.

Run as: PYTHONPATH=src python3 bench/worker.py
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mixedsing  # noqa: E402
from mixedsing.discgeom import DegenerateEliminationError, DegreeBoundError  # noqa: E402

import spans  # noqa: E402


def run_stages(req: dict) -> dict:
    m = mixedsing
    variables = tuple(req["variables"])
    if req["expr"] is None:
        f, g = m.parse(req["f"], variables), m.parse(req["g"], variables)
        F, pair = m.from_pair(f, g), (f, g)
    else:
        F, pair = m.parse(req["expr"], variables), None
    polar = m.solve_polar(F)
    out = {
        "polar": polar.status,
        "polar_p": list(polar.canonical.p) if polar.canonical else None,
        "polar_k": polar.canonical.k if polar.canonical else None,
        "lattice_rank": len(polar.lattice_basis),
        "isolated": None, "isolated_route": None, "components": 0,
    }
    isolated = None
    if pair is not None:
        try:
            isolated = m.isolated_value_verdict(*pair)
            out["isolated"], out["isolated_route"] = isolated.status, isolated.route
            if F.n_vars == 2 and isolated.discriminant is not None:
                out["components"] = len(m.line_components(isolated.discriminant).components)
        except (DegenerateEliminationError, DegreeBoundError) as exc:
            out["isolated"], out["isolated_route"] = "unavailable", str(exc)
        m.sing_decomposition(*pair)
    verdict = m.tube_verdict(F, pair=pair, isolated=isolated, polar=polar, probes=())
    out["tube"], out["tube_route"] = verdict.tube_status, verdict.tube_route
    return out


def warm() -> None:
    """Fill sympy's caches: the first exact call costs ~0.3 s more."""
    run_stages({"variables": ["x", "y"], "f": "x^2", "g": "y^3", "expr": None})
    run_stages({"variables": ["x", "y", "z"], "f": "x^2 - z*y^2", "g": "y", "expr": None})


def main() -> int:
    warm()
    tracer = spans.Tracer()
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        req = json.loads(line)
        tracer.spans, tracer.request = [], req["id"]
        start = time.perf_counter()
        try:
            if req["trace"]:
                with tracer.installed():
                    out = run_stages(req)
            else:
                out = run_stages(req)
        except Exception as exc:  # a fault must not stop the worker
            out = {"error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc()}
        out["id"] = req["id"]
        out["worker_s"] = time.perf_counter() - start
        out["spans"] = tracer.spans if req["trace"] else []
        print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
