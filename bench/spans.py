"""In-memory spans around the public functions of mixedsing.

A ``Tracer`` wraps the functions that ``mixedsing.cli`` imports, on every
loaded ``mixedsing`` module that binds them, so calls between modules nest
as child spans.  Spans stay in memory until the caller writes them out.
Counts are read from each call's returned object.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import contextmanager


def _scan_counts(r):
    return {"scan_samples": len(r.shells) * r.samples_per_shell,
            "hits": sum(s.count for s in r.shells)}


def _polar_counts(r):
    return {"lattice_rank": len(r.lattice_basis), "polar_found": int(r.status == "found"),
            "polar_calls": 1}


def _isolated_counts(r):
    return {"isolated_decided": int(r.status in ("isolated", "not-isolated")),
            "isolated_calls": 1}


def _thom_counts(r):
    return {"curves": len(r.per_curve),
            "shells": sum(len(p.plane_dims) for p in r.per_curve),
            "converged": sum(p.limit_plane is not None for p in r.per_curve)}


def _terms_counts(r):
    return {"terms_out": len(r.terms)}


def _parse_counts(r):
    return {"parse_calls": 1, "terms_out": len(r.terms)}


# (defining module, attribute, layer metric for its self time, counter)
TRACED = (
    ("mixedsing.core", "from_pair", "core.from_pair_s", _terms_counts),
    ("mixedsing.core", "MixedPolynomial.wirtinger", "core.wirtinger_s", None),
    ("mixedsing.discgeom", "discriminant_curve", "discgeom.isolated_s", None),
    ("mixedsing.discgeom", "isolated_value_verdict", "discgeom.isolated_s", _isolated_counts),
    ("mixedsing.discgeom", "jacobian_det", "discgeom.isolated_s", None),
    ("mixedsing.discgeom", "parse_branch", "discgeom.isolated_s", None),
    ("mixedsing.discgeom", "branch_restriction_singular", "discgeom.isolated_s", None),
    ("mixedsing.discgeom", "shear_search", "discgeom.isolated_s", None),
    ("mixedsing.discgeom", "line_components", "discgeom.line_components_s",
     lambda r: {"components": len(r.components)}),
    ("mixedsing.discgeom", "sing_decomposition", "discgeom.sing_decomposition_s", None),
    ("mixedsing.fixtures", "fixture_names", "fixtures.load_s", None),
    ("mixedsing.fixtures", "load_fixture", "fixtures.load_s", None),
    ("mixedsing.milnorprobe", "milnor_scan", "milnorprobe.scan_s", _scan_counts),
    ("mixedsing.milnorprobe", "tube_verdict", "milnorprobe.tube_verdict_s", None),
    ("mixedsing.parsing", "parse", "parsing.parse_s", _parse_counts),
    ("mixedsing.parsing", "format_mixed", "parsing.format_s", None),
    ("mixedsing.parsing", "format_scalar", "parsing.format_s", None),
    ("mixedsing.polar", "solve_polar", "polar.solve_s", _polar_counts),
    ("mixedsing.thomprobe", "default_curve_battery", "thomprobe.thom_test_s", None),
    ("mixedsing.thomprobe", "normal_family_symbolic", "thomprobe.thom_test_s", None),
    ("mixedsing.thomprobe", "thom_test", "thomprobe.thom_test_s", _thom_counts),
    ("mixedsing.cli", "main", "cli.self_s", None),
)

LAYER_OF = {f"{mod.rsplit('.', 1)[1]}.{attr}": layer for mod, attr, layer, _ in TRACED}


class Tracer:
    """Records spans (name, start, end, parent, request id) in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.request = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled on return
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = {
                    "id": sid, "name": name, "start": start, "end": end,
                    "parent": parent, "request": self.request,
                    "counts": counter(result) if ok and counter else {},
                }
        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions in the loaded modules;
        restore on exit."""
        patches = []
        for mod_name, attr, _layer, counter in TRACED:
            module = sys.modules.get(mod_name)
            if module is None:
                continue
            name = f"{mod_name.rsplit('.', 1)[1]}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                patches.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original, counter))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for m_name, m in list(sys.modules.items()):
                if m_name.startswith("mixedsing") and m is not None \
                        and getattr(m, attr, None) is original:
                    patches.append((m, attr, original))
                    setattr(m, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def layer_times(spans: list[dict]) -> dict[object, dict[str, float]]:
    """Per request: self time per layer metric, counts, and cli.main_s.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because they are recorded on one thread.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    out: dict[object, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["request"], {})
        dur = s["end"] - s["start"]
        layer = LAYER_OF[s["name"]]
        row[layer] = row.get(layer, 0.0) + dur - child_time.get(s["id"], 0.0)
        if s["name"] == "cli.main":
            row["cli.main_s"] = row.get("cli.main_s", 0.0) + dur
        for key, value in s["counts"].items():
            if key == "lattice_rank":
                row[key] = max(row.get(key, 0), value)
            else:
                row[key] = row.get(key, 0) + value
    return out


def summarize(rows: list[dict]) -> dict[str, float]:
    """Per-layer metrics over requests: medians of per-request self times
    and counts; ratios from totals."""
    def med(key):
        return statistics.median(r.get(key, 0.0) for r in rows) if rows else 0.0

    def total(key):
        return sum(r.get(key, 0) for r in rows)

    def ratio(num, den):
        d = total(den)
        return total(num) / d if d else 0.0

    layers = sorted({layer for _m, _a, layer, _c in TRACED} | {"cli.main_s"})
    out = {layer: med(layer) for layer in layers}
    out.update({
        "milnorprobe.scan_samples": med("scan_samples"),
        "milnorprobe.hits": med("hits"),
        "milnorprobe.hit_ratio": ratio("hits", "scan_samples"),
        "discgeom.components": med("components"),
        "discgeom.decided_ratio": ratio("isolated_decided", "isolated_calls"),
        "polar.lattice_rank_max": max((r.get("lattice_rank", 0) for r in rows), default=0),
        "polar.found_ratio": ratio("polar_found", "polar_calls"),
        "parsing.parse_calls": med("parse_calls"),
        "core.terms_out": med("terms_out"),
        "thomprobe.curves": med("curves"),
        "thomprobe.shells": med("shells"),
        "thomprobe.converged_ratio": ratio("converged", "curves"),
    })
    return out
