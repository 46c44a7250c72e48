"""Report bytes pinned against checked-in golden files.

The files under tests/golden/ hold the input, polar, discriminant,
thom_probes and verdict sections of `analyze` for every fixture, and the
whole `disc` report for the pair fixtures and two more pairs.  A change
that moves a verdict, a line, a Groebner basis, a limit plane or a float
digit shows up here as a byte difference, and so does a byte that depends
on dict or set order when the tests run under another PYTHONHASHSEED.

Regenerate (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from mixedsing.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

ANALYZE_FIXTURES = (
    "polar-k2",
    "polar-k3",
    "separate-x2-y3",
    "shear-x-xy2",
    "x2zy2-ybar",
    "xy-xbar",
    "xz2y-xbar",
)
ANALYZE_SECTIONS = ("input", "polar", "discriminant", "thom_probes", "verdict")

DISC_CASES = {
    "separate-x2-y3": ("separate-x2-y3",),
    "shear-x-xy2": ("shear-x-xy2",),
    "xy-xbar": ("xy-xbar",),
    "x2zy2-ybar": ("x2zy2-ybar",),
    "xz2y-xbar": ("xz2y-xbar",),
    "gaussian-xyz": ("--pair", "x*y + i*z^2", "x^2 - (1+2*i)*y*z", "--vars", "x,y,z"),
    # one irreducible degree-6 slope polynomial: not isolated, no slope resolved
    "unresolved-sextic": ("--pair", "x^4 + 2*x^3*y - x*y^3 + 3*y^4",
                          "x^4 - x^2*y^2 + 2*x*y^3 + y^4", "--vars", "x,y"),
}

CASES = {f"analyze-{name}": ("analyze", name) for name in ANALYZE_FIXTURES}
CASES.update({f"disc-{name}": ("disc", *argv) for name, argv in DISC_CASES.items()})


def render(case: str, run) -> str:
    """The golden text of one case; run(argv) returns (exit code, stdout)."""
    command, *argv = CASES[case]
    if command == "analyze":
        code, out = run(["analyze", *argv])
        report = json.loads(out)
        out = json.dumps({key: report[key] for key in ANALYZE_SECTIONS},
                         sort_keys=True, indent=2) + "\n"
    else:
        code, out = run([command, *argv])
    assert code == 0, out
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, capsys):
    def run(argv):
        return main(argv), capsys.readouterr().out

    assert render(case, run) == (GOLDEN / f"{case}.json").read_text()


if __name__ == "__main__":
    import contextlib
    import io

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        return code, buf.getvalue()

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.json").write_text(render(case, run))
        print(f"wrote {case}.json")
