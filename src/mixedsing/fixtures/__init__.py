"""Bundled analysis fixtures and their loader.

A fixture is a small structured text file (one "key: value" field per
line, '#' comments) describing an input polynomial, optional probe
geometry, and the expected verdict:

    name: shear-x-xy2
    variables: x, y
    f: x
    g: x + y^2
    stratum: base = (0, 1); tangent = (0, 1), (0, i); label = y-axis
    curve: t, 1
    expect: tube = no

Either "expression:" (a mixed polynomial) or the pair "f:"/"g:"
(holomorphic) defines the input; "stratum:" and "curve:" may repeat, and
any other key is an error.
Vectors are parenthesized component lists; components and curve entries
use the ordinary expression grammar ("i" is the imaginary unit) and stay
exact Gaussian rationals.
"""

from __future__ import annotations

from importlib import resources

from ..core import ComplexRational, MixedPolynomial, Record, from_pair
from ..parsing import ParseError, parse
from ..thomprobe import CurveGerm, Stratum

__all__ = ["Fixture", "FixtureError", "fixture_names", "load_fixture", "load_all"]


class FixtureError(ValueError):
    """Malformed fixture document."""


class Fixture(Record):
    name: str
    description: str
    variables: tuple[str, ...]
    expression: MixedPolynomial
    pair: tuple[MixedPolynomial, MixedPolynomial] | None
    strata: tuple[Stratum, ...] = ()
    curves: tuple[CurveGerm, ...] = ()
    expect: dict = {}


def _constant(text: str) -> ComplexRational:
    try:
        p = parse(text, ("t",))
    except ParseError as exc:
        raise FixtureError(f"bad scalar {text!r}: {exc}") from exc
    if p.variables_used():
        raise FixtureError(f"scalar {text!r} must not use variables")
    return p.constant_term()


def _split_top(text: str, sep: str = ",") -> list[str]:
    """Split on sep at parenthesis depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise FixtureError(f"unbalanced parentheses in {text!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise FixtureError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return [p.strip() for p in parts]


def _vector(text: str) -> tuple[ComplexRational, ...]:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise FixtureError(f"vector must be parenthesized: {text!r}")
    return tuple(_constant(c) for c in _split_top(text[1:-1]))


def _parse_stratum(value: str) -> Stratum:
    base = None
    tangent = None
    label = ""
    for clause in value.split(";"):
        if "=" not in clause:
            raise FixtureError(f"stratum clause needs '=': {clause!r}")
        key, _, rhs = clause.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key == "base":
            base = _vector(rhs)
        elif key == "tangent":
            tangent = tuple(_vector(v) for v in _split_top(rhs))
        elif key == "label":
            label = rhs
        else:
            raise FixtureError(f"unknown stratum clause {key!r}")
    if base is None or tangent is None:
        raise FixtureError("stratum needs base and tangent clauses")
    return Stratum(base_point=base, tangent=tangent, label=label)


def _parse_fixture(name: str, text: str) -> Fixture:
    fields: dict[str, str] = {}
    strata: list[Stratum] = []
    curve_lines: list[str] = []
    expect: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise FixtureError(f"{name}:{lineno}: missing ':' in {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "stratum":
            strata.append(_parse_stratum(value))
        elif key == "curve":
            curve_lines.append(value)
        elif key == "expect":
            if "=" not in value:
                raise FixtureError(f"{name}:{lineno}: expect needs 'key = value'")
            ek, _, ev = value.partition("=")
            if ek.strip() in expect:
                raise FixtureError(f"{name}:{lineno}: duplicate expect {ek.strip()!r}")
            expect[ek.strip()] = ev.strip()
        elif key not in ("name", "description", "variables", "expression", "f", "g"):
            raise FixtureError(f"{name}:{lineno}: unknown key {key!r}")
        elif key in fields:
            raise FixtureError(f"{name}:{lineno}: duplicate field {key!r}")
        else:
            fields[key] = value

    for required in ("name", "variables"):
        if required not in fields:
            raise FixtureError(f"{name}: missing field {required!r}")
    variables = tuple(v.strip() for v in fields["variables"].split(","))
    has_expr = "expression" in fields
    has_pair = "f" in fields or "g" in fields
    if has_expr == has_pair:
        raise FixtureError(f"{name}: give either expression or the pair f/g")
    if has_pair and not ("f" in fields and "g" in fields):
        raise FixtureError(f"{name}: pair needs both f and g")

    if has_expr:
        expression = parse(fields["expression"], variables)
        pair = None
    else:
        f = parse(fields["f"], variables)
        g = parse(fields["g"], variables)
        pair = (f, g)
        expression = from_pair(f, g)

    n = len(variables)
    curves = tuple(
        CurveGerm.from_polynomials(
            [parse(c, ("t",)) for c in _split_top(line)], label=line
        )
        for line in curve_lines
    )
    for c in curves:
        if c.n_vars != n:
            raise FixtureError(f"{name}: curve arity {c.n_vars} != {n}")
    for s in strata:
        if len(s.base_point) != n:
            raise FixtureError(f"{name}: stratum arity != {n}")

    return Fixture(
        name=fields["name"],
        description=fields.get("description", ""),
        variables=variables,
        expression=expression,
        pair=pair,
        strata=tuple(strata),
        curves=curves,
        expect=expect,
    )


def _fixture_dir():
    return resources.files(__package__)


def fixture_names() -> tuple[str, ...]:
    names = [
        entry.name[: -len(".fix")]
        for entry in _fixture_dir().iterdir()
        if entry.name.endswith(".fix")
    ]
    return tuple(sorted(names))


def load_fixture(name: str) -> Fixture:
    path = _fixture_dir() / f"{name}.fix"
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FixtureError(
            f"no fixture named {name!r}; available: {', '.join(fixture_names())}"
        ) from None
    fx = _parse_fixture(name, text)
    if fx.name != name:
        raise FixtureError(f"fixture file {name}.fix declares name {fx.name!r}")
    return fx


def load_all() -> tuple[Fixture, ...]:
    return tuple(load_fixture(n) for n in fixture_names())
