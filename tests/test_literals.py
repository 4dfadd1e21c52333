"""The one literal grammar (w-, t- and x-literals share `parse_poly`).

tests/literal_corpus.json was frozen with the three parsers that came
before `parse_poly`.  For each (field, kind, literal) it holds the canonical
printed value they gave, or null where they raised LiteralError.  Its
literals are every literal string in tests/ and skewbench/workloads.py, the
printed forms of random elements and skew polynomials, malformed inputs
("w^", "1++w", "t^^2", "x^^2", unbalanced parentheses, trailing operators,
"1/0", ...) and variants of these (wrapped in parentheses, scaled, times
w, t or x, over t+1, negated).  kind "elem" parses with `elem_from_literal`,
kind "skew" with `skew_from_literal`.

tests/literal_newly_accepted.json lists, with its expected value, each
corpus literal the old parsers rejected and `parse_poly` reads.  The forms:
any number of enclosing parentheses ("((w))", "(x+1)"), a parenthesized
integer before a power of w ("(2)*w") and, over F_(2^r)(t), a w-literal with
integer coefficients wherever a t-coefficient stands ("2*w", "3*w*t",
"2*w/(t)").
"""

import json
import re
from pathlib import Path

import pytest

from skewlab.fields import (
    FiniteFieldCtx,
    LiteralError,
    elem_from_literal,
    elem_to_literal,
    field_from_spec,
    parse_poly,
)
from skewlab.skewpoly import SkewPoly, skew_from_literal, skew_to_literal

HERE = Path(__file__).parent
CORPUS = json.loads((HERE / "literal_corpus.json").read_text())
NEWLY_ACCEPTED = {
    (f, kind, lit): value
    for f, kind, lit, value in json.loads(
        (HERE / "literal_newly_accepted.json").read_text()
    )
}
CTXS = {name: field_from_spec(spec) for name, spec in CORPUS["fields"].items()}
PARSE = {"elem": elem_from_literal, "skew": skew_from_literal}
PRINT = {"elem": elem_to_literal, "skew": skew_to_literal}


def printed(f, kind, lit):
    """The canonical printed value of a literal, or None on LiteralError."""
    try:
        return PRINT[kind](PARSE[kind](CTXS[f], lit))
    except LiteralError:
        return None


def test_corpus_values_and_rejections_are_kept():
    changed = []
    for f, kind, lit, value in CORPUS["cases"]:
        now = printed(f, kind, lit)
        expected = NEWLY_ACCEPTED.get((f, kind, lit)) if value is None else value
        if now != expected:
            changed.append((f, kind, lit, value, now))
    assert not changed, changed[:10]


def test_newly_accepted_list_names_only_rejected_corpus_literals():
    rejected = {(f, kind, lit) for f, kind, lit, value in CORPUS["cases"] if value is None}
    assert set(NEWLY_ACCEPTED) <= rejected


class _Sum(dict):
    """sum_k self[k] x^k with field coefficients.  In an accepted literal x
    only ever follows its coefficient, so a commutative product suffices."""

    def __add__(self, other):
        out = _Sum(self)
        for k, c in other.items():
            out[k] = out[k] + c if k in out else c
        return out

    def __neg__(self):
        return _Sum({k: -c for k, c in self.items()})

    def __pos__(self):
        return self

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = _Sum()
        for i, a in self.items():
            for j, b in other.items():
                out = out + _Sum({i + j: a * b})
        return out

    def __truediv__(self, other):
        ((k, d),) = other.items()
        assert k == 0 and d
        return _Sum({i: c / d for i, c in self.items()})


def eval_oracle(ctx, kind, lit):
    """The value of an accepted literal, read by Python's own precedence."""
    s = lit.replace(" ", "")
    s = re.sub(
        r"([wtx])\^(\d+)",
        lambda m: "(" + "*".join([m.group(1)] * int(m.group(2))) + ")"
        if int(m.group(2)) else "1",
        s,
    )
    s = re.sub(r"(\d+)", lambda m: f"I({int(m.group(1))})", s)
    if isinstance(ctx, FiniteFieldCtx):
        names = {"I": lambda n: _Sum({0: ctx.from_int(n)}), "w": _Sum({0: ctx.gen})}
    else:
        cf = ctx.coeff_field
        names = {
            "I": lambda n: _Sum({0: ctx.rat.constant(cf.from_int(n))}),
            "w": _Sum({0: ctx.w}),
            "t": _Sum({0: ctx.t}),
        }
    names["x"] = _Sum({1: ctx.one})
    value = eval(s, {"__builtins__": {}}, names)  # noqa: S307 - test oracle
    if kind == "elem":
        assert set(value) <= {0}
        return value.get(0, ctx.zero)
    top = max(value, default=-1)
    return SkewPoly(ctx, [value.get(k, ctx.zero) for k in range(top + 1)])


def test_accepted_literals_match_the_python_eval_oracle():
    checked = 0
    for f, kind, lit, value in CORPUS["cases"]:
        if value is None and (f, kind, lit) not in NEWLY_ACCEPTED:
            continue
        ctx = CTXS[f]
        assert PARSE[kind](ctx, lit) == eval_oracle(ctx, kind, lit), (f, kind, lit)
        checked += 1
    assert checked > 2000


@pytest.mark.parametrize(
    "f, kind, lit, value",
    [
        ("F81", "elem", "((w))", "w"),
        ("F81", "elem", "(2)*w", "2*w"),
        ("F8t", "elem", "3*w*t", "w*t"),
        ("F8t", "elem", "((t^2+1)/(t^2+t+1))", "(t^2+1)/(t^2+t+1)"),
        ("F81", "skew", "(x+1)", "x+1"),
        ("F8t", "skew", "3*w*x", "w*x"),
        ("F8t", "skew", "3*w*t*x", "w*t*x"),
    ],
)
def test_named_new_forms(f, kind, lit, value):
    assert PRINT[kind](PARSE[kind](CTXS[f], lit)) == value


@pytest.mark.parametrize(
    "f, kind, lit, reason, pos",
    [
        ("F81", "elem", "w^^2", "bad term 'w^^2'", 0),
        ("F81", "elem", "1++w", "empty term", 2),
        ("F81", "elem", "((w)", "unbalanced parenthesis", 3),
        ("F81", "elem", "w+", "trailing operator", 1),
        ("F81", "elem", "(2*w)*w", "bad coefficient '2*w'", 1),
        ("F81", "elem", "", "empty literal", 0),
        ("F81", "skew", "(w^^2)*x", "bad term 'w^^2'", 1),
        ("F81", "skew", "x^2+(w^^2)*x", "bad term 'w^^2'", 5),
        ("F81", "skew", "x*x", "bad term 'x*x'", 0),
        ("F8t", "elem", "1/0", "zero denominator", 2),
        ("F8t", "elem", "(t+1)/(t^^2)", "bad term 't^^2'", 7),
        ("F8t", "skew", "x^2+(t^2+1)/(t^2+)", "trailing operator", 16),
        # a split at the first / that the usual precedence would not make
        ("F8t", "elem", "1/t+1", "'+' in a denominator needs parentheses", 3),
        ("F8t", "elem", "t+1/t", "'+' in a numerator needs parentheses", 1),
        ("F8t", "elem", "1/t*w", "'*' in a denominator needs parentheses", 3),
        ("F8t", "elem", "1/t/t", "'/' in a denominator needs parentheses", 3),
        # positions count the literal without its spaces
        ("F81", "elem", "w + w^^2", "bad term 'w^^2'", 2),
    ],
)
def test_errors_name_their_position(f, kind, lit, reason, pos):
    with pytest.raises(LiteralError) as info:
        PARSE[kind](CTXS[f], lit)
    assert (info.value.reason, info.value.pos) == (reason, pos)
    assert str(info.value) == f"{reason} (at position {pos})"


def test_a_fraction_coefficient_ends_at_the_next_plus():
    ctx = CTXS["F8t"]
    want = SkewPoly(ctx, [ctx.one / ctx.t + ctx.one, ctx.one])
    assert skew_from_literal(ctx, "x+1/t+1") == want
    assert eval_oracle(ctx, "skew", "x+1/t+1") == want


def test_parse_poly_takes_any_variable_and_coefficient_rule():
    def poly(text):
        return parse_poly(text, "y", int, 0, lambda c, k: c * 10**k)

    assert poly("((2*y^3+(1)*y-3))") == 2007
    with pytest.raises(LiteralError):
        poly("y*y")
