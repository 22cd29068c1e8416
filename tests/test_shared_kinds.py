"""Bracket kinds that coincide share one algebroid, and sharing changes no
output: where the projector fixes the image of the locality operator, the
projected kind is the modified algebroid itself."""

import itertools
import json
import random

import pytest

import algebroids.calculus as calculus_module
import algebroids.connection as connection_module
from algebroids import (
    EForm,
    Section,
    associator,
    check_magic_and_derivations,
    curvature,
    e_exterior_derivative,
    interior_product,
    leibniz_derivative,
    make_example,
    solve_torsion_free,
    torsion,
    wedge,
)
from algebroids.cli import GATED
from algebroids.calculus import seeded_forms, seeded_sections
from algebroids.connection import GeometryContext
from algebroids.fixtures import random_anticommutable, random_scalar

# (seed, dim, rank, twist) of fixtures with a locality operator
WITH_LOCALITY = [(0, 1, 2, False), (1, 1, 3, False), (4, 2, 3, False), (105, 2, 3, True)]


def courant_torsion_free(n: int):
    """The standard Courant algebroid of dimension n and the member of
    weights k % 3 - 1 of its torsion-free space, where the projected and
    modified kinds differ."""
    A = make_example("courant_standard", n=n).algebroid
    space = solve_torsion_free(A)
    return A, space.member([k % 3 - 1 for k in range(space.dim)])


def fixture_pair(case):
    seed, dim, rank, twist = case
    fx = random_anticommutable(seed, dim=dim, rank=rank, twist=twist)
    assert fx.algebroid.loc
    return fx.algebroid, fx.connection


@pytest.mark.parametrize("case", WITH_LOCALITY)
def test_coinciding_kinds_are_one_algebroid(case):
    ctx = GeometryContext(*fixture_pair(case))
    assert ctx.algebroid("projected") is ctx.algebroid("modified")


@pytest.mark.parametrize("n", [1, 2])
def test_kinds_that_differ_are_two_algebroids(n):
    ctx = GeometryContext(*courant_torsion_free(n))
    P, M = ctx.algebroid("projected"), ctx.algebroid("modified")
    assert P is not M
    assert P.loc and not M.loc


def plant_faults(monkeypatch):
    """Wrong Leibniz and exterior derivatives and a wrong curvature entry,
    each a function of the data alone, so that the magic, Cartan, Bianchi
    and Ricci reports hold residuals whose values and order a wrong cache
    would change."""
    leibniz, exterior = calculus_module._leibniz, calculus_module._e_exterior

    def faulty_leibniz(ctx, B, v, target):
        out = leibniz(ctx, B, v, target)
        lead = next(iter(target.comp.values()), None) if isinstance(target, EForm) else None
        # quadratic in the target, so that no linear identity survives it
        return out if lead is None else out.add(target.scale(lead * v.comp[-1]))

    def faulty_exterior(ctx, B, omega):
        out = exterior(ctx, B, omega)
        lead = next(iter(out.comp.values()), None)
        return out if lead is None else out.add(out.scale(lead))

    curv = GeometryContext._curvature

    def faulty_curvature(ctx):
        out = dict(curv(ctx))
        key = (0, 0, 1, ctx.A.rank - 1)
        out[key] = out.get(key, ctx.A.zero()) + ctx.A.one()
        return out

    monkeypatch.setattr(calculus_module, "_leibniz", faulty_leibniz)
    monkeypatch.setattr(calculus_module, "_e_exterior", faulty_exterior)
    monkeypatch.setattr(GeometryContext, "_curvature", faulty_curvature)


def output_texts(A, conn) -> list[str]:
    """The JSON text of every gated suite's report, in the CLI's order,
    then the projected torsion and the curvature."""
    GeometryContext(make_example("tangent_lie", n=1).algebroid, None)  # evict the pair
    texts = [
        json.dumps(check(A, conn, (11, 2, 2)).to_json_obj(A.coords))
        for _, check in GATED
    ]
    for value in (torsion(A, conn, "projected"), curvature(A, conn)):
        texts.append(repr([(k, v.num, v.den) for k, v in value.items()]))
    return texts


@pytest.mark.parametrize("case", WITH_LOCALITY[:3] + ["courant-1"])
def test_sharing_changes_no_output(case, monkeypatch):
    plant_faults(monkeypatch)
    A, conn = courant_torsion_free(1) if case == "courant-1" else fixture_pair(case)
    shared = output_texts(A, conn)
    failing = [json.loads(text)["identity"] for text in shared[: len(GATED)]
               if not json.loads(text)["pass"]]
    assert {"cartan-structure", "magic-and-derivations", "ricci",
            "bianchi-algebraic-general"} <= set(failing)
    monkeypatch.setattr(connection_module, "_same_entries", lambda x, y: False)
    assert output_texts(A, conn) == shared
    ctx = GeometryContext(A, conn)
    assert ctx.algebroid("projected") is not ctx.algebroid("modified")


def reference_magic(A, conn, seed: int, samples: int, degree: int) -> dict:
    """The residuals of ``check_magic_and_derivations``, each identity
    evaluated for each kind on its own through the public derivatives, in
    the report's order."""
    kinds = ("original", "modified", "projected")

    def L(kind, v, x):
        return leibniz_derivative(A, conn, v, x, kind)

    def d(kind, x):
        return e_exterior_derivative(A, conn, x, kind)

    forms1 = seeded_forms(A, seed + 1, samples, 1, degree)
    forms2 = seeded_forms(A, seed + 2, samples, min(2, A.rank), degree)
    sections = seeded_sections(A, seed + 3, 2 * samples, degree)
    fs = [random_scalar(random.Random(seed + 4 + i), A.dim, degree, terms=3)
          for i in range(samples)]
    out = {}

    def put(tag, form):
        out.update((tag + idx, v) for idx, v in form.comp.items())

    for k in range(samples):
        u, v, f = sections[2 * k], sections[2 * k + 1], fs[k]
        omA, omB, om2 = forms1[k], forms1[(k + 1) % samples], forms2[k]
        for kind in kinds[1:]:
            for label, om in (("p1", omA), ("p2", om2)):
                iv = interior_product(om, v)
                put(("magic", kind, label, k),
                    L(kind, v, om).sub(d(kind, iv).add(interior_product(d(kind, om), v))))
                put(("rescale", kind, label, k), L(kind, v.scale(f), om).sub(
                    L(kind, v, om).scale(f).add(wedge(d(kind, f), iv))))
            put(("self-commute", kind, k), L(kind, v, interior_product(om2, v)).sub(
                interior_product(L(kind, v, om2), v)))
        for kind in kinds:
            put(("commutator", kind, k), L(kind, u, interior_product(om2, v)).sub(
                interior_product(L(kind, u, om2), v).add(interior_product(om2, L(kind, u, v)))))
            put(("wedge-leibniz", kind, k), L(kind, v, wedge(omA, omB)).sub(
                wedge(L(kind, v, omA), omB).add(wedge(omA, L(kind, v, omB)))))
        for kind in kinds[1:]:
            put(("graded-leibniz", kind, k), d(kind, wedge(omA, omB)).sub(
                wedge(d(kind, omA), omB).sub(wedge(omA, d(kind, omB)))))
    frames = [Section.frame(A, a) for a in range(A.rank)]
    gate = seeded_sections(A, seed + 9, 6, degree)
    triples = list(itertools.product(frames, repeat=3)) + [tuple(gate[:3]), tuple(gate[3:])]
    for kind in kinds:
        if any(not associator(A, kind, *t, conn=conn).is_zero() for t in triples):
            continue
        for k in range(samples):
            u, v, om1 = sections[2 * k], sections[2 * k + 1], forms1[k]
            put(("lie-commutator", kind, k), L(kind, u, L(kind, v, om1)).sub(
                L(kind, v, L(kind, u, om1)).add(L(kind, L(kind, u, v), om1))))
            if kind == "projected":
                put(("d-commute", kind, k),
                    d(kind, L(kind, v, om1)).sub(L(kind, v, d(kind, om1))))
    return out


@pytest.mark.parametrize("case", WITH_LOCALITY[:2] + ["courant-1"])
def test_magic_residuals_are_each_identity_evaluated_alone(case, monkeypatch):
    plant_faults(monkeypatch)
    A, conn = courant_torsion_free(1) if case == "courant-1" else fixture_pair(case)
    got = check_magic_and_derivations(A, conn, 11, 2, 2).residuals
    want = [(at, v) for at, v in reference_magic(A, conn, 11, 2, 2).items() if not v.is_zero()]
    assert len(got) > 20
    assert [(at, v.num, v.den) for at, v in got] == [(at, v.num, v.den) for at, v in want]
