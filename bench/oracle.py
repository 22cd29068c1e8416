"""Independent checks of the package's outputs.

Everything here works on the serialized text of scalars (the canonical form
written by ``scalar_to_text`` and read back by documents), evaluated at
seeded rational points with ``fractions.Fraction``.  No ``Poly`` or
``Scalar`` arithmetic is used, so a fault in the scalar kernel cannot hide
itself.  A rational function that is nonzero is nonzero at a random point
with high probability (Schwartz-Zippel), and a matrix of rational functions
has its generic rank at such a point with high probability.

Values carry their first partial derivatives (forward-mode dual numbers),
which is all the Koszul system and the curvature formula need.

Index conventions follow the documents (0-based here): ``gamma[(c, a, b)]``
is gamma^c_ab, ``loc[(a, d, e, c)]`` is the component of L(e^d, X_e, X_c)
along X_a, ``conn[(a, b, c)]`` is Gamma^a_bc, the X_a component of
D_{X_b} X_c.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = Fraction(0)


class Dual:
    """A value at a point together with its gradient there."""

    __slots__ = ("v", "d")

    def __init__(self, v: Fraction, d: tuple):
        self.v = v
        self.d = d

    def __add__(self, o: "Dual") -> "Dual":
        return Dual(self.v + o.v, tuple(x + y for x, y in zip(self.d, o.d)))

    def __sub__(self, o: "Dual") -> "Dual":
        return Dual(self.v - o.v, tuple(x - y for x, y in zip(self.d, o.d)))

    def __neg__(self) -> "Dual":
        return Dual(-self.v, tuple(-x for x in self.d))

    def __mul__(self, o: "Dual") -> "Dual":
        return Dual(
            self.v * o.v, tuple(x * o.v + self.v * y for x, y in zip(self.d, o.d))
        )

    def __truediv__(self, o: "Dual") -> "Dual":
        if o.v == 0:
            raise ZeroDivisionError("pole at the evaluation point")
        q = self.v / o.v
        return Dual(q, tuple((x - q * y) / o.v for x, y in zip(self.d, o.d)))

    def __pow__(self, k: int) -> "Dual":
        if k == 0:
            return Dual(Fraction(1), tuple(ZERO for _ in self.d))
        p = self.v ** (k - 1)
        return Dual(p * self.v, tuple(k * p * x for x in self.d))


class Evaluator:
    """Evaluates expression text at one rational point."""

    def __init__(self, names, point):
        self.n = len(names)
        self.index = {name: i for i, name in enumerate(names)}
        self.point = tuple(point)
        self.memo: dict[str, Dual] = {}

    def const(self, value) -> Dual:
        return Dual(Fraction(value), (ZERO,) * self.n)

    def __call__(self, text: str) -> Dual:
        hit = self.memo.get(text)
        if hit is None:
            hit = self.memo[text] = _Parse(text, self).expr_all()
        return hit


class _Parse:
    """expr := [+|-] term ((+|-) term)*; term := factor ((*|/) factor)*;
    factor := base (^ uint)?; base := int | name | ( expr )."""

    def __init__(self, text: str, ev: Evaluator):
        self.toks = _tokens(text)
        self.i = 0
        self.ev = ev

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else ""

    def take(self):
        tok = self.peek()
        if not tok:
            raise ValueError("unexpected end of expression")
        self.i += 1
        return tok

    def expr_all(self) -> Dual:
        value = self.expr()
        if self.i != len(self.toks):
            raise ValueError(f"trailing input {self.toks[self.i:]!r}")
        return value

    def expr(self) -> Dual:
        sign = None
        if self.peek() in ("+", "-"):
            sign = self.take()
        value = self.term()
        if sign == "-":
            value = -value
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Dual:
        value = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self) -> Dual:
        value = self.base()
        if self.peek() == "^":
            self.take()
            value = value ** int(self.take())
        return value

    def base(self) -> Dual:
        tok = self.take()
        if tok.isdigit():
            return self.ev.const(int(tok))
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("expected ')'")
            return value
        k = self.ev.index.get(tok)
        if k is None:
            raise ValueError(f"unexpected token {tok!r}")
        grad = [ZERO] * self.ev.n
        grad[k] = Fraction(1)
        return Dual(self.ev.point[k], tuple(grad))


def _tokens(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            out.append(ch)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j == i:
                raise ValueError(f"unexpected character {ch!r}")
            out.append(text[i:j])
            i = j
    return out


def count_terms(text: str) -> int:
    """Terms of numerator plus denominator in the canonical text form,
    where a polynomial has denominator 1 (one term), and terms are joined
    by " + " or " - "."""
    if text.startswith("(") and ")/(" in text:
        num, den = text[1:-1].split(")/(")
        return _poly_terms(num) + _poly_terms(den)
    return _poly_terms(text) + 1


def _poly_terms(text: str) -> int:
    return text.count(" + ") + text.count(" - ") + 1


def random_point(rng: random.Random, n: int) -> tuple:
    return tuple(
        Fraction(rng.choice([-1, 1]) * rng.randint(1, 997), rng.randint(1, 991))
        for _ in range(n)
    )


# -- algebroid data at a point --------------------------------------------


def sparse_entries(items) -> dict[tuple, str]:
    """Document sparse list (1-based ``idx``) to {0-based index: text}."""
    return {tuple(k - 1 for k in item["idx"]): item["val"] for item in items}


class AtPoint:
    """A document's data (anchor, gamma, L, P, metric, connection)
    evaluated at one point."""

    def __init__(self, doc: dict, point):
        self.n = doc["dimension"]
        self.r = doc["rank"]
        self.doc = doc
        self.ev = ev = Evaluator(doc["coordinates"], point)
        self.anchor = [[ev(t).v for t in row] for row in doc["anchor"]]
        self.gamma = {k: ev(t) for k, t in sparse_entries(doc["gamma"]).items()}
        self.loc = {k: ev(t) for k, t in sparse_entries(doc["L"]).items()}
        self.proj = (
            [[ev(t).v for t in row] for row in doc["P"]] if doc.get("P") else None
        )
        self.metric = {
            k: ev(t) for k, t in sparse_entries(doc.get("metric") or []).items()
        }
        self.zero = ev.const(0)

    def values(self, items) -> dict[tuple, Dual]:
        return {k: self.ev(t) for k, t in sparse_entries(items).items()}

    def g(self, a: int, b: int) -> Dual:
        return self.metric.get((a, b), self.zero)

    def rho(self, b: int, f: Dual) -> Fraction:
        """Anchor derivative rho(X_b)(f) at the point."""
        return sum((self.anchor[i][b] * f.d[i] for i in range(self.n)), ZERO)

    def projected_loc(self) -> dict[tuple, Fraction]:
        out: dict[tuple, Fraction] = {}
        for (a1, d, e, c), lv in self.loc.items():
            for a in range(self.r):
                p = self.proj[a][a1]
                if p:
                    out[(a, d, e, c)] = out.get((a, d, e, c), ZERO) + p * lv.v
        return out

    def anholonomy(self, conn: dict, projected: bool) -> dict[tuple, Fraction]:
        """gamma^a_bc - Gamma^e_db L^{a d}_{e c}, with P applied to L's
        output slot when projected."""
        loc = (
            self.projected_loc()
            if projected
            else {k: v.v for k, v in self.loc.items()}
        )
        out = {k: v.v for k, v in self.gamma.items()}
        for (a, d, e, c), lv in loc.items():
            for b in range(self.r):
                g = conn.get((e, d, b))
                if g is not None:
                    out[(a, b, c)] = out.get((a, b, c), ZERO) - g.v * lv
        return out

    def admissibility_residual(self, conn: dict) -> dict[tuple, Fraction]:
        """gamma^c_ab + gamma^c_ba - Gamma^e_da L^{cd}_{eb} - Gamma^e_db L^{cd}_{ea}."""
        contraction: dict[tuple, Fraction] = {}
        for (c, d, e, b), lv in self.loc.items():
            for a in range(self.r):
                g = conn.get((e, d, a))
                if g is not None:
                    contraction[(c, a, b)] = contraction.get((c, a, b), ZERO) + g.v * lv.v
        out = {}
        zero = self.zero
        for c in range(self.r):
            for a in range(self.r):
                for b in range(a, self.r):
                    v = (
                        self.gamma.get((c, a, b), zero).v
                        + self.gamma.get((c, b, a), zero).v
                        - contraction.get((c, a, b), ZERO)
                        - contraction.get((c, b, a), ZERO)
                    )
                    if v:
                        out[(c, a, b)] = v
        return out

    def torsion(self, conn: dict, projected: bool) -> dict[tuple, Fraction]:
        W = self.anholonomy(conn, projected)
        z = self.zero
        r = self.r
        return {
            (a, b, c): conn.get((a, b, c), z).v - conn.get((a, c, b), z).v
            - W.get((a, b, c), ZERO)
            for a in range(r) for b in range(r) for c in range(r)
        }

    def curvature(self, conn: dict) -> dict[tuple, Fraction]:
        """R^a_bcd = rho_b(Gamma^a_cd) - rho_c(Gamma^a_bd)
        + Gamma^e_cd Gamma^a_be - Gamma^e_bd Gamma^a_ce - What^e_bc Gamma^a_ed."""
        W = self.anholonomy(conn, projected=True)
        z = self.zero
        r = self.r
        G = lambda a, b, c: conn.get((a, b, c), z)  # noqa: E731
        out = {}
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    for d in range(r):
                        acc = self.rho(b, G(a, c, d)) - self.rho(c, G(a, b, d))
                        for e in range(r):
                            acc += G(e, c, d).v * G(a, b, e).v
                            acc -= G(e, b, d).v * G(a, c, e).v
                            acc -= W.get((e, b, c), ZERO) * G(a, e, d).v
                        out[(a, b, c, d)] = acc
        return out

    def non_metricity(self, conn: dict) -> dict[tuple, Fraction]:
        """Q_abc = rho_a(g_bc) - Gamma^d_ab g_dc - Gamma^d_ac g_bd."""
        z = self.zero
        r = self.r
        out = {}
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    acc = self.rho(a, self.g(b, c))
                    for d in range(r):
                        acc -= conn.get((d, a, b), z).v * self.g(d, c).v
                        acc -= conn.get((d, a, c), z).v * self.g(b, d).v
                    out[(a, b, c)] = acc
        return out

    # -- the affine systems solved by the package, one row per triple --

    def koszul_system(self) -> tuple[list[list[Fraction]], list[Fraction]]:
        """Rows (b, c, d) of the Koszul system for the modified bracket:

        2 Gamma^a_bc g_ad + Gamma^f_{d'c} L^{e d'}_{f d} g_eb
          + Gamma^f_{d'b} L^{e d'}_{f d} g_ec - Gamma^f_{d'b} L^{e d'}_{f c} g_ed
        = rho_b(g_cd) + rho_c(g_bd) - rho_d(g_bc)
          - gamma^e_cd g_eb - gamma^e_bd g_ec + gamma^e_bc g_ed
        """
        r = self.r
        z = self.zero
        gam = lambda e, a, b: self.gamma.get((e, a, b), z).v  # noqa: E731
        M, rhs = [], []
        for b in range(r):
            for c in range(r):
                for d in range(r):
                    row = [ZERO] * r**3
                    for a in range(r):
                        row[_col(r, a, b, c)] += 2 * self.g(a, d).v
                    for (e, dp, f, cc), lv in self.loc.items():
                        if cc == d:
                            row[_col(r, f, dp, c)] += lv.v * self.g(e, b).v
                            row[_col(r, f, dp, b)] += lv.v * self.g(e, c).v
                        if cc == c:
                            row[_col(r, f, dp, b)] -= lv.v * self.g(e, d).v
                    value = (
                        self.rho(b, self.g(c, d))
                        + self.rho(c, self.g(b, d))
                        - self.rho(d, self.g(b, c))
                    )
                    for e in range(r):
                        value -= gam(e, c, d) * self.g(e, b).v
                        value -= gam(e, b, d) * self.g(e, c).v
                        value += gam(e, b, c) * self.g(e, d).v
                    M.append(row)
                    rhs.append(value)
        return M, rhs

    def torsion_free_system(self) -> tuple[list[list[Fraction]], list[Fraction]]:
        """Rows (a, b, c): Gamma^a_bc - Gamma^a_cb + Gamma^e_db L^{ad}_{ec}
        = gamma^a_bc, i.e. the modified torsion vanishes."""
        r = self.r
        z = self.zero
        M, rhs = [], []
        for a in range(r):
            for b in range(r):
                for c in range(r):
                    row = [ZERO] * r**3
                    row[_col(r, a, b, c)] += 1
                    row[_col(r, a, c, b)] -= 1
                    for (aa, d, e, cc), lv in self.loc.items():
                        if aa == a and cc == c:
                            row[_col(r, e, d, b)] += lv.v
                    M.append(row)
                    rhs.append(self.gamma.get((a, b, c), z).v)
        return M, rhs


def _col(r: int, a: int, b: int, c: int) -> int:
    return (a * r + b) * r + c


def matrix_rank(rows: list[list[Fraction]]) -> int:
    rows = [list(row) for row in rows if any(row)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                f /= p[col]
                rows[i] = [x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank


def check_solution_space(
    system: tuple[list[list[Fraction]], list[Fraction]],
    space: dict,
    data: AtPoint,
) -> list[str]:
    """The whole affine solution set of M x = rhs, as serialized (status,
    particular, kernel_basis, witness), against the system at the point:
    the particular solves it, each basis vector solves the homogeneous
    system, the basis is independent and spans the kernel, and an
    infeasible verdict is a real inconsistency."""
    M, rhs = system
    nunk = data.r**3
    rank_m = matrix_rank(M)
    if space["status"] == "infeasible":
        errors = []
        if space.get("witness") in (None, "0"):
            errors.append("infeasible without a nonzero witness")
        if matrix_rank([row + [v] for row, v in zip(M, rhs)]) == rank_m:
            errors.append("reported infeasible but the system is consistent")
        return errors

    def vector(items) -> list[Fraction]:
        vec = [ZERO] * nunk
        for (a, b, c), value in data.values(items).items():
            vec[_col(data.r, a, b, c)] = value.v
        return vec

    errors = []
    x = vector(space["particular"])
    for k, (row, value) in enumerate(zip(M, rhs)):
        if sum((m * xi for m, xi in zip(row, x) if m), ZERO) != value:
            errors.append(f"particular solution violates row {k}")
            break
    basis = [vector(items) for items in space["kernel_basis"]]
    for j, vec in enumerate(basis):
        if any(sum((m * xi for m, xi in zip(row, vec) if m), ZERO) for row in M):
            errors.append(f"kernel vector {j} is not in the kernel")
            break
    if basis and matrix_rank(basis) != len(basis):
        errors.append("kernel basis is dependent")
    if rank_m + len(basis) != nunk:
        errors.append(
            f"kernel dimension {len(basis)} but the system has rank {rank_m} "
            f"in {nunk} unknowns"
        )
    expected = "unique" if not basis else "affine"
    if space["status"] != expected:
        errors.append(f"status {space['status']!r} with {len(basis)} kernel vectors")
    return errors


def at_some_point(rng: random.Random, doc: dict, check, tries: int = 5) -> list[str]:
    """Run ``check(AtPoint)`` at the first seeded point that is not a pole
    of any value involved."""
    for _ in range(tries):
        try:
            return check(AtPoint(doc, random_point(rng, doc["dimension"])))
        except ZeroDivisionError:
            continue
    return [f"no pole-free point found in {tries} tries"]


def differ(got: dict, want: dict, label: str) -> list[str]:
    """Compare two index->Fraction maps, missing entries being zero."""
    for k in sorted(set(got) | set(want)):
        if got.get(k, ZERO) != want.get(k, ZERO):
            return [f"{label} differs at {k}"]
    return []
