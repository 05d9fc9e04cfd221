"""Seeded problem files for the three benchmark workloads, with known answers.

A workload is a list of `Case`s: a problem file, the CLI command to run on
it, and the outcome known by construction.  The seed draws the rational
coefficients (bivector scale, planted gauge, perturbations); the shape of
every problem class is fixed, so two seeds give problems of comparable
cost and the per-seed spread of the timings stays small.

Known answers, and why they hold:

* planted eliminations: a flat Moyal product conjugated by a formal
  diffeomorphism D.  D^-1 is a gauge that trivializes it, and the bounds
  contain it, so the answer is TRIVIALIZED (UNDECIDED is tolerated: the
  loop may pick another gauge path that leaves the ansatz);
* Casimir classes: an antisymmetric constant biderivation on two Casimir
  generators.  It keeps the product associative, its class is nonzero, and
  the horizontal differential has zero image, so the answer is OBSTRUCTED
  with the `zero_image` certificate;
* extensions: a Moyal product (or a gauge transform of one) truncated at
  order n.  The order-(n+1) term of the untruncated product solves the
  next associativity constraint, and the bounds are read off that term, so
  the answer is `solved`;
* small commands: Lie-Poisson bivectors satisfy Jacobi, z d_x^d_y +
  y d_y^d_z does not; a_pp*b added at order 2 breaks associativity at
  order 2 only; commuting quadratic generators have zero Moyal commutator
  series;
* malformed files are the ROADMAP item 4 defect classes; the documented
  answer for each is exit 1.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction

from starobs import (
    FormalDiffeo,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    StarProduct,
    gauge_transform,
    moyal_star,
)

R2 = ["x", "p"]
R3 = ["x", "y", "z"]
R4 = ["x", "y", "z", "w"]
R4C = ["x1", "x2", "p1", "p2"]


@dataclass
class Case:
    """One request: a problem file, a command, and its known answer."""

    label: str
    problem: dict
    command: str
    order: int | None
    expect: dict
    # ROADMAP item 4 defect class of a malformed file, else None
    defect: str | None = None

    def argv(self, path: str) -> list[str]:
        out = ["--problem", path, "--command", self.command]
        if self.order is not None:
            out += ["--order", str(self.order)]
        return out


# -- serialization --------------------------------------------------------------


def _op_terms(op: PolyDiffOp, names: list[str]) -> list[dict]:
    return [
        {"coeff": c.to_string(names), "derivs": [list(a) for a in key]}
        for key, c in sorted(op.terms.items())
    ]


def _star_terms(star: StarProduct, names: list[str]) -> dict:
    return {
        "type": "terms",
        "order": star.order,
        "terms": {str(k): _op_terms(star.term(k), names) for k in range(1, star.order + 1)},
    }


def _bivector_entries(pi: Polyvector, names: list[str]) -> list:
    return [[i + 1, j + 1, c.to_string(names)] for (i, j), c in sorted(pi.components.items())]


def _problem(pi, names, star, generators=(), bounds=(2, 2), seed=0) -> dict:
    out = {
        "dimension": len(names),
        "coordinates": list(names),
        "poisson": _bivector_entries(pi, names),
        "bounds": {"degree": bounds[0], "op_order": bounds[1]},
        "seed": seed,
    }
    if star is not None:
        out["star"] = star
    if generators:
        out["generators"] = list(generators)
    return out


# -- building blocks -------------------------------------------------------------


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3))) * rng.choice((1, -1))


def _mono(dim: int, exps, c) -> Polynomial:
    return Polynomial.monomial(dim, tuple(exps), c)


def _unary(dim: int, alpha, exps, c) -> PolyDiffOp:
    return PolyDiffOp.single(dim, [tuple(alpha)], _mono(dim, exps, c))


def _biderivation(dim: int, i: int, j: int, c) -> PolyDiffOp:
    """c * (d_i (x) d_j); a Hochschild cocycle for constant c."""
    a = [0] * dim
    b = [0] * dim
    a[i] += 1
    b[j] += 1
    return PolyDiffOp.single(dim, [tuple(a), tuple(b)], Polynomial.constant(dim, c))


def _plane_pi(dim: int, rng: random.Random) -> Polyvector:
    return Polyvector.bivector(dim, {(0, 1): _coeff(rng)})


def _symplectic_pi(dim: int, rng: random.Random) -> Polyvector:
    """Nondegenerate constant bivector: one canonical pair on R^2, two on R^4."""
    if dim == 2:
        return _plane_pi(2, rng)
    return Polyvector.bivector(4, {(0, 2): _coeff(rng), (1, 3): _coeff(rng)})


def _gauge(rng, dim: int, order: int, gauge_terms: dict) -> FormalDiffeo:
    """id + sum_k h^k c_k x^exps d^alpha, one seeded c_k per given order k."""
    terms = [PolyDiffOp.zero(dim, 1)] * order
    for k, (alpha, exps) in gauge_terms.items():
        terms[k - 1] = _unary(dim, alpha, exps, _coeff(rng))
    return FormalDiffeo(dim, order, terms)


def _planted(rng, names, gauge_terms, order, bounds, label) -> Case:
    """Flat product hidden behind a seeded diffeomorphism (TRIVIALIZED)."""
    dim = len(names)
    pi = _plane_pi(dim, rng)
    dirty = gauge_transform(moyal_star(pi, order), _gauge(rng, dim, order, gauge_terms))
    problem = _problem(
        pi, names, _star_terms(dirty, names), ["y", "z"], bounds, rng.randrange(1000)
    )
    expect = {"status": {"TRIVIALIZED", "UNDECIDED"}}
    return Case(label, problem, "eliminate", order, expect)


def _casimir(rng, command: str) -> Case:
    """Nonzero order-2 class on two Casimirs (OBSTRUCTED, zero_image)."""
    dim = 4
    pi = _plane_pi(dim, rng)
    c = _coeff(rng)
    extra = (
        _biderivation(dim, 2, 3, c)
        - _biderivation(dim, 3, 2, c)
        + _biderivation(dim, 2, 2, _coeff(rng))
    )
    star = moyal_star(pi, 2).plus_term(2, extra)
    problem = _problem(pi, R4, _star_terms(star, R4), ["z", "w"], (2, 2), rng.randrange(1000))
    if command == "eliminate":
        expect = {"status": {"OBSTRUCTED"}, "certificate": "zero_image"}
    else:
        expect = {"exactness": "infeasible", "certificate": "zero_image"}
    return Case(f"casimir-{command}", problem, command, 2, expect)


def _moyal_extension(rng, names, n) -> Case:
    """Moyal product of a random constant bivector; B_{n+1} has degree 0."""
    dim = len(names)
    pi = _symplectic_pi(dim, rng)
    problem = _problem(pi, names, {"type": "moyal", "order": n}, bounds=(0, n + 1))
    return Case(f"moyal-r{dim}-o{n}", problem, "extend-star", None, {"status": {"solved"}})


def _gauged_extension(rng, names, n, gauge_terms) -> Case:
    """Gauge transform of a Moyal product; bounds fit its known B_{n+1}."""
    dim = len(names)
    pi = _symplectic_pi(dim, rng)
    full = gauge_transform(moyal_star(pi, n + 1), _gauge(rng, dim, n + 1, gauge_terms))
    known = full.term(n + 1)
    truncated = StarProduct(dim, n, list(full.corrections[:n]))
    bounds = (known.coefficient_degree(), known.order())
    problem = _problem(pi, names, _star_terms(truncated, names), bounds=bounds)
    return Case(f"gauged-r{dim}-o{n}", problem, "extend-star", None, {"status": {"solved"}})


# -- the three workloads ---------------------------------------------------------


def eliminate_cases(rng: random.Random) -> list[Case]:
    """One pass: 4 Casimir, 4 planted R^3 order 2, 1 planted R^4, 3 planted R^3 order 3.

    By cost, four requests sit below the order-2 R^3 class and four above
    it, so the median falls in the middle of that class, and the 90th
    percentile on the middle one of the three order-3 problems: each
    quantile lies inside one problem class rather than in the gap between
    two.
    """
    r3o2 = {1: ((0, 0, 1), (1, 0, 0)), 2: ((0, 0, 2), (0, 0, 1))}
    r3o3 = {2: ((0, 0, 2), (0, 0, 1)), 3: ((0, 1, 1), (0, 0, 0))}
    r4o2 = {1: ((0, 0, 1, 0), (1, 0, 0, 0)), 2: ((0, 0, 2, 0), (0, 0, 0, 1))}

    def planted_r3o2():
        return _planted(rng, R3, r3o2, 2, (2, 2), "planted-r3-o2")

    def planted_r3o3():
        return _planted(rng, R3, r3o3, 3, (2, 2), "planted-r3-o3")

    return [
        _casimir(rng, "eliminate"),
        planted_r3o2(),
        planted_r3o3(),
        _casimir(rng, "eliminate"),
        planted_r3o2(),
        _planted(rng, R4, r4o2, 2, (2, 2), "planted-r4-o2"),
        _casimir(rng, "eliminate"),
        planted_r3o3(),
        planted_r3o2(),
        _casimir(rng, "eliminate"),
        planted_r3o2(),
        planted_r3o3(),
    ]


def extend_cases(rng: random.Random) -> list[Case]:
    """One pass: Moyal R^2/R^4 at orders 1-3 and gauge-transformed copies.

    By cost, four requests sit below the four gauged R^2 order-2 products
    and four above them, so the median falls in the middle of that class;
    the 90th percentile falls on the middle one of the three gauged R^4
    order-1 products.
    """
    r2o2 = {1: ((0, 1), (1, 0)), 2: ((0, 2), (0, 0))}
    r4o1 = {1: ((0, 0, 1, 0), (1, 0, 0, 0))}
    return [
        _moyal_extension(rng, R2, 1),
        _gauged_extension(rng, R2, 2, r2o2),
        _moyal_extension(rng, R4C, 2),
        _gauged_extension(rng, R2, 2, r2o2),
        _gauged_extension(rng, R4C, 1, r4o1),
        _moyal_extension(rng, R2, 3),
        _gauged_extension(rng, R2, 2, r2o2),
        _gauged_extension(rng, R4C, 1, r4o1),
        _gauged_extension(rng, R2, 2, r2o2),
        _moyal_extension(rng, R4C, 1),
        _gauged_extension(rng, R4C, 1, r4o1),
        _moyal_extension(rng, R2, 2),
    ]


def _lie_poisson(rng) -> Case:
    c = _coeff(rng)
    pi = Polyvector(
        3,
        2,
        {(0, 1): _mono(3, (0, 0, 1), c), (1, 2): _mono(3, (1, 0, 0), c), (0, 2): _mono(3, (0, 1, 0), -c)},
    )
    return Case("lie-poisson", _problem(pi, R3, None), "check-poisson", None, {"poisson": True})


def _not_poisson(rng) -> Case:
    pi = Polyvector(
        3, 2, {(0, 1): _mono(3, (0, 0, 1), _coeff(rng)), (1, 2): _mono(3, (0, 1, 0), _coeff(rng))}
    )
    return Case("not-poisson", _problem(pi, R3, None), "check-poisson", None, {"poisson": False})


def _assoc_moyal(rng, n) -> Case:
    pi = _plane_pi(2, rng)
    problem = _problem(pi, R2, {"type": "moyal", "order": n})
    return Case(f"assoc-moyal-o{n}", problem, "assoc-check", None, {"certified": n, "checked": n})


def _assoc_broken(rng) -> Case:
    pi = _plane_pi(2, rng)
    extra = PolyDiffOp.single(2, [(0, 2), (0, 0)], Polynomial.constant(2, _coeff(rng)))
    star = moyal_star(pi, 2).plus_term(2, extra)
    problem = _problem(pi, R2, _star_terms(star, R2))
    return Case("assoc-broken", problem, "assoc-check", None, {"certified": 1, "checked": 2})


def _commutators(rng) -> Case:
    pi = Polyvector.bivector(4, {(0, 2): 1, (1, 3): 1})
    a, b = _coeff(rng), _coeff(rng)
    H = _mono(4, (0, 0, 2, 0), a) + _mono(4, (0, 0, 0, 2), a)
    L = _mono(4, (1, 0, 0, 1), b) - _mono(4, (0, 1, 1, 0), b)
    problem = _problem(
        pi, R4C, {"type": "moyal", "order": 2}, [H.to_string(R4C), L.to_string(R4C)]
    )
    return Case("commuting-quadratics", problem, "commutator-table", None, {"commutators_zero": True})


def _removable(rng) -> Case:
    pi = _plane_pi(3, rng)
    c = _coeff(rng)
    extra = _biderivation(3, 1, 2, c) - _biderivation(3, 2, 1, c)
    star = moyal_star(pi, 2).plus_term(2, extra)
    problem = _problem(pi, R3, _star_terms(star, R3), ["y", "z"])
    return Case("removable-obstruction", problem, "obstruction", 2, {"exactness": "solved"})


def _flat(rng, n) -> Case:
    pi = _plane_pi(2, rng)
    problem = _problem(pi, R2, {"type": "moyal", "order": n}, ["p"])
    return Case(f"flat-o{n}", problem, "eliminate", n, {"status": {"TRIVIALIZED"}})


def _small_planted(rng) -> Case:
    return _planted(rng, R4, {2: ((0, 0, 1, 1), (0, 0, 1, 0))}, 2, (1, 2), "small-planted")


def _malformed(rng) -> list[Case]:
    """The ROADMAP item 4 defect classes, each on an otherwise valid file."""
    pi = _plane_pi(3, rng)
    base = _problem(pi, R3, {"type": "moyal", "order": 2}, ["y", "z"], (1, 1))
    variants = [
        ("poisson-not-list", "check-poisson", {"poisson": 7}),
        ("bounds-list", "obstruction", {"bounds": [1, 2]}),
        ("dimension-float", "check-poisson", {"dimension": 3.7}),
        ("generators-string", "commutator-table", {"generators": "y"}),
        ("star-term-not-list", "assoc-check", {"star": {"type": "terms", "order": 1, "terms": {"1": 5}}}),
        ("negative-bounds", "eliminate", {"bounds": {"degree": -1, "op_order": -1}}),
    ]
    out = []
    for defect, command, patch in variants:
        problem = copy.deepcopy(base)
        problem.update(patch)
        out.append(Case(f"malformed-{defect}", problem, command, None, {"exit": 1}, defect))
    return out


def cli_cases(rng: random.Random) -> list[Case]:
    """One pass: 30 small requests over all six commands, 6 of them malformed.

    By cost: 12 requests under 15 ms, then 6 eliminations of a flat
    product that hold the median, 5 requests near 30 ms, then 6 near
    0.1 s (mostly Casimir obstruction commands) that hold the 90th
    percentile, and one removable-class obstruction on top.
    """
    bad = _malformed(rng)
    return [
        _lie_poisson(rng),
        _flat(rng, 2),
        bad[0],
        _casimir(rng, "obstruction"),
        _commutators(rng),
        _flat(rng, 2),
        _moyal_extension(rng, R2, 1),
        bad[1],
        _not_poisson(rng),
        _casimir(rng, "obstruction"),
        _assoc_moyal(rng, 1),
        _flat(rng, 2),
        bad[2],
        _casimir(rng, "eliminate"),
        _small_planted(rng),
        _assoc_broken(rng),
        _flat(rng, 2),
        bad[3],
        _removable(rng),
        _moyal_extension(rng, R2, 2),
        _assoc_moyal(rng, 2),
        _flat(rng, 2),
        bad[4],
        _casimir(rng, "obstruction"),
        _commutators(rng),
        _flat(rng, 3),
        _moyal_extension(rng, R2, 1),
        _flat(rng, 2),
        bad[5],
        _casimir(rng, "obstruction"),
    ]


BUILDERS = {"eliminate": eliminate_cases, "extend": extend_cases, "cli": cli_cases}


def build(workload: str, seed: int) -> list[Case]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


# -- the oracle ------------------------------------------------------------------


def judge(case: Case, exit_code: int | None, report: dict | None) -> tuple[bool, bool, str]:
    """Compare one outcome with the known answer: (correct, decided, reason).

    `exit_code` is None when the CLI raised instead of returning.  A
    decided outcome is a correct one that is not an UNDECIDED verdict or
    an exhausted-bound certificate.
    """
    expect = case.expect
    want_exit = expect.get("exit", 0)
    if exit_code is None:
        return False, False, "uncaught exception"
    if exit_code != want_exit:
        return False, False, f"exit {exit_code}, expected {want_exit}"
    if want_exit != 0:
        return True, True, "rejected"
    result = report["result"]
    if "status" in expect:
        status = result["status"]
        if status not in expect["status"]:
            return False, False, f"status {status}"
        if "certificate" in expect:
            last = result["records"][-1].get("exactness") or {}
            if last.get("certificate") != expect["certificate"]:
                return False, False, f"certificate {last.get('certificate')}"
        return True, status in ("TRIVIALIZED", "OBSTRUCTED", "solved"), status
    if "poisson" in expect:
        ok = result["poisson"] is expect["poisson"]
        return ok, ok, f"poisson {result['poisson']}"
    if "certified" in expect:
        ok = (
            result["certified_order"] == expect["certified"]
            and result["max_order_checked"] == expect["checked"]
        )
        return ok, ok, f"certified {result['certified_order']}"
    if "commutators_zero" in expect:
        ok = all(c == "0" for entry in result["commutators"] for c in entry["series"])
        ok = ok and bool(result["commutators"])
        return ok, ok, "commutators"
    if "exactness" in expect:
        exact = result["exactness"] or {}
        ok = exact.get("status") == expect["exactness"] and exact.get(
            "certificate"
        ) == expect.get("certificate")
        return ok, ok, f"exactness {exact.get('status')}"
    raise ValueError(f"case {case.label} has no known answer")
