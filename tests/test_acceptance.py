"""Acceptance gate: one test per criterion, everything exact.

Each test prints a single PASS line once its assertions hold (run with
-s to see them); any assertion failure marks the criterion red.
"""

import json
import random
from fractions import Fraction

from helpers import (
    canonical_pi2,
    canonical_pi4,
    flat_scenario,
    hkr_to_cochain,
    is_identity,
    non_poisson_pi,
    obstructed_scenario,
    op_add,
    op_equal,
    p2,
    p4,
    rand_op,
    rand_poly,
    rand_vector_field,
    removable_scenario,
    scaled,
    sign,
    so3_pi,
    trivial_star,
)
from oracles import gerst_bracket

from starobs import (
    OBSTRUCTED,
    TRIVIALIZED,
    Bounds,
    FormalDiffeo,
    IntegrableSystem,
    PolyDiffOp,
    Polynomial,
    Polyvector,
    RelativeClass,
    StarProduct,
    d_hor,
    eliminate_to_order,
    extend_one_order,
    gauge_transform,
    hochschild_d,
    jacobi_check,
    moyal_star,
    restricted_values,
    schouten_bracket,
)
from starobs.cli import main as cli_main


def report(n: int, message: str):
    print(f"criterion {n}: PASS - {message}")


def test_criterion_1_hochschild_identities():
    rng = random.Random(101)
    cases = 0
    for _ in range(105):
        dim = rng.choice([1, 2, 3, 4])
        i, j, k = (rng.randint(0, 2) for _ in range(3))
        phi = rand_op(rng, dim, i, order=2)
        psi = rand_op(rng, dim, j, order=2)
        rho = rand_op(rng, dim, k, order=2)
        m = PolyDiffOp.multiplication(dim)
        # d o d = 0
        assert hochschild_d(hochschild_d(phi)).is_zero()
        # graded antisymmetry
        assert (
            gerst_bracket(phi, psi)
            + scaled(gerst_bracket(psi, phi), sign((i - 1) * (j - 1)))
        ).is_zero()
        # graded Jacobi (Leibniz form)
        lhs = gerst_bracket(phi, gerst_bracket(psi, rho))
        rhs = op_add(
            gerst_bracket(gerst_bracket(phi, psi), rho),
            scaled(gerst_bracket(psi, gerst_bracket(phi, rho)), sign((i - 1) * (j - 1))),
        )
        assert op_equal(lhs, rhs)
        # the differential is bracketing with the product: d = -[., m]
        # uniformly in arity (equivalently (-1)^(arity-1) [m, .])
        d = hochschild_d(phi)
        assert (d + gerst_bracket(phi, m)).is_zero()
        assert (d - scaled(gerst_bracket(m, phi), sign(i - 1))).is_zero()
        cases += 1
    assert cases >= 100
    report(1, f"d^2, antisymmetry, Jacobi, d = -[.,m] on {cases} random operators")


def test_criterion_2_exponential_product_correctness():
    for pi, dim in ((canonical_pi2(), 2), (canonical_pi4(), 4)):
        star = moyal_star(pi, 4)
        for n in range(1, 5):
            assert star.assoc_residual(n).is_zero()
    star = moyal_star(canonical_pi2(), 4)
    comm = star.commutator(p2("x"), p2("p"))
    assert comm[1] == Polynomial.constant(2, 1)
    assert all(comm[k].is_zero() for k in (0, 2, 3, 4))
    H = p2("x^2 + p^2") * Fraction(1, 2)
    hh = star.eval(H, H)
    assert hh[0] == H * H
    assert hh[2] == Polynomial.constant(2, Fraction(1, 4))
    assert all(hh[k].is_zero() for k in (1, 3, 4))
    report(2, "residuals vanish symbolically to order 4 in dims 2 and 4; "
              "x*p - p*x = h; H*H = H^2 + h^2/4")


def test_criterion_3_cocycle_equations():
    for pi in (canonical_pi2(), canonical_pi4()):
        star = moyal_star(pi, 3)
        # order 1: the first correction is a Hochschild cocycle
        assert hochschild_d(star.term(1)).is_zero()
        # orders 2 and 3: d(B_n) equals the lower-order associator sum,
        # as an identity of canonical operators
        for n in (2, 3):
            rhs = PolyDiffOp.zero(star.dim, 3)
            for k in range(1, n):
                l = n - k
                outer, inner = star.term(k), star.term(l)
                rhs = rhs + outer.compose_at(0, inner) - outer.compose_at(1, inner)
            assert (hochschild_d(star.term(n)) - rhs).is_zero()
    report(3, "order 1-3 cocycle identities hold as canonical operator "
              "equations in dims 2 and 4")


def test_criterion_4_schouten_hkr():
    ok, witness = jacobi_check(canonical_pi2())
    assert ok and witness.is_zero()
    ok, witness = jacobi_check(so3_pi())
    assert ok and witness.is_zero()
    ok, witness = jacobi_check(non_poisson_pi())
    assert not ok and not witness.is_zero()
    rng = random.Random(104)
    pairs = 0
    for _ in range(55):
        dim = rng.choice([2, 3])
        X, Y = rand_vector_field(rng, dim), rand_vector_field(rng, dim)
        lhs = gerst_bracket(hkr_to_cochain(X), hkr_to_cochain(Y))
        rhs = hkr_to_cochain(schouten_bracket(X, Y))
        assert (lhs - rhs).is_zero()
        pairs += 1
    assert pairs >= 50
    report(4, f"Jacobi verdicts with witnesses; bracket/antisymmetrization "
              f"compatibility on {pairs} random vector-field pairs")


def test_criterion_5_relative_complex():
    systems = [
        IntegrableSystem(canonical_pi4(), [p4("p1"), p4("p2")]),
        removable_scenario()[1],
        obstructed_scenario()[1],
    ]
    rng = random.Random(105)
    for system in systems:
        checked = 0
        for _ in range(50):
            degree = rng.randint(0, 1)
            if degree == 0:
                comps = {(): rand_poly(rng, system.dim)}
            else:
                comps = {(j,): rand_poly(rng, system.dim) for j in range(system.size)}
            c = RelativeClass(system.dim, system.size, degree, comps)
            assert d_hor(system, d_hor(system, c)).is_zero()
            checked += 1
        assert checked >= 50
    system = systems[0]
    out = d_hor(system, RelativeClass(4, 2, 0, {(): p4("x1")}))
    assert out == RelativeClass(4, 2, 1, {(0,): Polynomial.constant(4, -1)})
    report(5, "d_hor^2 = 0 on 50 random low-degree classes per system; "
              "coordinate example matches the hand-derived value")


def test_criterion_6_obstruction_pipeline():
    bounds = Bounds(degree=2, op_order=2)
    two = lambda dim: RelativeClass(dim, 2, 2, {(0, 1): Polynomial.constant(dim, 2)})

    star, system = flat_scenario(order=2)
    rep_a = eliminate_to_order(star, system, 2, bounds)
    assert rep_a.status == TRIVIALIZED
    assert is_identity(rep_a.gauge)

    star_b, system_b = removable_scenario()
    rep_b = eliminate_to_order(star_b, system_b, 2, bounds)
    assert rep_b.status == TRIVIALIZED
    assert not is_identity(rep_b.gauge)
    # independent audit, recomputed from the reported product
    for k in (1, 2):
        op = rep_b.star.term(k)
        table = restricted_values(op, system_b)
        assert all(v.is_zero() for v in table.values())

    star_c, system_c = obstructed_scenario()
    rep_c = eliminate_to_order(star_c, system_c, 2, bounds)
    assert rep_c.status == OBSTRUCTED
    assert rep_c.classes[1] == two(4)
    assert rep_c.records[1].exactness.certificate == "zero_image"
    report(6, "flat system trivial with identity gauge; removable class "
              "gauged away (audited); Casimir class certified obstructed")


def test_criterion_7_gauge_invariance_oracle():
    # random gauges whose terms all kill the subalgebra (each carries a
    # transverse derivative); the brute-force commutator series of the
    # generators is the oracle and must stay identically zero
    rng = random.Random(107)
    star, system = flat_scenario(order=3)
    gens = system.generators
    diffeos = 0
    for _ in range(10):
        parts = {}
        for k in (1, 2, 3):
            alpha = (rng.randint(1, 2), rng.randint(0, 1), rng.randint(0, 1))
            parts[k] = PolyDiffOp.single(3, [alpha], rand_poly(rng, 3, 1, terms=1))
        moved = gauge_transform(star, FormalDiffeo.from_parts(3, 3, parts))
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                series = moved.commutator(gens[i], gens[j])
                assert all(c.is_zero() for c in series)
        diffeos += 1
    assert diffeos == 10
    report(7, "10 random subalgebra-killing gauges leave every generator "
              "commutator zero through order 3 (brute-force oracle)")


def test_criterion_8_extension_constraint():
    solved = []
    for base in (
        trivial_star(2, 2),
        moyal_star(canonical_pi2(), 1),
        moyal_star(Polyvector.bivector(3, {(0, 1): 1}), 1),
    ):
        result = extend_one_order(base)
        assert result.solved
        # independent residual re-check of the built-in post-check
        fresh = StarProduct(
            result.extended.dim, result.extended.order, result.extended.corrections
        )
        assert fresh.assoc_residual(base.order + 1).is_zero()
        solved.append(result)
    # the canonical continuation itself satisfies the order-2 constraint
    full = moyal_star(canonical_pi2(), 2)
    candidate = StarProduct(2, 2, [full.term(1), full.term(2)])
    assert candidate.assoc_residual(2).is_zero()
    report(8, f"{len(solved)} extensions solved and re-checked; the exact "
              "second-order continuation passes as a candidate")


def test_criterion_9_cli_determinism(tmp_path):
    problem = {
        "dimension": 3,
        "coordinates": ["x", "y", "z"],
        "poisson": [[1, 2, "1"]],
        "star": {
            "type": "terms",
            "order": 2,
            "terms": {
                "1": [
                    {"coeff": "1/2", "derivs": [[1, 0, 0], [0, 1, 0]]},
                    {"coeff": "-1/2", "derivs": [[0, 1, 0], [1, 0, 0]]},
                ],
                "2": [
                    {"coeff": "1/8", "derivs": [[2, 0, 0], [0, 2, 0]]},
                    {"coeff": "-1/4", "derivs": [[1, 1, 0], [1, 1, 0]]},
                    {"coeff": "1/8", "derivs": [[0, 2, 0], [2, 0, 0]]},
                    {"coeff": "1", "derivs": [[0, 1, 0], [0, 0, 1]]},
                    {"coeff": "-1", "derivs": [[0, 0, 1], [0, 1, 0]]},
                ],
            },
        },
        "generators": ["y", "z"],
        "bounds": {"degree": 2, "op_order": 2},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem), encoding="utf-8")
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main(
            [
                "--problem", str(path),
                "--command", "eliminate",
                "--order", "2",
                "--seed", "7",
                "--out", str(out),
            ]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    payload = json.loads(outs[0])
    assert payload["result"]["status"] == "TRIVIALIZED"
    report(9, "two seeded runs produce byte-identical reports")
