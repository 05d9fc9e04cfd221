"""Reference operations the tests check identities with.

None of these is on the pipeline's path: the cup product and the
Gerstenhaber circle product and bracket of Hochschild cochains, the
exterior product of polyvector fields, the Poisson differential, a
function as a degree-0 polyvector and its Hamiltonian vector field.
Acceptance criterion 1 and the graded identities of the Schouten
bracket are stated in terms of them.

Sign conventions: the insertion sum of the circle product runs over
every slot l = 0..i-1 with sign (-1)^(l*(j-1)); together with the
bracket sign (-1)^((i-1)(j-1)) this makes the Hochschild differential
equal to -[., m] for the multiplication cochain m, uniformly in arity.
"""

from __future__ import annotations

from starobs import PolyDiffOp, Polynomial, Polyvector, jacobi_check, schouten_bracket
from starobs.multivec import IndexTuple, sort_with_sign
from starobs.poly import _accumulate
from starobs.polydiff import DerivKey


def cup(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """Cup product with sign (-1)^(ij):  (phi u psi) = (-1)^(ij) phi(..)psi(..)."""
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    sign = -1 if (phi.arity * psi.arity) % 2 else 1
    terms: dict[DerivKey, Polynomial] = {}
    for k1, c1 in phi.terms.items():
        for k2, c2 in psi.terms.items():
            _accumulate(terms, k1 + k2, c1 * c2 * sign)
    return PolyDiffOp(phi.dim, phi.arity + psi.arity, terms)


def _circ(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """Insertion sum over all slots; empty (zero) for arity-0 phi."""
    i, j = phi.arity, psi.arity
    result = PolyDiffOp.zero(phi.dim, max(i + j - 1, 0))
    for l in range(i):
        piece = phi.compose_at(l, psi)
        if (l * (j - 1)) % 2:
            piece = -piece
        result = result + piece
    return result


def gerst_circ(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """Gerstenhaber circle product: signed insertion of psi into phi."""
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    if phi.arity == 0:
        raise ValueError("cannot insert into an arity-0 operator")
    return _circ(phi, psi)


def gerst_bracket(phi: PolyDiffOp, psi: PolyDiffOp) -> PolyDiffOp:
    """[phi, psi] = phi o psi - (-1)^((i-1)(j-1)) psi o phi."""
    if phi.dim != psi.dim:
        raise ValueError("dimension mismatch")
    i, j = phi.arity, psi.arity
    sign = -1 if ((i - 1) * (j - 1)) % 2 else 1
    second = _circ(psi, phi)
    if sign == 1:
        return _circ(phi, psi) - second
    return _circ(phi, psi) + second



def wedge(P: Polyvector, Q: Polyvector) -> Polyvector:
    """Exterior product; graded commutative and degree additive."""
    if P.dim != Q.dim:
        raise ValueError(f"dimension mismatch: {P.dim} vs {Q.dim}")
    degree = P.degree + Q.degree
    comps: dict[IndexTuple, Polynomial] = {}
    for i1, p1 in P.components.items():
        for i2, p2 in Q.components.items():
            key, sign = sort_with_sign(i1 + i2)
            if sign:
                _accumulate(comps, key, p1 * p2 * sign)
    return Polyvector(P.dim, degree, comps)


def d_pi(pi: Polyvector, T: Polyvector) -> Polyvector:
    """Poisson differential [pi, T]; requires pi Poisson so that d^2 = 0."""
    ok, _ = jacobi_check(pi)
    if not ok:
        raise ValueError("bivector does not satisfy the Jacobi identity")
    return schouten_bracket(pi, T)


def from_polynomial(p: Polynomial) -> Polyvector:
    """p as a degree-0 polyvector field."""
    return Polyvector(p.dim, 0, {(): p})


def hamiltonian_field(pi: Polyvector, f: Polynomial) -> Polyvector:
    """Vector field {f, .} = [pi, f] in multivec's conventions."""
    return schouten_bracket(pi, from_polynomial(f))
