"""Problem-file loading, command dispatch and report serialization.

Problems are JSON: a coordinate frame, a bivector given on index pairs,
an optional star product (the built-in constant-coefficient one or
explicit term lists), optional generators, and solver bounds.  Reports
are JSON with canonical polynomial strings, "p/q" rationals and sorted
keys, so identical inputs and seeds produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any

from .multivec import Polyvector, RelativeClass, jacobi_check
from .obstruction import (
    Bounds,
    ExactnessResult,
    IntegrableSystem,
    ObstructionReport,
    cocycle_cascade_check,
    eliminate_to_order,
    exactness_solve,
    validate_system,
)
from .poly import Polynomial, PolynomialParseError, _add_into, is_name, parse_polynomial
from .polydiff import PolyDiffOp, _numerated
from .star import FormalDiffeo, StarProduct, extend_one_order, moyal_star

CONVENTIONS = {
    "parameter": "real formal parameter; no imaginary unit in coefficients",
    "commutator": (
        "for the built-in product the antisymmetric part of the first "
        "correction is half the Poisson bracket, so commutators open as "
        "h*{a,b} plus higher order"
    ),
}


# the loader holds one operator per order, absent orders too, before any command runs
MAX_STAR_ORDER = 32
# the built-in product is built at load, one step per multiset of at most star.order
# of its 2m signed bivector entries: sum_k C(2m+k-1, k) of them, 10,625 take 0.8 s
# for canonical R^4 at order 20 on a 2-core Xeon VM
MAX_MOYAL_TERMS = 10_000


class ProblemError(ValueError):
    """Invalid problem file or unsatisfied command precondition."""


@dataclass
class Problem:
    dim: int
    names: list[str]
    pi: Polyvector
    star: StarProduct | None
    generators: list[Polynomial]
    bounds: Bounds
    command: str | None
    order: int | None
    seed: int
    star_spec: dict | None
    integrable: IntegrableSystem | None

    def system(self) -> IntegrableSystem:
        if self.integrable is None:
            raise ProblemError("this command needs a 'generators' list in the problem file")
        return self.integrable


# -- serialization helpers -----------------------------------------------------


def op_payload(op: PolyDiffOp, names: list[str]) -> list[dict]:
    out = []
    for key, coeff in op.sorted_terms():
        out.append({"coeff": coeff.to_string(names), "derivs": [list(a) for a in key]})
    return out


def op_from_payload(
    dim: int, arity: int, payload: list, names: list[str], where: str = "terms"
) -> PolyDiffOp:
    """The operator a term list describes; errors name the JSON path below `where`.
    Each coefficient dict is added into its key's, a key whose sum cancels is
    dropped, and the dicts are numerated into the operator's store."""
    terms: dict[tuple, dict] = {}
    for i, term in enumerate(payload):
        at = f"{where}[{i}]"
        if not isinstance(term, dict):
            raise ProblemError(f"{at}: expected an object, got {type(term).__name__}")
        coeff = _parse_poly_field(term.get("coeff"), names, f"{at}.coeff")
        _present(term.get("derivs"), f"{at}.derivs", f"{arity} derivative slots")
        slots = _field(term, "derivs", list, f"{at}.derivs")
        if len(slots) != arity:
            raise ProblemError(f"{at}.derivs: expected {arity} derivative slots, got {len(slots)}")
        derivs = []
        for k, slot in enumerate(slots):
            here = f"{at}.derivs[{k}]"
            if not isinstance(slot, list) or len(slot) != dim:
                raise ProblemError(f"{here}: expected a list of {dim} integers")
            derivs.append(tuple(_integer(v, f"{here}[{m}]", 0) for m, v in enumerate(slot)))
        acc = terms.setdefault(tuple(derivs), {})
        _add_into(acc, coeff.terms)
        if not acc:
            del terms[tuple(derivs)]
    return PolyDiffOp._trusted(dim, arity, *_numerated(terms))


def _order_terms(
    dim: int, arity: int, order: int, terms: dict, names: list[str], where: str
) -> list[PolyDiffOp]:
    """The operators at orders 1..order of a {"k": term list} object; absent ones are zero."""
    keys = [str(k) for k in range(1, order + 1)]
    for key in terms:
        if key not in keys:
            raise ProblemError(f"{where} has an out-of-range order key {key!r}")
    ops = []
    for key in keys:
        at = f"{where}.{key}"
        ops.append(op_from_payload(dim, arity, _field(terms, key, list, at), names, at))
    return ops


def polyvector_payload(v: Polyvector | RelativeClass, names: list[str]) -> dict:
    """Components keyed by their 1-based index tuple, e.g. "(1,2)"."""
    return {
        "(" + ",".join(str(i + 1) for i in idx) + ")": p.to_string(names)
        for idx, p in sorted(v.components.items())
    }


def _bounds_payload(bounds: Bounds) -> dict:
    return {"degree": bounds.degree, "op_order": bounds.op_order}


def star_payload(s: StarProduct | FormalDiffeo, names: list[str]) -> dict:
    """The order and the operator at each order 1..order."""
    return {
        "order": s.order,
        "terms": {str(k): op_payload(s.term(k), names) for k in range(1, s.order + 1)},
    }


def problem_payload(problem: Problem) -> dict:
    comps = sorted(problem.pi.components.items())
    poisson = [[i + 1, j + 1, coeff.to_string(problem.names)] for (i, j), coeff in comps]
    payload: dict[str, Any] = {
        "dimension": problem.dim,
        "coordinates": list(problem.names),
        "poisson": poisson,
        "generators": [g.to_string(problem.names) for g in problem.generators],
        "bounds": _bounds_payload(problem.bounds),
        "seed": problem.seed,
    }
    if problem.star_spec is not None:
        if problem.star_spec.get("type") == "moyal":
            payload["star"] = {"type": "moyal", "order": problem.star.order}
        else:
            payload["star"] = {
                "type": "terms",
                "order": problem.star.order,
                "terms": star_payload(problem.star, problem.names)["terms"],
            }
    if problem.command is not None:
        payload["command"] = problem.command
    if problem.order is not None:
        payload["order"] = problem.order
    return payload


# -- problem loading -------------------------------------------------------------


def _present(value: Any, where: str, expected: str) -> None:
    """The one rule for a required field: an absent key or a JSON null is missing."""
    if value is None:
        raise ProblemError(f"{where}: missing; expected {expected}")


def _parse_poly_field(text: Any, names: list[str], where: str) -> Polynomial:
    _present(text, where, "a polynomial string")
    if not isinstance(text, str):
        raise ProblemError(f"{where}: expected a polynomial string, got {type(text).__name__}")
    try:
        return parse_polynomial(text, names)
    except PolynomialParseError as exc:
        raise ProblemError(f"{where}: {exc}") from exc


def _integer(value: Any, where: str, minimum: int | None = None) -> int:
    _present(value, where, "an integer" + (f" of at least {minimum}" if minimum is not None else ""))
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemError(f"{where}: expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ProblemError(f"{where}: must be at least {minimum}, got {value}")
    return value


def _optional(data: dict, key: str, default: Any) -> Any:
    """data[key], or `default` when the key is absent or a JSON null."""
    value = data.get(key)
    return default if value is None else value


def _field(data: dict, key: str, kind: type, where: str) -> Any:
    """data[key] (an empty `kind` when absent or null), checked to be a list or an object."""
    value = _optional(data, key, kind())
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise ProblemError(f"{where}: expected {expected}, got {type(value).__name__}")
    return value


def load_problem_data(data: dict) -> Problem:
    if not isinstance(data, dict):
        raise ProblemError("problem file must contain a JSON object")
    dim = _integer(data.get("dimension"), "dimension", 1)
    _present(data.get("coordinates"), "coordinates", f"a list of {dim} names")
    names = _field(data, "coordinates", list, "coordinates")
    for k, name in enumerate(names):
        if not isinstance(name, str):
            raise ProblemError(f"coordinates[{k}]: expected a string, got {type(name).__name__}")
    if len(names) != dim:
        raise ProblemError(f"'coordinates' must list exactly {dim} names")
    if len(set(names)) != dim:
        raise ProblemError("coordinate names must be distinct")
    # a report renders coordinates by name, so each name must parse back as its variable
    for k, name in enumerate(names):
        if not is_name(name):
            raise ProblemError(f"coordinates[{k}]: {name!r} does not parse as a variable name")

    comps = {}
    for k, entry in enumerate(_field(data, "poisson", list, "poisson")):
        where = f"poisson[{k}]"
        try:
            i, j, coeff_text = entry
        except (TypeError, ValueError) as exc:
            raise ProblemError(f"{where}: expected [i, j, coefficient]: {exc}") from exc
        i, j = (_integer(x, f"{where}[{m}]") for m, x in enumerate((i, j)))
        if not 1 <= i <= dim or not 1 <= j <= dim:
            raise ProblemError(f"{where}: index out of range 1..{dim}: ({i}, {j})")
        if i == j:
            raise ProblemError(f"{where}: repeated index {i}")
        if (i - 1, j - 1) in comps or (j - 1, i - 1) in comps:
            raise ProblemError(f"{where}: pair ({min(i, j)}, {max(i, j)}) given twice")
        coeff = _parse_poly_field(coeff_text, names, where)
        comps[(i - 1, j - 1)] = coeff
    pi = Polyvector(dim, 2, comps)

    star = None
    star_spec = data.get("star")
    if star_spec is not None:
        if not isinstance(star_spec, dict) or star_spec.get("type") is None:
            raise ProblemError("'star' must be an object with a 'type'")
        order = _integer(star_spec.get("order"), "star.order", 1)
        if order > MAX_STAR_ORDER:
            raise ProblemError(f"star.order: must be at most {MAX_STAR_ORDER}, got {order}")
        if star_spec["type"] == "moyal":
            if not pi.is_constant():
                raise ProblemError(
                    "the built-in exponential star product needs a constant bivector"
                )
            entries = 2 * len(pi.components)
            terms = sum(math.comb(entries + k - 1, k) for k in range(1, order + 1))
            if terms > MAX_MOYAL_TERMS:
                raise ProblemError(
                    f"star.order: the built-in product of order {order} on "
                    f"{len(pi.components)} bivector entries has an estimated {terms} "
                    f"terms to build, more than {MAX_MOYAL_TERMS}"
                )
            star = moyal_star(pi, order)
        elif star_spec["type"] == "terms":
            terms = _field(star_spec, "terms", dict, "star.terms")
            star = StarProduct(dim, order, _order_terms(dim, 2, order, terms, names, "star.terms"))
        else:
            raise ProblemError(f"unknown star type {star_spec['type']!r}")

    generators = [
        _parse_poly_field(g, names, f"generators[{k}]")
        for k, g in enumerate(_field(data, "generators", list, "generators"))
    ]

    bounds_data = _field(data, "bounds", dict, "bounds")
    given = [key for key in ("degree", "op_order") if bounds_data.get(key) is not None]
    bounds = Bounds(**{key: _integer(bounds_data[key], f"bounds.{key}", 0) for key in given})
    command = data.get("command")
    if command is not None and command not in COMMANDS:
        raise ProblemError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    order = _optional(data, "order", None)
    order = None if order is None else _integer(order, "order", 1)
    seed = _integer(_optional(data, "seed", 0), "seed")

    problem = Problem(
        dim=dim,
        names=names,
        pi=pi,
        star=star,
        generators=generators,
        bounds=bounds,
        command=command,
        order=order,
        seed=seed,
        star_spec=star_spec,
        integrable=IntegrableSystem(pi, generators) if generators else None,
    )
    if generators:
        report = validate_system(problem.system())
        if not report.ok:
            raise ProblemError("; ".join(report.failure_messages(names)))
    return problem


def load_problem(path: str) -> Problem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemError(f"cannot read problem file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ProblemError(f"problem file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ProblemError("problem file is nested too deeply to decode") from exc
    return load_problem_data(data)


# -- commands ---------------------------------------------------------------------


def _require_star(problem: Problem) -> StarProduct:
    if problem.star is None:
        raise ProblemError("this command needs a 'star' entry in the problem file")
    return problem.star


def _residual_witness(res: PolyDiffOp, names: list[str]) -> dict | None:
    """A monomial triple on which a nonzero residual evaluates nonzero.

    The term key (a, b, c) least in (total order, |a|, |b|, a, b, c)
    gives (x^a, x^b, x^c): every other term differentiates some slot of
    it past its exponent, so the value is that term's coefficient times
    a!b!c!.  It is the first nonzero triple in order of combined degree,
    then slot degrees, then exponents.
    """
    if res.is_zero():
        return None
    key = min(res.terms, key=lambda k: (sum(map(sum, k)), *map(sum, k), *k))
    args = [Polynomial.monomial(res.dim, e) for e in key]
    return {"args": [p.to_string(names) for p in args], "value": res.apply(args).to_string(names)}


def cmd_check_poisson(problem: Problem, order: int | None) -> dict:
    ok, witness = jacobi_check(problem.pi)
    return {"poisson": ok, "witness": polyvector_payload(witness, problem.names)}


def cmd_assoc_check(problem: Problem, order: int | None) -> dict:
    star = _require_star(problem)
    upto = min(order, star.order) if order is not None else star.order
    residuals = []
    for n in range(1, upto + 1):
        res = star.assoc_residual(n)
        witness = _residual_witness(res, problem.names)
        residuals.append({"order": n, "zero": res.is_zero(), "witness": witness})
    # one less than the first order with a nonzero residual
    certified = next((r["order"] - 1 for r in residuals if not r["zero"]), upto)
    return {
        "max_order_checked": upto,
        "certified_order": certified,
        "residuals": residuals,
    }


def cmd_commutator_table(problem: Problem, order: int | None) -> dict:
    star = _require_star(problem)
    system = problem.system()
    table = []
    gens = system.generators
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            series = [c.to_string(problem.names) for c in star.commutator(gens[i], gens[j])]
            table.append({"pair": f"({i + 1},{j + 1})", "series": series})
    return {"order": star.order, "commutators": table}


def _exactness_payload(exact: ExactnessResult, degree_bound: int, names: list[str]) -> dict:
    return {
        "status": "solved" if exact.solved else "infeasible",
        "certificate": exact.certificate,
        "degree_bound": degree_bound,
        "witness": None if exact.witness is None else polyvector_payload(exact.witness, names),
    }


def cmd_obstruction(problem: Problem, order: int | None) -> dict:
    star = _require_star(problem)
    system = problem.system()
    n = order if order is not None else 2
    cascade = cocycle_cascade_check(star, system, n)
    chi = cascade.obstruction
    exactness = None
    if cascade.class_closed:
        exact = exactness_solve(system, chi, problem.bounds.degree)
        exactness = _exactness_payload(exact, problem.bounds.degree, problem.names)
    return {
        "order": n,
        "class": polyvector_payload(chi, problem.names),
        "class_zero": chi.is_zero(),
        "closed_on_subalgebra": cascade.cochain_closed,
        "class_closed": cascade.class_closed,
        "exactness": exactness,
    }


def _report_payload(report: ObstructionReport, bounds: Bounds, names: list[str]) -> dict:
    records = []
    for rec in report.records:
        entry: dict[str, Any] = {
            "order": rec.order,
            "table_zero": rec.table_zero,
            "class": polyvector_payload(rec.obstruction, names),
        }
        if rec.cascade is not None:
            entry["closed_on_subalgebra"] = rec.cascade.cochain_closed
            entry["class_closed"] = rec.cascade.class_closed
        if rec.exactness is not None:
            entry["exactness"] = _exactness_payload(rec.exactness, bounds.degree, names)
        if rec.step is not None:
            entry["gauge_step"] = {
                "status": "solved" if rec.step.solved else "undecided",
                "diffeo": None if rec.step.diffeo is None else star_payload(rec.step.diffeo, names),
            }
        records.append(entry)
    return {
        "status": report.status,
        "order_reached": report.order_reached,
        "detail": report.detail,
        "classes": [polyvector_payload(c, names) for c in report.classes],
        "gauge": star_payload(report.gauge, names),
        "star": star_payload(report.star, names),
        "records": records,
        "bounds": _bounds_payload(bounds),
    }


def cmd_eliminate(problem: Problem, order: int | None) -> dict:
    star = _require_star(problem)
    system = problem.system()
    n = order if order is not None else star.order
    report = eliminate_to_order(star, system, n, problem.bounds)
    return _report_payload(report, problem.bounds, problem.names)


def cmd_extend_star(problem: Problem, order: int | None) -> dict:
    star = _require_star(problem)
    result = extend_one_order(star)
    payload: dict[str, Any] = {
        "status": "solved" if result.solved else "no_extension",
        "new_order": star.order + 1,
        "bounds": _bounds_payload(problem.bounds),
    }
    if result.solved:
        payload["candidate"] = op_payload(result.particular, problem.names)
        payload["freedom"] = "candidate + any Hochschild 2-cocycle dD + beta is also a solution"
    else:
        payload["trivector"] = polyvector_payload(result.trivector, problem.names)
        payload["scope"] = (
            "the target antisymmetrized on coordinate triples is this nonzero trivector, so no "
            "correction at new_order exists with the given lower orders; others may extend"
        )
    return payload


DISPATCH = {
    "check-poisson": cmd_check_poisson,
    "assoc-check": cmd_assoc_check,
    "commutator-table": cmd_commutator_table,
    "obstruction": cmd_obstruction,
    "eliminate": cmd_eliminate,
    "extend-star": cmd_extend_star,
}
COMMANDS = tuple(DISPATCH)


def run_command(problem: Problem, command: str, order: int | None) -> dict:
    if command not in DISPATCH:
        raise ProblemError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    result = DISPATCH[command](problem, order)
    return {
        "command": command,
        "conventions": CONVENTIONS,
        "problem": problem_payload(problem),
        "seed": problem.seed,
        "result": result,
    }


def render_report(report: dict) -> str:
    """The report as JSON text: the bytes of json.dumps(report, indent=2,
    sort_keys=True) and a trailing newline.

    The stdlib encoder runs in pure Python when given an indent, so the
    layout is written here instead, escaping strings with the C escaper
    that encoder uses.  Values are dicts with str keys, lists, str, int,
    bool and None; anything else raises TypeError.
    """
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append `value` to `out`; `newline` is a line break and the indent it sits at."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        for item in value:
            if type(item) is not int:  # a bool is not a plain int
                break
        else:
            # a list of plain ints (a multi-index, mostly) in one join, with no call per item
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"cannot render a {type(value).__name__} in a report")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every later
    call in the process; parsing keeps no state in it."""
    parser = argparse.ArgumentParser(
        prog="starobs",
        description=(
            "Exact workbench for truncated star products: associativity "
            "checks, commutator tables, obstruction classes and the "
            "order-by-order trivialization of a commutative subalgebra."
        ),
    )
    parser.add_argument("--problem", required=True, help="path to the JSON problem file")
    parser.add_argument("--command", help="command to run (overrides the problem file)")
    parser.add_argument("--order", type=int, help="target order for order-aware commands")
    parser.add_argument("--degree-bound", type=int, help="polynomial degree cap for solvers")
    parser.add_argument("--op-order-bound", type=int, help="operator order cap for solvers")
    parser.add_argument("--seed", type=int, help="seed recorded in the report")
    parser.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        problem = load_problem(args.problem)
        if args.seed is not None:
            problem.seed = args.seed
        if args.degree_bound is not None or args.op_order_bound is not None:
            problem.bounds = Bounds(
                degree=problem.bounds.degree
                if args.degree_bound is None
                else _integer(args.degree_bound, "--degree-bound", 0),
                op_order=problem.bounds.op_order
                if args.op_order_bound is None
                else _integer(args.op_order_bound, "--op-order-bound", 0),
            )
        command = args.command or problem.command
        if command is None:
            raise ProblemError("no command given (use --command or a 'command' problem entry)")
        order = problem.order if args.order is None else _integer(args.order, "--order", 1)
        report = run_command(problem, command, order)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal check failure: {exc}", file=sys.stderr)
        return 2
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(render_report(report))
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        summary = report["result"].get("status", "done")
        print(f"{command}: {summary} -> {args.out}")
    else:
        sys.stdout.write(render_report(report))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
