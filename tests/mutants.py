"""The kill list: source mutations that the named tests must catch.

Run from anywhere with ``python tests/mutants.py``.  The runner copies
``src/`` to a temporary directory and first runs every named test once on
the unmodified copy; they must all pass.  Then it applies one mutant at a
time to the copy (one exact source fragment replaced) and runs only that
mutant's tests in one child process, ``python -m pytest -q -x <tests>``
with ``PYTHONPATH`` (and pytest's ``pythonpath`` setting) on the copy, one
child at a time.  A mutant is killed when its child exits nonzero.  A
fragment that does not occur exactly once in its file is an error, not a
skip, so a change that rewrites mutated code restates its mutants.

The exit status is 0 only when every mutant is killed.  The file is not
collected by pytest and uses only the standard library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # under src/starobs
    fragment: str
    replacement: str
    tests: tuple[str, ...]


FACTORED = "tests/test_factored_ansatz.py::"
RESTRICTED = "tests/test_restricted_table.py::"
LINSOLVE = "tests/test_linsolve.py::"
TERM_MAPS = "tests/test_star.py::"
KERNELS = "tests/test_properties.py::"

MUTANTS = [
    # the unary gauge solve on generator monomials
    Mutant(
        "unary rows stop at degree max(order, K), without the + 1",
        "obstruction.py",
        "    degree = max(target.order(), bounds.op_order) + 1\n",
        "    degree = max(target.order(), bounds.op_order)\n",
        (FACTORED + "test_unary_correction_matches_pair_reference_on_random_planted_products",),
    ),
    Mutant(
        "unary solve without the antisymmetric-part guard",
        "obstruction.py",
        "    if not chi.is_zero():\n        return None\n",
        "",
        (FACTORED + "test_unary_correction_is_none_on_an_antisymmetric_part",),
    ),
    Mutant(
        "the staged step reuses the loop's class",
        "obstruction.py",
        "        chi = _raw_class(staged, system, n)\n",
        "",
        ("tests/test_obstruction.py::test_gauge_step_removable_post_condition",),
    ),
    Mutant(
        "phi0(1) = +B(1, 1)",
        "obstruction.py",
        "phi0 = {one: {mono: -c for mono, c in",
        "phi0 = {one: {mono: c for mono, c in",
        (FACTORED + "test_unary_correction_matches_pair_reference_on_random_planted_products",),
    ),
    # the graded extension solve and its decision
    Mutant(
        "extension caps |a|, |b| below the bound, not at it",
        "star.py",
        "if max(map(sum, key)) <= bound)",
        "if max(map(sum, key)) < bound)",
        (FACTORED + "test_extension_keys_match_the_replaced_key_filter",),
    ),
    Mutant(
        "extension's first solve at K_T - 1",
        "star.py",
        "    particular = _solve_columns(dim, terms, live, slot_order)\n",
        "    particular = _solve_columns(dim, terms, live, slot_order - 1)\n",
        (FACTORED + "test_extension_keys_match_the_replaced_key_filter",),
    ),
    Mutant(
        "extension keeps none of the target's weight blocks",
        "star.py",
        "for w in set(live.values())",
        "for w in set()",
        (FACTORED + "test_extension_matches_reference_solve",),
    ),
    Mutant(
        "extension solves without the target's unreached keys",
        "star.py",
        "    if not all(k in matrix for k in live):\n        return None\n",
        "",
        (TERM_MAPS + "test_a_target_beyond_the_slot_order_subcomplex_solves_over_every_split",),
    ),
    Mutant(
        "a zero trivector reported as no extension, the second solve skipped",
        "star.py",
        "    if not trivector.is_zero():\n",
        "    if True:\n",
        (TERM_MAPS + "test_a_target_beyond_the_slot_order_subcomplex_solves_over_every_split",),
    ),
    Mutant(
        "the trivector drops the sign of one ordering: three inversions signed as even",
        "multivec.py",
        "-1 if inversions % 2 else 1",
        "-1 if inversions == 1 else 1",
        (KERNELS + "test_the_trivector_of_a_coboundary_is_zero",),
    ),
    Mutant(
        "extension solution entries not divided by the target's denominator",
        "star.py",
        "_ratio(v, terms.den)",
        "_ratio(v, 1)",
        (FACTORED + "test_extension_divides_the_integer_solution_by_the_targets_denominator",),
    ),
    Mutant(
        "extension post-check never fires",
        "star.py",
        "    if any(terms.values()):\n",
        "    if False:\n",
        ("tests/test_star.py::test_extension_post_check_catches_a_perturbed_solve",),
    ),
    # the cached parser, the JSON writer and the one-map gauge transform
    Mutant(
        "every main call parses into one shared namespace",
        "cli.py",
        "    args = build_parser().parse_args(argv)\n",
        "    args = build_parser().parse_args(argv, namespace=build_parser())\n",
        ("tests/test_cli.py::test_main_reuses_its_parser_without_carrying_flags_over",),
    ),
    Mutant(
        "report strings escaped without ASCII",
        "cli.py",
        "from json.encoder import encode_basestring_ascii\n",
        "from json.encoder import encode_basestring as encode_basestring_ascii\n",
        ("tests/test_properties.py::test_render_report_matches_the_stdlib_encoder",),
    ),
    Mutant(
        "an empty list written over two lines",
        "cli.py",
        '            out.append("[]")\n',
        '            out.append("[" + newline + "]")\n',
        ("tests/test_golden.py::test_golden_text_is_a_render_report_fixed_point",),
    ),
    Mutant(
        "a bool joined into a list of ints as an int",
        "cli.py",
        "            if type(item) is not int:  # a bool is not a plain int\n",
        "            if not isinstance(item, int):\n",
        ("tests/test_properties.py::test_render_report_matches_the_stdlib_encoder",),
    ),
    Mutant(
        "a zero D_k taken for the identity",
        "polydiff.py",
        "        if inner.arity == 1 and inner._store == (1, {(z,): {z: 1}}):\n",
        "        if inner.is_zero():\n"
        "            return self\n"
        "        if inner.arity == 1 and inner._store == (1, {(z,): {z: 1}}):\n",
        (
            "tests/test_star.py::"
            "test_gauge_transform_at_order_four_with_zero_diffeo_terms_matches_reference",
        ),
    ),
    # the factored unary rows and the restricted tables
    Mutant(
        "unary rows without the e-shift",
        "obstruction.py",
        "eqs._add_shifted(alpha, w, e, (e, (a,)))",
        "eqs._add_shifted(alpha, w, (0,) * len(e), (e, (a,)))",
        (FACTORED + "test_unary_rows_match_per_column_reference_on_planted_product",),
    ),
    Mutant(
        "restricted values multiply each factor on the left",
        "polydiff.py",
        "step.append((key, _product(v, d)))",
        "step.append((key, _product(d, v)))",
        (RESTRICTED + "test_table_matches_per_tuple_reference_on_polynomial_generators",),
    ),
    # per-system generator tables and the one-map associator
    Mutant(
        "associator adds the slot-1 insertions with a plus sign",
        "star.py",
        "outer._compose_into(terms, 1, inner, -1)",
        "outer._compose_into(terms, 1, inner, 1)",
        ("tests/test_star.py::test_associator_matches_compose_then_merge_reference",),
    ),
    # the residual as the middle insertions minus dB_n
    Mutant(
        "residual adds dB_n with a plus sign",
        "star.py",
        "_differential_into(terms, self.term(n), -1)",
        "_differential_into(terms, self.term(n), 1)",
        ("tests/test_star.py::test_residual_matches_compose_then_merge_reference",),
    ),
    Mutant(
        "residual composes from k = 0, counting m o B_n twice",
        "star.py",
        "terms = self._insertions(n, range(1, n), _TermMap())",
        "terms = self._insertions(n, range(0, n), _TermMap())",
        ("tests/test_star.py::test_residual_matches_compose_then_merge_reference",),
    ),
    Mutant(
        "compose_diffeo skips k = 0",
        "star.py",
        "        for k in range(n + 1):\n            D.term(k)._compose_into(",
        "        for k in range(1, n + 1):\n            D.term(k)._compose_into(",
        (KERNELS + "test_compose_diffeo_matches_the_replaced_sum_loop",),
    ),
    Mutant(
        "unary columns skip the d^0 multi-index",
        "obstruction.py",
        "if sum(a) != 1 and used",
        "if sum(a) > 1 and used",
        (
            FACTORED
            + "test_unary_rows_match_reference_in_order_with_derivation_and_constant_columns",
        ),
    ),
    Mutant(
        "generator table keeps no derivative",
        "polydiff.py",
        "        self[key] = p\n",
        "",
        (RESTRICTED + "test_restricted_walks_share_the_systems_derivatives",),
    ),
    # the loader's one-map merge, the Moyal weights and the cascade witness
    Mutant(
        "op_from_payload overwrites a repeated key",
        "cli.py",
        "        acc = terms.setdefault(tuple(derivs), {})\n",
        "        acc = terms[tuple(derivs)] = {}\n",
        ("tests/test_cli.py::test_op_from_payload_matches_the_term_by_term_sum",),
    ),
    Mutant(
        "op_from_payload keeps a key whose sum cancels",
        "cli.py",
        "        if not acc:\n            del terms[tuple(derivs)]\n",
        "",
        ("tests/test_cli.py::test_op_from_payload_matches_the_term_by_term_sum",),
    ),
    Mutant(
        "moyal_star without the multiset weight",
        "star.py",
        "            for t in set(combo):\n                weight //= math.factorial(combo.count(t))\n",
        "",
        ("tests/test_star.py::test_moyal_matches_ordered_tuple_reference",),
    ),
    Mutant(
        "moyal_star drops the 2^k from each order's denominator",
        "star.py",
        "terms.den = 2**k * math.factorial(k) * L**k",
        "terms.den = math.factorial(k) * L**k",
        ("tests/test_star.py::test_moyal_stores_match_the_fraction_builder",),
    ),
    Mutant(
        "cascade witness is the last nonzero key",
        "obstruction.py",
        "next((key for key, value in table.items() if value.terms), None)",
        "next((key for key, value in reversed(table.items()) if value.terms), None)",
        (RESTRICTED + "test_cascade_witness_is_first_nonzero_reference_key",),
    ),
    # the shared truncated series base
    Mutant(
        "series equality across series types",
        "star.py",
        "        if type(other) is not type(self):\n",
        "        if not isinstance(other, _OperatorSeries):\n",
        ("tests/test_star.py::test_series_equality_is_type_exact",),
    ),
    # results that store only what their solver found: solved is derived
    Mutant(
        "an exactness result without a witness counts as solved",
        "obstruction.py",
        "        return self.witness is not None\n",
        "        return True\n",
        ("tests/test_obstruction.py::test_eliminate_undecided_when_bounds_exhausted",),
    ),
    Mutant(
        "a gauge step without a diffeo counts as solved",
        "obstruction.py",
        "        return self.diffeo is not None\n",
        "        return True\n",
        ("tests/test_cli.py::test_first_order_undecided_records_its_gauge_step",),
    ),
    Mutant(
        "an extension without a particular solution counts as solved",
        "star.py",
        "        return self.particular is not None\n",
        "        return True\n",
        (TERM_MAPS + "test_extension_of_a_non_poisson_bracket_is_refused_with_its_trivector",),
    ),
    # the integer elimination
    Mutant(
        "the earlier row is not scaled by p/g before back-elimination",
        "linsolve.py",
        "                _multiplied(prow, m)\n                _multiplied(bpr, m)\n",
        "                pass\n",
        (LINSOLVE + "test_matches_the_fraction_solver",),
    ),
    Mutant(
        "the readout ignores the pivot value",
        "linsolve.py",
        "solutions.setdefault(k, {})[pc] = _ratio(v, p)",
        "solutions.setdefault(k, {})[pc] = v",
        (LINSOLVE + "test_matches_the_fraction_solver",),
    ),
    Mutant(
        "an inconsistent row's residual is left on the integer scale",
        "linsolve.py",
        "residual = {k: _ratio(x, scale) for k, x in br.items()}",
        "residual = {k: x for k, x in br.items()}",
        (LINSOLVE + "test_matches_the_fraction_solver",),
    ),
    # the operator lift, the class from ordered pairs and the parser's operation caps
    Mutant(
        "lift columns on the wrong unit multi-index",
        "obstruction.py",
        "    units = [unit_exponents(dim, k) for k in range(dim)]\n",
        "    units = [unit_exponents(dim, dim - 1 - k) for k in range(dim)]\n",
        ("tests/test_obstruction.py::test_lift_matches_the_vector_field_reference",),
    ),
    Mutant(
        "class read on unordered pairs, with no antisymmetrization",
        "obstruction.py",
        "[units, units])\n",
        "[units, units]) if units[u] < units[v]\n",
        (
            "tests/test_obstruction.py::"
            "test_class_is_the_antisymmetrized_operator_on_generator_pairs",
        ),
    ),
    Mutant(
        "class read on unordered pairs, against the verdicts of gauged products",
        "obstruction.py",
        "[units, units])\n",
        "[units, units]) if units[u] < units[v]\n",
        ("tests/test_gauge_invariance.py::test_verdicts_agree_across_random_gauges",),
    ),
    Mutant(
        "no coefficient check after '*'",
        "poly.py",
        '            result = self.checked(_product(result, self.factor()), at, "product")\n',
        "            result = _product(result, self.factor())\n",
        (
            "tests/test_poly.py::"
            "test_parse_rejects_a_sum_or_product_no_report_can_print_at_its_operator",
        ),
    ),
    Mutant(
        "no coefficient check after '+' or '-'",
        "poly.py",
        '            self.checked(result, at, "sum")\n',
        "",
        (KERNELS + "test_parser_matches_the_replaced_polynomial_parser",),
    ),
    Mutant(
        "the unknown-name error points at the name's start",
        "poly.py",
        "                    at + len(text), f\"unknown variable",
        "                    at, f\"unknown variable",
        ("tests/test_poly.py::test_parse_error_quotes_a_window_around_the_position",),
    ),
    Mutant(
        "the nesting error points at its '('",
        "poly.py",
        "self.error(at + 1, f\"parentheses nested deeper",
        "self.error(at, f\"parentheses nested deeper",
        (
            "tests/test_cli.py::"
            "test_malformed_input_exits_1_naming_the_field[generator-nested-deep]",
        ),
    ),
    Mutant(
        "the zero-denominator error points at the denominator's start",
        "poly.py",
        'self.error(at + len(text), "zero denominator")',
        'self.error(at, "zero denominator")',
        (KERNELS + "test_parser_matches_the_replaced_polynomial_parser",),
    ),
    Mutant(
        "a difference parsed as a sum",
        "poly.py",
        '_add_into(result, self.term(), 1 if op == "+" else -1)',
        "_add_into(result, self.term())",
        (KERNELS + "test_parser_matches_the_replaced_polynomial_parser",),
    ),
    # integer term maps over one denominator per map
    Mutant(
        "a term map is not rescaled when a new denominator does not divide its own",
        "polydiff.py",
        "        if self.den % den:\n",
        "        if False:\n",
        (TERM_MAPS + "test_term_map_rescales_when_a_new_denominator_arrives",),
    ),
    Mutant(
        "a rescaled term map keeps its old entries' numerators",
        "polydiff.py",
        "                _multiplied(acc, factor)\n",
        "                _multiplied(acc, 1)\n",
        (TERM_MAPS + "test_term_map_rescales_when_a_new_denominator_arrives",),
    ),
    Mutant(
        "_from_term_map ignores the map's denominator",
        "polydiff.py",
        "        den = terms.den\n",
        "        den = 1\n",
        (TERM_MAPS + "test_term_maps_match_the_fraction_kernels",),
    ),
    Mutant(
        "_from_term_map skips the gcd reduction",
        "polydiff.py",
        "        common = math.gcd(den, ",
        "        common = 1 or math.gcd(den, ",
        ("tests/test_polydiff.py::test_an_unreduced_term_map_gives_the_canonical_operator",),
    ),
    Mutant(
        "an operator's numerators are not brought to its common denominator",
        "poly.py",
        "x.numerator * (scale // x.denominator)",
        "x.numerator",
        (TERM_MAPS + "test_term_map_rescales_when_a_new_denominator_arrives",),
    ),
    Mutant(
        "integer derivatives weigh each exponent by a binomial, not a falling factorial",
        "poly.py",
        "v *= math.perm(mono[k], g)",
        "v *= math.comb(mono[k], g)",
        (TERM_MAPS + "test_term_maps_match_the_fraction_kernels",),
    ),
    # evaluations on generator monomials from the raw table, in numerators
    Mutant(
        "restricted values are not divided by the operator's denominator",
        "polydiff.py",
        "(exps, Polynomial._trusted(op.dim, _divided(value, den)))",
        "(exps, Polynomial._trusted(op.dim, value))",
        ("tests/test_raw_table.py::test_restricted_stream_matches_the_polynomial_walk",),
    ),
    Mutant(
        "unary right-hand sides are not divided by the target's denominator",
        "obstruction.py",
        "for mono, c in _divided(phi0[alpha], den).items():",
        "for mono, c in phi0[alpha].items():",
        ("tests/test_raw_table.py::test_unary_rows_match_the_polynomial_rows",),
    ),
    Mutant(
        "class reads B_n(f_j, f_i) for component (i, j)",
        "obstruction.py",
        "(units[u], units[v]): ",
        "(units[v], units[u]): ",
        (
            "tests/test_obstruction.py::"
            "test_class_is_the_antisymmetrized_operator_on_generator_pairs",
        ),
    ),
    Mutant(
        "lift shifts d_k f_j one step past x^e",
        "obstruction.py",
        "eqs._add_shifted(j, d, e, (e, (u,)))",
        "eqs._add_shifted(j, d, e[:-1] + (e[-1] + 1,), (e, (u,)))",
        ("tests/test_obstruction.py::test_lift_matches_the_vector_field_reference",),
    ),
    Mutant(
        "apply does not divide by the operator's denominator",
        "polydiff.py",
        "_divided(value, den * table.scale)",
        "_divided(value, table.scale)",
        (KERNELS + "test_apply_matches_the_replaced_term_loop",),
    ),
    Mutant(
        "apply keeps only the last argument's scale",
        "polydiff.py",
        "            self.scale *= s\n",
        "            self.scale = s\n",
        (KERNELS + "test_apply_matches_the_replaced_term_loop",),
    ),
    Mutant(
        "apply reads every slot's derivative from the first argument",
        "polydiff.py",
        "_partial(self.args[k], a)",
        "_partial(self.args[0], a)",
        (KERNELS + "test_apply_matches_the_replaced_term_loop",),
    ),
    # one loop per sparse-dict operation, in poly
    Mutant(
        "a dict sum drops its factor",
        "poly.py",
        "            _accumulate(acc, key, v * factor)\n",
        "            _accumulate(acc, key, v)\n",
        (KERNELS + "test_the_shared_kernels_match_the_loops_they_replaced",),
    ),
    Mutant(
        "a dict product keeps the last of the terms that meet on a monomial",
        "poly.py",
        "            _accumulate(out, add_exponents(e1, e2), c1 * c2)\n",
        "            out[add_exponents(e1, e2)] = c1 * c2\n",
        (KERNELS + "test_the_shared_kernels_match_the_loops_they_replaced",),
    ),
    Mutant(
        "a dict scaling in place multiplies by nothing",
        "poly.py",
        "            t[mono] = v * m\n",
        "            pass\n",
        (KERNELS + "test_the_shared_kernels_match_the_loops_they_replaced",),
    ),
    Mutant(
        "a Poisson bracket passes g's gradient before f's",
        "multivec.py",
        "_bracket(pi, df, dg))",
        "_bracket(pi, dg, df))",
        (KERNELS + "test_poisson_bracket_matches_the_replaced_polynomial_loop",),
    ),
    # one bracket formula, one solver read-out, one determinant on J's dicts
    Mutant(
        "the bracket formula adds d_j f d_i g instead of subtracting it",
        "multivec.py",
        "_add_into(term, _product(df[j], dg[i]), -1)",
        "_add_into(term, _product(df[j], dg[i]))",
        (
            "tests/test_obstruction.py::"
            "test_jacobian_and_hamiltonian_tables_match_partial_and_poisson_bracket",
        ),
    ),
    Mutant(
        "the solve read-out swaps monomial and key",
        "linsolve.py",
        "            mono, key = self.columns[ci]\n",
        "            key, mono = self.columns[ci]\n",
        (LINSOLVE + "test_sparse_system_solution_keyed_by_label_and_nullspace_by_column",),
    ),
    Mutant(
        "a determinant without the cofactor sign",
        "obstruction.py",
        "_det(minor)), -1 if c % 2 else 1)",
        "_det(minor)), 1)",
        (KERNELS + "test_det_matches_the_replaced_polynomial_cofactor_expansion",),
    ),
    # one shifted-row entry for the exactness, lift and unary solves
    Mutant(
        "a shifted row drops its factor",
        "linsolve.py",
        "ci, v * factor)",
        "ci, v)",
        ("tests/test_raw_table.py::test_exactness_matches_the_monomial_bracket_solve",),
    ),
    # one weight-block selector for the graded solves
    Mutant(
        "unary columns pair a by weight(a), not -weight(a)",
        "obstruction.py",
        "[(a, tuple(-w for w in weights[a])) for a in",
        "[(a, weights[a]) for a in",
        (FACTORED + "test_rotation_momenta_columns_match_the_replaced_weight_filter",),
    ),
    # per-system tables and no Leibniz work on zero or constant operands
    Mutant(
        "the Hamiltonian table brackets x_k with f_j, not f_j with x_k",
        "obstruction.py",
        "_bracket(system.pi, row, u)",
        "_bracket(system.pi, u, row)",
        (
            "tests/test_obstruction.py::"
            "test_jacobian_and_hamiltonian_tables_match_partial_and_poisson_bracket",
        ),
    ),
    Mutant(
        "the exactness rows skip a nonempty H entry",
        "obstruction.py",
        "                    if H[i][k]:\n",
        "                    if H[i][k] and k:\n",
        ("tests/test_raw_table.py::test_exactness_matches_the_monomial_bracket_solve",),
    ),
    Mutant(
        "the lift rows skip a nonempty J entry",
        "obstruction.py",
        "            if d:\n",
        "            if d and u != units[0]:\n",
        ("tests/test_obstruction.py::test_lift_matches_the_vector_field_reference",),
    ),
    Mutant(
        "the constant shortcut taken for a coefficient with a constant term",
        "polydiff.py",
        "len(c_in) == 1 and z in c_in, not any",
        "z in c_in, not any",
        (
            TERM_MAPS
            + "test_compose_into_matches_the_reference_on_zero_operators_and_constant_coefficients",
        ),
    ),
    # composition without shifting by zero
    Mutant(
        "the zero-key path taken for a key with one zero slot",
        "polydiff.py",
        "not any(map(any, in_key)))",
        "not all(map(any, in_key)))",
        (
            TERM_MAPS
            + "test_compose_into_matches_the_reference_on_zero_keys_with_polynomial_coefficients",
        ),
    ),
    Mutant(
        "the inner key kept for a rest that is zero in its first coordinate only",
        "polydiff.py",
        "                    if any(rest):\n",
        "                    if rest[0]:\n",
        (
            TERM_MAPS
            + "test_compose_into_matches_the_reference_on_zero_keys_with_polynomial_coefficients",
        ),
    ),
    # the Hochschild differential from proper splits, one row per pinned column
    Mutant(
        "a later one-entry row of a pinned column dropped without the cross-check",
        "star.py",
        "                if {e: x * v0 for e, x in t.items()}"
        " != {e: x * v for e, x in t0.items()}:\n"
        "                    return None\n",
        "",
        (FACTORED + "test_solve_columns_refuses_a_perturbed_target_like_the_all_rows_reference",),
    ),
    Mutant(
        "the zero-slot term's sign flipped",
        "polydiff.py",
        "head + (z, z) + tail, -sign)",
        "head + (z, z) + tail, sign)",
        (FACTORED + "test_key_differential_matches_the_boundary_term_loop",),
    ),
    Mutant(
        "the trailing zero run handled in slot order",
        "polydiff.py",
        "itertools.chain(range(last + 1, k + 1), range(1, last + 1))",
        "range(1, k + 1)",
        (FACTORED + "test_key_differential_matches_the_boundary_term_loop",),
    ),
    Mutant(
        "the improper split beta = a_j kept",
        "polydiff.py",
        "leibniz[1:-1]",
        "leibniz[1:]",
        (FACTORED + "test_key_differential_matches_the_boundary_term_loop",),
    ),
    # one alternating rule and one grading class
    Mutant(
        "sort_with_sign's parity inverted",
        "multivec.py",
        "-1 if inversions % 2 else 1",
        "1 if inversions % 2 else -1",
        ("tests/test_multivec.py::test_sort_with_sign_matches_the_insertion_sort",),
    ),
    Mutant(
        "sort_with_sign signs a repeated index",
        "multivec.py",
        "    if any(a == b for a, b in zip(key, key[1:])):\n        return key, 0\n",
        "",
        ("tests/test_multivec.py::test_sort_with_sign_matches_the_insertion_sort",),
    ),
    Mutant(
        "d_hor enters idx + (i,), not (i,) + idx",
        "multivec.py",
        "(i,) + idx: poisson_bracket",
        "idx + (i,): poisson_bracket",
        ("tests/test_obstruction.py::test_d_hor_matches_the_sort_and_accumulate_loop",),
    ),
    Mutant(
        "the trivector's values left undivided",
        "star.py",
        "_divided(v, terms.den)) for perm, v in values",
        "_divided(v, 1)) for perm, v in values",
        (TERM_MAPS + "test_trivector_matches_the_sign_table_loop_on_random_targets",),
    ),
    Mutant(
        "the weight table weighs by the first basis vector only",
        "obstruction.py",
        "for vec in self.basis)",
        "for vec in self.basis[:1])",
        (FACTORED + "test_weight_map_grades_by_the_scalings_that_keep_generators_homogeneous",),
    ),
    # the unary columns are those that enter a row; zero image decides order 2 only
    Mutant(
        "unary columns keep the derivations d^a, |a| = 1",
        "obstruction.py",
        "if sum(a) != 1 and used.issuperset",
        "if used.issuperset",
        (FACTORED + "test_random_planted_unary_columns_are_those_that_enter_a_row",),
    ),
    Mutant(
        "unary columns keep a d^a through a coordinate no generator holds",
        "obstruction.py",
        " and used.issuperset(k for k, x in enumerate(a) if x)]",
        "]",
        (FACTORED + "test_unary_columns_are_those_that_enter_a_row",),
    ),
    Mutant(
        "zero image claims OBSTRUCTED at every order",
        "obstruction.py",
        "                if n == 2:  # the order-2 class",
        "                if n >= 2:  # the order-2 class",
        (
            "tests/test_gauge_invariance.py::"
            "test_a_zero_image_class_at_order_three_that_a_gauge_removes_is_not_obstructed",
        ),
    ),
]


def mutated(mutant: Mutant) -> str:
    """The mutant's file with its fragment replaced; ValueError unless it occurs once."""
    text = (ROOT / "src" / "starobs" / mutant.file).read_text()
    count = text.count(mutant.fragment)
    if count != 1:
        raise ValueError(f"{mutant.name}: fragment occurs {count} times in {mutant.file}")
    return text.replace(mutant.fragment, mutant.replacement)


def run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """Exit status of one pytest child on `tests` that imports starobs from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    command += ["-o", f"pythonpath={src}", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    texts = [mutated(m) for m in MUTANTS]  # every fragment is checked before any run
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        if run_tests(src, named):
            print("the named tests fail on the unmodified source", file=sys.stderr)
            return 1
        survivors = []
        for mutant, text in zip(MUTANTS, texts):
            path = src / "starobs" / mutant.file
            original = path.read_text()
            path.write_text(text)
            try:
                killed = run_tests(src, mutant.tests) != 0
            finally:
                path.write_text(original)
            print(f"{'killed ' if killed else 'SURVIVED'}  {mutant.name}", flush=True)
            if not killed:
                survivors.append(mutant.name)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
