import copy
import functools
import json
import random
import time
from fractions import Fraction

import pytest
from golden.regenerate import PROBLEMS, expected_path, run_cli
from helpers import (
    canonical_pi2,
    rand_op,
    reference_extend_one_order,
    reference_op_from_payload,
    reference_render_report,
    reference_residual_witness,
    removable_scenario,
    trivial_star,
)

from starobs import FormalDiffeo, PolyDiffOp, gauge_transform, moyal_star
from starobs.cli import (
    ProblemError,
    _residual_witness,
    load_problem_data,
    main,
    op_from_payload,
    op_payload,
    problem_payload,
    render_report,
    run_command,
    star_payload,
)

CANONICAL_PLANE = {
    "dimension": 2,
    "coordinates": ["x", "p"],
    "poisson": [[1, 2, "1"]],
    "star": {"type": "moyal", "order": 2},
    "generators": ["p"],
    "bounds": {"degree": 2, "op_order": 2},
    "seed": 0,
}

REMOVABLE = {
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
    "seed": 7,
}

SO3 = {
    "dimension": 3,
    "coordinates": ["x", "y", "z"],
    "poisson": [[1, 2, "z"], [2, 3, "x"], [1, 3, "-y"]],
}

BAD_STAR = {
    "dimension": 1,
    "coordinates": ["x"],
    "poisson": [],
    "star": {
        "type": "terms",
        "order": 2,
        "terms": {"1": [{"coeff": "1", "derivs": [[1], [1]]}]},
    },
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# -- loading ---------------------------------------------------------------------


def test_load_canonical_problem():
    problem = load_problem_data(CANONICAL_PLANE)
    assert problem.dim == 2
    assert problem.star.order == 2
    assert len(problem.generators) == 1


def test_load_rejects_out_of_range_index():
    data = {"dimension": 2, "coordinates": ["x", "p"], "poisson": [[1, 5, "1"]]}
    with pytest.raises(ProblemError, match=r"poisson\[0\]"):
        load_problem_data(data)


def test_load_rejects_noncommuting_generators():
    data = dict(CANONICAL_PLANE, generators=["x", "p"])
    with pytest.raises(ProblemError, match="do not commute"):
        load_problem_data(data)


def test_load_rejects_unknown_variable_with_location():
    data = dict(CANONICAL_PLANE, generators=["q"])
    with pytest.raises(ProblemError, match=r"generators\[0\]"):
        load_problem_data(data)


def test_load_rejects_moyal_on_nonconstant_bivector():
    data = dict(SO3, star={"type": "moyal", "order": 2})
    with pytest.raises(ProblemError, match="constant"):
        load_problem_data(data)


@pytest.mark.parametrize(
    "path",
    [
        ("order",),
        ("seed",),
        ("command",),
        ("bounds",),
        ("bounds", "degree"),
        ("bounds", "op_order"),
        ("generators",),
        ("poisson",),
        ("star",),
        ("star", "terms"),
        ("star", "terms", "2"),
    ],
    ids=".".join,
)
def test_a_null_optional_field_loads_like_its_absent_field(path):
    given = dict(REMOVABLE, order=2, command="eliminate")
    null, absent = copy.deepcopy(given), copy.deepcopy(given)
    *outer, key = path
    functools.reduce(dict.get, outer, null)[key] = None
    del functools.reduce(dict.get, outer, absent)[key]
    loaded, want = load_problem_data(null), load_problem_data(absent)
    assert (problem_payload(loaded), loaded.order) == (problem_payload(want), want.order)


# -- commands --------------------------------------------------------------------


def test_check_poisson_rotation_algebra():
    report = run_command(load_problem_data(SO3), "check-poisson", None)
    assert report["result"]["poisson"] is True


def test_check_poisson_failure_reports_witness():
    data = {
        "dimension": 3,
        "coordinates": ["x", "y", "z"],
        "poisson": [[1, 2, "z"], [2, 3, "y"]],
    }
    report = run_command(load_problem_data(data), "check-poisson", None)
    assert report["result"]["poisson"] is False
    assert report["result"]["witness"] == {"(1,2,3)": "-2*z"}


def test_assoc_check_reports_witness_triple():
    report = run_command(load_problem_data(BAD_STAR), "assoc-check", None)
    residuals = report["result"]["residuals"]
    assert residuals[0]["zero"] is True
    assert residuals[1]["zero"] is False
    assert residuals[1]["witness"]["value"] != "0"
    assert report["result"]["certified_order"] == 1


def test_residual_witness_matches_reference_scan():
    rng = random.Random(61)
    residuals = [rand_op(rng, rng.choice([1, 2, 3]), 3, terms=3) for _ in range(80)]
    for _ in range(20):
        star = moyal_star(canonical_pi2(), 2).plus_term(2, rand_op(rng, 2, 2))
        residuals.append(star.assoc_residual(2))
    assert any(not res.is_zero() for res in residuals[80:])
    for res in residuals:
        names = ["x", "y", "z"][: res.dim]
        assert _residual_witness(res, names) == reference_residual_witness(res, names)


def test_residual_witness_of_high_slot_orders():
    # the capped scan gives up here after 200,000 evaluations
    res = PolyDiffOp.single(5, [(3, 0, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 3, 0, 0)])
    witness = _residual_witness(res, ["a", "b", "c", "d", "e"])
    assert witness == {"args": ["a^3", "b^3", "c^3"], "value": "216"}


def test_commutator_table():
    report = run_command(load_problem_data(CANONICAL_PLANE), "commutator-table", None)
    # a single generator has no pairs
    assert report["result"]["commutators"] == []
    rem = run_command(load_problem_data(REMOVABLE), "commutator-table", None)
    (entry,) = rem["result"]["commutators"]
    assert entry["pair"] == "(1,2)"
    assert entry["series"] == ["0", "0", "2"]


def test_obstruction_command():
    report = run_command(load_problem_data(REMOVABLE), "obstruction", 2)
    result = report["result"]
    assert result["class"] == {"(1,2)": "2"}
    assert result["class_closed"] is True
    assert result["exactness"]["status"] == "solved"


def test_eliminate_command_and_zero_class_serialization():
    report = run_command(load_problem_data(REMOVABLE), "eliminate", 2)
    result = report["result"]
    assert result["status"] == "TRIVIALIZED"
    assert result["classes"][0] == {}  # zero class is an empty map
    assert result["classes"][1] == {"(1,2)": "2"}


def test_extend_star_command():
    # the next correction of the order-2 exponential product needs third-order
    # operators; the bounds, which eliminate uses, do not change the candidate
    results = []
    for op_order in (3, 2):
        data = dict(CANONICAL_PLANE, bounds={"degree": 0, "op_order": op_order})
        result = run_command(load_problem_data(data), "extend-star", None)["result"]
        assert result["status"] == "solved"
        assert result["new_order"] == 3
        assert "trivector" not in result
        results.append(result)
    assert results[0]["candidate"] == results[1]["candidate"]


def half_bracket_terms(entries):
    """An order-1 'terms' star B_1 = pi/2 from [(i, j, coefficient)], 1-based."""
    terms = []
    for i, j, coeff in entries:
        a, b = ([int(k == m) for k in (1, 2, 3)] for m in (i, j))
        terms.append({"coeff": f"1/2*{coeff}", "derivs": [a, b]})
        terms.append({"coeff": f"-1/2*{coeff}", "derivs": [b, a]})
    return {"type": "terms", "order": 1, "terms": {"1": terms}}


def test_extend_star_reports_no_extension_with_its_trivector():
    # x dx^dy + y dy^dz is not Poisson, and B_1 = pi/2 has no order-2 correction
    entries = [(1, 2, "x"), (2, 3, "y")]
    data = dict(SO3, poisson=[list(e) for e in entries], star=half_bracket_terms(entries))
    result = run_command(load_problem_data(data), "extend-star", None)["result"]
    assert result["status"] == "no_extension"
    assert result["new_order"] == 2
    assert result["trivector"] == {"(1,2,3)": "-x"}
    assert "given lower orders" in result["scope"]
    assert "candidate" not in result


def test_unknown_command_rejected():
    with pytest.raises(ProblemError, match="unknown command"):
        run_command(load_problem_data(SO3), "frobnicate", None)


# -- round trips --------------------------------------------------------------------


def test_problem_payload_fixed_point():
    problem = load_problem_data(REMOVABLE)
    payload = problem_payload(problem)
    again = problem_payload(load_problem_data(payload))
    assert payload == again
    assert json.dumps(payload, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_reported_gauge_reproduces_reported_star():
    problem = load_problem_data(REMOVABLE)
    report = run_command(problem, "eliminate", 2)
    result = report["result"]
    gauge_terms = result["gauge"]["terms"]
    gauge = FormalDiffeo(
        3, 2, [op_from_payload(3, 1, gauge_terms[str(k)], problem.names) for k in (1, 2)]
    )
    star_in, _system = removable_scenario()
    transformed = gauge_transform(star_in, gauge)
    reported_terms = result["star"]["terms"]
    for k in (1, 2):
        rebuilt = op_from_payload(3, 2, reported_terms[str(k)], problem.names)
        assert rebuilt == transformed.term(k)


def test_op_from_payload_matches_the_term_by_term_sum():
    # repeated keys, keys that cancel (and come back after cancelling), zero
    # coefficients: the same operator, term order included, as one sum per term
    rng = random.Random(19)
    names = ["x", "p"]
    coeffs = ["1", "-1", "1/2", "-1/2", "0", "x", "-x", "x*p - 1", "p^2"]
    for _ in range(200):
        arity = rng.randint(0, 2)
        payload = [
            {
                "coeff": rng.choice(coeffs),
                "derivs": [[rng.randint(0, 1), rng.randint(0, 1)] for _ in range(arity)],
            }
            for _ in range(rng.randint(0, 8))
        ]
        got = op_from_payload(2, arity, payload, names)
        want = reference_op_from_payload(2, arity, payload, names)
        assert got == want
        assert list(got.terms.items()) == list(want.terms.items())
    cancelling = [
        {"coeff": "x", "derivs": [[1, 0]]},
        {"coeff": "p", "derivs": [[0, 1]]},
        {"coeff": "-x", "derivs": [[1, 0]]},
        {"coeff": "2", "derivs": [[1, 0]]},
    ]
    op = op_from_payload(2, 1, cancelling, names)
    assert list(op.terms) == [((0, 1),), ((1, 0),)]
    assert list(op.terms.items()) == list(reference_op_from_payload(2, 1, cancelling, names).terms.items())


@pytest.mark.parametrize(
    "payload",
    [
        [7],
        [{"coeff": "1", "derivs": [[0, 0]]}, {"coeff": "x +", "derivs": [[0, 0]]}],
        [{"coeff": "1", "derivs": "no"}],
        [{"coeff": "1", "derivs": [[0, 0], [0, 0]]}],
        [{"coeff": "1", "derivs": [[0]]}],
        [{"coeff": "1", "derivs": [[0, -1]]}],
        [{"coeff": "1", "derivs": [[0, True]]}],
        [{"derivs": [[0, 0]]}],
    ],
)
def test_op_from_payload_errors_match_the_term_by_term_sum(payload):
    with pytest.raises(ProblemError) as got:
        op_from_payload(2, 1, payload, ["x", "p"], "star.terms.1")
    with pytest.raises(ProblemError) as want:
        reference_op_from_payload(2, 1, payload, ["x", "p"], "star.terms.1")
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("star.terms.1[")


def test_rationals_serialized_as_fraction_strings():
    # the problem echo renders the half-coefficients of the bracket terms
    report = run_command(load_problem_data(REMOVABLE), "assoc-check", None)
    text = render_report(report)
    assert '"coeff": "1/2"' in text


# -- the executable ------------------------------------------------------------------


def test_main_writes_identical_reports(tmp_path):
    problem = write(tmp_path, "problem.json", REMOVABLE)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["--problem", problem, "--command", "eliminate", "--order", "2", "--seed", "7", "--out", out1]) == 0
    assert main(["--problem", problem, "--command", "eliminate", "--order", "2", "--seed", "7", "--out", out2]) == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


def test_main_stdout_json(tmp_path, capsys):
    problem = write(tmp_path, "so3.json", SO3)
    assert main(["--problem", problem, "--command", "check-poisson"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["poisson"] is True


def test_main_exit_code_on_bad_input(tmp_path, capsys):
    problem = write(
        tmp_path, "bad.json", {"dimension": 2, "coordinates": ["x", "p"], "poisson": [[1, 9, "1"]]}
    )
    assert main(["--problem", problem, "--command", "check-poisson"]) == 1
    assert "poisson[0]" in capsys.readouterr().err


def test_main_exit_code_on_missing_command(tmp_path, capsys):
    problem = write(tmp_path, "so3.json", SO3)
    assert main(["--problem", problem]) == 1


def test_main_seed_recorded(capsys):
    # the seed is echoed in the report and changes nothing else
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    problem = str(root / "problems" / "removable_class.json")
    reports = []
    for seed in ("7", "8"):
        assert main(["--problem", problem, "--command", "eliminate", "--seed", seed]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("seed") == report["problem"].pop("seed") == int(seed)
        reports.append(report)
    assert reports[0] == reports[1]


def test_report_text_is_a_json_fixed_point():
    # serialize -> parse -> serialize leaves a report byte-identical
    report = run_command(load_problem_data(REMOVABLE), "eliminate", 2)
    text = render_report(report)
    assert render_report(json.loads(text)) == text


@pytest.mark.parametrize(
    "report, message",
    [
        ({"result": {"coeff": Fraction(1, 2)}}, "cannot render a Fraction"),
        ({"result": [1, 2.5]}, "cannot render a float"),
        ({"result": (1, 2)}, "cannot render a tuple"),
        ({"classes": {1: "x"}}, "keys must be str, not int"),
        ({"classes": {("a",): "x"}}, "keys must be str, not tuple"),
    ],
)
def test_render_report_rejects_other_value_and_key_types(report, message):
    with pytest.raises(TypeError, match=message):
        render_report(report)


def test_render_report_layout():
    report = {
        "b": [],
        "a": {},
        "c": [True, False, None, -3, 2**70, "h\u00e9\"\\"],
        "d": {"z": 1, "y": [0]},
    }
    text = render_report(report)
    assert text == reference_render_report(report)
    assert text == (
        "{\n"
        '  "a": {},\n'
        '  "b": [],\n'
        '  "c": [\n'
        "    true,\n"
        "    false,\n"
        "    null,\n"
        "    -3,\n"
        "    1180591620717411303424,\n"
        '    "h\\u00e9\\"\\\\"\n'
        "  ],\n"
        '  "d": {\n'
        '    "y": [\n'
        "      0\n"
        "    ],\n"
        '    "z": 1\n'
        "  }\n"
        "}\n"
    )


def test_main_reuses_its_parser_without_carrying_flags_over(capsys):
    # flags of one call must not reach the next call in the same process
    problem = PROBLEMS / "removable_class.json"
    flags = ["--seed", "99", "--degree-bound", "0", "--op-order-bound", "0", "--order", "1"]
    assert main(["--problem", str(problem), "--command", "eliminate", *flags]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["seed"] == 99 and first["problem"]["bounds"]["degree"] == 0
    code, stdout, _ = run_cli(problem, "eliminate")
    assert code == 0
    assert stdout.encode("utf-8") == expected_path(problem, "eliminate", 0).read_bytes()


def test_parse_errors_repeat_identically(capsys):
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--command", "eliminate"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: starobs")
    assert "--problem" in errors[0]


def test_eliminate_obstructed_problem_exits_zero(tmp_path, capsys):
    problem = {
        "dimension": 4,
        "coordinates": ["x", "y", "z", "w"],
        "poisson": [[1, 2, "1"]],
        "star": {
            "type": "terms",
            "order": 2,
            "terms": {
                "1": [
                    {"coeff": "1/2", "derivs": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                    {"coeff": "-1/2", "derivs": [[0, 1, 0, 0], [1, 0, 0, 0]]},
                ],
                "2": [
                    {"coeff": "1/8", "derivs": [[2, 0, 0, 0], [0, 2, 0, 0]]},
                    {"coeff": "-1/4", "derivs": [[1, 1, 0, 0], [1, 1, 0, 0]]},
                    {"coeff": "1/8", "derivs": [[0, 2, 0, 0], [2, 0, 0, 0]]},
                    {"coeff": "1", "derivs": [[0, 0, 1, 0], [0, 0, 0, 1]]},
                    {"coeff": "-1", "derivs": [[0, 0, 0, 1], [0, 0, 1, 0]]},
                ],
            },
        },
        "generators": ["z", "w"],
        "bounds": {"degree": 2, "op_order": 2},
    }
    path = write(tmp_path, "obstructed.json", problem)
    assert main(["--problem", path, "--command", "eliminate", "--order", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["result"]["status"] == "OBSTRUCTED"
    assert data["result"]["classes"][1] == {"(1,2)": "2"}


def test_first_order_undecided_records_its_gauge_step(tmp_path, capsys):
    # a symmetric first-order term that survives on the subalgebra; the
    # (0,0) ansatz cannot remove it
    D = FormalDiffeo.from_parts(2, 2, {1: PolyDiffOp.single(2, [(2, 0)], Fraction(-1, 2))})
    star = gauge_transform(trivial_star(2, 2), D)
    data = dict(
        CANONICAL_PLANE,
        star={"type": "terms", **star_payload(star, ["x", "p"])},
        generators=["x"],
        bounds={"degree": 0, "op_order": 0},
    )
    path = write(tmp_path, "dirty.json", data)
    assert main(["--problem", path, "--command", "eliminate", "--order", "2"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "UNDECIDED" and result["order_reached"] == 1
    assert result["detail"] == "gauge step at order 1 exhausted the ansatz bounds"
    (record,) = result["records"]
    assert record["gauge_step"] == {"status": "undecided", "diffeo": None}


def test_obstruction_checks_each_lower_order_once(tmp_path, capsys, monkeypatch):
    import starobs.obstruction as obstruction

    original = obstruction.vanishes_on_generators
    calls = []

    def counting(op, system):
        calls.append(op)
        return original(op, system)

    monkeypatch.setattr(obstruction, "vanishes_on_generators", counting)
    data = dict(CANONICAL_PLANE, star={"type": "moyal", "order": 3})
    path = write(tmp_path, "plane.json", data)
    assert main(["--problem", path, "--command", "obstruction", "--order", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["class_zero"]
    assert len(calls) == 2  # orders 1 and 2


def test_eliminate_validates_the_system_once(capsys, monkeypatch):
    import pathlib

    import starobs.obstruction as obstruction

    original = obstruction.jacobi_check
    calls = []

    def counting(pi):
        calls.append(pi)
        return original(pi)

    monkeypatch.setattr(obstruction, "jacobi_check", counting)
    path = pathlib.Path(__file__).resolve().parent.parent / "problems" / "removable_class.json"
    assert main(["--problem", str(path), "--command", "eliminate"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["status"] == "TRIVIALIZED"
    # the loader validates the system and eliminate_to_order reads that report
    assert len(calls) == 1


def test_cli_bound_flags_override_problem_file(tmp_path, capsys):
    data = dict(CANONICAL_PLANE, bounds={"degree": 0, "op_order": 2})
    path = write(tmp_path, "plane.json", data)
    # the file bounds are too small, the flag widens them
    assert main([
        "--problem", path, "--command", "extend-star", "--op-order-bound", "3",
    ]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["status"] == "solved"
    assert report["result"]["bounds"]["op_order"] == 3


def test_extend_star_at_a_huge_degree_bound_solves_at_once(capsys):
    # extend-star reads no bound: the columns come from the target
    problem = PROBLEMS / "moyal_extension.json"
    golden = json.loads(expected_path(problem, "extend-star", 0).read_text())["result"]
    argv = ["--problem", str(problem), "--command", "extend-star", "--degree-bound", "99999999"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "solved"
    assert result["bounds"] == {"degree": 99999999, "op_order": 3}
    assert result["candidate"] == golden["candidate"]


def test_extend_star_at_a_huge_op_order_bound_solves_at_once(capsys):
    # extend-star reads no bound: the columns come from the target
    problem = PROBLEMS / "moyal_extension.json"
    argv = ["--problem", str(problem), "--command", "extend-star", "--op-order-bound", "99999999"]
    start = time.perf_counter()
    assert main(argv) == 0
    assert time.perf_counter() - start < 1.0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["status"] == "solved"
    # the order-3 target has weight (3, 3), so from K = 6 on every split is a key
    # of the bounded reference; its candidate there is the one at K_T = 3
    assert main(argv[:-1] + ["6"]) == 0
    at_six = json.loads(capsys.readouterr().out)["result"]["candidate"]
    want = reference_extend_one_order(moyal_star(canonical_pi2(), 2), 1, 6).particular
    assert result["candidate"] == at_six == op_payload(want, ["x", "p"])


DEEP_GENERATOR = "(" * 3000 + "y" + ")" * 3000
LONG_NUMBER = "7" * 5000  # above the interpreter's 4,300-digit int() limit
NINES = "9" * 4300  # 10^4300 - 1, the longest integer the interpreter prints
LONG_SUM = NINES + "*y + y"
LONG_QUOTIENT_SUM = f"1/{NINES}*y + 1/{NINES[:-1]}7*y"


def star_with_slot(slot):
    """REMOVABLE's star product with the second slot of its first order-2 term replaced."""
    star = copy.deepcopy(REMOVABLE["star"])
    star["terms"]["2"][0]["derivs"][1] = slot
    return star


@pytest.mark.parametrize(
    "patch, flags, message",
    [
        ({"poisson": 7}, [], "poisson: expected a list, got int"),
        ({"bounds": [1, 2]}, [], "bounds: expected an object, got list"),
        (
            {"star": {"type": "terms", "order": 1, "terms": {"1": 5}}},
            [],
            "star.terms.1: expected a list, got int",
        ),
        ({"dimension": 3.7}, [], "dimension: expected an integer, got float"),
        ({"generators": "y"}, [], "generators: expected a list, got str"),
        (
            {"bounds": {"degree": -1, "op_order": 2}},
            [],
            "bounds.degree: must be at least 0, got -1",
        ),
        ({}, ["--op-order-bound", "-1"], "--op-order-bound: must be at least 0, got -1"),
        ({"coordinates": "xyz"}, [], "coordinates: expected a list, got str"),
        ({"coordinates": ["x", "y", 3]}, [], "coordinates[2]: expected a string, got int"),
        ({"poisson": [[1, 2.9, "1"]]}, [], "poisson[0][1]: expected an integer, got float"),
        (
            {"star": dict(REMOVABLE["star"], order=2.9)},
            [],
            "star.order: expected an integer, got float",
        ),
        ({"star": {"type": "moyal"}}, [], "star.order: missing; expected an integer of at least 1"),
        (
            {"star": {"type": "moyal", "order": None}},
            [],
            "star.order: missing; expected an integer of at least 1",
        ),
        (
            json.dumps({k: v for k, v in REMOVABLE.items() if k != "dimension"}),
            [],
            "dimension: missing; expected an integer of at least 1",
        ),
        (
            {"star": dict(REMOVABLE["star"], terms={"1": [{"derivs": [[1, 0, 0], [0, 1, 0]]}]})},
            [],
            "star.terms.1[0].coeff: missing; expected a polynomial string",
        ),
        (
            {"star": dict(REMOVABLE["star"], terms={"1": [{"coeff": "1/2"}]})},
            [],
            "star.terms.1[0].derivs: missing; expected 2 derivative slots",
        ),
        ({"order": 2.5}, [], "order: expected an integer, got float"),
        ({"order": -1}, [], "order: must be at least 1, got -1"),
        ({}, ["--order", "-1"], "--order: must be at least 1, got -1"),
        ({}, ["--order", "-2"], "--order: must be at least 1, got -2"),
        ({}, ["--order", "0"], "--order: must be at least 1, got 0"),
        ({"seed": 1.5}, [], "seed: expected an integer, got float"),
        (
            {"star": star_with_slot([1.5, 2, 0])},
            [],
            "star.terms.2[0].derivs[1][0]: expected an integer, got float",
        ),
        (
            {"star": star_with_slot([True, 2, 0])},
            [],
            "star.terms.2[0].derivs[1][0]: expected an integer, got bool",
        ),
        (
            {"star": star_with_slot(["a", 2, 0])},
            [],
            "star.terms.2[0].derivs[1][0]: expected an integer, got str",
        ),
        (
            {"star": star_with_slot([-1, 2, 0])},
            [],
            "star.terms.2[0].derivs[1][0]: must be at least 0, got -1",
        ),
        (
            {"star": star_with_slot([0, 2])},
            [],
            "star.terms.2[0].derivs[1]: expected a list of 3 integers",
        ),
        (
            {"star": dict(REMOVABLE["star"], terms={"\u00b2": []})},
            [],
            "star.terms has an out-of-range order key '\u00b2'",
        ),
        (
            {"generators": [DEEP_GENERATOR, "z"]},
            [],
            f"generators[0]: at position 101 in …'{'(' * 60}'…: "
            "parentheses nested deeper than 100",
        ),
        ("[" * 100_000 + "]" * 100_000, [], "problem file is nested too deeply to decode"),
        ({"poisson": [[1, 2, "1"], [1, 2, "3"]]}, [], "poisson[1]: pair (1, 2) given twice"),
        ({"poisson": [[1, 2, "1"], [2, 1, "1"]]}, [], "poisson[1]: pair (1, 2) given twice"),
        (
            {"coordinates": ["1", "y", "z"]},
            [],
            "coordinates[0]: '1' does not parse as a variable name",
        ),
        (
            {"coordinates": ["x", "", "z"]},
            [],
            "coordinates[1]: '' does not parse as a variable name",
        ),
        (
            {"coordinates": ["x", "y", "a b"]},
            [],
            "coordinates[2]: 'a b' does not parse as a variable name",
        ),
        (
            {"generators": ["y", "(x + y + z)^24"]},
            [],
            "generators[1]: at position 12 in '(x + y + z)^24': "
            "exponent 24 on a base of 3 terms exceeds 12",
        ),
        (
            {"generators": ["y^\u00b2", "z"]},
            [],
            "generators[0]: at position 2 in 'y^\u00b2': expected exponent",
        ),
        (
            {"generators": [LONG_NUMBER + "*y", "z"]},
            [],
            f"generators[0]: at position 0 in {LONG_NUMBER[:30]!r}…: number has too many digits",
        ),
        (
            {"star": dict(REMOVABLE["star"], order=1_000_000_000)},
            [],
            "star.order: must be at most 32, got 1000000000",
        ),
        (
            {"poisson": [[1, 2, "(3/7*x)^400000"]]},
            [],
            "poisson[0]: at position 8 in '(3/7*x)^400000': "
            "a coefficient of this power has more than 4300 digits",
        ),
        (
            {"generators": ["2^20000*y", "z"]},
            [],
            "generators[0]: at position 2 in '2^20000*y': "
            "a coefficient of this power has more than 4300 digits",
        ),
        (
            {"generators": ["y", "(3/7*z)^3000000"]},
            [],
            "generators[1]: at position 8 in '(3/7*z)^3000000': "
            "a coefficient of this power has more than 4300 digits",
        ),
        (
            {"generators": ["2^14000*2^14000*y", "z"]},
            [],
            "generators[0]: at position 7 in '2^14000*2^14000*y': "
            "a coefficient of this product has more than 4300 digits",
        ),
        (
            {"generators": [LONG_SUM, "z"]},
            [],
            f"generators[0]: at position 4303 in …{LONG_SUM[4273:]!r}: "
            "a coefficient of this sum has more than 4300 digits",
        ),
        (
            {"generators": [LONG_QUOTIENT_SUM, "z"]},
            [],
            f"generators[0]: at position 4305 in …{LONG_QUOTIENT_SUM[4275:4335]!r}…: "
            "a coefficient of this sum has more than 4300 digits",
        ),
        # null is absent, on a required field too; 0, "" and [] are values
        ({"dimension": None}, [], "dimension: missing; expected an integer of at least 1"),
        ({"star": {"type": None, "order": 2}}, [], "'star' must be an object with a 'type'"),
        ({"coordinates": None}, [], "coordinates: missing; expected a list of 3 names"),
        (
            json.dumps({k: v for k, v in REMOVABLE.items() if k != "coordinates"}),
            [],
            "coordinates: missing; expected a list of 3 names",
        ),
        ({"order": 0}, [], "order: must be at least 1, got 0"),
        ({"seed": ""}, [], "seed: expected an integer, got str"),
        ({"bounds": []}, [], "bounds: expected an object, got list"),
        ({"bounds": {"degree": ""}}, [], "bounds.degree: expected an integer, got str"),
        ({"generators": ""}, [], "generators: expected a list, got str"),
        ({"poisson": 0}, [], "poisson: expected a list, got int"),
    ],
    ids=[
        "poisson-not-list",
        "bounds-list",
        "star-term-not-list",
        "dimension-float",
        "generators-string",
        "negative-bound",
        "negative-bound-flag",
        "coordinates-string",
        "coordinate-not-string",
        "poisson-index-float",
        "star-order-float",
        "star-order-missing",
        "star-order-null",
        "dimension-missing",
        "star-term-coeff-missing",
        "star-term-derivs-missing",
        "order-float",
        "order-negative",
        "order-flag-negative",
        "order-flag-minus-two",
        "order-flag-zero",
        "seed-float",
        "derivs-float",
        "derivs-bool",
        "derivs-string",
        "derivs-negative",
        "derivs-slot-length",
        "order-key-not-decimal",
        "generator-nested-deep",
        "file-nested-deep",
        "poisson-pair-twice",
        "poisson-pair-reversed",
        "coordinate-number",
        "coordinate-empty",
        "coordinate-with-space",
        "generator-power-of-sum",
        "generator-unicode-digit",
        "generator-number-too-long",
        "star-order-above-cap",
        "poisson-coefficient-power-too-long",
        "generator-constant-power-too-long",
        "generator-monomial-power-too-long",
        "generator-product-too-long",
        "generator-sum-too-long",
        "generator-sum-of-quotients-too-long",
        "dimension-null",
        "star-type-null",
        "coordinates-null",
        "coordinates-missing",
        "order-zero",
        "seed-empty-string",
        "bounds-empty-list",
        "bounds-degree-empty-string",
        "generators-empty-string",
        "poisson-zero",
    ],
)
def test_malformed_input_exits_1_naming_the_field(tmp_path, capsys, patch, flags, message):
    # a string is the whole file, for nesting json.dumps cannot write
    text = patch if isinstance(patch, str) else json.dumps(dict(REMOVABLE, **patch))
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["--problem", str(path), "--command", "eliminate", *flags]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def canonical_moyal(dim, order):
    """Canonical R^dim with the built-in product of the given order."""
    half = dim // 2
    return {
        "dimension": dim,
        "coordinates": [f"x{i}" for i in range(half)] + [f"p{i}" for i in range(half)],
        "poisson": [[i + 1, i + 1 + half, "1"] for i in range(half)],
        "star": {"type": "moyal", "order": order},
    }


@pytest.mark.parametrize(
    "dim, order, terms", [(6, 32, 2_760_680), (4, 20, 10_625), (4, 32, 58_904)]
)
def test_moyal_product_too_large_to_build_exits_1_at_once(tmp_path, capsys, dim, order, terms):
    # canonical R^6 at order 32 ran for minutes before the estimate
    path = write(tmp_path, "big.json", canonical_moyal(dim, order))
    start = time.perf_counter()
    assert main(["--problem", path, "--command", "assoc-check"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: star.order: the built-in product of order {order} on {dim // 2} "
        f"bivector entries has an estimated {terms} terms to build, more than 10000\n"
    )


def test_moyal_product_below_the_estimate_cap_loads():
    problem = load_problem_data(canonical_moyal(4, 12))  # 1,819 terms
    assert problem.star.order == 12


def test_integer_literal_too_long_to_decode_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(REMOVABLE).replace('"seed": 7', f'"seed": {LONG_NUMBER}'))
    assert main(["--problem", str(path), "--command", "eliminate"]) == 1
    assert capsys.readouterr().err.startswith("error: problem file is not valid JSON: ")


def test_star_terms_with_bad_order_key_rejected():
    data = dict(
        CANONICAL_PLANE,
        star={
            "type": "terms",
            "order": 1,
            "terms": {"3": [{"coeff": "1", "derivs": [[1, 0], [0, 1]]}]},
        },
    )
    with pytest.raises(ProblemError, match="out-of-range"):
        load_problem_data(data)


def test_shipped_problem_files(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "problems"
    expected = {
        "plane_momenta.json": "TRIVIALIZED",
        "removable_class.json": "TRIVIALIZED",
        "casimir_obstruction.json": "OBSTRUCTED",
    }
    for name, status in expected.items():
        problem = load_problem_data(json.loads((root / name).read_text()))
        report = run_command(problem, problem.command, problem.order)
        assert report["result"]["status"] == status, name
    poisson = load_problem_data(json.loads((root / "rotation_bivector.json").read_text()))
    report = run_command(poisson, poisson.command, None)
    assert report["result"]["poisson"] is True


def test_main_exit_code_on_internal_check_failure(tmp_path, capsys, monkeypatch):
    import starobs.cli as cli_module

    def explode(problem, order):
        raise AssertionError("posterior check went sideways")

    monkeypatch.setitem(cli_module.DISPATCH, "check-poisson", explode)
    problem = write(tmp_path, "so3.json", SO3)
    assert main(["--problem", problem, "--command", "check-poisson"]) == 2
    assert "internal check failure" in capsys.readouterr().err


def test_main_exit_code_on_unwritable_output(tmp_path, capsys):
    problem = write(tmp_path, "so3.json", SO3)
    out = str(tmp_path / "missing" / "dir" / "report.json")
    assert main(["--problem", problem, "--command", "check-poisson", "--out", out]) == 1
    assert "cannot write report" in capsys.readouterr().err
