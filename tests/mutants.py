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
        "    if not _raw_class(s, system, n).is_zero():\n        return None\n",
        "",
        (FACTORED + "test_unary_correction_is_none_on_an_antisymmetric_part",),
    ),
    Mutant(
        "phi0(1) = +B(1, 1)",
        "obstruction.py",
        "phi0 = {exps[0]: -on(exps[0], exps[0])}",
        "phi0 = {exps[0]: on(exps[0], exps[0])}",
        (FACTORED + "test_unary_correction_matches_pair_reference_on_random_planted_products",),
    ),
    # the graded extension solve
    Mutant(
        "extension keeps the blocks with |w| <= K, not K + 1",
        "star.py",
        "if sum(a) + sum(b) <= operator_order + 1 or",
        "if sum(a) + sum(b) <= operator_order or",
        (FACTORED + "test_extension_matches_reference_solve",),
    ),
    Mutant(
        "extension drops the target's weight blocks",
        "star.py",
        " or tuple(map(sum, zip(a, b))) in weights",
        "",
        (FACTORED + "test_extension_matches_reference_solve",),
    ),
    Mutant(
        "extension tests the coefficient degree after assembling M",
        "star.py",
        "    if not all(emon_set.issuperset(p.terms) for p in target.terms.values()):\n"
        "        return undecided\n"
        "    weights = {tuple(map(sum, zip(*k))) for k in target.terms}\n"
        "    keys = [\n"
        "        (a, b)\n"
        "        for a, b in itertools.product(exponents_upto(dim, operator_order), repeat=2)\n"
        "        if sum(a) + sum(b) <= operator_order + 1 or tuple(map(sum, zip(a, b))) in weights\n"
        "    ]\n"
        "    matrix: dict[DerivKey, dict[int, int]] = {}  # M by rows\n"
        "    table: dict[Exponents, Leibniz] = {}\n"
        "    for ci, key in enumerate(keys):\n"
        "        for dkey, v in _key_differential(dim, key, table).items():\n"
        "            matrix.setdefault(dkey, {})[ci] = v\n"
        "    if not all(k in matrix for k in target.terms):\n",
        "    weights = {tuple(map(sum, zip(*k))) for k in target.terms}\n"
        "    keys = [\n"
        "        (a, b)\n"
        "        for a, b in itertools.product(exponents_upto(dim, operator_order), repeat=2)\n"
        "        if sum(a) + sum(b) <= operator_order + 1 or tuple(map(sum, zip(a, b))) in weights\n"
        "    ]\n"
        "    matrix: dict[DerivKey, dict[int, int]] = {}  # M by rows\n"
        "    table: dict[Exponents, Leibniz] = {}\n"
        "    for ci, key in enumerate(keys):\n"
        "        for dkey, v in _key_differential(dim, key, table).items():\n"
        "            matrix.setdefault(dkey, {})[ci] = v\n"
        "    if not all(emon_set.issuperset(p.terms) for p in target.terms.values()):\n"
        "        return undecided\n"
        "    if not all(k in matrix for k in target.terms):\n",
        (FACTORED + "test_extension_target_outside_the_ansatz_makes_no_solve",),
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
        "a zero D_k taken for the identity",
        "polydiff.py",
        "        if inner.arity == 1 and len(inner.terms) == 1:\n",
        "        if not inner.terms:\n"
        "            return self\n"
        "        if inner.arity == 1 and len(inner.terms) == 1:\n",
        (
            "tests/test_star.py::"
            "test_gauge_transform_at_order_four_with_zero_diffeo_terms_matches_reference",
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
