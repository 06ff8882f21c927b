"""The standing mutant table: small breaks of the package that the tests
must catch.

Each ``Mutant`` replaces ``old``, which occurs exactly once in ``path``
(checked by tests/test_mutants.py), with ``new``; running ``tests`` on the
mutated tree must then fail.  The rows are the hand-run mutation checks
that earlier changes recorded in CHANGES.md, kept where their code still
exists.

    python tests/mutants.py

copies src/, tests/ and pyproject.toml into a temporary directory, runs
the union of the listed tests there once unmutated (they must pass), and
then, for each mutant, applies it, runs its tests with ``pytest -x`` and
restores the file.  It prints one line per mutant and exits 1 if any
mutant survives (its tests pass) or its run errs instead of failing.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


def _golden(name: str) -> str:
    return f"tests/test_golden.py::test_report_bytes_match_the_pinned_file[{name}]"


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # multiindex: the multinomial without its running remainder.
    Mutant(
        "src/hypershift/multiindex.py",
        "        out *= comb(k, x)\n        k -= x\n",
        "        out *= comb(k, x)\n",
        (
            "tests/test_multiindex.py::test_multinomial_matches_factorial_formula",
            "tests/test_multiindex.py::test_degree_and_factorial",
        ),
    ),
    # weights: the block base degree one past its closed form.
    Mutant(
        "src/hypershift/weights.py",
        "// factorial(n - 1) - n + 1 for l",
        "// factorial(n - 1) - n + 2 for l",
        (
            "tests/test_weights.py::test_perturbed_block_base_degrees",
            "tests/test_weights.py::test_block_base_degrees_are_the_smallest_admissible",
            "tests/test_acceptance.py::test_criterion_5_counterexample_reproduction",
        ),
    ),
    # weights: a ratio that reads the radial closed form next to an entry.
    Mutant(
        "src/hypershift/weights.py",
        "if self.sequence is None or alpha in self.entries or below in self.entries:",
        "if self.sequence is None:",
        (
            "tests/test_weights.py::test_perturbed_rho_ratio_matches_quotient",
            _golden("check_hyper_table_halved.json"),
        ),
    ),
    # weights: a ratio that ignores an entry below alpha.
    Mutant(
        "src/hypershift/weights.py",
        "alpha in self.entries or below in self.entries:",
        "alpha in self.entries:",
        (
            "tests/test_weights.py::test_rho_ratio_near_and_off_the_entries",
            "tests/test_weights.py::test_perturbed_rho_ratio_matches_quotient",
            _golden("truncate_table_halved_d8.json"),
        ),
    ),
    # weights: corrections that keep zero differences.
    Mutant(
        "src/hypershift/weights.py",
        "            if delta:\n                corrections.append((alpha, delta))\n",
        "            corrections.append((alpha, delta))\n",
        (
            "tests/test_weights.py::test_split_matches_the_values",
            "tests/test_weights.py::test_metric_decomposition_merges_and_sorts",
        ),
    ),
    # weights: corrections in entry order, not graded order.
    Mutant(
        "src/hypershift/weights.py",
        "        return sorted(corrections, key=_graded)\n",
        "        return corrections\n",
        (
            "tests/test_weights.py::test_split_matches_the_values",
        ),
    ),
    # weights: an empty split, not None, when the sequence is undefined at
    # an entry.
    Mutant(
        "src/hypershift/weights.py",
        "            except WeightDomainError:\n                return None\n",
        "            except WeightDomainError:\n                return []\n",
        (
            "tests/test_weights.py::test_radial_split_lists_corrections_or_no_base",
            "tests/test_similarity.py::test_scan_without_a_base_computes_every_cell",
        ),
    ),
    # weights: a table spec echoed as given, not in canonical form.
    Mutant(
        "src/hypershift/weights.py",
        "            return TableWeight(m, entries, fallback)\n",
        "            table = TableWeight(m, entries, fallback)\n"
        "            table.spec = spec\n"
        "            return table\n",
        (
            "tests/test_weights.py::test_spec_dict_is_the_canonical_form",
        ),
    ),
    # weights: the closed-form ratio bound without its exact steps.
    Mutant(
        "src/hypershift/weights.py",
        "        for i in range(start, start + k):\n"
        "            bound = max(bound, self.value(i + 1) / self.value(i))\n",
        "",
        (
            "tests/test_weights.py::test_power_sequence_is_binomial",
            "tests/test_weights.py::test_one_ratio_bound_for_every_closed_form_base",
        ),
    ),
    # weights: the tail bound without its factor r.
    Mutant(
        "src/hypershift/weights.py",
        "bound = self.r * Fraction(",
        "bound = Fraction(",
        (
            "tests/test_weights.py::test_metric_tail_refusals",
            "tests/test_weights.py::test_one_ratio_bound_for_every_closed_form_base",
        ),
    ),
    # weights: a closed-form value without its factor r^d.
    Mutant(
        "src/hypershift/weights.py",
        "return p * self.r**i",
        "return p",
        (
            "tests/test_weights.py::test_geometric_and_polynomial_values",
            _golden("check_hyper_geometric_half.json"),
        ),
    ),
    # weights: the tail bound taken from s + k - 1 instead of s + k.
    Mutant(
        "src/hypershift/weights.py",
        "Fraction((start + k + 1) ** k, (start + k) ** k)",
        "Fraction((start + k) ** k, (start + k - 1) ** k)",
        (
            "tests/test_weights.py::test_power_sequence_is_binomial",
            "tests/test_cli.py::test_one_sequence_written_two_ways_gives_one_report"
            "[curvature-power2-is-i-plus-1]",
        ),
    ),
    # weights: k read from the coefficient count, not the degree of p.
    Mutant(
        "src/hypershift/weights.py",
        "while len(nums) > 1 and not nums[0]:",
        "while False:",
        (
            "tests/test_cli.py::test_one_sequence_written_two_ways_gives_one_report"
            "[curvature-trailing-zero]",
        ),
    ),
    # hypercontraction: moments weighted by the multinomial of k_max.
    Mutant(
        "src/hypershift/hypercontraction.py",
        "out[k] += mi.multinomial(k, beta) * W.rho_ratio(alpha, beta)",
        "out[k] += mi.multinomial(k_max, beta) * W.rho_ratio(alpha, beta)",
        (
            "tests/test_hypercontraction.py::test_moments_are_the_matrix_models_power_diagonals",
            _golden("truncate_power22_decay.csv"),
        ),
    ),
    # hypercontraction: the binomial of the defect off by one.
    Mutant(
        "src/hypershift/hypercontraction.py",
        "(-1) ** j * comb(k, j) * x",
        "(-1) ** j * comb(k, j - 1) * x",
        (
            "tests/test_hypercontraction.py::test_defect_order_zero_is_one",
            "tests/test_hypercontraction.py::test_power_kernel_defects_match_closed_form",
        ),
    ),
    # hypercontraction: moments that add the beta = 0 term to k = 0.
    Mutant(
        "src/hypershift/hypercontraction.py",
        "        if k:\n            out[k] +=",
        "        if True:\n            out[k] +=",
        (
            "tests/test_hypercontraction.py::test_defect_at_the_origin_reads_no_weight",
            "tests/test_hypercontraction.py::test_moments_are_the_matrix_models_power_diagonals",
        ),
    ),
    # hypercontraction: a cone that leaves out the first correction.
    Mutant(
        "src/hypershift/hypercontraction.py",
        "    for alpha, _ in W.corrections or ():\n",
        "    for alpha, _ in (W.corrections or ())[1:]:\n",
        (
            "tests/test_hypercontraction.py::test_engine_matches_multinomial_oracle_on_sparse_tables",
            _golden("check_hyper_table_halved.json"),
        ),
    ),
    # hypercontraction: cone rows that read every lower neighbour from the
    # radial row.
    Mutant(
        "src/hypershift/hypercontraction.py",
        "prev.get(below, prev_radial)",
        "prev_radial",
        (
            "tests/test_hypercontraction.py::test_engine_matches_multinomial_oracle_on_random_tables",
            "tests/test_hypercontraction.py::test_engine_matches_multinomial_oracle_on_sparse_tables",
            _golden("truncate_table_halved_d8.json"),
        ),
    ),
    # hypercontraction: a layer left unfinished when its caller stops early.
    Mutant(
        "src/hypershift/hypercontraction.py",
        "        for _ in layer_rows:  # finish the layer when the caller stopped early\n"
        "            pass\n",
        "",
        (
            "tests/test_hypercontraction.py::test_a_layer_left_early_is_finished_for_the_next",
        ),
    ),
    # truncation: the radial row read wherever a layer has one.
    Mutant(
        "src/hypershift/truncation.py",
        "yield alpha, cone.get(alpha, radial)[k - 1]",
        "yield alpha, (radial or cone[alpha])[k - 1]",
        (
            "tests/test_truncation.py::test_truncate_fields_match_the_matrix_model",
            "tests/test_truncation.py::test_a_poisoned_split_moves_the_engines_not_the_oracles",
            _golden("truncate_table_halved_d8.json"),
        ),
    ),
    # truncation: the float defect term multiplied in another order.
    Mutant(
        "src/hypershift/truncation.py",
        "dense += xb * xb * c",
        "dense += xb * (xb * c)",
        (
            "tests/test_truncation.py::test_dense_defect_is_bitwise_the_reference_formula",
            _golden("truncate_power22_d40.json"),
        ),
    ),
    # similarity: a split read from the first weight alone.
    Mutant(
        "src/hypershift/similarity.py",
        "for W in (W1, W2) for alpha, _ in W.corrections",
        "for W in (W1,) for alpha, _ in W.corrections",
        (
            "tests/test_similarity.py::test_tabled_scan_through_a_table_entry",
            "tests/test_similarity.py::test_tabled_scan_edge_windows",
        ),
    ),
    # similarity: a cell's top looked up one degree low.
    Mutant(
        "src/hypershift/similarity.py",
        "N + l + 1 in degrees",
        "N + l in degrees",
        (
            "tests/test_similarity.py::test_tabled_scan_through_a_table_entry",
            _golden("similarity_scan_perturbed45_power22_l520.json"),
            "tests/test_hypercontraction.py::test_permuting_coordinates_keeps_verdicts_and_witness_values",
        ),
    ),
    # similarity: a corrected base point read from the table.
    Mutant(
        "src/hypershift/similarity.py",
        "base_exact = not tabled or alpha in corrected",
        "base_exact = not tabled",
        (
            "tests/test_similarity.py::test_tabled_scan_edge_windows",
            _golden("similarity_scan_table_halved_power22.csv"),
        ),
    ),
    # similarity: a weight without a split read from the table.
    Mutant(
        "src/hypershift/similarity.py",
        "base_exact = not tabled or alpha in corrected",
        "base_exact = False or alpha in corrected",
        (
            "tests/test_similarity.py::test_scan_without_a_base_computes_every_cell",
            "tests/test_similarity.py::test_tabled_scan_matches_reference_on_random_pairs",
        ),
    ),
    # similarity: the top taken one step short of alpha + (l + 1) e_i.
    Mutant(
        "src/hypershift/similarity.py",
        "(alpha[i] + l + 1,)",
        "(alpha[i] + l,)",
        (
            "tests/test_similarity.py::test_tabled_scan_reaches_the_counterexample_ray",
            _golden("similarity_scan_perturbed45_power22_l520.json"),
        ),
    ),
    # similarity: the last extremes in scan order, not the first.
    Mutant(
        "src/hypershift/similarity.py",
        "lo = RayWitness(*min(cells, key=itemgetter(3)))",
        "lo = RayWitness(*min(reversed(cells), key=itemgetter(3)))",
        (
            "tests/test_similarity.py::test_scan_of_identical_weights_is_flat",
            _golden("similarity_scan_perturbed45_power22_l520.json"),
        ),
    ),
    Mutant(
        "src/hypershift/similarity.py",
        "hi = RayWitness(*max(cells, key=itemgetter(3)))",
        "hi = RayWitness(*max(reversed(cells), key=itemgetter(3)))",
        (
            "tests/test_similarity.py::test_scan_of_identical_weights_is_flat",
            _golden("similarity_scan_perturbed45_power22_l520.json"),
        ),
    ),
    # similarity: the half-window spread taken over the whole window.
    Mutant(
        "src/hypershift/similarity.py",
        "half = [r for _, _, l, r in cells if l <= ray_length // 2]",
        "half = [r for _, _, l, r in cells]",
        (
            "tests/test_acceptance.py::test_criterion_8_ray_ratio_regression",
            "tests/test_similarity.py::test_hardy_bergman_scan_flags_growth",
            _golden("similarity_scan_power12_power32.json"),
        ),
    ),
]


def _pytest(tree: Path, tests) -> int:
    # No bytecode cache: a mutant written in the same second as another of
    # the same size could otherwise run from the other's cached bytecode.
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode


def _check_all() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        listed = sorted({test for mutant in MUTANTS for test in mutant.tests})
        code = _pytest(tree, listed)
        if code:
            print(f"the listed tests fail on the unmutated tree (pytest exit {code})")
            return 1
        bad = 0
        for mutant in MUTANTS:
            path = tree / mutant.path
            text = path.read_text()
            path.write_text(text.replace(mutant.old, mutant.new))
            code = _pytest(tree, mutant.tests)
            path.write_text(text)
            # pytest exits 1 when tests ran and failed; 0 means the mutant
            # survived, and anything else is an error, not a kill.
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
            bad += code != 1
            print(f"{verdict}: {mutant.path}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}")
        print(f"{len(MUTANTS)} mutants, {bad} not killed")
        return 1 if bad or not MUTANTS else 0


if __name__ == "__main__":
    sys.exit(_check_all())
