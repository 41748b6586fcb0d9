"""Named mutants of the package, each with the tests that must catch it.

    python3 tests/mutants.py [--seeds N] [NAME ...]

A mutant replaces one exact fragment of one file of src/latticegas. For
each mutant the script copies src/ into a temporary directory, applies the
mutant there, and runs the tests the mutant names against that copy
(pytest, with PYTHONPATH set to the copy). With --seeds N the tests run N
times, one run after another, under the fixed hypothesis seeds 0 .. N - 1
(pytest --hypothesis-seed); without it they run once, under a seed
hypothesis picks. It prints one line per mutant:

    caught     a named test failed, or a named test module failed to load,
               under every seed
    SURVIVED   every named test passed under every seed
    FLAKY      caught under some seeds and not under others
    STALE      the fragment is not in the file exactly once
    ERROR      pytest ran no test, or stopped for another reason

An equivalent mutant changes no result, so its tests pass; it is listed
with the reason instead of dropped, and is reported as equivalent while it
survives. The script exits 1 if any mutant survived, was caught though
listed as equivalent, went stale or erred. With NAMEs only those run.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/latticegas
    fragment: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root of the repository
    equivalent: str = ""  # why the mutant changes no result, if it does not


def _t(module: str, *names: str) -> tuple[str, ...]:
    return tuple(f"tests/{module}.py::{name}" for name in names)


MUTANTS = [
    # the ball layer and the threshold boundary
    Mutant("threshold-type-unchecked", "forces.py",
           "if type(d2) is not int or d2 not in FORCE_TABLES:", "if d2 not in FORCE_TABLES:",
           _t("test_forces", "test_a_threshold_that_is_not_exactly_an_int_is_refused")),
    Mutant("ball-cached-by-radius", "forces.py",
           "_, conflict, units, bases, place = _ball(ft)",
           "_, conflict, units, bases, place = _ball(force_table(max(d for d in SUPPORTED_D2 "
           "if BALL_RADIUS_SQ[d] == ft.ball_radius_sq)))",
           _t("test_forces", "test_a_cleared_search_reproduces_the_golden_extremes")),
    Mutant("ball-radius-one-short", "forces.py",
           "{d2: len(table) for d2, table", "{d2: len(table) - 1 for d2, table",
           _t("test_forces", "test_each_table_is_keyed_below_a_radius_within_the_hard_core_distance",
              "test_search_matches_golden")),
    # K_p
    Mutant("k-p-one-too-high", "lattice.py",
           "out[p] = (sum(1 << k for k in ks), most[key])", "out[p] = (sum(1 << k for k in ks), most[key] + 1)",
           _t("test_lattice", "test_k_p_matches_one_fold_per_particle",
              "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    Mutant("k-p-one-too-low", "lattice.py",
           "out[p] = (sum(1 << k for k in ks), most[key])",
           "out[p] = (sum(1 << k for k in ks), max(most[key] - 1, 1))",
           _t("test_lattice", "test_k_p_matches_one_fold_per_particle",
              "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    Mutant("k-p-budget-dropped", "lattice.py",
           "expanded = _within_budget(expanded + len(level), len(within))", "expanded += len(level)",
           _t("test_lattice", "test_a_k_p_fold_past_its_budget_raises")),
    Mutant("k-p-pattern-key-projected", "lattice.py",
           "(y0 - x0, y1 - x1, y2 - x2)", "(y0 - x0, y1 - x1, 0)",
           _t("test_lattice", "test_k_p_tells_apart_patterns_that_differ_along_any_axis")),
    Mutant("k-p-merge-keeps-the-first", "lattice.py",
           "into[1] |= sigs << shift", "into[1] |= 0",
           _t("test_lattice", "test_the_fold_over_a_subset_finds_its_largest_independent_subset_on_every_small_graph")),
    # the window search's marginal bound
    Mutant("marginal-test-dropped", "lattice.py",
           "todo = avail if limit is None else admitted(avail, covered, near)", "todo = avail",
           _t("test_lattice", "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    Mutant("marginal-test-strict", "lattice.py",
           "if m <= room:", "if m < room:",
           _t("test_lattice", "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    Mutant("far-negatives-left-out", "lattice.py",
           "avail & (near | negative)", "avail & near",
           _t("test_lattice", "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    Mutant("room-off-by-one", "lattice.py",
           "cap - den * (covered.bit_count() - len(chosen))", "cap - den * (covered.bit_count() - len(chosen)) - 1",
           _t("test_lattice", "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    Mutant("shares-halved", "lattice.py",
           "share[p] = den // k", "share[p] = den // k // 2",
           _t("test_lattice", "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    Mutant("segment-start-not-moved", "lattice.py",
           "room, top = room - m, y", "room, top = room - m, top",
           _t("test_lattice", "test_the_search_visits_exactly_the_sets_its_marginal_bound_admits")),
    # the window's covers and the census's count
    Mutant("window-box-not-grown", "excitations.py",
           "r = math.isqrt(d2 - 1)\n", "r = 0\n",
           _t("test_excitations", "test_the_window_matches_the_per_site_lookups")),
    Mutant("census-count-in-lexicographic-order", "excitations.py",
           "count_independent_sets(conflict_masks(sweep, d2))", "count_independent_sets(conflict)",
           _t("test_excitations", "test_the_census_counts_the_bench_windows_across_the_layers")),
    Mutant("count-slot-without-its-plus-one", "lattice.py",
           "w = waiting[(taken & -taken).bit_length()]\n                w[taken]",
           "w = waiting[(taken & -taken).bit_length() - 1]\n                w[taken]",
           _t("test_lattice", "test_count_independent_sets_is_bounded_and_does_not_recurse")),
    Mutant("fold-initial-state-in-slot-one", "lattice.py",
           "waiting[(start & -start).bit_length()][start] = [1, 1]", "waiting[1][start] = [1, 1]",
           _t("test_lattice", "test_the_kernels_count_the_one_set_of_no_indices")),
    Mutant("fold-starts-from-every-index", "lattice.py",
           "start = sum(1 << v for v in within)", "start = (1 << len(conflict)) - 1",
           _t("test_lattice", "test_the_fold_over_a_subset_finds_its_largest_independent_subset_on_every_small_graph",
              "test_the_fold_over_a_subset_is_the_fold_of_its_renumbered_conflicts")),
    # neighbourhood checks
    Mutant("admissible-without-repeated-site-test", "lattice.py",
           "return len(set(pts)) == len(pts) and not any(conflict_masks(pts, d2))",
           "return not any(conflict_masks(pts, d2))",
           _t("test_lattice", "test_admissibility_of_many_sites_matches_the_pairwise_oracle")),
    Mutant("conflict-keys-without-ball-spacing", "lattice.py",
           "+ 2 * math.isqrt(max(d2 - 1, 0)) + 1", "+ 1",
           _t("test_lattice", "test_conflict_masks_match_the_pairwise_comparison")),
    Mutant("residue-path-half-ball-short", "configs.py",
           "half_ball(d2)\n", "half_ball(d2 - 1)\n",
           _t("test_configs", "test_both_neighbourhood_paths_match_the_scans_on_every_supercell")),
    Mutant("occupied-near-lookup-ball-short", "configs.py",
           "for b0, b1, b2 in ball_sites(radius_sq)]", "for b0, b1, b2 in ball_sites(radius_sq - 1)]",
           _t("test_configs", "test_both_neighbourhood_paths_match_the_scans_on_every_supercell")),
    Mutant("occupied-near-column-not-narrowed", "configs.py",
           "rz = math.isqrt(rx - dy * dy)", "rz = ry",
           _t("test_configs", "test_both_lookup_paths_match_the_scan_on_drawn_hnf_bases")),
    Mutant("occupied-near-offsets-not-sorted", "configs.py",
           "        if len(self.offsets) > 1:\n            out.sort()\n", "",
           _t("test_configs", "test_both_lookup_paths_match_the_scan_on_drawn_hnf_bases")),
    Mutant("occupied-near-without-the-b12-step", "configs.py",
           "                    zy += b12\n", "",
           _t("test_configs", "test_both_lookup_paths_match_the_scan_on_drawn_hnf_bases")),
    Mutant("residue-without-the-b12-term", "configs.py",
           "(x2 - q0 * b02 - q1 * b12) % f", "(x2 - q0 * b02) % f",
           _t("test_configs", "test_the_closed_form_residue_matches_the_row_by_row_reduction")),
    Mutant("contains-without-reduction", "configs.py",
           "return _reduce_site(site, self.basis) in self._occupied", "return site in self._occupied",
           _t("test_configs", "test_density_and_admissibility_match_oracles")),
    # canonical form
    Mutant("canonical-stops-after-the-first-translation", "configs.py",
           "return canonicalize(_config(list(pc.basis) + [d], pc.offsets, pc.context_d2))",
           "return _config(list(pc.basis) + [d], pc.offsets, pc.context_d2)",
           _t("test_configs", "test_canonical_form_matches_the_difference_scan_on_every_constructor")),
    Mutant("canonical-skips-the-last-difference", "configs.py",
           "for o in pc.offsets[1:]:", "for o in pc.offsets[1:-1]:",
           _t("test_configs", "test_canonical_form_matches_the_difference_scan_on_random_cells")),
    Mutant("canonical-checks-all-but-the-last-offset", "configs.py",
           "for s in pc.offsets)", "for s in pc.offsets[:-1])",
           _t("test_configs", "test_canonical_form_matches_the_difference_scan_on_every_constructor")),
    Mutant("canonical-drops-the-context", "configs.py",
           "list(pc.basis) + [d], pc.offsets, pc.context_d2)", "list(pc.basis) + [d], pc.offsets)",
           _t("test_configs", "test_canonical_form_matches_the_difference_scan_on_every_constructor")),
    # the context: checked once by make_config, inherited by derived cells, trusted by is_perfect
    Mutant("context-type-unchecked", "configs.py",
           "if context_d2 is not None and type(context_d2) is not int:", "if False:",
           _t("test_configs", "test_a_context_that_is_not_exactly_an_int_is_refused")),
    Mutant("derived-cell-offsets-not-reduced", "configs.py",
           "return _config(map(g.apply, self.basis), map(g.apply, self.offsets), self.context_d2)",
           "return PeriodicConfiguration(hnf(map(g.apply, self.basis)), "
           "tuple(map(g.apply, self.offsets)), self.context_d2)",
           _t("test_configs", "test_every_derived_cell_is_the_checked_cell_of_its_arguments_on_every_constructor")),
    Mutant("transform-drops-the-context", "configs.py",
           "map(g.apply, self.offsets), self.context_d2)", "map(g.apply, self.offsets), None)",
           _t("test_configs", "test_every_derived_cell_is_the_checked_cell_of_its_arguments_on_every_constructor")),
    Mutant("canonical-checks-its-derived-cells", "configs.py",
           "return canonicalize(_config(", "return canonicalize(make_config(",
           _t("test_configs", "test_derived_cells_are_not_checked_again")),
    Mutant("transform-checks-its-image", "configs.py",
           "return _config(map(g.apply", "return make_config(map(g.apply",
           _t("test_configs", "test_derived_cells_are_not_checked_again")),
    Mutant("perfect-trusts-a-lower-context", "configs.py",
           "and pc.context_d2 >= d2\n", "and pc.context_d2 >= 0\n",
           _t("test_configs", "test_perfection_undefined_below_the_packing_distance")),
    Mutant("perfect-trusts-a-missing-context", "configs.py",
           "trusted = pc.context_d2 is not None and", "trusted = pc.context_d2 is None or",
           _t("test_configs", "test_a_background_built_at_its_threshold_is_not_checked_again")),
    Mutant("bcc-built-without-its-context", "families.py",
           "[(0, 0, 0)], context_d2=3 * h * h)", "[(0, 0, 0)])",
           _t("test_configs", "test_a_background_built_at_its_threshold_is_not_checked_again")),
    Mutant("cubic-built-without-its-context", "families.py",
           "[(0, 0, 0)], context_d2=l * l)", "[(0, 0, 0)])",
           _t("test_configs", "test_a_background_built_at_its_threshold_is_not_checked_again")),
    Mutant("stack-checks-the-long-cell", "families.py",
           "cell = canonicalize(make_config([u, v, period], offsets))",
           "cell = canonicalize(make_config([u, v, period], offsets, context_d2=d2))",
           _t("test_configs", "test_a_layered_build_checks_the_hard_core_rule_on_its_canonical_cell")),
    # the density identity in integers
    Mutant("perfect-identity-numerator-and-denominator-swapped", "configs.py",
           "return n * c.numerator == pc.det * c.denominator", "return n * c.denominator == pc.det * c.numerator",
           _t("test_configs", "test_the_integer_density_identity_matches_the_fraction_oracle")),
    Mutant("perfect-shortcut-at-one-type-unchecked", "configs.py",
           "if d2 == 1 and type(d2) is int:\n        return n == pc.det", "if d2 == 1:\n        return n == pc.det",
           _t("test_configs", "test_the_integer_density_identity_of_z3_at_one_matches_the_fraction_oracle",
              "test_perfection_at_a_threshold_that_is_not_exactly_an_int_is_refused")),
    Mutant("perfect-identity-in-fractions", "configs.py",
           "return n * c.numerator == pc.det * c.denominator", "return density(pc) == 1 / c",
           _t("test_excitations", "test_a_report_over_a_trusted_background_builds_no_density_and_binds_no_keywords")),
    Mutant("gap-not-cached", "forces.py",
           "@lru_cache(maxsize=None)\ndef peierls_gap", "def peierls_gap",
           _t("test_forces", "test_each_ball_is_built_once_and_searched_on_every_cleared_call")),
    # the report: positional, over a background compared by identity first
    Mutant("report-energy-and-count-swapped", "excitations.py",
           "len(xi),\n        eta_sorted,\n        energy,", "energy,\n        eta_sorted,\n        len(xi),",
           _t("test_excitations", "test_a_report_over_a_trusted_background_builds_no_density_and_binds_no_keywords",
              "test_lowest_insertion_on_hcp")),
    Mutant("report-binds-a-keyword", "excitations.py",
           "        perfect,\n    )", "        background_perfect=perfect,\n    )",
           _t("test_excitations", "test_a_report_over_a_trusted_background_builds_no_density_and_binds_no_keywords")),
    Mutant("background-compared-by-identity-only", "excitations.py",
           "(insertion.pc is not pc and insertion.pc != pc)", "insertion.pc is not pc",
           _t("test_excitations", "test_a_report_over_a_trusted_background_builds_no_density_and_binds_no_keywords")),
    # excesses and the contour bound
    Mutant("deficit-weights-added", "excitations.py",
           "deficits[y] -= w[q]", "deficits[y] += w[q]",
           _t("test_excitations", "test_excesses_of_large_insertions_match_the_fraction_oracle")),
    Mutant("deficit-filter-dropped", "excitations.py",
           "if q < rsq:", "if True:",
           _t("test_excitations", "test_excesses_of_large_insertions_match_the_fraction_oracle")),
    Mutant("deficit-filter-one-short", "excitations.py",
           "if q < rsq:", "if q < rsq - 1:",
           _t("test_excitations", "test_excesses_of_large_insertions_match_the_fraction_oracle")),
    Mutant("deficit-weight-dropped-at-one", "excitations.py",
           "deficits[y] -= w[q]", "deficits[y] -= w[q] if q != 1 else 0",
           _t("test_cli", "test_the_bench_command_set_prints_its_recorded_bytes")),
    Mutant("report-fetches-the-neighbours-again", "excitations.py",
           "for (x0, x1, x2), ys in xi.items():",
           "for (x0, x1, x2), ys in ((x, pc.occupied_near(x, d2)) for x in xi):",
           _t("test_excitations", "test_the_excess_bookkeeping_fetches_each_inserted_sites_neighbours_once")),
    Mutant("classify-fetches-the-neighbours-again", "excitations.py",
           "_insertion_type(pc, *next(iter(xi.items())), d2)",
           "_insertion_type(pc, insertion.sites[0], pc.occupied_near(insertion.sites[0], d2), d2)",
           _t("test_excitations", "test_the_excess_bookkeeping_fetches_each_inserted_sites_neighbours_once")),
    Mutant("excess-table-one-short", "excitations.py",
           "for k in range(ft.den + 1))", "for k in range(ft.den))",
           _t("test_excitations", "test_the_excess_table_matches_the_fraction_oracle")),
    Mutant("contour-weights-of-xi-added", "excitations.py",
           "((1, eta), (-1, xi))", "((1, eta), (1, xi))",
           _t("test_excitations", "test_peierls_known_slacks")),
    # the sphere points and the sublattice boundary
    Mutant("sphere-x-bound-one-short", "sublattices.py",
           "range(math.isqrt(n // 3) + 1)", "range(math.isqrt(n // 3))",
           _t("test_sublattices", "test_sphere_points_are_the_disc_scans_each_once")),
    Mutant("sphere-y-bound-one-short", "sublattices.py",
           "range(x, math.isqrt(rem1 // 2) + 1)", "range(x, math.isqrt(rem1 // 2))",
           _t("test_sublattices", "test_sphere_points_are_the_disc_scans_each_once")),
    Mutant("sphere-sign-of-z-dropped", "sublattices.py",
           "for r in _signs(c)", "for r in (c,)",
           _t("test_sublattices", "test_sphere_points_are_the_disc_scans_each_once")),
    Mutant("sphere-y-from-zero", "sublattices.py",
           "range(x, math.isqrt(rem1 // 2) + 1)", "range(0, math.isqrt(rem1 // 2) + 1)",
           _t("test_sublattices", "test_sphere_points_are_the_disc_scans_each_once")),
    Mutant("sublattice-norm-type-unchecked", "sublattices.py",
           "if type(value) is not int or value < least:", "if value < least:",
           _t("test_sublattices", "test_a_norm_that_is_not_exactly_an_int_at_least_its_floor_is_refused")),
    # what a command loads and calls
    Mutant("init-imports-a-module-eagerly", "__init__.py",
           '__version__ = "0.1.0"\n', '__version__ = "0.1.0"\n\nfrom . import families  # noqa: E402\n',
           _t("test_hygiene", "test_a_command_loads_only_the_modules_it_runs")),
    Mutant("handler-bypasses-the-cli-attribute", "cli.py",
           "report = _cli.verify_forces(args.d2)",
           'report = __import__("latticegas.forces").forces.verify_forces(args.d2)',
           _t("test_cli", "test_each_traced_name_is_called_through_the_cli_attribute")),
    Mutant("pc-check-checks-twice", "cli.py",
           "perfect = admissible and _cli._perfect_density(pc, args.d2)",
           "perfect = admissible and _cli.is_perfect(pc, args.d2)",
           _t("test_cli", "test_pc_check_checks_the_hard_core_rule_once")),
    # equivalent mutants
    Mutant("deficit-filter-by-table-length", "excitations.py",
           "if q < rsq:", "if q < len(w):",
           _t("test_excitations", "test_excesses_of_large_insertions_match_the_fraction_oracle"),
           equivalent="a table has one weight per squared distance below ball_radius_sq, so len(w) is rsq"),
]


def matches(mutant: Mutant, src: pathlib.Path = SRC) -> bool:
    """Whether the mutant's fragment is in its file exactly once."""
    return (src / "latticegas" / mutant.file).read_text().count(mutant.fragment) == 1


def _outcome(done: subprocess.CompletedProcess) -> str:
    """'caught', 'survived' or 'error' for one pytest run of a mutant."""
    if done.returncode in (0, 1):
        return ("survived", "caught")[done.returncode]
    # a named module that fails to import shows as an error line of the summary
    return "caught" if any(line.startswith("ERROR tests/") for line in done.stdout.splitlines()) else "error"


def run(mutant: Mutant, src: pathlib.Path = SRC, seeds: Sequence[Optional[int]] = (None,)) -> str:
    """'caught', 'survived', 'flaky', 'stale' or 'error', as the module
    docstring says, for the mutant applied to a copy of src and its tests
    run once per seed (None: hypothesis picks one)."""
    if not matches(mutant, src):
        return "stale"
    outcomes = set()
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(shutil.copytree(src, pathlib.Path(tmp) / "src",
                                            ignore=shutil.ignore_patterns("__pycache__")))
        path = copy / "latticegas" / mutant.file
        path.write_text(path.read_text().replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        for seed in seeds:
            fixed = [] if seed is None else [f"--hypothesis-seed={seed}"]
            outcomes.add(_outcome(subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *fixed, *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True,
            )))
    if "error" in outcomes:
        return "error"
    return outcomes.pop() if len(outcomes) == 1 else "flaky"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the named mutants of the package.")
    parser.add_argument("--seeds", type=int, help="run each mutant's tests under the hypothesis seeds 0 .. N - 1")
    parser.add_argument("names", nargs="*", metavar="NAME")
    args = parser.parse_args(argv)
    names = args.names
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds takes a count of at least 1")
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutants named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    seeds = (None,) if args.seeds is None else range(args.seeds)
    bad = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        outcome = run(mutant, seeds=seeds)
        if mutant.equivalent and outcome == "survived":
            shown = f"equivalent ({mutant.equivalent})"
        else:
            shown = outcome if outcome == "caught" and not mutant.equivalent else outcome.upper()
            bad += shown != "caught"
        print(f"{shown:<10} {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
