"""Mutation check of the tier-1 suite: every mutant below must be killed.

    python tests/mutants.py            # every mutant
    python tests/mutants.py LABEL ...  # only these

Run from anywhere; pytest does not collect this file.  The runner copies
the source tree to a temporary directory, checks that tier-1 passes there
unchanged, then for each mutant applies its one edit (the old text must
occur exactly once) and runs tier-1 with `-x -q`.  A mutant is killed
when a test fails; one that passes the whole suite is a survivor, and
any survivor fails the run.  The test file or test (a pytest node id)
named for the mutant runs first, in a pytest call of its own, only so
that a kill comes sooner; tier-1 runs only if it passes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEXTIO = "src/cudfkit/textio.py"
MODEL = "src/cudfkit/model.py"
TYPES = "src/cudfkit/types.py"

# (label, file, old text, new text, test file or node id run first)
MUTANTS = (
    # The reader's one walk over the lines.
    ("junk errors interleaved in line order", TEXTIO,
     "recovered_errors=junk + dropped",
     "recovered_errors=sorted(junk + dropped, key=lambda e: e.line)",
     "tests/test_textio.py::test_only_a_postmark_with_its_space_opens_a_stanza"),
    ("any whitespace makes a blank line", TEXTIO,
     'sep or line.strip(" \\t")', "sep or line.strip()",
     "tests/test_textio.py::test_only_spaces_and_tabs_make_a_blank_line"),
    ("a dropped stanza's bytes end at its last line", TEXTIO,
     "byte_range(*bounds[index])", "byte_range(bounds[index][0], bounds[index][1] - 1)",
     "tests/test_textio.py::test_overlong_numbers_and_crlf_keep_their_lines_and_byte_ranges"),
    ("a later error replaces a stanza's first", TEXTIO,
     "            elif error is not None:\n                continue\n", "",
     "tests/test_textio.py::test_a_dropped_stanza_reports_its_first_error"),
    ("a repeated core property overwrites the first", TEXTIO,
     "if mask & bit:", "if mask & bit and slot is None:",
     "tests/test_textio.py::test_recovery_reasons"),
    ("extras left unsorted", TEXTIO,
     "extras.sort()\n", "\n",
     "tests/test_textio.py::test_reader_matches_oracle_reader"),
    ("a registered default not filled", TEXTIO,
     "in defaults:", "in ():",
     "tests/test_model.py"),
    ("a solution stanza without Installed reads as not installed", TEXTIO,
     '[_PACKAGE_SLOTS["Installed"]] = solution', '[_PACKAGE_SLOTS["Installed"]] = False',
     "tests/test_textio.py::test_solution_stanza_without_installed_reads_as_installed"),
    ("CR stripped only before a newline", TEXTIO,
     '        lines = text.split("\\n")\n'
     '        if "\\r" in text:\n'
     '            lines = [line[:-1] if line.endswith("\\r") else line for line in lines]\n',
     '        lines = text.replace("\\r\\n", "\\n").split("\\n")\n',
     "tests/test_textio.py::test_a_carriage_return_is_stripped_at_the_end_of_the_data_too"),
    ("Package: without its space opens a stanza", TEXTIO,
     'if sep and (name == "Package" or name == "Problem") or',
     'if line.startswith(("Package:", "Problem:")) or',
     "tests/test_textio.py::test_only_a_postmark_with_its_space_opens_a_stanza"),
    # Solution files.
    ("a solution's junk line passes", TEXTIO,
     "    if junk:\n        raise MalformedSolution(junk[0].reason)\n", "",
     "tests/test_textio.py::test_solution_junk_line_is_malformed_even_after_a_malformed_stanza"),
    ("a solution's problem stanza is skipped", TEXTIO,
     "                    if self.solution:\n                        error = _ONLY_PACKAGES\n",
     "",
     "tests/test_textio.py::test_solution_problem_stanza_is_malformed"),
    # The writer.
    ("Installed: false written", TEXTIO,
     '    if item.installed:\n        out += f"Installed:',
     '    if item.installed is not None:\n        out += f"Installed:',
     "tests/test_textio.py::test_canonical_serialization_omits_defaults"),
    ("a default-equal list built elsewhere written", TEXTIO,
     "if item.conflicts._lexical:", "if item.conflicts is not EMPTY_LIST:",
     "tests/test_textio.py::test_writer_matches_oracle_writer_on_constructor_built_values"),
    ("clauses read before the kept text", TEXTIO,
     "if item.depends._lexical:", "if item.depends.clauses and item.depends._lexical:",
     "tests/test_textio.py::test_check_fmt_and_an_over_budget_solve_build_no_atoms"),
    # Dependency values: canonical text, kept by every formula and list.
    ("constructor text joined by ','", TYPES,
     '_set_list_lexical(self, ", ".join(', '_set_list_lexical(self, ",".join(',
     "tests/test_types.py::test_serialize_canonical_forms"),
    ("is_true always False", TYPES,
     "        return not self._lexical\n", "        return False\n",
     "tests/test_types.py::test_the_empty_values_keep_empty_text"),
    ("serialize_value returns '' for a True formula", TYPES,
     'raise SerializeError("the True formula has no lexical form")', 'return ""',
     "tests/test_types.py::test_serialize_canonical_forms"),
    ("a non-canonical spelling kept verbatim", TYPES,
     "lexical = _canonical_text(lexical, type_tag)", "_canonical_text(lexical, type_tag)",
     "tests/test_types.py"),
    ("the veqpkglist '='-only test skipped for kept text", TYPES,
     'if type_tag == "veqpkglist" and not is_subtype_value(lst, "veqpkglist"):',
     "if False:",
     "tests/test_types.py"),
    ("is_subtype_value's kept veqpkglist text always passes", TYPES,
     'return "<" not in text and ">" not in text and "!" not in text', "return True",
     "tests/test_types.py"),
    # The validator.
    ("a bad Provides value cached as good", MODEL,
     "            if types.is_subtype_value(provides, \"veqpkglist\"):\n"
     "                good_provides.add(id(provides))\n            else:\n",
     "            good_provides.add(id(provides))\n"
     "            if not types.is_subtype_value(provides, \"veqpkglist\"):\n",
     "tests/test_model.py"),
    # Survivors of earlier hand-run mutation checks.
    ("serialize_request compares with == first", TEXTIO,
     'if value._lexical:\n            out += f"{name}:',
     'if value != EMPTY_LIST:\n            out += f"{name}:',
     "tests/test_textio.py::test_check_fmt_and_an_over_budget_solve_build_no_atoms"),
    ('preset_costs("min-new") ignores Upgrade', "src/cudfkit/solver/__init__.py",
     "list(request.install.items) + list(request.upgrade.items)",
     "list(request.install.items)",
     "tests/test_solver.py"),
    ("cost fixing one cost step weaker", "src/cudfkit/solver/_kernel_py.py",
     "heavy[bisect_left(steps, slack)]", "heavy[bisect_left(steps, slack) + 1]",
     "tests/test_solver.py"),
    # The semantics checker, the compiler and the search.
    ("a stanza's conflict with itself counts", "src/cudfkit/semantics.py",
     "index.provided(atom, exclude_key=item.key)", "index.provided(atom)",
     "tests/test_semantics.py::test_self_conflict_is_ignored"),
    ("the installed version counts as below the upgrade floor", "src/cudfkit/solver/_compile.py",
     "stanzas[j].version < floor", "stanzas[j].version <= floor",
     "tests/test_solver.py::test_search_matches_exhaustive_oracle"),
    ("a two-bit clause propagated as a unit", "src/cudfkit/solver/_kernel_py.py",
     "if clause & (clause - 1):",
     "if clause & (clause - 1) & (clause & (clause - 1)) - 1:",
     "tests/test_solver.py::test_search_matches_exhaustive_oracle"),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench", ".benchmarks", "*.egg-info")


def tier1(tree, first=None):
    """pytest's exit code for tier-1 in `tree`, stopping at the first
    failure; the test file `first` runs alone before it.  (Named beside
    "tests", the file would be collected as part of the directory, in
    the directory's order.)"""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors"]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    for paths in ([first], ["tests"]) if first else (["tests"],):
        code = subprocess.run(argv + paths, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=900).returncode
        if code != 0:
            return code
    return 0


def mutate(tree, path, old, new):
    target = Path(tree) / path
    text = target.read_text()
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{path}: the mutated text occurs {count} times, not once: {old!r}")
    target.write_text(text.replace(old, new))
    return text


def main(argv=None):
    labels = set(sys.argv[1:] if argv is None else argv)
    chosen = [m for m in MUTANTS if not labels or m[0] in labels]
    if labels - {m[0] for m in chosen}:
        raise SystemExit(f"unknown mutants: {sorted(labels - {m[0] for m in chosen})}")
    with tempfile.TemporaryDirectory(prefix="cudfkit-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORE)
        if tier1(tree) != 0:
            raise SystemExit("tier-1 fails on the unmutated tree")
        survivors = []
        for label, path, old, new, first in chosen:
            original = mutate(tree, path, old, new)
            start = time.perf_counter()
            try:
                code = tier1(tree, first)
            finally:
                (tree / path).write_text(original)
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{outcome:10s} {time.perf_counter() - start:6.1f} s  {label}", flush=True)
            if code != 1:
                survivors.append(label)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
