"""Mutation check of the tier-1 suite: every mutant below must be killed.

    python tests/mutants.py            # every mutant
    python tests/mutants.py LABEL ...  # only these

Run from anywhere; pytest does not collect this file.  The runner copies
the source tree to a temporary directory, checks that tier-1 passes there
unchanged, then for each mutant applies its one edit (the old text must
occur exactly once) and runs, with `-x -q`, the test file or test (a
pytest node id) named for it.  A mutant is killed when that test fails.
When it passes, tier-1 runs: a mutant that tier-1 kills is reported as
`killed, not by <test>` (the name is stale), and one that passes tier-1
too is a survivor.  A pytest call that runs past TIMEOUT_S is stopped and
its mutant reported as `timed out`.  Each of these fails the run.
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
SEMANTICS = "src/cudfkit/semantics.py"
COMPILE = "src/cudfkit/solver/_compile.py"
KERNEL = "src/cudfkit/solver/_kernel_py.py"
DUDF = "src/cudfkit/dudf.py"
SOLVER = "src/cudfkit/solver/__init__.py"
CLI = "src/cudfkit/cli.py"
TIMEOUT_S = 900  # per pytest call

# (label, file, old text, new text, test file or node id that kills it)
MUTANTS = (
    # The reader's one walk over the lines.
    ("junk errors interleaved in line order", TEXTIO,
     "return packages, requests, junk + dropped",
     "return packages, requests, sorted(junk + dropped, key=lambda e: e.line)",
     "tests/test_textio.py::test_only_a_postmark_with_its_space_opens_a_stanza"),
    ("any whitespace makes a blank line", TEXTIO,
     'sep or line.strip(" \\t")', "sep or line.strip()",
     "tests/test_textio.py::test_only_spaces_and_tabs_make_a_blank_line"),
    ("a dropped stanza's bytes end at its last line", TEXTIO,
     "dropped.append((len(bounds) - 1, first, number, error))",
     "dropped.append((len(bounds) - 1, first, number - 1, error))",
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
     '        raw = lines = text.split("\\n")\n'
     '        if "\\r" in text:\n'
     '            lines = [line[:-1] if line.endswith("\\r") else line for line in raw]\n',
     '        raw = text.split("\\n")\n'
     '        lines = text.replace("\\r\\n", "\\n").split("\\n")\n',
     "tests/test_textio.py::test_a_carriage_return_is_stripped_at_the_end_of_the_data_too"),
    ("byte offsets read from the CR-stripped lines", TEXTIO,
     '"".join(raw[at - 1:number - 1])', '"".join(lines[at - 1:number - 1])',
     "tests/test_textio.py::test_overlong_numbers_and_crlf_keep_their_lines_and_byte_ranges"),
    ("the end-of-data cut dropped", TEXTIO,
     "before[number], at = min(offset, len(data)), number", "before[number], at = offset, number",
     "tests/test_textio.py::test_splitter_matches_line_oracle"),
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
     "    if not member(lst):", "    if False:",
     "tests/test_types.py"),
    ("the table mapping vpkglist to the veqpkglist parser", TYPES,
     '"vpkglist": _checked("vpkglist", _parse_vpkglist,',
     '"vpkglist": _checked("veqpkglist", _parse_vpkglist,',
     "tests/test_types.py::test_parse_value_dispatches_as_the_chain_of_tag_tests"),
    ("is_subtype_value's kept veqpkglist text always passes", TYPES,
     'return "<" not in text and ">" not in text and "!" not in text', "return True",
     "tests/test_types.py"),
    # The member test of each named type, stated once in the type table.
    ("bool admits an int", TYPES,
     '"bool": (_parse_bool, lambda value: isinstance(value, bool)),',
     '"bool": (_parse_bool, lambda value: isinstance(value, int)),',
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("int admits a bool", TYPES,
     "return isinstance(n, int) and not isinstance(n, bool)", "return isinstance(n, int)",
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("nat admits -1", TYPES,
     "_is_int(value) and value >= 0", "_is_int(value) and value >= -1",
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("posint admits 0", TYPES,
     "(type(n) is int or _is_int(n)) and n >= 1", "(type(n) is int or _is_int(n)) and n >= 0",
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("posint's exact-type shortcut admits a bool", TYPES,
     "(type(n) is int or _is_int(n)) and n >= 1", "isinstance(n, int) and n >= 1",
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("string admits bytes", TYPES,
     '(str, lambda value: isinstance(value, str))', '(str, lambda value: isinstance(value, (str, bytes)))',
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("oneliner admits a carriage return", TYPES,
     'and "\\n" not in s and "\\r" not in s', 'and "\\n" not in s',
     "tests/test_model.py::test_validate_matches_naive_validator_on_injected_faults"),
    ("vpkg admits a list", TYPES,
     "_parse_vpkg, lambda value: isinstance(value, VPkg)),",
     "_parse_vpkg, lambda value: isinstance(value, (VPkg, VpkgList))),",
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("veqpkg admits every relop", TYPES,
     'value.constraint.is_top or value.constraint.relop == "="', "True",
     "tests/test_types.py::test_parse_veqpkg_restricts_relops"),
    ("vpkglist admits a formula", TYPES,
     "_parse_vpkglist, lambda value: isinstance(value, VpkgList)),",
     "_parse_vpkglist, lambda value: isinstance(value, (VpkgList, VpkgFormula))),",
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    ("vpkgformula admits a list", TYPES,
     "lambda value: isinstance(value, VpkgFormula)),",
     "lambda value: isinstance(value, (VpkgFormula, VpkgList))),",
     "tests/test_types.py::test_is_subtype_value_answers_as_the_chain_of_tag_tests"),
    # Numbers with more digits than the interpreter writes.
    ("serialize_value lets the digit limit's ValueError escape", TYPES,
     "    except ValueError:  # more digits than the interpreter writes\n        raise SerializeError",
     "    except TypeError:\n        raise SerializeError",
     "tests/test_types.py::test_serialize_value_refuses_numbers_it_cannot_write"),
    ("a list's constructor writes its atoms past the digit check", TYPES,
     '", ".join([serialize_value(item) for item in self.items])',
     '", ".join([serialize_vpkg(item) for item in self.items])',
     "tests/test_types.py::test_a_list_or_formula_of_an_atom_it_cannot_write_is_refused"),
    ("a Version with too many digits to write passes", MODEL,
     "elif version >= _ALWAYS_WRITABLE and not _has_one_line_form(version):", "elif False:",
     "tests/test_model.py::test_validate_reports_numbers_with_more_digits_than_the_interpreter_writes"),
    ("a duplicate at an unwritable Version raises", MODEL,
     '        detail = f"duplicate stanza for {name} at a version', '        raise\n        f"',
     "tests/test_model.py::test_validate_reports_numbers_with_more_digits_than_the_interpreter_writes"),
    ("cost printed through str", CLI,
     "print(_decimal(solver.installation_cost(doc, costs)))",
     "print(solver.installation_cost(doc, costs))",
     "tests/test_cli.py::test_cost_and_solve_print_a_cost_past_the_digit_limit"),
    ("the digit limit left lifted", CLI,
     "            sys.set_int_max_str_digits(limit)", "            pass",
     "tests/test_cli.py::test_cost_and_solve_print_a_cost_past_the_digit_limit"),
    ("phase 1 starts at a float bound", KERNEL,
     "descend(sum(c for c in costs if c > 0) + 1, False)", 'descend(float("inf"), False)',
     "tests/test_solver.py::test_solve_prices_an_installed_size_past_float_range"),
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
    ('preset_costs("min-new") ignores Upgrade', SOLVER,
     "list(request.install.items) + list(request.upgrade.items)",
     "list(request.install.items)",
     "tests/test_solver.py"),
    ("cost fixing one cost step weaker", KERNEL,
     "heavy[bisect_left(steps, slack)]", "heavy[bisect_left(steps, slack) + 1]",
     "tests/test_solver.py"),
    # The semantics checker, the compiler and the search.
    ("a stanza's conflict with itself counts", SEMANTICS,
     "index.provided(atom, exclude_key=item.key)", "index.provided(atom)",
     "tests/test_semantics.py::test_self_conflict_is_ignored"),
    ("the key stored as (version, name)", MODEL,
     "item.key = (item.name, item.version)", "item.key = (item.version, item.name)",
     "tests/test_model.py::test_every_package_item_stores_its_key"),
    # Records built on their twins take their own classes back.
    ("a built stanza keeps its twin's class", MODEL,
     "    item.__class__ = PackageItem\n", "",
     "tests/test_record.py::test_no_record_escapes_as_its_twin"),
    ("atoms keep their twins' class", TYPES,
     "            constraint.__class__ = VersionConstraint\n"
     "            atom.constraint = constraint\n"
     "        else:\n"
     "            atom.constraint = TOP\n"
     "        atom.__class__ = VPkg\n",
     "            atom.constraint = constraint\n"
     "        else:\n"
     "            atom.constraint = TOP\n",
     "tests/test_record.py::test_no_record_escapes_as_its_twin"),
    ("consistency handed the index over the original installation", SEMANTICS,
     "consistency=is_consistent(after, index),",
     "consistency=is_consistent(after, _installed_index(before)),",
     "tests/test_semantics.py::test_request_embeds_consistency"),
    ("the installed version counts as below the upgrade floor", COMPILE,
     "stanzas[j].version < floor", "stanzas[j].version <= floor",
     "tests/test_solver.py::test_search_matches_exhaustive_oracle"),
    ("a two-bit clause propagated as a unit", KERNEL,
     "if clause & (clause - 1):",
     "if clause & (clause - 1) & (clause & (clause - 1)) - 1:",
     "tests/test_solver.py::test_search_matches_exhaustive_oracle"),
    ("the successor's metadata ignores Provides", SEMANTICS,
     "return (p.keep, p.depends, p.conflicts, p.provides)",
     "return (p.keep, p.depends, p.conflicts)",
     "tests/test_semantics.py::test_successor_metadata_frozen[provides]"),
    ("the successor's metadata ignores Keep", SEMANTICS,
     "return (p.keep, p.depends, p.conflicts, p.provides)",
     "return (p.depends, p.conflicts, p.provides)",
     "tests/test_semantics.py::test_successor_metadata_frozen[keep]"),
    ("the successor's identity shortcut skips every metadata comparison", SEMANTICS,
     "if p is not first_after[key]", "if False",
     "tests/test_index.py::test_successor_reads_the_first_stanza_of_each_key_in_any_order"),
    ("the successor's domain check skipped", SEMANTICS,
     "for key in sorted(first_before.keys() ^ first_after.keys()):", "for key in ():",
     "tests/test_semantics.py::test_successor_reflexive_and_domain_fixed"),
    ("FeatureIndex.provided ignores exclude_key", SEMANTICS,
     "any(stanzas[i].key != exclude_key for i in matches)", "any(True for i in matches)",
     "tests/test_index.py::test_self_conflict_through_own_provide"),
    ("an unversioned provide matches any constraint", SEMANTICS,
     "any_version if v is ALL", "True if v is ALL",
     "tests/test_semantics.py::test_constraint_satisfaction"),
    ("keep 'feature checked with any", SEMANTICS,
     'keep == "feature" and not all(', 'keep == "feature" and not any(',
     "tests/test_verdict_golden.py::test_verify_json_payload_is_pinned[keep-feature]"),
    ("an upgrade to the same version counts as older", SEMANTICS,
     "any(n < m for m in", "any(n <= m for m in",
     "tests/test_semantics.py::test_upgrade_triple"),
    ("the upgrade singleton test lets no version pass", SEMANTICS,
     "if len(after_versions) != 1:", "if len(after_versions) > 1:",
     "tests/test_semantics.py::test_upgrade_requires_singleton_and_dominance"),
    ("conflicts compiled one way", COMPILE,
     "                    exclusions[j] |= 1 << i\n", "",
     "tests/test_index.py::test_package_providing_its_own_name"),
    ("the keep 'package clause dropped", COMPILE,
     "clauses.append(_bits(index.by_name[item.name]))", "pass",
     "tests/test_index.py::test_keep_package_group_and_upgrade_bits_from_name_index"),
    ("the zeros of Remove dropped", COMPILE,
     "zeros = _bits(j for atom in request.remove.items for j in index.matches(atom))",
     "zeros = 0",
     "tests/test_index.py::test_compiled_masks_match_scan_oracle"),
    ("the budget admits exactly 2**k candidates no longer", SOLVER,
     "(1 << k) > budget", "(1 << k) >= budget",
     "tests/test_solver.py::test_budget_exceeded"),
    ("a node at the bound's edge is kept", KERNEL,
     "if slack <= 0:", "if slack < 0:",
     "tests/test_solver.py::test_search_bound_counts_negative_costs"),
    ("phase 2 takes the exclude branch first", KERNEL,
     "                stack += [exclude, include]\n        return best_mask",
     "                stack += [include, exclude]\n        return best_mask",
     "tests/test_solver.py::test_search_matches_exhaustive_oracle"),
    ("phase 2 without its rest clause", KERNEL,
     "clauses + [rest], cost,", "clauses, cost,",
     "tests/test_solver.py::test_phase_two_skips_the_leaf_it_tried_first"),
    ("main runs with the collector on", CLI,
     "with textio.collector_paused():", "if True:",
     "tests/test_cli.py::test_commands_run_with_the_collector_off"),
    ("verify parses the problem before the solution", CLI,
     "    entries = textio.parse_solution(_read(args.solution))  # needs no problem: read first\n"
     "    problem = _read_problem(args.problem)\n",
     "    problem = _read_problem(args.problem)\n"
     "    entries = textio.parse_solution(_read(args.solution))\n",
     "tests/test_cli.py::test_verify_refuses_a_bad_solution_before_it_parses_the_problem"),
    # The DUDF reader: the skeleton table read through its one child check.
    ("a leaf read without its child check", DUDF,
     "if part.tag:  # a hole", "if part.tag and kind is _HOLE:  # a hole",
     "tests/test_dudf.py::test_markup_inside_a_leaf_or_hole_is_refused"),
    ("an optional part read as required", DUDF,
     "optional=[tag for part, tag in inside.items() if part.occurs == _OPTIONAL]",
     "optional=[]",
     "tests/test_dudf.py::test_xml_roundtrip_examples"),
    ("an element out of order accepted", DUDF,
     "if names.index(name) < last:", "if False:",
     "tests/test_dudf.py::test_an_element_out_of_order_is_refused"),
    ("a misspelt dudf: attribute accepted", DUDF,
     "if name == attribute or name not in attributes:", "if name == attribute:",
     "tests/test_dudf.py::test_an_unexpected_attribute_of_the_golden_submission_is_refused"),
    ("a repeated single element accepted", DUDF,
     "elif found.get(name) is not None:", "elif False:",
     "tests/test_dudf.py::test_a_second_copy_of_a_single_element_is_refused"),
    ("processing instructions dropped by the XML parser", DUDF,
     "ET.TreeBuilder(insert_comments=True, insert_pis=True)",
     "ET.TreeBuilder(insert_comments=True)",
     "tests/test_dudf.py::test_a_processing_instruction_in_any_element_is_refused"),
    ("comments dropped by the XML parser", DUDF,
     "ET.TreeBuilder(insert_comments=True, insert_pis=True)", "ET.TreeBuilder(insert_pis=True)",
     "tests/test_dudf.py::test_a_comment_in_any_element_is_refused"),
    ("a processing instruction read as an element", DUDF,
     "if markup is not None:", "if False:",
     "tests/test_dudf.py::test_a_processing_instruction_in_any_element_is_refused"),
    ("a comment reported as a processing instruction", DUDF,
     '"comment" if markup is ET.Comment else "processing instruction"',
     '"processing instruction"',
     "tests/test_dudf.py::test_a_comment_in_any_element_is_refused"),
    ("an unknown encoding escapes the reader", DUDF,
     "except (ET.ParseError, LookupError) as exc:", "except ET.ParseError as exc:",
     "tests/test_dudf.py::test_an_unknown_encoding_is_refused"),
    # The DUDF writer and the validator's walk over what it writes.
    ("dudf:filename dropped", DUDF,
     '        _Part("filename", "filename", _ATTRIBUTE, _OPTIONAL),\n', "",
     "tests/test_dudf.py::test_xml_roundtrip_examples"),
    ("a carriage return written as it is", DUDF,
     '.replace(b"\\r", b"&#13;")', "",
     "tests/test_dudf.py::test_a_carriage_return_in_text_is_written_as_a_character_reference"),
    ("an intensional hole's reference written as text", DUDF,
     'target.set(f"dudf:{_REFERENCE}", value.reference)', "target.text = value.reference",
     "tests/test_dudf.py::test_xml_roundtrip_examples"),
    ("a character outside XML written", DUDF,
     "bad = _NOT_XML_CHAR.search(text)", "bad = None",
     "tests/test_dudf.py::test_text_that_xml_cannot_carry_is_refused_before_it_is_written"),
    ("a lone surrogate taken for an XML character", DUDF,
     "\\x20-\\ud7ff\\ue000", "\\x20-\\udfff\\ue000",
     "tests/test_dudf.py::test_text_that_xml_cannot_carry_is_refused_before_it_is_written"),
    ("attribute values not checked for XML characters", DUDF,
     '            elem.set(f"dudf:{part.tag}", value)\n            texts.append((where, value))\n',
     '            elem.set(f"dudf:{part.tag}", value)\n',
     "tests/test_dudf.py::test_a_character_xml_cannot_carry_is_reported_at_its_path"),
    ("a table part left out of the written-text walk", DUDF,
     'texts.append((f"{where}/{tag}", leaf))', "pass",
     "tests/test_dudf.py::test_a_character_xml_cannot_carry_is_reported_at_its_path"),
    ("the type check skipped", DUDF,
     "if not isinstance(value, wanted) or kind is _PAIR and len(value) != 2:", "if False:",
     "tests/test_dudf.py::test_a_part_of_the_wrong_type_is_reported_at_its_path"),
    # DUDF to CUDF: each hole read by the CUDF reader under its own rule.
    ("a package hole's problem stanza accepted", DUDF,
     "if requests:", "if False:",
     "tests/test_dudf.py::test_toy_convert_holes"),
    ("the action hole's exactly-one-request test weakened", DUDF,
     "if len(requests) != 1 or errors:", "if not requests or errors:",
     "tests/test_dudf.py::test_each_hole_is_read_by_the_cudf_reader_under_its_own_rule"),
    # The validator's rules.
    ("a duplicate key passes", MODEL,
     "        if key in seen:\n", "        if False:\n",
     "tests/test_model.py::test_validate_reports_duplicates_and_type_errors"),
    ("an extra may be named Problem", MODEL,
     'not (name in core or name == "Problem")', "not (name in core)",
     "tests/test_model.py::test_validate_refuses_an_extra_named_problem"),
    ("Keep's enum symbols not checked", MODEL,
     "and keep.symbols == KEEP_SYMBOLS)", ")",
     "tests/test_model.py::test_keep_symbols_must_be_the_core_three"),
    ("an enum tag with a ')' inside recognised", TYPES,
     'or ")" in inner:', ":",
     "tests/test_types.py::test_enum_tags_read_as_the_old_pattern_read_them"),
    # Costs and the solver's answer.
    ("download-size left non-zero for installed stanzas", SOLVER,
     "size = 0  # already on disk", "pass  # already on disk",
     "tests/test_solver.py::test_size_presets"),
    ("the search's cost trusted", SOLVER,
     "if cost != best_cost:", "if False:",
     "tests/test_solver.py::test_solve_refuses_a_search_cost_that_its_candidate_does_not_have"),
    ("with_installed always rebuilds", MODEL,
     "        if self.installed is flag:\n            return self\n", "",
     "tests/test_solver.py::test_solve_shares_the_stanzas_whose_flag_does_not_change"),
    ("solve answers in document order", SOLVER,
     "for i, p in enumerate(problem.stanzas)\n    ), request=request)",
     "for i, p in enumerate(problem.stanzas)\n    ), request=request)\n"
     "    solution = CudfDocument(packages=tuple(sorted(solution.packages, key=lambda p: [\n"
     "        q.key for q in doc.packages].index(p.key))), request=request)",
     "tests/test_solver.py::test_solve_shares_the_stanzas_whose_flag_does_not_change"),
    ("has_default true on None", MODEL,
     "return self.default is not None", "return True",
     "tests/test_model.py::test_core_package_schema_table"),
)

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench", ".benchmarks", "*.egg-info")


def pytest_code(tree, target):
    """pytest's exit code for `target` (a test file, a node id or
    "tests") in `tree`, stopping at the first failure, or None when the
    call ran past TIMEOUT_S and was stopped.  (Named beside "tests", a
    file would be collected as part of the directory, in the directory's
    order, so each target runs in a call of its own.)"""
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", target]
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        return subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def outcome(tree, target):
    """How the mutated tree fares against the test `target` named for it."""
    code = pytest_code(tree, target)
    verdicts = {1: "killed"}
    if code == 0:
        code = pytest_code(tree, "tests")
        verdicts = {0: "SURVIVED", 1: f"killed, not by {target}"}
    if code is None:
        return "timed out"
    return verdicts.get(code, f"error (pytest exit {code})")


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
        if pytest_code(tree, "tests") != 0:
            raise SystemExit("tier-1 fails or times out on the unmutated tree")
        failures = []
        for label, path, old, new, target in chosen:
            original = mutate(tree, path, old, new)
            start = time.perf_counter()
            try:
                result = outcome(tree, target)
            finally:
                (tree / path).write_text(original)
            print(f"{result:10s} {time.perf_counter() - start:6.1f} s  {label}", flush=True)
            if result != "killed":
                failures.append(label)
    print(f"{len(chosen) - len(failures)} of {len(chosen)} mutants killed by the test they name")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
