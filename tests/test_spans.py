"""The contract between cudfkit and the benchmark's span recorder.

perfbench/spans.py measures each layer by wrapping module attributes
(SPANS and LEAVES), so every name it lists must exist, and each command
must call through those attributes: a name bound elsewhere at import
time would leave its wrapper uncalled and its layer's metrics at zero.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from cudfkit import cli

ROOT = Path(__file__).resolve().parents[1]
MTA = str(ROOT / "tests" / "golden" / "mta.cudf")
OPTIONAL = {"cudfkit.solver._kernel"}  # the compiled kernel need not be built


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()
NAMES = [(module, attr) for module, attr, _ in _spans.SPANS + _spans.LEAVES]

PARSE = {("cudfkit.textio", "parse_cudf"), ("cudfkit.types", "parse_value")}
SEMANTICS = {("cudfkit.semantics", "satisfies_request"),
             ("cudfkit.semantics", "is_consistent"),
             ("cudfkit.semantics", "is_successor")}
COSTS = PARSE | {("cudfkit.solver", "preset_costs")}


def test_every_span_name_resolves():
    for module, attr in NAMES:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            assert module in OPTIONAL, module
            continue
        assert callable(getattr(mod, attr)), (module, attr)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the calls made through each span name."""
    counts = Counter()
    for module, attr in NAMES:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            continue

        def counting(*args, _fn=getattr(mod, attr), _name=(module, attr), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counting)
    return counts


def _run(calls, argv, code=0):
    calls.clear()
    assert cli.main(argv) == code
    return set(calls)


def test_each_command_calls_through_the_names_of_its_layers(calls, tmp_path):
    solution = str(tmp_path / "mta.sol")
    assert _run(calls, ["check", MTA]) == PARSE | {("cudfkit.cli", "validate_document")}
    assert _run(calls, ["fmt", MTA]) == PARSE | {
        ("cudfkit.textio", "serialize_cudf"), ("cudfkit.textio", "validate_document"),
        ("cudfkit.types", "serialize_value")}
    assert _run(calls, ["cost", MTA, "--criterion", "min-new"]) == COSTS
    assert _run(calls, ["solve", MTA, "--criterion", "min-new", "--out", solution]) == (
        COSTS | SEMANTICS | {("cudfkit.solver", "solve"),
                             ("cudfkit.solver", "compile_problem"),
                             ("cudfkit.solver._kernel_py", "search"),
                             ("cudfkit.textio", "serialize_solution")})
    assert _run(calls, ["verify", "--problem", MTA, "--solution", solution]) == (
        PARSE | SEMANTICS | {("cudfkit.textio", "parse_solution"),
                             ("cudfkit.textio", "apply_solution")})
