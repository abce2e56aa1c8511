"""The package's public names, the names the benchmark wraps, and the
README's library examples."""

import importlib
import importlib.util
import re
from pathlib import Path

import scorelang

MODULES = ("syntax", "parser", "state", "semantics", "harness")

PUBLIC = [
    "AbortRecord",
    "Aborted",
    "Cell",
    "CheckCounts",
    "DEFAULT_CELL",
    "Dec",
    "EvalError",
    "Fail",
    "FailureCorrespondence",
    "Final",
    "For",
    "FuzzReport",
    "FuzzWitness",
    "GenConfig",
    "Identifier",
    "IllFormedProgramError",
    "Inc",
    "NonzeroCounterError",
    "ParseError",
    "Pass",
    "Pop",
    "Program",
    "Push",
    "RunOutcome",
    "Seq",
    "Skip",
    "State",
    "Term",
    "TraceStep",
    "Verdict",
    "Violation",
    "__version__",
    "check_agreement_a_r",
    "check_failure_correspondence",
    "check_strong_reversibility",
    "check_weak_reversibility_a",
    "check_well_formed",
    "compile_program",
    "dump_state",
    "eval_a",
    "eval_n",
    "eval_r",
    "eval_traced",
    "exhaustive_pop_injective",
    "exhaustive_pop_push_inverse",
    "gen_state",
    "gen_term",
    "invert",
    "is_identifier",
    "minimize",
    "parse",
    "parse_state",
    "parse_state_declarations",
    "pop_r",
    "pretty",
    "push_r",
    "run_fuzz",
    "variables_of",
    "zero_counters",
]


def test_public_names_are_pinned():
    assert sorted(scorelang.__all__) == PUBLIC


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from scorelang import *", namespace)
    assert all(namespace[name] is getattr(scorelang, name) for name in PUBLIC)


def test_package_names_are_the_modules_lists():
    lists = [importlib.import_module(f"scorelang.{module}").__all__ for module in MODULES]
    names = [name for names in lists for name in names]
    assert len(names) == len(set(names)), "a name sits in two modules' __all__"
    assert scorelang.__all__ == ["__version__", *names]


def test_benchmark_traces_existing_functions():
    """Every function that bench/tracing.py wraps exists where it looks for
    it, so a renamed function fails here rather than in a traced run."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, functions in tracing.TRACED.items():
        namespace = importlib.import_module(f"scorelang.{module}")
        missing = [name for name in functions if not callable(getattr(namespace, name, None))]
        assert not missing, f"scorelang.{module} lacks {missing}"


def test_readme_library_examples_run(capsys):
    """README.md's ```python blocks, run in order in one namespace, give
    what their comments say: the printed inverse and the variables."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(block, namespace)
    assert capsys.readouterr().out == "FOR x { POP s }; FOR x { PUSH s }\n"
    assert namespace["program"].variables == ("x", "s")
