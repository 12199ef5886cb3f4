"""What code outside the package relies on: the names the README and the benchmark use,
the examples the README and ``docs/formats.md`` show, and imports from the standard
library alone."""

import ast
import re
import sys
import types
from pathlib import Path

import mlpsched
from mlpsched.experiments import load_experiment
from mlpsched.workload import load_trace, save_trace

ROOT = Path(__file__).resolve().parent.parent


def readme_example():
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return block


def test_readme_example_runs_and_imports_exactly_the_package_names(capsys):
    source = readme_example()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "mlpsched"
        for alias in node.names
    }
    assert imported == set(mlpsched.__all__) - {"__version__"}
    exec(compile(source, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3 and float(lines[0]) > 0


def test_the_format_docs_examples_load(tmp_path):
    # The first json block is a whole config; the trace example loads, and
    # save_trace writes it back byte for byte.
    text = (ROOT / "docs" / "formats.md").read_text(encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(re.search(r"```json\n(.*?)```", text, re.S).group(1), encoding="utf-8")
    load_experiment(str(config))
    trace, saved = tmp_path / "trace.csv", tmp_path / "saved.csv"
    trace.write_text(re.search(r"```\n(mlpsched-trace 1\n.*?)```", text, re.S).group(1), encoding="utf-8")
    save_trace(load_trace(str(trace)), str(saved))
    assert saved.read_bytes() == trace.read_bytes()


def test_benchmark_hooks_exist():
    # perfbench/traced.py rebinds each WRAPPED name in its module; a missing
    # name makes every traced benchmark run fail.  The file is compiled from
    # its text, so no bytecode is written next to it.
    path = ROOT / "perfbench" / "traced.py"
    traced = types.ModuleType("traced")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), traced.__dict__)
    assert traced.WRAPPED
    for module, name, _layer, _describe in traced.WRAPPED:
        assert callable(getattr(module, name)), f"{module.__name__}.{name}"


def test_the_package_imports_only_the_standard_library():
    # The north star's zero-dependency rule, on every import statement of
    # every module, nested ones included: each names the package itself or
    # a module of the standard library.
    for path in sorted((ROOT / "src" / "mlpsched").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["mlpsched" if node.level else node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "mlpsched" or top in sys.stdlib_module_names, f"{path.name}: {name}"
