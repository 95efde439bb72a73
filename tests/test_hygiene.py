"""Source hygiene: each module of `feather` uses every name it imports, every
function of the package is read somewhere in it, the package exports what
`__all__` lists, a run imports and compiles only what it needs, the TVL
lexicon keeps to its compile budget, only the process entry
touches the collector, each declaration invariant is worded in one
module, the structural attributes are listed in one module, and every
module parses as the oldest Python that pyproject.toml admits."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import feather

SRC = Path(__file__).resolve().parent.parent / "src" / "feather"
MODULES = sorted(SRC.glob("*.py"))

# modules a run loads only when it needs them (typing: never)
ON_DEMAND = ("dataclasses", "inspect", "typing", "decimal", "feather.tvl", "feather.tvl_export",
             "feather.dump")


def unused_imports(source: str) -> list:
    """The names a module imports and never reads, sorted; a name that
    `__all__` lists counts as read."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        used.update(exported(node))
    return sorted(imported - used)


def exported(node) -> list:
    """The names an `__all__ = [...]` assignment lists; none for another node."""
    if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
        return ast.literal_eval(node.value)
    return []


def unused_functions(sources) -> list:
    """The functions and methods the sources define and never read, sorted.

    A function counts as read where its name is read as a name or as an
    attribute, or listed in `__all__`; a method (defined in a class body)
    only where its name is read as an attribute. Dunders are exempt.
    """
    functions, methods, names, attributes = set(), set(), set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                methods.update(d.name for d in node.body if isinstance(d, ast.FunctionDef))
            elif isinstance(node, ast.FunctionDef):
                functions.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            names.update(exported(node))
    unread = (functions - methods - names - attributes) | (methods - attributes)
    return sorted(n for n in unread if not (n.startswith("__") and n.endswith("__")))


def test_unused_imports_are_found():
    source = "import os.path\nimport re as regex\nfrom .a import b, c\nc(os.sep)\n"
    assert unused_imports(source) == ["b", "regex"]


def test_unused_imports_inside_functions_are_found():
    source = ("def f():\n    import decimal\n    return decimal.Decimal\n"
              "def g():\n    from . import tvl\n")
    assert unused_imports(source) == ["tvl"]


def test_names_in_all_count_as_used():
    assert unused_imports("from .a import b, c\n__all__ = ['b']\n") == ["c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_functions_are_found():
    defines = ("def f():\n    def inner():\n        pass\n    return g\n"
               "def g():\n    pass\n"
               "def h():\n    pass\n"
               "class C:\n    def m(self):\n        return self.n\n"
               "    def n(self):\n        pass\n"
               "    def called_by_name(self):\n        pass\n"
               "    def __eq__(self, other):\n        pass\n"
               "__all__ = ['h']\n")
    reads = "from . import a\na.f()\na.C().m()\ncalled_by_name = 1\nprint(called_by_name)\n"
    assert unused_functions([defines, reads]) == ["called_by_name", "inner"]
    assert unused_functions([defines]) == ["called_by_name", "f", "inner", "m"]


def test_every_function_is_read():
    assert unused_functions(path.read_text() for path in MODULES) == []


def test_every_exported_name_resolves():
    for name in feather.__all__:
        assert getattr(feather, name) is not None, name
    assert feather.import_tvl is feather.tvl.import_tvl
    assert feather.export_tvl is feather.tvl_export.export_tvl
    with pytest.raises(AttributeError):
        feather.no_such_name  # noqa: B018
    assert not hasattr(feather, "tvl_lexicon")


def after(code: str, result: str):
    """The value of the expression `result` after `code` runs in a fresh
    interpreter without site packages."""
    code += f"\nimport sys\nprint(repr({result}))\n"
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def loaded_after(code: str) -> list:
    """The modules of ON_DEMAND loaded after `code` runs."""
    return after(code, f"[m for m in {ON_DEMAND!r} if m in sys.modules]")


def compiled_after(code: str) -> list:
    """The lexicons that `feather.tokens` and `feather.tvl` define, as
    module.name, whose master regex is compiled after `code` runs, sorted."""
    return after(code, "sorted(f'{m}.{n}' for m in ('feather.tokens', 'feather.tvl')"
                       " if m in sys.modules for n, v in vars(sys.modules[m]).items()"
                       " if type(v).__name__ == 'Lexicon' and v.pattern is not None)")


def test_import_loads_nothing_on_demand():
    assert loaded_after("import feather") == []


def test_import_and_help_compile_no_lexicon():
    assert compiled_after("import feather") == []
    assert compiled_after("from feather.cli import main\nassert main(['-h']) == 0") == []


def test_lazy_exports_load_tvl():
    assert loaded_after("import feather\nfeather.export_tvl") == ["feather.tvl_export"]
    assert loaded_after("import feather\nfeather.import_tvl") == ["feather.tvl"]


def test_a_feather_run_loads_neither_tvl_nor_the_dumper(tmp_path):
    (tmp_path / "m.fd").write_text('root "R";\nfeature "A" "R" optional attribute w 1;\n')
    (tmp_path / "c.feaf").write_text('update feature "A" set w = numeric: 2.5;\n')
    args = ["-d", str(tmp_path / "m.fd"), "-c", str(tmp_path / "c.feaf"),
            "-o", str(tmp_path / "out.fd")]

    def run(extra):
        return f"from feather.cli import main\nassert main({args + extra!r}) == 0"
    assert loaded_after(run([])) == []
    assert loaded_after(run(["-x", str(tmp_path / "c.eil")])) == ["feather.dump"]
    assert loaded_after(run(["-ot", str(tmp_path / "out.tvl")])) == ["feather.tvl_export"]
    # the declarations lexicon reads m.fd, the plain one c.feaf
    assert compiled_after(run(["-ot", str(tmp_path / "out.tvl")])) == [
        "feather.tokens.DECLARATIONS", "feather.tokens.LEXICON"]


def test_a_tvl_run_compiles_the_tvl_and_the_plain_lexicon(tmp_path):
    (tmp_path / "m.tvl").write_text("root R {\n  int w is 1;\n  group allof { opt A }\n}\nA { }\n")
    (tmp_path / "c.feaf").write_text('update feature "R" set w = numeric: 2;\n')
    args = ["-t", str(tmp_path / "m.tvl"), "-c", str(tmp_path / "c.feaf"),
            "-o", str(tmp_path / "out.fd")]
    # the TVL lexicon, with its phrases, reads m.tvl, the plain one c.feaf
    assert compiled_after(f"from feather.cli import main\nassert main({args!r}) == 0") == [
        "feather.tokens.LEXICON", "feather.tvl.LEXICON"]


def test_the_tvl_lexicon_keeps_to_its_compile_budget():
    # a master regex compiles, cold, in time about linear in its source: the
    # 473 characters of the TVL lexicon with its phrases take about 0.85 ms
    # on a 2-vCPU VM with Python 3.11, against a budget of 1.5 ms
    from feather import tvl
    assert len(tvl.LEXICON.source) <= 520


def test_the_feather_script_is_the_entry_that_python_m_feather_calls():
    # pyproject.toml is read as text: Python 3.10 has no tomllib
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    script = re.search(r'^\[project\.scripts\]\nfeather = "feather\.cli:(\w+)"$',
                       pyproject, re.M)
    tree = ast.parse((SRC / "__main__.py").read_text())
    called = [n.func.id for n in ast.walk(tree)
              if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)]
    imported = [(n.module, a.name) for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names]
    assert script and called == [script[1]]
    assert ("cli", script[1]) in imported


def test_only_the_process_entry_touches_the_collector():
    # each use of `gc.`, by module and top-level definition
    users = set()
    for path in MODULES:
        for top in ast.parse(path.read_text()).body:
            users.update((path.name, getattr(top, "name", None)) for n in ast.walk(top)
                         if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                         and n.value.id == "gc")
    assert users == {("cli.py", "entry")}


@pytest.mark.parametrize("text", ["is declared twice", "names undeclared parent",
                                  "names unknown feature", "form a cycle",
                                  "duplicate attribute"])
def test_each_declaration_invariant_is_worded_in_one_module(text):
    assert [p.name for p in MODULES if text in p.read_text()] == [
        "tokens.py" if text == "duplicate attribute" else "build.py"]


def test_the_structural_attributes_are_listed_in_one_module():
    assert [p.name for p in MODULES if '"_decompID"' in p.read_text()] == ["model.py"]


def test_validate_static_leaves_the_declarations_to_the_builder():
    ast, errors = feather.parse_script('root "R";\nfeature "A" "R" optional;\n'
                                       'feature "A" "Ghost" optional;\n'
                                       'constraint "A" requires "Ghost";\n')
    assert errors == []
    assert feather.validate_static(ast) == []


def oldest_python() -> tuple:
    """The oldest (major, minor) that pyproject.toml's requires-python admits."""
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    return int(found[1]), int(found[2])


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "type Names = list\n",
    "def first[T](items: list[T]) -> T:\n    return items[0]\n",
], ids=["except*", "type alias", "type parameters"])
def test_newer_syntax_is_refused(source):
    assert oldest_python() == (3, 10)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=oldest_python())


def test_every_module_parses_as_the_oldest_python_admitted():
    for path in MODULES:
        ast.parse(path.read_text(), filename=path.name, feature_version=oldest_python())
