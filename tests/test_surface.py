"""The library surface: the README quick start and config table, ``submoments.__all__``, and no
name only tests reach."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import submoments
from submoments.config import READERS, _Choice

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_library_quick_start() -> str:
    section = README.read_text().split("## Quick start (library)", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_quick_start_runs(capsys):
    exec(compile(readme_library_quick_start(), str(README), "exec"), {})
    assert "'reversion'" in capsys.readouterr().out


def readme_config_table() -> dict:
    """reader -> section -> backticked keys, as the README config table lists them.

    A parenthesised note, such as a section's one legal value, is not a key.
    """
    rows = README.read_text().split("| reader", 1)[1].splitlines()[2:]
    table = {}
    for row in rows:
        if not row.startswith("|"):
            break
        reader, cell = (c.strip() for c in row.strip("|").split("|"))
        parts = re.split(r"`\[(\w+)\]`", cell)
        table[reader.strip("`")] = {
            section: set(re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", rest)))
            for section, rest in zip(parts[1::2], parts[2::2])
        }
    return table


def readme_choices() -> dict:
    """selector -> (keys every value takes, value -> its other keys), as README's
    "`[section] key` selects ... besides `...`: `value` takes `...`; ..." sentences list them."""
    text = " ".join(README.read_text().split())
    choices = {}
    for selector, lead, listing in re.findall(r"`(\[\w+\] \w+)` selects([^:]*):([^.]*)\.", text):
        clauses = (re.findall(r"`(\w+)`", clause) for clause in listing.split(";"))
        choices[selector] = (set(re.findall(r"`(\w+)`", lead)), {v: set(keys) for v, *keys in clauses})
    return choices


def test_readme_config_table_matches_readers():
    table = readme_config_table()
    assert set(table) == set(READERS)
    choices = {}
    for reader, sections in READERS.items():
        assert set(table[reader]) == set(sections), reader
        for section, keys in sections.items():
            if section not in ("model", "assert"):  # listed by reference to their own tables
                assert table[reader][section] == set(keys), (reader, section)
            if isinstance(keys, _Choice):  # every value some reader takes
                common, values = choices.setdefault(f"[{section}] {keys.key}", (set(keys.common), {}))
                values.update({value: set(taken) for value, taken in keys.tables.items()})
    assert readme_choices() == choices


def test_every_exported_name_resolves():
    assert len(set(submoments.__all__)) == len(submoments.__all__)
    assert [name for name in submoments.__all__ if not hasattr(submoments, name)] == []


def top_level_names_used() -> set:
    """Package attributes the README library block reads, and names the
    acceptance suite imports from ``submoments``."""
    block = ast.parse(readme_library_quick_start())
    (alias,) = [a.asname or a.name for n in block.body if isinstance(n, ast.Import) for a in n.names]
    used = {
        node.attr
        for node in ast.walk(block)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == alias
    }
    acceptance = ast.parse((README.parent / "tests" / "test_acceptance.py").read_text())
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom) and node.module == "submoments":
            used |= {a.name for a in node.names}
    return used


def test_exports_are_exactly_the_used_names_and_errors():
    errors = submoments.errors
    error_classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    }
    used = top_level_names_used()
    assert sorted(set(submoments.__all__) - used - error_classes - {"__version__"}) == []
    assert sorted(used - set(submoments.__all__)) == []


def unreferenced_names(root: Path) -> list:
    """Functions, classes, methods and properties of ``src/submoments`` named
    nowhere in ``src``, ``perfbench`` or ``README.md`` but in
    their own definitions (dunders excluded), as ``grep -w`` would count them.
    """
    defined: dict = {}
    for path in sorted((root / "src" / "submoments").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined[node.name] = defined.get(node.name, 0) + 1
    corpus = [root / "README.md"]
    for top in ("src", "perfbench"):
        corpus += [p for p in (root / top).rglob("*") if p.suffix in (".py", ".md", ".cfg")]
    words = Counter(re.findall(r"\w+", "\n".join(p.read_text() for p in corpus)))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_no_name_only_tests_reach():
    assert unreferenced_names(README.parent) == []


def unread_imports(path: Path) -> set:
    """Names the module at ``path`` imports, anywhere in it, but never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - read


def test_every_unread_import_is_one_the_benchmark_wraps(monkeypatch):
    # perfbench/child.py wraps names where callers look them up, so a module keeps
    # a few imports only for it; any other unread import is dead
    bench = README.parent / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # child.py imports its sibling layers.py
    spec = importlib.util.spec_from_file_location("perfbench_child", bench / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    wrapped = {(module, name) for module, name, *_ in child.WRAPPED}
    unread = {
        (path.stem, name)
        for path in (README.parent / "src" / "submoments").glob("*.py")
        if path.name != "__init__.py"
        for name in unread_imports(path)
    }
    assert sorted(unread - wrapped) == []


def functions_calling(root: Path, matches) -> set:
    """``(module, function)`` around every call in ``src/submoments`` that ``matches``."""
    found = set()
    for path in sorted((root / "src" / "submoments").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = (node for node in ast.walk(func) if isinstance(node, ast.Call))
                found |= {(path.stem, func.name) for call in calls if matches(call)}
    return found


def opens_to_write(call: ast.Call) -> bool:
    """An ``open(...)`` whose mode may write: a mode with ``w``, ``a``, ``x`` or ``+``, or one not
    written out."""
    if getattr(call.func, "id", None) != "open":
        return False
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[1:2]
    mode = modes[0] if modes else ast.Constant("r")
    return not isinstance(mode, ast.Constant) or bool(set(mode.value) & set("wax+"))


def removes_a_file(call: ast.Call) -> bool:
    """An ``os.unlink(...)``, ``os.remove(...)`` or any ``.unlink(...)``."""
    func = call.func
    return isinstance(func, ast.Attribute) and (
        func.attr == "unlink" or (func.attr == "remove" and getattr(func.value, "id", None) == "os")
    )


def test_only_the_writers_open_files_to_write():
    # one opener for every file the package writes: it alone decides what a failed write
    # leaves behind, so no writer opens a file on its own
    assert sorted(functions_calling(README.parent, opens_to_write)) == [("grids", "open_output")]


def test_only_the_opener_removes_files():
    # a failed write removes the partial file in the opener only, which never removes a link
    assert sorted(functions_calling(README.parent, removes_a_file)) == [("grids", "open_output")]
