"""src/ holds no code that only tests use.

Every module-level function and class in the package, and every method, must
be named somewhere in src/, scripts/ or perfbench/ outside its own
definition. Names are read as Python tokens, so a mention in a comment or a
docstring does not count. Dunder methods, which Python calls itself, and
click commands, which the command group dispatches to, are exempt.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def name_lines(path: Path) -> dict[str, list[int]]:
    """Line numbers of every NAME token in a file."""
    out: dict[str, list[int]] = {}
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME:
                out.setdefault(tok.string, []).append(tok.start[0])
    return out


def is_click_command(node) -> bool:
    return any(
        isinstance(d, ast.Call)
        and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def definitions(path: Path):
    """(qualified name, name, first line, last line) of each checked definition."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, defs) or is_click_command(node):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def unnamed_definitions(modules, callers) -> list[str]:
    """Definitions in modules that no caller file names outside the definition."""
    names = {p: name_lines(p) for p in callers}
    out = []
    for path in modules:
        for qualname, name, first, last in definitions(path):
            if not any(
                not (p == path and first <= line <= last)
                for p in callers
                for line in names[p].get(name, ())
            ):
                out.append(f"{path.name}:{qualname}")
    return out


def test_every_src_definition_is_named_outside_itself():
    modules = sorted((ROOT / "src" / "cftp_colorings").glob("*.py"))
    callers = [
        p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
    ]
    assert modules and set(modules) <= set(callers)
    assert unnamed_definitions(modules, callers) == []


def test_self_reference_and_comments_do_not_count(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def lonely(n):\n"
        "    return lonely(n - 1) if n else 0  # lonely\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def spare(self):\n"
        "        return 'spare'\n"
    )
    assert unnamed_definitions([mod], [mod]) == ["mod.py:lonely", "mod.py:Box", "mod.py:Box.spare"]
