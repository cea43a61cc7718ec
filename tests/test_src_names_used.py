"""src/ holds no code and no record field that only tests use.

Every module-level function and class in the package, and every method, must
be named somewhere in src/, scripts/ or perfbench/ outside its own
definition. Names are read as Python tokens, so a mention in a comment or a
docstring does not count. Dunder methods, which Python calls itself, and
click commands, which the command group dispatches to, are exempt.

Every annotated field of a class in the package must be read, as an
attribute load ``obj.field``, somewhere in those directories outside its own
class. Reads are found in the syntax tree, not in the tokens: an f-string is
one token, yet ``f"{gof.tv}"`` reads ``tv``. The guard matches attribute
names, not types, so a field named ``m`` or ``r`` gets through by way of
``g.m`` or ``law.r``, whatever record it sits in.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a public result field: the golden runs pin it and NoCoalescenceError.stats carries it
FIELD_EXEMPT = {"SampleResult.degraded_blocks"}


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


def fields(path: Path):
    """(qualified name, name, class first line, class last line) of each annotated field."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                    yield f"{node.name}.{name}", name, node.lineno, node.end_lineno


def attribute_loads(path: Path) -> dict[str, list[int]]:
    """Line numbers of every attribute read (``obj.name`` in a load) in a file."""
    out: dict[str, list[int]] = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.setdefault(node.attr, []).append(node.lineno)
    return out


def unread_fields(modules, callers, exempt=frozenset()) -> list[str]:
    """Fields in modules that no caller file reads outside the field's class."""
    loads = {p: attribute_loads(p) for p in callers}
    out = []
    for path in modules:
        for qualname, name, first, last in fields(path):
            if qualname not in exempt and not any(
                not (p == path and first <= line <= last)
                for p in callers
                for line in loads[p].get(name, ())
            ):
                out.append(f"{path.name}:{qualname}")
    return out


def src_modules_and_callers():
    modules = sorted((ROOT / "src" / "cftp_colorings").glob("*.py"))
    callers = [
        p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
    ]
    assert modules and set(modules) <= set(callers)
    return modules, callers


def test_every_src_definition_is_named_outside_itself():
    assert unnamed_definitions(*src_modules_and_callers()) == []


def test_every_src_field_is_read_outside_its_class():
    assert unread_fields(*src_modules_and_callers(), exempt=FIELD_EXEMPT) == []


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


def test_field_reads_found_in_fstrings_not_in_own_class_or_stores(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class Rec:\n"
        "    shown: int\n"
        "    inner: int\n"
        "    stored: int\n"
        "\n"
        "    def total(self):\n"
        "        return self.inner\n"
        "\n"
        "\n"
        "def show(rec):\n"
        "    rec.stored = 0\n"
        "    return f'{rec.shown}'\n"
    )
    assert unread_fields([mod], [mod]) == ["mod.py:Rec.inner", "mod.py:Rec.stored"]
    assert unread_fields([mod], [mod], exempt={"Rec.inner"}) == ["mod.py:Rec.stored"]
