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

Every parameter with a default, in a function or method of the sampler
modules (SAMPLER_MODULES), must be named somewhere in those directories
outside its own function, so that no knob exists for tests alone. Like the
definition check, this one reads NAME tokens: a parameter whose name
appears outside its function for any reason, say a local variable elsewhere
that happens to share it, gets through.

Outside the methods of ``bounding.BoundingState``, nothing in
``bounding.py`` names ``raw64``, so every word 0 or 2 that a compress or
disjoint update reads comes from the state, which reads its key batch when
it has one (a seeding update hashes its own, inside ``couplings``). Nor does
anything in ``bounding.py`` or ``engine.py`` outside that class name the
batch's internals (BATCH_INTERNALS: its packed keys, its cache of rows
and the methods that fill them), so the drift tail, too, reads its words
through the state. Nor does anything in ``bounding.py`` outside that
class name ``updates``: the readers that hand out keys are the only
writers of the one counter that is both the key index and the update
count, so no update can count itself apart from the keys it takes.

In ``engine.py`` only ``schedule_for``, and ``check_config`` as the input
check, name the drift-length rules (SCHEDULE_RULES), so block_steps,
construction and replay read t1 and t2 from the one Schedule a sample
builds.

Every name a module of the package imports must be used as a name in that
module, so no import outlives the code that used it. Uses are read in the
syntax tree, so a comment or a string does not count but an f-string does.
``__init__.py``, whose imports are the package's public re-exports, is
exempt, and ``from __future__`` imports are skipped.

Every annotation on a function, class or method of the package resolves
under ``typing.get_type_hints``, with the names each module imports under
``if TYPE_CHECKING:`` in scope, as a type checker sees them. So no
annotation names a type that its module imports only inside a function.

In ``bounding.py`` only ``apply_compress`` names the compress rules
(COMPRESS_RULES: the reference set, the complement, the predict, the draw
and the decode), each definition aside, and ``engine.py`` names none of
them, so a cleanup and a fallback run the one compress update.
"""

import ast
import importlib
import inspect
import tokenize
import typing
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a public result field: the golden runs pin it and NoCoalescenceError.stats carries it
FIELD_EXEMPT = {"SampleResult.degraded_blocks"}
SAMPLER_MODULES = ("engine", "bounding", "couplings", "seedstream", "colorsets", "graphs")
BATCH_INTERNALS = ("_packed", "_rows", "_row", "_refill")
SCHEDULE_RULES = ("default_t1", "default_t2", "t2_override")
# the definitions that may name SCHEDULE_RULES; SamplerConfig declares t2_override
SCHEDULE_OWNERS = ("schedule_for", "check_config", "SamplerConfig")
COMPRESS_RULES = (
    "compress_outside", "compress_predict", "compress_draw", "compress_decode",
    "greedy_reference_set",
)


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


def found_outside(index, path: Path, name: str, first: int, last: int) -> bool:
    """Whether index (file -> name -> line numbers) has name anywhere but
    lines first..last of path."""
    return any(
        not (p == path and first <= line <= last)
        for p, lines in index.items()
        for line in lines.get(name, ())
    )


def unnamed_definitions(modules, callers) -> list[str]:
    """Definitions in modules that no caller file names outside the definition."""
    names = {p: name_lines(p) for p in callers}
    return [
        f"{path.name}:{qualname}"
        for path in modules
        for qualname, name, first, last in definitions(path)
        if not found_outside(names, path, name, first, last)
    ]


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
    return [
        f"{path.name}:{qualname}"
        for path in modules
        for qualname, name, first, last in fields(path)
        if qualname not in exempt and not found_outside(loads, path, name, first, last)
    ]


def defaulted_parameters(path: Path):
    """(qualified name, parameter, first line, last line) of each parameter
    with a default, in a module-level function or a method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, funcs):
            found = [(node.name, node)]
        elif isinstance(node, ast.ClassDef):
            found = [(f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, funcs)]
        else:
            continue
        for qualname, f in found:
            a = f.args
            positional = a.posonlyargs + a.args
            params = positional[len(positional) - len(a.defaults):]
            params += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for p in params:
                yield qualname, p.arg, f.lineno, f.end_lineno


def unnamed_defaults(modules, callers) -> list[str]:
    """Defaulted parameters that no caller file names outside their function."""
    names = {p: name_lines(p) for p in callers}
    return [
        f"{path.name}:{qualname}({param})"
        for path in modules
        for qualname, param, first, last in defaulted_parameters(path)
        if not found_outside(names, path, param, first, last)
    ]


def imports(path: Path):
    """Each name an import statement binds, at any depth; ``from
    __future__`` imports bind nothing here."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def unused_imports(modules) -> list[str]:
    """Imported names that their own module never uses as a name.

    Uses are read in the syntax tree, where an import binds names but holds
    no ast.Name node, and a name read inside an f-string counts.
    """
    out = []
    for path in modules:
        used = {n.id for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Name)}
        out += [f"{path.name}:{name}" for name in imports(path) if name not in used]
    return out


def names_outside(path: Path, name: str, *owners: str) -> list[int]:
    """Line numbers where path names name, as a bare name or an attribute,
    outside the module-level classes and functions owners; an import or a
    definition's own name does not count."""
    tree = ast.parse(path.read_text())
    defs = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    spans = [
        (node.lineno, node.end_lineno)
        for node in tree.body
        if isinstance(node, defs) and node.name in owners
    ]
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
        )
        and not any(first <= node.lineno <= last for first, last in spans)
    )


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


def test_every_sampler_default_is_set_outside_tests():
    modules, callers = src_modules_and_callers()
    sampler = [p for p in modules if p.stem in SAMPLER_MODULES]
    assert len(sampler) == len(SAMPLER_MODULES)
    assert unnamed_defaults(sampler, callers) == []


def test_every_src_import_is_used():
    modules = [p for p in src_modules_and_callers()[0] if p.name != "__init__.py"]
    assert unused_imports(modules) == []


def annotated_objects(module):
    """(qualified name, object) of each function and class the module
    defines, and of each function defined in one of its classes."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isclass(obj):
            yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def type_checking_names(module) -> dict:
    """The module's globals, plus what it imports under ``if TYPE_CHECKING:``."""
    names = dict(vars(module))
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec"), names)
    return names


def unresolved_annotations(module) -> list[str]:
    """Functions and classes of module whose annotations raise in get_type_hints."""
    names = type_checking_names(module)
    out = []
    for qualname, obj in annotated_objects(module):
        try:
            typing.get_type_hints(obj, localns=names)
        except Exception as exc:  # any failure to resolve is the finding
            out.append(f"{module.__name__}.{qualname}: {type(exc).__name__}: {exc}")
    return out


def test_every_src_annotation_resolves():
    modules = src_modules_and_callers()[0]
    found, checked = [], 0
    for path in modules:
        module = importlib.import_module(f"cftp_colorings.{path.stem}")
        checked += sum(1 for _ in annotated_objects(module))
        found += unresolved_annotations(module)
    assert checked > 100
    assert found == []


def test_annotations_imported_only_inside_a_function_are_flagged(tmp_path, monkeypatch):
    (tmp_path / "annmod.py").write_text(
        "from __future__ import annotations\n"
        "\n"
        "from typing import TYPE_CHECKING\n"
        "\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "\n"
        "\n"
        "def exact(x) -> Fraction:\n"
        "    from fractions import Fraction\n"
        "\n"
        "    return Fraction(x)\n"
        "\n"
        "\n"
        "def checked(x) -> Decimal:\n"
        "    return x\n"
        "\n"
        "\n"
        "class Box:\n"
        "    size: Decimal\n"
        "    count: Missing\n"
        "\n"
        "    def grow(self) -> Box:\n"
        "        return self\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    found = unresolved_annotations(importlib.import_module("annmod"))
    assert [f.split(":")[0] for f in found] == ["annmod.exact", "annmod.Box"]


def test_imports_named_only_in_comments_or_strings_are_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "\n"
        "import math\n"
        "import os.path\n"
        "from . import couplings as cp\n"
        "from .seedstream import (\n"
        "    SeedStream,\n"
        "    raw64,\n"
        ")\n"
        "\n"
        "\n"
        "def draw(key):\n"
        "    import json  # math\n"
        "    return raw64(key, 0), os.sep, f'{cp.q}', 'SeedStream'\n"
    )
    assert unused_imports([mod]) == ["mod.py:math", "mod.py:SeedStream", "mod.py:json"]


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


def test_defaults_named_only_inside_their_function_are_flagged(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def knob(x, scale=1.0, *, shift=0, flag):\n"
        "    return x * scale + shift  # scale\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, fill=None):\n"
        "        self.size = fill\n"
        "\n"
        "\n"
        "def use():\n"
        "    return knob(1, flag=True), Box(fill=3)\n"
    )
    assert unnamed_defaults([mod], [mod]) == ["mod.py:knob(scale)", "mod.py:knob(shift)"]


def test_bounding_hashes_no_word_outside_its_state():
    bounding = ROOT / "src" / "cftp_colorings" / "bounding.py"
    assert names_outside(bounding, "raw64", "BoundingState") == []


def test_word_reads_outside_the_state_are_flagged(tmp_path):
    # the last function is a carried compress update hashing its own word 0
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from .seedstream import raw64\n"
        "\n"
        "\n"
        "class BoundingState:\n"
        "    def next_word(self, draw):\n"
        "        return raw64(self.key, draw)\n"
        "\n"
        "\n"
        "def hasher(ss):\n"
        "    return ss.raw64\n"
        "\n"
        "\n"
        "def apply_compress(state):\n"
        "    key = state.next_key()\n"
        "    return raw64(key, 0)\n"
    )
    assert names_outside(mod, "raw64", "BoundingState") == [10, 15]


def test_only_the_state_counts_updates():
    bounding = ROOT / "src" / "cftp_colorings" / "bounding.py"
    assert names_outside(bounding, "updates", "BoundingState") == []


def test_update_counts_outside_the_state_are_flagged(tmp_path):
    # the last function is an update counting itself beside its key
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class BoundingState:\n"
        "    def next_key(self):\n"
        "        self.updates += 1\n"
        "        return self.updates\n"
        "\n"
        "\n"
        "def apply_seeding(state, v):\n"
        "    key = state.next_key()\n"
        "    state.updates += 1\n"
        "    return key\n"
    )
    assert names_outside(mod, "updates", "BoundingState") == [9]


def test_batch_internals_are_read_only_inside_the_state():
    src = ROOT / "src" / "cftp_colorings"
    found = [
        (path, name, line)
        for path in ("bounding.py", "engine.py")
        for name in BATCH_INTERNALS
        for line in names_outside(src / path, name, "BoundingState")
    ]
    assert found == []


def test_batch_reads_outside_the_state_are_flagged(tmp_path):
    # the last function is a tail reading its words from the batch itself,
    # one row through the cache and one hashed from the packed keys
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class BoundingState:\n"
        "    def _refill(self, idx):\n"
        "        self._packed, self._rows = 0, {}\n"
        "\n"
        "    def _row(self, draw):\n"
        "        return self._rows[draw]\n"
        "\n"
        "\n"
        "def drift_tail(state, steps):\n"
        "    state._refill(state.updates)\n"
        "    words = state._row(2)[:steps]\n"
        "    return words, lane_row(state._packed, steps, 0)\n"
    )
    found = {name: names_outside(mod, name, "BoundingState") for name in BATCH_INTERNALS}
    assert found == {"_packed": [12], "_rows": [], "_row": [11], "_refill": [10]}


def test_only_schedule_for_picks_the_drift_lengths():
    engine = ROOT / "src" / "cftp_colorings" / "engine.py"
    found = [
        (name, line)
        for name in SCHEDULE_RULES
        for line in names_outside(engine, name, *SCHEDULE_OWNERS)
    ]
    assert found == []


def test_drift_lengths_picked_outside_schedule_for_are_flagged(tmp_path):
    # the last function is a block re-deriving t1 and t2 from the config
    mod = tmp_path / "mod.py"
    mod.write_text(
        "class SamplerConfig:\n"
        "    t2_override: int | None = None\n"
        "\n"
        "\n"
        "def default_t1(size):\n"
        "    return size\n"
        "\n"
        "\n"
        "def schedule_for(g, config, seed_set):\n"
        "    return default_t1(len(seed_set)), config.t2_override\n"
        "\n"
        "\n"
        "def block_steps(state, seed_set, config):\n"
        "    t1 = default_t1(len(seed_set))\n"
        "    return t1, config.t2_override or default_t2(state.g.n)\n"
    )
    found = {name: names_outside(mod, name, *SCHEDULE_OWNERS) for name in SCHEDULE_RULES}
    assert found == {"default_t1": [14], "default_t2": [15], "t2_override": [15]}


def test_only_apply_compress_runs_the_compress_rules():
    src = ROOT / "src" / "cftp_colorings"
    found = [
        (path, name, line)
        for path, owners in (("bounding.py", ("apply_compress",)), ("engine.py", ()))
        for name in COMPRESS_RULES
        for line in names_outside(src / path, name, *owners)
    ]
    assert found == []


def test_compress_rules_named_outside_apply_compress_are_flagged(tmp_path):
    # the last two functions are a cleanup predicting its own batch and a
    # fallback building its own reference set
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from . import couplings as cp\n"
        "\n"
        "\n"
        "def greedy_reference_set(q, delta, kept):\n"
        "    return 0\n"
        "\n"
        "\n"
        "def apply_compress(state, kept, targets):\n"
        "    a = greedy_reference_set(state.q, 3, kept)\n"
        "    return cp.compress_predict(a, cp.compress_outside(a, state.q), targets)\n"
        "\n"
        "\n"
        "def cleanup(state, v, preserved):\n"
        "    outside = cp.compress_outside(0, state.q)\n"
        "    return cp.compress_predict(0, outside, state.next_words0(2))\n"
        "\n"
        "\n"
        "def fallback(state, v):\n"
        "    a = greedy_reference_set(state.q, 3, [])\n"
        "    return cp.compress_draw(a, [], *state.next_key_words())\n"
    )
    found = {name: names_outside(mod, name, "apply_compress") for name in COMPRESS_RULES}
    assert found == {
        "compress_outside": [14],
        "compress_predict": [15],
        "compress_draw": [20],
        "compress_decode": [],
        "greedy_reference_set": [19],
    }
