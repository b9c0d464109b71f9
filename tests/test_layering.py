"""Layering: no package touches another package's private state.

Each package under ``src/repro`` (``kernel``, ``signals``, ``bus``,
``peripherals``, ``iss``, ``platform``, ...) answers questions about its
own state through public methods.  An access of ``x._name`` on anything
but ``self``/``cls`` must name an attribute, method or slot that the
accessing file's own package defines; otherwise a change inside one
package silently breaks another.  Only the standard library's ``ast`` is
used, so the check runs anywhere the tests do.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Packages whose private state another package may touch.  The kernel's
#: engines commit the signals' pending updates and drive adopted clocks'
#: edges directly: that is the evaluate/update split of the kernel itself.
EXEMPT = {"kernel": ("signals",)}


def _package(path: str) -> str:
    """``iss`` for ``iss/wrapper.py``; ``""`` for a top-level module."""
    parts = pathlib.PurePosixPath(path).parts
    return parts[0] if len(parts) > 1 else ""


def _is_private(name: str) -> bool:
    return name.startswith("_") \
        and not (name.startswith("__") and name.endswith("__"))


def _defined_names(tree: ast.AST) -> set:
    """Every name a module defines: functions, classes, assigned names,
    attributes assigned on ``self``/``cls`` and ``__slots__`` entries."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Store) \
                and isinstance(node.value, ast.Name) \
                and node.value.id in ("self", "cls"):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets) \
                and isinstance(node.value, (ast.Tuple, ast.List)):
            names.update(element.value for element in node.value.elts
                         if isinstance(element, ast.Constant))
    return names


def foreign_private_accesses(sources: dict) -> list:
    """``path:line: .name`` for each private access the accessing file's
    package (or a package :data:`EXEMPT` lets it reach) does not define.

    ``sources`` maps package-relative paths (``iss/wrapper.py``) to
    source text.
    """
    trees = {path: ast.parse(text) for path, text in sources.items()}
    defined: dict = {}
    for path, tree in trees.items():
        defined.setdefault(_package(path), set()).update(
            _defined_names(tree))
    found = []
    for path, tree in sorted(trees.items()):
        package = _package(path)
        own = set(defined[package])
        for other in EXEMPT.get(package, ()):
            own |= defined.get(other, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _is_private(node.attr) \
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls")) \
                    and node.attr not in own:
                found.append(f"{path}:{node.lineno}: .{node.attr}")
    return sorted(found)


def test_no_package_touches_another_packages_private_state():
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in SRC.rglob("*.py")}
    assert foreign_private_accesses(sources) == []


def test_the_check_flags_foreign_and_passes_own_private_state():
    sources = {
        "a/owner.py": "class A:\n"
                      "    __slots__ = ('_slot',)\n"
                      "    def __init__(self):\n"
                      "        self._mine = 1\n"
                      "    def _helper(self):\n"
                      "        return self._other\n",
        "a/friend.py": "def f(a):\n"
                       "    return a._mine + a._slot + a._helper()\n",
        "b/stranger.py": "def g(a):\n"
                         "    a._mine = 2\n"
                         "    return a._slot\n",
        "signals/chan.py": "class C:\n"
                           "    def __init__(self):\n"
                           "        self._next = 0\n",
        "kernel/engine.py": "def commit(channel):\n"
                            "    return channel._next\n",
    }
    assert foreign_private_accesses(sources) == [
        "b/stranger.py:2: ._mine",
        "b/stranger.py:3: ._slot",
    ]
