"""Source discovery and cross-module constant resolution.

The linter works on parsed source, never on live objects, so it can check
fixture files and uncommitted edits.  The one place it leans on the
import system is :class:`ConstEnv`: a tag expression like
``tags.WAVELET_ROW_GUARD`` (or ``_TAG_GUARD`` defined at module level
from such an attribute) is resolved to its integer by importing the
*referenced* ``repro.*`` module — which is exactly the central registry
in the refactored tree — while plain literals resolve without any
import.  Resolution also tracks *provenance*: a value is **minted** in a
module when it derives only from integer literals written there, and
imported otherwise.  The tag-collision rule only holds modules
responsible for values they mint; values shared through
:mod:`repro.machines.tags` have a single owner by construction.
"""

from __future__ import annotations

import ast
import functools
import importlib
import os
import re
from dataclasses import dataclass, field

from repro.analysis.rules import parse_suppressions

__all__ = ["SourceModule", "ConstEnv", "ResolvedValue", "discover_package", "modules_from_sources"]

#: One source line as the parser splits them: ended by ``\r\n``, ``\r``
#: or ``\n`` only (a form feed or other separator stays inside the line),
#: or the unterminated last line.
_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


@dataclass
class SourceModule:
    """One parsed source file (or in-memory fixture)."""

    name: str  # dotted module name
    path: str  # file path, or "<memory>" for fixtures
    source: str
    tree: ast.Module
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def from_source(cls, name: str, source: str, path: str = "<memory>") -> "SourceModule":
        return cls(
            name=name,
            path=path,
            source=source,
            tree=ast.parse(source, filename=path),
            suppressions=parse_suppressions(source),
        )

    @functools.cached_property
    def lines(self) -> list[str]:
        """The source's lines, each with its line end, split once."""
        return _LINE.findall(self.source)

    def segment(self, node: ast.expr) -> str | None:
        """``ast.get_source_segment(self.source, node)``, sliced from
        :attr:`lines` instead of splitting the source again.  Column
        offsets count UTF-8 bytes, as in the AST."""
        try:
            first, start = node.lineno - 1, node.col_offset
            last, end = node.end_lineno, node.end_col_offset
        except AttributeError:  # a node built without positions
            return None
        if last is None or end is None:
            return None
        last -= 1
        lines = self.lines
        if first == last:
            return lines[first].encode()[start:end].decode()
        head = lines[first].encode()[start:].decode()
        tail = lines[last].encode()[:end].decode()
        return "".join([head, *lines[first + 1 : last], tail])


@dataclass(frozen=True)
class ResolvedValue:
    """An integer resolved from an expression, with provenance."""

    value: int
    minted: bool  # True when derived only from literals in this module


class ConstEnv:
    """Best-effort constant environment for one module.

    Resolves integer-valued expressions built from:

    * integer literals;
    * ``+``/``-``/``*`` arithmetic over resolvable parts;
    * module-level ``NAME = <expr>`` constants (followed recursively);
    * names imported ``from repro.x import NAME`` and attributes on
      modules imported ``from repro import x`` / ``import repro.x`` —
      resolved by importing the real module (``repro.*`` only, so
      resolution never executes third-party code).

    Anything else — parameters, per-rank arithmetic, function results —
    is *dynamic* and resolves to ``None``.
    """

    def __init__(self, module: SourceModule) -> None:
        self.module = module
        self._consts: dict[str, ast.expr] = {}
        self._imported: dict[str, tuple[str, str | None]] = {}  # name -> (module, attr)
        self._cache: dict[str, ResolvedValue | None] = {}
        self._resolving: set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    self._consts[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    self._consts[node.target.id] = node.value
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    self._imported[alias.asname or alias.name] = (node.module, alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self._imported[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0],
                        None,
                    )

    # -- import-backed lookups --------------------------------------------

    @staticmethod
    def _import_value(module_name: str, attr: str) -> int | None:
        """Fetch an integer attribute from a ``repro.*`` module."""
        if not module_name.startswith("repro"):
            return None
        try:
            mod = importlib.import_module(module_name)
        except Exception:
            return None
        value = getattr(mod, attr, None)
        # Try one level deeper: `from repro.machines import tags` then
        # `tags.X` arrives here as module_name="repro.machines", attr="tags".
        return value if isinstance(value, int) and not isinstance(value, bool) else None

    def _resolve_imported_name(self, name: str) -> ResolvedValue | None:
        entry = self._imported.get(name)
        if entry is None:
            return None
        module_name, attr = entry
        if attr is None:
            return None  # a module alias, not a value
        value = self._import_value(module_name, attr)
        if value is None:
            # `from repro.machines import tags`-style submodule import
            # resolves when the *attribute* is used, not the name itself.
            return None
        return ResolvedValue(value=value, minted=False)

    def _resolve_attribute(self, node: ast.Attribute) -> ResolvedValue | None:
        parts: list[str] = []
        cursor: ast.expr = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(cursor.id)
        parts.reverse()  # e.g. ["tags", "WAVELET_ROW_GUARD"]
        root = parts[0]
        entry = self._imported.get(root)
        if entry is None:
            return None
        module_name, attr = entry
        if attr is not None:
            # `from repro.machines import tags` -> root module repro.machines.tags
            module_name = f"{module_name}.{attr}"
        # Walk intermediate attributes as submodules, last one as the value.
        for part in parts[1:-1]:
            module_name = f"{module_name}.{part}"
        value = self._import_value(module_name, parts[-1])
        if value is None:
            return None
        return ResolvedValue(value=value, minted=False)

    # -- public API --------------------------------------------------------

    def resolve(self, node: ast.expr | None) -> ResolvedValue | None:
        """Resolve ``node`` to an integer with provenance, else ``None``."""
        if node is None:
            return None
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return ResolvedValue(value=node.value, minted=True)
            return None
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = self.resolve(node.operand)
            if inner is None:
                return None
            return ResolvedValue(value=-inner.value, minted=inner.minted)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult)):
            left = self.resolve(node.left)
            right = self.resolve(node.right)
            if left is None or right is None:
                return None
            ops = {ast.Add: int.__add__, ast.Sub: int.__sub__, ast.Mult: int.__mul__}
            value = ops[type(node.op)](left.value, right.value)
            return ResolvedValue(value=value, minted=left.minted and right.minted)
        if isinstance(node, ast.Name):
            return self.resolve_name(node.id)
        if isinstance(node, ast.Attribute):
            return self._resolve_attribute(node)
        return None

    def resolve_name(self, name: str) -> ResolvedValue | None:
        if name in self._cache:
            return self._cache[name]
        if name in self._resolving:
            return None  # cycle guard
        self._resolving.add(name)
        try:
            result: ResolvedValue | None = None
            if name in self._consts:
                result = self.resolve(self._consts[name])
            if result is None:
                result = self._resolve_imported_name(name)
            self._cache[name] = result
            return result
        finally:
            self._resolving.discard(name)

    def constant_names(self) -> tuple[str, ...]:
        """Module-level constant names, in definition order."""
        return tuple(self._consts)


def discover_package(root: str) -> list[SourceModule]:
    """Parse every ``*.py`` under ``root`` into :class:`SourceModule`\\ s.

    ``root`` is a package directory (e.g. ``src/repro``); dotted module
    names are derived from the path relative to its parent.
    """
    root = os.path.abspath(root)
    parent = os.path.dirname(root)
    modules: list[SourceModule] = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__" and not d.startswith("."))
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, parent)
            name = rel[: -len(".py")].replace(os.sep, ".")
            if name.endswith(".__init__"):
                name = name[: -len(".__init__")]
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            modules.append(SourceModule.from_source(name, source, path=path))
    return modules


def modules_from_sources(sources: dict[str, str]) -> list[SourceModule]:
    """Build in-memory modules from ``{dotted_name: source}`` (fixtures)."""
    return [SourceModule.from_source(name, text) for name, text in sorted(sources.items())]
