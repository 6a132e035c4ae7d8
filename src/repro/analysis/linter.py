"""``nlint`` core: AST visitor framework, rule registry, suppressions.

Design: one :class:`ast` walk per file.  Rules declare the node types they
care about (:attr:`Rule.interests`); the walker dispatches each node to
every interested rule exactly once, so adding a rule never adds a tree
traversal.  Rules that need whole-file context (e.g. CKPT001's field
cross-check) can do their own scoped sub-walk from the node they receive.

Files come from a :class:`~repro.analysis.framework.SourceTree`, so a
file another analyzer already parsed is not parsed again.

Suppression is per line, mirroring the repo's determinism doc::

    ino = stable_ino(path)  # nlint: disable=DET003  -- justification

A bare ``# nlint: disable`` suppresses every rule on that line.  Findings
are reported in (path, line, column, rule) order, which makes linter output
itself deterministic — the tool practices what it preaches.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.analysis.framework import SourceFile, SourceTree

__all__ = [
    "Finding",
    "InventoryRule",
    "LintContext",
    "Rule",
    "all_rules",
    "assigned_name",
    "attr_chain",
    "check_inventory",
    "lint_paths",
    "lint_source",
    "lint_tree",
    "register",
]


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source position."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: ``"error"`` findings fail the build; ``"warning"`` findings (the
    #: heuristic RACE/ORD rules) are reported but don't affect exit status.
    severity: str = "error"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def as_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }


class LintContext:
    """Per-file state shared by all rules during one walk."""

    def __init__(self, file: SourceFile) -> None:
        self.file = file
        self.path = file.path
        #: Normalized forward-slash path used for directory scoping.
        self.norm_path = file.path.replace("\\", "/")
        #: ``name -> dotted module path`` for every import binding, e.g.
        #: ``{"t": "time", "urandom": "os.urandom"}``.
        self.imports: dict[str, str] = {}
        #: Stack of enclosing function definitions (innermost last).
        self.function_stack: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        #: Parallel stack of "is a generator" flags.
        self._generator_stack: list[bool] = []
        #: Parallel-ish stack of enclosing class definitions.
        self.class_stack: list[ast.ClassDef] = []

        self._collect_imports()

    # -- scoping helpers -------------------------------------------------
    def in_dirs(self, *dirs: str) -> bool:
        """True if this file lives under any of the named package dirs."""
        return any(f"/{d}/" in self.norm_path for d in dirs)

    @property
    def current_function(self) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        return self.function_stack[-1] if self.function_stack else None

    @property
    def in_generator(self) -> bool:
        """True when the innermost enclosing function is a generator."""
        return bool(self._generator_stack) and self._generator_stack[-1]

    @property
    def current_class(self) -> ast.ClassDef | None:
        return self.class_stack[-1] if self.class_stack else None

    # -- name resolution -------------------------------------------------
    def qualified_name(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted path through imports.

        ``from datetime import datetime`` + ``datetime.now`` resolves to
        ``datetime.datetime.now``; unresolvable roots (locals, attributes
        of objects) return None so rules stay precise rather than noisy.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def call_name(self, call: ast.Call) -> str | None:
        """Qualified name of a call target (also handles plain builtins)."""
        resolved = self.qualified_name(call.func)
        if resolved is not None:
            return resolved
        if isinstance(call.func, ast.Name) and call.func.id not in self.imports:
            # Unshadowed bare name: report as-is (builtins like id/hash).
            return call.func.id
        return None

    # -- internals -------------------------------------------------------
    def _collect_imports(self) -> None:
        for node in ast.walk(self.file.module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{node.module}.{alias.name}"

    def suppressed(self, rule_id: str, line: int) -> bool:
        return self.file.suppressed(rule_id, line)


class Rule:
    """Base class for lint rules.

    Subclasses set :attr:`rule_id`, :attr:`summary` and :attr:`interests`,
    and implement :meth:`visit` yielding :class:`Finding`s.  Registration
    is explicit via :func:`register` so the registry stays pluggable (tests
    run single rules; future rules just add a decorated class).
    """

    rule_id: str = ""
    summary: str = ""
    #: Findings of this rule fail the build ("error") or merely report
    #: ("warning").  Heuristic rules should be warnings.
    severity: str = "error"
    #: AST node types this rule wants to see.
    interests: tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
        )


class InventoryRule(Rule):
    """A whole-program rule.  Its analyzer owns it (the rule is never in
    :data:`REGISTRY`, so per-file linting never sees it) and feeds it the
    analyzer's inventory: :func:`check_inventory` asks :meth:`message` about
    each inventoried item; perf, whose rules need the hot function itself,
    calls their own ``check``."""

    severity = "warning"

    def message(self, item, inventory) -> str | None:
        """The finding text when *item* violates the rule, else None."""
        raise NotImplementedError


def check_inventory(
    tree: SourceTree,
    rules: Sequence[type[InventoryRule]],
    by_path: dict[str, list],
    inventory: object,
) -> list[Finding]:
    """Run whole-program *rules* over each file's inventoried items (each
    item carries the ``node`` its finding anchors to), suppressions
    applied."""
    instances = [rule() for rule in rules]
    findings: list[Finding] = []
    for path in sorted(by_path):
        ctx = LintContext(tree.file(path))
        for rule in instances:
            for item in by_path[path]:
                message = rule.message(item, inventory)
                if message is not None:
                    finding = rule.finding(ctx, item.node, message)
                    if not ctx.suppressed(finding.rule_id, finding.line):
                        findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


#: The per-file rule registry: rule id -> rule class.
REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if cls.rule_id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    REGISTRY[cls.rule_id] = cls
    return cls


def all_rules(
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Rule]:
    """Instantiate registered rules.

    *select* keeps only the named ids; *ignore* then removes ids from
    whatever *select* kept.  Unknown ids in either raise KeyError (a typo
    in CI config should fail loudly, not silently lint nothing).
    """
    # Rules live in their own module; importing it populates the registry.
    from repro.analysis import rules as _rules  # noqa: F401

    if select:
        unknown = sorted(set(select) - set(REGISTRY))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        ids = [rid for rid in sorted(REGISTRY) if rid in set(select)]
    else:
        ids = sorted(REGISTRY)
    if ignore:
        unknown = sorted(set(ignore) - set(REGISTRY))
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
        ids = [rid for rid in ids if rid not in set(ignore)]
    return [REGISTRY[rid]() for rid in ids]


def _is_generator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True if *fn* itself contains a yield (not counting nested defs)."""
    return any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _own_nodes(fn))


def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
    """Nodes of *fn*'s body excluding nested function/lambda scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def assigned_name(stmt: ast.AST) -> str | None:
    """The name a single-target ``X = v`` or ``X: T = v`` statement binds."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        target = stmt.target
    else:
        return None
    return target.id if isinstance(target, ast.Name) else None


def attr_chain(node: ast.AST) -> str | None:
    """``a.b.c`` as a dotted string, or None for non-trivial bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Walker(ast.NodeVisitor):
    """Single-pass dispatcher feeding every rule its interesting nodes."""

    def __init__(self, rules: Iterable[Rule], ctx: LintContext) -> None:
        self.ctx = ctx
        self.findings: list[Finding] = []
        self._dispatch: dict[type, list[Rule]] = {}
        for rule in rules:
            for node_type in rule.interests:
                self._dispatch.setdefault(node_type, []).append(rule)

    def _emit(self, rule: Rule, node: ast.AST) -> None:
        for finding in rule.visit(node, self.ctx):
            if not self.ctx.suppressed(finding.rule_id, finding.line):
                self.findings.append(finding)

    def generic_visit(self, node: ast.AST) -> None:
        for rule in self._dispatch.get(type(node), ()):
            self._emit(rule, node)
        super().generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        self.ctx.function_stack.append(node)
        self.ctx._generator_stack.append(_is_generator(node))
        try:
            self.generic_visit(node)
        finally:
            self.ctx.function_stack.pop()
            self.ctx._generator_stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.ctx.class_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self.ctx.class_stack.pop()


def lint_tree(tree: SourceTree, rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Lint every file of *tree*; deterministic ordering."""
    if rules is None:
        rules = all_rules()
    findings: list[Finding] = []
    for file in tree.files():
        if file.module is None:
            exc = file.syntax_error
            findings.append(Finding(
                rule_id="E999", path=file.path, line=exc.lineno or 1,
                col=exc.offset or 0, message=f"syntax error: {exc.msg}",
            ))
            continue
        walker = _Walker(rules, LintContext(file))
        walker.visit(file.module)
        findings.extend(walker.findings)
    return sorted(findings, key=Finding.sort_key)


def lint_source(
    source: str, path: str = "<string>", rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint one source string (the unit-test entry point)."""
    return lint_tree(SourceTree([SourceFile(path, source, path)]), rules)


def lint_paths(
    paths: Sequence[str | Path], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Lint files and directories (recursively); deterministic ordering."""
    return lint_tree(SourceTree.from_paths(paths), rules)
