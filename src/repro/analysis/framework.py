"""The frame every static analyzer shares: one parsed tree, one annotation
grammar, one analyzer record.

* :class:`SourceTree` reads every ``src/repro/**/*.py`` file once and
  parses it at most once; each analyzer takes its *scope* (package-relative
  path prefixes) from the same shared ASTs.  Tests substitute source text
  by path suffix through the ``overrides`` hook, so nothing on disk moves.
* :meth:`SourceFile.annotations` reads the one comment grammar the
  analyzers annotate code with, ``# <tag>: <class> [-- why]``
  (``ckpt:``, ``hot:``, ``nd:``, ``ft:``); :func:`annotation_problems`
  is the unknown-vocabulary and orphan check written once for all tags.
* :class:`Analyzer` is what ckptcov, perf, ndflow and ftcov each export:
  a name, a rule family, a scope, a ``selfcheck`` and a ``lint``.  The
  results are memoized on the tree, so ``repro analyze`` runs each check
  once and its lint step reuses the selfcheck the previous step ran.
"""

from __future__ import annotations

import ast
import importlib
import re
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:
    from repro.analysis.linter import Finding

__all__ = [
    "Analyzer",
    "Annotation",
    "SourceFile",
    "SourceTree",
    "annotation_problems",
    "get_analyzer",
    "select_findings",
]

#: Matches ``# nlint: disable`` or ``# nlint: disable=ID1,ID2`` anywhere in
#: a line (trailing prose after the IDs is allowed and encouraged).
_SUPPRESS_RE = re.compile(r"#\s*nlint:\s*disable(?:=([A-Z0-9, ]+))?")

#: Sentinel meaning "all rules suppressed on this line".
_ALL_RULES = "*"


@dataclass(frozen=True)
class Annotation:
    """One ``# <tag>: <class> [-- why]`` comment."""

    cls: str
    why: str | None


class SourceFile:
    """One source file: read once, parsed at most once."""

    def __init__(self, path: str, text: str, rel: str) -> None:
        #: Display path used in findings and baseline fingerprints.
        self.path = path
        #: Package-relative path (``kernel/mm.py``) that scopes match.
        self.rel = rel
        self.text = text
        self._annotations: dict[str, dict[int, Annotation]] = {}

    @cached_property
    def lines(self) -> list[str]:
        return self.text.splitlines()

    @cached_property
    def _parsed(self) -> tuple[ast.Module | None, SyntaxError | None]:
        try:
            return ast.parse(self.text, filename=self.path), None
        except SyntaxError as exc:
            return None, exc

    @property
    def module(self) -> ast.Module | None:
        """The AST, or None when the file does not parse."""
        return self._parsed[0]

    @property
    def syntax_error(self) -> SyntaxError | None:
        return self._parsed[1]

    @cached_property
    def suppressions(self) -> dict[int, set[str]]:
        """line -> rule ids disabled there by ``# nlint: disable``."""
        out: dict[int, set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            ids = match.group(1)
            out[lineno] = {_ALL_RULES} if ids is None else {
                part.strip() for part in ids.split(",") if part.strip()
            }
        return out

    def suppressed(self, rule_id: str, line: int) -> bool:
        ids = self.suppressions.get(line)
        return ids is not None and (_ALL_RULES in ids or rule_id in ids)

    def annotations(self, tag: str) -> dict[int, Annotation]:
        """line -> the ``# <tag>: <class> [-- why]`` comment on it."""
        found = self._annotations.get(tag)
        if found is None:
            pattern = re.compile(rf"#\s*{tag}:\s*([A-Za-z_-]+)(?:\s*--\s*([^#]*))?")
            found = {}
            for lineno, line in enumerate(self.lines, start=1):
                match = pattern.search(line)
                if match:
                    why = match.group(2)
                    found[lineno] = Annotation(
                        match.group(1), why.strip() if why else None)
            self._annotations[tag] = found
        return found


class SourceTree(Mapping[str, str]):
    """Display path -> source text, each file parsed at most once.

    Also a memo table: analyzers cache their selfcheck and lint results
    here, so every consumer of one tree shares them.
    """

    def __init__(self, files: Iterable[SourceFile]) -> None:
        self._files = {f.path: f for f in sorted(files, key=lambda f: f.path)}
        self._memo: dict[Any, Any] = {}

    @classmethod
    def load(cls, overrides: Mapping[str, str] | None = None) -> SourceTree:
        """Every ``repro.*`` module, displayed as ``src/repro/<rel>`` so
        findings and baselines do not depend on the working directory.

        *overrides* maps a path suffix (``kernel/cgroup.py`` or
        ``src/repro/kernel/cgroup.py``) to replacement text; a key that
        matches no module adds a synthetic file at that path.
        """
        import repro

        root = Path(repro.__file__).resolve().parent
        texts: dict[str, str | None] = {
            p.relative_to(root).as_posix(): None
            for p in root.rglob("*.py") if "__pycache__" not in p.parts
        }
        for key, text in (overrides or {}).items():
            norm = key.replace("\\", "/")
            rel = next((r for r in texts if norm == r or norm.endswith("/" + r)),
                       norm.removeprefix("src/repro/"))
            texts[rel] = text
        return cls(
            SourceFile(f"src/repro/{rel}",
                       text if text is not None
                       else (root / rel).read_text(encoding="utf-8"),
                       rel)
            for rel, text in texts.items()
        )

    @classmethod
    def from_paths(cls, paths: Sequence[str | Path]) -> SourceTree:
        """Files and directories (recursively) on disk, displayed as given."""
        found: list[Path] = []
        for entry in paths:
            p = Path(entry)
            if p.is_dir():
                found.extend(f for f in sorted(p.rglob("*.py"))
                             if "__pycache__" not in f.parts)
            elif p.is_file():
                found.append(p)
            else:
                raise FileNotFoundError(f"no such file or directory: {p}")
        return cls(SourceFile(str(p), p.read_text(encoding="utf-8"), p.as_posix())
                   for p in found)

    @classmethod
    def of(cls, sources: Mapping[str, str]) -> SourceTree:
        """*sources* itself if it is a tree, else a tree over its texts."""
        if isinstance(sources, SourceTree):
            return sources
        return cls(SourceFile(path, text, path.replace("\\", "/").removeprefix("src/repro/"))
                   for path, text in sources.items())

    def scope(self, *prefixes: str) -> SourceTree:
        """The files whose package-relative path starts with one of
        *prefixes* (``"kernel/"`` a directory, ``"kernel/mm.py"`` a file,
        ``""`` everything), sharing this tree's parses."""
        return SourceTree(f for f in self._files.values() if f.rel.startswith(prefixes))

    def file(self, path: str) -> SourceFile:
        return self._files[path]

    def files(self) -> list[SourceFile]:
        return list(self._files.values())

    def memo(self, key: Any, compute: Callable[[], Any]) -> Any:
        """``compute()`` once per *key* for the life of this tree."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def parse_problems(self) -> list[str]:
        return [
            f"{f.path}:{f.syntax_error.lineno}: does not parse: {f.syntax_error.msg}"
            for f in self.files() if f.syntax_error is not None
        ]

    def __getitem__(self, path: str) -> str:
        return self._files[path].text

    def __iter__(self) -> Iterator[str]:
        return iter(self._files)

    def __len__(self) -> int:
        return len(self._files)


def annotation_problems(
    tree: SourceTree,
    tag: str,
    vocabulary: Iterable[str],
    attached: Mapping[str, set[int]],
    where: str,
) -> list[str]:
    """Every ``# <tag>:`` comment in *tree* must name a class from
    *vocabulary* and sit on a line in *attached* (path -> lines where an
    annotation classifies something, *where* says what those lines are)."""
    vocabulary = sorted(vocabulary)
    problems: list[str] = []
    for f in tree.files():
        for lineno, annotation in sorted(f.annotations(tag).items()):
            if annotation.cls not in vocabulary:
                problems.append(
                    f"{f.path}:{lineno}: unknown {tag} class "
                    f"'{annotation.cls}' (use {', '.join(vocabulary)})"
                )
            if lineno not in attached.get(f.path, ()):
                problems.append(
                    f"{f.path}:{lineno}: '{tag}:' annotation is not on "
                    f"{where} — it classifies nothing"
                )
    return problems


def select_findings(
    findings: Iterable[Finding],
    rules: Iterable[str],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> list[Finding]:
    """Apply ``--select``/``--ignore`` to one rule family's findings.

    Unknown ids raise KeyError (a typo in CI config should fail loudly,
    not silently lint nothing); findings outside the family (E999 syntax
    errors) always pass.
    """
    rules = set(rules)
    for ids in (select, ignore):
        unknown = sorted(set(ids or ()) - rules)
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(unknown)}")
    return [
        f for f in findings
        if f.rule_id not in rules
        or ((not select or f.rule_id in select)
            and not (ignore and f.rule_id in ignore))
    ]


@dataclass(frozen=True)
class Analyzer:
    """One whole-program analyzer.

    *check* proves the analyzer's inventory complete and its annotations
    well-formed, returning ``(problems, dispositions)``; *build* returns
    its report (a ``findings`` list plus whatever inventory the analyzer
    derived).  Both are handed only the *scope* of the tree.
    """

    name: str
    #: The rule family: every rule id this analyzer can emit.
    rules: tuple[str, ...]
    #: Package-relative path prefixes the analyzer reads.
    scope: tuple[str, ...]
    #: What the selfcheck accounts for, e.g. ``"class(es)"``.
    accounts_for: str
    check: Callable[[SourceTree], tuple[list[str], dict[str, str]]]
    build: Callable[[SourceTree], Any]

    def selfcheck(self, tree: SourceTree) -> tuple[list[str], dict[str, str]]:
        return tree.memo((self.name, "selfcheck"),
                         lambda: self.check(tree.scope(*self.scope)))

    def report(self, tree: SourceTree) -> Any:
        return tree.memo((self.name, "report"),
                         lambda: self.build(tree.scope(*self.scope)))

    def lint(self, tree: SourceTree) -> list[Finding]:
        """Every finding of the family, suppressions applied."""
        return self.report(tree).findings

    def analyze(
        self,
        *,
        select: Sequence[str] | None = None,
        ignore: Sequence[str] | None = None,
        overrides: Mapping[str, str] | None = None,
        **options: Any,
    ) -> Any:
        """A fresh report over the package (*overrides* substitutes source
        text by path suffix; *options* go to *build*), filtered by
        ``--select``/``--ignore``."""
        report = self.build(SourceTree.load(overrides).scope(*self.scope), **options)
        return replace(report, findings=select_findings(
            report.findings, self.rules, select, ignore))


_MODULES = {
    "ckptcov": "repro.analysis.coverage",
    "perf": "repro.analysis.perf",
    "ndflow": "repro.analysis.ndflow",
    "ftcov": "repro.analysis.ftcov",
}


def get_analyzer(name: str) -> Analyzer:
    return importlib.import_module(_MODULES[name]).ANALYZER
