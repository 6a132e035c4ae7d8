"""Nondeterminism-provenance analyzer (``repro ndflow``), static layers.

HyCoR-mode replication (see ROADMAP) logs nondeterministic inputs on the
primary and replays them on the backup — sound only if the log captures
*every* nondeterministic input.  This module is the static half of that
proof, the fifth analyzer in the nlint/races/ckptcov/perf family; the
runtime half is the :class:`~repro.sim.ndlog.NDLog` recorder and the
record→replay oracle in :mod:`repro.analysis.ndreplay`.

Three layers:

* **Layer 1 — source inventory.**  An AST pass over all of ``repro.*``
  enumerates every *nondeterminism source*: ``RngRegistry.stream()`` /
  ``spawn()`` call sites (with their stream-name literals),
  engine tie-break policies (any class with a ``key(self, ctx_serial)``
  method), module-level ``itertools.count`` id streams, raw
  ``random.Random`` / ``random.*`` entropy calls, and the timing knobs of
  ``NiliconConfig`` / ``TrafficProfile``.  Each source is classified —
  seed-derived, NDLog-recorded, registered counter, config-pinned, exempt
  or declared-unsafe — either automatically or by an ``nd:`` comment
  annotation (the vocabulary is :data:`ND_CLASSES`; the annotation
  grammar matches the ``hot:`` / ``ckpt:`` families, a trailing comment
  of the source line with an optional ``-- why``).  A class carrying
  ``__nd_exempt__ = True`` exempts everything it defines (the measuring
  instruments in ``sim/ndlog.py`` use this).
* **Layer 1½ — selfcheck.**  :func:`ndflow_selfcheck` rejects unknown
  vocabulary, annotations attached to no source, *unaccounted* sources
  (no automatic class and no annotation), dynamic stream names that defeat
  the static inventory and carry no annotation, and — the drift guard for
  the PR 5 bug class — any module-level ``itertools.count`` in ``repro.*``
  that is not rewound by ``reset_id_counters()`` (``net/world.py``).
* **Layer 2 — NDF rules.**  NDF001–NDF005 below ride the shared analyzer
  frame (:class:`~repro.analysis.linter.Finding`, per-line
  suppressions, ``--select``/``--ignore``, the shared baseline gate with
  ``ndflow-baseline.json``).  A source annotated with an accepted class is
  *accounted* and not flagged; one annotated ``unsafe`` stays flagged —
  that is how the ``unlogged-draw`` mutant's source overlay
  (``tests/mutants.py``) is reported without failing the selfcheck.

Rule catalog (see ``docs/ndflow.md``):

========  =======  ======================================================
NDF001    warning  bare ``random.Random`` / ``random.*`` entropy outside
                   ``sim/rng.py`` with no declared provenance
NDF002    warning  dynamic (f-string / computed) stream name with no
                   annotation — the static inventory cannot see it
NDF003    warning  RNG draw in a replication/fleet control path whose
                   generator is not a named registry stream
NDF004    warning  module-level ``itertools.count`` not registered in
                   ``reset_id_counters()``
NDF005    warning  one stream-name literal used from several modules with
                   no ``STREAM_OWNERS`` entry — the draw sequences couple
                   silently (log-site/source mismatch)
========  =======  ======================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field as dc_field
from typing import Mapping

from repro.analysis.framework import (
    Analyzer,
    SourceTree,
    annotation_problems,
)
from repro.analysis.linter import (
    Finding,
    InventoryRule,
    assigned_name,
    attr_chain,
    check_inventory,
)

__all__ = [
    "ANALYZER",
    "ND_CLASSES",
    "NDFLOW_RULE_IDS",
    "NdInventory",
    "NdSource",
    "NdflowReport",
    "analyze_ndflow",
    "build_nd_inventory",
    "ndflow_selfcheck",
]

#: The annotation vocabulary — every nondeterminism source must end up in
#: exactly one of these classes (automatically or by annotation):
#:
#: ``seed``     derived deterministically from the experiment seed outside
#:              the registry (e.g. a crc-seeded placement generator);
#: ``logged``   routed through a named RngRegistry stream, hence recorded
#:              by the NDLog;
#: ``counter``  a module-level id counter rewound by reset_id_counters();
#: ``config``   a timing knob pinned by configuration, not drawn at all;
#: ``exempt``   analysis/bench instrument, never part of a replayed run;
#: ``unsafe``   declared replay hazard — stays flagged by the NDF rules.
ND_CLASSES = frozenset(
    {"seed", "logged", "counter", "config", "exempt", "unsafe"}
)

#: Classes that silence the NDF rules ("accounted-for").  ``unsafe`` is
#: deliberately absent: a declared hazard is accounted in the selfcheck
#: but keeps its lint finding.
_ACCOUNTED = ND_CLASSES - {"unsafe"}

#: Draw methods of :class:`random.Random` (and the NDLog stream wrappers).
_DRAW_METHODS = frozenset(
    {"random", "randrange", "randint", "choice", "choices", "sample",
     "shuffle", "uniform", "expovariate", "gauss", "normalvariate",
     "getrandbits", "randbytes"}
)

#: Control-path directories for NDF003: a stray draw here perturbs
#: replication/fleet decisions that a backup-side replay must reproduce.
_CONTROL_DIRS = ("replication/", "fleet/")

#: Config classes whose ``*_us`` / ``*_rps`` / heartbeat fields are timing
#: knobs — nondeterminism pinned by configuration rather than drawn.
_TIMING_CLASSES = ("NiliconConfig", "TrafficProfile")


@dataclass
class NdSource:
    """One nondeterminism source found by the Layer-1 inventory."""

    #: ``stream`` | ``spawn`` | ``tiebreak`` | ``counter`` |
    #: ``global-random`` | ``draw`` | ``timing-knob``
    kind: str
    path: str
    line: int
    col: int
    node: ast.AST
    #: Stream name / counter variable / receiver chain / field name.
    name: str
    #: True when a stream name is not a string literal (f-string, computed).
    dynamic: bool = False
    #: Class declared by an ``nd:`` annotation on the source line.
    annotated: str | None = None
    why: str | None = None
    #: Class the inventory derived automatically (None = needs annotation).
    auto: str | None = None
    #: Counters only: rewound by reset_id_counters()?
    registered: bool | None = None

    @property
    def nd_class(self) -> str | None:
        return self.annotated if self.annotated is not None else self.auto

    @property
    def accounted(self) -> bool:
        return self.nd_class in _ACCOUNTED

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.name}"


@dataclass
class NdInventory:
    """Everything the Layer-1 pass discovered, plus cross-file context."""

    sources: list[NdSource] = dc_field(default_factory=list)
    by_path: dict[str, list[NdSource]] = dc_field(default_factory=dict)
    #: Parsed from ``STREAM_OWNERS`` in ``sim/rng.py``.
    stream_owners: dict[str, str] = dc_field(default_factory=dict)
    #: ``(module path suffix, variable)`` rewound by reset_id_counters().
    registered_counters: set[tuple[str, str]] = dc_field(default_factory=set)
    #: Literal stream name -> paths of the call sites using it.
    literal_streams: dict[str, set[str]] = dc_field(default_factory=dict)

    def add(self, source: NdSource) -> None:
        self.sources.append(source)
        self.by_path.setdefault(source.path, []).append(source)


# --------------------------------------------------------------------------- #
# Layer 1 — inventory                                                         #
# --------------------------------------------------------------------------- #


def _render_stream_name(arg: ast.AST) -> tuple[str, bool]:
    """``(display name, dynamic?)`` for a stream-name argument."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value, False
    if isinstance(arg, ast.JoinedStr):
        return "".join(
            str(piece.value) if isinstance(piece, ast.Constant)
            else "{" + ast.unparse(piece.value) + "}"
            for piece in arg.values
        ), True
    return ast.unparse(arg), True


def _exempt_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """Line spans of classes marked ``__nd_exempt__ = True``."""
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            assigned_name(stmt) == "__nd_exempt__" for stmt in node.body
        ):
            spans.append((node.lineno, node.end_lineno or node.lineno))
    return spans


def _annotation_on(annotations, node: ast.AST):
    """The ``nd:`` annotation on any line of *node*'s span (so multi-line
    call sites can carry the comment on the argument line)."""
    start = getattr(node, "lineno", 0)
    stop = getattr(node, "end_lineno", None) or start
    return next((annotations[line] for line in range(start, stop + 1)
                 if line in annotations), None)


def _parse_stream_owners(tree: ast.Module) -> dict[str, str]:
    for node in tree.body:
        if assigned_name(node) == "STREAM_OWNERS" and isinstance(node.value, ast.Dict):
            return {
                key.value: val.value
                for key, val in zip(node.value.keys, node.value.values)
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
                and isinstance(val, ast.Constant) and isinstance(val.value, str)
            }
    return {}


def _parse_registered_counters(tree: ast.Module) -> set[tuple[str, str]]:
    """``(module path suffix, variable)`` pairs rewound by
    ``reset_id_counters()`` — aliases resolved from its import statements
    (``from repro.kernel import fs as _fs`` -> ``kernel/fs.py``)."""
    fn = next(
        (
            node for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name == "reset_id_counters"
        ),
        None,
    )
    if fn is None:
        return set()
    aliases: dict[str, str] = {}
    for node in [*tree.body, *ast.walk(fn)]:
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if dotted.startswith("repro."):
                    suffix = dotted[len("repro."):].replace(".", "/") + ".py"
                    aliases[alias.asname or alias.name] = suffix
    out: set[tuple[str, str]] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in aliases
            ):
                out.add((aliases[target.value.id], target.attr))
    return out


def _is_count_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name) and func.id == "count":
        return True
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "count"
        and isinstance(func.value, ast.Name)
        and func.value.id == "itertools"
    )


def _stream_derived_names(tree: ast.Module) -> set[str]:
    """Names (locals and ``self.X`` attrs) bound anywhere in the file from
    an expression containing a ``.stream(...)`` call — receivers the
    NDF003 rule accepts as registry-routed."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        value = getattr(node, "value", None)
        if value is None:
            continue
        derived = any(
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr in ("stream", "spawn")
            for sub in ast.walk(value)
        )
        if not derived:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
            else:
                chain = attr_chain(target)
                if chain is not None:
                    out.add(chain)
    return out


def _random_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to members of the ``random`` module by import."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            for alias in node.names:
                out.add(alias.asname or alias.name)
    return out


def build_nd_inventory(sources: Mapping[str, str]) -> NdInventory:
    """Layer 1: enumerate and classify every nondeterminism source of
    *sources* (a tree, or display path -> text)."""
    inv = NdInventory()
    files = SourceTree.of(sources).files()

    for file in files:
        if file.module is None:
            continue
        if file.path.endswith("sim/rng.py"):
            inv.stream_owners = _parse_stream_owners(file.module)
        if file.path.endswith("net/world.py"):
            inv.registered_counters = _parse_registered_counters(file.module)

    for file in files:
        path, tree = file.path, file.module
        if tree is None:
            continue  # the selfcheck reports it
        annotations = file.annotations("nd")
        spans = _exempt_spans(tree)
        stream_bound = _stream_derived_names(tree)
        random_imports = _random_aliases(tree)
        is_rng_module = path.endswith("sim/rng.py")
        in_control = any(d in path for d in _CONTROL_DIRS)

        def add(kind: str, node: ast.AST, name: str, *, dynamic: bool = False,
                auto: str | None = None,
                registered: bool | None = None) -> NdSource:
            annotation = _annotation_on(annotations, node)
            src = NdSource(
                kind=kind, path=path, line=node.lineno,
                col=getattr(node, "col_offset", 0), node=node, name=name,
                dynamic=dynamic,
                annotated=annotation.cls if annotation else None,
                why=annotation.why if annotation else None, auto=auto,
                registered=registered,
            )
            inv.add(src)
            return src

        # Module-level id counters.
        for node in tree.body:
            targets: list[ast.AST] = []
            value = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            if value is None or not _is_count_call(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                registered = any(
                    path.endswith(mod) and var == target.id
                    for mod, var in inv.registered_counters
                )
                add(
                    "counter", node, target.id,
                    auto="counter" if registered else None,
                    registered=registered,
                )

        for node in ast.walk(tree):
            line = getattr(node, "lineno", 0)
            if any(lo <= line <= hi for lo, hi in spans):
                continue

            # Tie-break policies: any class with key(self, ctx_serial).
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.FunctionDef)
                        and stmt.name == "key"
                        and [a.arg for a in stmt.args.args]
                        == ["self", "ctx_serial"]
                    ):
                        add("tiebreak", node, node.name, auto="seed")
                        break

            # Timing knobs of the config dataclasses.
            if (
                isinstance(node, ast.ClassDef)
                and node.name in _TIMING_CLASSES
            ):
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and (
                            stmt.target.id.endswith(("_us", "_ms", "_rps"))
                            or "heartbeat" in stmt.target.id
                        )
                    ):
                        add(
                            "timing-knob", stmt,
                            f"{node.name}.{stmt.target.id}", auto="config",
                        )

            if not isinstance(node, ast.Call):
                continue
            func = node.func

            # RngRegistry.stream()/spawn() call sites.
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("stream", "spawn")
                and len(node.args) == 1
            ):
                name, dynamic = _render_stream_name(node.args[0])
                add(
                    func.attr, node, name, dynamic=dynamic,
                    auto=None if dynamic else "logged",
                )
                if not dynamic and func.attr == "stream":
                    inv.literal_streams.setdefault(name, set()).add(path)

            # Raw entropy: random.Random(...) / random.<fn>(...) or names
            # imported from the random module.
            chain = attr_chain(func)
            bare = func.id if isinstance(func, ast.Name) else None
            if not is_rng_module and (
                (chain is not None and chain.split(".", 1)[0] == "random"
                 and "." in chain)
                or (bare is not None and bare in random_imports)
            ):
                add("global-random", node, chain or bare)

            # Draws off non-stream generators in control paths.
            elif (
                in_control
                and isinstance(func, ast.Attribute)
                and func.attr in _DRAW_METHODS
            ):
                receiver = func.value
                rchain = attr_chain(receiver)
                derived = rchain in stream_bound or any(
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in ("stream", "spawn")
                    for sub in ast.walk(receiver)
                )
                if not derived and rchain != "random":
                    add(
                        "draw", node,
                        f"{rchain or '<expr>'}.{func.attr}",
                    )

    return inv


# --------------------------------------------------------------------------- #
# Layer 1½ — selfcheck                                                        #
# --------------------------------------------------------------------------- #


def ndflow_selfcheck(
    sources: Mapping[str, str] | None = None,
) -> tuple[list[str], dict[str, str]]:
    """Prove the inventory is complete and the vocabulary is sound.

    Returns ``(problems, dispositions)``: *problems* is empty when every
    source parses, every ``nd:`` annotation uses known vocabulary and sits
    on an inventoried source line, every source has a class (automatic or
    annotated), no dynamic stream name is unannotated, and every
    module-level ``itertools.count`` is rewound by ``reset_id_counters()``
    (or explicitly exempt).  *dispositions* maps each source to its class
    — the auditable inventory the CLI prints.
    """
    tree = SourceTree.of(sources if sources is not None else SourceTree.load())
    inv = build_nd_inventory(tree)

    inventoried: dict[str, set[int]] = {}
    for src in inv.sources:
        stop = getattr(src.node, "end_lineno", None) or src.line
        inventoried.setdefault(src.path, set()).update(
            range(src.line, stop + 1))
    problems = tree.parse_problems() + annotation_problems(
        tree, "nd", ND_CLASSES, inventoried,
        "an inventoried nondeterminism source")

    for src in inv.sources:
        if src.nd_class is None:
            detail = " (dynamic stream name)" if src.dynamic else ""
            problems.append(
                f"{src.path}:{src.line}: unaccounted nondeterminism source "
                f"{src.label}{detail} — classify it with an 'nd:' "
                f"annotation or route it through the registry"
            )
        if (
            src.kind == "counter"
            and src.registered is False
            and src.annotated != "exempt"
        ):
            problems.append(
                f"{src.path}:{src.line}: module-level itertools.count "
                f"'{src.name}' is not rewound by reset_id_counters() — "
                f"unreset id streams leak into checkpoint digests across "
                f"same-process runs"
            )

    dispositions: dict[str, str] = {}
    for src in sorted(inv.sources, key=lambda s: (s.path, s.line)):
        cls = src.nd_class or "UNACCOUNTED"
        if src.annotated is not None:
            cls += " (annotated)"
        dispositions[f"{src.path}:{src.line}  {src.label}"] = cls
    return problems, dispositions


# --------------------------------------------------------------------------- #
# Layer 2 — rules                                                             #
# --------------------------------------------------------------------------- #


class BareEntropy(InventoryRule):
    rule_id = "NDF001"

    def message(self, src, inventory):
        if src.kind == "global-random" and not src.accounted:
            return (f"{src.name}() draws entropy outside the registry; the "
                    f"NDLog never sees it, so deterministic replay breaks — "
                    f"route through world.rng.stream(<name>) or declare "
                    f"provenance with an 'nd:' annotation")


class DynamicStreamName(InventoryRule):
    rule_id = "NDF002"

    def message(self, src, inventory):
        if (src.kind in ("stream", "spawn") and src.dynamic
                and src.annotated not in _ACCOUNTED):
            return (f"stream name {src.name!r} is computed at runtime — the "
                    f"static inventory cannot enumerate it; add an 'nd:' "
                    f"annotation naming its class (or use a literal)")


class UnroutedControlPathDraw(InventoryRule):
    rule_id = "NDF003"

    def message(self, src, inventory):
        if src.kind == "draw" and not src.accounted:
            return (f"{src.name}() draws from a generator the NDLog does not "
                    f"wrap, inside a replication/fleet control path — replay "
                    f"on the backup would diverge; draw from a named "
                    f"world.rng stream instead")


class UnregisteredCounter(InventoryRule):
    rule_id = "NDF004"

    def message(self, src, inventory):
        if src.kind == "counter" and not src.registered and not src.accounted:
            return (f"id counter '{src.name}' is never rewound by "
                    f"reset_id_counters(); a second same-seed run hands out "
                    f"different ids and digests diverge — register it in "
                    f"net/world.py")


class SharedStreamName(InventoryRule):
    rule_id = "NDF005"

    def message(self, src, inventory):
        if src.kind != "stream" or src.dynamic:
            return None
        users = inventory.literal_streams.get(src.name, set())
        if len(users) < 2 or src.name in inventory.stream_owners:
            return None
        others = sorted(p for p in users if p != src.path)
        return (f"stream {src.name!r} is also drawn from "
                f"{', '.join(others)}; unrelated consumers of one stream "
                f"perturb each other's sequences — declare an owner in "
                f"sim/rng.py STREAM_OWNERS or pick a distinct name")


_RULES = (BareEntropy, DynamicStreamName, UnroutedControlPathDraw,
          UnregisteredCounter, SharedStreamName)
NDFLOW_RULE_IDS = tuple(rule.rule_id for rule in _RULES)


# --------------------------------------------------------------------------- #
# Layer 2 — driver                                                            #
# --------------------------------------------------------------------------- #


@dataclass
class NdflowReport:
    """Everything one static ndflow pass produced."""

    findings: list[Finding] = dc_field(default_factory=list)
    inventory: NdInventory = dc_field(default_factory=NdInventory)


def _ndflow_report(sources: Mapping[str, str]) -> NdflowReport:
    """Layers 1+2: inventory, then the NDF rules over every file."""
    tree = SourceTree.of(sources)
    inventory = build_nd_inventory(tree)
    return NdflowReport(
        findings=check_inventory(tree, _RULES, inventory.by_path, inventory),
        inventory=inventory,
    )


ANALYZER = Analyzer(
    name="ndflow",
    rules=NDFLOW_RULE_IDS,
    scope=("",),
    accounts_for="nondeterminism source(s)",
    check=ndflow_selfcheck,
    build=_ndflow_report,
)
analyze_ndflow = ANALYZER.analyze
