"""The registry of named determinism and serialization rules.

Each rule inspects one parsed module (an :class:`ast.Module` plus source
context) and yields :class:`~repro.analysis.lint.finding.Finding` records.
The registry maps rule ids to :class:`Rule` records, mirroring the check
registry of :mod:`repro.analysis.verify.checks`.

Every rule is grounded in a bug class this repository has actually
shipped, or is about to risk as caching keyed on ``state_fingerprint``
makes nondeterminism more expensive:

* ``DET001`` — global random state (``random.seed()``/``random.random()``
  /``numpy.random``) outside :mod:`repro.util.rng`.  All stochastic
  choices must flow through seeded :class:`~repro.util.rng.RngStreams`.
* ``DET002`` — wall-clock reads inside the deterministic core
  (``simulator/``, ``routing/``, ``network/``, ``topology/``), without
  exception: ``experiments/`` times whole points and ``obs/`` times the
  engine's phases from outside.
* ``DET003`` — iteration (or list/tuple materialisation) of a ``set`` /
  ``frozenset`` whose hash order would feed a simulation decision,
  unless wrapped in ``sorted()`` — the scan→active scheduler's ordering
  hazard.
* ``DET004`` — ``id()``-based ordering or tie-breaking: CPython object
  addresses vary run to run, so any decision keyed on them is
  irreproducible.
* ``DET005`` — module-level mutable state or mutable default arguments
  in packages imported by ProcessPool workers (the shared-mutable-state
  bug from the parallel-sweep PR).  Write-once import-time registries
  are waivable.
* ``SER001`` — every field of a ``@dataclass`` that defines ``to_dict``
  must appear in the serializer or in the class's explicit
  ``SERIALIZE_EXCLUDE`` set (the dropped-``SimulationResult``-columns
  bug).
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.analysis.lint.finding import Finding, SEVERITY_ERROR

#: Packages whose code must never read wall-clock time (DET002): they
#: are the deterministic core replayed bit-for-bit by the golden-trace
#: and serial==parallel identity suites.
WALL_CLOCK_FREE_PACKAGES = ("simulator", "routing", "network", "topology")

#: Packages where container iteration order feeds simulation decisions
#: (DET003): the deterministic core plus traffic generation.
ORDER_SENSITIVE_PACKAGES = WALL_CLOCK_FREE_PACKAGES + ("traffic",)

#: Wall-clock entry points DET002 recognises, by qualified name.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Class attribute naming the fields a serializer intentionally omits
#: (SER001's explicit exclusion list).
SERIALIZE_EXCLUDE_ATTR = "SERIALIZE_EXCLUDE"


@dataclass
class ModuleContext:
    """One parsed module handed to every applicable rule."""

    relpath: str
    source: str
    lines: List[str]
    tree: ast.Module
    imports: Dict[str, str]
    #: Real ``#`` comments by line number (tokenize-extracted, so string
    #: literals that merely *mention* a waiver never match).
    comments: Dict[int, str] = field(default_factory=dict)

    def witness(self, line: int) -> str:
        """The (stripped) source line a finding points at."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def package(self) -> str:
        """First path component — '' for files at the analyzed root."""
        head, _, tail = self.relpath.partition("/")
        return head if tail else ""

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Qualified name of a ``Name``/``Attribute`` chain, if any.

        Import aliases are folded in, so with ``import numpy as np`` the
        expression ``np.random.seed`` resolves to ``numpy.random.seed``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))


@dataclass(frozen=True)
class Rule:
    """One registered rule."""

    name: str
    severity: str
    summary: str
    applies: Callable[[str], bool]
    run: Callable[[ModuleContext], List[Finding]]


#: Registered rules, in registration (= catalogue) order.
RULES: Dict[str, Rule] = {}


def register_rule(
    name: str,
    summary: str,
    applies: Optional[Callable[[str], bool]] = None,
    severity: str = SEVERITY_ERROR,
) -> Callable[
    [Callable[[ModuleContext], List[Finding]]],
    Callable[[ModuleContext], List[Finding]],
]:
    """Decorator-style registration of a rule function."""

    def decorator(
        run: Callable[[ModuleContext], List[Finding]]
    ) -> Callable[[ModuleContext], List[Finding]]:
        if name in RULES:
            raise ValueError(f"rule {name!r} is already registered")
        RULES[name] = Rule(
            name=name,
            severity=severity,
            summary=summary,
            applies=applies if applies is not None else lambda _: True,
            run=run,
        )
        return run

    return decorator


def _extract_comments(source: str) -> Dict[int, str]:
    """Map line number -> comment text for every real ``#`` comment."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):
        pass  # the ast parse will report the real problem
    return comments


def build_context(relpath: str, source: str) -> ModuleContext:
    """Parse *source* and build the shared per-module rule input."""
    tree = ast.parse(source)
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else local
                imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and not (
            node.level
        ):
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return ModuleContext(
        relpath=relpath,
        source=source,
        lines=source.splitlines(),
        tree=tree,
        imports=imports,
        comments=_extract_comments(source),
    )


def _finding(
    rule: str, ctx: ModuleContext, node: ast.AST, message: str, hint: str
) -> Finding:
    line = getattr(node, "lineno", 1)
    return Finding(
        rule=rule,
        severity=RULES[rule].severity if rule in RULES else SEVERITY_ERROR,
        path=ctx.relpath,
        line=line,
        col=getattr(node, "col_offset", 0),
        message=message,
        witness=ctx.witness(line),
        hint=hint,
    )


def _in_packages(*packages: str) -> Callable[[str], bool]:
    return lambda relpath: relpath.partition("/")[0] in packages and (
        "/" in relpath
    )


# ---------------------------------------------------------------------------
# DET001 — global random state
# ---------------------------------------------------------------------------


@register_rule(
    "DET001",
    "no global random state (random.*/numpy.random) outside repro.util.rng",
    applies=lambda relpath: relpath != "util/rng.py",
)
def det001_global_random(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    hint = (
        "draw from a seeded stream: RngStreams(seed).stream(name) "
        "(repro.util.rng); never the process-global generator"
    )
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "random":
                for alias in node.names:
                    if alias.name not in ("Random", "SystemRandom"):
                        findings.append(
                            _finding(
                                "DET001",
                                ctx,
                                node,
                                "import of the process-global random "
                                f"function random.{alias.name}",
                                hint,
                            )
                        )
            elif node.module and node.module.startswith("numpy.random"):
                findings.append(
                    _finding(
                        "DET001",
                        ctx,
                        node,
                        f"import from {node.module}: numpy's global "
                        "random state is process-wide",
                        hint,
                    )
                )
        elif isinstance(node, ast.Call):
            qualified = ctx.resolve(node.func)
            if qualified is None:
                continue
            if qualified.startswith("random.") and qualified.partition(".")[
                2
            ] not in ("Random", "SystemRandom"):
                findings.append(
                    _finding(
                        "DET001",
                        ctx,
                        node,
                        f"call to {qualified}() mutates or reads the "
                        "process-global random state",
                        hint,
                    )
                )
            elif "numpy.random" in qualified:
                findings.append(
                    _finding(
                        "DET001",
                        ctx,
                        node,
                        f"call to {qualified}() uses numpy's global "
                        "random state",
                        hint,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# DET002 — wall-clock in the deterministic core
# ---------------------------------------------------------------------------


@register_rule(
    "DET002",
    "no wall-clock reads in simulator/routing/network/topology",
    applies=_in_packages(*WALL_CLOCK_FREE_PACKAGES),
)
def det002_wall_clock(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = ctx.resolve(node.func)
        if qualified not in _WALL_CLOCK_CALLS:
            continue
        findings.append(
            _finding(
                "DET002",
                ctx,
                node,
                f"wall-clock read {qualified}() in the deterministic "
                "core",
                "time from outside the core: experiments/ owns "
                "wall_seconds, obs/ wraps the engine's phase methods",
            )
        )
    return findings


# ---------------------------------------------------------------------------
# DET003 — hash-ordered iteration
# ---------------------------------------------------------------------------


def _is_set_expr(node: ast.expr, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    return False


class _SetIterationVisitor(ast.NodeVisitor):
    """Per-scope tracker of names bound to set expressions."""

    #: Materialisers that preserve the argument's iteration order.
    _ORDERED_CONSUMERS = ("list", "tuple", "enumerate", "reversed", "iter")

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.findings: List[Finding] = []
        self._set_names: List[Set[str]] = [set()]

    def _hint(self) -> str:
        return (
            "wrap the set in sorted() before its order can feed a "
            "decision, or keep an insertion-ordered dict keyed by the "
            "same elements"
        )

    def _flag(self, node: ast.AST, what: str) -> None:
        self.findings.append(
            _finding("DET003", self.ctx, node, what, self._hint())
        )

    def _names(self) -> Set[str]:
        return self._set_names[-1]

    def _check_iter(self, iter_node: ast.expr) -> None:
        if _is_set_expr(iter_node, self._names()):
            self._flag(
                iter_node,
                "iteration over a set/frozenset: hash order is not a "
                "stable simulation order",
            )
        elif (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in self._ORDERED_CONSUMERS
            and iter_node.args
            and _is_set_expr(iter_node.args[0], self._names())
        ):
            self._flag(
                iter_node,
                f"{iter_node.func.id}() materialises a set in hash "
                "order",
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                if _is_set_expr(node.value, self._names()):
                    self._names().add(target.id)
                else:
                    self._names().discard(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name) and node.value is not None:
            if _is_set_expr(node.value, self._names()):
                self._names().add(node.target.id)
            else:
                self._names().discard(node.target.id)
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for generator in getattr(node, "generators", []):
            self._check_iter(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and not node.args
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in self._names()
        ):
            self._flag(
                node, "set.pop() removes a hash-order-arbitrary element"
            )
        self.generic_visit(node)


@register_rule(
    "DET003",
    "no unsorted iteration over set/frozenset where order can feed a "
    "simulation decision",
    applies=_in_packages(*ORDER_SENSITIVE_PACKAGES),
)
def det003_set_iteration(ctx: ModuleContext) -> List[Finding]:
    visitor = _SetIterationVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.findings


# ---------------------------------------------------------------------------
# DET004 — id()-based ordering
# ---------------------------------------------------------------------------


@register_rule(
    "DET004",
    "no id()-based ordering or tie-breaking",
)
def det004_id_ordering(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
            and not node.keywords
        ):
            findings.append(
                _finding(
                    "DET004",
                    ctx,
                    node,
                    "id() exposes a per-process object address; any "
                    "order or tie-break derived from it varies run to "
                    "run",
                    "order by a stable attribute (sequence number, "
                    "coordinates, name) instead of object identity",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# DET005 — worker-shared mutable state
# ---------------------------------------------------------------------------

_MUTABLE_CALLS = ("list", "dict", "set", "defaultdict", "deque", "Counter")


def _is_mutable_value(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp,
               ast.DictComp),
    ):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CALLS
    return False


@register_rule(
    "DET005",
    "no module-level mutable state or mutable default arguments in "
    "worker-imported packages",
    # repro.analysis is main-process-only (never imported by ProcessPool
    # workers), and its check/rule registries are the pattern DET005
    # exists to audit elsewhere.
    applies=lambda relpath: not relpath.startswith("analysis/"),
)
def det005_worker_state(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ctx.tree.body:
        value: Optional[ast.expr] = None
        name = ""
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and (
            isinstance(node.targets[0], ast.Name)
        ):
            name = node.targets[0].id
            value = node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            name = node.target.id
            value = node.value
        if value is None or name == "__all__":
            continue
        if _is_mutable_value(value):
            findings.append(
                _finding(
                    "DET005",
                    ctx,
                    node,
                    f"module-level mutable container {name!r}: mutations "
                    "after import diverge between the parent process and "
                    "ProcessPool workers",
                    "make it immutable (tuple/frozenset/Mapping), move "
                    "it into the objects workers rebuild, or waive a "
                    "write-once import-time registry",
                )
            )
    for node in ast.walk(ctx.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if _is_mutable_value(default):
                    findings.append(
                        _finding(
                            "DET005",
                            ctx,
                            default,
                            f"mutable default argument in {node.name}(): "
                            "shared across every call of the function",
                            "default to None and build the container in "
                            "the body",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# SER001 — serializer field coverage
# ---------------------------------------------------------------------------


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else (
            decorator
        )
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    names = []
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            annotation = ast.unparse(statement.annotation)
            if "ClassVar" in annotation:
                continue
            names.append(statement.target.id)
    return names


def _serialize_exclusions(node: ast.ClassDef) -> Set[str]:
    excluded: Set[str] = set()
    for statement in node.body:
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target, value = statement.targets[0], statement.value
        elif isinstance(statement, ast.AnnAssign):
            target, value = statement.target, statement.value
        if (
            isinstance(target, ast.Name)
            and target.id == SERIALIZE_EXCLUDE_ATTR
            and value is not None
        ):
            for sub in ast.walk(value):
                if isinstance(sub, ast.Constant) and isinstance(
                    sub.value, str
                ):
                    excluded.add(sub.value)
    return excluded


@register_rule(
    "SER001",
    "every field of a @dataclass with to_dict appears in the serializer "
    f"or in its {SERIALIZE_EXCLUDE_ATTR} set",
)
def ser001_serializer_coverage(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_dataclass_decorated(node):
            continue
        to_dict = next(
            (
                statement
                for statement in node.body
                if isinstance(statement, ast.FunctionDef)
                and statement.name == "to_dict"
            ),
            None,
        )
        if to_dict is None:
            continue
        fields = _dataclass_fields(node)
        covered: Set[str] = set()
        uses_asdict = False
        for sub in ast.walk(to_dict):
            if isinstance(sub, ast.Attribute) and isinstance(
                sub.value, ast.Name
            ) and sub.value.id == "self":
                covered.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                covered.add(sub.value)
            elif isinstance(sub, ast.Call):
                qualified = ctx.resolve(sub.func)
                if qualified in ("dataclasses.asdict", "asdict"):
                    uses_asdict = True
        if uses_asdict:
            continue
        excluded = _serialize_exclusions(node)
        for field_name in fields:
            if field_name in covered or field_name in excluded:
                continue
            findings.append(
                _finding(
                    "SER001",
                    ctx,
                    to_dict,
                    f"{node.name}.to_dict drops field {field_name!r} "
                    "(the dropped-columns bug class)",
                    "serialize the field, or list it in "
                    f"{SERIALIZE_EXCLUDE_ATTR} with a comment saying "
                    "why it is intentionally absent",
                )
            )
    return findings


__all__ = [
    "ModuleContext",
    "ORDER_SENSITIVE_PACKAGES",
    "RULES",
    "Rule",
    "SERIALIZE_EXCLUDE_ATTR",
    "WALL_CLOCK_FREE_PACKAGES",
    "build_context",
    "register_rule",
]
