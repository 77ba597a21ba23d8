"""The registry of named determinism and hot-path discipline rules.

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
* ``HOT001`` — allocation-heavy constructs (``deepcopy``, f-string /
  ``str.format`` / ``%`` formatting, comprehensions over loop-invariant
  constants) inside functions marked with a ``# repro: hot`` pragma;
  plus a numpy-aware sub-check: no per-element Python loops over numpy
  arrays inside pragma'd kernels (the batch backend's array kernels
  must stay whole-array — a Python loop over the batch axis silently
  forfeits the vectorization the pragma promises).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

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

#: Marks a function as hot-path (HOT001), on the ``def`` line or the
#: line directly above it.
HOT_PRAGMA = re.compile(r"#\s*repro:\s*hot\b")


@dataclass
class ModuleContext:
    """One parsed module handed to every applicable rule."""

    relpath: str
    source: str
    lines: List[str]
    tree: ast.Module
    imports: Dict[str, str]
    #: Real ``#`` comments by line number (tokenize-extracted, so string
    #: literals that merely *mention* a pragma or waiver never match).
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


# ---------------------------------------------------------------------------
# HOT001 — hot-path allocation discipline
# ---------------------------------------------------------------------------


def _hot_functions(ctx: ModuleContext) -> Iterator[ast.FunctionDef]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        first = node.decorator_list[0].lineno if node.decorator_list else (
            node.lineno
        )
        # The pragma lives on the def line itself or on the line directly
        # above the function (above its first decorator, if any).
        candidates = (first - 1, node.lineno)
        if any(
            HOT_PRAGMA.search(ctx.comments.get(line, ""))
            for line in candidates
        ):
            yield node


#: Methods that step *out* of numpy land: their results are plain Python
#: objects, so iterating them is a sanctioned scalar seam rather than a
#: per-element loop over array storage.
_NUMPY_SCALAR_METHODS = frozenset({"tolist", "item"})

#: Builtins whose call forwards its argument's iteration: looping over
#: ``enumerate(array)`` is still a per-element loop over the array.
_ITER_FORWARDERS = frozenset(
    {"enumerate", "zip", "reversed", "iter", "list", "tuple", "sorted",
     "map", "filter"}
)


#: (target, value) of every assignment under a node, in ``ast.walk`` order.
_Assignments = List[Tuple[ast.expr, ast.expr]]


def _assignments(root: ast.AST) -> _Assignments:
    pairs: _Assignments = []
    for node in ast.walk(root):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs.append((target, node.value))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs.append((node.target, node.value))
        elif isinstance(node, ast.AugAssign):
            pairs.append((node.target, node.value))
    return pairs


def _numpy_tainted_names(
    ctx: ModuleContext,
    module_pairs: _Assignments,
    func_pairs: _Assignments,
) -> Tuple[Set[str], Set[str]]:
    """(local names, ``self.<attr>`` names) holding numpy arrays.

    A conservative dataflow pass: a name is array-tainted when assigned
    from a ``numpy.*`` call or from an expression derived from another
    tainted name.  Locals are tracked inside the function whose
    assignments are *func_pairs*; ``self`` attributes module-wide, over
    *module_pairs* (arrays are typically built in ``__init__`` and
    looped over in kernels).  Iterated to a fixpoint so chains like
    ``a = numpy.zeros(...); b = a; c = b[mask]`` resolve regardless of
    statement order encountered by the walk.
    """
    local: Set[str] = set()
    attrs: Set[str] = set()
    for _ in range(4):  # fixpoint (chains deeper than 4 do not occur)
        changed = False
        for target, value in module_pairs:
            if not _is_numpy_expr(ctx, value, local, attrs):
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr not in attrs
            ):
                attrs.add(target.attr)
                changed = True
        for target, value in func_pairs:
            if isinstance(target, ast.Name) and target.id not in local and (
                _is_numpy_expr(ctx, value, local, attrs)
            ):
                local.add(target.id)
                changed = True
        if not changed:
            break
    return local, attrs


def _is_numpy_expr(
    ctx: ModuleContext,
    node: ast.expr,
    local: Set[str],
    attrs: Set[str],
) -> bool:
    """Does this expression (conservatively) evaluate to a numpy array?"""
    if isinstance(node, ast.Name):
        return node.id in local
    if isinstance(node, ast.Starred):
        return _is_numpy_expr(ctx, node.value, local, attrs)
    if isinstance(node, ast.Call):
        qualified = ctx.resolve(node.func)
        if qualified is not None and qualified.startswith("numpy."):
            return True
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in _NUMPY_SCALAR_METHODS:
                return False
            # Array methods (reshape/min/take/...) stay arrays.
            return _is_numpy_expr(ctx, node.func.value, local, attrs)
        return False
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            return node.attr in attrs
        if node.attr in _NUMPY_SCALAR_METHODS:
            return False
        return _is_numpy_expr(ctx, node.value, local, attrs)
    if isinstance(node, ast.Subscript):
        return _is_numpy_expr(ctx, node.value, local, attrs)
    if isinstance(node, ast.BinOp):
        return _is_numpy_expr(ctx, node.left, local, attrs) or (
            _is_numpy_expr(ctx, node.right, local, attrs)
        )
    if isinstance(node, ast.UnaryOp):
        return _is_numpy_expr(ctx, node.operand, local, attrs)
    if isinstance(node, (ast.IfExp,)):
        return _is_numpy_expr(ctx, node.body, local, attrs) or (
            _is_numpy_expr(ctx, node.orelse, local, attrs)
        )
    return False


def _loops_over_array(
    ctx: ModuleContext,
    iter_node: ast.expr,
    local: Set[str],
    attrs: Set[str],
) -> bool:
    """Does this ``for``/comprehension source iterate a numpy array?"""
    if _is_numpy_expr(ctx, iter_node, local, attrs):
        return True
    if isinstance(iter_node, ast.Call) and isinstance(
        iter_node.func, ast.Name
    ):
        name = iter_node.func.id
        if name in _ITER_FORWARDERS:
            return any(
                _is_numpy_expr(ctx, arg, local, attrs)
                for arg in iter_node.args
            )
        if name == "range":
            # range(len(array)) / range(array.shape[0]): an index loop
            # that almost certainly dereferences per element inside.
            for arg in iter_node.args:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call) and isinstance(
                        sub.func, ast.Name
                    ) and sub.func.id == "len" and sub.args and (
                        _is_numpy_expr(ctx, sub.args[0], local, attrs)
                    ):
                        return True
                    if isinstance(sub, ast.Attribute) and (
                        sub.attr in ("shape", "size")
                    ) and _is_numpy_expr(ctx, sub.value, local, attrs):
                        return True
    return False


def _local_names(func: ast.FunctionDef) -> Set[str]:
    names = {arg.arg for arg in func.args.posonlyargs}
    names.update(arg.arg for arg in func.args.args)
    names.update(arg.arg for arg in func.args.kwonlyargs)
    if func.args.vararg:
        names.add(func.args.vararg.arg)
    if func.args.kwarg:
        names.add(func.args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


@register_rule(
    "HOT001",
    "no allocation-heavy constructs or per-element numpy loops inside "
    "'# repro: hot' functions",
)
def hot001_hot_path(ctx: ModuleContext) -> List[Finding]:
    findings: List[Finding] = []
    numpy_hint = (
        "replace the loop with whole-array numpy operations (ufuncs, "
        "boolean masks, fancy indexing); a deliberate scalar seam "
        "should iterate .tolist() output outside the pragma'd kernel"
    )
    hot = list(_hot_functions(ctx))
    # Walked once per module, not once per hot function and round.
    module_pairs = _assignments(ctx.tree) if hot else []
    for func in hot:
        local = _local_names(func)
        array_local, array_attrs = _numpy_tainted_names(
            ctx, module_pairs, _assignments(func)
        )
        for node in ast.walk(func):
            iter_sources: List[ast.expr] = []
            if isinstance(node, ast.For):
                iter_sources = [node.iter]
            elif isinstance(
                node,
                (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
            ):
                iter_sources = [
                    generator.iter for generator in node.generators
                ]
            for source in iter_sources:
                if _loops_over_array(ctx, source, array_local, array_attrs):
                    findings.append(
                        _finding(
                            "HOT001",
                            ctx,
                            source,
                            "per-element Python loop over a numpy array "
                            f"in hot function {func.name}() defeats "
                            "vectorization",
                            numpy_hint,
                        )
                    )
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                qualified = ctx.resolve(node.func)
                if qualified in ("copy.deepcopy", "deepcopy"):
                    findings.append(
                        _finding(
                            "HOT001",
                            ctx,
                            node,
                            f"deepcopy in hot function {func.name}()",
                            "copy explicitly, or restructure so the hot "
                            "path never clones",
                        )
                    )
                elif isinstance(node.func, ast.Attribute) and (
                    node.func.attr == "format"
                ):
                    findings.append(
                        _finding(
                            "HOT001",
                            ctx,
                            node,
                            f".format() call in hot function "
                            f"{func.name}() allocates per cycle",
                            "move string formatting out of the hot path "
                            "(format lazily at report time)",
                        )
                    )
            elif isinstance(node, ast.JoinedStr):
                findings.append(
                    _finding(
                        "HOT001",
                        ctx,
                        node,
                        f"f-string in hot function {func.name}() "
                        "allocates per cycle",
                        "move string formatting out of the hot path "
                        "(format lazily at report time)",
                    )
                )
            elif (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Mod)
                and isinstance(node.left, ast.Constant)
                and isinstance(node.left.value, str)
            ):
                findings.append(
                    _finding(
                        "HOT001",
                        ctx,
                        node,
                        f"%-formatting in hot function {func.name}()",
                        "move string formatting out of the hot path",
                    )
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp)
            ):
                iter_names = {
                    sub.id
                    for generator in node.generators
                    for sub in ast.walk(generator.iter)
                    if isinstance(sub, ast.Name)
                }
                if iter_names and not (iter_names & local):
                    findings.append(
                        _finding(
                            "HOT001",
                            ctx,
                            node,
                            "comprehension over loop-invariant globals "
                            f"rebuilt on every call of {func.name}()",
                            "hoist the comprehension to module scope or "
                            "__init__ and reuse the built container",
                        )
                    )
    return findings


__all__ = [
    "HOT_PRAGMA",
    "ModuleContext",
    "ORDER_SENSITIVE_PACKAGES",
    "RULES",
    "Rule",
    "SERIALIZE_EXCLUDE_ATTR",
    "WALL_CLOCK_FREE_PACKAGES",
    "build_context",
    "register_rule",
]
