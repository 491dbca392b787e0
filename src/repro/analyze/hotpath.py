"""Hot-path purity and integer-bounds analysis (``python -m repro.analyze hotpath``).

The ROADMAP's north star — "as fast as the hardware allows" — rests on
contracts the goldens can only check dynamically: batch work must route
through the :mod:`repro.compute` backend seam, per-event code must stay
allocation- and guard-light, and the numpy backend's correctness rests on
hand-written int64-overflow and 2**53 float-exactness guards.  This module
proves those contracts statically, over the whole corpus, on the same
call-graph-fixpoint machinery as :mod:`repro.analyze.dimflow` and
:mod:`repro.analyze.races`.

**Part 1 — hot-path purity** (:class:`HotPurityPass`).  The *hot set* is
the transitive closure, over a name-keyed call graph, of the event-loop
roots:

* ``Simulator.run`` / ``step`` (any ``run``/``step`` defined under a
  ``sim`` path segment),
* every callback handed to ``schedule_at`` / ``schedule_after`` (resolved
  exactly like the race pass resolves handlers),
* every function that reads the fast-path switch (``FF.on`` /
  ``_FF.on``) — the gates of the fused lane executors,
* ``ComputeBackend`` kernel implementations (methods of classes deriving
  from a ``*Backend`` base, plus everything under a ``compute`` path
  segment).

Inside statement loops of hot functions the pass flags:

* ``hot-alloc`` — per-iteration allocations: list/set/dict/tuple displays,
  comprehensions, f-strings / ``str.format`` / ``%``-formatting, and
  ``list()``/``dict()``/``set()``/``tuple()``/``sorted()`` calls.  Loop-exit
  statements (``return``/``raise``/``yield``) and trace-guarded blocks are
  exempt — allocation behind an off-by-default guard costs nothing.
* ``hot-attr-chain`` — the same ``a.b.c`` attribute chain (depth >= 2) read
  twice or more in one loop body with no reassignment of its base: hoist it
  to a local before the loop.
* ``unguarded-trace`` — a ``TRACE.tracer`` read or a ``tracer.*(...)``
  call not dominated by the single-flag guard idiom proven in PR 5
  (``if _TRACE.on:`` / ``tracer = _TRACE.tracer if _TRACE.on else None``
  / ``if tracer is not None:``).
* ``backend-bypass`` — the key rule: an element-wise loop over batch data
  (masks, rows, values, words …) whose body is pure compute — compares and
  arithmetic, no simulator interaction — outside :mod:`repro.compute`.
  These loops belong behind the backend seam.

**Part 2 — integer/float bounds** (:class:`HotBoundsPass`).  A small
interval abstract interpreter over integer arithmetic, seeded from name
suffixes (``_ps``, ``_rows``, ``_bytes`` … with bounds derived from the
config ranges: <= 1 TiB of DRAM, multi-minute sim horizons) and
:mod:`repro.units` constructors, in the spirit of dimflow's suffix-seeded
return-dimension propagation.  At every site that *narrows* a value into
the int64 domain (``np.int64(...)``, ``.astype(np.int64)``,
``np.array(..., dtype=np.int64)``) with multiply/shift growth in reach, the
pass requires either an interval proof that the result fits int64 with
margin, or a dominating guard comparing against a resolvable constant
>= 2**50 (the ``_INT64_SAFE`` idiom) — otherwise ``int-overflow``.
``round()`` over a float-involving expression needs the same proof against
2**53 (the ``MAX_EXACT_FLOAT`` contract) — otherwise ``float-exactness``.
Module-level constants are resolved corpus-wide, so a guard spelled
``if bound >= _INT64_SAFE`` in one module proves against the constant
defined in another.

Grandfathered findings live in a checked-in baseline
(``hotpath_baseline.json``): per ``(path, rule)`` the baseline admits up to
``count`` findings; *fewer* actual findings than the baseline promises is a
stale-baseline error (shrink the file), *more* is a regression.  See
``main`` below — the ``hotpath`` subcommand of ``python -m repro.analyze``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import sys
from dataclasses import dataclass

from .core import (
    CorpusPass,
    Finding,
    ModuleSource,
    path_exempt,
    run_analysis,
)
from .races import _callback_of, _parent_map, _SCHEDULE_METHODS

# -- hot-set computation ------------------------------------------------------

#: Callee names treated as builtins, never corpus functions.
_BUILTIN_CALLS = frozenset({
    "len", "min", "max", "abs", "int", "float", "bool", "str", "range",
    "enumerate", "zip", "isinstance", "print", "sorted", "sum", "round",
    "list", "dict", "set", "tuple", "iter", "next", "getattr", "hasattr",
})


@dataclass(frozen=True)
class FunctionRecord:
    """One function definition with enough context to check rules."""

    module: ModuleSource
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: str | None

    @property
    def qualname(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.node.name}"
        return self.node.name


def _path_parts(path: str) -> list[str]:
    return os.path.normpath(path).split(os.sep)


def _iter_functions(modules: list[ModuleSource]):
    """Yield a :class:`FunctionRecord` for every def in the corpus."""
    for module in modules:
        parents = _parent_map(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                parent = parents.get(node)
                cls = parent.name if isinstance(parent, ast.ClassDef) else None
                yield FunctionRecord(module, node, cls)


def _direct_callees(fn: ast.AST) -> set[str]:
    """Names called directly in ``fn``'s body (not nested defs)."""
    out: set[str] = set()
    body = getattr(fn, "body", [])
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(child)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute):
                out.add(func.attr)
            elif isinstance(func, ast.Name):
                out.add(func.id)
    return out


def _is_backend_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else "")
        if name.endswith("Backend"):
            return True
    return False


def _callback_names(modules: list[ModuleSource]) -> set[str]:
    """Names of every resolved ``schedule_at``/``schedule_after`` callback."""
    names: set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _SCHEDULE_METHODS):
                names |= _callback_roots(_callback_of(node))
    return names


#: Names the fast-path switch (:data:`repro.sim.fastforward.FF`) is bound to.
_FF_SWITCH_NAMES = frozenset({"FF", "_FF"})


def _reads_ff_switch(fn: ast.AST) -> bool:
    """True when ``fn`` reads ``FF.on`` / ``_FF.on`` (gates a fast path)."""
    for node in ast.walk(fn):
        if (isinstance(node, ast.Attribute) and node.attr == "on"
                and isinstance(node.value, ast.Name)
                and node.value.id in _FF_SWITCH_NAMES):
            return True
    return False


def _is_root(record: FunctionRecord, callback_names: set[str],
             backend_classes: set[str]) -> bool:
    """Event-loop roots: run/step, schedule callbacks, FF gates, kernels."""
    parts = _path_parts(record.module.path)
    name = record.node.name
    if "sim" in parts and name in ("run", "step"):
        return True
    if "compute" in parts:
        return True
    if record.class_name in backend_classes:
        return True
    if name in callback_names:
        return True
    # A function that reads the fast-path switch gates a fused executor:
    # the stream lane in cpu/core.py, the controller lanes, the JAFAR
    # fused row run.
    return _reads_ff_switch(record.node)


def _callback_roots(callback: ast.expr | None) -> set[str]:
    """Root names contributed by one schedule-site callback expression."""
    if callback is None:
        return set()
    if isinstance(callback, ast.Attribute):
        return {callback.attr}
    if isinstance(callback, ast.Name):
        return {callback.id}
    if isinstance(callback, ast.Lambda):
        return _direct_callees(ast.Module(body=[ast.Expr(callback.body)],
                                          type_ignores=[]))
    if isinstance(callback, ast.Call):  # functools.partial(f, ...)
        func = callback.func
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None)
        if name == "partial" and callback.args:
            return _callback_roots(callback.args[0])
    return set()


def compute_hot_records(
        modules: list[ModuleSource]) -> set[tuple[str, str]]:
    """``(path, qualname)`` of every function reachable from the roots.

    Roots are identified per *definition* (so a bench function that merely
    shares a name with ``Simulator.run`` is not a root), but call edges
    resolve by bare name like the dimflow return table and the race-pass
    effect table — methods sharing a name merge conservatively, so the
    closure over-approximates.  Dunder names (``super().__init__()``) are
    not followed: constructor cost is setup cost, not per-event cost.
    """
    records = list(_iter_functions(modules))
    by_name: dict[str, list[FunctionRecord]] = {}
    for record in records:
        by_name.setdefault(record.node.name, []).append(record)
    backend_classes = {
        node.name
        for module in modules for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef) and _is_backend_class(node)}
    callback_names = _callback_names(modules)
    hot: set[tuple[str, str]] = set()
    frontier: list[FunctionRecord] = []

    def mark(record: FunctionRecord) -> None:
        key = (record.module.path, record.qualname)
        if key not in hot:
            hot.add(key)
            frontier.append(record)

    for record in records:
        if _is_root(record, callback_names, backend_classes):
            mark(record)
    while frontier:
        record = frontier.pop()
        for callee in _direct_callees(record.node):
            if callee.startswith("__") and callee.endswith("__"):
                continue
            for target in by_name.get(callee, ()):
                mark(target)
    return hot


# -- trace-guard recognition --------------------------------------------------

_TRACE_NAMES = frozenset({"TRACE", "_TRACE"})
_TRACER_VARS = frozenset({"tracer"})


def _is_trace_guard_test(test: ast.expr) -> bool:
    """True when ``test`` reads the single tracing flag or checks a tracer.

    Recognizes the PR 5 idioms: ``_TRACE.on``, ``tracer is not None``,
    bare ``tracer`` truthiness, and any ``and``/``or``/``not`` combination
    containing one of those.
    """
    for node in ast.walk(test):
        if (isinstance(node, ast.Attribute) and node.attr == "on"
                and isinstance(node.value, ast.Name)
                and node.value.id in _TRACE_NAMES):
            return True
        if isinstance(node, ast.Name) and node.id in _TRACER_VARS:
            return True
    return False


def _trace_guarded(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """True when an ancestor If/IfExp/While test guards tracing."""
    child = node
    scope = parents.get(node)
    while scope is not None and not isinstance(
            scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        if isinstance(scope, (ast.If, ast.IfExp, ast.While)):
            # The guard protects the branch bodies, not the test itself.
            if child is not scope.test and _is_trace_guard_test(scope.test):
                return True
        child = scope
        scope = parents.get(scope)
    return False


# -- purity rules -------------------------------------------------------------

_ALLOC_CTORS = frozenset({"list", "dict", "set", "tuple", "sorted"})

#: Substrings marking a name as batch/data-plane: rows, masks, packed words.
_DATA_NAME_HINTS = ("mask", "value", "word", "bit", "row", "position",
                    "sample", "lane", "elem", "delta")

#: Calls a backend-bypass loop body may make and still count as pure compute.
_PURE_BODY_CALLS = frozenset({"len", "min", "max", "abs", "int", "float",
                              "bool", "range", "enumerate", "zip"})
_PURE_BODY_METHODS = frozenset({"append", "add", "extend"})


def _dotted_chain(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    parts.append(cur.id)
    return ".".join(reversed(parts))


def _assigned_names(nodes: list[ast.stmt]) -> set[str]:
    """Plain names stored anywhere in ``nodes`` (incl. loop targets)."""
    out: set[str] = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                out.add(node.id)
    return out


def _stored_chains(nodes: list[ast.stmt]) -> set[str]:
    """Dotted chains stored anywhere in ``nodes`` (``self.cursor = ...``)."""
    out: set[str] = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                chain = _dotted_chain(node)
                if chain:
                    out.add(chain)
    return out


def _loop_statements(fn: ast.AST):
    """Yield every For/While statement in ``fn`` (not in nested defs)."""
    stack: list[ast.AST] = list(getattr(fn, "body", []))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.For, ast.While)):
            yield node
        for child in ast.iter_child_nodes(node):
            stack.append(child)


def _body_nodes(loop: ast.For | ast.While):
    """Walk the loop body, skipping nested defs, loops, and exit statements.

    Nested loops are reported on their own; ``return``/``raise``/``yield``
    statements leave the loop (or suspend it), so a one-off allocation
    there is not per-iteration cost; ``else`` clauses run once.
    """
    stack: list[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.For, ast.While,
                             ast.Return, ast.Raise, ast.Assert)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            continue
        yield node
        for child in ast.iter_child_nodes(node):
            stack.append(child)


def _escapes_into_accumulator(node: ast.AST,
                              parents: dict[ast.AST, ast.AST]) -> bool:
    """True when the allocation is the argument of ``.append(...)`` etc.

    An object handed straight to an accumulator is output construction —
    it escapes the iteration — not a throwaway the rule targets.
    """
    parent = parents.get(node)
    if not (isinstance(parent, ast.Call) and node in parent.args):
        return False
    func = parent.func
    return (isinstance(func, ast.Attribute)
            and func.attr in _PURE_BODY_METHODS)


def _alloc_findings(record: FunctionRecord, loop, parents) -> list[Finding]:
    path = record.module.path
    findings = []
    for node in _body_nodes(loop):
        if _trace_guarded(node, parents):
            continue
        if _escapes_into_accumulator(node, parents):
            continue
        label = None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            label = "comprehension"
        elif isinstance(node, ast.JoinedStr):
            label = "f-string"
        elif isinstance(node, (ast.List, ast.Set)):
            label = f"{type(node).__name__.lower()} display"
        elif isinstance(node, ast.Dict):
            label = "dict display"
        elif isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            parent = parents.get(node)
            unpacked = (isinstance(parent, ast.Assign)
                        and any(isinstance(t, ast.Tuple)
                                for t in parent.targets))
            if (not isinstance(parent, (ast.Subscript, ast.Compare))
                    and not unpacked  # a, b = x, y never materializes
                    and any(not isinstance(e, ast.Constant)
                            for e in node.elts)):
                label = "tuple display"
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in _ALLOC_CTORS:
                label = f"{func.id}() call"
            elif (isinstance(func, ast.Attribute) and func.attr == "format"
                  and isinstance(func.value, ast.Constant)
                  and isinstance(func.value.value, str)):
                label = "str.format() call"
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
              and isinstance(node.left, ast.Constant)
              and isinstance(node.left.value, str)):
            label = "%-formatting"
        if label is not None:
            findings.append(Finding(
                "hot-alloc",
                f"per-iteration {label} in a loop of hot function "
                f"{record.qualname}; allocate once before the loop or "
                "restructure to reuse",
                path, node.lineno, node.col_offset))
    return findings


def _attr_chain_findings(record: FunctionRecord, loop, parents) -> list[Finding]:
    assigned = _assigned_names(loop.body + getattr(loop, "orelse", []))
    if isinstance(loop, ast.For):
        assigned |= _assigned_names([ast.Expr(loop.target)]) | {
            n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
    stored = _stored_chains(loop.body)
    seen: dict[str, list[ast.Attribute]] = {}
    for node in _body_nodes(loop):
        if not (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)):
            continue
        if isinstance(parents.get(node), ast.Attribute):
            continue  # only maximal chains
        chain = _dotted_chain(node)
        if chain is None or chain.count(".") < 2:
            continue
        base = chain.split(".", 1)[0]
        if base in assigned:
            continue  # base rebound per iteration: not hoistable
        if _trace_guarded(node, parents):
            continue
        seen.setdefault(chain, []).append(node)
    findings = []
    for chain, nodes in seen.items():
        if len(nodes) < 2:
            continue
        prefixes = {chain.rsplit(".", i)[0]
                    for i in range(1, chain.count("."))}
        if prefixes & stored:
            continue  # a prefix is reassigned in the loop: not invariant
        first = min(nodes, key=lambda n: (n.lineno, n.col_offset))
        findings.append(Finding(
            "hot-attr-chain",
            f"attribute chain {chain} read {len(nodes)}x per iteration in a "
            f"loop of hot function {record.qualname}; hoist it to a local "
            "before the loop",
            record.module.path, first.lineno, first.col_offset))
    return findings


def _trace_findings(record: FunctionRecord, parents) -> list[Finding]:
    findings = []
    fn = record.node
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(child)
        flagged = None
        if (isinstance(node, ast.Attribute) and node.attr == "tracer"
                and isinstance(node.value, ast.Name)
                and node.value.id in _TRACE_NAMES
                and isinstance(node.ctx, ast.Load)):
            flagged = f"{node.value.id}.tracer read"
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in _TRACER_VARS):
                flagged = f"tracer.{func.attr}() call"
        if flagged is None:
            continue
        if _trace_guarded(node, parents):
            continue
        findings.append(Finding(
            "unguarded-trace",
            f"{flagged} in hot function {record.qualname} without the "
            "single-flag guard; use `if _TRACE.on:` or "
            "`tracer = _TRACE.tracer if _TRACE.on else None` so tracing "
            "costs nothing when off",
            record.module.path, node.lineno, node.col_offset))
    return findings


def _data_plane_name(name: str | None) -> bool:
    if not name:
        return False
    lowered = name.lower()
    return any(hint in lowered for hint in _DATA_NAME_HINTS)


def _iter_target_names(target: ast.expr) -> set[str]:
    return {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}


def _bypass_iter_name(loop: ast.For) -> str | None:
    """Name of the batch container iterated element-wise, if any."""
    it = loop.iter
    if isinstance(it, (ast.Name, ast.Attribute)):
        chain = _dotted_chain(it)
        return chain.rsplit(".", 1)[-1] if chain else None
    if isinstance(it, ast.Call):
        func = it.func
        if isinstance(func, ast.Attribute) and func.attr == "tolist":
            chain = _dotted_chain(func.value)
            return chain.rsplit(".", 1)[-1] if chain else None
        if isinstance(func, ast.Name) and func.id in ("range", "enumerate"):
            targets = _iter_target_names(loop.target)
            for node in ast.walk(ast.Module(body=loop.body, type_ignores=[])):
                if (isinstance(node, ast.Subscript)
                        and isinstance(node.slice, ast.Name)
                        and node.slice.id in targets):
                    chain = _dotted_chain(node.value)
                    if chain:
                        return chain.rsplit(".", 1)[-1]
    return None


def _pure_compute_body(loop: ast.For) -> bool:
    """True when the body only compares/accumulates — no sim interaction."""
    has_elementwise = False
    for node in ast.walk(ast.Module(body=loop.body, type_ignores=[])):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.Yield, ast.YieldFrom,
                             ast.Await)):
            return False
        if isinstance(node, (ast.Compare, ast.BinOp)):
            has_elementwise = True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id not in _PURE_BODY_CALLS:
                    return False
            elif isinstance(func, ast.Attribute):
                if func.attr not in _PURE_BODY_METHODS:
                    return False
            else:
                return False
    return has_elementwise


def _bypass_findings(record: FunctionRecord, loop) -> list[Finding]:
    if not isinstance(loop, ast.For):
        return []
    if "compute" in _path_parts(record.module.path):
        return []  # the backend implementations ARE the seam
    name = _bypass_iter_name(loop)
    if not _data_plane_name(name):
        return []
    if not _pure_compute_body(loop):
        return []
    return [Finding(
        "backend-bypass",
        f"element-wise loop over {name} in hot function {record.qualname} "
        "bypasses the repro.compute seam; route it through a ComputeBackend "
        "kernel",
        record.module.path, loop.lineno, loop.col_offset)]


class HotPurityPass(CorpusPass):
    """Purity rules on event-loop-reachable code (part 1 of hotpath)."""

    name = "hot-purity"
    description = ("hot-path purity: per-iteration allocations, unhoisted "
                   "attribute chains, unguarded tracing, and batch loops "
                   "bypassing the repro.compute seam")
    scope = None  # repo-wide; scaffolding excluded via path_exempt

    def applies_to(self, path: str) -> bool:
        # The analyzer itself is offline tooling, never on the simulated
        # machine's hot path — exempt it like the test scaffolding.
        return not path_exempt(path) and "analyze" not in _path_parts(path)

    def check_corpus(self, modules: list[ModuleSource]) -> list[Finding]:
        hot = compute_hot_records(modules)
        findings: list[Finding] = []
        for record in _iter_functions(modules):
            if (record.module.path, record.qualname) not in hot:
                continue
            parents = _parent_map(record.module.tree)
            findings.extend(_trace_findings(record, parents))
            for loop in _loop_statements(record.node):
                findings.extend(_alloc_findings(record, loop, parents))
                findings.extend(_attr_chain_findings(record, loop, parents))
                findings.extend(_bypass_findings(record, loop))
        return findings


# -- interval domain ----------------------------------------------------------

_INF = float("inf")

#: int64 with headroom — matches the numpy backend's ``_INT64_SAFE`` margin.
_INT64_LIMIT = 1 << 62
#: Exact-float contract from :data:`repro.compute.base.MAX_EXACT_FLOAT`.
_FLOAT_EXACT_LIMIT = 1 << 53
#: A comparison constant this large is recognized as an overflow guard.
_GUARD_THRESHOLD = 1 << 50


@dataclass(frozen=True)
class Interval:
    """Closed integer interval with +-inf endpoints."""

    lo: float
    hi: float

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def within(self, bound: float) -> bool:
        return -bound < self.lo and self.hi < bound

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        corners = [_mul(a, b) for a in (self.lo, self.hi)
                   for b in (other.lo, other.hi)]
        return Interval(min(corners), max(corners))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0, max(-self.lo, self.hi))


def _mul(a: float, b: float) -> float:
    if a == 0 or b == 0:
        return 0  # inf * 0 is 0 here: an empty extent contributes nothing
    return a * b


TOP = Interval(-_INF, _INF)

#: Bounds implied by name suffixes, derived from the config ranges:
#: capacity tops out at 1 TiB (2**40 bytes), cache lines are 64 B, the sim
#: horizon stays far below 2**52 ps (~75 simulated minutes).
_SUFFIX_BOUNDS = {
    "ps": 1 << 52,
    "ns": 1 << 42,
    "us": 1 << 32,
    "ms": 1 << 22,
    "cycles": 1 << 42,
    "bytes": 1 << 41,
    "bits": 1 << 44,
    "rows": 1 << 34,
    "lines": 1 << 34,
    "words": 1 << 38,
    "bursts": 1 << 38,
    "cols": 1 << 20,
    "periods": 1 << 34,
    "epochs": 1 << 34,
}

#: repro.units constructors: scale factors to the base unit.
_UNIT_SCALE = {
    "ns": 10 ** 3, "us": 10 ** 6, "ms": 10 ** 9, "seconds": 10 ** 12,
    "kib": 1 << 10, "mib": 1 << 20, "gib": 1 << 30,
}


def _suffix_interval(name: str) -> Interval:
    tail = name.rsplit("_", 1)[-1] if "_" in name else name
    bound = _SUFFIX_BOUNDS.get(tail)
    if bound is None:
        return TOP
    # Timestamps and sizes are non-negative by contract; deltas keep sign.
    lo = -bound if "delta" in name else 0
    return Interval(lo, bound)


def build_constant_table(modules: list[ModuleSource]) -> dict[str, int | float]:
    """Module-level numeric constants, resolved corpus-wide by bare name."""
    assigns: list[tuple[str, ast.expr]] = []
    for module in modules:
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                assigns.append((stmt.targets[0].id, stmt.value))
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                    and isinstance(stmt.target, ast.Name):
                assigns.append((stmt.target.id, stmt.value))
    consts: dict[str, int | float] = {}
    for _ in range(3):  # cross-module references settle in a few rounds
        changed = False
        for name, value in assigns:
            if name in consts:
                continue
            resolved = _const_eval(value, consts)
            if resolved is not None:
                consts[name] = resolved
                changed = True
        if not changed:
            break
    return consts


def _const_eval(node: ast.expr,
                consts: dict[str, int | float]) -> int | float | None:
    """Evaluate a constant expression, or None when not statically known."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    if isinstance(node, ast.Attribute):
        return consts.get(node.attr)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _const_eval(node.operand, consts)
        return None if inner is None else -inner
    if isinstance(node, ast.BinOp):
        left = _const_eval(node.left, consts)
        right = _const_eval(node.right, consts)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Pow):
                return left ** right
            if isinstance(node.op, ast.LShift):
                return left << right
        except (TypeError, ZeroDivisionError, OverflowError):
            return None
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id in ("int", "float") and len(node.args) == 1:
        inner = _const_eval(node.args[0], consts)
        if inner is None:
            return None
        return int(inner) if node.func.id == "int" else float(inner)
    return None


# -- the bounds interpreter ---------------------------------------------------

class _BoundsChecker:
    """Interval interpretation + guard tracking for one function."""

    def __init__(self, record: FunctionRecord,
                 consts: dict[str, int | float],
                 parents: dict[ast.AST, ast.AST]) -> None:
        self.record = record
        self.consts = consts
        self.parents = parents
        self.findings: list[Finding] = []
        self.float_names: set[str] = set()
        self.env: dict[str, Interval] = {}
        fn = record.node
        args = fn.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            self.env[arg.arg] = _suffix_interval(arg.arg)
            if isinstance(arg.annotation, ast.Name) \
                    and arg.annotation.id == "float":
                self.float_names.add(arg.arg)

    def run(self) -> list[Finding]:
        self._exec_block(self.record.node.body, guarded=False)
        return self.findings

    # -- statement walk --------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt], guarded: bool) -> bool:
        for stmt in stmts:
            guarded = self._exec_stmt(stmt, guarded)
        return guarded

    def _exec_stmt(self, stmt: ast.stmt, guarded: bool) -> bool:
        self._scan_expressions(stmt, guarded)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            name = stmt.targets[0].id
            self.env[name] = self._interval_of(stmt.value)
            if self._is_floatish(stmt.value):
                self.float_names.add(name)
            else:
                self.float_names.discard(name)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            self.env[stmt.target.id] = self._interval_of(stmt.value)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for name in _assigned_names([stmt]):
                self.env[name] = TOP
        elif isinstance(stmt, ast.If):
            branch_guard = guarded or self._has_big_compare(stmt.test)
            env_true = dict(self.env)
            env_false = dict(self.env)
            saved = self.env
            self.env = env_true
            self._exec_block(stmt.body, branch_guard)
            self.env = env_false
            self._exec_block(stmt.orelse, branch_guard)
            self.env = saved
            for name in _assigned_names(stmt.body + stmt.orelse):
                self.env[name] = env_true.get(name, TOP).join(
                    env_false.get(name, TOP))
            if self._is_dominating_guard(stmt):
                guarded = True
        elif isinstance(stmt, (ast.For, ast.While)):
            body = stmt.body + stmt.orelse
            for name in _assigned_names(body):
                self.env[name] = TOP  # loop-carried values widen to top
            if isinstance(stmt, ast.For):
                for name in _iter_target_names(stmt.target):
                    self.env[name] = self._loop_target_interval(stmt)
            self._exec_block(stmt.body, guarded)
            self._exec_block(stmt.orelse, guarded)
        elif isinstance(stmt, ast.With):
            self._exec_block(stmt.body, guarded)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, guarded)
            for handler in stmt.handlers:
                self._exec_block(handler.body, guarded)
            self._exec_block(stmt.orelse, guarded)
            self._exec_block(stmt.finalbody, guarded)
            for name in _assigned_names(stmt.handlers + [stmt]):
                self.env[name] = TOP
        return guarded

    def _loop_target_interval(self, loop: ast.For) -> Interval:
        it = loop.iter
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Name) \
                and it.func.id == "range" and it.args:
            stop = self._interval_of(it.args[-1] if len(it.args) == 1
                                     else it.args[1])
            return Interval(0, stop.hi) if stop.hi < _INF else TOP
        return TOP

    # -- guard recognition -----------------------------------------------

    def _has_big_compare(self, test: ast.expr) -> bool:
        for node in ast.walk(test):
            if not isinstance(node, ast.Compare):
                continue
            for comparator in [node.left] + node.comparators:
                value = _const_eval(comparator, self.consts)
                if value is not None and abs(value) >= _GUARD_THRESHOLD:
                    return True
        return False

    def _is_dominating_guard(self, stmt: ast.If) -> bool:
        if not self._has_big_compare(stmt.test):
            return False
        return any(isinstance(s, (ast.Return, ast.Raise, ast.Continue,
                                  ast.Break)) for s in stmt.body)

    # -- interval evaluation ---------------------------------------------

    def _interval_of(self, node: ast.expr) -> Interval:
        value = _const_eval(node, self.consts)
        if value is not None and isinstance(value, int):
            return Interval(value, value)
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return _suffix_interval(node.id)
        if isinstance(node, ast.Attribute):
            return _suffix_interval(node.attr)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._interval_of(node.operand)
        if isinstance(node, ast.BinOp):
            left = self._interval_of(node.left)
            right = self._interval_of(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.LShift):
                if right.hi < _INF and right.hi <= 63 and right.lo >= 0:
                    return left * Interval(1, 2 ** int(right.hi))
                return TOP
            if isinstance(node.op, ast.FloorDiv):
                if right.lo >= 1:
                    return Interval(min(left.lo, 0), max(left.hi, 0))
                return TOP
            if isinstance(node.op, ast.Mod):
                if right.lo >= 1 and right.hi < _INF:
                    return Interval(0, right.hi - 1)
                return TOP
            return TOP
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name = node.func.id
            if name == "abs" and len(node.args) == 1:
                return self._interval_of(node.args[0]).abs()
            if name == "int" and len(node.args) == 1:
                return self._interval_of(node.args[0])
            if name == "len":
                return Interval(0, 1 << 48)
            if name in ("min", "max") and node.args:
                out = self._interval_of(node.args[0])
                for arg in node.args[1:]:
                    other = self._interval_of(arg)
                    if name == "min":
                        out = Interval(min(out.lo, other.lo),
                                       min(out.hi, other.hi))
                    else:
                        out = Interval(max(out.lo, other.lo),
                                       max(out.hi, other.hi))
                return out
            if name in _UNIT_SCALE and len(node.args) == 1:
                return self._interval_of(node.args[0]) * Interval(
                    _UNIT_SCALE[name], _UNIT_SCALE[name])
        if isinstance(node, ast.IfExp):
            return self._interval_of(node.body).join(
                self._interval_of(node.orelse))
        return TOP

    def _is_floatish(self, node: ast.expr) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in self.float_names:
                return True
            if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
                return True
            if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
                return True
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) \
                    and sub.func.id == "float":
                return True
        return False

    # -- candidate sites -------------------------------------------------

    def _scan_expressions(self, stmt: ast.stmt, guarded: bool) -> None:
        # Only scan expressions owned by this statement, not nested blocks
        # (nested statements are scanned by their own _exec_stmt visit).
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, (ast.stmt, ast.excepthandler)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    self._check_call(sub, guarded)

    def _check_call(self, call: ast.Call, guarded: bool) -> None:
        narrowed = self._int64_narrowed_expr(call)
        if narrowed is not None:
            growth = self._growth_expr(call, narrowed)
            if growth is not None and not guarded \
                    and not self._interval_of(growth).within(_INT64_LIMIT):
                self.findings.append(Finding(
                    "int-overflow",
                    "int64 narrowing of a multiply/shift result in "
                    f"{self.record.qualname} that inferred bounds cannot "
                    "prove fits int64 and no >=2**50 guard dominates; add "
                    "an _INT64_SAFE-style guard with a reference fallback",
                    self.record.module.path, call.lineno, call.col_offset))
            return
        if isinstance(call.func, ast.Name) and call.func.id == "round" \
                and len(call.args) >= 1:
            arg = call.args[0]
            if not self._is_floatish(arg):
                return
            if guarded or self._interval_of(arg).within(_FLOAT_EXACT_LIMIT):
                return
            self.findings.append(Finding(
                "float-exactness",
                f"round() over a float expression in {self.record.qualname} "
                "whose magnitude is not provably below 2**53 and no "
                "MAX_EXACT_FLOAT-style guard dominates; results can silently "
                "lose integer exactness",
                self.record.module.path, call.lineno, call.col_offset))

    def _int64_narrowed_expr(self, call: ast.Call) -> ast.expr | None:
        """The expression a call narrows into int64, or None."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr == "int64" \
                and call.args:
            return call.args[0]
        if isinstance(func, ast.Attribute) and func.attr == "astype" \
                and call.args and _names_int64(call.args[0]):
            return func.value
        if isinstance(func, ast.Attribute) \
                and func.attr in ("array", "asarray") and call.args:
            for kw in call.keywords:
                if kw.arg == "dtype" and _names_int64(kw.value):
                    return call.args[0]
        return None

    def _growth_expr(self, call: ast.Call,
                     narrowed: ast.expr) -> ast.expr | None:
        """Widest expression with Mult/LShift growth around a narrow site.

        Looks inside the narrowed operand and *outward* through enclosing
        BinOps — ``np.array(base, i64) + np.array(delta, i64) * np.int64(n)``
        narrows ``n`` but the growth is the enclosing product/sum.
        """
        for sub in ast.walk(narrowed):
            if isinstance(sub, ast.BinOp) \
                    and isinstance(sub.op, (ast.Mult, ast.LShift, ast.Pow)):
                return narrowed
        top: ast.expr | None = None
        node: ast.AST = call
        parent = self.parents.get(node)
        while isinstance(parent, ast.BinOp):
            if isinstance(parent.op, (ast.Mult, ast.LShift, ast.Pow,
                                      ast.Add, ast.Sub)):
                top = parent
            node = parent
            parent = self.parents.get(node)
        if top is not None:
            for sub in ast.walk(top):
                if isinstance(sub, ast.BinOp) \
                        and isinstance(sub.op, (ast.Mult, ast.LShift, ast.Pow)):
                    return top
        return None


def _names_int64(node: ast.expr) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "int64"
    if isinstance(node, ast.Name):
        return node.id == "int64"
    if isinstance(node, ast.Constant):
        return node.value == "int64"
    return False


class HotBoundsPass(CorpusPass):
    """Interval bounds vs the int64 / 2**53 guards (part 2 of hotpath)."""

    name = "hot-bounds"
    description = ("interval abstract interpretation of hot-path integer "
                   "arithmetic: int64 narrowings and round() sites must be "
                   "proven in-bounds or guarded")
    scope = None

    def applies_to(self, path: str) -> bool:
        return not path_exempt(path) and "analyze" not in _path_parts(path)

    def check_corpus(self, modules: list[ModuleSource]) -> list[Finding]:
        hot = compute_hot_records(modules)
        consts = build_constant_table(modules)
        findings: list[Finding] = []
        for record in _iter_functions(modules):
            if (record.module.path, record.qualname) not in hot:
                continue
            parents = _parent_map(record.module.tree)
            findings.extend(
                _BoundsChecker(record, consts, parents).run())
        return findings


def hotpath_passes() -> list[CorpusPass]:
    """The hotpath suite (run via the ``hotpath`` subcommand, not the
    default gate — the default gate stays baseline-free)."""
    return [HotPurityPass(), HotBoundsPass()]


# -- baseline -----------------------------------------------------------------

BASELINE_SCHEMA = "hotpath-baseline/1"
DEFAULT_BASELINE = "hotpath_baseline.json"


@dataclass
class BaselineResult:
    """Outcome of subtracting a baseline from a findings list."""

    new_findings: list[Finding]
    grandfathered: int
    stale: list[dict]


def load_baseline(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(f"{path}: not a {BASELINE_SCHEMA} file")
    entries = data.get("entries", [])
    for entry in entries:
        if not {"path", "rule", "count"} <= set(entry):
            raise ValueError(f"{path}: baseline entry missing keys: {entry}")
    return entries


def apply_baseline(findings: list[Finding],
                   entries: list[dict]) -> BaselineResult:
    """Subtract grandfathered findings; report stale baseline entries.

    Entries are keyed ``(path, rule)`` with a ``count``: up to ``count``
    findings in that file/rule group are grandfathered.  A group producing
    *fewer* findings than promised is stale — the baseline must shrink so
    fixed debt cannot silently regrow.
    """
    budget = {(e["path"], e["rule"]): int(e["count"]) for e in entries}
    seen: dict[tuple[str, str], int] = {}
    new_findings: list[Finding] = []
    grandfathered = 0
    for finding in findings:
        key = (finding.path, finding.rule)
        seen[key] = seen.get(key, 0) + 1
        if seen.get(key, 0) <= budget.get(key, 0):
            grandfathered += 1
        else:
            new_findings.append(finding)
    stale = [
        {"path": path, "rule": rule, "count": count,
         "actual": seen.get((path, rule), 0)}
        for (path, rule), count in sorted(budget.items())
        if seen.get((path, rule), 0) < count
    ]
    return BaselineResult(new_findings, grandfathered, stale)


def write_baseline(path: str, findings: list[Finding]) -> None:
    groups: dict[tuple[str, str], int] = {}
    for finding in findings:
        key = (finding.path, finding.rule)
        groups[key] = groups.get(key, 0) + 1
    entries = [{"path": p, "rule": r, "count": c}
               for (p, r), c in sorted(groups.items())]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema": BASELINE_SCHEMA, "entries": entries}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")


# -- CLI ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze hotpath",
        description="Hot-path purity and integer-bounds analysis.")
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories to scan (default: src/)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON of grandfathered findings "
                             f"(default: {DEFAULT_BASELINE} when present)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any baseline file")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write current findings as a fresh baseline "
                             "and exit 0")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the JSON report (findings, "
                             "pass_timings_ms, baseline summary) to FILE")
    parser.add_argument("--timings", action="store_true",
                        help="print per-pass wall time (text format; JSON "
                             "always carries pass_timings_ms)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit 0 = clean (modulo baseline), 1 = findings or stale baseline,
    2 = usage / internal error (including parse errors)."""
    args = _build_parser().parse_args(argv)
    paths = args.paths or ["src"]
    try:
        report = run_analysis(paths, passes=hotpath_passes(),
                              with_project_passes=False)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        write_baseline(args.write_baseline, report.findings)
        print(f"hotpath: wrote baseline with {len(report.findings)} "
              f"finding(s) to {args.write_baseline}")
        return 0

    entries: list[dict] = []
    baseline_path = None
    if not args.no_baseline:
        baseline_path = args.baseline
        if baseline_path is None and os.path.exists(DEFAULT_BASELINE):
            baseline_path = DEFAULT_BASELINE
        if baseline_path is not None:
            try:
                entries = load_baseline(baseline_path)
            except (OSError, ValueError, json.JSONDecodeError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    result = apply_baseline(report.findings, entries)

    ok = (not result.new_findings and not result.stale
          and not report.parse_errors)
    payload = report.as_dict()
    payload["ok"] = ok
    payload["findings"] = [f.as_dict() for f in result.new_findings]
    payload["baseline"] = {
        "applied": baseline_path,
        "grandfathered": result.grandfathered,
        "stale": result.stale,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in report.parse_errors + result.new_findings:
            print(finding.format())
        for entry in result.stale:
            print(f"{entry['path']}: stale baseline entry "
                  f"[{entry['rule']}] promises {entry['count']} finding(s), "
                  f"{entry['actual']} fire(s); shrink {baseline_path}")
        status = "clean" if ok else (
            f"{len(result.new_findings)} finding(s)"
            + (f", {len(result.stale)} stale baseline entr(y/ies)"
               if result.stale else "")
            + (f", {len(report.parse_errors)} parse error(s)"
               if report.parse_errors else ""))
        extra = (f" ({result.grandfathered} grandfathered by "
                 f"{baseline_path})" if result.grandfathered else "")
        print(f"repro.analyze hotpath: {report.files_scanned} file(s): "
              f"{status}{extra}")
        if args.timings:
            for name, ms in sorted(report.pass_timings_ms.items()):
                print(f"  {name:<20} {ms:8.1f} ms")
    if report.parse_errors:
        return 2
    return 0 if ok else 1
