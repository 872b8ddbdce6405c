"""AST fact extraction over work-group kernel bodies.

A kernel body (``KernelSpec.body``) is a Python function executed once per
work-group against a :class:`~repro.kernels.dsl.WorkGroupContext`.  This
module turns such a function into a set of *facts* the rule engine in
:mod:`repro.analysis.analyzer` consumes:

* every buffer/scalar **access** (``ctx["A"]`` reads, ``ctx["C"][...] = v``
  writes), with each subscript axis classified against the group's tile;
* the NDRange **dimensions the body partitions on** (which
  ``ctx.item_range``/``rows``/``cols``/``group_id`` dimensions it queries);
* explicit Python **loops** in the body;
* every **context attribute** the body queries (``item_range``,
  ``group_id``, ``num_groups``, ...) and whether the context object
  *escapes* — is used other than as ``ctx[...]`` or ``ctx.<attr>``, e.g.
  passed to a helper whose accesses the analysis cannot see.  The
  span-dispatch verdict (:func:`repro.analysis.analyzer.span_dims`) is
  built on these two facts.

The tile classification is the static core of the work-group race
detector: an axis is ``TILE(d)`` when its index expression provably covers
exactly the group's own slice of dimension ``d`` — a direct
``ctx.rows()``/``ctx.cols()`` call, a ``lo:hi`` slice built from an
unpacked ``ctx.item_range(d)`` pair, or a per-group scalar
``ctx.group_id[d]``.  ``FULL`` is an unbounded ``:`` slice; anything else
(arithmetic on the bounds, fancy indexing, computed indices) is ``OTHER``.
This deliberately mirrors the paper's "simple compiler analysis at the
whole variable level" (§4.1): exact derivations are proven safe, everything
murky is left to the conservative rules.

Dynamic buffer keys (``ctx[out]`` with ``out`` a closure variable, as the
3MM kernel factory produces) are resolved through the function's closure
cells and module globals when they are string constants.
"""

from __future__ import annotations

import ast
import enum
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = [
    "AxisKind",
    "Axis",
    "AccessMode",
    "BufferAccess",
    "LoopInfo",
    "KernelFacts",
    "extract_facts",
]


class AxisKind(str, enum.Enum):
    TILE = "tile"    # provably the group's own tile along one NDRange dim
    FULL = "full"    # unbounded ':' slice
    OTHER = "other"  # anything the analysis cannot prove tile-local


@dataclass(frozen=True)
class Axis:
    """Classification of one subscript axis."""

    kind: AxisKind
    #: NDRange dimension for ``TILE`` axes, else ``None``
    dim: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Axis(tile dim={self.dim})" if self.kind is AxisKind.TILE
                else f"Axis({self.kind.value})")


FULL = Axis(AxisKind.FULL)
OTHER = Axis(AxisKind.OTHER)


def tile(dim: int) -> Axis:
    return Axis(AxisKind.TILE, dim)


class AccessMode(str, enum.Enum):
    READ = "read"
    WRITE = "write"


@dataclass(frozen=True)
class BufferAccess:
    """One observed access to a kernel argument."""

    buffer: str
    mode: AccessMode
    #: per-axis classification; empty for whole-variable accesses
    axes: Tuple[Axis, ...]
    #: False when the whole variable was used without subscripting
    subscripted: bool
    line: int

    @property
    def tile_dims(self) -> Set[int]:
        return {a.dim for a in self.axes if a.kind is AxisKind.TILE}


@dataclass(frozen=True)
class LoopInfo:
    kind: str  # "for" / "while"
    line: int


@dataclass
class KernelFacts:
    """Everything the rule engine needs to know about one kernel body."""

    analyzable: bool
    reason: str = ""
    source_file: str = ""
    first_line: int = 0
    accesses: List[BufferAccess] = field(default_factory=list)
    loops: List[LoopInfo] = field(default_factory=list)
    #: NDRange dimensions the body queried tile geometry for
    tile_dims: Set[int] = field(default_factory=set)
    #: ``ctx[<expr>]`` keys that could not be resolved to a string
    unresolved_keys: List[Tuple[str, int]] = field(default_factory=list)
    #: attribute names the body reads off the context (``ctx.<name>``)
    ctx_attrs: Set[str] = field(default_factory=set)
    #: the context is used as a bare value (passed on, stored, returned)
    ctx_escapes: bool = False

    def reads(self, buffer: Optional[str] = None) -> List[BufferAccess]:
        return [a for a in self.accesses if a.mode is AccessMode.READ
                and (buffer is None or a.buffer == buffer)]

    def writes(self, buffer: Optional[str] = None) -> List[BufferAccess]:
        return [a for a in self.accesses if a.mode is AccessMode.WRITE
                and (buffer is None or a.buffer == buffer)]

    @property
    def read_names(self) -> Set[str]:
        return {a.buffer for a in self.accesses if a.mode is AccessMode.READ}

    @property
    def written_names(self) -> Set[str]:
        return {a.buffer for a in self.accesses if a.mode is AccessMode.WRITE}

    @property
    def referenced_names(self) -> Set[str]:
        return {a.buffer for a in self.accesses}


# ---------------------------------------------------------------------------
# taint values tracked for local variables
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _TileSlice:
    """A slice object covering exactly the group's tile along ``dim``
    (``rows()``/``cols()`` result, or a rebuilt ``slice(lo, hi)``)."""
    dim: int


@dataclass(frozen=True)
class _TileBound:
    """One scalar bound of the group's tile: ``lo`` or ``hi`` of
    ``item_range(dim)``."""
    dim: int
    which: str  # "lo" / "hi"


@dataclass(frozen=True)
class _TileBoundPair:
    """The un-unpacked ``item_range(dim)`` tuple."""
    dim: int


@dataclass(frozen=True)
class _TileScalar:
    """The group's own index along ``dim`` (``group_id[dim]``)."""
    dim: int


@dataclass(frozen=True)
class _BufferAlias:
    """A whole-variable alias of a kernel argument (``src = ctx["src"]``)."""
    name: str


def _resolve_cells(fn) -> Dict[str, Any]:
    """Free variables (closure cells) and module globals of ``fn``."""
    env: Dict[str, Any] = dict(getattr(fn, "__globals__", {}) or {})
    freevars = getattr(fn.__code__, "co_freevars", ())
    closure = getattr(fn, "__closure__", None) or ()
    for name, cell in zip(freevars, closure):
        try:
            env[name] = cell.cell_contents
        except ValueError:  # pragma: no cover - unfilled cell
            pass
    return env


class _BodyVisitor(ast.NodeVisitor):
    def __init__(self, ctx_name: str, outer_env: Dict[str, Any],
                 facts: KernelFacts):
        self.ctx = ctx_name
        self.outer = outer_env
        self.facts = facts
        #: local taint environment: var name -> taint value
        self.env: Dict[str, Any] = {}
        #: ``ctx["B"]`` nodes serving as the base of a write target or of a
        #: subscripted access already recorded — skip them in generic visits
        self._consumed: Set[int] = set()

    # -- helpers -----------------------------------------------------------
    def _const_int(self, node: ast.AST) -> Optional[int]:
        if isinstance(node, ast.Constant) and isinstance(node.value, int) \
                and not isinstance(node.value, bool):
            return node.value
        return None

    def _buffer_key(self, node: ast.AST, line: int) -> Optional[str]:
        """Resolve the key of ``ctx[<node>]`` to a buffer/scalar name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            value = self.env.get(node.id, self.outer.get(node.id))
            if isinstance(value, str):
                return value
        self.facts.unresolved_keys.append((ast.unparse(node), line))
        return None

    def _is_ctx_method(self, node: ast.AST, name: str) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == self.ctx
                and node.func.attr == name)

    def _tile_call_value(self, node: ast.AST) -> Optional[Any]:
        """Taint value of a ``ctx.rows()/cols()/item_range(d)`` call."""
        if self._is_ctx_method(node, "rows"):
            self.facts.tile_dims.add(0)
            return _TileSlice(0)
        if self._is_ctx_method(node, "cols"):
            self.facts.tile_dims.add(1)
            return _TileSlice(1)
        if self._is_ctx_method(node, "item_range"):
            args = node.args
            dim = 0 if not args else self._const_int(args[0])
            if dim is None:
                return None
            self.facts.tile_dims.add(dim)
            return _TileBoundPair(dim)
        # ctx.group_id[d]
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id == self.ctx
                and node.value.attr == "group_id"):
            dim = self._const_int(node.slice)
            if dim is not None:
                self.facts.tile_dims.add(dim)
                return _TileScalar(dim)
        return None

    def _taint_of(self, node: ast.AST) -> Any:
        """Taint value of an arbitrary expression (None when unknown)."""
        value = self._tile_call_value(node)
        if value is not None:
            return value
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        # r[0] / r[1] on an un-unpacked item_range pair
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            pair = self.env.get(node.value.id)
            if isinstance(pair, _TileBoundPair):
                index = self._const_int(node.slice)
                if index in (0, 1):
                    return _TileBound(pair.dim, "lo" if index == 0 else "hi")
        # slice(lo, hi) rebuilt from tile bounds
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "slice" and len(node.args) == 2):
            lo = self._taint_of(node.args[0])
            hi = self._taint_of(node.args[1])
            if (isinstance(lo, _TileBound) and isinstance(hi, _TileBound)
                    and lo.dim == hi.dim and lo.which == "lo"
                    and hi.which == "hi"):
                return _TileSlice(lo.dim)
        return None

    def _classify_axis(self, node: ast.AST) -> Axis:
        if isinstance(node, ast.Slice):
            if node.step is not None and self._const_int(node.step) != 1:
                return OTHER
            if node.lower is None and node.upper is None:
                return FULL
            lo = self._taint_of(node.lower) if node.lower is not None else None
            hi = self._taint_of(node.upper) if node.upper is not None else None
            if (isinstance(lo, _TileBound) and isinstance(hi, _TileBound)
                    and lo.dim == hi.dim and lo.which == "lo"
                    and hi.which == "hi"):
                return tile(lo.dim)
            return OTHER
        value = self._taint_of(node)
        if isinstance(value, (_TileSlice, _TileScalar)):
            return tile(value.dim)
        return OTHER

    def _classify_subscript(self, node: ast.AST) -> Tuple[Axis, ...]:
        if isinstance(node, ast.Tuple):
            return tuple(self._classify_axis(el) for el in node.elts)
        return (self._classify_axis(node),)

    def _base_buffer(self, node: ast.AST, line: int) -> Optional[str]:
        """Buffer name when ``node`` evaluates to a whole kernel argument."""
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == self.ctx):
            self._consumed.add(id(node))
            return self._buffer_key(node.slice, line)
        if isinstance(node, ast.Name):
            alias = self.env.get(node.id)
            if isinstance(alias, _BufferAlias):
                return alias.name
        return None

    def _record(self, buffer: str, mode: AccessMode, axes: Tuple[Axis, ...],
                subscripted: bool, line: int) -> None:
        self.facts.accesses.append(BufferAccess(
            buffer=buffer, mode=mode, axes=axes,
            subscripted=subscripted, line=line,
        ))

    # -- statements --------------------------------------------------------
    def _handle_store(self, target: ast.AST, line: int) -> bool:
        """Record a buffer write behind an assignment target.

        Returns True when the target was a buffer store (so the caller
        skips the generic visit of that target).
        """
        if isinstance(target, ast.Subscript):
            base = self._base_buffer(target.value, line)
            if base is not None:
                if isinstance(target.value, ast.Subscript):
                    self._consumed.add(id(target.value))
                axes = self._classify_subscript(target.slice)
                self._record(base, AccessMode.WRITE, axes, True, line)
                # the index expressions themselves may read buffers
                self.visit(target.slice)
                return True
            # ctx[<key>] = v — rebinding an argument wholesale
            if (isinstance(target.value, ast.Name)
                    and target.value.id == self.ctx):
                key = self._buffer_key(target.slice, line)
                if key is not None:
                    self._record(key, AccessMode.WRITE, (), False, line)
                return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        line = node.lineno
        taint = self._taint_of(node.value)
        if taint is None and isinstance(node.value, ast.Subscript) \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id == self.ctx:
            # src = ctx["src"]: a whole-variable alias, not yet a read
            key = self._buffer_key(node.value.slice, line)
            if key is not None:
                taint = _BufferAlias(key)
        if not isinstance(taint, _BufferAlias):
            self.visit(node.value)
        for target in node.targets:
            if self._handle_store(target, line):
                continue
            if isinstance(target, ast.Name):
                if taint is not None:
                    self.env[target.id] = taint
                else:
                    self.env.pop(target.id, None)
            elif isinstance(target, ast.Tuple) and all(
                    isinstance(el, ast.Name) for el in target.elts):
                # c0, c1 = ctx.item_range(d)
                if isinstance(taint, _TileBoundPair) and len(target.elts) == 2:
                    self.env[target.elts[0].id] = _TileBound(taint.dim, "lo")
                    self.env[target.elts[1].id] = _TileBound(taint.dim, "hi")
                else:
                    for el in target.elts:
                        self.env.pop(el.id, None)
            else:
                self.visit(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        line = node.lineno
        self.visit(node.value)
        if isinstance(node.target, ast.Subscript):
            base = self._base_buffer(node.target.value, line)
            if base is not None:
                axes = self._classify_subscript(node.target.slice)
                # += reads the previous contents, then writes
                self._record(base, AccessMode.READ, axes, True, line)
                self._record(base, AccessMode.WRITE, axes, True, line)
                self.visit(node.target.slice)
                return
        if isinstance(node.target, ast.Name):
            self.env.pop(node.target.id, None)
        self.visit(node.target)

    def visit_For(self, node: ast.For) -> None:
        self.facts.loops.append(LoopInfo("for", node.lineno))
        self.generic_visit(node)

    def visit_While(self, node: ast.While) -> None:
        self.facts.loops.append(LoopInfo("while", node.lineno))
        self.generic_visit(node)

    # -- expressions -------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if id(node) in self._consumed:
            self.visit(node.slice)
            return
        # ctx.group_id[d] / geometry probes: record the tile dim
        self._tile_call_value(node)
        base = self._base_buffer(node.value, node.lineno)
        if base is not None and isinstance(node.ctx, ast.Load):
            axes = self._classify_subscript(node.slice)
            self._record(base, AccessMode.READ, axes, True, node.lineno)
            self.visit(node.slice)
            return
        # ctx["B"] as a whole-variable load
        if (isinstance(node.value, ast.Name) and node.value.id == self.ctx
                and isinstance(node.ctx, ast.Load)):
            key = self._buffer_key(node.slice, node.lineno)
            if key is not None:
                self._record(key, AccessMode.READ, (), False, node.lineno)
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._tile_call_value(node)  # register geometry queries
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == self.ctx:
            self.facts.ctx_attrs.add(node.attr)
            return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # every ctx[...] / ctx.<attr> use is consumed before reaching here
        if node.id == self.ctx:
            self.facts.ctx_escapes = True
            return
        # a whole-variable use of a buffer alias is a whole-variable read
        if isinstance(node.ctx, ast.Load):
            alias = self.env.get(node.id)
            if isinstance(alias, _BufferAlias):
                self._record(alias.name, AccessMode.READ, (), False,
                             node.lineno)


def extract_facts(body) -> KernelFacts:
    """Extract :class:`KernelFacts` from a kernel body function.

    Bodies without retrievable source (lambdas, builtins, C extensions,
    functions defined in a REPL) yield ``analyzable=False`` — the analyzer
    degrades to the declaration- and cost-level rules only.
    """
    name = getattr(body, "__name__", "")
    if name == "<lambda>":
        return KernelFacts(analyzable=False, reason="body is a lambda")
    try:
        source = inspect.getsource(body)
        source_file = inspect.getsourcefile(body) or "<unknown>"
        first_line = body.__code__.co_firstlineno
    except (TypeError, OSError):
        return KernelFacts(analyzable=False,
                           reason="body source is not retrievable")
    try:
        tree = ast.parse(textwrap.dedent(source))
    except SyntaxError:
        return KernelFacts(analyzable=False,
                           reason="body source does not parse standalone")
    fndefs = [n for n in tree.body
              if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    if not fndefs:
        return KernelFacts(analyzable=False,
                           reason="no function definition in body source")
    fndef = fndefs[0]
    if not fndef.args.args:
        return KernelFacts(analyzable=False,
                           reason="body takes no context parameter")
    ctx_name = fndef.args.args[0].arg

    facts = KernelFacts(analyzable=True, source_file=source_file,
                        first_line=first_line)
    visitor = _BodyVisitor(ctx_name, _resolve_cells(body), facts)
    for stmt in fndef.body:
        visitor.visit(stmt)
    # report lines relative to the real file, not the dedented snippet
    offset = first_line - fndef.lineno
    facts.accesses = [
        BufferAccess(a.buffer, a.mode, a.axes, a.subscripted, a.line + offset)
        for a in facts.accesses
    ]
    facts.loops = [LoopInfo(l.kind, l.line + offset) for l in facts.loops]
    facts.unresolved_keys = [(expr, line + offset)
                             for expr, line in facts.unresolved_keys]
    return facts
