"""Symbolic protocol extraction and whole-program communication checks.

The communication rules in :mod:`repro.analysis.comm` are *per-site*: a
tag collision or a missing timeout is visible at one call site.  Whether
the program's sends and receives actually **pair up across ranks**, and
whether the exchange order can deadlock, are properties of the whole
rank-parameterized protocol — this module checks them statically, for
every processor count at once.

For each registered SPMD program (:data:`DEFAULT_PROTOCOL_PROGRAMS`) an
abstract interpreter walks the program AST — inlining ``yield from``
helper generators in the same module or imported from analyzed
``repro.*`` modules, each parameter bound to the caller's argument (read
in the caller's frame and module, so a helper's ``back > 0`` called with
``s_back`` reads ``s_back > 0``) — and extracts an ordered sequence of
:class:`ProtoEvent`\\ s: symbolic sends, receives, and collectives, each
carrying its resolved tag, its :class:`~repro.analysis.peers.Peer`
expression, the :class:`~repro.analysis.peers.RankGuard` and
configuration atoms it executes under, and its enclosing phase loops.

Four rules run over the extracted protocol:

``PROTO-UNMATCHED-SEND`` / ``PROTO-UNMATCHED-RECV``
    Every send must have a structurally matching receive under
    peer-expression inversion (same tag, same phase loops, same
    configuration atoms, equal canonical channel set) and vice versa.
``PROTO-DEADLOCK-CYCLE``
    Phase-ordered wait-for analysis: within each phase-loop region, a
    receive waits on every blocking operation its matched send's
    executors perform earlier in program order; a cycle in that
    site-level graph is reported with the participating sites, and
    acyclicity proves the region deadlock-free for every ``nranks``
    (messages are buffered, sends never block, and rank-uniform loop
    trip counts let the per-iteration argument induct).
``PROTO-COLLECTIVE-DIVERGENCE``
    Collective participation must be rank-uniform: a collective under a
    rank guard hangs every rank the guard excludes.

The guard-depth contract (``PROTO-GUARD-DEPTH-MISMATCH``) lives in
:mod:`repro.analysis.contracts` and reuses the same extracted events.

``concrete_channels`` expands a verified protocol to the concrete
``{(src, dst, tag)}`` set for one configuration; the test suite proves
it a superset of the channels observed in recorded traces (exact on the
striped wavelet program), the same way the wildcard rule was validated
against the dynamic race detector.
"""

from __future__ import annotations

import ast
import copy
import itertools
from dataclasses import dataclass, field

from repro.analysis.comm import COLLECTIVE_FUNCS, kwarg
from repro.analysis.contracts import check_guard_depths
from repro.analysis.peers import (
    AXIS_HELPERS,
    OPAQUE,
    Peer,
    RankGuard,
    atoms_compatible,
    channel_key,
    describe_channel,
    eval_atoms,
    eval_static,
    guards_intersect,
    intersect_guards,
)
from repro.analysis.rules import Finding, rule
from repro.analysis.sources import ConstEnv, ResolvedValue, SourceModule

__all__ = [
    "ProtocolProgram",
    "DEFAULT_PROTOCOL_PROGRAMS",
    "ProtoEvent",
    "ProgramProtocol",
    "extract_protocol",
    "check_protocol",
    "concrete_channels",
]

RULE_UNMATCHED_SEND = rule(
    "PROTO-UNMATCHED-SEND",
    "error",
    "symbolic send has no structurally matching receive",
    "add the receive with the inverted peer expression (same tag, same "
    "guards and phase loop), or delete the dead send",
)
RULE_UNMATCHED_RECV = rule(
    "PROTO-UNMATCHED-RECV",
    "error",
    "symbolic receive has no structurally matching send",
    "add the send with the inverted peer expression (same tag, same "
    "guards and phase loop), or delete the dead receive",
)
RULE_DEADLOCK_CYCLE = rule(
    "PROTO-DEADLOCK-CYCLE",
    "error",
    "wait-for cycle among symbolic communication sites",
    "reorder the exchange so every receive's matched send is issued "
    "before any operation the sender blocks on (send-before-recv)",
)
RULE_COLLECTIVE_DIVERGENCE = rule(
    "PROTO-COLLECTIVE-DIVERGENCE",
    "error",
    "collective invoked under a rank-dependent guard",
    "hoist the collective out of the rank conditional; every rank must "
    "participate or the excluded ranks hang the exchange",
)


@dataclass(frozen=True)
class ProtocolProgram:
    """One registered entry point for protocol verification.

    ``phase`` marks wavelet programs whose guard exchanges are bound to
    the kernel's ``analysis_guard_depths`` / ``synthesis_guard_depths``
    contract (checked by :mod:`repro.analysis.contracts`).
    """

    module: str
    func: str
    phase: str | None = None  # None | "analysis" | "synthesis"


#: Every registered SPMD rank program (the protocol lint surface).
DEFAULT_PROTOCOL_PROGRAMS: tuple[ProtocolProgram, ...] = (
    ProtocolProgram("repro.wavelet.parallel.spmd", "striped_wavelet_program", "analysis"),
    ProtocolProgram("repro.wavelet.parallel.spmd", "block_wavelet_program", "analysis"),
    ProtocolProgram("repro.wavelet.parallel.spmd_1d", "dwt_1d_program", "analysis"),
    ProtocolProgram("repro.wavelet.parallel.spmd_1d", "idwt_1d_program", "synthesis"),
    ProtocolProgram(
        "repro.wavelet.parallel.spmd_reconstruct", "striped_reconstruct_program", "synthesis"
    ),
    ProtocolProgram("repro.nbody.parallel", "manager_worker_program"),
    ProtocolProgram("repro.nbody.parallel", "replicated_program"),
    ProtocolProgram("repro.pic.parallel", "pic_program"),
)


@dataclass(frozen=True)
class ProtoEvent:
    """One symbolic communication event in extraction order."""

    index: int
    kind: str  # "send" | "recv" | "collective"
    module: str
    line: int
    peer: Peer | None
    tag: int | None
    tag_text: str
    guard: RankGuard
    atoms: frozenset  # of (condition text, polarity)
    loops: tuple  # enclosing phase-loop line numbers
    payload: ast.expr | None = None
    payload_env: dict = field(default_factory=dict, hash=False, compare=False)
    collective: str | None = None
    root: int | None = None

    def site(self) -> str:
        what = self.collective or self.kind
        return f"{what}@{self.module}:{self.line}"


@dataclass
class ProgramProtocol:
    """The extracted protocol of one rank program."""

    program: ProtocolProgram
    events: list
    matches: list = field(default_factory=list)  # (send, recv) pairs

    @property
    def module(self) -> str:
        return self.program.module

    @property
    def func(self) -> str:
        return self.program.func


# -- extraction ------------------------------------------------------------


class _Frame:
    """Per-(inlined-)function symbol bindings."""

    def __init__(self) -> None:
        self.special: dict[str, str] = {}  # name -> "rank" | "nranks"
        self.peers: dict[str, Peer] = {}
        self.payloads: dict[str, ast.expr] = {}
        # An inlined helper's arguments, in the outermost program's names.
        self.params: dict[str, ast.expr] = {}
        self.consts: dict[str, ResolvedValue | None] = {}


class _Substitute(ast.NodeTransformer):
    """Replace parameter names by the caller's expressions."""

    def __init__(self, params: dict[str, ast.expr]) -> None:
        self.params = params

    def visit_Name(self, node: ast.Name) -> ast.expr:
        return copy.deepcopy(self.params.get(node.id, node))


_MAX_INLINE_DEPTH = 8


class _Extractor:
    def __init__(self, module_map: dict, spec: ProtocolProgram) -> None:
        self.module_map = module_map
        self.spec = spec
        self.events: list = []
        self._index = 0
        self._envs: dict[str, ConstEnv] = {}
        self._inline_stack: list = []
        # Walk state (saved/restored around inlining).
        self.module: SourceModule = module_map[spec.module]
        self.env: ConstEnv = self._env_for(spec.module)
        self.frame = _Frame()
        self.guard = RankGuard("all")
        self.atoms: tuple = ()
        self.loops: tuple = ()

    # -- module-level caches ----------------------------------------------

    def _env_for(self, name: str) -> ConstEnv:
        if name not in self._envs:
            self._envs[name] = ConstEnv(self.module_map[name])
        return self._envs[name]

    @staticmethod
    def _functions(module: SourceModule) -> dict:
        return {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.FunctionDef)
        }

    @staticmethod
    def _imports(module: SourceModule) -> dict:
        table: dict[str, tuple] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    table[alias.asname or alias.name] = (node.module, alias.name)
        return table

    # -- entry point -------------------------------------------------------

    def extract(self) -> ProgramProtocol | None:
        funcdef = self._functions(self.module).get(self.spec.func)
        if funcdef is None:
            return None
        self._walk_body(funcdef.body)
        return ProgramProtocol(program=self.spec, events=self.events)

    # -- statement walk ----------------------------------------------------

    def _walk_body(self, body: list) -> bool:
        """Walk statements in order; True when the body always terminates
        (returns/raises) before falling through."""
        for stmt in body:
            if self._walk_stmt(stmt):
                return True
        return False

    def _walk_stmt(self, stmt: ast.stmt) -> bool:
        if isinstance(stmt, ast.If):
            return self._walk_if(stmt)
        if isinstance(stmt, ast.For):
            self._walk_for(stmt)
            return False
        if isinstance(stmt, ast.While):
            self.loops = self.loops + (stmt.lineno,)
            try:
                self._walk_body(stmt.body)
            finally:
                self.loops = self.loops[:-1]
            self._walk_body(stmt.orelse)
            return False
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._scan_yields(stmt)
            return True
        if isinstance(stmt, (ast.With, ast.Try)):
            # Conservative: walk every sub-body in order, no termination claim.
            for part in ast.iter_child_nodes(stmt):
                if isinstance(part, ast.stmt):
                    self._walk_stmt(part)
                elif hasattr(part, "body"):
                    self._walk_body(part.body)  # type: ignore[attr-defined]
            return False
        if isinstance(stmt, ast.Assign):
            self._scan_yields(stmt)
            self._record_assign(stmt)
            return False
        if isinstance(stmt, ast.AnnAssign):
            self._scan_yields(stmt)
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self._record_binding(stmt.target, stmt.value)
            return False
        self._scan_yields(stmt)
        return False

    def _walk_if(self, stmt: ast.If) -> bool:
        # A test the bound literals decide (a helper's flag) takes one branch.
        test = self._subst(stmt.test)
        decided = eval_static(test, {})
        if decided is not OPAQUE:
            return self._walk_body(stmt.body if decided else stmt.orelse)
        rank_test = self._rank_test(stmt.test)
        saved_guard, saved_atoms = self.guard, self.atoms
        if rank_test is not None:
            then_guard, else_guard = rank_test
            self.guard = intersect_guards(saved_guard, then_guard)
            body_done = self._walk_body(stmt.body) if self.guard.kind != "none" else False
            self.guard = intersect_guards(saved_guard, else_guard)
            else_done = (
                self._walk_body(stmt.orelse)
                if stmt.orelse and self.guard.kind != "none"
                else False
            )
            self.guard = saved_guard
            if body_done and (else_done or not stmt.orelse):
                if not stmt.orelse:
                    # The taken branch never falls through: the rest of
                    # this body runs under the negated guard only.
                    self.guard = intersect_guards(saved_guard, else_guard)
                    return False
                return else_done
            if else_done and stmt.orelse and not body_done:
                self.guard = intersect_guards(saved_guard, then_guard)
            return False
        text = _normalize(test)
        self.atoms = saved_atoms + ((text, True),)
        body_done = self._walk_body(stmt.body)
        self.atoms = saved_atoms + ((text, False),)
        else_done = self._walk_body(stmt.orelse) if stmt.orelse else False
        self.atoms = saved_atoms
        if body_done and else_done:
            return True
        if body_done and not stmt.orelse:
            self.atoms = saved_atoms + ((text, False),)
        elif else_done and stmt.orelse and not body_done:
            self.atoms = saved_atoms + ((text, True),)
        return False

    def _walk_for(self, stmt: ast.For) -> None:
        fan_lo = self._fan_range(stmt)
        if fan_lo is not None and isinstance(stmt.target, ast.Name):
            self.frame.peers[stmt.target.id] = Peer(
                "fanrange", fan_lo, text=_normalize(stmt.iter)
            )
            self._walk_body(stmt.body)
        else:
            self.loops = self.loops + (stmt.lineno,)
            try:
                self._walk_body(stmt.body)
            finally:
                self.loops = self.loops[:-1]
        self._walk_body(stmt.orelse)

    def _fan_range(self, stmt: ast.For) -> int | None:
        """``for v in range(lo, nranks)`` fans one rank over the others;
        any other loop is a phase loop."""
        it = stmt.iter
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "range"
            and not it.keywords
        ):
            return None
        if len(it.args) == 1:
            lo_node, hi = None, it.args[0]
        elif len(it.args) == 2:
            lo_node, hi = it.args
        else:
            return None
        if not self._is_nranks(hi):
            return None
        if lo_node is None:
            return 0
        resolved = self._const(lo_node)
        return resolved.value if resolved is not None else None

    # -- expression scan ---------------------------------------------------

    def _scan_yields(self, node: ast.AST, extra: tuple = ()) -> None:
        """Find every yield/yield-from in a statement, tracking ternary
        (``IfExp``) conditions as extra guard atoms."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.IfExp):
            self._scan_yields(node.test, extra)
            text = _normalize(self._subst(node.test))
            self._scan_yields(node.body, extra + ((text, True),))
            self._scan_yields(node.orelse, extra + ((text, False),))
            return
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self._handle_yield(node, extra)
            return
        for child in ast.iter_child_nodes(node):
            self._scan_yields(child, extra)

    def _handle_yield(self, node: ast.AST, extra: tuple) -> None:
        value = node.value  # type: ignore[attr-defined]
        if not isinstance(value, ast.Call):
            return
        call = value
        if isinstance(node, ast.YieldFrom):
            name = _call_name(call)
            if (
                name in COLLECTIVE_FUNCS
                and call.args
                and isinstance(call.args[0], ast.Name)
                and call.args[0].id == "ctx"
            ):
                self._record_collective(call, name)
            elif name is not None:
                self._inline(name, call)
            return
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "ctx"
            and func.attr in ("send", "recv")
        ):
            self._record_comm(call, func.attr, extra)

    def _inline(self, name: str, call: ast.Call) -> None:
        """Inline a ``yield from helper(ctx, ...)`` generator call."""
        if not (
            call.args and isinstance(call.args[0], ast.Name) and call.args[0].id == "ctx"
        ):
            return
        target_module, target_func = self.module.name, name
        if name not in self._functions(self.module):
            imported = self._imports(self.module).get(name)
            if imported is None:
                return
            target_module, target_func = imported[0], imported[1]
            if target_module not in self.module_map:
                return
            if target_func not in self._functions(self.module_map[target_module]):
                return
        key = (target_module, target_func)
        if key in self._inline_stack or len(self._inline_stack) >= _MAX_INLINE_DEPTH:
            return
        funcdef = self._functions(self.module_map[target_module])[target_func]
        args = funcdef.args
        params = args.posonlyargs + args.args
        positional = itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args)
        given = dict(zip((p.arg for p in params), positional))
        given.update((kw.arg, kw.value) for kw in call.keywords if kw.arg is not None)
        # Every parameter shadows the callee module's names; the caller's
        # arguments are read in its own frame and module.
        frame = _Frame()
        frame.consts = {p.arg: None for p in params + args.kwonlyargs}
        for name, arg in given.items():
            if name in frame.consts:
                self._bind(frame, name, arg)
        # The callee runs under the caller's guard/atoms/loops, but any
        # narrowing its early returns introduce ends with the callee.
        saved = (self.module, self.env, self.frame, self.guard, self.atoms)
        self._inline_stack.append(key)
        self.module = self.module_map[target_module]
        self.env = self._env_for(target_module)
        self.frame = _Frame()
        try:
            # Defaults are read in the callee's module, unless a ``*`` or
            # ``**`` argument may supply the parameter.
            if len(given) == len(call.args) + len(call.keywords):
                defaults = zip(params[len(params) - len(args.defaults) :], args.defaults)
                for param, default in [*defaults, *zip(args.kwonlyargs, args.kw_defaults)]:
                    if default is not None and param.arg not in given:
                        self._bind(frame, param.arg, default)
            self.frame = frame
            self._walk_body(funcdef.body)
        finally:
            self.module, self.env, self.frame, self.guard, self.atoms = saved
            self._inline_stack.pop()

    def _bind(self, frame: _Frame, name: str, arg: ast.expr) -> None:
        """Bind parameter ``name`` of ``frame`` to ``arg`` as read here."""
        frame.params[name] = self._subst(arg)
        frame.consts[name] = self._const(arg)
        special = self._ctx_attr(arg)
        if isinstance(arg, ast.Name):
            special = self.frame.special.get(arg.id)
        if special is not None:
            frame.special[name] = special
        peer = self._resolve_peer(arg)
        if peer.kind != "unknown":
            frame.peers[name] = peer

    def _subst(self, node: ast.expr) -> ast.expr:
        """``node`` with parameters replaced by the caller's expressions."""
        params = self.frame.params
        return _Substitute(params).visit(copy.deepcopy(node)) if params else node

    def _const(self, node: ast.expr | None) -> ResolvedValue | None:
        """The integer ``node`` resolves to, through bound parameters."""
        if isinstance(node, ast.Name) and node.id in self.frame.consts:
            return self.frame.consts[node.id]
        if node is None or any(
            isinstance(sub, ast.Name) and sub.id in self.frame.consts for sub in ast.walk(node)
        ):
            return None
        return self.env.resolve(node)

    # -- event recording ---------------------------------------------------

    def _next_index(self) -> int:
        self._index += 1
        return self._index - 1

    def _record_comm(self, call: ast.Call, kind: str, extra: tuple) -> None:
        peer_node = call.args[0] if call.args else kwarg(call, "dst" if kind == "send" else "src")
        tag_node = kwarg(call, "tag")
        if kind == "send":
            tag_value: int | None = 0
            tag_text = "<default 0>"
        else:
            tag_value, tag_text = None, "<ANY_TAG>"
        if tag_node is not None:
            resolved = self._const(tag_node)
            tag_value = resolved.value if resolved is not None else None
            tag_text = _normalize(self._subst(tag_node))
        payload = None
        if kind == "send":
            payload = call.args[1] if len(call.args) > 1 else kwarg(call, "payload")
            payload = self._subst(payload) if payload is not None else None
        self.events.append(
            ProtoEvent(
                index=self._next_index(),
                kind=kind,
                module=self.module.name,
                line=call.lineno,
                peer=self._resolve_peer(peer_node),
                tag=tag_value,
                tag_text=tag_text,
                guard=self.guard,
                atoms=frozenset(self.atoms + extra),
                loops=self.loops,
                payload=payload,
                payload_env=dict(self.frame.payloads),
            )
        )

    def _record_collective(self, call: ast.Call, name: str) -> None:
        tag_node = kwarg(call, "tag")
        tag_value = None
        tag_text = f"<default {name}>"
        if tag_node is not None:
            resolved = self._const(tag_node)
            tag_value = resolved.value if resolved is not None else None
            tag_text = _normalize(self._subst(tag_node))
        root_node = kwarg(call, "root")
        root = 0
        if root_node is not None:
            resolved = self._const(root_node)
            root = resolved.value if resolved is not None else None
        self.events.append(
            ProtoEvent(
                index=self._next_index(),
                kind="collective",
                module=self.module.name,
                line=call.lineno,
                peer=None,
                tag=tag_value,
                tag_text=tag_text,
                guard=self.guard,
                atoms=frozenset(self.atoms),
                loops=self.loops,
                collective=name,
                root=root,
            )
        )

    # -- bindings and symbolic resolution ----------------------------------

    def _record_assign(self, stmt: ast.Assign) -> None:
        if len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            self._record_binding(target, stmt.value)
        elif (
            isinstance(target, ast.Tuple)
            and isinstance(stmt.value, ast.Tuple)
            and len(target.elts) == len(stmt.value.elts)
        ):
            for t, v in zip(target.elts, stmt.value.elts):
                if isinstance(t, ast.Name):
                    self._record_binding(t, v)

    def _record_binding(self, target: ast.Name, value: ast.expr) -> None:
        special = self._ctx_attr(value)
        if special is not None:
            self.frame.special[target.id] = special
            return
        peer = self._resolve_peer(value)
        self.frame.payloads[target.id] = self._subst(value)
        self.frame.params.pop(target.id, None)  # a local shadows a parameter
        self.frame.consts.pop(target.id, None)
        if peer.kind != "unknown":
            self.frame.peers[target.id] = peer
        else:
            self.frame.peers.pop(target.id, None)

    @staticmethod
    def _ctx_attr(node: ast.expr) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ctx"
            and node.attr in ("rank", "nranks")
        ):
            return node.attr
        return None

    def _is_rank(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return self.frame.special.get(node.id) == "rank"
        return self._ctx_attr(node) == "rank"

    def _is_nranks(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return self.frame.special.get(node.id) == "nranks"
        return self._ctx_attr(node) == "nranks"

    def _resolve_peer(self, node: ast.expr | None) -> Peer:
        if node is None:
            return Peer("unknown", text="<missing>")
        text = _normalize(node)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return Peer("const", node.value, text=text)
            return Peer("unknown", text=text)
        if isinstance(node, ast.Name):
            bound = self.frame.peers.get(node.id)
            if bound is not None:
                return bound
        # (rank ± k) % nranks — the explicit ring form.
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Mod)
            and self._is_nranks(node.right)
            and isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, (ast.Add, ast.Sub))
            and self._is_rank(node.left.left)
        ):
            step = self._const(node.left.right)
            if step is not None:
                delta = step.value if isinstance(node.left.op, ast.Add) else -step.value
                return Peer("axis", delta, axis="ring", text=text)
        # rank ^ mask — the butterfly form.
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.BitXor)
            and self._is_rank(node.left)
        ):
            mask = self._const(node.right)
            if mask is not None:
                return Peer("xor", mask.value, text=text)
        # decomp.north_neighbor(rank) — the decomposition helpers.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in AXIS_HELPERS
            and len(node.args) == 1
            and self._is_rank(node.args[0])
        ):
            axis, delta = AXIS_HELPERS[node.func.attr]
            return Peer("axis", delta, axis=axis, text=text)
        resolved = self._const(node)
        if resolved is not None:
            return Peer("const", resolved.value, text=text)
        return Peer("unknown", text=text)

    def _rank_test(self, test: ast.expr) -> tuple | None:
        """``rank == k`` / ``rank != k`` → (then-guard, else-guard)."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Eq, ast.NotEq))
        ):
            return None
        left, right = test.left, test.comparators[0]
        if self._is_rank(left):
            const = self._const(right)
        elif self._is_rank(right):
            const = self._const(left)
        else:
            return None
        if const is None:
            return None
        only = RankGuard("only", const.value)
        exc = RankGuard("except", const.value)
        if isinstance(test.ops[0], ast.Eq):
            return (only, exc)
        return (exc, only)


def _normalize(node: ast.expr) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse covers the dialect
        return ast.dump(node)


def _call_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def extract_protocol(
    modules: list, spec: ProtocolProgram
) -> ProgramProtocol | None:
    """Extract the symbolic protocol of one program (``None`` when the
    module or function is not in the analyzed set)."""
    module_map = {m.name: m for m in modules}
    if spec.module not in module_map:
        return None
    return _Extractor(module_map, spec).extract()


# -- rule checks -----------------------------------------------------------


def _tag_exempt(tag: int | None) -> bool:
    """Tags owned by a reserved range (collectives, reliable transport)
    are matched by their own layer, not at program level."""
    if tag is None:
        return False
    from repro.machines.tags import protocol_kind

    return protocol_kind(tag) != "app"


def _tag_label(tag: int | None, text: str) -> str:
    if tag is None:
        return text
    from repro.machines.tags import REGISTRY

    name = REGISTRY.name_of(tag)
    return f"tag {tag} ({name})" if name else f"tag {tag}"


def match_events(proto: ProgramProtocol, paths: dict) -> list:
    """Pair sends with receives under peer inversion; unpaired events are
    findings.  Fills ``proto.matches``."""
    findings: list = []

    def unmatched(ev: ProtoEvent, why: str) -> None:
        rule_id = RULE_UNMATCHED_SEND.id if ev.kind == "send" else RULE_UNMATCHED_RECV.id
        findings.append(
            Finding(
                rule_id=rule_id,
                module=ev.module,
                path=paths.get(ev.module, "<memory>"),
                line=ev.line,
                message=f"{ev.kind} on {_tag_label(ev.tag, ev.tag_text)} in "
                f"{proto.func}() {why}",
            )
        )

    groups: dict = {}
    for ev in proto.events:
        if ev.kind == "collective" or _tag_exempt(ev.tag):
            continue
        if ev.tag is None:
            unmatched(ev, "has a tag the analysis cannot resolve to a constant")
            continue
        key = channel_key(ev.kind, ev.peer, ev.guard)
        if key is None:
            unmatched(
                ev,
                f"uses peer {ev.peer.describe()!r} under guard "
                f"{ev.guard.describe()!r}, outside the invertible forms",
            )
            continue
        bucket = groups.setdefault((ev.tag, ev.loops, ev.atoms, key), ([], []))
        bucket[0 if ev.kind == "send" else 1].append(ev)

    for (tag, _loops, _atoms, key), (sends, recvs) in sorted(
        groups.items(), key=lambda kv: (kv[1][0] + kv[1][1])[0].index
    ):
        for send, recv in zip(sends, recvs):
            proto.matches.append((send, recv))
        for ev in sends[len(recvs) :]:
            unmatched(
                ev,
                f"ships {describe_channel(key)} but no receive covers the "
                "inverted channel in the same phase and guards",
            )
        for ev in recvs[len(sends) :]:
            unmatched(
                ev,
                f"expects {describe_channel(key)} but no send produces the "
                "channel in the same phase and guards",
            )
    return findings


def check_deadlock(proto: ProgramProtocol, paths: dict) -> list:
    """Phase-ordered wait-for analysis over the matched protocol."""
    matched_send = {recv.index: send for send, recv in proto.matches}
    blocking = [
        ev
        for ev in proto.events
        if ev.kind == "collective" or (ev.kind == "recv" and not _tag_exempt(ev.tag))
    ]
    edges: dict[int, list] = {}
    by_index = {ev.index: ev for ev in blocking}

    def add_edges(waiter: ProtoEvent, horizon: int, producer_guard, producer_atoms) -> None:
        for other in blocking:
            if other.loops != waiter.loops or other.index >= horizon:
                continue
            if not guards_intersect(other.guard, producer_guard):
                continue
            if not atoms_compatible(other.atoms, producer_atoms):
                continue
            edges.setdefault(waiter.index, []).append(other.index)

    for ev in blocking:
        if ev.kind == "recv":
            send = matched_send.get(ev.index)
            if send is None:
                continue  # already reported as unmatched
            add_edges(ev, send.index, send.guard, ev.atoms | send.atoms)
        else:
            add_edges(ev, ev.index, ev.guard, ev.atoms)

    # Cycle detection (iterative DFS, deterministic order).
    findings: list = []
    color: dict[int, int] = {}
    stack_path: list[int] = []

    def visit(start: int) -> list | None:
        stack = [(start, iter(edges.get(start, ())))]
        color[start] = 1
        stack_path.append(start)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color.get(nxt, 0) == 1:
                    return stack_path[stack_path.index(nxt) :] + [nxt]
                if color.get(nxt, 0) == 0:
                    color[nxt] = 1
                    stack_path.append(nxt)
                    stack.append((nxt, iter(edges.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack_path.pop()
                stack.pop()
        return None

    for ev in blocking:
        if color.get(ev.index, 0) == 0:
            cycle = visit(ev.index)
            if cycle is not None:
                sites = [by_index[i] for i in cycle[:-1]]
                chain = " -> ".join(s.site() for s in sites + [sites[0]])
                first = sites[0]
                findings.append(
                    Finding(
                        rule_id=RULE_DEADLOCK_CYCLE.id,
                        module=first.module,
                        path=paths.get(first.module, "<memory>"),
                        line=first.line,
                        message=f"symbolic wait-for cycle in {proto.func}(): "
                        f"{chain} (a receive is posted before its matched "
                        "send has been issued by the producing ranks)",
                    )
                )
                break
    return findings


def check_collectives(proto: ProgramProtocol, paths: dict) -> list:
    findings: list = []
    for ev in proto.events:
        if ev.kind != "collective" or ev.guard.kind == "all":
            continue
        findings.append(
            Finding(
                rule_id=RULE_COLLECTIVE_DIVERGENCE.id,
                module=ev.module,
                path=paths.get(ev.module, "<memory>"),
                line=ev.line,
                message=f"collective {ev.collective}() in {proto.func}() runs "
                f"only on {ev.guard.describe()}; participation must be "
                "rank-uniform",
            )
        )
    return findings


def check_protocol(
    modules: list, programs: tuple | None = None
) -> tuple[list, list]:
    """Run the whole-program protocol rules over every registered program
    present in ``modules``; returns ``(findings, protocols)``."""
    specs = DEFAULT_PROTOCOL_PROGRAMS if programs is None else programs
    paths = {m.name: m.path for m in modules}
    module_map = {m.name: m for m in modules}
    findings: list = []
    protocols: list = []
    for spec in specs:
        if spec.module not in module_map:
            continue
        proto = _Extractor(module_map, spec).extract()
        if proto is None:
            continue
        protocols.append(proto)
        findings.extend(match_events(proto, paths))
        findings.extend(check_deadlock(proto, paths))
        findings.extend(check_collectives(proto, paths))
        if spec.phase is not None:
            findings.extend(check_guard_depths(proto, paths))
    return findings, protocols


# -- concrete channel expansion --------------------------------------------


def concrete_channels(
    proto: ProgramProtocol,
    nranks: int,
    env: dict,
    grid: tuple | None = None,
) -> set:
    """Expand the verified symbolic protocol to concrete
    ``{(src, dst, tag)}`` channels for one configuration.

    ``env`` decides which guard atoms hold (see
    :func:`repro.analysis.peers.eval_atoms`); ``grid`` is the
    ``(prows, pcols)`` process grid for block programs — without it every
    axis is treated as the rank ring, which is exact for stripe
    decompositions.  Collectives on registry-range tags are the
    collective layer's own traffic and are excluded (mirroring the
    user-tag filter of
    :func:`repro.machines.causality.observed_channels`); collectives on
    explicit user tags contribute their known shape (``gather``/
    ``scatter`` stars) or a conservative all-pairs superset.
    """
    channels: set = set()
    for send, _recv in proto.matches:
        if not eval_atoms(send.atoms, env):
            continue
        key = channel_key("send", send.peer, send.guard)
        if key is not None:
            channels.update((s, d, send.tag) for s, d in _expand_key(key, nranks, grid))
    for ev in proto.events:
        if ev.kind != "collective" or ev.tag is None or _tag_exempt(ev.tag):
            continue
        if not eval_atoms(ev.atoms, env):
            continue
        root = ev.root if ev.root is not None else 0
        if ev.collective == "gather":
            pairs = {(r, root) for r in range(nranks) if r != root}
        elif ev.collective == "scatter":
            pairs = {(root, r) for r in range(nranks) if r != root}
        else:
            pairs = {(a, b) for a in range(nranks) for b in range(nranks) if a != b}
        channels.update((s, d, ev.tag) for s, d in pairs)
    return channels


def _expand_key(key: tuple, nranks: int, grid: tuple | None) -> set:
    shape, *rest = key
    if shape == "shift":
        axis, delta = rest
        if grid is None or axis == "ring":
            return {(r, (r + delta) % nranks) for r in range(nranks)}
        prows, pcols = grid
        pairs = set()
        for r in range(nranks):
            row, col = divmod(r, pcols)
            if axis == "row":
                dst = ((row + delta) % prows) * pcols + col
            else:
                dst = row * pcols + (col + delta) % pcols
            pairs.add((r, dst))
        return pairs
    if shape == "xor":
        mask = rest[0]
        return {(r, r ^ mask) for r in range(nranks) if r ^ mask < nranks}
    if shape == "star-out":
        root, srcs = rest
        members = _fan_members(root, srcs, nranks)
        return {(root, r) for r in members}
    if shape == "star-in":
        root, srcs = rest
        members = _fan_members(root, srcs, nranks)
        return {(r, root) for r in members}
    if shape == "pair":
        src, dst = rest
        if src < nranks and dst < nranks:
            return {(src, dst)}
    return set()


def _fan_members(root: int, srcs: object, nranks: int) -> set:
    if srcs == "except":
        return {r for r in range(nranks) if r != root}
    lo = srcs[1] if isinstance(srcs, tuple) else 0  # ("range", lo)
    return set(range(lo, nranks))
