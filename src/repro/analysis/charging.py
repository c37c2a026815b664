"""Virtual-time charging discipline for rank-program bodies.

The engine only knows about work it is told about: a NumPy kernel call
inside a program body is free in virtual time unless the program charges
it (``yield ctx.compute(flops)`` / ``yield ctx.charge(seconds)``).  An
uncharged kernel silently skews every speedup curve the repo produces,
so this rule enforces the pairing statically:

``CHG-UNCHARGED-KERNEL``
    A known kernel call in a rank-program body (a generator whose first
    parameter is ``ctx``) with no ``ctx.compute``/``ctx.charge``/
    ``ctx.elapse`` yield between it and the next communication operation
    (``ctx.send``/``ctx.recv``/``ctx.checkpoint``, or a ``yield from``
    of a collective or of a communicating helper) or the end of the
    body.

The check is a small abstract interpretation over the statement list: a
*pending* set of uncharged kernel calls flows through the body; charging
yields clear it, communication yields flush it (emitting findings), and
so does ``yield from`` of a collective or of a *communicating helper* (a
``ctx`` generator the analyzed modules define that communicates and
never charges, like the wavelet guard exchange).  ``yield from`` of any
other helper clears it without findings (the helper may charge
internally — helpers that are themselves ``ctx`` generators are analyzed
on their own).  ``if``/``else`` branches are analyzed independently and
joined by union; loop bodies run twice so a kernel pending at the bottom
of a loop meets a communication at the top.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.comm import COLLECTIVE_FUNCS
from repro.analysis.rules import Finding, rule
from repro.analysis.sources import SourceModule

__all__ = ["check_charging", "DEFAULT_KERNEL_CALLS"]

RULE_UNCHARGED = rule(
    "CHG-UNCHARGED-KERNEL",
    "error",
    "kernel call in a program body never charged to virtual time",
    "follow the kernel with `yield ctx.compute(flops)` (or ctx.charge) "
    "before the next communication op",
)

#: Compute kernels the repo's programs call — wavelet filter/lifting
#: primitives and the ``WaveletKernel`` pass methods, the n-body and PIC
#: physics stages — plus dense NumPy ops.
DEFAULT_KERNEL_CALLS = frozenset(
    {
        "analyze",
        "analyze_valid",
        "synthesize",
        "synthesize_valid",
        "sweep_valid",
        "analyze_axis",
        "analyze_axis_valid",
        "synthesize_axis",
        "synthesize_axis_valid",
        "lifting_analyze_axis",
        "lifting_analyze_axis_valid",
        "lifting_synthesize_axis",
        "lifting_synthesize_axis_valid",
        "single_loop_analyze_valid",
        "single_loop_synthesize_valid",
        "tree_forces",
        "build_tree",
        "deposit_cic",
        "gather_field",
        "solve_poisson",
        "electric_field",
        "parallel_poisson",
        "parallel_electric_field",
        "push_particles",
    }
)

#: Dense NumPy entry points (matched as ``numpy...<name>`` after alias
#: expansion, so a local helper named ``dot`` is not confused with
#: ``np.dot``).
_NUMPY_KERNELS = frozenset(
    {
        "einsum",
        "matmul",
        "tensordot",
        "dot",
        "convolve",
        "correlate",
        "fft",
        "ifft",
        "fft2",
        "ifft2",
        "rfft",
        "irfft",
        "solve",
        "lstsq",
        "svd",
        "eig",
        "eigh",
        "inv",
    }
)

_CHARGE_METHODS = ("compute", "charge", "elapse")
_FLUSH_METHODS = ("send", "recv", "checkpoint")


@dataclass(frozen=True)
class _Pending:
    name: str
    line: int


def _dotted_parts(node: ast.expr) -> list[str] | None:
    parts: list[str] = []
    cursor = node
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if not isinstance(cursor, ast.Name):
        return None
    parts.append(cursor.id)
    parts.reverse()
    return parts


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Local names bound to the numpy package (``np``, ``numpy``...)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases.add(alias.asname or alias.name.split(".")[0])
    return aliases


def _is_program(node: ast.FunctionDef) -> bool:
    """A rank program: first parameter named ``ctx`` and a generator."""
    args = node.args.posonlyargs + node.args.args
    if not args or args[0].arg != "ctx":
        return False
    for child in ast.walk(node):
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _communicating_helpers(programs: list[ast.FunctionDef]) -> frozenset[str]:
    """Names of the ``ctx`` generators whose yields all communicate (none
    charges or runs another helper), unless another definition shares
    the name."""
    verdicts: dict[str, set[bool]] = {}
    for node in programs:
        stmts = (n for n in ast.walk(node) if isinstance(n, ast.stmt))
        kinds = {e[0] for e in (_yield_effect(n, frozenset()) for n in stmts) if e}
        verdict = bool(kinds) and not kinds & {"charge", "neutral"}
        verdicts.setdefault(node.name, set()).add(verdict)
    return frozenset(name for name, seen in verdicts.items() if seen == {True})


def _ctx_method(call: ast.Call) -> str | None:
    func = call.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "ctx"
    ):
        return func.attr
    return None


def _yield_effect(stmt: ast.stmt, helpers: frozenset[str]) -> tuple[str, int] | None:
    """Classify the yield carried by this statement, if any.

    Returns ("charge"|"neutral"|<what flushes>, line) or None.
    """
    value: ast.expr | None = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign):
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign):
        value = stmt.value
    elif isinstance(stmt, ast.AugAssign):
        value = stmt.value
    elif isinstance(stmt, ast.Return):
        value = stmt.value
    if isinstance(value, ast.Yield) and isinstance(value.value, ast.Call):
        method = _ctx_method(value.value)
        if method in _CHARGE_METHODS:
            return ("charge", stmt.lineno)
        if method in _FLUSH_METHODS:
            return (f"ctx.{method}", stmt.lineno)
        return None
    if isinstance(value, ast.YieldFrom):
        call = value.value
        if isinstance(call, ast.Call):
            parts = _dotted_parts(call.func)
            name = parts[-1] if parts else None
            if name in COLLECTIVE_FUNCS:
                return (f"collective {name}", stmt.lineno)
            if name in helpers:
                return (f"helper {name}", stmt.lineno)
        # Any other subroutine may charge internally (it is checked on
        # its own if it is a ctx generator) — clear, no findings.
        return ("neutral", stmt.lineno)
    return None


class _ProgramChecker:
    def __init__(
        self,
        module: SourceModule,
        kernel_calls: frozenset[str],
        numpy_aliases: set[str],
        helpers: frozenset[str],
    ) -> None:
        self.module = module
        self.kernel_calls = kernel_calls
        self.numpy_aliases = numpy_aliases
        self.helpers = helpers
        self.findings: list[Finding] = []

    # -- kernel-call scan --------------------------------------------------

    def _kernels_in(self, node: ast.AST) -> list[_Pending]:
        found: list[_Pending] = []
        for child in ast.walk(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if not isinstance(child, ast.Call):
                continue
            parts = _dotted_parts(child.func)
            if parts is None:
                continue
            name = parts[-1]
            if name in self.kernel_calls:
                found.append(_Pending(name=".".join(parts), line=child.lineno))
            elif (
                len(parts) >= 2
                and parts[0] in self.numpy_aliases
                and name in _NUMPY_KERNELS
            ):
                found.append(_Pending(name=".".join(parts), line=child.lineno))
        return found

    # -- dataflow ----------------------------------------------------------

    def _flush(self, pending: set[_Pending], reason: str, line: int) -> set[_Pending]:
        for item in sorted(pending, key=lambda p: (p.line, p.name)):
            self.findings.append(
                Finding(
                    rule_id=RULE_UNCHARGED.id,
                    module=self.module.name,
                    path=self.module.path,
                    line=item.line,
                    message=f"{item.name}() is never charged "
                    f"(yield ctx.compute/charge) before {reason} at "
                    f"line {line}",
                )
            )
        return set()

    def _run_block(self, body: list[ast.stmt], pending: set[_Pending]) -> set[_Pending]:
        for stmt in body:
            pending = self._run_stmt(stmt, pending)
        return pending

    def _run_stmt(self, stmt: ast.stmt, pending: set[_Pending]) -> set[_Pending]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return pending  # nested defs are analyzed separately
        if isinstance(stmt, ast.If):
            pending = pending | set(self._kernels_in(stmt.test))
            then_out = self._run_block(stmt.body, set(pending))
            else_out = self._run_block(stmt.orelse, set(pending))
            return then_out | else_out
        if isinstance(stmt, (ast.For, ast.While)):
            header = stmt.iter if isinstance(stmt, ast.For) else stmt.test
            pending = pending | set(self._kernels_in(header))
            # Two passes reach the fixpoint: pass one discovers what the
            # body leaves pending, pass two feeds it back to the top so a
            # loop-carried kernel meets the communication op at the head.
            once = self._run_block(stmt.body, set(pending))
            twice = self._run_block(stmt.body, set(pending) | once)
            out = pending | once | twice
            return self._run_block(stmt.orelse, out)
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                pending = pending | set(self._kernels_in(item.context_expr))
            return self._run_block(stmt.body, pending)
        if isinstance(stmt, ast.Try):
            out = self._run_block(stmt.body, set(pending))
            for handler in stmt.handlers:
                out = out | self._run_block(handler.body, set(pending))
            out = self._run_block(stmt.orelse, out)
            return self._run_block(stmt.finalbody, out)

        # Simple statement: note its kernels, then apply its yield effect.
        pending = pending | set(self._kernels_in(stmt))
        effect = _yield_effect(stmt, self.helpers)
        if effect is not None:
            kind, line = effect
            if kind == "charge" or kind == "neutral":
                return set()
            return self._flush(pending, kind, line)
        return pending

    def run(self, func: ast.FunctionDef) -> None:
        pending = self._run_block(func.body, set())
        end = func.body[-1].lineno if func.body else func.lineno
        self._flush(pending, "end of program body", end)


def check_charging(
    modules: list[SourceModule],
    *,
    kernel_calls: frozenset[str] = DEFAULT_KERNEL_CALLS,
) -> list[Finding]:
    """Run the charging rule over every rank-program body."""
    programs = [
        [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.FunctionDef) and _is_program(node)
        ]
        for module in modules
    ]
    helpers = _communicating_helpers([node for nodes in programs for node in nodes])
    findings: list[Finding] = []
    for module, nodes in zip(modules, programs):
        aliases = _numpy_aliases(module.tree)
        for node in nodes:
            checker = _ProgramChecker(module, kernel_calls, aliases, helpers)
            checker.run(node)
            findings.extend(checker.findings)
    return findings
