"""Kernel/guard cross-layer contract: exchanged rows match the kernel.

Every wavelet SPMD program ships guard rows sized by the kernel's
``analysis_guard_depths`` / ``synthesis_guard_depths``.  The depths are
*data* (per kernel × filter bank), the slices are *code* (in
:func:`~repro.wavelet.parallel.decomposition.exchange_guards`,
``zone[front : front + back]`` and ``zone[owned : owned + front]``, read
through each call's bound arguments), and nothing ties them together
until a transform silently corrupts its seam.  This check closes the
loop statically: for every registered kernel and a representative set
of filter banks, it evaluates the payload slice depth of each guard-tag
send in the extracted protocol (:mod:`repro.analysis.protocol`) and
compares it against the kernel's depth for the tag's
:class:`~repro.machines.tags.GuardRole`.

A payload whose depth the evaluator cannot reduce to an integer is
skipped — the contract is checked where it is decidable, which covers
every slice form the programs use today: plain and tuple slices such as
``buf[:, front : front + back]`` of a level buffer, ``...`` dimensions
(``buf[..., a:b, :]``), negative lower bounds, slices wrapped in
``np.asarray``/``.copy()``/``.swapaxes()``, and names resolved through
the local assignment environment.  :func:`guard_sends` lists every send
with its depth, so a test can require that each one is decided.
"""

from __future__ import annotations

import ast

from repro.analysis.peers import OPAQUE, eval_atoms, eval_static
from repro.analysis.rules import Finding, rule

__all__ = [
    "check_guard_depths",
    "guard_sends",
    "payload_depth",
    "REPRESENTATIVE_BANK_LENGTHS",
]

RULE_GUARD_DEPTH = rule(
    "PROTO-GUARD-DEPTH-MISMATCH",
    "error",
    "guard exchange ships a different row count than the kernel requires",
    "size the payload slice with the kernel's analysis_guard_depths / "
    "synthesis_guard_depths instead of a hand-computed depth",
)

#: Filter-bank lengths the contract is instantiated over (Haar through D8
#: — every support parity and both margin shapes).
REPRESENTATIVE_BANK_LENGTHS = (2, 4, 6, 8)

#: Slice bounds like ``rows - front`` are evaluated against a symbolic
#: tile size large enough that no guard clause truncates it.
_SIZE = 1 << 20

#: Marker for a dimension sliced without bounds (``[:]``).
_FULL = object()


def _contract_env(kernel: str, bank) -> dict:
    """Closed-world bindings under which the guard sends are evaluated."""
    from repro.wavelet.kernels import get_kernel

    impl = get_kernel(kernel)
    front, back = impl.analysis_guard_depths(bank)
    s_front, s_back = impl.synthesis_guard_depths(bank)
    return {
        "front": front,
        "back": back,
        "s_front": s_front,
        "s_back": s_back,
        "sweep": kernel == "single-loop",
        "nranks": 4,
        "decomp.pcols": 2,
        "decomp.prows": 2,
        "rows": _SIZE,
        "cols": _SIZE,
        "length": _SIZE,
    }


def _eval_int(node: ast.expr | None, env: dict) -> int | None:
    if node is None:
        return None
    value = eval_static(node, env)
    if value is OPAQUE or not isinstance(value, int) or isinstance(value, bool):
        return None
    return value


def _slice_depth(node: ast.expr, env: dict):
    """Depth selected by one subscript dimension: an int, ``_FULL`` for an
    unbounded slice or an ``...``, or ``None`` when undecidable/not-a-slice."""
    if isinstance(node, ast.Constant) and node.value is Ellipsis:
        return _FULL
    if not isinstance(node, ast.Slice):
        return None  # an index expression selects a scalar, not a depth
    if node.step is not None:
        return None
    if node.lower is None and node.upper is None:
        return _FULL
    if node.lower is None:
        upper = _eval_int(node.upper, env)
        if upper is None or upper < 0:
            return None
        return upper
    if node.upper is None:
        lower = _eval_int(node.lower, env)
        if lower is None:
            return None
        return -lower if lower < 0 else _SIZE - lower
    lower, upper = _eval_int(node.lower, env), _eval_int(node.upper, env)
    if lower is None or upper is None or lower < 0 or upper < lower:
        return None
    return upper - lower


_WRAPPER_CALLS = ("ascontiguousarray", "asarray", "array")


def payload_depth(
    expr: ast.expr | None, payload_env: dict, env: dict, _depth: int = 0
) -> int | None:
    """Row/sample count a send payload carries, or ``None`` if undecidable."""
    if expr is None or _depth > 8:
        return None
    if isinstance(expr, ast.Name):
        return payload_depth(payload_env.get(expr.id), payload_env, env, _depth + 1)
    if isinstance(expr, ast.Subscript):
        sl = expr.slice
        dims = sl.elts if isinstance(sl, ast.Tuple) else [sl]
        depths = [_slice_depth(d, env) for d in dims]
        bounded = [d for d in depths if d is not None and d is not _FULL]
        if len(bounded) == 1 and all(d is not None for d in depths):
            return bounded[0]
        return None
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute) and func.attr in ("copy", "swapaxes"):
            return payload_depth(func.value, payload_env, env, _depth + 1)
        name = func.attr if isinstance(func, ast.Attribute) else (
            func.id if isinstance(func, ast.Name) else None
        )
        if name in _WRAPPER_CALLS and expr.args:
            return payload_depth(expr.args[0], payload_env, env, _depth + 1)
        return None
    return None


def guard_sends(proto):
    """Every guard-tag send of one wavelet protocol that runs under a
    registered kernel and a representative bank, as ``(kernel, length,
    event, side, depth, want)``: ``depth`` is the payload's row count
    (``None`` where undecidable) and ``want`` the kernel's depth for the
    tag's ``side``."""
    from repro.machines.tags import GUARD_ROLES
    from repro.wavelet import filter_bank_for_length
    from repro.wavelet.kernels import KERNEL_NAMES

    phase = proto.program.phase
    for kernel in KERNEL_NAMES:
        for length in REPRESENTATIVE_BANK_LENGTHS:
            env = _contract_env(kernel, filter_bank_for_length(length))
            expected = {
                "analysis": (env["front"], env["back"]),
                "synthesis": (env["s_front"], env["s_back"]),
            }[phase]
            for ev in proto.events:
                if ev.kind != "send" or ev.tag not in GUARD_ROLES:
                    continue
                side = getattr(GUARD_ROLES[ev.tag], phase)
                if side is None or not eval_atoms(ev.atoms, env):
                    continue  # no role in this phase, or not run under this kernel
                depth = payload_depth(ev.payload, ev.payload_env, env)
                want = expected[0] if side == "front" else expected[1]
                yield kernel, length, ev, side, depth, want


def check_guard_depths(proto, paths: dict) -> list:
    """PROTO-GUARD-DEPTH-MISMATCH findings for one wavelet protocol."""
    findings: list = []
    reported: set = set()
    for kernel, length, ev, side, depth, want in guard_sends(proto):
        # An undecidable slice (depth None) is not checkable here.
        if depth in (None, want) or (ev.module, ev.line) in reported:
            continue
        reported.add((ev.module, ev.line))
        findings.append(
            Finding(
                rule_id=RULE_GUARD_DEPTH.id,
                module=ev.module,
                path=paths.get(ev.module, "<memory>"),
                line=ev.line,
                message=f"{proto.func}() ships {depth} {side}-guard "
                f"row(s) on tag {ev.tag} but the {kernel!r} kernel's "
                f"{proto.program.phase} depth for a length-{length} bank is {want}",
            )
        )
    return findings
