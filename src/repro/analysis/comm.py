"""Static communication summaries and the communication rule family.

Extraction walks every function body for ``ctx.send``/``ctx.recv`` and
collective calls (any call whose receiver or first argument is the
conventional ``ctx`` rank-context parameter) and records, per call site:
the peer expression (source text), the tag — resolved to an integer and
its provenance where possible, kept as text otherwise — wildcard
``ANY_SOURCE``/``ANY_TAG`` usage, and ``timeout_s`` presence.  The
summaries are a queryable artifact in their own right (``python -m repro
lint --comm-summary``) and the substrate for four checks:

``COMM-TAG-COLLISION``
    A tag value minted (written as a literal) in two different modules,
    or minted locally while the central registry
    (:mod:`repro.machines.tags`) already owns it — the halo-exchange
    failure mode this linter exists for.
``COMM-TAG-ORPHAN``
    A resolvable tag that is sent but never received (or received but
    never sent) across the analyzed module set: a dead channel or a typo
    that will surface as a deadlock at some processor count.
``COMM-WILDCARD-RECV``
    A receive posted with ``ANY_SOURCE``/``ANY_TAG`` (explicitly or by
    omission).  These are the *static race candidates*: every
    nondeterminism hazard the dynamic Netzer-Miller detector can ever
    report on a traced run matches one of these sites, so the static set
    is a superset of the dynamic findings by construction
    (cross-checked in ``tests/test_analysis_repo.py``).
``COMM-RECV-NO-TIMEOUT``
    A receive without ``timeout_s`` in a module declared reachable under
    ``reliable=False`` fault configs (default: the reliable-transport
    module itself), where a dropped message otherwise becomes a silent
    deadlock.
``COMM-TAG-LITERAL``
    A raw integer literal as a ``tag=`` argument at a call site; tags
    must be named constants allocated through the central registry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.rules import Finding, rule
from repro.analysis.sources import ConstEnv, SourceModule

__all__ = [
    "COLLECTIVE_FUNCS",
    "CommSite",
    "CommSummary",
    "extract_comm_sites",
    "summarize_comm",
    "check_comm",
]

RULE_TAG_COLLISION = rule(
    "COMM-TAG-COLLISION",
    "error",
    "message tag value owned by more than one module",
    "allocate the tag in repro.machines.tags instead of hand-numbering it",
)
RULE_TAG_ORPHAN = rule(
    "COMM-TAG-ORPHAN",
    "error",
    "message tag sent but never received, or received but never sent",
    "pair every send tag with a matching recv (or delete the dead channel)",
)
RULE_WILDCARD_RECV = rule(
    "COMM-WILDCARD-RECV",
    "warning",
    "receive posted with ANY_SOURCE/ANY_TAG (static race candidate)",
    "post the exact (source, tag) pair; wildcard matching is the only "
    "engine-level nondeterminism surface",
)
RULE_RECV_NO_TIMEOUT = rule(
    "COMM-RECV-NO-TIMEOUT",
    "error",
    "recv reachable under reliable=False fault configs lacks timeout_s",
    "pass timeout_s= so a dropped message raises RecvTimeoutError instead "
    "of deadlocking the run",
)
RULE_TAG_LITERAL = rule(
    "COMM-TAG-LITERAL",
    "error",
    "raw integer literal used as a message tag at a call site",
    "name the tag and allocate it through repro.machines.tags",
)

#: Collective generator subroutines from :mod:`repro.machines.api`
#: (invoked ``yield from f(ctx, ...)``), plus the reliable-transport
#: helpers which wrap send/recv pairs.
COLLECTIVE_FUNCS = frozenset(
    {
        "bcast",
        "reduce",
        "allreduce",
        "allreduce_rabenseifner",
        "broadcast_tree",
        "get_allreduce",
        "gssum_naive",
        "gather",
        "allgather",
        "scatter",
        "alltoall",
        "barrier",
        "sendrecv",
        "exercise_collectives",
        "reliable_send",
        "reliable_recv",
        "drain",
    }
)

_WILDCARD_NAMES = {"ANY_SOURCE", "ANY_TAG"}


@dataclass(frozen=True)
class CommSite:
    """One static communication call site."""

    module: str
    func: str  # enclosing function name ("<module>" at top level)
    kind: str  # "send" | "recv" | "collective"
    line: int
    peer: str  # source text of dst/src expression ("?" for wildcards)
    tag_text: str  # source text of the tag expression
    tag_value: int | None  # resolved integer, None when dynamic/wildcard
    tag_minted: bool  # value derives only from literals in this module
    tag_is_literal: bool  # tag written as a bare int literal at the site
    wildcard_src: bool = False
    wildcard_tag: bool = False
    has_timeout: bool = False
    collective: str | None = None


@dataclass
class CommSummary:
    """Per-module static communication summary."""

    module: str
    sites: list[CommSite]

    @property
    def sends(self) -> list[CommSite]:
        return [s for s in self.sites if s.kind == "send"]

    @property
    def recvs(self) -> list[CommSite]:
        return [s for s in self.sites if s.kind == "recv"]

    @property
    def collectives(self) -> list[CommSite]:
        return [s for s in self.sites if s.kind == "collective"]

    @property
    def wildcard_recvs(self) -> list[CommSite]:
        return [s for s in self.recvs if s.wildcard_src or s.wildcard_tag]

    def tag_values(self, kind: str | None = None) -> set[int]:
        return {
            s.tag_value
            for s in self.sites
            if s.tag_value is not None and (kind is None or s.kind == kind)
        }


def _expr_text(module: SourceModule, node: ast.expr | None) -> str:
    if node is None:
        return ""
    try:
        return module.segment(node) or ast.dump(node)
    except Exception:
        return ast.dump(node)


def _kwarg(call: ast.Call, name: str) -> ast.expr | None:
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def _is_wildcard(env: ConstEnv, node: ast.expr | None) -> bool:
    """An omitted argument, a name ending in ANY_SOURCE/ANY_TAG, or an
    expression resolving to -1 posts a wildcard."""
    if node is None:
        return True
    if isinstance(node, ast.Name) and node.id in _WILDCARD_NAMES:
        return True
    if isinstance(node, ast.Attribute) and node.attr in _WILDCARD_NAMES:
        return True
    resolved = env.resolve(node)
    return resolved is not None and resolved.value < 0


class _CommVisitor(ast.NodeVisitor):
    def __init__(self, module: SourceModule, env: ConstEnv) -> None:
        self.module = module
        self.env = env
        self.sites: list[CommSite] = []
        self._func_stack: list[str] = []

    # Track the enclosing function name for site attribution.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _enclosing(self) -> str:
        return self._func_stack[-1] if self._func_stack else "<module>"

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "ctx"
            and func.attr in ("send", "recv")
        ):
            if func.attr == "send":
                self._record_send(node)
            else:
                self._record_recv(node)
        else:
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if (
                name in COLLECTIVE_FUNCS
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == "ctx"
            ):
                self._record_collective(node, name)
        self.generic_visit(node)

    def _tag_fields(self, tag_node: ast.expr | None) -> tuple[str, int | None, bool, bool]:
        if tag_node is None:
            # Engine default: send tag is 0; recv default is handled by
            # the wildcard path before this is called.
            return ("<default 0>", 0, False, False)
        resolved = self.env.resolve(tag_node)
        is_literal = isinstance(tag_node, ast.Constant)
        if resolved is None:
            return (_expr_text(self.module, tag_node), None, False, is_literal)
        return (
            _expr_text(self.module, tag_node),
            resolved.value,
            resolved.minted,
            is_literal,
        )

    def _record_send(self, node: ast.Call) -> None:
        dst = node.args[0] if node.args else _kwarg(node, "dst")
        tag_text, tag_value, minted, literal = self._tag_fields(_kwarg(node, "tag"))
        self.sites.append(
            CommSite(
                module=self.module.name,
                func=self._enclosing(),
                kind="send",
                line=node.lineno,
                peer=_expr_text(self.module, dst),
                tag_text=tag_text,
                tag_value=tag_value,
                tag_minted=minted,
                tag_is_literal=literal,
            )
        )

    def _record_recv(self, node: ast.Call) -> None:
        src = node.args[0] if node.args else _kwarg(node, "src")
        tag_node = _kwarg(node, "tag")
        wildcard_src = _is_wildcard(self.env, src)
        wildcard_tag = _is_wildcard(self.env, tag_node)
        if wildcard_tag:
            tag_text, tag_value, minted, literal = ("<ANY_TAG>", None, False, False)
        else:
            tag_text, tag_value, minted, literal = self._tag_fields(tag_node)
        timeout = _kwarg(node, "timeout_s")
        has_timeout = timeout is not None and not (
            isinstance(timeout, ast.Constant) and timeout.value is None
        )
        self.sites.append(
            CommSite(
                module=self.module.name,
                func=self._enclosing(),
                kind="recv",
                line=node.lineno,
                peer="?" if wildcard_src else _expr_text(self.module, src),
                tag_text=tag_text,
                tag_value=tag_value,
                tag_minted=minted,
                tag_is_literal=literal,
                wildcard_src=wildcard_src,
                wildcard_tag=wildcard_tag,
                has_timeout=has_timeout,
            )
        )

    def _record_collective(self, node: ast.Call, name: str) -> None:
        tag_node = _kwarg(node, "tag")
        tag_text, tag_value, minted, literal = self._tag_fields(tag_node)
        if tag_node is None:
            # Collectives default to their registry tag, not to 0.
            tag_text, tag_value, minted, literal = (f"<default {name}>", None, False, False)
        self.sites.append(
            CommSite(
                module=self.module.name,
                func=self._enclosing(),
                kind="collective",
                line=node.lineno,
                peer="<all>",
                tag_text=tag_text,
                tag_value=tag_value,
                tag_minted=minted,
                tag_is_literal=literal,
                collective=name,
            )
        )


def extract_comm_sites(module: SourceModule, env: ConstEnv | None = None) -> list[CommSite]:
    """All communication call sites in one module, in source order."""
    visitor = _CommVisitor(module, env or ConstEnv(module))
    visitor.visit(module.tree)
    return visitor.sites


def summarize_comm(modules: list[SourceModule]) -> list[CommSummary]:
    """Per-module communication summaries (modules with no sites omitted)."""
    summaries = []
    for module in modules:
        sites = extract_comm_sites(module)
        if sites:
            summaries.append(CommSummary(module=module.name, sites=sites))
    return summaries


def _registry_owner(value: int) -> str | None:
    from repro.machines.tags import REGISTRY

    return REGISTRY.name_of(value)


def check_comm(
    modules: list[SourceModule],
    *,
    raw_fault_modules: tuple[str, ...] = (),
    check_registry: bool = True,
) -> tuple[list[Finding], list[CommSummary]]:
    """Run the communication rule family; returns (findings, summaries)."""
    summaries = summarize_comm(modules)
    paths = {m.name: m.path for m in modules}
    findings: list[Finding] = []

    # -- per-site rules ----------------------------------------------------
    for summary in summaries:
        for site in summary.sites:
            if site.tag_is_literal and site.kind in ("send", "recv"):
                findings.append(
                    Finding(
                        rule_id=RULE_TAG_LITERAL.id,
                        module=site.module,
                        path=paths[site.module],
                        line=site.line,
                        message=f"{site.kind} in {site.func}() uses raw tag "
                        f"literal {site.tag_text}",
                    )
                )
            if site.kind == "recv" and (site.wildcard_src or site.wildcard_tag):
                what = []
                if site.wildcard_src:
                    what.append("ANY_SOURCE")
                if site.wildcard_tag:
                    what.append("ANY_TAG")
                findings.append(
                    Finding(
                        rule_id=RULE_WILDCARD_RECV.id,
                        module=site.module,
                        path=paths[site.module],
                        line=site.line,
                        message=f"recv in {site.func}() posts "
                        f"{'/'.join(what)} (static race candidate)",
                    )
                )
            if (
                site.kind == "recv"
                and not site.has_timeout
                and any(site.module.startswith(prefix) for prefix in raw_fault_modules)
            ):
                findings.append(
                    Finding(
                        rule_id=RULE_RECV_NO_TIMEOUT.id,
                        module=site.module,
                        path=paths[site.module],
                        line=site.line,
                        message=f"recv in {site.func}() is reachable under "
                        "reliable=False but has no timeout_s",
                    )
                )

    # -- cross-module tag ownership ---------------------------------------
    minted_by: dict[int, dict[str, CommSite]] = {}
    for summary in summaries:
        for site in summary.sites:
            if site.tag_value is None or not site.tag_minted:
                continue
            owners = minted_by.setdefault(site.tag_value, {})
            owners.setdefault(site.module, site)
    for value, owners in sorted(minted_by.items()):
        names = sorted(owners)
        registry_owner = _registry_owner(value) if check_registry else None
        if len(names) > 1:
            for name in names:
                site = owners[name]
                others = ", ".join(n for n in names if n != name)
                findings.append(
                    Finding(
                        rule_id=RULE_TAG_COLLISION.id,
                        module=name,
                        path=paths[name],
                        line=site.line,
                        message=f"tag {value} is hand-numbered here and also "
                        f"in {others}",
                    )
                )
        elif registry_owner is not None:
            name = names[0]
            site = owners[name]
            findings.append(
                Finding(
                    rule_id=RULE_TAG_COLLISION.id,
                    module=name,
                    path=paths[name],
                    line=site.line,
                    message=f"tag {value} is hand-numbered here but the "
                    f"central registry already owns it as {registry_owner!r}",
                )
            )

    # -- orphan pairing over the analyzed set ------------------------------
    sent: dict[int, CommSite] = {}
    received: dict[int, CommSite] = {}
    wildcard_tag_modules = {
        summary.module for summary in summaries if any(s.wildcard_tag for s in summary.recvs)
    }
    for summary in summaries:
        for site in summary.sites:
            if site.tag_value is None or site.kind == "collective":
                continue
            table = sent if site.kind == "send" else received
            table.setdefault(site.tag_value, site)
    for value, site in sorted(sent.items()):
        if value in received:
            continue
        # A wildcard-tag recv in the same module can absorb any tag.
        if site.module in wildcard_tag_modules:
            continue
        findings.append(
            Finding(
                rule_id=RULE_TAG_ORPHAN.id,
                module=site.module,
                path=paths[site.module],
                line=site.line,
                message=f"tag {value} ({site.tag_text}) is sent in "
                f"{site.func}() but never received anywhere",
            )
        )
    for value, site in sorted(received.items()):
        if value in sent:
            continue
        findings.append(
            Finding(
                rule_id=RULE_TAG_ORPHAN.id,
                module=site.module,
                path=paths[site.module],
                line=site.line,
                message=f"tag {value} ({site.tag_text}) is received in "
                f"{site.func}() but never sent anywhere",
            )
        )

    return findings, summaries
