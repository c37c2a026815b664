"""Every lint rule caught on a fixture with a planted violation, plus
suppression and baseline mechanics.

Fixtures are in-memory sources (``lint_sources``), each planting exactly
the violation under test; assertions check rule id *and* line so a rule
that fires on the wrong site fails.  Planted tag values sit in the 7000s
so they can never collide with the central registry's real allocations.
"""

import ast
import textwrap

import pytest

from repro.analysis import ALL_RULES, lint_sources, load_baseline, write_baseline
from repro.analysis.linter import LintConfig
from repro.analysis.rules import Finding, parse_suppressions
from repro.analysis.sources import SourceModule


def lint(sources, **config_kwargs):
    config = LintConfig(**config_kwargs) if config_kwargs else None
    return lint_sources({k: textwrap.dedent(v) for k, v in sources.items()}, config)


def hits(report, rule_id):
    return [f for f in report.findings if f.rule_id == rule_id]


class TestCommRules:
    def test_tag_collision_across_modules(self):
        report = lint(
            {
                "fix.alpha": """\
                    TAG = 7001

                    def prog(ctx):
                        yield ctx.send(1, 0, tag=TAG)
                    """,
                "fix.beta": """\
                    TAG = 7001

                    def prog(ctx):
                        data = yield ctx.recv(0, tag=TAG)
                        return data
                    """,
            }
        )
        found = hits(report, "COMM-TAG-COLLISION")
        assert {f.module for f in found} == {"fix.alpha", "fix.beta"}
        assert all("7001" in f.message for f in found)
        assert report.exit_code == 1

    def test_tag_collision_with_central_registry(self):
        # Value 2 is owned by the registry (wavelet.spmd.row_guard).
        report = lint(
            {
                "fix.rogue": """\
                    TAG = 2

                    def prog(ctx):
                        yield ctx.send(1, 0, tag=TAG)
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    """,
            }
        )
        found = hits(report, "COMM-TAG-COLLISION")
        assert len(found) == 1
        assert found[0].line == 4  # anchored to the first offending call site
        assert "wavelet.spmd.row_guard" in found[0].message

    def test_no_collision_when_value_comes_from_registry(self):
        report = lint(
            {
                "fix.good": """\
                    from repro.machines import tags

                    TAG = tags.WAVELET_ROW_GUARD

                    def prog(ctx):
                        yield ctx.send(1, 0, tag=TAG)
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    """,
            }
        )
        assert hits(report, "COMM-TAG-COLLISION") == []

    def test_orphan_sent_never_received(self):
        report = lint(
            {
                "fix.orphan": """\
                    TAG = 7100

                    def prog(ctx):
                        yield ctx.send(1, 0, tag=TAG)
                    """,
            }
        )
        found = hits(report, "COMM-TAG-ORPHAN")
        assert len(found) == 1
        assert found[0].line == 4
        assert "never received" in found[0].message

    def test_orphan_received_never_sent(self):
        report = lint(
            {
                "fix.orphan": """\
                    TAG = 7200

                    def prog(ctx):
                        got = yield ctx.recv(0, tag=TAG)
                        return got
                    """,
            }
        )
        found = hits(report, "COMM-TAG-ORPHAN")
        assert len(found) == 1
        assert found[0].line == 4
        assert "never sent" in found[0].message

    def test_paired_tag_is_not_orphan(self):
        report = lint(
            {
                "fix.pair": """\
                    TAG = 7300

                    def prog(ctx):
                        if ctx.rank == 0:
                            yield ctx.send(1, 0, tag=TAG)
                        else:
                            got = yield ctx.recv(0, tag=TAG)
                            return got
                    """,
            }
        )
        assert hits(report, "COMM-TAG-ORPHAN") == []

    def test_wildcard_recv_explicit_any_source(self):
        report = lint(
            {
                "fix.wild": """\
                    from repro.machines import ANY_SOURCE

                    TAG = 7400

                    def prog(ctx):
                        if ctx.rank == 0:
                            got = yield ctx.recv(ANY_SOURCE, tag=TAG)
                            return got
                        yield ctx.send(0, ctx.rank, tag=TAG)
                    """,
            }
        )
        found = hits(report, "COMM-WILDCARD-RECV")
        assert len(found) == 1
        assert found[0].line == 7
        assert "ANY_SOURCE" in found[0].message
        assert found[0].severity == "warning"
        assert report.exit_code == 1

    def test_wildcard_recv_by_omission(self):
        report = lint(
            {
                "fix.wild": """\
                    def prog(ctx):
                        got = yield ctx.recv()
                        return got
                    """,
            }
        )
        found = hits(report, "COMM-WILDCARD-RECV")
        assert len(found) == 1
        assert found[0].line == 2
        assert "ANY_SOURCE" in found[0].message and "ANY_TAG" in found[0].message

    def test_explicit_recv_is_not_wildcard(self):
        report = lint(
            {
                "fix.exact": """\
                    TAG = 7500

                    def prog(ctx):
                        if ctx.rank == 0:
                            got = yield ctx.recv(1, tag=TAG)
                            return got
                        yield ctx.send(0, 1, tag=TAG)
                    """,
            }
        )
        assert hits(report, "COMM-WILDCARD-RECV") == []

    def test_recv_without_timeout_in_raw_fault_module(self):
        sources = {
            "fix.transport": """\
                TAG = 7600

                def prog(ctx):
                    if ctx.rank == 0:
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    yield ctx.send(0, 1, tag=TAG)
                """,
        }
        report = lint(sources, raw_fault_modules=("fix.transport",))
        found = hits(report, "COMM-RECV-NO-TIMEOUT")
        assert len(found) == 1
        assert found[0].line == 5
        # The same module is clean when not declared fault-reachable.
        assert hits(lint(sources), "COMM-RECV-NO-TIMEOUT") == []

    def test_recv_with_timeout_passes_raw_fault_check(self):
        report = lint(
            {
                "fix.transport": """\
                    TAG = 7700

                    def prog(ctx):
                        if ctx.rank == 0:
                            got = yield ctx.recv(1, tag=TAG, timeout_s=0.5)
                            return got
                        yield ctx.send(0, 1, tag=TAG)
                    """,
            },
            raw_fault_modules=("fix.transport",),
        )
        assert hits(report, "COMM-RECV-NO-TIMEOUT") == []

    def test_raw_tag_literal_at_call_site(self):
        report = lint(
            {
                "fix.literal": """\
                    def prog(ctx):
                        if ctx.rank == 0:
                            yield ctx.send(1, 0, tag=7800)
                        else:
                            got = yield ctx.recv(0, tag=7800)
                            return got
                    """,
            }
        )
        found = hits(report, "COMM-TAG-LITERAL")
        assert {f.line for f in found} == {3, 5}


class TestDeterminismRules:
    def test_wall_clock_call(self):
        report = lint(
            {
                "fix.clock": """\
                    import time

                    def stamp():
                        return time.time()
                    """,
            }
        )
        found = hits(report, "DET-WALL-CLOCK")
        assert len(found) == 1
        assert found[0].line == 4

    def test_wall_clock_from_import(self):
        report = lint(
            {
                "fix.clock": """\
                    from time import perf_counter

                    def stamp():
                        return perf_counter()
                    """,
            }
        )
        assert [f.line for f in hits(report, "DET-WALL-CLOCK")] == [4]

    def test_unseeded_numpy_global_draw(self):
        report = lint(
            {
                "fix.rng": """\
                    import numpy as np

                    def noise(n):
                        return np.random.rand(n)
                    """,
            }
        )
        found = hits(report, "DET-UNSEEDED-RNG")
        assert len(found) == 1
        assert found[0].line == 4

    def test_unseeded_default_rng_constructor(self):
        report = lint(
            {
                "fix.rng": """\
                    import numpy as np

                    def make():
                        return np.random.default_rng()
                    """,
            }
        )
        assert [f.line for f in hits(report, "DET-UNSEEDED-RNG")] == [4]

    def test_seeded_rng_is_clean(self):
        report = lint(
            {
                "fix.rng": """\
                    import numpy as np

                    def make(seed):
                        rng = np.random.default_rng(seed)
                        return rng.random(4)
                    """,
            }
        )
        assert hits(report, "DET-UNSEEDED-RNG") == []

    def test_set_iteration(self):
        report = lint(
            {
                "fix.sets": """\
                    def collect(xs):
                        pending = set(xs)
                        out = []
                        for item in pending:
                            out.append(item)
                        return out
                    """,
            }
        )
        found = hits(report, "DET-SET-ITERATION")
        assert len(found) == 1
        assert found[0].line == 4

    def test_sorted_set_iteration_is_clean(self):
        report = lint(
            {
                "fix.sets": """\
                    def collect(xs):
                        pending = set(xs)
                        return [item for item in sorted(pending)]

                    def loop(xs):
                        for item in sorted(set(xs)):
                            pass
                    """,
            }
        )
        assert hits(report, "DET-SET-ITERATION") == []

    def test_dict_iteration_only_in_strict_modules(self):
        source = """\
            def walk(d):
                for key, value in d.items():
                    pass
            """
        strict = lint({"fix.strict.mod": source}, strict_modules=("fix.strict",))
        relaxed = lint({"fix.app.mod": source}, strict_modules=("fix.strict",))
        assert [f.line for f in hits(strict, "DET-DICT-ITERATION")] == [2]
        assert hits(relaxed, "DET-DICT-ITERATION") == []

    def test_sorted_dict_iteration_is_clean_in_strict_module(self):
        report = lint(
            {
                "fix.strict.mod": """\
                    def walk(d):
                        for key, value in sorted(d.items()):
                            pass
                    """,
            },
            strict_modules=("fix.strict",),
        )
        assert hits(report, "DET-DICT-ITERATION") == []


class TestChargingRule:
    def test_uncharged_kernel_before_send(self):
        report = lint(
            {
                "fix.charge": """\
                    from repro.wavelet.kernels import analyze_axis

                    TAG = 7900

                    def prog(ctx, block):
                        block = analyze_axis(block, 0)
                        yield ctx.send(1, block, tag=TAG)
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    """,
            }
        )
        found = hits(report, "CHG-UNCHARGED-KERNEL")
        assert len(found) == 1
        assert found[0].line == 6
        assert "analyze_axis" in found[0].message

    @pytest.mark.parametrize(
        "method",
        ["analyze", "analyze_valid", "synthesize", "synthesize_valid", "sweep_valid"],
    )
    def test_uncharged_kernel_method_before_send(self, method):
        # The SPMD programs filter through WaveletKernel methods; the
        # rule must see those calls as kernels too.
        report = lint(
            {
                "fix.charge": f"""\
                    from repro.wavelet.kernels import get_kernel

                    TAG = 7920

                    def prog(ctx, block, bank):
                        impl = get_kernel("lifting")
                        lo, hi = impl.{method}(block, bank, 0)
                        yield ctx.send(1, lo, tag=TAG)
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    """,
            }
        )
        found = hits(report, "CHG-UNCHARGED-KERNEL")
        assert [f.line for f in found] == [7]
        assert method in found[0].message

    def test_uncharged_inverse_sweep_before_send(self):
        report = lint(
            {
                "fix.charge": """\
                    from repro.wavelet.singleloop import single_loop_synthesize_valid

                    TAG = 7930

                    def prog(ctx, ll, lh, hl, hh, scheme, out):
                        rows = single_loop_synthesize_valid(ll, lh, hl, hh, scheme, 0, out)
                        yield ctx.send(1, rows, tag=TAG)
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    """,
            }
        )
        found = hits(report, "CHG-UNCHARGED-KERNEL")
        assert [f.line for f in found] == [6]
        assert "single_loop_synthesize_valid" in found[0].message

    def test_uncharged_kernel_at_end_of_body(self):
        report = lint(
            {
                "fix.charge": """\
                    import numpy as np

                    def prog(ctx, a, b):
                        yield ctx.compute(flops=1.0)
                        return np.matmul(a, b)
                    """,
            }
        )
        found = hits(report, "CHG-UNCHARGED-KERNEL")
        assert len(found) == 1
        assert found[0].line == 5
        assert "end of program body" in found[0].message

    def test_charged_kernel_is_clean(self):
        report = lint(
            {
                "fix.charge": """\
                    from repro.wavelet.kernels import analyze_axis

                    TAG = 7910

                    def prog(ctx, block):
                        block = analyze_axis(block, 0)
                        yield ctx.compute(flops=2.0 * block.size)
                        yield ctx.send(1, block, tag=TAG)
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    """,
            }
        )
        assert hits(report, "CHG-UNCHARGED-KERNEL") == []

    def test_kernel_pending_across_loop_back_edge(self):
        # The kernel at the bottom of the loop meets the recv at the top
        # on the next iteration: only the two-pass dataflow sees it.
        report = lint(
            {
                "fix.charge": """\
                    from repro.wavelet.kernels import analyze_axis

                    TAG = 7920

                    def prog(ctx, block, steps):
                        for _ in range(steps):
                            got = yield ctx.recv(0, tag=TAG)
                            block = analyze_axis(got, 0)
                        yield ctx.compute(flops=1.0)
                        return block
                    """,
            }
        )
        found = hits(report, "CHG-UNCHARGED-KERNEL")
        assert len(found) == 1
        assert found[0].line == 8

    def test_branch_local_charge_covers_only_its_branch(self):
        report = lint(
            {
                "fix.charge": """\
                    from repro.wavelet.kernels import analyze_axis

                    TAG = 7930

                    def prog(ctx, block, fast):
                        if fast:
                            block = analyze_axis(block, 0)
                            yield ctx.compute(flops=1.0)
                        else:
                            block = analyze_axis(block, 1)
                        yield ctx.send(1, block, tag=TAG)
                        got = yield ctx.recv(1, tag=TAG)
                        return got
                    """,
            }
        )
        found = hits(report, "CHG-UNCHARGED-KERNEL")
        assert len(found) == 1
        assert found[0].line == 10

    def test_non_program_function_is_ignored(self):
        report = lint(
            {
                "fix.charge": """\
                    import numpy as np

                    def pure_helper(a, b):
                        return np.matmul(a, b)
                    """,
            }
        )
        assert hits(report, "CHG-UNCHARGED-KERNEL") == []

    def test_yield_from_unknown_helper_clears_pending(self):
        report = lint(
            {
                "fix.charge": """\
                    from repro.wavelet.kernels import analyze_axis

                    def prog(ctx, block):
                        block = analyze_axis(block, 0)
                        yield from _charge_helper(ctx, block)
                        return block
                    """,
            }
        )
        assert hits(report, "CHG-UNCHARGED-KERNEL") == []

    def test_communicating_helper_flushes_pending(self):
        # A guard exchange moved into a helper: the helper only sends and
        # receives, so the uncharged row pass before it is still caught,
        # at the kernel's line, as if the send were written inline.
        report = lint(
            {
                "fix.halo": """\
                    TAG = 7940

                    def swap(ctx, block, peer):
                        yield ctx.send(peer, block[:1], tag=TAG)
                        return (yield ctx.recv(peer, tag=TAG))
                    """,
                "fix.charge": """\
                    from fix.halo import swap
                    from repro.wavelet.kernels import get_kernel

                    def prog(ctx, block, bank):
                        impl = get_kernel("lifting")
                        lo, hi = impl.analyze(block, bank, 1)
                        guard = yield from swap(ctx, lo, 1)
                        yield ctx.charge(1.0)
                        return guard
                    """,
            }
        )
        found = hits(report, "CHG-UNCHARGED-KERNEL")
        assert [(f.module, f.line) for f in found] == [("fix.charge", 6)]
        assert "helper swap" in found[0].message

    def test_charging_helper_stays_neutral(self):
        report = lint(
            {
                "fix.charge": """\
                    from repro.wavelet.kernels import analyze_axis

                    TAG = 7950

                    def _step(ctx, block):
                        yield ctx.charge(1.0)
                        yield ctx.send(1, block, tag=TAG)
                        return (yield ctx.recv(1, tag=TAG))

                    def prog(ctx, block):
                        block = analyze_axis(block, 0)
                        block = yield from _step(ctx, block)
                        return block
                    """,
            }
        )
        assert hits(report, "CHG-UNCHARGED-KERNEL") == []


class TestSuppressionsAndBaseline:
    def test_inline_suppression_waives_finding(self):
        report = lint(
            {
                "fix.clock": """\
                    import time

                    def stamp():
                        return time.time()  # lint: disable=DET-WALL-CLOCK
                    """,
            }
        )
        assert hits(report, "DET-WALL-CLOCK") == []
        assert [f.rule_id for f in report.suppressed] == ["DET-WALL-CLOCK"]
        assert report.exit_code == 0

    def test_suppression_is_rule_specific(self):
        report = lint(
            {
                "fix.clock": """\
                    import time

                    def stamp():
                        return time.time()  # lint: disable=COMM-TAG-ORPHAN
                    """,
            }
        )
        assert [f.line for f in hits(report, "DET-WALL-CLOCK")] == [4]

    def test_disable_all(self):
        suppressions = parse_suppressions("x = 1  # lint: disable=all\n")
        assert suppressions == {1: {"all"}}
        report = lint(
            {
                "fix.clock": """\
                    import time

                    def stamp():
                        return time.time()  # lint: disable=all
                    """,
            }
        )
        assert report.findings == []

    def test_baseline_roundtrip_waives_exact_counts(self, tmp_path):
        findings = [
            Finding("DET-WALL-CLOCK", "fix.clock", "<memory>", 4, "m"),
            Finding("DET-WALL-CLOCK", "fix.clock", "<memory>", 9, "m"),
        ]
        path = str(tmp_path / "baseline.json")
        doc = write_baseline(path, findings)
        assert doc["schema"] == "repro.lint.baseline/v1"
        baseline = load_baseline(path)
        assert baseline.total == 2

        source = {
            "fix.clock": """\
                import time

                def stamp():
                    return time.time()
                """,
        }
        clean = lint(source, baseline=baseline)
        assert clean.findings == [] and len(clean.baselined) == 1
        # A *third* occurrence would exceed the allowance of 2.
        tripled = {
            "fix.clock": textwrap.dedent(source["fix.clock"])
            + "\n\ndef more():\n    return (time.time(), time.time())\n"
        }
        over = lint_sources(tripled, LintConfig(baseline=baseline))
        assert len(over.findings) == 1 and len(over.baselined) == 2

    def test_bad_baseline_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "something/else"}')
        with pytest.raises(ValueError, match="not a repro lint baseline"):
            load_baseline(str(path))


class TestRuleCatalogue:
    def test_every_rule_has_severity_and_hint(self):
        expected = {
            "COMM-TAG-COLLISION",
            "COMM-TAG-ORPHAN",
            "COMM-WILDCARD-RECV",
            "COMM-RECV-NO-TIMEOUT",
            "COMM-TAG-LITERAL",
            "DET-WALL-CLOCK",
            "DET-UNSEEDED-RNG",
            "DET-SET-ITERATION",
            "DET-DICT-ITERATION",
            "CHG-UNCHARGED-KERNEL",
        }
        assert expected <= set(ALL_RULES)
        for rule in ALL_RULES.values():
            assert rule.severity in ("error", "warning")
            assert rule.summary and rule.fix_hint


class TestSourceSegments:
    """``SourceModule.segment`` slices one line table per module and must
    return exactly what ``ast.get_source_segment`` returns: lines end at
    ``\\r\\n``, ``\\r`` or ``\\n`` only, and column offsets count UTF-8
    bytes."""

    @pytest.mark.parametrize(
        "source",
        [
            "yield ctx.send(dst, x, tag=T)\n",
            "a = 1\r\nb = ctx.send(\r\n    (rank + 1) % n,\r\n    buf)\r\n",
            "a = 1\rb = f(x,\r  y)\r",
            "\x0cx = f(\x0c 1,\n  2)\ny = [3, '\x1c\x85\u2028', f(4,\n 5)]\n",
            "s = 'é€𝄞' + g('ü',\n  'ß')\nt = h('→')",
            "x = f(1,\n\n  2)",
        ],
    )
    def test_matches_get_source_segment(self, source):
        module = SourceModule.from_source("m", source)
        nodes = [n for n in ast.walk(module.tree) if isinstance(n, ast.expr)]
        assert nodes
        for node in nodes:
            assert module.segment(node) == ast.get_source_segment(source, node)

    def test_node_without_positions(self):
        module = SourceModule.from_source("m", "x = 1\n")
        assert module.segment(ast.Name(id="x", ctx=ast.Load())) is None
