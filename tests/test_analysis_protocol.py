"""Protocol-verifier guarantees: the three SPMD apps certify clean, every
planted defect is flagged with the exact rule id and line, the static
matched-channel set covers (and on the striped wavelet equals) the
channels observed in recorded traces, SARIF output validates, and the
new suppression forms work."""

import json
import textwrap

import numpy as np
import pytest

from repro.analysis import (
    DEFAULT_PROTOCOL_PROGRAMS,
    ProtocolProgram,
    check_protocol,
    concrete_channels,
    format_sarif,
    lint_sources,
    validate_sarif,
)
from repro.analysis.contracts import guard_sends
from repro.analysis.linter import LintConfig
from repro.analysis.rules import parse_suppressions
from repro.analysis.sources import modules_from_sources
from repro.data import plummer_sphere, uniform_cube
from repro.machines import Engine, paragon, tags
from repro.machines.causality import observed_channels
from repro.nbody.parallel import manager_worker_program
from repro.pic import Grid3D
from repro.pic.parallel import pic_program
from repro.wavelet import KERNEL_NAMES, filter_bank_for_length, get_kernel
from repro.wavelet.parallel.decomposition import BlockDecomposition, StripeDecomposition
from repro.wavelet.parallel.spmd import block_wavelet_program, striped_wavelet_program


def _proto_findings(sources, programs):
    """PROTO-* findings from linting in-memory fixtures with the
    protocol pass enabled, as exact (rule_id, line) pairs."""
    config = LintConfig(protocol=True, protocol_programs=programs)
    report = lint_sources(sources, config)
    return [
        (f.rule_id, f.line)
        for f in report.findings
        if f.rule_id.startswith("PROTO-")
    ]


class TestRealProgramsCertify:
    def test_all_registered_programs_extract_and_certify(self, repo_protocols):
        """The acceptance gate: every registered SPMD program — striped
        and block wavelet, 1-D forward/inverse, reconstruction, both
        n-body drivers, PIC — yields a protocol with zero PROTO-*
        findings: sends matched, deadlock-free, collectives uniform,
        guard depths on contract."""
        findings, protocols = repo_protocols
        assert findings == [], [f"{f.module}:{f.line} {f.rule_id}" for f in findings]
        assert {p.func for p in protocols} == {
            spec.func for spec in DEFAULT_PROTOCOL_PROGRAMS
        }
        # Each point-to-point program has matched channels; the deadlock
        # proof is non-vacuous (there are blocking ops to order).  Every
        # guard exchange is one inlined helper, so the wavelet counts are:
        # striped = back/front column guards + two sweep guards; block
        # adds the row guards and two sweep column guards.
        matched = {p.func: len(p.matches) for p in protocols}
        assert matched["striped_wavelet_program"] == 4
        assert matched["block_wavelet_program"] == 8
        assert matched["manager_worker_program"] == 3
        assert matched["replicated_program"] == matched["pic_program"] == 0
        # Distribution and collection are the library's scatter and
        # gather, on each program's own tags.
        collectives = {
            p.func: [(ev.collective, ev.tag) for ev in p.events if ev.kind == "collective"]
            for p in protocols
        }
        for func in ("striped_wavelet_program", "block_wavelet_program"):
            assert collectives[func] == [
                ("scatter", tags.WAVELET_DISTRIBUTE),
                ("gather", tags.WAVELET_COLLECT),
            ]
        assert collectives["dwt_1d_program"] == [
            ("scatter", tags.DWT1D_DISTRIBUTE),
            ("gather", tags.DWT1D_COLLECT),
        ]
        assert collectives["idwt_1d_program"] == [("gather", tags.DWT1D_COLLECT)]
        assert collectives["striped_reconstruct_program"] == [
            ("scatter", tags.RECONSTRUCT_DISTRIBUTE),
            ("gather", tags.RECONSTRUCT_COLLECT),
        ]

    def test_lint_protocol_repo_clean(self, repo_protocol_lint):
        report = repo_protocol_lint
        assert report.findings == []
        assert report.exit_code == 0

    def test_cli_protocol_flag(self, capsys):
        from repro.cli import main

        assert main(["lint", "--protocol"]) == 0
        assert "0 error(s)" in capsys.readouterr().out


class TestPlantedFixtures:
    def test_unmatched_send_and_recv(self):
        """A send to ``rank+1`` paired with a receive *from* ``rank+1``:
        the inversion fails in both directions."""
        source = textwrap.dedent(
            """\
            TAG = 7200

            def skew_program(ctx):
                rank, nranks = ctx.rank, ctx.nranks
                right = (rank + 1) % nranks
                yield ctx.send(right, rank, tag=TAG)
                got = yield ctx.recv(right, tag=TAG)
                return got
            """
        )
        assert _proto_findings(
            {"fix.skew": source}, (ProtocolProgram("fix.skew", "skew_program"),)
        ) == [
            ("PROTO-UNMATCHED-SEND", 6),
            ("PROTO-UNMATCHED-RECV", 7),
        ]

    def test_symbolic_deadlock_cycle(self):
        """Every rank posts its ring receive before its send: correctly
        matched, but the wait-for graph has a cycle at every nranks."""
        source = textwrap.dedent(
            """\
            TAG = 7100

            def ring_program(ctx):
                rank, nranks = ctx.rank, ctx.nranks
                left = (rank - 1) % nranks
                right = (rank + 1) % nranks
                got = yield ctx.recv(left, tag=TAG)
                yield ctx.send(right, rank, tag=TAG)
                return got
            """
        )
        assert _proto_findings(
            {"fix.ring": source}, (ProtocolProgram("fix.ring", "ring_program"),)
        ) == [("PROTO-DEADLOCK-CYCLE", 7)]

    def test_send_before_recv_ring_is_deadlock_free(self):
        """The same exchange with sends first is certified clean — the
        cycle finding above is about order, not shape."""
        source = textwrap.dedent(
            """\
            TAG = 7101

            def shift_program(ctx):
                rank, nranks = ctx.rank, ctx.nranks
                left = (rank - 1) % nranks
                right = (rank + 1) % nranks
                yield ctx.send(right, rank, tag=TAG)
                got = yield ctx.recv(left, tag=TAG)
                return got
            """
        )
        assert (
            _proto_findings(
                {"fix.shift": source}, (ProtocolProgram("fix.shift", "shift_program"),)
            )
            == []
        )

    def test_rank_divergent_collective(self):
        source = textwrap.dedent(
            """\
            from repro.machines.api import bcast

            def lopsided_program(ctx):
                if ctx.rank == 0:
                    data = yield from bcast(ctx, list(range(8)), root=0)
                else:
                    data = None
                return data
            """
        )
        assert _proto_findings(
            {"fix.lopsided": source},
            (ProtocolProgram("fix.lopsided", "lopsided_program"),),
        ) == [("PROTO-COLLECTIVE-DIVERGENCE", 5)]

    def test_off_by_one_guard_depth(self):
        """A 1-D analysis exchange shipping ``back - 1`` rows on the
        guard tag: flagged once against the plan contract."""
        source = textwrap.dedent(
            """\
            from repro.machines.tags import DWT1D_GUARD

            def offbyone_program(ctx, samples, bank):
                rank, nranks = ctx.rank, ctx.nranks
                m = bank.length
                front, back = 0, m
                left = (rank - 1) % nranks
                right = (rank + 1) % nranks
                current = samples
                yield ctx.send(left, current[:back - 1].copy(), tag=DWT1D_GUARD)
                guard = yield ctx.recv(right, tag=DWT1D_GUARD)
                return guard
            """
        )
        assert _proto_findings(
            {"fix.depth": source},
            (ProtocolProgram("fix.depth", "offbyone_program", "analysis"),),
        ) == [("PROTO-GUARD-DEPTH-MISMATCH", 10)]

    def test_every_guard_send_is_decided(self, repo_protocols):
        """The contract skips a payload whose depth it cannot evaluate,
        so a rewrite of the guard slices could silently drop the check.
        Every guard send of every wavelet protocol, under every kernel and
        representative bank it runs with, must have a decided depth."""
        _, protocols = repo_protocols
        counts = {}
        for proto in protocols:
            if proto.program.phase is None:
                continue
            for kernel, length, ev, _side, depth, _want in guard_sends(proto):
                assert depth is not None, f"{ev.module}:{ev.line} {kernel} D{length}"
                counts[proto.func] = counts.get(proto.func, 0) + 1
        assert counts == {
            "striped_wavelet_program": 16,
            "block_wavelet_program": 32,
            "dwt_1d_program": 16,
            "idwt_1d_program": 22,
            "striped_reconstruct_program": 22,
        }

    def test_short_slice_of_level_buffer(self):
        """A level buffer's back guard cut one row short is flagged at
        the send."""
        source = textwrap.dedent(
            """\
            import numpy as np
            from repro.machines.tags import WAVELET_COL_GUARD
            from repro.wavelet.kernels import get_kernel

            def short_program(ctx, lo, hi, bank, kernel):
                rank, nranks = ctx.rank, ctx.nranks
                front, back = get_kernel(kernel).analysis_guard_depths(bank)
                rows, cols = lo.shape
                buf = np.empty((2, front + rows + back, cols))
                buf[0, front : front + rows], buf[1, front : front + rows] = lo, hi
                if back > 0:
                    yield ctx.send((rank - 1) % nranks, buf[:, front : front + back - 1], tag=WAVELET_COL_GUARD)
                    buf[:, front + rows :] = yield ctx.recv((rank + 1) % nranks, tag=WAVELET_COL_GUARD)
                return buf
            """
        )
        assert _proto_findings(
            {"fix.short": source},
            (ProtocolProgram("fix.short", "short_program", "analysis"),),
        ) == [("PROTO-GUARD-DEPTH-MISMATCH", 12)]

    def test_correct_guard_depth_certifies(self):
        """The honest version of the same program is contract-clean."""
        source = textwrap.dedent(
            """\
            from repro.machines.tags import DWT1D_GUARD

            def honest_program(ctx, samples, bank):
                rank, nranks = ctx.rank, ctx.nranks
                m = bank.length
                front, back = 0, m
                left = (rank - 1) % nranks
                right = (rank + 1) % nranks
                current = samples
                yield ctx.send(left, current[:back].copy(), tag=DWT1D_GUARD)
                guard = yield ctx.recv(right, tag=DWT1D_GUARD)
                return guard
            """
        )
        assert (
            _proto_findings(
                {"fix.honest": source},
                (ProtocolProgram("fix.honest", "honest_program", "analysis"),),
            )
            == []
        )


class TestStaticSupersetOfTrace:
    """The verifier's validation discipline: its concrete expansion must
    cover every channel a recorded run used — exact on striped wavelet."""

    @pytest.fixture
    def protocols(self, repo_protocols):
        findings, protocols = repo_protocols
        assert findings == []
        return {p.func: p for p in protocols}

    @staticmethod
    def _wavelet_env(kernel, bank, **extra):
        front, back = get_kernel(kernel).analysis_guard_depths(bank)
        return {
            "nranks": 4,
            "distribute": True,
            "collect": True,
            "restore": None,
            "checkpoint_interval": 0,
            "sweep": kernel == "single-loop",
            "m": bank.length,
            "front": front,
            "back": back,
            **extra,
        }

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_striped_wavelet_exact(self, protocols, kernel):
        bank = filter_bank_for_length(4)
        image = np.random.default_rng(0).normal(size=(64, 64))
        run = Engine(paragon(4), record_trace=True).run(
            striped_wavelet_program,
            image,
            bank,
            1,
            StripeDecomposition(64, 64, 4, 1),
            kernel=kernel,
        )
        dynamic = observed_channels(run.trace)
        static = concrete_channels(
            protocols["striped_wavelet_program"],
            4,
            self._wavelet_env(kernel, bank, rows=16),
        )
        assert dynamic == static  # superset, and exact
        # Sanity on shape: one fan-out, one ring shift north, one fan-in.
        back_tag = (
            tags.WAVELET_SWEEP_GUARD if kernel == "single-loop" else tags.WAVELET_COL_GUARD
        )
        assert (0, 1, tags.WAVELET_DISTRIBUTE) in static
        assert (2, 1, back_tag) in static
        assert (3, 0, tags.WAVELET_COLLECT) in static

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_block_wavelet_exact_on_grid(self, protocols, kernel):
        bank = filter_bank_for_length(4)
        image = np.random.default_rng(1).normal(size=(64, 64))
        run = Engine(paragon(4), record_trace=True).run(
            block_wavelet_program,
            image,
            bank,
            1,
            BlockDecomposition(64, 64, 2, 2, 1),
            kernel=kernel,
        )
        dynamic = observed_channels(run.trace)
        env = self._wavelet_env(
            kernel, bank, rows=32, cols=32, **{"decomp.prows": 2, "decomp.pcols": 2}
        )
        static = concrete_channels(
            protocols["block_wavelet_program"], 4, env, grid=(2, 2)
        )
        assert dynamic == static
        # Row guards travel west along a grid row, column guards north.
        row_tag = (
            tags.WAVELET_SWEEP_COL_GUARD if kernel == "single-loop" else tags.WAVELET_ROW_GUARD
        )
        col_tag = (
            tags.WAVELET_SWEEP_GUARD if kernel == "single-loop" else tags.WAVELET_COL_GUARD
        )
        assert (1, 0, row_tag) in static and (2, 0, col_tag) in static

    def test_nbody_manager_worker_superset(self, protocols):
        run = Engine(paragon(4, protocol="nx"), record_trace=True).run(
            manager_worker_program, plummer_sphere(64, dim=2, seed=0), 1
        )
        dynamic = observed_channels(run.trace)
        env = {
            "nranks": 4,
            "checkpoint_interval": 0,
            "restore": None,
            "integrator": "leapfrog",
        }
        static = concrete_channels(protocols["manager_worker_program"], 4, env)
        assert dynamic <= static
        assert {(r, 0, 11) for r in (1, 2, 3)} <= static

    def test_pic_superset_and_final_gather(self, protocols):
        run = Engine(paragon(4, protocol="nx"), record_trace=True).run(
            pic_program,
            Grid3D(8),
            uniform_cube(128, thermal_speed=0.05, seed=0),
            1,
            collect=False,
        )
        dynamic = observed_channels(run.trace)
        env = {"nranks": 4, "collect": False, "poisson": "replicated"}
        proto = protocols["pic_program"]
        static = concrete_channels(proto, 4, env)
        assert dynamic <= static
        # With collection on, the user-tagged final gather appears as a
        # fan-in star even though it is a collective.
        with_collect = concrete_channels(proto, 4, dict(env, collect=True))
        assert {(r, 0, 21) for r in (1, 2, 3)} <= with_collect


class TestSarifExport:
    def _dirty_report(self):
        source = (
            "import time\n\ndef prog(ctx):\n"
            "    got = yield ctx.recv()\n"
            "    return got, time.time()\n"
        )
        report = lint_sources({"fix.bad": source})
        assert report.findings
        return report

    def test_sarif_document_validates(self):
        doc = format_sarif(self._dirty_report())
        assert validate_sarif(doc) == []
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "PROTO-DEADLOCK-CYCLE" in rule_ids
        for result in run["results"]:
            index = result["ruleIndex"]
            assert rule_ids[index] == result["ruleId"]
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startLine"] >= 1

    def test_validator_rejects_corruption(self):
        doc = format_sarif(self._dirty_report())
        doc["runs"][0]["results"][0]["ruleIndex"] = 999
        assert any("ruleIndex" in e for e in validate_sarif(doc))
        assert any("version" in e for e in validate_sarif({"runs": []}))

    def test_cli_sarif_format(self, capsys):
        from repro.cli import main

        assert main(["lint", "--format=sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_sarif(doc) == []
        assert doc["runs"][0]["results"] == []  # repo lints clean


class TestSuppressionForms:
    def test_parse_disable_next_and_file(self):
        source = (
            "# lint: disable-next=DET-WALL-CLOCK\n"
            "x = 1\n"
            "# lint: disable-file=COMM-TAG-LITERAL\n"
        )
        assert parse_suppressions(source) == {
            2: {"DET-WALL-CLOCK"},
            0: {"COMM-TAG-LITERAL"},
        }

    def test_disable_next_waives_following_line(self):
        source = textwrap.dedent(
            """\
            import time

            def stamp():
                # lint: disable-next=DET-WALL-CLOCK
                return time.time()
            """
        )
        report = lint_sources({"fix.next": source})
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["DET-WALL-CLOCK"]

    def test_disable_file_waives_whole_module(self):
        source = textwrap.dedent(
            """\
            # lint: disable-file=DET-WALL-CLOCK
            import time

            def stamp():
                return time.time()

            def stamp2():
                return time.time()
            """
        )
        report = lint_sources({"fix.file": source})
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == [
            "DET-WALL-CLOCK",
            "DET-WALL-CLOCK",
        ]

    def test_disable_file_is_rule_specific(self):
        source = textwrap.dedent(
            """\
            # lint: disable-file=COMM-TAG-LITERAL
            import time

            def stamp():
                return time.time()
            """
        )
        report = lint_sources({"fix.other": source})
        assert [f.rule_id for f in report.findings] == ["DET-WALL-CLOCK"]


class TestExtractionEdges:
    def test_missing_module_is_skipped(self):
        mods = modules_from_sources({"fix.empty": "x = 1\n"})
        findings, protocols = check_protocol(
            mods, programs=(ProtocolProgram("fix.absent", "nope"),)
        )
        assert findings == [] and protocols == []

    def test_unresolvable_tag_is_reported(self):
        source = textwrap.dedent(
            """\
            def wild_program(ctx, tag):
                rank, nranks = ctx.rank, ctx.nranks
                right = (rank + 1) % nranks
                left = (rank - 1) % nranks
                yield ctx.send(right, rank, tag=tag)
                got = yield ctx.recv(left, tag=tag)
                return got
            """
        )
        found = _proto_findings(
            {"fix.wild": source}, (ProtocolProgram("fix.wild", "wild_program"),)
        )
        assert found == [
            ("PROTO-UNMATCHED-SEND", 5),
            ("PROTO-UNMATCHED-RECV", 6),
        ]

    def test_xor_butterfly_matches_and_expands(self):
        source = textwrap.dedent(
            """\
            TAG = 7300

            def butterfly_program(ctx):
                rank, nranks = ctx.rank, ctx.nranks
                partner = rank ^ 1
                yield ctx.send(partner, rank, tag=TAG)
                got = yield ctx.recv(partner, tag=TAG)
                return got
            """
        )
        mods = modules_from_sources({"fix.xor": source})
        specs = (ProtocolProgram("fix.xor", "butterfly_program"),)
        findings, protocols = check_protocol(mods, programs=specs)
        assert findings == []
        channels = concrete_channels(protocols[0], 4, {})
        assert channels == {(0, 1, 7300), (1, 0, 7300), (2, 3, 7300), (3, 2, 7300)}


#: A guard-exchange helper in its own module: every peer, tag, depth and
#: the send order arrive as arguments, as in
#: :func:`repro.wavelet.parallel.decomposition.exchange_guards`.
_HALO = textwrap.dedent(
    """\
    def swap_margins(ctx, buf, owned, front, back, prev, nxt, back_tag, front_tag, *, multi, front_first=False):
        if not multi:
            return
        if front_first:
            if front > 0:
                yield ctx.send(nxt, buf[..., owned : owned + front, :], tag=front_tag)
        if back > 0:
            yield ctx.send(prev, buf[..., front : front + BACK_ROWS, :], tag=back_tag)
        if not front_first:
            if front > 0:
                yield ctx.send(nxt, buf[..., owned : owned + front, :], tag=front_tag)
        if front > 0:
            buf[..., :front, :] = yield ctx.recv(prev, tag=front_tag)
        if back > 0:
            buf[..., front + owned :, :] = yield ctx.recv(nxt, tag=back_tag)
    """
)

#: A synthesis-phase caller in another module: its own tag names, the
#: kernel's synthesis depths and the decomposition's neighbors.
_INVERSE = textwrap.dedent(
    """\
    from fix.halo import swap_margins
    from repro.machines import tags
    from repro.wavelet.kernels import get_kernel

    _TAG_GUARD = tags.RECONSTRUCT_GUARD
    _TAG_GUARD_BACK = tags.RECONSTRUCT_GUARD_BACK

    def inverse_program(ctx, buf, rows, bank, kernel, decomp, guard_tag):
        rank, nranks = ctx.rank, ctx.nranks
        s_front, s_back = get_kernel(kernel).synthesis_guard_depths(bank)
        north = decomp.north_neighbor(rank)
        south = decomp.south_neighbor(rank)
        yield from swap_margins(
            ctx, buf, rows, s_front, s_back, north, south, BACK_TAG, _TAG_GUARD,
            multi=nranks > 1, front_first=True,
        )
        return buf
    """
)

#: An analysis-phase caller of the same helper (back guard first).
_FORWARD = textwrap.dedent(
    """\
    from fix.halo import swap_margins
    from repro.machines.tags import DWT1D_GUARD, DWT1D_GUARD_FRONT
    from repro.wavelet.kernels import get_kernel

    def forward_program(ctx, buf, length, bank, kernel):
        rank, nranks = ctx.rank, ctx.nranks
        front, back = get_kernel(kernel).analysis_guard_depths(bank)
        left = (rank - 1) % nranks
        right = (rank + 1) % nranks
        yield from swap_margins(
            ctx, buf, length, front, back, left, right, DWT1D_GUARD, DWT1D_GUARD_FRONT,
            multi=nranks > 1,
        )
        return buf
    """
)


class TestBoundHelperArguments:
    """The verifier inlines a helper with each parameter bound to the
    caller's argument: peers and tags resolve in the caller's frame and
    module, and conditions and payload slices read in the caller's names."""

    INVERSE = ProtocolProgram("fix.inverse", "inverse_program", "synthesis")
    FORWARD = ProtocolProgram("fix.forward", "forward_program", "analysis")

    @staticmethod
    def _sources(back_rows="back", back_tag="_TAG_GUARD_BACK"):
        return {
            "fix.halo": _HALO.replace("BACK_ROWS", back_rows),
            "fix.inverse": _INVERSE.replace("BACK_TAG", back_tag),
            "fix.forward": _FORWARD,
        }

    def test_helper_in_another_module_certifies(self):
        """Both callers certify: the synthesis call's tags and neighbors
        resolve through its own module, its ``s_front``/``s_back`` decide
        the guard depths, and its ``front_first=True`` keeps only the
        front-first send order."""
        sources = self._sources()
        assert _proto_findings(sources, (self.INVERSE, self.FORWARD)) == []
        _, protocols = check_protocol(
            modules_from_sources(sources), programs=(self.INVERSE,)
        )
        events = protocols[0].events
        assert [(ev.kind, ev.tag) for ev in events] == [
            ("send", tags.RECONSTRUCT_GUARD),
            ("send", tags.RECONSTRUCT_GUARD_BACK),
            ("recv", tags.RECONSTRUCT_GUARD),
            ("recv", tags.RECONSTRUCT_GUARD_BACK),
        ]
        assert ("s_back > 0", True) in events[1].atoms
        assert [(ev.peer.axis, ev.peer.value) for ev in events] == [
            ("row", 1), ("row", -1), ("row", -1), ("row", 1)
        ]

    def test_short_guard_in_helper_flagged_per_caller(self):
        """The helper ships ``back - 1`` rows: one depth finding at the
        helper's line for each program that calls it."""
        found = _proto_findings(
            self._sources(back_rows="back - 1"), (self.INVERSE, self.FORWARD)
        )
        assert found == [("PROTO-GUARD-DEPTH-MISMATCH", 8)] * 2

    def test_unresolvable_argument_is_reported(self):
        """A caller's tag the verifier cannot resolve (the program's own
        parameter) stays opaque inside the helper and is reported there."""
        found = _proto_findings(
            self._sources(back_tag="guard_tag"), (self.INVERSE,)
        )
        assert found == [
            ("PROTO-UNMATCHED-SEND", 8),
            ("PROTO-UNMATCHED-RECV", 15),
        ]
