"""Repo-level analysis guarantees: the tree lints clean, the tag
registry's frozen numbering holds, and the static race candidates are a
superset of the dynamic detector's findings on traced runs."""

import json
import textwrap

import numpy as np
import pytest

from repro.analysis import lint_sources
from repro.data import plummer_sphere, uniform_cube
from repro.errors import ConfigurationError
from repro.machines import Engine, paragon
from repro.machines.causality import find_wildcard_races
from repro.machines.tags import (
    REGISTRY,
    USER_TAG_CEILING,
    TagRegistry,
    verify_collision_free,
)
from repro.nbody.parallel import manager_worker_program
from repro.pic import Grid3D
from repro.pic.parallel import pic_program
from repro.wavelet import filter_bank_for_length
from repro.wavelet.parallel.decomposition import StripeDecomposition
from repro.wavelet.parallel.spmd import striped_wavelet_program


class TestRepoIsClean:
    def test_lint_clean_with_empty_baseline(self, repo_lint):
        """The gate the CI lint job enforces: zero unwaived findings and
        *no baseline needed* — the allowance file stays empty/absent."""
        report = repo_lint
        assert report.modules_checked > 80
        details = "\n".join(
            f"{f.path}:{f.line} [{f.rule_id}] {f.message}" for f in report.findings
        )
        assert report.findings == [], f"repo must lint clean:\n{details}"
        assert report.exit_code == 0
        assert report.baselined == []

    def test_only_reviewed_suppressions_exist(self, repo_lint):
        """Inline waivers are a reviewed set; growing it is a deliberate
        act, not an accident."""
        report = repo_lint
        waived = sorted((f.module, f.rule_id) for f in report.suppressed)
        assert waived == [
            # The wildcard scan in Engine._match reduces its dict walk to
            # the (arrive, (src, tag)) minimum, so mailbox order cannot
            # leak into matching.
            ("repro.machines.engine", "DET-DICT-ITERATION"),
        ]


class TestTagRegistry:
    def test_frozen_numbering(self):
        """The digest pins in test_runtime_compat.py ride on these exact
        values — renumbering is a trace-format break."""
        expected = {
            "wavelet.spmd.distribute": 1,
            "wavelet.spmd.row_guard": 2,
            "wavelet.spmd.col_guard": 3,
            "wavelet.spmd.collect": 4,
            "wavelet.reconstruct.distribute": 5,
            "wavelet.reconstruct.guard": 6,
            "wavelet.reconstruct.collect": 7,
            "wavelet.dwt1d.distribute": 8,
            "wavelet.dwt1d.guard": 9,
            "wavelet.dwt1d.collect": 10,
            "nbody.update": 11,
            "wavelet.spmd.sweep_guard": 12,
            "wavelet.spmd.sweep_guard_front": 13,
            "wavelet.spmd.sweep_col_guard": 14,
            "wavelet.spmd.sweep_col_guard_front": 15,
            "pic.final": 21,
            "wavelet.spmd.col_guard_front": 31,
            "wavelet.spmd.row_guard_front": 32,
            "wavelet.dwt1d.guard_front": 33,
            "wavelet.dwt1d.guard_back": 34,
            "wavelet.reconstruct.guard_back": 35,
            "scenarios.adversary.spam": 36,
        }
        assert REGISTRY.all_tags() == expected

    def test_modules_reexport_registry_values(self):
        from repro.machines import api
        from repro.machines.faults import transport
        from repro.wavelet.parallel import spmd

        assert spmd._TAG_ROW_GUARD == 2
        assert api.COLLECTIVE_TAG_BASE == 900_000
        assert transport.DATA_TAG_BASE == 950_000
        assert transport.ACK_TAG_BASE == 975_000

    def test_verify_collision_free_passes(self):
        verify_collision_free()

    def test_duplicate_value_rejected(self):
        reg = TagRegistry()
        reg.allocate("a", 1)
        with pytest.raises(ConfigurationError, match="already owned"):
            reg.allocate("b", 1)

    def test_duplicate_name_rejected(self):
        reg = TagRegistry()
        reg.allocate("a", 1)
        with pytest.raises(ConfigurationError, match="already allocated"):
            reg.allocate("a", 2)

    def test_allocation_inside_reserved_range_rejected(self):
        reg = TagRegistry()
        reg.reserve_range("block", 100, 200)
        with pytest.raises(ConfigurationError, match="reserved"):
            reg.allocate("a", 150)

    def test_overlapping_ranges_rejected(self):
        reg = TagRegistry()
        reg.reserve_range("block", 100, 200)
        with pytest.raises(ConfigurationError, match="overlaps"):
            reg.reserve_range("other", 150, 250)

    def test_name_of_resolves_values_and_ranges(self):
        assert REGISTRY.name_of(2) == "wavelet.spmd.row_guard"
        assert REGISTRY.name_of(900_007) == "collectives"
        assert REGISTRY.name_of(950_001) == "faults.transport.data"
        assert REGISTRY.name_of(899_999) is None

    def test_user_tags_below_ceiling(self):
        assert all(v < USER_TAG_CEILING for v in REGISTRY.all_tags().values())


def _static_race_candidates(report, module_names):
    """COMM-WILDCARD-RECV findings of the repo lint ``report`` for the
    given real modules."""
    return [
        f
        for f in report.findings + report.suppressed
        if f.rule_id == "COMM-WILDCARD-RECV" and f.module in module_names
    ]


class TestStaticSupersetOfDynamic:
    """Static race candidates must cover every dynamic race: a run can
    only exercise wildcard receives that exist in the source."""

    def test_apps_zero_dynamic_races_zero_static_candidates(self, repo_lint):
        """All three applications: the dynamic detector certifies the
        traced runs race-free AND the static analysis finds no wildcard
        receive in their sources — the superset relation holds as
        empty ⊇ empty, with the stronger fact that it is exact."""
        candidates = _static_race_candidates(
            repo_lint,
            {
                "repro.wavelet.parallel.spmd",
                "repro.nbody.parallel",
                "repro.pic.parallel",
            }
        )
        assert candidates == []

        image = np.random.default_rng(0).normal(size=(64, 64))
        runs = [
            Engine(paragon(4), record_trace=True).run(
                striped_wavelet_program,
                image,
                filter_bank_for_length(4),
                1,
                StripeDecomposition(64, 64, 4, 1),
            ),
            Engine(paragon(4, protocol="nx"), record_trace=True).run(
                manager_worker_program, plummer_sphere(64, dim=2, seed=0), 1
            ),
            Engine(paragon(4, protocol="nx"), record_trace=True).run(
                pic_program,
                Grid3D(8),
                uniform_cube(128, thermal_speed=0.05, seed=0),
                1,
                collect=False,
            ),
        ]
        for run in runs:
            assert find_wildcard_races(run.trace) == []

    def test_racing_program_flagged_statically_and_dynamically(self):
        """A program with a genuine wildcard race: the dynamic detector
        reports it, and the static candidate set is non-empty — i.e. the
        superset relation is not vacuous."""
        source = textwrap.dedent(
            """\
            from repro.machines import ANY_SOURCE

            TAG = 7990

            def racy_program(ctx):
                if ctx.rank == 0:
                    first = yield ctx.recv(ANY_SOURCE, tag=TAG)
                    second = yield ctx.recv(ANY_SOURCE, tag=TAG)
                    return (first, second)
                yield ctx.compute(flops=1e5 * ctx.rank)
                yield ctx.send(0, ctx.rank, tag=TAG)
                return None
            """
        )
        report = lint_sources({"fix.racy": source})
        static_sites = [
            f.line for f in report.findings if f.rule_id == "COMM-WILDCARD-RECV"
        ]
        assert static_sites == [7, 8]

        namespace = {}
        exec(compile(source, "<fix.racy>", "exec"), namespace)
        run = Engine(paragon(3), record_trace=True).run(namespace["racy_program"])
        races = find_wildcard_races(run.trace)
        assert races, "the planted race must be dynamically observable"
        # Superset at site granularity: every dynamically racing receive
        # was statically flagged (the static list covers both receives;
        # the dynamic frontier attributes the hazard to the first).
        assert len(static_sites) >= len(races)

    def test_dynamic_detector_finds_nothing_static_missed(self):
        """A causally-ordered program whose wildcard receives are benign:
        static analysis still lists them as candidates (superset may be
        strict), and the dynamic run confirms they never race."""
        source = textwrap.dedent(
            """\
            from repro.machines import ANY_SOURCE

            TAG = 7991
            GO = 7992

            def ordered_program(ctx):
                if ctx.rank == 0:
                    first = yield ctx.recv(ANY_SOURCE, tag=TAG)
                    yield ctx.send(2, "go", tag=GO)
                    second = yield ctx.recv(ANY_SOURCE, tag=TAG)
                    return (first, second)
                if ctx.rank == 1:
                    yield ctx.send(0, "early", tag=TAG)
                else:
                    _ = yield ctx.recv(0, tag=GO)
                    yield ctx.send(0, "late", tag=TAG)
                return None
            """
        )
        report = lint_sources({"fix.ordered": source})
        static_sites = [
            f.line for f in report.findings if f.rule_id == "COMM-WILDCARD-RECV"
        ]
        assert static_sites == [8, 10]

        namespace = {}
        exec(compile(source, "<fix.ordered>", "exec"), namespace)
        run = Engine(paragon(3), record_trace=True).run(namespace["ordered_program"])
        assert find_wildcard_races(run.trace) == []  # strict superset: 2 > 0


class TestLintCli:
    def test_human_format_clean_exit(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_json_format_schema(self, capsys):
        from repro.cli import main

        assert main(["lint", "--format=json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.lint.report/v1"
        assert doc["errors"] == 0 and doc["findings"] == []
        assert "COMM-TAG-COLLISION" in doc["rules"]

    def test_violating_file_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text(
            "import time\n\ndef prog(ctx):\n"
            "    got = yield ctx.recv()\n"
            "    return got, time.time()\n"
        )
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "COMM-WILDCARD-RECV" in out and "DET-WALL-CLOCK" in out
        assert f"{bad}:4" in out

    def test_write_and_apply_baseline(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("import time\n\ndef stamp():\n    return time.time()\n")
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(bad), "--write-baseline", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_comm_summary_lists_app_sites(self, capsys):
        from repro.cli import main

        assert main(["lint", "--comm-summary"]) == 0
        out = capsys.readouterr().out
        assert "repro.wavelet.parallel.spmd:" in out
        # The guard sends live in one helper whose tags are parameters, so
        # the tag resolved at a wavelet call site is the scatter's.
        assert "_TAG_DISTRIBUTE=1" in out
