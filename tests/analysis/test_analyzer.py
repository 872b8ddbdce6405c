"""The rule engine (repro.analysis.analyzer) over synthetic kernels."""

import pytest

from repro.analysis import Severity, analyze_kernel
from repro.analysis.analyzer import (
    LONG_LOOP_ITERS,
    _facts_key,
    analyze_variant,
    span_dims,
)
from repro.hw.cost import WorkGroupCost
from repro.kernels.dsl import Intent, KernelSpec, buffer_arg, scalar_arg
from repro.kernels.transforms import gpu_fluidic_variant, plain_variant

COST = WorkGroupCost(flops=1e5, bytes_read=1e4, bytes_written=1e4)
LONG_COST = WorkGroupCost(flops=1e5, bytes_read=1e4, bytes_written=1e4,
                          loop_iters=LONG_LOOP_ITERS)


def kernel(body, *args, cost=COST, name="k"):
    return KernelSpec(name=name, args=tuple(args), body=body, cost=cost)


def _clean_body(ctx):
    rows = ctx.rows()
    ctx["y"][rows] = ctx["x"][rows] * 2.0


class TestIntentRules:
    def test_clean_kernel_has_no_findings(self):
        report = analyze_kernel(kernel(
            _clean_body, buffer_arg("x"), buffer_arg("y", Intent.OUT)))
        assert report.findings == []
        assert report.fluidic_safe

    def test_fk101_under_declared_write(self):
        report = analyze_kernel(kernel(
            _clean_body, buffer_arg("x"), buffer_arg("y")))
        assert "FK101" in report.rule_ids()
        assert not report.fluidic_safe
        finding = report.findings[0]
        assert finding.arg == "y"
        assert finding.location is not None
        assert "Intent.OUT" in finding.hint

    def test_fk102_out_declared_buffer_read(self):
        def body(ctx):
            rows = ctx.rows()
            ctx["y"][rows] = ctx["y"][rows] + ctx["x"][rows]

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.OUT)))
        assert "FK102" in report.rule_ids()
        assert report.fluidic_safe  # a warning, not an error

    def test_fk103_unknown_name_suggests_closest(self):
        def body(ctx):
            rows = ctx.rows()
            ctx["y"][rows] = ctx["xs"][rows]

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.OUT)))
        fk103 = [f for f in report.findings if f.rule_id == "FK103"]
        assert fk103 and "'x'" in fk103[0].hint

    def test_fk104_scalar_written(self):
        def body(ctx):
            ctx["y"][ctx.rows()] = ctx["x"][ctx.rows()]
            ctx["n"] = 3

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.OUT),
            scalar_arg("n")))
        assert "FK104" in report.rule_ids()
        assert not report.fluidic_safe

    def test_fk110_over_declared_write(self):
        def body(ctx):
            ctx["y"][ctx.rows()] = ctx["x"][ctx.rows()] + ctx["z"][ctx.rows()]

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.OUT),
            buffer_arg("z", Intent.OUT)))
        ids = report.rule_ids()
        assert "FK110" in ids
        assert report.fluidic_safe

    def test_fk111_inout_never_read(self):
        report = analyze_kernel(kernel(
            _clean_body, buffer_arg("x"), buffer_arg("y", Intent.INOUT)))
        assert "FK111" in report.rule_ids()

    def test_fk112_unused_argument(self):
        report = analyze_kernel(kernel(
            _clean_body, buffer_arg("x"), buffer_arg("y", Intent.OUT),
            buffer_arg("unused"), scalar_arg("beta")))
        unused = {f.arg for f in report.findings if f.rule_id == "FK112"}
        assert unused == {"unused", "beta"}


class TestRaceRules:
    def test_fk201_untiled_write(self):
        def body(ctx):
            rows = ctx.rows()
            ctx["y"][:] = ctx["x"][rows].sum()

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.OUT)))
        assert "FK201" in report.rule_ids()
        assert not report.fluidic_safe

    def test_fk201_write_missing_partitioned_dim(self):
        def body(ctx):
            rows = ctx.rows()
            cols = ctx.cols()  # partitions dim 1 too
            ctx["y"][rows] = ctx["x"][rows, cols].sum(axis=1)

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.OUT)))
        assert "FK201" in report.rule_ids()

    def test_fk201_no_tile_derivation_at_all(self):
        def body(ctx):
            ctx["y"][0] = 1.0

        report = analyze_kernel(kernel(body, buffer_arg("y", Intent.OUT)))
        assert "FK201" in report.rule_ids()

    def test_fk202_whole_variable_read_of_written_buffer(self):
        def body(ctx):
            rows = ctx.rows()
            ctx["y"][rows] = ctx["x"][rows] + ctx["y"].mean()

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.INOUT)))
        assert "FK202" in report.rule_ids()
        assert not report.fluidic_safe

    def test_fk202_read_outside_write_tile_mapping(self):
        def body(ctx):
            rows = ctx.rows()
            ctx["y"][rows] = ctx["x"][rows] + ctx["y"][:].sum()

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.INOUT)))
        assert "FK202" in report.rule_ids()

    def test_inout_read_of_own_tile_is_safe(self):
        def body(ctx):
            rows = ctx.rows()
            ctx["y"][rows] = ctx["y"][rows] + ctx["x"][rows]

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.INOUT)))
        assert report.findings == []

    def test_full_axis_on_unpartitioned_dim_is_safe(self):
        # 1-D partition writing 2-D rows: data[rows, :] is the group's tile
        def body(ctx):
            rows = ctx.rows()
            ctx["data"][rows, :] = ctx["data"][rows, :] * 2.0

        report = analyze_kernel(kernel(
            body, buffer_arg("data", Intent.INOUT)))
        assert report.findings == []

    def test_fk203_unresolved_key(self):
        def body(ctx):
            name = str(len("xy"))
            ctx[name][ctx.rows()] = 0.0

        report = analyze_kernel(KernelSpec(
            "k", (buffer_arg("x", Intent.OUT),), body, COST))
        assert "FK203" in report.rule_ids()

    def test_fk210_unanalyzable_body_is_info_only(self):
        report = analyze_kernel(KernelSpec(
            "k", (buffer_arg("x"), buffer_arg("y", Intent.OUT)),
            lambda ctx: None, COST))
        assert report.rule_ids() == ("FK210",)
        assert report.findings[0].severity is Severity.INFO
        assert report.fluidic_safe
        assert not report.worth_reporting(Severity.WARNING)


class TestAbortRules:
    def test_fk301_long_loop_without_inloop_aborts(self):
        spec = kernel(_clean_body, buffer_arg("x"),
                      buffer_arg("y", Intent.OUT), cost=LONG_COST)
        report = analyze_kernel(spec, abort_in_loops=False)
        assert "FK301" in report.rule_ids()
        assert analyze_kernel(spec, abort_in_loops=True).findings == []

    def test_fk302_aborts_without_reunroll(self):
        spec = kernel(_clean_body, buffer_arg("x"),
                      buffer_arg("y", Intent.OUT), cost=LONG_COST)
        report = analyze_kernel(spec, abort_in_loops=True, loop_unroll=False)
        assert "FK302" in report.rule_ids()

    def test_short_loop_needs_no_abort_checks(self):
        report = analyze_kernel(
            kernel(_clean_body, buffer_arg("x"), buffer_arg("y", Intent.OUT)),
            abort_in_loops=False)
        assert report.findings == []

    def test_fk303_explicit_loop_with_unit_cost(self):
        def body(ctx):
            rows = ctx.rows()
            acc = ctx["x"][rows] * 0.0
            for _ in range(8):
                acc = acc + ctx["x"][rows]
            ctx["y"][rows] = acc

        report = analyze_kernel(kernel(
            body, buffer_arg("x"), buffer_arg("y", Intent.OUT)))
        assert "FK303" in report.rule_ids()

    def test_analyze_variant_uses_variant_flags(self):
        spec = kernel(_clean_body, buffer_arg("x"),
                      buffer_arg("y", Intent.OUT), cost=LONG_COST)
        fluidic = gpu_fluidic_variant(spec)
        assert analyze_variant(fluidic).findings == []
        plain = plain_variant(spec)
        report = analyze_variant(plain)
        assert "FK301" in report.rule_ids()


class TestReportShape:
    def test_version_label(self):
        spec = kernel(_clean_body, buffer_arg("x"),
                      buffer_arg("y", Intent.OUT))
        tuned = spec.with_version("tuned", _clean_body)
        assert analyze_kernel(tuned).label == "k@tuned"
        assert analyze_kernel(spec).label == "k"

    def test_findings_render_with_rule_and_location(self):
        report = analyze_kernel(kernel(
            _clean_body, buffer_arg("x"), buffer_arg("y")))
        text = report.render()
        assert "FK101" in text and "NOT fluidic-safe" in text
        assert "test_analyzer.py" in text

    def test_reports_are_cached(self):
        spec = kernel(_clean_body, buffer_arg("x"),
                      buffer_arg("y", Intent.OUT))
        assert analyze_kernel(spec) is analyze_kernel(spec)

    def test_unknown_rule_id_raises(self):
        from repro.analysis import rule
        with pytest.raises(KeyError):
            rule("FK999")


def _group_id_body(ctx):
    g = ctx.group_id[0]
    lo, hi = ctx.item_range(0)
    ctx["y"][lo:hi] = ctx["x"][lo:hi] + g


def _escaping_body(ctx):
    _clean_body(ctx)


def _hidden_write_body(ctx):
    rows = ctx.rows()
    view = ctx["y"][rows]
    view[:] = ctx["x"][rows]


def _racy_body(ctx):
    ctx["y"][0] = ctx["x"][ctx.rows()].sum()


def _tile_2d_body(ctx):
    c0, c1 = ctx.item_range(0)
    r0, r1 = ctx.item_range(1)
    ctx["y"][r0:r1, c0:c1] = ctx["x"][r0:r1, c0:c1]


class TestSpanDims:
    """Span-safety is derived from the body's facts, never declared."""

    ARGS = (buffer_arg("x"), buffer_arg("y", Intent.OUT))

    def test_tile_bodies_span_their_tile_dims(self):
        assert span_dims(kernel(_clean_body, *self.ARGS)) == {0}
        assert span_dims(kernel(_tile_2d_body, *self.ARGS)) == {0, 1}

    @pytest.mark.parametrize("body", [
        _group_id_body,     # a box does not widen group_id
        _escaping_body,     # ctx handed to code the analysis cannot see
        _hidden_write_body,  # the declared out buffer has no visible write
        _racy_body,         # FK201
        lambda ctx: None,   # not analyzable
    ])
    def test_unsafe_bodies_keep_per_group_dispatch(self, body):
        assert span_dims(kernel(body, *self.ARGS)) is None

    def test_verdict_is_shared_by_recreated_closures(self):
        def make(out):
            def body(ctx):
                rows = ctx.rows()
                ctx[out][rows] = ctx["x"][rows]
            return body

        first, second = make("y"), make("y")
        assert first is not second
        assert span_dims(kernel(first, *self.ARGS)) == {0}
        assert span_dims(kernel(second, *self.ARGS)) == {0}
        assert len({_facts_key(first), _facts_key(second)}) == 1
