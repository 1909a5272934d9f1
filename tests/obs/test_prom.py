"""Prometheus text exposition: renderer, escaping, parse round trip."""

import math

from repro.obs.metrics import BUCKET_BOUNDS, Histogram
from repro.obs.prom import (
    escape_help,
    escape_label_value,
    format_value,
    metric_name,
    render_prometheus,
)

from tests.obs.prom_reader import histogram_buckets, parse_prometheus, sample_value


class TestNames:
    def test_dots_become_underscores_with_prefix(self):
        assert metric_name("serve.request_seconds") == "xmorph_serve_request_seconds"
        assert metric_name("serve.errors.XM540") == "xmorph_serve_errors_XM540"

    def test_illegal_characters_sanitized(self):
        assert metric_name("a-b c") == "xmorph_a_b_c"

    def test_no_prefix(self):
        assert metric_name("x.y", prefix="") == "x_y"


class TestEscaping:
    def test_help_escapes_backslash_and_newline(self):
        assert escape_help("a\\b\nc") == "a\\\\b\\nc"

    def test_label_value_escapes_quote_too(self):
        assert escape_label_value('say "hi"\n') == 'say \\"hi\\"\\n'

    def test_escaped_labels_round_trip_through_parser(self):
        text = render_prometheus(
            {"serve.requests": 3}, labels={"database": 'we"ird\\path\n'}
        )
        samples = parse_prometheus(text)
        labels = next(iter(samples["xmorph_serve_requests_total"]))
        assert dict(labels)["database"] == 'we"ird\\path\n'


class TestFormatValue:
    def test_integers_render_bare(self):
        assert format_value(3.0) == "3"

    def test_infinities_and_nan(self):
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"
        assert format_value(float("nan")) == "NaN"


class TestRenderer:
    def test_counter_gets_total_suffix_and_help(self):
        text = render_prometheus({"serve.requests": 7})
        assert "# TYPE xmorph_serve_requests_total counter" in text
        assert "# HELP xmorph_serve_requests_total" in text
        assert "xmorph_serve_requests_total 7" in text

    def test_empty_histogram_emits_only_inf_bucket(self):
        text = render_prometheus({}, histograms={"serve.request_seconds": Histogram()})
        assert 'xmorph_serve_request_seconds_bucket{le="+Inf"} 0' in text
        assert "xmorph_serve_request_seconds_count 0" in text
        # No finite buckets for an empty histogram.
        assert text.count("_bucket{") == 1

    def test_single_observation_buckets_cumulative(self):
        histogram = Histogram()
        histogram.observe(0.005)
        text = render_prometheus({}, histograms={"latency": Histogram.from_dict(histogram.as_dict())})
        samples = parse_prometheus(text)
        buckets = histogram_buckets(samples, "xmorph_latency")
        # Exactly one observation: every emitted bucket at or above the
        # observation's bound is 1, and +Inf equals the count.
        assert buckets[-1] == (float("inf"), 1.0)
        finite = [count for le, count in buckets if le != float("inf")]
        assert finite and finite[-1] == 1.0
        assert sample_value(samples, "xmorph_latency_count") == 1.0

    def test_overflow_only_histogram(self):
        histogram = Histogram()
        histogram.observe(5e6)  # past the top bound -> overflow bucket
        text = render_prometheus({}, histograms={"latency": histogram})
        samples = parse_prometheus(text)
        buckets = histogram_buckets(samples, "xmorph_latency")
        # The overflow observation appears only in +Inf.
        assert buckets[-1] == (float("inf"), 1.0)
        assert all(count == 0.0 for le, count in buckets if le != float("inf"))
        assert sample_value(samples, "xmorph_latency_sum") == 5e6

    def test_interior_zero_buckets_kept_for_quantile_math(self):
        histogram = Histogram()
        histogram.observe(1e-3)
        histogram.observe(1e0)
        text = render_prometheus({}, histograms={"latency": histogram})
        samples = parse_prometheus(text)
        buckets = histogram_buckets(samples, "xmorph_latency")
        finite = [le for le, _ in buckets if le != float("inf")]
        # Everything between the two populated bounds is emitted, so a
        # scrape-side diff sees the zeros between them.
        lower = min(i for i, b in enumerate(BUCKET_BOUNDS) if b >= 1e-3)
        upper = min(i for i, b in enumerate(BUCKET_BOUNDS) if b >= 1e0)
        assert len(finite) == upper - lower + 1

    def test_gauge_type_line(self):
        text = render_prometheus({}, gauges={"buffer.hit_ratio": 0.75})
        assert "# TYPE xmorph_buffer_hit_ratio gauge" in text
        assert "xmorph_buffer_hit_ratio 0.75" in text


class TestParseRoundTrip:
    def test_full_round_trip(self):
        histogram = Histogram()
        for value in (0.001, 0.02, 0.02, 0.3):
            histogram.observe(value)
        text = render_prometheus(
            {"serve.requests": 11, "serve.errors.XM540": 2},
            gauges={"serve.pending": 3.0},
            histograms={"serve.request_seconds": histogram},
            labels={"database": "bib.db"},
        )
        samples = parse_prometheus(text)
        assert sample_value(samples, "xmorph_serve_requests_total") == 11.0
        assert sample_value(samples, "xmorph_serve_errors_XM540_total") == 2.0
        assert sample_value(samples, "xmorph_serve_pending") == 3.0
        assert sample_value(samples, "xmorph_serve_request_seconds_count") == 4.0
        assert math.isclose(
            sample_value(samples, "xmorph_serve_request_seconds_sum"),
            sum((0.001, 0.02, 0.02, 0.3)),
        )
        buckets = histogram_buckets(samples, "xmorph_serve_request_seconds")
        assert buckets[-1] == (float("inf"), 4.0)
        cumulative = [count for _le, count in buckets]
        assert cumulative == sorted(cumulative), "buckets must be cumulative"

    def test_parser_skips_comments_and_garbage(self):
        text = "# HELP x y\n# TYPE x counter\nnot a sample !!\nx_total 4\n"
        samples = parse_prometheus(text)
        assert sample_value(samples, "x_total") == 4.0
        assert len(samples) == 1
