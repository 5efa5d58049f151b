//! Golden-output test for the Prometheus text exposition (format 0.0.4):
//! every metric in the catalog must expose well-formed `# HELP` / `# TYPE`
//! headers, every histogram must emit monotone cumulative buckets closed by
//! a `+Inf` bucket that equals its `_count`, and `_sum` / `_count` must be
//! present — whether the top log₂ bucket was hit (inline `+Inf`) or not
//! (the explicit closing-line path).

use pi2m_obs::metrics::{self, CounterId, HistId, MetricKind, ThreadRecorder};
use pi2m_obs::{render_prometheus, RunReport, TimeAttribution, TraceSpan, WorkerAttribution};

/// A report where EVERY cataloged counter and histogram has data, so the
/// exposition covers the full catalog. Histogram 0 additionally gets a
/// sample in the top log₂ bucket (inline `+Inf` path); the others only get
/// small samples (explicit closing `+Inf` path).
fn full_report() -> RunReport {
    let mut rec = ThreadRecorder::new();
    for (i, _) in metrics::COUNTERS.iter().enumerate() {
        rec.inc(CounterId(i as u16), i as u64 + 1);
    }
    for (i, _) in metrics::HISTOGRAMS.iter().enumerate() {
        rec.observe(HistId(i as u16), 0.5);
        rec.observe(HistId(i as u16), 123.0);
        if i == 0 {
            rec.observe(HistId(i as u16), 1e12); // clamps into the top bucket
        }
    }
    let mut r = RunReport::new("golden");
    rec.merge_into(0, &mut r.metrics);
    r.threads = 1;
    r.wall_s = 1.0;
    r.set_phases(&[TraceSpan {
        name: "volume_refinement",
        start_s: 0.0,
        dur_s: 1.0,
    }]);
    let worker = WorkerAttribution {
        rolled_back_s: 0.25,
        ..Default::default()
    };
    r.attribution = Some(TimeAttribution::from_workers(1.0, vec![worker]));
    r
}

/// The `le` bound and cumulative count of one `_bucket` sample line.
fn parse_bucket_line(line: &str, name: &str) -> Option<(f64, u64)> {
    let rest = line.strip_prefix(&format!("{name}_bucket{{le=\""))?;
    let (le, rest) = rest.split_once("\"}")?;
    let le = if le == "+Inf" {
        f64::INFINITY
    } else {
        le.parse().ok()?
    };
    Some((le, rest.trim().parse().ok()?))
}

#[test]
fn every_cataloged_metric_has_help_and_type_lines() {
    let text = render_prometheus(&full_report());
    for def in metrics::catalog() {
        let name = format!("pi2m_{}", def.name);
        let kind = match def.kind {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        };
        let help = format!("# HELP {name} ");
        let typ = format!("# TYPE {name} {kind}\n");
        assert!(text.contains(&help), "missing HELP for {name}");
        assert!(text.contains(&typ), "missing/incorrect TYPE for {name}");
        // HELP must precede TYPE, immediately
        let at = text.find(&help).unwrap();
        let after_help = &text[at..];
        let help_line_end = after_help.find('\n').unwrap();
        assert!(
            after_help[help_line_end + 1..].starts_with(&typ[..typ.len() - 1]),
            "TYPE does not directly follow HELP for {name}"
        );
    }
}

#[test]
fn every_counter_exposes_one_sample_line() {
    let text = render_prometheus(&full_report());
    for (i, def) in metrics::COUNTERS.iter().enumerate() {
        let line = format!("pi2m_{} {}\n", def.name, i + 1);
        assert!(text.contains(&line), "missing counter sample: {line:?}");
    }
}

#[test]
fn histograms_are_monotone_and_close_with_inf_equal_to_count() {
    let report = full_report();
    let text = render_prometheus(&report);
    for (i, def) in metrics::HISTOGRAMS.iter().enumerate() {
        let name = format!("pi2m_{}", def.name);
        let expected_count = if i == 0 { 3 } else { 2 };

        let buckets: Vec<(f64, u64)> = text
            .lines()
            .filter_map(|l| parse_bucket_line(l, &name))
            .collect();
        assert!(!buckets.is_empty(), "{name}: no bucket lines");
        for pair in buckets.windows(2) {
            assert!(
                pair[0].0 < pair[1].0,
                "{name}: le bounds not increasing: {pair:?}"
            );
            assert!(
                pair[0].1 <= pair[1].1,
                "{name}: cumulative counts decreased: {pair:?}"
            );
        }
        // exactly one +Inf bucket, last, carrying the total sample count —
        // on both renderer paths (top bucket hit vs explicit closing line)
        let infs = buckets.iter().filter(|(le, _)| le.is_infinite()).count();
        assert_eq!(infs, 1, "{name}: expected exactly one +Inf bucket");
        let (last_le, last_cum) = *buckets.last().unwrap();
        assert!(last_le.is_infinite(), "{name}: last bucket is not +Inf");
        assert_eq!(last_cum, expected_count, "{name}: +Inf != sample count");

        let count_line = format!("{name}_count {expected_count}\n");
        assert!(text.contains(&count_line), "missing {count_line:?}");
        let sum_prefix = format!("{name}_sum ");
        let sum_line = text
            .lines()
            .find(|l| l.starts_with(&sum_prefix))
            .unwrap_or_else(|| panic!("missing {sum_prefix}"));
        let sum: f64 = sum_line[sum_prefix.len()..].trim().parse().unwrap();
        let expected_sum = if i == 0 { 123.5 + 1e12 } else { 123.5 };
        assert!(
            (sum - expected_sum).abs() < 1e-6 * expected_sum.abs(),
            "{name}: sum {sum} != {expected_sum}"
        );
    }
}

#[test]
fn phase_and_overhead_gauges_render() {
    let text = render_prometheus(&full_report());
    assert!(text.contains("# TYPE pi2m_phase_seconds gauge"));
    assert!(text.contains("pi2m_phase_seconds{phase=\"volume_refinement\"} 1"));
    assert!(text.contains("# TYPE pi2m_overhead_seconds gauge"));
    assert!(text.contains("pi2m_overhead_seconds{kind=\"rollback\"} 0.25"));
}
