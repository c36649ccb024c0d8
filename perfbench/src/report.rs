//! Metric names, units, the tail-percentile rule, and the result line.

/// End-to-end metrics (untraced runs): name and unit. Must match
/// `BENCHMARK.json`'s `end_to_end` list.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_instr_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("wall_s", "s"),
    ("programs_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "count"),
    ("sim_instructions", "count"),
    ("verified_frac", "ratio"),
];

/// Per-layer metrics (traced runs): name and unit. Must match
/// `BENCHMARK.json`'s `per_layer` list.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("xmtc.lex_ms", "ms"),
    ("xmtc.parse_ms", "ms"),
    ("xmtc.inline_ms", "ms"),
    ("xmtc.sema_ms", "ms"),
    ("xmtc.outline_ms", "ms"),
    ("xmtc.lower_ms", "ms"),
    ("xmtc.opt_ms", "ms"),
    ("xmtc.codegen_ms", "ms"),
    ("xmtc.layout_ms", "ms"),
    ("isa.link_ms", "ms"),
    ("xmtc.tokens", "count"),
    ("xmtc.asm_instrs", "count"),
    ("xmtc.layout_fixes", "count"),
    ("sim.construct_ms", "ms"),
    ("sim.issue_share", "ratio"),
    ("sim.memory_share", "ratio"),
    ("sim.sched_share", "ratio"),
    ("sim.other_share", "ratio"),
    ("sim.events_per_instr", "ratio"),
    ("issue.mean_burst_len", "instr"),
    ("decode.replay_frac", "ratio"),
    ("decode.fusions", "count"),
    ("icn.hops_elided_per_leg", "ratio"),
    ("mem.events_per_package", "ratio"),
    ("mem.drains", "count"),
    ("mem.host_us_per_dram_access", "us"),
    ("sim.cache_hit_rate", "ratio"),
    ("sim.dram_accesses", "count"),
    ("trace.event_inflation", "ratio"),
    ("trace.records", "count"),
    ("trace.dropped", "count"),
    ("trace.export_ms", "ms"),
    ("check.verify_ms", "ms"),
    ("check.reference_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("host.probe_ms", "ms"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`.
#[cfg(test)]
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// The tail statistic of `n` ascending samples: the 1-based rank of the
/// highest percentile, at most the 99th, that still has at least ten
/// samples beyond it, and the percentile that rank stands for. A true p99
/// needs 1000 samples. Below 20 samples no percentile above the median
/// keeps ten beyond it, and the rank is the median's.
pub fn tail_rank(n: usize) -> (usize, f64) {
    assert!(n > 0, "no samples");
    let rank = (n * 99)
        .div_ceil(100)
        .min(n.saturating_sub(10))
        .max(median_rank(n));
    (rank, 100.0 * rank as f64 / n as f64)
}

/// Nearest-rank median of ascending samples.
pub fn median_rank(n: usize) -> usize {
    n.div_ceil(2).max(1)
}

/// Median of unsorted values.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[median_rank(s.len()) - 1]
}

/// A metric value as JSON text with all its digits; non-finite values
/// (a missed sample) become the largest finite double.
pub fn num(v: f64) -> String {
    let v = if v.is_finite() { v } else { f64::MAX };
    format!("{v:?}")
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_harness::json::Json;

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        // A true p99 needs 1000 samples.
        assert_eq!(tail_rank(1000), (990, 99.0));
        assert_eq!(tail_rank(1014).0, 1004);
        assert_eq!(tail_rank(5000).0, 4950);
        // Below that the rank backs off so ten samples stay beyond it.
        assert_eq!(tail_rank(999).0, 989);
        assert_eq!(tail_rank(28), (18, 100.0 * 18.0 / 28.0));
        // Too few samples: the median.
        assert_eq!(tail_rank(14).0, 7);
        assert_eq!(tail_rank(1), (1, 100.0));
        for n in 1..3000 {
            let (r, p) = tail_rank(n);
            assert!(r >= median_rank(n) && r <= n, "n={n}");
            if r > median_rank(n) {
                // At most the nearest-rank p99.
                assert!(n - r >= 10 && r <= (n * 99).div_ceil(100), "n={n} p={p}");
                // The next rank up is past p99 or leaves fewer than ten.
                assert!(r + 1 > (n * 99).div_ceil(100) || n - (r + 1) < 10, "n={n}");
            }
        }
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
            assert!(
                n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
        }
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("x/y"));
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before);
    }

    #[test]
    fn result_line_parses_with_exact_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[("wall_s", "s", 0.125), ("x", "ms", f64::INFINITY)],
        );
        let j = Json::parse(&line).unwrap();
        let keys: Vec<&str> = j
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    fn str_of<'a>(members: &'a [(String, Json)], key: &str) -> &'a str {
        match members.iter().find(|(k, _)| k == key) {
            Some((_, Json::Str(s))) => s,
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_round_trips_and_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let j = Json::parse(&text).unwrap();
        assert_eq!(Json::parse(&j.encode()).unwrap(), j);
        let top = j.as_obj().unwrap();
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| -> Vec<(String, String)> {
            let v = &top.iter().find(|(k, _)| k == key).unwrap().1;
            v.as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let m = m.as_obj().unwrap();
                    (str_of(m, "name").to_string(), str_of(m, "unit").to_string())
                })
                .collect()
        };
        let want = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(list("end_to_end"), want(END_TO_END));
        assert_eq!(list("per_layer"), want(PER_LAYER));
        let workloads = &top.iter().find(|(k, _)| k == "workloads").unwrap().1;
        let names: Vec<&str> = workloads
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| str_of(w.as_obj().unwrap(), "name"))
            .collect();
        assert!(names.len() >= 2);
        for n in names {
            assert!(
                crate::workloads::Kind::parse(n).is_some(),
                "unknown workload {n}"
            );
        }
    }
}
