//! The metric catalogue and the run's printed and recorded results.

use std::fmt::Write as _;

use crate::payload::Fails;
use crate::stats::median;

/// End-to-end metrics (untraced run) the result line carries, in print
/// order: name, unit. `BENCHMARK.json` bounds each of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("plane_bytes", "bytes"),
    ("read_mops", "Mops/s"),
    ("read_ns_p50", "ns"),
    ("write_mops", "Mops/s"),
    ("write_ns_p50", "ns"),
    ("write_ns_p99", "ns"),
    ("fresh_us_p50", "us"),
];

/// End-to-end metrics printed and recorded with every untraced run but
/// left out of the result line: on a shared host their run-to-run
/// spread (host preemption stalls of milliseconds) is wider than any
/// bound a regression gate could use.
pub const PRINTED_ONLY: [(&str, &str); 2] = [("read_ns_p99", "ns"), ("fresh_us_p99", "us")];

/// Per-layer metrics (traced run), in print order: name, unit. A layer
/// the workload does not run reports 0 and prints as `n/a`.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("register.write_ns", "ns"),
    ("register.read_ns", "ns"),
    ("register.fast_share", "ratio"),
    ("register.write_rf_ratio", "ratio"),
    ("register.read_rf_ratio", "ratio"),
    ("watch.wait_us", "us"),
    ("watch.read_ns", "ns"),
    ("watch.coalesced_share", "ratio"),
    ("watch.empty_wakes", "count"),
    ("watch.timeouts", "count"),
    ("sharded.read_ns_per_key", "ns"),
    ("sharded.route_ns_per_key", "ns"),
    ("sharded.write_ns_per_key", "ns"),
    ("group.read_ns_per_key", "ns"),
    ("group.fast_share", "ratio"),
    ("shm.build_ms", "ms"),
    ("shm.attach_us", "us"),
    ("gen.late_us_p99", "us"),
    ("trace.overhead_share", "ratio"),
    ("trace.clock_ns", "ns"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload parameters, recorded with the results.
    pub params: Vec<(&'static str, String)>,
    /// Machine context, recorded with the results.
    pub context: Vec<(&'static str, String)>,
    /// Measured metrics by name (either catalogue), plus extras such as
    /// sample counts.
    pub values: Vec<(&'static str, f64)>,
    /// Operations attempted (reads, keys, writes and waits).
    pub attempted: u64,
    pub fails: Fails,
    /// End-of-run checks of the plane's final state.
    pub final_ok: bool,
    /// Kept spans as CSV rows (traced runs only).
    pub spans: String,
    /// Per-round values, folded into `values` as medians by
    /// [`Report::close_rounds`].
    rounds: Vec<(&'static str, Vec<f64>)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// One round's value of `name`.
    pub fn round(&mut self, name: &'static str, value: f64) {
        match self.rounds.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push(value),
            None => self.rounds.push((name, vec![value])),
        }
    }

    /// Report each per-round metric as its median over rounds.
    pub fn close_rounds(&mut self) {
        for (name, v) in std::mem::take(&mut self.rounds) {
            self.values.push((name, median(&v)));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    pub fn fail_ratio(&self) -> f64 {
        self.fails.total() as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.final_ok && self.fails.total() == 0 && self.attempted > 0
    }

    /// The catalogue this run reports: end-to-end untraced, per-layer traced.
    pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Human-readable lines: every metric by name and unit, then the
    /// failure breakdown.
    pub fn text(&self, trace: bool) -> String {
        let mut out = String::new();
        let printed_only: &[(&str, &str)] = if trace { &[] } else { &PRINTED_ONLY };
        for (name, unit) in Self::catalogue(trace).iter().chain(printed_only) {
            match self.get(name) {
                Some(v) => writeln!(out, "  {name:<26} {v:>16.4} {unit}"),
                None => writeln!(out, "  {name:<26} {:>16} {unit}", "n/a"),
            }
            .expect("write to a String");
        }
        let f = &self.fails;
        writeln!(
            out,
            "  {:<26} {:>16.6} ratio  ({} of {} ops: torn {}, backwards {}, misrouted {}, empty wakes {}, timeouts {}; final state {})",
            "fail_ratio",
            self.fail_ratio(),
            f.total(),
            self.attempted,
            f.torn,
            f.backwards,
            f.misrouted,
            f.empty_wakes,
            f.timeouts,
            if self.final_ok { "ok" } else { "WRONG" },
        )
        .expect("write to a String");
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric of the run's catalogue.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = Self::catalogue(trace)
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v))
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.fails.total(),
            metrics.join(", ")
        )
    }

    /// The full record written beside the result: parameters, context,
    /// every measured value and the failure breakdown.
    pub fn record(&self, trace: bool) -> String {
        let pairs = |kv: &[(&str, String)]| -> String {
            kv.iter().map(|(k, v)| format!("\"{k}\": {}", quote(v))).collect::<Vec<_>>().join(", ")
        };
        let values: Vec<String> =
            self.values.iter().map(|(k, v)| format!("\"{k}\": {}", num(*v))).collect();
        let f = &self.fails;
        format!(
            "{{\"trace\": {trace}, \"params\": {{{}}}, \"context\": {{{}}}, \"values\": {{{}}}, \
             \"attempted\": {}, \"fails\": {{\"torn\": {}, \"backwards\": {}, \"misrouted\": {}, \
             \"empty_wakes\": {}, \"timeouts\": {}}}, \"fail_ratio\": {}, \"final_ok\": {}, \"correct\": {}}}\n",
            pairs(&self.params),
            pairs(&self.context),
            values.join(", "),
            self.attempted,
            f.torn,
            f.backwards,
            f.misrouted,
            f.empty_wakes,
            f.timeouts,
            num(self.fail_ratio()),
            self.final_ok,
            self.correct(),
        )
    }
}

/// A JSON number; a value that is not finite becomes `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_reports_every_catalogue_metric() {
        let mut r = Report { attempted: 10, final_ok: true, ..Report::default() };
        r.set("setup_s", 0.5);
        let line = r.result_line(false);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0,"));
    }

    /// The catalogues are exactly the metrics `BENCHMARK.json` declares.
    #[test]
    fn catalogues_match_the_benchmark_declaration() {
        let decl = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = decl.find(&format!("\"{key}\"")).expect("section present");
            let body = &decl[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field present")
                            + f.len()
                            + 5;
                        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn a_failure_makes_the_run_incorrect() {
        let mut r = Report { attempted: 4, final_ok: true, ..Report::default() };
        assert!(r.correct());
        r.fails.timeouts = 1;
        assert!(!r.correct());
        assert_eq!(r.fail_ratio(), 0.25);
    }

    #[test]
    fn quoting_escapes_json_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c \"");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(1.5), "1.5");
    }
}
