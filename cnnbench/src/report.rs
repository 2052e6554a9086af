//! Operation accounting and metric collection for one run.

use crate::stats::Dist;
use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement).
    pub n: usize,
}

#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

impl Run {
    /// Count one operation; it failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
        ok
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit, n });
    }

    /// `<base>.p50` plus `<base>.p<tail>` for each tail. A tail without
    /// enough samples beyond it is a failed operation, not a metric.
    pub fn timing(&mut self, base: &str, unit: &'static str, dist: &Dist, tails: &[f64]) {
        if let Some(m) = dist.median() {
            self.metric(&format!("{base}.p50"), m, unit, dist.len());
        }
        for &p in tails {
            let name = format!("{base}.p{p}");
            match dist.tail(p) {
                Some(v) => self.metric(&name, v, unit, dist.len()),
                None => {
                    self.op(false, || {
                        format!(
                            "{name}: {} samples leave fewer than {} beyond p{p}",
                            dist.len(),
                            crate::stats::MIN_BEYOND_TAIL
                        )
                    });
                }
            }
        }
    }

    /// Median of `dist` as `name`, if it has samples.
    pub fn median(&mut self, name: &str, unit: &'static str, dist: &Dist) {
        if let Some(m) = dist.median() {
            self.metric(name, m, unit, dist.len());
        }
    }

    /// The result line: exactly `names`, in order. A missing metric is a
    /// failed operation.
    pub fn result_json(&mut self, names: &[(&str, &str)]) -> String {
        let mut parts = Vec::new();
        for (name, unit) in names {
            match self.metrics.get(*name) {
                Some(m) if m.value.is_finite() => {
                    parts.push(format!(
                        "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                        m.value
                    ));
                }
                _ => {
                    self.op(false, || format!("metric {name} was not measured"));
                }
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && parts.len() == names.len(),
            self.attempted.max(1),
            self.failed,
            parts.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tails_without_enough_samples_fail_the_run() {
        let mut run = Run::default();
        run.timing(
            "x_ms",
            "ms",
            &Dist::new((0..50).map(f64::from).collect()),
            &[90.0],
        );
        assert!(run.metrics.contains_key("x_ms.p50"));
        assert!(!run.metrics.contains_key("x_ms.p90"));
        assert_eq!(run.failed, 1);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut run = Run::default();
        run.op(true, String::new);
        run.metric("a_ms", 1.5, "ms", 3);
        run.metric("extra", 2.0, "count", 1);
        let line = run.result_json(&[("a_ms", "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
        let line = run.result_json(&[("a_ms", "ms"), ("missing", "s")]);
        assert!(line.starts_with("{\"correct\": false"));
    }
}
