//! What one run of one workload produces, and how it is printed.

use crate::spec;
use crate::stats::Summary;
use pi2m::obs::json::Json;

#[derive(Default)]
pub struct RunResult {
    /// Operations attempted in the measured section (mesh calls or serve
    /// jobs) and how many of them errored or failed a correctness check.
    pub attempted: u64,
    pub failed: u64,
    /// Outputs or ledger invariants that failed a check, one line each. The
    /// run is correct when there are none: an operation that errors yields
    /// no output, so it counts under `failed` and is noted, no more.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Median, quartiles, extremes and sample count of the metrics that are
    /// read off repeated samples.
    pub summaries: Vec<(String, Summary)>,
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name.to_string(), value)),
        }
    }

    /// Record a median with its quartiles.
    pub fn set_summary(&mut self, name: &str, s: Summary) {
        self.set_from(name, s.median, s);
    }

    /// Record `value`, read off the samples that `s` summarises.
    pub fn set_from(&mut self, name: &str, value: f64, s: Summary) {
        self.set(name, value);
        self.summaries.push((name.to_string(), s));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// An operation ended in an error.
    pub fn op_failed(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.notes.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The human-readable table: every declared metric by name with its
    /// unit, then the operation counts.
    pub fn print_table(&self, workload: &str, traced: bool) {
        println!(
            "workload {workload} ({})",
            if traced { "traced" } else { "untraced" }
        );
        for (name, unit) in declared(traced) {
            let Some(v) = self.get(name) else { continue };
            match self.summaries.iter().find(|(n, _)| n == name) {
                Some((_, s)) => println!(
                    "  {name:<40} {v:>14.6} {unit:<7} min {:.6} q1 {:.6} med {:.6} q3 {:.6} max {:.6} n {}",
                    s.min, s.q1, s.median, s.q3, s.max, s.n
                ),
                None => println!("  {name:<40} {v:>14.6} {unit}"),
            }
        }
        println!(
            "  attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for n in &self.notes {
            println!("  NOTE: {n}");
        }
        for p in &self.problems {
            println!("  PROBLEM: {p}");
        }
    }

    /// The result line of the driver contract. With tracing off it carries
    /// every end-to-end metric; with tracing on, every per-layer metric (0
    /// where the layer does no work on this workload).
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in declared(traced) {
            let v = match self.get(name) {
                Some(v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            fields.push((
                name,
                Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(unit))]),
            ));
        }
        Ok(Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::int(self.attempted)),
            ("failed", Json::int(self.failed)),
            ("metrics", Json::obj(fields)),
        ])
        .dump())
    }
}

fn declared(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunResult {
            attempted: 3,
            ..Default::default()
        };
        assert!(r.result_line(false).is_err(), "missing end-to-end metrics");
        for m in spec::END_TO_END {
            r.set(m.name, 1.5);
        }
        let line = r.result_line(false).unwrap();
        assert!(!line.contains('\n'));
        let j = pi2m::obs::json::parse(&line).unwrap();
        let Json::Obj(top) = &j else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(true));
        let Json::Obj(ms) = j.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(ms.len(), spec::END_TO_END.len());
        assert_eq!(
            j.get("metrics")
                .unwrap()
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
        // traced: every per-layer metric, unmeasured ones as 0
        let j = pi2m::obs::json::parse(&r.result_line(true).unwrap()).unwrap();
        let Json::Obj(ms) = j.get("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(ms.len(), spec::PER_LAYER.len());
        r.op_failed("a call timed out");
        assert!(r.correct() && r.failed == 1);
        r.problem("a mesh failed its audit");
        assert!(!r.correct());
    }
}
