//! The flat record a run prints as one JSON line.

/// A metric value: exact counts stay integers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// An exact count.
    U(u64),
    /// A measured or derived quantity.
    F(f64),
}

/// Named values in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Record {
    items: Vec<(String, Val)>,
}

impl Record {
    /// Adds a count.
    pub fn u(&mut self, name: &str, v: u64) {
        self.set(name, Val::U(v));
    }

    /// Adds a quantity.
    pub fn f(&mut self, name: &str, v: f64) {
        self.set(name, Val::F(v));
    }

    fn set(&mut self, name: &str, v: Val) {
        match self.items.iter_mut().find(|(k, _)| k == name) {
            Some(slot) => slot.1 = v,
            None => self.items.push((name.to_string(), v)),
        }
    }

    /// The entries, in insertion order.
    #[cfg(test)]
    pub fn entries(&self) -> &[(String, Val)] {
        &self.items
    }

    /// The record as a JSON object. Floats keep every digit; values that
    /// are not finite become `null` so the line always parses.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .items
            .iter()
            .map(|(k, v)| {
                let v = match *v {
                    Val::U(u) => u.to_string(),
                    Val::F(f) if f.is_finite() => format!("{f:?}"),
                    Val::F(_) => "null".to_string(),
                };
                format!("\"{k}\":{v}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One run's output line: which run it was, its exact simulated counts,
/// its host measurements, and the identities that failed.
pub fn line(
    workload: &str,
    seed: u64,
    sim: &Record,
    host: &Record,
    failed_checks: &[&str],
) -> String {
    let checks: Vec<String> = failed_checks.iter().map(|c| format!("\"{c}\"")).collect();
    format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"sim\":{},\"host\":{},\"failed_checks\":[{}]}}",
        sim.to_json(),
        host.to_json(),
        checks.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_keeps_order_and_overwrites_in_place() {
        let mut r = Record::default();
        r.u("b", 1);
        r.f("a", 0.5);
        r.u("b", 2);
        assert_eq!(r.to_json(), "{\"b\":2,\"a\":0.5}");
        r.f("nan", f64::NAN);
        assert!(r.to_json().ends_with("\"nan\":null}"));
    }
}
