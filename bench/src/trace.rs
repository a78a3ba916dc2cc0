//! The harness's own spans: one per call into a layer, kept in memory and
//! written out when the run ends.

use std::time::Instant;

use crate::json::{obj, Json};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    pub name: String,
    pub start_us: u64,
    pub end_us: u64,
}

/// Records nested spans on the driver thread. Disabled (the timed runs),
/// it runs the closure and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_us,
            end_us: start_us,
        });
        self.open.push(id);
        let result = f(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        result
    }

    /// Adds a finished child span of the innermost open span from a
    /// duration the program itself reported (a job's `wall_secs`), ending
    /// now. Program-reported stages may overlap each other.
    pub fn reported(&mut self, name: &str, secs: f64) {
        if !self.enabled {
            return;
        }
        let end_us = self.now_us();
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_owned(),
            start_us: end_us.saturating_sub((secs * 1e6) as u64),
            end_us,
        });
    }

    /// Total duration in seconds of the spans named `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e6)
            .sum()
    }

    /// The spans as JSON: `{id, parent, name, workload, start_us, end_us,
    /// self_us}`, where `self_us` is the span minus the part of it its
    /// measured children cover (program-reported spans are excluded from
    /// the subtraction: they overlap).
    pub fn to_json(&self, workload: &str) -> Json {
        let mut child_us = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.name.starts_with("reported:")) {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("id", Json::from(s.id)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("name", Json::from(s.name.as_str())),
                        ("workload", Json::from(workload)),
                        ("start_us", Json::from(s.start_us)),
                        ("end_us", Json::from(s.end_us)),
                        (
                            "self_us",
                            Json::from((s.end_us - s.start_us).saturating_sub(child_us[s.id])),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.reported("reported:stage", 0.001);
        });
        let json = t.to_json("w");
        let spans = json.as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        let outer = spans[0].get("end_us").unwrap().as_u64().unwrap()
            - spans[0].get("start_us").unwrap().as_u64().unwrap();
        let inner = spans[1].get("end_us").unwrap().as_u64().unwrap()
            - spans[1].get("start_us").unwrap().as_u64().unwrap();
        assert!(inner >= 2000);
        assert_eq!(
            spans[0].get("self_us").unwrap().as_u64(),
            Some(outer - inner)
        );
        assert!(t.total_secs("inner") >= 0.002);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert_eq!(t.to_json("w"), Json::Arr(vec![]));
    }
}
