//! In-memory span recorder for traced runs.
//!
//! A span has a name, a start and end (ns since the recorder was made),
//! the span that was open when it began, and the id of the program whose
//! work it covers. Spans stay in memory and are written once, at exit.
//! When the recorder is off, [`Spans::span`] only calls its closure.

use std::collections::BTreeMap;
use std::time::Instant;
use xmt_harness::json::Json;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub program: usize,
}

pub struct Spans {
    on: bool,
    origin: Instant,
    list: Vec<Span>,
    open: Vec<usize>,
    /// Program id stamped on spans begun from now on.
    pub program: usize,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            list: Vec::new(),
            open: Vec::new(),
            program: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.list.len();
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            program: self.program,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.list[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Total duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Self time per span name, in ms: each span's duration minus the
    /// part of it its child spans cover. Children never overlap (one
    /// thread), so the covered part is the sum of their durations.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.list.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns - c) as f64 / 1e6;
        }
        out
    }

    /// The span file: every span plus the self-time summary.
    pub fn to_json(&self, header: Vec<(String, Json)>) -> Json {
        let spans = self
            .list
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::I(s.start_ns as i64)),
                    ("end_ns".into(), Json::I(s.end_ns as i64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::I(p as i64)),
                    ),
                    ("program".into(), Json::I(s.program as i64)),
                ])
            })
            .collect();
        let self_ms = self
            .self_ms()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::F(v)))
            .collect();
        let mut members = header;
        members.push(("self_ms".into(), Json::Obj(self_ms)));
        members.push(("spans".into(), Json::Arr(spans)));
        Json::Obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_parents_link() {
        let mut s = Spans::new(true);
        s.program = 7;
        s.span("outer", |s| {
            s.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let l = s.list();
        assert_eq!(l.len(), 2);
        assert_eq!(l[1].parent, Some(0));
        assert_eq!(l[0].program, 7);
        let selfs = s.self_ms();
        assert!(selfs["inner"] >= 2.0);
        assert!(selfs["outer"] < s.total_ms("outer"));
        assert!((selfs["outer"] + selfs["inner"] - s.total_ms("outer")).abs() < 1e-6);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", |_| 3), 3);
        assert!(s.list().is_empty());
    }
}
