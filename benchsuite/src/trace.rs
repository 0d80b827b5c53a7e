//! Harness-side spans. The traced run wraps every call into a layer's
//! public functions in a span — name, start, end, parent, workload and
//! member — kept in memory and written to `trace.json` when the run ends.
//! Spans inside the program are a later issue.

use astree::obs::Json;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// `layer.operation`.
    pub name: &'static str,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Member the span worked on, when it worked on one.
    pub member: Option<String>,
    /// Start.
    pub start_ns: u64,
    /// End.
    pub end_ns: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder. A disabled tracer runs the closures and records
/// nothing, so the untraced comparison run goes through the same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer recording spans; see [`Tracer::set_workload`].
    pub fn recording() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { enabled: false, ..Tracer::recording() }
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        member: Option<&str>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            workload: self.workload,
            member: member.map(str::to_string),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Switches the workload later spans are attributed to; one tracer
    /// serves a whole suite run, so `trace.json` has one time base.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap (the
/// harness is single-threaded), so that part is the sum of their durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Sum of the durations of the spans without a parent.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum()
}

/// Total self time by span name, in seconds, sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut by_name = std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_name.entry(s.name).or_insert(0u64) += own;
    }
    by_name.into_iter().map(|(n, ns)| (n, ns as f64 / 1e9)).collect()
}

/// Renders the `trace.json` document.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::obj([
        ("schema", Json::str("astree-bench-trace/1")),
        (
            "spans",
            Json::Arr(
                spans
                    .iter()
                    .zip(own)
                    .map(|(s, own)| {
                        Json::obj([
                            ("id", Json::UInt(s.id as u64)),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::UInt(p as u64))),
                            ("name", Json::str(s.name)),
                            ("workload", Json::str(s.workload)),
                            ("member", s.member.as_deref().map_or(Json::Null, Json::str)),
                            ("start_ns", Json::UInt(s.start_ns)),
                            ("end_ns", Json::UInt(s.end_ns)),
                            ("self_ns", Json::UInt(own)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", workload: "w", member: None, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // 0: [0,100) with children 1: [10,40) and 2: [50,90); 3: [60,70) under 2.
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 90),
            span(3, Some(2), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), top_level_ns(&spans));
        assert_eq!(top_level_ns(&spans), 100);
    }

    #[test]
    fn nesting_follows_the_closures_and_disabled_records_nothing() {
        let mut tr = Tracer::recording();
        tr.set_workload("w");
        let v = tr.span("outer", Some("m"), |tr| tr.span("inner", None, |_| 7));
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[0].member.as_deref(), Some("m"));

        let mut off = Tracer::disabled();
        assert_eq!(off.span("outer", None, |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
