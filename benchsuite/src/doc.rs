//! The `astree-bench/1` result document, the one-line result of the driver
//! protocol, and `--compare`.

use crate::e2e::{EndToEnd, Sampled};
use crate::inputs::{bug_slug, Inputs};
use crate::layers::Traced;
use crate::spec::{self, Better, MetricSpec, Scale, Workload, PER_LAYER, SCHEMA};
use crate::stats;
use astree::obs::Json;

/// What one workload produced; either half may be absent.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Which workload.
    pub workload: Workload,
    /// The end-to-end half.
    pub e2e: Option<EndToEnd>,
    /// The traced half.
    pub traced: Option<Traced>,
}

impl WorkloadResult {
    /// The workload's members, for the self-description.
    fn inputs(&self) -> Option<&Inputs> {
        self.e2e.as_ref().map(|e| &e.inputs).or(self.traced.as_ref().map(|t| &t.inputs))
    }

    /// Every failure of either half.
    pub fn failures(&self) -> Vec<String> {
        let e2e = self.e2e.iter().flat_map(|e| e.failures.iter().cloned());
        let traced = self.traced.iter().flat_map(|t| t.failures.iter().cloned());
        e2e.chain(traced).collect()
    }
}

/// The facts of a run a committed result must carry to describe itself.
#[derive(Debug, Clone)]
pub struct RunInfo {
    /// `--seed`.
    pub seed: u64,
    /// `R`: repetitions of each workload body.
    pub reps: usize,
    /// Sizes used.
    pub scale: Scale,
    /// `git rev-parse HEAD` of the checkout, or "unknown" outside git.
    pub commit: String,
}

fn num(v: f64) -> Json {
    Json::Float(v)
}

fn sampled_json(m: &MetricSpec, s: &Sampled) -> Json {
    let spread = stats::spread(&s.samples);
    let status = if spread > m.bound { "unresolved" } else { "ok" };
    Json::obj([
        ("value", num(s.value)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.as_str())),
        ("bound", num(m.bound)),
        ("samples", Json::UInt(s.samples.len() as u64)),
        ("min", num(stats::min(&s.samples))),
        ("median", num(stats::median(&s.samples))),
        ("max", num(stats::max(&s.samples))),
        ("spread", num(spread)),
        ("status", Json::str(status)),
    ])
}

fn members_json(inputs: &Inputs) -> Json {
    Json::Arr(
        inputs
            .members
            .iter()
            .map(|m| {
                Json::obj([
                    ("id", Json::str(&m.id)),
                    ("channels", Json::UInt(m.channels as u64)),
                    ("gen_seed", Json::UInt(m.gen_seed)),
                    ("kloc", num(m.kloc)),
                    ("expect", Json::str(m.expect.bug().map_or("clean", bug_slug))),
                ])
            })
            .collect(),
    )
}

/// Renders the `astree-bench/1` document.
pub fn document(info: &RunInfo, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let mut pairs =
                vec![("name", Json::str(r.workload.name())), ("why", Json::str(r.workload.why()))];
            if let Some(inputs) = r.inputs() {
                pairs.push(("members", members_json(inputs)));
            }
            if let Some(e) = &r.e2e {
                let metrics = e
                    .metrics
                    .iter()
                    .map(|(name, s)| {
                        let m = spec::end_to_end(name).expect("end-to-end names are in the table");
                        (name.to_string(), sampled_json(m, s))
                    })
                    .collect();
                pairs.push(("attempted", Json::UInt(e.attempted as u64)));
                pairs.push(("failed", Json::UInt(e.failed as u64)));
                pairs.push(("end_to_end", Json::Obj(metrics)));
            }
            if let Some(t) = &r.traced {
                let metrics = PER_LAYER
                    .iter()
                    .map(|m| {
                        let v = Json::obj([
                            ("value", num(t.metrics[m.name])),
                            ("unit", Json::str(m.unit)),
                        ]);
                        (m.name.to_string(), v)
                    })
                    .collect();
                pairs.push(("per_layer", Json::Obj(metrics)));
            }
            pairs.push(("failures", Json::Arr(r.failures().iter().map(Json::str).collect())));
            Json::obj(pairs)
        })
        .collect();
    Json::obj([
        ("schema", Json::str(SCHEMA)),
        ("commit", Json::str(&info.commit)),
        ("host_cpus", Json::UInt(spec::host_cpus() as u64)),
        ("n", Json::UInt(spec::parallel_n() as u64)),
        ("seed", Json::UInt(info.seed)),
        ("reps", Json::UInt(info.reps as u64)),
        ("scale", Json::str(info.scale.as_str())),
        ("workloads", Json::Arr(workloads)),
    ])
}

fn metric_line(
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, v, unit)| {
            (name.to_string(), Json::obj([("value", num(v)), ("unit", Json::str(unit))]))
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::UInt(attempted.max(1) as u64)),
        ("failed", Json::UInt(failed as u64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_compact()
}

/// The driver protocol's result line for an end-to-end run: the gated
/// metrics of the document, unchanged.
pub fn e2e_line(e: &EndToEnd) -> String {
    let metrics = spec::gated().map(|m| (m.name, e.value(m.name), m.unit)).collect();
    metric_line(metrics, e.attempted, e.failed)
}

/// The driver protocol's result line for a traced run.
pub fn traced_line(t: &Traced) -> String {
    let metrics = PER_LAYER.iter().map(|m| (m.name, t.metrics[m.name], m.unit)).collect();
    metric_line(metrics, t.attempted, t.failures.len().min(t.attempted))
}

fn as_f64(j: &Json) -> Option<f64> {
    match *j {
        Json::Float(v) => Some(v),
        Json::UInt(v) => Some(v as f64),
        Json::Int(v) => Some(v as f64),
        _ => None,
    }
}

/// One row of `--compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in A (the base of the ratio).
    pub a: f64,
    /// Value in B.
    pub b: f64,
    /// The metric's bound.
    pub bound: f64,
    /// `ok`, `REGRESSION` or `unresolved`.
    pub verdict: &'static str,
}

/// Judges B against A for one metric. `noise` is the larger of the two
/// documents' own spreads of that metric. A change is a regression when it
/// is worse by more than the bound *and* by more than the noise; a metric
/// whose noise exceeds its bound is otherwise unresolved, never ok.
pub fn judge(m: &MetricSpec, a: f64, b: f64, noise: f64) -> &'static str {
    if m.name == spec::FAILED_SHARE {
        return if b > a { "REGRESSION" } else { "ok" };
    }
    let worse_by = match m.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    if worse_by > m.bound && worse_by > noise {
        "REGRESSION"
    } else if noise > m.bound {
        "unresolved"
    } else {
        "ok"
    }
}

/// Compares two result documents: one row per end-to-end metric and
/// workload present in both. Documents of different sizes, seeds, worker
/// counts or repetition counts measured different things and are refused.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for (label, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{label} is not an {SCHEMA} document"));
        }
    }
    for key in ["scale", "seed", "n", "reps"] {
        if a.get(key) != b.get(key) {
            return Err(format!("A and B differ in `{key}`: they are not comparable"));
        }
    }
    let workloads = |doc: &Json| -> Vec<Json> {
        match doc.get("workloads") {
            Some(Json::Arr(w)) => w.clone(),
            _ => Vec::new(),
        }
    };
    let b_workloads = workloads(b);
    let mut rows = Vec::new();
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or_default().to_string();
        let Some(wb) =
            b_workloads.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(&name))
        else {
            continue;
        };
        let (Some(Json::Obj(ma)), Some(mb)) = (wa.get("end_to_end"), wb.get("end_to_end")) else {
            continue;
        };
        for (metric, ea) in ma {
            let (Some(m), Some(eb)) = (spec::end_to_end(metric), mb.get(metric)) else { continue };
            let field = |e: &Json, key: &str| e.get(key).and_then(as_f64);
            let (Some(va), Some(vb)) = (field(ea, "value"), field(eb, "value")) else {
                return Err(format!("{name}.{metric}: missing value"));
            };
            let noise = field(ea, "spread").unwrap_or(0.0).max(field(eb, "spread").unwrap_or(0.0));
            rows.push(Row {
                workload: name.clone(),
                metric: metric.clone(),
                a: va,
                b: vb,
                bound: m.bound,
                verdict: judge(m, va, vb, noise),
            });
        }
    }
    if rows.is_empty() {
        return Err("the documents share no end-to-end metric".into());
    }
    Ok(rows)
}

/// Renders the comparison table; every ratio is B ÷ A.
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<11} {:<13} {:>12} {:>12} {:>9} {:>6}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    for r in rows {
        let ratio = if r.a != 0.0 { format!("{:.3}", r.b / r.a) } else { "-".to_string() };
        out.push_str(&format!(
            "{:<11} {:<13} {:>12.4} {:>12.4} {:>9} {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            ratio,
            r.bound * 100.0,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wall() -> &'static MetricSpec {
        spec::end_to_end("wall_s").unwrap()
    }

    #[test]
    fn judge_separates_regression_noise_and_ok() {
        let m = wall();
        assert_eq!(judge(m, 10.0, 10.5, 0.02), "ok");
        assert_eq!(judge(m, 10.0, 7.0, 0.02), "ok", "faster is never a regression");
        assert_eq!(judge(m, 10.0, 11.5, 0.05), "REGRESSION");
        assert_eq!(judge(m, 10.0, 10.5, 0.40), "unresolved");
        assert_eq!(judge(m, 10.0, 13.0, 0.40), "unresolved", "worse, but inside the noise");
        assert_eq!(judge(m, 10.0, 30.0, 0.40), "REGRESSION", "worse by more than the noise");
        let up = spec::end_to_end("kloc_per_s").unwrap();
        assert_eq!(judge(up, 2.0, 1.2, 0.02), "REGRESSION");
        assert_eq!(judge(up, 2.0, 2.6, 0.02), "ok");
    }

    #[test]
    fn failed_share_may_not_rise() {
        let m = spec::end_to_end(spec::FAILED_SHARE).unwrap();
        assert_eq!(judge(m, 0.0, 0.0, 0.0), "ok");
        assert_eq!(judge(m, 0.0, 0.015, 0.0), "REGRESSION");
        assert_eq!(judge(m, 0.1, 0.0, 0.0), "ok");
    }

    #[test]
    fn compare_refuses_documents_that_measured_different_things() {
        let doc = |reps: u64| {
            let wall = sampled_json(wall(), &Sampled { value: 10.0, samples: vec![10.0; 3] });
            let workload = Json::obj([
                ("name", Json::str("paper_cold")),
                ("end_to_end", Json::Obj(vec![("wall_s".to_string(), wall)])),
            ]);
            Json::obj([
                ("schema", Json::str(SCHEMA)),
                ("scale", Json::str("paper")),
                ("seed", Json::UInt(1)),
                ("n", Json::UInt(2)),
                ("reps", Json::UInt(reps)),
                ("workloads", Json::Arr(vec![workload])),
            ])
        };
        assert_eq!(compare(&doc(3), &doc(3)).unwrap().len(), 1);
        assert!(compare(&doc(3), &doc(1)).unwrap_err().contains("`reps`"));
    }

    #[test]
    fn sampled_metric_with_wide_spread_is_never_ok() {
        let tight = Sampled { value: 10.0, samples: vec![9.6, 10.0, 10.5] };
        let wide = Sampled { value: 10.0, samples: vec![9.0, 10.0, 11.5] };
        let status = |s: &Sampled| {
            sampled_json(wall(), s).get("status").unwrap().as_str().unwrap().to_string()
        };
        assert_eq!(status(&tight), "ok");
        assert_eq!(status(&wide), "unresolved");
    }
}
