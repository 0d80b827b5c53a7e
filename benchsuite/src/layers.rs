//! The traced run: each workload once, in-process, through every layer's
//! *public* functions, with a harness span around each call and an
//! `astree_obs::Collector` attached. It yields the per-layer metrics.
//!
//! Each workload body runs twice: first with the tracer disabled and no
//! collector (`obs.untraced_wall_s`), then traced (`obs.traced_wall_s`).
//! The breakdown that must sum to the traced wall comes from the traced
//! run; times that are compared with each other as ratios (speedups,
//! `*_vs_nocache`) all come from runs without a collector. Reference runs
//! and micro-rows follow the body in spans of their own.

use crate::child::self_cpu_s;
use crate::e2e::{work_dir, Env};
use crate::inputs::{dir_bytes, generate_inputs, Inputs, Member};
use crate::spec::{parallel_n, Scale, Workload, EDIT_CYCLE_HITS, PER_LAYER};
use crate::stats::{median, percentile};
use crate::trace::{top_level_ns, Tracer};
use crate::verdict::check;
use astree::core::{AnalysisConfig, AnalysisSession, InvariantStore, Packs};
use astree::domains::Octagon;
use astree::fleet::{self, FleetReport, FleetSession, JobSpec};
use astree::frontend::{lower, parse, preprocess, simplify};
use astree::gen::{generate, GenConfig};
use astree::ir::{func_fingerprints, parametric_fingerprints, program_fingerprint};
use astree::memory::{CellLayout, LayoutConfig};
use astree::obs::{Collector, Metrics};
use astree::pmap::PMap;
use astree::serve::client::AnalyzeRequest;
use astree::serve::{Client, Endpoint, ServeOptions, Server};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values by name; every name of [`PER_LAYER`] is present.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

fn zeroed() -> LayerMetrics {
    PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

/// Sets a metric; the name must be one of [`PER_LAYER`].
fn put(out: &mut LayerMetrics, name: &'static str, v: f64) {
    *out.get_mut(name).unwrap_or_else(|| panic!("{name} is not in PER_LAYER")) = v;
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Layer costs summed over the members of one body run.
#[derive(Debug, Default, Clone)]
struct Acc {
    preprocess_s: f64,
    parse_s: f64,
    lower_s: f64,
    simplify_s: f64,
    kloc: f64,
    tokens: u64,
    stmts: u64,
    fingerprint_s: f64,
    layout_s: f64,
    cells: u64,
    packs_s: f64,
    oct_packs: u64,
    ell_packs: u64,
    dtree_packs: u64,
    iterate_s: f64,
    check_s: f64,
    replay_s: f64,
    loop_iterations: u64,
    loops_rechecked: u64,
    /// `AnalysisSession::run` wall, one entry per analysis, in order.
    session_s: Vec<f64>,
    /// Process CPU around each `AnalysisSession::run`, same order.
    session_cpu_s: Vec<f64>,
    /// Failed verdicts.
    failures: Vec<String>,
}

/// What one in-process analysis said, for the equality checks.
#[derive(Debug, Clone, PartialEq)]
struct Said {
    alarms: Vec<String>,
    invariant: Option<String>,
}

/// How to run one in-process analysis.
#[derive(Clone, Copy)]
struct How<'a> {
    jobs: usize,
    cache: Option<&'a Path>,
    rec: Option<&'a Collector>,
}

/// Runs `f` in a span and adds its wall time to `slot`.
fn timed<T>(
    tr: &mut Tracer,
    name: &'static str,
    member: &str,
    slot: &mut f64,
    f: impl FnOnce() -> T,
) -> T {
    tr.span(name, Some(member), |_| {
        let t0 = Instant::now();
        let out = f();
        *slot += secs(t0);
        out
    })
}

/// One member through frontend, layout, pack discovery and the analysis
/// session, each behind its public entry point, and its verdict checked.
fn analyze_member(
    tr: &mut Tracer,
    acc: &mut Acc,
    workload: Workload,
    m: &Member,
    how: How,
) -> Said {
    let id = m.id.as_str();
    tr.span("member", Some(id), |tr| {
        let tokens = timed(tr, "frontend.preprocess", id, &mut acc.preprocess_s, || {
            preprocess::preprocess(&m.source, &HashMap::new(), &[])
        })
        .expect("generated members preprocess");
        let ast = timed(tr, "frontend.parse", id, &mut acc.parse_s, || {
            parse::parse(&tokens).and_then(|unit| parse::link(vec![unit]))
        })
        .expect("generated members parse");
        let mut program = timed(tr, "frontend.lower", id, &mut acc.lower_s, || lower::lower(&ast))
            .expect("generated members type-check");
        timed(tr, "frontend.simplify", id, &mut acc.simplify_s, || {
            simplify::fold_constants(&mut program);
            simplify::remove_unused_globals(&mut program);
            program.assign_stmt_ids();
        });
        acc.kloc += m.kloc;
        acc.tokens += tokens.len() as u64;
        acc.stmts += program.metrics().statements as u64;
        drop((tokens, ast));

        let config = AnalysisConfig { jobs: how.jobs, ..AnalysisConfig::default() };
        if how.cache.is_some() {
            // What a session with a store computes before it can look anything up.
            timed(tr, "ir.fingerprint", id, &mut acc.fingerprint_s, || {
                black_box(program_fingerprint(&program));
                black_box(func_fingerprints(&program));
                black_box(parametric_fingerprints(&program));
            });
        }
        // Layout and packs are rebuilt inside the session; these standalone
        // calls time the same work at its public boundary.
        let layout = timed(tr, "memory.layout", id, &mut acc.layout_s, || {
            CellLayout::new(&program, &LayoutConfig { shrink_threshold: config.shrink_threshold })
        });
        let packs = timed(tr, "core.packs_discover", id, &mut acc.packs_s, || {
            Packs::discover(&program, &layout, &config)
        });
        acc.cells += layout.num_cells() as u64;
        acc.oct_packs += packs.octagons.len() as u64;
        acc.ell_packs += packs.ellipses.len() as u64;
        acc.dtree_packs += packs.dtrees.len() as u64;
        drop((layout, packs));

        let mut session_s = 0.0;
        let cpu0 = self_cpu_s();
        let result = timed(tr, "core.session_run", id, &mut session_s, || {
            let mut builder = AnalysisSession::builder(&program).config(config);
            if let Some(rec) = how.rec {
                builder = builder.recorder(rec);
            }
            if let Some(dir) = how.cache {
                // A fresh handle per analysis, as each CLI process opens one.
                let store = InvariantStore::open(dir).expect("cache dir is writable");
                builder = builder.cache(Arc::new(store));
            }
            builder.build().run()
        });
        acc.session_cpu_s.push(self_cpu_s() - cpu0);
        acc.session_s.push(session_s);
        if result.cache.full_hit {
            acc.replay_s += result.stats.time_replay.as_secs_f64();
        } else {
            acc.iterate_s += result.stats.time_iterate.as_secs_f64();
            acc.check_s += result.stats.time_check.as_secs_f64();
            acc.loop_iterations += result.stats.loop_iterations;
            acc.loops_rechecked += result.stats.loops_rechecked;
        }
        let alarms: Vec<String> = result.alarms.iter().map(|a| a.to_string()).collect();
        if let Err(e) = check(&m.expect, &alarms) {
            acc.failures.push(format!("{workload} traced ({id}): {e}"));
        }
        Said { alarms, invariant: result.main_invariant.as_ref().map(|s| s.to_string()) }
    })
}

fn worker_cmd(env: &Env) -> Vec<String> {
    vec![env.astree_bin.to_string_lossy().into_owned(), "worker".into(), "--stdio".into()]
}

fn batch_jobs(inputs: &Inputs) -> Vec<JobSpec> {
    inputs.members[1..].iter().map(|m| JobSpec::new(m.id.clone(), m.source.clone())).collect()
}

/// Checks every batch member's verdict against the fleet report.
fn judge_batch(acc: &mut Acc, inputs: &Inputs, report: &FleetReport) {
    for (m, o) in inputs.members[1..].iter().zip(&report.outcomes) {
        let verdict = if o.status == fleet::JobStatus::Done {
            check(&m.expect, &o.alarm_lines)
        } else {
            Err(format!("job status `{}`", o.status))
        };
        if let Err(e) = verdict {
            acc.failures.push(format!("parallel traced batch ({}): {e}", m.id));
        }
    }
}

/// What the body of `parallel` leaves for its reference checks.
struct ParallelRun {
    said: Said,
    report: FleetReport,
    batch_wall_s: f64,
}

/// One run of a workload body. `rec` is the collector of the traced run.
fn run_body(
    tr: &mut Tracer,
    acc: &mut Acc,
    env: &Env,
    inputs: &Inputs,
    dir: &Path,
    rec: Option<&Arc<Collector>>,
) -> Option<ParallelRun> {
    let w = inputs.workload;
    let how = How { jobs: 1, cache: None, rec: rec.map(|r| r.as_ref()) };
    match w {
        Workload::PaperCold | Workload::SmallMix => {
            for m in &inputs.members {
                analyze_member(tr, acc, w, m, how);
            }
            None
        }
        Workload::EditCycle => {
            let cache = dir.join("cache");
            std::fs::remove_dir_all(&cache).ok();
            let how = How { cache: Some(&cache), ..how };
            let [first, edited, larger] = &inputs.members[..] else { panic!("three members") };
            for _ in 0..1 + EDIT_CYCLE_HITS {
                analyze_member(tr, acc, w, first, how);
            }
            analyze_member(tr, acc, w, edited, how);
            analyze_member(tr, acc, w, larger, how);
            None
        }
        Workload::Parallel => {
            let n = parallel_n();
            let said = analyze_member(tr, acc, w, &inputs.members[0], How { jobs: n, ..how });
            let mut batch_wall_s = 0.0;
            let report = timed(tr, "fleet.batch", "batch", &mut batch_wall_s, || {
                let mut builder = FleetSession::builder()
                    .jobs(batch_jobs(inputs))
                    .workers(n)
                    .worker_cmd(worker_cmd(env));
                if let Some(rec) = rec {
                    builder = builder.recorder(Arc::clone(rec) as _);
                }
                builder.run()
            });
            judge_batch(acc, inputs, &report);
            Some(ParallelRun { said, report, batch_wall_s })
        }
    }
}

fn op_nanos(m: &Metrics, domain: &str, ops: &[&str]) -> f64 {
    let Some(by_op) = m.domains.get(domain) else { return 0.0 };
    ops.iter().filter_map(|op| by_op.get(op)).map(|o| o.nanos as f64 / 1e9).sum()
}

fn op_count(m: &Metrics, domain: &str, op: &str) -> f64 {
    m.domains.get(domain).and_then(|by_op| by_op.get(op)).map_or(0.0, |o| o.count as f64)
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The breakdown and counter metrics every workload reports.
fn common_metrics(out: &mut LayerMetrics, acc: &Acc, m: &Metrics) {
    let mut set = |name: &'static str, v: f64| put(out, name, v);
    let frontend_s = acc.preprocess_s + acc.parse_s + acc.lower_s + acc.simplify_s;
    set("frontend.preprocess_s", acc.preprocess_s);
    set("frontend.parse_s", acc.parse_s);
    set("frontend.lower_s", acc.lower_s);
    set("frontend.simplify_s", acc.simplify_s);
    set("frontend.kloc_per_s", share(acc.kloc, frontend_s));
    set("frontend.tokens", acc.tokens as f64);
    set("frontend.stmts", acc.stmts as f64);
    set("ir.fingerprint_s", acc.fingerprint_s);
    set("memory.layout_s", acc.layout_s);
    set("memory.cells", acc.cells as f64);
    set("core.packs_discover_s", acc.packs_s);
    set("core.packs.octagon", acc.oct_packs as f64);
    set("core.packs.ellipsoid", acc.ell_packs as f64);
    set("core.packs.dtree", acc.dtree_packs as f64);
    set("core.iterate_s", acc.iterate_s);
    set("core.check_s", acc.check_s);
    set("core.loop_iterations", acc.loop_iterations as f64);
    set("core.loops_rechecked", acc.loops_rechecked as f64);
    let session_s: f64 = acc.session_s.iter().sum();
    set("core.session_s", session_s);
    let domain_s: f64 =
        m.domains.values().flat_map(|ops| ops.values()).map(|o| o.nanos as f64 / 1e9).sum();
    set("core.unattributed_s", acc.iterate_s + acc.check_s - domain_s);
    set(
        "core.residual_s",
        session_s - acc.layout_s - acc.packs_s - acc.iterate_s - acc.check_s - acc.replay_s,
    );

    let closures = op_count(m, "octagon", "closure");
    let saved = op_count(m, "octagon", "closure_saved");
    set("domains.octagon.closure_s", op_nanos(m, "octagon", &["closure"]));
    set("domains.octagon.closure_count", closures);
    set("domains.octagon.closure_saved_share", share(saved, saved + closures));
    set("domains.octagon.assign_s", op_nanos(m, "octagon", &["assign"]));
    set("domains.octagon.guard_s", op_nanos(m, "octagon", &["guard"]));
    set("domains.ellipsoid_s", op_nanos(m, "ellipsoid", &["delta", "commit"]));
    set("domains.dtree_s", op_nanos(m, "dtree", &["assign"]));
    set("domains.state.join_s", op_nanos(m, "state", &["join"]));
    set("domains.state.widen_s", op_nanos(m, "state", &["widen"]));
    set("domains.state.narrow_s", op_nanos(m, "state", &["narrow"]));

    let p = &m.pmap;
    set("pmap.nodes_allocated", p.nodes_allocated as f64);
    set("pmap.merge_calls", p.merge_calls as f64);
    set("pmap.identity_preserved_share", share(p.identity_preserved as f64, p.merge_calls as f64));
    set("pmap.recycled_share", share(p.nodes_recycled as f64, p.nodes_allocated as f64));
    set("pmap.slab_bytes_allocated", p.slab_bytes_allocated as f64);
    set("pmap.bytes_live", p.bytes_live() as f64);
}

/// Nanoseconds per operation: the fastest of `rounds` rounds of `per_round`
/// operations each (the fastest round is the one the host disturbed least).
fn best_ns(rounds: usize, per_round: usize, mut round: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            round();
            t0.elapsed().as_nanos() as f64 / per_round as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// An octagon over `n` variables with every variable's constraints touched
/// since the last closure, so `close` runs the full cubic algorithm.
fn dirty_octagon(n: usize, slack: f64) -> Octagon {
    let mut o = Octagon::top(n);
    for i in 0..n {
        o.add_upper(i, 10.0 + slack + i as f64);
        o.add_lower(i, -(5.0 + slack + i as f64));
        if i > 0 {
            o.add_diff_le(i, i - 1, 3.0 + slack + i as f64);
            o.add_sum_le(i, i - 1, 20.0 + slack);
        }
    }
    o
}

/// Octagon micro-rows through the public `Octagon` API, at the pack sizes
/// of `paper_cold`'s own histogram (2, 3, 4, 5) plus 8.
fn octagon_rows(tr: &mut Tracer, out: &mut LayerMetrics) {
    const BATCH: usize = 1024;
    tr.span("micro.octagon", None, |_| {
        let close = [
            ("domains.octagon.close_n2_ns", 2),
            ("domains.octagon.close_n3_ns", 3),
            ("domains.octagon.close_n4_ns", 4),
            ("domains.octagon.close_n5_ns", 5),
            ("domains.octagon.close_n8_ns", 8),
        ];
        for (name, n) in close {
            let dirty = dirty_octagon(n, 0.0);
            // Each operation is one clone of the dirty octagon plus its closure.
            let ns = best_ns(15, BATCH, || {
                for _ in 0..BATCH {
                    let mut o = black_box(&dirty).clone();
                    o.close();
                    black_box(&o);
                }
            });
            put(out, name, ns);
        }
        let (mut a, mut b) = (dirty_octagon(3, 0.0), dirty_octagon(3, 2.5));
        a.close();
        b.close();
        let thresholds = AnalysisConfig::default().thresholds;
        let join = best_ns(15, BATCH, || {
            for _ in 0..BATCH {
                black_box(black_box(&a).join_ref(black_box(&b)));
            }
        });
        let widen = best_ns(15, BATCH, || {
            for _ in 0..BATCH {
                black_box(black_box(&a).widen_ref(black_box(&b), &thresholds));
            }
        });
        put(out, "domains.octagon.join_n3_ns", join);
        put(out, "domains.octagon.widen_n3_ns", widen);
    });
}

/// Persistent-map micro-rows on 50 k-key maps.
fn pmap_rows(tr: &mut Tracer, out: &mut LayerMetrics) {
    const KEYS: u32 = 50_000;
    tr.span("micro.pmap", None, |_| {
        let base: PMap<u32, u64> = (0..KEYS).map(|k| (k, k as u64)).collect();
        // Shares all but 16 root-to-leaf paths with `base`.
        let near = (0..16).fold(base.clone(), |m, i| m.insert(i * (KEYS / 16) + 7, u64::MAX));
        // Same keys, built separately: no node in common with `base`.
        let apart: PMap<u32, u64> = (0..KEYS).map(|k| (k, k as u64 + 1)).collect();
        let max = |_: &u32, a: &u64, b: &u64| *a.max(b);
        put(
            out,
            "pmap.union_shared_ns",
            best_ns(15, 64, || {
                for _ in 0..64 {
                    black_box(black_box(&base).union_with(black_box(&near), max));
                }
            }),
        );
        put(
            out,
            "pmap.union_disjoint_ns",
            best_ns(7, 1, || {
                black_box(black_box(&base).union_with(black_box(&apart), max));
            }),
        );
        put(
            out,
            "pmap.insert_ns",
            best_ns(15, 1024, || {
                for k in 0..1024u32 {
                    black_box(black_box(&base).insert(k * 48, 1));
                }
            }),
        );
        put(
            out,
            "pmap.diff2_shared_ns",
            best_ns(15, 64, || {
                for _ in 0..64 {
                    let mut differing = 0u32;
                    black_box(&base).diff2(black_box(&near), |_, _, _| differing += 1);
                    black_box(differing);
                }
            }),
        );
    });
}

/// Frame codec micro-rows: `write_frame`/`read_frame` on a job frame
/// carrying a 46-channel source.
fn frame_rows(tr: &mut Tracer, out: &mut LayerMetrics, seed: u64) {
    tr.span("micro.fleet_frame", None, |_| {
        let source = generate(&GenConfig { channels: 46, seed, bug: None });
        let frame = fleet::wire::spec_to_json(&JobSpec::new("frame", source));
        let mut wire = Vec::new();
        fleet::write_frame(&mut wire, &frame).expect("writing to a Vec");
        let mb = wire.len() as f64 / 1e6;
        let encode_ns = best_ns(15, 8, || {
            for _ in 0..8 {
                let mut buf = Vec::with_capacity(wire.len());
                fleet::write_frame(&mut buf, black_box(&frame)).expect("writing to a Vec");
                black_box(buf);
            }
        });
        let decode_ns = best_ns(15, 8, || {
            for _ in 0..8 {
                let mut cursor = black_box(&wire[..]);
                black_box(fleet::read_frame(&mut cursor).expect("own frame decodes"));
            }
        });
        put(out, "fleet.frame_encode_mb_s", mb / (encode_ns / 1e9));
        put(out, "fleet.frame_decode_mb_s", mb / (decode_ns / 1e9));
    });
}

/// The extras of `edit_cycle`: no-cache references, store codec round
/// trip, one wire sync of the store, and the daemon round trips.
fn edit_cycle_extras(
    tr: &mut Tracer,
    out: &mut LayerMetrics,
    env: &Env,
    inputs: &Inputs,
    dir: &Path,
    untraced: &Acc,
    seed: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let hits = 1..1 + EDIT_CYCLE_HITS;
    let (edit_i, transfer_i) = (1 + EDIT_CYCLE_HITS, 2 + EDIT_CYCLE_HITS);
    put(out, "core.cache.cold_write_s", untraced.session_s[0]);
    put(out, "core.cache.full_hit_s", median(&untraced.session_s[hits]));
    put(out, "core.cache.edit_s", untraced.session_s[edit_i]);
    put(out, "core.cache.transfer_s", untraced.session_s[transfer_i]);

    // The same files with no cache: the base of the two ratios.
    let mut reference = Acc::default();
    let how = How { jobs: 1, cache: None, rec: None };
    tr.span("ref.nocache", None, |tr| {
        analyze_member(tr, &mut reference, Workload::EditCycle, &inputs.members[1], how);
        analyze_member(tr, &mut reference, Workload::EditCycle, &inputs.members[2], how);
    });
    failures.append(&mut reference.failures);
    put(
        out,
        "core.cache.edit_vs_nocache",
        share(untraced.session_s[edit_i], reference.session_s[0]),
    );
    put(
        out,
        "core.cache.transfer_vs_nocache",
        share(untraced.session_s[transfer_i], reference.session_s[1]),
    );

    let cache = dir.join("cache");
    put(out, "core.cache.store_mb", dir_bytes(&cache) as f64 / 1e6);
    let store = Arc::new(InvariantStore::open(&cache).expect("cache dir opens"));
    let names = store.file_names();

    tr.span("micro.cache_codec", None, |_| {
        let t0 = Instant::now();
        let files: Vec<(String, String)> = names
            .iter()
            .filter_map(|n| store.export_file(n).map(|text| (n.clone(), text)))
            .collect();
        let export_s = secs(t0);
        let mb = files.iter().map(|(_, t)| t.len()).sum::<usize>() as f64 / 1e6;
        let copy_dir = dir.join("cache-import");
        let copy = InvariantStore::open(&copy_dir).expect("import dir opens");
        let t0 = Instant::now();
        for (name, text) in &files {
            if !copy.import_file(name, text) {
                failures.push(format!("edit_cycle traced: import of {name} was rejected"));
            }
        }
        let import_s = secs(t0);
        std::fs::remove_dir_all(&copy_dir).ok();
        put(out, "core.cache.export_mb_s", share(mb, export_s));
        put(out, "core.cache.import_mb_s", share(mb, import_s));
        // What a worker with an empty store is offered.
        put(out, "fleet.store_sync_bytes", mb * 1e6);
    });

    // One worker process with an empty local store pulls the coordinator's
    // store files over the wire before its job.
    let first = &inputs.members[0];
    let mut sync_s = 0.0;
    let report = timed(tr, "fleet.store_sync", &first.id, &mut sync_s, || {
        FleetSession::builder()
            .job(JobSpec::new(first.id.clone(), first.source.clone()))
            .workers(1)
            .worker_cmd(worker_cmd(env))
            .cache(Arc::clone(&store))
            .cache_wire(true)
            .run()
    });
    put(out, "fleet.store_sync_s", sync_s);
    // A file over the protocol's per-frame cap is never shipped, so a large
    // store can sync nothing: the count is reported, not required.
    put(out, "fleet.store_sync_files", report.counters.store_gets as f64);
    if report.completed() != 1 {
        failures.push("edit_cycle traced: the wire-sync job did not complete".to_string());
    }

    if let Err(e) = serve_rows(tr, out, dir, seed) {
        failures.push(format!("edit_cycle traced: daemon round trips: {e}"));
    }
    failures
}

/// Daemon round trips on a Unix socket: 200 `status` requests and 110
/// full-hit `analyze` requests of a 12-channel member. With 110 samples
/// p90 has eleven beyond it; no higher percentile has ten.
fn serve_rows(
    tr: &mut Tracer,
    out: &mut LayerMetrics,
    dir: &Path,
    seed: u64,
) -> Result<(), String> {
    const STATUS_TRIPS: usize = 200;
    const ANALYZE_TRIPS: usize = 110;
    tr.span("micro.serve", None, |_| {
        let source = generate(&GenConfig { channels: 12, seed, bug: None });
        let options =
            ServeOptions { jobs: 1, max_inflight: 8, cache_dir: Some(dir.join("serve-cache")) };
        // `sun_path` holds 108 bytes and the checkout may sit deep, so the
        // socket is bound and connected by a relative name from inside `dir`.
        let back = std::env::current_dir().map_err(|e| e.to_string())?;
        std::env::set_current_dir(dir).map_err(|e| e.to_string())?;
        let bound = Server::bind(Endpoint::Unix("serve.sock".into()), options).map(|server| {
            let handle = server.spawn();
            let client = Client::connect(handle.endpoint());
            (handle, client)
        });
        std::env::set_current_dir(back).map_err(|e| e.to_string())?;
        let (handle, client) = bound.map_err(|e| format!("bind: {e}"))?;
        let mut client = client.map_err(|e| format!("connect: {e}"))?;

        let request = AnalyzeRequest { source, events: Some("none"), ..AnalyzeRequest::default() };
        let trips = (|| {
            let cold = client.analyze(&request).map_err(|e| format!("cold analyze: {e}"))?;
            if !cold.alarms.is_empty() {
                return Err(format!("clean member raised {}", cold.alarms[0]));
            }
            let mut analyze_ms = Vec::with_capacity(ANALYZE_TRIPS);
            for _ in 0..ANALYZE_TRIPS {
                let t0 = Instant::now();
                let warm = client.analyze(&request).map_err(|e| format!("warm analyze: {e}"))?;
                analyze_ms.push(secs(t0) * 1e3);
                if !warm.cache_full_hit || !warm.alarms.is_empty() {
                    return Err("a warm request was not a clean full hit".to_string());
                }
            }
            let mut status_ms = Vec::with_capacity(STATUS_TRIPS);
            for _ in 0..STATUS_TRIPS {
                let t0 = Instant::now();
                client.status().map_err(|e| format!("status: {e}"))?;
                status_ms.push(secs(t0) * 1e3);
            }
            Ok((analyze_ms, status_ms))
        })();
        let rejected = handle.counters().rejected_overloaded;
        let down = client.shutdown().map_err(|e| format!("shutdown: {e}"));
        handle.join().map_err(|e| format!("daemon exit: {e}"))?;
        down?;
        let (analyze_ms, status_ms) = trips?;
        put(out, "serve.status_p50_ms", percentile(&status_ms, 50.0));
        put(out, "serve.status_p90_ms", percentile(&status_ms, 90.0));
        put(out, "serve.warm_analyze_p50_ms", percentile(&analyze_ms, 50.0));
        put(out, "serve.warm_analyze_p90_ms", percentile(&analyze_ms, 90.0));
        put(out, "serve.rejected", rejected as f64);
        Ok(())
    })
}

/// The extras of `parallel`: the sequential references both parallel paths
/// must equal byte for byte, the speedups against them, scheduler and
/// fleet counters, and the frame codec rows.
#[allow(clippy::too_many_arguments)]
fn parallel_extras(
    tr: &mut Tracer,
    out: &mut LayerMetrics,
    inputs: &Inputs,
    untraced: &Acc,
    untraced_run: &ParallelRun,
    traced_run: &ParallelRun,
    metrics: &Metrics,
    seed: u64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let n = parallel_n();

    let mut reference = Acc::default();
    let jobs1 = tr.span("ref.jobs1", None, |tr| {
        let how = How { jobs: 1, cache: None, rec: None };
        analyze_member(tr, &mut reference, Workload::Parallel, &inputs.members[0], how)
    });
    failures.append(&mut reference.failures);
    for (label, run) in [("untraced", untraced_run), ("traced", traced_run)] {
        if run.said != jobs1 {
            failures.push(format!("parallel {label}: --jobs {n} result differs from --jobs 1"));
        }
    }
    let (jobs_wall, jobs1_wall) = (untraced.session_s[0], reference.session_s[0]);
    put(out, "sched.jobs_wall_s", jobs_wall);
    put(out, "sched.jobs1_wall_s", jobs1_wall);
    put(out, "sched.jobs_speedup", share(jobs1_wall, jobs_wall));
    put(out, "sched.jobs_cpu_s", untraced.session_cpu_s[0]);
    let s = &metrics.scheduler;
    put(out, "sched.slices", s.slices.len() as f64);
    put(out, "sched.stages", s.stages as f64);
    put(out, "sched.fallbacks", s.fallbacks.values().sum::<u64>() as f64);
    put(out, "sched.merge_s", s.merge_nanos as f64 / 1e9);
    if let Some(pool) = &s.pool {
        put(out, "sched.steals", pool.steals as f64);
        // Busy time was recorded in the traced run; so is the wall it is
        // a share of (the traced run's first session).
        let busy_s = pool.busy_nanos.iter().sum::<u64>() as f64 / 1e9;
        let traced_session_s = out["core.session_s"];
        put(out, "sched.worker_busy_share", share(busy_s, n as f64 * traced_session_s));
    }

    let mut seq_wall = 0.0;
    let seq = timed(tr, "ref.fleet_seq", "batch", &mut seq_wall, || {
        FleetSession::builder().jobs(batch_jobs(inputs)).threads(1).run()
    });
    let want = seq.stable_report();
    for (label, run) in [("untraced", untraced_run), ("traced", traced_run)] {
        if run.report.stable_report() != want {
            failures
                .push(format!("parallel {label}: --workers {n} report differs from in-process"));
        }
    }
    let c = &untraced_run.report.counters;
    put(out, "fleet.batch_wall_s", untraced_run.batch_wall_s);
    put(out, "fleet.seq_wall_s", seq_wall);
    put(out, "fleet.speedup_vs_seq", share(seq_wall, untraced_run.batch_wall_s));
    let busy_s = c.per_worker.iter().map(|w| w.busy_nanos).sum::<u64>() as f64 / 1e9;
    put(out, "fleet.worker_busy_share", share(busy_s, n as f64 * untraced_run.batch_wall_s));
    put(out, "fleet.steals", c.steals as f64);
    put(out, "fleet.resent", c.resent as f64);
    frame_rows(tr, out, seed);
    failures
}

/// The per-layer result of one workload.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The members the run analysed.
    pub inputs: Inputs,
    /// Every per-layer metric by name.
    pub metrics: LayerMetrics,
    /// Wrong verdicts, broken equalities and failed checks.
    pub failures: Vec<String>,
    /// Analyses whose verdict was checked.
    pub attempted: usize,
}

/// Runs `workload` in-process, untraced then traced, and derives its
/// per-layer metrics. Spans go to `tr`.
pub fn run_traced(
    tr: &mut Tracer,
    env: &Env,
    workload: Workload,
    scale: Scale,
    seed: u64,
) -> std::io::Result<Traced> {
    tr.set_workload(workload.name());
    let mut out = zeroed();
    let dir = work_dir(env, workload);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;

    let mut gen_s = 0.0;
    let inputs = timed(tr, "gen.generate", workload.name(), &mut gen_s, || {
        generate_inputs(workload, scale, seed)
    });
    put(&mut out, "gen.generate_s", gen_s);

    let mut untraced = Acc::default();
    let t0 = Instant::now();
    let untraced_run = run_body(&mut Tracer::disabled(), &mut untraced, env, &inputs, &dir, None);
    let untraced_wall = secs(t0);

    let collector = Arc::new(Collector::new());
    let mut acc = Acc::default();
    let first_span = tr.spans().len();
    let t0 = Instant::now();
    let traced_run = run_body(tr, &mut acc, env, &inputs, &dir, Some(&collector));
    let traced_wall = secs(t0);
    let spanned = top_level_ns(&tr.spans()[first_span..]) as f64 / 1e9;
    let metrics = collector.snapshot();

    put(&mut out, "obs.untraced_wall_s", untraced_wall);
    put(&mut out, "obs.traced_wall_s", traced_wall);
    put(&mut out, "obs.tracing_overhead_share", (traced_wall - untraced_wall) / untraced_wall);
    common_metrics(&mut out, &acc, &metrics);

    let mut failures = std::mem::take(&mut untraced.failures);
    failures.append(&mut acc.failures);
    if (spanned - traced_wall).abs() > 0.05 * traced_wall {
        failures.push(format!(
            "{workload}: top-level spans sum to {spanned:.4} s, traced wall is {traced_wall:.4} s"
        ));
    }
    if matches!(workload, Workload::PaperCold | Workload::SmallMix) {
        // Inside the session: what `stats` attributes to iterate and check,
        // plus layout and packs, must account for it.
        let (residual, session) = (out["core.residual_s"], out["core.session_s"]);
        if residual.abs() > 0.05 * session {
            failures.push(format!(
                "{workload}: core.residual_s is {residual:.4} s of a {session:.4} s session"
            ));
        }
        // Outside it: the layer calls the harness timed must account for the
        // traced wall, standalone layout and packs included.
        let layers = ["frontend.preprocess_s", "frontend.parse_s", "frontend.lower_s"]
            .iter()
            .chain(&["frontend.simplify_s", "memory.layout_s", "core.packs_discover_s"])
            .chain(&["core.session_s"])
            .map(|name| out[name])
            .sum::<f64>();
        if (layers - traced_wall).abs() > 0.05 * traced_wall {
            failures.push(format!(
                "{workload}: layer calls sum to {layers:.4} s, traced wall is {traced_wall:.4} s"
            ));
        }
    }

    let c = &metrics.cache;
    put(&mut out, "core.cache.bytes_written", c.bytes_written as f64);
    put(&mut out, "core.cache.bytes_read", c.bytes_read as f64);
    put(&mut out, "core.cache.loops_solved", c.loops_solved as f64);
    // Loops answered from a stored invariant, as a share of all loops the
    // sessions with a store had to settle.
    let from_seed = (c.loops_replayed + c.loops_seeded) as f64;
    put(
        &mut out,
        "core.cache.seed_accept_share",
        share(from_seed, from_seed + c.loops_solved as f64),
    );

    match workload {
        Workload::PaperCold => {
            octagon_rows(tr, &mut out);
            pmap_rows(tr, &mut out);
        }
        Workload::EditCycle => {
            failures.extend(edit_cycle_extras(tr, &mut out, env, &inputs, &dir, &untraced, seed))
        }
        Workload::Parallel => {
            let (u, t) = (untraced_run.expect("parallel body"), traced_run.expect("parallel body"));
            failures
                .extend(parallel_extras(tr, &mut out, &inputs, &untraced, &u, &t, &metrics, seed));
        }
        Workload::SmallMix => {}
    }
    std::fs::remove_dir_all(&dir)?;

    let analyses = untraced.session_s.len() + acc.session_s.len();
    let batch = if workload == Workload::Parallel { 2 * (inputs.members.len() - 1) } else { 0 };
    Ok(Traced { inputs, metrics: out, failures, attempted: analyses + batch })
}
