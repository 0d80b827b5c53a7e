//! The campaign driver: generate a corpus of family members, analyze each
//! one with per-statement invariant collection, then fuzz the concrete
//! interpreter against the claimed invariants.

use crate::contain::{clock_in, render_abs, render_value, value_in, CellTable, PreparedInvariants};
use crate::shrink::shrink_divergence;
use astree_core::{panic_message, scatter, AlarmKind, AnalysisConfig, AnalysisSession};
use astree_frontend::Frontend;
use astree_gen::{generate_with, BugKind, GenConfig, StructKnobs};
use astree_ir::{
    ExecError, Interp, InterpConfig, Program, RuntimeEvent, SeededInputs, StmtId, StmtKind,
};
use astree_memory::{CellLayout, LayoutConfig};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

/// One member of the fuzzing corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberSpec {
    /// Number of processing channels.
    pub channels: usize,
    /// Generator seed.
    pub gen_seed: u64,
    /// Injected fault, if any.
    pub bug: Option<BugKind>,
    /// Structural knobs.
    pub knobs: StructKnobs,
}

impl MemberSpec {
    /// The member's C source.
    pub fn source(&self) -> String {
        generate_with(
            &GenConfig { channels: self.channels, seed: self.gen_seed, bug: self.bug },
            &self.knobs,
        )
    }

    /// A stable human-readable label (used in reports and shrinking logs).
    pub fn label(&self) -> String {
        let mut s = format!("ch{}-seed{}", self.channels, self.gen_seed);
        if let Some(bug) = self.bug {
            s.push_str(&format!("-bug{bug:?}"));
        }
        let d = StructKnobs::default();
        if self.knobs != d {
            s.push_str(&format!(
                "-h{}t{}p{}{}",
                self.knobs.hist_depth,
                self.knobs.tbl_size,
                self.knobs.phase_mod,
                if self.knobs.cross_couple { "x" } else { "" }
            ));
        }
        s
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Corpus size (members generated and analyzed).
    pub members: usize,
    /// Execution seeds fuzzed per member.
    pub seeds: u64,
    /// Clock ticks per execution (the bounded horizon).
    pub ticks: u64,
    /// Interpreter step budget per execution.
    pub max_steps: u64,
    /// The channel sweep cycles through `1..=channels_max`.
    pub channels_max: usize,
    /// Include injected-fault variants in the corpus.
    pub include_bugs: bool,
    /// Shrink counterexamples before reporting.
    pub shrink: bool,
    /// Base analysis configuration (the oracle forces
    /// `collect_stmt_invariants` on a copy).
    pub analysis: AnalysisConfig,
    /// Fault injection for tests: pretend the invariant for the named cell
    /// is empty, planting an `Escape` divergence the moment the cell is
    /// observed. Exercises detection, shrinking and reporting end to end.
    #[doc(hidden)]
    pub debug_tighten_cell: Option<String>,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            members: 24,
            seeds: 3,
            ticks: 40,
            max_steps: 50_000_000,
            channels_max: 4,
            include_bugs: true,
            shrink: true,
            analysis: AnalysisConfig::default(),
            debug_tighten_cell: None,
        }
    }
}

/// Why an execution diverged from the analyzer's claims.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// A concrete cell value escaped the abstract invariant.
    Escape {
        /// Cell name (layout naming, e.g. `integ0` or `tbl0[3]`).
        cell: String,
        /// Rendered concrete value.
        value: String,
        /// Rendered abstract cell value.
        abs: String,
    },
    /// Execution reached a statement the analyzer claims unreachable.
    Unreachable,
    /// A concrete run-time error (or recoverable event) has no covering
    /// alarm of the same kind at the same statement.
    MissedError {
        /// Alarm-kind slug of the uncovered error.
        kind: &'static str,
    },
}

/// A soundness counterexample: a member, an execution seed, and the earliest
/// statement/tick where the concrete run left the claimed invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The corpus member.
    pub member: MemberSpec,
    /// Execution seed of the witnessing run.
    pub exec_seed: u64,
    /// Statement where the divergence was observed.
    pub stmt: u32,
    /// Clock tick of the observation (0 = before the first `wait`).
    pub tick: u64,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Whether the shrinker minimized this counterexample.
    pub shrunk: bool,
}

/// Outcome of one member's analysis + fuzzing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberOutcome {
    /// The member.
    pub spec: MemberSpec,
    /// Executions run against it.
    pub executions: u64,
    /// Concrete states checked for containment.
    pub states_checked: u64,
    /// Executions ending in `AssumeViolated`/`StepBudget` (neither confirm
    /// nor refute soundness).
    pub inconclusive: u64,
    /// Alarms the analyzer reported, by kind slug.
    pub alarms: BTreeMap<&'static str, u64>,
    /// Divergences found (first per execution).
    pub divergences: Vec<Divergence>,
    /// The loops, as (function, loop id), whose invariant failed the
    /// checking pass's premise test: an unsound invariant, whether or not an
    /// execution reaches what it wrongly excludes.
    pub premise_failed: Vec<(String, u32)>,
}

/// Why a corpus member produced no outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberError {
    /// The member failed to compile or analyze.
    Failed(String),
    /// Its analysis or one of its executions panicked (the panic message).
    Panicked(String),
}

impl fmt::Display for MemberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberError::Failed(m) => write!(f, "failed: {m}"),
            MemberError::Panicked(m) => write!(f, "panicked: {m}"),
        }
    }
}

/// Aggregate campaign result.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// Members analyzed.
    pub members: u64,
    /// Total executions.
    pub executions: u64,
    /// Total concrete states checked for containment.
    pub states_checked: u64,
    /// Total inconclusive executions.
    pub inconclusive: u64,
    /// Alarm census across the whole corpus, by kind slug.
    pub alarm_census: BTreeMap<&'static str, u64>,
    /// All divergences, ranked (shrunk first, then by member size, seed,
    /// tick).
    pub divergences: Vec<Divergence>,
    /// Each member's own result, in corpus order.
    pub runs: Vec<(MemberSpec, Result<MemberOutcome, MemberError>)>,
}

impl Campaign {
    /// Folds one member's outcome into the aggregate.
    pub fn absorb(&mut self, outcome: &MemberOutcome) {
        self.members += 1;
        self.executions += outcome.executions;
        self.states_checked += outcome.states_checked;
        self.inconclusive += outcome.inconclusive;
        for (k, n) in &outcome.alarms {
            *self.alarm_census.entry(k).or_insert(0) += n;
        }
        self.divergences.extend(outcome.divergences.iter().cloned());
    }

    /// Every failed premise test, as (member, (function, loop id)), in
    /// corpus order. Any one fails the campaign, as a divergence does.
    pub fn premise_failures(&self) -> impl Iterator<Item = (&MemberSpec, &(String, u32))> {
        let outcomes = self.runs.iter().filter_map(|(spec, r)| Some((spec, r.as_ref().ok()?)));
        outcomes.flat_map(|(spec, o)| o.premise_failed.iter().map(move |failed| (spec, failed)))
    }

    /// Whether the campaign found no divergence and no failed premise.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty() && self.premise_failures().next().is_none()
    }

    /// Folds a member that failed to compile or analyze, or panicked, into
    /// the aggregate. Such a member is itself a corpus bug; it surfaces as an
    /// escape-kind divergence at the entry so campaigns never silently drop
    /// members.
    pub fn absorb_failure(&mut self, spec: &MemberSpec, error: String) {
        self.divergences.push(Divergence {
            member: spec.clone(),
            exec_seed: 0,
            stmt: 0,
            tick: 0,
            kind: DivergenceKind::Escape {
                cell: "<member>".into(),
                value: error,
                abs: "<analysis failed>".into(),
            },
            shrunk: false,
        });
    }

    /// Ranks the divergences for reporting: minimized counterexamples
    /// first, then smallest member, earliest seed/tick — the order a
    /// developer should look at them. Call once after the last absorb.
    pub fn finish(&mut self) {
        self.divergences.sort_by(|a, b| {
            (!a.shrunk, a.member.channels, a.member.gen_seed, a.exec_seed, a.tick).cmp(&(
                !b.shrunk,
                b.member.channels,
                b.member.gen_seed,
                b.exec_seed,
                b.tick,
            ))
        });
    }
}

/// The deterministic corpus for a configuration: sweeps channel counts
/// `1..=channels_max`, advances the generator seed, cycles through
/// structural-knob variants, and (when `include_bugs` is set) injects each
/// fault kind periodically.
pub fn build_corpus(cfg: &OracleConfig) -> Vec<MemberSpec> {
    let knob_variants = [
        StructKnobs::default(),
        StructKnobs { hist_depth: 8, ..StructKnobs::default() },
        StructKnobs { tbl_size: 32, ..StructKnobs::default() },
        StructKnobs { phase_mod: 5, ..StructKnobs::default() },
        StructKnobs { cross_couple: true, ..StructKnobs::default() },
        StructKnobs { hist_depth: 2, tbl_size: 8, phase_mod: 3, cross_couple: true },
    ];
    let bugs = [BugKind::DivByZero, BugKind::OutOfBounds, BugKind::IntOverflow];
    let mut corpus = Vec::with_capacity(cfg.members);
    for i in 0..cfg.members {
        let channels = 1 + i % cfg.channels_max.max(1);
        let gen_seed = 1 + i as u64;
        // Every 4th member carries an injected fault (the oracle must not
        // flag real, alarmed bugs as divergences).
        let bug = (cfg.include_bugs && i % 4 == 3).then(|| bugs[(i / 4) % bugs.len()]);
        let knobs = knob_variants[i % knob_variants.len()].clone();
        corpus.push(MemberSpec { channels, gen_seed, bug, knobs });
    }
    corpus
}

/// Maps an unrecoverable interpreter error to the alarm kind that must
/// cover it; `None` means the error is an artifact of the harness
/// (budget/contract) and the execution is inconclusive.
pub fn error_alarm_kind(e: &ExecError) -> Option<(StmtId, AlarmKind)> {
    match e {
        ExecError::DivByZero(s) => Some((*s, AlarmKind::DivByZero)),
        ExecError::OutOfBounds(s) => Some((*s, AlarmKind::OutOfBounds)),
        ExecError::ShiftRange(s) => Some((*s, AlarmKind::ShiftRange)),
        ExecError::NanProduced(s) => Some((*s, AlarmKind::InvalidFloatOp)),
        ExecError::InvalidCast(s) => Some((*s, AlarmKind::InvalidCast)),
        ExecError::AssumeViolated(_) | ExecError::StepBudget => None,
    }
}

/// The alarm kind covering a recoverable runtime event.
pub fn event_alarm_kind(e: RuntimeEvent) -> AlarmKind {
    match e {
        RuntimeEvent::IntOverflow => AlarmKind::IntOverflow,
        RuntimeEvent::FloatOverflow => AlarmKind::FloatOverflow,
    }
}

/// Everything needed to fuzz one analyzed member.
pub struct AnalyzedMember {
    /// The compiled program.
    pub program: Program,
    /// Abstract cell layout (matching the analysis configuration).
    pub layout: CellLayout,
    /// Concrete-to-abstract cell mapping.
    pub table: CellTable,
    /// Per-statement rendered invariants.
    pub prepared: PreparedInvariants,
    /// Alarm coverage set `(stmt, kind)`.
    pub alarm_set: HashSet<(u32, AlarmKind)>,
    /// Alarm counts by kind slug.
    pub alarms: BTreeMap<&'static str, u64>,
    /// The loops whose invariant failed its premise test.
    pub premise_failed: Vec<(String, u32)>,
    /// `Wait` statement ids, for tick attribution in the observer.
    pub wait_stmts: HashSet<u32>,
}

/// Compiles and analyzes one member with per-statement invariant collection.
///
/// # Errors
///
/// Returns a message when the source fails to compile or the analysis
/// produced no per-statement invariants.
pub fn analyze_member(spec: &MemberSpec, cfg: &OracleConfig) -> Result<AnalyzedMember, String> {
    let src = spec.source();
    let program =
        Frontend::new().compile_str(&src).map_err(|e| format!("{}: {e:?}", spec.label()))?;
    let mut analysis = cfg.analysis.clone();
    analysis.collect_stmt_invariants = true;
    let layout =
        CellLayout::new(&program, &LayoutConfig { shrink_threshold: analysis.shrink_threshold });
    let table = CellTable::new(&program, &layout, analysis.shrink_threshold);
    let result = AnalysisSession::builder(&program).config(analysis).build().run();
    let stmt_invariants = result
        .stmt_invariants
        .as_ref()
        .ok_or_else(|| format!("{}: no per-statement invariants collected", spec.label()))?;
    let clocked = cfg.analysis.enable_clocked;
    let mut prepared = PreparedInvariants::new(stmt_invariants, &layout, clocked);
    if let Some(name) = &cfg.debug_tighten_cell {
        prepared.debug_empty_cell(&layout, name);
    }
    let mut alarm_set = HashSet::new();
    let mut alarms: BTreeMap<&'static str, u64> = BTreeMap::new();
    for a in &result.alarms {
        alarm_set.insert((a.stmt.0, a.kind));
        *alarms.entry(a.kind.slug()).or_insert(0) += 1;
    }
    let mut wait_stmts = HashSet::new();
    for f in &program.funcs {
        astree_ir::stmt::for_each_stmt(&f.body, &mut |s| {
            if matches!(s.kind, StmtKind::Wait) {
                wait_stmts.insert(s.id.0);
            }
        });
    }
    let premise_failed = result.stats.premise_loops.to_vec();
    Ok(AnalyzedMember {
        program,
        layout,
        table,
        prepared,
        alarm_set,
        alarms,
        premise_failed,
        wait_stmts,
    })
}

/// Result of one fuzzed execution.
#[derive(Debug, Clone)]
pub struct ExecRecord {
    /// Concrete states (cells) checked for containment.
    pub states_checked: u64,
    /// First divergence of the run, if any.
    pub divergence: Option<(u32, u64, DivergenceKind)>,
    /// The run ended in a harness artifact (`AssumeViolated`/`StepBudget`).
    pub inconclusive: bool,
}

/// Runs one seeded execution of an analyzed member, checking every observed
/// concrete state against the claimed invariants.
pub fn run_execution(
    am: &AnalyzedMember,
    exec_seed: u64,
    ticks: u64,
    max_steps: u64,
) -> ExecRecord {
    struct Obs {
        states_checked: u64,
        first: Option<(u32, u64, DivergenceKind)>,
        tick: u64,
    }
    let obs = Rc::new(RefCell::new(Obs { states_checked: 0, first: None, tick: 0 }));
    let sink = Rc::clone(&obs);
    let mut inputs = SeededInputs::new(exec_seed);
    let mut interp =
        Interp::new(&am.program, InterpConfig { max_steps, max_ticks: ticks }, &mut inputs);
    let prepared = &am.prepared;
    let table = &am.table;
    let layout = &am.layout;
    let wait_stmts = &am.wait_stmts;
    interp.set_observer(move |stmt, store| {
        let mut o = sink.borrow_mut();
        let is_wait = wait_stmts.contains(&stmt.0);
        if o.first.is_none() {
            match prepared.at(stmt) {
                None => {
                    let tick = o.tick;
                    o.first = Some((stmt.0, tick, DivergenceKind::Unreachable));
                }
                Some(inv) if !clock_in(inv.clock, o.tick) => {
                    let tick = o.tick;
                    o.first = Some((
                        stmt.0,
                        tick,
                        DivergenceKind::Escape {
                            cell: "clock".to_string(),
                            value: tick.to_string(),
                            abs: format!("[{}, {}]", inv.clock.lo, inv.clock.hi),
                        },
                    ));
                }
                Some(inv) => {
                    for ((var, path), value) in store {
                        let Some(cell) = table.lookup(*var, path) else { continue };
                        o.states_checked += 1;
                        let abs = &inv.cells[cell.0 as usize];
                        if !value_in(abs, value, o.tick) {
                            let tick = o.tick;
                            o.first = Some((
                                stmt.0,
                                tick,
                                DivergenceKind::Escape {
                                    cell: layout.info(cell).name.clone(),
                                    value: render_value(value),
                                    abs: render_abs(abs),
                                },
                            ));
                            break;
                        }
                    }
                }
            }
        }
        if is_wait {
            o.tick += 1;
        }
    });
    let run = interp.run();
    let events: Vec<(StmtId, RuntimeEvent)> = interp.events().to_vec();
    let final_tick = interp.ticks();
    drop(interp);
    let (states_checked, mut first) = {
        let o = obs.borrow();
        (o.states_checked, o.first.clone())
    };
    let mut inconclusive = false;
    match run {
        Ok(()) => {}
        Err(e) => match error_alarm_kind(&e) {
            Some((stmt, kind)) => {
                if first.is_none() && !am.alarm_set.contains(&(stmt.0, kind)) {
                    first = Some((
                        stmt.0,
                        final_tick,
                        DivergenceKind::MissedError { kind: kind.slug() },
                    ));
                }
            }
            None => inconclusive = true,
        },
    }
    if first.is_none() {
        for (stmt, ev) in events {
            let kind = event_alarm_kind(ev);
            if !am.alarm_set.contains(&(stmt.0, kind)) {
                first =
                    Some((stmt.0, final_tick, DivergenceKind::MissedError { kind: kind.slug() }));
                break;
            }
        }
    }
    ExecRecord { states_checked, divergence: first, inconclusive }
}

/// Analyzes and fuzzes one member across all execution seeds.
///
/// # Errors
///
/// Propagates [`analyze_member`] failures.
pub fn run_member(spec: &MemberSpec, cfg: &OracleConfig) -> Result<MemberOutcome, String> {
    let am = analyze_member(spec, cfg)?;
    let mut outcome = MemberOutcome {
        spec: spec.clone(),
        executions: 0,
        states_checked: 0,
        inconclusive: 0,
        alarms: am.alarms.clone(),
        divergences: Vec::new(),
        premise_failed: am.premise_failed.clone(),
    };
    for exec_seed in 0..cfg.seeds {
        let rec = run_execution(&am, exec_seed, cfg.ticks, cfg.max_steps);
        outcome.executions += 1;
        outcome.states_checked += rec.states_checked;
        if rec.inconclusive {
            outcome.inconclusive += 1;
        }
        if let Some((stmt, tick, kind)) = rec.divergence {
            let div =
                Divergence { member: spec.clone(), exec_seed, stmt, tick, kind, shrunk: false };
            let div = if cfg.shrink { shrink_divergence(div, cfg) } else { div };
            outcome.divergences.push(div);
            // One counterexample per member is enough; further seeds would
            // almost surely rediscover the same bug.
            break;
        }
    }
    Ok(outcome)
}

/// Runs the whole campaign: corpus generation, analysis, fuzzing,
/// shrinking, aggregation. The members run on `threads` workers
/// ([`scatter`]), each under `catch_unwind`: a panicking member fails alone,
/// as [`MemberError::Panicked`]. Outcomes fold in corpus order, so the
/// campaign is the same at any thread count.
pub fn run_campaign(cfg: &OracleConfig, threads: usize) -> Campaign {
    let corpus = build_corpus(cfg);
    let results = scatter(threads, &corpus, |_, _, spec| {
        catch_unwind(AssertUnwindSafe(|| run_member(spec, cfg).map_err(MemberError::Failed)))
            .unwrap_or_else(|payload| Err(MemberError::Panicked(panic_message(payload.as_ref()))))
    });
    let mut campaign = Campaign::default();
    for (spec, result) in corpus.into_iter().zip(results) {
        match &result {
            Ok(outcome) => campaign.absorb(outcome),
            Err(MemberError::Failed(e) | MemberError::Panicked(e)) => {
                campaign.absorb_failure(&spec, e.clone())
            }
        }
        campaign.runs.push((spec, result));
    }
    campaign.finish();
    campaign
}
