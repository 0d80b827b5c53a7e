//! The incremental invariant cache (ROADMAP: "cache per-function invariants
//! keyed by a body hash").
//!
//! The paper's workflow is iterative: the analyzer is re-run many times over
//! the same codebase while tuning the parametrization (Sect. 7), so most runs
//! re-solve fixpoints that did not change. This module makes warm re-runs
//! nearly free with a content-addressed, disk-backed [`InvariantStore`]
//! consulted by the analysis session on two levels:
//!
//! - **Whole-program replay.** Entries are keyed by the *exact* program
//!   fingerprint ([`astree_ir::program_fingerprint`], which covers statement
//!   ids and source lines) so a matching entry's alarms, census, invariant
//!   and statistics can be replayed verbatim — the warm result is
//!   bit-identical to the cold one by construction, and no abstract
//!   interpretation runs at all.
//! - **Per-function seeds.** When the program changed, loop invariants of
//!   functions whose *stable closure* fingerprint
//!   ([`astree_ir::func_fingerprints`]) still matches are installed as
//!   candidate invariants. The iterator verifies each candidate with a single
//!   body pass and accepts it only if it is an inductive post-fixpoint of the
//!   current loop (`entry ⊔ F(candidate) ⊑ candidate`), which is sound
//!   regardless of where the candidate came from; otherwise it falls back to
//!   the normal widening/narrowing iteration.
//! - **Per-loop seeds.** When even the function changed, invariants of loops
//!   whose local fingerprint ([`astree_ir::loop_fingerprints`] — body
//!   statements plus callee closures) still matches are installed the same
//!   way, so an edited function never pays a fully cold overshoot for its
//!   unchanged loops (counted in `stats.loops_seeded`).
//! - **Portable seeds.** A second, member-independent file per configuration
//!   (`p-<config>.astc`) stores loop invariants keyed by the
//!   *channel-parametric* closure fingerprint
//!   ([`astree_ir::parametric_fingerprints`]) with every cell keyed by its
//!   canonical *name* ([`astree_ir::canon_ident`]) instead of its id. A
//!   4-channel family member's converged seeds then warm a 46-channel
//!   member's solves: the decoded [`StatePatch`] maps names back onto the
//!   target layout and is applied over the loop's entry state (counted in
//!   `stats.seed_hits`). Acceptance is the same post-fixpoint check.
//!
//! Both levels sit behind three guard fingerprints baked into the cache-file
//! identity: the cell-layout fingerprint (decoded states name cells by id),
//! the pack-structure fingerprint (octagon matrices and tree shapes are
//! indexed by pack), and the analysis-relevant configuration fingerprint
//! ([`config_fingerprint`] — see `DESIGN.md` for what is deliberately left
//! out). A mismatch on any of them simply selects a different (usually
//! empty) cache file, so stale data can never be decoded against the wrong
//! shapes.
//!
//! The on-disk format (`astree-cache/1`) is a line-oriented text format with
//! `f64` values stored as IEEE bit patterns, so every value round-trips
//! exactly. A corrupt or truncated file is detected during parsing and
//! treated as an empty cache (counted in [`CacheCounters::corrupt_files`]);
//! the analysis then falls back to a cold run and rewrites the file.

use crate::alarms::{Alarm, AlarmKind};
use crate::analysis::AnalysisStats;
use crate::census::Census;
use crate::config::AnalysisConfig;
use crate::packs::Packs;
use crate::state::{AbsState, DTree, PackEnv};
use astree_domains::{Clocked, DecisionTree, FloatItv, IntItv, Octagon};
use astree_ir::stmt::for_each_stmt;
use astree_ir::{
    canon_ident, expand_ident, Fnv, Function, Loc, LoopId, ScalarType, StmtId, StmtKind,
};
use astree_memory::{CellId, CellLayout, CellVal};
use astree_obs::CacheCounters;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The format identifier on the first line of every cache file.
/// `/2`: a loop inside a framed call stores its invariant at the size of the
/// frame, and a stored state decodes to exactly the keys it was encoded with
/// (`/1` padded every state to the whole layout). Stores written before
/// that parse as foreign and miss.
pub const CACHE_FORMAT: &str = "astree-cache/2";

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// Fingerprint of the analysis-relevant slice of the configuration:
/// everything that can change a fixpoint. The destructuring is exhaustive,
/// so a new field does not compile until it is hashed or ignored here.
pub fn config_fingerprint(config: &AnalysisConfig) -> u64 {
    let AnalysisConfig {
        thresholds,
        widening_delay,
        stabilization_grace,
        max_iterations,
        narrowing_iterations,
        loop_unroll,
        per_loop_unroll,
        max_clock,
        float_perturbation,
        shrink_threshold,
        enable_octagons,
        enable_ellipsoids,
        enable_dtrees,
        enable_clocked,
        enable_linearization,
        partitioned_functions,
        max_partitions,
        octagon_pack_cap,
        dtree_pack_bool_cap,
        octagon_pack_filter,
        octagon_packs_extra,
        // Slicing at any worker count is bit-identical to the sequential
        // analysis (`tests/parallel`).
        jobs: _,
        // Replayed stages are bit-identical too.
        debug_panic_slice: _,
        // Disables pure fast paths; results are bit-identical by contract.
        debug_no_ptr_shortcuts: _,
        // Only adds per-statement captures; alarms and invariants unchanged.
        collect_stmt_invariants: _,
    } = config;
    let mut h = Fnv::new();
    h.str("astree-config");
    let ramp = thresholds.ramp();
    h.usize(ramp.len());
    for &v in ramp {
        h.f64(v);
    }
    h.u32(*widening_delay);
    h.u32(*stabilization_grace);
    h.u32(*max_iterations);
    h.u32(*narrowing_iterations);
    h.u32(*loop_unroll);
    let mut unrolls: Vec<(u32, u32)> = per_loop_unroll.iter().map(|(id, f)| (id.0, *f)).collect();
    unrolls.sort_unstable();
    h.usize(unrolls.len());
    for (id, f) in unrolls {
        h.u32(id);
        h.u32(f);
    }
    h.i64(*max_clock);
    h.f64(*float_perturbation);
    h.usize(*shrink_threshold);
    h.byte(*enable_octagons as u8);
    h.byte(*enable_ellipsoids as u8);
    h.byte(*enable_dtrees as u8);
    h.byte(*enable_clocked as u8);
    h.byte(*enable_linearization as u8);
    let mut parts: Vec<&str> = partitioned_functions.iter().map(|s| s.as_str()).collect();
    parts.sort_unstable();
    h.usize(parts.len());
    for p in parts {
        h.str(p);
    }
    h.usize(*max_partitions);
    h.usize(*octagon_pack_cap);
    h.usize(*dtree_pack_bool_cap);
    match octagon_pack_filter {
        None => h.byte(0),
        Some(keep) => {
            h.byte(1);
            h.usize(keep.len());
            for &i in keep {
                h.usize(i);
            }
        }
    }
    h.usize(octagon_packs_extra.len());
    for pack in octagon_packs_extra {
        h.usize(pack.len());
        for name in pack {
            h.str(name);
        }
    }
    h.finish()
}

/// Fingerprint of the discovered pack *structure*: the member cells of each
/// octagon and decision-tree pack and the `(a, b, x, y, tmp)` shape of each
/// filter, in pack-index order. Stored states index their relational
/// components by pack, so any structural drift must select a different cache
/// file. Statement ids (`start_stmt`/`commit_stmt`) are deliberately *not*
/// hashed: they are renumbered by unrelated edits but do not affect what a
/// stored filter bound means.
pub fn packs_fingerprint(packs: &Packs) -> u64 {
    let mut h = Fnv::new();
    h.str("astree-packs");
    h.usize(packs.octagons.len());
    for p in &packs.octagons {
        h.usize(p.cells.len());
        for c in &p.cells {
            h.u32(c.0);
        }
    }
    h.usize(packs.dtrees.len());
    for p in &packs.dtrees {
        h.usize(p.bools.len());
        for c in &p.bools {
            h.u32(c.0);
        }
        h.usize(p.nums.len());
        for c in &p.nums {
            h.u32(c.0);
        }
    }
    h.usize(packs.ellipses.len());
    for e in &packs.ellipses {
        h.f64(e.a);
        h.f64(e.b);
        h.u32(e.x.0);
        h.u32(e.y.0);
        h.u32(e.tmp.0);
    }
    h.finish()
}

/// The guard fingerprints naming one cache file: states can only be decoded
/// against the exact cell layout, pack structure and configuration they were
/// encoded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// [`astree_ir::globals_fingerprint`] of the program's variable table
    /// (determines the cell layout).
    pub layout_fp: u64,
    /// [`packs_fingerprint`] of the discovered packs.
    pub packs_fp: u64,
    /// [`config_fingerprint`] of the analysis configuration.
    pub config_fp: u64,
}

impl StoreKey {
    /// The on-disk file name for this key (also its wire name for remote
    /// store sync).
    pub fn file_name(&self) -> String {
        format!("k-{:016x}-{:016x}-{:016x}.astc", self.layout_fp, self.packs_fp, self.config_fp)
    }
}

/// The on-disk name of the member-independent portable-seed file for one
/// analysis configuration.
pub fn portable_file_name(config_fp: u64) -> String {
    format!("p-{config_fp:016x}.astc")
}

/// `true` when `name` is a well-formed store file name (`k-<3 × hex64>.astc`
/// or `p-<hex64>.astc`). Remote imports validate names with this before
/// touching the filesystem, so a peer can never escape the store directory.
pub fn valid_store_file_name(name: &str) -> bool {
    let (body, groups) = if let Some(b) = name.strip_prefix("k-") {
        (b, 3)
    } else if let Some(b) = name.strip_prefix("p-") {
        (b, 1)
    } else {
        return false;
    };
    let Some(body) = body.strip_suffix(".astc") else {
        return false;
    };
    let parts: Vec<&str> = body.split('-').collect();
    parts.len() == groups
        && parts.iter().all(|g| {
            g.len() == 16 && g.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
        })
}

/// The loop ids of a function body in pre-order. Seeds are stored under the
/// loop's *ordinal* in this sequence (loop ids are renumbered by unrelated
/// edits; the ordinal within an unchanged function is stable).
pub fn loops_in_preorder(func: &Function) -> Vec<LoopId> {
    let mut out = Vec::new();
    for_each_stmt(&func.body, &mut |s| {
        if let StmtKind::While(id, _, _) = &s.kind {
            out.push(*id);
        }
    });
    out
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

/// Where a loop's candidate invariant came from. Statistics only — the
/// acceptance check is identical for every origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedOrigin {
    /// Same member, whole-function stable-closure fingerprint match.
    Func,
    /// Same member, per-loop fingerprint match after the function changed.
    Loop,
    /// Another family member, via the channel-parametric portable store.
    Portable,
}

/// A candidate loop invariant installed before iteration starts.
#[derive(Debug, Clone)]
pub enum Seed {
    /// A fully decoded same-member state, used as the candidate verbatim.
    Full(AbsState, SeedOrigin),
    /// A cross-member patch, applied over the loop's entry state.
    Portable(Arc<StatePatch>),
}

/// A name-resolved cross-member seed: the components of a donor member's
/// loop invariant that mapped onto the current member's layout and packs.
/// Applied as a patch over the loop's entry state, so unmapped cells (the
/// target's extra channels, unresolved names, temporaries) keep their entry
/// values; the post-fixpoint acceptance check decides whether the result is
/// usable.
#[derive(Debug)]
pub struct StatePatch {
    clock: IntItv,
    cells: Vec<(CellId, CellVal)>,
    octs: Vec<(usize, Octagon)>,
    dtrees: Vec<(usize, DTree)>,
    ells: Vec<(usize, f64, f64)>,
}

impl StatePatch {
    /// `base` with every mapped component it holds replaced by the donor's
    /// value. Components `base` does not hold — it is the state of a frame,
    /// the donor's loop ran in a larger one — are dropped: the result has
    /// `base`'s shape.
    pub fn apply(&self, base: &AbsState) -> AbsState {
        if base.is_bottom() {
            return base.clone();
        }
        let mut st = base.clone();
        let mut env = st.env.clone();
        for (c, v) in self.cells.iter().filter(|(c, _)| base.env.tracks(*c)) {
            env.set(*c, *v);
        }
        if env.is_bottom() {
            return base.clone(); // a mapped donor value was unrepresentable
        }
        env.clock = self.clock;
        st.env = env;
        for (pi, o) in self.octs.iter().filter(|(pi, _)| base.has_oct(*pi)) {
            st.set_oct(*pi, o.clone());
        }
        for (pi, t) in self.dtrees.iter().filter(|(pi, _)| base.has_dtree(*pi)) {
            st.set_dtree(*pi, t.clone());
        }
        for (pi, k, pending) in self.ells.iter().filter(|(pi, _, _)| base.has_ell(*pi)) {
            st.set_ell(*pi, *k);
            st.set_pending(*pi, *pending);
        }
        st
    }
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// A replayable whole-program entry decoded from the store.
#[derive(Debug)]
pub struct FullHit {
    /// The stored alarms, verbatim.
    pub alarms: Vec<Alarm>,
    /// The stored main-loop census, verbatim.
    pub census: Option<Census>,
    /// The stored main-loop invariant.
    pub invariant: Option<AbsState>,
    /// The stored *cold-run* statistics (phase times included, so replayed
    /// results keep meaningful `time_iterate`/`time_check`).
    pub stats: AnalysisStats,
}

#[derive(Debug, Clone)]
struct RawEntry {
    alarms: Vec<Alarm>,
    census: Option<Census>,
    stats_line: String,
    useful: Vec<usize>,
    invariant: Option<Vec<String>>,
}

#[derive(Debug, Default, Clone)]
struct CacheFile {
    entries: HashMap<u64, RawEntry>,
    funcs: HashMap<u64, Vec<(u32, Vec<String>)>>,
    loops: HashMap<u64, Vec<String>>,
}

/// The member-independent portable-seed image: per parametric closure
/// fingerprint, the name-keyed loop states of one donor function.
#[derive(Debug, Default, Clone)]
struct PortableFile {
    funcs: HashMap<u64, Vec<(u32, Vec<String>)>>,
}

/// The disk-backed invariant store. Cheap to share (`Arc`) across batch
/// jobs: all file state sits behind one mutex, and cumulative I/O counters
/// are kept for reporting.
#[derive(Debug)]
pub struct InvariantStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    files: Mutex<HashMap<String, CacheFile>>,
    portables: Mutex<HashMap<String, PortableFile>>,
    counters: Mutex<CacheCounters>,
}

impl InvariantStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<InvariantStore> {
        Self::open_inner(dir.into(), None)
    }

    /// Opens a store whose on-disk footprint is bounded: after every write,
    /// cache files are evicted oldest-mtime-first until the directory fits
    /// in `max_bytes` (the just-written file is never evicted). Evicted
    /// entries simply become cold misses on the next run.
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: u64,
    ) -> std::io::Result<InvariantStore> {
        Self::open_inner(dir.into(), Some(max_bytes))
    }

    fn open_inner(dir: PathBuf, max_bytes: Option<u64>) -> std::io::Result<InvariantStore> {
        std::fs::create_dir_all(&dir)?;
        Ok(InvariantStore {
            dir,
            max_bytes,
            files: Mutex::new(HashMap::new()),
            portables: Mutex::new(HashMap::new()),
            counters: Mutex::new(CacheCounters::default()),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Cumulative I/O and corruption counters since the store was opened.
    pub fn counters(&self) -> CacheCounters {
        *self.counters.lock().expect("store poisoned")
    }

    /// Folds one session's run-level counters (hits, misses, seed usage,
    /// replay/saved time) into the store totals, so a store shared across a
    /// batch fleet reports fleet-wide numbers. The I/O counters
    /// (`bytes_read`, `bytes_written`, `corrupt_files`) are tracked by the
    /// store itself and must be zero in `c` to avoid double counting.
    pub fn absorb_run(&self, c: &CacheCounters) {
        self.counters.lock().expect("store poisoned").add(c);
    }

    /// `true` when the cache file for `key` holds any per-function seeds
    /// (used to distinguish *invalidated* functions from a cold store).
    pub fn has_seeds(&self, key: &StoreKey) -> bool {
        let mut files = self.files.lock().expect("store poisoned");
        let file = self.load(&mut files, key);
        !file.funcs.is_empty()
    }

    /// Looks up a whole-program entry and decodes it for replay.
    pub fn lookup_full(
        &self,
        key: &StoreKey,
        program_fp: u64,
        layout: &CellLayout,
        packs: &Packs,
    ) -> Option<FullHit> {
        let mut files = self.files.lock().expect("store poisoned");
        let file = self.load(&mut files, key);
        let raw = file.entries.get(&program_fp)?.clone();
        drop(files);
        let stats = decode_stats(&raw.stats_line, &raw.useful)?;
        let invariant = match &raw.invariant {
            None => None,
            Some(lines) => {
                Some(decode_state(&mut lines.iter().map(String::as_str), layout, packs)?)
            }
        };
        Some(FullHit { alarms: raw.alarms, census: raw.census, invariant, stats })
    }

    /// Looks up the stored loop invariants of one function (by stable
    /// closure fingerprint) and decodes them as `(loop ordinal, state)`
    /// seed candidates.
    pub fn lookup_seeds(
        &self,
        key: &StoreKey,
        closure_fp: u64,
        layout: &CellLayout,
        packs: &Packs,
    ) -> Option<Vec<(u32, AbsState)>> {
        let mut files = self.files.lock().expect("store poisoned");
        let file = self.load(&mut files, key);
        let raw = file.funcs.get(&closure_fp)?.clone();
        drop(files);
        let mut out = Vec::with_capacity(raw.len());
        for (ordinal, lines) in &raw {
            let st = decode_state(&mut lines.iter().map(String::as_str), layout, packs)?;
            out.push((*ordinal, st));
        }
        Some(out)
    }

    /// Looks up the stored invariant of one loop by its local fingerprint —
    /// the fallback when the enclosing function's closure fingerprint missed
    /// but this loop (and its callees) did not change.
    pub fn lookup_loop_seed(
        &self,
        key: &StoreKey,
        loop_fp: u64,
        layout: &CellLayout,
        packs: &Packs,
    ) -> Option<AbsState> {
        let mut files = self.files.lock().expect("store poisoned");
        let file = self.load(&mut files, key);
        let raw = file.loops.get(&loop_fp)?.clone();
        drop(files);
        decode_state(&mut raw.iter().map(String::as_str), layout, packs)
    }

    /// Looks up the portable (cross-member) seeds of one function by its
    /// channel-parametric closure fingerprint, resolving stored canonical
    /// cell names against the *current* member's layout and packs with the
    /// target's channel `tag`. Returns `(loop ordinal, patch)` candidates;
    /// `None` when nothing usable mapped.
    pub fn lookup_portable_seeds(
        &self,
        config_fp: u64,
        parametric_fp: u64,
        tag: &str,
        layout: &CellLayout,
        packs: &Packs,
    ) -> Option<Vec<(u32, StatePatch)>> {
        let mut portables = self.portables.lock().expect("store poisoned");
        let file = self.load_portable(&mut portables, config_fp);
        let raw = file.funcs.get(&parametric_fp)?.clone();
        drop(portables);
        let mut out = Vec::with_capacity(raw.len());
        for (ordinal, lines) in &raw {
            if let Some(p) = decode_patch(&mut lines.iter().map(String::as_str), layout, packs, tag)
            {
                out.push((*ordinal, p));
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(out)
        }
    }

    /// Records the outcome of a (cold or seeded) run: the whole-program
    /// entry for `program_fp`, the per-function seed sections and the
    /// per-loop seed sections, then persists the cache file.
    #[allow(clippy::too_many_arguments)]
    pub fn update(
        &self,
        key: &StoreKey,
        program_fp: u64,
        alarms: &[Alarm],
        census: Option<Census>,
        invariant: Option<&AbsState>,
        stats: &AnalysisStats,
        seeds: &[(u64, Vec<(u32, AbsState)>)],
        loop_seeds: &[(u64, AbsState)],
    ) {
        let entry = RawEntry {
            alarms: alarms.to_vec(),
            census,
            stats_line: encode_stats(stats),
            useful: stats.useful_octagon_packs.clone(),
            invariant: invariant.map(|s| {
                let mut lines = Vec::new();
                encode_state(&mut lines, s);
                lines
            }),
        };
        let mut files = self.files.lock().expect("store poisoned");
        let file = self.load(&mut files, key);
        file.entries.insert(program_fp, entry);
        for (closure_fp, loops) in seeds {
            let mut enc: Vec<(u32, Vec<String>)> = Vec::with_capacity(loops.len());
            for (ordinal, st) in loops {
                let mut lines = Vec::new();
                encode_state(&mut lines, st);
                enc.push((*ordinal, lines));
            }
            enc.sort_by_key(|(o, _)| *o);
            file.funcs.insert(*closure_fp, enc);
        }
        for (loop_fp, st) in loop_seeds {
            let mut lines = Vec::new();
            encode_state(&mut lines, st);
            file.loops.insert(*loop_fp, lines);
        }
        let text = serialize_file(key, file);
        drop(files);
        self.write_file(&key.file_name(), &text);
    }

    /// Records the portable seed sections of a run: per donor root function,
    /// its parametric closure fingerprint, channel tag and converged loop
    /// states, encoded by canonical cell name so any family member sharing
    /// this configuration can decode them.
    pub fn update_portable(
        &self,
        config_fp: u64,
        layout: &CellLayout,
        packs: &Packs,
        seeds: &[(u64, String, Vec<(u32, AbsState)>)],
    ) {
        if seeds.is_empty() {
            return;
        }
        let mut portables = self.portables.lock().expect("store poisoned");
        let file = self.load_portable(&mut portables, config_fp);
        for (parametric_fp, tag, loops) in seeds {
            let mut enc: Vec<(u32, Vec<String>)> = Vec::with_capacity(loops.len());
            for (ordinal, st) in loops {
                let mut lines = Vec::new();
                encode_state_named(&mut lines, st, layout, packs, tag);
                enc.push((*ordinal, lines));
            }
            enc.sort_by_key(|(o, _)| *o);
            file.funcs.insert(*parametric_fp, enc);
        }
        let text = serialize_portable_file(config_fp, file);
        drop(portables);
        self.write_file(&portable_file_name(config_fp), &text);
    }

    /// Lists the store's cache files by name (sorted, valid names only) —
    /// the inventory a fleet store sync negotiates over.
    pub fn file_names(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| valid_store_file_name(n))
            .collect();
        names.sort();
        names
    }

    /// Reads one raw cache file for shipping over the fleet wire. `None`
    /// for invalid names or files that do not exist.
    pub fn export_file(&self, name: &str) -> Option<String> {
        if !valid_store_file_name(name) {
            return None;
        }
        std::fs::read_to_string(self.dir.join(name)).ok()
    }

    /// Merges one raw cache file received over the fleet wire into the
    /// store (entries, function seeds and loop seeds are unioned; incoming
    /// sections win on conflict). Returns `false` when the name or content
    /// is invalid, or when the merge changed nothing (content dedup).
    pub fn import_file(&self, name: &str, text: &str) -> bool {
        if !valid_store_file_name(name) {
            return false;
        }
        let mut groups = name[2..name.len() - 5].split('-');
        let mut fp = || u64::from_str_radix(groups.next().unwrap_or(""), 16).unwrap_or(0);
        if name.starts_with("k-") {
            let key = StoreKey { layout_fp: fp(), packs_fp: fp(), config_fp: fp() };
            let Some(incoming) = parse_file(&key, text) else {
                return false;
            };
            let mut files = self.files.lock().expect("store poisoned");
            let cur = self.load(&mut files, &key);
            let before = serialize_file(&key, cur);
            cur.entries.extend(incoming.entries);
            cur.funcs.extend(incoming.funcs);
            cur.loops.extend(incoming.loops);
            let after = serialize_file(&key, cur);
            drop(files);
            if after == before {
                return false;
            }
            self.write_file(name, &after);
            true
        } else {
            let config_fp = fp();
            let Some(incoming) = parse_portable_file(config_fp, text) else {
                return false;
            };
            let mut portables = self.portables.lock().expect("store poisoned");
            let cur = self.load_portable(&mut portables, config_fp);
            let before = serialize_portable_file(config_fp, cur);
            cur.funcs.extend(incoming.funcs);
            let after = serialize_portable_file(config_fp, cur);
            drop(portables);
            if after == before {
                return false;
            }
            self.write_file(name, &after);
            true
        }
    }

    /// Atomically writes one cache file, counts the bytes and enforces the
    /// store size bound (never evicting the file just written).
    fn write_file(&self, name: &str, text: &str) {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let written = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_ok() {
            self.counters.lock().expect("store poisoned").bytes_written += text.len() as u64;
            self.enforce_bound(name);
        }
    }

    /// Oldest-mtime-first eviction until the directory fits `max_bytes`.
    fn enforce_bound(&self, keep: &str) {
        let Some(max) = self.max_bytes else {
            return;
        };
        let Ok(rd) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let mut entries: Vec<(std::time::SystemTime, u64, String)> = Vec::new();
        for e in rd.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            if !name.ends_with(".astc") {
                continue;
            }
            let Ok(md) = e.metadata() else {
                continue;
            };
            let mtime = md.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            entries.push((mtime, md.len(), name));
        }
        let mut total: u64 = entries.iter().map(|(_, len, _)| *len).sum();
        entries.sort();
        for (_, len, name) in entries {
            if total <= max {
                break;
            }
            if name == keep {
                continue;
            }
            if std::fs::remove_file(self.dir.join(&name)).is_ok() {
                total -= len;
                self.counters.lock().expect("store poisoned").evictions += 1;
                // Drop any cached image so the eviction is visible in-process.
                self.files.lock().expect("store poisoned").remove(&name);
                self.portables.lock().expect("store poisoned").remove(&name);
            }
        }
    }

    /// Loads (once) and returns the in-memory image of the cache file for
    /// `key`. Unreadable or corrupt files yield an empty image and bump the
    /// corruption counter, so the caller sees a clean miss.
    fn load<'m>(
        &self,
        files: &'m mut HashMap<String, CacheFile>,
        key: &StoreKey,
    ) -> &'m mut CacheFile {
        let name = key.file_name();
        if !files.contains_key(&name) {
            let path = self.dir.join(&name);
            let file = match std::fs::read_to_string(&path) {
                Ok(text) => {
                    let mut c = self.counters.lock().expect("store poisoned");
                    c.bytes_read += text.len() as u64;
                    match parse_file(key, &text) {
                        Some(f) => f,
                        None => {
                            c.corrupt_files += 1;
                            CacheFile::default()
                        }
                    }
                }
                Err(_) => CacheFile::default(),
            };
            files.insert(name.clone(), file);
        }
        files.get_mut(&name).expect("just inserted")
    }

    /// [`InvariantStore::load`], for the portable-seed file of `config_fp`.
    fn load_portable<'m>(
        &self,
        portables: &'m mut HashMap<String, PortableFile>,
        config_fp: u64,
    ) -> &'m mut PortableFile {
        let name = portable_file_name(config_fp);
        if !portables.contains_key(&name) {
            let path = self.dir.join(&name);
            let file = match std::fs::read_to_string(&path) {
                Ok(text) => {
                    let mut c = self.counters.lock().expect("store poisoned");
                    c.bytes_read += text.len() as u64;
                    match parse_portable_file(config_fp, &text) {
                        Some(f) => f,
                        None => {
                            c.corrupt_files += 1;
                            PortableFile::default()
                        }
                    }
                }
                Err(_) => PortableFile::default(),
            };
            portables.insert(name.clone(), file);
        }
        portables.get_mut(&name).expect("just inserted")
    }
}

// ---------------------------------------------------------------------------
// Text codec
// ---------------------------------------------------------------------------

fn esc(s: &str) -> String {
    if s.is_empty() {
        return "\\e".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ' ' => out.push_str("\\_"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
    out
}

fn unesc(s: &str) -> Option<String> {
    if s == "\\e" {
        return Some(String::new());
    }
    let mut out = String::with_capacity(s.len());
    let mut it = s.chars();
    while let Some(c) = it.next() {
        if c == '\\' {
            match it.next()? {
                '\\' => out.push('\\'),
                '_' => out.push(' '),
                'n' => out.push('\n'),
                't' => out.push('\t'),
                _ => return None,
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

/// Space-separated token reader with typed accessors; every accessor returns
/// `None` on malformed input so decoding bails out cleanly.
struct Toks<'a, I: Iterator<Item = &'a str>> {
    it: I,
}

impl<'a, I: Iterator<Item = &'a str>> Toks<'a, I> {
    fn tok(&mut self) -> Option<&'a str> {
        self.it.next()
    }

    fn u32(&mut self) -> Option<u32> {
        self.tok()?.parse().ok()
    }

    fn u64(&mut self) -> Option<u64> {
        self.tok()?.parse().ok()
    }

    fn usize(&mut self) -> Option<usize> {
        self.tok()?.parse().ok()
    }

    fn i64(&mut self) -> Option<i64> {
        self.tok()?.parse().ok()
    }

    /// An `f64` stored as a 16-digit hex bit pattern (exact round-trip).
    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(u64::from_str_radix(self.tok()?, 16).ok()?))
    }

    fn hex64(&mut self) -> Option<u64> {
        u64::from_str_radix(self.tok()?, 16).ok()
    }

    fn bool(&mut self) -> Option<bool> {
        match self.tok()? {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }
    }
}

fn toks(line: &str) -> Toks<'_, std::str::SplitAsciiWhitespace<'_>> {
    Toks { it: line.split_ascii_whitespace() }
}

fn kind_code(k: AlarmKind) -> u8 {
    match k {
        AlarmKind::DivByZero => 0,
        AlarmKind::IntOverflow => 1,
        AlarmKind::FloatOverflow => 2,
        AlarmKind::InvalidFloatOp => 3,
        AlarmKind::ShiftRange => 4,
        AlarmKind::OutOfBounds => 5,
        AlarmKind::InvalidCast => 6,
    }
}

fn kind_from_code(c: u8) -> Option<AlarmKind> {
    Some(match c {
        0 => AlarmKind::DivByZero,
        1 => AlarmKind::IntOverflow,
        2 => AlarmKind::FloatOverflow,
        3 => AlarmKind::InvalidFloatOp,
        4 => AlarmKind::ShiftRange,
        5 => AlarmKind::OutOfBounds,
        6 => AlarmKind::InvalidCast,
        _ => return None,
    })
}

fn encode_stats(s: &AnalysisStats) -> String {
    format!(
        "stats {} {} {} {} {} {} {} {} {} {} {} {}",
        s.time_iterate.as_nanos(),
        s.time_check.as_nanos(),
        s.cells,
        s.octagon_packs,
        s.dtree_packs,
        s.ellipse_packs,
        s.loop_iterations,
        s.stmts_interpreted,
        s.peak_partitions,
        s.invariant_cells,
        s.parallel_stages,
        s.parallel_slices,
    )
}

fn decode_stats(line: &str, useful: &[usize]) -> Option<AnalysisStats> {
    let mut t = toks(line);
    if t.tok()? != "stats" {
        return None;
    }
    Some(AnalysisStats {
        time_iterate: Duration::from_nanos(t.u64()?),
        time_check: Duration::from_nanos(t.u64()?),
        time_replay: Duration::ZERO,
        cells: t.usize()?,
        octagon_packs: t.usize()?,
        useful_octagon_packs: useful.to_vec(),
        dtree_packs: t.usize()?,
        ellipse_packs: t.usize()?,
        loop_iterations: t.u64()?,
        stmts_interpreted: t.u64()?,
        peak_partitions: t.usize()?,
        invariant_cells: t.usize()?,
        parallel_stages: t.u64()?,
        parallel_slices: t.u64()?,
        loops_solved: 0,
        loops_replayed: 0,
        loops_seeded: 0,
        seed_hits: 0,
        loops_rechecked: 0,
    })
}

fn encode_cell_val(out: &mut String, v: &CellVal) {
    match v {
        CellVal::Int(c) => {
            let _ = write!(
                out,
                " i {} {} {} {} {} {}",
                c.val.lo, c.val.hi, c.minus.lo, c.minus.hi, c.plus.lo, c.plus.hi
            );
        }
        CellVal::Float(f) => {
            let _ = write!(out, " f {:016x} {:016x}", f.lo.to_bits(), f.hi.to_bits());
        }
    }
}

fn decode_cell_val<'a, I: Iterator<Item = &'a str>>(t: &mut Toks<'a, I>) -> Option<CellVal> {
    match t.tok()? {
        "i" => Some(CellVal::Int(Clocked {
            val: IntItv { lo: t.i64()?, hi: t.i64()? },
            minus: IntItv { lo: t.i64()?, hi: t.i64()? },
            plus: IntItv { lo: t.i64()?, hi: t.i64()? },
        })),
        "f" => Some(CellVal::Float(FloatItv { lo: t.f64()?, hi: t.f64()? })),
        _ => None,
    }
}

fn encode_dtree(out: &mut String, t: &DTree) {
    match t {
        DecisionTree::Leaf(env) => {
            let _ = write!(out, " L {} {}", env.unreachable as u8, env.cells.len());
            for (c, v) in &env.cells {
                let _ = write!(out, " {}", c.0);
                encode_cell_val(out, v);
            }
        }
        DecisionTree::Node { var, f, t } => {
            let _ = write!(out, " N {}", var.0);
            encode_dtree(out, f);
            encode_dtree(out, t);
        }
    }
}

fn decode_dtree<'a, I: Iterator<Item = &'a str>>(t: &mut Toks<'a, I>) -> Option<DTree> {
    match t.tok()? {
        "L" => {
            let unreachable = t.bool()?;
            let n = t.usize()?;
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                let c = CellId(t.u32()?);
                cells.push((c, decode_cell_val(t)?));
            }
            Some(DecisionTree::Leaf(PackEnv { cells, unreachable }))
        }
        "N" => {
            let var = CellId(t.u32()?);
            let f = decode_dtree(t)?;
            let tt = decode_dtree(t)?;
            // Reconstruct the node verbatim (`DecisionTree::node` would merge
            // equal children and alter the stored physical shape).
            Some(DecisionTree::Node { var, f: Box::new(f), t: Box::new(tt) })
        }
        _ => None,
    }
}

/// Serializes one abstract state as a sequence of lines.
fn encode_state(out: &mut Vec<String>, st: &AbsState) {
    if st.is_bottom() {
        out.push("S 1".to_string());
        return;
    }
    out.push("S 0".to_string());
    out.push(format!("k {} {}", st.env.clock.lo, st.env.clock.hi));
    let mut cells: Vec<(CellId, CellVal)> = st.env.iter().map(|(c, v)| (*c, *v)).collect();
    cells.sort_by_key(|(c, _)| *c);
    out.push(format!("e {}", cells.len()));
    for (c, v) in &cells {
        let mut line = format!("c {}", c.0);
        encode_cell_val(&mut line, v);
        out.push(line);
    }
    let octs: Vec<(usize, &Octagon)> = st.octs_iter().collect();
    out.push(format!("o {}", octs.len()));
    for (pi, o) in octs {
        let (n, m, closed) = o.to_raw();
        let mut line = format!("x {} {} {}", pi, n, closed as u8);
        // Run-length encode the matrix: widened octagons are mostly +inf.
        let mut i = 0;
        while i < m.len() {
            let bits = m[i].to_bits();
            let mut j = i + 1;
            while j < m.len() && m[j].to_bits() == bits {
                j += 1;
            }
            let _ = write!(line, " {}:{:016x}", j - i, bits);
            i = j;
        }
        out.push(line);
    }
    let dtrees: Vec<(usize, &DTree)> = st.dtrees_iter().collect();
    out.push(format!("d {}", dtrees.len()));
    for (pi, tree) in dtrees {
        let mut line = format!("t {pi}");
        encode_dtree(&mut line, tree);
        out.push(line);
    }
    let ells: Vec<(usize, f64)> = st.ellipses_iter().collect();
    out.push(format!("l {}", ells.len()));
    for (pi, k) in ells {
        out.push(format!("p {} {:016x} {:016x}", pi, k.to_bits(), st.pending(pi).to_bits()));
    }
}

/// Reads `n` lines `<tag> <key> …` and parses each with `item`.
fn decode_section<'a, T>(
    lines: &mut impl Iterator<Item = &'a str>,
    tag: &str,
    n: usize,
    mut item: impl FnMut(&mut Toks<'a, std::str::SplitAsciiWhitespace<'a>>) -> Option<T>,
) -> Option<Vec<T>> {
    // `n` comes from the file: grow with the lines actually there.
    let mut out = Vec::new();
    for _ in 0..n {
        let mut t = toks(lines.next()?);
        if t.tok()? != tag {
            return None;
        }
        out.push(item(&mut t)?);
    }
    Some(out)
}

/// Reads a section header `<tag> <count>`.
fn decode_count<'a>(lines: &mut impl Iterator<Item = &'a str>, tag: &str) -> Option<usize> {
    let mut t = toks(lines.next()?);
    if t.tok()? != tag {
        return None;
    }
    t.usize()
}

/// Reads a run-length encoded octagon matrix of `n` variables.
fn decode_oct_matrix<'a, I: Iterator<Item = &'a str>>(
    t: &mut Toks<'a, I>,
    n: usize,
) -> Option<Vec<f64>> {
    // `n` may come straight from the file: no overflow, no huge reservation.
    let len = n.checked_mul(n)?.checked_mul(4)?;
    let mut m = Vec::with_capacity(len.min(1 << 12));
    while m.len() < len {
        let (count, bits) = t.tok()?.split_once(':')?;
        let count: usize = count.parse().ok()?;
        if count > len - m.len() {
            return None;
        }
        let v = f64::from_bits(u64::from_str_radix(bits, 16).ok()?);
        m.extend(std::iter::repeat_n(v, count));
    }
    Some(m)
}

/// Decodes one abstract state from a line iterator: exactly the cells and
/// packs that were encoded, so a frame-sized invariant comes back
/// frame-sized. Returns `None` on any malformation or mismatch against the
/// current layout/packs (a cell or pack that does not exist, a value of the
/// wrong kind, an octagon of the wrong size).
fn decode_state<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    layout: &CellLayout,
    packs: &Packs,
) -> Option<AbsState> {
    let mut t = toks(lines.next()?);
    if t.tok()? != "S" {
        return None;
    }
    if t.bool()? {
        return Some(AbsState::bottom());
    }
    let mut t = toks(lines.next()?);
    if t.tok()? != "k" {
        return None;
    }
    let clock = IntItv { lo: t.i64()?, hi: t.i64()? };
    let n = decode_count(lines, "e")?;
    let cells = decode_section(lines, "c", n, |t| {
        let c = CellId(t.u32()?);
        let v = decode_cell_val(t)?;
        let kind_ok = (c.0 as usize) < layout.num_cells()
            && matches!(
                (&v, layout.info(c).ty),
                (CellVal::Int(_), ScalarType::Int(_)) | (CellVal::Float(_), ScalarType::Float(_))
            );
        // A stored non-bottom state cannot hold bottom cells.
        (kind_ok && !v.is_bottom()).then_some((c, v))
    })?;
    let n = decode_count(lines, "o")?;
    let octs = decode_section(lines, "x", n, |t| {
        let pi = t.usize()?;
        let n = t.usize()?;
        let closed = t.bool()?;
        if n != packs.octagons.get(pi)?.cells.len() {
            return None;
        }
        Some((pi, Octagon::from_raw(n, decode_oct_matrix(t, n)?, closed)?))
    })?;
    let n = decode_count(lines, "d")?;
    let dtrees = decode_section(lines, "t", n, |t| {
        let pi = t.usize()?;
        packs.dtrees.get(pi)?;
        Some((pi, decode_dtree(t)?))
    })?;
    let n = decode_count(lines, "l")?;
    let ells = decode_section(lines, "p", n, |t| {
        let pi = t.usize()?;
        packs.ellipses.get(pi)?;
        Some((pi, t.f64()?, t.f64()?))
    })?;
    Some(AbsState::from_parts(clock, cells, octs, dtrees, ells))
}

// ---------------------------------------------------------------------------
// Portable (name-keyed) codec
// ---------------------------------------------------------------------------

/// Serializes one abstract state with every cell keyed by its canonical
/// channel-parametric *name* ([`canon_ident`] with the donor's `tag`) rather
/// than its [`CellId`], so the lines can be decoded against a different
/// family member's layout. Temporaries (`__tmp*`) are omitted: their
/// numbering is member-specific, and the acceptance pass recomputes their
/// values anyway. Relational components carry their pack member names so the
/// decoder can re-match packs structurally.
fn encode_state_named(
    out: &mut Vec<String>,
    st: &AbsState,
    layout: &CellLayout,
    packs: &Packs,
    tag: &str,
) {
    if st.is_bottom() {
        out.push("S 1".to_string());
        return;
    }
    let names: HashMap<CellId, String> =
        layout.iter().map(|(id, info)| (id, canon_ident(&info.name, tag))).collect();
    out.push("S 0".to_string());
    out.push(format!("k {} {}", st.env.clock.lo, st.env.clock.hi));
    let mut cells: Vec<(&String, CellVal)> = st
        .env
        .iter()
        .filter_map(|(c, v)| {
            let name = names.get(c)?;
            if name.starts_with("__tmp") {
                None
            } else {
                Some((name, *v))
            }
        })
        .collect();
    cells.sort_by(|a, b| a.0.cmp(b.0));
    out.push(format!("e {}", cells.len()));
    for (name, v) in &cells {
        let mut line = format!("c {}", esc(name));
        encode_cell_val(&mut line, v);
        out.push(line);
    }
    let octs: Vec<(usize, &Octagon)> = st.octs_iter().collect();
    out.push(format!("o {}", octs.len()));
    for (pi, o) in octs {
        let (n, m, closed) = o.to_raw();
        let mut line = format!("x {n}");
        for c in &packs.octagons[pi].cells {
            let _ = write!(line, " {}", esc(&names[c]));
        }
        let _ = write!(line, " {}", closed as u8);
        let mut i = 0;
        while i < m.len() {
            let bits = m[i].to_bits();
            let mut j = i + 1;
            while j < m.len() && m[j].to_bits() == bits {
                j += 1;
            }
            let _ = write!(line, " {}:{:016x}", j - i, bits);
            i = j;
        }
        out.push(line);
    }
    let dtrees: Vec<(usize, &DTree)> = st.dtrees_iter().collect();
    out.push(format!("d {}", dtrees.len()));
    for (pi, tree) in dtrees {
        let pack = &packs.dtrees[pi];
        let mut line = format!("t {}", pack.bools.len());
        for c in &pack.bools {
            let _ = write!(line, " {}", esc(&names[c]));
        }
        let _ = write!(line, " {}", pack.nums.len());
        for c in &pack.nums {
            let _ = write!(line, " {}", esc(&names[c]));
        }
        encode_dtree_named(&mut line, tree, &names);
        out.push(line);
    }
    let ells: Vec<(usize, f64)> = st.ellipses_iter().collect();
    out.push(format!("l {}", ells.len()));
    for (pi, k) in ells {
        let e = &packs.ellipses[pi];
        out.push(format!(
            "p {:016x} {:016x} {} {} {} {:016x} {:016x}",
            e.a.to_bits(),
            e.b.to_bits(),
            esc(&names[&e.x]),
            esc(&names[&e.y]),
            esc(&names[&e.tmp]),
            k.to_bits(),
            st.pending(pi).to_bits(),
        ));
    }
}

fn encode_dtree_named(out: &mut String, t: &DTree, names: &HashMap<CellId, String>) {
    match t {
        DecisionTree::Leaf(env) => {
            let _ = write!(out, " L {} {}", env.unreachable as u8, env.cells.len());
            for (c, v) in &env.cells {
                let _ = write!(out, " {}", esc(&names[c]));
                encode_cell_val(out, v);
            }
        }
        DecisionTree::Node { var, f, t } => {
            let _ = write!(out, " N {}", esc(&names[var]));
            encode_dtree_named(out, f, names);
            encode_dtree_named(out, t, names);
        }
    }
}

fn decode_dtree_named<'a, I: Iterator<Item = &'a str>>(
    t: &mut Toks<'a, I>,
    resolve: &impl Fn(&str) -> Option<CellId>,
) -> Option<DTree> {
    match t.tok()? {
        "L" => {
            let unreachable = t.bool()?;
            let n = t.usize()?;
            let mut cells = Vec::with_capacity(n);
            for _ in 0..n {
                let c = resolve(t.tok()?)?;
                cells.push((c, decode_cell_val(t)?));
            }
            Some(DecisionTree::Leaf(PackEnv { cells, unreachable }))
        }
        "N" => {
            let var = resolve(t.tok()?)?;
            let f = decode_dtree_named(t, resolve)?;
            let tt = decode_dtree_named(t, resolve)?;
            Some(DecisionTree::Node { var, f: Box::new(f), t: Box::new(tt) })
        }
        _ => None,
    }
}

/// Decodes one name-keyed state into a [`StatePatch`] against the current
/// member's layout and packs, expanding each stored canonical name with the
/// target's channel `tag`. Unresolvable cells and unmatched packs are
/// silently dropped (the patch is applied over the entry state, so dropped
/// components simply keep their entry values); only a structurally broken
/// record yields `None`.
fn decode_patch<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    layout: &CellLayout,
    packs: &Packs,
    tag: &str,
) -> Option<StatePatch> {
    let ids: HashMap<String, CellId> =
        layout.iter().map(|(id, info)| (info.name.clone(), id)).collect();
    let resolve =
        |stored: &str| -> Option<CellId> { ids.get(&expand_ident(&unesc(stored)?, tag)).copied() };
    let mut t = toks(lines.next()?);
    if t.tok()? != "S" {
        return None;
    }
    if t.bool()? {
        return None; // a bottom donor state is useless as a seed
    }
    let mut t = toks(lines.next()?);
    if t.tok()? != "k" {
        return None;
    }
    let clock = IntItv { lo: t.i64()?, hi: t.i64()? };
    let ncells = decode_count(lines, "e")?;
    let mut cells = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        let mut t = toks(lines.next()?);
        if t.tok()? != "c" {
            return None;
        }
        let name = t.tok()?;
        let v = decode_cell_val(&mut t)?;
        if let Some(c) = resolve(name) {
            cells.push((c, v));
        }
    }
    let oct_index: HashMap<&[CellId], usize> =
        packs.octagons.iter().enumerate().map(|(i, p)| (p.cells.as_slice(), i)).collect();
    let nocts = decode_count(lines, "o")?;
    let mut octs = Vec::new();
    for _ in 0..nocts {
        let line = lines.next()?;
        let mut t = toks(line);
        if t.tok()? != "x" {
            return None;
        }
        let n = t.usize()?;
        let mut members = Some(Vec::with_capacity(n));
        for _ in 0..n {
            let name = t.tok()?;
            members = match (members, resolve(name)) {
                (Some(mut m), Some(c)) => {
                    m.push(c);
                    Some(m)
                }
                _ => None,
            };
        }
        let closed = t.bool()?;
        let m = decode_oct_matrix(&mut t, n)?;
        if let Some(pi) = members.and_then(|mm| oct_index.get(mm.as_slice()).copied()) {
            if let Some(o) = Octagon::from_raw(n, m, closed) {
                octs.push((pi, o));
            }
        }
    }
    let dtree_index: HashMap<(&[CellId], &[CellId]), usize> = packs
        .dtrees
        .iter()
        .enumerate()
        .map(|(i, p)| ((p.bools.as_slice(), p.nums.as_slice()), i))
        .collect();
    let ndts = decode_count(lines, "d")?;
    let mut dtrees = Vec::new();
    for _ in 0..ndts {
        let line = lines.next()?;
        let mut t = toks(line);
        if t.tok()? != "t" {
            return None;
        }
        let read_group = |t: &mut Toks<'a, _>| -> Option<Option<Vec<CellId>>> {
            let n = t.usize()?;
            let mut group = Some(Vec::with_capacity(n));
            for _ in 0..n {
                let name = t.tok()?;
                group = match (group, resolve(name)) {
                    (Some(mut g), Some(c)) => {
                        g.push(c);
                        Some(g)
                    }
                    _ => None,
                };
            }
            Some(group)
        };
        let bools = read_group(&mut t)?;
        let nums = read_group(&mut t)?;
        let tree = decode_dtree_named(&mut t, &resolve);
        if let (Some(bools), Some(nums), Some(tree)) = (bools, nums, tree) {
            if let Some(&pi) = dtree_index.get(&(bools.as_slice(), nums.as_slice())) {
                dtrees.push((pi, tree));
            }
        }
    }
    let nells = decode_count(lines, "l")?;
    let mut ells = Vec::new();
    for _ in 0..nells {
        let line = lines.next()?;
        let mut t = toks(line);
        if t.tok()? != "p" {
            return None;
        }
        let a = t.f64()?;
        let b = t.f64()?;
        let x = resolve(t.tok()?);
        let y = resolve(t.tok()?);
        let tmp = resolve(t.tok()?);
        let k = t.f64()?;
        let pending = t.f64()?;
        if let (Some(x), Some(y), Some(tmp)) = (x, y, tmp) {
            if let Some(pi) = packs.ellipses.iter().position(|e| {
                e.a.to_bits() == a.to_bits()
                    && e.b.to_bits() == b.to_bits()
                    && e.x == x
                    && e.y == y
                    && e.tmp == tmp
            }) {
                ells.push((pi, k, pending));
            }
        }
    }
    Some(StatePatch { clock, cells, octs, dtrees, ells })
}

fn serialize_portable_file(config_fp: u64, file: &PortableFile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{CACHE_FORMAT}");
    let _ = writeln!(out, "pkey {config_fp:016x}");
    let mut funcs: Vec<(&u64, &Vec<(u32, Vec<String>)>)> = file.funcs.iter().collect();
    funcs.sort_by_key(|(fp, _)| **fp);
    for (fp, loops) in funcs {
        let _ = writeln!(out, "pfunc {:016x} {}", fp, loops.len());
        for (ordinal, lines) in loops {
            let _ = writeln!(out, "seed {ordinal}");
            for l in lines {
                let _ = writeln!(out, "{l}");
            }
        }
    }
    out.push_str("end\n");
    out
}

fn parse_portable_file(config_fp: u64, text: &str) -> Option<PortableFile> {
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    if *lines.get(i)? != CACHE_FORMAT {
        return None;
    }
    i += 1;
    let mut t = toks(lines.get(i)?);
    if t.tok()? != "pkey" || t.hex64()? != config_fp {
        return None;
    }
    i += 1;
    let mut file = PortableFile::default();
    loop {
        let line = *lines.get(i)?;
        if line == "end" {
            return Some(file);
        }
        let mut t = toks(line);
        if t.tok()? != "pfunc" {
            return None;
        }
        let fp = t.hex64()?;
        let n = t.usize()?;
        i += 1;
        let mut loops = Vec::with_capacity(n);
        for _ in 0..n {
            let mut t = toks(lines.get(i)?);
            if t.tok()? != "seed" {
                return None;
            }
            let ordinal = t.u32()?;
            i += 1;
            loops.push((ordinal, take_state_lines(&lines, &mut i)?));
        }
        file.funcs.insert(fp, loops);
    }
}

fn serialize_file(key: &StoreKey, file: &CacheFile) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{CACHE_FORMAT}");
    let _ =
        writeln!(out, "key {:016x} {:016x} {:016x}", key.layout_fp, key.packs_fp, key.config_fp);
    let mut entries: Vec<(&u64, &RawEntry)> = file.entries.iter().collect();
    entries.sort_by_key(|(fp, _)| **fp);
    for (fp, e) in entries {
        let _ = writeln!(out, "entry {fp:016x}");
        let _ = writeln!(out, "alarms {}", e.alarms.len());
        for a in &e.alarms {
            let _ = writeln!(
                out,
                "a {} {} {} {}",
                a.stmt.0,
                a.loc.line,
                kind_code(a.kind),
                esc(&a.context)
            );
        }
        match &e.census {
            None => {
                let _ = writeln!(out, "census 0");
            }
            Some(c) => {
                let _ = writeln!(
                    out,
                    "census 1 {} {} {} {} {} {} {}",
                    c.boolean_intervals,
                    c.intervals,
                    c.clock_assertions,
                    c.octagon_additive,
                    c.octagon_subtractive,
                    c.decision_trees,
                    c.ellipsoids,
                );
            }
        }
        let _ = writeln!(out, "{}", e.stats_line);
        let _ = write!(out, "useful {}", e.useful.len());
        for u in &e.useful {
            let _ = write!(out, " {u}");
        }
        out.push('\n');
        match &e.invariant {
            None => {
                let _ = writeln!(out, "inv 0");
            }
            Some(lines) => {
                let _ = writeln!(out, "inv 1");
                for l in lines {
                    let _ = writeln!(out, "{l}");
                }
            }
        }
    }
    let mut funcs: Vec<(&u64, &Vec<(u32, Vec<String>)>)> = file.funcs.iter().collect();
    funcs.sort_by_key(|(fp, _)| **fp);
    for (fp, loops) in funcs {
        let _ = writeln!(out, "func {:016x} {}", fp, loops.len());
        for (ordinal, lines) in loops {
            let _ = writeln!(out, "seed {ordinal}");
            for l in lines {
                let _ = writeln!(out, "{l}");
            }
        }
    }
    let mut loops: Vec<(&u64, &Vec<String>)> = file.loops.iter().collect();
    loops.sort_by_key(|(fp, _)| **fp);
    for (fp, lines) in loops {
        let _ = writeln!(out, "loop {fp:016x}");
        for l in lines {
            let _ = writeln!(out, "{l}");
        }
    }
    out.push_str("end\n");
    out
}

/// Collects the line span of one encoded state starting at `lines[*i]`.
fn take_state_lines(lines: &[&str], i: &mut usize) -> Option<Vec<String>> {
    let head = *lines.get(*i)?;
    let mut t = toks(head);
    if t.tok()? != "S" {
        return None;
    }
    let bottom = t.bool()?;
    let mut out = vec![head.to_string()];
    *i += 1;
    if bottom {
        return Some(out);
    }
    // k, e <n> + n cells, o <n> + n lines, d <n> + n lines, l <n> + n lines
    let k = *lines.get(*i)?;
    if !k.starts_with("k ") {
        return None;
    }
    out.push(k.to_string());
    *i += 1;
    for section in ["e", "o", "d", "l"] {
        let head = *lines.get(*i)?;
        let mut t = toks(head);
        if t.tok()? != section {
            return None;
        }
        let n = t.usize()?;
        out.push(head.to_string());
        *i += 1;
        for _ in 0..n {
            out.push((*lines.get(*i)?).to_string());
            *i += 1;
        }
    }
    Some(out)
}

fn parse_file(key: &StoreKey, text: &str) -> Option<CacheFile> {
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    if *lines.get(i)? != CACHE_FORMAT {
        return None;
    }
    i += 1;
    let mut t = toks(lines.get(i)?);
    if t.tok()? != "key"
        || t.hex64()? != key.layout_fp
        || t.hex64()? != key.packs_fp
        || t.hex64()? != key.config_fp
    {
        return None;
    }
    i += 1;
    let mut file = CacheFile::default();
    loop {
        let line = *lines.get(i)?;
        if line == "end" {
            return Some(file);
        }
        let mut t = toks(line);
        match t.tok()? {
            "entry" => {
                let fp = t.hex64()?;
                i += 1;
                let mut t = toks(lines.get(i)?);
                if t.tok()? != "alarms" {
                    return None;
                }
                let n = t.usize()?;
                i += 1;
                let mut alarms = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut t = toks(lines.get(i)?);
                    if t.tok()? != "a" {
                        return None;
                    }
                    let stmt = StmtId(t.u32()?);
                    let line = t.u32()?;
                    let kind = kind_from_code(t.u32()?.try_into().ok()?)?;
                    let context = unesc(t.tok()?)?;
                    alarms.push(Alarm { stmt, loc: Loc { line }, kind, context });
                    i += 1;
                }
                let mut t = toks(lines.get(i)?);
                if t.tok()? != "census" {
                    return None;
                }
                let census = if t.bool()? {
                    Some(Census {
                        boolean_intervals: t.usize()?,
                        intervals: t.usize()?,
                        clock_assertions: t.usize()?,
                        octagon_additive: t.usize()?,
                        octagon_subtractive: t.usize()?,
                        decision_trees: t.usize()?,
                        ellipsoids: t.usize()?,
                    })
                } else {
                    None
                };
                i += 1;
                let stats_line = (*lines.get(i)?).to_string();
                decode_stats(&stats_line, &[])?; // validate eagerly
                i += 1;
                let mut t = toks(lines.get(i)?);
                if t.tok()? != "useful" {
                    return None;
                }
                let n = t.usize()?;
                let mut useful = Vec::with_capacity(n);
                for _ in 0..n {
                    useful.push(t.usize()?);
                }
                i += 1;
                let mut t = toks(lines.get(i)?);
                if t.tok()? != "inv" {
                    return None;
                }
                let has_inv = t.bool()?;
                i += 1;
                let invariant =
                    if has_inv { Some(take_state_lines(&lines, &mut i)?) } else { None };
                file.entries.insert(fp, RawEntry { alarms, census, stats_line, useful, invariant });
            }
            "func" => {
                let fp = t.hex64()?;
                let n = t.usize()?;
                i += 1;
                let mut loops = Vec::with_capacity(n);
                for _ in 0..n {
                    let mut t = toks(lines.get(i)?);
                    if t.tok()? != "seed" {
                        return None;
                    }
                    let ordinal = t.u32()?;
                    i += 1;
                    loops.push((ordinal, take_state_lines(&lines, &mut i)?));
                }
                file.funcs.insert(fp, loops);
            }
            "loop" => {
                let fp = t.hex64()?;
                i += 1;
                file.loops.insert(fp, take_state_lines(&lines, &mut i)?);
            }
            _ => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use astree_frontend::Frontend;
    use astree_memory::LayoutConfig;

    fn temp_store(tag: &str) -> InvariantStore {
        let dir =
            std::env::temp_dir().join(format!("astree-cache-unit-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        InvariantStore::open(dir).expect("store opens")
    }

    fn sample() -> (astree_ir::Program, AnalysisConfig) {
        let src = r#"
            volatile int in; int x; int b;
            void main(void) {
                __astree_input_int(in, 0, 100);
                while (1) {
                    x = in;
                    b = x > 50;
                    if (b) { x = 50; }
                    __astree_wait();
                }
            }
        "#;
        (Frontend::new().compile_str(src).expect("compiles"), AnalysisConfig::default())
    }

    #[test]
    fn config_fingerprint_tracks_analysis_relevant_fields() {
        let base = AnalysisConfig::default();
        let fp = config_fingerprint(&base);
        assert_eq!(fp, config_fingerprint(&AnalysisConfig::default()), "deterministic");

        let mut jobs = AnalysisConfig::default();
        jobs.jobs = 8;
        assert_eq!(fp, config_fingerprint(&jobs), "jobs is excluded (results identical)");

        let mut no_shortcuts = AnalysisConfig::default();
        no_shortcuts.debug_no_ptr_shortcuts = true;
        assert_eq!(
            fp,
            config_fingerprint(&no_shortcuts),
            "debug_no_ptr_shortcuts is excluded (results identical)"
        );

        let mut widen = AnalysisConfig::default();
        widen.widening_delay += 1;
        assert_ne!(fp, config_fingerprint(&widen));

        let mut thr = AnalysisConfig::default();
        thr.thresholds = astree_domains::Thresholds::geometric(10.0, 3.0, 5);
        assert_ne!(fp, config_fingerprint(&thr));

        let mut cap = AnalysisConfig::default();
        cap.octagon_pack_cap = 4;
        assert_ne!(fp, config_fingerprint(&cap));
    }

    #[test]
    fn state_roundtrips_exactly_through_the_codec() {
        let (program, config) = sample();
        let layout = CellLayout::new(&program, &LayoutConfig::default());
        let packs = Packs::discover(&program, &layout, &config);
        let session = crate::analysis::AnalysisSession::builder(&program).config(config).build();
        let result = session.run();
        let inv = result.main_invariant.expect("has a main invariant");

        let mut lines = Vec::new();
        encode_state(&mut lines, &inv);
        let decoded =
            decode_state(&mut lines.iter().map(String::as_str), &layout, &packs).expect("decodes");
        assert_eq!(format!("{inv}"), format!("{decoded}"), "state round-trips verbatim");
        assert_eq!(
            Census::of_state(&inv, &layout, &packs),
            Census::of_state(&decoded, &layout, &packs),
        );
    }

    /// `decode(encode(s))` holds exactly `s`'s cells and packs — for a
    /// whole-program state and for the frame-sized state of a loop inside a
    /// framed call — and a portable patch never adds a key its base lacks.
    #[test]
    fn decoding_keeps_the_encoded_key_set() {
        let src = astree_gen::generate(&astree_gen::GenConfig { channels: 4, seed: 3, bug: None });
        let program = Frontend::new().compile_str(&src).expect("compiles");
        let config = AnalysisConfig::default();
        let layout = CellLayout::new(&program, &LayoutConfig::default());
        let packs = Packs::discover(&program, &layout, &config);
        let result = crate::analysis::AnalysisSession::builder(&program).build().run();
        let whole = result.main_invariant.expect("has a main invariant");
        let frames = crate::frames::Frames::discover(&program, &layout, &packs);
        let mut frames: Vec<_> = frames.framed().collect();
        frames.sort_by_key(|f| f.cells[0]);
        assert_eq!(frames.len(), 4, "one frame per stepK");
        let framed = whole.project(frames[0]);
        assert!(!framed.same_shape(&whole) && framed.env.len() == frames[0].cells.len());

        for st in [&whole, &framed] {
            let mut lines = Vec::new();
            encode_state(&mut lines, st);
            let decoded = decode_state(&mut lines.iter().map(String::as_str), &layout, &packs)
                .expect("decodes");
            assert!(decoded.same_shape(st), "key set changed in the round trip");
            assert_eq!(format!("{st}"), format!("{decoded}"));
            assert!(decoded.leq(st) && st.leq(&decoded), "packs changed in the round trip");
        }

        // The name-keyed codec: the patch of channel 0's frame lands on
        // channel 0's frame of the same member, and applied over a base of
        // another shape it writes only what that base holds.
        let mut lines = Vec::new();
        encode_state_named(&mut lines, &framed, &layout, &packs, "0");
        let patch = decode_patch(&mut lines.iter().map(String::as_str), &layout, &packs, "0")
            .expect("decodes");
        let initial = AbsState::initial(&layout, &packs);
        for base in [initial.project(frames[0]), initial.project(frames[1]), initial.clone()] {
            let applied = patch.apply(&base);
            assert!(applied.same_shape(&base), "the patch added or dropped a key");
        }
        let applied = patch.apply(&initial.project(frames[0]));
        assert!(applied.octs_iter().zip(framed.octs_iter()).all(|(a, b)| a.1.same(b.1)));
    }

    #[test]
    fn malformed_states_do_not_decode() {
        let (program, config) = sample();
        let layout = CellLayout::new(&program, &LayoutConfig::default());
        let packs = Packs::discover(&program, &layout, &config);
        let decode = |lines: &[&str]| decode_state(&mut lines.iter().copied(), &layout, &packs);
        let head = ["S 0", "k 0 0"];
        let tail = ["o 0", "d 0", "l 0"];
        let with_cell = |cell: &'static str| [&head[..], &["e 1", cell], &tail[..]].concat();
        assert!(decode(&with_cell("c 0 i 0 0 0 0 0 0")).is_some());
        assert!(decode(&with_cell("c 9999 i 0 0 0 0 0 0")).is_none());
        assert!(
            decode(&with_cell("c 0 f 0000000000000000 0000000000000000")).is_none(),
            "cell 0 is an int"
        );
        assert!(decode(&with_cell("c 0 i 1 0 0 0 0 0")).is_none(), "a ⊥ cell");
        assert!(
            decode(&[&head[..], &["e 0", "o 1", "x 9999 2 1 16:0"], &tail[1..]].concat()).is_none()
        );
        assert!(
            decode(&[&head[..], &["e 0", "o 0", "d 0", "l 1", "p 9999 0 0"]].concat()).is_none()
        );
    }

    #[test]
    fn bottom_states_roundtrip() {
        let (program, config) = sample();
        let layout = CellLayout::new(&program, &LayoutConfig::default());
        let packs = Packs::discover(&program, &layout, &config);
        let bot = AbsState::bottom();
        let mut lines = Vec::new();
        encode_state(&mut lines, &bot);
        assert_eq!(lines, vec!["S 1".to_string()]);
        let decoded =
            decode_state(&mut lines.iter().map(String::as_str), &layout, &packs).expect("decodes");
        assert!(decoded.is_bottom());
    }

    #[test]
    fn corrupt_files_fall_back_to_a_clean_miss() {
        let store = temp_store("corrupt");
        let key = StoreKey { layout_fp: 1, packs_fp: 2, config_fp: 3 };
        std::fs::write(store.dir().join(key.file_name()), "astree-cache/1\ngarbage\n")
            .expect("writes");
        let (program, config) = sample();
        let layout = CellLayout::new(&program, &LayoutConfig::default());
        let packs = Packs::discover(&program, &layout, &config);
        assert!(store.lookup_full(&key, 42, &layout, &packs).is_none());
        assert_eq!(store.counters().corrupt_files, 1);
        assert!(store.counters().bytes_read > 0);
    }

    #[test]
    fn truncated_files_fall_back_to_a_clean_miss() {
        let store = temp_store("truncated");
        let (program, config) = sample();
        let layout = CellLayout::new(&program, &LayoutConfig::default());
        let packs = Packs::discover(&program, &layout, &config);
        let key = StoreKey { layout_fp: 7, packs_fp: 8, config_fp: 9 };
        let result = crate::analysis::AnalysisSession::builder(&program)
            .config(AnalysisConfig::default())
            .build()
            .run();
        store.update(
            &key,
            99,
            &result.alarms,
            result.main_census,
            result.main_invariant.as_ref(),
            &result.stats,
            &[],
            &[],
        );
        let path = store.dir().join(key.file_name());
        let full = std::fs::read_to_string(&path).expect("reads");
        std::fs::write(&path, &full[..full.len() / 2]).expect("writes");
        // A fresh store re-reads from disk (the writing store has it cached).
        let fresh = InvariantStore::open(store.dir()).expect("opens");
        assert!(fresh.lookup_full(&key, 99, &layout, &packs).is_none());
        assert_eq!(fresh.counters().corrupt_files, 1);
    }

    #[test]
    fn loops_are_ordered_preorder_within_a_function() {
        let src = r#"
            int i; int j;
            void main(void) {
                for (i = 0; i < 3; i++) {
                    for (j = 0; j < 3; j++) { }
                }
                for (i = 0; i < 2; i++) { }
            }
        "#;
        let program = Frontend::new().compile_str(src).expect("compiles");
        let func = program.func(program.entry);
        let loops = loops_in_preorder(func);
        assert_eq!(loops.len(), 3);
        // Structural pre-order: first top-level loop, its nested loop, then
        // the second top-level loop — regardless of how ids were numbered.
        let mut top = Vec::new();
        for s in &func.body {
            if let astree_ir::StmtKind::While(id, _, body) = &s.kind {
                top.push((*id, body));
            }
        }
        assert_eq!(top.len(), 2);
        let mut nested = None;
        astree_ir::stmt::for_each_stmt(top[0].1, &mut |s| {
            if let astree_ir::StmtKind::While(id, _, _) = &s.kind {
                nested.get_or_insert(*id);
            }
        });
        assert_eq!(loops, vec![top[0].0, nested.expect("nested loop"), top[1].0]);
    }
}
