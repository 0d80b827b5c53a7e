//! The invariant store: a disk-backed memo of whole analysis runs.
//!
//! The paper's workflow is iterative: the analyzer is re-run many times over
//! the same codebase while tuning the parametrization (Sect. 7), and many of
//! those runs repeat one that was already made. An [`InvariantStore`] keeps
//! one result per file and the analysis session uses it in exactly one way —
//! **re-prove or solve**: on an exact match the checking pass runs from the
//! stored main-loop invariant as it does after a cold iteration pass, and
//! admits it only if it is inductive where the pass meets it (a file that
//! lies is counted corrupt and solved cold); otherwise the session solves
//! exactly as if no store were attached and stores the main invariant and
//! statistics it found. A store never changes a result, only its cost.
//!
//! A result is identified by three fingerprints, all of them in its file name
//! ([`StoreKey::file_name`]) and repeated in its header: the analyzer id
//! ([`ANALYZER_ID`], a hash of the source of the crates that compute and
//! encode invariants, fixed by `build.rs`), the analysis-relevant
//! configuration fingerprint ([`crate::AnalysisConfig::fingerprint`] — see
//! `DESIGN.md` for what is deliberately left out) and the *exact* program
//! fingerprint ([`astree_ir::program_fingerprint`], which covers the
//! variable and record tables, statement ids and source lines). The cell
//! layout and the packs a stored state is indexed by are functions of these
//! three, and the decoder still checks every cell and pack against the
//! current ones. A build whose analyzer source differs reads none of another
//! build's results: a soundness fix misses the whole store. The directory is
//! the map: a lookup reads one file, a run writes one, eviction removes whole
//! results.
//!
//! The on-disk format ([`CACHE_FORMAT`]) is a line-oriented text format with
//! `f64` values stored as IEEE bit patterns, so every value round-trips
//! exactly. A corrupt or truncated file is detected during parsing and
//! treated as a miss (counted in [`CacheCounters::corrupt_files`]); the
//! analysis then runs cold and rewrites the file.

use crate::analysis::AnalysisStats;
use crate::config::AnalysisConfig;
use crate::packs::Packs;
use crate::state::{AbsState, DTree, PackEnv};
use astree_domains::{Clocked, DecisionTree, FloatItv, IntItv, Octagon};
use astree_ir::{program_fingerprint, Program, ScalarType};
use astree_memory::{CellId, CellLayout, CellVal};
use astree_obs::CacheCounters;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The format identifier on the first line of every store file.
/// `/3`: one result per file, named by its fingerprints. `/4`: the `stats`
/// line ends with the loops that ran out of their iteration budget. `/5`:
/// the key is the analyzer id, the configuration and the program; files of
/// earlier formats carry other names and are never opened. `/6`: no alarms
/// and no census — a hit re-proves the main invariant and checks again.
pub const CACHE_FORMAT: &str = "astree-cache/6";

include!(concat!(env!("OUT_DIR"), "/analyzer_id.rs"));

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// The identity of one stored result: the analyzer that computed it, the
/// configuration and the exact program. A state can only be decoded against
/// the exact cell layout and pack structure it was encoded with, and these
/// three determine both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// [`ANALYZER_ID`] of the build that stored the result.
    pub analyzer: u64,
    /// [`crate::AnalysisConfig::fingerprint`] of the analysis configuration.
    pub config_fp: u64,
    /// [`astree_ir::program_fingerprint`] of the program.
    pub program_fp: u64,
}

impl StoreKey {
    /// The key this build stores `program` under with `config`.
    pub fn new(program: &Program, config: &AnalysisConfig) -> StoreKey {
        StoreKey {
            analyzer: ANALYZER_ID,
            config_fp: config.fingerprint(),
            program_fp: program_fingerprint(program),
        }
    }

    /// The on-disk file name for this key (also its wire name for remote
    /// store sync).
    pub fn file_name(&self) -> String {
        format!("k-{:016x}-{:016x}-{:016x}.astc", self.analyzer, self.config_fp, self.program_fp)
    }

    /// The key a well-formed store file name (`k-<3 × hex64>.astc`) stands
    /// for; `None` for any other name.
    fn from_file_name(name: &str) -> Option<StoreKey> {
        let body = name.strip_prefix("k-")?.strip_suffix(".astc")?;
        let mut groups = body.split('-').map(|g| {
            // Exactly what `file_name` prints: sixteen lowercase hex digits.
            let printed =
                g.len() == 16 && g.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
            u64::from_str_radix(g, 16).ok().filter(|_| printed)
        });
        let mut fp = || groups.next().flatten();
        let key = StoreKey { analyzer: fp()?, config_fp: fp()?, program_fp: fp()? };
        groups.next().is_none().then_some(key)
    }
}

/// `true` when `name` is a well-formed store file name. Remote imports
/// validate names with this before touching the filesystem, so a peer can
/// never escape the store directory.
pub fn valid_store_file_name(name: &str) -> bool {
    StoreKey::from_file_name(name).is_some()
}

// ---------------------------------------------------------------------------
// Store
// ---------------------------------------------------------------------------

/// A stored result, decoded: what the checking pass needs to re-prove it.
#[derive(Debug)]
pub struct FullHit {
    /// The stored main-loop invariant, not yet re-proved.
    pub invariant: Option<AbsState>,
    /// The stored *cold-run* statistics (phase times included, so hits keep
    /// meaningful `time_iterate`/`time_check`).
    pub stats: AnalysisStats,
}

/// Distinguishes the staging files of this process's writers.
static STAGED: AtomicU64 = AtomicU64::new(0);

/// The disk-backed invariant store: a directory of results, one per file.
/// Cheap to share (`Arc`) across batch jobs, threads and processes: the only
/// state beside the directory is the cumulative I/O counters kept for
/// reporting.
#[derive(Debug)]
pub struct InvariantStore {
    dir: PathBuf,
    max_bytes: Option<u64>,
    counters: Mutex<CacheCounters>,
}

impl InvariantStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<InvariantStore> {
        Self::open_inner(dir.into(), None)
    }

    /// Opens a store whose on-disk footprint is bounded: after every write,
    /// results and writers' staging files are evicted oldest-mtime-first
    /// until the directory fits in `max_bytes` (the just-written result is
    /// never evicted). An evicted result simply becomes a miss on the next
    /// run; a writer whose staging file is evicted fails its rename and
    /// stores nothing.
    pub fn open_bounded(
        dir: impl Into<PathBuf>,
        max_bytes: u64,
    ) -> std::io::Result<InvariantStore> {
        Self::open_inner(dir.into(), Some(max_bytes))
    }

    fn open_inner(dir: PathBuf, max_bytes: Option<u64>) -> std::io::Result<InvariantStore> {
        std::fs::create_dir_all(&dir)?;
        Ok(InvariantStore { dir, max_bytes, counters: Mutex::new(CacheCounters::default()) })
    }

    /// The store directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Cumulative I/O and corruption counters since the store was opened.
    pub fn counters(&self) -> CacheCounters {
        *self.counters.lock().expect("store poisoned")
    }

    /// Folds one session's run-level counters (hits, misses, replay/saved
    /// time) into the store totals, so a store shared across a batch fleet
    /// reports fleet-wide numbers. The I/O counters (`bytes_read`,
    /// `bytes_written`, `corrupt_files`) are tracked by the store itself and
    /// must be zero in `c` to avoid double counting.
    pub fn absorb_run(&self, c: &CacheCounters) {
        self.counters.lock().expect("store poisoned").add(c);
    }

    /// Reads and decodes the result stored for `key`, if there is one. An
    /// unreadable or corrupt file bumps the corruption counter and reads as
    /// a miss.
    pub fn lookup_full(
        &self,
        key: &StoreKey,
        layout: &CellLayout,
        packs: &Packs,
    ) -> Option<FullHit> {
        let text = self.read_file(&key.file_name())?;
        let hit = parse_result(key, &text, Some((layout, packs)));
        if hit.is_none() {
            self.counters.lock().expect("store poisoned").corrupt_files += 1;
        }
        hit
    }

    /// Counts a decoded result the session refused — its invariant failed
    /// the checking pass's premise test — as a corrupt file. The cold run
    /// that follows rewrites it.
    pub fn reject(&self) {
        self.counters.lock().expect("store poisoned").corrupt_files += 1;
    }

    /// Stores the outcome of a cold run under `key`: its main invariant and
    /// its statistics.
    pub fn update(&self, key: &StoreKey, invariant: Option<&AbsState>, stats: &AnalysisStats) {
        self.write_file(&key.file_name(), &serialize_result(key, invariant, stats));
    }

    /// Lists the store's results by file name (sorted, valid names only) —
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

    /// Reads one raw store file for shipping over the fleet wire. `None`
    /// for invalid names or files that do not exist.
    pub fn export_file(&self, name: &str) -> Option<String> {
        if !valid_store_file_name(name) {
            return None;
        }
        std::fs::read_to_string(self.dir.join(name)).ok()
    }

    /// Adds one raw store file received over the fleet wire. Returns
    /// `false` when the name or the content is invalid (the invariant's
    /// values are checked when it is looked up, against the layout they
    /// claim), or when the store already holds these bytes under this name.
    pub fn import_file(&self, name: &str, text: &str) -> bool {
        let Some(key) = StoreKey::from_file_name(name) else {
            return false;
        };
        if parse_result(&key, text, None).is_none()
            || self.read_file(name).is_some_and(|held| held == text)
        {
            return false;
        }
        self.write_file(name, text)
    }

    /// Reads one store file whole, counting the bytes.
    fn read_file(&self, name: &str) -> Option<String> {
        let text = std::fs::read_to_string(self.dir.join(name)).ok()?;
        self.counters.lock().expect("store poisoned").bytes_read += text.len() as u64;
        Some(text)
    }

    /// Atomically publishes one store file — staged under a name no other
    /// writer, in this process or another, uses, then renamed, so a file
    /// under its final name is only ever one writer's complete bytes —
    /// counts the bytes and enforces the store size bound.
    fn write_file(&self, name: &str, text: &str) -> bool {
        let staged = STAGED.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!("{name}.{}-{staged}.tmp", std::process::id()));
        let written =
            std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, self.dir.join(name)));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
            return false;
        }
        self.counters.lock().expect("store poisoned").bytes_written += text.len() as u64;
        self.enforce_bound(name);
        true
    }

    /// Oldest-mtime-first eviction of results and staging files
    /// (`NAME.<pid>-<n>.tmp`, left behind by a writer killed before its
    /// rename) until the directory fits `max_bytes`.
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
            let staging = name
                .strip_suffix(".tmp")
                .and_then(|n| n.rsplit_once('.'))
                .is_some_and(|(result, _)| valid_store_file_name(result));
            if !name.ends_with(".astc") && !staging {
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
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Text codec
// ---------------------------------------------------------------------------

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

fn encode_stats(out: &mut String, s: &AnalysisStats) {
    let _ = write!(
        out,
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
    );
    // The loops that ran out of their budget close the line, so a hit
    // reports them like the cold run.
    let _ = write!(out, " {} {}", s.widen_top, s.budget_loops.len());
    for (func, id) in &s.budget_loops {
        let _ = write!(out, " {func} {id}");
    }
    out.push('\n');
}

fn decode_stats(line: &str, useful: Vec<usize>) -> Option<AnalysisStats> {
    let mut t = toks(line);
    if t.tok()? != "stats" {
        return None;
    }
    Some(AnalysisStats {
        time_iterate: Duration::from_nanos(t.u64()?),
        time_check: Duration::from_nanos(t.u64()?),
        cells: t.usize()?,
        octagon_packs: t.usize()?,
        useful_octagon_packs: useful,
        dtree_packs: t.usize()?,
        ellipse_packs: t.usize()?,
        loop_iterations: t.u64()?,
        stmts_interpreted: t.u64()?,
        peak_partitions: t.usize()?,
        invariant_cells: t.usize()?,
        parallel_stages: t.u64()?,
        parallel_slices: t.u64()?,
        widen_top: t.u64()?,
        budget_loops: {
            // The count comes from the file: grow with the tokens there.
            let mut loops = Vec::new();
            for _ in 0..t.usize()? {
                loops.push((t.tok()?.to_string(), t.u32()?));
            }
            loops
        },
        ..AnalysisStats::default()
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

/// Reads one tree with at most `depth` nodes along any path: a tree tests
/// each boolean of its pack at most once per path, and the token stream
/// comes from a file, so the recursion is bounded by the pack, not by it.
fn decode_dtree<'a, I: Iterator<Item = &'a str>>(
    t: &mut Toks<'a, I>,
    depth: usize,
) -> Option<DTree> {
    match t.tok()? {
        "L" => {
            let unreachable = t.bool()?;
            let n = t.usize()?;
            // `n` comes from the file: grow with the tokens actually there.
            let mut cells = Vec::new();
            for _ in 0..n {
                let c = CellId(t.u32()?);
                cells.push((c, decode_cell_val(t)?));
            }
            Some(DecisionTree::Leaf(PackEnv { cells, unreachable }))
        }
        "N" => {
            let depth = depth.checked_sub(1)?;
            let var = CellId(t.u32()?);
            let f = decode_dtree(t, depth)?;
            let tt = decode_dtree(t, depth)?;
            // Reconstruct the node verbatim (`DecisionTree::node` would merge
            // equal children and alter the stored physical shape).
            Some(DecisionTree::Node { var, f: Box::new(f), t: Box::new(tt) })
        }
        _ => None,
    }
}

/// Serializes one abstract state as a sequence of lines.
fn encode_state(out: &mut String, st: &AbsState) {
    if st.is_bottom() {
        out.push_str("S 1\n");
        return;
    }
    out.push_str("S 0\n");
    let _ = writeln!(out, "k {} {}", st.env.clock.lo, st.env.clock.hi);
    let mut cells: Vec<(CellId, CellVal)> = st.env.iter().map(|(c, v)| (*c, *v)).collect();
    cells.sort_by_key(|(c, _)| *c);
    let _ = writeln!(out, "e {}", cells.len());
    for (c, v) in &cells {
        let _ = write!(out, "c {}", c.0);
        encode_cell_val(out, v);
        out.push('\n');
    }
    let _ = writeln!(out, "o {}", st.octs_iter().count());
    for (pi, o) in st.octs_iter() {
        let (n, m, closed) = o.to_raw();
        let _ = write!(out, "x {} {} {}", pi, n, closed as u8);
        // Run-length encode the matrix: widened octagons are mostly +inf.
        let mut i = 0;
        while i < m.len() {
            let bits = m[i].to_bits();
            let mut j = i + 1;
            while j < m.len() && m[j].to_bits() == bits {
                j += 1;
            }
            let _ = write!(out, " {}:{:016x}", j - i, bits);
            i = j;
        }
        out.push('\n');
    }
    let _ = writeln!(out, "d {}", st.dtrees_iter().count());
    for (pi, tree) in st.dtrees_iter() {
        let _ = write!(out, "t {pi}");
        encode_dtree(out, tree);
        out.push('\n');
    }
    let _ = writeln!(out, "l {}", st.ellipses_iter().count());
    for (pi, k) in st.ellipses_iter() {
        let _ = writeln!(out, "p {} {:016x} {:016x}", pi, k.to_bits(), st.pending(pi).to_bits());
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
        let depth = packs.dtrees.get(pi)?.bools.len();
        Some((pi, decode_dtree(t, depth)?))
    })?;
    let n = decode_count(lines, "l")?;
    let ells = decode_section(lines, "p", n, |t| {
        let pi = t.usize()?;
        packs.ellipses.get(pi)?;
        Some((pi, t.f64()?, t.f64()?))
    })?;
    Some(AbsState::from_parts(clock, cells, octs, dtrees, ells))
}

/// Steps over the lines of one encoded state without decoding them: what an
/// import can check of a state whose layout and packs it does not have.
fn skip_state<'a>(lines: &mut impl Iterator<Item = &'a str>) -> Option<()> {
    let mut t = toks(lines.next()?);
    if t.tok()? != "S" {
        return None;
    }
    if t.bool()? {
        return Some(());
    }
    if !lines.next()?.starts_with("k ") {
        return None;
    }
    for section in ["e", "o", "d", "l"] {
        for _ in 0..decode_count(lines, section)? {
            lines.next()?;
        }
    }
    Some(())
}

// ---------------------------------------------------------------------------
// One result, one file
// ---------------------------------------------------------------------------

fn serialize_result(key: &StoreKey, invariant: Option<&AbsState>, stats: &AnalysisStats) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{CACHE_FORMAT}");
    let _ =
        writeln!(out, "key {:016x} {:016x} {:016x}", key.analyzer, key.config_fp, key.program_fp);
    encode_stats(&mut out, stats);
    let _ = write!(out, "useful {}", stats.useful_octagon_packs.len());
    for u in &stats.useful_octagon_packs {
        let _ = write!(out, " {u}");
    }
    out.push('\n');
    match invariant {
        None => out.push_str("inv 0\n"),
        Some(st) => {
            out.push_str("inv 1\n");
            encode_state(&mut out, st);
        }
    }
    out.push_str("end\n");
    out
}

/// Parses the file of `key`. With `shapes` the invariant is decoded against
/// them; without (an import has neither) its lines are only stepped over and
/// the result carries none. `None` on any malformation, a header that is not
/// `key`'s, or anything after the result.
fn parse_result(
    key: &StoreKey,
    text: &str,
    shapes: Option<(&CellLayout, &Packs)>,
) -> Option<FullHit> {
    let mut lines = text.lines();
    if lines.next()? != CACHE_FORMAT {
        return None;
    }
    let mut t = toks(lines.next()?);
    if t.tok()? != "key"
        || t.hex64()? != key.analyzer
        || t.hex64()? != key.config_fp
        || t.hex64()? != key.program_fp
    {
        return None;
    }
    let stats_line = lines.next()?;
    let mut t = toks(lines.next()?);
    if t.tok()? != "useful" {
        return None;
    }
    // The count comes from the file: grow with the tokens actually there.
    let mut useful = Vec::new();
    for _ in 0..t.usize()? {
        useful.push(t.usize()?);
    }
    let stats = decode_stats(stats_line, useful)?;
    let mut t = toks(lines.next()?);
    if t.tok()? != "inv" {
        return None;
    }
    let invariant = match (t.bool()?, shapes) {
        (false, _) => None,
        (true, Some((layout, packs))) => Some(decode_state(&mut lines, layout, packs)?),
        (true, None) => {
            skip_state(&mut lines)?;
            None
        }
    };
    let closed = lines.next()? == "end" && lines.next().is_none();
    closed.then_some(FullHit { invariant, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::Census;
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
            volatile int in; int x; int y; _Bool b;
            void main(void) {
                __astree_input_int(in, 0, 100);
                while (1) {
                    x = in;
                    b = (_Bool)(x == 0);
                    if (!b) { y = 100 / x; }
                    __astree_wait();
                }
            }
        "#;
        (Frontend::new().compile_str(src).expect("compiles"), AnalysisConfig::default())
    }

    fn shapes(program: &astree_ir::Program, config: &AnalysisConfig) -> (CellLayout, Packs) {
        let layout = CellLayout::new(program, &LayoutConfig::default());
        let packs = Packs::discover(program, &layout, config);
        (layout, packs)
    }

    fn roundtrip(st: &AbsState, layout: &CellLayout, packs: &Packs) -> AbsState {
        let mut text = String::new();
        encode_state(&mut text, st);
        decode_state(&mut text.lines(), layout, packs).expect("decodes")
    }

    #[test]
    fn state_roundtrips_exactly_through_the_codec() {
        let (program, config) = sample();
        let (layout, packs) = shapes(&program, &config);
        let session = crate::analysis::AnalysisSession::builder(&program).config(config).build();
        let result = session.run();
        let inv = result.main_invariant.expect("has a main invariant");

        let decoded = roundtrip(&inv, &layout, &packs);
        assert_eq!(format!("{inv}"), format!("{decoded}"), "state round-trips verbatim");
        assert_eq!(
            Census::of_state(&inv, &layout, &packs),
            Census::of_state(&decoded, &layout, &packs),
        );
    }

    /// `decode(encode(s))` holds exactly `s`'s cells and packs — for a
    /// whole-program state and for the frame-sized state of a loop inside a
    /// framed call.
    #[test]
    fn decoding_keeps_the_encoded_key_set() {
        let src = astree_gen::generate(&astree_gen::GenConfig { channels: 4, seed: 3, bug: None });
        let program = Frontend::new().compile_str(&src).expect("compiles");
        let (layout, packs) = shapes(&program, &AnalysisConfig::default());
        let result = crate::analysis::AnalysisSession::builder(&program).build().run();
        let whole = result.main_invariant.expect("has a main invariant");
        let frames = crate::frames::Frames::discover(&program, &layout, &packs);
        let mut frames: Vec<_> = frames.framed().collect();
        frames.sort_by_key(|f| f.cells[0]);
        assert_eq!(frames.len(), 4, "one frame per stepK");
        let framed = whole.project(frames[0]);
        assert!(!framed.same_shape(&whole) && framed.env.len() == frames[0].cells.len());

        for st in [&whole, &framed] {
            let decoded = roundtrip(st, &layout, &packs);
            assert!(decoded.same_shape(st), "key set changed in the round trip");
            assert_eq!(format!("{st}"), format!("{decoded}"));
            assert!(decoded.leq(st) && st.leq(&decoded), "packs changed in the round trip");
        }
    }

    /// Two million `N 0` tokens: a tree no pack can hold, deep enough to
    /// overflow the stack of a decoder that recurses once per token.
    fn bottomless_tree() -> String {
        format!("t 0{}", " N 0".repeat(2_000_000))
    }

    #[test]
    fn malformed_states_do_not_decode() {
        let (program, config) = sample();
        let (layout, packs) = shapes(&program, &config);
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

        // Trees: as deep as the pack has booleans and no deeper, and a leaf
        // is as long as its tokens, whatever count it announces.
        assert_eq!(packs.dtrees[0].bools.len(), 1);
        let with_tree =
            |tree: &str| decode(&[&head[..], &["e 0", "o 0", "d 1", tree, "l 0"]].concat());
        let b = packs.dtrees[0].bools[0].0;
        assert!(with_tree(&format!("t 0 N {b} L 0 0 L 0 0")).is_some());
        assert!(with_tree(&format!("t 0 N {b} N {b} L 0 0 L 0 0 L 0 0")).is_none(), "two deep");
        assert!(with_tree(&bottomless_tree()).is_none());
        assert!(with_tree("t 0 L 0 1000000000000").is_none(), "a leaf of 10^12 cells");
    }

    #[test]
    fn bottom_states_roundtrip() {
        let (program, config) = sample();
        let (layout, packs) = shapes(&program, &config);
        let mut text = String::new();
        encode_state(&mut text, &AbsState::bottom());
        assert_eq!(text, "S 1\n");
        assert!(roundtrip(&AbsState::bottom(), &layout, &packs).is_bottom());
    }

    /// The sample's result under its real key, serialized.
    fn stored_sample() -> (StoreKey, String, CellLayout, Packs) {
        let (program, config) = sample();
        let (layout, packs) = shapes(&program, &config);
        let key = StoreKey::new(&program, &config);
        let r = crate::analysis::AnalysisSession::builder(&program).build().run();
        let text = serialize_result(&key, r.main_invariant.as_ref(), &r.stats);
        (key, text, layout, packs)
    }

    #[test]
    fn corrupt_files_fall_back_to_a_clean_miss() {
        let (key, good, layout, packs) = stored_sample();
        let name = key.file_name();
        let tree = good.lines().find(|l| l.starts_with("t 0 N ")).expect("the sample has a tree");
        let hostile = [
            "astree-cache/1\ngarbage\n".to_string(),
            // A count no file could back: must not be reserved up front.
            good.replace(" 0 0\nuseful 0\n", " 0 1000000000000\nuseful 0\n"),
            good.replace("\nuseful 0\n", "\nuseful 1000000000000\n"),
            good.replace(tree, &bottomless_tree()),
            // Something after the result.
            format!("{good}entry\n"),
        ];
        for (i, text) in hostile.iter().enumerate() {
            assert_ne!(text, &good, "hostile input {i} changed nothing");
            // Found on disk: a miss, counted.
            let store = temp_store(&format!("corrupt-disk-{i}"));
            std::fs::write(store.dir().join(&name), text).expect("writes");
            assert!(store.lookup_full(&key, &layout, &packs).is_none(), "hostile input {i}");
            assert_eq!(store.counters().corrupt_files, 1);
            assert_eq!(store.counters().bytes_read, text.len() as u64);
            // Offered by a peer: refused, or imported and then a miss.
            let store = temp_store(&format!("corrupt-wire-{i}"));
            let imported = store.import_file(&name, text);
            assert_eq!(
                imported,
                store.file_names() == std::slice::from_ref(&name),
                "hostile input {i}"
            );
            assert!(store.lookup_full(&key, &layout, &packs).is_none(), "hostile input {i}");
            assert_eq!(store.counters().corrupt_files, imported as u64);
            // Either way the next cold run's write repairs it.
            assert!(store.import_file(&name, &good));
            assert!(store.lookup_full(&key, &layout, &packs).is_some());
        }
    }

    #[test]
    fn truncated_files_fall_back_to_a_clean_miss() {
        let (key, full, layout, packs) = stored_sample();
        let store = temp_store("truncated");
        let path = store.dir().join(key.file_name());
        for cut in [full.len() / 2, full.len() - "end\n".len()] {
            std::fs::write(&path, &full[..cut]).expect("writes");
            let before = store.counters().corrupt_files;
            assert!(store.lookup_full(&key, &layout, &packs).is_none(), "cut at {cut}");
            assert_eq!(store.counters().corrupt_files, before + 1);
        }
        std::fs::write(&path, &full).expect("writes");
        assert!(store.lookup_full(&key, &layout, &packs).is_some());
    }

    /// A bounded store counts a dead writer's staging file toward its
    /// bound and evicts it like a result.
    #[test]
    fn a_bounded_store_evicts_stale_staging_files() {
        let (key, text, _, _) = stored_sample();
        let dir = temp_store("stale-staging").dir().to_path_buf();
        let store = InvariantStore::open_bounded(&dir, text.len() as u64 + 100).expect("opens");
        let stale = dir.join(format!("{}.1-0.tmp", key.file_name()));
        let file = std::fs::File::create(&stale).expect("plants");
        std::io::Write::write_all(&mut &file, &[b'x'; 1000]).expect("writes");
        file.set_modified(std::time::SystemTime::UNIX_EPOCH).expect("ages");
        drop(file);
        assert!(store.import_file(&key.file_name(), &text));
        assert!(!stale.exists(), "the staging file is evicted");
        assert_eq!(store.counters().evictions, 1);
        assert_eq!(store.file_names(), [key.file_name()]);

        // Unbounded, nothing is ever deleted.
        std::fs::write(&stale, [b'x'; 1000]).expect("plants");
        std::fs::remove_file(dir.join(key.file_name())).expect("removes");
        assert!(InvariantStore::open(&dir).expect("opens").import_file(&key.file_name(), &text));
        assert!(stale.exists());
    }

    /// A result is one file under a name made of its three fingerprints;
    /// names of earlier formats (`k-` with four groups, `p-`) are not store
    /// files: never listed, exported, imported or opened.
    #[test]
    fn one_result_per_file_and_older_files_are_ignored() {
        let (key, text, layout, packs) = stored_sample();
        let name = key.file_name();
        assert_eq!(StoreKey::from_file_name(&name), Some(key));
        let g = "0123456789abcdef";
        for bad in [
            format!("k-{g}-{g}.astc"),
            format!("k-{g}-{g}-{g}-{g}.astc"),
            format!("p-{g}.astc"),
            format!("k-{g}-{g}-{}.astc", g.to_uppercase()),
            format!("k-{g}-{g}-+123456789abcdef.astc"),
            format!("k-{g}-{g}-{g}.astc.tmp"),
            format!("../k-{g}-{g}-{g}.astc"),
        ] {
            assert!(!valid_store_file_name(&bad), "{bad}");
        }

        let store = temp_store("one-file");
        let old = format!("k-{g}-{g}-{g}-{g}.astc");
        std::fs::write(store.dir().join(&old), "astree-cache/4\nend\n").expect("writes");
        assert!(store.import_file(&name, &text));
        assert!(!store.import_file(&name, &text), "the same bytes again change nothing");
        assert!(!store.import_file(&old, &text) && store.export_file(&old).is_none());
        assert_eq!(store.file_names(), std::slice::from_ref(&name));
        assert_eq!(store.export_file(&name).as_deref(), Some(text.as_str()));
        assert!(store.lookup_full(&key, &layout, &packs).is_some());
        // A file under another result's name is not that result.
        let other = StoreKey { program_fp: key.program_fp ^ 1, ..key };
        assert!(!store.import_file(&other.file_name(), &text));
        assert_eq!(store.counters().corrupt_files, 0);
    }

    /// A result another build of the analyzer stored is never this build's:
    /// its name differs, so the lookup is a clean miss, not a corrupt file.
    #[test]
    fn another_analyzers_result_is_a_clean_miss() {
        let (key, text, layout, packs) = stored_sample();
        assert_eq!(key.analyzer, ANALYZER_ID);
        let older = StoreKey { analyzer: key.analyzer ^ 1, ..key };
        let store = temp_store("other-analyzer");
        let header = format!("key {:016x}", key.analyzer);
        let theirs = text.replace(&header, &format!("key {:016x}", older.analyzer));
        assert!(store.import_file(&older.file_name(), &theirs));
        assert!(store.lookup_full(&older, &layout, &packs).is_some(), "theirs is well formed");
        assert!(store.lookup_full(&key, &layout, &packs).is_none());
        assert_eq!(store.counters().corrupt_files, 0);
    }
}
