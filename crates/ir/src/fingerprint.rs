//! Content fingerprints of programs.
//!
//! The invariant store (`astree-core`'s `cache` module) replays a stored
//! result only on an exact match, so it needs one notion of identity: the
//! **exact** program fingerprint ([`program_fingerprint`]), which covers
//! every analysis-visible detail *including* statement ids, loop ids and
//! source locations. Two programs with equal exact fingerprints produce
//! byte-identical analysis results (alarms carry statement ids and lines,
//! so those must match for a stored result to be replayable verbatim). It
//! also covers the variable and record tables, which determine the cell
//! layout.
//!
//! The **stable** per-function closure fingerprints ([`func_fingerprints`],
//! [`parametric_fingerprints`]) exclude statement ids, loop ids and
//! locations and name variables by (name, type, storage); they fed the
//! seeding layers and have no in-tree caller left (see the comments on
//! them).
//!
//! All hashing is 64-bit FNV-1a: deterministic across runs and platforms,
//! dependency-free, and fast enough to fingerprint the whole program family
//! in well under a millisecond.

use crate::expr::{Access, Expr, Lvalue};
use crate::program::{FuncId, InputRange, Program, VarId, VarInfo, VarKind};
use crate::stmt::{Block, CallArg, Stmt, StmtKind};
use crate::types::{FloatKind, IntType, RecordDef, ScalarType, Type};

/// 64-bit FNV-1a streaming hasher.
///
/// Deterministic (unlike `std`'s `DefaultHasher`, which is randomly seeded
/// per process) and stable across platforms, so fingerprints can key an
/// on-disk cache.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    /// Feeds one byte.
    pub fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Feeds a byte slice.
    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds an `i64`.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Feeds a `usize` (as `u64`, so 32- and 64-bit hosts agree).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Feeds an `f64` by IEEE bit pattern (distinguishes `-0.0` from `0.0`).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What the statement-level hasher should do with identities that the
/// frontend renumbers globally (statement ids, loop ids, locations, variable
/// ids).
#[derive(Clone, Copy, PartialEq, Eq)]
enum IdMode<'a> {
    /// Hash them raw: exact identity, replay-safe.
    Exact,
    // `Stable` and `Parametric` serve only `func_fingerprints` and
    // `parametric_fingerprints`, kept for `benchsuite/src/layers.rs`.
    /// Skip them; name variables structurally. Edit-stable.
    Stable,
    /// Like [`IdMode::Stable`], but canonicalize the given channel tag out of
    /// every identifier first (see [`canon_ident`]). With an empty tag this
    /// produces the same digest as `Stable`.
    Parametric(&'a str),
}

impl IdMode<'_> {
    fn hash_name(self, h: &mut Fnv, name: &str) {
        match self {
            IdMode::Parametric(tag) if !tag.is_empty() => h.str(&canon_ident(name, tag)),
            _ => h.str(name),
        }
    }
}

// Kept only under `parametric_fingerprints` (see there).
/// The channel tag of a generated function name: its longest trailing run of
/// ASCII digits (`"step12"` → `"12"`), or `""` when the name has none.
pub fn channel_tag(name: &str) -> &str {
    let stem = name.trim_end_matches(|c: char| c.is_ascii_digit());
    &name[stem.len()..]
}

// Kept only under `parametric_fingerprints` (see there).
/// Canonicalizes a generated identifier (or abstract-cell name) against a
/// channel tag: every maximal run of ASCII digits that equals `tag` and is
/// preceded by a letter or `_` is replaced by `#`. Array indices stay
/// (`"hist12[3]"` with tag `"12"` → `"hist#[3]"`: the `3` follows `[`).
/// With an empty tag this is the identity.
pub fn canon_ident(name: &str, tag: &str) -> String {
    if tag.is_empty() {
        return name.to_string();
    }
    let bytes = name.as_bytes();
    let mut out = String::with_capacity(name.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i].is_ascii_digit() {
            let start = i;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            let run = &name[start..i];
            let preceded =
                start > 0 && (bytes[start - 1].is_ascii_alphabetic() || bytes[start - 1] == b'_');
            if preceded && run == tag {
                out.push('#');
            } else {
                out.push_str(run);
            }
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    out
}

fn hash_int_type(h: &mut Fnv, t: IntType) {
    h.byte(t.bits);
    h.byte(t.signed as u8);
}

fn hash_scalar_type(h: &mut Fnv, t: ScalarType) {
    match t {
        ScalarType::Int(it) => {
            h.byte(0);
            hash_int_type(h, it);
        }
        ScalarType::Float(FloatKind::F32) => h.byte(1),
        ScalarType::Float(FloatKind::F64) => h.byte(2),
    }
}

fn hash_type(h: &mut Fnv, t: &Type, records: &[RecordDef]) {
    match t {
        Type::Scalar(s) => {
            h.byte(0);
            hash_scalar_type(h, *s);
        }
        Type::Array(elem, n) => {
            h.byte(1);
            h.usize(*n);
            hash_type(h, elem, records);
        }
        Type::Record(id) => {
            // Expand the record structurally (name + fields) so the
            // fingerprint does not depend on record-table ordering.
            let def = &records[id.0 as usize];
            h.byte(2);
            h.str(&def.name);
            h.usize(def.fields.len());
            for (fname, fty) in &def.fields {
                h.str(fname);
                hash_type(h, fty, records);
            }
        }
    }
}

fn hash_var_ref(h: &mut Fnv, program: &Program, v: VarId, mode: IdMode<'_>) {
    match mode {
        IdMode::Exact => h.u32(v.0),
        IdMode::Stable | IdMode::Parametric(_) => {
            // Identify the variable by what the analyzer sees, not by its
            // slot in the global table (adding a local to one function
            // shifts every later variable id).
            let info: &VarInfo = program.var(v);
            mode.hash_name(h, &info.name);
            hash_type(h, &info.ty, &program.records);
            h.byte(match info.kind {
                VarKind::Global => 0,
                VarKind::Static => 1,
                VarKind::Local => 2,
                VarKind::Param => 3,
                VarKind::Temp => 4,
            });
            hash_input_range(h, info.volatile_input);
        }
    }
}

fn hash_input_range(h: &mut Fnv, r: Option<InputRange>) {
    match r {
        None => h.byte(0),
        Some(InputRange::Int(lo, hi)) => {
            h.byte(1);
            h.i64(lo);
            h.i64(hi);
        }
        Some(InputRange::Float(lo, hi)) => {
            h.byte(2);
            h.f64(lo);
            h.f64(hi);
        }
    }
}

fn hash_lvalue(h: &mut Fnv, program: &Program, lv: &Lvalue, mode: IdMode<'_>) {
    hash_var_ref(h, program, lv.base, mode);
    h.usize(lv.path.len());
    for a in &lv.path {
        match a {
            Access::Field(f) => {
                h.byte(0);
                h.u32(*f);
            }
            Access::Index(e) => {
                h.byte(1);
                hash_expr(h, program, e, mode);
            }
        }
    }
}

fn hash_expr(h: &mut Fnv, program: &Program, e: &Expr, mode: IdMode<'_>) {
    match e {
        Expr::Int(v, t) => {
            h.byte(0);
            h.i64(*v);
            hash_int_type(h, *t);
        }
        Expr::Float(bits, k) => {
            h.byte(1);
            h.u64(bits.get().to_bits());
            h.byte(matches!(k, FloatKind::F64) as u8);
        }
        Expr::Load(lv, t) => {
            h.byte(2);
            hash_lvalue(h, program, lv, mode);
            hash_scalar_type(h, *t);
        }
        Expr::Unop(op, t, a) => {
            h.byte(3);
            h.byte(*op as u8);
            hash_scalar_type(h, *t);
            hash_expr(h, program, a, mode);
        }
        Expr::Binop(op, t, a, b) => {
            h.byte(4);
            h.byte(*op as u8);
            hash_scalar_type(h, *t);
            hash_expr(h, program, a, mode);
            hash_expr(h, program, b, mode);
        }
        Expr::Cast(t, a) => {
            h.byte(5);
            hash_scalar_type(h, *t);
            hash_expr(h, program, a, mode);
        }
    }
}

/// Hashes a statement. `callee_fp(f)` supplies the identity of a called
/// function: the raw id in exact mode, the callee's closure fingerprint in
/// stable mode.
fn hash_stmt(
    h: &mut Fnv,
    program: &Program,
    s: &Stmt,
    mode: IdMode<'_>,
    callee_fp: &impl Fn(FuncId) -> u64,
) {
    if mode == IdMode::Exact {
        h.u32(s.id.0);
        h.u32(s.loc.line);
    }
    match &s.kind {
        StmtKind::Assign(lv, e) => {
            h.byte(0);
            hash_lvalue(h, program, lv, mode);
            hash_expr(h, program, e, mode);
        }
        StmtKind::If(c, a, b) => {
            h.byte(1);
            hash_expr(h, program, c, mode);
            hash_block(h, program, a, mode, callee_fp);
            hash_block(h, program, b, mode, callee_fp);
        }
        StmtKind::While(id, c, body) => {
            h.byte(2);
            if mode == IdMode::Exact {
                h.u32(id.0);
            }
            hash_expr(h, program, c, mode);
            hash_block(h, program, body, mode, callee_fp);
        }
        StmtKind::Call(ret, callee, args) => {
            h.byte(3);
            match ret {
                None => h.byte(0),
                Some(lv) => {
                    h.byte(1);
                    hash_lvalue(h, program, lv, mode);
                }
            }
            h.u64(callee_fp(*callee));
            h.usize(args.len());
            for a in args {
                match a {
                    CallArg::Value(e) => {
                        h.byte(0);
                        hash_expr(h, program, e, mode);
                    }
                    CallArg::Ref(lv) => {
                        h.byte(1);
                        hash_lvalue(h, program, lv, mode);
                    }
                }
            }
        }
        StmtKind::Return(e) => {
            h.byte(4);
            match e {
                None => h.byte(0),
                Some(e) => {
                    h.byte(1);
                    hash_expr(h, program, e, mode);
                }
            }
        }
        StmtKind::Wait => h.byte(5),
        StmtKind::Assume(e) => {
            h.byte(6);
            hash_expr(h, program, e, mode);
        }
        StmtKind::ReadVolatile(v) => {
            h.byte(7);
            hash_var_ref(h, program, *v, mode);
        }
    }
}

fn hash_block(
    h: &mut Fnv,
    program: &Program,
    b: &Block,
    mode: IdMode<'_>,
    callee_fp: &impl Fn(FuncId) -> u64,
) {
    h.usize(b.len());
    for s in b {
        hash_stmt(h, program, s, mode, callee_fp);
    }
}

fn hash_func_shape(h: &mut Fnv, program: &Program, f: &crate::program::Function, mode: IdMode<'_>) {
    mode.hash_name(h, &f.name);
    h.usize(f.params.len());
    for p in &f.params {
        h.byte(matches!(p.kind, crate::program::ParamKind::ByRef) as u8);
        hash_var_ref(h, program, p.var, mode);
    }
    match f.ret {
        None => h.byte(0),
        Some(t) => {
            h.byte(1);
            hash_scalar_type(h, t);
        }
    }
    h.usize(f.locals.len());
    for &l in &f.locals {
        hash_var_ref(h, program, l, mode);
    }
}

/// Exact whole-program fingerprint.
///
/// Covers the full variable table, records, every function (including
/// statement ids, loop ids and source lines) and the entry point. Equal
/// fingerprints ⇒ the analyzer produces identical results, down to the
/// statement ids and lines carried by alarms — the key of the full-result
/// replay path of the invariant cache.
pub fn program_fingerprint(program: &Program) -> u64 {
    let mut h = Fnv::new();
    h.usize(program.vars.len());
    for v in &program.vars {
        h.str(&v.name);
        hash_type(&mut h, &v.ty, &program.records);
        h.byte(v.kind as u8);
        hash_input_range(&mut h, v.volatile_input);
    }
    h.usize(program.records.len());
    for r in &program.records {
        h.str(&r.name);
        h.usize(r.fields.len());
        for (fname, fty) in &r.fields {
            h.str(fname);
            hash_type(&mut h, fty, &program.records);
        }
    }
    h.usize(program.funcs.len());
    let exact_callee = |f: FuncId| u64::from(f.0);
    for f in &program.funcs {
        hash_func_shape(&mut h, program, f, IdMode::Exact);
        hash_block(&mut h, program, &f.body, IdMode::Exact, &exact_callee);
    }
    h.u32(program.entry.0);
    h.finish()
}

// No in-tree caller: kept because `benchsuite/src/layers.rs` times it.
/// Stable closure fingerprint of every function, indexed by `FuncId`.
///
/// Excludes statement/loop ids and locations; folds in the closure
/// fingerprints of all callees (memoized — the call graph is acyclic: no
/// recursion, paper Sect. 5.4). A function keeps its fingerprint across
/// edits to *other* functions even though the frontend renumbers ids
/// program-wide.
pub fn func_fingerprints(program: &Program) -> Vec<u64> {
    let n = program.funcs.len();
    let mut memo: Vec<Option<u64>> = vec![None; n];
    for i in 0..n {
        closure_fp(program, i, IdMode::Stable, &mut memo, 0);
    }
    memo.into_iter().map(|m| m.unwrap_or(0)).collect()
}

// No in-tree caller: kept because `benchsuite/src/layers.rs` times it.
/// Channel-count-parametric closure fingerprint of every function, indexed
/// by `FuncId`.
///
/// Like [`func_fingerprints`], but each function is hashed with its own
/// channel tag (the trailing digit run of its name, see [`channel_tag`])
/// canonicalized out of every identifier in its whole call closure. Two
/// generated functions that differ only in their channel index — `step3` in
/// a 4-channel member and `step3` in a 46-channel member, or any pair whose
/// bodies coincide up to the tag — share a parametric fingerprint.
/// Functions without a tag hash exactly as in stable mode.
pub fn parametric_fingerprints(program: &Program) -> Vec<u64> {
    let n = program.funcs.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let tag = channel_tag(&program.funcs[i].name).to_string();
        // The memo is per root: the root's tag applies to the whole closure.
        let mut memo: Vec<Option<u64>> = vec![None; n];
        out.push(closure_fp(program, i, IdMode::Parametric(&tag), &mut memo, 0));
    }
    out
}

fn closure_fp(
    program: &Program,
    idx: usize,
    mode: IdMode<'_>,
    memo: &mut Vec<Option<u64>>,
    depth: usize,
) -> u64 {
    if let Some(fp) = memo[idx] {
        return fp;
    }
    // The call graph is acyclic for valid programs; the depth bound keeps an
    // invalid (recursive) program from overflowing the stack — such programs
    // are rejected before analysis anyway.
    if depth > program.funcs.len() {
        return 0;
    }
    let f = &program.funcs[idx];
    let mut h = Fnv::new();
    hash_func_shape(&mut h, program, f, mode);
    // Collect callee fingerprints first (can't borrow memo mutably inside
    // the Fn closure), then hash the body with a lookup table.
    let mut callees: Vec<(u32, u64)> = Vec::new();
    crate::stmt::for_each_stmt(&f.body, &mut |s| {
        if let StmtKind::Call(_, callee, _) = &s.kind {
            if !callees.iter().any(|(c, _)| *c == callee.0) {
                callees.push((callee.0, 0));
            }
        }
    });
    for entry in &mut callees {
        let c = entry.0 as usize;
        entry.1 = if c == idx { 0 } else { closure_fp(program, c, mode, memo, depth + 1) };
    }
    let lookup =
        |f: FuncId| callees.iter().find(|(c, _)| *c == f.0).map(|(_, fp)| *fp).unwrap_or(0);
    hash_block(&mut h, program, &f.body, mode, &lookup);
    let fp = h.finish();
    memo[idx] = Some(fp);
    fp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Function, VarInfo};
    use crate::stmt::{Loc, LoopId, StmtId};
    use crate::types::IntType;

    fn two_func_program() -> Program {
        let mut p = Program::new();
        let x = p.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Global));
        let y = p.add_var(VarInfo::scalar("y", ScalarType::Int(IntType::INT), VarKind::Global));
        let helper_body = vec![Stmt::new(StmtKind::Assign(Lvalue::var(y), Expr::int(7)))];
        let helper = p.add_func(Function {
            name: "helper".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: helper_body,
        });
        let main_body = vec![
            Stmt::new(StmtKind::Assign(Lvalue::var(x), Expr::int(1))),
            Stmt::new(StmtKind::Call(None, helper, vec![])),
        ];
        let main = p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: main_body,
        });
        p.entry = main;
        p.assign_stmt_ids();
        p
    }

    #[test]
    fn fingerprints_are_deterministic() {
        let p = two_func_program();
        assert_eq!(program_fingerprint(&p), program_fingerprint(&p));
        assert_eq!(func_fingerprints(&p), func_fingerprints(&p));
    }

    #[test]
    fn exact_fingerprint_sees_ids_and_locations() {
        let p = two_func_program();
        let base = program_fingerprint(&p);
        let mut q = p.clone();
        q.funcs[1].body[0].loc = Loc::line(99);
        assert_ne!(base, program_fingerprint(&q), "location change must miss");
        let mut q = p.clone();
        q.funcs[1].body[0].id = StmtId(1000);
        assert_ne!(base, program_fingerprint(&q), "stmt-id change must miss");
    }

    #[test]
    fn stable_fingerprint_ignores_ids_and_locations() {
        let p = two_func_program();
        let base = func_fingerprints(&p);
        let mut q = p.clone();
        q.funcs[0].body[0].loc = Loc::line(42);
        q.funcs[0].body[0].id = StmtId(500);
        q.funcs[1].body[0].id = StmtId(501);
        assert_eq!(base, func_fingerprints(&q));
    }

    #[test]
    fn editing_a_body_changes_it_and_its_callers_only() {
        let p = two_func_program();
        let base = func_fingerprints(&p);
        let mut q = p.clone();
        // Change the constant stored by helper.
        q.funcs[0].body[0].kind = StmtKind::Assign(Lvalue::var(VarId(1)), Expr::int(8));
        let edited = func_fingerprints(&q);
        assert_ne!(base[0], edited[0], "edited function must change");
        assert_ne!(base[1], edited[1], "caller's closure must change");

        // A third function not calling helper keeps its fingerprint.
        let mut p3 = p.clone();
        p3.add_func(Function {
            name: "leaf".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Wait)],
        });
        let mut q3 = p3.clone();
        q3.funcs[0].body[0].kind = StmtKind::Assign(Lvalue::var(VarId(1)), Expr::int(8));
        assert_eq!(func_fingerprints(&p3)[2], func_fingerprints(&q3)[2]);
    }

    #[test]
    fn stable_fingerprint_names_vars_not_ids() {
        // Same function body, but the variable sits at a different slot in
        // the table: the stable fingerprint must agree, the exact one not.
        let mut a = Program::new();
        let xa = a.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Global));
        a.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Assign(Lvalue::var(xa), Expr::int(3)))],
        });
        a.assign_stmt_ids();

        let mut b = Program::new();
        b.add_var(VarInfo::scalar("pad", ScalarType::Int(IntType::INT), VarKind::Global));
        let xb = b.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Global));
        b.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Assign(Lvalue::var(xb), Expr::int(3)))],
        });
        b.assign_stmt_ids();

        assert_eq!(func_fingerprints(&a)[0], func_fingerprints(&b)[0]);
        assert_ne!(program_fingerprint(&a), program_fingerprint(&b));
    }

    #[test]
    fn channel_tag_and_canonicalization() {
        assert_eq!(channel_tag("step12"), "12");
        assert_eq!(channel_tag("step0"), "0");
        assert_eq!(channel_tag("main"), "");
        assert_eq!(channel_tag("7"), "7");

        assert_eq!(canon_ident("hist_x12[3]", "12"), "hist_x#[3]");
        assert_eq!(canon_ident("step12::k", "12"), "step#::k");
        assert_eq!(canon_ident("tbl12[12]", "12"), "tbl#[12]", "array index stays");
        assert_eq!(canon_ident("x1", "12"), "x1", "different run untouched");
        assert_eq!(canon_ident("x120", "12"), "x120", "maximal run only");
        assert_eq!(canon_ident("anything", ""), "anything");
    }

    fn one_loop_program(var: &str, fname: &str) -> Program {
        let mut p = Program::new();
        let x = p.add_var(VarInfo::scalar(var, ScalarType::Int(IntType::INT), VarKind::Global));
        let body = vec![Stmt::new(StmtKind::While(
            LoopId(0),
            Expr::int(1),
            vec![Stmt::new(StmtKind::Assign(Lvalue::var(x), Expr::int(1)))],
        ))];
        p.add_func(Function {
            name: fname.into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.entry = FuncId(0);
        p.assign_stmt_ids();
        p
    }

    #[test]
    fn parametric_fingerprint_matches_across_channel_tags() {
        let a = one_loop_program("flt3", "step3");
        let b = one_loop_program("flt7", "step7");
        let c = one_loop_program("other3", "step3");
        assert_eq!(parametric_fingerprints(&a)[0], parametric_fingerprints(&b)[0]);
        assert_ne!(parametric_fingerprints(&a)[0], parametric_fingerprints(&c)[0]);
        // Untagged functions hash exactly as in stable mode.
        let m = one_loop_program("x", "main");
        assert_eq!(parametric_fingerprints(&m)[0], func_fingerprints(&m)[0]);
    }

    #[test]
    fn loop_ids_do_not_leak_into_stable_fingerprints() {
        let mk = |lid: u32| {
            let mut p = Program::new();
            let x = p.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Global));
            p.add_func(Function {
                name: "main".into(),
                params: vec![],
                ret: None,
                locals: vec![],
                body: vec![Stmt::new(StmtKind::While(
                    LoopId(lid),
                    Expr::int(1),
                    vec![Stmt::new(StmtKind::Assign(Lvalue::var(x), Expr::int(1)))],
                ))],
            });
            p.assign_stmt_ids();
            p
        };
        assert_eq!(func_fingerprints(&mk(0))[0], func_fingerprints(&mk(9))[0]);
        assert_ne!(program_fingerprint(&mk(0)), program_fingerprint(&mk(9)));
    }
}
