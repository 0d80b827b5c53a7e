//! Whole-program representation: variables, functions, records.

use crate::expr::{Access, Expr, Lvalue};
use crate::stmt::{Block, StmtId, StmtKind};
use crate::types::{RecordDef, ScalarType, Type};
use std::collections::HashSet;
use std::fmt;

/// Index of a variable in [`Program::vars`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Index of a function in [`Program::funcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FuncId(pub u32);

/// Storage class of a variable.
///
/// Statics are semantically globals with a fresh name (paper Sect. 4), so the
/// analyzer treats `Global` and `Static` identically; the distinction is kept
/// for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// File-scope variable.
    Global,
    /// `static` variable (block- or file-scope, program lifetime).
    Static,
    /// Function local, created and destroyed with the frame.
    Local,
    /// Function parameter.
    Param,
    /// Compiler-introduced temporary.
    Temp,
}

/// The environment-declared range of a volatile input variable
/// (paper Sect. 4: "ranges of values for a few hardware registers containing
/// volatile input variables").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputRange {
    /// Integer input in `[lo, hi]`.
    Int(i64, i64),
    /// Floating input in `[lo, hi]`.
    Float(f64, f64),
}

/// A variable: name, type, storage, volatility.
#[derive(Debug, Clone, PartialEq)]
pub struct VarInfo {
    /// Source name (made unique by the frontend).
    pub name: String,
    /// Object type.
    pub ty: Type,
    /// Storage class.
    pub kind: VarKind,
    /// `Some(range)` for volatile hardware inputs; reading such a variable
    /// after a [`StmtKind::ReadVolatile`] yields any value in the range.
    pub volatile_input: Option<InputRange>,
}

impl VarInfo {
    /// A non-volatile scalar variable.
    pub fn scalar(name: impl Into<String>, ty: ScalarType, kind: VarKind) -> VarInfo {
        VarInfo { name: name.into(), ty: Type::Scalar(ty), kind, volatile_input: None }
    }
}

/// How a parameter receives its argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Copied in.
    ByValue,
    /// Aliases the caller's l-value (a restricted `T*` in the source).
    ByRef,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// The variable standing for the parameter inside the body.
    pub var: VarId,
    /// Passing mode.
    pub kind: ParamKind,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Source name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<Param>,
    /// Return type, if non-`void`.
    pub ret: Option<ScalarType>,
    /// Local (stack) variables, created on entry.
    pub locals: Vec<VarId>,
    /// Body.
    pub body: Block,
}

/// A complete program in the analyzed subset.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// All variables (globals, statics, locals, params, temps).
    pub vars: Vec<VarInfo>,
    /// All functions.
    pub funcs: Vec<Function>,
    /// Record (struct) definitions.
    pub records: Vec<RecordDef>,
    /// The entry function (e.g. `main`).
    pub entry: FuncId,
}

impl Program {
    /// Creates an empty program (entry must be set after adding functions).
    pub fn new() -> Program {
        Program::default()
    }

    /// Adds a variable, returning its id.
    pub fn add_var(&mut self, v: VarInfo) -> VarId {
        self.vars.push(v);
        VarId(self.vars.len() as u32 - 1)
    }

    /// Adds a function, returning its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Looks up a variable.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// Looks up a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Finds a variable by name.
    pub fn var_by_name(&self, name: &str) -> Option<VarId> {
        self.vars.iter().position(|v| v.name == name).map(|i| VarId(i as u32))
    }

    /// The object type reached by an l-value's access path.
    ///
    /// # Panics
    ///
    /// Panics if the path is ill-typed (the frontend validates paths).
    pub fn lvalue_type(&self, lv: &Lvalue) -> Type {
        let mut t = self.var(lv.base).ty.clone();
        for a in &lv.path {
            t = match (t, a) {
                (Type::Array(elem, _), Access::Index(_)) => (*elem).clone(),
                (Type::Record(rid), Access::Field(f)) => {
                    self.records[rid.0 as usize].fields[*f as usize].1.clone()
                }
                (t, a) => panic!("ill-typed access {a:?} into {t:?}"),
            };
        }
        t
    }

    /// Re-numbers every statement id so they are unique across the program,
    /// in pre-order. Returns the number of statements.
    pub fn assign_stmt_ids(&mut self) -> u32 {
        fn renumber(block: &mut Block, next: &mut u32) {
            for s in block {
                s.id = StmtId(*next);
                *next += 1;
                match &mut s.kind {
                    StmtKind::If(_, a, b) => {
                        renumber(a, next);
                        renumber(b, next);
                    }
                    StmtKind::While(_, _, body) => renumber(body, next),
                    _ => {}
                }
            }
        }
        let mut next = 0;
        let mut funcs = std::mem::take(&mut self.funcs);
        for f in &mut funcs {
            renumber(&mut f.body, &mut next);
        }
        self.funcs = funcs;
        next
    }

    /// Validates the program's structural invariants. Returns a list of
    /// human-readable violations (empty means valid).
    ///
    /// Checks: call targets exist; the call graph is acyclic (no recursion,
    /// paper Sect. 5.4); loop ids are unique; l-value paths are well-typed;
    /// volatile inputs are scalars; the entry function exists and takes no
    /// parameters.
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        if self.funcs.is_empty() {
            errs.push("program has no functions".to_string());
            return errs;
        }
        if self.entry.0 as usize >= self.funcs.len() {
            errs.push(format!("entry function id {} out of range", self.entry.0));
            return errs;
        }
        if !self.func(self.entry).params.is_empty() {
            errs.push("entry function must take no parameters".to_string());
        }
        // Loop-id uniqueness and per-statement checks.
        let mut loop_ids = HashSet::new();
        for (fi, f) in self.funcs.iter().enumerate() {
            crate::stmt::for_each_stmt(&f.body, &mut |s| {
                match &s.kind {
                    StmtKind::While(id, _, _) if !loop_ids.insert(*id) => {
                        errs.push(format!("duplicate loop id {:?} in {}", id, f.name));
                    }
                    StmtKind::Call(_, callee, args) => {
                        if callee.0 as usize >= self.funcs.len() {
                            errs.push(format!(
                                "call to unknown function {:?} in {}",
                                callee, f.name
                            ));
                        } else {
                            let target = self.func(*callee);
                            if target.params.len() != args.len() {
                                errs.push(format!(
                                    "call to {} with {} args (expected {}) in {}",
                                    target.name,
                                    args.len(),
                                    target.params.len(),
                                    f.name
                                ));
                            }
                        }
                    }
                    StmtKind::ReadVolatile(v) if self.var(*v).volatile_input.is_none() => {
                        errs.push(format!(
                            "ReadVolatile on non-volatile {} in {}",
                            self.var(*v).name,
                            f.name
                        ));
                    }
                    _ => {}
                }
                let _ = fi;
            });
        }
        // Recursion check: DFS for cycles in the call graph.
        let n = self.funcs.len();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (fi, f) in self.funcs.iter().enumerate() {
            crate::stmt::for_each_stmt(&f.body, &mut |s| {
                if let StmtKind::Call(_, callee, _) = &s.kind {
                    if (callee.0 as usize) < n {
                        callees[fi].push(callee.0 as usize);
                    }
                }
            });
        }
        // 0 = unvisited, 1 = on stack, 2 = done
        let mut state = vec![0u8; n];
        fn dfs(u: usize, callees: &[Vec<usize>], state: &mut [u8]) -> bool {
            state[u] = 1;
            for &v in &callees[u] {
                if state[v] == 1 || (state[v] == 0 && dfs(v, callees, state)) {
                    return true;
                }
            }
            state[u] = 2;
            false
        }
        for u in 0..n {
            if state[u] == 0 && dfs(u, &callees, &mut state) {
                errs.push("recursion detected in the call graph".to_string());
                break;
            }
        }
        errs
    }

    /// Simple size metrics used by benches and reports.
    pub fn metrics(&self) -> Metrics {
        let mut stmts = 0usize;
        let mut loops = 0usize;
        for f in &self.funcs {
            crate::stmt::for_each_stmt(&f.body, &mut |s| {
                stmts += 1;
                if matches!(s.kind, StmtKind::While(..)) {
                    loops += 1;
                }
            });
        }
        let globals = self
            .vars
            .iter()
            .filter(|v| matches!(v.kind, VarKind::Global | VarKind::Static))
            .count();
        let cells = self
            .vars
            .iter()
            .filter(|v| matches!(v.kind, VarKind::Global | VarKind::Static))
            .map(|v| v.ty.scalar_count(&self.records))
            .sum();
        Metrics {
            statements: stmts,
            loops,
            functions: self.funcs.len(),
            globals,
            global_cells: cells,
        }
    }

    /// Evaluates a compile-time-constant expression, if it is one
    /// (constant folding, paper Sect. 5.1).
    pub fn const_eval(e: &Expr) -> Option<ConstValue> {
        use crate::expr::{Binop, Unop};
        match e {
            Expr::Int(v, _) => Some(ConstValue::Int(*v)),
            Expr::Float(b, _) => Some(ConstValue::Float(b.get())),
            Expr::Load(..) => None,
            Expr::Unop(op, t, a) => {
                let a = Self::const_eval(a)?;
                match (op, a) {
                    (Unop::Neg, ConstValue::Int(x)) => {
                        if let ScalarType::Int(it) = t {
                            let r = x.checked_neg()?;
                            it.contains(r).then_some(ConstValue::Int(r))
                        } else {
                            None
                        }
                    }
                    (Unop::Neg, ConstValue::Float(x)) => Some(ConstValue::Float(-x)),
                    (Unop::LNot, ConstValue::Int(x)) => Some(ConstValue::Int((x == 0) as i64)),
                    (Unop::BNot, ConstValue::Int(x)) => {
                        if let ScalarType::Int(it) = t {
                            Some(ConstValue::Int(it.wrap(!x)))
                        } else {
                            None
                        }
                    }
                    _ => None,
                }
            }
            Expr::Binop(op, t, a, b) => {
                let a = Self::const_eval(a)?;
                let b = Self::const_eval(b)?;
                match (a, b) {
                    (ConstValue::Int(x), ConstValue::Int(y)) => {
                        let r = match op {
                            Binop::Add => x.checked_add(y)?,
                            Binop::Sub => x.checked_sub(y)?,
                            Binop::Mul => x.checked_mul(y)?,
                            Binop::Div => {
                                if y == 0 {
                                    return None;
                                }
                                x.checked_div(y)?
                            }
                            Binop::Rem => {
                                if y == 0 {
                                    return None;
                                }
                                x.checked_rem(y)?
                            }
                            Binop::BAnd => x & y,
                            Binop::BOr => x | y,
                            Binop::BXor => x ^ y,
                            Binop::Shl => {
                                if !(0..64).contains(&y) {
                                    return None;
                                }
                                x.checked_shl(y as u32)?
                            }
                            Binop::Shr => {
                                if !(0..64).contains(&y) {
                                    return None;
                                }
                                x >> y
                            }
                            Binop::Lt => (x < y) as i64,
                            Binop::Le => (x <= y) as i64,
                            Binop::Gt => (x > y) as i64,
                            Binop::Ge => (x >= y) as i64,
                            Binop::Eq => (x == y) as i64,
                            Binop::Ne => (x != y) as i64,
                            Binop::LAnd => ((x != 0) && (y != 0)) as i64,
                            Binop::LOr => ((x != 0) || (y != 0)) as i64,
                        };
                        if op.is_comparison() || op.is_logical() {
                            Some(ConstValue::Int(r))
                        } else if let ScalarType::Int(it) = t {
                            it.contains(r).then_some(ConstValue::Int(r))
                        } else {
                            None
                        }
                    }
                    (ConstValue::Float(x), ConstValue::Float(y)) => {
                        let r = match op {
                            Binop::Add => x + y,
                            Binop::Sub => x - y,
                            Binop::Mul => x * y,
                            Binop::Div => x / y,
                            Binop::Lt => return Some(ConstValue::Int((x < y) as i64)),
                            Binop::Le => return Some(ConstValue::Int((x <= y) as i64)),
                            Binop::Gt => return Some(ConstValue::Int((x > y) as i64)),
                            Binop::Ge => return Some(ConstValue::Int((x >= y) as i64)),
                            Binop::Eq => return Some(ConstValue::Int((x == y) as i64)),
                            Binop::Ne => return Some(ConstValue::Int((x != y) as i64)),
                            _ => return None,
                        };
                        let r = if let ScalarType::Float(k) = t { k.round_nearest(r) } else { r };
                        r.is_finite().then_some(ConstValue::Float(r))
                    }
                    _ => None,
                }
            }
            Expr::Cast(t, a) => {
                let a = Self::const_eval(a)?;
                match (*t, a) {
                    (ScalarType::Int(it), ConstValue::Int(x)) => Some(ConstValue::Int(it.wrap(x))),
                    (ScalarType::Float(k), ConstValue::Int(x)) => {
                        Some(ConstValue::Float(k.round_nearest(x as f64)))
                    }
                    (ScalarType::Float(k), ConstValue::Float(x)) => {
                        Some(ConstValue::Float(k.round_nearest(x)))
                    }
                    (ScalarType::Int(it), ConstValue::Float(x)) => {
                        let t = x.trunc();
                        (t >= it.min() as f64 && t <= it.max() as f64)
                            .then_some(ConstValue::Int(t as i64))
                    }
                }
            }
        }
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConstValue {
    /// Integer constant.
    Int(i64),
    /// Float constant.
    Float(f64),
}

/// Program size metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metrics {
    /// Total statements across all functions.
    pub statements: usize,
    /// Number of loops.
    pub loops: usize,
    /// Number of functions.
    pub functions: usize,
    /// Number of global/static variables.
    pub globals: usize,
    /// Number of scalar cells after array/record expansion.
    pub global_cells: usize,
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} statements, {} loops, {} functions, {} globals ({} cells)",
            self.statements, self.loops, self.functions, self.globals, self.global_cells
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Binop;
    use crate::stmt::{LoopId, Stmt};
    use crate::types::{FloatKind, IntType};

    fn empty_main() -> Program {
        let mut p = Program::new();
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![],
        });
        p
    }

    #[test]
    fn validate_empty_main() {
        let p = empty_main();
        assert!(p.validate().is_empty());
    }

    #[test]
    fn validate_rejects_recursion() {
        let mut p = Program::new();
        let body = vec![Stmt::new(StmtKind::Call(None, FuncId(0), vec![]))];
        p.add_func(Function { name: "f".into(), params: vec![], ret: None, locals: vec![], body });
        let errs = p.validate();
        assert!(errs.iter().any(|e| e.contains("recursion")), "{errs:?}");
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut p = Program::new();
        let x = p.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Param));
        p.add_func(Function {
            name: "callee".into(),
            params: vec![Param { var: x, kind: ParamKind::ByValue }],
            ret: None,
            locals: vec![],
            body: vec![],
        });
        let body = vec![Stmt::new(StmtKind::Call(None, FuncId(0), vec![]))];
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.entry = FuncId(1);
        let errs = p.validate();
        assert!(errs.iter().any(|e| e.contains("expected 1")), "{errs:?}");
    }

    #[test]
    fn stmt_ids_are_unique_preorder() {
        let mut p = empty_main();
        p.funcs[0].body = vec![
            Stmt::new(StmtKind::If(
                Expr::int(1),
                vec![Stmt::new(StmtKind::Wait)],
                vec![Stmt::new(StmtKind::Wait)],
            )),
            Stmt::new(StmtKind::Return(None)),
        ];
        let n = p.assign_stmt_ids();
        assert_eq!(n, 4);
        let mut ids = Vec::new();
        crate::stmt::for_each_stmt(&p.funcs[0].body, &mut |s| ids.push(s.id.0));
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn lvalue_types_resolve() {
        let mut p = empty_main();
        let arr = p.add_var(VarInfo {
            name: "a".into(),
            ty: Type::Array(Box::new(Type::float(FloatKind::F64)), 4),
            kind: VarKind::Global,
            volatile_input: None,
        });
        let lv = Lvalue::index(arr, Expr::int(2));
        assert_eq!(p.lvalue_type(&lv).as_scalar(), Some(ScalarType::Float(FloatKind::F64)));
    }

    #[test]
    fn const_eval_folds() {
        let t = ScalarType::Int(IntType::INT);
        let e = Expr::Binop(Binop::Add, t, Box::new(Expr::int(2)), Box::new(Expr::int(3)));
        assert_eq!(Program::const_eval(&e), Some(ConstValue::Int(5)));
        // Overflow at the op type is not a constant.
        let e = Expr::Binop(
            Binop::Add,
            t,
            Box::new(Expr::int(i32::MAX as i64)),
            Box::new(Expr::int(1)),
        );
        assert_eq!(Program::const_eval(&e), None);
        // Division by zero is not a constant.
        let e = Expr::Binop(Binop::Div, t, Box::new(Expr::int(1)), Box::new(Expr::int(0)));
        assert_eq!(Program::const_eval(&e), None);
        // Casts wrap.
        let e = Expr::Cast(ScalarType::Int(IntType::UCHAR), Box::new(Expr::int(257)));
        assert_eq!(Program::const_eval(&e), Some(ConstValue::Int(1)));
    }

    #[test]
    fn metrics_count() {
        let mut p = empty_main();
        p.funcs[0].body = vec![Stmt::new(StmtKind::While(
            LoopId(0),
            Expr::int(1),
            vec![Stmt::new(StmtKind::Wait)],
        ))];
        let m = p.metrics();
        assert_eq!(m.statements, 2);
        assert_eq!(m.loops, 1);
        assert_eq!(m.functions, 1);
    }
}
