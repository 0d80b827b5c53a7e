//! Abstract transfer functions: expression evaluation, guards, assignments,
//! volatile refreshes and the clock tick.
//!
//! Evaluation follows the paper's two-layer scheme: a bottom-up interval
//! evaluation that reports every potential run-time error (Sect. 5.3), then
//! — when no error is possible — a refinement through interval linear forms
//! (Sect. 6.3) whose rounding error is absorbed into the constant term.

use crate::env::{AbsEnv, CellVal};
use crate::layout::{CellId, CellLayout, Resolved};
use astree_domains::{Clocked, ErrFlags, FloatItv, IntItv, LinForm};
use astree_float::round;
use astree_ir::{
    Binop, Expr, FloatKind, InputRange, IntType, Lvalue, Program, ScalarType, Unop, VarId,
};

/// An abstract scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AbsVal {
    /// An integer interval.
    Int(IntItv),
    /// A float interval.
    Float(FloatItv),
}

impl AbsVal {
    /// `true` when no concrete value is denoted.
    pub fn is_bottom(&self) -> bool {
        match self {
            AbsVal::Int(i) => i.is_bottom(),
            AbsVal::Float(f) => f.is_bottom(),
        }
    }

    /// The integer interval.
    ///
    /// # Panics
    ///
    /// Panics on a float value (the IR is well-typed, so this indicates an
    /// analyzer bug).
    pub fn as_int(&self) -> IntItv {
        match self {
            AbsVal::Int(i) => *i,
            AbsVal::Float(f) => panic!("expected int abstract value, got {f}"),
        }
    }

    /// The float interval.
    ///
    /// # Panics
    ///
    /// Panics on an integer value.
    pub fn as_float(&self) -> FloatItv {
        match self {
            AbsVal::Float(f) => *f,
            AbsVal::Int(i) => panic!("expected float abstract value, got {i}"),
        }
    }

    /// (may be zero, may be non-zero) — C truthiness of the value.
    pub fn truthiness(&self) -> (bool, bool) {
        match self {
            AbsVal::Int(i) => {
                if i.is_bottom() {
                    (false, false)
                } else {
                    (i.contains(0), i.lo != 0 || i.hi != 0)
                }
            }
            AbsVal::Float(f) => {
                if f.is_bottom() {
                    (false, false)
                } else {
                    (f.contains(0.0), f.lo != 0.0 || f.hi != 0.0)
                }
            }
        }
    }
}

/// The abstract interpreter's expression engine, parameterized by program,
/// layout, and the maximal clock (paper Sect. 4's "maximal execution time").
pub struct Evaluator<'a> {
    /// The analyzed program.
    pub program: &'a Program,
    /// Cell layout.
    pub layout: &'a CellLayout,
    /// Upper bound on the clock (number of `wait` ticks).
    pub max_clock: i64,
    /// Enables the linear-form refinement of Sect. 6.3.
    pub linearize: bool,
    /// Enables the clocked-domain components of Sect. 6.2.1.
    pub clocked: bool,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator with all refinements enabled.
    pub fn new(program: &'a Program, layout: &'a CellLayout, max_clock: i64) -> Self {
        Evaluator { program, layout, max_clock, linearize: true, clocked: true }
    }

    /// Resolves an l-value in `env`.
    pub fn resolve(&self, env: &AbsEnv, lv: &Lvalue) -> Resolved {
        self.layout.resolve(lv, |e| {
            let (v, _) = self.eval(env, e);
            v.as_int()
        })
    }

    /// Abstract evaluation: the value and the potential run-time errors of
    /// evaluating `e` in `env`.
    pub fn eval(&self, env: &AbsEnv, e: &Expr) -> (AbsVal, ErrFlags) {
        match e {
            Expr::Int(v, _) => (AbsVal::Int(IntItv::singleton(*v)), ErrFlags::NONE),
            Expr::Float(b, k) => {
                (AbsVal::Float(FloatItv::singleton(k.round_nearest(b.get()))), ErrFlags::NONE)
            }
            Expr::Load(lv, ty) => self.eval_load(env, lv, *ty),
            Expr::Unop(op, t, a) => {
                let (av, f) = self.eval(env, a);
                let (v, f2) = self.eval_unop(*op, *t, av);
                (v, f | f2)
            }
            Expr::Binop(op, t, a, b) => {
                let (av, fa) = self.eval(env, a);
                let (bv, fb) = self.eval(env, b);
                let (v, f) = self.eval_binop(*op, *t, av, bv);
                (v, fa | fb | f)
            }
            Expr::Cast(t, a) => {
                let (av, f) = self.eval(env, a);
                let (v, f2) = self.eval_cast(*t, av);
                (v, f | f2)
            }
        }
    }

    fn eval_load(&self, env: &AbsEnv, lv: &Lvalue, ty: ScalarType) -> (AbsVal, ErrFlags) {
        if env.is_bottom() {
            return (bottom_of(ty), ErrFlags::NONE);
        }
        let r = self.resolve(env, lv);
        let mut flags = ErrFlags::NONE;
        if r.may_oob {
            flags |= ErrFlags::OUT_OF_BOUNDS;
        }
        if r.cells.is_empty() {
            return (bottom_of(ty), flags);
        }
        let mut acc: Option<CellVal> = None;
        for c in r.cells.iter() {
            let v = env.read(*c, self.layout);
            acc = Some(match acc {
                None => v,
                Some(a) => a.join(&v),
            });
        }
        let v = match acc.expect("non-empty") {
            CellVal::Int(c) => {
                let c = if self.clocked { c.reduce(env.clock) } else { c };
                AbsVal::Int(c.val)
            }
            CellVal::Float(f) => AbsVal::Float(f),
        };
        (v, flags)
    }

    fn eval_unop(&self, op: Unop, t: ScalarType, a: AbsVal) -> (AbsVal, ErrFlags) {
        match (op, t) {
            (Unop::Neg, ScalarType::Int(it)) => clip_int(a.as_int().neg(), it),
            (Unop::Neg, ScalarType::Float(_)) => {
                (AbsVal::Float(a.as_float().neg()), ErrFlags::NONE)
            }
            (Unop::LNot, _) => {
                let (can_zero, can_nonzero) = a.truthiness();
                (AbsVal::Int(bool_range(can_nonzero, can_zero)), ErrFlags::NONE)
            }
            (Unop::BNot, ScalarType::Int(it)) => clip_int(a.as_int().bitnot(), it),
            (op, t) => panic!("ill-typed unop {op:?} at {t}"),
        }
    }

    fn eval_binop(&self, op: Binop, t: ScalarType, a: AbsVal, b: AbsVal) -> (AbsVal, ErrFlags) {
        if op.is_logical() {
            let (az, an) = a.truthiness();
            let (bz, bn) = b.truthiness();
            let r = match op {
                // can be false / can be true
                Binop::LAnd => bool_range(az || (an && bz), an && bn),
                Binop::LOr => bool_range(az && bz, an || bn),
                _ => unreachable!(),
            };
            return (AbsVal::Int(r), ErrFlags::NONE);
        }
        if op.is_comparison() {
            return (AbsVal::Int(self.compare(op, a, b)), ErrFlags::NONE);
        }
        match (a, b, t) {
            (AbsVal::Int(x), AbsVal::Int(y), ScalarType::Int(it)) => {
                let mut flags = ErrFlags::NONE;
                let raw = match op {
                    Binop::Add => x.add(y),
                    Binop::Sub => x.sub(y),
                    Binop::Mul => x.mul(y),
                    Binop::Div | Binop::Rem => {
                        if y.contains(0) {
                            flags |= ErrFlags::DIV_BY_ZERO;
                        }
                        if op == Binop::Div {
                            x.div(y)
                        } else {
                            x.rem(y)
                        }
                    }
                    Binop::BAnd => x.bitand(y),
                    Binop::BOr => x.bitor(y),
                    Binop::BXor => x.bitxor(y),
                    Binop::Shl | Binop::Shr => {
                        let valid = IntItv::new(0, it.bits as i64 - 1);
                        if !y.leq(valid) {
                            flags |= ErrFlags::SHIFT_RANGE;
                        }
                        let amt = y.meet(valid);
                        if op == Binop::Shl {
                            x.shl(amt)
                        } else {
                            x.shr(amt)
                        }
                    }
                    _ => unreachable!(),
                };
                let (v, f2) = clip_int(raw, it);
                (v, flags | f2)
            }
            (AbsVal::Float(x), AbsVal::Float(y), ScalarType::Float(k)) => {
                let (v, f) = match op {
                    Binop::Add => x.add(y, k),
                    Binop::Sub => x.sub(y, k),
                    Binop::Mul => x.mul(y, k),
                    Binop::Div => x.div(y, k),
                    other => panic!("float op {other:?} unsupported"),
                };
                (AbsVal::Float(v), f)
            }
            (a, b, t) => panic!("ill-typed binop operands {a:?}, {b:?} at {t}"),
        }
    }

    /// Abstract comparison: `[0,0]`, `[1,1]` or `[0,1]`.
    fn compare(&self, op: Binop, a: AbsVal, b: AbsVal) -> IntItv {
        if a.is_bottom() || b.is_bottom() {
            return IntItv::BOTTOM;
        }
        let (lt, eq, gt) = match (a, b) {
            (AbsVal::Int(x), AbsVal::Int(y)) => {
                // Possible orderings of values drawn from x and y.
                (
                    x.lo < y.hi,
                    x.meet(y) != IntItv::BOTTOM && x.lo <= y.hi && y.lo <= x.hi,
                    x.hi > y.lo,
                )
            }
            (AbsVal::Float(x), AbsVal::Float(y)) => {
                (x.lo < y.hi, !x.meet(y).is_bottom(), x.hi > y.lo)
            }
            _ => return IntItv::new(0, 1),
        };
        // `eq` above is "may be equal"; refine strict comparisons.
        let (can_true, can_false) = match op {
            Binop::Lt => (lt, gt || eq),
            Binop::Le => (lt || eq, gt),
            Binop::Gt => (gt, lt || eq),
            Binop::Ge => (gt || eq, lt),
            Binop::Eq => (eq, lt || gt),
            Binop::Ne => (lt || gt, eq),
            _ => unreachable!(),
        };
        bool_range(can_false, can_true)
    }

    fn eval_cast(&self, t: ScalarType, a: AbsVal) -> (AbsVal, ErrFlags) {
        match (t, a) {
            (ScalarType::Int(it), AbsVal::Int(x)) => {
                (AbsVal::Int(x.convert_to(it)), ErrFlags::NONE)
            }
            (ScalarType::Float(k), AbsVal::Int(x)) => {
                if x.is_bottom() {
                    return (AbsVal::Float(FloatItv::BOTTOM), ErrFlags::NONE);
                }
                (AbsVal::Float(FloatItv::from_int_range(x.lo, x.hi, k)), ErrFlags::NONE)
            }
            (ScalarType::Float(k), AbsVal::Float(x)) => {
                let (v, f) = x.convert_to(k);
                (AbsVal::Float(v), f)
            }
            (ScalarType::Int(it), AbsVal::Float(x)) => {
                if it.is_bool() {
                    if x.is_bottom() {
                        return (AbsVal::Int(IntItv::BOTTOM), ErrFlags::NONE);
                    }
                    let can_zero = x.contains(0.0);
                    let can_nonzero = x.lo != 0.0 || x.hi != 0.0;
                    return (AbsVal::Int(bool_range(can_zero, can_nonzero)), ErrFlags::NONE);
                }
                let (lo, hi, f) = x.trunc_to_int(it.min(), it.max());
                (AbsVal::Int(IntItv::new(lo, hi)), f)
            }
        }
    }

    // ----- assignment ----------------------------------------------------

    /// Transfer for `lv := e`, where `target` is `lv` resolved in `env` (the
    /// caller resolves once and keeps the cells for its relational
    /// transfers). Returns the environment, written in place where `env`
    /// was uniquely owned, and the potential errors of the statement.
    pub fn assign(&self, mut env: AbsEnv, target: &Resolved, e: &Expr) -> (AbsEnv, ErrFlags) {
        if env.is_bottom() {
            return (env, ErrFlags::NONE);
        }
        let (mut val, mut flags) = self.eval(&env, e);
        // Linear-form refinement (Sect. 6.3): only when no error was
        // possible, so the linearized semantics matches the expression's.
        if self.linearize && flags.is_empty() {
            if let (AbsVal::Float(v), ScalarType::Float(k)) = (&val, e.ty()) {
                if let Some(lf) = self.linearize_expr(&env, e, k) {
                    let refined = lf.eval(|c| self.float_cell(&env, *c));
                    let m = v.meet(refined.on_grid(k));
                    val = AbsVal::Float(m);
                }
            }
        }
        if val.is_bottom() {
            // No non-erroneous value: execution cannot continue.
            return (AbsEnv::bottom(), flags);
        }
        if target.may_oob {
            flags |= ErrFlags::OUT_OF_BOUNDS;
        }
        if target.cells.is_empty() {
            return (AbsEnv::bottom(), flags);
        }
        let cell_val = match val {
            AbsVal::Float(f) => CellVal::Float(f),
            AbsVal::Int(i) => {
                let mut c = Clocked::of_val(i, env.clock);
                if self.clocked {
                    let minus = self.clock_offset(&env, e, OffsetMode::Minus);
                    let plus = self.clock_offset(&env, e, OffsetMode::Plus);
                    c.minus = c.minus.meet(minus);
                    c.plus = c.plus.meet(plus);
                }
                CellVal::Int(c)
            }
        };
        if target.strong {
            env.set(target.cells[0], cell_val);
        } else {
            for c in target.cells.iter() {
                env.set_weak(*c, cell_val, self.layout);
            }
        }
        (env, flags)
    }

    /// Bounds on `e − clock` / `e + clock` (the clocked-domain transfer of
    /// Sect. 6.2.1), propagated through single-variable affine chains.
    fn clock_offset(&self, env: &AbsEnv, e: &Expr, mode: OffsetMode) -> IntItv {
        match e {
            Expr::Int(v, _) => {
                let c = IntItv::singleton(*v);
                match mode {
                    OffsetMode::Minus => c.sub(env.clock),
                    OffsetMode::Plus => c.add(env.clock),
                }
            }
            Expr::Load(lv, ScalarType::Int(_)) => {
                let r = self.resolve(env, lv);
                if r.cells.len() == 1 && !r.may_oob {
                    if let CellVal::Int(c) = env.read(r.cells[0], self.layout) {
                        return match mode {
                            OffsetMode::Minus => c.minus,
                            OffsetMode::Plus => c.plus,
                        };
                    }
                }
                self.fallback_offset(env, e, mode)
            }
            Expr::Binop(Binop::Add, ScalarType::Int(_), a, b) => {
                // (a+b)±clock = (a±clock)+b = a+(b±clock)
                let left = self.clock_offset(env, a, mode).add(self.plain_int(env, b));
                let right = self.plain_int(env, a).add(self.clock_offset(env, b, mode));
                left.meet(right)
            }
            Expr::Binop(Binop::Sub, ScalarType::Int(_), a, b) => {
                // (a−b)±clock = (a±clock)−b = a−(b∓clock)
                let left = self.clock_offset(env, a, mode).sub(self.plain_int(env, b));
                let right = self.plain_int(env, a).sub(self.clock_offset(env, b, mode.flip()));
                left.meet(right)
            }
            _ => self.fallback_offset(env, e, mode),
        }
    }

    fn plain_int(&self, env: &AbsEnv, e: &Expr) -> IntItv {
        let (v, _) = self.eval(env, e);
        v.as_int()
    }

    fn fallback_offset(&self, env: &AbsEnv, e: &Expr, mode: OffsetMode) -> IntItv {
        let v = self.plain_int(env, e);
        match mode {
            OffsetMode::Minus => v.sub(env.clock),
            OffsetMode::Plus => v.add(env.clock),
        }
    }

    /// The float interval of a cell (⊤ for int cells — linear forms only
    /// track float cells).
    pub fn float_cell(&self, env: &AbsEnv, c: CellId) -> FloatItv {
        match env.read(c, self.layout) {
            CellVal::Float(f) => f,
            CellVal::Int(i) => {
                if i.val.is_bottom() {
                    FloatItv::BOTTOM
                } else {
                    FloatItv::from_int_range(i.val.lo, i.val.hi, FloatKind::F64)
                }
            }
        }
    }

    // ----- linearization (Sect. 6.3) --------------------------------------

    /// Linearizes a float expression into an interval linear form over
    /// cells, absorbing per-operator rounding errors. Returns `None` for
    /// shapes linearization does not improve.
    pub fn linearize_expr(
        &self,
        env: &AbsEnv,
        e: &Expr,
        kind: FloatKind,
    ) -> Option<LinForm<CellId>> {
        match e {
            Expr::Float(b, k) => {
                Some(LinForm::constant(FloatItv::singleton(k.round_nearest(b.get()))))
            }
            Expr::Load(lv, ScalarType::Float(_)) => {
                let r = self.resolve(env, lv);
                if r.cells.len() == 1 && !r.may_oob {
                    Some(LinForm::var(r.cells[0]))
                } else {
                    let (v, f) = self.eval(env, e);
                    f.is_empty().then(|| LinForm::constant(v.as_float()))
                }
            }
            Expr::Unop(Unop::Neg, ScalarType::Float(_), a) => {
                Some(self.linearize_expr(env, a, kind)?.neg())
            }
            Expr::Binop(op @ (Binop::Add | Binop::Sub), ScalarType::Float(k), a, b) => {
                let la = self.linearize_expr(env, a, *k)?;
                let lb = self.linearize_expr(env, b, *k)?;
                let combined = if *op == Binop::Add { la.add(&lb) } else { la.sub(&lb) };
                Some(combined.absorb_rounding(*k, |c| self.float_cell(env, *c)))
            }
            Expr::Binop(Binop::Mul, ScalarType::Float(k), a, b) => {
                let la = self.linearize_expr(env, a, *k)?;
                let lb = self.linearize_expr(env, b, *k)?;
                let combined = if la.is_constant() {
                    lb.scale(la.cst())
                } else if lb.is_constant() {
                    la.scale(lb.cst())
                } else {
                    // Evaluate the simpler side into an interval.
                    let vb = lb.eval(|c| self.float_cell(env, *c));
                    la.scale(vb)
                };
                Some(combined.absorb_rounding(*k, |c| self.float_cell(env, *c)))
            }
            Expr::Binop(Binop::Div, ScalarType::Float(k), a, b) => {
                let la = self.linearize_expr(env, a, *k)?;
                let lb = self.linearize_expr(env, b, *k)?;
                let d = lb.eval(|c| self.float_cell(env, *c));
                // Only sign-definite divisors linearize.
                if d.is_bottom() || (d.lo <= 0.0 && d.hi >= 0.0) {
                    return None;
                }
                let inv = FloatItv::new(round::div_down(1.0, d.hi), round::div_up(1.0, d.lo));
                Some(la.scale(inv).absorb_rounding(*k, |c| self.float_cell(env, *c)))
            }
            Expr::Cast(ScalarType::Float(k), a) => match a.ty() {
                ScalarType::Float(_) => {
                    let l = self.linearize_expr(env, a, *k)?;
                    Some(l.absorb_rounding(*k, |c| self.float_cell(env, *c)))
                }
                ScalarType::Int(_) => {
                    let (v, f) = self.eval(env, a);
                    if !f.is_empty() {
                        return None;
                    }
                    let i = v.as_int();
                    if i.is_bottom() {
                        return None;
                    }
                    Some(LinForm::constant(FloatItv::from_int_range(i.lo, i.hi, *k)))
                }
            },
            _ => None,
        }
    }

    // ----- guards ---------------------------------------------------------

    /// `guard♯(env, c)` when `positive`, `guard♯(env, ¬c)` otherwise
    /// (paper Sect. 5.4). Compound conditions decompose structurally. The
    /// environment is refined in place; only a disjunction needs a second
    /// (O(1)) handle on it.
    pub fn guard(&self, env: AbsEnv, cond: &Expr, positive: bool) -> AbsEnv {
        if env.is_bottom() {
            return env;
        }
        if !positive {
            return self.guard(env, &cond.negate_condition(), true);
        }
        match cond {
            Expr::Binop(Binop::LAnd, _, a, b) => {
                let e1 = self.guard(env, a, true);
                self.guard(e1, b, true)
            }
            Expr::Binop(Binop::LOr, _, a, b) => {
                self.guard(env.clone(), a, true).join(&self.guard(env, b, true))
            }
            Expr::Unop(Unop::LNot, _, a) => {
                if is_structural_condition(a) {
                    // Compound: negation pushes through De Morgan.
                    self.guard(env, &a.negate_condition(), true)
                } else {
                    // Atomic: `!a` means `a == 0`.
                    let (v, _) = self.eval(&env, a);
                    let (can_zero, _) = v.truthiness();
                    if !can_zero {
                        return AbsEnv::bottom();
                    }
                    let zero = match v {
                        AbsVal::Int(_) => AbsVal::Int(IntItv::singleton(0)),
                        AbsVal::Float(_) => AbsVal::Float(FloatItv::singleton(0.0)),
                    };
                    self.refine(env, a, zero)
                }
            }
            Expr::Binop(op, t, a, b) if op.is_comparison() => self.atomic_guard(env, *op, *t, a, b),
            // A cast to _Bool preserves truthiness exactly (C 6.3.1.2).
            Expr::Cast(ScalarType::Int(it), inner) if it.is_bool() => self.guard(env, inner, true),
            Expr::Int(v, _) => {
                if *v == 0 {
                    AbsEnv::bottom()
                } else {
                    env
                }
            }
            e => {
                // Truthiness guard: e ≠ 0.
                let (v, _) = self.eval(&env, e);
                let (_, can_true) = v.truthiness();
                if !can_true {
                    return AbsEnv::bottom();
                }
                if let AbsVal::Int(i) = v {
                    let nz = exclude_zero(i);
                    return self.refine(env, e, AbsVal::Int(nz));
                }
                env
            }
        }
    }

    fn atomic_guard(&self, env: AbsEnv, op: Binop, t: ScalarType, a: &Expr, b: &Expr) -> AbsEnv {
        let (av, _) = self.eval(&env, a);
        let (bv, _) = self.eval(&env, b);
        if av.is_bottom() || bv.is_bottom() {
            return AbsEnv::bottom();
        }
        let verdict = self.compare(op, av, bv);
        if verdict == IntItv::singleton(0) {
            return AbsEnv::bottom();
        }
        match t {
            ScalarType::Int(_) => {
                let (x, y) = (av.as_int(), bv.as_int());
                let (rx, ry) = refine_int_cmp(op, x, y);
                let env = self.refine(env, a, AbsVal::Int(rx));
                self.refine(env, b, AbsVal::Int(ry))
            }
            ScalarType::Float(_) => {
                let (x, y) = (av.as_float(), bv.as_float());
                let (rx, ry) = refine_float_cmp(op, x, y);
                let env = self.refine(env, a, AbsVal::Float(rx));
                self.refine(env, b, AbsVal::Float(ry))
            }
        }
    }

    /// Back-propagates a refined value onto the expression's source cells
    /// (through loads, negation and ±constant chains).
    fn refine(&self, mut env: AbsEnv, e: &Expr, refined: AbsVal) -> AbsEnv {
        if env.is_bottom() {
            return env;
        }
        match e {
            Expr::Load(lv, ty) => {
                let r = self.resolve(&env, lv);
                if r.cells.len() != 1 || !r.strong {
                    return env;
                }
                let cell = r.cells[0];
                let old = env.read(cell, self.layout);
                let new = match (old, refined, ty) {
                    (CellVal::Int(c), AbsVal::Int(ri), ScalarType::Int(_)) => {
                        let mut m = c;
                        m.val = m.val.meet(ri);
                        CellVal::Int(if self.clocked { m.reduce(env.clock) } else { m })
                    }
                    (CellVal::Float(f), AbsVal::Float(rf), ScalarType::Float(_)) => {
                        CellVal::Float(f.meet(rf))
                    }
                    (old, _, _) => old,
                };
                env.set(cell, new);
                env
            }
            Expr::Unop(Unop::Neg, _, inner) => {
                let flipped = match refined {
                    AbsVal::Int(i) => AbsVal::Int(i.neg()),
                    AbsVal::Float(f) => AbsVal::Float(f.neg()),
                };
                self.refine(env, inner, flipped)
            }
            Expr::Binop(Binop::Add, ScalarType::Int(_), x, c) => {
                match (self.const_int(c), self.const_int(x)) {
                    (Some(k), _) => {
                        let r = refined.as_int().sub(IntItv::singleton(k));
                        self.refine(env, x, AbsVal::Int(r))
                    }
                    (None, Some(k)) => {
                        let r = refined.as_int().sub(IntItv::singleton(k));
                        self.refine(env, c, AbsVal::Int(r))
                    }
                    _ => env,
                }
            }
            Expr::Binop(Binop::Sub, ScalarType::Int(_), x, c) => match self.const_int(c) {
                Some(k) => {
                    let r = refined.as_int().add(IntItv::singleton(k));
                    self.refine(env, x, AbsVal::Int(r))
                }
                None => env,
            },
            _ => env,
        }
    }

    fn const_int(&self, e: &Expr) -> Option<i64> {
        match e {
            Expr::Int(v, _) => Some(*v),
            _ => None,
        }
    }

    // ----- other statement transfers ---------------------------------------

    /// Transfer for `ReadVolatile(v)`: the variable takes any value in its
    /// declared input range.
    pub fn read_volatile(&self, mut env: AbsEnv, var: VarId) -> AbsEnv {
        if env.is_bottom() {
            return env;
        }
        let range =
            self.program.var(var).volatile_input.expect("ReadVolatile on declared volatile input");
        let cell = self.layout.scalar_cell(var);
        let val = match range {
            InputRange::Int(lo, hi) => {
                CellVal::Int(Clocked::of_val(IntItv::new(lo, hi), env.clock))
            }
            InputRange::Float(lo, hi) => CellVal::Float(FloatItv::new(lo, hi)),
        };
        env.set(cell, val);
        env
    }

    /// Transfer for `wait`: the hidden clock advances, clipped by the
    /// maximal operating time; clocked components shift accordingly.
    pub fn tick(&self, mut env: AbsEnv) -> AbsEnv {
        if env.is_bottom() {
            return env;
        }
        let clock = env.clock.add(IntItv::singleton(1)).meet(IntItv::new(0, self.max_clock));
        if clock.is_bottom() {
            // Executions past the maximal operating time do not exist.
            return AbsEnv::bottom();
        }
        if self.clocked {
            // Shift every integer cell's clock-relative components, and
            // reduce each triple at the new clock.
            env.set_each(|v| match v {
                CellVal::Int(c) => Some(CellVal::Int(c.tick(clock))),
                CellVal::Float(_) => None,
            });
            if env.is_bottom() {
                return env;
            }
        }
        env.clock = clock;
        env
    }
}

/// `true` for conditions whose negation restructures (De Morgan /
/// comparison flip) rather than wrapping in `!`.
fn is_structural_condition(e: &Expr) -> bool {
    match e {
        Expr::Unop(Unop::LNot, _, _) | Expr::Int(..) => true,
        Expr::Binop(op, _, _, _) => op.is_comparison() || op.is_logical(),
        Expr::Cast(ScalarType::Int(it), inner) => it.is_bool() && is_structural_condition(inner),
        _ => false,
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum OffsetMode {
    Minus,
    Plus,
}

impl OffsetMode {
    fn flip(self) -> OffsetMode {
        match self {
            OffsetMode::Minus => OffsetMode::Plus,
            OffsetMode::Plus => OffsetMode::Minus,
        }
    }
}

/// Clips an exact integer result to the operation type's range, flagging the
/// overflow when clipping removed values ("overflowing integers are wiped
/// out", paper Sect. 5.3).
fn clip_int(raw: IntItv, it: IntType) -> (AbsVal, ErrFlags) {
    let range = IntItv::of_type(it);
    if raw.leq(range) {
        (AbsVal::Int(raw), ErrFlags::NONE)
    } else {
        (AbsVal::Int(raw.meet(range)), ErrFlags::INT_OVERFLOW)
    }
}

fn bottom_of(ty: ScalarType) -> AbsVal {
    match ty {
        ScalarType::Int(_) => AbsVal::Int(IntItv::BOTTOM),
        ScalarType::Float(_) => AbsVal::Float(FloatItv::BOTTOM),
    }
}

/// `[0,0]`, `[1,1]` or `[0,1]` from (can be false, can be true).
fn bool_range(can_false: bool, can_true: bool) -> IntItv {
    match (can_false, can_true) {
        (true, true) => IntItv::new(0, 1),
        (true, false) => IntItv::singleton(0),
        (false, true) => IntItv::singleton(1),
        (false, false) => IntItv::BOTTOM,
    }
}

/// Removes 0 from an interval when it sits on a boundary.
fn exclude_zero(i: IntItv) -> IntItv {
    if i.lo == 0 {
        IntItv::new(1, i.hi)
    } else if i.hi == 0 {
        IntItv::new(i.lo, -1)
    } else {
        i
    }
}

/// Refined operand intervals after assuming `x op y` over the integers.
fn refine_int_cmp(op: Binop, x: IntItv, y: IntItv) -> (IntItv, IntItv) {
    let top = IntItv::TOP;
    match op {
        Binop::Lt => (
            x.meet(IntItv::new(top.lo, y.hi.saturating_sub(1))),
            y.meet(IntItv::new(x.lo.saturating_add(1), top.hi)),
        ),
        Binop::Le => (x.meet(IntItv::new(top.lo, y.hi)), y.meet(IntItv::new(x.lo, top.hi))),
        Binop::Gt => (
            x.meet(IntItv::new(y.lo.saturating_add(1), top.hi)),
            y.meet(IntItv::new(top.lo, x.hi.saturating_sub(1))),
        ),
        Binop::Ge => (x.meet(IntItv::new(y.lo, top.hi)), y.meet(IntItv::new(top.lo, x.hi))),
        Binop::Eq => {
            let m = x.meet(y);
            (m, m)
        }
        Binop::Ne => {
            let rx = if let Some(c) = y.as_singleton() { exclude_const(x, c) } else { x };
            let ry = if let Some(c) = x.as_singleton() { exclude_const(y, c) } else { y };
            (rx, ry)
        }
        _ => (x, y),
    }
}

fn exclude_const(i: IntItv, c: i64) -> IntItv {
    if i.lo == c && i.hi == c {
        IntItv::BOTTOM
    } else if i.lo == c {
        IntItv::new(c + 1, i.hi)
    } else if i.hi == c {
        IntItv::new(i.lo, c - 1)
    } else {
        i
    }
}

/// Refined operand intervals after assuming `x op y` over floats.
fn refine_float_cmp(op: Binop, x: FloatItv, y: FloatItv) -> (FloatItv, FloatItv) {
    let inf = f64::INFINITY;
    match op {
        Binop::Lt => (
            x.meet(FloatItv::new(-inf, round::next_down(y.hi))),
            y.meet(FloatItv::new(round::next_up(x.lo), inf)),
        ),
        Binop::Le => (x.meet(FloatItv::new(-inf, y.hi)), y.meet(FloatItv::new(x.lo, inf))),
        Binop::Gt => (
            x.meet(FloatItv::new(round::next_up(y.lo), inf)),
            y.meet(FloatItv::new(-inf, round::next_down(x.hi))),
        ),
        Binop::Ge => (x.meet(FloatItv::new(y.lo, inf)), y.meet(FloatItv::new(-inf, x.hi))),
        Binop::Eq => {
            let m = x.meet(y);
            (m, m)
        }
        Binop::Ne => (x, y),
        _ => (x, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LayoutConfig;
    use astree_ir::{Function, Program, Type, VarInfo, VarKind};

    struct Fix {
        program: Program,
        layout: CellLayout,
    }

    fn fixture() -> Fix {
        let mut p = Program::new();
        p.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Global));
        p.add_var(VarInfo::scalar("y", ScalarType::Int(IntType::INT), VarKind::Global));
        p.add_var(VarInfo::scalar("f", ScalarType::Float(FloatKind::F64), VarKind::Global));
        p.add_var(VarInfo::scalar("g", ScalarType::Float(FloatKind::F64), VarKind::Global));
        p.add_var(VarInfo {
            name: "in".into(),
            ty: Type::int(IntType::INT),
            kind: VarKind::Global,
            volatile_input: Some(InputRange::Int(-10, 10)),
        });
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![],
        });
        let layout = CellLayout::new(&p, &LayoutConfig::default());
        Fix { program: p, layout }
    }

    /// `lv := e` on a copy of `env`, resolving the target the way the
    /// iterator does.
    fn assign(ev: &Evaluator, env: &AbsEnv, lv: &Lvalue, e: &Expr) -> (AbsEnv, ErrFlags) {
        ev.assign(env.clone(), &ev.resolve(env, lv), e)
    }

    fn with(env: &AbsEnv, cell: CellId, val: CellVal) -> AbsEnv {
        let mut out = env.clone();
        out.set(cell, val);
        out
    }

    fn int_t() -> ScalarType {
        ScalarType::Int(IntType::INT)
    }

    fn load(v: u32) -> Expr {
        Expr::var(VarId(v))
    }

    fn loadf(v: u32) -> Expr {
        Expr::var_t(VarId(v), ScalarType::Float(FloatKind::F64))
    }

    #[test]
    fn eval_constants_and_arith() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        let e = Expr::Binop(Binop::Add, int_t(), Box::new(Expr::int(2)), Box::new(Expr::int(3)));
        let (v, flags) = ev.eval(&env, &e);
        assert_eq!(v.as_int(), IntItv::singleton(5));
        assert!(flags.is_empty());
    }

    #[test]
    fn overflow_is_flagged_and_clipped() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        let e = Expr::Binop(
            Binop::Add,
            int_t(),
            Box::new(Expr::int(i32::MAX as i64)),
            Box::new(Expr::int(1)),
        );
        let (v, flags) = ev.eval(&env, &e);
        assert!(flags.contains(ErrFlags::INT_OVERFLOW));
        // Both bounds overflow: no non-erroneous result.
        assert!(v.as_int().is_bottom());
        // Partial overflow keeps the sound part.
        let (env2, _) = assign(&ev, &env, &Lvalue::var(VarId(0)), &Expr::int(i32::MAX as i64 - 5));
        let e = Expr::Binop(
            Binop::Add,
            int_t(),
            Box::new(load(0)),
            Box::new(Expr::Int(0, IntType::INT)),
        );
        let (v, _) = ev.eval(&env2, &e);
        assert_eq!(v.as_int(), IntItv::singleton(i32::MAX as i64 - 5));
    }

    #[test]
    fn division_by_possibly_zero_flags() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        // x = 0 initially; 1 / x must flag division by zero and go bottom.
        let e = Expr::Binop(Binop::Div, int_t(), Box::new(Expr::int(1)), Box::new(load(0)));
        let (v, flags) = ev.eval(&env, &e);
        assert!(flags.contains(ErrFlags::DIV_BY_ZERO));
        assert!(v.as_int().is_bottom());
    }

    #[test]
    fn assignment_strong_update() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        let (env, flags) = assign(&ev, &env, &Lvalue::var(VarId(0)), &Expr::int(42));
        assert!(flags.is_empty());
        let (v, _) = ev.eval(&env, &load(0));
        assert_eq!(v.as_int(), IntItv::singleton(42));
    }

    #[test]
    fn guard_refines_both_sides() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        let (env, _) = assign(&ev, &env, &Lvalue::var(VarId(4)), &load(4)); // x := volatile? no-op
        let env = ev.read_volatile(env, VarId(4));
        let (env, _) = assign(&ev, &env, &Lvalue::var(VarId(0)), &load(4)); // x ∈ [-10, 10]

        // Guard x > 3.
        let cond = Expr::Binop(Binop::Gt, int_t(), Box::new(load(0)), Box::new(Expr::int(3)));
        let refined = ev.guard(env.clone(), &cond, true);
        let (v, _) = ev.eval(&refined, &load(0));
        assert_eq!(v.as_int(), IntItv::new(4, 10));
        // Negative guard.
        let refined = ev.guard(env.clone(), &cond, false);
        let (v, _) = ev.eval(&refined, &load(0));
        assert_eq!(v.as_int(), IntItv::new(-10, 3));
    }

    #[test]
    fn guard_definitely_false_is_bottom() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        // x = 0: guard (x > 5) is bottom.
        let cond = Expr::Binop(Binop::Gt, int_t(), Box::new(load(0)), Box::new(Expr::int(5)));
        assert!(ev.guard(env.clone(), &cond, true).is_bottom());
        assert!(!ev.guard(env.clone(), &cond, false).is_bottom());
    }

    #[test]
    fn compound_guards_decompose() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = ev.read_volatile(AbsEnv::initial(&f.layout), VarId(4));
        let (env, _) = assign(&ev, &env, &Lvalue::var(VarId(0)), &load(4));
        // x >= -2 && x <= 2
        let c1 = Expr::Binop(Binop::Ge, int_t(), Box::new(load(0)), Box::new(Expr::int(-2)));
        let c2 = Expr::Binop(Binop::Le, int_t(), Box::new(load(0)), Box::new(Expr::int(2)));
        let cond = Expr::Binop(Binop::LAnd, int_t(), Box::new(c1), Box::new(c2));
        let g = ev.guard(env.clone(), &cond, true);
        let (v, _) = ev.eval(&g, &load(0));
        assert_eq!(v.as_int(), IntItv::new(-2, 2));
        // Negation: x < -2 || x > 2 — interval join loses the hole but keeps
        // the range.
        let g = ev.guard(env.clone(), &cond, false);
        let (v, _) = ev.eval(&g, &load(0));
        assert_eq!(v.as_int(), IntItv::new(-10, 10));
    }

    #[test]
    fn linearization_beats_naive_interval() {
        // f := f − 0.2·f with f ∈ [0, 1]: naive interval gives [−0.2, 1],
        // the linear form gives ≈[0, 0.8].
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        let fcell = f.layout.scalar_cell(VarId(2));
        let env = with(&env, fcell, CellVal::Float(FloatItv::new(0.0, 1.0)));
        let tf = ScalarType::Float(FloatKind::F64);
        let rhs = Expr::Binop(
            Binop::Sub,
            tf,
            Box::new(loadf(2)),
            Box::new(Expr::Binop(Binop::Mul, tf, Box::new(Expr::float(0.2)), Box::new(loadf(2)))),
        );
        let (env2, flags) = assign(&ev, &env, &Lvalue::var(VarId(2)), &rhs);
        assert!(flags.is_empty());
        let (v, _) = ev.eval(&env2, &loadf(2));
        let v = v.as_float();
        assert!(v.lo >= -1e-9, "lo {}", v.lo);
        assert!(v.hi <= 0.8 + 1e-9, "hi {}", v.hi);
        // Without linearization the result is the naive one.
        let mut ev2 = Evaluator::new(&f.program, &f.layout, 1000);
        ev2.linearize = false;
        let (env3, _) = assign(&ev2, &env, &Lvalue::var(VarId(2)), &rhs);
        let (v, _) = ev2.eval(&env3, &loadf(2));
        assert!(v.as_float().lo <= -0.19);
    }

    #[test]
    fn volatile_read_sets_range() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = ev.read_volatile(AbsEnv::initial(&f.layout), VarId(4));
        let (v, _) = ev.eval(&env, &load(4));
        assert_eq!(v.as_int(), IntItv::new(-10, 10));
    }

    #[test]
    fn clock_tick_and_counter_reduction() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 100);
        let mut env = AbsEnv::initial(&f.layout);
        // x := x + 1; wait — iterated; even without widening-threshold help,
        // the clocked component keeps x ≤ clock.
        let inc = Expr::Binop(Binop::Add, int_t(), Box::new(load(0)), Box::new(Expr::int(1)));
        for _ in 0..3 {
            let (e2, _) = assign(&ev, &env, &Lvalue::var(VarId(0)), &inc);
            env = ev.tick(e2);
        }
        let (v, _) = ev.eval(&env, &load(0));
        assert_eq!(v.as_int(), IntItv::singleton(3));
        assert_eq!(env.clock, IntItv::singleton(3));
        // Force the interval to top and check the clocked reduction.
        let cell = f.layout.scalar_cell(VarId(0));
        if let CellVal::Int(mut c) = env.read(cell, &f.layout) {
            c.val = IntItv::TOP;
            let env2 = with(&env, cell, CellVal::Int(c));
            let (v, _) = ev.eval(&env2, &load(0));
            // x − clock = 0 held, clock = 3 → x = 3 recovered.
            assert_eq!(v.as_int(), IntItv::singleton(3));
        } else {
            panic!("int cell expected");
        }
    }

    #[test]
    fn tick_past_max_clock_is_bottom() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 2);
        let env = AbsEnv::initial(&f.layout);
        let env = ev.tick(env);
        let env = ev.tick(env);
        assert!(!env.is_bottom());
        let env = ev.tick(env);
        assert!(env.is_bottom());
    }

    #[test]
    fn comparisons_prove_and_disprove() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        let lt = Expr::Binop(Binop::Lt, int_t(), Box::new(Expr::int(1)), Box::new(Expr::int(2)));
        let (v, _) = ev.eval(&env, &lt);
        assert_eq!(v.as_int(), IntItv::singleton(1));
        let gt = Expr::Binop(Binop::Gt, int_t(), Box::new(Expr::int(1)), Box::new(Expr::int(2)));
        let (v, _) = ev.eval(&env, &gt);
        assert_eq!(v.as_int(), IntItv::singleton(0));
    }

    #[test]
    fn float_guard_strictness() {
        let f = fixture();
        let ev = Evaluator::new(&f.program, &f.layout, 1000);
        let env = AbsEnv::initial(&f.layout);
        let fcell = f.layout.scalar_cell(VarId(2));
        let env = with(&env, fcell, CellVal::Float(FloatItv::new(0.0, 10.0)));
        let tf = ScalarType::Float(FloatKind::F64);
        let cond = Expr::Binop(Binop::Lt, tf, Box::new(loadf(2)), Box::new(Expr::float(5.0)));
        let g = ev.guard(env.clone(), &cond, true);
        let (v, _) = ev.eval(&g, &loadf(2));
        assert!(v.as_float().hi < 5.0);
        assert!(v.as_float().hi > 4.999);
    }
}
