//! A reference concrete interpreter for the IR.
//!
//! This is the executable counterpart of the collecting semantics `⟦S⟧` of
//! paper Sect. 5.4 and exists to *test the analyzer*: every state reached by
//! the interpreter must be contained in the invariants the analyzer computes
//! (soundness), and every run-time error the interpreter hits must be covered
//! by an alarm.
//!
//! Error semantics mirrors the analyzer's (Sect. 5.3): operations whose
//! erroneous outcomes still have non-erroneous nearby results (integer or
//! float overflow) record a [`RuntimeEvent`] and continue with the value
//! clipped to the representable range ("overflowing integers are wiped out
//! and not considered modulo"); operations with no non-erroneous
//! continuation (division by zero, out-of-bounds access, NaN production,
//! invalid casts) abort the trace with an [`ExecError`].

use crate::expr::{Access, Binop, Expr, Lvalue, Unop};
use crate::program::{FuncId, InputRange, Program, VarId, VarKind};
use crate::stmt::{Block, Stmt, StmtId, StmtKind};
use crate::types::{FloatKind, IntType, ScalarType, Type};
use std::collections::HashMap;

/// A concrete scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An integer (any width fits in `i64`).
    Int(i64),
    /// A float (an `f32` value is stored as its exact `f64` image).
    Float(f64),
}

impl Value {
    /// The integer payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is a float.
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Float(f) => panic!("expected int, got float {f}"),
        }
    }

    /// The float payload.
    ///
    /// # Panics
    ///
    /// Panics if the value is an integer.
    pub fn as_float(self) -> f64 {
        match self {
            Value::Float(v) => v,
            Value::Int(i) => panic!("expected float, got int {i}"),
        }
    }

    /// C truthiness: non-zero is true.
    pub fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Float(v) => v != 0.0,
        }
    }
}

/// A concrete memory cell: a root variable and a path of field indices and
/// concrete array subscripts.
pub type CellKey = (VarId, Vec<u32>);

/// The concrete store (all live cells).
pub type Store = HashMap<CellKey, Value>;

/// A recoverable run-time error event (analysis continues with clipped
/// values). These correspond one-to-one to analyzer alarm categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeEvent {
    /// Integer arithmetic exceeded the operation type's range.
    IntOverflow,
    /// Float arithmetic overflowed to ±∞.
    FloatOverflow,
}

/// An unrecoverable run-time error: the trace stops here.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Integer division or remainder by zero.
    DivByZero(StmtId),
    /// Array subscript outside the array bounds.
    OutOfBounds(StmtId),
    /// Shift amount outside `[0, width)`.
    ShiftRange(StmtId),
    /// A float operation produced NaN.
    NanProduced(StmtId),
    /// Float-to-integer cast out of the target range.
    InvalidCast(StmtId),
    /// An `assume` directive was violated (environment contract broken).
    AssumeViolated(StmtId),
    /// The step budget was exhausted (likely a non-terminating loop).
    StepBudget,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DivByZero(s) => write!(f, "division by zero at stmt {}", s.0),
            ExecError::OutOfBounds(s) => write!(f, "out-of-bounds access at stmt {}", s.0),
            ExecError::ShiftRange(s) => write!(f, "shift out of range at stmt {}", s.0),
            ExecError::NanProduced(s) => write!(f, "NaN produced at stmt {}", s.0),
            ExecError::InvalidCast(s) => write!(f, "invalid cast at stmt {}", s.0),
            ExecError::AssumeViolated(s) => write!(f, "assumption violated at stmt {}", s.0),
            ExecError::StepBudget => write!(f, "step budget exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Maximum number of executed statements before aborting.
    pub max_steps: u64,
    /// Maximum number of `wait` clock ticks before stopping the run
    /// normally (the "maximal execution time" of paper Sect. 4).
    pub max_ticks: u64,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig { max_steps: 1_000_000, max_ticks: 1_000 }
    }
}

/// Supplies values for volatile input variables.
pub trait InputProvider {
    /// Produces the next value for volatile variable `var` whose declared
    /// range is `range`. Implementations must stay within the range.
    fn next(&mut self, var: VarId, range: &InputRange) -> Value;
}

/// An input provider driven by a simple deterministic LCG, staying mid-range
/// biased but covering bounds.
///
/// # Determinism contract
///
/// The value stream is a pure function of the seed: `SeededInputs::new(s)`
/// yields the same sequence on every platform and in every release. The
/// generator is xorshift64* over the fixed odd initial state
/// `s · 0x9E3779B97F4A7C15 | 1`, and 2/16 of the draws pin the declared
/// range's exact lower or upper bound so edge cases are exercised. The
/// differential soundness oracle (`astree-oracle`) relies on this to
/// identify an execution — and to replay and shrink a counterexample — by
/// the pair *(generator seed, execution seed)* alone; changing the mapping
/// invalidates every recorded campaign report, so treat it as a wire
/// format.
#[derive(Debug, Clone)]
pub struct SeededInputs {
    state: u64,
}

impl SeededInputs {
    /// Creates a provider from a seed.
    pub fn new(seed: u64) -> Self {
        SeededInputs { state: seed.wrapping_mul(0x9E3779B97F4A7C15) | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64*
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
}

impl InputProvider for SeededInputs {
    fn next(&mut self, _var: VarId, range: &InputRange) -> Value {
        match *range {
            InputRange::Int(lo, hi) => {
                let r = self.next_u64();
                // Occasionally hit the exact bounds to exercise edges.
                match r % 16 {
                    0 => Value::Int(lo),
                    1 => Value::Int(hi),
                    _ => {
                        let span = (hi - lo) as u64 + 1;
                        Value::Int(lo + (r % span) as i64)
                    }
                }
            }
            InputRange::Float(lo, hi) => {
                let r = self.next_u64();
                match r % 16 {
                    0 => Value::Float(lo),
                    1 => Value::Float(hi),
                    _ => {
                        let frac = (r >> 11) as f64 / (1u64 << 53) as f64;
                        Value::Float(lo + (hi - lo) * frac)
                    }
                }
            }
        }
    }
}

/// What a statement's execution asked the driver to do next.
enum Flow {
    Normal,
    Return(Option<Value>),
    /// `max_ticks` reached during `wait`: stop the run as a success.
    Stop,
}

/// The concrete interpreter.
///
/// # Examples
///
/// ```
/// use astree_ir::*;
///
/// // int x = 0; while (x < 3) { x = x + 1; }
/// let mut p = Program::new();
/// let x = p.add_var(VarInfo::scalar("x", ScalarType::Int(IntType::INT), VarKind::Global));
/// let t = ScalarType::Int(IntType::INT);
/// let body = vec![Stmt::new(StmtKind::Assign(
///     Lvalue::var(x),
///     Expr::Binop(Binop::Add, t, Box::new(Expr::var(x)), Box::new(Expr::int(1))),
/// ))];
/// let cond = Expr::Binop(Binop::Lt, t, Box::new(Expr::var(x)), Box::new(Expr::int(3)));
/// p.add_func(Function {
///     name: "main".into(), params: vec![], ret: None, locals: vec![],
///     body: vec![Stmt::new(StmtKind::While(LoopId(0), cond, body))],
/// });
/// p.assign_stmt_ids();
///
/// let mut inputs = SeededInputs::new(1);
/// let mut interp = Interp::new(&p, InterpConfig::default(), &mut inputs);
/// interp.run().unwrap();
/// assert_eq!(interp.store()[&(x, vec![])], Value::Int(3));
/// ```
pub struct Interp<'a, I: InputProvider> {
    program: &'a Program,
    config: InterpConfig,
    inputs: &'a mut I,
    store: Store,
    /// By-reference parameter bindings: callee param var → caller cell root.
    ref_bindings: HashMap<VarId, CellKey>,
    events: Vec<(StmtId, RuntimeEvent)>,
    steps: u64,
    ticks: u64,
    observer: Option<Box<dyn FnMut(StmtId, &Store) + 'a>>,
}

impl<'a, I: InputProvider> Interp<'a, I> {
    /// Creates an interpreter with all cells zero-initialized (C static
    /// initialization; the family always writes locals before reading).
    pub fn new(program: &'a Program, config: InterpConfig, inputs: &'a mut I) -> Self {
        let mut store = Store::new();
        for (i, v) in program.vars.iter().enumerate() {
            init_cells(&VarId(i as u32), &v.ty, program, &mut Vec::new(), &mut store);
        }
        Interp {
            program,
            config,
            inputs,
            store,
            ref_bindings: HashMap::new(),
            events: Vec::new(),
            steps: 0,
            ticks: 0,
            observer: None,
        }
    }

    /// Registers a callback invoked before each executed statement with the
    /// full store; used by soundness tests to collect reachable states.
    pub fn set_observer(&mut self, f: impl FnMut(StmtId, &Store) + 'a) {
        self.observer = Some(Box::new(f));
    }

    /// The current store.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Recoverable events recorded so far.
    pub fn events(&self) -> &[(StmtId, RuntimeEvent)] {
        &self.events
    }

    /// Number of completed clock ticks.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Whether the run stopped because the tick budget was exhausted (as
    /// opposed to the entry function returning on its own). The soundness
    /// oracle treats budget-limited runs as *inconclusive* truncations of an
    /// infinite reactive loop, never as divergences.
    pub fn hit_tick_budget(&self) -> bool {
        self.ticks >= self.config.max_ticks
    }

    /// Runs the entry function to completion (or until `max_ticks`).
    ///
    /// # Errors
    ///
    /// Returns the first unrecoverable [`ExecError`] encountered.
    pub fn run(&mut self) -> Result<(), ExecError> {
        let entry = self.program.entry;
        self.exec_call(entry, &[], None, StmtId(0))?;
        Ok(())
    }

    fn exec_call(
        &mut self,
        func: FuncId,
        args: &[crate::stmt::CallArg],
        ret_into: Option<&Lvalue>,
        at: StmtId,
    ) -> Result<Flow, ExecError> {
        let f = self.program.func(func);
        // Evaluate arguments in the caller frame.
        let mut by_val: Vec<(VarId, Value)> = Vec::new();
        let mut by_ref: Vec<(VarId, CellKey)> = Vec::new();
        for (param, arg) in f.params.iter().zip(args) {
            match arg {
                crate::stmt::CallArg::Value(e) => {
                    let v = self.eval(e, at)?;
                    by_val.push((param.var, v));
                }
                crate::stmt::CallArg::Ref(lv) => {
                    let key = self.resolve(lv, at)?;
                    by_ref.push((param.var, key));
                }
            }
        }
        for (var, v) in by_val {
            self.store.insert((var, Vec::new()), v);
        }
        let mut saved = Vec::new();
        for (var, key) in by_ref {
            saved.push((var, self.ref_bindings.insert(var, key)));
        }
        // Zero locals on entry.
        for &l in &f.locals {
            init_cells(
                &l,
                &self.program.var(l).ty.clone(),
                self.program,
                &mut Vec::new(),
                &mut self.store,
            );
        }
        let body = f.body.clone();
        let flow = self.exec_block(&body)?;
        if let (Flow::Return(Some(v)), Some(lv)) = (&flow, ret_into) {
            let key = self.resolve(lv, at)?;
            self.store.insert(key, *v);
        }
        for (var, old) in saved {
            match old {
                Some(k) => {
                    self.ref_bindings.insert(var, k);
                }
                None => {
                    self.ref_bindings.remove(&var);
                }
            }
        }
        // `max_ticks` reached inside the callee stops the whole run; a
        // return is consumed here (call boundary).
        match flow {
            Flow::Stop => Ok(Flow::Stop),
            _ => Ok(Flow::Normal),
        }
    }

    fn exec_block(&mut self, block: &Block) -> Result<Flow, ExecError> {
        for s in block {
            match self.exec_stmt(s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt) -> Result<Flow, ExecError> {
        self.steps += 1;
        if self.steps > self.config.max_steps {
            return Err(ExecError::StepBudget);
        }
        if let Some(obs) = &mut self.observer {
            obs(s.id, &self.store);
        }
        match &s.kind {
            StmtKind::Assign(lv, e) => {
                let v = self.eval(e, s.id)?;
                let key = self.resolve(lv, s.id)?;
                self.store.insert(key, v);
                Ok(Flow::Normal)
            }
            StmtKind::If(c, then_b, else_b) => {
                let cv = self.eval(c, s.id)?;
                if cv.truthy() {
                    self.exec_block(then_b)
                } else {
                    self.exec_block(else_b)
                }
            }
            StmtKind::While(_, c, body) => loop {
                let cv = self.eval(c, s.id)?;
                if !cv.truthy() {
                    return Ok(Flow::Normal);
                }
                match self.exec_block(body)? {
                    Flow::Normal => {
                        self.steps += 1;
                        if self.steps > self.config.max_steps {
                            return Err(ExecError::StepBudget);
                        }
                        // Re-fire the observer at every loop-head arrival, not
                        // just the first: each iteration's back edge lands on a
                        // state that the abstract loop invariant claims to
                        // cover, and the soundness oracle must get to see it.
                        if let Some(obs) = &mut self.observer {
                            obs(s.id, &self.store);
                        }
                    }
                    other => return Ok(other),
                }
            },
            StmtKind::Call(ret, func, args) => {
                match self.exec_call(*func, args, ret.as_ref(), s.id)? {
                    Flow::Stop => Ok(Flow::Stop),
                    _ => Ok(Flow::Normal),
                }
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e, s.id)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            StmtKind::Wait => {
                self.ticks += 1;
                if self.ticks >= self.config.max_ticks {
                    Ok(Flow::Stop)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::Assume(c) => {
                let cv = self.eval(c, s.id)?;
                if cv.truthy() {
                    Ok(Flow::Normal)
                } else {
                    Err(ExecError::AssumeViolated(s.id))
                }
            }
            StmtKind::ReadVolatile(v) => {
                let range = self
                    .program
                    .var(*v)
                    .volatile_input
                    .expect("validated: ReadVolatile on declared input");
                let val = self.inputs.next(*v, &range);
                self.store.insert((*v, Vec::new()), val);
                Ok(Flow::Normal)
            }
        }
    }

    /// Resolves an l-value to a concrete cell, checking array bounds.
    fn resolve(&mut self, lv: &Lvalue, at: StmtId) -> Result<CellKey, ExecError> {
        let root =
            self.ref_bindings.get(&lv.base).cloned().unwrap_or_else(|| (lv.base, Vec::new()));
        let (base, mut path) = root;
        let mut ty = self.program.lvalue_type(&Lvalue { base, path: Vec::new() });
        // Skip the prefix contributed by the ref binding.
        for step in &path {
            ty = match ty {
                Type::Array(elem, _) => (*elem).clone(),
                Type::Record(rid) => {
                    self.program.records[rid.0 as usize].fields[*step as usize].1.clone()
                }
                Type::Scalar(_) => ty,
            };
        }
        for a in &lv.path {
            match (a, ty) {
                (Access::Index(e), Type::Array(elem, n)) => {
                    let idx = self.eval(e, at)?.as_int();
                    if idx < 0 || idx as usize >= n {
                        return Err(ExecError::OutOfBounds(at));
                    }
                    path.push(idx as u32);
                    ty = (*elem).clone();
                }
                (Access::Field(fidx), Type::Record(rid)) => {
                    path.push(*fidx);
                    ty = self.program.records[rid.0 as usize].fields[*fidx as usize].1.clone();
                }
                (a, t) => panic!("ill-typed access {a:?} into {t:?}"),
            }
        }
        Ok((base, path))
    }

    /// Evaluates an expression.
    fn eval(&mut self, e: &Expr, at: StmtId) -> Result<Value, ExecError> {
        match e {
            Expr::Int(v, _) => Ok(Value::Int(*v)),
            Expr::Float(b, k) => Ok(Value::Float(k.round_nearest(b.get()))),
            Expr::Load(lv, _) => {
                let key = self.resolve(lv, at)?;
                Ok(*self.store.get(&key).unwrap_or(&Value::Int(0)))
            }
            Expr::Unop(op, t, a) => {
                let av = self.eval(a, at)?;
                self.unop(*op, *t, av, at)
            }
            Expr::Binop(op, t, a, b) => {
                let av = self.eval(a, at)?;
                let bv = self.eval(b, at)?;
                self.binop(*op, *t, av, bv, at)
            }
            Expr::Cast(t, a) => {
                let av = self.eval(a, at)?;
                self.cast(*t, av, at)
            }
        }
    }

    fn unop(&mut self, op: Unop, t: ScalarType, a: Value, at: StmtId) -> Result<Value, ExecError> {
        match (op, t, a) {
            (Unop::Neg, ScalarType::Int(it), Value::Int(x)) => {
                self.int_result(it, -(x as i128), at)
            }
            (Unop::Neg, ScalarType::Float(k), Value::Float(x)) => self.float_result(k, -x, at),
            (Unop::LNot, _, v) => Ok(Value::Int(!v.truthy() as i64)),
            (Unop::BNot, ScalarType::Int(it), Value::Int(x)) => Ok(Value::Int(it.wrap(!x))),
            (op, t, a) => panic!("ill-typed unop {op:?} at {t:?} on {a:?}"),
        }
    }

    fn binop(
        &mut self,
        op: Binop,
        t: ScalarType,
        a: Value,
        b: Value,
        at: StmtId,
    ) -> Result<Value, ExecError> {
        if op.is_logical() {
            let r = match op {
                Binop::LAnd => a.truthy() && b.truthy(),
                Binop::LOr => a.truthy() || b.truthy(),
                _ => unreachable!(),
            };
            return Ok(Value::Int(r as i64));
        }
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => {
                let it = match t {
                    ScalarType::Int(it) => it,
                    ScalarType::Float(_) => panic!("int operands at float type"),
                };
                if op.is_comparison() {
                    let r = match op {
                        Binop::Lt => x < y,
                        Binop::Le => x <= y,
                        Binop::Gt => x > y,
                        Binop::Ge => x >= y,
                        Binop::Eq => x == y,
                        Binop::Ne => x != y,
                        _ => unreachable!(),
                    };
                    return Ok(Value::Int(r as i64));
                }
                match op {
                    Binop::Add => self.int_result(it, x as i128 + y as i128, at),
                    Binop::Sub => self.int_result(it, x as i128 - y as i128, at),
                    Binop::Mul => self.int_result(it, x as i128 * y as i128, at),
                    Binop::Div => {
                        if y == 0 {
                            return Err(ExecError::DivByZero(at));
                        }
                        self.int_result(it, x as i128 / y as i128, at)
                    }
                    Binop::Rem => {
                        if y == 0 {
                            return Err(ExecError::DivByZero(at));
                        }
                        self.int_result(it, x as i128 % y as i128, at)
                    }
                    Binop::BAnd => Ok(Value::Int(it.wrap(x & y))),
                    Binop::BOr => Ok(Value::Int(it.wrap(x | y))),
                    Binop::BXor => Ok(Value::Int(it.wrap(x ^ y))),
                    Binop::Shl => {
                        if y < 0 || y >= it.bits as i64 {
                            return Err(ExecError::ShiftRange(at));
                        }
                        self.int_result(it, (x as i128) << y, at)
                    }
                    Binop::Shr => {
                        if y < 0 || y >= it.bits as i64 {
                            return Err(ExecError::ShiftRange(at));
                        }
                        Ok(Value::Int(x >> y))
                    }
                    _ => unreachable!(),
                }
            }
            (Value::Float(x), Value::Float(y)) => {
                if op.is_comparison() {
                    let r = match op {
                        Binop::Lt => x < y,
                        Binop::Le => x <= y,
                        Binop::Gt => x > y,
                        Binop::Ge => x >= y,
                        Binop::Eq => x == y,
                        Binop::Ne => x != y,
                        _ => unreachable!(),
                    };
                    return Ok(Value::Int(r as i64));
                }
                let k = match t {
                    ScalarType::Float(k) => k,
                    ScalarType::Int(_) => panic!("float operands at int type"),
                };
                let r = match op {
                    Binop::Add => x + y,
                    Binop::Sub => x - y,
                    Binop::Mul => x * y,
                    Binop::Div => x / y,
                    other => panic!("float {other:?} unsupported"),
                };
                self.float_result(k, r, at)
            }
            (a, b) => panic!("mixed operand kinds {a:?} {b:?} (frontend inserts casts)"),
        }
    }

    fn cast(&mut self, t: ScalarType, v: Value, at: StmtId) -> Result<Value, ExecError> {
        match (t, v) {
            (ScalarType::Int(it), Value::Int(x)) => Ok(Value::Int(it.wrap(x))),
            (ScalarType::Float(k), Value::Int(x)) => Ok(Value::Float(k.round_nearest(x as f64))),
            (ScalarType::Float(k), Value::Float(x)) => self.float_result(k, x, at),
            (ScalarType::Int(it), Value::Float(x)) => {
                if it.is_bool() {
                    return Ok(Value::Int((x != 0.0) as i64));
                }
                let tr = x.trunc();
                if tr.is_nan() || tr < it.min() as f64 || tr > it.max() as f64 {
                    return Err(ExecError::InvalidCast(at));
                }
                Ok(Value::Int(tr as i64))
            }
        }
    }

    /// Finishes an integer operation at type `it`: exact result `r` is
    /// checked against the range; overflow records an event and clips.
    fn int_result(&mut self, it: IntType, r: i128, at: StmtId) -> Result<Value, ExecError> {
        let (lo, hi) = (it.min() as i128, it.max() as i128);
        if r < lo || r > hi {
            self.events.push((at, RuntimeEvent::IntOverflow));
            Ok(Value::Int(r.clamp(lo, hi) as i64))
        } else {
            Ok(Value::Int(r as i64))
        }
    }

    /// Finishes a float operation at format `k`: round to the format grid,
    /// then handle NaN (abort) and infinities (event + clip).
    fn float_result(&mut self, k: FloatKind, r: f64, at: StmtId) -> Result<Value, ExecError> {
        let r = k.round_nearest(r);
        if r.is_nan() {
            return Err(ExecError::NanProduced(at));
        }
        if r.is_infinite() {
            self.events.push((at, RuntimeEvent::FloatOverflow));
            return Ok(Value::Float(if r > 0.0 { k.max_finite() } else { -k.max_finite() }));
        }
        Ok(Value::Float(r))
    }
}

/// Recursively zero-initializes the cells of a variable.
fn init_cells(var: &VarId, ty: &Type, program: &Program, path: &mut Vec<u32>, store: &mut Store) {
    match ty {
        Type::Scalar(ScalarType::Int(_)) => {
            store.insert((*var, path.clone()), Value::Int(0));
        }
        Type::Scalar(ScalarType::Float(_)) => {
            store.insert((*var, path.clone()), Value::Float(0.0));
        }
        Type::Array(elem, n) => {
            for i in 0..*n {
                path.push(i as u32);
                init_cells(var, elem, program, path, store);
                path.pop();
            }
        }
        Type::Record(rid) => {
            let fields = program.records[rid.0 as usize].fields.clone();
            for (i, (_, ft)) in fields.iter().enumerate() {
                path.push(i as u32);
                init_cells(var, ft, program, path, store);
                path.pop();
            }
        }
    }
}

/// Returns `true` if `kind` denotes a variable with whole-program lifetime.
pub fn is_persistent(kind: VarKind) -> bool {
    matches!(kind, VarKind::Global | VarKind::Static)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Function, VarInfo};
    use crate::stmt::LoopId;

    fn int_t() -> ScalarType {
        ScalarType::Int(IntType::INT)
    }

    fn simple_program(body: Block) -> (Program, VarId) {
        let mut p = Program::new();
        let x = p.add_var(VarInfo::scalar("x", int_t(), VarKind::Global));
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.assign_stmt_ids();
        (p, x)
    }

    fn run(p: &Program) -> Result<Store, ExecError> {
        let mut inputs = SeededInputs::new(42);
        let mut i = Interp::new(p, InterpConfig::default(), &mut inputs);
        i.run()?;
        Ok(i.store().clone())
    }

    #[test]
    fn assign_and_arith() {
        let t = int_t();
        let (p, x) = simple_program(vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(VarId(0)),
            Expr::Binop(Binop::Mul, t, Box::new(Expr::int(6)), Box::new(Expr::int(7))),
        ))]);
        let store = run(&p).unwrap();
        assert_eq!(store[&(x, vec![])], Value::Int(42));
    }

    #[test]
    fn division_by_zero_aborts() {
        let t = int_t();
        let (p, _) = simple_program(vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(VarId(0)),
            Expr::Binop(Binop::Div, t, Box::new(Expr::int(1)), Box::new(Expr::int(0))),
        ))]);
        assert!(matches!(run(&p), Err(ExecError::DivByZero(_))));
    }

    #[test]
    fn overflow_clips_and_records() {
        let t = int_t();
        let (p, x) = simple_program(vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(VarId(0)),
            Expr::Binop(
                Binop::Add,
                t,
                Box::new(Expr::int(i32::MAX as i64)),
                Box::new(Expr::int(1)),
            ),
        ))]);
        let mut inputs = SeededInputs::new(1);
        let mut i = Interp::new(&p, InterpConfig::default(), &mut inputs);
        i.run().unwrap();
        assert_eq!(i.store()[&(x, vec![])], Value::Int(i32::MAX as i64));
        assert_eq!(i.events().len(), 1);
        assert_eq!(i.events()[0].1, RuntimeEvent::IntOverflow);
    }

    #[test]
    fn loop_counts() {
        let t = int_t();
        let x = VarId(0);
        let body = vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(x),
            Expr::Binop(Binop::Add, t, Box::new(Expr::var(x)), Box::new(Expr::int(1))),
        ))];
        let cond = Expr::Binop(Binop::Lt, t, Box::new(Expr::var(x)), Box::new(Expr::int(10)));
        let (p, x) = simple_program(vec![Stmt::new(StmtKind::While(LoopId(0), cond, body))]);
        let store = run(&p).unwrap();
        assert_eq!(store[&(x, vec![])], Value::Int(10));
    }

    #[test]
    fn array_oob_aborts() {
        let mut p = Program::new();
        let a = p.add_var(VarInfo {
            name: "a".into(),
            ty: Type::Array(Box::new(Type::int(IntType::INT)), 3),
            kind: VarKind::Global,
            volatile_input: None,
        });
        let body = vec![Stmt::new(StmtKind::Assign(Lvalue::index(a, Expr::int(3)), Expr::int(1)))];
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.assign_stmt_ids();
        assert!(matches!(run(&p), Err(ExecError::OutOfBounds(_))));
    }

    #[test]
    fn volatile_reads_stay_in_range() {
        let mut p = Program::new();
        let v = p.add_var(VarInfo {
            name: "in".into(),
            ty: Type::int(IntType::INT),
            kind: VarKind::Global,
            volatile_input: Some(InputRange::Int(-5, 5)),
        });
        let x = p.add_var(VarInfo::scalar("x", int_t(), VarKind::Global));
        let t = int_t();
        let mut body = Vec::new();
        for _ in 0..50 {
            body.push(Stmt::new(StmtKind::ReadVolatile(v)));
            body.push(Stmt::new(StmtKind::Assign(
                Lvalue::var(x),
                Expr::Binop(Binop::Add, t, Box::new(Expr::var(x)), Box::new(Expr::var(v))),
            )));
        }
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.assign_stmt_ids();
        let mut inputs = SeededInputs::new(7);
        let mut i = Interp::new(&p, InterpConfig::default(), &mut inputs);
        let mut max_in = i64::MIN;
        let mut min_in = i64::MAX;
        i.set_observer(move |_, _| {});
        i.run().unwrap();
        // All accumulated sums stay within 50 * 5 in magnitude.
        let xv = i.store()[&(x, vec![])].as_int();
        assert!(xv.abs() <= 250);
        min_in = min_in.min(xv);
        max_in = max_in.max(xv);
        let _ = (min_in, max_in);
    }

    #[test]
    fn wait_stops_at_max_ticks() {
        let (p, _) = simple_program(vec![Stmt::new(StmtKind::While(
            LoopId(0),
            Expr::int(1),
            vec![Stmt::new(StmtKind::Wait)],
        ))]);
        let mut inputs = SeededInputs::new(1);
        let mut i =
            Interp::new(&p, InterpConfig { max_steps: 1_000_000, max_ticks: 17 }, &mut inputs);
        i.run().unwrap();
        assert_eq!(i.ticks(), 17);
    }

    #[test]
    fn wait_inside_callee_stops_run() {
        let mut p = Program::new();
        let tick = Function {
            name: "tick".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Wait)],
        };
        let tick_id = p.add_func(tick);
        let main = Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::While(
                LoopId(0),
                Expr::int(1),
                vec![Stmt::new(StmtKind::Call(None, tick_id, vec![]))],
            ))],
        };
        p.entry = p.add_func(main);
        p.assign_stmt_ids();
        let mut inputs = SeededInputs::new(1);
        let mut i =
            Interp::new(&p, InterpConfig { max_steps: 1_000_000, max_ticks: 9 }, &mut inputs);
        i.run().unwrap();
        assert_eq!(i.ticks(), 9);
    }

    #[test]
    fn call_by_ref_writes_caller_cell() {
        let mut p = Program::new();
        let g = p.add_var(VarInfo::scalar("g", int_t(), VarKind::Global));
        let prm = p.add_var(VarInfo::scalar("out", int_t(), VarKind::Param));
        let setter = Function {
            name: "set42".into(),
            params: vec![crate::program::Param {
                var: prm,
                kind: crate::program::ParamKind::ByRef,
            }],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Assign(Lvalue::var(prm), Expr::int(42)))],
        };
        let setter_id = p.add_func(setter);
        let main = Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Call(
                None,
                setter_id,
                vec![crate::stmt::CallArg::Ref(Lvalue::var(g))],
            ))],
        };
        let main_id = p.add_func(main);
        p.entry = main_id;
        p.assign_stmt_ids();
        let store = run(&p).unwrap();
        assert_eq!(store[&(g, vec![])], Value::Int(42));
    }

    #[test]
    fn return_value_lands_in_lvalue() {
        let mut p = Program::new();
        let g = p.add_var(VarInfo::scalar("g", int_t(), VarKind::Global));
        let f = Function {
            name: "seven".into(),
            params: vec![],
            ret: Some(int_t()),
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Return(Some(Expr::int(7))))],
        };
        let f_id = p.add_func(f);
        let main = Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body: vec![Stmt::new(StmtKind::Call(Some(Lvalue::var(g)), f_id, vec![]))],
        };
        p.entry = p.add_func(main);
        p.assign_stmt_ids();
        let store = run(&p).unwrap();
        assert_eq!(store[&(g, vec![])], Value::Int(7));
    }

    #[test]
    fn assume_violation_aborts() {
        let (p, _) = simple_program(vec![Stmt::new(StmtKind::Assume(Expr::int(0)))]);
        assert!(matches!(run(&p), Err(ExecError::AssumeViolated(_))));
    }

    #[test]
    fn float_f32_rounds_to_grid() {
        let mut p = Program::new();
        let x = p.add_var(VarInfo::scalar("x", ScalarType::Float(FloatKind::F32), VarKind::Global));
        let tf = ScalarType::Float(FloatKind::F32);
        let body = vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(x),
            Expr::Binop(
                Binop::Add,
                tf,
                Box::new(Expr::Float(crate::expr::FloatBits(0.1f32 as f64), FloatKind::F32)),
                Box::new(Expr::Float(crate::expr::FloatBits(0.2f32 as f64), FloatKind::F32)),
            ),
        ))];
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.assign_stmt_ids();
        let store = run(&p).unwrap();
        let got = store[&(x, vec![])].as_float();
        assert_eq!(got, (0.1f32 + 0.2f32) as f64);
    }

    #[test]
    fn shift_out_of_range_aborts() {
        let t = int_t();
        for amount in [40, -1] {
            let (p, _) = simple_program(vec![Stmt::new(StmtKind::Assign(
                Lvalue::var(VarId(0)),
                Expr::Binop(Binop::Shl, t, Box::new(Expr::int(1)), Box::new(Expr::int(amount))),
            ))]);
            assert!(matches!(run(&p), Err(ExecError::ShiftRange(_))));
        }
    }

    #[test]
    fn nan_production_aborts() {
        let mut p = Program::new();
        let x = p.add_var(VarInfo::scalar("x", ScalarType::Float(FloatKind::F64), VarKind::Global));
        let tf = ScalarType::Float(FloatKind::F64);
        let zero = || Box::new(Expr::Float(crate::expr::FloatBits(0.0), FloatKind::F64));
        let body = vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(x),
            Expr::Binop(Binop::Div, tf, zero(), zero()),
        ))];
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.assign_stmt_ids();
        assert!(matches!(run(&p), Err(ExecError::NanProduced(_))));
    }

    #[test]
    fn float_overflow_clips_and_records() {
        let mut p = Program::new();
        let x = p.add_var(VarInfo::scalar("x", ScalarType::Float(FloatKind::F64), VarKind::Global));
        let tf = ScalarType::Float(FloatKind::F64);
        let big = || Box::new(Expr::Float(crate::expr::FloatBits(1.0e308), FloatKind::F64));
        let body = vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(x),
            Expr::Binop(Binop::Mul, tf, big(), big()),
        ))];
        p.add_func(Function {
            name: "main".into(),
            params: vec![],
            ret: None,
            locals: vec![],
            body,
        });
        p.assign_stmt_ids();
        let mut inputs = SeededInputs::new(1);
        let mut i = Interp::new(&p, InterpConfig::default(), &mut inputs);
        i.run().unwrap();
        assert_eq!(i.store()[&(x, vec![])], Value::Float(FloatKind::F64.max_finite()));
        let events = i.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].1, RuntimeEvent::FloatOverflow);
    }

    #[test]
    fn out_of_range_float_to_int_cast_aborts() {
        let (p, _) = simple_program(vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(VarId(0)),
            Expr::Cast(
                int_t(),
                Box::new(Expr::Float(crate::expr::FloatBits(1.0e18), FloatKind::F64)),
            ),
        ))]);
        assert!(matches!(run(&p), Err(ExecError::InvalidCast(_))));
    }

    #[test]
    fn step_budget_exhaustion_aborts() {
        let t = int_t();
        let x = VarId(0);
        // while (1) { x = x + 0; } — no Wait, so only the step budget stops it.
        let body = vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(x),
            Expr::Binop(Binop::Add, t, Box::new(Expr::var(x)), Box::new(Expr::int(0))),
        ))];
        let (p, _) =
            simple_program(vec![Stmt::new(StmtKind::While(LoopId(0), Expr::int(1), body))]);
        let mut inputs = SeededInputs::new(1);
        let mut i = Interp::new(&p, InterpConfig { max_steps: 100, max_ticks: 1_000 }, &mut inputs);
        assert!(matches!(i.run(), Err(ExecError::StepBudget)));
        assert!(!i.hit_tick_budget());
    }

    #[test]
    fn tick_budget_is_distinguishable_from_return() {
        let (p, _) = simple_program(vec![Stmt::new(StmtKind::While(
            LoopId(0),
            Expr::int(1),
            vec![Stmt::new(StmtKind::Wait)],
        ))]);
        let mut inputs = SeededInputs::new(1);
        let mut i =
            Interp::new(&p, InterpConfig { max_steps: 1_000_000, max_ticks: 5 }, &mut inputs);
        i.run().unwrap();
        assert!(i.hit_tick_budget());

        // A program that returns before the budget does not claim exhaustion.
        let (p2, _) = simple_program(vec![Stmt::new(StmtKind::Wait)]);
        let mut inputs2 = SeededInputs::new(1);
        let mut i2 =
            Interp::new(&p2, InterpConfig { max_steps: 1_000_000, max_ticks: 5 }, &mut inputs2);
        i2.run().unwrap();
        assert!(!i2.hit_tick_budget());
    }

    #[test]
    fn observer_fires_at_every_loop_head_arrival() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let t = int_t();
        let x = VarId(0);
        let body = vec![Stmt::new(StmtKind::Assign(
            Lvalue::var(x),
            Expr::Binop(Binop::Add, t, Box::new(Expr::var(x)), Box::new(Expr::int(1))),
        ))];
        let cond = Expr::Binop(Binop::Lt, t, Box::new(Expr::var(x)), Box::new(Expr::int(3)));
        let (p, x) = simple_program(vec![Stmt::new(StmtKind::While(LoopId(0), cond, body))]);
        let while_id = p.funcs[p.entry.0 as usize].body[0].id;
        let seen: Rc<RefCell<Vec<i64>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&seen);
        let mut inputs = SeededInputs::new(1);
        let mut i = Interp::new(&p, InterpConfig::default(), &mut inputs);
        i.set_observer(move |id, store| {
            if id == while_id {
                sink.borrow_mut().push(store[&(x, vec![])].as_int());
            }
        });
        i.run().unwrap();
        drop(i);
        // One arrival on entry plus one per back edge, including the state
        // that fails the test (x == 3).
        assert_eq!(*seen.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn seeded_inputs_are_deterministic() {
        let range = InputRange::Int(-100, 100);
        let frange = InputRange::Float(-1.0, 1.0);
        let mut a = SeededInputs::new(0xfeed);
        let mut b = SeededInputs::new(0xfeed);
        let mut c = SeededInputs::new(0xfeee);
        let mut all_equal_c = true;
        for i in 0..256 {
            let r = if i % 2 == 0 { range } else { frange };
            let (va, vb, vc) = (a.next(VarId(0), &r), b.next(VarId(0), &r), c.next(VarId(0), &r));
            assert_eq!(va, vb, "same seed must give the same stream");
            if va != vc {
                all_equal_c = false;
            }
            match va {
                Value::Int(x) => assert!((-100..=100).contains(&x)),
                Value::Float(x) => assert!((-1.0..=1.0).contains(&x)),
            }
        }
        assert!(!all_equal_c, "different seeds should diverge");
    }

    #[test]
    fn exec_error_display_is_stable() {
        assert_eq!(ExecError::DivByZero(StmtId(3)).to_string(), "division by zero at stmt 3");
        assert_eq!(ExecError::OutOfBounds(StmtId(4)).to_string(), "out-of-bounds access at stmt 4");
        assert_eq!(ExecError::ShiftRange(StmtId(5)).to_string(), "shift out of range at stmt 5");
        assert_eq!(ExecError::NanProduced(StmtId(6)).to_string(), "NaN produced at stmt 6");
        assert_eq!(ExecError::InvalidCast(StmtId(7)).to_string(), "invalid cast at stmt 7");
        assert_eq!(
            ExecError::AssumeViolated(StmtId(8)).to_string(),
            "assumption violated at stmt 8"
        );
        assert_eq!(ExecError::StepBudget.to_string(), "step budget exhausted");
    }
}
