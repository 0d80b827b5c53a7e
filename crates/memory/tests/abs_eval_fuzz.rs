//! Property fuzzing of the abstract expression evaluator: for random
//! well-typed expressions and random concrete stores drawn from the
//! abstract environment, the concrete result must be covered — either the
//! value lies in the abstract interval, or the error is covered by a flag
//! (the soundness contract of paper Sect. 5.4).

use astree_domains::{Clocked, ErrFlags, FloatItv, IntItv};
use astree_ir::{
    Binop, Expr, FloatKind, Function, IntType, Program, ScalarType, Unop, VarId, VarInfo, VarKind,
};
use astree_memory::{AbsEnv, AbsVal, CellLayout, CellVal, Evaluator, LayoutConfig};
use proptest::prelude::*;

const NVARS: usize = 3;

fn int_t() -> ScalarType {
    ScalarType::Int(IntType::INT)
}

fn float_t() -> ScalarType {
    ScalarType::Float(FloatKind::F64)
}

/// Random integer expression over `i0..i2` (loads) and small constants.
fn int_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0..NVARS as u32).prop_map(|v| Expr::var(VarId(v))),
        (-50i64..50).prop_map(Expr::int),
    ];
    leaf.prop_recursive(depth, 64, 2, |inner| {
        (
            inner.clone(),
            inner,
            prop_oneof![
                Just(Binop::Add),
                Just(Binop::Sub),
                Just(Binop::Mul),
                Just(Binop::Div),
                Just(Binop::Rem),
                Just(Binop::BAnd),
                Just(Binop::BOr),
                Just(Binop::BXor),
                Just(Binop::Lt),
                Just(Binop::Eq),
                Just(Binop::LAnd),
            ],
        )
            .prop_map(|(a, b, op)| Expr::Binop(op, int_t(), Box::new(a), Box::new(b)))
    })
    .boxed()
}

/// Random float expression over `f0..f2` (loads at vars 3..6) and constants.
fn float_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0..NVARS as u32).prop_map(|v| Expr::var_t(VarId(NVARS as u32 + v), float_t())),
        (-8.0f64..8.0).prop_map(Expr::float),
    ];
    leaf.prop_recursive(depth, 64, 2, |inner| {
        (
            inner.clone(),
            inner,
            prop_oneof![Just(Binop::Add), Just(Binop::Sub), Just(Binop::Mul), Just(Binop::Div),],
        )
            .prop_map(|(a, b, op)| Expr::Binop(op, float_t(), Box::new(a), Box::new(b)))
    })
    .boxed()
}

struct Fix {
    program: Program,
    layout: CellLayout,
}

fn fixture() -> Fix {
    let mut p = Program::new();
    for i in 0..NVARS {
        p.add_var(VarInfo::scalar(format!("i{i}"), int_t(), VarKind::Global));
    }
    for i in 0..NVARS {
        p.add_var(VarInfo::scalar(format!("f{i}"), float_t(), VarKind::Global));
    }
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

/// Concrete integer semantics mirroring the interpreter: errors are
/// reported as the flag class they must be covered by.
fn conc_int(e: &Expr, ivals: &[i64], fvals: &[f64]) -> Result<i64, ErrFlags> {
    match e {
        Expr::Int(v, _) => Ok(*v),
        Expr::Load(lv, _) => Ok(ivals[lv.base.0 as usize]),
        Expr::Unop(Unop::Neg, _, a) => clip(-(conc_int(a, ivals, fvals)? as i128)),
        Expr::Unop(Unop::LNot, _, a) => Ok((conc_int(a, ivals, fvals)? == 0) as i64),
        Expr::Unop(Unop::BNot, _, a) => Ok(IntType::INT.wrap(!conc_int(a, ivals, fvals)?)),
        Expr::Binop(op, _, a, b) => {
            let x = conc_int(a, ivals, fvals)?;
            let y = conc_int(b, ivals, fvals)?;
            match op {
                Binop::Add => clip(x as i128 + y as i128),
                Binop::Sub => clip(x as i128 - y as i128),
                Binop::Mul => clip(x as i128 * y as i128),
                Binop::Div => {
                    if y == 0 {
                        Err(ErrFlags::DIV_BY_ZERO)
                    } else {
                        clip(x as i128 / y as i128)
                    }
                }
                Binop::Rem => {
                    if y == 0 {
                        Err(ErrFlags::DIV_BY_ZERO)
                    } else {
                        clip(x as i128 % y as i128)
                    }
                }
                Binop::BAnd => Ok(IntType::INT.wrap(x & y)),
                Binop::BOr => Ok(IntType::INT.wrap(x | y)),
                Binop::BXor => Ok(IntType::INT.wrap(x ^ y)),
                Binop::Lt => Ok((x < y) as i64),
                Binop::Eq => Ok((x == y) as i64),
                Binop::LAnd => Ok(((x != 0) && (y != 0)) as i64),
                _ => unreachable!(),
            }
        }
        _ => unreachable!("generator produces no casts"),
    }
}

/// Integer overflow clips to the type range (the analyzer's "wipe out"
/// semantics) and must be covered by the INT_OVERFLOW flag.
fn clip(r: i128) -> Result<i64, ErrFlags> {
    let (lo, hi) = (IntType::INT.min() as i128, IntType::INT.max() as i128);
    if r < lo || r > hi {
        Err(ErrFlags::INT_OVERFLOW)
    } else {
        Ok(r as i64)
    }
}

fn conc_float(e: &Expr, fvals: &[f64]) -> Result<f64, ErrFlags> {
    match e {
        Expr::Float(b, _) => Ok(b.get()),
        Expr::Load(lv, _) => Ok(fvals[lv.base.0 as usize - NVARS]),
        Expr::Binop(op, _, a, b) => {
            let x = conc_float(a, fvals)?;
            let y = conc_float(b, fvals)?;
            let r = match op {
                Binop::Add => x + y,
                Binop::Sub => x - y,
                Binop::Mul => x * y,
                Binop::Div => {
                    if y == 0.0 {
                        return Err(ErrFlags::DIV_BY_ZERO);
                    }
                    x / y
                }
                _ => unreachable!(),
            };
            if r.is_nan() {
                Err(ErrFlags::NAN)
            } else if r.is_infinite() {
                Err(ErrFlags::FLOAT_OVERFLOW)
            } else {
                Ok(r)
            }
        }
        _ => unreachable!(),
    }
}

fn env_with(fix: &Fix, iranges: &[(i64, i64)], franges: &[(f64, f64)]) -> AbsEnv {
    let mut env = AbsEnv::initial(&fix.layout);
    for (i, (lo, hi)) in iranges.iter().enumerate() {
        let cell = fix.layout.scalar_cell(VarId(i as u32));
        env.set(cell, CellVal::Int(Clocked::of_val(IntItv::new(*lo, *hi), env.clock)));
    }
    for (i, (lo, hi)) in franges.iter().enumerate() {
        let cell = fix.layout.scalar_cell(VarId((NVARS + i) as u32));
        env.set(cell, CellVal::Float(FloatItv::new(*lo, *hi)));
    }
    env
}

fn ranges_int() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec(
        (-100_000i64..100_000, -100_000i64..100_000).prop_map(|(a, b)| (a.min(b), a.max(b))),
        NVARS,
    )
}

fn ranges_float() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(
        (-1e6f64..1e6, -1e6f64..1e6).prop_map(|(a, b)| (a.min(b), a.max(b))),
        NVARS,
    )
}

fn samples(n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, NVARS), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn int_eval_is_sound(e in int_expr(4), iranges in ranges_int(), fracs in samples(8)) {
        let fix = fixture();
        let ev = Evaluator::new(&fix.program, &fix.layout, 1000);
        let env = env_with(&fix, &iranges, &[(0.0, 0.0); NVARS]);
        let (abs, flags) = ev.eval(&env, &e);
        let AbsVal::Int(itv) = abs else { panic!("int expr") };
        for frac in &fracs {
            let ivals: Vec<i64> = iranges
                .iter()
                .zip(frac)
                .map(|((lo, hi), f)| lo + ((*hi - *lo) as f64 * f) as i64)
                .collect();
            match conc_int(&e, &ivals, &[]) {
                Ok(v) => prop_assert!(
                    itv.contains(v),
                    "{itv} misses {v} (flags {flags}) for {ivals:?}"
                ),
                Err(f) => prop_assert!(
                    flags.contains(f),
                    "error {f} not covered by flags {flags}"
                ),
            }
        }
    }

    #[test]
    fn float_eval_is_sound(e in float_expr(4), franges in ranges_float(), fracs in samples(8)) {
        let fix = fixture();
        let ev = Evaluator::new(&fix.program, &fix.layout, 1000);
        let env = env_with(&fix, &[(0, 0); NVARS], &franges);
        let (abs, flags) = ev.eval(&env, &e);
        let AbsVal::Float(itv) = abs else { panic!("float expr") };
        for frac in &fracs {
            let fvals: Vec<f64> = franges
                .iter()
                .zip(frac)
                .map(|((lo, hi), f)| lo + (hi - lo) * f)
                .collect();
            match conc_float(&e, &fvals) {
                Ok(v) => prop_assert!(
                    itv.contains(v),
                    "{itv} misses {v} (flags {flags}) for {fvals:?}"
                ),
                Err(f) => prop_assert!(
                    flags.contains(f),
                    "error {f} not covered by flags {flags}"
                ),
            }
        }
    }

    /// Guards are sound: states satisfying the condition concretely survive
    /// the abstract guard.
    #[test]
    fn guard_is_sound(e in int_expr(3), iranges in ranges_int(), fracs in samples(8)) {
        let fix = fixture();
        let ev = Evaluator::new(&fix.program, &fix.layout, 1000);
        let env = env_with(&fix, &iranges, &[(0.0, 0.0); NVARS]);
        let guarded_true = ev.guard(env.clone(), &e, true);
        let guarded_false = ev.guard(env.clone(), &e, false);
        for frac in &fracs {
            let ivals: Vec<i64> = iranges
                .iter()
                .zip(frac)
                .map(|((lo, hi), f)| lo + ((*hi - *lo) as f64 * f) as i64)
                .collect();
            let Ok(v) = conc_int(&e, &ivals, &[]) else { continue };
            let target = if v != 0 { &guarded_true } else { &guarded_false };
            prop_assert!(!target.is_bottom(), "satisfying state pruned by guard");
            // Each variable's value must survive in the guarded env.
            for (i, val) in ivals.iter().enumerate() {
                let cell = fix.layout.scalar_cell(VarId(i as u32));
                match target.get(cell, &fix.layout) {
                    CellVal::Int(c) => prop_assert!(
                        c.val.contains(*val),
                        "guard dropped i{i} = {val}: {}",
                        c.val
                    ),
                    _ => unreachable!(),
                }
            }
        }
    }
}
