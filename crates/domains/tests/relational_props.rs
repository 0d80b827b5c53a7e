//! Property tests for the relational domains: octagon transfer functions
//! against concrete point tracking, and decision trees against explicit
//! context enumeration.

use astree_domains::{DecisionTree, FloatItv, IntItv, Octagon, Thresholds, Widening};
use proptest::prelude::*;

// ----- octagons --------------------------------------------------------------

/// A concrete point and the abstract octagon tracking it.
#[derive(Debug, Clone)]
struct Tracked {
    point: Vec<f64>,
    oct: Octagon,
}

impl Tracked {
    fn new(values: Vec<f64>) -> Tracked {
        let mut oct = Octagon::top(values.len());
        for (i, v) in values.iter().enumerate() {
            oct.assign_interval(i, FloatItv::new(*v, *v));
        }
        Tracked { point: values, oct }
    }

    /// Checks the octagon still admits the point.
    fn check(&mut self) {
        let n = self.point.len();
        self.oct.close();
        assert!(!self.oct.is_bottom(), "point tracked into bottom");
        for i in 0..n {
            let b = self.oct.bounds(i);
            assert!(
                b.lo - 1e-6 <= self.point[i] && self.point[i] <= b.hi + 1e-6,
                "x{i} = {} escaped {b}",
                self.point[i]
            );
            for j in 0..n {
                if i != j {
                    let d = self.oct.diff_bound(i, j);
                    assert!(
                        self.point[i] - self.point[j] <= d + 1e-6,
                        "x{i} - x{j} = {} > {d}",
                        self.point[i] - self.point[j]
                    );
                }
            }
        }
    }
}

#[derive(Debug, Clone)]
enum OctOp {
    /// x_i := x_j + c
    AssignVarPlus(usize, usize, f64),
    /// x_i := −x_j + c
    AssignNegVarPlus(usize, usize, f64),
    /// x_i := c
    AssignConst(usize, f64),
    /// forget x_i (concrete value unchanged)
    Forget(usize),
}

fn oct_ops(n: usize) -> impl Strategy<Value = Vec<OctOp>> {
    let op = prop_oneof![
        (0..n, 0..n, -10.0f64..10.0).prop_map(|(i, j, c)| OctOp::AssignVarPlus(i, j, c)),
        (0..n, 0..n, -10.0f64..10.0).prop_map(|(i, j, c)| OctOp::AssignNegVarPlus(i, j, c)),
        (0..n, -10.0f64..10.0).prop_map(|(i, c)| OctOp::AssignConst(i, c)),
        (0..n).prop_map(OctOp::Forget),
    ];
    prop::collection::vec(op, 1..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every sequence of affine assignments keeps the concrete point inside
    /// the octagon.
    #[test]
    fn octagon_transfers_track_concrete_points(
        init in prop::collection::vec(-10.0f64..10.0, 4),
        ops in oct_ops(4),
    ) {
        let mut t = Tracked::new(init);
        for op in ops {
            match op {
                OctOp::AssignVarPlus(i, j, c) => {
                    t.point[i] = t.point[j] + c;
                    t.oct.assign_var_plus_const(i, j, c, c);
                }
                OctOp::AssignNegVarPlus(i, j, c) => {
                    t.point[i] = -t.point[j] + c;
                    t.oct.assign_neg_var_plus_const(i, j, c, c);
                }
                OctOp::AssignConst(i, c) => {
                    t.point[i] = c;
                    t.oct.assign_interval(i, FloatItv::new(c, c));
                }
                OctOp::Forget(i) => t.oct.forget(i),
            }
            t.check();
        }
    }

    /// Join admits the points of both operands; widening admits the join.
    #[test]
    fn octagon_join_and_widen_admit_points(
        a in prop::collection::vec(-10.0f64..10.0, 3),
        b in prop::collection::vec(-10.0f64..10.0, 3),
    ) {
        let mut ta = Tracked::new(a.clone());
        let mut tb = Tracked::new(b.clone());
        let j = ta.oct.join(&mut tb.oct);
        let check_in = |oct: &Octagon, p: &[f64]| {
            let mut o = oct.clone();
            o.close();
            for (i, v) in p.iter().enumerate() {
                let bounds = o.bounds(i);
                prop_assert!(bounds.lo - 1e-6 <= *v && *v <= bounds.hi + 1e-6);
            }
            Ok(())
        };
        check_in(&j, &a)?;
        check_in(&j, &b)?;
        let t = Thresholds::geometric_default();
        let mut jb = j.clone();
        let w = ta.oct.widen(&mut jb, &Widening::from(&t));
        check_in(&w, &a)?;
        check_in(&w, &b)?;
    }

    /// Inclusion is reflexive and antisymmetric w.r.t. derived bounds.
    #[test]
    fn octagon_leq_laws(vals in prop::collection::vec(-5.0f64..5.0, 3)) {
        let mut t = Tracked::new(vals);
        let copy = t.oct.clone();
        prop_assert!(t.oct.leq(&copy));
        let mut top = Octagon::top(3);
        prop_assert!(t.oct.leq(&top));
        // top ⋢ point (unless degenerate, impossible for singleton bounds)
        prop_assert!(!top.leq(&t.oct));
    }
}

// ----- decision trees --------------------------------------------------------

/// A model: explicit map from boolean contexts (bitmask over 2 vars) to an
/// interval.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    by_ctx: Vec<IntItv>, // indexed by b0 + 2*b1
}

fn tree_of(model: &Model) -> DecisionTree<u32, IntItv> {
    DecisionTree::node(
        0,
        DecisionTree::node(
            1,
            DecisionTree::leaf(model.by_ctx[0]),
            DecisionTree::leaf(model.by_ctx[2]),
        ),
        DecisionTree::node(
            1,
            DecisionTree::leaf(model.by_ctx[1]),
            DecisionTree::leaf(model.by_ctx[3]),
        ),
    )
}

fn itv() -> impl Strategy<Value = IntItv> {
    (-20i64..20, -20i64..20).prop_map(|(a, b)| IntItv::new(a.min(b), a.max(b)))
}

fn model() -> impl Strategy<Value = Model> {
    prop::collection::vec(itv(), 4).prop_map(|by_ctx| Model { by_ctx })
}

proptest! {
    /// guard() keeps exactly the matching contexts.
    #[test]
    fn dtree_guard_matches_model(m in model(), var in 0u32..2, value in any::<bool>()) {
        let t = tree_of(&m);
        let g = t.guard(var, value);
        for ctx in 0..4usize {
            let bit = if var == 0 { ctx & 1 != 0 } else { ctx & 2 != 0 };
            let expected = if bit == value { m.by_ctx[ctx] } else { IntItv::BOTTOM };
            // Read the context back by guarding on both variables.
            let leaf = g
                .guard(0, ctx & 1 != 0)
                .guard(1, ctx & 2 != 0)
                .collapse();
            prop_assert_eq!(leaf, expected, "ctx {}", ctx);
        }
    }

    /// join is the pointwise join over contexts.
    #[test]
    fn dtree_join_matches_model(a in model(), b in model()) {
        let ta = tree_of(&a);
        let tb = tree_of(&b);
        let j = ta.join(&tb);
        for ctx in 0..4usize {
            let leaf = j.guard(0, ctx & 1 != 0).guard(1, ctx & 2 != 0).collapse();
            prop_assert_eq!(leaf, a.by_ctx[ctx].join(b.by_ctx[ctx]));
        }
    }

    /// forget joins the two branches of the variable.
    #[test]
    fn dtree_forget_matches_model(m in model(), var in 0u32..2) {
        let t = tree_of(&m);
        let f = t.forget(var);
        for ctx in 0..4usize {
            let other = if var == 0 { ctx ^ 1 } else { ctx ^ 2 };
            let expected = m.by_ctx[ctx].join(m.by_ctx[other]);
            let leaf = f.guard(0, ctx & 1 != 0).guard(1, ctx & 2 != 0).collapse();
            prop_assert_eq!(leaf, expected);
        }
    }

    /// leq agrees with pointwise inclusion over contexts.
    #[test]
    fn dtree_leq_matches_model(a in model(), b in model()) {
        let want = (0..4).all(|c| a.by_ctx[c].leq(b.by_ctx[c]));
        prop_assert_eq!(tree_of(&a).leq(&tree_of(&b)), want);
    }
}
