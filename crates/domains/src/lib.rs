//! Arithmetic abstract domains (paper Sect. 6.2) and symbolic expression
//! manipulation (Sect. 6.3).
//!
//! The non-relational base is the interval domain — [`IntItv`] for integers
//! and [`FloatItv`] for floats, the latter with outward rounding through
//! [`astree_float`] so every transfer function over-approximates the concrete
//! IEEE-754 semantics. On top of it:
//!
//! - [`clocked`] — the clocked domain `(x, x−clock, x+clock)` bounding
//!   event counters by the system's maximal operating time (Sect. 6.2.1);
//! - [`octagon`] — constraints `±x ±y ≤ c` with cubic-time strong closure,
//!   applied to small variable packs (Sect. 6.2.2);
//! - [`ellipsoid`] — the domain `ε(a,b)` of invariants `X² − aXY + bY² ≤ k`
//!   preserved by second-order digital filters, with the rounding-aware `δ`
//!   update (Sect. 6.2.3);
//! - [`dtree`] — boolean decision trees with arithmetic leaves relating
//!   booleans to numeric variables (Sect. 6.2.4);
//! - [`linform`] — interval linear forms `Σ [aᵢ,bᵢ]·vᵢ + [a,b]` and the
//!   linearization of expressions with absolute rounding-error accounting
//!   (Sect. 6.3);
//! - [`thresholds`] — the widening-threshold sets `±α·λᵏ` (Sect. 7.1.2);
//! - [`widening`] — what one widening step may jump to: the ramp, and the
//!   bound the clock implies (Sect. 6.2.1).

pub mod clocked;
pub mod dtree;
pub mod ellipsoid;
pub mod flags;
pub mod float_interval;
pub mod int_interval;
pub mod linform;
pub mod octagon;
pub mod thresholds;
pub mod widening;

pub use clocked::Clocked;
pub use dtree::DecisionTree;
pub use ellipsoid::Ellipsoid;
pub use flags::ErrFlags;
pub use float_interval::FloatItv;
pub use int_interval::IntItv;
pub use linform::LinForm;
pub use octagon::Octagon;
pub use thresholds::Thresholds;
pub use widening::Widening;
