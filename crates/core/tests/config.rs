//! Laws of the one description of the configuration: `to_json` and `patch`
//! are inverse on every field, and the store fingerprint ignores exactly the
//! `UNKEYED` keys.

use astree_core::config::UNKEYED;
use astree_core::AnalysisConfig;
use astree_domains::Thresholds;
use astree_ir::LoopId;
use astree_obs::Json;
use std::collections::{HashMap, HashSet};

/// A configuration with every field away from its default. The struct
/// literal names every field, so a new one does not compile until it has a
/// non-default value here.
fn every_field_moved() -> AnalysisConfig {
    AnalysisConfig {
        thresholds: Thresholds::from_values(vec![0.5, 3.0, 1e9]),
        widening_delay: 5,
        stabilization_grace: 1,
        max_iterations: 17,
        narrowing_iterations: 4,
        loop_unroll: 3,
        per_loop_unroll: HashMap::from([(LoopId(3), 4), (LoopId(1), 2)]),
        max_clock: -7,
        float_perturbation: 1e-9,
        shrink_threshold: 9,
        enable_octagons: false,
        enable_ellipsoids: false,
        enable_dtrees: false,
        enable_clocked: false,
        enable_linearization: false,
        partitioned_functions: HashSet::from(["main".to_string(), "aux".to_string()]),
        max_partitions: 2,
        octagon_pack_cap: 5,
        dtree_pack_bool_cap: 1,
        octagon_pack_filter: Some(vec![0, 3]),
        octagon_packs_extra: vec![vec!["a".into(), "b".into()], vec!["c".into()]],
        jobs: 4,
        debug_panic_slice: Some(1),
        debug_no_ptr_shortcuts: true,
        collect_stmt_invariants: true,
    }
}

/// Field-by-field equality, floats by bit pattern. The destructuring is
/// exhaustive, so a new field does not compile until it is compared.
fn assert_bit_identical(a: &AnalysisConfig, b: &AnalysisConfig) {
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
        jobs,
        debug_panic_slice,
        debug_no_ptr_shortcuts,
        collect_stmt_invariants,
    } = a;
    let bits = |r: &[f64]| r.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(thresholds.ramp()), bits(b.thresholds.ramp()));
    assert_eq!(
        (widening_delay, stabilization_grace, max_iterations, narrowing_iterations, loop_unroll),
        (
            &b.widening_delay,
            &b.stabilization_grace,
            &b.max_iterations,
            &b.narrowing_iterations,
            &b.loop_unroll
        )
    );
    assert_eq!(per_loop_unroll, &b.per_loop_unroll);
    assert_eq!(max_clock, &b.max_clock);
    assert_eq!(float_perturbation.to_bits(), b.float_perturbation.to_bits());
    assert_eq!(shrink_threshold, &b.shrink_threshold);
    assert_eq!(
        [enable_octagons, enable_ellipsoids, enable_dtrees, enable_clocked, enable_linearization],
        [
            &b.enable_octagons,
            &b.enable_ellipsoids,
            &b.enable_dtrees,
            &b.enable_clocked,
            &b.enable_linearization
        ]
    );
    assert_eq!(partitioned_functions, &b.partitioned_functions);
    assert_eq!(
        (max_partitions, octagon_pack_cap, dtree_pack_bool_cap),
        (&b.max_partitions, &b.octagon_pack_cap, &b.dtree_pack_bool_cap)
    );
    assert_eq!(octagon_pack_filter, &b.octagon_pack_filter);
    assert_eq!(octagon_packs_extra, &b.octagon_packs_extra);
    assert_eq!((jobs, debug_panic_slice), (&b.jobs, &b.debug_panic_slice));
    assert_eq!(
        (debug_no_ptr_shortcuts, collect_stmt_invariants),
        (&b.debug_no_ptr_shortcuts, &b.collect_stmt_invariants)
    );
}

fn keys(config: &AnalysisConfig) -> Vec<(String, Json)> {
    match config.to_json() {
        Json::Obj(fields) => fields,
        other => panic!("to_json is not an object: {other}"),
    }
}

#[test]
fn every_field_survives_to_json_then_patch_bit_exactly() {
    let moved = every_field_moved();
    let default = AnalysisConfig::default().to_json();
    for (key, value) in keys(&moved) {
        assert_ne!(default.get(&key), Some(&value), "`{key}` is still at its default");
    }
    // Through the wire's own rendering, as an `init` frame travels.
    let text = moved.to_json().to_compact();
    let mut back = AnalysisConfig::default();
    back.patch(&Json::parse(&text).unwrap()).unwrap();
    assert_bit_identical(&moved, &back);
    assert_eq!(back.to_json().to_compact(), text, "to_json is deterministic");
}

#[test]
fn fingerprint_ignores_exactly_the_unkeyed_keys() {
    let base = AnalysisConfig::default();
    let moved = keys(&every_field_moved());
    assert_eq!(moved.len(), 25, "one key per field");
    for (key, _) in &UNKEYED {
        assert!(moved.iter().any(|(k, _)| k == key), "UNKEYED names `{key}`, not a key");
    }
    for (key, value) in moved {
        let mut c = AnalysisConfig::default();
        c.patch(&Json::obj([(key.as_str(), value)])).unwrap();
        let unkeyed = UNKEYED.iter().any(|(k, _)| *k == key);
        assert_eq!(c.fingerprint() == base.fingerprint(), unkeyed, "`{key}`");
    }
}

#[test]
fn patch_is_strict_and_leaves_the_config_alone_on_error() {
    let mut c = AnalysisConfig::default();
    let before = c.to_json();
    for (patch, key) in [
        (Json::obj([("loop_unroll", Json::UInt(2)), ("unroll", Json::UInt(2))]), "`unroll`"),
        (Json::obj([("enable_octagons", Json::str("no"))]), "`enable_octagons`"),
        (Json::obj([("loop_unroll", Json::Int(-1))]), "`loop_unroll`"),
        (Json::obj([("jobs", Json::UInt(0))]), "`jobs`"),
        (Json::obj([("per_loop_unroll", Json::Arr(vec![Json::UInt(1)]))]), "`per_loop_unroll`"),
    ] {
        let err = c.patch(&patch).unwrap_err();
        assert!(err.contains(key), "{err}");
        assert_eq!(c.to_json(), before, "a failed patch changed the config");
    }
    assert!(c.patch(&Json::Null).is_err());
    c.patch(&Json::obj([("partitioned_functions", Json::Arr(vec![Json::str("f")]))])).unwrap();
    c.patch(&Json::obj([("partitioned_functions", Json::Arr(vec![Json::str("g")]))])).unwrap();
    assert_eq!(c.partitioned_functions, HashSet::from(["g".to_string()]), "a patch replaces a set");
}

#[test]
fn defaults_enable_everything() {
    let c = AnalysisConfig::default();
    assert!(c.enable_octagons && c.enable_ellipsoids && c.enable_dtrees);
    assert!(c.enable_clocked && c.enable_linearization);
    assert_eq!(c.dtree_pack_bool_cap, 3);
}

#[test]
fn baseline_disables_refinements() {
    let c = AnalysisConfig::baseline();
    assert!(!c.enable_octagons && !c.enable_ellipsoids && !c.enable_dtrees);
    assert!(c.enable_clocked, "the baseline [5] already had the clocked domain");
}

#[test]
fn per_loop_unroll_overrides() {
    let mut c = AnalysisConfig::default();
    c.loop_unroll = 1;
    c.per_loop_unroll.insert(LoopId(3), 4);
    assert_eq!(c.unroll_for(LoopId(3)), 4);
    assert_eq!(c.unroll_for(LoopId(0)), 1);
}
