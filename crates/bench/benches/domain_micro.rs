//! Micro-benchmarks of the abstract domains: the per-operation costs that
//! determine the analyzer's constant factors (octagon closure is the cubic
//! bottleneck the paper keeps affordable via small packs, Sect. 7.2.1).

use astree_domains::{Ellipsoid, FloatItv, IntItv, LinForm, Octagon, Thresholds};
use astree_ir::FloatKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_octagon_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("octagon_closure");
    for n in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut o = Octagon::top(n);
                for i in 0..n - 1 {
                    o.add_diff_le(i, i + 1, i as f64);
                }
                o.add_upper(n - 1, 10.0);
                o.close();
                black_box(o.bounds(0))
            })
        });
    }
    group.finish();
}

/// Sweeps closure over the pack sizes the analyzer actually sees (2–3
/// variables dominate pack discovery; 8 is the default cap), across the
/// full and incremental paths — so a kernel regression is visible without
/// the end-to-end bench.
fn bench_octagon_closure_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("octagon_closure_kernels");
    for n in 2usize..=8 {
        // Full closure: every variable constrained, so `close()` takes the
        // full pair-sweep path.
        group.bench_with_input(BenchmarkId::new("full", n), &n, |b, &n| {
            b.iter(|| {
                let mut o = Octagon::top(n);
                for i in 0..n {
                    o.add_upper(i, 8.0 + i as f64);
                    o.add_lower(i, -1.0);
                }
                for i in 0..n - 1 {
                    o.add_diff_le(i, i + 1, i as f64);
                    o.add_sum_le(i, i + 1, 10.0);
                }
                o.close();
                black_box(o.bounds(0))
            });
        });
        // Incremental closure: one variable re-constrained on an
        // already-closed octagon.
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, &n| {
            let mut base = Octagon::top(n);
            for i in 0..n - 1 {
                base.add_diff_le(i, i + 1, i as f64);
                base.add_sum_le(i, i + 1, 10.0);
            }
            base.add_upper(n - 1, 10.0);
            base.close();
            b.iter(|| {
                let mut o = base.clone();
                o.add_upper(0, 3.5);
                o.close();
                black_box(o.bounds(0))
            });
        });
    }
    group.finish();
}

fn bench_octagon_join(c: &mut Criterion) {
    c.bench_function("octagon_join_8", |b| {
        let mut x = Octagon::top(8);
        x.assign_interval(0, FloatItv::new(0.0, 1.0));
        x.close();
        let mut y = Octagon::top(8);
        y.assign_interval(0, FloatItv::new(2.0, 3.0));
        y.close();
        b.iter(|| black_box(x.join_ref(&y)))
    });
}

fn bench_interval_ops(c: &mut Criterion) {
    c.bench_function("int_interval_mul", |b| {
        let x = IntItv::new(-1000, 2000);
        let y = IntItv::new(-3, 700);
        b.iter(|| black_box(x.mul(y)))
    });
    c.bench_function("float_interval_mul", |b| {
        let x = FloatItv::new(-1.5, 2.5);
        let y = FloatItv::new(0.1, 0.9);
        b.iter(|| black_box(x.mul(y, FloatKind::F64)))
    });
    c.bench_function("float_interval_div", |b| {
        let x = FloatItv::new(1.0, 2.0);
        let y = FloatItv::new(0.5, 4.0);
        b.iter(|| black_box(x.div(y, FloatKind::F64)))
    });
}

fn bench_ellipsoid_delta(c: &mut Criterion) {
    c.bench_function("ellipsoid_delta", |b| {
        let e = Ellipsoid::new(1.5, 0.7, 150.0);
        b.iter(|| black_box(e.delta(1.0)))
    });
}

fn bench_linform(c: &mut Criterion) {
    c.bench_function("linform_build_eval", |b| {
        b.iter(|| {
            let x: LinForm<u32> = LinForm::var(0);
            let y: LinForm<u32> = LinForm::var(1);
            let l = x
                .scale(FloatItv::singleton(1.5))
                .sub(&y.scale(FloatItv::singleton(0.7)))
                .add(&LinForm::constant(FloatItv::new(-1.0, 1.0)));
            black_box(l.eval(|_| FloatItv::new(-10.0, 10.0)))
        })
    });
}

fn bench_widening(c: &mut Criterion) {
    c.bench_function("interval_widen_thresholds", |b| {
        let t = Thresholds::geometric_default();
        let x = IntItv::new(0, 10);
        let y = IntItv::new(0, 4711);
        b.iter(|| black_box(x.widen(y, &t)))
    });
}

criterion_group!(
    benches,
    bench_octagon_closure,
    bench_octagon_closure_kernels,
    bench_octagon_join,
    bench_interval_ops,
    bench_ellipsoid_delta,
    bench_linform,
    bench_widening
);
criterion_main!(benches);
