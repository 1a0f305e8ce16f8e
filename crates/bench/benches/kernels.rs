//! Microbenchmarks of the computing-block kernels: the register-blocked
//! SIMD path vs the scalar reference, SP and DP (Table I's object of study
//! on the host).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use simd_kernel::{
    block4x4_minplus_f32, block4x4_minplus_f32_arrays, block4x4_minplus_f64_arrays,
    block4x4_minplus_scalar, BlockF32, F32x4,
};

fn mk_block(seed: u64) -> [[f32; 4]; 4] {
    let mut s = seed;
    let mut m = [[0.0f32; 4]; 4];
    for row in m.iter_mut() {
        for v in row.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 33) as f32) / (u32::MAX as f32) * 100.0;
        }
    }
    m
}

fn to_rows(m: &[[f32; 4]; 4]) -> BlockF32 {
    [
        F32x4::from(m[0]),
        F32x4::from(m[1]),
        F32x4::from(m[2]),
        F32x4::from(m[3]),
    ]
}

fn bench_tile_kernels(c: &mut Criterion) {
    let a = mk_block(1);
    let b = mk_block(2);
    let c0 = mk_block(3);

    let mut g = c.benchmark_group("tile4x4");
    g.throughput(Throughput::Elements(64)); // 64 relaxations per update

    g.bench_function("simd_f32_registers", |bench| {
        let (av, bv) = (to_rows(&a), to_rows(&b));
        let mut cv = to_rows(&c0);
        bench.iter(|| {
            block4x4_minplus_f32(&mut cv, &av, &bv);
            cv
        });
    });

    g.bench_function("scalar_f32", |bench| {
        let mut cm = c0;
        bench.iter(|| {
            block4x4_minplus_scalar(&mut cm, &a, &b);
            cm
        });
    });

    g.bench_function("strided_f32", |bench| {
        let stride = 8usize;
        let flat = |m: &[[f32; 4]; 4]| {
            let mut v = vec![0.0f32; 4 * stride];
            for r in 0..4 {
                v[r * stride..r * stride + 4].copy_from_slice(&m[r]);
            }
            v
        };
        let (af, bf) = (flat(&a), flat(&b));
        let mut cf = flat(&c0);
        bench.iter(|| {
            block4x4_minplus_f32_arrays(&mut cf, stride, &af, stride, &bf, stride);
            cf[0]
        });
    });

    g.bench_function("strided_f64", |bench| {
        let stride = 8usize;
        let flat = |m: &[[f32; 4]; 4]| {
            let mut v = vec![0.0f64; 4 * stride];
            for r in 0..4 {
                for k in 0..4 {
                    v[r * stride + k] = m[r][k] as f64;
                }
            }
            v
        };
        let (af, bf) = (flat(&a), flat(&b));
        let mut cf = flat(&c0);
        bench.iter(|| {
            block4x4_minplus_f64_arrays(&mut cf, stride, &af, stride, &bf, stride);
            cf[0]
        });
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tile_kernels
}
criterion_main!(benches);
