//! Cross-crate invariant #6 (DESIGN.md §5): the §V analytical model and the
//! discrete-event Cell simulator tell the same story — utilization
//! independent of problem size, compute-bound SP configuration, cubic time
//! scaling — and the simulator's DMA counters match the model's traffic
//! formula.

use npdp::cell::machine::{ndl_bytes_transferred, simulate, CellConfig, SimReport, SimSpec};
use npdp::cell::ppe::Precision;
use npdp::exec::ExecContext;
use npdp::model::{Kernel, Machine, PerfModel};
use proptest::prelude::*;

/// An untraced, fault-free CellNPDP simulation with the default queue.
fn cellnpdp(
    cfg: &CellConfig,
    n: usize,
    nb: usize,
    sb: usize,
    prec: Precision,
    spes: usize,
) -> SimReport {
    let spec = SimSpec::cellnpdp(n, nb, sb, prec, spes);
    simulate(cfg, &spec, &ExecContext::disabled())
}

fn qs20_model() -> PerfModel {
    PerfModel::new(Machine::qs20(), Kernel::spu_sp(), 4)
}

#[test]
fn simulated_seconds_within_2x_of_model() {
    let cfg = CellConfig::qs20();
    let model = qs20_model();
    let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
    for n in [4096usize, 8192] {
        let sim = cellnpdp(&cfg, n, nb, 1, Precision::Single, 16).seconds;
        let analytic = model.total_time(n as f64, Some(nb as f64));
        let ratio = sim / analytic;
        assert!(
            (0.5..2.0).contains(&ratio),
            "n={n}: sim {sim:.3}s vs model {analytic:.3}s"
        );
    }
}

#[test]
fn both_predict_size_independent_utilization() {
    let cfg = CellConfig::qs20();
    let model = qs20_model();
    let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
    let u_model = model.utilization(Some(nb as f64));
    let sims: Vec<f64> = [8192usize, 16384]
        .iter()
        .map(|&n| cellnpdp(&cfg, n, nb, 1, Precision::Single, 16).utilization)
        .collect();
    for u in &sims {
        assert!(
            (u - u_model).abs() < 0.25,
            "simulated {u:.3} vs modelled {u_model:.3}"
        );
    }
    assert!((sims[0] - sims[1]).abs() < 0.1);
}

#[test]
fn both_say_sp_is_compute_bound_on_qs20() {
    let model = qs20_model();
    assert!(model.is_compute_bound(None));
    // Simulator agreement: halving bandwidth repeatedly should eventually
    // not matter for SP at full blocks... it is compute bound, so modest
    // bandwidth cuts leave time unchanged.
    let mut cfg = CellConfig::qs20();
    let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
    let t_full = cellnpdp(&cfg, 4096, nb, 1, Precision::Single, 16).seconds;
    cfg.mem_bandwidth /= 2.0;
    let t_half = cellnpdp(&cfg, 4096, nb, 1, Precision::Single, 16).seconds;
    assert!(
        t_half < 1.25 * t_full,
        "halving bandwidth changed compute-bound time too much: {t_full} → {t_half}"
    );
}

#[test]
fn cubic_scaling_in_both() {
    let cfg = CellConfig::qs20();
    let model = qs20_model();
    let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
    // Sizes where block-level parallelism (~m/3) well exceeds 16 SPEs, so
    // the critical-path tail does not distort the exponent.
    let s1 = cellnpdp(&cfg, 8192, nb, 1, Precision::Single, 16).seconds;
    let s2 = cellnpdp(&cfg, 16384, nb, 1, Precision::Single, 16).seconds;
    let m1 = model.total_time(8192.0, None);
    let m2 = model.total_time(16384.0, None);
    assert!((s2 / s1 - 8.0).abs() < 1.0, "simulator ratio {}", s2 / s1);
    assert!((m2 / m1 - 8.0).abs() < 1e-9);
}

#[test]
fn dma_counter_matches_traffic_formula() {
    // The simulator counts actual per-block fetches; the model says
    // n³·S/(3·nb) + table read/write. They must agree within ~20%.
    let cfg = CellConfig::qs20();
    let nb = 64usize;
    let n = 4096usize;
    let sim = cellnpdp(&cfg, n, nb, 1, Precision::Single, 16);
    let formula = ndl_bytes_transferred(n as u64, nb as u64, Precision::Single);
    let ratio = sim.dma.bytes as f64 / formula as f64;
    assert!(
        (0.8..1.3).contains(&ratio),
        "sim {} vs formula {} (ratio {ratio:.2})",
        sim.dma.bytes,
        formula
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for small problem sizes the simulator's DMA byte counter
    /// tracks the §V analytic NDL traffic — both the closed-form
    /// `ndl_bytes_transferred` (cubic term + table read/write) and the
    /// perf-model's leading term `n³·S/(3·nb)`. The band is wide at small
    /// sizes because the O(n²) table term the leading term drops is still
    /// visible there.
    #[test]
    fn prop_dma_bytes_match_ndl_formula_small_n(
        blocks in 4usize..14,
        nb_choice in 0usize..3,
        spes in 1usize..9,
    ) {
        let nb = [32usize, 64, 88][nb_choice];
        let n = blocks * nb;
        let cfg = CellConfig::qs20();
        let spec = SimSpec::cellnpdp(n, nb, 1, Precision::Single, spes);
        let sim = simulate(&cfg, &spec, &ExecContext::disabled());
        let formula = ndl_bytes_transferred(n as u64, nb as u64, Precision::Single);
        let ratio = sim.dma.bytes as f64 / formula as f64;
        prop_assert!(
            (0.6..1.5).contains(&ratio),
            "sim {} vs closed form {} (n={}, nb={}, ratio {:.2})",
            sim.dma.bytes, formula, n, nb, ratio
        );
        let model = PerfModel::new(Machine::qs20(), Kernel::spu_sp(), 4);
        let leading = model.memory_time(n as f64, Some(nb as f64))
            * model.machine.bandwidth_bytes_per_s;
        let ratio_leading = sim.dma.bytes as f64 / leading;
        prop_assert!(
            (0.6..2.5).contains(&ratio_leading),
            "sim {} vs model leading term {:.0} (n={}, nb={}, ratio {:.2})",
            sim.dma.bytes, leading, n, nb, ratio_leading
        );
    }
}

#[test]
fn bandwidth_constraint_transition_visible_in_simulator() {
    // Squeeze bandwidth below the model's minimum: the simulator must slow
    // down (memory-bound), confirming the constraint's direction.
    let model = qs20_model();
    let min_b = model.min_bandwidth_for_compute_bound();
    let mut cfg = CellConfig::qs20();
    let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
    let t_ok = cellnpdp(&cfg, 4096, nb, 1, Precision::Single, 16).seconds;
    cfg.mem_bandwidth = min_b / 8.0;
    cfg.dma.bytes_per_cycle = (min_b / 8.0) / cfg.freq_hz;
    let t_starved = cellnpdp(&cfg, 4096, nb, 1, Precision::Single, 16).seconds;
    assert!(
        t_starved > 1.5 * t_ok,
        "starved {t_starved} vs ok {t_ok}: bandwidth constraint not visible"
    );
}

#[test]
fn host_engine_simulator_and_analytics_count_identical_kernels() {
    // Three independent counters of the same quantity: the instrumented
    // host engine, the functional SPU simulation, and the closed-form
    // accounting used by the discrete-event machine model. The host counts
    // equal the SPU simulation's only on exact tilings (n a multiple of
    // nb): on a ragged side the host computes only the last block column's
    // logical width, while the SPU program sweeps the whole padded block.
    use npdp::cell::npdp::functional_cellnpdp;
    use npdp::core::engine::{analytic_tile_updates, solve_simd_counted};
    use npdp::core::problem;

    for (n, nb) in [(32usize, 8usize), (48, 8), (64, 16)] {
        let seeds = problem::random_seeds_f32(n, 100.0, (n * nb) as u64);
        let (_, host_counts) = solve_simd_counted(&seeds, nb);
        let (_, sim_calls) = functional_cellnpdp(&seeds, nb, &ExecContext::disabled()).unwrap();
        let analytic = analytic_tile_updates(n.div_ceil(nb), nb);
        assert_eq!(host_counts.tile_updates(), sim_calls, "host vs SPU n={n}");
        assert_eq!(sim_calls, analytic, "SPU vs analytic n={n}");
    }
}
