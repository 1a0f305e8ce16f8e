//! Drive the Cell Broadband Engine simulator: inspect the SPU kernel, run
//! CellNPDP functionally on a simulated SPE (validating numerics against
//! the host), then project QS20 performance at paper scale.
//!
//! ```text
//! cargo run --release -p npdp --example cell_simulation
//! ```

use npdp::cell::kernels::{sp_kernel_blocked, sp_kernel_naive, sp_kernel_tree, TileAddrs};
use npdp::cell::machine::{simulate, CellConfig, SimSpec};
use npdp::cell::npdp::functional_cellnpdp;
use npdp::cell::ppe::Precision;
use npdp::cell::{schedule, software_pipeline, InstrMix};
use npdp::core::problem;
use npdp::prelude::*;

fn main() {
    let t = TileAddrs::packed_sp(0);

    // --- The computing-block kernel story (paper §IV-A / Table I) ---
    println!("== SPU computing-block kernel (4×4 min-plus update) ==");
    let naive = sp_kernel_naive(t);
    let blocked = sp_kernel_blocked(t);
    let piped = software_pipeline(&sp_kernel_tree(t));
    println!(
        "naive (reload per step):      {:>4} instructions, {:>4} cycles",
        naive.len(),
        schedule(&naive).cycles
    );
    println!(
        "register-blocked (Table I):   {:>4} instructions, {:>4} cycles",
        blocked.len(),
        schedule(&blocked).cycles
    );
    println!(
        "software-pipelined:           {:>4} instructions, {:>4} cycles (paper: 54)",
        piped.program.len(),
        piped.schedule.cycles
    );
    let mix = InstrMix::of(&blocked);
    println!(
        "instruction mix: {} loads / {} shuffles / {} adds / {} compares / {} selects / {} stores",
        mix.loads, mix.shuffles, mix.adds, mix.compares, mix.selects, mix.stores
    );

    // --- Functional validation on a simulated SPE ---
    println!("\n== functional CellNPDP on one simulated SPE ==");
    let n = 64;
    let seeds = problem::random_seeds_f32(n, 100.0, 5);
    let host = SerialEngine.solve(&seeds);
    let (sim, kernel_calls) =
        functional_cellnpdp(&seeds, 16, &ExecContext::disabled()).expect("fault-free run");
    assert_eq!(host.first_difference(&sim), None);
    println!(
        "n = {n}: simulated SPU table bit-identical to the host engine ✓ \
         ({kernel_calls} kernel invocations executed instruction-by-instruction)"
    );

    // --- QS20 projection (performance mode) ---
    println!("\n== projected QS20 performance (discrete-event model) ==");
    let cfg = CellConfig::qs20();
    let nb = cfg.block_side_for_bytes(32 * 1024, Precision::Single);
    println!("memory block: {nb}×{nb} SP cells (≤ 32 KB), 16 SPEs");
    println!("{:>7} {:>12} {:>12}", "n", "seconds", "utilization");
    for n in [4096usize, 8192, 16384] {
        let r = simulate(
            &cfg,
            &SimSpec::cellnpdp(n, nb, 1, Precision::Single, 16),
            &ExecContext::disabled(),
        );
        println!(
            "{n:>7} {:>11.2}s {:>11.1}%",
            r.seconds,
            r.utilization * 100.0
        );
    }
    println!("(paper Table II: 0.22 s / 1.77 s / 13.90 s; §VI-A.4: 62.5% utilization)");
}
