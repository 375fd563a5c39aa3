//! Simulator throughput baseline: measures the round-loop hot path on
//! two single-thread workloads plus the end-to-end spec grid, compares
//! against the recorded pre-overhaul seed numbers, and maintains the
//! machine-readable `BENCH_sim.json` baseline the CI smoke guards
//! against regressions.
//!
//! Modes:
//!
//! * `bench_sim` — measure and print the table.
//! * `bench_sim --write PATH` — measure and (re)write the JSON baseline.
//! * `bench_sim --check PATH` — run the short check workloads (scalar,
//!   8-trial block, and the end-to-end spec grid) and exit non-zero
//!   if any throughput regressed more than 25% versus the committed
//!   baseline's `check_rounds_per_sec` / `check_batch_rounds_per_sec`
//!   / `check_grid_rounds_per_sec`.
//!
//! The `bench_sim/v2` schema adds batch rows for the two single-thread
//! workloads: one Monte-Carlo pool unit of [`BATCH_WIDTH`] consecutive
//! trials (`TrialPlan::with_batch_width`), run back to back on the
//! scalar loop. Their rounds/sec is expected to track the scalar
//! number — the rows catch fan-out overhead regressions, not advertise
//! a speedup.
//!
//! The `bench_sim/v3` schema adds the **end-to-end grid row**: the
//! committed `attack_sweep.toml` golden spec through
//! `consistency_bench::experiment::run_spec`, i.e. the full path the
//! `experiment` binary takes — spec expansion, all cells submitted at
//! once to the shared `nakamoto_sim::executor` pool, analytic overlay.
//! On the 1-CPU reference container this pins the executor's overhead
//! (width-1 jobs run on the caller, no pool) to within the regression
//! gate; on a multi-core host the same row records the cell-pipelining
//! speedup the ROADMAP's re-measure item asks for.
//!
//! Budgets and expected runtime: see EXPERIMENTS.md.

use consistency_bench::experiment;
use nakamoto_sim::adversary::{ImmediateReleaseAdversary, PrivateChainAdversary};
use nakamoto_sim::config::SimConfig;
use nakamoto_sim::execution::run_simulation_with;
use nakamoto_sim::montecarlo::TrialPlan;
use nakamoto_sim::spec::ExperimentSpec;
use std::time::Instant;

/// The committed golden spec the end-to-end grid row runs.
const GRID_SPEC: &str = include_str!("../../../../examples/specs/attack_sweep.toml");

/// Pre-overhaul engine numbers (boxed dispatch, per-round binomial
/// sampling, unbounded arena) measured on the reference 1-CPU container
/// at the seed commit; kept in the JSON so every regenerated baseline
/// still shows the before/after story.
const SEED_PRIVATE_C3_RPS: f64 = 10_261_647.0;
const SEED_IMMEDIATE_N1000_RPS: f64 = 17_542_993.0;

/// Fraction of the committed check throughput below which `--check`
/// fails (i.e. a >25% regression). Scalar and batch rows share the
/// same floor.
const CHECK_FLOOR: f64 = 0.75;

/// Trials per pool unit for the batch rows.
const BATCH_WIDTH: u64 = 8;

fn best_of<F: FnMut() -> f64>(reps: u32, mut f: F) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

/// Single-thread private-chain run at c = 3 (quiet-dominated), the
/// paper's typical consistency regime. Returns wall seconds.
fn private_chain_c3(rounds: u64) -> f64 {
    let cfg = SimConfig::from_c(100, 4, 3.0, 0.25, 42).unwrap();
    let t = Instant::now();
    let report = run_simulation_with(cfg, PrivateChainAdversary::new(4), rounds);
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(report.rounds, rounds);
    dt
}

/// Single-thread immediate-release run with n = 1000 miners.
fn immediate_n1000(rounds: u64) -> f64 {
    let cfg = SimConfig::new(1_000, 0.25, 1.0 / (3.0 * 1_000.0 * 4.0), 4, 1).unwrap();
    let t = Instant::now();
    let report = run_simulation_with(cfg, ImmediateReleaseAdversary::new(), rounds);
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(report.rounds, rounds);
    dt
}

/// Batch private-chain run at c = 3: one pool unit of [`BATCH_WIDTH`]
/// trials × `rounds_per_trial`, single thread, through the Monte-Carlo
/// fan-out. Returns wall seconds for the whole unit.
fn private_chain_c3_batch(rounds_per_trial: u64) -> f64 {
    let cfg = SimConfig::from_c(100, 4, 3.0, 0.25, 42).unwrap();
    let plan = TrialPlan::new(cfg, rounds_per_trial, BATCH_WIDTH)
        .unwrap()
        .thresholds(vec![12])
        .with_threads(1)
        .with_batch_width(BATCH_WIDTH as usize);
    let t = Instant::now();
    let run = plan.run(|_| PrivateChainAdversary::new(4));
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(run.aggregate.total_rounds(), rounds_per_trial * BATCH_WIDTH);
    dt
}

/// Batch immediate-release run with n = 1000 miners: one pool unit of
/// [`BATCH_WIDTH`] trials × `rounds_per_trial`, single thread.
fn immediate_n1000_batch(rounds_per_trial: u64) -> f64 {
    let cfg = SimConfig::new(1_000, 0.25, 1.0 / (3.0 * 1_000.0 * 4.0), 4, 1).unwrap();
    let plan = TrialPlan::new(cfg, rounds_per_trial, BATCH_WIDTH)
        .unwrap()
        .thresholds(vec![12])
        .with_threads(1)
        .with_batch_width(BATCH_WIDTH as usize);
    let t = Instant::now();
    let run = plan.run(|_| ImmediateReleaseAdversary::new());
    let dt = t.elapsed().as_secs_f64();
    assert_eq!(run.aggregate.total_rounds(), rounds_per_trial * BATCH_WIDTH);
    dt
}

/// The end-to-end grid workload: the committed `attack_sweep.toml`
/// golden spec through `experiment::run_spec` at the given per-trial
/// budget — spec expansion, the analytic overlay, and every cell
/// submitted at once to the shared executor pool. Returns (wall
/// seconds, cells, total simulated rounds).
fn spec_grid(rounds: u64, trials: u64) -> (f64, usize, u64) {
    let mut spec = ExperimentSpec::parse(GRID_SPEC).expect("committed spec parses");
    experiment::apply_budget(&mut spec, Some(rounds), Some(trials), None);
    let t = Instant::now();
    let results = experiment::run_spec(&spec).expect("committed spec runs");
    let wall = t.elapsed().as_secs_f64();
    let total = results.iter().map(|r| r.estimate.simulated_rounds()).sum();
    (wall, results.len(), total)
}

/// The short CI check workload: 1M private-chain rounds at c = 3,
/// single thread, best of 3. Returns rounds/sec.
fn check_throughput() -> f64 {
    const ROUNDS: u64 = 1_000_000;
    ROUNDS as f64 / best_of(3, || private_chain_c3(ROUNDS))
}

/// The batch-mode CI check workload: the same 1M private-chain rounds
/// split over one unit of [`BATCH_WIDTH`] trials, best of 3. Returns
/// rounds/sec.
fn check_batch_throughput() -> f64 {
    const ROUNDS: u64 = 1_000_000;
    ROUNDS as f64 / best_of(3, || private_chain_c3_batch(ROUNDS / BATCH_WIDTH))
}

/// The grid CI check workload: the golden-spec grid at a ~1M-round
/// budget (10k rounds × 2 trials × 54 cells), best of 3. Returns
/// rounds/sec end to end.
fn check_grid_throughput() -> f64 {
    let mut total = 0u64;
    let wall = best_of(3, || {
        let (w, _, r) = spec_grid(10_000, 2);
        total = r;
        w
    });
    total as f64 / wall
}

struct Baseline {
    private_rps: f64,
    private_batch_rps: f64,
    immediate_rps: f64,
    immediate_batch_rps: f64,
    grid_wall: f64,
    grid_cells: usize,
    grid_rounds: u64,
    check_rps: f64,
    check_batch_rps: f64,
    check_grid_rps: f64,
    cpus: usize,
}

fn measure() -> Baseline {
    const ROUNDS: u64 = 2_000_000;
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let private_rps = ROUNDS as f64 / best_of(3, || private_chain_c3(ROUNDS));
    let private_batch_rps =
        ROUNDS as f64 / best_of(3, || private_chain_c3_batch(ROUNDS / BATCH_WIDTH));
    let immediate_rps = ROUNDS as f64 / best_of(3, || immediate_n1000(ROUNDS));
    let immediate_batch_rps =
        ROUNDS as f64 / best_of(3, || immediate_n1000_batch(ROUNDS / BATCH_WIDTH));
    let mut grid_cells = 0;
    let mut grid_rounds = 0;
    let grid_wall = best_of(2, || {
        let (w, cells, r) = spec_grid(30_000, 5);
        grid_cells = cells;
        grid_rounds = r;
        w
    });
    let check_rps = check_throughput();
    let check_batch_rps = check_batch_throughput();
    let check_grid_rps = check_grid_throughput();
    Baseline {
        private_rps,
        private_batch_rps,
        immediate_rps,
        immediate_batch_rps,
        grid_wall,
        grid_cells,
        grid_rounds,
        check_rps,
        check_batch_rps,
        check_grid_rps,
        cpus,
    }
}

fn print_table(b: &Baseline) {
    consistency_bench::section(&format!("Simulator throughput ({} CPU(s) visible)", b.cpus));
    println!(
        "{:<28} {:>16} {:>16} {:>9}",
        "workload", "rounds/sec", "seed rounds/sec", "speedup"
    );
    println!(
        "{:<28} {:>16.0} {:>16.0} {:>8.1}x",
        "private_chain_c3 (1 thread)",
        b.private_rps,
        SEED_PRIVATE_C3_RPS,
        b.private_rps / SEED_PRIVATE_C3_RPS
    );
    println!(
        "{:<28} {:>16.0} {:>16.0} {:>8.1}x",
        format!("private_chain_c3 (batch {BATCH_WIDTH})"),
        b.private_batch_rps,
        SEED_PRIVATE_C3_RPS,
        b.private_batch_rps / SEED_PRIVATE_C3_RPS
    );
    println!(
        "{:<28} {:>16.0} {:>16.0} {:>8.1}x",
        "immediate_n1000 (1 thread)",
        b.immediate_rps,
        SEED_IMMEDIATE_N1000_RPS,
        b.immediate_rps / SEED_IMMEDIATE_N1000_RPS
    );
    println!(
        "{:<28} {:>16.0} {:>16.0} {:>8.1}x",
        format!("immediate_n1000 (batch {BATCH_WIDTH})"),
        b.immediate_batch_rps,
        SEED_IMMEDIATE_N1000_RPS,
        b.immediate_batch_rps / SEED_IMMEDIATE_N1000_RPS
    );
    println!(
        "{:<28} {:>15.3}s {:>16.0} {:>9}",
        format!("spec grid ({} cells, e2e)", b.grid_cells),
        b.grid_wall,
        b.grid_rounds as f64 / b.grid_wall,
        "-"
    );
    println!(
        "{:<28} {:>16.0} {:>16} {:>9}",
        "check workload (CI smoke)", b.check_rps, "-", "-"
    );
    println!(
        "{:<28} {:>16.0} {:>16} {:>9}",
        "check batch workload", b.check_batch_rps, "-", "-"
    );
    println!(
        "{:<28} {:>16.0} {:>16} {:>9}",
        "check grid workload", b.check_grid_rps, "-", "-"
    );
}

fn to_json(b: &Baseline) -> String {
    format!(
        "{{\n  \"schema\": \"bench_sim/v3\",\n  \"regenerate\": \"cargo run --release -p \
         consistency_bench --bin bench_sim -- --write BENCH_sim.json\",\n  \"host_cpus\": {},\n  \
         \"batch_width\": {BATCH_WIDTH},\n  \
         \"seed_baseline\": {{\n    \"description\": \"pre-overhaul engine: boxed dispatch, \
         per-round sampling, unbounded arena (commit 3627bf5, same container)\",\n    \
         \"private_chain_c3_rounds_per_sec\": {:.0},\n    \
         \"immediate_n1000_rounds_per_sec\": {:.0}\n  }},\n  \"private_chain_c3_rounds_per_sec\": {:.0},\n  \
         \"private_chain_c3_speedup_vs_seed\": {:.2},\n  \
         \"private_chain_c3_batch_rounds_per_sec\": {:.0},\n  \
         \"private_chain_c3_batch_vs_scalar\": {:.2},\n  \
         \"immediate_n1000_rounds_per_sec\": {:.0},\n  \
         \"immediate_n1000_speedup_vs_seed\": {:.2},\n  \
         \"immediate_n1000_batch_rounds_per_sec\": {:.0},\n  \
         \"immediate_n1000_batch_vs_scalar\": {:.2},\n  \
         \"grid_attack_sweep\": {{\n    \"spec\": \"examples/specs/attack_sweep.toml\",\n    \
         \"cells\": {},\n    \"wall_secs\": {:.4},\n    \"total_rounds\": {},\n    \
         \"rounds_per_sec\": {:.0}\n  }},\n  \
         \"check_rounds_per_sec\": {:.0},\n  \"check_batch_rounds_per_sec\": {:.0},\n  \
         \"check_grid_rounds_per_sec\": {:.0},\n  \
         \"check_regression_floor\": {:.2}\n}}\n",
        b.cpus,
        SEED_PRIVATE_C3_RPS,
        SEED_IMMEDIATE_N1000_RPS,
        b.private_rps,
        b.private_rps / SEED_PRIVATE_C3_RPS,
        b.private_batch_rps,
        b.private_batch_rps / b.private_rps,
        b.immediate_rps,
        b.immediate_rps / SEED_IMMEDIATE_N1000_RPS,
        b.immediate_batch_rps,
        b.immediate_batch_rps / b.immediate_rps,
        b.grid_cells,
        b.grid_wall,
        b.grid_rounds,
        b.grid_rounds as f64 / b.grid_wall,
        b.check_rps,
        b.check_batch_rps,
        b.check_grid_rps,
        CHECK_FLOOR,
    )
}

/// Minimal field extraction from our own JSON (no parser dependency):
/// finds `"key": <number>`.
fn json_number(source: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = source.find(&needle)? + needle.len();
    let rest = source[at..].trim_start();
    let end = rest
        .find(|ch: char| !(ch.is_ascii_digit() || ch == '.' || ch == '-' || ch == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = consistency_bench::cli::Args::parse(
        "bench_sim [--write [PATH] | --check [PATH]]",
        0,
        &["--write", "--check"],
    )?;
    match (&args.check, &args.write) {
        (Some(path), None) => {
            let path = path.as_deref().unwrap_or("BENCH_sim.json");
            let committed = std::fs::read_to_string(path)?;
            let floor = json_number(&committed, "check_regression_floor").unwrap_or(CHECK_FLOOR);
            let baseline = json_number(&committed, "check_rounds_per_sec")
                .ok_or("BENCH_sim.json has no check_rounds_per_sec")?;
            let mut failed = false;
            let fresh = check_throughput();
            let ratio = fresh / baseline;
            println!(
                "check workload: {fresh:.0} rounds/sec vs committed {baseline:.0} \
                 (ratio {ratio:.2}, floor {floor:.2})"
            );
            failed |= ratio < floor;
            // Batch row: gated under the same floor. Absent from a
            // pre-v2 baseline, in which case only the scalar gate runs.
            match json_number(&committed, "check_batch_rounds_per_sec") {
                Some(batch_baseline) => {
                    let fresh = check_batch_throughput();
                    let ratio = fresh / batch_baseline;
                    println!(
                        "check batch workload: {fresh:.0} rounds/sec vs committed \
                         {batch_baseline:.0} (ratio {ratio:.2}, floor {floor:.2})"
                    );
                    failed |= ratio < floor;
                }
                None => println!("check batch workload: no committed row (pre-v2 baseline)"),
            }
            // End-to-end grid row: gated under the same floor. Absent
            // from a pre-v3 baseline, in which case the gate is skipped.
            match json_number(&committed, "check_grid_rounds_per_sec") {
                Some(grid_baseline) => {
                    let fresh = check_grid_throughput();
                    let ratio = fresh / grid_baseline;
                    println!(
                        "check grid workload: {fresh:.0} rounds/sec vs committed \
                         {grid_baseline:.0} (ratio {ratio:.2}, floor {floor:.2})"
                    );
                    failed |= ratio < floor;
                }
                None => println!("check grid workload: no committed row (pre-v3 baseline)"),
            }
            if failed {
                eprintln!(
                    "FAIL: single-thread round throughput regressed more than \
                     {:.0}% vs the committed baseline",
                    (1.0 - floor) * 100.0
                );
                std::process::exit(1);
            }
            println!("OK: within the regression budget");
        }
        (None, Some(path)) => {
            let path = path.as_deref().unwrap_or("BENCH_sim.json");
            let baseline = measure();
            print_table(&baseline);
            std::fs::write(path, to_json(&baseline))?;
            println!("\nwrote {path}");
        }
        (Some(_), Some(_)) => {
            return Err("pass either --check or --write, not both".into());
        }
        (None, None) => print_table(&measure()),
    }
    Ok(())
}
