//! The **unified spec-driven experiment harness**: loads any `.toml`
//! experiment spec (single run or sweep grid — see
//! `nakamoto_sim::spec` for the schema and `examples/specs/` for
//! committed examples), submits every cell at once to the shared
//! executor pool so independent cells pipeline across the same
//! workers, and prints the cell table with empirical 95% Wilson
//! intervals **and** the paper's analytic bounds overlaid. With
//! `--out`, also writes the machine-readable JSON document.
//!
//! ```text
//! cargo run --release -p consistency_bench --bin experiment -- \
//!     <spec.toml> [--rounds N] [--trials N] [--jobs N] [--seed S] \
//!     [--out PATH] [--verbose]
//! ```
//!
//! `--rounds`/`--trials` override the spec's budgets (CI smokes every
//! committed spec this way), `--seed` overrides the base master seed
//! (sweep cells still derive theirs from the sweep stream), `--jobs`
//! fixes the process-wide executor pool width, the only parallelism
//! knob (at most 1024; cells complete in any order, but the table,
//! totals, and JSON are byte-identical at every job count),
//! `--verbose` streams per-cell completions (with each cell's own
//! elapsed time) and the executor's counters to stderr, `--out` writes
//! JSON. The closing `N simulated rounds in X s` line reports the
//! run's wall time, not the sum of concurrently running cells.
//! Budgets and expected runtimes: see EXPERIMENTS.md.
//!
//! Output piped into a reader that hangs up early (`experiment spec.toml
//! | head`) is cut off quietly: the run still finishes, writes `--out`
//! and exits 0.
//!
//! `--out PATH` is opened before anything is simulated, so an
//! unwritable path fails at once rather than after the run; it is
//! opened only after every sweep cell has been decoded, so an invalid
//! spec leaves an existing file untouched. Errors are printed as one
//! `experiment: …` line on stderr, with exit code 1.

use consistency_bench::{cli, experiment};
use nakamoto_sim::executor;
use nakamoto_sim::spec::ExperimentSpec;
use std::fs::File;
use std::io::{self, Write};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "experiment <spec.toml> [--rounds N] [--trials N] [--jobs N] [--seed S] \
                     [--out PATH] [--verbose]";

/// Standard output that goes quiet once the reader hangs up: the first
/// `BrokenPipe` turns every later write into a no-op instead of a
/// failure. Other write errors still propagate.
#[derive(Default)]
struct QuietStdout {
    closed: bool,
}

impl Write for QuietStdout {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if !self.closed {
            match io::stdout().write(buf) {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                other => return other,
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        if !self.closed {
            match io::stdout().flush() {
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => self.closed = true,
                other => return other,
            }
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("experiment: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::Args::parse(
        USAGE,
        1,
        &[
            "--rounds",
            "--trials",
            "--jobs",
            "--seed",
            "--out",
            "--verbose",
        ],
    )?;
    if let Some(jobs) = args.jobs {
        if !executor::configure_global_width(jobs) {
            eprintln!("--jobs: the executor pool already exists; the width is unchanged");
        }
    }
    let path = args
        .positionals
        .first()
        .ok_or_else(|| format!("missing spec path; usage: {USAGE}"))?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut spec = ExperimentSpec::parse(&source).map_err(|e| format!("{path}: {e}"))?;
    experiment::apply_budget(&mut spec, args.rounds, args.trials, args.seed);
    // A budget override can invalidate the spec (`--trials 0`), and so
    // can a sweep cell: say so before printing anything or touching
    // --out.
    spec.validate()?;
    let cells = spec.expand()?;
    // Open --out before simulating: a bad path must not cost a run.
    let out_file = match &args.out {
        Some(out_path) => Some(File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?),
        None => None,
    };

    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.clone(), |s| s.to_string_lossy().into_owned());
    let total = cells.len();
    let mut out = QuietStdout::default();
    let title = format!(
        "Experiment `{name}`: {total} cell(s), {} trial(s) per cell",
        spec.run.trials
    );
    writeln!(out, "\n{title}\n{}", "=".repeat(title.len()))?;
    if let Some(fuzz) = &spec.fuzz {
        writeln!(
            out,
            "fuzz repro: master_seed = {}, case = {}, invariant = `{}`",
            fuzz.master_seed, fuzz.case, fuzz.invariant
        )?;
    }

    let verbose = args.verbose;
    let jobs = args.jobs.unwrap_or(0);
    let started = Instant::now();
    let results = experiment::run_cells_streaming(cells, jobs, |index, cell| {
        if verbose {
            // Completion order, to stderr: the stdout table and JSON
            // stay byte-identical with and without --verbose.
            eprintln!(
                "cell {}/{total} done in {:.1} ms: [{}]",
                index + 1,
                cell.estimate.elapsed_secs() * 1e3,
                cell.labels.join(", ")
            );
        }
    })?;
    // Cells run concurrently, so the run's wall time is measured here
    // rather than summed from the cells.
    let elapsed = started.elapsed().as_secs_f64();
    experiment::print_table(&mut out, &results)?;
    let rounds: u64 = results.iter().map(|r| r.estimate.simulated_rounds()).sum();
    writeln!(out, "\n{rounds} simulated rounds in {elapsed:.2} s")?;
    if verbose {
        let stats = executor::global_stats();
        eprintln!(
            "executor: pool width {} ({} pool(s) created), {} thread(s) spawned, \
             {} job(s) queued + {} inline, {} task(s) executed, {} steal(s)",
            executor::global_width(),
            executor::global_pools_created(),
            stats.threads_spawned,
            stats.jobs_submitted,
            stats.jobs_inline,
            stats.tasks_executed,
            stats.steals,
        );
    }

    if let (Some(mut file), Some(out_path)) = (out_file, &args.out) {
        file.write_all(experiment::to_json(&name, &results).as_bytes())
            .map_err(|e| format!("{out_path}: {e}"))?;
        writeln!(out, "wrote {out_path}")?;
    }
    Ok(())
}
