//! Runs one workload of the benchmark and prints its metrics.
//!
//! ```text
//! perfbench --workload <em3d-1024|zipf-rw|scan-evict> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! The workload repeats, each repetition rebuilt from the same seed, until
//! `--seconds` of host time have passed and it ran at least twice after a
//! warm-up repetition. Host times are medians over the timed
//! repetitions; simulated results must agree bit for bit across all. `--trace 1` alternates untraced and
//! traced repetitions (at least two of each) and reports the per-layer
//! metrics instead. The last line of standard output is the JSON result;
//! one line per repetition goes to standard error.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use perfbench::report::{agreed_sim, end_to_end, finite, json_line, per_layer, Metric};
use perfbench::run::{median, run_rep, Rep, Timing};
use perfbench::shape::{Shape, Workload};

/// The default seed; 777 is held out for confirming gains.
const DEFAULT_SEED: u64 = 1996;
/// Fewest timed untraced repetitions of a run, and fewest untraced +
/// traced pairs of a traced run, after the warm-up. Short repetitions
/// repeat until `--seconds` have passed; long ones (`zipf-rw`) stop at
/// this, which keeps a run near `--seconds`.
const MIN_REPS: usize = 2;
const MIN_PAIRS: usize = 2;
/// No run starts a repetition that would likely end past this.
const HARD_CAP: Duration = Duration::from_secs(150);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Em3d,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?,
            "--trace" => {
                args.trace = match num()? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Peak resident memory of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                Workload::ALL.map(|w| w.name()).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let shape = Shape::full(args.workload);
    let budget = Duration::from_secs(args.seconds);
    let t0 = Instant::now();
    let log = |what: &str, i: usize, r: &Rep| {
        let reference = r
            .ref_s
            .map_or(String::new(), |s| format!(", reference {:.3} ms", s * 1e3));
        eprintln!(
            "{what} {i}: setup {:.4} s, run {:.4} s{reference}",
            r.setup_s, r.host_s
        );
    };
    let warmup = run_rep(&shape, args.seed, Timing::Warmup);
    log("warm-up", 0, &warmup);
    let peak_rss = peak_rss_mb();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    loop {
        plain.push(run_rep(&shape, args.seed, Timing::Plain));
        log("rep", plain.len(), &plain[plain.len() - 1]);
        if args.trace {
            traced.push(run_rep(&shape, args.seed, Timing::Traced));
            log("traced rep", traced.len(), &traced[traced.len() - 1]);
        }
        let elapsed = t0.elapsed();
        let per_round = elapsed / (plain.len() + 1) as u32;
        let min = if args.trace { MIN_PAIRS } else { MIN_REPS };
        if (plain.len() >= min && elapsed >= budget) || elapsed + per_round > HARD_CAP {
            break;
        }
    }

    let reps: Vec<&Rep> = std::iter::once(&warmup)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let mut problems: Vec<String> = reps.iter().flat_map(|r| r.problems.clone()).collect();
    problems.sort();
    problems.dedup();
    let metrics: Result<Vec<Metric>, String> = agreed_sim(reps.iter().copied())
        .and_then(|_| {
            if args.trace {
                per_layer(&plain, &traced)
            } else {
                peak_rss.and_then(|rss| end_to_end(&plain, rss))
            }
        })
        .and_then(finite);
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: no result: {e}");
            return ExitCode::FAILURE;
        }
    };

    let sim = &plain[0].sim;
    println!(
        "workload {} seed {} trace {}: a warm-up, {} untraced and {} traced repetitions",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        plain.len(),
        traced.len()
    );
    for x in &metrics {
        let note = match x.name {
            "fault_p50_us" | "fault_p99_us" | "fault_p999_us" => {
                format!("  (n={} stalled accesses)", sim.stalls)
            }
            _ => String::new(),
        };
        println!("  {:<32} {:>16} {}{note}", x.name, x.value, x.unit);
    }
    let raw = |f: fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    println!(
        "  {:<32} {:>16} s (run phase, raw; reference work {} ms)",
        "host_s",
        raw(|r| r.host_s),
        raw(|r| r.ref_s.expect("a timed repetition")) * 1e3
    );
    println!(
        "  {:<32} {:>16} ({failed}/{attempted} accesses)",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "  {:<32} {:>16} ({} accesses, {} events per repetition)",
        "faults", sim.faults, sim.accesses, sim.events
    );
    for p in &problems {
        println!("  problem: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!("{}", json_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
