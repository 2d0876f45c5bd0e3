//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <case_study|mining_session|planned_chain>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the named workload's fixed op count
//! untraced, stopping early only at the `--seconds` cap, and prints
//! every end-to-end metric. With `--trace 1` it
//! profiles all three workloads, the named one first, and prints every
//! per-layer metric, named `<workload>.<layer metric>`; each profile
//! runs an untraced phase, a traced phase of the same ops, and a second
//! untraced phase (see `faehim_perfbench::profile`). The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

use faehim_perfbench::case_study::CaseStudy;
use faehim_perfbench::mining_session::MiningSession;
use faehim_perfbench::planned_chain::PlannedChain;
use faehim_perfbench::{
    end_to_end, kind_shares, profile, quantile, run_phase, Budget, Metric, Profile, WORKLOADS,
};
use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 41;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The untraced run of one workload: `(attempted, failed, metrics)`.
fn untraced(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    fn go<W: faehim_perfbench::Workload>(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
        let budget = Budget {
            seconds: args.seconds,
            min_ops: W::PINNED_OPS,
            max_ops: W::OPS,
        };
        let mut tr = faehim_perfbench::trace::Tracer::off();
        let phase = run_phase::<W>(args.seed, SETUPS, budget, &mut tr)?;
        println!(
            "{}: {} ops in {:.2} s, {} failed ({:.4}); {} set-ups, {:.6} to {:.6} scaled cpu s",
            args.workload,
            phase.ops,
            phase.elapsed.as_secs_f64(),
            phase.failed,
            phase.failed as f64 / phase.ops as f64,
            phase.setups.len(),
            quantile(&phase.scaled_setups(), 0.0),
            quantile(&phase.scaled_setups(), 1.0)
        );
        // Unscaled CPU time and the wall clock, for comparison only: the
        // first moves with the host's speed, the second also counts the
        // time the process waited for a core.
        println!(
            "cpu: set-up p50 {:.6} s, op p50 {:.4} ms, op p90 {:.4} ms; reference work p50 {:.2} us (scaled to {} us)",
            quantile(&phase.setups, 0.5),
            quantile(&phase.op_cpu_ms, 0.5),
            quantile(&phase.op_cpu_ms, 0.9),
            quantile(&phase.ref_us, 0.5),
            faehim_perfbench::REFERENCE_US
        );
        if phase.ops < W::OPS {
            println!(
                "warning: the {} s cap stopped the run after {} of {} ops",
                args.seconds,
                phase.ops,
                W::OPS
            );
        }
        println!(
            "wall clock: set-up p50 {:.6} s, {:.2} ops/s, op p50 {:.4} ms, op p90 {:.4} ms",
            quantile(&phase.setups_wall, 0.5),
            phase.ops as f64 / phase.elapsed.as_secs_f64(),
            quantile(&phase.op_ms, 0.5),
            quantile(&phase.op_ms, 0.9)
        );
        println!("  kind                 ops %   p50 ms   time %   % of ops near p50 (scaled cpu)");
        for k in kind_shares(&phase, &phase.scaled_cpu_ms()) {
            println!(
                "  {:<18} {:>6.1} {:>8.3} {:>8.1} {:>8.1}",
                k.kind,
                100.0 * k.ops,
                k.p50_ms,
                100.0 * k.time,
                100.0 * k.near_p50
            );
        }
        Ok((phase.ops, phase.failed, end_to_end::<W>(&phase)?))
    }
    match args.workload.as_str() {
        "case_study" => go::<CaseStudy>(args),
        "mining_session" => go::<MiningSession>(args),
        _ => go::<PlannedChain>(args),
    }
}

fn profile_of(name: &str, seed: u64, seconds: f64) -> Result<Profile, String> {
    match name {
        "case_study" => profile::<CaseStudy>(name, seed, seconds),
        "mining_session" => profile::<MiningSession>(name, seed, seconds),
        _ => profile::<PlannedChain>(name, seed, seconds),
    }
}

/// The traced run: every workload's profile, `args.workload` first.
fn traced(args: &Args) -> Result<(u64, u64, Vec<Metric>), String> {
    let mut order = vec![args.workload.as_str()];
    order.extend(WORKLOADS.iter().filter(|w| **w != args.workload));
    // Each workload's traced phase repeats its first untraced phase's
    // ops at up to about twice the cost, and a second untraced phase
    // repeats them again.
    let share = args.seconds / (4.0 * order.len() as f64);
    let (mut attempted, mut failed, mut metrics) = (0, 0, Vec::new());
    let mut spans = String::new();
    for name in order {
        let p = profile_of(name, args.seed, share)?;
        println!(
            "{name}: {} ops per phase, untraced wall op p50 {:.4} ms; self time per op:",
            p.ops, p.op_ms_p50
        );
        for (layer, us) in &p.shares {
            println!(
                "  {layer:<22} {us:>10.1} us  {:>6.1}% of wall op p50",
                100.0 * us / (p.op_ms_p50 * 1e3)
            );
        }
        attempted += 3 * p.ops;
        failed += p.failed;
        spans.push_str(&p.spans);
        metrics.extend(p.metrics.into_iter().map(|m| Metric {
            name: format!("{name}.{}", m.name),
            ..m
        }));
    }
    let dir = std::path::Path::new("perfbench/out");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("spans-{}.jsonl", args.workload));
        match std::fs::write(&path, spans) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    Ok((attempted, failed, metrics))
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, m) in metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The compute pool runs at width 2.
    dm_algorithms::pool::set_global_threads(2);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match result {
        Ok((attempted, failed, metrics)) => {
            for m in &metrics {
                println!("  {:<44} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", json(true, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            println!("{}", json(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
