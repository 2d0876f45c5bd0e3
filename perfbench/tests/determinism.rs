//! The deterministic metrics repeat exactly: virtual time, wire bytes,
//! failures and outputs are identical across two same-seed runs and
//! across compute-pool widths 1 and 2, and a different seed changes
//! the inputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use dm_algorithms::pool::set_global_threads;
use faehim_perfbench::case_study::CaseStudy;
use faehim_perfbench::mining_session::MiningSession;
use faehim_perfbench::planned_chain::{PlannedChain, SESSION};
use faehim_perfbench::trace::Tracer;
use faehim_perfbench::{run_phase, Budget, Phase, Workload};

/// The parts of a run that must not depend on timing or pool width.
#[derive(Debug, PartialEq)]
struct Pinned {
    virt_ms: Vec<f64>,
    wire_bytes: u64,
    failed: u64,
    outputs: Vec<u128>,
}

fn pinned<W: Workload>(seed: u64, ops: u64, width: usize) -> Pinned {
    set_global_threads(width);
    let phase: Phase = run_phase::<W>(seed, 1, Budget::ops(ops), &mut Tracer::off())
        .unwrap_or_else(|e| panic!("seed {seed} width {width}: {e}"));
    Pinned {
        virt_ms: phase.virt_ms,
        wire_bytes: phase.pinned_wire_bytes,
        failed: phase.failed,
        outputs: phase.outputs,
    }
}

fn check<W: Workload>(name: &str, ops: u64, seeded_inputs: bool) {
    let a = pinned::<W>(7, ops, 2);
    assert_eq!(a, pinned::<W>(7, ops, 2), "{name}: same seed, same run");
    assert_eq!(a, pinned::<W>(7, ops, 1), "{name}: pool width 1 vs 2");
    if seeded_inputs {
        let b = pinned::<W>(8, ops, 2);
        assert_ne!(a.outputs, b.outputs, "{name}: another seed, other inputs");
    }
}

// One test function: the pool width is process-global.
#[test]
fn pinned_metrics_repeat_exactly() {
    // The case-study graph and its inputs are the paper's; the seed only
    // picks where the executor rotation starts.
    check::<CaseStudy>("case_study", 12, false);
    check::<MiningSession>("mining_session", 120, true);
    // Past the first session, so the fleet rebuild is covered too.
    check::<PlannedChain>("planned_chain", SESSION + 100, true);
}
