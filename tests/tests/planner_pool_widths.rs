//! Planner determinism across compute-pool widths. The test sets the
//! pool's process-wide width to 1 and then 4, which changes the width of
//! every batch in the process, so it has a binary of its own: in a
//! shared binary, tests running concurrently would run at those widths,
//! not at the `FAEHIM_POOL_THREADS` width a CI run asks for.

#![forbid(unsafe_code)]

use dm_workflow::engine::Executor;
use dm_workflow::graph::{TaskId, Token};
use dm_workflow::planner::{Goal, Planner};
use faehim::Toolkit;
use std::collections::HashMap;

/// Planner determinism across compute-pool widths: the pool size (the
/// CI matrix's `FAEHIM_POOL_THREADS`) influences execution scheduling,
/// never planning or results.
#[test]
fn plans_and_outputs_agree_across_pool_widths() {
    let tk = Toolkit::with_hosts(&["wesc-a", "wesc-b"]).unwrap();
    let csv = dm_data::csv::write_csv(&dm_data::corpus::breast_cancer());
    let goal = Goal::chain(&[
        ("data-handling", "csvToArff", csv.len()),
        ("classifier", "classify", csv.len()),
    ]);
    let mut canonical: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 4] {
        tk.set_compute_threads(threads);
        let (plan_a, graph, tasks) = tk.plan_composition(&goal, &Planner::default()).unwrap();
        let (plan_b, _, _) = tk.plan_composition(&goal, &Planner::default()).unwrap();
        assert_eq!(
            plan_a, plan_b,
            "replanning must be stable at {threads} threads"
        );
        let mut bindings: HashMap<(TaskId, usize), Token> = HashMap::new();
        bindings.insert((tasks[0], 0), Token::Text(csv.clone()));
        bindings.insert((tasks[1], 1), Token::Text("Class".into()));
        bindings.insert((tasks[1], 2), Token::Text(String::new()));
        let report = Executor::parallel().run(&graph, &bindings).unwrap();
        canonical.push(report.canonical_bytes());
    }
    assert_eq!(
        canonical[0], canonical[1],
        "pool width must not change planned-composition results"
    );
}
