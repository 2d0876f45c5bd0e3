//! Regenerates **Figure 3** of the paper: "Information about the Breast
//! cancer data" — the WEKA-style per-attribute summary table.
//!
//! Run with `cargo run --example figure3_dataset_summary`.

#![forbid(unsafe_code)]

use dm_data::corpus::breast_cancer;
use dm_data::summary::DatasetSummary;

fn main() {
    let ds = breast_cancer();
    let summary = DatasetSummary::of(&ds);
    println!("Figure 3 — Information about the Breast cancer data");
    println!("===================================================\n");
    print!("{}", summary.to_table_string());

    println!("\nChecks against the published figure:");
    let checks: [(&str, bool); 6] = [
        ("286 instances", summary.num_instances == 286),
        (
            "10 attributes, all discrete",
            summary.num_discrete == 10 && summary.num_continuous == 0,
        ),
        (
            "9 missing values (0.3%)",
            summary.missing_values == 9 && summary.missing_pct == 0.3,
        ),
        (
            "node-caps: Enum 97%, 8 missing, 2 distinct",
            summary.attributes[4].nominal_pct == 97
                && summary.attributes[4].missing == 8
                && summary.attributes[4].distinct == 2,
        ),
        (
            "breast-quad: 1 missing, 5 distinct",
            summary.attributes[7].missing == 1 && summary.attributes[7].distinct == 5,
        ),
        (
            "distinct counts 6,3,11,7,2,3,2,5,2,2",
            summary
                .attributes
                .iter()
                .map(|a| a.distinct)
                .eq([6, 3, 11, 7, 2, 3, 2, 5, 2, 2]),
        ),
    ];
    for (what, ok) in checks {
        println!("  [{}] {what}", if ok { "ok" } else { "MISMATCH" });
    }
}
