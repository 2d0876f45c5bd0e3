//! E9 — fault tolerance: invocation latency and success under injected
//! transport failures, with replica migration. Expected shape: success
//! stays at 100% while p < 1 with enough replicas; cost grows with the
//! failure probability (retries + failover) — and circuit breakers
//! recover most of that cost by refusing to keep paying for a flaky
//! primary once it trips.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dm_bench::banner;
use dm_workflow::graph::{Token, Tool};
use dm_wsrf::prelude::{BreakerConfig, ResiliencePolicy};
use faehim::Toolkit;
use std::hint::black_box;

fn run_once(tool: &dyn Tool) -> bool {
    tool.execute(&[
        Token::Text(dm_bench::breast_cancer_arff().to_string()),
        Token::Text("Class".into()),
        Token::Text(String::new()),
    ])
    .is_ok()
}

fn success_table() {
    banner(
        "E9 / §3",
        "fault tolerance: job migration under injected failures",
    );
    println!("{:>8} {:>8} {:>12}", "p(fail)", "hosts", "success rate");
    for &p in &[0.0f64, 0.1, 0.3, 0.6] {
        for &replicas in &[1usize, 3] {
            let hosts: Vec<String> = (0..replicas).map(|i| format!("h{i}")).collect();
            let host_refs: Vec<&str> = hosts.iter().map(String::as_str).collect();
            let toolkit = Toolkit::with_hosts(&host_refs).expect("toolkit");
            let mut tools = toolkit.import_service("h0", "J48").expect("import");
            let classify = tools.remove(0);
            let net = toolkit.network();
            for h in &hosts {
                net.set_failure_probability(h, p);
            }
            net.reseed_faults(7);
            let trials = 40;
            let ok = (0..trials).filter(|_| run_once(&classify)).count();
            println!(
                "{p:>8.1} {replicas:>8} {:>11.0}%",
                100.0 * ok as f64 / trials as f64
            );
        }
    }
    println!("(shape: replicas turn transient transport failures into completed jobs)");
}

fn breaker_comparison_table() {
    banner(
        "E9 / resilience",
        "circuit breakers + demotion vs naive retry-every-host, flaky primary at p = 0.3",
    );
    println!(
        "{:>10} {:>8} {:>14} {:>16} {:>9}",
        "mode", "p(fail)", "wasted tries", "virtual cost", "success"
    );
    for &with_breakers in &[false, true] {
        let mut toolkit = Toolkit::with_hosts(&["a", "b", "c"]).expect("toolkit");
        if with_breakers {
            // One attempt per host, like the naive failover loop: the
            // difference measured here is breaker fail-fast + demotion.
            toolkit.enable_resilience(
                ResiliencePolicy::default().attempts(1),
                BreakerConfig::default(),
            );
        }
        let mut tools = toolkit.import_service("a", "J48").expect("import");
        let classify = tools.remove(0);
        let net = toolkit.network();
        net.set_failure_probability("a", 0.3);
        net.reseed_faults(7);

        let virtual_before = net.now();
        let trials = 60;
        let ok = (0..trials).filter(|_| run_once(&classify)).count();
        let wasted: usize = net
            .monitor()
            .summary_by_host()
            .iter()
            .map(|s| s.faults + s.transport_errors)
            .sum();
        let cost = net.now() - virtual_before;
        println!(
            "{:>10} {:>8.1} {:>14} {:>16?} {:>8.0}%",
            if with_breakers { "breakers" } else { "naive" },
            0.3,
            wasted,
            cost,
            100.0 * ok as f64 / trials as f64
        );
    }
    println!("(shape: the naive loop re-tries the flaky primary on every call; breakers trip,");
    println!(" the tool demotes the primary, and later calls go straight to healthy replicas)");
}

fn bench(c: &mut Criterion) {
    success_table();
    breaker_comparison_table();
    let mut group = c.benchmark_group("e9_fault_tolerance");
    for &p in &[0.0f64, 0.1, 0.3] {
        let toolkit = Toolkit::with_hosts(&["a", "b", "c"]).expect("toolkit");
        let mut tools = toolkit.import_service("a", "J48").expect("import");
        let classify = tools.remove(0);
        let net = toolkit.network();
        net.set_failure_probability("a", p);
        net.reseed_faults(11);
        group.bench_with_input(
            BenchmarkId::new("classify_with_failover", format!("p={p}")),
            &classify,
            |b, tool| {
                b.iter(|| {
                    // With replicas b and c healthy, every call succeeds.
                    let out = tool
                        .execute(&[
                            Token::Text(dm_bench::breast_cancer_arff().to_string()),
                            Token::Text("Class".into()),
                            Token::Text(String::new()),
                        ])
                        .expect("failover");
                    black_box(out)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
