//! E11 — registry publish and inquiry at scale: the gossip view the
//! toolkit publishes into, from the paper's ten services to ten
//! thousand records. Expected shape: publish-with-replace is one
//! hash-map insert, flat at any size; name inquiry
//! (`GossipNode::live_replicas`) and category inquiry (a view snapshot
//! plus `Planner::live_candidates`, as `Toolkit::candidates` does) scan
//! every record, so they grow linearly. The largest view any test,
//! bench or example builds holds 42 records (a 3-host toolkit at 14
//! services per host).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dm_bench::banner;
use dm_workflow::planner::Planner;
use dm_wsrf::fleet::GossipNode;
use dm_wsrf::registry::ServiceEntry;
use std::hint::black_box;
use std::time::Duration;

fn entry(i: usize) -> ServiceEntry {
    ServiceEntry {
        name: format!("Service{i:05}"),
        host: format!("host-{}", i % 16),
        wsdl_url: format!("http://host-{}/axis/Service{i:05}?wsdl", i % 16),
        categories: vec![
            if i % 3 == 0 {
                "classifier"
            } else {
                "clustering"
            }
            .to_string(),
            "datamining".to_string(),
        ],
        description: String::new(),
    }
}

fn filled(n: usize) -> GossipNode {
    let node = GossipNode::new("registry");
    for i in 0..n {
        node.publish(entry(i), Duration::ZERO);
    }
    node
}

fn bench(c: &mut Criterion) {
    banner("E11 / §4.6", "registry (gossip view) inquiry scaling");
    let mut group = c.benchmark_group("e11_registry");
    for &n in &[10usize, 100, 1_000, 10_000] {
        let node = filled(n);
        let needle = format!("Service{:05}", n - 1);
        group.bench_with_input(BenchmarkId::new("live_replicas", n), &node, |b, node| {
            b.iter(|| {
                let hits = node.live_replicas(black_box(&needle), Duration::ZERO, Duration::MAX);
                assert_eq!(hits.len(), 1);
            })
        });
        group.bench_with_input(BenchmarkId::new("live_candidates", n), &node, |b, node| {
            b.iter(|| {
                let view = node.view_snapshot();
                black_box(
                    Planner::live_candidates(&view, "classifier", Duration::ZERO, Duration::MAX)
                        .len(),
                )
            })
        });
        let replacement = entry(n - 1);
        group.bench_with_input(BenchmarkId::new("publish_replace", n), &node, |b, node| {
            b.iter(|| node.publish(replacement.clone(), Duration::ZERO))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
