//! Provisioning micro-benchmarks: what bringing the toolkit up costs
//! (§4.6, Figure 1: deploy the FAEHIM suite, publish it, import every
//! WSDL operation as a tool), and its parts.
//!
//! Rows: `Toolkit::new` (one host), `Toolkit::with_hosts` over three
//! hosts, `deploy_faehim_suite` onto a fresh container, and `to_xml`
//! over the suite's 14 WSDL documents. Two more rows split
//! `Toolkit::new`: the 14 `fetch_wsdl` charges its import makes, and
//! the services and tools that hold the standard corpora (the URL
//! reader, the relational service and the local dataset tool). The
//! first `Toolkit::new` of the process is timed on its own, since it
//! is the one that generates the corpora.
//!
//! The 14 documents' written length must equal the bytes the fetches
//! charge (the bench panics otherwise). It uses only public APIs, so
//! the same file builds against a parent commit for interleaved
//! before/after runs.

#![forbid(unsafe_code)]

use dm_bench::{banner, median_nanos};
use dm_services::convert_ws::UrlReaderService;
use dm_services::dataaccess_ws::DataAccessService;
use dm_services::deploy_faehim_suite;
use dm_wsrf::container::ServiceContainer;
use dm_wsrf::transport::Network;
use faehim::tools::LocalDataset;
use faehim::Toolkit;
use std::hint::black_box;
use std::time::Instant;

const HOST: &str = "wesc.cf.ac.uk";

fn main() {
    banner(
        "provisioning",
        "Toolkit set-up, suite deployment and WSDL rendering",
    );
    let start = Instant::now();
    black_box(Toolkit::new().expect("toolkit"));
    let first = start.elapsed().as_nanos() as f64;

    let network = Network::new();
    let services = deploy_faehim_suite(&network.add_host(HOST)).expect("suite deploys");
    let container = network.host(HOST).expect("host");
    let wsdls: Vec<_> = services
        .iter()
        .map(|name| container.wsdl_of(name).expect("deployed service"))
        .collect();
    let written: usize = wsdls.iter().map(|w| w.to_xml().len()).sum();
    let before = network.wire_stats().bytes;
    for name in &services {
        network.fetch_wsdl(HOST, name).expect("fetch");
    }
    assert_eq!(
        network.wire_stats().bytes - before,
        written as u64,
        "the WSDL fetches charge what to_xml writes"
    );

    let rows = [
        (
            "Toolkit::new",
            median_nanos(|| {
                black_box(Toolkit::new().expect("toolkit"));
            }),
        ),
        (
            "Toolkit::with_hosts x3",
            median_nanos(|| {
                black_box(Toolkit::with_hosts(&["a", "b", "c"]).expect("toolkit"));
            }),
        ),
        (
            "deploy_faehim_suite",
            median_nanos(|| {
                let container = ServiceContainer::new(HOST);
                black_box(deploy_faehim_suite(&container).expect("deploy"));
            }),
        ),
        (
            "to_xml x14",
            median_nanos(|| {
                for wsdl in &wsdls {
                    black_box(black_box(wsdl).to_xml());
                }
            }),
        ),
        (
            "fetch_wsdl x14",
            median_nanos(|| {
                for name in &services {
                    black_box(network.fetch_wsdl(HOST, name).expect("fetch"));
                }
            }),
        ),
        (
            "standard corpora",
            median_nanos(|| {
                black_box(UrlReaderService::with_standard_corpus());
                black_box(DataAccessService::with_standard_resources());
                black_box(LocalDataset::breast_cancer());
            }),
        ),
    ];
    println!("{:<24} {:>12}", "row", "median");
    println!("{:<24} {:>9.1} us", "first Toolkit::new", first / 1e3);
    for (label, nanos) in rows {
        println!("{label:<24} {:>9.1} us", nanos / 1e3);
    }
    let (new, fetch, corpora) = (rows[0].1, rows[4].1, rows[5].1);
    println!(
        "Toolkit::new split: corpora {:.1} us, WSDL fetches {:.1} us, the rest {:.1} us",
        corpora / 1e3,
        fetch / 1e3,
        (new - corpora - fetch) / 1e3
    );
    println!("WSDL bytes per suite: {written}");
}
