//! Domain scenario: the two other service families of §4.1 — the
//! Cobweb clustering Web Service (`cluster` + `getCobwebGraph`) and
//! association-rule mining — plus the Mathematica-substitute `plot3D`.
//!
//! Run with `cargo run --example clustering_and_rules`. Writes
//! `target/cobweb_tree.svg`, `target/clusters.svg` and
//! `target/plot3d.ppm`.

#![forbid(unsafe_code)]

use dm_data::corpus::{gaussian_blobs, market_baskets, BlobSpec};
use dm_wsrf::soap::SoapValue;
use faehim::Toolkit;

fn main() {
    let toolkit = Toolkit::new().expect("toolkit provisioning");
    let net = toolkit.network();
    let host = toolkit.primary_host().to_string();
    std::fs::create_dir_all("target").expect("target dir");

    // --- Clustering -----------------------------------------------------
    let blobs = gaussian_blobs(
        &[
            BlobSpec {
                center: vec![0.0, 0.0],
                stddev: 0.4,
                count: 60,
            },
            BlobSpec {
                center: vec![8.0, 0.5],
                stddev: 0.4,
                count: 60,
            },
            BlobSpec {
                center: vec![4.0, 7.0],
                stddev: 0.4,
                count: 60,
            },
        ],
        2026,
    );
    let arff = dm_data::arff::write_arff(&blobs);

    let report = toolkit
        .clusterer_client()
        .cluster(&arff, "SimpleKMeans", "-N 3")
        .expect("k-means over the Clusterer service");
    println!("=== SimpleKMeans via the Clusterer Web Service ===\n{report}");

    let cobweb_svg = toolkit
        .clusterer_client()
        .cobweb_graph(&arff, "-A 0.4")
        .expect("getCobwebGraph");
    std::fs::write("target/cobweb_tree.svg", &cobweb_svg).expect("write SVG");
    println!("Cobweb concept hierarchy written to target/cobweb_tree.svg");

    // Cluster visualiser (the §4.3 visualisation tool).
    let assignments = net
        .invoke(
            &host,
            "Clusterer",
            "assignments",
            vec![
                ("dataset".into(), SoapValue::Text(arff.clone())),
                ("clusterer".into(), SoapValue::Text("SimpleKMeans".into())),
                ("options".into(), SoapValue::Text("-N 3".into())),
            ],
        )
        .expect("assignments");
    let assignments: Vec<usize> = assignments
        .as_list()
        .expect("list")
        .iter()
        .map(|v| v.as_int().expect("int") as usize)
        .collect();
    let points: Vec<(f64, f64)> = (0..blobs.num_instances())
        .map(|r| (blobs.value(r, 0), blobs.value(r, 1)))
        .collect();
    std::fs::write(
        "target/clusters.svg",
        dm_viz::plot::cluster_plot("k-means clusters", &points, &assignments),
    )
    .expect("write SVG");
    println!("Cluster visualisation written to target/clusters.svg");

    // --- Association rules ----------------------------------------------
    let baskets = market_baskets(10, 400, &[(&[0, 1], 0.45), (&[3, 4, 5], 0.3)], 0.03, 7);
    let baskets_arff = dm_data::arff::write_arff(&baskets);
    let rules = net
        .invoke(
            &host,
            "Association",
            "mine",
            vec![
                ("dataset".into(), SoapValue::Text(baskets_arff)),
                ("associator".into(), SoapValue::Text("Apriori".into())),
                (
                    "options".into(),
                    SoapValue::Text("-Z true -M 0.2 -C 0.7 -N 15".into()),
                ),
            ],
        )
        .expect("association mining");
    println!("\n=== Apriori rules via the Association Web Service ===");
    for rule in rules.as_list().expect("list") {
        println!("  {}", rule.as_text().expect("text"));
    }

    // --- plot3D (the Mathematica-substitute service) ---------------------
    let mut csv = String::from("x,y,z\n");
    for i in 0..400 {
        let t = i as f64 / 40.0;
        csv.push_str(&format!("{},{},{}\n", t.cos() * t, t.sin() * t, t));
    }
    let image = net
        .invoke(
            &host,
            "Math",
            "plot3D",
            vec![
                ("csv".into(), SoapValue::Text(csv)),
                ("width".into(), SoapValue::Int(480)),
                ("height".into(), SoapValue::Int(360)),
            ],
        )
        .expect("plot3D");
    std::fs::write("target/plot3d.ppm", image.as_bytes().expect("bytes")).expect("write image");
    println!("\nplot3D image written to target/plot3d.ppm");
    println!("Simulated network time consumed: {:?}", net.virtual_time());
}
