//! E6 — Figure 2's component inventory: the provisioned toolkit must
//! contain the engine, the three local tool groups, the imported
//! service tools, and the published registry.

#![forbid(unsafe_code)]

use dm_workflow::planner::Planner;
use faehim::Toolkit;
use std::time::Duration;

#[test]
fn figure2_components_present() {
    let toolkit = Toolkit::new().unwrap();
    let toolbox = toolkit.toolbox();

    // Three local tool groups of §4.3 plus Common.
    for folder in ["Common", "DataManipulation", "Processing", "Visualization"] {
        assert!(
            toolbox.folders().iter().any(|f| f == folder),
            "folder {folder} missing"
        );
    }
    // Imported Web Service tool folders.
    let ws_folders: Vec<String> = toolbox
        .folders()
        .into_iter()
        .filter(|f| f.starts_with("WebServices."))
        .collect();
    assert_eq!(ws_folders.len(), 14, "{ws_folders:?}");

    // The registry holds the published suite.
    assert_eq!(toolkit.registry().view_len(), 14);

    // The description names the key components.
    let text = toolkit.describe_components();
    for needle in [
        "Workflow engine",
        "DataManipulation/",
        "Visualization/",
        "Classifier @",
        "42 registered algorithms",
    ] {
        assert!(text.contains(needle), "{needle} missing from:\n{text}");
    }
}

#[test]
fn toolbox_tools_are_instantiable_in_graphs() {
    let toolkit = Toolkit::new().unwrap();
    let toolbox = toolkit.toolbox();
    let mut graph = dm_workflow::graph::TaskGraph::new();
    // Every registered tool can be placed as a task.
    let mut placed = 0;
    for folder in toolbox.folders() {
        for tool_name in toolbox.tools_in(&folder) {
            let tool = toolbox.find(&tool_name).unwrap();
            graph.add_task(tool);
            placed += 1;
        }
    }
    assert_eq!(placed, toolbox.len());
    assert!(placed > 25, "only {placed} tools");
}

#[test]
fn registry_inquiry_paths() {
    let toolkit = Toolkit::new().unwrap();
    let reg = toolkit.registry();
    let now = toolkit.network().now();
    assert_eq!(
        reg.live_hosts("Classifier", now, Duration::MAX),
        [toolkit.primary_host()]
    );
    let view = reg.view_snapshot();
    assert_eq!(
        Planner::live_candidates(&view, "datamining", now, Duration::MAX).len(),
        6
    );
    assert!(reg
        .live_replicas("NoSuchService", now, Duration::MAX)
        .is_empty());
}
