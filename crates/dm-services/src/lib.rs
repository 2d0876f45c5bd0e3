//! # dm-services — the FAEHIM data-mining Web Services
//!
//! This crate implements every Web Service the paper describes (§4),
//! as [`dm_wsrf::container::WebService`] implementations plus typed
//! client stubs:
//!
//! * [`classifier_ws`] — the **general Classifier Web Service** with
//!   `getClassifiers`, `getOptions`, and `classifyInstance` (4 inputs:
//!   dataset in ARFF, classifier name, options, class attribute name),
//!   plus `crossValidate` for the "testing the discovered knowledge"
//!   requirement;
//! * [`j48_ws`] — the dedicated **J48 Web Service** with `classify` and
//!   `classifyGraph`, backed by the §4.5 instance lifecycle (this is
//!   the service whose repeated invocation exposed the serialisation
//!   penalty measured by experiment E4);
//! * [`clusterer_ws`] — the **Cobweb Web Service** (`cluster`,
//!   `getCobwebGraph`) and a general Clusterer service;
//! * [`assoc_ws`] — association-rule mining;
//! * [`attrsel_ws`] — attribute selection, including the **genetic
//!   search** service of §5.3;
//! * [`convert_ws`] — CSV↔ARFF conversion, dataset summaries
//!   (Figure 3), and the URL reader that fetches "the data file from a
//!   URL and convert\[s\] this into a format suitable for analysis";
//! * [`plot_ws`] — the GNUPlot-substitute 2-D plotter and the
//!   Mathematica-substitute `plot3D` returning image bytes;
//! * [`stream_ws`] — the **streaming ingest** service (E18): columnar
//!   chunk upload with bounded in-flight windows, online learners, and
//!   live `classifyInstances` serving over the open stream;
//! * [`client`] — typed stubs that invoke the services over the
//!   simulated network (what Triana's generated tools did);
//! * [`deploy`] — one-call deployment of the full FAEHIM suite onto a
//!   host, with UDDI registration.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assoc_ws;
pub mod attrsel_ws;
pub mod classifier_ws;
pub mod client;
pub mod clusterer_ws;
pub mod convert_ws;
pub mod dataaccess_ws;
pub mod dataset_cache;
pub mod deploy;
pub mod j48_ws;
pub mod model_cache;
pub mod plot_ws;
pub mod preprocess_ws;
pub mod session_ws;
pub mod stream_ws;
mod support;

pub use deploy::{deploy_faehim_suite, publish_suite};

/// Is `operation` on `service` a pure function of its arguments (no
/// side effects, deterministic output)? This is the service metadata
/// that lets the workflow engine memoise imported tools
/// (`dm_workflow::graph::Tool::is_pure`): everything in the simulated
/// suite is seeded and deterministic, so the impure set is exactly the
/// operations with observable state — session storage, lifecycle
/// counters, and cache statistics.
pub fn is_pure_operation(service: &str, operation: &str) -> bool {
    match service {
        // All session state lives server-side.
        "Session" => false,
        // Lifecycle mode is service state; its stats are counters.
        "J48" => !matches!(operation, "setLifecycle" | "getLifecycleStats"),
        // Cache counters change on every trained-model lookup.
        "Classifier" => operation != "getCacheStats",
        // Every streaming operation mutates or reads live stream state.
        "DataStream" => false,
        "Cobweb" | "Clusterer" | "Association" | "AttributeSelection" | "Preprocess"
        | "DataConversion" | "UrlReader" | "DataAccess" | "Plot" | "Math" => true,
        _ => false,
    }
}

/// Convenience re-exports.
pub mod prelude {
    pub use crate::classifier_ws::ClassifierService;
    pub use crate::client::{
        ClassifierClient, ClustererClient, ConvertClient, J48Client, StreamClient,
    };
    pub use crate::deploy::{deploy_faehim_suite, publish_suite};
    pub use crate::is_pure_operation;
    pub use crate::j48_ws::J48Service;
    pub use crate::model_cache::ModelCache;
}
