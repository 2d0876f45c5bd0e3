//! One-call deployment of the FAEHIM service suite onto a container
//! host, and registry publication — what installing the toolkit's WAR
//! files into Tomcat plus jUDDI registration did on the paper's testbed
//! (§4.6).

use crate::assoc_ws::AssociationService;
use crate::attrsel_ws::AttributeSelectionService;
use crate::classifier_ws::ClassifierService;
use crate::clusterer_ws::{ClustererService, CobwebService};
use crate::convert_ws::{DataConversionService, UrlReaderService};
use crate::dataset_cache::DatasetCache;
use crate::j48_ws::J48Service;
use crate::plot_ws::{MathService, PlotService};
use crate::preprocess_ws::PreprocessService;
use crate::stream_ws::DataStreamService;
use dm_wsrf::container::ServiceContainer;
use dm_wsrf::error::Result;
use dm_wsrf::fleet::GossipNode;
use dm_wsrf::lifecycle::LifecyclePolicy;
use dm_wsrf::registry::ServiceEntry;
use std::sync::Arc;
use std::time::Duration;

/// Deploy every FAEHIM Web Service into `container`. Returns the list
/// of deployed service names. Every service that decodes a dataset
/// argument shares one decoded-dataset cache, so the host decodes each
/// distinct dataset once and keeps the answers derived from it.
pub fn deploy_faehim_suite(container: &ServiceContainer) -> Result<Vec<String>> {
    deploy_sharing(container, DatasetCache::default())
}

/// [`deploy_faehim_suite`] with `datasets` as the host's shared cache.
pub(crate) fn deploy_sharing(
    container: &ServiceContainer,
    datasets: DatasetCache,
) -> Result<Vec<String>> {
    container.deploy(Arc::new(ClassifierService::with_datasets(datasets.clone())));
    container.deploy(Arc::new(J48Service::with_datasets(
        datasets.clone(),
        LifecyclePolicy::SerializePerCall,
    )?));
    container.deploy(Arc::new(CobwebService::with_datasets(datasets.clone())));
    container.deploy(Arc::new(ClustererService::with_datasets(datasets.clone())));
    container.deploy(Arc::new(AssociationService::with_datasets(
        datasets.clone(),
    )));
    container.deploy(Arc::new(AttributeSelectionService::with_datasets(
        datasets.clone(),
    )));
    container.deploy(Arc::new(DataConversionService::with_datasets(
        datasets.clone(),
    )));
    container.deploy(Arc::new(UrlReaderService::standard_corpus_with_datasets(
        datasets.clone(),
    )));
    container.deploy(Arc::new(PlotService::new()));
    container.deploy(Arc::new(MathService::new()));
    container.deploy(Arc::new(
        crate::dataaccess_ws::DataAccessService::with_standard_resources(),
    ));
    container.deploy(Arc::new(crate::session_ws::SessionService::default()));
    container.deploy(Arc::new(PreprocessService::with_datasets(datasets.clone())));
    container.deploy(Arc::new(DataStreamService::with_datasets(datasets)));
    Ok(container.deployed())
}

/// Category tags per service, used for UDDI publication.
fn categories_of(service: &str) -> Vec<String> {
    let cats: &[&str] = match service {
        "Classifier" | "J48" => &["datamining", "classifier"],
        "Cobweb" | "Clusterer" => &["datamining", "clustering"],
        "Association" => &["datamining", "association-rules"],
        "AttributeSelection" => &["datamining", "attribute-selection"],
        "DataConversion" | "UrlReader" | "Preprocess" => &["data-handling"],
        "DataStream" => &["data-handling", "streaming"],
        "DataAccess" => &["data-handling", "relational"],
        "Session" => &["session-management"],
        "Plot" | "Math" => &["visualisation"],
        _ => &["misc"],
    };
    cats.iter().map(|s| s.to_string()).collect()
}

/// Publish every service deployed on `container` into `registry` at
/// virtual instant `now`, one `(service, host)` record per service.
pub fn publish_suite(
    container: &ServiceContainer,
    registry: &GossipNode,
    now: Duration,
) -> Result<()> {
    for name in container.deployed() {
        let wsdl = container.wsdl_of(&name)?;
        registry.publish(
            ServiceEntry {
                name: name.clone(),
                host: container.host().to_string(),
                wsdl_url: format!("{}?wsdl", wsdl.endpoint),
                categories: categories_of(&name),
                description: wsdl
                    .operations
                    .first()
                    .map(|o| o.documentation.clone())
                    .unwrap_or_default(),
            },
            now,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_deploys_fourteen_services() {
        let c = ServiceContainer::new("host-a");
        let names = deploy_faehim_suite(&c).unwrap();
        assert_eq!(names.len(), 14);
        for expected in [
            "Classifier",
            "J48",
            "Cobweb",
            "Clusterer",
            "Association",
            "AttributeSelection",
            "DataConversion",
            "UrlReader",
            "DataAccess",
            "Session",
            "Plot",
            "Math",
            "DataStream",
        ] {
            assert!(names.contains(&expected.to_string()), "{expected} missing");
        }
    }

    #[test]
    fn publication_fills_registry() {
        let c = ServiceContainer::new("host-a");
        deploy_faehim_suite(&c).unwrap();
        let registry = GossipNode::new("host-a");
        publish_suite(&c, &registry, Duration::ZERO).unwrap();
        assert_eq!(registry.view_len(), 14);
        let view = registry.view_snapshot();
        let in_category = |category: &str| {
            view.iter()
                .filter(|r| r.entry.categories.iter().any(|c| c == category))
                .count()
        };
        assert_eq!(in_category("classifier"), 2);
        assert_eq!(in_category("visualisation"), 2);
        assert_eq!(in_category("streaming"), 1);
        let classifier = registry.live_replicas("Classifier", Duration::ZERO, Duration::MAX);
        assert_eq!(classifier.len(), 1);
        assert_eq!(classifier[0].host, "host-a");
        assert!(classifier[0].wsdl_url.ends_with("?wsdl"));
    }
}
