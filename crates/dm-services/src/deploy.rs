//! One-call deployment of the FAEHIM service suite onto a container
//! host, and UDDI publication — what installing the toolkit's WAR files
//! into Tomcat plus jUDDI registration did on the paper's testbed
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
use dm_wsrf::lifecycle::LifecyclePolicy;
use dm_wsrf::registry::{ServiceEntry, UddiRegistry};
use std::sync::Arc;

/// Deploy every FAEHIM Web Service into `container`. Returns the list
/// of deployed service names. Every service that decodes a dataset
/// argument shares one decoded-dataset cache, so the host decodes each
/// distinct dataset once.
pub fn deploy_faehim_suite(container: &ServiceContainer) -> Result<Vec<String>> {
    let datasets = DatasetCache::default();
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

/// Publish every service deployed on `container` into `registry`.
pub fn publish_suite(container: &ServiceContainer, registry: &UddiRegistry) -> Result<()> {
    for name in container.deployed() {
        let wsdl = container.wsdl_of(&name)?;
        registry.publish(ServiceEntry {
            name: name.clone(),
            host: container.host().to_string(),
            wsdl_url: format!("{}?wsdl", wsdl.endpoint),
            categories: categories_of(&name),
            description: wsdl
                .operations
                .first()
                .map(|o| o.documentation.clone())
                .unwrap_or_default(),
        });
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
        let registry = UddiRegistry::new();
        publish_suite(&c, &registry).unwrap();
        assert_eq!(registry.len(), 14);
        let classifiers = registry.find_by_category("classifier");
        assert_eq!(classifiers.len(), 2);
        assert!(classifiers[0].wsdl_url.ends_with("?wsdl"));
        assert_eq!(registry.find_by_category("visualisation").len(), 2);
        assert_eq!(registry.find_by_category("streaming").len(), 1);
    }
}
