//! The published service record.
//!
//! §4.6: "Access to the UDDI registry for inquiry is available at
//! <http://agents-comsc.grid.cf.ac.uk:8334/juddi/inquiry>". Services are
//! published with a name, a host, a WSDL location, and category tags
//! ("classifier", "clustering", "visualisation", ...). The registry
//! that holds these records is a gossip view
//! ([`GossipNode`](crate::fleet::GossipNode)), keyed by
//! `(service, host)` so every replica of a service is its own record;
//! inquiries by name ([`GossipNode::live_replicas`]) and by category
//! (`dm_workflow::planner::Planner::live_candidates`) read that view.
//!
//! [`GossipNode::live_replicas`]: crate::fleet::GossipNode::live_replicas

/// One published service record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceEntry {
    /// Service name, e.g. `Classifier`.
    pub name: String,
    /// Host the service is deployed on.
    pub host: String,
    /// WSDL document URL.
    pub wsdl_url: String,
    /// Category tags (UDDI category bag).
    pub categories: Vec<String>,
    /// Free-text description.
    pub description: String,
}
