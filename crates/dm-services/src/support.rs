//! Shared helpers for the service implementations: argument accessors
//! and error-to-fault conversion.

use dm_algorithms::AlgoError;
use dm_data::DataError;
use dm_wsrf::container::ServiceFault;
use dm_wsrf::soap::SoapValue;
use dm_wsrf::trace::{child_span, SpanKind};

/// Run a service handler under a `Handler` span chained to the
/// container's current dispatch span (a no-op when no tracer is
/// current). Faults mark the span as errored.
pub fn traced_handler<T>(
    service: &str,
    operation: &str,
    body: impl FnOnce() -> Result<T, ServiceFault>,
) -> Result<T, ServiceFault> {
    let mut span = child_span(format!("{service}.{operation}"), SpanKind::Handler);
    let _current = span.as_ref().map(|s| s.make_current());
    let result = body();
    if let (Some(s), Err(fault)) = (span.as_mut(), &result) {
        s.set_error(format!("[{}] {}", fault.code, fault.message));
    }
    result
}

/// Convert a data error into a SOAP fault (caller errors are `Client`).
pub fn data_fault(e: DataError) -> ServiceFault {
    match e {
        DataError::Parse { .. }
        | DataError::UnknownLabel { .. }
        | DataError::UnknownAttribute(_)
        | DataError::Arity { .. }
        | DataError::InvalidParameter(_)
        | DataError::NoClass
        | DataError::Empty
        | DataError::NominalRange { .. }
        | DataError::KindMismatch { .. }
        | DataError::RaggedBatch { .. } => ServiceFault::client(e.to_string()),
        _ => ServiceFault::server(e.to_string()),
    }
}

/// Convert an algorithm error into a SOAP fault.
pub fn algo_fault(e: AlgoError) -> ServiceFault {
    match e {
        AlgoError::Data(d) => data_fault(d),
        AlgoError::UnknownAlgorithm(_)
        | AlgoError::BadOption { .. }
        | AlgoError::Unsupported(_) => ServiceFault::client(e.to_string()),
        AlgoError::NotTrained | AlgoError::BadState(_) => ServiceFault::server(e.to_string()),
    }
}

/// Fetch a required string argument.
pub fn text_arg<'a>(args: &'a [(String, SoapValue)], name: &str) -> Result<&'a str, ServiceFault> {
    match args.iter().find(|(n, _)| n == name) {
        Some((_, SoapValue::Text(s))) => Ok(s),
        Some((_, other)) => Err(ServiceFault::client(format!(
            "argument {name:?} must be a string, got {}",
            other.type_name()
        ))),
        None => Err(ServiceFault::client(format!("missing argument {name:?}"))),
    }
}

/// Fetch an optional string argument (missing → `None`).
pub fn opt_text_arg<'a>(
    args: &'a [(String, SoapValue)],
    name: &str,
) -> Result<Option<&'a str>, ServiceFault> {
    match args.iter().find(|(n, _)| n == name) {
        None => Ok(None),
        Some((_, SoapValue::Text(s))) => Ok(Some(s)),
        Some((_, SoapValue::Null)) => Ok(None),
        Some((_, other)) => Err(ServiceFault::client(format!(
            "argument {name:?} must be a string, got {}",
            other.type_name()
        ))),
    }
}

/// Fetch a required integer argument.
pub fn int_arg(args: &[(String, SoapValue)], name: &str) -> Result<i64, ServiceFault> {
    match args.iter().find(|(n, _)| n == name) {
        Some((_, SoapValue::Int(i))) => Ok(*i),
        Some((_, other)) => Err(ServiceFault::client(format!(
            "argument {name:?} must be a long, got {}",
            other.type_name()
        ))),
        None => Err(ServiceFault::client(format!("missing argument {name:?}"))),
    }
}

/// Convert an algorithm-layer tree model into the visualisation layer's
/// [`dm_viz::TreeSpec`].
pub fn tree_to_spec(tree: &dm_algorithms::tree::TreeModel) -> dm_viz::TreeSpec {
    let mut spec = dm_viz::TreeSpec::new();
    for node in tree.nodes() {
        spec.add(node.label.clone(), node.edge.clone(), node.is_leaf);
    }
    for (i, node) in tree.nodes().iter().enumerate() {
        for &c in &node.children {
            spec.connect(i, c);
        }
    }
    spec
}

/// Render a tree model straight to SVG.
pub fn tree_to_svg(tree: &dm_algorithms::tree::TreeModel) -> String {
    tree_to_spec(tree).to_svg()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_arg_access() {
        let args = vec![("a".to_string(), SoapValue::Text("x".into()))];
        assert_eq!(text_arg(&args, "a").unwrap(), "x");
        assert!(text_arg(&args, "b").is_err());
        let bad = vec![("a".to_string(), SoapValue::Int(1))];
        assert!(text_arg(&bad, "a").is_err());
    }

    #[test]
    fn opt_text_arg_access() {
        let args = vec![("a".to_string(), SoapValue::Null)];
        assert_eq!(opt_text_arg(&args, "a").unwrap(), None);
        assert_eq!(opt_text_arg(&args, "b").unwrap(), None);
    }

    #[test]
    fn fault_codes() {
        assert_eq!(data_fault(DataError::Empty).code, "Client");
        // Cells and buffers the caller sent that do not fit the schema.
        for e in [
            DataError::NominalRange {
                attribute: "outlook".into(),
                code: "200".into(),
                arity: 3,
            },
            DataError::KindMismatch {
                attribute: "outlook".into(),
                expected: "nominal",
            },
            DataError::RaggedBatch {
                column: "weights".into(),
                len: 4,
                expected: 5,
            },
        ] {
            assert_eq!(data_fault(e).code, "Client");
        }
        assert_eq!(data_fault(DataError::StreamClosed).code, "Server");
        assert_eq!(algo_fault(AlgoError::NotTrained).code, "Server");
        assert_eq!(
            algo_fault(AlgoError::UnknownAlgorithm("X".into())).code,
            "Client"
        );
    }
}
