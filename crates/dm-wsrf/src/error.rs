//! Error type shared across the Web Services substrate.

use std::fmt;
use std::time::Duration;

/// Result alias used throughout `dm-wsrf`.
pub type Result<T> = std::result::Result<T, WsError>;

/// SOAP fault code raised when an admission-controlled host sheds a
/// request because its accept queue is full. Unlike other SOAP faults
/// this one is transient by construction, so the resilience layer
/// treats it as retryable-with-backoff.
pub const SERVER_BUSY_CODE: &str = "ServerBusy";

/// Errors raised by the Web Services layer.
#[derive(Debug, Clone, PartialEq)]
pub enum WsError {
    /// A SOAP fault returned by a service.
    Fault {
        /// Fault code, e.g. `"Client"` or `"Server"`.
        code: String,
        /// Fault string.
        message: String,
    },
    /// Transport-level failure on the **request leg**: the call never
    /// reached the service, so no work was performed and a retry is
    /// safe.
    Transport(String),
    /// Transport-level failure on the **response leg**: the service may
    /// have executed the operation but the reply was lost, so a retry
    /// can duplicate work. Retry layers must account for this.
    ResponseLost(String),
    /// A resilience policy's per-call deadline elapsed before the call
    /// (including retries and backoff) completed.
    DeadlineExceeded {
        /// Virtual time consumed when the deadline check fired.
        elapsed: Duration,
        /// The deadline that was exceeded.
        deadline: Duration,
    },
    /// A circuit breaker is open for the named host; the call was
    /// rejected without touching the network.
    CircuitOpen(String),
    /// The target host does not exist on the simulated network.
    UnknownHost(String),
    /// The target service is not deployed in the container.
    NotDeployed(String),
    /// The requested operation does not exist on the service.
    UnknownOperation {
        /// Service name.
        service: String,
        /// Operation name.
        operation: String,
    },
    /// XML could not be parsed (offset, message).
    Xml {
        /// Byte offset of the failure.
        offset: usize,
        /// Description.
        message: String,
    },
    /// An envelope or WSDL document was structurally invalid.
    Malformed(String),
    /// Disk-backed instance store I/O failure.
    Store(String),
    /// A lookup (registry, session, primary host) matched nothing.
    NotFound(String),
}

impl fmt::Display for WsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WsError::Fault { code, message } => write!(f, "SOAP fault [{code}]: {message}"),
            WsError::Transport(m) => write!(f, "transport error: {m}"),
            WsError::ResponseLost(m) => {
                write!(f, "response lost (work may have executed): {m}")
            }
            WsError::DeadlineExceeded { elapsed, deadline } => {
                write!(
                    f,
                    "deadline exceeded: {elapsed:?} elapsed of {deadline:?} allowed"
                )
            }
            WsError::CircuitOpen(h) => write!(f, "circuit open for host {h:?}"),
            WsError::UnknownHost(h) => write!(f, "unknown host {h:?}"),
            WsError::NotDeployed(s) => write!(f, "service {s:?} is not deployed"),
            WsError::UnknownOperation { service, operation } => {
                write!(f, "service {service:?} has no operation {operation:?}")
            }
            WsError::Xml { offset, message } => {
                write!(f, "XML error at byte {offset}: {message}")
            }
            WsError::Malformed(m) => write!(f, "malformed document: {m}"),
            WsError::Store(m) => write!(f, "instance store error: {m}"),
            WsError::NotFound(m) => write!(f, "not found: {m}"),
        }
    }
}

impl WsError {
    /// `true` for failures of the network path itself (either leg,
    /// unreachable hosts, open breakers, blown deadlines) as opposed to
    /// the service answering with a fault or a bad document.
    pub fn is_transport_level(&self) -> bool {
        matches!(
            self,
            WsError::Transport(_)
                | WsError::ResponseLost(_)
                | WsError::UnknownHost(_)
                | WsError::CircuitOpen(_)
                | WsError::DeadlineExceeded { .. }
        )
    }

    /// `true` when the failed call may nonetheless have executed on the
    /// service (the reply was lost after dispatch). Retrying such a
    /// call is not idempotence-free.
    pub fn work_may_have_executed(&self) -> bool {
        matches!(self, WsError::ResponseLost(_))
    }

    /// `true` for a `ServerBusy` SOAP fault — the host's admission
    /// controller shed the request before it reached a service. No work
    /// was performed, and the overload is transient, so callers should
    /// back off (or fail over to a less-loaded replica) and retry.
    pub fn is_server_busy(&self) -> bool {
        matches!(self, WsError::Fault { code, .. } if code == SERVER_BUSY_CODE)
    }

    /// `true` when a retry (on this or another replica) can meaningfully
    /// be attempted: transport failures on either leg, plus `ServerBusy`
    /// sheds (transient overload, no work performed). Other SOAP faults
    /// and malformed requests are deterministic and excluded; open
    /// breakers and blown deadlines are terminal for the current call.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            WsError::Transport(_) | WsError::ResponseLost(_) | WsError::UnknownHost(_)
        ) || self.is_server_busy()
    }
}

impl std::error::Error for WsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_fault() {
        let e = WsError::Fault {
            code: "Server".into(),
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "SOAP fault [Server]: boom");
    }

    #[test]
    fn display_unknown_operation() {
        let e = WsError::UnknownOperation {
            service: "S".into(),
            operation: "op".into(),
        };
        assert!(e.to_string().contains("\"op\""));
    }

    #[test]
    fn is_std_error() {
        fn check(_: &dyn std::error::Error) {}
        check(&WsError::Transport("x".into()));
    }

    #[test]
    fn server_busy_is_retryable_other_faults_are_not() {
        let busy = WsError::Fault {
            code: SERVER_BUSY_CODE.into(),
            message: "queue full".into(),
        };
        assert!(busy.is_server_busy());
        assert!(busy.is_retryable());
        assert!(!busy.is_transport_level());
        assert!(!busy.work_may_have_executed());

        let server = WsError::Fault {
            code: "Server".into(),
            message: "boom".into(),
        };
        assert!(!server.is_server_busy());
        assert!(!server.is_retryable());
    }
}
