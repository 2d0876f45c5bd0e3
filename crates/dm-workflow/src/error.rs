//! Error type for the workflow engine.

use std::fmt;

/// Result alias used throughout `dm-workflow`.
pub type Result<T> = std::result::Result<T, WorkflowError>;

/// Errors raised while building or enacting workflows.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkflowError {
    /// A task id was not found in the graph.
    UnknownTask(usize),
    /// A port index was out of range for a task.
    UnknownPort {
        /// Task id.
        task: usize,
        /// Port index.
        port: usize,
        /// `true` for input ports.
        input: bool,
    },
    /// A cable would connect incompatible port types.
    TypeMismatch {
        /// Producing port type.
        from: String,
        /// Consuming port type.
        to: String,
    },
    /// An input port is fed by more than one cable.
    PortAlreadyConnected {
        /// Task id.
        task: usize,
        /// Input port index.
        port: usize,
    },
    /// The graph contains a cycle (enactment needs a DAG).
    Cycle,
    /// An input port has no cable and no initial binding.
    UnboundInput {
        /// Task name.
        task: String,
        /// Port name.
        port: String,
    },
    /// A task failed during execution (after exhausting retries).
    TaskFailed {
        /// Task name.
        task: String,
        /// Failure message.
        message: String,
    },
    /// The enactment orchestrator was killed by a scripted crash
    /// (simulated process death). The run journal retains everything
    /// appended before the kill; a fresh executor can resume from it.
    Crashed {
        /// Journal records durably appended before the process died.
        appended: u64,
    },
    /// A journal was replayed against a workflow it does not belong to
    /// (the structural fingerprints disagree).
    JournalMismatch {
        /// Fingerprint recorded in the journal's run-started record.
        journal: u128,
        /// Fingerprint of the graph being enacted.
        graph: u128,
    },
    /// A journal's records do not fit the workflow they are replayed
    /// against, though no fingerprint rejected them: a record names a
    /// task the graph does not have, or a completion carries another
    /// number of outputs than the task's tool declares.
    JournalInconsistent {
        /// The task id the record names.
        task: usize,
        /// What does not fit.
        reason: String,
    },
    /// The run journal refused a task's completion: its record could
    /// not be read back (an output nests lists deeper than the decoder
    /// accepts), so journaling it would hide every later record.
    JournalRefused {
        /// Task name.
        task: String,
        /// Why the record was refused.
        reason: String,
    },
    /// A tool name was not found in the toolbox.
    UnknownTool(String),
    /// The composition planner found no placeable replica for a step
    /// (nothing published under the category, or every candidate sits
    /// behind an open circuit breaker).
    NoCandidates {
        /// Goal step index (0-based).
        step: usize,
        /// The category the step asked for.
        category: String,
    },
    /// XML import failure.
    Xml(String),
    /// Underlying Web Services error.
    Ws(String),
}

impl fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkflowError::UnknownTask(id) => write!(f, "no task with id {id}"),
            WorkflowError::UnknownPort { task, port, input } => write!(
                f,
                "task {task} has no {} port {port}",
                if *input { "input" } else { "output" }
            ),
            WorkflowError::TypeMismatch { from, to } => {
                write!(f, "cannot connect {from:?} output to {to:?} input")
            }
            WorkflowError::PortAlreadyConnected { task, port } => {
                write!(f, "input port {port} of task {task} is already connected")
            }
            WorkflowError::Cycle => write!(f, "workflow graph contains a cycle"),
            WorkflowError::UnboundInput { task, port } => {
                write!(
                    f,
                    "input {port:?} of task {task:?} is not connected or bound"
                )
            }
            WorkflowError::TaskFailed { task, message } => {
                write!(f, "task {task:?} failed: {message}")
            }
            WorkflowError::Crashed { appended } => write!(
                f,
                "orchestrator killed (simulated crash) after {appended} journal records; resume from the journal"
            ),
            WorkflowError::JournalMismatch { journal, graph } => write!(
                f,
                "journal belongs to a different workflow (journal fingerprint {journal:#034x}, graph {graph:#034x})"
            ),
            WorkflowError::JournalInconsistent { task, reason } => write!(
                f,
                "journal record for task {task} does not fit the workflow: {reason}"
            ),
            WorkflowError::JournalRefused { task, reason } => {
                write!(f, "run journal refused the completion of {task:?}: {reason}")
            }
            WorkflowError::UnknownTool(name) => write!(f, "no tool named {name:?}"),
            WorkflowError::NoCandidates { step, category } => write!(
                f,
                "no placeable replica for goal step {step} (category {category:?})"
            ),
            WorkflowError::Xml(m) => write!(f, "taskgraph XML error: {m}"),
            WorkflowError::Ws(m) => write!(f, "web service error: {m}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

impl From<dm_wsrf::WsError> for WorkflowError {
    fn from(e: dm_wsrf::WsError) -> Self {
        WorkflowError::Ws(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert_eq!(
            WorkflowError::Cycle.to_string(),
            "workflow graph contains a cycle"
        );
        let e = WorkflowError::UnknownPort {
            task: 3,
            port: 1,
            input: true,
        };
        assert!(e.to_string().contains("input port 1"));
        let e = WorkflowError::TaskFailed {
            task: "t".into(),
            message: "m".into(),
        };
        assert!(e.to_string().contains("\"t\""));
    }

    #[test]
    fn ws_error_converts() {
        let e: WorkflowError = dm_wsrf::WsError::UnknownHost("h".into()).into();
        assert!(matches!(e, WorkflowError::Ws(_)));
    }
}
