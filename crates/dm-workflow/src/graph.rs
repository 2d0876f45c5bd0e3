//! The dataflow graph: tasks host [`Tool`]s, cables connect output
//! nodes to input nodes ("the connection between tasks is made by
//! dragging a cable from the output node … of the sending task to the
//! input node … of the receiving task", §4).

use crate::error::{Result, WorkflowError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Data flowing through cables. The engine reuses the SOAP value type
/// so imported Web Service tools and local tools exchange tokens
/// without conversion.
pub type Token = dm_wsrf::soap::SoapValue;

/// A typed port: name plus a type tag (`"string"`, `"long"`, `"double"`,
/// `"boolean"`, `"base64Binary"`, `"list"`, or `"any"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSpec {
    /// Port name.
    pub name: String,
    /// Type tag. `"any"` is compatible with everything.
    pub type_name: String,
}

impl PortSpec {
    /// Create a port spec.
    pub fn new<N: Into<String>, T: Into<String>>(name: N, type_name: T) -> PortSpec {
        PortSpec {
            name: name.into(),
            type_name: type_name.into(),
        }
    }

    /// `true` if a value of `self`'s type may flow into `other`.
    pub fn compatible_with(&self, other: &PortSpec) -> bool {
        self.type_name == "any" || other.type_name == "any" || self.type_name == other.type_name
    }
}

/// A unit of computation placeable on the workspace.
pub trait Tool: Send + Sync {
    /// Tool name, e.g. `"CSVToARFF"` or `"Classifier.classifyInstance"`.
    fn name(&self) -> &str;

    /// Toolbox folder, e.g. `"Common"` or `"DataMining.Classifiers"`.
    fn package(&self) -> &str {
        "Common"
    }

    /// Input ports, in order.
    fn input_ports(&self) -> Vec<PortSpec>;

    /// Output ports, in order.
    fn output_ports(&self) -> Vec<PortSpec>;

    /// Execute with one token per input port; must return one token per
    /// output port.
    fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String>;

    /// `true` when the tool is a pure function of its input tokens: no
    /// side effects, and identical inputs always produce identical
    /// outputs. Pure tasks are eligible for memoised enactment
    /// ([`crate::memo::MemoCache`]). Defaults to `false` — impure until
    /// proven otherwise.
    fn is_pure(&self) -> bool {
        false
    }

    /// Identity string mixed into memo keys alongside the input
    /// fingerprints. Tools whose behaviour depends on configuration
    /// (selected algorithm, option strings, …) must embed that
    /// configuration here, or differently-configured instances sharing
    /// a name would collide in the cache. Defaults to [`Tool::name`].
    fn memo_identity(&self) -> String {
        self.name().to_string()
    }

    /// `ServerBusy` sheds absorbed (by retries or failover) during this
    /// tool's most recent [`Tool::execute`]. Local tools never touch
    /// the network and report 0; [`crate::wsimport::WsTool`] reports the
    /// busy-attempt count of its last call so the executor can surface
    /// overload pressure in [`crate::engine::ExecutionReport`].
    fn last_call_sheds(&self) -> u64 {
        0
    }
}

/// Task identifier within a [`TaskGraph`].
pub type TaskId = usize;

/// A placed task: a tool instance with a display name.
pub struct TaskNode {
    /// Display name (unique within the graph; defaults to the tool name
    /// plus a counter).
    pub name: String,
    /// The tool implementation.
    pub tool: Arc<dyn Tool>,
    /// The tool's input and output port counts, read once when the task
    /// is placed (a placed task keeps its tool), so that the executor's
    /// checks count ports without building the tool's port lists.
    ports: (usize, usize),
    /// Wall time of the task's last execution in nanoseconds (0: never
    /// executed). The frontier loop reads it to decide which thread a
    /// claim goes to; it is no part of the graph's structure, and a
    /// clone starts without it.
    last_cost_nanos: AtomicU64,
}

impl Clone for TaskNode {
    fn clone(&self) -> TaskNode {
        TaskNode {
            name: self.name.clone(),
            tool: Arc::clone(&self.tool),
            ports: self.ports,
            last_cost_nanos: AtomicU64::new(0),
        }
    }
}

impl TaskNode {
    fn new(name: String, tool: Arc<dyn Tool>) -> TaskNode {
        TaskNode {
            name,
            ports: (tool.input_ports().len(), tool.output_ports().len()),
            tool,
            last_cost_nanos: AtomicU64::new(0),
        }
    }

    /// Number of the tool's input ports.
    pub(crate) fn inputs(&self) -> usize {
        self.ports.0
    }

    /// Number of the tool's output ports.
    pub(crate) fn outputs(&self) -> usize {
        self.ports.1
    }

    /// How long the task's last execution took, or `None` before its
    /// first (a memo hit or a journal replay executes nothing and
    /// records nothing).
    pub(crate) fn last_cost(&self) -> Option<Duration> {
        match self.last_cost_nanos.load(Ordering::Relaxed) {
            0 => None,
            nanos => Some(Duration::from_nanos(nanos)),
        }
    }

    /// Record that an execution of the task took `elapsed`.
    pub(crate) fn note_cost(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.last_cost_nanos.store(nanos.max(1), Ordering::Relaxed);
    }
}

/// A cable from an output node to an input node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cable {
    /// Producing task.
    pub from_task: TaskId,
    /// Output port index on the producing task.
    pub from_port: usize,
    /// Consuming task.
    pub to_task: TaskId,
    /// Input port index on the consuming task.
    pub to_port: usize,
}

/// The workflow graph.
#[derive(Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<TaskNode>,
    cables: Vec<Cable>,
}

impl TaskGraph {
    /// Create an empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Place a tool on the workspace; returns the new task's id.
    pub fn add_task(&mut self, tool: Arc<dyn Tool>) -> TaskId {
        let base = tool.name().to_string();
        let count = self.tasks.iter().filter(|t| t.tool.name() == base).count();
        let name = if count == 0 {
            base
        } else {
            format!("{base}-{}", count + 1)
        };
        self.tasks.push(TaskNode::new(name, tool));
        self.tasks.len() - 1
    }

    /// Place a tool with an explicit display name.
    pub fn add_named_task<N: Into<String>>(&mut self, name: N, tool: Arc<dyn Tool>) -> TaskId {
        self.tasks.push(TaskNode::new(name.into(), tool));
        self.tasks.len() - 1
    }

    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Borrow a task.
    pub fn task(&self, id: TaskId) -> Result<&TaskNode> {
        self.tasks.get(id).ok_or(WorkflowError::UnknownTask(id))
    }

    /// All tasks in placement order.
    pub fn tasks(&self) -> &[TaskNode] {
        &self.tasks
    }

    /// All cables.
    pub fn cables(&self) -> &[Cable] {
        &self.cables
    }

    /// A structural fingerprint of the graph: task names, tool names,
    /// port counts, and the cable list, hashed in placement order. Two
    /// graphs built the same way fingerprint identically; adding,
    /// renaming, or rewiring a task changes the value. The durable
    /// enactment journal ([`crate::journal`]) stamps this into its
    /// run-started record so a resume against a *different* workflow is
    /// rejected instead of replaying nonsense.
    pub fn structure_fingerprint(&self) -> u128 {
        let mut h = dm_wsrf::dataplane::Hasher128::new();
        h.write(&(self.tasks.len() as u64).to_le_bytes());
        for t in &self.tasks {
            h.write(&(t.name.len() as u64).to_le_bytes());
            h.write(t.name.as_bytes());
            let tool = t.tool.name();
            h.write(&(tool.len() as u64).to_le_bytes());
            h.write(tool.as_bytes());
            h.write_u8(t.inputs() as u8);
            h.write_u8(t.outputs() as u8);
        }
        for c in &self.cables {
            for v in [c.from_task, c.from_port, c.to_task, c.to_port] {
                h.write(&(v as u64).to_le_bytes());
            }
        }
        h.finish()
    }

    /// Wire `from_task.out[from_port]` → `to_task.in[to_port]`,
    /// validating ids, port ranges, type compatibility, single-writer
    /// inputs, and acyclicity.
    pub fn connect(
        &mut self,
        from_task: TaskId,
        from_port: usize,
        to_task: TaskId,
        to_port: usize,
    ) -> Result<()> {
        let from = self.task(from_task)?;
        let to = self.task(to_task)?;
        let out_ports = from.tool.output_ports();
        let in_ports = to.tool.input_ports();
        let out_spec = out_ports.get(from_port).ok_or(WorkflowError::UnknownPort {
            task: from_task,
            port: from_port,
            input: false,
        })?;
        let in_spec = in_ports.get(to_port).ok_or(WorkflowError::UnknownPort {
            task: to_task,
            port: to_port,
            input: true,
        })?;
        if !out_spec.compatible_with(in_spec) {
            return Err(WorkflowError::TypeMismatch {
                from: out_spec.type_name.clone(),
                to: in_spec.type_name.clone(),
            });
        }
        if self
            .cables
            .iter()
            .any(|c| c.to_task == to_task && c.to_port == to_port)
        {
            return Err(WorkflowError::PortAlreadyConnected {
                task: to_task,
                port: to_port,
            });
        }
        let cable = Cable {
            from_task,
            from_port,
            to_task,
            to_port,
        };
        self.cables.push(cable);
        if self.topological_order().is_err() {
            self.cables.pop();
            return Err(WorkflowError::Cycle);
        }
        Ok(())
    }

    /// Kahn topological sort; `Err(Cycle)` if the graph is cyclic.
    pub fn topological_order(&self) -> Result<Vec<TaskId>> {
        let n = self.tasks.len();
        let mut indegree = vec![0usize; n];
        for c in &self.cables {
            indegree[c.to_task] += 1;
        }
        let mut queue: Vec<TaskId> = (0..n).filter(|&t| indegree[t] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(t) = queue.pop() {
            order.push(t);
            for c in &self.cables {
                if c.from_task == t {
                    indegree[c.to_task] -= 1;
                    if indegree[c.to_task] == 0 {
                        queue.push(c.to_task);
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            Err(WorkflowError::Cycle)
        }
    }

    /// Input ports of `task` with no incoming cable, as
    /// `(port_index, spec)` pairs — these must be bound before running.
    pub fn unconnected_inputs(&self, task: TaskId) -> Result<Vec<(usize, PortSpec)>> {
        let node = self.task(task)?;
        Ok(node
            .tool
            .input_ports()
            .into_iter()
            .enumerate()
            .filter(|&(p, _)| self.feeder(task, p).is_none())
            .collect())
    }

    /// Output ports of `task` with no outgoing cable — workflow results.
    pub fn unconnected_outputs(&self, task: TaskId) -> Result<Vec<(usize, PortSpec)>> {
        let node = self.task(task)?;
        Ok(node
            .tool
            .output_ports()
            .into_iter()
            .enumerate()
            .filter(|&(p, _)| !self.feeds(task, p))
            .collect())
    }

    /// The cable into `task`'s input `port`, if one is connected.
    pub(crate) fn feeder(&self, task: TaskId, port: usize) -> Option<&Cable> {
        self.cables
            .iter()
            .find(|c| c.to_task == task && c.to_port == port)
    }

    /// `true` when a cable leaves `task`'s output `port`.
    pub(crate) fn feeds(&self, task: TaskId, port: usize) -> bool {
        self.cables
            .iter()
            .any(|c| c.from_task == task && c.from_port == port)
    }

    /// Task lookup by display name.
    pub fn find_task(&self, name: &str) -> Option<TaskId> {
        self.tasks.iter().position(|t| t.name == name)
    }

    /// Render the workflow as layered text — the "directed graphs to
    /// visualize the state of the application" requirement (§3), usable
    /// on a terminal:
    ///
    /// ```text
    /// layer 0: [0] StringGen
    /// layer 1: [1] ToUpperCase
    ///   [0] StringGen.value -> [1] ToUpperCase.text
    /// ```
    pub fn render_text(&self) -> String {
        // Longest-path layering.
        let n = self.tasks.len();
        let mut layer = vec![0usize; n];
        if let Ok(order) = self.topological_order() {
            for &t in &order {
                for c in &self.cables {
                    if c.from_task == t {
                        layer[c.to_task] = layer[c.to_task].max(layer[t] + 1);
                    }
                }
            }
        }
        let max_layer = layer.iter().copied().max().unwrap_or(0);
        let mut out = String::new();
        for l in 0..=max_layer {
            let members: Vec<String> = (0..n)
                .filter(|&t| layer[t] == l)
                .map(|t| format!("[{t}] {}", self.tasks[t].name))
                .collect();
            if !members.is_empty() {
                out.push_str(&format!("layer {l}: {}\n", members.join(", ")));
            }
        }
        for c in &self.cables {
            let from = &self.tasks[c.from_task];
            let to = &self.tasks[c.to_task];
            let out_port = from
                .tool
                .output_ports()
                .get(c.from_port)
                .map(|p| p.name.clone())
                .unwrap_or_else(|| c.from_port.to_string());
            let in_port = to
                .tool
                .input_ports()
                .get(c.to_port)
                .map(|p| p.name.clone())
                .unwrap_or_else(|| c.to_port.to_string());
            out.push_str(&format!(
                "  [{}] {}.{out_port} -> [{}] {}.{in_port}\n",
                c.from_task, from.name, c.to_task, to.name
            ));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod test_tools {
    use super::*;

    /// Emits a configured constant string.
    pub struct ConstText(pub String);

    impl Tool for ConstText {
        fn name(&self) -> &str {
            "ConstText"
        }

        fn input_ports(&self) -> Vec<PortSpec> {
            vec![]
        }

        fn output_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("value", "string")]
        }

        fn execute(&self, _inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            Ok(vec![Token::Text(self.0.clone())])
        }
    }

    /// Uppercases a string.
    pub struct Upper;

    impl Tool for Upper {
        fn name(&self) -> &str {
            "Upper"
        }

        fn input_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("text", "string")]
        }

        fn output_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("upper", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            match &inputs[0] {
                Token::Text(s) => Ok(vec![Token::Text(s.to_uppercase())]),
                _ => Err("expected text".into()),
            }
        }
    }

    /// Concatenates two strings.
    pub struct Concat;

    impl Tool for Concat {
        fn name(&self) -> &str {
            "Concat"
        }

        fn input_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("a", "string"), PortSpec::new("b", "string")]
        }

        fn output_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("ab", "string")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            match (&inputs[0], &inputs[1]) {
                (Token::Text(a), Token::Text(b)) => Ok(vec![Token::Text(format!("{a}{b}"))]),
                _ => Err("expected two texts".into()),
            }
        }
    }

    /// Emits an integer output (for type-mismatch tests).
    pub struct ConstInt(pub i64);

    impl Tool for ConstInt {
        fn name(&self) -> &str {
            "ConstInt"
        }

        fn input_ports(&self) -> Vec<PortSpec> {
            vec![]
        }

        fn output_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("value", "long")]
        }

        fn execute(&self, _inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            Ok(vec![Token::Int(self.0)])
        }
    }

    /// Fails the first `n` executions, then echoes its input.
    pub struct Flaky {
        pub remaining: std::sync::atomic::AtomicUsize,
    }

    impl Flaky {
        pub fn failing(n: usize) -> Flaky {
            Flaky {
                remaining: std::sync::atomic::AtomicUsize::new(n),
            }
        }
    }

    impl Tool for Flaky {
        fn name(&self) -> &str {
            "Flaky"
        }

        fn input_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("in", "any")]
        }

        fn output_ports(&self) -> Vec<PortSpec> {
            vec![PortSpec::new("out", "any")]
        }

        fn execute(&self, inputs: &[Token]) -> std::result::Result<Vec<Token>, String> {
            use std::sync::atomic::Ordering;
            let left = self.remaining.load(Ordering::SeqCst);
            if left > 0 {
                self.remaining.store(left - 1, Ordering::SeqCst);
                Err("transient failure".into())
            } else {
                Ok(vec![inputs[0].clone()])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_tools::*;
    use super::*;

    #[test]
    fn build_and_validate_pipeline() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("hello".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(src, 0, up, 0).unwrap();
        assert_eq!(g.num_tasks(), 2);
        assert_eq!(g.cables().len(), 1);
        let order = g.topological_order().unwrap();
        assert!(order.iter().position(|&t| t == src) < order.iter().position(|&t| t == up));
    }

    #[test]
    fn duplicate_names_get_suffixes() {
        let mut g = TaskGraph::new();
        g.add_task(Arc::new(Upper));
        let second = g.add_task(Arc::new(Upper));
        assert_eq!(g.task(second).unwrap().name, "Upper-2");
        assert_eq!(g.find_task("Upper"), Some(0));
        assert_eq!(g.find_task("Upper-2"), Some(1));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut g = TaskGraph::new();
        let n = g.add_task(Arc::new(ConstInt(3)));
        let up = g.add_task(Arc::new(Upper));
        assert!(matches!(
            g.connect(n, 0, up, 0),
            Err(WorkflowError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn double_connection_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Arc::new(ConstText("a".into())));
        let b = g.add_task(Arc::new(ConstText("b".into())));
        let up = g.add_task(Arc::new(Upper));
        g.connect(a, 0, up, 0).unwrap();
        assert!(matches!(
            g.connect(b, 0, up, 0),
            Err(WorkflowError::PortAlreadyConnected { .. })
        ));
    }

    #[test]
    fn cycles_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Arc::new(Upper));
        let b = g.add_task(Arc::new(Upper));
        g.connect(a, 0, b, 0).unwrap();
        assert!(matches!(g.connect(b, 0, a, 0), Err(WorkflowError::Cycle)));
        // The failed cable must have been rolled back.
        assert_eq!(g.cables().len(), 1);
    }

    #[test]
    fn bad_ids_and_ports_rejected() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Arc::new(ConstText("x".into())));
        assert!(matches!(
            g.connect(a, 0, 99, 0),
            Err(WorkflowError::UnknownTask(99))
        ));
        let up = g.add_task(Arc::new(Upper));
        assert!(matches!(
            g.connect(a, 5, up, 0),
            Err(WorkflowError::UnknownPort { input: false, .. })
        ));
        assert!(matches!(
            g.connect(a, 0, up, 5),
            Err(WorkflowError::UnknownPort { input: true, .. })
        ));
    }

    #[test]
    fn unconnected_port_queries() {
        let mut g = TaskGraph::new();
        let a = g.add_task(Arc::new(ConstText("x".into())));
        let cat = g.add_task(Arc::new(Concat));
        g.connect(a, 0, cat, 0).unwrap();
        let inputs = g.unconnected_inputs(cat).unwrap();
        assert_eq!(inputs.len(), 1);
        assert_eq!(inputs[0].1.name, "b");
        let outputs = g.unconnected_outputs(cat).unwrap();
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn render_text_layers_and_cables() {
        let mut g = TaskGraph::new();
        let src = g.add_task(Arc::new(ConstText("x".into())));
        let up = g.add_task(Arc::new(Upper));
        let cat = g.add_task(Arc::new(Concat));
        g.connect(src, 0, up, 0).unwrap();
        g.connect(up, 0, cat, 0).unwrap();
        g.connect(src, 0, cat, 1).unwrap();
        let text = g.render_text();
        assert!(text.contains("layer 0: [0] ConstText"));
        assert!(text.contains("layer 1: [1] Upper"));
        assert!(text.contains("layer 2: [2] Concat"));
        assert!(text.contains("[1] Upper.upper -> [2] Concat.a"));
    }

    #[test]
    fn any_type_is_universal() {
        let any = PortSpec::new("x", "any");
        let s = PortSpec::new("y", "string");
        assert!(any.compatible_with(&s));
        assert!(s.compatible_with(&any));
        assert!(!s.compatible_with(&PortSpec::new("z", "long")));
    }
}
