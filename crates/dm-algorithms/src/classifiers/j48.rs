//! J48 — the C4.5 decision-tree learner (Quinlan 1993), WEKA's `J48`.
//!
//! This is the algorithm of the paper's case study: "a J48 Web Service
//! that implements a decision tree classifier based on the C4.5
//! algorithm", whose output on the breast-cancer dataset is Figure 4
//! (root split on `node-caps`). The implementation covers:
//!
//! * **Split selection** — information gain ratio, with C4.5's guard
//!   that a split's gain must reach the average gain of all viable
//!   candidate splits before its ratio is compared;
//! * **Nominal attributes** — one branch per label;
//! * **Numeric attributes** — binary `<=`/`>` splits, thresholds midway
//!   between adjacent observed values, with the MDL correction
//!   `log2(distinct − 1)/|D|` subtracted from the gain;
//! * **Missing values** — fractional instances: a training instance
//!   whose split value is missing descends every branch with weight
//!   proportional to the branch's observed weight, and prediction on a
//!   missing value averages child distributions the same way;
//! * **Pruning** — C4.5 pessimistic subtree replacement using the
//!   binomial upper confidence bound (`-C`, default 0.25); subtree
//!   raising is not implemented (documented divergence, rarely changes
//!   the root structure);
//! * **Stopping** — a split must produce at least two branches carrying
//!   `-M` (default 2) instances.

use super::{argmax, check_trainable, entropy, normalize, Classifier};
use crate::error::{AlgoError, Result};
use crate::options::{descriptor_for, Configurable, OptionDescriptor, OptionKind};
use crate::state::{StateReader, StateWriter, Stateful};
use crate::tree::TreeModel;
use dm_data::{Bitmap, CodesView, Dataset, Value};
use std::fmt::Write;

#[cfg(test)]
mod reference;

/// The split test at an internal node.
#[derive(Debug, Clone, PartialEq)]
enum Split {
    /// Multiway split on a nominal attribute (one child per label).
    Nominal {
        /// Attribute index.
        attr: usize,
    },
    /// Binary split `attr <= threshold` / `attr > threshold`.
    Numeric {
        /// Attribute index.
        attr: usize,
        /// Threshold (midpoint between adjacent training values).
        threshold: f64,
    },
}

/// One node of the learned tree.
#[derive(Debug, Clone, PartialEq)]
struct Node {
    split: Option<Split>,
    children: Vec<Node>,
    /// Fraction of (non-missing) training weight per branch; used to
    /// route instances with missing split values.
    branch_fracs: Vec<f64>,
    /// Training class counts that reached this node.
    counts: Vec<f64>,
}

impl Node {
    fn leaf(counts: Vec<f64>) -> Node {
        Node {
            split: None,
            children: Vec::new(),
            branch_fracs: Vec::new(),
            counts,
        }
    }

    fn is_leaf(&self) -> bool {
        self.split.is_none()
    }

    fn weight(&self) -> f64 {
        self.counts.iter().sum()
    }

    fn training_errors(&self) -> f64 {
        let best = argmax(&self.counts).unwrap_or(0);
        self.weight() - self.counts[best]
    }

    fn num_leaves(&self) -> usize {
        if self.is_leaf() {
            1
        } else {
            self.children.iter().map(Node::num_leaves).sum()
        }
    }

    fn size(&self) -> usize {
        1 + self.children.iter().map(Node::size).sum::<usize>()
    }
}

/// Header metadata captured at training time so the model can be
/// described and serialised independently of the training dataset.
#[derive(Debug, Clone, PartialEq, Default)]
struct Header {
    attr_names: Vec<String>,
    attr_labels: Vec<Vec<String>>,
    class_labels: Vec<String>,
    class_index: usize,
}

/// The J48 / C4.5 classifier.
#[derive(Debug, Clone)]
pub struct J48 {
    /// `-C`: pruning confidence factor.
    confidence: f64,
    /// `-M`: minimum instances per (two) branches.
    min_instances: f64,
    /// `-U`: build an unpruned tree.
    unpruned: bool,
    root: Option<Node>,
    header: Header,
}

impl Default for J48 {
    fn default() -> Self {
        J48 {
            confidence: 0.25,
            min_instances: 2.0,
            unpruned: false,
            root: None,
            header: Header::default(),
        }
    }
}

/// A candidate split with its statistics.
struct Candidate {
    split: Split,
    gain: f64,
    ratio: f64,
}

impl J48 {
    /// Create with WEKA defaults (`-C 0.25 -M 2`).
    pub fn new() -> J48 {
        J48::default()
    }

    /// An untrained J48 with this one's options (`-C`, `-M`, `-U`).
    pub fn untrained(&self) -> J48 {
        J48 {
            confidence: self.confidence,
            min_instances: self.min_instances,
            unpruned: self.unpruned,
            ..J48::default()
        }
    }

    /// The split attribute at the root, if the tree has an internal root
    /// (used by the Figure-4 reproduction test).
    pub fn root_attribute(&self) -> Option<&str> {
        match &self.root.as_ref()?.split {
            Some(Split::Nominal { attr }) | Some(Split::Numeric { attr, .. }) => {
                Some(&self.header.attr_names[*attr])
            }
            None => None,
        }
    }

    /// Number of leaves of the trained tree.
    pub fn num_leaves(&self) -> Option<usize> {
        self.root.as_ref().map(Node::num_leaves)
    }

    /// Total node count of the trained tree.
    pub fn tree_size(&self) -> Option<usize> {
        self.root.as_ref().map(Node::size)
    }

    // -- pruning -------------------------------------------------------

    fn prune(node: &mut Node, cf: f64) {
        if node.is_leaf() {
            return;
        }
        for c in &mut node.children {
            Self::prune(c, cf);
        }
        let leaf_estimate = pessimistic_errors(node.weight(), node.training_errors(), cf);
        let subtree_estimate: f64 = node
            .children
            .iter()
            .map(|c| Self::subtree_error_estimate(c, cf))
            .sum();
        if leaf_estimate <= subtree_estimate + 0.1 {
            node.split = None;
            node.children.clear();
            node.branch_fracs.clear();
        }
    }

    fn subtree_error_estimate(node: &Node, cf: f64) -> f64 {
        if node.is_leaf() {
            pessimistic_errors(node.weight(), node.training_errors(), cf)
        } else {
            node.children
                .iter()
                .map(|c| Self::subtree_error_estimate(c, cf))
                .sum()
        }
    }

    // -- prediction ----------------------------------------------------

    fn node_distribution(&self, node: &Node, data: &Dataset, row: usize, out: &mut [f64], w: f64) {
        match &node.split {
            None => leaf_distribution(&node.counts, out, w),
            Some(split) => match branch_of(split, data, row) {
                Some(b) if b < node.children.len() => {
                    self.node_distribution(&node.children[b], data, row, out, w)
                }
                _ => {
                    // Missing (or out-of-domain): fractional descent.
                    for (b, child) in node.children.iter().enumerate() {
                        let frac = node.branch_fracs[b];
                        if frac > 0.0 {
                            self.node_distribution(child, data, row, out, w * frac);
                        }
                    }
                }
            },
        }
    }

    // -- rendering -----------------------------------------------------

    fn write_edge(&self, node: &Node, b: usize, out: &mut String) {
        match node.split.as_ref().expect("internal node") {
            Split::Nominal { attr } => {
                out.push_str("= ");
                out.push_str(&self.header.attr_labels[*attr][b]);
            }
            Split::Numeric { attr: _, threshold } => {
                let op = if b == 0 { "<=" } else { ">" };
                let _ = write!(out, "{op} {threshold}");
            }
        }
    }

    fn write_leaf(&self, node: &Node, out: &mut String) {
        let best = argmax(&node.counts).unwrap_or(0);
        let total = node.weight();
        let errors = total - node.counts[best];
        match self.header.class_labels.get(best) {
            Some(label) => out.push_str(label),
            None => {
                let _ = write!(out, "#{best}");
            }
        }
        let _ = if errors > 0.005 {
            write!(out, " ({total:.1}/{errors:.1})")
        } else {
            write!(out, " ({total:.1})")
        };
    }

    fn edge_text(&self, node: &Node, b: usize) -> String {
        let mut out = String::new();
        self.write_edge(node, b, &mut out);
        out
    }

    fn leaf_text(&self, node: &Node) -> String {
        let mut out = String::new();
        self.write_leaf(node, &mut out);
        out
    }

    fn split_attr_name(&self, node: &Node) -> &str {
        match node.split.as_ref().expect("internal node") {
            Split::Nominal { attr } | Split::Numeric { attr, .. } => &self.header.attr_names[*attr],
        }
    }

    /// Write the edges below internal `node` in WEKA's indented style,
    /// the text [`TreeModel::to_text`] renders from [`J48::tree_model`].
    fn write_subtree(&self, node: &Node, depth: usize, out: &mut String) {
        let name = self.split_attr_name(node);
        for (b, child) in node.children.iter().enumerate() {
            for _ in 0..depth {
                out.push_str("|   ");
            }
            out.push_str(name);
            out.push(' ');
            self.write_edge(node, b, out);
            if child.is_leaf() {
                out.push_str(": ");
                self.write_leaf(child, out);
                out.push('\n');
            } else {
                out.push('\n');
                self.write_subtree(child, depth + 1, out);
            }
        }
    }

    fn build_tree_model(&self, node: &Node, edge: String, model: &mut TreeModel) -> usize {
        if node.is_leaf() {
            model.add_node(self.leaf_text(node), edge, true)
        } else {
            let id = model.add_node(self.split_attr_name(node).to_string(), edge, false);
            for (b, child) in node.children.iter().enumerate() {
                let cid = self.build_tree_model(child, self.edge_text(node, b), model);
                model.add_child(id, cid);
            }
            id
        }
    }

    fn encode_node(node: &Node, w: &mut StateWriter) {
        match &node.split {
            None => w.put_u64(0),
            Some(Split::Nominal { attr }) => {
                w.put_u64(1);
                w.put_usize(*attr);
            }
            Some(Split::Numeric { attr, threshold }) => {
                w.put_u64(2);
                w.put_usize(*attr);
                w.put_f64(*threshold);
            }
        }
        w.put_f64_slice(&node.counts);
        w.put_f64_slice(&node.branch_fracs);
        w.put_usize(node.children.len());
        for c in &node.children {
            Self::encode_node(c, w);
        }
    }

    /// Decode a node written by [`J48::encode_node`] for a model with
    /// `num_classes` class labels.
    fn decode_node(r: &mut StateReader<'_>, num_classes: usize, depth: usize) -> Result<Node> {
        if depth > 512 {
            return Err(AlgoError::BadState("tree nesting too deep".into()));
        }
        let split = match r.get_u64()? {
            0 => None,
            1 => Some(Split::Nominal {
                attr: r.get_usize()?,
            }),
            2 => Some(Split::Numeric {
                attr: r.get_usize()?,
                threshold: r.get_f64()?,
            }),
            tag => return Err(AlgoError::BadState(format!("bad split tag {tag}"))),
        };
        let counts = r.get_f64_vec()?;
        if counts.len() != num_classes {
            return Err(AlgoError::BadState(format!(
                "a node holds {} class counts for {num_classes} classes",
                counts.len()
            )));
        }
        let branch_fracs = r.get_f64_vec()?;
        let n = r.get_usize()?;
        if n > 1 << 20 {
            return Err(AlgoError::BadState(format!("absurd child count {n}")));
        }
        if split.is_some() && branch_fracs.len() != n {
            return Err(AlgoError::BadState(format!(
                "a split holds {} branch fractions for {n} children",
                branch_fracs.len()
            )));
        }
        let children = (0..n)
            .map(|_| Self::decode_node(r, num_classes, depth + 1))
            .collect::<Result<_>>()?;
        Ok(Node {
            split,
            children,
            branch_fracs,
            counts,
        })
    }
}

/// The branch row `row` takes at `split`: `None` when its value is
/// missing. A nominal code past the node's children is returned as is
/// (out of domain); callers treat it as missing.
fn branch_of(split: &Split, data: &Dataset, row: usize) -> Option<usize> {
    match split {
        Split::Nominal { attr } => {
            let v = data.value(row, *attr);
            (!Value::is_missing(v)).then(|| Value::as_index(v))
        }
        Split::Numeric { attr, threshold } => {
            let v = data.value(row, *attr);
            (!Value::is_missing(v)).then(|| usize::from(v > *threshold))
        }
    }
}

/// Add a leaf's class shares, at weight `w`, to `out`: uniform when
/// the leaf holds no weight.
fn leaf_distribution(counts: &[f64], out: &mut [f64], w: f64) {
    let total: f64 = counts.iter().sum();
    if total > 0.0 {
        for (c, &x) in counts.iter().enumerate() {
            out[c] += w * x / total;
        }
    } else {
        let u = w / out.len() as f64;
        for o in out.iter_mut() {
            *o += u;
        }
    }
}

/// The class `distribution` predicts for a weight-1 row that ends at a
/// leaf holding `counts`: the first largest of the leaf's shares once
/// normalised, by the arithmetic of [`leaf_distribution`] and
/// `normalize` without their vector. This is not always `argmax` of the
/// raw counts: two counts an ulp apart can divide to the same share,
/// and then the first wins.
fn leaf_class(counts: &[f64]) -> Option<usize> {
    let total: f64 = counts.iter().sum();
    if total > 0.0 {
        let share = |x: f64| x / total;
        let (mut sum, mut best, mut top) = (0.0, 0, share(counts[0]));
        for (c, &x) in counts.iter().enumerate() {
            let s = share(x);
            sum += s;
            if s > top {
                best = c;
                top = s;
            }
        }
        if sum == 1.0 {
            // Normalising divides by one: the shares are the distribution.
            return Some(best);
        }
        if sum > 0.0 {
            let (mut best, mut top) = (0, share(counts[0]) / sum);
            for (c, &x) in counts.iter().enumerate().skip(1) {
                let q = share(x) / sum;
                if q > top {
                    best = c;
                    top = q;
                }
            }
            return Some(best);
        }
    }
    // Uniform shares: the first class.
    (!counts.is_empty()).then_some(0)
}

/// Class code of an item whose class is missing.
const NO_CLASS: u32 = u32::MAX;

/// Branch code of an item whose split value is missing.
const NO_BRANCH: u32 = u32::MAX;

/// The class of a value group whose items do not all share one.
const MIXED: u32 = u32::MAX;

/// One training item of an open node: a row, its class code
/// (`NO_CLASS` where the class is missing) and its weight, fractional
/// below a split on a value the row lacks.
#[derive(Clone, Copy)]
struct Item {
    row: u32,
    class: u32,
    w: f64,
}

/// A run of equal values in a numeric candidate's sorted items.
struct Group {
    /// One past the group's last position in the sorted items.
    end: usize,
    /// The weight left of the cut after this group.
    lw: f64,
    /// The class every item of the group has, or `MIXED`.
    class: u32,
    /// Whether every item of the group weighs zero.
    weightless: bool,
}

/// One tree growth: the training set, the item arena of the open
/// nodes, the scratch every node reuses, and the value ranks that order
/// numeric candidates.
///
/// **The item arena.** The open nodes' items live in one depth-first
/// arena: a node's items are a segment `start..end`, and a child's
/// segment is appended past its parent's and truncated away when the
/// child is done. Before its children grow, a node reorders its own
/// segment by branch (a stable counting sort, the missing-valued items
/// last), so a child's segment is one copy of its branch's run followed
/// by the parent's missing-valued items at the branch's share.
///
/// **Growth invariant: the per-cell order of additions.** A node visits
/// its items in one order: row order at the root, and at a child its
/// parent's order for the items that took its branch, followed by the
/// parent's missing-valued items in the parent's order (the arena
/// segment's order). Every floating-point accumulator receives its
/// additions in that order: a class count, a contingency cell, a branch
/// weight, the missing bucket. A numeric candidate's prefix sums follow
/// the stable sort by value, whose ties keep item order. `f64` sums
/// depend on their order, so this is what keeps the tree, its
/// thresholds and its encoded state bit-identical to recounting every
/// attribute from scratch (the `reference` oracle in the tests).
struct Grower<'a> {
    data: &'a Dataset,
    ci: usize,
    k: usize,
    min_instances: f64,
    /// Per numeric attribute, once a node has evaluated it: each
    /// present row's dense rank among the attribute's distinct values.
    ranks: Vec<Option<Vec<u32>>>,
    /// The open nodes' items, root first (see the type's docs).
    arena: Vec<Item>,
    /// Nominal attributes an open node splits on. Below such a split
    /// every present value is the branch's, so the attribute cannot
    /// populate two branches and is not evaluated.
    spent: Vec<bool>,
    /// The flat `arity × k` contingency table of a nominal candidate:
    /// row `b` holds branch `b`'s class weights.
    table: Vec<f64>,
    /// Branch weights, with room for the missing bucket.
    branch_w: Vec<f64>,
    /// Per-class present weight.
    present: Vec<f64>,
    /// A numeric scan's per-class weights left and right of the cut.
    left: Vec<f64>,
    right: Vec<f64>,
    /// A numeric candidate's `rank << 32 | item position` sort keys.
    keys: Vec<u64>,
    /// A numeric candidate's `(value, class, weight)` in sorted order.
    pairs: Vec<(f64, usize, f64)>,
    /// A numeric candidate's runs of equal values.
    groups: Vec<Group>,
    /// A partition's branch code per item, and its reordered segment.
    branches: Vec<u32>,
    sorted: Vec<Item>,
}

impl<'a> Grower<'a> {
    fn new(j48: &J48, data: &'a Dataset, ci: usize, k: usize) -> Grower<'a> {
        let max_arity = data
            .attributes()
            .iter()
            .map(|a| a.num_labels())
            .max()
            .unwrap_or(0);
        Grower {
            data,
            ci,
            k,
            min_instances: j48.min_instances,
            ranks: vec![None; data.num_attributes()],
            arena: Vec::new(),
            spent: vec![false; data.num_attributes()],
            table: vec![0.0; max_arity * k],
            branch_w: vec![0.0; max_arity + 1],
            present: vec![0.0; k],
            left: vec![0.0; k],
            right: vec![0.0; k],
            keys: Vec::new(),
            pairs: Vec::new(),
            groups: Vec::new(),
            branches: Vec::new(),
            sorted: Vec::new(),
        }
    }

    /// Grow the tree over every row of the training set.
    fn grow_root(&mut self) -> Node {
        self.arena.clear();
        self.push_items((0..self.data.num_instances()).map(|r| (r, self.data.weight(r))));
        self.grow(0, 0)
    }

    /// Append `(row, weight)` items to the arena with their class codes.
    fn push_items(&mut self, items: impl Iterator<Item = (usize, f64)>) {
        let ccol = self.data.column(self.ci);
        self.arena.extend(items.map(|(r, w)| Item {
            row: r as u32,
            class: ccol.index_at(r).map_or(NO_CLASS, |c| c as u32),
            w,
        }));
    }

    /// The class counts of the items `start..end`, in item order.
    fn class_counts(&self, start: usize, end: usize) -> Vec<f64> {
        let mut counts = vec![0.0; self.k];
        for it in &self.arena[start..end] {
            if it.class != NO_CLASS {
                counts[it.class as usize] += it.w;
            }
        }
        counts
    }

    /// Grow the node whose items are the arena's tail from `start`.
    fn grow(&mut self, start: usize, depth: usize) -> Node {
        let end = self.arena.len();
        let counts = self.class_counts(start, end);
        let total: f64 = counts.iter().sum();
        let max = counts.iter().cloned().fold(0.0, f64::max);

        // Stop: pure, too small, or too deep (defensive cap).
        if total <= 0.0 || (total - max) < 1e-9 || total < 2.0 * self.min_instances || depth > 64 {
            return Node::leaf(counts);
        }

        // Gather viable candidates; each divides by the node's total
        // weight, summed once here in item order.
        let mut total_w = 0.0;
        for it in &self.arena[start..end] {
            total_w += it.w;
        }
        let mut candidates: Vec<Candidate> = Vec::new();
        for a in 0..self.data.num_attributes() {
            if a == self.ci || self.spent[a] {
                continue;
            }
            let attr = &self.data.attributes()[a];
            let cand = if attr.is_nominal() {
                self.eval_nominal(start, end, a, total_w)
            } else if attr.is_numeric() {
                self.eval_numeric(start, end, a, total_w)
            } else {
                None
            };
            if let Some(c) = cand {
                candidates.push(c);
            }
        }
        if candidates.is_empty() {
            return Node::leaf(counts);
        }
        let avg_gain: f64 =
            candidates.iter().map(|c| c.gain).sum::<f64>() / candidates.len() as f64;
        let chosen = candidates
            .iter()
            .filter(|c| c.gain >= avg_gain - 1e-12)
            .max_by(|x, y| x.ratio.partial_cmp(&y.ratio).expect("finite ratios"));
        let split = match chosen {
            Some(c) => c.split.clone(),
            None => return Node::leaf(counts),
        };

        let (runs, branch_fracs) = self.partition(start, end, &split);
        let spent = match split {
            Split::Nominal { attr } => Some(attr),
            Split::Numeric { .. } => None,
        };
        if let Some(a) = spent {
            self.spent[a] = true;
        }
        let missing = runs[runs.len() - 1].clone();
        let mut children = Vec::with_capacity(branch_fracs.len());
        for (run, &frac) in runs.iter().zip(&branch_fracs) {
            // The child's segment: its branch's run, then the
            // missing-valued items at the branch's share.
            self.arena.extend_from_within(run.clone());
            if frac > 0.0 {
                for i in missing.clone() {
                    let it = self.arena[i];
                    self.arena.push(Item {
                        w: it.w * frac,
                        ..it
                    });
                }
            }
            children.push(if self.arena.len() == end {
                // Empty branch: leaf predicting the parent majority.
                Node::leaf(counts.clone())
            } else {
                self.grow(end, depth + 1)
            });
            self.arena.truncate(end);
        }
        if let Some(a) = spent {
            self.spent[a] = false;
        }

        Node {
            split: Some(split),
            children,
            branch_fracs,
            counts,
        }
    }

    /// Reorder the items `start..end` by the branch each takes at
    /// `split`, keeping item order within a branch and putting the
    /// missing-valued items last. Returns each branch's arena range,
    /// then the missing-valued items' range, and the branch fractions:
    /// each branch's share of the present weight, summed in item order
    /// (uniform when no weight is present).
    fn partition(
        &mut self,
        start: usize,
        end: usize,
        split: &Split,
    ) -> (Vec<std::ops::Range<usize>>, Vec<f64>) {
        let items = &self.arena[start..end];
        self.branches.clear();
        let num_branches = match split {
            Split::Nominal { attr } => {
                let (codes, valid) = self
                    .data
                    .column(*attr)
                    .nominal()
                    .expect("a nominal split was evaluated on a nominal column");
                match codes {
                    CodesView::U8(codes) => branch_codes(codes, valid, items, &mut self.branches),
                    CodesView::U16(codes) => branch_codes(codes, valid, items, &mut self.branches),
                    CodesView::U32(codes) => branch_codes(codes, valid, items, &mut self.branches),
                }
                self.data.attributes()[*attr].num_labels()
            }
            Split::Numeric { attr, threshold } => {
                let (values, valid) = self
                    .data
                    .column(*attr)
                    .numeric()
                    .expect("a numeric split was evaluated on a numeric column");
                self.branches.extend(items.iter().map(|it| {
                    let r = it.row as usize;
                    if valid.get(r) {
                        u32::from(values[r] > *threshold)
                    } else {
                        NO_BRANCH
                    }
                }));
                2
            }
        };
        let mut branch_weights = vec![0.0f64; num_branches];
        // Item counts per branch, the missing-valued items last.
        let mut sizes = vec![0usize; num_branches + 1];
        for (it, &b) in items.iter().zip(&self.branches) {
            if b == NO_BRANCH {
                sizes[num_branches] += 1;
            } else {
                branch_weights[b as usize] += it.w;
                sizes[b as usize] += 1;
            }
        }
        let present_w: f64 = branch_weights.iter().sum();
        let branch_fracs: Vec<f64> = if present_w > 0.0 {
            branch_weights.iter().map(|&w| w / present_w).collect()
        } else {
            vec![1.0 / num_branches as f64; num_branches]
        };
        let mut runs = Vec::with_capacity(num_branches + 1);
        let mut at = start;
        for &size in &sizes {
            runs.push(at..at + size);
            at += size;
        }
        // Stable counting sort of the segment by branch.
        let mut next: Vec<usize> = runs.iter().map(|run| run.start - start).collect();
        self.sorted.clear();
        self.sorted.extend_from_slice(items);
        for (it, &b) in items.iter().zip(&self.branches) {
            let slot = &mut next[if b == NO_BRANCH {
                num_branches
            } else {
                b as usize
            }];
            self.sorted[*slot] = *it;
            *slot += 1;
        }
        self.arena[start..end].copy_from_slice(&self.sorted);
        (runs, branch_fracs)
    }

    /// Evaluate a nominal split, counting it into the reused table.
    /// Returns `None` when not viable.
    fn eval_nominal(
        &mut self,
        start: usize,
        end: usize,
        a: usize,
        total_w: f64,
    ) -> Option<Candidate> {
        let k = self.k;
        let arity = self.data.attributes()[a].num_labels();
        if arity < 2 {
            return None;
        }
        let (codes, valid) = self.data.column(a).nominal()?;
        let items = &self.arena[start..end];
        let table = &mut self.table[..arity * k];
        table.fill(0.0);
        let missing_w = match codes {
            CodesView::U8(codes) => tally(codes, valid, items, k, table),
            CodesView::U16(codes) => tally(codes, valid, items, k, table),
            CodesView::U32(codes) => tally(codes, valid, items, k, table),
        };
        let table = &self.table[..arity * k];
        let branch_w = &mut self.branch_w[..arity + 1];
        for (bw, row) in branch_w.iter_mut().zip(table.chunks_exact(k)) {
            *bw = row.iter().sum();
        }
        let present_w: f64 = branch_w[..arity].iter().sum();
        if present_w <= 0.0 {
            return None;
        }
        // Viability: at least 2 branches with >= min_instances.
        let populated = branch_w[..arity]
            .iter()
            .filter(|&&w| w >= self.min_instances)
            .count();
        if populated < 2 {
            return None;
        }
        let present = &mut self.present;
        present.fill(0.0);
        for row in table.chunks_exact(k) {
            for (c, &x) in row.iter().enumerate() {
                present[c] += x;
            }
        }
        let info_present = entropy(present);
        let mut info_split = 0.0;
        for (row, &bw) in table.chunks_exact(k).zip(&branch_w[..arity]) {
            if bw > 0.0 {
                info_split += bw / present_w * entropy(row);
            }
        }
        let gain = present_w / total_w * (info_present - info_split);
        if gain <= 1e-12 {
            return None;
        }
        // Split info over branch weights plus the missing bucket.
        let mut buckets = arity;
        if missing_w > 0.0 {
            branch_w[arity] = missing_w;
            buckets += 1;
        }
        let split_info = entropy(&branch_w[..buckets]);
        if split_info <= 1e-12 {
            return None;
        }
        Some(Candidate {
            split: Split::Nominal { attr: a },
            gain,
            ratio: gain / split_info,
        })
    }

    /// Evaluate the best numeric threshold for attribute `a`.
    ///
    /// Only cuts that can win are scored (Fayyad & Irani 1992). Between
    /// two value groups that are pure in the same class, a cut lies
    /// inside a same-class run: along the run, `lw·H(left) +
    /// rw·H(right)` is concave in the class weight moved, so its
    /// minimum, the best gain, is at one of the run's ends. The scan
    /// therefore scores every cut where the class changes or a group is
    /// mixed, and the first and the last admissible cut (`lw`, `rw` ≥
    /// `-M`), which end a run that the admissible range cuts short. The
    /// argument needs weights that are finite and not negative, and a
    /// margin that rounding cannot cross ([`run_ends_suffice`]); a node
    /// without both scores every cut.
    ///
    /// The scan keeps the first of equal gains. A cut reached from the
    /// one before it only through weightless items has the same
    /// statistics, bit for bit, so it takes the threshold of the first
    /// cut of that weightless block: that cut may have been skipped.
    fn eval_numeric(
        &mut self,
        start: usize,
        end: usize,
        a: usize,
        total_w: f64,
    ) -> Option<Candidate> {
        let (values, valid) = self.data.column(a).numeric()?;
        let ranks = self.ranks[a].get_or_insert_with(|| value_ranks(values, valid));
        let items = &self.arena[start..end];
        self.keys.clear();
        let mut missing_w = 0.0;
        for (i, it) in items.iter().enumerate() {
            let r = it.row as usize;
            if !valid.get(r) {
                missing_w += it.w;
                continue;
            }
            if it.class == NO_CLASS {
                continue;
            }
            self.keys.push(u64::from(ranks[r]) << 32 | i as u64);
        }
        if self.keys.len() < 2 {
            return None;
        }
        // Ranks order values as `partial_cmp` does, and item positions
        // break ties: the order of a stable sort by value.
        self.keys.sort_unstable();
        self.pairs.clear();
        for &key in &self.keys {
            let it = items[(key & u64::from(u32::MAX)) as usize];
            self.pairs
                .push((values[it.row as usize], it.class as usize, it.w));
        }
        let pairs = &self.pairs;
        let present_w: f64 = pairs.iter().map(|p| p.2).sum();
        let present_counts = &mut self.present;
        present_counts.fill(0.0);
        let groups = &mut self.groups;
        groups.clear();
        let mut lw = 0.0;
        let (mut bounded, mut w_min) = (true, f64::INFINITY);
        let (mut class, mut weightless, mut opens) = (MIXED, true, true);
        for (i, &(v, c, w)) in pairs.iter().enumerate() {
            present_counts[c] += w;
            lw += w;
            bounded &= (0.0..f64::INFINITY).contains(&w);
            if w > 0.0 {
                w_min = w_min.min(w);
            }
            if opens {
                class = c as u32;
            } else if class != c as u32 {
                class = MIXED;
            }
            weightless &= w == 0.0;
            opens = pairs.get(i + 1).is_none_or(|next| next.0 != v);
            if opens {
                groups.push(Group {
                    end: i + 1,
                    lw,
                    class,
                    weightless,
                });
                weightless = true;
            }
        }
        let info_present = entropy(present_counts);
        let distinct = groups.len();
        if distinct < 2 {
            return None;
        }
        let skip_runs = bounded && run_ends_suffice(present_counts, present_w, w_min, pairs.len());

        let left = &mut self.left;
        let right = &mut self.right;
        left.fill(0.0);
        right.copy_from_slice(present_counts);
        let min = self.min_instances;
        let admissible = |lw: f64| !(lw < min || present_w - lw < min);
        let mut best: Option<(f64, f64, f64, f64)> = None; // (gain_raw, threshold, lw, rw)
        let mut block_threshold = 0.0;
        let mut first = true;
        let mut from = 0;
        for (g, group) in groups[..distinct - 1].iter().enumerate() {
            for &(_, c, w) in &pairs[from..group.end] {
                left[c] += w;
                right[c] -= w;
            }
            from = group.end;
            let threshold = (pairs[group.end - 1].0 + pairs[group.end].0) / 2.0;
            if g == 0 || !group.weightless {
                block_threshold = threshold;
            }
            let lw = group.lw;
            if !admissible(lw) {
                continue;
            }
            let next = &groups[g + 1];
            let inside_run = skip_runs && group.class != MIXED && group.class == next.class;
            let last = g + 2 == distinct || !admissible(next.lw);
            if inside_run && !first && !last {
                continue;
            }
            first = false;
            let rw = present_w - lw;
            let info_split = (lw * entropy(left) + rw * entropy(right)) / present_w;
            let gain_raw = info_present - info_split;
            if best.is_none_or(|(g, ..)| gain_raw > g) {
                best = Some((gain_raw, block_threshold, lw, rw));
            }
        }
        let (gain_raw, threshold, lw, rw) = best?;
        // C4.5 MDL correction for choosing among `distinct - 1` cuts.
        let corrected = gain_raw - ((distinct - 1) as f64).log2() / present_w;
        let gain = present_w / total_w * corrected;
        if gain <= 1e-12 {
            return None;
        }
        let si_weights = [lw, rw, missing_w];
        let buckets = if missing_w > 0.0 { 3 } else { 2 };
        let split_info = entropy(&si_weights[..buckets]);
        if split_info <= 1e-12 {
            return None;
        }
        Some(Candidate {
            split: Split::Numeric { attr: a, threshold },
            gain,
            ratio: gain / split_info,
        })
    }
}

/// Whether scoring the ends of same-class runs finds the cut that
/// scoring every cut finds, in floating point, at a numeric candidate
/// whose `n` present items weigh `present_w`, per class `present`, the
/// lightest positive one `w_min` (every weight finite, none negative).
///
/// When at most one class has weight, every cut scores exactly the
/// same. Otherwise let `σ` be the share of `present_w` outside the
/// largest class and `ρ = w_min / present_w`. Along a run `info_split`
/// is concave with curvature at least `σ / (present_w² ln 2)`, and a
/// skipped cut lies at least `w_min` of moved weight from each of the
/// run's scored ends, or has an end's statistics bit for bit (a
/// weightless block). So its exact `info_split` exceeds the better
/// end's by at least `σρ² / (2 ln 2)`. A computed gain is within
/// `ε = 4(k + 1)·n·u·(54 + log2(1/ρ))` of the exact gain of its cut
/// (`u = 2⁻⁵³`): the running sums' error, below `2n·u·present_w` per
/// count, carried through the entropies. The rule holds wherever that
/// gap exceeds `2ε` eight times over, so rounding cannot carry a
/// skipped cut to, or past, the end it lies below. With unit weights
/// that is every node of up to about 700 items, and larger ones whose
/// classes are mixed; a weight tiny beside the others, or a large
/// nearly pure node, scores every cut.
fn run_ends_suffice(present: &[f64], present_w: f64, w_min: f64, n: usize) -> bool {
    if present.iter().filter(|&&x| x > 0.0).count() <= 1 {
        return true;
    }
    let largest = present.iter().copied().fold(0.0, f64::max);
    let sigma = (present_w - largest) / present_w;
    let rho = w_min / present_w;
    let gap = sigma * rho * rho / (2.0 * std::f64::consts::LN_2);
    let u = f64::EPSILON / 2.0;
    let eps = 4.0 * (present.len() + 1) as f64 * n as f64 * u * (54.0 - rho.log2());
    gap > 16.0 * eps
}

/// Add each item's weight to its `(code, class)` cell of the flat
/// `arity × k` table, visiting items in order, and return the summed
/// weight of the items whose code is missing. An item with a code but
/// no class adds nothing.
fn tally<C: Copy + Into<u32>>(
    codes: &[C],
    valid: &Bitmap,
    items: &[Item],
    k: usize,
    table: &mut [f64],
) -> f64 {
    let mut missing_w = 0.0;
    for it in items {
        let r = it.row as usize;
        if !valid.get(r) {
            missing_w += it.w;
        } else if it.class != NO_CLASS {
            let code: u32 = codes[r].into();
            table[code as usize * k + it.class as usize] += it.w;
        }
    }
    missing_w
}

/// Append each item's nominal code to `out`, `NO_BRANCH` where missing.
fn branch_codes<C: Copy + Into<u32>>(
    codes: &[C],
    valid: &Bitmap,
    items: &[Item],
    out: &mut Vec<u32>,
) {
    out.extend(items.iter().map(|it| {
        let r = it.row as usize;
        if valid.get(r) {
            codes[r].into()
        } else {
            NO_BRANCH
        }
    }));
}

/// Each present row's dense rank among the column's distinct values;
/// values that compare equal (`-0.0` and `0.0`) share a rank. Rows with
/// a missing value rank 0 and are never read.
fn value_ranks(values: &[f64], valid: &Bitmap) -> Vec<u32> {
    let mut order: Vec<u32> = (0..values.len() as u32)
        .filter(|&r| valid.get(r as usize))
        .collect();
    order.sort_unstable_by(|&x, &y| {
        values[x as usize]
            .partial_cmp(&values[y as usize])
            .expect("no NaN")
    });
    let mut ranks = vec![0u32; values.len()];
    let mut rank = 0u32;
    for (i, &r) in order.iter().enumerate() {
        if i > 0 && values[r as usize] != values[order[i - 1] as usize] {
            rank += 1;
        }
        ranks[r as usize] = rank;
    }
    ranks
}

/// WEKA's `Stats.addErrs`: the number of *additional* errors predicted
/// by the upper confidence bound of a binomial with `e` observed errors
/// in `n` trials at confidence factor `cf`. Returns the total
/// pessimistic error count `e + added`.
fn pessimistic_errors(n: f64, e: f64, cf: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    e + added_errors(n, e, cf)
}

fn added_errors(n: f64, e: f64, cf: f64) -> f64 {
    if cf > 0.5 {
        return 0.0;
    }
    if e < 1.0 {
        let base = n * (1.0 - cf.powf(1.0 / n));
        if e < 1e-12 {
            return base;
        }
        return base + e * (added_errors(n, 1.0, cf) - base);
    }
    if e + 0.5 >= n {
        return (n - e).max(0.0);
    }
    let z = normal_inverse(1.0 - cf);
    let f = (e + 0.5) / n;
    let r = (f + z * z / (2.0 * n) + z * (f / n - f * f / n + z * z / (4.0 * n * n)).sqrt())
        / (1.0 + z * z / n);
    r * n - e
}

/// Acklam's rational approximation to the standard normal quantile.
fn normal_inverse(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_inverse(1.0 - p)
    }
}

impl Classifier for J48 {
    fn name(&self) -> &'static str {
        "J48"
    }

    fn train(&mut self, data: &Dataset) -> Result<()> {
        let (ci, k) = check_trainable(data)?;
        // Growth keys rows and value ranks as `u32`.
        if u32::try_from(data.num_instances()).is_err() {
            return Err(AlgoError::Unsupported(format!(
                "J48 trains on at most {} rows",
                u32::MAX
            )));
        }
        self.header = Header {
            attr_names: data
                .attributes()
                .iter()
                .map(|a| a.name().to_string())
                .collect(),
            attr_labels: data
                .attributes()
                .iter()
                .map(|a| a.labels().to_vec())
                .collect(),
            class_labels: data.class_attribute()?.labels().to_vec(),
            class_index: ci,
        };
        let mut root = Grower::new(self, data, ci, k).grow_root();
        if !self.unpruned {
            Self::prune(&mut root, self.confidence);
        }
        self.root = Some(root);
        Ok(())
    }

    fn distribution(&self, data: &Dataset, row: usize) -> Result<Vec<f64>> {
        let root = self.root.as_ref().ok_or(AlgoError::NotTrained)?;
        let mut out = vec![0.0; self.header.class_labels.len()];
        self.node_distribution(root, data, row, &mut out, 1.0);
        normalize(&mut out);
        Ok(out)
    }

    /// Walk to the row's leaf and take its class from its counts,
    /// without allocating; a row that meets a missing or out-of-domain
    /// value on the way takes the fractional descent of
    /// [`Classifier::distribution`]. Either way the result is `argmax`
    /// of the distribution.
    fn predict(&self, data: &Dataset, row: usize) -> Result<usize> {
        let mut node = self.root.as_ref().ok_or(AlgoError::NotTrained)?;
        while let Some(split) = &node.split {
            match branch_of(split, data, row) {
                Some(b) if b < node.children.len() => node = &node.children[b],
                _ => return argmax(&self.distribution(data, row)?).ok_or(AlgoError::NotTrained),
            }
        }
        leaf_class(&node.counts).ok_or(AlgoError::NotTrained)
    }

    /// WEKA's text, written in one pass: the same bytes as rendering
    /// [`Classifier::tree_model`] with [`TreeModel::to_text`].
    fn describe(&self) -> String {
        let root = match &self.root {
            None => return "J48: not trained".to_string(),
            Some(r) => r,
        };
        let mut out = String::from(if self.unpruned {
            "J48 unpruned tree\n"
        } else {
            "J48 pruned tree\n"
        });
        out.push_str("------------------\n\n");
        if root.is_leaf() {
            out.push_str(": ");
            self.write_leaf(root, &mut out);
            out.push('\n');
        } else {
            self.write_subtree(root, 0, &mut out);
        }
        let _ = write!(
            out,
            "\nNumber of Leaves  : \t{}\n\nSize of the tree : \t{}\n",
            root.num_leaves(),
            root.size()
        );
        out
    }

    fn tree_model(&self) -> Option<TreeModel> {
        let root = self.root.as_ref()?;
        let mut model = TreeModel::new();
        self.build_tree_model(root, String::new(), &mut model);
        Some(model)
    }
}

impl Configurable for J48 {
    fn option_descriptors(&self) -> Vec<OptionDescriptor> {
        vec![
            OptionDescriptor {
                flag: "-C",
                name: "confidenceFactor",
                description: "confidence factor used for pessimistic pruning",
                default: "0.25".into(),
                kind: OptionKind::Real {
                    min: 1e-6,
                    max: 0.5,
                },
            },
            OptionDescriptor {
                flag: "-M",
                name: "minNumObj",
                description: "minimum number of instances per leaf",
                default: "2".into(),
                kind: OptionKind::Integer {
                    min: 1,
                    max: 1_000_000,
                },
            },
            OptionDescriptor {
                flag: "-U",
                name: "unpruned",
                description: "use an unpruned tree",
                default: "false".into(),
                kind: OptionKind::Flag,
            },
        ]
    }

    fn set_option(&mut self, flag: &str, value: &str) -> Result<()> {
        let ds = self.option_descriptors();
        descriptor_for(&ds, flag)?.validate(value)?;
        match flag {
            "-C" => self.confidence = value.parse().expect("validated"),
            "-M" => self.min_instances = value.parse::<i64>().expect("validated") as f64,
            "-U" => self.unpruned = value == "true",
            _ => unreachable!("descriptor_for rejects unknown flags"),
        }
        Ok(())
    }

    fn get_option(&self, flag: &str) -> Result<String> {
        match flag {
            "-C" => Ok(self.confidence.to_string()),
            "-M" => Ok((self.min_instances as i64).to_string()),
            "-U" => Ok(self.unpruned.to_string()),
            _ => Err(AlgoError::BadOption {
                flag: flag.into(),
                message: "unknown option".into(),
            }),
        }
    }
}

impl Stateful for J48 {
    fn encode_state(&self) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_f64(self.confidence);
        w.put_f64(self.min_instances);
        w.put_bool(self.unpruned);
        w.put_bool(self.root.is_some());
        if let Some(root) = &self.root {
            w.put_usize(self.header.attr_names.len());
            for (name, labels) in self.header.attr_names.iter().zip(&self.header.attr_labels) {
                w.put_str(name);
                w.put_usize(labels.len());
                for l in labels {
                    w.put_str(l);
                }
            }
            w.put_usize(self.header.class_labels.len());
            for l in &self.header.class_labels {
                w.put_str(l);
            }
            w.put_usize(self.header.class_index);
            Self::encode_node(root, &mut w);
        }
        w.into_bytes()
    }

    fn decode_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = StateReader::new(bytes);
        self.confidence = r.get_f64()?;
        self.min_instances = r.get_f64()?;
        self.unpruned = r.get_bool()?;
        if r.get_bool()? {
            let n = r.get_usize()?;
            if n > 1 << 20 {
                return Err(AlgoError::BadState(format!("absurd attribute count {n}")));
            }
            let mut names = Vec::with_capacity(n);
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                names.push(r.get_str()?);
                let ln = r.get_usize()?;
                if ln > 1 << 20 {
                    return Err(AlgoError::BadState(format!("absurd label count {ln}")));
                }
                labels.push((0..ln).map(|_| r.get_str()).collect::<Result<Vec<_>>>()?);
            }
            let cn = r.get_usize()?;
            if cn > 1 << 20 {
                return Err(AlgoError::BadState(format!("absurd class count {cn}")));
            }
            let class_labels = (0..cn).map(|_| r.get_str()).collect::<Result<Vec<_>>>()?;
            let class_index = r.get_usize()?;
            self.header = Header {
                attr_names: names,
                attr_labels: labels,
                class_labels,
                class_index,
            };
            self.root = Some(Self::decode_node(&mut r, cn, 0)?);
        } else {
            self.root = None;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{resubstitution_accuracy, weather_nominal, weather_numeric};
    use super::*;

    #[test]
    fn weather_root_is_outlook() {
        // The canonical C4.5 result on play-tennis.
        let ds = weather_nominal();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        assert_eq!(j.root_attribute(), Some("outlook"));
        assert_eq!(resubstitution_accuracy(&j, &ds), 1.0);
        // Known structure: 5 leaves, size 8.
        assert_eq!(j.num_leaves(), Some(5));
        assert_eq!(j.tree_size(), Some(8));
    }

    #[test]
    fn weather_text_matches_weka_shape() {
        let ds = weather_nominal();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        let text = j.describe();
        assert!(
            text.contains("outlook = overcast: yes (4.0)"),
            "got:\n{text}"
        );
        assert!(
            text.contains("|   humidity = high: no (3.0)"),
            "got:\n{text}"
        );
        assert!(text.contains("Number of Leaves  : \t5"), "got:\n{text}");
    }

    #[test]
    fn numeric_weather_trains() {
        let ds = weather_numeric();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        assert_eq!(j.root_attribute(), Some("outlook"));
        assert!(resubstitution_accuracy(&j, &ds) >= 12.0 / 14.0);
    }

    #[test]
    fn breast_cancer_root_is_node_caps() {
        // Figure 4 of the paper: "the attribute node-caps has been
        // chosen to lie at the root of the tree".
        let ds = dm_data::corpus::breast_cancer();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        assert_eq!(j.root_attribute(), Some("node-caps"));
    }

    #[test]
    fn breast_cancer_beats_prior() {
        let ds = dm_data::corpus::breast_cancer();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        let acc = resubstitution_accuracy(&j, &ds);
        assert!(acc > 201.0 / 286.0, "accuracy {acc} not above prior");
    }

    #[test]
    fn missing_values_fractional_prediction() {
        let ds = dm_data::corpus::breast_cancer();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        // Find a row with missing node-caps: prediction must still be a
        // proper distribution.
        let nc = ds.attribute_index("node-caps").unwrap();
        let row = (0..ds.num_instances())
            .find(|&r| ds.instance(r).is_missing(nc))
            .expect("corpus has missing node-caps");
        let d = j.distribution(&ds, row).unwrap();
        assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(d.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn unpruned_tree_is_at_least_as_large() {
        let ds = dm_data::corpus::breast_cancer();
        let mut pruned = J48::new();
        pruned.train(&ds).unwrap();
        let mut unpruned = J48::new();
        unpruned.set_option("-U", "true").unwrap();
        unpruned.train(&ds).unwrap();
        assert!(unpruned.tree_size().unwrap() >= pruned.tree_size().unwrap());
    }

    #[test]
    fn higher_min_instances_shrinks_tree() {
        let ds = dm_data::corpus::breast_cancer();
        let mut small = J48::new();
        small.train(&ds).unwrap();
        let mut coarse = J48::new();
        coarse.set_option("-M", "30").unwrap();
        coarse.train(&ds).unwrap();
        assert!(coarse.tree_size().unwrap() <= small.tree_size().unwrap());
    }

    #[test]
    fn state_roundtrip_preserves_tree() {
        let ds = dm_data::corpus::breast_cancer();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        let mut j2 = J48::new();
        j2.decode_state(&j.encode_state()).unwrap();
        assert_eq!(j.describe(), j2.describe());
        for r in 0..ds.num_instances() {
            assert_eq!(j.predict(&ds, r).unwrap(), j2.predict(&ds, r).unwrap());
        }
    }

    #[test]
    fn decode_refuses_a_node_that_does_not_fit_the_header() {
        let ds = dm_data::corpus::breast_cancer();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        // One class count too many: `distribution` would index past the
        // class labels.
        let mut extra_count = j.clone();
        extra_count.root.as_mut().unwrap().counts.push(1.0);
        // One branch fraction too few: a missing value's fractional
        // descent would index past them.
        let mut short_fracs = j.clone();
        short_fracs.root.as_mut().unwrap().branch_fracs.pop();
        for bad in [extra_count, short_fracs] {
            let err = J48::new().decode_state(&bad.encode_state()).unwrap_err();
            assert!(matches!(err, AlgoError::BadState(_)), "{err:?}");
        }
        J48::new().decode_state(&j.encode_state()).unwrap();
    }

    #[test]
    fn run_ends_suffice_for_unit_weights_but_not_beside_a_tiny_weight() {
        // 450 unit weights, one class nearly alone.
        assert!(run_ends_suffice(&[448.0, 1.0, 1.0], 450.0, 1.0, 450));
        // All the weight in one class: every cut scores the same.
        assert!(run_ends_suffice(&[5.0, 0.0], 5.0, 1.0, 5));
        // A weight that no sum beside weights of 1 registers.
        assert!(!run_ends_suffice(&[3.0, 7.0], 10.0, 1e-30, 11));
        // A nearly pure node of 100,000 unit weights.
        assert!(!run_ends_suffice(&[99_998.0, 2.0], 100_000.0, 1.0, 100_000));
    }

    #[test]
    fn pessimistic_error_bounds() {
        // Zero observed errors still predict some: n(1 - cf^(1/n)).
        let e0 = pessimistic_errors(10.0, 0.0, 0.25);
        assert!((e0 - 10.0 * (1.0 - 0.25f64.powf(0.1))).abs() < 1e-9);
        // More observed errors → more pessimistic errors.
        assert!(pessimistic_errors(20.0, 5.0, 0.25) > pessimistic_errors(20.0, 2.0, 0.25));
        // Lower confidence factor → larger bound.
        assert!(added_errors(20.0, 5.0, 0.1) > added_errors(20.0, 5.0, 0.4));
    }

    #[test]
    fn normal_inverse_sane() {
        assert!((normal_inverse(0.5)).abs() < 1e-9);
        assert!((normal_inverse(0.75) - 0.6744897).abs() < 1e-4);
        assert!((normal_inverse(0.975) - 1.959964).abs() < 1e-4);
        assert!((normal_inverse(0.025) + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn tree_model_and_dot() {
        let ds = weather_nominal();
        let mut j = J48::new();
        j.train(&ds).unwrap();
        let t = j.tree_model().unwrap();
        assert_eq!(t.num_leaves(), 5);
        let dot = t.to_dot("J48");
        assert!(dot.contains("outlook"));
    }

    #[test]
    fn untrained_errors() {
        let ds = weather_nominal();
        let j = J48::new();
        assert!(j.distribution(&ds, 0).is_err());
        assert!(j.tree_model().is_none());
        assert_eq!(j.root_attribute(), None);
    }

    #[test]
    fn options_validated() {
        let mut j = J48::new();
        assert!(j.set_option("-C", "0.9").is_err()); // > 0.5
        assert!(j.set_option("-M", "0").is_err());
        j.set_option("-C", "0.1").unwrap();
        assert_eq!(j.get_option("-C").unwrap(), "0.1");
    }
}
