//! The J48 grower as it stood before the per-node contingency table:
//! every candidate attribute recounted its class codes through the
//! class column, allocated one count vector per branch, sorted numeric
//! candidates as `(value, class, weight)` tuples by `partial_cmp`, and
//! partitioned through `data.value` behind a boxed branch function.
//! Kept only as the oracle for the differential tests below: the
//! production grower must yield the same tree, bit for bit, on every
//! input.

use super::super::entropy;
use super::{Candidate, Node, Split, J48};
use dm_data::{Dataset, Value};
use std::ops::Deref;

/// The reference grower over a configured [`J48`] (it reads `-M`).
pub(super) struct Oracle<'a>(pub &'a J48);

impl Deref for Oracle<'_> {
    type Target = J48;

    fn deref(&self) -> &J48 {
        self.0
    }
}

impl Oracle<'_> {
    fn class_counts(data: &Dataset, items: &[(usize, f64)], ci: usize, k: usize) -> Vec<f64> {
        let mut counts = vec![0.0; k];
        // Hoist the class column view out of the item loop: one match
        // on the storage kind per call instead of per cell.
        let ccol = data.column(ci);
        for &(r, w) in items {
            if let Some(c) = ccol.index_at(r) {
                counts[c] += w;
            }
        }
        counts
    }

    /// Evaluate a nominal split. Returns `None` when not viable.
    fn eval_nominal(
        &self,
        data: &Dataset,
        items: &[(usize, f64)],
        a: usize,
        ci: usize,
        k: usize,
    ) -> Option<Candidate> {
        let arity = data.attributes()[a].num_labels();
        if arity < 2 {
            return None;
        }
        let mut branch = vec![vec![0.0f64; k]; arity];
        let mut missing_w = 0.0;
        let mut total_w = 0.0;
        // Contingency counting over hoisted column views: the per-cell
        // work is a code load plus a validity bit probe.
        let acol = data.column(a);
        let ccol = data.column(ci);
        for &(r, w) in items {
            total_w += w;
            match acol.index_at(r) {
                None => missing_w += w,
                Some(vi) => {
                    if let Some(c) = ccol.index_at(r) {
                        branch[vi][c] += w;
                    }
                    // Present attribute but missing class contributes
                    // nothing to the table (the old code added 0.0).
                }
            }
        }
        let branch_weights: Vec<f64> = branch.iter().map(|b| b.iter().sum()).collect();
        let present_w: f64 = branch_weights.iter().sum();
        if present_w <= 0.0 {
            return None;
        }
        // Viability: at least 2 branches with >= min_instances.
        let populated = branch_weights
            .iter()
            .filter(|&&w| w >= self.min_instances)
            .count();
        if populated < 2 {
            return None;
        }
        let mut present_counts = vec![0.0; k];
        for b in &branch {
            for (c, &x) in b.iter().enumerate() {
                present_counts[c] += x;
            }
        }
        let info_present = entropy(&present_counts);
        let mut info_split = 0.0;
        for (b, &bw) in branch.iter().zip(&branch_weights) {
            if bw > 0.0 {
                info_split += bw / present_w * entropy(b);
            }
        }
        let gain = present_w / total_w * (info_present - info_split);
        if gain <= 1e-12 {
            return None;
        }
        // Split info over branch weights plus the missing bucket.
        let mut si_weights = branch_weights.clone();
        if missing_w > 0.0 {
            si_weights.push(missing_w);
        }
        let split_info = entropy(&si_weights);
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
    fn eval_numeric(
        &self,
        data: &Dataset,
        items: &[(usize, f64)],
        a: usize,
        ci: usize,
        k: usize,
    ) -> Option<Candidate> {
        let mut pairs: Vec<(f64, usize, f64)> = Vec::new();
        let mut missing_w = 0.0;
        let mut total_w = 0.0;
        let acol = data.column(a);
        let ccol = data.column(ci);
        for &(r, w) in items {
            total_w += w;
            if acol.is_missing(r) {
                missing_w += w;
                continue;
            }
            let Some(c) = ccol.index_at(r) else { continue };
            pairs.push((acol.get(r), c, w));
        }
        if pairs.len() < 2 {
            return None;
        }
        pairs.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("no NaN"));
        let present_w: f64 = pairs.iter().map(|p| p.2).sum();
        let mut present_counts = vec![0.0; k];
        for &(_, c, w) in &pairs {
            present_counts[c] += w;
        }
        let info_present = entropy(&present_counts);

        let distinct = {
            let mut d = 1;
            for i in 1..pairs.len() {
                if pairs[i].0 != pairs[i - 1].0 {
                    d += 1;
                }
            }
            d
        };
        if distinct < 2 {
            return None;
        }

        let mut left = vec![0.0f64; k];
        let mut right = present_counts.clone();
        let mut best: Option<(f64, f64, f64, f64)> = None; // (gain_raw, threshold, lw, rw)
        let mut lw = 0.0;
        for i in 0..pairs.len() - 1 {
            let (v, c, w) = pairs[i];
            left[c] += w;
            right[c] -= w;
            lw += w;
            if pairs[i + 1].0 == v {
                continue;
            }
            let rw = present_w - lw;
            if lw < self.min_instances || rw < self.min_instances {
                continue;
            }
            let info_split = (lw * entropy(&left) + rw * entropy(&right)) / present_w;
            let gain_raw = info_present - info_split;
            if best.is_none_or(|(g, ..)| gain_raw > g) {
                best = Some((gain_raw, (v + pairs[i + 1].0) / 2.0, lw, rw));
            }
        }
        let (gain_raw, threshold, lw, rw) = best?;
        // C4.5 MDL correction for choosing among `distinct - 1` cuts.
        let corrected = gain_raw - ((distinct - 1) as f64).log2() / present_w;
        let gain = present_w / total_w * corrected;
        if gain <= 1e-12 {
            return None;
        }
        let mut si_weights = vec![lw, rw];
        if missing_w > 0.0 {
            si_weights.push(missing_w);
        }
        let split_info = entropy(&si_weights);
        if split_info <= 1e-12 {
            return None;
        }
        Some(Candidate {
            split: Split::Numeric { attr: a, threshold },
            gain,
            ratio: gain / split_info,
        })
    }

    pub(super) fn build(
        &self,
        data: &Dataset,
        items: &[(usize, f64)],
        ci: usize,
        k: usize,
        depth: usize,
    ) -> Node {
        let counts = Self::class_counts(data, items, ci, k);
        let total: f64 = counts.iter().sum();
        let max = counts.iter().cloned().fold(0.0, f64::max);

        // Stop: pure, too small, or too deep (defensive cap).
        if total <= 0.0 || (total - max) < 1e-9 || total < 2.0 * self.min_instances || depth > 64 {
            return Node::leaf(counts);
        }

        // Gather viable candidates.
        let mut candidates: Vec<Candidate> = Vec::new();
        for a in 0..data.num_attributes() {
            if a == ci {
                continue;
            }
            let cand = if data.attributes()[a].is_nominal() {
                self.eval_nominal(data, items, a, ci, k)
            } else if data.attributes()[a].is_numeric() {
                self.eval_numeric(data, items, a, ci, k)
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
        let chosen = match chosen {
            Some(c) => c,
            None => return Node::leaf(counts),
        };

        // Partition items into branches with fractional missing weights.
        let (attr, num_branches, branch_of): (usize, usize, Box<dyn Fn(f64) -> usize>) =
            match &chosen.split {
                Split::Nominal { attr } => {
                    let arity = data.attributes()[*attr].num_labels();
                    (*attr, arity, Box::new(Value::as_index))
                }
                Split::Numeric { attr, threshold } => {
                    let t = *threshold;
                    (*attr, 2, Box::new(move |v| usize::from(v > t)))
                }
            };

        let mut branch_items: Vec<Vec<(usize, f64)>> = vec![Vec::new(); num_branches];
        let mut branch_weights = vec![0.0f64; num_branches];
        let mut missing_items: Vec<(usize, f64)> = Vec::new();
        for &(r, w) in items {
            let v = data.value(r, attr);
            if Value::is_missing(v) {
                missing_items.push((r, w));
            } else {
                let b = branch_of(v);
                branch_items[b].push((r, w));
                branch_weights[b] += w;
            }
        }
        let present_w: f64 = branch_weights.iter().sum();
        let branch_fracs: Vec<f64> = if present_w > 0.0 {
            branch_weights.iter().map(|&w| w / present_w).collect()
        } else {
            vec![1.0 / num_branches as f64; num_branches]
        };
        // Fractional distribution of missing-valued instances.
        for &(r, w) in &missing_items {
            for (b, items_b) in branch_items.iter_mut().enumerate() {
                let frac = branch_fracs[b];
                if frac > 0.0 {
                    items_b.push((r, w * frac));
                }
            }
        }

        let children: Vec<Node> = branch_items
            .iter()
            .map(|bi| {
                if bi.is_empty() {
                    // Empty branch: leaf predicting the parent majority.
                    Node::leaf(counts.clone())
                } else {
                    self.build(data, bi, ci, k, depth + 1)
                }
            })
            .collect();

        Node {
            split: Some(chosen.split.clone()),
            children,
            branch_fracs,
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    //! Differential tests of the production grower against [`Oracle`].

    use super::super::Grower;
    use super::*;
    use crate::classifiers::{argmax, check_trainable, Classifier};
    use crate::options::Configurable;
    use crate::state::Stateful;
    use dm_data::Attribute;

    /// Counter-based generator (splitmix64) so a failing seed is the
    /// whole reproducer.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    #[derive(Clone, Copy, Debug)]
    enum Kinds {
        Nominal,
        Numeric,
        Mixed,
    }

    /// A labelled dataset whose class follows its attributes with some
    /// noise, so trees grow several levels. Numeric columns draw either
    /// from a small grid holding both zeros (ties, `-0.0` beside `0.0`)
    /// or from a continuum; nominal domains range from one label to 300
    /// (16-bit codes). Cells and classes go missing at the given rate,
    /// and some rows carry fractional or zero weights.
    fn generated(g: &mut Gen, kinds: Kinds) -> Dataset {
        const GRID: [f64; 7] = [-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 3.0];
        let n_attrs = 1 + g.below(5);
        let k = 2 + g.below(3);
        let rows = 20 + g.below(280);
        let missing = [0.0, 0.05, 0.2][g.below(3)];
        let mut attrs = Vec::new();
        let mut arities = Vec::new();
        for a in 0..n_attrs {
            let nominal = match kinds {
                Kinds::Nominal => true,
                Kinds::Numeric => false,
                Kinds::Mixed => g.below(2) == 0,
            };
            if nominal {
                let arity = [1, 2, 3, 4, 6, 300][g.below(6)];
                arities.push(Some(arity));
                let labels: Vec<String> = (0..arity).map(|l| format!("v{l}")).collect();
                attrs.push(Attribute::nominal(format!("n{a}"), labels));
            } else {
                arities.push(None);
                attrs.push(Attribute::numeric(format!("x{a}")));
            }
        }
        let classes: Vec<String> = (0..k).map(|c| format!("c{c}")).collect();
        attrs.push(Attribute::nominal("class", classes));
        let mut ds = Dataset::new("generated", attrs);
        ds.set_class_index(Some(n_attrs)).unwrap();
        let grid = g.below(2) == 0;
        for _ in 0..rows {
            let mut row = Vec::with_capacity(n_attrs + 1);
            let mut score = 0.0;
            for arity in &arities {
                let v = match arity {
                    Some(arity) => g.below(*arity) as f64,
                    None if grid => GRID[g.below(GRID.len())],
                    None => g.unit() * 10.0 - 5.0,
                };
                score += v;
                row.push(if g.unit() < missing { f64::NAN } else { v });
            }
            let class = if g.unit() < 0.1 {
                g.below(k)
            } else {
                (score.abs() as usize) % k
            };
            row.push(if g.unit() < missing / 2.0 {
                f64::NAN
            } else {
                class as f64
            });
            ds.push_row(row).unwrap();
        }
        if g.below(2) == 0 {
            for r in 0..rows {
                if g.below(3) == 0 {
                    ds.set_weight(r, [0.0, 0.25, 0.5, 1.5, 2.75][g.below(5)])
                        .unwrap();
                }
            }
        }
        ds
    }

    /// `j48` with the tree the oracle grows from its options: the same
    /// header, the reference tree, and the same pruning.
    fn oracle_model(j48: &J48, data: &Dataset) -> J48 {
        let (ci, k) = check_trainable(data).unwrap();
        let items: Vec<(usize, f64)> = (0..data.num_instances())
            .map(|r| (r, data.weight(r)))
            .collect();
        let mut root = Oracle(j48).build(data, &items, ci, k, 0);
        if !j48.unpruned {
            J48::prune(&mut root, j48.confidence);
        }
        let mut reference = j48.clone();
        reference.root = Some(root);
        reference
    }

    /// The text `describe` gave before it was written in one pass: the
    /// tree model rendered by `TreeModel::to_text`.
    fn text_via_tree_model(j48: &J48) -> String {
        let root = j48.root.as_ref().expect("trained");
        let mut out = String::from("J48 ");
        out.push_str(if j48.unpruned {
            "unpruned tree\n"
        } else {
            "pruned tree\n"
        });
        out.push_str("------------------\n\n");
        out.push_str(&j48.tree_model().expect("trained").to_text());
        out.push_str(&format!(
            "\nNumber of Leaves  : \t{}\n\nSize of the tree : \t{}\n",
            root.num_leaves(),
            root.size()
        ));
        out
    }

    /// `data` under a header whose nominal attributes (the class aside)
    /// each hold one label more, with every third row's nominal cells
    /// set to it: rows that meet an out-of-domain code at a split.
    fn widened(data: &Dataset) -> Dataset {
        let ci = data.class_index();
        let wide = |a: usize| Some(a) != ci && data.attributes()[a].is_nominal();
        let attrs = (0..data.num_attributes())
            .map(|a| {
                let attr = &data.attributes()[a];
                if wide(a) {
                    let labels = attr.labels().iter().cloned().chain(["unseen".to_string()]);
                    Attribute::nominal(attr.name(), labels)
                } else {
                    attr.clone()
                }
            })
            .collect();
        let mut out = Dataset::new(data.relation(), attrs);
        out.set_class_index(ci).unwrap();
        for r in 0..data.num_instances() {
            let mut row = data.row_values(r);
            if r % 3 == 0 {
                for (a, v) in row.iter_mut().enumerate() {
                    if wide(a) {
                        *v = data.attributes()[a].num_labels() as f64;
                    }
                }
            }
            out.push_row_weighted(row, data.weight(r)).unwrap();
        }
        out
    }

    /// Every row's prediction is `argmax` of its distribution, and a
    /// decoded copy of the model predicts the same: on the training
    /// rows (some meet a missing value on their path) and on the
    /// [`widened`] rows.
    fn assert_predictions_follow_distribution(j48: &J48, data: &Dataset, what: &str) {
        let mut copy = J48::new();
        copy.decode_state(&j48.encode_state()).unwrap();
        let wide = widened(data);
        for (rows, which) in [(data, "training"), (&wide, "widened")] {
            for r in 0..rows.num_instances() {
                let expected = argmax(&j48.distribution(rows, r).unwrap());
                assert_eq!(
                    j48.predict(rows, r).ok(),
                    expected,
                    "{what}, {which} row {r}: prediction"
                );
                assert_eq!(
                    copy.predict(rows, r).ok(),
                    expected,
                    "{what}, {which} row {r}: decoded copy's prediction"
                );
            }
        }
    }

    const OPTIONS: [&[(&str, &str)]; 5] = [
        &[],
        &[("-M", "1")],
        &[("-M", "5"), ("-C", "0.1")],
        &[("-U", "true")],
        &[("-C", "0.5"), ("-M", "3")],
    ];

    /// Train at every setting of [`OPTIONS`] and compare with the
    /// oracle: encoded state, text, tree model and every prediction.
    /// Returns about how many internal nodes grew.
    fn assert_matches_oracle(data: &Dataset, what: &str) -> usize {
        let mut internal = 0;
        for options in OPTIONS {
            let mut j48 = J48::new();
            for (flag, value) in options {
                j48.set_option(flag, value).unwrap();
            }
            j48.train(data).unwrap();
            let what = format!("{what}, options {options:?}");
            let reference = oracle_model(&j48, data);
            assert!(
                j48.encode_state() == reference.encode_state(),
                "{what}: tree differs from the reference"
            );
            assert_eq!(
                j48.describe(),
                text_via_tree_model(&reference),
                "{what}: text"
            );
            assert_eq!(
                j48.tree_model(),
                reference.tree_model(),
                "{what}: tree model"
            );
            assert_predictions_follow_distribution(&j48, data, &what);
            internal += j48.tree_size().unwrap() / 2;
        }
        internal
    }

    #[test]
    fn grower_matches_reference_on_generated_datasets() {
        let mut internal = 0;
        for seed in 0..60u64 {
            let kinds = [Kinds::Nominal, Kinds::Numeric, Kinds::Mixed][seed as usize % 3];
            let mut g = Gen(seed);
            let data = generated(&mut g, kinds);
            internal += assert_matches_oracle(&data, &format!("seed {seed} ({kinds:?})"));
        }
        // The battery must exercise splits, not only root leaves.
        assert!(internal > 300, "only {internal} internal nodes grown");
    }

    /// A candidate as bits: attribute, threshold, gain and ratio.
    fn bits(c: Candidate) -> (usize, u64, u64, u64) {
        let (attr, threshold) = match c.split {
            Split::Nominal { attr } => (attr, 0),
            Split::Numeric { attr, threshold } => (attr, threshold.to_bits()),
        };
        (attr, threshold, c.gain.to_bits(), c.ratio.to_bits())
    }

    #[test]
    fn candidates_match_reference_bit_for_bit() {
        // A last-bit difference in a gain rarely changes the tree, so
        // compare the class counts and every candidate directly. Items
        // come in shuffled order with weights that no binary fraction
        // holds exactly, so every cell's sum depends on its order.
        let mut evaluated = 0;
        for seed in 0..30u64 {
            let mut g = Gen(1_000 + seed);
            let kinds = [Kinds::Nominal, Kinds::Numeric, Kinds::Mixed][seed as usize % 3];
            let data = generated(&mut g, kinds);
            let (ci, k) = check_trainable(&data).unwrap();
            let mut j48 = J48::new();
            j48.set_option("-M", "1").unwrap();
            let oracle = Oracle(&j48);
            let mut grower = Grower::new(&j48, &data, ci, k);
            for _ in 0..4 {
                let mut items = Vec::new();
                for r in 0..data.num_instances() {
                    if g.below(4) > 0 {
                        items.push((r, 0.1 + 2.0 * g.unit()));
                    }
                }
                for i in (1..items.len()).rev() {
                    items.swap(i, g.below(i + 1));
                }
                grower.arena.clear();
                grower.push_items(items.iter().copied());
                let end = grower.arena.len();
                let counts = grower.class_counts(0, end);
                let expected = Oracle::class_counts(&data, &items, ci, k);
                assert_eq!(
                    counts.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                    "seed {seed}: class counts"
                );
                let mut total_w = 0.0;
                for &(_, w) in &items {
                    total_w += w;
                }
                for a in (0..data.num_attributes()).filter(|&a| a != ci) {
                    let (ours, theirs) = if data.attributes()[a].is_nominal() {
                        (
                            grower.eval_nominal(0, end, a, total_w),
                            oracle.eval_nominal(&data, &items, a, ci, k),
                        )
                    } else {
                        (
                            grower.eval_numeric(0, end, a, total_w),
                            oracle.eval_numeric(&data, &items, a, ci, k),
                        )
                    };
                    evaluated += usize::from(theirs.is_some());
                    assert_eq!(
                        ours.map(bits),
                        theirs.map(bits),
                        "seed {seed} ({kinds:?}), attribute {a}"
                    );
                }
            }
        }
        assert!(evaluated > 150, "only {evaluated} viable candidates");
    }

    #[test]
    fn grower_matches_reference_on_the_corpus() {
        let mut breast_cancer = dm_data::corpus::breast_cancer();
        assert_matches_oracle(&breast_cancer, "breast-cancer");
        for r in (0..breast_cancer.num_instances()).step_by(7) {
            breast_cancer.set_weight(r, 0.375).unwrap();
        }
        assert_matches_oracle(&breast_cancer, "reweighted breast-cancer");
        for data in [
            dm_data::corpus::weather_nominal(),
            dm_data::corpus::weather_numeric(),
            dm_data::corpus::nominal_classification(400, 6, 3, 2, 0.1, 11),
        ] {
            assert_matches_oracle(&data, data.relation());
        }
    }

    #[test]
    fn grower_matches_reference_on_irregular_datasets() {
        let (mut trained, mut internal) = (0, 0);
        for seed in 0..2_000u64 {
            let data = dm_data::corpus::irregular(seed);
            if check_trainable(&data).is_err() {
                continue;
            }
            internal += assert_matches_oracle(&data, &format!("irregular({seed})"));
            trained += 1;
        }
        assert!(trained > 800, "only {trained} trainable datasets");
        assert!(internal > 20_000, "only {internal} internal nodes grown");
    }

    #[test]
    fn weightless_blocks_keep_their_first_threshold_on_irregular_62_and_206() {
        // At one node of each tree the best cut lies inside a same-class
        // run, and the run's end is reached from it only through
        // zero-weight items: the end has the same gain, and the oracle
        // keeps the earlier cut's threshold.
        for seed in [62, 206] {
            assert_matches_oracle(
                &dm_data::corpus::irregular(seed),
                &format!("irregular({seed})"),
            );
        }
    }

    /// A numeric-only dataset aimed at the boundary-cut rule: few
    /// distinct values (ties, with `-0.0` beside `0.0`), classes that
    /// follow the first attribute in long runs, many zero weights, some
    /// fractional ones, and missing cells.
    fn weightless_ties(g: &mut Gen) -> Dataset {
        let n_attrs = 1 + g.below(3);
        let k = 2 + g.below(2);
        let rows = 20 + g.below(280);
        let levels = [3, 7, 12, 40][g.below(4)];
        let missing = [0.0, 0.1][g.below(2)];
        let mut attrs: Vec<Attribute> = (0..n_attrs)
            .map(|a| Attribute::numeric(format!("x{a}")))
            .collect();
        attrs.push(Attribute::nominal("class", (0..k).map(|c| format!("c{c}"))));
        let mut ds = Dataset::new("weightless-ties", attrs);
        ds.set_class_index(Some(n_attrs)).unwrap();
        for _ in 0..rows {
            let mut row: Vec<f64> = (0..n_attrs)
                .map(|_| {
                    let level = g.below(levels);
                    match level as f64 - (levels / 2) as f64 {
                        0.0 if g.below(2) == 0 => -0.0,
                        v => v / 2.0,
                    }
                })
                .collect();
            let class = if g.unit() < 0.05 {
                g.below(k)
            } else {
                ((row[0] + levels as f64 / 4.0) * 2.0 * k as f64 / levels as f64) as usize % k
            };
            for v in &mut row {
                if g.unit() < missing {
                    *v = f64::NAN;
                }
            }
            row.push(class as f64);
            let weight = [0.0, 0.0, 0.0, 0.1, 1.0 / 3.0, 2.5, 1.0, 1.0, 1.0, 1.0][g.below(10)];
            ds.push_row_weighted(row, weight).unwrap();
        }
        ds
    }

    #[test]
    fn grower_matches_reference_on_weightless_ties() {
        let mut internal = 0;
        for seed in 0..400u64 {
            let data = weightless_ties(&mut Gen(5_000 + seed));
            internal += assert_matches_oracle(&data, &format!("weightless ties, seed {seed}"));
        }
        assert!(internal > 3_000, "only {internal} internal nodes grown");
    }

    #[test]
    fn grower_matches_reference_with_negative_weights() {
        // The boundary-cut argument needs weights that are not negative;
        // a node holding one scores every cut, as the oracle does.
        for seed in 0..200u64 {
            let mut data = weightless_ties(&mut Gen(9_000 + seed));
            let mut g = Gen(seed);
            for r in 0..data.num_instances() {
                if g.below(12) == 0 {
                    data.set_weight(r, -0.25).unwrap();
                }
            }
            assert_matches_oracle(&data, &format!("negative weights, seed {seed}"));
        }
    }

    #[test]
    fn a_weight_too_small_to_move_the_sums_does_not_hide_a_tie() {
        // The cut at 1.5 lies inside a run of class c. Adding 1e-30 to
        // weights of 1 changes no sum, so the run's end at 2.5 scores
        // the same gain, bit for bit; the oracle keeps the first.
        let mut ds = Dataset::new(
            "tiny-weight",
            vec![
                Attribute::numeric("x"),
                Attribute::nominal("class", ["c", "d"]),
            ],
        );
        ds.set_class_index(Some(1)).unwrap();
        for (x, class, w, times) in [
            (0.0, 1, 1.0, 3),
            (1.0, 0, 1.0, 3),
            (2.0, 0, 1e-30, 1),
            (3.0, 1, 1.0, 4),
        ] {
            for _ in 0..times {
                ds.push_row_weighted(vec![x, f64::from(class)], w).unwrap();
            }
        }
        let mut j48 = J48::new();
        j48.train(&ds).unwrap();
        assert_eq!(
            j48.root.as_ref().unwrap().split,
            Some(Split::Numeric {
                attr: 0,
                threshold: 1.5
            })
        );
        assert_matches_oracle(&ds, "tiny weight");
    }

    #[test]
    fn a_leaf_predicts_its_normalised_distribution_not_its_raw_counts() {
        // Class weights at a leaf whose distribution's argmax is the
        // first class while the raw counts' is not. In the first two
        // weights an ulp apart divide to the same share; in the second
        // the shares sum to an ulp short of 1, and dividing by that sum
        // ties the first share with the largest. The constant attribute
        // offers no split, so the root is that leaf.
        let a = 1.941_367_157_034_823_9_f64;
        let ulp_apart = vec![a, f64::from_bits(a.to_bits() + 1), 1.846_932_332_327_874_3];
        let b = 0.422_718_106_572_636_53_f64;
        let short_sum = vec![0.422_718_106_572_636_5, 0.422_718_106_572_636_3, b, b];
        for (what, weights) in [("ulp tie", ulp_apart), ("short sum", short_sum)] {
            let classes = (0..weights.len()).map(|c| format!("c{c}"));
            let mut ds = Dataset::new(
                what,
                vec![
                    Attribute::numeric("x"),
                    Attribute::nominal("class", classes),
                ],
            );
            ds.set_class_index(Some(1)).unwrap();
            for (c, &w) in weights.iter().enumerate() {
                ds.push_row_weighted(vec![1.0, c as f64], w).unwrap();
            }
            let mut j48 = J48::new();
            j48.train(&ds).unwrap();
            assert_eq!(j48.tree_size(), Some(1), "{what}");
            assert_ne!(
                argmax(&j48.root.as_ref().unwrap().counts),
                Some(0),
                "{what}"
            );
            assert_eq!(
                argmax(&j48.distribution(&ds, 0).unwrap()),
                Some(0),
                "{what}"
            );
            assert_eq!(j48.predict(&ds, 0).unwrap(), 0, "{what}");
            assert_matches_oracle(&ds, what);
        }
    }
}
