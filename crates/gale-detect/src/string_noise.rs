//! String-noise detectors: missing values, misspellings, and garbage
//! strings (the paper's third built-in detector class, Section VII).

use crate::detector::{BaseDetector, Detection, DetectorClass};
use gale_graph::value::AttrValue;
use gale_graph::{AttrId, AttrKind, Graph, NodeId, NodeTypeId};
use std::collections::{BTreeMap, HashMap};

/// Flags `null` values on attributes that are populated nearly everywhere
/// else in the same `(type, attribute)` slice.
pub struct NullDetector {
    /// Fraction of the slice that must be non-null for nulls to count as
    /// errors (otherwise the attribute is genuinely optional).
    pub min_populated: f64,
}

impl Default for NullDetector {
    fn default() -> Self {
        NullDetector { min_populated: 0.9 }
    }
}

impl BaseDetector for NullDetector {
    fn name(&self) -> String {
        "null".into()
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::StringNoise
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        // (type, attr) -> (total, null node list). Ordered, so detections
        // come out in (type, attr) order on every run.
        let mut slices: BTreeMap<(NodeTypeId, AttrId), (usize, Vec<NodeId>)> = BTreeMap::new();
        for (id, node) in g.nodes() {
            for (attr, v) in node.attrs() {
                let entry = slices.entry((node.node_type, attr)).or_default();
                entry.0 += 1;
                if v.is_null() {
                    entry.1.push(id);
                }
            }
        }
        let mut out = Vec::new();
        for ((_, attr), (total, nulls)) in slices {
            if total < 5 || nulls.is_empty() {
                continue;
            }
            let populated = (total - nulls.len()) as f64 / total as f64;
            if populated >= self.min_populated {
                for node in nulls {
                    out.push(Detection {
                        node,
                        attr,
                        confidence: populated,
                        message: format!("missing value on {}", g.schema.attr_name(attr)),
                    });
                }
            }
        }
        out
    }
}

/// Detects likely misspellings: a rare value within small edit distance of a
/// frequent value in the same `(type, attribute)` dictionary. Invertible —
/// suggests the closest frequent value (the paper's case study repairs
/// "Melvaceae" to "Malvaceae" exactly this way).
pub struct MisspellingDetector {
    /// Maximum edit distance to a dictionary value.
    pub max_distance: usize,
    /// Minimum occurrences for a value to enter the dictionary.
    pub min_dict_count: usize,
}

impl Default for MisspellingDetector {
    fn default() -> Self {
        MisspellingDetector {
            max_distance: 2,
            min_dict_count: 3,
        }
    }
}

impl MisspellingDetector {
    /// The dictionary of one `(type, attribute)` slice, from its value
    /// counts.
    fn dictionary(&self, counts: &HashMap<String, usize>) -> Dictionary {
        Dictionary::new(
            counts
                .iter()
                .filter(|(_, &c)| c >= self.min_dict_count)
                .map(|(w, _)| w.as_str()),
        )
    }
}

/// A slice's frequent values, each decoded to `char`s once and bucketed by
/// length, so a search visits only the lengths within its bound of the
/// value's.
struct Dictionary {
    /// `by_len[l]` holds the words of `l` chars.
    by_len: Vec<Vec<(String, Vec<char>)>>,
}

impl Dictionary {
    fn new<'w>(words: impl Iterator<Item = &'w str>) -> Dictionary {
        let mut by_len: Vec<Vec<(String, Vec<char>)>> = Vec::new();
        for w in words {
            let chars: Vec<char> = w.chars().collect();
            if by_len.len() <= chars.len() {
                by_len.resize_with(chars.len() + 1, Vec::new);
            }
            by_len[chars.len()].push((w.to_string(), chars));
        }
        Dictionary { by_len }
    }

    fn is_empty(&self) -> bool {
        self.by_len.is_empty()
    }

    /// The nearest word other than `value` within `max_distance` edits,
    /// with its distance. Ties go to the smallest word, so the answer does
    /// not depend on the order the words came in. The bound tightens to the
    /// best distance found so far; lengths are visited nearest first.
    fn closest(&self, value: &str, max_distance: usize) -> Option<(&str, usize)> {
        let v: Vec<char> = value.chars().collect();
        let mut rows = (Vec::new(), Vec::new());
        let mut best: Option<(usize, &str)> = None;
        let mut bound = max_distance;
        // A length gap is a lower bound on the distance.
        for gap in 0..=max_distance {
            if gap > bound {
                break;
            }
            let lens = [v.len().checked_sub(gap), (gap > 0).then(|| v.len() + gap)];
            for len in lens.into_iter().flatten() {
                for (w, chars) in self.by_len.get(len).into_iter().flatten() {
                    if w == value {
                        continue;
                    }
                    let Some(d) = bounded_levenshtein(&v, chars, bound, &mut rows) else {
                        continue;
                    };
                    if best.is_some_and(|b| b <= (d, w.as_str())) {
                        continue;
                    }
                    best = Some((d, w));
                    bound = d;
                }
            }
        }
        best.map(|(d, w)| (w, d))
    }
}

/// The Levenshtein distance between `a` and `b` when it is at most `bound`,
/// `None` otherwise. Only the band `|i - j| <= bound` of the DP is filled,
/// since an alignment that leaves it costs more than `bound`, and the scan
/// stops at the first row whose minimum exceeds `bound`. `rows` is scratch.
fn bounded_levenshtein(
    a: &[char],
    b: &[char],
    bound: usize,
    rows: &mut (Vec<usize>, Vec<usize>),
) -> Option<usize> {
    let (m, n) = (a.len(), b.len());
    if m.abs_diff(n) > bound {
        return None;
    }
    // Every distance past the bound reads as `over`. Cells right of a
    // row's band are never written, so they keep it from the fill below.
    let over = bound + 1;
    let (prev, cur) = rows;
    prev.clear();
    prev.extend((0..=n).map(|j| j.min(over)));
    cur.clear();
    cur.resize(n + 1, over);
    for i in 1..=m {
        let lo = i.saturating_sub(bound);
        let hi = (i + bound).min(n);
        let mut row_min = over;
        if lo == 0 {
            cur[0] = i;
            row_min = i;
        } else {
            cur[lo - 1] = over;
        }
        for j in lo.max(1)..=hi {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            let d = sub.min(prev[j] + 1).min(cur[j - 1] + 1).min(over);
            cur[j] = d;
            row_min = row_min.min(d);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(prev, cur);
    }
    (prev[n] <= bound).then_some(prev[n])
}

impl BaseDetector for MisspellingDetector {
    fn name(&self) -> String {
        format!("misspelling(d<={})", self.max_distance)
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::StringNoise
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        let mut out = Vec::new();
        for t in 0..g.schema.node_type_count() as u32 {
            for attr in 0..g.schema.attr_count() as u32 {
                if g.schema.attr_kind(attr) == AttrKind::Numeric {
                    continue;
                }
                let counts = g.value_counts(t, attr);
                if counts.len() < 2 {
                    continue;
                }
                let dict = self.dictionary(&counts);
                if dict.is_empty() {
                    continue;
                }
                for (id, node) in g.nodes() {
                    if node.node_type != t {
                        continue;
                    }
                    let Some(v) = node.get(attr) else { continue };
                    let s = v.canonical();
                    // Only rare values can be misspellings of dictionary
                    // entries.
                    if counts.get(&s).copied().unwrap_or(0) >= self.min_dict_count {
                        continue;
                    }
                    if let Some((w, d)) = dict.closest(&s, self.max_distance) {
                        out.push(Detection {
                            node: id,
                            attr,
                            confidence: 1.0 - d as f64 / (self.max_distance + 1) as f64,
                            message: format!(
                                "'{s}' looks like a misspelling of '{w}' (distance {d})"
                            ),
                        });
                    }
                }
            }
        }
        out
    }

    fn suggest(&self, g: &Graph, node: NodeId, attr: AttrId) -> Option<AttrValue> {
        let t = g.node(node).node_type;
        let s = g.node(node).get(attr)?.canonical();
        self.dictionary(&g.value_counts(t, attr))
            .closest(&s, self.max_distance)
            .map(|(w, _)| AttrValue::Text(w.to_string()))
    }
}

/// Flags garbage strings via a character-bigram likelihood model built per
/// `(type, attribute)`: values whose average bigram log-probability falls
/// far below the population's are improbable under the attribute's
/// "language" (random disturbances, keyboard mash, wrong-field content).
pub struct GarbageStringDetector {
    /// How many population standard deviations below the mean log-likelihood
    /// a value must fall to be flagged.
    pub threshold_sigmas: f64,
}

impl Default for GarbageStringDetector {
    fn default() -> Self {
        GarbageStringDetector {
            threshold_sigmas: 3.0,
        }
    }
}

fn bigrams(s: &str) -> Vec<(char, char)> {
    let chars: Vec<char> = s.to_lowercase().chars().collect();
    chars.windows(2).map(|w| (w[0], w[1])).collect()
}

fn avg_log_prob(s: &str, model: &HashMap<(char, char), f64>, floor: f64) -> f64 {
    let bg = bigrams(s);
    if bg.is_empty() {
        return 0.0;
    }
    bg.iter()
        .map(|b| model.get(b).copied().unwrap_or(floor))
        .sum::<f64>()
        / bg.len() as f64
}

impl BaseDetector for GarbageStringDetector {
    fn name(&self) -> String {
        "garbage-string".into()
    }

    fn class(&self) -> DetectorClass {
        DetectorClass::StringNoise
    }

    fn detect(&self, g: &Graph) -> Vec<Detection> {
        let mut out = Vec::new();
        for t in 0..g.schema.node_type_count() as u32 {
            for attr in 0..g.schema.attr_count() as u32 {
                if g.schema.attr_kind(attr) != AttrKind::Text {
                    continue;
                }
                // Build the bigram model from all values in the slice.
                let mut counts: HashMap<(char, char), usize> = HashMap::new();
                let mut total = 0usize;
                let mut rows: Vec<(NodeId, String)> = Vec::new();
                for (id, node) in g.nodes() {
                    if node.node_type != t {
                        continue;
                    }
                    if let Some(AttrValue::Text(s)) = node.get(attr) {
                        for b in bigrams(s) {
                            *counts.entry(b).or_insert(0) += 1;
                            total += 1;
                        }
                        rows.push((id, s.clone()));
                    }
                }
                if rows.len() < 8 || total == 0 {
                    continue;
                }
                let model: HashMap<(char, char), f64> = counts
                    .into_iter()
                    .map(|(b, c)| (b, (c as f64 / total as f64).ln()))
                    .collect();
                let floor = (0.1 / total as f64).ln();
                let lls: Vec<f64> = rows
                    .iter()
                    .map(|(_, s)| avg_log_prob(s, &model, floor))
                    .collect();
                let mean = gale_tensor::stats::mean(&lls);
                let sd = gale_tensor::stats::std_dev(&lls).max(1e-9);
                for ((id, s), ll) in rows.iter().zip(&lls) {
                    let z = (mean - ll) / sd;
                    if z > self.threshold_sigmas {
                        out.push(Detection {
                            node: *id,
                            attr,
                            confidence: 0.7,
                            message: format!(
                                "'{s}' improbable under the attribute's character model \
                                 ({z:.1}σ below mean likelihood)"
                            ),
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn species_graph() -> Graph {
        let mut g = Graph::new();
        let orders = ["Malvales", "Fabales", "Rosales"];
        for i in 0..30 {
            g.add_node_with(
                "species",
                &[
                    ("order", AttrKind::Categorical, orders[i % 3].into()),
                    (
                        "name",
                        AttrKind::Text,
                        format!("specimen flora {}", ["alba", "rubra", "verde"][i % 3]).into(),
                    ),
                ],
            );
        }
        g
    }

    #[test]
    fn null_detector_flags_missing_values() {
        let mut g = species_graph();
        let order = g.schema.find_attr("order").unwrap();
        g.node_mut(3).set(order, AttrValue::Null);
        let d = NullDetector::default().detect(&g);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].node, 3);
        assert_eq!(d[0].attr, order);
    }

    #[test]
    fn null_detections_come_out_in_attribute_order() {
        let mut g = Graph::new();
        for i in 0..20 {
            let v = |name: &str| format!("{name}{}", i % 2);
            g.add_node_with(
                "t",
                &[
                    ("a", AttrKind::Text, v("a").into()),
                    ("b", AttrKind::Text, v("b").into()),
                    ("c", AttrKind::Text, v("c").into()),
                ],
            );
        }
        for attr in 0..3 {
            g.node_mut(7).set(attr, AttrValue::Null);
        }
        // Each call groups the slices in a fresh map.
        for _ in 0..10 {
            let attrs: Vec<AttrId> = NullDetector::default()
                .detect(&g)
                .iter()
                .map(|d| d.attr)
                .collect();
            assert_eq!(attrs, [0, 1, 2]);
        }
    }

    #[test]
    fn null_detector_tolerates_optional_attrs() {
        let mut g = Graph::new();
        for i in 0..10 {
            let v = if i < 5 {
                AttrValue::Null
            } else {
                AttrValue::Text("x".into())
            };
            g.add_node_with("t", &[("opt", AttrKind::Text, v)]);
        }
        // Half the values are null: the attribute is optional, not erroneous.
        assert!(NullDetector::default().detect(&g).is_empty());
    }

    #[test]
    fn misspelling_detected_and_repaired() {
        let mut g = species_graph();
        let order = g.schema.find_attr("order").unwrap();
        g.node_mut(0).set(order, "Melvales".into()); // Malvales misspelled
        let det = MisspellingDetector::default();
        let d = det.detect(&g);
        assert!(d.iter().any(|x| x.node == 0 && x.attr == order), "{d:?}");
        let s = det.suggest(&g, 0, order).unwrap();
        assert_eq!(s, AttrValue::Text("Malvales".into()));
    }

    #[test]
    fn equidistant_dictionary_words_resolve_to_the_smallest() {
        // "Bxle" is one edit from four dictionary words.
        let mut g = Graph::new();
        for (i, word) in ["Bale", "Bile", "Axle", "Bole"].iter().enumerate() {
            for _ in 0..3 + i {
                g.add_node_with("t", &[("w", AttrKind::Categorical, (*word).into())]);
            }
        }
        let rare = g.add_node_with("t", &[("w", AttrKind::Categorical, "Bxle".into())]);
        let attr = g.schema.find_attr("w").unwrap();
        let det = MisspellingDetector::default();
        let hits = det.detect(&g);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].node, rare);
        assert!(hits[0].message.contains("of 'Axle'"), "{}", hits[0].message);
        // Each call builds a fresh map with its own iteration order.
        for _ in 0..10 {
            assert_eq!(det.suggest(&g, rare, attr), Some("Axle".into()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bounded search gives what a full scan gives: the minimum by
        /// `(distance, word)` over the other words within the bound.
        #[test]
        fn bounded_search_matches_a_full_scan(
            words in proptest::collection::vec("[abcé]{0,8}", 0..40),
            value in "[abcé]{0,8}",
            max_distance in 0usize..4,
        ) {
            use gale_tensor::distance::levenshtein;
            let want = words
                .iter()
                .filter(|w| **w != value)
                .map(|w| (levenshtein(&value, w), w.as_str()))
                .filter(|&(d, _)| d <= max_distance)
                .min()
                .map(|(d, w)| (w, d));
            let dict = Dictionary::new(words.iter().map(String::as_str));
            prop_assert_eq!(dict.closest(&value, max_distance), want);
        }
    }

    #[test]
    fn frequent_values_never_flagged_as_misspellings() {
        let g = species_graph();
        assert!(MisspellingDetector::default().detect(&g).is_empty());
    }

    #[test]
    fn garbage_string_flagged() {
        let mut g = species_graph();
        let name = g.schema.find_attr("name").unwrap();
        g.node_mut(5).set(name, "qxzkw jvqpz xq".into());
        let d = GarbageStringDetector::default().detect(&g);
        assert!(
            d.iter().any(|x| x.node == 5 && x.attr == name),
            "garbage not flagged: {d:?}"
        );
    }

    #[test]
    fn normal_strings_survive_garbage_detector() {
        let g = species_graph();
        let d = GarbageStringDetector {
            threshold_sigmas: 3.0,
        }
        .detect(&g);
        assert!(d.is_empty(), "false positives: {d:?}");
    }

    #[test]
    fn detector_classes() {
        assert_eq!(NullDetector::default().class(), DetectorClass::StringNoise);
        assert_eq!(
            MisspellingDetector::default().class(),
            DetectorClass::StringNoise
        );
        assert_eq!(
            GarbageStringDetector::default().class(),
            DetectorClass::StringNoise
        );
    }
}
