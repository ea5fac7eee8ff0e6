//! Text operators: the building blocks of the Fig. 2 classification
//! pipeline (`Trim andThen LowerCase andThen Tokenizer andThen
//! NGramsFeaturizer andThen TermFrequency andThen CommonSparseFeatures`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use keystone_core::context::ExecContext;
use keystone_core::operator::{Estimator, Transformer};
use keystone_dataflow::collection::DistCollection;
use keystone_linalg::sparse::SparseVector;

/// Trims surrounding whitespace.
#[derive(Clone, Copy, Default)]
pub struct Trim;

impl Transformer<String, String> for Trim {
    fn apply(&self, s: &String) -> String {
        s.trim().to_string()
    }
    fn name(&self) -> String {
        "Trim".into()
    }
}

/// Lowercases the text.
#[derive(Clone, Copy, Default)]
pub struct LowerCase;

impl Transformer<String, String> for LowerCase {
    fn apply(&self, s: &String) -> String {
        if s.is_ascii() {
            s.to_ascii_lowercase()
        } else {
            s.to_lowercase()
        }
    }
    fn name(&self) -> String {
        "LowerCase".into()
    }
}

/// Splits on non-alphanumeric characters, dropping empties.
#[derive(Clone, Copy, Default)]
pub struct Tokenizer;

impl Transformer<String, Vec<String>> for Tokenizer {
    fn apply(&self, s: &String) -> Vec<String> {
        if !s.is_ascii() {
            return s
                .split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(|t| t.to_string())
                .collect();
        }
        // On ASCII text every byte is a char, and `is_ascii_alphanumeric`
        // agrees with `char::is_alphanumeric`.
        let mut out = Vec::new();
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            if !b.is_ascii_alphanumeric() {
                if i > start {
                    out.push(s[start..i].to_string());
                }
                start = i + 1;
            }
        }
        if s.len() > start {
            out.push(s[start..].to_string());
        }
        out
    }
    fn name(&self) -> String {
        "Tokenizer".into()
    }
}

/// Produces all n-grams for n in the configured range (inclusive), joined
/// with spaces — `NGramsFeaturizer(1 to 2)` in the paper.
#[derive(Clone)]
pub struct NGrams {
    /// Smallest n.
    pub min_n: usize,
    /// Largest n (inclusive).
    pub max_n: usize,
}

impl NGrams {
    /// N-grams for `min_n..=max_n`.
    pub fn new(min_n: usize, max_n: usize) -> Self {
        assert!(min_n >= 1 && min_n <= max_n, "invalid n-gram range");
        NGrams { min_n, max_n }
    }
}

impl Transformer<Vec<String>, Vec<String>> for NGrams {
    fn apply(&self, tokens: &Vec<String>) -> Vec<String> {
        let len = tokens.len();
        let ns = self.min_n..=self.max_n.min(len);
        let mut out = Vec::with_capacity(ns.clone().map(|n| len + 1 - n).sum());
        for n in ns {
            if n == 1 {
                out.extend(tokens.iter().cloned());
                continue;
            }
            for window in tokens.windows(n) {
                let mut gram =
                    String::with_capacity(window.iter().map(String::len).sum::<usize>() + n - 1);
                gram.push_str(&window[0]);
                for t in &window[1..] {
                    gram.push(' ');
                    gram.push_str(t);
                }
                out.push(gram);
            }
        }
        out
    }
    fn name(&self) -> String {
        "NGrams".into()
    }
}

/// Hashes terms into a fixed-dimensional sparse count vector (feature
/// hashing). `binary` mode emits presence indicators instead of counts —
/// the `TermFrequency(x => 1)` of Fig. 2.
#[derive(Clone)]
pub struct HashingTF {
    /// Output dimensionality.
    pub dim: usize,
    /// Emit 1.0 per present term instead of counts.
    pub binary: bool,
}

impl HashingTF {
    /// Count-valued hashing featurizer.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "HashingTF dimension must be positive");
        HashingTF { dim, binary: false }
    }

    /// Presence-valued hashing featurizer.
    pub fn binary(dim: usize) -> Self {
        HashingTF {
            binary: true,
            ..HashingTF::new(dim)
        }
    }

    fn hash(&self, term: &str) -> u32 {
        let mut h = Fnv1a::default();
        h.write(term.as_bytes());
        (h.finish() % self.dim as u64) as u32
    }
}

/// FNV-1a over the bytes written, and the `HashMap` hasher for terms:
/// term keys are short, and SipHash's per-key setup cost more than the
/// lookup it guards. Unkeyed, so a corpus built to collide could slow a
/// fit, the same exposure [`HashingTF`]'s term hash has always had;
/// vocabulary ids come from the sorted counts, never from hash order.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by term, hashed with [`Fnv1a`].
type TermMap<V> = HashMap<String, V, BuildHasherDefault<Fnv1a>>;

impl Transformer<Vec<String>, SparseVector> for HashingTF {
    fn apply(&self, terms: &Vec<String>) -> SparseVector {
        let mut pairs: Vec<(u32, f64)> = terms.iter().map(|t| (self.hash(t), 1.0)).collect();
        if self.binary {
            pairs.sort_unstable_by_key(|p| p.0);
            pairs.dedup_by_key(|p| p.0);
        }
        SparseVector::from_pairs(self.dim, pairs)
    }
    fn name(&self) -> String {
        "HashingTF".into()
    }
}

/// Per-document term frequency over an explicit vocabulary (the model
/// produced by [`CommonSparseFeatures`]).
#[derive(Clone)]
pub struct VocabTermFrequency {
    vocab: Vocab,
    dim: usize,
    binary: bool,
}

/// A vocabulary's terms back to back in one buffer, looked up through an
/// open-addressing table of term ids: one allocation for the text however
/// many terms there are, laid out together wherever the fit ran, so a
/// lookup never chases a term scattered among the fit's freed temporaries.
#[derive(Clone)]
struct Vocab {
    text: String,
    /// Term `i` is `text[ends[i - 1]..ends[i]]` (from 0 for the first).
    ends: Vec<usize>,
    /// Term id + 1 per slot, 0 when empty; a power of two, over half empty.
    slots: Vec<u32>,
}

impl Vocab {
    /// Ids are positions in `terms`, which holds no term twice.
    fn new(terms: &[&str]) -> Vocab {
        let mut vocab = Vocab {
            text: String::with_capacity(terms.iter().map(|t| t.len()).sum()),
            ends: Vec::with_capacity(terms.len()),
            slots: vec![0; (2 * terms.len()).next_power_of_two()],
        };
        for (id, term) in terms.iter().enumerate() {
            vocab.text.push_str(term);
            vocab.ends.push(vocab.text.len());
            let mut slot = vocab.slot(term);
            while vocab.slots[slot] != 0 {
                slot = (slot + 1) & (vocab.slots.len() - 1);
            }
            vocab.slots[slot] = id as u32 + 1;
        }
        vocab
    }

    fn slot(&self, term: &str) -> usize {
        let mut h = Fnv1a::default();
        h.write(term.as_bytes());
        h.finish() as usize & (self.slots.len() - 1)
    }

    fn term(&self, id: usize) -> &str {
        let start = if id == 0 { 0 } else { self.ends[id - 1] };
        &self.text[start..self.ends[id]]
    }

    fn get(&self, term: &str) -> Option<u32> {
        let mut slot = self.slot(term);
        loop {
            match self.slots[slot] {
                0 => return None,
                id if self.term(id as usize - 1) == term => return Some(id - 1),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }
}

impl Transformer<Vec<String>, SparseVector> for VocabTermFrequency {
    fn apply(&self, terms: &Vec<String>) -> SparseVector {
        let mut pairs: Vec<(u32, f64)> = terms
            .iter()
            .filter_map(|t| self.vocab.get(t).map(|i| (i, 1.0)))
            .collect();
        if self.binary {
            pairs.sort_unstable_by_key(|p| p.0);
            pairs.dedup_by_key(|p| p.0);
        }
        SparseVector::from_pairs(self.dim, pairs)
    }
    fn name(&self) -> String {
        "VocabTermFrequency".into()
    }
}

/// Estimator selecting the `max_features` most frequent terms in the corpus
/// and featurizing documents against that vocabulary — the paper's
/// `CommonSparseFeatures(1e5)`. The frequency count is a distributed
/// aggregation (this is the "aggregation tree which does not scale
/// linearly" noted for the Amazon pipeline in §5.5).
#[derive(Clone)]
pub struct CommonSparseFeatures {
    /// Vocabulary size cap.
    pub max_features: usize,
    /// Emit presence indicators instead of counts.
    pub binary: bool,
}

impl CommonSparseFeatures {
    /// Keeps the `max_features` most common terms.
    pub fn new(max_features: usize) -> Self {
        CommonSparseFeatures {
            max_features,
            binary: true,
        }
    }
}

impl Estimator<Vec<String>, SparseVector> for CommonSparseFeatures {
    fn fit(
        &self,
        data: &DistCollection<Vec<String>>,
        _ctx: &ExecContext,
    ) -> Box<dyn Transformer<Vec<String>, SparseVector>> {
        // Per-partition term counts merged on the driver.
        let counts = data
            .map_reduce_partitions(
                |part| {
                    let mut m: TermMap<u64> = TermMap::default();
                    for doc in part {
                        for t in doc {
                            match m.get_mut(t.as_str()) {
                                Some(c) => *c += 1,
                                None => {
                                    m.insert(t.clone(), 1);
                                }
                            }
                        }
                    }
                    m
                },
                |mut a, b| {
                    for (t, c) in b {
                        *a.entry(t).or_insert(0) += c;
                    }
                    a
                },
            )
            .unwrap_or_default();
        let mut by_freq: Vec<(String, u64)> = counts.into_iter().collect();
        // Sort by frequency descending, term ascending for determinism.
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let kept: Vec<&str> = by_freq
            .iter()
            .take(self.max_features)
            .map(|(t, _)| t.as_str())
            .collect();
        let vocab = Vocab::new(&kept);
        let dim = vocab.len();
        Box::new(VocabTermFrequency {
            vocab,
            dim,
            binary: self.binary,
        })
    }

    fn name(&self) -> String {
        "CommonSparseFeatures".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExecContext {
        ExecContext::default_cluster()
    }

    #[test]
    fn trim_and_lowercase() {
        assert_eq!(Trim.apply(&"  Hello ".to_string()), "Hello");
        assert_eq!(LowerCase.apply(&"HeLLo".to_string()), "hello");
    }

    #[test]
    fn tokenizer_splits_and_drops_empties() {
        let t = Tokenizer.apply(&"great product, would buy!".to_string());
        assert_eq!(t, vec!["great", "product", "would", "buy"]);
        assert!(Tokenizer.apply(&"...".to_string()).is_empty());
    }

    #[test]
    fn ngrams_1_to_2() {
        let toks: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        let grams = NGrams::new(1, 2).apply(&toks);
        assert_eq!(grams, vec!["a", "b", "c", "a b", "b c"]);
    }

    #[test]
    fn ngrams_short_input() {
        let toks = vec!["only".to_string()];
        assert_eq!(NGrams::new(1, 3).apply(&toks), vec!["only"]);
    }

    #[test]
    #[should_panic(expected = "invalid n-gram range")]
    fn ngrams_rejects_bad_range() {
        let _ = NGrams::new(2, 1);
    }

    #[test]
    fn vocab_finds_each_term_by_position_and_nothing_else() {
        let terms: Vec<String> = (0..1000).map(|i| format!("t{i}")).collect();
        let refs: Vec<&str> = terms.iter().map(String::as_str).collect();
        let vocab = Vocab::new(&refs);
        assert_eq!(vocab.len(), 1000);
        for (i, t) in refs.iter().enumerate() {
            assert_eq!(vocab.get(t), Some(i as u32), "{t}");
        }
        for absent in ["", "t", "t1000", "t01", "x1"] {
            assert_eq!(vocab.get(absent), None, "{absent}");
        }
        assert_eq!(Vocab::new(&[]).get("t0"), None);
        assert_eq!(Vocab::new(&["", "a"]).get(""), Some(0));
    }

    #[test]
    fn hashing_tf_counts_and_binary() {
        let terms: Vec<String> = ["x", "x", "y"].iter().map(|s| s.to_string()).collect();
        let counted = HashingTF::new(64).apply(&terms);
        assert_eq!(counted.values().iter().sum::<f64>(), 3.0);
        let binary = HashingTF::binary(64).apply(&terms);
        assert!(binary.values().iter().all(|&v| v == 1.0));
        assert!(binary.nnz() <= 2);
    }

    #[test]
    fn hashing_tf_deterministic() {
        let terms = vec!["stable".to_string()];
        let a = HashingTF::new(1000).apply(&terms);
        let b = HashingTF::new(1000).apply(&terms);
        assert_eq!(a, b);
    }

    #[test]
    fn common_sparse_features_keeps_most_frequent() {
        let docs: Vec<Vec<String>> = vec![
            vec!["apple", "banana", "apple"],
            vec!["apple", "cherry"],
            vec!["banana", "apple"],
        ]
        .into_iter()
        .map(|d| d.into_iter().map(String::from).collect())
        .collect();
        let data = DistCollection::from_vec(docs.clone(), 2);
        let model = CommonSparseFeatures::new(2).fit(&data, &ctx());
        // apple (4) and banana (2) survive; cherry is dropped.
        let fv = model.apply(&docs[1]);
        assert_eq!(fv.dim(), 2);
        assert_eq!(fv.nnz(), 1, "only apple remains from doc 1");
        let fv0 = model.apply(&docs[0]);
        assert_eq!(fv0.nnz(), 2);
    }

    #[test]
    fn common_sparse_features_binary_values() {
        let docs: Vec<Vec<String>> = vec![vec!["w".to_string(), "w".to_string(), "w".to_string()]];
        let data = DistCollection::from_vec(docs.clone(), 1);
        let model = CommonSparseFeatures::new(10).fit(&data, &ctx());
        let fv = model.apply(&docs[0]);
        assert_eq!(fv.values(), &[1.0], "binary mode collapses counts");
    }

    #[test]
    fn vocabulary_is_deterministic_across_partitionings() {
        let docs: Vec<Vec<String>> = (0..40)
            .map(|i| vec![format!("tok{}", i % 7), "common".to_string()])
            .collect();
        let d2 = DistCollection::from_vec(docs.clone(), 2);
        let d8 = DistCollection::from_vec(docs.clone(), 8);
        let m2 = CommonSparseFeatures::new(5).fit(&d2, &ctx());
        let m8 = CommonSparseFeatures::new(5).fit(&d8, &ctx());
        for doc in &docs {
            assert_eq!(m2.apply(doc), m8.apply(doc));
        }
    }

    /// The `char`-only implementations the ASCII fast paths replaced.
    mod reference {
        pub fn lowercase(s: &str) -> String {
            s.to_lowercase()
        }

        pub fn tokenize(s: &str) -> Vec<String> {
            s.split(|c: char| !c.is_alphanumeric())
                .filter(|t| !t.is_empty())
                .map(|t| t.to_string())
                .collect()
        }

        pub fn ngrams(tokens: &[String], min_n: usize, max_n: usize) -> Vec<String> {
            let mut out = Vec::new();
            for n in min_n..=max_n {
                if tokens.len() < n {
                    break;
                }
                for window in tokens.windows(n) {
                    out.push(window.join(" "));
                }
            }
            out
        }
    }

    const TEXTS: &[&str] = &[
        "İSTANBUL naïve café 東京",
        "ẞ",
        "0123456789 42x 7",
        "wow!!! ... ?!, really;;--yes",
        "  ,leading and trailing.  ",
        "MiXeD Case ASCII, with punctuation: a-b_c/d",
        "no\u{a0}break\tspace\nline",
        "",
    ];

    #[test]
    fn fast_paths_equal_the_char_implementations() {
        for &text in TEXTS {
            let s = text.to_string();
            assert_eq!(LowerCase.apply(&s), reference::lowercase(text), "{text:?}");
            let tokens = Tokenizer.apply(&s);
            assert_eq!(tokens, reference::tokenize(text), "{text:?}");
            let lowered = Tokenizer.apply(&LowerCase.apply(&s));
            for (lo, hi) in [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3), (2, 9)] {
                for toks in [&tokens, &lowered] {
                    assert_eq!(
                        NGrams::new(lo, hi).apply(toks),
                        reference::ngrams(toks, lo, hi),
                        "{text:?} n = {lo}..={hi}"
                    );
                }
            }
        }
    }

    #[test]
    fn vocabulary_ids_follow_frequency_then_term() {
        let docs: Vec<Vec<String>> = vec![
            vec!["x", "b", "a", "x"],
            vec!["z", "x", "c"],
            vec!["a", "b", "z", "y"],
        ]
        .into_iter()
        .map(|d| d.into_iter().map(String::from).collect())
        .collect();
        // x: 3; a, b, z: 2; c, y: 1. Ties go to the smaller term, and the
        // cap of five drops y.
        let expected = [("x", 0), ("a", 1), ("b", 2), ("z", 3), ("c", 4)];
        for partitions in [1, 3] {
            let data = DistCollection::from_vec(docs.clone(), partitions);
            let model = CommonSparseFeatures::new(5).fit(&data, &ctx());
            for (term, id) in expected {
                let fv = model.apply(&vec![term.to_string()]);
                assert_eq!(fv.dim(), 5);
                assert_eq!(fv.indices(), &[id], "{term} on {partitions} partitions");
            }
            assert_eq!(model.apply(&vec!["y".to_string()]).nnz(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "HashingTF dimension must be positive")]
    fn hashing_tf_rejects_zero_dim() {
        let _ = HashingTF::new(0);
    }

    #[test]
    #[should_panic(expected = "HashingTF dimension must be positive")]
    fn binary_hashing_tf_rejects_zero_dim() {
        let _ = HashingTF::binary(0);
    }

    #[test]
    fn full_fig2_chain_produces_sparse_features() {
        // Trim -> LowerCase -> Tokenizer -> NGrams -> CommonSparseFeatures.
        let raw = "  Great Product  ".to_string();
        let tokens = Tokenizer.apply(&LowerCase.apply(&Trim.apply(&raw)));
        let grams = NGrams::new(1, 2).apply(&tokens);
        assert!(grams.contains(&"great product".to_string()));
        let corpus = DistCollection::from_vec(vec![grams.clone()], 1);
        let model = CommonSparseFeatures::new(100).fit(&corpus, &ctx());
        let fv = model.apply(&grams);
        assert_eq!(fv.nnz(), 3); // great, product, great product
    }
}
