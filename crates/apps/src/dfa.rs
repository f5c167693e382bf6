//! A real DFA for literal-string search (GNU-grep style).
//!
//! The paper's active Grep "sets up a DFA structure" and searches on the
//! switch (§5). We build the KMP failure-function automaton for the
//! literal pattern and step it byte by byte — the same table-lookup
//! inner loop grep's DFA executes, and the unit we charge switch/host
//! instruction costs for.

/// A byte-level DFA recognizing occurrences of a literal pattern.
#[derive(Debug, Clone)]
pub struct LiteralDfa {
    pattern: Vec<u8>,
    /// `next[state][class]` would be 256-wide; we keep the compact KMP
    /// form: `fail[state]` plus the pattern bytes.
    fail: Vec<usize>,
}

impl LiteralDfa {
    /// Builds the automaton for `pattern`.
    ///
    /// # Panics
    ///
    /// Panics if the pattern is empty.
    pub fn new(pattern: &[u8]) -> Self {
        assert!(!pattern.is_empty(), "empty pattern");
        let mut fail = vec![0usize; pattern.len() + 1];
        let mut k = 0;
        for i in 1..pattern.len() {
            while k > 0 && pattern[i] != pattern[k] {
                k = fail[k];
            }
            if pattern[i] == pattern[k] {
                k += 1;
            }
            fail[i + 1] = k;
        }
        LiteralDfa {
            pattern: pattern.to_vec(),
            fail,
        }
    }

    /// The pattern length (number of DFA states minus one).
    pub fn pattern_len(&self) -> usize {
        self.pattern.len()
    }

    /// Advances `state` by one input byte; returns the new state and
    /// whether a match completed on this byte.
    #[inline]
    pub fn step(&self, mut state: usize, byte: u8) -> (usize, bool) {
        while state > 0 && byte != self.pattern[state] {
            state = self.fail[state];
        }
        if byte == self.pattern[state] {
            state += 1;
        }
        if state == self.pattern.len() {
            (self.fail[state], true)
        } else {
            (state, false)
        }
    }

    /// Runs the DFA over `data` starting from `state`; returns the end
    /// state and the byte offsets (of the match's final byte) found.
    pub fn search(&self, mut state: usize, data: &[u8]) -> (usize, Vec<usize>) {
        let mut hits = Vec::new();
        for (i, &b) in data.iter().enumerate() {
            let (s, hit) = self.step(state, b);
            state = s;
            if hit {
                hits.push(i);
            }
        }
        (state, hits)
    }

    /// Counts matches in `data` (fresh start state).
    pub fn count(&self, data: &[u8]) -> usize {
        self.search(0, data).1.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_simple_occurrences() {
        let dfa = LiteralDfa::new(b"Big Red Bear");
        let text = b"a Big Red Bear and another Big Red Bear!";
        assert_eq!(dfa.count(text), 2);
    }

    #[test]
    fn matches_at_ends_and_overlaps() {
        let dfa = LiteralDfa::new(b"aa");
        // "aaaa" has 3 overlapping matches.
        assert_eq!(dfa.count(b"aaaa"), 3);
        let dfa2 = LiteralDfa::new(b"ab");
        assert_eq!(dfa2.count(b"ab"), 1);
        assert_eq!(dfa2.count(b"b"), 0);
    }

    #[test]
    fn state_carries_across_chunk_boundaries() {
        let dfa = LiteralDfa::new(b"Bear");
        let (s1, h1) = dfa.search(0, b"...Be");
        assert!(h1.is_empty());
        let (_s2, h2) = dfa.search(s1, b"ar...");
        assert_eq!(h2.len(), 1);
    }

    #[test]
    fn self_overlapping_pattern_failure_links() {
        let dfa = LiteralDfa::new(b"abab");
        assert_eq!(dfa.count(b"ababab"), 2); // positions 3 and 5
        assert_eq!(dfa.count(b"abaabab"), 1);
    }

    #[test]
    fn agrees_with_naive_search_on_random_text() {
        let mut rng = asan_sim::SimRng::from_label("dfa-test");
        let pattern = b"red";
        let dfa = LiteralDfa::new(pattern);
        for _ in 0..50 {
            let text: Vec<u8> = (0..1000).map(|_| b"redx "[rng.index(5)]).collect();
            let naive = text
                .windows(pattern.len())
                .filter(|w| *w == pattern)
                .count();
            assert_eq!(dfa.count(&text), naive);
        }
    }

    #[test]
    #[should_panic(expected = "empty pattern")]
    fn empty_pattern_rejected() {
        LiteralDfa::new(b"");
    }
}
