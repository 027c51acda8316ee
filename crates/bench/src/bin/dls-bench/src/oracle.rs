//! Answer bookkeeping. While timing, the receiver keeps one 64-bit hash per
//! request id and nothing else; afterwards every hash is compared with the
//! hash of the answer the oracle computes out of band. A request with no
//! answer, a wrong answer, or a line that answers no outstanding id is a
//! failure.

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `id` a `dls-serve` response line opens with (`{"id":N,...`).
pub fn response_id(line: &str) -> Option<i64> {
    let rest = line.strip_prefix("{\"id\":")?;
    rest[..rest.find(',')?].parse().ok()
}

/// Answers for the ids `base .. base + len`.
#[derive(Debug, Clone)]
pub struct Answers {
    base: i64,
    hashes: Vec<Option<u64>>,
    stray: usize,
}

impl Answers {
    /// No answers yet for `len` ids starting at `base`.
    pub fn new(base: i64, len: usize) -> Self {
        Self {
            base,
            hashes: vec![None; len],
            stray: 0,
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Ids answered so far.
    pub fn answered(&self) -> usize {
        self.hashes.iter().filter(|h| h.is_some()).count()
    }

    /// Record one response line. Returns its index when it is the first
    /// answer to an id in range; anything else counts as stray.
    pub fn record_line(&mut self, line: &str) -> Option<usize> {
        let idx = response_id(line)
            .and_then(|id| usize::try_from(id - self.base).ok())
            .filter(|&i| i < self.hashes.len() && self.hashes[i].is_none());
        match idx {
            Some(i) => self.hashes[i] = Some(fnv1a(line.as_bytes())),
            None => self.stray += 1,
        }
        idx
    }

    /// Record the answer hash for index `i` (in-process workloads).
    pub fn record_hash(&mut self, i: usize, hash: u64) {
        if self.hashes[i].replace(hash).is_some() {
            self.stray += 1;
        }
    }

    /// Fold in answers gathered by another thread over the same ids.
    pub fn merge(&mut self, other: Answers) {
        assert_eq!((self.base, self.len()), (other.base, other.len()));
        self.stray += other.stray;
        for (i, h) in other.hashes.into_iter().enumerate() {
            if let Some(h) = h {
                self.record_hash(i, h);
            }
        }
    }

    /// Count failures against `expected(id)`, the hash of the right answer.
    pub fn failures(&self, mut expected: impl FnMut(i64) -> u64) -> usize {
        let wrong = self
            .hashes
            .iter()
            .enumerate()
            .filter(|(i, h)| **h != Some(expected(self.base + *i as i64)))
            .count();
        wrong + self.stray
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(id: i64) -> String {
        svc::handlers::ok_response(Some(id), Some(true), "{\"m\":2}")
    }

    fn expected(id: i64) -> u64 {
        fnv1a(answer(id).as_bytes())
    }

    #[test]
    fn parses_response_ids() {
        assert_eq!(response_id(&answer(42)), Some(42));
        assert_eq!(response_id("{\"id\":-3,\"status\":\"ok\"}"), Some(-3));
        assert_eq!(response_id("{\"status\":\"ok\"}"), None);
        assert_eq!(response_id("{\"id\":x,"), None);
    }

    #[test]
    fn complete_correct_answers_have_no_failures() {
        let mut a = Answers::new(100, 5);
        for id in (100..105).rev() {
            assert!(a.record_line(&answer(id)).is_some());
        }
        assert_eq!(a.answered(), 5);
        assert_eq!(a.failures(expected), 0);
    }

    #[test]
    fn corrupted_missing_duplicate_and_stray_answers_all_fail() {
        let mut a = Answers::new(0, 10);
        for id in 0..10 {
            match id {
                3 => {} // missing
                5 => {
                    a.record_line(&answer(5).replace("\"m\":2", "\"m\":3"));
                }
                _ => {
                    a.record_line(&answer(id));
                }
            }
        }
        assert_eq!(a.failures(expected), 2, "one missing, one corrupted");
        assert!(a.record_line(&answer(7)).is_none(), "duplicate");
        assert!(a.record_line(&answer(10)).is_none(), "out of range");
        assert!(a.record_line("garbage").is_none(), "no id");
        assert_eq!(a.failures(expected), 5);
        let ratio = a.failures(expected) as f64 / a.len() as f64;
        assert!(ratio > 0.0, "fail ratio {ratio}");
    }

    #[test]
    fn merge_combines_disjoint_answers() {
        let mut a = Answers::new(0, 4);
        let mut b = Answers::new(0, 4);
        a.record_line(&answer(0));
        a.record_line(&answer(2));
        b.record_line(&answer(1));
        b.record_line(&answer(3));
        a.merge(b);
        assert_eq!(a.failures(expected), 0);
    }
}
