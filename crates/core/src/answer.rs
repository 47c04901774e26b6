//! Worker answers and the exact-agreement relation the paper's
//! disagreement score is built on (§4.1 "Error: Disagreement Score").

use std::borrow::Borrow;
use std::fmt;

/// A worker's response to a task question.
///
/// The paper's metric requires only an *exact-match* equality test between
/// two answers; it deliberately rejects edit-distance/partial credit since
/// "crowdsourcing requesters require high exact agreement … so that answers
/// can be easily aggregated via conventional majority vote" (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Answer {
    /// A selection from a closed set of alternatives (radio buttons,
    /// check boxes, drop-downs). The value is the alternative's index.
    Choice(u16),
    /// A free-form textual response typed into a text box.
    Text(String),
    /// The worker abandoned or skipped the question.
    Skipped,
}

impl Answer {
    /// Exact-match agreement, as defined in §4.1: a pair of workers scores
    /// 0 if their answers are identical and 1 otherwise. Skipped answers
    /// never agree with anything, including other skips — a skip carries no
    /// signal of consensus.
    pub fn agrees_with(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Choice(a), Answer::Choice(b)) => a == b,
            (Answer::Text(a), Answer::Text(b)) => a == b,
            (Answer::Skipped, _) | (_, Answer::Skipped) => false,
            _ => false,
        }
    }

    /// True for free-form textual responses (used when pruning highly
    /// subjective tasks, §4.1).
    pub fn is_textual(&self) -> bool {
        matches!(self, Answer::Text(_))
    }

    /// Pairwise disagreement contribution: `0.0` on agreement, `1.0`
    /// otherwise (§4.1).
    pub fn disagreement(&self, other: &Answer) -> f64 {
        if self.agrees_with(other) {
            0.0
        } else {
            1.0
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Choice(i) => write!(f, "choice:{i}"),
            Answer::Text(t) => write!(f, "text:{t}"),
            Answer::Skipped => f.write_str("skipped"),
        }
    }
}

/// Average pairwise disagreement across a set of answers to the *same item*
/// (§4.1): all worker pairs are compared; identical answers contribute 0,
/// differing answers 1. Returns `None` when fewer than two answers exist —
/// disagreement is undefined without a pair.
///
/// Takes owned or borrowed answers (`&[Answer]`, `&[&Answer]`), so callers
/// that index answers by item need not clone them.
pub fn item_disagreement<A: Borrow<Answer>>(answers: &[A]) -> Option<f64> {
    let n = answers.len() as u64;
    if n < 2 {
        return None;
    }
    // O(k·n) via counting identical answers instead of O(n²) pair loops:
    // pairs agreeing = Σ_v C(count_v, 2) over distinct non-skip values;
    // skips form only disagreeing pairs.
    let mut counts: Vec<(&Answer, u64)> = Vec::new();
    for a in answers.iter().map(Borrow::borrow) {
        if matches!(a, Answer::Skipped) {
            continue;
        }
        match counts.iter_mut().find(|(v, _)| *v == a) {
            Some((_, c)) => *c += 1,
            None => counts.push((a, 1)),
        }
    }
    let total_pairs = n * (n - 1) / 2;
    let agreeing: u64 = counts.iter().map(|&(_, c)| c * (c - 1) / 2).sum();
    Some((total_pairs - agreeing) as f64 / total_pairs as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_semantics() {
        assert!(Answer::Choice(1).agrees_with(&Answer::Choice(1)));
        assert!(!Answer::Choice(1).agrees_with(&Answer::Choice(2)));
        assert!(Answer::Text("cat".into()).agrees_with(&Answer::Text("cat".into())));
        assert!(!Answer::Text("cat".into()).agrees_with(&Answer::Text("Cat".into())));
        assert!(!Answer::Choice(0).agrees_with(&Answer::Text("0".into())));
        assert!(!Answer::Skipped.agrees_with(&Answer::Skipped));
    }

    #[test]
    fn disagreement_is_indicator() {
        assert_eq!(Answer::Choice(3).disagreement(&Answer::Choice(3)), 0.0);
        assert_eq!(Answer::Choice(3).disagreement(&Answer::Choice(4)), 1.0);
    }

    #[test]
    fn item_disagreement_unanimous() {
        let answers = vec![Answer::Choice(1); 5];
        assert_eq!(item_disagreement(&answers), Some(0.0));
    }

    #[test]
    fn item_disagreement_total() {
        let answers: Vec<_> = (0..4).map(Answer::Choice).collect();
        assert_eq!(item_disagreement(&answers), Some(1.0));
    }

    #[test]
    fn item_disagreement_matches_pairwise_definition() {
        // 3 workers answer A, 2 answer B: pairs = 10, agreeing = C(3,2)+C(2,2) = 4.
        let mut answers = vec![Answer::Choice(0); 3];
        answers.extend(vec![Answer::Choice(1); 2]);
        let d = item_disagreement(&answers).unwrap();
        assert!((d - 6.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn item_disagreement_undefined_below_two() {
        assert_eq!(item_disagreement::<Answer>(&[]), None);
        assert_eq!(item_disagreement(&[Answer::Choice(1)]), None);
    }

    #[test]
    fn skips_always_disagree() {
        let answers = vec![Answer::Skipped, Answer::Skipped];
        assert_eq!(item_disagreement(&answers), Some(1.0));
        let mixed = vec![Answer::Choice(1), Answer::Skipped];
        assert_eq!(item_disagreement(&mixed), Some(1.0));
    }

    #[test]
    fn borrowed_answers_match_owned() {
        let answers = vec![
            Answer::Choice(0),
            Answer::Choice(0),
            Answer::Choice(1),
            Answer::Text("x".into()),
            Answer::Skipped,
        ];
        let refs: Vec<&Answer> = answers.iter().collect();
        assert_eq!(item_disagreement(&refs), item_disagreement(&answers));
        assert_eq!(item_disagreement(&refs[..1]), None);
        assert_eq!(item_disagreement::<&Answer>(&[]), None);
    }

    #[test]
    fn textual_flag() {
        assert!(Answer::Text("x".into()).is_textual());
        assert!(!Answer::Choice(0).is_textual());
        assert!(!Answer::Skipped.is_textual());
    }

    #[test]
    fn display() {
        assert_eq!(Answer::Choice(2).to_string(), "choice:2");
        assert_eq!(Answer::Text("ok".into()).to_string(), "text:ok");
        assert_eq!(Answer::Skipped.to_string(), "skipped");
    }
}
