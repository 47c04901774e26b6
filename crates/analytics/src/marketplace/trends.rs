//! Simple-vs-complex trend over time (paper §3.5; Fig 12).
//!
//! "On the y-axis we plot the cumulative number of clusters of tasks …
//! one line each for simple, versus complex tasks", for each of the three
//! label categories, with batches deduplicated into clusters.

use crowd_core::labels::Complexity;
use crowd_core::time::WeekIndex;

use crate::study::{ClusterInfo, Study};

/// Cumulative simple/complex cluster counts per week for one category.
#[derive(Debug, Clone, Default)]
pub struct ComplexityTrend {
    /// Category name.
    pub category: &'static str,
    /// Week of each row.
    pub weeks: Vec<WeekIndex>,
    /// Cumulative clusters whose label set is entirely simple.
    pub simple: Vec<u64>,
    /// Cumulative clusters with any complex label.
    pub complex: Vec<u64>,
}

impl ComplexityTrend {
    /// Final totals `(simple, complex)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.simple.last().copied().unwrap_or(0), self.complex.last().copied().unwrap_or(0))
    }
}

fn trend(
    study: &Study,
    category: &'static str,
    class: impl Fn(&ClusterInfo) -> Option<Complexity>,
) -> ComplexityTrend {
    let clusters: Vec<(&ClusterInfo, Complexity)> =
        study.labeled_clusters().filter_map(|c| class(c).map(|cx| (c, cx))).collect();
    let weeks = clusters.iter().map(|(c, _)| c.first_week.0);
    let (Some(w0), Some(w1)) = (weeks.clone().min(), weeks.max()) else {
        return ComplexityTrend { category, ..Default::default() };
    };
    let n = (w1 - w0 + 1) as usize;
    let mut simple_new = vec![0u64; n];
    let mut complex_new = vec![0u64; n];
    for (c, cx) in &clusters {
        let w = (c.first_week.0 - w0) as usize;
        match cx {
            Complexity::Simple => simple_new[w] += 1,
            Complexity::Complex => complex_new[w] += 1,
        }
    }
    let cumulate = |v: &[u64]| {
        let mut acc = 0;
        v.iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect::<Vec<u64>>()
    };
    ComplexityTrend {
        category,
        weeks: (0..n).map(|i| WeekIndex(w0 + i as i32)).collect(),
        simple: cumulate(&simple_new),
        complex: cumulate(&complex_new),
    }
}

/// Fig 12a: simple vs complex *goals*.
pub fn goal_trend(study: &Study) -> ComplexityTrend {
    trend(study, "goal", |c| c.goals.complexity())
}

/// Fig 12b: simple vs complex *operators*.
pub fn operator_trend(study: &Study) -> ComplexityTrend {
    trend(study, "operator", |c| c.operators.complexity())
}

/// Fig 12c: simple vs complex *data types*.
pub fn data_trend(study: &Study) -> ComplexityTrend {
    trend(study, "data type", |c| c.data_types.complexity())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study() -> &'static Study {
        crate::testutil::tiny_study()
    }

    #[test]
    fn cumulative_series_are_monotone() {
        let s = study();
        for t in [goal_trend(s), operator_trend(s), data_trend(s)] {
            assert!(!t.weeks.is_empty(), "{}", t.category);
            for w in t.simple.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for w in t.complex.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn complex_goals_outnumber_simple() {
        // Fig 12a: "620 clusters with complex goals, and just 80 with
        // simple goals" by Jan 2016 — complex dominates heavily.
        let s = study();
        let (simple, complex) = goal_trend(s).totals();
        assert!(complex > simple, "complex goals lead: {complex} vs {simple}");
    }

    #[test]
    fn complex_data_outnumbers_text() {
        // Fig 12c: ~510 non-textual vs ~240 textual clusters.
        let s = study();
        let (simple, complex) = data_trend(s).totals();
        assert!(complex > simple, "non-text data leads: {complex} vs {simple}");
    }

    #[test]
    fn operators_are_comparable() {
        // Fig 12b: "the usage of complex operators is comparable to that of
        // simple operators" (410 vs 340).
        let s = study();
        let (simple, complex) = operator_trend(s).totals();
        let ratio = complex as f64 / simple.max(1) as f64;
        assert!(
            (0.4..=2.5).contains(&ratio),
            "simple and complex operators comparable: {simple} vs {complex}"
        );
    }

    #[test]
    fn totals_cover_labeled_clusters() {
        let s = study();
        let (simple, complex) = goal_trend(s).totals();
        let labeled_with_goals = s.labeled_clusters().filter(|c| !c.goals.is_empty()).count();
        assert_eq!((simple + complex) as usize, labeled_with_goals);
    }
}
