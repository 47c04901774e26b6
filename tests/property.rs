//! Property-based tests over the substrates' invariants.

use proptest::prelude::*;

use crowd_core::answer::{item_disagreement, Answer};
use crowd_core::time::{civil_from_days, days_from_civil, Timestamp};
use crowd_html::generator::InterfaceSpec;
use crowd_stats::binning::median_split;
use crowd_stats::bootstrap::bootstrap_ci;
use crowd_stats::cdf::EmpiricalCdf;
use crowd_stats::descriptive::{median, median_inplace};
use crowd_stats::histogram::{Histogram, HistogramKind};
use crowd_stats::mannwhitney::mann_whitney_u;
use crowd_stats::ttest::welch_t_test;

proptest! {
    #[test]
    fn civil_date_roundtrip(days in -200_000i64..200_000) {
        let (y, m, d) = civil_from_days(days);
        prop_assert_eq!(days_from_civil(y, m, d), days);
        prop_assert!((1..=12).contains(&m));
        prop_assert!((1..=31).contains(&d));
    }

    #[test]
    fn weekday_advances_daily(day in -10_000i64..10_000) {
        let a = Timestamp::from_secs(day * 86_400).weekday().index();
        let b = Timestamp::from_secs((day + 1) * 86_400).weekday().index();
        prop_assert_eq!((a + 1) % 7, b);
    }

    #[test]
    fn cdf_is_monotone_and_bounded(mut xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let cdf = EmpiricalCdf::new(&xs).unwrap();
        xs.sort_by(f64::total_cmp);
        let mut prev = 0.0;
        for &x in &xs {
            let y = cdf.eval(x);
            prop_assert!(y >= prev && y <= 1.0);
            prev = y;
        }
        prop_assert_eq!(cdf.eval(f64::MAX), 1.0);
        prop_assert_eq!(cdf.eval(f64::MIN), 0.0);
    }

    #[test]
    fn cdf_quantile_inverts(xs in prop::collection::vec(-1e3f64..1e3, 1..100), q in 0.01f64..1.0) {
        let cdf = EmpiricalCdf::new(&xs).unwrap();
        let v = cdf.quantile(q).unwrap();
        prop_assert!(cdf.eval(v) >= q - 1e-12);
    }

    #[test]
    fn histogram_conserves_mass(xs in prop::collection::vec(-10f64..110.0, 0..300)) {
        let mut h = Histogram::new(HistogramKind::Linear { lo: 0.0, hi: 100.0 }, 13);
        h.extend(&xs);
        let binned: u64 = h.counts().iter().sum();
        prop_assert_eq!(binned + h.underflow() + h.overflow(), xs.len() as u64);
    }

    #[test]
    fn disagreement_is_bounded_and_permutation_invariant(
        mut answers in prop::collection::vec(0u16..4, 2..24),
        seed in 0u64..1000,
    ) {
        let to_answers = |xs: &[u16]| xs.iter().map(|&c| Answer::Choice(c)).collect::<Vec<_>>();
        let d1 = item_disagreement(&to_answers(&answers)).unwrap();
        prop_assert!((0.0..=1.0).contains(&d1));
        // Shuffle deterministically by rotating.
        let rot = (seed as usize) % answers.len();
        answers.rotate_left(rot);
        let d2 = item_disagreement(&to_answers(&answers)).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-12, "order must not matter");
    }

    #[test]
    fn median_split_partitions_everything(
        obs in prop::collection::vec((0f64..100.0, 0f64..10.0), 1..200)
    ) {
        if let Some(split) = median_split(&obs) {
            prop_assert_eq!(split.bin1.len() + split.bin2.len(), obs.len());
            prop_assert!(!split.bin1.is_empty() && !split.bin2.is_empty());
        }
    }

    #[test]
    fn welch_t_is_antisymmetric(
        a in prop::collection::vec(-100f64..100.0, 2..50),
        b in prop::collection::vec(-100f64..100.0, 2..50),
    ) {
        let ab = welch_t_test(&a, &b);
        let ba = welch_t_test(&b, &a);
        match (ab, ba) {
            (Some(x), Some(y)) => {
                prop_assert!((x.t + y.t).abs() < 1e-9 || (x.t.is_infinite() && y.t.is_infinite()));
                prop_assert!((x.p_value - y.p_value).abs() < 1e-9);
            }
            (None, None) => {}
            _ => prop_assert!(false, "one direction failed, the other didn't"),
        }
    }

    #[test]
    fn mann_whitney_swapping_samples_mirrors_u(
        a in prop::collection::vec(0u8..20, 1..50),
        b in prop::collection::vec(0u8..20, 1..50),
    ) {
        // Integer-valued draws from a small domain force heavy ties, the
        // regime where the tie-corrected U is easiest to get wrong.
        let af: Vec<f64> = a.iter().map(|&x| f64::from(x)).collect();
        let bf: Vec<f64> = b.iter().map(|&x| f64::from(x)).collect();
        match (mann_whitney_u(&af, &bf), mann_whitney_u(&bf, &af)) {
            (Some(x), Some(y)) => {
                // The fundamental identity U_a + U_b = n_a · n_b …
                let product = (af.len() * bf.len()) as f64;
                prop_assert!((x.u + y.u - product).abs() < 1e-9, "{} + {} != {product}", x.u, y.u);
                // … and the standardized verdict is direction-antisymmetric.
                prop_assert!((x.z + y.z).abs() < 1e-9);
                prop_assert!((x.p_value - y.p_value).abs() < 1e-9);
                prop_assert_eq!(x.n, (af.len(), bf.len()));
                prop_assert_eq!(y.n, (bf.len(), af.len()));
            }
            (None, None) => {} // all values tied — degenerate both ways
            _ => prop_assert!(false, "swapping the samples changed degeneracy"),
        }
    }

    #[test]
    fn bootstrap_ci_brackets_estimate_and_widens_with_confidence(
        xs in prop::collection::vec(0u8..50, 1..100),
        seed in 0u64..1_000,
    ) {
        let xs: Vec<f64> = xs.iter().map(|&x| f64::from(x)).collect();
        let stat = |v: &[f64]| median(v).unwrap();
        let ci = bootstrap_ci(&xs, stat, 200, 0.95, seed).unwrap();
        prop_assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi, "{ci:?}");
        // Nested percentile intervals: more confidence can never narrow.
        let narrow = bootstrap_ci(&xs, stat, 200, 0.80, seed).unwrap();
        let wide = bootstrap_ci(&xs, stat, 200, 0.99, seed).unwrap();
        prop_assert!(wide.width() >= ci.width() && ci.width() >= narrow.width(),
            "widths not monotone in level: {} / {} / {}",
            narrow.width(), ci.width(), wide.width());
    }

    #[test]
    fn median_inplace_agrees_with_median(xs in prop::collection::vec(-1e6f64..1e6, 0..200)) {
        let expected = median(&xs);
        let mut scratch = xs.clone();
        let got = median_inplace(&mut scratch);
        match (expected, got) {
            (None, None) => prop_assert!(xs.is_empty()),
            (Some(e), Some(g)) => prop_assert_eq!(e.to_bits(), g.to_bits(), "{xs:?}"),
            other => prop_assert!(false, "one path degenerate: {other:?}"),
        }
    }

    #[test]
    fn minhash_estimates_jaccard(
        base in prop::collection::hash_set(0u64..5_000, 30..150),
        extra in prop::collection::hash_set(5_000u64..10_000, 30..150),
    ) {
        use crowd_cluster::{jaccard, MinHasher};
        let a: std::collections::HashSet<u64> = base.clone();
        let mut b = base;
        b.extend(extra);
        let exact = jaccard(&a, &b);
        let mh = MinHasher::new(256, 99);
        let est = mh.signature(&a).estimate_jaccard(&mh.signature(&b)).expect("same hash family");
        prop_assert!((est - exact).abs() < 0.2, "est {est} vs exact {exact}");
    }

    #[test]
    fn generated_interfaces_always_roundtrip(
        words in 0u32..800,
        questions in 1u32..8,
        text_boxes in 0u32..5,
        examples in 0u32..4,
        images in 0u32..6,
        options in 2u16..6,
        seed in 0u64..1_000,
    ) {
        let spec = InterfaceSpec {
            title: "prop test".into(),
            instruction_words: words,
            questions,
            text_boxes,
            examples,
            images,
            choice_options: options,
            seed,
            variant: seed ^ 0xABCD,
        };
        let html = spec.render();
        let f = crowd_html::extract_features(&html).unwrap();
        prop_assert_eq!(f.examples, examples);
        prop_assert_eq!(f.images, images);
        prop_assert_eq!(f.text_boxes, text_boxes);
        prop_assert!(f.words >= words);
        // Parse → write → parse is a fixed point.
        let doc = crowd_html::parse(&html).unwrap();
        let again = crowd_html::parse(&crowd_html::write_document(&doc)).unwrap();
        prop_assert_eq!(doc, again);
    }

    #[test]
    fn csv_field_roundtrip(s in "\\PC{0,60}") {
        let mut escaped = String::new();
        crowd_core::csv::escape_field(&s, &mut escaped);
        escaped.push('\n');
        let records: Vec<_> = crowd_core::csv::parse_records(&escaped)
            .map(|r| r.unwrap().1)
            .collect();
        prop_assert_eq!(records.len(), 1);
        prop_assert_eq!(&records[0][0], &s);
    }

    #[test]
    fn bucketization_total_and_order(
        xs in prop::collection::vec(-1e4f64..1e4, 2..300),
        n in 2usize..12,
    ) {
        use crowd_classify::Bucketization;
        for b in [Bucketization::by_range(&xs, n), Bucketization::by_percentiles(&xs, n)]
            .into_iter()
            .flatten()
        {
            let counts = b.counts(&xs);
            prop_assert_eq!(counts.iter().sum::<usize>(), xs.len());
            for w in b.upper_bounds.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            for &x in &xs {
                prop_assert!(b.bucket_of(x) < n);
            }
        }
    }

    #[test]
    fn union_find_respects_transitivity(
        edges in prop::collection::vec((0usize..40, 0usize..40), 0..80)
    ) {
        use crowd_cluster::UnionFind;
        let mut uf = UnionFind::new(40);
        for &(a, b) in &edges {
            uf.union(a, b);
        }
        // find is idempotent and consistent with connectivity.
        for &(a, b) in &edges {
            prop_assert!(uf.connected(a, b));
            let ra = uf.find(a);
            prop_assert_eq!(uf.find(ra), ra);
        }
        let labels = uf.labels();
        let distinct: std::collections::HashSet<u32> = labels.iter().copied().collect();
        prop_assert_eq!(distinct.len(), uf.components());
    }
}
