//! Task-type population: labels, design features, popularity, activity
//! windows (paper §2.4, §3.3–§3.5, §4).

use crowd_core::labels::{Complexity, DataType, Goal, Label, LabelSet, Operator};
use crowd_html::generator::InterfaceSpec;
use rand::rngs::StdRng;
use rand::Rng;

use crate::calibration as cal;
use crate::config::SimConfig;
use crate::distributions::{bernoulli, lognormal_median, normal, zipf_weights, Categorical};

/// How a type's batches arrive over time (Fig 8: heavy hitters ramp up,
/// run steadily, then shut down for good).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityPattern {
    /// A burst of batches within a few weeks ("one-off" tasks, §3.3).
    OneOff,
    /// Regular batches across a multi-month window.
    Steady,
}

/// Generator-side description of one distinct task.
#[derive(Debug, Clone)]
pub struct TaskTypeSpec {
    /// Human-readable title.
    pub title: String,
    /// Goal labels (≥1).
    pub goals: LabelSet<Goal>,
    /// Operator labels (≥1).
    pub operators: LabelSet<Operator>,
    /// Data-type labels (≥1).
    pub data_types: LabelSet<DataType>,
    /// Whether the authors' manual labeling covered this cluster (§2.4).
    pub labeled: bool,
    /// `#words` of the interface.
    pub words: u32,
    /// `#text-box` of the interface.
    pub text_boxes: u32,
    /// `#examples` of the interface.
    pub examples: u32,
    /// `#images` of the interface.
    pub images: u32,
    /// Median items per batch for this type (per-batch counts jitter).
    pub items_median: f64,
    /// Mean judgments collected per item.
    pub redundancy: f64,
    /// Answer-domain size for choice questions.
    pub choice_arity: u16,
    /// Number of batches this type will issue across the timeline.
    pub planned_batches: u32,
    /// First week (relative to sim start) the type is active.
    pub start_week: u32,
    /// Last active week (inclusive).
    pub end_week: u32,
    /// Arrival pattern within the window.
    pub pattern: ActivityPattern,
    /// Whether this is a paper-§3.3 heavy hitter (spans 100+ batches).
    pub heavy_hitter: bool,
    /// Whether this is one of the three "bulk" clusters holding >1M
    /// instances via enormous batches (§3.3 / Fig 7).
    pub bulk: bool,
    /// Latent ambiguity: per-judgment deviation probability, after all
    /// design-feature effects. Drives the disagreement metric.
    pub ambiguity: f64,
    /// Subjective free-text task (disagreement > 0.5; pruned by §4.1).
    pub subjective: bool,
    /// Median work seconds for this type (before worker factors).
    pub task_time_median: f64,
    /// Median pickup seconds for this type (before load factors).
    pub pickup_median: f64,
}

impl TaskTypeSpec {
    /// The HTML interface spec for a batch of this type; `batch_seed`
    /// varies only the incidental content (item references) between
    /// batches of one type — the instruction text is type-stable.
    pub fn interface(&self, batch_seed: u64) -> InterfaceSpec {
        // Type-stable text seed derived from the title.
        let mut text_seed = 0xcbf2_9ce4_8422_2325u64;
        for b in self.title.bytes() {
            text_seed ^= u64::from(b);
            text_seed = text_seed.wrapping_mul(0x100_0000_01b3);
        }
        InterfaceSpec {
            title: self.title.clone(),
            instruction_words: self.words.saturating_sub(30),
            questions: (self.text_boxes + 2).min(6),
            text_boxes: self.text_boxes,
            examples: self.examples,
            images: self.images,
            choice_options: self.choice_arity,
            seed: text_seed,
            variant: batch_seed,
        }
    }
}

/// Goal sampling weights (instance-mass-oriented; Fig 9a: LU ≈17% and
/// T ≈13% of instances lead, ER/SA trail).
const GOAL_WEIGHTS: [f64; 7] = [
    0.09, // ER
    0.11, // HB
    0.12, // SR
    0.13, // QA
    0.09, // SA
    0.27, // LU
    0.19, // T
];

/// Operator mix conditioned on primary goal (rows: Goal; cols: Operator in
/// enum order Filt, Rate, Sort, Count, Tag, Gat, Ext, Gen, Loc, Exter).
/// Encodes the Fig 10b correlations: transcription is extraction-driven;
/// HB uses external links (13%) and localization (9%); LU generates (16%).
const OP_GIVEN_GOAL: [[f64; 10]; 7] = [
    // ER
    [0.55, 0.15, 0.05, 0.02, 0.08, 0.10, 0.05, 0.00, 0.00, 0.00],
    // HB
    [0.26, 0.19, 0.05, 0.00, 0.05, 0.08, 0.05, 0.10, 0.09, 0.13],
    // SR
    [0.40, 0.35, 0.10, 0.00, 0.05, 0.05, 0.05, 0.00, 0.00, 0.00],
    // QA
    [0.55, 0.15, 0.00, 0.05, 0.12, 0.00, 0.05, 0.00, 0.08, 0.00],
    // SA
    [0.35, 0.45, 0.00, 0.00, 0.10, 0.05, 0.00, 0.05, 0.00, 0.00],
    // LU
    [0.30, 0.25, 0.00, 0.05, 0.10, 0.06, 0.08, 0.16, 0.00, 0.00],
    // T
    [0.10, 0.00, 0.00, 0.00, 0.08, 0.05, 0.60, 0.12, 0.05, 0.00],
];

/// Data-type mix conditioned on primary goal (cols in enum order Text,
/// Image, Audio, Video, Maps, Social, Web). Encodes Fig 10a: web matters
/// for ER (24%) and SR (37%); social for SA (13%) and LU (8%).
const DATA_GIVEN_GOAL: [[f64; 7]; 7] = [
    // ER
    [0.35, 0.20, 0.02, 0.03, 0.06, 0.10, 0.24],
    // HB
    [0.45, 0.20, 0.05, 0.08, 0.04, 0.08, 0.10],
    // SR
    [0.30, 0.20, 0.01, 0.02, 0.04, 0.06, 0.37],
    // QA
    [0.35, 0.35, 0.03, 0.05, 0.02, 0.08, 0.12],
    // SA
    [0.50, 0.15, 0.03, 0.05, 0.02, 0.13, 0.12],
    // LU
    [0.55, 0.20, 0.04, 0.03, 0.02, 0.08, 0.08],
    // T
    [0.35, 0.30, 0.15, 0.10, 0.03, 0.02, 0.05],
];

/// Pinned label archetypes for the head (heavy/bulk) task types:
/// `(goal index, operator indices, data-type indices)` in enum order.
/// Filter and text/image dominate, matching the paper's aggregate shares.
const HEAD_ARCHETYPES: [(usize, &[usize], &[usize]); 6] = [
    (5, &[0], &[0]),       // LU · Filter · Text
    (6, &[6], &[1, 0]),    // T  · Extract · Image+Text
    (3, &[0], &[1]),       // QA · Filter · Image
    (2, &[1, 0], &[6, 0]), // SR · Rate+Filter · Web+Text
    (5, &[0, 7], &[0, 5]), // LU · Filter+Generate · Text+Social
    (3, &[0], &[0, 1]),    // QA · Filter · Text+Image
];

/// Title fragments per goal, used to synthesize plausible batch titles.
const TITLE_TEMPLATES: [&[&str]; 7] = [
    &[
        "match duplicate business listings",
        "are these two profiles the same person",
        "deduplicate product records",
        "link store entries across sites",
    ],
    &[
        "short opinion survey",
        "answer questions about your habits",
        "political leaning of this post",
        "psychology study session",
    ],
    &[
        "rate search result relevance",
        "is this result relevant to the query",
        "judge query document match",
        "rank results for the search",
    ],
    &[
        "flag inappropriate content",
        "moderate uploaded photos",
        "spot spam comments",
        "verify data entry quality",
    ],
    &[
        "sentiment of this tweet",
        "is this review positive or negative",
        "classify customer feedback tone",
        "label emotion of message",
    ],
    &[
        "identify grammatical elements",
        "paraphrase this sentence",
        "extract entities from text",
        "judge sentence fluency",
    ],
    &[
        "transcribe the receipt",
        "type the text in this image",
        "caption this audio clip",
        "extract fields from scanned form",
    ],
];

/// Deterministic largest-remainder allocator: successive [`Self::next`]
/// calls return label indices whose running counts track `weights` at
/// every prefix (systematic/stratified sampling).
///
/// Tail-type instance mass concentrates in the first few tail ranks
/// (Zipf batch counts × lognormal batch sizes), so drawing primary
/// labels i.i.d. lets a handful of draws decide every conditional share
/// of Figs 9–10. Stratification pins those shares to the generative
/// matrices regardless of the RNG stream.
struct WeightedRoundRobin {
    weights: Vec<f64>,
    assigned: Vec<u64>,
    total: u64,
}

impl WeightedRoundRobin {
    fn new(weights: &[f64]) -> WeightedRoundRobin {
        let sum: f64 = weights.iter().sum();
        assert!(sum > 0.0, "weights must not all be zero");
        WeightedRoundRobin {
            weights: weights.iter().map(|w| w / sum).collect(),
            assigned: vec![0; weights.len()],
            total: 0,
        }
    }

    /// Index with the largest deficit vs. its target share; ties break to
    /// the lowest index, so the sequence is fully deterministic.
    fn next(&mut self) -> usize {
        self.total += 1;
        let mut best = 0;
        let mut best_deficit = f64::NEG_INFINITY;
        for (i, &w) in self.weights.iter().enumerate() {
            let deficit = self.total as f64 * w - self.assigned[i] as f64;
            if w > 0.0 && deficit > best_deficit {
                best_deficit = deficit;
                best = i;
            }
        }
        self.assigned[best] += 1;
        best
    }
}

/// Builds a label set around the stratified `primary` index, plus an
/// occasional random secondary label drawn from `cond`.
fn sample_labels<L: Label>(
    rng: &mut StdRng,
    primary: usize,
    cond: &Categorical,
    secondary_prob: f64,
) -> LabelSet<L> {
    let mut set = LabelSet::only(L::from_index(primary).expect("index aligns with enum"));
    if bernoulli(rng, secondary_prob) {
        if let Some(second) = L::from_index(cond.sample(rng)) {
            set.insert(second);
        }
    }
    set
}

/// Generates the full task-type population for a run.
pub fn generate_task_types(cfg: &SimConfig, rng: &mut StdRng) -> Vec<TaskTypeSpec> {
    let n_types = ((cal::FULL_DISTINCT_TASKS * cfg.population_scale()).round() as usize).max(60);
    let n_weeks = cfg.n_weeks() as u32;
    let regime_week = cfg.regime_week() as u32;

    let goal_cat = Categorical::new(&GOAL_WEIGHTS);
    let op_cats: Vec<Categorical> = OP_GIVEN_GOAL.iter().map(|row| Categorical::new(row)).collect();
    let data_cats: Vec<Categorical> =
        DATA_GIVEN_GOAL.iter().map(|row| Categorical::new(row)).collect();

    // Primary labels for tail types are allocated by largest remainder so
    // their proportions track the calibration matrices at every rank
    // prefix; only secondary labels stay random.
    let mut goal_rr = WeightedRoundRobin::new(&GOAL_WEIGHTS);
    let mut op_rrs: Vec<WeightedRoundRobin> =
        OP_GIVEN_GOAL.iter().map(|row| WeightedRoundRobin::new(row)).collect();
    let mut data_rrs: Vec<WeightedRoundRobin> =
        DATA_GIVEN_GOAL.iter().map(|row| WeightedRoundRobin::new(row)).collect();

    // Batches per type: Zipf over ranks, scaled to the batch budget.
    let batch_budget = (cal::FULL_BATCHES * cfg.scale.sqrt()).max(400.0);
    let mut zipf = zipf_weights(n_types, 1.05);
    let zipf_total: f64 = zipf.iter().sum();
    for w in &mut zipf {
        *w *= batch_budget / zipf_total;
    }

    let n_heavy = ((n_types as f64 * cal::HEAVY_HITTER_TYPE_FRACTION).round() as usize).max(3);

    let mut types = Vec::with_capacity(n_types);
    for rank in 0..n_types {
        let goal_idx =
            if rank < HEAD_ARCHETYPES.len() { HEAD_ARCHETYPES[rank].0 } else { goal_rr.next() };
        let (goals, operators, data_types) = if rank < HEAD_ARCHETYPES.len() {
            // The head ranks (batch-heavy + bulk) dominate instance mass,
            // so their full label profiles are pinned to the workloads the
            // paper reports as dominant (Fig 9: LU/T goals, filter/rate
            // operators, text/image data) instead of being left to a
            // handful of random draws.
            let (g, ops, ds) = HEAD_ARCHETYPES[rank];
            (
                LabelSet::only(Goal::from_index(g).unwrap()),
                ops.iter().map(|&o| Operator::from_index(o).unwrap()).collect(),
                ds.iter().map(|&d| DataType::from_index(d).unwrap()).collect(),
            )
        } else {
            let goals: LabelSet<Goal> = {
                let mut set = LabelSet::only(Goal::from_index(goal_idx).unwrap());
                if bernoulli(rng, 0.10) {
                    set.insert(Goal::from_index(goal_cat.sample(rng)).unwrap());
                }
                set
            };
            (
                goals,
                sample_labels(rng, op_rrs[goal_idx].next(), &op_cats[goal_idx], 0.25),
                sample_labels(rng, data_rrs[goal_idx].next(), &data_cats[goal_idx], 0.20),
            )
        };

        // --- design features -------------------------------------------
        let words = lognormal_median(rng, cal::WORDS_MEDIAN, cal::WORDS_SIGMA)
            .round()
            .clamp(15.0, 30_000.0) as u32;

        // Open-ended operators demand free-text inputs far more often.
        let open_ended = operators.contains(Operator::Gather)
            || operators.contains(Operator::Extract)
            || operators.contains(Operator::Generate)
            || goals.contains(Goal::Transcription);
        // Keep overall cluster-level prevalence below one half so the §4.2
        // median split lands at the "=0 vs >0" boundary, as in Table 1
        // (1283 clusters with none vs 1014 with some).
        let textbox_prob = if open_ended { 0.80 } else { 0.16 };
        let text_boxes = if bernoulli(rng, textbox_prob) { 1 + rng.gen_range(0..3) } else { 0 };

        let examples =
            if bernoulli(rng, cal::EXAMPLES_PREVALENCE) { 1 + rng.gen_range(0..3) } else { 0 };

        let image_prob = if data_types.contains(DataType::Image) {
            0.58
        } else {
            cal::IMAGES_BASE_PREVALENCE * 0.45
        };
        let images = if bernoulli(rng, image_prob) { 1 + rng.gen_range(0..5) } else { 0 };

        let items_median = lognormal_median(rng, cal::ITEMS_MEDIAN, 1.5).clamp(1.0, 120_000.0);
        let redundancy = (cal::REDUNDANCY_MEAN + normal(rng, 0.0, 0.7)).clamp(2.0, 7.0);
        let choice_arity = 2 + rng.gen_range(0..4) as u16;

        // --- popularity & schedule --------------------------------------
        // Ranks [0, n_heavy) are the batch-count heavy hitters (Fig 8);
        // the next three ranks are the bulk-instance clusters (Fig 7),
        // which issue few but enormous batches ("close to 80k
        // tasks/batch", §3.3).
        let heavy_hitter = rank < n_heavy;
        let bulk = (n_heavy..n_heavy + 3).contains(&rank);
        let planned_batches = if heavy_hitter {
            // §3.3: heavy hitters span well over 100 batches at full scale.
            (zipf[rank].max(120.0 * cfg.scale.sqrt().max(0.3))).round() as u32
        } else if bulk {
            // Enough batches that no single one dominates a weekday or a
            // week at reduced scale, few enough to stay "bulky" per batch.
            ((300.0 * cfg.scale.sqrt()).round() as u32).clamp(30, 90)
        } else {
            (zipf[rank].round() as u32).max(1)
        };

        // Activity window: most types post-2015 (§3.1), pre-2015 era sparse.
        let post_2015 = bernoulli(rng, 0.78);
        let start_week = if post_2015 {
            regime_week + rng.gen_range(0..(n_weeks - regime_week).max(1))
        } else {
            rng.gen_range(0..regime_week.max(1))
        };
        let (pattern, duration) = if planned_batches <= 6 {
            (ActivityPattern::OneOff, 1 + rng.gen_range(0..4))
        } else {
            // Fig 8: sustained streams run for months (up to ~11 months).
            (ActivityPattern::Steady, 6 + rng.gen_range(0..42))
        };
        let end_week = (start_week + duration).min(n_weeks.saturating_sub(1));

        // --- quality model ----------------------------------------------
        let subjective = text_boxes > 0 && bernoulli(rng, cal::SUBJECTIVE_TASK_FRACTION);
        let complex_goal = goals.complexity() == Some(Complexity::Complex);
        let mut ambiguity = cal::AMBIGUITY_BASE
            * if complex_goal { cal::AMBIGUITY_COMPLEX_FACTOR } else { 1.0 }
            * if f64::from(words) > cal::WORDS_MEDIAN { cal::AMBIGUITY_WORDS_FACTOR } else { 1.0 }
            * if text_boxes > 0 { cal::AMBIGUITY_TEXTBOX_FACTOR } else { 1.0 }
            * if examples > 0 { cal::AMBIGUITY_EXAMPLE_FACTOR } else { 1.0 }
            * if items_median > cal::ITEMS_MEDIAN { cal::AMBIGUITY_ITEMS_FACTOR } else { 1.0 }
            * normal(rng, 0.0, 0.30).exp();
        if subjective {
            // Free-text judgment calls: most pairs disagree (§4.1 prunes
            // disagreement > 0.5).
            ambiguity = rng.gen_range(0.55..0.95);
        }
        let ambiguity = ambiguity.clamp(0.002, 0.97);

        // --- latency/cost model ------------------------------------------
        // A small population of long-form tasks stretches the task-time
        // range by orders of magnitude (§4.9: range buckets up to 8754s
        // while nearly all clusters sit in the first bucket).
        let long_form = if bernoulli(rng, 0.02) { rng.gen_range(8.0..20.0) } else { 1.0 };
        let task_time_median = cal::TASK_TIME_BASE_MEDIAN
            * long_form
            * if text_boxes > 0 { cal::TASK_TIME_TEXTBOX_FACTOR } else { 1.0 }
            * if items_median > cal::ITEMS_MEDIAN { cal::TASK_TIME_ITEMS_FACTOR } else { 1.0 }
            * if images > 0 { cal::TASK_TIME_IMAGE_FACTOR } else { 1.0 }
            * normal(rng, 0.0, 0.25).exp();
        // A small population of "stale" tasks nobody wants: their pickup
        // medians stretch to weeks-months, reproducing the paper's §4.9
        // pickup range (buckets up to 1.6e7 s with nearly every cluster in
        // the first one).
        let stale = if bernoulli(rng, 0.02) { rng.gen_range(30.0..120.0) } else { 1.0 };
        let pickup_median = stale * cal::PICKUP_BASE_MEDIAN
            * if examples > 0 { cal::PICKUP_EXAMPLE_FACTOR } else { 1.0 }
            * if images > 0 { cal::PICKUP_IMAGE_FACTOR } else { 1.0 }
            // Continuous in #items (limited parallelism queues later
            // instances): a 10x-median batch takes ~1.7x longer to pick
            // up, matching Table 3's 4521s -> 8132s contrast.
            * (items_median / cal::ITEMS_MEDIAN).powf(0.22).clamp(0.45, 2.6)
            * normal(rng, 0.0, 0.35).exp();

        let template = TITLE_TEMPLATES[goal_idx];
        let title = format!("{} #{rank}", template[rng.gen_range(0..template.len())]);

        types.push(TaskTypeSpec {
            title,
            goals,
            operators,
            data_types,
            // The head clusters dominate instance mass; the authors'
            // labeling pass certainly covered them (§2.4 labels 89% of
            // instances via 83% of batches). The draw happens regardless
            // so the RNG stream does not depend on the rank.
            labeled: {
                let drawn = bernoulli(rng, cfg.label_fraction);
                rank < HEAD_ARCHETYPES.len() || drawn
            },
            words,
            text_boxes,
            examples,
            images,
            items_median,
            redundancy,
            choice_arity,
            planned_batches,
            start_week,
            end_week,
            pattern,
            heavy_hitter,
            bulk,
            ambiguity,
            subjective,
            task_time_median: task_time_median.clamp(8.0, 9_000.0),
            pickup_median: pickup_median.clamp(20.0, 2.0e7),
        });
    }
    types
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn types() -> Vec<TaskTypeSpec> {
        let cfg = SimConfig::default_scale(7);
        let mut rng = StdRng::seed_from_u64(7);
        generate_task_types(&cfg, &mut rng)
    }

    #[test]
    fn population_size_scales() {
        let tt = types();
        // 6600 * sqrt(0.01) = 660.
        assert!((600..=720).contains(&tt.len()), "got {}", tt.len());
    }

    #[test]
    fn every_type_is_fully_labeled_internally() {
        for t in types() {
            assert!(!t.goals.is_empty());
            assert!(!t.operators.is_empty());
            assert!(!t.data_types.is_empty());
            assert!(t.choice_arity >= 2);
            assert!(t.redundancy >= 2.0);
        }
    }

    #[test]
    fn lu_and_t_are_most_common_goals() {
        let tt = types();
        let mut counts = [0usize; 7];
        for t in &tt {
            for g in t.goals.iter() {
                counts[g.index()] += 1;
            }
        }
        let lu = counts[Goal::LanguageUnderstanding.index()];
        let tr = counts[Goal::Transcription.index()];
        for (i, &c) in counts.iter().enumerate() {
            if i != Goal::LanguageUnderstanding.index() && i != Goal::Transcription.index() {
                assert!(lu > c, "LU should lead (Fig 9a)");
                let _ = tr;
            }
        }
    }

    #[test]
    fn filter_and_rate_dominate_operators() {
        let tt = types();
        let mut counts = [0usize; 10];
        for t in &tt {
            for o in t.operators.iter() {
                counts[o.index()] += 1;
            }
        }
        let filt = counts[Operator::Filter.index()];
        assert!(filt > counts[Operator::Sort.index()] * 3, "filter dominates (Fig 9c)");
        assert!(counts[Operator::Rate.index()] > counts[Operator::Count.index()]);
    }

    #[test]
    fn text_and_image_dominate_data() {
        let tt = types();
        let mut counts = [0usize; 7];
        for t in &tt {
            for d in t.data_types.iter() {
                counts[d.index()] += 1;
            }
        }
        assert!(counts[DataType::Text.index()] > counts[DataType::Webpage.index()]);
        assert!(counts[DataType::Image.index()] > counts[DataType::Audio.index()]);
    }

    #[test]
    fn examples_are_rare_images_common() {
        let tt = types();
        let with_examples = tt.iter().filter(|t| t.examples > 0).count() as f64 / tt.len() as f64;
        let with_images = tt.iter().filter(|t| t.images > 0).count() as f64 / tt.len() as f64;
        assert!(with_examples < 0.10, "examples rare (§4.6): {with_examples}");
        assert!((0.15..=0.55).contains(&with_images), "images ~24%+ (§4.7): {with_images}");
    }

    #[test]
    fn heavy_hitters_have_many_batches() {
        let tt = types();
        let heavy: Vec<_> = tt.iter().filter(|t| t.heavy_hitter).collect();
        assert!(heavy.len() >= 3);
        for h in &heavy {
            assert!(
                h.planned_batches >= 36,
                "heavy hitters span many batches: {}",
                h.planned_batches
            );
        }
    }

    #[test]
    fn subjective_types_have_high_ambiguity_and_textboxes() {
        let tt = types();
        let subj: Vec<_> = tt.iter().filter(|t| t.subjective).collect();
        assert!(!subj.is_empty());
        for s in subj {
            assert!(s.ambiguity > 0.5);
            assert!(s.text_boxes > 0);
        }
    }

    #[test]
    fn causal_effects_visible_in_type_medians() {
        let tt = types();
        let med = |vals: &mut Vec<f64>| {
            vals.sort_by(f64::total_cmp);
            vals[vals.len() / 2]
        };
        let mut with_ex: Vec<f64> =
            tt.iter().filter(|t| t.examples > 0).map(|t| t.pickup_median).collect();
        let mut without_ex: Vec<f64> =
            tt.iter().filter(|t| t.examples == 0).map(|t| t.pickup_median).collect();
        if with_ex.len() >= 5 {
            assert!(med(&mut with_ex) < med(&mut without_ex), "examples reduce pickup (Table 3)");
        }
        let mut with_tb: Vec<f64> = tt
            .iter()
            .filter(|t| t.text_boxes > 0 && !t.subjective)
            .map(|t| t.task_time_median)
            .collect();
        let mut without_tb: Vec<f64> =
            tt.iter().filter(|t| t.text_boxes == 0).map(|t| t.task_time_median).collect();
        assert!(med(&mut with_tb) > med(&mut without_tb), "text boxes raise task time");
    }

    #[test]
    fn activity_windows_are_valid() {
        let cfg = SimConfig::default_scale(7);
        for t in types() {
            assert!(t.start_week <= t.end_week);
            assert!((t.end_week as usize) < cfg.n_weeks());
        }
    }

    #[test]
    fn interface_spec_mirrors_features() {
        let tt = types();
        let t = &tt[0];
        let spec = t.interface(99);
        assert_eq!(spec.examples, t.examples);
        assert_eq!(spec.images, t.images);
        assert_eq!(spec.text_boxes, t.text_boxes);
        assert_eq!(spec.variant, 99);
        assert_eq!(t.interface(1).seed, t.interface(2).seed, "text seed is type-stable");
    }

    #[test]
    fn deterministic_generation() {
        let cfg = SimConfig::default_scale(3);
        let mut r1 = StdRng::seed_from_u64(3);
        let mut r2 = StdRng::seed_from_u64(3);
        let a = generate_task_types(&cfg, &mut r1);
        let b = generate_task_types(&cfg, &mut r2);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].title, b[0].title);
        assert_eq!(a[10].words, b[10].words);
    }
}
