//! Tasks, batches, and the design parameters extracted from task HTML.

use std::sync::Arc;

use crate::id::TaskTypeId;
use crate::labels::{DataType, Goal, LabelSet, Operator};
use crate::time::Timestamp;

/// Requester-controlled design parameters of a task interface, as extracted
/// from its HTML source (paper §2.4 "Design parameters", analyzed in §4).
///
/// These are the features the paper correlates against the three
/// effectiveness metrics; the field names mirror the paper's notation
/// (`#words`, `#text-box`, `#examples`, `#images`, `#items`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DesignFeatures {
    /// Number of words in the task's HTML page (§4.3).
    pub words: u32,
    /// Number of free-form text input boxes (§4.4).
    pub text_boxes: u32,
    /// Number of prominently displayed examples — the paper counts the word
    /// "example" wrapped in a tag of its own (§4.6).
    pub examples: u32,
    /// Number of `<img>` tags (§4.7).
    pub images: u32,
    /// Number of items operated on across the batch (§4.5).
    pub items: u32,
    /// Total input fields of any kind (§4.8 reports no significant
    /// correlation, but the feature is part of the enrichment).
    pub input_fields: u32,
    /// Whether the interface carries an instructions block (§2.4).
    pub has_instructions: bool,
}

impl DesignFeatures {
    /// True when the interface contains at least one free-form text box.
    #[inline]
    pub fn has_text_box(&self) -> bool {
        self.text_boxes > 0
    }

    /// True when at least one prominent example is present.
    #[inline]
    pub fn has_example(&self) -> bool {
        self.examples > 0
    }

    /// True when at least one image is present.
    #[inline]
    pub fn has_image(&self) -> bool {
        self.images > 0
    }

    /// The feature vector used by the §4.9 prediction experiments, in a
    /// fixed order: `[items, words, text_boxes, examples, images]`.
    pub fn vector(&self) -> [f64; 5] {
        [
            f64::from(self.items),
            f64::from(self.words),
            f64::from(self.text_boxes),
            f64::from(self.examples),
            f64::from(self.images),
        ]
    }
}

/// A *distinct task* — the deduplicated unit of work a requester issues
/// repeatedly across batches (paper §2 overloads "task" this way; ~6,600
/// distinct tasks exist in the full dataset).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskType {
    /// Short textual description, as in the per-batch metadata (§2.3).
    pub title: String,
    /// Manually assigned goals (§3.4); empty when unlabeled.
    pub goals: LabelSet<Goal>,
    /// Manually assigned operators (§3.4).
    pub operators: LabelSet<Operator>,
    /// Manually assigned data types (§3.4).
    pub data_types: LabelSet<DataType>,
    /// Number of answer alternatives for choice questions (the cardinality
    /// of the underlying answer domain; not part of the paper's features but
    /// needed to interpret [`crate::Answer::Choice`] values).
    pub choice_arity: u16,
}

impl TaskType {
    /// Creates an unlabeled task type with a binary answer domain.
    pub fn new(title: impl Into<String>) -> Self {
        TaskType {
            title: title.into(),
            goals: LabelSet::empty(),
            operators: LabelSet::empty(),
            data_types: LabelSet::empty(),
            choice_arity: 2,
        }
    }

    /// Adds a goal label (builder style).
    #[must_use]
    pub fn with_goal(mut self, goal: Goal) -> Self {
        self.goals.insert(goal);
        self
    }

    /// Adds an operator label (builder style).
    #[must_use]
    pub fn with_operator(mut self, op: Operator) -> Self {
        self.operators.insert(op);
        self
    }

    /// Adds a data-type label (builder style).
    #[must_use]
    pub fn with_data_type(mut self, dt: DataType) -> Self {
        self.data_types.insert(dt);
        self
    }

    /// Sets the answer-domain cardinality (builder style).
    #[must_use]
    pub fn with_choice_arity(mut self, arity: u16) -> Self {
        self.choice_arity = arity.max(2);
        self
    }

    /// True when the type received manual labels (§2.4: ~83% of batches did).
    pub fn is_labeled(&self) -> bool {
        !self.goals.is_empty() || !self.operators.is_empty() || !self.data_types.is_empty()
    }
}

/// A batch: a set of task instances issued together by a requester (§2).
///
/// The marketplace provided batch-level data: a one-sentence description and
/// the HTML of one sample task instance (§2.3). Batches outside the 12k-batch
/// sample carry only title and creation date (`html == None`).
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The distinct task this batch instantiates. In the real dataset this
    /// linkage is *recovered* by clustering HTML (§3.3); the simulator also
    /// stores the ground-truth assignment here so clustering quality is
    /// measurable.
    pub task_type: TaskTypeId,
    /// When the batch was created / posted to the marketplace.
    pub created_at: Timestamp,
    /// HTML source of a sample task instance; `None` outside the sample.
    /// Stored as a shared `Arc<str>` so identical pages (the common case
    /// when a task is re-issued across batches) are interned once by
    /// [`crate::dataset::DatasetBuilder`] instead of duplicated per batch.
    pub html: Option<Arc<str>>,
    /// Whether this batch is inside the fully-observed 12k sample (§2.2).
    pub sampled: bool,
}

impl Batch {
    /// Creates a sampled batch without HTML attached yet.
    pub fn new(task_type: TaskTypeId, created_at: Timestamp) -> Self {
        Batch { task_type, created_at, html: None, sampled: true }
    }

    /// Attaches sample-task HTML (builder style).
    #[must_use]
    pub fn with_html(mut self, html: impl Into<Arc<str>>) -> Self {
        self.html = Some(html.into());
        self
    }

    /// Marks the batch as outside the observed sample (builder style).
    #[must_use]
    pub fn unsampled(mut self) -> Self {
        self.sampled = false;
        self.html = None;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_feature_flags() {
        let f = DesignFeatures { text_boxes: 2, images: 0, examples: 1, ..Default::default() };
        assert!(f.has_text_box());
        assert!(f.has_example());
        assert!(!f.has_image());
    }

    #[test]
    fn feature_vector_order() {
        let f = DesignFeatures {
            items: 56,
            words: 466,
            text_boxes: 1,
            examples: 2,
            images: 3,
            ..Default::default()
        };
        assert_eq!(f.vector(), [56.0, 466.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn task_type_builder() {
        let tt = TaskType::new("transcribe receipts")
            .with_goal(Goal::Transcription)
            .with_operator(Operator::Extract)
            .with_data_type(DataType::Image)
            .with_choice_arity(4);
        assert!(tt.goals.contains(Goal::Transcription));
        assert!(tt.operators.contains(Operator::Extract));
        assert!(tt.data_types.contains(DataType::Image));
        assert_eq!(tt.choice_arity, 4);
        assert!(tt.is_labeled());
        assert!(!TaskType::new("bare").is_labeled());
    }

    #[test]
    fn choice_arity_floor_is_two() {
        let tt = TaskType::new("x").with_choice_arity(0);
        assert_eq!(tt.choice_arity, 2, "a choice question needs ≥ 2 alternatives");
    }

    #[test]
    fn batch_builder() {
        let t0 = Timestamp::from_ymd(2015, 5, 1);
        let b = Batch::new(TaskTypeId::new(3), t0).with_html("<div/>");
        assert!(b.sampled);
        assert_eq!(b.html.as_deref(), Some("<div/>"));
        let u = Batch::new(TaskTypeId::new(3), t0).with_html("<div/>").unsampled();
        assert!(!u.sampled);
        assert_eq!(u.html, None, "unsampled batches lose their HTML (paper §2.2)");
    }
}
