//! Task labels: goals, operators, and data types (paper §2.4, §3.4).
//!
//! The authors manually annotated ~3,200 task clusters under three
//! categories; tasks may carry **one or more** labels per category, hence
//! [`LabelSet`] is a small bitmask set rather than a single value.
//! §3.5 additionally splits each category into *simple* vs *complex*
//! ([`Complexity`]), which we encode on the enums themselves.

use crate::error::{CoreError, Result};
use std::fmt;
use std::marker::PhantomData;

/// Simple/complex split used by the §3.5 trend analysis (Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Complexity {
    /// "Simple" class: {ER, SA, QA} goals, {filter, rate} operators, text data.
    Simple,
    /// Everything else.
    Complex,
}

/// Common behaviour of the three label enums, enabling generic [`LabelSet`]s
/// and generic per-label breakdowns in the analytics crate.
pub trait Label: Copy + Eq + std::hash::Hash + fmt::Debug + 'static {
    /// Number of variants.
    const COUNT: usize;
    /// Human-readable category name ("goal", "operator", "data type").
    const CATEGORY: &'static str;

    /// Dense index in `0..Self::COUNT`.
    fn index(self) -> usize;
    /// Inverse of [`Label::index`].
    fn from_index(i: usize) -> Option<Self>;
    /// The paper's abbreviation (e.g. `ER`, `Filt`, `Social`).
    fn abbrev(self) -> &'static str;
    /// Full display name.
    fn name(self) -> &'static str;
    /// Simple/complex class per §3.5.
    fn complexity(self) -> Complexity;

    /// Iterator over every variant in index order.
    fn all() -> LabelIter<Self> {
        LabelIter { next: 0, _marker: PhantomData }
    }

    /// Parses either the abbreviation or the full name (case-insensitive).
    fn parse(s: &str) -> Result<Self> {
        (0..Self::COUNT)
            .filter_map(Self::from_index)
            .find(|v| v.abbrev().eq_ignore_ascii_case(s) || v.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| CoreError::UnknownLabel(format!("{} `{s}`", Self::CATEGORY)))
    }
}

/// Iterator over all variants of a label enum.
pub struct LabelIter<L: Label> {
    next: usize,
    _marker: PhantomData<L>,
}

impl<L: Label> Iterator for LabelIter<L> {
    type Item = L;
    fn next(&mut self) -> Option<L> {
        let v = L::from_index(self.next)?;
        self.next += 1;
        Some(v)
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = L::COUNT.saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl<L: Label> ExactSizeIterator for LabelIter<L> {}

macro_rules! define_label {
    (
        $(#[$doc:meta])* $name:ident, $category:literal, [
            $( $(#[$vdoc:meta])* $variant:ident => ($abbrev:literal, $full:literal, $cx:ident) ),+ $(,)?
        ]
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum $name {
            $( $(#[$vdoc])* $variant, )+
        }

        impl Label for $name {
            const COUNT: usize = [$(Self::$variant),+].len();
            const CATEGORY: &'static str = $category;

            #[inline]
            fn index(self) -> usize {
                self as usize
            }

            fn from_index(i: usize) -> Option<Self> {
                const ALL: &[$name] = &[$($name::$variant),+];
                ALL.get(i).copied()
            }

            fn abbrev(self) -> &'static str {
                match self {
                    $( $name::$variant => $abbrev, )+
                }
            }

            fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $full, )+
                }
            }

            fn complexity(self) -> Complexity {
                match self {
                    $( $name::$variant => Complexity::$cx, )+
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.abbrev())
            }
        }
    };
}

define_label!(
    /// End goal of a task (paper §3.4 "Task Goal": 7 goals; Fig. 9a).
    Goal, "goal", [
        /// Identifying whether two records refer to the same real-world entity.
        EntityResolution => ("ER", "Entity Resolution", Simple),
        /// Psychology studies, surveys, demographics, political leanings.
        HumanBehavior => ("HB", "Human Behavior", Complex),
        /// Judging relevance of search results.
        SearchRelevance => ("SR", "Search Relevance", Complex),
        /// Spam identification, content moderation, data cleaning.
        QualityAssurance => ("QA", "Quality Assurance", Simple),
        /// Classifying the sentiment of content.
        SentimentAnalysis => ("SA", "Sentiment Analysis", Simple),
        /// Parsing, NLP, extracting grammatical elements.
        LanguageUnderstanding => ("LU", "Language Understanding", Complex),
        /// Captions for audio/video, structured info from images.
        Transcription => ("T", "Transcription", Complex),
    ]
);

define_label!(
    /// Human operator / data-processing building block (paper §3.4: 10
    /// operators; Fig. 9c). Filter and Rate are the "simple" pair (§3.5).
    Operator, "operator", [
        /// Separate items into classes / answer boolean questions.
        Filter => ("Filt", "Filter", Simple),
        /// Rate an item on an ordinal scale.
        Rate => ("Rate", "Rate", Simple),
        /// Order items.
        Sort => ("Sort", "Sort", Complex),
        /// Count occurrences.
        Count => ("Count", "Count", Complex),
        /// Label or tag items.
        Tag => ("Tag", "Label/Tag", Complex),
        /// Provide information not present in the data (e.g. web search).
        Gather => ("Gat", "Gather", Complex),
        /// Convert implicit information into another form (e.g. OCR by hand).
        Extract => ("Ext", "Extract", Complex),
        /// Generate new information using worker judgement (captions etc.).
        Generate => ("Gen", "Generate", Complex),
        /// Draw/mark/bound segments of the data (e.g. bounding boxes).
        Localize => ("Loc", "Localize", Complex),
        /// Visit an external page and act there (surveys, games).
        ExternalLink => ("Exter", "External Link", Complex),
    ]
);

define_label!(
    /// Type of data the task interface operates on (paper §3.4: 7 data
    /// types; Fig. 9b). Only Text is "simple" (§3.5).
    DataType, "data type", [
        /// Plain text.
        Text => ("Text", "Text", Simple),
        /// Images.
        Image => ("Image", "Image", Complex),
        /// Audio clips.
        Audio => ("Audio", "Audio", Complex),
        /// Video clips.
        Video => ("Video", "Video", Complex),
        /// Map/geographic data.
        Maps => ("Map", "Maps", Complex),
        /// Social-media posts and profiles.
        SocialMedia => ("Social", "Social Media", Complex),
        /// Webpages.
        Webpage => ("Web", "Webpage", Complex),
    ]
);

/// A small set of labels from one category, stored as a `u16` bitmask.
///
/// Tasks may carry one or more labels per category (paper §3.4), and the
/// largest category has 10 variants, so 16 bits suffice.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelSet<L: Label> {
    bits: u16,
    _marker: PhantomData<L>,
}

impl<L: Label> Default for LabelSet<L> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<L: Label> LabelSet<L> {
    /// The empty set.
    pub const fn empty() -> Self {
        LabelSet { bits: 0, _marker: PhantomData }
    }

    /// A singleton set.
    pub fn only(label: L) -> Self {
        let mut s = Self::empty();
        s.insert(label);
        s
    }

    /// Builds a set from an iterator of labels.
    #[allow(clippy::should_implement_trait)] // FromIterator is also implemented
    pub fn from_iter<I: IntoIterator<Item = L>>(iter: I) -> Self {
        let mut s = Self::empty();
        for l in iter {
            s.insert(l);
        }
        s
    }

    /// Adds a label; returns `true` if it was newly inserted.
    pub fn insert(&mut self, label: L) -> bool {
        let bit = 1u16 << label.index();
        let fresh = self.bits & bit == 0;
        self.bits |= bit;
        fresh
    }

    /// Removes a label; returns `true` if it was present.
    pub fn remove(&mut self, label: L) -> bool {
        let bit = 1u16 << label.index();
        let present = self.bits & bit != 0;
        self.bits &= !bit;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, label: L) -> bool {
        self.bits & (1u16 << label.index()) != 0
    }

    /// Number of labels in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// True when no label is set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// True if any member is shared with `other`.
    pub fn intersects(&self, other: &Self) -> bool {
        self.bits & other.bits != 0
    }

    /// Iterates members in index order.
    pub fn iter(&self) -> impl Iterator<Item = L> + '_ {
        (0..L::COUNT).filter(|i| self.bits & (1 << i) != 0).filter_map(L::from_index)
    }

    /// The set's §3.5 class: complex if **any** member is complex, simple if
    /// all members are simple. Empty sets have no class.
    pub fn complexity(&self) -> Option<Complexity> {
        if self.is_empty() {
            return None;
        }
        if self.iter().any(|l| l.complexity() == Complexity::Complex) {
            Some(Complexity::Complex)
        } else {
            Some(Complexity::Simple)
        }
    }

    /// Raw bitmask (for compact serialization).
    pub fn bits(&self) -> u16 {
        self.bits
    }

    /// Rebuilds from a raw bitmask, rejecting bits beyond `L::COUNT`.
    pub fn from_bits(bits: u16) -> Result<Self> {
        if bits >> L::COUNT != 0 {
            return Err(CoreError::UnknownLabel(format!(
                "bitmask {bits:#x} has bits beyond the {} {}s",
                L::COUNT,
                L::CATEGORY
            )));
        }
        Ok(LabelSet { bits, _marker: PhantomData })
    }
}

impl<L: Label> fmt::Debug for LabelSet<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|l| l.abbrev())).finish()
    }
}

impl<L: Label> fmt::Display for LabelSet<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for l in self.iter() {
            if !first {
                f.write_str("+")?;
            }
            f.write_str(l.abbrev())?;
            first = false;
        }
        if first {
            f.write_str("-")?;
        }
        Ok(())
    }
}

impl<L: Label> FromIterator<L> for LabelSet<L> {
    fn from_iter<I: IntoIterator<Item = L>>(iter: I) -> Self {
        Self::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_paper() {
        assert_eq!(Goal::COUNT, 7, "paper §3.4: 7 goals");
        assert_eq!(Operator::COUNT, 10, "paper §3.4: 10 operators");
        assert_eq!(DataType::COUNT, 7, "paper §3.4: 7 data types");
    }

    #[test]
    fn complexity_split_matches_section_3_5() {
        let simple_goals: Vec<_> =
            Goal::all().filter(|g| g.complexity() == Complexity::Simple).collect();
        assert_eq!(
            simple_goals,
            vec![Goal::EntityResolution, Goal::QualityAssurance, Goal::SentimentAnalysis]
        );
        let simple_ops: Vec<_> =
            Operator::all().filter(|o| o.complexity() == Complexity::Simple).collect();
        assert_eq!(simple_ops, vec![Operator::Filter, Operator::Rate]);
        let simple_data: Vec<_> =
            DataType::all().filter(|d| d.complexity() == Complexity::Simple).collect();
        assert_eq!(simple_data, vec![DataType::Text]);
    }

    #[test]
    fn abbrevs_match_figures() {
        assert_eq!(Goal::LanguageUnderstanding.abbrev(), "LU");
        assert_eq!(Goal::Transcription.abbrev(), "T");
        assert_eq!(Operator::Gather.abbrev(), "Gat");
        assert_eq!(Operator::ExternalLink.abbrev(), "Exter");
        assert_eq!(DataType::SocialMedia.abbrev(), "Social");
    }

    #[test]
    fn parse_accepts_abbrev_and_name() {
        assert_eq!(Goal::parse("ER").unwrap(), Goal::EntityResolution);
        assert_eq!(Goal::parse("entity resolution").unwrap(), Goal::EntityResolution);
        assert_eq!(Operator::parse("filt").unwrap(), Operator::Filter);
        assert_eq!(DataType::parse("Social Media").unwrap(), DataType::SocialMedia);
        assert!(Goal::parse("nonsense").is_err());
    }

    #[test]
    fn index_roundtrip() {
        for g in Goal::all() {
            assert_eq!(Goal::from_index(g.index()), Some(g));
        }
        for o in Operator::all() {
            assert_eq!(Operator::from_index(o.index()), Some(o));
        }
        for d in DataType::all() {
            assert_eq!(DataType::from_index(d.index()), Some(d));
        }
        assert_eq!(Goal::from_index(Goal::COUNT), None);
    }

    #[test]
    fn label_iter_len() {
        assert_eq!(Goal::all().len(), 7);
        assert_eq!(Goal::all().count(), 7);
    }

    #[test]
    fn set_insert_remove_contains() {
        let mut s = LabelSet::<Operator>::empty();
        assert!(s.is_empty());
        assert!(s.insert(Operator::Filter));
        assert!(!s.insert(Operator::Filter), "double insert reports false");
        assert!(s.insert(Operator::Extract));
        assert_eq!(s.len(), 2);
        assert!(s.contains(Operator::Filter));
        assert!(!s.contains(Operator::Rate));
        assert!(s.remove(Operator::Filter));
        assert!(!s.remove(Operator::Filter));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_iter_is_sorted_by_index() {
        let s: LabelSet<Goal> =
            [Goal::Transcription, Goal::EntityResolution, Goal::SentimentAnalysis]
                .into_iter()
                .collect();
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![Goal::EntityResolution, Goal::SentimentAnalysis, Goal::Transcription]);
    }

    #[test]
    fn set_complexity() {
        let simple: LabelSet<Goal> = LabelSet::only(Goal::SentimentAnalysis);
        assert_eq!(simple.complexity(), Some(Complexity::Simple));
        let mixed: LabelSet<Goal> =
            [Goal::SentimentAnalysis, Goal::Transcription].into_iter().collect();
        assert_eq!(mixed.complexity(), Some(Complexity::Complex), "any complex ⇒ complex");
        assert_eq!(LabelSet::<Goal>::empty().complexity(), None);
    }

    #[test]
    fn set_bits_roundtrip() {
        let s: LabelSet<DataType> = [DataType::Text, DataType::Webpage].into_iter().collect();
        let back = LabelSet::<DataType>::from_bits(s.bits()).unwrap();
        assert_eq!(s, back);
        assert!(LabelSet::<DataType>::from_bits(1 << 15).is_err(), "out-of-range bit rejected");
    }

    #[test]
    fn set_display() {
        let s: LabelSet<Goal> = [Goal::EntityResolution, Goal::Transcription].into_iter().collect();
        assert_eq!(s.to_string(), "ER+T");
        assert_eq!(LabelSet::<Goal>::empty().to_string(), "-");
    }

    #[test]
    fn intersects() {
        let a: LabelSet<Operator> = [Operator::Filter, Operator::Rate].into_iter().collect();
        let b: LabelSet<Operator> = [Operator::Rate, Operator::Sort].into_iter().collect();
        let c: LabelSet<Operator> = LabelSet::only(Operator::Gather);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
    }
}
