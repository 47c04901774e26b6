//! Workers, labor sources, and worker geography (paper §2.3, §5).

use crate::id::{CountryId, SourceId};

/// Broad behavioural class of a labor source (paper §5.1 distinguishes
/// dedicated workforces, on-demand/one-off workforces, the marketplace's own
/// internal pool, and sources specialized by region or domain).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceKind {
    /// Engaged workforce performing many tasks per worker (e.g. clixsense).
    Dedicated,
    /// One-off participation, few tasks per worker (40% of sources have
    /// workers doing ≤ 20 tasks each — Fig. 26a).
    OnDemand,
    /// The marketplace's internal pool ("skilled contributors", ~2% of
    /// tasks — §2.1, §5.1).
    Internal,
    /// Geographically specialized (e.g. imerit_india, yute_jamaica).
    Regional,
    /// Domain specialized (e.g. ojooo: advertising/marketing campaigns).
    DomainSpecific,
}

impl SourceKind {
    /// All variants.
    pub const ALL: [SourceKind; 5] = [
        SourceKind::Dedicated,
        SourceKind::OnDemand,
        SourceKind::Internal,
        SourceKind::Regional,
        SourceKind::DomainSpecific,
    ];

    /// Short display name.
    pub const fn name(self) -> &'static str {
        match self {
            SourceKind::Dedicated => "dedicated",
            SourceKind::OnDemand => "on-demand",
            SourceKind::Internal => "internal",
            SourceKind::Regional => "regional",
            SourceKind::DomainSpecific => "domain-specific",
        }
    }
}

/// A labor source that routes workers into the marketplace (paper §5.1:
/// 139 sources; Table 4 lists them).
#[derive(Debug, Clone, PartialEq)]
pub struct Source {
    /// Source name as listed in Table 4 (e.g. `neodev`, `clixsense`, `amt`).
    pub name: String,
    /// Behavioural class.
    pub kind: SourceKind,
}

impl Source {
    /// Creates a source.
    pub fn new(name: impl Into<String>, kind: SourceKind) -> Self {
        Source { name: name.into(), kind }
    }

    /// True for the marketplace's internal pool.
    pub fn is_internal(&self) -> bool {
        self.kind == SourceKind::Internal
    }
}

/// A worker's country (paper Fig. 28: 148 countries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Country {
    /// Display name, e.g. `USA`, `Venezuela`.
    pub name: String,
}

impl Country {
    /// Creates a country record.
    pub fn new(name: impl Into<String>) -> Self {
        Country { name: name.into() }
    }
}

/// A crowd worker. Only marketplace-observable attributes are stored
/// (paper §2.3: worker ID, location, source); latent skill lives in the
/// simulator and surfaces only through per-instance trust scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Worker {
    /// The labor source that recruited this worker.
    pub source: SourceId,
    /// The worker's country.
    pub country: CountryId,
}

impl Worker {
    /// Creates a worker.
    pub fn new(source: SourceId, country: CountryId) -> Self {
        Worker { source, country }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_kinds_have_names() {
        for k in SourceKind::ALL {
            assert!(!k.name().is_empty());
        }
        assert_eq!(SourceKind::Internal.name(), "internal");
    }

    #[test]
    fn internal_flag() {
        assert!(Source::new("internal", SourceKind::Internal).is_internal());
        assert!(!Source::new("amt", SourceKind::OnDemand).is_internal());
    }

    #[test]
    fn worker_is_copy_and_small() {
        let w = Worker::new(SourceId::new(1), CountryId::new(2));
        let w2 = w; // Copy
        assert_eq!(w, w2);
        assert_eq!(std::mem::size_of::<Worker>(), 8);
    }
}
