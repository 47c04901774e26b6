//! # crowd-marketplace
//!
//! Facade crate for the reproduction of *"Understanding Workers, Developing
//! Effective Tasks, and Enhancing Marketplace Dynamics: A Study of a Large
//! Crowdsourcing Marketplace"* (Jain, Das Sarma, Parameswaran, Widom —
//! VLDB 2017).
//!
//! The workspace is organized like the study itself:
//!
//! * [`sim`] generates the dataset (the substitution for the paper's
//!   proprietary 27M-instance marketplace dump);
//! * [`core`] is the relational data model;
//! * [`analytics`] re-derives every figure and table (§3 marketplace, §4
//!   task design, §5 workers) from raw rows;
//! * [`html`], [`cluster`], [`stats`], [`classify`] are the substrates
//!   (task-interface HTML, batch clustering, statistics, decision trees);
//! * [`report`] renders figures and tables in the terminal.
//!
//! ## Quickstart
//!
//! ```no_run
//! use crowd_marketplace::prelude::*;
//!
//! // 1. Simulate the marketplace at 1% of the paper's volume.
//! let dataset = simulate(&SimConfig::default_scale(42));
//! // 2. Enrich: cluster batches, extract design features, compute metrics.
//! let study = Study::new(dataset);
//! // 3. Analyze — e.g. paper Table 1.
//! let table1 = crowd_marketplace::analytics::design::summary::disagreement_table(&study);
//! for row in &table1.rows {
//!     println!("{}: {:.3} vs {:.3}", row.bin1_desc, row.bin1_median, row.bin2_median);
//! }
//! ```
//!
//! Run `cargo run --release --bin repro -- all` to regenerate every figure
//! and table of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crowd_analytics as analytics;
pub use crowd_classify as classify;
pub use crowd_cluster as cluster;
pub use crowd_core as core;
pub use crowd_html as html;
pub use crowd_ingest as ingest;
pub use crowd_report as report;
pub use crowd_sim as sim;
pub use crowd_snapshot as snapshot;
pub use crowd_stats as stats;

/// The most commonly needed items in one import.
pub mod prelude {
    pub use crowd_analytics::Study;
    pub use crowd_core::prelude::*;
    pub use crowd_sim::{simulate, SimConfig};
}

/// Command-line handling shared by the workspace binaries.
///
/// `repro` and `export` accept the same simulation knobs — `--scale`,
/// `--seed`, `--threads`, `--snapshot-dir`, `--no-snapshot`,
/// `--input-dir`, `--shards` — with the same defaults, bounds, and error
/// messages.
/// [`cli::CommonOpts`] owns that contract in one place; each binary keeps
/// its own loop only for its private flags (`--out`, targets, `--help`).
pub mod cli {
    use std::path::PathBuf;

    use crowd_analytics::Study;
    use crowd_snapshot::SnapshotStore;

    /// Options every binary understands: `--scale`, `--seed`,
    /// `--threads`, `--snapshot-dir`, `--no-snapshot`, `--input-dir`,
    /// `--shards`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct CommonOpts {
        /// Fraction of the paper's marketplace volume to simulate, in
        /// `(0, 1]`.
        pub scale: f64,
        /// Master seed for the generative pipeline.
        pub seed: u64,
        /// Worker threads for the parallel pipeline stages; `None` defers
        /// to the `CROWD_THREADS` environment variable, then the host CPU
        /// count.
        pub threads: Option<usize>,
        /// Snapshot cache directory; `None` defers to the
        /// `CROWD_SNAPSHOT_DIR` environment variable.
        pub snapshot_dir: Option<PathBuf>,
        /// Disables the snapshot cache entirely (flag *and* environment).
        pub no_snapshot: bool,
        /// Load the dataset from a previously exported directory (via the
        /// resilient ingest path) instead of simulating.
        pub input_dir: Option<PathBuf>,
        /// Shards the snapshot file partitions the instance table into —
        /// purely the file layout. Bit-invisible to every result and to the
        /// build path; sets how many rows one streamed section holds and
        /// the granularity of corruption isolation. Ignored without a
        /// snapshot store.
        pub shards: usize,
    }

    impl Default for CommonOpts {
        fn default() -> CommonOpts {
            CommonOpts {
                scale: 0.01,
                seed: 2017,
                threads: None,
                snapshot_dir: None,
                no_snapshot: false,
                input_dir: None,
                shards: 1,
            }
        }
    }

    impl CommonOpts {
        /// Tries to consume `arg` (taking its value from `rest`).
        ///
        /// Returns `Ok(true)` when the flag belongs to the shared set,
        /// `Ok(false)` when the caller should handle it itself, and `Err`
        /// with a user-facing message on a missing or invalid value.
        pub fn accept(
            &mut self,
            arg: &str,
            rest: &mut dyn Iterator<Item = String>,
        ) -> Result<bool, String> {
            match arg {
                "--scale" => {
                    let scale: f64 = rest
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--scale needs a number in (0, 1]")?;
                    // Scales outside (0, 1] either produce an empty
                    // marketplace or extrapolate beyond the paper's
                    // population; reject both.
                    if !scale.is_finite() || scale <= 0.0 || scale > 1.0 {
                        return Err(format!("--scale must be in (0, 1], got {scale}"));
                    }
                    self.scale = scale;
                    Ok(true)
                }
                "--seed" => {
                    self.seed = rest
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--seed needs an integer")?;
                    Ok(true)
                }
                "--threads" => {
                    let threads: usize = rest
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--threads needs a positive integer")?;
                    if threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    self.threads = Some(threads);
                    Ok(true)
                }
                "--snapshot-dir" => {
                    let dir = rest.next().ok_or("--snapshot-dir needs a directory path")?;
                    if dir.is_empty() {
                        return Err("--snapshot-dir needs a directory path".into());
                    }
                    self.snapshot_dir = Some(PathBuf::from(dir));
                    Ok(true)
                }
                "--no-snapshot" => {
                    self.no_snapshot = true;
                    Ok(true)
                }
                "--input-dir" => {
                    let dir = rest.next().ok_or("--input-dir needs a directory path")?;
                    if dir.is_empty() {
                        return Err("--input-dir needs a directory path".into());
                    }
                    self.input_dir = Some(PathBuf::from(dir));
                    Ok(true)
                }
                "--shards" => {
                    let shards: usize = rest
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or("--shards needs a positive integer")?;
                    if shards == 0 {
                        return Err("--shards must be at least 1".into());
                    }
                    self.shards = shards;
                    Ok(true)
                }
                _ => Ok(false),
            }
        }

        /// Resolves the snapshot store these options select:
        /// `--no-snapshot` disables caching outright, an explicit
        /// `--snapshot-dir` wins otherwise, and absent both the
        /// `CROWD_SNAPSHOT_DIR` environment variable decides (unset ⇒ no
        /// caching — cold runs stay the out-of-the-box behavior).
        pub fn snapshot_store(&self) -> Option<SnapshotStore> {
            if self.no_snapshot {
                return None;
            }
            match &self.snapshot_dir {
                Some(dir) => Some(SnapshotStore::new(dir.clone())),
                None => SnapshotStore::from_env(),
            }
            .map(|s| s.with_shards(self.shards))
        }

        /// Builds the study these options select: `--input-dir` loads a
        /// previously exported dataset through the resilient ingest path
        /// (attaching its [`IngestReport`](crowd_core::IngestReport) to
        /// the study); otherwise the simulator generates it, warm-started
        /// from the snapshot cache when one is configured.
        ///
        /// Progress goes to stderr; an ingest failure comes back as the
        /// typed error's message plus the coverage summary accumulated
        /// before the abort.
        pub fn build_study(&self) -> Result<Study, String> {
            if let Some(dir) = &self.input_dir {
                eprintln!("ingesting dataset from {} …", dir.display());
                let ingested =
                    crowd_ingest::ingest_dir(dir, &crowd_ingest::IngestOptions::default())
                        .map_err(|f| f.to_string())?;
                eprintln!("ingest: {}", ingested.report.summary());
                return Ok(Study::new(ingested.dataset).with_ingest_report(ingested.report));
            }
            let store = self.snapshot_store();
            eprintln!(
                "simulating marketplace (scale {}, seed {}, {} threads{}) …",
                self.scale,
                self.seed,
                rayon::current_num_threads(),
                match &store {
                    Some(s) =>
                        format!(", snapshots in {} ({} shards)", s.dir().display(), self.shards),
                    None => String::new(),
                }
            );
            let cfg = crowd_sim::SimConfig::new(self.seed, self.scale);
            Ok(crowd_snapshot::warm::study_from_config(&cfg, store.as_ref()))
        }

        /// Installs the global thread pool when `--threads` was given.
        /// Call once, before any parallel work.
        pub fn install_thread_pool(&self) -> Result<(), String> {
            if let Some(n) = self.threads {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(n)
                    .build_global()
                    .map_err(|_| String::from("failed to configure the thread pool"))?;
            }
            Ok(())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn parse(argv: &[&str]) -> Result<CommonOpts, String> {
            let mut opts = CommonOpts::default();
            let mut rest = argv.iter().map(|s| s.to_string());
            while let Some(arg) = rest.next() {
                if !opts.accept(&arg, &mut rest)? {
                    return Err(format!("unknown argument `{arg}`"));
                }
            }
            Ok(opts)
        }

        #[test]
        fn defaults_match_the_paper_repro() {
            let opts = CommonOpts::default();
            assert_eq!(opts.scale, 0.01);
            assert_eq!(opts.seed, 2017);
            assert_eq!(opts.threads, None);
            assert_eq!(opts.snapshot_dir, None);
            assert!(!opts.no_snapshot);
        }

        #[test]
        fn flags_parse_and_validate() {
            let opts = parse(&["--scale", "0.5", "--seed", "7", "--threads", "4"]).unwrap();
            assert_eq!(
                opts,
                CommonOpts { scale: 0.5, seed: 7, threads: Some(4), ..CommonOpts::default() }
            );
            // Validation path: the (0, 1] scale bound.
            for bad in [["--scale", "0"], ["--scale", "1.5"], ["--scale", "NaN"]] {
                assert!(parse(&bad).is_err(), "{bad:?} must be rejected");
            }
            assert!(parse(&["--threads", "0"]).is_err());
        }

        #[test]
        fn snapshot_flags_parse() {
            let opts = parse(&["--snapshot-dir", "/tmp/snaps"]).unwrap();
            assert_eq!(opts.snapshot_dir, Some(std::path::PathBuf::from("/tmp/snaps")));
            assert!(!opts.no_snapshot);

            let opts = parse(&["--no-snapshot"]).unwrap();
            assert!(opts.no_snapshot);

            // Both together is legal; --no-snapshot wins at resolution time.
            let opts = parse(&["--snapshot-dir", "d", "--no-snapshot"]).unwrap();
            assert!(opts.snapshot_store().is_none());

            assert!(parse(&["--snapshot-dir"]).is_err(), "missing value");
            assert!(parse(&["--snapshot-dir", ""]).is_err(), "empty value");
        }

        #[test]
        fn shards_parse_and_validate() {
            let opts = parse(&["--shards", "16"]).unwrap();
            assert_eq!(opts.shards, 16);
            assert_eq!(CommonOpts::default().shards, 1);
            assert_eq!(parse(&["--shards"]).unwrap_err(), "--shards needs a positive integer");
            assert_eq!(parse(&["--shards", "x"]).unwrap_err(), "--shards needs a positive integer");
            assert_eq!(parse(&["--shards", "0"]).unwrap_err(), "--shards must be at least 1");
        }

        #[test]
        fn input_dir_parses_and_validates() {
            let opts = parse(&["--input-dir", "data/export"]).unwrap();
            assert_eq!(opts.input_dir, Some(std::path::PathBuf::from("data/export")));
            assert!(parse(&["--input-dir"]).is_err(), "missing value");
            assert!(parse(&["--input-dir", ""]).is_err(), "empty value");
            assert_eq!(parse(&["--input-dir"]).unwrap_err(), "--input-dir needs a directory path");
        }

        #[test]
        fn build_study_rejects_a_missing_input_dir() {
            let dir =
                std::env::temp_dir().join(format!("crowd_cli_no_such_dir_{}", std::process::id()));
            let opts = CommonOpts { input_dir: Some(dir), ..CommonOpts::default() };
            let err = match opts.build_study() {
                Err(e) => e,
                Ok(_) => panic!("a missing directory must not build a study"),
            };
            assert!(err.contains("ingest failed"), "typed failure surfaced: {err}");
        }

        #[test]
        fn snapshot_store_resolution_prefers_the_flag() {
            // An explicit directory resolves to a store rooted there,
            // without consulting the environment.
            let opts =
                CommonOpts { snapshot_dir: Some("cache/snaps".into()), ..CommonOpts::default() };
            let store = opts.snapshot_store().expect("flag selects a store");
            assert_eq!(store.dir(), std::path::Path::new("cache/snaps"));
            // --no-snapshot beats everything.
            let opts = CommonOpts { no_snapshot: true, ..opts };
            assert!(opts.snapshot_store().is_none());
        }

        #[test]
        fn error_messages_name_the_flag() {
            assert_eq!(parse(&["--scale", "2"]).unwrap_err(), "--scale must be in (0, 1], got 2");
            assert_eq!(parse(&["--seed", "x"]).unwrap_err(), "--seed needs an integer");
            assert_eq!(parse(&["--threads"]).unwrap_err(), "--threads needs a positive integer");
            assert_eq!(
                parse(&["--snapshot-dir"]).unwrap_err(),
                "--snapshot-dir needs a directory path"
            );
        }

        #[test]
        fn unknown_flags_fall_through_to_the_caller() {
            let mut opts = CommonOpts::default();
            let mut rest = std::iter::empty();
            assert_eq!(opts.accept("--out", &mut rest), Ok(false));
            assert_eq!(opts, CommonOpts::default());
        }
    }
}
