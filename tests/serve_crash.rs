//! Kill-point chaos harness: the "crash anywhere" property, end to end.
//!
//! A golden `serve` run (WAL + checkpoints, no crash) reports how many
//! kill points its schedule passes and exports a deterministic state
//! dump. The harness then re-runs the binary with `CROWD_KILL_AT=<k>`
//! armed — the child `SIGKILL`s *itself* at the k-th point, mid-append,
//! mid-rotation, mid-checkpoint, or mid-publish — restarts it with
//! `--resume`, and asserts the recovered final state is **byte-identical**
//! to the never-crashed run: zero accepted-event loss, bit-identical
//! fused aggregates, identical row order.
//!
//! Kill points all sit on the single writer thread, so the schedule is
//! deterministic and every index in `1..=N` is reachable. The quick
//! smoke test probes three structurally interesting points; the
//! `#[ignore]`d matrix sweeps a seeded sample of the whole schedule plus
//! a double-kill (crash during recovery) case — run it with
//! `cargo test --release --test serve_crash -- --ignored`. A
//! checkpoints-only case (no `--wal-dir`) holds `--resume` to the same
//! standard when the newest checkpoint is all there is: the resumed run
//! re-ingests the rest of the feed and must export the golden state.

#![cfg(unix)]

use std::os::unix::process::ExitStatusExt;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

use crowd_core::rng::stream_seed;

/// One scenario's working area: checkpoint dir, WAL dir, export path.
struct Dirs {
    root: PathBuf,
    /// Whether the scenario's runs write ahead to a WAL (`--wal-dir`).
    wal: bool,
}

/// Numbers every `Dirs` of this process: the tests run concurrently and
/// several ask for the same tag (each calls `golden()`).
static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

impl Dirs {
    fn new(tag: &str) -> Dirs {
        Dirs::with_wal(tag, true)
    }

    /// A scenario whose runs keep checkpoints but no WAL.
    fn checkpoints_only(tag: &str) -> Dirs {
        Dirs::with_wal(tag, false)
    }

    fn with_wal(tag: &str, wal: bool) -> Dirs {
        let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir()
            .join(format!("crowd_serve_crash_{tag}_{}_{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create scenario dir");
        Dirs { root, wal }
    }

    fn export(&self) -> PathBuf {
        self.root.join("state.txt")
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The fixed workload: small enough for debug-profile CI, large enough
/// to cross several checkpoints and WAL segment rotations, so the kill
/// schedule covers append/fsync/rotate/retire/ckpt/publish points.
fn serve_cmd(dirs: &Dirs, resume: bool) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_serve"));
    cmd.args([
        "--scale",
        "0.0004",
        "--seed",
        "29",
        "--readers",
        "0",
        "--batch-events",
        "512",
        "--checkpoint-every",
        "4000",
        "--fsync-every",
        "4",
        "--wal-segment-bytes",
        "65536",
    ]);
    cmd.arg("--checkpoint-dir").arg(dirs.root.join("ckpt"));
    if dirs.wal {
        cmd.arg("--wal-dir").arg(dirs.root.join("wal"));
    }
    cmd.arg("--export-state").arg(dirs.export());
    if resume {
        cmd.arg("--resume");
    }
    // Never inherit an armed kill point or report flag from the
    // environment; each run opts in explicitly.
    cmd.env_remove("CROWD_KILL_AT");
    cmd.env_remove("CROWD_KILL_REPORT");
    cmd
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Runs the never-crashed golden workload once; returns its exported
/// state and the length of the kill-point schedule.
fn golden() -> (Vec<u8>, u64) {
    golden_in(&Dirs::new("golden"))
}

/// [`golden`] in the scenario `dirs` (with or without a WAL).
fn golden_in(dirs: &Dirs) -> (Vec<u8>, u64) {
    let out =
        serve_cmd(dirs, false).env("CROWD_KILL_REPORT", "1").output().expect("spawn golden serve");
    assert!(out.status.success(), "golden run failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = stdout_of(&out);
    let points = stdout
        .lines()
        .find_map(|l| l.strip_prefix("killpoints_passed="))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("golden run printed no kill-point count:\n{stdout}"));
    assert!(points > 20, "kill schedule suspiciously short ({points} points)");
    let state = std::fs::read(dirs.export()).expect("golden export");
    (state, points)
}

/// Runs the workload with the `at`-th kill point armed and asserts the
/// child actually died by SIGKILL (not a clean or error exit).
fn run_killed(dirs: &Dirs, at: u64) {
    let out = serve_cmd(dirs, false)
        .env("CROWD_KILL_AT", at.to_string())
        .output()
        .expect("spawn killed serve");
    assert_eq!(
        out.status.signal(),
        Some(libc_sigkill()),
        "kill point {at}: child should die by SIGKILL, got {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
}

/// SIGKILL's number without depending on libc: it is 9 on every unix.
fn libc_sigkill() -> i32 {
    9
}

/// Resumes after a crash; returns the exported state. `kill_at` arms a
/// kill point *during recovery* for the double-kill scenario.
fn resume(dirs: &Dirs, kill_at: Option<u64>) -> Option<Vec<u8>> {
    let mut cmd = serve_cmd(dirs, true);
    if let Some(at) = kill_at {
        cmd.env("CROWD_KILL_AT", at.to_string());
    }
    let out = cmd.output().expect("spawn resume serve");
    if kill_at.is_some() {
        assert_eq!(
            out.status.signal(),
            Some(libc_sigkill()),
            "recovery run should also have been killed, got {:?}",
            out.status
        );
        return None;
    }
    assert!(out.status.success(), "resume failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let stdout = stdout_of(&out);
    assert!(
        stdout.lines().any(|l| l.starts_with("recovery_ms=")),
        "resume must report its recovery time:\n{stdout}"
    );
    Some(std::fs::read(dirs.export()).expect("resumed export"))
}

fn assert_recovers_identically(tag: &str, at: u64, golden_state: &[u8]) {
    let dirs = Dirs::new(tag);
    run_killed(&dirs, at);
    let state = resume(&dirs, None).expect("clean resume");
    assert_eq!(
        state, golden_state,
        "kill point {at}: recovered state diverged from the never-crashed run \
         (dump them with --export-state to diff)"
    );
}

#[test]
fn killed_runs_recover_bit_identical_state_smoke() {
    let (golden_state, points) = golden();
    // Three structurally distinct crash sites: during the very first
    // batch, mid-stream, and at the last point before clean shutdown.
    for (i, at) in [2, points / 2, points].into_iter().enumerate() {
        assert_recovers_identically(&format!("smoke{i}"), at, &golden_state);
    }
}

#[test]
#[ignore = "seeded kill-point sweep; run with --ignored (ideally --release)"]
fn seeded_kill_matrix_recovers_bit_identical_state() {
    let (golden_state, points) = golden();
    // A seeded sample across the whole schedule. stream_seed is the
    // repo-wide deterministic splitmix: same seed, same matrix, every
    // run and every machine.
    const SEED: u64 = 0xC4A05;
    let mut picked: Vec<u64> = (0..12).map(|i| 1 + stream_seed(SEED, i) % points).collect();
    picked.sort_unstable();
    picked.dedup();
    for (i, at) in picked.into_iter().enumerate() {
        assert_recovers_identically(&format!("matrix{i}"), at, &golden_state);
    }
}

#[test]
#[ignore = "double-kill (crash during recovery); run with --ignored"]
fn crash_during_recovery_still_recovers() {
    let (golden_state, points) = golden();
    let dirs = Dirs::new("double");
    // First crash mid-stream, second crash early in the recovery run
    // (recovery replays the WAL tail and keeps ingesting, so its own
    // schedule passes plenty of points), then a clean final resume.
    run_killed(&dirs, points * 2 / 3);
    assert!(resume(&dirs, Some(3)).is_none());
    let state = resume(&dirs, None).expect("final resume");
    assert_eq!(state, golden_state, "double-kill recovery diverged from the golden run");
}

#[test]
fn checkpoints_only_runs_resume_bit_identical_state() {
    let (golden_state, points) = golden_in(&Dirs::checkpoints_only("ckpt_golden"));

    // Nothing to restore: `--resume` over an empty checkpoint directory
    // starts fresh and ingests the whole feed.
    let fresh = Dirs::checkpoints_only("ckpt_fresh");
    let state = resume(&fresh, None).expect("fresh resume");
    assert_eq!(state, golden_state, "resume over no checkpoint diverged from the golden run");

    // Killed at a seeded point in the second half of the schedule, past
    // the first checkpoint: the resumed run restores the newest
    // checkpoint and re-ingests everything after it.
    let at = points / 2 + 1 + stream_seed(0xC4A05, 100) % (points - points / 2);
    let killed = Dirs::checkpoints_only("ckpt_killed");
    run_killed(&killed, at);
    let left = std::fs::read_dir(killed.root.join("ckpt")).map_or(0, Iterator::count);
    assert!(left > 0, "kill point {at}: the killed run left no checkpoint to restore");
    let state = resume(&killed, None).expect("resume after the kill");
    assert_eq!(
        state, golden_state,
        "kill point {at}: checkpoints-only recovery diverged from the never-crashed run"
    );
}
