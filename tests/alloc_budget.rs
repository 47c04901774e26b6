//! Allocation-budget pins for the hot paths, measured with a counting
//! global allocator.
//!
//! The kernel refactor's claim is not just "faster" but *allocation-free
//! in steady state*: a warmed [`ShingleScratch`] and a warmed
//! `sign_into` target vector must not touch the allocator at all, and the
//! streaming build (simulator shard flushing + streaming enricher) must
//! stay within a per-row allocation budget so a regression that
//! reintroduces per-row buffers fails loudly here rather than silently
//! costing throughput. Reading snapshot shards one after another into a
//! reused column set must not allocate a section- or column-sized block.
//!
//! Everything runs inside **one** `#[test]` — the counter is global, and
//! the harness runs separate tests concurrently.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts calls into the allocator (alloc + realloc; frees are not
/// interesting for the budgets below).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Blocks of at least this many bytes are also counted in [`LARGE`]: a
/// snapshot section or an instance column of one scan chunk (8192 `u32`s)
/// is this big, a text answer is not.
const LARGE_BLOCK: usize = 32 << 10;

static LARGE: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE_BLOCK {
        LARGE.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn large_allocs_during(f: impl FnOnce()) -> u64 {
    let before = LARGE.load(Ordering::Relaxed);
    f();
    LARGE.load(Ordering::Relaxed) - before
}

/// The counter is process-global, so harness background threads can slip
/// a few allocations into any measurement window. The zero-allocation
/// pins therefore allow this much unrelated noise — far below the
/// hundreds a reintroduced per-call allocation would add.
const NOISE: u64 = 10;

#[test]
fn steady_state_allocation_budgets_hold() {
    use crowd_cluster::{MinHasher, ShingleScratch};

    // ---- shingling: zero allocations once the scratch is warm ----------
    let docs: Vec<String> = (0..32)
        .map(|i| {
            format!(
                "<div class=\"task\"><h1>Batch {i} labels IMAGES</h1>\
                 <p>rate the pictures and flag unsafe content {i}</p></div>"
            )
        })
        .collect();
    let mut scratch = ShingleScratch::new();
    for d in &docs {
        scratch.shingle(d, 3); // warm to the high-water document shape
    }
    let shingle_allocs = allocs_during(|| {
        for _ in 0..50 {
            for d in &docs {
                std::hint::black_box(scratch.shingle(d, 3));
            }
        }
    });
    // 1600 calls: even one allocation per call would be 160x the slop.
    assert!(
        shingle_allocs <= NOISE,
        "warmed ShingleScratch must be allocation-free (saw {shingle_allocs})"
    );

    // ---- minhash: zero allocations with a warmed signature buffer ------
    let hasher = MinHasher::new(128, 42);
    let shingle_vals: Vec<u64> = (0..500u64).map(|x| x.wrapping_mul(0x9E3779B97F4A7C15)).collect();
    let mut sig = Vec::new();
    hasher.sign_into(&shingle_vals, &mut sig); // warm
    let sign_allocs = allocs_during(|| {
        for _ in 0..50 {
            hasher.sign_into(&shingle_vals, &mut sig);
            std::hint::black_box(&sig);
        }
    });
    assert!(sign_allocs <= NOISE, "warmed sign_into must be allocation-free (saw {sign_allocs})");

    // ---- streaming build: bounded allocations per emitted row ----------
    // The cold path (shard-flushing simulator + streaming enricher) pays
    // inherent per-row costs — answer text, per-item piles — but the shard
    // buffer and the enricher's pile buffers are recycled, so the per-row
    // allocation rate is a small constant. Measured ~1.1 allocs/row on
    // this host; the pin leaves ~2.5x headroom so only a reintroduced
    // per-row or per-shard buffer trips it.
    use crowd_analytics::study::StreamingEnricher;
    use crowd_sim::{prepare_streamed, SimConfig};

    let cfg = SimConfig::new(5, 0.002);
    let stream = prepare_streamed(&cfg);
    let mut enricher = StreamingEnricher::new(stream.entities());
    let shard_rows = crowd_core::ScanPass::CHUNK;
    let build_allocs = allocs_during(|| {
        let entities = stream.run(&cfg, shard_rows, &mut enricher).expect("infallible sink");
        std::hint::black_box(&entities);
    });
    let rows = enricher.rows() as u64;
    assert!(rows > 2 * shard_rows as u64, "need multiple shards to exercise buffer reuse");
    assert!(
        build_allocs <= 3 * rows,
        "streaming build allocated {build_allocs} times for {rows} rows \
         (> 3/row budget)"
    );

    // ---- shard reads: no section- or column-sized block past shard 0 ---
    // The reader keeps one section buffer, and each column decodes
    // straight onto the caller's, so reading shard after shard into one
    // truncated column set leaves only the text answers to allocate.
    use crowd_core::dataset::InstanceColumns;
    use crowd_snapshot::{encode_sharded, ShardedSnapshotReader, Snapshot};

    let ds = crowd_sim::simulate(&SimConfig::new(31, 0.002));
    let bytes = encode_sharded(&Snapshot { dataset: ds, derived: None }, 7, 4);
    let path = std::env::temp_dir().join(format!("crowd-alloc-shards-{}.bin", std::process::id()));
    std::fs::write(&path, bytes).expect("write snapshot");
    let mut reader = ShardedSnapshotReader::open(&path, 7).expect("snapshot opens");
    let n_shards = reader.directory().n_shards();
    assert!(n_shards >= 3, "need several shards to exercise buffer reuse");
    let mut cols = InstanceColumns::new();
    reader.read_shard_into(0, &mut cols).expect("shard 0 reads");
    let large = large_allocs_during(|| {
        for shard in 1..n_shards {
            cols.truncate(0);
            reader.read_shard_into(shard, &mut cols).expect("shard reads");
        }
    });
    let _ = std::fs::remove_file(&path);
    assert_eq!(large, 0, "shards 1..{n_shards} allocated {large} blocks of >= 32 KiB");
}
