//! Payload section codecs: entity tables, batch columns + HTML dictionary,
//! per-shard verbatim instance columns, and the derived-artifact section.
//!
//! The codec is split along the file's two-tier layout: [`encode_meta`] /
//! [`decode_meta`] handle everything the trailer's checksum covers (entities,
//! batches, derived artifacts, shard directory), while [`encode_instances`]
//! / [`decode_instances_into`] handle one shard's slice of the instance
//! table — each shard section is self-contained so it can be read,
//! verified, and decoded independently of every other shard.
//!
//! Encoding is column-oriented to mirror [`InstanceColumns`]: each fixed
//! width field of the instance table is dumped as one contiguous array, so
//! the hot sections are straight `memcpy`-shaped loops in both directions.
//! Every decoder validates shape as it goes (enum tags, label bits,
//! dictionary references, column lengths, entity references), so a
//! snapshot that decodes successfully is as trustworthy as a freshly
//! simulated dataset.

use std::collections::HashMap;
// Shadow the `crowd_core::prelude` single-argument `Result` alias: this
// module's fallible paths return `SnapshotError`, not `CoreError`.
use std::result::Result;
use std::sync::Arc;

use crowd_analytics::BatchMetrics;
use crowd_cluster::{ClusterParams, Signature};
use crowd_core::dataset::{Dataset, InstanceColumns};
use crowd_core::prelude::*;
use crowd_html::ExtractedFeatures;

use crate::format::{ByteReader, ByteWriter};
use crate::sharded::{ShardDirectory, ShardSectionInfo};
#[cfg(test)]
use crate::Snapshot;
use crate::{Derived, SnapshotError};

/// Everything the meta payload carries: the dataset minus its instance
/// rows, plus the directory locating those rows' shard sections.
pub(crate) struct DecodedMeta {
    /// Entity tables and batches, with an empty instance table.
    pub entities: Dataset,
    /// Derived artifacts, when persisted.
    pub derived: Option<Derived>,
    /// Shard directory for the instance sections in front of the meta.
    pub directory: ShardDirectory,
    /// The dataset's `time_max` at encode time (instance end times are not
    /// recoverable from the entity tables alone).
    pub time_max: Option<Timestamp>,
}

/// Serializes the meta payload: entities, batches + HTML dictionary,
/// derived artifacts, and the shard directory.
///
/// `time_max` is persisted explicitly rather than derived from `ds`: the
/// streaming writer encodes the meta against an entities-only dataset
/// (instance rows already live in flushed shard sections), whose own
/// `time_max()` would miss every instance end time.
pub(crate) fn encode_meta(
    ds: &Dataset,
    derived: Option<&Derived>,
    directory: &ShardDirectory,
    time_max: Option<Timestamp>,
) -> Vec<u8> {
    let mut w = ByteWriter::with_capacity(4096 + ds.batches.len() * 24);

    // ---- entity tables --------------------------------------------------
    w.u32(ds.sources.len() as u32);
    for s in &ds.sources {
        w.str(&s.name);
        w.u8(kind_tag(s.kind));
    }
    w.u32(ds.countries.len() as u32);
    for c in &ds.countries {
        w.str(&c.name);
    }
    w.u32(ds.workers.len() as u32);
    for worker in &ds.workers {
        w.u32(worker.source.raw());
    }
    for worker in &ds.workers {
        w.u32(worker.country.raw());
    }
    w.u32(ds.task_types.len() as u32);
    for tt in &ds.task_types {
        w.str(&tt.title);
        w.u16(tt.goals.bits());
        w.u16(tt.operators.bits());
        w.u16(tt.data_types.bits());
        w.u16(tt.choice_arity);
    }

    // ---- batches + HTML dictionary --------------------------------------
    // Dictionary-encode pages by pointer first, value second: batches
    // sharing one interned `Arc<str>` hit the pointer key without a string
    // compare, and distinct allocations holding equal text still collapse
    // to one dictionary slot.
    let mut dict: Vec<&str> = Vec::new();
    let mut slot_by_ptr: HashMap<*const u8, u32> = HashMap::new();
    let mut slot_by_text: HashMap<&str, u32> = HashMap::new();
    let mut html_refs: Vec<u32> = Vec::with_capacity(ds.batches.len());
    for b in &ds.batches {
        html_refs.push(match &b.html {
            None => u32::MAX,
            Some(html) => {
                let ptr = html.as_ptr();
                *slot_by_ptr.entry(ptr).or_insert_with(|| {
                    *slot_by_text.entry(html.as_ref()).or_insert_with(|| {
                        dict.push(html.as_ref());
                        dict.len() as u32 - 1
                    })
                })
            }
        });
    }
    w.u32(ds.batches.len() as u32);
    for b in &ds.batches {
        w.u32(b.task_type.raw());
    }
    for b in &ds.batches {
        w.i64(b.created_at.as_secs());
    }
    w.u32_slice(&html_refs);
    let mut sampled_bits = vec![0u8; ds.batches.len().div_ceil(8)];
    for (i, b) in ds.batches.iter().enumerate() {
        if b.sampled {
            sampled_bits[i / 8] |= 1 << (i % 8);
        }
    }
    w.bytes(&sampled_bits);
    w.u32(dict.len() as u32);
    for page in &dict {
        w.str(page);
    }

    // ---- derived artifacts ----------------------------------------------
    match derived {
        None => w.u8(0),
        Some(d) => {
            w.u8(1);
            w.u64(d.params.shingle_k as u64);
            w.u64(d.params.n_hashes as u64);
            w.u64(d.params.bands as u64);
            w.f64(d.params.threshold);
            w.u64(d.params.seed);
            w.u32_slice(&d.labels);
            w.u32(d.n_clusters as u32);
            w.u32(d.signatures.len() as u32);
            for sig in &d.signatures {
                w.u64_slice(&sig.0);
            }
            w.u32(d.metrics.len() as u32);
            for m in &d.metrics {
                w.u32(m.cluster);
                w.u32(m.n_instances);
                w.u32(m.n_items);
                opt_f64(&mut w, m.disagreement);
                opt_f64(&mut w, m.task_time);
                opt_f64(&mut w, m.pickup_time);
                w.u32(m.features.words);
                w.u32(m.features.text_boxes);
                w.u32(m.features.examples);
                w.u32(m.features.images);
                w.u32(m.features.input_fields);
                w.u8(u8::from(m.features.has_instructions));
            }
        }
    }

    // ---- shard directory -------------------------------------------------
    w.u64(directory.n_rows());
    w.u64(directory.shard_rows());
    w.u32(directory.n_shards() as u32);
    for s in directory.sections() {
        w.u32(s.rows);
        w.u64(s.byte_len);
        w.u64(s.checksum);
    }
    // Dataset-wide time_max, so streamed scans see the same week window as
    // a scan over the materialized table.
    match time_max {
        None => w.u8(0),
        Some(t) => {
            w.u8(1);
            w.i64(t.as_secs());
        }
    }

    w.into_bytes()
}

/// Deserializes and validates the meta payload.
pub(crate) fn decode_meta(payload: &[u8]) -> Result<DecodedMeta, SnapshotError> {
    let mut r = ByteReader::new(payload);

    // ---- entity tables --------------------------------------------------
    let n_sources = r.len_prefix(2)?;
    let mut sources = Vec::with_capacity(n_sources);
    for _ in 0..n_sources {
        let name = r.str()?;
        sources.push(Source::new(name, kind_from_tag(r.u8()?)?));
    }
    let n_countries = r.len_prefix(1)?;
    let mut countries = Vec::with_capacity(n_countries);
    for _ in 0..n_countries {
        countries.push(Country::new(r.str()?));
    }
    let n_workers = r.len_prefix(8)?;
    let mut workers = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        workers.push(Worker::new(SourceId::new(r.u32()?), CountryId::new(0)));
    }
    for worker in &mut workers {
        worker.country = CountryId::new(r.u32()?);
    }
    let n_types = r.len_prefix(8)?;
    let mut task_types = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        let title = r.str()?;
        let bad_bits = |_| SnapshotError::Corrupt("label bits");
        let mut tt = TaskType::new(title);
        tt.goals = LabelSet::from_bits(r.u16()?).map_err(bad_bits)?;
        tt.operators = LabelSet::from_bits(r.u16()?).map_err(bad_bits)?;
        tt.data_types = LabelSet::from_bits(r.u16()?).map_err(bad_bits)?;
        task_types.push(tt.with_choice_arity(r.u16()?));
    }

    // ---- batches + HTML dictionary --------------------------------------
    let n_batches = r.len_prefix(4)?;
    let mut type_col = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        type_col.push(TaskTypeId::new(r.u32()?));
    }
    let mut created_col = Vec::with_capacity(n_batches);
    for _ in 0..n_batches {
        created_col.push(Timestamp::from_secs(r.i64()?));
    }
    let html_refs = r.u32_vec()?;
    let sampled_bits = r.bytes()?;
    if html_refs.len() != n_batches || sampled_bits.len() != n_batches.div_ceil(8) {
        return Err(SnapshotError::Corrupt("batch column lengths"));
    }
    let n_dict = r.len_prefix(4)?;
    // One `Arc<str>` per distinct page, cloned into every referencing
    // batch: this rebuilds exactly the sharing the builder's `HtmlArena`
    // established at simulation time.
    let mut dict: Vec<Arc<str>> = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        dict.push(Arc::from(r.str()?));
    }
    let mut batches = Vec::with_capacity(n_batches);
    for i in 0..n_batches {
        let mut b = Batch::new(type_col[i], created_col[i]);
        b.sampled = sampled_bits[i / 8] & (1 << (i % 8)) != 0;
        b.html = match html_refs[i] {
            u32::MAX => None,
            slot => Some(
                dict.get(slot as usize)
                    .ok_or(SnapshotError::Corrupt("html dictionary reference"))?
                    .clone(),
            ),
        };
        batches.push(b);
    }

    let entities = Dataset {
        sources,
        countries,
        workers,
        task_types,
        batches,
        instances: InstanceColumns::new(),
    };
    // Validate the entity graph now: the derived section and every shard
    // decode check their references against these tables.
    entities.validate().map_err(|_| SnapshotError::Corrupt("dataset integrity"))?;

    // ---- derived artifacts ----------------------------------------------
    let derived = match r.u8()? {
        0 => None,
        1 => Some(decode_derived(&mut r, &entities)?),
        _ => return Err(SnapshotError::Corrupt("derived flag")),
    };

    // ---- shard directory -------------------------------------------------
    let bad_directory = SnapshotError::Corrupt("shard directory");
    let n_rows = r.u64()?;
    let Some(mut directory) = ShardDirectory::new(r.u64()?) else { return Err(bad_directory) };
    let n_shards = r.len_prefix(20)?; // 20 bytes per directory entry
    for _ in 0..n_shards {
        let section = ShardSectionInfo { rows: r.u32()?, byte_len: r.u64()?, checksum: r.u64()? };
        if !directory.push(section) {
            return Err(bad_directory);
        }
    }
    if directory.n_rows() != n_rows {
        return Err(bad_directory);
    }
    let time_max = match r.u8()? {
        0 => None,
        1 => Some(Timestamp::from_secs(r.i64()?)),
        _ => return Err(SnapshotError::Corrupt("time_max tag")),
    };
    if r.remaining() != 0 {
        return Err(SnapshotError::Corrupt("trailing bytes"));
    }
    Ok(DecodedMeta { entities, derived, directory, time_max })
}

/// Serializes rows `lo..hi` of the instance table as one self-contained
/// shard section.
pub(crate) fn encode_instances(cols: &InstanceColumns, lo: usize, hi: usize) -> Vec<u8> {
    // Instance rows dominate the file; ~42 bytes each is a close upper
    // bound for choice/skip answers and avoids most buffer regrowth.
    let mut w = ByteWriter::with_capacity(8 + (hi - lo) * 42);
    w.u32((hi - lo) as u32);
    for &b in &cols.batch_col()[lo..hi] {
        w.u32(b.raw());
    }
    for &i in &cols.item_col()[lo..hi] {
        w.u32(i.raw());
    }
    for &wk in &cols.worker_col()[lo..hi] {
        w.u32(wk.raw());
    }
    for &t in &cols.start_col()[lo..hi] {
        w.i64(t.as_secs());
    }
    for &t in &cols.end_col()[lo..hi] {
        w.i64(t.as_secs());
    }
    for &t in &cols.trust_col()[lo..hi] {
        w.f32(t);
    }
    for a in &cols.answer_col()[lo..hi] {
        match a {
            Answer::Choice(c) => {
                w.u8(0);
                w.u16(*c);
            }
            Answer::Text(t) => {
                w.u8(1);
                w.str(t);
            }
            Answer::Skipped => w.u8(2),
        }
    }
    w.into_bytes()
}

/// Decodes one shard section, appending its rows onto `out`: each column
/// decodes straight onto the end of `out`'s, so a reused `out` with room
/// for the rows allocates nothing but text answers. Entity references are
/// bounds-checked against the meta counts so even the streamed-scan path
/// (which never runs [`Dataset::validate`] over a materialized table) can
/// trust every id it hands to an accumulator. On any error `out` keeps
/// exactly the rows it had.
pub(crate) fn decode_instances_into(
    bytes: &[u8],
    expected_rows: usize,
    n_batches: usize,
    n_workers: usize,
    out: &mut InstanceColumns,
) -> Result<(), SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let n = r.len_prefix(33)?; // ≥ 33 bytes/row: 3×u32 + 2×i64 + f32 + tag
    if n != expected_rows {
        return Err(SnapshotError::Corrupt("shard row count"));
    }
    out.append_columns(n, |c| {
        let from = c.batch.len();
        c.batch.extend(words::<4>(&mut r, n)?.map(|b| BatchId::new(u32::from_le_bytes(b))));
        if c.batch[from..].iter().any(|b| b.index() >= n_batches) {
            return Err(SnapshotError::Corrupt("instance batch reference"));
        }
        c.item.extend(words::<4>(&mut r, n)?.map(|b| ItemId::new(u32::from_le_bytes(b))));
        c.worker.extend(words::<4>(&mut r, n)?.map(|b| WorkerId::new(u32::from_le_bytes(b))));
        if c.worker[from..].iter().any(|w| w.index() >= n_workers) {
            return Err(SnapshotError::Corrupt("instance worker reference"));
        }
        c.start.extend(words::<8>(&mut r, n)?.map(|b| Timestamp::from_secs(i64::from_le_bytes(b))));
        c.end.extend(words::<8>(&mut r, n)?.map(|b| Timestamp::from_secs(i64::from_le_bytes(b))));
        c.trust.extend(words::<4>(&mut r, n)?.map(f32::from_le_bytes));
        for _ in 0..n {
            c.answer.push(match r.u8()? {
                0 => Answer::Choice(r.u16()?),
                1 => Answer::Text(r.str()?.to_string()),
                2 => Answer::Skipped,
                _ => return Err(SnapshotError::Corrupt("answer tag")),
            });
        }
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt("shard trailing bytes"));
        }
        Ok(())
    })
}

/// The next `n` fixed-width little-endian values of `r`, as byte arrays.
fn words<'a, const W: usize>(
    r: &mut ByteReader<'a>,
    n: usize,
) -> Result<impl Iterator<Item = [u8; W]> + 'a, SnapshotError> {
    Ok(r.take(n * W)?.as_chunks::<W>().0.iter().copied())
}

fn decode_derived(r: &mut ByteReader<'_>, ds: &Dataset) -> Result<Derived, SnapshotError> {
    let params = ClusterParams {
        shingle_k: r.u64()? as usize,
        n_hashes: r.u64()? as usize,
        bands: r.u64()? as usize,
        threshold: r.f64()?,
        seed: r.u64()?,
    };
    let labels = r.u32_vec()?;
    let n_clusters = r.u32()? as usize;
    let n_sampled = ds.batches.iter().filter(|b| b.sampled).count();
    if labels.len() != n_sampled {
        return Err(SnapshotError::Corrupt("label count vs sampled batches"));
    }
    // Dense-shape check (every id used, first occurrences increasing):
    // downstream scatter indexes arrays of size `n_clusters` by label.
    if crowd_cluster::Clustering::from_parts(labels.clone(), n_clusters).is_none() {
        return Err(SnapshotError::Corrupt("cluster labels not dense"));
    }
    let n_sigs = r.len_prefix(4)?;
    if n_sigs != n_sampled {
        return Err(SnapshotError::Corrupt("signature count"));
    }
    let mut signatures = Vec::with_capacity(n_sigs);
    for _ in 0..n_sigs {
        let sig = r.u64_vec()?;
        if sig.len() != params.n_hashes {
            return Err(SnapshotError::Corrupt("signature length"));
        }
        signatures.push(Signature(sig));
    }
    let n_metrics = r.len_prefix(34)?;
    if n_metrics != n_sampled {
        return Err(SnapshotError::Corrupt("metric count"));
    }
    let sampled_ids = ds
        .batches
        .iter()
        .enumerate()
        .filter(|(_, b)| b.sampled)
        .map(|(i, _)| BatchId::from_usize(i));
    let mut metrics = Vec::with_capacity(n_metrics);
    for (pos, batch) in sampled_ids.enumerate() {
        let cluster = r.u32()?;
        if cluster != labels[pos] {
            return Err(SnapshotError::Corrupt("metric cluster vs label"));
        }
        metrics.push(BatchMetrics {
            batch,
            cluster,
            n_instances: r.u32()?,
            n_items: r.u32()?,
            disagreement: opt_f64_read(r)?,
            task_time: opt_f64_read(r)?,
            pickup_time: opt_f64_read(r)?,
            features: ExtractedFeatures {
                words: r.u32()?,
                text_boxes: r.u32()?,
                examples: r.u32()?,
                images: r.u32()?,
                input_fields: r.u32()?,
                has_instructions: r.u8()? != 0,
            },
        });
    }
    Ok(Derived { params, labels, n_clusters, signatures, metrics })
}

fn opt_f64(w: &mut ByteWriter, v: Option<f64>) {
    match v {
        Some(v) => {
            w.u8(1);
            w.f64(v);
        }
        None => w.u8(0),
    }
}

fn opt_f64_read(r: &mut ByteReader<'_>) -> Result<Option<f64>, SnapshotError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.f64()?)),
        _ => Err(SnapshotError::Corrupt("option tag")),
    }
}

/// [`SourceKind`] on-disk tag: the variant's index in [`SourceKind::ALL`],
/// which is append-only.
fn kind_tag(kind: SourceKind) -> u8 {
    // `ALL` lists every variant, so the fallback (refused on read) is
    // never written.
    SourceKind::ALL.iter().position(|&k| k == kind).map_or(u8::MAX, |tag| tag as u8)
}

fn kind_from_tag(tag: u8) -> Result<SourceKind, SnapshotError> {
    SourceKind::ALL.get(tag as usize).copied().ok_or(SnapshotError::Corrupt("source kind tag"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd_sim::SimConfig;

    fn roundtrip(snapshot: &Snapshot) -> Snapshot {
        let bytes = crate::encode(snapshot, 0xFEED);
        crate::decode(&bytes, 0xFEED).expect("valid snapshot decodes")
    }

    #[test]
    fn empty_dataset_round_trips() {
        let snap = Snapshot { dataset: Dataset::default(), derived: None };
        let back = roundtrip(&snap);
        assert_eq!(back.dataset.summary(), snap.dataset.summary());
        assert!(back.derived.is_none());
    }

    #[test]
    fn simulated_dataset_round_trips_bitwise() {
        let ds = crowd_sim::simulate(&SimConfig::tiny(42));
        let back = roundtrip(&Snapshot { dataset: ds.clone(), derived: None }).dataset;
        assert_eq!(back.sources, ds.sources);
        assert_eq!(back.countries, ds.countries);
        assert_eq!(back.workers, ds.workers);
        assert_eq!(back.task_types, ds.task_types);
        assert_eq!(back.batches, ds.batches);
        assert_eq!(back.instances, ds.instances);
    }

    #[test]
    fn sharded_encoding_round_trips_bitwise_at_any_shard_count() {
        let ds = crowd_sim::simulate(&SimConfig::tiny(42));
        let snap = Snapshot { dataset: ds.clone(), derived: None };
        for shards in [1usize, 2, 3, 8, 100] {
            let bytes = crate::encode_sharded(&snap, 0xFEED, shards);
            let back = crate::decode(&bytes, 0xFEED).expect("valid snapshot decodes");
            assert_eq!(back.dataset.instances, ds.instances, "{shards} shards");
            assert_eq!(back.dataset.batches, ds.batches, "{shards} shards");
        }
    }

    #[test]
    fn html_sharing_is_rebuilt() {
        let ds = crowd_sim::simulate(&SimConfig::tiny(7));
        let back = roundtrip(&Snapshot { dataset: ds.clone(), derived: None }).dataset;
        // Count distinct allocations among sampled pages: must not exceed
        // the number of distinct page texts (i.e. sharing survived).
        let distinct_text: std::collections::HashSet<&str> =
            ds.batches.iter().filter_map(|b| b.html.as_deref()).collect();
        let distinct_ptr: std::collections::HashSet<*const u8> =
            back.batches.iter().filter_map(|b| b.html.as_ref().map(|h| h.as_ptr())).collect();
        assert_eq!(distinct_ptr.len(), distinct_text.len());
    }

    #[test]
    fn derived_section_round_trips() {
        let ds = crowd_sim::simulate(&SimConfig::tiny(9));
        let derived = crate::warm::compute_derived(&ds, ClusterParams::default());
        let snap = Snapshot { dataset: ds, derived: Some(derived) };
        let back = roundtrip(&snap);
        let (a, b) = (snap.derived.as_ref().unwrap(), back.derived.as_ref().unwrap());
        assert_eq!(a.params, b.params);
        assert_eq!(a.labels, b.labels);
        assert_eq!(a.n_clusters, b.n_clusters);
        assert_eq!(a.signatures, b.signatures);
        assert_eq!(a.metrics.len(), b.metrics.len());
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            assert_eq!(ma.batch, mb.batch);
            assert_eq!(ma.cluster, mb.cluster);
            assert_eq!(ma.n_instances, mb.n_instances);
            assert_eq!(ma.n_items, mb.n_items);
            assert_eq!(ma.disagreement.map(f64::to_bits), mb.disagreement.map(f64::to_bits));
            assert_eq!(ma.task_time.map(f64::to_bits), mb.task_time.map(f64::to_bits));
            assert_eq!(ma.pickup_time.map(f64::to_bits), mb.pickup_time.map(f64::to_bits));
            assert_eq!(ma.features, mb.features);
        }
    }

    #[test]
    fn file_corruption_is_detected() {
        let ds = crowd_sim::simulate(&SimConfig::tiny(3));
        let bytes = crate::encode(&Snapshot { dataset: ds, derived: None }, 0xFEED);
        // Chopping the file anywhere must surface as an error, never a
        // panic or a silently different dataset.
        for cut in [0, 1, 10, 41, bytes.len() / 2, bytes.len() - 1] {
            assert!(crate::decode(&bytes[..cut], 0xFEED).is_err(), "cut at {cut}");
        }
    }
}
