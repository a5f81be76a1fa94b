//! Differential and acceptance tests for the binary trace format
//! (`tracelog::binfmt` + `pipeline::par`): a truncated or stomped file
//! must fail with an error that names the chunk and record, mirroring
//! the text reader's line numbers, and a large `.rbt` checks with the
//! same verdicts as the events it was written from.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::PathBuf;
use std::sync::Arc;

use aerodrome_suite::pipeline::par::{check_all, standard_checkers, ParConfig};
use tracelog::binfmt::{self, BinTrace, MmapSource};
use tracelog::SourceError;
use workloads::{shapes, GenConfig};

/// Writes `cfg`'s shape as `.rbt` with `chunk_events` per chunk.
fn write_rbt(name: &str, shape: &str, cfg: &GenConfig, chunk_events: u32) -> PathBuf {
    let dir = std::env::temp_dir().join("rapid-binfmt-ingest-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}.rbt"));
    let mut source = shapes::source(shape, cfg).expect("known shape");
    let mut out = BufWriter::new(File::create(&path).unwrap());
    binfmt::write_binary(source.as_mut(), &mut out, chunk_events).unwrap();
    out.flush().unwrap();
    path
}

/// A stomped record fails `check_all` with the `record N (chunk C)`
/// attribution of the mmap reader.
#[test]
fn corrupted_chunk_fails_with_record_attribution() {
    let cfg = GenConfig { events: 4_000, ..GenConfig::default() };
    let path = write_rbt("stomped", "convoy", &cfg, 256);
    // Stomp the opcode of record 700 (chunk 2 at 256 events/chunk).
    let mut bytes = std::fs::read(&path).unwrap();
    let offset = binfmt::HEADER_BYTES + 700 * tracelog::wire::EVENT_RECORD_BYTES;
    bytes[offset] = 0xEE;
    std::fs::write(&path, &bytes).unwrap();

    let trace = Arc::new(BinTrace::open(&path).unwrap());
    let config = ParConfig { jobs: 2, ..ParConfig::default() };
    let err = check_all(&mut MmapSource::new(trace), standard_checkers(), &config)
        .expect_err("stomped record must fail ingest");
    let SourceError::Binary(inner) = &err else {
        panic!("expected a binary decode error, got {err}");
    };
    let text = inner.to_string();
    assert!(text.contains("record 700 (chunk 2)"), "attribution lost: {text}");
}

/// A file truncated mid-events is rejected at open — the footer (and
/// with it the chunk index) is gone, so the failure is structural, not
/// a silent partial read.
#[test]
fn truncated_file_is_rejected_at_open() {
    let cfg = GenConfig { events: 2_000, ..GenConfig::default() };
    let path = write_rbt("truncated", "convoy", &cfg, 256);
    let bytes = std::fs::read(&path).unwrap();
    let cut = binfmt::HEADER_BYTES + 1_000 * tracelog::wire::EVENT_RECORD_BYTES;
    std::fs::write(&path, &bytes[..cut]).unwrap();
    let err = BinTrace::open(&path).expect_err("truncated file must not open");
    let text = err.to_string();
    assert!(
        text.contains("end magic") || text.contains("footer") || text.contains("truncated"),
        "unhelpful truncation error: {text}"
    );
}

/// Scheduled-CI acceptance: a 5M-event convoy written as `.rbt` checks
/// through mmap ingest with verdicts identical to checking the
/// generator's events directly, and the run reports its ingest
/// throughput.
///
/// ```console
/// cargo test --release --test binfmt_ingest -- --ignored
/// ```
#[test]
#[ignore = "multi-minute in debug builds; run with --release -- --ignored"]
fn five_million_event_binary_ingest_acceptance() {
    use std::time::Instant;

    let cfg = GenConfig { seed: 42, events: 5_000_000, threads: 8, ..GenConfig::default() };
    let path = write_rbt("acceptance-5m", "convoy", &cfg, binfmt::DEFAULT_CHUNK_EVENTS);
    let trace = Arc::new(BinTrace::open(&path).unwrap());
    assert!(trace.event_count() >= 5_000_000);

    let jobs = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get).min(4);
    let config = ParConfig::default().jobs(jobs);

    let mut generated = shapes::source("convoy", &cfg).expect("known shape");
    let reference = check_all(generated.as_mut(), standard_checkers(), &config).unwrap();

    let started = Instant::now();
    let report = check_all(&mut MmapSource::new(trace), standard_checkers(), &config).unwrap();
    let wall = started.elapsed();

    assert_eq!(report.events, reference.events);
    assert_eq!(report.summary, reference.summary);
    for (run, reference_run) in report.runs.iter().zip(&reference.runs) {
        assert_eq!(run.outcome, reference_run.outcome, "{}", run.name);
        assert_eq!(run.report, reference_run.report, "{}", run.name);
    }
    let events = report.events as f64;
    println!(
        "5M acceptance: mmap {:.3}s ({:.0} events/s) on {jobs} workers",
        wall.as_secs_f64(),
        events / wall.as_secs_f64(),
    );
}
