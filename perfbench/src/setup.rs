//! Store set-up, ingest and the client session shared by the workloads.

use crate::layers::{Acc, WriteLog};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_client::{ClientError, Connection, RemoteOutcome};
use tasm_core::{Query, RegionPixels, Tasm, TasmConfig};
use tasm_data::SyntheticVideo;
use tasm_index::MemoryIndex;
use tasm_server::{ServerConfig, TasmServer};
use tasm_service::{RetilePolicy, ServiceConfig};
use tasm_video::FrameSource;

const FPS: u32 = 30;
/// BUSY retries before a query counts as failed.
const BUSY_RETRIES: u32 = 100;

/// Opens a store with one decode worker per query: the service runs
/// `nproc` query workers, so service workers × decode workers = `nproc`.
pub fn open_store(dir: &Path, cache_bytes: u64) -> Result<Arc<Tasm>, String> {
    let cfg = TasmConfig {
        workers: 1,
        cache_bytes,
        ..TasmConfig::default()
    };
    Tasm::open(dir, Box::new(MemoryIndex::in_memory()), cfg)
        .map(Arc::new)
        .map_err(|e| format!("open store: {e}"))
}

/// Serves `tasm` on an ephemeral loopback port with `nproc` query workers.
pub fn serve(tasm: &Arc<Tasm>, nproc: usize, retile: RetilePolicy) -> Result<TasmServer, String> {
    let service = ServiceConfig {
        workers: nproc,
        retile,
        ..ServiceConfig::default()
    };
    TasmServer::bind(
        Arc::clone(tasm),
        service,
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .map_err(|e| format!("bind server: {e}"))
}

/// Ingests `video` untiled and indexes its ground-truth detections as a
/// detector would, logging the time of each step.
pub fn ingest(
    tasm: &Tasm,
    name: &str,
    video: &SyntheticVideo,
    log: &mut WriteLog,
) -> Result<(), String> {
    let t = Instant::now();
    tasm.ingest(name, video, FPS)
        .map_err(|e| format!("ingest {name}: {e}"))?;
    log.ingest += t.elapsed();
    log.stored_bytes += tasm
        .video_size_bytes(name)
        .map_err(|e| format!("size of {name}: {e}"))?;
    let t = Instant::now();
    for f in 0..video.len() {
        for (label, bbox) in video.ground_truth(f) {
            tasm.add_metadata(name, label, f, bbox)
                .map_err(|e| format!("add_metadata {name}: {e}"))?;
            log.metadata_calls += 1;
        }
        tasm.mark_processed(name, f)
            .map_err(|e| format!("mark_processed {name}: {e}"))?;
    }
    log.metadata += t.elapsed();
    log.frames += u64::from(video.len());
    Ok(())
}

/// Raw YUV 4:2:0 bytes of `frames` frames of `video`.
pub fn raw_bytes(video: &SyntheticVideo) -> u64 {
    u64::from(video.len()) * u64::from(video.width()) * u64::from(video.height()) * 3 / 2
}

/// Bytes stored for `names` over the raw bytes of what was ingested.
pub fn store_bytes_ratio(tasm: &Tasm, names: &[String], raw: u64) -> Result<f64, String> {
    let mut stored = 0u64;
    for name in names {
        stored += tasm
            .video_size_bytes(name)
            .map_err(|e| format!("size of {name}: {e}"))?;
    }
    Ok(stored as f64 / raw as f64)
}

/// Runs `Tasm::fsck` and fails unless the store is clean.
pub fn fsck_clean(tasm: &Tasm) -> Result<std::time::Duration, String> {
    let t = Instant::now();
    let report = tasm.fsck().map_err(|e| format!("fsck: {e}"))?;
    let took = t.elapsed();
    if !report.is_clean() {
        return Err(format!(
            "fsck found {} issues: {:?}",
            report.issues.len(),
            report.issues
        ));
    }
    Ok(took)
}

/// Whether two query results carry the same regions, bit for bit.
pub fn same_regions(a: &[RegionPixels], b: &[RegionPixels]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.frame == y.frame && x.rect == y.rect && x.pixels == y.pixels)
}

/// One client connection that retries BUSY rejections and reconnects after
/// a transport failure.
pub struct Session {
    conn: Connection,
    addr: SocketAddr,
}

impl Session {
    pub fn connect(addr: SocketAddr) -> Result<Session, String> {
        let conn = Connection::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Session { conn, addr })
    }

    /// Sends `query` to `video`. A query that fails, is refused, or stays
    /// BUSY through every retry is logged and yields `None`. With `traced`
    /// set, the reply and the index lookup behind it are folded into `acc`.
    pub fn query(
        &mut self,
        video: &str,
        query: &Query,
        acc: &mut Acc,
        traced: Option<&Tasm>,
    ) -> Result<Option<RemoteOutcome>, String> {
        let mut retries = 0;
        let result = loop {
            acc.attempts += 1;
            match self.conn.query(video, query) {
                Err(e) if e.is_busy() && retries < BUSY_RETRIES => {
                    retries += 1;
                    acc.busy_retries += 1;
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => break other,
            }
        };
        match result {
            Ok(reply) => {
                if let Some(tasm) = traced {
                    acc.record(&reply)?;
                    acc.time_lookup(tasm, video, query)?;
                }
                Ok(Some(reply))
            }
            Err(e) => {
                eprintln!("query on {video} failed: {e}");
                if !matches!(e, ClientError::Rejected { .. }) {
                    self.conn =
                        Connection::connect(self.addr).map_err(|e| format!("reconnect: {e}"))?;
                }
                Ok(None)
            }
        }
    }
}
