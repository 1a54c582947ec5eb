//! `ingest-retile`: new video arrives while drifting queries steer the
//! regret daemon, so re-tiles run in the background for the whole run.
//!
//! One client repeats a cycle. It ingests the next short clip of a camera
//! feed and indexes its ground-truth detections as a detector would, then
//! sends five rounds of the paper's Workload 4 against that clip (200
//! queries each, whose target drifts car → person → car) through a server
//! running the regret policy. Every cycle gives the daemon new work, so
//! re-tiles run beside encode, index writes and reads for the whole window;
//! a read-side change that re-tiles more shows up as lower `qps`, a higher
//! `query_p50_ms` or a higher `store_bytes_ratio`.
//!
//! `qps` here counts the client's whole cycle, ingest included, so slower
//! ingest or slower queries both lower it.

use crate::layers::{Acc, WriteLog};
use crate::setup::{self, same_regions, Session};
use crate::stats::{self, median, Latencies};
use crate::{Report, RunCfg};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tasm_client::Connection;
use tasm_core::{LabelPredicate, Query, Tasm};
use tasm_data::{workload4, Dataset, SyntheticVideo, WorkloadParams};
use tasm_server::TasmServer;
use tasm_service::RetilePolicy;

/// Clips ingested during set-up; `setup_s` is the median of their set-ups.
const SETUP_CLIPS: u64 = 3;
/// Clip length in seconds at 30 fps: two 30-frame SOTs.
const CLIP_SECS: u32 = 2;
/// Frames per query window.
const WINDOW: u32 = 30;
/// Rounds of Workload 4 per clip. The first reads of a fresh clip decode
/// whole GOPs and often overlap the previous clip's re-tiles; with one
/// round they set most of a cycle's time, and `qps` and `query_p50_ms`
/// spread 13-15% between runs. With five rounds two sets of ten runs
/// spread 6-7% and 7-13%.
const ROUNDS: u64 = 5;
/// Decoded-GOP cache budget: about 1.5x the decoded frames of one clip
/// (60 frames of 640x352 4:2:0 is 20 MiB). The clip under query stays
/// cached, and the cache fills within the first cycles, so peak RSS does
/// not grow with the number of cycles a run completes.
const CACHE: u64 = 32 << 20;
const WARMUP: Duration = Duration::from_secs(1);

/// The `i`-th clip of the camera feed. The feed is the same in every run,
/// like a dataset, because scenes differ enough in object counts to move
/// every metric by 15-40% between seeds; `--seed` draws the queries.
fn clip(i: u64) -> SyntheticVideo {
    Dataset::VisualRoad2K.build(CLIP_SECS, 1 + i)
}

/// The clips ingested so far.
#[derive(Default)]
struct Clips {
    names: Vec<String>,
    raw_bytes: u64,
}

#[derive(Default)]
struct Phase {
    /// Grouped by complete cycle: a cycle's rate is its queries over its
    /// wall time, ingest included, as the client's closed loop sees it. A
    /// re-tile slows either the ingest or the burst it overlaps, so the
    /// cycle is steadier than either part.
    lat: Latencies,
    attempted: u64,
    failed: u64,
    /// Ingests that completed inside the window.
    write: WriteLog,
    acc: Acc,
    /// `retile_ops` at the start, at each third and at the end.
    retiles: [u64; 4],
}

struct Run<'a> {
    tasm: &'a Arc<Tasm>,
    server: &'a TasmServer,
    clips: Clips,
    seed: u64,
}

impl Run<'_> {
    /// Ingest-then-query cycles until `deadline`.
    fn cycles(&mut self, traced: bool, deadline: Instant) -> Result<Phase, String> {
        let mut out = Phase::default();
        let mut session = Session::connect(self.server.local_addr())?;
        let traced = traced.then_some(&**self.tasm);
        while Instant::now() < deadline {
            let cycle = Instant::now();
            let i = self.clips.names.len() as u64;
            let (video, name) = (clip(i), format!("clip{i}"));
            out.attempted += 1;
            let mut one = WriteLog::default();
            setup::ingest(self.tasm, &name, &video, &mut one)?;
            if Instant::now() <= deadline {
                out.write.add(&one);
            }
            self.clips.names.push(name.clone());
            self.clips.raw_bytes += setup::raw_bytes(&video);

            let burst: Vec<_> = (0..ROUNDS)
                .flat_map(|r| {
                    workload4(WorkloadParams::new(
                        CLIP_SECS * 30,
                        WINDOW,
                        self.seed ^ (i << 32) ^ r,
                    ))
                })
                .collect();
            let (total, mut latencies) = (burst.len(), Vec::new());
            for q in burst {
                if Instant::now() >= deadline {
                    break;
                }
                let query = Query::new(LabelPredicate::label(&q.label)).frames(q.frames);
                out.attempted += 1;
                match session.query(&name, &query, &mut out.acc, traced)? {
                    Some(reply) => latencies.push(reply.latency.as_secs_f64() * 1e3),
                    None => out.failed += 1,
                }
            }
            // A cycle the deadline cut short counts towards no metric.
            if latencies.len() == total {
                out.lat.push_group(&latencies, cycle.elapsed());
            }
        }
        Ok(out)
    }

    /// One timed phase of cycles, while this thread samples the daemon's
    /// re-tile count at each third of the window.
    fn phase(&mut self, traced: bool, window: Duration) -> Result<Phase, String> {
        let start = Instant::now();
        let deadline = start + window;
        let server = self.server;
        let retile_ops = || server.stats().retile_ops;
        let mut retiles = [retile_ops(), 0, 0, 0];
        let cycles = std::thread::scope(|s| {
            let client = s.spawn(|| self.cycles(traced, deadline));
            for (i, slot) in retiles.iter_mut().enumerate().skip(1).take(2) {
                let at = start + window * i as u32 / 3;
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
                *slot = retile_ops();
            }
            client
                .join()
                .unwrap_or_else(|_| Err("client thread panicked".to_string()))
        });
        let mut phase = cycles?;
        retiles[3] = retile_ops();
        phase.retiles = retiles;
        Ok(phase)
    }
}

/// After the daemon has drained: every clip re-queried through a fresh
/// server must equal the in-process result `AS OF` its final epoch.
fn check_final(tasm: &Arc<Tasm>, nproc: usize, names: &[String]) -> Result<(), String> {
    let server = setup::serve(tasm, nproc, RetilePolicy::Off)?;
    let mut conn = Connection::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for name in names {
        let query = Query::new(LabelPredicate::label("car")).frames(0..CLIP_SECS * 30);
        let remote = conn
            .query(name, &query)
            .map_err(|e| format!("final re-query of {name}: {e}"))?;
        let epoch = tasm.current_epoch(name).map_err(|e| e.to_string())?;
        let local = tasm
            .query(name, &query.as_of(epoch))
            .map_err(|e| format!("in-process AS OF {epoch} on {name}: {e}"))?;
        if remote.epoch != epoch
            || remote.matched != local.matched
            || !same_regions(&remote.regions, &local.regions)
        {
            return Err(format!(
                "final re-query of {name} differs from AS OF epoch {epoch}"
            ));
        }
    }
    server.shutdown();
    Ok(())
}

pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let tasm = setup::open_store(&cfg.dir, CACHE)?;
    let server = setup::serve(&tasm, cfg.nproc, RetilePolicy::Regret)?;
    let mut run = Run {
        tasm: &tasm,
        server: &server,
        clips: Clips::default(),
        seed: cfg.seed,
    };
    let mut setups = Vec::new();
    for i in 0..SETUP_CLIPS {
        let t = Instant::now();
        let (video, name) = (clip(i), format!("clip{i}"));
        setup::ingest(&tasm, &name, &video, &mut WriteLog::default())?;
        setups.push(t.elapsed().as_secs_f64());
        run.clips.names.push(name);
        run.clips.raw_bytes += setup::raw_bytes(&video);
    }
    println!(
        "threads: 1 client connection, {} service workers x 1 decode worker, regret daemon (nproc {})",
        cfg.nproc, cfg.nproc
    );
    run.phase(false, WARMUP)?;
    let (timed, traced) = if cfg.trace {
        let half = cfg.window / 2;
        let plain = run.phase(false, half)?;
        (plain, Some(run.phase(true, half)?))
    } else {
        (run.phase(false, cfg.window)?, None)
    };
    let clips = std::mem::take(&mut run.clips);
    let report = server.shutdown();

    // Correctness, after the daemon has drained.
    let fsck = setup::fsck_clean(&tasm)?;
    check_final(&tasm, cfg.nproc, &clips.names)?;
    println!(
        "correctness: fsck clean; {} clips re-queried bit-identical to AS OF their final epoch; \
         {} re-tiles, {} re-tile errors",
        clips.names.len(),
        report.service.stats.retile_ops,
        report.service.stats.retile_errors
    );
    if report.service.stats.retile_errors > 0 {
        return Err(format!(
            "{} background re-tiles failed",
            report.service.stats.retile_errors
        ));
    }
    let store_bytes_ratio = setup::store_bytes_ratio(&tasm, &clips.names, clips.raw_bytes)?;

    let last = traced.as_ref().unwrap_or(&timed);
    let per_third: Vec<u64> = last.retiles.windows(2).map(|w| w[1] - w[0]).collect();
    println!("re-tiles per third of the window: {per_third:?}");

    let Some(traced) = traced else {
        let n = timed.lat.len();
        println!(
            "latency samples: {n}, frames ingested: {}",
            timed.write.frames
        );
        return Ok(Report {
            attempted: timed.attempted,
            failed: timed.failed,
            metrics: vec![
                ("qps", timed.lat.qps(), "1/s"),
                ("query_p50_ms", timed.lat.p50(), "ms"),
                ("store_bytes_ratio", store_bytes_ratio, "ratio"),
                ("peak_rss_mb", crate::peak_rss_mb()?, "MiB"),
                ("setup_s", median(&setups), "s"),
            ],
        });
    };

    if per_third.contains(&0) {
        return Err(format!(
            "re-tiling stopped in part of the traced window: {per_third:?}"
        ));
    }
    traced.acc.print_attribution("ingest-retile");
    stats::print_overhead(&timed.lat, &traced.lat);
    Ok(Report {
        attempted: timed.attempted + traced.attempted,
        failed: timed.failed + traced.failed,
        metrics: traced
            .acc
            .metrics(&traced.write, traced.retiles[3] - traced.retiles[0], fsck),
    })
}
