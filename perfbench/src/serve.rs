//! `warm-serve` and `cold-select`: `nproc` closed-loop connections query a
//! store of KQKO-tiled 2K Visual Road cameras through the server.
//!
//! Both workloads read the same kind of store and differ in what they
//! stress. `warm-serve` keeps the decoded working set inside the cache, so
//! decode drops out and the time goes to reassembly, wire encode, reactor
//! writes and client decode. `cold-select` gives the cache a quarter of the
//! working set and mixes labels, ROIs and strides, so tile decode, the exec
//! pipeline and the planner's pruning dominate.

use crate::layers::{Acc, WriteLog};
use crate::setup::{self, same_regions, Session};
use crate::stats::{self, median, Latencies};
use crate::{Report, RunCfg, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tasm_core::{LabelPredicate, Query, RegionPixels, Tasm, TasmConfig};
use tasm_data::{Dataset, Zipf};
use tasm_service::RetilePolicy;
use tasm_video::{FrameSource, Rect};

/// Cameras in the store. Each is set up on its own, so `setup_s` is the
/// median of this many set-ups.
const CAMERAS: u64 = 2;
/// Scene seed of the first camera. The cameras are a fixed corpus, like a
/// dataset: scenes differ enough in object counts that drawing them from
/// `--seed` moved `qps` by 40% between seeds. `--seed` draws the query
/// stream.
const CORPUS_SEED: u64 = 1;
const CAMERA_SECS: u32 = 10;
/// Labels every camera is KQKO-tiled for.
const TILED_FOR: [&str; 2] = ["car", "person"];
/// `warm-serve` windows: long enough that a reply takes several ms, so
/// loopback and scheduler jitter stay a small share of it.
const WARM_WINDOW: u32 = 150;
/// `cold-select` windows, as in the paper's Workload 3.
const COLD_WINDOW: u32 = 60;
/// `cold-select` cache budget; the run checks it is at most a quarter of
/// the decoded working set of its most-read label.
const COLD_CACHE: u64 = 8 << 20;
/// Every fifth `cold-select` query adds an ROI and stride 2.
const ROI_EVERY: u64 = 5;
/// Untimed warm-up before the measured window, so the connections, the
/// worker threads and the cache's LRU order are in steady state.
const WARMUP: Duration = Duration::from_secs(1);
/// Every `SAMPLE_EVERY`-th reply of a client is kept, up to
/// `SAMPLES_PER_CLIENT`, and compared after the run with the in-process
/// result at the same epoch.
const SAMPLE_EVERY: u64 = 37;
const SAMPLES_PER_CLIENT: usize = 8;

/// The query stream of one client.
struct QueryGen {
    workload: Workload,
    frames: u32,
    width: u32,
    height: u32,
    zipf: Zipf,
}

impl QueryGen {
    /// The `k`-th query of a client: the camera it targets and the query.
    fn next(&self, rng: &mut StdRng, k: u64) -> (usize, Query) {
        let cam = rng.gen_range(0..CAMERAS as usize);
        match self.workload {
            Workload::WarmServe => {
                let label = TILED_FOR[rng.gen_range(0..TILED_FOR.len())];
                let start = rng.gen_range(0..self.frames - WARM_WINDOW + 1);
                let q = Query::new(LabelPredicate::label(label)).frames(start..start + WARM_WINDOW);
                (cam, q)
            }
            _ => {
                // Paper Workload 3: 47.5% car, 47.5% person, 5% traffic
                // light, Zipfian start frames.
                let r: f64 = rng.gen();
                let label = if r < 0.475 {
                    "car"
                } else if r < 0.95 {
                    "person"
                } else {
                    "traffic_light"
                };
                let start = (self.zipf.sample(rng) as u32).min(self.frames - COLD_WINDOW);
                let mut q =
                    Query::new(LabelPredicate::label(label)).frames(start..start + COLD_WINDOW);
                if k.is_multiple_of(ROI_EVERY) {
                    let (w, h) = (self.width / 2, self.height / 2);
                    let x = 16 * rng.gen_range(0..w / 16 + 1);
                    let y = 16 * rng.gen_range(0..h / 16 + 1);
                    q = q.roi(Rect::new(x, y, w, h)).stride(2);
                }
                (cam, q)
            }
        }
    }
}

/// A reply kept for the correctness check.
struct Sample {
    video: String,
    query: Query,
    epoch: u64,
    matched: u64,
    regions: Vec<RegionPixels>,
}

/// What one timed phase of all clients produced.
#[derive(Default)]
struct Phase {
    /// `(completed_at, latency_ms)` of every reply.
    done: Vec<(Duration, f64)>,
    lat: Latencies,
    attempted: u64,
    failed: u64,
    samples: Vec<Sample>,
    acc: Acc,
}

struct Client<'a> {
    tid: u64,
    addr: SocketAddr,
    names: &'a [String],
    gen: &'a QueryGen,
    tasm: &'a Tasm,
    seed: u64,
    traced: bool,
}

impl Client<'_> {
    fn run(&self, start: Instant, deadline: Instant) -> Result<Phase, String> {
        let mut out = Phase::default();
        let mut session = Session::connect(self.addr)?;
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (self.tid + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut k = 0u64;
        while Instant::now() < deadline {
            let (cam, query) = self.gen.next(&mut rng, k);
            let video = &self.names[cam];
            k += 1;
            out.attempted += 1;
            let traced = self.traced.then_some(self.tasm);
            match session.query(video, &query, &mut out.acc, traced)? {
                Some(reply) => {
                    out.done
                        .push((start.elapsed(), reply.latency.as_secs_f64() * 1e3));
                    if k.is_multiple_of(SAMPLE_EVERY) && out.samples.len() < SAMPLES_PER_CLIENT {
                        out.samples.push(Sample {
                            video: video.clone(),
                            query,
                            epoch: reply.epoch,
                            matched: reply.matched,
                            regions: reply.regions,
                        });
                    }
                }
                None => out.failed += 1,
            }
        }
        Ok(out)
    }
}

/// Runs `nproc` clients for `window` and merges what they measured.
fn measure(clients: &[Client], window: Duration) -> Result<Phase, String> {
    let start = Instant::now();
    let deadline = start + window;
    let results: Vec<Result<Phase, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|c| s.spawn(move || c.run(start, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let mut phase = Phase::default();
    for r in results {
        let r = r?;
        phase.done.extend(r.done);
        phase.attempted += r.attempted;
        phase.failed += r.failed;
        phase.samples.extend(r.samples);
        phase.acc.merge(&r.acc);
    }
    phase.lat = Latencies::sliced(std::mem::take(&mut phase.done), window);
    Ok(phase)
}

/// Samples decoded or served from cache by one full-range pass over each of
/// `labels`, per label, summed over the cameras: the decoded working set.
fn working_set(
    tasm: &Tasm,
    names: &[String],
    labels: &[&str],
    frames: u32,
) -> Result<Vec<u64>, String> {
    labels
        .iter()
        .map(|label| {
            names.iter().try_fold(0u64, |acc, name| {
                let q = Query::new(LabelPredicate::label(label)).frames(0..frames);
                let r = tasm
                    .query(name, &q)
                    .map_err(|e| format!("working-set pass: {e}"))?;
                Ok(acc + r.stats.samples_decoded + r.cache.samples_reused)
            })
        })
        .collect()
}

/// Compares each kept remote reply with the in-process result at the same
/// epoch, bit for bit.
fn check_samples(tasm: &Tasm, samples: &[Sample]) -> Result<(), String> {
    for s in samples {
        let local = tasm
            .query(&s.video, &s.query.clone().as_of(s.epoch))
            .map_err(|e| format!("in-process re-query: {e}"))?;
        if local.matched != s.matched || !same_regions(&local.regions, &s.regions) {
            return Err(format!(
                "remote reply differs from in-process Tasm::query at epoch {} for {:?} on {}",
                s.epoch, s.query, s.video
            ));
        }
    }
    Ok(())
}

pub fn run(workload: Workload, cfg: &RunCfg) -> Result<Report, String> {
    let warm = workload == Workload::WarmServe;
    let cache = if warm {
        TasmConfig::default().cache_bytes
    } else {
        COLD_CACHE
    };
    let tasm = setup::open_store(&cfg.dir, cache)?;

    // Set-up: each camera is built, ingested, indexed and KQKO-tiled on
    // its own and timed on its own.
    let mut write = WriteLog::default();
    let (mut setups, mut names, mut raw) = (Vec::new(), Vec::new(), 0u64);
    let tiled_for: Vec<String> = TILED_FOR.iter().map(|s| s.to_string()).collect();
    let (mut frames, mut width, mut height) = (0, 0, 0);
    for c in 0..CAMERAS {
        let t = Instant::now();
        let video = Dataset::VisualRoad2K.build(CAMERA_SECS, CORPUS_SEED + c);
        let name = format!("cam{c}");
        setup::ingest(&tasm, &name, &video, &mut write)?;
        tasm.kqko_retile_all(&name, &tiled_for)
            .map_err(|e| format!("KQKO tiling of {name}: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        raw += setup::raw_bytes(&video);
        (frames, width, height) = (video.len(), video.width(), video.height());
        names.push(name);
    }
    let store_bytes_ratio = setup::store_bytes_ratio(&tasm, &names, raw)?;
    let server = setup::serve(&tasm, cfg.nproc, RetilePolicy::Off)?;

    // One in-process pass over every label sizes the working set; on
    // warm-serve it also fills the cache.
    let labels: &[&str] = if warm {
        &TILED_FOR
    } else {
        &["car", "person", "traffic_light"]
    };
    let ws = working_set(&tasm, &names, labels, frames)?;
    if warm {
        let total: u64 = ws.iter().sum();
        println!(
            "working set {:.1} MiB (car + person), cache {} MiB",
            total as f64 / 1048576.0,
            cache >> 20
        );
        if total > cache {
            return Err(format!(
                "warm-serve working set {total} B exceeds the {cache} B cache"
            ));
        }
    } else {
        let largest = ws.iter().copied().max().unwrap_or(0);
        println!(
            "working set {:.1} MiB (largest single label), cache {} MiB",
            largest as f64 / 1048576.0,
            cache >> 20
        );
        if cache * 4 > largest {
            return Err(format!(
                "cold-select cache {cache} B is more than a quarter of the {largest} B working set"
            ));
        }
    }
    println!(
        "threads: {} client connections, {} service workers x 1 decode worker (nproc {})",
        cfg.nproc, cfg.nproc, cfg.nproc
    );

    let gen = QueryGen {
        workload,
        frames,
        width,
        height,
        zipf: Zipf::new(frames as usize, 1.0),
    };
    let clients = |traced: bool, seed: u64| -> Vec<Client> {
        (0..cfg.nproc as u64)
            .map(|tid| Client {
                tid,
                addr: server.local_addr(),
                names: &names,
                gen: &gen,
                tasm: &tasm,
                seed,
                traced,
            })
            .collect()
    };
    measure(&clients(false, !cfg.seed), WARMUP)?;

    let (mut timed, mut traced, retile_ops) = if cfg.trace {
        let half = cfg.window / 2;
        let plain = measure(&clients(false, cfg.seed), half)?;
        let before = server.stats().retile_ops;
        let traced = measure(&clients(true, cfg.seed.wrapping_add(1)), half)?;
        (plain, Some(traced), server.stats().retile_ops - before)
    } else {
        (measure(&clients(false, cfg.seed), cfg.window)?, None, 0)
    };
    let report = server.shutdown();

    // Correctness, outside the timed window.
    let mut samples = std::mem::take(&mut timed.samples);
    if let Some(t) = traced.as_mut() {
        samples.append(&mut t.samples);
    }
    if samples.is_empty() {
        return Err("no reply was sampled for the correctness check".to_string());
    }
    check_samples(&tasm, &samples)?;
    let fsck = setup::fsck_clean(&tasm)?;
    println!(
        "correctness: {} sampled replies bit-identical to in-process queries; fsck clean; {} busy rejections",
        samples.len(),
        report.busy_rejections
    );

    let Some(traced) = traced else {
        let n = timed.lat.len();
        println!("latency samples: {n}");
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

    // Traced run: stress checks, attribution, overhead, per-layer metrics.
    let hit = traced.acc.cache_hit_ratio();
    if warm && hit < 0.95 {
        return Err(format!(
            "warm-serve cache hit ratio {hit:.3} is below 0.95: decode did not drop out"
        ));
    }
    if !warm && hit > 0.5 {
        return Err(format!(
            "cold-select cache hit ratio {hit:.3} is above 0.5: decode does not dominate"
        ));
    }
    println!("stress check: cache hit ratio {hit:.3}");
    traced
        .acc
        .print_attribution(if warm { "warm-serve" } else { "cold-select" });
    stats::print_overhead(&timed.lat, &traced.lat);
    Ok(Report {
        attempted: timed.attempted + traced.attempted,
        failed: timed.failed + traced.failed,
        metrics: traced.acc.metrics(&write, retile_ops, fsck),
    })
}
