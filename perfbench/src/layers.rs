//! Per-layer accounting for the traced run.
//!
//! Everything here is measured from the benchmark's side: the counters and
//! timings a reply already carries (`ResultSummary`, `PlanStats`,
//! `QueryTrace`), plus the benchmark's own timing of calls into public
//! functions of `tasm-proto` and `tasm-index` on the real query inputs and
//! replies. The program itself carries no extra tracing.

use std::time::{Duration, Instant};
use tasm_client::RemoteOutcome;
use tasm_core::{Query, Tasm};
use tasm_proto::{encode_region, Message};

/// Write-path timings: camera or clip ingests, index writes, stored bytes.
#[derive(Default)]
pub struct WriteLog {
    /// Frames ingested and indexed.
    pub frames: u64,
    /// Time inside `Tasm::ingest`.
    pub ingest: Duration,
    /// Time inside `Tasm::add_metadata` and `Tasm::mark_processed`.
    pub metadata: Duration,
    /// Calls to `Tasm::add_metadata`.
    pub metadata_calls: u64,
    /// `video_size_bytes` of each video right after its ingest.
    pub stored_bytes: u64,
}

impl WriteLog {
    pub fn add(&mut self, o: &WriteLog) {
        self.frames += o.frames;
        self.ingest += o.ingest;
        self.metadata += o.metadata;
        self.metadata_calls += o.metadata_calls;
        self.stored_bytes += o.stored_bytes;
    }
}

/// Sums over the replies of the traced half of a run, merged across clients.
#[derive(Default)]
pub struct Acc {
    replies: u64,
    latency: Duration,
    total_us: u64,
    queue_us: u64,
    plan_us: u64,
    exec_us: u64,
    reassemble_us: u64,
    stream_us: u64,
    server_unattributed_us: u64,
    encode: Duration,
    decode: Duration,
    reply_bytes: u64,
    lookups: u64,
    lookup: Duration,
    regions_looked_up: u64,
    samples_decoded: u64,
    samples_reused: u64,
    cache_hits: u64,
    cache_misses: u64,
    shared_owned: u64,
    shared_joined: u64,
    tiles_planned: u64,
    tiles_pruned: u64,
    gops_planned: u64,
    gops_skipped: u64,
    /// Query attempts, counting each BUSY retry as one more attempt.
    pub attempts: u64,
    pub busy_retries: u64,
}

impl Acc {
    /// Folds in one reply: its latency, server trace and accounting, and
    /// the benchmark's own timing of the wire encode and decode of its
    /// regions.
    pub fn record(&mut self, out: &RemoteOutcome) -> Result<(), String> {
        let trace = out
            .trace
            .as_ref()
            .ok_or("the server sent a reply without a trace")?;
        self.replies += 1;
        self.latency += out.latency;
        self.total_us += trace.total_micros;
        self.queue_us += trace.queue_micros;
        self.plan_us += trace.plan_micros;
        self.exec_us += out.summary.exec_micros;
        self.reassemble_us += trace.decode_micros.saturating_sub(out.summary.exec_micros);
        self.stream_us += trace.stream_micros;
        self.server_unattributed_us += trace.unattributed_micros();
        self.samples_decoded += out.summary.samples_decoded;
        self.samples_reused += out.summary.samples_reused;
        self.cache_hits += out.summary.cache_hits;
        self.cache_misses += out.summary.cache_misses;
        self.shared_owned += out.summary.shared.owned;
        self.shared_joined += out.summary.shared.joined;
        self.tiles_planned += out.plan.tiles_planned;
        self.tiles_pruned += out.plan.tiles_pruned;
        self.gops_planned += out.plan.gops_planned;
        self.gops_skipped += out.plan.gops_skipped;
        for (i, region) in out.regions.iter().enumerate() {
            let t = Instant::now();
            let frame = std::hint::black_box(encode_region(i as u64, region));
            self.encode += t.elapsed();
            let t = Instant::now();
            let msg = Message::decode_payload(&frame[4..])
                .map_err(|e| format!("re-decoding a reply region: {e}"))?;
            self.decode += t.elapsed();
            std::hint::black_box(msg);
            self.reply_bytes += frame.len() as u64;
        }
        Ok(())
    }

    /// Times the semantic-index lookup `query` plans with, through the same
    /// public entry point the planner uses.
    pub fn time_lookup(&mut self, tasm: &Tasm, video: &str, query: &Query) -> Result<(), String> {
        let id = tasm.video_id(video).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let regions = tasm
            .with_index(|ix| {
                query
                    .predicate()
                    .target_regions(ix, id, query.frame_range())
            })
            .map_err(|e| format!("index lookup: {e:?}"))?;
        self.lookup += t.elapsed();
        self.lookups += 1;
        self.regions_looked_up += regions.values().map(|r| r.len() as u64).sum::<u64>();
        Ok(())
    }

    pub fn merge(&mut self, o: &Acc) {
        self.replies += o.replies;
        self.latency += o.latency;
        self.total_us += o.total_us;
        self.queue_us += o.queue_us;
        self.plan_us += o.plan_us;
        self.exec_us += o.exec_us;
        self.reassemble_us += o.reassemble_us;
        self.stream_us += o.stream_us;
        self.server_unattributed_us += o.server_unattributed_us;
        self.encode += o.encode;
        self.decode += o.decode;
        self.reply_bytes += o.reply_bytes;
        self.lookups += o.lookups;
        self.lookup += o.lookup;
        self.regions_looked_up += o.regions_looked_up;
        self.samples_decoded += o.samples_decoded;
        self.samples_reused += o.samples_reused;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.shared_owned += o.shared_owned;
        self.shared_joined += o.shared_joined;
        self.tiles_planned += o.tiles_planned;
        self.tiles_pruned += o.tiles_pruned;
        self.gops_planned += o.gops_planned;
        self.gops_skipped += o.gops_skipped;
        self.attempts += o.attempts;
        self.busy_retries += o.busy_retries;
    }

    pub fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// Every per-layer metric, in `BENCHMARK.json` order. `retile_ops` is
    /// the `ServiceStats` delta over the traced half; `fsck` the time of the
    /// closing `Tasm::fsck`.
    pub fn metrics(
        &self,
        write: &WriteLog,
        retile_ops: u64,
        fsck: Duration,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.replies.max(1) as f64;
        let ms = |us: u64| us as f64 / 1e3 / n;
        let latency_ms = self.latency.as_secs_f64() * 1e3 / n;
        let samples = self.samples_decoded + self.samples_reused;
        vec![
            ("client.latency_ms", latency_ms, "ms"),
            (
                "client.unattributed_ms",
                latency_ms - ms(self.total_us),
                "ms",
            ),
            (
                "proto.encode_us_per_reply",
                self.encode.as_secs_f64() * 1e6 / n,
                "us",
            ),
            (
                "proto.decode_us_per_reply",
                self.decode.as_secs_f64() * 1e6 / n,
                "us",
            ),
            ("proto.reply_bytes", self.reply_bytes as f64 / n, "bytes"),
            ("server.stream_ms", ms(self.stream_us), "ms"),
            (
                "server.unattributed_ms",
                ms(self.server_unattributed_us),
                "ms",
            ),
            ("service.queue_ms", ms(self.queue_us), "ms"),
            (
                "service.busy_ratio",
                ratio(self.busy_retries, self.attempts),
                "ratio",
            ),
            ("service.retile_ops", retile_ops as f64, "count"),
            ("core.plan_ms", ms(self.plan_us), "ms"),
            ("core.exec_ms", ms(self.exec_us), "ms"),
            ("core.reassemble_ms", ms(self.reassemble_us), "ms"),
            ("core.cache_hit_ratio", self.cache_hit_ratio(), "ratio"),
            (
                "core.samples_decoded",
                self.samples_decoded as f64 / n,
                "count/query",
            ),
            (
                "core.samples_reused",
                self.samples_reused as f64 / n,
                "count/query",
            ),
            (
                "core.shared_join_ratio",
                ratio(self.shared_joined, self.shared_owned + self.shared_joined),
                "ratio",
            ),
            (
                "core.exec_ns_per_sample",
                if samples == 0 {
                    0.0
                } else {
                    self.exec_us as f64 * 1e3 / samples as f64
                },
                "ns",
            ),
            (
                "core.tiles_planned",
                self.tiles_planned as f64 / n,
                "count/query",
            ),
            (
                "core.tiles_pruned",
                self.tiles_pruned as f64 / n,
                "count/query",
            ),
            (
                "core.gops_planned",
                self.gops_planned as f64 / n,
                "count/query",
            ),
            (
                "core.gops_skipped",
                self.gops_skipped as f64 / n,
                "count/query",
            ),
            (
                "index.lookup_ms",
                self.lookup.as_secs_f64() * 1e3 / self.lookups.max(1) as f64,
                "ms",
            ),
            (
                "index.regions_per_lookup",
                self.regions_looked_up as f64 / self.lookups.max(1) as f64,
                "count",
            ),
            (
                "index.add_metadata_us",
                write.metadata.as_secs_f64() * 1e6 / write.metadata_calls.max(1) as f64,
                "us",
            ),
            (
                "codec.ingest_ms_per_frame",
                write.ingest.as_secs_f64() * 1e3 / write.frames.max(1) as f64,
                "ms",
            ),
            (
                "storage.bytes_per_frame",
                write.stored_bytes as f64 / write.frames.max(1) as f64,
                "bytes",
            ),
            ("storage.fsck_ms", fsck.as_secs_f64() * 1e3, "ms"),
        ]
    }

    /// Prints where the mean client latency went. The rows add up to the
    /// latency by construction; `client.unattributed_ms` (the wire, the
    /// socket writes and the client's decode) is the share the server
    /// trace cannot see.
    pub fn print_attribution(&self, workload: &str) {
        let n = self.replies.max(1) as f64;
        let lat = self.latency.as_secs_f64() * 1e3 / n;
        let ms = |us: u64| us as f64 / 1e3 / n;
        let rows = [
            ("service.queue_ms", ms(self.queue_us)),
            ("core.plan_ms", ms(self.plan_us)),
            ("core.exec_ms", ms(self.exec_us)),
            ("core.reassemble_ms", ms(self.reassemble_us)),
            ("server.unattributed_ms", ms(self.server_unattributed_us)),
            ("client.unattributed_ms", lat - ms(self.total_us)),
        ];
        println!(
            "attribution of client.latency_ms = {lat:.3} ms over {} traced replies ({workload}):",
            self.replies
        );
        for (name, v) in rows {
            println!("  {name:<26} {v:>9.3} ms  {:>6.1}%", 100.0 * v / lat);
        }
        println!(
            "  of client.unattributed_ms: server.stream_ms {:.3} ms; off-path re-timing of the \
             reply: proto encode {:.3} ms, proto decode {:.3} ms",
            ms(self.stream_us),
            self.encode.as_secs_f64() * 1e3 / n,
            self.decode.as_secs_f64() * 1e3 / n,
        );
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}
