//! Robust summaries of a timed phase.
//!
//! The CPU speed of a small shared machine drifts by up to 20% from one
//! second to the next. Rates and medians are therefore taken per group —
//! one-second slices of a closed loop, or one cycle of ingest and queries —
//! and the median over groups is reported, so a few slow or fast seconds do
//! not move the result.

use std::time::Duration;

/// Median of a sample; NaN if it is empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[m - 1] + v[m]) / 2.0
    } else {
        v[m]
    }
}

/// Query latencies of one timed phase, in milliseconds, by complete group.
#[derive(Default)]
pub struct Latencies {
    /// Per group: queries per second.
    rates: Vec<f64>,
    /// Per group: median latency.
    p50s: Vec<f64>,
    count: usize,
    sum: f64,
}

impl Latencies {
    /// Adds a complete group: `latencies` completed in `span`.
    pub fn push_group(&mut self, latencies: &[f64], span: Duration) {
        if latencies.is_empty() {
            return;
        }
        self.rates.push(latencies.len() as f64 / span.as_secs_f64());
        self.p50s.push(median(latencies));
        self.count += latencies.len();
        self.sum += latencies.iter().sum::<f64>();
    }

    /// Groups `(completed_at, latency)` pairs of a closed loop into the
    /// one-second slices of `window`; completions after it are dropped.
    pub fn sliced(mut done: Vec<(Duration, f64)>, window: Duration) -> Latencies {
        done.sort_by_key(|d| d.0);
        let mut out = Latencies::default();
        let slice = Duration::from_secs(1);
        let mut rest = done.as_slice();
        for i in 1..=window.as_secs() as u32 {
            let n = rest.partition_point(|d| d.0 < slice * i);
            let group: Vec<f64> = rest[..n].iter().map(|d| d.1).collect();
            out.push_group(&group, slice);
            rest = &rest[n..];
        }
        out
    }

    /// Latencies in complete groups.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn qps(&self) -> f64 {
        median(&self.rates)
    }

    pub fn p50(&self) -> f64 {
        median(&self.p50s)
    }

    pub fn mean(&self) -> f64 {
        self.sum / self.count.max(1) as f64
    }
}

/// Prints the traced-minus-untraced difference of the same workload.
pub fn print_overhead(untraced: &Latencies, traced: &Latencies) {
    let pct = |a: f64, b: f64| 100.0 * (b - a) / a;
    println!(
        "tracing overhead: qps {:.1} untraced vs {:.1} traced ({:+.1}%), mean latency {:.3} vs \
         {:.3} ms ({:+.1}%)",
        untraced.qps(),
        traced.qps(),
        pct(untraced.qps(), traced.qps()),
        untraced.mean(),
        traced.mean(),
        pct(untraced.mean(), traced.mean()),
    );
}
