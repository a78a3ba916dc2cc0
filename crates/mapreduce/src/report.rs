//! Pipeline-level aggregation of job statistics.

use crate::dag::analyze::PlanDiagnostic;
use crate::job::JobStats;

/// A report over a multi-job pipeline (TSJ runs 3–6 MapReduce jobs per
/// join; the paper's reported runtime is the whole pipeline's).
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    jobs: Vec<JobStats>,
    /// Plan-analysis findings from the lowered graphs behind these jobs
    /// (warn mode only: deny mode fails the terminal instead).
    plan_diagnostics: Vec<PlanDiagnostic>,
}

impl SimReport {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one executed job's stats.
    pub fn push(&mut self, stats: JobStats) {
        self.jobs.push(stats);
    }

    /// All recorded jobs, in execution order.
    pub fn jobs(&self) -> &[JobStats] {
        &self.jobs
    }

    /// Mutable access to the recorded jobs — for driver-side annotations
    /// that only exist after a job ran (e.g. booking a
    /// [`Dataset::collect`](crate::dataset::Dataset::collect) crossing on
    /// its producing job, or attaching a post-hoc counter).
    pub fn jobs_mut(&mut self) -> &mut [JobStats] {
        &mut self.jobs
    }

    /// End-to-end simulated pipeline time (jobs run sequentially, as the
    /// stages of TSJ depend on each other).
    pub fn total_sim_secs(&self) -> f64 {
        self.jobs.iter().map(|j| j.sim_total_secs).sum()
    }

    /// Sum of a counter across all jobs.
    pub fn counter(&self, name: &str) -> u64 {
        self.jobs.iter().map(|j| j.counter(name)).sum()
    }

    /// Merges another report's jobs (pipelines composed of sub-pipelines)
    /// and its plan diagnostics.
    pub fn extend(&mut self, other: SimReport) {
        self.jobs.extend(other.jobs);
        self.plan_diagnostics.extend(other.plan_diagnostics);
    }

    /// Plan-analysis findings accumulated over the lowered graphs behind
    /// these jobs (see [`PlanDiagnostic`] for the checks; empty under
    /// [`PlanCheck::Deny`](crate::dag::analyze::PlanCheck), which fails
    /// the terminal instead of reporting).
    pub fn plan_diagnostics(&self) -> &[PlanDiagnostic] {
        &self.plan_diagnostics
    }

    /// Attaches one lowered graph's analysis findings (the dataset
    /// terminal, after a warn-mode run).
    pub(crate) fn add_plan_diagnostics(&mut self, diagnostics: Vec<PlanDiagnostic>) {
        self.plan_diagnostics.extend(diagnostics);
    }

    /// Total intermediate pairs emitted by mappers across all jobs
    /// (pre-combine).
    pub fn total_map_output_records(&self) -> u64 {
        self.jobs.iter().map(|j| j.map_output_records).sum()
    }

    /// Total records actually shuffled across all jobs (post-combine) —
    /// the volume the paper's cost analysis is about.
    pub fn total_shuffle_records(&self) -> u64 {
        self.jobs.iter().map(|j| j.shuffle_records).sum()
    }

    /// Total records spilled to disk by memory-bounded mappers across all
    /// jobs (zero when the shuffle runs unbounded).
    pub fn total_spilled_records(&self) -> u64 {
        self.jobs.iter().map(|j| j.spilled_records).sum()
    }

    /// Total bytes written to spill segments across all jobs.
    pub fn total_spill_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.spill_bytes).sum()
    }

    /// Total bytes serialized through the shuffle transport across all
    /// jobs (zero under the in-process handoff; the full post-combine
    /// exchange volume under the multi-process transport).
    pub fn total_transport_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.transport_bytes).sum()
    }

    /// Total records that crossed from driver memory into map waves.
    pub fn total_driver_in_records(&self) -> u64 {
        self.jobs.iter().map(|j| j.driver_in_records).sum()
    }

    /// Total records reduce waves handed back to driver memory. For a
    /// dataset-chained pipeline this counts only the collected terminal
    /// stages — the driver-materialization saving the dataset layer
    /// exists to deliver.
    pub fn total_driver_out_records(&self) -> u64 {
        self.jobs.iter().map(|j| j.driver_out_records).sum()
    }

    /// Total records that crossed the driver boundary in either direction
    /// (the `driver(rec)` column's TOTAL).
    pub fn total_driver_records(&self) -> u64 {
        self.total_driver_in_records() + self.total_driver_out_records()
    }

    /// Always 0: the pool has one ready queue, so no worker takes a task
    /// from a peer. Kept because the benchmark harness still reports it as
    /// `mapreduce.pool.steals`.
    pub fn total_steals(&self) -> u64 {
        0
    }

    /// Total speculative re-executions launched across all jobs.
    pub fn total_speculative_launched(&self) -> u64 {
        self.jobs.iter().map(|j| j.speculative_launched).sum()
    }

    /// Total speculative attempts that beat their primary across all jobs.
    pub fn total_speculative_won(&self) -> u64 {
        self.jobs.iter().map(|j| j.speculative_won).sum()
    }

    /// Total microseconds tasks spent queued before a worker picked them
    /// up, across all jobs.
    pub fn total_queue_wait_us(&self) -> u64 {
        self.jobs.iter().map(|j| j.queue_wait_us).sum()
    }

    /// Total logical fetch requests the remote transport issued across
    /// all jobs (real-network observability — nondeterministic, like
    /// wall-clock; zero for the other transports).
    pub fn total_fetch_requests(&self) -> u64 {
        self.jobs.iter().map(|j| j.fetch_requests).sum()
    }

    /// Total fetch retries (extra attempts after drops/timeouts,
    /// injected faults included) across all jobs.
    pub fn total_fetch_retries(&self) -> u64 {
        self.jobs.iter().map(|j| j.fetch_retries).sum()
    }

    /// Total payload bytes the remote transport's fetch clients received
    /// across all jobs.
    pub fn total_fetch_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.fetch_bytes).sum()
    }

    /// Average framed bytes per shuffled record across the jobs that
    /// actually moved bytes through a transport (the `xport(B/rec)`
    /// column's TOTAL) — the wire format's per-record cost, directly
    /// comparable across framing versions. `None` when no job exchanged
    /// bytes (e.g. the in-process handoff).
    pub fn transport_bytes_per_record(&self) -> Option<f64> {
        let (bytes, records) = self
            .jobs
            .iter()
            .filter(|j| j.transport_bytes > 0 && j.shuffle_records > 0)
            .fold((0u64, 0u64), |(b, r), j| {
                (b + j.transport_bytes, r + j.shuffle_records)
            });
        (records > 0).then(|| bytes as f64 / records as f64)
    }
}

/// Renders one `xport(B/rec)` cell: blank for jobs that moved no bytes.
fn bytes_per_record_cell(transport_bytes: u64, shuffle_records: u64) -> String {
    if transport_bytes == 0 || shuffle_records == 0 {
        String::new()
    } else {
        format!("{:.1}", transport_bytes as f64 / shuffle_records as f64)
    }
}

/// Renders one `spec(l/w)` cell: speculative attempts launched/won, blank
/// when speculation never engaged.
fn speculation_cell(launched: u64, won: u64) -> String {
    if launched == 0 {
        String::new()
    } else {
        format!("{launched}/{won}")
    }
}

/// Renders one `fetch(rpc/retry)` cell: remote-transport fetch requests
/// and retries, blank for jobs that never fetched over the network.
fn fetch_cell(requests: u64, retries: u64) -> String {
    if requests == 0 {
        String::new()
    } else {
        format!("{requests}/{retries}")
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{:<28} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>11} {:>10} {:>10} {:>10} {:>8} {:>9} {:>9} {:>16}",
            "job",
            "input",
            "emitted",
            "shuffled",
            "spilled",
            "xport(B)",
            "xport(B/rec)",
            "driver(rec)",
            "groups",
            "output",
            "sim(s)",
            "skew",
            "spec(l/w)",
            "qwait(ms)",
            "fetch(rpc/retry)"
        )?;
        for j in &self.jobs {
            writeln!(
                f,
                "{:<28} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>11} {:>10} {:>10} {:>10.2} {:>8.2} {:>9} {:>9.1} {:>16}",
                j.name,
                j.input_records,
                j.map_output_records,
                j.shuffle_records,
                j.spilled_records,
                j.transport_bytes,
                bytes_per_record_cell(j.transport_bytes, j.shuffle_records),
                j.driver_in_records + j.driver_out_records,
                j.reduce_groups,
                j.output_records,
                j.sim_total_secs,
                j.reduce.skew,
                speculation_cell(j.speculative_launched, j.speculative_won),
                j.queue_wait_us as f64 / 1e3,
                fetch_cell(j.fetch_requests, j.fetch_retries),
            )?;
        }
        write!(
            f,
            "{:<28} {:>10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>11} {:>10} {:>10} {:>10.2} {:>8} {:>9} {:>9.1} {:>16}",
            "TOTAL",
            "",
            self.total_map_output_records(),
            self.total_shuffle_records(),
            self.total_spilled_records(),
            self.total_transport_bytes(),
            self.transport_bytes_per_record()
                .map(|b| format!("{b:.1}"))
                .unwrap_or_default(),
            self.total_driver_records(),
            "",
            "",
            self.total_sim_secs(),
            "",
            speculation_cell(self.total_speculative_launched(), self.total_speculative_won()),
            self.total_queue_wait_us() as f64 / 1e3,
            fetch_cell(self.total_fetch_requests(), self.total_fetch_retries()),
        )?;
        for d in &self.plan_diagnostics {
            write!(f, "\nplan diagnostic: {d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, sim: f64) -> JobStats {
        JobStats {
            name: name.into(),
            sim_total_secs: sim,
            ..JobStats::default()
        }
    }

    #[test]
    fn totals_accumulate() {
        let mut r = SimReport::new();
        r.push(stats("a", 10.0));
        r.push(stats("b", 5.5));
        assert_eq!(r.jobs().len(), 2);
        assert!((r.total_sim_secs() - 15.5).abs() < 1e-12);
    }

    #[test]
    fn counters_sum_across_jobs() {
        let mut a = stats("a", 1.0);
        a.counters.insert("pairs", 3);
        let mut b = stats("b", 1.0);
        b.counters.insert("pairs", 4);
        let mut r = SimReport::new();
        r.push(a);
        r.push(b);
        assert_eq!(r.counter("pairs"), 7);
        assert_eq!(r.counter("absent"), 0);
    }

    #[test]
    fn display_renders_table() {
        let mut r = SimReport::new();
        r.push(stats("tsj.shared_token", 12.0));
        let rendered = format!("{r}");
        assert!(rendered.contains("tsj.shared_token"));
        assert!(rendered.contains("TOTAL"));
        assert!(rendered.contains("xport(B)"));
    }

    #[test]
    fn transport_bytes_total_across_jobs() {
        let mut a = stats("a", 1.0);
        a.transport_bytes = 100;
        let mut b = stats("b", 1.0);
        b.transport_bytes = 23;
        let mut r = SimReport::new();
        r.push(a);
        r.push(b);
        assert_eq!(r.total_transport_bytes(), 123);
    }

    #[test]
    fn transport_bytes_per_record_averages_transported_jobs_only() {
        let mut a = stats("a", 1.0);
        a.transport_bytes = 210;
        a.shuffle_records = 10;
        // An in-process job shuffles records but moves no transport bytes;
        // it must not dilute the per-record figure.
        let mut b = stats("b", 1.0);
        b.transport_bytes = 0;
        b.shuffle_records = 1000;
        let mut c = stats("c", 1.0);
        c.transport_bytes = 90;
        c.shuffle_records = 10;
        let mut r = SimReport::new();
        r.push(a);
        r.push(b);
        r.push(c);
        let per_rec = r.transport_bytes_per_record().unwrap();
        assert!((per_rec - 15.0).abs() < 1e-12, "got {per_rec}");
        // Rendered table: per-job cells plus the aggregated TOTAL cell,
        // blank for the transportless job.
        let rendered = format!("{r}");
        assert!(rendered.contains("xport(B/rec)"));
        assert!(rendered.contains("21.0"), "{rendered}");
        assert!(rendered.contains("9.0"), "{rendered}");
        assert!(rendered.contains("15.0"), "{rendered}");
    }

    #[test]
    fn transport_bytes_per_record_is_none_without_transport() {
        let mut r = SimReport::new();
        r.push(stats("a", 1.0));
        assert_eq!(r.transport_bytes_per_record(), None);
    }

    #[test]
    fn display_renders_scheduler_columns() {
        let mut a = stats("a", 1.0);
        a.speculative_launched = 2;
        a.speculative_won = 1;
        a.queue_wait_us = 1500;
        // A job the scheduler never speculated renders a blank spec cell.
        let b = stats("b", 1.0);
        let mut r = SimReport::new();
        r.push(a);
        r.push(b);
        let rendered = format!("{r}");
        assert!(!rendered.contains("steals"));
        assert!(rendered.contains("spec(l/w)"));
        assert!(rendered.contains("qwait(ms)"));
        assert!(rendered.contains("2/1"), "{rendered}");
        assert_eq!(r.total_steals(), 0);
        assert_eq!(r.total_speculative_launched(), 2);
        assert_eq!(r.total_speculative_won(), 1);
        assert_eq!(r.total_queue_wait_us(), 1500);
    }

    #[test]
    fn display_renders_fetch_column() {
        let mut a = stats("a", 1.0);
        a.fetch_requests = 12;
        a.fetch_retries = 3;
        a.fetch_bytes = 4096;
        // A non-remote job renders a blank fetch cell.
        let b = stats("b", 1.0);
        let mut r = SimReport::new();
        r.push(a);
        r.push(b);
        let rendered = format!("{r}");
        assert!(rendered.contains("fetch(rpc/retry)"));
        assert!(rendered.contains("12/3"), "{rendered}");
        assert_eq!(r.total_fetch_requests(), 12);
        assert_eq!(r.total_fetch_retries(), 3);
        assert_eq!(r.total_fetch_bytes(), 4096);
    }

    #[test]
    fn extend_merges_pipelines() {
        let mut a = SimReport::new();
        a.push(stats("x", 1.0));
        let mut b = SimReport::new();
        b.push(stats("y", 2.0));
        a.extend(b);
        assert_eq!(a.jobs().len(), 2);
        assert!((a.total_sim_secs() - 3.0).abs() < 1e-12);
    }
}
