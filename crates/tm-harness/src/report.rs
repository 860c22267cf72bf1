//! Figure-shaped tables (thread sweep x algorithm) and Table-1-style statistics
//! reports.

use crate::driver::RunResult;
use htm_sim::AbortCode;
use part_htm_core::CommitPath;

/// What a table's cells mean.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Transactions per second (the paper's "tx/sec" micro-benchmark axes).
    Throughput,
    /// Speed-up over single-threaded sequential execution (the paper's STAMP and
    /// EigenBench axes).
    Speedup,
    /// Commits per million simulated work units (virtual-time sweeps): the
    /// deterministic, host-independent analogue of tx/s under the
    /// discrete-event clock.
    VirtualThroughput,
}

impl Unit {
    fn label(self) -> &'static str {
        match self {
            Unit::Throughput => "tx/s",
            Unit::Speedup => "speedup vs sequential",
            Unit::VirtualThroughput => "commits per Mwu (virtual time)",
        }
    }
}

/// A reproduced figure: one row per thread count, one column per algorithm.
pub struct Table {
    /// Experiment id, e.g. "fig3a".
    pub id: String,
    /// Human title, e.g. the paper's caption.
    pub title: String,
    /// Cell unit.
    pub unit: Unit,
    /// Column headers.
    pub algos: Vec<&'static str>,
    /// Row headers.
    pub threads: Vec<usize>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<f64>>,
    /// Optional Table-1-style statistics reports (one per algorithm, taken at the
    /// sweep's last thread count) appended below the series when present.
    pub reports: Vec<StatsReport>,
}

impl Table {
    /// Create an empty table.
    pub fn new(id: &str, title: &str, unit: Unit, algos: Vec<&'static str>) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            unit,
            algos,
            threads: Vec::new(),
            cells: Vec::new(),
            reports: Vec::new(),
        }
    }

    /// Append one thread-count row.
    pub fn push_row(&mut self, threads: usize, values: Vec<f64>) {
        assert_eq!(values.len(), self.algos.len());
        self.threads.push(threads);
        self.cells.push(values);
    }

    /// The column index of `algo`, if present.
    pub fn col(&self, algo: &str) -> Option<usize> {
        self.algos.iter().position(|a| *a == algo)
    }

    /// Value at (threads, algo) if present.
    pub fn value(&self, threads: usize, algo: &str) -> Option<f64> {
        let r = self.threads.iter().position(|&t| t == threads)?;
        Some(self.cells[r][self.col(algo)?])
    }

    /// Render in the paper's series layout.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# {} — {} [{}]\n",
            self.id,
            self.title,
            self.unit.label()
        ));
        out.push_str(&format!("{:>8}", "threads"));
        for a in &self.algos {
            out.push_str(&format!("  {a:>16}"));
        }
        out.push('\n');
        for (t, row) in self.threads.iter().zip(&self.cells) {
            out.push_str(&format!("{t:>8}"));
            for v in row {
                out.push_str(&format!("  {v:>16.2}"));
            }
            out.push('\n');
        }
        if !self.reports.is_empty() {
            let last = self.threads.last().copied().unwrap_or(0);
            out.push_str(&format!("\n  statistics at {last} threads:\n  "));
            out.push_str(&StatsReport::header());
            out.push('\n');
            for r in &self.reports {
                out.push_str("  ");
                out.push_str(&r.render_row());
                out.push('\n');
            }
            let hot: Vec<String> = self
                .reports
                .iter()
                .filter_map(|r| r.render_hot_path())
                .collect();
            if !hot.is_empty() {
                out.push_str("\n  partitioned-path hot loop:\n");
                for line in hot {
                    out.push_str("  ");
                    out.push_str(&line);
                    out.push('\n');
                }
            }
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("threads");
        for a in &self.algos {
            out.push(',');
            out.push_str(a);
        }
        out.push('\n');
        for (t, row) in self.threads.iter().zip(&self.cells) {
            out.push_str(&t.to_string());
            for v in row {
                out.push_str(&format!(",{v:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// A Table-1-style statistics report: abort breakdown and commit-path breakdown for
/// one run.
pub struct StatsReport {
    /// Algorithm name (the paper's row label).
    pub label: String,
    /// Percent of aborts per cause {conflict, capacity, explicit, other}.
    pub abort_pct: [f64; 4],
    /// Percent of commits per path {GL, HTM, SW}.
    pub commit_pct: [f64; 3],
    /// Raw totals for context.
    pub total_aborts: u64,
    /// Committed transactions.
    pub total_commits: u64,
    /// In-flight validations decided by the ring-summary fast path.
    pub val_fast_hits: u64,
    /// In-flight validations that fell back to the precise per-entry walk.
    pub val_fast_misses: u64,
    /// Fast-pass misses caused by a dirty summary (eager resets cure these).
    pub summary_miss_dirty: u64,
    /// Fast-pass misses caused by transient instability (in-flight publisher,
    /// reset churn; eager resets only create more).
    pub summary_miss_inflight: u64,
    /// Ring-summary resets performed (each retires one epoch bank).
    pub summary_resets: u64,
    /// Sub-HTM segment failures rolled back through the signature journal.
    pub journal_rollbacks: u64,
    /// Fast-path attempts the adaptive planner demoted straight to the
    /// partitioned path (learned futility or the static hint prior).
    pub site_demotions: u64,
    /// Clean partitioned commits after which the planner doubled a site's
    /// segment-merge group.
    pub plan_merges: u64,
    /// Merged sub-HTM groups split back to finer segments after a
    /// capacity-class abort.
    pub plan_splits: u64,
    /// Transactions an admission controller shed straight to the global lock
    /// (a subset of the GL commits).
    pub shed_commits: u64,
    /// Multi-request group commits executed (tm-server batching).
    pub batch_groups: u64,
    /// Requests carried by those group commits.
    pub batch_reqs: u64,
}

impl StatsReport {
    /// Build from a run result. The "SW" column is the partitioned path for Part-HTM
    /// and the STM path for the hybrids, matching Table 1's layout.
    pub fn from_run(r: &RunResult) -> Self {
        let sw = r.tm.commit_pct(CommitPath::SubHtm) + r.tm.commit_pct(CommitPath::Stm);
        Self {
            label: r.algo.to_string(),
            abort_pct: [
                r.hw.abort_pct(AbortCode::Conflict),
                r.hw.abort_pct(AbortCode::Capacity),
                r.hw.abort_pct(AbortCode::Explicit(0)),
                // Table 1 keeps the paper's combined "other" bucket: timer + interrupt.
                r.hw.abort_pct(AbortCode::Timer) + r.hw.abort_pct(AbortCode::Interrupt),
            ],
            commit_pct: [
                r.tm.commit_pct(CommitPath::GlobalLock),
                r.tm.commit_pct(CommitPath::Htm),
                sw,
            ],
            total_aborts: r.hw.aborts_total(),
            total_commits: r.tm.commits_total(),
            val_fast_hits: r.tm.val_fast_hits,
            val_fast_misses: r.tm.val_fast_misses,
            summary_miss_dirty: r.tm.summary_miss_dirty,
            summary_miss_inflight: r.tm.summary_miss_inflight,
            summary_resets: r.tm.summary_resets,
            journal_rollbacks: r.tm.journal_rollbacks,
            site_demotions: r.tm.site_demotions,
            plan_merges: r.tm.plan_merges,
            plan_splits: r.tm.plan_splits,
            shed_commits: r.tm.shed_commits,
            batch_groups: r.tm.batch_groups,
            batch_reqs: r.tm.batch_reqs,
        }
    }

    /// The report as one flat JSON object (dependency-free, like the bench
    /// emitters): every counter under its field name, percentages under
    /// `abort_pct_{conflict,capacity,explicit,other}` and
    /// `commit_pct_{gl,htm,sw}`. This is what `tm-server` prints as its stats
    /// snapshot and writes to its periodic dump file, so the admission
    /// controller's decisions (`shed_commits`, `batch_groups`) are observable
    /// without a debugger.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\n  \"label\": \"{}\",", self.label));
        let pcts = [
            ("abort_pct_conflict", self.abort_pct[0]),
            ("abort_pct_capacity", self.abort_pct[1]),
            ("abort_pct_explicit", self.abort_pct[2]),
            ("abort_pct_other", self.abort_pct[3]),
            ("commit_pct_gl", self.commit_pct[0]),
            ("commit_pct_htm", self.commit_pct[1]),
            ("commit_pct_sw", self.commit_pct[2]),
        ];
        for (k, v) in pcts {
            out.push_str(&format!("\n  \"{k}\": {v:.4},"));
        }
        let counters = [
            ("total_aborts", self.total_aborts),
            ("total_commits", self.total_commits),
            ("val_fast_hits", self.val_fast_hits),
            ("val_fast_misses", self.val_fast_misses),
            ("summary_miss_dirty", self.summary_miss_dirty),
            ("summary_miss_inflight", self.summary_miss_inflight),
            ("summary_resets", self.summary_resets),
            ("journal_rollbacks", self.journal_rollbacks),
            ("site_demotions", self.site_demotions),
            ("plan_merges", self.plan_merges),
            ("plan_splits", self.plan_splits),
            ("shed_commits", self.shed_commits),
            ("batch_groups", self.batch_groups),
            ("batch_reqs", self.batch_reqs),
        ];
        for (k, v) in counters {
            out.push_str(&format!("\n  \"{k}\": {v},"));
        }
        out.pop(); // trailing comma
        out.push_str("\n}\n");
        out
    }

    /// One-line partitioned-path hot-loop breakdown (validation fast-path hit
    /// rate, summary resets, journal rollbacks), or `None` when the run never
    /// touched those counters (pure-HTM or baseline algorithms).
    pub fn render_hot_path(&self) -> Option<String> {
        let validations = self.val_fast_hits + self.val_fast_misses;
        if validations == 0 && self.summary_resets == 0 && self.journal_rollbacks == 0 {
            return None;
        }
        let hit_pct = if validations == 0 {
            0.0
        } else {
            self.val_fast_hits as f64 * 100.0 / validations as f64
        };
        let mut line = format!(
            "{:<18} | ring-val fast path {:>5.1}% of {} ({} hits, {} misses: {} dirty / {} in-flight) | summary resets {} | journal rollbacks {}",
            self.label,
            hit_pct,
            validations,
            self.val_fast_hits,
            self.val_fast_misses,
            self.summary_miss_dirty,
            self.summary_miss_inflight,
            self.summary_resets,
            self.journal_rollbacks,
        );
        if self.site_demotions != 0 || self.plan_merges != 0 || self.plan_splits != 0 {
            line.push_str(&format!(
                " | planner: {} demotions, {} merges, {} splits",
                self.site_demotions, self.plan_merges, self.plan_splits
            ));
        }
        if self.shed_commits != 0 || self.batch_groups != 0 {
            line.push_str(&format!(
                " | server: {} shed, {} batches / {} reqs",
                self.shed_commits, self.batch_groups, self.batch_reqs
            ));
        }
        Some(line)
    }

    /// Render one row in Table 1's layout.
    pub fn render_row(&self) -> String {
        format!(
            "{:<18} | {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% | {:>7.1}% {:>7.1}% {:>7.1}% | {:>10} {:>10}",
            self.label,
            self.abort_pct[0],
            self.abort_pct[1],
            self.abort_pct[2],
            self.abort_pct[3],
            self.commit_pct[0],
            self.commit_pct[1],
            self.commit_pct[2],
            self.total_aborts,
            self.total_commits,
        )
    }

    /// Header matching [`StatsReport::render_row`].
    pub fn header() -> String {
        format!(
            "{:<18} | {:>9} {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} | {:>10} {:>10}",
            "algorithm",
            "conflict",
            "capacity",
            "explicit",
            "other",
            "GL",
            "HTM",
            "SW",
            "aborts",
            "commits"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("figX", "demo", Unit::Throughput, vec!["A", "B"]);
        t.push_row(1, vec![10.0, 20.0]);
        t.push_row(2, vec![15.0, 25.0]);
        assert_eq!(t.value(2, "B"), Some(25.0));
        assert_eq!(t.value(3, "B"), None);
        let txt = t.render();
        assert!(txt.contains("figX"));
        assert!(txt.contains("threads"));
        let csv = t.to_csv();
        assert!(csv.starts_with("threads,A,B"));
        assert!(csv.contains("2,15.0000,25.0000"));
    }

    #[test]
    fn hot_path_line_only_when_counters_fire() {
        let mut r = StatsReport {
            label: "Part-HTM".into(),
            abort_pct: [0.0; 4],
            commit_pct: [0.0; 3],
            total_aborts: 0,
            total_commits: 0,
            val_fast_hits: 0,
            val_fast_misses: 0,
            summary_miss_dirty: 0,
            summary_miss_inflight: 0,
            summary_resets: 0,
            journal_rollbacks: 0,
            site_demotions: 0,
            plan_merges: 0,
            plan_splits: 0,
            shed_commits: 0,
            batch_groups: 0,
            batch_reqs: 0,
        };
        assert!(r.render_hot_path().is_none());
        r.val_fast_hits = 3;
        r.val_fast_misses = 1;
        let line = r.render_hot_path().unwrap();
        assert!(line.contains("75.0%"));
        assert!(line.contains("3 hits"));
        assert!(!line.contains("planner:"));
        r.plan_merges = 2;
        r.site_demotions = 5;
        let line = r.render_hot_path().unwrap();
        assert!(line.contains("planner: 5 demotions, 2 merges, 0 splits"));
        r.shed_commits = 7;
        r.batch_groups = 4;
        r.batch_reqs = 16;
        let line = r.render_hot_path().unwrap();
        assert!(line.contains("server: 7 shed, 4 batches / 16 reqs"));
    }

    #[test]
    fn stats_json_is_flat_and_complete() {
        let r = StatsReport {
            label: "Part-HTM".into(),
            abort_pct: [25.0, 50.0, 12.5, 12.5],
            commit_pct: [10.0, 80.0, 10.0],
            total_aborts: 8,
            total_commits: 100,
            val_fast_hits: 3,
            val_fast_misses: 1,
            summary_miss_dirty: 1,
            summary_miss_inflight: 0,
            summary_resets: 2,
            journal_rollbacks: 0,
            site_demotions: 0,
            plan_merges: 1,
            plan_splits: 0,
            shed_commits: 9,
            batch_groups: 4,
            batch_reqs: 16,
        };
        let j = r.to_json();
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        assert!(j.contains("\"label\": \"Part-HTM\""));
        assert!(j.contains("\"abort_pct_capacity\": 50.0000"));
        assert!(j.contains("\"total_commits\": 100"));
        assert!(j.contains("\"shed_commits\": 9"));
        assert!(j.contains("\"batch_reqs\": 16"));
        assert!(!j.contains(",\n}"), "no trailing comma");
        // Every key is unique (flat object).
        let keys: Vec<&str> = j.match_indices('"').map(|(i, _)| &j[i..i + 2]).collect();
        assert!(!keys.is_empty());
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = Table::new("x", "y", Unit::Speedup, vec!["A"]);
        t.push_row(1, vec![1.0, 2.0]);
    }
}
