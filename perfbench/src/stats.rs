//! Percentiles, process memory and the metric table a run reports.

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of `values`; `0.0` for an empty set (a layer not reached).
pub fn median(values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Live threads of this process named as the server names its acceptor,
/// shard and worker threads.
pub fn server_thread_count() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| {
                ["bfl-acceptor", "bfl-shard-", "bfl-worker-"]
                    .iter()
                    .any(|p| c.starts_with(p))
            })
        })
        .count()
}

/// Total and stolen CPU time of the host so far, in clock ticks, from the
/// first line of `/proc/stat`. Steal is time the hypervisor ran someone
/// else while this machine's CPUs had work.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    (
        ticks.iter().take(8).sum(),
        ticks.get(7).copied().unwrap_or(0),
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push((name.into(), value, unit.to_string()));
    }

    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Set-up time of each repetition, in seconds; `setup_s` is the
    /// fastest, the statistic the operations use too.
    pub setup_s: Vec<f64>,
    /// Time of one pass over the operations, in seconds: the median kept
    /// pass's wall time for `serve`, the sum of `op_us` otherwise.
    pub measured_s: f64,
    /// Per-operation latency over the passes, in microseconds.
    pub op_us: Vec<f64>,
    /// Latency of every executed operation, each pass's separately, where
    /// `p99_us` comes from them rather than from `op_us`.
    pub samples_us: Vec<f64>,
    /// Per-layer metrics (traced pass only).
    pub layers: Metrics,
    /// Why a correctness check failed, for the log.
    pub problems: Vec<String>,
    /// The spans of the traced pass, written out at exit.
    pub tracer: Option<crate::trace::Tracer>,
}

impl RunOutput {
    /// Marks the run incorrect unless `ok`, logging why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.log(what());
        }
    }

    /// Records operation `i`, started at `t`, keeping its fastest time
    /// over the passes; returns this pass's time in microseconds.
    pub fn keep_fastest(&mut self, i: usize, t: std::time::Instant) -> f64 {
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.op_us[i] = self.op_us[i].min(us);
        us
    }

    /// Counts a failed operation and logs why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.log(why);
    }

    fn log(&mut self, why: String) {
        if self.problems.len() < 20 {
            self.problems.push(why);
        }
    }

    /// The end-to-end metrics. `p99_us` comes from `samples_us` when the
    /// workload keeps them, else from `op_us`; every workload sizes its run
    /// so that at `--seconds 30` at least 1,000 samples (ten beyond the
    /// 99th percentile) go into it.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        let lat = sorted(self.op_us.clone());
        m.put(
            "setup_s",
            self.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        );
        m.put(
            "ops_per_s",
            self.op_us.len() as f64 / self.measured_s.max(1e-9),
            "1/s",
        );
        m.put("p50_us", percentile(&lat, 0.50), "us");
        let tail = if self.samples_us.is_empty() {
            lat
        } else {
            sorted(self.samples_us.clone())
        };
        m.put("p99_us", percentile(&tail, 0.99), "us");
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        m
    }
}
