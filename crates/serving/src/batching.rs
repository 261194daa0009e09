//! Request batching — the serving-system function the paper's §2 describes:
//! individual inference requests are grouped into batches before execution
//! because GPUs are far more efficient on large batches.
//!
//! TF-Serving's batcher is time/size driven: a batch closes when it reaches
//! `max_batch` requests or when `timeout` elapses since its first request —
//! independent of GPU state. That independence lets the batching *plan* be
//! computed directly from the arrival trace; each planned batch then enters
//! the engine as one `Session::Run`.
//!
//! ```
//! use serving::batching::{plan_batches, BatchingConfig};
//! use serving::workload::poisson_arrivals;
//! use simtime::SimDuration;
//!
//! let arrivals = poisson_arrivals(100.0, SimDuration::from_secs(1), 7);
//! let cfg = BatchingConfig::new(32, SimDuration::from_millis(50));
//! let plan = plan_batches(&arrivals, &cfg);
//! assert!(plan.iter().all(|b| b.size() <= 32));
//! let total: u64 = plan.iter().map(|b| b.size()).sum();
//! assert_eq!(total as usize, arrivals.len());
//! ```

use simtime::{SimDuration, SimTime};

/// Batcher parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchingConfig {
    max_batch: u64,
    timeout: SimDuration,
}

impl BatchingConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn new(max_batch: u64, timeout: SimDuration) -> Self {
        assert!(max_batch > 0, "batches must hold at least one request");
        BatchingConfig { max_batch, timeout }
    }

    /// Maximum requests per batch.
    pub fn max_batch(&self) -> u64 {
        self.max_batch
    }

    /// Time a batch may wait for more requests after its first one.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

/// One batch the batcher formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedBatch {
    formed_at: SimTime,
    request_arrivals: Vec<SimTime>,
}

impl PlannedBatch {
    /// When the batch closed (size reached or timeout expired) — the instant
    /// its `Session::Run` can be issued.
    pub fn formed_at(&self) -> SimTime {
        self.formed_at
    }

    /// Number of requests in the batch.
    pub fn size(&self) -> u64 {
        self.request_arrivals.len() as u64
    }

    /// Arrival times of the requests inside the batch (for per-request
    /// latency accounting: `completion - arrival`).
    pub fn request_arrivals(&self) -> &[SimTime] {
        &self.request_arrivals
    }

    /// Queueing delay of the oldest request in the batch at formation time.
    pub fn oldest_wait(&self) -> SimDuration {
        self.request_arrivals
            .first()
            .map_or(SimDuration::ZERO, |&first| self.formed_at - first)
    }
}

/// Runs the batching policy over a sorted arrival trace.
///
/// # Panics
///
/// Panics if `arrivals` is not sorted in non-decreasing order.
pub fn plan_batches(arrivals: &[SimTime], cfg: &BatchingConfig) -> Vec<PlannedBatch> {
    assert!(
        arrivals.windows(2).all(|w| w[0] <= w[1]),
        "arrival trace must be sorted"
    );
    let mut batches = Vec::new();
    let mut current: Vec<SimTime> = Vec::new();
    let mut deadline = SimTime::MAX;
    for &t in arrivals {
        // Close the open batch first if its timeout passed before `t`.
        if !current.is_empty() && t > deadline {
            batches.push(PlannedBatch {
                formed_at: deadline,
                request_arrivals: std::mem::take(&mut current),
            });
            deadline = SimTime::MAX;
        }
        if current.is_empty() {
            deadline = t + cfg.timeout;
        }
        current.push(t);
        if current.len() as u64 == cfg.max_batch {
            batches.push(PlannedBatch {
                formed_at: t,
                request_arrivals: std::mem::take(&mut current),
            });
            deadline = SimTime::MAX;
        }
    }
    if !current.is_empty() {
        batches.push(PlannedBatch {
            formed_at: deadline,
            request_arrivals: current,
        });
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::poisson_arrivals;

    fn times(ms: &[u64]) -> Vec<SimTime> {
        ms.iter().map(|&m| SimTime::from_millis(m)).collect()
    }

    #[test]
    fn size_cap_closes_batches() {
        let cfg = BatchingConfig::new(2, SimDuration::from_secs(100));
        let plan = plan_batches(&times(&[1, 2, 3, 4, 5]), &cfg);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].size(), 2);
        assert_eq!(plan[0].formed_at(), SimTime::from_millis(2));
        assert_eq!(plan[1].size(), 2);
        assert_eq!(plan[2].size(), 1, "tail batch flushes at timeout");
    }

    #[test]
    fn timeout_closes_sparse_batches() {
        let cfg = BatchingConfig::new(100, SimDuration::from_millis(10));
        let plan = plan_batches(&times(&[0, 5, 50, 53]), &cfg);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].size(), 2);
        // First batch opened at 0, closed at its 10ms deadline.
        assert_eq!(plan[0].formed_at(), SimTime::from_millis(10));
        assert_eq!(plan[1].size(), 2);
        assert_eq!(plan[1].formed_at(), SimTime::from_millis(60));
    }

    #[test]
    fn oldest_wait_measures_queueing() {
        let cfg = BatchingConfig::new(100, SimDuration::from_millis(10));
        let plan = plan_batches(&times(&[0, 9]), &cfg);
        assert_eq!(plan[0].oldest_wait(), SimDuration::from_millis(10));
    }

    #[test]
    fn all_requests_are_batched_exactly_once() {
        let arrivals = poisson_arrivals(500.0, SimDuration::from_secs(2), 3);
        let cfg = BatchingConfig::new(16, SimDuration::from_millis(20));
        let plan = plan_batches(&arrivals, &cfg);
        let total: usize = plan.iter().map(|b| b.size() as usize).sum();
        assert_eq!(total, arrivals.len());
        // Batches close in order.
        assert!(plan.windows(2).all(|w| w[0].formed_at() <= w[1].formed_at()));
        // No batch exceeds the cap.
        assert!(plan.iter().all(|b| b.size() <= 16));
    }

    #[test]
    fn poisson_rate_is_roughly_right() {
        let arrivals = poisson_arrivals(1_000.0, SimDuration::from_secs(4), 9);
        let rate = arrivals.len() as f64 / 4.0;
        assert!((rate - 1_000.0).abs() < 60.0, "rate {rate}");
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_arrivals_panic() {
        let cfg = BatchingConfig::new(4, SimDuration::from_millis(1));
        plan_batches(&times(&[5, 1]), &cfg);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_batch_config_panics() {
        BatchingConfig::new(0, SimDuration::ZERO);
    }
}
