//! The kernel engine and device profiles.
//!
//! # Arbitration model
//!
//! Each client (CUDA context) owns a submission queue. The device executes
//! one kernel at a time — large-batch DNN kernels saturate the GPU, so the
//! paper argues only temporal multiplexing matters — and, whenever it goes
//! idle, picks the next kernel from a non-empty queue with probability
//! proportional to a per-context *arbitration bias*. The bias models the
//! driver- and OS-level nondeterminism the paper blames for TF-Serving's
//! unpredictable finish times (Figure 3): the driver cannot tell DNNs
//! apart, and which context's kernels it favours varies run to run. Under
//! Olympian only one job has kernels queued at a time, so the bias becomes
//! irrelevant — exactly why time-slicing restores predictability.
//!
//! A fixed inter-kernel gap models per-launch driver/hardware setup time;
//! it is why measured GPU utilization sits below 100% even under saturation.

use simtime::{DetRng, SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};

/// Opaque client/context identity attached to kernels.
///
/// The *scheduling* layer never consults it beyond arbitration (the real
/// driver cannot tell which DNN a kernel belongs to); the measurement layer
/// uses it for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobTag(pub u64);

/// A GPU hardware model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    /// Execution-time multiplier relative to the reference device (GTX 1080
    /// Ti = 1.0; slower devices have larger factors).
    speed_factor: f64,
    /// On-board memory in bytes.
    memory_bytes: u64,
    /// Stream multiprocessor count (reported, not scheduled over — see the
    /// serial-execution rationale in the module docs).
    sm_count: u32,
    /// Relative run-to-run jitter (σ) applied to each kernel's duration.
    duration_jitter: f64,
    /// Idle setup time between consecutive kernels.
    kernel_gap: SimDuration,
    /// Relative spread (lognormal σ) of a per-*device-instance* clock factor
    /// modelling boost-clock/thermal variation between runs — the reason a
    /// model's measured GPU duration varies ~1.7% across runs (paper §4.4).
    clock_wobble: f64,
}

impl DeviceProfile {
    /// The paper's primary platform: GeForce GTX 1080 Ti (11 GB).
    pub fn gtx_1080_ti() -> Self {
        DeviceProfile {
            name: "gtx-1080-ti".into(),
            speed_factor: 1.0,
            memory_bytes: 11 * 1024 * 1024 * 1024,
            sm_count: 28,
            duration_jitter: 0.01,
            kernel_gap: SimDuration::from_micros(6),
            clock_wobble: 0.017,
        }
    }

    /// The paper's portability platform: NVIDIA Titan X (12 GB), slightly
    /// slower per kernel than the 1080 Ti for inference workloads.
    pub fn titan_x() -> Self {
        DeviceProfile {
            name: "titan-x".into(),
            speed_factor: 1.22,
            memory_bytes: 12 * 1024 * 1024 * 1024,
            sm_count: 24,
            duration_jitter: 0.01,
            kernel_gap: SimDuration::from_micros(7),
            clock_wobble: 0.017,
        }
    }

    /// A custom device.
    ///
    /// # Panics
    ///
    /// Panics if `speed_factor` is not positive or `duration_jitter` is
    /// negative.
    pub fn custom(
        name: impl Into<String>,
        speed_factor: f64,
        memory_bytes: u64,
        sm_count: u32,
        duration_jitter: f64,
    ) -> Self {
        assert!(speed_factor > 0.0, "speed factor must be positive");
        assert!(duration_jitter >= 0.0, "jitter must be non-negative");
        DeviceProfile {
            name: name.into(),
            speed_factor,
            memory_bytes,
            sm_count,
            duration_jitter,
            kernel_gap: SimDuration::ZERO,
            clock_wobble: 0.0,
        }
    }

    /// Sets the inter-kernel setup gap.
    pub fn with_kernel_gap(mut self, gap: SimDuration) -> Self {
        self.kernel_gap = gap;
        self
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execution-time multiplier.
    pub fn speed_factor(&self) -> f64 {
        self.speed_factor
    }

    /// On-board memory in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// Stream multiprocessor count.
    pub fn sm_count(&self) -> u32 {
        self.sm_count
    }

    /// Idle setup time between consecutive kernels.
    pub fn kernel_gap(&self) -> SimDuration {
        self.kernel_gap
    }

    /// The run-to-run clock wobble (lognormal σ).
    pub fn clock_wobble(&self) -> f64 {
        self.clock_wobble
    }
}

#[derive(Debug, Clone)]
struct Pending {
    payload: u64,
    duration: SimDuration,
    factor: f64,
}

/// Per-context state, stored densely so the arbitration scan and the busy
/// accounting never touch a hash table on the kernel hot path.
#[derive(Debug)]
struct TagState {
    tag: JobTag,
    queue: VecDeque<Pending>,
    bias: f64,
    busy: SimDuration,
    /// This tag's position in `order`, or [`UNORDERED`] before its first
    /// enqueue.
    pos: u32,
}

/// [`TagState::pos`] of a tag that has never enqueued.
const UNORDERED: u32 = u32::MAX;

impl TagState {
    fn new(tag: JobTag) -> Self {
        TagState {
            tag,
            queue: VecDeque::new(),
            bias: 1.0,
            busy: SimDuration::ZERO,
            pos: UNORDERED,
        }
    }
}

/// Tags below this value index a dense lookup vector; rarer larger tags fall
/// back to the hash map. Serving clients are numbered densely from zero, so
/// in practice every lookup takes the vector path.
const FAST_TAGS: u64 = 1 << 16;

/// A kernel the device has started executing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedKernel {
    /// Caller-provided identity from [`GpuDevice::enqueue`].
    pub payload: u64,
    /// Owning context.
    pub tag: JobTag,
    /// Execution start (≥ the pump time; possibly delayed by the
    /// inter-kernel gap).
    pub start: SimTime,
    /// Execution end.
    pub end: SimTime,
    /// Actual duration (`end - start`).
    pub duration: SimDuration,
}

/// The simulated GPU: per-context submission queues in front of a serial,
/// non-preemptive execution engine.
///
/// Drive it with the enqueue/pump protocol:
///
/// 1. [`enqueue`](Self::enqueue) a kernel, then call
///    [`try_start`](Self::try_start);
/// 2. when a started kernel's `end` time arrives, call
///    [`try_start`](Self::try_start) again.
///
/// `try_start` returns at most one kernel per call and only when the engine
/// is free, so following the protocol keeps exactly one completion
/// outstanding.
#[derive(Debug)]
pub struct GpuDevice {
    profile: DeviceProfile,
    rng: DetRng,
    /// Dense per-context state; an index, once assigned, is stable for the
    /// device's lifetime.
    tags: Vec<TagState>,
    /// Small-tag lookup: `fast_index[tag.0]` is the tag's index into `tags`
    /// (`u32::MAX` = unassigned). Grown on demand, capped at [`FAST_TAGS`].
    fast_index: Vec<u32>,
    /// Fallback lookup for tags at or above [`FAST_TAGS`].
    slow_index: HashMap<u64, u32>,
    /// First-enqueue ordering of tag indices — the deterministic candidate
    /// iteration order for weighted picks.
    order: Vec<u32>,
    /// Ascending `order` positions of the tags whose queue is non-empty:
    /// the candidates of the next pick, in `order`'s iteration order.
    busy: Vec<u32>,
    /// Buffers of queues that emptied, lent to the next context that
    /// enqueues into a queue without one. An open-loop run sees a context
    /// per session but only a few with kernels queued at once, so the
    /// buffers in use follow the busy contexts, not every context seen.
    spares: Vec<VecDeque<Pending>>,
    busy_until: SimTime,
    started_any: bool,
    /// This instance's clock factor, drawn once from the profile's wobble.
    run_clock_factor: f64,
    busy_total: SimDuration,
    kernel_count: u64,
}

impl GpuDevice {
    /// Creates a device with the given profile; `seed` drives kernel-duration
    /// jitter and arbitration picks.
    pub fn new(profile: DeviceProfile, seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0xD00D_CE00);
        let run_clock_factor = if profile.clock_wobble > 0.0 {
            rng.lognormal(0.0, profile.clock_wobble)
        } else {
            1.0
        };
        GpuDevice {
            profile,
            rng,
            tags: Vec::new(),
            fast_index: Vec::new(),
            slow_index: HashMap::new(),
            order: Vec::new(),
            busy: Vec::new(),
            spares: Vec::new(),
            busy_until: SimTime::ZERO,
            started_any: false,
            run_clock_factor,
            busy_total: SimDuration::ZERO,
            kernel_count: 0,
        }
    }

    /// Index of `tag` in `tags`, if it has one.
    #[inline]
    fn tag_slot(&self, tag: JobTag) -> Option<u32> {
        if tag.0 < FAST_TAGS {
            match self.fast_index.get(tag.0 as usize) {
                Some(&i) if i != u32::MAX => Some(i),
                _ => None,
            }
        } else {
            self.slow_index.get(&tag.0).copied()
        }
    }

    /// Index of `tag`, creating its dense slot on first sight.
    fn tag_slot_or_insert(&mut self, tag: JobTag) -> u32 {
        if let Some(i) = self.tag_slot(tag) {
            return i;
        }
        let i = self.tags.len() as u32;
        self.tags.push(TagState::new(tag));
        if tag.0 < FAST_TAGS {
            if self.fast_index.len() <= tag.0 as usize {
                self.fast_index.resize(tag.0 as usize + 1, u32::MAX);
            }
            self.fast_index[tag.0 as usize] = i;
        } else {
            self.slow_index.insert(tag.0, i);
        }
        i
    }

    /// The device's hardware profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Sets a context's arbitration bias (default 1.0). Higher values make
    /// the driver favour this context's queue when picking the next kernel.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not positive and finite.
    pub fn set_bias(&mut self, tag: JobTag, weight: f64) {
        assert!(weight > 0.0 && weight.is_finite(), "bias must be positive");
        let i = self.tag_slot_or_insert(tag);
        self.tags[i as usize].bias = weight;
    }

    /// Queues a kernel with mean duration `true_duration`; `payload` is
    /// returned verbatim when the kernel starts. `extra_factor` models
    /// transient slowdowns (e.g. the online profiler's instrumentation).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `extra_factor` is not positive.
    pub fn enqueue(
        &mut self,
        tag: JobTag,
        payload: u64,
        true_duration: SimDuration,
        extra_factor: f64,
    ) {
        debug_assert!(extra_factor > 0.0, "extra factor must be positive");
        let i = self.tag_slot_or_insert(tag) as usize;
        let t = &mut self.tags[i];
        if t.pos == UNORDERED {
            t.pos = self.order.len() as u32;
            self.order.push(i as u32);
        }
        if t.queue.is_empty() {
            if t.queue.capacity() == 0 {
                if let Some(spare) = self.spares.pop() {
                    t.queue = spare;
                }
            }
            // A first enqueue takes the largest position so far, so the
            // common case appends.
            let at = self.busy.partition_point(|&p| p < t.pos);
            self.busy.insert(at, t.pos);
        }
        t.queue.push_back(Pending {
            payload,
            duration: true_duration,
            factor: extra_factor,
        });
    }

    /// Starts the next kernel if the engine is free at `now` and any queue
    /// is non-empty. Returns the started kernel's placement; schedule the
    /// next pump at its `end`.
    pub fn try_start(&mut self, now: SimTime) -> Option<StartedKernel> {
        if now < self.busy_until {
            return None;
        }
        let slot = self.pick_tag()? as usize;
        let jitter = if self.profile.duration_jitter > 0.0 {
            self.rng.jitter(self.profile.duration_jitter)
        } else {
            1.0
        };
        let t = &mut self.tags[slot];
        let tag = t.tag;
        let pending = t.queue.pop_front().expect("picked queue is non-empty");
        if t.queue.is_empty() {
            let at = self.busy.binary_search(&t.pos).expect("busy tag is listed");
            self.busy.remove(at);
            self.spares.push(std::mem::take(&mut t.queue));
        }
        let duration = pending
            .duration
            .mul_f64(self.profile.speed_factor * self.run_clock_factor * jitter * pending.factor);
        let ready_at = if self.started_any {
            self.busy_until + self.profile.kernel_gap
        } else {
            SimTime::ZERO
        };
        let start = now.max(ready_at);
        let end = start + duration;
        self.busy_until = end;
        self.started_any = true;
        self.busy_total += duration;
        self.kernel_count += 1;
        t.busy += duration;
        Some(StartedKernel {
            payload: pending.payload,
            tag,
            start,
            end,
            duration,
        })
    }

    /// Weighted pick among non-empty queues, deterministic given the seed.
    /// Returns the picked tag's index into `tags`.
    ///
    /// The candidates are the busy list: the `order` positions of the tags
    /// with queued kernels, kept ascending as queues fill and empty. Two
    /// passes over it visit the non-empty queues in first-enqueue order
    /// with the same float operations as a filtered walk of all of `order`,
    /// and the RNG is drawn only on contested picks, so every pick is
    /// bit-identical to that walk while the cost follows the number of busy
    /// contexts, not the number ever seen.
    fn pick_tag(&mut self) -> Option<u32> {
        let first = self.order[*self.busy.first()? as usize];
        if self.busy.len() == 1 {
            return Some(first);
        }
        let bias = |p: u32| self.tags[self.order[p as usize] as usize].bias;
        let mut total = 0.0;
        for &p in &self.busy {
            total += bias(p);
        }
        let mut x = self.rng.next_f64() * total;
        let mut last = first;
        for &p in &self.busy {
            x -= bias(p);
            last = self.order[p as usize];
            if x <= 0.0 {
                return Some(last);
            }
        }
        Some(last)
    }

    /// Cancels every queued (not yet started) kernel of one context,
    /// returning how many were removed; the emptied queue's buffer is lent
    /// to the next context that enqueues. An already-started kernel is
    /// unaffected — a real GPU cannot preempt it either (the paper's
    /// overflow argument).
    pub fn cancel_queued(&mut self, tag: JobTag) -> usize {
        let Some(i) = self.tag_slot(tag) else {
            return 0;
        };
        let t = &mut self.tags[i as usize];
        let removed = t.queue.len();
        if removed > 0 {
            let at = self.busy.binary_search(&t.pos).expect("busy tag is listed");
            self.busy.remove(at);
            t.queue.clear();
            self.spares.push(std::mem::take(&mut t.queue));
        }
        removed
    }

    /// Number of queued (not yet started) kernels.
    pub fn queued(&self) -> usize {
        self.busy
            .iter()
            .map(|&p| self.tags[self.order[p as usize] as usize].queue.len())
            .sum()
    }

    /// Number of kernels queued by one context.
    pub fn queued_for(&self, tag: JobTag) -> usize {
        self.tag_slot(tag)
            .map_or(0, |i| self.tags[i as usize].queue.len())
    }

    /// Instant at which all *started* work will have drained.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time across all started kernels.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of kernels started.
    pub fn kernel_count(&self) -> u64 {
        self.kernel_count
    }

    /// Total busy time attributed to one context (measurement only).
    pub fn job_busy(&self, tag: JobTag) -> SimDuration {
        self.tag_slot(tag)
            .map_or(SimDuration::ZERO, |i| self.tags[i as usize].busy)
    }

    /// Busy fraction of the window `[0, as_of]`, the quantity `nvidia-smi`
    /// approximates by sampling.
    ///
    /// # Panics
    ///
    /// Panics if `as_of` is earlier than the end of started work (the window
    /// would double-count running kernels) or zero.
    pub fn utilization(&self, as_of: SimTime) -> f64 {
        assert!(as_of > SimTime::ZERO, "empty utilization window");
        assert!(
            as_of >= self.busy_until,
            "utilization window ends before started work drains"
        );
        self.busy_total.as_nanos() as f64 / as_of.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> GpuDevice {
        let profile = DeviceProfile::custom("test", 1.0, 1 << 30, 8, 0.0);
        GpuDevice::new(profile, 7)
    }

    fn run_one(
        gpu: &mut GpuDevice,
        tag: JobTag,
        now: SimTime,
        dur_us: u64,
    ) -> StartedKernel {
        gpu.enqueue(tag, 0, SimDuration::from_micros(dur_us), 1.0);
        gpu.try_start(now).expect("device free")
    }

    #[test]
    fn idle_device_starts_immediately() {
        let mut gpu = device();
        let k = run_one(&mut gpu, JobTag(1), SimTime::ZERO, 10);
        assert_eq!(k.start, SimTime::ZERO);
        assert_eq!(k.end, SimTime::from_micros(10));
    }

    #[test]
    fn busy_device_defers_start() {
        let mut gpu = device();
        let a = run_one(&mut gpu, JobTag(1), SimTime::ZERO, 10);
        gpu.enqueue(JobTag(2), 7, SimDuration::from_micros(5), 1.0);
        // Pump while busy: nothing starts.
        assert!(gpu.try_start(SimTime::from_micros(3)).is_none());
        // Pump at completion: the queued kernel starts back-to-back.
        let b = gpu.try_start(a.end).expect("free now");
        assert_eq!(b.payload, 7);
        assert_eq!(b.start, a.end);
        assert_eq!(gpu.queued(), 0);
    }

    #[test]
    fn kernel_gap_inserts_idle_time() {
        let profile = DeviceProfile::custom("gappy", 1.0, 1 << 30, 8, 0.0)
            .with_kernel_gap(SimDuration::from_micros(3));
        let mut gpu = GpuDevice::new(profile, 7);
        let a = run_one(&mut gpu, JobTag(1), SimTime::ZERO, 10);
        gpu.enqueue(JobTag(1), 0, SimDuration::from_micros(10), 1.0);
        let b = gpu.try_start(a.end).expect("free");
        assert_eq!(b.start, a.end + SimDuration::from_micros(3));
        // Gap time is idle: busy_total only counts execution.
        assert_eq!(gpu.busy_total(), SimDuration::from_micros(20));
    }

    #[test]
    fn fifo_within_one_context() {
        let mut gpu = device();
        gpu.enqueue(JobTag(1), 100, SimDuration::from_micros(1), 1.0);
        gpu.enqueue(JobTag(1), 101, SimDuration::from_micros(1), 1.0);
        let a = gpu.try_start(SimTime::ZERO).unwrap();
        let b = gpu.try_start(a.end).unwrap();
        assert_eq!((a.payload, b.payload), (100, 101));
    }

    #[test]
    fn bias_shifts_service_share() {
        let mut gpu = device();
        gpu.set_bias(JobTag(1), 4.0);
        gpu.set_bias(JobTag(2), 1.0);
        let mut served = [0u32; 2];
        let mut now = SimTime::ZERO;
        for _ in 0..400 {
            // Keep both queues non-empty so every pick is contested.
            if gpu.queued_for(JobTag(1)) == 0 {
                gpu.enqueue(JobTag(1), 1, SimDuration::from_micros(1), 1.0);
            }
            if gpu.queued_for(JobTag(2)) == 0 {
                gpu.enqueue(JobTag(2), 2, SimDuration::from_micros(1), 1.0);
            }
            let k = gpu.try_start(now).unwrap();
            served[(k.tag.0 - 1) as usize] += 1;
            now = k.end;
        }
        let share = served[0] as f64 / 400.0;
        assert!(share > 0.70 && share < 0.90, "biased share {share}");
    }

    #[test]
    fn unknown_bias_defaults_to_one() {
        let mut gpu = device();
        gpu.enqueue(JobTag(9), 0, SimDuration::from_micros(1), 1.0);
        assert!(gpu.try_start(SimTime::ZERO).is_some());
    }

    #[test]
    fn per_job_attribution() {
        let mut gpu = device();
        let a = run_one(&mut gpu, JobTag(1), SimTime::ZERO, 10);
        let b = run_one(&mut gpu, JobTag(2), a.end, 30);
        let _c = run_one(&mut gpu, JobTag(1), b.end, 5);
        assert_eq!(gpu.job_busy(JobTag(1)), SimDuration::from_micros(15));
        assert_eq!(gpu.job_busy(JobTag(2)), SimDuration::from_micros(30));
        assert_eq!(gpu.job_busy(JobTag(99)), SimDuration::ZERO);
        assert_eq!(gpu.kernel_count(), 3);
    }

    #[test]
    fn speed_factor_scales_duration() {
        let profile = DeviceProfile::custom("slow", 2.0, 1 << 30, 8, 0.0);
        let mut gpu = GpuDevice::new(profile, 7);
        let k = run_one(&mut gpu, JobTag(1), SimTime::ZERO, 10);
        assert_eq!(k.duration, SimDuration::from_micros(20));
    }

    #[test]
    fn utilization_counts_gaps() {
        let mut gpu = device();
        let a = run_one(&mut gpu, JobTag(1), SimTime::ZERO, 10);
        let _b = run_one(&mut gpu, JobTag(1), a.end + SimDuration::from_micros(80), 10);
        let util = gpu.utilization(SimTime::from_micros(100));
        assert!((util - 0.2).abs() < 1e-9, "util {util}");
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            let mut gpu = GpuDevice::new(DeviceProfile::gtx_1080_ti(), 5);
            gpu.set_bias(JobTag(1), 1.3);
            gpu.set_bias(JobTag(2), 0.8);
            let mut ends = Vec::new();
            let mut now = SimTime::ZERO;
            for i in 0..100 {
                gpu.enqueue(JobTag(1 + i % 2), i, SimDuration::from_micros(50), 1.0);
                if let Some(k) = gpu.try_start(now) {
                    now = k.end;
                    ends.push((k.tag, k.end));
                }
            }
            ends
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn builtin_profiles_are_sane() {
        let g = DeviceProfile::gtx_1080_ti();
        let t = DeviceProfile::titan_x();
        assert!(t.speed_factor() > g.speed_factor(), "Titan X is slower");
        assert!(t.memory_bytes() > g.memory_bytes());
        assert_eq!(g.name(), "gtx-1080-ti");
        assert!(g.kernel_gap() > SimDuration::ZERO);
    }

    #[test]
    fn profile_constructor_table() {
        // One row per constructor: (profile, name, speed, memory, SMs, gap).
        let rows: Vec<(DeviceProfile, &str, f64, u64, u32, SimDuration)> = vec![
            (
                DeviceProfile::gtx_1080_ti(),
                "gtx-1080-ti",
                1.0,
                11 * 1024 * 1024 * 1024,
                28,
                SimDuration::from_micros(6),
            ),
            (
                DeviceProfile::titan_x(),
                "titan-x",
                1.22,
                12 * 1024 * 1024 * 1024,
                24,
                SimDuration::from_micros(7),
            ),
            (
                DeviceProfile::custom("lab", 2.5, 1 << 30, 16, 0.0),
                "lab",
                2.5,
                1 << 30,
                16,
                SimDuration::ZERO,
            ),
        ];
        for (p, name, speed, mem, sms, gap) in rows {
            assert_eq!(p.name(), name);
            assert_eq!(p.speed_factor(), speed, "{name} speed factor");
            assert_eq!(p.memory_bytes(), mem, "{name} memory");
            assert_eq!(p.sm_count(), sms, "{name} SM count");
            assert_eq!(p.kernel_gap(), gap, "{name} kernel gap");
        }
        // The speed factor is relative to the 1080 Ti: the Titan X is
        // slower per kernel (multiplier above 1.0), not faster.
        assert!(DeviceProfile::titan_x().speed_factor() > 1.0);
        assert_eq!(DeviceProfile::gtx_1080_ti().speed_factor(), 1.0);
    }

    #[test]
    #[should_panic(expected = "speed factor must be positive")]
    fn custom_profile_rejects_zero_speed() {
        let _ = DeviceProfile::custom("bad", 0.0, 1 << 20, 4, 0.0);
    }

    #[test]
    fn profile_transfer_time_table() {
        // Weight transfer is bytes / (gbps · 1e9): one row per fleet-
        // relevant size at the lifecycle default of 12 GB/s.
        let rows: Vec<(u64, f64, u64)> = vec![
            (12_000_000_000, 12.0, 1_000_000_000), // 12 GB at 12 GB/s = 1 s
            (64 << 20, 12.0, 5_592_405),           // 64 MiB ≈ 5.6 ms
            (0, 12.0, 0),
            (1_000_000_000, 4.0, 250_000_000), // 1 GB at 4 GB/s = 250 ms
        ];
        for (bytes, gbps, want_ns) in rows {
            let got = crate::MemoryPool::transfer_time(bytes, gbps).as_nanos();
            assert_eq!(got, want_ns, "{bytes} bytes at {gbps} GB/s");
        }
    }

    #[test]
    #[should_panic(expected = "drains")]
    fn utilization_mid_kernel_panics() {
        let mut gpu = device();
        run_one(&mut gpu, JobTag(1), SimTime::ZERO, 100);
        gpu.utilization(SimTime::from_micros(10));
    }

    #[test]
    #[should_panic(expected = "bias must be positive")]
    fn non_positive_bias_panics() {
        device().set_bias(JobTag(1), 0.0);
    }

    #[test]
    fn contexts_that_take_turns_share_one_queue_buffer() {
        // A thousand one-kernel sessions, one after another, as an
        // open-loop fleet runs them: each new context takes the buffer the
        // last one emptied, so one buffer serves them all.
        let mut gpu = device();
        let mut now = SimTime::ZERO;
        for tag in 0..1_000 {
            now = run_one(&mut gpu, JobTag(tag), now, 10).end;
        }
        let buffers = gpu.tags.iter().filter(|t| t.queue.capacity() > 0).count();
        assert_eq!(buffers + gpu.spares.len(), 1);
        // Cancelling a queue empty gives its buffer back too.
        gpu.enqueue(JobTag(7), 3, SimDuration::from_micros(10), 1.0);
        assert_eq!(gpu.cancel_queued(JobTag(7)), 1);
        assert_eq!(gpu.queued(), 0);
        assert_eq!(gpu.spares.len(), 1);
    }

    #[test]
    fn cancel_queued_drops_only_the_named_contexts_queue() {
        let mut gpu = device();
        let us = SimDuration::from_micros;
        // Context 1 starts a kernel, then queues two more; contexts 2 and 3
        // queue theirs behind it.
        let running = run_one(&mut gpu, JobTag(1), SimTime::ZERO, 10);
        for (tag, payload) in [(1, 11), (2, 20), (1, 12), (3, 30), (2, 21)] {
            gpu.enqueue(JobTag(tag), payload, us(5), 1.0);
        }
        assert_eq!((gpu.queued(), gpu.queued_for(JobTag(1))), (5, 2));
        assert_eq!(gpu.cancel_queued(JobTag(1)), 2);
        // The counts agree, and the emptied queue's buffer is spare.
        assert_eq!(gpu.queued_for(JobTag(1)), 0);
        assert_eq!(gpu.queued(), gpu.queued_for(JobTag(2)) + gpu.queued_for(JobTag(3)));
        assert_eq!(gpu.queued(), 3);
        assert_eq!(gpu.spares.len(), 1);
        // An idle context, an unseen one and a second cancel remove nothing.
        gpu.set_bias(JobTag(4), 2.0);
        for tag in [4, 99, 1] {
            assert_eq!(gpu.cancel_queued(JobTag(tag)), 0, "context {tag}");
        }
        // The started kernel still completes: the device stays busy until
        // its end and starts nothing before.
        assert_eq!(gpu.busy_until(), running.end);
        assert!(gpu.try_start(SimTime::from_micros(5)).is_none());
        // The next context to queue from empty takes the freed buffer.
        gpu.enqueue(JobTag(5), 50, us(5), 1.0);
        assert!(gpu.spares.is_empty());
        // The others keep their kernels, each context in FIFO order.
        let mut now = running.end;
        let mut by_tag: HashMap<u64, Vec<u64>> = HashMap::new();
        while let Some(k) = gpu.try_start(now) {
            by_tag.entry(k.tag.0).or_default().push(k.payload);
            now = k.end;
        }
        assert_eq!(by_tag.len(), 3);
        assert_eq!(by_tag[&2], [20, 21]);
        assert_eq!(by_tag[&3], [30]);
        assert_eq!(by_tag[&5], [50]);
        assert_eq!(gpu.kernel_count(), 5);
    }
}
