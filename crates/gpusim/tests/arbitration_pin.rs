//! Pins the device's arbitration output bit for bit.
//!
//! A seeded script drives one [`GpuDevice`] through the whole queue
//! protocol: hundreds of contexts (some biased before their first enqueue,
//! some with tags past the dense lookup range), bursts of enqueues, a
//! `try_start` at every `busy_until`, periodic `cancel_payloads` calls that
//! empty queues, and `queued`/`queued_for` checks against a shadow model.
//! The FNV-1a digest of the started-kernel stream pins every pick, every
//! jitter draw and every start time, so any change to how the device walks
//! its contexts must leave the digest where it is.

use gpusim::{DeviceProfile, GpuDevice, JobTag, StartedKernel};
use simtime::{DetRng, SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};

const CONTEXTS: usize = 640;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_feed(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// Context `i`'s tag: mostly dense client ids, every 16th one far past the
/// dense lookup range.
fn tag_of(i: usize) -> JobTag {
    if i % 16 == 15 {
        JobTag(1_000_000 + i as u64 * 7)
    } else {
        JobTag(i as u64 * 3)
    }
}

/// Inverse of [`tag_of`].
fn index_of(tag: JobTag) -> usize {
    if tag.0 >= 1_000_000 {
        ((tag.0 - 1_000_000) / 7) as usize
    } else {
        (tag.0 / 3) as usize
    }
}

/// What one run of the script produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// FNV-1a over every started kernel's `(payload, tag, start, end)`.
    digest: u64,
    started: usize,
    cancelled: usize,
    /// Most contexts with queued work at once.
    max_busy: usize,
}

fn run_script(seed: u64) -> Outcome {
    let mut rng = DetRng::new(seed);
    let mut gpu = GpuDevice::new(DeviceProfile::gtx_1080_ti(), seed);
    // Shadow model: each context's outstanding payloads in FIFO order.
    let mut shadow: Vec<VecDeque<u64>> = vec![VecDeque::new(); CONTEXTS];
    for i in (0..CONTEXTS).step_by(5) {
        gpu.set_bias(tag_of(i), rng.range_f64(0.25, 4.0));
    }
    let mut digest = FNV_OFFSET;
    let (mut started, mut cancelled, mut max_busy) = (0usize, 0usize, 0usize);
    let mut next_payload = 0u64;
    let mut now = SimTime::ZERO;
    // Contexts admitted so far: the script widens the active set over time
    // so first enqueues keep arriving throughout the run.
    let mut active = 8usize;
    for step in 0..12_000u32 {
        if step % 9 == 0 && active < CONTEXTS {
            active += rng.range_u64(1, 4) as usize;
            active = active.min(CONTEXTS);
        }
        // A burst of enqueues onto a few contexts, skewed towards recent
        // ones the way new clients dominate an open-loop fleet.
        if rng.next_f64() < 0.35 || gpu.queued() == 0 {
            for _ in 0..rng.range_u64(1, 4) {
                let i = if rng.next_f64() < 0.6 {
                    active - 1 - rng.range_u64(0, active.min(12) as u64) as usize
                } else {
                    rng.range_u64(0, active as u64) as usize
                };
                for _ in 0..rng.range_u64(1, 3) {
                    let dur = SimDuration::from_nanos(rng.range_u64(2_000, 180_000));
                    let factor = if rng.next_f64() < 0.1 { 1.3 } else { 1.0 };
                    gpu.enqueue(tag_of(i), next_payload, dur, factor);
                    shadow[i].push_back(next_payload);
                    next_payload += 1;
                }
            }
        }
        // Occasionally re-bias a context that already has work.
        if step % 97 == 0 {
            let i = rng.range_u64(0, active as u64) as usize;
            gpu.set_bias(tag_of(i), rng.range_f64(0.5, 2.0));
        }
        // Periodically cancel: every payload of a few busy contexts
        // (emptying their queues) plus a scattering of single payloads.
        if step % 37 == 36 {
            let busy: Vec<usize> = (0..active).filter(|&i| !shadow[i].is_empty()).collect();
            let mut doomed = HashSet::new();
            for _ in 0..busy.len().min(3) {
                let i = busy[rng.range_u64(0, busy.len() as u64) as usize];
                doomed.extend(shadow[i].iter().copied());
            }
            for _ in 0..4 {
                doomed.insert(rng.range_u64(0, next_payload.max(1)));
            }
            let mut want = 0;
            for q in &mut shadow {
                let before = q.len();
                q.retain(|p| !doomed.contains(p));
                want += before - q.len();
            }
            assert_eq!(gpu.cancel_payloads(&doomed), want, "step {step}");
            cancelled += want;
        }
        // Pump at the instant the device drains (or now, if it is idle).
        now = now.max(gpu.busy_until());
        match gpu.try_start(now) {
            Some(k) => {
                let StartedKernel {
                    payload,
                    tag,
                    start,
                    end,
                    duration,
                } = k;
                let i = index_of(tag);
                assert_eq!(
                    shadow[i].pop_front(),
                    Some(payload),
                    "FIFO within a context"
                );
                assert!(start >= now && end == start + duration);
                for v in [payload, tag.0, start.as_nanos(), end.as_nanos()] {
                    fnv_feed(&mut digest, v);
                }
                started += 1;
            }
            None => {
                assert_eq!(gpu.queued(), 0, "idle device with queued work");
                now += SimDuration::from_micros(rng.range_u64(1, 50));
            }
        }
        // Counts agree with the shadow model.
        let total: usize = shadow.iter().map(VecDeque::len).sum();
        max_busy = max_busy.max(shadow.iter().filter(|q| !q.is_empty()).count());
        assert_eq!(gpu.queued(), total, "step {step}");
        for _ in 0..2 {
            let i = rng.range_u64(0, CONTEXTS as u64) as usize;
            assert_eq!(gpu.queued_for(tag_of(i)), shadow[i].len(), "step {step}");
        }
    }
    // Drain what is left.
    while let Some(k) = gpu.try_start(gpu.busy_until()) {
        for v in [k.payload, k.tag.0, k.start.as_nanos(), k.end.as_nanos()] {
            fnv_feed(&mut digest, v);
        }
        started += 1;
    }
    assert_eq!(gpu.queued(), 0);
    assert_eq!(gpu.kernel_count(), started as u64);
    Outcome {
        digest,
        started,
        cancelled,
        max_busy,
    }
}

#[test]
fn arbitration_stream_is_pinned() {
    let got = run_script(0x000A_2B17);
    assert_eq!(
        got,
        Outcome {
            digest: 0x77bb_705c_8d66_4c63,
            started: 11_989,
            cancelled: 1_430,
            max_busy: 23,
        },
        "arbitration output changed: digest {:#018x}",
        got.digest
    );
}
