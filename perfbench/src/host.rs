//! Host speed, measured between operations so timings can be scaled to
//! a reference speed.
//!
//! On a shared 2-vCPU x86-64 VM the same simulation ran 0.8-1.3x its
//! mean time in 10 s bins, and the host's speed drifted over minutes, so
//! the spread of 30 s run means stayed near 0.15-0.18 of their median
//! however long the runs were. A fixed probe of this file's own code,
//! run between operations, slowed and sped up with the simulation
//! (correlation 0.8 per operation): dividing each window's mean
//! operation time by the median probe time cut that spread to 0.03-0.05.
//!
//! The probe is a table walk and a binary heap, the shape of an event
//! queue's work, over 512 KiB that no program code touches; a change to
//! the program cannot change its cost. Its time is never part of an
//! operation's time.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Probe steps: about 10 ms on the reference host.
const STEPS: u64 = 200_000;
/// Entries of the probe's table (8 bytes each).
const TABLE_LEN: usize = 1 << 16;
/// Entries kept in the probe's heap.
const HEAP_LEN: usize = 2048;
/// The probe's median time on the reference host, a 2-vCPU x86-64 VM;
/// timings are scaled to the speed at which it takes this long.
pub const REFERENCE_S: f64 = 0.010;
/// Least time between two probes, so they cost a few per cent of a run
/// and sample it evenly.
const INTERVAL: Duration = Duration::from_millis(500);

/// Probe times since the last [`take_factor`].
struct Samples {
    times: Vec<f64>,
    last: Option<Instant>,
}

static SAMPLES: Mutex<Samples> = Mutex::new(Samples {
    times: Vec::new(),
    last: None,
});

fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..TABLE_LEN as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect()
    })
}

/// Runs the probe once and returns its time in seconds.
pub fn probe() -> f64 {
    let table = table();
    let t = Instant::now();
    let (mut x, mut acc) = (0x1234_5678_u64, 0_u64);
    let mut heap = BinaryHeap::with_capacity(HEAP_LEN + 1);
    for i in 0..STEPS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        acc = acc.wrapping_add(table[(x >> 48) as usize % TABLE_LEN]);
        heap.push(Reverse((acc & 0xffff) + i));
        if heap.len() > HEAP_LEN {
            acc ^= heap.pop().map_or(0, |Reverse(k)| k);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Probes and records the time, unconditionally. Call it where no
/// operation is in flight; returns the seconds it took.
pub fn sample() -> f64 {
    let t = probe();
    let mut s = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
    s.times.push(t);
    s.last = Some(Instant::now());
    t
}

/// Probes if [`INTERVAL`] has passed since the last probe. Call it
/// between operations; returns the seconds it took (0 if it did not
/// probe), which the caller leaves out of its timings.
pub fn between_ops() -> f64 {
    let due = {
        let s = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
        s.last.is_none_or(|at| at.elapsed() >= INTERVAL)
    };
    if due {
        sample()
    } else {
        0.0
    }
}

/// How fast the host ran during a run.
#[derive(Debug, Clone, Copy)]
pub struct Factor {
    /// [`REFERENCE_S`] over the median probe time, below 1 on a slower
    /// host. A timing times the factor is that timing at reference speed.
    pub factor: f64,
    /// Probes taken.
    pub probes: usize,
    /// Their median time, seconds.
    pub median_s: f64,
}

/// The host factor of the probes since the last call, which it clears.
/// `None` without probes.
pub fn take_factor() -> Option<Factor> {
    let mut s = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
    let times = std::mem::take(&mut s.times);
    s.last = None;
    if times.is_empty() {
        return None;
    }
    let median_s = crate::stats::median(&times);
    Some(Factor {
        factor: REFERENCE_S / median_s,
        probes: times.len(),
        median_s,
    })
}
