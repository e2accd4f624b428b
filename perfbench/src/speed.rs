//! Host-speed probe: a fixed piece of work timed just before and just
//! after each measured process, so that its host times can be read
//! against the host's speed at that moment.
//!
//! A shared VM's speed wanders with its neighbours' load: the same
//! engine run, and this probe, take 0.7–1.4× their median time for
//! minutes at a time. Both drift together, so a host time divided by
//! the probe's time stays put where the raw time does not. The probe is
//! the benchmark's own code and uses only `std`: no change to the
//! simulator can make it faster or slower. It runs in a process of its
//! own (`perfbench --speed-probe`), so that its large allocations leave
//! the measured process's allocator exactly as cold as before.
//!
//! Its work resembles the engine's: random writes over a table larger
//! than the last-level cache of a small VM, and an event-queue drain
//! (pop the earliest deadline, touch the table, push a later one).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

use crate::host::clock;

/// Seconds the probe takes on the reference host. Host times are
/// reported as reference-host seconds: the raw reading scaled by
/// `REFERENCE_S / probe seconds`. The value is a round figure of the
/// order of the probe's time on a 2-vCPU shared VM, where it read
/// 0.11–0.22 s; being fixed, it keeps scaled figures comparable from
/// run to run.
pub const REFERENCE_S: f64 = 0.2;

/// Table size, in `u64`s, of both loops: 8 MiB and 4 MiB.
const SCATTER_WORDS: usize = 1 << 20;
const QUEUE_WORDS: usize = 1 << 19;
/// Iterations of each loop.
const SCATTERS: u64 = 10_000_000;
const QUEUE_OPS: u32 = 600_000;
/// Events pending in the probe's queue.
const QUEUE_DEPTH: u32 = 4096;

/// Host seconds the probe's fixed work takes now.
pub fn probe_s() -> f64 {
    let t0 = clock();
    black_box(scatter());
    black_box(queue());
    t0.elapsed().as_secs_f64()
}

/// One step of a 64-bit linear congruential generator.
fn lcg(x: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
}

/// Random read-modify-writes over an 8 MiB table.
fn scatter() -> u64 {
    let mut table = vec![0u64; SCATTER_WORDS];
    let mut x = 1u64;
    for i in 0..SCATTERS {
        x = lcg(x);
        let k = (x >> 44) as usize % SCATTER_WORDS;
        table[k] = table[k].wrapping_add(i);
    }
    table.iter().fold(0, |a, &v| a ^ v)
}

/// An event-queue drain over a 4 MiB table: pop the earliest event,
/// update a table word, schedule a later event.
fn queue() -> u64 {
    let mut table = vec![0u64; QUEUE_WORDS];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..QUEUE_DEPTH)
        .map(|i| Reverse((u64::from(i), i)))
        .collect();
    let mut x = 7u64;
    for _ in 0..QUEUE_OPS {
        let Some(Reverse((now, slot))) = heap.pop() else {
            break;
        };
        x = lcg(x);
        let k = ((x >> 45) as usize ^ slot as usize) % QUEUE_WORDS;
        table[k] = table[k].wrapping_add(now);
        heap.push(Reverse((now + 1 + (x >> 54), k as u32 & 0xffff)));
    }
    table.iter().fold(0, |a, &v| a ^ v)
}
