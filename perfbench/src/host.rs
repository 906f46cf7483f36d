//! The host side of a run: the CPU it is pinned to, the reference kernel
//! timed beside every op, and fixed probes timed once per run so a slow
//! phase of the host can be told apart from a regression of the program.
//! The probes are recorded, never gated.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Iterations of the ALU probe (about 20 ms on a 2.5 GHz core).
const ALU_STEPS: u64 = 6_000_000;

/// Slots of the memory probe's pointer-chase ring: 16 MiB of `u32`,
/// larger than the last-level cache of a typical shared host.
const MEM_SLOTS: usize = 1 << 22;

/// Dependent loads of the memory probe (about 50 ms at 200 ns a miss).
const MEM_STEPS: usize = 1 << 18;

/// Probe repetitions; the median is reported.
const REPEATS: usize = 3;

/// Host probe timings, milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct HostProbe {
    /// Median time of a fixed xorshift loop (registers only).
    pub alu_ms: f64,
    /// Median time of a fixed random pointer chase over a 16 MiB ring.
    pub mem_ms: f64,
}

/// Iterations of the reference kernel's multiply-rotate chains.
const REF_STEPS: u64 = 1_000_000;

/// Words of the reference kernel's streamed buffer: 1 MiB, which stays
/// in a core's private L2 cache.
const REF_WORDS: usize = 1 << 17;

/// Passes of the reference kernel over its buffer.
const REF_PASSES: usize = 8;

/// A fixed kernel timed beside every op: four independent
/// multiply-rotate chains, then a streaming sum over an L2-resident
/// buffer (about 1.2 ms on an idle 2.0 GHz core). It contends for the
/// same core resources as the workloads (execution ports, L1 and L2
/// caches), which a tenant on the sibling hardware thread of a shared
/// host takes away in phases of seconds to minutes. An op's time over
/// the kernel's time beside it therefore cancels most of those phases,
/// which the latency-bound [`HostProbe`] loops barely notice.
pub struct Reference {
    buf: Vec<u64>,
}

impl Reference {
    /// The kernel, with its buffer filled.
    pub fn new() -> Self {
        Self {
            buf: (0..REF_WORDS as u64).collect(),
        }
    }

    /// Runs the kernel once; its wall time, ms.
    pub fn time_ms(&self) -> f64 {
        time_ms(|| chains() ^ stream(&self.buf))
    }
}

fn chains() -> u64 {
    let (mut a, mut b) = (black_box(1_u64), black_box(2_u64));
    let (mut c, mut d) = (black_box(3_u64), black_box(4_u64));
    for i in 0..REF_STEPS {
        a = a.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        b = b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F).wrapping_add(i);
        c = c.rotate_left(7) ^ i;
        d = d.rotate_left(11).wrapping_add(c);
    }
    a ^ b ^ c ^ d
}

fn stream(buf: &[u64]) -> u64 {
    let mut sum = 0_u64;
    for _ in 0..REF_PASSES {
        sum = black_box(buf.iter().fold(sum, |s, &x| s.wrapping_add(x)));
    }
    sum
}

/// Times both probes.
pub fn probe() -> HostProbe {
    let ring = chase_ring();
    let alu: Vec<f64> = (0..REPEATS).map(|_| time_ms(alu_loop)).collect();
    let mem: Vec<f64> = (0..REPEATS).map(|_| time_ms(|| chase(&ring))).collect();
    HostProbe {
        alu_ms: crate::stats::median(&alu),
        mem_ms: crate::stats::median(&mem),
    }
}

fn time_ms(f: impl FnOnce() -> u64) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

fn alu_loop() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for i in 0..ALU_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    x
}

/// A single-cycle random permutation (Sattolo's algorithm on a fixed
/// LCG), so every load depends on the previous one and misses cache.
fn chase_ring() -> Vec<u32> {
    let mut ring: Vec<u32> = (0..MEM_SLOTS as u32).collect();
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    for i in (1..MEM_SLOTS).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((state >> 33) as usize) % i;
        ring.swap(i, j);
    }
    ring
}

fn chase(ring: &[u32]) -> u64 {
    let mut at = 0u32;
    for _ in 0..MEM_STEPS {
        at = ring[at as usize];
    }
    u64::from(at)
}

// The C library's CPU-affinity calls (Linux), which `std` does not wrap.
extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Bytes of a `cpu_set_t`: room for 1024 CPUs.
const CPU_SET_BYTES: usize = 128;

/// The affinity the process had before [`pin_to_current_cpu`].
static UNPINNED: OnceLock<[u8; CPU_SET_BYTES]> = OnceLock::new();

/// Pins the calling thread, and so every thread it starts later, to the
/// CPU it runs on now; returns that CPU. A closed loop then runs all its
/// work, server threads included, on the CPU the reference kernel is
/// timed on, rather than wherever the scheduler wakes each thread.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    let original = affinity()?;
    // SAFETY: no arguments; returns the CPU or -1.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_owned())?;
    let mut one = [0_u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    set_affinity(&one)?;
    let _ = UNPINNED.set(original);
    Ok(cpu)
}

/// Runs `f` with the affinity the process had before it was pinned, for
/// measurement work that needs several CPUs.
pub fn unpinned<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    let Some(original) = UNPINNED.get() else {
        return Ok(f());
    };
    let pinned = affinity()?;
    set_affinity(original)?;
    let out = f();
    set_affinity(&pinned)?;
    Ok(out)
}

fn affinity() -> Result<[u8; CPU_SET_BYTES], String> {
    let mut mask = [0_u8; CPU_SET_BYTES];
    // SAFETY: the mask is `CPU_SET_BYTES` long, as passed.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(mask)
}

fn set_affinity(mask: &[u8; CPU_SET_BYTES]) -> Result<(), String> {
    // SAFETY: the mask is `CPU_SET_BYTES` long, as passed.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Process peak resident memory (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    bench::harness::peak_rss_kb() as f64 / 1024.0
}
