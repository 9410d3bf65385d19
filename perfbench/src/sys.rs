//! Process readings on Linux (the process CPU clock, procfs memory fields),
//! and the seeded generator every workload draws its inputs from.

/// User + system CPU seconds of this whole process: every thread, including
/// the ones that already exited (the worker pool spawns short-lived threads).
/// Read from `CLOCK_PROCESS_CPUTIME_ID`, to the nanosecond, so a single
/// short operation can be timed.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock: std::os::raw::c_int, ts: *mut Timespec) -> std::os::raw::c_int;
    }
    const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`, ...) in MiB.
pub fn memory_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs: /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|value| value.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("procfs: no {field} in /proc/self/status"));
    kib / 1024.0
}

/// Samples this process's resident set every 5 ms on a background thread,
/// so a run can report the peak of each timed operation separately rather
/// than the single all-time peak, which one unlucky operation sets.
pub struct RssSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    thread: std::thread::JoinHandle<Vec<(std::time::Instant, f64)>>,
}

impl RssSampler {
    pub fn start() -> RssSampler {
        use std::sync::atomic::Ordering;
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                samples.push((std::time::Instant::now(), memory_mb("VmRSS")));
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            samples
        });
        RssSampler { stop, thread }
    }

    /// Stops sampling; returns a function giving the peak between two instants.
    pub fn finish(self) -> impl Fn(std::time::Instant, std::time::Instant) -> f64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let samples = self.thread.join().expect("RSS sampler thread");
        move |from, to| {
            samples
                .iter()
                .filter(|(t, _)| *t >= from && *t <= to)
                .map(|&(_, mb)| mb)
                .fold(0.0, f64::max)
        }
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}
