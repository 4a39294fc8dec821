//! What the host tells the harness and what the harness asks of it: the
//! CPU clocks, peak memory from `/proc`, the pure-CPU canary and the
//! slowdown it stands for, the one CPU a run confines itself to, and the
//! facts recorded in a run's header.

use std::hint::black_box;
use std::process::Command;

#[cfg(target_os = "linux")]
mod cpu_clock {
    /// glibc's `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }

    pub const PROCESS: i32 = 2; // CLOCK_PROCESS_CPUTIME_ID
    pub const THREAD: i32 = 3; // CLOCK_THREAD_CPUTIME_ID

    pub fn now_ns(clock: i32) -> u64 {
        let mut time = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `time` is a writable `timespec`; both clocks exist on
        // every Linux this builds for, so the call cannot fail.
        unsafe { clock_gettime(clock, &mut time) };
        time.sec as u64 * 1_000_000_000 + time.nsec as u64
    }
}

/// Without the CPU clocks, wall time since the first reading.
#[cfg(not(target_os = "linux"))]
mod cpu_clock {
    pub const PROCESS: i32 = 2;
    pub const THREAD: i32 = 3;

    pub fn now_ns(_: i32) -> u64 {
        static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
        START
            .get_or_init(std::time::Instant::now)
            .elapsed()
            .as_nanos() as u64
    }
}

/// CPU nanoseconds consumed so far by every thread of this process, to
/// the nanosecond for the calling thread and, on the one CPU the run
/// confines itself to, for every other thread too: none of them is
/// running while this one reads the clock.
///
/// The guest kernel does not count as CPU time what the hypervisor took
/// away (stolen time), so this is the clock to time CPU-bound work with
/// on a host that is oversubscribed: in the worst half hour seen here
/// the process got 45–55 % of its vCPU, and wall time per op doubled
/// while CPU time per op moved by a few per cent.
pub fn process_cpu_ns() -> u64 {
    cpu_clock::now_ns(cpu_clock::PROCESS)
}

/// CPU nanoseconds consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock::now_ns(cpu_clock::THREAD)
}

/// The `VmHWM` line of a `/proc/<pid>/status` text, in MiB.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

/// What the canary takes on an undisturbed core of the host class this
/// benchmark was made on (Xeon @ 2.1 GHz: 4.55–4.65 ms whenever the core
/// is quiet).
pub const CANARY_REFERENCE_NS: f64 = 4_600_000.0;

/// The program feels a busy neighbour more than the canary does: beside
/// canary readings of 1.38–1.40 times the reference, the ops of all three
/// workloads took 1.48–1.53 times their undisturbed time, a power of
/// 1.26–1.30; over all trials, bursts included, the fitted power was
/// 1.05–1.37. See `README.md`, *Noise*.
const PROGRAM_OVER_CANARY: f64 = 1.25;

/// By how much the host slowed the program down between two canary
/// readings: their mean over the reference, to the power above. Every
/// timed end-to-end metric is divided by this, so it reads as the time on
/// an undisturbed core of the reference host class. On another host class
/// the scale is another one, the same for every commit measured there.
pub fn slowdown(canary_ns: [u64; 2]) -> f64 {
    let mean = (canary_ns[0] + canary_ns[1]).max(1) as f64 / 2.0;
    (mean / CANARY_REFERENCE_NS).powf(PROGRAM_OVER_CANARY)
}

/// A fixed integer loop of four independent chains over a 32 KiB table,
/// timed in CPU time of the calling thread: its time moves only when the
/// machine does, never when the code under test does. The chains keep
/// the core's ports busy, so that a busy hyperthread sibling shows; one
/// dependent chain would run at the same speed either way. Shorter loops
/// and loops that miss the cache, branch or allocate were tried as
/// predictors of a trial's slowdown; none did better than this one.
pub fn canary_ns() -> u64 {
    let table: [u64; 4096] =
        std::array::from_fn(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let t0 = thread_cpu_ns();
    let (mut a, mut b, mut c, mut d) = (black_box(1u64), 2u64, 3u64, 4u64);
    for i in 0..3_000_000u64 {
        a = a
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(table[(i & 4095) as usize]);
        b = b.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        c ^= c << 13;
        c ^= c >> 7;
        d = d.wrapping_add(a ^ b);
    }
    black_box((a, b, c, d));
    thread_cpu_ns() - t0
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines this thread, and every thread it spawns later, to the highest
/// numbered CPU it may run on, and returns that CPU. A hand-off between
/// two vCPUs costs an inter-processor interrupt and, when the other vCPU
/// has halted, a wake-up by the host's scheduler: 17, 25 or 73 µs here,
/// depending on how long ago the vCPU was last woken. On one CPU a
/// hand-off is a context switch, and the threads of a closed loop take
/// turns in one order. `None` where the calls do not exist or fail; the
/// run then goes on unconfined.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // 1024 CPUs, the size of glibc's `cpu_set_t`.
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is `bytes` long and writable; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        mask = [0; 16];
        mask[word] = 1 << bit;
        // SAFETY: `mask` is `bytes` long and readable; pid 0 is this thread.
        (unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// `commit=… rustc=… nproc=… cpu="…"` for the header line of a run. A
/// checkout that is not a git repository reports `commit=unknown`.
pub fn describe() -> String {
    let unknown = || "unknown".to_owned();
    let commit = command_line("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(unknown);
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(unknown);
    // Read before the run confines itself to one CPU.
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(unknown);
    format!("commit={commit} rustc=\"{rustc}\" nproc={nproc} cpu=\"{cpu}\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tledger\nVmPeak:\t  9000 kB\nVmHWM:\t    1536 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(1.5));
        assert_eq!(parse_vm_hwm_mib("Name:\tledger\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tmany kB\n"), None);
    }

    #[test]
    fn slowdown_is_one_at_the_reference_and_grows_faster_than_the_canary() {
        let reference = CANARY_REFERENCE_NS as u64;
        assert_eq!(slowdown([reference; 2]), 1.0);
        assert_eq!(slowdown([reference - 1_000, reference + 1_000]), 1.0);
        let busy = slowdown([reference * 7 / 5; 2]);
        assert!(busy > 1.4 && busy < 1.6, "{busy}");
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        // In a thread of its own: the test harness's other threads keep
        // their CPUs.
        let seen = std::thread::spawn(|| {
            let cpu = pin_to_one_cpu();
            (
                cpu,
                std::thread::available_parallelism().map(|n| n.get()).ok(),
            )
        })
        .join()
        .unwrap();
        if let (Some(_), Some(n)) = seen {
            assert_eq!(n, 1);
        }
    }

    #[test]
    fn live_proc_readings_are_positive_and_monotonic() {
        let (process, thread) = (process_cpu_ns(), thread_cpu_ns());
        let canary = canary_ns();
        assert!(canary > 0);
        // The canary ran on this thread, which is one of the process's.
        assert!(thread_cpu_ns() - thread >= canary);
        assert!(process_cpu_ns() - process >= canary);
        assert!(peak_rss_mib() > 0.0);
    }
}
