//! Host-speed correction for the times `serve-churn` and `detect-wifi`
//! report (`city-shard` reports host seconds; see README.md).
//!
//! The benchmark runs on shared virtual machines whose speed changes by a
//! quarter or more in phases of seconds to minutes, with user time equal
//! to wall time: slower execution, not descheduling. A phase can outlast
//! a whole run, so no order statistic over one run's samples removes it.
//! Instead a fixed probe — sorting the same 2 MB of pseudo-random `u64` —
//! runs between pieces of measured work, and each piece's host seconds
//! are scaled by `REFERENCE_S / probe`, the mean of the probes on either
//! side of it: reported times are seconds at the host speed at which the
//! probe takes [`REFERENCE_S`]. A sort of a few MB slows with the host
//! the way the simulator does (windowed correlation 0.86–0.93), where an
//! ALU loop does not.
//!
//! The probe is the benchmark's own code, so a change to wsan moves a
//! scaled time by the same share as the host time; the host times are
//! printed on stderr. The probe runs in a helper process (this binary
//! with `--pace-probe`) so its memory stays out of every `peak_rss_mb`;
//! the helper inherits its parent's CPU affinity, so a pinned workload
//! probes the CPU it runs on.

use crate::stream::SplitMix;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Seconds one probe takes at the reference host speed: about its median
/// over hours of runs on the 2-vCPU KVM guest (Intel Xeon) the bounds
/// were set on, where it ranged from 4.6 to 8 ms with the host's phases.
pub const REFERENCE_S: f64 = 0.007;
/// Elements the probe sorts.
const LEN: usize = 250_000;

/// `secs` of host time, measured between probes that took `before` and
/// `after` seconds, as seconds at the reference host speed.
pub fn scaled(secs: f64, before: f64, after: f64) -> f64 {
    secs * 2.0 * REFERENCE_S / (before + after)
}

/// Seconds one probe takes now: copy the fixed input and sort it.
fn probe_once(input: &[u64], scratch: &mut Vec<u64>) -> f64 {
    let t = Instant::now();
    scratch.clear();
    scratch.extend_from_slice(input);
    scratch.sort_unstable();
    black_box(&scratch);
    t.elapsed().as_secs_f64()
}

/// Body of the `--pace-probe` helper: for each line on stdin, runs one
/// probe and prints its seconds; ends when stdin closes.
pub fn serve_probes() -> Result<(), String> {
    let mut rng = SplitMix::new(0x50_7e);
    let input: Vec<u64> = (0..LEN).map(|_| rng.next_u64()).collect();
    let mut scratch = Vec::with_capacity(LEN);
    probe_once(&input, &mut scratch);
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| format!("probe helper cannot read: {e}"))?;
        writeln!(out, "{:?}", probe_once(&input, &mut scratch))
            .and_then(|()| out.flush())
            .map_err(|e| format!("probe helper cannot write: {e}"))?;
    }
    Ok(())
}

/// A running probe helper. Dropping it closes its stdin and waits for it.
pub struct Pace {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Pace {
    pub fn spawn() -> Result<Pace, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--pace-probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the probe helper: {e}"))?;
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Pace { child, input, output })
    }

    /// Seconds of one probe, run now.
    pub fn probe(&mut self) -> Result<f64, String> {
        let input = self.input.as_mut().expect("stdin stays open until drop");
        writeln!(input).map_err(|e| format!("probe helper gone: {e}"))?;
        let mut line = String::new();
        self.output.read_line(&mut line).map_err(|e| format!("probe helper gone: {e}"))?;
        line.trim().parse().map_err(|_| format!("probe helper answered '{}'", line.trim()))
    }
}

impl Drop for Pace {
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// Pins the calling thread, and so every process it spawns afterwards, to
/// CPU 0.
pub fn pin_to_one_cpu() -> Result<(), String> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A cpu_set_t of 1024 bits with only CPU 0 set.
    let mask: [u64; 16] = {
        let mut m = [0u64; 16];
        m[0] = 1;
        m
    };
    // SAFETY: `mask` is an initialised buffer of exactly `cpusetsize` bytes
    // that outlives the call, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_proportional_to_host_time_and_inverse_to_probe_time() {
        assert_eq!(scaled(2.0, REFERENCE_S, REFERENCE_S), 2.0);
        assert!((scaled(2.0, 2.0 * REFERENCE_S, 2.0 * REFERENCE_S) - 1.0).abs() < 1e-12);
        assert!((scaled(3.0, REFERENCE_S, 3.0 * REFERENCE_S) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn a_probe_sorts_and_takes_time() {
        let input: Vec<u64> = (0..1000u64).rev().collect();
        let mut scratch = Vec::new();
        assert!(probe_once(&input, &mut scratch) > 0.0);
        assert!(scratch.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(scratch.len(), input.len());
    }
}
