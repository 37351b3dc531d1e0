//! The simulated device: kernel launches, the simulated clock, and the
//! kernel log.

use crate::counters::{KernelRecord, LaunchStats, TaskCtx};
use crate::profile::GpuProfile;
use crate::sanitize;
use crate::warp::{WarpCtx, WARP_SIZE};

/// A simulated GPU.
///
/// The device executes kernels (really — the closures run and mutate device
/// buffers) and advances a simulated clock according to the profile's cost
/// model. A launch runs its tasks on the calling thread in task order, so
/// atomic outcomes and CAS retry counts are reproducible; the *simulated*
/// time is unrelated to host wall-clock.
///
/// ```
/// use ecl_gpu_sim::{BufU32, Device, GpuProfile};
/// let mut dev = Device::new(GpuProfile::TITAN_V);
/// let counter = BufU32::new(1, 0);
/// dev.launch("increment", 1000, |_, ctx| {
///     counter.atomic_add(ctx, 0, 1);
/// });
/// assert_eq!(counter.host_read(0), 1000);
/// assert!(dev.kernel_seconds() > 0.0);
/// ```
#[derive(Debug)]
pub struct Device {
    profile: GpuProfile,
    kernel_seconds: f64,
    memcpy_seconds: f64,
    records: Vec<KernelRecord>,
}

impl Device {
    /// Creates a device with the given profile.
    pub fn new(profile: GpuProfile) -> Self {
        Self {
            profile,
            kernel_seconds: 0.0,
            memcpy_seconds: 0.0,
            records: Vec::new(),
        }
    }

    /// The device's cost profile.
    pub fn profile(&self) -> &GpuProfile {
        &self.profile
    }

    /// Launches a thread-granularity kernel of `tasks` logical threads.
    ///
    /// `f(task_index, ctx)` runs once per task; accesses metered through
    /// `ctx` drive the simulated duration. Returns the launch statistics.
    pub fn launch<F>(&mut self, name: &str, tasks: usize, f: F) -> LaunchStats
    where
        F: Fn(usize, &mut TaskCtx),
    {
        let profile = self.profile;
        let traffic = |c: &TaskCtx| {
            c.traffic_bytes(
                profile.sector_bytes,
                profile.atomic_penalty_bytes,
                profile.cas_retry_penalty_bytes,
                profile.access_overhead_bytes,
            )
        };
        // With a sanitizer session active, each task is attributed for
        // shadow checking. Charging happens before recording in every
        // accessor and the task order is the same, so the metered stats are
        // bit-identical to an unsanitized launch.
        let sanitized = sanitize::launch_begin(name);
        let mut totals = TaskCtx::new();
        let mut critical = 0u64;
        for i in 0..tasks {
            if sanitized {
                sanitize::set_task(i as u64);
            }
            let mut ctx = TaskCtx::new();
            f(i, &mut ctx);
            critical = critical.max(traffic(&ctx));
            totals.merge(&ctx);
        }
        let stats = LaunchStats {
            totals,
            critical_bytes: critical,
            tasks: tasks as u64,
        };
        if sanitized {
            sanitize::launch_end();
        }
        self.record(name, stats);
        stats
    }

    /// Launches a warp-capable kernel of `tasks` logical warps.
    ///
    /// Each task owns a [`WarpCtx`]; traffic metered on
    /// [`WarpCtx::parallel`] counts toward the task's critical path at
    /// 1/32 (the lanes share it), traffic on [`WarpCtx::serial`] in full.
    pub fn launch_warps<F>(&mut self, name: &str, tasks: usize, f: F) -> LaunchStats
    where
        F: Fn(usize, &mut WarpCtx),
    {
        let profile = self.profile;
        let traffic = |c: &TaskCtx| {
            c.traffic_bytes(
                profile.sector_bytes,
                profile.atomic_penalty_bytes,
                profile.cas_retry_penalty_bytes,
                profile.access_overhead_bytes,
            )
        };
        let sanitized = sanitize::launch_begin(name);
        let mut totals = TaskCtx::new();
        let mut critical = 0u64;
        for i in 0..tasks {
            if sanitized {
                sanitize::set_task(i as u64);
            }
            let mut w = WarpCtx::new();
            f(i, &mut w);
            critical = critical.max(traffic(&w.serial) + traffic(&w.parallel) / WARP_SIZE as u64);
            totals.merge(&w.serial);
            totals.merge(&w.parallel);
        }
        let stats = LaunchStats {
            totals,
            critical_bytes: critical,
            tasks: tasks as u64,
        };
        if sanitized {
            sanitize::launch_end();
        }
        self.record(name, stats);
        stats
    }

    fn record(&mut self, name: &str, stats: LaunchStats) {
        let total = stats.totals.traffic_bytes(
            self.profile.sector_bytes,
            self.profile.atomic_penalty_bytes,
            self.profile.cas_retry_penalty_bytes,
            self.profile.access_overhead_bytes,
        );
        let secs = self.profile.kernel_time(total, stats.critical_bytes);
        self.kernel_seconds += secs;
        if ecl_trace::enabled() {
            // Max-task over mean-task traffic: the per-launch imbalance
            // ratio (ISSUE 3's second new metered quantity). Derived from
            // already-metered values — nothing on the hot path widens.
            let imbalance = if total > 0 && stats.tasks > 0 {
                stats.critical_bytes as f64 * stats.tasks as f64 / total as f64
            } else {
                1.0
            };
            ecl_trace::on_launch(
                name,
                ecl_trace::LaunchMetrics {
                    tasks: stats.tasks,
                    coalesced_bytes: stats.totals.coalesced_bytes,
                    gather_accesses: stats.totals.gather_accesses,
                    atomics: stats.totals.atomics,
                    cas_retries: stats.totals.cas_retries,
                    accesses: stats.totals.accesses,
                    sim_seconds: secs,
                    imbalance,
                },
            );
        }
        self.records.push(KernelRecord {
            name: name.to_string(),
            stats,
            sim_seconds: secs,
        });
    }

    /// Meters a host-to-device copy of `bytes`.
    pub fn memcpy_h2d(&mut self, bytes: u64) {
        let secs = self.profile.memcpy_time(bytes);
        self.memcpy_seconds += secs;
        if ecl_trace::enabled() {
            ecl_trace::on_memcpy("memcpy_h2d", bytes, secs);
        }
    }

    /// Meters a device-to-host copy of `bytes`.
    pub fn memcpy_d2h(&mut self, bytes: u64) {
        let secs = self.profile.memcpy_time(bytes);
        self.memcpy_seconds += secs;
        if ecl_trace::enabled() {
            ecl_trace::on_memcpy("memcpy_d2h", bytes, secs);
        }
    }

    /// Meters a loop-control synchronization: the `cudaMemcpy`-inside-a-
    /// `while` pattern (§2, Pai & Pingali) where the host reads a few bytes
    /// to decide whether to launch another round. Unlike bulk transfers,
    /// this stalls the computation itself, so it accrues to **kernel**
    /// time — codes with nested convergence loops (pointer jumping, color
    /// flooding) pay it once per inner iteration.
    pub fn sync_read(&mut self) {
        let secs = self.profile.memcpy_time(4);
        self.kernel_seconds += secs;
        if ecl_trace::enabled() {
            ecl_trace::on_memcpy("sync_read", 4, secs);
        }
    }

    /// Simulated seconds spent in kernels so far.
    pub fn kernel_seconds(&self) -> f64 {
        self.kernel_seconds
    }

    /// Simulated seconds spent in host↔device copies so far.
    pub fn memcpy_seconds(&self) -> f64 {
        self.memcpy_seconds
    }

    /// Simulated kernel + memcpy seconds.
    pub fn total_seconds(&self) -> f64 {
        self.kernel_seconds + self.memcpy_seconds
    }

    /// The per-launch log, in launch order.
    pub fn records(&self) -> &[KernelRecord] {
        &self.records
    }

    /// Number of kernel launches so far.
    pub fn launches(&self) -> usize {
        self.records.len()
    }

    /// Resets the clock and the kernel log (buffers are untouched).
    pub fn reset(&mut self) {
        self.kernel_seconds = 0.0;
        self.memcpy_seconds = 0.0;
        self.records.clear();
    }

    /// Per-kernel-name aggregate of the launch log, in first-launch
    /// order (launch counts, summed seconds, summed event totals).
    pub fn kernel_breakdown(&self) -> Vec<crate::counters::KernelBreakdown> {
        crate::counters::aggregate_records(&self.records)
    }

    /// Sums simulated seconds per kernel name — the §5.1 profiling claim
    /// ("the initialization kernel takes about 40% of the total runtime")
    /// is checked against this. Thin projection of [`Self::kernel_breakdown`].
    pub fn time_by_kernel(&self) -> Vec<(String, f64)> {
        self.kernel_breakdown()
            .into_iter()
            .map(|b| (b.name, b.sim_seconds))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{BufU32, ConstBuf};

    #[test]
    fn launch_runs_every_task() {
        let mut dev = Device::new(GpuProfile::TITAN_V);
        let out = BufU32::new(100, 0);
        let _ = dev.launch("mark", 100, |i, ctx| {
            out.st(ctx, i, i as u32 + 1);
        });
        for i in 0..100 {
            assert_eq!(out.host_read(i), i as u32 + 1);
        }
    }

    #[test]
    fn clock_advances_per_launch() {
        let mut dev = Device::new(GpuProfile::TITAN_V);
        let _ = dev.launch("noop", 0, |_, _| {});
        let t1 = dev.kernel_seconds();
        assert!(t1 >= GpuProfile::TITAN_V.launch_overhead);
        let _ = dev.launch("noop", 0, |_, _| {});
        assert!(dev.kernel_seconds() > t1);
        assert_eq!(dev.launches(), 2);
    }

    #[test]
    fn traffic_increases_time() {
        let data: Vec<u32> = (0..100_000).collect();
        let buf = ConstBuf::from_slice(&data);
        let mut light = Device::new(GpuProfile::TITAN_V);
        let _ = light.launch("read1", 1000, |i, ctx| {
            let _ = buf.ld(ctx, i);
        });
        let mut heavy = Device::new(GpuProfile::TITAN_V);
        let _ = heavy.launch("read100", 1000, |i, ctx| {
            for k in 0..100 {
                let _ = buf.ld(ctx, i * 100 + k);
            }
        });
        assert!(heavy.kernel_seconds() > light.kernel_seconds());
    }

    #[test]
    fn imbalanced_thread_kernel_slower_than_balanced() {
        // Same total traffic, one task hogging it vs spread out.
        let data: Vec<u32> = (0..1 << 16).collect();
        let buf = ConstBuf::from_slice(&data);
        let mut balanced = Device::new(GpuProfile::TITAN_V);
        let _ = balanced.launch("balanced", 1 << 12, |i, ctx| {
            for k in 0..16 {
                let _ = buf.ld_gather(ctx, (i * 16 + k) % data.len());
            }
        });
        let mut skewed = Device::new(GpuProfile::TITAN_V);
        let _ = skewed.launch("skewed", 1 << 12, |i, ctx| {
            if i == 0 {
                for k in 0..(1 << 16) {
                    let _ = buf.ld_gather(ctx, k % data.len());
                }
            }
        });
        assert!(skewed.kernel_seconds() > balanced.kernel_seconds());
    }

    #[test]
    fn warp_parallel_traffic_shrinks_critical_path() {
        let data: Vec<u32> = (0..1 << 16).collect();
        let buf = ConstBuf::from_slice(&data);
        // One hub task with lots of traffic: warp-parallel metering should
        // yield a smaller simulated time than serial metering.
        let mut as_serial = Device::new(GpuProfile::TITAN_V);
        let _ = as_serial.launch_warps("serial-hub", 64, |i, w| {
            if i == 0 {
                for k in 0..(1 << 16) {
                    let _ = buf.ld(&mut w.serial, k);
                }
            }
        });
        let mut as_parallel = Device::new(GpuProfile::TITAN_V);
        let _ = as_parallel.launch_warps("warp-hub", 64, |i, w| {
            if i == 0 {
                for k in 0..(1 << 16) {
                    let _ = buf.ld(&mut w.parallel, k);
                }
            }
        });
        assert!(as_parallel.kernel_seconds() < as_serial.kernel_seconds());
    }

    #[test]
    fn memcpy_metering() {
        let mut dev = Device::new(GpuProfile::TITAN_V);
        assert_eq!(dev.memcpy_seconds(), 0.0);
        dev.memcpy_h2d(1 << 20);
        let t = dev.memcpy_seconds();
        assert!(t > 0.0);
        dev.memcpy_d2h(1 << 20);
        assert!(dev.memcpy_seconds() > t);
        assert!(dev.total_seconds() >= dev.memcpy_seconds());
    }

    #[test]
    fn reset_clears_clock_and_log() {
        let mut dev = Device::new(GpuProfile::TITAN_V);
        let _ = dev.launch("k", 1, |_, ctx| ctx.charge_coalesced(4));
        dev.memcpy_h2d(1024);
        dev.reset();
        assert_eq!(dev.kernel_seconds(), 0.0);
        assert_eq!(dev.memcpy_seconds(), 0.0);
        assert!(dev.records().is_empty());
    }

    #[test]
    fn time_by_kernel_groups_names() {
        let mut dev = Device::new(GpuProfile::TITAN_V);
        let _ = dev.launch("a", 1, |_, _| {});
        let _ = dev.launch("b", 1, |_, _| {});
        let _ = dev.launch("a", 1, |_, _| {});
        let by = dev.time_by_kernel();
        assert_eq!(by.len(), 2);
        let a = by.iter().find(|(n, _)| n == "a").unwrap().1;
        let b = by.iter().find(|(n, _)| n == "b").unwrap().1;
        assert!(a > b);
    }

    #[test]
    fn kernel_breakdown_backs_time_by_kernel() {
        let mut dev = Device::new(GpuProfile::TITAN_V);
        let buf = BufU32::new(64, 0);
        let _ = dev.launch("a", 64, |i, ctx| {
            let _ = buf.atomic_add(ctx, i % 8, 1);
        });
        let _ = dev.launch("b", 8, |_, _| {});
        let _ = dev.launch("a", 64, |i, ctx| {
            let _ = buf.ld(ctx, i);
        });
        let breakdown = dev.kernel_breakdown();
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown[0].name, "a");
        assert_eq!(breakdown[0].launches, 2);
        assert_eq!(breakdown[0].totals.atomics, 64);
        let by_time = dev.time_by_kernel();
        assert_eq!(by_time.len(), breakdown.len());
        for (b, (n, t)) in breakdown.iter().zip(by_time.iter()) {
            assert_eq!(&b.name, n);
            assert_eq!(b.sim_seconds, *t, "bit-identical sums");
        }
    }

    #[test]
    fn traced_launch_reports_matching_events_without_perturbing_stats() {
        let run = || {
            let mut dev = Device::new(GpuProfile::TITAN_V);
            let buf = BufU32::new(256, 0);
            let _ = dev.launch("k", 256, |i, ctx| {
                let _ = buf.atomic_add(ctx, i % 4, 1);
            });
            dev.memcpy_h2d(4096);
            dev.sync_read();
            dev
        };
        let plain = run();
        let (traced, session) = ecl_trace::with_trace(run);
        // Metering is bit-identical with tracing on.
        assert_eq!(plain.records()[0].stats, traced.records()[0].stats);
        assert_eq!(plain.kernel_seconds(), traced.kernel_seconds());
        assert_eq!(plain.memcpy_seconds(), traced.memcpy_seconds());
        // The trace mirrors the device's own accounting exactly.
        let profile = session.profile();
        assert_eq!(profile.kernels.len(), 1);
        assert_eq!(profile.kernels[0].name, "k");
        assert_eq!(profile.kernels[0].launches, 1);
        // Launch seconds are carried exactly; memcpy/sync durations round-
        // trip through microseconds, so compare those with a tight relative
        // tolerance.
        assert_eq!(
            profile.kernels[0].sim_seconds,
            traced.records()[0].sim_seconds
        );
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs();
        assert!(
            close(profile.total_kernel_seconds, traced.kernel_seconds()),
            "launch + sync_read seconds match the device clock"
        );
        assert!(close(profile.total_memcpy_seconds, traced.memcpy_seconds()));
        assert_eq!(profile.kernels[0].atomics, 256);
        assert!(profile.kernels[0].max_imbalance >= 1.0);
    }

    #[test]
    fn atomics_cost_more_than_loads() {
        let buf = BufU32::new(1 << 12, 0);
        let mut loads = Device::new(GpuProfile::TITAN_V);
        let _ = loads.launch("loads", 1 << 12, |i, ctx| {
            let _ = buf.ld(ctx, i);
        });
        let mut atomics = Device::new(GpuProfile::TITAN_V);
        let _ = atomics.launch("atomics", 1 << 12, |i, ctx| {
            let _ = buf.atomic_add(ctx, i, 1);
        });
        assert!(atomics.kernel_seconds() > loads.kernel_seconds());
    }
}
