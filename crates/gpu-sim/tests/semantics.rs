//! Integration tests of the simulator's execution semantics: clocks must
//! be reproducible, and the cost model must order workloads sensibly.

use ecl_gpu_sim::{BufU32, BufU64, ConstBuf, Device, GpuProfile};

#[test]
fn simulated_clock_is_reproducible() {
    let run = || {
        let mut dev = Device::new(GpuProfile::RTX_3080_TI);
        let buf = BufU64::new(512, u64::MAX);
        let _ = dev.launch("mins", 4096, |i, ctx| {
            buf.atomic_min(ctx, i % 512, i as u64);
        });
        dev.sync_read();
        dev.memcpy_d2h(buf.size_bytes());
        (dev.kernel_seconds(), dev.memcpy_seconds())
    };
    assert_eq!(run(), run());
}

#[test]
fn gather_heavy_kernel_slower_than_coalesced() {
    let data: Vec<u32> = (0..1 << 16).collect();
    let buf = ConstBuf::from_slice(&data);
    let time = |gather: bool| {
        let mut dev = Device::new(GpuProfile::TITAN_V);
        let _ = dev.launch("scan", 1 << 14, |i, ctx| {
            for k in 0..4 {
                let idx = (i * 4 + k) % data.len();
                if gather {
                    buf.ld_gather(ctx, idx);
                } else {
                    buf.ld(ctx, idx);
                }
            }
        });
        dev.kernel_seconds()
    };
    assert!(time(true) > 2.0 * time(false));
}

#[test]
fn sync_read_accrues_to_kernel_time() {
    let mut dev = Device::new(GpuProfile::TITAN_V);
    let before = dev.kernel_seconds();
    dev.sync_read();
    assert!(dev.kernel_seconds() > before);
    assert_eq!(dev.memcpy_seconds(), 0.0);
}

#[test]
fn concurrent_kernel_atomics_are_exact() {
    // 64k increments across tasks must sum exactly regardless of host
    // scheduling.
    let mut dev = Device::new(GpuProfile::TITAN_V);
    let counter = BufU32::new(1, 0);
    let _ = dev.launch("count", 1 << 16, |_, ctx| {
        counter.atomic_add(ctx, 0, 1);
    });
    assert_eq!(counter.host_read(0), 1 << 16);
}

#[test]
fn records_preserve_launch_order() {
    let mut dev = Device::new(GpuProfile::TITAN_V);
    for name in ["a", "b", "c", "b"] {
        let _ = dev.launch(name, 1, |_, _| {});
    }
    let names: Vec<&str> = dev.records().iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, vec!["a", "b", "c", "b"]);
}
