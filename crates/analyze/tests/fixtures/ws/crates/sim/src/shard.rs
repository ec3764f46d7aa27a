//! Fixture: the sharded single-run engine (`hc-sim::shard`) reaches
//! threads only through the worker pool in `hc-sim::par`, so it has no
//! D3 exemption: spawning threads here directly must fire D3.

pub fn windows() {
    let _ = crossbeam::thread::scope(|scope| {
        scope.spawn(|_| 1 + 1);
    });
}
