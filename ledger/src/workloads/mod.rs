//! The eight workloads. Each module's header says why it exists.

pub mod grid;
pub mod manifest;
pub mod mutex;
pub mod ring;

use crate::span::Recorder;
use crate::stats::median;
use impossible_explore::WorkerPool;
use std::time::Instant;

/// Cost of one pool pass that does no work: `map_indexed` over 64 empty
/// items (the engine's partition count), median of 201 passes, in µs.
pub fn pool_pass_overhead_us(workers: usize) -> f64 {
    let pool = WorkerPool::new(workers);
    let passes: Vec<f64> = (0..201)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(pool.map_indexed(vec![(); 64], |i, ()| i));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&passes)
}

/// Run `f` inside a span when a recorder is present, bare otherwise — so
/// the traced and untraced operation share one body and the untraced one
/// carries no tracing at all.
pub fn spanned<R>(rec: &mut Option<&mut Recorder>, name: &str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(rec) => rec.time(name, f),
        None => f(),
    }
}
