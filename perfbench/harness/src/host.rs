//! Host-speed probe. The benchmark shares a few cores of a busy host whose
//! speed drifts by tens of percent over minutes, for this program and any
//! other alike. A fixed kernel, timed between operations, measures that
//! drift so the pipeline workloads can report their times at a reference
//! host speed.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The probe time the reported figures are scaled to: about what
/// [`Probe::measure`] reads on an idle 2-core x86-64 container.
pub const REFERENCE_MS: f64 = 75.0;
/// Timed repetitions per measurement; the median is kept.
const REPS: usize = 3;
/// A measurement is shaped like an operation: pieces run serially, as
/// set-up and rendering are, then pieces shared out over the probe's
/// threads as the runner shares out cells, so a thread slowed by the host
/// is covered by the others rather than waited for.
const SERIAL_PIECES: usize = 4;
const SHARED_PIECES: usize = 8;
/// References simulated per piece.
const STEPS: u64 = 400_000;
const SETS: usize = 8192;
const WAYS: usize = 4;

/// The kernel's state per thread: the tags of a small set-associative cache.
pub struct Probe {
    tags: Vec<Vec<u64>>,
}

impl Probe {
    pub fn new(threads: usize) -> Probe {
        Probe {
            tags: vec![vec![u64::MAX; SETS * WAYS]; threads.max(1)],
        }
    }

    /// Median wall milliseconds of one measurement: [`SERIAL_PIECES`]
    /// pieces on this thread, then [`SHARED_PIECES`] shared out over the
    /// probe's threads.
    pub fn measure(&mut self) -> f64 {
        let mut times: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..SERIAL_PIECES {
                    black_box(piece(&mut self.tags[0]));
                }
                let next = AtomicUsize::new(0);
                std::thread::scope(|s| {
                    for tags in self.tags.iter_mut() {
                        let next = &next;
                        s.spawn(move || {
                            while next.fetch_add(1, Ordering::Relaxed) < SHARED_PIECES {
                                black_box(piece(tags));
                            }
                        });
                    }
                });
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        times.sort_by(f64::total_cmp);
        times[REPS / 2]
    }
}

/// One piece of work of the simulator's kind: an LRU set-associative cache
/// driven by a skewed address stream, with misses counted per page in a
/// `HashMap`.
fn piece(tags: &mut [u64]) -> u64 {
    let mut pages: HashMap<u64, u64> = HashMap::new();
    let (mut x, mut misses) = (7u64, 0u64);
    for k in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // A quarter of the references scatter over 64 MB; the rest walk 1 MB.
        let addr = if x % 4 == 0 {
            x % (1 << 26)
        } else {
            (k * 64) % (1 << 20) + x % 4096
        };
        let line = addr >> 6;
        let set = &mut tags[(line as usize % SETS) * WAYS..][..WAYS];
        match set.iter().position(|&t| t == line) {
            Some(way) => set[..=way].rotate_right(1),
            None => {
                misses += 1;
                set.rotate_right(1);
                set[0] = line;
                *pages.entry(addr >> 12).or_default() += 1;
            }
        }
    }
    misses + pages.len() as u64
}

/// Scales a time measured between probe readings `before` and `after` to
/// the reference host speed: `ms × REFERENCE_MS / √(before × after)`.
pub fn at_reference(ms: f64, before: f64, after: f64) -> f64 {
    ms * REFERENCE_MS / (before * after).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down_by_the_same_factor() {
        assert_eq!(at_reference(1000.0, REFERENCE_MS, REFERENCE_MS), 1000.0);
        // Twice as slow before and after the operation: half the time.
        assert_eq!(
            at_reference(1000.0, 2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS),
            500.0
        );
        // Readings that straddle the operation count equally.
        assert_eq!(
            at_reference(1000.0, REFERENCE_MS / 2.0, 2.0 * REFERENCE_MS),
            1000.0
        );
    }
}
