//! Dependency-free row-parallel execution.
//!
//! HD computing's hot paths (encode, similarity, score) are embarrassingly
//! parallel across *rows*: each input row is processed independently and the
//! per-row arithmetic never mixes data between rows. That makes a very simple
//! parallel schedule safe **and bit-exact**: split the rows and their output
//! slots into the same contiguous chunks and run each chunk on its own
//! scoped thread with the exact same per-row code the sequential path uses
//! ([`chunked_zip_mut`]). No reduction order changes, so results are
//! identical to the single-threaded run down to the last bit.
//!
//! The build environment cannot fetch crates, so this is built on
//! [`std::thread::scope`] only.

use std::num::NonZeroUsize;

/// Number of threads to use when the caller asks for "all of them".
///
/// Wraps [`std::thread::available_parallelism`], falling back to 1 when the
/// platform cannot report a count.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, NonZeroUsize::get)
}

/// Resolves a user-facing thread knob: `0` means "use available
/// parallelism", anything else is taken literally (minimum 1).
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Splits `items` and `outs` into the *same* contiguous chunks and runs
/// `f(items_chunk, outs_chunk)` on up to `threads` scoped threads, each
/// writing into its own pre-allocated output slots.
///
/// Chunk boundaries never change per-item arithmetic, so as long as `f`
/// computes each output slot from its own input row only, results are
/// identical for every thread count. Chunks are `ceil(len / threads)` rows
/// long, so the boundaries are stable for a given `(len, threads)` pair.
/// `threads <= 1` (or fewer than two items) short-circuits to a single
/// `f(items, outs)` call.
///
/// # Panics
///
/// Panics when `items` and `outs` disagree in length, and propagates a
/// panic from `f` (the scope joins all threads first).
pub fn chunked_zip_mut<T, U, F>(items: &[T], outs: &mut [U], threads: usize, f: F)
where
    T: Sync,
    U: Send,
    F: Fn(&[T], &mut [U]) + Sync,
{
    assert_eq!(
        items.len(),
        outs.len(),
        "chunked_zip_mut: items/outs length mismatch"
    );
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        f(items, outs);
        return;
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .zip(outs.chunks_mut(chunk))
            .map(|(part, out_part)| {
                let f = &f;
                scope.spawn(move || f(part, out_part))
            })
            .collect();
        for h in handles {
            h.join().expect("par worker panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zip_mut_matches_sequential_for_every_thread_count() {
        let items: Vec<f32> = (0..131).map(|i| i as f32 * 0.7 - 11.0).collect();
        let mut seq = vec![0.0f32; items.len()];
        let work = |part: &[f32], out: &mut [f32]| {
            for (x, o) in part.iter().zip(out.iter_mut()) {
                *o = (x * 2.3).cos() + x;
            }
        };
        work(&items, &mut seq);
        for threads in [0, 1, 2, 3, 5, 8, 200] {
            let mut par = vec![0.0f32; items.len()];
            chunked_zip_mut(&items, &mut par, threads, work);
            let seq_bits: Vec<u32> = seq.iter().map(|v| v.to_bits()).collect();
            let par_bits: Vec<u32> = par.iter().map(|v| v.to_bits()).collect();
            assert_eq!(seq_bits, par_bits, "threads={threads}");
        }
        // Degenerate shapes are fine: no rows, and one row for many threads.
        let mut empty_out: Vec<f32> = Vec::new();
        chunked_zip_mut(&[], &mut empty_out, 4, work);
        let mut one = [0.0f32];
        chunked_zip_mut(&items[..1], &mut one, 8, work);
        assert_eq!(one[0].to_bits(), seq[0].to_bits());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn zip_mut_rejects_mismatched_lengths() {
        let mut out = vec![0u8; 2];
        chunked_zip_mut(&[1u8, 2, 3], &mut out, 2, |_, _| {});
    }

    #[test]
    fn resolve_threads_maps_zero_to_available() {
        assert_eq!(resolve_threads(3), 3);
        assert_eq!(resolve_threads(0), available_threads());
        assert!(available_threads() >= 1);
    }
}
