//! Counts the copies the server's fold makes of a raw frame.
//!
//! `StreamingAggregator::peak_bytes` is the accumulator alone, so it
//! cannot see a copy made inside a codec's fold. Two things here can:
//! the process-wide `wire.decode.borrowed` / `wire.decode.copied`
//! counters, and a global allocator that records the largest block
//! requested while folding. This file holds one test so that nothing
//! else in its test binary moves either while it reads them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use oasis_population::StreamingAggregator;
use oasis_wire::{CodecSpec, EncodedUpdate, RawCodec};

/// The system allocator, recording the largest block requested while
/// [`MEASURING`] is set.
struct Largest;

static MEASURING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    if MEASURING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(bytes, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// (`wire.decode.borrowed`, `wire.decode.copied`).
fn decode_counts() -> (u64, u64) {
    (
        oasis_telemetry::counter("wire.decode.borrowed").get(),
        oasis_telemetry::counter("wire.decode.copied").get(),
    )
}

#[test]
fn aligned_raw_frames_fold_without_a_copy() {
    oasis_telemetry::set_enabled(true);
    let n = 4099usize;
    let codec = CodecSpec::Raw.build();
    let frames: Vec<EncodedUpdate> = (0..5)
        .map(|k| {
            let update: Vec<f32> = (0..n)
                .map(|i| ((i * (k + 1)) as f32 * 0.37).sin())
                .collect();
            codec.encode(&update).unwrap()
        })
        .collect();
    let mut agg = StreamingAggregator::new(n);
    let (borrowed, copied) = decode_counts();
    MEASURING.store(true, Ordering::Relaxed);
    for frame in &frames {
        agg.fold(&*codec, frame, 0.2).unwrap();
    }
    MEASURING.store(false, Ordering::Relaxed);
    // Parsing a frame's header allocates a little; a copy of the
    // update would take a block of at least its 4·n bytes.
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 4 * n,
        "folding allocated {largest} bytes at once for a {n}-value update"
    );
    assert_eq!(
        decode_counts(),
        (borrowed + 5, copied),
        "every aligned raw frame must fold as a view of its payload"
    );

    // The counter does move when a copy happens: a frame whose payload
    // sits at an odd offset cannot be borrowed, so it folds through
    // exactly one copy, to the same sum.
    let update = [1.5f32, -2.25, 0.0625];
    let json = r#"{"version":1,"tensors":[{"name":"update","dtype":"f32","shape":[3],"offsets":[0,12]}]} "#;
    assert_eq!(
        (8 + json.len()) % 2,
        1,
        "the payload must start at an odd offset"
    );
    let mut payload = (json.len() as u64).to_le_bytes().to_vec();
    payload.extend_from_slice(json.as_bytes());
    for v in update {
        payload.extend_from_slice(&v.to_le_bytes());
    }
    let misaligned = EncodedUpdate { n: 3, payload };
    let mut small = StreamingAggregator::new(3);
    small.fold(&RawCodec, &misaligned, 0.5).unwrap();
    assert_eq!(decode_counts(), (borrowed + 5, copied + 1));
    let expect: Vec<f32> = update.iter().map(|&g| 0.0 + 0.5 * g).collect();
    assert_eq!(small.as_slice(), &expect[..]);
}
