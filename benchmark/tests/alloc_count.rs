//! The counting allocator counts known patterns exactly. Kept alone in its
//! own test binary, with one test, so no concurrent test allocates while it
//! measures.

use olympian_benchmark::alloc;
use std::hint::black_box;

#[test]
fn known_allocation_patterns_are_counted_exactly() {
    a_flat_section();
    a_nested_section_keeps_the_outer_peak();
}

fn a_flat_section() {
    let (kept, section) = alloc::measure(|| {
        // `black_box` keeps an optimizing build from eliding allocations.
        let bytes: Vec<u8> = black_box(Vec::with_capacity(1000));
        let boxed = black_box(Box::new([7u64; 16]));
        let mut grown: Vec<u32> = black_box(Vec::with_capacity(4));
        drop(black_box(Vec::<u8>::with_capacity(5000)));
        grown.reserve_exact(100);
        (bytes, boxed, grown)
    });
    // Four allocations and one reallocation.
    assert_eq!(section.allocs, 5);
    // The peak came while the 5000-byte buffer was live next to the other
    // three (1000 + 128 + 16 bytes), before `grown` reached 400 bytes.
    assert_eq!(section.peak_bytes, 1000 + 128 + 16 + 5000);
    let live = alloc::live();
    drop(kept);
    assert_eq!(live - alloc::live(), 1000 + 128 + 400);
}

fn a_nested_section_keeps_the_outer_peak() {
    let ((), outer) = alloc::measure(|| {
        drop(black_box(Vec::<u8>::with_capacity(50_000)));
        let kept: Vec<u8> = black_box(Vec::with_capacity(100));
        let (small, inner) = alloc::measure(|| black_box(Vec::<u8>::with_capacity(2000)));
        // The inner section sees only its own buffer...
        assert_eq!(inner.allocs, 1);
        assert_eq!(inner.peak_bytes, 2000);
        drop((kept, small));
    });
    // ...and the enclosing one still sees the transient peak before it.
    assert_eq!(outer.allocs, 3);
    assert_eq!(outer.peak_bytes, 50_000);
}
