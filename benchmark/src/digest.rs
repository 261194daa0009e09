//! Run digests: a 64-bit FNV-1a hash of a report's `Debug` text, streamed
//! through the formatter so multi-hundred-megabyte texts are never built.

use std::fmt::{self, Write};

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv(OFFSET);
    h.feed(bytes);
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }
}

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.feed(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of `value`'s `Debug` text; equal to `fnv1a(format!("{value:?}"))`.
pub fn of_debug(value: &impl fmt::Debug) -> u64 {
    let mut h = Fnv(OFFSET);
    write!(h, "{value:?}").expect("hashing never fails");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_digest_matches_the_formatted_text() {
        let v = (vec![1u32, 2, 3], "text", Some(4.5f64));
        assert_eq!(of_debug(&v), fnv1a(format!("{v:?}").as_bytes()));
        assert_ne!(of_debug(&1u8), of_debug(&2u8));
    }
}
