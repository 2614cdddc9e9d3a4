//! A reusable, aligned decode buffer for the zero-copy update path.
//!
//! A decoded update is a flat `[f32; n]`. The borrow-based decode API
//! ([`crate::UpdateCodec::decode_view`]) needs somewhere to land the
//! *copying* cases — lossy codecs, misaligned raw frames — without
//! allocating per frame. [`FrameBuf`] is that buffer: a grow-only
//! `f32` slab, 4-byte aligned by construction, which the round's
//! streaming aggregator keeps as its one scratch slot.

/// One reusable decode buffer: an aligned `f32` slab that grows to
/// the largest frame it has ever held and never shrinks, so
/// steady-state rounds decode with zero allocations.
#[derive(Debug, Default)]
pub struct FrameBuf {
    data: Vec<f32>,
}

impl FrameBuf {
    /// An empty buffer (no capacity until first use).
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Hands out exactly `n` zero-initialized elements, reusing the
    /// existing allocation whenever `n` fits its capacity.
    pub fn reset(&mut self, n: usize) -> &mut [f32] {
        self.data.clear();
        self.data.resize(n, 0.0);
        &mut self.data
    }

    /// The slab's current heap footprint in bytes — what memory-bound
    /// assertions sum over.
    pub fn capacity_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_reuses_capacity() {
        let mut buf = FrameBuf::new();
        {
            let s = buf.reset(100);
            s[0] = 7.0;
            s[99] = -1.0;
        }
        let cap = buf.capacity_bytes();
        assert!(cap >= 400);
        let s = buf.reset(50);
        assert_eq!(s.len(), 50);
        assert!(s.iter().all(|&v| v == 0.0), "reset must zero the slab");
        assert_eq!(buf.capacity_bytes(), cap, "shrinking reset must not free");
    }
}
