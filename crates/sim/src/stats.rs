//! [`CachePadded`], the one measurement helper the simulator and the
//! executor share. Histograms live in `tss-obs`.

/// Pads and aligns `T` to a 128-byte boundary so two instances can
/// never share a cache line (nor a destructive-interference pair of
/// lines: modern x86 prefetchers pull lines in adjacent pairs, so 128
/// is the safe granule, as in crossbeam's `CachePadded`).
///
/// Used wherever per-worker or per-module counters sit in an array and
/// are written from different threads (`tss-exec`'s deque headers and
/// worker slots), and on the simulator's per-module stats blocks so a
/// future parallel-sweep driver cannot regress into false sharing.
#[derive(Debug, Default, Clone, Copy)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache-line-aligned block.
    pub const fn new(value: T) -> Self {
        CachePadded { value }
    }

    /// Consumes the wrapper, returning the value.
    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}
