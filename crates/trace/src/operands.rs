//! Inline operand storage: the operand list of a task record
//! (DESIGN.md §16).
//!
//! The paper's TRS keeps a task's first operands in fixed slots of its
//! main block and chains indirect blocks only for long lists (Figure
//! 11). [`Operands`] is that layout for the native path's IR: up to
//! [`INLINE_OPERANDS`] operands live in the task record itself, longer
//! lists spill to one boxed slice — so building, cloning and dropping
//! a short task never touches the allocator.
//!
//! The two operand rules of the programming model — at most
//! [`MAX_OPERANDS`] per task, scalars are inputs (Section III.A) — are
//! invariants of the type: every constructor checks them and there is
//! no mutator, so an `Operands` that exists is valid.

use crate::task::{OperandDesc, MAX_OPERANDS};

/// Operands stored in the task record itself; longer lists spill to
/// the heap. Three, not the TRS main block's four: over the nine
/// paper-scale traces almost no task has exactly four operands, so
/// three spills the same tasks from a 72-byte record instead of an
/// 88-byte one (the histogram is in DESIGN.md §16).
pub const INLINE_OPERANDS: usize = 3;

/// Content of an inline slot past the length; never observable.
const FILL: OperandDesc = OperandDesc::scalar(0);

/// Why a list of operands is not a task's operand list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandsError {
    /// More than [`MAX_OPERANDS`] operands (the TRS inode layout limit).
    TooMany {
        /// Operands offered.
        count: usize,
    },
    /// A scalar operand that is not an input.
    ScalarNotInput,
}

impl std::fmt::Display for OperandsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OperandsError::TooMany { count } => write!(
                f,
                "task has {count} operands; the TRS layout supports at most {MAX_OPERANDS}"
            ),
            OperandsError::ScalarNotInput => f.write_str("scalar operands can only be inputs"),
        }
    }
}

impl std::error::Error for OperandsError {}

/// A task's operands, in kernel-signature order: an immutable list
/// that derefs to `[OperandDesc]`.
#[derive(Clone)]
pub struct Operands(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        slots: [OperandDesc; INLINE_OPERANDS],
    },
    /// Only for lists longer than [`INLINE_OPERANDS`].
    Spilled(Box<[OperandDesc]>),
}

impl Operands {
    /// The checked constructor every other one goes through.
    ///
    /// # Errors
    ///
    /// [`OperandsError`] if `ops` is longer than [`MAX_OPERANDS`] or
    /// holds a scalar that is not an input.
    pub fn try_from_slice(ops: &[OperandDesc]) -> Result<Self, OperandsError> {
        if ops.len() > MAX_OPERANDS {
            return Err(OperandsError::TooMany { count: ops.len() });
        }
        if !ops.iter().all(|o| OperandDesc::allows(o.kind, o.dir)) {
            return Err(OperandsError::ScalarNotInput);
        }
        Ok(Operands(if ops.len() <= INLINE_OPERANDS {
            let mut slots = [FILL; INLINE_OPERANDS];
            slots[..ops.len()].copy_from_slice(ops);
            Repr::Inline { len: ops.len() as u8, slots }
        } else {
            Repr::Spilled(ops.into())
        }))
    }
}

impl std::ops::Deref for Operands {
    type Target = [OperandDesc];

    #[inline]
    fn deref(&self) -> &[OperandDesc] {
        match &self.0 {
            Repr::Inline { len, slots } => &slots[..*len as usize],
            Repr::Spilled(ops) => ops,
        }
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a OperandDesc;
    type IntoIter = std::slice::Iter<'a, OperandDesc>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Operands {}

impl std::fmt::Debug for Operands {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// # Panics
///
/// The infallible conversions panic, with [`OperandsError`]'s message,
/// on a list [`Operands::try_from_slice`] refuses.
impl From<&[OperandDesc]> for Operands {
    fn from(ops: &[OperandDesc]) -> Self {
        Operands::try_from_slice(ops).unwrap_or_else(|e| panic!("{e}"))
    }
}

impl<const N: usize> From<[OperandDesc; N]> for Operands {
    fn from(ops: [OperandDesc; N]) -> Self {
        Operands::from(&ops[..])
    }
}

impl From<Vec<OperandDesc>> for Operands {
    fn from(ops: Vec<OperandDesc>) -> Self {
        Operands::from(&ops[..])
    }
}

impl FromIterator<OperandDesc> for Operands {
    fn from_iter<I: IntoIterator<Item = OperandDesc>>(iter: I) -> Self {
        let mut buf = OperandBuf::new();
        iter.into_iter().for_each(|op| buf.push(op));
        buf.finish().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Accumulates one task's operands on the stack; [`OperandBuf::finish`]
/// is the checked step. Reusable across tasks with
/// [`OperandBuf::clear`] (the wire decoder keeps one per frame).
#[derive(Debug)]
pub struct OperandBuf {
    /// Operands pushed, including any past the buffer's end.
    count: usize,
    slots: [OperandDesc; MAX_OPERANDS],
}

impl OperandBuf {
    /// An empty buffer.
    pub const fn new() -> Self {
        OperandBuf { count: 0, slots: [FILL; MAX_OPERANDS] }
    }

    /// Forgets the operands pushed so far.
    pub fn clear(&mut self) {
        self.count = 0;
    }

    /// Appends an operand. One past [`MAX_OPERANDS`] is counted, not
    /// stored, so that `finish` can report how many were offered.
    #[inline]
    pub fn push(&mut self, op: OperandDesc) {
        if let Some(slot) = self.slots.get_mut(self.count) {
            *slot = op;
        }
        self.count += 1;
    }

    /// The operand list pushed since the last `clear`.
    ///
    /// # Errors
    ///
    /// As [`Operands::try_from_slice`].
    #[inline]
    pub fn finish(&self) -> Result<Operands, OperandsError> {
        match self.slots.get(..self.count) {
            Some(ops) => Operands::try_from_slice(ops),
            None => Err(OperandsError::TooMany { count: self.count }),
        }
    }
}

impl Default for OperandBuf {
    fn default() -> Self {
        OperandBuf::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Direction, TaskDesc};

    fn ops(n: usize) -> Vec<OperandDesc> {
        (0..n as u64).map(|i| OperandDesc::input(0x1000 + i * 64, 64)).collect()
    }

    #[test]
    fn record_layout_is_pinned() {
        assert_eq!(std::mem::size_of::<OperandDesc>(), 16);
        assert_eq!(std::mem::size_of::<Operands>(), 8 + 16 * INLINE_OPERANDS);
        assert_eq!(std::mem::size_of::<TaskDesc>(), 72);
    }

    #[test]
    fn every_length_builds_and_the_twentieth_operand_is_refused() {
        for n in 0..=MAX_OPERANDS {
            let o = Operands::try_from_slice(&ops(n)).expect("within the limit");
            assert_eq!(&*o, &ops(n)[..]);
            assert_eq!(matches!(o.0, Repr::Spilled(_)), n > INLINE_OPERANDS);
        }
        assert_eq!(
            Operands::try_from_slice(&ops(MAX_OPERANDS + 1)),
            Err(OperandsError::TooMany { count: MAX_OPERANDS + 1 })
        );
    }

    #[test]
    fn a_scalar_that_writes_is_refused_in_either_representation() {
        let mut bad = OperandDesc::scalar(8);
        bad.dir = Direction::InOut;
        for n in [0, INLINE_OPERANDS] {
            let mut list = ops(n);
            list.push(bad);
            assert_eq!(Operands::try_from_slice(&list), Err(OperandsError::ScalarNotInput));
        }
    }

    #[test]
    fn the_buffer_reports_how_many_operands_were_offered() {
        let mut buf = OperandBuf::new();
        ops(MAX_OPERANDS + 6).into_iter().for_each(|o| buf.push(o));
        assert_eq!(buf.finish(), Err(OperandsError::TooMany { count: MAX_OPERANDS + 6 }));
        buf.clear();
        assert_eq!(buf.finish(), Ok(Operands::from([])));
        buf.push(OperandDesc::output(0x40, 8));
        assert_eq!(&*buf.finish().expect("one operand"), &[OperandDesc::output(0x40, 8)]);
    }

    #[test]
    #[should_panic(expected = "at most 19")]
    fn collecting_twenty_operands_panics_like_task_desc_new() {
        let _: Operands = ops(20).into_iter().collect();
    }
}
