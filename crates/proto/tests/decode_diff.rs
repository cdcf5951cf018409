//! Differential decode test (ISSUE 16): the `Tasks` decoder writes
//! operands into a stack buffer and builds `Operands` from it; what it
//! answers to broken input must not have moved. [`reference`] restates
//! the decoder's contract field by field — which field a short body is
//! `Truncated` at and with what `need`/`have`, which byte is a
//! `BadEnum`, when a count is `TooManyOperands`, when a scalar is
//! `ScalarNotInput`, and the order those are found in — and every
//! truncation and every single-byte corruption of a valid body must
//! decode to exactly what the reference says, `Ok` or `Err`.

use tss_proto::{decode_frame, encode_frame, DecodeError, Frame};
use tss_trace::{Direction, KernelId, OperandDesc, OperandKind, TaskDesc, MAX_OPERANDS};

/// The reference parser's cursor: `take` is the only bounds check.
struct Ref<'a>(&'a [u8]);

impl Ref<'_> {
    fn take<const N: usize>(&mut self, field: &'static str) -> Result<[u8; N], DecodeError> {
        if self.0.len() < N {
            return Err(DecodeError::Truncated { field, need: N, have: self.0.len() });
        }
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        Ok(head.try_into().expect("split at N"))
    }
}

/// What a `Tasks` frame body decodes to, by the wire contract of
/// DESIGN.md §14.1 as the decoder has implemented it since PR 10.
fn reference(body: &[u8]) -> Result<Frame, DecodeError> {
    let mut c = Ref(body);
    let graph = u64::from_le_bytes(c.take("tasks graph id")?);
    let count = u32::from_le_bytes(c.take("task count")?);
    let mut tasks = Vec::new();
    for _ in 0..count {
        let kernel = KernelId(u16::from_le_bytes(c.take("task kernel")?));
        let runtime = u64::from_le_bytes(c.take("task runtime")?);
        let [nops] = c.take("operand count")?;
        if nops as usize > MAX_OPERANDS {
            return Err(DecodeError::TooManyOperands { count: nops as usize });
        }
        let mut operands = Vec::new();
        for _ in 0..nops {
            let [flags] = c.take("operand flags")?;
            let dir = match flags & 0b11 {
                0 => Direction::In,
                1 => Direction::Out,
                2 => Direction::InOut,
                _ => return Err(DecodeError::BadEnum { field: "operand direction", got: flags }),
            };
            let kind = if flags & 0b100 == 0 { OperandKind::Memory } else { OperandKind::Scalar };
            if flags >> 3 != 0 {
                return Err(DecodeError::BadEnum { field: "operand flags", got: flags });
            }
            if kind == OperandKind::Scalar && dir != Direction::In {
                return Err(DecodeError::ScalarNotInput);
            }
            let addr = u64::from_le_bytes(c.take("operand addr")?);
            let size = u32::from_le_bytes(c.take("operand size")?);
            operands.push(OperandDesc { addr, size, dir, kind });
        }
        tasks.push(TaskDesc::new(kernel, runtime, operands));
    }
    if !c.0.is_empty() {
        return Err(DecodeError::TrailingBytes { extra: c.0.len() });
    }
    Ok(Frame::Tasks { graph, tasks })
}

/// A valid `Tasks` frame as `(kind, body)`: every operand count that
/// matters (none, inline, the boundary on both sides, H.264's nine, the
/// limit), every direction, scalars.
fn valid_frame() -> (u8, Vec<u8>) {
    let operand = |i: usize| match i % 4 {
        0 => OperandDesc::input(0x4000 + 64 * i as u64, 64),
        1 => OperandDesc::output(0x8000 + 64 * i as u64, 4096),
        2 => OperandDesc::inout(0xC000 + 64 * i as u64, 8),
        _ => OperandDesc::scalar(4),
    };
    let tasks = [0, 1, 3, 4, 9, MAX_OPERANDS]
        .into_iter()
        .map(|n| {
            TaskDesc::new(
                KernelId(n as u16),
                1000 + n as u64,
                (0..n).map(operand).collect::<Vec<_>>(),
            )
        })
        .collect();
    let bytes = encode_frame(&Frame::Tasks { graph: 0x0102_0304_0506_0708, tasks });
    (bytes[4], bytes[5..].to_vec())
}

#[test]
fn the_valid_frame_decodes_to_what_the_reference_says() {
    let (kind, body) = valid_frame();
    let decoded = decode_frame(kind, &body);
    assert!(decoded.is_ok(), "{decoded:?}");
    assert_eq!(decoded, reference(&body));
}

#[test]
fn every_truncation_point_gets_the_reference_answer() {
    let (kind, body) = valid_frame();
    for cut in 0..body.len() {
        let got = decode_frame(kind, &body[..cut]);
        assert!(matches!(got, Err(DecodeError::Truncated { .. })), "cut at {cut}: {got:?}");
        assert_eq!(got, reference(&body[..cut]), "cut at {cut}");
    }
}

#[test]
fn every_single_byte_corruption_gets_the_reference_answer() {
    let (kind, mut body) = valid_frame();
    let mut seen = std::collections::BTreeSet::new();
    for at in 0..body.len() {
        let original = body[at];
        for x in 1..=255u8 {
            body[at] = original ^ x;
            let got = decode_frame(kind, &body);
            assert_eq!(got, reference(&body), "byte {at} ^ {x:#04x}");
            seen.insert(match got {
                Ok(_) => "Ok",
                Err(DecodeError::Truncated { .. }) => "Truncated",
                Err(DecodeError::TrailingBytes { .. }) => "TrailingBytes",
                Err(DecodeError::BadEnum { .. }) => "BadEnum",
                Err(DecodeError::TooManyOperands { .. }) => "TooManyOperands",
                Err(DecodeError::ScalarNotInput) => "ScalarNotInput",
                Err(other) => {
                    panic!("byte {at} ^ {x:#04x}: a Tasks body cannot fail with {other:?}")
                }
            });
        }
        body[at] = original;
    }
    // The sweep is only a test of the error paths if it reaches them.
    let all = ["BadEnum", "Ok", "ScalarNotInput", "TooManyOperands", "TrailingBytes", "Truncated"];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), all);
}
