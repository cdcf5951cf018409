//! Seeded wire chaos (DESIGN.md §14.5): deterministic client-side
//! misbehavior for proving the gateway's fault isolation.
//!
//! Every chaos decision is a pure hash of `(seed, client, graph)` —
//! no RNG state, no wall clock — so two runs with the same seed
//! misbehave identically regardless of thread interleaving, and the
//! CI gate can demand *exact* outcome counts. The modes cover the
//! classic ways a network peer goes wrong:
//!
//! - [`ChaosMode::Slow`] — a slow-loris writer: the whole submission
//!   dribbles out in small chunks with pauses. Must still complete
//!   (the server's read timeout bounds *silence*, not pace).
//! - [`ChaosMode::Truncate`] — the connection dies mid-frame. The
//!   server must answer with a structured `SessionError` and lose
//!   only this session.
//! - [`ChaosMode::BadFrame`] — a framed-but-garbage kind byte.
//!   Structured `SessionError`, session closed, nobody else harmed.
//! - [`ChaosMode::Vanish`] — the client gets its graph admitted and
//!   disappears without reading the outcome. The graph must still
//!   run, its outcome recorded server-side, the failed delivery
//!   counted — never wedging a runner or poisoning another session.

use std::net::SocketAddr;
use std::time::Duration;

use tss_proto::{encode_frame, encode_frame_into, graph_frames, Frame, GraphOutcome, RejectReason};
use tss_trace::TaskTrace;

use crate::{Client, ClientError, Submission};

/// What a chaos client does to one graph submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Behave: submit and read the outcome.
    None,
    /// Slow-loris writer; submission must still succeed.
    Slow,
    /// Cut the connection mid-frame.
    Truncate,
    /// Send a framed unknown-kind blob.
    BadFrame,
    /// Get admitted, then disappear without reading `Done`.
    Vanish,
}

impl ChaosMode {
    /// Stable name (reports, logs).
    pub fn name(self) -> &'static str {
        match self {
            ChaosMode::None => "none",
            ChaosMode::Slow => "slow",
            ChaosMode::Truncate => "truncate",
            ChaosMode::BadFrame => "badframe",
            ChaosMode::Vanish => "vanish",
        }
    }
}

/// SplitMix64 finalizer: the one mixing primitive behind every chaos
/// decision.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The chaos decision for `(seed, client, graph)`: pure, stateless,
/// identical across runs and thread counts. Half of all submissions
/// behave; the other half split evenly across the four attack shapes.
pub fn plan(seed: u64, client: u64, graph: u64) -> ChaosMode {
    let h = mix(seed ^ mix(client) ^ mix(graph).rotate_left(17));
    match h % 8 {
        4 => ChaosMode::Slow,
        5 => ChaosMode::Truncate,
        6 => ChaosMode::BadFrame,
        7 => ChaosMode::Vanish,
        _ => ChaosMode::None,
    }
}

/// How one chaos submission ended, from the client's point of view.
/// Under a fixed seed this is exactly reproducible per `(client,
/// graph)` as long as the server is not shedding load (the chaos
/// harness runs with admission headroom for that reason).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosOutcome {
    /// Submitted, admitted, outcome read.
    Done(GraphOutcome),
    /// The server refused admission.
    Rejected(RejectReason),
    /// The server killed the session with a structured error after
    /// this client's truncation/garbage (reconnect before reusing).
    SessionKilled,
    /// Admitted, then this client vanished on purpose.
    Vanished,
}

/// Runs one graph submission under `mode`. `client` is this chaos
/// worker's connection slot: session-killing and vanishing modes
/// leave it `None`, and the next call reconnects — exactly what a
/// misbehaving-then-returning peer looks like to the server.
pub fn run_graph(
    addr: SocketAddr,
    client: &mut Option<Client>,
    mode: ChaosMode,
    graph: u64,
    deadline_ms: u32,
    trace: &TaskTrace,
    chunk: usize,
) -> Result<ChaosOutcome, ClientError> {
    if client.is_none() {
        *client = Some(Client::connect(addr)?);
    }
    let c = client.as_mut().expect("connected above");
    match mode {
        ChaosMode::None => match c.submit(graph, deadline_ms, trace, chunk)? {
            Submission::Accepted => Ok(ChaosOutcome::Done(c.wait_done(graph)?)),
            Submission::Rejected(reason) => Ok(ChaosOutcome::Rejected(reason)),
        },
        ChaosMode::Slow => {
            let mut bytes = Vec::new();
            for f in graph_frames(graph, deadline_ms, trace, chunk) {
                encode_frame_into(&mut bytes, &f);
            }
            for piece in bytes.chunks(512) {
                c.send_raw(piece)?;
                std::thread::sleep(Duration::from_millis(1));
            }
            match c.await_admission(graph)? {
                Submission::Accepted => Ok(ChaosOutcome::Done(c.wait_done(graph)?)),
                Submission::Rejected(reason) => Ok(ChaosOutcome::Rejected(reason)),
            }
        }
        ChaosMode::Truncate => {
            let frames = graph_frames(graph, deadline_ms, trace, chunk);
            c.send(&frames[0])?;
            // Cut the first Tasks frame in half (`send_raw` writes the
            // buffered `OpenGraph` first), then close our write half so
            // the server sees EOF mid-frame.
            let tasks = encode_frame(&frames[1]);
            c.send_raw(&tasks[..tasks.len() / 2])?;
            c.shutdown_write()?;
            let killed = expect_session_killed(c);
            *client = None;
            killed.map(|()| ChaosOutcome::SessionKilled)
        }
        ChaosMode::BadFrame => {
            // A perfectly framed lie: length 1, unknown kind 0x7f.
            c.send_raw(&[1, 0, 0, 0, 0x7f])?;
            let killed = expect_session_killed(c);
            *client = None;
            killed.map(|()| ChaosOutcome::SessionKilled)
        }
        ChaosMode::Vanish => match c.submit(graph, deadline_ms, trace, chunk)? {
            Submission::Accepted => {
                // Drop the socket without reading Done: the server
                // owes nothing to us anymore, but everything to its
                // own outcome ledger.
                *client = None;
                Ok(ChaosOutcome::Vanished)
            }
            Submission::Rejected(reason) => Ok(ChaosOutcome::Rejected(reason)),
        },
    }
}

/// Reads until the server's structured session kill (or a bare close,
/// which some shapes can race into).
fn expect_session_killed(c: &mut Client) -> Result<(), ClientError> {
    loop {
        match c.recv() {
            Err(ClientError::SessionError { .. }) => return Ok(()),
            Err(ClientError::Wire(tss_proto::WireError::Closed)) => return Ok(()),
            Err(e) => return Err(e),
            // Stray Done frames from earlier pipelined graphs may
            // still be in flight; drain them.
            Ok(Frame::Done { .. }) => continue,
            Ok(other) => {
                return Err(ClientError::Unexpected(format!(
                    "expected session kill, got {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_pure_and_covers_every_mode() {
        let mut seen = [0usize; 5];
        for client in 0..8u64 {
            for graph in 0..64u64 {
                let a = plan(42, client, graph);
                let b = plan(42, client, graph);
                assert_eq!(a, b, "plan must be pure");
                let idx = match a {
                    ChaosMode::None => 0,
                    ChaosMode::Slow => 1,
                    ChaosMode::Truncate => 2,
                    ChaosMode::BadFrame => 3,
                    ChaosMode::Vanish => 4,
                };
                seen[idx] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "all modes exercised: {seen:?}");
        // Roughly half the grid should behave.
        assert!(seen[0] > 150 && seen[0] < 360, "none count {seen:?}");
    }

    #[test]
    fn different_seeds_give_different_plans() {
        let grid = |seed: u64| -> Vec<ChaosMode> { (0..64).map(|g| plan(seed, 1, g)).collect() };
        assert_ne!(grid(1), grid(2));
    }
}
