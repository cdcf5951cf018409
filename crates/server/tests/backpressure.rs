//! Admission control and backpressure (DESIGN.md §14.2): quotas,
//! overload shedding with a retry hint, draining rejects, and the
//! malformed/state rejects — all structured, all non-fatal to the
//! session, all visible in the drain summary.

mod common;

use common::{ms_cycles, small_trace, Harness};
use tss_client::{Client, Submission};
use tss_exec::PayloadMode;
use tss_proto::{Frame, GraphOutcome, RejectReason};
use tss_server::ServerConfig;

#[test]
fn quota_rejects_the_excess_open_graph() {
    let h = Harness::start(ServerConfig { quota: 2, ..ServerConfig::default() });
    let mut client = Client::connect(h.addr).expect("connect");
    for gid in [1u64, 2, 3] {
        client
            .send(&Frame::OpenGraph {
                graph: gid,
                deadline_ms: 0,
                name: format!("g{gid}"),
                kernels: vec!["k".into()],
            })
            .expect("send open");
    }
    // Opens are silent while under quota; the third draws the reject.
    match client.recv().expect("reject frame") {
        Frame::Reject { graph: 3, reason: RejectReason::QuotaExceeded { inflight, quota } } => {
            assert_eq!((inflight, quota), (2, 2));
        }
        other => panic!("expected quota reject for graph 3, got {other:?}"),
    }
    h.handle.request_drain();
    let summary = h.finish();
    assert_eq!(summary.rejected_quota, 1);
    assert_eq!(summary.accepted, 0);
}

#[test]
fn overload_sheds_with_a_retry_hint_and_recovers() {
    let cfg = ServerConfig {
        runners: 1,
        exec_threads: 1,
        max_queued_graphs: 1,
        payload: PayloadMode::Spin { time_scale: 1.0 },
        ..ServerConfig::default()
    };
    let h = Harness::start(cfg);
    let mut client = Client::connect(h.addr).expect("connect");

    // Graph 1 (~8 x 40 ms spin) occupies the single admission slot.
    let long = small_trace("long", 8, ms_cycles(40));
    assert_eq!(client.submit(1, 0, &long, 8).expect("submit 1"), Submission::Accepted);

    // Graph 2 must be shed with a positive backoff hint.
    let tiny = small_trace("tiny", 4, 100);
    match client.submit(2, 0, &tiny, 8).expect("submit 2") {
        Submission::Rejected(RejectReason::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms > 0, "hint must be positive");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Once graph 1's Done is observed the slot is free again — the
    // server releases capacity before delivering the outcome.
    assert!(matches!(client.wait_done(1).expect("done 1"), GraphOutcome::Completed { .. }));
    assert_eq!(client.submit(2, 0, &tiny, 8).expect("resubmit 2"), Submission::Accepted);
    assert!(matches!(client.wait_done(2).expect("done 2"), GraphOutcome::Completed { .. }));

    client.shutdown_server().expect("shutdown ack");
    let summary = h.finish();
    assert_eq!(summary.rejected_overloaded, 1);
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.completed, 2);
}

#[test]
fn semantic_rejects_cost_one_graph_not_the_session() {
    let h = Harness::start(ServerConfig::default());
    let mut client = Client::connect(h.addr).expect("connect");
    let open = |gid: u64| Frame::OpenGraph {
        graph: gid,
        deadline_ms: 0,
        name: format!("g{gid}"),
        kernels: vec!["k".into()],
    };

    // Seal count mismatch.
    client.send(&open(1)).expect("open 1");
    client
        .send(&Frame::Tasks { graph: 1, tasks: small_trace("x", 4, 100).tasks().to_vec() })
        .expect("tasks 1");
    client.send(&Frame::Seal { graph: 1, tasks_total: 99 }).expect("seal 1");
    match client.recv().expect("reject 1") {
        Frame::Reject { graph: 1, reason: RejectReason::Malformed { detail } } => {
            assert!(detail.contains("99"), "detail names the mismatch: {detail}");
        }
        other => panic!("expected Malformed, got {other:?}"),
    }

    // Kernel id out of the declared table's range.
    client.send(&open(2)).expect("open 2");
    let rogue = tss_trace::TaskDesc::new(tss_trace::KernelId(7), 100, vec![]);
    client.send(&Frame::Tasks { graph: 2, tasks: vec![rogue] }).expect("tasks 2");
    match client.recv().expect("reject 2") {
        Frame::Reject { graph: 2, reason: RejectReason::Malformed { .. } } => {}
        other => panic!("expected Malformed, got {other:?}"),
    }

    // Tasks for a graph that was never opened.
    client.send(&Frame::Tasks { graph: 55, tasks: vec![] }).expect("tasks 55");
    match client.recv().expect("reject 55") {
        Frame::Reject { graph: 55, reason: RejectReason::UnknownGraph } => {}
        other => panic!("expected UnknownGraph, got {other:?}"),
    }

    // Duplicate open of a still-open graph id.
    client.send(&open(3)).expect("open 3");
    client.send(&open(3)).expect("open 3 again");
    match client.recv().expect("reject dup") {
        Frame::Reject { graph: 3, reason: RejectReason::DuplicateGraph } => {}
        other => panic!("expected DuplicateGraph, got {other:?}"),
    }

    // After all of that the session still works end to end.
    let ok = small_trace("ok", 12, 100);
    assert_eq!(client.submit(9, 0, &ok, 5).expect("submit 9"), Submission::Accepted);
    assert!(matches!(client.wait_done(9).expect("done 9"), GraphOutcome::Completed { .. }));

    client.shutdown_server().expect("shutdown ack");
    let summary = h.finish();
    assert_eq!(summary.rejected_malformed, 2);
    assert_eq!(summary.rejected_graph_state, 2);
    assert_eq!(summary.accepted, 1);
    assert_eq!(summary.session_errors, 0, "none of these kill the session");
}

#[test]
fn client_deadline_propagates_into_the_run_deadline() {
    let cfg = ServerConfig {
        runners: 1,
        exec_threads: 1,
        payload: PayloadMode::Spin { time_scale: 1.0 },
        ..ServerConfig::default()
    };
    let h = Harness::start(cfg);
    let mut client = Client::connect(h.addr).expect("connect");

    // ~32 x 20 ms of spin against a 50 ms deadline: the run deadline
    // must stop the run long before it drains.
    let slow = small_trace("slow", 32, ms_cycles(20));
    assert_eq!(client.submit(1, 50, &slow, 8).expect("submit"), Submission::Accepted);
    match client.wait_done(1).expect("done") {
        GraphOutcome::DeadlineExpired { completed, tasks } => {
            assert_eq!(tasks, 32);
            assert!(completed < 32, "expiry must precede completion");
        }
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }

    client.shutdown_server().expect("shutdown ack");
    let summary = h.finish();
    assert_eq!(summary.deadline_expired, 1);
}

#[test]
fn draining_gate_rejects_open_and_seal() {
    // No waiter thread yet: drain is requested but `wait` has not
    // started tearing sessions down, so the reject path is observable
    // without racing the socket shutdown.
    let server = tss_server::Server::start(ServerConfig::default(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // A graph opened before the drain request...
    client
        .send(&Frame::OpenGraph {
            graph: 1,
            deadline_ms: 0,
            name: "early".into(),
            kernels: vec!["k".into()],
        })
        .expect("open 1");
    client
        .send(&Frame::Tasks { graph: 1, tasks: small_trace("x", 4, 100).tasks().to_vec() })
        .expect("tasks 1");

    // Round-trip a whole other graph so the frames above are known to
    // be processed before the drain request lands (frames are handled
    // in order; there is no ack for open/tasks alone).
    let probe = small_trace("probe", 4, 100);
    assert_eq!(client.submit(99, 0, &probe, 4).expect("probe"), tss_client::Submission::Accepted);
    assert!(matches!(client.wait_done(99).expect("probe done"), GraphOutcome::Completed { .. }));

    server.request_drain();

    // ...is refused at seal time,
    client.send(&Frame::Seal { graph: 1, tasks_total: 4 }).expect("seal 1");
    match client.recv().expect("reject 1") {
        Frame::Reject { graph: 1, reason: RejectReason::Draining } => {}
        other => panic!("expected Draining at seal, got {other:?}"),
    }
    // ...and new opens are refused outright.
    client
        .send(&Frame::OpenGraph {
            graph: 2,
            deadline_ms: 0,
            name: "late".into(),
            kernels: vec!["k".into()],
        })
        .expect("open 2");
    match client.recv().expect("reject 2") {
        Frame::Reject { graph: 2, reason: RejectReason::Draining } => {}
        other => panic!("expected Draining at open, got {other:?}"),
    }

    let summary = server.wait();
    assert_eq!(summary.rejected_draining, 2);
    assert_eq!(summary.accepted, 1, "only the pre-drain probe");
}
