//! Graceful-shutdown regression (ISSUE 10 satellite): after drain,
//! every accepted graph has a terminal record and a delivered `Done` —
//! no accepted graph silently vanishes, whether it finished, was
//! still in the queue when the token fired, or was cancelled mid-run.

mod common;

use std::collections::BTreeSet;
use std::time::Duration;

use common::{ms_cycles, small_trace, Harness};
use tss_client::{Client, Submission};
use tss_exec::PayloadMode;
use tss_proto::GraphOutcome;
use tss_server::ServerConfig;

#[test]
fn every_accepted_graph_is_reported_after_drain() {
    let cfg = ServerConfig {
        quota: 16,
        max_queued_graphs: 64,
        drain_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let h = Harness::start(cfg);

    // Three clients, five pipelined graphs each, all in flight when
    // the shutdown request lands.
    let mut clients: Vec<Client> =
        (0..3).map(|_| Client::connect(h.addr).expect("connect")).collect();
    let mut expected = BTreeSet::new();
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..5u64 {
            let gid = c as u64 * 100 + i;
            let trace = small_trace(&format!("g{gid}"), 50, 100);
            let sub = client.submit(gid, 0, &trace, 7).expect("submit");
            assert_eq!(sub, Submission::Accepted, "graph {gid}");
            expected.insert(gid);
        }
    }

    // Shutdown lands while graphs may still be queued or running.
    clients[0].shutdown_server().expect("shutdown ack");

    // Every client still collects every outcome: drain may not close
    // a session before its `Done` frames are out.
    for (c, client) in clients.iter_mut().enumerate() {
        for i in 0..5u64 {
            let gid = c as u64 * 100 + i;
            let outcome = client.wait_done(gid).expect("done frame");
            match outcome {
                GraphOutcome::Completed { tasks, failed, poisoned, .. } => {
                    assert_eq!(tasks, 50, "graph {gid}");
                    assert_eq!((failed, poisoned), (0, 0), "graph {gid}");
                }
                other => panic!("graph {gid}: expected Completed, got {other:?}"),
            }
        }
    }

    let summary = h.finish();
    assert_eq!(summary.accepted, 15);
    assert_eq!(summary.completed, 15);
    assert_eq!(summary.cancelled, 0);
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.undelivered_done, 0);
    assert!(!summary.drain_deadline_hit, "nothing should need cancelling");
    let reported: BTreeSet<u64> = summary.outcomes.iter().map(|r| r.graph).collect();
    assert_eq!(reported, expected, "no accepted graph may vanish");
    assert!(summary.outcomes.iter().all(|r| r.delivered), "all Done frames delivered");
}

#[test]
fn drain_deadline_cancels_stragglers_but_still_reports_them() {
    let cfg = ServerConfig {
        runners: 1,
        exec_threads: 1,
        payload: PayloadMode::Spin { time_scale: 1.0 },
        drain_deadline: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let h = Harness::start(cfg);

    let mut client = Client::connect(h.addr).expect("connect");
    // Graph 1 runs (~64 x 20 ms of spin); graph 2 queues behind it.
    let long = small_trace("long", 64, ms_cycles(20));
    assert_eq!(client.submit(1, 0, &long, 16).expect("submit 1"), Submission::Accepted);
    assert_eq!(client.submit(2, 0, &long, 16).expect("submit 2"), Submission::Accepted);

    client.shutdown_server().expect("shutdown ack");

    // Both graphs come back cancelled: one stopped mid-run by its
    // token, one popped from the queue after the token fired, which
    // the executor stops before its first completion.
    let mut outcomes =
        vec![client.wait_done(1).expect("done 1"), client.wait_done(2).expect("done 2")];
    assert!(
        matches!(outcomes[1], GraphOutcome::Cancelled { completed: 0, tasks: 64 }),
        "the queued graph never ran: {:?}",
        outcomes[1]
    );
    outcomes.sort_by_key(|o| match o {
        GraphOutcome::Cancelled { completed, .. } => *completed,
        _ => u64::MAX,
    });
    for o in &outcomes {
        match o {
            GraphOutcome::Cancelled { completed, tasks } => {
                assert_eq!(*tasks, 64);
                assert!(*completed < 64, "cancellation must precede completion");
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    let summary = h.finish();
    assert!(summary.drain_deadline_hit);
    assert_eq!(summary.accepted, 2);
    assert_eq!(summary.cancelled, 2);
    assert_eq!(summary.outcomes.len(), 2, "cancelled graphs are reported, not dropped");
    assert_eq!(summary.undelivered_done, 0);
}
