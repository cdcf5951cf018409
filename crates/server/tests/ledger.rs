//! The outcome ledger is bounded (ISSUE 13 satellite): a server that
//! completes more graphs than it retains records for still reconciles
//! exactly, because the drain summary's counts come from counters and
//! only the newest `OUTCOMES_KEPT` records are kept.

mod common;

use common::{small_trace, Harness};
use tss_client::{Client, Submission};
use tss_proto::GraphOutcome;
use tss_server::{ServerConfig, OUTCOMES_KEPT};

#[test]
fn counts_stay_exact_past_the_retained_window() {
    let h = Harness::start(ServerConfig::default());
    let mut client = Client::connect(h.addr).expect("connect");
    let trace = small_trace("tiny", 2, 1);
    let graphs = OUTCOMES_KEPT as u64 + 137;
    for gid in 0..graphs {
        assert_eq!(client.submit(gid, 0, &trace, 8).expect("submit"), Submission::Accepted);
        match client.wait_done(gid).expect("done frame") {
            GraphOutcome::Completed { tasks: 2, failed: 0, poisoned: 0, .. } => {}
            other => panic!("graph {gid}: expected a clean Completed, got {other:?}"),
        }
    }
    client.shutdown_server().expect("shutdown ack");

    let s = h.finish();
    assert_eq!(s.accepted, graphs);
    assert_eq!(
        s.completed + s.cancelled + s.deadline_expired + s.failed,
        s.accepted,
        "the ledger must reconcile on counts, not on retained records"
    );
    assert_eq!(s.completed, graphs);
    assert_eq!(s.undelivered_done, 0);
    // Only the newest records are retained, oldest first.
    assert_eq!(s.outcomes.len(), OUTCOMES_KEPT);
    let kept: Vec<u64> = s.outcomes.iter().map(|r| r.graph).collect();
    let newest: Vec<u64> = (graphs - OUTCOMES_KEPT as u64..graphs).collect();
    assert_eq!(kept, newest);
}
