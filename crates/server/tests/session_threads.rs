//! A resident server must not pay for every session it ever served:
//! a finished session thread keeps its stack mapped until its
//! `JoinHandle` is joined or dropped, so the accept loop reaps finished
//! handles as it goes. At the parent commit every handle was kept until
//! drain — two mappings per session ever served, and `spawn` fails
//! outright once the process reaches `vm.max_map_count`.
//!
//! This file is one test on purpose: the mapping count is process-wide,
//! and a test binary is the only scope in which nothing else spawns.

#![cfg(target_os = "linux")]

use tss_client::Client;
use tss_server::{Server, ServerConfig};

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").expect("procfs").lines().count()
}

#[test]
fn finished_sessions_do_not_accumulate_mappings() {
    let server = Server::start(ServerConfig::default(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let session = || Client::connect(addr).expect("connect + Hello").bye();
    // Warm-up: allocator arenas and the first reaped stacks settle.
    for _ in 0..100 {
        session();
    }
    let before = mappings();
    for _ in 0..3_000 {
        session();
    }
    let grown = mappings().saturating_sub(before);
    assert!(grown < 200, "3,000 sessions grew /proc/self/maps by {grown} lines");

    server.drain_handle().request_drain();
    assert_eq!(server.wait().sessions, 3_100);
}
