//! The client's write contract (DESIGN.md §14.1), seen from a raw
//! `TcpListener` peer: `OpenGraph` and `Tasks` wait in the client's
//! buffer until a frame that owes a reply, 64 KiB of queued bytes, a
//! raw write or a drop sends them, and the bytes are exactly what
//! `encode_frame` makes, in order.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use tss_client::chaos::{self, ChaosMode, ChaosOutcome};
use tss_client::Client;
use tss_proto::{encode_frame, graph_frames, read_frame, write_frame, Frame, VERSION};
use tss_trace::{KernelId, OperandDesc, TaskDesc, TaskTrace};

/// A peer that answers the handshake and hands back its end of the
/// connection, with a read timeout so a missing byte fails the test
/// instead of hanging it.
fn peer() -> (SocketAddr, JoinHandle<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept");
        s.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        assert_eq!(read_frame(&mut s).expect("hello"), Frame::Hello { version: VERSION });
        write_frame(&mut s, &Frame::HelloAck { version: VERSION }).expect("hello ack");
        s
    });
    (addr, handle)
}

fn connected() -> (Client, TcpStream) {
    let (addr, handle) = peer();
    let client = Client::connect(addr).expect("connect");
    (client, handle.join().expect("peer thread"))
}

/// Whether any byte is waiting at `s`, without blocking.
fn nothing_waiting(s: &TcpStream) -> bool {
    s.set_nonblocking(true).expect("nonblocking");
    let waiting = match s.peek(&mut [0u8; 1]) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => false,
        Ok(_) => true,
        Err(e) => panic!("peek: {e}"),
    };
    s.set_nonblocking(false).expect("blocking");
    !waiting
}

fn take(s: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut got = vec![0u8; n];
    s.read_exact(&mut got).expect("the flushed bytes");
    got
}

fn open(graph: u64) -> Frame {
    Frame::OpenGraph { graph, deadline_ms: 0, name: "g".into(), kernels: vec!["k".into()] }
}

fn trace(tasks: u64) -> TaskTrace {
    let mut tr = TaskTrace::new("t");
    let k = tr.add_kernel("k");
    for i in 0..tasks {
        tr.push_task(k, 100, vec![OperandDesc::inout(i * 64, 64)]);
    }
    tr
}

#[test]
fn a_graph_waits_in_the_buffer_until_its_seal() {
    let (mut client, mut peer) = connected();
    let frames = graph_frames(1, 0, &trace(40), 16);
    let (seal, body) = frames.split_last().expect("frames");
    for f in body {
        client.send(f).expect("send");
    }
    assert!(nothing_waiting(&peer), "OpenGraph and Tasks owe no reply: nothing is written");

    client.send(seal).expect("seal");
    let expected: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
    assert_eq!(take(&mut peer, expected.len()), expected);
    assert!(nothing_waiting(&peer), "exactly the graph's bytes");
}

#[test]
fn tasks_past_64_kib_leave_before_the_seal() {
    let (mut client, mut peer) = connected();
    // 63 B a task, 12.6 kB a frame: the sixth frame crosses 64 KiB.
    let task = TaskDesc::new(KernelId(0), 1, vec![OperandDesc::input(0, 64); 4]);
    let tasks = Frame::Tasks { graph: 1, tasks: vec![task; 200] };
    let mut expected = encode_frame(&open(1));
    client.send(&open(1)).expect("open");
    while expected.len() < 64 << 10 {
        client.send(&tasks).expect("tasks");
        expected.extend_from_slice(&encode_frame(&tasks));
    }
    assert_eq!(take(&mut peer, expected.len()), expected);
    assert!(nothing_waiting(&peer), "the buffer starts over empty");

    // The rest follows at the seal, in order.
    client.send(&tasks).expect("tasks");
    client.send(&Frame::Seal { graph: 1, tasks_total: 0 }).expect("seal");
    let mut rest = encode_frame(&tasks);
    rest.extend_from_slice(&encode_frame(&Frame::Seal { graph: 1, tasks_total: 0 }));
    assert_eq!(take(&mut peer, rest.len()), rest);
}

#[test]
fn a_dropped_client_still_delivers_an_unsealed_graph() {
    let (mut client, mut peer) = connected();
    client.send(&open(7)).expect("open");
    drop(client);
    let mut got = Vec::new();
    peer.read_to_end(&mut got).expect("to EOF");
    assert_eq!(got, encode_frame(&open(7)));
}

#[test]
fn truncate_chaos_writes_the_open_graph_before_the_half_frame() {
    let (addr, handle) = peer();
    let tr = trace(40);
    let frames = graph_frames(3, 0, &tr, 16);
    let server = std::thread::spawn(move || {
        let mut s = handle.join().expect("peer thread");
        let mut got = Vec::new();
        s.read_to_end(&mut got).expect("to EOF");
        got
    });
    let mut slot = None;
    let outcome =
        chaos::run_graph(addr, &mut slot, ChaosMode::Truncate, 3, 0, &tr, 16).expect("run");
    assert_eq!(outcome, ChaosOutcome::SessionKilled);
    let tasks = encode_frame(&frames[1]);
    let mut expected = encode_frame(&frames[0]);
    expected.extend_from_slice(&tasks[..tasks.len() / 2]);
    assert_eq!(server.join().expect("peer"), expected);
}
