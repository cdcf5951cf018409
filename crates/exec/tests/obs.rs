//! Observability integration (ISSUE 8): the sink selection is a
//! compile-time feature, so this suite runs in both configurations —
//! `cargo test -p tss-exec` exercises the NoopSink (obs must be absent
//! and cost nothing), `--features obs` exercises the RingSink (tracks,
//! histograms, and the determinism argument of DESIGN.md §12.5).

use tss_exec::obs::{EventKind, Role};
use tss_exec::{obs_enabled, ExecConfig, Executor, TaskGraphBuilder};
use tss_trace::TaskTrace;

/// A mixed graph big enough that 1-in-16 sampling still lands: `n`
/// producer/consumer pairs over `width` rotating buffers, so there is
/// real dependence structure and real parallelism.
fn graph(n: usize, width: u64) -> TaskTrace {
    let mut b = TaskGraphBuilder::new("obs-mix");
    let produce = b.kernel("produce");
    let consume = b.kernel("consume");
    for i in 0..n as u64 {
        let buf = 0x1000 + (i % width) * 0x100;
        b.task(produce).runtime_us(0.5).output(buf, 128).spawn();
        b.task(consume).runtime_us(0.5).input(buf, 128).spawn();
    }
    b.build()
}

fn exec(threads: usize) -> Executor {
    Executor::new(ExecConfig { threads, ..Default::default() })
}

#[test]
fn one_worker_replay_stays_deterministic_under_observation() {
    // DESIGN.md §12.5: sampling is pure in the task id and recording
    // never blocks, so turning obs on cannot change scheduling. With
    // one worker the completion order is fully determined — two runs
    // must agree exactly, and both must pass the dependence oracle.
    let trace = graph(512, 8);
    let a = exec(1).run_oneshot(&trace).expect("first replay failed");
    let b = exec(1).run_oneshot(&trace).expect("second replay failed");
    assert!(a.validated && b.validated, "oracle rejected an observed replay");
    assert_eq!(a.order, b.order, "1-worker replay order must be deterministic");
    assert_eq!(a.obs.is_some(), obs_enabled());
}

#[test]
fn obs_report_presence_matches_the_build() {
    let trace = graph(256, 4);
    let report = exec(2).run_oneshot(&trace).expect("replay failed");
    match report.obs {
        Some(_) => assert!(obs_enabled(), "NoopSink build must not produce a report"),
        None => assert!(!obs_enabled(), "RingSink build must produce a report"),
    }
}

#[test]
fn ring_report_covers_every_worker_and_respects_sampling() {
    let threads = 3;
    let trace = graph(2048, 16);
    let tasks = trace.len() as u64;
    let report = exec(threads).run_oneshot(&trace).expect("replay failed");
    assert!(report.validated);
    let Some(obs) = report.obs else {
        assert!(!obs_enabled());
        return;
    };

    // One track per worker, each with at least the whole-worker span.
    assert_eq!(obs.tracks.len(), threads);
    for (i, track) in obs.tracks.iter().enumerate() {
        assert_eq!(track.name, format!("worker-{i}"));
        assert!(!track.events.is_empty(), "track {i} recorded nothing");
        assert_eq!(track.dropped, 0, "tiny run must not overflow a ring");
    }

    // Histograms hold sampled tasks only: nonzero (4096 tasks at
    // 1-in-16 sampling), but never more than the task count.
    assert!(!obs.exec_latency.is_empty(), "no task latencies sampled");
    assert!(obs.exec_latency.count() <= tasks);
    assert!(obs.queue_wait.count() <= obs.exec_latency.count());
    assert!(obs.exec_latency.p50() <= obs.exec_latency.p99());
    assert!(obs.exec_latency.p99() <= obs.exec_latency.p999());
    assert_eq!(obs.sample_every, tss_exec::obs::SAMPLE_EVERY);

    // And the Chrome export of a real run is structurally sound.
    let json = tss_exec::obs::chrome_trace(&[("obs-mix".into(), &obs)]);
    assert!(json.contains("\"thread_name\"") && json.contains("worker-0"));
    assert!(json.contains("\"ph\":\"X\""), "no slices in a real run");
}

#[test]
fn streaming_runs_carry_decode_shard_tracks() {
    let trace = graph(2048, 16);
    let report = Executor::new(ExecConfig { threads: 2, decode_shards: 2, ..Default::default() })
        .run(&trace)
        .expect("streaming run failed");
    assert!(report.validated);
    let Some(obs) = report.obs else {
        assert!(!obs_enabled());
        return;
    };
    let names: Vec<&str> = obs.tracks.iter().map(|t| t.name.as_str()).collect();
    assert!(names.contains(&"worker-0") && names.contains(&"worker-1"), "{names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("decode-")),
        "streaming run lost its decode tracks: {names:?}"
    );
}

/// The scheduler bypass under observation (DESIGN.md §13.1): on a chain
/// one worker runs every link but the root straight from its bypass
/// slot, and each sampled one still leaves the Spawn event its Task
/// slice pairs with — a queue wait of the few instructions between the
/// completion and the loop, not a gap in the histogram.
#[test]
fn a_bypassed_task_keeps_its_spawn_and_task_pair() {
    let mut b = TaskGraphBuilder::new("chain");
    let link = b.kernel("link");
    let n = 4096u32;
    for _ in 0..n {
        b.task(link).inout(0xA0, 64).spawn();
    }
    let report = exec(1).run_oneshot(&b.build()).expect("chain replay failed");
    assert_eq!(report.order, (0..n as usize).collect::<Vec<_>>());
    let Some(obs) = report.obs else {
        assert!(!obs_enabled());
        return;
    };
    // The root was pushed before the worker (and its ring) existed.
    let sampled: Vec<u32> = (1..n).filter(|&t| tss_exec::obs::sampled(t)).collect();
    assert!(sampled.len() > 32, "a chain this long samples dozens of links");
    for kind in [EventKind::Spawn, EventKind::Task] {
        let seen: Vec<u32> = obs.tracks[0]
            .events
            .iter()
            .filter(|e| e.kind == kind && e.arg != 0)
            .map(|e| e.arg)
            .collect();
        assert_eq!(seen, sampled, "{kind:?} events of the sampled links");
    }
    assert_eq!(obs.queue_wait.count(), sampled.len() as u64);
    assert!(obs.queue_wait.p50() < 50_000, "a held task waited {} ns", obs.queue_wait.p50());
}

/// The per-role CPU budget (DESIGN.md §12.6): a streamed run charges
/// all five roles, a two-phase replay has no decode roles to charge,
/// and the workers' figure is CPU, not wall — it cannot exceed what the
/// crew's threads could have used.
#[test]
fn role_clocks_cover_exactly_the_roles_a_run_has() {
    let trace = graph(4096, 16);
    let threads = 2;
    let streamed = exec(threads).run(&trace).expect("streamed run failed");
    let replayed = exec(threads).run_oneshot(&trace).expect("replay failed");
    let (Some(s), Some(r)) = (streamed.obs, replayed.obs) else {
        assert!(!obs_enabled());
        return;
    };
    assert_eq!((r.role_cpu.ns(Role::Scan), r.role_cpu.ns(Role::Commit)), (0, 0));
    if cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        for role in Role::ALL {
            assert!(s.role_cpu.ns(role) > 0, "streamed run charged {} nothing", role.name());
        }
        for role in [Role::Setup, Role::Workers, Role::Finish] {
            assert!(r.role_cpu.ns(role) > 0, "replay charged {} nothing", role.name());
        }
    }
    let budget = (threads as u128 + 1) * streamed.exec_wall.as_nanos();
    let crew = [Role::Scan, Role::Commit, Role::Workers].map(|role| s.role_cpu.ns(role) as u128);
    assert!(crew.iter().sum::<u128>() <= budget, "{crew:?} ns of CPU in {budget} ns of threads");
}
