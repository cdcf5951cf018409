//! The resident runtime (DESIGN.md §15): process-lifetime worker
//! *crews* that replace the per-run `std::thread::scope` spawn.
//!
//! A run is a set of *roles* — decode shards, workers, and (when a
//! deadline or cancel token is armed) a watchdog — that borrow the
//! run's stack-allocated state and must all have returned before the
//! run reads its results. `std::thread::scope` gives that contract by
//! spawning and joining one OS thread per role, per run; at one-task
//! graphs the spawn/join is most of the run (62–95 µs against 7.5–9 µs
//! to wake parked threads, EXPERIMENTS.md). [`Runtime::run`] gives the
//! same contract on threads that outlive the run:
//!
//! 1. **Lease** a whole crew from the free list (or start an empty
//!    one), and grow it to one member per role. A crew belongs to
//!    exactly one run at a time, so no run ever waits for a thread
//!    another run holds — which is why concurrent runs cannot deadlock
//!    each other here, where a shared pool of role threads could: a
//!    run's roles wait on *each other* (workers park until the decode
//!    role commits a window), so a run that got only some of its roles
//!    scheduled would hold those threads while waiting for the rest.
//! 2. **Publish** role `k` into member `k`'s job slot. The same role
//!    index lands on the same resident thread run after run.
//! 3. **Wait** on the crew's completion latch until every member has
//!    signalled done, then **return the crew from the submitter**.
//!    Members never re-enter the free list themselves: a member that
//!    did so after signalling would race the next run's lease, which
//!    would find the list empty and spawn a second crew.
//!
//! There is one runtime per process ([`global`]), not one per
//! `Executor` or `Server`: resident threads that are torn down with
//! their owner hand their malloc arenas to whichever thread starts
//! next, and a process that sets a stack up several times pays for it
//! in resident memory (§15.4 has the numbers). Crews are never shrunk
//! or retired; a parked member costs its stack's address space and
//! nothing else.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock, PoisonError};

use crate::sync::thread::{spawn_named, JoinHandle};
use crate::sync::{Condvar, Mutex, MutexGuard};

/// One role of a run: a closure that may borrow the submitter's stack.
pub(crate) type Role<'a> = Box<dyn FnOnce() + Send + 'a>;

type Panic = Box<dyn Any + Send + 'static>;

/// Locks `m`, recovering from poisoning. Sound here because no code in
/// this module can panic while holding one of its locks (roles run
/// with every lock released), and each guarded value is a plain state
/// word or counter that is valid after every single assignment. It also
/// keeps the publish → wait window of [`Runtime::run`] free of unwind
/// paths, which its lifetime erasure relies on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a member finds in its job slot.
enum SlotState {
    Empty,
    Job(Role<'static>),
    /// The runtime is being dropped: leave the loop.
    Exit,
}

/// One member's mailbox. A private condvar per member, so publishing a
/// role wakes exactly the thread that will run it.
struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl Slot {
    fn put(&self, state: SlotState) {
        *lock(&self.state) = state;
        self.cv.notify_one();
    }

    /// Blocks until a role (`Some`) or the exit request (`None`) is in.
    fn take(&self) -> Option<Role<'static>> {
        let mut st = lock(&self.state);
        loop {
            match std::mem::replace(&mut *st, SlotState::Empty) {
                SlotState::Job(role) => return Some(role),
                SlotState::Exit => return None,
                SlotState::Empty => {
                    st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

struct LatchState {
    /// Published roles that have not signalled done yet.
    pending: usize,
    /// First panic that escaped a role, for the submitter to re-raise.
    panic: Option<Panic>,
}

/// The crew's completion latch: armed by the submitter with the role
/// count, counted down by the members, awaited by the submitter.
struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

impl Latch {
    fn arm(&self, roles: usize) {
        lock(&self.state).pending = roles;
    }

    /// A member's done signal; only the last one wakes the submitter
    /// (after releasing the lock, so it does not wake into it).
    fn signal(&self, panic: Option<Panic>) {
        let mut st = lock(&self.state);
        st.pending -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        let last = st.pending == 0;
        drop(st);
        if last {
            self.cv.notify_one();
        }
    }

    /// Blocks until every armed role has signalled; hands back the
    /// first escaped panic, if any. The mutex hand-over is the
    /// happens-before edge from everything the roles wrote to the
    /// submitter's reads after it.
    fn wait(&self) -> Option<Panic> {
        let mut st = lock(&self.state);
        while st.pending > 0 {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.panic.take()
    }
}

/// A resident thread: takes a role, runs it, signals the latch, parks.
fn member_loop(slot: &Slot, latch: &Latch) {
    // `--cfg tss_bug_crew_early_done` seeds the bug the latch exists to
    // exclude — done signalled before the role has run — so CI can
    // prove the hand-off model test still catches a submitter that
    // returns while its roles are live (§15.3).
    const EARLY_DONE: bool = cfg!(tss_bug_crew_early_done);
    while let Some(role) = slot.take() {
        if EARLY_DONE {
            latch.signal(None);
        }
        // The call consumes the box: the closure and everything it
        // borrowed are gone before the done signal below. Executor
        // roles contain their own panics; one that escapes anyway is
        // kept for the submitter, and the member stays resident.
        let outcome = catch_unwind(AssertUnwindSafe(role));
        if !EARLY_DONE {
            latch.signal(outcome.err());
        }
    }
}

struct Member {
    slot: Arc<Slot>,
    thread: JoinHandle<()>,
}

/// A set of resident threads leased to one run at a time.
struct Crew {
    id: usize,
    latch: Arc<Latch>,
    members: Vec<Member>,
}

impl Crew {
    fn new(id: usize) -> Crew {
        let state = Mutex::new(LatchState { pending: 0, panic: None });
        Crew { id, latch: Arc::new(Latch { state, cv: Condvar::new() }), members: Vec::new() }
    }

    /// Starts members until there is one per role.
    fn grow(&mut self, roles: usize) {
        while self.members.len() < roles {
            let slot = Arc::new(Slot { state: Mutex::new(SlotState::Empty), cv: Condvar::new() });
            let (slot2, latch) = (Arc::clone(&slot), Arc::clone(&self.latch));
            let name = format!("tss-crew{}-{}", self.id, self.members.len());
            let thread = spawn_named(name, move || member_loop(&slot2, &latch));
            self.members.push(Member { slot, thread });
        }
    }
}

struct Crews {
    /// Crews not leased to a run; popped and pushed at the back, so a
    /// sequential caller always gets the crew it just returned.
    free: Vec<Crew>,
    /// Crews ever started (names the next one).
    started: usize,
}

/// The resident thread population. One per process in production
/// ([`global`]); tests and model runs make their own, whose drop stops
/// and joins the crews.
pub(crate) struct Runtime {
    crews: Mutex<Crews>,
}

impl Runtime {
    pub(crate) fn new() -> Runtime {
        Runtime { crews: Mutex::new(Crews { free: Vec::new(), started: 0 }) }
    }

    /// Runs every role to completion, role `k` on the leased crew's
    /// member `k`, and returns only after all of them have — the
    /// `std::thread::scope` contract on resident threads. A panic that
    /// escapes a role is re-raised here once every role has finished.
    pub(crate) fn run<'a>(&self, roles: Vec<Role<'a>>) {
        if roles.is_empty() {
            return;
        }
        let mut crew = {
            let mut crews = lock(&self.crews);
            crews.free.pop().unwrap_or_else(|| {
                crews.started += 1;
                Crew::new(crews.started - 1)
            })
        };
        // Spawning can panic (the OS refuses a thread); it happens
        // before anything is published, so that unwind strands nothing.
        crew.grow(roles.len());
        crew.latch.arm(roles.len());
        for (member, role) in crew.members.iter().zip(roles) {
            // SAFETY: the transmute only erases the borrow lifetime
            // `'a` of the boxed closure; layout and vtable are those of
            // the same `dyn FnOnce() + Send`. Erasing it is sound
            // because no role outlives this call: the latch was armed
            // with the role count above, a member signals it only
            // after its role has been called and dropped
            // (`member_loop`), and `Latch::wait` below returns only
            // once every armed role has signalled, acquiring the latch
            // mutex each signal released. Between the first `put` and
            // that return nothing can unwind — `put`/`wait` are a
            // poison-recovering lock, an assignment and a condvar
            // call — so there is no early exit that would free the
            // borrowed state under a running role. The exception is a
            // model-checker teardown, whose model tests therefore hand
            // roles owned (`Arc`) data only.
            let role = unsafe { std::mem::transmute::<Role<'a>, Role<'static>>(role) };
            member.slot.put(SlotState::Job(role));
        }
        let panic = crew.latch.wait();
        // Returned by the submitter, after the latch (module docs).
        lock(&self.crews).free.push(crew);
        if let Some(panic) = panic {
            resume_unwind(panic);
        }
    }

    /// Resident threads in crews that are not leased right now.
    #[cfg(test)]
    fn parked_threads(&self) -> usize {
        lock(&self.crews).free.iter().map(|c| c.members.len()).sum()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        let crews = self.crews.get_mut().unwrap_or_else(PoisonError::into_inner);
        let members: Vec<Member> = crews.free.drain(..).flat_map(|crew| crew.members).collect();
        for m in &members {
            m.slot.put(SlotState::Exit);
        }
        // A drop that runs while unwinding (a failed test, a model
        // schedule being torn down) only asks the members to leave:
        // joining could block on — or panic inside — a dying run.
        if std::thread::panicking() {
            return;
        }
        for m in members {
            // A member cannot have panicked (roles run under
            // `catch_unwind`); nothing to propagate either way.
            let _ = m.thread.join();
        }
    }
}

/// The process-wide runtime every [`crate::Executor`] run leases from.
pub(crate) fn global() -> &'static Runtime {
    static GLOBAL: OnceLock<Runtime> = OnceLock::new();
    GLOBAL.get_or_init(Runtime::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn roles_borrow_the_stack_and_finish_before_run_returns() {
        let rt = Runtime::new();
        let mut out = [0u32; 3];
        let seen = AtomicUsize::new(0);
        let roles: Vec<Role<'_>> = out
            .iter_mut()
            .enumerate()
            .map(|(k, slot)| {
                let seen = &seen;
                Box::new(move || {
                    *slot = k as u32 + 1;
                    seen.fetch_add(1, Ordering::AcqRel);
                }) as Role<'_>
            })
            .collect();
        rt.run(roles);
        assert_eq!(out, [1, 2, 3]);
        assert_eq!(seen.load(Ordering::Acquire), 3);
    }

    #[test]
    fn a_sequential_caller_keeps_one_crew_sized_by_its_widest_run() {
        let rt = Runtime::new();
        for round in 0..50 {
            let roles: Vec<Role<'_>> =
                (0..1 + round % 4).map(|_| Box::new(|| {}) as Role<'_>).collect();
            rt.run(roles);
            assert!(rt.parked_threads() <= 4, "round {round} started a second crew");
        }
        assert_eq!(rt.parked_threads(), 4);
        assert_eq!(lock(&rt.crews).free.len(), 1);
    }

    #[test]
    fn an_escaped_role_panic_is_reraised_and_the_crew_survives() {
        crate::fault::install_quiet_hook();
        let rt = Runtime::new();
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            rt.run(vec![
                Box::new(|| panic!("{} role bug", crate::fault::INJECTED_PANIC_MARKER)),
                Box::new(|| {
                    ran.fetch_add(1, Ordering::AcqRel);
                }),
            ]);
        }));
        assert!(caught.is_err(), "the role's panic must reach the submitter");
        assert_eq!(ran.load(Ordering::Acquire), 1, "the sibling role still ran to completion");
        // Same two resident threads, still serving.
        rt.run(vec![Box::new(|| {
            ran.fetch_add(1, Ordering::AcqRel);
        })]);
        assert_eq!(ran.load(Ordering::Acquire), 2);
        assert_eq!(rt.parked_threads(), 2);
    }

    #[test]
    fn concurrent_submitters_hold_different_crews() {
        let rt = Runtime::new();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    // Both runs are inside a role at the same time, so
                    // neither can be waiting for the other's crew.
                    rt.run(vec![Box::new(|| {
                        barrier.wait();
                    })]);
                });
            }
        });
        assert_eq!(lock(&rt.crews).free.len(), 2);
    }
}

/// Model-checked interleavings of the crew protocol (DESIGN.md §15.3).
/// Compiled only under `RUSTFLAGS="--cfg tss_model_check"`. Roles here
/// capture owned data only: a failing schedule is torn down by
/// unwinding the submitter, which may leave a role running.
#[cfg(all(test, tss_model_check))]
mod model_tests {
    use super::*;
    use crate::sync::atomic::{AtomicU32, Ordering};
    use shuttle::thread;

    fn counting_role(hits: &Arc<AtomicU32>) -> Role<'static> {
        let hits = Arc::clone(hits);
        Box::new(move || {
            // relaxed: model-test role effect; deliberately Relaxed so only
            // the crew latch can order it before the submitter's read
            // (DESIGN.md §15.3)
            hits.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Crew hand-off, exhaustively: a published role runs exactly once,
    /// and when `run` returns its effect is visible to the submitter
    /// even through a `Relaxed` read — i.e. the latch orders the whole
    /// role before the return, which is the premise of the lifetime
    /// erasure. `--cfg tss_bug_crew_early_done` signals the latch
    /// before the role runs and this test fails: CI's proof that it
    /// guards the `SAFETY` argument.
    #[test]
    fn model_crew_handoff_finishes_the_role_before_run_returns() {
        let report = shuttle::check_exhaustive(300_000, || {
            let rt = Runtime::new();
            let hits = Arc::default();
            rt.run(vec![counting_role(&hits)]);
            // relaxed: model-test read after Runtime::run; Relaxed on
            // purpose: it must see the role's store through the latch's
            // happens-before edge alone (DESIGN.md §15.3)
            assert_eq!(hits.load(Ordering::Relaxed), 1, "run returned before its role finished");
        });
        assert!(report.complete, "budget too small: {} schedules", report.schedules);
    }

    /// The same hand-off with two roles, then a second run: every role
    /// runs exactly once, and the second run reuses the crew — the
    /// submitter returned it after the latch, so no member can have
    /// raced back into the free list late and forced a fresh spawn.
    #[test]
    fn model_crew_is_reused_by_the_next_run() {
        let scenario = || {
            let rt = Runtime::new();
            let hits: Vec<Arc<AtomicU32>> = (0..2).map(|_| Arc::default()).collect();
            rt.run(hits.iter().map(counting_role).collect());
            for h in &hits {
                // relaxed: model-test read after Runtime::run; ordered by
                // the crew latch (DESIGN.md §15.3)
                assert_eq!(h.load(Ordering::Relaxed), 1, "run returned before a role finished");
            }
            rt.run(vec![counting_role(&hits[0])]);
            // relaxed: model-test read after the second Runtime::run;
            // ordered by the crew latch (DESIGN.md §15.3)
            assert_eq!(hits[0].load(Ordering::Relaxed), 2);
            assert_eq!(rt.parked_threads(), 2, "the second run did not reuse the crew");
        };
        shuttle::check_pct(0xC4E3_0002, 400, 3, scenario);
        shuttle::check_random(0xC4E3_0002, 400, scenario);
    }

    /// Lease/return under two concurrent submitters: whatever the
    /// interleaving of their leases, returns and the members' wake-ups,
    /// no member is handed two roles (every role runs exactly once, none
    /// is overwritten in a slot) and at most two crews ever exist.
    #[test]
    fn model_two_submitters_never_share_a_member() {
        let scenario = || {
            let rt = Arc::new(Runtime::new());
            let hits: Vec<Arc<AtomicU32>> = (0..4).map(|_| Arc::default()).collect();
            let (rt2, theirs) = (Arc::clone(&rt), hits[2..].to_vec());
            let other = thread::spawn(move || {
                rt2.run(vec![counting_role(&theirs[0])]);
                rt2.run(vec![counting_role(&theirs[1])]);
            });
            rt.run(vec![counting_role(&hits[0])]);
            rt.run(vec![counting_role(&hits[1])]);
            other.join().unwrap();
            for (k, h) in hits.iter().enumerate() {
                // relaxed: model-test read after both submitters returned
                // and joined; ordered by the crew latches and the join
                // (DESIGN.md §15.3)
                assert_eq!(h.load(Ordering::Relaxed), 1, "role {k} ran a wrong number of times");
            }
            assert!(rt.parked_threads() <= 2, "a sequential submitter grew its own crew");
        };
        shuttle::check_pct(0xC4E3_0001, 400, 3, scenario);
        shuttle::check_random(0xC4E3_0001, 400, scenario);
    }
}
