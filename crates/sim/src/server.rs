//! Serial-server occupancy timelines.
//!
//! The paper's pipeline modules (gateway, ORTs, OVTs, TRSs) each process
//! one protocol packet at a time: "each pipeline module charges 16 cycles
//! for processing a packet on top of any eDRAM access overheads" (Table
//! II). Rather than simulating an explicit input queue per module, a
//! [`ServerTimeline`] tracks when the module becomes free; a packet
//! arriving at `now` starts service at `max(now, busy_until)` and the
//! caller schedules its effects at the returned completion time. This
//! yields exactly FIFO queuing at each module, and the back-pressure the
//! paper describes emerges from the accumulated delays.
//!
//! [`LaneServer`] generalizes to `n` parallel servers (used by the NoC's
//! "4 concurrent connections per segment", Table II).

use crate::time::Cycle;

/// Occupancy timeline of a single serial server.
#[derive(Debug, Clone, Default)]
pub struct ServerTimeline {
    busy_until: Cycle,
    busy_cycles: Cycle,
    jobs: u64,
}

impl ServerTimeline {
    /// A server that is free from cycle 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the server for `cost` cycles starting no earlier than
    /// `now`, and returns the completion time.
    pub fn occupy(&mut self, now: Cycle, cost: Cycle) -> Cycle {
        let start = self.busy_until.max(now);
        self.busy_until = start + cost;
        self.busy_cycles += cost;
        self.jobs += 1;
        self.busy_until
    }

    /// The first cycle at which the server is free.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Total cycles of service performed.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Number of jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Fraction of `[0, horizon]` this server spent busy.
    ///
    /// Returns 0 for a zero horizon.
    pub fn utilization(&self, horizon: Cycle) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / horizon as f64
        }
    }
}

/// Occupancy of `n` interchangeable parallel servers (e.g. virtual
/// channels on a ring segment): each job takes the earliest-free lane.
#[derive(Debug, Clone)]
pub struct LaneServer {
    lanes: Vec<Cycle>,
    busy_cycles: Cycle,
    jobs: u64,
}

impl LaneServer {
    /// Creates `lanes` parallel servers, all free from cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "a server needs at least one lane");
        LaneServer { lanes: vec![0; lanes], busy_cycles: 0, jobs: 0 }
    }

    /// Reserves the earliest-free lane for `cost` cycles starting no
    /// earlier than `now`; returns the completion time.
    pub fn occupy(&mut self, now: Cycle, cost: Cycle) -> Cycle {
        let lane = self
            .lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one lane");
        let start = self.lanes[lane].max(now);
        self.lanes[lane] = start + cost;
        self.busy_cycles += cost;
        self.jobs += 1;
        self.lanes[lane]
    }

    /// Total lane-cycles of service performed.
    pub fn busy_cycles(&self) -> Cycle {
        self.busy_cycles
    }

    /// Jobs served.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Aggregate utilization over `[0, horizon]` across all lanes.
    pub fn utilization(&self, horizon: Cycle) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (horizon as f64 * self.lanes.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_server_starts_immediately() {
        let mut s = ServerTimeline::new();
        assert_eq!(s.occupy(100, 16), 116);
        assert_eq!(s.busy_until(), 116);
    }

    #[test]
    fn busy_server_queues_fifo() {
        let mut s = ServerTimeline::new();
        assert_eq!(s.occupy(0, 16), 16);
        // Arrives while busy: waits.
        assert_eq!(s.occupy(4, 16), 32);
        // Arrives after it drained: starts at arrival.
        assert_eq!(s.occupy(100, 10), 110);
        assert_eq!(s.busy_cycles(), 42);
        assert_eq!(s.jobs(), 3);
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let mut s = ServerTimeline::new();
        s.occupy(0, 50);
        assert!((s.utilization(100) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(0), 0.0);
    }

    #[test]
    fn lanes_run_in_parallel_then_queue() {
        let mut l = LaneServer::new(2);
        assert_eq!(l.occupy(0, 10), 10);
        assert_eq!(l.occupy(0, 10), 10); // second lane
        assert_eq!(l.occupy(0, 10), 20); // queues behind the earliest lane
        assert_eq!(l.occupy(15, 10), 25); // other lane is free at 10 < 15
        assert_eq!(l.jobs(), 4);
    }

    #[test]
    fn lane_utilization_counts_all_lanes() {
        let mut l = LaneServer::new(4);
        l.occupy(0, 100);
        assert!((l.utilization(100) - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_panics() {
        let _ = LaneServer::new(0);
    }
}
