//! Per-node runtime state: the indexed ready set, the execution slots and churn bookkeeping.
//!
//! Two hot paths of the old monolithic simulation live here in indexed form:
//!
//! * **ready-set selection** — the monolith kept each node's ready tasks in a `Vec`, re-scanned
//!   it for data-complete entries and re-ranked all of them on every CPU-idle event
//!   (`O(ready²)` over a busy node's backlog).  [`ReadySet`] keeps data-complete tasks in a
//!   priority heap ordered by the scheduler's static [`ReadyKey`], so selection is
//!   `O(log ready)` and marking a transfer complete is `O(1)` instead of a linear scan;
//! * **load accounting** — the queued load (`l_r` in the paper, gossiped every cycle) is
//!   maintained incrementally instead of being re-summed over the ready `Vec`.
//!
//! The execution substrate is the [`ResourceModel`](crate::config::ResourceModel) seam: a node
//! owns `slots` independent execution slots (the paper's single non-preemptive CPU is
//! `slots == 1`) and runs up to that many data-complete tasks concurrently.

use super::fxhash::FxHashMap;
use crate::policy::second_phase::{ReadyKey, ReadyTaskView};
use p2pgrid_sim::SimTime;
use p2pgrid_workflow::TaskId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A task waiting (or still receiving its input data) in a resource node's ready set.
#[derive(Debug, Clone, Copy)]
pub struct ReadyEntry {
    /// Global workflow index of the task.
    pub wf: usize,
    /// Task id within its workflow.
    pub task: TaskId,
    /// Computational load in MI (counted into the node's gossiped total load).
    pub load_mi: f64,
    /// The second-phase attributes captured at dispatch time.
    pub view: ReadyTaskView,
    /// The scheduler's static priority key (smallest runs first).
    pub key: ReadyKey,
    /// True once every input transfer has arrived.
    pub data_ready: bool,
}

/// One heap item: `(key, seq)` ascending, resolving to a map entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapItem {
    key: ReadyKey,
    seq: u64,
    wf: usize,
    task: TaskId,
}

/// A resource node's ready set, indexed two ways: by `(workflow, task)` for `O(1)`
/// transfer-completion updates, and by scheduler priority for `O(log n)` selection of the next
/// task to execute.
#[derive(Debug, Clone, Default)]
pub struct ReadySet {
    entries: FxHashMap<(usize, TaskId), ReadyEntry>,
    /// Data-complete tasks only, smallest `(key, seq)` first.
    ready_heap: BinaryHeap<Reverse<HeapItem>>,
    queued_load_mi: f64,
    /// Number of data-complete entries, maintained incrementally.  The heap length is *not*
    /// that number (it may carry stale residue), so observers get their own `O(1)` counter
    /// instead of walking the heap.
    selectable: usize,
}

impl ReadySet {
    /// Create an empty ready set.
    pub fn new() -> Self {
        ReadySet::default()
    }

    /// Number of queued tasks (transferring + data-complete).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of data-complete (selectable) tasks, maintained incrementally — the `O(1)`
    /// accessor the time-series probe samples instead of walking the heap.
    pub fn selectable_len(&self) -> usize {
        self.selectable
    }

    /// True when no task is queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total queued computational load in MI (the `l_r` component gossiped as part of the
    /// node's state record), maintained incrementally.
    pub fn queued_load_mi(&self) -> f64 {
        self.queued_load_mi
    }

    /// Enqueue a migrated task.  Tasks arriving with `data_ready` already set (zero-transfer
    /// dispatches) become immediately selectable.
    ///
    /// A `(workflow, task)` pair must be queued at most once: the engine guarantees this
    /// through `ProgressTracker::mark_dispatched`, and external callers must uphold it too —
    /// a duplicate insert would double-count the queued load and leave a stale heap item.
    pub fn insert(&mut self, entry: ReadyEntry) {
        debug_assert!(
            !self.entries.contains_key(&(entry.wf, entry.task)),
            "task ({}, {:?}) is already queued in this ready set",
            entry.wf,
            entry.task
        );
        self.queued_load_mi += entry.load_mi;
        if entry.data_ready {
            self.push_ready(&entry);
        }
        self.entries.insert((entry.wf, entry.task), entry);
    }

    /// Mark a task's input transfers complete, making it selectable.  Returns `false` when the
    /// task is no longer queued here (e.g. the node churned away and rejoined in between).
    pub fn mark_data_ready(&mut self, wf: usize, task: TaskId) -> bool {
        let Some(entry) = self.entries.get_mut(&(wf, task)) else {
            return false;
        };
        if entry.data_ready {
            return true;
        }
        entry.data_ready = true;
        let entry = *entry;
        self.push_ready(&entry);
        true
    }

    /// Remove and return the data-complete task with the smallest `(key, seq)` — the task the
    /// second phase executes next — or `None` if nothing is selectable.
    pub fn pop_next(&mut self) -> Option<ReadyEntry> {
        while let Some(Reverse(item)) = self.ready_heap.pop() {
            if let Some(entry) = self.entries.remove(&(item.wf, item.task)) {
                self.selectable -= 1;
                self.queued_load_mi -= entry.load_mi;
                // Clamp away f64 increment/decrement drift after *every* subtraction — not
                // only when the set empties — so a busy node can never gossip a slightly
                // negative queued load.
                if self.entries.is_empty() || self.queued_load_mi < 0.0 {
                    self.queued_load_mi = 0.0;
                }
                return Some(entry);
            }
        }
        None
    }

    /// The `(key, seq)` of the task [`ReadySet::pop_next`] would return, without removing it.
    /// Stale heap residue is discarded along the way (hence `&mut self`).
    pub fn peek_next(&mut self) -> Option<(ReadyKey, u64)> {
        while let Some(Reverse(item)) = self.ready_heap.peek().copied() {
            if self.entries.contains_key(&(item.wf, item.task)) {
                return Some((item.key, item.seq));
            }
            self.ready_heap.pop();
        }
        None
    }

    /// Remove one queued task by identity (a replica twin cancelled because another copy
    /// completed first).  The heap may keep a stale item for it; [`ReadySet::pop_next`] /
    /// [`ReadySet::peek_next`] skip such residue, exactly as after a preemption re-key.
    pub fn remove(&mut self, wf: usize, task: TaskId) -> Option<ReadyEntry> {
        let entry = self.entries.remove(&(wf, task))?;
        if entry.data_ready {
            self.selectable -= 1;
        }
        self.queued_load_mi -= entry.load_mi;
        if self.entries.is_empty() || self.queued_load_mi < 0.0 {
            self.queued_load_mi = 0.0;
        }
        Some(entry)
    }

    /// Drain every queued task (a node departure), in arrival order for determinism.
    pub fn drain(&mut self) -> Vec<ReadyEntry> {
        let mut all: Vec<ReadyEntry> = self.entries.drain().map(|(_, e)| e).collect();
        all.sort_by_key(|e| e.view.enqueued_seq);
        self.ready_heap.clear();
        self.queued_load_mi = 0.0;
        self.selectable = 0;
        all
    }

    /// Called exactly when an entry transitions to data-complete, so `selectable` counts
    /// entries, not heap items.
    fn push_ready(&mut self, entry: &ReadyEntry) {
        self.selectable += 1;
        self.ready_heap.push(Reverse(HeapItem {
            key: entry.key,
            seq: entry.view.enqueued_seq,
            wf: entry.wf,
            task: entry.task,
        }));
    }
}

/// A `(workflow index, task id)` pair identifying one in-flight task.
pub type TaskRef = (usize, TaskId);

/// A running task surrendered by a departing node, with the execution timing the recovery
/// policy needs: the full run length on this node and how much of it had already executed.
/// Multiplying either by the node's per-slot rate converts seconds to MI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LostRun {
    /// Global workflow index.
    pub wf: usize,
    /// Task id within its workflow.
    pub task: TaskId,
    /// Full execution time of the run on this node, seconds.
    pub total_secs: f64,
    /// Execution time already spent when the node died, seconds.
    pub executed_secs: f64,
}

/// A task occupying one of a resource node's execution slots.
#[derive(Debug, Clone, Copy)]
pub struct RunningTask {
    /// Global workflow index.
    pub wf: usize,
    /// Task id within its workflow.
    pub task: TaskId,
    /// Virtual time at which execution completes (if it is not preempted first).
    pub finish_at: SimTime,
    /// Monotonic run generation: each (re-)start of a task gets a fresh id, so a completion
    /// event raced by a preemption of the same task is recognisably stale.
    pub run: u64,
    /// The scheduler's static priority key, kept for preemption comparisons.
    pub key: ReadyKey,
    /// The second-phase attributes, kept so a preempted task can be re-enqueued.
    pub view: ReadyTaskView,
}

/// Runtime state of one peer node.
#[derive(Debug, Clone)]
pub(crate) struct NodeRuntime {
    /// False once the node has churned away.
    pub alive: bool,
    /// True for the non-stable population that may join/leave under churn.
    pub churnable: bool,
    /// Capacity of one execution slot in MIPS (Table I's value).
    pub capacity_mips: f64,
    /// Number of execution slots (the `ResourceModel` seam; paper: 1).
    pub slots: usize,
    /// Incremented every time the node departs; pending events carrying an older epoch are
    /// ignored, which models the loss of everything in flight.
    pub epoch: u64,
    /// Queued tasks (transferring + data-complete).
    pub ready: ReadySet,
    /// Currently executing tasks, at most `slots` of them.
    pub running: Vec<RunningTask>,
    /// The node's locally measured average bandwidth towards its landmarks, Mb/s.
    pub local_avg_bandwidth_mbps: f64,
}

impl NodeRuntime {
    /// The throughput this node advertises through gossip: all slots combined.  With the
    /// paper's single CPU this is exactly the Table I capacity.
    pub fn advertised_capacity_mips(&self) -> f64 {
        self.capacity_mips * self.slots as f64
    }

    /// True when at least one execution slot is free.
    pub fn has_free_slot(&self) -> bool {
        self.running.len() < self.slots
    }

    /// True when the node is alive in the given churn epoch — the guard every in-flight event
    /// (data arrival, task completion) passes before touching node state.  An event carrying an
    /// older epoch raced a departure: everything it refers to was lost with the node.
    pub fn accepts(&self, epoch: u64) -> bool {
        self.alive && self.epoch == epoch
    }

    /// Execution time of `load_mi` on one slot of this node, seconds.
    pub fn execution_secs(&self, load_mi: f64) -> f64 {
        load_mi / self.capacity_mips
    }

    /// The node's current total load in MI (queued work plus the remaining work of every
    /// occupied slot) — `l_r` in the paper, gossiped every cycle.
    pub fn total_load_mi(&self, now: SimTime) -> f64 {
        let mut load = self.ready.queued_load_mi();
        for run in &self.running {
            let remaining_secs = run.finish_at.saturating_duration_since(now).as_secs_f64();
            load += remaining_secs * self.capacity_mips;
        }
        load
    }

    /// Occupy a slot with `entry` starting at `now` under run generation `run`; returns the
    /// completion instant.  Panics if no slot is free (the engine checks
    /// [`NodeRuntime::has_free_slot`] first).
    pub fn start(&mut self, entry: &ReadyEntry, now: SimTime, run: u64) -> SimTime {
        assert!(self.has_free_slot(), "no free execution slot");
        let finish_at = now + p2pgrid_sim::SimDuration::from_secs_f64(entry.view.exec_secs);
        self.running.push(RunningTask {
            wf: entry.wf,
            task: entry.task,
            finish_at,
            run,
            key: entry.key,
            view: entry.view,
        });
        finish_at
    }

    /// Release the slot occupied by `(wf, task)` for run generation `run`.  Returns `false`
    /// when no slot holds that exact run (a stale completion event from before a churn epoch,
    /// or from before the task was preempted and restarted).
    pub fn complete(&mut self, wf: usize, task: TaskId, run: u64) -> bool {
        match self
            .running
            .iter()
            .position(|r| r.wf == wf && r.task == task && r.run == run)
        {
            Some(i) => {
                self.running.remove(i);
                true
            }
            None => false,
        }
    }

    /// Time-sliced preemption: if a ready task with `key` outranks the lowest-priority running
    /// task (*strictly* smaller key; equal keys never preempt, so FCFS — whose key is constant
    /// — degenerates to the non-preemptive behaviour by construction), displace that running
    /// task and return it as a re-enqueueable [`ReadyEntry`] carrying its *remaining* load —
    /// completed work is kept, only the residue is re-queued.  The returned entry still holds
    /// the key the task started with; the engine re-keys it against the updated view before
    /// re-inserting (this type is scheduler-agnostic).  Returns `None` when every slot is
    /// either free, higher-priority, or about to complete at `now`.
    pub fn preempt_lowest_priority(&mut self, key: ReadyKey, now: SimTime) -> Option<ReadyEntry> {
        let (idx, victim) = self
            .running
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                a.key
                    .cmp(&b.key)
                    .then(a.view.enqueued_seq.cmp(&b.view.enqueued_seq))
            })
            .map(|(i, r)| (i, *r))?;
        if key >= victim.key {
            return None;
        }
        let remaining_secs = victim
            .finish_at
            .saturating_duration_since(now)
            .as_secs_f64();
        if remaining_secs <= 0.0 {
            // The victim completes at this very instant; its completion event is already in
            // flight, so displacing it would only redo finished work.
            return None;
        }
        self.running.remove(idx);
        let mut view = victim.view;
        view.exec_secs = remaining_secs;
        Some(ReadyEntry {
            wf: victim.wf,
            task: victim.task,
            load_mi: remaining_secs * self.capacity_mips,
            view,
            key: victim.key,
            data_ready: true,
        })
    }

    /// Cancel one running task (a replica twin whose other copy completed first): free its
    /// slot and return the execution time already spent on it.  The cancelled run's in-flight
    /// completion event finds no matching running entry and goes stale, exactly like after a
    /// preemption; the caller refills the freed slot.
    pub fn cancel_running(&mut self, wf: usize, task: TaskId, now: SimTime) -> Option<f64> {
        let pos = self
            .running
            .iter()
            .position(|r| r.wf == wf && r.task == task)?;
        let r = self.running.remove(pos);
        let remaining = r.finish_at.saturating_duration_since(now).as_secs_f64();
        Some((r.view.exec_secs - remaining).max(0.0))
    }

    /// The node departs at `now`: bump the epoch and surrender everything in flight.  Returns
    /// the queued tasks (which never executed and simply become schedule points again) and the
    /// running tasks with their execution timing (how much of each run was already done —
    /// what the recovery policy needs to book wasted work and checkpoint residues).
    pub fn depart(&mut self, now: SimTime) -> (Vec<TaskRef>, Vec<LostRun>) {
        self.alive = false;
        self.epoch += 1;
        let waiting = self
            .ready
            .drain()
            .into_iter()
            .map(|e| (e.wf, e.task))
            .collect();
        let running = self
            .running
            .drain(..)
            .map(|r| {
                let remaining = r.finish_at.saturating_duration_since(now).as_secs_f64();
                LostRun {
                    wf: r.wf,
                    task: r.task,
                    total_secs: r.view.exec_secs,
                    executed_secs: (r.view.exec_secs - remaining).max(0.0),
                }
            })
            .collect();
        (waiting, running)
    }

    /// The node (re-)joins with empty queues.
    pub fn join(&mut self) {
        self.alive = true;
        self.ready = ReadySet::new();
        self.running.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::SecondPhase;
    use crate::policy::second_phase::ready_key;

    fn entry(wf: usize, ms: f64, rpm: f64, seq: u64, data_ready: bool) -> ReadyEntry {
        let view = ReadyTaskView {
            workflow_ms_secs: ms,
            rpm_secs: rpm,
            exec_secs: 10.0,
            sufferage_secs: 0.0,
            enqueued_seq: seq,
        };
        ReadyEntry {
            wf,
            task: TaskId(0),
            load_mi: 100.0,
            view,
            key: ready_key(SecondPhase::ShortestWorkflowMakespan, &view),
            data_ready,
        }
    }

    #[test]
    fn pop_follows_the_scheduler_key_and_ignores_transferring_tasks() {
        let mut rs = ReadySet::new();
        rs.insert(entry(0, 300.0, 10.0, 0, true));
        rs.insert(entry(1, 100.0, 10.0, 1, true));
        rs.insert(entry(2, 50.0, 10.0, 2, false)); // still transferring
        assert_eq!(rs.len(), 3);
        assert_eq!(rs.queued_load_mi(), 300.0);
        // Workflow 1 has the shortest makespan among data-complete tasks.
        assert_eq!(rs.pop_next().unwrap().wf, 1);
        // Workflow 2 becomes selectable once its data arrives, and wins.
        assert!(rs.mark_data_ready(2, TaskId(0)));
        assert_eq!(rs.pop_next().unwrap().wf, 2);
        assert_eq!(rs.pop_next().unwrap().wf, 0);
        assert!(rs.pop_next().is_none());
        assert!(rs.is_empty());
        assert_eq!(rs.queued_load_mi(), 0.0);
    }

    #[test]
    fn ties_break_by_arrival_order() {
        let mut rs = ReadySet::new();
        rs.insert(entry(7, 100.0, 10.0, 5, true));
        rs.insert(entry(8, 100.0, 10.0, 2, true));
        assert_eq!(
            rs.pop_next().unwrap().wf,
            8,
            "earlier arrival must win ties"
        );
    }

    #[test]
    fn drain_returns_everything_in_arrival_order() {
        let mut rs = ReadySet::new();
        rs.insert(entry(3, 10.0, 1.0, 9, true));
        rs.insert(entry(4, 20.0, 1.0, 1, false));
        let drained = rs.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].wf, 4);
        assert_eq!(drained[1].wf, 3);
        assert!(rs.pop_next().is_none());
        assert_eq!(rs.queued_load_mi(), 0.0);
    }

    #[test]
    fn mark_data_ready_on_unknown_task_reports_false() {
        let mut rs = ReadySet::new();
        assert!(!rs.mark_data_ready(0, TaskId(3)));
    }

    #[test]
    fn remove_cancels_one_entry_and_leaves_only_heap_residue() {
        let mut rs = ReadySet::new();
        rs.insert(entry(0, 300.0, 10.0, 0, true));
        rs.insert(entry(1, 100.0, 10.0, 1, true));
        rs.insert(entry(2, 50.0, 10.0, 2, false)); // still transferring
        assert!(rs.remove(9, TaskId(0)).is_none(), "unknown task");
        let removed = rs.remove(1, TaskId(0)).expect("entry is queued");
        assert_eq!(removed.wf, 1);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.selectable_len(), 1);
        assert_eq!(rs.queued_load_mi(), 200.0);
        // The heap's stale item for workflow 1 must be skipped, not popped.
        assert_eq!(rs.pop_next().unwrap().wf, 0);
        // Removing a not-yet-transferred entry must not touch the selectable count.
        assert!(rs.remove(2, TaskId(0)).is_some());
        assert_eq!(rs.selectable_len(), 0);
        assert!(rs.is_empty());
        assert_eq!(rs.queued_load_mi(), 0.0);
    }

    #[test]
    fn selectable_len_tracks_data_complete_entries_only() {
        let mut rs = ReadySet::new();
        assert_eq!(rs.selectable_len(), 0);
        rs.insert(entry(0, 100.0, 10.0, 0, true));
        rs.insert(entry(1, 200.0, 10.0, 1, false)); // still transferring
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.selectable_len(), 1);
        // Marking data-ready twice must not double count.
        assert!(rs.mark_data_ready(1, TaskId(0)));
        assert!(rs.mark_data_ready(1, TaskId(0)));
        assert_eq!(rs.selectable_len(), 2);
        rs.pop_next();
        assert_eq!(rs.selectable_len(), 1);
        rs.drain();
        assert_eq!(rs.selectable_len(), 0);
    }

    #[test]
    fn node_runtime_slots_and_load_accounting() {
        let mut node = NodeRuntime {
            alive: true,
            churnable: false,
            capacity_mips: 2.0,
            slots: 2,
            epoch: 0,
            ready: ReadySet::new(),
            running: Vec::new(),
            local_avg_bandwidth_mbps: 1.0,
        };
        assert_eq!(node.advertised_capacity_mips(), 4.0);
        assert_eq!(node.execution_secs(100.0), 50.0);
        assert!(node.has_free_slot());

        let e0 = entry(0, 10.0, 1.0, 0, true);
        let e1 = entry(1, 20.0, 1.0, 1, true);
        let now = SimTime::ZERO;
        let f0 = node.start(&e0, now, 0);
        assert!(node.has_free_slot(), "second slot still free");
        node.start(&e1, now, 1);
        assert!(!node.has_free_slot());
        assert_eq!(f0, SimTime::from_secs(10));
        // Remaining work of both slots: 2 tasks × 10 s × 2 MIPS = 40 MI.
        assert_eq!(node.total_load_mi(now), 40.0);

        assert!(node.complete(0, TaskId(0), 0));
        assert!(
            !node.complete(0, TaskId(0), 0),
            "double completion is rejected"
        );
        assert!(node.has_free_slot());

        // Depart 4 s into the remaining run: the lost run reports its elapsed execution.
        let (waiting, running) = node.depart(SimTime::from_secs(4));
        assert!(waiting.is_empty());
        assert_eq!(
            running,
            vec![LostRun {
                wf: 1,
                task: TaskId(0),
                total_secs: 10.0,
                executed_secs: 4.0,
            }]
        );
        assert_eq!(node.epoch, 1);
        node.join();
        assert!(node.alive && node.running.is_empty());
    }

    #[test]
    fn queued_load_never_goes_negative_while_tasks_remain() {
        // Loads whose running f64 sum drifts: after popping some (but not all) entries the
        // incremental total must be clamped at zero, not gossiped as a tiny negative value.
        let mut rs = ReadySet::new();
        for (i, load) in [0.1, 0.7, 0.2].iter().enumerate() {
            let mut e = entry(i, 100.0 + i as f64, 10.0, i as u64, true);
            e.load_mi = *load;
            rs.insert(e);
        }
        while rs.pop_next().is_some() {
            assert!(
                rs.queued_load_mi() >= 0.0,
                "queued load went negative mid-drain: {}",
                rs.queued_load_mi()
            );
        }
        assert_eq!(rs.queued_load_mi(), 0.0);
    }

    #[test]
    fn peek_next_matches_pop_next_without_removing() {
        let mut rs = ReadySet::new();
        assert!(rs.peek_next().is_none());
        rs.insert(entry(0, 300.0, 10.0, 0, true));
        rs.insert(entry(1, 100.0, 10.0, 1, true));
        let peeked = rs.peek_next().unwrap();
        assert_eq!(rs.len(), 2, "peek must not remove entries");
        let popped = rs.pop_next().unwrap();
        assert_eq!(peeked, (popped.key, popped.view.enqueued_seq));
        assert_eq!(popped.wf, 1);
    }

    #[test]
    fn preemption_displaces_the_lowest_priority_running_task() {
        let mut node = NodeRuntime {
            alive: true,
            churnable: false,
            capacity_mips: 2.0,
            slots: 1,
            epoch: 0,
            ready: ReadySet::new(),
            running: Vec::new(),
            local_avg_bandwidth_mbps: 1.0,
        };
        // A long low-priority task (workflow makespan 500) starts at t = 0...
        let mut low = entry(0, 500.0, 10.0, 0, true);
        low.view.exec_secs = 100.0;
        low.load_mi = 200.0;
        node.start(&low, SimTime::ZERO, 0);
        assert!(!node.has_free_slot());

        // ...and at t = 40 a higher-priority arrival (makespan 100) claims the slot.
        let high = entry(1, 100.0, 10.0, 1, true);
        let now = SimTime::from_secs(40);
        let displaced = node
            .preempt_lowest_priority(high.key, now)
            .expect("the running task must be displaced");
        assert!(node.has_free_slot());
        assert_eq!(displaced.wf, 0);
        assert!(displaced.data_ready, "a displaced task needs no transfers");
        // 60 of 100 seconds remain, at 2 MIPS that is 120 MI of residual load.
        assert_eq!(displaced.view.exec_secs, 60.0);
        assert_eq!(displaced.load_mi, 120.0);

        // An equal-priority arrival must NOT preempt (ties keep the running task) — even one
        // with an *earlier* arrival sequence, so constant-key rules like FCFS can never
        // preempt at all.
        node.start(&high, now, 1);
        let equal_later = entry(2, 100.0, 10.0, 2, true);
        assert!(node.preempt_lowest_priority(equal_later.key, now).is_none());
        let equal_earlier = entry(2, 100.0, 10.0, 0, true);
        assert!(node
            .preempt_lowest_priority(equal_earlier.key, now)
            .is_none());
        // Nor may a lower-priority arrival.
        let lower = entry(3, 900.0, 10.0, 3, true);
        assert!(node.preempt_lowest_priority(lower.key, now).is_none());
    }

    #[test]
    fn stale_run_generations_do_not_complete() {
        let mut node = NodeRuntime {
            alive: true,
            churnable: false,
            capacity_mips: 1.0,
            slots: 1,
            epoch: 0,
            ready: ReadySet::new(),
            running: Vec::new(),
            local_avg_bandwidth_mbps: 1.0,
        };
        let e = entry(0, 100.0, 10.0, 0, true);
        node.start(&e, SimTime::ZERO, 7);
        assert!(
            !node.complete(0, TaskId(0), 6),
            "a completion event from a previous run generation is stale"
        );
        assert!(node.complete(0, TaskId(0), 7));
    }
}
