//! A hand-rolled single-threaded async executor on a **virtual clock** —
//! the ingest layer's reactor, with the same determinism story as the
//! serving scheduler.
//!
//! Tasks are plain `Future`s; the only event source is the timer wheel, so
//! a run is a discrete-event simulation: the executor drains every
//! runnable task, then jumps the clock to the earliest registered timer
//! and wakes it. Ready tasks run in FIFO wake order and equal-deadline
//! timers fire in registration order, so the interleaving of any set of
//! tasks is a pure function of the program — never of the host, the OS
//! scheduler, or wall-clock time.
//!
//! There is no I/O driver on purpose: "the network" is the [`SimLink`]
//! byte-schedule model (`sim` module), which turns sends into future
//! delivery *times*; sleeping until a delivery time **is** the socket
//! read. That keeps the whole front door replayable bit-for-bit.
//!
//! [`SimLink`]: crate::sim::SimLink

use std::cell::RefCell;
use std::collections::{BinaryHeap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// One registered timer: wake `waker` once the clock reaches `at_s`.
/// Ordered as a min-heap on `(at_s, seq)` — ties fire in registration
/// order, which is what pins the interleaving.
struct Timer {
    at_s: f64,
    seq: u64,
    waker: Waker,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.at_s.to_bits() == other.at_s.to_bits() && self.seq == other.seq
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest timer.
        other
            .at_s
            .total_cmp(&self.at_s)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Clock + timer wheel, shared between the executor and every [`Sleep`].
struct Inner {
    now_s: f64,
    timers: BinaryHeap<Timer>,
    timer_seq: u64,
}

impl Inner {
    fn register(&mut self, at_s: f64, waker: Waker) {
        let seq = self.timer_seq;
        self.timer_seq += 1;
        self.timers.push(Timer { at_s, seq, waker });
    }
}

/// The wake queue: task ids in FIFO wake order. Wakers must be
/// `Send + Sync` by API contract, so this one piece sits behind a mutex
/// even though the executor never leaves its thread.
struct ReadyQueue {
    queue: Mutex<VecDeque<usize>>,
}

struct TaskWaker {
    id: usize,
    ready: Arc<ReadyQueue>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.ready
            .queue
            .lock()
            .expect("reactor wake queue")
            .push_back(self.id);
    }
}

/// A cloneable handle onto the reactor's clock: read [`now_s`](Handle::now_s)
/// and construct [`Sleep`] futures. Handles are cheap `Rc` clones; tasks
/// capture one each.
#[derive(Clone)]
pub struct Handle {
    inner: Rc<RefCell<Inner>>,
}

impl Handle {
    /// Current virtual time in seconds.
    pub fn now_s(&self) -> f64 {
        self.inner.borrow().now_s
    }

    /// Completes once the virtual clock reaches `at_s` (immediately if it
    /// already has).
    pub fn sleep_until(&self, at_s: f64) -> Sleep {
        Sleep {
            inner: Rc::clone(&self.inner),
            at_s,
        }
    }

    /// Completes `dt_s` virtual seconds from now.
    pub fn sleep(&self, dt_s: f64) -> Sleep {
        self.sleep_until(self.now_s() + dt_s)
    }
}

/// Future returned by [`Handle::sleep_until`] / [`Handle::sleep`].
pub struct Sleep {
    inner: Rc<RefCell<Inner>>,
    at_s: f64,
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.inner.borrow_mut();
        if inner.now_s >= self.at_s {
            Poll::Ready(())
        } else {
            // A sleeping task is only ever woken by its own timer, so one
            // registration per poll is one registration total.
            inner.register(self.at_s, cx.waker().clone());
            Poll::Pending
        }
    }
}

/// One spawned task and the waker it keeps for its whole life, so polling
/// and sleeping allocate nothing.
struct Task {
    future: Pin<Box<dyn Future<Output = ()>>>,
    waker: Waker,
}

/// The virtual-time executor. Spawn tasks, then [`run`](Executor::run) the
/// simulation to quiescence.
pub struct Executor {
    inner: Rc<RefCell<Inner>>,
    ready: Arc<ReadyQueue>,
    tasks: Vec<Option<Task>>,
}

impl Executor {
    /// An empty executor with the clock at `0.0`.
    pub fn new() -> Self {
        Executor {
            inner: Rc::new(RefCell::new(Inner {
                now_s: 0.0,
                timers: BinaryHeap::new(),
                timer_seq: 0,
            })),
            ready: Arc::new(ReadyQueue {
                queue: Mutex::new(VecDeque::new()),
            }),
            tasks: Vec::new(),
        }
    }

    /// A handle onto the executor's clock, for tasks to capture.
    pub fn handle(&self) -> Handle {
        Handle {
            inner: Rc::clone(&self.inner),
        }
    }

    /// Adds a task; tasks first run in spawn order.
    pub fn spawn(&mut self, fut: impl Future<Output = ()> + 'static) {
        let id = self.tasks.len();
        let waker = Waker::from(Arc::new(TaskWaker {
            id,
            ready: Arc::clone(&self.ready),
        }));
        self.tasks.push(Some(Task {
            future: Box::pin(fut),
            waker,
        }));
        self.ready
            .queue
            .lock()
            .expect("reactor wake queue")
            .push_back(id);
    }

    fn pop_ready(&self) -> Option<usize> {
        self.ready
            .queue
            .lock()
            .expect("reactor wake queue")
            .pop_front()
    }

    /// Runs the simulation until every task completed (or stalled with no
    /// timer to wake it — a deadlock, which for the ingest workloads
    /// cannot happen: every await is a sleep). Returns the final virtual
    /// time.
    pub fn run(&mut self) -> f64 {
        loop {
            while let Some(id) = self.pop_ready() {
                let Some(task) = self.tasks[id].as_mut() else {
                    continue; // stale wake of a finished task
                };
                let mut cx = Context::from_waker(&task.waker);
                if task.future.as_mut().poll(&mut cx).is_ready() {
                    self.tasks[id] = None;
                }
            }
            // Quiescent: jump the clock to the earliest timer and wake it.
            // Equal-deadline timers wake one per pass, in registration
            // order, each getting a full drain — FIFO either way.
            let next = self.inner.borrow_mut().timers.pop();
            match next {
                Some(t) => {
                    let mut inner = self.inner.borrow_mut();
                    debug_assert!(t.at_s >= inner.now_s, "timer in the past");
                    inner.now_s = inner.now_s.max(t.at_s);
                    drop(inner);
                    t.waker.wake();
                }
                None => break,
            }
        }
        self.inner.borrow().now_s
    }
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_cell() -> Rc<RefCell<Vec<(f64, &'static str)>>> {
        Rc::new(RefCell::new(Vec::new()))
    }

    #[test]
    fn sleeps_interleave_in_time_order() {
        let mut ex = Executor::new();
        let h = ex.handle();
        let log = log_cell();
        let (l1, l2) = (Rc::clone(&log), Rc::clone(&log));
        let (h1, h2) = (h.clone(), h.clone());
        ex.spawn(async move {
            h1.sleep_until(1.0).await;
            l1.borrow_mut().push((h1.now_s(), "a1"));
            h1.sleep_until(3.0).await;
            l1.borrow_mut().push((h1.now_s(), "a3"));
        });
        ex.spawn(async move {
            h2.sleep_until(2.0).await;
            l2.borrow_mut().push((h2.now_s(), "b2"));
        });
        let end = ex.run();
        assert_eq!(end, 3.0);
        assert_eq!(
            *log.borrow(),
            vec![(1.0, "a1"), (2.0, "b2"), (3.0, "a3")],
            "tasks must interleave purely by deadline"
        );
    }

    #[test]
    fn equal_deadlines_fire_in_registration_order() {
        let mut ex = Executor::new();
        let h = ex.handle();
        let log = log_cell();
        for name in ["first", "second", "third"] {
            let (h, log) = (h.clone(), Rc::clone(&log));
            ex.spawn(async move {
                h.sleep_until(1.0).await;
                log.borrow_mut().push((h.now_s(), name));
            });
        }
        ex.run();
        let names: Vec<&str> = log.borrow().iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["first", "second", "third"]);
    }

    #[test]
    fn past_deadlines_complete_without_moving_the_clock_back() {
        let mut ex = Executor::new();
        let h = ex.handle();
        let log = log_cell();
        let l = Rc::clone(&log);
        let hh = h.clone();
        ex.spawn(async move {
            hh.sleep_until(5.0).await;
            hh.sleep_until(2.0).await; // already past: immediate
            l.borrow_mut().push((hh.now_s(), "done"));
        });
        assert_eq!(ex.run(), 5.0);
        assert_eq!(*log.borrow(), vec![(5.0, "done")]);
    }

    #[test]
    fn run_is_reproducible() {
        let drive = || {
            let mut ex = Executor::new();
            let h = ex.handle();
            let log = log_cell();
            for i in 0..5usize {
                let (h, log) = (h.clone(), Rc::clone(&log));
                ex.spawn(async move {
                    for k in 0..3usize {
                        h.sleep((i as f64 + 1.0) * 0.1 + k as f64 * 0.07).await;
                        log.borrow_mut()
                            .push((h.now_s(), ["t0", "t1", "t2", "t3", "t4"][i]));
                    }
                });
            }
            ex.run();
            let events = log.borrow().clone();
            events
        };
        assert_eq!(drive(), drive());
    }
}
