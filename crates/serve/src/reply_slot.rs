//! The one-shot reply slot every per-request answer inside the server
//! travels through: a worker's attempt completion, a worker's control
//! ack, and a coalesced TCP request's outcome.
//!
//! A slot is one `Arc` holding `Waiting | Sent(T) | Closed` under one
//! mutex and condvar. [`Fill`] is the writing half and [`ReplySlot`]
//! the reading half. The filler writes at most once, either the value
//! ([`Fill::fill`]) or, when it is dropped unfilled, `Closed`, which the
//! reader sees as [`Unfilled::Disconnected`]: that is how a killed
//! worker's dropped queue, a refused dispatch and a shut-down loop read.
//! A fill after the reader has gone is a no-op.
//!
//! The filler locks once and signals the condvar only when the reader is
//! parked on it, so a reply that beats the wait costs no wake-up. A slot
//! is one allocation; a `std::sync::mpsc` channel carrying the same one
//! message allocates its shared state and then, on the first send, a
//! whole block of message slots.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Why a read found no value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Unfilled {
    /// The filler has not filled the slot yet and the wait timed out.
    Timeout,
    /// The filler was dropped without filling, or the value was already
    /// taken.
    Disconnected,
}

enum State<T> {
    Waiting,
    Sent(T),
    Closed,
}

struct Inner<T> {
    state: State<T>,
    /// The reader is blocked on the condvar.
    parked: bool,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

/// The writing half of a reply slot.
pub(crate) struct Fill<T> {
    /// `None` once the slot is settled, so the drop settles nothing.
    shared: Option<Arc<Shared<T>>>,
}

/// The reading half of a reply slot.
pub(crate) struct ReplySlot<T> {
    shared: Arc<Shared<T>>,
}

/// A fresh, waiting slot.
pub(crate) fn reply_slot<T>() -> (Fill<T>, ReplySlot<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            state: State::Waiting,
            parked: false,
        }),
        ready: Condvar::new(),
    });
    (
        Fill {
            shared: Some(Arc::clone(&shared)),
        },
        ReplySlot { shared },
    )
}

impl<T> Fill<T> {
    /// Hands `value` to the reader; a no-op when the reader has gone.
    pub(crate) fn fill(mut self, value: T) {
        self.settle(State::Sent(value));
    }

    fn settle(&mut self, to: State<T>) {
        let Some(shared) = self.shared.take() else {
            return;
        };
        let mut inner = shared.inner.lock().unwrap();
        inner.state = to;
        let parked = inner.parked;
        drop(inner);
        if parked {
            shared.ready.notify_one();
        }
    }
}

impl<T> Drop for Fill<T> {
    fn drop(&mut self) {
        self.settle(State::Closed);
    }
}

impl<T> ReplySlot<T> {
    /// Takes the value if the slot is filled or closed, without waiting:
    /// [`Unfilled::Timeout`] means not yet.
    pub(crate) fn try_take(&self) -> Result<T, Unfilled> {
        take(&mut self.shared.inner.lock().unwrap().state)
    }

    /// Blocks until the slot is filled or closed.
    pub(crate) fn wait(&self) -> Result<T, Unfilled> {
        self.wait_until(None)
    }

    /// Blocks until the slot is filled or closed, or `deadline` passes;
    /// `None` waits without a bound. Only a reader that must park with a
    /// bound reads the clock.
    pub(crate) fn wait_until(&self, deadline: Option<Instant>) -> Result<T, Unfilled> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            match take(&mut inner.state) {
                Err(Unfilled::Timeout) => {}
                outcome => return outcome,
            }
            let left = match deadline {
                None => None,
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return Err(Unfilled::Timeout),
                },
            };
            inner.parked = true;
            inner = match left {
                None => self.shared.ready.wait(inner).unwrap(),
                Some(left) => self.shared.ready.wait_timeout(inner, left).unwrap().0,
            };
            inner.parked = false;
        }
    }
}

/// Moves a sent value out, leaving the slot closed.
fn take<T>(state: &mut State<T>) -> Result<T, Unfilled> {
    match std::mem::replace(state, State::Closed) {
        State::Sent(value) => Ok(value),
        State::Closed => Err(Unfilled::Disconnected),
        State::Waiting => {
            *state = State::Waiting;
            Err(Unfilled::Timeout)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// Long enough that a reader left parked fails the test rather than
    /// reading its outcome by luck.
    const BOUND: Duration = Duration::from_secs(30);

    fn bound() -> Option<Instant> {
        Some(Instant::now() + BOUND)
    }

    /// Runs `then` on another thread once the reader is parked on the
    /// condvar, so the wake-up is what the test checks.
    fn after_the_reader_parks<T: Send + 'static>(
        fill: Fill<T>,
        then: impl FnOnce(Fill<T>) + Send + 'static,
    ) -> JoinHandle<()> {
        std::thread::spawn(move || {
            let shared = Arc::clone(fill.shared.as_ref().expect("an unsettled filler"));
            while !shared.inner.lock().unwrap().parked {
                std::thread::yield_now();
            }
            then(fill);
        })
    }

    #[test]
    fn fill_then_wait() {
        let (fill, slot) = reply_slot();
        fill.fill(7);
        assert_eq!(slot.wait(), Ok(7));
        // One-shot: the value is gone and the filler with it.
        assert_eq!(slot.try_take(), Err(Unfilled::Disconnected));
    }

    #[test]
    fn wait_then_fill_from_another_thread() {
        let (fill, slot) = reply_slot();
        let filler = after_the_reader_parks(fill, |fill| fill.fill("done"));
        let start = Instant::now();
        assert_eq!(slot.wait_until(bound()), Ok("done"));
        assert!(start.elapsed() < BOUND / 2, "the fill woke the reader");
        filler.join().unwrap();
    }

    #[test]
    fn a_late_fill_still_reads_after_a_timeout() {
        let (fill, slot) = reply_slot();
        assert_eq!(slot.try_take(), Err(Unfilled::Timeout));
        let soon = Instant::now() + Duration::from_millis(5);
        assert_eq!(slot.wait_until(Some(soon)), Err(Unfilled::Timeout));
        fill.fill(3);
        assert_eq!(slot.wait_until(bound()), Ok(3));
    }

    #[test]
    fn a_filler_dropped_unfilled_reads_disconnected() {
        let (fill, slot) = reply_slot::<u32>();
        drop(fill);
        assert_eq!(slot.try_take(), Err(Unfilled::Disconnected));
        assert_eq!(slot.wait(), Err(Unfilled::Disconnected));
        // A parked reader is woken by the drop, not left to its timeout.
        let (fill, slot) = reply_slot::<u32>();
        let dropper = after_the_reader_parks(fill, drop);
        let start = Instant::now();
        assert_eq!(slot.wait_until(bound()), Err(Unfilled::Disconnected));
        assert!(start.elapsed() < BOUND / 2, "the drop woke the reader");
        dropper.join().unwrap();
    }

    #[test]
    fn a_fill_after_the_reader_dropped_is_a_no_op() {
        let (fill, slot) = reply_slot();
        drop(slot);
        let value = Arc::new(());
        fill.fill(Arc::clone(&value));
        // The value went down with the slot; nothing else holds it.
        assert_eq!(Arc::strong_count(&value), 1);
    }
}
