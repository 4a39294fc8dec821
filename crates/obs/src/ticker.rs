//! The background loop both [`Monitor::run`](crate::Monitor::run) and
//! `bw-fleet`'s `FleetController::run` spawn: call a closure, wait one
//! interval, repeat. The wait is a `recv_timeout` on a stop channel, so
//! stopping (or dropping) the handle wakes it at once instead of after
//! up to a whole interval.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// A running background loop. Stop it with [`Ticker::stop`]; dropping
/// the handle also stops it.
pub struct Ticker {
    stop: Sender<()>,
    join: Option<JoinHandle<()>>,
}

impl Ticker {
    /// Spawns thread `name`, which calls `tick` at once and then every
    /// `interval` until the handle is stopped.
    pub fn spawn(
        name: &str,
        interval: Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> Ticker {
        let (stop, stopped) = mpsc::channel::<()>();
        let join = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                tick();
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    tick();
                }
            })
            .expect("background loop thread spawns");
        Ticker {
            stop,
            join: Some(join),
        }
    }

    /// Stops the loop and joins its thread. A tick in progress finishes
    /// first; the wait after it does not.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        // Ends the loop's wait; fails only if the thread already exited.
        let _ = self.stop.send(());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        self.shutdown();
    }
}
