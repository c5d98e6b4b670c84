//! Token handoff: one goroutine's run-token mailbox.
//!
//! Every scheduling decision hands the run token from one goroutine
//! thread to another through a [`Parker`]: the successor waits on a
//! condvar, and the granting thread flips a mutex-guarded state word
//! and notifies it. Handoff order is decided by the scheduler under its
//! lock, never by the parker, so the parker only has to guarantee that
//! a grant (or shutdown) is never lost, whether it lands before or
//! after the consumer starts waiting.
//!
//! The waiter never spins: a spinning waiter burns the CPU the granting
//! thread needs, which measured about 8x more CPU per iteration end to
//! end on a 2-vCPU host (DESIGN.md §13).

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// The run token was granted to the parked goroutine.
const GRANTED: u32 = 1;
/// The runtime is shutting down; the parked goroutine must unwind.
const SHUTDOWN: u32 = 2;

/// One goroutine's token mailbox: exactly one thread parks on it, and
/// per park cycle exactly one producer grants (the scheduler's token
/// discipline guarantees both).
pub struct Parker {
    state: Mutex<u32>,
    cv: Condvar,
}

impl Parker {
    /// A fresh parker with nothing pending.
    pub fn new() -> Arc<Parker> {
        Arc::new(Parker { state: Mutex::new(0), cv: Condvar::new() })
    }

    /// Wait for the run token. `Err(())` means the runtime is shutting
    /// down and the goroutine must unwind.
    // Err carries no information beyond "shutdown" by design; a
    // dedicated error type would just restate the doc above.
    #[allow(clippy::result_unit_err)]
    pub fn park(&self) -> Result<(), ()> {
        let mut st = self.state.lock();
        loop {
            // Shutdown wins over a grant that lands in the same cycle.
            if *st & SHUTDOWN != 0 {
                return Err(());
            }
            if *st & GRANTED != 0 {
                *st &= !GRANTED;
                return Ok(());
            }
            self.cv.wait(&mut st);
        }
    }

    /// Grant the run token to the parked goroutine.
    pub fn grant(&self) {
        self.signal(GRANTED);
    }

    /// Wake the goroutine for runtime shutdown; its `park` returns
    /// `Err(())`.
    pub fn shutdown(&self) {
        self.signal(SHUTDOWN);
    }

    fn signal(&self, bit: u32) {
        *self.state.lock() |= bit;
        self.cv.notify_one();
    }
}

impl std::fmt::Debug for Parker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Parker").field("state", &*self.state.lock()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn grant_before_park_is_consumed_immediately() {
        let p = Parker::new();
        p.grant();
        assert_eq!(p.park(), Ok(()));
    }

    #[test]
    fn shutdown_wins_over_grant() {
        let p = Parker::new();
        p.grant();
        p.shutdown();
        assert_eq!(p.park(), Err(()));
    }

    #[test]
    fn delayed_grant_wakes_a_parked_thread() {
        let p = Parker::new();
        let q = Arc::clone(&p);
        let h = std::thread::spawn(move || q.park());
        std::thread::sleep(Duration::from_millis(20));
        p.grant();
        assert_eq!(h.join().unwrap(), Ok(()));
    }

    #[test]
    fn delayed_shutdown_wakes_a_parked_thread() {
        let p = Parker::new();
        let q = Arc::clone(&p);
        let h = std::thread::spawn(move || q.park());
        std::thread::sleep(Duration::from_millis(5));
        p.shutdown();
        assert_eq!(h.join().unwrap(), Err(()));
    }
}
