//! Seeded lock-order inversions, one per shape the pass tracks: a
//! flight guard held across a call chain that takes the engine lock,
//! guards that outlive the branch they were moved or dropped in, a
//! guard handed back by a condvar wait, and drop glue that re-takes a
//! held lock.

pub struct Host {
    // lint: lock-order(registry < engine < flight)
    registry: Mutex<Tables>,
    engine: RwLock<Engine>,
    flight: Mutex<Flight>,
    landed: Condvar,
}

impl Host {
    /// BAD: holds `flight` while the callee takes `engine`.
    pub fn flight_op(&self) {
        let f = self.flight.lock();
        self.touch_engine();
        drop(f);
    }

    fn touch_engine(&self) {
        let e = self.engine.write();
        drop(e);
    }

    /// Serve request path: reaches a panicking core helper.
    pub fn handle(&self) -> u32 {
        boom()
    }

    /// BAD: the guard moved into a call in the returning branch is
    /// still held after the branch.
    pub fn moved_in_branch(&self, early: bool) {
        let f = self.flight.lock();
        if early {
            release(f);
            return;
        }
        let e = self.engine.read();
        drop(e);
    }

    /// BAD: the same, with the guard dropped in the branch.
    pub fn dropped_in_branch(&self, early: bool) {
        let f = self.flight.lock();
        if early {
            drop(f);
            return;
        }
        let e = self.engine.read();
        drop(e);
    }

    /// BAD: the wait hands the flight guard back, and the engine lock
    /// is taken under it.
    pub fn read_after_wait(&self, dur: Duration) {
        let f = self.flight.lock();
        let (f, _timeout) = self.landed.wait_timeout(f, dur);
        let e = self.engine.read();
        drop(e);
        drop(f);
    }

    /// BAD: the reset's drop glue re-takes `flight` while it is held.
    pub fn reset_under_flight(&self) {
        let reset = FlightReset(self);
        let f = self.flight.lock();
        drop(reset);
        drop(f);
    }
}

/// Clears the flight state however the expansion exits.
struct FlightReset<'a>(&'a Host);

impl Drop for FlightReset<'_> {
    fn drop(&mut self) {
        let f = self.0.flight.lock();
        drop(f);
    }
}

fn release<T>(guard: T) {
    drop(guard);
}
