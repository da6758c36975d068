//! The sanctioned shapes: ascending acquisition (also after a condvar
//! wait), conditional guards that die with their body, drop glue run
//! with nothing held, and reasoned suppressions.

pub struct Host {
    // lint: lock-order(registry < engine < flight)
    registry: Mutex<Tables>,
    engine: RwLock<Engine>,
    flight: Mutex<Flight>,
    landed: Condvar,
}

impl Host {
    /// Ascending order: `registry`, then `engine` — fine.
    pub fn ordered(&self) {
        let r = self.registry.lock();
        let e = self.engine.write();
        drop(e);
        drop(r);
    }

    /// The engine guard lives only inside the `if let` body, so the
    /// registry acquisition in `heal` happens with nothing held.
    pub fn read_or_heal(&self) {
        if let Ok(g) = self.engine.read() {
            let _ = g;
            return;
        }
        self.heal();
    }

    fn heal(&self) {
        let r = self.registry.lock();
        drop(r);
    }

    /// The wait hands the registry guard back; the engine lock above
    /// it is still taken in ascending order.
    pub fn read_after_wait(&self, dur: Duration) {
        let r = self.registry.lock();
        let (r, _timeout) = self.landed.wait_timeout(r, dur);
        let e = self.engine.read();
        drop(e);
        drop(r);
    }

    /// The flight guard dies with its block; the reset's drop glue
    /// re-takes `flight` at the closing brace, with nothing held.
    pub fn reset_after_flight(&self) {
        let reset = FlightReset(self);
        {
            let f = self.flight.lock();
            drop(f);
        }
    }

    /// A vetted inversion, suppressed at the acquisition site.
    pub fn pinned(&self) {
        let f = self.flight.lock();
        // lint: allow(lock_order) startup-only path, runs before any other thread exists
        let e = self.engine.write();
        drop(e);
        drop(f);
    }

    /// Serve request path reaching a helper whose panic is pinned at
    /// the site.
    pub fn handle(&self) -> u32 {
        safe_value()
    }

    /// Serve request path whose *call edge* carries the suppression —
    /// the helper itself has no annotation.
    pub fn audited(&self) -> u32 {
        // lint: allow(panic) helper is vetted: its input is a compile-time constant
        vetted()
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
