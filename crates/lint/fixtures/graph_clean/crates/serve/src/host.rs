//! The sanctioned shapes: ascending acquisition (also after a condvar
//! wait), conditional guards that die with their body, a guard that is
//! a temporary in a call argument, drop glue run with nothing held,
//! reasoned suppressions, and calls whose callee the graph types exactly
//! (through a generic parameter, or a binding wrapped in `Arc::new`).

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

    /// The engine guard is a temporary inside the call's argument: it
    /// drops at the `;`, not with `answer`, so the registry lock `heal`
    /// takes next is acquired with nothing held.
    pub fn read_into_call(&self) -> Result<u32, Poisoned> {
        let answer = measure(&*self.engine_guard()?);
        self.heal();
        Ok(answer)
    }

    /// Hands the engine read guard to the caller.
    fn engine_guard(&self) -> Result<RwLockReadGuard<'_, Engine>, Poisoned> {
        self.engine.read()
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

    /// `W::table()` names the generic parameter's method, not the free
    /// `table` helper whose unwrap no serve path reaches.
    pub fn width_table<W: Width>(&self) -> u32 {
        W::table()
    }

    /// Takes the registry lock.
    pub fn touch(&self) {
        let r = self.registry.lock();
        drop(r);
    }

    /// Holding the engine, touches a fresh `Arc`-wrapped `Inner`: the
    /// binding is typed through `Arc::new`, so the call is
    /// `Inner::touch` (no lock), not `Host::touch` (below `engine`).
    pub fn touch_inner(&self) {
        let e = self.engine.read();
        let inner = Arc::new(Inner::new());
        inner.touch();
        drop(e);
    }

    /// Serve request path whose *call edge* carries the suppression —
    /// the helper itself has no annotation.
    pub fn audited(&self) -> u32 {
        // lint: allow(panic) helper is vetted: its input is a compile-time constant
        vetted()
    }
}

/// Reads an engine without taking any lock.
fn measure(engine: &Engine) -> u32 {
    let _ = engine;
    0
}

/// Clears the flight state however the expansion exits.
struct FlightReset<'a>(&'a Host);

impl Drop for FlightReset<'_> {
    fn drop(&mut self) {
        let f = self.0.flight.lock();
        drop(f);
    }
}

/// A per-width constant, read through a generic parameter.
pub trait Width {
    fn table() -> u32;
}

pub struct Narrow;

impl Width for Narrow {
    fn table() -> u32 {
        3
    }
}

/// Shares its method name with the lock-taking `Host::touch`.
pub struct Inner {
    hits: u32,
}

impl Inner {
    pub fn new() -> Self {
        Inner { hits: 0 }
    }

    pub fn touch(&self) {
        let _ = self.hits;
    }
}
