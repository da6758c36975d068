//! `mvq_serve` — the long-lived synthesis service.
//!
//! The one-shot CLI pays `expand_to_cost` on every invocation; this
//! crate turns the warm [`mvq_core::SynthesisEngine`] into a resident
//! process whose accumulated search state is an asset shared across
//! queries and — via `mvq_core` snapshots — across restarts. Three
//! layers:
//!
//! 1. **Engine host** ([`EngineHost`], [`HostRegistry`]): one warm
//!    engine per cost model behind a readers-writer cache manager.
//!    Already-expanded queries run concurrently as readers; cache
//!    misses funnel through a single-flight expansion path, so N
//!    concurrent requests needing the same level pay for one expansion.
//!    Per-query cost-bound admission keeps deep queries from starving
//!    shallow ones, and a per-query [`mvq_core::Strategy`]
//!    lets deep targets meet in the middle on the read side instead of
//!    deepening the shared forward levels.
//! 2. **Snapshots** (in `mvq_core`): the service cold-starts warm by
//!    loading a level-cache snapshot, and can be pointed at the same
//!    file the one-shot CLI (`mvq census --snapshot …`) maintains.
//! 3. **Transport** ([`Server`]): a hand-rolled HTTP/1.1 server over
//!    `std::net` (the environment is offline; no external deps) with a
//!    small JSON schema — `/synthesize`, `/census`, `/healthz`,
//!    `/stats`, `/shutdown`, plus the observability endpoints
//!    `/metrics` (Prometheus text) and `/debug/slow` — sequential
//!    keep-alive, a worker pool, and graceful shutdown. Each request
//!    emits one structured trace line (see [`ServeObs`]).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mvq_serve::{HostConfig, HostRegistry, Server};
//!
//! let registry = Arc::new(HostRegistry::new(HostConfig {
//!     threads: 1,
//!     ..HostConfig::default()
//! }));
//! let server = Server::bind("127.0.0.1:0", registry).unwrap();
//! let handle = server.handle().unwrap();
//! let runner = std::thread::spawn(move || server.run(2));
//! // … issue HTTP requests against handle.addr() …
//! handle.shutdown();
//! runner.join().unwrap().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;
mod http;
mod json;
mod obs;
mod server;

pub use host::{
    CensusReply, EngineHost, HostConfig, HostError, HostRegistry, HostStats, HostWidth, ServeTrace,
};
pub use http::{read_request, write_response, Request};
pub use json::{CensusRequest, ModelSpec, SynthesizeReply, SynthesizeRequest};
/// The serving strategy under its earlier name; new code names
/// [`mvq_core::Strategy`].
pub use mvq_core::Strategy as ServeStrategy;
pub use obs::ServeObs;
pub use server::{Server, ServerHandle};
