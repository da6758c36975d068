//! Integration-test host crate (tests live in `tests/`), plus the one
//! loopback serve harness the HTTP suites share: [`RunningServer`] boots
//! the real `mvq_serve` server on an ephemeral port, [`request`] speaks
//! raw HTTP/1.1 to it, and every found `/synthesize` reply is parsed
//! back from its rendered circuit and re-verified against the requested
//! permutation through `mvq_sim`'s exact unitary.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use mvq_core::known::parse_target_on;
use mvq_core::Circuit;
use mvq_serve::{HostRegistry, ServeObs, Server, ServerHandle};

/// A live server on a loopback port, shut down (and joined) on drop.
pub struct RunningServer {
    handle: ServerHandle,
    obs: Arc<ServeObs>,
    runner: Option<JoinHandle<std::io::Result<()>>>,
}

impl RunningServer {
    /// Binds `registry` on `127.0.0.1:0` and runs it on `workers`
    /// worker threads.
    pub fn start(registry: HostRegistry, workers: usize) -> Self {
        let server = Server::bind("127.0.0.1:0", Arc::new(registry)).expect("bind loopback");
        let handle = server.handle().expect("handle");
        let obs = server.obs();
        let runner = std::thread::spawn(move || server.run(workers));
        Self {
            handle,
            obs,
            runner: Some(runner),
        }
    }

    /// The bound loopback address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// The server's observability surface (trace log, metrics).
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// One request over its own connection (see [`request`]).
    pub fn request(&self, method: &str, path: &str, body: &str) -> (u16, String, String) {
        request(self.addr(), method, path, body)
    }

    /// Stops the server and joins its run loop, which must exit cleanly.
    pub fn shutdown(self) {
        self.handle.shutdown();
        self.join();
    }

    /// Joins the run loop (after something else stopped it, like a
    /// `/shutdown` request), which must exit cleanly.
    pub fn join(mut self) {
        self.runner
            .take()
            .expect("still running")
            .join()
            .expect("server thread")
            .expect("server run");
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        if let Some(runner) = self.runner.take() {
            self.handle.shutdown();
            let _ = runner.join();
        }
    }
}

/// One HTTP/1.1 request to `addr` over its own connection. Returns the
/// status, the response head (status line and headers) and the body. A
/// found `/synthesize` answer is re-verified against the request
/// ([`assert_realizes_request`]) before it is returned.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("receive");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad response: {response}"));
    let (head, reply) = response.split_once("\r\n\r\n").unwrap_or((&response, ""));
    if path == "/synthesize" && status == 200 && reply.contains("\"found\":true") {
        assert_realizes_request(body, reply);
    }
    (status, head.to_string(), reply.to_string())
}

/// The string value of `"key":"…"` in a flat JSON object (neither the
/// service's replies nor these tests' requests escape quotes in values).
fn json_str<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let start = json.find(&format!("\"{key}\":\""))? + key.len() + 4;
    json[start..].split('"').next()
}

/// Re-verifies a found `/synthesize` reply against physics: its
/// rendered circuit parses back, on the request's register, and its
/// exact unitary (`mvq_sim`) is the requested permutation.
pub fn assert_realizes_request(request: &str, reply: &str) {
    let wires = if request.contains("\"wires\":4") {
        4
    } else {
        3
    };
    let target = json_str(request, "target").expect("request names a target");
    let target = parse_target_on(target, 1 << wires).expect("served target parses");
    let rendered = json_str(reply, "circuit").expect("found reply carries a circuit");
    let parsed: Circuit = rendered
        .parse()
        .unwrap_or_else(|err| panic!("served circuit `{rendered}` does not parse: {err}"));
    let circuit = Circuit::new(wires, parsed.gates().to_vec());
    assert_eq!(circuit.to_string(), rendered, "render → parse round trip");
    assert!(
        circuit.verify_against_binary_perm(&target),
        "served circuit `{rendered}` does not realize {target} on {wires} wires"
    );
}

/// In-memory trace sink, shared with a server's trace log.
#[derive(Clone, Default)]
pub struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("sink").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedSink {
    /// The trace lines written so far.
    pub fn lines(&self) -> Vec<String> {
        String::from_utf8(self.0.lock().expect("sink").clone())
            .expect("trace lines are UTF-8")
            .lines()
            .map(str::to_string)
            .collect()
    }
}
