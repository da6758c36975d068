//! Fixture: a search-core module fanning work out to threads.
//! Seeded violation: `thread::scope` outside the serve accept loop (the
//! search core is serial).

pub fn run_sharded(shards: usize) -> usize {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards).map(|i| scope.spawn(move || i)).collect();
        handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
    })
}
