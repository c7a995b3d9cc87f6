// Known-bad: buffer prefetch / batched reads issued while a mutex guard
// is lexically live. Never compiled — scanned by the lint fixture test.

pub fn bad_prefetch_under_lock(&self) {
    let st = self.queue.lock();
    let pages = snapshot(&st);
    self.tree.prefetch_pages(&pages);
    drop(st);
}

pub fn bad_read_pages_in_lock_block(&self) {
    let pages = {
        let guard = self.state.lock();
        let mut reqs = gather(&guard);
        self.backend.read_pages(&mut reqs);
        collect(reqs)
    };
    consume(pages);
}

pub fn good_snapshot_then_prefetch(&self) {
    let pages = {
        let st = self.queue.lock();
        snapshot(&st)
    };
    self.tree.prefetch_pages(&pages);
}

pub fn good_explicit_drop(&self) {
    let st = self.queue.lock();
    let pages = snapshot(&st);
    drop(st);
    self.pool.prefetch(&pages);
}

pub fn bad_read_ahead_helper_under_queue_lock(&self, shared: &ScanQueue) {
    let mut st = shared.state.lock();
    let batch = plan_window(&mut st.ahead, claimed, &st.tasks);
    self.read_ahead(&batch);
}
