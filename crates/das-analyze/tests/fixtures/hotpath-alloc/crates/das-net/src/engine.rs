//! Seeded hot-path allocation defects: a byte-copy in the job
//! runner (DA801) and a payload byte-copy sink (DA804), both
//! reachable from the shard poll loop — plus an unbounded wire-sized
//! allocation, which is `taint`'s to report (DA501).

fn shard_loop(q: &Queues) {
    while let Some(job) = q.pop() {
        run_job(job);
    }
}

fn run_job(job: Job) {
    // The classic regression: materializing the strip payload.
    let payload = job.payload.to_vec();
    handle(job.hdr, payload);
}

fn handle(hdr: [u8; 4], payload: Vec<u8>) {
    let n = u32::from_le_bytes(hdr) as usize;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(&payload);
    submit(out);
}

fn submit(_out: Vec<u8>) {}

fn cold_admin_tool(snapshot: &Snapshot) -> Vec<u8> {
    // Unreachable from the poll loop: copying here is fine.
    snapshot.payload.to_vec()
}
