//! # das-net — the networked active-storage service
//!
//! Everything else in this workspace exercises the DAS architecture
//! *in process*: `das-pfs` strips live in one address space and the
//! "network" is a simulator. This crate puts the same architecture on
//! real sockets, the deployment shape of the paper's prototype (an
//! active-storage service embedded in the storage servers of a
//! parallel file system):
//!
//! * [`server`] — the **`dasd`** daemon, one per storage server. It
//!   stores that server's strips (reusing [`das_pfs::StorageServer`]),
//!   answers the client data plane, and executes offloaded kernels,
//!   fetching dependent strips from peer daemons exactly as the
//!   in-process NAS/DAS schemes (and the bandwidth predictor) model.
//! * [`client`] — the **`das`** client library: striped gather/scatter
//!   reads and writes, the redistribution driver, and
//!   [`client::run_net_scheme`] running the paper's TS / NAS / DAS
//!   evaluation schemes end-to-end over TCP.
//! * [`proto`] + [`codec`] — the versioned, length-prefixed binary
//!   protocol (documented in `docs/PROTOCOL.md`), hand-rolled over
//!   `std::net` with zero external dependencies.
//! * [`fault`] + [`retry`] — deterministic fault injection for `dasd`
//!   and the shared retry/timeout/backoff policy that lets both sides
//!   of the wire survive it: replica failover on reads, tolerant
//!   replicated writes, and graceful DAS → NAS → normal-I/O scheme
//!   degradation (see `docs/PROTOCOL.md`, "Failure semantics").
//!
//! Both binaries — `dasd` and `das` — are thin CLI wrappers over
//! these modules.
//!
//! Every daemon counts actual wire bytes per connection class
//! (client↔server vs server↔server), so integration tests can check
//! the *measured* traffic of each scheme against the analytic
//! predictions of `das-core` — the strongest end-to-end validation of
//! the paper's bandwidth model this repo has.

// Every byte this crate handles comes off a socket: a panic takes the
// daemon down for every client, so errors are returned typed.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![warn(clippy::print_stdout, clippy::print_stderr)]

pub mod client;
pub mod codec;
mod conn;
pub mod engine;
pub mod fault;
pub mod hedge;
pub mod peer;
pub mod proto;
pub mod retry;
pub mod server;

pub use client::{
    run_net_scheme, run_net_scheme_opts, DasCluster, ExecSummary, NetRunReport, NetScheme,
};
pub use codec::{
    encode_frame_opts, frame_parts_opts, read_frame_ex, write_frame_vectored, write_message_opts, CountingStream, Frame, FrameBuffer, FrameParts, NetError, FLAG_CRC, FLAG_DEADLINE, FLAG_TRACE,
    KNOWN_FLAGS,
};
pub use fault::{FaultAction, FaultClass, FaultPlan, FaultPoint, FaultRule};
pub use hedge::{Ewma, LoadTracker};
pub use proto::{
    ErrorCode, Message, Role, WireStats, KNOWN_OPCODES, LOCAL_CAPS, MAX_PAYLOAD, VERSION,
};
pub use retry::RetryPolicy;
pub use server::{spawn, ConnClass, DasdConfig, DasdHandle};
