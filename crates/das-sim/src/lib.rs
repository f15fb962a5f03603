//! # das-sim — deterministic discrete-event cluster simulator
//!
//! This crate is the timing substrate of the `das` workspace, the
//! reproduction of *"Dynamic Active Storage for High Performance I/O"*
//! (Chen & Chen, ICPP 2012). The paper evaluated on a 60-node Lustre
//! cluster; this crate replaces that hardware with a deterministic
//! discrete-event simulation of the quantities the paper's results
//! actually depend on:
//!
//! * **where bytes move** — disk-local reads/writes, server↔server
//!   transfers (dependence traffic), and server↔client transfers
//!   (normal I/O), each accounted separately;
//! * **resource contention** — every node has CPU, NIC and disk
//!   [`Resource`]s with finite capacity, so a storage server that must
//!   simultaneously compute offloaded kernels *and* serve neighbor
//!   requests (the effect Section IV-B.1 of the paper attributes NAS's
//!   slowdown to) is serialized exactly as on real hardware;
//! * **parallel structure** — work is described as a DAG of
//!   [`OpSpec`]s; the engine performs greedy list scheduling with
//!   all-or-nothing resource acquisition, which is deterministic and
//!   deadlock-free (no hold-and-wait).
//!
//! The simulator is purely logical: no threads, no wall-clock time, no
//! randomness. Identical inputs produce identical [`SimReport`]s.
//!
//! ## Example
//!
//! ```
//! use das_sim::{Simulator, OpSpec, OpKind, SimDuration};
//!
//! let mut sim = Simulator::new();
//! let disk = sim.add_resource("disk0", 1);
//! let nic = sim.add_resource("nic0", 1);
//!
//! // Read 1 MiB from disk, then ship it over the NIC.
//! let read = sim.add_op(
//!     OpSpec::new(OpKind::DiskRead { node: 0, bytes: 1 << 20 })
//!         .duration(SimDuration::from_micros(500))
//!         .uses(disk),
//! );
//! let send = sim.add_op(
//!     OpSpec::new(OpKind::NetTransfer { src: 0, dst: 1, bytes: 1 << 20 })
//!         .duration(SimDuration::from_micros(1_000))
//!         .uses(nic)
//!         .after(read),
//! );
//! let report = sim.run().unwrap();
//! assert_eq!(report.makespan, SimDuration::from_micros(1_500));
//! assert_eq!(report.bytes.net_total(), 1 << 20);
//! let _ = send;
//! ```

#![warn(clippy::print_stdout, clippy::print_stderr)]

mod engine;
mod op;
mod rates;
mod report;
mod resource;
mod time;
mod trace;

pub use engine::{SimError, Simulator};
pub use op::{OpId, OpKind, OpSpec, TransferClass};
pub use rates::LinkRate;
pub use report::{ByteCounters, ResourceUsage, SimReport};
pub use resource::{Resource, ResourceId};
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceLog};
