//! In-process loopback fleets: boot N real `dasd` daemons on
//! ephemeral ports inside this process, so `das bench` needs no
//! external orchestration.

use std::io;
use std::net::TcpListener;

use das_net::{spawn, DasCluster, DasdConfig, DasdHandle, NetError};

/// A running loopback fleet. Shut it down with [`Fleet::shutdown`];
/// dropping without shutdown leaves the daemon threads running until
/// process exit.
pub struct Fleet {
    /// Listen address of every daemon, by server id.
    pub addrs: Vec<String>,
    pub(crate) handles: Vec<DasdHandle>,
}

/// Bind `servers` ephemeral loopback ports and spawn one daemon per
/// port, each with a `pool`-sized worker pool.
/// `max_backlog` overrides the daemons' admission-control bound
/// (`None` keeps the default) — small bounds turn a past-capacity run
/// into a reproducible overload/shedding scenario.
pub fn spawn_fleet(servers: usize, pool: usize, max_backlog: Option<usize>) -> io::Result<Fleet> {
    let mut listeners = Vec::with_capacity(servers);
    let mut addrs = Vec::with_capacity(servers);
    for _ in 0..servers {
        let l = TcpListener::bind("127.0.0.1:0")?;
        addrs.push(l.local_addr()?.to_string());
        listeners.push(l);
    }
    let mut handles = Vec::with_capacity(servers);
    for (i, l) in listeners.into_iter().enumerate() {
        let mut cfg = DasdConfig { pool, ..DasdConfig::new(i as u32, addrs.clone()) };
        if let Some(b) = max_backlog {
            cfg = cfg.with_max_backlog(b);
        }
        handles.push(spawn(cfg, l)?);
    }
    Ok(Fleet { addrs, handles })
}

impl Fleet {
    /// Stop every daemon: a protocol `Shutdown` to each, then join
    /// their threads.
    pub fn shutdown(self) -> Result<(), NetError> {
        let mut cluster = DasCluster::connect(&self.addrs)?;
        cluster.shutdown_all()?;
        drop(cluster);
        for h in self.handles {
            h.join();
        }
        Ok(())
    }
}
