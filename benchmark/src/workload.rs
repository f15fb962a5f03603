//! The five workloads: what set-up ingests, what one op calls, and what
//! makes its output correct. Everything here reaches the system through
//! the public functions of `das-net`, `das-pfs`, `das-kernels` and
//! `das-core` only.

use std::net::TcpListener;
use std::time::Instant;

use das_core::StripingParams;
use das_kernels::{kernel_by_name, workload::fbm_dem};
use das_net::{
    run_net_scheme_opts, spawn, DasCluster, DasdConfig, DasdHandle, NetError, NetRunReport,
    NetScheme,
};
use das_pfs::{LayoutPolicy, StripeSpec};
use das_runtime::DegradeEvent;

use crate::place;
use crate::span::Tracer;

/// Daemons in the loopback fleet.
pub const DAEMONS: usize = 4;
/// Request workers per daemon (beside its shard and accept threads).
pub const POOL: usize = 4;
/// Closed-loop client lanes: every client call in this codebase walks
/// strips and servers serially, so one lane keeps a core busy and a
/// second one would measure the scheduler.
pub const LANES: usize = 1;

/// File workloads: 2 MiB in 64 KiB strips = 32 strip RPCs per op.
pub const FILE_LEN: usize = 2 << 20;
pub const FILE_STRIP: u32 = 64 << 10;
/// Scheme workloads: a 1536 × 48 f32 raster = 288 KiB in 4 KiB strips =
/// 72 strips, 18 per daemon. A row is a strip and a half, so an
/// 8-neighbour stencil reaches the two strips before and the two after
/// every strip, none of which round-robin puts on the same daemon: NAS
/// pays 4 fetches per strip, and the grouped+replicated layout DAS adopts
/// (one boundary strip copied each way) still leaves it a few. With
/// whole rows per strip every strip would need only its two neighbours,
/// and NAS would move less than TS.
pub const RASTER_WIDTH: u64 = 1536;
pub const RASTER_HEIGHT: u64 = 48;
pub const RASTER_STRIP: u32 = 4 << 10;
pub const KERNEL: &str = "flow-routing";
pub const OUT_NAME: &str = "dem.out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FileRead,
    FileWrite,
    Scheme(NetScheme),
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "file-read" => Kind::FileRead,
            "file-write" => Kind::FileWrite,
            "scheme-ts" => Kind::Scheme(NetScheme::Ts),
            "scheme-nas" => Kind::Scheme(NetScheme::Nas),
            "scheme-das" => Kind::Scheme(NetScheme::Das),
            _ => return None,
        })
    }

    /// Strip size of the workload's input file.
    pub fn strip_size(self) -> u32 {
        if matches!(self, Kind::Scheme(_)) {
            RASTER_STRIP
        } else {
            FILE_STRIP
        }
    }

    /// Whether ops of this workload run the kernel on the servers.
    pub fn offloads(self) -> bool {
        matches!(self, Kind::Scheme(NetScheme::Nas | NetScheme::Das))
    }
}

/// Everything `--seed` decides: the raster and the write payloads. The
/// program under test only ever sees these bytes.
pub struct Inputs {
    /// The input file's bytes (raster or first payload).
    pub data: Vec<u8>,
    /// The second payload `file-write` alternates with.
    pub alt: Vec<u8>,
    /// Fingerprint of `kernel.apply` on the in-process raster: what
    /// every scheme's output must hash to.
    pub reference: u64,
    /// `predict_nas_fetches(..).bytes` on the round-robin layout.
    pub predicted_nas_bytes: u64,
}

/// SplitMix64: seeded payload bytes without a dependency.
fn payload(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
    }
    out.truncate(len);
    out
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        match kind {
            Kind::FileRead | Kind::FileWrite => Inputs {
                data: payload(seed, FILE_LEN),
                alt: payload(seed ^ 0xA5A5_5A5A_A5A5_5A5A, FILE_LEN),
                reference: 0,
                predicted_nas_bytes: 0,
            },
            Kind::Scheme(_) => {
                let dem = fbm_dem(RASTER_WIDTH, RASTER_HEIGHT, seed);
                let kernel = kernel_by_name(KERNEL).expect("built-in kernel");
                let data = dem.to_bytes();
                let round_robin = StripingParams {
                    element_size: 4,
                    strip_size: u64::from(RASTER_STRIP),
                    layout: das_pfs::Layout::new(LayoutPolicy::RoundRobin, DAEMONS as u32),
                };
                let predicted = round_robin.predict_nas_fetches(
                    &kernel.dependence_offsets(RASTER_WIDTH),
                    data.len() as u64,
                );
                Inputs {
                    reference: kernel.apply(&dem).fingerprint(),
                    predicted_nas_bytes: predicted.bytes,
                    data,
                    alt: Vec::new(),
                }
            }
        }
    }
}

/// Milliseconds each part of one set-up took.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Bind, spawn the daemons, connect and greet.
    pub boot_ms: f64,
    /// `create_file` + `put_file` of the input.
    pub ingest_ms: f64,
    /// Read the input back and compare.
    pub verify_ms: f64,
    /// `scheme-das` only: the first run, which redistributes.
    pub first_run_ms: f64,
}

/// What one op did, beyond its latency.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpOutcome {
    /// Completed, output verified, no degradation.
    pub ok: bool,
    /// Scheme ops: client↔server + server↔server wire bytes of the run.
    pub wire_bytes: u64,
    /// Offloaded ops: dependence fetches and their payload bytes, summed
    /// over servers.
    pub dep_fetches: u64,
    pub dep_fetch_bytes: u64,
    /// Reads a hedge answered from a replica (healthy-fleet noise, not a
    /// failure; see README).
    pub hedge_failovers: u64,
    /// Seconds spent inside the timed public call.
    pub latency_s: f64,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Events that mean the healthy fleet did not behave as one. A hedged
/// read that a replica won is the tail-tolerant read path working, and
/// is counted apart.
fn split_events(events: &[DegradeEvent]) -> (u64, u64) {
    let hedged = events
        .iter()
        .filter(|e| matches!(e, DegradeEvent::ReplicaFailover { .. }))
        .count();
    (hedged as u64, (events.len() - hedged) as u64)
}

/// A booted, ingested and verified fleet with one client lane.
pub struct Bench {
    pub kind: Kind,
    pub addrs: Vec<String>,
    handles: Vec<DasdHandle>,
    pub cluster: DasCluster,
    /// The input file.
    pub file: u32,
    /// `file-write`: whether the last payload written was `inputs.alt`.
    wrote_alt: bool,
}

impl Bench {
    /// One full set-up: boot the fleet (daemon `i` on `cpus[i mod n]`, the
    /// calling client lane on `cpus[0]`), connect, ingest, verify and, on
    /// `scheme-das`, make the first (redistributing) run.
    pub fn setup(
        kind: Kind,
        inputs: &Inputs,
        cpus: &[usize],
    ) -> Result<(Bench, SetupTimes), NetError> {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let listeners: Vec<TcpListener> = (0..DAEMONS)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<Result<_, _>>()?;
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().map(|a| a.to_string()))
            .collect::<Result<_, _>>()?;
        let mut handles = Vec::with_capacity(DAEMONS);
        for (id, listener) in listeners.into_iter().enumerate() {
            let cfg = DasdConfig {
                pool: POOL,
                ..DasdConfig::new(id as u32, addrs.clone())
            };
            // A daemon's threads inherit the placement of the thread
            // that spawns them.
            place::run_on(&[cpus[id % cpus.len()]]).map_err(NetError::Protocol)?;
            handles.push(spawn(cfg, listener)?);
        }
        place::run_on(&cpus[..1]).map_err(NetError::Protocol)?;
        let mut cluster = DasCluster::connect(&addrs)?;
        times.boot_ms = ms_since(t);

        let t = Instant::now();
        let file = cluster.create_file(
            "input",
            inputs.data.len() as u64,
            kind.strip_size(),
            LayoutPolicy::RoundRobin,
        )?;
        cluster.put_file(file, &inputs.data)?;
        times.ingest_ms = ms_since(t);

        let t = Instant::now();
        if cluster.read_file(file)? != inputs.data {
            return Err(NetError::Protocol(
                "ingested file reads back different".into(),
            ));
        }
        times.verify_ms = ms_since(t);

        let mut bench = Bench {
            kind,
            addrs,
            handles,
            cluster,
            file,
            wrote_alt: false,
        };
        if kind == Kind::Scheme(NetScheme::Das) {
            let t = Instant::now();
            let report = bench.scheme_run(NetScheme::Das)?;
            if !report.layout.replicates() || report.redistribution_bytes == 0 {
                return Err(NetError::Protocol(format!(
                    "first DAS run adopted {:?} and moved {} B; expected a redistribution",
                    report.layout, report.redistribution_bytes
                )));
            }
            times.first_run_ms = ms_since(t);
        }
        Ok((bench, times))
    }

    fn scheme_run(&mut self, scheme: NetScheme) -> Result<NetRunReport, NetError> {
        run_net_scheme_opts(
            &mut self.cluster,
            scheme,
            self.file,
            OUT_NAME,
            KERNEL,
            RASTER_WIDTH,
            true,
        )
    }

    /// One op: the timed public call inside a span, then the output
    /// check outside the timed interval.
    pub fn op(&mut self, inputs: &Inputs, tracer: &mut Tracer) -> OpOutcome {
        match self.kind {
            Kind::FileRead => {
                let t = Instant::now();
                let got = tracer.span("das-net::client.read_file", |_| {
                    self.cluster.read_file(self.file)
                });
                let latency_s = t.elapsed().as_secs_f64();
                let (hedge_failovers, degraded) = split_events(&self.cluster.take_events());
                let ok = tracer.span("harness.verify", |_| got.is_ok_and(|b| b == inputs.data));
                OpOutcome {
                    ok: ok && degraded == 0,
                    hedge_failovers,
                    latency_s,
                    ..Default::default()
                }
            }
            Kind::FileWrite => {
                self.wrote_alt = !self.wrote_alt;
                let data = if self.wrote_alt {
                    &inputs.alt
                } else {
                    &inputs.data
                };
                let t = Instant::now();
                let put = tracer.span("das-net::client.put_file", |_| {
                    self.cluster.put_file(self.file, data)
                });
                let latency_s = t.elapsed().as_secs_f64();
                let (hedge_failovers, degraded) = split_events(&self.cluster.take_events());
                OpOutcome {
                    ok: put.is_ok() && degraded == 0,
                    hedge_failovers,
                    latency_s,
                    ..Default::default()
                }
            }
            Kind::Scheme(scheme) => {
                let t = Instant::now();
                let run = tracer.span("das-net::client.run_net_scheme_opts", |_| {
                    self.scheme_run(scheme)
                });
                let latency_s = t.elapsed().as_secs_f64();
                let Ok(report) = run else {
                    return OpOutcome {
                        latency_s,
                        ..Default::default()
                    };
                };
                tracer.span("harness.verify", |_| {
                    let (hedge_failovers, degraded) = split_events(&report.degradations);
                    let dep_fetches = report.exec.iter().map(|e| e.dep_fetches).sum();
                    let dep_fetch_bytes: u64 = report.exec.iter().map(|e| e.dep_fetch_bytes).sum();
                    let nas_exact =
                        scheme != NetScheme::Nas || dep_fetch_bytes == inputs.predicted_nas_bytes;
                    OpOutcome {
                        ok: report.output_fingerprint == inputs.reference
                            && report.offloaded == self.kind.offloads()
                            && nas_exact
                            && degraded == 0,
                        wire_bytes: report.client_bytes + report.server_bytes,
                        dep_fetches,
                        dep_fetch_bytes,
                        hedge_failovers,
                        latency_s,
                    }
                })
            }
        }
    }

    /// After the window: `file-write` must read back the last payload it
    /// wrote; every other workload must still read its input.
    pub fn final_check(&mut self, inputs: &Inputs) -> bool {
        let want = if self.wrote_alt {
            &inputs.alt
        } else {
            &inputs.data
        };
        self.cluster
            .read_file(self.file)
            .is_ok_and(|got| &got == want)
    }

    /// Strips the input file has (gets one `read_file` of it issues).
    pub fn input_strips(&self, inputs: &Inputs) -> u64 {
        StripeSpec::new(self.kind.strip_size() as usize).strip_count(inputs.data.len() as u64)
    }

    /// Stop every daemon and wait until its threads have ended. The
    /// handles' own flag needs no round trip, so a daemon the client lost
    /// cannot leave `join` waiting.
    pub fn teardown(self) {
        drop(self.cluster);
        for h in &self.handles {
            h.shutdown();
        }
        for h in self.handles {
            h.join();
        }
    }
}
