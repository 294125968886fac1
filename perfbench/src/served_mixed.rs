//! `served_mixed`: an in-process `qzserved` daemon on loopback under a
//! closed loop of client connections.
//!
//! The daemon runs `DaemonConfig::default()` (cycle engine). Each of
//! [`CONNECTIONS`] connections, made with the shipped `Client::connect`,
//! is one tenant and sends its next request only after the previous
//! one's `done` frame: a seeded 3:1 mix of align requests (8 `100bp_1`
//! pairs, WFA at QUETZAL+C) and fault requests (16 consecutive
//! `FaultPlan` cases of the sweep's default seed). The seed draws the
//! pairs and the order of the mix; the fault requests of a connection
//! always cover the same window of sweep cases (the first
//! `FAULT_REQUESTS * FAULT_CASES` cases for connection 0, the next for
//! connection 1), so the hostile work per pass does not change with
//! the seed. Latency is timed from `submit` to the `done` frame.
//!
//! Gate: every response's item and `done` frames must be byte-identical
//! to an offline `job::execute` of the same job, computed after the
//! measured region.

use crate::common::{self, BestTimes, Ctx};
use crate::report::Outcome;
use crate::trace;
use quetzal::uarch::RunStats;
use quetzal::verify::{verify_with, VerifyConfig};
use quetzal::{BatchRunner, ExecMode, FaultPlan, Machine, MachineConfig, MachinePool};
use quetzal_algos::Tier;
use quetzal_bench::workloads::{try_simulate_pair_outcome, Algo, Workload};
use quetzal_genomics::dataset::DatasetSpec;
use quetzal_genomics::rng::SplitMix64;
use quetzal_served::job::{self, Budgets, JobSpec};
use quetzal_served::protocol::{render_report, Request, Response};
use quetzal_served::{Client, Daemon, DaemonConfig, SubmitOutcome};
use quetzal_trace::json::Value;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections (one tenant each).
const CONNECTIONS: usize = 2;
/// Distinct requests per connection, cycled in order: 3 align : 1 fault.
const ALIGN_REQUESTS: usize = 48;
const FAULT_REQUESTS: usize = 16;
/// Distinct operations (requests) a run times.
pub const DISTINCT_OPS: usize = CONNECTIONS * (ALIGN_REQUESTS + FAULT_REQUESTS);
/// Pairs per align request.
const ALIGN_PAIRS: usize = 8;
/// Consecutive cases per fault request.
const FAULT_CASES: u64 = 16;
/// The fault-injection sweep's default seed.
const FAULT_SEED: u64 = 0xF4417;

fn tenant(c: usize) -> String {
    format!("t{c}")
}

fn align_job(pairs: Vec<quetzal_genomics::dataset::SeqPair>, threshold: u32) -> JobSpec {
    JobSpec::Align {
        algo: Algo::Wfa,
        tier: Tier::QuetzalC,
        alphabet: quetzal_genomics::Alphabet::Dna,
        ss_threshold: threshold,
        budgets: Budgets::default(),
        pairs,
    }
}

/// The distinct requests of connection `c`, in sending order.
fn requests(seed: u64, c: usize, threshold: u32) -> Vec<JobSpec> {
    let salt = seed ^ (0xC0_11EC7 + c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut rng = SplitMix64::new(salt);
    let mut kinds: Vec<bool> = (0..ALIGN_REQUESTS + FAULT_REQUESTS)
        .map(|i| i < FAULT_REQUESTS)
        .collect();
    for i in (1..kinds.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        kinds.swap(i, j);
    }
    let spec = DatasetSpec::d100();
    let mut pairs = spec.pair_stream(salt);
    let mut next_case = (c * FAULT_REQUESTS) as u64 * FAULT_CASES;
    kinds
        .into_iter()
        .map(|fault| {
            if fault {
                let start = next_case;
                next_case += FAULT_CASES;
                JobSpec::Fault {
                    seed: FAULT_SEED,
                    cases: (start..start + FAULT_CASES).collect(),
                }
            } else {
                align_job(pairs.by_ref().take(ALIGN_PAIRS).collect(), threshold)
            }
        })
        .collect()
}

/// A running daemon with its open client connections.
struct Served {
    addr: String,
    clients: Vec<Client<TcpStream>>,
    daemon: Option<JoinHandle<std::io::Result<()>>>,
}

impl Served {
    fn start(warm: &JobSpec) -> Served {
        let daemon =
            Daemon::bind("127.0.0.1:0", DaemonConfig::default()).expect("binding the daemon");
        let addr = daemon.local_addr().expect("daemon address").to_string();
        let handle = std::thread::spawn(move || daemon.run());
        let mut clients = Vec::with_capacity(CONNECTIONS);
        for c in 0..CONNECTIONS {
            let mut client = Client::connect(&addr).expect("connecting to the daemon");
            match client.submit(&tenant(c), warm) {
                Ok(SubmitOutcome::Report(_)) => {}
                other => panic!("warm-up request failed: {other:?}"),
            }
            clients.push(client);
        }
        Served {
            addr,
            clients,
            daemon: Some(handle),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.shutdown();
        }
        self.clients.clear();
        if let Some(handle) = self.daemon.take() {
            let _ = handle.join();
        }
    }
}

/// What one connection saw in the measured region.
#[derive(Default)]
struct ConnLog {
    /// (distinct request index, latency ms, rendered report or `None`
    /// if the request got no report).
    responses: Vec<(usize, f64, Option<String>)>,
    frames: u64,
    bytes: u64,
    instructions: u64,
    items: [u64; 4],
}

fn frame_bytes(v: &Value) -> u64 {
    4 + v.dump().len() as u64
}

/// Peak RSS once every connection has sent each of its distinct
/// requests once. Quarantined machines stay resident in the daemon, so
/// its memory grows with the requests served; reading the peak after a
/// fixed amount of work keeps the figure independent of throughput.
#[derive(Default)]
struct FirstPass {
    done: AtomicUsize,
    peak_rss_mb: Mutex<f64>,
}

fn conn_loop(
    c: usize,
    client: &mut Client<TcpStream>,
    list: &[JobSpec],
    deadline: Instant,
    first_pass: &FirstPass,
) -> ConnLog {
    let tenant = tenant(c);
    let request_bytes: Vec<u64> = list
        .iter()
        .map(|job| {
            frame_bytes(
                &Request::Submit {
                    tenant: tenant.clone(),
                    job: job.clone(),
                }
                .to_value(),
            )
        })
        .collect();
    let mut log = ConnLog::default();
    let _root = trace::enter("bench.conn", 0);
    let mut k = 0usize;
    // Every distinct request is sent at least once.
    while Instant::now() < deadline || k < list.len() {
        let idx = k % list.len();
        let req = ((c as u64 + 1) << 32) | (k as u64 + 1);
        let span = trace::enter("served.request", req);
        let t0 = Instant::now();
        let outcome = client.submit(&tenant, &list[idx]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        drop(span);
        log.frames += 1;
        log.bytes += request_bytes[idx];
        let report = match outcome {
            Ok(SubmitOutcome::Report(frames)) => {
                for f in &frames {
                    log.frames += 1;
                    log.bytes += frame_bytes(&f.to_value());
                    match f {
                        Response::Item { .. } => log.items[0] += 1,
                        Response::ItemFailed { cause, .. } => match *cause {
                            "rejected" => log.items[1] += 1,
                            "panic" => log.items[3] += 1,
                            _ => log.items[2] += 1,
                        },
                        Response::Done(summary) => log.instructions += summary.instructions,
                        _ => {}
                    }
                }
                Some(render_report(&frames))
            }
            other => {
                eprintln!("qzperf: connection {c} request {k}: {other:?}");
                None
            }
        };
        log.responses.push((idx, ms, report));
        k += 1;
        if k == list.len() && first_pass.done.fetch_add(1, Ordering::SeqCst) + 1 == CONNECTIONS {
            *first_pass
                .peak_rss_mb
                .lock()
                .unwrap_or_else(|e| e.into_inner()) = common::peak_rss_mb();
        }
    }
    log
}

fn stats_u64(v: &Value, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(v, |cur, key| cur.get(key))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Fetches the daemon's stats once `completed` jobs have been recorded
/// (a job is tallied just after its `done` frame is written).
fn settled_stats(client: &mut Client<TcpStream>, completed: u64) -> Value {
    for _ in 0..400 {
        let v = client.stats().expect("stats frame");
        if stats_u64(&v, &["jobs", "completed"]) >= completed {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon never tallied {completed} completed jobs");
}

fn pool_totals(v: &Value) -> (u64, u64) {
    (0..CONNECTIONS).fold((0, 0), |(b, q), c| {
        let t = tenant(c);
        (
            b + stats_u64(v, &["tenants", &t, "built"]),
            q + stats_u64(v, &["tenants", &t, "quarantined"]),
        )
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let threshold = Workload {
        spec: DatasetSpec::d100(),
        pairs: Vec::new(),
    }
    .ss_threshold();
    let lists: Vec<Vec<JobSpec>> = (0..CONNECTIONS)
        .map(|c| requests(ctx.seed, c, threshold))
        .collect();
    let warm = align_job(
        DatasetSpec::d100().generate_n(common::WARM_SEED, 1),
        threshold,
    );

    let (setup_s, mut served) = common::timed_setup(ctx, || Served::start(&warm));
    if ctx.setup_only {
        out.values.insert("setup_s", setup_s);
        return out;
    }
    let before = settled_stats(&mut served.clients[0], CONNECTIONS as u64);

    trace::set_counting(true);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let first_pass = &FirstPass::default();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = served
            .clients
            .iter_mut()
            .zip(&lists)
            .enumerate()
            .map(|(c, (client, list))| {
                s.spawn(move || conn_loop(c, client, list, deadline, first_pass))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    trace::set_counting(false);
    let peak = *first_pass
        .peak_rss_mb
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let requests_sent: u64 = logs.iter().map(|l| l.responses.len() as u64).sum();
    let after = settled_stats(
        &mut served.clients[0],
        stats_u64(&before, &["jobs", "completed"]) + requests_sent,
    );
    drop(served);

    // Gate: offline references for every distinct request sent.
    let runner = BatchRunner::new(1);
    let ref_pool = MachinePool::new(&MachineConfig::default(), ExecMode::Cycle);
    let chunk = DaemonConfig::default().chunk;
    let mut sent_counts: Vec<Vec<u64>> = lists.iter().map(|l| vec![0; l.len()]).collect();
    for (c, log) in logs.iter().enumerate() {
        let mut references: Vec<Option<String>> = vec![None; lists[c].len()];
        for (idx, _, report) in &log.responses {
            sent_counts[c][*idx] += 1;
            let want = references[*idx].get_or_insert_with(|| {
                let mut frames = Vec::new();
                job::execute(&runner, &ref_pool, &lists[c][*idx], chunk, &mut |f| {
                    frames.push(f)
                });
                render_report(&frames)
            });
            out.attempted += 1;
            if report.as_deref() != Some(want.as_str()) {
                out.failed += 1;
            }
        }
    }
    if out.failed > 0 {
        out.problem(format!(
            "{} of {} served responses differ from offline job::execute",
            out.failed, out.attempted
        ));
    }

    // Closed-loop throughput over the whole region; latency at each
    // distinct request's best repeat.
    out.ops_per_s = requests_sent as f64 / wall_s;
    let best = BestTimes::new(DISTINCT_OPS);
    for (c, log) in logs.iter().enumerate() {
        for &(idx, ms, _) in &log.responses {
            best.record(c * lists[0].len() + idx, ms);
        }
    }
    let latency_sum_s: f64 = logs
        .iter()
        .flat_map(|l| l.responses.iter().map(|r| r.1 * 1e-3))
        .sum();
    if !ctx.trace {
        let instructions: u64 = logs.iter().map(|l| l.instructions).sum();
        let sim_mips = instructions as f64 / wall_s / 1e6;
        common::end_to_end(&mut out, setup_s, sim_mips, &best.take(), peak);
        return out;
    }

    common::span_metrics(&mut out, wall_s * CONNECTIONS as f64);
    let busy_s = (stats_u64(&after, &["totals", "busy_micros"])
        - stats_u64(&before, &["totals", "busy_micros"])) as f64
        * 1e-6;
    out.values.insert("served.busy_s", busy_s);
    out.values.insert("served.wait_s", latency_sum_s - busy_s);
    let sum = |f: &dyn Fn(&ConnLog) -> u64| logs.iter().map(f).sum::<u64>() as f64;
    out.values.insert("served.frames", sum(&|l| l.frames));
    out.values.insert("served.bytes", sum(&|l| l.bytes));
    for (i, name) in [
        "served.items_ok",
        "served.items_rejected",
        "served.items_failed_sim",
        "served.items_failed_panic",
    ]
    .into_iter()
    .enumerate()
    {
        out.values.insert(name, sum(&|l| l.items[i]));
    }
    let ((built0, quar0), (built1, quar1)) = (pool_totals(&before), pool_totals(&after));
    out.values.insert("pool.built", (built1 - built0) as f64);
    out.values
        .insert("pool.quarantined", quar1.saturating_sub(quar0) as f64);

    // Admission cost: staging plus verification of every fault case
    // sent, replayed outside the daemon (once per distinct request,
    // weighted by how often it was sent).
    let config = MachineConfig::default();
    let vconfig = VerifyConfig {
        latencies: quetzal::class_latencies(&config.core),
        ..VerifyConfig::default()
    };
    let mut scratch = Machine::new(config);
    let (mut admit_s, mut programs) = (0.0, 0u64);
    // Exact simulated counts over one pass of the distinct align
    // requests, replayed on the cycle engine.
    let mut sim = RunStats::default();
    for (list, counts) in lists.iter().zip(&sent_counts) {
        for (spec, &n) in list.iter().zip(counts) {
            match spec {
                JobSpec::Fault { seed, cases } if n > 0 => {
                    let plan = FaultPlan::new(*seed);
                    let t0 = Instant::now();
                    for &case in cases {
                        scratch.reset();
                        let (program, _) = plan.stage(case, &mut scratch);
                        std::hint::black_box(verify_with(&program, &vconfig));
                    }
                    admit_s += t0.elapsed().as_secs_f64() * n as f64;
                    programs += cases.len() as u64 * n;
                }
                JobSpec::Align {
                    alphabet, pairs, ..
                } => {
                    let report = runner
                        .run_machines_report_pooled(&ref_pool, pairs, |m, _, p| {
                            try_simulate_pair_outcome(
                                m,
                                Algo::Wfa,
                                *alphabet,
                                threshold,
                                p,
                                Tier::QuetzalC,
                            )
                            .map(|o| o.stats)
                        })
                        .expect("align replay");
                    for stats in report.results.iter().flatten() {
                        sim.merge(stats);
                    }
                }
                _ => {}
            }
        }
    }
    out.values.insert("verify.admit_s", admit_s);
    out.values.insert("verify.programs", programs as f64);
    common::sim_counts(&mut out, &sim);
    out
}
