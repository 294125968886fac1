//! Integration tests for `qzserved`, the alignment-as-a-service daemon.
//!
//! Covers the service-layer acceptance criteria end to end over real
//! loopback TCP:
//!
//! * served batches are **byte-identical** to offline `BatchRunner`
//!   runs, at 1 and 4 worker threads, including the order of typed
//!   failure frames;
//! * seeded malformed frames (truncated lengths, oversized prefixes,
//!   garbage payloads, mid-frame disconnects) produce typed errors and
//!   never panic, hang, or poison a tenant pool;
//! * graceful shutdown drains in-flight jobs, refuses new submissions
//!   with a typed `draining` frame, and exits with quarantined machines
//!   accounted in the final stats;
//! * provably-fatal fault programs are rejected at admission without a
//!   single machine checkout from the tenant pool;
//! * a small request is answered at compute speed, not after a
//!   Nagle / delayed-ACK stall at each frame boundary.

use quetzal::{BatchRunner, MachineConfig, MachinePool};
use quetzal_bench::workloads::{Workload, SEED};
use quetzal_genomics::DatasetSpec;
use quetzal_served::wire;
use quetzal_served::{
    job, render_report, Budgets, Client, Daemon, DaemonConfig, JobSpec, Request, Response,
    SubmitOutcome,
};
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Starts a daemon on an ephemeral loopback port; returns its address
/// and the accept-loop handle (joins cleanly after a `shutdown` frame).
fn start_daemon(config: DaemonConfig) -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let daemon = Daemon::bind("127.0.0.1:0", config).expect("bind ephemeral loopback port");
    let addr = daemon.local_addr().expect("bound address").to_string();
    (addr, std::thread::spawn(move || daemon.run()))
}

fn align_spec(pairs: usize) -> JobSpec {
    let spec = DatasetSpec::d100();
    let wl = Workload {
        pairs: spec.generate_n(SEED, pairs),
        spec,
    };
    JobSpec::Align {
        algo: quetzal_bench::workloads::Algo::Ss,
        tier: quetzal_algos::Tier::QuetzalC,
        alphabet: wl.spec.alphabet,
        ss_threshold: wl.ss_threshold(),
        budgets: Budgets::default(),
        pairs: wl.pairs,
    }
}

fn fault_spec(seed: u64, cases: std::ops::Range<u64>) -> JobSpec {
    JobSpec::Fault {
        seed,
        cases: cases.collect(),
    }
}

/// Runs `spec` through the in-process path the daemon shares
/// (`job::execute` over a fresh pool) and renders the report.
fn offline_report(spec: &JobSpec, threads: usize) -> (String, Vec<Response>) {
    let runner = BatchRunner::new(threads);
    let config = MachineConfig::default();
    let pool = MachinePool::new(&config, runner.exec_mode());
    let mut frames = Vec::new();
    job::execute(&runner, &pool, spec, 16, &mut |f| frames.push(f));
    (render_report(&frames), frames)
}

fn daemon_report(addr: &str, tenant: &str, spec: &JobSpec) -> String {
    let mut client = Client::connect(addr).expect("connect");
    match client.submit(tenant, spec).expect("submit") {
        SubmitOutcome::Report(frames) => render_report(&frames),
        other => panic!("expected a streamed report, got {other:?}"),
    }
}

fn shutdown(addr: &str) -> quetzal_trace::json::Value {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("bye frame")
}

fn i64_at<'v>(
    v: &'v quetzal_trace::json::Value,
    path: &[&str],
) -> Option<(i64, &'v quetzal_trace::json::Value)> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    Some((cur.as_i64()?, cur))
}

#[test]
fn loopback_daemon_is_byte_identical_to_offline_batchrunner() {
    let align = align_spec(6);
    let fault = fault_spec(0xF4417, 0..24);

    let (align_ref, _) = offline_report(&align, 1);
    let (fault_ref, _) = offline_report(&fault, 1);
    assert_eq!(
        align_ref,
        offline_report(&align, 4).0,
        "offline align report must be worker-thread invariant"
    );
    assert_eq!(
        fault_ref,
        offline_report(&fault, 4).0,
        "offline fault report must be worker-thread invariant"
    );
    assert!(
        fault_ref.contains("\"cause\":\"rejected\""),
        "seed 0xF4417 must exercise verifier-gated rejection"
    );

    for threads in [1usize, 4] {
        let (addr, handle) = start_daemon(DaemonConfig {
            threads,
            ..DaemonConfig::default()
        });
        assert_eq!(
            daemon_report(&addr, "e2e", &align),
            align_ref,
            "served align report must match offline bytes at {threads} thread(s)"
        );
        assert_eq!(
            daemon_report(&addr, "e2e", &fault),
            fault_ref,
            "served fault report must match offline bytes at {threads} thread(s)"
        );
        shutdown(&addr);
        handle.join().expect("accept loop").expect("clean exit");
    }
}

#[test]
fn small_submits_do_not_stall_on_frame_boundaries() {
    // A 1-pair job with `chunk: 1` streams three frames (`accepted`,
    // `item`, `done`) and computes in well under a millisecond of
    // simulation. When a frame went out as two writes on sockets with
    // Nagle on, each submit waited for the peer's delayed ACK (about
    // 40 ms on Linux) twice: >= 80 ms, far above the bound below.
    let (addr, handle) = start_daemon(DaemonConfig {
        chunk: 1,
        ..DaemonConfig::default()
    });
    let spec = align_spec(1);
    let mut client = Client::connect(&addr).expect("connect");
    let mut submit = || {
        let start = Instant::now();
        let outcome = client.submit("latency", &spec).expect("submit");
        assert!(matches!(outcome, SubmitOutcome::Report(_)), "{outcome:?}");
        start.elapsed()
    };
    submit(); // warm-up: builds the tenant's pool machine
    let mut times: Vec<Duration> = (0..9).map(|_| submit()).collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median submit took {median:?} (all: {times:?})"
    );
    shutdown(&addr);
    handle.join().expect("accept loop").expect("clean exit");
}

#[test]
fn malformed_frames_get_typed_errors_and_never_poison_the_daemon() {
    let (addr, handle) = start_daemon(DaemonConfig::default());

    // Garbage payload inside a well-formed frame: typed `bad-frame`
    // error, connection stays usable.
    let mut conn = TcpStream::connect(&addr).unwrap();
    wire::write_frame(&mut conn, b"definitely not json").unwrap();
    let answer = wire::read_value(&mut conn).unwrap().expect("error frame");
    match Response::from_value(&answer).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, "bad-frame"),
        other => panic!("expected typed error, got {other:?}"),
    }
    wire::write_value(&mut conn, &Request::Ping.to_value()).unwrap();
    let pong = wire::read_value(&mut conn).unwrap().expect("pong frame");
    assert!(matches!(
        Response::from_value(&pong).unwrap(),
        Response::Pong
    ));

    // Valid JSON, invalid request: typed `bad-request`, still usable.
    let bogus: quetzal_trace::json::Value = [("type".to_string(), "warp-core-eject".into())]
        .into_iter()
        .collect();
    wire::write_value(&mut conn, &bogus).unwrap();
    let answer = wire::read_value(&mut conn).unwrap().expect("error frame");
    match Response::from_value(&answer).unwrap() {
        Response::Error { kind, .. } => assert_eq!(kind, "bad-request"),
        other => panic!("expected typed error, got {other:?}"),
    }
    drop(conn);

    // Oversized length prefix: best-effort typed error, then the daemon
    // hangs up (fatal framing error).
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.write_all(&u32::MAX.to_be_bytes()).unwrap();
    conn.flush().unwrap();
    if let Ok(Some(answer)) = wire::read_value(&mut conn) {
        assert!(matches!(
            Response::from_value(&answer).unwrap(),
            Response::Error {
                kind: "bad-frame",
                ..
            }
        ));
    }
    assert!(
        matches!(wire::read_value(&mut conn), Ok(None) | Err(_)),
        "daemon must close after an oversized prefix"
    );
    drop(conn);

    // Truncated frame / mid-frame disconnect: claim 100 bytes, send 10,
    // hang up.
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.write_all(&100u32.to_be_bytes()).unwrap();
    conn.write_all(b"ten bytes!").unwrap();
    drop(conn);

    // Partial length prefix then disconnect.
    let mut conn = TcpStream::connect(&addr).unwrap();
    conn.write_all(&[0x00, 0x00]).unwrap();
    drop(conn);

    // Seeded garbage: raw pseudo-random bytes from a fixed xorshift
    // stream, several rounds, mid-stream hangups included.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..8 {
        let mut conn = TcpStream::connect(&addr).unwrap();
        let len = 1 + (next() % 64) as usize + round;
        let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        let _ = conn.write_all(&bytes);
        drop(conn);
    }

    // The daemon survived every attack: fresh connections still serve,
    // the tenant pool still runs real jobs, and the abuse is tallied.
    let mut client = Client::connect(&addr).unwrap();
    client.ping().expect("daemon must still answer pings");
    let align = align_spec(3);
    let (offline, _) = offline_report(&align, 1);
    assert_eq!(
        daemon_report(&addr, "survivor", &align),
        offline,
        "pools must not be poisoned by protocol abuse"
    );
    let stats = client.stats().expect("stats frame");
    let (errors, _) = i64_at(&stats, &["protocol_errors"]).expect("protocol_errors counter");
    assert!(
        errors >= 4,
        "malformed frames must be tallied, got {errors}"
    );

    shutdown(&addr);
    handle.join().expect("accept loop").expect("clean exit");
}

#[test]
fn graceful_shutdown_drains_inflight_and_refuses_new_jobs() {
    let (addr, handle) = start_daemon(DaemonConfig {
        threads: 1,
        ..DaemonConfig::default()
    });

    // Seed 0x51EE9 produces runtime (non-rejected) failures, so the
    // drain also leaves quarantined machines to account for. 1000 cases
    // keep the job in flight long enough to observe the drain window.
    let long_job = fault_spec(0x51EE9, 0..1000);
    let mut conn1 = TcpStream::connect(&addr).unwrap();
    wire::write_value(
        &mut conn1,
        &Request::Submit {
            tenant: "drain".to_string(),
            job: long_job,
        }
        .to_value(),
    )
    .unwrap();
    let read_frame = |conn: &mut TcpStream| {
        let v = wire::read_value(conn).unwrap().expect("frame");
        Response::from_value(&v).unwrap()
    };
    assert!(matches!(read_frame(&mut conn1), Response::Accepted { .. }));
    // One streamed result means the job is provably in flight.
    let first = read_frame(&mut conn1);
    assert!(
        matches!(first, Response::Item { .. } | Response::ItemFailed { .. }),
        "expected a streamed result, got {first:?}"
    );

    let shutdown_addr = addr.clone();
    let byer = std::thread::spawn(move || shutdown(&shutdown_addr));

    // New submissions during the drain get a typed `draining` frame.
    let probe = align_spec(2);
    let mut saw_draining = false;
    for _ in 0..500 {
        let Ok(mut c) = Client::connect(&addr) else {
            break;
        };
        // A submission that raced in before the shutdown frame
        // landed is legal; so is a hangup while the drain ends.
        if let Ok(SubmitOutcome::Draining) = c.submit("latecomer", &probe) {
            saw_draining = true;
            break;
        }
    }
    assert!(
        saw_draining,
        "a submission during the drain must get a typed draining frame"
    );

    // The in-flight job still streams to completion: drain, not drop.
    let done = loop {
        match read_frame(&mut conn1) {
            Response::Done(summary) => break summary,
            Response::Item { .. } | Response::ItemFailed { .. } => {}
            other => panic!("unexpected frame during drain: {other:?}"),
        }
    };
    assert_eq!(done.items, 1000, "every admitted item must be answered");
    assert!(done.failed > 0, "seed 0x51EE9 must exercise quarantine");

    // The `bye` frame carries the final stats, quarantine included.
    let bye = byer.join().expect("shutdown thread");
    let (quarantined, _) =
        i64_at(&bye, &["tenants", "drain", "quarantined"]).expect("tenant quarantine stat");
    assert!(
        quarantined > 0,
        "failed items must leave quarantined machines in the final stats"
    );
    let (draining, _) = i64_at(&bye, &["jobs", "draining"]).expect("draining counter");
    assert!(draining > 0, "the refused submission must be tallied");

    handle.join().expect("accept loop").expect("clean exit");
    assert!(
        TcpStream::connect(&addr).is_err(),
        "the listener must be gone after a clean exit"
    );
}

#[test]
fn fatal_fault_programs_are_rejected_without_a_pool_checkout() {
    // Discover the provably-fatal cases offline first.
    let sweep = fault_spec(0xF4417, 0..24);
    let (_, frames) = offline_report(&sweep, 1);
    let rejected_cases: Vec<u64> = frames
        .iter()
        .filter_map(|f| match f {
            Response::ItemFailed {
                item,
                cause: "rejected",
                ..
            } => Some(*item as u64),
            _ => None,
        })
        .collect();
    assert!(
        !rejected_cases.is_empty(),
        "seed 0xF4417 must produce statically-fatal mutants"
    );

    // A job made only of fatal cases: every item is refused at
    // admission and the tenant's pool never builds a machine.
    let (addr, handle) = start_daemon(DaemonConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    let spec = JobSpec::Fault {
        seed: 0xF4417,
        cases: rejected_cases.clone(),
    };
    let frames = match client.submit("admission", &spec).expect("submit") {
        SubmitOutcome::Report(frames) => frames,
        other => panic!("expected a report, got {other:?}"),
    };
    let mut rejected = 0;
    for frame in &frames {
        match frame {
            Response::Accepted { .. } => {}
            Response::ItemFailed {
                cause: "rejected", ..
            } => rejected += 1,
            Response::Done(summary) => {
                assert_eq!(summary.rejected, rejected_cases.len() as u64);
                assert_eq!(summary.ok, 0);
            }
            other => panic!("fatal-only job must not execute anything, got {other:?}"),
        }
    }
    assert_eq!(rejected, rejected_cases.len());

    let stats = client.stats().expect("stats frame");
    let (built, _) = i64_at(&stats, &["tenants", "admission", "built"]).expect("tenant built stat");
    assert_eq!(
        built, 0,
        "rejected-only jobs must never check a machine out of the pool"
    );

    shutdown(&addr);
    handle.join().expect("accept loop").expect("clean exit");
}
