//! End-to-end coverage of the resident analysis service (`astree serve`):
//! concurrent clients must get results bit-identical to one-shot sessions,
//! the shared invariant store must warm across requests, the admission gate
//! must reject cleanly past `max_inflight`, and a failing request must
//! never take the daemon down.

use astree::core::{AnalysisConfig, AnalysisSession};
use astree::fleet::{JobSpec, JobStatus};
use astree::frontend::Frontend;
use astree::gen::{generate, GenConfig};
use astree::obs::Json;
use astree::serve::client::AnalyzeRequest;
use astree::serve::{Client, ClientError, Endpoint, ServeOptions, Server};

fn temp_socket(tag: &str) -> Endpoint {
    let mut p = std::env::temp_dir();
    p.push(format!("astree-serve-test-{}-{tag}.sock", std::process::id()));
    Endpoint::Unix(p)
}

/// One-shot reference run: same entry point the CLI uses, sequential.
fn reference(source: &str) -> (Vec<String>, Option<String>) {
    let p = Frontend::new().compile_str(source).expect("compiles");
    let result = AnalysisSession::builder(&p).config(AnalysisConfig::default()).build().run();
    (
        result.alarms.iter().map(|a| a.to_string()).collect(),
        result.main_invariant.as_ref().map(|s| s.to_string()),
    )
}

#[test]
fn parallel_clients_match_one_shot_runs_bit_for_bit() {
    // Six concurrent clients: four distinct family members plus two
    // duplicates, so the daemon multiplexes both fresh and repeated work
    // over one warm pool.
    let members: Vec<String> = [(1usize, 1u64), (2, 7), (3, 5), (4, 3), (1, 1), (3, 5)]
        .iter()
        .map(|&(channels, seed)| generate(&GenConfig { channels, seed, bug: None }))
        .collect();
    let expected: Vec<_> = members.iter().map(|src| reference(src)).collect();

    let server = Server::bind(
        temp_socket("parallel"),
        ServeOptions { jobs: 2, max_inflight: 8, cache_dir: None },
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = server.spawn();

    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let tasks: Vec<_> = members
            .iter()
            .map(|src| {
                let endpoint = endpoint.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&endpoint).expect("connect");
                    client
                        .analyze(&AnalyzeRequest { source: src.clone(), ..Default::default() })
                        .expect("analyze")
                })
            })
            .collect();
        tasks.into_iter().map(|t| t.join().expect("client thread")).collect()
    });

    for (i, (outcome, (alarms, invariant))) in outcomes.iter().zip(&expected).enumerate() {
        assert_eq!(&outcome.alarms, alarms, "member {i}: alarms differ from one-shot run");
        assert_eq!(
            &outcome.main_invariant, invariant,
            "member {i}: rendered invariant differs from one-shot run"
        );
        assert!(!outcome.events.is_empty(), "member {i}: coarse events streamed by default");
    }

    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    let counters = handle.counters();
    assert_eq!(counters.completed, members.len() as u64 + 1, "analyses + shutdown");
    assert_eq!(counters.panicked, 0);
    assert_eq!(counters.rejected_overloaded, 0);
    assert!(counters.events_streamed > 0);
    handle.join().expect("clean daemon exit");
}

#[test]
fn shared_store_warms_repeat_requests() {
    let mut cache_dir = std::env::temp_dir();
    cache_dir.push(format!("astree-serve-test-{}-store", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let source = generate(&GenConfig { channels: 2, seed: 9, bug: None });
    let (alarms, invariant) = reference(&source);

    let server = Server::bind(
        temp_socket("store"),
        ServeOptions { jobs: 2, max_inflight: 4, cache_dir: Some(cache_dir.clone()) },
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = server.spawn();

    let mut client = Client::connect(&endpoint).expect("connect");
    let req = AnalyzeRequest { source, ..Default::default() };
    let cold = client.analyze(&req).expect("cold analyze");
    assert!(!cold.cache_full_hit, "first request must miss the fresh store");
    let warm = client.analyze(&req).expect("warm analyze");
    assert!(warm.cache_full_hit, "second identical request must replay from the shared store");
    for outcome in [&cold, &warm] {
        assert_eq!(outcome.alarms, alarms, "store participation must not change alarms");
        assert_eq!(outcome.main_invariant, invariant, "or the rendered invariant");
    }

    let status = client.status().expect("status");
    let cache = status.get("cache").expect("cache section");
    assert!(
        cache.get("full_hits").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "status reports the warm hit: {status}"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("clean daemon exit");
    std::fs::remove_dir_all(&cache_dir).ok();
}

#[test]
fn admission_gate_rejects_cleanly_past_max_inflight() {
    let source = generate(&GenConfig { channels: 1, seed: 2, bug: None });
    let server = Server::bind(
        temp_socket("overload"),
        ServeOptions { jobs: 1, max_inflight: 1, cache_dir: None },
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = server.spawn();

    // One client occupies the single admission slot (hold_ms keeps the slot
    // busy deterministically); a second client must be rejected, then
    // succeed once the slot frees up.
    let rejected = std::thread::scope(|scope| {
        let holder = {
            let endpoint = endpoint.clone();
            let source = source.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&endpoint).expect("connect");
                client
                    .analyze(&AnalyzeRequest {
                        source,
                        hold_ms: Some(1500),
                        events: Some("none"),
                        ..Default::default()
                    })
                    .expect("held analyze completes")
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(300));
        let mut client = Client::connect(&endpoint).expect("connect");
        let rejected =
            client.analyze(&AnalyzeRequest { source: source.clone(), ..Default::default() });
        holder.join().expect("holder thread");
        rejected
    });
    match rejected {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "overloaded"),
        other => panic!("expected a clean overloaded rejection, got {other:?}"),
    }

    // The daemon is unharmed: the same request succeeds now.
    let mut client = Client::connect(&endpoint).expect("connect");
    let outcome = client
        .analyze(&AnalyzeRequest { source, ..Default::default() })
        .expect("post-overload analyze");
    let (alarms, invariant) = (outcome.alarms, outcome.main_invariant);
    assert!(invariant.is_some());
    assert!(alarms.is_empty());
    client.shutdown().expect("shutdown");
    let counters = handle.counters();
    assert_eq!(counters.rejected_overloaded, 1);
    assert!(counters.max_inflight_seen <= 1);
    handle.join().expect("clean daemon exit");
}

#[test]
fn failing_requests_leave_the_daemon_serving() {
    let server = Server::bind(
        temp_socket("failures"),
        ServeOptions { jobs: 1, max_inflight: 2, cache_dir: None },
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = server.spawn();

    let mut client = Client::connect(&endpoint).expect("connect");
    // A program that does not compile is a `failed` job...
    let err = client
        .analyze(&AnalyzeRequest { source: "int x; @!#".into(), ..Default::default() })
        .expect_err("garbage must not analyze");
    match err {
        ClientError::Server { code, message } => {
            assert_eq!(code, "failed");
            assert!(message.contains("compile error"), "{message}");
        }
        other => panic!("expected a failed job, got {other:?}"),
    }
    // ...an unknown override key answers bad_request...
    let mut bad_cfg = AnalyzeRequest {
        source: generate(&GenConfig { channels: 1, seed: 1, bug: None }),
        ..Default::default()
    };
    bad_cfg.overrides = Some(Json::obj([("no_such_knob", Json::Bool(true))]));
    match client.analyze(&bad_cfg).expect_err("unknown config key must be rejected") {
        ClientError::Server { code, message } => {
            assert_eq!(code, "bad_request");
            assert!(message.contains("no_such_knob"), "names the offender: {message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // ...and the same connection still analyzes fine afterwards.
    bad_cfg.overrides = None;
    let outcome = client.analyze(&bad_cfg).expect("valid analyze after failures");
    assert!(outcome.alarms.is_empty());
    client.shutdown().expect("shutdown");
    let counters = handle.counters();
    assert_eq!(counters.bad_requests, 1, "only the unknown key is a bad request");
    handle.join().expect("clean daemon exit");
}

#[test]
fn tcp_endpoint_serves_the_same_protocol() {
    let server = Server::bind(
        Endpoint::Tcp("127.0.0.1:0".into()),
        ServeOptions { jobs: 2, max_inflight: 2, cache_dir: None },
    )
    .expect("bind ephemeral TCP port");
    let endpoint = server.endpoint().clone();
    match &endpoint {
        Endpoint::Tcp(addr) => assert!(!addr.ends_with(":0"), "port resolved: {addr}"),
        other => panic!("expected a TCP endpoint, got {other:?}"),
    }
    let handle = server.spawn();
    let source = generate(&GenConfig { channels: 1, seed: 4, bug: None });
    let (alarms, invariant) = reference(&source);
    let mut client = Client::connect(&endpoint).expect("connect over TCP");
    let outcome =
        client.analyze(&AnalyzeRequest { source, ..Default::default() }).expect("analyze");
    assert_eq!(outcome.alarms, alarms);
    assert_eq!(outcome.main_invariant, invariant);
    client.shutdown().expect("shutdown");
    handle.join().expect("clean daemon exit");
}

#[test]
fn batch_requests_return_per_job_outcomes() {
    let server = Server::bind(
        temp_socket("batch"),
        ServeOptions { jobs: 2, max_inflight: 2, cache_dir: None },
    )
    .expect("bind");
    let endpoint = server.endpoint().clone();
    let handle = server.spawn();

    let jobs: Vec<JobSpec> = vec![
        JobSpec::new("clean", generate(&GenConfig { channels: 1, seed: 1, bug: None })),
        JobSpec::new("poison", "int x; @!#"),
        JobSpec::new("clean-2", generate(&GenConfig { channels: 2, seed: 7, bug: None })),
    ];
    let mut client = Client::connect(&endpoint).expect("connect");
    let outcomes = client.batch(&jobs).expect("batch");
    let status = |i: usize| outcomes[i].status;
    assert_eq!(outcomes.len(), 3);
    assert_eq!(status(0), JobStatus::Done);
    assert_eq!(status(1), JobStatus::Failed, "a poisoned job fails alone");
    assert_eq!(status(2), JobStatus::Done, "jobs after the failure still run");
    assert_eq!(outcomes[2].name, "clean-2");
    client.shutdown().expect("shutdown");
    handle.join().expect("clean daemon exit");
}

/// `shutdown` stops the daemon while another peer sits idle on its
/// connection: no new peer gets in, and the daemon does not wait for the
/// idle one to hang up.
#[test]
fn shutdown_does_not_wait_for_an_idle_peer() {
    let endpoint = temp_socket("idle");
    let handle = Server::bind(endpoint.clone(), ServeOptions::default()).expect("bind").spawn();
    let idle = Client::connect(&endpoint).expect("connect the idle peer");
    Client::connect(&endpoint).expect("connect").shutdown().expect("shutdown");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(handle.join()));
    let joined = rx.recv_timeout(std::time::Duration::from_secs(5));
    joined.expect("the daemon exits within 5 s").expect("clean daemon exit");
    assert!(Client::connect(&endpoint).is_err(), "a later connect fails");
    drop(idle);
}
