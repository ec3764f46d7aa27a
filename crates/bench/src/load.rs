//! `hc-load` — deterministic request-traffic generation against the
//! `hc-serve` core.
//!
//! The harness replays `hc-crowd` behavior as request traffic: `clients`
//! simulated workers drive one [`hc_serve::Service`] through `steps`
//! waves. Each wave generates at most one request per client on the
//! deterministic replication pool (`hc_sim::par::run_replications`) —
//! every client's decision is a pure function of its state snapshot and
//! a per-`(client, step)` indexed RNG stream — and the generated
//! requests are merged in client-index order before being applied to
//! the service serially. The response log is therefore **byte-identical
//! at any `--threads` value**; only the wall-clock numbers move.
//!
//! The run records:
//!
//! * a JSONL response log (`--response-log`), one
//!   `{"request":…,"response":…}` object per line — the artifact CI
//!   diffs across thread counts;
//! * a bench JSON (`--bench-json`) with the standard section contract:
//!   deterministic `results` (traffic counts + an FNV-1a digest of the
//!   response log), machine-dependent `timing` (per-request p50/p99
//!   latency plus a per-wave saturation curve) and `machine` sections.
//!
//! Latency numbers are per-request minima over three identical replays
//! of the scenario (the run is deterministic, so the replays are free),
//! which keeps the µs-scale p99 stable enough to gate in CI.

use hc_core::jobs::JobGoal;
use hc_core::session::SessionConfig;
use hc_core::{Answer, Label, PlatformConfig, PlayerId, SessionId, Stimulus, TabooList, TaskId};
use hc_crowd::{Behavior, LabelDistribution, Vocabulary};
use hc_serve::{Request, Response, RoundOutcome, ServeError, Service, ServiceConfig, SessionPhase};
use hc_sim::{run_replications, RngFactory, SimDuration, SimTime};
use serde::Serialize;
use serde_json::Value;
use std::path::PathBuf;
use std::time::Instant;

/// Options for one load run.
#[derive(Debug, Clone)]
pub struct LoadOpts {
    /// Master seed for the service and every client stream.
    pub seed: u64,
    /// Worker threads for the request-generation pool.
    pub threads: usize,
    /// Simulated clients driving the service.
    pub clients: usize,
    /// Traffic waves (at most one request per client per wave).
    pub steps: usize,
    /// Rounds a client plays before closing its session.
    pub rounds_per_session: u32,
    /// Where to write the bench JSON, if anywhere.
    pub bench_json: Option<PathBuf>,
    /// Where to write the JSONL response log, if anywhere.
    pub response_log: Option<PathBuf>,
    /// Where to write an `hc-obs` JSONL trace of the request/response
    /// lifecycle, if anywhere. Only the first measurement rep records
    /// (the replays are byte-identical, so one trace describes all
    /// three), and recording cannot perturb the run — the rep-divergence
    /// check proves it on every traced run.
    pub trace: Option<PathBuf>,
}

impl Default for LoadOpts {
    fn default() -> Self {
        LoadOpts {
            seed: 42,
            threads: 1,
            clients: 32,
            steps: 200,
            rounds_per_session: 4,
            bench_json: None,
            response_log: None,
            trace: None,
        }
    }
}

impl LoadOpts {
    /// The fixed scenario CI smokes at several thread counts: small
    /// enough to finish in well under a second, large enough (~4k
    /// requests) that the wall-clock gates are not dominated by noise.
    #[must_use]
    pub fn smoke(self) -> Self {
        LoadOpts {
            clients: 16,
            steps: 240,
            rounds_per_session: 3,
            ..self
        }
    }
}

/// One simulated client's view of its own lifecycle.
#[derive(Debug, Clone)]
enum ClientState {
    Unregistered,
    Idle(PlayerId),
    Waiting(PlayerId),
    Seated {
        player: PlayerId,
        session: SessionId,
        /// `(round, task, taboo)` of the current assignment, if polled.
        assignment: Option<(u32, TaskId, Vec<Label>)>,
        /// Whether this seat already answered the stored round.
        answered: bool,
        /// Rounds this client has seen resolve in this session.
        rounds: u32,
        /// Set on `SessionOver`/`NoTaskAvailable`: close next wave.
        must_close: bool,
    },
}

/// Deterministic traffic summary — the bench `results` payload.
#[derive(Debug, Clone, Default, serde::Serialize)]
pub struct LoadSummary {
    /// Requests issued (setup + waves).
    pub requests: u64,
    /// Sessions opened.
    pub sessions_opened: u64,
    /// Sessions closed.
    pub sessions_closed: u64,
    /// Rounds that resolved (both seats answered).
    pub rounds_resolved: u64,
    /// Resolved rounds where the seats agreed.
    pub matched: u64,
    /// Agreements that promoted a verified label.
    pub promoted: u64,
    /// Error responses (all kinds).
    pub errors: u64,
    /// Verified labels on the platform after the run.
    pub verified_labels: u64,
    /// FNV-1a 64 digest of the response-log bytes.
    pub response_log_fnv64: String,
    /// Response-log line count.
    pub response_log_lines: u64,
}

/// Machine-dependent measurements of one run.
#[derive(Debug, Clone)]
pub struct LoadTiming {
    /// Machine-speed unit (min-of-5 spin), for portable comparisons.
    pub calibration_secs: f64,
    /// Whole-run wall time.
    pub total_wall_secs: f64,
    /// Per-request service latencies, seconds, request order.
    pub latencies: Vec<f64>,
    /// Per-wave `(requests, wall_secs)` — the saturation curve.
    pub waves: Vec<(u64, f64)>,
}

/// Everything one load run produced.
#[derive(Debug, Clone)]
pub struct LoadOutcome {
    /// The deterministic summary.
    pub summary: LoadSummary,
    /// The rendered JSONL response log.
    pub response_log: String,
    /// Wall-clock measurements.
    pub timing: LoadTiming,
}

/// The service config the harness drives: promote on first agreement,
/// no gold injection, no rematch avoidance, and session limits wide
/// enough that clients decide when to close. Replaying a run's response
/// log into a service built from it rebuilds the run's state.
#[must_use]
pub fn service_config(seed: u64) -> ServiceConfig {
    let mut platform = PlatformConfig {
        agreement_threshold: 1,
        gold_injection_rate: 0.0,
        ..PlatformConfig::default()
    };
    platform.matchmaker.avoid_rematch = false;
    platform.session = SessionConfig {
        max_rounds: 10_000,
        round_time_limit: SimDuration::from_secs(1_000_000),
        session_time_limit: SimDuration::from_secs(1_000_000),
        ..SessionConfig::default()
    };
    ServiceConfig { platform, seed }
}

/// Ground-truth label distribution for a task: three vocabulary words
/// picked by task id, weighted 0.6/0.3/0.1 — enough overlap that two
/// honest clients agree roughly half the time.
fn truth_for(task: TaskId, vocab: &Vocabulary) -> LabelDistribution {
    let base = task.raw() as usize;
    let pick = |k: usize| {
        vocab
            .label((base * 3 + k * 7) % vocab.len())
            .cloned()
            .unwrap_or_else(|| Label::new("fallback"))
    };
    LabelDistribution::new(vec![(pick(0), 0.6), (pick(1), 0.3), (pick(2), 0.1)]).unwrap_or_else(
        |_| {
            LabelDistribution::uniform(vec![Label::new("fallback")])
                .expect("one-label uniform is valid")
        },
    )
}

/// The behavior mix: every fourth client is noisy, the rest honest —
/// the `hc-crowd` archetypes replayed as traffic.
fn behavior_for(client: usize) -> Behavior {
    if client.is_multiple_of(4) {
        Behavior::Noisy { error_rate: 0.2 }
    } else {
        Behavior::Honest
    }
}

/// Decides one client's request for this wave. Pure function of the
/// state snapshot and the `(client, step)` RNG stream — safe to run on
/// the pool in any thread order.
fn generate(
    client: usize,
    step: usize,
    state: &ClientState,
    at: SimTime,
    factory: &RngFactory,
    vocab: &Vocabulary,
) -> Option<Request> {
    match state {
        ClientState::Unregistered => Some(Request::RegisterWorker),
        ClientState::Idle(player) => Some(Request::OpenSession {
            player: *player,
            at,
        }),
        ClientState::Waiting(player) => Some(Request::PollSession { player: *player }),
        ClientState::Seated {
            player,
            session,
            assignment,
            answered,
            must_close,
            ..
        } => {
            if *must_close {
                return Some(Request::CloseSession {
                    session: *session,
                    at,
                });
            }
            match assignment {
                Some((_, task, taboo)) if !answered => {
                    let mut rng = factory
                        .indexed_child("client", client as u64)
                        .indexed_stream("step", step as u64);
                    let truth = truth_for(*task, vocab);
                    let taboo = TabooList::from_labels(taboo.iter().cloned());
                    let answer = behavior_for(client).next_answer(&truth, vocab, &taboo, &mut rng);
                    // The wire rejects non-text answers; fold exotic
                    // behavior outputs into a pass.
                    let answer = match answer {
                        Answer::Text(l) if !l.is_empty() => Answer::Text(l),
                        _ => Answer::Pass,
                    };
                    Some(Request::SubmitAnswer {
                        session: *session,
                        player: *player,
                        answer,
                        at,
                    })
                }
                _ => Some(Request::RequestTask {
                    session: *session,
                    player: *player,
                    at,
                }),
            }
        }
    }
}

/// Folds one response into the issuing client's state and the
/// deterministic counters.
fn observe(
    state: &mut ClientState,
    response: &Response,
    rounds_per_session: u32,
    summary: &mut LoadSummary,
) {
    if response.is_error() {
        summary.errors += 1;
    }
    match response {
        Response::WorkerRegistered { player } => {
            *state = ClientState::Idle(*player);
        }
        Response::SessionQueued { player, .. } => {
            *state = ClientState::Waiting(*player);
        }
        Response::SessionOpened { session, players } => {
            summary.sessions_opened += 1;
            let player = match state {
                ClientState::Idle(p) | ClientState::Waiting(p) => *p,
                _ => players[1],
            };
            *state = ClientState::Seated {
                player,
                session: *session,
                assignment: None,
                answered: false,
                rounds: 0,
                must_close: false,
            };
        }
        Response::SessionStatus { player, phase } => match phase {
            SessionPhase::Seated { session } => {
                if matches!(state, ClientState::Waiting(_)) {
                    *state = ClientState::Seated {
                        player: *player,
                        session: *session,
                        assignment: None,
                        answered: false,
                        rounds: 0,
                        must_close: false,
                    };
                }
            }
            SessionPhase::Idle => {
                if matches!(state, ClientState::Waiting(_)) {
                    *state = ClientState::Idle(*player);
                }
            }
            SessionPhase::Waiting => {}
        },
        Response::TaskAssigned {
            round, task, taboo, ..
        } => {
            if let ClientState::Seated {
                assignment,
                answered,
                ..
            } = state
            {
                let new_round = assignment.as_ref().map(|(r, ..)| *r) != Some(*round);
                if new_round {
                    *answered = false;
                }
                *assignment = Some((*round, *task, taboo.clone()));
            }
        }
        Response::AnswerRecorded { outcome, .. } => {
            if let ClientState::Seated {
                assignment,
                answered,
                rounds,
                must_close,
                ..
            } = state
            {
                match outcome {
                    RoundOutcome::Waiting => *answered = true,
                    resolved => {
                        summary.rounds_resolved += 1;
                        if let RoundOutcome::Matched { promoted, .. } = resolved {
                            summary.matched += 1;
                            if *promoted {
                                summary.promoted += 1;
                            }
                        }
                        *assignment = None;
                        *answered = false;
                        *rounds += 1;
                        if *rounds >= rounds_per_session {
                            *must_close = true;
                        }
                    }
                }
            }
        }
        Response::SessionClosed { .. } => {
            summary.sessions_closed += 1;
            if let ClientState::Seated { player, .. } = state {
                *state = ClientState::Idle(*player);
            }
        }
        Response::Error { error } => match error {
            ServeError::UnknownSession { .. } | ServeError::NotInSession { .. } => {
                // Partner closed the session first; resync to idle.
                if let ClientState::Seated { player, .. } = state {
                    *state = ClientState::Idle(*player);
                }
            }
            ServeError::SessionOver { .. } | ServeError::NoTaskAvailable { .. } => {
                if let ClientState::Seated { must_close, .. } = state {
                    *must_close = true;
                }
            }
            ServeError::DuplicateAnswer { .. } => {
                if let ClientState::Seated { answered, .. } = state {
                    *answered = true;
                }
            }
            _ => {}
        },
        _ => {}
    }
}

/// FNV-1a 64 over a byte string, rendered as fixed-width hex.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// Appends one response-log line, `{"request":…,"response":…}`, each
/// message written straight from its typed value.
fn push_log_line(log: &mut String, request: &Request, response: &Response) {
    log.push_str("{\"request\":");
    request.write_json(log);
    log.push_str(",\"response\":");
    response.write_json(log);
    log.push_str("}\n");
}

/// Latency floors come from replaying the identical scenario this many
/// times and keeping the elementwise minimum per request — scheduling
/// spikes on a shared machine would otherwise dominate a single run's
/// µs-scale p99 and make the CI latency gate flaky.
const MEASURE_REPS: usize = 3;

/// One full pass over the scenario: the deterministic artifacts plus
/// this pass's wall-clock measurements.
struct ScenarioRun {
    summary: LoadSummary,
    log: String,
    latencies: Vec<f64>,
    waves: Vec<(u64, f64)>,
    wall_secs: f64,
}

/// Runs the load scenario `MEASURE_REPS` (3) times and collects logs,
/// counters, and per-request minimum latencies.
///
/// # Errors
///
/// Returns a message when the service config is rejected, the
/// generation pool fails, or the replays diverge (a determinism bug).
pub fn run_load(opts: &LoadOpts) -> Result<LoadOutcome, String> {
    let calibration_secs = crate::grid::calibrate();
    let mut best: Option<ScenarioRun> = None;
    for rep in 0..MEASURE_REPS {
        // Only the designated first rep records; later reps replay the
        // identical scenario untraced, and the divergence check below
        // then proves recording never perturbed the run.
        let run = if rep == 0 && opts.trace.is_some() {
            let (run, trace) = hc_obs::record_scope(0, || execute(opts));
            if let Some(path) = &opts.trace {
                std::fs::write(path, hc_obs::sink::jsonl::render(&trace))
                    .map_err(|e| format!("write trace {}: {e}", path.display()))?;
            }
            run?
        } else {
            execute(opts)?
        };
        best = Some(match best {
            None => run,
            Some(mut acc) => {
                if acc.log != run.log {
                    return Err("scenario replay diverged between measurement reps".to_string());
                }
                for (a, b) in acc.latencies.iter_mut().zip(&run.latencies) {
                    *a = a.min(*b);
                }
                for (a, b) in acc.waves.iter_mut().zip(&run.waves) {
                    a.1 = a.1.min(b.1);
                }
                acc.wall_secs = acc.wall_secs.min(run.wall_secs);
                acc
            }
        });
    }
    let run = best.ok_or_else(|| "no measurement reps ran".to_string())?;
    Ok(LoadOutcome {
        summary: run.summary,
        response_log: run.log,
        timing: LoadTiming {
            calibration_secs,
            total_wall_secs: run.wall_secs,
            latencies: run.latencies,
            waves: run.waves,
        },
    })
}

/// One measured pass over the whole scenario.
fn execute(opts: &LoadOpts) -> Result<ScenarioRun, String> {
    let clients = opts.clients.max(2);
    let steps = opts.steps.max(1);
    let mut service =
        Service::new(service_config(opts.seed)).map_err(|e| format!("service config: {e}"))?;
    let factory = RngFactory::new(opts.seed).child("load");
    let vocab = Vocabulary::new(50, 1.07);

    let run_clock = Instant::now();

    // Tree instrumentation: the run scope parents every wave scope,
    // which in turn parents the per-request-type spans the service
    // emits — all keyed on sim-time, so the trace is a pure function of
    // the scenario.
    let run_scope = hc_obs::active().then(|| {
        hc_obs::name_track(0, "main");
        hc_obs::enter("load", "run", 0)
    });

    let mut summary = LoadSummary::default();
    let mut log = String::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut waves: Vec<(u64, f64)> = Vec::new();

    let apply = |service: &mut Service,
                 request: &Request,
                 summary: &mut LoadSummary,
                 log: &mut String,
                 latencies: &mut Vec<f64>|
     -> Response {
        let clock = Instant::now();
        let response = service.handle(request);
        latencies.push(clock.elapsed().as_secs_f64());
        summary.requests += 1;
        push_log_line(log, request, &response);
        response
    };

    // Setup: two published batches give the crowd something to label.
    let tasks_per_job = clients.max(8);
    for batch in 0..2u64 {
        let request = Request::PublishBatch {
            name: format!("load-batch-{batch}"),
            goal: JobGoal::OutputsPerTask(2),
            stimuli: (0..tasks_per_job as u64)
                .map(|i| Stimulus::Image(batch * 10_000 + i))
                .collect(),
        };
        let response = apply(
            &mut service,
            &request,
            &mut summary,
            &mut log,
            &mut latencies,
        );
        if response.is_error() {
            return Err(format!("setup failed: {response:?}"));
        }
    }

    let mut states: Vec<ClientState> = vec![ClientState::Unregistered; clients];

    for step in 0..steps {
        let at = SimTime::from_secs(step as u64 + 1);
        // Generation: pure per-client decisions on the pool, merged in
        // client-index order — thread count cannot reorder them.
        let snapshot = states.clone();
        let generated: Vec<Option<Request>> = run_replications(clients, opts.threads, |client| {
            generate(client, step, &snapshot[client], at, &factory, &vocab)
        })
        .map_err(|e| format!("generation pool: {e}"))?;

        // Apply: serial, client-index order, latency per request.
        let wave_scope = hc_obs::active().then(|| hc_obs::enter("load", "wave", at.ticks()));
        let wave_clock = Instant::now();
        let mut wave_requests = 0u64;
        for (client, request) in generated.iter().enumerate() {
            let Some(request) = request else { continue };
            let response = apply(
                &mut service,
                request,
                &mut summary,
                &mut log,
                &mut latencies,
            );
            if let Some(state) = states.get_mut(client) {
                observe(state, &response, opts.rounds_per_session, &mut summary);
            }
            wave_requests += 1;
        }
        waves.push((wave_requests, wave_clock.elapsed().as_secs_f64()));
        if let Some(scope) = wave_scope {
            scope.exit(
                at.ticks(),
                &[
                    ("step", (step as u64).into()),
                    ("requests", wave_requests.into()),
                ],
            );
        }
    }

    if let Some(scope) = run_scope {
        scope.close(&[
            ("requests", summary.requests.into()),
            ("sessions_opened", summary.sessions_opened.into()),
            ("rounds_resolved", summary.rounds_resolved.into()),
        ]);
    }

    summary.verified_labels = service.platform().verified_labels().len() as u64;
    summary.response_log_fnv64 = fnv1a64(log.as_bytes());
    summary.response_log_lines = log.lines().count() as u64;

    Ok(ScenarioRun {
        summary,
        log,
        latencies,
        waves,
        wall_secs: run_clock.elapsed().as_secs_f64(),
    })
}

/// Percentile of a latency sample (nearest-rank); 0.0 for empty input.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted.get(rank).copied().unwrap_or(0.0)
}

impl LoadOutcome {
    /// Renders the bench JSON under the standard section contract:
    /// `experiment`, `seed`, `reps`, `results` are deterministic;
    /// `threads`, `timing`, `machine` are not.
    ///
    /// # Errors
    ///
    /// Returns a message when a section fails to serialize.
    pub fn to_bench_json(&self, opts: &LoadOpts) -> Result<Value, String> {
        let summary =
            serde_json::to_value(&self.summary).map_err(|e| format!("serialize summary: {e}"))?;
        let results = Value::Array(vec![Value::Object(vec![
            ("id".to_string(), Value::String("traffic".to_string())),
            ("reps".to_string(), Value::Array(vec![summary])),
        ])]);

        let mut sorted = self.timing.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let mean = if sorted.is_empty() {
            0.0
        } else {
            sorted.iter().sum::<f64>() / sorted.len() as f64
        };
        let num = |x: f64| serde_json::to_value(&x).map_err(|e| e.to_string());
        let latency = Value::Object(vec![
            (
                "count".to_string(),
                serde_json::to_value(&sorted.len()).map_err(|e| e.to_string())?,
            ),
            ("mean_secs".to_string(), num(mean)?),
            ("p50_secs".to_string(), num(percentile(&sorted, 0.50))?),
            ("p90_secs".to_string(), num(percentile(&sorted, 0.90))?),
            ("p99_secs".to_string(), num(percentile(&sorted, 0.99))?),
            (
                "max_secs".to_string(),
                num(sorted.last().copied().unwrap_or(0.0))?,
            ),
        ]);
        let mut saturation = Vec::with_capacity(self.timing.waves.len());
        for (step, (requests, wall)) in self.timing.waves.iter().enumerate() {
            let rps = if *wall > 0.0 {
                *requests as f64 / wall
            } else {
                0.0
            };
            saturation.push(Value::Object(vec![
                (
                    "step".to_string(),
                    serde_json::to_value(&step).map_err(|e| e.to_string())?,
                ),
                (
                    "requests".to_string(),
                    serde_json::to_value(requests).map_err(|e| e.to_string())?,
                ),
                ("wall_secs".to_string(), num(*wall)?),
                ("rps".to_string(), num(rps)?),
            ]));
        }
        let timing = Value::Object(vec![
            (
                "calibration_secs".to_string(),
                num(self.timing.calibration_secs)?,
            ),
            (
                "total_wall_secs".to_string(),
                num(self.timing.total_wall_secs)?,
            ),
            ("latency".to_string(), latency),
            ("saturation".to_string(), Value::Array(saturation)),
        ]);
        let machine = Value::Object(vec![
            (
                "threads".to_string(),
                serde_json::to_value(&opts.threads).map_err(|e| e.to_string())?,
            ),
            (
                "clients".to_string(),
                serde_json::to_value(&opts.clients).map_err(|e| e.to_string())?,
            ),
            (
                "steps".to_string(),
                serde_json::to_value(&opts.steps).map_err(|e| e.to_string())?,
            ),
        ]);

        Ok(Value::Object(vec![
            (
                "experiment".to_string(),
                Value::String("serve_load".to_string()),
            ),
            (
                "seed".to_string(),
                serde_json::to_value(&opts.seed).map_err(|e| e.to_string())?,
            ),
            (
                "reps".to_string(),
                serde_json::to_value(&1u64).map_err(|e| e.to_string())?,
            ),
            ("results".to_string(), results),
            (
                "threads".to_string(),
                serde_json::to_value(&opts.threads).map_err(|e| e.to_string())?,
            ),
            ("timing".to_string(), timing),
            ("machine".to_string(), machine),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_opts(threads: usize) -> LoadOpts {
        LoadOpts {
            threads,
            ..LoadOpts::default()
        }
        .smoke()
    }

    #[test]
    fn smoke_run_produces_traffic_and_promotions() {
        let out = run_load(&smoke_opts(1)).expect("runs");
        assert!(out.summary.requests > 0);
        assert!(out.summary.sessions_opened > 0, "no sessions opened");
        assert!(out.summary.rounds_resolved > 0, "no rounds resolved");
        assert!(out.summary.promoted > 0, "no labels promoted");
        assert_eq!(
            out.summary.response_log_lines,
            out.response_log.lines().count() as u64
        );
        assert_eq!(out.summary.requests, out.timing.latencies.len() as u64);
    }

    #[test]
    fn response_log_is_thread_count_invariant() {
        let serial = run_load(&smoke_opts(1)).expect("runs");
        for threads in [2, 4] {
            let par = run_load(&smoke_opts(threads)).expect("runs");
            assert_eq!(
                serial.response_log, par.response_log,
                "response log diverged at threads={threads}"
            );
            assert_eq!(
                serde_json::to_string(&serial.summary).expect("encodes"),
                serde_json::to_string(&par.summary).expect("encodes"),
                "summary diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn bench_json_keeps_the_section_contract() {
        let opts = smoke_opts(1);
        let out = run_load(&opts).expect("runs");
        let json = out.to_bench_json(&opts).expect("renders");
        for key in [
            "experiment",
            "seed",
            "reps",
            "results",
            "threads",
            "timing",
            "machine",
        ] {
            assert!(json.get(key).is_some(), "missing `{key}`");
        }
        assert_eq!(
            json.get("experiment").and_then(Value::as_str),
            Some("serve_load")
        );
        let timing = json.get("timing").expect("timing");
        assert!(timing
            .get("latency")
            .and_then(|l| l.get("p99_secs"))
            .and_then(Value::as_f64)
            .is_some());
        assert!(timing
            .get("saturation")
            .and_then(Value::as_array)
            .is_some_and(|a| !a.is_empty()));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a64(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64(b"a"), "af63dc4c8601ec8c");
    }
}
