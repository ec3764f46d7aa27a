//! Deterministic sharded single-run engine.
//!
//! [`par`](crate::par) parallelizes *across* replications; this module
//! parallelizes *within* one run. A simulation is partitioned into `K`
//! **shards** (by convention keyed `entity_id % K`) plus one **hub**
//! that owns whatever state is semantically global (matchmaking pools,
//! verification, ledgers). Time advances in lock-stepped **windows** of
//! fixed [`SimDuration`]; within a window every shard steps
//! independently on a worker thread, and all cross-shard traffic flows
//! through a message **exchange** that delivers each window's inbox in
//! a canonical order — so the run is byte-identical at any
//! `--shards` × `--threads` combination.
//!
//! ## Determinism contract
//!
//! 1. A message is sent with an explicit `(at, key)`: `at` is its
//!    simulated timestamp, `key` a caller-chosen `u128` that must be
//!    **unique per (window, destination)** and derived only from
//!    simulation state (ids, times) — never from the shard layout.
//!    Inboxes are sorted by `(key, src, seq)`; because keys are unique,
//!    the `(src, seq)` tie-breaker never decides between messages that
//!    exist under a different shard count, which is exactly what makes
//!    the merge `K`-invariant (debug builds assert key uniqueness).
//! 2. Shard steps may depend only on their own state, the shared
//!    workload (`&self`), and their inbox. All RNG must come from
//!    per-entity [`RngFactory`](crate::rng::RngFactory) streams, never
//!    from per-shard streams.
//! 3. Messages emitted by a shard **to the hub** are delivered in the
//!    *same* window (the hub phase runs after the shard phase); all
//!    other routes deliver in `max(window_of(at), current + 1)`.
//!
//! ## Window cycle
//!
//! ```text
//! window w:  [shard phase: all active shards step in parallel]
//!            [exchange: merge shard→hub messages by (key, src, seq)]
//!            [hub phase: hub steps serially on the calling thread]
//!            [route hub + shard messages into future windows]
//! ```
//!
//! A shard is *active* in a window when its inbox is non-empty or its
//! reported wake time falls inside the window. The run ends when no
//! messages are pending and neither the shards nor the hub report a
//! wake time (or the hub returns [`Control::Stop`]).

use crate::par::{map_pool, panic_message};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Where a message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// The serial hub that runs after every shard phase.
    Hub,
    /// Shard `i` (0-based).
    Shard(usize),
}

/// One lock-stepped time window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowInfo {
    /// Window index (`start = index * window_len`).
    pub index: u64,
    /// Inclusive start of the window.
    pub start: SimTime,
    /// Exclusive end of the window.
    pub end: SimTime,
}

impl WindowInfo {
    /// `true` when `t` falls inside this window (`start <= t < end`).
    #[must_use]
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// The last instant that still belongs to this window.
    #[must_use]
    pub fn last_tick(&self) -> SimTime {
        SimTime::from_ticks(self.end.ticks().saturating_sub(1))
    }
}

/// Source tag used in the exchange's merge order; the hub sorts after
/// every shard.
const SRC_HUB: u32 = u32::MAX;

/// First trace track used for per-shard `layout.` lanes (shard `s`
/// records on track `SHARD_TRACK_BASE + s`), high enough to clear the
/// replication tracks the parallel pool hands out.
pub const SHARD_TRACK_BASE: u32 = 1 << 16;

#[derive(Debug)]
struct Envelope<M> {
    to: Addr,
    at: SimTime,
    key: u128,
    src: u32,
    seq: u32,
    msg: M,
}

/// Outgoing messages of one step. The engine assigns delivery windows:
/// shard→hub lands in the current window, everything else in
/// `max(window_of(at), current + 1)`.
#[derive(Debug)]
pub struct Mailbox<M> {
    origin: u32,
    window: u64,
    window_ticks: u64,
    seq: u32,
    out: Vec<Envelope<M>>,
}

impl<M> Mailbox<M> {
    /// `capacity` is a pre-sizing hint only (typically derived from the
    /// step's inbox or the previous window's traffic) — capacity is
    /// never observable, so it cannot affect determinism.
    fn new(origin: u32, window: u64, window_ticks: u64, capacity: usize) -> Self {
        Mailbox {
            origin,
            window,
            window_ticks,
            seq: 0,
            out: Vec::with_capacity(capacity),
        }
    }

    /// Queues `msg` for `to`, timestamped `at`, merged under `key`.
    ///
    /// `key` must be unique per (delivery window, destination) and a
    /// pure function of simulation state — see the module-level
    /// determinism contract.
    pub fn send(&mut self, to: Addr, at: SimTime, key: u128, msg: M) {
        self.out.push(Envelope {
            to,
            at,
            key,
            src: self.origin,
            seq: self.seq,
            msg,
        });
        self.seq += 1;
    }

    /// Number of messages queued so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// `true` when nothing has been queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Consumes the mailbox, tagging every envelope with its delivery
    /// window: shard→hub stays in the sending window, all other routes
    /// land in `max(window_of(at), sending_window + 1)`.
    fn into_routed(self) -> Vec<(u64, Envelope<M>)> {
        let Mailbox {
            origin,
            window,
            window_ticks,
            out,
            ..
        } = self;
        out.into_iter()
            .map(|env| {
                let dw = if origin != SRC_HUB && env.to == Addr::Hub {
                    window
                } else {
                    (env.at.ticks() / window_ticks).max(window + 1)
                };
                (dw, env)
            })
            .collect()
    }
}

/// Whether the hub wants the run to continue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep processing windows while work remains.
    Continue,
    /// Stop immediately after this window (pending messages are dropped).
    Stop,
}

/// What the hub reports at the end of its phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubDecision {
    /// Continue or stop the run.
    pub control: Control,
    /// Earliest time the hub wants a window even without messages
    /// (e.g. a pending timeout sweep). `None` when the hub is idle.
    pub next_wake: Option<SimTime>,
}

impl HubDecision {
    /// Continue, waking at `next_wake` if no messages arrive earlier.
    #[must_use]
    pub fn running(next_wake: Option<SimTime>) -> Self {
        HubDecision {
            control: Control::Continue,
            next_wake,
        }
    }

    /// Stop the run after this window.
    #[must_use]
    pub fn stop() -> Self {
        HubDecision {
            control: Control::Stop,
            next_wake: None,
        }
    }
}

/// A sharded simulation: `K` shard states stepped in parallel plus a
/// serial hub, exchanging messages of one type.
pub trait ShardWorkload {
    /// Per-shard state; moved across worker threads between windows.
    type Shard: Send;
    /// The cross-shard message type.
    type Msg: Send;

    /// Steps shard `shard` through `win`, consuming its inbox (already
    /// in canonical `(key, src, seq)` order). Returns the shard's next
    /// wake time, or `None` when it has no scheduled work left.
    fn shard_step(
        &self,
        shard: usize,
        state: &mut Self::Shard,
        win: &WindowInfo,
        inbox: Vec<(SimTime, Self::Msg)>,
        mail: &mut Mailbox<Self::Msg>,
    ) -> Option<SimTime>;

    /// Steps the hub through `win` after all shards, consuming the
    /// merged shard→hub inbox (canonical order).
    fn hub_step(
        &mut self,
        win: &WindowInfo,
        inbox: Vec<(SimTime, Self::Msg)>,
        mail: &mut Mailbox<Self::Msg>,
    ) -> HubDecision;
}

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker threads for the shard phase (`<= 1` runs inline).
    pub threads: usize,
    /// Window length; every shard sees the same lock-stepped grid.
    pub window: SimDuration,
    /// Safety cap on processed windows (a stuck workload errors out
    /// instead of spinning forever).
    pub max_windows: u64,
}

impl ShardConfig {
    /// A config with the given thread count and window length and no
    /// practical window cap.
    #[must_use]
    pub fn new(threads: usize, window: SimDuration) -> Self {
        ShardConfig {
            threads,
            window,
            max_windows: u64::MAX,
        }
    }
}

/// Deterministic facts about a finished run. Useful for assertions;
/// `shard_steps` depends on the shard count (not on threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Windows processed.
    pub windows: u64,
    /// Total shard steps across all windows.
    pub shard_steps: u64,
    /// Total messages routed through the exchange.
    pub messages: u64,
}

/// Why a sharded run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A shard step panicked; `shard` is the lowest panicking shard
    /// index of the window, matching what a serial run would hit first.
    Panicked {
        /// Shard whose step panicked.
        shard: usize,
        /// Rendered panic payload.
        message: String,
    },
    /// The worker pool itself failed (a thread died outside a step).
    Pool {
        /// Description of the pool failure.
        message: String,
    },
    /// The engine was misconfigured (zero-length window, no shards).
    Config {
        /// What was wrong.
        message: String,
    },
    /// `max_windows` was reached before the workload quiesced.
    WindowCap {
        /// Windows processed before giving up.
        windows: u64,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Panicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            ShardError::Pool { message } => write!(f, "shard pool: {message}"),
            ShardError::Config { message } => write!(f, "shard config: {message}"),
            ShardError::WindowCap { windows } => {
                write!(f, "window cap reached after {windows} windows")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Sorts an inbox into canonical `(key, src, seq)` order and
/// (debug builds) asserts the key-uniqueness contract.
fn canonicalize<M>(inbox: &mut [Envelope<M>]) {
    inbox.sort_by_key(|e| (e.key, e.src, e.seq));
    debug_assert!(
        inbox.windows(2).all(|w| w[0].key != w[1].key),
        "duplicate exchange key within one (window, destination); \
         keys must be unique for the merge to be shard-count-invariant"
    );
}

type StepOutput<M> = (Mailbox<M>, Option<SimTime>);

/// Runs one shard step under `catch_unwind`, mirroring the replication
/// pool's panic containment.
fn guarded_step<W: ShardWorkload>(
    workload: &W,
    shard: usize,
    state: &mut W::Shard,
    win: &WindowInfo,
    inbox: Vec<(SimTime, W::Msg)>,
    window_ticks: u64,
) -> Result<StepOutput<W::Msg>, String> {
    #[allow(clippy::cast_possible_truncation)] // shard counts are small
    // Steps mostly answer their inbox one-for-one (plus a bounded fan
    // of returns), so twice the inbox is a good steady-state fit.
    let mut mail = Mailbox::new(shard as u32, win.index, window_ticks, inbox.len() * 2);
    catch_unwind(AssertUnwindSafe(|| {
        workload.shard_step(shard, state, win, inbox, &mut mail)
    }))
    .map(|wake| (mail, wake))
    .map_err(|p| panic_message(p.as_ref()))
}

/// Runs `workload` over `shards` to quiescence.
///
/// Shard states are stepped in parallel (up to `cfg.threads` workers,
/// each taking the next unstepped active shard) and the hub runs
/// serially on the calling thread — so hub state needs no `Send`/`Sync`
/// and the hub may freely talk to thread-local observability.
///
/// # Errors
///
/// [`ShardError::Panicked`] when a shard step panics (lowest shard
/// index of the window wins, so the error is deterministic),
/// [`ShardError::Pool`] on worker-pool failure, [`ShardError::Config`]
/// for invalid configs, and [`ShardError::WindowCap`] when
/// `cfg.max_windows` is exhausted.
pub fn run<W>(
    cfg: &ShardConfig,
    workload: &mut W,
    shards: &mut [W::Shard],
) -> Result<ShardRunStats, ShardError>
where
    W: ShardWorkload + Sync,
{
    if shards.is_empty() {
        return Err(ShardError::Config {
            message: "at least one shard is required".to_string(),
        });
    }
    if cfg.window.ticks() == 0 {
        return Err(ShardError::Config {
            message: "window length must be positive".to_string(),
        });
    }
    let window_ticks = cfg.window.ticks();
    let window_of = |t: SimTime| t.ticks() / window_ticks;
    let k = shards.len();

    // Tracing is observed-never-consulted: everything below that touches
    // hc-obs is emission-only and guarded on `traced`, so untraced runs
    // take the exact same path as before. All emission happens on the
    // calling thread (worker threads carry no collector), which keeps
    // the recorded trace byte-identical at any `cfg.threads`. Records
    // under the `layout.` prefix (per-shard lanes, the skew gauge) are
    // the only shard-count-dependent ones; derived-metrics summaries
    // exclude that prefix so they stay byte-identical across layouts.
    let traced = hc_obs::active();
    let run_scope = traced.then(|| {
        #[allow(clippy::cast_possible_truncation)] // shard counts are small
        for s in 0..k {
            hc_obs::name_track(SHARD_TRACK_BASE + s as u32, &format!("shard-{s}"));
        }
        hc_obs::enter("sim.shard", "run", 0)
    });

    let mut pending: BTreeMap<u64, Vec<Envelope<W::Msg>>> = BTreeMap::new();
    // Every shard and the hub get an initial step in window 0 so they
    // can seed their calendars before any messages exist.
    let mut wakes: Vec<Option<SimTime>> = vec![Some(SimTime::ZERO); k];
    let mut hub_wake: Option<SimTime> = Some(SimTime::ZERO);
    let mut last_window: Option<u64> = None;
    let mut stats = ShardRunStats::default();

    loop {
        // Next interesting window: earliest pending message or wake,
        // never re-running a processed window.
        let floor = last_window.map_or(0, |w| w + 1);
        let mut next: Option<u64> = pending.keys().next().copied();
        for wake in wakes.iter().chain(std::iter::once(&hub_wake)).flatten() {
            let cand = window_of(*wake).max(floor);
            next = Some(next.map_or(cand, |n| n.min(cand)));
        }
        let Some(wi) = next else { break };
        if stats.windows >= cfg.max_windows {
            return Err(ShardError::WindowCap {
                windows: stats.windows,
            });
        }
        last_window = Some(wi);
        stats.windows += 1;
        let win = WindowInfo {
            index: wi,
            start: SimTime::from_ticks(wi * window_ticks),
            end: SimTime::from_ticks((wi + 1) * window_ticks),
        };
        let win_scope = traced.then(|| hc_obs::enter("sim.shard", "window", win.start.ticks()));
        // Per-window exchange accounting, emitted at window close.
        let mut exchange_sent = 0u64;
        let mut exchange_deferred = 0u64;
        // Deterministic per-shard work units (inbox + emitted mail) for
        // the `layout.` lanes and skew gauge; never wall-clock (D1).
        let mut work: Vec<u64> = if traced { vec![0; k] } else { Vec::new() };
        let mut stepped: Vec<usize> = Vec::new();

        // Partition this window's messages by destination.
        let arrivals = pending.remove(&wi).unwrap_or_default();
        let delivered = arrivals.len() as u64;
        let mut shard_in: Vec<Vec<Envelope<W::Msg>>> = (0..k).map(|_| Vec::new()).collect();
        let mut hub_in: Vec<Envelope<W::Msg>> = Vec::new();
        for env in arrivals {
            match env.to {
                Addr::Shard(s) => shard_in[s].push(env),
                Addr::Hub => hub_in.push(env),
            }
        }

        // Shard phase: step every active shard.
        let workload_ref: &W = workload;
        let mut active = Vec::new();
        for (s, (state, inbox)) in shards.iter_mut().zip(shard_in.iter_mut()).enumerate() {
            let due = wakes[s].is_some_and(|t| t < win.end);
            if inbox.is_empty() && !due {
                continue;
            }
            canonicalize(inbox);
            if traced {
                work[s] = inbox.len() as u64;
                stepped.push(s);
            }
            let inbox = std::mem::take(inbox)
                .into_iter()
                .map(|e| (e.at, e.msg))
                .collect();
            active.push((s, state, inbox));
        }
        stats.shard_steps += active.len() as u64;
        let outputs = map_pool(active, cfg.threads, |(s, state, inbox)| {
            let out = guarded_step(workload_ref, s, state, &win, inbox, window_ticks);
            (s, out)
        })
        .map_err(|message| ShardError::Pool {
            message: format!("a worker thread died outside a step: {message}"),
        })?;

        // Outputs come back in shard order: surface the lowest
        // panicking shard (deterministic), then route every emitted
        // message.
        for (s, out) in outputs {
            match out {
                Err(message) => return Err(ShardError::Panicked { shard: s, message }),
                Ok((mail, wake)) => {
                    wakes[s] = wake;
                    let sent = mail.len() as u64;
                    stats.messages += sent;
                    if traced {
                        work[s] += sent;
                        exchange_sent += sent;
                    }
                    for (dw, env) in mail.into_routed() {
                        if traced && dw > wi {
                            exchange_deferred += 1;
                            #[allow(clippy::cast_precision_loss)] // diagnostics only
                            hc_obs::observe(
                                "shard.exchange.wait_us",
                                win.end.ticks(),
                                (dw * window_ticks).saturating_sub(env.at.ticks()) as f64,
                            );
                        }
                        if dw == wi && env.to == Addr::Hub {
                            hub_in.push(env);
                        } else {
                            pending.entry(dw).or_default().push(env);
                        }
                    }
                }
            }
        }

        // Hub phase (serial, calling thread).
        canonicalize(&mut hub_in);
        let hub_inbox: Vec<(SimTime, W::Msg)> = hub_in.into_iter().map(|e| (e.at, e.msg)).collect();
        let mut hub_mail = Mailbox::new(SRC_HUB, wi, window_ticks, hub_inbox.len());
        let decision = workload.hub_step(&win, hub_inbox, &mut hub_mail);
        let hub_sent = hub_mail.len() as u64;
        stats.messages += hub_sent;
        if traced {
            exchange_sent += hub_sent;
        }
        for (dw, env) in hub_mail.into_routed() {
            if traced && dw > wi {
                exchange_deferred += 1;
                #[allow(clippy::cast_precision_loss)] // diagnostics only
                hc_obs::observe(
                    "shard.exchange.wait_us",
                    win.end.ticks(),
                    (dw * window_ticks).saturating_sub(env.at.ticks()) as f64,
                );
            }
            pending.entry(dw).or_default().push(env);
        }

        if let Some(scope) = win_scope {
            // Per-shard lanes and the skew gauge are the shard-layout-
            // dependent view; the `layout.` prefix keeps them out of
            // derived-metrics summaries (they stay layout-invariant).
            #[allow(clippy::cast_possible_truncation)] // shard counts are small
            for &s in &stepped {
                hc_obs::span_on_track(
                    SHARD_TRACK_BASE + s as u32,
                    "layout.shard",
                    "window",
                    win.start.ticks(),
                    win.end.ticks(),
                    &[
                        ("shard", (s as u64).into()),
                        ("window", wi.into()),
                        ("work", work[s].into()),
                    ],
                );
            }
            let total_work: u64 = stepped.iter().map(|&s| work[s]).sum();
            if total_work > 0 {
                let max_work = stepped.iter().map(|&s| work[s]).max().unwrap_or(0);
                #[allow(clippy::cast_precision_loss)] // diagnostics only
                let skew = max_work as f64 * stepped.len() as f64 / total_work as f64;
                hc_obs::gauge("layout.shard.skew", win.end.ticks(), skew);
            }
            if exchange_sent > 0 {
                hc_obs::counter("shard.exchange.sent", win.end.ticks(), exchange_sent);
            }
            if exchange_deferred > 0 {
                hc_obs::counter(
                    "shard.exchange.deferred",
                    win.end.ticks(),
                    exchange_deferred,
                );
            }
            scope.exit(
                win.end.ticks(),
                &[
                    ("window", wi.into()),
                    ("delivered", delivered.into()),
                    ("stepped", (stepped.len() as u64).into()),
                ],
            );
        }

        hub_wake = decision.next_wake;
        if decision.control == Control::Stop {
            break;
        }
    }

    if let Some(scope) = run_scope {
        scope.close(&[
            ("windows", stats.windows.into()),
            ("steps", stats.shard_steps.into()),
            ("messages", stats.messages.into()),
        ]);
    }
    if hc_obs::active() {
        #[allow(clippy::cast_precision_loss)] // diagnostics only
        {
            hc_obs::machine_stat("shard.windows", stats.windows as f64);
            hc_obs::machine_stat("shard.steps", stats.shard_steps as f64);
            hc_obs::machine_stat("shard.messages", stats.messages as f64);
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy workload: each shard owns counters for entities
    /// `id % K == shard`; the hub redistributes "tokens" so every
    /// message crosses the exchange. Entity `i` starts with `i % 7 + 1`
    /// tokens; each window an entity holding tokens sends one to the
    /// hub, which forwards it to entity `(i * 31 + 17) % n`.
    struct Toy {
        n: u64,
        horizon: u64,
        received: Vec<u64>,
        forwarded: u64,
    }

    #[derive(Debug)]
    enum ToyMsg {
        ToHub { from: u64 },
        Grant { to: u64 },
    }

    struct ToyShard {
        ids: Vec<u64>,
        tokens: BTreeMap<u64, u64>,
    }

    impl ShardWorkload for Toy {
        type Shard = ToyShard;
        type Msg = ToyMsg;

        fn shard_step(
            &self,
            _shard: usize,
            state: &mut ToyShard,
            win: &WindowInfo,
            inbox: Vec<(SimTime, ToyMsg)>,
            mail: &mut Mailbox<ToyMsg>,
        ) -> Option<SimTime> {
            for (_, msg) in inbox {
                if let ToyMsg::Grant { to } = msg {
                    *state.tokens.entry(to).or_insert(0) += 1;
                }
            }
            if win.index < self.horizon {
                for &id in &state.ids {
                    if state.tokens.get(&id).copied().unwrap_or(0) > 0 {
                        *state.tokens.get_mut(&id).expect("present") -= 1;
                        mail.send(
                            Addr::Hub,
                            win.start,
                            u128::from(id),
                            ToyMsg::ToHub { from: id },
                        );
                    }
                }
            }
            (win.index + 1 < self.horizon).then_some(win.end)
        }

        fn hub_step(
            &mut self,
            win: &WindowInfo,
            inbox: Vec<(SimTime, ToyMsg)>,
            mail: &mut Mailbox<ToyMsg>,
        ) -> HubDecision {
            let k = self.received.len() as u64; // shard count via closure state
            for (at, msg) in inbox {
                if let ToyMsg::ToHub { from } = msg {
                    let to = (from * 31 + 17) % self.n;
                    self.received[(from % k) as usize] += 1;
                    self.forwarded += 1;
                    // Key carries (to, from): two sources may target the
                    // same entity in one window, and keys must be unique.
                    mail.send(
                        Addr::Shard((to % k) as usize),
                        at,
                        (u128::from(to) << 64) | u128::from(from),
                        ToyMsg::Grant { to },
                    );
                }
            }
            HubDecision::running((win.index + 1 < self.horizon).then_some(win.end))
        }
    }

    fn run_toy(n: u64, k: usize, threads: usize, horizon: u64) -> (Vec<u64>, u64, ShardRunStats) {
        let mut shards: Vec<ToyShard> = (0..k)
            .map(|s| {
                let ids: Vec<u64> = (0..n).filter(|i| (*i as usize) % k == s).collect();
                let tokens = ids.iter().map(|&i| (i, i % 7 + 1)).collect();
                ToyShard { ids, tokens }
            })
            .collect();
        let mut toy = Toy {
            n,
            horizon,
            received: vec![0; k],
            forwarded: 0,
        };
        let cfg = ShardConfig::new(threads, SimDuration::from_secs(10));
        let stats = run(&cfg, &mut toy, &mut shards).expect("toy runs");
        (toy.received, toy.forwarded, stats)
    }

    #[test]
    fn toy_total_is_shard_and_thread_invariant() {
        let (_, baseline, _) = run_toy(64, 1, 1, 12);
        assert!(baseline > 0);
        for k in [2, 3, 5] {
            for threads in [1, 2, 4] {
                let (_, forwarded, _) = run_toy(64, k, threads, 12);
                assert_eq!(forwarded, baseline, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn stats_count_windows_and_steps() {
        // `horizon` sending windows plus one drain window for the last
        // grants the hub forwarded.
        let (_, _, stats) = run_toy(16, 2, 1, 5);
        assert_eq!(stats.windows, 6);
        assert!(stats.shard_steps >= 2);
        assert!(stats.messages > 0);
    }

    #[test]
    fn empty_shards_is_a_config_error() {
        struct Nop;
        impl ShardWorkload for Nop {
            type Shard = ();
            type Msg = ();
            fn shard_step(
                &self,
                _: usize,
                (): &mut (),
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> Option<SimTime> {
                None
            }
            fn hub_step(
                &mut self,
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> HubDecision {
                HubDecision::stop()
            }
        }
        let err = run(
            &ShardConfig::new(1, SimDuration::from_secs(1)),
            &mut Nop,
            &mut [],
        )
        .expect_err("no shards");
        assert!(matches!(err, ShardError::Config { .. }));
    }

    #[test]
    fn window_cap_errors_instead_of_spinning() {
        struct Spin;
        impl ShardWorkload for Spin {
            type Shard = ();
            type Msg = ();
            fn shard_step(
                &self,
                _: usize,
                (): &mut (),
                win: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> Option<SimTime> {
                Some(win.end)
            }
            fn hub_step(
                &mut self,
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> HubDecision {
                HubDecision::running(None)
            }
        }
        let mut cfg = ShardConfig::new(1, SimDuration::from_secs(1));
        cfg.max_windows = 10;
        let err = run(&cfg, &mut Spin, &mut [()]).expect_err("spins");
        assert_eq!(err, ShardError::WindowCap { windows: 10 });
    }

    #[test]
    fn hub_stop_ends_the_run() {
        struct Stopper {
            windows_seen: u64,
        }
        impl ShardWorkload for Stopper {
            type Shard = ();
            type Msg = ();
            fn shard_step(
                &self,
                _: usize,
                (): &mut (),
                win: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> Option<SimTime> {
                Some(win.end)
            }
            fn hub_step(
                &mut self,
                win: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> HubDecision {
                self.windows_seen += 1;
                if win.index >= 3 {
                    HubDecision::stop()
                } else {
                    HubDecision::running(None)
                }
            }
        }
        let mut w = Stopper { windows_seen: 0 };
        let stats = run(
            &ShardConfig::new(1, SimDuration::from_secs(1)),
            &mut w,
            &mut [()],
        )
        .expect("runs");
        assert_eq!(w.windows_seen, 4);
        assert_eq!(stats.windows, 4);
    }

    #[test]
    fn a_panicking_shard_surfaces_deterministically() {
        struct Boom;
        impl ShardWorkload for Boom {
            type Shard = usize;
            type Msg = ();
            fn shard_step(
                &self,
                shard: usize,
                _: &mut usize,
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> Option<SimTime> {
                if shard >= 1 {
                    panic!("shard {shard} exploded");
                }
                None
            }
            fn hub_step(
                &mut self,
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> HubDecision {
                HubDecision::running(None)
            }
        }
        for threads in [1, 4] {
            let err = run(
                &ShardConfig::new(threads, SimDuration::from_secs(1)),
                &mut Boom,
                &mut [0, 1, 2, 3],
            )
            .expect_err("panics");
            match err {
                ShardError::Panicked { shard, message } => {
                    assert_eq!(shard, 1, "threads={threads}");
                    assert!(message.contains("exploded"), "message: {message}");
                }
                other => panic!("wrong variant: {other}"),
            }
        }
    }

    #[test]
    fn skips_empty_windows() {
        // One message far in the future: the engine must jump there
        // rather than grinding through every window in between.
        struct Jump;
        #[derive(Debug)]
        struct Ping;
        impl ShardWorkload for Jump {
            type Shard = bool;
            type Msg = Ping;
            fn shard_step(
                &self,
                _: usize,
                sent: &mut bool,
                win: &WindowInfo,
                inbox: Vec<(SimTime, Ping)>,
                mail: &mut Mailbox<Ping>,
            ) -> Option<SimTime> {
                if !*sent {
                    *sent = true;
                    mail.send(
                        Addr::Shard(0),
                        win.start + SimDuration::from_secs(100_000),
                        1,
                        Ping,
                    );
                }
                let _ = inbox;
                None
            }
            fn hub_step(
                &mut self,
                _: &WindowInfo,
                _: Vec<(SimTime, Ping)>,
                _: &mut Mailbox<Ping>,
            ) -> HubDecision {
                HubDecision::running(None)
            }
        }
        let stats = run(
            &ShardConfig::new(1, SimDuration::from_secs(1)),
            &mut Jump,
            &mut [false],
        )
        .expect("runs");
        assert_eq!(stats.windows, 2, "must jump over ~100k empty windows");
    }

    #[test]
    fn error_renders() {
        assert_eq!(
            ShardError::Panicked {
                shard: 2,
                message: "kaput".to_string()
            }
            .to_string(),
            "shard 2 panicked: kaput"
        );
        assert_eq!(
            ShardError::WindowCap { windows: 9 }.to_string(),
            "window cap reached after 9 windows"
        );
    }
}
