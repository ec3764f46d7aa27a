//! Deterministic sharded single-run engine.
//!
//! [`par`](crate::par) parallelizes *across* replications; this module
//! parallelizes *within* one run. A simulation is partitioned into `K`
//! **shards** (by convention keyed `entity_id % K`) plus one **hub**
//! that owns whatever state is semantically global (matchmaking pools,
//! verification, ledgers). Time advances in lock-stepped **windows** of
//! fixed [`SimDuration`]; within a window every shard steps
//! independently on a worker thread, stateless **jobs** (messages sent
//! to [`Addr::Job`]) run on whichever worker claims them, and all
//! cross-shard traffic flows through a message **exchange** that
//! delivers each window's inbox in a canonical order — so the run is
//! byte-identical at any `--shards` × `--threads` combination.
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
//!    workload (`&self`), and their inbox; a job only on `&self` and its
//!    message. All RNG must come from per-entity
//!    [`RngFactory`](crate::rng::RngFactory) streams, never from
//!    per-shard or per-thread streams.
//! 3. Messages emitted by a shard or a job **to the hub** are delivered
//!    in the *same* window (the hub phase runs after the pool phase);
//!    all other routes deliver in `max(window_of(at), current + 1)`.
//!
//! ## Window cycle
//!
//! ```text
//! window w:  [pool phase: active shards step, then jobs run in key
//!             order, on the calling thread and threads - 1 helpers]
//!            [exchange: merge shard→hub and job→hub messages by
//!             (key, src, seq)]
//!            [hub phase: hub steps serially on the calling thread]
//!            [route hub, shard and job messages into future windows]
//! ```
//!
//! The helper threads live for the whole run (one
//! [`par`](crate::par) pool); no window spawns a thread. Which thread
//! steps a shard or runs a job never shows in the results: outputs are
//! routed in item order, and inboxes are merged by key.
//!
//! A shard is *active* in a window when its inbox is non-empty or its
//! reported wake time falls inside the window. Every shard steps in
//! window 0. The run ends when no message is pending and no shard
//! reports a wake time; the hub only answers its inbox.

use crate::par::{with_pool, Pool};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;

/// Where a message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// The serial hub that runs after every pool phase.
    Hub,
    /// Shard `i` (0-based).
    Shard(usize),
    /// A job: runs through [`ShardWorkload::run_job`] in its delivery
    /// window, on whichever worker claims it.
    Job,
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
    /// The last instant that still belongs to this window.
    #[must_use]
    pub fn last_tick(&self) -> SimTime {
        SimTime::from_ticks(self.end.ticks().saturating_sub(1))
    }
}

/// Source tag used in the exchange's merge order; the hub sorts after
/// every shard and every job.
const SRC_HUB: u32 = u32::MAX;

/// Source tag of job mail. Keys are unique per (window, destination), so
/// the tag never decides the merge order.
const SRC_JOB: u32 = u32::MAX - 1;

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

/// Outgoing messages of one step or job. The engine assigns delivery
/// windows: shard→hub and job→hub land in the current window, everything
/// else in `max(window_of(at), current + 1)`.
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
    pub(crate) fn len(&self) -> usize {
        self.out.len()
    }

    /// The window `env` is delivered in: shard→hub and job→hub mail
    /// stays in the sending window, all other routes land in
    /// `max(window_of(at), sending_window + 1)`.
    fn delivery_window(&self, env: &Envelope<M>) -> u64 {
        if self.origin != SRC_HUB && env.to == Addr::Hub {
            self.window
        } else {
            (env.at.ticks() / self.window_ticks).max(self.window + 1)
        }
    }
}

/// A sharded simulation: `K` shard states stepped and jobs run in
/// parallel, plus a serial hub, exchanging messages of one type.
///
/// Workers share `&self` for the whole run. Hub state lives apart, in
/// [`ShardWorkload::Hub`], which only the calling thread touches — so it
/// needs neither `Send` nor `Sync`, and the hub may freely talk to
/// thread-local observability.
pub trait ShardWorkload {
    /// Per-shard state; moved across worker threads between windows.
    type Shard: Send;
    /// The cross-shard message type.
    type Msg: Send;
    /// Hub state, stepped serially on the calling thread.
    type Hub;

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

    /// Runs one job: a message sent to [`Addr::Job`] and timestamped
    /// `at`, in its delivery window, on whichever worker claims it. Its
    /// mail is routed like a shard step's.
    fn run_job(&self, at: SimTime, msg: Self::Msg, mail: &mut Mailbox<Self::Msg>);

    /// Steps the hub through `win` after the pool phase, consuming the
    /// merged shard→hub and job→hub inbox (canonical order). The hub
    /// never wakes a window itself: it runs in every window that runs.
    fn hub_step(
        &self,
        hub: &mut Self::Hub,
        win: &WindowInfo,
        inbox: Vec<(SimTime, Self::Msg)>,
        mail: &mut Mailbox<Self::Msg>,
    );
}

/// Engine parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Threads that work the pool phase, counting the calling thread:
    /// `threads - 1` helpers live for the whole run (`<= 1` runs
    /// everything on the calling thread).
    pub threads: usize,
    /// Window length; every shard sees the same lock-stepped grid.
    pub window: SimDuration,
}

impl ShardConfig {
    /// A config with the given thread count and window length.
    #[must_use]
    pub fn new(threads: usize, window: SimDuration) -> Self {
        ShardConfig { threads, window }
    }
}

/// Deterministic facts about a finished run. Useful for assertions;
/// `shard_steps` depends on the shard count (not on threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Windows processed.
    pub windows: u64,
    /// Total shard steps across all windows (jobs are not steps).
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
    /// A job panicked; `key` is the lowest panicking job key of the
    /// window (jobs run in key order), whichever thread ran it.
    JobPanicked {
        /// Exchange key of the job's message.
        key: u128,
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
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Panicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            ShardError::JobPanicked { key, message } => {
                write!(f, "job {key} panicked: {message}")
            }
            ShardError::Pool { message } => write!(f, "shard pool: {message}"),
            ShardError::Config { message } => write!(f, "shard config: {message}"),
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

/// One pool item of a window.
enum Work<'s, W: ShardWorkload> {
    /// Shard `shard` steps through `win` on its canonical inbox.
    Step {
        win: WindowInfo,
        shard: usize,
        state: &'s mut W::Shard,
        inbox: Vec<(SimTime, W::Msg)>,
    },
    /// A job delivered in `win` runs.
    Job {
        win: WindowInfo,
        at: SimTime,
        msg: W::Msg,
    },
}

/// Who made a pool item: names the failure when the item panics.
#[derive(Clone, Copy)]
enum Origin {
    Shard(usize),
    Job(u128),
}

/// What a pool item hands back: its mail and, for a shard step, the
/// shard's state (back to its slot) and next wake.
struct Output<'s, W: ShardWorkload> {
    mail: Mailbox<W::Msg>,
    step: Option<(&'s mut W::Shard, Option<SimTime>)>,
}

/// The pool's one work function: steps a shard or runs a job.
fn perform<'s, W: ShardWorkload>(
    workload: &W,
    window_ticks: u64,
    item: Work<'s, W>,
) -> Output<'s, W> {
    match item {
        Work::Step {
            win,
            shard,
            state,
            inbox,
        } => {
            // Steps mostly answer their inbox one-for-one (plus a bounded
            // fan of returns), so twice the inbox is a good steady-state fit.
            let mut mail = Mailbox::new(shard as u32, win.index, window_ticks, inbox.len() * 2);
            let wake = workload.shard_step(shard, state, &win, inbox, &mut mail);
            Output {
                mail,
                step: Some((state, wake)),
            }
        }
        Work::Job { win, at, msg } => {
            // A job typically answers with a handful of messages.
            let mut mail = Mailbox::new(SRC_JOB, win.index, window_ticks, 4);
            workload.run_job(at, msg, &mut mail);
            Output { mail, step: None }
        }
    }
}

/// Files each envelope of `mail` under its delivery window: hub-bound
/// mail of window `win` joins `hub_in`, everything else waits in
/// `pending`. Returns how many envelopes were deferred past `win`; a
/// traced run also observes each one's wait.
fn file_mail<M>(
    mut mail: Mailbox<M>,
    win: &WindowInfo,
    traced: bool,
    hub_in: &mut Vec<Envelope<M>>,
    pending: &mut BTreeMap<u64, Vec<Envelope<M>>>,
) -> u64 {
    let window_ticks = mail.window_ticks;
    let mut deferred = 0;
    for env in std::mem::take(&mut mail.out) {
        let dw = mail.delivery_window(&env);
        if dw > win.index {
            deferred += 1;
            if traced {
                hc_obs::observe(
                    "shard.exchange.wait_us",
                    win.end.ticks(),
                    (dw * window_ticks).saturating_sub(env.at.ticks()) as f64,
                );
            }
        }
        if dw == win.index && env.to == Addr::Hub {
            hub_in.push(env);
        } else {
            pending.entry(dw).or_default().push(env);
        }
    }
    deferred
}

/// Runs `workload` over `shards` to quiescence, with `hub` as the hub's
/// state.
///
/// One pool serves the whole run: `cfg.threads - 1` helper threads plus
/// the calling thread. In each window they step every active shard
/// (each thread taking the next unclaimed item), then run every job in
/// key order. The hub then runs serially on the calling thread.
///
/// # Errors
///
/// [`ShardError::Panicked`] when a shard step panics (lowest shard
/// index of the window wins, so the error is deterministic),
/// [`ShardError::JobPanicked`] when a job panics and no shard step of
/// the window did (lowest job key wins), [`ShardError::Pool`] on
/// worker-pool failure, and [`ShardError::Config`] for invalid configs.
pub fn run<W>(
    cfg: &ShardConfig,
    workload: &W,
    hub: &mut W::Hub,
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
    let work = |item| perform(workload, window_ticks, item);
    with_pool(cfg.threads, work, |pool| {
        run_windows(cfg, workload, hub, shards, pool)
    })
    .map_err(|message| ShardError::Pool {
        message: format!("a worker thread died outside a step: {message}"),
    })?
}

/// The window loop of [`run`], on the calling thread.
fn run_windows<'s, W, F>(
    cfg: &ShardConfig,
    workload: &W,
    hub: &mut W::Hub,
    shards: &'s mut [W::Shard],
    pool: &Pool<'_, Work<'s, W>, Output<'s, W>, F>,
) -> Result<ShardRunStats, ShardError>
where
    W: ShardWorkload,
    F: Fn(Work<'s, W>) -> Output<'s, W>,
{
    let window_ticks = cfg.window.ticks();
    let window_of = |t: SimTime| t.ticks() / window_ticks;
    let k = shards.len();

    // Tracing is observed-never-consulted: everything below that touches
    // hc-obs is emission-only and guarded on `traced`, so untraced runs
    // take the exact same path as before. All emission happens on the
    // calling thread outside pool items (shard steps and jobs emit
    // nothing), which keeps the recorded trace byte-identical at any
    // `cfg.threads`. Records under the `layout.` prefix (per-shard lanes,
    // the skew gauge) are the only shard-count-dependent ones;
    // derived-metrics summaries exclude that prefix so they stay
    // byte-identical across layouts.
    let traced = hc_obs::active();
    let run_scope = traced.then(|| {
        for s in 0..k {
            hc_obs::name_track(SHARD_TRACK_BASE + s as u32, &format!("shard-{s}"));
        }
        hc_obs::enter("sim.shard", "run", 0)
    });

    // A shard's state sits in its slot between windows and travels with
    // its step item during the pool phase.
    let mut slots: Vec<Option<&'s mut W::Shard>> = shards.iter_mut().map(Some).collect();
    let mut pending: BTreeMap<u64, Vec<Envelope<W::Msg>>> = BTreeMap::new();
    // Every shard gets an initial step in window 0 so it can seed its
    // calendar before any messages exist.
    let mut wakes: Vec<Option<SimTime>> = vec![Some(SimTime::ZERO); k];
    let mut last_window: Option<u64> = None;
    let mut stats = ShardRunStats::default();

    loop {
        // Next interesting window: earliest pending message or wake,
        // never re-running a processed window.
        let floor = last_window.map_or(0, |w| w + 1);
        let mut next: Option<u64> = pending.keys().next().copied();
        for wake in wakes.iter().flatten() {
            let cand = window_of(*wake).max(floor);
            next = Some(next.map_or(cand, |n| n.min(cand)));
        }
        let Some(wi) = next else { break };
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
        // the `layout.` lanes and skew gauge; never wall-clock.
        let mut work: Vec<u64> = if traced { vec![0; k] } else { Vec::new() };
        let mut stepped: Vec<usize> = Vec::new();

        // Partition this window's messages by destination.
        let arrivals = pending.remove(&wi).unwrap_or_default();
        let delivered = arrivals.len() as u64;
        let mut shard_in: Vec<Vec<Envelope<W::Msg>>> = (0..k).map(|_| Vec::new()).collect();
        let mut hub_in: Vec<Envelope<W::Msg>> = Vec::new();
        let mut job_in: Vec<Envelope<W::Msg>> = Vec::new();
        for env in arrivals {
            match env.to {
                Addr::Shard(s) => shard_in[s].push(env),
                Addr::Hub => hub_in.push(env),
                Addr::Job => job_in.push(env),
            }
        }

        // Pool phase: every active shard steps, then every job runs in
        // key order. Steps are claimed first because they are the
        // longest items.
        let mut items = Vec::new();
        let mut origins = Vec::new();
        for (s, inbox) in shard_in.iter_mut().enumerate() {
            let due = wakes[s].is_some_and(|t| t < win.end);
            if inbox.is_empty() && !due {
                continue;
            }
            // Every state is back in its slot after each pool phase.
            let Some(state) = slots[s].take() else {
                continue;
            };
            canonicalize(inbox);
            if traced {
                work[s] = inbox.len() as u64;
                stepped.push(s);
            }
            let inbox = std::mem::take(inbox)
                .into_iter()
                .map(|e| (e.at, e.msg))
                .collect();
            items.push(Work::Step {
                win,
                shard: s,
                state,
                inbox,
            });
            origins.push(Origin::Shard(s));
        }
        stats.shard_steps += items.len() as u64;
        canonicalize(&mut job_in);
        for env in job_in {
            items.push(Work::Job {
                win,
                at: env.at,
                msg: env.msg,
            });
            origins.push(Origin::Job(env.key));
        }

        // Outputs come back in item order: surface the lowest panicking
        // shard, else the lowest panicking job (deterministic), then
        // route every emitted message.
        for (origin, out) in origins.into_iter().zip(pool.map(items)) {
            let out = out.map_err(|message| match origin {
                Origin::Shard(shard) => ShardError::Panicked { shard, message },
                Origin::Job(key) => ShardError::JobPanicked { key, message },
            })?;
            let sent = out.mail.len() as u64;
            stats.messages += sent;
            exchange_sent += sent;
            if let (Origin::Shard(s), Some((state, wake))) = (origin, out.step) {
                slots[s] = Some(state);
                wakes[s] = wake;
                if traced {
                    work[s] += sent;
                }
            }
            exchange_deferred += file_mail(out.mail, &win, traced, &mut hub_in, &mut pending);
        }

        // Hub phase (serial, calling thread).
        canonicalize(&mut hub_in);
        let hub_inbox: Vec<(SimTime, W::Msg)> = std::mem::take(&mut hub_in)
            .into_iter()
            .map(|e| (e.at, e.msg))
            .collect();
        let mut hub_mail = Mailbox::new(SRC_HUB, wi, window_ticks, hub_inbox.len());
        workload.hub_step(hub, &win, hub_inbox, &mut hub_mail);
        let hub_sent = hub_mail.len() as u64;
        stats.messages += hub_sent;
        exchange_sent += hub_sent;
        // Hub mail never lands in its own window, so `hub_in` stays empty.
        exchange_deferred += file_mail(hub_mail, &win, traced, &mut hub_in, &mut pending);

        if let Some(scope) = win_scope {
            // Per-shard lanes and the skew gauge are the shard-layout-
            // dependent view; the `layout.` prefix keeps them out of
            // derived-metrics summaries (they stay layout-invariant).
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
    }

    if let Some(scope) = run_scope {
        scope.close(&[
            ("windows", stats.windows.into()),
            ("steps", stats.shard_steps.into()),
            ("messages", stats.messages.into()),
        ]);
    }
    if hc_obs::active() {
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
        k: u64,
        horizon: u64,
    }

    /// The toy hub's tallies: tokens received per shard, and forwarded.
    struct ToyHub {
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
        type Hub = ToyHub;

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

        fn run_job(&self, _: SimTime, _: ToyMsg, _: &mut Mailbox<ToyMsg>) {}

        fn hub_step(
            &self,
            hub: &mut ToyHub,
            _: &WindowInfo,
            inbox: Vec<(SimTime, ToyMsg)>,
            mail: &mut Mailbox<ToyMsg>,
        ) {
            let k = self.k;
            for (at, msg) in inbox {
                if let ToyMsg::ToHub { from } = msg {
                    let to = (from * 31 + 17) % self.n;
                    hub.received[(from % k) as usize] += 1;
                    hub.forwarded += 1;
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
        let toy = Toy {
            n,
            k: k as u64,
            horizon,
        };
        let mut hub = ToyHub {
            received: vec![0; k],
            forwarded: 0,
        };
        let cfg = ShardConfig::new(threads, SimDuration::from_secs(10));
        let stats = run(&cfg, &toy, &mut hub, &mut shards).expect("toy runs");
        (hub.received, hub.forwarded, stats)
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
            type Hub = ();
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
            fn run_job(&self, _: SimTime, (): (), _: &mut Mailbox<()>) {}
            fn hub_step(
                &self,
                (): &mut (),
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) {
            }
        }
        let err = run(
            &ShardConfig::new(1, SimDuration::from_secs(1)),
            &Nop,
            &mut (),
            &mut [],
        )
        .expect_err("no shards");
        assert!(matches!(err, ShardError::Config { .. }));
    }

    #[test]
    fn the_run_ends_when_no_shard_wakes() {
        struct Countdown;
        impl ShardWorkload for Countdown {
            type Shard = ();
            type Msg = ();
            type Hub = u64;
            fn shard_step(
                &self,
                _: usize,
                (): &mut (),
                win: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) -> Option<SimTime> {
                (win.index < 3).then_some(win.end)
            }
            fn run_job(&self, _: SimTime, (): (), _: &mut Mailbox<()>) {}
            fn hub_step(
                &self,
                windows_seen: &mut u64,
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) {
                *windows_seen += 1;
            }
        }
        let mut windows_seen = 0;
        let stats = run(
            &ShardConfig::new(1, SimDuration::from_secs(1)),
            &Countdown,
            &mut windows_seen,
            &mut [()],
        )
        .expect("runs");
        // Windows 0-3: the hub steps in each, and nothing wakes after 3.
        assert_eq!(windows_seen, 4);
        assert_eq!(stats.windows, 4);
    }

    #[test]
    fn a_panicking_shard_surfaces_deterministically() {
        struct Boom;
        impl ShardWorkload for Boom {
            type Shard = usize;
            type Msg = ();
            type Hub = ();
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
            fn run_job(&self, _: SimTime, (): (), _: &mut Mailbox<()>) {}
            fn hub_step(
                &self,
                (): &mut (),
                _: &WindowInfo,
                _: Vec<(SimTime, ())>,
                _: &mut Mailbox<()>,
            ) {
            }
        }
        for threads in [1, 4] {
            let err = run(
                &ShardConfig::new(threads, SimDuration::from_secs(1)),
                &Boom,
                &mut (),
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
            type Hub = ();
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
            fn run_job(&self, _: SimTime, _: Ping, _: &mut Mailbox<Ping>) {}
            fn hub_step(
                &self,
                (): &mut (),
                _: &WindowInfo,
                _: Vec<(SimTime, Ping)>,
                _: &mut Mailbox<Ping>,
            ) {
            }
        }
        let stats = run(
            &ShardConfig::new(1, SimDuration::from_secs(1)),
            &Jump,
            &mut (),
            &mut [false],
        )
        .expect("runs");
        assert_eq!(stats.windows, 2, "must jump over ~100k empty windows");
    }

    /// Job traffic: shard 0 sends one job per key in window 0; job `key`
    /// mails the hub (same window), shard 0 at its own time (next
    /// window) and shard 0 at tick 55 (window 5), and panics when `key`
    /// is odd and at least 5. Shard 0 and the hub log `(window, key)` of
    /// what they receive.
    struct Courier {
        jobs: Vec<u128>,
        hub_panics_in: Option<u64>,
    }

    #[derive(Debug)]
    enum Parcel {
        Job(u128),
        Note(u128),
    }

    type Log = Vec<(u64, u128)>;

    fn note_key(job: u128, n: u128) -> u128 {
        job * 16 + n
    }

    impl ShardWorkload for Courier {
        type Shard = Log;
        type Msg = Parcel;
        type Hub = Log;
        fn shard_step(
            &self,
            shard: usize,
            log: &mut Log,
            win: &WindowInfo,
            inbox: Vec<(SimTime, Parcel)>,
            mail: &mut Mailbox<Parcel>,
        ) -> Option<SimTime> {
            for (_, parcel) in inbox {
                if let Parcel::Note(key) = parcel {
                    log.push((win.index, key));
                }
            }
            if shard == 0 && win.index == 0 {
                for &key in &self.jobs {
                    mail.send(Addr::Job, SimTime::from_ticks(3), key, Parcel::Job(key));
                }
            }
            None
        }
        fn run_job(&self, at: SimTime, parcel: Parcel, mail: &mut Mailbox<Parcel>) {
            let Parcel::Job(key) = parcel else { return };
            assert!(key % 2 == 0 || key < 5, "job {key} exploded");
            let far = SimTime::from_ticks(55);
            mail.send(
                Addr::Hub,
                at,
                note_key(key, 0),
                Parcel::Note(note_key(key, 0)),
            );
            mail.send(
                Addr::Shard(0),
                at,
                note_key(key, 1),
                Parcel::Note(note_key(key, 1)),
            );
            mail.send(
                Addr::Shard(0),
                far,
                note_key(key, 2),
                Parcel::Note(note_key(key, 2)),
            );
        }
        fn hub_step(
            &self,
            log: &mut Log,
            win: &WindowInfo,
            inbox: Vec<(SimTime, Parcel)>,
            _: &mut Mailbox<Parcel>,
        ) {
            assert_ne!(Some(win.index), self.hub_panics_in, "the hub exploded");
            for (_, parcel) in inbox {
                if let Parcel::Note(key) = parcel {
                    log.push((win.index, key));
                }
            }
        }
    }

    fn run_courier(
        courier: &Courier,
        shards: usize,
        threads: usize,
    ) -> Result<(Log, Log, ShardRunStats), ShardError> {
        let mut states: Vec<Log> = vec![Vec::new(); shards];
        let mut hub = Vec::new();
        let cfg = ShardConfig::new(threads, SimDuration::from_ticks(10));
        let stats = run(&cfg, courier, &mut hub, &mut states)?;
        Ok((states.swap_remove(0), hub, stats))
    }

    #[test]
    fn job_mail_lands_like_shard_mail() {
        let courier = Courier {
            jobs: vec![2],
            hub_panics_in: None,
        };
        for threads in [1, 2, 4] {
            let (shard0, hub, stats) = run_courier(&courier, 2, threads).expect("runs");
            // Sent from window 0 at tick 3, the job is due in window 1.
            // Its hub mail lands in that window; its shard mail at
            // `max(window_of(at), 2)`: window 2 for tick 3, window 5
            // for tick 55.
            assert_eq!(hub, [(1, note_key(2, 0))], "threads={threads}");
            assert_eq!(shard0, [(2, note_key(2, 1)), (5, note_key(2, 2))]);
            assert_eq!(stats.windows, 4, "windows 0, 1, 2 and 5");
            // Shard steps: both shards in window 0, shard 0 in 2 and 5.
            assert_eq!(stats.shard_steps, 4);
        }
    }

    #[test]
    fn the_lowest_panicking_job_key_is_reported() {
        let courier = Courier {
            jobs: vec![9, 3, 7, 5, 4, 11],
            hub_panics_in: None,
        };
        for threads in [1, 2, 4] {
            match run_courier(&courier, 2, threads) {
                Err(ShardError::JobPanicked { key, message }) => {
                    assert_eq!(key, 5, "threads={threads}");
                    assert!(message.contains("job 5 exploded"), "message: {message}");
                }
                other => panic!("wrong outcome: {:?}", other.map(|r| r.2)),
            }
        }
    }

    #[test]
    fn a_panicking_hub_step_propagates_instead_of_hanging() {
        let courier = Courier {
            jobs: vec![2, 4],
            hub_panics_in: Some(1),
        };
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| run_courier(&courier, 2, threads));
            let payload = caught.expect_err("the hub panics in window 1");
            let message = crate::par::panic_message(payload.as_ref());
            assert!(message.contains("the hub exploded"), "message: {message}");
        }
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
            ShardError::JobPanicked {
                key: 7,
                message: "kaput".to_string()
            }
            .to_string(),
            "job 7 panicked: kaput"
        );
    }
}
