//! Property tests for the sharded single-run engine: for *any* agent
//! population, shard count, thread count, and window length, the hub
//! must observe the exact same message sequence — byte-identical to a
//! hand-derived serial reference that re-implements the routing
//! contract (window assignment + `(window, key, src, seq)` merge)
//! without threads, mailboxes, or the engine itself.
//!
//! The synthetic workload is a two-hop relay exercising every route:
//!
//! * each agent owns a fixed calendar of `Fire` events (pure function
//!   of its parameters); its home shard drains the calendar per window
//!   and reports each firing to the hub (shard → hub, same window);
//! * the hub logs the firing and sends an `Ack` back to the agent's
//!   home shard at `t + delta` (hub → shard, next window at the
//!   earliest) — or, for an agent with an odd `delta`, hands the ack to
//!   a **job** (hub → job, next window), which runs on any worker,
//!   reports a `Note` (job → hub, same window) and sends the `Ack`
//!   itself (job → shard, next window at the earliest);
//! * the shard answers each `Ack` with a `Done` at the ack time
//!   (shard → hub again), which the hub also logs.
//!
//! The hub's log — every entry in processing order — is the observable.

use hc_sim::shard::{run, Addr, Mailbox, ShardConfig, ShardWorkload, WindowInfo};
use hc_sim::{SimDuration, SimTime, WheelQueue};
use proptest::collection::vec;
use proptest::prelude::*;

const TAG_FIRE: u128 = 1 << 120;
const TAG_DONE: u128 = 2 << 120;
const TAG_NOTE: u128 = 3 << 120;

fn key(tag: u128, t: SimTime, agent: u64) -> u128 {
    tag | (u128::from(t.ticks()) << 64) | u128::from(agent)
}

/// One agent's pure schedule: `rounds` firings starting at `base`,
/// `step` apart, acked `delta` later.
#[derive(Debug, Clone)]
struct Agent {
    base: u64,
    step: u64,
    rounds: u64,
    delta: u64,
}

#[derive(Debug)]
enum Msg {
    Fire {
        agent: u64,
    },
    Ack {
        agent: u64,
    },
    Done {
        agent: u64,
    },
    /// A job: acks `agent`'s firing.
    Relay {
        agent: u64,
    },
    Note {
        agent: u64,
    },
}

struct RelayShard {
    calendar: WheelQueue<u64>,
}

struct Relay {
    agents: Vec<Agent>,
    shards: usize,
}

/// The hub's log: `(ticks, agent, kind)` in hub processing order; kind
/// 0 = fire, 1 = done, 2 = a job's note.
type Log = Vec<(u64, u64, u8)>;

impl Relay {
    /// Sends the `Ack` of `agent`'s firing at `at` to its home shard.
    fn ack(&self, at: SimTime, agent: u64, mail: &mut Mailbox<Msg>) {
        let ack_at = at + SimDuration::from_ticks(self.agents[agent as usize].delta);
        mail.send(
            Addr::Shard((agent as usize) % self.shards),
            ack_at,
            key(TAG_FIRE, ack_at, agent),
            Msg::Ack { agent },
        );
    }
}

impl ShardWorkload for Relay {
    type Shard = RelayShard;
    type Msg = Msg;
    type Hub = Log;

    fn shard_step(
        &self,
        _shard: usize,
        state: &mut RelayShard,
        win: &WindowInfo,
        inbox: Vec<(SimTime, Msg)>,
        mail: &mut Mailbox<Msg>,
    ) -> Option<SimTime> {
        for (at, msg) in inbox {
            match msg {
                Msg::Ack { agent } => {
                    mail.send(Addr::Hub, at, key(TAG_DONE, at, agent), Msg::Done { agent });
                }
                _ => panic!("a message for the hub or a job reached a shard"),
            }
        }
        while let Some((t, agent)) = state.calendar.pop_before(win.last_tick()) {
            mail.send(Addr::Hub, t, key(TAG_FIRE, t, agent), Msg::Fire { agent });
        }
        state.calendar.peek_time()
    }

    fn run_job(&self, at: SimTime, msg: Msg, mail: &mut Mailbox<Msg>) {
        let Msg::Relay { agent } = msg else {
            panic!("a job ran a message that is not a relay");
        };
        mail.send(Addr::Hub, at, key(TAG_NOTE, at, agent), Msg::Note { agent });
        self.ack(at, agent, mail);
    }

    fn hub_step(
        &self,
        log: &mut Log,
        _win: &WindowInfo,
        inbox: Vec<(SimTime, Msg)>,
        mail: &mut Mailbox<Msg>,
    ) {
        for (at, msg) in inbox {
            match msg {
                Msg::Fire { agent } => {
                    log.push((at.ticks(), agent, 0));
                    if self.agents[agent as usize].delta % 2 == 1 {
                        let relay = Msg::Relay { agent };
                        mail.send(Addr::Job, at, key(TAG_FIRE, at, agent), relay);
                    } else {
                        self.ack(at, agent, mail);
                    }
                }
                Msg::Done { agent } => log.push((at.ticks(), agent, 1)),
                Msg::Note { agent } => log.push((at.ticks(), agent, 2)),
                Msg::Ack { .. } | Msg::Relay { .. } => {
                    panic!("a message for a shard or a job reached the hub")
                }
            }
        }
    }
}

/// Runs the relay on the engine and returns the hub log.
fn engine_log(
    agents: &[Agent],
    shards: usize,
    threads: usize,
    window_ticks: u64,
) -> Vec<(u64, u64, u8)> {
    let mut states: Vec<RelayShard> = (0..shards)
        .map(|_| RelayShard {
            calendar: WheelQueue::new(),
        })
        .collect();
    for (i, a) in agents.iter().enumerate() {
        for r in 0..a.rounds {
            states[i % shards]
                .calendar
                .push(SimTime::from_ticks(a.base + r * a.step), i as u64);
        }
    }
    let relay = Relay {
        agents: agents.to_vec(),
        shards,
    };
    let mut log = Vec::new();
    let cfg = ShardConfig::new(threads, SimDuration::from_ticks(window_ticks));
    run(&cfg, &relay, &mut log, &mut states).expect("relay runs");
    log
}

/// Hand-derived reference: re-implements the routing contract directly.
///
/// * A firing at `t` reaches the hub in `window_of(t)` (the shard
///   processes its calendar in the window containing `t`, and
///   shard → hub delivery stays in the sending window).
/// * Its ack is processed by the shard — and therefore its `Done`
///   reaches the hub — in `max(window_of(t + delta), window_of(t) + 1)`.
/// * For an odd `delta` the ack's job runs in `window_of(t) + 1`; its
///   `Note` reaches the hub in that window, and the `Done` in
///   `max(window_of(t + delta), window_of(t) + 2)`.
/// * Within one hub window, messages arrive in `(key, src, seq)` order;
///   the key's tag bits put every `Fire` (tag 1) before every `Done`
///   (tag 2) and every `Note` (tag 3), then time, then agent id. Key
///   order subsumes src/seq here because keys are unique per window.
fn reference_log(agents: &[Agent], window_ticks: u64) -> Vec<(u64, u64, u8)> {
    // (window, key) -> entry
    let mut entries: Vec<(u64, u128, (u64, u64, u8))> = Vec::new();
    for (i, a) in agents.iter().enumerate() {
        for r in 0..a.rounds {
            let t = a.base + r * a.step;
            let fire_win = t / window_ticks;
            entries.push((
                fire_win,
                key(TAG_FIRE, SimTime::from_ticks(t), i as u64),
                (t, i as u64, 0),
            ));
            // The window the ack is sent from: the hub's, or its job's.
            let mut ack_win = fire_win;
            if a.delta % 2 == 1 {
                ack_win += 1;
                entries.push((
                    ack_win,
                    key(TAG_NOTE, SimTime::from_ticks(t), i as u64),
                    (t, i as u64, 2),
                ));
            }
            let done_t = t + a.delta;
            let done_win = (done_t / window_ticks).max(ack_win + 1);
            entries.push((
                done_win,
                key(TAG_DONE, SimTime::from_ticks(done_t), i as u64),
                (done_t, i as u64, 1),
            ));
        }
    }
    entries.sort_by(|(wa, ka, _), (wb, kb, _)| (wa, ka).cmp(&(wb, kb)));
    entries.into_iter().map(|(_, _, e)| e).collect()
}

/// Raw agent draw: `(base, step, rounds, delta)` — the vendored
/// proptest has no `prop_map`, so tests build [`Agent`]s from tuples.
type AgentTuple = (u64, u64, u64, u64);

fn agent_strategy() -> (
    std::ops::Range<u64>,
    std::ops::Range<u64>,
    std::ops::Range<u64>,
    std::ops::Range<u64>,
) {
    (0u64..200, 1u64..60, 0u64..4, 0u64..90)
}

fn agents_of(raw: &[AgentTuple]) -> Vec<Agent> {
    raw.iter()
        .map(|&(base, step, rounds, delta)| Agent {
            base,
            step,
            rounds,
            delta,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn any_layout_matches_the_hand_reference(
        raw in vec(agent_strategy(), 1..10),
        shards in 1usize..5,
        threads in 1usize..5,
        window_ticks in 1u64..80,
    ) {
        let agents = agents_of(&raw);
        let expected = reference_log(&agents, window_ticks);
        let got = engine_log(&agents, shards, threads, window_ticks);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn every_layout_agrees_with_the_serial_engine(
        raw in vec(agent_strategy(), 1..12),
        window_ticks in 1u64..50,
    ) {
        let agents = agents_of(&raw);
        let serial = engine_log(&agents, 1, 1, window_ticks);
        for shards in [1usize, 2, 3, 5] {
            for threads in [1usize, 2, 4] {
                let log = engine_log(&agents, shards, threads, window_ticks);
                prop_assert_eq!(
                    &log,
                    &serial,
                    "shards={} threads={}",
                    shards,
                    threads
                );
            }
        }
    }
}
