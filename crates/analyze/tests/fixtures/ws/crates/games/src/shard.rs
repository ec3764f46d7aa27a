//! Fixture: R1 RNG discipline — un-indexed sources, cloned streams,
//! and struct-stored RNG state in shard-reachable code fire; the
//! serial hub section stays silent behind the `hub_step` barrier.

pub struct MiniCampaign {
    factory: RngFactory,
    hub_rng: SimRng,
}

impl ShardWorkload for MiniCampaign {
    fn shard_step(&self, sid: u32) -> u64 {
        let mut rng = self.factory.stream("session");
        let dup = rng.clone();
        spin(&mut rng) + drain(dup) + self.gap(sid)
    }

    fn hub_step(&mut self) -> u64 {
        let mut rng = self.factory.stream("matchmaking");
        rng.gen()
    }
}

impl MiniCampaign {
    fn gap(&self, sid: u32) -> u64 {
        mix(&self.hub_rng, sid)
    }
}

pub struct CleanCampaign {
    factory: RngFactory,
}

impl ShardWorkload for CleanCampaign {
    fn shard_step(&self, sid: u32) -> u64 {
        let mut rng = self.factory.indexed_stream("shard.session", u64::from(sid));
        spin(&mut rng)
    }

    fn hub_step(&mut self) -> u64 {
        0
    }
}

fn spin(rng: &mut SimRng) -> u64 {
    rng.gen()
}

fn drain(mut rng: SimRng) -> u64 {
    rng.gen()
}

fn mix(rng: &SimRng, sid: u32) -> u64 {
    let _ = rng;
    u64::from(sid)
}

/// Sharded matchmaking: per-bucket wait pools run inside
/// `shard_step`, so their pairing draws are R1-subject even though
/// the same bucket state is also read behind the hub barrier during
/// stats harvest.
pub struct BucketCampaign {
    factory: RngFactory,
    buckets: Vec<WaitBucket>,
}

pub struct WaitBucket {
    draws: u64,
}

impl WaitBucket {
    fn pair_unindexed(&mut self, factory: &RngFactory) -> u64 {
        let mut rng = factory.stream("shard.match");
        let dup = rng.clone();
        self.draws += 1;
        spin(&mut rng) + drain(dup)
    }

    fn pair_indexed(&mut self, factory: &RngFactory, bucket: u64) -> u64 {
        let mut rng = factory.indexed_stream("shard.match", (bucket << 40) | self.draws);
        self.draws += 1;
        spin(&mut rng)
    }
}

impl ShardWorkload for BucketCampaign {
    fn shard_step(&mut self, sid: u32) -> u64 {
        let bucket = u64::from(sid) % 2;
        match self.buckets.first_mut() {
            Some(mb) => mb.pair_unindexed(&self.factory) + mb.pair_indexed(&self.factory, bucket),
            None => 0,
        }
    }

    fn hub_step(&mut self) -> u64 {
        self.buckets.iter().map(|mb| mb.draws).sum()
    }
}

/// Engine jobs: `run_job` runs on any worker, so it roots R1 like
/// `shard_step`; a helper taking an array of profiles is reached too.
pub struct JobCampaign {
    factory: RngFactory,
}

impl ShardWorkload for JobCampaign {
    fn run_job(&self, sid: u32) -> u64 {
        let mut rng = self.factory.stream("session");
        spin(&mut rng) + seat_pair(sid)
    }

    fn hub_step(&mut self) -> u64 {
        0
    }
}

fn seat_pair(sid: u32) -> u64 {
    u64::from(sid) + pair_bonus([&mut PlayerProfile::default(), &mut PlayerProfile::default()])
}

fn pair_bonus(profiles: [&mut PlayerProfile; 2]) -> u64 {
    let mut rng = RngFactory::new(1).stream("probe");
    let _ = profiles;
    spin(&mut rng)
}

/// A game's round runs inside engine jobs however the engine reaches
/// it, so `SessionDriver::play_round` roots R1 on its own.
pub struct RoundGame;

impl SessionDriver for RoundGame {
    fn play_round(&self, round: u32) -> u64 {
        let mut rng = RngFactory::new(1).stream("probe");
        spin(&mut rng) + u64::from(round)
    }
}
