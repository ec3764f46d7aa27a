//! Fixture: call edges respect arity. An engine job calls the one-argument
//! `Sitting::arrive`; the serial `SerialCampaign::arrive` shares the name
//! but takes three arguments and reads a struct-stored RNG. The call cannot
//! bind to it, so R1 must stay silent here.

pub struct SerialCampaign {
    rng: SimRng,
}

impl SerialCampaign {
    fn arrive(&mut self, queue: &mut Vec<u64>, now: u64, player: u64) {
        let gap: u64 = self.rng.gen();
        queue.push(now + gap + player);
    }
}

pub struct Sitting {
    left: u32,
}

impl Sitting {
    fn arrive(&mut self, lengths: &[u32]) -> bool {
        self.left = lengths.len() as u32;
        self.left > 0
    }
}

pub struct SittingJobs {
    lengths: Vec<u32>,
}

impl ShardWorkload for SittingJobs {
    fn run_job(&self, sitting: &mut Sitting) -> u64 {
        u64::from(sitting.arrive(&self.lengths))
    }
}
