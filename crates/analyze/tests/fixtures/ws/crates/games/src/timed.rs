//! Fixture: an un-indexed draw that only the nested workspace's
//! `ShardGame` impl calls, so R1 must stay silent here.

pub fn timed_replay_draw(factory: &RngFactory) -> u64 {
    let mut rng = factory.stream("replay");
    rng.gen()
}
